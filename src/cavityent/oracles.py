"""Independent numerical routes backing the perturbative machinery.

Two tools live here:

* exact junction overlaps at finite h, evaluated by composite Gauss-Legendre
  quadrature of the mode-function inner products (no series expansion at
  all), for one h or for a whole ladder of h values in one pass;
* order extraction, which turns the overlaps on a geometric ladder of h
  values into h^0, h^1, h^2 coefficients, splitting even and odd orders
  exactly through the mirror symmetry.

The cavity is rigid, and lengths are in units of its proper length, which
drops out of every overlap.  Its one parameter is h, the proper length times
the proper acceleration at the centre, with 0 < h < 2 so that both walls lie
in one Rindler wedge.  The quadrature reads three numbers of h: the trailing
wall's distance a = 1/h - 1/2 from the Rindler horizon, the ratio r = 1/a of
the cavity length to it, and the cavity's Rindler depth
L = log(1 + r) = 2 artanh(h/2).

The quadrature and the mirrored extraction feed the production junction
blocks; the finite-h identity residuals let ``cavityent check`` and the
tests hold the overlaps against something that does not share the series
derivation.
"""

from __future__ import annotations

import numpy as np


# Gauss-Legendre rule per quadrature panel on [-1, 1]: the positive half of
# numpy.polynomial.legendre.leggauss(12), mirrored (leggauss symmetrizes its
# rule, so the halves agree bit for bit), kept as constants so that no
# subcommand imports numpy.polynomial
_HALF_NODES = np.array([
    0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
    0.7699026741943047, 0.9041172563704748, 0.9815606342467192,
])
_HALF_WEIGHTS = np.array([
    0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
    0.16007832854334642, 0.10693932599531907, 0.04717533638651141,
])
GAUSS_NODES = np.concatenate([-_HALF_NODES[::-1], _HALF_NODES])
GAUSS_WEIGHTS = np.concatenate([_HALF_WEIGHTS[::-1], _HALF_WEIGHTS])
# a quadrature has converged once a panel-count doubling moves no overlap
# entry by OVERLAP_TOL or more, within MAX_DOUBLINGS doublings
OVERLAP_TOL = 1e-12
MAX_DOUBLINGS = 4


class ConvergenceError(RuntimeError):
    """A numerical routine failed to reach its target accuracy."""


# ---------------------------------------------------------------------------
# quadrature


def gauss_panels(n_panels: int):
    """Composite Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = GAUSS_NODES, GAUSS_WEIGHTS
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    xi = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wi = (half[:, None] * w[None, :]).ravel()
    return xi, wi


def _ladder(h) -> list[tuple[float, float, float]]:
    """(a, r, L) of each h of a scalar or 1-D ladder (see the module docstring)."""
    ladder = np.atleast_1d(np.asarray(h, dtype=float))
    if ladder.ndim != 1:
        raise ValueError(f"h must be a scalar or a 1-D ladder, got shape {ladder.shape}")
    if not np.all((ladder > 0.0) & (ladder < 2.0)):
        raise ValueError(f"h must lie in (0, 2), got {h}")
    return [(1.0 / x - 0.5, x / (1.0 - 0.5 * x), 2.0 * np.arctanh(0.5 * x)) for x in ladder]


def _boson_overlaps_once(ladder, n_max: int, n_panels: int) -> np.ndarray:
    """(alpha, beta) of every h, shape (2, len(ladder), n, n), at one panel count.

    Three (n, nodes) tables are alive at once: the inertial sines, one h's
    accelerated sines and their weighted copy, the floor unless sines are computed twice.
    """
    xi, wi = gauss_panels(n_panels)
    n = np.arange(1, n_max + 1)
    inertial = np.outer(n, xi)                              # sin(pi n xi), in place
    np.sin(np.multiply(np.pi, inertial, out=inertial), out=inertial)
    inv_root = 1.0 / np.sqrt(n)
    col = n[None, :].astype(float)
    # one h at a time: tables for the whole ladder at once would hold four
    # times the memory for no gain in speed
    rindler = np.empty((n_max, xi.size))
    weighted = np.empty_like(rindler)
    out = np.empty((2, len(ladder), n_max, n_max))
    for k, (a, r, big_l) in enumerate(ladder):
        x = a * (1.0 + r * xi)
        ell = np.log1p(r * xi)
        np.outer(n, ell, out=rindler)                       # accelerated shapes:
        np.multiply(np.pi, rindler, out=rindler)            # sin(pi n ell / L)
        rindler /= big_l
        np.sin(rindler, out=rindler)
        p = np.multiply(rindler, wi, out=weighted) @ inertial.T         # plain overlap
        q = np.multiply(rindler, wi / x, out=weighted) @ inertial.T     # weighted by 1/x
        row = n[:, None] / big_l
        out[0, k] = inv_root[:, None] * (col * p + row * q) * inv_root[None, :]
        out[1, k] = inv_root[:, None] * (col * p - row * q) * inv_root[None, :]
    return out


def _fermion_overlaps_once(ladder, n_max: int, n_panels: int) -> np.ndarray:
    """Overlap matrix of every h, shape (len(ladder), 2 n_max, 2 n_max), at one
    panel count.

    Trig tables are formed for kappa >= 0 only.  Mode -1 - j has frequency
    -(j + 1/2), the exact negative of mode j's, so its cos rows equal mode j's
    and its sin rows are their negatives.  With C and S the cos.cos and
    sin.sin products over kappa >= 0, the blocks of the full matrix are
    therefore C + S where both labels share a sign and C - S where they
    differ, with the kappa < 0 indices reversed.

    Two (n_max, nodes) tables are alive at once, with the trig function as
    the outer loop: one buffer holds the inertial cos table, then the sin
    table, the other each (function, h)'s accelerated table.  The expressions
    and GEMM shapes are those of four live tables, so every bit is the same.
    """
    xi, wi = gauss_panels(n_panels)
    omega = (np.arange(n_max) + 0.5) * np.pi               # inertial frequencies
    inertial = np.empty((n_max, xi.size))
    accelerated = np.empty_like(inertial)
    cs = np.empty((2, len(ladder), n_max, n_max))          # C and S of every h
    for f, trig in enumerate((np.cos, np.sin)):
        np.outer(omega, xi, out=inertial)
        trig(inertial, out=inertial)
        for k, (a, r, big_l) in enumerate(ladder):
            x = a * (1.0 + r * xi)
            np.outer(omega / big_l, np.log1p(r * xi), out=accelerated)  # frequency x ell
            trig(accelerated, out=accelerated)
            accelerated *= wi / np.sqrt(big_l * x)
            cs[f, k] = accelerated @ inertial.T
    del inertial, accelerated                              # before the blocks are assembled
    same, differ = cs[0] + cs[1], cs[0] - cs[1]
    out = np.empty((len(ladder), 2 * n_max, 2 * n_max))
    out[:, :n_max, :n_max] = same[:, ::-1, ::-1]
    out[:, :n_max, n_max:] = differ[:, ::-1, :]
    out[:, n_max:, :n_max] = differ[:, :, ::-1]
    out[:, n_max:, n_max:] = same
    return out


def _converged(compute, n_panels: int):
    coarse = compute(n_panels)
    for _ in range(MAX_DOUBLINGS):
        n_panels *= 2
        fine = compute(n_panels)
        if float(np.max(np.abs(coarse - fine))) < OVERLAP_TOL:
            return fine
        coarse = fine
    raise ConvergenceError(f"quadrature did not converge to {OVERLAP_TOL:.1e}")


def boson_overlaps(h, n_max: int):
    """Exact junction matrices (alpha, beta) at finite h for modes 1..n_max.

    Row m, column n is the overlap of accelerated mode m with inertial mode n
    on the junction slice.  Both matrices are real in this convention.  ``h``
    is a scalar or a 1-D ladder; for a ladder both matrices carry a leading
    ladder axis, and the whole ladder converges as one: every panel doubling
    must move no entry of any h by ``OVERLAP_TOL`` or more.
    """
    ladder = _ladder(h)
    out = _converged(lambda p: _boson_overlaps_once(ladder, n_max, p), max(16, n_max))
    if np.ndim(h) == 0:
        out = out[:, 0]
    return out[0], out[1]


def fermion_overlaps(h, n_max: int) -> np.ndarray:
    """Exact junction matrix at finite h for modes kappa = -n_max..n_max-1.

    ``h`` is a scalar or a 1-D ladder, which gives a leading ladder axis and
    converges as one, as in :func:`boson_overlaps`.
    """
    ladder = _ladder(h)
    out = _converged(lambda p: _fermion_overlaps_once(ladder, n_max, p), max(16, n_max))
    return out[0] if np.ndim(h) == 0 else out


def overlap_identity_residuals(alpha: np.ndarray, beta: np.ndarray, window: slice) -> float:
    """Worst deviation of the finite-h overlaps from the structural identities.

    Only the rows and columns at the storage positions ``window`` are
    examined, those of the gate's interior window
    (:func:`cavityent.bogoliubov.window_slice`): the mode ladder is
    truncated, so identities close only where the missing tail is negligible.
    """
    eye = np.eye(alpha.shape[0])
    r1 = alpha @ alpha.T.conj() - beta @ beta.T.conj() - eye
    r2 = alpha @ beta.T - beta @ alpha.T
    return max(float(np.max(np.abs(r[window, window]))) for r in (r1, r2))


def fermion_identity_residual(a: np.ndarray, window: slice) -> float:
    """Worst deviation of the finite-h overlaps from unitarity at the storage
    positions ``window``, as in :func:`overlap_identity_residuals`."""
    r = (a @ a.T.conj() - np.eye(a.shape[0]))[window, window]
    return float(np.max(np.abs(r)))


# ---------------------------------------------------------------------------
# order extraction


def geometric_ladder(top: float, count: int) -> np.ndarray:
    """``count`` values of h halving from ``top``."""
    return top * 0.5 ** np.arange(count)


def interpolation_weights(y: np.ndarray) -> np.ndarray:
    """Rows of the inverse of the Vandermonde matrix of the nodes ``y``.

    Entry (k, j) is the y^k coefficient of the Lagrange basis polynomial of
    node j, so row k applied to samples at the nodes gives the y^k
    coefficient of their interpolating polynomial.  Each weight is formed
    from products of node differences and divided once, which is exact up
    to that one rounding for dyadic nodes such as those of a halving ladder.
    """
    y = np.asarray(y, dtype=float)
    weights = np.empty((y.size, y.size))
    for j in range(y.size):
        basis, denom = np.array([1.0]), 1.0
        for i in range(y.size):
            if i != j:
                basis = np.convolve(basis, [-y[i], 1.0])   # increasing powers
                denom *= y[j] - y[i]
        weights[:, j] = basis / denom
    return weights


def extract_orders_mirrored(values: np.ndarray, signs: np.ndarray, ladder: np.ndarray):
    """Order extraction that exploits the mirror (reflection) symmetry.

    Conjugating an overlap matrix with S = diag(signs) realises h -> -h, so
    an entry whose sign product is +1 carries even powers of h only and one
    whose product is -1 odd powers only.  Each part is interpolated exactly
    in h^2 on the ladder, far better conditioned than a fit in h, with the
    fixed weights of :func:`interpolation_weights`: every order is one
    weighted sum over the ladder axis.  ``values`` has shape
    (len(ladder), n, n) and ``signs`` length n; the ladder needs at least
    two values.
    """
    ladder = np.asarray(ladder, dtype=float)
    values = np.asarray(values)
    signs = np.asarray(signs, dtype=float)
    top = ladder.max()
    weights = interpolation_weights((ladder / top) ** 2)
    odd = (signs[:, None] * signs[None, :]) < 0

    def coefficient(stack, k):
        # y^k coefficient, summed over the differences from the last sample:
        # the weights of y^0 sum to one and those of higher powers to zero,
        # so the O(1) constant drops out exactly instead of cancelling in
        # rounding
        last = stack[-1]
        out = last.copy() if k == 0 else np.zeros_like(last)
        for w, sample in zip(weights[k, :-1], stack[:-1]):
            out += w * (sample - last)
        return out

    scaled = values / ladder[:, None, None]          # odd part: c1 + c3 h^2 + ...
    c = np.stack([
        np.where(odd, 0.0, coefficient(values, 0)),
        np.where(odd, coefficient(scaled, 0), 0.0),
        np.where(odd, 0.0, coefficient(values, 1)) / top**2,
    ])
    info = {
        "even_tail": float(np.max(np.abs(np.where(odd, 0.0, coefficient(values, 2)))))
        if len(ladder) > 2 else 0.0,
        "odd_tail": float(np.max(np.abs(np.where(odd, coefficient(scaled, 1), 0.0)))),
    }
    return c, info
