"""Independent numerical routes backing the perturbative machinery.

Two tools live here:

* exact junction overlaps at finite h, evaluated by composite Gauss-Legendre
  quadrature of the mode-function inner products (no series expansion at
  all), for one h or for a whole ladder of h values in one pass;
* order extraction, which turns the overlaps on a geometric ladder of h
  values into h^0, h^1, h^2 coefficients, splitting even and odd orders
  exactly through the mirror symmetry.

The quadrature and the mirrored extraction feed the production junction
blocks; the finite-h identity residuals let ``cavityent check`` and the
tests hold the overlaps against something that does not share the series
derivation.
"""

from __future__ import annotations

import numpy as np

from .geometry import CavityGeometry


# Gauss-Legendre nodes per quadrature panel
NODES_PER_PANEL = 12
# panel-count doublings a quadrature may take to reach its tolerance
MAX_DOUBLINGS = 4


class ConvergenceError(RuntimeError):
    """A numerical routine failed to reach its target accuracy."""


# ---------------------------------------------------------------------------
# quadrature


def gauss_panels(n_panels: int):
    """Composite Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(NODES_PER_PANEL)
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    xi = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wi = (half[:, None] * w[None, :]).ravel()
    return xi, wi


def _ladder(h) -> list[CavityGeometry]:
    """Geometry of each h of a scalar or 1-D ladder."""
    ladder = np.atleast_1d(np.asarray(h, dtype=float))
    if ladder.ndim != 1:
        raise ValueError(f"h must be a scalar or a 1-D ladder, got shape {ladder.shape}")
    return [CavityGeometry(x) for x in ladder]


def _boson_overlaps_once(ladder, n_max: int, n_panels: int) -> np.ndarray:
    """(alpha, beta) of every h, shape (2, len(ladder), n, n), at one panel count."""
    xi, wi = gauss_panels(n_panels)
    n = np.arange(1, n_max + 1)
    inertial = np.sin(np.pi * np.outer(n, xi))             # shared by the ladder
    inv_root = 1.0 / np.sqrt(n)
    col = n[None, :].astype(float)
    # one h at a time: tables for the whole ladder at once would hold four
    # times the memory for no gain in speed
    out = np.empty((2, len(ladder), n_max, n_max))
    for k, geo in enumerate(ladder):
        a, r, big_l = geo.left_wall, geo.wall_ratio, geo.log_ratio
        x = a * (1.0 + r * xi)
        ell = np.log1p(r * xi)
        rindler = np.sin(np.pi * np.outer(n, ell) / big_l)  # accelerated shapes
        p = (rindler * wi) @ inertial.T                     # plain overlap
        q = (rindler * (wi / x)) @ inertial.T               # weighted by 1/x
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
    """
    xi, wi = gauss_panels(n_panels)
    omega = (np.arange(n_max) + 0.5) * np.pi               # inertial frequencies
    cos_i = np.cos(np.outer(omega, xi))                    # shared by the ladder
    sin_i = np.sin(np.outer(omega, xi))
    out = np.empty((len(ladder), 2 * n_max, 2 * n_max))
    for k, geo in enumerate(ladder):
        a, r, big_l = geo.left_wall, geo.wall_ratio, geo.log_ratio
        x = a * (1.0 + r * xi)
        ell = np.log1p(r * xi)
        phase = np.outer(omega / big_l, ell)               # accelerated frequency x ell
        weight = wi / np.sqrt(big_l * x)
        c = (np.cos(phase) * weight) @ cos_i.T
        s = (np.sin(phase) * weight) @ sin_i.T
        same, differ = c + s, c - s
        out[k] = np.block([[same[::-1, ::-1], differ[::-1, :]], [differ[:, ::-1], same]])
    return out


def _converged(compute, n_panels: int, tol: float):
    coarse = compute(n_panels)
    for _ in range(MAX_DOUBLINGS):
        n_panels *= 2
        fine = compute(n_panels)
        if float(np.max(np.abs(coarse - fine))) < tol:
            return fine
        coarse = fine
    raise ConvergenceError(f"quadrature did not converge to {tol:.1e}")


def boson_overlaps(h, n_max: int, tol: float = 1e-12):
    """Exact junction matrices (alpha, beta) at finite h for modes 1..n_max.

    Row m, column n is the overlap of accelerated mode m with inertial mode n
    on the junction slice.  Both matrices are real in this convention.  ``h``
    is a scalar or a 1-D ladder; for a ladder both matrices carry a leading
    ladder axis, and the whole ladder converges as one: every panel doubling
    must move no entry of any h by ``tol`` or more.
    """
    ladder = _ladder(h)
    out = _converged(lambda p: _boson_overlaps_once(ladder, n_max, p), max(16, n_max), tol)
    if np.ndim(h) == 0:
        out = out[:, 0]
    return out[0], out[1]


def fermion_overlaps(h, n_max: int, tol: float = 1e-12) -> np.ndarray:
    """Exact junction matrix at finite h for modes kappa = -n_max..n_max-1.

    ``h`` is a scalar or a 1-D ladder, which gives a leading ladder axis and
    converges as one, as in :func:`boson_overlaps`.
    """
    ladder = _ladder(h)
    out = _converged(lambda p: _fermion_overlaps_once(ladder, n_max, p), max(16, n_max), tol)
    return out[0] if np.ndim(h) == 0 else out


def overlap_identity_residuals(alpha: np.ndarray, beta: np.ndarray, interior: int) -> float:
    """Worst deviation of the finite-h overlaps from the structural identities.

    Only the leading ``interior`` rows and columns are examined: the mode
    ladder is truncated, so identities close only where the missing tail is
    negligible.
    """
    n = alpha.shape[0]
    eye = np.eye(n)
    sl = slice(0, interior)
    r1 = alpha @ alpha.T.conj() - beta @ beta.T.conj() - eye
    r2 = alpha @ beta.T - beta @ alpha.T
    return max(float(np.max(np.abs(r[sl, sl]))) for r in (r1, r2))


def fermion_identity_residual(a: np.ndarray, interior: int) -> float:
    n = a.shape[0]
    half = n // 2
    sl = slice(half - interior, half + interior)
    r = (a @ a.T.conj() - np.eye(n))[sl, sl]
    return float(np.max(np.abs(r)))


# ---------------------------------------------------------------------------
# order extraction


def geometric_ladder(top: float, count: int) -> np.ndarray:
    """``count`` values of h halving from ``top``."""
    return top * 0.5 ** np.arange(count)


def extract_orders_mirrored(values: np.ndarray, signs: np.ndarray, ladder: np.ndarray):
    """Order extraction that exploits the mirror (reflection) symmetry.

    Conjugating an overlap matrix with S = diag(signs) realises h -> -h, so
    the even and odd parts in h can be separated exactly and fitted on far
    better conditioned ladders in h^2.  ``values`` has shape
    (len(ladder), n, n) and ``signs`` length n.
    """
    ladder = np.asarray(ladder, dtype=float)
    values = np.asarray(values)
    signs = np.asarray(signs, dtype=float)
    outer = signs[:, None] * signs[None, :]
    mirrored = values * outer[None, :, :]
    even = 0.5 * (values + mirrored)
    odd = 0.5 * (values - mirrored) / ladder[:, None, None]

    y = (ladder / ladder.max()) ** 2
    vand = np.vander(y, len(ladder), increasing=True)
    scale = ladder.max() ** (2 * np.arange(len(ladder)))

    def fit(stack):
        coef, *_ = np.linalg.lstsq(vand, stack.reshape(len(ladder), -1), rcond=None)
        coef = coef / scale[:, None]
        return coef.reshape((len(ladder),) + values.shape[1:])

    even_c = fit(even)   # c0, c2, c4, ...
    odd_c = fit(odd)     # c1, c3, c5, ...
    c = np.stack([even_c[0], odd_c[0], even_c[1]])
    info = {
        "even_tail": float(np.max(np.abs(even_c[2]))) * ladder.max() ** 4
        if len(ladder) > 2 else 0.0,
        "odd_tail": float(np.max(np.abs(odd_c[1]))) * ladder.max() ** 2
        if len(ladder) > 1 else 0.0,
    }
    return c, info
