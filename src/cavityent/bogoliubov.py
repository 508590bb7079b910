"""Mode transformations to second order and the algebra for chaining them.

Conventions
-----------
A bosonic transformation relates new mode functions to old ones through

    new_m = sum_n alpha[m, n] old_n + beta[m, n] conj(old_n)

and a fermionic one through a single matrix,

    new_m = sum_n a[m, n] old_n.

Both carry explicit mode labels so that phases and composition cannot
silently mix up index conventions.  Every matrix is a second-order series
in the acceleration parameter h, held as an array of shape (3, n, n) with
the order on the leading axis (see :mod:`cavityent.series`); a stack of
transformations (one per grid point u) keeps its stack axes between the
order axis and the two mode axes.  A real array stays real (float64) and a
complex one complex (complex128): junction blocks are real, so their memo
holds half the bytes and their identity gate runs real products, while
phases, and every trip or state that a phase touches, are complex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import N_ORDERS, cauchy


class InvariantViolation(RuntimeError):
    """A structural consistency identity failed beyond tolerance."""


def _check_labels(a, b):
    if not np.array_equal(a.modes, b.modes):
        raise ValueError("cannot combine transformations with different mode labels")


def _orders(x, n: int, name: str) -> np.ndarray:
    """``x`` as a float64 order array if it is real, complex128 otherwise,
    rejected unless it is (3, ..., n, n)."""
    arr = np.asarray(x, dtype=complex if np.iscomplexobj(x) else float)
    if arr.ndim < 3 or arr.shape[0] != N_ORDERS or arr.shape[-2:] != (n, n):
        raise ValueError(
            f"{name} must have shape ({N_ORDERS}, ..., {n}, {n}) for {n} mode labels, "
            f"got {arr.shape}"
        )
    return arr


def _dag(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return np.conj(np.swapaxes(x, -1, -2))


def _tr(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def _prod(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return cauchy(x, y, np.matmul)


@dataclass(frozen=True)
class BosonBogoliubov:
    """Bosonic transformation (alpha, beta) between two sets of cavity modes."""

    alpha: np.ndarray
    beta: np.ndarray
    modes: np.ndarray

    def __post_init__(self):
        modes = np.asarray(self.modes, dtype=int)
        object.__setattr__(self, "modes", modes)
        alpha = _orders(self.alpha, modes.size, "alpha")
        beta = _orders(self.beta, modes.size, "beta")
        if beta.shape != alpha.shape:
            raise ValueError(f"alpha {alpha.shape} and beta {beta.shape} differ in shape")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class FermionBogoliubov:
    """Fermionic transformation between two sets of cavity spinor modes.

    Mode labels are the integers kappa; kappa >= 0 are particle modes and
    kappa < 0 antiparticle modes.
    """

    a: np.ndarray
    modes: np.ndarray

    def __post_init__(self):
        modes = np.asarray(self.modes, dtype=int)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "a", _orders(self.a, modes.size, "a"))


def compose(second, first):
    """Transformation equivalent to applying ``first`` and then ``second``."""
    _check_labels(second, first)
    if isinstance(second, BosonBogoliubov) and isinstance(first, BosonBogoliubov):
        alpha = _prod(second.alpha, first.alpha) + _prod(second.beta, np.conj(first.beta))
        beta = _prod(second.alpha, first.beta) + _prod(second.beta, np.conj(first.alpha))
        return BosonBogoliubov(alpha, beta, second.modes)
    if isinstance(second, FermionBogoliubov) and isinstance(first, FermionBogoliubov):
        return FermionBogoliubov(_prod(second.a, first.a), second.modes)
    raise TypeError("cannot compose transformations of different species")


def invert(t):
    """Inverse transformation (exact for any transformation satisfying the identities)."""
    if isinstance(t, BosonBogoliubov):
        return BosonBogoliubov(_dag(t.alpha), -_tr(t.beta), t.modes)
    if isinstance(t, FermionBogoliubov):
        return FermionBogoliubov(_dag(t.a), t.modes)
    raise TypeError(f"not a transformation: {t!r}")


def window_slice(modes: np.ndarray, window) -> slice:
    """Positions of the (ascending) labels inside ``window``: a view, not a copy."""
    if window is None:
        return slice(None)
    if np.any(np.diff(modes) <= 0):
        raise ValueError("a mode window needs ascending mode labels")
    lo, hi = np.searchsorted(modes, window[0]), np.searchsorted(modes, window[1], side="right")
    return slice(int(lo), int(hi))


def _residual_blocks(t, window=None) -> dict[str, np.ndarray]:
    """Residual matrices of the identities, orders on the leading axis.

    For bosons the left family is alpha alpha^+ - beta beta^+ = 1 together
    with the pair symmetry alpha beta^T = beta alpha^T, and the right family
    is alpha^+ alpha - beta^T conj(beta) = 1 with alpha^+ beta = beta^T
    conj(alpha).  For fermions both families reduce to unitarity.  Only the
    rows (left family) or columns (right family) whose labels fall inside
    ``window`` (inclusive bounds) enter the products, which gives exactly the
    windowed block of the full products.  Truncating the mode ladder always
    spoils the identities near the edge, so callers should stay in the interior.
    """
    sl = window_slice(t.modes, window)

    def less_eye(x: np.ndarray) -> np.ndarray:
        diag = np.einsum("...ii->...i", x[0])
        diag -= 1.0
        return x

    if isinstance(t, BosonBogoliubov):
        ar, br = t.alpha[..., sl, :], t.beta[..., sl, :]
        ac, bc = t.alpha[..., sl], t.beta[..., sl]
        return {
            "number_left": less_eye(_prod(ar, _dag(ar)) - _prod(br, _dag(br))),
            "pair_left": _prod(ar, _tr(br)) - _prod(br, _tr(ar)),
            "number_right": less_eye(_prod(_dag(ac), ac) - _prod(_tr(bc), np.conj(bc))),
            "pair_right": _prod(_dag(ac), bc) - _prod(_tr(bc), np.conj(ac)),
        }
    if isinstance(t, FermionBogoliubov):
        ar, ac = t.a[..., sl, :], t.a[..., sl]
        return {
            "unitary_left": less_eye(_prod(ar, _dag(ar))),
            "unitary_right": less_eye(_prod(_dag(ac), ac)),
        }
    raise TypeError(f"not a transformation: {t!r}")


def _maxima(res: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: np.max(np.abs(r), axis=(-2, -1)) for k, r in res.items()}


def identity_residuals(t, window=None) -> dict[str, np.ndarray]:
    """Per-order maxima of :func:`_residual_blocks`, shape (3,) plus any stack axes of ``t``."""
    return _maxima(_residual_blocks(t, window))


def period_residuals(j, window=None) -> dict[str, np.ndarray]:
    """Per-order bound on the windowed identity residuals of every trip J^-1 P(u) J.

    With eta the metric (1 for fermions, diag(1, -1) on the boson 2n form) and
    A = J eta J^+ - eta, B = J^+ eta J - eta the junction's residuals, exactly
    T eta T^+ - eta = eta B eta + eta J^+ eta P A P^+ eta J eta, and
    T^+ eta T - eta = B + J^+ P^+ eta A eta P J.  A and B start at first order
    (J's zeroth order is the identity), so order k of a trip residual is B_k
    plus A_k times p_i conj(p_j) (number, unitary) or p_i p_j (pair), plus
    second-order cross terms linear in A_1.  A phase of nonzero frequency runs
    over the unit circle within a period, so the supremum over u is
    |B_k| + |A_k|, or |B_k + A_k| on the number and unitary diagonals; the
    cross terms are bounded by 2 max |A_1| (window rows) times the largest
    column sum of |J_1| (window columns).  Keyed "number" and "pair" for
    bosons, "unitary" for fermions, each of shape (3,).
    """
    return _period_bound(j, _residual_blocks(j, window), window)


def _period_bound(j, res: dict[str, np.ndarray], window) -> dict[str, np.ndarray]:
    """:func:`period_residuals` from the junction's residual blocks ``res``."""
    sl = window_slice(j.modes, window)
    moving = j.modes[sl, None] != j.modes[None, sl]
    if isinstance(j, BosonBogoliubov):
        families = {
            "number": (res["number_left"], res["number_right"], moving),
            "pair": (res["pair_left"], res["pair_right"], True),
        }
        a1 = (j.alpha[1] + _dag(j.alpha[1]), _tr(j.beta[1]) - j.beta[1])
        col_sums = np.sum(np.abs(j.alpha[1][:, sl]) + np.abs(j.beta[1][:, sl]), axis=0)
    else:
        families = {"unitary": (res["unitary_left"], res["unitary_right"], moving)}
        a1 = (j.a[1] + _dag(j.a[1]),)
        col_sums = np.sum(np.abs(j.a[1][:, sl]), axis=0)
    cross = 2.0 * max(float(np.max(np.abs(x[sl]))) for x in a1) * float(np.max(col_sums))
    out = {}
    for name, (a, b, moves) in families.items():
        out[name] = np.max(np.where(moves, np.abs(a) + np.abs(b), np.abs(a + b)), axis=(-2, -1))
        out[name][2] += cross
    return out


H_REF = 0.08

# Weighted identity residual above which a junction or a trip is rejected.
GATE_TOL = 5e-8


def _gate(residuals: dict[str, np.ndarray], what: str) -> dict[str, np.ndarray]:
    worst_by = {k: weighted_residual(v) for k, v in residuals.items()}
    worst = max(worst_by.values())
    if worst > GATE_TOL:
        detail = ", ".join(f"{k}={v:.3e}" for k, v in worst_by.items())
        raise InvariantViolation(
            f"{what} residual {worst:.3e} at h={H_REF} exceeds {GATE_TOL:.1e} ({detail})"
        )
    return residuals


def check_period(j, window=None) -> dict[str, np.ndarray]:
    """Gate the junction ``j`` and every trip of the u period it makes.

    Each gate raises :class:`InvariantViolation` if its weighted residual
    (:func:`weighted_residual`) exceeds ``GATE_TOL``.  The junction's own
    identities (the per-order maxima of :func:`identity_residuals`) are gated
    first, then the bound of :func:`period_residuals` on every trip
    J^-1 P(u) J at once; both read the junction's residual blocks, formed
    once.  Returns the trip bound.
    """
    res = _residual_blocks(j, window)
    _gate(_maxima(res), "identity")
    return _gate(_period_bound(j, res, window), "trip identity (whole u period)")


def weighted_residual(r: np.ndarray) -> float:
    """Largest H_REF^k r_k over the orders k and any stack axes of ``r``: each
    order's residual at h = H_REF, the largest acceleration of interest."""
    weights = (H_REF ** np.arange(N_ORDERS)).reshape((N_ORDERS,) + (1,) * (r.ndim - 1))
    return float(np.max(r * weights))
