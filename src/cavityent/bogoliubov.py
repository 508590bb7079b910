"""Mode transformations to second order and the algebra for chaining them.

Conventions
-----------
A bosonic transformation relates new mode functions to old ones through

    new_m = sum_n alpha[m, n] old_n + beta[m, n] conj(old_n)

and a fermionic one through a single matrix,

    new_m = sum_n a[m, n] old_n.

Both carry explicit mode labels so that phases, mirror conjugation and
composition cannot silently mix up index conventions.  Every matrix is a
second-order series in the acceleration parameter h, held as a complex
array of shape (3, n, n) with the order on the leading axis (see
:mod:`cavityent.series`); a stack of transformations (one per grid point u)
keeps its stack axes between the order axis and the two mode axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import N_ORDERS, cauchy, diagonal_stack


class InvariantViolation(RuntimeError):
    """A structural consistency identity failed beyond tolerance."""


def _check_labels(a, b):
    if not np.array_equal(a.modes, b.modes):
        raise ValueError("cannot combine transformations with different mode labels")


def _orders(x, n: int, name: str) -> np.ndarray:
    """``x`` as a complex order array, rejected unless it is (3, ..., n, n)."""
    arr = np.asarray(x, dtype=complex)
    if arr.ndim < 3 or arr.shape[0] != N_ORDERS or arr.shape[-2:] != (n, n):
        raise ValueError(
            f"{name} must have shape ({N_ORDERS}, ..., {n}, {n}) for {n} mode labels, "
            f"got {arr.shape}"
        )
    return arr


def _phase_orders(phases) -> np.ndarray:
    """Order array of diag(phases): the phases at h^0, nothing at h^1 and h^2."""
    d = diagonal_stack(np.asarray(phases, dtype=complex))
    return np.stack([d, np.zeros_like(d), np.zeros_like(d)])


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

    @classmethod
    def from_phases(cls, modes, phases) -> "BosonBogoliubov":
        """Pure phase rotation new_m = g_m old_m (free evolution of each mode)."""
        alpha = _phase_orders(phases)
        return cls(alpha, np.zeros_like(alpha), modes)


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

    @classmethod
    def from_phases(cls, modes, phases) -> "FermionBogoliubov":
        return cls(_phase_orders(phases), modes)


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


def mirror(t):
    """Conjugate by the cavity reflection, i.e. the sign flip of every other mode.

    Reversing the direction of the acceleration is equivalent to reflecting
    the cavity about its centre, which multiplies mode n by (-1)^n.  The
    transformation for the reversed direction is therefore S t S with
    S = diag((-1)^mode), an index-preserving conjugation.
    """
    s = np.where(np.asarray(t.modes) % 2 == 0, 1.0, -1.0)
    outer = s[:, None] * s[None, :]
    if isinstance(t, BosonBogoliubov):
        return BosonBogoliubov(t.alpha * outer, t.beta * outer, t.modes)
    if isinstance(t, FermionBogoliubov):
        return FermionBogoliubov(t.a * outer, t.modes)
    raise TypeError(f"not a transformation: {t!r}")


def _window_slice(modes: np.ndarray, window) -> np.ndarray:
    if window is None:
        return np.arange(modes.size)
    lo, hi = window
    return np.flatnonzero((modes >= lo) & (modes <= hi))


def identity_residuals(t, window=None) -> dict[str, np.ndarray]:
    """Order-by-order residuals of the structural identities.

    For bosons the left family is alpha alpha^+ - beta beta^+ = 1 together
    with the pair symmetry alpha beta^T = beta alpha^T, and the right family
    is alpha^+ alpha - beta^T conj(beta) = 1 with alpha^+ beta = beta^T
    conj(alpha).  For fermions both families reduce to unitarity.

    Returns a dict mapping residual names to arrays of per-order maxima,
    shape (3,) plus any stack axes of ``t``, restricted to the rows and
    columns whose mode labels fall inside ``window`` (inclusive bounds).
    Truncating the mode ladder always spoils the identities near the edge,
    so callers should stay in the interior.  Only the windowed rows (left
    family) or columns (right family) enter the products, which is exactly
    the windowed block of the full products.
    """
    idx = _window_slice(t.modes, window)
    diag = np.arange(idx.size)

    def less_eye(x: np.ndarray) -> np.ndarray:
        x[0, ..., diag, diag] -= 1.0
        return x

    def peak(r: np.ndarray) -> np.ndarray:
        return np.max(np.abs(r), axis=(-2, -1))

    if isinstance(t, BosonBogoliubov):
        ar, br = t.alpha[..., idx, :], t.beta[..., idx, :]
        ac, bc = t.alpha[..., idx], t.beta[..., idx]
        return {
            "number_left": peak(less_eye(_prod(ar, _dag(ar)) - _prod(br, _dag(br)))),
            "pair_left": peak(_prod(ar, _tr(br)) - _prod(br, _tr(ar))),
            "number_right": peak(less_eye(_prod(_dag(ac), ac) - _prod(_tr(bc), np.conj(bc)))),
            "pair_right": peak(_prod(_dag(ac), bc) - _prod(_tr(bc), np.conj(ac))),
        }
    if isinstance(t, FermionBogoliubov):
        ar, ac = t.a[..., idx, :], t.a[..., idx]
        return {
            "unitary_left": peak(less_eye(_prod(ar, _dag(ar)))),
            "unitary_right": peak(less_eye(_prod(_dag(ac), ac))),
        }
    raise TypeError(f"not a transformation: {t!r}")


def check_identities(t, tol: float = 1e-8, window=None, h_ref: float = 0.08) -> dict[str, np.ndarray]:
    """Raise :class:`InvariantViolation` if the identities fail beyond ``tol``.

    Per-order residuals are weighted as r0, h_ref r1, h_ref^2 r2, i.e. the
    size each would have at the largest acceleration of interest.
    The second-order residual always carries the truncated mode tail, so its
    raw value is only meaningful once weighted this way.  A stack of
    transformations passes only if every member does.
    """
    residuals = identity_residuals(t, window=window)
    worst_by = {k: weighted_residual(v, h_ref) for k, v in residuals.items()}
    worst = max(worst_by.values())
    if worst > tol:
        detail = ", ".join(f"{k}={v:.3e}" for k, v in worst_by.items())
        raise InvariantViolation(
            f"identity residual {worst:.3e} at h={h_ref} exceeds {tol:.1e} ({detail})"
        )
    return residuals


def weighted_residual(r: np.ndarray, h_ref: float = 0.08) -> float:
    """Largest h_ref^k r_k over the orders k and any stack axes of ``r``."""
    weights = (h_ref ** np.arange(N_ORDERS)).reshape((N_ORDERS,) + (1,) * (r.ndim - 1))
    return float(np.max(r * weights))
