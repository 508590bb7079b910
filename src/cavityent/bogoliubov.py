"""Mode transformations to second order and the algebra for chaining them.

Conventions
-----------
A bosonic transformation relates new mode functions to old ones through

    new_m = sum_n alpha[m, n] old_n + beta[m, n] conj(old_n)

and a fermionic one through a single matrix,

    new_m = sum_n a[m, n] old_n.

Both carry explicit mode labels so that phases, mirror conjugation and
composition cannot silently mix up index conventions.  All matrices are
``H2Matrix`` series in the acceleration parameter h; a stack of
transformations (one per grid point u) keeps its stack axes between the
order axis and the two mode axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import N_ORDERS, H2Matrix, cauchy


class InvariantViolation(RuntimeError):
    """A structural consistency identity failed beyond tolerance."""


def _check_labels(a, b):
    if not np.array_equal(a.modes, b.modes):
        raise ValueError("cannot combine transformations with different mode labels")


@dataclass(frozen=True)
class BosonBogoliubov:
    """Bosonic transformation (alpha, beta) between two sets of cavity modes."""

    alpha: H2Matrix
    beta: H2Matrix
    modes: np.ndarray

    def __post_init__(self):
        modes = np.asarray(self.modes, dtype=int)
        object.__setattr__(self, "modes", modes)
        n = modes.size
        if self.alpha.shape[-2:] != (n, n) or self.beta.shape != self.alpha.shape:
            raise ValueError("alpha/beta shapes do not match the mode labels")

    @property
    def n_modes(self) -> int:
        return self.modes.size

    @classmethod
    def identity(cls, modes) -> "BosonBogoliubov":
        modes = np.asarray(modes, dtype=int)
        n = modes.size
        return cls(H2Matrix.identity(n), H2Matrix.zeros(n), modes)

    @classmethod
    def from_phases(cls, modes, phases) -> "BosonBogoliubov":
        """Pure phase rotation new_m = g_m old_m (free evolution of each mode)."""
        modes = np.asarray(modes, dtype=int)
        return cls(H2Matrix.diagonal(phases), H2Matrix.zeros(modes.size), modes)


@dataclass(frozen=True)
class FermionBogoliubov:
    """Fermionic transformation between two sets of cavity spinor modes.

    Mode labels are the integers kappa; kappa >= 0 are particle modes and
    kappa < 0 antiparticle modes.
    """

    a: H2Matrix
    modes: np.ndarray

    def __post_init__(self):
        modes = np.asarray(self.modes, dtype=int)
        object.__setattr__(self, "modes", modes)
        n = modes.size
        if self.a.shape[-2:] != (n, n):
            raise ValueError("matrix shape does not match the mode labels")

    @property
    def n_modes(self) -> int:
        return self.modes.size

    @classmethod
    def identity(cls, modes) -> "FermionBogoliubov":
        modes = np.asarray(modes, dtype=int)
        return cls(H2Matrix.identity(modes.size), modes)

    @classmethod
    def from_phases(cls, modes, phases) -> "FermionBogoliubov":
        modes = np.asarray(modes, dtype=int)
        return cls(H2Matrix.diagonal(phases), modes)


def compose(second, first):
    """Transformation equivalent to applying ``first`` and then ``second``."""
    _check_labels(second, first)
    if isinstance(second, BosonBogoliubov) and isinstance(first, BosonBogoliubov):
        alpha = second.alpha @ first.alpha + second.beta @ first.beta.conj()
        beta = second.alpha @ first.beta + second.beta @ first.alpha.conj()
        return BosonBogoliubov(alpha, beta, second.modes)
    if isinstance(second, FermionBogoliubov) and isinstance(first, FermionBogoliubov):
        return FermionBogoliubov(second.a @ first.a, second.modes)
    raise TypeError("cannot compose transformations of different species")


def invert(t):
    """Inverse transformation (exact for any transformation satisfying the identities)."""
    if isinstance(t, BosonBogoliubov):
        return BosonBogoliubov(t.alpha.H, -t.beta.T, t.modes)
    if isinstance(t, FermionBogoliubov):
        return FermionBogoliubov(t.a.H, t.modes)
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
        return BosonBogoliubov(
            H2Matrix(t.alpha.data * outer), H2Matrix(t.beta.data * outer), t.modes
        )
    if isinstance(t, FermionBogoliubov):
        return FermionBogoliubov(H2Matrix(t.a.data * outer), t.modes)
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

    def dag(x: np.ndarray) -> np.ndarray:
        return np.conj(np.swapaxes(x, -1, -2))

    def tr(x: np.ndarray) -> np.ndarray:
        return np.swapaxes(x, -1, -2)

    def prod(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return cauchy(x, y, np.matmul)

    def less_eye(x: np.ndarray) -> np.ndarray:
        x[0, ..., diag, diag] -= 1.0
        return x

    def peak(r: np.ndarray) -> np.ndarray:
        return np.max(np.abs(r), axis=(-2, -1))

    if isinstance(t, BosonBogoliubov):
        ar, br = t.alpha.data[..., idx, :], t.beta.data[..., idx, :]
        ac, bc = t.alpha.data[..., idx], t.beta.data[..., idx]
        return {
            "number_left": peak(less_eye(prod(ar, dag(ar)) - prod(br, dag(br)))),
            "pair_left": peak(prod(ar, tr(br)) - prod(br, tr(ar))),
            "number_right": peak(less_eye(prod(dag(ac), ac) - prod(tr(bc), np.conj(bc)))),
            "pair_right": peak(prod(dag(ac), bc) - prod(tr(bc), np.conj(ac))),
        }
    if isinstance(t, FermionBogoliubov):
        ar, ac = t.a.data[..., idx, :], t.a.data[..., idx]
        return {
            "unitary_left": peak(less_eye(prod(ar, dag(ar)))),
            "unitary_right": peak(less_eye(prod(dag(ac), ac))),
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
