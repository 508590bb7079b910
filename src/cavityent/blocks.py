"""Junction blocks and the one-way trip.

The paper's trip is inertial, then uniformly accelerated for a dimensionless
duration u, then inertial again.  It is assembled from two ingredient types:

* the junction J between the inertial and the uniformly accelerated mode
  bases, whose h^1 and h^2 blocks are extracted from the exact overlap
  quadrature (independent of any printed series coefficients), one
  quadrature call over the whole h ladder per species, memoized in the
  process and never stored on disk;
* the diagonal free-evolution phases of the accelerated segment.

The one-way trip is J^-1 P(u) J: match onto the accelerated basis,
evolve, match back.  Sweeps need it on a whole grid of u, so
:func:`trip_stack` assembles the trip orders for a block of u values at once,
as (3, len(u), n, n) order stacks written directly in the junction orders
(the junction's zeroth order is exactly the identity, so only the products
of two first-order blocks cost n^3), and runs the trip identity gate on the
whole stack; below ``MIN_N_MAX`` some u of the period fails that gate, so
sweeps and ``cavityent check`` reject such cutoffs up front.
:func:`one_way_trip` is the same code for a single u.  Callers
walk a grid in chunks of :func:`chunk_length` points, serially: one chunk's
stacks fit in a few MiB whatever n is.  :func:`accelerated_phases` with
:func:`cavityent.bogoliubov.compose` and ``invert`` gives the same trip by
explicit composition, the independent reference for :func:`trip_stack`.
"""

from __future__ import annotations

import numpy as np

from . import oracles
from .bogoliubov import BosonBogoliubov, FermionBogoliubov, check_identities
from .series import diagonal_stack

DEFAULT_LADDER = oracles.geometric_ladder(top=0.02, count=4)

# Byte bound on one (3, chunk, n, n) complex order stack.  Assembly, the
# gate and the closed series hold about a dozen arrays of that size at once
# (trip orders, block products, windowed gate products, pair matrices).  On
# a 101-point grid, unchunked stacks would add hundreds of MiB of peak
# memory at n = 224, and even 4 MiB stacks raised a cold fig1a sweep's peak
# RSS from 89 to 98 MiB.  At 1 MiB a chunk fits in memory the junction build
# has already released, and the sweep is as fast as with larger chunks:
# 13 u values per chunk at n = 40, 3 at n = 80, 1 from n = 105 on.
STACK_BYTES = 1 << 20

# Weighted identity residual above which a junction or a trip is rejected.
GATE_TOL = 5e-8

# Smallest n_max from which every trip passes the GATE_TOL gate over a whole u
# period, both species.  The residual is the truncated mode tail and falls
# roughly as n_max^-3, but not monotonically: worst weighted trip residual on
# 401 points of [0, 1] (boson / fermion) is 3.77e-8 / 4.81e-8 at 27,
# 4.20e-8 / 5.24e-8 at 28, 2.33e-8 / 5.24e-8 at 29, 2.58e-8 / 5.69e-8 at 30,
# 2.58e-8 / 3.25e-8 at 31, and at most 3.77e-8 (fermion, 34) from 31 to 59.
MIN_N_MAX = 31

_cache: dict[tuple, object] = {}


def boson_modes(n_max: int) -> np.ndarray:
    return np.arange(1, n_max + 1)


def fermion_modes(n_max: int) -> np.ndarray:
    return np.arange(-n_max, n_max)


def interior_window(species: str, n_max: int) -> tuple[int, int]:
    """Mode-label range on which truncation effects are negligible."""
    if species == "boson":
        return (1, n_max // 2)
    return (-(n_max // 2), n_max // 2)


def junction(species: str, n_max: int):
    """Junction transformation from the inertial onto the accelerated basis.

    Blocks are extracted from the finite-h overlap quadrature sampled on
    ``DEFAULT_LADDER``, using the mirror symmetry to split even and odd
    orders.  The zeroth order is the identity by construction (asserted, then
    snapped exactly).  Structural identities are gated on the interior window
    before the result is released; results are memoized per (species, n_max)
    for the life of the process.
    """
    key = (species, n_max)
    if key in _cache:
        return _cache[key]

    result = build_junction(species, n_max)
    check_identities(result, tol=GATE_TOL, window=interior_window(species, n_max))
    _cache[key] = result
    return result


def build_junction(species: str, n_max: int):
    """Extract the junction blocks from the overlap quadrature, unmemoized.

    Each species makes one quadrature call for the whole ``DEFAULT_LADDER``.
    """
    ladder = DEFAULT_LADDER
    if species == "boson":
        modes = boson_modes(n_max)
        alpha, beta = oracles.boson_overlaps(ladder, n_max)
        signs = (-1.0) ** modes
        calpha, _ = oracles.extract_orders_mirrored(alpha, signs, ladder)
        cbeta, _ = oracles.extract_orders_mirrored(beta, signs, ladder)
        drift = max(
            float(np.max(np.abs(calpha[0] - np.eye(n_max)))),
            float(np.max(np.abs(cbeta[0]))),
        )
        if drift > 1e-9:
            raise oracles.ConvergenceError(f"junction zeroth order drifted by {drift:.2e}")
        calpha[0], cbeta[0] = np.eye(n_max), 0.0
        result = BosonBogoliubov(calpha, cbeta, modes)
    elif species == "fermion":
        modes = fermion_modes(n_max)
        stacked = oracles.fermion_overlaps(ladder, n_max)
        c, _ = oracles.extract_orders_mirrored(stacked, (-1.0) ** (modes % 2), ladder)
        drift = float(np.max(np.abs(c[0] - np.eye(2 * n_max))))
        if drift > 1e-9:
            raise oracles.ConvergenceError(f"junction zeroth order drifted by {drift:.2e}")
        c[0] = np.eye(2 * n_max)
        result = FermionBogoliubov(c, modes)
    else:
        raise ValueError(f"unknown species {species!r}")
    return result


def chunk_length(species: str, n_max: int) -> int:
    """Grid points per trip stack, so that one order stack stays within STACK_BYTES."""
    n = n_max if species == "boson" else 2 * n_max
    return max(1, STACK_BYTES // (3 * n * n * np.dtype(complex).itemsize))


def _accelerated_phase_vector(species: str, n_max: int, u) -> np.ndarray:
    """Phases exp(-i omega_m u) of every mode, shape u.shape + (n,)."""
    u = np.asarray(u, dtype=float)[..., None]
    if species == "boson":
        return np.exp(-2j * np.pi * boson_modes(n_max) * u)
    return np.exp(-2j * np.pi * (fermion_modes(n_max) + 0.5) * u)


def accelerated_phases(species: str, n_max: int, u: float):
    """Free evolution in the accelerated basis for dimensionless duration u."""
    phases = _accelerated_phase_vector(species, n_max, u)
    if species == "boson":
        return BosonBogoliubov.from_phases(boson_modes(n_max), phases)
    return FermionBogoliubov.from_phases(fermion_modes(n_max), phases)


def trip_stack(species: str, n_max: int, u):
    """One-way trips J^-1 P(u) J for every u in ``u``, to second order.

    ``u`` may be a scalar or an array; the result's matrices have shape
    (3,) + u.shape + (n, n).  With G = diag(phases(u)) and junction orders
    J1, J2 (fermions) or alpha1, alpha2, beta1, beta2 (bosons), the orders are

    * fermions: G, J1^+ G + G J1, J2^+ G + J1^+ G J1 + G J2;
    * bosons: alpha = G, alpha1^+ G + G alpha1,
      alpha2^+ G + alpha1^+ G alpha1 + G alpha2 - beta1^T conj(G beta1), and
      beta = 0, G beta1 - beta1^T conj(G),
      G beta2 + alpha1^+ G beta1 - beta2^T conj(G) - beta1^T conj(G alpha1).

    This is compose(invert(j), compose(accelerated_phases(u), j)) with the
    junction's exact zeroth order (identity, and zero beta) multiplied out.
    Every trip passes the identity gate on the interior window before the
    stack is released.
    """
    j = junction(species, n_max)
    g = _accelerated_phase_vector(species, n_max, u)
    gc = g[..., :, None]  # G @ X == gc * X
    gr = g[..., None, :]  # X @ G == X * gr
    # numpy multiplies a transposed 2-D operand into a stack without BLAS,
    # about 30x slower, so adjoints that meet a stack are made contiguous
    if species == "boson":
        a1, a2 = j.alpha[1], j.alpha[2]
        b1, b2 = j.beta[1], j.beta[2]
        a1h, b1t, b2t = a1.conj().T, b1.T, b2.T
        # all four n^3 terms come from one product: with M = [alpha1 beta1],
        # M^+ G M holds alpha1^+ G alpha1 and alpha1^+ G beta1 in its top
        # blocks, and the conjugates of beta1^T conj(G) conj(alpha1) and
        # beta1^T conj(G) conj(beta1) in its bottom ones
        n = a1.shape[0]
        m = np.concatenate([a1, b1], axis=-1)
        mgm = np.ascontiguousarray(m.conj().T) @ (gc * m)
        top, bottom = mgm[..., :n, :], np.conj(mgm[..., n:, :])
        alpha = np.stack([
            diagonal_stack(g),
            a1h * gr + gc * a1,
            a2.conj().T * gr + top[..., :n] + gc * a2 - bottom[..., n:],
        ])
        beta = np.stack([
            np.zeros_like(alpha[0]),
            gc * b1 - b1t * np.conj(gr),
            gc * b2 + top[..., n:] - b2t * np.conj(gr) - bottom[..., :n],
        ])
        trip = BosonBogoliubov(alpha, beta, j.modes)
    else:
        a1, a2 = j.a[1], j.a[2]
        a1h = np.ascontiguousarray(a1.conj().T)
        a = np.stack([
            diagonal_stack(g),
            a1h * gr + gc * a1,
            a2.conj().T * gr + a1h @ (gc * a1) + gc * a2,
        ])
        trip = FermionBogoliubov(a, j.modes)
    check_identities(trip, tol=GATE_TOL, window=interior_window(species, n_max))
    return trip


def one_way_trip(species: str, n_max: int, u: float):
    """Inertial -> accelerated (duration u) -> inertial: :func:`trip_stack` at one u."""
    return trip_stack(species, n_max, float(u))

