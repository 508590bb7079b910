"""Junction blocks and the one-way trip.

The paper's trip is inertial, then uniformly accelerated for a dimensionless
duration u, then inertial again.  It is assembled from two ingredient types:

* the junction J between the inertial and the uniformly accelerated mode
  bases, whose h^1 and h^2 blocks are extracted from the exact overlap
  quadrature (independent of any printed series coefficients), one
  quadrature call over the whole h ladder per species, memoized in the
  process and never stored on disk;
* the diagonal free-evolution phases of the accelerated segment.

The one-way trip J^-1 P(u) J matches onto the accelerated basis, evolves
and matches back.  :func:`one_way_trip` composes it with the group algebra
of :mod:`cavityent.bogoliubov` for the numeric route; :func:`trip_lines`
multiplies its orders out and reads only what the closed forms need.
Neither gates a trip: :func:`junction` has gated every trip of the u period.
"""

from __future__ import annotations

import numpy as np

from . import oracles
from .bogoliubov import BosonBogoliubov, FermionBogoliubov, check_period, compose, invert

DEFAULT_LADDER = oracles.geometric_ladder(top=0.02, count=4)

# Weighted identity residual above which a junction or a trip is rejected.
GATE_TOL = 5e-8

# Smallest n_max from which every trip of a whole u period passes the
# GATE_TOL gate, both species, by the bound of check_period.  The residual is
# the truncated mode tail and falls roughly as n_max^-3, but not
# monotonically: the weighted bound (boson / fermion) is 4.20e-8 / 5.24e-8 at
# 28, 2.58e-8 / 5.69e-8 at 30, 2.58e-8 / 3.25e-8 at 31, at most 3.77e-8
# (fermion, 34) from 31 to 59, and 5.29e-9 / 6.45e-9 at 56.
MIN_N_MAX = 31

# Largest n_max whose junction passes build_junction's 1e-9 zeroth-order
# drift check, both species.  The drift is the ladder extraction's h^2 tail,
# which grows with the cutoff because mode n expands in about h n at the fixed
# ladder top: (boson / fermion) 8.41e-10 / 8.12e-10 at 116, 9.64e-10 /
# 9.32e-10 at 118, 1.03e-9 / 9.97e-10 at 119 and 1.10e-9 / 1.07e-9 at 120.
# A sweep also builds the junctions of its 2 n_max refinement.
MAX_N_MAX = 118

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
    snapped exactly).  Before the result is released, its structural
    identities and those of every trip of the u period
    (:func:`cavityent.bogoliubov.check_period`, one set of residual blocks,
    nothing per u) are gated on
    the interior window; results are memoized per (species, n_max) for the
    life of the process.
    """
    key = (species, n_max)
    if key in _cache:
        return _cache[key]

    result = build_junction(species, n_max)
    check_period(result, tol=GATE_TOL, window=interior_window(species, n_max))
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


def free_phases(species: str, modes, u) -> np.ndarray:
    """Phases exp(-i omega_m u) of the modes ``modes``, shape u.shape + (n,)."""
    u = np.asarray(u, dtype=float)[..., None]
    if species == "boson":
        return np.exp(-2j * np.pi * modes * u)
    return np.exp(-2j * np.pi * (modes + 0.5) * u)


def accelerated_phases(species: str, n_max: int, u):
    """Free evolution in the accelerated basis for duration u, a scalar or an array."""
    modes = boson_modes(n_max) if species == "boson" else fermion_modes(n_max)
    cls = BosonBogoliubov if species == "boson" else FermionBogoliubov
    return cls.from_phases(modes, free_phases(species, modes, u))


def trip_lines(j, g, rows) -> tuple[np.ndarray, ...]:
    """What the closed forms read of the trip J^-1 P J at phases ``g``.

    ``g`` holds the phase of every mode on its last axis, any grid axes in
    front; ``rows`` are the storage positions of the observed labels.  A
    first-order line has shape g.shape[:-1] + (len(rows), n): entry (x, m) of
    a row is trip entry (rows[x], m), of a column trip entry (m, rows[x]).  A
    second-order block has shape g.shape[:-1] + (len(rows), len(rows)), entry
    (x, y) the trip entry (rows[x], rows[y]).  Returns

    * fermions: the rows and columns of a1 and the block of a2;
    * bosons: the rows of beta1, the columns of alpha1 and beta1, and the
      blocks of alpha2 and beta2.

    With G = diag(g) and the junction's zeroth order exact (identity, zero
    beta), trip orders (left) multiply out from junction orders (right) as
    a1 = J1^+ G + G J1 and a2 = J2^+ G + J1^+ G J1 + G J2 for fermions, and
    alpha1 = alpha1^+ G + G alpha1, beta1 = G beta1 - beta1^T conj(G),
    alpha2 = alpha2^+ G + alpha1^+ G alpha1 + G alpha2 - beta1^T conj(G beta1),
    beta2 = G beta2 + alpha1^+ G beta1 - beta2^T conj(G) - beta1^T conj(G alpha1)
    for bosons.

    Each second-order loop term sum_m x[m, i] g_m y[m, k] is one
    (grid, n) @ (n, len(rows)^2) product, so a grid point costs
    O(len(rows) n + len(rows)^2 n), not the O(len(rows) n^2) of whole
    second-order rows.
    """
    rows = np.asarray(rows)
    gl = g[..., None, :]  # phase of the free mode
    gr = g[..., rows, None]  # phase of the row label
    gk = g[..., None, rows]  # phase of the column label
    block = np.ix_(rows, rows)

    def loops(x, ys, phases):
        # sum_m conj(x[m, i]) phases_m y[m, k] on the label block, per y of ys
        pairs = np.conj(x)[:, None, :, None] * np.stack(ys, axis=1)[:, :, None, :]
        out = phases @ pairs.reshape(x.shape[0], -1)
        return np.moveaxis(out.reshape(out.shape[:-1] + pairs.shape[1:]), -3, 0)

    if isinstance(j, FermionBogoliubov):
        a1, a2 = j.a[1], j.a[2]
        x = a1[:, rows]
        (aa,) = loops(x, [x], g)
        return (
            np.conj(x).T * gl + gr * a1[rows],
            x.T * gl + gr * np.conj(a1[rows]),
            gr * a2[block] + aa + np.conj(a2[block]).T * gk,
        )
    a1, a2 = j.alpha[1], j.alpha[2]
    b1, b2 = j.beta[1], j.beta[2]
    x, y = a1[:, rows], b1[:, rows]
    aa, ab = loops(x, [x, y], g)
    bb, ba = loops(np.conj(y), [np.conj(y), np.conj(x)], np.conj(g))
    return (
        gr * b1[rows] - y.T * np.conj(gl),
        x.T * gl + gr * np.conj(a1[rows]),
        y.T * gl - np.conj(gr) * b1[rows],
        gr * a2[block] + aa + np.conj(a2[block]).T * gk - bb,
        gr * b2[block] + ab - b2[block].T * np.conj(gk) - ba,
    )


def one_way_trip(species: str, n_max: int, u):
    """Inertial -> accelerated (duration u) -> inertial: the trip J^-1 P(u) J.

    ``u`` may be a scalar or an array; the result's matrices have shape
    (3,) + u.shape + (n, n).  :func:`junction` has gated every such trip.
    """
    j = junction(species, n_max)
    return compose(invert(j), compose(accelerated_phases(species, n_max, u), j))
