"""Junction blocks and the one-way trip.

The paper's trip is inertial, then uniformly accelerated for a dimensionless
duration u, then inertial again.  It is assembled from two ingredient types:

* the junction J between the inertial and the uniformly accelerated mode
  bases: the identity at h^0 plus h^1 and h^2 blocks, built either of two
  ways below, each memoized in the process and never stored on disk, or
  read from the closed-form tables at given labels;
* the free-evolution phases g_m of the accelerated segment P(u), which
  multiplies each accelerated mode by its phase.

Junction blocks are real in this mode convention (Bruschi, Fuentes and
Louko, arXiv 1105.1875) and both builders store them as float64; phases,
and so every trip, are complex128.

The one-way trip J^-1 P(u) J matches onto the accelerated basis, evolves
and matches back.  :func:`trip` composes it for any junction, with P(u) J
as J's rows scaled by the phases; :func:`one_way_trip`, the numeric route's
entry, reads the gated :func:`junction`.  :func:`junction` and
:func:`table_junction` have gated every trip of the u period.  The closed
route reads only junctions, or the tables at its labels, and
:func:`free_phases`.

Junction blocks
---------------
:func:`build_junction` extracts the blocks from the exact overlap quadrature
of :mod:`cavityent.oracles`, one quadrature call over the whole h ladder per
species; sweep rows and ``cavityent check`` read it.
:func:`table_blocks` writes the tables from closed forms, elementwise in the
two labels.  :func:`build_table_junction` is that function on the whole
label grid, O(n^2) work, which ``cavityent check`` and the tests read;
``check`` holds it against the quadrature, which keeps the quadrature as the
independent oracle of the printed coefficients.  A sweep's 2 n_max
convergence refinement forms no such grid: on a :class:`TableCutoff` the
closed route evaluates the same function at its two labels' rows, columns
and entries alone, O(n) work with the same bits, and runs no gate there;
the tests gate the tables at every refinement cutoff instead
(``tests/test_blocks.py::test_table_junction_passes_the_period_gate``).

The closed forms expand the overlap integrals in h.  Let xi in [0, 1] run
across the cavity (proper length 1), whose trailing wall lies a = 1/h - 1/2
from the Rindler horizon, and eps = 1/a = h + h^2/2 + O(h^3).  Inertial
boson mode n is sin(pi n xi) at frequency pi n; accelerated mode m is
sin(pi m l / L) with l = log(1 + eps xi) and L = log(1 + eps), at frequency
pi m / L.  The Klein-Gordon product on the junction slice gives

    alpha_mn, beta_mn = (mn)^(-1/2) int_0^1 sin(pi m l/L) sin(pi n xi)
                        (n +- m / (L (a + xi))) dxi,

with l/L = xi + (eps/2) xi (1 - xi) + O(eps^2) and
1/(L (a + xi)) = 1 + eps (1/2 - xi) + O(eps^2).  Expanding the sine about
pi m xi leaves, at each order of h, polynomials in xi times sines and
cosines of pi m xi and pi n xi, that is the elementary integrals of
xi^k cos(pi j xi) and xi^k sin(pi j xi) over [0, 1] with j = m -+ n.  They
are rational in m and n over powers of pi, and their endpoint factor
(-1)^j keeps odd orders only where m - n is odd and even orders only where
it is even (the mirror symmetry xi -> 1 - xi, h -> -h); the diagonal of
alpha2 collects the j = 0 integrals.  With d = m - n:

    alpha1 = -2 sqrt(mn) / (pi^2 d^3)             (d odd)
    beta1  =  2 sqrt(mn) / (pi^2 (m + n)^3)       (d odd)
    alpha2 =  sqrt(mn) (m + 2n) / (pi^2 d^4)      (d even, d != 0)
    alpha2 = -pi^2 n^2 / 240                      (m = n)
    beta2  =  sqrt(mn) (2n - m) / (pi^2 (m + n)^4)  (d even)

and zero elsewhere (Bruschi, Fuentes and Louko, arXiv 1105.1875).  The
Dirac modes of label kappa have frequency pi omega, omega = kappa + 1/2
(negative for antiparticles), and the spinor product is
int_0^1 cos(pi (omega_m l/L - omega_n xi)) (L (a + xi))^(-1/2) dxi; the same
expansion gives, with d = kappa_m - kappa_n,

    a1 = -(omega_m + omega_n) / (pi^2 d^3)                                (d odd)
    a2 = (omega_m^2 + 8 omega_m omega_n + 3 omega_n^2) / (4 pi^2 d^4)     (d even, d != 0)
    a2 = -pi^2 omega^2 / 240 - 1/96                                       (m = n)

where -1/96 is the h^2 term of int_0^1 (L (a + xi))^(-1/2) dxi (Friis, Lee,
Bruschi and Louko, "Kinematic entanglement degradation of fermionic cavity
modes").  Against the extraction the tables agree to the extraction's own
error (see ``cavityent check``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import oracles
from .bogoliubov import BosonBogoliubov, FermionBogoliubov, check_period, compose, invert
from .series import N_ORDERS

DEFAULT_LADDER = oracles.geometric_ladder(top=0.02, count=4)

# Smallest n_max from which every trip of a whole u period passes the
# bogoliubov.GATE_TOL gate, both species, by the bound of check_period.  The
# residual is the truncated mode tail and falls roughly as n_max^-3, but not
# monotonically: the weighted bound (boson / fermion) is 4.20e-8 / 5.24e-8 at
# 28, 2.58e-8 / 5.69e-8 at 30, 2.58e-8 / 3.25e-8 at 31, at most 3.77e-8
# (fermion, 34) from 31 to 59, and 5.29e-9 / 6.45e-9 at 56.
MIN_N_MAX = 31

# Largest n_max whose junction passes build_junction's 1e-9 zeroth-order
# drift check, both species.  The drift is the ladder extraction's h^2 tail,
# which grows with the cutoff because mode n expands in about h n at the fixed
# ladder top: (boson / fermion) 8.41e-10 / 8.12e-10 at 116, 9.64e-10 /
# 9.32e-10 at 118, 1.03e-9 / 9.97e-10 at 119 and 1.10e-9 / 1.07e-9 at 120.
# The tables have no drift and pass the gate at every refinement cutoff, 62
# to 236 (worst 0.11 of GATE_TOL, fermion 62), so a sweep's 2 n_max
# refinement does not bind.
MAX_N_MAX = 118

_cache: dict[tuple, object] = {}


def boson_modes(n_max: int) -> np.ndarray:
    return np.arange(1, n_max + 1)


def fermion_modes(n_max: int) -> np.ndarray:
    return np.arange(-n_max, n_max)


def species_modes(species: str, n_max: int) -> np.ndarray:
    """The mode labels of ``species`` at cutoff ``n_max``, in storage order."""
    if species == "boson":
        return boson_modes(n_max)
    if species == "fermion":
        return fermion_modes(n_max)
    raise ValueError(f"unknown species {species!r}")


def interior_window(species: str, n_max: int) -> tuple[int, int]:
    """Mode-label range on which truncation effects are negligible."""
    if species == "boson":
        return (1, n_max // 2)
    return (-(n_max // 2), n_max // 2)


def junction(species: str, n_max: int):
    """Junction transformation from the inertial onto the accelerated basis.

    Blocks are extracted from the finite-h overlap quadrature sampled on
    ``DEFAULT_LADDER``, using the mirror symmetry to split even and odd
    orders (:func:`build_junction`); sweep rows read this junction.  The
    zeroth order is the identity by construction (asserted, then snapped
    exactly).  Before the result is released, its structural identities
    and those of every trip of the u period
    (:func:`cavityent.bogoliubov.check_period`, one set of residual blocks,
    nothing per u) are gated on the interior window; results are memoized
    per (species, n_max) for the life of the process.
    """
    return _gated("quadrature", build_junction, species, n_max)


def table_junction(species: str, n_max: int):
    """The junction built from the closed-form tables (:func:`build_table_junction`),
    gated and memoized as :func:`junction` is, under its own key."""
    return _gated("tables", build_table_junction, species, n_max)


def _gated(source: str, build, species: str, n_max: int):
    key = (source, species, n_max)
    if key in _cache:
        return _cache[key]
    result = build(species, n_max)
    check_period(result, window=interior_window(species, n_max))
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


def build_table_junction(species: str, n_max: int):
    """The junction blocks from their closed forms, unmemoized and ungated:
    :func:`table_blocks` on the whole label grid, O(n^2) elementwise work with
    no quadrature, no ladder and no drift check."""
    modes = species_modes(species, n_max)
    size = (N_ORDERS, modes.size, modes.size)
    stacks = [np.empty(size) for _ in range(2 if species == "boson" else 1)]
    for order in range(N_ORDERS):
        for stack, block in zip(stacks, table_blocks(species, order, modes[:, None], modes)):
            stack[order] = block
    if species == "boson":
        return BosonBogoliubov(*stacks, modes)
    return FermionBogoliubov(*stacks, modes)


def table_blocks(species: str, order: int, m, n) -> tuple:
    """The junction tables' order h^``order`` at row labels ``m`` and column
    labels ``n``, integer arrays that broadcast: (alpha, beta) for bosons, (a,)
    for fermions, each of the broadcast shape.

    Every entry is an elementwise function of its two labels, so it has the
    same bits whichever labels it is evaluated with.  See the module
    docstring for the forms and where they come from.
    """
    if species not in ("boson", "fermion"):
        raise ValueError(f"unknown species {species!r}")
    d = m - n
    diag, odd = d == 0, d % 2 == 1                           # odd: m - n and m + n odd
    if order == 0:
        eye = np.where(diag, 1.0, 0.0)
        return (eye, np.zeros(d.shape)) if species == "boson" else (eye,)
    off = np.where(diag, 1, d)                               # the diagonal has its own form
    if species == "boson":
        s = m + n
        root = np.sqrt(m * n) / np.pi**2
        if order == 1:
            return np.where(odd, -2.0 * root / off**3, 0.0), np.where(odd, 2.0 * root / s**3, 0.0)
        return (np.where(diag, -(np.pi**2) * m**2 / 240.0,
                         np.where(odd, 0.0, root * (m + 2 * n) / off**4)),
                np.where(odd, 0.0, root * (2 * n - m) / s**4))
    wm, wn = m + 0.5, n + 0.5
    if order == 1:
        return (np.where(odd, -(wm + wn) / (np.pi**2 * off**3), 0.0),)
    return (np.where(diag, -(np.pi**2) * wm**2 / 240.0 - 1.0 / 96.0,
                     np.where(odd, 0.0, (wm**2 + 8 * wm * wn + 3 * wn**2) / (4 * np.pi**2 * off**4))),)


class TableCutoff(NamedTuple):
    """The junction tables of ``species`` at cutoff ``n_max``, never formed as
    arrays: the closed route evaluates :func:`table_blocks` at the labels it
    reads (see :class:`cavityent.negativity.TripGrid`)."""

    species: str
    n_max: int

    @property
    def modes(self) -> np.ndarray:
        return species_modes(self.species, self.n_max)


def phase_parameter(h: float, tau: float) -> float:
    """Dimensionless duration u of an accelerated segment.

    tau is the proper time elapsed at the cavity centre.  u is normalised so
    that every accelerated-mode phase is exp(-2 pi i * mode * u) for bosons,
    making u = 1 one full revolution of the fundamental.
    """
    return h * tau / (4.0 * np.arctanh(0.5 * h))


def free_phases(species: str, modes, u) -> np.ndarray:
    """Phases exp(-i omega_m u) of the modes ``modes``, shape u.shape + (n,)."""
    u = np.asarray(u, dtype=float)[..., None]
    if species == "boson":
        return np.exp(-2j * np.pi * modes * u)
    return np.exp(-2j * np.pi * (modes + 0.5) * u)


def trip(j, u):
    """The one-way trip J^-1 P(u) J of the junction ``j``, ungated, for a
    scalar or an array u: matrices of shape (3,) + u.shape + (n, n).  P(u) J
    is J with row m of every order scaled by the phase g_m."""
    boson = isinstance(j, BosonBogoliubov)
    g = free_phases("boson" if boson else "fermion", j.modes, u)[..., None]
    pad = (slice(None),) + (None,) * (g.ndim - 2)
    if boson:
        moved = BosonBogoliubov(j.alpha[pad] * g, j.beta[pad] * g, j.modes)
    else:
        moved = FermionBogoliubov(j.a[pad] * g, j.modes)
    return compose(invert(j), moved)


def one_way_trip(species: str, n_max: int, u):
    """Inertial -> accelerated (duration u) -> inertial: :func:`trip` on the
    gated :func:`junction`, which has gated every such trip."""
    return trip(junction(species, n_max), u)
