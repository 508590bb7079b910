"""Two-mode entanglement of travelled states.

Two independent routes to the same number.  The numeric route takes the
reduced density matrix orders from :mod:`cavityent.states`, evaluates them at
small finite h, partially transposes and sums the negative part of the
spectrum; the leading power and coefficient are then recovered from a probe
ladder.  The closed route evaluates the perturbative eigenvalue formulas of
the negative blocks directly from the junction, for a whole u grid at once,
and returns the negativity series without building a trip, a state or a
density matrix; it imports nothing from :mod:`cavityent.states`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import blocks
from .bogoliubov import BosonBogoliubov, InvariantViolation
from .series import cauchy

PROBES = (1e-2, 5e-3, 2.5e-3)
HERMITICITY_TOL = 1e-10
# relative floor under which partially transposed eigenvalues count as zero
EIGENVALUE_FLOOR = 1e-12
# below this a first-order coherence is a parity zero, not a leading term
FIRST_ORDER_FLOOR = 1e-9
# below this a closed series coefficient counts as zero
SERIES_FLOOR = 1e-12

_SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# numeric route


def partial_transpose(rho: np.ndarray, d: int) -> np.ndarray:
    """Transpose the second factor of a (d*d, d*d) matrix (or stack thereof)."""
    shape = rho.shape
    r = rho.reshape(shape[:-2] + (d, d, d, d))
    return np.swapaxes(r, -3, -1).reshape(shape)


def negativity_at(rho_orders: np.ndarray, h: float) -> float:
    """Negativity of the reduced matrix evaluated at acceleration h."""
    r0, r1, r2 = rho_orders
    rho = r0 + h * (r1 + h * r2)
    drift = float(np.max(np.abs(rho - rho.conj().T)))
    if drift > HERMITICITY_TOL:
        raise InvariantViolation(f"reduced matrix drifts from Hermitian by {drift:.3e}")
    d = int(round(np.sqrt(rho.shape[-1])))
    eig = np.linalg.eigvalsh(partial_transpose(rho, d))
    floor = -EIGENVALUE_FLOOR * float(np.sum(np.abs(eig)))
    return float(-eig[eig < floor].sum())


@dataclass(frozen=True)
class LeadingOrder:
    """Leading small-h behaviour coefficient * h**power of a negativity."""

    power: int
    coefficient: float
    converged: bool
    slope: float | None = None


def leading_order(rho_orders: np.ndarray, probes=PROBES) -> LeadingOrder:
    """Fit the leading power on a probe ladder and refine the coefficient.

    The power is the rounded log-log slope and is only trusted when the raw
    slope sits within 0.05 of it; the coefficient is Richardson-extrapolated
    from the two smallest probes, which cancels the next order exactly for a
    ratio-2 ladder.
    """
    probes = np.asarray(sorted(probes, reverse=True), dtype=float)
    values = np.array([negativity_at(rho_orders, h) for h in probes])
    if np.max(np.abs(values)) < 1e-12:
        return LeadingOrder(power=0, coefficient=0.0, converged=True)
    if np.min(values) <= 0.0:
        return LeadingOrder(power=0, coefficient=0.0, converged=False)
    slope = float(np.polyfit(np.log(probes), np.log(values), 1)[0])
    power = int(round(slope))
    scaled = values / probes**power
    coefficient = float(2.0 * scaled[-1] - scaled[-2])
    return LeadingOrder(
        power=power,
        coefficient=coefficient,
        converged=abs(slope - power) <= 0.05,
        slope=slope,
    )


def leading_from_series(series: np.ndarray) -> LeadingOrder:
    c = np.asarray(series, dtype=float)
    if abs(c[1]) > SERIES_FLOOR:
        return LeadingOrder(power=1, coefficient=float(c[1]), converged=True)
    if abs(c[2]) > SERIES_FLOOR:
        return LeadingOrder(power=2, coefficient=float(c[2]), converged=True)
    return LeadingOrder(power=0, coefficient=0.0, converged=True)


# ---------------------------------------------------------------------------
# closed route, shared pieces
#
# Every closed form takes a junction J and a u grid (a scalar or any array)
# and returns the series with the orders on the last axis, u.shape + (3,), or
# zeros(3) for a curve that vanishes identically.  It reads the entries, rows
# and norms of the states building blocks it needs from the trip's rows and
# columns at the observed labels (:func:`cavityent.blocks.trip_rows`): a few
# (n, n) products per grid, and no (len(u), n, n) array.


def _pt_block(d1, d2, x) -> np.ndarray:
    """Negativity series of a 2x2 transposed block [[d1 h^2, x], [conj x, d2 h^2]].

    With a first-order coherence the block is negative for any small h; when
    parity kills x[1] the block only opens at second order and may stay
    positive, in which case the series is zero.
    """
    x1 = np.abs(x[1])
    linear = x1 > FIRST_ORDER_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        opened = (np.conj(x[1]) * x[2]).real / x1 - 0.5 * (d1 + d2)
    root = np.sqrt(0.25 * (d1 - d2) ** 2 + np.abs(x[2]) ** 2)
    closed = np.maximum(0.0, root - 0.5 * (d1 + d2))
    return np.stack(
        [np.zeros_like(x1), np.where(linear, x1, 0.0), np.where(linear, opened, closed)],
        axis=-1,
    )


def _weight(x: np.ndarray) -> np.ndarray:
    """Summed squared magnitude over the last axis."""
    return np.sum(np.abs(x) ** 2, axis=-1)


def _orders(zeroth, first, second) -> np.ndarray:
    """Order array (3, ...) from three parts that broadcast together."""
    return np.stack(np.broadcast_arrays(zeroth, first, second))


class TripLines:
    """Trip rows and columns at ``labels`` (storage positions ``at``) on a u grid.

    ``rows[f][k][..., x, m]`` is entry (at[x], m) of order k of family f (a,
    or alpha and beta), ``cols[f][k][..., x, m]`` entry (m, at[x]); ``rest``
    masks every position but ``at``.
    """

    def __init__(self, j, u, labels):
        boson = isinstance(j, BosonBogoliubov)
        self.j = j
        self.g = blocks.free_phases("boson" if boson else "fermion", j.modes, u)
        self.at = [list(j.modes).index(int(m)) for m in labels]
        self.rest = np.ones(j.modes.size, dtype=bool)
        self.rest[self.at] = False
        self.rows = blocks.trip_rows(j, self.g, self.at)
        cols = blocks.trip_rows(j, np.conj(self.g), self.at)
        self.cols = (np.conj(cols[0]), -cols[1]) if boson else (np.conj(cols[0]),)

    def phase(self, x: int) -> np.ndarray:
        return self.g[..., self.at[x]]


# ---------------------------------------------------------------------------
# closed route, bosons


class BosonPieces(TripLines):
    """What the boson closed forms read for the labels (k, kp).

    ``v1``: rows k and kp of the pair matrix's first order; ``v``: orders of
    the entry V[k, kp]; ``d``: orders of the one-particle sources D[k, k]
    and D[kp, k], on the last axis; ``d1``: column k of D's first order;
    ``norm``: orders of the vacuum norm factor.
    """

    def __init__(self, j, u, k: int, kp: int):
        super().__init__(j, u, (k, kp))
        _, (_, b1r, b2r) = self.rows
        (_, a1c, a2c), (_, b1c, _) = self.cols
        g, at = self.g, self.at
        # V = -conj(beta) G^+ + conj(beta1) G^+ alpha1 G^+ at second order, symmetrised
        gr = np.conj(g[..., at, None])
        self.v1 = -0.5 * (np.conj(b1r) * np.conj(g[..., None, :]) + np.conj(b1c) * gr)
        other = at[::-1]
        hop = np.sum(np.conj(b1r * g[..., None, :]) * a1c[..., ::-1, :], axis=-1)
        raw2 = (hop - np.conj(b2r[..., [0, 1], other])) * np.conj(g[..., other])
        self.v = _orders(0.0, self.v1[..., 0, at[1]], 0.5 * np.sum(raw2, axis=-1))
        # D = conj(alpha) + V1^T beta1 at second order
        self.d1 = np.conj(a1c[..., 0, :])
        self.d = _orders(
            np.stack(np.broadcast_arrays(np.conj(self.phase(0)), 0.0), axis=-1),
            self.d1[..., at],
            np.conj(a2c[..., 0, at]) + np.sum(self.v1 * b1c[..., :1, :], axis=-1),
        )
        # sum |V1|^2 = 1/2 sum |S|^2 - 1/2 Re(g^T |S|^2 g) with S = beta1 + beta1^T
        s = np.abs(j.beta[1] + j.beta[1].T) ** 2
        total = 0.5 * np.sum(s) - 0.5 * np.real(np.sum((g @ s) * g, axis=-1))
        self.norm = _orders(1.0, 0.0, -0.25 * total)


def boson_vacuum_closed(j, u, pair) -> np.ndarray:
    """Negativity series of the travelled vacuum on a mode pair."""
    p = BosonPieces(j, u, *pair)
    x = cauchy(cauchy(p.norm, p.norm), p.v)
    series = _pt_block(_weight(p.v1[..., 0, p.rest]), _weight(p.v1[..., 1, p.rest]), x)
    # the (2,0)|(0,2) block closes on the double-pair amplitude
    series[..., 2] += np.abs(p.v[1]) ** 2
    return series


def boson_particle_closed(j, u, k: int, pair) -> np.ndarray:
    """Negativity series of a travelled one-particle state on (k, partner)."""
    k = int(k)
    pk, pkp = (int(m) for m in pair)
    if k not in (pk, pkp):
        raise ValueError("closed form expects the excited mode in the observed pair")
    pc = BosonPieces(j, u, k, pkp if k == pk else pk)
    v1k, v1kp = pc.v1[..., 0, pc.rest], pc.v1[..., 1, pc.rest]
    d1_rest = pc.d1[..., pc.rest]

    amp_k = cauchy(pc.norm, pc.d[..., 0])
    amp_kp = cauchy(pc.norm, pc.d[..., 1])
    amp_21 = _SQRT2 * cauchy(amp_k, pc.v)
    p = cauchy(amp_k, np.conj(amp_kp))
    q = cauchy(amp_k, np.conj(amp_21))

    d1 = _weight(v1kp)
    d2 = _weight(d1_rest)
    d3 = 2.0 * _weight(v1k)
    e2 = _SQRT2 * pc.phase(0) * np.sum(d1_rest * np.conj(v1k), axis=-1)

    s2 = np.abs(p[1]) ** 2 + np.abs(q[1]) ** 2
    linear = np.sqrt(s2) > FIRST_ORDER_FLOOR
    s3 = 2.0 * (np.conj(p[1]) * p[2] + np.conj(q[1]) * q[2]).real
    cross = 2.0 * (e2 * p[1] * np.conj(q[1])).real
    with np.errstate(divide="ignore", invalid="ignore"):
        opened = s3 / (2.0 * np.sqrt(s2)) - 0.5 * (
            d1 + (np.abs(p[1]) ** 2 * d2 + np.abs(q[1]) ** 2 * d3 + cross) / s2
        )
    # without a first-order coherence the 3x3 block only opens at second
    # order, through its lowest eigenvalue
    block = np.stack(
        [
            np.stack([d1, p[2], q[2]], axis=-1),
            np.stack([np.conj(p[2]), d2, e2], axis=-1),
            np.stack([np.conj(q[2]), np.conj(e2), d3], axis=-1),
        ],
        axis=-2,
    )
    closed = np.maximum(0.0, -np.linalg.eigvalsh(block)[..., 0])
    series = np.stack(
        [np.zeros_like(s2), np.where(linear, np.sqrt(s2), 0.0), np.where(linear, opened, closed)],
        axis=-1,
    )
    # the (1,2)|(3,0) block rides on the twice-paired amplitude
    series[..., 2] += np.sqrt(3.0) * np.abs(pc.v[1]) ** 2
    return series


# ---------------------------------------------------------------------------
# closed route, fermions


class FermionPieces(TripLines):
    """What the fermion closed forms read at two labels, by their index x in ``labels``.

    Row x of the pair matrix V (particle rows, antiparticle columns) is
    valid at the antiparticle positions, column x at the particle ones;
    ``source(e, o)`` is entry (o, e) of the particle source D or the
    antiparticle source E, whichever carries label e.
    """

    def __init__(self, j, u, labels):
        super().__init__(j, u, labels)
        self.part = j.modes >= 0

    def v1_row(self, x: int) -> np.ndarray:
        return -np.conj(self.phase(x))[..., None] * self.cols[0][1][..., x, :]

    def v1_col(self, x: int) -> np.ndarray:
        return -np.conj(self.g) * self.rows[0][1][..., x, :]

    def v(self, xp: int, xq: int) -> np.ndarray:
        """Orders of V[p, q]: -conj(g_p) (T[q, p] + sum_p' T1[p', p] V1[p', q])."""
        (_, c1, c2), at, part = self.cols[0], self.at, self.part
        hop = np.sum(c1[..., xp, part] * self.v1_col(xq)[..., part], axis=-1)
        gp = -np.conj(self.phase(xp))
        return _orders(0.0, gp * c1[..., xp, at[xq]], gp * (c2[..., xp, at[xq]] + hop))

    def source1(self, xe: int) -> np.ndarray:
        """Column e of the first order of D (particle e) or E (antiparticle e)."""
        c1 = self.cols[0][1][..., xe, :]
        return np.conj(c1) if self.part[self.at[xe]] else c1

    def source(self, xe: int, xo: int) -> np.ndarray:
        """Orders of D[o, e] = conj(T[o, e]) - (V1 conj(T1))[o, e], or of
        E[o, e] = T[o, e] + (V1^T T1)[o, e]."""
        (_, c1, c2), at, part = self.cols[0], self.at, self.part
        zeroth = self.phase(xe) if xe == xo else 0.0
        if part[at[xe]]:
            hop = np.sum(self.v1_row(xo)[..., ~part] * np.conj(c1[..., xe, ~part]), axis=-1)
            return np.conj(_orders(zeroth, c1[..., xe, at[xo]], c2[..., xe, at[xo]] - np.conj(hop)))
        hop = np.sum(self.v1_col(xo)[..., part] * c1[..., xe, part], axis=-1)
        return _orders(zeroth, c1[..., xe, at[xo]], c2[..., xe, at[xo]] + hop)

    def pair_scalar(self, xp: int, xq: int) -> np.ndarray:
        """Orders of the closed-loop amplitude c0 of the pair b_p^+ c_q^+|0>."""
        (_, c1, c2), at, anti = self.cols[0], self.at, ~self.part
        gq = self.phase(xq)
        loop = np.sum(np.conj(c1[..., xp, anti]) * c1[..., xq, anti], axis=-1)
        first, second = np.conj(c1[..., xp, at[xq]]), np.conj(c2[..., xp, at[xq]])
        return _orders(0.0, first * gq, loop + second * gq)

    def norm(self) -> np.ndarray:
        """Orders of the vacuum norm factor M, with sum |V1|^2 over all (p, q)
        = sum |J1[p, q]|^2 + |J1[q, p]|^2 + 2 Re(g_p^T X conj(g_q))."""
        a1, g, part, anti = self.j.a[1], self.g, self.part, ~self.part
        pq, qp = a1[np.ix_(part, anti)], a1[np.ix_(anti, part)].T
        moving = np.sum((g[..., part] @ np.conj(pq * qp)) * np.conj(g[..., anti]), axis=-1)
        total = np.sum(np.abs(pq) ** 2 + np.abs(qp) ** 2) + 2.0 * np.real(moving)
        return _orders(1.0, 0.0, -0.5 * total)


def fermion_vacuum_closed(j, u, pair) -> np.ndarray:
    """Negativity series of the travelled vacuum on a particle-antiparticle pair."""
    kappa, kappa_p = max(pair), min(pair)
    if kappa < 0 or kappa_p >= 0:
        raise ValueError("vacuum negativity at this order needs opposite charges")
    pc = FermionPieces(j, u, (kappa, kappa_p))
    anti, part = ~pc.part & pc.rest, pc.part & pc.rest
    m = pc.norm()
    x = -cauchy(cauchy(m, m), pc.v(0, 1))
    return _pt_block(_weight(pc.v1_row(0)[..., anti]), _weight(pc.v1_col(1)[..., part]), x)


def fermion_particle_closed(j, u, kappa: int, pair) -> np.ndarray:
    """Negativity series of a travelled single excitation on an observed pair.

    A partner of the opposite charge cannot share a negative block with the
    excitation at this order (the exchange channel is Pauli blocked), so the
    series is identically zero there.
    """
    kappa = int(kappa)
    if kappa not in tuple(int(m) for m in pair):
        raise ValueError("closed form expects the excited mode in the observed pair")
    partner = next(int(m) for m in pair if int(m) != kappa)
    if (kappa >= 0) != (partner >= 0):
        return np.zeros(3)
    pc = FermionPieces(j, u, (kappa, partner))
    m2 = cauchy(pc.norm(), pc.norm())
    if kappa >= 0:
        d1 = _weight(pc.v1_row(1)[..., ~pc.part])
        own = pc.part
    else:
        d1 = _weight(pc.v1_col(1)[..., pc.part])
        own = ~pc.part
    d2 = _weight(pc.source1(0)[..., own & pc.rest])
    x = cauchy(m2, cauchy(pc.source(0, 0), np.conj(pc.source(0, 1))))
    return _pt_block(d1, d2, x)


def fermion_pair_closed(j, u, kappa: int, kappa_p: int) -> np.ndarray:
    """Negativity series of a travelled particle-antiparticle pair state."""
    if kappa < 0 or kappa_p >= 0:
        raise ValueError("pair state wants a particle label and an antiparticle label")
    pc = FermionPieces(j, u, (kappa, kappa_p))
    m = pc.norm()
    c0 = pc.pair_scalar(0, 1)
    d1 = _weight(pc.source1(0)[..., pc.part & pc.rest])
    d2 = _weight(pc.source1(1)[..., ~pc.part & pc.rest])
    psi11 = cauchy(pc.source(0, 0), pc.source(1, 1)) + cauchy(pc.v(0, 1), c0)
    x = -cauchy(cauchy(m, m), cauchy(psi11, np.conj(c0)))
    return _pt_block(d1, d2, x)
