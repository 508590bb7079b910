"""Two-mode entanglement of travelled states.

Two independent routes to the same number.  The numeric route takes the
reduced density matrix orders from :mod:`cavityent.states`, partially
transposes them and reads the negativity series off the orders by degenerate
perturbation theory (:func:`leading_order`); :func:`negativity_at` sums the
negative spectrum at one finite h.  The closed route evaluates the
perturbative eigenvalue formulas of the negative blocks directly from the
junction, for a whole u grid at once, and returns the negativity series
without building a trip, a state or a density matrix; it imports nothing from
:mod:`cavityent.states`.
"""

from __future__ import annotations

import numpy as np

from . import blocks
from .bogoliubov import BosonBogoliubov, InvariantViolation
from .series import cauchy

HERMITICITY_TOL = 1e-10
# relative floor under which partially transposed eigenvalues count as zero
EIGENVALUE_FLOOR = 1e-12
# below this a first-order coherence (closed route) or a first-order
# eigenvalue (numeric route) is a parity zero, not a leading term
FIRST_ORDER_FLOOR = 1e-9

_SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# numeric route


def partial_transpose(rho: np.ndarray, d: int) -> np.ndarray:
    """Transpose the second factor of a (d*d, d*d) matrix (or stack thereof)."""
    shape = rho.shape
    r = rho.reshape(shape[:-2] + (d, d, d, d))
    return np.swapaxes(r, -3, -1).reshape(shape)


def _check_hermitian(rho: np.ndarray) -> None:
    """Raise unless every matrix of ``rho`` (one or a stack) is Hermitian."""
    drift = float(np.max(np.abs(rho - np.conj(np.swapaxes(rho, -1, -2)))))
    if drift > HERMITICITY_TOL:
        raise InvariantViolation(f"reduced matrix drifts from Hermitian by {drift:.3e}")


def negativity_at(rho_orders: np.ndarray, h: float) -> float:
    """Negativity of the reduced matrix evaluated at acceleration h."""
    r0, r1, r2 = rho_orders
    rho = r0 + h * (r1 + h * r2)
    _check_hermitian(rho)
    d = int(round(np.sqrt(rho.shape[-1])))
    eig = np.linalg.eigvalsh(partial_transpose(rho, d))
    floor = -EIGENVALUE_FLOOR * float(np.sum(np.abs(eig)))
    return float(-eig[eig < floor].sum())


def leading_order(rho_orders: np.ndarray) -> np.ndarray:
    """Negativity series (orders h^0, h^1, h^2) of the reduced matrix orders.

    Only eigenvalues of rho^T_B = r0 + h r1 + h^2 r2 that vanish at h^0 can
    turn negative.  With P the kernel of r0 and Q its complement they follow
    h A + h^2 B, A = P r1 P and B = P r2 P - P r1 Q (r0|Q)^-1 Q r1 P.  The
    first order sums A's negative eigenvalues; the second sums B's diagonal
    on their eigenvectors (a trace, so exact on degenerate eigenspaces) and
    B's negative eigenvalues on A's null space, the eigenvalues within
    ``FIRST_ORDER_FLOOR`` of zero.  Raises :class:`InvariantViolation` for a
    non-Hermitian order or an r0 with a negative eigenvalue beyond rounding:
    every travelled in-state is a product state at h^0.
    """
    _check_hermitian(rho_orders)
    d = int(round(np.sqrt(rho_orders.shape[-1])))
    r0, r1, r2 = partial_transpose(rho_orders, d)
    w, v = np.linalg.eigh(r0)
    # rounding of the eigenvalues of an O(|r0|) matrix of this size
    floor = w.size * np.finfo(float).eps * float(np.linalg.norm(r0))
    if w[0] < -floor:
        raise InvariantViolation(f"r0^T_B has eigenvalue {w[0]:.3e}: not a product state")
    kernel = w <= floor
    p, q = v[:, kernel], v[:, ~kernel]
    a, x = np.linalg.eigh(p.conj().T @ r1 @ p)
    y = p @ x  # the eigenvectors of A in the full space
    hop = q.conj().T @ r1 @ y
    b = y.conj().T @ r2 @ y - hop.conj().T @ (hop / w[~kernel, None])
    negative = a < -FIRST_ORDER_FLOOR
    null = np.abs(a) <= FIRST_ORDER_FLOOR
    opened = np.linalg.eigvalsh(b[np.ix_(null, null)])
    second = np.sum(np.diagonal(b).real[negative]) + np.sum(opened[opened < 0.0])
    return np.array([0.0, -np.sum(a[negative]), -second])


# ---------------------------------------------------------------------------
# closed route, shared pieces
#
# Every closed form takes a species' :class:`TripGrid`, its junction J on a u
# grid (a scalar or any array), and returns the series with the orders on the
# last axis, u.shape + (3,), or zeros(3) for a curve that vanishes
# identically.  It reads the entries and rows of the states building blocks
# it needs from the trip's first-order rows and columns at the observed
# labels and its second-order entries among them
# (:func:`cavityent.blocks.trip_lines`): O(n) work per label and grid point,
# and no full second-order row and no (len(u), n, n) array.
#
# The states also carry the vacuum norm factor M = 1 + h^2 M2, which the
# numeric route keeps and the closed forms leave out exactly.  Each form
# would multiply M into an amplitude whose h^0 term is zero: V, the pair
# scalar c0, the source D[kp, k] or the fermion source(0, 1), and amp_21.
# Up to h^2 the Cauchy product then pairs M2 only with that zero.  The boson
# amp_k = D[k, k] has a non-zero h^0, but reaches the output only through
# p = amp_k conj(amp_kp) and q = amp_k conj(amp_21), whose partners vanish
# at h^0; so the h^2 term of amp_k, where M2 would land, drops out as well.


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


class TripGrid:
    """What every closed form of a species reads on a u grid, whatever its
    labels: the junction ``j`` and the free phases ``g`` of every mode,
    shape u.shape + (n,).  A sweep builds one per species and grid.
    """

    def __init__(self, j, u):
        self.j = j
        species = "boson" if isinstance(j, BosonBogoliubov) else "fermion"
        self.g = blocks.free_phases(species, j.modes, u)


class TripLines:
    """What the closed forms read of the trip at ``labels`` (storage positions
    ``at``) on a :class:`TripGrid`: ``lines``, the result of
    :func:`cavityent.blocks.trip_lines`, whose second-order blocks are indexed
    by label position; ``rest`` masks every position but ``at``.
    """

    def __init__(self, trip: TripGrid, labels):
        j = self.j = trip.j
        self.g = trip.g
        self.at = [list(j.modes).index(int(m)) for m in labels]
        self.rest = np.ones(j.modes.size, dtype=bool)
        self.rest[self.at] = False
        self.lines = blocks.trip_lines(j, self.g, self.at)

    def phase(self, x: int) -> np.ndarray:
        return self.g[..., self.at[x]]


# ---------------------------------------------------------------------------
# closed route, bosons


class BosonPieces(TripLines):
    """What the boson closed forms read for the labels (k, kp).

    ``v1``: rows k and kp of the pair matrix's first order; ``v``: orders of
    the entry V[k, kp]; ``d``: orders of the one-particle sources D[k, k]
    and D[kp, k], on the last axis; ``d1``: column k of D's first order.
    """

    def __init__(self, trip: TripGrid, k: int, kp: int):
        super().__init__(trip, (k, kp))
        b1r, a1c, b1c, a2, b2 = self.lines
        g, at = self.g, self.at
        # V = -conj(beta) G^+ + conj(beta1) G^+ alpha1 G^+ at second order, symmetrised
        gr = np.conj(g[..., at, None])
        self.v1 = -0.5 * (np.conj(b1r) * np.conj(g[..., None, :]) + np.conj(b1c) * gr)
        other = at[::-1]
        hop = np.sum(np.conj(b1r * g[..., None, :]) * a1c[..., ::-1, :], axis=-1)
        raw2 = (hop - np.conj(b2[..., [0, 1], [1, 0]])) * np.conj(g[..., other])
        self.v = _orders(0.0, self.v1[..., 0, at[1]], 0.5 * np.sum(raw2, axis=-1))
        # D = conj(alpha) + V1^T beta1 at second order
        self.d1 = np.conj(a1c[..., 0, :])
        self.d = _orders(
            np.stack(np.broadcast_arrays(np.conj(self.phase(0)), 0.0), axis=-1),
            self.d1[..., at],
            np.conj(a2[..., :, 0]) + np.sum(self.v1 * b1c[..., :1, :], axis=-1),
        )


def boson_vacuum_closed(trip: TripGrid, pair) -> np.ndarray:
    """Negativity series of the travelled vacuum on a mode pair."""
    p = BosonPieces(trip, *pair)
    x = p.v
    series = _pt_block(_weight(p.v1[..., 0, p.rest]), _weight(p.v1[..., 1, p.rest]), x)
    # the (2,0)|(0,2) block closes on the double-pair amplitude
    series[..., 2] += np.abs(p.v[1]) ** 2
    return series


def boson_particle_closed(trip: TripGrid, k: int, pair) -> np.ndarray:
    """Negativity series of a travelled one-particle state on (k, partner)."""
    k = int(k)
    pk, pkp = (int(m) for m in pair)
    if k not in (pk, pkp):
        raise ValueError("closed form expects the excited mode in the observed pair")
    pc = BosonPieces(trip, k, pkp if k == pk else pk)
    v1k, v1kp = pc.v1[..., 0, pc.rest], pc.v1[..., 1, pc.rest]
    d1_rest = pc.d1[..., pc.rest]

    amp_k, amp_kp = pc.d[..., 0], pc.d[..., 1]
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

    def __init__(self, trip: TripGrid, labels):
        super().__init__(trip, labels)
        self.part = self.j.modes >= 0
        # first-order rows and columns, second-order block T2[x, y]
        self.r1, self.c1, self.t2 = self.lines

    def v1_row(self, x: int) -> np.ndarray:
        return -np.conj(self.phase(x))[..., None] * self.c1[..., x, :]

    def v1_col(self, x: int) -> np.ndarray:
        return -np.conj(self.g) * self.r1[..., x, :]

    def v(self, xp: int, xq: int) -> np.ndarray:
        """Orders of V[p, q]: -conj(g_p) (T[q, p] + sum_p' T1[p', p] V1[p', q])."""
        c1, at, part = self.c1, self.at, self.part
        hop = np.sum(c1[..., xp, part] * self.v1_col(xq)[..., part], axis=-1)
        gp = -np.conj(self.phase(xp))
        return _orders(0.0, gp * c1[..., xp, at[xq]], gp * (self.t2[..., xq, xp] + hop))

    def source1(self, xe: int) -> np.ndarray:
        """Column e of the first order of D (particle e) or E (antiparticle e)."""
        c1 = self.c1[..., xe, :]
        return np.conj(c1) if self.part[self.at[xe]] else c1

    def source(self, xe: int, xo: int) -> np.ndarray:
        """Orders of D[o, e] = conj(T[o, e]) - (V1 conj(T1))[o, e], or of
        E[o, e] = T[o, e] + (V1^T T1)[o, e]."""
        c1, t2, at, part = self.c1, self.t2[..., xo, xe], self.at, self.part
        zeroth = self.phase(xe) if xe == xo else 0.0
        if part[at[xe]]:
            hop = np.sum(self.v1_row(xo)[..., ~part] * np.conj(c1[..., xe, ~part]), axis=-1)
            return np.conj(_orders(zeroth, c1[..., xe, at[xo]], t2 - np.conj(hop)))
        hop = np.sum(self.v1_col(xo)[..., part] * c1[..., xe, part], axis=-1)
        return _orders(zeroth, c1[..., xe, at[xo]], t2 + hop)

    def pair_scalar(self, xp: int, xq: int) -> np.ndarray:
        """Orders of the closed-loop amplitude c0 of the pair b_p^+ c_q^+|0>."""
        c1, at, anti = self.c1, self.at, ~self.part
        gq = self.phase(xq)
        loop = np.sum(np.conj(c1[..., xp, anti]) * c1[..., xq, anti], axis=-1)
        first, second = np.conj(c1[..., xp, at[xq]]), np.conj(self.t2[..., xq, xp])
        return _orders(0.0, first * gq, loop + second * gq)


def fermion_vacuum_closed(trip: TripGrid, pair) -> np.ndarray:
    """Negativity series of the travelled vacuum on a particle-antiparticle pair."""
    kappa, kappa_p = max(pair), min(pair)
    if kappa < 0 or kappa_p >= 0:
        raise ValueError("vacuum negativity at this order needs opposite charges")
    pc = FermionPieces(trip, (kappa, kappa_p))
    anti, part = ~pc.part & pc.rest, pc.part & pc.rest
    x = -pc.v(0, 1)
    return _pt_block(_weight(pc.v1_row(0)[..., anti]), _weight(pc.v1_col(1)[..., part]), x)


def fermion_particle_closed(trip: TripGrid, kappa: int, pair) -> np.ndarray:
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
    pc = FermionPieces(trip, (kappa, partner))
    if kappa >= 0:
        d1 = _weight(pc.v1_row(1)[..., ~pc.part])
        own = pc.part
    else:
        d1 = _weight(pc.v1_col(1)[..., pc.part])
        own = ~pc.part
    d2 = _weight(pc.source1(0)[..., own & pc.rest])
    x = cauchy(pc.source(0, 0), np.conj(pc.source(0, 1)))
    return _pt_block(d1, d2, x)


def fermion_pair_closed(trip: TripGrid, kappa: int, kappa_p: int) -> np.ndarray:
    """Negativity series of a travelled particle-antiparticle pair state."""
    if kappa < 0 or kappa_p >= 0:
        raise ValueError("pair state wants a particle label and an antiparticle label")
    pc = FermionPieces(trip, (kappa, kappa_p))
    c0 = pc.pair_scalar(0, 1)
    d1 = _weight(pc.source1(0)[..., pc.part & pc.rest])
    d2 = _weight(pc.source1(1)[..., ~pc.part & pc.rest])
    psi11 = cauchy(pc.source(0, 0), pc.source(1, 1)) + cauchy(pc.v(0, 1), c0)
    x = -cauchy(psi11, np.conj(c0))
    return _pt_block(d1, d2, x)
