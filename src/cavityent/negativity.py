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

import functools
from typing import NamedTuple

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
# Every closed form takes a species' :class:`TripGrid` on a u grid (a scalar
# or any array) and returns the series with the orders on the last axis,
# u.shape + (3,); :class:`cavityent.sweep.CurveSpec` evaluates none for the
# curves that charge or parity selection makes identically zero.  It
# reads the states building blocks at the observed labels: trip entries
# there, and sums over the free mode m of products of two lines, the trip's
# first-order rows and columns at a label.  It reads a junction block only
# through :func:`_lines`: its rows and columns at the two labels and its
# entries between them.  With G = diag(g) and the junction's h^0 order
# exact, a1 = J1^+ G + G J1 for fermions, and
# alpha1 = alpha1^+ G + G alpha1 and beta1 = G beta1 - beta1^T conj(G) for
# bosons; so a line entry is two terms, a junction entry times g_m^(+-1) and
# one times a label phase, e.g. a1[x, m] = J1[m, x] g_m + g_x J1[x, m] for a
# real J1, or V1[x, m] = -1/2 S[x, m] (conj(g_x g_m) - 1) with S = beta1 +
# beta1^T for the boson pair matrix.  A line is held as its terms (c, w, p),
# c w[m] g_m^p with c a label phase or a constant and w a junction column.
# A sum of a product of two lines multiplies out term by term
# (:func:`_mode_sum`); with |g_m| = 1 each term is a constant or one product
# of the phase table with a column, g @ w or conj(g) @ w = conj(g @ conj(w)),
# times label phases.  For example
#   sum_rest |V1[x, m]|^2 = 1/2 sum_rest S[x]^2 - 1/2 Re(g_x (g @ (S[x]^2 rest))).
# The trip's second-order entries at the labels multiply out the same way
# (a2 = J2^+ G + J1^+ G J1 + G J2 and so on).  Only len(u)-sized arithmetic
# follows the products.
#
# Only h^2 reads a sum over the free mode.  Each family's h^1 is the
# magnitude of the negative block's first-order coherence, a product of
# line entries at the two labels: junction entries there times the two
# labels' phases.  On a :class:`FirstOrderGrid` the pieces' order stacks
# stop at h^1, the truncated :func:`cauchy` products with them, and each
# closed form returns the orders h^0 and h^1 alone, u.shape + (2,), without
# forming the phase table ``TripGrid.g``.  The same code builds the stacks
# to h^2 on a :class:`TripGrid`, so the two h^1 agree to the last bit.
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
    """Negativity series of a 2x2 transposed block [[d1 h^2, x], [conj x, d2 h^2]],
    to h^1 alone (d1 and d2 unread) when the orders of x stop there.

    With a first-order coherence the block is negative for any small h; when
    parity kills x[1] the block only opens at second order and may stay
    positive, in which case the series is zero.
    """
    x1 = np.abs(x[1])
    series = np.zeros(np.shape(x1) + (len(x),))
    series[..., 1] = np.where(x1 > FIRST_ORDER_FLOOR, x1, 0.0)
    if len(x) == 2:
        return series
    with np.errstate(divide="ignore", invalid="ignore"):
        opened = (np.conj(x[1]) * x[2]).real / x1 - 0.5 * (d1 + d2)
    root = np.sqrt(0.25 * (d1 - d2) ** 2 + np.abs(x[2]) ** 2)
    closed = np.maximum(0.0, root - 0.5 * (d1 + d2))
    series[..., 2] = np.where(series[..., 1] > 0.0, opened, closed)
    return series


def _orders(zeroth, first, second=None) -> np.ndarray:
    """Order array (3, ...) from three parts that broadcast to the last, or
    (2, ...) without ``second``."""
    parts = (zeroth, first) if second is None else (zeroth, first, second)
    out = np.empty((len(parts),) + np.shape(parts[-1]), dtype=complex)
    for order, part in enumerate(parts):
        out[order] = part
    return out


def _conj(line) -> tuple:
    """The complex conjugate of a line held as terms (c, w, p)."""
    return tuple((np.conj(c), np.conj(w), -p) for c, w, p in line)


def _mode_sum(g, first, second, mask=None, power=0) -> np.ndarray:
    """sum_m first[m] second[m] g_m^power over ``mask`` (all modes by default),
    for lines held as terms (c, w, p)."""
    if mask is not None:
        second = tuple((c, w * mask, p) for c, w, p in second)
    total = 0.0
    for c1, w1, p1 in first:
        for c2, w2, p2 in second:
            p = p1 + p2 + power
            assert abs(p) <= 1, "a product term beyond g_m^+-1"
            # sum_m w conj(g_m) = conj(g @ conj(w))
            s = w1 @ w2 if p == 0 else g @ (w1 * w2) if p == 1 else np.conj(g @ np.conj(w1 * w2))
            total = total + c1 * c2 * s
    return total


class TripGrid:
    """The junction ``j`` on a u grid: each label's storage ``position`` and
    the phase table ``g`` of every mode, shape u.shape + (n,), formed on
    first use.  ``j`` is a stored junction or a :class:`blocks.TableCutoff`,
    whose tables the pieces evaluate at their labels alone (:func:`_lines`)."""

    first_only = False

    def __init__(self, j, u):
        self.j, self.u = j, u
        if isinstance(j, blocks.TableCutoff):
            self.species = j.species
        else:
            self.species = "boson" if isinstance(j, BosonBogoliubov) else "fermion"
        self.position = dict(zip(j.modes.tolist(), range(j.modes.size)))

    @functools.cached_property
    def g(self) -> np.ndarray:
        if self.species == "boson":
            return blocks.free_phases("boson", self.j.modes, self.u)
        # label -1 - kappa turns at -(kappa + 1/2), so each phase is computed
        # once at its label >= 0 and gathered by label (np.take keeps C order)
        upper = np.maximum(self.j.modes, -1 - self.j.modes)
        g = np.take(blocks.free_phases("fermion", np.arange(upper.max() + 1), self.u), upper, -1)
        return np.conjugate(g, out=g, where=self.j.modes < 0)

    def coarse(self, j) -> TripGrid:
        """The grid of junction ``j``, whose labels must be a run of this
        grid's: its phase table is a column slice of this one's."""
        trip = TripGrid(j, self.u)
        start = self.position.get(int(j.modes[0]), 0)
        if not np.array_equal(self.j.modes[start:start + j.modes.size], j.modes):
            raise ValueError("the junction's labels are not a run of this grid's labels")
        trip.g = self.g[..., start:start + j.modes.size]
        return trip


class FirstOrderGrid(TripGrid):
    """A :class:`TripGrid` on which the closed forms stop at h^1: they read
    only junction entries and phases at their labels, never ``g``."""

    first_only = True


class _Lines(NamedTuple):
    """A junction block's h^1 lines at two labels, by index x: ``cols[x]`` its
    column at label x and ``rows[x]`` its row there.  On a first-order grid
    each line is only its two entries at the labels."""

    cols: tuple
    rows: tuple


def _lines(j, at, first_only: bool = False) -> list:
    """The blocks of junction ``j`` as the closed route reads them at the
    storage positions ``at`` of two labels: each h^1 block's lines there
    (:class:`_Lines`), each h^2 block's (2, 2) entries between the labels,
    in the order alpha1, alpha2, beta1, beta2 (bosons) or a1, a2 (fermions).
    With ``first_only`` the lines are their entries at the labels alone,
    index y standing for label y, and the h^2 blocks are None.

    A stored junction is sliced; on a :class:`blocks.TableCutoff` the table
    forms are evaluated at those labels alone, in O(n), to the same bits.
    Rows are contiguous and columns strided on both, as numpy's dot rounds a
    strided line differently from a contiguous one.
    """
    if isinstance(j, blocks.TableCutoff):
        labels = j.modes[at]
        if first_only:
            return _entry_lines(blocks.table_blocks(j.species, 1, labels[:, None], labels))
        # one evaluation at (m, label), the columns, and at (label, m), the
        # rows transposed, which are then copied contiguous
        pairs = np.empty((2, j.modes.size, 2), dtype=int)
        pairs[0], pairs[1] = j.modes[:, None], labels
        first = [_Lines(tuple(x[0].T), tuple(x[1].T.copy()))
                 for x in blocks.table_blocks(j.species, 1, pairs, pairs[::-1])]
        second = blocks.table_blocks(j.species, 2, labels[:, None], labels)
    else:
        stored = (j.alpha, j.beta) if isinstance(j, BosonBogoliubov) else (j.a,)
        if first_only:
            return _entry_lines([x[1][np.ix_(at, at)] for x in stored])
        first = [_Lines(tuple(x[1][:, i] for i in at), tuple(x[1][i] for i in at)) for x in stored]
        second = [x[2][np.ix_(at, at)] for x in stored]
    return [b for pair in zip(first, second) for b in pair]


def _entry_lines(entries) -> list:
    """:func:`_lines` on a first-order grid from each h^1 block's (2, 2)
    entries between the labels: lines of two entries, no h^2 block."""
    return [b for e in entries for b in (_Lines(tuple(e.T), tuple(e)), None)]


class _Pieces:
    """The labels' storage positions ``at`` and phases on a :class:`TripGrid`;
    ``rest`` masks every position but ``at``.  With ``first_only`` every order
    stack stops at h^1."""

    def __init__(self, trip: TripGrid, labels):
        self.j, self.trip, self.first_only = trip.j, trip, trip.first_only
        self.at = [trip.position[int(m)] for m in labels]
        # where a line holds label y: its storage position, or y itself on the
        # two-entry lines of a first-order grid
        self.line_at = (0, 1) if self.first_only else self.at
        self.label_phases = blocks.free_phases(trip.species, np.asarray(labels), trip.u)
        self.rest = np.ones(self.j.modes.size, dtype=bool)
        self.rest[self.at] = False

    @property
    def g(self) -> np.ndarray:
        return self.trip.g

    def phase(self, x: int) -> np.ndarray:
        return self.label_phases[..., x]

    def entry(self, line, y: int) -> np.ndarray:
        """The line's entry at label y, its two terms added in order."""
        k, g = self.line_at[y], self.phase(y)
        t0, t1 = (c * w[k] * (g if p == 1 else np.conj(g)) if p else c * w[k] for c, w, p in line)
        return t0 + t1

    def col(self, x: int, row: bool = False) -> tuple:
        """Trip alpha1[m, x] = alpha1[m, x] g_m + g_x conj(alpha1[x, m]) (fermions:
        a1), or with ``row`` the trip row alpha1[x, m], each junction entry conjugated."""
        w = self.a1.cols[x], np.conj(self.a1.rows[x])
        w = np.conj(w) if row else w
        return ((1.0, w[0], 1), (self.phase(x), w[1], 0))

    def second(self, x: int, y: int, beta: bool = False) -> np.ndarray:
        """Trip alpha2[x, y] (fermions: a2), or beta2[x, y] with ``beta``."""
        gx, gy = self.phase(x), self.phase(y)
        a1, b1 = self.a1, self.b1
        right, left = (b1, a1) if beta else (a1, b1)
        loops = self.g @ (np.conj(a1.cols[x]) * right.cols[y])  # then less the conj(g) loop
        if left is not None:
            loops = loops - np.conj(self.g @ (np.conj(b1.cols[x]) * left.cols[y]))
        if beta:
            b2 = self.b2
            return gx * b2[x, y] - b2[y, x] * np.conj(gy) + loops
        a2 = self.a2
        return gx * a2[x, y] + np.conj(a2[y, x]) * gy + loops

    def overlap(self, line, mask, other=None) -> np.ndarray:
        """sum over ``mask`` of line[m] conj(other[m]), or the real |line[m]|^2."""
        if other is None:
            return _mode_sum(self.g, line, _conj(line), mask).real
        return _mode_sum(self.g, line, _conj(other), mask)


# ---------------------------------------------------------------------------
# closed route, bosons


class BosonPieces(_Pieces):
    """What the boson closed forms read at (k, kp), by index x; ``v``: V[k, kp]'s orders."""

    def __init__(self, trip: TripGrid, k: int, kp: int):
        super().__init__(trip, (k, kp))
        self.a1, self.a2, self.b1, self.b2 = _lines(self.j, self.at, self.first_only)
        # V = -conj(beta) G^+ + conj(beta1) G^+ alpha1 G^+ at second order, symmetrised
        r, c = self.entry(self.beta_row(0), 1), self.entry(self.beta_col(0), 1)
        v1 = -0.5 * (np.conj(r) * np.conj(self.phase(1)) + np.conj(c) * np.conj(self.phase(0)))
        v2 = None
        if not self.first_only:
            raw2 = [
                (_mode_sum(self.g, _conj(self.beta_row(x)), self.col(1 - x), power=-1)
                 - np.conj(self.second(x, 1 - x, beta=True))) * np.conj(self.phase(1 - x))
                for x in (0, 1)
            ]
            v2 = 0.5 * (raw2[0] + raw2[1])
        self.v = _orders(0.0, v1, v2)

    def sources(self) -> np.ndarray:
        """Orders of D[k, k] and D[kp, k] on the last axis, D = conj(alpha) +
        V1^T beta1 at second order."""
        first = [np.conj(self.entry(self.col(0), y)) for y in (0, 1)]
        second = None
        if not self.first_only:
            pairs = [_mode_sum(self.g, self.pair_row(x), self.beta_col(0)) for x in (0, 1)]
            second = np.stack([np.conj(self.second(x, 0)) + pairs[x] for x in (0, 1)], axis=-1)
        out = _orders(0.0, np.stack(first, axis=-1), second)
        out[0][..., 0] = np.conj(self.phase(0))
        return out

    # the lines besides col: trip beta1[x, m], beta1[m, x], and V1[x, m]
    def beta_row(self, x: int) -> tuple:
        return ((self.phase(x), self.b1.rows[x], 0), (-1.0, self.b1.cols[x], -1))

    def beta_col(self, x: int) -> tuple:
        return ((1.0, self.b1.cols[x], 1), (-np.conj(self.phase(x)), self.b1.rows[x], 0))

    def pair_row(self, x: int) -> tuple:
        s = np.conj(self.b1.rows[x] + self.b1.cols[x])
        return ((-0.5 * np.conj(self.phase(x)), s, -1), (0.5, s, 0))


def boson_vacuum_closed(trip: TripGrid, pair) -> np.ndarray:
    """Negativity series of the travelled vacuum on a mode pair."""
    p = BosonPieces(trip, *pair)
    if p.first_only:
        return _pt_block(None, None, p.v)
    d1, d2 = (p.overlap(p.pair_row(x), p.rest) for x in (0, 1))
    series = _pt_block(d1, d2, p.v)
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
    amp_k, amp_kp = np.moveaxis(pc.sources(), -1, 0)
    amp_21 = _SQRT2 * cauchy(amp_k, pc.v)
    p = cauchy(amp_k, np.conj(amp_kp))
    q = cauchy(amp_k, np.conj(amp_21))
    s2 = np.abs(p[1]) ** 2 + np.abs(q[1]) ** 2
    series = np.zeros(np.shape(s2) + (len(p),))
    series[..., 1] = np.where(np.sqrt(s2) > FIRST_ORDER_FLOOR, np.sqrt(s2), 0.0)
    if pc.first_only:
        return series

    # weights of V1's rows and of D1's column k = conj(trip alpha1[m, k]) off the labels
    d1 = pc.overlap(pc.pair_row(1), pc.rest)
    d2 = pc.overlap(pc.col(0), pc.rest)
    d3 = 2.0 * pc.overlap(pc.pair_row(0), pc.rest)
    e2 = _SQRT2 * pc.phase(0) * pc.overlap(_conj(pc.col(0)), pc.rest, pc.pair_row(0))

    s3 = 2.0 * (np.conj(p[1]) * p[2] + np.conj(q[1]) * q[2]).real
    cross = 2.0 * (e2 * p[1] * np.conj(q[1])).real
    with np.errstate(divide="ignore", invalid="ignore"):
        opened = s3 / (2.0 * np.sqrt(s2)) - 0.5 * (
            d1 + (np.abs(p[1]) ** 2 * d2 + np.abs(q[1]) ** 2 * d3 + cross) / s2
        )
    # without a first-order coherence the 3x3 block only opens at second
    # order, through its lowest eigenvalue
    rows = ((d1, p[2], q[2]), (np.conj(p[2]), d2, e2), (np.conj(q[2]), np.conj(e2), d3))
    block = np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)
    closed = np.maximum(0.0, -np.linalg.eigvalsh(block)[..., 0])
    series[..., 2] = np.where(series[..., 1] > 0.0, opened, closed)
    # the (1,2)|(3,0) block rides on the twice-paired amplitude
    series[..., 2] += np.sqrt(3.0) * np.abs(pc.v[1]) ** 2
    return series


# ---------------------------------------------------------------------------
# closed route, fermions


class FermionPieces(_Pieces):
    """What the fermion closed forms read at two labels, by index x.  Row x of the pair
    matrix V (particle rows, antiparticle columns) is -conj(g_x) T1[m, x], column x
    -conj(g_m) T1[x, m], column x of the source D or E conj(T1[m, x]) or T1[m, x]."""

    def __init__(self, trip: TripGrid, labels):
        super().__init__(trip, labels)
        self.part = self.j.modes >= 0
        (self.a1, self.a2), self.b1 = _lines(self.j, self.at, self.first_only), None

    def v(self, xp: int, xq: int) -> np.ndarray:
        """Orders of V[p, q] = -conj(g_p) (T[q, p] - sum_part T1[m, p] conj(g_m) T1[q, m])."""
        gp = -np.conj(self.phase(xp))
        second = None
        if not self.first_only:
            hop = _mode_sum(self.g, self.col(xp), self.col(xq, row=True), self.part, power=-1)
            second = gp * (self.second(xq, xp) - hop)
        return _orders(0.0, gp * self.entry(self.col(xp), xq), second)

    def source(self, xe: int, xo: int) -> np.ndarray:
        """Orders of D[o, e] = conj(T[o, e]) - (V1 conj(T1))[o, e], or of
        E[o, e] = T[o, e] + (V1^T T1)[o, e], whichever carries label e."""
        zeroth = self.phase(xe) if xe == xo else 0.0
        first = self.entry(self.col(xe), xo)
        particle = self.part[self.at[xe]]
        if self.first_only:
            second = None
        elif particle:
            # (V1 conj(T1))[o, e] = -conj(g_o) sum_anti T1[m, o] conj(T1[m, e])
            loop = self.overlap(self.col(xe), ~self.part, self.col(xo))
            second = self.second(xo, xe) + self.phase(xo) * loop
        else:
            hop = _mode_sum(self.g, self.col(xo, row=True), self.col(xe), self.part, power=-1)
            second = self.second(xo, xe) - hop
        out = _orders(zeroth, first, second)
        return np.conj(out) if particle else out

    def pair_scalar(self, xp: int, xq: int) -> np.ndarray:
        """Orders of the closed-loop amplitude c0 of the pair b_p^+ c_q^+|0>."""
        gq = self.phase(xq)
        first, second = np.conj(self.entry(self.col(xp), xq)), None
        if not self.first_only:
            loop = self.overlap(self.col(xq), ~self.part, self.col(xp))
            second = loop + np.conj(self.second(xq, xp)) * gq
        return _orders(0.0, first * gq, second)


def fermion_vacuum_closed(trip: TripGrid, pair) -> np.ndarray:
    """Negativity series of the travelled vacuum on a particle-antiparticle pair."""
    kappa, kappa_p = max(pair), min(pair)
    if kappa < 0 or kappa_p >= 0:
        raise ValueError("vacuum negativity at this order needs opposite charges")
    pc = FermionPieces(trip, (kappa, kappa_p))
    if pc.first_only:
        return _pt_block(None, None, -pc.v(0, 1))
    d1 = pc.overlap(pc.col(0), ~pc.part & pc.rest)
    d2 = pc.overlap(pc.col(1, row=True), pc.part & pc.rest)
    return _pt_block(d1, d2, -pc.v(0, 1))


def fermion_particle_closed(trip: TripGrid, kappa: int, pair) -> np.ndarray:
    """Negativity series of a travelled single excitation on an observed pair.

    A partner of the opposite charge cannot share a negative block with the
    excitation at this order (the exchange channel is Pauli blocked): the
    series is identically zero, and such a pair raises ValueError.
    """
    kappa = int(kappa)
    if kappa not in tuple(int(m) for m in pair):
        raise ValueError("closed form expects the excited mode in the observed pair")
    partner = next(int(m) for m in pair if int(m) != kappa)
    if (kappa >= 0) != (partner >= 0):
        raise ValueError("one-particle negativity at this order needs a same-charge partner")
    pc = FermionPieces(trip, (kappa, partner))
    x = cauchy(pc.source(0, 0), np.conj(pc.source(0, 1)))
    if pc.first_only:
        return _pt_block(None, None, x)
    own = pc.part if kappa >= 0 else ~pc.part
    d1 = pc.overlap(pc.col(1, row=kappa < 0), ~own)
    d2 = pc.overlap(pc.col(0), own & pc.rest)
    return _pt_block(d1, d2, x)


def fermion_pair_closed(trip: TripGrid, kappa: int, kappa_p: int) -> np.ndarray:
    """Negativity series of a travelled particle-antiparticle pair state."""
    if kappa < 0 or kappa_p >= 0:
        raise ValueError("pair state wants a particle label and an antiparticle label")
    pc = FermionPieces(trip, (kappa, kappa_p))
    c0 = pc.pair_scalar(0, 1)
    psi11 = cauchy(pc.source(0, 0), pc.source(1, 1)) + cauchy(pc.v(0, 1), c0)
    x = -cauchy(psi11, np.conj(c0))
    if pc.first_only:
        return _pt_block(None, None, x)
    d1 = pc.overlap(pc.col(0), pc.part & pc.rest)
    d2 = pc.overlap(pc.col(1), ~pc.part & pc.rest)
    return _pt_block(d1, d2, x)
