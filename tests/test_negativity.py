"""Partial transpose, the numeric route's series and the closed-form routes."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cavityent import blocks, states, sweep
from cavityent import negativity as neg
from cavityent.bogoliubov import InvariantViolation
from cavityent.sweep import CurveSpec


def _bell(p: float) -> np.ndarray:
    """Werner-like two-qubit state: p |Phi+><Phi+| + (1-p)/4 identity."""
    phi = np.zeros(4)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    return p * np.outer(phi, phi) + (1 - p) / 4 * np.eye(4)


# --- partial transpose ------------------------------------------------------


def test_partial_transpose_is_involutive(rng):
    rho = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    rho = rho + rho.conj().T
    assert np.allclose(neg.partial_transpose(neg.partial_transpose(rho, 3), 3), rho)


def test_partial_transpose_acts_on_second_factor(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    got = neg.partial_transpose(np.kron(a, b), 3)
    assert np.allclose(got, np.kron(a, b.T))


def test_partial_transpose_broadcasts_over_orders(rng):
    stack = rng.normal(size=(3, 4, 4))
    got = neg.partial_transpose(stack, 2)
    for k in range(3):
        assert np.allclose(got[k], neg.partial_transpose(stack[k], 2))


# --- pointwise negativity ----------------------------------------------------


def test_negativity_of_bell_state():
    orders = np.stack([_bell(1.0), np.zeros((4, 4)), np.zeros((4, 4))])
    assert neg.negativity_at(orders, 0.01) == pytest.approx(0.5)


def test_negativity_of_separable_state_is_zero():
    orders = np.stack([_bell(0.0), np.zeros((4, 4)), np.zeros((4, 4))])
    assert neg.negativity_at(orders, 0.01) == 0.0


def test_werner_threshold():
    # entangled exactly above p = 1/3
    above = np.stack([_bell(0.4), np.zeros((4, 4)), np.zeros((4, 4))])
    below = np.stack([_bell(0.3), np.zeros((4, 4)), np.zeros((4, 4))])
    assert neg.negativity_at(above, 0.01) > 0.0
    assert neg.negativity_at(below, 0.01) == 0.0


def test_negativity_rejects_non_hermitian_input():
    orders = np.stack([_bell(1.0), np.zeros((4, 4)), np.zeros((4, 4))])
    orders[1][0, 1] = 1.0  # first-order drift with no conjugate partner
    with pytest.raises(InvariantViolation):
        neg.negativity_at(orders, 0.01)
    with pytest.raises(InvariantViolation, match="Hermitian"):
        neg.leading_order(orders)


# --- leading-order extraction -------------------------------------------------


def _coherence_orders(first: complex, second: complex) -> np.ndarray:
    """Vacuum-dominated 4x4 matrix with a tunable (0,0)<->(1,1) coherence."""
    orders = np.zeros((3, 4, 4), dtype=complex)
    orders[0, 0, 0] = 1.0
    orders[1, 0, 3] = first
    orders[1, 3, 0] = np.conj(first)
    orders[2, 0, 3] = second
    orders[2, 3, 0] = np.conj(second)
    orders[2, 3, 3] = abs(first) ** 2
    return orders


def test_leading_order_linear_coherence():
    # the transposed block [[0, h f + h^2 s], [c.c., 0]] has eigenvalue
    # -|h f + h^2 s|, here -(0.25 h + 0.1 h^2) exactly
    series = neg.leading_order(_coherence_orders(0.25j, 0.1j))
    assert np.allclose(series, [0.0, 0.25, 0.1], rtol=0.0, atol=1e-16)


def test_leading_order_quadratic_coherence():
    series = neg.leading_order(_coherence_orders(0.0, 0.4))
    assert np.allclose(series, [0.0, 0.0, 0.4], rtol=0.0, atol=1e-16)


def test_leading_order_zero_matrix():
    orders = np.zeros((3, 4, 4))
    orders[0, 0, 0] = 1.0
    assert np.array_equal(neg.leading_order(orders), np.zeros(3))


def test_leading_order_degenerate_negative_eigenvalues():
    # qutrit pair, |00> at h^0 with equal first-order coherences to |11> and
    # |22>: A's negative eigenvalue -0.2 is doubly degenerate, and a |01>,
    # |02> entry of B couples its two eigenvectors, which the trace over the
    # degenerate space leaves out
    orders = np.zeros((3, 9, 9), dtype=complex)
    orders[0, 0, 0] = 1.0
    for occupied in (4, 8):
        orders[1, 0, occupied] = orders[1, occupied, 0] = 0.2
    for population in (1, 2, 3, 6):
        orders[2, population, population] = 0.1
    orders[2, 1, 2] = 0.05j
    orders[2, 2, 1] = -0.05j
    series = neg.leading_order(orders)
    assert np.allclose(series, [0.0, 0.4, -0.2], rtol=0.0, atol=1e-15)
    # the finite-h negativity follows it up to an h^3 tail
    for h in (1e-3, 5e-4):
        got = neg.negativity_at(orders, h)
        assert abs(got - (0.4 * h - 0.2 * h**2)) < h**3


def test_leading_order_first_order_dust_reads_zero():
    # a 1e-13 coherence under FIRST_ORDER_FLOOR is dust, not a leading term,
    # and the populations keep the second-order block positive
    orders = _coherence_orders(1e-13, 0.0)
    orders[2, 1, 1] = 1.0
    orders[2, 2, 2] = 1.0
    assert np.array_equal(neg.leading_order(orders), np.zeros(3))


def test_leading_order_rejects_an_entangled_zeroth_order():
    orders = np.stack([_bell(1.0), np.zeros((4, 4)), np.zeros((4, 4))])
    with pytest.raises(InvariantViolation, match="not a product state"):
        neg.leading_order(orders)


def test_pt_block_branches():
    linear = neg._pt_block(0.3, 0.5, np.array([0.0, 0.2, 0.05]))
    assert linear[1] == pytest.approx(0.2)
    assert linear[2] == pytest.approx(0.05 - 0.4)
    quadratic = neg._pt_block(0.1, 0.3, np.array([0.0, 0.0, 0.4]))
    root = np.sqrt(0.25 * 0.04 + 0.16)
    assert quadratic[1] == 0.0
    assert quadratic[2] == pytest.approx(root - 0.2)
    closed = neg._pt_block(1.0, 1.0, np.array([0.0, 0.0, 0.1]))
    assert closed[2] == 0.0  # populations dominate, block stays positive


# --- closed forms against the numeric route ----------------------------------

U = 0.3  # the duration of the boson_trip and fermion_trip fixtures
H = (1e-2, 5e-3, 2.5e-3)


def test_boson_vacuum_closed_matches_numeric(boson_junction, boson_trip):
    series = neg.boson_vacuum_closed(neg.TripGrid(boson_junction, U), (1, 4))
    rho = states.reduce_to_pair(states.boson_vacuum_state(boson_trip, (1, 4)))
    for h in H:
        assert neg.negativity_at(rho, h) == pytest.approx(
            np.polynomial.polynomial.polyval(h, series), rel=1e-3
        )


def test_boson_vacuum_closed_same_parity_matches_numeric(boson_junction, boson_trip):
    series = neg.boson_vacuum_closed(neg.TripGrid(boson_junction, U), (1, 3))
    assert series[1] == 0.0
    rho = states.reduce_to_pair(states.boson_vacuum_state(boson_trip, (1, 3)))
    for h in H:
        assert neg.negativity_at(rho, h) == pytest.approx(
            np.polynomial.polynomial.polyval(h, series), rel=1e-3
        )


def test_fermion_vacuum_closed_matches_numeric(fermion_junction, fermion_trip):
    series = neg.fermion_vacuum_closed(neg.TripGrid(fermion_junction, U), (2, -1))
    rho = states.reduce_to_pair(states.fermion_vacuum_state(fermion_trip, (2, -1)))
    for h in H:
        assert neg.negativity_at(rho, h) == pytest.approx(
            np.polynomial.polynomial.polyval(h, series), rel=1e-3
        )


def test_fermion_vacuum_parity_zero_reads_zero_on_both_routes(fermion_junction, fermion_trip):
    # the first-order entry at omega_m = -omega_n is an exact zero that
    # carries about 1e-13 of extraction dust; both routes read the curve as
    # zero, the numeric one to rounding of |rho_k|
    closed = neg.fermion_vacuum_closed(neg.TripGrid(fermion_junction, U), (8, -9))
    assert np.array_equal(closed, np.zeros(3))
    rho = states.reduce_to_pair(states.fermion_vacuum_state(fermion_trip, (8, -9)))
    numeric = neg.leading_order(rho)
    assert numeric[1] == 0.0
    assert np.all(np.abs(numeric) <= np.finfo(float).eps * np.linalg.norm(rho, axis=(1, 2)))


def test_fermion_vacuum_closed_rejects_same_charge(fermion_junction):
    with pytest.raises(ValueError):
        neg.fermion_vacuum_closed(neg.TripGrid(fermion_junction, U), (1, 2))


def test_fermion_particle_closed_pauli_zero(fermion_junction):
    # an opposite-charge partner is Pauli blocked: the form rejects it, and
    # the curve's series, which evaluates no form for it, is exactly zero
    trip = neg.TripGrid(fermion_junction, U)
    with pytest.raises(ValueError):
        neg.fermion_particle_closed(trip, 1, (1, -2))
    with pytest.warns(UserWarning, match="Pauli"):
        curve = CurveSpec("c", "fermion", "one-particle", (1, -2), 1)
    assert np.array_equal(curve.series(trip), np.zeros(3))


def test_fermion_particle_closed_requires_membership(fermion_junction):
    with pytest.raises(ValueError):
        neg.fermion_particle_closed(neg.TripGrid(fermion_junction, U), 3, (1, 4))


# --- the closed route's pieces against the states building blocks ------------


# pieces that parity cancels to ~1e-8 still carry the rounding of their O(1)
# terms, a few 1e-18; the absolute floor covers that with a wide margin
PIECE_FLOOR = 1e-15


def _close(got, want, scale=0.0):
    """Equal within 1e-13 of the piece's largest magnitude or of ``scale``
    (or PIECE_FLOOR)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    bound = max(1e-13 * max(np.max(np.abs(want)), scale), PIECE_FLOOR)
    assert np.max(np.abs(got - want)) <= bound


def _term_scale(first, second, mask=True):
    """The largest term of a mode sum multiplied out, max_m |first| |second|
    with each line bounded by its terms: the scale of its rounding, which the
    elementwise sum does not show where the lines cancel (near integer u)."""
    def bound(line):
        return sum(np.abs(c)[..., None] * np.abs(w) for c, w, _ in line)
    return float(np.max(bound(first) * bound(second) * mask))


@settings(max_examples=25, deadline=None)
@given(
    u=st.floats(0.0, 1.0),
    labels=st.lists(st.integers(1, 40), min_size=2, max_size=2, unique=True),
)
def test_boson_pieces_match_the_states_blocks(boson_junction, u, labels):
    k, kp = labels
    i, l = k - 1, kp - 1
    trip = blocks.one_way_trip("boson", 40, u)
    v = states.boson_pair_matrix(trip)
    d = states.boson_source_matrix(trip, v)
    pieces = neg.BosonPieces(neg.TripGrid(boson_junction, u), k, kp)
    rest = pieces.rest
    # the label entries, with the hop and source sums in their second orders
    _close(pieces.v, v[:, i, l])
    sources = pieces.sources()
    _close(sources, d[:, [i, l], i])
    # the weights and the overlap of the one-particle block, off the labels
    for x, row in enumerate((i, l)):
        line = pieces.pair_row(x)
        _close(pieces.overlap(line, rest), np.sum(np.abs(v[1][row, rest]) ** 2),
               _term_scale(line, line, rest))
    line = pieces.col(0)
    _close(pieces.overlap(line, rest), np.sum(np.abs(d[1][rest, i]) ** 2),
           _term_scale(line, line, rest))
    _close(pieces.overlap(neg._conj(line), rest, pieces.pair_row(0)),
           np.sum(d[1][rest, i] * np.conj(v[1][i, rest])), _term_scale(line, pieces.pair_row(0)))
    # the closed forms drop the vacuum norm factor because these vanish at h^0
    assert pieces.v[0] == 0.0 and sources[0][..., 1] == 0.0


@settings(max_examples=25, deadline=None)
@given(
    u=st.floats(0.0, 1.0),
    labels=st.lists(st.integers(-40, 39), min_size=2, max_size=2, unique=True),
)
def test_fermion_pieces_match_the_states_blocks(fermion_junction, u, labels):
    # particle labels index the pair matrix's rows and the particle source,
    # antiparticle labels its columns and the antiparticle source
    trip = blocks.one_way_trip("fermion", 40, u)
    v = states.fermion_pair_matrix(trip)
    sources = {True: states.fermion_particle_source(trip, v),
               False: states.fermion_antiparticle_source(trip, v)}
    pieces = neg.FermionPieces(neg.TripGrid(fermion_junction, u), labels)
    part = pieces.part

    def index(m):
        return m if m >= 0 else m + 40

    # the closed forms drop the vacuum norm factor because these vanish at h^0
    assert pieces.source(0, 1)[0] == 0.0 and pieces.source(1, 0)[0] == 0.0
    for x, m in enumerate(labels):
        # every weight is |T1[m, x]|^2 or |T1[x, m]|^2 over a charge
        col, row = pieces.col(x), pieces.col(x, row=True)
        if m >= 0:
            _close(pieces.overlap(col, ~part), np.sum(np.abs(v[1][index(m)]) ** 2),
                   _term_scale(col, col))
        else:
            _close(pieces.overlap(row, part), np.sum(np.abs(v[1][:, index(m)]) ** 2),
                   _term_scale(row, row))
        own = sources[m >= 0]
        mine = part if m >= 0 else ~part
        _close(pieces.overlap(col, mine), np.sum(np.abs(own[1][:, index(m)]) ** 2),
               _term_scale(col, col))
        for y, o in enumerate(labels):
            if (o >= 0) == (m >= 0):
                # the source's h^2 reads the trip's a2 entry, a sum over every
                # mode, and a sum over one charge, of terms up to this scale
                _close(pieces.source(x, y), own[:, index(o), index(m)],
                       _term_scale(col, pieces.col(y)))
    if (labels[0] >= 0) != (labels[1] >= 0):
        xp = 0 if labels[0] >= 0 else 1
        kappa, kappa_p = labels[xp], labels[1 - xp]
        _close(pieces.v(xp, 1 - xp), v[:, index(kappa), index(kappa_p)])
        _close(pieces.pair_scalar(xp, 1 - xp),
               states.fermion_pair_scalar(trip, sources[False], kappa, kappa_p))
        assert pieces.v(xp, 1 - xp)[0] == 0.0 and pieces.pair_scalar(xp, 1 - xp)[0] == 0.0


# --- every sum the pieces read against the composed trip's rows --------------
#
# Each line constructor and each second-order label entry of the pieces is
# spied on: a line gets its elementwise values from the rows of
# blocks.one_way_trip, and every sum over the free mode (_mode_sum) is held
# against the elementwise sum of those rows, within 1e-13 of its largest
# multiplied-out term.


def _trip_lines(trip, g):
    """The elementwise lines, by constructor name, at a storage position i."""
    a1 = trip.a[1] if hasattr(trip, "a") else trip.alpha[1]
    if hasattr(trip, "a"):
        return {"col": lambda i, row=False: a1[..., i, :] if row else a1[..., :, i]}
    b1 = trip.beta[1]
    return {
        "beta_row": lambda i: b1[..., i, :],
        "col": lambda i, row=False: a1[..., i, :] if row else a1[..., :, i],
        "beta_col": lambda i: b1[..., :, i],
        # V1[x, m] = -1/2 conj(beta1[x, m] g_m + beta1[m, x] g_x)
        "pair_row": lambda i: -0.5 * np.conj(b1[..., i, :] * g + b1[..., :, i] * g[..., i, None]),
    }


def _closed_form(family, labels):
    a, b = labels
    return {
        "boson vacuum": lambda t: neg.boson_vacuum_closed(t, (a, b)),
        "boson one-particle": lambda t: neg.boson_particle_closed(t, a, (a, b)),
        "fermion vacuum": lambda t: neg.fermion_vacuum_closed(t, (a, b)),
        "fermion one-particle": lambda t: neg.fermion_particle_closed(t, a, (a, b)),
        "fermion pair": lambda t: neg.fermion_pair_closed(t, a, b),
    }[family]


@st.composite
def closed_cases(draw):
    """A family, labels in the interior window at n_max 40 that it accepts, and u."""
    family = draw(st.sampled_from(["boson vacuum", "boson one-particle", "fermion vacuum",
                                   "fermion one-particle", "fermion pair"]))
    if family.startswith("boson"):
        labels = draw(st.lists(st.integers(1, 20), min_size=2, max_size=2, unique=True))
    elif family == "fermion one-particle":
        side = draw(st.sampled_from([(0, 19), (-20, -1)]))
        labels = draw(st.lists(st.integers(*side), min_size=2, max_size=2, unique=True))
    else:
        labels = [draw(st.integers(0, 19)), draw(st.integers(-20, -1))]
    us = draw(st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=8))
    rephasing = draw(st.one_of(st.none(), st.integers(0, 2**32 - 1)))
    return family, labels, np.array(us), rephasing


def _rephased(t, seed):
    """t with every mode rephased by d: D T D^+ (boson beta: D beta D).  On a
    junction this makes its blocks complex, and on a trip it gives the trip
    of the rephased junction."""
    d = np.exp(1j * np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, t.modes.size))
    if hasattr(t, "a"):
        return type(t)(d[:, None] * t.a * np.conj(d), t.modes)
    return type(t)(d[:, None] * t.alpha * np.conj(d), d[:, None] * t.beta * d, t.modes)


@settings(max_examples=60, deadline=None)
@given(case=closed_cases())
def test_every_sum_the_pieces_read_matches_the_trip_rows(case):
    # the closed route reads the junction as it is stored: a rephased one,
    # whose blocks are complex, must give the rows of the rephased trip
    family, labels, us, rephasing = case
    species = family.split()[0]
    j = blocks.junction(species, 40)
    trip = blocks.one_way_trip(species, 40, us)
    if rephasing is not None:
        j, trip = _rephased(j, rephasing), _rephased(trip, rephasing)
    grid = neg.TripGrid(j, us)
    lines = _trip_lines(trip, grid.g)
    dense, sums = {}, []
    real_sum, real_conj = neg._mode_sum, neg._conj

    def constructor(name, method):
        def spied(self, x, **row):
            line = method(self, x, **row)
            dense[id(line)] = lines[name](self.at[x], **row)
            return line
        return spied

    def conj(line):
        out = real_conj(line)
        dense[id(out)] = np.conj(dense[id(line)])
        return out

    def mode_sum(g, first, second, mask=None, power=0):
        got = real_sum(g, first, second, mask, power)
        terms = dense[id(first)] * dense[id(second)] * (1.0 if mask is None else mask)
        terms = terms * {1: g, 0: 1.0, -1: np.conj(g)}[power]
        bound = 1e-13 * _term_scale(first, second, 1.0 if mask is None else mask)
        assert np.max(np.abs(got - np.sum(terms, axis=-1))) <= bound, (family, labels)
        sums.append(got)
        return got

    def second(self, x, y, beta=False):
        got = real_second(self, x, y, beta)
        order = trip.a if species == "fermion" else trip.beta if beta else trip.alpha
        scale = np.max(np.abs(j.a if species == "fermion" else j.beta if beta else j.alpha))
        want = order[2][..., self.at[x], self.at[y]]
        assert np.max(np.abs(got - want)) <= 1e-13 * scale, (family, labels)
        return got

    cls = neg.FermionPieces if species == "fermion" else neg.BosonPieces
    real_second = cls.second
    with pytest.MonkeyPatch.context() as mp:
        for name in lines:
            mp.setattr(cls, name, constructor(name, getattr(cls, name)))
        mp.setattr(cls, "second", second)
        mp.setattr(neg, "_conj", conj)
        mp.setattr(neg, "_mode_sum", mode_sum)
        _closed_form(family, labels)(grid)
    assert sums, family


# --- first orders alone ------------------------------------------------------
#
# A sweep reads a power-1 curve's rows from CurveSpec.series on a
# FirstOrderGrid: label phases and junction entries, order stacks that stop
# at h^1, no phase table.  Its orders h^0 and h^1 must be the whole closed
# series' to the last bit, for every family and every junction the closed
# route accepts.


@st.composite
def first_order_cases(draw):
    """A curve on labels in the interior window at n_max 40 (vanishing ones
    included), a junction builder, an optional rephasing, and u."""
    family = draw(st.sampled_from(["boson vacuum", "boson one-particle", "fermion vacuum",
                                   "fermion one-particle", "fermion pair"]))
    species, state = family.split()
    if species == "boson":
        labels = draw(st.lists(st.integers(1, 20), min_size=2, max_size=2, unique=True))
    elif state == "pair":
        labels = [draw(st.integers(0, 19)), draw(st.integers(-20, -1))]
    else:
        labels = draw(st.lists(st.integers(-20, 19), min_size=2, max_size=2, unique=True))
    excite = draw(st.sampled_from(labels)) if state == "one-particle" else None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the curves that vanish identically warn
        curve = CurveSpec("c", species, state, tuple(labels), excite)
    build = draw(st.sampled_from([blocks.junction, blocks.table_junction]))
    us = draw(st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=8))
    rephasing = draw(st.one_of(st.none(), st.integers(0, 2**32 - 1)))
    return curve, build, np.array(us), rephasing


@settings(max_examples=80, deadline=None)
@given(case=first_order_cases())
def test_first_order_is_the_closed_series_h1_to_the_bit(case):
    curve, build, us, rephasing = case
    j = build(curve.species, 40)
    if rephasing is not None:
        j = _rephased(j, rephasing)
    first = neg.FirstOrderGrid(j, us)
    got = curve.series(first)
    assert "g" not in vars(first), "the first order formed the phase table"
    assert got.shape == us.shape + (2,)
    assert np.array_equal(got, curve.series(neg.TripGrid(j, us))[..., :2]), (curve, rephasing)


def _permuted(j, seed):
    """j with its labels stored in a random order, rows and columns alike."""
    p = np.random.default_rng(seed).permutation(j.modes.size)
    if hasattr(j, "a"):
        return type(j)(j.a[:, p][:, :, p], j.modes[p])
    return type(j)(j.alpha[:, p][:, :, p], j.beta[:, p][:, :, p], j.modes[p])


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(31, 118),
    us=st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=40),
    seed=st.integers(0, 2**32 - 1),
)
def test_phase_tables_are_the_direct_phases_to_the_bit(n, us, seed):
    # the fermion table reads label -1 - kappa's phase off kappa's, by stored
    # label in any storage order, and a table at n sliced from one at 2 n is
    # the table at n
    for species in ("boson", "fermion"):
        fine = neg.TripGrid(blocks.build_table_junction(species, 2 * n), us)
        coarse = fine.coarse(blocks.build_table_junction(species, n))
        permuted = neg.TripGrid(_permuted(blocks.build_table_junction(species, n), seed), us)
        for trip in (fine, coarse, permuted):
            direct = blocks.free_phases(species, trip.j.modes, us)
            assert np.array_equal(trip.g.view(float), direct.view(float))
        # a gathered table keeps the direct one's C order, and so the
        # summation order of every g @ w
        assert permuted.g.flags.c_contiguous


def test_coarse_grid_needs_a_run_of_the_fine_labels():
    us = np.linspace(0.0, 1.0, 5)
    for species in ("boson", "fermion"):
        fine_j, j = blocks.table_junction(species, 62), blocks.table_junction(species, 31)
        with pytest.raises(ValueError, match="not a run"):
            neg.TripGrid(fine_j, us).coarse(_permuted(j, 1))
        with pytest.raises(ValueError, match="not a run"):
            neg.TripGrid(_permuted(fine_j, 1), us).coarse(j)
        with pytest.raises(ValueError, match="not a run"):
            neg.TripGrid(j, us).coarse(fine_j)


# --- the tables read at their labels ---------------------------------------------
#
# A sweep's 2 n_max refinement reads the junction tables through a
# blocks.TableCutoff, on which the pieces evaluate blocks.table_blocks at
# their two labels alone, and only what the closed route reads: the h^1 lines
# and the h^2 entries between the labels on a TripGrid, the h^1 entries on a
# FirstOrderGrid.  Every value read there, and so every series, must be the
# dense tables' to the last bit, at any cutoff a sweep or check reaches.


@st.composite
def table_cases(draw):
    """A curve of any family (vanishing ones included) on any two labels of a
    cutoff from 31 to 236, and u."""
    n = draw(st.integers(31, 236))
    family = draw(st.sampled_from(["boson vacuum", "boson one-particle", "fermion vacuum",
                                   "fermion one-particle", "fermion pair"]))
    species, state = family.split()
    if state == "pair":
        labels = [draw(st.integers(0, n - 1)), draw(st.integers(-n, -1))]
    else:
        modes = st.sampled_from(blocks.species_modes(species, n).tolist())
        labels = draw(st.lists(modes, min_size=2, max_size=2, unique=True))
    excite = draw(st.sampled_from(labels)) if state == "one-particle" else None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the curves that vanish identically warn
        curve = CurveSpec("c", species, state, tuple(labels), excite)
    us = draw(st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=8))
    return curve, n, np.array(us)


@settings(max_examples=60, deadline=None)
@given(case=table_cases())
def test_table_lines_are_the_dense_tables_to_the_bit(case):
    curve, n, us = case
    dense, cutoff = blocks.build_table_junction(curve.species, n), blocks.TableCutoff(curve.species, n)
    at = [int(np.flatnonzero(dense.modes == m)[0]) for m in curve.modes]
    stacks = (dense.alpha, dense.beta) if curve.species == "boson" else (dense.a,)
    # the closed route reads blocks in pairs: an h^1 block's lines, then the
    # h^2 block's (2, 2) entries between the labels
    read, sliced = neg._lines(cutoff, at), neg._lines(dense, at)
    for x_stack, lines, entries, ref in zip(stacks, read[::2], read[1::2], sliced[::2]):
        for x, i in enumerate(at):
            assert np.array_equal(lines.cols[x], x_stack[1][:, i])
            assert np.array_equal(lines.rows[x], x_stack[1][i])
            # numpy's dot rounds a strided line differently from a contiguous one
            assert not lines.cols[x].flags.c_contiguous and not ref.cols[x].flags.c_contiguous
            assert lines.rows[x].flags.c_contiguous and ref.rows[x].flags.c_contiguous
        assert np.array_equal(entries, x_stack[2][np.ix_(at, at)])
    # on a first-order grid, each h^1 line is its two entries at the labels
    for first in (neg._lines(cutoff, at, first_only=True), neg._lines(dense, at, first_only=True)):
        assert first[1::2] == [None] * len(stacks)
        for x_stack, lines in zip(stacks, first[::2]):
            block = x_stack[1][np.ix_(at, at)]
            assert all(np.array_equal(lines.cols[x], block[:, x]) for x in (0, 1))
            assert all(np.array_equal(lines.rows[x], block[x]) for x in (0, 1))
    for grid in (neg.TripGrid, neg.FirstOrderGrid):
        got = sweep.curve_series([curve], {curve.species: grid(cutoff, us)})
        want = sweep.curve_series([curve], {curve.species: grid(dense, us)})
        assert np.array_equal(got, want), (curve, n, grid.__name__)


@pytest.mark.parametrize("species, labels", [("boson", (1, 4)), ("fermion", (2, -1))])
def test_table_cutoff_evaluates_only_what_the_closed_route_reads(monkeypatch, species, labels):
    # (order, shape) of every table evaluation: no h^0 anywhere, the h^1
    # columns and rows (2, n, 2) and the h^2 entries (2, 2) on a TripGrid,
    # and only the h^1 entries (2, 2) on a FirstOrderGrid
    calls, table_blocks = [], blocks.table_blocks

    def recorded(species, order, m, n):
        out = table_blocks(species, order, m, n)
        calls.append((order, out[0].shape))
        return out

    monkeypatch.setattr(blocks, "table_blocks", recorded)
    cutoff = blocks.TableCutoff(species, 80)
    size = cutoff.modes.size
    for grid, want in ((neg.TripGrid, [(1, (2, size, 2)), (2, (2, 2))]),
                       (neg.FirstOrderGrid, [(1, (2, 2))])):
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            curve = CurveSpec("c", species, "vacuum", labels)
        curve.series(grid(cutoff, np.linspace(0.0, 1.0, 5)))
        assert calls == want, grid.__name__


# h^0 and h^1 read junction entries and phases at the labels alone; h^2's
# mode sums run over the modes in their stored order and move by rounding,
# at most 1.4e-14 (3e-16 of the curve's largest |h^2|) in 400 draws, so the
# bound is 1e-13 of the larger of 1 and that largest |h^2|
PERMUTED_H2_TOL = 1e-13


@settings(max_examples=40, deadline=None)
@example(case=("fermion pair", [2, -1], np.linspace(0.0, 1.0, 9), None), seed=1)
@example(case=("fermion vacuum", [2, -1], np.linspace(0.0, 1.0, 9), None), seed=1)
@given(case=closed_cases(), seed=st.integers(0, 2**32 - 1))
def test_closed_forms_read_a_junction_in_any_storage_order(case, seed):
    family, labels, us, _ = case
    j = blocks.table_junction(family.split()[0], 40)
    closed = _closed_form(family, labels)
    stored, permuted = closed(neg.TripGrid(j, us)), closed(neg.TripGrid(_permuted(j, seed), us))
    assert np.array_equal(permuted[..., :2], stored[..., :2]), family
    bound = PERMUTED_H2_TOL * max(1.0, float(np.max(np.abs(stored[..., 2]))))
    assert np.max(np.abs(permuted[..., 2] - stored[..., 2])) <= bound, family


# --- the paper's first-order forms -----------------------------------------------
#
# Each curve family of the linear panel has a one-line h^1 coefficient in the
# junction's first-order tables (arXiv 1201.0549); it shares no code with the
# closed series.  Labels differ by an odd number, where the first-order
# entries are not parity zeros.


@pytest.fixture(scope="module")
def tables():
    return {s: blocks.table_junction(s, 40) for s in ("boson", "fermion")}


def _assert_first_order(curve, j, u, form, top):
    # a coherence under the first-order floor counts as a parity zero, and the
    # curve opens at h^2 there (near the zeros of the sines)
    want = form if form > neg.FIRST_ORDER_FLOOR else 0.0
    assert abs(curve.series(neg.TripGrid(j, u))[1] - want) < 1e-12 * top


@settings(max_examples=50, deadline=None)
@given(u=st.floats(0.0, 1.0), k=st.integers(1, 20), kp=st.integers(1, 20), particle=st.booleans())
def test_boson_first_order_curves_are_the_papers_forms(tables, u, k, kp, particle):
    assume((k - kp) % 2)
    j = tables["boson"]
    a1, b1 = abs(j.alpha[1, k - 1, kp - 1]), abs(j.beta[1, k - 1, kp - 1])
    s_minus, s_plus = np.sin(np.pi * (k - kp) * u), np.sin(np.pi * (k + kp) * u)
    if particle:
        curve = CurveSpec("c", "boson", "one-particle", (k, kp), k)
        form = 2 * np.sqrt(a1**2 * s_minus**2 + 2 * b1**2 * s_plus**2)
        top = 2 * np.sqrt(a1**2 + 2 * b1**2)
    else:
        curve = CurveSpec("c", "boson", "vacuum", (k, kp))
        form, top = 2 * b1 * abs(s_plus), 2 * b1
    _assert_first_order(curve, j, u, form, top)


@settings(max_examples=50, deadline=None)
@given(u=st.floats(0.0, 1.0), k=st.integers(-20, 19), kp=st.integers(-20, 19), first=st.booleans())
def test_fermion_first_order_curves_are_the_papers_forms(tables, u, k, kp, first):
    # opposite charges make a vacuum curve, equal charges a one-particle curve
    # (either label excited); at omega_k = -omega_k' the a1 entry is an exact
    # zero and the curve opens at h^2
    assume((k - kp) % 2 and k + kp != -1)
    j = tables["fermion"]
    if (k >= 0) != (kp >= 0):
        curve = CurveSpec("c", "fermion", "vacuum", (k, kp))
    else:
        curve = CurveSpec("c", "fermion", "one-particle", (k, kp), k if first else kp)
    top = 2 * abs(j.a[1, k + 40, kp + 40])
    _assert_first_order(curve, j, u, top * abs(np.sin(np.pi * (k - kp) * u)), top)
