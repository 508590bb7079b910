"""Partial transpose, the numeric route's series and the closed-form routes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityent import blocks, states
from cavityent import negativity as neg
from cavityent.bogoliubov import InvariantViolation


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
    series = neg.boson_vacuum_closed(boson_junction, U, (1, 4))
    rho = states.reduce_to_pair(states.boson_vacuum_state(boson_trip, (1, 4)))
    for h in H:
        assert neg.negativity_at(rho, h) == pytest.approx(
            np.polynomial.polynomial.polyval(h, series), rel=1e-3
        )


def test_boson_vacuum_closed_same_parity_matches_numeric(boson_junction, boson_trip):
    series = neg.boson_vacuum_closed(boson_junction, U, (1, 3))
    assert series[1] == 0.0
    rho = states.reduce_to_pair(states.boson_vacuum_state(boson_trip, (1, 3)))
    for h in H:
        assert neg.negativity_at(rho, h) == pytest.approx(
            np.polynomial.polynomial.polyval(h, series), rel=1e-3
        )


def test_fermion_vacuum_closed_matches_numeric(fermion_junction, fermion_trip):
    series = neg.fermion_vacuum_closed(fermion_junction, U, (2, -1))
    rho = states.reduce_to_pair(states.fermion_vacuum_state(fermion_trip, (2, -1)))
    for h in H:
        assert neg.negativity_at(rho, h) == pytest.approx(
            np.polynomial.polynomial.polyval(h, series), rel=1e-3
        )


def test_fermion_vacuum_parity_zero_reads_zero_on_both_routes(fermion_junction, fermion_trip):
    # the first-order entry at omega_m = -omega_n is an exact zero that
    # carries about 1e-13 of extraction dust; both routes read the curve as
    # zero, the numeric one to rounding of |rho_k|
    closed = neg.fermion_vacuum_closed(fermion_junction, U, (8, -9))
    assert np.array_equal(closed, np.zeros(3))
    rho = states.reduce_to_pair(states.fermion_vacuum_state(fermion_trip, (8, -9)))
    numeric = neg.leading_order(rho)
    assert numeric[1] == 0.0
    assert np.all(np.abs(numeric) <= np.finfo(float).eps * np.linalg.norm(rho, axis=(1, 2)))


def test_fermion_vacuum_closed_rejects_same_charge(fermion_junction):
    with pytest.raises(ValueError):
        neg.fermion_vacuum_closed(fermion_junction, U, (1, 2))


def test_fermion_particle_closed_pauli_zero(fermion_junction):
    series = neg.fermion_particle_closed(fermion_junction, U, 1, (1, -2))
    assert np.array_equal(series, np.zeros(3))


def test_fermion_particle_closed_requires_membership(fermion_junction):
    with pytest.raises(ValueError):
        neg.fermion_particle_closed(fermion_junction, U, 3, (1, 4))


# --- the closed route's pieces against the states building blocks ------------


# pieces that parity cancels to ~1e-8 still carry the rounding of their O(1)
# terms, a few 1e-18; the absolute floor covers that with a wide margin
PIECE_FLOOR = 1e-15


def _close(got, want):
    """Equal within 1e-13 of the piece's largest magnitude (or PIECE_FLOOR)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= max(1e-13 * np.max(np.abs(want)), PIECE_FLOOR)


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
    pieces = neg.BosonPieces(boson_junction, u, k, kp)
    _close(pieces.v1, v[1][[i, l]])
    _close(pieces.v, v[:, i, l])
    _close(pieces.d, d[:, [i, l], i])
    _close(pieces.d1, d[1][:, i])
    _close(pieces.norm, states.boson_norm_factor(v))


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
    pieces = neg.FermionPieces(fermion_junction, u, labels)
    part = pieces.part

    def index(m):
        return m if m >= 0 else m + 40

    _close(pieces.norm(), states.fermion_norm_factor(v))
    for x, m in enumerate(labels):
        if m >= 0:
            _close(pieces.v1_row(x)[~part], v[1][index(m)])
        else:
            _close(pieces.v1_col(x)[part], v[1][:, index(m)])
        own = sources[m >= 0]
        _close(pieces.source1(x)[part if m >= 0 else ~part], own[1][:, index(m)])
        for y, o in enumerate(labels):
            if (o >= 0) == (m >= 0):
                _close(pieces.source(x, y), own[:, index(o), index(m)])
    if (labels[0] >= 0) != (labels[1] >= 0):
        xp = 0 if labels[0] >= 0 else 1
        kappa, kappa_p = labels[xp], labels[1 - xp]
        _close(pieces.v(xp, 1 - xp), v[:, index(kappa), index(kappa_p)])
        _close(pieces.pair_scalar(xp, 1 - xp),
               states.fermion_pair_scalar(trip, sources[False], kappa, kappa_p))
