"""Travelled-state expansions cross-checked against brute-force Fock vectors.

The reference pipeline works at a small mode count where exact finite-h
overlap matrices can be chained numerically and the travelled vacuum can be
solved for in a truncated Fock space.  Every amplitude of the series
expansion has to agree with the brute-force vector to O(h^3), i.e. to well
below 10 h^3 at h = 0.01.  The batched generations are also held against a
per-key loop, and the numeric route against the closed forms and its own
symmetries over random u and labels.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityent import blocks, negativity, oracles, states, sweep
from cavityent.series import N_ORDERS

import fock
from expansions import amplitudes, expansion, norm_orders, per_key_expansion

U = 0.3
H = 0.01
TOL = 10 * H**3

polyval = np.polynomial.polynomial.polyval


def _gauge(vec):
    """Unit norm, largest amplitude rotated onto the positive real axis."""
    vec = vec / np.linalg.norm(vec)
    k = int(np.argmax(np.abs(vec)))
    return vec * np.exp(-1j * np.angle(vec[k]))


# --- bosonic references ----------------------------------------------------


@pytest.fixture(scope="module")
def boson_reference(composed_trip):
    nw = 8
    modes = np.arange(1, nw + 1)
    aj, bj = oracles.boson_overlaps(H, nw)
    phases = np.diag(np.exp(-2j * np.pi * modes * U))
    a_tot = aj.T @ phases @ aj - bj.T @ phases.conj() @ bj
    b_tot = aj.T @ phases @ bj - bj.T @ phases.conj() @ aj
    window = fock.BosonFockWindow(tuple(modes))
    vacuum, residual = fock.boson_travelled_vacuum(window, a_tot, b_tot)
    assert residual < 1e-5
    trip = composed_trip("boson", nw, U)
    return modes, window, a_tot, b_tot, vacuum, trip


def _boson_series_vector(state, modes, basis):
    amps = amplitudes(state)
    zero = np.zeros(N_ORDERS)
    out = np.zeros(len(basis), dtype=complex)
    for i, occ in enumerate(basis):
        key = tuple(m for m, o in zip(modes, occ) for _ in range(o))
        out[i] = polyval(H, amps.get(key, zero))
    return out


def test_boson_vacuum_matches_fock_reference(boson_reference):
    modes, window, _, _, vacuum, trip = boson_reference
    state = states.boson_vacuum_state(trip, (1, 4), full_second_order=True)
    got = _gauge(_boson_series_vector(state, modes, window.domain))
    want = _gauge(vacuum)
    assert np.max(np.abs(got - want)) < TOL


def test_boson_particle_matches_fock_reference(boson_reference):
    modes, window, a_tot, b_tot, vacuum, trip = boson_reference
    excited = fock.boson_apply_pre_travel_creation(window, a_tot, b_tot, 0, vacuum)
    state = states.boson_particle_state(trip, 1, (1, 4), full_second_order=True)
    got = _gauge(_boson_series_vector(state, modes, window.image))
    want = _gauge(excited)
    assert np.max(np.abs(got - want)) < TOL


# --- fermionic references --------------------------------------------------


@pytest.fixture(scope="module")
def fermion_reference(composed_trip):
    nf = 6
    kappas = np.arange(-nf, nf)
    aj = oracles.fermion_overlaps(H, nf)
    phases = np.diag(np.exp(-2j * np.pi * (kappas + 0.5) * U))
    a_tot = aj.T @ phases @ aj
    window = fock.FermionFockWindow(tuple(kappas))
    vacuum, residual = fock.fermion_travelled_vacuum(window, a_tot)
    assert residual < 1e-5
    trip = composed_trip("fermion", nf, U)
    return kappas, window, a_tot, vacuum, trip


def _fermion_series_vector(state, window):
    out = np.zeros(2 ** len(window.kappas), dtype=complex)
    for key, amp in amplitudes(state).items():
        out[window.index(key)] = polyval(H, amp)
    return out


def test_fermion_vacuum_matches_fock_reference(fermion_reference):
    _, window, _, vacuum, trip = fermion_reference
    state = states.fermion_vacuum_state(trip, (1, -2), full_second_order=True)
    got = _gauge(_fermion_series_vector(state, window))
    assert np.max(np.abs(got - _gauge(vacuum))) < TOL


@pytest.mark.parametrize("kappa", [1, -1])
def test_fermion_particle_matches_fock_reference(fermion_reference, kappa):
    kappas, window, a_tot, vacuum, trip = fermion_reference
    col = int(np.flatnonzero(kappas == kappa)[0])
    excited = fock.fermion_apply_pre_travel_creation(window, a_tot, col, vacuum)
    state = states.fermion_particle_state(trip, kappa, (1, -2), full_second_order=True)
    got = _gauge(_fermion_series_vector(state, window))
    assert np.max(np.abs(got - _gauge(excited))) < TOL


def test_fermion_pair_matches_fock_reference(fermion_reference):
    kappas, window, a_tot, vacuum, trip = fermion_reference
    cols = {k: int(np.flatnonzero(kappas == k)[0]) for k in (1, -2)}
    staged = fock.fermion_apply_pre_travel_creation(window, a_tot, cols[-2], vacuum)
    excited = fock.fermion_apply_pre_travel_creation(window, a_tot, cols[1], staged)
    state = states.fermion_pair_state(trip, 1, -2, (1, -2), full_second_order=True)
    got = _gauge(_fermion_series_vector(state, window))
    assert np.max(np.abs(got - _gauge(excited))) < TOL


# --- normalisation and reduction -------------------------------------------


def test_norm_orders_stay_normalised(boson_trip, fermion_trip):
    expansions = [
        states.boson_vacuum_state(boson_trip, (1, 4)),
        states.boson_particle_state(boson_trip, 1, (1, 4)),
        states.fermion_vacuum_state(fermion_trip, (2, -1)),
        states.fermion_particle_state(fermion_trip, 1, (1, 4)),
        states.fermion_pair_state(fermion_trip, 2, -1, (2, -1)),
    ]
    for state in expansions:
        n = norm_orders(state)
        assert n[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(n[1]) < 1e-12
        assert abs(n[2]) < 1e-3  # truncation tail only


def test_reduced_matrix_shape_and_hermiticity(boson_trip, fermion_trip):
    rho_b = states.reduce_to_pair(states.boson_vacuum_state(boson_trip, (1, 4)))
    assert rho_b.shape == (N_ORDERS, 16, 16)
    rho_f = states.reduce_to_pair(states.fermion_vacuum_state(fermion_trip, (2, -1)))
    assert rho_f.shape == (N_ORDERS, 4, 4)
    for rho in (rho_b, rho_f):
        for order in range(N_ORDERS):
            assert np.allclose(rho[order], rho[order].conj().T, atol=1e-14)
        assert rho[0, 0, 0] == pytest.approx(1.0)
        assert abs(np.trace(rho[1])) < 1e-12


def _assert_filter_matches_full(builders):
    for build in builders:
        full, cut = build(full_second_order=True), build()
        assert len(cut.keys) < len(full.keys)
        assert np.allclose(
            states.reduce_to_pair(cut), states.reduce_to_pair(full), atol=1e-15
        )


def _assert_vacuum_matches_per_key(state, norm, pairs):
    want = per_key_expansion({(): norm}, pairs, state.species == "fermion")
    got = amplitudes(state)
    assert set(got) == set(want)
    # the batched sums run in another order: a few ulps of the largest amplitude
    scale = max(np.max(np.abs(amp)) for amp in want.values())
    gap = max(np.max(np.abs(got[key] - want[key])) for key in want)
    assert gap <= 8 * np.finfo(float).eps * scale


@settings(max_examples=5, deadline=None)
@given(u=st.floats(0.05, 0.95))
def test_generation_filter_matches_full_expansion(composed_trip, u):
    trip = composed_trip("boson", 12, u)
    _assert_filter_matches_full([
        lambda **kw: states.boson_vacuum_state(trip, (1, 4), **kw),
        lambda **kw: states.boson_particle_state(trip, 1, (1, 4), **kw),
    ])
    # the per-key reference on a smaller window, where it is cheap
    small = composed_trip("boson", 8, u)
    v = states.boson_pair_matrix(small)
    labels = [int(m) for m in small.modes]
    pairs = [(p, q, v[:, i, j]) for i, p in enumerate(labels) for j, q in enumerate(labels) if j >= i]
    full = states.boson_vacuum_state(small, (1, 4), full_second_order=True)
    _assert_vacuum_matches_per_key(full, states.boson_norm_factor(v), pairs)


@settings(max_examples=5, deadline=None)
@given(u=st.floats(0.05, 0.95))
def test_generation_filter_matches_full_expansion_fermion(composed_trip, u):
    trip = composed_trip("fermion", 8, u)
    _assert_filter_matches_full([
        lambda **kw: states.fermion_vacuum_state(trip, (2, -1), **kw),
        lambda **kw: states.fermion_particle_state(trip, 1, (1, 4), **kw),
        lambda **kw: states.fermion_particle_state(trip, -2, (-2, 1), **kw),
        lambda **kw: states.fermion_pair_state(trip, 2, -1, (2, -1), **kw),
    ])
    small = composed_trip("fermion", 6, u)
    v = states.fermion_pair_matrix(small)
    labels = [int(m) for m in small.modes]
    part, anti = [m for m in labels if m >= 0], [m for m in labels if m < 0]
    pairs = [(p, q, v[:, i, j]) for i, p in enumerate(part) for j, q in enumerate(anti)]
    full = states.fermion_vacuum_state(small, (2, -1), full_second_order=True)
    _assert_vacuum_matches_per_key(full, states.fermion_norm_factor(v), pairs)


def test_check_states_key_counts(boson_trip, fermion_trip):
    # the five states of `cavityent check` at n_max 40, u = 0.3: the keys
    # the generation filter keeps
    counts = [
        len(states.boson_vacuum_state(boson_trip, (1, 4)).keys),
        len(states.boson_particle_state(boson_trip, 1, (1, 4)).keys),
        len(states.fermion_vacuum_state(fermion_trip, (2, -1)).keys),
        len(states.fermion_particle_state(fermion_trip, 1, (1, 4)).keys),
        len(states.fermion_pair_state(fermion_trip, 2, -1, (2, -1)).keys),
    ]
    assert counts == [822, 861, 1601, 1600, 2001]


def test_pair_state_rejects_wrong_charges(fermion_trip):
    with pytest.raises(ValueError):
        states.fermion_pair_state(fermion_trip, -1, -2, (1, -2))
    with pytest.raises(ValueError):
        states.fermion_pair_state(fermion_trip, 1, 2, (1, -2))


def test_reduce_indexing_convention():
    amps = {
        (): np.array([1.0, 0, 0], dtype=complex),
        (-1, 2): np.array([0, 0.5j, 0], dtype=complex),
    }
    rho = states.reduce_to_pair(expansion("fermion", (-1, 2), amps))
    # occupied pair sits at index occ_a * 2 + occ_b = 3
    assert rho[1][0, 3] == pytest.approx(-0.5j)
    assert rho[1][3, 0] == pytest.approx(0.5j)


def test_reduce_reordering_sign():
    amps = {
        (0,): np.array([1.0, 0, 0], dtype=complex),
        (-1, 0, 2): np.array([0, 0.5, 0], dtype=complex),
    }
    rho = states.reduce_to_pair(expansion("fermion", (-1, 2), amps))
    # pulling the observed labels past the occupied spectator costs one hop
    assert rho[1][0, 3] == pytest.approx(-0.5)


def test_reduce_drops_overfull_occupations():
    base = {(): np.array([1.0, 0, 0], dtype=complex)}
    with_overfull = dict(base)
    with_overfull[(1, 1, 1, 1)] = np.array([0, 0, 1.0], dtype=complex)
    lean = states.reduce_to_pair(expansion("boson", (1, 4), base))
    fat = states.reduce_to_pair(expansion("boson", (1, 4), with_overfull))
    assert np.array_equal(lean, fat)


def test_reduce_without_surviving_keys_is_zero():
    overfull = {(1, 1, 1, 1): np.array([0, 0, 1.0], dtype=complex)}
    for amps in ({}, overfull):
        rho = states.reduce_to_pair(expansion("boson", (1, 4), amps))
        assert rho.shape == (N_ORDERS, 16, 16) and rho.dtype == complex
        assert not rho.any()


# --- numeric-route properties ------------------------------------------------
#
# Curves of every family with labels up to n_max / 2.  Both routes are exact
# in each order, so they agree to rounding: the 256 ulps of each order's
# |rho_k|_F that `cavityent check` allows.
N_MAX = 40
ULPS = 256
EPS = np.finfo(float).eps


def _order_scale(curve, u, rho):
    """|rho_k|_F per order, at u or half a period on, whichever is larger.

    Near u = 0 (mod 1) the trip's junction products cancel to the truncation
    floor, so rho_k there is far smaller than the terms whose rounding both
    routes carry (about 8e3 ulps of |rho_2|_F at u = 0).  Half a period on
    they do not cancel.
    """
    half = _numeric_rho(curve, (u + 0.5) % 1.0)
    return np.maximum(np.linalg.norm(rho, axis=(1, 2)), np.linalg.norm(half, axis=(1, 2)))


@st.composite
def low_curves(draw, blocked=False):
    """Curves of every family with labels up to n_max / 2; with ``blocked``,
    only the Pauli-blocked fermion curves (an opposite-charge partner of a
    one-particle state, or a same-charge vacuum pair), otherwise none of
    them."""
    species = "fermion" if blocked else draw(st.sampled_from(["boson", "fermion"]))
    hi = N_MAX // 2
    lo = 1 if species == "boson" else -hi
    families = ("one-particle", "vacuum") if blocked else sweep.STATES
    state = draw(st.sampled_from(families if species == "fermion" else families[:2]))
    if state == "pair":
        # an even label difference is a parity zero at first order and holds
        # only the n_max^-3 truncation floor at second order (5e-8 at n_max
        # 40): the closed series reads it as zero, the numeric route does not
        kappa = draw(st.integers(0, hi))
        modes = (kappa, draw(st.integers(lo, -1).filter(lambda m: (kappa - m) % 2)))
    else:
        a = draw(st.integers(lo, hi))
        # a one-particle partner of the opposite charge is blocked, and so
        # is a vacuum pair of the same charge
        same = (state == "vacuum") == blocked
        b = draw(st.integers(lo, hi).filter(
            lambda m: m != a and (species == "boson" or ((m >= 0) == (a >= 0)) == same)
        ))
        modes = (a, b)
    excite = modes[0] if state == "one-particle" else None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # blocked curves warn
        return sweep.CurveSpec("c", species, state, modes, excite)


def _numeric_rho(curve, u):
    """Reduced-state orders of the curve's in-state after the trip at u."""
    trip = blocks.one_way_trip(curve.species, N_MAX, u)
    boson = curve.species == "boson"
    if curve.state == "vacuum":
        build = states.boson_vacuum_state if boson else states.fermion_vacuum_state
        state = build(trip, curve.modes)
    elif curve.state == "one-particle":
        build = states.boson_particle_state if boson else states.fermion_particle_state
        state = build(trip, curve.excite, curve.modes)
    else:
        state = states.fermion_pair_state(trip, max(curve.modes), min(curve.modes), curve.modes)
    return states.reduce_to_pair(state)


@settings(max_examples=10, deadline=None)
@given(curve=low_curves(), u=st.floats(0.0, 1.0))
def test_numeric_route_is_symmetric_about_half_a_period(curve, u):
    # the trip at 1 - u is the conjugate of the trip at u (up to the global
    # fermion sign), which no negativity sees; its phases 2 pi omega (1 - u)
    # carry a rounding of up to 2 pi n_max ulps, which every order inherits
    # in ulps of |rho_0|_F = 1 (worst seen: 114 ulps at n_max 40)
    series = negativity.leading_order(_numeric_rho(curve, u))
    mirror = negativity.leading_order(_numeric_rho(curve, 1.0 - u))
    assert np.max(np.abs(series - mirror)) <= ULPS * 2 * np.pi * N_MAX * EPS


@settings(max_examples=10, deadline=None)
@given(curve=low_curves(blocked=True), u=st.floats(0.0, 1.0))
def test_numeric_route_gives_pauli_blocked_curves_power_zero(curve, u):
    rho = _numeric_rho(curve, u)
    assert np.all(np.abs(negativity.leading_order(rho)) <= ULPS * EPS * _order_scale(curve, u, rho))


@settings(max_examples=15, deadline=None)
@given(curve=low_curves(), u=st.floats(0.0, 1.0))
def test_closed_and_numeric_leading_orders_agree(curve, u):
    closed = curve.series(blocks.junction(curve.species, N_MAX), u)
    rho = _numeric_rho(curve, u)
    gap = np.abs(negativity.leading_order(rho) - closed)
    assert np.all(gap <= ULPS * EPS * _order_scale(curve, u, rho))
