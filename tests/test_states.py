"""Travelled-state expansions cross-checked against brute-force Fock vectors.

The reference pipeline works at a small mode count where exact finite-h
overlap matrices can be chained numerically and the travelled vacuum can be
solved for in a truncated Fock space.  Every amplitude of the series
expansion has to agree with the brute-force vector to O(h^3), i.e. to well
below 10 h^3 at h = 0.01.
"""

import numpy as np
import pytest

from cavityent import fock, oracles, states
from cavityent.series import N_ORDERS

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
    out = np.zeros(len(basis), dtype=complex)
    for i, occ in enumerate(basis):
        key = tuple(m for m, o in zip(modes, occ) for _ in range(o))
        out[i] = polyval(H, state.amplitude(key))
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
    for key, amp in state.amps.items():
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
        n = state.norm_orders()
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


def test_generation_filter_matches_full_expansion(composed_trip):
    trip = composed_trip("boson", 12, U)
    full = states.boson_vacuum_state(trip, (1, 4), full_second_order=True)
    cut = states.boson_vacuum_state(trip, (1, 4))
    assert len(cut.amps) < len(full.amps)
    assert np.allclose(
        states.reduce_to_pair(cut), states.reduce_to_pair(full), atol=1e-15
    )


def test_generation_filter_matches_full_expansion_fermion(composed_trip):
    trip = composed_trip("fermion", 8, U)
    full = states.fermion_pair_state(trip, 2, -1, (2, -1), full_second_order=True)
    cut = states.fermion_pair_state(trip, 2, -1, (2, -1))
    assert len(cut.amps) < len(full.amps)
    assert np.allclose(
        states.reduce_to_pair(cut), states.reduce_to_pair(full), atol=1e-15
    )


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
    rho = states.reduce_to_pair(states.StateExpansion("fermion", (-1, 2), amps))
    # occupied pair sits at index occ_a * 2 + occ_b = 3
    assert rho[1][0, 3] == pytest.approx(-0.5j)
    assert rho[1][3, 0] == pytest.approx(0.5j)


def test_reduce_reordering_sign():
    amps = {
        (0,): np.array([1.0, 0, 0], dtype=complex),
        (-1, 0, 2): np.array([0, 0.5, 0], dtype=complex),
    }
    rho = states.reduce_to_pair(states.StateExpansion("fermion", (-1, 2), amps))
    # pulling the observed labels past the occupied spectator costs one hop
    assert rho[1][0, 3] == pytest.approx(-0.5)


def test_reduce_drops_overfull_occupations():
    base = {(): np.array([1.0, 0, 0], dtype=complex)}
    with_overfull = dict(base)
    with_overfull[(1, 1, 1, 1)] = np.array([0, 0, 1.0], dtype=complex)
    lean = states.reduce_to_pair(states.StateExpansion("boson", (1, 4), base))
    fat = states.reduce_to_pair(states.StateExpansion("boson", (1, 4), with_overfull))
    assert np.array_equal(lean, fat)


def test_reduce_without_surviving_keys_is_zero():
    overfull = {(1, 1, 1, 1): np.array([0, 0, 1.0], dtype=complex)}
    for amps in ({}, overfull):
        rho = states.reduce_to_pair(states.StateExpansion("boson", (1, 4), amps))
        assert rho.shape == (N_ORDERS, 16, 16) and rho.dtype == complex
        assert not rho.any()
