"""End-to-end acceptance checks, one test per release gate.

Each test exercises a full slice of the package against an independent
reference: quadrature overlap matrices, truncated-Fock state vectors, or
numeric partial-transpose spectra.  Tolerances are the shipped guarantees,
not the observed margins, so a regression that eats into the error budget
fails here before it reaches a figure.
"""

import dataclasses
import time

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from cavityent import blocks, config, negativity, oracles, states, sweep
from cavityent.bogoliubov import (
    GATE_TOL,
    H_REF,
    BosonBogoliubov,
    FermionBogoliubov,
    identity_residuals,
    weighted_residual,
    window_slice,
)

import fock
from expansions import amplitudes

U = 0.3
N_MAX = 40
STATE_TOL = 1e-5  # 10 h^3 at h = 0.01
CONVENTION_TOL = 1e-10
# finite accelerations at which the numeric negativity is compared directly
PROBE_H = (1e-2, 5e-3, 2.5e-3)


def _interior_mask(modes, species):
    lo, hi = blocks.interior_window(species, N_MAX)
    keep = (modes >= lo) & (modes <= hi)
    return np.ix_(keep, keep)


def test_overlap_matrices_satisfy_structural_identities():
    # the residual is the truncated mode tail: it grows as h^2 and falls as
    # n_max^-3.  `cavityent check` holds it to this law at H_REF; at n_max 40
    # it reads 0.36-0.39 (boson) and 0.45-0.48 (fermion) of it at every h
    start = time.perf_counter()
    boson = window_slice(blocks.boson_modes(N_MAX), blocks.interior_window("boson", N_MAX))
    fermion = window_slice(blocks.fermion_modes(N_MAX), blocks.interior_window("fermion", N_MAX))
    for h in (0.08, 0.04, 0.02, 0.01):
        law = 2e-8 * (h / H_REF) ** 2 * (40 / N_MAX) ** 3
        a, b = oracles.boson_overlaps(h, N_MAX)
        residual = oracles.overlap_identity_residuals(a, b, boson)
        assert residual < law, f"boson identity residual {residual:.3e} at h = {h}"
        residual = oracles.fermion_identity_residual(oracles.fermion_overlaps(h, N_MAX), fermion)
        assert residual < law, f"fermion identity residual {residual:.3e} at h = {h}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"overlap suite took {elapsed:.1f} s"


def test_junction_series_residual_scales_cubically(boson_junction, fermion_junction):
    def boson_constant(h):
        a, b = oracles.boson_overlaps(h, N_MAX)
        sel = _interior_mask(boson_junction.modes, "boson")
        ra = np.abs(polyval(h, boson_junction.alpha) - a)[sel].max()
        rb = np.abs(polyval(h, boson_junction.beta) - b)[sel].max()
        return max(ra, rb) / h**3

    def fermion_constant(h):
        a = oracles.fermion_overlaps(h, N_MAX)
        sel = _interior_mask(fermion_junction.modes, "fermion")
        return np.abs(polyval(h, fermion_junction.a) - a)[sel].max() / h**3

    for constant in (boson_constant, fermion_constant):
        c_coarse, c_fine = constant(0.01), constant(0.005)
        ratio = c_fine / c_coarse
        assert 0.8 < ratio < 1.2, f"residual constant drifts: {c_coarse} -> {c_fine}"


def _gauge(vec):
    vec = vec / np.linalg.norm(vec)
    k = int(np.argmax(np.abs(vec)))
    return vec * np.exp(-1j * np.angle(vec[k]))


def test_state_expansions_match_fock_references(composed_trip):
    h = 0.01

    nw = 8
    modes = np.arange(1, nw + 1)
    aj, bj = oracles.boson_overlaps(h, nw)
    phases = np.diag(np.exp(-2j * np.pi * modes * U))
    a_tot = aj.T @ phases @ aj - bj.T @ phases.conj() @ bj
    b_tot = aj.T @ phases @ bj - bj.T @ phases.conj() @ aj
    window = fock.BosonFockWindow(tuple(modes))
    vacuum, residual = fock.boson_travelled_vacuum(window, a_tot, b_tot)
    assert residual < 1e-5
    trip = composed_trip("boson", nw, U)

    def boson_vector(state, basis):
        amps = amplitudes(state)
        out = np.zeros(len(basis), dtype=complex)
        for i, occ in enumerate(basis):
            key = tuple(m for m, o in zip(modes, occ) for _ in range(o))
            out[i] = polyval(h, amps.get(key, np.zeros(3)))
        return out

    state = states.boson_vacuum_state(trip, (1, 4), full_second_order=True)
    dev = np.abs(_gauge(boson_vector(state, window.domain)) - _gauge(vacuum))
    assert dev.max() < STATE_TOL, f"boson vacuum deviates by {dev.max():.2e}"

    excited = fock.boson_apply_pre_travel_creation(window, a_tot, b_tot, 0, vacuum)
    state = states.boson_particle_state(trip, 1, (1, 4), full_second_order=True)
    dev = np.abs(_gauge(boson_vector(state, window.image)) - _gauge(excited))
    assert dev.max() < STATE_TOL, f"boson particle deviates by {dev.max():.2e}"

    nf = 6
    kappas = np.arange(-nf, nf)
    fj = oracles.fermion_overlaps(h, nf)
    fphases = np.diag(np.exp(-2j * np.pi * (kappas + 0.5) * U))
    f_tot = fj.T @ fphases @ fj
    fwindow = fock.FermionFockWindow(tuple(kappas))
    fvacuum, residual = fock.fermion_travelled_vacuum(fwindow, f_tot)
    assert residual < 1e-5
    ftrip = composed_trip("fermion", nf, U)

    def fermion_vector(state):
        out = np.zeros(2 ** len(fwindow.kappas), dtype=complex)
        for key, amp in amplitudes(state).items():
            out[fwindow.index(key)] = polyval(h, amp)
        return out

    col = {k: int(np.flatnonzero(kappas == k)[0]) for k in (1, -2)}
    staged = fock.fermion_apply_pre_travel_creation(fwindow, f_tot, col[-2], fvacuum)
    cases = [
        ("vacuum", states.fermion_vacuum_state(ftrip, (1, -2), full_second_order=True), fvacuum),
        (
            "one-particle",
            states.fermion_particle_state(ftrip, 1, (1, -2), full_second_order=True),
            fock.fermion_apply_pre_travel_creation(fwindow, f_tot, col[1], fvacuum),
        ),
        (
            "pair",
            states.fermion_pair_state(ftrip, 1, -2, (1, -2), full_second_order=True),
            fock.fermion_apply_pre_travel_creation(fwindow, f_tot, col[1], staged),
        ),
    ]
    for family, state, reference in cases:
        dev = np.abs(_gauge(fermion_vector(state)) - _gauge(reference))
        assert dev.max() < STATE_TOL, f"fermion {family} deviates by {dev.max():.2e}"


def test_closed_form_series_track_numeric_negativity(
    boson_junction, fermion_junction, boson_trip, fermion_trip
):
    bj, fj = boson_junction, fermion_junction
    combos = [
        (negativity.boson_vacuum_closed(negativity.TripGrid(bj, U), (1, 4)),
         states.boson_vacuum_state(boson_trip, (1, 4))),
        (negativity.boson_vacuum_closed(negativity.TripGrid(bj, U), (1, 3)),
         states.boson_vacuum_state(boson_trip, (1, 3))),
        (negativity.boson_particle_closed(negativity.TripGrid(bj, U), 1, (1, 4)),
         states.boson_particle_state(boson_trip, 1, (1, 4))),
        (negativity.boson_particle_closed(negativity.TripGrid(bj, U), 1, (1, 3)),
         states.boson_particle_state(boson_trip, 1, (1, 3))),
        (negativity.fermion_vacuum_closed(negativity.TripGrid(fj, U), (2, -1)),
         states.fermion_vacuum_state(fermion_trip, (2, -1))),
        (negativity.fermion_vacuum_closed(negativity.TripGrid(fj, U), (1, -1)),
         states.fermion_vacuum_state(fermion_trip, (1, -1))),
        (negativity.fermion_particle_closed(negativity.TripGrid(fj, U), 1, (1, 4)),
         states.fermion_particle_state(fermion_trip, 1, (1, 4))),
        (negativity.fermion_particle_closed(negativity.TripGrid(fj, U), 1, (1, 3)),
         states.fermion_particle_state(fermion_trip, 1, (1, 3))),
        (negativity.fermion_pair_closed(negativity.TripGrid(fj, U), 2, -1),
         states.fermion_pair_state(fermion_trip, 2, -1, (2, -1))),
    ]
    for series, state in combos:
        rho = states.reduce_to_pair(state)
        coarse, fine = (
            abs(polyval(h, series) - negativity.negativity_at(rho, h))
            for h in (5e-3, 2.5e-3)
        )
        # Either both residuals sit far below the h^3 scale, or halving h
        # shrinks the residual eightfold like a genuine cubic tail.
        at_floor = coarse < 1e-3 * 5e-3**3 and fine < 1e-3 * 2.5e-3**3
        if not at_floor:
            assert fine > 0.0
            ratio = coarse / fine
            assert 6.4 < ratio < 9.6, f"{state.observed}: residual ratio {ratio:.2f}"


def test_vacuum_leading_powers_and_coefficients(boson_junction, boson_trip):
    # the first order of the vacuum curve is one trip entry
    series = negativity.leading_order(
        states.reduce_to_pair(states.boson_vacuum_state(boson_trip, (1, 4)))
    )
    assert series[1] == pytest.approx(abs(boson_trip.beta[1, 0, 3]), rel=1e-12)

    # a same-parity pair opens only at second order
    series = negativity.leading_order(
        states.reduce_to_pair(states.boson_vacuum_state(boson_trip, (1, 3)))
    )
    want = negativity.boson_vacuum_closed(negativity.TripGrid(boson_junction, U), (1, 3))[2]
    assert series[1] == 0.0
    assert series[2] == pytest.approx(want, rel=1e-12)


def test_particle_curve_dominates_vacuum_curve(boson_junction):
    grid = np.linspace(0.0, 1.0, 101)
    on_grid = negativity.TripGrid(boson_junction, grid)
    particles = negativity.boson_particle_closed(on_grid, 1, (1, 4))[:, 1]
    vacua = negativity.boson_vacuum_closed(on_grid, (1, 4))[:, 1]
    for u, particle, vacuum in zip(grid, particles, vacua):
        trip = blocks.one_way_trip("boson", N_MAX, float(u))
        a1 = abs(trip.alpha[1, 0, 3])
        b1 = abs(trip.beta[1, 0, 3])
        assert particle == pytest.approx(np.hypot(a1, np.sqrt(2.0) * b1), abs=1e-8)
        assert particle >= vacuum - 1e-8


def test_fermion_exclusion_and_pair_vacuum_relations(fermion_junction, fermion_trip):
    # A mode occupied before the trip cannot receive a created partner.
    on_u = negativity.TripGrid(fermion_junction, U)
    with pytest.warns(UserWarning, match="Pauli"):
        blocked = sweep.CurveSpec("blocked", "fermion", "one-particle", (1, -2), 1)
    series = blocked.series(on_u)
    assert series.shape == (3,) and np.max(np.abs(series)) == 0.0
    rho = states.reduce_to_pair(states.fermion_particle_state(fermion_trip, 1, (1, -2)))
    for h in PROBE_H:
        assert negativity.negativity_at(rho, h) < CONVENTION_TOL

    # Adding the observed pair in the in-state leaves the leading slope at
    # its vacuum value, which in turn reads off one transform entry.
    vacuum = negativity.fermion_vacuum_closed(on_u, (2, -1))
    pair = negativity.fermion_pair_closed(on_u, 2, -1)
    assert pair[1] == pytest.approx(vacuum[1], abs=1e-8)

    modes = fermion_trip.modes
    entry = fermion_trip.a[1][
        int(np.flatnonzero(modes == 2)[0]), int(np.flatnonzero(modes == -1)[0])
    ]
    assert vacuum[1] == pytest.approx(abs(entry), abs=1e-8)
    series = negativity.leading_order(
        states.reduce_to_pair(states.fermion_vacuum_state(fermion_trip, (2, -1)))
    )
    assert series[1] == pytest.approx(vacuum[1], rel=1e-12)


def test_preset_sweeps_are_periodic_and_fast():
    start = time.perf_counter()
    results = {name: sweep.run_sweep(config.load_config(name)) for name in config.PRESETS}
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"preset sweeps took {elapsed:.1f} s"

    for name, result in results.items():
        assert result.all_converged
        shifted = sweep.run_sweep(
            dataclasses.replace(result.request, u_start=1.0, u_stop=2.0)
        )
        grid = result.request.grid()
        assert shifted.request.curves == result.request.curves
        assert shifted.request.grid() == pytest.approx(grid + 1.0)
        for j, curve in enumerate(result.request.curves):
            for u, value, partner in zip(grid, result.values[:, j], shifted.values[:, j]):
                assert abs(partner - value) < 1e-8, (
                    f"{name}/{curve.name} breaks periodicity at u={u}"
                )
                if curve.species == "boson" and u in (0.0, 1.0):
                    assert abs(value) < 1e-8


def test_reported_negativity_survives_convention_changes(
    boson_junction, fermion_junction, boson_trip, fermion_trip, rng
):
    def phases(count):
        # diag(out) X diag(in) on every order is out[:, None] * X * in
        return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count))

    def gated(t, species):
        # the weighted identity residual that check_period gates first
        res = identity_residuals(t, window=blocks.interior_window(species, N_MAX))
        return max(weighted_residual(r) for r in res.values())

    # numeric route: each trip rephased independently on its two sides
    out_b, in_b = phases(boson_trip.modes.size), phases(boson_trip.modes.size)
    rephased_b = BosonBogoliubov(
        out_b[:, None] * boson_trip.alpha * np.conj(in_b),
        out_b[:, None] * boson_trip.beta * in_b,
        boson_trip.modes,
    )
    assert gated(rephased_b, "boson") <= GATE_TOL

    out_f = phases(fermion_trip.modes.size)
    in_f = phases(fermion_trip.modes.size)
    rephased_f = FermionBogoliubov(
        out_f[:, None] * fermion_trip.a * np.conj(in_f), fermion_trip.modes
    )
    assert gated(rephased_f, "fermion") <= GATE_TOL

    flipped = FermionBogoliubov(
        np.ascontiguousarray(fermion_trip.a[:, ::-1, ::-1]), fermion_trip.modes[::-1]
    )

    # closed route: rephasing every mode by d maps the junction J to D J D^+
    # (boson beta to D beta D) and so every trip T to D T D^+; the flip
    # reverses the junction's storage order
    bj, fj = boson_junction, fermion_junction
    d_b = phases(bj.modes.size)
    rephased_bj = BosonBogoliubov(
        d_b[:, None] * bj.alpha * np.conj(d_b), d_b[:, None] * bj.beta * d_b, bj.modes
    )
    flipped_bj = BosonBogoliubov(
        np.ascontiguousarray(bj.alpha[:, ::-1, ::-1]),
        np.ascontiguousarray(bj.beta[:, ::-1, ::-1]),
        bj.modes[::-1],
    )
    d_f = phases(fj.modes.size)
    rephased_fj = FermionBogoliubov(d_f[:, None] * fj.a * np.conj(d_f), fj.modes)
    flipped_fj = FermionBogoliubov(np.ascontiguousarray(fj.a[:, ::-1, ::-1]), fj.modes[::-1])

    probes = [
        (lambda j: negativity.boson_vacuum_closed(negativity.TripGrid(j, U), (1, 4)),
         lambda t: states.boson_vacuum_state(t, (1, 4)),
         [(bj, rephased_bj), (bj, flipped_bj)], [(boson_trip, rephased_b)]),
        (lambda j: negativity.boson_particle_closed(negativity.TripGrid(j, U), 1, (1, 4)),
         lambda t: states.boson_particle_state(t, 1, (1, 4)),
         [(bj, rephased_bj), (bj, flipped_bj)], [(boson_trip, rephased_b)]),
        (lambda j: negativity.fermion_vacuum_closed(negativity.TripGrid(j, U), (2, -1)),
         lambda t: states.fermion_vacuum_state(t, (2, -1)),
         [(fj, rephased_fj), (fj, flipped_fj)], [(fermion_trip, rephased_f), (fermion_trip, flipped)]),
        (lambda j: negativity.fermion_pair_closed(negativity.TripGrid(j, U), 2, -1),
         lambda t: states.fermion_pair_state(t, 2, -1, (2, -1)),
         [(fj, rephased_fj), (fj, flipped_fj)], [(fermion_trip, rephased_f), (fermion_trip, flipped)]),
    ]
    for closed, build, junctions, trips in probes:
        for original, variant in junctions:
            assert np.max(np.abs(closed(original) - closed(variant))) < CONVENTION_TOL
        for original, variant in trips:
            rho_a = states.reduce_to_pair(build(original))
            rho_b = states.reduce_to_pair(build(variant))
            for h in PROBE_H:
                gap = abs(
                    negativity.negativity_at(rho_a, h) - negativity.negativity_at(rho_b, h)
                )
                assert gap < CONVENTION_TOL
