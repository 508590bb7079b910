"""Junction coefficients and assembled trips.

The first- and second-order junction entries below were frozen from the
quadrature + mirrored-ladder extraction at n_max = 40 and double-checked
against the closed forms that exist for a handful of entries (the 2/pi^2
family at first order, the -n^2 pi^2 / 240 diagonal at second order).  The
structural checks run on both junction builders: the quadrature extraction
and the closed-form tables.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityent import blocks, cli, oracles
from cavityent.bogoliubov import (
    GATE_TOL,
    H_REF,
    BosonBogoliubov,
    FermionBogoliubov,
    InvariantViolation,
    check_period,
    compose,
    identity_residuals,
    invert,
    period_residuals,
    weighted_residual,
)

from reflection import mirror

BOSON_FIRST = {
    # (m, n): (alpha1, beta1)
    (1, 2): (0.2865795841254588, 0.01061405867132745),
    (1, 4): (0.015010545724835645, 0.003242277876580471),
    (2, 3): (0.4963704001172458, 0.003970963200973913),
    (3, 4): (0.7019737518063783, 0.0020465707049994036),
}

BOSON_SECOND = {
    (1, 1): (-0.04112335168873378, 0.006332573985433059),
    (1, 3): (0.07677837912017516, 0.0034276062182429425),
    (2, 2): (-0.16449340667683351, 0.0015831434891675153),
    (2, 4): (0.17911224010306973, 0.0013267573438063768),
}

FERMION_FIRST = {
    (-1, 2): 0.007505272862412706,
    (0, 1): 0.20264236728470458,
    (1, 2): 0.4052847345694626,
}

FERMION_SECOND = {
    (1, 1): -0.10294420793169527,
    (0, 2): 0.045911161340887456,
    (1, -1): -0.0047494304936432094,
    (0, 0): -0.020697504578702806,
}


def _bidx(m):
    return m - 1


def _fidx(kappa, n_max=40):
    return kappa + n_max


# both junction builders, gated and memoized
BUILDERS = {"quadrature": blocks.junction, "tables": blocks.table_junction}


def test_default_ladder():
    assert np.allclose(blocks.DEFAULT_LADDER, [0.02, 0.01, 0.005, 0.0025])


def test_boson_junction_frozen_entries(boson_junction):
    a1 = boson_junction.alpha[1]
    b1 = boson_junction.beta[1]
    for (m, n), (va, vb) in BOSON_FIRST.items():
        assert a1[_bidx(m), _bidx(n)] == pytest.approx(va, abs=1e-9)
        assert b1[_bidx(m), _bidx(n)] == pytest.approx(vb, abs=1e-9)
    a2 = boson_junction.alpha[2]
    b2 = boson_junction.beta[2]
    for (m, n), (va, vb) in BOSON_SECOND.items():
        assert a2[_bidx(m), _bidx(n)] == pytest.approx(va, abs=1e-9)
        assert b2[_bidx(m), _bidx(n)] == pytest.approx(vb, abs=1e-9)


def test_fermion_junction_frozen_entries(fermion_junction):
    a1 = fermion_junction.a[1]
    for (k, kp), v in FERMION_FIRST.items():
        assert a1[_fidx(k), _fidx(kp)] == pytest.approx(v, abs=1e-9)
    a2 = fermion_junction.a[2]
    for (k, kp), v in FERMION_SECOND.items():
        assert a2[_fidx(k), _fidx(kp)] == pytest.approx(v, abs=1e-9)


def test_first_order_closed_forms(boson_junction, fermion_junction):
    a1 = fermion_junction.a[1]
    assert a1[_fidx(1), _fidx(2)] == pytest.approx(4 / math.pi**2, abs=1e-9)
    assert a1[_fidx(0), _fidx(1)] == pytest.approx(2 / math.pi**2, abs=1e-9)
    a2 = boson_junction.alpha[2]
    for n in (1, 2, 3):
        assert a2[_bidx(n), _bidx(n)] == pytest.approx(
            -(n**2) * math.pi**2 / 240, abs=1e-9
        )


def _order_arrays(t):
    return [t.a] if isinstance(t, FermionBogoliubov) else [t.alpha, t.beta]


def test_junction_entries_are_real():
    # the junction blocks are real in this mode convention and both builders
    # store them so
    for build in (blocks.build_junction, blocks.build_table_junction):
        for species in ("boson", "fermion"):
            for x in _order_arrays(build(species, 31)):
                assert x.dtype == np.float64, (build.__name__, species)


def test_phases_and_trips_are_complex(boson_junction, fermion_junction):
    # a complex phase upcasts the real junction wherever the two meet
    for species, j in (("boson", boson_junction), ("fermion", fermion_junction)):
        assert blocks.free_phases(species, j.modes, [0.3, 0.7]).dtype == np.complex128
        for t in (blocks.trip(j, [0.3, 0.7]), blocks.one_way_trip(species, 40, 0.3)):
            for x in _order_arrays(t):
                assert x.dtype == np.complex128, species


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
@pytest.mark.parametrize("species", ["boson", "fermion"])
@pytest.mark.parametrize("shape", [(), (7,), (2, 2)])
def test_trip_is_the_dense_phase_composition_to_the_bit(build, species, shape, rng):
    # P(u) as diagonal phase matrices at h^0 and zeros at h^1 and h^2,
    # composed as full matrices: scaling J's rows by the phases is the same
    # product, bit for bit
    j = build(species, 40)
    u = rng.uniform(-1.0, 2.0, size=shape)
    g = blocks.free_phases(species, j.modes, u)
    n = j.modes.size
    p = np.zeros((3,) + shape + (n, n), dtype=complex)
    p[0][..., np.arange(n), np.arange(n)] = g
    if species == "boson":
        phases = BosonBogoliubov(p, np.zeros_like(p), j.modes)
    else:
        phases = FermionBogoliubov(p, j.modes)
    dense = compose(invert(j), compose(phases, j))
    for x, y in zip(_order_arrays(dense), _order_arrays(blocks.trip(j, u))):
        assert x.shape == y.shape == (3,) + shape + (n, n)
        assert np.array_equal(x, y)


def _complex_copy(j):
    if isinstance(j, FermionBogoliubov):
        return FermionBogoliubov(j.a.astype(complex), j.modes)
    return BosonBogoliubov(j.alpha.astype(complex), j.beta.astype(complex), j.modes)


@pytest.mark.parametrize("species", ["boson", "fermion"])
def test_real_storage_changes_only_the_storage(species, monkeypatch):
    # the trips of the real junction and of its complex128 copy are the same
    # bits, and their whole-period bounds agree to rounding at h = H_REF, the
    # scale the gate reads them at (order 2 of the raw bound is a difference
    # of products of O(10) entries and moves by a few 1e-15 between real and
    # complex GEMMs)
    j = blocks.junction(species, 40)
    copy = _complex_copy(j)
    assert all(x.dtype == np.complex128 for x in _order_arrays(copy))
    us = np.array([0.0, 0.3, 0.75, 1.37])
    real_trip = blocks.one_way_trip(species, 40, us)
    monkeypatch.setitem(blocks._cache, ("quadrature", species, 40), copy)
    copy_trip = blocks.one_way_trip(species, 40, us)
    for x, y in zip(_order_arrays(real_trip), _order_arrays(copy_trip)):
        assert np.array_equal(x, y)
    window = blocks.interior_window(species, 40)
    real_bound = check_period(j, window=window)
    copy_bound = check_period(copy, window=window)
    assert real_bound.keys() == copy_bound.keys()
    weights = H_REF ** np.arange(3)
    for name, bound in real_bound.items():
        assert np.max(np.abs(bound - copy_bound[name]) * weights) <= 1e-15, name


def test_boson_parity_selection():
    modes = blocks.boson_modes(40)
    total = modes[:, None] + modes[None, :]
    diff = modes[:, None] - modes[None, :]
    off_even = (diff % 2 == 0) & (diff != 0)
    for source, junction in BUILDERS.items():
        j = junction("boson", 40)
        assert np.max(np.abs(j.beta[1][total % 2 == 0])) <= 1e-10, source
        assert np.max(np.abs(j.alpha[1][off_even])) <= 1e-10, source
        assert np.max(np.abs(np.diag(j.alpha[1]))) <= 1e-12, source


def test_fermion_parity_selection():
    modes = blocks.fermion_modes(40)
    same_parity = (modes[:, None] - modes[None, :]) % 2 == 0
    for source, junction in BUILDERS.items():
        a1 = junction("fermion", 40).a[1]
        assert np.max(np.abs(a1[same_parity])) <= 1e-10, source


def test_fermion_first_order_antisymmetric():
    for source, junction in BUILDERS.items():
        a1 = junction("fermion", 40).a[1]
        assert np.max(np.abs(a1 + a1.T)) <= 1e-10, source


def test_beta_decays_along_columns(boson_junction):
    b1 = np.abs(boson_junction.beta[1])
    for m in (1, 2):
        tail = [b1[_bidx(q), _bidx(m)] for q in range(2 * m + 1, 31)]
        tail = [v for v in tail if v > 1e-12]
        assert all(b < a for a, b in zip(tail, tail[1:]))


def test_mirror_action_on_junction():
    # every first-order entry sits on an odd-parity slot, so negating h
    # flips the whole order; second order is even and survives unchanged
    for junction in BUILDERS.values():
        j = junction("boson", 40)
        m = mirror(j)
        assert np.allclose(m.beta[1], -j.beta[1], atol=1e-14)
        assert np.allclose(m.alpha[1], -j.alpha[1], atol=1e-14)
        assert np.allclose(m.alpha[2], j.alpha[2], atol=1e-14)
        check_period(m, window=blocks.interior_window("boson", 40))


def test_junction_gate_passes(boson_junction, fermion_junction):
    for species, j in (("boson", boson_junction), ("fermion", fermion_junction)):
        check_period(j, window=blocks.interior_window(species, 40))


def test_junction_is_memoized(boson_junction):
    assert blocks.junction("boson", 40) is boson_junction
    tables = blocks.table_junction("boson", 40)
    assert tables is not boson_junction
    assert blocks.table_junction("boson", 40) is tables


# --- the closed-form tables ------------------------------------------------------


@pytest.mark.parametrize("n_max", [31, 40, 56])
@pytest.mark.parametrize("species", ["boson", "fermion"])
def test_tables_match_the_extraction_within_the_check_law(species, n_max):
    # the gap is the extraction's error; check's per-block law bounds it
    tol = cli._table_tolerances(n_max)
    extracted = cli._junction_orders(blocks.build_junction(species, n_max))
    tables = cli._junction_orders(blocks.build_table_junction(species, n_max))
    for name, t in tables.items():
        gap = np.max(np.abs(t - extracted[name])) / np.max(np.abs(t))
        assert gap < tol[name], (name, gap, tol[name])


def test_table_zeroth_order_is_exact_and_entries_real():
    boson = blocks.build_table_junction("boson", 40)
    fermion = blocks.build_table_junction("fermion", 40)
    assert np.array_equal(boson.alpha[0], np.eye(40)) and not np.any(boson.beta[0])
    assert np.array_equal(fermion.a[0], np.eye(80))
    for x in (boson.alpha, boson.beta, fermion.a):
        assert not np.any(x.imag)


REFINEMENT_CUTOFFS = range(2 * blocks.MIN_N_MAX, 2 * blocks.MAX_N_MAX + 1, 2)


@pytest.mark.parametrize("n_max", REFINEMENT_CUTOFFS)
@pytest.mark.parametrize("species", ["boson", "fermion"])
def test_table_junction_passes_the_period_gate(species, n_max):
    # a sweep refines on the tables at 2 n_max, 62 to 236, read at its labels
    # without a gate: this is the tables' whole-period gate at every one
    j = blocks.build_table_junction(species, n_max)
    bound = check_period(j, window=blocks.interior_window(species, n_max))
    assert max(weighted_residual(r) for r in bound.values()) < GATE_TOL


@pytest.mark.parametrize("species", ["boson", "fermion"])
def test_perturbed_table_junction_fails_the_gate(monkeypatch, species):
    # one in-window first-order entry off by 4.5e-7: the whole-period bound
    # reads 7.2e-8 at n_max 40, above GATE_TOL
    real = blocks.build_table_junction

    def perturbed(sp, n_max):
        j = real(sp, n_max)
        i, k = (int(np.flatnonzero(j.modes == m)[0]) for m in (2, 3))
        if sp == "boson":
            alpha = j.alpha.copy()
            alpha[1, i, k] += 4.5e-7
            return BosonBogoliubov(alpha, j.beta, j.modes)
        a = j.a.copy()
        a[1, i, k] += 4.5e-7
        return FermionBogoliubov(a, j.modes)

    monkeypatch.setattr(blocks, "build_table_junction", perturbed)
    monkeypatch.setattr(blocks, "_cache", {})
    with pytest.raises(InvariantViolation, match="whole u period"):
        blocks.table_junction(species, 40)


def test_interior_window():
    assert blocks.interior_window("boson", 40) == (1, 20)
    lo, hi = blocks.interior_window("fermion", 40)
    assert (lo, hi) == (-20, 20)


def test_free_phases_at_unit_period():
    # u = 1 is a whole turn of every boson mode and half a turn more of
    # every fermion mode
    g = blocks.free_phases("boson", blocks.boson_modes(12), 1.0)
    assert g.shape == (12,) and np.allclose(g, 1.0, atol=1e-13)
    gf = blocks.free_phases("fermion", blocks.fermion_modes(12), [[1.0], [1.0]])
    assert gf.shape == (2, 1, 24) and np.allclose(gf, -1.0, atol=1e-13)


def test_phase_parameter_formula():
    for h, tau in [(0.01, 0.7), (0.2, 3.1)]:
        u = blocks.phase_parameter(h, tau)
        assert u * 4 * math.atanh(h / 2) == pytest.approx(h * tau)


def test_phase_parameter_small_h_limit():
    # u -> tau/2 as the walls recede
    assert blocks.phase_parameter(1e-6, 1.0) == pytest.approx(0.5, abs=1e-9)


def test_trip_diagonal_mixing_vanishes(boson_trip, fermion_trip):
    assert np.max(np.abs(np.diag(boson_trip.alpha[1]))) <= 1e-14
    assert np.max(np.abs(np.diag(boson_trip.beta[1]))) <= 1e-14
    assert np.max(np.abs(np.diag(fermion_trip.a[1]))) <= 1e-14


def test_trip_interference_amplitudes(boson_junction, boson_trip):
    u = 0.3
    a1_j = boson_junction.alpha[1]
    b1_j = boson_junction.beta[1]
    a1_t = boson_trip.alpha[1]
    b1_t = boson_trip.beta[1]
    for m, n in [(1, 2), (1, 4), (2, 3)]:
        i, j = _bidx(m), _bidx(n)
        assert abs(b1_t[i, j]) == pytest.approx(
            2 * abs(b1_j[i, j]) * abs(math.sin(math.pi * (m + n) * u)), rel=1e-10
        )
        assert abs(a1_t[i, j]) == pytest.approx(
            2 * abs(a1_j[i, j]) * abs(math.sin(math.pi * (m - n) * u)), rel=1e-10
        )


def test_fermion_trip_interference_amplitudes(fermion_junction, fermion_trip):
    u = 0.3
    a1_j = fermion_junction.a[1]
    a1_t = fermion_trip.a[1]
    for k, kp in [(-1, 2), (0, 1)]:
        i, j = _fidx(k), _fidx(kp)
        assert abs(a1_t[i, j]) == pytest.approx(
            2 * abs(a1_j[i, j]) * abs(math.sin(math.pi * (k - kp) * u)), rel=1e-10
        )


# u + 1 rounds differently from u, which moves each phase by up to about
# 1e-13; the orders are compared at np.allclose's default relative tolerance
PERIOD_U = st.floats(0.0, 1.0, exclude_max=True)


@settings(max_examples=20, deadline=None)
@given(u=PERIOD_U)
def test_boson_trip_is_periodic(u):
    trips = blocks.one_way_trip("boson", 40, [u, u + 1.0])
    assert np.allclose(trips.alpha[:, 1], trips.alpha[:, 0], atol=1e-12)
    assert np.allclose(trips.beta[:, 1], trips.beta[:, 0], atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(u=PERIOD_U)
def test_fermion_trip_flips_sign_after_one_period(u):
    trips = blocks.one_way_trip("fermion", 40, [u, u + 1.0])
    assert np.allclose(trips.a[:, 1], -trips.a[:, 0], atol=1e-12)


def test_trip_at_unit_u_is_identity_in_interior():
    t = blocks.one_way_trip("boson", 40, 1.0)
    modes = blocks.boson_modes(40)
    lo, hi = blocks.interior_window("boson", 40)
    sel = (modes >= lo) & (modes <= hi)
    dev = t.alpha.copy()
    dev[0] -= np.eye(modes.size)
    dev = dev[:, sel][:, :, sel]
    assert np.max(np.abs(dev[:2])) < 1e-10
    assert np.max(np.abs(dev[2])) < 1e-5  # truncated-ladder tail
    assert np.max(np.abs(t.beta[:, sel][:, :, sel])) < 1e-5


# --- batched trips --------------------------------------------------------------


def _families(t):
    if hasattr(t, "a"):
        return (t.a,)
    return (t.alpha, t.beta)


@pytest.mark.parametrize("species", ["boson", "fermion"])
def test_trip_on_a_u_array_matches_single_trips(species, rng):
    n_max = 40
    us = rng.uniform(-1.0, 2.0, size=16)
    stack = _families(blocks.one_way_trip(species, n_max, us))
    for i, u in enumerate(us):
        for got_all, one in zip(stack, _families(blocks.one_way_trip(species, n_max, u))):
            got = got_all[:, i]
            for k in range(3):
                scale = np.max(np.abs(one[k]))
                assert np.max(np.abs(got[k] - one[k])) <= 1e-14 * scale, (u, k)


# --- the whole-period trip gate ------------------------------------------------


def _period_bound(species, n_max, junction=None):
    j = junction if junction is not None else blocks.build_junction(species, n_max)
    bound = period_residuals(j, window=blocks.interior_window(species, n_max))
    return bound, max(weighted_residual(r) for r in bound.values())


def test_min_n_max_follows_from_the_period_bound():
    # the bound covers every u of the period, so MIN_N_MAX is the first
    # cutoff from which it stays below the gate for both species
    assert blocks.MIN_N_MAX == 31
    assert _period_bound("fermion", 30)[1] > GATE_TOL
    for n_max in range(31, 60):
        for species in ("boson", "fermion"):
            worst = _period_bound(species, n_max)[1]
            assert worst < GATE_TOL, (species, n_max, worst)


def test_max_n_max_is_the_last_cutoff_through_the_drift_check():
    # the zeroth-order drift of the ladder extraction grows with the cutoff:
    # 9.64e-10 (boson) at MAX_N_MAX = 118, 1.03e-9 at 119
    assert blocks.MAX_N_MAX == 118
    for species in ("boson", "fermion"):
        blocks.build_junction(species, blocks.MAX_N_MAX)
    with pytest.raises(oracles.ConvergenceError, match="drifted"):
        blocks.build_junction("boson", blocks.MAX_N_MAX + 1)


# the direct residual carries complex128 rounding of its products (order 0 is
# |g|^2 - 1), the bound none; this slack is far below any gated residual
ROUNDING = 1e-14
FAMILY = {
    "number_left": "number", "number_right": "number",
    "pair_left": "pair", "pair_right": "pair",
    "unitary_left": "unitary", "unitary_right": "unitary",
}


@settings(max_examples=30, deadline=None)
@given(
    species=st.sampled_from(["boson", "fermion"]),
    n_max=st.sampled_from([31, 40, 56]),
    u=st.floats(-1.0, 2.0),
)
def test_trip_residual_never_exceeds_the_period_bound(species, n_max, u):
    window = blocks.interior_window(species, n_max)
    bound, _ = _period_bound(species, n_max, blocks.junction(species, n_max))
    direct = identity_residuals(blocks.one_way_trip(species, n_max, u), window=window)
    for name, r in direct.items():
        assert np.all(r <= bound[FAMILY[name]] + ROUNDING), (name, r, bound[FAMILY[name]])


@pytest.mark.parametrize("species", ["boson", "fermion"])
def test_period_bound_is_reached_on_a_fine_grid(species):
    # the first-order supremum is attained where the phase of the worst entry
    # lines up, so a fine grid comes within a few per cent of the bound
    j = blocks.junction(species, 40)
    window = blocks.interior_window(species, 40)
    bound, _ = _period_bound(species, 40, j)
    direct = identity_residuals(blocks.one_way_trip(species, 40, np.linspace(0, 1, 401)), window)
    for name, r in direct.items():
        top = bound[FAMILY[name]][1]
        assert 0.9 * top <= np.max(r[1]) <= top + ROUNDING
