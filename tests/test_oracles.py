"""Quadrature overlaps, order extraction and the brute-force Fock windows."""

import math
import tracemalloc

import numpy as np
import pytest

from cavityent import blocks, oracles
from cavityent.bogoliubov import window_slice

import fock
import quadrature


# --- order extraction ------------------------------------------------------


def test_geometric_ladder():
    lad = oracles.geometric_ladder(top=0.04, count=3)
    assert np.allclose(lad, [0.04, 0.02, 0.01])


def test_mirrored_extraction_is_exact_through_fourth_order(rng):
    # Entries whose sign product is +1 carry even powers only, the others
    # odd powers only; that is exactly the structure the mirror trick uses.
    n = 4
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    parity = np.outer(signs, signs)
    coeffs = rng.normal(size=(5, n, n))
    for k in range(5):
        mask = parity > 0 if k % 2 == 0 else parity < 0
        coeffs[k] *= mask
    ladder = oracles.geometric_ladder(top=0.02, count=4)
    values = np.array([sum(c * h**k for k, c in enumerate(coeffs)) for h in ladder])
    c, info = oracles.extract_orders_mirrored(values, signs, ladder)
    # a 4-point ladder resolves the even part through h^6 and the odd part
    # through h^7, so polynomial data of degree 4 is recovered exactly
    assert np.allclose(c, coeffs[:3], atol=1e-8)
    assert info["even_tail"] + info["odd_tail"] > 0.0


def _least_squares_orders(values, signs, ladder):
    """The mirrored extraction as a least-squares fit of the even and odd
    stacks (numpy's lstsq), the reference for the fixed weights."""
    outer = signs[:, None] * signs[None, :]
    even = 0.5 * (values + values * outer)
    odd = 0.5 * (values - values * outer) / ladder[:, None, None]
    vand = np.vander((ladder / ladder.max()) ** 2, len(ladder), increasing=True)
    scale = ladder.max() ** (2 * np.arange(len(ladder)))

    def fit(stack):
        coef = np.linalg.lstsq(vand, stack.reshape(len(ladder), -1), rcond=None)[0]
        return (coef / scale[:, None]).reshape(stack.shape)

    even_c, odd_c = fit(even), fit(odd)
    return np.stack([even_c[0], odd_c[0], even_c[1]])


def _assert_orders_close(c, want, skip=()):
    for k in range(3):
        if k not in skip:
            scale = np.max(np.abs(want[k]))
            assert np.max(np.abs(c[k] - want[k])) <= 1e-13 * scale, k


def test_interpolation_weights_invert_the_vandermonde_matrix():
    y = (oracles.geometric_ladder(top=0.02, count=4) / 0.02) ** 2
    vand = np.vander(y, 4, increasing=True)
    w = oracles.interpolation_weights(y)
    np.testing.assert_allclose(w @ vand, np.eye(4), rtol=0.0, atol=1e-13)
    # the constant is reproduced exactly: weights of y^0 sum to one, the others to zero
    np.testing.assert_allclose(w.sum(axis=1), [1.0, 0.0, 0.0, 0.0], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_fixed_weight_extraction_matches_least_squares_on_random_stacks(seed):
    rng = np.random.default_rng(seed)
    ladder = oracles.geometric_ladder(top=0.02, count=4)
    values = rng.normal(size=(4, 24, 24))
    signs = rng.choice([-1.0, 1.0], size=24)
    c, _ = oracles.extract_orders_mirrored(values, signs, ladder)
    _assert_orders_close(c, _least_squares_orders(values, signs, ladder))


@pytest.mark.parametrize("n_max", [31, 40, 56])
def test_fixed_weight_extraction_matches_least_squares_on_junction_ladders(n_max):
    ladder = blocks.DEFAULT_LADDER
    alpha, beta = oracles.boson_overlaps(ladder, n_max)
    boson_signs = (-1.0) ** blocks.boson_modes(n_max)
    fermion = oracles.fermion_overlaps(ladder, n_max)
    fermion_signs = (-1.0) ** (blocks.fermion_modes(n_max) % 2)
    for values, signs in ((alpha, boson_signs), (fermion, fermion_signs)):
        c, _ = oracles.extract_orders_mirrored(values, signs, ladder)
        _assert_orders_close(c, _least_squares_orders(values, signs, ladder))
    # beta's zeroth order is only the extraction's rounding (about 1e-10,
    # snapped to zero by build_junction), so it is held in absolute terms
    c, _ = oracles.extract_orders_mirrored(beta, boson_signs, ladder)
    want = _least_squares_orders(beta, boson_signs, ladder)
    _assert_orders_close(c, want, skip=(0,))
    assert np.max(np.abs(c[0] - want[0])) < 1e-13


# --- cavity numbers --------------------------------------------------------


def test_trailing_wall_distance():
    (a, _, _), = oracles._ladder(0.1)
    assert a == pytest.approx(1 / 0.1 - 0.5)


def test_wall_ratio_and_rindler_depth_agree():
    for (a, r, big_l), h in zip(oracles._ladder([0.01, 0.1, 0.3]), (0.01, 0.1, 0.3)):
        assert r == pytest.approx(1 / a)
        # the leading wall lies one cavity length beyond the trailing one
        assert big_l == pytest.approx(math.log((a + 1) / a))
        assert big_l == pytest.approx(2 * math.atanh(h / 2))


@pytest.mark.parametrize("h", [0.0, -0.1, 2.0, 2.5, float("nan"), [0.02, 2.0]])
def test_h_out_of_range_rejected(h):
    with pytest.raises(ValueError, match=r"\(0, 2\)"):
        oracles._ladder(h)
    with pytest.raises(ValueError):
        oracles.fermion_overlaps(h, 8)


# --- quadrature overlaps ---------------------------------------------------


def test_boson_overlaps_satisfy_identities():
    alpha, beta = oracles.boson_overlaps(0.04, 20)
    window = window_slice(blocks.boson_modes(20), (1, 10))
    assert oracles.overlap_identity_residuals(alpha, beta, window) < 5e-8


def test_fermion_overlaps_satisfy_unitarity():
    a = oracles.fermion_overlaps(0.04, 20)
    window = window_slice(blocks.fermion_modes(20), (-10, 10))
    assert oracles.fermion_identity_residual(a, window) < 5e-8


def test_boson_overlaps_small_h_limit():
    alpha, beta = oracles.boson_overlaps(1e-4, 12)
    assert np.max(np.abs(alpha - np.eye(12))) < 1e-3
    assert np.max(np.abs(beta)) < 1e-5


def test_fermion_overlaps_small_h_limit():
    a = oracles.fermion_overlaps(1e-4, 6)
    assert np.max(np.abs(a - np.eye(12))) < 1e-3


def test_overlaps_are_real():
    alpha, beta = oracles.boson_overlaps(0.05, 10)
    assert np.isrealobj(alpha) and np.isrealobj(beta)
    assert np.isrealobj(oracles.fermion_overlaps(0.05, 5))


# the ladder of `cavityent check`, whose per-h residuals must not move
CHECK_LADDER = np.array([0.08, 0.04, 0.02, 0.01])


def test_boson_ladder_call_matches_per_h_calls():
    alphas, betas = oracles.boson_overlaps(CHECK_LADDER, 24)
    assert alphas.shape == betas.shape == (4, 24, 24)
    for h, alpha, beta in zip(CHECK_LADDER, alphas, betas):
        single_alpha, single_beta = oracles.boson_overlaps(h, 24)
        np.testing.assert_array_equal(alpha, single_alpha)
        np.testing.assert_array_equal(beta, single_beta)


def test_fermion_ladder_call_matches_per_h_calls():
    stack = oracles.fermion_overlaps(CHECK_LADDER, 24)
    assert stack.shape == (4, 48, 48)
    for h, a in zip(CHECK_LADDER, stack):
        np.testing.assert_array_equal(a, oracles.fermion_overlaps(h, 24))


@pytest.mark.parametrize("h", [0.05, 0.3])
def test_mirrored_fermion_overlaps_match_four_table_formula(h):
    # reference: cos and sin tables over the full kappa range, no mirroring
    n_max, n_panels = 12, 20
    (a, r, big_l), = oracles._ladder(h)
    xi, wi = oracles.gauss_panels(n_panels)
    x = a * (1.0 + r * xi)
    ell = np.log1p(r * xi)
    kappa = np.arange(-n_max, n_max)
    omega = (kappa + 0.5) * np.pi
    capital = (kappa + 0.5) * np.pi / big_l
    weight = wi / np.sqrt(big_l * x)
    direct = (
        (np.cos(np.outer(capital, ell)) * weight) @ np.cos(np.outer(omega, xi)).T
        + (np.sin(np.outer(capital, ell)) * weight) @ np.sin(np.outer(omega, xi)).T
    )
    mirrored = oracles._fermion_overlaps_once(oracles._ladder(h), n_max, n_panels)[0]
    # the same sums, but BLAS may block the half-size products differently
    np.testing.assert_allclose(mirrored, direct, rtol=0.0, atol=8 * np.finfo(float).eps)


def test_gauss_rule_is_leggauss_bit_for_bit():
    x, w = np.polynomial.legendre.leggauss(12)
    assert np.array_equal(oracles.GAUSS_NODES, x)
    assert np.array_equal(oracles.GAUSS_WEIGHTS, w)


@pytest.mark.parametrize("n_max", [31, 40, 56, 80, 112])
def test_reused_table_buffers_give_bit_identical_overlaps(n_max):
    # both panel counts of the first convergence step, for the junction
    # ladder and for the ladder of `cavityent check`
    for h in (blocks.DEFAULT_LADDER, CHECK_LADDER):
        ladder = oracles._ladder(h)
        for n_panels in (max(16, n_max), 2 * max(16, n_max)):
            assert np.array_equal(
                oracles._boson_overlaps_once(ladder, n_max, n_panels),
                quadrature.boson_tables(ladder, n_max, n_panels),
            )
            assert np.array_equal(
                oracles._fermion_overlaps_once(ladder, n_max, n_panels),
                quadrature.fermion_tables(ladder, n_max, n_panels),
            )


@pytest.mark.parametrize(
    "overlaps", [oracles.boson_overlaps, oracles.fermion_overlaps], ids=["boson", "fermion"]
)
def test_overlap_quadrature_holds_at_most_four_and_a_half_tables(overlaps):
    # the working set of a junction ladder's quadrature at n_max 56, counted
    # in (n_max, nodes) tables of its converged pass (2 n_max panels of 12
    # nodes): the fermion keeps two trig tables alive (3.3 in all), the boson
    # three, its floor (4.05); four live fermion trig tables would read 5.8
    n_max = 56
    table = n_max * 24 * n_max * np.dtype(float).itemsize
    overlaps(blocks.DEFAULT_LADDER, n_max)  # first-call allocations out of the way
    tracemalloc.start()
    try:
        overlaps(blocks.DEFAULT_LADDER, n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * table, f"peak {peak / table:.2f} tables"


@pytest.mark.parametrize("overlaps", [oracles.boson_overlaps, oracles.fermion_overlaps])
def test_ladder_call_raises_when_tolerance_is_out_of_reach(overlaps, monkeypatch):
    monkeypatch.setattr(oracles, "OVERLAP_TOL", 1e-20)
    with pytest.raises(oracles.ConvergenceError):
        overlaps(CHECK_LADDER, 8)


def test_overlaps_reject_a_two_dimensional_h():
    with pytest.raises(ValueError):
        oracles.fermion_overlaps(CHECK_LADDER.reshape(2, 2), 8)


# --- bosonic Fock window ---------------------------------------------------


def test_boson_window_ladder_matrix_elements():
    w = fock.BosonFockWindow((1, 2, 3))
    psi = np.zeros(len(w.domain))
    occ = (1, 0, 2)
    psi[w.domain.index(occ)] = 1.0
    raised = w.raise_(0) @ psi
    assert w.amplitude(raised, (2, 0, 2), basis="image") == pytest.approx(np.sqrt(2))
    lowered = w.lower(2) @ psi
    assert w.amplitude(lowered, (1, 0, 1), basis="image") == pytest.approx(np.sqrt(2))
    # lowering an empty slot annihilates the state
    assert np.linalg.norm(w.lower(1) @ psi) == 0.0


def test_boson_window_respects_caps():
    w = fock.BosonFockWindow((1, 2), mode_cap=2, total_cap=3)
    assert (2, 2) not in w.domain  # total above cap
    assert (0, 3) not in w.domain  # single mode above cap
    assert (2, 1) in w.domain


def test_boson_travelled_vacuum_finite_h():
    w = fock.BosonFockWindow(tuple(range(1, 7)))
    alpha, beta = oracles.boson_overlaps(0.01, 6)
    psi, residual = fock.boson_travelled_vacuum(w, alpha, beta)
    assert residual < 1e-5
    assert np.linalg.norm(psi) == pytest.approx(1.0)
    vac = w.amplitude(psi, (0,) * 6)
    assert abs(vac) == pytest.approx(1.0, abs=1e-4)


# --- fermionic Fock window -------------------------------------------------


def test_fermion_window_car_algebra():
    w = fock.FermionFockWindow((-1, 0, 1))
    n = len(w.kappas)
    eye = np.eye(2**n)
    cs = [w.annihilate(s).toarray() for s in range(n)]
    for i in range(n):
        assert np.allclose(w.create(i).toarray(), cs[i].conj().T)
        assert not (cs[i] @ cs[i]).any()
        for j in range(n):
            anti = cs[i] @ cs[j] + cs[j] @ cs[i]
            assert not anti.any()
            mixed = cs[i] @ cs[j].conj().T + cs[j].conj().T @ cs[i]
            assert np.allclose(mixed, eye if i == j else 0.0)


def test_fermion_window_index_matches_create():
    w = fock.FermionFockWindow((-2, -1, 0, 1))
    vac = np.zeros(2 ** len(w.kappas))
    vac[w.index(())] = 1.0
    one = w.create(2) @ vac
    assert one[w.index((0,))] == pytest.approx(1.0)
    two = w.create(0) @ one
    assert abs(two[w.index((-2, 0))]) == pytest.approx(1.0)


def test_fermion_post_travel_op_by_charge():
    w = fock.FermionFockWindow((-1, 0, 1))
    # annihilation for particle labels, creation for antiparticle labels
    assert (w.post_travel_op(1) != w.annihilate(1)).nnz == 0
    assert (w.post_travel_op(0) != w.create(0)).nnz == 0


def test_fermion_travelled_vacuum_finite_h():
    w = fock.FermionFockWindow(tuple(range(-3, 3)))
    a = oracles.fermion_overlaps(0.01, 3)
    psi, residual = fock.fermion_travelled_vacuum(w, a)
    assert residual < 1e-5
    assert np.linalg.norm(psi) == pytest.approx(1.0)
