"""Structural algebra checked against exact matrix exponentials.

A generator G = [[X, Y], [conj(Y), conj(X)]] with X anti-Hermitian and Y
symmetric exponentiates to an exact bosonic transformation, so expm gives
reference data whose Taylor coefficients we know in closed form.  The
fermionic analogue is expm of an anti-Hermitian matrix.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from cavityent.bogoliubov import (
    BosonBogoliubov,
    FermionBogoliubov,
    InvariantViolation,
    check_period,
    compose,
    identity_residuals,
    invert,
    weighted_residual,
)

from reflection import mirror

N = 5
MODES = np.arange(1, N + 1)


def _weighted(t, window=None):
    """The gated size of the identity residuals: the first stage of check_period."""
    return max(weighted_residual(r) for r in identity_residuals(t, window).values())


def _at(orders, h):
    """Value of an order array at finite h."""
    return np.polynomial.polynomial.polyval(h, orders)


def _boson_generator(rng):
    m = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    x = m - m.conj().T
    s = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    y = s + s.T
    return x, y


def _synthetic_boson(rng) -> BosonBogoliubov:
    x, y = _boson_generator(rng)
    alpha = np.stack([np.eye(N), x, (x @ x + y @ y.conj()) / 2])
    beta = np.stack([np.zeros((N, N)), y, (x @ y + y @ x.conj()) / 2])
    return BosonBogoliubov(alpha, beta, MODES)


def _synthetic_fermion(rng) -> FermionBogoliubov:
    m = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    k = m - m.conj().T
    return FermionBogoliubov(np.stack([np.eye(N), k, k @ k / 2]), MODES)


def test_boson_taylor_orders_match_expm(rng):
    x, y = _boson_generator(rng)
    g = np.block([[x, y], [y.conj(), x.conj()]])
    t = BosonBogoliubov(
        np.stack([np.eye(N), x, (x @ x + y @ y.conj()) / 2]),
        np.stack([np.zeros((N, N)), y, (x @ y + y @ x.conj()) / 2]),
        MODES,
    )
    h = 1e-3
    s = expm(h * g)
    assert np.max(np.abs(_at(t.alpha, h) - s[:N, :N])) < 50 * h**3
    assert np.max(np.abs(_at(t.beta, h) - s[:N, N:])) < 50 * h**3


def test_boson_identities_hold_for_group_element(rng):
    t = _synthetic_boson(rng)
    assert _weighted(t) <= 1e-10
    for name, r in identity_residuals(t).items():
        assert np.max(r) < 1e-12, name


def test_fermion_identities_hold_for_group_element(rng):
    t = _synthetic_fermion(rng)
    assert _weighted(t) <= 1e-10
    for r in identity_residuals(t).values():
        assert np.max(r) < 1e-12


def test_sign_corruption_is_detected(rng):
    t = _synthetic_boson(rng)
    bad = t.beta.copy()
    upper = np.triu(np.ones((N, N), dtype=bool), k=1)
    bad[1][upper] *= -1.0  # breaks the pair symmetry at first order
    corrupted = BosonBogoliubov(t.alpha, bad, MODES)
    with pytest.raises(InvariantViolation, match="^identity residual"):
        check_period(corrupted)


def test_fermion_corruption_is_detected(rng):
    t = _synthetic_fermion(rng)
    bad = t.a.copy()
    bad[1, 0, 1] += 0.1
    with pytest.raises(InvariantViolation, match="^identity residual"):
        check_period(FermionBogoliubov(bad, MODES))


def test_invert_then_compose_is_identity(rng):
    eye = np.stack([np.eye(N), np.zeros((N, N)), np.zeros((N, N))])
    for make in (_synthetic_boson, _synthetic_fermion):
        t = make(rng)
        round_trip = compose(invert(t), t)
        if isinstance(t, BosonBogoliubov):
            assert np.max(np.abs(round_trip.alpha - eye)) < 1e-12
            assert np.max(np.abs(round_trip.beta)) < 1e-12
        else:
            assert np.max(np.abs(round_trip.a - eye)) < 1e-12


def test_compose_matches_matrix_product(rng):
    t1 = _synthetic_boson(rng)
    t2 = _synthetic_boson(rng)
    t21 = compose(t2, t1)
    h = 1e-3
    a1, b1, a2, b2 = (_at(x, h) for x in (t1.alpha, t1.beta, t2.alpha, t2.beta))
    s1 = np.block([[a1, b1], [b1.conj(), a1.conj()]])
    s2 = np.block([[a2, b2], [b2.conj(), a2.conj()]])
    prod = s2 @ s1
    assert np.max(np.abs(_at(t21.alpha, h) - prod[:N, :N])) < 100 * h**3
    assert np.max(np.abs(_at(t21.beta, h) - prod[:N, N:])) < 100 * h**3


def test_fermion_compose_matches_matrix_product(rng):
    t1 = _synthetic_fermion(rng)
    t2 = _synthetic_fermion(rng)
    h = 1e-3
    prod = _at(t2.a, h) @ _at(t1.a, h)
    assert np.max(np.abs(_at(compose(t2, t1).a, h) - prod)) < 100 * h**3


def test_mirror_is_involutive_and_preserves_identities(rng):
    t = _synthetic_boson(rng)
    m = mirror(t)
    assert _weighted(m) <= 1e-10
    back = mirror(m)
    assert np.allclose(back.alpha, t.alpha)
    assert np.allclose(back.beta, t.beta)


def test_mirror_signs_follow_label_parity(rng):
    t = _synthetic_fermion(rng)
    m = mirror(t)
    signs = (-1.0) ** (MODES % 2)
    want = t.a * np.outer(signs, signs)
    assert np.allclose(m.a, want)


def test_label_mismatch_rejected(rng):
    t = _synthetic_boson(rng)
    other = BosonBogoliubov(t.alpha, t.beta, np.arange(2, N + 2))
    with pytest.raises(ValueError):
        compose(t, other)


def test_window_restricts_residuals(rng):
    t = _synthetic_boson(rng)
    bad = t.beta.copy()
    bad[1, N - 1, N - 1] += 1.0  # corrupt only the last mode
    corrupted = BosonBogoliubov(t.alpha, bad, MODES)
    inner = identity_residuals(corrupted, window=(1, N - 2))
    assert all(np.max(r) < 1e-12 for r in inner.values())
    with pytest.raises(InvariantViolation, match="^identity residual"):
        check_period(corrupted)


def test_constructors_reject_wrong_order_count():
    orders = np.zeros((4, N, N))
    with pytest.raises(ValueError, match="shape"):
        BosonBogoliubov(orders, orders, MODES)
    with pytest.raises(ValueError, match="shape"):
        FermionBogoliubov(orders, MODES)


def test_constructors_reject_non_square_orders():
    orders = np.zeros((3, N, N + 1))
    with pytest.raises(ValueError, match="shape"):
        BosonBogoliubov(orders, orders, MODES)
    with pytest.raises(ValueError, match="shape"):
        FermionBogoliubov(orders, MODES)
