"""Order-by-order algebra for the truncated expansions."""

import numpy as np

from cavityent.series import N_ORDERS, cauchy


def _poly_product(a, b):
    """Reference product of two coefficient triples, truncated at h^2."""
    full = np.polynomial.polynomial.polymul(a, b)
    return full[:N_ORDERS]


def test_series_multiplication_matches_polynomial(rng):
    a = rng.normal(size=3) + 1j * rng.normal(size=3)
    b = rng.normal(size=3) + 1j * rng.normal(size=3)
    assert np.allclose(cauchy(a, b), _poly_product(a, b))


def test_series_conj_and_abs2():
    s = np.array([1 + 1j, 2 - 1j, 0.5j])
    # |s|^2 = s * conj(s), order by order
    a = cauchy(s, np.conj(s))
    want = _poly_product([1 + 1j, 2 - 1j, 0.5j], [1 - 1j, 2 + 1j, -0.5j])
    assert np.allclose(a, want)
    assert np.allclose(np.imag(a), 0.0)


def test_matrix_product_matches_polynomial(rng):
    shape = (3, 4, 4)
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = cauchy(a, b, np.matmul)
    for k in range(N_ORDERS):
        want = sum(a[i] @ b[k - i] for i in range(k + 1))
        assert np.allclose(got[k], want)


def test_matrix_scalar_and_series_multiplication(rng):
    a = rng.normal(size=(3, 2, 2))
    s = np.array([0.0, 1.0, 0.0])  # multiply by h: shifts orders up
    shifted = cauchy(s[:, None, None], a)
    assert not shifted[0].any()
    assert np.allclose(shifted[1], a[0])
    assert np.allclose(shifted[2], a[1])


def test_matrix_identity_and_zeros(rng):
    # Identity series: the unit matrix at h^0 and nothing at h^1, h^2.
    e = np.zeros((N_ORDERS, 3, 3))
    e[0] = np.eye(3)
    a = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
    assert np.allclose(cauchy(e, a, np.matmul), a)
    assert np.allclose(cauchy(a, e, np.matmul), a)
    # A non-square zero series annihilates from either side.
    z = np.zeros((N_ORDERS, 2, 3))
    left = cauchy(z, a, np.matmul)
    assert left.shape == (N_ORDERS, 2, 3)
    assert not left.any()
    assert not cauchy(a, z.swapaxes(-1, -2), np.matmul).any()
