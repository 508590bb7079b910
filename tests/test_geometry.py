import math

import pytest

from cavityent.geometry import (
    PERTURBATIVE_LIMIT,
    CavityGeometry,
    phase_parameter,
)


def test_wall_positions():
    g = CavityGeometry(0.1)
    assert g.left_wall == pytest.approx(1 / 0.1 - 0.5)
    assert g.right_wall == pytest.approx(1 / 0.1 + 0.5)
    assert g.right_wall - g.left_wall == pytest.approx(1.0)


def test_wall_ratio_and_log_ratio_agree():
    for h in (0.01, 0.1, 0.3):
        g = CavityGeometry(h)
        assert g.wall_ratio == pytest.approx(1 / g.left_wall)
        assert g.log_ratio == pytest.approx(math.log(g.right_wall / g.left_wall))
        # closed form: log((1 + h/2) / (1 - h/2))
        assert g.log_ratio == pytest.approx(2 * math.atanh(h / 2))


@pytest.mark.parametrize("h", [0.0, -0.1, 2.0, 2.5])
def test_h_out_of_range_rejected(h):
    with pytest.raises(ValueError):
        CavityGeometry(h)


def test_large_h_warns_but_constructs():
    with pytest.warns(UserWarning):
        g = CavityGeometry(PERTURBATIVE_LIMIT)
    assert g.h == PERTURBATIVE_LIMIT


def test_small_h_does_not_warn():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        CavityGeometry(0.1)


def test_phase_parameter_formula():
    for h, tau in [(0.01, 0.7), (0.2, 3.1)]:
        u = phase_parameter(h, tau)
        assert u * 4 * math.atanh(h / 2) == pytest.approx(h * tau)


def test_phase_parameter_small_h_limit():
    # u -> tau/2 as the walls recede
    assert phase_parameter(1e-6, 1.0) == pytest.approx(0.5, abs=1e-9)
