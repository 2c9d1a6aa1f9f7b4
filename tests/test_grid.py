import numpy as np
import pytest

from harvestcomp import ConfigurationError, SpatialGrid, average, integrate
from harvestcomp.profiles import EnvironmentProfile, parse, sample

from conftest import load_example


def cos_profile(grid):
    return 2.0 + np.cos(np.pi * grid.centers)


def test_grid_centers_and_width():
    g = SpatialGrid(length=4.0, n_cells=8)
    assert g.h == 0.5
    assert np.allclose(g.centers, (np.arange(8) + 0.5) * 0.5)


@pytest.mark.parametrize("bad", [
    dict(length=-1.0, n_cells=10),
    dict(length=4.0, n_cells=2),
    dict(length=4.0, n_cells=float("nan")),
    dict(length=4.0, n_cells=float("inf")),
    dict(length=1e-200, n_cells=50),  # 1/h^2 divides by zero
    dict(length=1e-155, n_cells=30),  # 1/h^2 overflows
])
def test_grid_rejects_bad_parameters(bad):
    with pytest.raises(ConfigurationError):
        SpatialGrid(**bad)


def test_grid_keeps_an_integral_float_cell_count_as_an_int():
    g = SpatialGrid(4.0, 5.0)
    assert g.n_cells == 5 and type(g.n_cells) is int
    assert g.h == 0.8
    ones = np.ones(5)
    env = EnvironmentProfile(grid=g, K=ones, r=ones, P=ones, Q=ones, a=ones, b=ones)
    assert env.dispersal.diag.shape == (5,)


def test_integrate_constant_is_exact():
    g = SpatialGrid(length=4.0, n_cells=37)
    assert integrate(np.ones(37), g) == pytest.approx(4.0, abs=1e-14)


def test_integrate_full_periods_cancel():
    g = SpatialGrid(length=4.0, n_cells=400)
    assert integrate(np.cos(np.pi * g.centers), g) == pytest.approx(0.0, abs=1e-10)


def test_integrate_offset_cosine():
    # analytic value: 2*4 + [sin(4 pi) - sin(0)] / pi = 8
    g = SpatialGrid(length=4.0, n_cells=400)
    assert integrate(cos_profile(g), g) == pytest.approx(8.0, abs=1e-6)


def test_average_constant():
    g = SpatialGrid(length=4.0, n_cells=50)
    assert average(np.full(50, 2.1), g) == pytest.approx(2.1, abs=1e-14)


def test_average_offset_cosine():
    g = SpatialGrid(length=4.0, n_cells=400)
    assert average(cos_profile(g), g) == pytest.approx(2.0, abs=1e-6)


def test_average_gaussian_capacity_against_refined_quadrature():
    # independent oracle: the same midpoint rule on a x16 finer grid
    _, grid, env, _ = load_example("example2")
    expr = parse("10*exp(-12.5*pi^2*(x-2)^2) - exp(-50*pi^2*(x-2)^2) + 1")
    fine = SpatialGrid(length=4.0, n_cells=16 * grid.n_cells)
    oracle = average(sample(expr, fine), fine)
    assert average(env.K, grid) == pytest.approx(oracle, abs=1e-6)


def test_integrate_is_linear(rng):
    g = SpatialGrid(length=3.0, n_cells=64)
    f1 = rng.normal(size=64)
    f2 = rng.normal(size=64)
    a, b = 1.7, -0.4
    lhs = integrate(a * f1 + b * f2, g)
    rhs = a * integrate(f1, g) + b * integrate(f2, g)
    assert lhs == pytest.approx(rhs, abs=1e-13)


def test_integrate_nonnegative_field(rng):
    g = SpatialGrid(length=2.0, n_cells=33)
    assert integrate(rng.uniform(0, 5, 33), g) >= 0.0


def test_midpoint_refinement_is_second_order():
    # f = x^2 on (0, 4): exact integral 64/3, midpoint error ~ h^2
    exact = 64.0 / 3.0
    errors = []
    for n in (50, 100, 200):
        g = SpatialGrid(length=4.0, n_cells=n)
        errors.append(abs(integrate(g.centers**2, g) - exact))
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.05)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.05)


def test_length_mismatch_is_configuration_error():
    g = SpatialGrid(length=4.0, n_cells=10)
    with pytest.raises(ConfigurationError):
        integrate(np.ones(9), g)
