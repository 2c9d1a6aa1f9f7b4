import numpy as np
import pytest

from harvestcomp import ConfigurationError, SingularSystemError, SpatialGrid, integrate
from harvestcomp.operators import (
    annihilates,
    apply,
    build_operator,
    gershgorin_bound,
    shifted_solver,
)

from conftest import random_grid, random_positive_profile


def dense_matrix(op):
    """Test-side dense assembly of the tridiagonal bands."""
    return (
        np.diag(op.diag)
        + np.diag(op.sub[1:], -1)
        + np.diag(op.sup[:-1], 1)
    )


def test_hand_evaluated_stencil():
    # a = P = 1, n = 4, L = 4 (h = 1): apply((1,2,3,4)) = (1, 0, 0, -1)
    g = SpatialGrid(length=4.0, n_cells=4)
    op = build_operator(np.ones(4), np.ones(4), g)
    out = apply(op, np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(out, [1.0, 0.0, 0.0, -1.0], atol=1e-14)


def test_constant_in_kernel_of_neumann_laplacian():
    g = SpatialGrid(length=4.0, n_cells=16)
    op = build_operator(np.ones(16), np.ones(16), g)
    assert np.allclose(apply(op, np.full(16, 3.3)), 0.0, atol=1e-12)


def test_dispersal_profile_multiples_in_kernel():
    g = SpatialGrid(length=4.0, n_cells=200)
    K = 2.0 + np.cos(np.pi * g.centers)
    op = build_operator(np.ones(200), K, g)
    out = apply(op, 3.7 * K)
    assert np.max(np.abs(out)) <= 1e-12 * gershgorin_bound(op) * np.max(K)


def test_conservation_on_random_fields(rng):
    for _ in range(50):
        g = random_grid(rng)
        op = build_operator(
            random_positive_profile(rng, g), random_positive_profile(rng, g), g
        )
        w = rng.normal(size=g.n_cells)
        total = integrate(apply(op, w), g)
        scale = g.h * g.n_cells * np.max(np.abs(apply(op, w))) + 1.0
        assert abs(total) <= 1e-12 * scale


def test_apply_matches_dense_oracle(rng):
    for _ in range(20):
        g = random_grid(rng)
        op = build_operator(
            random_positive_profile(rng, g), random_positive_profile(rng, g), g
        )
        w = rng.normal(size=g.n_cells)
        dense = dense_matrix(op) @ w
        assert np.allclose(apply(op, w), dense, atol=1e-12 * (1 + np.max(np.abs(dense))))


def test_self_adjoint_in_weighted_inner_product(rng):
    for _ in range(30):
        g = random_grid(rng)
        P = random_positive_profile(rng, g)
        op = build_operator(random_positive_profile(rng, g), P, g)
        w = rng.normal(size=g.n_cells)
        z = rng.normal(size=g.n_cells)
        lhs = np.sum(apply(op, w) * z / P)
        rhs = np.sum(apply(op, z) * w / P)
        scale = gershgorin_bound(op) * np.max(np.abs(w)) * np.max(np.abs(z)) * g.n_cells
        assert abs(lhs - rhs) <= 1e-13 * scale


def test_negative_semidefinite_with_kernel_equality(rng):
    for _ in range(30):
        g = random_grid(rng)
        P = random_positive_profile(rng, g)
        op = build_operator(random_positive_profile(rng, g), P, g)
        w = rng.normal(size=g.n_cells)
        quad = np.sum(apply(op, w) * w / P)
        scale = gershgorin_bound(op) * np.max(w**2) * g.n_cells
        assert quad <= 1e-13 * scale
    quad_kernel = np.sum(apply(op, 2.0 * P) * 2.0 * P / P)
    assert abs(quad_kernel) <= 1e-12 * scale


def test_solve_shifted_kernel_right_hand_side():
    g = SpatialGrid(length=4.0, n_cells=64)
    P = 2.0 + np.cos(np.pi * g.centers)
    op = build_operator(np.ones(64), P, g)
    w = shifted_solver(op, 1.0)(4.2 * P)
    assert np.allclose(w, 4.2 * P, rtol=1e-12)


def test_solve_shifted_residual(rng):
    for _ in range(20):
        g = random_grid(rng)
        op = build_operator(
            random_positive_profile(rng, g), random_positive_profile(rng, g), g
        )
        rhs = rng.normal(size=g.n_cells)
        s = float(rng.uniform(0.1, 30.0))
        w = shifted_solver(op, s)(rhs)
        residual = s * w - apply(op, w) - rhs
        assert np.max(np.abs(residual)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_solve_shifted_matches_dense_oracle(rng):
    g = SpatialGrid(length=4.0, n_cells=16)
    op = build_operator(
        random_positive_profile(rng, g), random_positive_profile(rng, g), g
    )
    rhs = rng.normal(size=16)
    dense = np.linalg.solve(2.5 * np.eye(16) - dense_matrix(op), rhs)
    assert np.allclose(shifted_solver(op, 2.5)(rhs), dense, atol=1e-10)


def test_field_shift_matches_dense_oracle(rng):
    for _ in range(20):
        g = random_grid(rng)
        n = g.n_cells
        op = build_operator(
            random_positive_profile(rng, g), random_positive_profile(rng, g), g
        )
        # either sign, like the -f'(w) of a Newton step
        s = rng.uniform(-1.0, 30.0, size=n)
        rhs = rng.normal(size=n)
        dense = np.linalg.solve(np.diag(s) - dense_matrix(op), rhs)
        x = shifted_solver(op, s)(rhs)
        assert np.allclose(x, dense, rtol=1e-9, atol=1e-12 * np.max(np.abs(dense)))
        # a constant field is the scalar shift
        constant = shifted_solver(op, np.full(n, 2.5))(rhs)
        assert np.array_equal(constant, shifted_solver(op, 2.5)(rhs))


def test_singular_field_shift_is_reported(rng):
    # s = diag(D) leaves a zero diagonal; a tridiagonal matrix of odd order
    # with zero diagonal is singular
    g = SpatialGrid(length=4.0, n_cells=13)
    op = build_operator(random_positive_profile(rng, g), random_positive_profile(rng, g), g)
    with pytest.raises(SingularSystemError, match=r"per-cell s in \[\S+, \S+\] is singular"):
        shifted_solver(op, op.diag.copy())


def test_prefactored_solver_matches_single_shot(rng):
    g = SpatialGrid(length=4.0, n_cells=40)
    op = build_operator(
        random_positive_profile(rng, g), random_positive_profile(rng, g), g
    )
    solve = shifted_solver(op, 20.0)
    for _ in range(5):
        rhs = rng.normal(size=40)
        assert np.array_equal(solve(rhs), shifted_solver(op, 20.0)(rhs))


def test_multi_rhs_solve_is_bitwise_column_by_column(rng):
    # lockstep marching relies on LAPACK's multi-RHS gttrs repeating the
    # single-RHS arithmetic for every column
    g = random_grid(rng, 32, 64)
    op = build_operator(random_positive_profile(rng, g), random_positive_profile(rng, g), g)
    solve = shifted_solver(op, 20.0)
    rhs = np.asfortranarray(rng.uniform(0.0, 5.0, size=(g.n_cells, 7)))
    x = solve(rhs)
    assert x.shape == rhs.shape
    for k in range(rhs.shape[1]):
        assert np.array_equal(x[:, k], solve(rhs[:, k].copy()))


def test_singular_shift_is_reported():
    # s = 0 makes the system exactly singular (constants span the kernel)
    g = SpatialGrid(length=4.0, n_cells=12)
    op = build_operator(np.ones(12), np.ones(12), g)
    with pytest.raises(SingularSystemError):
        shifted_solver(op, 0.0)


def test_grid_mismatch_is_configuration_error():
    g = SpatialGrid(length=4.0, n_cells=12)
    op = build_operator(np.ones(12), np.ones(12), g)
    with pytest.raises(ConfigurationError):
        apply(op, np.ones(11))
    with pytest.raises(ConfigurationError):
        shifted_solver(op, np.ones(11))


def test_annihilates_detects_proportionality():
    g = SpatialGrid(length=4.0, n_cells=100)
    K = 2.0 + np.cos(np.pi * g.centers)
    assert annihilates(build_operator(np.ones(100), 3.7 * K, g), K)
    assert not annihilates(build_operator(np.ones(100), np.ones(100), g), K)
