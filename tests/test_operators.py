import numpy as np
import pytest

from harvestcomp import (
    ConfigurationError,
    SingularSystemError,
    SpatialGrid,
    integrate,
    solve_semitrivial,
)
from harvestcomp.operators import (
    annihilates,
    apply,
    build_operator,
    shifted_solver,
)

from conftest import load_example, random_grid, random_positive_profile


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
    assert np.max(np.abs(out)) <= 1e-12 * op.gershgorin * np.max(K)


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
        scale = op.gershgorin * np.max(np.abs(w)) * np.max(np.abs(z)) * g.n_cells
        assert abs(lhs - rhs) <= 1e-13 * scale


def test_negative_semidefinite_with_kernel_equality(rng):
    for _ in range(30):
        g = random_grid(rng)
        P = random_positive_profile(rng, g)
        op = build_operator(random_positive_profile(rng, g), P, g)
        w = rng.normal(size=g.n_cells)
        quad = np.sum(apply(op, w) * w / P)
        scale = op.gershgorin * np.max(w**2) * g.n_cells
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
    # a 2-D right-hand side is solved column by column with the single-RHS
    # arithmetic
    g = random_grid(rng, 32, 64)
    op = build_operator(random_positive_profile(rng, g), random_positive_profile(rng, g), g)
    solve = shifted_solver(op, 20.0)
    rhs = rng.uniform(0.0, 5.0, size=(g.n_cells, 7))
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


def test_shifted_solve_rejects_a_right_hand_side_off_the_grid():
    g = SpatialGrid(length=4.0, n_cells=12)
    solve = shifted_solver(build_operator(np.ones(12), np.ones(12), g), 20.0)
    with pytest.raises(ConfigurationError, match="right-hand side does not match the operator grid"):
        solve(np.ones(11))


def test_annihilates_detects_proportionality():
    g = SpatialGrid(length=4.0, n_cells=100)
    K = 2.0 + np.cos(np.pi * g.centers)
    assert annihilates(build_operator(np.ones(100), 3.7 * K, g), K)
    assert not annihilates(build_operator(np.ones(100), np.ones(100), g), K)


def test_annihilates_tells_proportionality_on_a_refined_grid():
    # the residual of a state not proportional to Q shrinks like h^2: v at
    # rate 0.95 on example3 leaves max|D w| at 1.9e-11 of D.gershgorin
    # * max|w| at n = 12800, far above rounding, while D(c*Q) stays at rounding
    _, _, env, sim = load_example("example3", n_cells=12800)
    op_v = env.swapped().dispersal
    assert not annihilates(op_v, solve_semitrivial("v", env, 0.95, sim))
    assert annihilates(op_v, 0.3 * env.Q)
