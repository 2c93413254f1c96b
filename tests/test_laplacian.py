import math

import numpy as np
import pytest

from nonlocal_heat import (
    Field,
    Grid,
    SolverFailure,
    assemble,
    dirichlet_lambda1,
    dirichlet_lambda1_discrete,
    inner_product,
    norm_lp,
    solve_shifted,
)
from nonlocal_heat.laplacian import CG_RTOL, shifted_system


def apply_laplacian(L, f):
    return Field(L.grid, L.apply_array(f.values))


def dense_matrix(L):
    """Column-probe oracle: materialize the stencil as a dense matrix."""
    N = L.grid.num_nodes
    A = np.zeros((N, N))
    for j in range(N):
        e = np.zeros(N)
        e[j] = 1.0
        A[:, j] = L.apply_array(e)
    return A


def inverse_power_iteration(A, iters=200, seed=1):
    """Oracle for the smallest eigenvalue: power iteration on A^{-1}."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(A.shape[0])
    lam = None
    for _ in range(iters):
        y = np.linalg.solve(A, x)
        lam = float(x @ y / (x @ x))
        x = y / np.linalg.norm(y)
    return 1.0 / lam


# ------------------------------------------------------------- assembly

def test_assemble_1d_stencil_entries():
    L = assemble(Grid((1.0,), (3,)))  # h = 1/4
    A = dense_matrix(L)
    assert np.allclose(np.diag(A), 32.0)
    assert np.allclose(np.diag(A, 1), -16.0)
    assert np.allclose(np.diag(A, -1), -16.0)
    assert A[0, 2] == 0.0


def test_assemble_2d_stencil_entries():
    L = assemble(Grid((1.0, 1.0), (2, 2)))  # h = (1/3, 1/3)
    A = dense_matrix(L)
    assert np.allclose(np.diag(A), 36.0)
    offs = A[~np.eye(4, dtype=bool)]
    assert set(np.round(offs, 12)) == {0.0, -9.0}
    # node 0=(0,0) neighbours 1=(0,1) and 2=(1,0), not 3=(1,1)
    assert A[0, 1] == -9.0 and A[0, 2] == -9.0 and A[0, 3] == 0.0


def test_assemble_anisotropic_equals_kronecker_sum():
    # unequal lengths and node counts: every entry of the n-d stencil equals
    # the Kronecker sum of the two 1D second-difference matrices
    L = assemble(Grid((1.0, 2.0), (4, 6)))  # h = (1/5, 2/7)

    def second_difference(h, n):
        return (1.0 / h**2) * (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))

    T0, T1 = second_difference(1.0 / 5, 4), second_difference(2.0 / 7, 6)
    expected = np.kron(T0, np.eye(6)) + np.kron(np.eye(4), T1)
    assert np.array_equal(dense_matrix(L), expected)


def test_assemble_is_m_matrix_and_spd():
    g = Grid((1.0, 2.0), (4, 5))
    A = dense_matrix(assemble(g))
    assert np.all(np.diag(A) > 0)
    off = A - np.diag(np.diag(A))
    assert np.all(off <= 0)
    assert np.allclose(A, A.T)
    assert np.all(np.linalg.eigvalsh(A) > 0)


def test_smallest_eigenvalue_closed_form():
    g = Grid((1.0,), (199,))
    lam_formula = dirichlet_lambda1_discrete(g)
    h = g.h[0]
    assert lam_formula == pytest.approx((4 / h**2) * math.sin(math.pi * h / 2) ** 2)
    assert abs(lam_formula - math.pi**2) <= 1e-3
    lam_power = inverse_power_iteration(dense_matrix(assemble(g)))
    assert lam_power == pytest.approx(lam_formula, rel=1e-8)


def test_smallest_eigenvalue_2d_rectangle():
    g = Grid((1.0, 2.0), (15, 31))
    lam_formula = dirichlet_lambda1_discrete(g)
    lam_power = inverse_power_iteration(dense_matrix(assemble(g)))
    assert lam_power == pytest.approx(lam_formula, rel=1e-7)
    assert dirichlet_lambda1(g) == pytest.approx(math.pi**2 * (1.0 + 0.25))
    assert lam_formula < dirichlet_lambda1(g)


# ---------------------------------------------------------------- apply

def test_apply_zero():
    g = Grid((1.0,), (11,))
    out = apply_laplacian(assemble(g), Field.zeros(g))
    assert np.all(out.values == 0.0)


def test_apply_discrete_eigenvector_1d():
    # n kept moderate: the 1/h^2 stencil amplifies rounding by ~eps/h^2
    g = Grid((1.0,), (99,))
    L = assemble(g)
    f = Field.from_function(g, lambda x: np.sin(math.pi * x))
    lam = dirichlet_lambda1_discrete(g)
    out = apply_laplacian(L, f)
    assert norm_lp(out - lam * f, 2) / norm_lp(lam * f, 2) <= 1e-12


def test_apply_discrete_eigenvector_2d():
    g = Grid((1.0, 2.0), (19, 23))
    L = assemble(g)
    f = Field.from_function(g, lambda x, y: np.sin(math.pi * x) * np.sin(math.pi * y / 2))
    lam = dirichlet_lambda1_discrete(g)
    out = apply_laplacian(L, f)
    assert norm_lp(out - lam * f, 2) / norm_lp(lam * f, 2) <= 1e-12


def test_apply_linearity():
    rng = np.random.default_rng(5)
    g = Grid((1.0, 1.0), (6, 7))
    L = assemble(g)
    f = Field(g, rng.standard_normal(g.num_nodes))
    h = Field(g, rng.standard_normal(g.num_nodes))
    lhs = apply_laplacian(L, 2.0 * f + (-3.5) * h)
    rhs = 2.0 * apply_laplacian(L, f) + (-3.5) * apply_laplacian(L, h)
    assert np.allclose(lhs.values, rhs.values, rtol=1e-13, atol=1e-12)


def test_apply_symmetry():
    rng = np.random.default_rng(6)
    for g in (Grid((1.0,), (17,)), Grid((1.5, 1.0), (8, 9))):
        L = assemble(g)
        f = Field(g, rng.standard_normal(g.num_nodes))
        h = Field(g, rng.standard_normal(g.num_nodes))
        a = inner_product(apply_laplacian(L, f), h)
        b = inner_product(f, apply_laplacian(L, h))
        assert a == pytest.approx(b, rel=1e-12)


def test_apply_grid_mismatch():
    L = assemble(Grid((1.0,), (5,)))
    with pytest.raises(ValueError):
        L.apply_array(Field.zeros(Grid((1.0,), (6,))).values)


# --------------------------------------------------------- solve_shifted

def test_solve_zero_rhs():
    for g in (Grid((1.0,), (9,)), Grid((1.0, 1.0), (5, 6))):
        L = assemble(g)
        x = solve_shifted(L, Field.zeros(g), 0.1, Field.zeros(g))
        assert np.all(x.values == 0.0)


def test_solve_eigenvector_closed_form_1d():
    g = Grid((1.0,), (199,))
    L = assemble(g)
    b = Field.from_function(g, lambda x: np.sin(math.pi * x))
    lam = dirichlet_lambda1_discrete(g)
    tau = 0.01
    x = solve_shifted(L, Field.zeros(g), tau, b)
    expected = (1.0 / (1.0 + tau * lam)) * b
    assert norm_lp(x - expected, 2) / norm_lp(expected, 2) <= 1e-9

    c = 4.0
    xc = solve_shifted(L, Field.constant(g, c), tau, b)
    expected_c = (1.0 / (1.0 + tau * (lam + c))) * b
    assert norm_lp(xc - expected_c, 2) / norm_lp(expected_c, 2) <= 1e-9


def test_solve_matches_dense_oracle_2d():
    rng = np.random.default_rng(42)
    g = Grid((1.0, 1.0), (7, 9))
    L = assemble(g)
    w = Field(g, rng.uniform(0.0, 3.0, g.num_nodes))
    b = Field(g, rng.standard_normal(g.num_nodes))
    tau = 0.05
    x = solve_shifted(L, w, tau, b)
    A = np.eye(g.num_nodes) + tau * (dense_matrix(L) + np.diag(w.values))
    oracle = np.linalg.solve(A, b.values)
    assert np.max(np.abs(x.values - oracle)) <= 1e-9
    residual = np.linalg.norm(A @ x.values - b.values)
    assert residual <= 1e-10 * np.linalg.norm(b.values)


def test_solve_residual_contract_1d():
    rng = np.random.default_rng(12)
    g = Grid((2.0,), (33,))
    L = assemble(g)
    w = Field(g, rng.uniform(0.0, 5.0, 33))
    b = Field(g, rng.standard_normal(33))
    tau = 0.2
    x = solve_shifted(L, w, tau, b)
    Ax = x.values + tau * (L.apply_array(x.values) + w.values * x.values)
    assert np.linalg.norm(Ax - b.values) <= 1e-10 * np.linalg.norm(b.values)


@pytest.mark.parametrize("grid", [Grid((1.0,), (25,)), Grid((1.0, 1.0), (9, 9))])
def test_discrete_maximum_principle(grid):
    rng = np.random.default_rng(21)
    L = assemble(grid)
    w = Field(grid, rng.uniform(0.0, 2.0, grid.num_nodes))
    b = Field(grid, rng.uniform(0.0, 1.0, grid.num_nodes))
    x = solve_shifted(L, w, 0.3, b)
    assert x.values.min() >= -1e-12 * max(1.0, norm_lp(b, math.inf))


@pytest.mark.parametrize("grid", [Grid((1.0,), (25,)), Grid((1.0, 1.0), (9, 9))])
def test_step_operator_non_expansive(grid):
    rng = np.random.default_rng(22)
    L = assemble(grid)
    w = Field(grid, rng.uniform(0.0, 2.0, grid.num_nodes))
    b = Field(grid, rng.standard_normal(grid.num_nodes))
    x = solve_shifted(L, w, 0.15, b)
    assert norm_lp(x, math.inf) <= norm_lp(b, math.inf) * (1 + 1e-12)
    assert norm_lp(x, 2) <= norm_lp(b, 2) * (1 + 1e-12)


def test_solve_rejects_bad_tau_and_grids():
    g = Grid((1.0,), (5,))
    L = assemble(g)
    z = Field.zeros(g)
    with pytest.raises(ValueError):
        solve_shifted(L, z, 0.0, z)
    with pytest.raises(ValueError):
        solve_shifted(L, z, -1.0, z)
    other = Field.zeros(Grid((1.0,), (6,)))
    with pytest.raises(ValueError):
        solve_shifted(L, other, 0.1, z)


def test_solver_failure_carries_residual():
    g = Grid((1.0, 1.0), (12, 12))
    L = assemble(g)
    b = Field.constant(g, 1.0)
    with pytest.raises(SolverFailure) as info:
        solve_shifted(L, Field.zeros(g), 5.0, b, max_iter=1)
    assert info.value.residual > 0.0
    assert info.value.iterations == 1


def test_single_interior_node():
    g = Grid((1.0,), (1,))  # h = 1/2, diagonal 8
    L = assemble(g)
    b = Field(g, [2.0])
    x = solve_shifted(L, Field.constant(g, 1.0), 0.5, b)
    # (1 + 0.5*(8 + 1)) x = 2
    assert x.values[0] == pytest.approx(2.0 / 5.5, rel=1e-14)


@pytest.mark.parametrize("n", [49, 1, pytest.param((31, 31), id="31x31")])
def test_indefinite_step_operator_raises(n):
    # I + dt*(L - 2000 I) at dt = 1e-3 has 1 + dt*(lambda1 - 2000) < 0
    n = n if isinstance(n, tuple) else (n,)
    g = Grid((1.0,) * len(n), n)
    with pytest.raises(SolverFailure, match="not positive definite") as info:
        solve_shifted(assemble(g), Field.constant(g, -2000.0), 1e-3, Field.constant(g, 1.0))
    assert info.value.iterations == 0


def test_cg_rejects_a_right_hand_side_whose_norm_overflows():
    # every entry is finite, their Euclidean norm is not
    g = Grid((1.0, 1.0), (5, 5))
    with pytest.raises(SolverFailure, match="non-finite norm") as info:
        solve_shifted(assemble(g), Field.zeros(g), 0.1, Field.constant(g, 1e308))
    assert info.value.iterations == 0


def test_cg_restarts_when_the_recursive_residual_drifts():
    # at tau = 1e4 the recursive residual meets the target while the true
    # one does not; the solve must restart from the true residual
    g = Grid((1.0, 1.0), (15, 15))
    lap = assemble(g)
    tau = 1e4
    b = np.random.default_rng(0).standard_normal(g.num_nodes)
    x = shifted_system(lap, np.zeros(g.num_nodes), tau).solve(b)
    residual = b - (x + tau * lap.apply_array(x))
    assert np.linalg.norm(residual) <= CG_RTOL * np.linalg.norm(b)
