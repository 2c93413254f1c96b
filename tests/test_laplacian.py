import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nonlocal_heat import (
    EvolutionConfig,
    Field,
    Grid,
    SolverFailure,
    assemble,
    catalog,
    dirichlet_lambda1,
    dirichlet_lambda1_discrete,
    evolve,
    inner_product,
    nemytskii,
    norm_lp,
)
from nonlocal_heat import evolution, laplacian
from nonlocal_heat.evolution import CRANK_NICOLSON, SCHEMES
from nonlocal_heat.laplacian import (
    CG_RTOL,
    START_MARGIN,
    START_ROUNDING,
    DirichletLaplacian,
    _ConjugateGradientSystem,
    _sine_matrix,
    _sine_transform,
    dirichlet_eigenvalues,
    shifted_system,
)


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


def sine_squared_bump(grid, amplitude):
    """``amplitude * sin^2(pi x) sin^2(pi y)`` on a 2D unit-square grid."""
    x, y = np.meshgrid(*(h * np.arange(1, m + 1) for h, m in zip(grid.h, grid.n)),
                       indexing="ij")
    return amplitude * ((np.sin(math.pi * x) * np.sin(math.pi * y)) ** 2).ravel()


def count_stencil_applies(monkeypatch):
    """Count ``apply_array`` calls: one per step-operator product."""
    calls = [0]
    apply_array = DirichletLaplacian.apply_array

    def counted(self, v):
        calls[0] += 1
        return apply_array(self, v)

    monkeypatch.setattr(DirichletLaplacian, "apply_array", counted)
    return calls


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


@pytest.mark.parametrize("grid", [Grid((1.0,), (7,)), Grid((1.0, 2.5), (5, 4))],
                         ids=["1d-7", "2d-5x4"])
def test_dirichlet_eigenvalues_match_the_dense_stencil(grid):
    eigenvalues = dirichlet_eigenvalues(grid)
    assert eigenvalues.shape == grid.n
    expected = np.linalg.eigvalsh(dense_matrix(assemble(grid)))
    assert np.allclose(np.sort(eigenvalues.ravel()), expected, rtol=1e-12, atol=0.0)
    assert dirichlet_lambda1_discrete(grid) == eigenvalues.min() == eigenvalues.flat[0]


@pytest.mark.parametrize("m", [1, 4, 31, 127])
def test_sine_matrix_is_symmetric_and_its_own_inverse(m):
    S = _sine_matrix(m)
    assert np.array_equal(S, S.T)
    assert np.max(np.abs(S @ S - np.eye(m))) <= 1e-13


@pytest.mark.parametrize("m", [7, 100, 127])
def test_sine_matrix_takes_its_entries_from_the_c_library_sin(monkeypatch, m):
    # bit for bit math.sin at each reduced phase, so the matrix does not
    # depend on the SIMD kernel numpy dispatches np.sin to on the running CPU
    def numpy_sin(*args, **kwargs):
        raise AssertionError("the sine matrix evaluated np.sin")

    monkeypatch.setattr(np, "sin", numpy_sin)
    S = _sine_matrix(m)
    scale, step = math.sqrt(2.0 / (m + 1)), math.pi / (m + 1)
    expected = [[scale * math.sin(step * (j * k % (2 * (m + 1)))) for k in range(1, m + 1)]
                for j in range(1, m + 1)]
    assert S.tobytes() == np.array(expected).tobytes()
    assert np.array_equal(S, S.T) and np.max(np.abs(S @ S - np.eye(m))) <= 1e-13


@pytest.mark.parametrize("m", [1, 2, 49, 799])
def test_1d_sine_transform_is_the_sine_matrix_product_by_fft(m):
    x = np.random.default_rng(m).standard_normal(m)
    assert np.max(np.abs(_sine_transform(x) - _sine_matrix(m) @ x)) <= 1e-14 * math.sqrt(m)
    # so the 1D sine-basis product with the eigenvalues is the stencil
    lap = assemble(Grid((2.5,), (m,)))
    assert np.allclose(lap.apply_spectral(x, lap.eigenvalues), lap.apply_array(x),
                       rtol=0.0, atol=1e-12 * np.max(np.abs(lap.apply_array(x))))


def test_sine_basis_diagonalizes_the_2d_stencil():
    # with the eigenvalues as multipliers, the sine-basis product is the stencil
    g = Grid((1.0, 2.5), (5, 4))
    lap = assemble(g)
    assert np.array_equal(lap.eigenvalues, dirichlet_eigenvalues(g))
    v = np.random.default_rng(2).standard_normal(g.num_nodes)
    assert np.allclose(lap.apply_spectral(v, lap.eigenvalues), lap.apply_array(v),
                       rtol=0.0, atol=1e-12 * np.max(np.abs(lap.apply_array(v))))


def test_2d_sine_basis_builds_one_matrix_per_axis_length():
    # a square grid shares one DST-I matrix between its axes; the products
    # are bit for bit those of separately built matrices
    rng = np.random.default_rng(15)
    square, oblong = assemble(Grid((1.0, 2.5), (15, 15))), assemble(Grid((1.0, 2.5), (31, 17)))
    assert square._basis[0] is square._basis[1]
    assert oblong._basis[0] is not oblong._basis[1]
    for lap in (square, oblong):
        S0, S1 = (_sine_matrix(m) for m in lap.grid.n)
        v, multipliers = rng.standard_normal(lap.grid.num_nodes), rng.uniform(0.1, 2.0, lap.grid.n)
        expected = (S0 @ ((S0 @ v.reshape(lap.grid.n) @ S1) * multipliers) @ S1).ravel()
        assert np.array_equal(lap.apply_spectral(v, multipliers), expected)


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


# --------------------------------------------------------- shifted_system

def test_solve_zero_rhs():
    for g in (Grid((1.0,), (9,)), Grid((1.0, 1.0), (5, 6))):
        z = np.zeros(g.num_nodes)
        x = shifted_system(assemble(g), z, 0.1).solve(z)
        assert np.all(x == 0.0)


def test_solve_eigenvector_closed_form_1d():
    g = Grid((1.0,), (199,))
    L = assemble(g)
    b = Field.from_function(g, lambda x: np.sin(math.pi * x))
    lam = dirichlet_lambda1_discrete(g)
    tau = 0.01
    x = Field(g, shifted_system(L, np.zeros(g.num_nodes), tau).solve(b.values))
    expected = (1.0 / (1.0 + tau * lam)) * b
    assert norm_lp(x - expected, 2) / norm_lp(expected, 2) <= 1e-9

    c = 4.0
    xc = Field(g, shifted_system(L, np.full(g.num_nodes, c), tau).solve(b.values))
    expected_c = (1.0 / (1.0 + tau * (lam + c))) * b
    assert norm_lp(xc - expected_c, 2) / norm_lp(expected_c, 2) <= 1e-9


def test_solve_matches_dense_oracle_2d():
    rng = np.random.default_rng(42)
    g = Grid((1.0, 1.0), (7, 9))
    L = assemble(g)
    w = rng.uniform(0.0, 3.0, g.num_nodes)
    b = rng.standard_normal(g.num_nodes)
    tau = 0.05
    for identity in (1.0, 0.5):
        x = shifted_system(L, w, tau, identity=identity).solve(b)
        A = identity * np.eye(g.num_nodes) + tau * (dense_matrix(L) + np.diag(w))
        oracle = np.linalg.solve(A, b)
        assert np.max(np.abs(x - oracle)) <= 1e-9
        residual = np.linalg.norm(A @ x - b)
        assert residual <= 1e-10 * np.linalg.norm(b)


def test_solve_residual_contract_1d():
    rng = np.random.default_rng(12)
    g = Grid((2.0,), (33,))
    L = assemble(g)
    w = rng.uniform(0.0, 5.0, 33)
    b = rng.standard_normal(33)
    tau = 0.2
    for identity in (1.0, 0.5):
        x = shifted_system(L, w, tau, identity=identity).solve(b)
        Ax = identity * x + tau * (L.apply_array(x) + w * x)
        assert np.linalg.norm(Ax - b) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("grid", [Grid((1.0,), (25,)), Grid((1.0, 1.0), (9, 9))])
def test_discrete_maximum_principle(grid):
    rng = np.random.default_rng(21)
    L = assemble(grid)
    w = rng.uniform(0.0, 2.0, grid.num_nodes)
    b = rng.uniform(0.0, 1.0, grid.num_nodes)
    x = shifted_system(L, w, 0.3).solve(b)
    assert x.min() >= -1e-12 * max(1.0, np.max(np.abs(b)))


@pytest.mark.parametrize("grid", [Grid((1.0,), (25,)), Grid((1.0, 1.0), (9, 9))])
def test_step_operator_non_expansive(grid):
    rng = np.random.default_rng(22)
    L = assemble(grid)
    w = rng.uniform(0.0, 2.0, grid.num_nodes)
    b = Field(grid, rng.standard_normal(grid.num_nodes))
    x = Field(grid, shifted_system(L, w, 0.15).solve(b.values))
    assert norm_lp(x, math.inf) <= norm_lp(b, math.inf) * (1 + 1e-12)
    assert norm_lp(x, 2) <= norm_lp(b, 2) * (1 + 1e-12)


def test_solve_rejects_bad_tau_and_grids():
    L = assemble(Grid((1.0,), (5,)))
    z = np.zeros(5)
    with pytest.raises(ValueError):
        shifted_system(L, z, 0.0)
    with pytest.raises(ValueError):
        shifted_system(L, z, -1.0)
    with pytest.raises(ValueError, match="shift vector does not match the grid"):
        shifted_system(L, np.zeros(6), 0.1)


def test_solver_failure_carries_residual():
    # the system caps CG at 10 * num_nodes iterations; a cap of 1 reaches it
    # when w is not constant (a nonnegative constant w is solved exactly by
    # the start M^{-1} b, before any iteration)
    g = Grid((1.0, 1.0), (12, 12))
    system = _ConjugateGradientSystem(assemble(g), sine_squared_bump(g, 36.0), 5.0, 1.0, True)
    assert system._max_iter == 10 * g.num_nodes
    system._max_iter = 1
    with pytest.raises(SolverFailure, match=r"within 1 iterations \(relative residual "
                                            r"[1-9]\.\d{3}e[-+]\d\d\)"):
        system.solve(np.ones(g.num_nodes))


def test_single_interior_node():
    g = Grid((1.0,), (1,))  # h = 1/2, diagonal 8
    x = shifted_system(assemble(g), np.array([1.0]), 0.5).solve(np.array([2.0]))
    # (1 + 0.5*(8 + 1)) x = 2
    assert x[0] == pytest.approx(2.0 / 5.5, rel=1e-14)


@pytest.mark.parametrize("n", [49, 1, pytest.param((31, 31), id="31x31")])
def test_indefinite_step_operator_raises(n):
    # I + dt*(L - 2000 I) at dt = 1e-3 has 1 + dt*(lambda1 - 2000) < 0
    n = n if isinstance(n, tuple) else (n,)
    g = Grid((1.0,) * len(n), n)
    # the message locates the breakdown: a minor of the 1D factorization, or
    # CG's first direction, on which the indefinite operator is already detected
    where = (rf"leading minor \d+ of {g.num_nodes}" if len(n) == 1
             else r"CG direction 1 has p\^T A p = -")
    with pytest.raises(SolverFailure, match=f"not positive definite \\({where}"):
        shifted_system(assemble(g), np.full(g.num_nodes, -2000.0), 1e-3).solve(
            np.ones(g.num_nodes))


@given(w=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=80),
       tau=st.floats(1e-9, 1e3), seed=st.integers(0, 2**32 - 1))
def test_doubled_tridiagonal_solve_is_twice_the_plain_one_bitwise(w, tau, seed):
    # every entry of I/2 + (tau/2)*(L + diag(w)) is exactly half that of
    # I + tau*(L + diag(w)), so pttrf gives half the pivots and the same
    # multipliers; every plain pivot is at least 1 for w >= 0, so the halved
    # ones stay far from the normal range's edge
    g = Grid((1.0,), (len(w),))
    lap, w = assemble(g), np.array(w)
    plain, halved = shifted_system(lap, w, tau), shifted_system(lap, w, 0.5 * tau, identity=0.5)
    assert plain._d.min() >= 1.0
    assert np.array_equal(halved._d, 0.5 * plain._d)
    # pttrs reads n - 1 multipliers: at n = 1, _e is a placeholder pttrf leaves as given
    multipliers = slice(g.num_nodes - 1)
    assert np.array_equal(halved._e[multipliers], plain._e[multipliers])
    b = np.random.default_rng(seed).standard_normal(g.num_nodes)
    assert np.array_equal(halved.solve(b), 2.0 * plain.solve(b))


@given(amplitude=st.floats(0.0, 3600.0), tau=st.floats(1e-4, 1e-1))
def test_doubled_cg_solves_a_sequence_at_twice_the_plain_one_bitwise(amplitude, tau):
    # the halved operator's kept solutions, and so its extrapolated starts,
    # are exactly twice the plain ones, so each solve takes the plain
    # system's iterations
    g = Grid((1.0, 1.0), (15, 15))
    lap, w = assemble(g), sine_squared_bump(g, amplitude)
    plain, halved = shifted_system(lap, w, tau), shifted_system(lap, w, 0.5 * tau, identity=0.5)
    b = sine_squared_bump(g, 1.0) ** 0.5
    rhs = [b * 0.9**j + 1e-3 * j * sine_squared_bump(g, 1.0) for j in range(6)]
    rhs.insert(3, np.zeros(g.num_nodes))
    for b in rhs:
        assert np.array_equal(halved.solve(b), 2.0 * plain.solve(b))


@pytest.mark.parametrize("n", [49, 1, pytest.param((31, 31), id="31x31")])
def test_doubled_system_reports_an_indefinite_operator_as_the_plain_one(n):
    # the halved 1D operator fails at the same leading minor; CG reports
    # p^T A p of the operator it solves, exactly twice the plain one's for
    # the halved operator, whose direction is twice the plain one
    n = n if isinstance(n, tuple) else (n,)
    g = Grid((1.0,) * len(n), n)
    lap, w, b = assemble(g), np.full(g.num_nodes, -2000.0), np.ones(g.num_nodes)
    messages = []
    for tau, identity in ((1e-3, 1.0), (5e-4, 0.5)):
        with pytest.raises(SolverFailure) as raised:
            shifted_system(lap, w, tau, identity=identity).solve(b)
        # each message names the operator solved, with its own coefficients
        operator = f"{identity:g}*I + {tau:g}*(L + diag(w))"
        message = str(raised.value)
        assert message.startswith(f"the step operator {operator} is not positive definite")
        messages.append(message.replace(operator, ""))
    curvature = re.compile(r"(?<=p\^T A p = )\S+(?=\))")
    assert curvature.sub("", messages[0]) == curvature.sub("", messages[1])
    values = [float(value) for text in messages for value in curvature.findall(text)]
    assert len(values) == (2 if len(n) == 2 else 0)
    if values:
        assert values[1] == pytest.approx(2.0 * values[0], rel=1e-3)


def test_cg_returns_nan_for_a_right_hand_side_with_a_non_finite_entry(monkeypatch):
    # as pttrs in 1D, the overflow reaches the caller's check on the states;
    # no stencil product, whatever the other entries are
    g = Grid((1.0, 1.0), (5, 5))
    lap, w = assemble(g), np.zeros(g.num_nodes)
    system = shifted_system(lap, w, 0.1)
    products = count_stencil_applies(monkeypatch)
    for bad in (math.inf, -math.inf, math.nan):
        b = np.full(g.num_nodes, 1e308)
        b[7] = bad
        assert np.isnan(system.solve(b)).all()
    assert products[0] == 0
    # the non-finite history is dropped: a finite b solves as on a new system
    b = np.linspace(-1.0, 1.0, g.num_nodes)
    assert system.solve(b).tobytes() == shifted_system(lap, w, 0.1).solve(b).tobytes()


@pytest.mark.parametrize("exponent", [-664, -515, 0, 1021])
def test_cg_scales_right_hand_sides_across_the_float_range(exponent):
    # b * 2**e is solved as b, exactly: no norm or curvature underflows near
    # 1e-200 (unscaled, the solve returned zeros) or 1e-155 (unscaled, a
    # curvature of 0 read as an indefinite operator), nor overflows near 1e308
    g = Grid((1.0, 1.0), (31, 31))
    rng = np.random.default_rng(0)
    w, tau = rng.uniform(0.0, 3600.0, g.num_nodes), 2.5e-3
    b = rng.standard_normal(g.num_nodes)
    x = shifted_system(assemble(g), w, tau).solve(b)
    x_scaled = shifted_system(assemble(g), w, tau).solve(np.ldexp(b, exponent))
    assert np.array_equal(x_scaled, np.ldexp(x, exponent))
    A = np.eye(g.num_nodes) + tau * (dense_matrix(assemble(g)) + np.diag(w))
    assert np.linalg.norm(b - A @ x) <= CG_RTOL * np.linalg.norm(b)


def test_cg_stops_once_a_restart_does_not_lower_the_true_residual(monkeypatch):
    # a positive definite step operator within 1e-8 of singular: its true
    # residual's rounding floor lies above CG_RTOL, so every restart would be
    # followed by another until the 10 * num_nodes budget ran out (9,610
    # iterations and ~10,000 stencil products); the solve stops at the first
    # restart that makes no progress
    g = Grid((1.0, 1.0), (31, 31))
    tau = 1e-3
    w = np.full(g.num_nodes, -(1.0 / tau + dirichlet_lambda1_discrete(g)) * (1.0 - 1e-8))
    system = shifted_system(assemble(g), w, tau)
    products = count_stencil_applies(monkeypatch)
    with pytest.raises(SolverFailure, match=r"^CG stagnated at relative residual "
                                            r"[1-9]\.\d{3}e-\d\d after \d+ iterations"):
        system.solve(np.ones(g.num_nodes))
    assert products[0] <= 300


def test_cg_returns_its_start_when_it_meets_the_tolerance(monkeypatch):
    # for a constant w >= 0 the preconditioner is the exact inverse, so the
    # start M^{-1} b meets the tolerance: no product (its residual comes from
    # the splitting identity), no iteration, and the dense solution to round-off
    g = Grid((1.0, 2.0), (5, 7))
    lap = assemble(g)
    w, tau = np.full(g.num_nodes, 3.0), 0.05
    b = np.random.default_rng(1).standard_normal(g.num_nodes)
    products = count_stencil_applies(monkeypatch)
    x = shifted_system(lap, w, tau).solve(b)
    assert products[0] == 0
    A = np.eye(g.num_nodes) + tau * (dense_matrix(lap) + np.diag(w))
    oracle = np.linalg.solve(A, b)
    assert np.max(np.abs(x - oracle)) <= 1e-14 * np.max(np.abs(oracle))


def test_cg_restarts_when_the_recursive_residual_drifts():
    # the first step-operator product inside the iteration (the first call:
    # the start's residual comes from the splitting identity) is off by 1e-6
    # relative, so the recursive residual drifts from the true one; the solve
    # must see that at its true-residual check, restart from the true
    # residual, and return only an x that meets the target
    g = Grid((1.0, 1.0), (15, 15))
    system = shifted_system(assemble(g), sine_squared_bump(g, 36.0), 5e-3)
    exact = system._matvec
    calls = [0]

    def drifting(v):
        calls[0] += 1
        return exact(v) * (1.0 + 1e-6) if calls[0] == 1 else exact(v)

    system._matvec = drifting
    b = np.random.default_rng(0).standard_normal(g.num_nodes)
    x = system.solve(b)
    assert np.linalg.norm(b - exact(x)) <= CG_RTOL * np.linalg.norm(b)


def long_double_operator(lap, w, tau, identity):
    """``identity*I + tau*(L + diag(w))`` as a dense ``np.longdouble`` matrix."""
    N = lap.grid.num_nodes
    return (identity * np.eye(N, dtype=np.longdouble) + np.longdouble(tau)
            * (dense_matrix(lap).astype(np.longdouble) + np.diag(w.astype(np.longdouble))))


@given(shape=st.tuples(st.integers(1, 10), st.integers(1, 10)),
       identity=st.sampled_from([1.0, 0.5]), tau=st.floats(1e-6, 1e3),
       w_exponent=st.floats(0.0, 8.0), extrapolated=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_cg_start_residual_from_the_splitting_is_within_its_rounding_bound(
        shape, identity, tau, w_exponent, extrapolated, seed):
    # x0 = M^{-1}(b - coupling*g) has the residual coupling*(g - x0) up to
    # START_ROUNDING ((kappa + 1) ||b - coupling*g|| + ||b||), for kappa =
    # (identity + tau (lambda_max + c)) / (identity + tau (lambda_min + c)),
    # the condition number of M = identity*I + tau*(L + c), c = mean(w),
    # here against b - A x0 in long double; the start takes that residual
    # exactly where the bound is at most CG_RTOL ||b|| / START_MARGIN, and a
    # stencil product elsewhere
    g = Grid((1.0, 1.0), shape)
    lap = assemble(g)
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 10.0**w_exponent, g.num_nodes)
    system = shifted_system(lap, w, tau, identity)
    b = rng.standard_normal(g.num_nodes)
    guess = rng.standard_normal(g.num_nodes) if extrapolated else None
    x, r, rounding = system._start(b, guess)
    coupling = system._coupling
    d = b if guess is None else b - coupling * guess
    split = coupling * (-x if guess is None else guess - x)
    c = min(max(np.mean(w), np.min(w)), np.max(w))
    kappa = ((identity + tau * (np.max(lap.eigenvalues) + c))
             / (identity + tau * (np.min(lap.eigenvalues) + c)))
    bound = START_ROUNDING * ((kappa + 1.0) * np.linalg.norm(d) + np.linalg.norm(b))
    exact = b.astype(np.longdouble) - long_double_operator(lap, w, tau, identity) @ x
    assert np.linalg.norm((exact - split).astype(float)) <= bound
    if bound <= CG_RTOL * np.linalg.norm(b) / START_MARGIN:
        assert np.array_equal(r, split) and rounding == pytest.approx(bound, rel=1e-12)
    else:
        assert np.array_equal(r, b - system._matvec(x)) and rounding == 0.0


@given(shape=st.tuples(st.integers(1, 10), st.integers(1, 10)),
       identity=st.sampled_from([1.0, 0.5]), tau=st.floats(1e-6, 1e3),
       w_exponent=st.floats(0.0, 8.0), seed=st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("case", ["drawn", "large_tau_lambda_max", "w_to_1e8"])
def test_every_cg_solution_meets_the_target_on_a_long_double_residual(
        case, shape, identity, tau, w_exponent, seed):
    # a sequence of related right-hand sides, so both kinds of start occur;
    # the two fixed cases lie where the splitting's bound does not hold and
    # the start's residual is a stencil product
    if case == "large_tau_lambda_max":
        shape, tau, w_exponent = (10, 10), 100.0, 0.0
    elif case == "w_to_1e8":
        shape, tau, w_exponent = (10, 10), 1e-3, 8.0
    g = Grid((1.0, 1.0), shape)
    lap = assemble(g)
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 10.0**w_exponent, g.num_nodes)
    A = long_double_operator(lap, w, tau, identity)
    system = shifted_system(lap, w, tau, identity)
    b = rng.standard_normal(g.num_nodes)
    for j in range(4):
        b_j = (1.0 - 0.01 * j) * b + 1e-3 * j * rng.standard_normal(g.num_nodes)
        x = system.solve(b_j)
        residual = b_j.astype(np.longdouble) - A @ x
        assert np.linalg.norm(residual.astype(float)) <= CG_RTOL * np.linalg.norm(b_j)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_stepped_2d_sweep_makes_stencil_products_only_where_a_start_iterates(
        monkeypatch, scheme):
    # a 31^2 sweep of 50 steps under quadratic(0.005 sin sin): the first two
    # solves iterate once each (a product and the true-residual check), and
    # every later one converges at its extrapolated start, whose residual
    # comes from the splitting identity: 4 products, against 54 when each
    # start's residual was a stencil product.  At T = 100 with w = 0, every
    # start M^{-1} b is the solution.  On 31^2 M's condition number kappa is
    # 404 (IE) / 394 (CN), so the splitting's bound admits each start: no
    # product.  On 127^2 kappa is 6,476 / 6,319, above the about 3,500 where
    # the bound exceeds CG_RTOL / START_MARGIN, so each start's residual is
    # a stencil product: one per solve
    g = Grid((1.0, 1.0), (31, 31))
    lap = assemble(g)
    sine = Field(g, sine_squared_bump(g, 1.0) ** 0.5)
    products = count_stencil_applies(monkeypatch)
    w = nemytskii(catalog("quadratic"), 0.005 * sine)
    evolve(lap, w, 0.5 * sine, EvolutionConfig(T=0.1, steps=50, scheme=scheme))
    assert products[0] <= 6
    long_sweep = EvolutionConfig(T=100.0, steps=50, scheme=scheme)
    products[0] = 0
    evolve(lap, Field.zeros(g), 0.5 * sine, long_sweep)
    assert products[0] == 0
    g = Grid((1.0, 1.0), (127, 127))
    sine = Field(g, sine_squared_bump(g, 1.0) ** 0.5)
    evolve(assemble(g), Field.zeros(g), 0.5 * sine, long_sweep)
    assert products[0] == 50


def test_a_system_without_sequence_solves_each_right_hand_side_as_a_new_one():
    # as for the orthonormal vectors of a Lanczos basis: every solve starts
    # from M^{-1} b and the system keeps no solution
    g = Grid((1.0, 1.0), (15, 15))
    lap = assemble(g)
    w, tau = sine_squared_bump(g, 36.0), 5e-3
    system = shifted_system(lap, w, tau, sequence=False)
    b = sine_squared_bump(g, 1.0) ** 0.5
    for j in range(4):
        b_j = 0.9**j * b + 1e-3 * j * sine_squared_bump(g, 1.0)
        assert system.solve(b_j).tobytes() == shifted_system(lap, w, tau).solve(b_j).tobytes()
    assert system._solutions is None


def test_cg_converges_for_a_negative_mean_w_with_a_positive_definite_operator():
    # w = -100 on the ring next to the boundary: I + tau*(L + diag(w)) is
    # positive definite, while I + tau*(L + mean(w)) is not; the
    # preconditioner's shift is clipped at 0, so its multipliers lie in (0, 1]
    g = Grid((1.0, 1.0), (9, 9))
    lap = assemble(g)
    ring = np.ones(g.n, dtype=bool)
    ring[1:-1, 1:-1] = False
    w, tau = np.where(ring.ravel(), -100.0, 0.0), 0.1
    A = np.eye(g.num_nodes) + tau * (dense_matrix(lap) + np.diag(w))
    assert np.linalg.eigvalsh(A).min() > 1.0
    assert 1.0 + tau * (dirichlet_lambda1_discrete(g) + np.mean(w)) < 0.0
    system = shifted_system(lap, w, tau)
    assert np.all((system._inverse_eigenvalues > 0.0) & (system._inverse_eigenvalues <= 1.0))
    b = np.random.default_rng(3).standard_normal(g.num_nodes)
    x = system.solve(b)
    assert np.linalg.norm(b - A @ x) <= CG_RTOL * np.linalg.norm(b)
    assert np.allclose(x, np.linalg.solve(A, b), rtol=0.0, atol=1e-9)


def test_cg_products_per_solve_do_not_grow_with_the_grid(monkeypatch):
    # preconditioned by the sine-basis inverse, a solve with w up to 36 takes
    # the same number of step-operator products at 31^2 and 127^2 (5 here);
    # plain CG took 24 and 94
    products = count_stencil_applies(monkeypatch)
    counts = {}
    for m in (31, 127):
        g = Grid((1.0, 1.0), (m, m))
        system = shifted_system(assemble(g), sine_squared_bump(g, 36.0), 5e-4)
        before = products[0]
        system.solve(np.ones(g.num_nodes))
        counts[m] = products[0] - before
    assert counts[31] == counts[127] <= 8


# ---------------------------------------------------- successive solves

def evolve_counting_products(monkeypatch, w, cfg, fresh=False):
    """``evolve`` from ``sin(pi x) sin(pi y)`` on the grid of ``w``, and the
    stencil products of each of its solves.  With ``fresh``, every solve gets
    a newly built system and so starts from ``M^{-1} b``, as a first solve
    does."""
    products = count_stencil_applies(monkeypatch)
    counts = []

    def build(lap, w, tau, identity=1.0):
        system = shifted_system(lap, w, tau, identity)

        def solve(b):
            before = products[0]
            x = (shifted_system(lap, w, tau, identity) if fresh else system).solve(b)
            counts.append(products[0] - before)
            return x
        return SimpleNamespace(solve=solve)

    monkeypatch.setattr(evolution, "shifted_system", build)
    g = w.grid
    u0 = Field(g, sine_squared_bump(g, 1.0) ** 0.5)
    trajectory = evolve(assemble(g), w, u0, cfg)
    monkeypatch.undo()
    return trajectory, counts


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("amplitude", [36.0, 0.022**2],
                         ids=["36 sin^2 sin^2", "(0.022 sin sin)^2"])
def test_extrapolated_start_saves_stencil_products(monkeypatch, scheme, amplitude):
    # from the third solve on, the start extrapolated from the last two
    # solutions needs fewer products than M^{-1} b: measured 3 against 5 for
    # the large w, and 0 against 2 for the small one (implicit Euler)
    g = Grid((1.0, 1.0), (31, 31))
    w = Field(g, sine_squared_bump(g, amplitude))
    cfg = EvolutionConfig(T=0.1, steps=200, scheme=scheme)
    _, extrapolated = evolve_counting_products(monkeypatch, w, cfg)
    _, fresh = evolve_counting_products(monkeypatch, w, cfg, fresh=True)
    assert len(extrapolated) == len(fresh) == 200
    assert np.mean(extrapolated[2:]) <= np.mean(fresh[2:]) - 1.0


def test_constant_w_evolves_bitwise_as_from_the_preconditioned_datum(monkeypatch):
    # the preconditioner's shift is w itself for a constant w >= 0, though
    # the mean of 700.1 over 31^2 nodes rounds away from 700.1, so the
    # extrapolation term vanishes and every solve starts from M^{-1} b, bit
    # for bit (a shift of mean(w), at tau * w = 3.5, moves the start)
    g = Grid((1.0, 1.0), (31, 31))
    assert np.mean(np.full(g.num_nodes, 700.1)) != 700.1
    for scheme in SCHEMES:
        cfg = EvolutionConfig(T=0.1, steps=20, scheme=scheme)
        for value in (0.0, 3.0, 700.1):
            w = Field.constant(g, value)
            extrapolated, _ = evolve_counting_products(monkeypatch, w, cfg)
            fresh, _ = evolve_counting_products(monkeypatch, w, cfg, fresh=True)
            assert np.array_equal(extrapolated.states, fresh.states)
            assert np.array_equal(extrapolated.integral, fresh.integral)


def test_one_system_solves_unrelated_right_hand_sides():
    # the extrapolation of unrelated solutions is a poor start, not a wrong one
    g = Grid((1.0, 1.0), (15, 15))
    lap = assemble(g)
    w, tau = sine_squared_bump(g, 36.0), 5e-3
    A = np.eye(g.num_nodes) + tau * (dense_matrix(lap) + np.diag(w))
    system = shifted_system(lap, w, tau)
    rng = np.random.default_rng(4)
    for scale in (1.0, 1e-3, 1e3, 1e-3, 1.0, 1e3):
        b = scale * rng.standard_normal(g.num_nodes)
        x = system.solve(b)
        assert np.linalg.norm(b - A @ x) <= CG_RTOL * np.linalg.norm(b)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_2d_evolve_matches_a_dense_solve_oracle(scheme):
    g = Grid((1.0, 1.0), (15, 15))
    lap = assemble(g)
    w = sine_squared_bump(g, 36.0)
    u0 = np.sqrt(sine_squared_bump(g, 1.0))
    cfg = EvolutionConfig(T=0.1, steps=100, scheme=scheme)
    trajectory = evolve(lap, Field(g, w), Field(g, u0), cfg)
    reflect = scheme == CRANK_NICOLSON
    tau = 0.5 * cfg.dt if reflect else cfg.dt
    A = np.eye(g.num_nodes) + tau * (dense_matrix(lap) + np.diag(w))
    u, integral = u0, 0.5 * cfg.dt * u0
    for k in range(cfg.steps):
        y = np.linalg.solve(A, u)
        u = 2.0 * y - u if reflect else y
        integral = integral + (0.5 if k == cfg.steps - 1 else 1.0) * cfg.dt * u
    assert np.max(np.abs(trajectory.final().values - u)) <= 1e-8 * np.max(np.abs(u))
    assert np.max(np.abs(trajectory.integral - integral)) <= 1e-8 * np.max(np.abs(integral))


def random_spd_tridiagonal(rng, n):
    """Diagonal and off-diagonal of a strictly diagonally dominant, so SPD,
    tridiagonal matrix; at ``n = 1`` one unread off-diagonal entry."""
    off = rng.uniform(-1.0, 1.0, max(n - 1, 1))
    neighbours = np.zeros(n)
    if n > 1:
        neighbours[:-1] += np.abs(off)
        neighbours[1:] += np.abs(off)
    return neighbours + rng.uniform(0.1, 1.0, n), off


@pytest.mark.parametrize("n", [1, 2, 7, 199, 799])
def test_loaded_lapack_routines_match_scipys_public_ones(n):
    from scipy.linalg import get_lapack_funcs

    pttrf, pttrs = get_lapack_funcs(("pttrf", "pttrs"), (np.empty(0),))
    rng = np.random.default_rng(n)
    diag, off = random_spd_tridiagonal(rng, n)
    b = rng.standard_normal(n)
    factors = laplacian._pttrf(diag, off)
    assert factors[2] == 0
    expected = pttrf(diag, off)
    assert [np.asarray(v).tobytes() for v in factors] == [
        np.asarray(v).tobytes() for v in expected]
    solution = laplacian._pttrs(factors[0], factors[1], b)
    assert [np.asarray(v).tobytes() for v in solution] == [
        np.asarray(v).tobytes() for v in pttrs(expected[0], expected[1], b)]


def test_loaded_lapack_routines_report_an_indefinite_matrix_as_scipys_do():
    from scipy.linalg import get_lapack_funcs

    pttrf = get_lapack_funcs("pttrf", (np.empty(0),))
    diag, off = np.full(7, 2.0), np.full(6, -1.5)  # leading minor 3 is negative
    info = laplacian._pttrf(diag, off)[2]
    assert info == pttrf(diag, off)[2] == 3


def test_a_scipy_without_the_lapack_wrapper_raises_import_error(monkeypatch, tmp_path):
    monkeypatch.setattr(laplacian.importlib.util, "find_spec",
                        lambda name: SimpleNamespace(submodule_search_locations=[str(tmp_path)]))
    with pytest.raises(ImportError) as raised:
        laplacian._load_flapack()
    assert str(raised.value) == f"scipy's LAPACK wrapper _flapack is not in {tmp_path / 'linalg'}"


def test_lapack_wrapper_is_loaded_from_scipys_linalg_directory():
    import scipy.linalg

    path = Path(laplacian._flapack.__file__).resolve()
    assert path.parent == Path(scipy.linalg.__file__).resolve().parent
    assert path.name.startswith("_flapack.")
