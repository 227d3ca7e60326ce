import numpy as np
import pytest
from numpy.testing import assert_allclose

from pseudoherm.catalog import get
from pseudoherm.eigen import (
    TAU_SOLVER,
    EigenSolverError,
    ZeroEigenfunctionError,
    bound_state_filter,
    eig,
    eigenfunction_residual,
    match_levels,
    merge_split_levels,
    report_to_dict,
)
from pseudoherm.generator import derive
from pseudoherm.operators import Grid, build_hamiltonian


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_diagonal_matrix():
    report = eig(np.diag([1.0, 2.0, 3.0]).astype(complex))
    assert_allclose(report.eigenvalues, [1.0, 2.0, 3.0], rtol=0, atol=1e-14)
    assert report.reality_flags.all()


def test_rotation_block_gives_conjugate_pair():
    report = eig(np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex))
    assert_allclose(sorted(report.eigenvalues, key=lambda v: v.imag), [-1j, 1j], atol=1e-14)
    assert not report.reality_flags.any()


def test_eigenvalue_count_and_sorting():
    rng = np.random.default_rng(7)
    report = eig(random_complex(rng, 17))
    assert report.eigenvalues.size == 17
    assert np.all(np.diff(report.eigenvalues.real) >= 0)


def test_residuals_below_solver_tolerance():
    rng = np.random.default_rng(8)
    report = eig(random_complex(rng, 20))
    assert np.max(report.residuals) <= TAU_SOLVER


def test_determinant_oracle():
    rng = np.random.default_rng(9)
    matrix = random_complex(rng, 12)
    det = np.linalg.det(matrix)  # LU factorization path
    product = np.prod(eig(matrix).eigenvalues)
    assert abs(product - det) / abs(det) <= 1e-8


def test_trace_matches_eigenvalue_sum():
    rng = np.random.default_rng(10)
    matrix = random_complex(rng, 16)
    report = eig(matrix)
    assert abs(np.sum(report.eigenvalues) - np.trace(matrix)) <= 1e-8 * np.linalg.norm(
        matrix
    )


def test_similarity_invariance():
    rng = np.random.default_rng(11)
    matrix = random_complex(rng, 12)
    basis = random_complex(rng, 12) + 4.0 * np.eye(12)
    transformed = np.linalg.solve(basis, matrix @ basis)
    original = np.sort_complex(eig(matrix).eigenvalues)
    mapped = np.sort_complex(eig(transformed).eigenvalues)
    assert np.max(np.abs(original - mapped)) <= 1e-6


def test_nonfinite_input_is_solver_error():
    matrix = np.eye(4, dtype=complex)
    matrix[2, 2] = np.nan
    with pytest.raises(EigenSolverError):
        eig(matrix)


# ---------------------------------------------------------------------------
# bound-state filter


def test_free_laplacian_has_no_bound_states():
    grid = Grid(0.0, 10.0, 120)
    h = grid.h
    matrix = (
        np.diag(np.full(grid.n, 2.0 / h**2))
        + np.diag(np.full(grid.n - 1, -1.0 / h**2), 1)
        + np.diag(np.full(grid.n - 1, -1.0 / h**2), -1)
    ).astype(complex)
    report = eig(matrix)
    filtered = bound_state_filter(report, grid, 0.0)
    assert filtered.eigenvalues.size == 0


def test_square_well_bound_states_are_retained():
    grid = Grid(-12.0, 12.0, 400)
    x = grid.points
    h = grid.h
    v = np.where(np.abs(x) < 1.0, -5.0, 0.0)
    matrix = (
        np.diag(2.0 / h**2 + v)
        + np.diag(np.full(grid.n - 1, -1.0 / h**2), 1)
        + np.diag(np.full(grid.n - 1, -1.0 / h**2), -1)
    ).astype(complex)
    filtered = bound_state_filter(eig(matrix), grid, 0.0)
    assert filtered.eigenvalues.size == 2  # the well depth/width admits two
    assert np.all(filtered.eigenvalues.real < 0)


def test_filter_excludes_edge_localized_states():
    grid = Grid(0.0, 10.0, 200)
    x = grid.points
    h = grid.h
    # a dip hugging the left wall binds a state outside the inner 80%
    v = np.where(x < 0.4, -80.0, 0.0)
    matrix = (
        np.diag(2.0 / h**2 + v)
        + np.diag(np.full(grid.n - 1, -1.0 / h**2), 1)
        + np.diag(np.full(grid.n - 1, -1.0 / h**2), -1)
    ).astype(complex)
    report = eig(matrix)
    assert np.any(report.eigenvalues.real < 0)
    filtered = bound_state_filter(report, grid, 0.0)
    assert filtered.eigenvalues.size == 0


# ---------------------------------------------------------------------------
# level matching


def test_match_levels_empty_analytic():
    report = eig(np.diag([1.0, 2.0]).astype(complex))
    assert match_levels(report, [], 1e-3) == []


def test_match_levels_pairs_and_distances():
    report = eig(np.diag([0.2501, 2.0, 7.0]).astype(complex))
    matches = match_levels(report, [0.25, 6.25], 1e-3)
    assert matches[0].matched and matches[0].distance == pytest.approx(1e-4, rel=1e-6)
    assert not matches[1].matched
    assert matches[1].eigenvalue == pytest.approx(7.0)


def test_match_levels_permutation_invariant():
    report = eig(np.diag([0.25, 2.25, 4.0, 6.25]).astype(complex))
    forward = match_levels(report, [0.25, 2.25, 4.0, 6.25], 1e-2)
    backward = match_levels(report, [6.25, 4.0, 2.25, 0.25], 1e-2)
    assert forward == backward


def test_match_levels_is_exclusive():
    report = eig(np.diag([1.0, 5.0]).astype(complex))
    matches = match_levels(report, [1.0, 1.0], 0.5)
    assert [m.matched for m in matches] == [True, False]


# ---------------------------------------------------------------------------
# split defective levels


def test_split_jordan_block_is_one_level_at_its_mean():
    # a Jordan block at 0.5 perturbed by 1e-6 splits into 0.5 -+ 1e-3 with
    # parallel eigenvectors; the edge entries -4 and -5 and those above 2
    # are filtered out
    matrix = np.diag([-4.0, -3.0, -2.0, 0.5, 0.5, 1.0, 3.0, 4.0, 6.0, -5.0]).astype(complex)
    matrix[3, 4] = 1.0
    matrix[4, 3] = 1e-6
    report = eig(matrix)
    assert_allclose(report.eigenvalues[4:6], [0.499, 0.501], rtol=0, atol=1e-9)
    filtered = bound_state_filter(report, Grid(0.0, 1.0, 10), 2.0)
    assert_allclose(filtered.eigenvalues, [-3.0, -2.0, 0.5, 1.0], rtol=0, atol=1e-12)
    assert filtered.group_sizes.tolist() == [1, 1, 2, 1]
    assert report_to_dict(filtered)["group_sizes"] == [1, 1, 2, 1]
    (match,) = match_levels(report, [0.5], 1e-9)
    assert match.matched and abs(match.eigenvalue - 0.5) <= 1e-12


def test_close_levels_with_orthogonal_eigenvectors_stay_separate():
    report = eig(np.diag([1.0, 1.001]).astype(complex))
    merged = merge_split_levels(report)
    assert_allclose(merged.eigenvalues, [1.0, 1.001], rtol=0, atol=0)
    assert merged.group_sizes.tolist() == [1, 1]
    matches = match_levels(report, [1.0, 1.001], 1e-12)
    assert [m.matched for m in matches] == [True, True]


def test_levels_apart_in_the_complex_plane_stay_separate():
    # 1 +- 0.1i share a real part and their eigenvectors are parallel to
    # within 1e-8, but they lie 0.2 apart, beyond SPLIT_WINDOW
    report = eig(np.array([[1 + 0.1j, 1000.0], [0.0, 1 - 0.1j]]))
    merged = merge_split_levels(report)
    assert_allclose(merged.eigenvalues, [1 - 0.1j, 1 + 0.1j], rtol=0, atol=1e-12)
    assert merged.group_sizes.tolist() == [1, 1]


# ---------------------------------------------------------------------------
# eigenfunction residual


def test_particle_in_box_ground_state_residual():
    model = derive(get("morse", {"xi": 1e-8}).spec)  # negligible potential
    grid = Grid(0.0, 1.0, 500)
    residual = eigenfunction_residual(
        model, grid, lambda x: np.sin(np.pi * x), np.pi**2
    )
    assert residual < 1e-3


def test_scalar_only_eigenfunction_is_sampled_point_by_point():
    # a psi written for one x at a time returns one value for an array too
    model = derive(get("morse", {"xi": 1e-8}).spec)
    grid = Grid(0.0, 1.0, 50)

    def vectorized(x):
        return np.sin(np.pi * x)

    def scalar_only(x):
        return np.sin(np.pi * np.ravel(x)[0])

    expected = eigenfunction_residual(model, grid, vectorized, np.pi**2)
    assert_allclose(
        eigenfunction_residual(model, grid, scalar_only, np.pi**2), expected, rtol=1e-12
    )


def test_zero_eigenfunction_is_rejected():
    model = derive(get("morse", {"xi": 1.0}).spec)
    grid = Grid(-2.0, 14.0, 100)
    with pytest.raises(ZeroEigenfunctionError):
        eigenfunction_residual(model, grid, lambda x: np.zeros_like(x), -0.25)


# ---------------------------------------------------------------------------
# report serialization


def test_report_round_trip_to_dict():
    report = eig(np.diag([3.0, 1.0]).astype(complex))
    data = report_to_dict(report)
    assert data["eigenvalues"] == [[1.0, 0.0], [3.0, 0.0]]
    assert all(r <= TAU_SOLVER for r in data["residuals"])
