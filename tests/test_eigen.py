import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from pseudoherm import eigen
from pseudoherm.catalog import get
from pseudoherm.eigen import (
    EigenSolverError,
    SpectrumReport,
    ZeroEigenfunctionError,
    bound_state_filter,
    catalog_states,
    eig,
    eigenfunction_residual,
    match_levels,
    merge_split_levels,
    report_to_dict,
    window_box,
    window_count,
)
from pseudoherm.generator import derive
from pseudoherm.operators import DiscreteOperator, Grid, build_hamiltonian, eigenpair_residuals

TAU_SOLVER = 1e-8


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


@pytest.mark.parametrize("matrix", [
    np.diag([3.0, 1.0, 2.0]).astype(complex),
    np.triu(np.tril(random_complex(np.random.default_rng(14), 12), 1), -1),
    random_complex(np.random.default_rng(13), 30),
], ids=["diagonal", "tridiagonal", "dense"])
def test_band_residuals_are_those_of_the_dense_product(matrix):
    # the full spectrum's residuals come from the bands, as a window's do,
    # band by band or, for a full matrix, as one dense product; shifted
    # values make them large enough to compare beyond rounding
    report = eig(matrix)
    assert np.max(report.residuals) <= TAU_SOLVER
    vectors, values = report.eigenvectors, report.eigenvalues + 1e-3
    dense = np.linalg.norm(matrix @ vectors - vectors * values, axis=0) / (
        np.linalg.norm(matrix) * np.linalg.norm(vectors, axis=0))
    banded = eigenpair_residuals(DiscreteOperator.from_matrix(matrix), values, vectors)
    assert_allclose(banded, dense, rtol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 30), st.sampled_from(["tridiagonal", "full"]),
       st.integers(0, 2**32 - 1), st.integers(-600, 600))
@example(6, "full", 0, -600)
@example(6, "tridiagonal", 0, 600)
def test_residuals_do_not_depend_on_the_matrix_scale(n, kind, seed, k):
    # the residual is a ratio of degree 0 in M and lambda; at 2^-600 the
    # squared entries underflow and at 2^600 they overflow, where every
    # residual read 0 and nan
    matrix = random_complex(np.random.default_rng(seed), n)
    if kind == "tridiagonal":
        matrix = np.triu(np.tril(matrix, 1), -1)
    unscaled = eig(matrix).residuals.max()
    residuals = eig(2.0**k * matrix).residuals
    assert np.all(residuals > 0)
    assert unscaled / 10 <= residuals.max() <= 10 * unscaled


@pytest.mark.parametrize("below", [math.nan, math.inf, -math.inf])
def test_non_finite_window_is_refused(below):
    # -inf is refused too, rather than read as an empty window
    with pytest.raises(ValueError, match="below must be finite, got %s" % below):
        eig(np.diag([1.0, 2.0, 3.0]).astype(complex), below=below)


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


def _greedy_reference(values, analytic, tol):
    """The greedy pass written out: every (distance, level, value) triple
    sorted, each level and value used at most once."""
    levels = sorted(analytic)
    pairs = sorted(
        (abs(values[j] - lv), i, j) for i, lv in enumerate(levels) for j in range(values.size)
    )
    assigned, used = {}, set()
    for distance, i, j in pairs:
        if i not in assigned and j not in used:
            assigned[i] = (complex(values[j]), float(distance))
            used.add(j)
    out = []
    for i, lv in enumerate(levels):
        value, distance = assigned.get(i, (complex("nan"), float("inf")))
        out.append((lv, repr(value), distance, distance <= tol))
    return out


# quarter steps make exact distance ties (0 is 0.25 from both -0.25 and
# 0.25) and duplicated values common
QUARTERS = st.integers(-8, 8).map(lambda k: k / 4.0)


@settings(max_examples=200, deadline=None)
@given(
    analytic=st.lists(QUARTERS, max_size=6),
    values=st.lists(
        st.builds(complex, QUARTERS, st.sampled_from([0.0, 0.5, -0.5])), max_size=8),
    tol=st.sampled_from([0.0, 0.25, 1.0]),
    v_inf=QUARTERS,
    seed=st.integers(0, 2**16),
)
def test_post_processing_matches_its_loop_references(analytic, values, tol, v_inf, seed):
    values = np.sort(np.array(values, dtype=complex))
    n, size = 12, values.size
    # random columns whose edge rows are damped by 1 to 1e-4, so their
    # inner mass falls on both sides of BOUND_MASS_FRACTION
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n, size)) + 1j * rng.standard_normal((n, size))
    edge = np.r_[0, n - 1]
    vectors[edge] *= 10.0 ** rng.uniform(-4.0, 0.0, size)
    report = SpectrumReport(
        eigenvalues=values,
        residuals=np.zeros(size),
        reality_flags=values.imag == 0.0,
        eigenvectors=vectors,
        group_sizes=np.ones(size, dtype=int),
    )
    got = [(m.level, repr(m.eigenvalue), m.distance, m.matched)
           for m in match_levels(report, analytic, tol)]
    assert got == _greedy_reference(values, analytic, tol)

    inner = slice(1, n - 1)  # Grid(0, 1, 12) keeps 80% of 12 rows: 1 to 10
    keep = [
        j for j in range(size)
        if values[j].real < v_inf
        and np.sum(np.abs(vectors[inner, j]) ** 2)
        >= eigen.BOUND_MASS_FRACTION * np.sum(np.abs(vectors[:, j]) ** 2)
    ]
    filtered = bound_state_filter(report, Grid(0.0, 1.0, n), v_inf)
    assert_array_equal(filtered.eigenvalues, values[keep])
    assert_array_equal(filtered.eigenvectors, vectors[:, keep])
    assert filtered.group_sizes.tolist() == [1] * len(keep)


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


def test_eigenfunction_residual_is_that_of_the_hamiltonian():
    # one stencil: a grid eigenvector of H, with psi(a) = psi(b) = 0 at the
    # ends, leaves the residual of the eigenpair
    entry = get("periodic", {})
    model, grid = derive(entry.spec), dataclasses.replace(entry.grid, n=60)
    report = eig(build_hamiltonian(model, grid))
    for vector, value in zip(report.eigenvectors.T, report.eigenvalues):
        psi = lambda x, v=vector: np.concatenate([[0.0], v, [0.0]])
        assert eigenfunction_residual(model, grid, psi, value) <= 1e-10


def test_scalar_only_eigenfunction_is_sampled_point_by_point():
    # a psi written for one x at a time returns one value for an array, or
    # raises TypeError on it (the math module)
    model = derive(get("morse", {"xi": 1e-8}).spec)
    grid = Grid(0.0, 1.0, 50)

    def vectorized(x):
        return np.sin(np.pi * x)

    def scalar_only(x):
        return np.sin(np.pi * np.ravel(x)[0])

    def with_math(x):
        return math.sin(math.pi * x)

    expected = eigenfunction_residual(model, grid, vectorized, np.pi**2)
    for psi in (scalar_only, with_math):
        assert_allclose(
            eigenfunction_residual(model, grid, psi, np.pi**2), expected, rtol=1e-12
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


# ---------------------------------------------------------------------------
# window solve: shift-invert Arnoldi with a certified count


WINDOW_CASES = [
    ("scarf2", {"A": 1.0}),
    ("scarf2", {"A": 3.0}),
    ("scarf2", {"A": 4.0}),
    ("scarf2", {"A": 5.0}),
    ("periodic", {}),
    ("morse", {"xi": 0.5}),
    ("morse", {"xi": 1.0}),
    ("morse", {"xi": 2.0}),
]


def _catalog_hamiltonian(name, env, n=400):
    entry = get(name, env)
    grid = Grid(entry.grid.a, entry.grid.b, n)
    return entry, grid, build_hamiltonian(derive(entry.spec), grid)


@pytest.mark.parametrize("name, env", WINDOW_CASES, ids=lambda v: str(v))
def test_window_solve_agrees_with_dense(name, env):
    entry, grid, hamiltonian = _catalog_hamiltonian(name, env)
    below = entry.spectrum_window
    dense = eig(hamiltonian)
    window = eig(hamiltonian, below=below)
    in_window = dense.eigenvalues[dense.eigenvalues.real < below]
    assert window.certified_count == in_window.size == window.eigenvalues.size
    assert window.below == below
    # raw values: a split exceptional-point pair has condition number ~500
    for value in window.eigenvalues:
        assert np.min(np.abs(in_window - value)) <= 1e-8
    assert np.max(window.residuals, initial=0.0) <= TAU_SOLVER
    assert window.eigenvectors.shape == (grid.n, window.eigenvalues.size)
    dense_states, dense_matches = catalog_states(dense, grid, entry, 1e-2)
    window_states, window_matches = catalog_states(window, grid, entry, 1e-2)
    assert_allclose(window_states.eigenvalues, dense_states.eigenvalues, rtol=0, atol=1e-10)
    assert window_states.group_sizes.tolist() == dense_states.group_sizes.tolist()
    for got, want in zip(window_matches, dense_matches, strict=True):
        assert got.matched == want.matched
        if want.matched:
            assert abs(got.eigenvalue - want.eigenvalue) <= 1e-10


def test_window_count_of_the_discrete_laplacian():
    # eigenvalues (2 - 2 cos(k pi / (n + 1))) / h^2, k = 1..n, all real
    n, h = 300, 0.05
    diag = np.full(n, 2.0 / h**2, dtype=complex)
    off = np.full(n - 1, -1.0 / h**2, dtype=complex)
    exact = (2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))) / h**2
    for below in (0.5 * (exact[0] + exact[1]), 0.5 * (exact[9] + exact[10]), -1.0):
        box = window_box(diag, off, off, below)
        count = 0 if box is None else window_count(diag, off * off, box)[0]
        assert count == np.count_nonzero(exact < below)


def test_window_solve_on_a_general_tridiagonal_matrix():
    # complex, unequal off-diagonals: the box comes from the Hermitian and
    # skew-Hermitian parts
    rng = np.random.default_rng(12)
    n = 120
    matrix = (
        np.diag(rng.standard_normal(n) * 3 + 1j * rng.standard_normal(n))
        + np.diag(rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1), 1)
        + np.diag(rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1), -1)
    )
    dense = eig(matrix).eigenvalues
    real_parts = np.sort(dense.real)
    below = 0.5 * (real_parts[14] + real_parts[15])
    report = eig(matrix, below=below)
    assert report.certified_count == 15
    assert_allclose(
        np.sort_complex(report.eigenvalues), np.sort_complex(dense[dense.real < below]),
        rtol=0, atol=1e-10,
    )


# the argument principle's count of the window box against the dense count of
# the same box; below = 0.  The first two aliased to 18 (dense 9) and 174
# (dense 142) while a segment was halved by its sampled phase turn alone
MISCOUNT_CASES = [
    pytest.param("morse", {"xi": 1.0}, Grid(-4.0, 30.0, 400), id="morse-xi1-wide-box"),
    pytest.param("scarf2", {"A": 4001.0}, 300, id="scarf2-A4001-N300"),
    pytest.param("scarf2", {"A": 3.0}, 300, id="scarf2-A3-N300"),
]


@pytest.mark.filterwarnings("ignore:.*underresolves:UserWarning")
@pytest.mark.parametrize("name, env, grid", MISCOUNT_CASES)
def test_window_count_equals_the_dense_count_in_its_box(name, env, grid):
    entry = get(name, env)
    if not isinstance(grid, Grid):
        grid = Grid(entry.grid.a, entry.grid.b, grid)
    hamiltonian = build_hamiltonian(derive(entry.spec), grid)
    diag, lower, upper = (hamiltonian.bands[k] for k in (0, -1, 1))
    box = window_box(diag, lower, upper, 0.0)
    dense = np.linalg.eigvals(hamiltonian.matrix)
    count = window_count(diag, lower * upper, box)[0]
    assert count == np.count_nonzero(eigen._inside(box, dense))


@pytest.mark.parametrize("name, env, count", [
    ("scarf2", {"A": 3.0}, 2), ("scarf2", {"A": 4.0}, 3), ("scarf2", {"A": 5.0}, 3),
    ("periodic", {}, 8), ("morse", {"xi": 0.5}, 0), ("morse", {"xi": 1.0}, 1),
    ("morse", {"xi": 2.0}, 2),
], ids=lambda v: str(v))
def test_window_count_of_the_catalog_boxes(name, env, count):
    # the dense counts of the same boxes at N = 1000
    entry, _, hamiltonian = _catalog_hamiltonian(name, env, n=1000)
    diag, lower, upper = (hamiltonian.bands[k] for k in (0, -1, 1))
    box = window_box(diag, lower, upper, entry.spectrum_window)
    assert box[1] == entry.spectrum_window  # each window lies below the Gershgorin bound
    assert window_count(diag, lower * upper, box)[0] == count


CATALOG_BOXES = [("scarf2", {"A": 3.0}), ("scarf2", {"A": 4.0}), ("scarf2", {"A": 5.0}),
                 ("periodic", {}), ("morse", {"xi": 0.5}), ("morse", {"xi": 1.0}),
                 ("morse", {"xi": 2.0})]
# deep ladders, whose continuum next to the box edge refines the most
DEEP_LADDER_BOXES = [("scarf2", {"A": 20.0}), ("scarf2", {"A": 40.0})]


@pytest.mark.filterwarnings("ignore:.*underresolves:UserWarning")
@pytest.mark.parametrize("n, points", [
    (1000, [73, 73, 81, 65, 70, 82, 138, 257, 483]),
    (2000, [73, 73, 81, 65, 70, 82, 141, 259, 489]),
    (8000, [73, 73, 81, 65, 70, 83, 144, 259, 489]),
])
def test_window_count_refines_the_catalog_contours_from_16_points_a_side(n, points):
    # the certified count in each box, and the points of its final contour,
    # refined from 4 * 16 + 1 = 65 by the d/dz log det rule
    counts = [2, 3, 3, 8, 0, 1, 2, 11, 21]
    for (name, env), count, want in zip(CATALOG_BOXES + DEEP_LADDER_BOXES, counts, points,
                                        strict=True):
        entry, _, hamiltonian = _catalog_hamiltonian(name, env, n=n)
        diag, lower, upper = (hamiltonian.bands[k] for k in (0, -1, 1))
        box = window_box(diag, lower, upper, entry.spectrum_window)
        assert window_count(diag, lower * upper, box)[:2] == (count, want)


@pytest.mark.parametrize("name, env", [case for case in CATALOG_BOXES if case[1] != {"xi": 0.5}],
                         ids=lambda v: str(v))
def test_shift_sits_at_the_mean_of_the_certified_eigenvalues(name, env):
    entry, _, hamiltonian = _catalog_hamiltonian(name, env, n=1000)
    diag, lower, upper = (hamiltonian.bands[k] for k in (0, -1, 1))
    re_lo, re_hi, im_lo, im_hi = window_box(diag, lower, upper, entry.spectrum_window)
    report = eig(hamiltonian, below=entry.spectrum_window)
    side = max(re_hi - re_lo, im_hi - im_lo)
    assert abs(report.sigma - np.mean(report.eigenvalues)) <= 1e-2 * side
    assert re_lo <= report.sigma.real <= re_hi and im_lo <= report.sigma.imag <= im_hi


@pytest.mark.filterwarnings("ignore:.*underresolves:UserWarning")
def test_deep_ladder_solves_at_a_smaller_krylov_dimension():
    # at the box centre this window took m = 271
    entry, _, hamiltonian = _catalog_hamiltonian("scarf2", {"A": 40.0}, n=2000)
    report = eig(hamiltonian, below=entry.spectrum_window)
    assert report.certified_count == report.eigenvalues.size == 21
    assert report.krylov_dimension <= 181


@pytest.mark.filterwarnings("ignore:.*underresolves:UserWarning")
def test_deepest_catalog_ladder_restarts_its_products_and_solves():
    # the running product of each factor of H - sigma falls past 2^-600
    # once in its 1000 rows, so it restarts once, with a carry
    entry, _, hamiltonian = _catalog_hamiltonian("scarf2", {"A": 100.0}, n=1000)
    report = eig(hamiltonian, below=entry.spectrum_window)
    assert report.certified_count == report.eigenvalues.size == 53
    assert report.krylov_dimension == 406
    diag, lower, upper = (hamiltonian.bands[k] for k in (0, -1, 1))
    forward, _, backward = eigen._tridiagonal_lu(diag - report.sigma, lower, upper)
    for _, _, segments in (forward, backward):
        assert len(segments) == 2 and segments[1][2] != 0


def test_shift_stays_off_a_lone_eigenvalue():
    # the moment puts the mean within 1e-5 of 1 + 1j; SHIFT_OFFSET moves
    # sigma 3e-4 off it, so no pivot of H - sigma vanishes to rounding
    report = eig(np.diag([1 + 1j, 5]), below=3)
    assert report.certified_count == 1
    assert_allclose(report.eigenvalues, [1 + 1j], rtol=0, atol=1e-12)
    assert abs(report.sigma - (1 + 1j)) >= 1e-5


def test_window_solve_of_one_eigenvalue_of_a_complex_tridiagonal():
    matrix = (np.diag([2 + 1j, 5 - 1j, 7 + 0.5j, 9]) + np.diag([0.3 + 0.1j, 0.2j, 0.5], 1)
              + np.diag([0.1, 0.4 - 0.2j, 0.1j], -1))
    dense = np.linalg.eigvals(matrix)
    report = eig(matrix, below=3.5)
    assert report.certified_count == 1
    assert_allclose(report.eigenvalues, dense[dense.real < 3.5], rtol=0, atol=1e-12)


@pytest.mark.parametrize("below", [1.0001, 0.9999])
def test_window_solve_of_a_double_eigenvalue_next_to_the_box_edge(below):
    # the double root turns the phase by nearly 2 pi across one segment of
    # the first pass, which reads as a small turn, and the trapezoid of
    # f'/f there cancels too; only the size of f'/f at its ends halves it
    matrix = np.diag([1 + 1j, 1 + 1j, 0, 3])
    dense = np.linalg.eigvals(matrix)
    report = eig(matrix, below=below)
    assert_allclose(report.eigenvalues, np.sort_complex(dense[dense.real < below]),
                    rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1), place=st.floats(0.0, 1.0))
def test_window_count_equals_the_dense_count_on_random_tridiagonals(n, seed, place):
    # below from left of every eigenvalue to right of them all
    rng = np.random.default_rng(seed)
    diag, lower, upper = _tridiagonal(rng, n)
    dense = np.linalg.eigvals(np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1))
    below = dense.real.min() - 0.5 + place * (np.ptp(dense.real) + 1.0)
    # an eigenvalue within rounding of below is on the contour, in or out
    assume(np.min(np.abs(dense.real - below)) > 1e-9 * max(1.0, np.max(np.abs(dense))))
    box = window_box(diag, lower, upper, below)
    count = 0 if box is None else window_count(diag, lower * upper, box)[0]
    assert count == np.count_nonzero(dense.real < below)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1), k=st.floats(0.0, 6.0),
       place=st.floats(0.05, 0.95))
def test_window_count_equals_the_dense_count_on_long_thin_boxes(n, seed, k, place):
    # a diagonal stretched 10^k times along Re spreads the eigenvalues that
    # much wider along Re than along Im; the first contour gives every side
    # 16 points, however long, so the guard alone refines the long sides
    rng = np.random.default_rng(seed)
    diag, lower, upper = _tridiagonal(rng, n)
    diag = 10.0**k * diag.real + 1j * diag.imag
    dense = np.linalg.eigvals(np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1))
    below = dense.real.min() + place * np.ptp(dense.real)
    assume(np.min(np.abs(dense.real - below)) > 1e-9 * max(1.0, np.max(np.abs(dense))))
    box = window_box(diag, lower, upper, below)
    count = 0 if box is None else window_count(diag, lower * upper, box)[0]
    assert count == np.count_nonzero(dense.real < below)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    offset=st.floats(1e-4, 1e-3),
    side=st.sampled_from([-1.0, 1.0]),
)
def test_window_count_of_a_double_eigenvalue_next_to_the_box_edge(n, seed, offset, side):
    # a diagonal whose first two entries repeat an eigenvalue offset from below
    rng = np.random.default_rng(seed)
    diag = 2.0 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    diag[1] = diag[0]
    below = diag[0].real + side * offset
    assume(np.min(np.abs(diag[2:].real - below), initial=1.0) > 1e-6)
    zero = np.zeros(n - 1, dtype=complex)
    box = window_box(diag, zero, zero, below)
    count = 0 if box is None else window_count(diag, zero, box)[0]
    assert count == np.count_nonzero(diag.real < below)


def test_window_solve_refuses_a_wider_band():
    with pytest.raises(ValueError, match="tridiagonal"):
        eig(np.ones((5, 5), dtype=complex), below=0.0)


def test_window_solve_below_every_eigenvalue_is_empty():
    report = eig(np.diag([1.0, 2.0, 3.0]).astype(complex), below=0.5)
    assert report.certified_count == 0
    assert report.eigenvalues.size == 0
    assert report_to_dict(report)["certified_count"] == 0


@pytest.mark.parametrize("below", [1e4, 1e10, 1e50, 1e308])
def test_window_far_above_the_spectrum_keeps_its_digits(below):
    # the box ends just past the Gershgorin bound 3 instead of at below, so
    # sigma + 1/theta does not cancel the eigenvalues' digits away
    report = eig(np.diag([1.0, 2.0, 3.0]).astype(complex), below=below)
    assert report.certified_count == 3
    assert report.below == below
    assert_allclose(report.eigenvalues, [1.0, 2.0, 3.0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("gap", [1e-3, 0.5, 1.0, 10.0])
@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 3.0, -1.0, 7.25, 100.0])
def test_window_solve_of_a_multiple_of_the_identity(c, n, gap):
    # every Krylov step closes an invariant subspace, so
    # Arnoldi goes on from fresh vectors until it holds all n eigenvectors
    report = eig(c * np.eye(n), below=c + gap)
    assert report.certified_count == n
    assert_allclose(report.eigenvalues, np.full(n, c), rtol=0, atol=1e-12 * abs(c))


def test_window_solve_of_a_repeated_diagonal():
    report = eig(np.diag([1.0, 1.0, 2.0, 2.0, 3.0]), below=2.5)
    assert report.certified_count == 4
    assert_allclose(report.eigenvalues, [1.0, 1.0, 2.0, 2.0], rtol=0, atol=1e-12)


def _tridiagonal(rng, n):
    """Random complex (diag, lower, upper) of an n x n tridiagonal matrix."""
    return [rng.standard_normal(k) + 1j * rng.standard_normal(k) for k in (n, n - 1, n - 1)]


@settings(max_examples=100, deadline=None)
@given(
    block=st.integers(1, 3),
    copies=st.integers(2, 3),
    tail=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    split=st.integers(0, 10),
)
def test_window_solve_of_a_reducible_tridiagonal_matches_dense(block, copies, tail, seed, split):
    # a block repeated along the diagonal, a random tail, and some couplings
    # cut: eigenvalues repeat with independent eigenvectors, and Arnoldi's
    # Krylov space turns invariant before it holds the window
    rng = np.random.default_rng(seed)
    parts = [_tridiagonal(rng, block)] * copies + ([_tridiagonal(rng, tail)] if tail else [])
    diag = np.concatenate([d for d, _, _ in parts])
    n = diag.size
    # the couplings of each part, and 0 where two parts meet
    lower, upper = (np.concatenate([np.append(part[k], 0.0) for part in parts])[:-1] for k in (1, 2))
    cut = rng.random(n - 1) < 0.25
    lower[cut], upper[cut] = 0.0, 0.0
    matrix = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
    dense = np.linalg.eigvals(matrix)
    real_parts = np.sort(dense.real)
    i = split % (n - 1)
    scale = max(1.0, np.max(np.abs(dense)))
    # below halfway between two real parts that (nearly) coincide puts an
    # eigenvalue on the contour, where no count is defined
    assume(real_parts[i + 1] - real_parts[i] > 1e-2 * scale)
    below = 0.5 * (real_parts[i] + real_parts[i + 1])
    report = eig(matrix, below=below)
    want = list(dense[dense.real < below])
    assert report.certified_count == len(want) == report.eigenvalues.size
    for value in report.eigenvalues:  # as multisets: each value takes its nearest dense one
        nearest = int(np.argmin(np.abs(np.array(want) - value)))
        assert abs(want.pop(nearest) - value) <= 1e-8 * scale


def test_zero_matrix_has_zero_residuals():
    # ||0 v - 0 v|| / (||0||_F ||v||) is 0, not 0/0, on both paths
    dense = eig(np.zeros((3, 3)))
    window = eig(np.zeros((3, 3)), below=1.0)
    assert window.certified_count == 3
    for report in (dense, window):
        assert_allclose(report.eigenvalues, np.zeros(3), rtol=0, atol=1e-15)
        assert_array_equal(report.residuals, np.zeros(3))


def test_window_solve_is_repeatable():
    _, _, hamiltonian = _catalog_hamiltonian("periodic", {})
    first = eig(hamiltonian, below=17.0)
    again = eig(hamiltonian, below=17.0)
    assert np.array_equal(first.eigenvalues, again.eigenvalues)
    assert np.array_equal(first.eigenvectors, again.eigenvectors)


def test_window_solve_that_loses_a_value_is_a_solver_error(monkeypatch):
    original = eigen._shift_invert_ritz

    def lossy(*args):  # a Krylov step that drops one converged pair
        for m, values, vectors in original(*args):
            yield m, values[1:], vectors[:, 1:]

    monkeypatch.setattr(eigen, "_shift_invert_ritz", lossy)
    _, _, hamiltonian = _catalog_hamiltonian("scarf2", {"A": 4.0}, n=200)
    with pytest.raises(EigenSolverError, match="argument principle counts 3"):
        eig(hamiltonian, below=0.0)


def test_window_solve_that_reaches_the_krylov_cap_names_it(monkeypatch):
    monkeypatch.setattr(eigen, "KRYLOV_CAP", 8)
    with pytest.raises(EigenSolverError, match=(
            r"^\d+ converged Ritz values below 20.5, but the argument principle counts 20"
            r" eigenvalues there; Arnoldi stopped at Krylov dimension 8, the cap min\(N, 8\)$")):
        eig(np.diag(np.arange(1.0, 31.0)), below=20.5)


def test_vanishing_pivot_is_a_solver_error():
    # the shift is the mean of the window's eigenvalues t, -1 and 2, moved by
    # SHIFT_OFFSET: sigma(t) has slope 1/3, so Newton's step t += 3/2 (sigma -
    # t) puts the first diagonal entry t, an eigenvalue, onto sigma; the entry
    # 1000, outside the window, sets the rounding floor of a pivot
    rest = [-1.0, 2.0, 3.5, 1000.0]
    zero = np.zeros(len(rest), dtype=complex)

    def shift(t):
        diag = np.array([t] + rest, dtype=complex)
        return window_count(diag, zero, window_box(diag, zero, zero, 3.0))[2]

    t = 0.0
    for _ in range(12):  # each step cuts |sigma(t) - t| by about 100
        if abs(shift(t) - t) <= np.finfo(float).eps * 1000.0:
            break
        t += 1.5 * (shift(t) - t)
    assert abs(shift(t) - t) <= np.finfo(float).eps * 1000.0
    with pytest.raises(EigenSolverError, match="pivot 1 of"):
        eig(np.diag([t] + rest), below=3.0)


def test_factorization_stops_at_the_first_vanished_pivot():
    # u_2 = 1 - 1 * 1 / 1 = 0; the recurrence must not go on to divide by it
    diag = np.array([1.0, 1.0, 5.0], dtype=complex)
    lower, upper = np.array([1.0, 2.0], dtype=complex), np.array([1.0, 3.0], dtype=complex)
    with pytest.raises(EigenSolverError, match="pivot 2 of the shifted factorization vanished"):
        eigen._tridiagonal_lu(diag, lower, upper)


def _zero_minor_on_row_17(n=20):
    """Bands whose leading minors are exact: D_j = j + 1 for j <= 16 (d_j = 2,
    couplings 1), then D_17 = 16 * 17 - 17 * 16 = 0 on row 17, so that
    the pivot u_17 = D_17 / D_16 vanishes, while det(M) does not."""
    diag = np.full(n, 2.0 + 0j)
    diag[16] = 16.0
    lower, upper = np.ones(n - 1, dtype=complex), np.ones(n - 1, dtype=complex)
    lower[15] = 17.0
    return diag, lower, upper


def test_factorization_stops_at_a_vanished_pivot_on_row_17():
    diag, lower, upper = _zero_minor_on_row_17()
    with pytest.raises(EigenSolverError, match="pivot 17 of the shifted factorization vanished"):
        eigen._tridiagonal_lu(diag, lower, upper)


def _dense_det(diag, lower, upper, z):
    """(det(M - z), d/dz log det(M - z) = -tr((M - z)^-1)) at each point z."""
    dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
    shifted = [dense - point * np.eye(diag.size) for point in z]
    return (np.array([np.linalg.det(m) for m in shifted]),
            np.array([-np.trace(np.linalg.inv(m)) for m in shifted]))


def test_blocked_phase_passes_a_zero_minor_inside_a_block():
    # D_17 vanishes at z = 0, inside the third block of 9 rows; the blocked
    # phase goes on to det(M - z)
    diag, lower, upper = _zero_minor_on_row_17()
    z = np.array([0.0, 0.5j])
    det, slope = _dense_det(diag, lower, upper, z)
    phase, log_det, got_slope = eigen._blocked_phase(diag, lower * upper, z)
    assert_allclose(phase, det / np.abs(det), rtol=1e-12)
    assert_allclose(log_det, np.log(np.abs(det)), rtol=1e-12)
    assert_allclose(got_slope, slope, rtol=1e-10)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
    gap=st.sampled_from([1e-6, 1e-3, 1.0]),
)
def test_blocked_phase_is_the_dense_determinant_phase(n, seed, gap):
    # random complex tridiagonals of every length, most not a multiple of
    # the block length, at points a gap from eigenvalues and at random ones
    rng = np.random.default_rng(seed)
    diag, lower, upper = _tridiagonal(rng, n)
    dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
    near = np.linalg.eigvals(dense)[:4] + gap * np.exp(2j * np.pi * rng.random(min(n, 4)))
    z = np.concatenate((near, 3 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))))
    # rounding in det(M - z) grows like 1/gap next to an eigenvalue; measured
    # on 3000 such draws: 1.5e-9 at gap 1e-6, 1.9e-12 at 1e-3, 1.2e-13 at 1
    tol = np.concatenate((np.full(near.size, 1e-11 / gap), np.full(4, 1e-11)))
    phase, log_det, slope = eigen._blocked_phase(diag, lower * upper, z)
    det, want_slope = _dense_det(diag, lower, upper, z)
    assert np.all(np.abs(phase - det / np.abs(det)) <= tol)
    assert np.all(np.abs(log_det - np.log(np.abs(det))) <= tol)
    assert np.all(np.abs(slope - want_slope) <= tol * np.abs(want_slope))


def test_blocked_phase_passes_a_zero_minor_on_a_block_edge():
    # n = 28 makes blocks of 11 rows, padded by 5: row 17, where D_17 = 0,
    # ends the second block, and det(M - z) does not vanish
    diag, lower, upper = _zero_minor_on_row_17(28)
    z = np.array([0.0, 0.5j])
    det, slope = _dense_det(diag, lower, upper, z)
    phase, log_det, got_slope = eigen._blocked_phase(diag, lower * upper, z)
    assert_allclose(phase, det / np.abs(det), rtol=1e-12)
    assert_allclose(log_det, np.log(np.abs(det)), rtol=1e-12)
    assert_allclose(got_slope, slope, rtol=1e-10)


def test_blocked_phase_through_an_eigenvalue_on_a_block_edge_is_a_solver_error():
    # n = 20 makes blocks of 9 rows, padded by 7: D_11 = 0 at z = 11 ends the
    # second block, and with no couplings every later minor, det(M - z) too, vanishes
    diag = np.arange(1.0, 21.0).astype(complex)
    with pytest.raises(EigenSolverError, match=r"det\(H - z\) vanished on the counting contour"):
        eigen._blocked_phase(diag, np.zeros(19, dtype=complex), np.array([11.0, 0.5j]))


def test_contour_through_an_eigenvalue_is_a_solver_error():
    # the box's first corner is the eigenvalue 17 = d_17, so D_17 vanishes
    # there, and with it det(M - z)
    diag = np.arange(1.0, 21.0).astype(complex)
    with pytest.raises(EigenSolverError, match=r"det\(H - z\) vanished on the counting contour"):
        window_count(diag, np.zeros(19, dtype=complex), (17.0, 30.0, 0.0, 1.0))


def _solve_and_backward_error(diag, lower, upper, rhs):
    """x from the prefix-product scans, with its normwise backward error
    ||Mx - b|| / (||M|| ||x|| + ||b||) in the max norm (Rigal & Gaches)."""
    x = eigen._tridiagonal_solve(eigen._tridiagonal_lu(diag, lower, upper), rhs)
    applied = diag * x
    applied[:-1] += upper * x[1:]
    applied[1:] += lower * x[:-1]
    rows = np.abs(diag)
    rows[:-1] += np.abs(upper)
    rows[1:] += np.abs(lower)
    scale = np.max(rows) * np.max(np.abs(x)) + np.max(np.abs(rhs))
    return x, np.max(np.abs(applied - rhs)) / scale


def _dominant_tridiagonal(rng, n):
    """A random complex tridiagonal matrix with |d_j| = 1 + |l_(j-1)| + |u_j|."""
    lower = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    upper = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    rows = np.abs(np.r_[0, lower]) + np.abs(np.r_[upper, 0])
    return (1.0 + rows) * np.exp(2j * np.pi * rng.random(n)), lower, upper


def _shifted_catalog_hamiltonian(name, env, n):
    """The bands of H - sigma for a catalog model on n points, with sigma
    the window solver's shift, by the mean of the eigenvalues it counts in
    its box, or the box centre where it counts none and factors nothing."""
    entry, _, hamiltonian = _catalog_hamiltonian(name, env, n)
    diag, lower, upper = (hamiltonian.bands[k] for k in (0, -1, 1))
    box = window_box(diag, lower, upper, entry.spectrum_window)
    sigma = eig(hamiltonian, below=entry.spectrum_window).sigma
    if sigma is None:
        sigma = complex(0.5 * (box[0] + box[1]), 0.5 * (box[2] + box[3]))
    return diag - sigma, lower, upper


@pytest.mark.filterwarnings("ignore:.*underresolves:UserWarning")
@pytest.mark.parametrize("n", [3, 16, 17, 1000, 4097])
@pytest.mark.parametrize("case", ["random", "scarf2", "periodic", "morse"])
def test_tridiagonal_solve_agrees_with_a_dense_solve(case, n):
    rng = np.random.default_rng(n)
    if case == "random":
        diag, lower, upper = _dominant_tridiagonal(rng, n)
    else:
        env = {"scarf2": {"A": 4.0}, "periodic": {}, "morse": {"xi": 2.0}}[case]
        diag, lower, upper = _shifted_catalog_hamiltonian(case, env, n)
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x, backward_error = _solve_and_backward_error(diag, lower, upper, rhs)
    assert backward_error <= 1e-14
    if n <= 1000:
        reference = np.linalg.solve(np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1), rhs)
    else:  # LAPACK's banded solver: a dense complex 4097 x 4097 matrix takes 268 MB
        from scipy.linalg import solve_banded

        reference = solve_banded((1, 1), np.array([np.r_[0, upper], diag, np.r_[lower, 0]]), rhs)
    # looser than the backward error: H - sigma has condition numbers up to
    # 8e5 at n = 1000 (periodic), and the gap measured 7e-12 at most
    assert np.max(np.abs(x - reference)) <= 1e-10 * np.max(np.abs(reference))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_tridiagonal_solve_matches_dense_on_dominant_matrices(n, seed):
    # banded against dense: the prefix-product scans reproduce np.linalg.solve
    rng = np.random.default_rng(seed)
    diag, lower, upper = _dominant_tridiagonal(rng, n)
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x, backward_error = _solve_and_backward_error(diag, lower, upper, rhs)
    assert backward_error <= 1e-14
    dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
    assert_allclose(x, np.linalg.solve(dense, rhs), rtol=0, atol=1e-12 * np.max(np.abs(x)))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_lu_pivots_are_ratios_of_leading_minors(n, seed):
    # banded against dense: the LU pivots are det(M_(1..j)) / det(M_(1..j-1));
    # a diagonally dominant M keeps every minor away from zero
    rng = np.random.default_rng(seed)
    diag, lower, upper = _dominant_tridiagonal(rng, n)
    dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
    minors = np.array([1.0] + [np.linalg.det(dense[:j, :j]) for j in range(1, n + 1)])
    pivots = 1.0 / eigen._tridiagonal_lu(diag, lower, upper)[1]
    assert_allclose(pivots, minors[1:] / minors[:-1], rtol=1e-10)


def test_overflowing_doubling_coefficients_are_a_solver_error():
    # |m_j| is about 12, so the product over a span of 300 rows overflows
    # although the solution of a right-hand side like e_(n-1) does not; a NaN
    # from inf * 0 must never reach Arnoldi
    n = 600
    diag = np.full(n, 3.0 + 1.0j)
    lower, upper = np.full(n - 1, 30.0 + 0j), np.full(n - 1, 0.1 + 0j)
    with pytest.raises(EigenSolverError, match="overflow"):
        eigen._tridiagonal_lu(diag, lower, upper)


def _decaying_tridiagonal(rng, n, zeros):
    """A random complex tridiagonal matrix whose couplings are 2^-10 to
    2^-40 of its diagonal, so that the running product of each factor's
    multipliers falls by about 2^-25 a row, with a fraction `zeros` of its
    couplings set to zero."""
    lower, upper = 2.0 ** -rng.uniform(10, 40, (2, n - 1)) * np.exp(2j * np.pi * rng.random((2, n - 1)))
    lower[rng.random(n - 1) < zeros] = 0
    upper[rng.random(n - 1) < zeros] = 0
    return (1.0 + rng.random(n)) * np.exp(2j * np.pi * rng.random(n)), lower, upper


def _assert_solves_like_dense(diag, lower, upper, rng):
    rhs = rng.standard_normal(diag.size) + 1j * rng.standard_normal(diag.size)
    x, backward_error = _solve_and_backward_error(diag, lower, upper, rhs)
    assert backward_error <= 1e-14
    dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
    assert_allclose(x, np.linalg.solve(dense, rhs), rtol=0, atol=1e-12 * np.max(np.abs(x)))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(100, 300), seed=st.integers(0, 2**32 - 1))
def test_tridiagonal_solve_carries_across_restarted_products(n, seed):
    # 2500 to 7500 bits of decay: each factor restarts its product 4 to 12
    # times, and each restart carries x_(start-1) in
    rng = np.random.default_rng(seed)
    diag, lower, upper = _decaying_tridiagonal(rng, n, zeros=0.0)
    forward, _, backward = eigen._tridiagonal_lu(diag, lower, upper)
    assert min(len(forward[2]), len(backward[2])) >= 4
    _assert_solves_like_dense(diag, lower, upper, rng)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.sampled_from([0.05, 0.3, 0.7, 1.0]),
)
def test_tridiagonal_solve_restarts_at_zero_couplings(n, seed, zeros):
    # a zero coupling restarts the recurrence with no carry, inside a
    # segment of the running product or at its start
    rng = np.random.default_rng(seed)
    _assert_solves_like_dense(*_decaying_tridiagonal(rng, n, zeros), rng)


def test_diagonal_matrix_factors_without_a_restart_per_row():
    # every coupling is zero: each row of both factors restarts its
    # recurrence, but the running product restarts only every RESTART_BITS
    # rows, where its factors of 1/2 reach 2^-RESTART_BITS, and never carries
    n = 8000
    diag = np.arange(1.0, n + 1.0) + 0.5j
    zero = np.zeros(n - 1, dtype=complex)
    forward, inverse, backward = eigen._tridiagonal_lu(diag, zero, zero)
    for _, _, segments in (forward, backward):
        assert len(segments) == n // eigen.RESTART_BITS + 1
        assert not any(carry for _, _, carry, _, _ in segments)
    rhs = np.random.default_rng(8000).standard_normal(n) + 0j
    x = eigen._tridiagonal_solve((forward, inverse, backward), rhs)
    assert_allclose(x, rhs / diag, rtol=0, atol=4e-16 * np.max(np.abs(rhs / diag)))


def test_factorization_memory_does_not_grow_with_log_n():
    # recursive doubling kept ceil(log2 N) = 17 coefficient arrays per
    # factor at N = 128000, 77 MB in all; the prefix products keep two each
    n = 128000
    rng = np.random.default_rng(n)
    diag, lower, upper = _dominant_tridiagonal(rng, n)
    tracemalloc.start()
    try:
        eigen._tridiagonal_lu(diag, lower, upper)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * diag.nbytes  # 32.8 MB
