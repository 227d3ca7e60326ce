import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pseudoherm.catalog import get
from pseudoherm.expressions import EvaluationError
from pseudoherm.generator import SpecError, derive
from pseudoherm.operators import (
    DiscreteOperator,
    Grid,
    GridMismatchError,
    build_eta,
    build_hamiltonian,
    compose,
    hermiticity_residual,
    intertwining_residual,
    matrix_from_csv,
    matrix_to_csv,
    verify_residuals,
)


def free_model():
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return types.SimpleNamespace(V=zero, W=zero, G=zero, Q=zero)


def catalog_model(name, **params):
    return derive(get(name, params).spec)


# ---------------------------------------------------------------------------
# Grid


def test_grid_points_and_spacing():
    grid = Grid(0.0, 4.0, 3)
    assert grid.h == 1.0
    assert_allclose(grid.points, [1.0, 2.0, 3.0], rtol=0, atol=0)


def test_grid_validation():
    with pytest.raises(SpecError):
        Grid(1.0, 1.0, 10)
    with pytest.raises(SpecError):
        Grid(0.0, 1.0, 2)


# ---------------------------------------------------------------------------
# Hamiltonian assembly


def test_free_hamiltonian_is_discrete_laplacian():
    op = build_hamiltonian(free_model(), Grid(0.0, 4.0, 3))
    expected = np.array(
        [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]], dtype=complex
    )
    assert_allclose(op.matrix, expected, rtol=0, atol=0)


def test_scarf_diagonal_entry_at_origin():
    with pytest.warns(UserWarning):  # deliberately coarse h = 1
        op = build_hamiltonian(catalog_model("scarf2", A=2.0), Grid(-2.0, 2.0, 3))
    assert op.matrix[1, 1] == pytest.approx(2.0 - 1.75 + 0j, abs=1e-12)


def test_hermitian_when_w_vanishes():
    model = free_model()
    model.V = lambda x: np.asarray(x, dtype=float) ** 2
    op = build_hamiltonian(model, Grid(-3.0, 3.0, 80))
    assert_allclose(op.matrix, op.matrix.conj().T, rtol=0, atol=0)


def test_hamiltonian_is_complex_symmetric():
    op = build_hamiltonian(catalog_model("morse", xi=1.0), Grid(-2.0, 14.0, 400))
    assert np.all(op.matrix == op.matrix.T)


def test_underresolved_grid_warns():
    model = free_model()
    model.V = lambda x: 1e6 * np.ones_like(np.asarray(x, dtype=float))
    with pytest.warns(UserWarning, match="underresolves"):
        build_hamiltonian(model, Grid(-1.0, 1.0, 5))


def test_overflowing_potential_is_refused_at_its_first_x():
    # W may be finite where V, through G^2, Q or alpha / I^2, is not; the
    # refusal comes before the stiffness warning that an infinite V would raise
    model = free_model()
    model.V = lambda x: np.where(np.asarray(x) > 1.5, np.inf, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match="non-finite potential at x = 2$"):
            build_hamiltonian(model, Grid(0.0, 4.0, 3))


@pytest.mark.parametrize("build", [build_hamiltonian, build_eta])
@pytest.mark.parametrize("a, b, n", [(-1e-170, 1e-170, 10), (1e154, 2e155, 3),
                                     (-1e-158, 1e-158, 10)])
def test_step_outside_the_stencil_range_is_refused_by_both_builders(build, a, b, n):
    # h^2 underflows to 0, overflows, or 2/h^2 overflows: refused before any
    # sample or stiffness warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpecError, match=r"grid step h = .* puts 2/h\^2 outside the float range$"):
            build(free_model(), Grid(a, b, n))


# ---------------------------------------------------------------------------
# metric operator assembly


def test_trivial_metric_is_discrete_laplacian():
    op = build_eta(free_model(), Grid(0.0, 4.0, 3))
    expected = np.array(
        [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]], dtype=complex
    )
    assert_allclose(op.matrix, expected, rtol=0, atol=0)


def test_morse_metric_diagonal_at_origin():
    op = build_eta(catalog_model("morse", xi=1.0), Grid(-2.0, 2.0, 3))
    assert op.matrix[1, 1] == pytest.approx(2.0 + 0.25 + 0.25 + 0j, abs=1e-12)


@pytest.mark.parametrize(
    "name,params,grid",
    [
        ("scarf2", {"A": 2.0}, Grid(-10.0, 10.0, 80)),
        ("periodic", {}, Grid(-np.pi, np.pi, 80)),
        ("morse", {"xi": 1.0}, Grid(-2.0, 14.0, 80)),
    ],
)
def test_metric_is_exactly_hermitian(name, params, grid):
    op = build_eta(catalog_model(name, **params), grid)
    assert hermiticity_residual(op) == 0.0


# ---------------------------------------------------------------------------
# residuals


def test_identity_metric_on_hermitian_hamiltonian():
    model = free_model()
    model.V = lambda x: np.cos(np.asarray(x, dtype=float))
    op = build_hamiltonian(model, Grid(-3.0, 3.0, 25))
    assert intertwining_residual(op, np.eye(25)) == 0.0


def test_scarf_intertwining_residual():
    grid = Grid(-10.0, 10.0, 800)
    model = catalog_model("scarf2", A=2.0)
    residual = intertwining_residual(
        build_hamiltonian(model, grid), build_eta(model, grid)
    )
    assert residual <= 1e-4


def test_morse_intertwining_residual():
    grid = Grid(-2.0, 14.0, 1200)
    model = catalog_model("morse", xi=1.0)
    residual = intertwining_residual(
        build_hamiltonian(model, grid), build_eta(model, grid)
    )
    assert residual <= 1e-4


@pytest.mark.parametrize(
    "name,params,a,b",
    [
        ("scarf2", {"A": 2.0}, -12.0, 12.0),
        ("periodic", {}, -np.pi, np.pi),
        ("morse", {"xi": 1.0}, -2.0, 14.0),
    ],
)
def test_intertwining_residual_refines_second_order(name, params, a, b):
    model = catalog_model(name, **params)

    def residual(n):
        grid = Grid(a, b, n)
        return intertwining_residual(
            build_hamiltonian(model, grid), build_eta(model, grid)
        )

    assert residual(250) / residual(500) >= 3.5


def test_etaH_hermiticity_residual_scarf():
    model = catalog_model("scarf2", A=2.0)

    def residual(n):
        grid = Grid(-10.0, 10.0, n)
        return hermiticity_residual(
            compose(build_eta(model, grid), build_hamiltonian(model, grid), "etaH")
        )

    coarse, fine = residual(500), residual(2000)
    assert fine <= 1e-4
    assert coarse / fine > 3.0  # vanishes under refinement: Hermitian in the limit


def test_hamiltonian_is_genuinely_non_hermitian():
    # at h ~ 1 the kinetic diagonal no longer swamps the order-one iW part
    with pytest.warns(UserWarning):
        op = build_hamiltonian(catalog_model("scarf2", A=2.0), Grid(-12.0, 12.0, 23))
    assert hermiticity_residual(op) > 0.1


def test_zero_matrix_hermiticity_residual():
    assert hermiticity_residual(np.zeros((4, 4), dtype=complex)) == 0.0


def test_zero_metric_intertwining_residual():
    # eta H - H^dag eta vanishes with eta, so the defect is 0, not 0/0
    rng = np.random.default_rng(5)
    h_matrix = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    zero = np.zeros((6, 6))
    assert intertwining_residual(h_matrix, zero) == 0.0
    assert intertwining_residual(zero, h_matrix) == 0.0


def test_grid_mismatch_is_rejected():
    model = catalog_model("scarf2", A=2.0)
    h_op = build_hamiltonian(model, Grid(-10.0, 10.0, 200))
    eta_op = build_eta(model, Grid(-12.0, 12.0, 200))
    with pytest.raises(GridMismatchError):
        intertwining_residual(h_op, eta_op)


def test_residuals_reject_non_square_matrices():
    with pytest.raises(SpecError, match="square"):
        hermiticity_residual(np.ones((2, 3)))


def test_residuals_accept_plain_matrices():
    rng = np.random.default_rng(3)
    h_matrix = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    eta_matrix = np.eye(6)
    value = intertwining_residual(h_matrix, eta_matrix)
    expected = np.linalg.norm(h_matrix - h_matrix.conj().T) / (
        np.linalg.norm(eta_matrix) * np.linalg.norm(h_matrix)
    )
    assert value == pytest.approx(expected, rel=1e-14)


# ---------------------------------------------------------------------------
# banded arithmetic against dense reference formulas


def dense_intertwining(h, e):
    return np.linalg.norm(e @ h - h.conj().T @ e) / (
        np.linalg.norm(e) * np.linalg.norm(h)
    )


def dense_hermiticity(m):
    scale = np.linalg.norm(m)
    return 0.0 if scale == 0.0 else np.linalg.norm(m - m.conj().T) / scale


def assemble(op):
    return sum(np.diag(band, k) for k, band in op.bands.items())


def random_matrix(rng, n, kind):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.triu(np.tril(m, 1), -1) if kind == "tridiagonal" else m


@st.composite
def plain_pairs(draw):
    n = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(["tridiagonal", "full"])
    return random_matrix(rng, n, draw(kinds)), random_matrix(rng, n, draw(kinds))


CATALOG = {"scarf2": {"A": 4.0}, "periodic": {}, "morse": {"xi": 1.0}}


@st.composite
def catalog_pairs(draw):
    name = draw(st.sampled_from(sorted(CATALOG)))
    entry = get(name, CATALOG[name])
    quarter = 0.25 * (entry.grid.b - entry.grid.a)
    fraction = st.floats(0.0, 1.0)
    grid = Grid(
        entry.grid.a + quarter * draw(fraction),
        entry.grid.b - quarter * draw(fraction),
        draw(st.integers(3, 40)),
    )
    model = derive(entry.spec)
    return build_hamiltonian(model, grid), build_eta(model, grid)


def assert_bands_match_dense(h_op, eta_op, h, e):
    rel = dict(rel=1e-12, abs=0.0)
    assert intertwining_residual(h_op, eta_op) == pytest.approx(
        dense_intertwining(h, e), **rel
    )
    for op, m in ((h_op, h), (eta_op, e)):
        assert hermiticity_residual(op) == pytest.approx(dense_hermiticity(m), **rel)
    product = compose(eta_op, h_op, "etaH")
    assert np.linalg.norm(product.matrix - e @ h) <= 1e-12 * np.linalg.norm(e @ h)
    assert hermiticity_residual(product) == pytest.approx(
        dense_hermiticity(e @ h), **rel
    )
    assert np.array_equal(product.matrix, assemble(product))


@settings(max_examples=60, deadline=None)
@given(plain_pairs())
def test_banded_matches_dense_on_plain_matrices(pair):
    h, e = pair
    for m in pair:
        assert np.array_equal(DiscreteOperator.from_matrix(m).matrix, m)
    assert_bands_match_dense(h, e, h, e)


@pytest.mark.filterwarnings("ignore:max")  # coarse grids underresolve
@settings(max_examples=60, deadline=None)
@given(catalog_pairs())
def test_banded_matches_dense_on_catalog_models(pair):
    h_op, eta_op = pair
    for op in pair:
        assert sorted(op.bands) == [-1, 0, 1]
        assert np.array_equal(op.matrix, assemble(op))
    assert_bands_match_dense(h_op, eta_op, h_op.matrix, eta_op.matrix)


@st.composite
def verify_pairs(draw):
    """(H, eta) as operators of random bands or as plain matrices, with eta
    Hermitian, Hermitian but for one entry, or general."""
    n = draw(st.integers(3, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offsets = st.sets(st.integers(1 - n, n - 1), max_size=6)

    def random_operator():
        return DiscreteOperator({k: rng.standard_normal(n - abs(k))
                                 + 1j * rng.standard_normal(n - abs(k))
                                 for k in draw(offsets) | {0}})

    h, e = random_operator().matrix, random_operator().matrix
    kind = draw(st.sampled_from(["hermitian", "one_entry_off", "general"]))
    if kind != "general":
        e = (e + e.conj().T) / 2
    if kind == "one_entry_off":
        e[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] += 0.5j
    if draw(st.booleans()):
        return h, e, h, e
    return DiscreteOperator.from_matrix(h), DiscreteOperator.from_matrix(e), h, e


@settings(max_examples=100, deadline=None)
@given(verify_pairs())
def test_verify_residuals_are_those_of_the_dense_products(pair):
    h_op, eta_op, h, e = pair
    expected = (dense_intertwining(h, e), dense_hermiticity(e), dense_hermiticity(e @ h))
    residuals = verify_residuals(h_op, eta_op)
    assert residuals == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert intertwining_residual(h_op, eta_op) == residuals[0]


def scaled(op, factor):
    if isinstance(op, DiscreteOperator):
        return DiscreteOperator({k: factor * band for k, band in op.bands.items()})
    return factor * op


@settings(max_examples=100, deadline=None)
@given(verify_pairs(), st.integers(-600, 600), st.integers(-600, 600))
def test_residuals_do_not_depend_on_the_operands_scale(pair, j, k):
    # every residual is a ratio of degree 0 in each operand; at 2^-600 the
    # squared entries underflow and at 2^600 they overflow, where the
    # residuals read 0 and nan
    h_op, eta_op = pair[:2]
    s, t = 2.0**j, 2.0**k
    residuals = verify_residuals(scaled(h_op, s), scaled(eta_op, t))
    assert residuals == pytest.approx(verify_residuals(h_op, eta_op), rel=1e-15, abs=0.0)
    assert hermiticity_residual(scaled(h_op, s)) == pytest.approx(
        hermiticity_residual(h_op), rel=1e-15, abs=0.0)


# ---------------------------------------------------------------------------
# CSV interchange


def test_matrix_csv_round_trip(tmp_path):
    grid = Grid(-2.0, 14.0, 12)
    op = build_eta(catalog_model("morse", xi=1.0), grid)
    path = tmp_path / "eta.csv"
    matrix_to_csv(op, path)
    assert np.all(matrix_from_csv(path) == op.matrix)


def test_matrix_csv_round_trip_plain_matrix(tmp_path):
    rng = np.random.default_rng(11)
    matrix = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    path = tmp_path / "M.csv"
    matrix_to_csv(matrix, path)
    assert np.all(matrix_from_csv(path) == matrix)


def test_matrix_csv_rejects_odd_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0,3.0\n")
    with pytest.raises(SpecError, match="re,im"):
        matrix_from_csv(path)
