import cProfile
import dataclasses
import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import pseudoherm
from pseudoherm import eigen, generator, operators
from pseudoherm.cli import main
from pseudoherm.operators import Grid, build_eta, build_hamiltonian, matrix_to_csv
from pseudoherm.catalog import get
from pseudoherm.expressions import differentiate, parse
from pseudoherm.generator import derive


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, err
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# derive


def test_derive_scarf_reports_closed_form_potential(capsys):
    code, report = run_json(
        capsys, "derive", "--model", "scarf2", "--param", "A=2", "--N", "99"
    )
    assert code == 0
    columns = report["columns"]
    mid = columns["x"].index(sorted(columns["x"], key=abs)[0])
    assert columns["V"][mid] == pytest.approx(-1.75, abs=1e-9)
    assert report["analytic_V_residual"] <= 1e-8
    assert report["config"]["model"] == "scarf2"
    assert report["config"]["resolved_spec"]["params"] == {"A": 2.0}


def test_derive_inline_morse(capsys):
    code, report = run_json(
        capsys,
        "derive",
        "--W=-xi*exp(-x)",
        "--antideriv", "xi*exp(-x)",
        "--param", "xi=1",
        "--alpha", "0",
        "--beta", "-0.25",
        "--a", "-2", "--b", "14", "--N", "99",
    )
    assert code == 0
    columns = report["columns"]
    x = np.asarray(columns["x"])
    expected = -0.25 * np.exp(-2.0 * x)
    np.testing.assert_allclose(columns["V"], expected, atol=1e-9)


@pytest.mark.parametrize("W, b, integral", [
    ("sqrt(x)", 4.0, lambda x: 2.0 / 3.0 * x**1.5),
    ("sqrt(x)*exp(-x)", 14.0, None),
], ids=["sqrt", "sqrt_exp"])
def test_derive_refines_the_quadrature_gap_next_to_a_root_singularity(capsys, W, b, integral):
    # sqrt(x) is not smooth at 0, so the gap [0, a + h] fails as equal
    # panels; only its failing panels are halved, until each passes
    code, report = run_json(capsys, "derive", "--W=" + W, "--a", "0.5", "--b", str(b))
    assert code == 0
    columns = report["columns"]
    assert np.all(np.isfinite(columns["G"]))
    if integral is not None:  # G = -I/2
        x = np.asarray(columns["x"])
        np.testing.assert_allclose(columns["G"], -0.5 * integral(x), rtol=0, atol=1e-10)


def test_derive_evaluates_each_quadrature_panel_once(capsys, monkeypatch):
    # refinement halves the failing panels next to the root singularity; the
    # panels that passed, and the parents of the halves, are not sampled again
    rows, evaluate = [], generator.evaluate

    def recorded_evaluate(expr, x, env=None):
        if np.ndim(x) == 2:  # the quadrature's nodes, one row per panel
            rows.append(np.asarray(x).copy())
        return evaluate(expr, x, env)

    monkeypatch.setattr(generator, "evaluate", recorded_evaluate)
    code, _, err = run(capsys, "derive", "--W=sqrt(x)", "--a", "0.5", "--b", "4")
    assert code == 0, err
    nodes = np.concatenate(rows)
    assert len(rows) > 1  # refined
    # a panel by its centre (the rule's node at 0) and width, in units that
    # absorb the rounding of two ways of placing the same nodes
    width = nodes[:, -1] - nodes[:, 0]
    keys = np.column_stack((np.round(nodes[:, 10] / width, 3), np.round(np.log2(width), 6)))
    assert np.unique(keys, axis=0).shape[0] == nodes.shape[0]


def test_derive_of_a_divergent_integral_stays_a_quadrature_error(capsys):
    # int_0 1/x diverges: refinement reaches its bound and the gap still fails
    code, out, err = run(capsys, "derive", "--W=1/x", "--a", "0.5", "--b", "4")
    assert (code, out) == (3, "")
    assert err.startswith("evaluation error: quadrature error")
    assert "over [0, 0.503497] exceeds 1e-10" in err


def test_derive_zero_generator_exits_domain_error(capsys):
    code, out, err = run(capsys, "derive", "--W", "0")
    assert code == 3
    assert "vanishes" in err


def test_derive_rejects_model_and_inline_together(capsys):
    code, out, err = run(capsys, "derive", "--model", "scarf2", "--W", "x")
    assert code == 2
    assert "exactly one" in err


def test_derive_unknown_model(capsys):
    code, out, err = run(capsys, "derive", "--model", "hulthen")
    assert code == 2


def test_derive_missing_parameter(capsys):
    code, out, err = run(capsys, "derive", "--model", "scarf2")
    assert code == 2
    assert "requires parameter 'A'" in err


def test_derive_csv_output(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    code, out, err = run(
        capsys,
        "derive", "--model", "periodic", "--N", "49",
        "--format", "csv", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].split(",") == ["x", "G", "Q", "V", "W", "re_Veff", "im_Veff"]
    assert len(lines) == 202


def test_stiffness_warning_is_one_line_on_stderr(capsys):
    # the run's exit code and report stay those of the run in process
    argv = ["verify", "--model", "scarf2", "--param", "A=40", "--N", "1000"]
    src = os.path.dirname(os.path.dirname(pseudoherm.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "pseudoherm.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    with pytest.warns(UserWarning, match="underresolves"):
        code, out, _ = run(capsys, *argv)
    assert (done.returncode, done.stdout) == (code, out)
    assert done.stderr == "warning: max|V+iW|*h^2 = 0.23; the grid underresolves this potential\n"
    assert ".py:" not in done.stderr


def test_verify_constant_w_checks_the_catalog_model(capsys):
    argv = ("verify", "--model", "constant_w", "--param", "W0=2", "--N", "500")
    with pytest.warns(UserWarning, match="underresolves"):
        _, at_zero = run_json(capsys, *argv, "--param", "C0=0")
        _, shifted = run_json(capsys, *argv, "--param", "C0=5", "--alpha", "1")
    spec = shifted["config"]["resolved_spec"]
    assert spec["antiderivative"] == "W0 * x + C0"
    assert spec["params"] == {"W0": 2.0, "C0": 5.0}
    assert spec["alpha"] == 1.0
    assert shifted["residuals"]["intertwining"] != at_zero["residuals"]["intertwining"]


def test_derive_constant_w_applies_alpha(capsys):
    argv = ("derive", "--model", "constant_w", "--param", "W0=2", "--param", "C0=0")
    _, plain = run_json(capsys, *argv)
    code, shifted = run_json(capsys, *argv, "--alpha", "5")
    assert code == 0
    assert shifted["config"]["resolved_spec"]["alpha"] == 5.0
    assert shifted["columns"]["x"] == plain["columns"]["x"]
    # alpha enters Re V_eff as alpha/u^2 with u = W0*x + C0 = 2x
    x = np.asarray(plain["columns"]["x"])
    shift = np.subtract(shifted["columns"]["re_Veff"], plain["columns"]["re_Veff"])
    np.testing.assert_allclose(shift, 5.0 / (2.0 * x) ** 2, rtol=1e-9)


@pytest.mark.parametrize(
    "argv",
    [
        ("derive", "--model", "constant_w", "--param", "W0=2", "--param", "C0=0",
         "--param", "alpha=1"),
        # the sweep would bind alpha as a model parameter and run scarf2 twice
        ("spectrum", "--model", "scarf2", "--param", "A=4", "--sweep", "alpha=0,1",
         "--N", "20"),
    ],
    ids=["constant_w_alpha", "sweep_alpha"],
)
def test_undeclared_model_parameter_is_a_spec_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "takes no parameter 'alpha'" in err


def test_derive_inline_unbound_parameter_is_a_spec_error(capsys):
    code, out, err = run(capsys, "derive", "--W=-A*x", "--a", "0.5", "--b", "2")
    assert code == 2
    assert "unbound parameter 'A'" in err


def test_inline_sweep_of_an_unread_parameter_is_a_spec_error(capsys):
    # W reads no Z, so the sweep would print the same spectrum twice
    code, out, err = run(
        capsys, "spectrum", "--W=-xi*exp(-x)", "--param", "xi=1", "--sweep", "Z=1,2",
        "--a", "0.5", "--b", "14", "--N", "20",
    )
    assert (code, out) == (2, "")
    assert "unread parameter 'Z'" in err


def test_derive_constant_w(capsys):
    code, report = run_json(
        capsys,
        "derive", "--model", "constant_w", "--param", "W0=2", "--param", "C0=0",
    )
    assert code == 0
    assert "no bound states" in report["notes"]
    assert "V" not in report["columns"]


@pytest.mark.parametrize("w0", ["1e-300", "1e-9"])
def test_derive_constant_w_drops_only_the_pole_at_any_scale(capsys, w0):
    # the pole test is relative to W, as in Q: only x = 0, where I = W0 x
    # vanishes, is dropped however small W0 is
    argv = ("derive", "--model", "constant_w", "--param", "C0=0")
    _, unit = run_json(capsys, *argv, "--param", "W0=2")
    code, small = run_json(capsys, *argv, "--param", "W0=" + w0)
    assert code == 0
    assert len(unit["columns"]["x"]) == 200
    assert small["columns"]["x"] == unit["columns"]["x"]
    # V = -(W / 2I)^2 - (I / 2)^2 with I = W0 x, so -1/(4 x^2) when W0 is tiny
    x = np.asarray(small["columns"]["x"])
    np.testing.assert_allclose(small["columns"]["re_Veff"], -0.25 / x**2, rtol=1e-12)


def test_derive_constant_w_csv_lists_veff_only(capsys):
    code, out, err = run(
        capsys,
        "derive", "--model", "constant_w", "--param", "W0=2", "--param", "C0=0",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,re_Veff,im_Veff"
    assert len(lines) == 1 + 200  # the pole at x = 0 is dropped


def test_derive_refuses_a_derivative_exponent_that_parse_refuses(capsys):
    code, out, err = run(capsys, "derive", "--W=x^-9007199254740991", "--a", "0.5", "--b", "2")
    assert code == 3
    assert out == ""
    assert "exponent -9007199254740992" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_scarf_passes(capsys):
    # the etaH residual needs N near 2000 to clear the default tolerance,
    # so loosen it here and keep this test cheap
    code, report = run_json(
        capsys,
        "verify", "--model", "scarf2", "--param", "A=2", "--N", "300",
        "--tol-intertwine", "5e-3",
    )
    assert code == 0
    assert report["status"] == "PASS"
    residuals = report["residuals"]
    assert residuals["eta_hermiticity"] == 0.0
    assert residuals["intertwining"] <= 1e-4
    assert residuals["etaH_hermiticity"] <= 5e-3


def test_verify_morse_passes(capsys):
    code, report = run_json(
        capsys,
        "verify", "--model", "morse", "--param", "xi=1", "--N", "1200",
        "--tol-intertwine", "1e-3",
    )
    assert code == 0
    assert report["status"] == "PASS"


def test_verify_fails_on_unreachable_tolerance(capsys):
    code, report = run_json(
        capsys,
        "verify", "--model", "scarf2", "--param", "A=2", "--N", "200",
        "--tol-intertwine", "1e-12",
    )
    assert code == 1
    assert report["status"] == "FAIL"


def test_verify_peak_memory_stays_banded(capsys):
    # one dense complex matrix at N=2000 alone takes 64 MB
    tracemalloc.start()
    try:
        code = main(["verify", "--model", "scarf2", "--param", "A=4", "--N", "2000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 8e6


def test_verify_runs_at_large_n(capsys):
    code, report = run_json(
        capsys, "verify", "--model", "scarf2", "--param", "A=4", "--N", "8000"
    )
    assert code == 0
    assert report["residuals"]["eta_hermiticity"] == 0.0


def test_inline_w_runs_without_scipy_integrate(tmp_path):
    inline = ["--W=-A*sinh(x)/cosh(x)^2", "--param", "A=4", "--a", "0.5", "--b", "12"]
    runs = [
        ["derive", *inline, "--out", str(tmp_path / "derive.json")],
        ["verify", *inline, "--N", "500", "--out", str(tmp_path / "verify.json")],
    ]
    script = (
        "import json, sys; from pseudoherm.cli import main; "
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
        "print(json.dumps([codes, 'scipy.integrate' in sys.modules]))"
    )
    src = os.path.dirname(os.path.dirname(pseudoherm.__file__))
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    (derive_code, verify_code), loaded = json.loads(done.stdout)
    assert derive_code == 0, done.stderr
    assert verify_code in (0, 1), done.stderr
    assert not loaded


INLINE_MORSE = ["--W=-xi*exp(-x)", "--param", "xi=1", "--a", "0.5", "--b", "14"]


@pytest.mark.parametrize(
    "argv",
    [["derive"], ["verify", "--N", "500"], ["spectrum", "--N", "300"]],
    ids=["derive", "verify", "spectrum"],
)
def test_inline_op_samples_its_points_once(capsys, monkeypatch, argv):
    # G, Q, V and W of one op share one quadrature pass and one evaluation
    # each of W and W' on the sample points
    w = parse("-xi*exp(-x)")
    w_prime = differentiate(w)
    calls = {"quadrature": 0, "W": 0, "Wp": 0}
    quadrature, evaluate = generator._numeric_antiderivative, generator.evaluate

    def counted_quadrature(spec, x):
        calls["quadrature"] += 1
        return quadrature(spec, x)

    def counted_evaluate(expr, x, env=None):
        # the quadrature samples W on a 2-D array of nodes
        calls["W"] += expr == w and np.ndim(x) == 1
        calls["Wp"] += expr == w_prime
        return evaluate(expr, x, env)

    monkeypatch.setattr(generator, "_numeric_antiderivative", counted_quadrature)
    monkeypatch.setattr(generator, "evaluate", counted_evaluate)
    code, _, err = run(capsys, *argv, *INLINE_MORSE)
    assert code in (0, 1), err
    assert calls == {"quadrature": 1, "W": 1, "Wp": 1}


@pytest.mark.parametrize(
    "command,expected",
    [("verify", {"products": 1, "Q": 1}), ("derive", {"products": 0, "Q": 1})],
)
def test_catalog_op_forms_one_product_and_q_once(capsys, monkeypatch, command, expected):
    # verify reads its three residuals off one product eta H, and H and eta,
    # like derive's columns, take one Q; each forming of Q first tests I for zeros
    calls = {"products": 0, "Q": 0}
    product, zero = operators._product, generator.DerivedModel.antiderivative_zero

    def counted_product(left, right):
        calls["products"] += 1
        return product(left, right)

    def counted_zero(model, x):
        calls["Q"] += 1
        return zero(model, x)

    monkeypatch.setattr(operators, "_product", counted_product)
    monkeypatch.setattr(generator.DerivedModel, "antiderivative_zero", counted_zero)
    code, _, err = run(capsys, command, "--model", "scarf2", "--param", "A=4", "--N", "200")
    assert code in (0, 1), err
    assert calls == expected


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(pseudoherm.__file__))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, pseudoherm.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_verify_external_matrices(capsys, tmp_path):
    model = derive(get("scarf2", {"A": 2.0}).spec)
    grid = Grid(-10.0, 10.0, 40)
    h_path = tmp_path / "H.csv"
    eta_path = tmp_path / "eta.csv"
    with pytest.warns(UserWarning):  # deliberately coarse grid
        matrix_to_csv(build_hamiltonian(model, grid), h_path)
    matrix_to_csv(build_eta(model, grid), eta_path)
    code, report = run_json(
        capsys, "verify", "--H-csv", str(h_path), "--eta-csv", str(eta_path)
    )
    assert code == 0
    assert "status" not in report  # no model context, residuals only
    assert report["residuals"]["eta_hermiticity"] == 0.0


def test_verify_csv_lists_residuals_and_status(capsys, tmp_path):
    # new coverage: the model report ends in a status row, the external
    # one has none
    argv = ("verify", "--model", "scarf2", "--param", "A=2", "--N", "200")
    code, out, err = run(capsys, *argv, "--format", "csv")
    _, report = run_json(capsys, *argv)
    assert code == 1
    rows = ["%s,%r" % item for item in report["residuals"].items()]
    assert out.splitlines() == ["check,residual", *rows, "status,FAIL"]

    model = derive(get("scarf2", {"A": 2.0}).spec)
    grid = Grid(-10.0, 10.0, 40)
    with pytest.warns(UserWarning):  # deliberately coarse grid
        matrix_to_csv(build_hamiltonian(model, grid), tmp_path / "H.csv")
    matrix_to_csv(build_eta(model, grid), tmp_path / "eta.csv")
    external = ("verify", "--H-csv", str(tmp_path / "H.csv"), "--eta-csv", str(tmp_path / "eta.csv"))
    code, out, err = run(capsys, *external, "--format", "csv")
    _, report = run_json(capsys, *external)
    assert code == 0
    rows = ["%s,%r" % item for item in report["residuals"].items()]
    assert out.splitlines() == ["check,residual", *rows]


def _csv_pair(tmp_path):
    """verify's options for H and eta of scarf2 A=2 on a coarse grid, each
    written as a CSV matrix."""
    model = derive(get("scarf2", {"A": 2.0}).spec)
    grid = Grid(-10.0, 10.0, 40)
    with pytest.warns(UserWarning):  # deliberately coarse grid
        matrix_to_csv(build_hamiltonian(model, grid), tmp_path / "H.csv")
    matrix_to_csv(build_eta(model, grid), tmp_path / "eta.csv")
    return ("--H-csv", str(tmp_path / "H.csv"), "--eta-csv", str(tmp_path / "eta.csv"))


@pytest.mark.parametrize(
    "options,named",
    [
        (("--model", "scarf2"), "--model"),
        (("--W", "x"), "--W"),
        (("--param", "A=4"), "--param"),
        (("--alpha", "1", "--beta", "2"), "--alpha, --beta"),
        (("--a", "-1", "--b", "1", "--N", "7"), "--N, --a, --b"),
        (("--tol-intertwine", "1"), "--tol-intertwine"),
    ],
    ids=["model", "W", "param", "alpha_beta", "grid", "tol_intertwine"],
)
def test_verify_of_csv_matrices_refuses_model_options(capsys, tmp_path, options, named):
    # such an option was ignored, yet written into the report's config
    code, out, err = run(capsys, "verify", *_csv_pair(tmp_path), *options)
    assert code == 2
    assert out == ""
    assert err == "specification error: a verify of --H-csv/--eta-csv reads no %s\n" % named


MODEL_OPTIONS = ["command", "model", "W", "antideriv", "params", "alpha", "beta", "a", "b", "N",
                 "fmt", "out"]
RESOLVED = ["resolved_spec", "resolved_grid"]


@pytest.mark.parametrize(
    "argv,keys",
    [
        (("derive", "--model", "periodic", "--N", "49"), MODEL_OPTIONS + RESOLVED),
        (("verify", "--model", "scarf2", "--param", "A=2", "--N", "200"),
         MODEL_OPTIONS + ["tol_intertwine", "H_csv", "eta_csv"] + RESOLVED),
        (("verify", "CSV_PAIR"), ["command", "fmt", "out", "H_csv", "eta_csv"]),
        (("spectrum", "--model", "scarf2", "--param", "A=4", "--N", "300"),
         MODEL_OPTIONS + ["tol_level", "sweep"] + RESOLVED),
        (("spectrum", "--W=-2*exp(-x)", "--a", "0.5", "--b", "14", "--N", "50"),
         MODEL_OPTIONS + ["tol_level", "sweep"] + RESOLVED),
    ],
    ids=["derive", "verify", "verify_csv", "spectrum_catalog", "spectrum_inline"],
)
def test_config_holds_the_options_its_run_read(capsys, tmp_path, argv, keys):
    # a run's config lists its subcommand's options in parser order, not
    # those of every subcommand: derive has no tolerance, sweep, CSV or entry name
    if "CSV_PAIR" in argv:
        argv = ("verify", *_csv_pair(tmp_path))
    code, report = run_json(capsys, *argv)
    assert list(report["config"]) == keys
    assert ("tolerance" in report) == ("tol_intertwine" in keys)


def test_verify_zero_metric_reads_zero(capsys, tmp_path):
    # eta = 0 meets eta H = H^dag eta exactly: the defect is 0, not 0/0
    options = _csv_pair(tmp_path)
    matrix_to_csv(np.zeros((40, 40)), tmp_path / "eta.csv")
    code, report = run_json(capsys, "verify", *options)
    assert code == 0
    assert report["residuals"] == {
        "intertwining": 0.0, "eta_hermiticity": 0.0, "etaH_hermiticity": 0.0,
    }


@pytest.mark.parametrize("scale", [1e-160, 1e160])
def test_verify_reads_matrices_at_any_scale(capsys, tmp_path, scale):
    # squares of entries of 1e-160 underflow and of 1e160 overflow; verify
    # read 0, 0, 0 for the one and exited 3 on a nan for the other
    rng = np.random.default_rng(6)
    h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    matrix_to_csv(scale * h, tmp_path / "H.csv")
    matrix_to_csv(scale * np.eye(6), tmp_path / "eta.csv")
    code, report = run_json(capsys, "verify", "--H-csv", str(tmp_path / "H.csv"),
                            "--eta-csv", str(tmp_path / "eta.csv"))
    assert code == 0
    assert list(report["residuals"].values()) == pytest.approx(
        operators.verify_residuals(h, np.eye(6)), rel=1e-14, abs=0.0)


def test_verify_external_needs_both_files(capsys, tmp_path):
    code, out, err = run(capsys, "verify", "--H-csv", str(tmp_path / "H.csv"))
    assert code == 2


def test_verify_external_full_matrices_take_one_dense_product(capsys, tmp_path):
    # full 400 x 400 input stores 799 diagonals each; multiplying them pair
    # by pair took seconds
    rng = np.random.default_rng(400)
    # the CSV holds each float through repr, so it reads back exactly
    h, e = (rng.standard_normal((400, 400)) + 1j * rng.standard_normal((400, 400))
            for _ in range(2))
    matrix_to_csv(h, tmp_path / "H.csv")
    matrix_to_csv(e, tmp_path / "eta.csv")
    start = time.perf_counter()
    code, report = run_json(
        capsys, "verify", "--H-csv", str(tmp_path / "H.csv"),
        "--eta-csv", str(tmp_path / "eta.csv"),
    )
    elapsed = time.perf_counter() - start
    assert code == 0

    def hermiticity(m):
        return np.linalg.norm(m - m.conj().T) / np.linalg.norm(m)

    expected = {
        "intertwining": np.linalg.norm(e @ h - h.conj().T @ e)
        / (np.linalg.norm(e) * np.linalg.norm(h)),
        "eta_hermiticity": hermiticity(e),
        "etaH_hermiticity": hermiticity(e @ h),
    }
    for name, value in expected.items():
        assert report["residuals"][name] == pytest.approx(value, rel=1e-12, abs=0.0)
    assert elapsed < 3.0


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_scarf_a4_matches_levels(capsys):
    code, report = run_json(
        capsys,
        "spectrum", "--model", "scarf2", "--param", "A=4",
        "--N", "400", "--tol-level", "1e-2",
    )
    assert code == 0
    assert report["all_levels_matched"] is True
    matches = report["bound_states"]["matches"]
    assert [m["level"] for m in matches] == [-2.25, -0.25]
    assert matches[0]["distance"] <= 1e-2
    assert report["continuum_threshold"] == 0.0


def test_spectrum_lists_the_certified_window(capsys):
    code, report = run_json(
        capsys, "spectrum", "--model", "scarf2", "--param", "A=4", "--N", "400"
    )
    assert code == 0
    spectrum = report["spectrum"]
    assert spectrum["below"] == 0.0
    assert spectrum["certified_count"] == len(spectrum["eigenvalues"]) == 3
    assert all(re < 0.0 for re, _ in spectrum["eigenvalues"])
    _, periodic = run_json(capsys, "spectrum", "--model", "periodic", "--N", "400")
    assert periodic["spectrum"]["below"] == 17.0
    assert periodic["spectrum"]["certified_count"] == 8


def test_spectrum_reports_how_the_window_was_solved(capsys):
    # with sigma by the mean of the counted eigenvalues, the catalog solves
    # at N=1000 stop by these checks of the schedule 8, 16, 24, 36, 54, ...
    # (24, 36, 36, 24, 0, 36 and 54 with sigma at the box centre)
    ops = [("scarf2", "A=3", 16), ("scarf2", "A=4", 24), ("scarf2", "A=5", 36),
           ("periodic", None, 24), ("morse", "xi=0.5", 0), ("morse", "xi=1", 8),
           ("morse", "xi=2", 36)]
    for model, param, dimension in ops:
        argv = ["spectrum", "--model", model, "--N", "1000"]
        _, report = run_json(capsys, *argv, *(["--param", param] if param else []))
        spectrum = report["spectrum"]
        assert spectrum["krylov_dimension"] <= dimension
        assert spectrum["contour_points"] >= 4 * eigen.SIDE_POINTS
        if spectrum["certified_count"]:
            assert spectrum["krylov_dimension"] >= spectrum["certified_count"]
            assert len(spectrum["sigma"]) == 2
        else:  # morse xi=0.5: nothing to find, no shift, no Krylov step
            assert spectrum["sigma"] is None and spectrum["krylov_dimension"] == 0
        assert "sigma" not in report.get("bound_states", {})


def test_spectrum_that_loses_a_value_exits_4(capsys, monkeypatch):
    original = eigen._shift_invert_ritz

    def lossy(*args):
        for m, values, vectors in original(*args):
            yield m, values[1:], vectors[:, 1:]

    monkeypatch.setattr(eigen, "_shift_invert_ritz", lossy)
    code, out, err = run(
        capsys, "spectrum", "--model", "scarf2", "--param", "A=4", "--N", "200"
    )
    assert code == 4
    assert out == ""
    assert "argument principle counts 3" in err


@pytest.mark.filterwarnings("ignore:.*underresolves:UserWarning")
def test_spectrum_whose_determinant_overflows_says_so(capsys):
    # max|d| = 8.1e33 overflows 16 rows between rescalings; dense finds 140
    # eigenvalues in this box, so det(H - z) does not vanish on its edge
    code, out, err = run(capsys, "spectrum", "--model", "morse", "--param", "xi=1",
                         "--a", "-40", "--b", "14", "--N", "200")
    assert (code, out) == (4, "")
    assert "eigensolver error: det(H - z) overflowed on the counting contour" in err
    assert "|d| = 8.09e+33" in err and "too stiff" in err
    assert "vanished" not in err


def test_spectrum_runs_under_trace_and_profile_hooks(capsys):
    # a debugger, profiler or coverage hook keeps references to the solver's
    # frames and their arrays; the spectrum must not depend on their absence
    argv = ("spectrum", "--model", "scarf2", "--param", "A=4", "--N", "1000")
    code, want, err = run(capsys, *argv)
    assert code == 0, err
    for install, installed in ((sys.settrace, sys.gettrace), (sys.setprofile, sys.getprofile)):
        previous = installed()
        install(lambda frame, event, arg: None)
        try:
            code, out, err = run(capsys, *argv)
        finally:
            install(previous)
        assert (code, out) == (0, want), err
    code, out, err = cProfile.Profile().runcall(run, capsys, *argv)
    assert (code, out) == (0, want), err


def test_spectrum_peak_memory_stays_banded(capsys):
    # one dense complex matrix at N=8000 alone takes 1 GB
    tracemalloc.start()
    try:
        code = main(["spectrum", "--model", "scarf2", "--param", "A=4", "--N", "8000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 32e6


def test_spectrum_on_a_catalog_model_loads_no_scipy(tmp_path):
    script = (
        "import sys; from pseudoherm.cli import main; "
        "code = main(['spectrum', '--model', 'scarf2', '--param', 'A=4', '--N', '400',"
        " '--out', sys.argv[1]]); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = os.path.dirname(os.path.dirname(pseudoherm.__file__))
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "spectrum.json")],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0 []"


def test_spectrum_scarf_a4_reports_the_split_level_once(capsys):
    code, report = run_json(
        capsys, "spectrum", "--model", "scarf2", "--param", "A=4", "--N", "400"
    )
    assert code == 0
    bound = report["bound_states"]
    assert len(bound["eigenvalues"]) == 2
    assert bound["group_sizes"] == [1, 2]
    assert abs(bound["eigenvalues"][1][0] + 0.25) <= 1e-3
    assert "group_sizes" not in report["spectrum"]


@pytest.mark.parametrize("model, env", [("scarf2", {"A": 4.0}), ("periodic", {})])
def test_spectrum_reports_the_catalog_states(capsys, model, env):
    # bound_states and matches are those of eigen.catalog_states on the window solve
    params = [arg for name, value in env.items() for arg in ("--param", "%s=%r" % (name, value))]
    code, report = run_json(capsys, "spectrum", "--model", model, *params, "--N", "400")
    assert code == 0
    entry = get(model, env)
    grid = Grid(entry.grid.a, entry.grid.b, 400)
    window = eigen.eig(build_hamiltonian(derive(entry.spec), grid), below=entry.spectrum_window)
    states, matches = eigen.catalog_states(window, grid, entry, 1e-2)
    assert report["spectrum"]["matches"] == eigen.report_to_dict(
        dataclasses.replace(window, matches=matches))["matches"]
    if entry.continuum_threshold is not None:
        want = eigen.report_to_dict(dataclasses.replace(states, matches=matches))
        assert report["bound_states"] == want
    else:
        assert "bound_states" not in report


def test_spectrum_periodic_matches_level_4_as_real(capsys):
    code, report = run_json(capsys, "spectrum", "--model", "periodic", "--N", "400")
    assert code == 0
    (match,) = [m for m in report["spectrum"]["matches"] if m["level"] == 4.0]
    assert match["matched"] and abs(match["eigenvalue"][1]) <= 1e-5


def test_spectrum_inline_model_reports_full_spectrum(capsys):
    with pytest.warns(UserWarning):  # deliberately coarse grid
        code, report = run_json(
            capsys,
            "spectrum",
            "--W=-A*sinh(x)/cosh(x)^2",
            "--antideriv", "A/cosh(x)",
            "--param", "A=2", "--beta=-0.25",
            "--a", "-10", "--b", "10", "--N", "60",
        )
    assert code == 0
    assert len(report["spectrum"]["eigenvalues"]) == 60
    assert "bound_states" not in report


def test_spectrum_sweep_is_ordered(capsys):
    code, reports = run_json(
        capsys,
        "spectrum", "--model", "scarf2", "--sweep", "A=2,4",
        "--N", "250", "--tol-level", "5e-2",
    )
    assert code == 0
    assert [r["sweep_value"] for r in reports] == [{"A": 2.0}, {"A": 4.0}]
    assert len(reports[0]["bound_states"]["matches"]) == 1
    assert len(reports[1]["bound_states"]["matches"]) == 2


def test_spectrum_csv_lists_eigenvalues(capsys):
    code, out, err = run(
        capsys,
        "spectrum", "--model", "scarf2", "--param", "A=2",
        "--N", "400", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "re,im,residual,real_flag"
    code, report = run_json(
        capsys, "spectrum", "--model", "scarf2", "--param", "A=2", "--N", "400"
    )
    assert len(lines) - 1 == len(report["bound_states"]["eigenvalues"])
    assert all(len(line.split(",")) == 4 for line in lines[1:])


def test_spectrum_one_value_sweep_is_one_run(capsys):
    # one object with its sweep value, and a CSV form like a plain run's
    argv = ("spectrum", "--model", "scarf2", "--N", "300")
    code, report = run_json(capsys, *argv, "--sweep", "A=4")
    assert code == 0
    assert report["sweep_value"] == {"A": 4.0}
    code, out, err = run(capsys, *argv, "--sweep", "A=4", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "re,im,residual,real_flag"
    assert out == run(capsys, *argv, "--param", "A=4", "--format", "csv")[1]


def test_spectrum_rejects_constant_w(capsys):
    code, out, err = run(
        capsys, "spectrum", "--model", "constant_w", "--param", "W0=2", "--param", "C0=0"
    )
    assert code == 2
    assert "no bound states" in err


# ---------------------------------------------------------------------------
# catalog


def test_catalog_list(capsys):
    code, entries = run_json(capsys, "catalog")
    assert code == 0
    assert [e["name"] for e in entries] == [
        "scarf2", "periodic", "morse", "constant_w",
    ]
    assert entries[0]["required_params"] == ["A"]


def test_catalog_show_scarf(capsys):
    code, report = run_json(
        capsys, "catalog", "scarf2", "--param", "A=4"
    )
    assert code == 0
    assert report["analytic_levels"] == [-2.25, -0.25]
    assert report["s_t"] == [1.0, 3.0]
    assert report["recommended_grid"] == {"a": -12.0, "b": 12.0, "N": 2000}
    assert "cosh" in report["spec"]["W"]


def test_catalog_listing_refuses_a_parameter(capsys):
    code, out, err = run(capsys, "catalog", "--param", "A=4")
    assert code == 2
    assert out == ""
    assert err == "specification error: a catalog listing reads no --param\n"


def test_catalog_entry_refuses_csv(capsys):
    code, out, err = run(capsys, "catalog", "scarf2", "--param", "A=4", "--format", "csv")
    assert code == 2
    assert out == ""
    assert "--format csv is not available" in err


def test_catalog_show_unknown(capsys):
    code, out, err = run(capsys, "catalog", "zzz")
    assert code == 2


def test_bad_param_syntax(capsys):
    code, out, err = run(capsys, "derive", "--model", "scarf2", "--param", "A2")
    assert code == 2
    assert "NAME=VALUE" in err
    code, out, err = run(capsys, "derive", "--model", "scarf2", "--param", "A=foo")
    assert code == 2
    assert "parameter 'A' has non-numeric value 'foo'" in err
    # a repeated --param is refused; a --sweep value may still replace one
    argv = ("spectrum", "--model", "scarf2", "--param", "A=4", "--N", "200")
    code, out, err = run(capsys, *argv, "--param", "A=5")
    assert (code, out) == (2, "")
    assert "parameter 'A' is given more than once" in err
    code, report = run_json(capsys, *argv, "--sweep", "A=5")
    assert report["config"]["resolved_spec"]["params"] == {"A": 5.0}


@pytest.mark.parametrize(
    "sweep,message",
    [("A", "--sweep wants NAME=v1,v2,..."), ("A=1,x", "non-numeric sweep value")],
)
def test_bad_sweep_syntax(capsys, sweep, message):
    code, out, err = run(
        capsys, "spectrum", "--model", "scarf2", "--sweep", sweep, "--N", "20"
    )
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv,option",
    [
        (("spectrum", "--param", "A=nan"), "--param A"),
        (("verify", "--param", "A=4", "--alpha", "nan"), "--alpha"),
        (("verify", "--param", "A=4", "--beta", "inf"), "--beta"),
        (("spectrum", "--param", "A=4", "--tol-level", "nan"), "--tol-level"),
        (("verify", "--param", "A=4", "--tol-intertwine", "nan"), "--tol-intertwine"),
        (("spectrum", "--sweep", "A=3,inf"), "--sweep"),
        (("spectrum", "--param", "A=4", "--tol-level", "-1"), "--tol-level"),
        (("verify", "--param", "A=4", "--tol-intertwine", "-0.0001"), "--tol-intertwine"),
    ],
    ids=["param_nan", "alpha_nan", "beta_inf", "tol_level_nan", "tol_intertwine_nan",
         "sweep_inf", "tol_level_negative", "tol_intertwine_negative"],
)
def test_non_finite_or_negative_option_is_a_specification_error(capsys, argv, option):
    command, *rest = argv
    code, out, err = run(capsys, command, "--model", "scarf2", "--N", "20", *rest)
    assert code == 2
    assert out == ""
    assert option in err


def test_inline_antiderivative_is_checked_on_the_run_grid(capsys):
    # sqrt(x) is undefined left of 0, so a check outside [a, b] cannot run
    code, report = run_json(
        capsys,
        "derive", "--W=sqrt(x)", "--antideriv=2/3*sqrt(x)^3", "--a", "1", "--b", "5",
    )
    assert code == 0
    assert report["config"]["resolved_spec"]["antiderivative"] is not None


def test_inline_antiderivative_mismatch_on_the_run_grid(capsys):
    # on [-1, 1] the defect |W| stays below 1e-9; on [2, 10] it reaches 1e-6
    code, out, err = run(
        capsys, "derive", "--W=1e-9*x^3", "--antideriv=1", "--a", "2", "--b", "10"
    )
    assert code == 2
    assert out == ""
    assert "antiderivative mismatch" in err


def test_antiderivative_check_is_relative_to_w(capsys):
    # |W| reaches 1e9, so the rounding of d/dx(W0*sin(x)^2) exceeds 1e-8
    # in absolute terms while its relative error stays near 1e-16
    code, report = run_json(
        capsys, "derive", "--W=W0*sin(2*x)", "--antideriv=W0*sin(x)^2",
        "--param", "W0=1e9", "--a", "0.5", "--b", "3",
    )
    assert code == 0
    assert report["config"]["resolved_spec"]["antiderivative"] is not None


@pytest.mark.parametrize("A", ["1e154", "1e200"])
@pytest.mark.parametrize("command", [("verify", "--model", "scarf2", "--N", "50"),
                                     ("catalog", "scarf2")])
def test_scarf_ladder_too_long_for_the_grid_is_a_spec_error(capsys, command, A):
    code, out, err = run(capsys, *command, "--param", "A=" + A)
    assert code == 2
    assert out == ""
    assert err.startswith("specification error: model 'scarf2' requires |A| <= 4001")
    assert "got A=%g" % float(A) in err


@pytest.mark.parametrize("command", [("spectrum", "--model", "scarf2", "--N", "200"),
                                     ("catalog", "scarf2")])
def test_zero_generator_of_a_catalog_model_is_a_spec_error(capsys, command):
    # A = 0 makes W = I = 0; a tiny nonzero A is still a model
    code, out, err = run(capsys, *command, "--param", "A=0")
    assert (code, out) == (2, "")
    assert err == "specification error: model 'scarf2' requires A != 0\n"
    assert run(capsys, *command, "--param", "A=1e-300")[0] in (0, 1)


def test_derive_wide_window_keeps_decaying_antiderivative(capsys):
    # A/cosh(x) drops below any absolute threshold near |x| = 30 but never
    # vanishes; only a zero relative to W is a domain error
    code, report = run_json(
        capsys,
        "derive", "--model", "scarf2", "--param", "A=4",
        "--a", "-32", "--b", "32", "--N", "99",
    )
    assert code == 0
    assert np.all(np.isfinite(report["columns"]["Q"]))


def test_derive_inline_odd_w_flags_double_zero_of_antiderivative(capsys):
    # without --antideriv, I = int_0^x W has a double zero at x = 0 for odd
    # W; W(0) = 0 there, so the zero test must also scale by W'
    code, out, err = run(
        capsys, "derive", "--W=-A*sinh(x)/cosh(x)^2", "--param", "A=4"
    )
    assert code == 3
    assert "vanishes" in err


def test_verify_rejects_an_infinite_grid_end(capsys):
    code, out, err = run(
        capsys, "verify", "--model", "scarf2", "--param", "A=4", "--b", "inf", "--N", "10"
    )
    assert code == 2
    assert out == ""
    assert "finite ends" in err


@pytest.mark.parametrize("argv", [
    ("derive", "--W=1"),
    ("verify", "--W=1"),
    ("spectrum", "--model", "scarf2", "--param", "A=4", "--N", "10"),
], ids=["derive", "verify", "spectrum"])
def test_grid_whose_span_overflows_is_a_spec_error(capsys, argv):
    # both ends are finite, but b - a is not, and neither is the spacing h
    code, out, err = run(capsys, *argv, "--a=-1e308", "--b", "1e308")
    assert (code, out) == (2, "")
    assert err == "specification error: grid span b - a of [-1e+308, 1e+308] overflows\n"


@pytest.mark.parametrize("command", ["verify", "spectrum"])
def test_grid_too_large_to_address_is_a_spec_error(capsys, command):
    # 16 bytes a point of 2^62 points passes numpy's signed size; the Grid
    # refuses it by arithmetic, before anything is allocated
    code, out, err = run(
        capsys, command, "--model", "scarf2", "--param", "A=4", "--N", str(2**62)
    )
    assert (code, out) == (2, "")
    assert err.startswith("specification error: grid of %d interior points is too large" % 2**62)
    assert err.count("\n") == 1


def test_grid_too_large_for_memory_is_a_spec_error(capsys, monkeypatch):
    def out_of_memory(model, grid):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(operators, "build_hamiltonian", out_of_memory)
    code, out, err = run(capsys, "spectrum", "--model", "scarf2", "--param", "A=4")
    assert (code, out) == (2, "")
    assert err == "specification error: out of memory: Unable to allocate 745. GiB for an array\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("--model", "scarf2", "--param", "A=4", "--a", "700", "--b", "720", "--N", "10"),
        ("--W=1e999",),
        # W and I are finite, but G^2 overflows inside derive, in either format
        ("--W=1e200*x", "--antideriv", "5e199*x^2", "--a", "0.5", "--b", "2", "--N", "10"),
        ("--W=1e200*x", "--antideriv", "5e199*x^2", "--a", "0.5", "--b", "2", "--N", "10",
         "--format", "csv"),
        # 1e200^2 in the derivative overflows a Python float power
        ("--W=1e200^3*x", "--a", "1", "--b", "2", "--N", "5"),
    ],
    ids=["sinh_overflow", "infinite_constant", "report_json", "report_csv", "constant_power"],
)
def test_derive_non_finite_value_is_a_domain_error(capsys, argv):
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, "derive", *argv)
    assert code == 3
    assert out == ""
    assert "non-finite value" in err


def _strict_json(text):
    def refuse(token):
        raise AssertionError("report holds %s" % token)

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "argv",
    [
        ("derive", "--W=exp(x)", "--a", "0.5", "--b", "800"),
        ("verify", "--model", "scarf2", "--param", "A=1e308"),
    ],
    ids=["exp_overflow", "product_overflow"],
)
def test_domain_error_prints_no_numpy_warning(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("evaluation error: non-finite value")


@pytest.mark.parametrize("command", ["spectrum", "verify"])
@pytest.mark.parametrize(
    "argv",
    [
        ("--model", "morse", "--param", "xi=1e300", "--N", "200"),
        ("--model", "scarf2", "--param", "A=4", "--alpha", "1e300"),
        ("--W=-A*sinh(x)/cosh(x)^2", "--param", "A=1e200", "--a", "0.5", "--b", "12"),
    ],
    ids=["morse_G_squared", "scarf2_alpha", "inline_W"],
)
def test_overflowing_potential_is_a_domain_error_at_its_x(capsys, command, argv):
    # W and I evaluate finite, but V overflows through G^2, Q or alpha / I^2
    code, out, err = run(capsys, command, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("evaluation error: non-finite potential at x = ")


@pytest.mark.parametrize(
    "argv",
    [
        ("derive", "--model", "periodic", "--N", "49"),
        ("derive", "--model", "periodic", "--N", "49", "--format", "csv"),
        ("verify", "--model", "scarf2", "--param", "A=2", "--N", "200"),
        ("verify", "--model", "scarf2", "--param", "A=2", "--N", "200", "--format", "csv"),
        ("verify", "CSV_PAIR"),
        ("verify", "CSV_PAIR", "--format", "csv"),
        ("spectrum", "--model", "scarf2", "--param", "A=4", "--N", "300"),
        ("spectrum", "--model", "scarf2", "--param", "A=4", "--N", "300", "--format", "csv"),
        ("spectrum", "--model", "scarf2", "--sweep", "A=2,4", "--N", "250"),
        ("catalog",),
        ("catalog", "scarf2", "--param", "A=4"),
    ],
    ids=" ".join,
)
def test_out_file_holds_the_stdout_bytes(capsys, tmp_path, argv):
    if "CSV_PAIR" in argv:
        argv = ("verify", *_csv_pair(tmp_path), *argv[2:])
    code, out, err = run(capsys, *argv)
    target = tmp_path / "report.txt"
    assert main([*argv, "--out", str(target)]) == code
    assert capsys.readouterr().out == ""
    # a report's config records the path it was written to
    recorded = '"out": %s' % json.dumps(str(target))
    assert target.read_text().replace(recorded, '"out": null') == out


def test_unwritable_out_path_is_a_spec_error(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "catalog", "--out", str(target))
    assert code == 2
    assert err.startswith("specification error: cannot write report: ")
    assert not target.exists()


def test_spectrum_unmatched_level_reads_null(capsys):
    code, out, err = run(capsys, "spectrum", "--model", "morse", "--param", "xi=1", "--N", "300")
    assert code == 1
    match = _strict_json(out)["bound_states"]["matches"][0]
    assert match == {"level": -0.25, "eigenvalue": None, "distance": None, "matched": False}


# ---------------------------------------------------------------------------
# report formats and external input


@pytest.mark.parametrize(
    "argv",
    [
        ("derive", "--W=-xi*exp(-x)", "--param", "xi=1", "--a", "0.5", "--b", "14"),
        ("verify", "--model", "scarf2", "--param", "A=2", "--N", "200"),
        ("spectrum", "--model", "scarf2", "--param", "A=4", "--N", "300"),
        ("spectrum", "--model", "scarf2", "--sweep", "A=2,4", "--N", "300"),
        ("catalog",),
        ("catalog", "scarf2", "--param", "A=4"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_json_report_is_one_line(capsys, monkeypatch, argv):
    built = []
    emit = pseudoherm.cli._emit

    def keep(cfg, report, table):
        built.append(report)
        emit(cfg, report, table)

    monkeypatch.setattr(pseudoherm.cli, "_emit", keep)
    code, out, err = run(capsys, *argv)
    assert code in (0, 1), err  # a failed check still prints its report
    assert out.endswith("\n") and "\n" not in out[:-1]
    assert json.loads(out) == built[0]


def test_non_finite_report_is_refused(capsys):
    # W and I are finite, but G^2 overflows; the C encoder names no value
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, "derive", "--W=1e200*x", "--antideriv", "5e199*x^2",
                             "--a", "0.5", "--b", "2", "--N", "10")
    assert (code, out) == (3, "")
    assert err.startswith("evaluation error: the report holds a non-finite value")


def test_catalog_list_refuses_csv(capsys):
    code, out, err = run(capsys, "catalog", "--format", "csv")
    assert code == 2
    assert out == ""
    assert "--format csv is not available" in err


def test_spectrum_sweep_refuses_csv_before_solving(capsys, monkeypatch):
    def no_eig(op):
        raise AssertionError("eigensolve ran before the format was refused")

    monkeypatch.setattr("pseudoherm.eigen.eig", no_eig)
    code, out, err = run(
        capsys,
        "spectrum", "--model", "scarf2", "--sweep", "A=2,4",
        "--N", "100", "--format", "csv",
    )
    assert code == 2
    assert out == ""
    assert "--format csv is not available" in err


@pytest.mark.parametrize(
    "H_text,eta_text,message",
    [
        ("1,0,0,0\n0,0\n", "1,0,0,0\n0,0,1,0\n", "not a square matrix"),
        ("1,0,x,0\n0,0,1,0\n", "1,0,0,0\n0,0,1,0\n", "row 1, column 3: could not convert"),
        ("1,0,inf,0\n0,0,1,0\n", "1,0,0,0\n0,0,1,0\n", "row 1, column 3: non-finite field 'inf'"),
        ("1,0,0,0\n0,0,1,0\n", "1,0,0,0\n0,0,1,nan\n", "row 2, column 4: non-finite field 'nan'"),
        ("1,0,0,0\n0,0,1,0\n", "1,0\n", "different shapes"),
        (None, "1,0\n", "cannot read"),
    ],
    ids=["ragged", "non_numeric", "inf", "nan", "size_mismatch", "missing_file"],
)
def test_verify_external_rejects_bad_csv(capsys, tmp_path, H_text, eta_text, message):
    h_path = tmp_path / "H.csv"
    eta_path = tmp_path / "eta.csv"
    if H_text is not None:
        h_path.write_text(H_text)
    eta_path.write_text(eta_text)
    code, out, err = run(
        capsys, "verify", "--H-csv", str(h_path), "--eta-csv", str(eta_path)
    )
    assert code == 2
    assert message in err


# ---------------------------------------------------------------------------
# options


@pytest.mark.parametrize(
    "command,option",
    [
        ("derive", "--tol-level"),
        ("derive", "--tol-intertwine"),
        ("verify", "--tol-level"),
        ("spectrum", "--tol-intertwine"),
    ],
)
def test_subcommand_refuses_an_option_it_does_not_read(capsys, command, option):
    argv = [command, "--model", "scarf2", "--param", "A=4", "--N", "20", option, "1"]
    assert main(argv) == 2
    assert "unrecognized arguments: %s" % option in capsys.readouterr().err
