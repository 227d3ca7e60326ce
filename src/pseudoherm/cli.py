"""Command-line front end.

Subcommands: derive (sample the pipeline functions over a grid), verify
(residuals of the intertwining and Hermiticity identities), spectrum
(eigensolve with bound-state filtering and analytic matching: the
certified eigenvalues below the model's window for a catalog model, the
dense full spectrum for an inline one), and catalog (list/show the
ready-made models).

A run takes one path: argparse fills a RunConfig (each option's dest is a
field, and a subcommand takes only the options it reads), _resolve builds
the spec and grid the same way for catalog and inline models, and _emit
writes the report as JSON or, from a column table, as CSV.

Exit codes: 0 all requested checks passed, 1 a check failed, 2 bad
specification or arguments, 3 evaluation-domain error, 4 eigensolver
failure.  Every report embeds the resolved configuration that produced it.
"""

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import catalog, eigen, operators
from .eigen import EigenSolverError
from .expressions import EvaluationError, ExprSyntaxError, evaluate, to_source
from .generator import (
    GeneratorSpec,
    SpecError,
    _antiderivative_zero,
    derive,
    effective_potential,
    spec_to_config,
)
from .operators import Grid, GridMismatchError

DEFAULT_GRID = Grid(-10.0, 10.0, 1000)
DEFAULT_TOL_INTERTWINE = 1e-4
DEFAULT_TOL_LEVEL = 1e-2
DERIVE_SAMPLES = 201

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SPEC = 2
EXIT_DOMAIN = 3
EXIT_SOLVER = 4


@dataclasses.dataclass
class RunConfig:
    command: str
    model: str = None
    W: str = None
    antideriv: str = None
    params: dict = dataclasses.field(default_factory=dict)
    alpha: float = None
    beta: float = None
    a: float = None
    b: float = None
    N: int = None
    fmt: str = "json"
    out: str = None
    tol_intertwine: float = DEFAULT_TOL_INTERTWINE
    tol_level: float = DEFAULT_TOL_LEVEL
    sweep: str = None
    H_csv: str = None
    eta_csv: str = None
    name: str = None


def _parse_params(pairs):
    params = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SpecError("--param wants NAME=VALUE, got '%s'" % pair)
        try:
            params[key] = float(value)
        except ValueError:
            raise SpecError("parameter '%s' has non-numeric value '%s'" % (key, value))
        if not math.isfinite(params[key]):
            raise SpecError("--param %s must be finite, got '%s'" % (key, value))
    return params


def _finite(text):
    """argparse type of a float option: NaN and infinity are refused."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid float value: '%s'" % text) from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be finite, got '%s'" % text)
    return value


def _tolerance(text):
    """argparse type of a tolerance: a finite float >= 0."""
    value = _finite(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError("must not be negative, got '%s'" % text)
    return value


def _config_from_args(args):
    """RunConfig from the parsed options; a field whose option is not given
    keeps its default."""
    given = {name: value for name, value in vars(args).items() if value is not None}
    given["params"] = _parse_params(given.get("params"))
    return RunConfig(**given)


def _resolve(cfg):
    """Turn a RunConfig into (entry-or-None, spec, grid): the catalog entry
    or the inline spec, with --alpha/--beta and --a/--b/--N applied to
    either in the same way.  An inline --antideriv is checked against W on
    the span of the run's interior grid points; a catalog spec keeps its
    own check interval."""
    if bool(cfg.model) == bool(cfg.W):
        raise SpecError("exactly one of --model and --W must be given")
    entry = catalog.get(cfg.model, cfg.params) if cfg.model else None
    grid = DEFAULT_GRID if entry is None else entry.grid
    given = (("a", cfg.a), ("b", cfg.b), ("n", cfg.N))
    overrides = {name: value for name, value in given if value is not None}
    if overrides:
        grid = dataclasses.replace(grid, **overrides)
    if entry is None:
        spec = GeneratorSpec(
            W=cfg.W,
            antiderivative=cfg.antideriv,
            env=cfg.params,
            check_interval=(grid.a + grid.h, grid.b - grid.h),
        )
    else:
        spec = entry.spec
    # a new spec re-runs its antiderivative check, so only when asked for
    if cfg.alpha is not None or cfg.beta is not None:
        spec = dataclasses.replace(
            spec,
            alpha=spec.alpha if cfg.alpha is None else cfg.alpha,
            beta=spec.beta if cfg.beta is None else cfg.beta,
        )
    return entry, spec, grid


def _config_dict(cfg, spec=None, grid=None):
    data = dataclasses.asdict(cfg)
    if spec is not None:
        data["resolved_spec"] = spec_to_config(spec)
    if grid is not None:
        data["resolved_grid"] = {"a": grid.a, "b": grid.b, "N": grid.n}
    return data


def _check_csv(cfg, available):
    """Refuse --format csv for a report that has no CSV form."""
    if cfg.fmt == "csv" and not available:
        raise SpecError("--format csv is not available for this report")


def _cell(value):
    if isinstance(value, bool):
        return str(int(value))
    return repr(float(value)) if isinstance(value, float) else str(value)


def _emit(cfg, report, table=None):
    """Write the report as JSON, or as CSV from its column table (name ->
    list): a header row, then one row per entry with floats through repr,
    bools as 0/1 and strings as they are.  A report without a table has no
    CSV form.  A report that holds NaN or Infinity is refused in either
    format, as an evaluation error."""
    _check_csv(cfg, table is not None)
    try:
        text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise EvaluationError("the report holds a non-finite value (%s)" % exc) from None
    if cfg.fmt == "csv":
        rows = [",".join(table)]
        rows += [",".join(map(_cell, row)) for row in zip(*table.values())]
        text = "\n".join(rows) + "\n"
    if cfg.out:
        try:
            with open(cfg.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise SpecError("cannot write report: %s" % exc) from None
    else:
        sys.stdout.write(text)


def cmd_derive(cfg):
    entry, spec, grid = _resolve(cfg)
    if entry is not None and not entry.solvable:
        return _derive_constant(cfg, entry, spec, grid)
    model = derive(spec)
    xs = np.linspace(grid.a + grid.h, grid.b - grid.h, DERIVE_SAMPLES)
    veff = effective_potential(model, xs)
    table = {
        "x": xs,
        "G": model.G(xs),
        "Q": model.Q(xs),
        "V": model.V(xs),
        "W": model.W(xs),
        "re_Veff": veff.real,
        "im_Veff": veff.imag,
    }
    report = {
        "config": _config_dict(cfg, spec, grid),
        "columns": {k: [float(v) for v in col] for k, col in table.items()},
    }
    if entry is not None and entry.analytic_V is not None:
        reference = evaluate(entry.analytic_V, xs, spec.env)
        residual = float(
            np.max(np.abs(table["V"] - reference) / np.maximum(1.0, np.abs(reference)))
        )
        report["analytic_V_residual"] = residual
    _emit(cfg, report, report["columns"])
    return EXIT_OK


def _derive_constant(cfg, entry, spec, grid):
    model = derive(spec)
    xs = np.linspace(grid.a, grid.b, DERIVE_SAMPLES)
    xs = xs[~_antiderivative_zero(model, xs)]
    veff = effective_potential(model, xs)
    report = {
        "config": _config_dict(cfg, spec, grid),
        "columns": {
            "x": [float(v) for v in xs],
            "re_Veff": [float(v) for v in veff.real],
            "im_Veff": [float(v) for v in veff.imag],
        },
        "notes": entry.notes,
    }
    _emit(cfg, report, report["columns"])
    return EXIT_OK


def _residuals(hamiltonian, eta):
    """The three residuals verify reports for one (H, eta) pair."""
    return {
        "intertwining": operators.intertwining_residual(hamiltonian, eta),
        "eta_hermiticity": operators.hermiticity_residual(eta),
        "etaH_hermiticity": operators.hermiticity_residual(
            operators.compose(eta, hamiltonian, "etaH")
        ),
    }


def cmd_verify(cfg):
    if cfg.H_csv or cfg.eta_csv:
        return _verify_external(cfg)
    entry, spec, grid = _resolve(cfg)
    model = derive(spec)
    residuals = _residuals(
        operators.build_hamiltonian(model, grid), operators.build_eta(model, grid)
    )
    passed = all(value <= cfg.tol_intertwine for value in residuals.values())
    report = {
        "config": _config_dict(cfg, spec, grid),
        "residuals": residuals,
        "tolerance": cfg.tol_intertwine,
        "status": "PASS" if passed else "FAIL",
    }
    table = {
        "check": [*residuals, "status"],
        "residual": [*residuals.values(), report["status"]],
    }
    _emit(cfg, report, table)
    return EXIT_OK if passed else EXIT_FAIL


def _verify_external(cfg):
    if not (cfg.H_csv and cfg.eta_csv):
        raise SpecError("external verification needs both --H-csv and --eta-csv")
    residuals = _residuals(
        operators.matrix_from_csv(cfg.H_csv), operators.matrix_from_csv(cfg.eta_csv)
    )
    report = {"config": _config_dict(cfg), "residuals": residuals}
    _emit(cfg, report, {"check": list(residuals), "residual": list(residuals.values())})
    return EXIT_OK


def _sweep_runs(cfg):
    """(config, sweep value) per run: cfg alone, or one per --sweep value."""
    if not cfg.sweep:
        return [(cfg, None)]
    name, sep, values = cfg.sweep.partition("=")
    if not sep or not values:
        raise SpecError("--sweep wants NAME=v1,v2,..., got '%s'" % cfg.sweep)
    try:
        values = [float(v) for v in values.split(",")]
    except ValueError:
        raise SpecError("non-numeric sweep value in '%s'" % cfg.sweep)
    if not all(map(math.isfinite, values)):
        raise SpecError("--sweep values must be finite, got '%s'" % cfg.sweep)
    return [
        (dataclasses.replace(cfg, params={**cfg.params, name: v}, sweep=None), {name: v})
        for v in values
    ]


def _spectrum_once(cfg):
    entry, spec, grid = _resolve(cfg)
    if entry is not None and not entry.solvable:
        raise SpecError(
            "model '%s' supports no bound states; spectrum is not defined"
            % entry.name
        )
    model = derive(spec)
    hamiltonian = operators.build_hamiltonian(model, grid)
    report = eigen.eig(hamiltonian, below=None if entry is None else entry.spectrum_window)
    filtered = None
    if entry is not None and entry.continuum_threshold is not None:
        filtered = eigen.bound_state_filter(report, grid, entry.continuum_threshold)
    subject = filtered if filtered is not None else report
    matches = ()
    if entry is not None and entry.analytic_levels:
        matches = tuple(
            eigen.match_levels(subject, entry.analytic_levels, cfg.tol_level)
        )
    data = {
        "config": _config_dict(cfg, spec, grid),
        "spectrum": eigen.report_to_dict(dataclasses.replace(report, matches=matches)),
    }
    if filtered is not None:
        data["bound_states"] = eigen.report_to_dict(
            dataclasses.replace(filtered, matches=matches)
        )
        data["continuum_threshold"] = entry.continuum_threshold
    if matches:
        data["all_levels_matched"] = all(m.matched for m in matches)
    return data


def cmd_spectrum(cfg):
    runs = _sweep_runs(cfg)
    _check_csv(cfg, len(runs) == 1)
    reports = []
    for run_cfg, sweep_value in runs:
        data = _spectrum_once(run_cfg)
        if sweep_value is not None:
            data["sweep_value"] = sweep_value
        reports.append(data)
    if len(reports) == 1:
        (report,) = reports
        listed = report.get("bound_states", report["spectrum"])
        table = {
            "re": [re for re, _ in listed["eigenvalues"]],
            "im": [im for _, im in listed["eigenvalues"]],
            "residual": listed["residuals"],
            "real_flag": listed["reality_flags"],
        }
        _emit(cfg, report, table)
    else:
        _emit(cfg, reports)
    passed = all(data.get("all_levels_matched", True) for data in reports)
    return EXIT_OK if passed else EXIT_FAIL


def cmd_catalog(cfg):
    if cfg.name:
        entry = catalog.get(cfg.name, cfg.params)
        report = {
            "name": entry.name,
            "spec": spec_to_config(entry.spec),
            "analytic_V": None
            if entry.analytic_V is None
            else to_source(entry.analytic_V),
            "analytic_levels": [float(v) for v in entry.analytic_levels],
            "recommended_grid": {
                "a": entry.grid.a,
                "b": entry.grid.b,
                "N": entry.grid.n,
            },
            "eigenfunctions": sorted(entry.eigenfunctions),
            "solvable": entry.solvable,
            "notes": entry.notes,
        }
        if entry.scarf_s_t is not None:
            report["s_t"] = list(entry.scarf_s_t)
        _emit(cfg, report)
    else:
        _emit(
            cfg,
            [
                {"name": name, "required_params": list(required)}
                for name, (required, *_) in catalog.MODELS.items()
            ],
        )
    return EXIT_OK


def _add_output(parser):
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"))
    parser.add_argument("--out", help="write the report here instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pseudoherm",
        description="Derive, verify, and diagonalize models whose imaginary"
        " potential part generates the real part through a metric operator.",
    )
    # model, grid and output options, shared by derive, verify and spectrum
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--model", help="catalog model name")
    shared.add_argument("--W", help="inline generator expression")
    shared.add_argument("--antideriv", help="closed-form antiderivative of W")
    shared.add_argument(
        "--param", action="append", dest="params", metavar="NAME=VALUE",
        help="bind a parameter",
    )
    shared.add_argument("--alpha", type=_finite)
    shared.add_argument("--beta", type=_finite)
    shared.add_argument("--a", type=float, help="left end of the grid")
    shared.add_argument("--b", type=float, help="right end of the grid")
    shared.add_argument("--N", type=int, help="interior grid points")
    _add_output(shared)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("derive", parents=[shared], help="sample the derived functions")
    verify = sub.add_parser(
        "verify", parents=[shared], help="residuals of the defining identities"
    )
    verify.add_argument("--tol-intertwine", type=_tolerance)
    verify.add_argument("--H-csv", help="external Hamiltonian CSV")
    verify.add_argument("--eta-csv", help="external metric CSV")
    spectrum = sub.add_parser(
        "spectrum", parents=[shared],
        help="eigenvalues below a catalog model's window (certified count),"
        " or the full spectrum of an inline model",
    )
    spectrum.add_argument("--tol-level", type=_tolerance)
    spectrum.add_argument(
        "--sweep", metavar="NAME=v1,v2,...", help="repeat over parameter values"
    )
    cat = sub.add_parser("catalog", help="list or show ready-made models")
    cat.add_argument("name", nargs="?", help="entry to show; omit to list")
    cat.add_argument("--param", action="append", dest="params", metavar="NAME=VALUE")
    _add_output(cat)
    return parser


COMMANDS = {
    "derive": cmd_derive,
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
    "catalog": cmd_catalog,
}


PARSER = build_parser()


def main(argv=None):
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error or help
        return exc.code
    try:
        cfg = _config_from_args(args)
        # evaluate, eig and _emit each refuse a non-finite value with an
        # exit code and a message, so numpy's overflow warnings would only
        # print ahead of it
        with np.errstate(all="ignore"):
            return COMMANDS[args.command](cfg)
    except (SpecError, ExprSyntaxError, GridMismatchError) as exc:
        print("specification error: %s" % exc, file=sys.stderr)
        return EXIT_SPEC
    except EigenSolverError as exc:
        print("eigensolver error: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER
    except EvaluationError as exc:
        print("evaluation error: %s" % exc, file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
