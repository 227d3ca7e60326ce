"""Command-line front end.

Subcommands: derive (sample the pipeline functions over a grid), verify
(residuals of the intertwining and Hermiticity identities), spectrum
(the certified eigenvalues below the model's window for a catalog model,
compared with its analytic levels by the one rule eigen.catalog_states;
the dense full spectrum for an inline one), and catalog (list/show the
ready-made models).

A run takes one path: the subcommand parser, the one table of options, fills
the run's record (a subcommand takes only the options it reads, and
DEFAULTS supplies what a run reads for one it was not given), _resolve builds
the spec and grid the same way for catalog and inline models, the cmd_*
function returns (report, table, passed), and main makes the one _emit
call, which writes the report as compact one-line JSON or, from its
column table, as CSV, and turns passed into the exit code.  A report
without a table (a catalog entry or listing, a sweep over several values)
has no CSV form.

Exit codes: 0 all requested checks passed, 1 a check failed, 2 bad
specification or arguments, 3 evaluation-domain error, 4 eigensolver
failure.  Each derive, verify and spectrum report embeds the options its run read.
"""

import argparse
import dataclasses
import json
import math
import sys
import warnings

import numpy as np

from . import catalog, eigen, operators
from .eigen import EigenSolverError
from .expressions import EvaluationError, ExprSyntaxError, evaluate, to_source
from .generator import (
    GeneratorSpec,
    SpecError,
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


# what a run reads for an option it was not given; argparse leaves every
# option at None, so that a given option can be told from an absent one
DEFAULTS = {"fmt": "json", "tol_intertwine": DEFAULT_TOL_INTERTWINE, "tol_level": DEFAULT_TOL_LEVEL}


def _parse_params(pairs):
    params = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SpecError("--param wants NAME=VALUE, got '%s'" % pair)
        if key in params:
            raise SpecError("parameter '%s' is given more than once" % key)
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


def _read_options(cfg):
    """The options a run reads, in its subcommand parser's order: all of them,
    or only input and output for a verify of CSV matrices or a catalog listing."""
    csv_pair = cfg.command == "verify" and (cfg.H_csv or cfg.eta_csv)
    bare = csv_pair or cfg.command == "catalog" and not cfg.name
    return [name for name in OPTIONS[cfg.command]
            if not bare or name in ("command", "H_csv", "eta_csv", "name", "fmt", "out")]


def _config_from_args(args):
    """The run's record: the parsed options with DEFAULTS for those not given
    and --param as a dict, refusing a given option the run does not read."""
    given = {name: value for name, value in vars(args).items() if value is not None}
    cfg = argparse.Namespace(**{**vars(args), **DEFAULTS, **given})
    unread = sorted(given.keys() - set(_read_options(cfg)))
    if unread:
        options = ", ".join("--" + {"params": "param"}.get(n, n).replace("_", "-") for n in unread)
        run = "a verify of --H-csv/--eta-csv" if args.command == "verify" else "a catalog listing"
        raise SpecError("%s reads no %s" % (run, options))
    cfg.params = _parse_params(given.get("params"))
    return cfg


def _resolve(cfg):
    """Turn the run's options into (entry-or-None, spec, grid): the catalog entry
    or the inline spec, with --alpha/--beta and --a/--b/--N applied to
    either in the same way.  An inline --antideriv is checked against W on
    the span of the run's interior grid points; a catalog spec keeps its
    own check interval."""
    if bool(cfg.model) == bool(cfg.W):
        raise SpecError("exactly one of --model and --W must be given")
    entry = catalog.get(cfg.model, cfg.params) if cfg.model else None
    grid = DEFAULT_GRID if entry is None else entry.grid
    given = {"a": cfg.a, "b": cfg.b, "n": cfg.N}
    grid = dataclasses.replace(grid, **{k: v for k, v in given.items() if v is not None})
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


def _grid_dict(grid):
    return {"a": grid.a, "b": grid.b, "N": grid.n}


def _config_dict(cfg, spec=None, grid=None):
    data = {name: getattr(cfg, name) for name in _read_options(cfg)}
    if spec is not None:  # a verify of CSV matrices has neither spec nor grid
        data.update(resolved_spec=spec_to_config(spec), resolved_grid=_grid_dict(grid))
    return data


_NO_CSV = "--format csv is not available for this report"


def _cell(value):
    if isinstance(value, bool):
        return str(int(value))
    return repr(float(value)) if isinstance(value, float) else str(value)


def _emit(cfg, report, table):
    """Write the report as JSON on one line with default separators (the C
    encoder, which an indent would replace by the pure-Python one), or as CSV
    from its column table (name -> list): a header row, then one row per
    entry with floats through repr, bools as 0/1 and strings as they are.  A
    report whose table is None has no CSV form.  A report that holds NaN or
    Infinity is refused in either format, as an evaluation error."""
    if cfg.fmt == "csv" and table is None:
        raise SpecError(_NO_CSV)
    try:
        text = json.dumps(report, allow_nan=False) + "\n"
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
    """The pipeline functions at interior points; a model without bound
    states samples V_eff alone, on the closed interval less the zeros of I."""
    entry, spec, grid = _resolve(cfg)
    solvable = entry is None or entry.solvable
    model = derive(spec)
    if solvable:
        xs = np.linspace(grid.a + grid.h, grid.b - grid.h, DERIVE_SAMPLES)
    else:
        xs = np.linspace(grid.a, grid.b, DERIVE_SAMPLES)
        xs = xs[~model.antiderivative_zero(xs)]
    veff = effective_potential(model, xs)
    table = {"x": xs}
    if solvable:
        table.update(G=model.G(xs), Q=model.Q(xs), V=model.V(xs), W=model.W(xs))
    table.update(re_Veff=veff.real, im_Veff=veff.imag)
    report = {
        "config": _config_dict(cfg, spec, grid),
        "columns": {k: col.tolist() for k, col in table.items()},
    }
    if not solvable:
        report["notes"] = entry.notes
    elif entry is not None and entry.analytic_V is not None:
        reference = evaluate(entry.analytic_V, xs, spec.env)
        scale = np.maximum(1.0, np.abs(reference))
        report["analytic_V_residual"] = float(np.max(np.abs(table["V"] - reference) / scale))
    return report, report["columns"], True


def cmd_verify(cfg):
    """Residuals of an (H, eta) pair from two CSV files or from the model;
    only a model run is held to --tol-intertwine."""
    external = cfg.H_csv or cfg.eta_csv
    spec = grid = None
    if external:
        if not (cfg.H_csv and cfg.eta_csv):
            raise SpecError("external verification needs both --H-csv and --eta-csv")
        hamiltonian, eta = map(operators.matrix_from_csv, (cfg.H_csv, cfg.eta_csv))
    else:
        _, spec, grid = _resolve(cfg)
        model = derive(spec)
        hamiltonian = operators.build_hamiltonian(model, grid)
        eta = operators.build_eta(model, grid)
    residuals = dict(zip(("intertwining", "eta_hermiticity", "etaH_hermiticity"),
                         operators.verify_residuals(hamiltonian, eta)))
    report = {"config": _config_dict(cfg, spec, grid), "residuals": residuals}
    table = {"check": list(residuals), "residual": list(residuals.values())}
    if external:
        return report, table, True
    passed = all(value <= cfg.tol_intertwine for value in residuals.values())
    report["tolerance"] = cfg.tol_intertwine
    report["status"] = "PASS" if passed else "FAIL"
    table["check"].append("status")
    table["residual"].append(report["status"])
    return report, table, passed


def _sweep_runs(cfg):
    """(config, sweep value) per run: cfg alone, or one per --sweep value.
    A sweep over several values has no CSV form: refused before any solve."""
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
    if cfg.fmt == "csv" and len(values) > 1:
        raise SpecError(_NO_CSV)
    return [(argparse.Namespace(**{**vars(cfg), "params": {**cfg.params, name: v}, "sweep": None}),
             {name: v}) for v in values]


def _spectrum_once(cfg, sweep_value):
    entry, spec, grid = _resolve(cfg)
    if entry is not None and not entry.solvable:
        raise SpecError(
            "model '%s' supports no bound states; spectrum is not defined" % entry.name
        )
    model = derive(spec)
    hamiltonian = operators.build_hamiltonian(model, grid)
    report = eigen.eig(hamiltonian, below=None if entry is None else entry.spectrum_window)
    states, matches = (None, ()) if entry is None else eigen.catalog_states(
        report, grid, entry, cfg.tol_level)
    data = {
        "config": _config_dict(cfg, spec, grid),
        "spectrum": eigen.report_to_dict(dataclasses.replace(report, matches=matches)),
    }
    if entry is not None and entry.continuum_threshold is not None:
        data["bound_states"] = eigen.report_to_dict(dataclasses.replace(states, matches=matches))
        data["continuum_threshold"] = entry.continuum_threshold
    if matches:
        data["all_levels_matched"] = all(m.matched for m in matches)
    if sweep_value is not None:
        data["sweep_value"] = sweep_value
    return data


def cmd_spectrum(cfg):
    reports = [_spectrum_once(*run) for run in _sweep_runs(cfg)]
    passed = all(data.get("all_levels_matched", True) for data in reports)
    if len(reports) > 1:
        return reports, None, passed
    (report,) = reports
    listed = report.get("bound_states", report["spectrum"])
    table = {
        "re": [re for re, _ in listed["eigenvalues"]],
        "im": [im for _, im in listed["eigenvalues"]],
        "residual": listed["residuals"],
        "real_flag": listed["reality_flags"],
    }
    return report, table, passed


def cmd_catalog(cfg):
    if not cfg.name:
        rows = catalog.MODELS.items()
        listing = [{"name": name, "required_params": list(req)} for name, (req, *_) in rows]
        return listing, None, True
    entry = catalog.get(cfg.name, cfg.params)
    report = {
        "name": entry.name,
        "spec": spec_to_config(entry.spec),
        "analytic_V": None if entry.analytic_V is None else to_source(entry.analytic_V),
        "analytic_levels": [float(v) for v in entry.analytic_levels],
        "recommended_grid": _grid_dict(entry.grid),
        "eigenfunctions": sorted(entry.eigenfunctions),
        "solvable": entry.solvable,
        "notes": entry.notes,
    }
    if entry.scarf_s_t is not None:
        report["s_t"] = list(entry.scarf_s_t)
    return report, None, True


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
# the fields each subcommand's parser sets, in its option order
OPTIONS = {command: list(vars(PARSER.parse_args([command]))) for command in COMMANDS}


def main(argv=None):
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error or help
        return exc.code
    # a warning (build_hamiltonian's stiffness) prints as one line, as errors do
    default, warnings.formatwarning = warnings.formatwarning, lambda m, *_: "warning: %s\n" % m
    try:
        cfg = _config_from_args(args)
        # evaluate, build_hamiltonian, eig and _emit each refuse a non-finite
        # value with an exit code and a message, so numpy's overflow warnings
        # would only print ahead of it
        with np.errstate(all="ignore"):
            report, table, passed = COMMANDS[args.command](cfg)
            _emit(cfg, report, table)
        return EXIT_OK if passed else EXIT_FAIL
    except (SpecError, ExprSyntaxError, GridMismatchError) as exc:
        print("specification error: %s" % exc, file=sys.stderr)
        return EXIT_SPEC
    except EigenSolverError as exc:
        print("eigensolver error: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER
    except EvaluationError as exc:
        print("evaluation error: %s" % exc, file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError as exc:  # a grid too large for this machine's memory
        print("specification error: out of memory: %s" % exc, file=sys.stderr)
        return EXIT_SPEC
    finally:
        warnings.formatwarning = default


if __name__ == "__main__":
    sys.exit(main())
