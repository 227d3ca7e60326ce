"""Command-line front end.

Subcommands: derive (sample the pipeline functions over a grid), verify
(residuals of the intertwining and Hermiticity identities), spectrum
(dense eigensolve with bound-state filtering and analytic matching), and
catalog (list/show the ready-made models).

Exit codes: 0 all requested checks passed, 1 a check failed, 2 bad
specification or arguments, 3 evaluation-domain error, 4 eigensolver
failure.  Every report embeds the resolved configuration that produced it.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import catalog, eigen, operators
from .eigen import EigenSolverError
from .expressions import EvaluationError, ExprSyntaxError, evaluate, to_source
from .generator import (
    GeneratorSpec,
    SpecError,
    constant_w_effective,
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
    return params


def _config_from_args(args):
    cfg = RunConfig(command=args.command)
    for name in (
        "model", "W", "antideriv", "alpha", "beta", "a", "b", "N",
        "out", "tol_intertwine", "tol_level", "sweep", "H_csv", "eta_csv", "name",
    ):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    if hasattr(args, "format") and args.format:
        cfg.fmt = args.format
    if hasattr(args, "param"):
        cfg.params = _parse_params(args.param)
    return cfg


def _resolve(cfg):
    """Turn a RunConfig into (entry-or-None, spec, grid)."""
    if bool(cfg.model) == bool(cfg.W):
        raise SpecError("exactly one of --model and --W must be given")
    if cfg.model:
        entry = catalog.get(cfg.model, cfg.params)
        spec = entry.spec
        if cfg.alpha is not None or cfg.beta is not None:
            spec = dataclasses.replace(
                spec,
                alpha=spec.alpha if cfg.alpha is None else cfg.alpha,
                beta=spec.beta if cfg.beta is None else cfg.beta,
            )
        grid = entry.grid
    else:
        entry = None
        spec = GeneratorSpec(
            W=cfg.W,
            antiderivative=cfg.antideriv,
            alpha=cfg.alpha if cfg.alpha is not None else 0.0,
            beta=cfg.beta if cfg.beta is not None else 0.0,
            env=cfg.params,
        )
        grid = DEFAULT_GRID
    overrides = {}
    if cfg.a is not None:
        overrides["a"] = cfg.a
    if cfg.b is not None:
        overrides["b"] = cfg.b
    if cfg.N is not None:
        overrides["n"] = int(cfg.N)
    if overrides:
        grid = dataclasses.replace(grid, **overrides)
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


def _emit(cfg, report, csv_rows=None):
    _check_csv(cfg, csv_rows is not None)
    if cfg.fmt == "csv":
        text = "\n".join(",".join(str(v) for v in row) for row in csv_rows) + "\n"
    else:
        text = json.dumps(report, indent=2) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_derive(cfg):
    entry, spec, grid = _resolve(cfg)
    if entry is not None and not entry.solvable:
        return _derive_constant(cfg, entry, grid)
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
    header = list(table)
    rows = [header] + [
        [repr(float(table[k][i])) for k in header] for i in range(len(xs))
    ]
    _emit(cfg, report, rows)
    return EXIT_OK


def _derive_constant(cfg, entry, grid):
    xs = np.linspace(grid.a, grid.b, DERIVE_SAMPLES)
    mask = np.abs(entry.constant_model.W0 * xs + entry.constant_model.C0) > 1e-9
    veff = constant_w_effective(entry.constant_model, xs[mask])
    report = {
        "config": _config_dict(cfg, entry.spec, grid),
        "columns": {
            "x": [float(v) for v in xs[mask]],
            "re_Veff": [float(v) for v in veff.real],
            "im_Veff": [float(v) for v in veff.imag],
        },
        "notes": entry.notes,
    }
    rows = [["x", "re_Veff", "im_Veff"]] + [
        [repr(float(x)), repr(float(v.real)), repr(float(v.imag))]
        for x, v in zip(xs[mask], veff)
    ]
    _emit(cfg, report, rows)
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
    rows = [["check", "residual"]] + [[k, repr(v)] for k, v in residuals.items()]
    rows.append(["status", report["status"]])
    _emit(cfg, report, rows)
    return EXIT_OK if passed else EXIT_FAIL


def _verify_external(cfg):
    if not (cfg.H_csv and cfg.eta_csv):
        raise SpecError("external verification needs both --H-csv and --eta-csv")
    residuals = _residuals(
        operators.matrix_from_csv(cfg.H_csv), operators.matrix_from_csv(cfg.eta_csv)
    )
    report = {"config": _config_dict(cfg), "residuals": residuals}
    rows = [["check", "residual"]] + [[k, repr(v)] for k, v in residuals.items()]
    _emit(cfg, report, rows)
    return EXIT_OK


def _sweep_values(cfg):
    if not cfg.sweep:
        return [None]
    name, sep, values = cfg.sweep.partition("=")
    if not sep or not values:
        raise SpecError("--sweep wants NAME=v1,v2,..., got '%s'" % cfg.sweep)
    try:
        return [(name, float(v)) for v in values.split(",")]
    except ValueError:
        raise SpecError("non-numeric sweep value in '%s'" % cfg.sweep)


def _spectrum_once(cfg):
    entry, spec, grid = _resolve(cfg)
    if entry is not None and not entry.solvable:
        raise SpecError(
            "model '%s' supports no bound states; spectrum is not defined"
            % entry.name
        )
    model = derive(spec)
    hamiltonian = operators.build_hamiltonian(model, grid)
    report = eigen.eig(hamiltonian)
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
    passed = all(m.matched for m in matches)
    if matches:
        data["all_levels_matched"] = passed
    return data, subject, passed


def cmd_spectrum(cfg):
    sweeps = _sweep_values(cfg)
    _check_csv(cfg, len(sweeps) == 1)
    reports = []
    all_passed = True
    for item in sweeps:
        run_cfg = cfg
        if item is not None:
            name, value = item
            run_cfg = dataclasses.replace(
                cfg, params={**cfg.params, name: value}, sweep=None
            )
        data, subject, passed = _spectrum_once(run_cfg)
        if item is not None:
            data["sweep_value"] = {item[0]: item[1]}
        reports.append((data, subject))
        all_passed = all_passed and passed
    if len(reports) == 1:
        report, subject = reports[0]
        rows = [["re", "im", "residual", "real_flag"]] + [
            [repr(float(v.real)), repr(float(v.imag)), repr(float(r)), int(f)]
            for v, r, f in zip(
                subject.eigenvalues, subject.residuals, subject.reality_flags
            )
        ]
        _emit(cfg, report, rows)
    else:
        _emit(cfg, [data for data, _ in reports])
    return EXIT_OK if all_passed else EXIT_FAIL


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
                for name, (required, _) in catalog.MODELS.items()
            ],
        )
    return EXIT_OK


def _add_common(parser, spectrum=False):
    parser.add_argument("--model", help="catalog model name")
    parser.add_argument("--W", help="inline generator expression")
    parser.add_argument("--antideriv", help="closed-form antiderivative of W")
    parser.add_argument(
        "--param", action="append", metavar="NAME=VALUE", help="bind a parameter"
    )
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--beta", type=float)
    parser.add_argument("--a", type=float, help="left end of the grid")
    parser.add_argument("--b", type=float, help="right end of the grid")
    parser.add_argument("--N", type=int, help="interior grid points")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--tol-intertwine", type=float, dest="tol_intertwine")
    parser.add_argument("--tol-level", type=float, dest="tol_level")
    if spectrum:
        parser.add_argument(
            "--sweep", metavar="NAME=v1,v2,...", help="repeat over parameter values"
        )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pseudoherm",
        description="Derive, verify, and diagonalize models whose imaginary"
        " potential part generates the real part through a metric operator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("derive", help="sample the derived functions"))
    verify = sub.add_parser("verify", help="residuals of the defining identities")
    _add_common(verify)
    verify.add_argument("--H-csv", dest="H_csv", help="external Hamiltonian CSV")
    verify.add_argument("--eta-csv", dest="eta_csv", help="external metric CSV")
    _add_common(sub.add_parser("spectrum", help="dense eigensolve"), spectrum=True)
    cat = sub.add_parser("catalog", help="list or show ready-made models")
    cat.add_argument("name", nargs="?", help="entry to show; omit to list")
    cat.add_argument("--param", action="append", metavar="NAME=VALUE")
    cat.add_argument("--format", choices=("json", "csv"), default="json")
    cat.add_argument("--out")
    return parser


COMMANDS = {
    "derive": cmd_derive,
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
    "catalog": cmd_catalog,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
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
