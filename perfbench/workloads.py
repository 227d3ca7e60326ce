"""Workload definitions and per-op output checks for the pseudoherm benchmark.

An op is a plain dict that says which subcommand runs on which model; `argv`
turns it into the command line the program receives.  Ops come in cycles:
one cycle holds every op of its workload once, in a seeded order, so every
run sees the same mix of op kinds.

The checks test invariants that any correct version of the program must
keep, never a snapshot of one version's output.  They need no more than the
eigenvalues near the analytic levels, so a solver that returns only a few
states still passes.
"""

import json
import math
import random

import numpy as np

# Parameter sets, each value checked to pass every op check at the N below.
SCARF_A = (3.0, 4.0, 5.0)
MORSE_XI = (0.5, 1.0, 2.0)

VERIFY_N = 2000
SPECTRUM_N = 1000
INLINE_VERIFY_N = 500

TOL_INTERTWINING = 1e-4
TOL_ETA_HERMITICITY = 1e-12
TOL_LEVEL = 1e-2  # the program's default --tol-level
TOL_DERIVE = 1e-8

# Exit codes of the program: 0 passed, 1 one of its own checks failed.
# 2, 3 and 4 are specification, domain and solver errors.
COMPLETED_EXITS = (0, 1)

# Inline generators without an antiderivative, so the program integrates W
# numerically from x = 0.  Each domain stays clear of x = 0, where the
# integral vanishes and the program rightly refuses to evaluate.
INLINE = {
    "scarf2": {"W": "-A*sinh(x)/cosh(x)^2", "param": "A", "values": SCARF_A,
               "a": 0.5, "b": 12.0},
    "morse": {"W": "-xi*exp(-x)", "param": "xi", "values": MORSE_XI,
              "a": 0.5, "b": 14.0},
    "periodic": {"W": "4*sin(2*x)/(3*(cos(x)^2-4/3)^2)", "param": None,
                 "values": (None,), "a": 0.3, "b": 2.8},
}

CATALOG_PARAM = {"scarf2": ("A", SCARF_A), "periodic": (None, (None,)),
                 "morse": ("xi", MORSE_XI)}

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = ("verify_catalog", "spectrum_catalog", "inline_quadrature")


def _catalog_op(kind, model, rng, n):
    name, values = CATALOG_PARAM[model]
    return {"kind": kind, "model": model, "W": None,
            "params": {} if name is None else {name: rng.choice(values)},
            "a": None, "b": None, "N": n}


def _inline_op(kind, model, value, n):
    spec = INLINE[model]
    return {"kind": kind, "model": None, "W": spec["W"], "source": model,
            "params": {} if spec["param"] is None else {spec["param"]: value},
            "a": spec["a"], "b": spec["b"], "N": n}


def _cycle(workload, rng, scale=None):
    """One cycle of ops for `workload`, drawn from `rng`: the seed sets the
    order of the ops and, for the catalog models, the parameter of each.

    `scale` replaces every grid size, for the benchmark's own smoke test.
    """
    if workload == "verify_catalog":
        ops = [_catalog_op("verify", m, rng, scale or VERIFY_N)
               for m in CATALOG_PARAM]
    elif workload == "spectrum_catalog":
        ops = [_catalog_op("spectrum", m, rng, scale or SPECTRUM_N)
               for m in CATALOG_PARAM]
    elif workload == "inline_quadrature":
        # Adaptive quadrature costs depend on the parameter, so each cycle
        # holds every value once and the seed sets only their order; a
        # seeded draw would make the work per run depend on the seed.
        ops = [_inline_op(kind, m, value, n)
               for m, spec in INLINE.items() for value in spec["values"]
               for kind, n in (("derive", scale), ("verify", scale or INLINE_VERIFY_N))]
    else:
        raise ValueError("unknown workload '%s'" % workload)
    rng.shuffle(ops)
    return ops


def cycles(workload, seed, scale=None):
    """Endless seeded stream of cycles."""
    rng = random.Random("%s:%d" % (workload, seed))
    while True:
        yield _cycle(workload, rng, scale)


def argv(op):
    """Command line for one op; --W uses '=' because W may start with '-'."""
    args = [op["kind"]]
    if op["model"]:
        args += ["--model", op["model"]]
    else:
        args.append("--W=" + op["W"])
    for name, value in op["params"].items():
        args += ["--param", "%s=%r" % (name, value)]
    for flag in ("a", "b", "N"):
        if op[flag] is not None:
            args += ["--" + flag, repr(op[flag])]
    return args


# ---------------------------------------------------------------- references


def scarf_levels(A):
    """-(n + (1-A)/2)^2 for integers 0 <= n < (A-1)/2 (all A used here are >= 2)."""
    return [-((n + (1.0 - A) / 2.0) ** 2) for n in range(int(math.ceil((A - 1.0) / 2.0)))]


PERIODIC_LEVELS = [n * n / 4.0 for n in range(1, 9) if n != 2]


def analytic_levels(op):
    """Levels every correct spectrum must contain, or None where the program
    documents a known limit (the Morse -1/4 state is not on the real grid)."""
    if op["model"] == "scarf2":
        return scarf_levels(op["params"]["A"])
    if op["model"] == "periodic":
        return PERIODIC_LEVELS
    return None


def inline_reference(source, params, x):
    """Closed-form W, W' and I = int_0^x W for the inline generators."""
    if source == "scarf2":
        A = params["A"]
        c, s = np.cosh(x), np.sinh(x)
        return -A * s / c**2, -A * (c**2 - 2.0 * s**2) / c**3, A / c - A
    if source == "morse":
        xi = params["xi"]
        e = np.exp(-x)
        return -xi * e, xi * e, xi * e - xi
    u = np.cos(x) ** 2 - 4.0 / 3.0
    s2 = np.sin(2.0 * x)
    w = 4.0 * s2 / (3.0 * u**2)
    wp = (4.0 / 3.0) * (2.0 * np.cos(2.0 * x) / u**2 + 2.0 * s2**2 / u**3)
    return w, wp, 4.0 / (3.0 * u) + 4.0


def derive_reference(source, params, x):
    """G and V of the pipeline with alpha = beta = 0, from the closed forms."""
    w, wp, i = inline_reference(source, params, x)
    q = wp / (2.0 * i) - (w / (2.0 * i)) ** 2
    g = -0.5 * i
    return g, q - g**2


# -------------------------------------------------------------------- checks


class CheckError(Exception):
    """The program's output breaks an invariant."""


def _require(condition, message):
    if not condition:
        raise CheckError(message)


def _pairs(values, what):
    _require(isinstance(values, list), "%s is not a list" % what)
    out = []
    for pair in values:
        _require(isinstance(pair, list) and len(pair) == 2, "%s entry is not [re, im]" % what)
        out.append(complex(float(pair[0]), float(pair[1])))
    out = np.array(out, dtype=complex)
    _require(np.all(np.isfinite(out)), "%s has non-finite entries" % what)
    return out


def _check_verify(op, report, code):
    res = report["residuals"]
    inter, eta = float(res["intertwining"]), float(res["eta_hermiticity"])
    _require(inter <= TOL_INTERTWINING,
             "intertwining residual %.3g > %g" % (inter, TOL_INTERTWINING))
    _require(eta <= TOL_ETA_HERMITICITY,
             "eta Hermiticity residual %.3g > %g" % (eta, TOL_ETA_HERMITICITY))
    _require(report["status"] == ("PASS" if code == 0 else "FAIL"),
             "status %r disagrees with exit code %d" % (report["status"], code))


def _check_spectrum(op, report, code):
    values = _pairs(report["spectrum"]["eigenvalues"], "spectrum eigenvalues")
    if "bound_states" in report:
        values = np.concatenate(
            [values, _pairs(report["bound_states"]["eigenvalues"], "bound states")])
    levels = analytic_levels(op)
    if levels is None:
        return
    for level in levels:
        gap = np.min(np.abs(values - level)) if values.size else math.inf
        _require(gap <= TOL_LEVEL, "analytic level %g unmatched (nearest %.3g away)"
                 % (level, gap))


def _check_derive(op, report, code):
    _require(code == 0, "derive exited %d" % code)
    cols = report["columns"]
    x = np.array(cols["x"], dtype=float)
    _require(x.size > 0 and np.all(np.isfinite(x)), "derive x column empty or non-finite")
    g_ref, v_ref = derive_reference(op["source"], op["params"], x)
    for name, ref in (("G", g_ref), ("V", v_ref)):
        col = np.array(cols[name], dtype=float)
        _require(col.shape == x.shape, "%s column has %d rows, x has %d"
                 % (name, col.size, x.size))
        err = np.max(np.abs(col - ref) / np.maximum(np.abs(ref), 1.0))
        _require(err <= TOL_DERIVE, "%s column off the closed form by %.3g" % (name, err))


CHECKS = {"verify": _check_verify, "spectrum": _check_spectrum, "derive": _check_derive}


def check(op, code, stdout):
    """Return None when the op's exit code and report are correct, else the reason."""
    if code not in COMPLETED_EXITS:
        return "exit code %r" % (code,)
    try:
        report = json.loads(stdout)
        CHECKS[op["kind"]](op, report, code)
    except CheckError as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError) as exc:
        return "malformed report: %s: %s" % (type(exc).__name__, exc)
    return None
