"""Traced replay of benchmark ops through the layers' public functions.

The replay makes the same calls the CLI makes for an op, each inside a span
recorded by the benchmark, so no program file is edited or instrumented.
Spans hold a name, start, end, parent span and the id of the op they
belong to; they stay in memory until the run writes them out.

Builder self time: `build_hamiltonian` samples V + iW and `build_eta`
samples G and Q before building.  The replay samples exactly that in a
span of its own just before each builder, and the builder's self time is
its span minus that sampling span.
"""

import contextlib
import dataclasses
import json
import statistics
import time

import numpy as np
import scipy.integrate

from pseudoherm import catalog, cli, eigen, expressions, generator, operators


class Tracer:
    """In-memory span recorder; spans of one op share `op`."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        record = {"id": len(self.spans), "op": self.op, "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


class QuadCounter:
    """Counts scipy.integrate.quad calls while installed; the program looks
    the function up on the module at each call, so wrapping it there counts
    every call without touching the program."""

    def __init__(self):
        self.calls = 0
        self._original = None

    def __enter__(self):
        self._original = original = scipy.integrate.quad

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        scipy.integrate.quad = counted
        return self

    def __exit__(self, *exc):
        scipy.integrate.quad = self._original


def _resolve(tr, op):
    """Spec and grid as the CLI resolves them (cli._resolve), span by span."""
    if op["model"]:
        with tr.span("catalog.get"):
            entry = catalog.get(op["model"], op["params"])
        spec, grid = entry.spec, entry.grid
    else:
        entry = None
        with tr.span("expressions.parse"):
            w_expr = expressions.parse(op["W"])
            expressions.differentiate(w_expr)
        spec = generator.GeneratorSpec(W=w_expr, env=dict(op["params"]))
        grid = dataclasses.replace(cli.DEFAULT_GRID, a=op["a"], b=op["b"])
    if op["N"] is not None:
        grid = dataclasses.replace(grid, n=int(op["N"]))
    return entry, spec, grid


def replay(tr, op):
    """Run one op through the layers as the CLI does; return its report text."""
    entry, spec, grid = _resolve(tr, op)
    with tr.span("generator.derive"):
        model = generator.derive(spec)
    if op["kind"] == "derive":
        xs = np.linspace(grid.a + grid.h, grid.b - grid.h, cli.DERIVE_SAMPLES)
        with tr.span("expressions.evaluate", points=xs.size):
            expressions.evaluate(spec.W, xs, spec.env)
        with tr.span("generator.sample_columns"):
            veff = generator.effective_potential(model, xs)
            table = {"x": xs, "G": model.G(xs), "Q": model.Q(xs), "V": model.V(xs),
                     "W": model.W(xs), "re_Veff": veff.real, "im_Veff": veff.imag}
        with tr.span("cli.report"):
            return json.dumps({"columns": {k: [float(v) for v in col]
                                           for k, col in table.items()}}, indent=2)
    with tr.span("expressions.evaluate", points=grid.n):
        expressions.evaluate(spec.W, grid.points, spec.env)
    with tr.span("generator.sample_H"):
        generator.effective_potential(model, grid.points)
    with tr.span("operators.build_hamiltonian"):
        hamiltonian = operators.build_hamiltonian(model, grid)
    if op["kind"] == "verify":
        with tr.span("generator.sample_eta"):
            model.G(grid.points)
            model.Q(grid.points)
        with tr.span("operators.build_eta") as record:
            eta = operators.build_eta(model, grid)
        record["matrix_bytes"] = hamiltonian.matrix.nbytes + eta.matrix.nbytes
        with tr.span("operators.intertwining_residual"):
            residuals = {"intertwining": operators.intertwining_residual(hamiltonian, eta)}
        with tr.span("operators.hermiticity_residual"):
            residuals["eta_hermiticity"] = operators.hermiticity_residual(eta)
        with tr.span("operators.compose"):
            eta_h = operators.compose(eta, hamiltonian, "etaH")
        with tr.span("operators.hermiticity_residual"):
            residuals["etaH_hermiticity"] = operators.hermiticity_residual(eta_h)
        with tr.span("cli.report"):
            return json.dumps({"residuals": residuals}, indent=2)
    with tr.span("eigen.eig") as record:
        report = eigen.eig(hamiltonian)
    filtered = None
    if entry.continuum_threshold is not None:
        with tr.span("eigen.bound_state_filter"):
            filtered = eigen.bound_state_filter(report, grid, entry.continuum_threshold)
    matches = ()
    if entry.analytic_levels:
        with tr.span("eigen.match_levels"):
            subject = report if filtered is None else filtered
            matches = tuple(eigen.match_levels(subject, entry.analytic_levels,
                                               cli.DEFAULT_TOL_LEVEL))
    # Useful pairs: the bound states kept or, for a model without a
    # continuum to filter against, the levels matched.
    record["pairs"] = len(report.eigenvalues)
    record["useful"] = (len(filtered.eigenvalues) if filtered is not None
                        else sum(m.matched for m in matches))
    with tr.span("cli.report"):
        with tr.span("eigen.report_to_dict"):
            data = {"spectrum": eigen.report_to_dict(dataclasses.replace(report, matches=matches))}
            if filtered is not None:
                data["bound_states"] = eigen.report_to_dict(
                    dataclasses.replace(filtered, matches=matches))
        return json.dumps(data, indent=2)


# ------------------------------------------------------------------ metrics

# Per-layer metrics: name -> unit.
PER_LAYER = {
    "catalog.get_s": "s",
    "expressions.parse_s": "s",
    "expressions.evaluate_s": "s",
    "generator.derive_s": "s",
    "generator.sample_s": "s",
    "generator.quad_calls": "count",
    "generator.quad_calls_per_point": "calls/point",
    "operators.build_hamiltonian_s": "s",
    "operators.build_eta_s": "s",
    "operators.intertwining_s": "s",
    "operators.hermiticity_s": "s",
    "operators.matrix_bytes": "B",
    "eigen.eig_s": "s",
    "eigen.filter_s": "s",
    "eigen.match_s": "s",
    "eigen.pairs_computed": "count",
    "eigen.useful_ratio": "ratio",
    "cli.report_s": "s",
    "cli.report_bytes": "B",
    "trace.overhead_s": "s",
}

LAYERS = ("catalog", "expressions", "generator", "operators", "eigen", "cli")
_SAMPLING = ("generator.sample_H", "generator.sample_eta", "generator.sample_columns")


def _dur(span):
    return span["end"] - span["start"]


def op_figures(spans, quad_calls, points, cli_seconds, report_bytes):
    """Per-layer figures of one op from its replay spans (spans[0] is the op).

    `quad_calls` and `report_bytes` come from the op's CLI call, so they are
    the program's own counts, not the replay's.
    """
    total = {}
    for span in spans:
        total[span["name"]] = total.get(span["name"], 0.0) + _dur(span)

    def by(name):
        return total.get(name, 0.0)

    build_h = by("operators.build_hamiltonian") - by("generator.sample_H")
    build_eta = by("operators.build_eta") - by("generator.sample_eta")
    eig = next((s for s in spans if s["name"] == "eigen.eig"), {"pairs": 0, "useful": 0})
    op_s = _dur(spans[0])
    figures = {
        "catalog.get_s": by("catalog.get"),
        "expressions.parse_s": by("expressions.parse"),
        "expressions.evaluate_s": by("expressions.evaluate"),
        "generator.derive_s": by("generator.derive"),
        "generator.sample_s": sum(by(name) for name in _SAMPLING),
        "generator.quad_calls": quad_calls,
        "operators.build_hamiltonian_s": build_h,
        "operators.build_eta_s": build_eta,
        "operators.intertwining_s": by("operators.intertwining_residual"),
        "operators.hermiticity_s": by("operators.hermiticity_residual")
        + by("operators.compose"),
        "operators.matrix_bytes": sum(s.get("matrix_bytes", 0) for s in spans),
        "eigen.eig_s": by("eigen.eig"),
        "eigen.filter_s": by("eigen.bound_state_filter"),
        "eigen.match_s": by("eigen.match_levels"),
        "eigen.pairs_computed": eig["pairs"],
        "cli.report_s": by("cli.report"),
        "cli.report_bytes": report_bytes,
        "trace.overhead_s": op_s - cli_seconds,
        "points": points,
        "useful": eig["useful"],
        "op_s": op_s,
    }
    # Time per layer.  The sampling inside each builder is generator work,
    # so a builder counts only its self time to operators; report_to_dict
    # runs inside cli.report and counts there.
    layer = {name: sum(v for k, v in total.items() if k.startswith(name + "."))
             for name in LAYERS}
    inner_sampling = by("generator.sample_H") + by("generator.sample_eta")
    layer["generator"] += inner_sampling
    layer["operators"] -= inner_sampling
    layer["eigen"] -= by("eigen.report_to_dict")
    figures.update(("layer.%s_s" % name, v) for name, v in layer.items())
    return figures


def summarize(cycles):
    """(per-layer values, layer shares of op time) from the figures of each cycle.

    A value is the median over cycles of the per-op mean within a cycle.
    Every cycle runs each op of the workload once, so a cycle mean weighs
    the op kinds alike, and the median drops a cycle a busy machine slowed.
    """
    values, shares = [], []
    for rows in cycles:
        total = {k: sum(r[k] for r in rows) for k in rows[0]}
        mean = {k: total[k] / len(rows) for k in PER_LAYER if k in total}
        mean["generator.quad_calls_per_point"] = total["generator.quad_calls"] / total["points"]
        pairs = total["eigen.pairs_computed"]
        mean["eigen.useful_ratio"] = total["useful"] / pairs if pairs else 0.0
        values.append({k: mean[k] for k in PER_LAYER})
        shares.append({name: total["layer.%s_s" % name] / total["op_s"] for name in LAYERS})
    return medians(values), medians(shares)


def medians(rows):
    """Median of each key over a list of dicts."""
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}
