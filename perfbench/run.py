"""Benchmark of the pseudoherm CLI: one closed-loop client, one process.

Run from the repository root:

    python3 perfbench/run.py --workload verify_catalog --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seconds 20     # every workload, both modes, as a table
    python3 -m pytest -q perfbench                  # the benchmark's self-test

A run drives `pseudoherm.cli.main(argv)` in-process over complete cycles of
its workload's ops until at least --seconds have passed, checks every op's output,
and prints one JSON object as its last line of standard output.  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it replays each
op through the layers' public functions and reports per-layer medians.
Each run also writes a result file with its provenance under
perfbench/results/.  The program is imported from src/ of the checkout; a
directory without it is refused with exit code 2.
"""

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

# One BLAS thread: the dense kernels then measure the same on a busy
# two-core machine as on an idle one, and never exceed nproc.
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3
IMPORT_CMD = "import pseudoherm.cli"
IMPORT_MODULES = ("expressions", "generator", "operators", "eigen", "catalog", "cli")
WARMUP_N = 50
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _child_env():
    return dict(os.environ, PYTHONPATH=SRC)


def measure_setup():
    """Wall times of fresh interpreters that import the CLI."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_CMD], env=_child_env(),
                       check=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return times


def measure_imports():
    """Median cumulative import time of each pseudoherm module, in seconds."""
    runs = {m: [] for m in IMPORT_MODULES}
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_CMD],
                              env=_child_env(), check=True, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        for line in done.stderr.splitlines():
            # "import time: self [us] | cumulative | imported package"
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2].startswith("pseudoherm."):
                module = fields[2].split(".", 1)[1]
                if module in runs:
                    runs[module].append(int(fields[1]) * 1e-6)
    return {"%s.import_s" % m: statistics.median(v) for m, v in runs.items()}


def run_cli(cli, args):
    """One closed-loop request: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(args)
    except SystemExit as exc:  # argparse rejects bad argv this way
        code = exc.code
    except Exception:  # the loop must go on; the op counts as failed
        code = "exception"
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def _git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _src_sha256():
    """Digest of the program's sources, which identifies it outside git too."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "pseudoherm", "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def provenance(grid_sizes):
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "grid_sizes": grid_sizes,
    }


def _grid_sizes(ops):
    """Grid sizes by op kind; None means the CLI's default grid (derive samples
    that grid's interval at cli.DERIVE_SAMPLES points)."""
    sizes = {}
    for op in ops:
        sizes.setdefault(op["kind"], set()).add(op["N"])
    return {kind: sorted(ns, key=str) for kind, ns in sizes.items()}


def run_workload(name, seed, seconds, traced, scale):
    """Run one workload; return the result file's content."""
    setup_runs = measure_imports() if traced else measure_setup()

    import workloads
    from pseudoherm import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError("pseudoherm was imported from %s, not from %s" % (cli.__file__, SRC))
    if traced:
        import tracing

        tracer, counter = tracing.Tracer(), tracing.QuadCounter()
    for op in next(workloads.cycles(name, seed, WARMUP_N)):
        run_cli(cli, workloads.argv(op))

    stream = workloads.cycles(name, seed, scale)
    records, ops, traced_cycles = [], [], []
    start = time.perf_counter()
    with counter if traced else contextlib.nullcontext():
        while True:
            figures = []
            for op in next(stream):
                args = workloads.argv(op)
                quad_before = counter.calls if traced else 0
                code, out, err, secs = run_cli(cli, args)
                quad_calls = counter.calls - quad_before if traced else 0
                record = {"argv": args, "exit": code, "seconds": secs,
                          "problem": workloads.check(op, code, out)}
                if record["problem"]:
                    record["stderr"] = err[-2000:]
                elif traced:
                    tracer.op = len(records)
                    first = len(tracer.spans)
                    try:
                        with tracer.span("op"):
                            tracing.replay(tracer, op)
                    except Exception:
                        record["problem"] = "replay raised:\n" + traceback.format_exc()
                    else:
                        spans = tracer.spans[first:]
                        points = next(s["points"] for s in spans if "points" in s)
                        figures.append(tracing.op_figures(spans, quad_calls, points, secs, len(out)))
                records.append(record)
                ops.append(op)
            if figures:
                traced_cycles.append(figures)
            # whole cycles only, so every run weighs the op kinds alike
            if time.perf_counter() - start >= seconds:
                break
    wall = time.perf_counter() - start

    failed = sum(1 for r in records if r["problem"])
    result = {"wall_s": wall, "grid_sizes": _grid_sizes(ops), "records": records}
    if traced:
        values = dict(setup_runs)
        if traced_cycles:
            per_layer, result["layer_shares"] = tracing.summarize(traced_cycles)
        else:
            per_layer = dict.fromkeys(tracing.PER_LAYER, 0.0)
        values.update(per_layer)
        units = dict(tracing.PER_LAYER, **{k: "s" for k in setup_runs})
        result["spans"] = tracer.spans
    else:
        values = {
            "ops_per_s": (len(records) - failed) / wall,
            "op_p50_s": statistics.median(r["seconds"] for r in records),
            "setup_s": statistics.median(setup_runs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        result["setup_runs_s"] = setup_runs
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    result["summary"] = {"correct": failed == 0, "attempted": len(records), "failed": failed}
    return result


def run_all(seconds, seed):
    """Every workload untraced then traced, each in a fresh process, as a table."""
    import workloads

    print("%-18s %-32s %14s  %s" % ("workload", "metric", "value", "unit"))
    for name in workloads.WORKLOADS:
        for traced in (0, 1):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S * 2)
            if done.returncode:
                sys.stderr.write(done.stderr)
                return done.returncode
            line = json.loads(done.stdout.splitlines()[-1])
            rows = dict(line["metrics"], attempted={"value": line["attempted"], "unit": "count"},
                        failed={"value": line["failed"], "unit": "count"})
            for metric, m in rows.items():
                print("%-18s %-32s %14.6g  %s" % (name, metric, m["value"], m["unit"]))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of: verify_catalog, spectrum_catalog,"
                        " inline_quadrature")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    parser.add_argument("--scale", type=int, help="replace every grid size (smoke test only)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pseudoherm", "cli.py")):
        print("no pseudoherm sources at %s; run from a checkout of the repository" % SRC,
              file=sys.stderr)
        return 2
    # before numpy loads, in this process and in every child it starts
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)
    import workloads

    if args.all:
        return run_all(args.seconds, args.seed)
    if args.workload not in workloads.WORKLOADS:
        parser.error("--workload must be one of %s" % ", ".join(workloads.WORKLOADS))

    result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.scale)
    result["provenance"] = provenance(result.pop("grid_sizes"))
    result["workload"], result["seed"], result["trace"] = args.workload, args.seed, args.trace
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as handle:
        json.dump(result, handle, indent=1, default=str)
    for r in result["records"]:
        if r["problem"]:
            print("FAILED %s: %s" % (" ".join(r["argv"]), r["problem"]), file=sys.stderr)
    print("%s: %d ops (%d failed) in %.1f s; result file %s" % (
        args.workload, result["summary"]["attempted"], result["summary"]["failed"],
        result["wall_s"], os.path.relpath(path, ROOT)), file=sys.stderr)
    print(json.dumps(dict(result["summary"], metrics=result["metrics"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
