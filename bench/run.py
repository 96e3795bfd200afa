"""laytrop benchmark: seeded workloads, end-to-end metrics and a traced run.

Run from the repository root:

    python3 bench/run.py --workload resultant --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload resultant --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --selftest

With ``--trace 0`` the workload runs untraced and the end-to-end metrics
are reported; with ``--trace 1`` each op of a fixed number of cycles runs
untraced and then traced, and the per-layer metrics are reported.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md for the metric
definitions and why each workload was chosen.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import calib
import ref
import tracer

LOADS = {
    "resultant": ("w_resultant", "ResultantLoad"),
    "factor_eval": ("w_factor", "FactorLoad"),
    "raster": ("w_raster", "RasterLoad"),
    "cli": ("w_cli", "CliLoad"),
}
SETUP_REPS = 7
MIN_OPS = 100  # p90 then has at least ten samples beyond it
TRACE_CYCLES = {"resultant": 2, "factor_eval": 10, "raster": 1, "cli": 8}
SPAWN_REPS = 7
TRACE_DIR = ".bench_trace"


def _purge_package():
    for name in [n for n in sys.modules if n == "laytrop" or n.startswith("laytrop.")]:
        del sys.modules[name]


def setup(workload, seed):
    """Import, generate the inputs and warm up, SETUP_REPS times; returns the
    last load and the median set-up time at reference speed."""
    module_name, cls_name = LOADS[workload]
    cls = getattr(importlib.import_module(module_name), cls_name)
    clock = calib.Calibration()
    times = []
    for _ in range(SETUP_REPS):
        load = None  # let the previous copy of the package go
        _purge_package()
        gc.collect()
        window = clock.tick()
        t0 = time.perf_counter()
        load = cls(importlib.import_module("laytrop"), seed)
        for op in load.warm_ops():
            load.execute(op)
        elapsed = time.perf_counter() - t0
        clock.sample()
        times.append(elapsed * clock.scale(window))
    return load, statistics.median(times)


def run_cycles(load, call, clock, cycle_indices=None, seconds=None):
    """Run whole cycles, either the given ones or until ``seconds`` is reached
    (stopping where the next cycle would overrun by more than half of one).

    Returns (results, runs, exceptions, wall seconds): results map
    (cycle, position) to (op, output) for the first run of each op, and
    runs lists (key, latency in ms, calibration window) for every run.
    """
    results, runs, exceptions = {}, [], []
    cycles = load.cycles
    gc.collect()
    start = time.perf_counter()
    done = 0
    while True:
        ci = cycle_indices[done] if cycle_indices is not None else done % len(cycles)
        for pi, op in enumerate(cycles[ci]):
            key = (ci, pi)
            window = clock.tick()
            t0 = time.perf_counter()
            try:
                out = call(op)
            except Exception as exc:  # an op that raises is a failed op
                runs.append((key, (time.perf_counter() - t0) * 1e3, window))
                exceptions.append((key, f"{type(exc).__name__}: {exc}", False))
                continue
            runs.append((key, (time.perf_counter() - t0) * 1e3, window))
            if key not in results:
                results[key] = (op, out)
            elif results[key][1] != out:
                exceptions.append((key, "output changed when the op was repeated", True))
        done += 1
        elapsed = time.perf_counter() - start
        if cycle_indices is not None:
            if done == len(cycle_indices):
                break
        elif len(runs) >= MIN_OPS and elapsed + elapsed / done / 2 >= seconds:
            break
    clock.sample()
    return results, runs, exceptions, time.perf_counter() - start


def count_failed(runs, failures):
    """Failed runs: an op counts once for each run of it whose key failed."""
    bad = {key for key, _, _ in failures}
    return sum(1 for key, _, _ in runs if key in bad)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def spawn_ms(env, args):
    times = []
    for _ in range(SPAWN_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *args], env=env, capture_output=True, check=True, timeout=60)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


# -- untraced run ----------------------------------------------------------------


def calibration(load):
    return load.calibration() if hasattr(load, "calibration") else calib.Calibration()


def untraced(workload, load, setup_s, seconds):
    clock = calibration(load)
    results, runs, exceptions, wall = run_cycles(load, load.execute, clock, seconds=seconds)
    rss = peak_rss_mb(workload)
    failures, mix = load.check(results)
    failures = exceptions + failures
    raw = [ms for _, ms, _ in runs]
    latencies = [ms * clock.scale(window) for _, ms, window in runs]
    n = len(runs)
    failed = count_failed(runs, failures)
    metrics = {
        "ops_per_s": (n / (sum(latencies) / 1e3), "1/s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_p90_ms": (percentile(latencies, 0.9), "ms"),
        "ok_ratio": (1 - failed / n, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    print(f"ops {n}, wall {wall:.3f} s, p90 from {n} samples "
          f"({n - math.ceil(0.9 * n)} beyond it), failed {failed} "
          f"(fail_ratio {failed / n:.4f})")
    print(f"raw: ops_per_s {n / (sum(raw) / 1e3):.4f}, op_p50_ms {statistics.median(raw):.4f}, "
          f"op_p90_ms {percentile(raw, 0.9):.4f}; calibration kernel median "
          f"{statistics.median(clock.ms):.3f} ms over {len(clock.ms)} samples "
          f"(reference {clock.ref_ms} ms)")
    return metrics, failures, mix, n, failed


# -- traced run --------------------------------------------------------------------


def traced(workload, load, src):
    """Run each op of a fixed set of cycles untraced and then traced, back to
    back, so that drift in machine speed cancels out of the overhead ratio."""
    call = getattr(load, "execute_inprocess", load.execute)
    t = tracer.Tracer()
    walls = [0.0, 0.0]
    mismatches = set()

    def paired(op):
        t0 = time.perf_counter()
        plain = call(op)
        t1 = time.perf_counter()
        t.install("laytrop")
        try:
            out = t.op_span(call, op)
        finally:
            t.uninstall()
        walls[0] += t1 - t0
        walls[1] += time.perf_counter() - t1
        if out != plain:
            mismatches.add(op)
        return out

    indices = list(range(TRACE_CYCLES[workload]))
    clock = calib.Calibration()  # the traced run is in-process for every workload
    results, runs, exceptions, _ = run_cycles(load, paired, clock, cycle_indices=indices)
    failures, mix = load.check(results)
    failures = exceptions + failures + check_completeness(load, call)
    failures += [(key, "traced output differs from the untraced one", True)
                 for key, (op, _) in results.items() if op in mismatches]
    n = len(runs)
    failed = count_failed(runs, failures)

    env = dict(os.environ, PYTHONPATH=src)
    floor = spawn_ms(env, ["-c", "pass"])
    imported = spawn_ms(env, ["-c", "import laytrop.cli"])
    write_spans(workload, t.spans)
    clock.sample()
    metrics = layer_metrics(t)
    metrics["cli.python_floor_ms"] = (floor, "ms")
    metrics["cli.import_ms"] = (imported - floor, "ms")
    scale = clock.run_scale()
    for name, (value, unit) in metrics.items():
        if unit in ("s", "ms"):
            metrics[name] = (value * scale, unit)
    metrics["trace.overhead_ratio"] = (walls[1] / walls[0], "ratio")
    print(f"{n} ops: untraced {walls[0]:.3f} s, traced {walls[1]:.3f} s, {len(t.spans)} spans")
    return metrics, failures, mix, n, failed


def check_completeness(load, call):
    """Wrapper counts must equal the counts a profile hook sees for the same
    code objects: a call that bypasses every wrapper shows as a difference."""
    ops = load.warm_ops()
    t = tracer.Tracer()
    originals = t.install("laytrop")
    try:
        codes = {f"{fn.__module__.split('.', 1)[1]}.{fn.__name__}": fn.__code__ for fn in originals}
        seen = tracer.count_calls(codes, lambda op: t.op_span(call, op), ops)
    finally:
        t.uninstall()
    return [
        (("completeness", name), f"wrapper counted {t.calls[name]} calls, profile saw {seen[name]}", True)
        for name in codes
        if t.calls[name] != seen[name]
    ]


def layer_metrics(t):
    def self_of(module):
        return sum(v for k, v in t.self_s.items() if k.startswith(module + "."))

    m = {}
    for name in (
        "sorts.require_layer", "sorts.layer_add", "sorts.layer_mul", "sorts.layer_pow_int",
        "scalars.ls_add", "scalars.ls_mul", "scalars.ls_pow",
        "polys.p_mul", "polys.p_eval", "polys.full_form",
        "factor.primary_decomposition", "factor.eval_sort",
        "resultants.layered_permanent",
        "calculus.derivative", "calculus.discriminant",
        "multivar.mp_eval",
        "parsing.parse_poly",
    ):
        m[f"{name}.calls"] = (t.calls[name], "count")
    for module in ("sorts", "scalars", "polys", "factor", "calculus", "multivar", "parsing"):
        m[f"{module}.self_s"] = (self_of(module), "s")
    sizes = t.perm_sizes
    m["resultants.layered_permanent.self_s"] = (t.self_s["resultants.layered_permanent"], "s")
    m["resultants.sylvester.self_s"] = (t.self_s["resultants.sylvester"], "s")
    m["resultants.perm_n_mean"] = (statistics.fmean(sizes) if sizes else 0.0, "rows")
    m["resultants.perm_n_max"] = (max(sizes, default=0), "rows")
    points = t.points["multivar.grid_scan"]
    in_scan = t.in_span["multivar.mp_eval", "multivar.grid_scan"]
    m["multivar.points"] = (points, "count")
    m["multivar.locus_points"] = (t.points["multivar.corner_locus_on_grid"], "count")
    m["multivar.mp_eval_per_point"] = (in_scan / points if points else 0.0, "calls/point")
    m["cli.run.self_s"] = (t.self_s["cli.run"], "s")
    return m


def write_spans(workload, spans):
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"{workload}.json")
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"], "spans": spans}, fh)
    print(f"spans written to {path}")


# -- self-test ---------------------------------------------------------------------


def selftest():
    """Check the tracer against the seed's known call structure."""
    ok = True

    def report(name, passed, detail):
        nonlocal ok
        ok = ok and passed
        print(f"SELFTEST {name}: {'PASS' if passed else 'FAIL'} ({detail})")

    for workload, keep in (
        ("resultant", lambda op: op.f.degree + (op.g.degree if op.g else op.f.degree - 1) <= 8),
        ("raster", lambda op: op.kind == "scan" and ref.lattice_size(op.region) <= 121),
    ):
        load, _ = setup(workload, 1)
        ops = [op for op in load.cycles[0] if keep(op)]
        plain = [load.execute(op) for op in ops]
        t = tracer.Tracer()
        t.install("laytrop")
        try:
            outs = [t.op_span(load.execute, op) for op in ops]
        finally:
            t.uninstall()
        report(f"{workload} traced==untraced", outs == plain, f"{len(ops)} ops")
        missing = check_completeness(load, load.execute)
        report(f"{workload} counts complete", not missing, missing[0][1] if missing else "profile agrees")
        if workload == "resultant":
            calls = t.calls["resultants.layered_permanent"]
            report("layered_permanent.calls == non-constant ops", calls == len(ops), f"{calls} vs {len(ops)}")
        else:
            calls = t.calls["multivar.mp_eval"]
            points = t.points["multivar.grid_scan"]
            report("mp_eval.calls == 3 x points", calls == 3 * points, f"{calls} vs 3 x {points}")
    return 0 if ok else 1


# -- entry point -------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(LOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="check the tracer and exit")
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "laytrop", "__init__.py")):
        print("bench: no laytrop sources at ./src; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")

    load, setup_s = setup(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}, setup {setup_s:.4f} s (median of {SETUP_REPS})")
    if args.trace:
        metrics, failures, mix, attempted, failed = traced(args.workload, load, src)
    else:
        metrics, failures, mix, attempted, failed = untraced(args.workload, load, setup_s, args.seconds)

    print("mix " + json.dumps(mix, sort_keys=True))
    for key, message, _ in failures[:20]:
        print(f"FAILED {key}: {message}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    result = {
        "correct": not any(wrong for _, _, wrong in failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
