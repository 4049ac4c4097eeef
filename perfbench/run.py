"""cdlim benchmark: end-to-end time, memory and answer quality per workload.

    python3 perfbench/run.py --workload ic-grid --seed 1 --seconds 30 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory. The workload's inputs are generated from ``--seed`` into a
scratch directory under ``.perfbench/`` and read back through the library's
loaders. One caller runs the whole pipeline (load, build DAGs, solve,
evaluate and verify from scratch) in a closed loop, back to back, for
``--seconds``: another iteration starts only if one as long as the last
still ends in time, and at least one runs.

Every time is corrected for the shared host's drifting speed: a timer
interrupts the run every 20 ms to time a fixed probe loop, and a window's
wall time, less the probes in it, is divided by the host's slowdown over it
(see ``hostclock.py``). The wall-clock medians are printed on standard error.

``--trace 0`` reports the end-to-end metrics: medians over the pipeline
iterations, set-up also over extra set-up repetitions made first, and the
peak RSS of the process. ``--trace 1`` runs the pipeline untraced, traced
and untraced again, then the probe calls, and reports the per-layer metrics from
the spans; the spans are written to ``.perfbench/trace-<workload>-<seed>.json``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import tempfile
import time
import uuid
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 1
SETUP_REPS = 5          # set-up repetitions before the first iteration: at least
SETUP_SECONDS = 2.0     # this many, and until this much time has passed
DI_PIN_TOL = 1e-9       # percent; summation order may move the last digits
LAYERS = ("graph", "credit", "greedy", "contgreedy", "rounding", "harness", "bench")


def import_library():
    """Import cdlim from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import cdlim
    except ImportError as exc:
        sys.exit(f"error: cannot import cdlim from {src}: {exc}")
    if Path(cdlim.__file__).resolve().parent != src / "cdlim":
        sys.exit(f"error: cdlim imported from {cdlim.__file__}, not from {src}")


def run_iteration(wl, tr, paths, stats, ops):
    """One pass of the user pipeline; returns its phase boundaries on the
    wall clock and its outputs."""
    from workloads import problem, setup

    gc.collect()
    t0 = time.perf_counter()
    with tr.span("bench.iteration"):
        with tr.span("bench.setup"):
            graph, actionlog, dags = setup(tr, paths, wl.scheme)
        t1 = time.perf_counter()
        p = problem(graph, actionlog, dags, paths)
        t2 = time.perf_counter()
        with tr.span("bench.solve"):
            out = wl.solve(tr, p)
        t3 = time.perf_counter()
        with tr.span("bench.eval"):
            digest, di = wl.evaluate(tr, p, out, ops)
            ops.check("inputs: the library sees every generated tuple and candidate",
                      len(actionlog) == stats["tuples"] and len(p.C) == stats["candidates"])
        t4 = time.perf_counter()
    return {"stamps": (t0, t1, t2, t3, t4), "digest": digest, "di": di, "p": p, "out": out}


def phase_times(clock, run):
    """Set-up, solve and total time of an iteration on the reference host."""
    t0, t1, t2, t3, t4 = run["stamps"]
    run.update(setup=clock.seconds(t0, t1), solve=clock.seconds(t2, t3),
               total=clock.seconds(t0, t4), slowdown=clock.slowdown(t0, t4))
    return run


def check_outputs(ops, runs, pin, stats):
    """Every iteration gives the same answer, and at the default seed it is
    the pinned one."""
    first = runs[0]
    print(f"# output edges_digest={first['digest']} di_percent={first['di']!r}", file=sys.stderr)
    ops.check("outputs identical across iterations",
              len({(r["digest"], r["di"]) for r in runs}) == 1)
    if pin is not None:
        ops.check("pinned inputs, edges digest and di_percent at the default seed",
                  pin.get("inputs") == stats and pin.get("edges_digest") == first["digest"]
                  and abs(pin.get("di_percent", float("nan")) - first["di"]) <= DI_PIN_TOL)


def p80(samples):
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=5)[3]


def per_layer_metrics(tracer, untraced_total, traced, extras, work):
    from spans import durations_ms, self_times, subtree, total_time

    spans = tracer.spans
    it = subtree(spans, 0)
    probe = subtree(spans, len(it)) if len(spans) > len(it) else []
    p = traced["p"]

    def span_s(idx, *names):
        return total_time(spans, idx, set(names))

    def samples(name):
        return durations_ms(spans, probe, name)

    scratch_s, scratch_calls = span_s(it, "credit.sigma_cd_scratch", "credit.delta_set")
    swap_s, swap_calls = span_s(it, "rounding.swap_round")
    updates, cg_samples = samples("greedy.remove_edge"), samples("contgreedy.cg_weights")
    m = {
        "graph.load_s": span_s(it, "graph.load_graph", "graph.load_action_log")[0],
        "graph.dags_s": span_s(it, "graph.build_all_dags")[0],
        "graph.tuples": len(p.log),
        "graph.dag_edges": sum(len(d.gamma) for d in p.dags),
        "graph.candidates": len(p.C),
        "graph.max_cascade": max(len(d.nodes) for d in p.dags),
        "credit.store_s": span_s(probe, "credit.compute_credit_store")[0],
        "credit.store_entries": extras.get("credit.store_entries", 0),
        "credit.scratch_s": scratch_s,
        "credit.scratch_calls": scratch_calls,
        "greedy.solve_s": span_s(it, "greedy.greedy_bil")[0],
        "greedy.picks": work.get("greedy.picks", 0),
        "greedy.mc_sweep_s": span_s(probe, "greedy.compute_mc_sweep")[0],
        "greedy.update_p50_ms": statistics.median(updates) if updates else 0.0,
        "greedy.update_p80_ms": p80(updates),
        "contgreedy.solve_s": span_s(it, "contgreedy.continuous_greedy")[0],
        "contgreedy.samples": work.get("contgreedy.samples", 0),
        "contgreedy.sample_p50_ms": statistics.median(cg_samples) if cg_samples else 0.0,
        "contgreedy.sample_p80_ms": p80(cg_samples),
        "rounding.randomized_s": span_s(it, "rounding.randomized_round")[0],
        "rounding.trials": work.get("rounding.trials", 0),
        "rounding.swap_s": swap_s,
        "rounding.swap_calls": swap_calls,
        "rounding.decompose_s": span_s(probe, "rounding.decompose")[0],
        "rounding.decompose_parts": extras.get("rounding.decompose_parts", 0),
        "harness.baselines_s": span_s(it, "harness.baseline_high_degree",
                                      "harness.baseline_random")[0],
        "trace.overhead_s": traced["total"] - untraced_total,
        "trace.spans": len(spans),
        "host.slowdown": traced["slowdown"],
    }
    own = self_times(spans, it)
    m.update({f"{layer}.self_s": own.get(layer, 0.0) for layer in LAYERS})
    return m


def measure(args, wl, paths, stats, ops, pin):
    from hostclock import HostClock
    from spans import NullTracer, Tracer
    from workloads import setup

    null = NullTracer()
    if args.trace:
        # The traced iteration sits between two untraced ones, so that the
        # first iteration's cold start does not count against the untraced side.
        tracer = Tracer(f"{args.workload}-{args.seed}-{uuid.uuid4().hex[:12]}")
        with HostClock() as clock:
            before = run_iteration(wl, null, paths, stats, ops)
            traced = run_iteration(wl, tracer, paths, stats, ops)
            after = run_iteration(wl, null, paths, stats, ops)
            with tracer.span("probe"):
                extras = wl.probe(tracer, traced["p"], traced["out"])
        for run in (before, traced, after):
            phase_times(clock, run)
        tracer.close(clock)
        check_outputs(ops, [before, traced, after], pin, stats)
        tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.json")
        return per_layer_metrics(tracer, (before["total"] + after["total"]) / 2, traced,
                                 extras, wl.work(traced["out"]))

    setup_windows = []
    runs = []
    with HostClock() as clock:
        start = time.perf_counter()
        while (len(setup_windows) < SETUP_REPS
               or time.perf_counter() - start < min(SETUP_SECONDS, args.seconds)):
            gc.collect()
            t0 = time.perf_counter()
            setup(null, paths, wl.scheme)
            setup_windows.append((t0, time.perf_counter()))
        start = time.perf_counter()
        while not runs or time.perf_counter() - start + runs[-1]["wall"] <= args.seconds:
            run = run_iteration(wl, null, paths, stats, ops)
            del run["p"], run["out"]
            run["wall"] = run["stamps"][-1] - run["stamps"][0]
            runs.append(run)
    for run in runs:
        phase_times(clock, run)
    check_outputs(ops, runs, pin, stats)
    setup_times = [clock.seconds(a, b) for a, b in setup_windows] + [r["setup"] for r in runs]
    print(f"# {len(runs)} iteration(s), {len(setup_times)} set-up samples; on the wall clock "
          f"total_s median {statistics.median(r['wall'] for r in runs):.6g}, "
          f"host slowdown median {statistics.median(r['slowdown'] for r in runs):.4g}",
          file=sys.stderr)
    return {"total_s": statistics.median(r["total"] for r in runs),
            "setup_s": statistics.median(setup_times),
            "solve_s": statistics.median(r["solve"] for r in runs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "di_percent": runs[0]["di"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs are for the self-test")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import_library()
    from workloads import WORKLOADS, Ops, input_stats, write_inputs

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed, args.size)
    pins = json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))[args.size]
    pin = pins.get(args.workload, {}) if args.seed == DEFAULT_SEED else None

    edges, tuples, targets = wl.generate()
    stats = input_stats(edges, tuples)
    ops = Ops()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{args.workload}-") as tmp:
        paths = write_inputs(Path(tmp), edges, tuples, targets)
        del edges, tuples
        values = measure(args, wl, paths, stats, ops, pin)

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(declared):
        sys.exit(f"error: metrics {sorted(set(values) ^ set(declared))} "
                 "are computed or declared, but not both")
    print(f"# inputs {json.dumps(stats)}", file=sys.stderr)
    for name in ops.failures:
        print(f"# FAILED {name}", file=sys.stderr)
    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {declared[name]}")
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed,
                      "metrics": {n: {"value": v, "unit": declared[n]} for n, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
