"""Fast self-test of the benchmark at tiny input sizes (a few seconds).

    python3 perfbench/selftest.py

Checks that run.py prints the result line the way BENCHMARK.json declares it
for every workload and mode, with no failed operation and the pinned tiny
outputs; that every kind of output check catches a corrupted answer without
crashing; that the host-corrected clock is exact on synthetic probes; and
that run.py fails without printing a result when the library
is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

OTHER_SEED = 7     # a seed without pinned outputs


def run_cli(spec, cwd, workload, trace, seed=run.DEFAULT_SEED):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", "0",
                             "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def check_result_line(spec, workload, trace, seed):
    proc = run_cli(spec, run.ROOT, workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["correct"] is True and res["failed"] == 0, (workload, trace, proc.stderr)
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == declared, (workload, trace, set(got) ^ set(declared))
    for name, m in res["metrics"].items():
        assert isinstance(m["value"], (int, float)) and m["value"] == m["value"], name
        if not trace:
            assert m["value"] > 0, (workload, name)


def corrupted_outputs_fail():
    """Each check fails on a deliberately wrong answer, and nothing raises."""
    from spans import NullTracer
    from workloads import WORKLOADS, Ops, input_stats, problem, setup, write_inputs

    def corrupt_ic(sols):
        gains = sols["greedy"].gain_per_step
        gains[-1] = gains[0] + 1.0
        sols["grr"].edges[:] = [(0, 10), (1, 10), (2, 10), (3, 11), (4, 12)]

    def corrupt_chain(sol):
        sol.gain_per_step[-1] += 1.0

    def corrupt_ilm(out):
        frac, rounded, swaps = out
        e = next(iter(frac.y))
        frac.y[e] = 1.5
        rounded.delta += 1.0
        swaps[:] = [frozenset((u, 10) for u in range(5))] + [frozenset()] * (len(swaps) - 1)

    # failed checks expected: ic-grid greedy gains and its k=5 delta, grr
    # feasibility and its k=3 and k=5 deltas; chain-long delta; ilm-matroid
    # polytope, swap feasibility, swap mean size and randomized-round delta
    cases = {"ic-grid": (corrupt_ic, 5), "chain-long": (corrupt_chain, 1),
             "ilm-matroid": (corrupt_ilm, 4)}
    tmp = run.OUT_DIR / "selftest-inputs"
    for name, (corrupt, expect) in cases.items():
        wl = WORKLOADS[name](run.DEFAULT_SEED, "tiny")
        edges, tuples, targets = wl.generate()
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        paths = write_inputs(tmp, edges, tuples, targets)
        tr, ops = NullTracer(), Ops()
        p = problem(*setup(tr, paths, wl.scheme), paths)
        assert len(p.C) == input_stats(edges, tuples)["candidates"]
        out = wl.solve(tr, p)
        wl.evaluate(tr, p, out, ops)
        assert ops.failed == 0, (name, ops.failures)
        corrupt(out)
        ops = Ops()
        wl.evaluate(tr, p, out, ops)
        assert ops.failed >= expect, (name, ops.failures)
    shutil.rmtree(tmp)


def host_clock_is_consistent():
    """At the reference speed the corrected clock is the wall clock less the
    probes; at twice the probe time it runs at half speed; and the corrected
    times of adjacent windows add up."""
    from hostclock import INTERVAL, REFERENCE_S, HostClock

    for factor in (1.0, 2.0):
        clock = HostClock()
        clock.starts = [k * INTERVAL for k in range(100)]
        clock.durations = [factor * REFERENCE_S] * 100
        clock._build()
        a, m, b = 0.5 * INTERVAL, 40.5 * INTERVAL, 80.5 * INTERVAL
        own = b - a - 80 * factor * REFERENCE_S
        assert abs(clock.seconds(a, b) - own / factor) < 1e-12, factor
        assert abs(clock.slowdown(a, b) - factor) < 1e-9, factor
        assert abs(clock.seconds(a, m) + clock.seconds(m, b) - clock.seconds(a, b)) < 1e-12


def bare_directory_fails(spec):
    """Without src/, run.py exits non-zero and prints no result line."""
    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for rel in spec["paths"]:
        shutil.copytree(run.ROOT / rel, bare / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli(spec, bare, "ic-grid", 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run.import_library()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_result_line(spec, workload, trace, run.DEFAULT_SEED)
        check_result_line(spec, workload, 0, OTHER_SEED)
    corrupted_outputs_fail()
    host_clock_is_consistent()
    bare_directory_fails(spec)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
