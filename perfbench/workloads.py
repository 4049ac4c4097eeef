"""Seeded inputs and the pipeline of each benchmark workload.

Every workload generates its graph, action log and targets from the seed
with its own generator, so the inputs stay fixed when library code changes.
The library sees only the text files written from them. A pipeline
iteration is: load and build the credit-assigned DAGs (set-up), call the
solvers (solve), then evaluate and verify every answer from scratch.
"""

from __future__ import annotations

import hashlib
import random
import statistics
from types import SimpleNamespace

from cdlim.contgreedy import CGConfig, cg_weights, continuous_greedy
from cdlim.credit import compute_credit_store, delta_set, sigma_cd_scratch
from cdlim.graph import build_all_dags, load_action_log, load_graph
from cdlim.greedy import compute_mc, greedy_bil, remove_edge
from cdlim.harness import (baseline_high_degree, baseline_random, default_candidates,
                           di_metric)
from cdlim.rounding import decompose, feasible, randomized_round, swap_round

VERIFY_TOL = 1e-6     # reported delta against delta_set, as in `cdlim verify`
GAIN_TOL = 1e-9       # relative slack for non-increasing greedy gains
SWAP_SIGMAS = 5.0     # width of the swap-rounding mean-size check
PROBE_SAMPLES = 50    # samples behind each probe's p50 and p80


class Ops:
    """Operations attempted and failed; a failed check never raises."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)


# --- input generation -------------------------------------------------------

def _chokepoint_graph(rng, n, m, fanout):
    """Targets 0-9 feed relays 10-14, which fan out to ``fanout`` random
    nodes each, over a uniform random background of ``m`` edges in all."""
    edges = {(x, r) for x in range(10) for r in range(10, 15)}
    for r in range(10, 15):
        edges.update((r, v) for v in rng.sample(range(15, n), fanout))
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((u, v))
    return sorted(edges)


def _ic_tuples(rng, n, edges, num_actions, p):
    """Independent cascades from one uniform seed each; time = round index."""
    out = [[] for _ in range(n)]
    for u, v in edges:
        out[u].append(v)
    tuples = []
    for a in range(num_actions):
        s = rng.randrange(n)
        active = {s: 0}
        frontier = [s]
        t = 0
        while frontier:
            t += 1
            new = []
            for u in frontier:
                for v in out[u]:
                    if v not in active and rng.random() < p:
                        active[v] = t
                        new.append(v)
            frontier = sorted(new)
        tuples.extend((u, a, tu) for u, tu in active.items())
    return tuples


def chokepoint_ic(c, seed):
    """The IC chokepoint instance of generator seed ``c["instance"]``, with
    node labels and action ids permuted by ``seed``.

    Cascade work on these graphs is heavy-tailed: a few cascades through the
    relays carry most of it. Over ten generator seeds, the work greedy does
    (row entries read) spreads with an interquartile range of 22% of its
    median, wider than any regression bound the benchmark could hold. So the
    instance is fixed, and the seed changes the files the library reads, the
    order of its ids and every random choice the workload makes.
    """
    rng = random.Random(c["instance"])
    edges = _chokepoint_graph(rng, c["n"], c["m"], c["fanout"])
    tuples = _ic_tuples(rng, c["n"], edges, c["actions"], c["p"])
    rng = random.Random(seed)
    node = list(range(c["n"]))
    act = list(range(c["actions"]))
    rng.shuffle(node)
    rng.shuffle(act)
    return (sorted((node[u], node[v]) for u, v in edges),
            sorted((node[u], act[a], t) for u, a, t in tuples),
            [node[x] for x in range(10)])


def input_stats(edges, tuples) -> dict:
    """Sizes of the generated inputs, computed without the library."""
    times: dict[int, dict[int, int]] = {}
    for u, a, t in tuples:
        times.setdefault(a, {})[u] = t
    out: dict[int, list[int]] = {}
    for u, v in edges:
        out.setdefault(u, []).append(v)
    cands = set()
    for tm in times.values():
        for u, tu in tm.items():
            for v in out.get(u, ()):
                tv = tm.get(v)
                if tv is not None and tu < tv:
                    cands.add((u, v))
    sizes = [len(tm) for tm in times.values()]
    return {"tuples": len(tuples), "actions": len(times), "candidates": len(cands),
            "max_cascade": max(sizes), "median_cascade": statistics.median(sizes)}


def write_inputs(workdir, edges, tuples, targets) -> SimpleNamespace:
    """Write the graph, action log and targets in the CLI's text formats."""
    paths = SimpleNamespace(graph=workdir / "graph.txt", actions=workdir / "actions.txt",
                            targets=workdir / "targets.txt")
    paths.graph.write_text("".join(f"{u} {v}\n" for u, v in edges), encoding="utf-8")
    paths.actions.write_text("".join(f"{u} {a} {t}\n" for u, a, t in tuples),
                             encoding="utf-8")
    paths.targets.write_text(" ".join(map(str, sorted(targets))) + "\n", encoding="utf-8")
    return paths


# --- the pipeline -----------------------------------------------------------

def setup(tr, paths, scheme):
    """The timed set-up: parse both files and build credit-assigned DAGs."""
    with tr.span("graph.load_graph"):
        graph = load_graph(paths.graph)
    with tr.span("graph.load_action_log"):
        actionlog = load_action_log(paths.actions, graph)
    with tr.span("graph.build_all_dags"):
        dags = build_all_dags(graph, actionlog, scheme)
    return graph, actionlog, dags


def problem(graph, actionlog, dags, paths) -> SimpleNamespace:
    labels = paths.targets.read_text(encoding="utf-8").split()
    return SimpleNamespace(graph=graph, log=actionlog, dags=dags, counts=actionlog.counts,
                           X={graph.id_of(int(t)) for t in labels},
                           C=sorted(default_candidates(dags)))


def _scratch(tr, fn, *args, **kwargs):
    with tr.span(f"credit.{fn.__name__}"):
        return fn(*args, **kwargs)


def edges_digest(graph, *sequences, y=None) -> str:
    """sha256 over edge sequences and, if given, the positive entries of a
    fractional solution, written in the input files' labels."""
    lab = graph.labels
    parts = [";".join(f"{lab[u]},{lab[v]}" for u, v in seq) for seq in sequences]
    if y is not None:
        parts.append(";".join(f"{lab[u]},{lab[v]}={val:.9f}"
                              for (u, v), val in sorted(y.items()) if val > 0.0))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def _non_increasing(gains) -> bool:
    slack = GAIN_TOL * max(1.0, gains[0]) if gains else 0.0
    return all(b <= a + slack for a, b in zip(gains, gains[1:]))


def _verify(tr, ops, name, p, B, reported):
    check = _scratch(tr, delta_set, p.dags, p.X, B, counts=p.counts)
    ops.check(f"{name}: delta {reported!r} vs delta_set {check!r}",
              abs(check - reported) <= VERIFY_TOL)


def _store_probe(tr, p, picked) -> dict:
    """The store greedy_bil builds, a marginal sweep over all of C on it,
    then remove_edge for the picked edges in pick order."""
    heads = {v for (_, v) in p.C} | p.X
    with tr.span("credit.compute_credit_store"):
        store = compute_credit_store(p.dags, p.X, counts=p.counts, sources=heads)
    entries = sum(len(row) for rows in (store.uc, store.ucx)
                  for per_action in rows.values() for row in per_action.values())
    entries += sum(len(sc_a) for sc_a in store.sc.values())
    with tr.span("greedy.compute_mc_sweep"):
        for e in p.C:
            compute_mc(store, e)
    for e in picked[:PROBE_SAMPLES]:
        with tr.span("greedy.remove_edge"):
            remove_edge(store, e)
    return {"credit.store_entries": entries}


class Workload:
    """Sizes by name (``full``, or ``tiny`` for the self-test) and the seed."""

    SIZES: dict = {}

    def __init__(self, seed, size):
        self.seed = seed
        self.cfg = self.SIZES[size]


class IcGrid(Workload):
    """Criterion-12-style IC instance; the experiment-runner grid of eager greedy,
    eager grr and both baselines at every budget.

    Eager greedy is deterministic, so the cell at budget k is the first k
    picks of the cell at the largest budget: each method runs once, at the
    largest k, and every k is evaluated and verified on its prefix.
    """

    scheme = "uniform"
    SIZES = {"full": dict(instance=1202, n=1000, m=6000, fanout=150, actions=5000, p=0.12,
                          ks=(10, 20, 30, 50), b=2),
             "tiny": dict(instance=1202, n=120, m=600, fanout=18, actions=200, p=0.12,
                          ks=(3, 5), b=2)}

    def generate(self):
        return chokepoint_ic(self.cfg, self.seed)

    def solve(self, tr, p):
        sols = {}
        for method, bound in (("greedy", None), ("grr", self.cfg["b"])):
            with tr.span("greedy.greedy_bil"):
                sols[method] = greedy_bil(p.dags, p.X, max(self.cfg["ks"]), p.C,
                                          counts=p.counts, per_node_bound=bound)
        return sols

    def evaluate(self, tr, p, sols, ops):
        ks, b = self.cfg["ks"], self.cfg["b"]
        rng = random.Random(self.seed)
        baselines = {}
        for k in ks:
            with tr.span("harness.baseline_high_degree"):
                baselines["high-degree", k] = baseline_high_degree(p.graph, p.X, k)
            with tr.span("harness.baseline_random"):
                baselines["random", k] = baseline_random(p.C, k, rng)
        before = _scratch(tr, sigma_cd_scratch, p.dags, p.X, p.counts)
        # Restricted greedy only drops candidates as heads fill up, so its
        # gains are non-increasing too.
        greedy, grr = sols["greedy"], sols["grr"]
        ops.check("greedy: size and non-increasing gains",
                  len(greedy.edges) == max(ks) and _non_increasing(greedy.gain_per_step))
        ops.check("grr: size, non-increasing gains and per-node bound",
                  len(grr.edges) == max(ks) and _non_increasing(grr.gain_per_step)
                  and feasible(grr.edges, b))
        di = {}
        for method, sol in sols.items():
            for k in ks:
                B = sol.edges[:k]
                after = _scratch(tr, sigma_cd_scratch, p.dags, p.X, p.counts,
                                 removed=frozenset(B))
                di[method, k] = di_metric(before, after)
                _verify(tr, ops, f"{method} k={k}", p, B, sum(sol.gain_per_step[:k]))
        for (method, k), B in baselines.items():
            after = _scratch(tr, sigma_cd_scratch, p.dags, p.X, p.counts, removed=frozenset(B))
            _verify(tr, ops, f"{method} k={k}", p, B, before - after)
        return edges_digest(p.graph, greedy.edges, grr.edges), di["greedy", max(ks)]

    def probe(self, tr, p, sols):
        return _store_probe(tr, p, sols["greedy"].edges)

    def work(self, sols):
        return {"greedy.picks": sum(len(sol.edges) for sol in sols.values())}


class ChainLong(Workload):
    """Criterion-13 chain with long cascades; lazy greedy on learned credits.

    Cascades keep criterion 13's longest window (200), which is what makes
    the store build quadratic; 60 actions instead of 250 keep one iteration
    near four seconds and the process near 210 MB. The seed picks one target
    in each of ten strata of nodes 200-399, which every window covers alike:
    targets drawn freely from nodes 0-199 made the greedy's work outside the
    store spread by 22% of its median over ten seeds, these by under 4%.
    """

    scheme = "learned"
    SIZES = {"full": dict(n=20_000, window=200, stride=7, actions=60, pool=(200, 400), k=50),
             "tiny": dict(n=400, window=20, stride=7, actions=20, pool=(20, 40), k=5)}

    def generate(self):
        c = self.cfg
        n = c["n"]
        edges = [(u, u + d) for u in range(n) for d in (1, 2, 3) if u + d < n]
        tuples = [(a * c["stride"] + i, a, i)
                  for a in range(c["actions"]) for i in range(c["window"])]
        lo, hi = c["pool"]
        rng = random.Random(self.seed)
        step = (hi - lo) // 10
        targets = [lo + i * step + rng.randrange(step) for i in range(10)]
        return edges, tuples, targets

    def solve(self, tr, p):
        with tr.span("greedy.greedy_bil"):
            return greedy_bil(p.dags, p.X, self.cfg["k"], p.C, counts=p.counts, use_lazy=True)

    def evaluate(self, tr, p, sol, ops):
        B = sol.edges
        ops.check("lazy greedy: size and non-increasing gains",
                  len(B) == self.cfg["k"] and _non_increasing(sol.gain_per_step))
        before = _scratch(tr, sigma_cd_scratch, p.dags, p.X, p.counts)
        after = _scratch(tr, sigma_cd_scratch, p.dags, p.X, p.counts, removed=frozenset(B))
        _verify(tr, ops, "lazy greedy", p, B, sol.total_delta)
        return edges_digest(p.graph, B), di_metric(before, after)

    def probe(self, tr, p, sol):
        return _store_probe(tr, p, sol.edges)

    def work(self, sol):
        return {"greedy.picks": len(sol.edges)}


class IlmMatroid(Workload):
    """Small chokepoint IC instance under a per-node bound: continuous
    greedy, best-of-trials randomized rounding and repeated swap rounding.
    It never builds the incremental store."""

    scheme = "uniform"
    SIZES = {"full": dict(instance=1201, n=200, m=1000, fanout=30, actions=500, p=0.12, b=2,
                          tau=20, s=10, trials=50, swaps=200),
             "tiny": dict(instance=1201, n=40, m=160, fanout=6, actions=60, p=0.12, b=2,
                          tau=4, s=2, trials=5, swaps=20)}

    def generate(self):
        return chokepoint_ic(self.cfg, self.seed)

    def solve(self, tr, p):
        c = self.cfg
        b = c["b"]
        with tr.span("contgreedy.continuous_greedy"):
            frac = continuous_greedy(p.dags, p.X, p.C, b,
                                     CGConfig(tau=c["tau"], s=c["s"], seed=self.seed),
                                     counts=p.counts)
        rng = random.Random(self.seed)

        def evaluator(B):
            return _scratch(tr, delta_set, p.dags, p.X, B, counts=p.counts)

        with tr.span("rounding.randomized_round"):
            rounded = randomized_round(frac.y, p.C, b, c["trials"], rng, evaluator)
        swaps = []
        for _ in range(c["swaps"]):
            with tr.span("rounding.swap_round"):
                swaps.append(swap_round(frac.y, p.C, b, rng))
        return frac, rounded, swaps

    def evaluate(self, tr, p, out, ops):
        frac, rounded, swaps = out
        b = self.cfg["b"]
        try:
            frac.check(b)
            ops.check("continuous greedy: y inside the matroid polytope", True)
        except ValueError as exc:
            ops.check(f"continuous greedy: {exc}", False)
        ops.check("randomized round: feasible", feasible(rounded.edges, b))
        for i, S in enumerate(swaps):
            ops.check(f"swap round {i}: feasible", feasible(S, b))
        # Swap rounding keeps every marginal, so E|S| = sum(y), and its output
        # is negatively correlated, so Var|S| <= sum y(1-y). The mean of n
        # calls is then within SWAP_SIGMAS standard errors of sum(y) except
        # with a probability far below one in a million.
        ys = frac.y.values()
        mean = sum(len(S) for S in swaps) / len(swaps)
        tol = SWAP_SIGMAS * (sum(y * (1.0 - y) for y in ys) / len(swaps)) ** 0.5 + 1e-9
        ops.check(f"swap round: mean size {mean} vs sum(y) {sum(ys)}", abs(mean - sum(ys)) <= tol)
        B = sorted(rounded.edges)
        _verify(tr, ops, "randomized round", p, B, rounded.delta)
        before = _scratch(tr, sigma_cd_scratch, p.dags, p.X, p.counts)
        return edges_digest(p.graph, B, y=frac.y), 100.0 * rounded.delta / before

    def probe(self, tr, p, out):
        frac = out[0]
        rng = random.Random(self.seed)
        for _ in range(PROBE_SAMPLES):
            with tr.span("contgreedy.cg_weights"):
                cg_weights(p.dags, p.X, p.C, frac.y, 1, rng, counts=p.counts)
        with tr.span("rounding.decompose"):
            parts = decompose(frac.y, p.C, self.cfg["b"])
        return {"rounding.decompose_parts": len(parts)}

    def work(self, out):
        return {"contgreedy.samples": self.cfg["tau"] * self.cfg["s"],
                "rounding.trials": len(out[1].trial_deltas)}


WORKLOADS = {"ic-grid": IcGrid, "chain-long": ChainLong, "ilm-matroid": IlmMatroid}
