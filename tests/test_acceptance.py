"""Acceptance gate: thirteen numbered criteria, one test each.

Each test is self-contained at desk scale: brute-force enumeration,
path-enumeration oracles, and from-scratch recomputation stand in for any
external ground truth. Run with ``pytest -v`` to get one pass/fail line per
criterion.
"""

import itertools
import math
import random
import statistics
import time

import numpy as np
import pytest

from cdlim.contgreedy import CGConfig, continuous_greedy
from cdlim.credit import (compute_credit_store, compute_mc, counts_from_dags, delta_set,
                          remove_edge, sigma_cd_scratch)
from cdlim.graph import ActionLog, SocialGraph, build_all_dags, generate_ic_actions
from cdlim.greedy import greedy_bil
from cdlim.harness import (baseline_high_degree, baseline_random,
                           concentration_report, default_candidates, di_metric,
                           pick_targets)
from cdlim.rounding import feasible, randomized_round
from conftest import make_branch7, make_f1, random_instance
from reference import (chernoff_epsilon, multilinear_exact, oracle_set_credit,
                       oracle_total_credit)

TOL = 1e-9


def _nested_close(a, b, tol=TOL):
    """Compare arbitrarily nested sparse float maps, treating absent as 0."""
    for key in set(a) | set(b):
        av, bv = a.get(key), b.get(key)
        if isinstance(av, dict) or isinstance(bv, dict):
            _nested_close(av or {}, bv or {}, tol)
        else:
            assert abs((av or 0.0) - (bv or 0.0)) <= tol, (key, av, bv)


def _best_feasible(inst, b, counts, max_size=None):
    """Exhaustive optimum of the influence drop under the per-node bound."""
    limit = len(inst.C) if max_size is None else max_size
    best, best_set = 0.0, frozenset()
    for r in range(limit + 1):
        for combo in itertools.combinations(inst.C, r):
            if b is not None and not feasible(combo, b):
                continue
            val = delta_set(inst.dags, inst.X, combo, counts=counts)
            if val > best:
                best, best_set = val, frozenset(combo)
    return best, best_set


def test_criterion_01_oracle_equivalence():
    """Recursive SC/UC match the path-enumeration oracles on 200 instances."""
    start = time.perf_counter()
    rng = random.Random(101)
    for _ in range(200):
        inst = random_instance(rng, max_nodes=12, max_actions=4)
        store = compute_credit_store(inst.dags, inst.X)
        for dag in inst.dags:
            a = dag.action
            for u in dag.nodes:
                want = oracle_set_credit(dag, inst.X, u)
                assert abs(store.sc[a].get(u, 0.0) - want) <= TOL
                for v in dag.nodes:
                    want = oracle_total_credit(dag, v, u)
                    assert abs(store.uc[a][v].get(u, 0.0) - want) <= TOL
    assert time.perf_counter() - start < 10.0


def test_criterion_02_single_edge_closed_form():
    """compute_mc equals the from-scratch set delta on 500 random edges."""
    rng = random.Random(102)
    pairs = 0
    while pairs < 500:
        inst = random_instance(rng)
        counts = counts_from_dags(inst.dags)
        store = compute_credit_store(inst.dags, inst.X, counts=counts)
        for e in inst.C:
            want = delta_set(inst.dags, inst.X, {e}, counts=counts)
            assert abs(compute_mc(store, e) - want) <= TOL
            pairs += 1


def test_criterion_03_incremental_update_soundness():
    """After every greedy pick the mutated store equals a fresh rebuild."""
    rng = random.Random(103)
    for _ in range(50):
        inst = random_instance(rng)
        counts = counts_from_dags(inst.dags)
        store = compute_credit_store(inst.dags, inst.X, counts=counts)
        k = min(5, len(inst.C))
        pool = list(inst.C)
        removed = set()
        for _ in range(k):
            best = max(pool, key=lambda e: (compute_mc(store, e),
                                            (-e[0], -e[1])))
            pool.remove(best)
            remove_edge(store, best)
            removed.add(best)
            fresh = compute_credit_store(inst.dags, inst.X, counts=counts,
                                         removed=removed)
            _nested_close(store.ep, fresh.ep)
            _nested_close(store.sc, fresh.sc)
            _nested_close(store.uc, fresh.uc)
            _nested_close(store.ucx, fresh.ucx)


def test_criterion_04_monotone_submodular():
    """No monotonicity or diminishing-returns violation over 1000 triples
    per instance."""
    rng = random.Random(104)
    for _ in range(5):
        inst = random_instance(rng, max_nodes=7, max_actions=2)
        counts = counts_from_dags(inst.dags)
        cache = {}

        def val(B):
            key = frozenset(B)
            if key not in cache:
                cache[key] = delta_set(inst.dags, inst.X, key, counts=counts)
            return cache[key]

        for _ in range(1000):
            S = set(rng.sample(inst.C, rng.randint(0, len(inst.C) - 1)))
            extra = [e for e in inst.C if e not in S]
            T = S | set(rng.sample(extra, rng.randint(0, len(extra) - 1)))
            e = rng.choice([c for c in inst.C if c not in T])
            assert val(S | {e}) >= val(S) - TOL            # monotone
            assert val(T | {e}) >= val(T) - TOL
            gain_s = val(S | {e}) - val(S)
            gain_t = val(T | {e}) - val(T)
            assert gain_s >= gain_t - TOL                  # diminishing returns


def test_criterion_05_greedy_approximation():
    """Greedy reaches at least (1 - 1/e) of the exhaustive optimum."""
    rng = random.Random(105)
    ratios = []
    done = 0
    while done < 50:
        inst = random_instance(rng, max_nodes=7, max_actions=2)
        if len(inst.C) > 12 or len(inst.C) < 3:
            continue
        counts = counts_from_dags(inst.dags)
        k = rng.randint(1, min(4, len(inst.C) - 1))
        sol = greedy_bil(inst.dags, inst.X, k, counts=counts)
        best = 0.0
        for combo in itertools.combinations(inst.C, k):
            best = max(best, delta_set(inst.dags, inst.X, combo, counts=counts))
        if best <= TOL:
            continue
        ratio = sol.total_delta / best
        assert ratio >= (1.0 - 1.0 / math.e) - TOL
        ratios.append(min(ratio, 1.0))
        done += 1
    assert statistics.median(ratios) >= 0.95


def test_criterion_06_anchor_instance():
    """Hand-checked values on the three-node anchor instance."""
    f1 = make_f1()
    counts = counts_from_dags(f1.dags)
    assert abs(sigma_cd_scratch(f1.dags, f1.X, counts) - 2.0) <= TOL
    assert abs(delta_set(f1.dags, f1.X, {(0, 1)}, counts=counts) - 0.7) <= TOL
    assert abs(delta_set(f1.dags, f1.X, {(0, 2)}, counts=counts) - 0.3) <= TOL
    sol = greedy_bil(f1.dags, f1.X, 2, counts=counts)
    assert abs(sol.total_delta - 1.0) <= TOL
    after = sigma_cd_scratch(f1.dags, f1.X, counts, removed=frozenset(sol.edges))
    assert abs(di_metric(2.0, after) - 50.0) <= TOL


def test_criterion_07_branching_cascade_anchors():
    """Hand-checked arithmetic on the seven-node branching cascade.

    With targets {2, 3}, deleting the two strongest feeds of the shared sink
    leaves a total influence of exactly 1 + 1 + 0.5 + 1 + 0.4 = 3.9. With
    target {2} alone, the credit routed through the chain edge (3, 5) and on
    to the sink is 0.2 * 1.0 * 0.3 = 0.06.
    """
    inst = make_branch7({2, 3})
    after = sigma_cd_scratch(inst.dags, inst.X, removed=frozenset({(5, 6), (4, 6)}))
    assert abs(after - 3.9) <= TOL

    single = make_branch7({2})
    store = compute_credit_store(single.dags, single.X)
    routed = store.sc[0][3] * single.dags[0].gamma[(3, 5)] * store.uc[0][5][6]
    assert abs(routed - 0.06) <= TOL


@pytest.fixture(scope="module")
def cg_bench():
    """Twenty small matroid instances with continuous-greedy results.

    Each instance carries its exhaustive optimum, the multilinear values of
    twenty independently seeded continuous-greedy runs (tau=100, s=50), and
    the fractional solution of the first seed for the rounding criterion.
    """
    rng = random.Random(108)
    bench = []
    start = time.perf_counter()
    while len(bench) < 20:
        inst = random_instance(rng, max_nodes=6, max_actions=1)
        if not 2 <= len(inst.C) <= 6:
            continue
        b = 1 + len(bench) % 2
        counts = counts_from_dags(inst.dags)
        best, _ = _best_feasible(inst, b, counts)
        if best < 0.05:
            continue
        values = []
        first_y = None
        for seed in range(20):
            frac = continuous_greedy(inst.dags, inst.X, inst.C, b,
                                     CGConfig(tau=100, s=50, seed=seed),
                                     counts=counts)
            frac.check(b)
            values.append(multilinear_exact(inst.dags, inst.X, inst.C, frac.y,
                                            counts=counts))
            if seed == 0:
                first_y = frac.y
        bench.append({"inst": inst, "b": b, "counts": counts, "best": best,
                      "values": values, "y": first_y})
    return {"bench": bench, "elapsed": time.perf_counter() - start}


def test_criterion_08_continuous_greedy_quality(cg_bench):
    """Median fractional value reaches (1 - 1/e - 0.05) of the optimum."""
    threshold = 1.0 - 1.0 / math.e - 0.05
    for item in cg_bench["bench"]:
        assert statistics.median(item["values"]) >= threshold * item["best"] - TOL
    assert cg_bench["elapsed"] < 300.0


def test_exact_continuous_greedy_reaches_sampled_median(cg_bench):
    """On criterion 08's instances, exact weights (tau=100) reach at least
    the median multilinear value of the twenty sampled runs."""
    for item in cg_bench["bench"]:
        inst, b, counts = item["inst"], item["b"], item["counts"]
        frac = continuous_greedy(inst.dags, inst.X, inst.C, b, CGConfig(tau=100), counts=counts)
        frac.check(b)
        value = multilinear_exact(inst.dags, inst.X, inst.C, frac.y, counts=counts)
        assert value >= statistics.median(item["values"]), (value, item["values"])


def test_criterion_09_randomized_rounding_quality(cg_bench):
    """Best-of-50 randomized rounding keeps 0.9 of the fractional value."""
    ratios = []
    for item in cg_bench["bench"]:
        inst, b, counts = item["inst"], item["b"], item["counts"]
        fy = multilinear_exact(inst.dags, inst.X, inst.C, item["y"], counts=counts)
        got = randomized_round(item["y"], inst.C, b, 50, random.Random(109),
                               lambda B: delta_set(inst.dags, inst.X, B,
                                                   counts=counts))
        assert feasible(got.edges, b)
        ratios.append(got.delta / fy if fy > 0 else 1.0)
    assert statistics.median(ratios) >= 0.9


def test_criterion_10_swap_rounding_marginals():
    """Per-edge swap-rounding frequency stays within 3 binomial standard
    errors of the fractional value, over 10 y vectors x 10^4 runs."""
    from cdlim.rounding import swap_round

    rng = random.Random(110)
    edges = sorted({(t, h) for h in range(5, 9) for t in range(4)})
    b = 2
    runs = 10_000
    for _ in range(10):
        y = {e: rng.random() for e in edges}
        load = {}
        for (_, v), val in ((e, y[e]) for e in edges):
            load[v] = load.get(v, 0.0) + val
        for e in edges:
            if load[e[1]] > b:
                y[e] *= b / load[e[1]]
        hits = dict.fromkeys(edges, 0)
        for _ in range(runs):
            out = swap_round(y, edges, b, rng)
            assert feasible(out, b)
            for e in out:
                hits[e] += 1
        for e in edges:
            sigma = math.sqrt(max(y[e] * (1.0 - y[e]) * runs, 1.0))
            assert abs(hits[e] - y[e] * runs) <= 3 * sigma


def test_criterion_11_chernoff_overflow_bound():
    """Unconditioned independent rounding overflows a node's bound with
    empirical frequency at most 2/n."""
    rng = np.random.default_rng(111)
    n, b, runs = 100, 6, 10_000
    per_node = 20
    y = rng.uniform(0.0, 1.0, size=(n, per_node))
    scale = np.minimum(1.0, b / y.sum(axis=1, keepdims=True))
    y *= scale  # per-node load <= b
    eps = chernoff_epsilon(n, b)
    threshold = (1.0 + eps) * b
    overflow = 0
    for _ in range(10):
        draws = rng.random((runs // 10, n, per_node)) < y
        overflow += int((draws.sum(axis=2) >= threshold).sum())
    assert overflow / (runs * n) <= 2.0 / n


def _ic_benchmark(seed):
    """A 1000-node, 5000-action independent-cascade benchmark.

    The target users (0-9) broadcast through five relay nodes (10-14) that
    each fan out widely, on top of a uniform random background, so deleting
    the relays' incoming edges is the natural chokepoint.
    """
    rng = random.Random(seed)
    n = 1000
    X = set(range(10))
    relays = range(10, 15)
    edges = {(x, r) for x in X for r in relays}
    for r in relays:
        edges.update((r, v) for v in rng.sample(range(15, n), 150))
    while len(edges) < 6000:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((u, v))
    graph = SocialGraph(n, sorted(edges))
    log = generate_ic_actions(graph, 5000, 1, 0.12, seed=seed)
    dags = build_all_dags(graph, log)
    C = sorted(default_candidates(dags))
    return graph, dags, log.counts, X, C


def test_criterion_12_end_to_end_ordering():
    """Greedy beats the high-degree baseline, which beats random, at every
    budget in at least 4 of 5 seeds; with 50 removals the unconstrained
    greedy is more head-concentrated than the b=2 restricted greedy."""
    ks = (10, 20, 30)
    ordering_ok = {k: 0 for k in ks}
    concentration_ok = 0
    seeds = range(5)
    for seed in seeds:
        graph, dags, counts, X, C = _ic_benchmark(1200 + seed)
        assert len(C) > 51
        before = sigma_cd_scratch(dags, X, counts)
        grd = greedy_bil(dags, X, 50, C, counts=counts, use_lazy=True)
        cumulative = list(itertools.accumulate(grd.gain_per_step))
        rng = random.Random(seed)
        per_k_ok = {}
        for k in ks:
            di_greedy = 100.0 * cumulative[k - 1] / before
            hd = baseline_high_degree(graph, X, k) or []
            di_hd = (100.0 * delta_set(dags, X, hd, counts=counts) / before
                     if hd else 0.0)
            rnd_edges = baseline_random(C, k, rng)
            di_rnd = 100.0 * delta_set(dags, X, rnd_edges, counts=counts) / before
            per_k_ok[k] = di_greedy >= di_hd - TOL and di_hd >= di_rnd - TOL
        for k in ks:
            ordering_ok[k] += per_k_ok[k]
        grr = greedy_bil(dags, X, 50, C, counts=counts, use_lazy=True,
                         per_node_bound=2)
        if concentration_report(grd.edges) > concentration_report(grr.edges):
            concentration_ok += 1
    for k in ks:
        assert ordering_ok[k] >= 4, (k, ordering_ok)
    assert concentration_ok >= 4, concentration_ok


def test_criterion_13_desk_scale_runtime():
    """Greedy with k=50 finishes within five minutes on a 20k-node graph
    carrying 50k propagation tuples."""
    n = 20_000
    window, stride, num_actions = 25, 7, 2000
    edges = [(u, u + d) for u in range(n) for d in (1, 2, 3) if u + d < n]
    graph = SocialGraph(n, edges)
    tuples = []
    for a in range(num_actions):
        base = a * stride
        for i in range(window):
            tuples.append((base + i, a, i))
    log = ActionLog(tuples)
    assert len(log) == 50_000
    start = time.perf_counter()
    dags = build_all_dags(graph, log)
    X = set(range(10))
    sol = greedy_bil(dags, X, 50, counts=log.counts, use_lazy=True)
    elapsed = time.perf_counter() - start
    assert len(sol.edges) == 50
    assert elapsed < 300.0, f"greedy took {elapsed:.1f}s"
