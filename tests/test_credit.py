"""Credit stores, influence totals, edge deltas, the path oracles, the
per-target-set state's target filter, and the from-scratch evaluation's
SC-map memo against memo-free copies."""

import operator
import random

import pytest

from cdlim.contgreedy import CGConfig, continuous_greedy
from cdlim.credit import (CreditKernel, _sc_map, _target_set, compute_credit_store,
                          compute_mc, counts_from_dags, delta_set, sigma_cd_scratch)
from cdlim.graph import (ActionDags, ActionLog, SocialGraph, build_all_dags, default_candidates,
                         generate_ic_actions)
from cdlim.greedy import greedy_bil
from conftest import make_branch7, make_f1, random_instance
from reference import kappa, oracle_set_credit, oracle_total_credit, sigma_cd, with_gamma
from test_acceptance import _ic_benchmark

TOL = 1e-9


class TestComputeStore:
    def test_f1_uc(self, f1):
        store = compute_credit_store(f1.dags, f1.X)
        assert abs(store.uc[0][0][1] - 0.5) < TOL
        assert abs(store.uc[0][0][2] - 0.5) < TOL  # 0.3 direct + 0.5*0.4
        assert abs(store.uc[0][1][2] - 0.4) < TOL

    def test_f1_self_entries(self, f1):
        store = compute_credit_store(f1.dags, f1.X)
        for v in range(3):
            assert store.uc[0][v][v] == 1.0

    def test_f1_sc(self, f1):
        store = compute_credit_store(f1.dags, f1.X)
        assert abs(store.sc[0][0] - 1.0) < TOL
        assert abs(store.sc[0][1] - 0.5) < TOL
        assert abs(store.sc[0][2] - 0.5) < TOL

    def test_all_targets(self, f1):
        store = compute_credit_store(f1.dags, {0, 1, 2})
        assert store.sc[0] == {0: 1.0, 1: 1.0, 2: 1.0}

    def test_zero_gamma_no_propagation(self, f1):
        (dag,) = build_all_dags(f1.graph, f1.log)
        bare = with_gamma(dag, dict.fromkeys(dag.gamma, 0.0))  # gammas all zero
        store = compute_credit_store([bare], f1.X)
        assert store.sc[0] == {0: 1.0}  # nothing propagates

    def test_sources_restriction(self, f1):
        store = compute_credit_store(f1.dags, f1.X, sources={1})
        assert set(store.uc[0]) == {1}
        with pytest.raises(ValueError, match="not materialized"):
            compute_mc(store, (0, 2))


class TestKappaSigma:
    def test_f1_values(self, f1):
        store = compute_credit_store(f1.dags, f1.X)
        assert abs(kappa(store, 1) - 0.5) < TOL
        assert kappa(store, 0) == 1.0  # target member
        assert abs(sigma_cd(store) - 2.0) < TOL

    def test_inactive_user_raises(self, f1):
        store = compute_credit_store(f1.dags, f1.X)
        with pytest.raises(ValueError, match="no actions"):
            kappa(store, 77)

    def test_empty_target(self, f1):
        store = compute_credit_store(f1.dags, set())
        assert sigma_cd(store) == 0.0

    def test_zero_credit_kappa(self):
        g = SocialGraph(2, [(0, 1)])
        log = ActionLog([(0, 0, 1), (1, 0, 2)])
        dag = with_gamma(build_all_dags(g, log)[0], {(0, 1): 0.5})
        store = compute_credit_store([dag], {1})
        assert kappa(store, 0) == 0.0  # no path from {1} back to 0

    def test_branch7_sigma(self):
        inst = make_branch7({2, 3})
        store = compute_credit_store(inst.dags, inst.X)
        assert abs(sigma_cd(store) - 4.3) < TOL

    def test_scratch_matches_store(self, f1):
        store = compute_credit_store(f1.dags, f1.X)
        assert abs(sigma_cd(store) - sigma_cd_scratch(f1.dags, f1.X)) < TOL


class TestOracles:
    def test_f1_set_credit(self, f1):
        dag = f1.dags[0]
        assert abs(oracle_set_credit(dag, {0}, 2) - 0.5) < TOL
        assert oracle_set_credit(dag, {0}, 0) == 1.0
        assert oracle_set_credit(dag, {2}, 0) == 0.0  # unreachable backward

    def test_minimal_paths_stop_at_targets(self):
        # chain 0 -> 1 -> 2 with X = {0, 1}: only the direct step from 1
        # counts at 2; the longer 0 -> 1 -> 2 walk passes another target
        g = SocialGraph(3, [(0, 1), (1, 2)])
        log = ActionLog([(0, 0, 1), (1, 0, 2), (2, 0, 3)])
        dag = with_gamma(build_all_dags(g, log)[0], {(0, 1): 0.5, (1, 2): 0.5})
        assert abs(oracle_set_credit(dag, {0, 1}, 2) - 0.5) < TOL

    def test_total_credit(self, f1):
        dag = f1.dags[0]
        assert abs(oracle_total_credit(dag, 0, 2) - 0.5) < TOL
        assert oracle_total_credit(dag, 2, 2) == 1.0
        assert oracle_total_credit(dag, 2, 0) == 0.0

    def test_guard(self):
        n = 25
        g = SocialGraph(n, [(u, u + 1) for u in range(n - 1)])
        log = ActionLog([(u, 0, u) for u in range(n)])
        dag = with_gamma(build_all_dags(g, log)[0],
            {(u, u + 1): 0.5 for u in range(n - 1)})
        with pytest.raises(ValueError, match="guard"):
            oracle_set_credit(dag, {0}, n - 1)

    def test_store_matches_oracles_random(self):
        rng = random.Random(11)
        for _ in range(25):
            inst = random_instance(rng)
            store = compute_credit_store(inst.dags, inst.X)
            for dag in inst.dags:
                a = dag.action
                for u in dag.nodes:
                    want = oracle_set_credit(dag, inst.X, u)
                    assert abs(store.sc[a].get(u, 0.0) - want) < TOL
                    for v in dag.nodes:
                        want = oracle_total_credit(dag, v, u)
                        assert abs(store.uc[a][v].get(u, 0.0) - want) < TOL


class TestDeltas:
    def test_f1_single(self, f1):
        store = compute_credit_store(f1.dags, f1.X)
        assert abs(compute_mc(store, (0, 2)) - 0.3) < TOL
        assert abs(compute_mc(store, (0, 1)) - 0.7) < TOL
        assert compute_mc(store, (2, 0)) == 0.0  # not a DAG edge

    def test_f1_set(self, f1):
        assert delta_set(f1.dags, f1.X, set()) == 0.0
        assert abs(delta_set(f1.dags, f1.X, {(0, 1), (0, 2)}) - 1.0) < TOL
        assert abs(delta_set(f1.dags, f1.X, {(1, 2)}) - 0.2) < TOL

    def test_single_matches_set_random(self):
        rng = random.Random(12)
        for _ in range(40):
            inst = random_instance(rng)
            store = compute_credit_store(inst.dags, inst.X)
            for e in inst.C:
                want = delta_set(inst.dags, inst.X, {e})
                assert abs(compute_mc(store, e) - want) < TOL

    def test_set_matches_whole_graph_difference(self):
        # delta_set visits only the DAGs holding an edge of B; the two
        # whole-graph totals it used to subtract give the same drop.
        rng = random.Random(14)
        for _ in range(60):
            inst = random_instance(rng, max_actions=6)
            counts = counts_from_dags(inst.dags)
            B = rng.sample(inst.C, rng.randint(1, len(inst.C)))
            want = (sigma_cd_scratch(inst.dags, inst.X, counts)
                    - sigma_cd_scratch(inst.dags, inst.X, counts, removed=frozenset(B)))
            got = delta_set(inst.dags, inst.X, B, counts=counts)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_set_without_dag_edges_is_zero(self, f1):
        assert delta_set(f1.dags, f1.X, []) == 0.0
        assert delta_set(f1.dags, f1.X, {(2, 0), (1, 0)}) == 0.0  # in no DAG

    def test_set_ignores_duplicates(self):
        rng = random.Random(15)
        for _ in range(20):
            inst = random_instance(rng, max_actions=4)
            B = rng.sample(inst.C, rng.randint(1, len(inst.C)))
            assert delta_set(inst.dags, inst.X, B + B[:2]) == delta_set(inst.dags, inst.X, B)

    def test_single_with_downstream_target(self):
        # chain 0 -> 1 -> 2 -> 3 -> 4 with targets {0, 3}: the closed form
        # must not count credit continuing past the second target
        g = SocialGraph(5, [(u, u + 1) for u in range(4)])
        log = ActionLog([(u, 0, u) for u in range(5)])
        dag = with_gamma(build_all_dags(g, log)[0],
            {(u, u + 1): 1.0 for u in range(4)})
        X = {0, 3}
        store = compute_credit_store([dag], X)
        want = delta_set([dag], X, {(1, 2)})
        assert abs(compute_mc(store, (1, 2)) - want) < TOL

    def test_monotone_and_submodular_f1(self, f1):
        # the chained edge is worth 0.2 alone and nothing once the feeder
        # (0,1) is gone
        assert abs(delta_set(f1.dags, f1.X, {(1, 2)}) - 0.2) < TOL
        both = delta_set(f1.dags, f1.X, {(0, 1), (1, 2)})
        first = delta_set(f1.dags, f1.X, {(0, 1)})
        assert abs(both - first) < TOL

    def test_removal_far_from_head_keeps_sc(self, f1):
        # removing (1,2) cannot change credit at nodes with no path from 2
        before = compute_credit_store(f1.dags, f1.X)
        after = compute_credit_store(f1.dags, f1.X, removed={(1, 2)})
        for u in (0, 1):
            assert before.sc[0][u] == after.sc[0][u]

    def test_monotone_random(self):
        rng = random.Random(13)
        for _ in range(20):
            inst = random_instance(rng)
            counts = counts_from_dags(inst.dags)
            S = set(rng.sample(inst.C, rng.randint(0, len(inst.C) - 1)))
            e = rng.choice([c for c in inst.C if c not in S])
            base = delta_set(inst.dags, inst.X, S, counts=counts)
            grown = delta_set(inst.dags, inst.X, S | {e}, counts=counts)
            assert grown >= base - TOL


def reference_sigma_cd_scratch(dags, X, counts, removed=frozenset()):
    """The from-scratch total influence without the memo: one
    :func:`_sc_map` pass per target-holding DAG on every call."""
    X = frozenset(X)
    total = 0.0
    for dag in dags:
        if X.isdisjoint(dag.times):
            continue
        for u, val in _sc_map(dag, X, removed).items():
            total += val / counts[u]
    return total


def _reference_influence(dag, X, counts, removed):
    total = 0.0
    for u, val in _sc_map(dag, X, removed).items():
        total += val / counts[u]
    return total


def reference_delta_set(dags, X, B, counts):
    """:func:`delta_set` without the memo: both passes of every DAG holding
    a target member and an edge of B, on every call."""
    X = frozenset(X)
    B = frozenset(B)
    total = 0.0
    for dag in dags:
        if X.isdisjoint(dag.times) or B.isdisjoint(dag.gamma):
            continue
        total += (_reference_influence(dag, X, counts, frozenset())
                  - _reference_influence(dag, X, counts, B))
    return total


def _assert_memo_is_bounded(dags, X):
    """The memo answers for ``X`` and keeps only the maps it may: each
    holding DAG's unremoved map (or nothing yet), and the maps with one
    removed set absent, for exactly the holding DAGs that hold an edge of
    it. Every kept map equals a fresh pass."""
    memo = dags.target
    held = _target_set(dags, X).held
    assert memo.held is held and memo.X == frozenset(X)
    assert len(memo.base) == len(held)
    for dag, sc in zip(held, memo.base):
        assert sc is None or sc == _sc_map(dag, memo.X, frozenset())
    assert isinstance(memo.removed, frozenset)
    assert set(memo.touched) == {i for i, dag in enumerate(held)
                                 if not memo.removed.isdisjoint(dag.gamma)}
    for i, sc in memo.touched.items():
        assert sc == _sc_map(held[i], memo.X, memo.removed)


def _filter(dags, X):
    """The per-call target filter that ``_target_set`` replaced."""
    return [dag for dag in dags if not frozenset(X).isdisjoint(dag.times)]


def _three_actions():
    """Actions 0, 1 and 2 performed by users {0, 1}, {1, 2} and {2, 0}."""
    log = ActionLog([(0, 0, 1), (1, 0, 2), (1, 1, 1), (2, 1, 2), (2, 2, 1), (0, 2, 2)])
    return build_all_dags(SocialGraph(3, [(0, 1), (1, 2), (2, 0)]), log)


class TestActionDagsHolding:
    def test_equals_the_filter_on_random_instances(self):
        for seed in range(40):
            rng = random.Random(seed)
            inst = random_instance(rng, max_nodes=8, max_actions=6)
            dags = build_all_dags(inst.graph, inst.log)
            active = sorted({u for dag in dags for u in dag.nodes})
            idle = set(range(inst.graph.n)) - set(active)
            targets = [inst.X, set(rng.sample(active, 1)), set(active), idle | {inst.graph.n}]
            for X in targets:
                held = _target_set(dags, X).held
                want = _filter(dags, X)
                assert len(held) == len(want) and all(map(operator.is_, held, want)), seed
            assert _target_set(dags, idle | {inst.graph.n}).held == ()

    def test_memo_follows_the_last_target_set(self):
        dags = _three_actions()
        first = _target_set(dags, {0}).held
        assert [dag.action for dag in first] == [0, 2]
        assert _target_set(dags, frozenset({0})).held is first
        assert [dag.action for dag in _target_set(dags, {1}).held] == [0, 1]
        assert [dag.action for dag in _target_set(dags, {0}).held] == [0, 2]
        assert [dag.action for dag in _target_set(dags, []).held] == []

    def test_mutating_a_passed_set_does_not_reach_the_memo(self):
        dags = _three_actions()
        X = {2}
        held = _target_set(dags, X).held
        assert [dag.action for dag in held] == [1, 2]
        X.add(0)
        assert [dag.action for dag in _target_set(dags, X).held] == [0, 1, 2]
        X.discard(2)
        assert [dag.action for dag in _target_set(dags, X).held] == [0, 2]
        assert [dag.action for dag in held] == [1, 2]

    def test_build_all_dags_is_immutable(self):
        inst = make_f1()
        dags = build_all_dags(inst.graph, inst.log)
        assert isinstance(dags, ActionDags) and isinstance(dags, tuple)
        with pytest.raises(AttributeError):
            dags.append(dags[0])
        with pytest.raises(TypeError):
            dags[0] = dags[0]

    def test_solvers_and_references_read_the_logs_counts(self):
        # Every other action's DAG is dropped, so each user who performed a
        # dropped action is a node of fewer DAGs than the log's count. Given
        # no counts, an ActionDags must normalize by the log's counts it
        # carries, as a plain list passed them does.
        rng = random.Random(7)
        n = 40
        edges = sorted({(rng.randrange(n), rng.randrange(n)) for _ in range(4 * n)}
                       - {(u, u) for u in range(n)})
        graph = SocialGraph(n, edges)
        log = generate_ic_actions(graph, 60, 2, 0.4, seed=7)
        full = build_all_dags(graph, log)
        assert full.counts is log.counts
        assert counts_from_dags(full) is log.counts
        sub = ActionDags(full[::2])
        sub.counts = full.counts
        plain = list(sub)
        assert counts_from_dags(plain) != sub.counts
        active = sorted({u for dag in sub for u in dag.nodes}, key=lambda u: (-log.counts[u], u))
        X = set(active[:3])
        C = sorted(default_candidates(sub))
        assert sigma_cd_scratch(plain, X) != sigma_cd_scratch(plain, X, sub.counts)

        def hexes(values):
            return [float.hex(v) for v in values]

        got = greedy_bil(sub, X, 6, C)
        want = greedy_bil(plain, X, 6, C, counts=sub.counts)
        assert got.edges == want.edges
        assert hexes(got.gain_per_step) == hexes(want.gain_per_step)
        assert (float.hex(sigma_cd_scratch(sub, X))
                == float.hex(sigma_cd_scratch(plain, X, sub.counts)))
        for B in (got.edges, got.edges[:2], C[::3]):
            assert (float.hex(delta_set(sub, X, B))
                    == float.hex(delta_set(plain, X, B, counts=sub.counts)))
        y = continuous_greedy(sub, X, C, 1, CGConfig(tau=5)).y
        y_want = continuous_greedy(plain, X, C, 1, CGConfig(tau=5), counts=sub.counts).y
        assert hexes(y[e] for e in C) == hexes(y_want[e] for e in C)


class TestScratchMemo:
    FORMS = (set, list, tuple, frozenset)

    def _schedule(self, rng, inst):
        """Removed sets for one instance: repeated, alternated, empty, every
        candidate (so every holding DAG with an edge is touched), edges in
        no DAG, and DAG edges mixed with such edges."""
        n = inst.graph.n
        C = inst.C
        B1 = rng.sample(C, rng.randint(1, len(C)))
        B2 = rng.sample(C, rng.randint(1, len(C)))
        stray = [(0, 0), (n, n + 1)]
        sets = [B1, B1, B2, B1, B2, [], B1, list(C), stray, B1 + stray, B2]
        return sets + rng.sample(sets, len(sets))

    def test_equals_reference_on_interleaved_calls(self):
        for seed in range(60):
            rng = random.Random(seed)
            inst = random_instance(rng, max_nodes=8, max_actions=5)
            counts = counts_from_dags(inst.dags)
            active = sorted({u for d in inst.dags for u in d.nodes})
            targets = (inst.X, set(rng.sample(active, rng.randint(1, len(active)))))
            for dags in (ActionDags(inst.dags), list(inst.dags)):
                kernel, kernel_removed = None, set()
                for step, B in enumerate(self._schedule(rng, inst)):
                    # The two target sets take turns every one to three calls.
                    X = targets[(step // rng.randint(1, 3)) % 2]
                    if step == 4:
                        # A kernel built here scans for its own target set.
                        kernel = CreditKernel(dags, targets[1], counts)
                    if kernel is not None and rng.random() < 0.3:
                        # The kernel's removals, kept in one mutable set
                        # that is passed as is and changed between calls.
                        e = rng.choice(inst.C)
                        kernel.scale({e: 0.0})
                        kernel_removed.add(e)
                        removed = kernel_removed
                    else:
                        removed = rng.choice(self.FORMS)(B)
                    calls = rng.choice(("sigma", "delta", "sigma-delta", "delta-sigma"))
                    for call in calls.split("-"):
                        if call == "sigma":
                            c = rng.choice((counts, None))
                            got = sigma_cd_scratch(dags, X, c, removed=removed)
                            assert got == reference_sigma_cd_scratch(inst.dags, X, counts,
                                                                     removed), (seed, step)
                        else:
                            got = delta_set(dags, X, removed, counts=counts)
                            assert got == reference_delta_set(inst.dags, X, removed,
                                                              counts), (seed, step)
                        if isinstance(dags, ActionDags):
                            _assert_memo_is_bounded(dags, X)
                        else:
                            assert type(dags) is list

    def test_greedy_bil_ignores_the_memo(self):
        # The kernel reads nothing from the memo: greedy on an ActionDags
        # whose memo the from-scratch calls (memoized and reference) filled,
        # or whose kept maps are wrong, picks as on a fresh one.
        _, dags, counts, X, C = _ic_benchmark(1202)
        want = greedy_bil(ActionDags(dags), X, 20, C, counts=counts)
        primed = ActionDags(dags)
        B = want.edges
        for removed in (frozenset(), B, B[:5]):
            assert (sigma_cd_scratch(primed, X, counts, removed=removed)
                    == reference_sigma_cd_scratch(dags, X, counts, removed))
            assert (delta_set(primed, X, removed, counts)
                    == reference_delta_set(dags, X, removed, counts))
        got = greedy_bil(primed, X, 20, C, counts=counts)
        assert (got.edges, got.gain_per_step) == (want.edges, want.gain_per_step)
        memo = primed.target
        assert memo.touched and all(sc is not None for sc in memo.base)
        memo.base = [{} for _ in memo.base]
        memo.touched = dict.fromkeys(memo.touched, {})
        got = greedy_bil(primed, X, 20, C, counts=counts)
        assert (got.edges, got.gain_per_step) == (want.edges, want.gain_per_step)
