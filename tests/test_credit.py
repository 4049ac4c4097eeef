"""Credit stores, influence totals, edge deltas, and the path oracles."""

import random

import pytest

from cdlim.credit import (compute_credit_store, compute_mc, counts_from_dags,
                          delta_set, kappa, oracle_set_credit,
                          oracle_total_credit, sigma_cd, sigma_cd_scratch)
from cdlim.graph import ActionLog, SocialGraph, build_action_dag
from conftest import make_branch7, make_f1, random_instance

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
        bare = build_action_dag(f1.graph, f1.log, 0)  # gammas all zero
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
        dag = build_action_dag(g, log, 0).with_gamma({(0, 1): 0.5})
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
        dag = build_action_dag(g, log, 0).with_gamma({(0, 1): 0.5, (1, 2): 0.5})
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
        dag = build_action_dag(g, log, 0).with_gamma(
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
        dag = build_action_dag(g, log, 0).with_gamma(
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
