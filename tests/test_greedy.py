"""Greedy edge removal: marginal contributions, incremental updates,
dominance pruning, and lazy evaluation."""

import random

import pytest

from cdlim.credit import (compute_credit_store, counts_from_dags, delta_set,
                          sigma_cd, sigma_cd_scratch)
from cdlim.graph import ActionLog, SocialGraph, build_action_dag
from cdlim.greedy import (compute_mc, greedy_bil, prune_dominated,
                          remove_edge, update_sc, update_uc)
from conftest import random_instance

TOL = 1e-9


class TestComputeMC:
    def test_fresh_store(self, f1):
        store = compute_credit_store(f1.dags, f1.X)
        assert abs(compute_mc(store, (0, 1)) - 0.7) < TOL

    def test_after_removal(self, f1):
        store = compute_credit_store(f1.dags, f1.X)
        remove_edge(store, (0, 1))
        assert compute_mc(store, (1, 2)) == 0.0

    def test_absent_edge(self, f1):
        store = compute_credit_store(f1.dags, f1.X)
        assert compute_mc(store, (2, 0)) == 0.0

    def test_matches_delta_difference(self):
        rng = random.Random(21)
        for _ in range(15):
            inst = random_instance(rng)
            counts = counts_from_dags(inst.dags)
            store = compute_credit_store(inst.dags, inst.X, counts=counts)
            removed = set()
            order = rng.sample(inst.C, min(3, len(inst.C)))
            for e in order:
                want = (delta_set(inst.dags, inst.X, removed | {e}, counts=counts)
                        - delta_set(inst.dags, inst.X, removed, counts=counts))
                assert abs(compute_mc(store, e) - want) < TOL
                remove_edge(store, e)
                removed.add(e)


class TestUpdates:
    def test_update_uc_f1(self, f1):
        store = compute_credit_store(f1.dags, f1.X)
        update_uc(store, (0, 1))
        assert 1 not in store.uc[0][0]
        assert abs(store.uc[0][0][2] - 0.3) < TOL

    def test_update_sc_f1(self, f1):
        store = compute_credit_store(f1.dags, f1.X)
        update_sc(store, (0, 1))
        assert 1 not in store.sc[0]
        assert abs(store.sc[0][2] - 0.3) < TOL

    def test_update_sc_shortcut(self, f1):
        store = compute_credit_store(f1.dags, f1.X)
        update_sc(store, (0, 2))
        assert abs(store.sc[0][2] - 0.2) < TOL

    def test_removal_idempotent(self, f1):
        store = compute_credit_store(f1.dags, f1.X)
        remove_edge(store, (0, 1))
        snapshot = sigma_cd(store)
        remove_edge(store, (0, 1))  # EP entry cleared; no-op
        assert sigma_cd(store) == snapshot

    def test_unrelated_edge_keeps_uc(self):
        # two disjoint chains: removing one leaves the other's rows alone
        g = SocialGraph(4, [(0, 1), (2, 3)])
        log = ActionLog([(0, 0, 1), (1, 0, 2), (2, 0, 1), (3, 0, 2)])
        dag = build_action_dag(g, log, 0).with_gamma({(0, 1): 0.5, (2, 3): 0.5})
        store = compute_credit_store([dag], {0})
        before = {v: dict(row) for v, row in store.uc[0].items()}
        remove_edge(store, (2, 3))
        assert store.uc[0][0] == before[0]
        assert store.uc[0][1] == before[1]

    def test_incremental_equals_rebuild(self):
        rng = random.Random(22)
        for _ in range(10):
            inst = random_instance(rng)
            counts = counts_from_dags(inst.dags)
            store = compute_credit_store(inst.dags, inst.X, counts=counts)
            removed = set()
            for e in rng.sample(inst.C, min(3, len(inst.C))):
                remove_edge(store, e)
                removed.add(e)
                fresh = compute_credit_store(inst.dags, inst.X, counts=counts,
                                             removed=removed)
                for a in fresh.sc:
                    for u in set(fresh.sc[a]) | set(store.sc[a]):
                        assert abs(fresh.sc[a].get(u, 0.0)
                                   - store.sc[a].get(u, 0.0)) < TOL
                    for v in fresh.uc[a]:
                        for w in set(fresh.uc[a][v]) | set(store.uc[a][v]):
                            assert abs(fresh.uc[a][v].get(w, 0.0)
                                       - store.uc[a][v].get(w, 0.0)) < TOL


class TestPruning:
    def test_f1_chain_dominated(self, f1):
        kept, pairs = prune_dominated(f1.dags, f1.X, [(0, 1), (1, 2)])
        assert kept == [(0, 1)]
        assert pairs == [((1, 2), (0, 1))]

    def test_single_candidate(self, f1):
        kept, pairs = prune_dominated(f1.dags, f1.X, [(0, 2)])
        assert kept == [(0, 2)] and pairs == []

    def test_parallel_routes_not_dominated(self):
        # two routes from the target to node 2 break the equality
        g = SocialGraph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        log = ActionLog([(0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 0, 4)])
        gamma = {(0, 1): 0.5, (0, 2): 0.3, (1, 2): 0.4, (2, 3): 0.9}
        dag = build_action_dag(g, log, 0).with_gamma(gamma)
        kept, pairs = prune_dominated([dag], {0}, [(0, 2), (2, 3)])
        assert (2, 3) in kept

    def test_pruning_invariance(self):
        rng = random.Random(23)
        for _ in range(15):
            inst = random_instance(rng)
            if len(inst.C) < 3:
                continue
            k = rng.randint(1, min(3, len(inst.C) - 1))
            plain = greedy_bil(inst.dags, inst.X, k)
            pruned = greedy_bil(inst.dags, inst.X, k, use_pruning=True)
            assert abs(plain.total_delta - pruned.total_delta) < TOL

    def test_rejected_with_per_node_bound(self, f1):
        # A dominated edge would stay deferred after its dominator's head
        # fills up, so pruned greedy could return a worse prefix.
        with pytest.raises(ValueError, match="per-node bound"):
            greedy_bil(f1.dags, f1.X, 2, use_pruning=True, per_node_bound=1)


class TestGreedy:
    def test_f1_k1(self, f1):
        sol = greedy_bil(f1.dags, f1.X, 1)
        assert sol.edges == [(0, 1)]
        assert abs(sol.total_delta - 0.7) < TOL

    def test_f1_k2(self, f1):
        sol = greedy_bil(f1.dags, f1.X, 2)
        assert sol.edges == [(0, 1), (0, 2)]
        assert abs(sol.total_delta - 1.0) < TOL

    def test_budget_too_large(self, f1):
        with pytest.raises(ValueError, match="budget"):
            greedy_bil(f1.dags, f1.X, 3)

    def test_empty_candidates(self, f1):
        with pytest.raises(ValueError, match="empty candidate"):
            greedy_bil(f1.dags, f1.X, 1, C=[])

    def test_zero_marginals(self):
        g = SocialGraph(3, [(0, 1), (1, 2)])
        log = ActionLog([(0, 0, 1), (1, 0, 2), (2, 0, 3)])
        dag = build_action_dag(g, log, 0).with_gamma({(0, 1): 0.5, (1, 2): 0.5})
        sol = greedy_bil([dag], {2}, 1)  # nothing downstream of the target
        assert sol.gain_per_step == [0.0]

    def test_gains_non_increasing(self):
        rng = random.Random(24)
        for _ in range(20):
            inst = random_instance(rng)
            if len(inst.C) < 2:
                continue
            k = rng.randint(1, min(4, len(inst.C) - 1))
            sol = greedy_bil(inst.dags, inst.X, k)
            for earlier, later in zip(sol.gain_per_step, sol.gain_per_step[1:]):
                assert later <= earlier + TOL

    def test_total_matches_scratch(self):
        rng = random.Random(25)
        for _ in range(15):
            inst = random_instance(rng)
            if len(inst.C) < 2:
                continue
            k = rng.randint(1, min(4, len(inst.C) - 1))
            sol = greedy_bil(inst.dags, inst.X, k)
            want = delta_set(inst.dags, inst.X, set(sol.edges))
            assert abs(sol.total_delta - want) < TOL

    def test_lazy_matches_eager(self):
        rng = random.Random(26)
        for _ in range(30):
            inst = random_instance(rng)
            if len(inst.C) < 2:
                continue
            k = rng.randint(1, min(4, len(inst.C) - 1))
            eager = greedy_bil(inst.dags, inst.X, k)
            lazy = greedy_bil(inst.dags, inst.X, k, use_lazy=True)
            assert eager.edges == lazy.edges
            for a, b in zip(eager.gain_per_step, lazy.gain_per_step):
                assert abs(a - b) < TOL

    def test_per_node_bound_respected(self):
        rng = random.Random(27)
        for _ in range(15):
            inst = random_instance(rng)
            sol = greedy_bil(inst.dags, inst.X, min(5, len(inst.C)),
                             per_node_bound=1)
            heads = [v for (_, v) in sol.edges]
            assert len(heads) == len(set(heads))

    def test_per_node_bound_allows_full_candidate_budget(self, f1):
        sol = greedy_bil(f1.dags, f1.X, 3, per_node_bound=1)
        assert len(sol.edges) <= 3

    def test_solution_feasible_after_removal(self, f1):
        sol = greedy_bil(f1.dags, f1.X, 2)
        after = sigma_cd_scratch(f1.dags, f1.X, removed=frozenset(sol.edges))
        assert abs((2.0 - after) - sol.total_delta) < TOL
