"""Shared fixtures: the three-node anchor instance, a seven-node branching
cascade, and a random-instance generator used by oracle and property tests."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from cdlim.graph import ActionLog, SocialGraph, build_all_dags
from reference import with_gamma


@dataclass
class Instance:
    graph: SocialGraph
    log: ActionLog
    dags: list
    X: set
    C: list


# Three nodes 0 -> 1 -> 2 plus the shortcut 0 -> 2, one action performed by
# all three in id order, explicit credits, target {0}. Every hand-checked
# anchor value in the tests refers to this instance.
F1_GAMMA = {(0, 1): 0.5, (1, 2): 0.4, (0, 2): 0.3}


def make_f1() -> Instance:
    graph = SocialGraph(3, list(F1_GAMMA))
    log = ActionLog([(0, 0, 1), (1, 0, 2), (2, 0, 3)])
    dags = [with_gamma(d, dict(F1_GAMMA)) for d in build_all_dags(graph, log)]
    return Instance(graph, log, dags, {0}, sorted(F1_GAMMA))


@pytest.fixture
def f1() -> Instance:
    return make_f1()


# Seven-node branching cascade: two sources (1, 2) fan out through an
# intermediate layer (3, 4) and a chain (3 -> 5) into a shared sink 6; node 0
# is an isolated performer. Used for multi-path regression anchors.
BRANCH7_GAMMA = {(2, 3): 0.2, (2, 4): 0.5, (1, 4): 0.5, (3, 5): 1.0,
                 (5, 6): 0.3, (4, 6): 0.2, (3, 6): 0.2, (2, 6): 0.2}
BRANCH7_TIMES = {0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 6: 4}


def make_branch7(X) -> Instance:
    graph = SocialGraph(7, list(BRANCH7_GAMMA))
    log = ActionLog([(u, 0, t) for u, t in BRANCH7_TIMES.items()])
    dags = [with_gamma(d, dict(BRANCH7_GAMMA)) for d in build_all_dags(graph, log)]
    return Instance(graph, log, dags, set(X), sorted(BRANCH7_GAMMA))


def random_instance(rng, max_nodes=8, max_actions=3, min_nodes=3) -> Instance:
    """Random social graph, action log, and credit-assigned DAGs.

    Credits are drawn uniformly and scaled by the head's in-degree so the
    incoming credit at every node stays at most 1. Targets are sampled from
    the active users, and the candidate set is every realized DAG edge.
    """
    while True:
        n = rng.randint(min_nodes, max_nodes)
        edges = [(u, v) for u in range(n) for v in range(n)
                 if u != v and rng.random() < 0.35]
        if not edges:
            continue
        graph = SocialGraph(n, edges)
        tuples = []
        for a in range(rng.randint(1, max_actions)):
            users = [u for u in range(n) if rng.random() < 0.8] or [rng.randrange(n)]
            for u in users:
                tuples.append((u, a, rng.randint(0, 5)))
        log = ActionLog(tuples)
        dags = []
        for dag in build_all_dags(graph, log):
            gamma = {e: rng.uniform(0.05, 1.0) / len(dag.in_edges[e[1]]) for e in dag.gamma}
            dags.append(with_gamma(dag, gamma))
        C = sorted({e for d in dags for e in d.gamma})
        if not C:
            continue
        active = sorted({u for d in dags for u in d.nodes})
        X = set(rng.sample(active, rng.randint(1, max(1, len(active) // 3))))
        return Instance(graph, log, dags, X, C)
