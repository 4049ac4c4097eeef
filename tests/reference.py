"""Slow references that only tests read: the path-enumeration credit
oracles, the whole-DAG R pass and per-edge deltas, kappa and sigma over the
reference store, the multilinear extension by enumeration, total
curvature, the Chernoff overflow slack, and a DAG copy with other credits.

The library's kernel, solvers and from-scratch evaluation are checked
against these; no library code calls them. Every pass walks the DAG's
``in_edges`` and ``out_edges`` lists, whose tuples are the keys of
``dag.gamma``, so it reads an edge's credit and tests it against the
removed set with the DAG's own edge object.
"""

from __future__ import annotations

import itertools
import math

from cdlim.credit import (CreditStore, _influence, _sc_map, counts_from_dags, delta_set,
                          sigma_cd_scratch)
from cdlim.graph import ActionDag
from cdlim.rounding import check_bound

ORACLE_NODE_GUARD = 20
EXACT_GUARD = 20
CURVATURE_GUARD = 15


def with_gamma(dag: ActionDag, gamma: dict[tuple[int, int], float]) -> ActionDag:
    """A copy of ``dag`` that shares its nodes, times and edge lists and
    has the credits ``gamma``."""
    return ActionDag(dag.action, dag.nodes, dag.times, dag.in_edges, dag.out_edges, gamma)


def _r_map(dag: ActionDag, X, counts, removed) -> dict[int, float]:
    """Backward pass: R[v] = 1/|A_v| + sum of gamma(v, w) * R[w] over
    surviving out-edges, with R = 0 on target members.

    R[v] equals the sum of UCX[v][w] / |A_w| over the target-avoiding
    credit row of v, so it is the closed-form delta's head factor.
    """
    r: dict[int, float] = {}
    gamma = dag.gamma
    out_edges = dag.out_edges
    for v in reversed(dag.nodes):
        if v in X:
            continue
        acc = 1.0 / counts[v]
        for e in out_edges[v]:
            rw = r.get(e[1])
            if rw is not None and e not in removed:
                acc += gamma[e] * rw
        r[v] = acc
    return r


def _edge_deltas(dag: ActionDag, X, counts, removed) -> dict[tuple[int, int], float]:
    """Reference influence drop within one action of removing each surviving
    edge alone: SC[u] * gamma * R[v], for the edges whose tail has target credit."""
    sc = _sc_map(dag, X, removed)
    r = _r_map(dag, X, counts, removed)
    return {e: sc[e[0]] * g * r.get(e[1], 0.0)
            for e, g in dag.gamma.items() if e[0] in sc and e not in removed}


def kappa(store: CreditStore, u: int) -> float:
    """Action-normalized credit of the target set at user u."""
    n = store.counts.get(u, 0)
    if n == 0:
        raise ValueError(f"user {u} performs no actions")
    return sum(sc_a.get(u, 0.0) for sc_a in store.sc.values()) / n


def sigma_cd(store: CreditStore) -> float:
    """Total influence of the target set: sum of kappa over active users."""
    return _influence(store.sc.values(), store.counts)


def oracle_set_credit(dag: ActionDag, X, u: int, removed=frozenset()) -> float:
    """Path-enumeration oracle for the set credit of X at u.

    Enumerates every directed path ending at u that starts in X and contains
    no other X member, summing the product of direct credits along each path.
    Exponential; guarded to DAGs of at most 20 nodes.
    """
    if len(dag.nodes) > ORACLE_NODE_GUARD:
        raise ValueError(f"oracle guard exceeded: {len(dag.nodes)} nodes")
    X = frozenset(X)
    if u not in dag.times:
        return 0.0
    if u in X:
        return 1.0
    gamma = dag.gamma
    total = 0.0
    # Backward DFS; stopping at the first X member keeps paths minimal.
    stack = [(u, 1.0)]
    while stack:
        node, prod = stack.pop()
        for e in dag.in_edges[node]:
            if e in removed:
                continue
            w = e[0]
            p = prod * gamma[e]
            if w in X:
                total += p
            else:
                stack.append((w, p))
    return total


def oracle_total_credit(dag: ActionDag, v: int, u: int, removed=frozenset()) -> float:
    """Path-enumeration oracle for the total credit of v at u (all paths)."""
    if len(dag.nodes) > ORACLE_NODE_GUARD:
        raise ValueError(f"oracle guard exceeded: {len(dag.nodes)} nodes")
    if u == v:
        return 1.0 if v in dag.times else 0.0
    if u not in dag.times or v not in dag.times:
        return 0.0
    gamma = dag.gamma
    total = 0.0
    stack = [(u, 1.0)]
    while stack:
        node, prod = stack.pop()
        for e in dag.in_edges[node]:
            if e in removed:
                continue
            w = e[0]
            p = prod * gamma[e]
            if w == v:
                total += p
            else:
                stack.append((w, p))
    return total


def multilinear_exact(dags, X, C, y, counts=None) -> float:
    """Expected influence drop under independent inclusion, by enumeration
    over the distinct candidates of ``C``."""
    C = list(dict.fromkeys(sorted(C)))
    if len(C) > EXACT_GUARD:
        raise ValueError(f"enumeration guard exceeded: |C|={len(C)}")
    if counts is None:
        counts = counts_from_dags(dags)
    total = 0.0
    for mask in itertools.product((False, True), repeat=len(C)):
        prob = 1.0
        B = []
        for e, inc in zip(C, mask):
            yi = y[e]
            if inc:
                prob *= yi
                B.append(e)
            else:
                prob *= 1.0 - yi
        if prob > 0.0:
            total += prob * delta_set(dags, X, B, counts=counts)
    return total


def empirical_total_curvature(dags, X, C, counts=None) -> float:
    """Worst-case decay of marginal gains relative to singleton gains.

    Enumerates all (S, e) pairs with e outside S and positive singleton gain;
    returns 1 - min marginal/singleton ratio, or 0 when no pair qualifies.
    """
    C = sorted(set(C))
    if len(C) > CURVATURE_GUARD:
        raise ValueError(f"curvature guard exceeded: |C|={len(C)}")
    if counts is None:
        counts = counts_from_dags(dags)
    base = sigma_cd_scratch(dags, X, counts)
    value = {frozenset(): 0.0}
    for r in range(1, len(C) + 1):
        for combo in itertools.combinations(C, r):
            B = frozenset(combo)
            value[B] = base - sigma_cd_scratch(dags, X, counts, removed=B)
    ratio = None
    for e in C:
        single = value[frozenset([e])]
        if single <= 0.0:
            continue
        rest = [c for c in C if c != e]
        for r in range(len(rest) + 1):
            for combo in itertools.combinations(rest, r):
                S = frozenset(combo)
                marg = (value[S | {e}] - value[S]) / single
                if ratio is None or marg < ratio:
                    ratio = marg
    return 0.0 if ratio is None else 1.0 - ratio


def chernoff_epsilon(n: int, b: int) -> float:
    """Overflow slack for unconditioned independent rounding: sqrt(6 ln n / b)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    check_bound(b)
    return math.sqrt(6.0 * math.log(n) / b)
