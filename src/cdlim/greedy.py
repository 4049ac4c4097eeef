"""Budgeted influence limitation: greedy edge removal with incremental updates."""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .credit import PRUNE_EPS, CreditKernel, CreditStore, counts_from_dags


@dataclass
class Solution:
    """Greedy result: removed edges in pick order with their marginal gains."""

    edges: list[tuple[int, int]]
    gain_per_step: list[float]

    @property
    def total_delta(self) -> float:
        return sum(self.gain_per_step)


def compute_mc(store: CreditStore, e) -> float:
    """Marginal contribution of removing ``e`` given the current store.

    For each action where the tail still carries target credit and the edge
    survives, accumulates (SC[u] * gamma) * sum_w UC[v][w] / |A_w|.
    """
    u, v = e
    counts = store.counts
    mc = 0.0
    for a in store.edge_actions.get(e, ()):
        g = store.ep[a].get(e)
        if g is None or g <= 0.0:
            continue
        sc_u = store.sc[a].get(u, 0.0)
        if sc_u <= 0.0:
            continue
        row = store.ucx[a].get(v)
        if row is None:
            raise ValueError(f"credit row for node {v} not materialized (action {a})")
        mc_a = sum(val / counts[w] for w, val in row.items())
        mc += sc_u * g * mc_a
    return mc


def update_uc(store: CreditStore, e) -> None:
    """Subtract the credit flowing through ``e`` from every affected UC row.

    Every maintained row z with credit at the tail loses
    (UC[z][u] * gamma) * UC[v][w] at each node w reachable from the head.
    Pre-removal snapshots of the tail column and head row are used.
    """
    u, v = e
    for a in store.edge_actions.get(e, ()):
        g = store.ep[a].get(e)
        if g is None or g <= 0.0:
            continue
        for rows in (store.uc[a], store.ucx[a]):
            head_row = dict(rows.get(v, ()))
            if not head_row:
                continue
            tail_col = [(z, row[u]) for z, row in rows.items()
                        if row.get(u, 0.0) > 0.0]
            for z, cred_zu in tail_col:
                row_z = rows[z]
                factor = cred_zu * g
                for w, cred_vw in head_row.items():
                    newval = row_z.get(w, 0.0) - factor * cred_vw
                    if newval <= PRUNE_EPS:
                        row_z.pop(w, None)
                    else:
                        row_z[w] = newval


def update_sc(store: CreditStore, e) -> None:
    """Subtract the target credit flowing through ``e`` from SC, then drop ``e``.

    Uses the pre-removal SC at the tail and the pre-removal UC row of the
    head. Clearing the EP entry marks the edge as removed, so a repeated
    removal is a no-op.
    """
    u, v = e
    for a in store.edge_actions.get(e, ()):
        g = store.ep[a].get(e)
        if g is None or g <= 0.0:
            continue
        sc_a = store.sc[a]
        sc_u = sc_a.get(u, 0.0)
        if sc_u > 0.0:
            head_row = dict(store.ucx[a].get(v, ()))
            factor = sc_u * g
            for w, cred_vw in head_row.items():
                newval = sc_a.get(w, 0.0) - factor * cred_vw
                if newval <= PRUNE_EPS:
                    sc_a.pop(w, None)
                else:
                    sc_a[w] = newval
    for a in store.edge_actions.get(e, ()):
        store.ep[a].pop(e, None)


def remove_edge(store: CreditStore, e) -> None:
    """Apply both incremental updates for one edge removal."""
    update_uc(store, e)
    update_sc(store, e)


def greedy_bil(dags, X, k, C=None, *, counts=None, use_lazy=False,
               per_node_bound=None) -> Solution:
    """Greedy edge removal maximizing the influence drop of the target set.

    Picks, k times, the remaining candidate with the largest marginal
    contribution (ties broken by smallest (u, v) pair) from a
    :class:`CreditKernel`, which updates only the actions containing the
    picked edge, and in each only the window of nodes the removal can
    reach. ``per_node_bound`` adds a per-head-node feasibility filter
    (the restricted-greedy ILM baseline). ``use_lazy`` changes nothing; it
    is kept only because the benchmark's chain-long workload passes it.

    Lazy evaluation (Minoux 1978; CELF, Leskovec et al. 2007) returns the
    eager scan's picks and gains bit for bit, not just within rounding.
    Every SC and R value is a left-to-right sum of non-negative products
    over a fixed neighbour order, and a removal drops one term. Round-to-
    nearest addition and multiplication are monotone, so after a removal
    every SC and R value, every term SC[u] * gamma * R[v], and every
    marginal (a sum of such terms over actions in DAG order) is at most its
    previous float value. The kernel recomputes values only inside the
    window of nodes a removal can reach. Every value outside it keeps its
    old bits, which are what a whole-DAG pass would give, since none of its
    inputs changed; so no value, and no marginal, rises there either. A
    heap key is therefore an upper bound on the current marginal, and with
    ``(-marginal, edge)`` heap order the first popped entry whose key
    equals its current marginal is the largest current marginal, ties going
    to the smallest edge, with the same gain the eager scan would report.
    """
    if k < 1:
        raise ValueError(f"budget k={k} must be at least 1")
    if per_node_bound is not None and per_node_bound < 1:
        raise ValueError(f"per-node bound b={per_node_bound} must be at least 1")
    if counts is None:
        counts = counts_from_dags(dags)
    if C is None:
        C = {e for dag in dags for e in dag.gamma}
    C = sorted(set(C))
    if not C:
        raise ValueError("empty candidate set")
    if per_node_bound is None and k >= len(C):
        raise ValueError(f"budget k={k} must be smaller than |C|={len(C)}")

    kernel = CreditKernel(dags, X, counts)
    mc_of = kernel.marginal
    picked: list[tuple[int, int]] = []
    gains: list[float] = []
    head_load: dict[int, int] = {}
    heap = [(-mc_of(e), e) for e in C]
    heapq.heapify(heap)
    while heap and len(picked) < k:
        negmc, e = heapq.heappop(heap)
        if per_node_bound is not None and head_load.get(e[1], 0) >= per_node_bound:
            continue
        mc = mc_of(e)
        if mc != -negmc:
            heapq.heappush(heap, (-mc, e))
            continue
        picked.append(e)
        gains.append(mc)
        head_load[e[1]] = head_load.get(e[1], 0) + 1
        kernel.remove(e)
    return Solution(edges=picked, gain_per_step=gains)
