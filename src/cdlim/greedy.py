"""Budgeted influence limitation: greedy edge removal with incremental updates."""

from __future__ import annotations

import heapq
from dataclasses import dataclass

# compute_mc and remove_edge are re-exported for the benchmark's store probe.
from .credit import _shared_kernel, compute_mc, remove_edge  # noqa: F401
from .graph import default_candidates
from .rounding import check_bound


@dataclass
class Solution:
    """Greedy result: removed edges in pick order with their marginal gains."""

    edges: list[tuple[int, int]]
    gain_per_step: list[float]

    @property
    def total_delta(self) -> float:
        return sum(self.gain_per_step)


def greedy_bil(dags, X, k, C=None, *, counts=None, use_lazy=False,
               per_node_bound=None) -> Solution:
    """Greedy edge removal maximizing the influence drop of the target set.

    Picks, k times, the remaining candidate with the largest marginal
    contribution (ties broken by smallest (u, v) pair) from the kernel of
    :func:`~cdlim.credit._shared_kernel`, shared by every solver run on one
    :class:`~cdlim.graph.ActionDags` and target set. ``C`` is sorted and
    deduplicated in one pass over the sorted list, and the heap starts as
    a copy of the kernel's heap of marginals at gamma
    (:meth:`~cdlim.credit.CreditKernel.start_heap`): the kernel sums those
    marginals when it is built and keeps the heap for the last ``C``, so
    a later greedy run on an equal ``C`` builds neither. A pick is removed by
    scaling its credit to 0.0, which marks stale only the actions holding
    it, and in each only the nodes the removal can reach; a marginal
    repairs only the values it reads. The run borrows the kernel in a
    ``with`` block, whose exit puts its credits back to gamma. The
    kernel keeps no removed set, and needs none: ``C`` is
    deduplicated and a pick is never pushed back onto the heap, so no
    marginal of a removed edge is read. ``per_node_bound`` adds a
    per-head-node feasibility filter (the restricted-greedy ILM baseline).
    ``use_lazy`` changes nothing; it is kept only because the benchmark's
    chain-long workload passes it.

    Lazy evaluation (Minoux 1978; CELF, Leskovec et al. 2007) returns the
    eager scan's picks and gains bit for bit, not just within rounding.
    Every SC and R value is a left-to-right sum of non-negative products
    over a fixed neighbour order, and a removal turns one term into
    c * 0.0, which adds nothing. Round-to-
    nearest addition and multiplication are monotone, so after a removal
    every SC and R value, every term SC[u] * gamma * R[v], and every
    marginal (a sum of such terms over actions in DAG order) is at most its
    previous float value. Every value a marginal reads is repaired from
    current inputs first, in the same order, so it has the bits a whole-DAG
    pass on the current credits would give: a value that no removal could
    reach keeps its old bits, since none of its inputs changed, and any
    other is recomputed. So no value a marginal reads, and no marginal,
    ever rises. A heap key is therefore an upper bound on the current
    marginal, and with ``(-marginal, edge)`` heap order the first popped
    entry whose key equals its current marginal is the largest current
    marginal, ties going to the smallest edge, with the same gain the eager
    scan would report.
    """
    if k < 1:
        raise ValueError(f"budget k={k} must be at least 1")
    if per_node_bound is not None:
        check_bound(per_node_bound)
    if C is None:
        C = default_candidates(dags)
    C = list(dict.fromkeys(sorted(C)))
    if not C:
        raise ValueError("empty candidate set")
    if per_node_bound is None and k >= len(C):
        raise ValueError(f"budget k={k} must be smaller than |C|={len(C)}")

    picked: list[tuple[int, int]] = []
    gains: list[float] = []
    head_load: dict[int, int] = {}
    with _shared_kernel(dags, X, counts) as kernel:
        mc_of = kernel.marginal
        heap = kernel.start_heap(C)
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
            kernel.scale({e: 0.0})
    return Solution(edges=picked, gain_per_step=gains)
