"""The per-node partition matroid (at most b removed edges into any node):
its bound check, feasibility test and max-weight independent set, the
decomposition of y into independent sets, and randomized and swap rounding.

Repeated swap rounding of one fractional solution decomposes it once: the
last decomposition is kept, keyed by the bound and the above-threshold
entries of ``y`` that :func:`decompose` reads."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

DECOMP_EPS = 1e-9
# Residuals left over when the coefficients run out; up to this size they
# are rounding error of a feasible y, and the set is padded instead.
DECOMP_SLACK = 1e-6


def feasible(B, b: int) -> bool:
    """True iff no node has more than b incoming edges in B."""
    load: dict[int, int] = {}
    for (_, v) in B:
        load[v] = load.get(v, 0) + 1
        if load[v] > b:
            return False
    return True


def check_bound(b) -> None:
    """Raise ValueError unless the per-node bound b is at least 1."""
    if b < 1:
        raise ValueError(f"per-node bound b={b} must be at least 1")


def max_weight_independent(weights, b) -> frozenset:
    """Exact max-weight independent set of the per-head-node partition matroid.

    Keeps, per head node, the b largest positive weights (ties by smallest
    edge), so a weight of 0.0, which continuous greedy gives every edge at
    y_e = 1, is never chosen. A copy of the set could iterate in another
    order, which swap rounding's draws follow, so :func:`decompose` keeps it.
    """
    groups: dict[int, list] = {}
    for e, w in weights.items():
        if w > 0.0:
            groups.setdefault(e[1], []).append(e)
    chosen = []
    for edges in groups.values():
        edges.sort(key=lambda e: (-weights[e], e))
        chosen += edges[:b]
    return frozenset(chosen)


@dataclass
class RoundedSolution:
    edges: list
    delta: float
    trial_deltas: list


def randomized_round(y, C, b, trials, rng, evaluator) -> RoundedSolution:
    """Best-of-``trials`` randomized rounding with a feasibility guard.

    Each trial scans candidates in descending probability (ties by smallest
    edge) and includes an edge with its probability unless that would push
    its head node past the bound. ``evaluator`` maps an edge set to its
    influence drop; the best feasible trial is returned.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_bound(b)
    order = sorted(C, key=lambda e: (-y[e], e))
    trial_seeds = [rng.getrandbits(64) for _ in range(trials)]
    best_B, best_delta = None, None
    trial_deltas = []
    for tseed in trial_seeds:
        trng = random.Random(tseed)
        load: dict[int, int] = {}
        B = []
        for e in order:
            v = e[1]
            if load.get(v, 0) >= b:
                continue
            if trng.random() < y[e]:
                B.append(e)
                load[v] = load.get(v, 0) + 1
        delta = evaluator(B)
        trial_deltas.append(delta)
        if best_delta is None or delta > best_delta:
            best_B, best_delta = B, delta
    return RoundedSolution(edges=best_B, delta=best_delta, trial_deltas=trial_deltas)


def decompose(y, C, b):
    """Write y as a convex combination of independent sets.

    Repeatedly extracts :func:`max_weight_independent` of the residuals
    (all above ``DECOMP_EPS``): per head node, the up-to-b highest. The
    coefficient is capped three ways: by the smallest chosen residual, by
    the remaining mass, and so that no skipped edge's residual exceeds the
    mass left after this step (otherwise that edge could never be covered
    by the remaining coefficients). Pads with the empty set so coefficients
    sum to 1.

    On a feasible y the caps can drive the coefficient to zero while
    residuals of float-rounding size (about 1e-9) remain. The extraction
    then stops if no residual exceeds ``DECOMP_SLACK``, and fails otherwise.
    """
    check_bound(b)
    residual = {e: y[e] for e in C if y[e] > DECOMP_EPS}
    parts = []
    total = 0.0
    while residual:
        chosen = max_weight_independent(residual, b)
        lam = min(residual[e] for e in chosen)
        lam = min(lam, 1.0 - total)
        for e, r in residual.items():
            if e not in chosen:
                lam = min(lam, 1.0 - total - r)
        if lam <= DECOMP_EPS:
            if max(residual.values()) <= DECOMP_SLACK:
                break
            raise ValueError("decomposition failure: residual mass exceeds 1 (infeasible y)")
        parts.append((chosen, lam))
        total += lam
        for e in chosen:
            r = residual[e] - lam
            if r > DECOMP_EPS:
                residual[e] = r
            else:
                del residual[e]
    if total < 1.0 - DECOMP_EPS:
        parts.append((frozenset(), 1.0 - total))
    return parts


@lru_cache(maxsize=1)
def _decomposition(b, entries):
    """:func:`decompose` of the ``(edge, y)`` pairs in ``entries``."""
    return tuple(decompose(dict(entries), [e for e, _ in entries], b))


def _merge(I, lam_i, J, lam_j, rng):
    """Probabilistically merge two independent sets, partition by partition."""
    groups: dict[int, tuple[set, set]] = {}
    get = groups.get
    for e in I:
        g = get(e[1])
        if g is None:
            groups[e[1]] = ({e}, set())
        else:
            g[0].add(e)
    for e in J:
        g = get(e[1])
        if g is None:
            groups[e[1]] = (set(), {e})
        else:
            g[1].add(e)
    merged = set()
    p_keep_i = lam_i / (lam_i + lam_j)
    draw = rng.random
    for a, bset in groups.values():
        while a != bset:
            only_a = a - bset
            only_b = bset - a
            i = min(only_a) if only_a else None
            j = min(only_b) if only_b else None
            if draw() < p_keep_i:
                # adopt I's choice for this pair
                if i is not None:
                    bset.add(i)
                if j is not None:
                    bset.discard(j)
            else:
                if j is not None:
                    a.add(j)
                if i is not None:
                    a.discard(i)
        merged.update(a)
    return merged


def swap_round(y, C, b, rng) -> frozenset:
    """Round a feasible fractional solution to an independent set.

    Decomposes y into a convex combination of independent sets, then folds
    the sets pairwise with probabilistic element swaps per head-node
    partition. Marginals are preserved: Pr[e in output] equals y[e]. The
    output is always feasible. The decomposition is reused while ``b`` and
    the entries of ``y`` above ``DECOMP_EPS`` stay the same.
    """
    parts = _decomposition(b, tuple((e, y[e]) for e in C if y[e] > DECOMP_EPS))
    cur, lam = parts[0]
    cur = set(cur)
    for nxt, lam_n in parts[1:]:
        cur = _merge(cur, lam, set(nxt), lam_n, rng)
        lam += lam_n
    return frozenset(cur)


def chernoff_epsilon(n: int, b: int) -> float:
    """Overflow slack for unconditioned independent rounding: sqrt(6 ln n / b)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    check_bound(b)
    return math.sqrt(6.0 * math.log(n) / b)
