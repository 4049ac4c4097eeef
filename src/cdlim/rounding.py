"""The per-node partition matroid (at most b removed edges into any node):
its bound check, feasibility test and max-weight independent set, the
decomposition of y into independent sets, and randomized and swap rounding.

The matroid is a direct sum of uniform matroids, one per head node, so
swap rounding rounds each head on its own by dependent rounding (Gandhi,
Khuller, Parthasarathy & Srinivasan, JACM 2006). That keeps every marginal
and gives negatively correlated outputs, and as a randomized pipage
rounding it keeps E[f] >= F(y) (Chekuri, Vondrak & Zenklusen, FOCS 2010),
the guarantee of the paper's swap rounding, without decomposing y. Nothing
is kept between calls. :func:`decompose` writes y as a convex combination
of independent sets; only the benchmark's probe calls it."""

from __future__ import annotations

import random
from dataclasses import dataclass

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


def check_trials(trials) -> None:
    """Raise ValueError unless the trial count is at least 1."""
    if trials < 1:
        raise ValueError(f"trials={trials} must be at least 1")


def max_weight_independent(weights, b) -> frozenset:
    """Exact max-weight independent set of the per-head-node partition matroid.

    Keeps, per head node, the b largest positive weights (ties by smallest
    edge), so a weight of 0.0, which continuous greedy gives every edge at
    y_e = 1, is never chosen.
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

    Each trial scans the distinct candidates in descending probability
    (ties by smallest edge) and includes an edge with its probability unless
    that would push its head node past the bound, so a candidate listed
    twice in ``C`` still gets one draw. ``evaluator`` maps an edge set to
    its influence drop; the best feasible trial is returned.
    """
    check_trials(trials)
    check_bound(b)
    order = sorted(set(C), key=lambda e: (-y[e], e))
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


def swap_round(y, C, b, rng) -> frozenset:
    """Round a feasible fractional solution to an independent set by
    dependent rounding inside each head node.

    Each distinct candidate with ``y[e] >= 1 - DECOMP_EPS`` is taken, and
    one with ``y[e] <= DECOMP_EPS`` is not. A head's other edges are swept
    in ascending order with one running fractional value ``a``. Each next
    edge, of value ``c``, pairs with it, and the pair draws once and settles
    one edge: with ``s = a + c``, one of the two goes to 0 if ``s <= 1``,
    else one goes to 1, and the other carries the rest. The head's last
    fractional edge is taken with its leftover value. So Pr[e in output] equals y[e], each head gets
    the floor or the ceiling of its load, never more than ``b`` edges, and
    the draws go head by head in ascending order, one per fractional edge.

    Raises ValueError if a head's load exceeds ``b`` by more than 1e-9.
    """
    check_bound(b)
    heads: dict[int, list] = {}
    for e in set(C):
        if y[e] > DECOMP_EPS:
            heads.setdefault(e[1], []).append(e)
    draw = rng.random
    out = []
    for v in sorted(heads):
        edges = heads[v]
        edges.sort()
        load = 0.0
        taken = 0
        cur = None
        for e in edges:
            c = y[e]
            load += c
            if c >= 1.0 - DECOMP_EPS:
                out.append(e)
                taken += 1
            elif cur is None:
                cur, a = e, c
            else:
                s = a + c
                if s <= 1.0:
                    # One of the pair goes to 0, the other carries s.
                    if draw() * s >= a:
                        cur = e
                    a = s
                else:
                    # One of the pair goes to 1, the other carries s - 1.
                    if draw() * (2.0 - s) < 1.0 - c:
                        out.append(cur)
                        cur = e
                    else:
                        out.append(e)
                    taken += 1
                    a = s - 1.0
        if load > b + 1e-9:
            raise ValueError(f"node {v} load {load} exceeds bound {b}")
        # A load within 1e-9 of b can leave a leftover the bound has no room for.
        if cur is not None and draw() < a and taken < b:
            out.append(cur)
    return frozenset(out)
