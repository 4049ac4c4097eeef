"""Matroid-constrained influence limitation: multilinear extension and
continuous greedy over the per-node partition matroid."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .credit import _edge_deltas, counts_from_dags, delta_set, sigma_cd_scratch

EXACT_GUARD = 20
CURVATURE_GUARD = 15


@dataclass
class CGConfig:
    tau: int = 100
    s: int = 20
    seed: int | None = None

    def __post_init__(self):
        if self.tau < 1 or self.s < 1:
            raise ValueError("tau and s must be >= 1")


@dataclass
class FractionalSolution:
    """Membership probabilities over the candidate edges."""

    y: dict[tuple[int, int], float]

    @property
    def per_node_load(self) -> dict[int, float]:
        load: dict[int, float] = {}
        for (_, v), yi in self.y.items():
            load[v] = load.get(v, 0.0) + yi
        return load

    def check(self, b: int, tol: float = 1e-9) -> None:
        for e, yi in self.y.items():
            if not -tol <= yi <= 1.0 + tol:
                raise ValueError(f"y[{e}]={yi} outside [0, 1]")
        for v, load in self.per_node_load.items():
            if load > b + tol:
                raise ValueError(f"node {v} load {load} exceeds bound {b}")


def multilinear_exact(dags, X, C, y, counts=None) -> float:
    """Expected influence drop under independent inclusion, by enumeration."""
    C = sorted(C)
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


def sample_set(C, y, rng) -> frozenset:
    return frozenset(e for e in C if rng.random() < y[e])


def multilinear_sample(dags, X, C, y, s, rng, counts=None) -> float:
    """Monte-Carlo estimate of the multilinear extension: mean of s draws."""
    if s < 1:
        raise ValueError("s must be >= 1")
    C = sorted(C)
    if counts is None:
        counts = counts_from_dags(dags)
    acc = 0.0
    for _ in range(s):
        acc += delta_set(dags, X, sample_set(C, y, rng), counts=counts)
    return acc / s


def _marginals_given(dags, X, C, counts, removed, cache=None):
    """Single-edge deltas of every surviving candidate on the modified DAGs,
    summed over the actions in DAG order.

    ``removed`` is a set. ``cache`` maps a DAG's position in ``dags`` to its
    deltas with no edge removed, filled on first use; it must only be
    shared by calls on the same DAGs, targets and counts. An action holding
    none of the removed edges reads its cached deltas, which are exactly
    the ones the removal would give, so only the actions containing a
    removed edge are recomputed.
    """
    if cache is None:
        cache = {}
    out = dict.fromkeys(C, 0.0)
    for i, dag in enumerate(dags):
        if not dag.gamma:
            continue
        if removed.isdisjoint(dag.gamma):
            deltas = cache.get(i)
            if deltas is None:
                deltas = cache[i] = _edge_deltas(dag, X, counts, frozenset())
        else:
            deltas = _edge_deltas(dag, X, counts, removed)
        for e, delta in deltas.items():
            if e in out:
                out[e] += delta
    return out


def cg_weights(dags, X, C, y, s, rng, counts=None) -> dict:
    """Mean marginal gain of each candidate over s shared samples from y.

    Samples are shared across candidates for variance reduction; negative
    means are clamped to zero (the true expectations are non-negative).
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if counts is None:
        counts = counts_from_dags(dags)
    return _cg_weights(dags, X, sorted(C), y, s, rng, counts, {})


def _cg_weights(dags, X, C, y, s, rng, counts, cache) -> dict:
    """:func:`cg_weights` on sorted ``C``, with the removal-free delta cache
    of :func:`_marginals_given` shared across calls."""
    acc = dict.fromkeys(C, 0.0)
    for _ in range(s):
        B = sample_set(C, y, rng)
        marg = _marginals_given(dags, X, C, counts, B, cache)
        for e in C:
            if e not in B:
                acc[e] += marg[e]
    return {e: max(acc[e] / s, 0.0) for e in C}


def max_weight_independent(weights, b, y=None) -> set:
    """Exact max-weight independent set of the per-head-node partition matroid.

    Groups candidates by head node and keeps the b largest positive weights
    per group (ties by smallest edge). Candidates already at probability 1
    are excluded.
    """
    groups: dict[int, list] = {}
    for e, w in weights.items():
        if w <= 0.0:
            continue
        if y is not None and y.get(e, 0.0) >= 1.0:
            continue
        groups.setdefault(e[1], []).append(e)
    chosen = set()
    for v, edges in groups.items():
        edges.sort(key=lambda e: (-weights[e], e))
        chosen.update(edges[:b])
    return chosen


def continuous_greedy(dags, X, C, b, config: CGConfig, counts=None) -> FractionalSolution:
    """Fractional ascent: tau steps of 1/tau mass along a max-weight
    independent direction, staying inside the matroid polytope."""
    C = sorted(set(C))
    if not C:
        raise ValueError("empty candidate set")
    if b < 1:
        raise ValueError("per-node bound must be >= 1")
    if counts is None:
        counts = counts_from_dags(dags)
    rng = random.Random(config.seed)
    cache: dict[int, dict] = {}
    y = dict.fromkeys(C, 0.0)
    step = 1.0 / config.tau
    for _ in range(config.tau):
        weights = _cg_weights(dags, X, C, y, config.s, rng, counts, cache)
        for e in max_weight_independent(weights, b, y=y):
            y[e] = min(y[e] + step, 1.0)
    return FractionalSolution(y=y)


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
