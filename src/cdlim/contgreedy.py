"""Matroid-constrained influence limitation: multilinear extension and
continuous greedy over the per-node partition matroid.

A DAG path uses each edge at most once, so under independent removals
(edge e removed with probability y_e) the expected set credit is the same
SC/R pass run on the credits gamma_e * (1 - y_e). The continuous-greedy
weight of e, E[f(R + e) - f(R)] for R drawn from y, is then exactly
``CreditKernel.marginal(e)`` on a kernel holding those credits: the
exact path (``CGConfig.s=None``, the default) keeps such a kernel and
needs no samples. ``s >= 1`` selects the sampled path, which estimates
each weight as a mean over s shared draws of R. It scores each draw on the
same kernel through the same two calls: ``scale`` sets the credits of R to
0.0, ``marginal`` reads the weights, and ``scale`` sets them back to gamma.
Both paths, and :func:`cg_weights`, take the kernel from
:func:`~cdlim.credit._shared_kernel`, so on one target set they share
greedy's, and each puts back every credit it scaled before it returns.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .credit import _shared_kernel, counts_from_dags, delta_set, sigma_cd_scratch
from .rounding import check_bound, max_weight_independent

EXACT_GUARD = 20
CURVATURE_GUARD = 15


@dataclass
class CGConfig:
    """``tau`` steps; ``s=None`` takes exact weights from the kernel, and
    ``s >= 1`` estimates them from s samples per step drawn with ``seed``.
    The exact path draws nothing, so ``seed`` does not affect it."""

    tau: int = 100
    s: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.tau < 1:
            raise ValueError(f"tau={self.tau} must be at least 1")
        if self.s is not None and self.s < 1:
            raise ValueError(f"s={self.s} must be at least 1")


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


def cg_weights(dags, X, C, y, s, rng, counts=None) -> dict:
    """Mean marginal gain of each candidate over s shared samples from y,
    scored on the kernel of :func:`~cdlim.credit._shared_kernel`, the one
    its target set's solvers share, which the call leaves at gamma.

    Samples are shared across candidates for variance reduction; negative
    means are clamped to zero (the true expectations are non-negative).
    """
    if s < 1:
        raise ValueError(f"s={s} must be at least 1")
    if counts is None:
        counts = counts_from_dags(dags)
    kernel = _shared_kernel(dags, X, counts)
    C = list(dict.fromkeys(sorted(C)))
    return _cg_weights(kernel, C, [e for e in C if e in kernel.edge_actions], y, s, rng)


def _cg_weights(kernel, C, held, y, s, rng) -> dict:
    """:func:`cg_weights` on sorted ``C`` and a kernel shared across calls;
    ``held`` is the part of ``C`` some stored action holds. Per sample B,
    :meth:`CreditKernel.scale` sets the edges of B to credit 0.0 (removes
    them), and back to gamma (exactly, by a factor of 1.0) once the held
    candidates outside B are scored, in a ``finally``, so an exception
    leaves the kernel at gamma too. So the kernel must hold gamma on every
    candidate, as a shared kernel does between solver runs and the sampled
    path of :func:`continuous_greedy` keeps it: nothing else scales them
    while this runs. Any other candidate's marginal is exactly 0.0, so
    skipping it leaves ``acc`` bit-identical."""
    acc = dict.fromkeys(C, 0.0)
    for _ in range(s):
        B = sample_set(C, y, rng)
        kernel.scale(dict.fromkeys(B, 0.0))
        try:
            for e in held:
                if e not in B:
                    acc[e] += kernel.marginal(e)
        finally:
            kernel.scale(dict.fromkeys(B, 1.0))
    return {e: max(acc[e] / s, 0.0) for e in C}


def continuous_greedy(dags, X, C, b, config: CGConfig, counts=None) -> FractionalSolution:
    """Fractional ascent: tau steps of 1/tau mass along a max-weight
    independent direction, staying inside the matroid polytope.

    The kernel comes from :func:`~cdlim.credit._shared_kernel`, so it is
    the one its target set's solvers share, and they must run one at a
    time. On the exact path the
    kernel's credits are gamma * (1 - y) during the run, and a ``finally``
    scales every edge with y > 0 back by 1.0, so the kernel holds gamma
    again on return, normal or by an exception. After each step,
    :meth:`CreditKernel.scale` marks only the actions holding an edge whose
    y moved, and each weight is the kernel's marginal. Only the candidates
    some stored action holds are scored: every other weight is exactly 0.0,
    which ``max_weight_independent`` skips. The
    sampled path keeps the kernel at gamma between samples, and scores each
    sample on the same kernel with the sample's credits set to 0.0 (see
    :func:`_cg_weights`). An edge at y = 1.0 has weight exactly 0.0, so it
    never moves again: each term c * 0.0 * r of its exact marginal is +0.0,
    and ``random() < 1.0`` puts it in every sample, so no sample scores it."""
    C = sorted(set(C))
    if not C:
        raise ValueError("empty candidate set")
    check_bound(b)
    if counts is None:
        counts = counts_from_dags(dags)
    kernel = _shared_kernel(dags, X, counts)
    held = [e for e in C if e in kernel.edge_actions]
    rng = random.Random(config.seed)
    y = dict.fromkeys(C, 0.0)
    step = 1.0 / config.tau
    try:
        for _ in range(config.tau):
            if config.s is None:
                weights = {e: kernel.marginal(e) for e in held}
            else:
                weights = _cg_weights(kernel, C, held, y, config.s, rng)
            moved = max_weight_independent(weights, b)
            for e in moved:
                y[e] = min(y[e] + step, 1.0)
            if config.s is None:
                kernel.scale({e: 1.0 - y[e] for e in moved})
    finally:
        if config.s is None:
            kernel.scale({e: 1.0 for e, ye in y.items() if ye > 0.0})
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
