"""Matroid-constrained influence limitation: continuous greedy on the
multilinear extension over the per-node partition matroid, with exact or
sampled weights.

A DAG path uses each edge at most once, so under independent removals
(edge e removed with probability y_e) the expected set credit is the same
SC/R pass run on the credits gamma_e * (1 - y_e). The continuous-greedy
weight of e, E[f(R + e) - f(R)] for R drawn from y, is then exactly
``CreditKernel.marginal(e)`` on a kernel holding those credits: the
exact path (``CGConfig.s=None``, the default and the CLI's only path)
keeps such a kernel and needs no samples. ``s >= 1`` selects the sampled
path, which estimates each weight as a mean over s shared draws of R; it
stays only because the benchmark's ilm-matroid workload and its probe
call it. It scores each draw on the same kernel through the same two
calls: ``scale`` sets the credits of R to 0.0, ``marginal`` reads the
weights, and ``scale`` sets them back to gamma.
Both paths, and :func:`cg_weights`, borrow the kernel of
:func:`~cdlim.credit._shared_kernel` in a ``with`` block, so on one target
set they share greedy's, and the block's exit puts its credits back to gamma.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .credit import _shared_kernel
from .rounding import check_bound, max_weight_independent


@dataclass
class CGConfig:
    """``tau`` steps; ``s=None`` takes exact weights from the kernel, and
    ``s >= 1`` estimates them from s samples per step drawn with ``seed``.
    The exact path draws nothing, so ``seed`` does not affect it; the CLI
    sets only ``tau``."""

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


def sample_set(C, y, rng) -> frozenset:
    return frozenset(e for e in C if rng.random() < y[e])


def cg_weights(dags, X, C, y, s, rng, counts=None) -> dict:
    """Mean marginal gain of each candidate over s shared samples from y,
    on the shared kernel; only the benchmark's ilm-matroid probe calls it.

    Samples are shared across candidates for variance reduction; negative
    means are clamped to zero (the true expectations are non-negative).
    """
    if s < 1:
        raise ValueError(f"s={s} must be at least 1")
    C = list(dict.fromkeys(sorted(C)))
    with _shared_kernel(dags, X, counts) as kernel:
        return _cg_weights(kernel, C, [e for e in C if e in kernel.edge_actions], y, s, rng)


def _cg_weights(kernel, C, held, y, s, rng) -> dict:
    """:func:`cg_weights` on sorted ``C`` and a kernel shared across calls;
    ``held`` is the part of ``C`` some stored action holds. Per sample B,
    :meth:`CreditKernel.scale` sets the edges of B to credit 0.0 (removes
    them), and back to gamma (exactly, by a factor of 1.0) once the held
    candidates outside B are scored; after an exception the caller's
    ``with`` block puts them back. So the kernel must hold gamma on every
    candidate, as a shared kernel does between solver runs and the sampled
    path of :func:`continuous_greedy` keeps it: nothing else scales them
    while this runs. Any other candidate's marginal is exactly 0.0, so
    skipping it leaves ``acc`` bit-identical."""
    acc = dict.fromkeys(C, 0.0)
    for _ in range(s):
        B = sample_set(C, y, rng)
        kernel.scale(dict.fromkeys(B, 0.0))
        for e in held:
            if e not in B:
                acc[e] += kernel.marginal(e)
        kernel.scale(dict.fromkeys(B, 1.0))
    return {e: max(acc[e] / s, 0.0) for e in C}


def continuous_greedy(dags, X, C, b, config: CGConfig, counts=None) -> FractionalSolution:
    """Fractional ascent: tau steps of 1/tau mass along a max-weight
    independent direction, staying inside the matroid polytope.

    It must not run alongside another solver on the same target set, since
    they share one kernel. On the exact path the kernel's credits are
    gamma * (1 - y) during the run. After each step,
    :meth:`CreditKernel.scale` marks only the actions holding an edge whose
    y moved, and each weight is the kernel's marginal. Only the candidates
    some stored action holds are scored: every other weight is exactly 0.0,
    which ``max_weight_independent`` skips. The sampled path keeps the
    kernel at gamma between samples, and scores each sample on the same
    kernel with the sample's credits set to 0.0 (see :func:`_cg_weights`).
    An edge at y = 1.0 has weight exactly 0.0, so it never moves again:
    each term c * 0.0 * r of its exact marginal is +0.0, and
    ``random() < 1.0`` puts it in every sample, so no sample scores it."""
    C = sorted(set(C))
    if not C:
        raise ValueError("empty candidate set")
    check_bound(b)
    rng = random.Random(config.seed)
    y = dict.fromkeys(C, 0.0)
    step = 1.0 / config.tau
    with _shared_kernel(dags, X, counts) as kernel:
        held = [e for e in C if e in kernel.edge_actions]
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
    return FractionalSolution(y=y)

