"""Experiment harness: baselines, the decrease-in-influence metric,
concentration reports, and config-driven benchmark runs."""

from __future__ import annotations

import csv
import logging
import random
import time
from collections import Counter
from dataclasses import dataclass, field

from .credit import delta_set, sigma_cd_scratch
from .graph import (SocialGraph, _int_token, _records, build_all_dags,
                    default_candidates, load_action_log, load_graph)
from .greedy import greedy_bil

log = logging.getLogger(__name__)

CSV_SCHEMA = "cdlim-results-v2"
CSV_COLUMNS = ["method", "k", "b", "seed", "delta", "di_percent", "top3_share", "wall_ms",
               "eval_ms"]
VERIFY_TOL = 1e-6
METHODS = ("greedy", "grr", "high-degree", "random")
CONFIG_KEYS = ("graph", "actions", "methods", "seed", "targets", "target_size",
               "target_pool", "target_sampler", "k", "b", "scheme")


def di_metric(sigma_before: float, sigma_after: float) -> float:
    """Decrease in influence, in percent."""
    if sigma_before <= 0.0:
        raise ValueError(f"sigma before removal must be positive, got {sigma_before}")
    return (sigma_before - sigma_after) / sigma_before * 100.0


def sigma_before(dags, X, counts) -> float:
    """Influence of the targets before any removal: the DI denominator."""
    before = sigma_cd_scratch(dags, X, counts)
    if before <= 0.0:
        raise ValueError("no target user performs any action: nothing to limit")
    return before


def baseline_high_degree(graph: SocialGraph, X, k: int) -> list:
    """Edges from the target set to the highest-degree non-target nodes.

    Scans nodes by total (in+out) degree, ties by id, collecting existing
    (x, v) edges until k are found; may return fewer, with a warning. The
    graph keeps no in-adjacency, so the in-degrees are counted here.
    """
    if k < 1:
        raise ValueError(f"k={k} must be at least 1")
    X = set(X)
    out_nbrs = graph.out_nbrs
    in_degree = Counter(v for nbrs in out_nbrs for v in nbrs)
    ranked = sorted((v for v in range(graph.n) if v not in X),
                    key=lambda v: (-(len(out_nbrs[v]) + in_degree[v]), v))
    edges = []
    for v in ranked:
        for x in sorted(X):
            if graph.has_edge(x, v):
                edges.append((x, v))
                if len(edges) == k:
                    return edges
    if len(edges) < k:
        log.warning("high-degree baseline found only %d of %d edges", len(edges), k)
    return edges


def baseline_random(C, k: int, rng: random.Random) -> list:
    """Uniform k-subset of the distinct candidates of ``C``."""
    if k < 1:
        raise ValueError(f"k={k} must be at least 1")
    C = list(dict.fromkeys(sorted(C)))
    if k > len(C):
        raise ValueError(f"k={k} exceeds |C|={len(C)}")
    return rng.sample(C, k)


def concentration_report(B) -> float:
    """Percentage of removed edges incident to the three busiest head nodes."""
    B = list(B)
    if not B:
        raise ValueError("empty solution set")
    per_head: dict[int, int] = {}
    for (_, v) in B:
        per_head[v] = per_head.get(v, 0) + 1
    top3 = sum(sorted(per_head.values(), reverse=True)[:3])
    return 100.0 * top3 / len(B)


@dataclass
class ExperimentReport:
    method: str
    k: int
    b: int | None
    seed: int | None
    delta: float
    di_percent: float
    top3_share: float
    wall_ms: float                  # the method call alone
    eval_ms: float = 0.0            # the from-scratch sigma after the removals
    edges: list = field(default_factory=list)


def write_csv(path, header, rows) -> None:
    """Write a results CSV: the schema line, then ``header`` and ``rows``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# schema={CSV_SCHEMA}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_reports_csv(reports, path) -> None:
    write_csv(path, CSV_COLUMNS,
              [[r.method, r.k, "" if r.b is None else r.b, "" if r.seed is None else r.seed,
                f"{r.delta:.9g}", f"{r.di_percent:.6f}", f"{r.top3_share:.3f}",
                f"{r.wall_ms:.1f}", f"{r.eval_ms:.1f}"] for r in reports])


def parse_config(path) -> dict:
    """Flat key=value config; comma-separated values become lists."""
    cfg = {}
    for lineno, line, _ in _records(path):
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


def _int_list(path, cfg, key) -> list[int]:
    """The comma-separated integers of ``key``; errors name file and key."""
    try:
        return [_int_token(tok.strip()) for tok in cfg[key].split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"{path}: key {key!r}: {exc}") from None


def _int_value(path, cfg, key, default):
    """The integer of ``key``, or ``default`` when the key is absent."""
    try:
        return _int_token(cfg[key]) if key in cfg else default
    except ValueError as exc:
        raise ValueError(f"{path}: key {key!r}: {exc}") from None


def _check_method(method: str, b) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "grr" and b is None:
        raise ValueError("method 'grr' needs a per-node bound b")


def run_method(method: str, graph, dags, counts, X, C, k: int, b, seed,
               before: float) -> ExperimentReport:
    """Run one (method, parameter) cell and measure it against sigma_cd.

    ``before`` is the targets' influence with nothing removed, from
    :func:`sigma_before`, computed once for every cell of an experiment.
    ``wall_ms`` times the method call; ``eval_ms`` times the from-scratch
    influence after its removals. The greedy and grr cells of one target
    set run on one shared credit kernel, so only the first of them times
    its build, the start marginals it sums while building and the start
    heap over ``C``; the later cells on that ``C`` copy the kept heap.
    """
    _check_method(method, b)
    start = time.perf_counter()
    rng = random.Random(seed)
    if method == "greedy":
        B = greedy_bil(dags, X, k, C, counts=counts).edges
    elif method == "grr":
        B = greedy_bil(dags, X, k, C, counts=counts, per_node_bound=b).edges
    elif method == "high-degree":
        B = baseline_high_degree(graph, X, k)
    else:
        B = baseline_random(C, k, rng)
    wall_ms = (time.perf_counter() - start) * 1000.0
    start = time.perf_counter()
    after = sigma_cd_scratch(dags, X, counts, removed=frozenset(B))
    eval_ms = (time.perf_counter() - start) * 1000.0
    return ExperimentReport(method=method, k=k, b=b if method == "grr" else None,
                            seed=seed, delta=before - after,
                            di_percent=di_metric(before, after),
                            top3_share=concentration_report(B) if B else 0.0,
                            wall_ms=wall_ms, eval_ms=eval_ms, edges=list(B))


def pick_targets(counts, size: int, rng: random.Random, pool_size: int = 150,
                 sampler: str = "top-actions") -> set:
    """Sample a target set for benchmarks.

    ``top-actions`` draws from the ``pool_size`` most active users;
    ``uniform`` draws from all active users.
    """
    users = sorted(counts)
    if sampler == "top-actions":
        pool = sorted(users, key=lambda u: (-counts[u], u))[:pool_size]
    elif sampler == "uniform":
        pool = users
    else:
        raise ValueError(f"unknown target sampler {sampler!r}")
    return set(rng.sample(pool, min(size, len(pool))))


def run_experiment(config_path, out_path=None, verify=False):
    """Run every (method, k) cell in the config and emit one CSV row each.

    The whole config is checked before any input is read: every key is one
    of ``CONFIG_KEYS``, every method is known, ``grr`` has its bound ``b``,
    ``k``, and ``targets`` when given, list at least one value, every value
    of ``k``, ``b``, ``target_size`` and ``target_pool`` is at least 1,
    ``scheme`` is uniform or learned, and ``target_sampler`` is
    top-actions or uniform.
    Once the candidate set C is built, and before any cell runs, every
    ``k`` is checked against |C| for the methods that need it: ``greedy``
    takes k < |C| and ``random`` k <= |C|; ``grr`` and ``high-degree`` may
    return fewer edges. Raises on verification mismatch: each reported
    delta is cross-checked against a from-scratch recomputation when
    ``verify`` is set.
    """
    cfg = parse_config(config_path)
    for key in cfg:
        if key not in CONFIG_KEYS:
            raise ValueError(f"{config_path}: unknown key {key!r}")
    for key in ("graph", "actions", "methods"):
        if key not in cfg:
            raise ValueError(f"config missing required key {key!r}")
    seed = _int_value(config_path, cfg, "seed", 0)
    labels = _int_list(config_path, cfg, "targets") if "targets" in cfg else None
    if labels == []:
        raise ValueError(f"{config_path}: key 'targets': no values")
    target_size = _int_value(config_path, cfg, "target_size", 10)
    target_pool = _int_value(config_path, cfg, "target_pool", 150)
    ks = _int_list(config_path, cfg, "k") if "k" in cfg else [10]
    b = _int_value(config_path, cfg, "b", None)
    methods = [m.strip() for m in cfg["methods"].split(",")]
    for method in methods:
        if not method:
            raise ValueError(f"{config_path}: key 'methods': empty method name in "
                             f"{cfg['methods']!r}")
        try:
            _check_method(method, b)
        except ValueError as exc:
            raise ValueError(f"{config_path}: key 'methods': {exc}") from None
    if not ks:
        raise ValueError(f"{config_path}: key 'k': no values")
    for k in ks:
        if k < 1:
            raise ValueError(f"{config_path}: key 'k': value {k} is below 1")
    for key, value in (("b", b), ("target_size", target_size), ("target_pool", target_pool)):
        if value is not None and value < 1:
            raise ValueError(f"{config_path}: key {key!r}: value {value} is below 1")
    scheme = cfg.get("scheme", "uniform")
    if scheme == "explicit":
        raise ValueError(f"{config_path}: key 'scheme': credit scheme 'explicit' needs a "
                         "gamma table, which a config cannot name")
    if scheme not in ("uniform", "learned"):
        raise ValueError(f"{config_path}: key 'scheme': unknown credit scheme {scheme!r}")
    sampler = cfg.get("target_sampler", "top-actions")
    if sampler not in ("top-actions", "uniform"):
        raise ValueError(f"{config_path}: key 'target_sampler': unknown target sampler "
                         f"{sampler!r}")
    graph = load_graph(cfg["graph"])
    actionlog = load_action_log(cfg["actions"], graph)
    dags = build_all_dags(graph, actionlog, scheme)
    counts = actionlog.counts
    rng = random.Random(seed)
    if labels is not None:
        try:
            X = {graph.id_of(t) for t in labels}
        except ValueError as exc:
            raise ValueError(f"{config_path}: key 'targets': {exc}") from None
    else:
        X = pick_targets(counts, target_size, rng, pool_size=target_pool, sampler=sampler)
    C = sorted(default_candidates(dags))
    k = max(ks)
    if "greedy" in methods and k >= len(C):
        raise ValueError(f"{config_path}: key 'k': value {k} must be smaller than "
                         f"|C|={len(C)} for method 'greedy'")
    if "random" in methods and k > len(C):
        raise ValueError(f"{config_path}: key 'k': value {k} exceeds |C|={len(C)} "
                         f"for method 'random'")
    before = sigma_before(dags, X, counts)
    reports = []
    for method in methods:
        for k in ks:
            rep = run_method(method, graph, dags, counts, X, C, k, b, seed, before)
            if verify:
                check = delta_set(dags, X, rep.edges, counts=counts)
                if abs(check - rep.delta) > VERIFY_TOL:
                    raise ValueError(f"verification mismatch for {method} k={k}: "
                                     f"{rep.delta} vs {check}")
            reports.append(rep)
    if out_path is not None:
        write_reports_csv(reports, out_path)
    return reports
