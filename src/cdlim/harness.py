"""Experiment harness: baselines, the decrease-in-influence metric,
concentration reports, and config-driven benchmark runs."""

from __future__ import annotations

import csv
import logging
import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

from .credit import delta_set, sigma_cd_scratch
from .graph import (ActionDags, SocialGraph, _int_token, _records, build_all_dags,
                    default_candidates, load_action_log, load_gamma_table, load_graph)
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


def sigma_before(dags, X) -> float:
    """Influence of the targets before any removal: the DI denominator."""
    before = sigma_cd_scratch(dags, X)
    if before <= 0.0:
        raise ValueError("no target user performs any action: nothing to limit")
    return before


@dataclass
class Problem:
    """One instance from :func:`load_problem`: the graph, its DAGs (which
    carry the log's counts), the target ids ``X``, the sorted candidates
    ``C`` and ``before``, the targets' influence with nothing removed."""

    graph: SocialGraph
    dags: ActionDags
    X: set
    C: list
    before: float


def parse_targets(raw, graph) -> set:
    """The ids of the labels in ``raw``: a file of labels if it exists,
    else comma-separated labels. Errors name the file or ``--targets``."""
    if os.path.exists(raw):
        where, tokens = raw, [tok for _, _, fields in _records(raw) for tok in fields]
        if not tokens:
            raise ValueError(f"--targets: {raw} holds no target ids")
    else:
        where, tokens = "--targets", raw.split(",")
    try:
        return {graph.id_of(_int_token(tok)) for tok in tokens}
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _parse_candidates(path, graph) -> set:
    """The edges of a file of 'u v' label pairs, each a graph edge."""
    edges = set()
    for lineno, line, parts in _records(path):
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'u v', got {line!r}")
        try:
            u, v = (_int_token(tok) for tok in parts)
            e = (graph.id_of(u), graph.id_of(v))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if not graph.has_edge(*e):
            raise ValueError(f"{path}:{lineno}: edge {u}->{v} is not in the graph")
        edges.add(e)
    return edges


def load_problem(graph_path, actions_path, targets, scheme="uniform", gamma_table=None,
                 candidates=None) -> Problem:
    """Read the graph, the log and any gamma table, then take the target ids
    from ``targets(graph, actionlog)`` before any DAG is built. ``C`` is the
    ``candidates`` file's edges if one is named, else every DAG edge."""
    graph = load_graph(graph_path)
    actionlog = load_action_log(actions_path, graph)
    table = load_gamma_table(gamma_table, graph) if gamma_table else None
    X = targets(graph, actionlog)
    dags = build_all_dags(graph, actionlog, scheme, table=table)
    C = _parse_candidates(candidates, graph) if candidates else default_candidates(dags)
    return Problem(graph, dags, X, sorted(C), sigma_before(dags, X))


def check_k(k: int) -> None:
    """Raise ValueError unless a baseline's k is at least 1."""
    if k < 1:
        raise ValueError(f"k={k} must be at least 1")


def baseline_high_degree(graph: SocialGraph, X, k: int) -> list:
    """Edges from the target set to the highest-degree non-target nodes.

    Reads only the targets' out-edges and one in-degree count over the
    graph. The heads of those edges outside ``X`` are ranked by total
    (in+out) degree, ties by id, and each head's edges follow in target id
    order, cut at k; may return fewer, with a warning.
    """
    check_k(k)
    X = set(X)
    out_nbrs = graph.out_nbrs
    tails = {}
    for x in sorted(X):
        if 0 <= x < graph.n:
            for v in out_nbrs[x]:
                if v not in X:
                    tails.setdefault(v, []).append(x)
    in_degree = Counter(chain.from_iterable(out_nbrs))
    ranked = sorted(tails, key=lambda v: (-(len(out_nbrs[v]) + in_degree[v]), v))
    edges = [(x, v) for v in ranked for x in tails[v]][:k]
    if len(edges) < k:
        log.warning("high-degree baseline found only %d of %d edges", len(edges), k)
    return edges


def baseline_random(C, k: int, rng: random.Random) -> list:
    """Uniform k-subset of the distinct candidates of ``C``."""
    check_k(k)
    C = list(dict.fromkeys(sorted(C)))
    if k > len(C):
        raise ValueError(f"k={k} exceeds |C|={len(C)}")
    return rng.sample(C, k)


def concentration_report(B) -> float:
    """Percentage of removed edges incident to the three busiest head nodes."""
    B = list(B)
    if not B:
        raise ValueError("empty solution set")
    top3 = sum(sorted(Counter(v for _, v in B).values(), reverse=True)[:3])
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
    claim: float | None = None      # the method's own gains summed; None for baselines


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
    """Flat key=value config, one key per line; a key set twice is an error."""
    cfg = {}
    for lineno, line, _ in _records(path):
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in cfg:
            raise ValueError(f"{path}: key {key!r}: set again on line {lineno}")
        cfg[key] = value.strip()
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


def run_method(method: str, problem: Problem, k: int, b, seed) -> ExperimentReport:
    """Run one (method, parameter) cell on ``problem`` and score it by the
    from-scratch influence after its removals against ``problem.before``.

    ``wall_ms`` times the method call and ``eval_ms`` the scoring. The
    greedy and grr cells of one problem share one credit kernel, so only
    the first of them times its build and start heap.
    """
    _check_method(method, b)
    dags, X, C = problem.dags, problem.X, problem.C
    start = time.perf_counter()
    rng = random.Random(seed)
    claim = None
    if method in ("greedy", "grr"):
        sol = greedy_bil(dags, X, k, C, per_node_bound=b if method == "grr" else None)
        B, claim = sol.edges, sol.total_delta
    elif method == "high-degree":
        B = baseline_high_degree(problem.graph, X, k)
    else:
        B = baseline_random(C, k, rng)
    wall_ms = (time.perf_counter() - start) * 1000.0
    start = time.perf_counter()
    after = sigma_cd_scratch(dags, X, removed=frozenset(B))
    eval_ms = (time.perf_counter() - start) * 1000.0
    return ExperimentReport(method=method, k=k, b=b if method == "grr" else None,
                            seed=seed, delta=problem.before - after,
                            di_percent=di_metric(problem.before, after),
                            top3_share=concentration_report(B) if B else 0.0,
                            wall_ms=wall_ms, eval_ms=eval_ms, edges=list(B), claim=claim)


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
    of ``CONFIG_KEYS`` and set once, every method is known, ``grr`` has its
    bound ``b``, ``k``, and ``targets`` when given, list at least one value,
    every value of ``k``, ``b``, ``target_size`` and ``target_pool`` is at
    least 1, ``scheme`` is uniform or learned, and ``target_sampler`` is
    top-actions or uniform. Once :func:`load_problem` has read the inputs,
    and before any cell runs, every ``k`` is checked against |C| for the
    methods that need it: ``greedy`` takes k < |C| and ``random`` k <= |C|;
    ``grr`` and ``high-degree`` may return fewer edges. With ``verify``
    set, each cell's reported delta and the method's own claim are checked
    against :func:`delta_set` on a plain list of the DAGs, which keeps no
    maps between calls and so recomputes every SC map it reads; a
    difference above ``VERIFY_TOL`` raises.
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
    for key, value in [("k", k) for k in ks] + [("b", b), ("target_size", target_size),
                                                ("target_pool", target_pool)]:
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

    def targets(graph, actionlog):
        if labels is None:
            return pick_targets(actionlog.counts, target_size, random.Random(seed),
                                pool_size=target_pool, sampler=sampler)
        try:
            return {graph.id_of(t) for t in labels}
        except ValueError as exc:
            raise ValueError(f"{config_path}: key 'targets': {exc}") from None

    problem = load_problem(cfg["graph"], cfg["actions"], targets, scheme)
    C = problem.C
    k = max(ks)
    if "greedy" in methods and k >= len(C):
        raise ValueError(f"{config_path}: key 'k': value {k} must be smaller than "
                         f"|C|={len(C)} for method 'greedy'")
    if "random" in methods and k > len(C):
        raise ValueError(f"{config_path}: key 'k': value {k} exceeds |C|={len(C)} "
                         f"for method 'random'")
    reports = []
    for method in methods:
        for k in ks:
            rep = run_method(method, problem, k, b, seed)
            if verify:
                check = delta_set(list(problem.dags), problem.X, rep.edges,
                                  counts=problem.dags.counts)
                for value in (rep.delta, rep.claim):
                    if value is not None and abs(check - value) > VERIFY_TOL:
                        raise ValueError(f"verification mismatch for {method} k={k}: "
                                         f"{value} vs {check}")
            reports.append(rep)
    if out_path is not None:
        write_reports_csv(reports, out_path)
    return reports
