"""Social graph, action log, and per-action propagation DAG construction."""

from __future__ import annotations

import logging
import random
from collections import defaultdict
from dataclasses import dataclass, field

log = logging.getLogger(__name__)


class SocialGraph:
    """Immutable directed graph with dense integer node ids 0..n-1.

    Input files may use arbitrary non-negative integer labels; a remapping
    table (``labels``) is kept so results can be reported in the original ids.
    Self-loops and duplicate edges are dropped at construction.
    """

    def __init__(self, n: int, edges, labels=None):
        self.n = n
        out_nbrs = [[] for _ in range(n)]
        in_nbrs = [[] for _ in range(n)]
        seen = set()
        self.dropped_self_loops = 0
        for u, v in edges:
            if u == v:
                self.dropped_self_loops += 1
                continue
            if (u, v) in seen:
                continue
            seen.add((u, v))
            out_nbrs[u].append(v)
            in_nbrs[v].append(u)
        for adj in (out_nbrs, in_nbrs):
            for lst in adj:
                lst.sort()
        self.edges = seen
        self.out_nbrs = out_nbrs
        self.in_nbrs = in_nbrs
        self.labels = list(labels) if labels is not None else list(range(n))
        self._id_of = {lab: i for i, lab in enumerate(self.labels)}

    def id_of(self, label: int) -> int:
        try:
            return self._id_of[label]
        except KeyError:
            raise ValueError(f"unknown node id {label}") from None

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edges

    def degree(self, u: int) -> int:
        return len(self.out_nbrs[u]) + len(self.in_nbrs[u])

    def __repr__(self):
        return f"SocialGraph(n={self.n}, m={len(self.edges)})"


def _int_token(tok, where) -> int:
    """``int(tok)``; a non-integer token is an error naming ``where``."""
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"{where}: non-integer token {tok!r}") from None


def load_graph(path) -> SocialGraph:
    """Read a graph from a text file with one "u v" edge per line.

    Lines starting with '#' are comments. Node labels are arbitrary
    non-negative integers and get remapped to dense ids (sorted label order).
    """
    raw_edges = []
    labels = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer token in {line!r}") from None
            if u < 0 or v < 0:
                raise ValueError(f"{path}:{lineno}: negative node id")
            raw_edges.append((u, v))
            labels.add(u)
            labels.add(v)
    ordered = sorted(labels)
    id_of = {lab: i for i, lab in enumerate(ordered)}
    graph = SocialGraph(len(ordered), [(id_of[u], id_of[v]) for u, v in raw_edges], labels=ordered)
    if graph.dropped_self_loops:
        log.warning("%s: dropped %d self-loop(s)", path, graph.dropped_self_loops)
    return graph


class ActionLog:
    """Set of (user, action, time) tuples grouped by action.

    Duplicate (user, action) pairs keep the earliest time. Timestamps are
    non-negative integers.
    """

    def __init__(self, tuples):
        by_action: dict[int, dict[int, int]] = {}
        for u, a, t in tuples:
            if t < 0:
                raise ValueError(f"negative time {t} for user {u}, action {a}")
            times = by_action.setdefault(a, {})
            if u not in times or t < times[u]:
                times[u] = t
        self.by_action = by_action
        actions_of: dict[int, list[int]] = defaultdict(list)
        for a in sorted(by_action):
            for u in by_action[a]:
                actions_of[u].append(a)
        self.actions_of = dict(actions_of)
        self.counts = {u: len(acts) for u, acts in self.actions_of.items()}

    @property
    def tuples(self):
        return [(u, a, t) for a in sorted(self.by_action) for u, t in sorted(self.by_action[a].items())]

    def actions(self):
        return sorted(self.by_action)

    def __len__(self):
        return sum(len(times) for times in self.by_action.values())


def load_action_log(path, graph: SocialGraph) -> ActionLog:
    """Read an action log, one "user action time" triple per line.

    User ids are graph labels and are remapped to dense graph ids. Unknown
    users and negative times are errors.
    """
    tuples = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'user action time', got {line!r}")
            try:
                u, a, t = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer token in {line!r}") from None
            if u not in graph._id_of:
                raise ValueError(f"{path}:{lineno}: unknown user id {u}")
            if t < 0:
                raise ValueError(f"{path}:{lineno}: negative time {t}")
            tuples.append((graph.id_of(u), a, t))
    return ActionLog(tuples)


@dataclass
class ActionDag:
    """Propagation DAG of a single action.

    ``nodes`` is a valid topological order (sorted by performance time, ties
    by id). ``gamma`` maps each DAG edge to its direct credit; all zeros
    until :func:`assign_direct_credits` runs.
    """

    action: int
    nodes: list[int]
    times: dict[int, int]
    in_nbrs: dict[int, list[int]]
    out_nbrs: dict[int, list[int]]
    gamma: dict[tuple[int, int], float] = field(default_factory=dict)

    @property
    def edges(self):
        return self.gamma.keys()

    def d_in(self, u: int) -> int:
        return len(self.in_nbrs[u])

    def with_gamma(self, gamma: dict[tuple[int, int], float]) -> "ActionDag":
        return ActionDag(self.action, self.nodes, self.times, self.in_nbrs, self.out_nbrs, gamma)


def build_action_dag(graph: SocialGraph, actionlog: ActionLog, action: int) -> ActionDag:
    """Build the propagation DAG of one action.

    An edge (u, v) is included iff it is a social edge, both endpoints
    performed the action, and u performed it strictly before v.
    """
    if action not in actionlog.by_action:
        raise ValueError(f"unknown action id {action}")
    times = actionlog.by_action[action]
    nodes = sorted(times, key=lambda u: (times[u], u))
    in_nbrs = {u: [] for u in nodes}
    out_nbrs = {u: [] for u in nodes}
    gamma = {}
    for u in nodes:
        tu = times[u]
        for v in graph.out_nbrs[u]:
            tv = times.get(v)
            if tv is not None and tu < tv:
                out_nbrs[u].append(v)
                in_nbrs[v].append(u)
                gamma[(u, v)] = 0.0
    return ActionDag(action, nodes, dict(times), in_nbrs, out_nbrs, gamma)


def propagation_counts(graph: SocialGraph, actionlog: ActionLog) -> dict[tuple[int, int], int]:
    """Count, per social edge (v, u), the actions that propagated v -> u."""
    counts: dict[tuple[int, int], int] = defaultdict(int)
    for a, times in actionlog.by_action.items():
        for v in times:
            tv = times[v]
            for u in graph.out_nbrs[v]:
                tu = times.get(u)
                if tu is not None and tv < tu:
                    counts[(v, u)] += 1
    return dict(counts)


def assign_direct_credits(dag: ActionDag, scheme: str = "uniform", *, table=None,
                          actionlog: ActionLog | None = None,
                          prop_counts=None) -> ActionDag:
    """Return a copy of ``dag`` with direct credits filled in.

    Schemes:
      - ``uniform``: gamma_(v,u) = 1 / d_in(u).
      - ``learned``: raw frequency |actions propagated v->u| / |A_v| over the
        whole log, normalized per head node so incoming credit sums to <= 1.
        Needs ``actionlog`` and its ``prop_counts`` (:func:`propagation_counts`).
      - ``explicit``: values copied from ``table`` ({(u, v): gamma}), which
        must cover every DAG edge with values in [0, 1].
    """
    gamma: dict[tuple[int, int], float] = {}
    if scheme == "uniform":
        for (v, u) in dag.edges:
            gamma[(v, u)] = 1.0 / dag.d_in(u)
    elif scheme == "learned":
        if actionlog is None or prop_counts is None:
            raise ValueError("learned scheme needs the action log and its propagation counts")
        raw = {(v, u): prop_counts.get((v, u), 0) / actionlog.counts[v] for (v, u) in dag.edges}
        for u in dag.nodes:
            incoming = [(v, u) for v in dag.in_nbrs[u]]
            total = sum(raw[e] for e in incoming)
            scale = 1.0 / total if total > 1.0 else 1.0
            for e in incoming:
                gamma[e] = raw[e] * scale
    elif scheme == "explicit":
        if table is None:
            raise ValueError("explicit scheme needs a gamma table")
        for e in dag.edges:
            if e not in table:
                raise ValueError(f"gamma table missing edge {e} for action {dag.action}")
            g = table[e]
            if not 0.0 <= g <= 1.0:
                raise ValueError(f"gamma {g} outside [0, 1] for edge {e}")
            gamma[e] = g
    else:
        raise ValueError(f"unknown credit scheme {scheme!r}")
    return dag.with_gamma(gamma)


def build_all_dags(graph: SocialGraph, actionlog: ActionLog, scheme: str = "uniform",
                   table=None) -> list[ActionDag]:
    """Build and credit-assign the DAG of every action in the log."""
    prop_counts = None
    if scheme == "learned":
        prop_counts = propagation_counts(graph, actionlog)
    per_action = None
    if scheme == "explicit" and _is_per_action(table):
        per_action = {}
        for (u, v, a), g in table.items():
            per_action.setdefault(a, {})[(u, v)] = g
    dags = []
    for a in actionlog.actions():
        dag = build_action_dag(graph, actionlog, a)
        tab = table if per_action is None else per_action.get(a, {})
        dags.append(assign_direct_credits(dag, scheme, table=tab, actionlog=actionlog,
                                          prop_counts=prop_counts))
    return dags


def _is_per_action(table) -> bool:
    return bool(table) and len(next(iter(table))) == 3


def load_gamma_table(path, graph: SocialGraph):
    """Read an explicit gamma table: one "u v gamma" line per edge, shared by
    every action, or one "u v action gamma" line per edge and action.

    All lines of a file must use the same form, and every gamma must lie in
    [0, 1]. Errors name the file and line.
    """
    table = {}
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}:{lineno}"
            parts = line.split()
            if len(parts) not in (3, 4):
                raise ValueError(f"{where}: expected 'u v gamma' or 'u v action gamma'")
            if width is not None and len(parts) != width:
                raise ValueError(f"{where}: {len(parts)}-column line in a {width}-column table")
            width = len(parts)
            ids = [_int_token(tok, where) for tok in parts[:-1]]
            for label in ids[:2]:
                if label not in graph._id_of:
                    raise ValueError(f"{where}: unknown node id {label}")
            try:
                g = float(parts[-1])
            except ValueError:
                raise ValueError(f"{where}: non-numeric gamma {parts[-1]!r}") from None
            if not 0.0 <= g <= 1.0:
                raise ValueError(f"{where}: gamma {g} outside [0, 1]")
            table[(graph.id_of(ids[0]), graph.id_of(ids[1]), *ids[2:])] = g
    return table


def generate_ic_actions(graph: SocialGraph, num_actions: int, seeds_per_action: int,
                        edge_prob, seed=None) -> ActionLog:
    """Generate a synthetic action log via independent-cascade simulation.

    Each action samples ``seeds_per_action`` distinct seeds (active at time 0)
    and runs IC rounds: every newly active node u activates each inactive
    out-neighbor v independently with its edge probability; the activation
    time is the round index. ``edge_prob`` is a float or a {(u, v): p} map.
    Deterministic for a fixed ``seed``.
    """
    if seeds_per_action < 1 or seeds_per_action > graph.n:
        raise ValueError(f"seeds_per_action {seeds_per_action} outside [1, {graph.n}]")
    prob = edge_prob if callable(getattr(edge_prob, "get", None)) else None

    def p_of(u, v):
        if prob is not None:
            return prob.get((u, v), 0.0)
        return edge_prob

    if prob is None and not 0.0 <= edge_prob <= 1.0:
        raise ValueError(f"edge probability {edge_prob} outside [0, 1]")
    rng = random.Random(seed)
    tuples = []
    for a in range(num_actions):
        seeds = rng.sample(range(graph.n), seeds_per_action)
        active = {u: 0 for u in seeds}
        frontier = sorted(seeds)
        t = 0
        while frontier:
            t += 1
            new = []
            for u in frontier:
                for v in graph.out_nbrs[u]:
                    if v not in active and rng.random() < p_of(u, v):
                        active[v] = t
                        new.append(v)
            frontier = sorted(new)
        for u, tu in active.items():
            tuples.append((u, a, tu))
    return ActionLog(tuples)


def write_action_log(actionlog: ActionLog, path, labels=None):
    """Write an action log in the "user action time" text format."""
    with open(path, "w", encoding="utf-8") as fh:
        for u, a, t in actionlog.tuples:
            lab = labels[u] if labels is not None else u
            fh.write(f"{lab} {a} {t}\n")
