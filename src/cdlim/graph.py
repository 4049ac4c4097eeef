"""Social graph, action log, and per-action propagation DAG construction.

The action log is streamed from its file into per-action groups.
:func:`build_all_dags` is the one DAG builder: it builds each action's DAG
in one pass and writes its credits into it once. The edge lists are tuples
of ``(u, v)`` edge objects that every DAG of the call shares, one per
social edge, and the learned scheme counts each edge's propagations from
the DAGs that hold it.
"""

from __future__ import annotations

import logging
import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

log = logging.getLogger(__name__)


class SocialGraph:
    """Immutable directed graph with dense integer node ids 0..n-1.

    Input files may use arbitrary non-negative integer labels; a remapping
    table (``labels``, one distinct label per node) is kept so results can be
    reported in the original ids.
    Self-loops and duplicate edges are dropped at construction; each
    self-loop occurrence is counted in ``dropped_self_loops``.

    The out-adjacency lists are the only copy of the edges: there is no
    edge set and no in-adjacency. ``out_nbrs[u]`` is sorted and
    duplicate-free, ``m`` is the edge count, and :meth:`has_edge` is a
    bisect on ``out_nbrs[u]``. The label -> id map behind :meth:`id_of` is
    built on first use; :func:`load_graph` hands over the one it remapped
    with.
    """

    def __init__(self, n: int, edges, labels=None):
        self.n = n
        out_nbrs = [[] for _ in range(n)]
        self.dropped_self_loops = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has a node id outside 0..{n - 1}")
            if u == v:
                self.dropped_self_loops += 1
            else:
                out_nbrs[u].append(v)
        for u, nbrs in enumerate(out_nbrs):
            if len(nbrs) > 1:
                out_nbrs[u] = sorted(set(nbrs))
        self.m = sum(map(len, out_nbrs))
        self.out_nbrs = out_nbrs
        self.labels = list(labels) if labels is not None else list(range(n))
        if len(self.labels) != n:
            raise ValueError(f"{len(self.labels)} labels for {n} nodes")
        # The default labels and the keys of a dict, which load_graph passes,
        # are distinct already; only another iterable pays for the set (about
        # 1 MB on 20k labels).
        distinct = labels is None or isinstance(labels, dict)
        if not distinct and len(set(self.labels)) != n:
            dup = next(lab for lab, c in Counter(self.labels).items() if c > 1)
            raise ValueError(f"label {dup} is given to more than one node")

    @cached_property
    def _id_of(self) -> dict[int, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def id_of(self, label: int) -> int:
        try:
            return self._id_of[label]
        except KeyError:
            raise ValueError(f"unknown node id {label}") from None

    def has_edge(self, u: int, v: int) -> bool:
        if not 0 <= u < self.n:
            return False
        nbrs = self.out_nbrs[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def __repr__(self):
        return f"SocialGraph(n={self.n}, m={self.m})"


def _int_token(tok) -> int:
    """``int(tok)``; a non-integer token is an error the caller prefixes with its place."""
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"non-integer token {tok!r}") from None


def _records(path):
    """Yield ``(lineno, line, fields)`` for each stripped line of a text input
    file that is not blank and does not start with '#'.

    The small formats (config, gamma table, targets, candidates) read through
    this; the graph and the action log read through :func:`_int_rows`."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line and not line.startswith("#"):
                yield lineno, line, line.split()


def _int_rows(path, form, check):
    """Yield the integer fields of the records of ``path``, one flat list per
    block of lines (about 65,536 characters each).

    A record is a line that is not blank and whose first field does not start
    with '#'; it must have as many integer fields as ``form`` has words.
    ``check(values)`` takes a flat list of whole records' values and returns
    None when they are valid, or else a message that, for one record's values,
    names what is wrong with it. The field counts, the ``int`` conversion and
    ``check`` run once per block. A block that fails is read again line by
    line, and the error names the first bad line as :func:`_record_error`
    words it.
    """
    width = len(form.split())
    with open(path, "r", encoding="utf-8") as fh:
        start = 1
        while lines := fh.readlines(1 << 16):
            records = lines
            text = "".join(lines)
            if "#" in text:
                records = [ln for ln in lines if (parts := ln.split()) and parts[0][0] != "#"]
                text = "".join(records)
            # Per-line field lists are counted and dropped one at a time: a
            # block holding thousands of them would start collector passes.
            ok = set(map(len, map(str.split, records))) <= {0, width}
            if ok:
                try:
                    values = list(map(int, text.split()))
                except ValueError:
                    ok = False
            if not ok or (values and check(values) is not None):
                for lineno, line in enumerate(lines, start):
                    error = _record_error(path, lineno, line, form, check)
                    if error is not None:
                        raise ValueError(error)
            start += len(lines)
            yield values


def _record_error(path, lineno, line, form, check):
    """The ``path:lineno:`` message for one line of an :func:`_int_rows`
    file, or None when the line is a valid record, blank or a comment."""
    parts = line.split()
    if not parts or parts[0][0] == "#":
        return None
    line = line.strip()
    if len(parts) != len(form.split()):
        return f"{path}:{lineno}: expected {form!r}, got {line!r}"
    try:
        values = list(map(int, parts))
    except ValueError:
        return f"{path}:{lineno}: non-integer token in {line!r}"
    problem = check(values)
    return None if problem is None else f"{path}:{lineno}: {problem}"


def load_graph(path) -> SocialGraph:
    """Read a graph from a text file with one "u v" edge per line.

    Lines starting with '#' are comments. Node labels are arbitrary
    non-negative integers and get remapped to dense ids (sorted label order).
    """
    def check(values):
        return "negative node id" if min(values) < 0 else None

    flat = []  # u1, v1, u2, v2, ... as read
    for values in _int_rows(path, "u v", check):
        flat += values
    # The sorted label list lives only while the map is built: SocialGraph
    # takes its labels from the map's keys, which keep the sorted order, so
    # the one label list the graph holds is its own.
    id_of = {lab: i for i, lab in enumerate(sorted(set(flat)))}
    ids = list(map(id_of.__getitem__, flat))
    del flat
    pairs = iter(ids)
    graph = SocialGraph(len(id_of), zip(pairs, pairs), labels=id_of)
    graph._id_of = id_of
    if graph.dropped_self_loops:
        log.warning("%s: dropped %d self-loop(s)", path, graph.dropped_self_loops)
    return graph


class ActionLog:
    """Set of (user, action, time) tuples grouped by action.

    Duplicate (user, action) pairs keep the earliest time. Timestamps are
    non-negative integers. ``tuples`` may be a generator, read once. The log
    holds only ``by_action`` (action -> {user: time}) and ``counts``.
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
        self.counts = dict(Counter(u for a in sorted(by_action) for u in by_action[a]))

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
    id_of = graph._id_of

    def check(values):
        users = values[::3]
        if not all(map(id_of.__contains__, users)):
            return f"unknown user id {next(u for u in users if u not in id_of)}"
        t = min(values[2::3])
        return f"negative time {t}" if t < 0 else None

    def tuples():
        for values in _int_rows(path, "user action time", check):
            yield from zip(map(id_of.__getitem__, values[::3]), values[1::3], values[2::3])

    return ActionLog(tuples())


@dataclass
class ActionDag:
    """Propagation DAG of a single action.

    ``nodes`` is a valid topological order (sorted by performance time, ties
    by id). ``in_edges[u]`` is a tuple of the edges (w, u) into u in the
    order their tails come in ``nodes``, and ``out_edges[u]`` a tuple of the
    edges (u, w) out of u by ascending head id; a node without such edges
    holds the empty tuple. An edge is a ``(u, v)`` tuple, and the DAGs of one
    :func:`build_all_dags` call share one tuple object per social edge.
    ``gamma`` maps each DAG edge to its direct credit, keyed by the very
    tuples the edge lists hold, so the credit passes look an edge up in
    ``gamma`` and in a removed set without building a tuple. The credits
    are written into ``gamma`` once, by :func:`build_all_dags`. ``times``
    (user -> performance time) is the action log's own
    ``by_action[action]`` dict, shared and not copied: treat it as
    read-only.
    """

    action: int
    nodes: list[int]
    times: dict[int, int]
    in_edges: dict[int, tuple[tuple[int, int], ...]]
    out_edges: dict[int, tuple[tuple[int, int], ...]]
    gamma: dict[tuple[int, int], float] = field(default_factory=dict)


def _bare_dag(graph: SocialGraph, times: dict[int, int], action: int, shared: dict) -> ActionDag:
    """The DAG of one action with an empty ``gamma``. Each edge is the tuple
    ``shared`` holds for it; an edge not seen before is added there."""
    if len(times) == 1:
        # One performer, so no edge to look for: a cascade that stopped at
        # its seed, which is common.
        nodes = list(times)
        return ActionDag(action, nodes, times, {nodes[0]: ()}, {nodes[0]: ()})
    nodes = sorted(times, key=lambda u: (times[u], u))
    in_lists: dict[int, list[tuple[int, int]]] = {}
    out_edges = {}
    for u in nodes:
        tu = times[u]
        outs = []
        # Times are non-negative, so -1 keeps out a head that did not act.
        for v in graph.out_nbrs[u]:
            if tu < times.get(v, -1):
                e = (u, v)
                e = shared.setdefault(e, e)
                outs.append(e)
                if v in in_lists:
                    in_lists[v].append(e)
                else:
                    in_lists[v] = [e]
        out_edges[u] = tuple(outs)
    in_edges = {u: tuple(in_lists.get(u, ())) for u in nodes}
    return ActionDag(action, nodes, times, in_edges, out_edges)


def _edges_in_order(dag: ActionDag):
    """The DAG's edges by tail in ``nodes`` order, then by head id."""
    return chain.from_iterable(dag.out_edges.values())


def _fill_credits(dag: ActionDag, scheme: str, table, actionlog, prop_counts):
    """Write the direct credits of ``dag``'s edges into ``dag.gamma``, in
    the order of :func:`_edges_in_order` (the learned scheme takes them head
    by head in ``nodes`` order). :func:`build_all_dags` documents the
    schemes."""
    gamma = dag.gamma
    in_edges = dag.in_edges
    if scheme == "uniform":
        for e in _edges_in_order(dag):
            gamma[e] = 1.0 / len(in_edges[e[1]])
    elif scheme == "learned":
        user_counts = actionlog.counts
        for u in dag.nodes:
            incoming = in_edges[u]
            raw = [prop_counts.get(e, 0) / user_counts[e[0]] for e in incoming]
            total = 0.0
            for r in raw:  # left to right: the builtin sum compensates on 3.12+
                total += r
            scale = 1.0 / total if total > 1.0 else 1.0
            for e, r in zip(incoming, raw):
                gamma[e] = r * scale
    elif scheme == "explicit":
        if table is None:
            raise ValueError("explicit scheme needs a gamma table")
        for e in _edges_in_order(dag):
            if e not in table:
                raise ValueError(f"gamma table missing edge {e} for action {dag.action}")
            g = table[e]
            if not 0.0 <= g <= 1.0:
                raise ValueError(f"gamma {g} outside [0, 1] for edge {e}")
            gamma[e] = g
    else:
        raise ValueError(f"unknown credit scheme {scheme!r}")


class ActionDags(tuple):
    """The credit-assigned DAGs of a log, in action order, as an immutable
    tuple.

    ``counts`` is the log's ``counts`` (user -> |A_u|), which
    :func:`build_all_dags` sets and :mod:`cdlim.credit` normalizes credit
    by. ``target`` is the slot where :mod:`cdlim.credit` keeps what it
    computes for the last target set asked about, so the solvers and the
    from-scratch evaluation on one set share it (see
    :func:`cdlim.credit._target_set`). Solvers on one :class:`ActionDags`
    share that state, so they must run one at a time.
    """

    counts = None
    target = None


def build_all_dags(graph: SocialGraph, actionlog: ActionLog, scheme: str = "uniform",
                   table=None) -> ActionDags:
    """Build and credit-assign the DAG of every action in the log; returns
    them as an immutable :class:`ActionDags`, in action order, carrying the
    log's ``counts``.

    An edge (u, v) is in an action's DAG iff it is a social edge, both
    endpoints performed the action, and u performed it strictly before v.
    Each DAG is built once and its credits are written into it. The DAGs
    share one tuple object per edge.

    Schemes:
      - ``uniform``: gamma_(v,u) = 1 / d_in(u), the number of u's DAG
        in-edges.
      - ``learned``: raw frequency |actions propagated v->u| / |A_v| over the
        whole log, normalized per head node so incoming credit sums to <= 1.
        The propagations of an edge are counted from the DAGs that hold it.
      - ``explicit``: values copied from ``table``, which must cover every
        DAG edge with values in [0, 1]: either ``{(u, v): gamma}``, shared
        by every action, or ``{(u, v, action): gamma}``.
    """
    shared: dict[tuple[int, int], tuple[int, int]] = {}
    by_action = actionlog.by_action
    dags = [_bare_dag(graph, by_action[a], a, shared) for a in actionlog.actions()]
    prop_counts = None
    if scheme == "learned":
        prop_counts = Counter(chain.from_iterable(map(_edges_in_order, dags)))
    per_action = None
    if scheme == "explicit" and _is_per_action(table):
        per_action = {}
        for (u, v, a), g in table.items():
            per_action.setdefault(a, {})[(u, v)] = g
    for dag in dags:
        tab = table if per_action is None else per_action.get(dag.action, {})
        _fill_credits(dag, scheme, tab, actionlog, prop_counts)
    dags = ActionDags(dags)
    dags.counts = actionlog.counts
    return dags


def default_candidates(dags) -> set:
    """Edges that appear in at least one action graph."""
    return {e for dag in dags for e in dag.gamma}


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
    for lineno, line, parts in _records(path):
        try:
            if len(parts) not in (3, 4):
                raise ValueError("expected 'u v gamma' or 'u v action gamma'")
            if width is not None and len(parts) != width:
                raise ValueError(f"{len(parts)}-column line in a {width}-column table")
            width = len(parts)
            ids = [_int_token(tok) for tok in parts[:-1]]
            u, v = graph.id_of(ids[0]), graph.id_of(ids[1])
            try:
                g = float(parts[-1])
            except ValueError:
                raise ValueError(f"non-numeric gamma {parts[-1]!r}") from None
            if not 0.0 <= g <= 1.0:
                raise ValueError(f"gamma {g} outside [0, 1]")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        table[(u, v, *ids[2:])] = g
    return table


def check_ic_params(num_actions: int, seeds_per_action: int, edge_prob) -> None:
    """The checks of :func:`generate_ic_actions` that need no graph."""
    if num_actions < 1:
        raise ValueError(f"num_actions {num_actions} must be at least 1")
    if seeds_per_action < 1:
        raise ValueError(f"seeds_per_action {seeds_per_action} must be at least 1")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError(f"edge probability {edge_prob} outside [0, 1]")


def generate_ic_actions(graph: SocialGraph, num_actions: int, seeds_per_action: int,
                        edge_prob, seed=None) -> ActionLog:
    """Generate a synthetic action log via independent-cascade simulation.

    Each of the ``num_actions`` (at least 1) actions samples
    ``seeds_per_action`` distinct seeds (active at time 0) and runs IC
    rounds: every newly active node u activates each inactive out-neighbor
    v independently with probability ``edge_prob``, one float in [0, 1]
    for every edge; the activation time is the round index. Deterministic
    for a fixed ``seed``.
    """
    check_ic_params(num_actions, seeds_per_action, edge_prob)
    if seeds_per_action > graph.n:
        raise ValueError(f"seeds_per_action {seeds_per_action} outside [1, {graph.n}]")
    rng = random.Random(seed)

    def tuples():
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
                        if v not in active and rng.random() < edge_prob:
                            active[v] = t
                            new.append(v)
                frontier = sorted(new)
            for u, tu in active.items():
                yield u, a, tu

    return ActionLog(tuples())  # drains the generator: every draw happens here


def write_action_log(actionlog: ActionLog, path, labels=None):
    """Write an action log in the "user action time" text format."""
    with open(path, "w", encoding="utf-8") as fh:
        for u, a, t in actionlog.tuples:
            lab = labels[u] if labels is not None else u
            fh.write(f"{lab} {a} {t}\n")
