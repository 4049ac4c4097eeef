"""Credit distribution: the SC/R kernel, the reference EP/UC/SC store,
total influence, and edge deltas.

Both solvers run on :class:`CreditKernel`, built from two scalar maps per
action: SC, the credit of the target set at each node (a forward pass), and
R, the action-normalized credit a node passes on along target-free paths,
its own share included (a backward pass). Removing edge (u, v) lowers the
influence in action a by SC[u] * gamma * R[v]; the kernel sums these terms
on demand. It keeps each map only from the action's first target member on,
since no earlier node carries set credit. Each stored action also keeps its
own effective credits ``g``: ``dag.gamma`` restricted to the edges whose
tail comes at or after that first target member, the only ones a pass or a
marginal reads. The kernel's passes read only ``g``, and
:meth:`CreditKernel.scale` is the one call that changes it: a removal sets
``g[e] = 0.0``, exact continuous greedy sets ``g[e] = gamma * (1 - y_e)``,
and a sample of the sampled path sets its edges to 0.0 and, once its
marginals are read, back to gamma. None of these changes repairs anything
at once: each marks the maps of the actions holding the edge stale, SC from
v on and R from u back, and a marginal repairs only the part of a map it
reads. An action with no target member has SC empty, so it adds no
influence and no term: the kernel, :func:`sigma_cd_scratch` and
:func:`delta_set` skip it, and their sums are unchanged to the bit. The
whole-DAG passes :func:`_sc_map`, :func:`_r_map` and :func:`_edge_deltas`
are references for the kernel; no solver calls them.

Everything kept per target set is one :class:`_TargetSet`, from
:func:`_target_set`: ``held``, the DAGs in which a target member takes
part (the one target filter), the from-scratch SC maps and the solvers'
shared kernel. An :class:`ActionDags` keeps the state of the last target
set asked about in its ``target`` slot, and a new target set replaces all
three at once; any other iterable of DAGs gets a new state on each call.
Every solver borrows the shared kernel in one ``with`` block, whose exit
scales each credit off gamma back by 1.0 (gamma * 1.0 is gamma exactly),
so the shared kernel holds gamma between solver runs and its repaired maps
equal a new kernel's bit for bit; :func:`_shared_kernel` replaces a kernel
left off gamma or kept for other ``counts``. Its marginals at gamma then
depend only on the DAGs, the target set and ``counts``: the kernel sums
them once, while it builds its maps, and keeps greedy's start heap over
them, so each greedy run on it starts from a copy
(:meth:`CreditKernel.start_heap`). Solvers on one
:class:`ActionDags` must run one at a time, since they scale one kernel.
The from-scratch evaluation (:func:`sigma_cd_scratch`, :func:`delta_set`)
computes its sums on every call, over the maps it keeps and in the same
order, so each value equals a memo-free computation to the bit; the
kernel never reads them.

Every pass, the oracles included, walks the DAG's ``in_edges`` and
``out_edges`` lists. Their tuples are the keys of ``dag.gamma``, so a pass
reads an edge's credit (and, in the references, tests it against the
removed set) with the DAG's own edge object and builds no tuple.

:func:`compute_credit_store` builds the reference store the kernel is
checked against: per action, EP (direct credit of each surviving DAG
edge), UC rows (total credit of a source node for influencing every
reachable node, including the self entry of value 1), UCX rows (the same
along target-free paths) and SC. Its operations live here too:
:func:`compute_mc`, the closed-form marginal, and :func:`remove_edge`, the
update by subtraction. Independent path-enumeration oracles check the
recursive computations.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .graph import ActionDag, ActionDags

# Sparse entries at or below this magnitude are deleted after updates.
PRUNE_EPS = 1e-12


@dataclass
class CreditStore:
    X: frozenset
    counts: dict[int, int]                                  # |A_u|
    ep: dict[int, dict[tuple[int, int], float]]             # action -> edge -> gamma
    uc: dict[int, dict[int, dict[int, float]]]              # action -> source -> {node: credit}
    ucx: dict[int, dict[int, dict[int, float]]]             # like uc, but paths avoid X
    sc: dict[int, dict[int, float]]                         # action -> {node: credit}
    edge_actions: dict[tuple[int, int], list[int]]          # edge -> actions containing it


def counts_from_dags(dags) -> dict[int, int]:
    counts: dict[int, int] = {}
    for dag in dags:
        for u in dag.nodes:
            counts[u] = counts.get(u, 0) + 1
    return counts


def _credit_row(dag: ActionDag, source: int, X, removed) -> dict[int, float]:
    """Forward DP for one source: credit of ``source`` at every node, along
    paths containing no X member.

    With an empty X this is the all-paths UC row. Set credit flows along
    minimal paths that stop at the first target member, so the credit drop
    caused by an edge removal propagates only through X-free continuations
    (the UCX row). The row is empty when the source itself is in X
    (removing an edge into a target member changes nothing).
    """
    if source in X:
        return {}
    row = {source: 1.0}
    gamma = dag.gamma
    started = False
    for u in dag.nodes:
        if u == source:
            started = True
            continue
        if not started or u in X:
            continue
        acc = 0.0
        for e in dag.in_edges[u]:
            c = row.get(e[0])
            if c is not None and e not in removed:
                acc += c * gamma[e]
        if acc > 0.0:
            row[u] = acc
    return row


def _sc_map(dag: ActionDag, X, removed) -> dict[int, float]:
    """Set-credit DP: base 1 on target members, recursion stops at X."""
    sc: dict[int, float] = {}
    gamma = dag.gamma
    for u in dag.nodes:
        if u in X:
            sc[u] = 1.0
            continue
        acc = 0.0
        for e in dag.in_edges[u]:
            c = sc.get(e[0])
            if c is not None and e not in removed:
                acc += c * gamma[e]
        if acc > 0.0:
            sc[u] = acc
    return sc


def _r_map(dag: ActionDag, X, counts, removed) -> dict[int, float]:
    """Backward pass: R[v] = 1/|A_v| + sum of gamma(v, w) * R[w] over
    surviving out-edges, with R = 0 on target members.

    R[v] equals the sum of UCX[v][w] / |A_w| over the target-avoiding
    credit row of v, so it is the closed-form delta's head factor.
    """
    r: dict[int, float] = {}
    gamma = dag.gamma
    out_edges = dag.out_edges
    for v in reversed(dag.nodes):
        if v in X:
            continue
        acc = 1.0 / counts[v]
        for e in out_edges[v]:
            rw = r.get(e[1])
            if rw is not None and e not in removed:
                acc += gamma[e] * rw
        r[v] = acc
    return r


def _edge_deltas(dag: ActionDag, X, counts, removed) -> dict[tuple[int, int], float]:
    """Reference influence drop within one action of removing each surviving
    edge alone: SC[u] * gamma * R[v], for the edges whose tail has target credit."""
    sc = _sc_map(dag, X, removed)
    r = _r_map(dag, X, counts, removed)
    return {e: sc[e[0]] * g * r.get(e[1], 0.0)
            for e, g in dag.gamma.items() if e[0] in sc and e not in removed}


class CreditKernel:
    """SC and R maps per target-holding action, for the marginals of greedy
    and continuous greedy. :meth:`scale` is the one way to change credits:
    greedy removes each pick by scaling it to 0.0, and continuous greedy
    scales per step on the exact path and per sample on the sampled one.
    The kernel keeps no removed set: a removed edge is one whose credit is
    0.0 in ``g``. It keeps a copy of ``counts``, which :func:`_shared_kernel`
    compares with the caller's; ``off``, the edges whose credit is not
    gamma; ``start``, each stored edge's marginal at gamma, summed while
    ``__init__`` builds the maps; and the last candidate list
    :meth:`start_heap` was asked about, with its heap over ``start``.
    Solvers borrow it as a context manager: on exit, normal or by an
    exception (which propagates), it scales every edge of ``off`` back by
    1.0, in any order, since the marks only move to min/max positions.

    ``marginal(e)`` is the influence drop of removing ``e`` on top of the
    kernel's current credits: SC[u] * g[e] * R[v] summed over the stored
    actions containing it, in DAG order, computed on each call. Only actions
    holding an edge and a target member are stored. In any other action SC
    is empty, so it adds no term to any marginal.

    Each stored action is a list ``[dag, g, sc, r, pos, s, t]``. Let ``f``
    be the position in ``dag.nodes`` of the action's first target member;
    the entry does not keep it, since only ``__init__`` reads it. No node
    before ``f`` has set credit, so SC is computed forward from ``f`` and R
    backward only down to ``f``: a marginal reads R only at the head of an
    edge whose tail has SC, and such a head comes after ``f``. ``g`` is the
    action's own effective-credit dict, over the edges whose tail comes at
    or after ``f``: an earlier tail has no SC, so its edge adds no term to
    any marginal and no pass reads its credit. A removed edge reads 0.0 in
    ``g`` and a scaled edge gamma * keep. The passes read ``g`` alone, so a
    removed edge adds ``c * 0.0`` to a non-negative sum, which leaves it
    unchanged to the bit. ``pos`` maps each node from ``f`` on to its
    position. The marks ``s`` and ``t`` say which parts of the maps are
    current: SC at every position below ``s``, and R at every position
    above ``t``. A new kernel's maps are current throughout (``s`` is the
    node count and ``t`` is ``f - 1``). Each current value is the same sum,
    in the same order, as in :func:`_sc_map` and :func:`_r_map` on the DAG
    with credits ``g``, so a repaired map equals theirs (R on the nodes from
    ``f`` on) bit for bit.

    ``__init__`` adds each stored action's term SC[u] * g[e] * R[v] into
    ``start[e]`` right after that action's passes, for each edge of ``g``
    whose tail has SC. The actions come in the order of
    ``edge_actions[e]`` and the expression is :meth:`marginal`'s, so
    ``start[e]`` has the bits of ``marginal(e)`` on the new kernel. An
    edge missing from ``start`` has marginal 0.0.
    """

    def __init__(self, dags, X, counts):
        self.X = frozenset(X)
        self.counts = dict(counts)
        self.off: set[tuple[int, int]] = set()
        self.start: dict[tuple[int, int], float] = {}
        start = self.start
        self.edge_actions: dict[tuple[int, int], list[list]] = {}
        self._heap: tuple[list, list] | None = None
        for dag in _target_set(dags, self.X).held:
            if dag.gamma:
                nodes = dag.nodes
                f = next(i for i, u in enumerate(nodes) if u in self.X)
                pos = {u: i for i, u in enumerate(nodes[f:], f)}
                g = {e: c for e, c in dag.gamma.items() if e[0] in pos}
                if g:
                    sc, r = {}, {}
                    last = len(nodes) - 1
                    self._sc_pass(dag, g, sc, f, last)
                    self._r_pass(dag, g, r, f, last)
                    entry = [dag, g, sc, r, pos, last + 1, f - 1]
                    for e, ge in g.items():
                        self.edge_actions.setdefault(e, []).append(entry)
                        c = sc.get(e[0])
                        if c is not None:
                            start[e] = start.get(e, 0.0) + c * ge * r.get(e[1], 0.0)

    def __enter__(self) -> CreditKernel:
        return self

    def __exit__(self, *exc) -> None:
        self.scale(dict.fromkeys(self.off, 1.0))

    def marginal(self, e) -> float:
        """The sum of SC[u] * g[e] * R[v] over the stored actions holding
        ``e``: 0.0 once ``e`` is scaled to 0.0, since every term is then
        ``c * 0.0 * r`` with c and r finite. Per action it first repairs what
        the term reads and is stale: SC from ``s`` through u, and, when u has
        set credit, R from ``t`` down to v. Both marks then move past the
        values read; everything beyond them stays stale."""
        u, v = e
        mc = 0.0
        for entry in self.edge_actions.get(e, ()):
            dag, g, sc, r, pos, s, t = entry
            i = pos[u]
            if i >= s:
                self._sc_pass(dag, g, sc, s, i)
                entry[5] = i + 1
            c = sc.get(u)
            if c is not None:
                j = pos[v]
                if j <= t:
                    self._r_pass(dag, g, r, j, t)
                    entry[6] = j - 1
                mc += c * g[e] * r.get(v, 0.0)
        return mc

    def start_heap(self, C) -> list[tuple[float, tuple[int, int]]]:
        """A new heapified list of ``(-marginal(e), e)`` at gamma for each
        edge of the sorted, distinct ``C``, read from ``start``. The first
        call for a ``C`` builds the heap and keeps it with ``C``; a later
        call with an equal ``C`` copies the kept heap, and one with another
        ``C`` replaces it. Every credit must be at gamma (``off`` empty), as
        on a new kernel or a shared one between solver runs."""
        if self.off:
            raise ValueError("start_heap needs every credit at gamma")
        kept = self._heap
        if kept is None or kept[0] != C:
            start = self.start
            heap = [(-start.get(e, 0.0), e) for e in C]
            heapq.heapify(heap)
            kept = self._heap = (list(C), heap)
        return kept[1][:]

    def scale(self, keep) -> None:
        """Set the credit of each edge ``e`` of ``keep`` to gamma * keep[e]
        in every stored action holding it, and mark what that makes stale.
        Greedy passes 0.0 on each pick; exact continuous greedy passes
        keep = 1 - y; a sample of the sampled path passes 0.0 on its edges
        and then 1.0, which puts back gamma exactly. Scaling an edge to the
        factor it already has leaves every credit and, once repaired, every
        map value as it was. No pass runs here. ``off`` gains each edge
        scaled by a factor other than 1.0 before its credits change, and
        loses one scaled by 1.0 only after they are all back, so a scale cut
        short leaves the edge in ``off``.

        Changing the credit of (u, v) can change SC only at v and its
        descendants, which come after v, and R only at u and its ancestors,
        which come before u. So per action ``s`` drops to v's position and
        ``t`` rises to u's, if they are not already past them. An edge into
        a target member changes neither map (the head's SC stays 1, and it
        has no R), so it moves no mark. Nor does an edge out of a target
        member move ``t``: R counts only target-free paths, so no R value
        reads it. Greedy's best picks are often such edges.
        """
        X = self.X
        off = self.off
        for e, k in keep.items():
            if k != 1.0:
                off.add(e)
            u, v = e
            marks = v not in X
            moves_t = marks and u not in X
            for entry in self.edge_actions.get(e, ()):
                entry[1][e] = entry[0].gamma[e] * k
                if marks:
                    pos = entry[4]
                    if pos[v] < entry[5]:
                        entry[5] = pos[v]
                    if moves_t and pos[u] > entry[6]:
                        entry[6] = pos[u]
            if k == 1.0:
                off.discard(e)

    def _sc_pass(self, dag, g, sc, lo, hi) -> None:
        """Recompute SC in place at ``dag.nodes[lo:hi + 1]``, in topological
        order, dropping nodes whose credit falls to zero."""
        X = self.X
        in_edges = dag.in_edges
        for u in dag.nodes[lo:hi + 1]:
            if u in X:
                sc[u] = 1.0
                continue
            acc = 0.0
            for e in in_edges[u]:
                c = sc.get(e[0])
                if c is not None:
                    acc += c * g[e]
            if acc > 0.0:
                sc[u] = acc
            else:
                sc.pop(u, None)

    def _r_pass(self, dag, g, r, lo, hi) -> None:
        """Recompute R in place at ``dag.nodes[lo:hi + 1]``, in reverse
        topological order."""
        X = self.X
        counts = self.counts
        out_edges = dag.out_edges
        for v in reversed(dag.nodes[lo:hi + 1]):
            if v in X:
                continue
            acc = 1.0 / counts[v]
            for e in out_edges[v]:
                rw = r.get(e[1])
                if rw is not None:
                    acc += g[e] * rw
            r[v] = acc


def _shared_kernel(dags, X, counts=None) -> CreditKernel:
    """The :class:`CreditKernel` of ``dags`` for target set ``X`` and
    ``counts`` (by default :func:`counts_from_dags`), at gamma: the
    ``kernel`` of :func:`_target_set`'s state when its copy of ``counts``
    equals ``counts`` and no credit is off gamma; otherwise a new one, which
    the state keeps. Callers borrow it in a ``with`` block, whose exit puts
    back every credit they scaled."""
    if counts is None:
        counts = counts_from_dags(dags)
    state = _target_set(dags, X)
    kernel = state.kernel
    if kernel is None or kernel.off or kernel.counts != counts:
        kernel = state.kernel = CreditKernel(dags, X, counts)
    return kernel


def compute_credit_store(dags, X, counts=None, sources=None,
                         removed=frozenset()) -> CreditStore:
    """Build the EP/UC/SC store for a list of credit-assigned DAGs.

    ``sources`` optionally restricts which UC and UCX rows are materialized;
    it must cover every row later read (the heads of all removable edges).
    No solver passes it: it is kept only because the benchmark's store probe
    does. ``removed`` edges are treated as absent without rebuilding the DAGs.
    """
    X = frozenset(X)
    if counts is None:
        counts = counts_from_dags(dags)
    ep: dict[int, dict[tuple[int, int], float]] = {}
    uc: dict[int, dict[int, dict[int, float]]] = {}
    ucx: dict[int, dict[int, dict[int, float]]] = {}
    sc: dict[int, dict[int, float]] = {}
    edge_actions: dict[tuple[int, int], list[int]] = {}
    for dag in dags:
        a = dag.action
        ep[a] = {e: g for e, g in dag.gamma.items() if e not in removed}
        for e in ep[a]:
            edge_actions.setdefault(e, []).append(a)
        rows: dict[int, dict[int, float]] = {}
        rows_x: dict[int, dict[int, float]] = {}
        row_sources = dag.nodes if sources is None else [u for u in dag.nodes if u in sources]
        for v in row_sources:
            rows[v] = _credit_row(dag, v, frozenset(), removed)
            rows_x[v] = _credit_row(dag, v, X, removed)
        uc[a] = rows
        ucx[a] = rows_x
        sc[a] = _sc_map(dag, X, removed)
    return CreditStore(X=X, counts=counts, ep=ep, uc=uc, ucx=ucx, sc=sc,
                       edge_actions=edge_actions)


def compute_mc(store: CreditStore, e) -> float:
    """Influence drop of removing ``e`` from the current store, via the closed
    form: (SC[u] * gamma) * sum_w UCX[v][w] / |A_w| summed over the actions
    where ``e`` survives. The w-sum includes the head's self entry. The head
    row avoids X because set credit stops at the first target member."""
    u, v = e
    counts = store.counts
    mc = 0.0
    for a in store.edge_actions.get(e, ()):
        g = store.ep[a].get(e)
        if g is None or g <= 0.0:
            continue
        sc_u = store.sc[a].get(u, 0.0)
        if sc_u <= 0.0:
            continue
        row = store.ucx[a].get(v)
        if row is None:
            raise ValueError(f"credit row for node {v} not materialized (action {a})")
        mc_a = sum(val / counts[w] for w, val in row.items())
        mc += sc_u * g * mc_a
    return mc


def _subtract(row: dict[int, float], factor: float, head_row: dict[int, float]) -> None:
    """Lower ``row[w]`` by ``factor * head_row[w]`` for every w of the head
    row, deleting entries that fall to ``PRUNE_EPS`` or below."""
    for w, cred_vw in head_row.items():
        newval = row.get(w, 0.0) - factor * cred_vw
        if newval <= PRUNE_EPS:
            row.pop(w, None)
        else:
            row[w] = newval


def remove_edge(store: CreditStore, e) -> None:
    """Drop ``e``'s EP entries (a repeated removal is a no-op) and subtract
    the credit that flowed through it: every UC and UCX row z with credit at
    the tail loses (row_z[u] * gamma) * row_v[w], and SC loses
    (SC[u] * gamma) * UCX[v][w], at each w reachable from the head. No row
    of the head holds the tail in a DAG, so the head rows read are the
    pre-removal ones."""
    u, v = e
    for a in store.edge_actions.get(e, ()):
        g = store.ep[a].pop(e, None)
        if g is None or g <= 0.0:
            continue
        for rows in (store.uc[a], store.ucx[a]):
            head_row = rows.get(v)
            if not head_row:
                continue
            tail_col = [(z, row[u]) for z, row in rows.items()
                        if row.get(u, 0.0) > 0.0]
            for z, cred_zu in tail_col:
                _subtract(rows[z], cred_zu * g, head_row)
        sc_a = store.sc[a]
        sc_u = sc_a.get(u, 0.0)
        if sc_u > 0.0:
            _subtract(sc_a, sc_u * g, store.ucx[a].get(v, {}))


def kappa(store: CreditStore, u: int) -> float:
    """Action-normalized credit of the target set at user u."""
    n = store.counts.get(u, 0)
    if n == 0:
        raise ValueError(f"user {u} performs no actions")
    return sum(sc_a.get(u, 0.0) for sc_a in store.sc.values()) / n


def sigma_cd(store: CreditStore) -> float:
    """Total influence of the target set: sum of kappa over active users."""
    return _influence(store.sc.values(), store.counts)


class _TargetSet:
    """What is kept for the frozenset ``X``: ``held``, the DAGs with a
    member of ``X`` in ``times``, in DAG order (an action no target
    performed carries no set credit); their from-scratch SC maps; and
    ``kernel``, :func:`_shared_kernel`'s :class:`CreditKernel` (None until built).

    ``base[i]`` is the unremoved :func:`_sc_map` of ``held[i]``, filled on
    first use. ``touched`` maps the position of each holding DAG that holds
    an edge of ``removed``, the last non-empty removed set asked about, to
    its SC map with that set absent; the next removed set replaces both.
    Every other holding DAG's map with ``removed`` absent is its base map,
    because :func:`_sc_map` consults the removed set only for the DAG's own
    edges. So at most one map per holding DAG and one per touched DAG are
    kept. :class:`CreditKernel` never reads them.
    """

    __slots__ = ("X", "held", "base", "removed", "touched", "kernel")

    def __init__(self, dags, X):
        self.X = X
        self.held = tuple(dag for dag in dags if not X.isdisjoint(dag.times))
        self.base = [None] * len(self.held)
        self.removed = frozenset()
        self.touched: dict[int, dict[int, float]] = {}
        self.kernel = None

    def unremoved(self, i) -> dict[int, float]:
        sc = self.base[i]
        if sc is None:
            sc = self.base[i] = _sc_map(self.held[i], self.X, frozenset())
        return sc

    def with_removed(self, removed) -> dict[int, dict[int, float]]:
        """Position -> SC map with ``removed`` absent, in DAG order, for the
        holding DAGs that hold an edge of ``removed``. An empty set touches
        no DAG and leaves the kept maps as they are."""
        B = frozenset(removed)
        if not B:
            return {}
        if B != self.removed:
            self.removed = B
            self.touched = {i: _sc_map(dag, self.X, B) for i, dag in enumerate(self.held)
                            if not B.isdisjoint(dag.gamma)}
        return self.touched


def _target_set(dags, X) -> _TargetSet:
    """The :class:`_TargetSet` of ``dags`` for ``frozenset(X)``: on an
    :class:`ActionDags`, the one kept in ``target`` if it is for the same
    members, else a new one kept there; on any other iterable, a new one.
    Changing a set after passing it does not change a later answer."""
    X = frozenset(X)
    if not isinstance(dags, ActionDags):
        return _TargetSet(dags, X)
    state = dags.target
    if state is None or state.X != X:
        state = dags.target = _TargetSet(dags, X)
    return state


def _influence(maps, counts) -> float:
    """Action-normalized set credit summed over the nodes of the SC maps
    ``maps``, in order, into one running total."""
    total = 0.0
    for sc in maps:
        for u, val in sc.items():
            total += val / counts[u]
    return total


def sigma_cd_scratch(dags, X, counts=None, removed=frozenset()) -> float:
    """From-scratch total influence on the DAGs with ``removed`` edges
    absent, summed over the holding DAGs in DAG order: any other DAG's SC
    map is empty. The SC maps come from :func:`_target_set`'s state,
    which runs :func:`_sc_map` only for a DAG and removed set it has not
    kept; the sum itself is computed on every call, with ``counts``."""
    if counts is None:
        counts = counts_from_dags(dags)
    state = _target_set(dags, X)
    touched = state.with_removed(removed)
    return _influence((touched[i] if i in touched else state.unremoved(i)
                       for i in range(len(state.held))), counts)


def delta_set(dags, X, B, counts=None) -> float:
    """Influence drop of removing edge set B, computed from scratch.

    Visits, in DAG order, only the DAGs holding a target member and an edge
    of B, and adds each one's influence before the removal minus its
    influence after, both from its :func:`_sc_map`. Every other DAG
    contributes exactly zero, because ``_sc_map`` consults the removed set
    only for the DAG's own edges, and is empty in a DAG without a target
    member. Summing per-DAG differences also avoids subtracting two totals
    of the size of sigma. The maps come from the same state as in
    :func:`sigma_cd_scratch`, so a ``delta_set(B)`` after
    ``sigma_cd_scratch(removed=B)`` runs no pass. This is the reference
    implementation of the objective, used by oracles and cross-checks; it
    never touches the kernel or an incremental store.
    """
    if counts is None:
        counts = counts_from_dags(dags)
    state = _target_set(dags, X)
    total = 0.0
    for i, sc in state.with_removed(B).items():
        total += _influence((state.unremoved(i),), counts) - _influence((sc,), counts)
    return total


ORACLE_NODE_GUARD = 20


def oracle_set_credit(dag: ActionDag, X, u: int, removed=frozenset()) -> float:
    """Path-enumeration oracle for the set credit of X at u.

    Enumerates every directed path ending at u that starts in X and contains
    no other X member, summing the product of direct credits along each path.
    Exponential; guarded to DAGs of at most 20 nodes.
    """
    if len(dag.nodes) > ORACLE_NODE_GUARD:
        raise ValueError(f"oracle guard exceeded: {len(dag.nodes)} nodes")
    X = frozenset(X)
    if u not in dag.times:
        return 0.0
    if u in X:
        return 1.0
    gamma = dag.gamma
    total = 0.0
    # Backward DFS; stopping at the first X member keeps paths minimal.
    stack = [(u, 1.0)]
    while stack:
        node, prod = stack.pop()
        for e in dag.in_edges[node]:
            if e in removed:
                continue
            w = e[0]
            p = prod * gamma[e]
            if w in X:
                total += p
            else:
                stack.append((w, p))
    return total


def oracle_total_credit(dag: ActionDag, v: int, u: int, removed=frozenset()) -> float:
    """Path-enumeration oracle for the total credit of v at u (all paths)."""
    if len(dag.nodes) > ORACLE_NODE_GUARD:
        raise ValueError(f"oracle guard exceeded: {len(dag.nodes)} nodes")
    if u == v:
        return 1.0 if v in dag.times else 0.0
    if u not in dag.times or v not in dag.times:
        return 0.0
    gamma = dag.gamma
    total = 0.0
    stack = [(u, 1.0)]
    while stack:
        node, prod = stack.pop()
        for e in dag.in_edges[node]:
            if e in removed:
                continue
            w = e[0]
            p = prod * gamma[e]
            if w == v:
                total += p
            else:
                stack.append((w, p))
    return total

