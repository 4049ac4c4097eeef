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
marginal reads. The kernel's passes read only ``g``: a removal sets
``g[e] = 0.0``, exact continuous greedy sets ``g[e] = gamma * (1 - y_e)``,
and a sample of the sampled path sets its edges to 0.0 and, once its
marginals are read, back to gamma. None of these changes repairs anything
at once: each marks the maps of the actions holding the edge stale, SC from
v on and R from u back, and a marginal repairs only the part of a map it
reads. An action with no target member has SC empty, so it adds no
influence and no term: the kernel, :func:`sigma_cd_scratch` and
:func:`delta_set` skip it, and their sums are unchanged to the bit. The
target filter lives in one place, :meth:`ActionDags.holding`, which all
three call through :func:`_holding`; on the :class:`ActionDags` that
``build_all_dags`` returns it scans the DAGs once per target set. The
whole-DAG passes :func:`_sc_map`, :func:`_r_map` and :func:`_edge_deltas`
are references for the kernel; no solver calls them.

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


def _holding(dags, X) -> tuple[ActionDag, ...]:
    """The DAGs with a target member, in DAG order, by
    :meth:`ActionDags.holding`; any other iterable of DAGs is wrapped first,
    which costs the scan the memo saves."""
    if not isinstance(dags, ActionDags):
        dags = ActionDags(dags)
    return dags.holding(X)


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
    (:meth:`remove` per pick) and continuous greedy (:meth:`scale` per step
    on the exact path, and per sample on the sampled one).

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
    """

    def __init__(self, dags, X, counts):
        self.X = frozenset(X)
        self.counts = counts
        self.removed: set[tuple[int, int]] = set()
        self.edge_actions: dict[tuple[int, int], list[list]] = {}
        for dag in _holding(dags, self.X):
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
                    for e in g:
                        self.edge_actions.setdefault(e, []).append(entry)

    def marginal(self, e) -> float:
        """The sum of SC[u] * g[e] * R[v] over the stored actions holding
        ``e`` (0.0 once ``e`` is removed). Per action it first repairs what
        the term reads and is stale: SC from ``s`` through u, and, when u has
        set credit, R from ``t`` down to v. Both marks then move past the
        values read; everything beyond them stays stale."""
        if e in self.removed:
            return 0.0
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

    def remove(self, e) -> None:
        """Delete ``e``: its credit becomes 0.0 in every stored action holding
        it, by :meth:`scale`. A repeated removal is a no-op."""
        if e in self.removed:
            return
        self.removed.add(e)
        self.scale({e: 0.0})

    def scale(self, keep) -> None:
        """Set the credit of each edge ``e`` of ``keep`` to gamma * keep[e]
        in every stored action holding it, and mark what that makes stale.
        Exact continuous greedy passes keep = 1 - y; a sample of the sampled
        path passes 0.0 on its edges and then 1.0, which puts back gamma
        exactly. No pass runs here.

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
        for e, k in keep.items():
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
    total = 0.0
    counts = store.counts
    for sc_a in store.sc.values():
        for u, val in sc_a.items():
            total += val / counts[u]
    return total


def sigma_cd_scratch(dags, X, counts=None, removed=frozenset()) -> float:
    """From-scratch total influence on the DAGs with ``removed`` edges absent,
    over the DAGs :func:`_holding` gives: any other DAG's SC map is empty."""
    X = frozenset(X)
    if counts is None:
        counts = counts_from_dags(dags)
    total = 0.0
    for dag in _holding(dags, X):
        for u, val in _sc_map(dag, X, removed).items():
            total += val / counts[u]
    return total


def _influence(dag: ActionDag, X, counts, removed) -> float:
    """Action-normalized set credit summed over one DAG's nodes."""
    total = 0.0
    for u, val in _sc_map(dag, X, removed).items():
        total += val / counts[u]
    return total


def delta_set(dags, X, B, counts=None) -> float:
    """Influence drop of removing edge set B, computed from scratch.

    Visits, in DAG order, only the DAGs holding a target member
    (:func:`_holding`) and an edge of B, and adds each one's influence
    before the removal minus its influence after, both from
    :func:`_sc_map`. Every other DAG contributes exactly zero, because
    ``_sc_map`` consults the removed set only for the DAG's own edges, and
    is empty in a DAG without a target member. Summing per-DAG differences
    also avoids subtracting two totals of the size of sigma. This is the reference implementation of the objective,
    used by oracles and cross-checks; it never touches the kernel or an
    incremental store.
    """
    X = frozenset(X)
    B = frozenset(B)
    if counts is None:
        counts = counts_from_dags(dags)
    total = 0.0
    for dag in _holding(dags, X):
        if B.isdisjoint(dag.gamma):
            continue
        total += _influence(dag, X, counts, frozenset()) - _influence(dag, X, counts, B)
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

