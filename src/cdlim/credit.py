"""Credit distribution: the SC/R kernel, the reference EP/UC/SC store,
total influence, and edge deltas.

The solvers run on :class:`CreditKernel`, built from two scalar maps per
action: SC, the credit of the target set at each node (a forward pass), and
R, the action-normalized credit a node passes on along target-free paths,
its own share included (a backward pass). Removing edge (u, v) lowers the
influence in action a by SC[u] * gamma * R[v]; the kernel keeps these
per-edge deltas, and after a removal recomputes only the actions containing
the edge, from scratch.

:func:`compute_credit_store` builds the reference store the kernel is
checked against: per action, EP (direct credit of each surviving DAG
edge), UC rows (total credit of a source node for influencing every
reachable node, including the self entry of value 1), UCX rows (the same
along target-free paths) and SC, updated by subtraction in ``greedy``.
Independent path-enumeration oracles check the recursive computations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import ActionDag

# Sparse entries at or below this magnitude are deleted after updates.
PRUNE_EPS = 1e-12


@dataclass
class CreditStore:
    X: frozenset
    counts: dict[int, int]                                  # |A_u|
    actions_of: dict[int, list[int]]
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


def actions_of_from_dags(dags) -> dict[int, list[int]]:
    actions: dict[int, list[int]] = {}
    for dag in dags:
        for u in dag.nodes:
            actions.setdefault(u, []).append(dag.action)
    return actions


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
        for w in dag.in_nbrs[u]:
            c = row.get(w)
            if c is not None and (w, u) not in removed:
                acc += c * gamma[(w, u)]
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
        for w in dag.in_nbrs[u]:
            c = sc.get(w)
            if c is not None and (w, u) not in removed:
                acc += c * gamma[(w, u)]
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
    out_nbrs = dag.out_nbrs
    for v in reversed(dag.nodes):
        if v in X:
            continue
        acc = 1.0 / counts[v]
        for w in out_nbrs[v]:
            rw = r.get(w)
            if rw is not None and (v, w) not in removed:
                acc += gamma[(v, w)] * rw
        r[v] = acc
    return r


def _edge_deltas(dag: ActionDag, X, counts, removed) -> dict[tuple[int, int], float]:
    """Influence drop within one action of removing each surviving edge
    alone: SC[u] * gamma * R[v], for the edges whose tail has target credit."""
    sc = _sc_map(dag, X, removed)
    r = _r_map(dag, X, counts, removed)
    return {e: sc[e[0]] * g * r.get(e[1], 0.0)
            for e, g in dag.gamma.items() if e[0] in sc and e not in removed}


class CreditKernel:
    """Per-action edge deltas from the SC and R passes, for the solvers'
    marginals.

    ``marginal(e)`` is the influence drop of removing ``e`` on top of the
    edges removed so far: its deltas summed over the actions containing it,
    in DAG order. Values are memoized until an action they read is
    recomputed. Edgeless DAGs are skipped: no candidate reads them.
    """

    def __init__(self, dags, X, counts):
        self.X = frozenset(X)
        self.counts = counts
        self.dags = {dag.action: dag for dag in dags if dag.gamma}
        self.removed: set[tuple[int, int]] = set()
        self.edge_actions: dict[tuple[int, int], list[int]] = {}
        for a, dag in self.dags.items():
            for e in dag.gamma:
                self.edge_actions.setdefault(e, []).append(a)
        self.deltas = {a: _edge_deltas(dag, self.X, counts, self.removed)
                       for a, dag in self.dags.items()}
        self._memo: dict[tuple[int, int], float] = {}

    def marginal(self, e) -> float:
        mc = self._memo.get(e)
        if mc is None:
            mc = 0.0
            for a in self.edge_actions.get(e, ()):
                delta = self.deltas[a].get(e)
                if delta is not None:
                    mc += delta
            self._memo[e] = mc
        return mc

    def remove(self, e) -> None:
        """Delete ``e`` and recompute the actions containing it from scratch."""
        if e in self.removed:
            return
        self.removed.add(e)
        for a in self.edge_actions.get(e, ()):
            dag = self.dags[a]
            self.deltas[a] = _edge_deltas(dag, self.X, self.counts, self.removed)
            for edge in dag.gamma:
                self._memo.pop(edge, None)


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
    return CreditStore(X=X, counts=counts, actions_of=actions_of_from_dags(dags),
                       ep=ep, uc=uc, ucx=ucx, sc=sc, edge_actions=edge_actions)


def kappa(store: CreditStore, u: int) -> float:
    """Action-normalized credit of the target set at user u."""
    n = store.counts.get(u, 0)
    if n == 0:
        raise ValueError(f"user {u} performs no actions")
    return sum(store.sc[a].get(u, 0.0) for a in store.actions_of[u]) / n


def sigma_cd(store: CreditStore) -> float:
    """Total influence of the target set: sum of kappa over active users."""
    total = 0.0
    counts = store.counts
    for sc_a in store.sc.values():
        for u, val in sc_a.items():
            total += val / counts[u]
    return total


def sigma_cd_scratch(dags, X, counts=None, removed=frozenset()) -> float:
    """From-scratch total influence on the DAGs with ``removed`` edges absent."""
    X = frozenset(X)
    if counts is None:
        counts = counts_from_dags(dags)
    total = 0.0
    for dag in dags:
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

    Visits, in DAG order, only the DAGs holding an edge of B, and adds each
    one's influence before the removal minus its influence after, both from
    :func:`_sc_map`. Every other DAG contributes exactly zero, because
    ``_sc_map`` consults the removed set only for the DAG's own edges.
    Summing per-DAG differences also avoids subtracting two totals of the
    size of sigma. This is the reference implementation of the objective,
    used by oracles and cross-checks; it never touches the kernel or an
    incremental store.
    """
    X = frozenset(X)
    B = frozenset(B)
    if counts is None:
        counts = counts_from_dags(dags)
    total = 0.0
    for dag in dags:
        if B.isdisjoint(dag.gamma):
            continue
        total += _influence(dag, X, counts, frozenset()) - _influence(dag, X, counts, B)
    return total


def delta_single(store: CreditStore, e) -> float:
    """Influence drop of removing a single edge, via the closed form.

    Sums, per action, (SC[u] * gamma) * sum_w row[v][w] / |A_w|; the w-sum
    includes the head's self entry. The head row is the X-avoiding credit
    row: set credit only travels along minimal paths, so continuations
    through another target member never change SC. The store is not
    modified.
    """
    u, v = e
    counts = store.counts
    total = 0.0
    for a in store.edge_actions.get(e, ()):
        g = store.ep[a].get(e)
        if g is None:
            continue
        sc_u = store.sc[a].get(u, 0.0)
        if sc_u == 0.0:
            continue
        row = store.ucx[a].get(v)
        if row is None:
            raise ValueError(f"credit row for node {v} not materialized (action {a})")
        total += sc_u * g * sum(val / counts[w] for w, val in row.items())
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
        for w in dag.in_nbrs[node]:
            if (w, node) in removed:
                continue
            p = prod * gamma[(w, node)]
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
        for w in dag.in_nbrs[node]:
            if (w, node) in removed:
                continue
            p = prod * gamma[(w, node)]
            if w == v:
                total += p
            else:
                stack.append((w, p))
    return total

