"""The SC/R credit kernel against the reference store, from-scratch
deltas and SC/R maps and the per-action delta-dict kernel it replaced,
the edge-list passes against the neighbour-id passes they replaced,
greedy_bil against a greedy loop written on the reference, against the
eager scan on the kernel and against the lazy loop on the delta-dict
kernel, the sampled continuous greedy's per-sample marginals (one
``_cg_weights`` sample: ``CreditKernel.scale`` to 0.0 on the sample, the
marginals, and ``scale`` back to 1.0) against a from-scratch sum and the
kernel's state after each sample, several samples that share edges
against from-scratch marginals, its pinned ``y`` on the criterion-12
instance, the exact continuous greedy (the kernel at credits
gamma * (1 - y), updated by ``CreditKernel.scale``) against whole-DAG
passes and against enumeration of the multilinear extension, every
reader of the target-holding DAGs on an ``ActionDags`` against a list,
every solver on the kernel an ``ActionDags`` shares, stopped by an
exception or not, against the same call on a plain list, the kernel after
a ``with`` block that raised against a new kernel, and the start
marginals the kernel sums when built and the start heap it keeps against
``marginal`` and a new kernel's."""

import hashlib
import heapq
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cdlim.contgreedy import CGConfig, _cg_weights, cg_weights, continuous_greedy, sample_set
from cdlim.credit import (CreditKernel, _credit_row, _sc_map, _shared_kernel,
                          compute_credit_store, compute_mc, counts_from_dags, delta_set,
                          remove_edge, sigma_cd_scratch)
from cdlim.graph import ActionDags, ActionLog, SocialGraph, build_all_dags
from cdlim.greedy import greedy_bil
from cdlim.rounding import max_weight_independent
from conftest import make_f1, random_instance
from reference import _edge_deltas, _r_map, multilinear_exact, sigma_cd, with_gamma
from test_acceptance import _best_feasible, _ic_benchmark

REL = 1e-12


def _close(got, want, rel=REL):
    return abs(got - want) <= rel * max(1.0, abs(want))


@st.composite
def dense_instances(draw):
    """conftest's random instance from a drawn seed, so most draws have
    several positive marginals. Half get tie-heavy credits, drawn from
    {0.25, 0.5, 1} / in-degree."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    inst = random_instance(rng, max_nodes=8, max_actions=4)
    if draw(st.booleans()):
        inst.dags = [with_gamma(d, {e: rng.choice((0.25, 0.5, 1.0)) / len(d.in_edges[e[1]])
                                    for e in d.gamma}) for d in inst.dags]
    return inst.dags, inst.X, inst.C


@st.composite
def target_free_instances(draw):
    """Instances with at least three actions and one or two targets drawn
    from the two nodes of a single action that take part in the fewest
    actions, so other actions often hold no target. Half get tie-heavy
    credits, as in :func:`dense_instances`."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    inst = random_instance(rng, max_nodes=8, max_actions=6)
    while len(inst.dags) < 3:
        inst = random_instance(rng, max_nodes=8, max_actions=6)
    counts = counts_from_dags(inst.dags)
    rare = sorted(rng.choice(inst.dags).nodes, key=lambda u: (counts[u], u))[:2]
    X = set(rng.sample(rare, rng.randint(1, len(rare))))
    dags = inst.dags
    if draw(st.booleans()):
        dags = [with_gamma(d, {e: rng.choice((0.25, 0.5, 1.0)) / len(d.in_edges[e[1]])
                               for e in d.gamma}) for d in dags]
    return dags, X, inst.C


class DeltaKernel:
    """The kernel before it computed marginals on demand: per-action delta
    dicts from :func:`_edge_deltas` for every DAG with an edge, target-free
    or not, and a memo of marginals cleared for the edges of each
    recomputed action. It is the reference that CreditKernel must equal
    bit for bit."""

    def __init__(self, dags, X, counts):
        self.X = frozenset(X)
        self.counts = counts
        self.dags = {dag.action: dag for dag in dags if dag.gamma}
        self.removed = set()
        self.edge_actions = {}
        for a, dag in self.dags.items():
            for e in dag.gamma:
                self.edge_actions.setdefault(e, []).append(a)
        self.deltas = {a: _edge_deltas(dag, self.X, counts, self.removed)
                       for a, dag in self.dags.items()}
        self._memo = {}

    def marginal(self, e):
        mc = self._memo.get(e)
        if mc is None:
            mc = 0.0
            for a in self.edge_actions.get(e, ()):
                delta = self.deltas[a].get(e)
                if delta is not None:
                    mc += delta
            self._memo[e] = mc
        return mc

    def remove(self, e):
        if e in self.removed:
            return
        self.removed.add(e)
        for a in self.edge_actions.get(e, ()):
            dag = self.dags[a]
            self.deltas[a] = _edge_deltas(dag, self.X, self.counts, self.removed)
            for edge in dag.gamma:
                self._memo.pop(edge, None)


def _assert_kernel_equals_delta_kernel(inst, data):
    dags, X, C = inst
    removed = data.draw(st.lists(st.sampled_from(C), unique=True, max_size=len(C))) if C else []
    counts = counts_from_dags(dags)
    kernel = CreditKernel(dags, X, counts)
    ref = DeltaKernel(dags, X, counts)
    for i in range(len(removed) + 1):
        for e in C:
            assert kernel.marginal(e) == ref.marginal(e), (removed[:i], e)
        if i < len(removed):
            kernel.scale({removed[i]: 0.0})
            ref.remove(removed[i])


@settings(max_examples=150, deadline=None)
@given(dense_instances(), st.data())
def test_kernel_equals_delta_kernel(inst, data):
    _assert_kernel_equals_delta_kernel(inst, data)


@settings(max_examples=150, deadline=None)
@given(target_free_instances(), st.data())
def test_kernel_equals_delta_kernel_target_free(inst, data):
    _assert_kernel_equals_delta_kernel(inst, data)


def _repair(kernel, entry):
    """Bring both maps of a stored action up to date and reset its marks."""
    dag, g, sc, r, _, s, t = entry
    f = _first_target(dag, kernel.X)
    last = len(dag.nodes) - 1
    if s <= last:
        kernel._sc_pass(dag, g, sc, s, last)
        entry[5] = last + 1
    if t >= f:
        kernel._r_pass(dag, g, r, f, t)
        entry[6] = f - 1


def _stored_actions(kernel):
    """The kernel's distinct stored actions by action id, each first
    repaired to current and then cut to its ``(dag, g, sc, r)`` fields,
    with ``f``, the first position its ``pos`` map holds, appended."""
    stored = {}
    for entries in kernel.edge_actions.values():
        for entry in entries:
            _repair(kernel, entry)
            stored[entry[0].action] = (*entry[:4], min(entry[4].values()))
    return stored


def _first_target(dag, X):
    """Position of the DAG's first target member; the node count if none."""
    return next((i for i, u in enumerate(dag.nodes) if u in X), len(dag.nodes))


def _held_gamma(dag, X):
    """``dag.gamma`` cut to the edges whose tail comes at or after the DAG's
    first target member: the credits a stored action keeps. Empty when the
    DAG has no target member."""
    after = set(dag.nodes[_first_target(dag, X):])
    return {e: c for e, c in dag.gamma.items() if e[0] in after}


def _assert_state_matches_scratch(kernel, dags, X, removed):
    # SC everywhere, R from the action's first target member on, and the
    # effective credits: gamma with the edges of ``removed`` (the ones
    # scaled to 0.0) at zero, on the edges whose tail comes at or after
    # that member.
    X = frozenset(X)
    stored = _stored_actions(kernel)
    assert sorted(stored) == [d.action for d in dags if _held_gamma(d, X)]
    for dag, g, sc, r, f in stored.values():
        assert dag.nodes[f] in X and X.isdisjoint(dag.nodes[:f]), dag.action
        assert g == {e: 0.0 if e in removed else c
                     for e, c in _held_gamma(dag, X).items()}
        assert sc == _sc_map(dag, X, removed), (dag.action, sorted(removed))
        after_f = set(dag.nodes[f:])
        want_r = {n: val for n, val in _r_map(dag, X, kernel.counts, removed).items()
                  if n in after_f}
        assert r == want_r, (dag.action, sorted(removed))


def _assert_kernel_state_after_every_prefix(inst, data):
    dags, X, C = inst
    removed = data.draw(st.lists(st.sampled_from(C), unique=True, max_size=len(C))) if C else []
    kernel = CreditKernel(dags, X, counts_from_dags(dags))
    _assert_state_matches_scratch(kernel, dags, X, set())
    for i, e in enumerate(removed):
        kernel.scale({e: 0.0})
        _assert_state_matches_scratch(kernel, dags, X, set(removed[:i + 1]))


@settings(max_examples=150, deadline=None)
@given(dense_instances(), st.data())
def test_kernel_state_equals_scratch_maps(inst, data):
    _assert_kernel_state_after_every_prefix(inst, data)


@settings(max_examples=150, deadline=None)
@given(target_free_instances(), st.data())
def test_kernel_state_equals_scratch_maps_target_free(inst, data):
    _assert_kernel_state_after_every_prefix(inst, data)


def _assert_maps_match_credits(kernel, X, keep):
    # Every stored g is gamma times the edge's latest factor in ``keep``,
    # and the repaired maps equal the whole-DAG passes on the DAG with
    # those credits, bit for bit. The passes read every edge, so the DAG
    # given to them keeps gamma on the edges g leaves out.
    for dag, g, sc, r, f in _stored_actions(kernel).values():
        assert g == {e: c * keep[e] if e in keep else c
                     for e, c in _held_gamma(dag, X).items()}
        scaled = with_gamma(dag, {**dag.gamma, **g})
        assert sc == _sc_map(scaled, X, ()), (dag.action, keep)
        after_f = set(dag.nodes[f:])
        assert r == {n: val for n, val in _r_map(scaled, X, kernel.counts, ()).items()
                     if n in after_f}, (dag.action, keep)


def _assert_scaled_state_matches_scratch(inst, data):
    # After each ``scale`` call, with factors that may rise as well as fall.
    dags, X, C = inst
    X = frozenset(X)
    kernel = CreditKernel(dags, X, counts_from_dags(dags))
    factors = st.sampled_from((0.0, 0.3, 0.5, 1.0))
    keep = {}
    for _ in range(data.draw(st.integers(1, 4))):
        step = data.draw(st.dictionaries(st.sampled_from(C), factors))
        kernel.scale(step)
        keep.update(step)
        _assert_maps_match_credits(kernel, X, keep)


@settings(max_examples=150, deadline=None)
@given(dense_instances(), st.data())
def test_scaled_kernel_state_equals_scratch_maps(inst, data):
    _assert_scaled_state_matches_scratch(inst, data)


@settings(max_examples=150, deadline=None)
@given(target_free_instances(), st.data())
def test_scaled_kernel_state_equals_scratch_maps_target_free(inst, data):
    _assert_scaled_state_matches_scratch(inst, data)


def _assert_exit_restores_gamma(inst, data):
    # A ``with`` body scales edges to 0.0 and to fractions, reads marginals
    # (so maps are repaired at the scaled credits) and raises. The exception
    # propagates, ``off`` is empty, and every repaired map and marginal has
    # a new kernel's bits. A repair can reinsert a node that a scale had
    # dropped from SC, so the maps are compared as sets, not in map order.
    dags, X, C = inst
    counts = counts_from_dags(dags)
    edges = sorted({e for d in dags for e in d.gamma})
    kernel = CreditKernel(dags, X, counts)
    factors = st.sampled_from((0.0, 0.3, 0.5))
    with pytest.raises(_Stop):
        with kernel as borrowed:
            assert borrowed is kernel
            for _ in range(data.draw(st.integers(1, 3))):
                kernel.scale(data.draw(st.dictionaries(st.sampled_from(edges), factors)))
                for e in edges:
                    kernel.marginal(e)
            raise _Stop
    assert not kernel.off
    _assert_state_matches_scratch(kernel, dags, X, set())
    got, want = (_bits(k, edges) for k in (kernel, CreditKernel(dags, X, counts)))
    assert [set(m) for m in got[0]] == [set(m) for m in want[0]] and got[1] == want[1]


@settings(max_examples=150, deadline=None)
@given(dense_instances(), st.data())
def test_kernel_exit_restores_gamma(inst, data):
    _assert_exit_restores_gamma(inst, data)


@settings(max_examples=150, deadline=None)
@given(target_free_instances(), st.data())
def test_kernel_exit_restores_gamma_target_free(inst, data):
    _assert_exit_restores_gamma(inst, data)


def _assert_lazy_repair_matches_scratch(dags, X, C, rng, steps):
    # One kernel under a random interleaving of removals (scales to 0.0, one
    # to three in a row, some repeated), scale batches on edges not removed,
    # and marginal queries. Every marginal equals the from-scratch sum on
    # the DAGs with the current credits, bit for bit, and every fully
    # repaired map equals the whole-DAG passes, now and then along the way
    # and at the end. A third of the draws come from the edges into a
    # target member and the edges whose tail comes before the first target
    # member of a target-holding action that holds them, when there are
    # any.
    X = frozenset(X)
    counts = counts_from_dags(dags)
    kernel = CreditKernel(dags, X, counts)
    early = set().union(*(d.gamma.keys() - _held_gamma(d, X).keys()
                          for d in dags if not X.isdisjoint(d.times)))
    special = [e for e in C if e[1] in X or e in early]

    def draw():
        return rng.choice(special if special and rng.random() < 0.3 else C)

    keep, ref, removed = {}, None, set()
    for _ in range(steps):
        op = rng.random()
        if op < 0.35:
            for _ in range(rng.randint(1, 3)):
                again = removed and rng.random() < 0.2
                e = rng.choice(sorted(removed)) if again else draw()
                kernel.scale({e: 0.0})
                removed.add(e)
                keep[e] = 0.0
            ref = None
        elif op < 0.5:
            step = {e: rng.choice((0.0, 0.3, 0.5, 1.0))
                    for e in (draw() for _ in range(rng.randint(1, 3)))
                    if e not in removed}
            kernel.scale(step)
            keep.update(step)
            ref = None
        elif op < 0.55:
            _assert_maps_match_credits(kernel, X, keep)
        else:
            if ref is None:
                scaled = [with_gamma(d, {e: c * keep[e] if e in keep else c
                                         for e, c in d.gamma.items()}) for d in dags]
                ref = reference_marginals(scaled, X, C, counts, ())
            for _ in range(rng.randint(1, 4)):
                e = draw()
                want = 0.0 if e in removed else ref[e]
                assert kernel.marginal(e) == want, (e, sorted(keep.items()))
    _assert_maps_match_credits(kernel, X, keep)


@settings(max_examples=150, deadline=None)
@given(dense_instances(), st.integers(0, 2 ** 32 - 1))
def test_lazy_repair_matches_scratch(inst, seed):
    dags, X, C = inst
    _assert_lazy_repair_matches_scratch(dags, X, C, random.Random(seed), steps=40)


@settings(max_examples=100, deadline=None)
@given(target_free_instances(), st.integers(0, 2 ** 32 - 1))
def test_lazy_repair_matches_scratch_target_free(inst, seed):
    dags, X, C = inst
    _assert_lazy_repair_matches_scratch(dags, X, C, random.Random(seed), steps=40)


def test_lazy_repair_matches_scratch_chain_instance():
    dags, X, _, C = _chain_instance()
    for seed in range(6):
        rng = random.Random(seed)
        if seed % 2:
            dags = [with_gamma(d, {e: rng.choice((0.25, 0.5, 1.0)) / len(d.in_edges[e[1]])
                                   for e in d.gamma}) for d in dags]
        _assert_lazy_repair_matches_scratch(dags, X, C, rng, steps=80)


def closed_form_multilinear(dags, X, y, counts):
    """F(y) in closed form: per DAG, the influence at gamma minus the
    influence at gamma * (1 - y), one SC pass each."""
    total = 0.0
    for dag in dags:
        kept = with_gamma(dag, {e: c * (1.0 - y.get(e, 0.0)) for e, c in dag.gamma.items()})
        total += sigma_cd_scratch([dag], X, counts) - sigma_cd_scratch([kept], X, counts)
    return total


@settings(max_examples=100, deadline=None)
@given(dense_instances(), st.data())
def test_exact_multilinear_and_weights_equal_enumeration(inst, data):
    # The premise of exact continuous greedy: a DAG path uses each edge once,
    # so F(y) is one pass on the credits gamma * (1 - y), and the weight
    # E[f(R + e) - f(R)] = (1 - y_e) (F(y | y_e = 1) - F(y | y_e = 0)) is
    # the kernel's marginal at those credits. Enumeration over every subset
    # of up to seven candidates is the reference.
    dags, X, C = inst
    C = data.draw(st.lists(st.sampled_from(C), unique=True, min_size=1, max_size=7))
    probs = st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)
    y = {e: data.draw(probs) for e in C}
    counts = counts_from_dags(dags)
    want = multilinear_exact(dags, X, C, y, counts=counts)
    assert _close(closed_form_multilinear(dags, X, y, counts), want), y
    kernel = CreditKernel(dags, X, counts)
    kernel.scale({e: 1.0 - y[e] for e in C})
    for e in C:
        lo = multilinear_exact(dags, X, C, {**y, e: 0.0}, counts=counts)
        hi = multilinear_exact(dags, X, C, {**y, e: 1.0}, counts=counts)
        assert _close(kernel.marginal(e), (1.0 - y[e]) * (hi - lo)), (e, y)


def _skip_instance():
    """One action over nodes 0-6 in id order with uniform credits and
    targets {2, 5}, so the first target sits at position 2. Node 3 comes
    after it but has no set credit, since its only in-neighbour is 1."""
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 5),
             (4, 6), (5, 6)]
    log = ActionLog([(u, 0, u) for u in range(7)])
    dags = build_all_dags(SocialGraph(7, edges), log)
    return dags, {2, 5}, log.counts


def _bits(kernel, edges):
    """The kernel's repaired maps and the marginals of ``edges``, as the
    ``float.hex`` strings of their values in map order."""
    maps = [[(n, val.hex()) for n, val in m.items()]
            for _, _, sc, r, _ in _stored_actions(kernel).values() for m in (sc, r)]
    return maps, [kernel.marginal(e).hex() for e in edges]


def _remove_and_diff(e, times=1):
    """Remove ``e`` (scale it to 0.0) and return which of the action's SC
    and R maps changed; both must equal the from-scratch maps afterwards.
    Every repeated removal leaves the maps and every marginal bit-identical."""
    dags, X, counts = _skip_instance()
    kernel = CreditKernel(dags, X, counts)
    (_, _, sc, r, f), = _stored_actions(kernel).values()
    assert f == 2
    before = dict(sc), dict(r)
    kernel.scale({e: 0.0})
    once = _bits(kernel, sorted(kernel.edge_actions))
    for _ in range(times - 1):
        kernel.scale({e: 0.0})
        assert _bits(kernel, sorted(kernel.edge_actions)) == once
    _assert_state_matches_scratch(kernel, dags, X, {e})
    return sc != before[0], r != before[1]


def test_remove_tail_without_set_credit_keeps_sc():
    assert _remove_and_diff((3, 4)) == (False, True)


def test_remove_into_target_changes_nothing():
    assert _remove_and_diff((4, 5)) == (False, False)
    assert _remove_and_diff((1, 2)) == (False, False)


def test_remove_tail_before_first_target_changes_nothing():
    assert _remove_and_diff((0, 1)) == (False, False)


def test_repeated_removal_is_a_no_op():
    # A repeated zero-scale leaves maps and marginals bit-identical.
    assert _remove_and_diff((4, 6), times=2) == (True, True)
    assert _remove_and_diff((3, 4), times=3) == (False, True)


def _nbr_lists(dag):
    """The neighbour-id lists ``ActionDag`` held before it kept edge lists,
    rebuilt from ``nodes`` and ``gamma`` alone: in-neighbours in the
    topological order of the tails, out-neighbours by ascending id."""
    pos = {u: i for i, u in enumerate(dag.nodes)}
    in_nbrs = {u: [] for u in dag.nodes}
    out_nbrs = {u: [] for u in dag.nodes}
    for w, u in sorted(dag.gamma, key=lambda e: (pos[e[0]], e[1])):
        out_nbrs[w].append(u)
        in_nbrs[u].append(w)
    return in_nbrs, out_nbrs


def tuple_sc_map(dag, X, removed, in_nbrs):
    """:func:`_sc_map` as it was, building ``(w, u)`` for every in-edge."""
    sc = {}
    for u in dag.nodes:
        if u in X:
            sc[u] = 1.0
            continue
        acc = 0.0
        for w in in_nbrs[u]:
            c = sc.get(w)
            if c is not None and (w, u) not in removed:
                acc += c * dag.gamma[(w, u)]
        if acc > 0.0:
            sc[u] = acc
    return sc


def tuple_r_map(dag, X, counts, removed, out_nbrs):
    """:func:`_r_map` as it was, building ``(v, w)`` for every out-edge."""
    r = {}
    for v in reversed(dag.nodes):
        if v in X:
            continue
        acc = 1.0 / counts[v]
        for w in out_nbrs[v]:
            rw = r.get(w)
            if rw is not None and (v, w) not in removed:
                acc += dag.gamma[(v, w)] * rw
        r[v] = acc
    return r


def tuple_credit_row(dag, source, X, removed, in_nbrs):
    """:func:`_credit_row` as it was, building ``(w, u)`` for every in-edge."""
    if source in X:
        return {}
    row = {source: 1.0}
    started = False
    for u in dag.nodes:
        if u == source:
            started = True
            continue
        if not started or u in X:
            continue
        acc = 0.0
        for w in in_nbrs[u]:
            c = row.get(w)
            if c is not None and (w, u) not in removed:
                acc += c * dag.gamma[(w, u)]
        if acc > 0.0:
            row[u] = acc
    return row


def _assert_edge_list_passes_equal_tuple_passes(inst, data):
    # After every removal: the from-scratch maps and rows equal the
    # neighbour-id copies entry for entry and in insertion order, and the
    # kernel's stored maps equal them by ==.
    dags, X, C = inst
    X = frozenset(X)
    removed = data.draw(st.lists(st.sampled_from(C), unique=True, max_size=len(C))) if C else []
    counts = counts_from_dags(dags)
    kernel = CreditKernel(dags, X, counts)
    nbrs = {dag.action: _nbr_lists(dag) for dag in dags}
    for i in range(len(removed) + 1):
        cut = set(removed[:i])
        for dag in dags:
            in_nbrs, out_nbrs = nbrs[dag.action]
            sc = tuple_sc_map(dag, X, cut, in_nbrs)
            r = tuple_r_map(dag, X, counts, cut, out_nbrs)
            assert list(_sc_map(dag, X, cut).items()) == list(sc.items())
            assert list(_r_map(dag, X, counts, cut).items()) == list(r.items())
            for source in dag.nodes:
                for Y in (frozenset(), X):
                    want = tuple_credit_row(dag, source, Y, cut, in_nbrs)
                    assert list(_credit_row(dag, source, Y, cut).items()) == list(want.items())
        for dag, _, sc, r, f in _stored_actions(kernel).values():
            in_nbrs, out_nbrs = nbrs[dag.action]
            assert sc == tuple_sc_map(dag, X, cut, in_nbrs), (dag.action, sorted(cut))
            after_f = set(dag.nodes[f:])
            assert r == {n: val for n, val in
                         tuple_r_map(dag, X, counts, cut, out_nbrs).items() if n in after_f}
        if i < len(removed):
            kernel.scale({removed[i]: 0.0})


@settings(max_examples=150, deadline=None)
@given(dense_instances(), st.data())
def test_edge_list_passes_equal_tuple_passes(inst, data):
    _assert_edge_list_passes_equal_tuple_passes(inst, data)


@settings(max_examples=150, deadline=None)
@given(target_free_instances(), st.data())
def test_edge_list_passes_equal_tuple_passes_target_free(inst, data):
    _assert_edge_list_passes_equal_tuple_passes(inst, data)


@settings(max_examples=150, deadline=None)
@given(target_free_instances(), st.data())
def test_scratch_skips_target_free_actions_exactly(inst, data):
    # Both sums run over the DAGs in order; the store visits every DAG, the
    # scratch pass and delta_set skip the ones without a target member.
    dags, X, C = inst
    counts = counts_from_dags(dags)
    sigma = sigma_cd_scratch(dags, X, counts)
    assert sigma == sigma_cd(compute_credit_store(dags, X, counts=counts))
    B = data.draw(st.frozensets(st.sampled_from(C)))
    want = sigma - sigma_cd_scratch(dags, X, counts, removed=B)
    assert _close(delta_set(dags, X, B, counts=counts), want), sorted(B)


@settings(max_examples=40, deadline=None)
@given(target_free_instances(), st.integers(1, 2), st.integers(0, 2 ** 16))
def test_continuous_greedy_matches_reference_target_free(inst, b, seed):
    dags, X, C = inst
    counts = counts_from_dags(dags)
    _assert_cg_matches_reference(dags, X, C, b, CGConfig(tau=10, s=5, seed=seed), counts)
    _assert_cg_matches_reference(dags, X, C, b, CGConfig(tau=10), counts)


@settings(max_examples=60, deadline=None)
@given(dense_instances(), st.integers(1, 2), st.integers(1, 30))
def test_exact_continuous_greedy_matches_reference(inst, b, tau):
    dags, X, C = inst
    _assert_cg_matches_reference(dags, X, C, b, CGConfig(tau=tau), counts_from_dags(dags))


@settings(max_examples=100, deadline=None)
@given(dense_instances(), st.data())
def test_weight_at_y_one_is_zero(inst, data):
    # Why max_weight_independent needs no y filter: on both paths the
    # continuous-greedy weight of an edge at y = 1.0 is exactly 0.0.
    dags, X, C = inst
    probs = st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)
    y = {e: data.draw(probs) for e in C}
    full = data.draw(st.lists(st.sampled_from(C), unique=True, min_size=1))
    y.update(dict.fromkeys(full, 1.0))
    counts = counts_from_dags(dags)
    kernel = CreditKernel(dags, X, counts)
    kernel.scale({e: 1.0 - y[e] for e in C})
    assert [kernel.marginal(e) for e in full] == [0.0] * len(full)
    kernel = CreditKernel(dags, X, counts)
    held = [e for e in C if e in kernel.edge_actions]
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    weights = _cg_weights(kernel, C, held, y, data.draw(st.integers(1, 4)), rng)
    assert [weights[e] for e in full] == [0.0] * len(full)


@settings(max_examples=100, deadline=None)
@given(dense_instances(), st.integers(2, 5), st.data())
def test_sampled_weights_over_shared_samples_equal_scratch(inst, s, data):
    # Every edge at y = 1.0 is in every sample, so consecutive samples share
    # edges, which stay at 0.0 from one sample to the next. The weights
    # equal from-scratch marginals summed per sample under the same draws,
    # and afterwards every credit and map is back at gamma.
    dags, X, C = inst
    probs = st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 1.0)
    y = {e: data.draw(probs) for e in C}
    full = data.draw(st.lists(st.sampled_from(C), unique=True, min_size=1))
    y.update(dict.fromkeys(full, 1.0))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    counts = counts_from_dags(dags)
    kernel = CreditKernel(dags, X, counts)
    held = [e for e in C if e in kernel.edge_actions]
    got = _cg_weights(kernel, C, held, y, s, random.Random(seed))
    assert got == reference_cg_weights(dags, X, C, y, s, random.Random(seed), counts)
    assert kernel.off == set()
    _assert_state_matches_scratch(kernel, dags, X, set())


def test_continuous_greedy_matches_reference_when_y_reaches_one():
    # At tau=2 and tau=4 the steps sum to exactly 1.0, so edges reach
    # y = 1.0 and are then kept out of every step by their zero weight.
    rng = random.Random(419)
    saturated = 0
    for i in range(30):
        inst = random_instance(rng, max_nodes=8, max_actions=4)
        counts = counts_from_dags(inst.dags)
        b = 1 + i % 2
        for tau in (2, 4):
            for config in (CGConfig(tau=tau), CGConfig(tau=tau, s=3, seed=i)):
                frac = continuous_greedy(inst.dags, inst.X, inst.C, b, config, counts=counts)
                want = reference_continuous_greedy(inst.dags, inst.X, inst.C, b, config, counts)
                assert repr(frac.y) == repr(want)
                saturated += list(frac.y.values()).count(1.0)
    assert saturated > 0


@settings(max_examples=150, deadline=None)
@given(dense_instances(), st.data())
def test_kernel_marginal_matches_reference(inst, data):
    dags, X, C = inst
    removed = data.draw(st.lists(st.sampled_from(C), unique=True, max_size=len(C))) if C else []
    counts = counts_from_dags(dags)
    store = compute_credit_store(dags, X, counts=counts)
    kernel = CreditKernel(dags, X, counts)
    for e in removed:
        remove_edge(store, e)
        kernel.scale({e: 0.0})
    # The same removals as zero credits, for the from-scratch single-edge delta.
    cut = [with_gamma(d, {e: 0.0 if e in removed else g for e, g in d.gamma.items()})
           for d in dags]
    for e in C:
        if e in removed:
            assert kernel.marginal(e) == 0.0
            continue
        got = kernel.marginal(e)
        assert _close(got, compute_mc(store, e)), e
        assert _close(got, delta_set(cut, X, {e}, counts=counts)), e


@settings(max_examples=150, deadline=None)
@given(dense_instances(), st.data())
def test_kernel_marginals_never_rise(inst, data):
    # The argument that makes lazy greedy exact: a removal never raises a
    # marginal, compared as floats, not within a tolerance.
    dags, X, C = inst
    counts = counts_from_dags(dags)
    kernel = CreditKernel(dags, X, counts)
    prev = {e: kernel.marginal(e) for e in C}
    for e in data.draw(st.permutations(C)):
        kernel.scale({e: 0.0})
        now = {f: kernel.marginal(f) for f in C}
        for f in C:
            assert now[f] <= prev[f], (e, f, now[f], prev[f])
        prev = now


def eager_greedy(dags, X, k, C, counts, per_node_bound=None):
    """Eager greedy on the kernel, the plain algorithm the lazy loop must
    match: every feasible candidate's marginal on every pick, ties to the
    smallest edge."""
    pool = sorted(set(C))
    kernel = CreditKernel(dags, X, counts)
    edges, gains, load = [], [], {}
    while len(edges) < k:
        scan = [e for e in pool if per_node_bound is None or load.get(e[1], 0) < per_node_bound]
        if not scan:
            break
        best_e, best_mc = None, -1.0
        for e in scan:
            mc = kernel.marginal(e)
            if mc > best_mc:
                best_e, best_mc = e, mc
        edges.append(best_e)
        gains.append(best_mc)
        load[best_e[1]] = load.get(best_e[1], 0) + 1
        pool.remove(best_e)
        kernel.scale({best_e: 0.0})
    return edges, gains


def _assert_equals_eager(dags, X, k, C, counts, per_node_bound=None):
    sol = greedy_bil(dags, X, k, C, counts=counts, per_node_bound=per_node_bound)
    want = eager_greedy(dags, X, k, C, counts, per_node_bound)
    assert (sol.edges, sol.gain_per_step) == want, per_node_bound


@settings(max_examples=150, deadline=None)
@given(dense_instances(), st.sampled_from([None, 1, 2]), st.data())
def test_greedy_equals_eager_scan(inst, bound, data):
    dags, X, C = inst
    top = len(C) if bound is not None else len(C) - 1
    if top < 1:
        return
    k = data.draw(st.one_of(st.just(top), st.integers(1, top)))
    _assert_equals_eager(dags, X, k, C, counts_from_dags(dags), bound)


def test_greedy_equals_eager_scan_criterion_12_instance():
    _, dags, counts, X, C = _ic_benchmark(1200)
    _assert_equals_eager(dags, X, 50, C, counts)
    _assert_equals_eager(dags, X, 50, C, counts, per_node_bound=2)


def delta_kernel_greedy(dags, X, k, C, counts, per_node_bound=None):
    """greedy_bil's lazy loop on :class:`DeltaKernel`. The eager scan above
    runs on CreditKernel too, so only this loop catches a kernel whose
    marginals drift from the delta-dict sums."""
    kernel = DeltaKernel(dags, X, counts)
    edges, gains, load = [], [], {}
    heap = [(-kernel.marginal(e), e) for e in sorted(set(C))]
    heapq.heapify(heap)
    while heap and len(edges) < k:
        negmc, e = heapq.heappop(heap)
        if per_node_bound is not None and load.get(e[1], 0) >= per_node_bound:
            continue
        mc = kernel.marginal(e)
        if mc != -negmc:
            heapq.heappush(heap, (-mc, e))
            continue
        edges.append(e)
        gains.append(mc)
        load[e[1]] = load.get(e[1], 0) + 1
        kernel.remove(e)
    return edges, gains


def test_greedy_equals_delta_kernel_criterion_12_instances():
    for seed in (1200, 1201, 1202):
        _, dags, counts, X, C = _ic_benchmark(seed)
        for bound in (None, 2):
            sol = greedy_bil(dags, X, 50, C, counts=counts, per_node_bound=bound)
            want = delta_kernel_greedy(dags, X, 50, C, counts, bound)
            assert repr((sol.edges, sol.gain_per_step)) == repr(want), (seed, bound)


def _chain_instance():
    """A criterion-13-style chain u -> u+1..3 with learned credits: 12
    actions over 60-node windows at stride 7, and targets at the middle of
    the windows of actions 2, 6 and 9. Most edges lie in several actions,
    before the first target in some and after it in others."""
    window, stride, num_actions = 60, 7, 12
    n = stride * (num_actions - 1) + window
    graph = SocialGraph(n, [(u, u + d) for u in range(n) for d in (1, 2, 3) if u + d < n])
    log = ActionLog([(a * stride + i, a, i) for a in range(num_actions) for i in range(window)])
    dags = build_all_dags(graph, log, "learned")
    X = {a * stride + window // 2 for a in (2, 6, 9)}
    return dags, X, log.counts, sorted({e for d in dags for e in d.gamma})


def test_greedy_equals_delta_kernel_chain_instance():
    dags, X, counts, C = _chain_instance()
    for bound in (None, 2):
        sol = greedy_bil(dags, X, 40, C, counts=counts, per_node_bound=bound)
        want = delta_kernel_greedy(dags, X, 40, C, counts, bound)
        assert repr((sol.edges, sol.gain_per_step)) == repr(want), bound
        # The picks lie in target-holding actions on both sides of their
        # first target, and the kernel stores only the side at or after it.
        kernel = CreditKernel(dags, X, counts)
        sides = {dag.nodes.index(e[0]) >= _first_target(dag, X)
                 for e in sol.edges for dag in dags
                 if e in dag.gamma and not X.isdisjoint(dag.times)}
        assert sides == {False, True}, bound
        assert {dag.nodes.index(e[0]) >= min(pos.values()) for e in sol.edges
                for dag, _, _, _, pos, *_ in kernel.edge_actions.get(e, ())} == {True}, bound
        # No pick's tail holds R in any stored action (it is a target member
        # or comes before the first one), so the removals never mark R
        # stale, and the repaired maps still equal the whole-DAG passes.
        assert not any(e[0] in entry[3] for e in sol.edges
                       for entry in kernel.edge_actions.get(e, ())), bound
        for e in sol.edges:
            kernel.scale({e: 0.0})
        assert all(entry[6] == min(entry[4].values()) - 1
                   for entries in kernel.edge_actions.values() for entry in entries), bound
        _assert_state_matches_scratch(kernel, dags, X, set(sol.edges))


def _assert_same_on_action_dags_and_list(dags, counts, C, targets, k):
    """Every reader of the target-holding DAGs gives the same floats on an
    :class:`ActionDags`, whose memo answers for the last target set, as on
    a plain list, which is scanned on every call. The target sets take
    turns on the one ActionDags, so the memo changes between calls."""
    assert isinstance(dags, ActionDags)
    as_list = list(dags)
    for X in targets:
        sol = greedy_bil(dags, X, k, C, counts=counts)
        want = greedy_bil(as_list, X, k, C, counts=counts)
        assert (sol.edges, sol.gain_per_step) == (want.edges, want.gain_per_step)
        B = frozenset(sol.edges)
        for removed in (frozenset(), B):
            assert (sigma_cd_scratch(dags, X, counts, removed=removed)
                    == sigma_cd_scratch(as_list, X, counts, removed=removed))
        assert delta_set(dags, X, B, counts) == delta_set(as_list, X, B, counts)
        kernel, reference = CreditKernel(dags, X, counts), CreditKernel(as_list, X, counts)
        assert [kernel.marginal(e) for e in C] == [reference.marginal(e) for e in C]


def test_action_dags_memo_is_bit_identical_criterion_12_instance():
    _, dags, counts, X, C = _ic_benchmark(1202)
    _assert_same_on_action_dags_and_list(dags, counts, C, [X, set(range(10, 15)), X], 20)


def test_action_dags_memo_is_bit_identical_chain_instance():
    dags, X, counts, C = _chain_instance()
    _assert_same_on_action_dags_and_list(dags, counts, C, [X, {5, 130}, X], 20)


class _Stop(Exception):
    pass


def _solver_runs(X, C, counts, k, b):
    """Every solver on target set ``X`` as (name, call), where ``call(dags)``
    returns its output in exact form: edges and gains by ``float.hex``, or
    ``y`` by ``float.hex``. Greedy comes first and last, so its second run
    reads the kernel every other solver left behind."""
    y = {e: (i % 5) / 4.0 for i, e in enumerate(C)}

    def greedy(bound):
        def run(dags):
            sol = greedy_bil(dags, X, k, C, counts=counts, per_node_bound=bound)
            return sol.edges, [g.hex() for g in sol.gain_per_step]
        return run

    def cg(s):
        def run(dags):
            frac = continuous_greedy(dags, X, C, b, CGConfig(tau=4, s=s, seed=3), counts=counts)
            return {e: v.hex() for e, v in frac.y.items()}
        return run

    def weights(dags):
        got = cg_weights(dags, X, C, y, 3, random.Random(4), counts=counts)
        return {e: v.hex() for e, v in got.items()}

    return [("greedy", greedy(None)), ("grr", greedy(b)), ("exact cg", cg(None)),
            ("sampled cg", cg(3)), ("cg_weights", weights), ("greedy again", greedy(None))]


def _assert_runs_equal_fresh(shared, X, C, counts, k, b):
    """Each solver on ``shared`` equals the same call on a fresh list, and
    all of them read one kernel, which holds gamma after each."""
    fresh = list(shared)
    kernel = None
    for name, run in _solver_runs(X, C, counts, k, b):
        assert run(shared) == run(fresh), name
        kernel = kernel or shared.target.kernel
        assert shared.target.kernel is kernel, name
        assert all(entry[1] == {e: entry[0].gamma[e] for e in entry[1]}
                   for entries in kernel.edge_actions.values() for entry in entries), name


def _marginal_calls(monkeypatch, run, dags, stop_at=None):
    """Run ``run(dags)`` counting ``CreditKernel.marginal`` calls; with
    ``stop_at``, the call of that number raises instead."""
    calls = [0]
    real = CreditKernel.marginal

    def counted(kernel, e):
        calls[0] += 1
        if calls[0] == stop_at:
            raise _Stop
        return real(kernel, e)

    with monkeypatch.context() as m:
        m.setattr(CreditKernel, "marginal", counted)
        run(dags)
    return calls[0]


def _solver_sharing_instances():
    dags, X, counts, C = _chain_instance()
    yield dags, X, counts, C, {5, 130}, 12
    rng = random.Random(424)
    for _ in range(6):
        inst = random_instance(rng, max_nodes=9, max_actions=5)
        if len(inst.C) < 4:
            continue
        active = sorted({u for d in inst.dags for u in d.nodes})
        yield (inst.dags, inst.X, counts_from_dags(inst.dags), inst.C,
               set(rng.sample(active, 1)), len(inst.C) // 2)


def test_solvers_on_one_action_dags_equal_fresh_kernels(monkeypatch):
    for dags, X, counts, C, other_X, k in _solver_sharing_instances():
        shared = ActionDags(dags)
        _assert_runs_equal_fresh(shared, X, C, counts, k, 2)
        # Each solver stopped by an exception three quarters of the way
        # through its marginals, after greedy's first picks, inside exact
        # continuous greedy's steps and inside a sample: the next runs on
        # the same kernel, which the stopped run left at gamma, still equal
        # fresh ones.
        for name, run in _solver_runs(X, C, counts, k, 2):
            kernel = shared.target.kernel
            total = _marginal_calls(monkeypatch, run, shared)
            if total:
                with pytest.raises(_Stop):
                    _marginal_calls(monkeypatch, run, shared, stop_at=total * 3 // 4 + 1)
            assert shared.target.kernel is kernel and not kernel.off, name
            _assert_runs_equal_fresh(shared, X, C, counts, k, 2)
        # A new target set, then a changed ``counts``, each get their own
        # kernel; the first set's runs after them still equal fresh ones.
        kernel = shared.target.kernel
        _assert_runs_equal_fresh(shared, other_X, C, counts, k, 2)
        assert shared.target.kernel is not kernel
        changed = {u: c + u % 3 for u, c in counts.items()}
        for cnt in (changed, counts):
            kernel = shared.target.kernel
            _assert_runs_equal_fresh(shared, X, C, cnt, k, 2)
            assert shared.target.kernel is not kernel and shared.target.kernel.counts == cnt


def test_shared_kernel_keeps_a_copy_of_counts():
    dags, X, counts, C = _chain_instance()
    shared = ActionDags(dags)
    mine = dict(counts)
    kernel = _shared_kernel(shared, X, mine)
    assert kernel.counts == mine and kernel.counts is not mine
    assert _shared_kernel(shared, set(X), dict(counts)) is kernel
    mine[next(iter(mine))] += 1
    assert _shared_kernel(shared, X, mine) is not kernel
    assert _shared_kernel(list(shared), X, counts) is not _shared_kernel(list(shared), X, counts)


def test_shared_kernel_left_off_gamma_is_replaced(monkeypatch):
    dags, X, counts, C = _chain_instance()
    shared = ActionDags(dags)
    kernel = _shared_kernel(shared, X, counts)
    e = next(e for e in C if e in kernel.edge_actions)
    # A direct caller that scales and does not put the credit back.
    kernel.scale({e: 0.0})
    assert kernel.off == {e}
    with pytest.raises(ValueError):
        kernel.start_heap(C)
    left = kernel
    kernel = _shared_kernel(shared, X, counts)
    assert kernel is not left and not kernel.off
    kernel.scale({e: 0.5})
    kernel.scale({e: 1.0})
    assert _shared_kernel(shared, X, counts) is kernel
    # A greedy run whose restore raises leaves its picks in ``off``, so the
    # next run builds a new kernel and still equals a fresh one.
    real = CreditKernel.scale

    def cut(kern, keep):
        if 1.0 in keep.values():
            raise _Stop
        real(kern, keep)

    with monkeypatch.context() as m:
        m.setattr(CreditKernel, "scale", cut)
        with pytest.raises(_Stop):
            greedy_bil(shared, X, 3, C, counts=counts)
    assert shared.target.kernel is kernel and len(kernel.off) == 3
    got, want = (greedy_bil(d, X, 3, C, counts=counts) for d in (shared, list(shared)))
    assert got.edges == want.edges
    assert [g.hex() for g in got.gain_per_step] == [g.hex() for g in want.gain_per_step]
    assert shared.target.kernel is not kernel and not shared.target.kernel.off


def test_evaluation_on_the_same_target_set_keeps_the_kernel():
    # The pattern of a report grid on one target set: solvers with the
    # from-scratch evaluation between them, each call given a new set
    # object with the same members. They all read one kept state and one
    # kernel, and each output equals the same call on a fresh list.
    dags, X, counts, C = _chain_instance()
    shared = ActionDags(dags)
    fresh = list(shared)

    def greedy(d, bound=None):
        sol = greedy_bil(d, set(X), 12, C, counts=counts, per_node_bound=bound)
        return sol.edges, [g.hex() for g in sol.gain_per_step]

    def exact_cg(d):
        frac = continuous_greedy(d, set(X), C, 2, CGConfig(tau=4), counts=counts)
        return {e: v.hex() for e, v in frac.y.items()}

    B = greedy(fresh)[0]
    runs = [("greedy", greedy),
            ("sigma", lambda d: sigma_cd_scratch(d, set(X), counts, removed=set(B)).hex()),
            ("delta", lambda d: delta_set(d, set(X), set(B), counts).hex()),
            ("grr", lambda d: greedy(d, 2)),
            ("exact cg", exact_cg),
            ("greedy again", greedy)]
    state = kernel = None
    for name, run in runs:
        assert run(shared) == run(fresh), name
        state = state or shared.target
        kernel = kernel or state.kernel
        assert kernel is not None, name
        assert shared.target is state and state.kernel is kernel, name


def _heap_bits(heap):
    return [(key.hex(), e) for key, e in heap]


def _assert_start_is_marginal(inst):
    dags, X, C = inst
    counts = counts_from_dags(dags)
    kernel = CreditKernel(dags, X, counts)
    edges = sorted({e for d in dags for e in d.gamma} | set(C))
    start = {e: kernel.start.get(e, 0.0).hex() for e in edges}
    heap = kernel.start_heap(edges)
    assert {e: (-key).hex() for key, e in heap} == start
    assert all(heap[(j - 1) // 2] <= heap[j] for j in range(1, len(heap)))
    assert start == {e: kernel.marginal(e).hex() for e in edges}


@settings(max_examples=150, deadline=None)
@given(dense_instances())
def test_start_values_equal_marginals(inst):
    _assert_start_is_marginal(inst)


@settings(max_examples=150, deadline=None)
@given(target_free_instances())
def test_start_values_equal_marginals_target_free(inst):
    _assert_start_is_marginal(inst)


def _assert_kept_start_heap(inst, data):
    dags, X, C = inst
    C = sorted(set(C))
    assume(len(C) >= 2)
    counts = counts_from_dags(dags)
    shared = ActionDags(dags)
    k = data.draw(st.integers(1, len(C) - 1))

    def fresh_heap(cands):
        return _heap_bits(CreditKernel(list(dags), X, counts).start_heap(cands))

    def greedy(d, cands, bound=None):
        sol = greedy_bil(d, X, k, cands, counts=counts, per_node_bound=bound)
        return sol.edges, [g.hex() for g in sol.gain_per_step]

    # Greedy, grr and exact continuous greedy leave the kept heap as a new
    # kernel would build it.
    assert greedy(shared, C) == greedy(list(dags), C)
    kernel = shared.target.kernel
    greedy(shared, C, 1)
    continuous_greedy(shared, X, C, 1, CGConfig(tau=3), counts=counts)
    assert shared.target.kernel is kernel
    assert _heap_bits(kernel.start_heap(C)) == fresh_heap(C)
    # Popping from or pushing onto a returned heap leaves the next one as it was.
    heap = kernel.start_heap(C)
    heapq.heappop(heap)
    heapq.heappush(heap, (-1.0, (-1, -1)))
    assert _heap_bits(kernel.start_heap(C)) == fresh_heap(C)
    # Another candidate list gets its own heap and the picks of a fresh run;
    # an unsorted list with repeats is the sorted distinct one.
    other = data.draw(st.lists(st.sampled_from(C), min_size=k + 1, unique=True))
    assert _heap_bits(kernel.start_heap(sorted(other))) == fresh_heap(sorted(other))
    assert greedy(shared, other) == greedy(list(dags), sorted(other))
    repeated = data.draw(st.permutations(C + data.draw(st.lists(st.sampled_from(C)))))
    assert greedy(shared, repeated) == greedy(list(dags), C)
    assert greedy(shared, C) == greedy(list(dags), C)
    assert shared.target.kernel is kernel


@settings(max_examples=100, deadline=None)
@given(dense_instances(), st.data())
def test_kept_start_heap_equals_a_new_kernels(inst, data):
    _assert_kept_start_heap(inst, data)


@settings(max_examples=100, deadline=None)
@given(target_free_instances(), st.data())
def test_kept_start_heap_equals_a_new_kernels_target_free(inst, data):
    _assert_kept_start_heap(inst, data)


def reference_greedy(dags, X, k, C, counts, per_node_bound=None):
    """Eager greedy on the reference store with subtraction updates; ties go
    to the smallest (u, v) pair."""
    heads = {v for (_, v) in C} | set(X)
    store = compute_credit_store(dags, X, counts=counts, sources=heads)
    pool = sorted(C)
    edges, gains, load = [], [], {}
    while len(edges) < k:
        scan = [e for e in pool if per_node_bound is None or load.get(e[1], 0) < per_node_bound]
        if not scan:
            break
        best = max(scan, key=lambda e: (compute_mc(store, e), (-e[0], -e[1])))
        edges.append(best)
        gains.append(compute_mc(store, best))
        load[best[1]] = load.get(best[1], 0) + 1
        pool.remove(best)
        remove_edge(store, best)
    return edges, gains


def _assert_matches_reference(dags, X, k, C, counts, per_node_bound=None):
    want_edges, want_gains = reference_greedy(dags, X, k, C, counts, per_node_bound)
    for lazy in (False, True):
        sol = greedy_bil(dags, X, k, C, counts=counts, use_lazy=lazy,
                         per_node_bound=per_node_bound)
        assert sol.edges == want_edges, (lazy, per_node_bound)
        for got, want in zip(sol.gain_per_step, want_gains):
            assert _close(got, want, 1e-9), (lazy, per_node_bound, got, want)


def test_greedy_matches_reference_criterion_05_instances():
    # The instance stream of criterion 05, plus per-node bounds of 1 and 2.
    rng = random.Random(105)
    done = 0
    while done < 50:
        inst = random_instance(rng, max_nodes=7, max_actions=2)
        if len(inst.C) > 12 or len(inst.C) < 3:
            continue
        counts = counts_from_dags(inst.dags)
        k = rng.randint(1, min(4, len(inst.C) - 1))
        for bound in (None, 1, 2):
            _assert_matches_reference(inst.dags, inst.X, k, inst.C, counts, bound)
        done += 1


def test_greedy_matches_reference_criterion_06_instance():
    f1 = make_f1()
    counts = counts_from_dags(f1.dags)
    for k in (1, 2):
        _assert_matches_reference(f1.dags, f1.X, k, f1.C, counts)
    _assert_matches_reference(f1.dags, f1.X, 3, f1.C, counts, per_node_bound=1)


def test_greedy_matches_reference_criterion_12_instance():
    _, dags, counts, X, C = _ic_benchmark(1200)
    _assert_matches_reference(dags, X, 50, C, counts)
    _assert_matches_reference(dags, X, 50, C, counts, per_node_bound=2)


@settings(max_examples=100, deadline=None)
@given(dense_instances(), st.sampled_from([None, 1, 2]), st.data())
def test_lazy_and_plain_reach_equal_prefix_values(inst, bound, data):
    # ``use_lazy`` changes nothing, so the two runs are equal, not just close.
    dags, X, C = inst
    if len(C) < 2:
        return
    k = data.draw(st.integers(1, len(C) - 1))
    counts = counts_from_dags(dags)
    plain = greedy_bil(dags, X, k, C, counts=counts, per_node_bound=bound)
    lazy = greedy_bil(dags, X, k, C, counts=counts, use_lazy=True, per_node_bound=bound)
    assert (lazy.edges, lazy.gain_per_step) == (plain.edges, plain.gain_per_step)


def reference_marginals(dags, X, C, counts, removed):
    """Every DAG with edges recomputed from scratch, summed in DAG order."""
    out = dict.fromkeys(C, 0.0)
    for dag in dags:
        if dag.gamma:
            for e, delta in _edge_deltas(dag, X, counts, removed).items():
                if e in out:
                    out[e] += delta
    return out


def _sample_marginals(kernel, C, B):
    """The marginals of ``C`` with ``B`` removed on top of the kernel's
    credits, as one sample of :func:`_cg_weights` scores them: with s=1
    and y 1.0 on B and 0.0 elsewhere, ``random() < y`` draws exactly B.
    Checks that the weights cover exactly C, in its order."""
    held = [e for e in C if e in kernel.edge_actions]
    y = {e: 1.0 if e in B else 0.0 for e in C}
    got = _cg_weights(kernel, C, held, y, 1, random.Random(0))
    assert list(got) == list(C)
    return got


@settings(max_examples=150, deadline=None)
@given(dense_instances(), st.data())
def test_cached_marginals_equal_from_scratch_sum(inst, data):
    dags, X, C = inst
    counts = counts_from_dags(dags)
    subsets = st.frozensets(st.sampled_from(C)) if C else st.just(frozenset())
    samples = data.draw(st.lists(subsets, min_size=1, max_size=6))
    kernel = CreditKernel(dags, X, counts)
    for B in samples:
        got = _sample_marginals(kernel, C, B)
        assert got == reference_marginals(dags, X, C, counts, B), sorted(B)


def _assert_sample_marginals_match_scratch(inst, data):
    # Several samples B on one kernel after a removal prefix P (scales to
    # 0.0): each sample equals the from-scratch sum with P | B removed. It
    # then sets the edges of B back to gamma, removed or not, since the
    # kernel keeps no removed set; so afterwards the edges of P - B read
    # 0.0 and every other edge gamma, in the credits and every stored map.
    dags, X, C = inst
    edges = st.sampled_from(C) if C else st.nothing()
    prefix = data.draw(st.lists(edges, unique=True, max_size=len(C)))
    samples = data.draw(st.lists(st.frozensets(edges), min_size=1, max_size=5))
    counts = counts_from_dags(dags)
    kernel = CreditKernel(dags, X, counts)
    for e in prefix:
        kernel.scale({e: 0.0})
    P = set(prefix)
    for B in samples:
        got = _sample_marginals(kernel, C, B)
        assert got == reference_marginals(dags, X, C, counts, P | B), (prefix, sorted(B))
        P -= B
        _assert_state_matches_scratch(kernel, dags, X, P)


@settings(max_examples=150, deadline=None)
@given(dense_instances(), st.data())
def test_sample_marginals_equal_scratch_and_restore_kernel(inst, data):
    _assert_sample_marginals_match_scratch(inst, data)


@settings(max_examples=150, deadline=None)
@given(target_free_instances(), st.data())
def test_sample_marginals_equal_scratch_and_restore_kernel_target_free(inst, data):
    _assert_sample_marginals_match_scratch(inst, data)


def reference_cg_weights(dags, X, C, y, s, rng, counts):
    """The sampled weights with each sample's marginals from scratch."""
    acc = dict.fromkeys(C, 0.0)
    for _ in range(s):
        B = sample_set(C, y, rng)
        marg = reference_marginals(dags, X, C, counts, B)
        for e in C:
            if e not in B:
                acc[e] += marg[e]
    return {e: max(acc[e] / s, 0.0) for e in C}


def reference_continuous_greedy(dags, X, C, b, config, counts):
    """Continuous greedy with every weight from scratch: on the exact path,
    the marginals on the DAGs with credits gamma * (1 - y); on the sampled
    path, each sample's marginals with the sample removed."""
    C = sorted(set(C))
    rng = random.Random(config.seed)
    y = dict.fromkeys(C, 0.0)
    step = 1.0 / config.tau
    for _ in range(config.tau):
        if config.s is None:
            kept = [with_gamma(d, {e: c * (1.0 - y[e]) if e in y else c
                                   for e, c in d.gamma.items()}) for d in dags]
            weights = reference_marginals(kept, X, C, counts, frozenset())
        else:
            weights = reference_cg_weights(dags, X, C, y, config.s, rng, counts)
        for e in max_weight_independent(weights, b):
            y[e] = min(y[e] + step, 1.0)
    return y


def _assert_cg_matches_reference(dags, X, C, b, config, counts):
    frac = continuous_greedy(dags, X, C, b, config, counts=counts)
    assert repr(frac.y) == repr(reference_continuous_greedy(dags, X, C, b, config, counts))


def test_continuous_greedy_matches_reference_criterion_08_instances():
    # The instance stream of criterion 08, at its tau and s, first seed.
    rng = random.Random(108)
    done = 0
    while done < 20:
        inst = random_instance(rng, max_nodes=6, max_actions=1)
        if not 2 <= len(inst.C) <= 6:
            continue
        b = 1 + done % 2
        counts = counts_from_dags(inst.dags)
        if _best_feasible(inst, b, counts)[0] < 0.05:
            continue
        for config in (CGConfig(tau=100, s=50, seed=0), CGConfig(tau=100)):
            _assert_cg_matches_reference(inst.dags, inst.X, inst.C, b, config, counts)
        done += 1


def test_continuous_greedy_matches_reference_multi_action_instances():
    # Up to eight actions per instance: most samples leave some action
    # untouched, and many edges sit in three or more actions, where the
    # order of the per-action sum shows in the last bits.
    rng = random.Random(308)
    for i in range(15):
        inst = random_instance(rng, max_nodes=8, max_actions=8)
        counts = counts_from_dags(inst.dags)
        kernel = CreditKernel(inst.dags, inst.X, counts)
        for _ in range(10):
            B = frozenset(e for e in inst.C if rng.random() < 0.2)
            got = _sample_marginals(kernel, inst.C, B)
            assert got == reference_marginals(inst.dags, inst.X, inst.C, counts, B)
        for config in (CGConfig(tau=20, s=10, seed=i), CGConfig(tau=20)):
            _assert_cg_matches_reference(inst.dags, inst.X, inst.C, 1 + i % 2, config, counts)


def test_sampled_continuous_greedy_pinned_criterion_12_instance():
    # The sampled y on the criterion-12 instance at b=2, pinned by the
    # sha256 of its repr: scoring the samples another way must not move a
    # bit of it.
    _, dags, counts, X, C = _ic_benchmark(1202)
    frac = continuous_greedy(dags, X, C, 2, CGConfig(tau=5, s=5, seed=1), counts=counts)
    assert hashlib.sha256(repr(frac.y).encode()).hexdigest() == (
        "0998fb72043b692e1957878713ddd16c4a1a153fc87e91dd8a2368e72dfce8b5")
