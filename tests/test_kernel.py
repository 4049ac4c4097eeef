"""The SC/R credit kernel against the reference store and from-scratch
deltas, greedy_bil against a greedy loop written on the reference and
against the eager scan on the kernel, and the continuous greedy's cached
per-sample marginals against a from-scratch sum."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from cdlim.contgreedy import (CGConfig, _marginals_given, continuous_greedy,
                              max_weight_independent, sample_set)
from cdlim.credit import (CreditKernel, _edge_deltas, compute_credit_store,
                          counts_from_dags, delta_set)
from cdlim.greedy import compute_mc, greedy_bil, remove_edge
from conftest import make_f1, random_instance
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
        inst.dags = [d.with_gamma({e: rng.choice((0.25, 0.5, 1.0)) / d.d_in(e[1])
                                   for e in d.gamma}) for d in inst.dags]
    return inst.dags, inst.X, inst.C


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
        kernel.remove(e)
    # The same removals as zero credits, for the from-scratch single-edge delta.
    cut = [d.with_gamma({e: 0.0 if e in removed else g for e, g in d.gamma.items()})
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
        kernel.remove(e)
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
        kernel.remove(best_e)
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


@settings(max_examples=150, deadline=None)
@given(dense_instances(), st.data())
def test_cached_marginals_equal_from_scratch_sum(inst, data):
    dags, X, C = inst
    counts = counts_from_dags(dags)
    subsets = st.frozensets(st.sampled_from(C)) if C else st.just(frozenset())
    samples = data.draw(st.lists(subsets, min_size=1, max_size=6))
    cache = {}
    for B in samples:
        got = _marginals_given(dags, X, C, counts, B, cache)
        assert got == reference_marginals(dags, X, C, counts, B), sorted(B)


def reference_continuous_greedy(dags, X, C, b, config, counts):
    """Continuous greedy with every sample's marginals from scratch."""
    C = sorted(set(C))
    rng = random.Random(config.seed)
    y = dict.fromkeys(C, 0.0)
    step = 1.0 / config.tau
    for _ in range(config.tau):
        acc = dict.fromkeys(C, 0.0)
        for _ in range(config.s):
            B = sample_set(C, y, rng)
            marg = reference_marginals(dags, X, C, counts, B)
            for e in C:
                if e not in B:
                    acc[e] += marg[e]
        weights = {e: max(acc[e] / config.s, 0.0) for e in C}
        for e in max_weight_independent(weights, b, y=y):
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
        _assert_cg_matches_reference(inst.dags, inst.X, inst.C, b,
                                     CGConfig(tau=100, s=50, seed=0), counts)
        done += 1


def test_continuous_greedy_matches_reference_multi_action_instances():
    # Up to eight actions per instance: most samples leave some action
    # untouched, and many edges sit in three or more actions, where the
    # order of the per-action sum shows in the last bits.
    rng = random.Random(308)
    for i in range(15):
        inst = random_instance(rng, max_nodes=8, max_actions=8)
        counts = counts_from_dags(inst.dags)
        cache = {}
        for _ in range(10):
            B = frozenset(e for e in inst.C if rng.random() < 0.2)
            got = _marginals_given(inst.dags, inst.X, inst.C, counts, B, cache)
            assert got == reference_marginals(inst.dags, inst.X, inst.C, counts, B)
        _assert_cg_matches_reference(inst.dags, inst.X, inst.C, 1 + i % 2,
                                     CGConfig(tau=20, s=10, seed=i), counts)
