"""Feasibility checks, randomized rounding, swap rounding, and the overflow
slack formula."""

import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdlim.credit import delta_set
from cdlim.contgreedy import FractionalSolution
from cdlim.rounding import (DECOMP_EPS, DECOMP_SLACK, decompose, feasible, randomized_round,
                            swap_round)
from reference import chernoff_epsilon

TOL = 1e-9


class TestFeasible:
    def test_spread(self):
        assert feasible({(0, 1), (0, 2)}, 1)

    def test_overloaded_head(self):
        assert not feasible({(1, 2), (0, 2)}, 1)

    def test_empty(self):
        assert feasible(set(), 1)


def f1_evaluator(f1):
    return lambda B: delta_set(f1.dags, f1.X, B)


class TestRandomizedRound:
    def test_all_ones(self, f1):
        y = dict.fromkeys(f1.C, 1.0)
        got = randomized_round(y, f1.C, 2, 3, random.Random(0), f1_evaluator(f1))
        assert sorted(got.edges) == f1.C
        assert abs(got.delta - 1.0) < TOL

    def test_all_zeros(self, f1):
        y = dict.fromkeys(f1.C, 0.0)
        got = randomized_round(y, f1.C, 1, 3, random.Random(0), f1_evaluator(f1))
        assert got.edges == [] and got.delta == 0.0

    def test_f1_best_of_50(self, f1):
        y = {(0, 1): 1.0, (1, 2): 0.5, (0, 2): 0.5}
        got = randomized_round(y, f1.C, 1, 50, random.Random(1), f1_evaluator(f1))
        # probability of never drawing the shortcut over 50 trials is 2^-50
        assert abs(got.delta - 1.0) < TOL
        assert set(got.edges) == {(0, 1), (0, 2)}

    def test_always_feasible(self, f1):
        rng = random.Random(2)
        for _ in range(20):
            y = {e: rng.random() for e in f1.C}
            got = randomized_round(y, f1.C, 1, 5, rng, f1_evaluator(f1))
            assert feasible(got.edges, 1)

    def test_best_delta_non_decreasing_in_trials(self, f1):
        y = {(0, 1): 0.6, (1, 2): 0.4, (0, 2): 0.5}
        ev = f1_evaluator(f1)
        deltas = [randomized_round(y, f1.C, 1, t, random.Random(7), ev).delta
                  for t in range(1, 12)]
        for earlier, later in zip(deltas, deltas[1:]):
            assert later >= earlier - TOL

    def test_trial_streams_are_prefixes(self, f1):
        y = {(0, 1): 0.6, (1, 2): 0.4, (0, 2): 0.5}
        ev = f1_evaluator(f1)
        short = randomized_round(y, f1.C, 1, 4, random.Random(7), ev)
        long = randomized_round(y, f1.C, 1, 9, random.Random(7), ev)
        assert long.trial_deltas[:4] == short.trial_deltas

    def test_duplicated_candidates_draw_once(self):
        # A candidate listed twice gets one draw and fills one slot of its
        # head, so the result is the deduplicated list's under the same seed.
        y = {(0, 1): 0.6, (2, 1): 0.4}
        for seed in range(20):
            dup = randomized_round(y, [(0, 1), (0, 1), (2, 1)], 2, 3, random.Random(seed), len)
            plain = randomized_round(y, [(2, 1), (0, 1)], 2, 3, random.Random(seed), len)
            assert dup == plain, seed
            assert len(set(dup.edges)) == len(dup.edges), seed

    def test_zero_trials(self, f1):
        with pytest.raises(ValueError, match="^trials=0 must be at least 1$"):
            randomized_round({}, [], 1, 0, random.Random(0), lambda B: 0.0)

    @pytest.mark.parametrize("b", [0, -1])
    def test_bound_below_one(self, b):
        with pytest.raises(ValueError, match=f"^per-node bound b={b} must be at least 1$"):
            randomized_round({(0, 1): 0.5}, [(0, 1)], b, 1, random.Random(0), len)


class TestDecompose:
    def test_integral(self):
        y = {(0, 1): 1.0, (0, 2): 1.0}
        parts = decompose(y, sorted(y), 1)
        assert parts == [(frozenset(y), 1.0)]

    def test_convex_combination_matches_y(self):
        rng = random.Random(3)
        for _ in range(20):
            edges = sorted({(rng.randrange(4), rng.randrange(3) + 4)
                            for _ in range(rng.randint(2, 8))})
            b = rng.randint(1, 2)
            y = _random_feasible_y(edges, b, rng)
            parts = decompose(y, edges, b)
            assert abs(sum(lam for _, lam in parts) - 1.0) < 1e-6
            for part, _ in parts:
                assert feasible(part, b)
            for e in edges:
                mass = sum(lam for part, lam in parts if e in part)
                assert abs(mass - y[e]) < 1e-6

    def test_dense_heads_at_the_bound_decompose(self):
        # Many edges per head with loads scaled to the bound: the caps can
        # drive the coefficient to zero while residuals of about 1e-9 are
        # left. At seed 13, 5 of these 200 feasible y used to raise.
        rng = random.Random(13)
        for _ in range(200):
            edges = sorted({(rng.randrange(30), rng.randrange(2) + 30)
                            for _ in range(rng.randint(10, 80))})
            b = rng.randint(2, 8)
            y = _random_feasible_y(edges, b, rng)
            FractionalSolution(y).check(b)
            parts = decompose(y, edges, b)
            assert abs(sum(lam for _, lam in parts) - 1.0) <= 1e-9
            for part, _ in parts:
                assert feasible(part, b)
            for e in edges:
                mass = sum(lam for part, lam in parts if e in part)
                assert abs(mass - y[e]) < 1e-6
            assert feasible(swap_round(y, edges, b, rng), b)

    @pytest.mark.parametrize("b", [0, -1])
    def test_bound_below_one(self, b):
        with pytest.raises(ValueError, match=f"^per-node bound b={b} must be at least 1$"):
            decompose({(0, 1): 0.5}, [(0, 1)], b)

    def test_matches_inline_selection_on_ties(self):
        # Equal residuals within and across heads: the parts are those of a
        # decomposition that groups and sorts the residuals itself.
        rng = random.Random(19)
        for _ in range(300):
            edges = sorted({(rng.randrange(12), rng.randrange(4) + 12)
                            for _ in range(rng.randint(1, 30))})
            b = rng.randint(1, 3)
            heads = [v for _, v in edges]
            y = {e: min(1.0, b / heads.count(e[1])) * rng.choice((0.25, 0.5, 1.0))
                 for e in edges}
            assert repr(decompose(y, edges, b)) == repr(inline_decompose(y, edges, b))


def inline_decompose(y, C, b):
    """:func:`decompose` with the per-head top-b selection written out."""
    residual = {e: y[e] for e in C if y[e] > DECOMP_EPS}
    parts = []
    total = 0.0
    while residual:
        groups = {}
        for e in residual:
            groups.setdefault(e[1], []).append(e)
        chosen = []
        skipped = []
        for edges in groups.values():
            edges.sort(key=lambda e: (-residual[e], e))
            chosen.extend(edges[:b])
            skipped.extend(edges[b:])
        lam = min(min(residual[e] for e in chosen), 1.0 - total)
        for e in skipped:
            lam = min(lam, 1.0 - total - residual[e])
        if lam <= DECOMP_EPS:
            if max(residual.values()) <= DECOMP_SLACK:
                break
            raise ValueError("decomposition failure")
        parts.append((frozenset(chosen), lam))
        total += lam
        for e in chosen:
            r = residual[e] - lam
            if r > DECOMP_EPS:
                residual[e] = r
            else:
                del residual[e]
    if total < 1.0 - DECOMP_EPS:
        parts.append((frozenset(), 1.0 - total))
    return parts


def _random_feasible_y(edges, b, rng):
    return _within_bound({e: rng.random() for e in edges}, b)


def _within_bound(y, b):
    """Scale y down, head by head, where a head's total exceeds b."""
    load = {}
    for (_, v), val in y.items():
        load[v] = load.get(v, 0.0) + val
    for e in y:
        v = e[1]
        if load[v] > b:
            y[e] *= b / load[v]
    return y


class TestSwapRound:
    @pytest.mark.parametrize("b", [0, -1])
    def test_bound_below_one(self, b):
        with pytest.raises(ValueError, match=f"^per-node bound b={b} must be at least 1$"):
            swap_round({(0, 1): 0.5}, [(0, 1)], b, random.Random(0))

    def test_integral_passthrough(self):
        y = {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 0.0}
        got = swap_round(y, sorted(y), 1, random.Random(0))
        assert got == frozenset({(0, 1), (0, 2)})

    def test_f1_two_outcomes(self, f1):
        y = {(0, 1): 1.0, (1, 2): 0.5, (0, 2): 0.5}
        counts = {}
        runs = 10000
        rng = random.Random(4)
        for _ in range(runs):
            got = swap_round(y, f1.C, 1, rng)
            counts[got] = counts.get(got, 0) + 1
        outcomes = {frozenset({(0, 1), (1, 2)}), frozenset({(0, 1), (0, 2)})}
        assert set(counts) == outcomes
        sigma = math.sqrt(0.25 * runs)
        for freq in counts.values():
            assert abs(freq - runs / 2) <= 3 * sigma

    def test_marginals_preserved(self):
        rng = random.Random(5)
        edges = sorted({(rng.randrange(4), rng.randrange(3) + 4)
                        for _ in range(8)})
        b = 2
        y = _random_feasible_y(edges, b, rng)
        runs = 10000
        hits = dict.fromkeys(edges, 0)
        for _ in range(runs):
            got = swap_round(y, edges, b, rng)
            assert feasible(got, b)
            for e in got:
                hits[e] += 1
        for e in edges:
            sigma = math.sqrt(max(y[e] * (1 - y[e]) * runs, 1.0))
            assert abs(hits[e] - y[e] * runs) <= 3 * sigma + 1

    def test_infeasible_y_rejected(self):
        y = {(0, 1): 0.9, (2, 1): 0.9}
        with pytest.raises(ValueError, match="decomposition failure"):
            decompose(y, sorted(y), 1)


@st.composite
def swap_inputs(draw):
    """A feasible y over up to six heads with up to five candidate edges
    each, its bound b in 1..4, and an RNG seed."""
    b = draw(st.integers(1, 4))
    value = st.one_of(st.sampled_from((0.0, 1e-10, 0.25, 0.5, 1.0 - 1e-10, 1.0)),
                      st.floats(0.0, 1.0))
    y = {}
    for v in range(10, 10 + draw(st.integers(1, 6))):
        for u in sorted(draw(st.sets(st.integers(0, 9), min_size=1, max_size=5))):
            y[(u, v)] = draw(value)
    return _within_bound(y, b), b, draw(st.integers(0, 2**32 - 1))


class TestSwapRoundPerHead:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(swap_inputs(), st.lists(st.integers(0, 100), max_size=4))
    def test_every_draw_is_a_per_head_rounding(self, case, repeats):
        # Each head gets the floor or the ceiling of its load and at most b
        # edges; y <= DECOMP_EPS is never taken and y >= 1 - DECOMP_EPS
        # always is; a candidate listed twice in C draws once, and the
        # order of C does not change the draws.
        y, b, seed = case
        edges = sorted(y)
        C = edges[::-1] + [edges[i % len(edges)] for i in repeats]
        load = {}
        for e in edges:
            v = 1.0 if y[e] >= 1.0 - DECOMP_EPS else y[e] if y[e] > DECOMP_EPS else 0.0
            load[e[1]] = load.get(e[1], 0.0) + v
        rng, plain_rng = random.Random(seed), random.Random(seed)
        for _ in range(20):
            got = swap_round(y, C, b, rng)
            assert got == swap_round(y, edges, b, plain_rng)
            assert rng.getstate() == plain_rng.getstate()
            assert got <= set(edges)
            for e in edges:
                if y[e] <= DECOMP_EPS:
                    assert e not in got
                elif y[e] >= 1.0 - DECOMP_EPS:
                    assert e in got
            for v, total in load.items():
                taken = sum(1 for e in got if e[1] == v)
                assert taken <= b
                assert math.floor(total - 1e-9) <= taken <= math.ceil(total + 1e-9)

    def test_pinned_sequence(self):
        # Outputs and the RNG state after them: the draws go heads ascending,
        # then edges ascending inside a head, one per fractional edge, on
        # every interpreter.
        y = {(0, 4): 0.6, (1, 4): 0.9, (2, 4): 0.5, (0, 5): 0.3, (3, 5): 0.7,
             (1, 6): 0.25, (2, 6): 0.25, (3, 6): 0.5}
        rng = random.Random(11)
        got = [sorted(swap_round(y, list(reversed(sorted(y))), 2, rng)) for _ in range(6)]
        assert got == [[(1, 4), (2, 4), (2, 6), (3, 5)],
                       [(1, 4), (2, 4), (3, 5), (3, 6)],
                       [(1, 4), (2, 4), (3, 5), (3, 6)],
                       [(0, 4), (1, 4), (3, 5), (3, 6)],
                       [(0, 5), (1, 4), (2, 4), (3, 6)],
                       [(0, 4), (0, 5), (1, 4), (3, 6)]]
        assert rng.random() == 0.9580423833198135

    def test_one_draw_per_fractional_edge(self):
        y = {(0, 4): 0.6, (1, 4): 0.4, (2, 4): 1.0, (0, 5): 0.0, (3, 5): 0.7,
             (1, 6): 0.25, (2, 6): 0.25, (3, 6): 1e-12}
        rng, want = random.Random(5), random.Random(5)
        swap_round(y, sorted(y), 2, rng)
        for _ in range(5):
            want.random()
        assert rng.getstate() == want.getstate()

    def test_load_just_above_the_bound_stays_feasible(self):
        # Two certain edges a hair under 1 leave room, within the 1e-9
        # tolerance, for a third edge the bound has no slot for. A draw of
        # 0.0, which random() can return, would take it.
        y = {(0, 3): 1.0 - 5e-10, (1, 3): 1.0 - 5e-10, (2, 3): 1.5e-9}
        zero = SimpleNamespace(random=lambda: 0.0)
        assert swap_round(y, sorted(y), 2, zero) == frozenset({(0, 3), (1, 3)})

    def test_infeasible_head_is_named(self):
        y = {(0, 1): 0.5, (2, 1): 0.5, (0, 3): 0.9, (2, 3): 0.9}
        with pytest.raises(ValueError, match=r"^node 3 load 1\.8 exceeds bound 1$"):
            swap_round(y, sorted(y), 1, random.Random(0))


class TestSwapRoundReuse:
    """Repeated calls on one y: nothing is kept between calls, so a change
    to b, C or y, in place or not, is seen by the next call."""

    def test_in_place_mutation_is_seen(self):
        edges = [(0, 2), (1, 2)]
        y = {(0, 2): 1.0, (1, 2): 0.0}
        rng = random.Random(0)
        assert swap_round(y, edges, 1, rng) == frozenset({(0, 2)})
        y[(0, 2)], y[(1, 2)] = 0.0, 1.0
        assert swap_round(y, edges, 1, rng) == frozenset({(1, 2)})
        got_rng, want_rng = random.Random(1), random.Random(1)
        for share in (0.5, 0.5, 0.25, 0.75, 0.75, 0.1):
            y[(0, 2)], y[(1, 2)] = share, 1.0 - share
            got = swap_round(y, edges, 1, got_rng)
            fresh = {(0, 2): share, (1, 2): 1.0 - share}
            assert got == swap_round(fresh, list(edges), 1, want_rng), share

    def test_changed_bound_is_seen(self):
        edges = [(0, 2), (1, 2)]
        y = dict.fromkeys(edges, 1.0)
        assert swap_round(y, edges, 2, random.Random(0)) == frozenset(edges)
        with pytest.raises(ValueError, match="^node 2 load 2.0 exceeds bound 1$"):
            swap_round(y, edges, 1, random.Random(0))

    def test_changed_candidates_are_seen(self):
        y = {(0, 2): 1.0, (1, 3): 1.0}
        assert swap_round(y, [(0, 2), (1, 3)], 1, random.Random(0)) == frozenset(y)
        assert swap_round(y, [(0, 2)], 1, random.Random(0)) == frozenset({(0, 2)})
        # The same list object, changed in place between two calls.
        C = [(0, 2), (1, 3)]
        assert swap_round(y, C, 1, random.Random(0)) == frozenset(y)
        C.pop()
        assert swap_round(y, C, 1, random.Random(0)) == frozenset({(0, 2)})


class TestChernoffEpsilon:
    def test_reference_value(self):
        assert abs(chernoff_epsilon(100, 6) - math.sqrt(math.log(100))) < TOL

    def test_algebraic_identity(self):
        n = 50
        b = round(6 * math.log(n))
        got = chernoff_epsilon(n, b)
        assert abs(got - math.sqrt(6 * math.log(n) / b)) < TOL

    def test_monotone_in_b(self):
        values = [chernoff_epsilon(100, b) for b in range(1, 40)]
        assert values == sorted(values, reverse=True)
        assert values[-1] < values[0]

    def test_domain(self):
        with pytest.raises(ValueError):
            chernoff_epsilon(1, 4)
        with pytest.raises(ValueError):
            chernoff_epsilon(100, 0)
