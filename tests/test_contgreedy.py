"""Multilinear extension, continuous greedy, and the curvature diagnostic."""

import itertools
import random

import pytest

from cdlim.contgreedy import CGConfig, FractionalSolution, cg_weights, continuous_greedy
from cdlim.credit import counts_from_dags, delta_set
from cdlim.graph import ActionLog, SocialGraph, build_all_dags
from cdlim.rounding import feasible, max_weight_independent
from conftest import random_instance
from reference import empirical_total_curvature, multilinear_exact, with_gamma

TOL = 1e-9


def brute_force_best(inst, b, counts=None):
    """Best feasible edge set by exhaustive enumeration."""
    best = 0.0
    for r in range(len(inst.C) + 1):
        for combo in itertools.combinations(inst.C, r):
            if feasible(combo, b):
                best = max(best, delta_set(inst.dags, inst.X, combo, counts=counts))
    return best


class TestMultilinear:
    def test_all_zeros(self, f1):
        y = dict.fromkeys(f1.C, 0.0)
        assert multilinear_exact(f1.dags, f1.X, f1.C, y) == 0.0

    def test_all_ones(self, f1):
        y = dict.fromkeys(f1.C, 1.0)
        assert abs(multilinear_exact(f1.dags, f1.X, f1.C, y) - 1.0) < TOL

    def test_indicator(self, f1):
        y = {(0, 1): 1.0, (1, 2): 0.0, (0, 2): 0.0}
        assert abs(multilinear_exact(f1.dags, f1.X, f1.C, y) - 0.7) < TOL

    def test_guard(self, f1):
        big = [(i, i + 1) for i in range(25)]
        with pytest.raises(ValueError, match="guard"):
            multilinear_exact(f1.dags, f1.X, big, dict.fromkeys(big, 0.5))

    def test_repeated_candidate_counts_once(self, f1):
        # A candidate listed twice is one draw, not two independent ones.
        y = dict.fromkeys(f1.C, 0.3)
        want = multilinear_exact(f1.dags, f1.X, f1.C, y)
        assert multilinear_exact(f1.dags, f1.X, f1.C + f1.C[:1], y) == want
        assert abs(want - 0.342) < TOL

    def test_monotone_per_coordinate(self, f1):
        rng = random.Random(5)
        for _ in range(10):
            y = {e: rng.random() for e in f1.C}
            base = multilinear_exact(f1.dags, f1.X, f1.C, y)
            e = rng.choice(f1.C)
            bumped = dict(y)
            bumped[e] = min(1.0, y[e] + 0.2)
            assert multilinear_exact(f1.dags, f1.X, f1.C, bumped) >= base - TOL

    def test_cross_partials_nonnegative_direction(self):
        # submodularity in expectation: the mixed second difference of f is
        # non-positive for i != j
        rng = random.Random(6)
        for _ in range(8):
            inst = random_instance(rng, max_nodes=6)
            if len(inst.C) < 2:
                continue
            ei, ej = rng.sample(inst.C, 2)
            y = {e: rng.random() for e in inst.C}

            def f_at(yi, yj):
                z = dict(y)
                z[ei], z[ej] = yi, yj
                return multilinear_exact(inst.dags, inst.X, inst.C, z)

            mixed = f_at(1, 1) - f_at(1, 0) - f_at(0, 1) + f_at(0, 0)
            assert mixed <= TOL


class TestWeights:
    def test_all_ones_zero_weights(self, f1):
        w = cg_weights(f1.dags, f1.X, f1.C, dict.fromkeys(f1.C, 1.0), 5,
                       random.Random(0))
        assert all(v == 0.0 for v in w.values())

    def test_all_zeros_singletons(self, f1):
        w = cg_weights(f1.dags, f1.X, f1.C, dict.fromkeys(f1.C, 0.0), 3,
                       random.Random(0))
        assert abs(w[(0, 1)] - 0.7) < TOL
        assert abs(w[(1, 2)] - 0.2) < TOL
        assert abs(w[(0, 2)] - 0.3) < TOL

    def test_nonnegative(self):
        rng = random.Random(7)
        inst = random_instance(rng)
        y = {e: rng.random() for e in inst.C}
        w = cg_weights(inst.dags, inst.X, inst.C, y, 10, rng)
        assert all(v >= 0.0 for v in w.values())

    def test_repeated_candidate_counts_once(self, f1):
        # A candidate listed twice draws once per sample and adds its
        # marginal once: the weights and the draws equal those on C.
        y = dict.fromkeys(f1.C, 0.3)
        want = cg_weights(f1.dags, f1.X, f1.C, y, 4, random.Random(5))
        got = cg_weights(f1.dags, f1.X, f1.C + f1.C[:1], y, 4, random.Random(5))
        assert {e: v.hex() for e, v in got.items()} == {e: v.hex() for e, v in want.items()}
        assert abs(got[(0, 1)] - 0.475) < TOL and abs(got[(0, 2)] - 0.3) < TOL

    @pytest.mark.parametrize("s", [0, -3])
    def test_samples_below_one(self, f1, s):
        with pytest.raises(ValueError, match=f"^s={s} must be at least 1$"):
            cg_weights(f1.dags, f1.X, f1.C, dict.fromkeys(f1.C, 0.5), s, random.Random(0))


class TestMaxWeightIndependent:
    def test_f1_b1(self):
        weights = {(0, 1): 0.7, (1, 2): 0.2, (0, 2): 0.3}
        assert max_weight_independent(weights, 1) == {(0, 1), (0, 2)}

    def test_large_b_takes_all_positive(self):
        weights = {(0, 1): 0.7, (1, 2): 0.2, (0, 2): 0.3, (3, 4): 0.0}
        assert max_weight_independent(weights, 5) == {(0, 1), (1, 2), (0, 2)}

    def test_tie_breaks_lexicographically(self):
        weights = {(0, 9): 0.5, (1, 9): 0.5, (2, 9): 0.5}
        assert max_weight_independent(weights, 2) == {(0, 9), (1, 9)}

    def test_excludes_saturated(self):
        # Continuous greedy gives an edge at y = 1.0 weight exactly 0.0, so
        # a zero weight is what keeps a saturated edge out of the set.
        weights = {(0, 9): 0.0, (1, 9): 0.5}
        assert max_weight_independent(weights, 1) == {(1, 9)}

    def test_matches_exhaustive_optimum(self):
        rng = random.Random(8)
        for _ in range(20):
            edges = sorted({(rng.randrange(5), rng.randrange(4) + 5)
                            for _ in range(rng.randint(1, 8))})
            weights = {e: rng.random() for e in edges}
            b = rng.randint(1, 2)
            got = max_weight_independent(weights, b)
            best = max(sum(weights[e] for e in combo)
                       for r in range(len(edges) + 1)
                       for combo in itertools.combinations(edges, r)
                       if feasible(combo, b))
            assert abs(sum(weights[e] for e in got) - best) < TOL


class TestContinuousGreedy:
    def test_f1_quality(self, f1):
        config = CGConfig(tau=100, s=50, seed=9)
        frac = continuous_greedy(f1.dags, f1.X, f1.C, 1, config)
        frac.check(1)
        assert frac.y[(0, 1)] > 0.9
        assert frac.y[(0, 2)] + frac.y[(1, 2)] <= 1.0 + TOL
        value = multilinear_exact(f1.dags, f1.X, f1.C, frac.y)
        assert value >= 0.9

    def test_f1_quality_exact(self, f1):
        frac = continuous_greedy(f1.dags, f1.X, f1.C, 1, CGConfig(tau=100))
        frac.check(1)
        assert frac.y[(0, 1)] >= 1.0 - TOL
        assert frac.y[(0, 2)] + frac.y[(1, 2)] <= 1.0 + TOL
        assert multilinear_exact(f1.dags, f1.X, f1.C, frac.y) >= 0.9

    def test_single_step_is_indicator(self, f1):
        frac = continuous_greedy(f1.dags, f1.X, f1.C, 1, CGConfig(tau=1, s=20, seed=0))
        values = sorted(frac.y.values(), reverse=True)
        assert values[0] == 1.0
        assert all(v in (0.0, 1.0) for v in values)

    def test_zero_objective(self):
        g = SocialGraph(3, [(0, 1), (1, 2)])
        log = ActionLog([(0, 0, 1), (1, 0, 2), (2, 0, 3)])
        dag = with_gamma(build_all_dags(g, log)[0], {(0, 1): 0.5, (1, 2): 0.5})
        frac = continuous_greedy([dag], {2}, [(0, 1), (1, 2)], 1,
                                 CGConfig(tau=5, s=5, seed=0))
        assert multilinear_exact([dag], {2}, [(0, 1), (1, 2)], frac.y) == 0.0

    def test_constraints_always_hold(self):
        rng = random.Random(10)
        for _ in range(5):
            inst = random_instance(rng, max_nodes=6)
            b = rng.randint(1, 2)
            frac = continuous_greedy(inst.dags, inst.X, inst.C, b,
                                     CGConfig(tau=20, s=5, seed=rng.randrange(99)))
            frac.check(b)

    def test_config_validation(self):
        # Each message names the bad field and its value.
        with pytest.raises(ValueError, match="^tau=0 must be at least 1$"):
            CGConfig(tau=0, s=5)
        with pytest.raises(ValueError, match="^s=0 must be at least 1$"):
            CGConfig(tau=5, s=0)
        with pytest.raises(ValueError, match="^tau=0 must be at least 1$"):
            CGConfig(tau=0)
        assert CGConfig().s is None

    def test_fractional_check_rejects_violations(self):
        frac = FractionalSolution(y={(0, 1): 0.7, (2, 1): 0.7})
        with pytest.raises(ValueError, match="load"):
            frac.check(1)
        with pytest.raises(ValueError, match="outside"):
            FractionalSolution(y={(0, 1): 1.5}).check(2)


class TestCurvature:
    def test_single_candidate(self, f1):
        assert empirical_total_curvature(f1.dags, f1.X, [(0, 1)]) == 0.0

    def test_f1_full(self, f1):
        assert abs(empirical_total_curvature(f1.dags, f1.X, f1.C) - 1.0) < TOL

    def test_disjoint_paths(self):
        g = SocialGraph(4, [(0, 1), (2, 3)])
        log = ActionLog([(0, 0, 1), (1, 0, 2), (2, 0, 1), (3, 0, 2)])
        dag = with_gamma(build_all_dags(g, log)[0], {(0, 1): 0.5, (2, 3): 0.5})
        got = empirical_total_curvature([dag], {0, 2}, [(0, 1), (2, 3)])
        assert abs(got) < TOL

    def test_guard(self, f1):
        big = [(i, i + 1) for i in range(16)]
        with pytest.raises(ValueError, match="guard"):
            empirical_total_curvature(f1.dags, f1.X, big)
