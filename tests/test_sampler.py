"""Samplers: determinism, support, uniformity, and the exact profile law."""

import math
from fractions import Fraction

import pytest
import scipy.stats

from embtrees import (
    BudgetExceeded,
    HypothesisViolation,
    InfeasibleProfile,
    Profile,
    StepSet,
    enumerate_embedded_cayley,
    enumerate_profiles,
    enumerate_sary,
    enumerate_sfunctions,
    occupation_marginal,
    profile_law,
    sample_embedded_cayley,
    sample_sary,
    sample_sfunction,
)
from embtrees.core import embedded_cayley_to_json, sary_to_json, sfunction_to_json
from embtrees.sampler import CountingRandom

PM = StepSet([-1, 1])

# documented seeds: probabilistic tests at significance 1e-3
SEED = 20260810


def chi_square_uniform(counts: dict, support_size: int, draws: int) -> float:
    expected = draws / support_size
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    stat += (support_size - len(counts)) * expected
    return scipy.stats.chi2.sf(stat, support_size - 1)


class TestFunctionSampler:
    def test_forced(self):
        f = sample_sfunction(PM, Profile.parse("2,1"), seed=1)
        only = next(iter(enumerate_sfunctions(PM, Profile.parse("2,1"))))
        assert f == only

    def test_profile_decides_the_hypothesis(self):
        S = StepSet([0, 1])
        f = sample_sfunction(S, Profile.parse("1,1"), seed=1)
        assert f == next(iter(enumerate_sfunctions(S, Profile.parse("1,1"))))
        with pytest.raises(HypothesisViolation):
            sample_sfunction(S, Profile.parse("1;1"), seed=1)

    def test_determinism(self):
        a = sample_sfunction(PM, Profile.parse("2;2,1"), seed=7)
        b = sample_sfunction(PM, Profile.parse("2;2,1"), seed=7)
        assert a == b

    def test_uniformity(self):
        p = Profile.parse("2;2,1")
        support = {sfunction_to_json(f)
                   for f in enumerate_sfunctions(PM, p)}
        assert len(support) == 12
        rng = CountingRandom(SEED)
        counts: dict = {}
        draws = 6000
        for _ in range(draws):
            key = sfunction_to_json(sample_sfunction(PM, p, rng))
            assert key in support
            counts[key] = counts.get(key, 0) + 1
        assert chi_square_uniform(counts, len(support), draws) > 1e-3


class TestEmbeddedSampler:
    def test_single_vertex(self):
        t = sample_embedded_cayley(StepSet([0, 1]), Profile.parse("1"), seed=3)
        assert t.n == 1 and t.abscissa == {1: 0}

    def test_determinism(self):
        a = sample_embedded_cayley(PM, Profile.parse("2;2,1"), seed=42)
        b = sample_embedded_cayley(PM, Profile.parse("2;2,1"), seed=42)
        assert a == b

    def test_support_and_uniformity_small(self):
        p = Profile.parse("1;2")  # support: 2 trees x relabelings
        support = {embedded_cayley_to_json(t)
                   for t in enumerate_embedded_cayley(PM, p)}
        rng = CountingRandom(SEED)
        counts: dict = {}
        draws = 200 * len(support)
        for _ in range(draws):
            key = embedded_cayley_to_json(sample_embedded_cayley(PM, p, rng))
            assert key in support
            counts[key] = counts.get(key, 0) + 1
        assert set(counts) == support
        assert chi_square_uniform(counts, len(support), draws) > 1e-3

    def test_draw_count_linear(self):
        p_small = Profile([5, 5], ell=-1)
        p_big = Profile([50, 50], ell=-1)
        r1 = CountingRandom(1)
        sample_embedded_cayley(PM, p_small, r1)
        r2 = CountingRandom(1)
        sample_embedded_cayley(PM, p_big, r2)
        # draws grow linearly in n (shuffle is Theta(n) itself)
        assert r2.draws <= 12 * (p_big.n / p_small.n) * r1.draws


class TestSarySampler:
    def test_ternary_two_vertices_deterministic(self):
        t = sample_sary(StepSet([-1, 0, 1]), Profile.parse("1,1"), seed=5)
        assert t.size() == 2

    def test_determinism(self):
        a = sample_sary(PM, Profile.parse("2;2,1"), seed=9)
        b = sample_sary(PM, Profile.parse("2;2,1"), seed=9)
        assert a == b

    def test_uniform_over_figure_two(self):
        p = Profile.parse("2;2,1")
        support = {sary_to_json(t) for t in enumerate_sary(PM, p)}
        assert len(support) == 3
        rng = CountingRandom(SEED)
        counts: dict = {}
        draws = 3000
        for _ in range(draws):
            key = sary_to_json(sample_sary(PM, p, rng))
            assert key in support
            counts[key] = counts.get(key, 0) + 1
        assert chi_square_uniform(counts, len(support), draws) > 1e-3

    def test_infeasible(self):
        with pytest.raises(InfeasibleProfile):
            sample_sary(PM, Profile.parse("1,3"), seed=1)


class TestProfileLaw:
    def test_binary_size_two(self):
        law = profile_law(2, "binary")
        masses = dict(law.masses)
        assert masses == {Profile([1, 1], ell=-1): Fraction(1, 2),
                          Profile([1, 1]): Fraction(1, 2)}

    def test_binary_size_three_catalan(self):
        law = profile_law(3, "binary")
        assert law.total == 5
        assert sum(p for _k, p in law.masses) == 1

    def test_probabilities_sum_to_one_exactly(self):
        for n in range(1, 11):
            law = profile_law(n, "binary")
            assert sum(p for _k, p in law.masses) == Fraction(1)
            assert law.total == math.comb(2 * n, n) // (n + 1)

    def test_marginals(self):
        law = profile_law(2, "binary")
        assert occupation_marginal(law, 0) == {1: Fraction(1)}
        law3 = profile_law(3, "binary")
        marg = occupation_marginal(law3, 1)
        assert marg == {0: Fraction(2, 5), 1: Fraction(3, 5)}
        assert sum(marg.values()) == 1

    def test_cayley_law_matches_oracle(self):
        law = profile_law(4, "cayley", PM)
        for profile, prob in law.items():
            count = sum(1 for _ in enumerate_embedded_cayley(PM, profile))
            assert prob == Fraction(count, law.total)

    def test_guards(self):
        with pytest.raises(BudgetExceeded):
            profile_law(15, "binary")

    def test_law_below_minus_one_matches_oracle(self):
        # the law counts every tree, those that leave an abscissa empty too
        S = StepSet([-2, -1, 1])
        law = profile_law(4, "cayley", S)
        counts = {p: sum(1 for _ in enumerate_embedded_cayley(S, p))
                  for p in enumerate_profiles(4, S)}
        assert law.total == sum(counts.values()) == 4 ** 3 * 3 ** 3
        assert dict(law.masses) == {p: Fraction(c, law.total)
                                    for p, c in counts.items() if c}
        assert any(0 in p.counts for p, _prob in law.masses)

    def test_profile_enumeration_complete(self):
        # every law profile with positive mass is realized, and vice versa
        law = profile_law(4, "sary", StepSet([-1, 0, 1]))
        realized = set()
        for p in enumerate_profiles(4):
            if sum(1 for _ in enumerate_sary(StepSet([-1, 0, 1]), p)):
                realized.add(p)
        assert {k for k, _pr in law.masses} == realized
