"""Closed-form counts against paper values and brute-force oracles."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from embtrees import (
    HypothesisViolation,
    IncompatibleDistribution,
    InvalidProfile,
    NotInjective,
    Profile,
    StepSet,
    TargetTree,
    Vertex,
    VertexSet,
    count_binary_horizontal,
    count_binary_profile,
    count_cayley_complete,
    count_cayley_in,
    count_cayley_out,
    count_cayley_profile,
    count_cayley_profile_ell1,
    count_cayley_profile_ell2,
    count_function_family,
    count_sary_in,
    count_sary_out,
    count_sary_profile,
    count_tree_in_tree,
    count_tree_in_tree_oracle,
    enumerate_embedded_cayley,
    enumerate_profiles,
    enumerate_sfunctions,
    eval_out_gf,
    profile_law,
    type_distribution_of,
)
from embtrees.oracle import (
    census_by_type,
    compatible_distributions,
    sweep_embedded_censuses,
)

from conftest import profiles_up_to

PM = StepSet([-1, 1])


class TestBinary:
    def test_horizontal(self):
        assert count_binary_horizontal([1, 2, 4, 3, 2]) == 840
        assert count_binary_horizontal([1]) == 1
        assert count_binary_horizontal([1, 2]) == 1
        with pytest.raises(InvalidProfile):
            count_binary_horizontal([2, 1])

    def test_vertical(self):
        assert count_binary_profile(Profile.parse("2;2,1")) == 3
        assert count_binary_profile(Profile.parse("1")) == 1
        assert count_binary_profile(Profile.parse("1,1,1")) == 1

    def test_vertical_equals_sary_pm(self):
        for p in profiles_up_to(6):
            assert count_binary_profile(p) == count_sary_profile(PM, p)


class TestProfileCounts:
    def test_paper_pins(self):
        assert count_cayley_profile(PM, Profile.parse("2;2,1")) == 720
        assert count_cayley_profile(StepSet([0, 1]), Profile.parse("3")) == 9
        assert count_cayley_profile(StepSet([1]), Profile.parse("1,2")) == 3
        assert count_sary_profile(PM, Profile.parse("2;2,1")) == 3
        assert count_sary_profile(StepSet([-1, 0, 1]), Profile.parse("1,1")) == 1
        assert count_sary_profile(StepSet([-1, 0, 1]), Profile.parse("1,2")) == 1

    def test_counts_past_the_paper_hypothesis(self):
        # min S = -2 and ell < 0: the criterion 2 profile, whose oracle
        # counts are 808920 embedded trees and 107 S-ary trees
        S = StepSet([-2, -1, 1])
        p = Profile.parse("1,1,1,2,1;1")
        assert count_cayley_profile(S, p) == 808920
        assert count_sary_profile(S, p) == 107

    def test_pure_ascent_is_horizontal_profile(self):
        # with S = {1} the vertical profile is the horizontal one:
        # n!/prod n_i! prod n_i^{n_{i+1}}
        S = StepSet([1])
        for p in profiles_up_to(6, nonneg=True):
            if p.count(0) != 1:
                continue
            expected = Fraction(math.factorial(p.n))
            for i, ni in p.items():
                if i > 0:
                    expected /= math.factorial(ni)
                expected *= ni ** p.count(i + 1)
            assert count_cayley_profile(S, p) == expected

    def test_rerooting_identity(self):
        # n_ell T(n_ell..; n_0..n_r) = m_{-ell} T(m_0..m_{r-ell}) when the
        # profile is shifted so that ell' = 0
        for S in (PM, StepSet([-1, 0, 1])):
            for p in profiles_up_to(6):
                if p.ell == 0:
                    continue
                shifted = Profile(p.counts, ell=0)
                lhs = p.count(p.ell) * count_cayley_profile(S, p)
                rhs = shifted.count(-p.ell) * count_cayley_profile(S, shifted)
                assert lhs == rhs, (S, str(p))


class TestOutCounts:
    def test_hand_pins(self):
        assert count_cayley_out(PM, {(1, 1): 1, (0, -1): 1}) == 6
        assert count_cayley_out(PM, {}) == 1  # single vertex, empty products
        assert count_sary_out(PM, {(1, 1): 1, (0, -1): 1}) == 1
        assert count_sary_out(PM, {(1, 1): 3, (0, -1): 1}) == 0  # C(2,3) = 0

    def test_marginalization(self):
        for S in (PM, StepSet([-1, 0, 1]), StepSet([0, 1])):
            for p in profiles_up_to(5, nonneg=(S.m != -1) or None):
                total = sum(count_cayley_out(S, out)
                            for out in compatible_distributions(S, p, "out"))
                assert total == count_cayley_profile(S, p), (S, str(p))
                total_s = sum(count_sary_out(S, out)
                              for out in compatible_distributions(S, p, "out"))
                assert total_s == count_sary_profile(S, p), (S, str(p))

    def test_gf_all_ones_is_profile_count(self):
        for p in profiles_up_to(5):
            assert eval_out_gf(PM, p) == count_cayley_profile(PM, p)

    def test_gf_weighted_against_oracle(self):
        p = Profile.parse("2;2,1")
        weights = {(0, 1): Fraction(2)}
        total = Fraction(0)
        for t in enumerate_embedded_cayley(PM, p):
            d = type_distribution_of(t)
            total += Fraction(2) ** d.out.get((0, 1), 0)
        assert eval_out_gf(PM, p, weights) == total

    def test_gf_annihilated_by_zero_mandatory_weight(self):
        p = Profile.parse("2;2,1")
        assert eval_out_gf(PM, p, {(-1, -1): 0}) == 0


class TestInCounts:
    def test_degenerate_in_degree_sequence(self):
        # all mass at abscissa 0 with S = {0,1}: rooted Cayley trees with
        # in-degree sequence (2,0,0) -> 3
        S = StepSet([0, 1])
        inn = {(0, (2, 0)): 1, (0, (0, 0)): 2}
        assert count_cayley_in(S, inn) == 3

    def test_single_vertex(self):
        assert count_cayley_in(StepSet([0, 1]), {(0, (0, 0)): 1}) == 1
        assert count_sary_in(StepSet([0, 1]), {(0, (0, 0)): 1}) == 1

    def test_interval_required(self):
        with pytest.raises(HypothesisViolation):
            count_cayley_in(PM, {(0, (0, 0, 0)): 1})

    def test_not_injective(self):
        S = StepSet([-1, 0, 1])
        with pytest.raises(NotInjective):
            count_sary_in(S, {(0, (0, 0, 2)): 1, (1, (0, 0, 0)): 2})

    def test_marginalization(self):
        for S in (StepSet([-1, 0, 1]), StepSet([0, 1])):
            for p in profiles_up_to(5, nonneg=(S.m != -1) or None):
                total = 0
                total_s = 0
                for inn in compatible_distributions(S, p, "in"):
                    total += count_cayley_in(S, inn)
                    if all(max(cv) <= 1 for (_i, cv), c in inn.items() if c):
                        total_s += count_sary_in(S, inn)
                assert total == count_cayley_profile(S, p), (S, str(p))
                assert total_s == count_sary_profile(S, p), (S, str(p))

    def test_incompatible_rejected(self):
        S = StepSet([0, 1])
        with pytest.raises(IncompatibleDistribution):
            count_cayley_in(S, {(0, (1, 0)): 2})
        # the root's child by step -2 would sit at abscissa -2, outside the profile
        with pytest.raises(IncompatibleDistribution):
            count_cayley_in(StepSet([-2, -1, 0, 1]), {(0, (1, 0, 0, 0)): 1})


class TestCompleteCounts:
    def test_single_vertex(self):
        assert count_cayley_complete(PM, (0, 0, 0), {}) == 1

    def test_r_zero_flagged_beyond_single_vertex(self):
        with pytest.raises(HypothesisViolation):
            count_cayley_complete(PM, (0, 0, 1), {})

    def test_zero_step_rejected(self):
        with pytest.raises(HypothesisViolation):
            count_cayley_complete(StepSet([-1, 0, 1]), (0, 0, 0, 1), {})

    def test_against_census_n3(self):
        self._census_check(Profile.parse("2,1"))

    def test_against_census_n5(self):
        self._census_check(Profile.parse("3,2"))

    @staticmethod
    def _census_check(profile):
        census = census_by_type(enumerate_embedded_cayley(PM, profile),
                                "complete")
        total = 0
        for (root_cv, comp_key), count in census.items():
            comp = {k: c for k, c in comp_key}
            assert count_cayley_complete(PM, root_cv, comp) == count
            total += count
        assert total == count_cayley_profile(PM, profile)


class TestFunctionFamilies:
    def test_profile_kinds(self):
        assert count_function_family(
            "profile", PM, profile=Profile.parse("2,1")) == 1
        assert count_function_family(
            "profile", PM, profile=Profile.parse("2;2,1")) == 12
        assert count_function_family(
            "profile", PM, profile=Profile.parse("1,1")) == 1

    def test_negative_profiles_need_min_step_minus_one(self):
        S = StepSet([-2, -1, 1])
        for kind, prescription in (("profile", {"profile": Profile.parse("1;1")}),
                                   ("out_counted", {"out": {(-1, -1): 1}}),
                                   ("out_fixed", {"out": {(-1, -1): 1}})):
            with pytest.raises(HypothesisViolation):
                count_function_family(kind, S, **prescription)
        assert count_function_family("profile", S, profile=Profile.parse("1,1")) == 1

    def test_profile_kinds_against_enumeration(self):
        for S in (PM, StepSet([-1, 0, 1])):
            for p in profiles_up_to(5):
                count = sum(1 for _ in enumerate_sfunctions(S, p))
                assert count == count_function_family(
                    "profile", S, profile=p), (S, str(p))
                inj = sum(1 for _ in enumerate_sfunctions(S, p,
                                                          constraint="injective"))
                assert inj == count_function_family(
                    "injective_profile", S, profile=p), (S, str(p))

    def test_counted_kinds_against_census(self):
        for S in (PM, StepSet([-1, 0, 1])):
            for p in profiles_up_to(4):
                funcs = list(enumerate_sfunctions(S, p))
                census = census_by_type(funcs, "out")
                for key, count in census.items():
                    out = {k: c for k, c in key}
                    assert count == count_function_family(
                        "out_counted", S, out=out), (S, str(p), key)
                census_in = census_by_type(funcs, "in")
                for key, count in census_in.items():
                    inn = {k: c for k, c in key}
                    if S.is_interval():
                        assert count == count_function_family(
                            "in_counted", S, inn=inn), (S, str(p), key)

    def test_fixed_kinds_against_enumeration(self):
        S = StepSet([-1, 0, 1])
        for p in profiles_up_to(4, nonneg=True):
            funcs = list(enumerate_sfunctions(S, p))
            by_types = {}
            for f in funcs:
                pre = {v: [0] * 3 for v in f.vertex_set.vertices()}
                for v, w in f.image.items():
                    pre[w][v.i - w.i - S.m] += 1
                key = tuple(sorted((v, tuple(cv)) for v, cv in pre.items()))
                by_types[key] = by_types.get(key, 0) + 1
            for key, count in by_types.items():
                vertex_in = {v: cv for v, cv in key}
                assert count == count_function_family(
                    "in_fixed", S, vertex_in_types=vertex_in), (str(p),)

    def test_complete_counted_matches_function_census(self):
        S = PM
        for p in profiles_up_to(4, nonneg=True):
            funcs = list(enumerate_sfunctions(S, p))
            census = census_by_type(funcs, "complete")
            for (root_cv, comp_key), count in census.items():
                comp = {k: c for k, c in comp_key}
                assert count == count_function_family(
                    "complete_counted", S,
                    complete=comp, root_in=root_cv), (str(p),)


def _out_steps(f):
    return {v: v.i - w.i for v, w in f.image.items()}


def _in_types(f):
    """The c-vector of every vertex, dense over the steps m..1."""
    m = f.step_set.m
    pre = {v: [0] * (2 - m) for v in f.vertex_set.vertices()}
    for v, w in f.image.items():
        pre[w][v.i - w.i - m] += 1
    return {v: tuple(cv) for v, cv in pre.items()}


def _frozen(mapping):
    return tuple(sorted(mapping.items()))


def _fixed_cases(n_max, step_sets, nonneg=None):
    """(S, profile) for every profile with n <= n_max that S allows:
    ell < 0 only when min S = -1 and nonneg is None."""
    for S in step_sets:
        for p in profiles_up_to(n_max, nonneg=(S.m != -1) or nonneg):
            yield S, p


def _in_type_prescriptions(p, m, allowed):
    """Every c-vector per vertex of V with c^s <= n_{i+s}, nonzero only at
    the steps in `allowed`, and n - 1 children in all."""
    verts = list(VertexSet(p).vertices())
    width = 2 - m
    options = [[cv for cv in itertools.product(range(p.n), repeat=width)
                if all(b == 0 or (s in allowed and b <= p.count(v.i + s))
                       for s, b in zip(range(m, 2), cv))]
               for v in verts]
    for choice in itertools.product(*options):
        if sum(map(sum, choice)) == p.n - 1:
            yield dict(zip(verts, choice))


def _children_of(vertex_in_types, m):
    """n(i,s): the children by step s that the in-types put at abscissa i."""
    below = Counter()
    for v, cv in vertex_in_types.items():
        for s, b in zip(range(m, 2), cv):
            if b:
                below[(v.i + s, s)] += b
    return below


def _in_compatible(p, vertex_in_types, m):
    """chi_{i=0} + sum_{s, w in V_{i-s}} c^s(w) = n_i at every abscissa i."""
    below = Counter()
    for (i, _s), c in _children_of(vertex_in_types, m).items():
        below[i] += c
    return all(below[i] + (i == 0) == p.count(i)
               for i in set(below) | set(range(p.ell, p.r + 1)))


FIXED_STEP_SETS = (PM, StepSet([-1, 0, 1]), StepSet([0, 1]), StepSet([-2, -1, 1]))
COMPLETE_STEP_SETS = (PM, StepSet([-2, -1, 1]))
REJECTED = (IncompatibleDistribution, HypothesisViolation)


class TestFixedKinds:
    """A fixed kind prescribes the type of every vertex; the count must be
    the number of functions of the family with exactly those types."""

    def test_out_fixed_kinds_against_enumeration(self):
        realised = 0
        for S, p in _fixed_cases(4, FIXED_STEP_SETS):
            prescriptions = {_frozen(_out_steps(f))
                             for f in enumerate_sfunctions(S, p)}
            for key in prescriptions:
                steps = dict(key)
                funcs = list(enumerate_sfunctions(S, p, constraint=("out_types", steps)))
                injective = sum(1 for f in funcs
                                if len({(v.i, w) for v, w in f.image.items()}) == len(f.image))
                out = dict(Counter((v.i, s) for v, s in steps.items()))
                assert count_function_family(
                    "out_fixed", S, out=out) == len(funcs), (S, str(p), key)
                assert count_function_family(
                    "injective_out_fixed", S, out=out) == injective, (S, str(p), key)
                realised += 1
        assert realised == 134

    def test_in_fixed_against_enumeration(self):
        realised = 0
        for S, p in _fixed_cases(4, (StepSet([-1, 0, 1]), StepSet([0, 1]))):
            # the general kind counts the relaxed family: f(-1^1) may leave V_0
            constraint = "relaxed_spine" if p.ell < 0 else None
            prescriptions = {_frozen(_in_types(f))
                             for f in enumerate_sfunctions(S, p, constraint=constraint)}
            for key in prescriptions:
                vertex_in = dict(key)
                if p.ell == 0:
                    want = sum(1 for _ in enumerate_sfunctions(
                        S, p, constraint=("in_types", vertex_in)))
                else:
                    want = sum(1 for f in enumerate_sfunctions(S, p, constraint=constraint)
                               if _in_types(f) == vertex_in)
                assert count_function_family(
                    "in_fixed", S, vertex_in_types=vertex_in) == want, (S, str(p), key)
                realised += 1
        assert realised == 341

    def test_complete_fixed_against_enumeration(self):
        realised = 0
        for S, p in _fixed_cases(4, COMPLETE_STEP_SETS, nonneg=True):
            prescriptions = {(_frozen(_in_types(f)), _frozen(_out_steps(f)))
                             for f in enumerate_sfunctions(S, p)}
            for in_key, out_key in prescriptions:
                vertex_in, steps = dict(in_key), dict(out_key)
                funcs = enumerate_sfunctions(S, p, constraint=("in_types", vertex_in))
                want = sum(1 for f in funcs if _out_steps(f) == steps)
                out = dict(Counter((v.i, s) for v, s in steps.items()))
                assert count_function_family(
                    "complete_fixed", S, vertex_in_types=vertex_in, out=out) == want, \
                    (S, str(p), in_key, out_key)
                realised += 1
        assert realised == 33

    def test_in_fixed_every_prescription(self):
        """Compatible prescriptions give the exact count, zeros included;
        incompatible ones raise."""
        S = StepSet([-1, 0, 1])
        tally = Counter()
        for _S, p in _fixed_cases(4, (S,)):
            constraint = "relaxed_spine" if p.ell < 0 else None
            realised = Counter(_frozen(_in_types(f))
                               for f in enumerate_sfunctions(S, p, constraint=constraint))
            for vertex_in in _in_type_prescriptions(p, S.m, set(S)):
                if _in_compatible(p, vertex_in, S.m):
                    want = realised[_frozen(vertex_in)]
                    assert count_function_family(
                        "in_fixed", S, vertex_in_types=vertex_in) == want, \
                        (str(p), vertex_in)
                    tally["zero" if want == 0 else "compatible"] += 1
                else:
                    with pytest.raises(REJECTED):
                        count_function_family("in_fixed", S, vertex_in_types=vertex_in)
                    tally["incompatible"] += 1
        assert tally == {"compatible": 272, "zero": 283, "incompatible": 1789}

    def test_complete_fixed_every_prescription(self):
        """Every in-type per vertex with every out-step per non-spine vertex
        (spine vertices i^1 take the step 1 that (F) forces)."""
        tally = Counter()
        for S, p in _fixed_cases(4, COMPLETE_STEP_SETS, nonneg=True):
            realised = Counter((_frozen(_in_types(f)), _frozen(_out_steps(f)))
                               for f in enumerate_sfunctions(S, p))
            vset = VertexSet(p)
            free = [v for v in vset.vertices() if v.k != 1]
            step_choices = [[s for s in S if 0 <= v.i - s <= p.r] for v in free]
            spine = {Vertex(i, 1): 1 for i in range(1, p.r + 1)}
            for choice in itertools.product(*step_choices):
                steps = {**spine, **dict(zip(free, choice))}
                out = dict(Counter((v.i, s) for v, s in steps.items()))
                for vertex_in in _in_type_prescriptions(p, S.m, set(S)):
                    if _children_of(vertex_in, S.m) == Counter(out):
                        want = realised[(_frozen(vertex_in), _frozen(steps))]
                        assert count_function_family(
                            "complete_fixed", S,
                            vertex_in_types=vertex_in, out=out) == want, (S, str(p))
                        tally["zero" if want == 0 else "compatible"] += 1
                    else:
                        with pytest.raises(REJECTED):
                            count_function_family("complete_fixed", S,
                                                  vertex_in_types=vertex_in, out=out)
                        tally["incompatible"] += 1
        assert tally == {"compatible": 33, "zero": 17, "incompatible": 411}

    def test_impossible_prescriptions_raise(self):
        S = StepSet([-1, 0, 1])
        # profile (1, 1) has one function, in which 0^1 has one preimage
        with pytest.raises(IncompatibleDistribution):
            count_function_family("in_fixed", S, vertex_in_types={
                Vertex(0, 1): (0, 0, 2), Vertex(1, 1): (0, 0, 0)})
        # 1^2 is not a vertex of (1, 1)
        with pytest.raises(IncompatibleDistribution):
            count_function_family("in_fixed", S, vertex_in_types={
                Vertex(0, 1): (0, 0, 1), Vertex(1, 2): (0, 0, 0)})
        # five vertices of out-type (1;1), but only one vertex at abscissa 1
        with pytest.raises(IncompatibleDistribution):
            count_function_family("complete_fixed", PM, vertex_in_types={
                Vertex(0, 1): (0, 0, 1), Vertex(1, 1): (0, 0, 0)}, out={(1, 1): 5})
        # a vertex at abscissa -1: complete types need ell = 0
        with pytest.raises(HypothesisViolation):
            count_function_family("complete_fixed", PM, vertex_in_types={
                Vertex(-1, 1): (0, 0, 0), Vertex(0, 1): (1, 0, 0)}, out={(-1, -1): 1})


def _paper_bracket(S: StepSet, p: Profile) -> int:
    """The paper's ell = -1 and ell = -2 brackets, written out by hand."""
    n = p.count
    if p.ell == -1:
        return sum(n(-s - 1) for s in S if s <= -1)
    assert p.ell == -2
    return (n(-2) * sum(n(-s - 2) for s in S if s <= -2)
            + sum(n(-s - 2) for s in S if s <= -1) * sum(n(-s - 1) for s in S if s <= -1))


def _paper_negative_ell_count(S: StepSet, p: Profile) -> int:
    """(n!/prod n_i!) prod_{i=0}^{r-1} n_i prod_i (sum_s n_{i-s})^{n_i-1}
    times the bracket of ell = -1 or -2."""
    relabelings = math.factorial(p.n) // math.prod(math.factorial(c) for c in p.counts)
    return (relabelings * math.prod(p.count(i) for i in range(0, p.r))
            * math.prod(sum(p.count(i - s) for s in S) ** (ni - 1) for i, ni in p.items())
            * _paper_bracket(S, p))


class TestBeyondMinusOne:
    def test_ell1_specializes(self):
        assert count_cayley_profile_ell1(PM, Profile.parse("2;2,1")) == 720
        for p in profiles_up_to(6):
            if p.ell != -1:
                continue
            assert count_cayley_profile_ell1(PM, p) == count_cayley_profile(PM, p)

    def test_paper_brackets_are_instances(self):
        at_ell = {-1: count_cayley_profile_ell1, -2: count_cayley_profile_ell2}
        for steps in ([-2, -1, 1], [-2, -1, 0, 1], [-3, -1, 1]):
            S = StepSet(steps)
            for p in profiles_up_to(7):
                if p.ell in at_ell:
                    assert count_cayley_profile(S, p) == at_ell[p.ell](S, p) \
                        == _paper_negative_ell_count(S, p), (steps, str(p))

    def test_ell1_oracle_min_step_minus_two(self):
        S = StepSet([-2, -1, 1])
        for counts, ell in [((1, 2, 1, 1), -1), ((2, 1, 1, 1), -1), ((1, 1, 2, 1), -1)]:
            p = Profile(counts, ell=ell)
            oracle = sum(1 for _ in enumerate_embedded_cayley(S, p))
            assert count_cayley_profile_ell1(S, p) == oracle, str(p)

    def test_ell2_oracle_min_step_minus_two(self):
        S = StepSet([-2, -1, 1])
        for counts in [(1, 1, 2, 1), (1, 2, 1, 1), (2, 1, 1, 1), (1, 1, 1, 2)]:
            p = Profile(counts, ell=-2)
            oracle = sum(1 for _ in enumerate_embedded_cayley(S, p))
            assert count_cayley_profile_ell2(S, p) == oracle, str(p)

    def test_wrong_ell_flagged(self):
        with pytest.raises(HypothesisViolation):
            count_cayley_profile_ell1(PM, Profile.parse("1,1"))
        with pytest.raises(HypothesisViolation):
            count_cayley_profile_ell2(PM, Profile.parse("2;2,1"))


S_221 = StepSet([-2, -1, 1])


class TestEmptyAbscissas:
    """Below min S = -1 a tree may leave an abscissa empty; its profile has a
    zero count there, and the library counts it like any other."""

    def test_cayley_closure(self):
        for n in range(1, 7):
            assert profile_law(n, "cayley", S_221).total == n ** (n - 1) * 3 ** (n - 1), n

    def test_sary_closure(self):
        for n in range(1, 8):
            total = sum(count_sary_profile(S_221, p) for p in enumerate_profiles(n, S_221))
            assert total == math.comb(3 * n, n - 1) // n, n

    @pytest.mark.parametrize("steps", [[-2, -1, 1], [-2, 1], [-3, -1, 1], [-2, 0, 1]],
                             ids=str)
    def test_cayley_count_equals_the_sweep(self, steps):
        # every sweep key is enumerated, and counts 0 where the sweep has none
        S = StepSet(steps)
        for n in range(1, 7):
            trees = sweep_embedded_censuses(S, n, ())["count"]
            profiles = list(enumerate_profiles(n, S))
            assert set(trees) <= set(profiles), n
            for p in profiles:
                assert count_cayley_profile(S, p) == trees.get(p, 0), (n, str(p))

    def test_gapped_counts_vanish_for_min_step_minus_one(self):
        for S in (PM, StepSet([-1, 0, 1])):
            for text in ("1,0,1", "1,0;1", "2,0,1;1", "1;1,0,2"):
                p = Profile.parse(text)
                assert count_cayley_profile(S, p) == count_sary_profile(S, p) == 0


class TestTreeInTree:
    def test_path_target_matches_pm_formula(self):
        t = TargetTree.of(0, [(-1, 0), (0, 1)], {-1: 2, 0: 2, 1: 1})
        assert count_tree_in_tree(t) == 720

    def test_point_target_counts_rooted_cayley(self):
        for n in range(1, 6):
            t = TargetTree.of(0, [], {0: n})
            assert count_tree_in_tree(t) == n ** (n - 1)

    def test_star_target_against_oracle(self):
        t = TargetTree.of(0, [(0, 1), (0, 2), (0, 3)], {0: 2, 1: 1, 2: 1, 3: 1})
        assert count_tree_in_tree(t) == count_tree_in_tree_oracle(t)
