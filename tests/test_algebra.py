"""Cycle-configuration identities and exact determinants."""

import random
from fractions import Fraction

import networkx
import pytest

from embtrees import (
    BudgetExceeded,
    CycleGraph,
    Profile,
    StepSet,
    TargetTree,
    bareiss_determinant,
    cayley_from_spanning,
    closed_P,
    closed_P_out,
    closed_P_refined,
    count_cayley_profile,
    count_tree_in_tree,
    count_tree_in_tree_oracle,
    enumerate_cycle_configurations,
    eval_P,
    eval_P_out,
    eval_P_refined,
    eval_out_gf,
    laplacian_minor_det,
    spanning_trees_direct,
    tree_in_tree_det,
)
from embtrees.oracle import compatible_distributions

from conftest import profiles_up_to

PM = StepSet([-1, 1])


class TestConfigurations:
    def test_two_vertices_one_cycle(self):
        g = CycleGraph(0, 1, PM)
        configs = list(enumerate_cycle_configurations(g))
        assert len(configs) == 2  # empty and the 2-cycle (0,1)

    def test_loop(self):
        g = CycleGraph(0, 0, StepSet([0, 1]))
        assert len(list(enumerate_cycle_configurations(g))) == 2

    def test_three_vertices_disjointness(self):
        g = CycleGraph(0, 2, PM)
        # {}, {(0,1)}, {(1,2)}: the two 2-cycles share vertex 1
        assert len(list(enumerate_cycle_configurations(g))) == 3

    def test_run_shapes_match_generic_enumerator(self):
        for steps in ([1], [0, 1], [-1, 1], [-2, -1, 0, 1], [-2, 1]):
            S = StepSet(steps)
            for ell, r in [(0, 0), (0, 3), (-2, 2), (-3, 1)]:
                g = CycleGraph(ell, r, S)
                runs = {frozenset(v) for v, _arcs in g.elementary_cycles()}
                digraph = networkx.DiGraph()
                digraph.add_nodes_from(range(ell, r + 1))
                digraph.add_edges_from((i, i - s) for i in range(ell, r + 1)
                                       for s in S if ell <= i - s <= r)
                generic = {frozenset(c) for c in networkx.simple_cycles(digraph)}
                assert runs == generic, (steps, ell, r)

    def test_span_guard(self):
        with pytest.raises(BudgetExceeded):
            list(enumerate_cycle_configurations(CycleGraph(-7, 7, PM)))


class TestLemmaIdentity:
    def test_two_vertex_example(self):
        g = CycleGraph(0, 1, PM)
        assert eval_P(g, {0: 7, 1: 5}) == 5  # y1 y0 - (y0 - 1) y1 = y1

    def test_base_case(self):
        assert eval_P(CycleGraph(0, 0, StepSet([0, 1])), {0: 9}) == 1
        assert eval_P(CycleGraph(0, 0, StepSet([1])), {0: 9}) == 0

    def test_identity_sweep(self):
        rng = random.Random(7)
        for steps in ([1], [-1, 1], [-1, 0, 1], [-2, -1, 1]):
            S = StepSet(steps)
            for ell in range(-4, 1):
                if ell < 0 and S.m != -1:
                    continue
                for r in range(0, 5):
                    g = CycleGraph(ell, r, S)
                    for _ in range(100):
                        y = {i: rng.randint(1, 40) for i in range(ell, r + 1)}
                        assert eval_P(g, y) == closed_P(g, y), (steps, ell, r, y)

    def test_out_of_hypothesis_failure(self):
        """For S = {-2,-1,1} and ell < 0 the closed form genuinely fails."""
        S = StepSet([-2, -1, 1])
        g = CycleGraph(-1, 1, S)
        y = {-1: 1, 0: 1, 1: 1}
        assert eval_P(g, y) != closed_P(g, y)

    def test_out_identity_sweep(self):
        for steps in ([-1, 1], [-1, 0, 1], [0, 1], [1]):
            S = StepSet(steps)
            for p in profiles_up_to(5, nonneg=(S.m != -1) or None):
                g = CycleGraph(p.ell, p.r, S)
                for out in compatible_distributions(S, p, "out"):
                    assert eval_P_out(g, out) == closed_P_out(g, out), (steps, str(p))

    def test_refined_identity_sweep(self):
        rng = random.Random(11)
        for steps in ([1], [-1, 1], [-1, 0, 1]):
            S = StepSet(steps)
            for ell in range(-3, 1):
                if ell < 0 and S.m != -1:
                    continue
                for r in range(0, 4):
                    g = CycleGraph(ell, r, S)
                    for _ in range(40):
                        y = {i: rng.randint(1, 20) for i in range(ell, r + 1)}
                        x = {(i, s): Fraction(rng.randint(1, 7))
                             for i in range(ell, r + 1) for s in S}
                        assert (eval_P_refined(g, y, x)
                                == closed_P_refined(g, y, x)), (steps, ell, r)

    def test_refined_reduces_to_plain(self):
        g = CycleGraph(-2, 2, PM)
        y = {i: i + 5 for i in range(-2, 3)}
        assert eval_P_refined(g, y) == eval_P(g, y)


def _enumerated_sum(configs, off, on, arc):
    """The configuration sum term by term over the configurations listed by
    enumerate_cycle_configurations."""
    total = 0
    for config in configs:
        term = (-1) ** len(config)
        covered = {v for verts, _arcs in config for v in verts}
        for _verts, arcs in config:
            for tail, s in arcs:
                term *= arc(tail, s)
        for i in off:
            term *= on[i] if i in covered else off[i]
        total += term
    return total


class TestRecurrence:
    def test_equals_enumeration_on_random_graphs(self):
        rng = random.Random(17)
        for _ in range(150):
            m = rng.randint(-4, 1)
            S = StepSet({m, 1} | {s for s in range(m, 1) if rng.random() < 0.5})
            span = rng.randint(0, 10)
            ell = -rng.randint(0, span)
            g = CycleGraph(ell, ell + span, S)
            levels = range(g.ell, g.r + 1)
            y = {i: rng.randint(1, 12) for i in levels}
            x = {(i, s): rng.randint(1, 7) for i in levels for s in S}
            out = {(i, s): rng.randint(0, 4) for i in levels for s in S
                   if g.ell <= i - s <= g.r}
            on = {i: y[i] - (i == 0) for i in levels}
            plain = {i: sum(y.get(i - s, 0) for s in S) for i in levels}
            weighted = {i: sum(y.get(i - s, 0) * x[(i, s)] for s in S) for i in levels}
            n = {i: (i == 0) + sum(out.get((i, s), 0) for s in S) for i in levels}
            configs = list(enumerate_cycle_configurations(g))
            assert eval_P(g, y) == _enumerated_sum(configs, plain, on, lambda i, s: 1)
            assert eval_P_refined(g, y, x) == _enumerated_sum(
                configs, weighted, on, lambda i, s: x[(i, s)]), (S, g.ell, g.r)
            assert eval_P_out(g, out) == _enumerated_sum(
                configs, n, dict.fromkeys(levels, 1), lambda i, s: out.get((i, s), 0))

    def test_runs_past_the_enumeration_guard(self):
        y = {i: 3 + i % 5 for i in range(-100, 101)}
        for steps in ([-2, -1, 0, 1], [-1, 0, 1]):
            g = CycleGraph(-100, 100, StepSet(steps))
            with pytest.raises(BudgetExceeded):
                next(enumerate_cycle_configurations(g))
            assert isinstance(eval_P(g, y), Fraction)
        assert eval_P(g, y) == closed_P(g, y)  # min S = -1: the closed form holds


class TestBareiss:
    def test_small_integer_matrix(self):
        assert bareiss_determinant([[2, 1], [1, 2]]) == 3
        assert bareiss_determinant([[0, 1], [1, 0]]) == -1
        assert bareiss_determinant([]) == 1
        assert bareiss_determinant([[0, 0], [0, 1]]) == 0

    def test_rational_matrix(self):
        m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]]
        assert bareiss_determinant(m) == Fraction(1, 10) - Fraction(1, 12)

    def test_random_against_permanent_expansion(self):
        rng = random.Random(3)
        import itertools
        for _ in range(20):
            k = rng.randint(1, 5)
            m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(k)] for _ in range(k)]
            ref = Fraction(0)
            for perm in itertools.permutations(range(k)):
                sign = 1
                seen = [False] * k
                for start in range(k):  # count cycles for the sign
                    if seen[start]:
                        continue
                    length = 0
                    j = start
                    while not seen[j]:
                        seen[j] = True
                        j = perm[j]
                        length += 1
                    if length % 2 == 0:
                        sign = -sign
                term = Fraction(sign)
                for i in range(k):
                    term *= m[i][perm[i]]
                ref += term
            assert bareiss_determinant(m) == ref


class TestMatrixTree:
    def test_pins(self):
        assert laplacian_minor_det(Profile.parse("2;2,1"), PM) == 12
        assert cayley_from_spanning(Profile.parse("2;2,1"), PM) == 720
        assert cayley_from_spanning(Profile.parse("3"), StepSet([0, 1])) == 9
        assert laplacian_minor_det(Profile.parse("1"), PM) == 1  # 0x0 minor

    def test_minor_equals_direct_enumeration(self):
        rng = random.Random(5)
        for S in (PM, StepSet([-1, 0, 1]), StepSet([0, 1])):
            for p in profiles_up_to(5, nonneg=(S.m != -1) or None):
                if p.n > 5:
                    continue
                w = {(i, s): Fraction(rng.randint(1, 5), rng.randint(1, 3))
                     for i in p.abscissas() for s in S}
                det = laplacian_minor_det(p, S, w)
                direct = spanning_trees_direct(p, S, w)
                assert det == direct, (S, str(p))

    def test_minor_equals_generating_function(self):
        rng = random.Random(9)
        for S in (PM, StepSet([-1, 0, 1]), StepSet([-2, -1, 1])):
            for p in profiles_up_to(8):
                w = {(i, s): Fraction(rng.randint(1, 9))
                     for i in p.abscissas() for s in S}
                assert cayley_from_spanning(p, S, w) == eval_out_gf(S, p, w), \
                    (S, str(p))

    def test_conversion_matches_gf_and_counts(self):
        rng = random.Random(13)
        for p in profiles_up_to(6):
            assert cayley_from_spanning(p, PM) == count_cayley_profile(PM, p)
            w = {(i, s): Fraction(rng.randint(1, 6)) for i in p.abscissas()
                 for s in PM}
            assert cayley_from_spanning(p, PM, w) == eval_out_gf(PM, p, w)


    @pytest.mark.parametrize("n", [20, 40, 60])
    def test_closed_form_matches_bareiss_at_scale(self, n):
        rng = random.Random(n)
        for negative in (False, True, False, True):
            k = rng.randint(3, 8)
            cuts = sorted(rng.sample(range(1, n), k - 1))
            counts = [b - a for a, b in zip([0] + cuts, cuts + [n])]
            p = Profile(counts, ell=-rng.randint(1, k - 1) if negative else 0)
            assert count_cayley_profile(PM, p) == cayley_from_spanning(p, PM) \
                == eval_out_gf(PM, p), str(p)
        for steps in ([-2, -1, 1], [-3, -1, 1], [-3, -2, 0, 1]):
            S = StepSet(steps)
            k = rng.randint(5, 9)
            cuts = sorted(rng.sample(range(1, n), k - 1))
            counts = [b - a for a, b in zip([0] + cuts, cuts + [n])]
            p = Profile(counts, ell=-rng.randint(3, k - 1))
            w = {(i, s): Fraction(rng.randint(1, 9), rng.randint(1, 2))
                 for i in p.abscissas() for s in S}
            assert count_cayley_profile(S, p) == cayley_from_spanning(p, S), (steps, str(p))
            assert eval_out_gf(S, p, w) == cayley_from_spanning(p, S, w), (steps, str(p))

class TestWeights:
    def test_int_fraction_and_outside_keys_agree(self):
        # weights are read as Fractions and default to 1: int values, the
        # same values as Fractions, and extra keys outside [ell, r] agree
        assert eval_out_gf(PM, Profile.parse("2;2,1"), {(0, 1): 2}) == 1200
        for S in (PM, StepSet([-1, 0, 1]), StepSet([-2, -1, 1])):
            for p in profiles_up_to(4):
                ints = {(i, s): (i - s) % 3 + 2 for i in p.abscissas() for s in S}
                fractions = {k: Fraction(v) for k, v in ints.items()}
                outside = {**ints, (p.r + 1, 1): 7, (p.ell - 1, -1): Fraction(1, 3)}
                g = CycleGraph(p.ell, p.r, S)
                y = dict(p.items())
                for f in (lambda w: eval_out_gf(S, p, w),
                          lambda w: eval_P_refined(g, y, w),
                          lambda w: closed_P_refined(g, y, w),
                          lambda w: laplacian_minor_det(p, S, w)):
                    values = [f(w) for w in (ints, fractions, outside)]
                    assert all(type(v) is Fraction for v in values), (S, str(p))
                    assert values[0] == values[1] == values[2], (S, str(p))
                    assert f(None) == f({}), (S, str(p))


class TestTreeInTreeDet:
    def test_pins(self):
        path3 = TargetTree.of(0, [(-1, 0), (0, 1)], {-1: 2, 0: 2, 1: 1})
        assert tree_in_tree_det(path3) == 720
        point = TargetTree.of(0, [], {0: 4})
        assert tree_in_tree_det(point) == 64

    def test_against_formula_and_oracle(self):
        targets = [
            TargetTree.of(0, [], {0: 5}),
            TargetTree.of(0, [(0, 1)], {0: 2, 1: 3}),
            TargetTree.of(1, [(0, 1), (1, 2)], {0: 2, 1: 1, 2: 2}),
            TargetTree.of(0, [(0, 1), (0, 2), (0, 3)], {0: 1, 1: 2, 2: 1, 3: 1}),
        ]
        for t in targets:
            det = tree_in_tree_det(t)
            assert det == count_tree_in_tree(t)
            assert det == count_tree_in_tree_oracle(t)
