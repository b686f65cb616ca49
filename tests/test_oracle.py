"""The brute-force enumerators themselves: cardinalities, determinism, budgets."""

import itertools
import math
from collections import Counter

import pytest

from embtrees import (
    BudgetExceeded,
    EnumerationBudget,
    Profile,
    SFunction,
    StepSet,
    Vertex,
    census_by_type,
    count_function_family,
    enumerate_embedded_cayley,
    enumerate_marked_strees,
    enumerate_sary,
    enumerate_sfunctions,
    is_injective,
)
from embtrees.core import (
    embedded_cayley_to_json,
    marked_stree_to_json,
    sary_to_json,
    sfunction_to_json,
)
from embtrees.oracle import (
    compatible_distributions,
    rooted_cayley_trees,
    sweep_embedded_censuses,
    sweep_target_censuses,
)

from conftest import ALL_STEP_SETS, ROOTED_TARGET_SHAPES, profiles_up_to

PM = StepSet([-1, 1])


class TestCardinalities:
    def test_forced_function(self):
        funcs = list(enumerate_sfunctions(PM, Profile.parse("2,1")))
        assert len(funcs) == 1

    def test_single_vertex(self):
        funcs = list(enumerate_sfunctions(StepSet([0, 1]), Profile.parse("1")))
        assert len(funcs) == 1 and funcs[0].image == {}

    def test_function_count_matches_lemma(self):
        for S in (PM, StepSet([-1, 0, 1])):
            for p in profiles_up_to(5):
                got = sum(1 for _ in enumerate_sfunctions(S, p))
                assert got == count_function_family("profile", S,
                                                    profile=p)

    def test_trees_equinumerous_with_functions(self):
        for S in ALL_STEP_SETS:
            for p in profiles_up_to(4, nonneg=(S.m != -1) or None):
                nf = sum(1 for _ in enumerate_sfunctions(S, p))
                nt = sum(1 for _ in enumerate_marked_strees(S, p))
                assert nf == nt, (S, str(p))

    def test_marked_tree_pin(self):
        trees = list(enumerate_marked_strees(PM, Profile.parse("1,1")))
        assert len(trees) == 1
        t = trees[0]
        assert t.mark == (1, 1) and t.parent[(1, 1)] == (0, 1)

    def test_embedded_cardinality_pins(self):
        assert sum(1 for _ in enumerate_embedded_cayley(
            PM, Profile.parse("2;2,1"))) == 720
        assert sum(1 for _ in enumerate_sary(PM, Profile.parse("2;2,1"))) == 3

    def test_prime_counterexample_counts(self):
        assert sum(1 for _ in enumerate_sary(
            [-2, -1, 1], Profile.parse("1,1,1,2,1;1"))) == 107
        assert sum(1 for _ in enumerate_sary(
            [-1, 1, 2], Profile.parse("1,1,2,1,1,1"))) == 107

    def test_injective_quotient(self):
        for p in profiles_up_to(5):
            inj = sum(1 for t in enumerate_embedded_cayley(PM, p)
                      if is_injective(t))
            sary = sum(1 for _ in enumerate_sary(PM, p))
            assert inj == math.factorial(p.n) * sary, str(p)


class TestDeterminism:
    def test_streams_deterministic_and_duplicate_free(self):
        p = Profile.parse("1;2,1")
        S = StepSet([-1, 0, 1])
        runs = []
        for _ in range(2):
            runs.append([
                [sfunction_to_json(f)
                 for f in enumerate_sfunctions(S, p)],
                [marked_stree_to_json(t)
                 for t in enumerate_marked_strees(S, p)],
                [embedded_cayley_to_json(t)
                 for t in enumerate_embedded_cayley(S, p)],
                [sary_to_json(t) for t in enumerate_sary(S, p)],
            ])
        assert runs[0] == runs[1]
        for stream in runs[0]:
            assert len(stream) == len(set(stream))


class TestSFunctionArguments:
    STEP_SETS = [StepSet(s) for s in ([1], [0, 1], [-2, 1], [-2, -1, 1])]

    @pytest.mark.parametrize("constraint", [None, "relaxed_spine"])
    @pytest.mark.parametrize("S", STEP_SETS, ids=str)
    def test_every_yielded_function_is_valid(self, S, constraint):
        # the spine arcs that (F) forces at negative abscissas need step -1
        for p in profiles_up_to(4):
            for f in enumerate_sfunctions(S, p, constraint=constraint):
                SFunction(f.vertex_set, f.step_set, f.image)

    def test_spine_needs_step_minus_one(self):
        S = StepSet([0, 1])
        assert list(enumerate_sfunctions(S, Profile.parse("1;1"))) == []
        # with the V_0 clause dropped -1^1 may take the step 0
        relaxed = enumerate_sfunctions(S, Profile.parse("1;1"), constraint="relaxed_spine")
        assert [f.image for f in relaxed] == [{Vertex(-1, 1): Vertex(-1, 1)}]

    @pytest.mark.parametrize("constraint", [
        "injectve", ("out_type", {}), ("out_types",), ["injective"]], ids=str)
    def test_unknown_constraint_raises(self, constraint):
        S, p = StepSet([-1, 0, 1]), Profile.parse("1,2,2")
        assert sum(1 for _ in enumerate_sfunctions(S, p, constraint="injective")) == 12
        with pytest.raises(ValueError, match="unknown constraint"):
            list(enumerate_sfunctions(S, p, constraint=constraint))

    def test_regime_is_the_profile_case(self):
        p = Profile.parse("2;2,1")
        assert (list(enumerate_sfunctions(PM, p, "general"))
                == list(enumerate_sfunctions(PM, p)))
        for regime in ("nonneg", "generl"):
            with pytest.raises(ValueError, match="does not match"):
                list(enumerate_sfunctions(PM, p, regime))
        with pytest.raises(ValueError, match="does not match"):
            list(enumerate_sfunctions(PM, Profile.parse("2,1"), "general"))


class TestBudget:
    def test_size_guard(self):
        with pytest.raises(BudgetExceeded):
            list(enumerate_embedded_cayley(PM, Profile([4, 4]),
                                           EnumerationBudget(max_size=7)))

    def test_step_cap_error(self):
        budget = EnumerationBudget(max_size=10, max_candidates=50)
        with pytest.raises(BudgetExceeded):
            list(enumerate_embedded_cayley(PM, Profile([3, 3]), budget))

    def test_each_call_is_metered_alone(self, monkeypatch):
        p = Profile([2, 2])
        charged = []
        charge = EnumerationBudget.charge

        def counting(budget, amount=1):
            charged.append(amount)
            charge(budget, amount)

        monkeypatch.setattr(EnumerationBudget, "charge", counting)
        trees = list(enumerate_embedded_cayley(PM, p))
        monkeypatch.undo()
        steps = sum(charged)
        assert trees and steps > 1
        # a cap that fits one enumeration but not two in a row
        shared = EnumerationBudget(max_size=10, max_candidates=steps)
        assert list(enumerate_embedded_cayley(PM, p, shared)) == trees
        assert list(enumerate_embedded_cayley(PM, p, shared)) == trees
        with pytest.raises(BudgetExceeded):
            list(enumerate_embedded_cayley(
                PM, p, EnumerationBudget(max_size=10, max_candidates=steps - 1)))


    def test_sweep_size_guard(self):
        with pytest.raises(BudgetExceeded):
            sweep_embedded_censuses(PM, 5, budget=EnumerationBudget(max_size=4))

    def test_sweep_step_cap_error(self):
        budget = EnumerationBudget(max_size=10, max_candidates=50)
        with pytest.raises(BudgetExceeded):
            sweep_embedded_censuses(PM, 4, ("out", "in"), budget)

    def test_target_sweep_size_guard(self):
        with pytest.raises(BudgetExceeded):
            sweep_target_censuses({0: [0]}, 0, 5, EnumerationBudget(max_size=4))

    def test_each_sweep_is_metered_alone(self, monkeypatch):
        charged = []
        charge = EnumerationBudget.charge

        def counting(budget, amount=1):
            charged.append(amount)
            charge(budget, amount)

        monkeypatch.setattr(EnumerationBudget, "charge", counting)
        sweep = sweep_embedded_censuses(PM, 4, ("out",))
        monkeypatch.undo()
        steps = sum(charged)
        assert sweep["out"] and steps > 1
        # a cap that fits one sweep but not two in a row
        shared = EnumerationBudget(max_size=10, max_candidates=steps)
        assert sweep_embedded_censuses(PM, 4, ("out",), shared) == sweep
        assert sweep_embedded_censuses(PM, 4, ("out",), shared) == sweep
        with pytest.raises(BudgetExceeded):
            sweep_embedded_censuses(
                PM, 4, ("out",),
                EnumerationBudget(max_size=10, max_candidates=steps - 1))


class TestTargetSweep:
    @pytest.mark.parametrize("edges, root_node", ROOTED_TARGET_SHAPES, ids=str)
    def test_shape_sweep_matches_every_tree(self, edges, root_node):
        nodes = sorted({v for e in edges for v in e} | {root_node})
        adj = {v: [] for v in nodes}
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        if len(nodes) == 1:
            adj[root_node].append(root_node)
        for n in range(1, 6):
            assert sweep_target_censuses(adj, root_node, n) == \
                _morphism_census(adj, root_node, n), n


def _morphism_census(adj: dict[int, list[int]], root_node: int, n: int) -> dict:
    """Brute force: bucket all rooted Cayley trees with a root-preserving
    morphism to the target by their multiplicity vector, one search per
    tree; the reference for the per-shape sweep_target_censuses."""
    census: dict = {}
    nodes = sorted(adj)
    for root, pairs in rooted_cayley_trees(n):
        parent = dict(pairs)
        children: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
        for v, w in pairs:
            children[w].append(v)
        order = [root]
        stack = [root]
        while stack:
            v = stack.pop()
            for c in children[v]:
                order.append(c)
                stack.append(c)
        place = {root: root_node}
        counts = {node: 0 for node in nodes}
        counts[root_node] = 1

        def assign(idx: int) -> None:
            if idx == len(order):
                key = tuple(counts[node] for node in nodes)
                census[key] = census.get(key, 0) + 1
                return
            v = order[idx]
            for node in adj[place[parent[v]]]:
                counts[node] += 1
                place[v] = node
                assign(idx + 1)
                del place[v]
                counts[node] -= 1

        assign(1)
    return census


class TestCensus:
    def test_profile_census_of_binary_size3(self):
        # all 5 binary trees of size 3 across their vertical profiles
        total = 0
        for p in profiles_up_to(3):
            total += sum(1 for _ in enumerate_sary(PM, p) if True and p.n == 3)
        assert total == 5

    def test_out_census_three_vertices(self):
        census = census_by_type(
            enumerate_embedded_cayley(PM, Profile.parse("2,1")), "out")
        assert census == {(((0, -1), 1), ((1, 1), 1)): 6}

    def test_rooted_tree_cache(self):
        assert len(rooted_cayley_trees(4)) == 4 ** 3
        assert len(rooted_cayley_trees(5)) == 5 ** 4


class TestCompatibleDistributions:
    # distributions over all profiles with n <= 5 (complete: ell = 0 only;
    # with 0 in S, only the root's c-vector can rule one out)
    PINS = {
        (-1, 1): {"out": 188, "in": 241, "complete": 117},
        (-1, 0, 1): {"out": 1264, "in": 2064, "complete": 1101},
        (0, 1): {"out": 372, "in": 656, "complete": 409},
        (-2, -1, 1): {"out": 456, "in": 552, "complete": 176},
    }

    @pytest.mark.parametrize("steps", list(PINS), ids=str)
    def test_counts_up_to_five(self, steps):
        S = StepSet(steps)
        for g, pin in self.PINS[steps].items():
            got = sum(1 for p in profiles_up_to(5, nonneg=(g == "complete") or None)
                      for _ in compatible_distributions(S, p, g))
            assert got == pin, g

    def test_rejected_requests(self):
        with pytest.raises(ValueError, match="unknown granularity"):
            list(compatible_distributions(PM, Profile.parse("2,1"), "profile"))
        with pytest.raises(ValueError, match="ell = 0 only"):
            list(compatible_distributions(PM, Profile.parse("1;1"), "complete"))


def _all_roots_sweep(step_set, n, granularities):
    """The census sweep over every root label, each embedded tree counted
    once and built from its step sequence in one pass: the reference for
    the root-label symmetry of sweep_embedded_censuses."""
    result = {g: {} for g in granularities}
    result["count"] = {}
    m = step_set.m
    for root, pairs in rooted_cayley_trees(n):
        parent = dict(pairs)
        children = {v: [] for v in range(1, n + 1)}
        for v, w in pairs:
            children[w].append(v)
        order = [root]
        stack = [root]
        while stack:
            for c in children[stack.pop()]:
                order.append(c)
                stack.append(c)
        for steps in itertools.product(sorted(step_set), repeat=n - 1):
            absc = {root: 0}
            for v, s in zip(order[1:], steps):
                absc[v] = absc[parent[v]] + s
            counts = Counter(absc.values())
            lo, hi = min(counts), max(counts)
            pkey = (lo, tuple(counts.get(i, 0) for i in range(lo, hi + 1)))
            result["count"][pkey] = result["count"].get(pkey, 0) + 1
            cvecs = {v: [0] * (2 - m) for v in absc}
            for v, w in pairs:
                cvecs[w][absc[v] - absc[w] - m] += 1
            keys = {
                "out": tuple(sorted(Counter(
                    (absc[v], absc[v] - absc[w]) for v, w in pairs).items())),
                "in": tuple(sorted(Counter(
                    (absc[v], tuple(cvecs[v])) for v in absc).items())),
                "complete": (tuple(cvecs[root]), tuple(sorted(Counter(
                    (absc[v], absc[v] - absc[w], tuple(cvecs[v]))
                    for v, w in pairs).items()))),
            }
            for g in granularities:
                bucket = result[g].setdefault(pkey, {})
                bucket[keys[g]] = bucket.get(keys[g], 0) + 1
    return result


class TestSweep:
    GRANULARITIES = ("out", "in", "complete")

    @pytest.mark.parametrize("steps", [[-1, 1], [-1, 0, 1], [0, 1], [-2, -1, 1]],
                             ids=str)
    def test_root_symmetry_matches_all_roots(self, steps):
        S = StepSet(steps)
        for n in range(1, 5):
            assert sweep_embedded_censuses(S, n, self.GRANULARITIES) == \
                _all_roots_sweep(S, n, self.GRANULARITIES), n

    def test_root_symmetry_matches_all_roots_at_five(self):
        S = StepSet([-1, 0, 1])
        sweep = sweep_embedded_censuses(S, 5, self.GRANULARITIES)
        assert sum(sweep["count"].values()) == 5 ** 4 * 3 ** 4
        assert sweep == _all_roots_sweep(S, 5, self.GRANULARITIES)
