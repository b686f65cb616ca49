"""Core types: validation, orderings, conditions, serialization."""

import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from embtrees import (
    EmbeddedCayleyTree,
    HypothesisViolation,
    IncompatibleDistribution,
    InvalidProfile,
    NotInjective,
    PreconditionViolated,
    Profile,
    SAryTree,
    SFunction,
    StepSet,
    TypeDistribution,
    Vertex,
    VertexSet,
    is_injective,
    phi,
    psi,
    sample_embedded_cayley,
    sample_sfunction,
    sary_from_injective,
    satisfies_condition_f,
    type_distribution_of,
    validate_profile_for,
)
from embtrees.core import (
    _arcs,
    _census,
    _census_of,
    _check_distribution,
    _digits,
    embedded_cayley_from_json,
    embedded_cayley_to_json,
    marked_stree_from_json,
    marked_stree_to_json,
    sary_from_json,
    sary_to_json,
    sfunction_from_json,
    sfunction_to_json,
)
from embtrees.oracle import (census_by_type, enumerate_embedded_cayley,
                             enumerate_marked_strees, enumerate_sary,
                             enumerate_sfunctions)

from conftest import ALL_STEP_SETS, profiles_up_to


class TestStepSet:
    def test_max_step_must_be_one(self):
        with pytest.raises(HypothesisViolation):
            StepSet([-1, 2])
        with pytest.raises(HypothesisViolation):
            StepSet([-1, 0])
        with pytest.raises(HypothesisViolation):
            StepSet([])

    def test_accessors(self):
        s = StepSet([1, -2, -1])
        assert s.steps == (-2, -1, 1)
        assert s.m == -2 and s.M == 1
        assert -1 in s and 0 not in s
        assert not s.is_interval()
        assert StepSet([-1, 0, 1]).is_interval()

    def test_parse(self):
        assert StepSet.parse("-1,1").steps == (-1, 1)
        assert StepSet.parse("-2..1").steps == (-2, -1, 0, 1)


class TestProfile:
    def test_parse_paper_notation(self):
        p = Profile.parse("2;2,1")
        assert (p.ell, p.r, p.n) == (-1, 1, 5)
        assert p.counts == (2, 2, 1)
        p0 = Profile.parse("1,2")
        assert (p0.ell, p0.r) == (0, 1)

    def test_str_round_trip(self):
        for text in ["2;2,1", "1,2", "1,1,1,2,1;1", "3"]:
            assert str(Profile.parse(text)) == text

    def test_rejects_bad_profiles(self):
        with pytest.raises(InvalidProfile):
            Profile([1, 0, 1])
        with pytest.raises(InvalidProfile):
            Profile([1, 1], ell=-5)  # r = -4 < 0

    def test_count_outside_range_is_zero(self):
        p = Profile.parse("2;2,1")
        assert p.count(-2) == 0 and p.count(2) == 0 and p.count(0) == 2


class TestValidateProfileFor:
    def test_general_ok(self):
        validate_profile_for(StepSet([-1, 1]), Profile.parse("2;2,1"))

    def test_min_step_below_minus_one_rejected(self):
        for steps, profile in (([-2, -1, 1], "1,1,1,2,1;1"), ([0, 1], "1;1"),
                               ([1], "1;2")):
            with pytest.raises(HypothesisViolation):
                validate_profile_for(StepSet(steps), Profile.parse(profile))

    def test_nonneg_ok(self):
        # ell = 0 needs nothing of min S
        for steps in ([1], [0, 1], [-2, 1], [-2, -1, 1]):
            validate_profile_for(StepSet(steps), Profile.parse("1,2"))


class TestVertexOrder:
    def test_total_order(self):
        assert Vertex(0, 2) < Vertex(1, 1)
        assert Vertex(1, 1) < Vertex(1, 2)
        assert sorted([Vertex(1, 1), Vertex(0, 2), Vertex(0, 1)]) == \
            [Vertex(0, 1), Vertex(0, 2), Vertex(1, 1)]

    def test_vertex_set(self):
        vs = VertexSet(Profile.parse("1;2"))
        assert [str(v) for v in vs.vertices()] == ["-1^1", "0^1", "0^2"]
        assert vs.n == 3


class TestTypeDistribution:
    def test_single_vertex(self):
        f = SFunction(VertexSet(Profile.parse("1")), StepSet([0, 1]), {})
        d = type_distribution_of(f)
        assert d.out_counts == ()
        assert d.inn == {(0, (0, 0)): 1}
        assert d.root_in_type == (0, 0)

    def test_dense_cvector_convention(self):
        # an S-function for S = [-2, 1] in which 0^1 has type (0;eps;0,0,0,1)
        # and 2^1 has type (2;1;1,0,0,1): c-vectors list c^m .. c^1, so the
        # pre-image of 2^1 at step -2 lands in the first slot
        S = StepSet([-2, -1, 0, 1])
        vs = VertexSet(Profile([2, 1, 1, 1]))
        image = {
            Vertex(1, 1): Vertex(0, 1),
            Vertex(2, 1): Vertex(1, 1),
            Vertex(3, 1): Vertex(2, 1),
            Vertex(0, 2): Vertex(2, 1),
        }
        f = SFunction(vs, S, image)
        d = type_distribution_of(f)
        assert d.root_in_type == (0, 0, 0, 1)          # type (0; eps; 0,0,0,1)
        assert d.complete[(2, 1, (1, 0, 0, 1))] == 1   # type (2; 1; 1,0,0,1)

    def test_three_vertex_hand_trace(self):
        # root -> child at 1 -> child at 0 gives out counts {(1,1):1, (0,-1):1}
        S = StepSet([-1, 1])
        tree = enumerate_embedded_cayley(S, Profile.parse("2,1"))
        seen = set()
        for t in tree:
            d = type_distribution_of(t)
            seen.add(d.out_key())
        assert seen == {(((0, -1), 1), ((1, 1), 1))}

    def test_compatibility_checked_on_all_small_objects(self):
        # every oracle tree and function up to n = 5; the census check raises
        # on any identity failure
        S = StepSet([-1, 0, 1])
        checked = 0
        for p in profiles_up_to(5):
            for obj in [*enumerate_marked_strees(S, p),
                        *enumerate_sfunctions(S, p),
                        *enumerate_embedded_cayley(S, p)]:
                type_distribution_of(obj)
                checked += 1
            for obj in enumerate_sary(S, p):
                type_distribution_of(obj, m=S.m)
                checked += 1
        assert checked == 3197 + 3197 + 52441 + 344


def _reference_census(obj, m=None):
    """The census as first written: a dense c-vector list per vertex and
    tuple keys counted vertex by vertex; the reference for the integer-keyed
    type_distribution_of."""
    m = obj.step_set.m if m is None else m
    if isinstance(obj, SAryTree):
        absc, parent, stack = {}, {}, [(obj, None)]
        while stack:
            node, up = stack.pop()
            vid = len(absc)
            absc[vid] = node.abscissa
            if up is not None:
                parent[vid] = up
            stack.extend((child, vid) for _s, child in node.children)
        verts, root = list(absc), 0
    elif isinstance(obj, EmbeddedCayleyTree):
        verts, absc, parent, root = range(1, obj.n + 1), obj.abscissa, obj.parent, obj.root
    else:
        verts = obj.vertex_set.vertices()
        absc = {v: v.i for v in verts}
        if isinstance(obj, SFunction):
            parent, root = obj.image, Vertex(0, 1)
        else:
            parent, root = obj.parent, obj.root
    cvecs = {v: [0] * (2 - m) for v in verts}
    for v, w in parent.items():
        cvecs[w][absc[v] - absc[w] - m] += 1
    out, inn, comp = Counter(), Counter(), Counter()
    for v in verts:
        i, cv = absc[v], tuple(cvecs[v])
        inn[(i, cv)] += 1
        if v != root:
            s = i - absc[parent[v]]
            out[(i, s)] += 1
            comp[(i, s, cv)] += 1
    return TypeDistribution(m, tuple(sorted(out.items())), tuple(sorted(inn.items())),
                            tuple(sorted(comp.items())), tuple(cvecs[root]))


def _unpacked(census):
    """The in and out tables of an integer census on tuple keys."""
    width = 2 - census.m
    span = census.base ** width
    inn, out = {}, {}
    for key, c in census.inn.items():
        i, code = divmod(key, span)
        inn[(i, _digits(code, census.base, width))] = c
    for key, c in census.out.items():
        i, d = divmod(key, width)
        out[(i, d + census.m)] = c
    return inn, out


class TestIntegerCensus:
    """type_distribution_of, counted on packed integer keys, equals the
    tuple-keyed reference census, and so do the integer in and out tables
    that phi and psi compare."""

    # min S from 0 to -3: c-vectors of 2 to 5 digits
    STEP_SETS = [StepSet(s) for s in ([0, 1], [-1, 1], [-1, 0, 1], [-2, -1, 1],
                                      [-3, -1, 1])]

    @staticmethod
    def assert_same(obj, m=None):
        reference = _reference_census(obj, m)
        assert type_distribution_of(obj, m=m) == reference
        census = _census_of(obj) if m is None else _census(*_arcs(obj), m)
        assert _unpacked(census) == (reference.inn, reference.out)

    @pytest.mark.parametrize("S", STEP_SETS, ids=str)
    def test_every_small_object(self, S):
        for p in profiles_up_to(5, nonneg=(S.m != -1) or None):
            for obj in [*enumerate_sfunctions(S, p),
                        *enumerate_marked_strees(S, p)]:
                self.assert_same(obj)
        for p in profiles_up_to(5):
            for obj in enumerate_embedded_cayley(S, p):
                self.assert_same(obj)

    def test_explicit_m_below_min_s(self):
        S = StepSet([-1, 0, 1])
        for p in profiles_up_to(4):
            for obj in [*enumerate_sfunctions(S, p),
                        *enumerate_embedded_cayley(S, p)]:
                for m in (-2, -4):
                    self.assert_same(obj, m)

    def test_sary_trees(self):
        for S in self.STEP_SETS:
            for p in profiles_up_to(5):
                for t in enumerate_sary(S, p):
                    self.assert_same(t, S.m)
                    self.assert_same(t, S.m - 1)

    @pytest.mark.parametrize("steps, step", [([-1, 0, 1], -1), ([-3, -1, 0, 1], -1),
                                             ([-3, -1, 0, 1], 0), ([-3, -1, 0, 1], 1)],
                             ids=str)
    def test_star_has_the_largest_digit(self, steps, step):
        # every child on one step: a digit of n - 1 = base - 1
        S = StepSet(steps)
        for n in (2, 3, 9, 40):
            star = EmbeddedCayleyTree(n, 1, {v: 1 for v in range(2, n + 1)},
                                      {v: 0 if v == 1 else step for v in range(1, n + 1)}, S)
            self.assert_same(star)
            d = type_distribution_of(star)
            cvec = [0] * (2 - S.m)
            cvec[step - S.m] = n - 1
            assert d.root_in_type == tuple(cvec)

    @pytest.mark.parametrize("shape", ["thin", "wide"])
    @pytest.mark.parametrize("ell", [0, -1])
    def test_seeded_samples_at_scale(self, shape, ell):
        S = StepSet([-1, 0, 1])
        rng = random.Random(f"{shape}:{ell}")
        n = 2000
        if shape == "thin":
            counts = [rng.randint(1, 3) for _ in range(n // 2)]
            counts[-1] += n - sum(counts)
            if counts[-1] < 1:
                counts = counts[:-1] + [1]
        else:
            counts = [n // 5] * 5
        ell = -(len(counts) // 3) if ell else 0
        p = Profile(counts, ell=ell)
        f = sample_sfunction(S, p, seed=7)
        tree = phi(f) if ell == 0 else psi(f)
        for obj in (f, tree, sample_embedded_cayley(S, p, seed=7)):
            self.assert_same(obj)


def _reference_check(dist):
    """The census check as first written, one scan of the type table per
    abscissa or per (i, s) key; the reference for the aggregated check."""
    listed = [i for (i, _s), _c in dist.out_counts] + [i for (i, _cv), _c in dist.in_counts]
    lo, hi = min(listed + [0]), max(listed + [0])
    inn = dist.inn
    for i in range(lo + dist.m, hi + 2):
        lhs = 1 if i == 0 else 0
        for (j, cv), c in inn.items():
            for s_idx, cs in enumerate(cv):
                if j + dist.m + s_idx == i:
                    lhs += cs * c
        rhs = sum(c for (j, _cv), c in inn.items() if j == i)
        if lhs != rhs:
            raise IncompatibleDistribution(f"in counts at abscissa {i} do not match")
    comp = dist.complete
    keys = {(i, s) for (i, s, _cv) in comp}
    keys |= {(i, s) for (i, s) in dist.out}
    c0 = dist.root_in_type
    for s_idx, cs in enumerate(c0):
        if cs:
            keys.add((dist.m + s_idx, dist.m + s_idx))
    for (j, _t, cv) in comp:
        for s_idx, cs in enumerate(cv):
            if cs:
                keys.add((j + dist.m + s_idx, dist.m + s_idx))
    for (i, s) in keys:
        lhs = c0[s - dist.m] if i == s else 0
        for (j, _t, cv), c in comp.items():
            if j == i - s:
                lhs += cv[s - dist.m] * c
        rhs = sum(c for (j, t, _cv), c in comp.items() if (j, t) == (i, s))
        if lhs != rhs:
            raise IncompatibleDistribution(f"complete counts at ({i},{s}) do not match")
    for i in range(lo, hi + 1):
        out = (1 if i == 0 else 0) + sum(c for (j, _s), c in dist.out_counts if j == i)
        if out != sum(c for (j, _cv), c in dist.in_counts if j == i):
            raise IncompatibleDistribution(f"out counts at abscissa {i} do not match")


def _verdict(check, dist):
    """None if the check accepts, else the identity family it reports."""
    try:
        check(dist)
    except IncompatibleDistribution as exc:
        return str(exc).split(" counts at ")[0]
    return None


def _bump(table, idx, delta):
    (key, c) = table[idx]
    return table[:idx] + ((key, c + delta),) + table[idx + 1:]


class TestCensusCheck:
    """Each identity family of the census check rejects a hand-perturbed
    census of a real tree."""

    S = StepSet([-1, 0, 1])

    def census(self, seed=3):
        tree = sample_embedded_cayley(self.S, Profile.parse("2,1;3,2,1"), seed=seed)
        return type_distribution_of(tree)

    def test_unperturbed_census_passes(self):
        _check_distribution(self.census())

    def test_out_identity(self):
        # a repeated out row breaks chi_{i=0} + sum_s n(i,s) = sum_c n(i,c)
        d = self.census()
        bad = dataclasses.replace(d, out_counts=d.out_counts + d.out_counts[:1])
        with pytest.raises(IncompatibleDistribution, match="out counts at abscissa"):
            _check_distribution(bad)

    def test_in_identity(self):
        d = self.census()
        leaf = next(idx for idx, ((_i, cv), _c) in enumerate(d.in_counts)
                    if not any(cv))
        bad = dataclasses.replace(d, in_counts=_bump(d.in_counts, leaf, 1))
        with pytest.raises(IncompatibleDistribution, match="in counts at abscissa"):
            _check_distribution(bad)

    def test_complete_identity(self):
        d = self.census()
        leaf = next(idx for idx, ((_i, _s, cv), _c) in enumerate(d.complete_counts)
                    if not any(cv))
        bad = dataclasses.replace(d, complete_counts=_bump(d.complete_counts, leaf, 1))
        with pytest.raises(IncompatibleDistribution, match="complete counts at"):
            _check_distribution(bad)

    def test_root_in_type(self):
        d = self.census()
        root = list(d.root_in_type)
        root[-1] += 1
        bad = dataclasses.replace(d, root_in_type=tuple(root))
        with pytest.raises(IncompatibleDistribution, match="complete counts at"):
            _check_distribution(bad)

    def test_in_identity_below_the_profile(self):
        # with min S = -3 an in-type can claim a child below ell - 2; the
        # identity must hold at every abscissa that either side reaches
        path = EmbeddedCayleyTree(4, 1, {2: 1, 3: 2, 4: 3}, {1: 0, 2: 1, 3: 2, 4: 3},
                                  StepSet([-3, -1, 1]))
        d = type_distribution_of(path)
        assert d.profile() == Profile.parse("1,1,1,1")
        bad = dataclasses.replace(d, in_counts=tuple(
            ((i, (1, 0, 0, 0, 1) if i == 0 else cv), c) for (i, cv), c in d.in_counts))
        with pytest.raises(IncompatibleDistribution, match="in counts at abscissa -3"):
            _check_distribution(bad)

    def test_agrees_with_reference_on_perturbations(self):
        rng = random.Random(20261018)
        rejected = set()
        for trial in range(300):
            d = self.census(seed=trial % 7)
            field = rng.choice(["out_counts", "in_counts", "complete_counts"])
            table = getattr(d, field)
            idx = rng.randrange(len(table))
            if rng.random() < 0.2:
                table = table + table[idx:idx + 1]
            else:
                table = _bump(table, idx, rng.choice([-1, 1]))
            bad = dataclasses.replace(d, **{field: table})
            expected = _verdict(_reference_check, bad)
            assert _verdict(_check_distribution, bad) == expected
            rejected.add(expected)
        assert rejected == {None, "out", "in", "complete"}

    def test_empty_abscissa(self):
        # with min S = -2 a valid tree can leave an abscissa empty: the check
        # must not ask for a positive profile
        S = StepSet([-2, -1, 1])
        tree = EmbeddedCayleyTree(2, 1, {2: 1}, {1: 0, 2: -2}, S)
        d = type_distribution_of(tree)
        assert d.out_key() == (((-2, -2), 1),)
        assert d.in_key() == (((-2, (0, 0, 0, 0)), 1), ((0, (1, 0, 0, 0)), 1))
        assert type_distribution_of(SAryTree(0, ((-2, SAryTree(-2)),)), m=-2) == d
        assert census_by_type([tree], "in") == {d.in_key(): 1}


class TestPositivityRemark:
    def test_embedded_profiles_are_positive_inside_range(self):
        # with max S = 1 the derived profile has n_0..n_{r-1} > 0, and with
        # min S = -1 also n_{ell+1}..n_{-1} > 0; Profile enforces positivity,
        # so constructing it from any enumerated tree must succeed
        for S in ALL_STEP_SETS:
            for p in profiles_up_to(4, nonneg=(S.m != -1) or None):
                for t in enumerate_embedded_cayley(S, p):
                    t.profile()


class TestSAryEquivalence:
    def test_injective_count_is_factorial_times_sary(self):
        import math
        S = StepSet([-1, 1])
        for p in profiles_up_to(5):
            inj = [t for t in enumerate_embedded_cayley(S, p) if is_injective(t)]
            shapes = {sary_to_json(sary_from_injective(t)) for t in inj}
            sary = list(enumerate_sary(S, p))
            assert len(shapes) == len(sary)
            assert len(inj) == math.factorial(p.n) * len(sary)

    def test_non_injective_rejected(self):
        S = StepSet([-1, 1])
        for t in enumerate_embedded_cayley(S, Profile.parse("1,2")):
            if not is_injective(t):
                with pytest.raises(NotInjective):
                    sary_from_injective(t)


class TestEquivalenceAndVertexTypes:
    def test_equivalence_classes_match_paper_shapes(self):
        # (2;2,1) has 7 shapes: 5 asymmetric (5! labelings) + 2 with a
        # symmetry (5!/2 labelings) -> 5*120 + 2*60 = 720
        from embtrees.core import equivalent, shape_key
        S = StepSet([-1, 1])
        trees = list(enumerate_embedded_cayley(S, Profile.parse("2;2,1")))
        classes: dict = {}
        for t in trees:
            classes.setdefault(shape_key(t), []).append(t)
        assert len(classes) == 7
        assert sorted(len(c) for c in classes.values()) == [60, 60] + [120] * 5
        some = next(iter(classes.values()))
        assert equivalent(some[0], some[1])
        other = [c for c in classes.values() if c is not some][0]
        assert not equivalent(some[0], other[0])

    def test_shape_key_partition_matches_nested_reference(self):
        from embtrees.core import shape_key

        def nested(t):  # the recursive canonical form, for small trees
            children = {v: [] for v in range(1, t.n + 1)}
            for v, w in t.parent.items():
                children[w].append(v)

            def encode(v):
                return (t.abscissa[v], tuple(sorted(encode(c) for c in children[v])))
            return encode(t.root)

        for S in (StepSet([-1, 1]), StepSet([-1, 0, 1])):
            for p in profiles_up_to(4):
                by_key: dict = {}
                for t in enumerate_embedded_cayley(S, p):
                    by_key.setdefault(shape_key(t), set()).add(nested(t))
                assert all(len(refs) == 1 for refs in by_key.values())
                assert len({next(iter(r)) for r in by_key.values()}) == len(by_key)

    def test_sary_equality_is_structural(self):
        S = StepSet([-1, 0, 1])
        for p in profiles_up_to(4):
            trees = list(enumerate_sary(S, p))
            texts = [sary_to_json(t) for t in trees]
            for a, ta in zip(trees, texts):
                for b, tb in zip(trees, texts):
                    assert (a == b) == (ta == tb)
                    assert a != b or hash(a) == hash(b)
            assert all(sary_from_json(t) == a for t, a in zip(texts, trees))

    def test_vertex_type_sentinel(self):
        from embtrees.core import vertex_type
        from embtrees import EPS
        S = StepSet([-1, 1])
        f = next(iter(enumerate_sfunctions(S, Profile.parse("2,1"))))
        i, s, cv = vertex_type(f, Vertex(0, 1))
        assert (i, s) == (0, EPS) and cv == (0, 0, 1)
        assert vertex_type(f, Vertex(1, 1))[1] == 1

    def test_constraint_filters(self):
        S = StepSet([-1, 1])
        p = Profile.parse("2;2,1")
        base = list(enumerate_sfunctions(S, p))
        census: dict = {}
        for f in base:
            key = type_distribution_of(f).out_key()
            census[key] = census.get(key, 0) + 1
        for key, count in census.items():
            out = {k: c for k, c in key}
            got = list(enumerate_sfunctions(S, p, constraint=("out_counts", out)))
            assert len(got) == count


class TestIsTree:
    def test_walk(self):
        from embtrees.core import is_tree
        assert is_tree({}, 0)
        assert is_tree({2: 1, 3: 2, 4: 1}, 1)
        assert not is_tree({2: 3, 3: 2}, 1)  # a cycle away from the root
        assert not is_tree({2: 5}, 1)  # a parent outside the domain
        assert not is_tree({2: 1, 3: 4, 4: 3}, 1)

    def test_validation_messages(self):
        from embtrees import EmbeddedCayleyTree
        from embtrees.core import MarkedSTree
        S = StepSet([-1, 1])
        vs = VertexSet(Profile.parse("1,2"))
        loop = {Vertex(1, 1): Vertex(1, 2), Vertex(1, 2): Vertex(1, 1)}
        with pytest.raises(PreconditionViolated, match="not a tree"):
            MarkedSTree(vs, StepSet([-1, 0, 1]), loop, root=Vertex(0, 1),
                        mark=Vertex(1, 1))
        with pytest.raises(PreconditionViolated, match="not a tree"):
            EmbeddedCayleyTree(3, 1, {2: 3, 3: 2}, {1: 0, 2: 1, 3: 1}, S)


class TestDomainChecks:
    """SFunction and MarkedSTree reject a domain that is not V minus the
    root: a missing vertex, a key outside V, or the root itself (the last
    two with the right number of keys)."""

    S = StepSet([-1, 0, 1])
    VS = VertexSet(Profile.parse("2,2"))
    GOOD = {Vertex(1, 1): Vertex(0, 1), Vertex(0, 2): Vertex(0, 1),
            Vertex(1, 2): Vertex(0, 1)}
    BAD = {
        "missing": {Vertex(1, 1): Vertex(0, 1), Vertex(0, 2): Vertex(0, 1)},
        "outside": {Vertex(1, 1): Vertex(0, 1), Vertex(0, 2): Vertex(0, 1),
                    Vertex(1, 3): Vertex(0, 1)},
        "root": {Vertex(1, 1): Vertex(0, 1), Vertex(0, 2): Vertex(0, 1),
                 Vertex(0, 1): Vertex(1, 1)},
    }

    @pytest.mark.parametrize("kind", sorted(BAD))
    def test_sfunction(self, kind):
        SFunction(self.VS, self.S, self.GOOD)
        msg = "image must be defined exactly on V \\ {0^1}"
        with pytest.raises(PreconditionViolated) as err:
            SFunction(self.VS, self.S, self.BAD[kind])
        assert str(err.value) == msg

    @pytest.mark.parametrize("kind", sorted(BAD))
    def test_marked_tree(self, kind):
        from embtrees.core import MarkedSTree
        MarkedSTree(self.VS, self.S, self.GOOD, root=Vertex(0, 1),
                    mark=Vertex(1, 1))
        msg = "parent must be defined exactly on V \\ {root}"
        with pytest.raises(PreconditionViolated) as err:
            MarkedSTree(self.VS, self.S, self.BAD[kind], root=Vertex(0, 1),
                        mark=Vertex(1, 1))
        assert str(err.value) == msg


class TestConditionF:
    def test_spine_forced(self):
        S = StepSet([-1, 1])
        p = Profile.parse("2,1")
        vs = VertexSet(p)
        good = SFunction(vs, S, {Vertex(1, 1): Vertex(0, 1),
                                 Vertex(0, 2): Vertex(1, 1)})
        assert satisfies_condition_f(good)
        bad = SFunction(vs, S, {Vertex(1, 1): Vertex(0, 2),
                                Vertex(0, 2): Vertex(1, 1)})
        assert not satisfies_condition_f(bad)

    def test_image_domain_enforced(self):
        S = StepSet([-1, 1])
        vs = VertexSet(Profile.parse("2,1"))
        with pytest.raises(PreconditionViolated):
            SFunction(vs, S, {Vertex(1, 1): Vertex(0, 1)})  # 0^2 missing
        with pytest.raises(PreconditionViolated):
            SFunction(vs, S, {Vertex(1, 1): Vertex(1, 1),  # 0-step not in S
                              Vertex(0, 2): Vertex(1, 1)})


class TestSerialization:
    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=1,
                    max_size=5),
           st.integers(min_value=-4, max_value=0))
    def test_profile_round_trip(self, counts, ell):
        if ell + len(counts) - 1 < 0:
            ell = -(len(counts) - 1)
        p = Profile(counts, ell=ell)
        assert Profile.parse(str(p)) == p

    def test_step_set_round_trip(self):
        for s in ALL_STEP_SETS:
            assert StepSet.parse(str(s)) == s

    def test_object_round_trips(self):
        S = StepSet([-1, 0, 1])
        p = Profile.parse("1;2,1")
        for f in enumerate_sfunctions(S, p):
            assert sfunction_from_json(sfunction_to_json(f)) == f
        for t in enumerate_marked_strees(S, p):
            assert marked_stree_from_json(marked_stree_to_json(t)) == t
        for t in enumerate_embedded_cayley(S, p):
            assert embedded_cayley_from_json(embedded_cayley_to_json(t)) == t
        for t in enumerate_sary(S, p):
            assert sary_from_json(sary_to_json(t)) == t

    def test_canonical_json_is_bit_exact(self):
        S = StepSet([-1, 1])
        t = next(iter(enumerate_embedded_cayley(S, Profile.parse("2,1"))))
        assert embedded_cayley_to_json(t) == embedded_cayley_to_json(t)
        assert " " not in embedded_cayley_to_json(t)

    MALFORMED_SARY = {
        "two keys for step 1": '{"abscissa":0,"children":{'
                               '"1":{"abscissa":1,"children":{}},'
                               '"01":{"abscissa":1,"children":{}}}}',
        "child off its step": '{"abscissa":0,"children":'
                              '{"1":{"abscissa":5,"children":{}}}}',
        "padded key": '{"abscissa":0,"children":'
                      '{" 1":{"abscissa":1,"children":{}}}}',
        "string abscissa": '{"abscissa":"x","children":{}}',
        "bool abscissa": '{"abscissa":true,"children":{}}',
        "non-integer key": '{"abscissa":0,"children":'
                           '{"a":{"abscissa":1,"children":{}}}}',
        "array node": '[]',
        "array child": '{"abscissa":0,"children":{"1":[]}}',
        "no children": '{"abscissa":0}',
        "no abscissa": '{"children":{}}',
    }

    @pytest.mark.parametrize("kind", sorted(MALFORMED_SARY))
    def test_sary_from_json_rejects_malformed_text(self, kind):
        with pytest.raises(PreconditionViolated):
            sary_from_json(self.MALFORMED_SARY[kind])

    MALFORMED_CAYLEY = {
        "parent and abscissa past n": '{"n":2,"root":1,"parent":[0,1,1],'
                                      '"abscissa":[0,1,5],"steps":[-1,1]}',
        "abscissa past n": '{"n":2,"root":1,"parent":[0,1],'
                           '"abscissa":[0,1,5],"steps":[-1,1]}',
        "lists short of n": '{"n":3,"root":1,"parent":[0,1],'
                            '"abscissa":[0,1],"steps":[-1,1]}',
        "empty object": '{}',
        "array": '[1]',
        "string parent": '{"n":1,"root":1,"parent":"0","abscissa":[0],"steps":[1]}',
    }

    @pytest.mark.parametrize("kind", sorted(MALFORMED_CAYLEY))
    def test_embedded_cayley_from_json_rejects_malformed_text(self, kind):
        with pytest.raises(ValueError):
            embedded_cayley_from_json(self.MALFORMED_CAYLEY[kind])
