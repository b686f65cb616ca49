"""The non-negative bijection: round trips, type preservation, involution."""

import pytest

from embtrees import (
    ConditionTViolated,
    PreconditionViolated,
    Profile,
    SFunction,
    StepSet,
    Vertex,
    VertexSet,
    condition_t,
    enumerate_marked_strees,
    enumerate_sfunctions,
    phi,
    phi1,
    phi1_inverse,
    phi2,
    phi_inverse,
    phi_with_trace,
    type_distribution_of,
)
from embtrees.oracle import census_by_type

from conftest import ALL_STEP_SETS, profiles_up_to

PM = StepSet([-1, 1])


def test_forced_three_vertex_chain():
    f = next(iter(enumerate_sfunctions(PM, Profile.parse("2,1"))))
    t = phi(f)
    assert t.root == Vertex(0, 1)
    assert phi_inverse(t) == f


def test_two_vertex_trivial():
    f = next(iter(enumerate_sfunctions(PM, Profile.parse("1,1"))))
    t = phi(f)
    assert t.mark == Vertex(1, 1) and t.parent[Vertex(1, 1)] == Vertex(0, 1)
    assert phi_inverse(t) == f


def test_preconditions():
    vs = VertexSet(Profile.parse("2,1"))
    bad = SFunction(vs, PM, {Vertex(1, 1): Vertex(0, 2),
                             Vertex(0, 2): Vertex(1, 1)})
    with pytest.raises(PreconditionViolated):
        phi1(bad)
    # a tree violating (T): mark path enters V_0 at 0^1 without 1^1 before it
    trees = list(enumerate_marked_strees(PM, Profile.parse("2,2")))
    all_parent_maps = set()
    for t in trees:
        all_parent_maps.add(tuple(sorted(t.parent.items())))
    # build a marked tree failing (T) by hand: 1^1 -> 0^1, 1^2 -> 0^1,
    # 0^2 -> 1^2, mark 1^2: first V_0 vertex after mark is 0^1 preceded by 1^2
    from embtrees import MarkedSTree
    t_bad = MarkedSTree(VertexSet(Profile.parse("2,2")), PM,
                        {Vertex(1, 1): Vertex(0, 1),
                         Vertex(1, 2): Vertex(0, 1),
                         Vertex(0, 2): Vertex(1, 2)},
                        root=Vertex(0, 1), mark=Vertex(1, 2))
    assert not condition_t(t_bad)
    with pytest.raises(ConditionTViolated):
        phi1_inverse(t_bad)


def test_exhaustive_round_trip_and_types():
    for S in ALL_STEP_SETS:
        for p in profiles_up_to(5, nonneg=True):
            funcs = list(enumerate_sfunctions(S, p))
            trees = set(enumerate_marked_strees(S, p))
            image = set()
            for f in funcs:
                t = phi(f)
                assert condition_t(t)
                assert phi_inverse(t) == f
                image.add(t)
                # out-types preserved pointwise
                for v, w in f.image.items():
                    assert v.i - w.i == v.i - t.parent[v].i, (S, str(p), v)
                df, dt = type_distribution_of(f), type_distribution_of(t)
                assert df.in_key() == dt.in_key()
                if 0 not in S:
                    assert df.complete_key() == dt.complete_key()
            assert image == trees, (S, str(p))


def test_phi1_identity_composition():
    for S in (StepSet([0, 1]), StepSet([-2, 0, 1])):
        for p in profiles_up_to(4, nonneg=True):
            for f in enumerate_sfunctions(S, p):
                t1 = phi1(f)
                assert phi1_inverse(t1) == f
            for t in enumerate_marked_strees(S, p):
                assert phi1(phi1_inverse(t)) == t


def test_phi2_involution_and_identity_without_zero_step():
    for S in ALL_STEP_SETS:
        for p in profiles_up_to(4, nonneg=True):
            for t in enumerate_marked_strees(S, p):
                t2 = phi2(t)
                assert phi2(t2) == t
                if 0 not in S:
                    assert t2 == t


def test_complete_type_negative_control():
    """With {0,1} in S, the function f(1^1)=0^1, f(0^2)=0^2 has a complete
    type census no marked S-tree on V realizes."""
    for S in (StepSet([0, 1]), StepSet([-1, 0, 1]), StepSet([-2, -1, 0, 1])):
        p = Profile.parse("2,1")
        vs = VertexSet(p)
        f = SFunction(vs, S, {Vertex(1, 1): Vertex(0, 1),
                              Vertex(0, 2): Vertex(0, 2)})
        f_key = type_distribution_of(f).complete_key()
        tree_keys = {type_distribution_of(t).complete_key()
                     for t in enumerate_marked_strees(S, p)}
        assert f_key not in tree_keys, S
        # but the in-type census IS realized (property (b))
        in_keys = {type_distribution_of(t).in_key()
                   for t in enumerate_marked_strees(S, p)}
        assert type_distribution_of(f).in_key() in in_keys


def test_in_census_is_distributional_not_pointwise():
    """With 0 in S some vertex must change its own in-type even though the
    census is preserved."""
    S = StepSet([0, 1])
    found_pointwise_change = False
    for p in profiles_up_to(4, nonneg=True):
        for f in enumerate_sfunctions(S, p):
            t = phi(f)
            f_pre = {v: [] for v in f.vertex_set.vertices()}
            for v, w in f.image.items():
                f_pre[w].append(v.i)
            t_pre = {v: [] for v in f.vertex_set.vertices()}
            for v, w in t.parent.items():
                t_pre[w].append(v.i)
            if any(sorted(f_pre[v]) != sorted(t_pre[v]) for v in f_pre):
                found_pointwise_change = True
    assert found_pointwise_change


def test_trace_structure():
    f = next(iter(enumerate_sfunctions(PM, Profile.parse("2,1"))))
    t, trace = phi_with_trace(f)
    assert trace["regime"] == "nonneg"
    assert trace["concatenation"][0] == [trace["pieces"][0]["source"][0],
                                         trace["pieces"][0]["source"][1]]
    assert all(pc["path"] for pc in trace["pieces"])


def test_frustration_alternation_exercised():
    """Sweeps with 0 in S hit nonempty frustration records; the alternation
    asserts inside phi run on every input."""
    S = StepSet([0, 1])
    nonempty = 0
    for p in profiles_up_to(5, nonneg=True):
        for f in enumerate_sfunctions(S, p):
            _t, trace = phi_with_trace(f)
            if trace["frustration"]:
                nonempty += 1
    assert nonempty > 0


def test_census_level_equality_per_profile():
    for S in (StepSet([0, 1]), PM):
        for p in profiles_up_to(4, nonneg=True):
            funcs = list(enumerate_sfunctions(S, p))
            trees = list(enumerate_marked_strees(S, p))
            assert census_by_type(funcs, "in") == census_by_type(trees, "in")
            assert census_by_type(funcs, "out") == census_by_type(trees, "out")
