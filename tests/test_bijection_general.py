"""The general bijection: case dispatch, round trips, census preservation."""

import pytest

from embtrees import (
    ConditionViolated,
    PreconditionViolated,
    Profile,
    SFunction,
    StepSet,
    Vertex,
    VertexSet,
    classify_case,
    condition_t1,
    condition_t2,
    condition_t2_dblprime,
    condition_t2_prime,
    enumerate_marked_strees,
    enumerate_sfunctions,
    psi,
    psi1,
    psi1_inverse,
    psi2,
    psi_inverse,
    psi_with_trace,
    type_distribution_of,
)
from embtrees.bijection_general import _tree_case

from conftest import profiles_up_to

PM = StepSet([-1, 1])
PM0 = StepSet([-1, 0, 1])


def test_smallest_instance_is_fixed_point():
    p = Profile.parse("1;1")
    f = SFunction(VertexSet(p), PM, {Vertex(-1, 1): Vertex(0, 1)})
    assert classify_case(f) == "A3"
    t = psi(f)
    assert t.parent == {Vertex(-1, 1): Vertex(0, 1)}
    assert t.root == Vertex(0, 1) and t.mark == Vertex(0, 1)
    assert psi_inverse(t) == f


def test_classify_requires_general_setup():
    p = Profile.parse("1,1")
    f = SFunction(VertexSet(p), PM, {Vertex(1, 1): Vertex(0, 1)})
    with pytest.raises(PreconditionViolated):
        classify_case(f)


def test_case_examples():
    # v_0 = 0^1 is in the component of 0^1 -> A3
    p = Profile.parse("1;2")
    vs = VertexSet(p)
    f_a3 = SFunction(vs, PM, {Vertex(-1, 1): Vertex(0, 1),
                              Vertex(0, 2): Vertex(-1, 1)})
    assert classify_case(f_a3) == "A3"
    f_a1 = SFunction(vs, PM, {Vertex(-1, 1): Vertex(0, 2),
                              Vertex(0, 2): Vertex(-1, 1)})
    assert classify_case(f_a1) == "A1"
    # a component with source at abscissa >= 1 -> B
    p2 = Profile.parse("1;2,1")
    vs2 = VertexSet(p2)
    f_b = SFunction(vs2, PM, {Vertex(-1, 1): Vertex(0, 2),
                              Vertex(0, 2): Vertex(1, 1),
                              Vertex(1, 1): Vertex(0, 1)})
    assert classify_case(f_b) == "B"
    # v_0 on a cycle (with a 0 step available) -> A2
    p3 = Profile.parse("1;2")
    f_a2 = SFunction(VertexSet(p3), PM0, {Vertex(-1, 1): Vertex(0, 2),
                                          Vertex(0, 2): Vertex(0, 2)})
    assert classify_case(f_a2) == "A2"


def test_exhaustive_up_to_five():
    for S in (PM, PM0):
        for p in profiles_up_to(5, nonneg=False):
            funcs = list(enumerate_sfunctions(S, p))
            trees = list(enumerate_marked_strees(S, p))
            assert len(funcs) == len(trees), (S, str(p))
            image = set()
            case_counts: dict[str, int] = {}
            for f in funcs:
                case = classify_case(f)
                case_counts[case] = case_counts.get(case, 0) + 1
                t = psi(f)
                assert condition_t1(t) and condition_t2(t)
                assert psi_inverse(t) == f, (S, str(p))
                image.add(t)
                df, dt = type_distribution_of(f), type_distribution_of(t)
                assert df.in_key() == dt.in_key()
                assert df.out_key() == dt.out_key()
            assert image == set(trees), (S, str(p))
            tree_cases: dict[str, int] = {}
            for t in trees:
                c, _meet, _w0 = _tree_case(t)
                tree_cases[c] = tree_cases.get(c, 0) + 1
            assert tree_cases == case_counts, (S, str(p))


def test_case_image_partition_by_t2_variant():
    """Cases A* land in (T2') and case B in (T2''), with counts agreeing
    function-side and tree-side (the two propositions' partition)."""
    p = Profile.parse("2;2,1")
    funcs = list(enumerate_sfunctions(PM, p))
    a_side = sum(1 for f in funcs if classify_case(f) != "B")
    b_side = len(funcs) - a_side
    trees = list(enumerate_marked_strees(PM, p))
    t2p = sum(1 for t in trees if condition_t2_prime(t))
    t2pp = sum(1 for t in trees if condition_t2_dblprime(t))
    assert t2p + t2pp == len(trees)
    assert (a_side, b_side) == (t2p, t2pp)
    for f in funcs:
        t = psi(f)
        if classify_case(f) == "B":
            assert condition_t2_dblprime(t)
        else:
            assert condition_t2_prime(t)


def test_psi1_round_trip():
    checked = 0
    for S in (PM, PM0):
        for p in profiles_up_to(5, nonneg=False):
            for f in enumerate_sfunctions(S, p):
                assert psi1_inverse(psi1(f)) == f, (S, str(p))
                checked += 1
    assert checked == 1999


def test_psi2_involution():
    for S in (PM, PM0):
        for p in profiles_up_to(5, nonneg=False):
            for t in enumerate_marked_strees(S, p):
                assert psi2(psi2(t)) == t, (S, str(p))


def test_complete_type_negative_control_tree_side():
    """Some (T1)+(T2) tree on the (2;2,1) vertex set has a complete-type
    census realized by no (F)-function."""
    p = Profile.parse("2;2,1")
    func_keys = {type_distribution_of(f).complete_key()
                 for f in enumerate_sfunctions(PM, p)}
    witnesses = [t for t in enumerate_marked_strees(PM, p)
                 if type_distribution_of(t).complete_key() not in func_keys]
    assert witnesses, "expected a tree census unrealizable by functions"
    # while in-type censuses are always realized (property (b))
    func_in = {type_distribution_of(f).in_key()
               for f in enumerate_sfunctions(PM, p)}
    for t in enumerate_marked_strees(PM, p):
        assert type_distribution_of(t).in_key() in func_in


def test_invalid_tree_rejected():
    from embtrees import MarkedSTree
    p = Profile.parse("1;2")
    vs = VertexSet(p)
    # rooted at 0^2 marked 0^2: fails (T2)
    t = MarkedSTree(vs, PM, {Vertex(0, 1): Vertex(-1, 1),
                             Vertex(-1, 1): Vertex(0, 2)},
                    root=Vertex(0, 2), mark=Vertex(0, 2))
    with pytest.raises(ConditionViolated):
        psi_inverse(t)


def test_trace_structure():
    p = Profile.parse("1;2,1")
    f = SFunction(VertexSet(p), PM, {Vertex(-1, 1): Vertex(0, 2),
                                     Vertex(0, 2): Vertex(1, 1),
                                     Vertex(1, 1): Vertex(0, 1)})
    t, trace = psi_with_trace(f)
    assert trace["case"] == "B"
    assert "L(1)" in trace["pieces"] and "R(-1)" in trace["pieces"]
    assert trace["v0"] == [0, 2]
