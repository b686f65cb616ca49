"""Acceptance suite: one test per criterion, runnable standalone.

Run as `pytest tests/test_acceptance.py -v` (one pass/fail line per
criterion) or `python tests/test_acceptance.py` for explicit PASS/FAIL lines.

Criterion 2 note: the source text prints the embedded-tree count for the
min-step -2 counterexample profile as 6!(3*107)/2 = 115560, and the spec pins
that number.  The count of S-embedded Cayley trees with profile
(1,1,1,2,1;1) (7 vertices) is actually 7!(3*107)/2 = 808920: the printed
count is below even the injective subfamily 7!*107 = 539280, and the naive
oracle, an independent Lagrange-Good evaluation and count_cayley_profile all
agree on 808920.
The criterion is implemented as stated and fails; the corrected value is
pinned by its own test.  See the decisions ledger.
"""

from __future__ import annotations

import functools
import math
import random
import sys
import time
from fractions import Fraction

import scipy.stats

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from conftest import (ALL_STEP_SETS, ROOTED_TARGET_SHAPES, compositions,
                      profiles_of_size, profiles_up_to)

from embtrees import (
    CycleGraph,
    Profile,
    StepSet,
    TargetTree,
    Vertex,
    VertexSet,
    SFunction,
    cayley_from_spanning,
    closed_P,
    closed_P_out,
    closed_P_refined,
    count_binary_profile,
    count_cayley_complete,
    count_cayley_in,
    count_cayley_out,
    count_cayley_profile,
    count_sary_in,
    count_sary_out,
    count_sary_profile,
    count_tree_in_tree,
    enumerate_embedded_cayley,
    enumerate_marked_strees,
    enumerate_sary,
    enumerate_sfunctions,
    eval_P,
    eval_P_out,
    eval_P_refined,
    laplacian_minor_det,
    phi,
    phi2,
    phi_inverse,
    profile_law,
    psi,
    psi2,
    psi_inverse,
    sample_embedded_cayley,
    sample_sary,
    sample_sfunction,
    spanning_trees_direct,
    tree_in_tree_det,
    type_distribution_of,
)
from embtrees.core import embedded_cayley_to_json, sary_to_json, sfunction_to_json
from embtrees.oracle import (
    EnumerationBudget,
    compatible_distributions,
    sweep_embedded_censuses,
    sweep_target_censuses,
)

MAX_N = 6
PM = StepSet([-1, 1])
SEED = 20260810  # documented seed for the probabilistic criterion
BIG = EnumerationBudget(max_size=8, max_candidates=10 ** 10)


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} {criterion}" + (f": {detail}" if detail else ""), flush=True)


# ---------------------------------------------------------------------------
# criterion 1: paper regressions
# ---------------------------------------------------------------------------

def test_criterion_1_paper_regressions():
    t0 = time.time()
    assert count_binary_profile(Profile.parse("2;2,1")) == 3
    assert count_cayley_profile(PM, Profile.parse("2;2,1")) == 720
    assert count_cayley_profile(StepSet([0, 1]), Profile.parse("3")) == 9
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report("criterion 1 (paper regressions 3/720/9)", True,
            f"{elapsed:.3f}s")


# ---------------------------------------------------------------------------
# criterion 2: prime-count regressions
# ---------------------------------------------------------------------------

def test_criterion_2_sary_prime_counts():
    t0 = time.time()
    a = sum(1 for _ in enumerate_sary([-2, -1, 1],
                                      Profile.parse("1,1,1,2,1;1"), BIG))
    b = sum(1 for _ in enumerate_sary([-1, 1, 2],
                                      Profile.parse("1,1,2,1,1,1"), BIG))
    ok = (a == 107 and b == 107)
    _report("criterion 2a (oracle S-ary counts 107/107)", ok,
            f"{time.time() - t0:.1f}s")
    assert ok


@functools.cache
def _embedded_counterexample_counts() -> tuple[int, int]:
    a = sum(1 for _ in enumerate_embedded_cayley(
        [-2, -1, 1], Profile.parse("1,1,1,2,1;1"), BIG))
    b = sum(1 for _ in enumerate_embedded_cayley(
        [-1, 1, 2], Profile.parse("1,1,2,1,1,1"), BIG))
    return a, b


def test_criterion_2_embedded_counts_as_specified():
    """The spec pins 115560 = 6!(3*107)/2; the actual count of the named
    objects is 7!(3*107)/2 = 808920 (see the module docstring and the
    decisions ledger), so this criterion fails as stated."""
    t0 = time.time()
    a, b = _embedded_counterexample_counts()
    ok = (a == 115560 and b == 115560)
    _report("criterion 2b (oracle embedded-Cayley counts pinned at 115560)",
            ok, f"got {a}/{b} in {time.time() - t0:.1f}s"
                " -- spec pin inherits a factorial typo; see ledger")
    assert ok, (
        f"spec pins 115560 = 6!(3*107)/2 but the count of S-embedded Cayley "
        f"trees with these profiles is {a} = 7!(3*107)/2; the printed 6! is "
        f"inconsistent with the injective subcount 7!*107 = 539280 and with "
        f"the Lagrange-Good evaluation (see decisions ledger)")


def test_criterion_2_embedded_counts_corrected_value():
    """Companion pin: the verified count, via the oracle AND an independent
    Lagrange-Good evaluation of the same number."""
    a, b = _embedded_counterexample_counts()
    expected = math.factorial(7) * 3 * 107 // 2
    assert a == b == expected == 808920
    assert _lagrange_good_count([-2, -1, 1], Profile.parse("1,1,1,2,1;1")) \
        == expected
    assert count_cayley_profile(StepSet([-2, -1, 1]),
                                Profile.parse("1,1,1,2,1;1")) == expected


def _lagrange_good_count(steps, profile: Profile) -> int:
    """n! [x^n] A_0 via the determinant expansion over cycle configurations
    (independent of the oracle and of the closed-form module)."""
    steps = sorted(steps)
    ell, r, n = profile.ell, profile.r, profile.n
    cycles = []
    for s in steps:
        if s == 1:
            continue
        for i in range(ell, r + 1):
            if ell <= i - s <= r:
                cycles.append(frozenset(range(i, i - s + 1)))

    def configs(idx, used, k):
        if idx == len(cycles):
            yield used, k
            return
        yield from configs(idx + 1, used, k)
        if not (cycles[idx] & used):
            yield from configs(idx + 1, used | cycles[idx], k + 1)

    total = Fraction(0)
    for used, k in configs(0, frozenset(), 0):
        term = Fraction((-1) ** k)
        for i in range(ell, r + 1):
            e = profile.count(i) - (1 if i == 0 else 0) - (1 if i in used else 0)
            if e < 0:
                term = Fraction(0)
                break
            base = sum(profile.count(i - s) for s in steps)
            term *= Fraction(base ** e, math.factorial(e))
        total += term
    return int(math.factorial(n) * total)


# ---------------------------------------------------------------------------
# criterion 3: formula == oracle for every theorem, pointwise
# ---------------------------------------------------------------------------

def test_criterion_3_formula_equals_oracle():
    t0 = time.time()
    checked = {"profile": 0, "sary": 0, "out": 0, "sary_out": 0, "in": 0,
               "sary_in": 0, "complete": 0}
    for S in ALL_STEP_SETS:
        grans = ["out", "in"]
        if 0 not in S:
            grans.append("complete")
        for n in range(1, MAX_N + 1):
            sweep = sweep_embedded_censuses(S, n, tuple(grans), BIG)
            for p in profiles_of_size(n):
                _check_profile_against_sweep(S, p, sweep, checked)
    elapsed = time.time() - t0
    _report("criterion 3 (Theorems 2.1-2.6 == oracle, pointwise)", True,
            f"{checked} in {elapsed:.0f}s")
    assert elapsed < 600


def _check_profile_against_sweep(S: StepSet, p: Profile, sweep: dict,
                                 checked: dict) -> None:
    pkey = (p.ell, p.counts)
    observed = sweep["count"].get(pkey, 0)
    hypotheses_ok = (p.ell == 0 or S.m == -1)

    # Theorem 2.1 / 2.2: profiles, and their Lagrange-Good expansion where
    # the paper's hypothesis min S = -1 or ell = 0 fails
    sary_census: dict = {}
    sary_objects = list(enumerate_sary(S, p, BIG))
    assert count_cayley_profile(S, p) == observed, (S, str(p))
    assert count_sary_profile(S, p) == len(sary_objects), (S, str(p))
    checked["profile"] += 1
    checked["sary"] += 1
    if not hypotheses_ok:
        return  # the type theorems keep their hypothesis

    # Theorem 2.3 / 2.4: out-types, pointwise over all compatible counts
    out_census = sweep["out"].get(pkey, {})
    for t in sary_objects:
        key = type_distribution_of(t, m=S.m).out_key()
        sary_census[key] = sary_census.get(key, 0) + 1
    seen_keys = set()
    for out in compatible_distributions(S, p, "out"):
        key = tuple(sorted(out.items()))
        seen_keys.add(key)
        assert count_cayley_out(S, out) == out_census.get(key, 0), (S, str(p), out)
        assert count_sary_out(S, out) == sary_census.get(key, 0), (S, str(p), out)
        checked["out"] += 1
        checked["sary_out"] += 1
    assert set(out_census) <= seen_keys
    assert set(sary_census) <= seen_keys

    # Theorem 2.5 (+ S-ary remark): in-types over the interval [m, 1]
    interval = StepSet(range(S.m, 2))
    if p.ell == 0 or S.m == -1:
        in_census = sweep["in"].get(pkey, {})
        sary_in_census: dict = {}
        for t in sary_objects:
            key = type_distribution_of(t, m=S.m).in_key()
            sary_in_census[key] = sary_in_census.get(key, 0) + 1
        seen_in = set()
        for inn in compatible_distributions(S, p, "in"):
            key = tuple(sorted(inn.items()))
            seen_in.add(key)
            assert count_cayley_in(interval, inn) == in_census.get(key, 0), \
                (S, str(p), inn)
            checked["in"] += 1
            if all(max(cv) <= 1 for (_i, cv) in inn):
                assert count_sary_in(interval, inn) == \
                    sary_in_census.get(key, 0), (S, str(p), inn)
                checked["sary_in"] += 1
        assert set(in_census) <= seen_in

    # Theorem 2.6: complete types (0 not in S, non-negative profiles)
    if 0 not in S and p.ell == 0:
        formula_steps = StepSet(list(range(S.m, 0)) + [1])
        comp_census = sweep["complete"].get(pkey, {})
        seen_c = set()
        for root_cv, comp in compatible_distributions(S, p, "complete"):
            key = (root_cv, tuple(sorted(comp.items())))
            seen_c.add(key)
            assert count_cayley_complete(formula_steps, root_cv, comp) == \
                comp_census.get(key, 0), (S, str(p), root_cv, comp)
            checked["complete"] += 1
        assert set(comp_census) <= seen_c


# ---------------------------------------------------------------------------
# criterion 4: the bijection suite
# ---------------------------------------------------------------------------

def test_criterion_4_bijections():
    t0 = time.time()
    phi_count = _criterion_4_phi()
    psi_count = _criterion_4_psi()
    _criterion_4_negative_controls()
    elapsed = time.time() - t0
    _report("criterion 4 (bijection suite)", True,
            f"phi on {phi_count} and psi on {psi_count} functions, "
            f"{elapsed:.0f}s")
    assert elapsed < 600


def _criterion_4_phi() -> int:
    total = 0
    for S in ALL_STEP_SETS:
        for p in profiles_up_to(MAX_N, nonneg=True):
            funcs = list(enumerate_sfunctions(S, p, "nonneg", budget=BIG))
            trees = set(enumerate_marked_strees(S, p, "nonneg", budget=BIG))
            image = set()
            for f in funcs:
                t = phi(f)
                assert phi_inverse(t) == f
                image.add(t)
                for v, w in f.image.items():
                    assert w.i == t.parent[v].i  # out-type per vertex
                df, dt = type_distribution_of(f), type_distribution_of(t)
                assert df.in_key() == dt.in_key()
                if 0 not in S:
                    assert df.complete_key() == dt.complete_key()
            assert image == trees, (S, str(p))
            for t in trees:
                assert phi2(phi2(t)) == t
            total += len(funcs)
    return total


def _criterion_4_psi() -> int:
    total = 0
    for S in (PM, StepSet([-1, 0, 1])):
        for p in profiles_up_to(MAX_N, nonneg=False):
            funcs = list(enumerate_sfunctions(S, p, "general", budget=BIG))
            trees = set(enumerate_marked_strees(S, p, "general", budget=BIG))
            image = set()
            for f in funcs:
                t = psi(f)
                assert psi_inverse(t) == f
                image.add(t)
                df, dt = type_distribution_of(f), type_distribution_of(t)
                assert df.in_key() == dt.in_key()
                assert df.out_key() == dt.out_key()
            assert image == trees, (S, str(p))
            for t in trees:
                assert psi2(psi2(t)) == t
            total += len(funcs)
    return total


def _criterion_4_negative_controls() -> None:
    # a function census no tree realizes (0 in S)
    S = StepSet([0, 1])
    p = Profile.parse("2,1")
    f = SFunction(VertexSet(p), S, {Vertex(1, 1): Vertex(0, 1),
                                    Vertex(0, 2): Vertex(0, 2)})
    f_key = type_distribution_of(f).complete_key()
    tree_keys = {type_distribution_of(t).complete_key()
                 for t in enumerate_marked_strees(S, p, "nonneg")}
    assert f_key not in tree_keys
    # a tree census no function realizes (general regime)
    p2 = Profile.parse("2;2,1")
    func_keys = {type_distribution_of(g).complete_key()
                 for g in enumerate_sfunctions(PM, p2, "general")}
    witnesses = [t for t in enumerate_marked_strees(PM, p2, "general")
                 if type_distribution_of(t).complete_key() not in func_keys]
    assert witnesses


# ---------------------------------------------------------------------------
# criterion 5: closure sums
# ---------------------------------------------------------------------------

def test_criterion_5_closures():
    t0 = time.time()
    catalan = [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
    for n, expected in zip(range(1, 11), catalan):
        total = sum(count_binary_profile(p) for p in profiles_of_size(n))
        assert total == expected == math.comb(2 * n, n) // (n + 1), n

    ternary = [1, 3, 12, 55, 273, 1428, 7752]
    S3 = StepSet([-1, 0, 1])
    for n, expected in zip(range(1, 8), ternary):
        total = sum(count_sary_profile(S3, p) for p in profiles_of_size(n))
        assert total == expected == math.comb(3 * n, n) // (2 * n + 1), n

    for n in range(1, 8):
        total = sum(count_cayley_profile(PM, p) for p in profiles_of_size(n))
        assert total == n ** (n - 1) * 2 ** (n - 1), n
    _report("criterion 5 (Catalan/ternary/Cayley closures)", True,
            f"{time.time() - t0:.1f}s")


# ---------------------------------------------------------------------------
# criterion 6: algebra identities and determinants
# ---------------------------------------------------------------------------

def test_criterion_6_algebra():
    t0 = time.time()
    rng = random.Random(SEED)
    points = 0
    for steps in ([1], [0, 1], [-1, 1], [-1, 0, 1], [-2, -1, 1], [-2, -1, 0, 1]):
        S = StepSet(steps)
        for ell in range(-4, 1):
            if ell < 0 and S.m != -1:
                continue
            for r in range(0, 5):
                g = CycleGraph(ell, r, S)
                for _ in range(100):
                    y = {i: rng.randint(1, 25) for i in range(ell, r + 1)}
                    assert eval_P(g, y) == closed_P(g, y)
                    x = {(i, s): Fraction(rng.randint(1, 7))
                         for i in range(ell, r + 1) for s in S}
                    assert eval_P_refined(g, y, x) == closed_P_refined(g, y, x)
                    points += 1
    # (ide2) over compatible out-distributions
    for S in (PM, StepSet([-1, 0, 1]), StepSet([1])):
        for p in profiles_up_to(5, nonneg=(S.m != -1) or None):
            g = CycleGraph(p.ell, p.r, S)
            for out in compatible_distributions(S, p, "out"):
                assert eval_P_out(g, out) == closed_P_out(g, out)
                points += 1
    # documented out-of-hypothesis failure
    bad = CycleGraph(-1, 1, StepSet([-2, -1, 1]))
    y = {-1: 1, 0: 1, 1: 1}
    assert eval_P(bad, y) != closed_P(bad, y)
    # determinant pins and the index-range correction
    assert laplacian_minor_det(Profile.parse("2;2,1"), PM) == 12
    assert cayley_from_spanning(Profile.parse("2;2,1"), PM) == 720
    # determinant == direct spanning-tree enumeration up to n=6
    for S in (PM, StepSet([-1, 0, 1])):
        for p in profiles_up_to(5):
            w = {(i, s): Fraction(rng.randint(1, 5), rng.randint(1, 3))
                 for i in p.abscissas() for s in S}
            assert laplacian_minor_det(p, S, w) == spanning_trees_direct(p, S, w)
    for p in (Profile.parse("2;2,2"), Profile.parse("1;3,2"),
              Profile.parse("2,2,2"), Profile.parse("1;2,2,1")):
        assert laplacian_minor_det(p, PM) == spanning_trees_direct(p, PM)
    elapsed = time.time() - t0
    _report("criterion 6 (cycle identities + determinants)", True,
            f"{points} identity points, {elapsed:.0f}s")
    assert elapsed < 300


# ---------------------------------------------------------------------------
# criterion 7: sampler statistics
# ---------------------------------------------------------------------------

def _chi_square_p(counts: dict, support: int, draws: int) -> float:
    expected = draws / support
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    stat += (support - len(counts)) * expected
    return scipy.stats.chi2.sf(stat, support - 1)


def test_criterion_7_sampler_statistics():
    t0 = time.time()
    pvals = {}
    # embedded Cayley trees over the 720-tree support
    p = Profile.parse("2;2,1")
    support = {embedded_cayley_to_json(t)
               for t in enumerate_embedded_cayley(PM, p)}
    assert len(support) == 720
    rng = random.Random(SEED)
    counts: dict = {}
    draws = 200 * len(support)
    for _ in range(draws):
        key = embedded_cayley_to_json(sample_embedded_cayley(PM, p, rng))
        assert key in support
        counts[key] = counts.get(key, 0) + 1
    pvals["cayley(2;2,1)"] = _chi_square_p(counts, len(support), draws)

    # (F)-functions over the 12-function support
    fsupport = {sfunction_to_json(f)
                for f in enumerate_sfunctions(PM, p, "general")}
    counts = {}
    draws = 200 * len(fsupport)
    for _ in range(draws):
        key = sfunction_to_json(sample_sfunction(PM, p, "general", rng))
        assert key in fsupport
        counts[key] = counts.get(key, 0) + 1
    pvals["function(2;2,1)"] = _chi_square_p(counts, len(fsupport), draws)

    # S-ary trees over the 3-tree support
    ssupport = {sary_to_json(t) for t in enumerate_sary(PM, p)}
    counts = {}
    draws = 200 * len(ssupport) * 10
    for _ in range(draws):
        key = sary_to_json(sample_sary(PM, p, rng))
        assert key in ssupport
        counts[key] = counts.get(key, 0) + 1
    pvals["sary(2;2,1)"] = _chi_square_p(counts, len(ssupport), draws)

    for name, pval in pvals.items():
        assert pval > 1e-3, (name, pval)

    # exact law normalization for n <= 10
    for n in range(1, 11):
        law = profile_law(n, "binary")
        assert sum(prob for _k, prob in law.masses) == Fraction(1)
    _report("criterion 7 (sampler statistics, seed %d)" % SEED, True,
            "p-values " + ", ".join(f"{k}={v:.3f}" for k, v in pvals.items())
            + f", {time.time() - t0:.0f}s")


# ---------------------------------------------------------------------------
# criterion 8: trees embedded in trees
# ---------------------------------------------------------------------------

def test_criterion_8_tree_in_tree():
    t0 = time.time()
    checked = 0
    for edges, root_node in ROOTED_TARGET_SHAPES:
        nodes = sorted({v for e in edges for v in e} | {root_node})
        k = len(nodes)
        adj: dict[int, list[int]] = {v: [] for v in nodes}
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        if k == 1:
            adj[root_node].append(root_node)
        for n in range(k, 8):
            census = sweep_target_censuses(adj, root_node, n)
            for counts in compositions(n, k):
                target = TargetTree.of(root_node, edges,
                                       dict(zip(nodes, counts)))
                brute = census.get(tuple(counts), 0)
                assert count_tree_in_tree(target) == brute, (edges, counts)
                assert tree_in_tree_det(target) == brute, (edges, counts)
                checked += 1
    _report("criterion 8 (tree-in-tree formula == determinant == oracle)",
            True, f"{checked} targets, {time.time() - t0:.0f}s")


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            try:
                fn()
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}", flush=True)
    sys.exit(1 if failures else 0)
