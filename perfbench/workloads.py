"""Seeded inputs, operations and answer checks for the four workloads.

A workload is a fixed list of operations (a "pass").  `build_pass` makes the
inputs of one pass from the run seed and the pass index, so the same seed
always gives the same inputs, and every pass gets fresh inputs of the same
shapes and sizes (a memo table in the library cannot turn later passes into
cache hits).  The library receives only the generated inputs.

Each Op has a `run` callable, the timed library work, and a `check`
callable, the untimed answer check.  `run` takes a seed maker: sampling ops
pass `make_seed(int)` as their `seed=` argument, which lets a traced pass
substitute a draw-counting `random.Random`.  `check` calls no traced library
function, so checks never show up in the per-layer times.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import embtrees as E
from embtrees import algebra, core, oracle

PM = E.StepSet([-1, 1])
S3 = E.StepSet([-1, 0, 1])
S01 = E.StepSet([0, 1])

WORKLOADS = ("sample_thin", "sample_wide", "count_exact", "verify_small")

# Passes every run completes before the time budget may end it; the tail
# latency is taken over exactly these passes, so its percentile does not
# depend on how many extra passes a fast machine fits in.
MIN_PASSES = {"sample_thin": 5, "sample_wide": 4, "count_exact": 4,
              "verify_small": 3}


@dataclass
class Op:
    kind: str
    group: tuple          # ops of one group differ only in size (growth fit)
    size: int | None      # nominal size n, or None when not part of the fit
    run: Callable[[Callable[[int], Any]], Any]
    check: Callable[[Any], tuple[bool, int, int]]  # (correct, vertices, objects)


def pass_rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{index}")


# ---------------------------------------------------------------------------
# profile shapes
# ---------------------------------------------------------------------------

# blocks of four abscissas, eight vertices each, whose every count is at most
# the sum of its neighbours whatever block comes next
THIN_BLOCKS = ((2, 2, 2, 2), (1, 2, 3, 2), (2, 3, 2, 1), (1, 3, 3, 1),
               (3, 2, 1, 2), (2, 1, 2, 3))


def thin_counts(rng: random.Random, n: int) -> list[int]:
    """1-3 vertices per abscissa on n/2 abscissas: n/8 random blocks.  The
    end counts are capped by their neighbour's, so binary trees exist."""
    counts = [c for _ in range(n // 8) for c in rng.choice(THIN_BLOCKS)]
    counts[0] = min(counts[0], counts[1])
    counts[-1] = min(counts[-1], counts[-2])
    return counts


def block_counts(rng: random.Random, n: int, k: int) -> list[int]:
    """k abscissas sharing n vertices evenly up to a +-25% jitter; the end
    counts do not exceed their neighbour's, so binary trees exist."""
    w = [rng.uniform(0.75, 1.25) for _ in range(k)]
    w[0] = min(w[0], w[1])
    w[-1] = min(w[-1], w[-2])
    counts = [max(1, int(n * x / sum(w))) for x in w]
    for j in range(n - sum(counts)):
        counts[1 + j % (k - 2)] += 1
    return counts


def profile_of(counts: list[int], negative: bool) -> E.Profile:
    """ell = 0, or ell < 0 with about a third of the abscissas negative
    (so |ell| ~ r/2)."""
    return E.Profile(counts, ell=-max(1, len(counts) // 3) if negative else 0)


# ---------------------------------------------------------------------------
# answer checks (benchmark-side; they call no traced library function)
# ---------------------------------------------------------------------------

def check_cayley(step_set: E.StepSet, p: E.Profile):
    def check(result) -> tuple[bool, int, int]:
        tree, text = result
        data = json.loads(text)
        ok = (tree.profile() == p and tree.step_set == step_set
              and data["n"] == p.n
              and sorted(data["abscissa"]) == sorted(tree.abscissa.values()))
        return ok, p.n, 1
    return check


def check_sary(step_set: E.StepSet, p: E.Profile):
    def check(tree) -> tuple[bool, int, int]:
        counts: dict[int, int] = {}
        stack = [tree]
        ok = tree.abscissa == 0
        while stack:
            node = stack.pop()
            counts[node.abscissa] = counts.get(node.abscissa, 0) + 1
            steps = [s for s, _c in node.children]
            ok = ok and len(set(steps)) == len(steps)
            for s, child in node.children:
                ok = ok and s in step_set and child.abscissa == node.abscissa + s
                stack.append(child)
        ok = ok and counts == dict(p.items())
        return ok, p.n, 1
    return check


def check_equal(n: int):
    def check(values) -> tuple[bool, int, int]:
        ok = values[0] > 0 and all(v == values[0] for v in values[1:])
        return ok, n, 1
    return check


# ---------------------------------------------------------------------------
# sample_thin / sample_wide
# ---------------------------------------------------------------------------

def sample_ops(step_set: E.StepSet, p: E.Profile, size: int, regime: str,
               rng: random.Random) -> list[Op]:
    seed_c, seed_s = rng.getrandbits(32), rng.getrandbits(32)

    def cayley(make_seed):
        tree = E.sample_embedded_cayley(step_set, p, seed=make_seed(seed_c))
        return tree, core.embedded_cayley_to_json(tree)

    def sary(make_seed):
        return E.sample_sary(step_set, p, seed=make_seed(seed_s))

    tag = str(step_set)
    return [Op("sample_cayley", ("sample_cayley", regime, tag), size, cayley,
               check_cayley(step_set, p)),
            Op("sample_sary", ("sample_sary", regime, tag), size, sary,
               check_sary(step_set, p))]


def build_sample_thin(rng: random.Random) -> list[Op]:
    ops = []
    for n in (200, 400, 800):
        for negative in (False, True):
            p = profile_of(thin_counts(rng, n), negative)
            ops += sample_ops(S3, p, n, "general" if negative else "nonneg", rng)
    return ops


def wide_k(j: int, index: int) -> int:
    """3-8 abscissas: slot j of pass `index` gets a fixed width, so every
    run has the same mix of widths whatever its seed."""
    return 3 + (j + index) % 6


def build_sample_wide(rng: random.Random, index: int) -> list[Op]:
    ops = []
    grid = [(step_set, n, negative) for step_set in (S3, PM)
            for n in (2000, 4000, 8000) for negative in (False, True)]
    for j, (step_set, n, negative) in enumerate(grid):
        p = profile_of(block_counts(rng, n, wide_k(j, index)), negative)
        ops += sample_ops(step_set, p, n, "general" if negative else "nonneg", rng)
    return ops


# ---------------------------------------------------------------------------
# count_exact
# ---------------------------------------------------------------------------

def path_target(p: E.Profile) -> E.TargetTree:
    """The path ell - ... - r rooted at 0: its embedded trees are exactly
    the {-1,1}-embedded Cayley trees with profile p."""
    return E.TargetTree.of(0, [(i, i + 1) for i in range(p.ell, p.r)],
                           dict(p.items()))


def build_count_exact(rng: random.Random, index: int) -> list[Op]:
    grid = ([("thin", n) for n in (1000, 2000, 4000)]
            + [("sqrt", n) for n in (5000, 10000, 20000)]
            + [("wide", n) for n in (5000, 10000, 20000)])
    ops = []
    for j, (shape, n) in enumerate(grid):
        if shape == "thin":
            counts = thin_counts(rng, n)
        else:
            k = math.isqrt(n) if shape == "sqrt" else wide_k(j, index)
            counts = block_counts(rng, n, k)
        # ell = 0 and ell < 0 alternate along the grid and between passes
        p = profile_of(counts, (j + index) % 2 == 1)
        target = path_target(p)
        ops += [
            Op("binary", ("binary", shape), n,
               lambda _m, p=p: (E.count_binary_profile(p),
                                E.count_sary_profile(PM, p)),
               check_equal(p.n)),
            Op("cayley", ("cayley", shape), n,
               lambda _m, p=p: (E.count_cayley_profile(S3, p),
                                E.eval_out_gf(S3, p)),
               check_equal(p.n)),
            Op("path", ("path", shape), n,
               lambda _m, p=p, t=target: (E.count_tree_in_tree(t),
                                          E.count_cayley_profile(PM, p)),
               check_equal(p.n)),
        ]
    # small sizes, where the exact Bareiss determinants are a third route
    for j, n in enumerate((20, 40, 60)):
        p = profile_of(block_counts(rng, n, 3 + (j + index) % 4),
                       (j + index) % 2 == 1)
        target = path_target(p)
        ops += [
            Op("cayley_det", ("cayley_det",), n,
               lambda _m, p=p: (E.count_cayley_profile(PM, p),
                                E.cayley_from_spanning(p, PM),
                                E.eval_out_gf(PM, p)),
               check_equal(p.n)),
            Op("path_det", ("path_det",), n,
               lambda _m, p=p, t=target: (E.count_tree_in_tree(t),
                                          E.tree_in_tree_det(t)),
               check_equal(p.n)),
        ]
    return ops


# ---------------------------------------------------------------------------
# verify_small
# ---------------------------------------------------------------------------

def small_profiles(n_max: int):
    """Every profile of size 1..n_max: compositions of n with every choice
    of the part that sits at abscissa 0."""
    def comps(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in comps(total - first, parts - 1):
                yield (first,) + rest

    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            for c in comps(n, k):
                for ell in range(-(k - 1), 1):
                    yield E.Profile(c, ell=ell)


def oracle_op(step_set: E.StepSet, p: E.Profile) -> Op:
    def run(_m):
        return (E.count_cayley_profile(step_set, p),
                len(list(E.enumerate_embedded_cayley(step_set, p))),
                E.count_sary_profile(step_set, p),
                len(list(E.enumerate_sary(step_set, p))))

    def check(values):
        a, na, b, nb = values
        return a == na and b == nb, (na + nb) * p.n, na + nb

    return Op("oracle", ("oracle", str(step_set)), p.n if p.n >= 3 else None,
              run, check)


def roundtrip_op(step_set: E.StepSet, p: E.Profile) -> Op:
    regime = "nonneg" if p.ell == 0 else "general"

    def run(_m):
        funcs = list(E.enumerate_sfunctions(step_set, p, regime))
        if regime == "nonneg":
            back = [E.phi_inverse(E.phi(f)) for f in funcs]
        else:
            back = [E.psi_inverse(E.psi(f)) for f in funcs]
        return funcs, back

    def check(values):
        funcs, back = values
        return funcs == back, len(funcs) * p.n, len(funcs)

    return Op("roundtrip", ("roundtrip", str(step_set)),
              p.n if p.n >= 3 else None, run, check)


def sweep_op(n: int) -> Op:
    def run(_m):
        sweep = oracle.sweep_embedded_censuses(S3, n, ("out", "in"))
        pairs = []
        for bucket in sweep["out"].values():
            pairs += [(E.count_cayley_out(S3, dict(key)), c)
                      for key, c in bucket.items()]
        for bucket in sweep["in"].values():
            pairs += [(E.count_cayley_in(S3, dict(key)), c)
                      for key, c in bucket.items()]
        return sum(sweep["count"].values()), pairs

    def check(values):
        trees, pairs = values
        ok = trees == n ** (n - 1) * 3 ** (n - 1) and all(a == b for a, b in pairs)
        return ok, trees * n, trees

    return Op("sweep", ("sweep",), None, run, check)


def identity_ops(step_set: E.StepSet, span: int, rng: random.Random) -> list[Op]:
    ell = -(span // 2)
    g = E.CycleGraph(ell, span + ell, step_set)
    levels = range(g.ell, g.r + 1)
    y = {i: rng.randint(1, 25) for i in levels}
    x = {(i, s): rng.randint(1, 7) for i in levels for s in step_set}
    out = {(i, s): rng.randint(1, 4) for i in levels for s in step_set
           if g.ell <= i - s <= g.r}
    configs = sum(1 for _ in algebra.enumerate_cycle_configurations(g))

    def check(values):
        return values[0] == values[1], 0, configs

    return [
        Op("identity", ("identity",), None,
           lambda _m: (E.eval_P(g, y), E.closed_P(g, y)), check),
        Op("identity", ("identity",), None,
           lambda _m: (E.eval_P_refined(g, y, x), E.closed_P_refined(g, y, x)),
           check),
        Op("identity", ("identity",), None,
           lambda _m: (E.eval_P_out(g, out), E.closed_P_out(g, out)), check),
    ]


def build_verify_small(rng: random.Random) -> list[Op]:
    ops = []
    for step_set in (PM, S3, S01):
        for p in small_profiles(5):
            if p.ell < 0 and step_set.m != -1:
                continue  # no tree or (F)-function has such a profile
            ops.append(oracle_op(step_set, p))
            ops.append(roundtrip_op(step_set, p))
    ops.append(sweep_op(5))
    for step_set in (PM, S3):
        for span in (4, 6, 8):
            ops += identity_ops(step_set, span, rng)
    rng.shuffle(ops)
    return ops


def build_pass(workload: str, seed: int, index: int) -> list[Op]:
    rng = pass_rng(seed, workload, index)
    if workload == "sample_thin":
        return build_sample_thin(rng)
    if workload == "sample_wide":
        return build_sample_wide(rng, index)
    if workload == "count_exact":
        return build_count_exact(rng, index)
    if workload == "verify_small":
        return build_verify_small(rng)
    raise ValueError(f"unknown workload {workload!r}")
