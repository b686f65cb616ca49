"""Algebraic verification routes: cycle-configuration sums and determinants.

Two independent ways to recount what the bijections prove: the signed sums
over configurations of disjoint elementary cycles that appear when the
Lagrange-Good determinant is expanded, and the weighted matrix-tree
determinant over the blown-up vertex set.  Every eval_P* evaluates its sum
by formulas.configuration_sum, a transfer recurrence linear in the span;
enumerate_cycle_configurations lists the configurations one by one and is
kept as the naive reference the recurrence is tested against.  All
arithmetic is exact (ints and Fractions); determinants use fraction-free
Bareiss elimination over integers after clearing denominators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping

from .core import (
    BudgetExceeded,
    IncompatibleDistribution,
    Profile,
    StepSet,
    Vertex,
    VertexSet,
    is_tree,
)
from .formulas import (
    TargetTree,
    _multinomial,
    _out_spine,
    _spine,
    _weights,
    configuration_sum,
    product,
)


# ---------------------------------------------------------------------------
# the cycle digraph G_{l,r}(S) and its configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CycleGraph:
    """Digraph on {l..r} with an arc i -> j iff i - j in S.

    With max S = 1 its elementary cycles are exactly the descending runs
    i-s, i-s-1, ..., i for s in S minus {1} (a loop when s = 0).
    """

    ell: int
    r: int
    step_set: StepSet

    def __post_init__(self):
        if self.ell > 0 or self.r < 0:
            raise ValueError("cycle graph needs ell <= 0 <= r")

    def elementary_cycles(self) -> list[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]]:
        """Each cycle as (vertices, arcs); arcs carry (tail, step)."""
        cycles = []
        for s in self.step_set:
            if s == 1:
                continue
            for i in range(self.ell, self.r + 1):
                top = i - s
                if top > self.r:
                    continue
                verts = tuple(range(i, top + 1))
                arcs = [(i, s)] + [(j, 1) for j in range(i + 1, top + 1)]
                cycles.append((verts, tuple(arcs)))
        return cycles


def enumerate_cycle_configurations(g: CycleGraph
                                   ) -> Iterator[tuple[tuple[tuple[int, ...], tuple[tuple[int, int], ...]], ...]]:
    """All sets of vertex-disjoint elementary cycles, including the empty one:
    the naive reference for configuration_sum (exponential in the span)."""
    if g.r - g.ell > 12:
        raise BudgetExceeded("cycle graph span exceeds the combinatorial guard")
    cycles = g.elementary_cycles()

    def extend(idx: int, used: frozenset, acc: list) -> Iterator:
        if idx == len(cycles):
            yield tuple(acc)
            return
        yield from extend(idx + 1, used, acc)
        verts, arcs = cycles[idx]
        if not (used & set(verts)):
            acc.append(cycles[idx])
            yield from extend(idx + 1, used | set(verts), acc)
            acc.pop()

    yield from extend(0, frozenset(), [])


def eval_P(g: CycleGraph, y: Mapping[int, Fraction | int]) -> Fraction:
    """The configuration sum P_{l,r}: eval_P_refined at x = 1,
    sum_C (-1)^{|C|} prod_i ((sum_s y_{i-s})^{chi_{i not in C}}
                             (y_i - chi_{i=0})^{chi_{i in C}}),
    with y_i = 0 outside [l, r]."""
    return eval_P_refined(g, y)


def closed_P(g: CycleGraph, y: Mapping[int, Fraction | int]) -> Fraction:
    """Closed form of P_{l,r} under min S = -1 or l = 0 (closed_P_refined at
    x = 1): chi_{0 in S} when l = r = 0, else (sum_s y_{-s}) prod_{l+1}^{r-1} y_i."""
    return closed_P_refined(g, y)


def eval_P_out(g: CycleGraph, out: Mapping[tuple[int, int], int]) -> Fraction:
    """The out-type configuration sum:
    sum_C (-1)^{|C|} prod_{i not in C} n_i prod_{(i,i-s) in C} n(i,s),
    with n_i = chi_{i=0} + sum_s n(i,s)."""
    n = {i: (1 if i == 0 else 0) + sum(out.get((i, s), 0) for s in g.step_set)
         for i in range(g.ell, g.r + 1)}
    for (i, _s), c in out.items():
        if c and not (g.ell <= i <= g.r):
            raise IncompatibleDistribution(f"out count at abscissa {i} outside graph")
    return Fraction(configuration_sum(g.step_set, g.ell, g.r, n, dict.fromkeys(n, 1),
                                      lambda i, s: out.get((i, s), 0)))


def closed_P_out(g: CycleGraph, out: Mapping[tuple[int, int], int]) -> Fraction:
    """Closed form: prod_{i<0} n(i,-1) prod_{i>0} n(i,1)."""
    return Fraction(_out_spine(out, g.ell, g.r)[1])


def eval_P_refined(g: CycleGraph, y: Mapping[int, Fraction | int],
                   weights: Mapping | None = None) -> Fraction:
    """The weighted configuration sum:
    sum_C (-1)^{|C|} (prod_{(i,i-s) in C} x_{i,s})
      prod_i ((sum_s y_{i-s} x_{i,s})^{chi_{i not in C}}
              (y_i - chi_{i=0})^{chi_{i in C}})."""
    x = _weights(weights)

    def yv(i: int) -> Fraction | int:
        return y.get(i, 0) if g.ell <= i <= g.r else 0

    levels = range(g.ell, g.r + 1)
    off_cycle = {i: sum(yv(i - s) * x(i, s) for s in g.step_set) for i in levels}
    on_cycle = {i: yv(i) - (1 if i == 0 else 0) for i in levels}
    return Fraction(configuration_sum(g.step_set, g.ell, g.r, off_cycle, on_cycle, x))


def closed_P_refined(g: CycleGraph, y: Mapping[int, Fraction | int],
                     weights: Mapping | None = None) -> Fraction:
    """Closed form: prod_{i<0} x_{i,-1} prod_{i>0} x_{i,1}
    (sum_s x_{0,s} y_{-s}) prod_{l+1}^{r-1} y_i, with the same base-case
    exception as the unweighted lemma: x_{0,0} chi_{0 in S} when l = r = 0."""
    x = _weights(weights)
    if g.ell == 0 and g.r == 0:
        return Fraction(x(0, 0) if 0 in g.step_set else 0)

    def yv(i: int) -> Fraction:
        return Fraction(y.get(i, 0)) if g.ell <= i <= g.r else Fraction(0)

    value = Fraction(_spine(x, g.ell, g.r))
    value *= sum(x(0, s) * yv(-s) for s in g.step_set)
    for i in range(g.ell + 1, g.r):
        value *= yv(i)
    return value


# ---------------------------------------------------------------------------
# exact determinants: Bareiss elimination
# ---------------------------------------------------------------------------

def bareiss_determinant(matrix: list[list[Fraction | int]]) -> Fraction:
    """Exact determinant by fraction-free Bareiss elimination.

    Rational entries are cleared to integers first; every division inside the
    elimination is then exact integer division (asserted).  det([]) = 1.
    """
    k = len(matrix)
    if k == 0:
        return Fraction(1)
    denom_lcm = 1
    for row in matrix:
        assert len(row) == k
        for x in row:
            if isinstance(x, Fraction):
                denom_lcm = denom_lcm * x.denominator // math.gcd(
                    denom_lcm, x.denominator)
    m = [[int(Fraction(x) * denom_lcm) for x in row] for row in matrix]
    sign = 1
    prev = 1
    for col in range(k - 1):
        if m[col][col] == 0:
            pivot_row = next((r for r in range(col + 1, k) if m[r][col] != 0), None)
            if pivot_row is None:
                return Fraction(0)
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        for r in range(col + 1, k):
            for c in range(col + 1, k):
                num = m[r][c] * m[col][col] - m[r][col] * m[col][c]
                assert num % prev == 0, "Bareiss division must be exact"
                m[r][c] = num // prev
            m[r][col] = 0
        prev = m[col][col]
    return Fraction(sign * m[k - 1][k - 1], denom_lcm ** k)


# ---------------------------------------------------------------------------
# Laplacian minors: the matrix-tree theorem
# ---------------------------------------------------------------------------

def _minor_det(verts: list, arcs: Callable[[object], list], root) -> Fraction:
    """det of the Laplacian of a weighted digraph with root's row and column
    removed: the generating function of its spanning trees rooted at root.
    arcs(v) lists the weighted arcs [(w, x), ...] leaving v; the Laplacian
    has the weighted out-degree on the diagonal and -x at (v, w)."""
    keep = [v for v in verts if v != root]
    index = {v: j for j, v in enumerate(keep)}
    minor = [[0] * len(keep) for _ in keep]
    for v in keep:
        row = minor[index[v]]
        for w, x in arcs(v):
            row[index[v]] += x
            if w in index:
                row[index[w]] -= x
    return bareiss_determinant(minor)


def laplacian_minor_det(profile: Profile, step_set: StepSet,
                        weights: Mapping | None = None
                        ) -> Fraction:
    """det of the Laplacian of K with the row and column of 0^{n_0} removed:
    the generating function of spanning trees of K rooted at 0^{n_0}.  K is
    the weighted digraph on V with an arc i^p -> j^q of weight x_{i,s}
    whenever the vertices differ and j = i - s for some s in S.

    Times n_0 n!/prod n_i! it is formulas.eval_out_gf, for every profile
    (cayley_from_spanning).
    """
    if profile.n > 60:
        raise BudgetExceeded("dense exact determinant guard: n <= 60")
    x = _weights(weights)
    vset = VertexSet(profile)

    def arcs(v: Vertex) -> list[tuple[Vertex, Fraction | int]]:
        return [(w, x(v.i, s)) for s in step_set
                for w in vset.level(v.i - s) if w != v]

    return _minor_det(list(vset.vertices()), arcs, Vertex(0, profile.count(0)))


def spanning_trees_direct(profile: Profile, step_set: StepSet,
                          weights: Mapping | None = None,
                          root: Vertex | None = None) -> Fraction:
    """Direct enumeration of spanning trees of K rooted at `root` (default
    0^{n_0}), summing the product of arc weights; the oracle for the minor."""
    p = profile
    if p.n > 6:
        raise BudgetExceeded("direct spanning-tree enumeration guard: n <= 6")
    x = _weights(weights)
    vset = VertexSet(p)
    if root is None:
        root = Vertex(0, p.count(0))
    verts = list(vset.vertices())
    others = [v for v in verts if v != root]
    choices = []
    for v in others:
        opts = []
        for s in step_set:
            for w in vset.level(v.i - s):
                if w != v:
                    opts.append((w, x(v.i, s)))
        choices.append(opts)
    total = Fraction(0)
    for combo in itertools.product(*choices):
        parent = {v: w for v, (w, _x) in zip(others, combo)}
        if is_tree(parent, root):
            term = Fraction(1)
            for _v, (_w, weight) in zip(others, combo):
                term *= weight
            total += term
    return total


def cayley_from_spanning(profile: Profile, step_set: StepSet,
                         weights: Mapping | None = None
                         ) -> Fraction:
    """Embedded-tree generating function from the spanning-tree one:
    n_0 n! / prod_{i=l}^{r} n_i! times the rooted minor determinant."""
    return (profile.count(0) * _multinomial(profile.counts)
            * laplacian_minor_det(profile, step_set, weights))


# ---------------------------------------------------------------------------
# tree-in-tree via the matrix-tree theorem
# ---------------------------------------------------------------------------

def tree_in_tree_det(target: TargetTree) -> int:
    """Matrix-tree count of target-embedded Cayley trees: blow each abscissa
    node i up into n_i copies, connect copies of adjacent nodes completely
    (single-node targets blow up to a complete graph), take the Laplacian
    minor at a fixed root copy, and convert by n_rho n! / prod n_i!."""
    t = target
    if t.n > 60:
        raise BudgetExceeded("dense exact determinant guard: n <= 60")
    adj = t.adjacency()
    counts = dict(t.counts)

    def arcs(v: tuple[int, int]) -> list[tuple[tuple[int, int], int]]:
        return [((j, q), 1) for j in adj[v[0]] for q in range(1, counts[j] + 1)
                if (j, q) != v]

    verts = [(i, p) for i, c in t.counts for p in range(1, c + 1)]
    det = _minor_det(verts, arcs, (t.root, 1))
    return product([("n_rho n!/prod n_i! det", counts[t.root] * _multinomial(
        c for _i, c in t.counts) * det)], "tree-in-tree determinant count")
