"""Closed-form counting formulas for embedded trees, in exact arithmetic.

Every operation evaluates the displayed product formula over exact rationals
and asserts integrality at the end where a count is promised.  Conventions:
empty products are 1, 0^0 = 1, and C(a, b) = 0 when b < 0 or b > a, so the
edge cases (r = 0, ell = 0, n_i = 1) evaluate without special-casing.

The Cayley and S-ary profile counts hold for every profile and every S: where
the paper's hypothesis (min S = -1 or ell = 0) fails, they are the
Lagrange-Good expansion, a product of local rows times one configuration_sum
over the disjoint cycles of G_{ell,r}(S), evaluated by a transfer recurrence
linear in the span.  The paper's ell = -1 and -2 products are instances.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .core import (
    BigCount,
    CVec,
    HypothesisViolation,
    IncompatibleDistribution,
    InvalidProfile,
    NonIntegerResult,
    NonSurjectiveProfile,
    NotInjective,
    Profile,
    StepSet,
    Vertex,
    _children,
    validate_profile_for,
)

OutDist = Mapping[tuple[int, int], int]
InDist = Mapping[tuple[int, CVec], int]
CompleteDist = Mapping[tuple[int, int, CVec], int]


Factors = list[tuple[str, Fraction | int]]


def comb(a: int, b: int) -> int:
    """Binomial coefficient with C(a, b) = 0 for b < 0 or b > a."""
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def _ratio(factors: Factors) -> tuple[int, int]:
    num = den = 1
    for _label, x in factors:
        num *= x.numerator
        den *= x.denominator
    return num, den


def product(factors: Factors, what: str) -> BigCount:
    """The count a list of labelled exact factors stands for.

    The numerators and the denominators are multiplied separately and divided
    once; a product that is not an integer raises NonIntegerResult.
    """
    num, den = _ratio(factors)
    quotient, rest = divmod(num, den)
    if rest:
        raise NonIntegerResult(f"{what} evaluated to non-integer {Fraction(num, den)}")
    return quotient


def _spine(x: Callable[[int, int], Fraction | int], ell: int, r: int) -> Fraction | int:
    """prod_{i<0} x(i, -1) prod_{i>0} x(i, 1), the factor of the out-steps
    along the spine ell^1 -> ... -> 0^1 <- ... <- r^1."""
    return (math.prod(x(i, -1) for i in range(ell, 0))
            * math.prod(x(i, 1) for i in range(1, r + 1)))


def _multinomial(parts: Iterable[int]) -> int:
    """(sum parts)! / prod parts!."""
    parts = list(parts)
    return math.factorial(sum(parts)) // math.prod(math.factorial(c) for c in parts)


def configuration_sum(step_set: StepSet, ell: int, r: int,
                      off: Mapping[int, Fraction | int], on: Mapping[int, Fraction | int],
                      arc: Callable[[int, int], Fraction | int]) -> Fraction | int:
    """sum_C (-1)^{|C|} prod_{arcs (i,s) of C} arc(i, s)
    prod_{i in C} on[i] prod_{i not in C} off[i], over the sets C of disjoint
    elementary cycles of the digraph on {ell..r} with arcs i -> i - s, s in S.

    With max S = 1 the cycles are the descending runs [k+s, k], s <= 0 in S,
    so a transfer over the top vertex k sums them in O((r - ell) |min S|):
    F[ell-1] = 1 and
    F[k] = F[k-1] off[k] - sum_{s <= 0, k+s >= ell} F[k+s-1] arc(k+s, s)
           prod_{j=k+s+1..k} arc(j, 1) prod_{j=k+s..k} on[j],
    and the sum is F[r].
    """
    f = [1]  # f[k - ell + 1] = F[k]
    for k in range(ell, r + 1):
        total = f[-1] * off[k]
        run = on[k]  # the arcs and on-weights of the run [t, k]
        for t in range(k, max(ell, k + step_set.m) - 1, -1):
            if t < k:
                run *= arc(t + 1, 1) * on[t]
            if t - k in step_set:
                total -= f[t - ell] * arc(t, t - k) * run
        f.append(total)
    return f[-1]


# ---------------------------------------------------------------------------
# profile formulas
# ---------------------------------------------------------------------------

def binary_horizontal_factors(h: Iterable[int]) -> Factors:
    """Binary trees with horizontal profile (1, h_1, ..., h_k):
    prod_i C(2 h_i, h_{i+1})."""
    h = list(h)
    if not h or h[0] != 1:
        raise InvalidProfile("horizontal profile must start with h_0 = 1")
    if any(c < 1 for c in h):
        raise InvalidProfile("horizontal profile counts must be positive")
    return [(f"level {i}: C(2 h_i, h_{{i+1}})", comb(2 * a, b))
            for i, (a, b) in enumerate(zip(h, h[1:]))]


def count_binary_horizontal(h: Iterable[int]) -> BigCount:
    """Binary trees with horizontal profile h (binary_horizontal_factors)."""
    return product(binary_horizontal_factors(h), "binary horizontal count")


def _marked_vertex(p: Profile) -> tuple[str, Fraction]:
    return ("marked-vertex prefactor n_0/(n_ell n_r)",
            Fraction(p.count(0), p.count(p.ell) * p.count(p.r)))


def _image_sums(step_set: StepSet, p: Profile,
                w: WeightAssignment | None = None) -> dict[int, Fraction | int]:
    """d_i = sum_s n_{i-s} x_{i,s} for every abscissa i (n_j = 0 outside
    [ell, r]); x = 1 without w."""
    if w is None:
        return {i: sum(p.count(i - s) for s in step_set) for i in p.abscissas()}
    return {i: sum(p.count(i - s) * w.get(i, s) for s in step_set) for i in p.abscissas()}


def _closed_form_applies(step_set: StepSet, p: Profile) -> bool:
    """The paper's product formulas hold when min S = -1 or ell = 0."""
    return step_set.m == -1 or p.ell == 0


def cayley_factors(step_set: StepSet, profile: Profile,
                   weights: WeightAssignment | Mapping | None = None) -> Factors:
    """S-embedded Cayley trees with a given vertical profile, x_{i,s} marking
    the vertices of out-type (i;s) (all x = 1 when weights is None).  With
    d_i = sum_s n_{i-s} x_{i,s}, where min S = -1 or ell = 0 this is the
    paper's product
    (n_0/(n_ell n_r)) (n!/prod (n_i-1)!) prod_{i<0} x_{i,-1} prod_{i>0} x_{i,1}
    prod_i d_i^{n_i-1},
    and for every profile it is the Lagrange-Good expansion
    n_0 (n!/prod n_i!) prod_{i != 0} d_i^{n_i-1} d_0^{max(n_0-2, 0)} P,
    P the configuration_sum with off[i] = d_i (1 at i = 0 when n_0 = 1),
    on[i] = n_i - chi_{i=0} and arc = x.
    """
    p = profile
    w = None if weights is None else WeightAssignment.coerce(weights)
    x = "" if w is None else " x_{i,s}"
    d = _image_sums(step_set, p, w)
    if _closed_form_applies(step_set, p):
        rows = [_marked_vertex(p),
                ("relabelings n!/prod (n_i-1)!", math.factorial(p.n) // math.prod(
                    math.factorial(ni - 1) for _i, ni in p.items()))]
        if w is not None:
            rows.append(("spine weights prod_{i<0} x_{i,-1} prod_{i>0} x_{i,1}",
                         _spine(w.get, p.ell, p.r)))
        return rows + [(f"image choices at abscissa {i}: (sum_s n_{{i-s}}{x})^(n_i-1)",
                        d[i] ** (ni - 1)) for i, ni in p.items()]
    n0 = p.count(0)
    off = {**d, 0: d[0] if n0 > 1 else 1}
    on = {i: ni - (i == 0) for i, ni in p.items()}
    arc = (w or WeightAssignment()).get
    return [("root multiplicity n_0", n0),
            ("relabelings n!/prod n_i!", _multinomial(p.counts)),
            *((f"image choices at abscissa {i}: (sum_s n_{{i-s}}{x})^(n_i-1)",
               d[i] ** (ni - 1)) for i, ni in p.items() if i != 0),
            (f"image choices at abscissa 0: (sum_s n_{{-s}}{x})^max(n_0-2,0)",
             d[0] ** max(n0 - 2, 0)),
            ("configuration sum P_{ell,r}",
             configuration_sum(step_set, p.ell, p.r, off, on, arc))]


def count_cayley_profile(step_set: StepSet, profile: Profile) -> BigCount:
    """S-embedded Cayley trees with a given vertical profile (cayley_factors
    at x = 1)."""
    return product(cayley_factors(step_set, profile), "Cayley profile count")


def sary_factors(step_set: StepSet, profile: Profile) -> Factors:
    """S-ary trees with a given vertical profile.  With d_i = sum_s n_{i-s},
    where min S = -1 or ell = 0 this is the paper's product
    (n_0 / (n_ell n_r)) C(d_0, n_0 - 1) prod_{i != 0} C(d_i - 1, n_i - 1),
    and for every profile it is the configuration_sum with
    off[i] = C(d_i, n_i - chi_{i=0}), on[i] = C(d_i - 1, n_i - chi_{i=0} - 1)
    and arc = 1."""
    p = profile
    d = _image_sums(step_set, p)
    if _closed_form_applies(step_set, p):
        return [_marked_vertex(p),
                ("level 0: C(sum_s n_-s, n_0 - 1)", comb(d[0], p.count(0) - 1)),
                *((f"level {i}: C(sum_s n_{{i-s}} - 1, n_i - 1)", comb(d[i] - 1, ni - 1))
                  for i, ni in p.items() if i != 0)]
    free = {i: ni - (i == 0) for i, ni in p.items()}
    return [("configuration sum P_{ell,r} with off C(d_i, n_i - chi_{i=0}) "
             "and on C(d_i - 1, n_i - chi_{i=0} - 1)", configuration_sum(
                 step_set, p.ell, p.r, {i: comb(d[i], c) for i, c in free.items()},
                 {i: comb(d[i] - 1, c - 1) for i, c in free.items()}, lambda _i, _s: 1))]


def count_sary_profile(step_set: StepSet, profile: Profile) -> BigCount:
    """S-ary trees with a given vertical profile (sary_factors)."""
    return product(sary_factors(step_set, profile), "S-ary profile count")


def count_binary_profile(profile: Profile) -> BigCount:
    """Binary trees with a given vertical profile: the S-ary count at
    S = {-1, 1}."""
    return count_sary_profile(StepSet([-1, 1]), profile)


# ---------------------------------------------------------------------------
# rows shared by the type counts and the function families
# ---------------------------------------------------------------------------

def _factorials(p: Profile) -> tuple[str, int]:
    return ("prod (n_i-1)!", math.prod(math.factorial(ni - 1) for _i, ni in p.items()))


def _ends(p: Profile) -> Factors:
    return [("n_r", p.count(p.r)), ("n_ell if ell < 0", p.count(p.ell) if p.ell < 0 else 1)]


def _inverse_factorials(label: str, counts: Iterable[int]) -> tuple[str, Fraction]:
    return (label, Fraction(1, math.prod(math.factorial(c) for c in counts)))


def _children_factorials(cvs: Iterable[tuple[CVec, int]]) -> tuple[str, Fraction]:
    """1/prod_{b,s} b!^{n_s(b)}, n_s(b) the number of vertices with b
    children by step s, from (c-vector, number of vertices) pairs."""
    return ("1/prod_{b,s} b!^{n_s(b)}", Fraction(1, math.prod(
        math.factorial(b) ** c for cv, c in cvs for b in cv)))


def _out_spine(out: OutDist, ell: int, r: int) -> tuple[str, int]:
    return ("spine prod_{i<0} n(i,-1) prod_{i>0} n(i,1)",
            _spine(lambda i, s: out.get((i, s), 0), ell, r))


def _parent_choices(step_set: StepSet, out: OutDist, p: Profile) -> Factors:
    """n_i^(c(i)-1) for every abscissa i, where c(i) = sum_s n(i+s, s)
    counts the vertices whose parent lies at abscissa i."""
    return [(f"parents at abscissa {i}: n_i^(c(i)-1)",
             Fraction(ni) ** (sum(out.get((i + s, s), 0) for s in step_set) - 1))
            for i, ni in p.items()]


def _complete_out(out: OutDist, r: int) -> Factors:
    """prod n(i,s)! / prod_{i=1}^r n(i,1); no tree has a vertex i^1 without a
    vertex of out-type (i;1), so the count is 0 when one n(i,1) is."""
    spine = math.prod(out.get((i, 1), 0) for i in range(1, r + 1))
    return [("prod n(i,s)!", math.prod(math.factorial(c) for c in out.values())),
            ("1/prod_{i=1}^r n(i,1)", Fraction(1, spine) if spine else 0)]


def _spine_heads(vertex_in_types: Mapping[Vertex, CVec], p: Profile, m: int
                 ) -> tuple[str, int]:
    """prod_{0<=i<r} c^1(i^1) prod_{ell<i<0} c^-1(i^1): the choice of the
    preimage that the spine arc into each i^1 comes from."""
    def c(i: int, s: int) -> int:
        return vertex_in_types[Vertex(i, 1)][s - m]
    return ("spine heads prod_{0<=i<r} c^1(i^1) prod_{ell<i<0} c^-1(i^1)",
            math.prod(c(i, 1) for i in range(0, p.r))
            * math.prod(c(i, -1) for i in range(p.ell + 1, 0)))


# ---------------------------------------------------------------------------
# validation of type distributions
# ---------------------------------------------------------------------------

def _profile_of_counts(counts: Mapping[int, int], what: str) -> Profile:
    lo, hi = min(counts), max(counts)
    if not (lo <= 0 <= hi) or any(counts.get(i, 0) == 0 for i in range(lo, hi + 1)):
        raise IncompatibleDistribution(f"{what} counts leave an empty abscissa")
    return Profile.of_counts(counts)


def profile_of_out_dist(out: OutDist) -> Profile:
    """Profile determined by an out-distribution: n_i = chi_{i=0} + sum_s n(i,s)."""
    counts: dict[int, int] = {0: 1}
    for (i, _s), c in out.items():
        if c < 0:
            raise IncompatibleDistribution("negative out count")
        if c:
            counts[i] = counts.get(i, 0) + c
    return _profile_of_counts(counts, "out")


def _check_out_dist(step_set: StepSet, out: OutDist) -> Profile:
    prof = profile_of_out_dist(out)
    for (i, s), c in out.items():
        if c == 0:
            continue
        if s not in step_set:
            raise IncompatibleDistribution(f"out-type ({i};{s}) uses step outside S")
        if not (prof.ell <= i - s <= prof.r):
            raise IncompatibleDistribution(
                f"out-type ({i};{s}) points outside [ell, r]")
    validate_profile_for(step_set, prof)
    return prof


def _in_profile(inn: InDist, m: int) -> tuple[Profile, dict[tuple[int, int], int]]:
    """The profile of an in-distribution over the steps m..1 and the
    out-counts its in-types give; raises unless every abscissa i has
    chi_{i=0} + sum_s n(i,s) = n_i vertices."""
    counts: dict[int, int] = {}
    for (i, cv), c in inn.items():
        if c < 0:
            raise IncompatibleDistribution("negative in count")
        if len(cv) != 2 - m:
            raise IncompatibleDistribution(
                f"c-vector {cv} must be dense over steps {m}..1")
        if c:
            counts[i] = counts.get(i, 0) + c
    if not counts:
        raise IncompatibleDistribution("empty in-distribution")
    prof = _profile_of_counts(counts, "in")
    children = _children(inn.items(), m)
    if profile_of_out_dist(children) != prof:
        raise IncompatibleDistribution(
            "in-distribution incompatible: its in-types do not give every "
            "non-root vertex one parent")
    return prof, children


def _check_in_dist(step_set: StepSet, inn: InDist
                   ) -> tuple[Profile, dict[tuple[int, int], int]]:
    """Validate an in-distribution against S = [m, 1]; return its profile and
    its out-counts n(i,s)."""
    if not step_set.is_interval():
        raise HypothesisViolation(
            f"in-type counting needs an interval step set [m, 1], got {step_set}; "
            "embed sparse step sets first")
    prof, children = _in_profile(inn, step_set.m)
    validate_profile_for(step_set, prof)
    return prof, children


def _check_complete_steps(step_set: StepSet) -> int:
    """min S, for S = [m,-1] union {1}."""
    if step_set.steps != tuple(range(step_set.m, 0)) + (1,):
        raise HypothesisViolation(
            f"complete-type counting needs S = [m,-1] union {{1}}, got {step_set}")
    return step_set.m


def _check_children(children: OutDist, out: OutDist, what: str) -> None:
    """chi_{i=s} c0^s + sum_{t,c} c^s n(i-s,t,c) = n(i,s) for every (i;s):
    the in-types give each out-type as many vertices as it has."""
    bad = [k for k in children.keys() | out.keys() if children.get(k, 0) != out.get(k, 0)]
    if bad:
        i, s = min(bad)
        raise IncompatibleDistribution(f"{what} incompatible at out-type ({i};{s})")


def _check_complete_dist(step_set: StepSet, root_in: CVec, comp: CompleteDist
                         ) -> tuple[Profile, dict[tuple[int, int], int]]:
    """Validate a complete distribution; return its profile and out-counts."""
    m = _check_complete_steps(step_set)
    width = 1 - m + 1
    if len(root_in) != width or any(root_in[:-1]):
        raise HypothesisViolation(
            f"root in-type must be (0,...,0,c0^1), got {root_in}")
    inn: dict[tuple[int, CVec], int] = {(0, tuple(root_in)): 1}
    out: dict[tuple[int, int], int] = {}
    for (i, s, cv), c in comp.items():
        if c < 0:
            raise IncompatibleDistribution("negative complete count")
        if c == 0:
            continue
        if i < 0:
            raise HypothesisViolation("complete counts must vanish at i < 0")
        if len(cv) != width:
            raise IncompatibleDistribution(f"c-vector {cv} must be dense over {m}..1")
        if m <= 0 and cv[-m] != 0:
            raise HypothesisViolation("complete counts must have c^0 = 0")
        if s not in step_set:
            raise IncompatibleDistribution(f"out step {s} outside S")
        inn[(i, cv)] = inn.get((i, cv), 0) + c
        out[(i, s)] = out.get((i, s), 0) + c
    prof = profile_of_out_dist(out)
    if prof.r == 0 and (prof.n != 1 or any(root_in)):
        raise HypothesisViolation("r = 0 is supported only for the single-vertex tree")
    _check_children(_children(inn.items(), m), out, "complete distribution")
    return prof, out


def _check_vertices(prof: Profile, vertex_in_types: Mapping[Vertex, CVec]) -> None:
    if (len(vertex_in_types) != prof.n
            or any(not 1 <= v.k <= prof.count(v.i) for v in vertex_in_types)):
        raise IncompatibleDistribution(
            f"the prescribed vertices are not the vertex set of {prof}")


# ---------------------------------------------------------------------------
# type counts
# ---------------------------------------------------------------------------

def _cayley_out(step_set: StepSet, out: OutDist) -> tuple[Profile, Factors]:
    p = _check_out_dist(step_set, out)
    return p, [("n!", math.factorial(p.n)), *_parent_choices(step_set, out, p),
               _out_spine(out, p.ell, p.r),
               _inverse_factorials("1/prod n(i,s)!", out.values())]


def cayley_out_factors(step_set: StepSet, out: OutDist) -> Factors:
    """S-embedded Cayley trees with n(i,s) non-root vertices of out-type (i;s):
    n! prod_i n_i^{c(i)-1} prod_{i<0} n(i,-1) prod_{i>0} n(i,1) / prod n(i,s)!."""
    return _cayley_out(step_set, out)[1]


def count_cayley_out(step_set: StepSet, out: OutDist) -> BigCount:
    """S-embedded Cayley trees with a given out-type distribution
    (cayley_out_factors)."""
    return product(cayley_out_factors(step_set, out), "Cayley out-type count")


def _sary_out(step_set: StepSet, out: OutDist) -> tuple[Profile, Factors]:
    p = _check_out_dist(step_set, out)
    return p, [_out_spine(out, p.ell, p.r),
               ("1/prod n_i", Fraction(1, math.prod(p.counts))),
               ("prod C(n_{i-s}, n(i,s))",
                math.prod(comb(p.count(i - s), c) for (i, s), c in out.items()))]


def sary_out_factors(step_set: StepSet, out: OutDist) -> Factors:
    """S-ary trees with n(i,s) non-root vertices of out-type (i;s):
    (prod_{i<0} n(i,-1) prod_{i>0} n(i,1) / prod_i n_i) prod C(n_{i-s}, n(i,s))."""
    return _sary_out(step_set, out)[1]


def count_sary_out(step_set: StepSet, out: OutDist) -> BigCount:
    """S-ary trees with a given out-type distribution (sary_out_factors)."""
    return product(sary_out_factors(step_set, out), "S-ary out-type count")


@dataclass(frozen=True)
class WeightAssignment:
    """Exact rational weights x_{i,s} on out-types, defaulting to 1."""

    weights: tuple[tuple[tuple[int, int], Fraction], ...] = ()
    _table: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_table", dict(self.weights))

    @staticmethod
    def of(mapping: Mapping[tuple[int, int], Fraction | int]) -> "WeightAssignment":
        return WeightAssignment(tuple(sorted(
            ((i, s), Fraction(w)) for (i, s), w in mapping.items())))

    @staticmethod
    def coerce(weights: "WeightAssignment | Mapping | None") -> "WeightAssignment":
        """The assignment itself, one built from a mapping, or all ones for None."""
        if isinstance(weights, WeightAssignment):
            return weights
        return WeightAssignment.of(weights or {})

    def get(self, i: int, s: int) -> Fraction | int:
        return self._table.get((i, s), 1)


def eval_out_gf(step_set: StepSet, profile: Profile,
                weights: WeightAssignment | Mapping | None = None) -> Fraction:
    """Generating function of S-embedded Cayley trees with the given profile,
    x_{i,s} marking vertices of out-type (i;s): the product of cayley_factors."""
    return Fraction(*_ratio(cayley_factors(step_set, profile, weights)))


def _in_rows(step_set: StepSet, inn: InDist) -> tuple[Profile, Factors]:
    """The in-type rows after n!."""
    p, out = _check_in_dist(step_set, inn)
    return p, [_factorials(p), _out_spine(out, p.ell, p.r),
               _inverse_factorials("1/prod n(i,c)!", inn.values()),
               _children_factorials((cv, c) for (_i, cv), c in inn.items())]


def _cayley_in(step_set: StepSet, inn: InDist) -> tuple[Profile, Factors]:
    p, rows = _in_rows(step_set, inn)
    return p, [("n!", math.factorial(p.n)), *rows]


def cayley_in_factors(step_set: StepSet, inn: InDist) -> Factors:
    """S-embedded Cayley trees (S = [m, 1]) with n(i,c) vertices of in-type
    (i;c): n! prod (n_i-1)! prod_{i<0} n(i,-1) prod_{i>0} n(i,1)
    / (prod n(i,c)! prod_{b,s} b!^{n_s(b)})."""
    return _cayley_in(step_set, inn)[1]


def count_cayley_in(step_set: StepSet, inn: InDist) -> BigCount:
    """S-embedded Cayley trees with a given in-type distribution
    (cayley_in_factors)."""
    return product(cayley_in_factors(step_set, inn), "Cayley in-type count")


def sary_in_factors(step_set: StepSet, inn: InDist) -> Factors:
    """S-ary trees with a prescribed in-type distribution: the Cayley rows
    without n! (trees with all c-components <= 1 are injective)."""
    for (i, cv), c in inn.items():
        if c and any(b > 1 for b in cv):
            raise NotInjective(f"in-type ({i};{cv}) has a component > 1")
    return _in_rows(step_set, inn)[1]


def count_sary_in(step_set: StepSet, inn: InDist) -> BigCount:
    """S-ary trees with a given in-type distribution (sary_in_factors)."""
    return product(sary_in_factors(step_set, inn), "S-ary in-type count")


def _cayley_complete(step_set: StepSet, root_in: CVec, comp: CompleteDist
                     ) -> tuple[Profile, Factors]:
    p, out = _check_complete_dist(step_set, root_in, comp)
    if p.r == 0:
        return p, []
    m = step_set.m
    by_step_1: dict[int, int] = {}  # sum_b b n_1(i,1,b)
    for (i, s, cv), c in comp.items():
        if s == 1:
            by_step_1[i] = by_step_1.get(i, 0) + cv[1 - m] * c
    return p, [("c_0^1", root_in[1 - m]), ("n!", math.factorial(p.n)),
               *_complete_out(out, p.r),
               ("prod_{i=1}^{r-1} sum_b b n_1(i,1,b)",
                math.prod(by_step_1.get(i, 0) for i in range(1, p.r))),
               _inverse_factorials("1/prod n(i,s,c)!", comp.values()),
               _children_factorials([(root_in, 1), *(
                   (cv, c) for (_i, _s, cv), c in comp.items())])]


def cayley_complete_factors(step_set: StepSet, root_in: CVec,
                            comp: CompleteDist) -> Factors:
    """Non-negative S-embedded Cayley trees (S = [m,-1] union {1}) whose root
    has in-type (0;c_0) and which have n(i,s,c) non-root vertices of complete
    type (i;s;c):

    c_0^1 n! prod n(i,s)! prod_{i=1}^{r-1} (sum_b b n_1(i,1,b))
    / (prod n(i,s,c)! prod_{i>0} n(i,1) prod_{b,s} b!^{n_s(b)}).
    """
    return _cayley_complete(step_set, root_in, comp)[1]


def count_cayley_complete(step_set: StepSet, root_in: CVec,
                          comp: CompleteDist) -> BigCount:
    """Non-negative S-embedded Cayley trees with a given root in-type and
    complete-type distribution (cayley_complete_factors)."""
    return product(cayley_complete_factors(step_set, root_in, comp),
                   "Cayley complete-type count")


# ---------------------------------------------------------------------------
# function-family counts (the lemma side of the bijections)
# ---------------------------------------------------------------------------

def count_function_family(kind: str, step_set: StepSet, *,
                          profile: Profile | None = None,
                          out: OutDist | None = None,
                          inn: InDist | None = None,
                          complete: CompleteDist | None = None,
                          vertex_in_types: Mapping[Vertex, CVec] | None = None,
                          root_in: CVec | None = None) -> BigCount:
    """Number of S-functions on V \\ {0^1} satisfying (F), under a constraint.

    kinds: profile, injective_profile, out_fixed, out_counted,
    injective_out_fixed, injective_out_counted, in_fixed, in_counted,
    complete_fixed, complete_counted.  The *_fixed kinds prescribe the type
    of every vertex; the *_counted kinds prescribe only the number of
    vertices of each type.  in_fixed with ell < 0 counts the relaxed family
    where f(-1^1) need not land in V_0.  The profile of the prescription
    must satisfy validate_profile_for, and the complete kinds need ell = 0;
    otherwise HypothesisViolation.

    A counted kind is its tree count (the bijections preserve the constraint)
    times kappa = n_r (n_ell if ell < 0 else 1) prod (n_i-1)! / n!; the
    injective kinds count S-ary trees, which carry no labels, so without /n!.
    """
    kinds = {  # kind: its profile and its rows
        "profile": lambda: (profile, cayley_factors(step_set, profile)),
        "injective_profile": lambda: (profile, sary_factors(step_set, profile)),
        "out_counted": lambda: _cayley_out(step_set, out),
        "injective_out_counted": lambda: _sary_out(step_set, out),
        "in_counted": lambda: _cayley_in(step_set, inn),
        "complete_counted": lambda: _cayley_complete(step_set, root_in, complete),
        "out_fixed": lambda: _out_fixed(step_set, out),
        "injective_out_fixed": lambda: _injective_out_fixed(step_set, out),
        "in_fixed": lambda: _in_fixed(step_set, vertex_in_types),
        "complete_fixed": lambda: _complete_fixed(step_set, vertex_in_types, out),
    }
    if kind not in kinds:
        raise ValueError(f"unknown kind {kind!r}")
    prof, rows = kinds[kind]()
    validate_profile_for(step_set, prof)
    if kind.startswith("complete") and prof.ell != 0:
        raise HypothesisViolation(f"complete-type counting needs ell = 0, got {prof.ell}")
    if not kind.endswith("_fixed"):
        rows = [*rows, *_ends(prof), _factorials(prof)]
        if not kind.startswith("injective"):
            rows.append(("1/n!", Fraction(1, math.factorial(prof.n))))
    return product(rows, f"{kind} function count")


def _out_fixed(step_set: StepSet, out: OutDist) -> tuple[Profile, Factors]:
    """Prescribed out-type for every vertex: n_r n_ell prod_i n_i^(c(i)-1)."""
    p = _check_out_dist(step_set, out)
    return p, [*_ends(p), *_parent_choices(step_set, out, p)]


def _injective_out_fixed(step_set: StepSet, out: OutDist) -> tuple[Profile, Factors]:
    """Prescribed out-type for every vertex, injective on each V_i:
    n_r n_ell / prod_i n_i prod n(i,s)! C(n_{i-s}, n(i,s))."""
    p = _check_out_dist(step_set, out)
    return p, [*_ends(p), ("1/prod n_i", Fraction(1, math.prod(p.counts))),
               ("prod n(i,s)! C(n_{i-s}, n(i,s))",
                math.prod(math.perm(p.count(i - s), c) for (i, s), c in out.items()))]


def _in_fixed(step_set: StepSet, vertex_in_types: Mapping[Vertex, CVec]
              ) -> tuple[Profile, Factors]:
    """Prescribed in-type for every vertex (for ell < 0 this counts the
    relaxed family where f(-1^1) may leave V_0)."""
    inn = Counter((v.i, tuple(cv)) for v, cv in vertex_in_types.items())
    p, _out = _check_in_dist(step_set, inn)
    _check_vertices(p, vertex_in_types)
    return p, [("n_-1 if ell < 0", p.count(-1) if p.ell < 0 else 1), _factorials(p),
               _children_factorials((cv, 1) for cv in vertex_in_types.values()),
               _spine_heads(vertex_in_types, p, step_set.m)]


def _complete_fixed(step_set: StepSet, vertex_in_types: Mapping[Vertex, CVec],
                    out: OutDist) -> tuple[Profile, Factors]:
    """Prescribed complete type for every vertex: its in-type, and out-steps
    with the counts `out` (spine vertices i^1 taking the step 1 that (F)
    forces); nonneg, 0 not in S."""
    m = _check_complete_steps(step_set)
    inn = Counter((v.i, tuple(cv)) for v, cv in vertex_in_types.items())
    p, children = _in_profile(inn, m)
    _check_vertices(p, vertex_in_types)
    _check_children(children, {k: c for k, c in out.items() if c}, "complete prescription")
    _check_out_dist(step_set, out)
    return p, [*_complete_out(out, p.r),
               _children_factorials((cv, 1) for cv in vertex_in_types.values()),
               _spine_heads(vertex_in_types, p, m)]


# ---------------------------------------------------------------------------
# the paper's cases beyond min S = -1: instances of the general count
# ---------------------------------------------------------------------------

def _count_at_ell(step_set: StepSet, profile: Profile, ell: int) -> BigCount:
    if profile.ell != ell:
        raise HypothesisViolation(f"this formula needs ell = {ell}, got {profile.ell}")
    return count_cayley_profile(step_set, profile)


def count_cayley_profile_ell1(step_set: StepSet, profile: Profile) -> BigCount:
    """S-embedded Cayley trees with ell = -1 (count_cayley_profile); the
    paper's product (n!/prod n_i!) prod_{i=0}^{r-1} n_i prod_i d_i^{n_i-1}
    (sum_{s<=-1} n_{-s-1})."""
    return _count_at_ell(step_set, profile, -1)


def count_cayley_profile_ell2(step_set: StepSet, profile: Profile) -> BigCount:
    """S-embedded Cayley trees with ell = -2 (count_cayley_profile); the
    paper's product with bracket n_-2 sum_{s<=-2} n_{-s-2}
    + (sum_{s<=-1} n_{-s-2})(sum_{s<=-1} n_{-s-1})."""
    return _count_at_ell(step_set, profile, -2)


# ---------------------------------------------------------------------------
# trees embedded in trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TargetTree:
    """A finite rooted tree of abscissas with positive multiplicities.

    counts[i] is the number of vertices that must sit at abscissa-node i; all
    counts are positive (the embedding is surjective).  A single-node target
    is treated as self-adjacent, so its embedded trees are all rooted Cayley
    trees.
    """

    nodes: tuple[int, ...]
    root: int
    edges: tuple[tuple[int, int], ...]
    counts: tuple[tuple[int, int], ...]

    @staticmethod
    def of(root: int, edges: Iterable[tuple[int, int]],
           counts: Mapping[int, int]) -> "TargetTree":
        edges = tuple(sorted(tuple(sorted(e)) for e in edges))
        nodes = tuple(sorted(counts))
        t = TargetTree(nodes, root, edges, tuple(sorted(counts.items())))
        t._validate()
        return t

    def _validate(self) -> None:
        nodes = set(self.nodes)
        if self.root not in nodes:
            raise InvalidProfile("root must be a target node")
        if any(c < 1 for _i, c in self.counts):
            raise NonSurjectiveProfile("all target multiplicities must be positive")
        if len(self.edges) != len(nodes) - 1:
            raise InvalidProfile("target must be a tree")
        if len(nodes) > 1:
            reached = {self.root}
            frontier = [self.root]
            adj = self.adjacency()
            while frontier:
                v = frontier.pop()
                for w in adj[v]:
                    if w not in reached:
                        reached.add(w)
                        frontier.append(w)
            if reached != nodes:
                raise InvalidProfile("target must be connected")

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {i: [] for i in self.nodes}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        if len(self.nodes) == 1:
            adj[self.root].append(self.root)
        return adj

    def count(self, i: int) -> int:
        return dict(self.counts)[i]

    @property
    def n(self) -> int:
        return sum(c for _i, c in self.counts)


def tree_in_tree_factors(target: TargetTree) -> Factors:
    """Surjective target-embedded Cayley trees with the given multiplicities:
    n_rho (n!/prod n_i!) prod_i ((sum_{j~i} n_j)^{n_i-1} n_i^{deg(i)-1})."""
    t = target
    if len(t.nodes) == 1:  # every rooted Cayley tree embeds
        return [("rooted Cayley trees n^(n-1)", t.n ** (t.n - 1))]
    adj = t.adjacency()
    counts = dict(t.counts)
    return [("root multiplicity n_rho", counts[t.root]),
            ("relabelings n!/prod n_i!", _multinomial(counts.values())),
            *((f"node {i}: (sum_{{j~i}} n_j)^(n_i-1) n_i^(deg(i)-1)",
               sum(counts[j] for j in adj[i]) ** (ni - 1) * ni ** (len(adj[i]) - 1))
              for i, ni in t.counts)]


def count_tree_in_tree(target: TargetTree) -> BigCount:
    """Surjective target-embedded Cayley trees (tree_in_tree_factors)."""
    return product(tree_in_tree_factors(target), "tree-in-tree count")
