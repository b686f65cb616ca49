"""Brute-force enumerators: the ground truth every formula is checked against.

Everything here is deliberately naive (full enumeration with rejection and
profile pruning, no counting shortcuts) so that it can be audited line by
line.  Budgets cap the work: enumerators count elementary steps and raise
BudgetExceeded past the cap.

The census sweep walks only the trees rooted at label 1 and counts each n
times.  That is exact: swapping the labels 1 and r maps the embedded trees
rooted at r one-to-one onto those rooted at 1, and moves no abscissa, so
every profile and every census key is kept.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import (
    BudgetExceeded,
    CVec,
    EmbeddedCayleyTree,
    MarkedSTree,
    Profile,
    SAryTree,
    SFunction,
    StepSet,
    Vertex,
    VertexSet,
    _cvec_lookup,
    condition_t,
    condition_t1,
    condition_t2,
    allowed_images,
    is_injective,
    is_tree,
    embedded_cayley_to_json,
    marked_stree_to_json,
    sary_to_json,
    sfunction_to_json,
    type_distribution_of,
)


@dataclass
class EnumerationBudget:
    """Caps for exhaustive searches: max object size and elementary steps.

    Each enumerator call meters its own steps against max_candidates, so one
    budget shared by many calls caps every call, not their sum.
    """

    max_size: int = 7
    max_candidates: int = 200_000_000

    def __post_init__(self):
        if self.max_size < 1:
            raise ValueError("max_size must be >= 1")
        self._steps = 0

    def charge(self, amount: int = 1) -> None:
        """Account for work; raises BudgetExceeded past the step cap."""
        self._steps += amount
        if self._steps > self.max_candidates:
            raise BudgetExceeded(f"enumeration exceeded {self.max_candidates} steps")

    def check_size(self, n: int) -> None:
        if n > self.max_size:
            raise BudgetExceeded(f"object size {n} exceeds budget {self.max_size}")


def _budget(budget: EnumerationBudget | None) -> EnumerationBudget:
    """A fresh meter for one enumerator call, with the caps of `budget` (the
    defaults when None) and no steps charged yet."""
    if budget is None:
        return EnumerationBudget()
    return EnumerationBudget(budget.max_size, budget.max_candidates)


@dataclass(frozen=True)
class LooseStepSet:
    """Step container without the max-step-1 requirement.

    Only the tree/S-ary enumerators accept it: they are used to recount the
    configurations showing that the product formulas NEED max S = 1 (for
    example S = {-1, 1, 2}).  Everything downstream of the bijections keeps
    the strict StepSet.
    """

    steps: tuple[int, ...]

    def __init__(self, steps: Iterable[int]):
        object.__setattr__(self, "steps", tuple(sorted(set(steps))))

    @property
    def m(self) -> int:
        return self.steps[0]

    def __contains__(self, s: int) -> bool:
        return s in self.steps

    def __iter__(self):
        return iter(self.steps)


def _coerce_steps(steps) -> StepSet | LooseStepSet:
    if isinstance(steps, (StepSet, LooseStepSet)):
        return steps
    steps = tuple(sorted(set(steps)))
    if steps and steps[-1] == 1:
        return StepSet(steps)
    return LooseStepSet(steps)


# ---------------------------------------------------------------------------
# S-functions
# ---------------------------------------------------------------------------

def enumerate_sfunctions(step_set: StepSet, profile: Profile, regime: str,
                         constraint=None,
                         budget: EnumerationBudget | None = None,
                         ) -> Iterator[SFunction]:
    """All S-functions on V \\ {0^1} satisfying condition (F), in
    lexicographic order of the image tuple.

    constraint="injective" keeps only functions injective on each V_i.
    constraint="relaxed_spine" drops the clause f(-1^1) in V_0 (the image of
    -1^1 ranges over all S-images instead); used by the in-type lemma tests.
    A pair constraint selects by types (filters, naive on purpose):
    ("out_types", {v: s}) / ("in_types", {v: cvec}) fix per-vertex types;
    ("out_counts", dist) / ("in_counts", dist) / ("complete_counts",
    (root_cvec, dist)) fix the counted distribution.
    """
    budget = _budget(budget)
    budget.check_size(profile.n)
    if regime not in ("nonneg", "general"):
        raise ValueError(f"unknown regime {regime!r}")
    if regime == "nonneg" and profile.ell != 0:
        raise ValueError("nonneg regime needs ell = 0")
    vset = VertexSet(profile)
    forced: dict[Vertex, Vertex] = {}
    for i in range(1, profile.r + 1):
        forced[Vertex(i, 1)] = Vertex(i - 1, 1)
    for i in range(profile.ell, -1):
        forced[Vertex(i, 1)] = Vertex(i + 1, 1)
    free: list[Vertex] = []
    domains: list[list[Vertex]] = []
    for v in vset.vertices():
        if v == Vertex(0, 1) or v in forced:
            continue
        if profile.ell < 0 and v == Vertex(-1, 1):
            continue  # handled below: (F) pins its image to V_0
        free.append(v)
        domains.append(allowed_images(vset, step_set, v))
    if profile.ell < 0:
        v1 = Vertex(-1, 1)
        free.insert(0, v1)
        if constraint == "relaxed_spine":
            domains.insert(0, allowed_images(vset, step_set, v1))
        else:
            domains.insert(0, vset.level(0))
    for choice in itertools.product(*domains):
        budget.charge()
        image = dict(forced)
        image.update(zip(free, choice))
        f = SFunction(vset, step_set, image, validate=False)
        if constraint == "injective" and not is_injective(f):
            continue
        if isinstance(constraint, tuple) and not _matches_constraint(f, constraint):
            continue
        yield f


def _matches_constraint(f: SFunction, constraint: tuple) -> bool:
    kind, want = constraint
    if kind == "out_types":
        return all(f.image[v].i == v.i - s for v, s in want.items())
    if kind == "in_types":
        cvec = _cvec_lookup(f, f.step_set.m)
        return all(cvec(v) == tuple(cv) for v, cv in want.items())
    dist = type_distribution_of(f, check=False)
    if kind == "out_counts":
        return dist.out_key() == tuple(sorted((k, c) for k, c in want.items() if c))
    if kind == "in_counts":
        return dist.in_key() == tuple(sorted((k, c) for k, c in want.items() if c))
    if kind == "complete_counts":
        root_cv, comp = want
        return dist.complete_key() == (tuple(root_cv), tuple(
            sorted((k, c) for k, c in comp.items() if c)))
    raise ValueError(f"unknown constraint {kind!r}")


# ---------------------------------------------------------------------------
# marked S-trees
# ---------------------------------------------------------------------------

def enumerate_marked_strees(step_set: StepSet, profile: Profile, regime: str,
                            budget: EnumerationBudget | None = None,
                            ) -> Iterator[MarkedSTree]:
    """All marked S-trees of the given regime, verified by the explicit
    path-walk predicates: (T) with root 0^1 for nonneg, (T1) and (T2) with
    root in V_0 for general."""
    budget = _budget(budget)
    budget.check_size(profile.n)
    vset = VertexSet(profile)
    if regime == "nonneg":
        if profile.ell != 0:
            raise ValueError("nonneg regime needs ell = 0")
        roots = [Vertex(0, 1)]
        keep = condition_t
    elif regime == "general":
        roots = vset.level(0)
        keep = lambda t: condition_t1(t) and condition_t2(t)
    else:
        raise ValueError(f"unknown regime {regime!r}")
    marks = vset.level(profile.r)
    for tree in _enumerate_strees(vset, step_set, roots, budget):
        for mark in marks:
            marked = MarkedSTree(vset, step_set, tree[1], root=tree[0],
                                 mark=mark, validate=False)
            if keep(marked):
                yield marked


def _enumerate_strees(vset: VertexSet, step_set: StepSet, roots: list[Vertex],
                      budget: EnumerationBudget,
                      ) -> Iterator[tuple[Vertex, dict[Vertex, Vertex]]]:
    verts = list(vset.vertices())
    for root in roots:
        others = [v for v in verts if v != root]
        domains = [[w for w in allowed_images(vset, step_set, v) if w != v]
                   for v in others]
        for choice in itertools.product(*domains):
            budget.charge()
            parent = dict(zip(others, choice))
            if is_tree(parent, root):
                yield root, parent


# ---------------------------------------------------------------------------
# embedded Cayley trees
# ---------------------------------------------------------------------------

_ROOTED_TREE_CACHE: dict[int, list[tuple[int, tuple[tuple[int, int], ...]]]] = {}
_TRAVERSAL_CACHE: dict[int, list[tuple[int, tuple[tuple[int, int], ...],
                                       tuple[int, ...], tuple[int, ...]]]] = {}


def rooted_cayley_trees(n: int) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """All n^{n-1} rooted Cayley trees on labels 1..n as (root, parent pairs),
    obtained by decoding every parent sequence and rejecting non-trees.
    The trees are listed by increasing root label."""
    if n not in _ROOTED_TREE_CACHE:
        labels = list(range(1, n + 1))
        trees = []
        for root in labels:
            others = [v for v in labels if v != root]
            for choice in itertools.product(labels, repeat=len(others)):
                parent = dict(zip(others, choice))
                if any(parent[v] == v for v in others):
                    continue
                if is_tree(parent, root):
                    trees.append((root, tuple(zip(others, choice))))
        assert len(trees) == n ** (n - 1)
        _ROOTED_TREE_CACHE[n] = trees
    return _ROOTED_TREE_CACHE[n]


def _traversals(n: int) -> list[tuple[int, tuple[tuple[int, int], ...],
                                      tuple[int, ...], tuple[int, ...]]]:
    """(root, pairs, order, up) for each tree of rooted_cayley_trees(n), in
    the same order.  `order` lists the labels depth first, children by
    increasing label, and up[k] is the position in `order` of the parent of
    order[k] (up[0] = -1).  Equal orders and equal ups share one tuple."""
    if n not in _TRAVERSAL_CACHE:
        orders: dict[tuple[int, ...], tuple[int, ...]] = {}
        ups: dict[tuple[int, ...], tuple[int, ...]] = {}
        traversals = []
        for root, pairs in rooted_cayley_trees(n):
            children: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
            for v, w in pairs:  # pairs run by increasing child label
                children[w].append(v)
            order: list[int] = []
            up: list[int] = []
            stack = [(root, -1)]
            while stack:
                v, k = stack.pop()
                up.append(k)
                stack.extend((c, len(order)) for c in reversed(children[v]))
                order.append(v)
            order_t, up_t = tuple(order), tuple(up)
            traversals.append((root, pairs, orders.setdefault(order_t, order_t),
                               ups.setdefault(up_t, up_t)))
        _TRAVERSAL_CACHE[n] = traversals
    return _TRAVERSAL_CACHE[n]


def _placements(n: int, root_place: int, moves: dict[int, list[int]],
                counts: dict[int, int], budget: EnumerationBudget
                ) -> Iterator[tuple[int, dict[int, int], dict[int, int]]]:
    """(root, parent, place) for every rooted Cayley tree on 1..n and every
    placement of its vertices with the root at root_place, each child at one
    of moves[its parent's place], and counts[q] vertices at each place q.
    Vertices are placed in DFS order, pruned on the counts left."""
    for root, pairs, order, up in _traversals(n):
        budget.charge(n)
        remaining = dict(counts)
        if remaining.get(root_place, 0) < 1:
            continue
        remaining[root_place] -= 1
        parent = dict(pairs)
        place = [root_place] * n  # place[k] is the place of order[k]

        def assign(k: int) -> Iterator[dict[int, int]]:
            budget.charge()
            if k == n:
                if not any(remaining.values()):
                    yield dict(zip(order, place))
                return
            for q in moves[place[up[k]]]:
                if remaining.get(q, 0) > 0:
                    remaining[q] -= 1
                    place[k] = q
                    yield from assign(k + 1)
                    remaining[q] += 1

        for full in assign(1):
            yield root, parent, full


def enumerate_embedded_cayley(step_set: StepSet | LooseStepSet | Iterable[int],
                              profile: Profile,
                              budget: EnumerationBudget | None = None,
                              ) -> Iterator[EmbeddedCayleyTree]:
    """All S-embedded Cayley trees with the given profile: every rooted
    labeled tree crossed with every consistent abscissa assignment, pruned on
    partial profiles."""
    step_set = _coerce_steps(step_set)
    budget = _budget(budget)
    budget.check_size(profile.n)
    steps = sorted(step_set)
    moves = {i: [i + s for s in steps] for i in profile.abscissas()}
    counts = {i: profile.count(i) for i in profile.abscissas()}
    for root, parent, abscissa in _placements(profile.n, 0, moves, counts, budget):
        yield EmbeddedCayleyTree(profile.n, root, parent, abscissa, step_set,
                                 validate=False)


# ---------------------------------------------------------------------------
# S-ary trees
# ---------------------------------------------------------------------------

def enumerate_sary(step_set: StepSet | LooseStepSet | Iterable[int],
                   profile: Profile,
                   budget: EnumerationBudget | None = None,
                   ) -> Iterator[SAryTree]:
    """All S-ary trees with the given profile, by recursive construction over
    step-indexed child slots with profile pruning."""
    step_set = _coerce_steps(step_set)
    budget = _budget(budget)
    budget.check_size(profile.n)
    steps = sorted(step_set)
    remaining = {i: profile.count(i) for i in profile.abscissas()}
    if remaining.get(0, 0) < 1:
        return
    remaining[0] -= 1

    def grow(abscissa: int) -> Iterator[SAryTree]:
        """All subtrees rooted at a vertex already placed at `abscissa`,
        consuming whatever profile mass each uses."""
        budget.charge()

        def slots(idx: int, acc: list[tuple[int, SAryTree]]
                  ) -> Iterator[tuple[tuple[int, SAryTree], ...]]:
            if idx == len(steps):
                yield tuple(acc)
                return
            s = steps[idx]
            yield from slots(idx + 1, acc)  # no child at this step
            a = abscissa + s
            if remaining.get(a, 0) > 0:
                remaining[a] -= 1
                for child in grow(a):
                    acc.append((s, child))
                    yield from slots(idx + 1, acc)
                    acc.pop()
                remaining[a] += 1

        for kids in slots(0, []):
            yield SAryTree(abscissa, kids)

    for tree in grow(0):
        if all(c == 0 for c in remaining.values()):
            yield tree


# ---------------------------------------------------------------------------
# censuses and golden-file dumps
# ---------------------------------------------------------------------------

def census_by_type(stream: Iterable, granularity: str) -> dict:
    """Exact census of a stream of trees or functions.

    granularity: "profile" buckets by vertical profile; "out"/"in"/"complete"
    bucket by the corresponding type distribution (complete keys include the
    root in-type).
    """
    census: dict = {}
    for obj in stream:
        if granularity == "profile":
            prof = obj.profile() if callable(getattr(obj, "profile")) else obj.profile
            key = (prof.ell, prof.counts)
        else:
            dist = type_distribution_of(obj)
            if granularity == "out":
                key = dist.out_key()
            elif granularity == "in":
                key = dist.in_key()
            elif granularity == "complete":
                key = dist.complete_key()
            else:
                raise ValueError(f"unknown granularity {granularity!r}")
        census[key] = census.get(key, 0) + 1
    return census


def dump_ndjson(stream: Iterable, path) -> int:
    """Newline-delimited canonical JSON dump; returns the object count."""
    serializers = {
        SFunction: sfunction_to_json,
        MarkedSTree: marked_stree_to_json,
        EmbeddedCayleyTree: embedded_cayley_to_json,
        SAryTree: sary_to_json,
    }
    count = 0
    with open(path, "w") as handle:
        for obj in stream:
            handle.write(serializers[type(obj)](obj))
            handle.write("\n")
            count += 1
    return count


# ---------------------------------------------------------------------------
# compatible distributions (the index sets of the pointwise formula checks)
# ---------------------------------------------------------------------------

def compatible_out_distributions(step_set: StepSet, profile: Profile
                                 ) -> Iterator[dict[tuple[int, int], int]]:
    """All out-distributions n(i,s) >= 0 with chi_{i=0} + sum_s n(i,s) = n_i
    and n(i,s) = 0 when i - s leaves [ell, r]."""
    p = profile
    per_level: list[list[dict[tuple[int, int], int]]] = []
    for i, ni in p.items():
        need = ni - (1 if i == 0 else 0)
        slots = [s for s in step_set if p.ell <= i - s <= p.r]
        level: list[dict[tuple[int, int], int]] = []
        for split in _compositions(need, len(slots)):
            level.append({(i, s): c for s, c in zip(slots, split) if c})
        if not level and need > 0:
            return
        per_level.append(level or [{}])
    for parts in itertools.product(*per_level):
        out: dict[tuple[int, int], int] = {}
        for part in parts:
            out.update(part)
        yield out


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative ints summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _vector_partitions(vec: tuple[int, ...], parts: int
                       ) -> Iterator[tuple[tuple[tuple[int, ...], int], ...]]:
    """All multisets of `parts` nonnegative vectors summing to vec, as sorted
    ((vector, multiplicity), ...) tuples."""
    found: set = set()

    def split(remaining: tuple[int, ...], parts_left: int,
              floor: tuple[int, ...], acc: list) -> Iterator:
        if parts_left == 0:
            if all(x == 0 for x in remaining):
                key = tuple(sorted(_count_multi(acc).items()))
                if key not in found:
                    found.add(key)
                    yield key
            return
        # next part ranges over vectors <= remaining, >= floor (to kill order)
        for part in _vectors_upto(remaining):
            if part < floor:
                continue
            acc.append(part)
            rem = tuple(a - b for a, b in zip(remaining, part))
            yield from split(rem, parts_left - 1, part, acc)
            acc.pop()

    yield from split(vec, parts, tuple([0] * len(vec)), [])


def _vectors_upto(bound: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    ranges = [range(b + 1) for b in bound]
    for combo in itertools.product(*ranges):
        yield combo


def _count_multi(items: list) -> dict:
    out: dict = {}
    for x in items:
        out[x] = out.get(x, 0) + 1
    return out


def compatible_in_distributions(step_set: StepSet, profile: Profile
                                ) -> Iterator[dict[tuple[int, CVec], int]]:
    """All in-distributions over dense c-vectors (steps m..1) compatible with
    the profile: for each out-distribution, every way of splitting the child
    mass e_{j,s} = n(j+s, s) among the n_j vertices at abscissa j."""
    p = profile
    m = step_set.m
    width = 1 - m + 1
    for out in compatible_out_distributions(step_set, profile):
        per_level = []
        feasible = True
        for j, nj in p.items():
            evec = tuple(out.get((j + s, s), 0) for s in range(m, 2))
            level = list(_vector_partitions(evec, nj))
            if not level:
                feasible = False
                break
            per_level.append((j, level))
        if not feasible:
            continue
        for parts in itertools.product(*(lv for _j, lv in per_level)):
            inn: dict[tuple[int, CVec], int] = {}
            for (j, _lv), multis in zip(per_level, parts):
                for cv, cnt in multis:
                    assert len(cv) == width
                    inn[(j, cv)] = inn.get((j, cv), 0) + cnt
            yield inn


def compatible_complete_distributions(step_set: StepSet, profile: Profile
                                      ) -> Iterator[tuple[CVec, dict]]:
    """All (root in-type, complete distribution) pairs compatible with a
    non-negative profile for S = [m,-1] union {1}: split each abscissa's
    child mass among its out-type groups and the root."""
    p = profile
    if p.ell != 0:
        raise ValueError("complete distributions are enumerated for ell = 0 only")
    m = step_set.m
    for out in compatible_out_distributions(step_set, profile):
        per_level = []
        feasible = True
        for j, _nj in p.items():
            evec = tuple(out.get((j + s, s), 0) for s in range(m, 2))
            groups = [(s, out.get((j, s), 0)) for s in sorted(step_set)
                      if out.get((j, s), 0) > 0]
            if j == 0:
                groups.append(("root", 1))
            options = list(_group_splits(evec, groups))
            if not options:
                feasible = False
                break
            per_level.append((j, options))
        if not feasible:
            continue
        for parts in itertools.product(*(opt for _j, opt in per_level)):
            comp: dict = {}
            root_cv: CVec | None = None
            ok = True
            for (j, _opt), assignment in zip(per_level, parts):
                for (s, multis) in assignment:
                    for cv, cnt in multis:
                        if s == "root":
                            assert cnt == 1
                            root_cv = cv
                        else:
                            comp[(j, s, cv)] = comp.get((j, s, cv), 0) + cnt
            if root_cv is None or any(root_cv[:-1]):
                ok = root_cv is not None and not any(root_cv[:-1])
            if ok:
                yield root_cv, comp


def _group_splits(evec: tuple[int, ...], groups: list):
    """Distribute the child-mass vector among sized groups; within a group,
    all multiset partitions into exactly that many parts."""
    if not groups:
        if all(x == 0 for x in evec):
            yield []
        return
    (label, size), rest = groups[0], groups[1:]
    for share in _vectors_upto(evec):
        remainder = tuple(a - b for a, b in zip(evec, share))
        for multis in _vector_partitions(share, size):
            for tail in _group_splits(remainder, rest):
                yield [(label, multis)] + tail


# ---------------------------------------------------------------------------
# bulk sweeps (still naive, but enumerated once per size instead of once per
# profile; used by the acceptance suite)
# ---------------------------------------------------------------------------

def sweep_embedded_censuses(step_set: StepSet, n: int,
                            granularities: tuple[str, ...] = ("out",),
                            budget: EnumerationBudget | None = None,
                            ) -> dict[str, dict]:
    """Censuses of ALL S-embedded Cayley trees of size n, bucketed first by
    profile: result[g][(ell, counts)][census_key] = count.  "count" buckets
    just the number of trees per profile.

    Only the trees rooted at label 1 are swept, each counted n times.  That
    is exact: the transposition of labels 1 and r maps the embedded trees
    rooted at r one-to-one onto those rooted at 1 and keeps every abscissa,
    so it keeps every profile and every census key.

    Census keys are computed inline from the parent/abscissa arrays (the
    object-level type_distribution_of is exercised separately); c-vectors are
    dense over min S .. 1.
    """
    budget = _budget(budget)
    budget.check_size(n)
    for g in granularities:
        if g not in ("out", "in", "complete"):
            raise ValueError(f"unknown granularity {g!r}")
    result: dict[str, dict] = {g: {} for g in granularities}
    result.setdefault("count", {})
    steps = sorted(step_set)
    m = step_set.m
    width = 1 - m + 1
    for root, _pairs, _order, up in _traversals(n):
        if root != 1:
            break  # the trees come by increasing root label
        budget.charge(n)
        absc = [0] * n  # absc[k] is the abscissa of the k-th vertex in DFS order
        counts: dict[int, int] = {0: 1}

        def emit() -> None:
            lo = min(counts)
            hi = max(counts)
            pkey = (lo, tuple(counts.get(i, 0) for i in range(lo, hi + 1)))
            result["count"][pkey] = result["count"].get(pkey, 0) + n
            if not granularities:
                return
            cvecs = [[0] * width for _ in range(n)]
            out: dict[tuple[int, int], int] = {}
            for k in range(1, n):
                s = absc[k] - absc[up[k]]
                cvecs[up[k]][s - m] += 1
                out[(absc[k], s)] = out.get((absc[k], s), 0) + 1
            for g in granularities:
                if g == "out":
                    key = tuple(sorted(out.items()))
                elif g == "in":
                    inn: dict = {}
                    for k in range(n):
                        t = (absc[k], tuple(cvecs[k]))
                        inn[t] = inn.get(t, 0) + 1
                    key = tuple(sorted(inn.items()))
                else:
                    comp: dict = {}
                    for k in range(1, n):
                        t = (absc[k], absc[k] - absc[up[k]], tuple(cvecs[k]))
                        comp[t] = comp.get(t, 0) + 1
                    key = (tuple(cvecs[0]), tuple(sorted(comp.items())))
                bucket = result[g].setdefault(pkey, {})
                bucket[key] = bucket.get(key, 0) + n

        def assign(k: int) -> None:
            if k == n:
                emit()
                return
            budget.charge()
            base = absc[up[k]]
            for s in steps:
                a = base + s
                absc[k] = a
                counts[a] = counts.get(a, 0) + 1
                assign(k + 1)
                if counts[a] == 1:
                    del counts[a]
                else:
                    counts[a] -= 1

        assign(1)
    return result


def sweep_target_censuses(adj: dict[int, list[int]], root_node: int, n: int,
                          budget: EnumerationBudget | None = None
                          ) -> dict[tuple[int, ...], int]:
    """Census of the root-preserving morphisms from ALL rooted Cayley trees
    on 1..n to the target tree with adjacency `adj` (node -> neighbours; a
    single node lists itself): result[(c_node for node in sorted(adj))] is
    the number of (tree, morphism) pairs that send c_node vertices to each
    node.

    The search depends on a tree only through `up`, the DFS parent
    positions of _traversals, so it runs once per distinct `up` (one per
    plane shape: 132 at n = 7, against 7^6 trees) and each of its
    morphisms counts once for every tree that shares that `up`.
    """
    budget = _budget(budget)
    budget.check_size(n)
    trees_of: dict[tuple[int, ...], int] = {}
    for _root, _pairs, _order, up in _traversals(n):
        trees_of[up] = trees_of.get(up, 0) + 1
    slot = {node: j for j, node in enumerate(sorted(adj))}
    census: dict[tuple[int, ...], int] = {}
    for up, trees in trees_of.items():
        budget.charge(n)
        place = [root_node] * n  # place[k] is the node of the k-th DFS vertex
        counts = [0] * len(slot)
        counts[slot[root_node]] = 1

        def assign(k: int) -> None:
            budget.charge()
            if k == n:
                key = tuple(counts)
                census[key] = census.get(key, 0) + trees
                return
            for q in adj[place[up[k]]]:
                place[k] = q
                counts[slot[q]] += 1
                assign(k + 1)
                counts[slot[q]] -= 1

        assign(1)
    return census


def enumerate_target_embeddings(target, budget: EnumerationBudget | None = None
                                ) -> Iterator[tuple[int, dict, dict]]:
    """All (root, parent, abscissa) triples of rooted Cayley trees with a
    root-preserving morphism to the target tree (brute force for the
    tree-in-tree formula).  Single-node targets are self-adjacent."""
    budget = _budget(budget)
    budget.check_size(target.n)
    for root, parent, place in _placements(target.n, target.root, target.adjacency(),
                                           dict(target.counts), budget):
        yield root, dict(parent), place


def count_tree_in_tree_oracle(target, budget: EnumerationBudget | None = None
                              ) -> int:
    return sum(1 for _ in enumerate_target_embeddings(target, budget))
