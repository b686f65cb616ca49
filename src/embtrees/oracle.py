"""Brute-force enumerators: the ground truth every formula is checked against.

Everything here is deliberately naive (full enumeration with rejection and
profile pruning, no counting shortcuts) so that it can be audited line by
line.  Budgets cap the work: enumerators count elementary steps and raise
BudgetExceeded past the cap.

The census sweeps search once per DFS shape, not once per tree: a tree's
census depends only on its shape (the DFS parent position of each vertex)
and on where its DFS vertices land, so every placement of a shape counts
once for each rooted tree on 1..n, whatever its root, that has the shape.
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
    TypeDistribution,
    Vertex,
    VertexSet,
    _cvec_lookup,
    _type_distribution,
    condition_t,
    condition_t1,
    condition_t2,
    allowed_images,
    is_injective,
    is_tree,
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

def enumerate_sfunctions(step_set: StepSet, profile: Profile, regime: str | None = None,
                         *, constraint=None,
                         budget: EnumerationBudget | None = None,
                         ) -> Iterator[SFunction]:
    """All S-functions on V \\ {0^1} satisfying condition (F), in
    lexicographic order of the image tuple.

    constraint="injective" keeps only functions injective on each V_i.
    constraint="relaxed_spine" drops the clause f(-1^1) in V_0 (the image of
    -1^1 ranges over all S-images instead); used by the in-type lemma tests.
    A pair constraint selects by types (filters, naive on purpose):
    ("out_types", {v: s}) / ("in_types", {v: cvec}) fix per-vertex types;
    ("out_counts", dist) fixes the counted out-distribution.  Any other
    constraint raises ValueError.

    The profile decides the case: "nonneg" when ell = 0, "general" when
    ell < 0.  regime stays only for a caller that passes it positionally
    (perfbench's round-trip workload); any value other than the profile's
    case raises ValueError.
    """
    if regime not in (None, "general" if profile.ell < 0 else "nonneg"):
        raise ValueError(f"regime {regime!r} does not match ell = {profile.ell}")
    if not (constraint in (None, "injective", "relaxed_spine")
            or isinstance(constraint, tuple) and len(constraint) == 2
            and constraint[0] in ("out_types", "in_types", "out_counts")):
        raise ValueError(f"unknown constraint {constraint!r}")
    budget = _budget(budget)
    budget.check_size(profile.n)
    vset = VertexSet(profile)
    forced: dict[Vertex, Vertex] = {}
    for i in range(1, profile.r + 1):
        forced[Vertex(i, 1)] = Vertex(i - 1, 1)
    for i in range(profile.ell, -1):
        forced[Vertex(i, 1)] = Vertex(i + 1, 1)
    if any(v.i - w.i not in step_set for v, w in forced.items()):
        return  # (F) forces an arc that is not an S-edge
    free: list[Vertex] = []
    domains: list[list[Vertex]] = []
    for v in vset.vertices():
        if v == Vertex(0, 1) or v in forced:
            continue
        images = allowed_images(vset, step_set, v)
        if v == Vertex(-1, 1):
            # -1^1 leads the image tuple; (F) pins its image to V_0
            if constraint != "relaxed_spine":
                images = [w for w in images if w.i == 0]
            free.insert(0, v)
            domains.insert(0, images)
        else:
            free.append(v)
            domains.append(images)
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
    dist = type_distribution_of(f)
    return dist.out_key() == tuple(sorted((k, c) for k, c in want.items() if c))


# ---------------------------------------------------------------------------
# marked S-trees
# ---------------------------------------------------------------------------

def enumerate_marked_strees(step_set: StepSet, profile: Profile,
                            budget: EnumerationBudget | None = None,
                            ) -> Iterator[MarkedSTree]:
    """All marked S-trees that the bijection for the profile's case reaches,
    verified by the explicit path-walk predicates: (T) (root 0^1) when
    ell = 0, (T1) and (T2) (root in V_0) when ell < 0."""
    budget = _budget(budget)
    budget.check_size(profile.n)
    vset = VertexSet(profile)
    if profile.ell == 0:
        roots = [Vertex(0, 1)]
        keep = condition_t
    else:
        roots = vset.level(0)
        keep = lambda t: condition_t1(t) and condition_t2(t)
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
_SHAPE_CACHE: dict[int, list[tuple[dict[int, int], int]]] = {}


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


def _shapes(n: int) -> list[tuple[dict[int, int], int]]:
    """(parent, trees) per plane shape (132 at n = 7, against 7^6 trees):
    parent[k] = up[k] for the DFS positions k = 1..n-1 of _traversals(n),
    and trees is the number of rooted trees on 1..n that have that `up`."""
    if n not in _SHAPE_CACHE:
        trees_of: dict[tuple[int, ...], int] = {}
        for _root, _pairs, _order, up in _traversals(n):
            trees_of[up] = trees_of.get(up, 0) + 1
        _SHAPE_CACHE[n] = [({k: up[k] for k in range(1, n)}, trees)
                           for up, trees in trees_of.items()]
    return _SHAPE_CACHE[n]


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
# censuses
# ---------------------------------------------------------------------------

_CENSUS_KEYS = {"out": TypeDistribution.out_key, "in": TypeDistribution.in_key,
                "complete": TypeDistribution.complete_key}


def census_by_type(stream: Iterable, granularity: str) -> dict:
    """Exact census of a stream of trees or functions.

    granularity: "profile" buckets by vertical profile; "out"/"in"/"complete"
    bucket by the corresponding type distribution (complete keys include the
    root in-type).
    """
    if granularity != "profile" and granularity not in _CENSUS_KEYS:
        raise ValueError(f"unknown granularity {granularity!r}")
    census: dict = {}
    for obj in stream:
        if granularity == "profile":
            prof = obj.profile() if callable(getattr(obj, "profile")) else obj.profile
            key = (prof.ell, prof.counts)
        else:
            key = _CENSUS_KEYS[granularity](type_distribution_of(obj))
        census[key] = census.get(key, 0) + 1
    return census


# ---------------------------------------------------------------------------
# compatible distributions (the index sets of the pointwise formula checks)
# ---------------------------------------------------------------------------

def compatible_distributions(step_set: StepSet, profile: Profile,
                             granularity: str) -> Iterator:
    """All type distributions compatible with the profile, realised by a
    tree or not.

    "out": {(i, s): n} with n(i,s) >= 0, chi_{i=0} + sum_s n(i,s) = n_i and
    n(i,s) = 0 when i - s leaves [ell, r].  "in" and "complete" deal, for
    each out-distribution, the child mass e_{j,s} = n(j+s, s) of each
    abscissa j among labelled groups of its vertices, as dense c-vectors
    (steps m..1).  "in": one group of n_j vertices, giving {(i, c): n}.
    "complete" (ell = 0 only): one group per out-step s with n(j,s) > 0,
    plus the root at j = 0, giving (root c-vector, {(i, s, c): n}) with no
    root child at a step below 1.
    """
    if granularity not in ("out", "in", "complete"):
        raise ValueError(f"unknown granularity {granularity!r}")
    p = profile
    if granularity == "complete" and p.ell != 0:
        raise ValueError("complete distributions are enumerated for ell = 0 only")
    m = step_set.m
    levels = []
    for i, ni in p.items():
        slots = [s for s in step_set if p.ell <= i - s <= p.r]
        levels.append([{(i, s): c for s, c in zip(slots, split) if c}
                       for split in _compositions(ni - (i == 0), len(slots))])
    for parts in itertools.product(*levels):
        out = {key: c for part in parts for key, c in part.items()}
        if granularity == "out":
            yield out
            continue
        prefixes: list[tuple | None] = []  # one key prefix per group; None: the root
        deals = []
        for j, nj in p.items():
            if granularity == "in":
                groups = [((j,), nj)]
            else:
                groups = [((j, s), out[j, s]) for s in sorted(step_set) if (j, s) in out]
                if j == 0:
                    groups.append((None, 1))
            prefixes.extend(prefix for prefix, _size in groups)
            mass = tuple(out.get((j + s, s), 0) for s in range(m, 2))
            deals.append(list(_deal(mass, [size for _prefix, size in groups])))
        for choice in itertools.product(*deals):
            dist: dict = {}
            for prefix, cvs in zip(prefixes, itertools.chain.from_iterable(choice)):
                if prefix is None:
                    (root,) = cvs
                    continue
                for cv in cvs:
                    dist[prefix + (cv,)] = dist.get(prefix + (cv,), 0) + 1
            if granularity == "in":
                yield dist
            elif not any(root[:-1]):
                yield root, dist


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative ints summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _deal(mass: CVec, sizes: list[int]) -> Iterator[tuple[tuple[CVec, ...], ...]]:
    """Every way to deal the child-mass vector among groups of sizes[0],
    sizes[1], ... >= 1 vertices: one multiset of c-vectors per group.  The
    last group takes whatever mass is left."""
    if not sizes:
        if not any(mass):
            yield ()
        return
    shares = itertools.product(*(range(e + 1) for e in mass)) if sizes[1:] else [mass]
    for share in shares:
        left = tuple(a - b for a, b in zip(mass, share))
        for group in _multisets(share, sizes[0], (0,) * len(mass)):
            for rest in _deal(left, sizes[1:]):
                yield (group,) + rest


def _multisets(mass: CVec, k: int, floor: CVec) -> Iterator[tuple[CVec, ...]]:
    """All multisets of k >= 1 c-vectors, each >= floor, summing to mass, as
    non-decreasing tuples (so each multiset comes once)."""
    if k == 1:
        if mass >= floor:
            yield (mass,)
        return
    for cv in itertools.product(*(range(e + 1) for e in mass)):
        if cv >= floor:
            left = tuple(a - b for a, b in zip(mass, cv))
            for rest in _multisets(left, k - 1, cv):
                yield (cv,) + rest


# ---------------------------------------------------------------------------
# bulk sweeps (still naive, but enumerated once per size instead of once per
# profile; used by the acceptance suite)
# ---------------------------------------------------------------------------

def _shape_search(n: int, root_place, moves, visit,
                  budget: EnumerationBudget | None) -> None:
    """Call visit(parent, place, trees) for each (parent, trees) of
    _shapes(n) and every placement of its DFS positions: place[0] is
    root_place and place[k] is one of moves(place[parent[k]])."""
    budget = _budget(budget)
    budget.check_size(n)
    for parent, trees in _shapes(n):
        budget.charge(n)
        place = [root_place] * n

        def assign(k: int) -> None:
            budget.charge()
            if k == n:
                visit(parent, place, trees)
                return
            for q in moves(place[parent[k]]):
                place[k] = q
                assign(k + 1)

        assign(1)


def sweep_embedded_censuses(step_set: StepSet, n: int,
                            granularities: tuple[str, ...] = ("out",),
                            budget: EnumerationBudget | None = None,
                            ) -> dict[str, dict]:
    """Censuses of ALL S-embedded Cayley trees of size n, bucketed first by
    profile: result[g][(ell, counts)][census_key] = count.  "count" buckets
    just the number of trees per profile.

    One search per DFS shape places the DFS positions by steps of S from
    abscissa 0; each placement counts once for every tree of that shape.
    Census keys are those of type_distribution_of (c-vectors dense over
    min S .. 1), computed on the placement's arrays.
    """
    for g in granularities:
        if g not in _CENSUS_KEYS:
            raise ValueError(f"unknown granularity {g!r}")
    result: dict[str, dict] = {g: {} for g in granularities}
    result.setdefault("count", {})
    steps = sorted(step_set)

    def visit(parent: dict[int, int], place: list[int], trees: int) -> None:
        lo = min(place)
        pkey = (lo, tuple(map(place.count, range(lo, max(place) + 1))))
        result["count"][pkey] = result["count"].get(pkey, 0) + trees
        if granularities:
            dist = _type_distribution(place, parent, 0, step_set.m)
            for g in granularities:
                bucket = result[g].setdefault(pkey, {})
                key = _CENSUS_KEYS[g](dist)
                bucket[key] = bucket.get(key, 0) + trees

    _shape_search(n, 0, lambda a: [a + s for s in steps], visit, budget)
    return result


def sweep_target_censuses(adj: dict[int, list[int]], root_node: int, n: int,
                          budget: EnumerationBudget | None = None
                          ) -> dict[tuple[int, ...], int]:
    """Census of the root-preserving morphisms from ALL rooted Cayley trees
    on 1..n to the target tree with adjacency `adj` (node -> neighbours; a
    single node lists itself): result[(c_node for node in sorted(adj))] is
    the number of (tree, morphism) pairs that send c_node vertices to each
    node.  One search per DFS shape, as in sweep_embedded_censuses.
    """
    nodes = sorted(adj)
    census: dict[tuple[int, ...], int] = {}

    def visit(_parent: dict[int, int], place: list[int], trees: int) -> None:
        key = tuple(map(place.count, nodes))
        census[key] = census.get(key, 0) + trees

    _shape_search(n, root_node, adj.__getitem__, visit, budget)
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
