"""Domain types for trees embedded in the integer line.

A step set S (max S = 1) fixes the allowed abscissa increments between a
vertex and its parent.  A profile records how many vertices sit at each
abscissa.  On the structured vertex set V = union of V_i = {i^1, ..., i^{n_i}}
live two kinds of objects: S-functions (partial self-maps moving abscissas by
-s for s in S) and rooted S-trees with a marked vertex at the top abscissa.
Embedded Cayley trees carry ordinary labels 1..n instead, and S-ary trees are
their unlabelled injective shapes.

Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

# Sentinel step value for the out-type of the root (distinct from every int).
EPS = "eps"

BigCount = int


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

class EmbTreesError(Exception):
    """Base class for all library errors."""


class HypothesisViolation(EmbTreesError):
    """A theorem hypothesis (on S, the profile, or a distribution) fails."""


class InvalidProfile(EmbTreesError):
    pass


class NonIntegerResult(EmbTreesError):
    """An allegedly integral closed form evaluated to a non-integer."""


class IncompatibleDistribution(EmbTreesError):
    """A type distribution fails its compatibility identities."""


class NotInjective(EmbTreesError):
    pass


class NonSurjectiveProfile(EmbTreesError):
    pass


class BudgetExceeded(EmbTreesError):
    pass


class PreconditionViolated(EmbTreesError):
    pass


class ConditionViolated(EmbTreesError):
    """A tree fails one of the path conditions (T), (T1), (T2)."""


class ConditionTViolated(ConditionViolated):
    pass


class InfeasibleProfile(EmbTreesError):
    pass


# ---------------------------------------------------------------------------
# step sets and profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepSet:
    """Allowed abscissa increments, sorted, with max step exactly 1."""

    steps: tuple[int, ...]

    def __init__(self, steps: Iterable[int]):
        ordered = tuple(sorted(set(int(s) for s in steps)))
        if not ordered:
            raise HypothesisViolation("step set must be nonempty")
        if ordered[-1] != 1:
            raise HypothesisViolation(f"max step must be 1, got {ordered[-1]}")
        object.__setattr__(self, "steps", ordered)

    @property
    def m(self) -> int:
        return self.steps[0]

    @property
    def M(self) -> int:
        return self.steps[-1]

    def __contains__(self, s: int) -> bool:
        return s in self.steps

    def __iter__(self) -> Iterator[int]:
        return iter(self.steps)

    def is_interval(self) -> bool:
        return self.steps == tuple(range(self.m, 2))

    @staticmethod
    def parse(text: str) -> "StepSet":
        """Parse "-1,1" or an interval "a..b"."""
        text = text.strip()
        if ".." in text:
            lo, hi = text.split("..")
            return StepSet(range(int(lo), int(hi) + 1))
        return StepSet(int(p) for p in text.split(",") if p.strip())

    def __str__(self) -> str:
        return ",".join(str(s) for s in self.steps)


@dataclass(frozen=True)
class Profile:
    """Vertex counts per abscissa, (n_ell, ..., n_-1; n_0, ..., n_r).

    All stored counts are >= 1 and ell <= 0 <= r.  n(i) returns 0 outside
    [ell, r].  r is stored rather than recomputed, since count() reads it
    on every call.
    """

    ell: int
    counts: tuple[int, ...]
    r: int = field(init=False, repr=False, compare=False)

    def __init__(self, counts: Iterable[int], ell: int = 0):
        counts = tuple(int(c) for c in counts)
        if not counts:
            raise InvalidProfile("profile must be nonempty")
        if any(c < 1 for c in counts):
            raise InvalidProfile(f"profile counts must be positive: {counts}")
        r = ell + len(counts) - 1
        if not (ell <= 0 <= r):
            raise InvalidProfile(f"profile must cover abscissa 0: ell={ell}, r={r}")
        object.__setattr__(self, "ell", int(ell))
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "r", r)

    @property
    def n(self) -> int:
        return sum(self.counts)

    def count(self, i: int) -> int:
        """n_i, with n_i = 0 outside [ell, r]."""
        if self.ell <= i <= self.r:
            return self.counts[i - self.ell]
        return 0

    def abscissas(self) -> range:
        return range(self.ell, self.r + 1)

    def items(self) -> Iterator[tuple[int, int]]:
        for i in self.abscissas():
            yield i, self.count(i)

    @staticmethod
    def of_counts(counts: Mapping[int, int]) -> "Profile":
        """The profile with n_i = counts[i] from the least to the greatest
        key; an abscissa missing in between raises InvalidProfile."""
        lo, hi = min(counts), max(counts)
        return Profile([counts.get(i, 0) for i in range(lo, hi + 1)], ell=lo)

    @staticmethod
    def parse(text: str) -> "Profile":
        """Parse paper notation "2;2,1" (semicolon before n_0; none means ell=0)."""
        text = text.strip()
        if ";" in text:
            neg, nonneg = text.split(";")
            negs = [int(p) for p in neg.split(",") if p.strip()]
            rest = [int(p) for p in nonneg.split(",") if p.strip()]
            return Profile(negs + rest, ell=-len(negs))
        return Profile([int(p) for p in text.split(",") if p.strip()], ell=0)

    def __str__(self) -> str:
        pos = ",".join(str(self.count(i)) for i in range(0, self.r + 1))
        if self.ell == 0:
            return pos
        neg = ",".join(str(self.count(i)) for i in range(self.ell, 0))
        return f"{neg};{pos}"


def validate_profile_for(step_set: StepSet, profile: Profile) -> None:
    """Check the hypothesis under which the bijections and the product
    formulas hold: a profile with ell < 0 needs min S = -1 (max S = 1 is
    enforced by StepSet itself).  ell = 0 is the non-negative case (phi),
    ell < 0 the general one (psi)."""
    if profile.ell < 0 and step_set.m != -1:
        raise HypothesisViolation(
            f"ell = {profile.ell} < 0 needs min S = -1, got min S = {step_set.m}")


# ---------------------------------------------------------------------------
# structured vertices
# ---------------------------------------------------------------------------

class Vertex(NamedTuple):
    """The vertex i^k: abscissa i, 1-based index k.

    Tuple order gives the total order of the construction:
    i^k <= j^p iff i < j, or i = j and k <= p.
    """

    i: int
    k: int

    def __str__(self) -> str:
        return f"{self.i}^{self.k}"


@dataclass(frozen=True)
class VertexSet:
    """V = union of V_i = {i^1, ..., i^{n_i}} for a given profile.

    The vertices are built lazily, once per vertex set: the levels, the flat
    tuple and the frozenset of members are cached on first use, so a vertex
    set that only answers membership builds none of them.
    """

    profile: Profile

    @property
    def n(self) -> int:
        return self.profile.n

    @cached_property
    def levels(self) -> dict[int, tuple[Vertex, ...]]:
        """V_i for every abscissa i of the profile, in index order."""
        return {i: tuple(Vertex(i, k) for k in range(1, ni + 1))
                for i, ni in self.profile.items()}

    @cached_property
    def _flat(self) -> tuple[Vertex, ...]:
        return tuple(v for level in self.levels.values() for v in level)

    @cached_property
    def members(self) -> frozenset[Vertex]:
        return frozenset(self._flat)

    @cached_property
    def abscissa(self) -> dict[Vertex, int]:
        """v -> v.i for every vertex: one map shared by every function and
        tree on this vertex set."""
        return {v: v.i for v in self._flat}

    def vertices(self) -> tuple[Vertex, ...]:
        """Every vertex, in the total order of the construction."""
        return self._flat

    def level(self, i: int) -> tuple[Vertex, ...]:
        """V_i, empty outside [ell, r]."""
        return self.levels.get(i, ())

    def __contains__(self, v: Vertex) -> bool:
        return 1 <= v.k <= self.profile.count(v.i)

    def spine(self, i: int) -> Vertex:
        """The vertex i^1."""
        if self.profile.count(i) < 1:
            raise InvalidProfile(f"no vertices at abscissa {i}")
        return Vertex(i, 1)


def allowed_images(vset: VertexSet, step_set: StepSet, v: Vertex) -> list[Vertex]:
    """Union over s in S of V_{a(v)-s}, in canonical order."""
    out: list[Vertex] = []
    for s in sorted(step_set, reverse=True):  # i-s increasing
        out.extend(vset.level(v.i - s))
    return out


# ---------------------------------------------------------------------------
# S-functions and marked S-trees
# ---------------------------------------------------------------------------

class SFunction:
    """An S-function f : V \\ {0^1} -> V, viewed as the digraph v -> f(v)."""

    __slots__ = ("vertex_set", "step_set", "image", "_hash")

    def __init__(self, vertex_set: VertexSet, step_set: StepSet,
                 image: dict[Vertex, Vertex], validate: bool = True):
        self.vertex_set = vertex_set
        self.step_set = step_set
        self.image = dict(image)
        self._hash = None
        if validate:
            self._validate()

    def _validate(self) -> None:
        vset = self.vertex_set
        verts = vset.members
        # with 0^1 in V, the domain is V \ {0^1} iff it avoids 0^1, has
        # n - 1 elements and lies in V
        if (Vertex(0, 1) in self.image or len(self.image) != vset.n - 1
                or not verts.issuperset(self.image)):
            raise PreconditionViolated("image must be defined exactly on V \\ {0^1}")
        steps = self.step_set.steps
        for v, w in self.image.items():
            if w not in verts:
                raise PreconditionViolated(f"image {w} of {v} outside V")
            if (v.i - w.i) not in steps:
                raise PreconditionViolated(
                    f"arc {v} -> {w} is not an S-edge (step {v.i - w.i})")

    @property
    def profile(self) -> Profile:
        return self.vertex_set.profile

    def _key(self):
        return (self.profile.ell, self.profile.counts, self.step_set.steps,
                tuple(sorted(self.image.items())))

    def __eq__(self, other) -> bool:
        return isinstance(other, SFunction) and self._key() == other._key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __repr__(self) -> str:
        arcs = ", ".join(f"{v}->{w}" for v, w in sorted(self.image.items()))
        return f"SFunction({arcs})"


def satisfies_condition_f(f: SFunction) -> bool:
    """Condition (F) on the spine vertices i^1.

    For ell = 0: f(i^1) = (i-1)^1 for 1 <= i <= r.  For ell < 0 additionally
    f(i^1) = (i+1)^1 for ell <= i <= -2 and f(-1^1) in V_0.
    """
    p = f.profile
    for i in range(1, p.r + 1):
        if f.image[Vertex(i, 1)] != Vertex(i - 1, 1):
            return False
    for i in range(p.ell, -1):
        if f.image[Vertex(i, 1)] != Vertex(i + 1, 1):
            return False
    if p.ell < 0 and f.image[Vertex(-1, 1)].i != 0:
        return False
    return True


def is_tree(parent: Mapping, root) -> bool:
    """Whether following parent from every vertex of its domain reaches root
    without a cycle.  O(n): each vertex is walked once.  walk_of records the
    start of the walk that first reached each vertex, so a walk that runs
    into its own trail has found a cycle."""
    walk_of = {root: None}
    for v in parent:
        w = v
        while w not in walk_of:
            walk_of[w] = v
            w = parent.get(w)
            if w is None:
                return False
        if walk_of[w] == v:
            return False
    return True


class MarkedSTree:
    """A rooted S-tree on V with a marked vertex at the top abscissa r.

    parent maps every non-root vertex to its parent; edges are oriented
    towards the root, so the parent of a vertex of V_i lies in some V_{i-s}.
    """

    __slots__ = ("vertex_set", "step_set", "parent", "root", "mark", "_hash")

    def __init__(self, vertex_set: VertexSet, step_set: StepSet,
                 parent: dict[Vertex, Vertex], root: Vertex, mark: Vertex,
                 validate: bool = True):
        self.vertex_set = vertex_set
        self.step_set = step_set
        self.parent = dict(parent)
        self.root = root
        self.mark = mark
        self._hash = None
        if validate:
            self._validate()

    def _validate(self) -> None:
        vset = self.vertex_set
        verts = vset.members
        if self.root not in verts:
            raise PreconditionViolated(f"root {self.root} outside V")
        if self.mark not in verts or self.mark.i != self.profile.r:
            raise PreconditionViolated(f"mark {self.mark} not at abscissa r")
        # with the root in V, the domain is V \ {root} iff it avoids the
        # root, has n - 1 elements and lies in V
        if (self.root in self.parent or len(self.parent) != vset.n - 1
                or not verts.issuperset(self.parent)):
            raise PreconditionViolated("parent must be defined exactly on V \\ {root}")
        if not is_tree(self.parent, self.root):
            raise PreconditionViolated("parent map is not a tree")
        steps = self.step_set.steps
        for v, w in self.parent.items():
            if (v.i - w.i) not in steps:
                raise PreconditionViolated(
                    f"tree edge {v} -> {w} is not an S-edge (step {v.i - w.i})")

    @property
    def profile(self) -> Profile:
        return self.vertex_set.profile

    def path_to_root(self, v: Vertex) -> list[Vertex]:
        """Vertices from v to the root, inclusive."""
        path = [v]
        while path[-1] != self.root:
            path.append(self.parent[path[-1]])
        return path

    def meet(self, u: Vertex, v: Vertex) -> Vertex:
        """Common ancestor of u and v farthest from the root."""
        anc = set(self.path_to_root(v))
        for w in self.path_to_root(u):
            if w in anc:
                return w
        raise AssertionError("tree is connected; meet must exist")

    def _key(self):
        return (self.profile.ell, self.profile.counts, self.step_set.steps,
                self.root, self.mark, tuple(sorted(self.parent.items())))

    def __eq__(self, other) -> bool:
        return isinstance(other, MarkedSTree) and self._key() == other._key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __repr__(self) -> str:
        arcs = ", ".join(f"{v}->{w}" for v, w in sorted(self.parent.items()))
        return f"MarkedSTree(root={self.root}, mark={self.mark}, {arcs})"


# ---------------------------------------------------------------------------
# path conditions (T), (T1), (T2'), (T2'')
# ---------------------------------------------------------------------------

def condition_t(tree: MarkedSTree) -> bool:
    """(T): (T1) with the root 0^1."""
    return tree.root == Vertex(0, 1) and condition_t1(tree)


def _first_entry_preceded_by_spine(path: list[Vertex], r: int) -> bool:
    first: dict[int, int] = {}
    for j, v in enumerate(path):
        first.setdefault(v.i, j)
    for i in range(1, r + 1):
        idx = first.get(i - 1)
        if idx is None or idx == 0 or path[idx - 1] != Vertex(i, 1):
            return False
    return True


def condition_t1(tree: MarkedSTree) -> bool:
    """(T1): the root lies in V_0 and, on the path from the mark to the root,
    the first vertex of V_{i-1} is preceded by i^1, for all i in [1, r]."""
    if tree.root.i != 0:
        return False
    path = tree.path_to_root(tree.mark)
    return _first_entry_preceded_by_spine(path, tree.profile.r)


def condition_t2_prime(tree: MarkedSTree) -> bool:
    """(T2'): 1^1 strictly before the meet of ell^1 and the mark on the marked
    path (vacuous when r = 0), and on the path from ell^1 to the root the last
    vertex of V_{i-1} is followed by i^1 for i in [ell+1, 0]."""
    p = tree.profile
    if tree.root.i != 0:
        return False
    mark_path = tree.path_to_root(tree.mark)
    meet = tree.meet(Vertex(p.ell, 1), tree.mark)
    if p.r >= 1:
        pos = {v: j for j, v in enumerate(mark_path)}
        if Vertex(1, 1) not in pos or pos[Vertex(1, 1)] >= pos[meet]:
            return False
    ell_path = tree.path_to_root(Vertex(p.ell, 1))
    return _last_exit_followed_by_spine(ell_path, p.ell, 0)


def _last_exit_followed_by_spine(path: list[Vertex], ell: int, top: int) -> bool:
    last = {v.i: j for j, v in enumerate(path)}
    for i in range(ell + 1, top + 1):
        idx = last.get(i - 1)
        if idx is None or idx + 1 >= len(path) or path[idx + 1] != Vertex(i, 1):
            return False
    return True


def condition_t2_dblprime(tree: MarkedSTree) -> bool:
    """(T2''): 1^1 weakly after the meet (which lies at positive abscissa) on
    the marked path; on the path from ell^1 to the meet, the last vertex of
    V_{i-1} is followed by i^1 for i in [ell+1, -1]; and 0^1 precedes the
    first V_{-1} vertex of the marked path (or is the root if there is none).
    """
    p = tree.profile
    if tree.root.i != 0 or p.r < 1:
        return False
    mark_path = tree.path_to_root(tree.mark)
    pos = {v: j for j, v in enumerate(mark_path)}
    meet = tree.meet(Vertex(p.ell, 1), tree.mark)
    if meet.i < 1:
        return False
    if Vertex(1, 1) not in pos or pos[Vertex(1, 1)] < pos[meet]:
        return False
    ell_path = tree.path_to_root(Vertex(p.ell, 1))
    ell_to_meet = ell_path[:ell_path.index(meet) + 1]
    if not _last_exit_followed_by_spine(ell_to_meet, p.ell, -1):
        return False
    first_neg = next((j for j, v in enumerate(mark_path) if v.i == -1), None)
    if first_neg is None:
        return tree.root == Vertex(0, 1)
    return first_neg >= 1 and mark_path[first_neg - 1] == Vertex(0, 1)


def condition_t2(tree: MarkedSTree) -> bool:
    return condition_t2_prime(tree) or condition_t2_dblprime(tree)


# ---------------------------------------------------------------------------
# embedded Cayley trees and S-ary trees
# ---------------------------------------------------------------------------

class EmbeddedCayleyTree:
    """A rooted Cayley tree on labels 1..n embedded in Z.

    The root sits at abscissa 0 and every child-parent abscissa difference
    belongs to S.
    """

    __slots__ = ("n", "root", "parent", "abscissa", "step_set", "_hash")

    def __init__(self, n: int, root: int, parent: dict[int, int],
                 abscissa: dict[int, int], step_set: StepSet, validate: bool = True):
        self.n = n
        self.root = root
        self.parent = dict(parent)
        self.abscissa = dict(abscissa)
        self.step_set = step_set
        self._hash = None
        if validate:
            self._validate()

    def _validate(self) -> None:
        labels = set(range(1, self.n + 1))
        if self.root not in labels:
            raise PreconditionViolated("root label out of range")
        if set(self.parent) != labels - {self.root}:
            raise PreconditionViolated("parent must be defined exactly on non-root labels")
        if set(self.abscissa) != labels:
            raise PreconditionViolated("abscissa must be defined on all labels")
        if self.abscissa[self.root] != 0:
            raise PreconditionViolated("root must sit at abscissa 0")
        if not is_tree(self.parent, self.root):
            raise PreconditionViolated("parent map is not a tree")
        absc, steps = self.abscissa, self.step_set.steps
        for v, w in self.parent.items():
            if (absc[v] - absc[w]) not in steps:
                raise PreconditionViolated(f"edge {v} -> {w} has step outside S")

    def profile(self) -> Profile:
        return Profile.of_counts(Counter(self.abscissa.values()))

    def _key(self):
        return (self.n, self.root, tuple(sorted(self.parent.items())),
                tuple(sorted(self.abscissa.items())), self.step_set.steps)

    def __eq__(self, other) -> bool:
        return isinstance(other, EmbeddedCayleyTree) and self._key() == other._key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash


@dataclass(frozen=True, eq=False, repr=False)
class SAryTree:
    """A plane tree with at most one child per step s in S at each vertex.

    Children are stored as (step, subtree) pairs sorted by step; equality is
    structural, which is exactly equivalence of injective embeddings.
    Equality, hashing and repr are iterative, so any height is fine.
    """

    abscissa: int
    children: tuple[tuple[int, "SAryTree"], ...] = ()

    def nodes(self) -> Iterator["SAryTree"]:
        """Every node, depth first; iterative, so any height is fine."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(c for _, c in node.children)

    def _key(self) -> tuple:
        """Depth-first (abscissa, child steps) of every node: a flat tuple
        that determines the tree."""
        return tuple((node.abscissa, tuple(s for s, _c in node.children))
                     for node in self.nodes())

    def __eq__(self, other) -> bool:
        return isinstance(other, SAryTree) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        """A summary (root abscissa, size, height, root child steps) rather
        than the nested tree, which may be thousands of levels deep."""
        size = height = 0
        stack = [(self, 0)]
        while stack:
            node, depth = stack.pop()
            size += 1
            height = max(height, depth)
            stack.extend((child, depth + 1) for _s, child in node.children)
        steps = tuple(s for s, _c in self.children)
        return (f"SAryTree(abscissa={self.abscissa}, size={size}, "
                f"height={height}, root_steps={steps})")

    def size(self) -> int:
        return sum(1 for _ in self.nodes())

    def profile(self) -> Profile:
        return Profile.of_counts(Counter(node.abscissa for node in self.nodes()))


def shape_key(tree: EmbeddedCayleyTree) -> tuple:
    """Canonical shape of an embedded Cayley tree: equal keys iff the trees
    are equivalent (differ only by a renaming of the labels).

    Subtree shapes are ranked height by height, ordered by (height,
    abscissa, sorted child ranks); the key lists the distinct shapes of each
    height.  Iterative and flat, so any height is fine.
    """
    children: dict[int, list[int]] = {v: [] for v in range(1, tree.n + 1)}
    for v, w in tree.parent.items():
        children[w].append(v)
    order = [tree.root]
    for v in order:  # breadth first, so every child comes after its parent
        order.extend(children[v])
    height: dict[int, int] = {}
    for v in reversed(order):
        height[v] = max((height[c] + 1 for c in children[v]), default=0)
    levels: list[list[int]] = [[] for _ in range(height[tree.root] + 1)]
    for v in order:
        levels[height[v]].append(v)
    rank: dict[int, int] = {}
    key = []
    offset = 0  # distinct shapes of the lower heights
    for level in levels:
        shape = {v: (tree.abscissa[v], tuple(sorted(rank[c] for c in children[v])))
                 for v in level}
        distinct = sorted(set(shape.values()))
        index = {s: offset + j for j, s in enumerate(distinct)}
        offset += len(distinct)
        rank.update((v, index[s]) for v, s in shape.items())
        key.append(tuple(distinct))
    return tuple(key)


def equivalent(t1: EmbeddedCayleyTree, t2: EmbeddedCayleyTree) -> bool:
    return shape_key(t1) == shape_key(t2)


# ---------------------------------------------------------------------------
# the type census
# ---------------------------------------------------------------------------

CVec = tuple[int, ...]


def _arcs(obj: "SFunction | MarkedSTree | EmbeddedCayleyTree | SAryTree"):
    """(abscissa, parent, root) of a function or tree: the one place that
    knows how each kind stores its arcs.  The root of an S-function is 0^1,
    and S-ary nodes are numbered 0, 1, ... from the root."""
    if isinstance(obj, SAryTree):
        absc, parent, stack = {0: obj.abscissa}, {}, [(obj, 0)]
        while stack:
            node, vid = stack.pop()
            for _s, child in node.children:
                cid = len(absc)
                absc[cid], parent[cid] = child.abscissa, vid
                stack.append((child, cid))
        return absc, parent, 0
    if isinstance(obj, EmbeddedCayleyTree):
        return obj.abscissa, obj.parent, obj.root
    absc = obj.vertex_set.abscissa
    if isinstance(obj, SFunction):
        return absc, obj.image, Vertex(0, 1)
    return absc, obj.parent, obj.root


def _codes(abscissa, parent, m: int) -> tuple[dict, int]:
    """(codes, base): the c-vector of every vertex with children (pre-images,
    in a function) packed into one integer, whose digit s - m in base
    len(parent) + 1 (more than any vertex has children) is the number of
    children at step s.  A vertex without children is absent: its code is 0."""
    base = len(parent) + 1
    weight = [base ** d for d in range(2 - m)]
    codes: dict = {}
    get = codes.get
    for v, w in parent.items():
        s = abscissa[v] - abscissa[w]
        assert m <= s <= 1, f"step {s} outside [{m}, 1]"
        codes[w] = get(w, 0) + weight[s - m]
    return codes, base


def _digits(code: int, base: int, width: int) -> CVec:
    """The dense c-vector (c^m, ..., c^1) that a _codes integer packs."""
    cvec = []
    for _ in range(width):
        code, digit = divmod(code, base)
        cvec.append(digit)
    return tuple(cvec)


def _cvec_lookup(obj: "MarkedSTree | EmbeddedCayleyTree | SFunction", m: int
                 ) -> Callable[[object], CVec]:
    """v -> the dense c-vector (c^m, ..., c^1) of vertex v of obj, unpacked
    from its _codes integer (0 for a vertex without children)."""
    absc, parent, _root = _arcs(obj)
    codes, base = _codes(absc, parent, m)
    return lambda v: _digits(codes.get(v, 0), base, 2 - m)


def _children(in_types: Iterable, m: int) -> dict[tuple[int, int], int]:
    """n(i,s) = sum_c c^s n(i-s,c): the vertices of out-type (i;s) that the
    in-type counts ((i, c), n(i,c)) give a parent."""
    out: dict[tuple[int, int], int] = {}
    for (j, cv), c in in_types:
        for idx, b in enumerate(cv):
            if b and c:
                key = (j + m + idx, m + idx)
                out[key] = out.get(key, 0) + b * c
    return out


def is_injective(obj: "SFunction | MarkedSTree | EmbeddedCayleyTree") -> bool:
    """No two children (pre-images, in a function) of a vertex share a step."""
    absc, parent, _root = _arcs(obj)
    return len({(w, absc[v]) for v, w in parent.items()}) == len(parent)


def vertex_type(obj: "MarkedSTree | EmbeddedCayleyTree | SFunction", v,
                m: int | None = None) -> tuple[int, object, CVec]:
    """The complete type (i; s; c) of one vertex; s is the EPS sentinel for
    the root (or for 0^1 in a function)."""
    absc, parent, root = _arcs(obj)
    cvec = _cvec_lookup(obj, obj.step_set.m if m is None else m)(v)
    s = EPS if v == root else absc[v] - absc[parent[v]]
    return absc[v], s, cvec


def sary_from_injective(tree: MarkedSTree | EmbeddedCayleyTree) -> SAryTree:
    """Canonical S-ary shape of an injective tree (names dropped); raises
    NotInjective if two children of a vertex share a step.  Nodes are
    immutable, so the leaves at one abscissa share one node."""
    absc, parent, root = _arcs(tree)
    children: dict = {}
    for v, w in parent.items():
        children.setdefault(w, []).append(v)
    order = [root]
    for v in order:  # breadth first, so every child comes after its parent
        order.extend(children.get(v, ()))
    leaves: dict[int, SAryTree] = {}
    built: dict = {}
    for v in reversed(order):
        a = absc[v]
        kids = children.get(v)
        if kids is None:
            node = leaves.get(a) or leaves.setdefault(a, SAryTree(a))
        else:
            pairs = sorted(((absc[c] - a, built.pop(c)) for c in kids), key=itemgetter(0))
            for (s, _c), (t, _d) in zip(pairs, pairs[1:]):
                if s == t:
                    raise NotInjective(f"two children of {v} share a step")
            node = SAryTree(a, tuple(pairs))
        built[v] = node
    return built[root]


@dataclass(frozen=True)
class TypeDistribution:
    """Counts of vertices by out-type, in-type, and complete type.

    c-vectors are dense over the steps m..1 (index s - m), with entries for
    s outside S necessarily 0.  Out and complete counts cover non-root
    vertices only; the root's in-type is kept in root_in_type.
    """

    m: int
    out_counts: tuple[tuple[tuple[int, int], int], ...]
    in_counts: tuple[tuple[tuple[int, CVec], int], ...]
    complete_counts: tuple[tuple[tuple[int, int, CVec], int], ...]
    root_in_type: CVec

    @property
    def out(self) -> dict[tuple[int, int], int]:
        return dict(self.out_counts)

    @property
    def inn(self) -> dict[tuple[int, CVec], int]:
        return dict(self.in_counts)

    @property
    def complete(self) -> dict[tuple[int, int, CVec], int]:
        return dict(self.complete_counts)

    def out_key(self):
        return self.out_counts

    def in_key(self):
        return self.in_counts

    def complete_key(self):
        return (self.root_in_type, self.complete_counts)

    def profile(self) -> Profile:
        counts: dict[int, int] = {0: 1}
        for (i, _s), c in self.out_counts:
            counts[i] = counts.get(i, 0) + c
        return Profile.of_counts(counts)


def _check_distribution(dist: TypeDistribution) -> None:
    """Check the three compatibility identities of a census: each family is
    one pass over its table that sums both sides per abscissa or per (i, s),
    then compares them wherever either side is nonzero, so the check costs
    O(r + |types|).  The in- and complete families add _children's sum in
    the same pass instead of building its table apart, which matters on the
    tiny censuses that phi and psi check on every call."""
    m = dist.m
    # n_i = chi_{i=0} + sum_s n(i,s)
    out_at: dict[int, int] = {0: 1}
    for (j, _s), c in dist.out.items():
        out_at[j] = out_at.get(j, 0) + c
    prof = dist.profile()
    for i in prof.abscissas():
        if out_at.get(i, 0) != prof.count(i):
            raise IncompatibleDistribution(f"out counts at abscissa {i} do not match")
    # chi_{i=0} + sum_{s,c} c^s n(i-s, c) = sum_c n(i, c): left minus right
    gap: dict[int, int] = {0: 1}
    for (j, cv), c in dist.inn.items():
        gap[j] = gap.get(j, 0) - c
        for idx, b in enumerate(cv):
            if b:
                gap[j + m + idx] = gap.get(j + m + idx, 0) + b * c
    for i in sorted(gap):
        if gap[i]:
            raise IncompatibleDistribution(f"in counts at abscissa {i} do not match")
    # chi_{i=s} c_0^s + sum_{t,c} c^s n(i-s,t,c) = sum_c n(i,s,c): left minus
    # right, with the root (no out-type) at abscissa 0
    gaps: dict[tuple[int, int], int] = {}
    for (j, t, cv), c in [((0, EPS, dist.root_in_type), 1), *dist.complete.items()]:
        if t != EPS:
            gaps[(j, t)] = gaps.get((j, t), 0) - c
        for idx, b in enumerate(cv):
            if b:
                key = (j + m + idx, m + idx)
                gaps[key] = gaps.get(key, 0) + b * c
    for (i, s), diff in gaps.items():
        if diff:
            raise IncompatibleDistribution(f"complete counts at ({i},{s}) do not match")


def type_distribution_of(obj: "MarkedSTree | EmbeddedCayleyTree | SFunction | SAryTree",
                         m: int | None = None, check: bool = True
                         ) -> TypeDistribution:
    """Exact census of out-, in-, and complete types of a tree or function.

    For S-functions, children means pre-images.  m defaults to min S of the
    object's step set (for S-ary trees it must be given); pass a smaller m to
    embed into a wider interval.  check=False skips the compatibility-identity
    validation (bulk sweeps).

    Each non-root vertex is counted once, on the integer key
    ((i * width + s - m) * span + code) of its complete type, where code is
    its _codes c-vector and span = base**width bounds every code; floor
    division recovers (i, s - m, code) for negative i too.  The out- and
    in-type counts are sums over the complete ones, and each distinct code
    is unpacked to its tuple once.
    """
    if m is None and isinstance(obj, SAryTree):
        raise ValueError("S-ary trees need an explicit m")
    m = obj.step_set.m if m is None else m
    absc, parent, root = _arcs(obj)
    codes, base = _codes(absc, parent, m)
    width = 2 - m
    span = base ** width
    get = codes.get
    keys: dict[int, int] = {}
    for v, w in parent.items():
        i = absc[v]
        key = (i * width + i - absc[w] - m) * span + get(v, 0)
        keys[key] = keys.get(key, 0) + 1

    cvecs: dict[int, CVec] = {}
    out: dict[tuple[int, int], int] = {}
    comp: dict[tuple[int, int, CVec], int] = {}
    root_cv = cvecs[get(root, 0)] = _digits(get(root, 0), base, width)
    inn: dict[tuple[int, CVec], int] = {(absc[root], root_cv): 1}
    for key, c in keys.items():
        pos, code = divmod(key, span)
        i, d = divmod(pos, width)
        cv = cvecs.get(code)
        if cv is None:
            cv = cvecs[code] = _digits(code, base, width)
        comp[(i, d + m, cv)] = c
        out[(i, d + m)] = out.get((i, d + m), 0) + c
        inn[(i, cv)] = inn.get((i, cv), 0) + c

    dist = TypeDistribution(
        m=m,
        out_counts=tuple(sorted(out.items())),
        in_counts=tuple(sorted(inn.items())),
        complete_counts=tuple(sorted(comp.items())),
        root_in_type=root_cv,
    )
    if check:
        _check_distribution(dist)
    return dist


# ---------------------------------------------------------------------------
# canonical JSON serialization
# ---------------------------------------------------------------------------

def canonical_json(data) -> str:
    """Bit-exact canonical JSON: sorted keys, no whitespace."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def step_set_to_json(s: StepSet) -> str:
    return canonical_json(list(s.steps))


def step_set_from_json(text: str) -> StepSet:
    return StepSet(json.loads(text))


def profile_to_json(p: Profile) -> str:
    return canonical_json(str(p))


def profile_from_json(text: str) -> Profile:
    return Profile.parse(json.loads(text))


def sfunction_to_json(f: SFunction) -> str:
    image = [[v.i, v.k, w.i, w.k] for v, w in sorted(f.image.items())]
    return canonical_json({
        "profile": str(f.profile),
        "steps": list(f.step_set.steps),
        "image": image,
    })


def _shaped(data, shape, where: str = "JSON input") -> None:
    """Raise ValueError unless decoded JSON has the given shape: a type for a
    value of that type, [s] for a list of s, a tuple for a list of exactly
    those shapes, a dict for an object with those keys (and maybe more)."""
    if isinstance(shape, dict):
        if not (isinstance(data, dict) and shape.keys() <= data.keys()):
            raise ValueError(f"{where} must be an object with keys {', '.join(shape)}")
        for key, sub in shape.items():
            _shaped(data[key], sub, f"{where}.{key}")
    elif isinstance(shape, (list, tuple)):
        subs = shape * len(data) if isinstance(shape, list) and isinstance(data, list) else shape
        if not (isinstance(data, list) and len(data) == len(subs)):
            raise ValueError(f"{where} must be a list" + (
                "" if isinstance(shape, list) else f" of {len(shape)}"))
        for j, (item, sub) in enumerate(zip(data, subs)):
            _shaped(item, sub, f"{where}[{j}]")
    elif type(data) is not shape:
        raise ValueError(f"{where} must be of type {shape.__name__}")


def sfunction_from_json(text: str) -> SFunction:
    return _sfunction_of(json.loads(text))


def _sfunction_of(data) -> SFunction:
    _shaped(data, {"profile": str, "steps": [int], "image": [(int,) * 4]})
    image = {Vertex(i, k): Vertex(j, p) for i, k, j, p in data["image"]}
    return SFunction(VertexSet(Profile.parse(data["profile"])), StepSet(data["steps"]), image)


def marked_stree_to_json(t: MarkedSTree) -> str:
    parent = [[v.i, v.k, w.i, w.k] for v, w in sorted(t.parent.items())]
    return canonical_json({
        "profile": str(t.profile),
        "steps": list(t.step_set.steps),
        "root": [t.root.i, t.root.k],
        "mark": [t.mark.i, t.mark.k],
        "parent": parent,
    })


def marked_stree_from_json(text: str) -> MarkedSTree:
    return _marked_stree_of(json.loads(text))


def _marked_stree_of(data) -> MarkedSTree:
    _shaped(data, {"profile": str, "steps": [int], "root": (int, int),
                   "mark": (int, int), "parent": [(int,) * 4]})
    parent = {Vertex(i, k): Vertex(j, p) for i, k, j, p in data["parent"]}
    return MarkedSTree(VertexSet(Profile.parse(data["profile"])), StepSet(data["steps"]),
                       parent, root=Vertex(*data["root"]), mark=Vertex(*data["mark"]))


def embedded_cayley_to_json(t: EmbeddedCayleyTree) -> str:
    parent = [t.parent.get(v, 0) for v in range(1, t.n + 1)]
    abscissa = [t.abscissa[v] for v in range(1, t.n + 1)]
    return canonical_json({
        "n": t.n,
        "root": t.root,
        "parent": parent,
        "abscissa": abscissa,
        "steps": list(t.step_set.steps),
    })


def embedded_cayley_from_json(text: str) -> EmbeddedCayleyTree:
    data = json.loads(text)
    _shaped(data, {"n": int, "root": int, "parent": [int], "abscissa": [int], "steps": [int]})
    n = data["n"]
    if not len(data["parent"]) == len(data["abscissa"]) == n:
        raise ValueError(f"parent and abscissa must list n = {n} labels each")
    parent = {v: p for v, p in enumerate(data["parent"], 1) if p != 0}
    abscissa = dict(enumerate(data["abscissa"], 1))
    return EmbeddedCayleyTree(n, data["root"], parent, abscissa,
                              StepSet(data["steps"]))


# The JSON of an S-ary tree nests two objects per level (a node and its
# "children"), and json.dumps and json.loads recurse once per object, under
# the interpreter's recursion limit (1000 by default).  Trees higher than
# this are refused with BudgetExceeded rather than a RecursionError.
SARY_JSON_MAX_HEIGHT = 400


def _capped_bottom_up(root, children) -> list:
    """The nodes under root, every child before its parent; raises
    BudgetExceeded below depth SARY_JSON_MAX_HEIGHT."""
    order = []
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if depth > SARY_JSON_MAX_HEIGHT:
            raise BudgetExceeded(
                f"S-ary JSON is capped at height {SARY_JSON_MAX_HEIGHT}")
        order.append(node)
        stack.extend((child, depth + 1) for child in children(node))
    return order[::-1]


def sary_to_json(t: SAryTree) -> str:
    encoded: dict[int, dict] = {}
    for node in _capped_bottom_up(t, lambda node: [c for _s, c in node.children]):
        encoded[id(node)] = {"abscissa": node.abscissa, "children": {
            str(s): encoded[id(c)] for s, c in node.children}}
    return canonical_json(encoded[id(t)])


def _sary_json_children(node) -> list:
    if not (isinstance(node, dict) and isinstance(node.get("children"), dict)):
        raise PreconditionViolated("an S-ary JSON node must be an object "
                                   "with a children object")
    return list(node["children"].values())


def sary_from_json(text: str) -> SAryTree:
    """Decode sary_to_json text.  Every node needs an int abscissa, and each
    child's key must be the canonical text of its step (its abscissa minus
    its parent's); the height cap is checked before the rest."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise BudgetExceeded(
            f"S-ary JSON is capped at height {SARY_JSON_MAX_HEIGHT}") from None
    built: dict[int, SAryTree] = {}
    for node in _capped_bottom_up(data, _sary_json_children):
        a = node.get("abscissa")
        if type(a) is not int:
            raise PreconditionViolated(f"S-ary JSON abscissa {a!r} is not an int")
        children = []
        for key, c in node["children"].items():
            child = built[id(c)]
            if key != str(child.abscissa - a):  # canonical, and at its step
                raise PreconditionViolated(
                    f"S-ary JSON child {key!r} of a node at {a} is not at its step")
            children.append((child.abscissa - a, child))
        built[id(node)] = SAryTree(a, tuple(sorted(children)))
    return built[id(data)]


def type_distribution_to_json(d: TypeDistribution) -> str:
    return canonical_json({
        "m": d.m,
        "out": [[i, s, c] for (i, s), c in d.out_counts],
        "in": [[i, list(cv), c] for (i, cv), c in d.in_counts],
        "complete": [[i, s, list(cv), c] for (i, s, cv), c in d.complete_counts],
        "root_in": list(d.root_in_type),
    })


def type_distribution_from_json(text: str) -> TypeDistribution:
    data = json.loads(text)
    return TypeDistribution(
        m=data["m"],
        out_counts=tuple(((i, s), c) for i, s, c in data["out"]),
        in_counts=tuple(((i, tuple(cv)), c) for i, cv, c in data["in"]),
        complete_counts=tuple(((i, s, tuple(cv)), c) for i, s, cv, c in data["complete"]),
        root_in_type=tuple(data["root_in"]),
    )
