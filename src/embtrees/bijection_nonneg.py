"""The bijection for non-negative profiles (ell = 0), and the stages the
general bijection shares with it.

Phi_1 cuts the spine arcs i^1 -> (i-1)^1 of a function satisfying (F) and the
arc entering the smallest vertex of every cycle, then chains the resulting
pieces by decreasing source into a single path from the mark down to the root
0^1.  That preserves out-types pointwise, but the in-types of the piece
sources can change when 0 is an allowed step; Phi_2 repairs them by swapping
the hanging subtrees of consecutive frustrated sources (an involution).  When
0 is not in S, Phi_2 is the identity and even complete types survive.

Psi (bijection_general) repeats these stages on both sides of abscissa 0, so
they live here once: cutting the spine and indexing cycles by abscissa, the
left and right concatenations, splitting a path at its lower records, and
finding the frustrated records whose hanging subtrees are swapped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    ConditionTViolated,
    ConditionViolated,
    MarkedSTree,
    PreconditionViolated,
    SFunction,
    StepSet,
    Vertex,
    VertexSet,
    _census_of,
    condition_t,
    satisfies_condition_f,
    validate_profile_for,
)


@dataclass(frozen=True)
class Piece:
    """A fragment produced by the cutting stage: a distinguished path from
    source to sink with subtrees left attached in place.  The open ends are
    the missing in-arc at the source and the missing out-arc at the sink."""

    source: Vertex
    sink: Vertex
    path: tuple[Vertex, ...]

    def check_shape(self, step_set: StepSet) -> None:
        """Lemma shape: a piece of source i^k with k != 1 has sink j^p with
        j = i + 1, or j = i and p >= k (the latter only when 0 is in S)."""
        if self.source.k == 1:
            return
        i, k = self.source
        j, p = self.sink
        if j == i + 1:
            return
        if j == i and p >= k and 0 in step_set:
            return
        raise AssertionError(f"piece {self.source}->{self.sink} violates the shape lemma")

    def to_json(self) -> dict:
        return {"source": list(self.source), "sink": list(self.sink),
                "path": [list(v) for v in self.path]}


@dataclass
class FrustrationRecord:
    """Frustrated sources per abscissa, in path order, tagged by the abscissa
    of the in-arc they carry in the function ("low" = own abscissa i,
    "high" = i + 1).  Along the path, low and high tags alternate, starting
    low and ending high; at the top abscissa only the mark and r^1 can be
    frustrated."""

    by_abscissa: dict[int, list[tuple[Vertex, str]]]

    def check_alternation(self, r: int, mark: Vertex) -> None:
        for i, entries in self.by_abscissa.items():
            assert len(entries) % 2 == 0, f"odd frustration count at abscissa {i}"
            if i == r:
                assert {v for v, _t in entries} <= {Vertex(r, 1), mark}
                continue
            for pos, (_v, tag) in enumerate(entries):
                expected = "low" if pos % 2 == 0 else "high"
                assert tag == expected, f"frustration tags out of order at {i}"


def _functional_cycles(arcs: dict[Vertex, Vertex], vset: VertexSet
                       ) -> list[list[Vertex]]:
    """Cycles of a functional digraph on vset, each listed in arc order
    starting at its smallest vertex, by increasing smallest vertex."""
    color: dict[Vertex, int] = {}
    cycles = []
    for start in vset.vertices():  # in increasing order
        if start in color:
            continue
        path = []
        v = start
        while v not in color and v in arcs:
            color[v] = 1
            path.append(v)
            v = arcs[v]
        if v in arcs and color.get(v) == 1:
            cyc = path[path.index(v):]
            lo = cyc.index(min(cyc))
            cycles.append(cyc[lo:] + cyc[:lo])
        for u in path:
            color[u] = 2
    return cycles


def _cut_spine(f: SFunction) -> dict[Vertex, Vertex]:
    """The arcs of f without the spine arcs i^1 -> f(i^1), i != 0."""
    arcs = dict(f.image)
    for i in f.profile.abscissas():
        if i != 0:
            del arcs[Vertex(i, 1)]
    return arcs


def _cycles_by_abscissa(cycles: list[list[Vertex]]) -> dict[int, list[list[Vertex]]]:
    """Cycles indexed by the abscissa of their source (smallest vertex)."""
    at: dict[int, list[list[Vertex]]] = {}
    for cyc in cycles:
        at.setdefault(cyc[0].i, []).append(cyc)
    return at


def _left_concatenations(arcs: dict[Vertex, Vertex],
                         cycles_at: dict[int, list[list[Vertex]]],
                         lo: int, hi: int, step_set: StepSet
                         ) -> dict[int, list[Piece]]:
    """The left concatenations L(i), lo <= i <= hi, built in `arcs`: cut the
    arc entering each cycle source at abscissa i, order the pieces by
    decreasing source and chain them; then chain i^1 -> a_{i-1}, the entry
    (first source) of L(i-1)."""
    concat: dict[int, list[Piece]] = {}
    for i in range(lo, hi + 1):
        pieces = [Piece(Vertex(i, 1), Vertex(i, 1), (Vertex(i, 1),))]
        for cyc in cycles_at.get(i, ()):
            del arcs[cyc[-1]]  # the arc entering the source
            piece = Piece(cyc[0], cyc[-1], tuple(cyc))
            piece.check_shape(step_set)
            pieces.append(piece)
        pieces.sort(key=lambda pc: pc.source, reverse=True)
        for left, right in zip(pieces, pieces[1:]):
            arcs[left.sink] = right.source
        if i > lo:
            arcs[Vertex(i, 1)] = concat[i - 1][0].source
        concat[i] = pieces
    return concat


def _right_concatenations(arcs: dict[Vertex, Vertex],
                          cycles_at: dict[int, list[list[Vertex]]],
                          lo: int, hi: int, exclude: Vertex | None = None
                          ) -> dict[int, list[Piece]]:
    """The right concatenations R(i), lo <= i <= hi, built in `arcs`: cut
    the arc leaving each cycle source at abscissa i (except a cycle whose
    source is `exclude`), order the pieces by increasing sink (the old
    sources) and chain them from i^1; then chain b_{i-1} -> i^1, where the
    root b_{i-1} is the last sink of R(i-1)."""
    concat: dict[int, list[Piece]] = {}
    for i in range(lo, hi + 1):
        pieces = [Piece(Vertex(i, 1), Vertex(i, 1), (Vertex(i, 1),))]
        for cyc in cycles_at.get(i, ()):
            if cyc[0] != exclude:
                del arcs[cyc[0]]  # the arc leaving the source
                path = tuple(cyc[1:] + cyc[:1])
                pieces.append(Piece(path[0], cyc[0], path))
        pieces.sort(key=lambda pc: pc.sink)
        for left, right in zip(pieces, pieces[1:]):
            arcs[left.sink] = right.source
        if i > lo:
            arcs[concat[i - 1][-1].sink] = Vertex(i, 1)
        concat[i] = pieces
    return concat


def phi1(f: SFunction) -> MarkedSTree:
    return _phi1_with_pieces(f)[0]


def _phi1_with_pieces(f: SFunction) -> tuple[MarkedSTree, list[Piece]]:
    """Cut, order by decreasing source, concatenate; mark the leftmost source."""
    if f.profile.ell != 0:
        raise PreconditionViolated("phi1 needs a non-negative profile")
    validate_profile_for(f.step_set, f.profile)
    if not satisfies_condition_f(f):
        raise PreconditionViolated("phi1 needs condition (F)")
    r = f.profile.r
    arcs = _cut_spine(f)
    cycles = _functional_cycles(arcs, f.vertex_set)
    left = _left_concatenations(arcs, _cycles_by_abscissa(cycles), 0, r, f.step_set)
    pieces = [pc for i in range(r, -1, -1) for pc in left[i]]
    assert pieces[-1].source == Vertex(0, 1)
    tree = MarkedSTree(f.vertex_set, f.step_set, arcs, root=Vertex(0, 1),
                       mark=pieces[0].source)
    assert condition_t(tree), "phi1 output must satisfy (T)"
    return tree, pieces


def _record_pieces(segment: list[Vertex]) -> list[list[Vertex]]:
    """Split a path at its lower records: [record, end] per piece, where end
    is the vertex before the next record (or the path's last vertex).  A
    spine record i^1 must be a piece by itself."""
    pieces: list[list[Vertex]] = []
    for v in segment:
        if pieces and v > pieces[-1][0]:
            pieces[-1][1] = v
        else:
            pieces.append([v, v])
    for record, end in pieces:
        if record.k == 1 and end != record:
            raise ConditionViolated(f"spine piece at {record} is not a single vertex")
    return pieces


def _close_marked_segment(arcs: dict[Vertex, Vertex], segment: list[Vertex],
                          bottom: int) -> None:
    """Undo a chained left concatenation along `segment` (from the mark down
    to `bottom`^1): split at the lower records, close cycles, restore the
    spine arcs i^1 -> (i-1)^1 for i > bottom."""
    for src, sink in _record_pieces(segment):
        if src.k != 1:
            arcs[sink] = src
        elif src.i > bottom:
            arcs[src] = Vertex(src.i - 1, 1)
        else:
            arcs.pop(src, None)


def phi1_inverse(tree: MarkedSTree) -> SFunction:
    """Split the marked path at its lower records, restore the spine arcs,
    and close every other piece back into a cycle."""
    p = tree.profile
    if p.ell != 0:
        raise PreconditionViolated("phi1_inverse needs a non-negative profile")
    if not condition_t(tree):
        raise ConditionTViolated("tree violates condition (T)")
    arcs = dict(tree.parent)
    # under (T) every spine piece is a single vertex, and the path ends at 0^1
    _close_marked_segment(arcs, tree.path_to_root(tree.mark), bottom=0)
    f = SFunction(tree.vertex_set, tree.step_set, arcs)
    assert satisfies_condition_f(f)
    return f


def _preimages(arcs: dict[Vertex, Vertex]) -> dict[Vertex, list[int]]:
    """The abscissas of each vertex's preimages, in arc order."""
    pre: dict[Vertex, list[int]] = {}
    for v, w in arcs.items():
        pre.setdefault(w, []).append(v.i)
    return pre


def _frustrated(f_pre: dict[Vertex, list[int]], t_pre: dict[Vertex, list[int]],
                segment: list[Vertex], skip: frozenset | set = frozenset()
                ) -> dict[int, list[Vertex]]:
    """The vertices of a marked-path segment whose in-type differs between
    the function (preimages f_pre) and the tree (t_pre), grouped by abscissa
    in path order; they are always lower records of the segment."""
    frustrated: dict[int, list[Vertex]] = {}
    low = None
    for v in segment:
        record = low is None or v < low
        if record:
            low = v
        if v not in skip and _in_type_differs(f_pre, t_pre, v):
            assert record, f"frustrated vertex {v} is not a lower record"
            frustrated.setdefault(v.i, []).append(v)
    return frustrated


def _in_type_differs(f_pre: dict[Vertex, list[int]], t_pre: dict[Vertex, list[int]],
                     v: Vertex) -> bool:
    """Whether v's preimage abscissas differ as multisets; equal lists
    need no sort."""
    fin, tin = f_pre.get(v, ()), t_pre.get(v, ())
    return fin != tin and sorted(fin) != sorted(tin)


def _consecutive_pairs(frustrated: dict[int, list[Vertex]]) -> list[tuple[Vertex, Vertex]]:
    """Pair the frustrated records of each abscissa in path order."""
    pairs = []
    for _i, verts in sorted(frustrated.items()):
        assert len(verts) % 2 == 0, "frustrated records must pair up"
        pairs.extend(zip(verts[0::2], verts[1::2]))
    return pairs


def _frustration_tag(v: Vertex, fin: list[int], tin: list[int]) -> str:
    """"low" when the function side carries the extra in-arc at the vertex's
    own abscissa, "high" when at abscissa + 1; "top" for the mark / r^1 pair
    at the top abscissa, where a whole arc appears or disappears."""
    counts: dict[int, int] = {}
    for a in fin:
        counts[a] = counts.get(a, 0) + 1
    for a in tin:
        counts[a] = counts.get(a, 0) - 1
    gained = [a for a, c in counts.items() if c > 0]
    lost = [a for a, c in counts.items() if c < 0]
    if len(gained) == 1 and len(lost) == 1:
        return "low" if gained[0] == v.i else "high"
    assert len(gained) + len(lost) == 1, f"unexpected in-type change at {v}"
    return "top"


def _swap_hanging_subtrees(tree: MarkedSTree, pairs: list[tuple[Vertex, Vertex]],
                           keep_paths: list[list[Vertex]]) -> MarkedSTree:
    """Exchange, for each pair (v, w), all children of v and w that do not
    continue one of the protected paths (the roots v, w stay in place)."""
    arcs = dict(tree.parent)
    protected: set[tuple[Vertex, Vertex]] = set()
    for path in keep_paths:
        for child, parent in zip(path, path[1:]):
            protected.add((child, parent))
    children: dict[Vertex, list[Vertex]] = {}
    for v, w in arcs.items():
        children.setdefault(w, []).append(v)
    for v, w in pairs:
        for c in children.get(v, []):
            if (c, v) not in protected:
                arcs[c] = w
        for c in children.get(w, []):
            if (c, w) not in protected:
                arcs[c] = v
    return MarkedSTree(tree.vertex_set, tree.step_set, arcs,
                       root=tree.root, mark=tree.mark)


def phi2(tree: MarkedSTree) -> MarkedSTree:
    """Swap the hanging subtrees of consecutive frustrated sources, per
    abscissa; an involution on (T)-trees, the identity when 0 is not in S."""
    tree_out, _rec = _phi2_with_record(tree)
    return tree_out


def _phi2_with_record(tree: MarkedSTree, f: SFunction | None = None
                      ) -> tuple[MarkedSTree, FrustrationRecord]:
    """phi2 and its frustration record.  f must be phi1_inverse(tree); the
    forward map passes the function it started from instead of rebuilding
    it."""
    if not condition_t(tree):
        raise ConditionTViolated("tree violates condition (T)")
    if f is None:
        f = phi1_inverse(tree)
    f_pre, t_pre = _preimages(f.image), _preimages(tree.parent)
    path = tree.path_to_root(tree.mark)
    frustrated = _frustrated(f_pre, t_pre, path)
    record = FrustrationRecord({
        i: [(v, _frustration_tag(v, f_pre.get(v, []), t_pre.get(v, []))) for v in verts]
        for i, verts in frustrated.items()})
    record.check_alternation(tree.profile.r, tree.mark)
    if 0 not in tree.step_set:
        assert not record.by_abscissa, "no frustration can occur when 0 not in S"
        return tree, record
    out = _swap_hanging_subtrees(tree, _consecutive_pairs(frustrated), [path])
    return out, record


def phi(f: SFunction) -> MarkedSTree:
    """The full bijection: preserves every vertex's out-type, the in-type
    census, and (when 0 is not in S) every vertex's complete type.  Under
    asserts, phi_with_trace checks the census of f and of the tree and
    compares their integer in-type tables (core._census_of)."""
    return phi_with_trace(f)[0]


def phi_inverse(tree: MarkedSTree) -> SFunction:
    """phi2 is an involution, so the inverse is phi1_inverse after phi2."""
    return phi1_inverse(phi2(tree))


def phi_with_trace(f: SFunction) -> tuple[MarkedSTree, dict]:
    """Apply phi and collect a structured trace: the pieces with their paths,
    the concatenation order, and the frustration record with the swaps."""
    t1, pieces = _phi1_with_pieces(f)
    t2, record = _phi2_with_record(t1, f)
    if __debug__:
        assert _census_of(f).inn == _census_of(t2).inn, "phi must preserve the in-type census"
    trace = {
        "regime": "nonneg",
        "mark": list(t1.mark),
        "pieces": [pc.to_json() for pc in pieces],
        "concatenation": [list(pc.source) for pc in pieces],
        "frustration": {
            str(i): [{"vertex": list(v), "tag": tag} for v, tag in entries]
            for i, entries in sorted(record.by_abscissa.items())
        },
    }
    return t2, trace
