"""The bijection for non-negative profiles (ell = 0).

Phi_1 cuts the spine arcs i^1 -> (i-1)^1 of a function satisfying (F) and the
arc entering the smallest vertex of every cycle, then chains the resulting
pieces by decreasing source into a single path from the mark down to the root
0^1.  That preserves out-types pointwise, but the in-types of the piece
sources can change when 0 is an allowed step; Phi_2 repairs them by swapping
the hanging subtrees of consecutive frustrated sources (an involution).  When
0 is not in S, Phi_2 is the identity and even complete types survive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    ConditionTViolated,
    ConditionViolated,
    MarkedSTree,
    PreconditionViolated,
    SFunction,
    StepSet,
    Vertex,
    condition_t,
    satisfies_condition_f,
    type_distribution_of,
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


@dataclass
class FrustrationRecord:
    """Frustrated sources per abscissa, in path order, tagged by the abscissa
    of the in-arc they carry in the function ("low" = own abscissa i,
    "high" = i + 1).  Along the path, low and high tags alternate, starting
    low and ending high; at the top abscissa only the mark and r^1 can be
    frustrated."""

    by_abscissa: dict[int, list[tuple[Vertex, str]]] = field(default_factory=dict)

    def add(self, v: Vertex, tag: str) -> None:
        self.by_abscissa.setdefault(v.i, []).append((v, tag))

    def check_alternation(self, r: int, mark: Vertex) -> None:
        for i, entries in self.by_abscissa.items():
            assert len(entries) % 2 == 0, f"odd frustration count at abscissa {i}"
            if i == r:
                assert {v for v, _t in entries} <= {Vertex(r, 1), mark}
                continue
            for pos, (_v, tag) in enumerate(entries):
                expected = "low" if pos % 2 == 0 else "high"
                assert tag == expected, f"frustration tags out of order at {i}"


def _functional_cycles(arcs: dict[Vertex, Vertex]) -> list[list[Vertex]]:
    """Cycles of a functional digraph, each listed in arc order starting at
    its smallest vertex."""
    color: dict[Vertex, int] = {}
    cycles = []
    for start in sorted(arcs):
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


def phi1(f: SFunction) -> MarkedSTree:
    return _phi1_with_pieces(f)[0]


def _phi1_with_pieces(f: SFunction) -> tuple[MarkedSTree, list[Piece]]:
    """Cut, order by decreasing source, concatenate; mark the leftmost source."""
    if f.profile.ell != 0:
        raise PreconditionViolated("phi1 needs a non-negative profile")
    if not satisfies_condition_f(f):
        raise PreconditionViolated("phi1 needs condition (F)")
    p = f.profile
    arcs = dict(f.image)

    pieces: list[Piece] = []
    for i in range(0, p.r + 1):
        # spine piece: single-vertex path at i^1 (its out-arc is cut below)
        pieces.append(Piece(Vertex(i, 1), Vertex(i, 1), (Vertex(i, 1),)))
    for i in range(1, p.r + 1):
        del arcs[Vertex(i, 1)]
    for cyc in _functional_cycles(arcs):
        source, sink = cyc[0], cyc[-1]
        del arcs[sink]  # the arc entering the source
        piece = Piece(source, sink, tuple(cyc))
        piece.check_shape(f.step_set)
        pieces.append(piece)

    pieces.sort(key=lambda piece: piece.source, reverse=True)
    for left, right in zip(pieces, pieces[1:]):
        arcs[left.sink] = right.source
    assert pieces[-1].source == Vertex(0, 1)
    tree = MarkedSTree(f.vertex_set, f.step_set, arcs, root=Vertex(0, 1),
                       mark=pieces[0].source)
    assert condition_t(tree), "phi1 output must satisfy (T)"
    return tree, pieces


def _records_forward(path: list[Vertex]) -> list[Vertex]:
    """The lower records of a path: each vertex smaller than all before it."""
    records = []
    best = None
    for v in path:
        if best is None or v < best:
            records.append(v)
            best = v
    return records


def _close_marked_segment(arcs: dict[Vertex, Vertex], segment: list[Vertex],
                          bottom: int) -> None:
    """Undo a chained left concatenation along `segment` (from the mark down
    to `bottom`^1): split at the lower records, close cycles, restore the
    spine arcs i^1 -> (i-1)^1 for i > bottom."""
    records = _records_forward(segment)
    pos = {v: j for j, v in enumerate(segment)}
    for idx, src in enumerate(records):
        sink = (segment[pos[records[idx + 1]] - 1]
                if idx + 1 < len(records) else segment[-1])
        if src.k == 1:
            if sink != src:
                raise ConditionViolated(
                    f"spine piece at {src} is not a single vertex")
            if src.i > bottom:
                arcs[src] = Vertex(src.i - 1, 1)
            elif src in arcs:
                del arcs[src]
        else:
            arcs[sink] = src


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


def _frustrated_by_abscissa(f: SFunction, tree: MarkedSTree,
                            skip: set[Vertex] | None = None
                            ) -> FrustrationRecord:
    """Vertices whose in-type differs between f and the tree, grouped by
    abscissa in marked-path order; they are always path lower records."""
    skip = skip or set()
    f_pre: dict[Vertex, list[int]] = {}
    for v, w in f.image.items():
        f_pre.setdefault(w, []).append(v.i)
    t_pre: dict[Vertex, list[int]] = {}
    for v, w in tree.parent.items():
        t_pre.setdefault(w, []).append(v.i)
    record = FrustrationRecord()
    path = tree.path_to_root(tree.mark)
    sources = set(_records_forward(path))
    for v in path:
        if v in skip:
            continue
        fin = sorted(f_pre.get(v, []))
        tin = sorted(t_pre.get(v, []))
        if fin != tin:
            assert v in sources, f"frustrated vertex {v} is not a lower record"
            record.add(v, _frustration_tag(v, fin, tin))
    return record


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
    record = _frustrated_by_abscissa(f, tree)
    record.check_alternation(tree.profile.r, tree.mark)
    if 0 not in tree.step_set:
        assert not record.by_abscissa, "no frustration can occur when 0 not in S"
        return tree, record
    pairs = []
    for _i, entries in sorted(record.by_abscissa.items()):
        verts = [v for v, _tag in entries]
        pairs.extend(zip(verts[0::2], verts[1::2]))
    out = _swap_hanging_subtrees(tree, pairs, [tree.path_to_root(tree.mark)])
    return out, record


def phi(f: SFunction) -> MarkedSTree:
    """The full bijection: preserves every vertex's out-type, the in-type
    census, and (when 0 is not in S) every vertex's complete type."""
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
        d_in = type_distribution_of(f)
        d_out = type_distribution_of(t2)
        assert d_in.in_key() == d_out.in_key(), "phi must preserve the in-type census"
    trace = {
        "regime": "nonneg",
        "mark": [t1.mark.i, t1.mark.k],
        "pieces": [
            {"source": [pc.source.i, pc.source.k],
             "sink": [pc.sink.i, pc.sink.k],
             "path": [[v.i, v.k] for v in pc.path]}
            for pc in pieces
        ],
        "concatenation": [[pc.source.i, pc.source.k] for pc in pieces],
        "frustration": {
            str(i): [{"vertex": [v.i, v.k], "tag": tag} for v, tag in entries]
            for i, entries in sorted(record.by_abscissa.items())
        },
    }
    return t2, trace
