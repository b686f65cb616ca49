"""The bijection for profiles with negative abscissas (min S = -1).

After cutting every spine arc i^1 -> f(i^1), the vertex set splits into
components W_i indexed by the abscissa of their source.  The construction
dispatches on where v_0 = f(-1^1) lives:

  A1: v_0 in some W_i (i <= 0), not on a cycle, not in 0^1's component;
  A2: v_0 on a cycle;
  A3: v_0 in the component of 0^1 (redirect the arc entering 0^1 onto v_0,
      creating one more cycle, then proceed as A1);
  B:  v_0 in some W_i with i >= 1 (surgery on the left concatenation that
      contains it, splitting off the negative excursion between x_0 and y_0).

Each case assembles left concatenations L(i) (pieces ordered by decreasing
source, cut before the source) for positive abscissas and right
concatenations R(i) (pieces ordered by increasing sink, cut after the source)
for non-positive ones, then repairs in-types by swapping hanging subtrees:
the 0^1 / v_0 pair in the A cases, and consecutive frustrated lower records
of the marked path everywhere.  The tree-side images are characterized by
(T1) together with (T2') or (T2'') and by where the meet of ell^1 and the
mark falls relative to 0^1 and the vertex following 1^1.

The stages shared with the non-negative bijection (cutting, concatenating,
splitting at lower records, finding frustrated records, swapping) live in
bijection_nonneg; this module holds the case analysis around them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    ConditionViolated,
    MarkedSTree,
    PreconditionViolated,
    SFunction,
    Vertex,
    VertexSet,
    _census_of,
    condition_t1,
    condition_t2_dblprime,
    condition_t2_prime,
    satisfies_condition_f,
)
from .bijection_nonneg import (
    Piece,
    _close_marked_segment,
    _consecutive_pairs,
    _cut_spine,
    _cycles_by_abscissa,
    _frustrated,
    _functional_cycles,
    _in_type_differs,
    _left_concatenations,
    _preimages,
    _record_pieces,
    _right_concatenations,
    _swap_hanging_subtrees,
)


# ---------------------------------------------------------------------------
# component analysis of the cut graph
# ---------------------------------------------------------------------------

@dataclass
class WPartition:
    """Sources of the components of the cut graph: W_i collects the vertices
    whose component source lies at abscissa i.  Each cycle starts at its
    source (its smallest vertex); cycles_at indexes them by its abscissa."""

    source: dict[Vertex, Vertex]
    cycles: list[list[Vertex]]
    cycles_at: dict[int, list[list[Vertex]]] = field(init=False, repr=False)
    _on_cycle: set[Vertex] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.cycles_at = _cycles_by_abscissa(self.cycles)
        self._on_cycle = {v for cyc in self.cycles for v in cyc}

    def block_of(self, v: Vertex) -> int:
        return self.source[v].i

    def on_cycle(self, v: Vertex) -> bool:
        return v in self._on_cycle


def _analyze(arcs: dict[Vertex, Vertex], vset: VertexSet) -> WPartition:
    cycles = _functional_cycles(arcs, vset)
    source: dict[Vertex, Vertex] = {}
    for cyc in cycles:
        for v in cyc:
            source[v] = cyc[0]
    for v in vset.vertices():
        chain = []
        w = v
        while w not in source and w in arcs:
            chain.append(w)
            w = arcs[w]
        base = source.get(w, w)  # arc-less endpoints are their own source
        source[w] = base
        for u in chain:
            source[u] = base
    return WPartition(source, cycles)


def _cut_and_classify(f: SFunction
                      ) -> tuple[str, dict[Vertex, Vertex], WPartition]:
    """Check the hypotheses, cut the spine arcs and analyse the cut graph
    once; returns the case A1 / A2 / A3 / B, the cut arcs and their
    partition."""
    p = f.profile
    if p.ell >= 0:
        raise PreconditionViolated("the general bijection needs ell < 0")
    if f.step_set.m != -1:
        raise PreconditionViolated("the general bijection needs min S = -1")
    if not satisfies_condition_f(f):
        raise PreconditionViolated("condition (F) fails")
    arcs = _cut_spine(f)
    part = _analyze(arcs, f.vertex_set)
    v0 = f.image[Vertex(-1, 1)]
    if part.block_of(v0) >= 1:
        case = "B"
    elif part.source[v0] == part.source[Vertex(0, 1)]:
        case = "A3"
    elif part.on_cycle(v0):
        case = "A2"
    else:
        case = "A1"
    return case, arcs, part


def classify_case(f: SFunction) -> str:
    """A1 / A2 / A3 / B, per the position of v_0 = f(-1^1) in the cut graph."""
    return _cut_and_classify(f)[0]


# ---------------------------------------------------------------------------
# the forward map, case by case
# ---------------------------------------------------------------------------

@dataclass
class _Assembly:
    """The raw Psi_1 output plus everything Psi_2 and the trace need."""

    case: str
    tree: MarkedSTree
    v0: Vertex
    pieces: dict[str, list[Piece]]
    special: dict[str, Vertex]


def _psi1(f: SFunction) -> _Assembly:
    case, arcs, part = _cut_and_classify(f)
    p = f.profile
    vset = f.vertex_set
    v0 = f.image[Vertex(-1, 1)]
    pieces: dict[str, list[Piece]] = {}
    special: dict[str, Vertex] = {}

    if case == "A3" and v0 != Vertex(0, 1):
        # redirect the arc entering 0^1 on the chain from v_0 onto v_0
        u = v0
        while arcs[u] != Vertex(0, 1):
            u = arcs[u]
        arcs[u] = v0
        special["u"] = u
        part = _analyze(arcs, vset)

    exclude = None
    if case == "A2":
        cyc = next(c for c in part.cycles if v0 in c)
        pos = cyc.index(v0)
        u = cyc[pos - 1]  # the arc u -> v_0 closes the cycle at v_0
        del arcs[u]
        pieces["Ctilde"] = [Piece(v0, u, tuple(cyc[pos:] + cyc[:pos]))]
        special["u"] = u
        exclude = cyc[0]

    l_low = 0 if case == "B" else 1
    left = _left_concatenations(arcs, part.cycles_at, l_low, p.r, f.step_set)
    right = _right_concatenations(arcs, part.cycles_at, p.ell,
                                  -1 if case == "B" else 0, exclude)
    # in concatenation order: L(r), ..., L(l_low), then R(ell), ...
    pieces.update((f"L({i})", left[i]) for i in reversed(left))
    pieces.update((f"R({i})", pcs) for i, pcs in right.items())

    if case == "B":
        # surgery on the left concatenation containing v_0
        lpath = {v for pc in left[part.block_of(v0)] for v in pc.path}
        chain = [v0]
        while chain[-1] not in lpath:
            chain.append(arcs[chain[-1]])
        v = chain[-1]
        special["v"] = v
        negatives = [j for j, w in enumerate(chain) if w.i < 0]
        if negatives:
            x_1 = chain[negatives[0]]
            y_1 = chain[negatives[-1]]
            x0 = chain[negatives[0] - 1]
            y0 = chain[negatives[-1] + 1]
            del arcs[x0]   # x_0 -> x_-1
            del arcs[y_1]  # y_-1 -> y_0
            special.update({"x0": x0, "x_minus1": x_1, "y_minus1": y_1, "y0": y0})
        else:
            x0 = y0 = v0
            special.update({"x0": x0, "y0": y0})

    if case in ("A1", "A2", "A3"):
        if p.r >= 1:
            arcs[Vertex(1, 1)] = v0
        if case == "A2":
            arcs[special["u"]] = Vertex(0, 1)
        root = right[0][-1].sink
        mark = left[p.r][0].source if p.r >= 1 else v0
    else:
        arcs[right[-1][-1].sink] = special["y0"]
        if "x_minus1" in special:
            arcs[Vertex(0, 1)] = special["x_minus1"]
            arcs[special["y_minus1"]] = v0
            root = special["x0"]
        else:
            root = Vertex(0, 1)
        mark = left[p.r][0].source

    tree = MarkedSTree(vset, f.step_set, arcs, root=root, mark=mark)
    return _Assembly(case, tree, v0, pieces, special)


def psi1(f: SFunction) -> MarkedSTree:
    return _psi1(f).tree


# ---------------------------------------------------------------------------
# the tree-side case dispatch and condition certificates
# ---------------------------------------------------------------------------

def _tree_case(tree: MarkedSTree) -> tuple[str, Vertex, Vertex]:
    """Case of a marked tree satisfying (T1) and (T2); returns
    (case, meet, w0)."""
    p = tree.profile
    if p.ell >= 0:
        raise PreconditionViolated("the general bijection needs ell < 0")
    if not condition_t1(tree):
        raise ConditionViolated("condition (T1) fails")
    meet = tree.meet(Vertex(p.ell, 1), tree.mark)
    t2p = condition_t2_prime(tree)
    t2pp = condition_t2_dblprime(tree)
    if not (t2p or t2pp):
        raise ConditionViolated("condition (T2) fails")
    assert not (t2p and t2pp), "(T2') and (T2'') are mutually exclusive"
    if p.r >= 1:
        w0 = tree.parent[Vertex(1, 1)]
    else:
        w0 = tree.mark
    if t2pp:
        return "B", meet, w0
    if meet == w0:
        return "A3", meet, w0
    if meet == Vertex(0, 1):
        return "A2", meet, w0
    return "A1", meet, w0


def _case_certificate(assembly: _Assembly) -> None:
    case, meet, w0 = _tree_case(assembly.tree)
    assert case == assembly.case, (case, assembly.case)
    if case in ("A1", "A2", "A3"):
        assert w0 == assembly.v0, "the vertex after 1^1 must be v_0"
    else:
        assert meet == assembly.special["v"], "the meet must be the attachment point"


# ---------------------------------------------------------------------------
# Psi_1 inverse, case by case
# ---------------------------------------------------------------------------

def _close_ell_segment(arcs: dict[Vertex, Vertex], segment: list[Vertex]) -> None:
    """Undo a chained right concatenation: walk `segment` (from the chain
    root down to ell^1) against the arcs, split at the lower records, close
    cycles, restore the spine arcs i^1 -> (i+1)^1 for i in [ell, -2].

    segment[0] is the walk start (its out-arc, if any, must already be cut).
    """
    for sink, source in _record_pieces(segment):
        if sink.k != 1:
            arcs[sink] = source
        elif sink.i <= -2:
            arcs[sink] = Vertex(sink.i + 1, 1)
        else:
            arcs.pop(sink, None)


def _psi1_inverse_arcs(tree: MarkedSTree, case: str, w0: Vertex
                       ) -> dict[Vertex, Vertex]:
    p = tree.profile
    arcs = dict(tree.parent)
    mark_path = tree.path_to_root(tree.mark)

    if case in ("A1", "A2", "A3"):
        if p.r >= 1:
            del arcs[Vertex(1, 1)]  # split 1^1 -> w_0
            segment = mark_path[:mark_path.index(Vertex(1, 1)) + 1]
            _close_marked_segment(arcs, segment, bottom=1)
            arcs[Vertex(1, 1)] = Vertex(0, 1)
        if case == "A2":
            # cut the arc entering 0^1 on the marked path, close the cycle
            arcs[mark_path[mark_path.index(Vertex(0, 1)) - 1]] = w0
        ell_path = tree.path_to_root(Vertex(p.ell, 1))
        segment = list(reversed(ell_path))  # from the root down to ell^1
        _close_ell_segment(arcs, segment)
        arcs[Vertex(-1, 1)] = w0
        if case == "A3" and w0 != Vertex(0, 1):
            # w_0 sits on a cycle: cut the arc entering it, redirect onto 0^1
            for cyc in _functional_cycles(arcs, tree.vertex_set):
                if w0 in cyc:
                    x = cyc[cyc.index(w0) - 1]
                    arcs[x] = Vertex(0, 1)
                    break
            else:
                raise ConditionViolated("w_0 must lie on a cycle in case A3")
        return arcs

    # case B
    meet = tree.meet(Vertex(p.ell, 1), tree.mark)
    ell_path = tree.path_to_root(Vertex(p.ell, 1))
    ell_to_meet = ell_path[:ell_path.index(meet) + 1]
    negatives = [v for v in ell_to_meet if v.i < 0]
    if not negatives:
        raise ConditionViolated("case B needs a negative vertex below the meet")
    b_1 = negatives[-1]
    y0 = ell_to_meet[ell_to_meet.index(b_1) + 1]
    del arcs[b_1]
    segment = list(reversed(ell_path[:ell_path.index(b_1) + 1]))
    _close_ell_segment(arcs, segment)

    if tree.root != Vertex(0, 1):
        x_1 = tree.parent[Vertex(0, 1)]
        if x_1.i != -1:
            raise ConditionViolated("0^1 must be followed by a V_{-1} vertex")
        root_path = tree.path_to_root(Vertex(0, 1))
        y_1 = [v for v in root_path if v.i == -1][-1]
        v0 = root_path[root_path.index(y_1) + 1]
        x0 = tree.root
        del arcs[Vertex(0, 1)]
        del arcs[y_1]
        arcs[x0] = x_1
        arcs[y_1] = y0
    else:
        v0 = y0

    segment = mark_path[:mark_path.index(Vertex(0, 1)) + 1]
    _close_marked_segment(arcs, segment, bottom=0)
    arcs[Vertex(-1, 1)] = v0
    return arcs


def _reconstruct(tree: MarkedSTree) -> tuple[str, Vertex, SFunction]:
    """The tree's case, its w_0, and the function Psi_1 maps to it."""
    case, _meet, w0 = _tree_case(tree)
    arcs = _psi1_inverse_arcs(tree, case, w0)
    return case, w0, SFunction(tree.vertex_set, tree.step_set, arcs)


def psi1_inverse(tree: MarkedSTree) -> SFunction:
    f = _reconstruct(tree)[2]
    if not satisfies_condition_f(f):
        raise ConditionViolated("reconstruction violates condition (F)")
    return f


# ---------------------------------------------------------------------------
# Psi_2: repairing in-types
# ---------------------------------------------------------------------------

def _psi2_swaps(tree: MarkedSTree, g: SFunction, case: str, w0: Vertex
                ) -> MarkedSTree:
    """Swap the hanging subtrees of 0^1 and w_0 (A cases), then of the
    consecutive frustrated lower records of the marked-path segment."""
    p = tree.profile
    mark_path = tree.path_to_root(tree.mark)
    ell_path = tree.path_to_root(Vertex(p.ell, 1))
    out = tree
    if case in ("A1", "A2", "A3") and w0 != Vertex(0, 1):
        out = _swap_hanging_subtrees(out, [(Vertex(0, 1), w0)],
                                     [mark_path, ell_path])

    f_pre, t_pre = _preimages(g.image), _preimages(tree.parent)
    if case == "B":
        segment, specials = mark_path[:mark_path.index(Vertex(0, 1)) + 1], set()
    else:
        # with r = 0 no record needs correcting beyond the special pair
        segment = mark_path[:mark_path.index(Vertex(1, 1)) + 1] if p.r >= 1 else []
        specials = {Vertex(0, 1), w0}
    pairs = _consecutive_pairs(_frustrated(f_pre, t_pre, segment, specials))
    if __debug__:
        seg_set = set(segment)
        for v in tree.vertex_set.vertices():
            if v in seg_set or v in specials:
                continue
            assert not _in_type_differs(f_pre, t_pre, v), \
                f"vertex {v} off the marked segment must keep its in-type"
    if pairs:
        out = _swap_hanging_subtrees(out, pairs, [mark_path])
    return out


def psi2(tree: MarkedSTree) -> MarkedSTree:
    """The repairing involution on the tree side of each case."""
    case, w0, g = _reconstruct(tree)
    return _psi2_swaps(tree, g, case, w0)


# ---------------------------------------------------------------------------
# the full bijection
# ---------------------------------------------------------------------------

def psi(f: SFunction) -> MarkedSTree:
    """Bijection from (F)-functions to marked trees satisfying (T1) and (T2);
    preserves the out-type census and the in-type census.  Under asserts,
    psi_with_trace checks the census of f and of the tree and compares their
    integer in- and out-type tables (core._census_of)."""
    return psi_with_trace(f)[0]


def psi_with_trace(f: SFunction) -> tuple[MarkedSTree, dict]:
    assembly = _psi1(f)
    if __debug__:
        _case_certificate(assembly)
    out = _psi2_swaps(assembly.tree, f, assembly.case, assembly.v0)
    if __debug__:
        c_in, c_out = _census_of(f), _census_of(out)
        assert c_in.inn == c_out.inn, "psi must preserve the in-type census"
        assert c_in.out == c_out.out, "psi must preserve the out-type census"
    trace = {
        "regime": "general",
        "case": assembly.case,
        "mark": list(out.mark),
        "root": list(out.root),
        "v0": list(assembly.v0),
        "special": {k: list(v) for k, v in assembly.special.items()},
        "concatenation": [name for name in assembly.pieces if name != "Ctilde"],
        "pieces": {name: [pc.to_json() for pc in pcs]
                   for name, pcs in assembly.pieces.items()},
    }
    return out, trace


def psi_inverse(tree: MarkedSTree) -> SFunction:
    """psi2 is an involution on each case's tree set, so the inverse is the
    case reconstruction applied after psi2; the repaired tree's case and
    w_0 must be the tree's own."""
    case, w0, g = _reconstruct(tree)
    repaired = _psi2_swaps(tree, g, case, w0)
    case2, w2, f = _reconstruct(repaired)
    assert case2 == case and w2 == w0, "psi2 must preserve the case"
    if not satisfies_condition_f(f):
        raise ConditionViolated("reconstruction violates condition (F)")
    return f
