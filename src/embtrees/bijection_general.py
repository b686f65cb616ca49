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
    condition_t1,
    condition_t2_dblprime,
    condition_t2_prime,
    satisfies_condition_f,
    type_distribution_of,
)
from .bijection_nonneg import (
    Piece,
    _close_marked_segment,
    _functional_cycles,
    _records_forward,
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
        self.cycles_at = {}
        for cyc in self.cycles:
            self.cycles_at.setdefault(cyc[0].i, []).append(cyc)
        self._on_cycle = {v for cyc in self.cycles for v in cyc}

    def block_of(self, v: Vertex) -> int:
        return self.source[v].i

    def on_cycle(self, v: Vertex) -> bool:
        return v in self._on_cycle


def _cut_spine(f: SFunction) -> dict[Vertex, Vertex]:
    arcs = dict(f.image)
    p = f.profile
    for i in p.abscissas():
        if i != 0:
            del arcs[Vertex(i, 1)]
    return arcs


def _analyze(arcs: dict[Vertex, Vertex], vset: VertexSet) -> WPartition:
    cycles = _functional_cycles(arcs)
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
# concatenation builders (operate on a mutable arc dict)
# ---------------------------------------------------------------------------

def _build_L(arcs: dict[Vertex, Vertex], part: WPartition, i: int
             ) -> tuple[Vertex, list[Piece], list[Vertex]]:
    """Left concatenation L(i): cut the arc entering each cycle source at
    abscissa i, order pieces by decreasing source, chain left to right.
    Returns (entry vertex a_i, pieces, distinguished path)."""
    pieces = [Piece(Vertex(i, 1), Vertex(i, 1), (Vertex(i, 1),))]
    for cyc in part.cycles_at.get(i, ()):
        del arcs[cyc[-1]]  # the arc entering the source
        pieces.append(Piece(cyc[0], cyc[-1], tuple(cyc)))
    pieces.sort(key=lambda pc: pc.source, reverse=True)
    for left, right in zip(pieces, pieces[1:]):
        arcs[left.sink] = right.source
    path = [v for pc in pieces for v in pc.path]
    return pieces[0].source, pieces, path


def _build_R(arcs: dict[Vertex, Vertex], part: WPartition, i: int,
             exclude: Vertex | None = None
             ) -> tuple[Vertex, list[Piece], list[Vertex]]:
    """Right concatenation R(i): cut the arc leaving each cycle source at
    abscissa i, order pieces by increasing sink (the old sources become
    sinks), chain left to right from i^1.  Returns (root b_i, pieces, path).
    A cycle whose source is `exclude` is left out (case A2)."""
    pieces = [Piece(Vertex(i, 1), Vertex(i, 1), (Vertex(i, 1),))]
    for cyc in part.cycles_at.get(i, ()):
        mn = cyc[0]
        if mn != exclude:
            del arcs[mn]  # the arc leaving the source
            path = tuple(cyc[1:] + [mn])
            pieces.append(Piece(path[0], mn, path))
    pieces.sort(key=lambda pc: pc.sink)
    for left, right in zip(pieces, pieces[1:]):
        arcs[left.sink] = right.source
    path = [v for pc in pieces for v in pc.path]
    return pieces[-1].sink, pieces, path


# ---------------------------------------------------------------------------
# the forward map, case by case
# ---------------------------------------------------------------------------

@dataclass
class _Assembly:
    """The raw Psi_1 output plus everything Psi_2 and the trace need."""

    case: str
    tree: MarkedSTree
    v0: Vertex
    w0: Vertex
    pieces: dict[str, list[Piece]] = field(default_factory=dict)
    special: dict[str, Vertex] = field(default_factory=dict)


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

    entries: dict[int, Vertex] = {}
    roots: dict[int, Vertex] = {}
    l_low = 0 if case == "B" else 1
    for i in range(l_low, p.r + 1):
        a_i, pcs, _path = _build_L(arcs, part, i)
        entries[i] = a_i
        pieces[f"L({i})"] = pcs
    r_high = -1 if case == "B" else 0
    for i in range(p.ell, r_high + 1):
        b_i, pcs, _path = _build_R(arcs, part, i, exclude=exclude)
        roots[i] = b_i
        pieces[f"R({i})"] = pcs

    if case == "B":
        # surgery on the left concatenation containing v_0
        i0 = part.block_of(v0)
        lpath = set()
        for pc in pieces[f"L({i0})"]:
            lpath.update(pc.path)
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

    # chain the concatenations
    for i in range(p.r, l_low, -1):
        arcs[Vertex(i, 1)] = entries[i - 1]
    for i in range(p.ell + 1, r_high + 1):
        arcs[roots[i - 1]] = Vertex(i, 1)

    if case in ("A1", "A2", "A3"):
        if p.r >= 1:
            arcs[Vertex(1, 1)] = v0
        if case == "A2":
            arcs[special["u"]] = Vertex(0, 1)
        root = roots[0]
        mark = entries[p.r] if p.r >= 1 else v0
    else:
        arcs[roots[-1]] = special["y0"]
        if "x_minus1" in special:
            arcs[Vertex(0, 1)] = special["x_minus1"]
            arcs[special["y_minus1"]] = v0
            root = special["x0"]
        else:
            root = Vertex(0, 1)
        mark = entries[p.r]

    w0 = v0
    tree = MarkedSTree(vset, f.step_set, arcs, root=root, mark=mark)
    return _Assembly(case, tree, v0, w0, pieces, special)


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
        assert w0 == assembly.w0, "the vertex after 1^1 must be v_0"
    else:
        assert meet == assembly.special["v"], "the meet must be the attachment point"


# ---------------------------------------------------------------------------
# Psi_1 inverse, case by case
# ---------------------------------------------------------------------------

def _close_ell_segment(arcs: dict[Vertex, Vertex], segment: list[Vertex],
                       ell: int) -> None:
    """Undo a chained right concatenation: walk `segment` (from the chain
    root down to ell^1) against the arcs, split at the lower records, close
    cycles, restore the spine arcs i^1 -> (i+1)^1 for i in [ell, -2].

    segment[0] is the walk start (its out-arc, if any, must already be cut).
    """
    records = _records_forward(segment)
    pos = {v: j for j, v in enumerate(segment)}
    for idx, sink in enumerate(records):
        source = (segment[pos[records[idx + 1]] - 1]
                  if idx + 1 < len(records) else segment[-1])
        if sink.k == 1:
            if source != sink:
                raise ConditionViolated(
                    f"spine piece at {sink} is not a single vertex")
            if sink.i <= -2:
                arcs[sink] = Vertex(sink.i + 1, 1)
            elif sink in arcs:
                del arcs[sink]
        else:
            arcs[sink] = source


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
            idx0 = mark_path.index(Vertex(0, 1))
            u = mark_path[idx0 - 1]
            del arcs[u]
            arcs[u] = w0
        ell_path = tree.path_to_root(Vertex(p.ell, 1))
        segment = list(reversed(ell_path))  # from the root down to ell^1
        _close_ell_segment(arcs, segment, p.ell)
        arcs[Vertex(-1, 1)] = w0
        if case == "A3" and w0 != Vertex(0, 1):
            # w_0 sits on a cycle: cut the arc entering it, redirect onto 0^1
            for cyc in _functional_cycles(arcs):
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
    _close_ell_segment(arcs, segment, p.ell)

    if tree.root != Vertex(0, 1):
        x_1 = tree.parent[Vertex(0, 1)]
        if x_1.i != -1:
            raise ConditionViolated("0^1 must be followed by a V_{-1} vertex")
        root_path = tree.path_to_root(Vertex(0, 1))
        y_1 = None
        for v in root_path:
            if v.i == -1:
                y_1 = v
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


def psi1_inverse(tree: MarkedSTree) -> SFunction:
    case, _meet, w0 = _tree_case(tree)
    arcs = _psi1_inverse_arcs(tree, case, w0)
    f = SFunction(tree.vertex_set, tree.step_set, arcs)
    if not satisfies_condition_f(f):
        raise ConditionViolated("reconstruction violates condition (F)")
    return f


# ---------------------------------------------------------------------------
# Psi_2: repairing in-types
# ---------------------------------------------------------------------------

def _in_profiles(image: dict[Vertex, Vertex]) -> dict[Vertex, tuple]:
    pre: dict[Vertex, list[int]] = {}
    for v, w in image.items():
        pre.setdefault(w, []).append(v.i)
    return {v: tuple(sorted(a)) for v, a in pre.items()}


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

    f_in = _in_profiles(g.image)
    t_in = _in_profiles(tree.parent)
    bottom = Vertex(1, 1) if (case != "B" and p.r >= 1) else Vertex(0, 1)
    if case != "B" and p.r == 0:
        segment = []  # no record corrections beyond the special pair
    else:
        segment = mark_path[:mark_path.index(bottom) + 1]
    records = set(_records_forward(segment))
    frustrated: dict[int, list[Vertex]] = {}
    specials = {Vertex(0, 1), w0} if case != "B" else set()
    for v in segment:
        if v in specials:
            continue
        if f_in.get(v, ()) != t_in.get(v, ()):
            assert v in records, f"frustrated vertex {v} is not a lower record"
            frustrated.setdefault(v.i, []).append(v)
    if __debug__:
        seg_set = set(segment)
        for v in tree.vertex_set.vertices():
            if v in seg_set or v in specials:
                continue
            assert f_in.get(v, ()) == t_in.get(v, ()), \
                f"vertex {v} off the marked segment must keep its in-type"
    pairs = []
    for _i, verts in sorted(frustrated.items()):
        assert len(verts) % 2 == 0, "frustrated records must pair up"
        pairs.extend(zip(verts[0::2], verts[1::2]))
    if pairs:
        out = _swap_hanging_subtrees(out, pairs, [mark_path])
    return out


def psi2(tree: MarkedSTree) -> MarkedSTree:
    """The repairing involution on the tree side of each case."""
    case, _meet, w0 = _tree_case(tree)
    arcs = _psi1_inverse_arcs(tree, case, w0)
    g = SFunction(tree.vertex_set, tree.step_set, arcs)
    return _psi2_swaps(tree, g, case, w0)


# ---------------------------------------------------------------------------
# the full bijection
# ---------------------------------------------------------------------------

def psi(f: SFunction) -> MarkedSTree:
    """Bijection from (F)-functions to marked trees satisfying (T1) and (T2);
    preserves the out-type census and the in-type census."""
    return psi_with_trace(f)[0]


def psi_with_trace(f: SFunction) -> tuple[MarkedSTree, dict]:
    assembly = _psi1(f)
    if __debug__:
        _case_certificate(assembly)
    out = _psi2_swaps(assembly.tree, f, assembly.case, assembly.w0)
    if __debug__:
        d_in = type_distribution_of(f)
        d_out = type_distribution_of(out)
        assert d_in.in_key() == d_out.in_key(), "psi must preserve the in-type census"
        assert d_in.out_key() == d_out.out_key(), "psi must preserve the out-type census"
    p = f.profile
    l_low = 0 if assembly.case == "B" else 1
    r_high = -1 if assembly.case == "B" else 0
    order = [f"L({i})" for i in range(p.r, l_low - 1, -1)]
    order += [f"R({i})" for i in range(p.ell, r_high + 1)]
    trace = {
        "regime": "general",
        "case": assembly.case,
        "mark": [out.mark.i, out.mark.k],
        "root": [out.root.i, out.root.k],
        "v0": [assembly.v0.i, assembly.v0.k],
        "special": {k: [v.i, v.k] for k, v in assembly.special.items()},
        "concatenation": order,
        "pieces": {
            name: [{"source": [pc.source.i, pc.source.k],
                    "sink": [pc.sink.i, pc.sink.k],
                    "path": [[v.i, v.k] for v in pc.path]} for pc in pcs]
            for name, pcs in assembly.pieces.items()
        },
    }
    return out, trace


def psi_inverse(tree: MarkedSTree) -> SFunction:
    """psi2 is an involution on each case's tree set, so the inverse is the
    case reconstruction applied after psi2."""
    case, _meet, w0 = _tree_case(tree)
    arcs = _psi1_inverse_arcs(tree, case, w0)
    g = SFunction(tree.vertex_set, tree.step_set, arcs)
    repaired = _psi2_swaps(tree, g, case, w0)
    if __debug__:
        case2, _m2, w2 = _tree_case(repaired)
        assert case2 == case and w2 == w0, "psi2 must preserve the case"
    arcs = _psi1_inverse_arcs(repaired, case, w0)
    f = SFunction(tree.vertex_set, tree.step_set, arcs)
    if not satisfies_condition_f(f):
        raise ConditionViolated("reconstruction violates condition (F)")
    return f
