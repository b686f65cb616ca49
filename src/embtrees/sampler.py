"""Exact uniform random generation of embedded trees with a given profile.

A uniform (F)-function costs one independent uniform draw per free vertex;
the bijection turns it into a marked tree; a uniform renaming (one spine swap
per abscissa) plus a uniform order-consistent labeling turn the marked tree
into an embedded Cayley tree.  Every embedded tree with the profile arises
from the same number of (marked tree, renaming, labeling) triples, so the
output is exactly uniform.  Draws use random.Random, whose bounded integers
are rejection-sampled (no modulo bias).

The exact law of the vertical profile of a uniform random tree (the discrete
occupation measure) is computed by enumerating all profiles of a given size
and normalizing the counting formulas by the total.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .core import (
    BudgetExceeded,
    EmbeddedCayleyTree,
    InfeasibleProfile,
    MarkedSTree,
    Profile,
    SAryTree,
    SFunction,
    StepSet,
    Vertex,
    VertexSet,
    allowed_images,
    sary_from_injective,
    validate_profile_for,
)
from . import formulas
from .oracle import _compositions
from .bijection_nonneg import phi
from .bijection_general import psi


class CountingRandom(random.Random):
    """random.Random that counts its bounded-integer draws (used to check
    that sampling costs Theta(n) draws)."""

    def __init__(self, seed=None):
        super().__init__(seed)
        self.draws = 0

    def _randbelow(self, n, **kwargs):
        self.draws += 1
        return super()._randbelow(n, **kwargs)


def _rng(seed) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


# ---------------------------------------------------------------------------
# uniform functions and trees
# ---------------------------------------------------------------------------

def _spine_arcs(vset: VertexSet, rng: random.Random) -> dict[Vertex, Vertex]:
    """The arcs that (F) fixes: i^1 -> (i-1)^1 for i >= 1 and i^1 -> (i+1)^1
    for i <= -2, plus v_0 = f(-1^1) drawn uniformly from V_0 when ell < 0.
    Every i^1 other than the root 0^1 gets its image here, so the free
    vertices are the i^k with k >= 2."""
    p = vset.profile
    levels = vset.levels
    image = {levels[i][0]: levels[i - 1][0] for i in range(1, p.r + 1)}
    image.update((levels[i][0], levels[i + 1][0]) for i in range(p.ell, -1))
    if p.ell < 0:
        image[levels[-1][0]] = levels[0][rng.randrange(p.count(0))]
    return image


def sample_sfunction(step_set: StepSet, profile: Profile, seed=None) -> SFunction:
    """Uniform (F)-function: every free vertex's image is drawn independently
    and uniformly from its allowed codomain (v_0 uniformly from V_0 when
    ell < 0).  A profile with ell < 0 needs min S = -1
    (validate_profile_for)."""
    validate_profile_for(step_set, profile)
    rng = _rng(seed)
    vset = VertexSet(profile)
    image = _spine_arcs(vset, rng)
    for level in vset.levels.values():
        # one draw indexes the concatenated levels V_{i-s}, s in S
        codomain = allowed_images(vset, step_set, level[0])
        total = len(codomain)
        for v in level[1:]:
            image[v] = codomain[rng.randrange(total)]
    return SFunction(vset, step_set, image)


def _sample_marked_tree(step_set: StepSet, profile: Profile,
                        rng: random.Random) -> MarkedSTree:
    f = sample_sfunction(step_set, profile, rng)
    return phi(f) if profile.ell == 0 else psi(f)


def _relabel_uniform(tree: MarkedSTree, rng: random.Random
                     ) -> EmbeddedCayleyTree:
    """Uniform renaming (swap i^1 with a uniform i^k at every abscissa) then
    a uniform order-consistent assignment of labels 1..n."""
    p = tree.profile
    levels = tree.vertex_set.levels
    swaps = [(level[0], level[rng.randrange(len(level))]) for level in levels.values()]
    # choose which labels land at each abscissa, uniformly
    labels = list(range(1, p.n + 1))
    rng.shuffle(labels)
    label: dict[Vertex, int] = {}
    abscissa: dict[int, int] = {}
    start = 0
    for i, level in levels.items():
        chosen = sorted(labels[start:start + len(level)])
        label.update(zip(level, chosen))
        abscissa.update(dict.fromkeys(chosen, i))
        start += len(level)
    for u, v in swaps:  # the renaming exchanges the labels of i^1 and i^k
        label[u], label[v] = label[v], label[u]
    out_parent = {label[v]: label[par] for v, par in tree.parent.items()}
    root_label = label[tree.root]
    return EmbeddedCayleyTree(p.n, root_label, out_parent, abscissa,
                              tree.step_set)


def sample_embedded_cayley(step_set: StepSet, profile: Profile,
                           seed=None) -> EmbeddedCayleyTree:
    """Uniform S-embedded Cayley tree with the given profile.

    Pipeline: uniform (F)-function -> bijection -> marked S-tree -> uniform
    renaming -> uniform order-consistent labeling -> drop the mark.  Each
    embedded tree arises from n_r (resp. n_ell n_r) marked trees and each
    marked tree from n!/prod (n_i - 1)! relabelings, so the result is uniform.
    """
    rng = _rng(seed)
    tree = _sample_marked_tree(step_set, profile, rng)
    return _relabel_uniform(tree, rng)


def sample_sary(step_set: StepSet, profile: Profile, seed=None) -> SAryTree:
    """Uniform S-ary tree with the given profile: a uniform (F)-function
    injective on each V_i, pushed through the bijection, with names dropped."""
    validate_profile_for(step_set, profile)
    rng = _rng(seed)
    vset = VertexSet(profile)
    image = _spine_arcs(vset, rng)
    for i, level in vset.levels.items():
        rest = level[1:]
        codomain = [w for w in allowed_images(vset, step_set, level[0])
                    if image.get(level[0]) != w]
        if len(codomain) < len(rest):
            raise InfeasibleProfile(
                f"not enough distinct images at abscissa {i}")
        chosen = rng.sample(codomain, len(rest))
        image.update(zip(rest, chosen))
    f = SFunction(vset, step_set, image)
    tree = phi(f) if profile.ell == 0 else psi(f)
    return sary_from_injective(tree)


# ---------------------------------------------------------------------------
# the exact profile law
# ---------------------------------------------------------------------------

def enumerate_profiles(n: int, step_set: StepSet | None = None) -> Iterator[Profile]:
    """All profiles of total size n that an S-embedded tree can have:
    compositions of n into positive parts with a marked part for abscissa 0,
    and, given a step set with min S <= -2, every way to leave runs of at
    most -min S - 1 empty abscissas between the parts below 0 (a step of S
    skips no more).  Without a step set, or with min S >= -1, no abscissa is
    empty."""
    gap = 0 if step_set is None else max(-step_set.m - 1, 0)
    for k in range(1, n + 1):
        for c in _compositions(n - k, k):  # each part less one
            for neg in range(k - 1, -1, -1):  # the parts below abscissa 0
                for runs in itertools.product(range(gap + 1), repeat=neg):
                    counts = [c[0] + 1]
                    for run, part in zip(runs, c[1:]):
                        counts += [0] * run + [part + 1]
                    counts += [part + 1 for part in c[neg + 1:]]
                    yield Profile(counts, ell=-neg - sum(runs))


@dataclass(frozen=True)
class ProfileLaw:
    """Exact law of the vertical profile of a uniform random tree of size n:
    the mass of a profile is its theorem count / total count."""

    n: int
    family: str
    step_set: StepSet | None
    masses: tuple[tuple[Profile, Fraction], ...]
    total: int

    def items(self) -> Iterator[tuple[Profile, Fraction]]:
        return iter(self.masses)


# family: (the largest n its law enumerates, the count of one profile over S)
_LAWS = {
    "binary": (14, lambda _step_set, p: formulas.count_binary_profile(p)),
    "sary": (14, formulas.count_sary_profile),
    "cayley": (8, formulas.count_cayley_profile),
}


def profile_law(n: int, family: str,
                step_set: StepSet | None = None) -> ProfileLaw:
    """The law over all profiles of size n (enumerate_profiles over the step
    set, so every tree of size n counts) for family "binary", "sary" (needs
    step_set), or "cayley" (needs step_set).  Masses are listed by (ell,
    counts)."""
    if family not in _LAWS:
        raise ValueError(f"unknown family {family!r}")
    largest, count = _LAWS[family]
    if step_set is None and family != "binary":
        raise ValueError(f"{family} law needs a step set")
    if n > largest:
        raise BudgetExceeded(f"{family} profile law guard: n <= {largest}")

    masses = []
    total = 0
    for p in enumerate_profiles(n, step_set):
        c = count(step_set, p)
        if c:
            masses.append((p, c))
            total += c
    masses.sort(key=lambda pc: (pc[0].ell, pc[0].counts))
    law = ProfileLaw(
        n=n, family=family, step_set=step_set,
        masses=tuple((p, Fraction(c, total)) for p, c in masses),
        total=total)
    assert sum(prob for _k, prob in law.masses) == 1
    return law


def occupation_marginal(law: ProfileLaw, i: int) -> dict[int, Fraction]:
    """Exact distribution of n_i (the occupation count at abscissa i) under
    the law, including the mass at n_i = 0."""
    out: dict[int, Fraction] = {}
    for profile, prob in law.items():
        c = profile.count(i)
        out[c] = out.get(c, 0) + prob
    assert sum(out.values()) == 1
    return dict(sorted(out.items()))
