"""Property tests at sizes the oracle cannot reach: bijection round trips with
census preservation near n = 10^3, both samplers near n = 10^4, seeded
samples, the small bijection outputs and the oracle's enumerations pinned
byte for byte, and the samplers under python -O."""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from embtrees import (
    BudgetExceeded,
    EmbeddedCayleyTree,
    NotInjective,
    Profile,
    SAryTree,
    SFunction,
    StepSet,
    TargetTree,
    enumerate_embedded_cayley,
    enumerate_marked_strees,
    enumerate_sary,
    enumerate_sfunctions,
    equivalent,
    phi,
    phi_inverse,
    psi,
    psi_inverse,
    sample_embedded_cayley,
    sample_sary,
    sample_sfunction,
    sary_from_injective,
    shape_key,
    type_distribution_of,
    vertex_type,
)
from embtrees.bijection_general import classify_case, psi_with_trace
from embtrees.bijection_nonneg import phi1, phi2, phi_with_trace
from embtrees.cli import main
from embtrees.core import (
    SARY_JSON_MAX_HEIGHT,
    canonical_json,
    embedded_cayley_to_json,
    marked_stree_to_json,
    sary_from_json,
    sary_to_json,
    sfunction_to_json,
    type_distribution_to_json,
)
from embtrees.oracle import enumerate_target_embeddings

from conftest import (ROOTED_TARGET_SHAPES, compositions, profiles_of_size,
                      profiles_up_to)

STEP_SETS = [StepSet([-1, 0, 1]), StepSet([-1, 1])]


def random_profile(rng: random.Random, n: int, width: int, negative: bool) -> Profile:
    """About n vertices, 1..width per abscissa; about half of the abscissas
    lie below 0 when negative is set."""
    counts = []
    while sum(counts) < n:
        counts.append(rng.randint(1, width))
    return Profile(counts, ell=-(len(counts) // 2) if negative else 0)


@pytest.mark.parametrize("negative", [False, True], ids=["phi", "psi"])
@pytest.mark.parametrize("steps", STEP_SETS, ids=str)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_round_trip_and_censuses_near_one_thousand(seed, steps, negative):
    rng = random.Random(seed)
    p = random_profile(rng, 1000, 6, negative)
    regime = "general" if negative else "nonneg"
    f = sample_sfunction(steps, p, regime, rng)
    tree = psi(f) if negative else phi(f)
    assert (psi_inverse(tree) if negative else phi_inverse(tree)) == f
    d_f, d_t = type_distribution_of(f), type_distribution_of(tree)
    assert d_f.in_key() == d_t.in_key()
    assert d_f.out_key() == d_t.out_key()


@pytest.mark.parametrize("negative", [False, True], ids=["nonneg", "general"])
def test_samplers_on_a_thin_profile_near_ten_thousand(negative):
    steps = StepSet([-1, 0, 1])
    p = random_profile(random.Random(7), 10_000, 3, negative)
    tree = sample_embedded_cayley(steps, p, seed=11)
    assert tree.n == p.n and tree.profile() == p
    shape = sample_sary(steps, p, seed=11)
    assert shape.size() == p.n and shape.profile() == p


def test_sary_sampler_on_a_long_line():
    # 1500 levels of one vertex: a path far deeper than the recursion limit
    p = Profile([1] * 1500)
    shape = sample_sary(StepSet([-1, 0, 1]), p)
    assert shape.size() == 1500 and shape.profile() == p
    again = sample_sary(StepSet([-1, 0, 1]), p, seed=5)
    assert again == shape and hash(again) == hash(shape)
    assert len({shape, again}) == 1
    assert shape != SAryTree(0)


def test_shape_key_on_a_long_line():
    p = Profile([1] * 1500)
    tree = sample_embedded_cayley(StepSet([-1, 0, 1]), p, seed=3)
    other = sample_embedded_cayley(StepSet([-1, 0, 1]), p, seed=4)
    assert equivalent(tree, other)
    assert shape_key(tree) == shape_key(other)
    assert hash(shape_key(tree)) == hash(shape_key(other))


def test_sary_repr_on_a_long_line():
    shape = sample_sary(StepSet([-1, 0, 1]), Profile([1] * 1500))
    assert repr(shape) == ("SAryTree(abscissa=0, size=1500, height=1499, "
                           "root_steps=(1,))")


def test_sary_json_round_trip_at_the_height_cap():
    line = sample_sary(StepSet([-1, 0, 1]), Profile([1] * (SARY_JSON_MAX_HEIGHT + 1)))
    text = sary_to_json(line)
    assert sary_from_json(text) == line
    # one level more, and the text is refused as well
    with pytest.raises(BudgetExceeded):
        sary_from_json('{"abscissa":-1,"children":{"-1":' + text + "}}")


def test_sary_json_above_the_height_cap_is_a_budget_error(capsys):
    profile = ",".join(["1"] * (SARY_JSON_MAX_HEIGHT + 2))
    code = main(["sample", "sary", "--steps", "-1,0,1", "--profile", profile])
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert f"capped at height {SARY_JSON_MAX_HEIGHT}" in out.err


# 200 abscissas of 1-3 vertices, and 5 abscissas of 300-500 vertices
THIN = [2, 3, 2, 1, 2, 2, 3, 1] * 25
WIDE = [300, 450, 500, 420, 330]
SAMPLES_SHA256 = "d72a34ce0cf7788228a185a9b5cf823723054e36be9284fd32bd23989b8cc080"


def test_seeded_samples_are_pinned():
    """Both samplers, both regimes, a thin and a wide profile, two step sets:
    the seeded outputs hash to a pinned digest, so a change to the sampler
    pipeline that moves a draw or alters an output shows here."""
    digest = hashlib.sha256()
    for steps in STEP_SETS:
        for counts in (THIN, WIDE):
            for ell in (0, -(len(counts) // 3)):
                p = Profile(counts, ell=ell)
                tree = sample_embedded_cayley(steps, p, seed=101)
                digest.update(embedded_cayley_to_json(tree).encode())
                shape = sample_sary(steps, p, seed=202)
                digest.update(repr(shape._key()).encode())
    assert digest.hexdigest() == SAMPLES_SHA256


BIJECTION_STEP_SETS = [StepSet(s) for s in ([-1, 1], [-1, 0, 1], [0, 1],
                                            [-2, -1, 1], [-2, -1, 0, 1])]
BIJECTIONS_SHA256 = "368a872334cb6c648b5db1e197700a47c79b981ac688fce264bd56749e02ddfa"


def test_bijection_outputs_are_pinned():
    """Every (F)-function with n <= 4 over five step sets, and n = 5 for
    S = {-1, 1} (826 functions, every case A1 / A2 / A3 / B among them):
    the phi / psi traces, their trees and the inverses hash to a pinned
    digest, so a change to the bijections that alters an output shows here."""
    digest = hashlib.sha256()
    count = 0
    cases = set()
    for steps in BIJECTION_STEP_SETS:
        n_max = 5 if steps == StepSet([-1, 1]) else 4
        for p in profiles_up_to(n_max, nonneg=None if steps.m == -1 else True):
            general = p.ell < 0
            for f in enumerate_sfunctions(steps, p, "general" if general else "nonneg"):
                tree, trace = (psi_with_trace if general else phi_with_trace)(f)
                back = (psi_inverse if general else phi_inverse)(tree)
                cases.add(trace.get("case"))
                for text in (canonical_json(trace), marked_stree_to_json(tree),
                             sfunction_to_json(back)):
                    digest.update(text.encode() + b"\n")
                count += 1
    assert count == 826 and cases == {None, "A1", "A2", "A3", "B"}
    assert digest.hexdigest() == BIJECTIONS_SHA256


CENSUS_STEP_SETS = [StepSet(s) for s in ([-1, 1], [-1, 0, 1], [-2, -1, 1])]
CENSUS_SHA256 = "b6f9ea61d8f3fe1cff3ce0f861093de27363da4c8e9af78ed9b36c4df49fbdff"


def test_census_outputs_are_pinned():
    """Every oracle marked tree, (F)-function, embedded Cayley tree and S-ary
    tree with n <= 4 over three step sets: their type distributions, the
    complete type of every vertex and the S-ary shapes of the trees (or
    their rejection as not injective) hash to a pinned digest, so a change
    to the census that alters an output shows here."""
    digest = hashlib.sha256()
    count = 0
    for steps in CENSUS_STEP_SETS:
        for p in profiles_up_to(4, nonneg=None if steps.m == -1 else True):
            regime = "general" if p.ell < 0 else "nonneg"
            for obj in [*enumerate_marked_strees(steps, p, regime),
                        *enumerate_sfunctions(steps, p, regime),
                        *enumerate_embedded_cayley(steps, p),
                        *enumerate_sary(steps, p)]:
                dist = type_distribution_of(obj, m=steps.m)
                texts = [type_distribution_to_json(dist)]
                if not isinstance(obj, SAryTree):
                    verts = (range(1, obj.n + 1) if isinstance(obj, EmbeddedCayleyTree)
                             else obj.vertex_set.vertices())
                    texts += [repr(vertex_type(obj, v)) for v in verts]
                if not isinstance(obj, (SAryTree, SFunction)):
                    try:
                        texts.append(sary_to_json(sary_from_injective(obj)))
                    except NotInjective:
                        texts.append("not injective")
                for text in texts:
                    digest.update(text.encode() + b"\n")
                count += 1
    assert count == 3377
    assert digest.hexdigest() == CENSUS_SHA256


ENUMERATOR_STEP_SETS = [StepSet(s) for s in ([-1, 1], [-1, 0, 1], [0, 1],
                                             [-2, -1, 1])]
ENUMERATORS_SHA256 = "79f7f96793e329c009a994eb87e9b08025dfad0e797112ad2226c9cb34757e5c"
EMBEDDINGS = 9483


def test_enumerator_outputs_are_pinned():
    """Every embedded Cayley tree over every profile with n <= 5 for four step
    sets, and every embedding into the criterion-8 targets with n <= 5: the
    (root, parent, abscissa) triples hash, in yield order, to a pinned
    digest, so a change to the oracle that alters or reorders its output
    shows here."""
    digest = hashlib.sha256()

    def update(root, parent, abscissa):
        digest.update(repr((root, sorted(parent.items()),
                            sorted(abscissa.items()))).encode() + b"\n")

    for steps in ENUMERATOR_STEP_SETS:
        for n in range(1, 6):
            trees = 0
            for p in profiles_of_size(n):
                for t in enumerate_embedded_cayley(steps, p):
                    update(t.root, t.parent, t.abscissa)
                    trees += 1
            if steps.is_interval():  # no tree skips an abscissa
                assert trees == n ** (n - 1) * len(steps.steps) ** (n - 1)
    embeddings = 0
    for edges, root_node in ROOTED_TARGET_SHAPES:
        nodes = sorted({v for e in edges for v in e} | {root_node})
        for n in range(len(nodes), 6):
            for counts in compositions(n, len(nodes)):
                target = TargetTree.of(root_node, edges, dict(zip(nodes, counts)))
                for triple in enumerate_target_embeddings(target):
                    update(*triple)
                    embeddings += 1
    assert embeddings == EMBEDDINGS
    assert digest.hexdigest() == ENUMERATORS_SHA256


@pytest.mark.parametrize("steps", STEP_SETS, ids=str)
def test_phi_equals_phi2_after_phi1_near_one_thousand(steps):
    # phi hands its own input to the repair step; phi2 rebuilds it
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        f = sample_sfunction(steps, random_profile(rng, 1000, 6, False),
                             "nonneg", rng)
        assert phi(f) == phi2(phi1(f))


def test_psi_records_the_case_classify_case_finds():
    cases = set()
    for steps in STEP_SETS:
        for seed in range(1, 13):
            rng = random.Random(seed)
            f = sample_sfunction(steps, random_profile(rng, 1000, 6, True),
                                 "general", rng)
            case = psi_with_trace(f)[1]["case"]
            assert case == classify_case(f)
            cases.add(case)
    assert cases == {"A1", "A2", "A3", "B"}


OPTIMIZED_SCRIPT = """
from embtrees import Profile, StepSet, sample_embedded_cayley, sample_sary
if __debug__:
    raise SystemExit("asserts are on")
steps = StepSet([-1, 0, 1])
for counts in ([2, 3, 2, 1, 2, 2, 3, 1] * 25, [300, 450, 500, 420, 330]):
    for ell in (0, -(len(counts) // 3)):
        p = Profile(counts, ell=ell)
        for sample in (sample_embedded_cayley(steps, p, seed=1),
                       sample_sary(steps, p, seed=2)):
            if sample.profile() != p:
                raise SystemExit(f"profile {sample.profile()} != {p}")
print("ok")
"""


def test_samplers_under_python_O():
    """With asserts stripped (python -O) the samplers still return trees of
    the requested profile: no assert block does work they depend on."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
