"""Property tests at sizes the oracle cannot reach: bijection round trips with
census preservation near n = 10^3, and both samplers near n = 10^4."""

import random

import pytest

from embtrees import (
    Profile,
    SAryTree,
    StepSet,
    equivalent,
    phi,
    phi_inverse,
    psi,
    psi_inverse,
    sample_embedded_cayley,
    sample_sary,
    sample_sfunction,
    shape_key,
    type_distribution_of,
)

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
