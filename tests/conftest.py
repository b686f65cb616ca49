"""Shared generators for the test suite."""

from __future__ import annotations

import itertools

from embtrees import Profile, StepSet

# every step set inside {-2,-1,0,1} containing the mandatory step 1
ALL_STEP_SETS = [
    StepSet(sorted(set(extra) | {1}))
    for k in range(4)
    for extra in itertools.combinations([-2, -1, 0], k)
]

# the criterion-8 targets: every rooted tree on up to 4 nodes, as (edges, root)
# up to rooted isomorphism, nodes labeled 0..k-1
ROOTED_TARGET_SHAPES = [
    ((), 0),                                  # point
    (((0, 1),), 0),                           # edge
    (((0, 1), (1, 2)), 0),                    # path, end root
    (((0, 1), (1, 2)), 1),                    # path, middle root
    (((0, 1), (1, 2), (2, 3)), 0),            # path-4, end root
    (((0, 1), (1, 2), (2, 3)), 1),            # path-4, inner root
    (((0, 1), (0, 2), (0, 3)), 0),            # star, center root
    (((0, 1), (0, 2), (0, 3)), 1),            # star, leaf root
]


def compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def profiles_of_size(n: int, nonneg: bool | None = None):
    """All profiles of total size n; nonneg=True keeps ell = 0, False ell < 0."""
    for k in range(1, n + 1):
        for counts in compositions(n, k):
            lo = 0 if nonneg else -(k - 1)
            hi = -1 if nonneg is False else 0
            for ell in range(lo, hi + 1):
                yield Profile(counts, ell=ell)


def profiles_up_to(n_max: int, nonneg: bool | None = None):
    for n in range(1, n_max + 1):
        yield from profiles_of_size(n, nonneg)
