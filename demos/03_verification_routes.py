#!/usr/bin/env python3
"""Three independent roads to the same numbers.

Every count in this library can be reached three ways: the closed-form
product, naive enumeration, and linear algebra (signed cycle-configuration
sums / exact matrix-tree determinants).  This script runs all three on small
inputs, including the weighted versions, and shows a case where the closed
form provably does NOT apply, and the general count that does.
"""

import random

from embtrees import (
    CycleGraph,
    Profile,
    StepSet,
    TargetTree,
    cayley_from_spanning,
    closed_P,
    count_cayley_profile,
    count_tree_in_tree,
    count_tree_in_tree_oracle,
    enumerate_embedded_cayley,
    eval_P,
    laplacian_minor_det,
    spanning_trees_direct,
    tree_in_tree_det,
)

pm = StepSet([-1, 1])
p = Profile.parse("2;2,1")

print("=== three routes to 720 ===")
print("product formula:       ", count_cayley_profile(pm, p))
print("naive enumeration:     ", sum(1 for _ in enumerate_embedded_cayley(pm, p)))
print("matrix-tree conversion:", cayley_from_spanning(p, pm))
print("   (Laplacian minor at 0^2 =", laplacian_minor_det(p, pm),
      "= direct spanning enumeration", spanning_trees_direct(p, pm), ")")

print()
print("=== the cycle-configuration identity ===")
rng = random.Random(1)
g = CycleGraph(-2, 3, pm)
y = {i: rng.randint(1, 30) for i in range(-2, 4)}
print("random point y:", y)
print("signed configuration sum:", eval_P(g, y))
print("closed form:             ", closed_P(g, y))

print()
print("=== where the hypotheses bite ===")
bad = CycleGraph(-1, 1, StepSet([-2, -1, 1]))
y = {-1: 1, 0: 1, 1: 1}
print("S = {-2,-1,1}, ell < 0: sum =", eval_P(bad, y),
      "but the closed form would give", closed_P(bad, y))
s221 = StepSet([-2, -1, 1])
q = Profile.parse("1,2,1;1")
print("the general count there, profile", q, ":", count_cayley_profile(s221, q),
      "= naive enumeration", sum(1 for _ in enumerate_embedded_cayley(s221, q)))

print()
print("=== trees embedded in trees ===")
star = TargetTree.of(0, [(0, 1), (0, 2), (0, 3)], {0: 2, 1: 1, 2: 1, 3: 1})
print("star target, counts (2;1,1,1):")
print("  product formula:", count_tree_in_tree(star))
print("  matrix-tree:    ", tree_in_tree_det(star))
print("  brute force:    ", count_tree_in_tree_oracle(star))
