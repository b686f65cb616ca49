#!/usr/bin/env python3
"""Uniform random embedded trees and the exact occupation-measure law.

The profile of a uniform random binary tree, normalized, converges to the
integrated superbrownian excursion; at finite n its law is exactly the
profile-count formula divided by the Catalan number.  This script prints the
exact law for n = 12, the marginal occupation distribution at a few
abscissas, draws uniform samples, and times a large draw.
"""

import time
from fractions import Fraction

from embtrees import (
    Profile,
    StepSet,
    occupation_marginal,
    profile_law,
    sample_embedded_cayley,
    sample_sary,
)
from embtrees.core import sary_to_json

print("=== exact profile law, uniform binary tree, n = 12 ===")
law = profile_law(12, "binary")
print(f"{law.total} binary trees across {len(law.masses)} profiles")
top = sorted(law.masses, key=lambda kv: -kv[1])[:5]
for (ell, counts), prob in top:
    print(f"  P[profile = {Profile(counts, ell=ell)}] = {prob} "
          f"~ {float(prob):.4f}")

print()
print("marginal occupation counts (exact):")
for i in (0, 1, 3):
    marg = occupation_marginal(law, i)
    mean = sum(Fraction(k) * v for k, v in marg.items())
    print(f"  abscissa {i}: E[n_i] = {mean} ~ {float(mean):.3f}")

print()
print("=== uniform samples ===")
pm = StepSet([-1, 1])
p = Profile.parse("2;2,1")
for seed in (1, 2, 3):
    t = sample_embedded_cayley(pm, p, seed=seed)
    print(f"seed {seed}: parents {t.parent}, abscissas {t.abscissa}")
shape = sample_sary(pm, p, seed=1)
print("an S-ary sample:", sary_to_json(shape))

print()
print("=== a large draw ===")
n_half = 50_000
big = Profile([n_half, n_half], ell=-1)
t0 = time.time()
tree = sample_embedded_cayley(pm, big, seed=42)
print(f"sampled a uniform embedded tree with n = {big.n:,} "
      f"in {time.time() - t0:.2f}s")
