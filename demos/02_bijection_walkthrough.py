#!/usr/bin/env python3
"""Walking through the function-to-tree bijections.

The counting formulas come from bijections between tree-shaped objects and
functions whose spine images are pinned down.  This script applies the
non-negative bijection to a function with a 0 step (so the subtree-swapping
repair stage actually fires), prints the staged trace, and round-trips a
general-regime function through each of the four cases.
"""

import json

from embtrees import (
    Profile,
    StepSet,
    classify_case,
    enumerate_sfunctions,
    phi_inverse,
    phi_with_trace,
    psi_inverse,
    psi_with_trace,
    type_distribution_of,
)

print("=== non-negative regime ===")
S = StepSet([0, 1])
p = Profile.parse("3,1")
# pick a function whose repair stage is nontrivial
chosen = None
for f in enumerate_sfunctions(S, p):
    tree, trace = phi_with_trace(f)
    if trace["frustration"]:
        chosen = (f, tree, trace)
        break
f, tree, trace = chosen
print("function:", {str(v): str(w) for v, w in sorted(f.image.items())})
print("pieces (decreasing sources):")
for piece in trace["pieces"]:
    print("   source", piece["source"], "sink", piece["sink"], "path", piece["path"])
print("frustrated sources:", json.dumps(trace["frustration"]))
print("tree:", {str(v): str(w) for v, w in sorted(tree.parent.items())},
      "mark", tree.mark)
print("round trip ok:", phi_inverse(tree) == f)
print("in-type census preserved:",
      type_distribution_of(f).in_key() == type_distribution_of(tree).in_key())

print()
print("=== general regime: the four cases ===")
S = StepSet([-1, 0, 1])
p = Profile.parse("1;2,1")
seen = {}
for f in enumerate_sfunctions(S, p):
    case = classify_case(f)
    if case not in seen:
        seen[case] = f
for case in sorted(seen):
    f = seen[case]
    tree, trace = psi_with_trace(f)
    back = psi_inverse(tree)
    print(f"case {case}: v0 = {trace['v0']}, root {tree.root}, mark {tree.mark},"
          f" round trip {'ok' if back == f else 'BROKEN'}")
