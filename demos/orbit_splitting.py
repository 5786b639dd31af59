#!/usr/bin/env python3
# Quadratic obstructions: why some surfaces have several orbits.
#
# For parameters (2*sigma, alpha, alpha*sigma) the product x_i * x_i' is
# a perfect square, so no move can flip the character chi(x_i) from
# square to non-square.  The resulting move-closed classes force at
# least two orbits, and at least four when alpha = +-2.

from collections import Counter

from markoff import (SurfaceParams, enumerate_solutions, labels,
                     perfect_square_check, special_form_detect, verify_breakup)

params = SurfaceParams.make(7, (2, 3, 3))
print("a=(2,3,3) mod 7 ->", special_form_detect(params),
      "(index, sigma, alpha)")

# one class index per solution, in lexicographic order of the solutions
sol = enumerate_solutions(params)
names, index = labels(sol)
classes = Counter(names[k] for k in index.tolist())
print("character classes:", dict(classes))

report = verify_breakup(params)
print(f"orbit sizes {report.orbit_sizes}, conjectured"
      f" {report.conjectured_sizes}, matched={report.conjecture_matched}")
print()

# The identity behind move-invariance, checked on every solution.
assert all(perfect_square_check(params, x) for x in sol.iter_triples())
print("perfect-square identity holds on all", len(sol), "points")
print()

# The four degenerate parameter values split into four classes given by
# sign patterns with product +1.
for p in (5, 13):
    params = SurfaceParams.make(p, (2, 2, 2))
    names, index = labels(enumerate_solutions(params))
    report = verify_breakup(params)
    print(f"a=(2,2,2) mod {p}:")
    # the names run (+++, +--, -+-, --+); print them in the reverse order
    for k, count in sorted(Counter(index.tolist()).items(), reverse=True):
        print(f"  sign pattern {names[k]}: {count} points")
    print(f"  orbit sizes {report.orbit_sizes}"
          f" (>= {report.min_orbits} orbits is a theorem;"
          f" the exact partition matched: {report.conjecture_matched})")
