#!/usr/bin/env python3
# The divisibility certificate: three angle functions Delta_i.
#
# On solutions with no zero coordinate, Delta_i has a closed form; the
# functions satisfy Delta_1 + Delta_2 + Delta_3 = s pointwise and
# Delta_i(x) + Delta_i(m_i x) = s across every edge.  Summing over an
# orbit of size V gives s*V = (3/2) s*V, so s*V = 0 and p | V.
# On the plane x_i = 0 the two neighbouring values have a closed form of
# their own, in the two nonzero coordinates.

from markoff import (SurfaceParams, build_certificate, compute_orbits,
                     delta_values, enumerate_solutions, verify_certificate)
from markoff.delta import NoConsistentExtension

params = SurfaceParams.make(7, (1, 1, 1))
print(f"p=7, a=(1,1,1), s={params.s}")
print("closed form at (1,1,1):", delta_values(params, (1, 1, 1)),
      " (sums to s)")
print()

# The plane x1 = 0 is a pair of lines x3 = r x2 with r^2 + a_1 r + 1 = 0.
# There Delta_1 keeps its closed form and, for {j, k} = {2, 3},
#   Delta_j = s/2 + (2a_j - a_1 a_k) x_j / (2(x_k^2 - x_j^2)).
sol = enumerate_solutions(params)
assign = build_certificate(sol)
plane = [x for x in sol.iter_triples() if x[0] == 0]
print(f"plane x1=0: {len(plane)} points")
for x in plane:
    print(f"  {x} -> {assign.at(x)}")
print()

# Full certificate mod 13 for a special-form parameter set.
params = SurfaceParams.make(13, (2, 5, 5))
sol = enumerate_solutions(params)
part = compute_orbits(sol)
assign = build_certificate(sol)
report = verify_certificate(assign, part)
print(f"p=13, a=(2,5,5): certificate over {report.n_points} points,"
      f" {report.n_fixed_edges} fixed edges")
for size, rep in part.orbits:
    print(f"  orbit of size {size} (rep {rep}):"
          f" size mod p = {size % 13}")
print()

# Where the theorem's hypothesis fails, no consistent assignment exists:
# a double fixed point with x_i = 0 forces Delta_i = 0, which is false.
params = SurfaceParams.make(13, (2, 2, -2))
try:
    build_certificate(enumerate_solutions(params))
except NoConsistentExtension as exc:
    print(f"a=(2,2,-2): {exc}")
