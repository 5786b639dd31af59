#!/usr/bin/env python3
# Two families where p-divisibility of orbit sizes genuinely fails.
#
# a = (2, 2, -2): the companion condition fails at every degenerate
# index, and tiny orbits (sizes 1, 2, 4) exist for every prime, cut out
# by double fixed points.  a = (0, 0, -3): s = 0, the moves become
# linear maps, and orbit counts follow from a Burnside average over a
# dihedral matrix group.

from markoff import (SurfaceParams, lambda_order, markoff_p3,
                     orbit_table_22m2, orbits_00_minus3, tiny_orbits_22m2)
from markoff.special_cases import table_csv

print("orbit tables for a = (2, 2, -2):")
rows = orbit_table_22m2(23)
print(table_csv(rows))

print("the three kinds of tiny orbit, mod 13:")
report = tiny_orbits_22m2(SurfaceParams.make(13, (2, 2, -2)))
for t in report.singletons:
    print(f"  singleton {t.points[0]} (fixed by all three moves)")
for t in report.barbells:
    left, i, right = t.edges[0]
    print(f"  barbell {left} --m{i+1}-- {right}")
for t in report.tripods:
    center = t.points[0]
    leaves = ", ".join(str(pt) for pt in t.points[1:])
    print(f"  tripod centred at {center} with leaves {leaves}")
print(f"  all move graphs verified: {report.all_verified()}")
print()

print("the linear family a = (0, 0, -3):")
for p in (11, 13, 89):
    rep = orbits_00_minus3(p)
    print(f"  p={p}: sqrt(5) in F_p: {rep.sqrt5_in_fp},"
          f" ord(lambda)={rep.lambda_order}")
    print(f"    slice x3=1: {rep.conic1_orbits} orbits of sizes"
          f" {rep.conic1_sizes} (Burnside: {rep.burnside_conic1},"
          f" orbit engine: {rep.bfs_conic1})")
    print(f"    slice x3=0: {rep.conic0_orbits} orbits")
assert lambda_order(89) == (True, 11)
print()

print("p = 3 Markoff surface:")
rep = markoff_p3()
print(f"  {rep.n_points} nonzero solutions, orbit multiset {rep.multiset}")
print(f"  moves are coordinate negations: {rep.is_cube};"
      f" move graph is the 3-cube: {rep.is_cube}")
