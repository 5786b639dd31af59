#!/usr/bin/env python3
# How many points does a Markoff-like surface have over F_p?
#
# The answer is p^2 + n*p with |n| <= 3, and n is readable off the
# parameters: the three quadratic characters chi(a_i^2 - 4) plus a
# correction supported on Cayley's cubic a1^2+a2^2+a3^2 = a1a2a3 + 4.
# This script compares the closed form against two independent counts.

from markoff import (SurfaceParams, cayley_membership, closed_form_total,
                     count_solutions_bruteforce, enumerate_solutions,
                     total_via_fibers)
from markoff.field import chi

print("p=7, a=(1,1,1): every chi(a_i^2-4) = chi(-3) = chi(4) = 1")
params = SurfaceParams.make(7, (1, 1, 1))
print("  closed form:", closed_form_total(params))          # 49 + 7*3 = 70
print("  root-table count over the 7^2 cells:", count_solutions_bruteforce(params))
print("  summing conic fibers over x3:", total_via_fibers(params))
print("  materialised solution list:", len(enumerate_solutions(params)))
print()

# The correction term only fires on Cayley's cubic.
print("Cayley membership:")
for a in [(0, 0, 0), (2, 2, 2), (2, 3, 3), (3, 3, 3)]:
    print(f"  a={a}: on cubic = {cayley_membership(a, 13)}")
print()

# A parameter sweep mod 11: the count never strays from p^2 by more than 3p.
p = 11
print(f"counts across a sample of parameter sets mod {p}:")
for a in [(0, 0, 0), (1, 1, 1), (2, 4, 4), (2, 2, 2), (1, 5, 9), (2, 2, -2)]:
    params = SurfaceParams.make(p, a)
    total = closed_form_total(params)
    n = (total - p * p) // p
    chis = [chi(ai * ai - 4, p) for ai in params.a]
    print(f"  a={a}: total = {total} = p^2 {n:+d}p   (chi terms {chis},"
          f" cubic: {cayley_membership(params.a, p)})")
print()

# Away from s = 0 the formula is exact for every parameter choice; check
# all 5^3 parameter sets mod 5 against brute force.
mismatches = 0
for a1 in range(5):
    for a2 in range(5):
        for a3 in range(5):
            params = SurfaceParams.make(5, (a1, a2, a3))
            if params.s == 0:
                continue
            if closed_form_total(params) != count_solutions_bruteforce(params):
                mismatches += 1
print("exhaustive check mod 5 (s != 0):", "all counts agree"
      if mismatches == 0 else f"{mismatches} MISMATCHES")
