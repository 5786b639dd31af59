"""Exact-arithmetic laboratory for Markoff-like surfaces over prime fields.

The surface x1^2 + x2^2 + x3^2 + a1 x2 x3 + a2 x1 x3 + a3 x1 x2
= s x1 x2 x3 with s = 3 + a1 + a2 + a3 carries three involutive moves,
one per coordinate.  This package enumerates all solutions mod p,
computes orbits under the moves, certifies that orbit sizes are
divisible by p where that is a theorem, and verifies the solution-count
and orbit-splitting formulas against brute force.
"""

from .conics import (ConicParams, cayley_membership, classify_and_count,
                     closed_form_total, fiber_conic, total_via_fibers)
from .delta import (DeltaAssignment, NoConsistentExtension, build_certificate,
                    delta_values, verify_certificate)
from .enumeration import (SolutionSet, count_solutions_bruteforce,
                          enumerate_solutions)
from .field import PrimeField, chi, is_prime, mult_order, prime_field
from .obstruction import (class_label, degenerate_label, perfect_square_check,
                          special_form_detect, verify_breakup)
from .orbits import (OrbitPartition, compute_orbits, size_table,
                     verify_divisibility)
from .special_cases import (lambda_order, markoff_p3, orbit_table_22m2,
                            orbits_00_minus3, tiny_orbits_22m2)
from .surface import (SurfaceParams, apply_move, classify_parameters,
                      on_surface, rescale, residual, u_coords, u_move,
                      u_move_equivariance)

__version__ = "0.1.0"

__all__ = [
    "ConicParams", "DeltaAssignment", "NoConsistentExtension", "OrbitPartition",
    "PrimeField", "SolutionSet", "SurfaceParams", "apply_move",
    "build_certificate", "cayley_membership", "chi", "class_label",
    "classify_and_count", "classify_parameters", "closed_form_total",
    "compute_orbits", "count_solutions_bruteforce", "degenerate_label",
    "delta_values", "enumerate_solutions", "fiber_conic", "is_prime",
    "lambda_order", "markoff_p3", "mult_order", "on_surface",
    "orbit_table_22m2", "orbits_00_minus3", "perfect_square_check",
    "prime_field", "rescale", "residual", "size_table", "special_form_detect",
    "tiny_orbits_22m2", "total_via_fibers", "u_coords", "u_move",
    "u_move_equivariance", "verify_breakup", "verify_certificate",
    "verify_divisibility",
]
