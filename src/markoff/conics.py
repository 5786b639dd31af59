"""Conic fibers of the surface and the closed-form solution count.

A slice of the surface with one coordinate fixed is a conic
x^2 + Bxy + y^2 + Dx + Ey + F = 0 in the other two.  Classifying these
conics gives the total number of surface points in closed form, with a
correction term supported on Cayley's cubic a1^2+a2^2+a3^2 = a1a2a3 + 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .enumeration import DEFAULT_MAX_PRIME, ResourceGuardError, cell_slabs
from .field import chi, validate_odd_prime
from .surface import SurfaceParams, special_form_detect

# conic classes and their exact point counts
ELLIPSE = "ellipse"                     # p + 1
HYPERBOLA = "hyperbola"                 # p - 1
PARABOLA = "parabola"                   # p
INTERSECTING_LINES = "intersecting-lines"  # 2p - 1
SINGLE_POINT = "single-point"           # 1
DOUBLE_LINE = "double-line"             # p
PARALLEL_LINES = "parallel-lines"       # 2p
EMPTY = "empty"                         # 0


@dataclass(frozen=True)
class ConicParams:
    """x^2 + Bxy + y^2 + Dx + Ey + F = 0 over F_p."""

    p: int
    B: int
    D: int
    E: int
    F: int

    @classmethod
    def make(cls, p: int, B: int, D: int, E: int, F: int) -> "ConicParams":
        p = int(p)
        return cls(p, int(B) % p, int(D) % p, int(E) % p, int(F) % p)


def fiber_conic(params: SurfaceParams, i: int, xi: int) -> ConicParams:
    """The conic cut out by fixing coordinate i to xi, in variables (x_{i-1}, x_{i+1})."""
    p = params.p
    a = params.a
    xi %= p
    im1, ip1 = (i - 1) % 3, (i + 1) % 3
    return ConicParams.make(p,
                            B=a[i] - params.s * xi,
                            D=a[ip1] * xi,
                            E=a[im1] * xi,
                            F=xi * xi)


def degeneracy_quantity(c: ConicParams) -> int:
    """D^2 + E^2 + F*B^2 - 4F - BDE; zero iff the conic degenerates to lines."""
    p = c.p
    return (c.D * c.D + c.E * c.E + c.F * c.B * c.B - 4 * c.F - c.B * c.D * c.E) % p


def classify_and_count(c: ConicParams) -> tuple[str, int]:
    """Conic class and its exact number of F_p points (p odd).

    Completing the square reduces everything to the quadratic characters
    of B^2 - 4 and, in the doubly degenerate branch, D^2 - 4F.
    """
    p = validate_odd_prime(c.p)

    b2m4 = (c.B * c.B - 4) % p
    if b2m4 != 0:
        smooth = degeneracy_quantity(c) != 0
        ch = chi(b2m4, p)
        if smooth:
            return (HYPERBOLA, p - 1) if ch == 1 else (ELLIPSE, p + 1)
        return (INTERSECTING_LINES, 2 * p - 1) if ch == 1 else (SINGLE_POINT, 1)
    # B^2 = 4: parabola unless the linear term in y also cancels
    half_b = c.B * pow(2, -1, p) % p
    if (c.E - half_b * c.D) % p != 0:
        return PARABOLA, p
    ch = chi(c.D * c.D - 4 * c.F, p)
    if ch == 0:
        return DOUBLE_LINE, p
    return (PARALLEL_LINES, 2 * p) if ch == 1 else (EMPTY, 0)


def count_conic_bruteforce(c: ConicParams) -> int:
    """Independent pair count over the full (x, y) grid, one slab of cell_slabs(p) at a time.

    Like count_solutions_bruteforce it refuses p above DEFAULT_MAX_PRIME
    with ResourceGuardError before allocating anything.
    """
    p = c.p
    if p > DEFAULT_MAX_PRIME:
        raise ResourceGuardError(
            f"p = {p} exceeds the brute-force guard {DEFAULT_MAX_PRIME} ({p}^2-point grid)")
    y = np.arange(p, dtype=np.int64)
    total = 0
    for start, stop in cell_slabs(p):
        x = np.arange(start, stop, dtype=np.int64)[:, None]
        r = (x * x + c.B * x * y + y * y + c.D * x + c.E * y + c.F) % p
        total += int(np.count_nonzero(r == 0))
    return total


def cayley_membership(a: tuple[int, int, int], p: int) -> bool:
    """True iff a1^2 + a2^2 + a3^2 = a1*a2*a3 + 4 in F_p."""
    a1, a2, a3 = a
    return (a1 * a1 + a2 * a2 + a3 * a3 - a1 * a2 * a3 - 4) % p == 0


def cayley_correction(params: SurfaceParams) -> int:
    """The correction C(a1, a2, a3) in {-1, 0, 1} to the solution count.

    Zero off Cayley's cubic; -chi(alpha^2 - 4) for parameters of the
    shape (2*sigma, alpha, alpha*sigma) up to rotation; else minus the
    product of the three chi(a_i^2 - 4).
    """
    p = params.p
    if not cayley_membership(params.a, p):
        return 0
    sf = special_form_detect(params)
    if sf is not None:
        _, _, alpha = sf
        return -chi(alpha * alpha - 4, p)
    prod = 1
    for ai in params.a:
        prod *= chi(ai * ai - 4, p)
    return -prod


def closed_form_total(params: SurfaceParams) -> int:
    """Number of solutions excluding (0,0,0): p^2 + p*(sum_i chi(a_i^2-4) + C).

    Requires s != 0 (the proof changes variables from the slice value to
    B = a_i - s*x_i) and p >= 5.
    """
    p = params.p
    if p < 5:
        raise ValueError("closed-form count needs p >= 5")
    if params.s == 0:
        raise ValueError("closed-form count needs s != 0")
    chi_sum = sum(chi(ai * ai - 4, p) for ai in params.a)
    return p * p + p * (chi_sum + cayley_correction(params))


def total_via_fibers(params: SurfaceParams, i: int = 2) -> int:
    """Cross-check: sum of conic counts over all slices, minus the origin."""
    p = validate_odd_prime(params.p)
    total = 0
    for xi in range(p):
        total += classify_and_count(fiber_conic(params, i, xi))[1]
    return total - 1
