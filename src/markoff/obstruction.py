"""Quadratic-character obstructions that split the solution set into orbits.

For parameters of the shape (2*sigma, alpha, alpha*sigma) the product
x_i * x_i' of a coordinate with its move image is a perfect square, so
the character of x_i cannot flip sign under m_i.  Together with a second
square identity this yields move-closed character classes, hence at
least two orbits, and at least four in the doubly degenerate case
alpha = +-2.  All identities live on the surface rescaled to s = 1.

Each label is written once, as a function of the coordinate columns
x[0..2] of a batch of solutions: _generic_characters and
_sign_patterns.  class_label and degenerate_label evaluate it on one
point; verify_breakup tallies it over the whole solution set, one block
of SolutionSet.blocks at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .enumeration import enumerate_solutions
from .field import chi
from .orbits import compute_orbits
from .surface import (SurfaceParams, Triple, apply_move, moved_coordinate, on_surface,
                      rescale)
from .surface import special_form_detect  # re-exported: same convention as classify

NON_NEG = "non-negative"
NON_POS = "non-positive"
AMBIGUOUS = "ambiguous"
# kind of a generic label by the sign of chi_coord + chi_companion, in report order
_KIND_BY_SIGN = {1: NON_NEG, -1: NON_POS, 0: AMBIGUOUS}

# the four admissible sign patterns (product +1) in the degenerate case
SIGN_PATTERNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


class CertificateViolation(AssertionError):
    """An identity the theory guarantees failed on concrete data."""


def _require_special_form(params: SurfaceParams) -> tuple[int, int, int]:
    sf = special_form_detect(params)
    if sf is None:
        raise ValueError(f"{params} is not of the shape (2*sigma, alpha, alpha*sigma)")
    if params.s == 0:
        raise ValueError("obstruction labels need s != 0 (cannot rescale to s = 1)")
    return sf


@dataclass(frozen=True)
class ClassLabel:
    """Move-invariant label from the pair of obstruction characters."""

    kind: str             # NON_NEG, NON_POS or AMBIGUOUS
    chi_coord: int        # chi(y_i)
    chi_companion: int    # chi(y_i + y_i' + 2 y_{i+1} + 2 sigma y_{i-1})

    @property
    def in_non_negative(self) -> bool:
        return self.chi_coord >= 0 and self.chi_companion >= 0

    @property
    def in_non_positive(self) -> bool:
        return self.chi_coord <= 0 and self.chi_companion <= 0


def class_label(params: SurfaceParams, x: Triple) -> ClassLabel:
    """Label a solution by the signs of the two obstruction characters.

    One row of _generic_characters; the kind is the sign of their sum.
    """
    i, sigma, _alpha = _require_special_form(params)
    if not on_surface(params, x):
        raise ValueError(f"{x} is not on the surface")
    c1, c2 = (int(c[0]) for c in _generic_characters(params, _one_point(params, x), i, sigma))
    return ClassLabel(_KIND_BY_SIGN[int(np.sign(c1 + c2))], c1, c2)


def degenerate_label(params: SurfaceParams, x: Triple) -> tuple[int, int, int]:
    """Sign pattern (e1, e2, e3) with product +1 in the alpha = +-2 case.

    One row of _sign_patterns.
    """
    _i, _sigma, alpha = _require_special_form(params)
    if (alpha * alpha - 4) % params.p != 0:
        raise ValueError("degenerate label needs alpha = +-2")
    if not on_surface(params, x):
        raise ValueError(f"{x} is not on the surface")
    return tuple(int(e[0]) for e in _sign_patterns(params, _one_point(params, x)))


def _one_point(params: SurfaceParams, x: Triple) -> np.ndarray:
    """The (3, 1) int64 coordinate columns of one point."""
    return np.array([[int(v) % params.p] for v in x], dtype=np.int64)


def _first_point(x, bad: np.ndarray) -> Triple:
    k = np.flatnonzero(bad)[0]
    return tuple(int(col[k]) for col in x)


def _generic_characters(params: SurfaceParams, x, i: int,
                        sigma: int) -> tuple[np.ndarray, np.ndarray]:
    """(chi(y_i), chi(y_i + y_i' + 2 y_{i+1} + 2 sigma y_{i-1})) per point, y = s*x.

    x[0..2] are the int64 coordinate columns of solutions in [0, p), as
    SolutionSet.blocks yields them, and y_i' is m_i of y on the s = 1
    surface.  The two characters can both vanish and can share a sign,
    but are never strictly opposite; that is the content of the
    obstruction, and an opposite pair raises CertificateViolation.
    """
    p = params.p
    chi_table = params.field.chi_table
    im1, ip1 = (i - 1) % 3, (i + 1) % 3
    y = [params.s * col % p for col in x]
    unit_params = SurfaceParams(params.field, params.a, 1 % p)
    y_moved = moved_coordinate(unit_params, y, i)
    companion = (y[i] + y_moved + 2 * y[ip1] + 2 * sigma * y[im1]) % p
    c1 = chi_table[y[i]]
    c2 = chi_table[companion]
    opposite = c1 * c2 == -1
    if bool(opposite.any()):
        raise CertificateViolation(
            f"strictly opposite obstruction characters at {_first_point(x, opposite)}")
    return c1, c2


def _sign_patterns(params: SurfaceParams, x) -> np.ndarray:
    """(3, N) sign patterns with product +1, one column per solution, alpha = +-2.

    x[0..2] are the int64 coordinate columns of the solutions.  On the
    rescaled surface the equation is a perfect square equal to
    y1*y2*y3, so the character product of the coordinates is never -1.
    Nonzero characters force their sign; a vanished one is absorbed so
    that the product is +1.  Each solution satisfies exactly one of the
    four patterns and every move preserves it.
    """
    chars = np.stack([params.field.chi_table[params.s * col % params.p] for col in x])
    zero = chars == 0
    zero_counts = zero.sum(axis=0)
    if bool((zero_counts > 1).any()):
        raise CertificateViolation("two vanishing coordinates off the origin at "
                                   f"{_first_point(x, zero_counts > 1)}")
    prod = np.where(zero, 1, chars).prod(axis=0)
    negative = (zero_counts == 0) & (prod == -1)
    if bool(negative.any()):
        raise CertificateViolation(f"character product -1 at {_first_point(x, negative)}")
    return np.where(zero, prod, chars)  # the unique completion with product +1


def perfect_square_check(params: SurfaceParams, x: Triple) -> bool:
    """Verify the square identities behind move-invariance of the labels.

    On the s = 1 surface with a_i = 2*sigma, a_{i+1} = alpha,
    a_{i-1} = alpha*sigma, the product of
    L = y_{i-1}y_{i+1} - sigma(alpha-2)y_{i+1} - (alpha-2)y_{i-1}
    with its m_{i+1} image is the square of
    y_{i-1}^2 + y_{i-1}y_i - sigma(alpha-2)y_i.  The mirrored identity
    for m_{i-1} is the same statement after swapping i+1 with i-1 and
    replacing alpha by alpha*sigma.
    """
    i, sigma, alpha = _require_special_form(params)
    p = params.p
    unit_params, y = rescale(params, x, params.s)
    im1, ip1 = (i - 1) % 3, (i + 1) % 3
    ok_direct = _square_identity(unit_params, y, i, im1, ip1, sigma, alpha)
    ok_mirror = _square_identity(unit_params, y, i, ip1, im1, sigma, alpha * sigma % p)
    return ok_direct and ok_mirror


def _square_identity(unit_params, y, i, side, moved, sigma, alpha) -> bool:
    """L(y_side, y_moved) * L(y_side, y_moved') == (y_side^2 + y_side*y_i - sigma*c*y_i)^2."""
    p = unit_params.p
    c = (alpha - 2) % p
    y_new = apply_move(unit_params, y, moved)[moved]
    lhs1 = (y[side] * y[moved] - sigma * c * y[moved] - c * y[side]) % p
    lhs2 = (y[side] * y_new - sigma * c * y_new - c * y[side]) % p
    rhs = (y[side] * y[side] + y[side] * y[i] - sigma * c * y[i]) % p
    return (lhs1 * lhs2 - rhs * rhs) % p == 0


@dataclass
class BreakupReport:
    """Orbit-splitting verdict for one special-form parameter set."""

    params: SurfaceParams
    form: tuple[int, int, int]            # (i, sigma, alpha)
    degenerate: bool                      # alpha^2 = 4
    orbit_sizes: list[int]
    min_orbits: int                       # 2, or 4 when degenerate
    bound_holds: bool
    class_sizes: dict[str, int]
    conjectured_sizes: list[int]
    conjecture_matched: bool


def verify_breakup(params: SurfaceParams) -> BreakupReport:
    """Count orbits, check the lower bound, and compare the suspected partition.

    The >= 2 (resp. >= 4) orbit bound is a theorem and is asserted by
    the caller's tests; the exact size partitions are conjectural and
    only reported.
    """
    i, sigma, alpha = _require_special_form(params)
    p = params.p
    if p < 5:
        raise ValueError("breakup verdict needs p >= 5")
    degenerate = (alpha * alpha - 4) % p == 0
    sol = enumerate_solutions(params)
    sizes = sorted(compute_orbits(sol).orbit_sizes())

    if degenerate:
        tally = np.zeros(4, dtype=np.int64)
        for _, x in sol.blocks():
            eps = _sign_patterns(params, x)
            # e3 = e1*e2, and SIGN_PATTERNS lists (e1, e2) in binary order of e < 0
            tally += np.bincount(2 * (eps[0] < 0) + (eps[1] < 0), minlength=4)
        class_sizes = {"".join("+" if e > 0 else "-" for e in pattern): int(n)
                       for pattern, n in zip(SIGN_PATTERNS, tally)}
        chm1 = chi(-1, p)
        conj = sorted([p * (p + 3 * chm1) // 4] + [p * (p - chm1) // 4] * 3)
        min_orbits = 4
    else:
        tally = np.zeros(3, dtype=np.int64)  # points per sign -1, 0, +1
        for _, x in sol.blocks():
            c1, c2 = _generic_characters(params, x, i, sigma)
            tally += np.bincount(np.sign(c1 + c2) + 1, minlength=3)
        class_sizes = {kind: int(tally[sign + 1]) for sign, kind in _KIND_BY_SIGN.items()}
        ch = chi(alpha * alpha - 4, p)
        conj = sorted([p * (p - ch) // 2, p * (p + 3 * ch) // 2])
        min_orbits = 2
    return BreakupReport(
        params=params,
        form=(i, sigma, alpha),
        degenerate=degenerate,
        orbit_sizes=sizes,
        min_orbits=min_orbits,
        bound_holds=len(sizes) >= min_orbits,
        class_sizes=class_sizes,
        conjectured_sizes=conj,
        conjecture_matched=sizes == conj,
    )


def breakup_report_dict(report: BreakupReport) -> dict:
    """JSON-ready orbit-splitting report."""
    i, sigma, alpha = report.form
    return {
        "prime": report.params.p,
        "params": list(report.params.a),
        "form": {"i": i, "sigma": sigma, "alpha": alpha},
        "degenerate": report.degenerate,
        "orbit_count": len(report.orbit_sizes),
        "orbit_sizes": report.orbit_sizes,
        "min_orbits": report.min_orbits,
        "bound_holds": report.bound_holds,
        "class_sizes": report.class_sizes,
        "conjectured_sizes": report.conjectured_sizes,
        "conjecture_partition_matched": report.conjecture_matched,
    }
