"""Quadratic-character obstructions that split the solution set into orbits.

For parameters of the shape (2*sigma, alpha, alpha*sigma) the product
x_i * x_i' of a coordinate with its move image is a perfect square, so
the character of x_i cannot flip sign under m_i.  Together with a second
square identity this yields move-closed character classes, hence at
least two orbits, and at least four in the doubly degenerate case
alpha = +-2.  All identities live on the surface rescaled to s = 1, and
each is written once, on ints or coordinate columns x[0..2] alike.

labels gives every row of a SolutionSet its class index, one block of
SolutionSet.blocks at a time, and verify_breakup tallies them.  The
classes read the characters of y = s*x on the s = 1 surface: chi(y_i)
and chi(y_i + y_i' + 2 y_{i+1} + 2 sigma y_{i-1}) for a generic form,
y_i' the m_i image, and chi(y_0), chi(y_1), chi(y_2) for alpha = +-2.
By the root sum of y_i and y_i' that companion is s times
s x_{i-1} x_{i+1} + (2 sigma - alpha) x_{i-1} + (2 - alpha sigma) x_{i+1},
free of x_i, so no move is made.  Each character is a table read at
x (_scaled_characters), and their balanced-ternary code is classed by
one int8 table per character count, built once from the rule
_generic_class or _pattern_class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .enumeration import SolutionSet, enumerate_solutions
from .field import chi, mod_p
from .orbits import compute_orbits, require_complete
from .surface import SurfaceParams, Triple, moved_coordinate, rescale, special_form_detect

NON_NEG = "non-negative"
NON_POS = "non-positive"
AMBIGUOUS = "ambiguous"

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


def labels(sol: SolutionSet) -> tuple[tuple[str, ...], np.ndarray]:
    """(names, index): the class names in report order and each row's int8 class index.

    For a generic form the names are (NON_NEG, NON_POS, AMBIGUOUS): the
    sign of chi(y_i) + chi(companion), which is +1, -1 or 0.  For
    alpha = +-2 they are the four SIGN_PATTERNS as "+-" strings.  Every
    move maps a row to a row with the same index.  A row where an
    identity behind the labels fails raises CertificateViolation.
    """
    params = sol.params
    form = _require_special_form(params)
    if (form[2] * form[2] - 4) % params.p == 0:
        names = tuple("".join("+" if e > 0 else "-" for e in pattern)
                      for pattern in SIGN_PATTERNS)
    else:
        names = (NON_NEG, NON_POS, AMBIGUOUS)
    index = np.empty(len(sol), dtype=np.int8)
    for rows, x in sol.blocks():
        index[rows] = _class_index(params, x, form)
    return names, index


def _first_point(x, bad: np.ndarray) -> Triple:
    k = np.flatnonzero(bad)[0]
    return tuple(int(col[k]) for col in x)


def _scaled_characters(params: SurfaceParams) -> np.ndarray:
    """int8 table of chi(s*v) = chi(s)*chi(v) for v in [0, p): y = s*x's characters at x."""
    table = params.field.chi_table
    return table if table[params.s] == 1 else -table


# the violations of the class rules, raised in this order
_OPPOSITE, _TWO_ZEROS, _PRODUCT = -1, -2, -3
_VIOLATIONS = ((_OPPOSITE, "strictly opposite obstruction characters"),
               (_TWO_ZEROS, "two vanishing coordinates off the origin"),
               (_PRODUCT, "character product -1"))


def _generic_class(c1: int, c2: int) -> int:
    """The generic class index of (chi(y_i), chi(companion)), or the identity they break.

    The characters can both vanish or share a sign, but are never
    strictly opposite (_OPPOSITE): that is the content of the
    obstruction.  The sign of c1 + c2, +1, -1 or 0, gives 0, 1 or 2.
    """
    if c1 * c2 == -1:
        return _OPPOSITE
    return ((c1 + c2 > 0) - (c1 + c2 < 0) + 2) % 3


def _pattern_class(c0: int, c1: int, c2: int) -> int:
    """The SIGN_PATTERNS index of the characters (c0, c1, c2), or the identity they break.

    Two vanishing characters give _TWO_ZEROS and a product of -1 gives
    _PRODUCT.  Otherwise e_k is c_k, or the product of the other two
    where c_k = 0, and the index is 2 (e_0 < 0) + (e_1 < 0):
    SIGN_PATTERNS lists (e_0, e_1) in binary order of e < 0.
    """
    if c0 * c0 + c1 * c1 + c2 * c2 < 2:
        return _TWO_ZEROS
    if c0 * c1 * c2 == -1:
        return _PRODUCT
    e0, e1 = c0 or c1 * c2, c1 or c0 * c2
    return 2 * (e0 < 0) + (e1 < 0)


def _ternary(chars):
    """The code sum c_k 3^(n-1-k), within +-13 for n <= 3; an array c_0 is updated in place."""
    code = chars[0]
    for c in chars[1:]:
        code *= 3
        code += c
    return code


# each rule's class of every character tuple at its code, a negative
# code read from the end, by the number of characters
_CLASS_TABLES = {2: np.zeros(9, dtype=np.int8), 3: np.zeros(27, dtype=np.int8)}
for _n, _rule in ((2, _generic_class), (3, _pattern_class)):
    for _c in itertools.product((-1, 0, 1), repeat=_n):
        _CLASS_TABLES[_n][_ternary(_c)] = _rule(*_c)


def _class_index(params: SurfaceParams, x, form: tuple[int, int, int]) -> np.ndarray:
    """int8 class index per point of the columns x, for the form (i, sigma, alpha).

    x[0..2] are the int32 or int64 columns of SolutionSet.blocks; the
    companion's intermediates stay below 2 p^2.  The first point that
    breaks an identity raises CertificateViolation, in _VIOLATIONS order.
    """
    p = params.p
    i, sigma, alpha = form
    table = _scaled_characters(params)
    if (alpha * alpha - 4) % p == 0:
        chars = [np.take(table, col) for col in x]
    else:
        im1, ip1 = (i - 1) % 3, (i + 1) % 3
        companion = mod_p(params.s * x[im1] + (2 - alpha * sigma) % p, p)
        companion *= x[ip1]
        companion += (2 * sigma - alpha) % p * x[im1]
        chars = [np.take(table, x[i]), np.take(table, mod_p(companion, p))]
    index = np.take(_CLASS_TABLES[len(chars)], _ternary(chars))
    if bool((index < 0).any()):
        for violation, message in _VIOLATIONS:
            bad = index == violation
            if bool(bad.any()):
                raise CertificateViolation(f"{message} at {_first_point(x, bad)}")
    return index


def perfect_square_check(params: SurfaceParams, x):
    """Verify the square identities behind move-invariance of the labels.

    On the s = 1 surface with a_i = 2*sigma, a_{i+1} = alpha,
    a_{i-1} = alpha*sigma, the product of
    L = y_{i-1}y_{i+1} - sigma(alpha-2)y_{i+1} - (alpha-2)y_{i-1}
    with its m_{i+1} image is the square of
    y_{i-1}^2 + y_{i-1}y_i - sigma(alpha-2)y_i.  The mirrored identity
    for m_{i-1} is the same statement after swapping i+1 with i-1 and
    replacing alpha by alpha*sigma.  x is one point of ints, giving a
    bool, or int32 or int64 coordinate columns x[0..2] in [0, p),
    giving a bool per point; every intermediate stays below 3 p^2.
    """
    i, sigma, alpha = _require_special_form(params)
    p = params.p
    unit_params, y = rescale(params, x, params.s)
    im1, ip1 = (i - 1) % 3, (i + 1) % 3
    ok_direct = _square_identity(unit_params, y, i, im1, ip1, sigma, alpha)
    ok_mirror = _square_identity(unit_params, y, i, ip1, im1, sigma, alpha * sigma % p)
    return ok_direct & ok_mirror


def _square_identity(unit_params, y, i, side, moved, sigma, alpha):
    """L(y_side, y_moved) * L(y_side, y_moved') == (y_side^2 + y_side*y_i - sigma*c*y_i)^2."""
    p = unit_params.p
    c = (alpha - 2) % p
    y_new = moved_coordinate(unit_params, y, moved)
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
    only reported.  require_complete first refuses a set that misses
    points, naming M and the count.
    """
    i, sigma, alpha = _require_special_form(params)
    p = params.p
    if p < 5:
        raise ValueError("breakup verdict needs p >= 5")
    degenerate = (alpha * alpha - 4) % p == 0
    sol = enumerate_solutions(params)
    require_complete(sol)
    sizes = sorted(compute_orbits(sol).orbit_sizes())
    names, index = labels(sol)
    class_sizes = {name: int(np.count_nonzero(index == k)) for k, name in enumerate(names)}
    if degenerate:
        chm1 = chi(-1, p)
        conj = sorted([p * (p + 3 * chm1) // 4] + [p * (p - chm1) // 4] * 3)
        min_orbits = 4
    else:
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
