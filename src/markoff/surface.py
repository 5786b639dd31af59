"""The surface equation, the three Vieta moves, and parameter classification.

Points are triples of ints reduced mod p; bulk operations act on numpy
arrays of shape (M, 3).  The residual and the move are each written
once, on ints or broadcastable arrays alike: the residual is the monic
quadratic in x3 whose coefficients x3_coefficients gives and
residual_array evaluates, and the move is moved_coordinate; residual
and on_surface evaluate them on one point, apply_move on one point or
on coordinate columns.  The residual is cyclically symmetric, so the
quadratic in any x_i is the one in x3 of the rotated parameters
(rotated).  Coordinate indices are 0-based (i in {0, 1, 2}) and cyclic:
i - 1 and i + 1 are taken mod 3.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .field import PrimeField, inverse, mod_p, prime_field

Triple = tuple[int, int, int]

# parameter classes
ALL_NONDEGENERATE = "all-nondegenerate"
SPECIAL_FORM = "special-form"
HYPOTHESIS_VIOLATED = "hypothesis-violated"
S_ZERO = "s-zero"


@dataclass(frozen=True)
class SurfaceParams:
    """Immutable surface parameters (p, a1, a2, a3) with derived s = 3 + a1 + a2 + a3."""

    field: PrimeField
    a: Triple
    s: int

    @classmethod
    def make(cls, p: int, a: tuple[int, int, int]) -> "SurfaceParams":
        f = prime_field(p)
        a = tuple(int(v) % p for v in a)
        if len(a) != 3:
            raise ValueError("need exactly three parameters")
        s = (3 + sum(a)) % p
        return cls(f, a, s)

    @property
    def p(self) -> int:
        return self.field.p

    def __repr__(self):
        return f"SurfaceParams(p={self.p}, a={self.a}, s={self.s})"


def residual(params: SurfaceParams, x: Triple) -> int:
    """LHS - RHS of the surface equation; zero iff x lies on the surface.

    One row of residual_array, the package's only residual formula;
    exact on Python ints of any size.
    """
    return residual_array(params, x)


def on_surface(params: SurfaceParams, x: Triple) -> bool:
    return residual_array(params, x) == 0


def moved_coordinate(params: SurfaceParams, x, i: int):
    """The new i-th coordinate under the move m_i (works on ints or arrays).

    For coordinates in [0, p) every intermediate lies within +-3 p^2, so
    int32 arrays are exact while 3 p^2 < 2^31 (p <= 26737).  Arrays are
    reduced with mod_p and ints with %, the faster of the two on each.
    """
    p = params.field.p  # params.p is a property call, and apply_move lands here per point
    mod = operator.mod if isinstance(x[i], int) else mod_p
    a = params.a
    im1, ip1 = (i - 1) % 3, (i + 1) % 3
    return mod(-x[i] + mod(params.s * x[im1], p) * x[ip1]
               - a[ip1] * x[im1] - a[im1] * x[ip1], p)


def apply_move(params: SurfaceParams, x, i: int) -> tuple:
    """Replace x_i by the other root of the surface equation seen as a quadratic in x_i.

    x is one point of ints, whose image is a point of ints, or the
    coordinate columns x[0..2] of many, as in rescale.
    """
    if i not in (0, 1, 2):
        raise ValueError("move index must be 0, 1 or 2")
    y = list(x)
    y[i] = moved_coordinate(params, x, i)
    return tuple(y)


def x3_coefficients(params: SurfaceParams, x1, x2):
    """(b, c) with residual = x3^2 + b*x3 + c (mod p) on the cell (x1, x2).

    b = (a1*x2 + a2*x1 - s*x1*x2) % p and c = (x1^2 + x2^2 + a3*x1*x2) % p,
    on ints or broadcastable integer arrays, both in [0, p).  For
    coordinates in [0, p) every intermediate stays below 3 p^2.  Arrays
    are reduced with mod_p and ints with %, as in moved_coordinate.
    """
    p = params.field.p  # params.p is a property call, and on_surface lands here per point
    a1, a2, a3 = params.a
    x1x2 = x1 * x2
    mod = operator.mod if isinstance(x1x2, int) else mod_p
    x1x2 = mod(x1x2, p)
    b = mod(a1 * x2 + a2 * x1 - params.s * x1x2, p)
    c = mod(x1 * x1 + x2 * x2 + a3 * x1x2, p)
    return b, c


def rotated(params: SurfaceParams, i: int) -> SurfaceParams:
    """The parameters b = (a_{i+1}, a_{i+2}, a_i), under which x_i is the last coordinate.

    The residual is unchanged when the coordinates and a are rotated
    together: res_a(x1, x2, x3) = res_b(x_{i+1}, x_{i+2}, x_i).  So the
    residual as a monic quadratic in x_i has the coefficients
    x3_coefficients(rotated(params, i), x_{i+1}, x_{i+2}), and
    residual_array of the rotated parameters on (x_{i+1}, x_{i+2}, x_i)
    is the residual along that axis.  rotated(params, 2) has params' a.
    """
    a = params.a
    return SurfaceParams(params.field, (a[(i + 1) % 3], a[(i + 2) % 3], a[i]), params.s)


def residual_array(params: SurfaceParams, x, coefficients=None) -> np.ndarray:
    """Vectorised residual; x[0..2] are ints or broadcastable integer arrays.

    Pass ``pts.T`` for an (M, 3) point array, or three grid axes.  The
    residual is a monic quadratic in x3, evaluated in Horner form
    ((x3 + b) * x3 + c) mod p with (b, c) from x3_coefficients, or from
    coefficients when given: x3_coefficients(params, x[0], x[1]) already
    computed for points with the same x1 and x2, which are then not
    read.  On a grid with x3 along the last axis, b and c have the shape
    of the (x1, x2) slab, so only the last passes touch every cell.  The
    reduction is mod_p's floor division, exact on Python ints as well.
    For coordinates in [0, p) every intermediate stays below 3 p^2, so
    int32 arrays are exact while 3 p^2 < 2^31 (p <= 26737); int64 arrays
    are exact for any table prime.
    """
    x3 = x[2]
    b, c = x3_coefficients(params, x[0], x[1]) if coefficients is None else coefficients
    p = params.field.p
    r = x3 + b  # full broadcast shape; the passes below reuse it in place
    r *= x3
    r += c
    r -= r // p * p  # mod_p, in place
    return r


class ParamClass(NamedTuple):
    """Classification of a parameter set; exactly one kind applies, s = 0 wins."""

    kind: str
    i: int | None = None
    sigma: int | None = None
    alpha: int | None = None


def special_form_detect(params: SurfaceParams) -> tuple[int, int, int] | None:
    """First (i, sigma, alpha) with a_i = 2*sigma, a_{i+1} = alpha, a_{i-1} = alpha*sigma.

    Scan order i = 0, 1, 2 then sigma = +1, -1, for determinism.
    """
    p = params.p
    a = params.a
    for i in range(3):
        for sigma in (1, -1):
            if (a[i] - 2 * sigma) % p != 0:
                continue
            alpha = a[(i + 1) % 3]
            if (a[(i - 1) % 3] - alpha * sigma) % p == 0:
                return i, sigma, alpha
    return None


def classify_parameters(params: SurfaceParams) -> ParamClass:
    p = params.p
    if params.s == 0:
        return ParamClass(S_ZERO)
    degenerate = [i for i in range(3) if (params.a[i] ** 2 - 4) % p == 0]
    if not degenerate:
        return ParamClass(ALL_NONDEGENERATE)
    sf = special_form_detect(params)
    if sf is not None:
        return ParamClass(SPECIAL_FORM, *sf)
    return ParamClass(HYPOTHESIS_VIOLATED)


def rescale(params: SurfaceParams, x, t: int) -> tuple[SurfaceParams, tuple]:
    """Map x to t*x; a solution for parameter s becomes one for s/t (a unchanged).

    x is one point of ints or the coordinate columns x[0..2] of many.
    """
    p = params.p
    t %= p
    if t == 0:
        raise ValueError("rescaling factor must be nonzero")
    new_s = params.s * inverse(t, p) % p
    new_params = SurfaceParams(params.field, params.a, new_s)
    return new_params, tuple(mod_p(t * v, p) for v in x)
