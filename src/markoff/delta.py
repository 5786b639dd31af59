"""The orbit-divisibility certificate: its formula and its verification.

Three angle functions Delta_i assign a value to every nonzero solution
subject to three identities:

  total:  Delta_1 + Delta_2 + Delta_3 = s            at every point
  pair:   Delta_i(x) + Delta_i(m_i x) = s            for every i
  fix:    Delta_i(x) = s/2                           when m_i x = x

Summing them over an orbit of size V gives s*V = 3*s*V/2, hence
s*V = 0, hence p | V when s != 0.  Delta_i has a closed form wherever
x_{i-1} x_{i+1} != 0, _closed_form, and on a plane x_j = 0 the values
Delta_{j +- 1} have a second one, _plane_form.  delta_column picks
between them on coordinate columns, so the certificate is a formula in
the coordinates of each point, and a DeltaAssignment stores no values.
Where a_i^2 = 4 and 2a_{i-1} != a_{i+1}a_i no assignment exists;
require_consistent reads that from the parameters alone.

verify_certificate proves the set complete (the closed-form count of
rows, each on the surface, strictly increasing from above the origin),
so every move image on the surface is a row and none is looked up.  It
checks each edge's identities with Delta evaluated at both ends and its
orbit ids read per cell, then rederives s*V = 0 per orbit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .enumeration import SolutionSet
from .field import mod_p
from .orbits import CertificateError, OrbitPartition, require_complete
from .surface import SurfaceParams, Triple, apply_move, residual_array


class NoConsistentExtension(Exception):
    """The angle functions admit no extension over a plane of double fixed points."""


def delta_values(params: SurfaceParams, x: Triple) -> Triple:
    """The closed-form (Delta_1, Delta_2, Delta_3) at a point with x1*x2*x3 != 0."""
    if any(v % params.p == 0 for v in x):
        raise ValueError("closed form needs all coordinates nonzero; "
                         "delta_column covers the zero-coordinate points")
    return tuple(delta_at(params, x, i) for i in range(3))


def delta_at(params: SurfaceParams, x: Triple, i: int) -> int:
    """Delta_i(x) from _closed_form.

    Well-defined whenever the two other coordinates are nonzero; in
    particular on the plane x_i = 0, where the first term drops out.
    Coordinates may be any ints; they are reduced mod p first.
    """
    p = params.p
    x = tuple(int(v) % p for v in x)
    if x[(i - 1) % 3] == 0 or x[(i + 1) % 3] == 0:
        raise ValueError(f"Delta_{i} undefined when a neighbouring coordinate vanishes")
    return int(_closed_form(params, x, i))


def _closed_form(params: SurfaceParams, x, i: int):
    """Delta_i = x_i/(x_{i-1}x_{i+1}) + (a_{i-1}/x_{i-1} + a_{i+1}/x_{i+1})/2.

    x[0..2] are ints or broadcastable int32 or int64 arrays in [0, p),
    as SolutionSet.blocks yields them.  The value is Delta_i where
    x_{i-1} and x_{i+1} are nonzero; elsewhere inv_table[0] = 0 makes it
    a finite value in [0, p) that is not Delta_i.  Inverses are gathered
    from the int64 inv_table with np.take, so every term that holds one
    is int64 and below 2 p^2; the only int32 product, x_{i-1} x_{i+1},
    stays below p^2.
    """
    p = params.p
    a = params.a
    inv = params.field.inv_table
    im1, ip1 = (i - 1) % 3, (i + 1) % 3
    xm, xp = x[im1], x[ip1]
    half = mod_p(a[im1] * np.take(inv, xm) + a[ip1] * np.take(inv, xp), p) * ((p + 1) // 2)
    return mod_p(x[i] * np.take(inv, mod_p(xm * xp, p)) + half, p)


def _plane_form(params: SurfaceParams, x, i: int):
    """Delta_{i-1} = s/2 + (2a_{i-1} - a_i a_{i+1}) x_{i-1} / (2(x_{i+1}^2 - x_{i-1}^2)).

    The value of Delta_{i-1} on the plane x_i = 0 (see delta_column),
    on columns x[0..2] like those of _closed_form.  The int32 products
    stay below p^2, and the inverse is gathered from the int64 inv_table,
    so every term that holds it is int64 and below 2 p^2.
    """
    p, s, a = params.p, params.s, params.a
    im1, ip1 = (i - 1) % 3, (i + 1) % 3
    xj, xk = x[im1], x[ip1]
    inv2 = (p + 1) // 2
    c = (2 * a[im1] - a[i] * a[ip1]) * inv2 % p
    inv = np.take(params.field.inv_table, mod_p(xk * xk - xj * xj, p))
    return mod_p(s * inv2 % p + mod_p(c * xj, p) * inv, p)


def delta_column(params: SurfaceParams, x, i: int) -> np.ndarray:
    """Delta_i on the coordinate columns x[0..2], the planes x_{i +- 1} = 0 included.

    x holds int32 or int64 arrays in [0, p), a block of SolutionSet.blocks
    or an image of apply_move; the values are int64 in [0, p).  Every
    point gets _closed_form, which is Delta_i unless x_{i-1} or x_{i+1}
    vanishes.  On a plane x_j = 0 the surface equation reads
    x_k^2 + a_j x_k x_l + x_l^2 = 0 for {k, l} = {j-1, j+1}, and

      Delta_k = s/2 + (2a_k - a_j a_l) x_k / (2(x_l^2 - x_k^2)):

    m_k maps x_k to x_l^2/x_k, which flips the sign of the second term,
    so the pair identity holds, and the equation gives the total one.
    So Delta_i is _plane_form(x, i + 1) on x_{i+1} = 0, and
    s - Delta_{i-1} - _plane_form(x, i - 1) on x_{i-1} = 0.  The
    denominator vanishes exactly when a_j^2 = 4, where every point of
    the plane is a double fixed point; inv_table[0] = 0 then gives the
    forced value s/2.  A surface point has at most one zero coordinate.
    """
    p, s = params.p, params.s
    out = _closed_form(params, x, i)
    j = (i + 1) % 3
    on = np.flatnonzero(x[j] == 0)
    out[on] = _plane_form(params, [v[on] for v in x], j)
    j = (i - 1) % 3
    on = np.flatnonzero(x[j] == 0)
    y = [v[on] for v in x]
    out[on] = mod_p(s - _closed_form(params, y, j) - _plane_form(params, y, j), p)
    return out


@dataclass
class DeltaAssignment:
    """(Delta_1, Delta_2, Delta_3) over a SolutionSet, given by delta_column; no values stored."""

    solutions: SolutionSet

    @property
    def values(self) -> np.ndarray:
        """(M, 3) int32 values of every row, column-major; built on each access."""
        sol = self.solutions
        out = np.empty((3, len(sol)), dtype=np.int32).T
        for rows, x in sol.blocks():
            for i in range(3):
                out[rows, i] = delta_column(sol.params, x, i)
        return out

    def at(self, x: Triple) -> Triple:
        """The three values at a point of the set; index_of raises for any other."""
        sol = self.solutions
        y = sol.points[sol.index_of(x)].astype(np.int64)[:, None]
        return tuple(int(delta_column(sol.params, y, i)[0]) for i in range(3))


def require_consistent(params: SurfaceParams) -> None:
    """Refuse, from the parameters alone, the sets on which delta_column breaks an identity.

    ValueError outside the domain p >= 5, s != 0; NoConsistentExtension
    where a double fixed point breaks the identities.  When a_i^2 = 4
    the plane x_i = 0 is the line x_{i+1} = r x_{i-1}, r = -a_i/2 = +-1,
    and each of its points is fixed by m_{i-1} and m_{i+1}.  The fix
    identity pins Delta_{i-1} and Delta_{i+1} to s/2, so the total
    identity forces Delta_i = 0; but the pair identity across m_i, whose
    image lies off the plane, pins Delta_i to its closed form
    (2a_{i-1} - a_{i+1}a_i)/(4 x_{i-1}).  The two agree only if
    2a_{i-1} = a_{i+1}a_i.  The point named is the least of the plane,
    with 1 in the lower-indexed of coordinates i-1, i+1 and r in the
    other.
    """
    p, a = params.p, params.a
    if p < 5:
        raise ValueError("certificate construction needs p >= 5")
    if params.s == 0:
        raise ValueError("certificate construction needs s != 0; "
                         "s = 0 surfaces are supported by enumeration and orbits only")
    for i in range(3):
        im1, ip1 = (i - 1) % 3, (i + 1) % 3
        if (a[i] * a[i] - 4) % p != 0 or (2 * a[im1] - a[ip1] * a[i]) % p == 0:
            continue
        x = [0, 0, 0]
        x[min(im1, ip1)] = 1
        x[max(im1, ip1)] = -a[i] * pow(2, -1, p) % p
        raise NoConsistentExtension(
            f"double fixed point {tuple(x)} forces Delta_{i} = 0 but "
            f"2a_{im1} != a_{ip1}a_{i} (mod {p})")


def build_certificate(sol: SolutionSet) -> DeltaAssignment:
    """The certificate of one parameter set, delta_column over sol, after require_consistent."""
    require_consistent(sol.params)
    return DeltaAssignment(sol)


@dataclass
class CertificateReport:
    params: SurfaceParams
    n_points: int
    n_fixed_edges: int
    all_divisible: bool   # p | V for every orbit


def _require(rows: slice, ok: np.ndarray, message) -> None:
    """Raise CertificateError(message(k)) at the first row k of a block where ok is False."""
    if not bool(ok.all()):
        raise CertificateError(message(rows.start + int(np.flatnonzero(~ok)[0])))


def verify_certificate(assign: DeltaAssignment, part: OrbitPartition) -> CertificateReport:
    """Prove the set complete, check every move edge and identity, and rederive p | V per orbit.

    The set must hold closed_form_total's count of rows (require_complete),
    and one pass over the blocks of rows checks that each row is in
    [0, p)^3 and on the surface, and that the rows strictly increase in
    (x1, x2, x3) from above the origin: they are then exactly the
    nonzero solutions.  The pass checks, in int64, the total identity at
    each row and, for each move i: the image from apply_move is on the
    surface, so it is a row; m_0 and m_1 keep the orbit id (m_2 keeps
    the cell, and with it the id); the pair identity holds with
    delta_column at both ends, which at a fixed edge (image[i] == x[i])
    reads 2 Delta_i = s, the fix identity for odd p.  It also counts the
    rows of each id, which must be the partition's orbit sizes, and sums
    each Delta_i per id, which must be s*V/2.  By the total identity the
    three sums are s*V, so s*V/2 = 0 and p | V.  Raises CertificateError
    naming the point (or the orbit's representative, or M and the
    count), the move and the identity; ValueError outside the domain.
    """
    sol = assign.solutions
    params = sol.params
    p, s = params.p, params.s
    if p < 5 or s == 0:
        raise ValueError("certificate verification needs p >= 5 and s != 0")
    if part.cell_ids.shape != (p * p,):
        raise ValueError("orbit partition does not match the solution set")
    require_complete(sol)

    n_orbits = len(part.orbits)
    n_fixed = 0
    last = 0  # the origin's key; the first row must lie above it
    sizes = np.zeros(n_orbits, dtype=np.int64)
    half_sums = np.zeros((3, n_orbits), dtype=np.int64)  # per orbit: sum of Delta_i mod p
    for rows, x in sol.blocks():
        _require(rows, ((x >= 0) & (x < p)).all(axis=0),
                 lambda k: f"row {sol.triple(k)} is not reduced mod {p}")
        key = (x[0].astype(np.int64) * p + x[1]) * p + x[2]
        _require(rows, np.diff(key, prepend=last) > 0,
                 lambda k: f"rows do not strictly increase from above the origin at {sol.triple(k)}")
        last = key[-1]
        _require(rows, residual_array(params, x) == 0,
                 lambda k: f"row {sol.triple(k)} is not on the surface")
        ids = part.ids(x)
        _require(rows, (ids >= 0) & (ids < n_orbits),
                 lambda k: f"{sol.triple(k)} has no orbit id below {n_orbits}")
        sizes += np.bincount(ids, minlength=n_orbits)
        d = [delta_column(params, x, i) for i in range(3)]
        _require(rows, mod_p(d[0] + d[1] + d[2] - s, p) == 0,
                 lambda k: f"total identity fails at {sol.triple(k)}")
        for i in range(3):
            image = apply_move(params, x, i)
            _require(rows, residual_array(params, image) == 0,
                     lambda k: f"move {i} image of {sol.triple(k)} is off the surface")
            if i < 2:
                moved = part.ids(image)
                _require(rows, moved == ids,
                         lambda k: f"move {i} edge from {sol.triple(k)} joins components "
                                   f"{ids[k - rows.start]} and {moved[k - rows.start]}")
            fixed = image[i] == x[i]
            _require(rows, mod_p(d[i] + delta_column(params, image, i) - s, p) == 0,
                     lambda k: f"{'fixed-point' if fixed[k - rows.start] else 'pair'} "
                               f"identity fails at {sol.triple(k)} for move {i}")
            n_fixed += int(np.count_nonzero(fixed))
            # float64 sums are exact: a block adds at most BLOCK values below p, below 2^47
            sums = np.bincount(ids, weights=d[i], minlength=n_orbits)
            half_sums[i] = (half_sums[i] + sums.astype(np.int64)) % p

    def require_per_orbit(ok: np.ndarray, identity: str) -> None:
        if not bool(ok.all()):
            size, rep = part.orbits[int(np.flatnonzero(~ok)[0])]
            raise CertificateError(f"{identity} fails for the orbit of {rep} (size {size})")

    require_per_orbit(sizes == part.orbit_sizes(), "orbit size count")
    expect = s * (sizes % p) % p * ((p + 1) // 2) % p  # s*V/2
    for i in range(3):
        require_per_orbit((half_sums[i] - expect) % p == 0, f"half-sum identity for move {i}")
    return CertificateReport(params, len(sol), n_fixed,
                             all(size % p == 0 for size in part.orbit_sizes()))
