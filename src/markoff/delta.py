"""The orbit-divisibility certificate: its formula and its verification.

Three angle functions Delta_i assign a value to every nonzero solution
subject to three identities:

  total:  Delta_1 + Delta_2 + Delta_3 = s            at every point
  pair:   Delta_i(x) + Delta_i(m_i x) = s            for every i
  fix:    Delta_i(x) = s/2                           when m_i x = x

Summing them over an orbit of size V gives s*V = 3*s*V/2, hence
s*V = 0, hence p | V when s != 0.  Delta_i has a closed form wherever
x_{i-1} x_{i+1} != 0, _closed_form, read from the inverses u of the
coordinates as Delta_i = x_i q_i + half_i with q_i = u_{i-1} u_{i+1};
on a plane x_j = 0 both neighbours Delta_{j +- 1} take one symmetric
plane form (see delta_column).  _delta_ends picks between the two on
coordinate columns, so the certificate is a formula in the coordinates
of each point: delta_values evaluates it at one point, and
DeltaAssignment.values at every row of a set without storing it.
Where a_i^2 = 4 and 2a_{i-1} != a_{i+1}a_i no assignment exists;
require_consistent reads that from the parameters alone.

verify_certificate proves the set complete (the closed-form count of
rows, each on the surface, strictly increasing from above the origin),
so every move image on the surface is a row and none is looked up.  The
image of m_i is the other root of the residual as a monic quadratic in
x_i, whose coefficients are x3_coefficients of surface.rotated, and it
is checked on the surface on those same coefficients: the verifier does
not share the move formula with compute_orbits, the code it checks.  It
checks each edge's identities with Delta evaluated at both ends and its
orbit ids read per cell, then rederives s*V = 0 per orbit.  The move
m_i keeps x_{i-1} and x_{i+1}, and with them q_i, half_i and the
planes x_{i +- 1} = 0, so _delta_ends evaluates both ends of a block's
m_i edges from one gather of the block's inverses, in the block's dtype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .enumeration import SolutionSet
from .field import mod_p
from .orbits import CertificateError, OrbitPartition, require_complete
from .surface import SurfaceParams, Triple, residual_array, rotated, x3_coefficients


class NoConsistentExtension(Exception):
    """The angle functions admit no extension over a plane of double fixed points."""


def delta_values(params: SurfaceParams, x: Triple) -> Triple:
    """(Delta_1, Delta_2, Delta_3) at a nonzero point of the surface, plane points included.

    Coordinates may be any ints; they are reduced mod p first.  The
    values are delta_column's on one-point int64 columns, the ones
    verify_certificate checks.  Raises ValueError naming the point when
    it is not a nonzero point of the surface.
    """
    p = params.p
    y = np.array([[int(v) % p] for v in x], dtype=np.int64)
    if len(y) != 3 or not y.any() or residual_array(params, y)[0]:
        raise ValueError(f"{tuple(x)} is not a nonzero point of the surface mod {p}")
    return tuple(int(delta_column(params, y, i)[0]) for i in range(3))


def _inverse(params: SurfaceParams, v: np.ndarray) -> np.ndarray:
    """inv_table at the residues v, in v's dtype (inv_table[0] = 0)."""
    return np.take(params.field.inv_table, v).astype(v.dtype, copy=False)


def _closed_form(params: SurfaceParams, u, i: int):
    """q_i = u_{i-1} u_{i+1} and half_i of Delta_i = x_i q_i + half_i mod p, from the inverses u.

    That is x_i/(x_{i-1}x_{i+1}) + (a_{i-1}/x_{i-1} + a_{i+1}/x_{i+1})/2
    where x_{i-1} and x_{i+1} are nonzero; elsewhere inv_table[0] = 0
    makes it a finite value in [0, p) that is not Delta_i.  The u are
    int32 or int64 arrays in [0, p) of one dtype, which q_i and half_i
    keep.  The halves of a_{i-1} and a_{i+1} are taken mod p first, so
    each term of half_i stays below p^2 and x_i q_i + half_i below
    3 p^2: int32 is exact while 3 p^2 + p < 2^31.
    """
    p, a = params.p, params.a
    im1, ip1 = (i - 1) % 3, (i + 1) % 3
    inv2 = (p + 1) // 2
    return (mod_p(u[im1] * u[ip1], p),
            a[im1] * inv2 % p * u[im1] + a[ip1] * inv2 % p * u[ip1])


def _delta_ends(params: SurfaceParams, x, u, i: int, moved=None) -> np.ndarray:
    """Delta_i at the points x in row 0 and, given moved, at their m_i images in row 1.

    x holds the int32 or int64 coordinate columns of points in [0, p),
    int32 only while 3 p^2 + p < 2^31 as SolutionSet.blocks yields them,
    u = _inverse of each column, and moved the images' x_i in [0, p).
    m_i keeps x_{i-1} and x_{i+1}, so q_i and half_i of _closed_form
    are also the image's, computed once for both ends, and the planes
    x_{i +- 1} = 0 hold both ends or neither; their rows, where x holds
    any, get the plane form of delta_column at both ends.  A surface
    point has at most one zero coordinate, so x_{i-1} + x_{i+1} is the
    plane's x_l, below p; every product stays below p^2, exact in int32
    as for the closed form.
    """
    p, a = params.p, params.a
    im1, ip1 = (i - 1) % 3, (i + 1) % 3
    ends = (x[i],) if moved is None else (x[i], moved)
    q, half = _closed_form(params, u, i)
    out = np.empty((len(ends), *np.shape(x[i])), dtype=q.dtype)
    for end, xi in zip(out, ends):
        np.multiply(xi, q, out=end)
        end += half
        end -= end // p * p  # mod_p, in place
    on = np.flatnonzero((x[im1] == 0) | (x[ip1] == 0))
    if len(on):
        inv2 = (p + 1) // 2
        half_s, c = params.s * inv2 % p, (2 * a[i] - a[im1] * a[ip1]) * inv2 % p
        xl = x[im1][on] + x[ip1][on]
        xl *= xl
        for end, xi in zip(out, ends):
            xi = xi[on]
            inv = _inverse(params, mod_p(xl - xi * xi, p))
            end[on] = mod_p(half_s + mod_p(c * xi, p) * inv, p)
    return out


def delta_column(params: SurfaceParams, x, i: int) -> np.ndarray:
    """Delta_i on the coordinate columns x[0..2], the planes x_{i +- 1} = 0 included.

    x holds int32 or int64 arrays in [0, p), int32 only while
    3 p^2 + p < 2^31 as in a block of SolutionSet.blocks, or an image of
    apply_move; the values are in [0, p), in x's dtype.  Every point
    gets _closed_form, which is Delta_i unless x_{i-1} or x_{i+1}
    vanishes.  On a plane x_j = 0 the surface equation reads
    x_k^2 + a_j x_k x_l + x_l^2 = 0 for {k, l} = {j-1, j+1}, and both
    neighbours take one symmetric form,

      Delta_k = s/2 + (2a_k - a_j a_l) x_k / (2(x_l^2 - x_k^2)):

    m_k maps x_k to x_l^2/x_k, which flips the sign of the second term,
    so the pair identity holds.  Delta_j there is its closed form
    (a_k/x_k + a_l/x_l)/2, and 2 x_k x_l (x_l^2 - x_k^2) times
    Delta_j + Delta_k + Delta_l - s is
    (a_k x_l - a_l x_k)(x_k^2 + a_j x_k x_l + x_l^2), zero by the plane
    equation: the total identity holds.  The denominator vanishes
    exactly when a_j^2 = 4, where every point of the plane is a double
    fixed point; inv_table[0] = 0 then gives the forced value s/2.
    _delta_ends evaluates it, after one gather of each column's inverses.
    """
    return _delta_ends(params, x, [_inverse(params, v) for v in x], i)[0]


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
            u = [_inverse(sol.params, v) for v in x]
            for i in range(3):
                out[rows, i] = _delta_ends(sol.params, x, u, i)[0]
        return out


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


def _below(v: np.ndarray, bound: int) -> np.ndarray:
    """0 <= v < bound on an integer array: one comparison of its unsigned view."""
    return v.view(np.dtype(f"u{v.itemsize}")) < bound


def _sums_to(s: int, p: int, *values: np.ndarray) -> np.ndarray:
    """Whether the values, each in [0, p), sum to s in [0, p) mod p.

    Their sum less s lies in (-p, len(values) p), so it is 0 mod p
    exactly when it is 0, p, ..., (len(values) - 1) p: no reduction.
    """
    total = values[0] + values[1]
    for v in values[2:]:
        total += v
    total -= s
    ok = total == 0
    for k in range(1, len(values)):
        ok |= total == k * p
    return ok


def _root_sum_image(axis: SurfaceParams, x, i: int, coefficients=None):
    """The m_i images' x_i, and whether each lies on the surface, from one pair (b_i, c_i).

    axis is rotated(params, i), so the residual as a monic quadratic in
    x_i is x_i^2 + b_i x_i + c_i with (b_i, c_i) its x3_coefficients
    at the kept x_{i+1}, x_{i+2}, or coefficients when given.  The
    image's x_i is the other root, -b_i - x_i by Vieta, and the check is
    residual_array of axis at the image on those same coefficients.
    """
    kept = (x[(i + 1) % 3], x[(i + 2) % 3])
    b, c = x3_coefficients(axis, *kept) if coefficients is None else coefficients
    moved = mod_p(-b - x[i], axis.p)
    return moved, residual_array(axis, (*kept, moved), (b, c)) == 0


def verify_certificate(assign: DeltaAssignment, part: OrbitPartition) -> CertificateReport:
    """Prove the set complete, check every move edge and identity, and rederive p | V per orbit.

    The set must hold closed_form_total's count of rows (require_complete),
    and one pass over the blocks of rows checks that each row is in
    [0, p)^3 and on the surface, and that the rows strictly increase in
    (x1, x2, x3) from above the origin: they are then exactly the
    nonzero solutions.  The pass checks, in the block's dtype, the total
    identity at each row and, for each move i: the image, x with x_i
    replaced by the other root -b_i - x_i of the residual written as
    x_i^2 + b_i x_i + c_i (surface.rotated gives b_i and c_i), is on the
    surface by residual_array on those same coefficients, so it is a
    row; m_0 and m_1 keep the orbit id (m_2 keeps the cell, and with it
    the id); the pair identity holds with _delta_ends' values at both
    ends, which at a fixed edge (image[i] == x[i]) reads 2 Delta_i = s,
    the fix identity for odd p.  The image's residual along axis i is
    the row's, so its check fails only where (b_i, c_i) are not the
    row's coefficients; m_2's are those of the row check, so its image
    check can fail only where the row check already has, and it is kept
    as one check per move.  The images do not come from moved_coordinate
    or apply_move, the move formula compute_orbits reads its edges from.
    Every Delta value is in [0, p), so an identity holds when its sum
    less s is 0, p or 2p, without a reduction.  The pass also counts the
    rows of each id, which must be the partition's orbit sizes, and sums
    Delta_0 and Delta_1 per id, which must be s*V/2.  The total identity
    holds at every row, so the sum of Delta_2 is s*V less those two, and
    it must be s*V/2 too: then s*V/2 = 0 and p | V.  Raises
    CertificateError naming the point (or the orbit's representative,
    or M and the count), the move and the identity; ValueError outside
    the domain or for a partition of another parameter set.
    """
    sol = assign.solutions
    params = sol.params
    p, s = params.p, params.s
    if p < 5 or s == 0:
        raise ValueError("certificate verification needs p >= 5 and s != 0")
    if part.params != params or part.cell_ids.shape != (p * p,):
        raise ValueError("orbit partition does not match the solution set")
    require_complete(sol)

    n_orbits = len(part.orbits)
    n_fixed = 0
    last = 0  # the origin's key; the first row must lie above it
    sizes = np.zeros(n_orbits, dtype=np.int64)
    half_sums = np.zeros((3, n_orbits), dtype=np.int64)  # per orbit: sum of Delta_i mod p
    axes = [rotated(params, i) for i in range(3)]  # axes[2] has params' own a
    for rows, x in sol.blocks():
        _require(rows, _below(x, p).all(axis=0),
                 lambda k: f"row {sol.triple(k)} is not reduced mod {p}")
        x1p = x[0] * p
        cell = x1p + x[1]
        key = cell.astype(np.int64)
        key *= p
        key += x[2]
        _require(rows, np.diff(key, prepend=last) > 0,
                 lambda k: f"rows do not strictly increase from above the origin at {sol.triple(k)}")
        last = key[-1]
        coefficients = x3_coefficients(params, x[0], x[1])
        _require(rows, residual_array(params, x, coefficients) == 0,
                 lambda k: f"row {sol.triple(k)} is not on the surface")
        ids = np.take(part.cell_ids, cell)
        _require(rows, _below(ids, n_orbits),
                 lambda k: f"{sol.triple(k)} has no orbit id below {n_orbits}")
        sizes += np.bincount(ids, minlength=n_orbits)
        # each image check is computed with its image, while (b_i, c_i)
        # are live, and raised in its move's turn below
        moved, on_surface = zip(*(_root_sum_image(axes[i], x, i, coefficients if i == 2 else None)
                                  for i in range(3)))
        u = [_inverse(params, v) for v in x]
        d = [_delta_ends(params, x, u, i, moved[i]) for i in range(3)]
        _require(rows, _sums_to(s, p, d[0][0], d[1][0], d[2][0]),
                 lambda k: f"total identity fails at {sol.triple(k)}")
        for i in range(3):
            _require(rows, on_surface[i],
                     lambda k: f"move {i} image of {sol.triple(k)} is off the surface")
            if i < 2:
                moved_ids = np.take(part.cell_ids,
                                    moved[0] * p + x[1] if i == 0 else x1p + moved[1])
                _require(rows, moved_ids == ids,
                         lambda k: f"move {i} edge from {sol.triple(k)} joins components "
                                   f"{ids[k - rows.start]} and {moved_ids[k - rows.start]}")
            fixed = moved[i] == x[i]
            at_row, at_image = d[i]
            _require(rows, _sums_to(s, p, at_row, at_image),
                     lambda k: f"{'fixed-point' if fixed[k - rows.start] else 'pair'} "
                               f"identity fails at {sol.triple(k)} for move {i}")
            n_fixed += int(np.count_nonzero(fixed))
            if i < 2:
                # float64 sums are exact: a block adds at most BLOCK values below p, below 2^47
                sums = np.bincount(ids, weights=at_row, minlength=n_orbits)
                half_sums[i] = (half_sums[i] + sums.astype(np.int64)) % p
    # s * sizes < p * M stays far below 2^63
    half_sums[2] = (s * sizes - half_sums[0] - half_sums[1]) % p

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
