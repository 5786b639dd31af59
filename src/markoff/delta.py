"""Construction and verification of the orbit-divisibility certificate.

Three angle functions Delta_i assign a value to every nonzero solution
subject to three identities:

  total:  Delta_1 + Delta_2 + Delta_3 = s            at every point
  pair:   Delta_i(x) + Delta_i(m_i x) = s            for every i
  fix:    Delta_i(x) = s/2                           when m_i x = x

Summing them over an orbit of size V gives s*V = 3*s*V/2, hence
s*V = 0, hence p | V when s != 0.  Delta_i has a closed form wherever
x_{i-1} x_{i+1} != 0, written once in _closed_form for ints and arrays
alike; on a plane x_i = 0 the two values Delta_{i +- 1} have a second
closed form in x_{i-1} and x_{i+1}, written once in _plane_form, which
build_certificate writes over the first.  So every value is a formula
in the coordinates of its row.  Where a_i^2 = 4 and
2a_{i-1} != a_{i+1}a_i no assignment exists; require_consistent reads
that from the parameters alone, and build_certificate calls it before
it writes a row.

verify_certificate checks a certificate in one pass over the blocks of
rows: every move edge, found by locating the image of apply_move and
comparing the coordinates read there, the total identity, and the pair
identity, which on a self-loop m_i x = x reads 2 Delta_i(x) = s, the
fix identity for odd p.  It then rederives s*V = 0 per orbit from the
per-orbit sums of each Delta_i gathered in the same pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .enumeration import SolutionSet
from .field import mod_p
from .orbits import OrbitPartition
from .surface import SurfaceParams, Triple, apply_move


class NoConsistentExtension(Exception):
    """The angle functions admit no extension over a plane of double fixed points."""


class CertificateError(Exception):
    """A certificate identity failed; the assignment is not valid."""


def delta_values(params: SurfaceParams, x: Triple) -> Triple:
    """The closed-form (Delta_1, Delta_2, Delta_3) at a point with x1*x2*x3 != 0."""
    if any(v % params.p == 0 for v in x):
        raise ValueError("closed form needs all coordinates nonzero; "
                         "build_certificate fills the zero-coordinate points")
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

    The value of Delta_{i-1} on the plane x_i = 0 (see build_certificate),
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


@dataclass
class DeltaAssignment:
    """Total assignment of (Delta_1, Delta_2, Delta_3) over a SolutionSet."""

    solutions: SolutionSet
    values: np.ndarray        # (M, 3) int32 in [0, p), column-major, aligned with solutions.points

    @property
    def params(self) -> SurfaceParams:
        return self.solutions.params

    def at(self, x: Triple) -> Triple:
        row = self.values[self.solutions.index_of(x)]
        return (int(row[0]), int(row[1]), int(row[2]))


def require_consistent(params: SurfaceParams) -> None:
    """Refuse, from the parameters alone, what build_certificate would refuse.

    Raises ValueError outside the certificate's domain (p < 5 or s = 0)
    and NoConsistentExtension if a double fixed point breaks the
    identities.  Callers can run it before enumerating the surface.

    When a_i^2 = 4 the plane x_i = 0 is the line x_{i+1} = r x_{i-1},
    r = -a_i/2 = +-1, and each of its points is fixed by m_{i-1} and
    m_{i+1}.  The fix identity pins Delta_{i-1} and Delta_{i+1} to s/2,
    so the total identity forces Delta_i = 0; but the pair identity
    across m_i, whose image lies off the plane, pins Delta_i to its
    closed form (2a_{i-1} - a_{i+1}a_i)/(4 x_{i-1}).  The two agree only
    if 2a_{i-1} = a_{i+1}a_i.  The point named is the least of the
    plane, with 1 in the lower-indexed of coordinates i-1, i+1 and r in
    the other.
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
    """Construct a full certificate for one parameter set, row by row.

    Every row first gets _closed_form for all three Delta_i.  That is
    Delta_i except where x_{i-1} or x_{i+1} vanishes, so on a row with
    x_i = 0 the values Delta_{i-1} and Delta_{i+1} are overwritten.
    There the surface equation reads x_j^2 + a_i x_j x_k + x_k^2 = 0
    for {j, k} = {i-1, i+1}, and

      Delta_j = s/2 + (2a_j - a_i a_k) x_j / (2(x_k^2 - x_j^2)):

    m_j maps x_j to x_k^2/x_j, which flips the sign of the second term,
    so the pair identity holds, and the equation gives the total one.
    Delta_{i-1} is computed so, by _plane_form, and
    Delta_{i+1} = s - Delta_i - Delta_{i-1}.
    The denominator vanishes exactly when a_i^2 = 4, where every point
    of the plane is a double fixed point; inv_table[0] = 0 then gives
    the forced value s/2.  require_consistent refuses, before any row
    is written, the parameters for which those forced values contradict
    the closed form of Delta_i, and those outside p >= 5, s != 0.
    """
    params = sol.params
    p, s = params.p, params.s
    require_consistent(params)
    values = np.zeros((3, len(sol)), dtype=np.int32).T  # column-major, like sol.points
    for rows, x in sol.blocks():
        for i in range(3):
            values[rows, i] = _closed_form(params, x, i)
        for i in range(3):
            on_plane = np.flatnonzero(x[i] == 0)
            im1, ip1 = (i - 1) % 3, (i + 1) % 3
            dj = _plane_form(params, x[:, on_plane], i)
            k = rows.start + on_plane
            values[k, im1] = dj
            values[k, ip1] = (s - values[k, i] - dj) % p
    return DeltaAssignment(sol, values)


@dataclass
class CertificateReport:
    params: SurfaceParams
    n_points: int
    n_fixed_edges: int
    all_divisible: bool   # p | V for every orbit


def _first_failure(rows: slice, ok: np.ndarray) -> int | None:
    """Row index of the first False in a block's bool array, None if all hold."""
    if bool(ok.all()):
        return None
    return rows.start + int(np.flatnonzero(~ok)[0])


def verify_certificate(assign: DeltaAssignment, part: OrbitPartition) -> CertificateReport:
    """Check every move edge and every identity, and rederive p | V per orbit.

    One pass over the blocks of rows checks, in int64, the total
    identity at each row and then, for each move i: the image of the
    block under m_i, from apply_move, is located with
    SolutionSet._locate, and the three coordinates read at that row
    must equal the image's, so a faulty lookup cannot certify itself;
    both ends must share a component id; and the pair identity must
    hold, which at a fixed edge (the image's row is the row itself)
    reads 2 Delta_i = s, the fix identity for odd p.  The same pass
    counts the rows of each id and sums each Delta_i per id.  The ids
    must then count the partition's orbit sizes, and each orbit's
    Delta_i sum must be s*V/2.  Summed over i the three sums are s*V
    by the total identity, so s*V/2 = 0 and p | V.  That sum is not
    checked again: the total identity at every row and the size count
    already fix it at s*V.  Raises CertificateError naming the point
    (or the orbit's representative), the move and the identity;
    ValueError outside the domain of build_certificate.
    """
    sol = assign.solutions
    params = sol.params
    p, s = params.p, params.s
    if p < 5 or s == 0:
        raise ValueError("certificate verification needs p >= 5 and s != 0")
    vals = assign.values
    component_id = part.component_id
    m, n_orbits = len(sol), len(part.orbits)
    if vals.shape != (m, 3):
        raise ValueError("assignment does not cover the solution set")
    if component_id.shape != (m,):
        raise ValueError("orbit partition does not match the solution set")
    if m and (component_id.min() < 0 or component_id.max() >= n_orbits):
        raise CertificateError("component id outside the orbit numbering")

    cols = [sol.points[:, j] for j in range(3)]
    n_fixed = 0
    sizes = np.zeros(n_orbits, dtype=np.int64)
    half_sums = np.zeros((3, n_orbits), dtype=np.int64)  # per orbit: sum of Delta_i mod p
    for rows, x in sol.blocks():
        # sums in int64, as a corrupted value may be any int32
        total_ok = mod_p(vals[rows, 0].astype(np.int64) + vals[rows, 1] + vals[rows, 2] - s, p) == 0
        k = _first_failure(rows, total_ok)
        if k is not None:
            raise CertificateError(f"total identity fails at {sol.triple(k)}")
        own = np.arange(rows.start, rows.stop, dtype=np.int32)
        ids = component_id[rows]
        sizes += np.bincount(ids, minlength=n_orbits)
        for i in range(3):
            image = apply_move(params, x, i)
            target = sol._locate(*image)
            moved = np.take(cols[0], target) == image[0]
            moved &= np.take(cols[1], target) == image[1]
            moved &= np.take(cols[2], target) == image[2]
            k = _first_failure(rows, moved)
            if k is not None:
                raise CertificateError(
                    f"move {i} neighbour of {sol.triple(k)} is "
                    f"{sol.triple(int(target[k - rows.start]))}, "
                    f"not {apply_move(params, sol.triple(k), i)}")
            k = _first_failure(rows, np.take(component_id, target) == ids)
            if k is not None:
                raise CertificateError(
                    f"move {i} edge from {sol.triple(k)} to "
                    f"{sol.triple(int(target[k - rows.start]))} "
                    f"joins components {int(component_id[k])} and "
                    f"{int(component_id[target[k - rows.start]])}")
            pair_ok = mod_p(np.add(vals[rows, i], np.take(vals[:, i], target), dtype=np.int64)
                            - s, p) == 0
            k = _first_failure(rows, pair_ok)
            if k is not None:
                identity = "fixed-point" if target[k - rows.start] == k else "pair"
                raise CertificateError(
                    f"{identity} identity fails at {sol.triple(k)} for move {i}")
            n_fixed += int(np.count_nonzero(target == own))
            # float64 sums are exact: a block adds at most BLOCK int32 values, below 2^47
            sums = np.bincount(ids, weights=vals[rows, i], minlength=n_orbits)
            half_sums[i] = (half_sums[i] + sums.astype(np.int64)) % p

    # per-orbit double counting: each i-sum is s*V/2 by the pairing, and
    # the three sum to s*V by the total identity, so s*V/2 = 0
    def require_per_orbit(ok: np.ndarray, identity: str) -> None:
        if not bool(ok.all()):
            size, rep = part.orbits[int(np.flatnonzero(~ok)[0])]
            raise CertificateError(f"{identity} fails for the orbit of {rep} (size {size})")

    require_per_orbit(sizes == part.orbit_sizes(), "orbit size count")
    expect = s * (sizes % p) % p * ((p + 1) // 2) % p  # s*V/2
    for i in range(3):
        require_per_orbit((half_sums[i] - expect) % p == 0, f"half-sum identity for move {i}")
    return CertificateReport(params, m, n_fixed, all(size % p == 0 for size in part.orbit_sizes()))
