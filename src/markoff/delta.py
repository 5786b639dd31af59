"""Construction and verification of the orbit-divisibility certificate.

Three angle functions Delta_i assign a value to every nonzero solution
subject to three identities:

  total:  Delta_1 + Delta_2 + Delta_3 = s            at every point
  pair:   Delta_i(x) + Delta_i(m_i x) = s            for every i
  fix:    Delta_i(x) = s/2                           when m_i x = x

Summing them over an orbit of size V gives s*V = 3*s*V/2, hence
s*V = 0, hence p | V when s != 0.  Delta_i has a closed form wherever
x_{i-1} x_{i+1} != 0, written once in _closed_form for ints and arrays
alike; on a hyperplane x_i = 0 the two values Delta_{i +- 1} are
propagated around the dihedral cycle generated by m_{i-1} and m_{i+1},
one free starting value per cycle.

verify_certificate checks a certificate in one pass over the blocks of
rows: every move edge against coordinates, the total identity, and the
pair identity, which on a self-loop m_i x = x reads 2 Delta_i(x) = s,
the fix identity for odd p.  It then rederives s*V = 0 per orbit from
the per-orbit sums of each Delta_i gathered in the same pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

import numpy as np

from .enumeration import SolutionSet, zero_locus
from .field import chi, inverse, mult_order
from .orbits import OrbitPartition
from .surface import SurfaceParams, Triple, apply_move, moved_coordinate


class NoConsistentExtension(Exception):
    """The angle functions admit no extension over a degenerate zero cycle."""


class CertificateError(Exception):
    """A certificate identity failed; the assignment is not valid."""


def delta_values(params: SurfaceParams, x: Triple) -> Triple:
    """The closed-form (Delta_1, Delta_2, Delta_3) at a point with x1*x2*x3 != 0."""
    if any(v % params.p == 0 for v in x):
        raise ValueError("closed form needs all coordinates nonzero; "
                         "zero-coordinate points are handled by cycle extension")
    return tuple(delta_at(params, x, i) for i in range(3))


def delta_at(params: SurfaceParams, x: Triple, i: int) -> int:
    """Delta_i(x) from _closed_form, the package's only Delta formula.

    Well-defined whenever the two other coordinates are nonzero; in
    particular on the locus x_i = 0, where the first term drops out.
    Coordinates may be any ints; they are reduced mod p first.
    """
    p = params.p
    x = tuple(int(v) % p for v in x)
    if x[(i - 1) % 3] == 0 or x[(i + 1) % 3] == 0:
        raise ValueError(f"Delta_{i} undefined when a neighbouring coordinate vanishes")
    return int(_closed_form(params, x, i))


def _closed_form(params: SurfaceParams, x, i: int):
    """Delta_i = x_i/(x_{i-1}x_{i+1}) + (a_{i-1}/x_{i-1} + a_{i+1}/x_{i+1})/2.

    x[0..2] are ints or broadcastable int64 arrays in [0, p).  The value
    is Delta_i where x_{i-1} and x_{i+1} are nonzero; elsewhere
    inv_table[0] = 0 makes it a finite value in [0, p) that is not
    Delta_i.  Inverses come from inv_table, and every intermediate stays
    below 2 p^2, so int64 is exact for any table prime.
    """
    p = params.p
    a = params.a
    inv = params.field.inv_table
    im1, ip1 = (i - 1) % 3, (i + 1) % 3
    xm, xp = x[im1], x[ip1]
    half = (a[im1] * inv[xm] + a[ip1] * inv[xp]) % p * ((p + 1) // 2)
    return (x[i] * inv[xm * xp % p] + half) % p


@dataclass
class ZeroCycle:
    """Dihedral orbit of a point with x_i = 0 under m_{i-1} and m_{i+1}.

    Stored as the rotation orbit zs = [x, rho x, ...] and its mirror
    ws = [m_{i-1} z for z in zs], rho = m_{i+1} m_{i-1} of order rho_order.
    """

    i: int
    base: Triple
    root: int            # r with x_{i+1} = r * x_{i-1} on the base line
    rho_order: int
    zs: list[Triple]
    ws: list[Triple]

    def points(self) -> list[Triple]:
        if self.rho_order == 1 and self.ws[0] == self.zs[0]:
            return list(self.zs)
        return self.zs + self.ws


def build_zero_cycle(params: SurfaceParams, x: Triple, i: int) -> ZeroCycle:
    """Walk the m_{i+1}, m_{i-1} cycle through a nonzero solution with x_i = 0."""
    p = params.p
    x = tuple(v % p for v in x)
    if x == (0, 0, 0) or x[i] != 0:
        raise ValueError(f"need a nonzero point with coordinate {i} equal to zero")
    ai = params.a[i]
    if chi(ai * ai - 4, p) == -1:
        raise ValueError("no nonzero points on this locus: chi(a_i^2 - 4) = -1")
    im1, ip1 = (i - 1) % 3, (i + 1) % 3
    r = x[ip1] * inverse(x[im1], p) % p
    order = mult_order(r * r % p, p)

    zs, ws = [x], []
    z = x
    while True:
        w = apply_move(params, z, im1)
        ws.append(w)
        z = apply_move(params, w, ip1)
        if z == x:
            break
        zs.append(z)
        if len(zs) > 2 * p:
            raise CertificateError("runaway cycle walk")  # pragma: no cover

    if len(zs) != order:
        raise CertificateError(f"walked cycle length {len(zs)} != order {order}")
    if order == 1:
        if ws[0] != x:
            raise CertificateError("order-1 cycle not collapsed to a fixed point")
    else:
        pts = zs + ws
        if len(set(pts)) != 2 * order:
            raise CertificateError("degenerate 2N cycle with N >= 2")
    return ZeroCycle(i, x, r, order, zs, ws)


def extend_delta(params: SurfaceParams, cycle: ZeroCycle,
                 delta0: int | None = None) -> dict[Triple, Triple]:
    """Fill all three Delta values on a zero cycle, starting from delta0.

    Delta_i on the locus comes from the closed form; Delta_{i-1} starts
    at delta0 on the base point z_0.  One walk around the cycle then
    forces the rest: across each edge the pair identity gives the moved
    neighbour's value, and at its far end the total identity gives the
    other one.  Back at z_0 the recomputed Delta_{i-1} must equal
    delta0, else NoConsistentExtension is raised; it does equal it because
    the Delta_i values sum to zero around any non-degenerate cycle.  For
    an order-1 cycle there is no freedom: both neighbours of Delta_i are
    pinned to s/2, which is consistent only when 2a_{i-1} = a_{i+1}a_i.
    """
    p = params.p
    s = params.s
    i = cycle.i
    im1, ip1 = (i - 1) % 3, (i + 1) % 3
    inv2 = (p + 1) // 2
    if delta0 is None:
        delta0 = s * inv2 % p

    di = {pt: delta_at(params, pt, i) for pt in cycle.points()}
    out: dict[Triple, list[int | None]] = {pt: [None, None, None] for pt in cycle.points()}
    for pt, v in di.items():
        out[pt][i] = v

    if cycle.rho_order == 1:
        x = cycle.base
        a = params.a
        if (2 * a[im1] - a[ip1] * a[i]) % p != 0:
            raise NoConsistentExtension(
                f"double fixed point {x} forces Delta_{i} = 0 but "
                f"2a_{im1} != a_{ip1}a_{i} (mod {p})")
        out[x][im1] = s * inv2 % p
        out[x][ip1] = s * inv2 % p
        assert out[x][i] == 0
        return {pt: tuple(v) for pt, v in out.items()}

    # walk z_0, w_0, z_1, ..., w_{N-1}, z_0; edge k is m_{i-1} for even k
    # and m_{i+1} for odd k: pair identity across it, total at its far end
    z0 = cycle.zs[0]
    walk = [pt for zw in zip(cycle.zs, cycle.ws) for pt in zw] + [z0]
    start = delta0 % p
    out[z0][im1] = start
    for k in range(len(walk) - 1):
        near, far = walk[k], walk[k + 1]
        j, other = (im1, ip1) if k % 2 == 0 else (ip1, im1)
        out[far][j] = (s - out[near][j]) % p
        out[far][other] = (s - di[far] - out[far][j]) % p
    if out[z0][im1] != start:
        raise NoConsistentExtension(
            f"cycle through {cycle.base} (i={i}) is inconsistent")
    return {pt: tuple(v) for pt, v in out.items()}


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


def build_certificate(sol: SolutionSet, delta0: int | None = None,
                      rng: Random | None = None) -> DeltaAssignment:
    """Construct a full certificate for one parameter set.

    delta0 fixes the starting value on every cycle (default s/2); pass
    rng instead to draw an independent starting value per cycle, which
    the identities must survive equally well.

    The closed form is first written into every row, unmasked.  A row
    where it is not Delta_i has x_{i-1} = 0 or x_{i+1} = 0, so its point
    lies on a zero locus; the zero-cycle pass walks a cycle through
    every point of every zero locus and overwrites all three values of
    each row it visits, so none of those placeholders survive.
    """
    params = sol.params
    p = params.p
    if p < 5:
        raise ValueError("certificate construction needs p >= 5")
    if params.s == 0:
        raise ValueError("certificate construction needs s != 0; "
                         "s = 0 surfaces are supported by enumeration and orbits only")
    values = np.zeros((3, len(sol)), dtype=np.int32).T  # column-major, like sol.points
    for rows, x in sol.blocks():
        for i in range(3):
            values[rows, i] = _closed_form(params, x, i)

    # each zero-locus point lies on exactly one locus and one cycle
    cycle_values: dict[Triple, Triple] = {}
    for i in range(3):
        locus = zero_locus(params, i)
        covered: set[Triple] = set()
        for base in locus.points:  # sorted, so each base is the least uncovered point
            if base in covered:
                continue
            cycle = build_zero_cycle(params, base, i)
            start = rng.randrange(p) if rng is not None else delta0
            cycle_values.update(extend_delta(params, cycle, start))
            covered.update(cycle.points())
    if cycle_values:
        rows = sol.lookup_array(np.array(list(cycle_values), dtype=np.int64).T)
        values[rows] = list(cycle_values.values())
    return DeltaAssignment(sol, values)


@dataclass
class OrbitCheck:
    size: int
    rep: Triple
    sum_mod_p: int        # s*V mod p, recomputed from the assignment
    divisible_by_p: bool


@dataclass
class CertificateReport:
    params: SurfaceParams
    n_points: int
    n_fixed_edges: int
    orbit_checks: list[OrbitCheck]

    @property
    def all_divisible(self) -> bool:
        return all(c.divisible_by_p for c in self.orbit_checks)


def _first_failure(rows: slice, ok: np.ndarray) -> int | None:
    """Row index of the first False in a block's bool array, None if all hold."""
    if bool(ok.all()):
        return None
    return rows.start + int(np.flatnonzero(~ok)[0])


def verify_certificate(assign: DeltaAssignment, part: OrbitPartition) -> CertificateReport:
    """Check every move edge and every identity, and rederive p | V per orbit.

    One pass over the blocks of rows checks, in int64, the total
    identity at each row and then, for each move i and target row
    part.neighbors[i, k]: the target's coordinates against m_i recomputed
    with moved_coordinate, so a faulty neighbour lookup cannot certify
    itself; that both ends share a component id; and the pair identity,
    which at a fixed edge (target k) reads 2 Delta_i = s, the fix
    identity for odd p.  The same pass counts the rows of each id and
    sums each Delta_i per id.  The ids must then count the partition's
    orbit sizes, and each orbit's Delta_i sum must be s*V/2; summed
    over i it is s*V, so s*V/2 = 0 and p | V.  Raises CertificateError
    naming the point (or the orbit's representative), the move and the
    identity; ValueError outside the domain of build_certificate.
    """
    sol = assign.solutions
    params = sol.params
    p, s = params.p, params.s
    if p < 5 or s == 0:
        raise ValueError("certificate verification needs p >= 5 and s != 0")
    vals = assign.values
    nbr, component_id = part.neighbors, part.component_id
    m, n_orbits = len(sol), len(part.orbits)
    if vals.shape != (m, 3):
        raise ValueError("assignment does not cover the solution set")
    if nbr.shape != (3, m) or component_id.shape != (m,):
        raise ValueError("orbit partition does not match the solution set")
    # np.take wraps negative indices, so the range is checked up front
    if m and (nbr.min() < 0 or nbr.max() >= m):
        raise CertificateError("neighbour index outside the solution set")
    if m and (component_id.min() < 0 or component_id.max() >= n_orbits):
        raise CertificateError("component id outside the orbit numbering")

    cols = [sol.points[:, j] for j in range(3)]
    n_fixed = 0
    sizes = np.zeros(n_orbits, dtype=np.int64)
    half_sums = np.zeros((3, n_orbits), dtype=np.int64)  # per orbit: sum of Delta_i mod p
    for rows, x in sol.blocks():
        # sums in int64, as a corrupted value may be any int32
        total_ok = (vals[rows, 0].astype(np.int64) + vals[rows, 1] + vals[rows, 2] - s) % p == 0
        k = _first_failure(rows, total_ok)
        if k is not None:
            raise CertificateError(f"total identity fails at {sol.triple(k)}")
        own = np.arange(rows.start, rows.stop, dtype=np.int32)
        ids = component_id[rows]
        sizes += np.bincount(ids, minlength=n_orbits)
        for i in range(3):
            target = nbr[i, rows]
            moved = np.take(cols[i], target) == moved_coordinate(params, x, i)
            for j in ((i - 1) % 3, (i + 1) % 3):
                moved &= np.take(cols[j], target) == x[j]
            k = _first_failure(rows, moved)
            if k is not None:
                raise CertificateError(
                    f"move {i} neighbour of {sol.triple(k)} is {sol.triple(int(nbr[i, k]))}, "
                    f"not {apply_move(params, sol.triple(k), i)}")
            k = _first_failure(rows, np.take(component_id, target) == ids)
            if k is not None:
                raise CertificateError(
                    f"move {i} edge from {sol.triple(k)} to {sol.triple(int(nbr[i, k]))} "
                    f"joins components {int(component_id[k])} and "
                    f"{int(component_id[nbr[i, k]])}")
            pair_ok = (np.add(vals[rows, i], np.take(vals[:, i], target), dtype=np.int64)
                       - s) % p == 0
            k = _first_failure(rows, pair_ok)
            if k is not None:
                identity = "fixed-point" if nbr[i, k] == k else "pair"
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
    sv = half_sums.sum(axis=0) % p
    require_per_orbit(sv == s * (sizes % p) % p, "orbit sum identity s*V")
    checks = [OrbitCheck(size, rep, int(sum_mod_p), size % p == 0)
              for (size, rep), sum_mod_p in zip(part.orbits, sv)]
    return CertificateReport(params, m, n_fixed, checks)
