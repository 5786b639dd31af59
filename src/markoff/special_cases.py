"""Worked families where p-divisibility of orbit sizes fails.

Two families are analysed in full: a = (2, 2, -2), which has singleton,
barbell and tripod orbits for every prime, and a = (0, 0, -3), where
s = 0 and the moves act linearly, so orbit counts follow from the
Burnside average over a dihedral matrix group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .enumeration import enumerate_solutions
from .field import (_order_from_group, chi, inverse, is_prime,
                    validate_odd_prime, validate_prime)
from .orbits import compute_orbits, size_table
from .surface import SurfaceParams, Triple, apply_move, on_surface

# Previously reported orbit-size tables for a = (2, 2, -2).  The rows
# listed in UNDERCOUNTED_SIZE4 record three orbits of size 4 where the
# recomputation finds four; everything else matches.
REFERENCE_TABLE_22M2: dict[int, dict[int, int]] = {
    2: {4: 1},
    3: {1: 3, 2: 3},
    5: {12: 2},
    7: {1: 3, 2: 3, 4: 3, 8: 3},
    11: {1: 3, 2: 3, 4: 3, 12: 4, 16: 3},
    13: {1: 3, 2: 3, 4: 4, 16: 3, 24: 4},
    17: {1: 3, 2: 3, 4: 4, 8: 3, 32: 3, 36: 4},
    19: {1: 3, 2: 3, 4: 3, 12: 4, 36: 4, 48: 3},
    23: {1: 3, 2: 3, 4: 3, 8: 3, 16: 3, 60: 4, 64: 3},
    29: {1: 3, 2: 3, 4: 3, 12: 4, 24: 4, 96: 7},
    31: {1: 3, 2: 3, 4: 3, 8: 3, 12: 4, 32: 3, 96: 4, 128: 3},
    37: {1: 3, 2: 3, 4: 3, 16: 3, 36: 4, 144: 3, 180: 4},
    41: {1: 3, 2: 3, 4: 3, 8: 3, 12: 4, 24: 4, 48: 3, 192: 7},
    43: {1: 3, 2: 3, 4: 3, 24: 4, 60: 4, 192: 4, 240: 3},
}
UNDERCOUNTED_SIZE4 = frozenset({7, 11, 19, 23, 29, 31, 37, 41, 43})


# --- a = (0, 0, -3) ---------------------------------------------------------

def lambda_order(p: int) -> tuple[bool, int]:
    """Whether sqrt(5) is in F_p, and the order of lambda = (7 + 3*sqrt(5))/2.

    lambda and 1/lambda are the roots of t^2 - 7t + 1, the characteristic
    polynomial of rho = m1 m2 = ((8, -3), (3, -1)), the composed move on
    the linear fibres of the a = (0, 0, -3) surface.  For p > 5 the
    discriminant 45 is nonzero, so the roots are distinct, rho is
    diagonalisable over F_p or F_{p^2}, and ord(lambda) = ord(rho).
    lambda lies in F_p^x when chi(5) = 1 and in the norm-1 torus of
    F_{p^2} otherwise, so ord(rho) divides p - chi(5); as lambda =
    theta^2 with theta = (3 + sqrt(5))/2, it even divides (p - chi(5))/2.
    """
    validate_prime(p)
    if p <= 5:
        raise ValueError("lambda order needs p > 5")
    ch5 = chi(5, p)
    _, rho = _m1_and_rho(p)
    return ch5 == 1, _order_from_group(lambda k: _mat_pow(rho, k, p) == _IDENTITY, p - ch5)


_IDENTITY = ((1, 0), (0, 1))


def _mat_mul(a, b, p):
    return (
        ((a[0][0] * b[0][0] + a[0][1] * b[1][0]) % p, (a[0][0] * b[0][1] + a[0][1] * b[1][1]) % p),
        ((a[1][0] * b[0][0] + a[1][1] * b[1][0]) % p, (a[1][0] * b[0][1] + a[1][1] * b[1][1]) % p),
    )


def _mat_pow(a, k: int, p: int):
    """a^k mod p by square-and-multiply."""
    result = _IDENTITY
    while k:
        if k & 1:
            result = _mat_mul(result, a, p)
        a = _mat_mul(a, a, p)
        k >>= 1
    return result


def _m1_and_rho(p: int):
    """m1 and rho = m1 m2 as matrices acting on (x1, x2) mod p."""
    m1 = ((p - 1, 3), (0, 1))
    m2 = ((1, 0), (3, p - 1))
    return m1, _mat_mul(m1, m2, p)


@dataclass
class DihedralReport:
    """Orbit counts for a = (0, 0, -3): closed form, orbit engine and Burnside agree."""

    p: int
    sqrt5_in_fp: bool
    lambda_order: int
    conic1_orbits: int          # closed form, m1 and m2 acting on the slice x3 = 1
    conic0_orbits: int          # closed form, slice x3 = 0 without the origin
    bfs_conic1: int
    bfs_conic0: int
    burnside_conic1: int
    burnside_conic0: int
    conic1_sizes: list[int]
    full_orbits_pm1: int        # m1, m2, m3 acting on both slices x3 = +-1

    @property
    def consistent(self) -> bool:
        return (self.conic1_orbits == self.bfs_conic1 == self.burnside_conic1
                and self.conic0_orbits == self.bfs_conic0 == self.burnside_conic0)


def orbits_00_minus3(p: int) -> DihedralReport:
    """Count orbits on the two distinguished conics three independent ways.

    The slice x3 = 1 is the conic x^2 + y^2 - 3xy + 1 = 0 with
    p - chi(5) points; the slice x3 = 0 is a pair of lines through the
    origin (empty when chi(5) = -1).  m3 is the sign change in x3,
    m1 and m2 act linearly on (x1, x2).

    The bfs_* counts come from the orbit engine, compute_orbits, run on
    the slices x3 in {0, 1, -1} of the enumerated surface.  m1 and m2
    do not read x3 and m3 only negates it, so these slices are closed
    under the moves and their orbits are orbits of the whole surface;
    SolutionSet.restrict refuses a split cell and compute_orbits a move
    that leaves the slices, so the closure is checked, not assumed.
    Each orbit meets the slice x3 = 1 in exactly one <m1, m2>-orbit of
    conic1, and a point of conic0 only in its <m1, m2>-orbit.  The
    Burnside counts take the same slices as arrays.
    """
    if p <= 5:
        raise ValueError("this family needs p > 5")
    sqrt5, order = lambda_order(p)
    ch5 = chi(5, p)

    sol = enumerate_solutions(SurfaceParams.make(p, (0, 0, -3)))
    x3 = sol.points[:, 2]
    sol = sol.restrict((x3 <= 1) | (x3 == p - 1))
    x3 = sol.points[:, 2]  # the last reference to the whole surface goes here
    component_id = compute_orbits(sol).component_id
    on1, on0 = x3 == 1, x3 == 0
    sizes1 = np.bincount(component_id[on1])
    sizes1 = sizes1[sizes1 > 0]
    ids0 = np.unique(component_id[on0])
    ids_pm1 = np.unique(component_id[~on0])

    m1, rho = _m1_and_rho(p)
    (m00, m01), (m10, m11) = m1
    (r00, r01), (r10, r11) = rho

    def burnside(points: np.ndarray) -> int:
        """Fixed points averaged over the 2*order elements rho^k and m1 rho^k.

        One walk w = rho^k v counts both: rho^k fixes v where w = v, and
        m1 rho^k, m1 being an involution, where w = m1 v.
        """
        x, y = points[:, 0].astype(np.int64), points[:, 1].astype(np.int64)
        m1x, m1y = (m00 * x + m01 * y) % p, (m10 * x + m11 * y) % p
        wx, wy, total = x, y, 0
        for _ in range(order):
            total += (int(np.count_nonzero((wx == x) & (wy == y)))
                      + int(np.count_nonzero((wx == m1x) & (wy == m1y))))
            wx, wy = (r00 * wx + r01 * wy) % p, (r10 * wx + r11 * wy) % p
        if not (np.array_equal(wx, x) and np.array_equal(wy, y)):
            raise ArithmeticError("rho does not have the claimed order")
        if total % (2 * order):
            raise ArithmeticError("Burnside average is not an integer")
        return total // (2 * order)

    formula1 = (p - ch5) // (2 * order) + (1 if sqrt5 else 0)
    formula0 = (p - 1) // order if sqrt5 else 0

    return DihedralReport(
        p=p, sqrt5_in_fp=sqrt5, lambda_order=order,
        conic1_orbits=formula1, conic0_orbits=formula0,
        bfs_conic1=len(sizes1), bfs_conic0=len(ids0),
        burnside_conic1=burnside(sol.points[on1]), burnside_conic0=burnside(sol.points[on0]),
        conic1_sizes=sorted(sizes1.tolist()), full_orbits_pm1=len(ids_pm1),
    )


# --- a = (2, 2, -2) ---------------------------------------------------------

@dataclass
class TinyOrbit:
    """One closed-form small orbit: its points, verified size, and move edges."""

    kind: str                       # "singleton", "barbell" or "tripod"
    points: list[Triple]
    edges: list[tuple[Triple, int, Triple]]
    verified_size: int              # distinct points, once the move graph checks out


@dataclass
class TinyOrbitReport:
    params: SurfaceParams
    s_zero: bool
    singletons: list[TinyOrbit]
    barbells: list[TinyOrbit]
    tripods: list[TinyOrbit]
    tripods_degenerate: bool

    def all_verified(self) -> bool:
        expected = {"singleton": 1, "barbell": 2, "tripod": 4}
        groups = self.singletons + self.barbells
        if not self.tripods_degenerate:
            groups = groups + self.tripods
        return all(t.verified_size == expected[t.kind] for t in groups)


def tiny_orbits_22m2(params: SurfaceParams) -> TinyOrbitReport:
    """Verify the closed-form size 1, 2 and 4 orbits for a = (2, 2, -2).

    The templates are rational in 1/s, so s = 0 (p = 5) is excluded; at
    p = 3 the tripod points collapse onto the origin and the tripods are
    reported as degenerate.  Each template lists its points and its move
    edges: none for a singleton, one for a barbell, and edge i from the
    centre to leaf i for a tripod.  _check_move_graph checks that these
    edges are exactly the moves among the points, so the template is
    closed under the moves and connected, hence one orbit; verified_size
    is its number of distinct points.  A failed check raises
    ArithmeticError.
    """
    p = validate_odd_prime(params.p)
    if tuple(v % p for v in (2, 2, -2)) != params.a:
        raise ValueError("this analysis is specific to a = (2, 2, -2)")
    if params.s == 0:
        return TinyOrbitReport(params, True, [], [], [], True)
    u = inverse(params.s, p)

    def t(c1, c2, c3) -> Triple:
        return (c1 * u % p, c2 * u % p, c3 * u % p)

    def checked(kind, points, edges) -> TinyOrbit:
        _check_move_graph(params, points, edges)
        return TinyOrbit(kind, points, edges, len(set(points)))

    def barbell(left, i, right) -> TinyOrbit:
        return checked("barbell", [left, right], [(left, i, right)])

    def tripod(center, leaves) -> TinyOrbit:
        return checked("tripod", [center] + leaves,
                       [(center, i, leaf) for i, leaf in enumerate(leaves)])

    singletons = [checked("singleton", [x], [])
                  for x in (t(4, 4, 0), t(4, 0, -4), t(0, 4, -4))]
    barbells = [
        barbell(t(0, 2, -2), 0, t(4, 2, -2)),
        barbell(t(2, 0, -2), 1, t(2, 4, -2)),
        barbell(t(2, 2, 0), 2, t(2, 2, -4)),
    ]
    tripods_degenerate = p == 3
    tripods = [] if tripods_degenerate else [
        tripod(t(3, 3, -3), [t(0, 3, -3), t(3, 0, -3), t(3, 3, 0)]),
        tripod(t(3, 1, -1), [t(0, 1, -1), t(3, 4, -1), t(3, 1, -4)]),
        tripod(t(1, 3, -1), [t(4, 3, -1), t(1, 0, -1), t(1, 3, -4)]),
        tripod(t(1, 1, -3), [t(4, 1, -3), t(1, 4, -3), t(1, 1, 0)]),
    ]
    return TinyOrbitReport(params, False, singletons, barbells, tripods, tripods_degenerate)


def _check_move_graph(params: SurfaceParams, points: list[Triple],
                      edges: list[tuple[Triple, int, Triple]]) -> None:
    """Check that the listed edges are exactly the moves among the points.

    Every point must lie on the surface, every edge must join two listed
    points, and for every point x and move i, m_i x must be the other end
    of the listed edge (x, i, .) or (., i, x), or x itself when no such
    edge is listed.  Raises ArithmeticError on the first mismatch.
    """
    listed = set(points)
    other_end = {}
    for left, i, right in edges:
        if left not in listed or right not in listed:
            raise ArithmeticError(f"move {i} edge from {left} to {right} leaves the listed points")
        other_end[left, i], other_end[right, i] = right, left
    for x in points:
        if not on_surface(params, x):
            raise ArithmeticError(f"{x} is not on the surface")
        for i in range(3):
            image, expected = apply_move(params, x, i), other_end.get((x, i), x)
            if image != expected:
                raise ArithmeticError(f"move {i} maps {x} to {image}, expected {expected}")


# --- the p = 3 cube ---------------------------------------------------------

@dataclass
class CubeReport:
    points: list[Triple]                        # the vertices {1, 2}^3
    edges: list[tuple[Triple, int, Triple]]     # edge i negates coordinate i
    n_points: int                               # distinct points, once the move graph checks out
    multiset: dict[int, int]                    # orbit sizes from compute_orbits
    is_cube: bool                               # the vertices are every nonzero solution


def markoff_p3() -> CubeReport:
    """a = (0, 0, 0) mod 3: eight nonzero solutions forming one 3-cube orbit.

    The cube is listed as the vertices {1, 2}^3 and, for each move i, the
    four edges that negate coordinate i.  _check_move_graph checks that
    these edges are exactly the moves among the vertices and raises
    ArithmeticError otherwise; is_cube then says whether the vertices
    are the whole enumerated solution set, so that the move graph of
    the surface is the cube.
    """
    params = SurfaceParams.make(3, (0, 0, 0))
    points = list(itertools.product((1, 2), repeat=3))
    edges = [(x, i, tuple(-v % 3 if j == i else v for j, v in enumerate(x)))
             for x in points for i in range(3) if x[i] == 1]
    _check_move_graph(params, points, edges)
    sol = enumerate_solutions(params)
    return CubeReport(points, edges, len(set(points)), compute_orbits(sol).multiset,
                      points == list(sol.iter_triples()))


# --- orbit tables for a = (2, 2, -2) ----------------------------------------

@dataclass
class TableRow:
    p: int
    computed: dict[int, int]
    reference: dict[int, int] | None
    matches_reference: bool | None
    corrected_match: bool | None      # match after fixing the size-4 undercount

    def table_string(self) -> str:
        return size_table(self.computed)


def primes_up_to(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if is_prime(p)]


def orbit_table_22m2(max_p: int) -> list[TableRow]:
    """Recompute the orbit-size tables for a = (2, 2, -2), p <= max_p."""
    if max_p < 2:
        raise ValueError(f"the table needs max_p >= 2, got {max_p}")
    rows = []
    for p in primes_up_to(max_p):
        params = SurfaceParams.make(p, (2, 2, -2))
        part = compute_orbits(enumerate_solutions(params))
        computed = part.multiset
        ref = REFERENCE_TABLE_22M2.get(p)
        matches = corrected = None
        if ref is not None:
            matches = computed == ref
            fixed = dict(ref)
            if fixed.get(4) == 3:
                fixed[4] = 4
            corrected = computed == fixed
        rows.append(TableRow(p, computed, ref, matches, corrected))
    return rows


def table_csv(rows: list[TableRow]) -> str:
    """CSV rendering: header "p,orbit_sizes" and one quoted table per prime."""
    lines = ["p,orbit_sizes"]
    for row in rows:
        lines.append(f'{row.p},"{row.table_string()}"')
    return "\n".join(lines) + "\n"
