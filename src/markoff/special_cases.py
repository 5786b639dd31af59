"""Worked families where p-divisibility of orbit sizes fails.

Two families are analysed in full: a = (2, 2, -2), which has singleton,
barbell and tripod orbits for every prime, and a = (0, 0, -3), where
s = 0 and the moves act linearly, so orbit counts follow from the
Burnside average over a dihedral matrix group.  That family's orbit
counts are also read from the s = 0 orbit engine, orbits.cone_orbits,
on the slices it lists in O(p), which are checked on their own: no
stage enumerates its surface.

The move-graph check behind the (2, 2, -2) orbits and the p = 3 cube
reads one coordinate per move: m_i changes only x_i, so
moved_coordinate gives the image.  The Burnside average applies rho
and m1 as matrices once, to build the permutations they induce on the
slices, and then walks indices: one lookup per point and step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .enumeration import enumerate_solutions
from .field import (_order_from_group, chi, inverse, is_prime, mod_p,
                    validate_odd_prime, validate_prime)
from .orbits import compute_orbits, cone_orbits, size_table
from .surface import SurfaceParams, Triple, moved_coordinate, residual_array

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

    The bfs_* counts come from the s = 0 orbit engine, cone_orbits,
    which labels the projective classes of the cone without enumerating
    the surface: they count its orbit labels on the slices x3 in
    {0, 1, -1}, so no least point is sought.  m1 and m2 do not read x3
    and m3 only negates it, so each orbit meets the slice x3 = 1 in
    exactly one <m1, m2>-orbit of conic1, and a point of conic0 only in
    its <m1, m2>-orbit.  The
    slices are read off the engine's classes, (x1, x2, 1) and every
    multiple of (x1, 1, 0), and then checked on their own by
    _check_slice: distinct points of the surface with the right x3, as
    many as the slice holds.  So the closed form and the Burnside
    counts, which take the same slices as arrays, do not rest on the
    engine's list of classes.
    """
    if p <= 5:
        raise ValueError("this family needs p > 5")
    sqrt5, order = lambda_order(p)
    ch5 = chi(5, p)

    params = SurfaceParams.make(p, (0, 0, -3))
    part = cone_orbits(params)
    reps = part.reps
    conic1 = reps[:, reps[2] == 1]
    conic0 = (reps[:, reps[2] == 0][:, :, None] * np.arange(1, p) % p).reshape(3, -1)
    _check_slice(params, conic1, 1, p - ch5)
    _check_slice(params, conic0, 0, (1 + ch5) * (p - 1))
    minus1 = conic1.copy()
    minus1[2] = p - 1  # m3 maps the slice x3 = 1 onto x3 = -1
    labels1 = part.labels(conic1)
    sizes1 = np.unique(labels1, return_counts=True)[1]
    labels0 = np.unique(part.labels(conic0))
    labels_pm1 = np.unique(np.append(labels1, part.labels(minus1)))

    burnside_conic1, burnside_conic0 = _burnside(p, order, conic1, conic0)
    formula1 = (p - ch5) // (2 * order) + (1 if sqrt5 else 0)
    formula0 = (p - 1) // order if sqrt5 else 0

    return DihedralReport(
        p=p, sqrt5_in_fp=sqrt5, lambda_order=order,
        conic1_orbits=formula1, conic0_orbits=formula0,
        bfs_conic1=len(sizes1), bfs_conic0=len(labels0),
        burnside_conic1=burnside_conic1, burnside_conic0=burnside_conic0,
        conic1_sizes=sorted(sizes1.tolist()), full_orbits_pm1=len(labels_pm1),
    )


def _burnside(p: int, order: int, *slices: np.ndarray) -> list[int]:
    """Each slice's orbit count: fixed points averaged over rho^k and m1 rho^k, 0 <= k < order.

    rho and m1 permute the points of each slice.  Both permutations are
    built once, from one matrix product each and a search of the
    slice's sorted keys x1 p + x2; an image outside its slice raises
    ArithmeticError.  The walk then steps indices, w = rho^k v for the
    points v of every slice at once: rho^k fixes v where w = v, and
    m1 rho^k, m1 being an involution, where w = m1 v.  Each step adds
    both tests to a hit count per point, and each slice sums its own
    points' counts.  Raises ArithmeticError if rho^order does not return
    a slice to itself, or a slice's total is not a multiple of 2*order.
    """
    matrices = [np.array(m, dtype=np.int64) for m in _m1_and_rho(p)]
    mirror, step, start = [], [], 0
    for points in slices:
        keys = points[0] * p + points[1]
        rank = np.argsort(keys)
        keys, v = keys[rank], points[:2, rank]
        for matrix, name, perm in zip(matrices, ("m1", "rho"), (mirror, step)):
            image = mod_p(matrix @ v, p)
            image = image[0] * p + image[1]
            index = np.searchsorted(keys, image)
            if not np.array_equal(np.take(keys, index, mode="clip"), image):
                raise ArithmeticError(f"{name} maps a point off its slice")
            perm.append(index + start)
        start += len(keys)
    mirror, step = np.concatenate(mirror), np.concatenate(step)
    identity = np.arange(start)
    hits = np.zeros(start, dtype=np.int64)
    w = identity
    for _ in range(order):
        hits += w == identity
        hits += w == mirror
        w = step.take(w)
    counts, start = [], 0
    for points in slices:
        part = slice(start, start + points.shape[1])
        start = part.stop
        if not np.array_equal(w[part], identity[part]):
            raise ArithmeticError("rho does not have the claimed order")
        total = int(hits[part].sum())
        if total % (2 * order):
            raise ArithmeticError("Burnside average is not an integer")
        counts.append(total // (2 * order))
    return counts


def _check_slice(params: SurfaceParams, x: np.ndarray, x3: int, expected: int) -> None:
    """Raise ArithmeticError unless the int64 columns x list the slice at x3.

    The slice holds exactly `expected` points, so `expected` distinct
    points of the surface with that x3 are the whole slice, wherever
    they came from.
    """
    p = params.p
    name = f"the slice x3 = {x3}"
    if x.shape[1] != expected:
        raise ArithmeticError(f"{name} has {x.shape[1]} points listed, not {expected}")
    if (x[2] != x3).any() or residual_array(params, x).any():
        raise ArithmeticError(f"{name} lists a point off the slice or off the surface")
    if len(np.unique((x[0] * p + x[1]) * p + x[2])) != expected:
        raise ArithmeticError(f"{name} lists a point twice")


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


# s times the points of each closed-form orbit of a = (2, 2, -2), and its
# move edges (j, i, k): move i joins the orbit's points j and k
_TRIPOD_EDGES = ((0, 0, 1), (0, 1, 2), (0, 2, 3))
_TINY_22M2 = (
    ("singleton", ((4, 4, 0),), ()),
    ("singleton", ((4, 0, -4),), ()),
    ("singleton", ((0, 4, -4),), ()),
    ("barbell", ((0, 2, -2), (4, 2, -2)), ((0, 0, 1),)),
    ("barbell", ((2, 0, -2), (2, 4, -2)), ((0, 1, 1),)),
    ("barbell", ((2, 2, 0), (2, 2, -4)), ((0, 2, 1),)),
    ("tripod", ((3, 3, -3), (0, 3, -3), (3, 0, -3), (3, 3, 0)), _TRIPOD_EDGES),
    ("tripod", ((3, 1, -1), (0, 1, -1), (3, 4, -1), (3, 1, -4)), _TRIPOD_EDGES),
    ("tripod", ((1, 3, -1), (4, 3, -1), (1, 0, -1), (1, 3, -4)), _TRIPOD_EDGES),
    ("tripod", ((1, 1, -3), (4, 1, -3), (1, 4, -3), (1, 1, 0)), _TRIPOD_EDGES),
)


def tiny_orbits_22m2(params: SurfaceParams) -> TinyOrbitReport:
    """Verify the closed-form size 1, 2 and 4 orbits for a = (2, 2, -2).

    The templates of _TINY_22M2 are rational in 1/s, so s = 0 (p = 5) is
    excluded; at p = 3 the tripod points collapse onto the origin and
    the tripods are reported as degenerate.  Each template lists its
    points and its move edges: none for a singleton, one for a barbell,
    and edge i from the centre to leaf i for a tripod.
    _check_move_graph checks, template by template since a small p can
    make templates collide, that these edges are exactly the moves
    among the points, so the template is closed under the moves and
    connected, hence one orbit; verified_size is its number of distinct
    points.  A failed check raises ArithmeticError.
    """
    p = validate_odd_prime(params.p)
    if tuple(v % p for v in (2, 2, -2)) != params.a:
        raise ValueError("this analysis is specific to a = (2, 2, -2)")
    if params.s == 0:
        return TinyOrbitReport(params, True, [], [], [], True)
    u = inverse(params.s, p)
    tripods_degenerate = p == 3
    groups = {"singleton": [], "barbell": [], "tripod": []}
    for kind, template, links in _TINY_22M2:
        if kind == "tripod" and tripods_degenerate:
            continue
        points = [(c1 * u % p, c2 * u % p, c3 * u % p) for c1, c2, c3 in template]
        edges = [(points[j], i, points[k]) for j, i, k in links]
        size = _check_move_graph(params, points, edges)
        groups[kind].append(TinyOrbit(kind, points, edges, size))
    return TinyOrbitReport(params, False, groups["singleton"], groups["barbell"],
                           groups["tripod"], tripods_degenerate)


def _check_move_graph(params: SurfaceParams, points: list[Triple],
                      edges: list[tuple[Triple, int, Triple]]) -> int:
    """The number of distinct points, once the listed edges are checked to be exactly their moves.

    Every point must lie on the surface, every edge must join two listed
    points, and for every point x and move i, m_i x must be the other end
    of the listed edge (x, i, .) or (., i, x), or x itself when no such
    edge is listed.  m_i changes only coordinate i, so that is read with
    moved_coordinate and compared with coordinate i of the expected end,
    and a listed end must agree with x off coordinate i; the image is
    built only to name it.  Raises ArithmeticError on the first mismatch.
    """
    listed = set(points)
    other_end = {}  # x -> {i: the other end of the listed edge (x, i, .) or (., i, x)}
    for left, i, right in edges:
        if left not in listed or right not in listed:
            raise ArithmeticError(f"move {i} edge from {left} to {right} leaves the listed points")
        other_end.setdefault(left, {})[i] = right
        other_end.setdefault(right, {})[i] = left
    for x in points:
        if residual_array(params, x):
            raise ArithmeticError(f"{x} is not on the surface")
        ends = other_end.get(x, {})
        for i in range(3):
            expected = ends.get(i, x)
            moved = moved_coordinate(params, x, i)
            # x[i - 1] and x[i - 2] are the two coordinates m_i leaves alone
            if moved != expected[i] or (expected is not x and (x[i - 1] != expected[i - 1]
                                                               or x[i - 2] != expected[i - 2])):
                image = (*x[:i], moved, *x[i + 1:])
                raise ArithmeticError(f"move {i} maps {x} to {image}, expected {expected}")
    return len(listed)


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
    n_points = _check_move_graph(params, points, edges)
    sol = enumerate_solutions(params)
    return CubeReport(points, edges, n_points, compute_orbits(sol).multiset,
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
