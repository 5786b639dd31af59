"""Deliberately naive reference implementations used as test oracles.

Everything here is written the dumb way (triple loops, dict BFS, root
search by scanning) so that agreement with the package is meaningful.
The checks at the end test lemmas against the package on point arrays.
"""

import itertools

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from markoff.enumeration import SolutionSet
from markoff.orbits import neighbor_indices
from markoff.surface import moved_coordinate, residual_array


def naive_residual(p, a, x):
    a1, a2, a3 = a
    x1, x2, x3 = x
    s = (3 + a1 + a2 + a3) % p
    return (x1 * x1 + x2 * x2 + x3 * x3
            + a1 * x2 * x3 + a2 * x1 * x3 + a3 * x1 * x2
            - s * x1 * x2 * x3) % p


def all_triples(p):
    return list(itertools.product(range(p), repeat=3))


def naive_solutions(p, a):
    return [x for x in all_triples(p) if x != (0, 0, 0) and naive_residual(p, a, x) == 0]


def naive_move(p, a, x, i):
    """m_i x for one point, or for the int64 coordinate columns x[0..2] of many."""
    s = (3 + sum(a)) % p
    y = list(x)
    im1, ip1 = (i - 1) % 3, (i + 1) % 3
    y[i] = (-x[i] + s * x[im1] * x[ip1] - a[ip1] * x[im1] - a[im1] * x[ip1]) % p
    return tuple(y)


def zero_plane(sol, i):
    """The rows of a SolutionSet with x_i = 0, as sorted tuples."""
    pts = sol.points
    return [tuple(x) for x in pts[pts[:, i] == 0].tolist()]


def dihedral_cycles(p, a, points, i):
    """Split points of the plane x_i = 0 into orbits of m_{i-1} and m_{i+1}.

    Yields (zs, ws) for each orbit, from its least remaining point z:
    zs = [z, rho z, ...] is the rotation orbit under rho = m_{i+1} m_{i-1}
    and ws = [m_{i-1} y for y in zs], so len(zs) is the order of rho and
    zs + ws lists each point of a dihedral cycle once, except that an
    order-one cycle (a double fixed point) appears twice.
    """
    im1, ip1 = (i - 1) % 3, (i + 1) % 3
    remaining = set(points)
    while remaining:
        z0 = min(remaining)
        zs, ws = [], []
        z = z0
        while not zs or z != z0:
            zs.append(z)
            ws.append(naive_move(p, a, z, im1))
            z = naive_move(p, a, ws[-1], ip1)
        remaining -= set(zs) | set(ws)
        yield zs, ws


def naive_orbits(p, a):
    """Orbits by plain BFS over dicts; returns a list of sorted point lists."""
    solutions = set(naive_solutions(p, a))
    seen = set()
    orbits = []
    for start in sorted(solutions):
        if start in seen:
            continue
        component = {start}
        stack = [start]
        while stack:
            y = stack.pop()
            for i in range(3):
                z = naive_move(p, a, y, i)
                assert z in solutions, "moves must preserve the surface"
                if z not in component:
                    component.add(z)
                    stack.append(z)
        seen |= component
        orbits.append(sorted(component))
    return orbits


def strong_search_orbits(sol):
    """(component_id, orbits, multiset) from scipy's strong search on the point graph.

    The reference for compute_orbits' cell search: one node per point,
    whose CSR row lists the rows of its three move images (found by
    row lookup in neighbor_indices), and ids ranked by first row.  The
    moves are involutions, so the strongly connected components are the
    orbits.  On scipy 1.17.1 the strong search hangs, inside C code, when
    a row lists another vertex twice, so that is refused first; by the
    no-bigons fact a row repeats a column only as a self-loop.
    """
    m = len(sol)
    rows = neighbor_indices(sol).T
    own = np.arange(m)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        repeated = rows[:, i] == rows[:, j]
        assert np.array_equal(rows[repeated, i], own[repeated]), (i, j)
    graph = csr_matrix((np.ones(3 * m), rows.ravel(), np.arange(0, 3 * m + 1, 3)), shape=(m, m))
    n, labels = connected_components(graph, directed=True, connection="strong")
    first = np.full(n, m)
    np.minimum.at(first, labels, own)
    order = np.argsort(first)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    ids = rank[labels]
    sizes = np.bincount(ids, minlength=n)
    orbits = [(int(sizes[k]), sol.triple(int(first[order[k]]))) for k in range(n)]
    multiset = {}
    for size, _ in orbits:
        multiset[size] = multiset.get(size, 0) + 1
    return ids, orbits, dict(sorted(multiset.items()))


def restrict(sol, keep):
    """The rows of a SolutionSet where the bool mask keep is True, as a SolutionSet.

    Every kept cell must be whole: ValueError is raised if a cell keeps
    one row and drops the other, so the m_2 image of a kept point (the
    other row of its cell) is always kept.  Cells with no kept row
    become empty, and compute_orbits raises KeyError for a move image in
    an empty cell, so on the result it checks that the kept rows are
    closed under m_0 and m_1.
    """
    p = sol.params.p
    points = np.stack([sol.points[:, j][keep] for j in range(3)]).T  # column-major
    cell = points[:, 0].astype(np.int64) * p + points[:, 1]
    cells, first = np.unique(cell, return_index=True)
    counts = np.diff(first, append=len(cell))
    whole = counts == np.take(sol.offsets, cells + 1) - np.take(sol.offsets, cells)
    if not bool(whole.all()):
        k = int(first[np.flatnonzero(~whole)[0]])
        raise ValueError(f"the kept rows split the cell of {tuple(points[k].tolist())}")
    # offsets[c] is first[k] for cells[k-1] < c <= cells[k], and M past
    # the last kept cell; no array of p^2 counts is built
    offsets = np.repeat(np.append(first, len(cell)).astype(np.int32),
                        np.diff(cells, prepend=-1, append=p * p))
    return SolutionSet(sol.params, points, offsets)


def naive_conic_count(p, B, D, E, F):
    return sum(1 for x in range(p) for y in range(p)
               if (x * x + B * x * y + y * y + D * x + E * y + F) % p == 0)


def squares_mod(p):
    return {x * x % p for x in range(p)}


def naive_chi(x, p):
    x %= p
    if x == 0:
        return 0
    return 1 if x in squares_mod(p) else -1


def double_fixed_residual(p, a, x, i):
    """Zero at surface points fixed by m_{i-1} and m_{i+1}; u = s*x_i - a_i."""
    s = (3 + sum(a)) % p
    im1, ip1 = (i - 1) % 3, (i + 1) % 3
    u = s * x[i] - a[i]
    return (x[i] ** 2 * (u * u - 4)
            * (u * u + a[im1] * a[ip1] * u + a[im1] ** 2 + a[ip1] ** 2 - 4)) % p


def moved_points(params, pts, i):
    out = pts.copy()
    out[:, i] = moved_coordinate(params, pts.T, i)
    return out


def check_u_coordinates(params, pts):
    """Check the four-holed-sphere form u_i = s*x_i - a_i on the rows of pts; return u.

    The move m_i must read u_i -> -u_i + u_{i-1}u_{i+1} - 2a_i - a_{i-1}a_{i+1},
    and the trace residual must be s^2 times the surface residual.
    """
    p, s, a = params.p, params.s, params.a
    pts = np.asarray(pts, dtype=np.int64)
    u = (s * pts - np.array(a)) % p
    lhs = 0
    for i in range(3):
        im1, ip1 = (i - 1) % 3, (i + 1) % 3
        u_new = (-u[:, i] + u[:, im1] * u[:, ip1] - 2 * a[i] - a[im1] * a[ip1]) % p
        assert np.array_equal(u_new, (s * moved_coordinate(params, pts.T, i) - a[i]) % p), i
        lhs = lhs + u[:, i] ** 2 + (2 * a[i] + a[im1] * a[ip1]) * u[:, i]
    rhs = u[:, 0] * u[:, 1] % p * u[:, 2] - 2 * a[0] * a[1] * a[2] - sum(v * v for v in a)
    assert np.array_equal((lhs - rhs) % p, s * s * residual_array(params, pts.T) % p)
    return u


@pytest.fixture
def rng():
    import random
    return random.Random(20260809)
