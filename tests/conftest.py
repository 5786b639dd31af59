"""Deliberately naive reference implementations used as test oracles.

Everything here is written the dumb way (triple loops, dict BFS, root
search by scanning) so that agreement with the package is meaningful.
"""

import itertools

import pytest


def naive_residual(p, a, x):
    a1, a2, a3 = a
    x1, x2, x3 = x
    s = (3 + a1 + a2 + a3) % p
    return (x1 * x1 + x2 * x2 + x3 * x3
            + a1 * x2 * x3 + a2 * x1 * x3 + a3 * x1 * x2
            - s * x1 * x2 * x3) % p


def naive_solutions(p, a):
    return [x for x in itertools.product(range(p), repeat=3)
            if x != (0, 0, 0) and naive_residual(p, a, x) == 0]


def naive_move(p, a, x, i):
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


@pytest.fixture
def rng():
    import random
    return random.Random(20260809)
