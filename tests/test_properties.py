"""Property tests: the vectorised residual, the root-table count oracle, the
cell-indexed solution set, the orbit partition and the Delta closed form
against naive oracles, on random small primes, parameters and points;
the int32 residual against the naive Python-int one up to the int32
edge, with every formula SolutionSet.blocks feeds at the int32 bound;
and Delta at both ends of every edge against Python ints, exhaustively
for p <= 13 and at the bounds of the blocks' int32 and int64 dtypes."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from markoff.delta import (NoConsistentExtension, _delta_ends, _inverse,
                           build_certificate, delta_column, delta_values,
                           require_consistent)
from markoff.enumeration import count_solutions_bruteforce, enumerate_solutions
from markoff.field import is_prime, mod_p
from markoff.obstruction import _class_index, perfect_square_check
from markoff.orbits import compute_orbits, neighbor_indices
from markoff.surface import (SurfaceParams, moved_coordinate, residual_array, rotated,
                             special_form_detect, x3_coefficients)

from conftest import naive_move, naive_orbits, naive_residual, naive_solutions

PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31]
INT32_EDGE = 26737  # the largest prime with 3 p^2 < 2^31
INT32_PRIMES = [q for q in range(2, INT32_EDGE + 1) if is_prime(q)]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_array_paths_match_naive_oracles(data):
    p = data.draw(st.sampled_from(PRIMES), label="p")
    a = data.draw(st.tuples(*[st.integers(-2 * p, 2 * p)] * 3), label="a")
    coord = st.integers(0, p - 1)
    points = data.draw(st.lists(st.tuples(coord, coord, coord), min_size=1,
                                max_size=50), label="points")
    params = SurfaceParams.make(p, a)

    pts = np.array(points, dtype=np.int64)
    assert residual_array(params, pts.T).tolist() == [
        naive_residual(p, a, x) for x in points]

    assert count_solutions_bruteforce(params) == len(naive_solutions(p, a))

    part = compute_orbits(enumerate_solutions(params))
    assert part.orbits == [(len(o), o[0]) for o in naive_orbits(p, a)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cell_layout_matches_naive_oracles(data):
    p = data.draw(st.sampled_from([2, 3] + PRIMES), label="p")
    a = data.draw(st.tuples(*[st.integers(-2 * p, 2 * p)] * 3), label="a")
    params = SurfaceParams.make(p, a)
    sol = enumerate_solutions(params)
    expected = naive_solutions(p, a)
    assert list(sol.iter_triples()) == expected

    m = len(sol)
    counts = np.diff(sol.offsets)
    assert sol.points.dtype == np.int32 and sol.offsets.dtype == np.int32
    assert sol.offsets.shape == (p * p + 1,) and sol.offsets[-1] == m
    assert counts.min() >= 0 and counts.max() <= 2

    row = {x: k for k, x in enumerate(expected)}
    nbr = neighbor_indices(sol)
    assert nbr.dtype == np.int32
    assert nbr.tolist() == [
        [row[naive_move(p, a, x, i)] for x in expected] for i in range(3)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_int32_residual_matches_python_ints(data):
    p = data.draw(st.one_of(st.just(INT32_EDGE), st.sampled_from(INT32_PRIMES)), label="p")
    value = st.one_of(st.just(p - 1), st.integers(0, p - 1))
    a = data.draw(st.tuples(value, value, value), label="a")
    points = data.draw(st.lists(st.tuples(value, value, value), max_size=50),
                       label="points") + [(p - 1, p - 1, p - 1)]
    params = SurfaceParams.make(p, a)

    res = residual_array(params, np.array(points, dtype=np.int32).T)
    assert res.dtype == np.int32
    assert res.tolist() == [naive_residual(p, a, x) for x in points]


def _solve_last(params, u, v):
    """The surface points (u, v, w), w a root of the quadratic x3_coefficients gives."""
    p = params.p
    b, c = x3_coefficients(params, u, v)
    root = params.field.sqrt_table[(b * b - 4 * c) % p]
    has = root >= 0
    w = [(-b + sign * root) * ((p + 1) // 2) % p for sign in (1, -1)]
    return np.concatenate([np.stack([u, v, wk])[:, has] for wk in w], axis=1)


def _seeded_surface_points(params, rng, n=400):
    """(3, N) int64 surface points from seeded cells, each coordinate p - 1 on some.

    x3 is solved on n random cells, a quarter of them on the row x1 = p - 1
    and a quarter on the column x2 = p - 1.  Points with x3 = p - 1 solve
    for x1 instead: the residual is unchanged when the coordinates and a
    are permuted together, so (x2, x3, x1) solves the surface with
    parameters (a2, a3, a1).  No enumeration is involved.
    """
    p = params.p
    x1, x2 = rng.integers(0, p, (2, n))
    x1[:n // 4] = p - 1
    x2[n // 4:n // 2] = p - 1
    cyclic = SurfaceParams.make(p, params.a[1:] + params.a[:1])
    y = _solve_last(cyclic, rng.integers(0, p, n), np.full(n, p - 1))
    pts = np.concatenate([_solve_last(params, x1, x2), y[[2, 0, 1]]], axis=1)
    assert not residual_array(params, pts).any()
    assert all((pts[j] == p - 1).any() for j in range(3))
    return pts


def test_block_formulas_int32_exact_at_the_bound():
    """At p = 26737 every formula on SolutionSet.blocks agrees on int32 and int64 columns.

    Along each axis i, the verifier's forms agree too: x3_coefficients of
    rotated(params, i), the root-sum image -b_i - x_i, which is
    moved_coordinate's, and the residual along the axis, which is
    residual_array's, on the all-(p - 1) column off the surface as well:
    the residual's cyclic symmetry as a tested identity.
    """
    p = INT32_EDGE
    assert 3 * p * p + p < 2 ** 31
    rng, plane_rng = np.random.default_rng(26737), np.random.default_rng(26738)
    generic = SurfaceParams.make(p, (p - 1, p - 2, p - 1))
    for params in (generic, SurfaceParams.make(p, (2, p - 5, p - 5)),
                   SurfaceParams.make(p, (2, 2, 2))):
        x64 = _seeded_surface_points(params, rng)
        planes = _plane_points(params, plane_rng)  # delta_column's plane form, near p - 1
        if params is generic:  # the formulas' worst case, on the surface or not
            x64 = np.concatenate([x64, np.full((3, 1), p - 1)], axis=1)
        x32 = x64.astype(np.int32)
        assert residual_array(params, x32).dtype == np.int32
        assert np.array_equal(residual_array(params, x32), residual_array(params, x64))
        for got, want in zip(x3_coefficients(params, x32[0], x32[1]),
                             x3_coefficients(params, x64[0], x64[1])):
            assert got.dtype == np.int32 and np.array_equal(got, want)
        for i in range(3):
            moved = moved_coordinate(params, x32, i)
            assert moved.dtype == np.int32
            assert np.array_equal(moved, moved_coordinate(params, x64, i)), i
            # along axis i: the rotated coefficients, the root-sum image and
            # the residual, equal in both dtypes and to the unrotated forms
            axis, j, k = rotated(params, i), (i + 1) % 3, (i + 2) % 3
            for x in (x32, x64):
                b, c = x3_coefficients(axis, x[j], x[k])
                assert b.dtype == c.dtype == x.dtype
                if x is x32:
                    b32, c32 = b, c
                else:
                    assert np.array_equal(b, b32) and np.array_equal(c, c32), i
                image = mod_p(-b - x[i], p)
                assert image.dtype == x.dtype and np.array_equal(image, moved), i
                along = residual_array(axis, (x[j], x[k], x[i]))
                assert along.dtype == x.dtype
                assert np.array_equal(along, residual_array(params, x32)), i
                assert np.array_equal(residual_array(axis, (x[j], x[k], image), (b, c)), along), i
            column = delta_column(params, x32, i)
            assert column.dtype == np.int32
            assert np.array_equal(column, delta_column(params, x64, i))
            column = delta_column(params, planes.astype(np.int32), i)
            assert column.dtype == np.int32
            assert np.array_equal(column, delta_column(params, planes, i)), i
        form = special_form_detect(params)
        if params is generic:
            assert form is None
            continue
        # the obstruction classes: sign patterns at alpha = 2, else the
        # generic characters with the companion's products near 2 p^2
        index = _class_index(params, x32, form)
        assert np.array_equal(index, _class_index(params, x64, form)), form
        assert len(np.unique(index)) > 1, form
        if form[2] != 2:
            assert perfect_square_check(params, x32).all()
            assert perfect_square_check(params, x64).all()


def naive_delta(p, a, x, i):
    """Delta_i(x) = x_i/(x_{i-1}x_{i+1}) + (a_{i-1}/x_{i-1} + a_{i+1}/x_{i+1})/2 by pow."""
    xm, xp = x[(i - 1) % 3], x[(i + 1) % 3]
    am, ap = a[(i - 1) % 3], a[(i + 1) % 3]
    return (x[i] * pow(xm * xp, -1, p)
            + (am * pow(xm, -1, p) + ap * pow(xp, -1, p)) * pow(2, -1, p)) % p


def naive_surface_delta(p, a, x, i):
    """Delta_i at a surface point by pow: naive_delta, or the plane form on x_j = 0.

    On the plane x_j = 0, j != i, Delta_i = s/2 + (2a_i - a_j a_l) x_i /
    (2(x_l^2 - x_i^2)) for the third index l, and s/2 where the
    denominator vanishes (a_j^2 = 4).
    """
    for j in ((i + 1) % 3, (i - 1) % 3):
        if x[j] % p == 0:
            l = 3 - i - j
            half_s = (3 + sum(a)) * pow(2, -1, p) % p
            den = 2 * (x[l] * x[l] - x[i] * x[i]) % p
            if den == 0:
                return half_s
            return (half_s + (2 * a[i] - a[j] * a[l]) * x[i] * pow(den, -1, p)) % p
    return naive_delta(p, a, x, i)


def _check_edge_ends(params, x, naive=naive_surface_delta):
    """_delta_ends at both ends of every edge from the columns x equals naive, in x's dtype.

    naive is evaluated once per point, an image being a row already met
    on a whole surface.
    """
    p, a = params.p, params.a
    rows = [tuple(r) for r in x.T.tolist()]
    table = {}

    def expected(points, i):
        for y in points:
            if y not in table:
                table[y] = [naive(p, a, y, k) for k in range(3)]
        return [table[y][i] for y in points]

    u = [_inverse(params, v) for v in x]
    for i in range(3):
        moved = moved_coordinate(params, x, i)
        ends = _delta_ends(params, x, u, i, moved)
        assert all(end.dtype == x.dtype for end in ends)
        assert ends[0].tolist() == expected(rows, i), i
        images = [(*r[:i], m, *r[i + 1:]) for r, m in zip(rows, moved.tolist())]
        assert ends[1].tolist() == expected(images, i), i
        assert np.array_equal(ends[0], delta_column(params, x, i))


def _certifiable(p, a):
    params = SurfaceParams.make(p, a)
    try:
        require_consistent(params)
    except (ValueError, NoConsistentExtension):  # s = 0, or a plane with no consistent Delta
        return None
    return params


def test_delta_ends_exact_on_every_edge_small_p():
    """Every consistent s != 0 triple for p <= 13, planes included.

    Each orbit O also sums every Delta_i to s |O| / 2 mod p: the pairing
    lemma by which verify_certificate adds up no per-orbit sum.
    """
    checked = 0
    for p in (5, 7, 11, 13):
        for a in itertools.product(range(p), repeat=3):
            params = _certifiable(p, a)
            if params is None:
                continue
            sol = enumerate_solutions(params)
            (_, x), = sol.blocks()
            _check_edge_ends(params, x)
            part = compute_orbits(sol)
            ids = part.ids(x)
            half_sizes = params.s * np.bincount(ids) * pow(2, -1, p) % p
            for i in range(3):
                sums = np.bincount(ids, weights=delta_column(params, x, i)).astype(np.int64)
                assert np.array_equal(sums % p, half_sizes), (p, a, i)
            checked += 1
    assert checked > 1295  # p = 13 alone has 1295 certifiable sets


def test_delta_ends_exact_on_seeded_sets():
    rng = np.random.default_rng(211)
    for p in (17, 31, 61, 101, 151, 211):
        params = None
        while params is None:
            params = _certifiable(p, tuple(int(v) for v in rng.integers(0, p, 3)))
        for _, x in enumerate_solutions(params).blocks():
            _check_edge_ends(params, x)


def _plane_points(params, rng, n=50):
    """(3, N) surface points on each plane x_j = 0, the other coordinates near p - 1.

    Solved for the last coordinate as in _seeded_surface_points; a plane
    holds points only where a_j^2 - 4 is a square.
    """
    p = params.p
    zero, near = np.zeros(n, dtype=np.int64), rng.integers(p - 50, p, n)
    cyclic = SurfaceParams.make(p, params.a[1:] + params.a[:1])
    pts = np.concatenate([_solve_last(params, zero, near), _solve_last(params, near, zero),
                          _solve_last(cyclic, near, zero)[[2, 0, 1]]], axis=1)
    assert not residual_array(params, pts).any()
    return pts


@pytest.mark.parametrize("p, dtype", [(INT32_EDGE, np.int32), (26759, np.int64),
                                      (46337, np.int64)])
def test_delta_ends_exact_at_the_dtype_bounds(p, dtype):
    """Both ends at the bounds of SolutionSet.blocks' dtypes, in the blocks' dtype.

    Seeded surface points put p - 1 in every coordinate, and plane points
    put values near p - 1 beside the zero, on planes with a_j^2 = 4 and
    without; the all-(p - 1) column, off the surface, has the largest
    inverses.  The three parameter sets are certifiable.
    """
    assert (3 * p * p + p < 2 ** 31) == (dtype == np.int32)
    rng = np.random.default_rng(p)
    on_planes = 0
    for a in ((p - 1, p - 3, p - 4), (2, p - 5, p - 5), (p - 2, 7, p - 7)):
        params = _certifiable(p, a)
        assert params is not None, a
        planes = _plane_points(params, rng)
        on_planes += planes.shape[1]
        pts = np.concatenate([_seeded_surface_points(params, rng, n=100), planes], axis=1)
        _check_edge_ends(params, pts.astype(dtype))
        worst = np.full((3, 1), p - 1, dtype=dtype)
        _check_edge_ends(params, worst, naive=naive_delta)
    assert on_planes > 0


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_delta_closed_form_matches_naive_inverses(data):
    p = data.draw(st.sampled_from(PRIMES), label="p")
    # no a_i = +-2 and s != 0, so build_certificate succeeds
    nondegenerate = st.sampled_from([v for v in range(p) if (v * v - 4) % p])
    a = data.draw(st.tuples(nondegenerate, nondegenerate, nondegenerate), label="a")
    assume((3 + sum(a)) % p != 0)
    params = SurfaceParams.make(p, a)
    sol = enumerate_solutions(params)
    values = build_certificate(sol).values

    # the closed form at every point with x_{i-1} x_{i+1} != 0, the zero-locus
    # points x_i = 0 included; delta_values at every row, plane points included
    for k, x in enumerate(sol.iter_triples()):
        for i in range(3):
            if x[(i - 1) % 3] and x[(i + 1) % 3]:
                assert values[k, i] == naive_delta(p, a, x, i), (x, i)
        expected = tuple(naive_surface_delta(p, a, x, i) for i in range(3))
        assert delta_values(params, x) == expected, x

    x = sol.triple(data.draw(st.integers(0, len(sol) - 1), label="row"))
    shifts = data.draw(st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * 3), label="shifts")
    unreduced = tuple(v + k * p for v, k in zip(x, shifts))
    negative = tuple(v - 2 * p for v in x)
    assert delta_values(params, unreduced) == delta_values(params, x)
    assert delta_values(params, negative) == delta_values(params, x)
