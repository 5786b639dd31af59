"""Property tests: the vectorised residual, the root-table count oracle, the
cell-indexed solution set, the orbit partition and the Delta closed form
against naive oracles, on random small primes, parameters and points;
and the int32 residual against the naive Python-int one up to the int32
edge."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from markoff.delta import build_certificate, delta_at
from markoff.enumeration import count_solutions_bruteforce, enumerate_solutions
from markoff.field import is_prime
from markoff.orbits import compute_orbits, neighbor_indices
from markoff.surface import SurfaceParams, residual_array

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
    assert nbr.dtype == np.int32 and compute_orbits(sol).component_id.dtype == np.int32
    assert nbr.tolist() == [
        [row[naive_move(p, a, x, i)] for x in expected] for i in range(3)]

    with pytest.raises(KeyError):
        sol.index_of((0, 0, 0))
    coord = st.integers(0, p - 1)
    x = data.draw(st.tuples(coord, coord, coord), label="x")
    if x in row:
        assert sol.index_of(x) == row[x]
    else:  # off the surface, or the origin
        with pytest.raises(KeyError):
            sol.index_of(x)
        with pytest.raises(KeyError):
            sol.lookup_array(np.array(expected + [x], dtype=np.int64).reshape(-1, 3).T)


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


def naive_delta(p, a, x, i):
    """Delta_i(x) = x_i/(x_{i-1}x_{i+1}) + (a_{i-1}/x_{i-1} + a_{i+1}/x_{i+1})/2 by pow."""
    xm, xp = x[(i - 1) % 3], x[(i + 1) % 3]
    am, ap = a[(i - 1) % 3], a[(i + 1) % 3]
    return (x[i] * pow(xm * xp, -1, p)
            + (am * pow(xm, -1, p) + ap * pow(xp, -1, p)) * pow(2, -1, p)) % p


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

    # every point with x_{i-1} x_{i+1} != 0, the zero-locus points x_i = 0 included
    for k, x in enumerate(sol.iter_triples()):
        for i in range(3):
            if x[(i - 1) % 3] and x[(i + 1) % 3]:
                expected = naive_delta(p, a, x, i)
                assert values[k, i] == expected, (x, i)
                assert delta_at(params, x, i) == expected, (x, i)

    x = sol.triple(data.draw(st.integers(0, len(sol) - 1), label="row"))
    shifts = data.draw(st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * 3), label="shifts")
    unreduced = tuple(v + k * p for v, k in zip(x, shifts))
    negative = tuple(v - 2 * p for v in x)
    for i in range(3):
        if x[(i - 1) % 3] and x[(i + 1) % 3]:
            assert delta_at(params, unreduced, i) == delta_at(params, x, i)
            assert delta_at(params, negative, i) == delta_at(params, x, i)
