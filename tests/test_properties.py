"""Property tests: the vectorised residual, the p^3 count oracle, the
cell-indexed solution set and the orbit partition against the naive
oracles in conftest, on random small primes, parameters and points."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markoff.enumeration import count_solutions_bruteforce, enumerate_solutions
from markoff.orbits import compute_orbits, neighbor_indices
from markoff.surface import SurfaceParams, residual_array

from conftest import naive_move, naive_orbits, naive_residual, naive_solutions

PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31]


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
    assert sol.offsets.shape == (p * p + 1,) and sol.offsets[-1] == m
    assert counts.min() >= 0 and counts.max() <= 2

    row = {x: k for k, x in enumerate(expected)}
    assert neighbor_indices(sol).tolist() == [
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
