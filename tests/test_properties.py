"""Property tests: the vectorised residual, the p^3 count oracle and the
orbit partition against the naive oracles in conftest, on random small
primes, parameters and points."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from markoff.enumeration import count_solutions_bruteforce, enumerate_solutions
from markoff.orbits import compute_orbits
from markoff.surface import SurfaceParams, residual_array

from conftest import naive_orbits, naive_residual, naive_solutions

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
