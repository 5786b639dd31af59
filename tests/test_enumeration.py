import io
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from markoff.conics import closed_form_total
from markoff.delta import delta_values
from markoff.enumeration import (BLOCK, DEFAULT_MAX_PRIME, INT32_MAX,
                                 ResourceGuardError, SolutionSet, _require_int32,
                                 _root_table, _row_coefficients, cell_slabs,
                                 count_solutions_bruteforce, enumerate_solutions, row_blocks)
from markoff.field import chi, is_prime
from markoff.orbits import neighbor_indices
from markoff.surface import (SurfaceParams, apply_move, on_surface, residual_array,
                             x3_coefficients)

from conftest import naive_solutions, restrict, zero_plane


def test_enumerate_frozen_examples():
    assert len(enumerate_solutions(SurfaceParams.make(3, (0, 0, 0)))) == 8
    assert len(enumerate_solutions(SurfaceParams.make(5, (0, 0, 0)))) == 40
    assert len(enumerate_solutions(SurfaceParams.make(7, (2, 2, -2)))) == 49


def test_enumerate_matches_naive():
    for p in (3, 5):
        for a in itertools.product(range(p), repeat=3):
            params = SurfaceParams.make(p, a)
            got = list(enumerate_solutions(params).iter_triples())
            assert got == naive_solutions(p, a), (p, a)
    for p, a in [(7, (1, 1, 1)), (7, (2, 2, 5)), (11, (4, 0, 9)), (13, (2, 3, 3))]:
        params = SurfaceParams.make(p, a)
        assert list(enumerate_solutions(params).iter_triples()) == naive_solutions(p, a)


def test_enumerate_is_sorted_unique_and_origin_free():
    sol = enumerate_solutions(SurfaceParams.make(13, (2, 2, -2)))
    pts = [tuple(int(v) for v in row) for row in sol.points]
    assert pts == sorted(set(pts))
    assert (0, 0, 0) not in pts


def test_solution_set_lookup():
    """Membership reads a set of the triples; rows read back as the triples in order."""
    sol = enumerate_solutions(SurfaceParams.make(7, (1, 1, 1)))
    triples = set(sol.iter_triples())
    assert (1, 1, 1) in triples and (0, 0, 0) not in triples
    assert [sol.triple(k) for k in range(len(sol))] == list(sol.iter_triples())


def test_delta_values_reduce_mod_p():
    params = SurfaceParams.make(7, (1, 1, 1))
    sol = enumerate_solutions(params)
    assert on_surface(params, (-7, -4, -1)) and (0, 3, 6) in set(sol.iter_triples())
    assert delta_values(params, (-7, -4, -1)) == delta_values(params, (0, 3, 6))
    assert delta_values(params, (7, 10, 13)) == delta_values(params, (0, 3, 6))


def test_delta_values_refuse_points_that_are_not_triples():
    params = SurfaceParams.make(7, (1, 1, 1))
    for x in ((1, 1, 1, 5), (1, 1), ()):
        with pytest.raises(ValueError, match=re.escape(str(x))):
            delta_values(params, x)


def test_solution_set_closed_under_moves():
    for p, a in [(7, (1, 1, 1)), (11, (2, 5, 5)), (13, (0, 4, 4))]:
        params = SurfaceParams.make(p, a)
        triples = set(enumerate_solutions(params).iter_triples())
        for x in triples:
            for i in range(3):
                assert apply_move(params, x, i) in triples


def test_size_equals_closed_form():
    for p in (5, 7, 11, 13):
        for a in itertools.product(range(p), repeat=3):
            params = SurfaceParams.make(p, a)
            if params.s == 0:
                continue
            assert len(enumerate_solutions(params)) == closed_form_total(params)


def test_bruteforce_count_matches_enumeration():
    # at p = 409 the root table and the count each walk at least 3 cell slabs
    assert len(list(cell_slabs(409))) >= 3
    for p, a in [(5, (0, 0, 0)), (7, (2, 2, -2)), (11, (1, 2, 3)), (13, (2, 3, 3)),
                 (7, (0, 0, -3)), (5, (2, 2, -2)),
                 (409, (2, 5, 5)), (409, (0, 0, -3)), (409, (2, 2, -2))]:
        params = SurfaceParams.make(p, a)
        assert count_solutions_bruteforce(params) == len(enumerate_solutions(params)), (p, a)


def test_root_table_counts_roots_exhaustively():
    for p in (2, 3, 5, 7, 11, 13):
        table = _root_table(p)
        assert table.dtype == np.int8 and table.shape == (p * p,)
        expected = [sum(1 for x3 in range(p) if (x3 * x3 + b * x3 + c) % p == 0)
                    for b in range(p) for c in range(p)]
        assert table.tolist() == expected, p
        assert max(expected) <= 2


def test_root_table_keeps_the_last_prime_read_only():
    """Counts through the cached table equal the closed form and a fresh table's sum."""
    assert _root_table.cache_info().maxsize == 1
    for p in (97, 101, 97, 5):
        fresh = _root_table.__wrapped__(p)
        x = np.arange(p)
        for a in [(1, 1, 1), (2, 5, 5), (0, 0, -3), (3, 1, 4), (2, 2, -2)]:
            params = SurfaceParams.make(p, a)
            if params.s == 0:
                continue
            b, c = x3_coefficients(params, x[:, None], x)
            expected = int(fresh[b * p + c].sum()) - 1
            assert count_solutions_bruteforce(params) == expected == closed_form_total(params), \
                (p, a)
        cached = _root_table(p)
        assert cached.flags.writeable is False and np.array_equal(cached, fresh)
        assert _root_table.cache_info().currsize == 1
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 1


def test_row_coefficients_reproduce_the_residual_on_every_cell():
    """b = b0 + b1*x2 and c = x2^2 + c1*x2 + c0 on each row, and so the discriminant."""
    rng = np.random.default_rng(18)
    cases = [(3, (0, 0, 0)), (3, (2, 1, 1)), (5, (2, 2, -2)), (5, (-2, 1, 3)),
             (7, (1, 1, 1)), (7, (0, 0, -3)), (11, (2, -2, 9)), (13, (2, 5, 5))]
    cases += [(p, tuple(int(v) for v in rng.integers(0, p, 3))) for p in (17, 97, 409)
              for _ in range(3)]
    assert any(SurfaceParams.make(p, a).s == 0 for p, a in cases)
    for p, a in cases:
        params = SurfaceParams.make(p, a)
        x1, x2 = np.arange(p, dtype=np.int64)[:, None], np.arange(p, dtype=np.int64)
        b, c = x3_coefficients(params, x1, x2)
        b0, b1, c0, c1 = (v[:, None] for v in _row_coefficients(params, x1))
        assert np.array_equal((b0 + b1 * x2) % p, b), (p, a)
        assert np.array_equal((x2 * x2 + c1 * x2 + c0) % p, c), (p, a)
        d2, d1, d0 = b1 * b1 - 4, 2 * b0 * b1 - 4 * c1, b0 * b0 - 4 * c0
        assert np.array_equal((d2 * x2 * x2 + d1 * x2 + d0) % p, (b * b - 4 * c) % p), (p, a)


def test_bruteforce_matches_grid_scan_exhaustive():
    """The root-table count equals a residual scan of the whole p^3 grid."""
    for p in (5, 7, 11):
        x = np.arange(p, dtype=np.int64)
        grid = (x[:, None, None], x[None, :, None], x[None, None, :])
        for a in itertools.product(range(p), repeat=3):
            params = SurfaceParams.make(p, a)
            scan = int(np.count_nonzero(residual_array(params, grid) == 0)) - 1
            assert count_solutions_bruteforce(params) == scan, (p, a)


def test_enumerate_p2():
    params = SurfaceParams.make(2, (2, 2, -2))
    sol = enumerate_solutions(params)
    assert list(sol.iter_triples()) == [(0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)]


def test_csv_export():
    sol = enumerate_solutions(SurfaceParams.make(3, (0, 0, 0)))
    buf = io.StringIO()
    sol.write_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert len(lines) == 8
    assert lines[0] == "1,1,1"
    assert all(len(line.split(",")) == 3 for line in lines)


def test_csv_export_across_blocks():
    sol = enumerate_solutions(SurfaceParams.make(263, (1, 1, 1)))
    assert len(sol) > BLOCK
    buf = io.StringIO()
    sol.write_csv(buf)
    assert buf.getvalue() == "".join(f"{x1},{x2},{x3}\n" for x1, x2, x3 in sol.iter_triples())


def test_restrict_keeps_whole_cells():
    sol = enumerate_solutions(SurfaceParams.make(13, (0, 0, -3)))
    everything = restrict(sol, np.ones(len(sol), dtype=bool))
    assert np.array_equal(everything.points, sol.points)
    assert np.array_equal(everything.offsets, sol.offsets)
    assert everything.points.flags.f_contiguous and everything.offsets.dtype == np.int32
    x3 = sol.points[:, 2]
    pm1 = restrict(sol, (x3 == 1) | (x3 == 12))
    assert list(pm1.iter_triples()) == [x for x in sol.iter_triples() if x[2] in (1, 12)]
    cell = pm1.points[:, 0] * 13 + pm1.points[:, 1]
    assert pm1.offsets.tolist() == [0] + np.cumsum(np.bincount(cell, minlength=169)).tolist()
    # x3 = +-1 is closed under the moves, and the kept offsets find every image's row
    nbr = neighbor_indices(pm1)
    for i in range(3):
        assert list(map(tuple, pm1.points[nbr[i]].tolist())) == [
            apply_move(pm1.params, x, i) for x in pm1.iter_triples()]
    outside = [x for x in sol.iter_triples() if x[2] not in (1, 12)]
    assert outside and set(pm1.iter_triples()).isdisjoint(outside)
    assert len(restrict(sol, np.zeros(len(sol), dtype=bool))) == 0
    # x3 = 1 alone keeps one root of cells whose other root is x3 = -1
    with pytest.raises(ValueError, match="split"):
        restrict(sol, x3 == 1)


def test_memory_guard():
    p = next(q for q in range(DEFAULT_MAX_PRIME + 1, DEFAULT_MAX_PRIME + 200)
             if is_prime(q))
    with pytest.raises(ValueError, match="guard"):
        enumerate_solutions(SurfaceParams.make(p, (0, 0, 0)))
    with pytest.raises(ResourceGuardError, match="brute-force guard"):
        count_solutions_bruteforce(SurfaceParams.make(p, (1, 1, 1)))


def test_int32_guard_is_arithmetic_only():
    """p^2 + 1 cell offsets and M points must fit in int32; no array is built to check."""
    largest, refused = 46337, 46349  # consecutive primes either side of the bound
    assert [q for q in range(largest, refused + 1) if is_prime(q)] == [largest, refused]
    assert largest ** 2 + 1 <= INT32_MAX < refused ** 2 + 1
    _require_int32(largest, INT32_MAX)
    with pytest.raises(ResourceGuardError, match="cell offsets exceed the int32 bound"):
        _require_int32(refused)
    with pytest.raises(ResourceGuardError, match="points exceed the int32 bound"):
        _require_int32(largest, INT32_MAX + 1)
    # allow_large lifts the size guard only; the int32 guard refuses before
    # the field tables or any p^2 array exist
    params = SurfaceParams.make(refused, (1, 1, 1))
    with pytest.raises(ResourceGuardError, match="int32"):
        enumerate_solutions(params, allow_large=True)
    assert not {"chi_table", "sqrt_table"} & set(vars(params.field))


def test_blocks_join_without_seams():
    """At a prime that enumerates in at least three blocks the joined set is exact."""
    p = 409
    params = SurfaceParams.make(p, (1, 1, 1))
    assert len(list(cell_slabs(p))) >= 3
    sol = enumerate_solutions(params)
    m = len(sol)
    assert len(list(row_blocks(m))) >= 3
    assert sol.points.dtype == np.int32 and sol.offsets.dtype == np.int32

    pts = sol.points.astype(np.int64)
    assert not residual_array(params, pts.T).any()
    keys = (pts[:, 0] * p + pts[:, 1]) * p + pts[:, 2]
    assert (np.diff(keys) > 0).all()  # strictly lexicographic
    counts = np.diff(sol.offsets)
    assert sol.offsets[0] == 0 and sol.offsets[-1] == m
    assert counts.min() >= 0 and counts.max() <= 2
    assert np.array_equal(np.repeat(np.arange(p * p), counts), pts[:, 0] * p + pts[:, 1])
    assert m == count_solutions_bruteforce(params)
    # SolutionSet.blocks covers every row once, in order
    joined = np.concatenate([x for _, x in sol.blocks()], axis=1)
    assert np.array_equal(joined, pts.T)


def test_blocks_are_int32_views_up_to_the_bound():
    """blocks() views the int32 points while 3p^2 + p < 2^31 and copies to int64 above."""
    largest, refused = 26737, 26759  # consecutive primes either side of the bound
    assert [q for q in range(largest, refused + 1) if is_prime(q)] == [largest, refused]
    assert 3 * largest ** 2 + largest <= INT32_MAX < 3 * refused ** 2 + refused
    for p, dtype in ((largest, np.int32), (refused, np.int64)):
        pts = np.asfortranarray(np.array([(1, 2, 3), (1, 2, p - 1), (p - 1, 0, 5),
                                          (p - 1, p - 1, p - 1)], dtype=np.int32))
        # blocks() reads no offsets, so a stub stands in for the p^2 + 1 of them
        sol = SolutionSet(SurfaceParams.make(p, (1, 1, 1)), pts, np.zeros(1, dtype=np.int32))
        tracemalloc.start()
        try:
            (rows, x), = list(sol.blocks())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16, peak  # nothing of size p^2 (7e8 at these p)
        assert rows == slice(0, 4) and x.dtype == dtype and np.array_equal(x, pts.T)
        assert np.shares_memory(x, pts) == (dtype == np.int32)
        if dtype == np.int32:
            assert not x.flags.writeable


def test_bruteforce_guard_keeps_int32_exact():
    # x3_coefficients' intermediates stay below 3 p^2 on the oracle's int32 slabs
    assert 3 * DEFAULT_MAX_PRIME ** 2 < 2 ** 31


class TestZeroLocus:
    """The nonzero solutions on the planes x_i = 0."""

    def test_sizes_by_character(self):
        # x_i = 0 is the pair of lines x_{i+1} = r x_{i-1}, r^2 + a_i r + 1 = 0
        for p in (5, 7, 11, 13):
            for ai in range(p):
                sol = enumerate_solutions(SurfaceParams.make(p, (ai, 1, 1)))
                ch = chi(ai * ai - 4, p)
                expected = {1: 2 * (p - 1), 0: p - 1, -1: 0}[ch]
                assert len(zero_plane(sol, 0)) == expected

    def test_two_zero_coordinates_force_origin(self):
        for p, a in [(7, (1, 1, 1)), (11, (2, 5, 5)), (13, (3, 3, 0))]:
            params = SurfaceParams.make(p, a)
            for x in enumerate_solutions(params).iter_triples():
                assert sum(1 for v in x if v == 0) <= 1
