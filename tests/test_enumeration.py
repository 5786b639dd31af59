import io
import itertools

import numpy as np
import pytest

from markoff.conics import closed_form_total
from markoff.enumeration import (BLOCK, DEFAULT_MAX_PRIME, INT32_MAX,
                                 ResourceGuardError, _require_int32, _root_table,
                                 count_solutions_bruteforce,
                                 enumerate_solutions, row_blocks,
                                 rows_per_block)
from markoff.field import chi, is_prime
from markoff.surface import SurfaceParams, apply_move, residual_array

from conftest import naive_solutions, zero_plane


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
    params = SurfaceParams.make(7, (1, 1, 1))
    sol = enumerate_solutions(params)
    assert sol.index_of((1, 1, 1)) == sol.index_of((1, 1, 1))
    assert (1, 1, 1) in sol
    assert (0, 0, 0) not in sol
    with pytest.raises(KeyError):
        sol.index_of((0, 0, 0))
    idx = sol.lookup_array(sol.points[::-1].T)
    assert np.array_equal(idx, np.arange(len(sol))[::-1])


def test_solution_set_closed_under_moves():
    for p, a in [(7, (1, 1, 1)), (11, (2, 5, 5)), (13, (0, 4, 4))]:
        params = SurfaceParams.make(p, a)
        sol = enumerate_solutions(params)
        for x in sol.iter_triples():
            for i in range(3):
                assert apply_move(params, x, i) in sol


def test_size_equals_closed_form():
    for p in (5, 7, 11, 13):
        for a in itertools.product(range(p), repeat=3):
            params = SurfaceParams.make(p, a)
            if params.s == 0:
                continue
            assert len(enumerate_solutions(params)) == closed_form_total(params)


def test_bruteforce_count_matches_enumeration():
    # at p = 409 the root table and the slabs both take at least 3 blocks of rows
    assert -(-409 // rows_per_block(409)) >= 3
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
    everything = sol.restrict(np.ones(len(sol), dtype=bool))
    assert np.array_equal(everything.points, sol.points)
    assert np.array_equal(everything.offsets, sol.offsets)
    assert everything.points.flags.f_contiguous and everything.offsets.dtype == np.int32
    x3 = sol.points[:, 2]
    pm1 = sol.restrict((x3 == 1) | (x3 == 12))
    assert list(pm1.iter_triples()) == [x for x in sol.iter_triples() if x[2] in (1, 12)]
    cell = pm1.points[:, 0] * 13 + pm1.points[:, 1]
    assert pm1.offsets.tolist() == [0] + np.cumsum(np.bincount(cell, minlength=169)).tolist()
    for k, x in enumerate(pm1.iter_triples()):
        assert pm1.index_of(x) == k
    outside = [x for x in sol.iter_triples() if x[2] not in (1, 12)]
    assert outside and not any(x in pm1 for x in outside)
    assert len(sol.restrict(np.zeros(len(sol), dtype=bool))) == 0
    # x3 = 1 alone keeps one root of cells whose other root is x3 = -1
    with pytest.raises(ValueError, match="split"):
        sol.restrict(x3 == 1)


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
    assert -(-p // max(1, BLOCK // p)) >= 3  # blocks of x1 rows in enumeration
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
