import ast
import itertools

import numpy as np
import pytest

from markoff.enumeration import INT32_MAX, ResourceGuardError, enumerate_solutions
from markoff.orbits import (MAX_BFS, _require_search_bound, compute_orbits,
                            neighbor_indices, no_bigons_holds, partition_report,
                            size_table, verify_divisibility)
from markoff.surface import SurfaceParams, apply_move

from conftest import naive_orbits, strong_search_orbits


def part_for(p, a):
    return compute_orbits(enumerate_solutions(SurfaceParams.make(p, a)))


def test_orbits_frozen_examples():
    assert part_for(3, (0, 0, 0)).multiset == {8: 1}
    assert part_for(13, (2, 2, -2)).multiset == {1: 3, 2: 3, 4: 4, 16: 3, 24: 4}
    part = part_for(7, (1, 1, 1))
    assert sum(part.orbit_sizes()) == 70
    assert all(size % 7 == 0 for size in part.orbit_sizes())


def test_orbits_match_naive_bfs():
    for p, a in [(5, (0, 0, 0)), (5, (2, 2, 2)), (7, (2, 2, -2)), (7, (2, 3, 3)),
                 (11, (0, 0, -3)), (11, (3, 1, 4)), (11, (2, 5, 5)),
                 # s = 0 with chi(5) = -1 and chi(5) = +1: long linear cycles
                 (13, (0, 0, -3)), (19, (0, 0, -3))]:
        params = SurfaceParams.make(p, a)
        part = part_for(p, a)
        expected = naive_orbits(p, params.a)
        assert sorted(part.orbit_sizes()) == sorted(len(o) for o in expected)
        # identical membership: the representative determines the orbit
        by_rep = {orbit[0]: orbit for orbit in expected}
        for size, rep in part.orbits:
            assert rep in by_rep and len(by_rep[rep]) == size
        # component ids constant on each naive orbit
        sol = part.solutions
        for orbit in expected:
            ids = {int(part.component_id[sol.index_of(x)]) for x in orbit}
            assert len(ids) == 1


def test_component_id_is_move_invariant():
    for p, a in [(7, (1, 1, 1)), (13, (2, 2, -2))]:
        part = part_for(p, a)
        nbr = neighbor_indices(part.solutions)
        for i in range(3):
            assert np.array_equal(part.component_id[nbr[i]], part.component_id)


def test_sizes_sum_to_total():
    for p, a in [(7, (1, 1, 1)), (11, (2, 5, 5)), (13, (0, 0, -3))]:
        part = part_for(p, a)
        assert sum(part.orbit_sizes()) == len(part.solutions)


def test_representatives_are_lex_minima():
    part = part_for(7, (2, 2, -2))
    sol = part.solutions
    for k, (size, rep) in enumerate(part.orbits):
        members = [sol.triple(j) for j in np.flatnonzero(part.component_id == k)]
        assert rep == min(members)
        assert len(members) == size
    # canonical ordering: representatives strictly increase
    reps = [rep for _, rep in part.orbits]
    assert reps == sorted(reps)


def test_neighbor_indices_are_involutive():
    sol = enumerate_solutions(SurfaceParams.make(11, (1, 2, 3)))
    nbr = neighbor_indices(sol)
    for i in range(3):
        assert np.array_equal(nbr[i][nbr[i]], np.arange(len(sol)))


@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_rows_repeat_only_self_loops(p):
    """Every a at p: a neighbour row repeats a row only as a self-loop.

    This is the no-bigons fact on the point graph, and the condition
    under which the strong search of strong_search_orbits terminates.
    """
    for a in itertools.product(range(p), repeat=3):
        sol = enumerate_solutions(SurfaceParams.make(p, a))
        rows = neighbor_indices(sol).T
        own = np.arange(len(sol))
        for i, j in ((0, 1), (0, 2), (1, 2)):
            repeated = rows[:, i] == rows[:, j]
            assert np.array_equal(rows[repeated, i], own[repeated]), (p, a, i, j)


def assert_matches_strong_search(p, a):
    """compute_orbits agrees with the point-graph strong search; returns the orbit count."""
    sol = enumerate_solutions(SurfaceParams.make(p, a))
    part = compute_orbits(sol)
    assert part.component_id.dtype == np.int32 and part.component_id.shape == (len(sol),)
    if len(sol) == 0:
        assert part.orbits == [] and part.multiset == {}
        return 0
    ids, orbits, multiset = strong_search_orbits(sol)
    assert np.array_equal(part.component_id, ids), (p, a)
    assert part.orbits == orbits and part.multiset == multiset, (p, a)
    return len(orbits)


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
def test_cell_search_matches_strong_search_on_every_triple(p):
    counts = {assert_matches_strong_search(p, a) for a in itertools.product(range(p), repeat=3)}
    if p >= 7:  # both the breadth-first and the depth-first path ran
        assert {1, MAX_BFS} <= counts and max(counts) > MAX_BFS


def test_cell_search_matches_strong_search_on_seeded_sets():
    rng = np.random.default_rng(19)
    counts = {}
    for p in (17, 31, 61, 101, 151, 211):
        special = [(0, 0, -3), (2, 2, -2), (0, 0, 0), (2, 2, 2), (2, 5, 5)]
        seeded = [tuple(int(v) for v in rng.integers(0, p, 3)) for _ in range(4)]
        for a in special + seeded:
            counts[p, a] = assert_matches_strong_search(p, a)
    # exactly MAX_BFS orbits, all found breadth-first, and sets that
    # reach the depth-first search with hundreds of orbits
    assert counts[211, (2, 2, 2)] == MAX_BFS
    assert counts[211, (2, 2, -2)] > MAX_BFS and counts[211, (0, 0, -3)] > 100


def test_search_bound_is_arithmetic_only():
    """2M targets plus a root row of min(M, p^2) cells, and p^2 + 2 row pointers, fit in int32."""
    p = 26003
    limit = (INT32_MAX - p * p) // 2  # M above p^2: the root row holds at most p^2 cells
    _require_search_bound(p, limit)
    with pytest.raises(ResourceGuardError, match="int32 edge bound"):
        _require_search_bound(p, limit + 1)
    m = INT32_MAX // 3  # M below p^2: the root row holds at most M cells
    assert m < 46337 ** 2
    _require_search_bound(46337, m)
    with pytest.raises(ResourceGuardError, match="int32 edge bound"):
        _require_search_bound(46337, m + 1)
    with pytest.raises(ResourceGuardError, match="cell nodes"):
        _require_search_bound(46349, 0)


def test_move_out_of_a_restricted_set_is_named():
    """A kept row whose move image was dropped: KeyError names that image."""
    p = 13
    params = SurfaceParams.make(p, (1, 1, 1))
    sol = enumerate_solutions(params)
    keep = sol.points[:, 0] < 6
    with pytest.raises(KeyError) as raised:
        compute_orbits(sol.restrict(keep))
    image = ast.literal_eval(raised.value.args[0].split(" is not")[0])
    assert image in sol and image[0] >= 6
    kept = [x for x in sol.iter_triples() if x[0] < 6]
    assert any(apply_move(params, x, 0) == image for x in kept)


def test_verify_divisibility_frozen_examples():
    report = verify_divisibility(part_for(7, (1, 1, 1)))
    assert report.asserted and report.passed is True

    report = verify_divisibility(part_for(7, (2, 3, 3)))
    assert report.params_class.kind == "special-form"
    assert report.passed is True

    report = verify_divisibility(part_for(7, (2, 2, -2)))
    assert report.passed is None and not report.asserted
    sizes = [size for size, _, _ in report.orbits]
    assert 1 in sizes and 2 in sizes


def test_size_table_frozen_examples():
    assert size_table(part_for(3, (2, 2, -2))) == "1^3, 2^3"
    assert size_table({8: 1}) == "8^1"
    assert size_table(part_for(17, (2, 2, -2))) == "1^3, 2^3, 4^4, 8^3, 32^3, 36^4"


def test_partition_report_schema():
    part = part_for(7, (2, 3, 3))
    report = partition_report(part)
    assert set(report) == {"prime", "params", "s", "class", "total",
                           "trivial_present", "orbits", "table"}
    assert report["prime"] == 7
    assert report["params"] == [2, 3, 3]
    assert report["class"] == "special-form"
    assert report["trivial_present"] is True
    assert sum(o["size"] for o in report["orbits"]) == report["total"]
    for o in report["orbits"]:
        assert o["divisible_by_p"] == (o["size"] % 7 == 0)


def test_no_bigons_exhaustive_small():
    for p in (3, 5, 7):
        for a in [(0, 0, 0), (1, 2, 3), (2, 2, 2)]:
            params = SurfaceParams.make(p, a)
            points = list(itertools.product(range(p), repeat=3))
            assert no_bigons_holds(params, points)


def test_double_fixed_points_where_moves_collide():
    # whenever two distinct moves agree at x they both fix x
    params = SurfaceParams.make(7, (2, 2, -2))
    found = 0
    for x in itertools.product(range(7), repeat=3):
        images = [apply_move(params, x, i) for i in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                if images[i] == images[j]:
                    assert images[i] == x
                    found += 1
    assert found > 0
