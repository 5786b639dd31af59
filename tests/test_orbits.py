import ast
import itertools
import random

import numpy as np
import pytest

from markoff.enumeration import (INT32_MAX, ResourceGuardError, count_solutions_bruteforce,
                                 enumerate_solutions)
from markoff import orbits as orbits_module
from markoff.orbits import (CONE_MAX_PRIME, CertificateError, _require_search_bound,
                            compute_orbits, cone_orbits, neighbor_indices, no_bigons_holds,
                            partition_report, size_table, verify_divisibility)
from markoff.field import is_prime
from markoff.surface import SurfaceParams, apply_move, residual_array

from conftest import naive_move, naive_orbits, naive_residual, restrict, strong_search_orbits


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
            assert len(set(part.ids(np.array(orbit).T).tolist())) == 1


def test_component_id_is_move_invariant():
    for p, a in [(7, (1, 1, 1)), (13, (2, 2, -2))]:
        part = part_for(p, a)
        ids = part.ids(part.solutions.points.T)
        nbr = neighbor_indices(part.solutions)
        for i in range(3):
            assert np.array_equal(ids[nbr[i]], ids)


def test_sizes_sum_to_total():
    for p, a in [(7, (1, 1, 1)), (11, (2, 5, 5)), (13, (0, 0, -3))]:
        part = part_for(p, a)
        assert sum(part.orbit_sizes()) == len(part.solutions)


def test_representatives_are_lex_minima():
    part = part_for(7, (2, 2, -2))
    sol = part.solutions
    ids = part.ids(sol.points.T)
    for k, (size, rep) in enumerate(part.orbits):
        members = [sol.triple(j) for j in np.flatnonzero(ids == k)]
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


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_neighbor_indices_match_naive_moves(p):
    """Every a at p: each image row, m_2's included, holds the naive image's coordinates."""
    for a in itertools.product(range(p), repeat=3):
        sol = enumerate_solutions(SurfaceParams.make(p, a))
        nbr = neighbor_indices(sol)
        x = sol.points.T.astype(np.int64)
        for i in range(3):
            image = sol.points[nbr[i]].T
            naive = naive_move(p, a, x, i)
            assert all(np.array_equal(image[j], naive[j]) for j in range(3)), (p, a, i)


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
    # one id per cell, and -1 exactly on the empty cells
    assert part.cell_ids.shape == (p * p,)
    assert np.array_equal(part.cell_ids < 0, sol.offsets[1:] == sol.offsets[:-1]), (p, a)
    if len(sol) == 0:
        assert part.orbits == [] and part.multiset == {}
        return 0
    ids, orbits, multiset = strong_search_orbits(sol)
    assert np.array_equal(part.ids(sol.points.T), ids), (p, a)
    assert part.orbits == orbits and part.multiset == multiset, (p, a)
    return len(orbits)


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
def test_cell_search_matches_strong_search_on_every_triple(p):
    counts = {assert_matches_strong_search(p, a) for a in itertools.product(range(p), repeat=3)}
    if p >= 7:  # one orbit, the four of (2,2,2), and the more of s = 0 and (2,2,-2)
        assert {1, 4} <= counts and max(counts) > 4


def test_cell_search_matches_strong_search_on_seeded_sets():
    rng = np.random.default_rng(19)
    counts = {}
    for p in (17, 31, 61, 101, 151, 211):
        # (-1,-1,-1) has s = 0 and lies on Cayley's cubic; at p = 13 it is
        # (12,12,12) of the every-triple test
        special = [(0, 0, -3), (2, 2, -2), (0, 0, 0), (2, 2, 2), (2, 5, 5), (-1, -1, -1)]
        seeded = [tuple(int(v) for v in rng.integers(0, p, 3)) for _ in range(4)]
        for a in special + seeded:
            counts[p, a] = assert_matches_strong_search(p, a)
    # four orbits, one per search; 41 searched orbits; and, on s = 0,
    # more orbits than int8 ids hold
    assert counts[211, (2, 2, 2)] == 4
    assert counts[211, (2, 2, -2)] == 41 and counts[211, (0, 0, -3)] == 640
    assert counts[211, (-1, -1, -1)] == 280


def test_one_search_per_orbit(monkeypatch):
    """One search per orbit, s = 0 included, each from the first unlabelled cell.

    The ids are int8 up to 128 orbits and int32 past them.
    """
    searches = []
    search = orbits_module.breadth_first_order

    def counted(*args, **kwargs):
        searches.append(args[1])
        return search(*args, **kwargs)

    monkeypatch.setattr(orbits_module, "breadth_first_order", counted)
    for a, orbit_count, dtype in (((1, 1, 1), 1, np.int8), ((2, 2, -2), 41, np.int8),
                                  ((0, 0, -3), 640, np.int32),
                                  ((210, 210, 210), 280, np.int32)):
        searches.clear()
        part = part_for(211, a)
        assert len(part.orbits) == orbit_count and part.cell_ids.dtype == dtype, a
        assert len(searches) == orbit_count, a
        # each search starts at the first unlabelled cell
        assert searches == sorted(searches), a


def test_search_bound_is_arithmetic_only():
    """2M targets and p^2 + 1 row pointers fit in int32."""
    limit = INT32_MAX // 2
    _require_search_bound(26003, limit)
    with pytest.raises(ResourceGuardError, match="int32 edge bound"):
        _require_search_bound(26003, limit + 1)
    _require_search_bound(46337, limit)  # the largest prime with p^2 + 1 <= INT32_MAX
    with pytest.raises(ResourceGuardError, match="cell nodes"):
        _require_search_bound(46349, 0)


def test_move_out_of_a_restricted_set_is_named():
    """A kept row whose move image was dropped: KeyError names that image.

    compute_orbits and neighbor_indices each name an m_0 image of a kept
    row, on (1,1,1) and the s = 0 set (0,0,-3) restricted to x1 < 6, and
    on a set that keeps the first orbit O of (0,0,-3) whole but, of its
    multiple 3*O, only the cells with x1 < 6: the search from 3*O's
    first kept cell must name an image that was dropped.
    """
    p = 13
    cases = []
    for a in ((1, 1, 1), (0, 0, -3)):
        sol = enumerate_solutions(SurfaceParams.make(p, a))
        x1 = sol.points[:, 0]
        cases.append((sol, x1 < 6))
    part = compute_orbits(sol)
    ids = part.ids(sol.points.T)
    first = part.orbits[0][1]
    multiple = part.cell_ids[3 * first[0] % p * p + 3 * first[1] % p]
    assert multiple > 0 and (x1[ids == multiple] >= 6).any()
    cases.append((sol, (ids == 0) | ((ids == multiple) & (x1 < 6))))
    for sol, keep in cases:
        triples = set(sol.iter_triples())
        restricted = restrict(sol, keep)
        kept = set(restricted.iter_triples())
        for search in (compute_orbits, neighbor_indices):
            with pytest.raises(KeyError) as raised:
                search(restricted)
            image = ast.literal_eval(raised.value.args[0].split(" is not")[0])
            assert image in triples and image not in kept and image[0] >= 6
            assert any(apply_move(sol.params, x, 0) == image for x in kept)


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


def test_verify_divisibility_refuses_an_incomplete_set():
    """One orbit of (2,5,5) at p = 13, 65 of the 156 points, is divisible but not the surface."""
    sol = enumerate_solutions(SurfaceParams.make(13, (2, 5, 5)))
    part = compute_orbits(sol)
    orbit = restrict(sol, part.ids(sol.points.T) == int(np.argmin(part.orbit_sizes())))
    with pytest.raises(CertificateError,
                       match="^the set holds M = 65 points, but the surface has 156 nonzero points$"):
        verify_divisibility(compute_orbits(orbit))


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


def cone_matches_search(p, a):
    """cone_orbits equals compute_orbits on the enumerated surface: orbits, ids and total."""
    params = SurfaceParams.make(p, a)
    sol = enumerate_solutions(params)
    part, cone = compute_orbits(sol), cone_orbits(params)
    assert cone.multiset == part.multiset, (p, a)
    assert cone.orbits == part.orbits, (p, a)  # sizes and least points, in order
    assert np.array_equal(cone.ids(sol.points.T), part.ids(sol.points.T)), (p, a)
    assert cone.total == len(sol) == count_solutions_bruteforce(params), (p, a)
    return cone


def test_cone_orbits_match_the_search_on_every_small_s0_triple():
    triples = [(p, a) for p in (3, 5, 7, 11, 13) for a in itertools.product(range(p), repeat=3)
               if (3 + sum(a)) % p == 0]
    assert len(triples) == 373
    for p, a in triples:
        cone_matches_search(p, a)


def test_cone_orbits_match_the_search_on_seeded_s0_sets():
    """Seeded s = 0 sets, with (-1,-1,-1) on Cayley's cubic and the dihedral (0,0,-3)."""
    rng = random.Random(20261020)
    for p in (101, 211, 401):
        triples = [(-1, -1, -1), (0, 0, -3)]
        while len(triples) < 7:
            a1, a2 = rng.randrange(p), rng.randrange(p)
            triples.append((a1, a2, -3 - a1 - a2))
        for a in triples:
            cone = cone_matches_search(p, a)
            if (p, a) == (211, (-1, -1, -1)):
                assert cone.multiset == {1: 210, 1266: 70}


def test_cone_orbits_reports_as_a_partition():
    """size_table, verify_divisibility and partition_report read both partitions alike."""
    for p, a in ((13, (0, 0, -3)), (13, (0, 1, 9)), (7, (1, 1, -5))):
        params = SurfaceParams.make(p, a)
        part, cone = compute_orbits(enumerate_solutions(params)), cone_orbits(params)
        assert size_table(cone) == size_table(part)
        assert partition_report(cone) == partition_report(part)
        assert verify_divisibility(cone) == verify_divisibility(part)


def test_cone_ids_off_the_cone():
    """Points off the cone, the origin among them, have id -1; a move keeps every id."""
    params = SurfaceParams.make(13, (0, 0, -3))
    cone = cone_orbits(params)
    x = np.array(list(itertools.product(range(13), repeat=3))).T
    ids = cone.ids(x)
    on = residual_array(params, x) == 0
    on[0] = False  # the origin
    assert (ids[~on] == -1).all() and (ids[on] >= 0).all()
    for i in range(3):
        assert np.array_equal(cone.ids(np.stack(apply_move(params, x[:, on], i))), ids[on])


def test_cone_orbits_above_the_int32_bound():
    """At p = 50021, above the 46337 bound of p^2 + 1 < 2^31, the engine stays exact.

    Its charts and class keys (_monic_roots, _projective, _locate) must
    stay int64 there.  Every class representative, (x1, x2, 1) or
    (x1, 1, 0), is checked on the cone with a Python-int residual.
    """
    p, a = 50021, (1, 1, 50016)
    cone = cone_orbits(SurfaceParams.make(p, a))
    reps = cone.reps.T.tolist()
    assert len(reps) == len(set(map(tuple, reps))) == 50_022
    assert all(x[2] == 1 or x[1:] == [1, 0] for x in reps)
    assert all(naive_residual(p, a, x) == 0 for x in reps)
    assert cone.total == 2_502_100_440
    assert cone.orbits == [(2_502_100_440, (1, 1, 1))]


def test_cone_engine_refusals(monkeypatch):
    """s != 0 and p = 2 are out of domain; the guards trip before the work they bound.

    p above CONE_MAX_PRIME is refused before the classes are listed, and
    more than CONE_MAX_ORBITS orbits before any least point is sought,
    when the orbit list or ids are first read.
    """
    for p, a in ((13, (1, 1, 1)), (2, (1, 0, 0))):
        with pytest.raises(ValueError, match="s = 0 and an odd prime"):
            cone_orbits(SurfaceParams.make(p, a))

    def listed(*args):
        raise AssertionError("the guarded work ran")

    # (0,0,-3) at p = 4001 has 10,008 orbits: labels need no per-orbit array, ids do
    params = SurfaceParams.make(4001, (0, 0, -3))
    monkeypatch.setattr(orbits_module, "CONE_MAX_ORBITS", 10_007)
    monkeypatch.setattr(orbits_module, "_least_points", listed)
    cone = cone_orbits(params)
    assert cone.total == 4000 * 4002
    assert cone.labels(np.array([[1], [1], [0]]))[0] == -1  # (1, 1, 0) is off the cone
    for read in (lambda: cone.orbits, lambda: cone.ids(np.array([[1], [1], [0]]))):
        with pytest.raises(ResourceGuardError, match="10008 orbits exceed the s = 0 orbit engine's"):
            read()
    monkeypatch.setattr(orbits_module, "_cone_classes", listed)
    p = next(q for q in range(CONE_MAX_PRIME + 1, CONE_MAX_PRIME + 200) if is_prime(q))
    with pytest.raises(ResourceGuardError, match=f"p = {p} exceeds the s = 0 orbit engine's"):
        cone_orbits(SurfaceParams.make(p, (0, 0, -3)))
