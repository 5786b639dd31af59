import itertools
import signal

import numpy as np
import pytest

from markoff.enumeration import enumerate_solutions
from markoff.orbits import (_component_labels, _first_row_numbering, compute_orbits,
                            neighbor_indices, no_bigons_holds, partition_report,
                            size_table, verify_divisibility)
from markoff.surface import SurfaceParams, apply_move

from conftest import naive_orbits


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
        nbr = part.neighbors
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


def test_numbering_is_canonical_in_any_label_order():
    """Labels in first-row order are kept; any other order is ranked to the same ids."""
    rng = np.random.default_rng(18)
    for p, a in [(7, (2, 2, -2)), (13, (2, 2, -2)), (11, (2, 5, 5)), (13, (0, 0, -3))]:
        part = part_for(p, a)
        n, m = len(part.orbits), len(part.solutions)
        assert n > 1
        ids, first = _first_row_numbering(part.component_id, n)
        assert ids is part.component_id  # already canonical: reused, not copied
        for relabel in (np.arange(n)[::-1], rng.permutation(n)):
            ids, first = _first_row_numbering(relabel[part.component_id].astype(np.int32), n)
            assert np.array_equal(ids, part.component_id)
            assert [part.solutions.triple(int(k)) for k in first] == [r for _, r in part.orbits]
            assert ids.dtype == np.int32 and first.max() < m
    one = np.zeros(5, dtype=np.int32)
    ids, first = _first_row_numbering(one, 1)
    assert ids is one and first.tolist() == [0]


def test_neighbor_indices_are_involutive():
    sol = enumerate_solutions(SurfaceParams.make(11, (1, 2, 3)))
    nbr = neighbor_indices(sol)
    for i in range(3):
        assert np.array_equal(nbr[i][nbr[i]], np.arange(len(sol)))


def test_neighbor_buffer_is_the_csr_layout():
    """The CSR indices _component_labels builds are a view of neighbor_indices' buffer."""
    nbr = neighbor_indices(enumerate_solutions(SurfaceParams.make(11, (1, 2, 3))))
    assert nbr.dtype == np.int32 and nbr.T.flags.c_contiguous
    assert np.shares_memory(np.ascontiguousarray(nbr.T, dtype=np.int32).ravel(), nbr)


@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_rows_repeat_only_self_loops(p):
    """Every a at p: a CSR row repeats a column only as a self-loop.

    scipy's strong search hangs on a row that lists another vertex twice,
    inside C code that no Python handler can interrupt, so the alarm keeps
    its default action: a hang ends the test run instead of stalling it.
    """
    previous = signal.signal(signal.SIGALRM, signal.SIG_DFL)
    signal.alarm(120)
    try:
        for a in itertools.product(range(p), repeat=3):
            sol = enumerate_solutions(SurfaceParams.make(p, a))
            m = len(sol)
            rows = neighbor_indices(sol).T
            own = np.arange(m)
            for i, j in ((0, 1), (0, 2), (1, 2)):
                repeated = rows[:, i] == rows[:, j]
                assert np.array_equal(rows[repeated, i], own[repeated]), (p, a, i, j)
            if m:
                n, labels = _component_labels(rows.T, m)
                assert len(labels) == m and labels.max() == n - 1
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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
