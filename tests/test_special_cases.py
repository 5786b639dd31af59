import re

import numpy as np
import pytest

from markoff import enumeration, special_cases
from markoff.enumeration import enumerate_solutions
from markoff.field import chi, inverse, is_prime
from markoff.orbits import compute_orbits
from markoff.special_cases import (REFERENCE_TABLE_22M2, UNDERCOUNTED_SIZE4,
                                   CubeReport, DihedralReport,
                                   _check_move_graph, lambda_order,
                                   markoff_p3, orbit_table_22m2,
                                   orbits_00_minus3, primes_up_to, table_csv,
                                   tiny_orbits_22m2)
from markoff.surface import SurfaceParams, apply_move, on_surface, residual

from conftest import restrict


class TestLambdaOrder:
    def test_frozen_examples(self):
        assert lambda_order(89) == (True, 11)
        assert lambda_order(11) == (True, 5)
        assert lambda_order(13) == (False, 7)

    def test_rejects_tiny_primes(self):
        with pytest.raises(ValueError):
            lambda_order(5)

    def test_divides_half_group_order(self):
        for p in primes_up_to(120):
            if p <= 5:
                continue
            sqrt5, order = lambda_order(p)
            group = (p - 1) // 2 if sqrt5 else (p + 1) // 2
            assert group % order == 0

    def test_sqrt5_criterion_mod_5(self):
        # quadratic reciprocity: sqrt(5) exists iff p = +-1 mod 5
        for p in primes_up_to(150):
            if p <= 5:
                continue
            assert lambda_order(p)[0] == (p % 5 in (1, 4))

    def test_theta_squared_identity(self):
        # pairs (c0, c1) = c0 + c1*w in F_p[w]/(w^2 - 5): the field F_p(sqrt(5))
        # when chi(5) = -1, and F_p x F_p with lambda -> (lambda, 1/lambda),
        # which has the same order, when chi(5) = 1
        def mul(x, y, p):
            return ((x[0] * y[0] + 5 * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p)

        for p in primes_up_to(200):
            if p <= 5:
                continue
            inv2 = inverse(2, p)
            theta = (3 * inv2 % p, inv2)
            lam = (7 * inv2 % p, 3 * inv2 % p)
            # theta = (3 + sqrt(5))/2 satisfies theta^2 = 3*theta - 1 = lambda
            assert mul(theta, theta, p) == ((3 * theta[0] - 1) % p, 3 * theta[1] % p) == lam
            order, power = 1, lam
            while power != (1, 0):
                power = mul(power, lam, p)
                order += 1
            assert lambda_order(p)[1] == order, p


class TestDihedralFamily:
    def test_frozen_example_p89(self):
        rep = orbits_00_minus3(89)
        assert rep.lambda_order == 11
        assert rep.sqrt5_in_fp
        assert rep.conic1_orbits == 5
        assert rep.conic1_sizes == [11, 11, 22, 22, 22]
        assert rep.conic0_orbits == 8
        assert rep.consistent

    def test_frozen_example_p11(self):
        rep = orbits_00_minus3(11)
        assert rep.conic1_orbits == 2
        assert rep.conic0_orbits == 2
        assert rep.consistent

    def test_frozen_example_p13(self):
        rep = orbits_00_minus3(13)
        assert not rep.sqrt5_in_fp
        assert rep.conic1_orbits == 1
        assert rep.conic0_orbits == 0
        assert rep.consistent

    def test_three_methods_agree_up_to_60(self):
        for p in primes_up_to(60):
            if p <= 5:
                continue
            assert orbits_00_minus3(p).consistent, p

    def test_full_action_matches_single_slice(self):
        # m3 glues the two slices x3 = +-1 without changing the orbit count
        for p in (7, 11, 13, 19, 89):
            rep = orbits_00_minus3(p)
            assert rep.full_orbits_pm1 == rep.bfs_conic1

    def test_slices_match_whole_surface(self):
        # reference: label the whole surface, then read the slices x3 in {0, +-1}
        for p in (7, 11, 13, 17, 19, 29, 31, 41):
            sol = enumerate_solutions(SurfaceParams.make(p, (0, 0, -3)))
            ids = compute_orbits(sol).ids(sol.points.T)
            x3 = sol.points[:, 2]
            sizes1 = np.bincount(ids[x3 == 1])
            sizes1 = sorted(sizes1[sizes1 > 0].tolist())
            n0 = len(np.unique(ids[x3 == 0]))
            n1 = len(sizes1)
            sqrt5, order = lambda_order(p)
            assert sqrt5 == (chi(5, p) == 1) == (n0 > 0)
            oracle = DihedralReport(
                p=p, sqrt5_in_fp=sqrt5, lambda_order=order,
                conic1_orbits=n1, conic0_orbits=n0, bfs_conic1=n1, bfs_conic0=n0,
                burnside_conic1=n1, burnside_conic0=n0, conic1_sizes=sizes1,
                full_orbits_pm1=len(np.unique(ids[(x3 == 1) | (x3 == p - 1)])))
            assert orbits_00_minus3(p) == oracle, p

    def test_slices_are_not_closed_off_the_family(self):
        # for a = (1, 1, 1) the cells meeting x3 in {0, +-1} are not move-closed
        p = 13
        sol = enumerate_solutions(SurfaceParams.make(p, (1, 1, 1)))
        cell = sol.points[:, 0].astype(np.int64) * p + sol.points[:, 1]
        hit = cell[np.isin(sol.points[:, 2], (0, 1, p - 1))]
        with pytest.raises(KeyError):
            compute_orbits(restrict(sol, np.isin(cell, hit)))

    def test_matrix_product_trace_and_det(self):
        for p in (7, 11, 13):
            m1 = ((p - 1, 3), (0, 1))
            m2 = ((1, 0), (3, p - 1))
            prod = (
                ((m1[0][0] * m2[0][0] + m1[0][1] * m2[1][0]) % p,
                 (m1[0][0] * m2[0][1] + m1[0][1] * m2[1][1]) % p),
                ((m1[1][0] * m2[0][0] + m1[1][1] * m2[1][0]) % p,
                 (m1[1][0] * m2[0][1] + m1[1][1] * m2[1][1]) % p),
            )
            trace = (prod[0][0] + prod[1][1]) % p
            det = (prod[0][0] * prod[1][1] - prod[0][1] * prod[1][0]) % p
            assert trace == 7 % p and det == 1
            # matrix action equals the composed surface moves on the slice x3 = 1
            params = SurfaceParams.make(p, (0, 0, -3))
            for x in range(p):
                for y in range(p):
                    moved = apply_move(params, apply_move(params, (x, y, 1), 1), 0)
                    assert moved == ((prod[0][0] * x + prod[0][1] * y) % p,
                                     (prod[1][0] * x + prod[1][1] * y) % p, 1)

    def test_scaling_commutes_with_moves(self):
        # orbit sizes on (*,*,t) match (*,*,1) for every t != 0
        p = 11
        params = SurfaceParams.make(p, (0, 0, -3))
        sol = enumerate_solutions(params)
        ids = compute_orbits(sol).ids(sol.points.T)

        def slice_sizes(t):
            sizes = {}
            for k, x in enumerate(sol.iter_triples()):
                if x[2] == t:
                    comp = int(ids[k])
                    sizes[comp] = sizes.get(comp, 0) + 1
            return sorted(sizes.values())

        base = slice_sizes(1)
        for t in range(2, p):
            assert slice_sizes(t) == base

    def test_reflections_have_no_fixed_points_on_cone(self):
        for p in (11, 19, 29):
            if chi(5, p) != 1:
                continue
            params = SurfaceParams.make(p, (0, 0, -3))
            cone = [x for x in enumerate_solutions(params).iter_triples()
                    if x[2] == 0]
            assert cone
            for x in cone:
                assert apply_move(params, x, 0) != x
                assert apply_move(params, x, 1) != x
                assert apply_move(params, x, 2) == x  # m3 fixes the slice

    def test_no_enumeration(self, monkeypatch):
        """The family reads its slices and orbit labels off the cone engine, not the surface."""
        expected = orbits_00_minus3(89)

        def refused(*args, **kwargs):
            raise AssertionError("the surface was enumerated")

        monkeypatch.setattr(enumeration, "enumerate_solutions", refused)
        monkeypatch.setattr(special_cases, "enumerate_solutions", refused)
        assert orbits_00_minus3(89) == expected

    def test_walk_checks_the_claimed_order(self, monkeypatch):
        """The Burnside walk stops unless rho^order returns every slice point to itself."""
        true_order = special_cases.lambda_order

        def one_too_many(p):
            sqrt5, order = true_order(p)
            return sqrt5, order + 1

        monkeypatch.setattr(special_cases, "lambda_order", one_too_many)
        for p in (11, 13, 89):  # conic0 non-empty at 11 and 89, empty at 13
            with pytest.raises(ArithmeticError, match="rho does not have the claimed order"):
                orbits_00_minus3(p)

    def test_slices_are_checked_on_their_own(self, monkeypatch):
        """A class list that misses, repeats or moves a slice point stops the family.

        Each corruption of the engine's classes reaches _check_slice
        before the closed form or Burnside reads the slices.
        """
        cone_orbits = special_cases.cone_orbits
        p = 11  # chi(5) = 1: both slices are non-empty

        def corrupted(change):
            def engine(params):
                part = cone_orbits(params)
                part.reps = change(part.reps.copy())
                return part
            return engine

        def dropped(reps):
            return np.delete(reps, 0, axis=1)

        def repeated(reps):
            reps[:, 1] = reps[:, 0]
            return reps

        def off_surface(reps):
            params = SurfaceParams.make(p, (0, 0, -3))
            x1 = int(reps[0, 0])
            reps[1, 0] = next(v for v in range(p) if residual(params, (x1, v, 1)))
            return reps

        def repeated_line(reps):
            lines = np.flatnonzero(reps[2] == 0)
            reps[:, lines[1]] = reps[:, lines[0]]
            return reps

        for change, message in ((dropped, "x3 = 1 has 9 points listed, not 10"),
                                (repeated, "lists a point twice"),
                                (off_surface, "off the slice or off the surface"),
                                (repeated_line, "lists a point twice")):
            monkeypatch.setattr(special_cases, "cone_orbits", corrupted(change))
            with pytest.raises(ArithmeticError, match=message):
                orbits_00_minus3(p)


class TestTinyOrbits:
    def test_verified_for_several_primes(self):
        for p in (7, 11, 13, 17, 23):
            params = SurfaceParams.make(p, (2, 2, -2))
            rep = tiny_orbits_22m2(params)
            assert not rep.s_zero
            assert len(rep.singletons) == 3
            assert len(rep.barbells) == 3
            assert len(rep.tripods) == 4
            assert not rep.tripods_degenerate
            assert rep.all_verified()

    def test_singletons_fixed_by_all_moves(self):
        p = 19
        params = SurfaceParams.make(p, (2, 2, -2))
        u = inverse(params.s, p)
        x = (4 * u % p, 4 * u % p, 0)
        assert on_surface(params, x)
        for i in range(3):
            assert apply_move(params, x, i) == x

    def test_s_zero_skips(self):
        rep = tiny_orbits_22m2(SurfaceParams.make(5, (2, 2, -2)))
        assert rep.s_zero
        assert rep.singletons == [] and rep.barbells == [] and rep.tripods == []

    def test_p3_tripods_degenerate(self):
        rep = tiny_orbits_22m2(SurfaceParams.make(3, (2, 2, -2)))
        assert not rep.s_zero
        assert rep.tripods_degenerate
        assert rep.all_verified()       # singletons and barbells still check out
        assert len(rep.singletons) == 3 and len(rep.barbells) == 3

    def test_tripod_classes_by_zero_leaves(self):
        # one tripod has all three leaves with a zero coordinate, the other
        # three have exactly one such leaf
        params = SurfaceParams.make(13, (2, 2, -2))
        rep = tiny_orbits_22m2(params)
        zero_leaf_counts = sorted(
            sum(1 for pt in t.points[1:] if 0 in pt) for t in rep.tripods)
        assert zero_leaf_counts == [1, 1, 1, 3]

    def test_move_graph_check_rejects_wrong_graphs(self):
        params = SurfaceParams.make(13, (2, 2, -2))
        rep = tiny_orbits_22m2(params)
        for t in rep.singletons + rep.barbells + rep.tripods:
            _check_move_graph(params, t.points, t.edges)
        (barbell,) = [b for b in rep.barbells if b.edges[0][1] == 0]
        left, right = barbell.points
        center, *leaves = rep.tripods[0].points
        rotated = [(center, (i + 1) % 3, leaf) for i, leaf in enumerate(leaves)]
        off = (left[0], left[1], (left[2] + 1) % 13)
        cases = [
            ([left], [], [left, "move 0"]),
            ([right], [], [right, "move 0"]),
            ([left], [(left, 0, right)], [left, right, "move 0"]),
            ([left, right], [(left, 1, right)], [left, "move 0"]),
            (rep.tripods[0].points, rotated, [center, "move 0"]),
            ([off], [], [off, "not on the surface"]),
        ]
        for points, edges, named in cases:
            with pytest.raises(ArithmeticError) as err:
                _check_move_graph(params, points, edges)
            for word in named:
                assert str(word) in str(err.value)

    def test_rejects_other_parameters(self):
        with pytest.raises(ValueError):
            tiny_orbits_22m2(SurfaceParams.make(7, (1, 1, 1)))


class TestMarkoffP3:
    def test_report(self):
        rep = markoff_p3()
        assert isinstance(rep, CubeReport)
        assert rep.n_points == 8
        assert rep.multiset == {8: 1}
        assert rep.is_cube
        # twelve edges, each vertex on one edge per move: the 3-cube
        assert len(rep.edges) == 12
        for x in rep.points:
            assert sorted(i for left, i, right in rep.edges if x in (left, right)) == [0, 1, 2]
        _check_move_graph(SurfaceParams.make(3, (0, 0, 0)), rep.points, rep.edges)

    def test_wrong_listed_edge_raises(self):
        params = SurfaceParams.make(3, (0, 0, 0))
        rep = markoff_p3()
        (left, i, right), *rest = rep.edges
        for wrong in ([(left, (i + 1) % 3, right)] + rest,   # wrong move index
                      [(left, i, (2, 2, 2))] + rest,           # wrong far end
                      rest):                                   # a missing edge
            with pytest.raises(ArithmeticError, match=re.escape(str(left))):
                _check_move_graph(params, rep.points, wrong)

    def test_moves_off_the_cube_raise(self, monkeypatch):
        def shifted(params, x, i):
            return apply_move(params, x, (i + 1) % 3)

        monkeypatch.setattr(special_cases, "apply_move", shifted)
        with pytest.raises(ArithmeticError, match=r"move 0 maps \(1, 1, 1\)"):
            markoff_p3()


class TestReferenceTable:
    def test_reference_rows_are_recorded_for_all_primes_to_43(self):
        assert sorted(REFERENCE_TABLE_22M2) == primes_up_to(43)

    def test_recomputed_tables(self):
        rows = orbit_table_22m2(43)
        assert [r.p for r in rows] == primes_up_to(43)
        for row in rows:
            if row.p in UNDERCOUNTED_SIZE4:
                assert row.matches_reference is False
                assert row.corrected_match is True
                assert row.computed[4] == 4
            else:
                assert row.matches_reference is True

    def test_row_sums(self):
        for row in orbit_table_22m2(43):
            total = sum(size * count for size, count in row.computed.items())
            expected = len(enumerate_solutions(SurfaceParams.make(row.p, (2, 2, -2))))
            assert total == expected

    def test_csv_format(self):
        rows = orbit_table_22m2(13)
        text = table_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "p,orbit_sizes"
        assert lines[1] == '2,"4^1"'
        assert lines[4] == '7,"1^3, 2^3, 4^4, 8^3"'
        assert lines[6] == '13,"1^3, 2^3, 4^4, 16^3, 24^4"'


def test_primes_up_to():
    assert primes_up_to(13) == [2, 3, 5, 7, 11, 13]
    assert is_prime(43)
