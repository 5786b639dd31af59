import dataclasses
import itertools
import re
import sys

import numpy as np
import pytest

from markoff import delta
from markoff.delta import (CertificateError, DeltaAssignment,
                           NoConsistentExtension, build_certificate,
                           delta_values, verify_certificate)
from markoff.enumeration import SolutionSet, enumerate_solutions
from markoff.field import chi, inverse, mult_order
from markoff.orbits import compute_orbits
from markoff.surface import (SurfaceParams, apply_move, classify_parameters,
                             ALL_NONDEGENERATE, HYPOTHESIS_VIOLATED, SPECIAL_FORM)

from conftest import dihedral_cycles, naive_solutions, restrict, zero_plane


def params_of(p, a):
    return SurfaceParams.make(p, a)


def test_delta_values_frozen_examples():
    params = params_of(7, (0, 0, 0))
    assert delta_values(params, (1, 1, 1)) == (1, 1, 1)
    assert sum(delta_values(params, (1, 1, 1))) % 7 == params.s
    params = params_of(7, (1, 1, 1))
    assert delta_values(params, (1, 1, 1)) == (2, 2, 2)


def test_delta_values_rejects_zero_coordinates():
    # a zero coordinate off the surface is refused, one on it is a plane point
    params = params_of(7, (1, 1, 1))
    with pytest.raises(ValueError, match=re.escape("(0, 1, 1)")):
        delta_values(params, (0, 1, 1))
    assert delta_values(params, (0, 2, 4))[0] == (1 * inverse(2, 7) + 1 * inverse(4, 7)) \
        * inverse(2, 7) % 7


def test_delta_total_identity_off_hyperplanes():
    for p, a in [(7, (1, 1, 1)), (11, (3, 1, 4)), (13, (2, 3, 3))]:
        params = params_of(p, a)
        for x in naive_solutions(p, params.a):
            if all(v != 0 for v in x):
                assert sum(delta_values(params, x)) % p == params.s


def test_delta_pair_identity_on_edges(rng):
    for p, a in [(7, (1, 1, 1)), (11, (3, 1, 4)), (13, (5, 2, 8))]:
        params = params_of(p, a)
        sols = [x for x in naive_solutions(p, a) if all(v != 0 for v in x)]
        checked = 0
        for _ in range(1000):
            x = sols[rng.randrange(len(sols))]
            i = rng.randrange(3)
            y = apply_move(params, x, i)
            if any(v == 0 for v in y):
                continue
            assert (delta_values(params, x)[i] + delta_values(params, y)[i]) % p \
                == params.s
            checked += 1
        assert checked > 500


def test_delta_fix_identity():
    for p, a in [(7, (2, 3, 3)), (13, (2, 2, -2))]:
        params = params_of(p, a)
        for x in naive_solutions(p, a):
            if any(v == 0 for v in x):
                continue
            for i in range(3):
                if apply_move(params, x, i) == x:
                    assert delta_values(params, x)[i] == params.s * inverse(2, p) % p


def cycles(params, i):
    """The dihedral cycles (zs, ws) of the enumerated plane x_i = 0."""
    plane = zero_plane(enumerate_solutions(params), i)
    return dihedral_cycles(params.p, params.a, plane, i)


class TestZeroCycle:
    def test_markoff_cycle_has_length_four(self):
        # r^2 = -1, so the rotation has order 2 whenever -1 is a square
        zs, ws = next(cycles(params_of(5, (0, 0, 0)), 0))
        assert len(zs) == 2
        assert len(set(zs + ws)) == 4

    def test_order_one_iff_degenerate(self):
        params = params_of(7, (2, 3, 3))
        plane = zero_plane(enumerate_solutions(params), 0)
        assert len(plane) == 6  # single line, p - 1 points
        for zs, ws in dihedral_cycles(7, params.a, plane, 0):
            assert zs == ws and len(zs) == 1
            x = zs[0]
            assert apply_move(params, x, 1) == x and apply_move(params, x, 2) == x

    def test_cycle_frozen_example_p7_a111(self):
        params = params_of(7, (1, 1, 1))
        plane = zero_plane(enumerate_solutions(params), 0)
        # the plane is the pair of lines x3 = r x2, r^2 + r + 1 = 0
        assert {x[2] * inverse(x[1], 7) % 7 for x in plane} == {2, 4}
        # the twelve plane points split into two 6-cycles; 4 has order 3 mod 7
        found = list(dihedral_cycles(7, params.a, plane, 0))
        assert [len(zs) for zs, _ in found] == [3, 3]
        assert all(len(set(zs + ws)) == 6 for zs, ws in found)
        assert set().union(*(zs + ws for zs, ws in found)) == set(plane)

    def test_rho_order_divides_p_minus_chi(self):
        for p in (5, 7, 11, 13, 17):
            for ai in range(p):
                params = params_of(p, (ai, 1, 2))
                if chi(ai * ai - 4, p) == -1:
                    continue
                zs, _ = next(cycles(params, 0))
                r = zs[0][2] * inverse(zs[0][1], p) % p
                assert len(zs) == mult_order(r * r % p, p)
                assert (p - chi(ai * ai - 4, p)) % len(zs) == 0

    def test_dihedral_relation_on_cycle(self):
        # m_{i-1} rho = rho^{-1} m_{i-1} pointwise on the plane
        for p, a in [(7, (1, 1, 1)), (13, (5, 2, 8))]:
            params = params_of(p, a)
            sol = enumerate_solutions(params)
            for i in range(3):
                im1, ip1 = (i - 1) % 3, (i + 1) % 3

                def rho(x):
                    return apply_move(params, apply_move(params, x, im1), ip1)

                def rho_inv(x):
                    return apply_move(params, apply_move(params, x, ip1), im1)

                for x in zero_plane(sol, i):
                    lhs = apply_move(params, rho(x), im1)
                    rhs = rho_inv(apply_move(params, x, im1))
                    assert lhs == rhs

    def test_other_move_is_rotation_composed_with_reflection(self):
        # m_{i+1} = m_{i-1} rho^{N-1} as maps on each cycle
        params = params_of(7, (1, 1, 1))
        for i in range(3):
            im1, ip1 = (i - 1) % 3, (i + 1) % 3
            for zs, ws in cycles(params, i):
                for x in zs + ws:
                    y = x
                    for _ in range(len(zs) - 1):
                        y = apply_move(params, apply_move(params, y, im1), ip1)
                    assert apply_move(params, y, im1) == apply_move(params, x, ip1)

    def test_rho_scales_delta_by_inverse_square_root(self):
        for p, a in [(7, (1, 1, 1)), (11, (3, 1, 4)), (13, (5, 2, 8))]:
            params = params_of(p, a)
            sol = enumerate_solutions(params)
            for i in range(3):
                for x in zero_plane(sol, i):
                    im1, ip1 = (i - 1) % 3, (i + 1) % 3
                    r = x[ip1] * inverse(x[im1], p) % p
                    rx = apply_move(params, apply_move(params, x, im1), ip1)
                    lhs = delta_values(params, rx)[i]
                    rhs = inverse(r * r % p, p) * delta_values(params, x)[i] % p
                    assert lhs == rhs

    def test_cycle_average_balance(self):
        # summing Delta_{i-1} + Delta_{i+1} over the 2N dihedral-group images
        # of a plane point (with multiplicity) gives 2*N*s
        for p, a in [(7, (1, 1, 1)), (11, (3, 1, 5)), (13, (2, 5, 5))]:
            params = params_of(p, a)
            for i in range(3):
                im1, ip1 = (i - 1) % 3, (i + 1) % 3
                for zs, ws in cycles(params, i):
                    values = [delta_values(params, x) for x in zs + ws]
                    total = sum(d[im1] + d[ip1] for d in values)
                    assert total % p == 2 * len(zs) * params.s % p


class TestExtendDelta:
    """Delta_{i-1} and Delta_{i+1} on the planes x_i = 0, and the refusals."""

    def test_forced_values_at_order_one(self):
        # a_1 = 2: every point of x1 = 0 is a double fixed point
        params = params_of(7, (2, 3, 3))
        half_s = params.s * inverse(2, 7) % 7
        plane = zero_plane(enumerate_solutions(params), 0)
        assert len(plane) == 6
        for x in plane:
            assert delta_values(params, x) == (0, half_s, half_s)

    def test_no_consistent_extension_for_broken_hypothesis(self):
        for p in (7, 11, 13):
            sol = enumerate_solutions(params_of(p, (2, 2, -2)))
            with pytest.raises(NoConsistentExtension):
                build_certificate(sol)

    @pytest.mark.parametrize("p", (5, 7, 11, 13))
    def test_zero_plane_values_match_the_formula(self, p):
        # Delta_j = s/2 + (2a_j - a_i a_k) x_j / (2(x_k^2 - x_j^2)) for both
        # neighbours j of i, {j, k} = {i-1, i+1}; 1/0 reads as 0, the
        # double fixed points' forced s/2
        def inv(v):
            return pow(v, -1, p) if v % p else 0

        checked = 0
        for raw in itertools.product(range(p), repeat=3):
            params = params_of(p, raw)
            if classify_parameters(params).kind not in (ALL_NONDEGENERATE, SPECIAL_FORM):
                continue
            sol = enumerate_solutions(params)
            values = build_certificate(sol).values
            a, s = params.a, params.s
            for i in range(3):
                for k in np.flatnonzero(sol.points[:, i] == 0):
                    x = sol.triple(k)
                    for j, o in (((i - 1) % 3, (i + 1) % 3), ((i + 1) % 3, (i - 1) % 3)):
                        c = (2 * a[j] - a[i] * a[o]) * x[j] * inv(x[o] ** 2 - x[j] ** 2)
                        assert values[k, j] == (s + c) * inv(2) % p, (a, x, j)
                        checked += 1
        assert checked > 0

    @pytest.mark.parametrize("p", (5, 7, 11, 13))
    def test_refusal_names_the_least_point_of_the_plane(self, p):
        refused = 0
        for raw in itertools.product(range(p), repeat=3):
            params = params_of(p, raw)
            if classify_parameters(params).kind != HYPOTHESIS_VIOLATED:
                continue
            a = params.a
            i = next(i for i in range(3) if (a[i] ** 2 - 4) % p == 0
                     and (2 * a[i - 1] - a[(i + 1) % 3] * a[i]) % p != 0)
            sol = enumerate_solutions(params)
            with pytest.raises(NoConsistentExtension) as refusal:
                build_certificate(sol)
            assert str(refusal.value) == (
                f"double fixed point {zero_plane(sol, i)[0]} forces Delta_{i} = 0 but "
                f"2a_{(i - 1) % 3} != a_{(i + 1) % 3}a_{i} (mod {p})")
            refused += 1
        assert refused > 0


class TestCertificate:
    GOOD = [(7, (1, 1, 1)), (5, (0, 0, 0)), (7, (2, 3, 3)), (11, (0, 3, 0)),
            (13, (3, 7, 9)), (13, (2, 5, 5)), (17, (2, 2, 2)), (13, (2, 11, 11))]

    def test_build_and_verify(self):
        for p, a in self.GOOD:
            params = params_of(p, a)
            sol = enumerate_solutions(params)
            part = compute_orbits(sol)
            report = verify_certificate(build_certificate(sol), part)
            assert report.all_divisible
            assert report.n_points == len(sol)

    def test_corrupted_assignment_fails_loudly(self, monkeypatch):
        """A wrong formula on the plane x_0 = 0 breaks the pair identity there.

        Delta_2 moves by +1 and Delta_1 by -1 on the plane, so the total
        holds; m_1 keeps x_0 = 0, so both ends of its edges carry the
        shift, and move 1 is the first checked that reads either value.
        """
        params = params_of(7, (1, 1, 1))
        sol = enumerate_solutions(params)
        part = compute_orbits(sol)
        ends = delta._delta_ends

        def corrupted(params, x, u, i, moved=None):
            out = ends(params, x, u, i, moved)
            on = x[0] == 0  # both ends of m_1 and m_2 edges, which keep x_0
            out[:, on] = (out[:, on] + (0, -1, 1)[i]) % params.p
            return out

        monkeypatch.setattr(delta, "_delta_ends", corrupted)
        with pytest.raises(CertificateError,
                           match=r"^pair identity fails at \(0, \d+, \d+\) for move 1$"):
            verify_certificate(build_certificate(sol), part)

    def test_corrupted_partition_fails_loudly(self):
        """A flipped orbit id on one cell must not certify itself."""
        params = params_of(13, (2, 5, 5))
        sol = enumerate_solutions(params)
        assign = build_certificate(sol)
        part = compute_orbits(sol)
        x = sol.triple(40)
        cell_ids = part.cell_ids.copy()
        cell_ids[x[0] * 13 + x[1]] = 1 - cell_ids[x[0] * 13 + x[1]]
        with pytest.raises(CertificateError, match="joins components"):
            verify_certificate(assign, dataclasses.replace(part, cell_ids=cell_ids))
        verify_certificate(assign, part)

    def test_partition_of_another_set_is_refused(self):
        """The (2,5,5) partition is a usage error for the (1,1,1) set, not a failed certificate."""
        sol = enumerate_solutions(params_of(13, (1, 1, 1)))
        other = compute_orbits(enumerate_solutions(params_of(13, (2, 5, 5))))
        with pytest.raises(ValueError, match="^orbit partition does not match the solution set$"):
            verify_certificate(build_certificate(sol), other)

    def test_wrong_delta_at_fixed_edge_names_fixed_point(self, monkeypatch):
        # m_0 fixes (1, 7, 7); moving 1 from Delta_1 to Delta_0 there keeps
        # the total, so the first identity to fail is the fixed-point one
        params = params_of(13, (2, 5, 5))
        sol = enumerate_solutions(params)
        part = compute_orbits(sol)
        assert apply_move(params, (1, 7, 7), 0) == (1, 7, 7)
        ends = delta._delta_ends

        def shifted(params, x, u, i, moved=None):
            out = ends(params, x, u, i, moved)
            for end, xi in zip(out, (x[i], moved)):  # the rows, then the images
                y = list(x)
                y[i] = xi
                at = (y[0] == 1) & (y[1] == 7) & (y[2] == 7)
                end[at] = (end[at] + (1, -1, 0)[i]) % params.p
            return out

        monkeypatch.setattr(delta, "_delta_ends", shifted)
        with pytest.raises(CertificateError,
                           match=r"fixed-point identity fails at \(1, 7, 7\) for move 0"):
            verify_certificate(build_certificate(sol), part)

    def test_orbit_level_failures_name_the_representative(self, monkeypatch):
        params = params_of(13, (2, 5, 5))
        sol = enumerate_solutions(params)
        part = compute_orbits(sol)
        assign = build_certificate(sol)
        (size0, rep0), (size1, rep1) = part.orbits
        wrong_sizes = dataclasses.replace(part, orbits=[(size0, rep0), (size1 + 13, rep1)])
        with pytest.raises(CertificateError,
                           match="orbit size count fails for the orbit of " + re.escape(str(rep1))):
            verify_certificate(assign, wrong_sizes)

        # corrupt the per-orbit Delta sums of the second orbit only
        bincount = np.bincount

        def skewed(ids, weights=None, minlength=0):
            out = bincount(ids, weights=weights, minlength=minlength)
            if weights is not None:
                out[1] += 1
            return out

        monkeypatch.setattr(np, "bincount", skewed)
        with pytest.raises(CertificateError,
                           match="half-sum identity for move 0 fails for the orbit of "
                           + re.escape(str(rep1))):
            verify_certificate(assign, part)

    @pytest.mark.parametrize("value", (13, 14, -1))
    def test_unreduced_row_fails(self, value):
        """A coordinate outside [0, 13), above it or negative, names its row."""
        params = params_of(13, (2, 5, 5))
        sol = enumerate_solutions(params)
        part = compute_orbits(sol)
        points = sol.points.copy(order="F")
        points[40, 1] = value
        mutated = SolutionSet(params, points, sol.offsets)
        message = f"row {tuple(points[40].tolist())} is not reduced mod 13"
        with pytest.raises(CertificateError, match="^" + re.escape(message) + "$"):
            verify_certificate(build_certificate(mutated), part)

    @pytest.mark.parametrize("bad", ("count", -1))
    def test_orbit_id_out_of_range_fails(self, bad):
        """A cell whose id is not below the orbit count names the cell's first row."""
        params = params_of(13, (2, 5, 5))
        sol = enumerate_solutions(params)
        part = compute_orbits(sol)
        n = len(part.orbits)
        x = sol.triple(40)
        cell = x[0] * 13 + x[1]
        cell_ids = part.cell_ids.copy()
        cell_ids[cell] = n if bad == "count" else bad
        first = sol.triple(int(sol.offsets[cell]))
        with pytest.raises(CertificateError,
                           match="^" + re.escape(f"{first} has no orbit id below {n}") + "$"):
            verify_certificate(build_certificate(sol), dataclasses.replace(part, cell_ids=cell_ids))

    def test_total_identity_failure_names_the_point(self, monkeypatch):
        """Delta_0 shifted at one row, and not at any image, breaks the total there first."""
        params = params_of(13, (2, 5, 5))
        sol = enumerate_solutions(params)
        part = compute_orbits(sol)
        point = sol.triple(40)
        ends = delta._delta_ends

        def shifted(params, x, u, i, moved=None):
            out = ends(params, x, u, i, moved)
            if i == 0:
                at = (x[0] == point[0]) & (x[1] == point[1]) & (x[2] == point[2])
                out[0, at] = (out[0, at] + 1) % params.p
            return out

        monkeypatch.setattr(delta, "_delta_ends", shifted)
        with pytest.raises(CertificateError,
                           match="^" + re.escape(f"total identity fails at {point}") + "$"):
            verify_certificate(build_certificate(sol), part)

    @pytest.mark.parametrize("i", (0, 1))
    def test_image_off_the_surface_names_the_point(self, monkeypatch, i):
        """A wrong b_i on one row puts that row's m_i image off the surface.

        The verifier reads the image of m_i from x3_coefficients of the
        parameters rotated to axis i, (a_{i+1}, a_{i+2}, a_i), distinct
        from a and from each other for (3, 7, 9).  The image's residual
        along axis i is then the row's plus (b' - b) x_i, so the row has
        x_i != 0.  m_2's coefficients are the row check's own, so its
        image check cannot fail after that check passed.
        """
        params = params_of(13, (3, 7, 9))
        sol = enumerate_solutions(params)
        part = compute_orbits(sol)
        k = 40
        point = sol.triple(k)
        assert point[i] != 0 and len(sol) <= 2 ** 16  # one block: row k is its k-th column
        a = params.a
        axis = (a[(i + 1) % 3], a[(i + 2) % 3], a[i])
        coefficients = delta.x3_coefficients

        def corrupted(params, x1, x2):
            b, c = coefficients(params, x1, x2)
            if params.a == axis:
                b = b.copy()
                b[k] = (b[k] + 1) % params.p
            return b, c

        monkeypatch.setattr(delta, "x3_coefficients", corrupted)
        message = f"move {i} image of {point} is off the surface"
        with pytest.raises(CertificateError, match="^" + re.escape(message) + "$"):
            verify_certificate(build_certificate(sol), part)

    def test_verify_reads_no_move_formula(self, monkeypatch):
        """Images come from the root sum: moved_coordinate and apply_move are never called."""
        import markoff

        params = params_of(13, (3, 7, 9))
        sol = enumerate_solutions(params)
        part = compute_orbits(sol)

        def refused(*args, **kwargs):
            raise AssertionError("the verifier called the move formula")

        for module in [m for name, m in sys.modules.items()
                       if name == "markoff" or name.startswith("markoff.")]:
            for name in ("moved_coordinate", "apply_move"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refused)
        assert markoff.apply_move is refused
        report = verify_certificate(build_certificate(sol), part)
        assert report.all_divisible and report.n_points == len(sol)

    @pytest.mark.parametrize("mutation", ("dropped-orbit", "duplicated-row", "origin-row",
                                          "off-surface-row"))
    def test_incomplete_set_fails(self, mutation):
        """Only the whole surface is certified: each mutation names the counts or the row.

        A dropped orbit passes every per-orbit check and fails the count.
        The other mutations keep M: a row repeated in place of its
        successor, the origin in place of the first row, and the last
        row of a cell moved off the surface within its cell.
        """
        params = params_of(13, (2, 5, 5))
        sol = enumerate_solutions(params)
        part = compute_orbits(sol)
        points = sol.points.copy(order="F")
        k = 40
        if mutation == "dropped-orbit":
            ids = part.ids(sol.points.T)
            mutated = restrict(sol, ids == int(np.argmin(part.orbit_sizes())))
            part = compute_orbits(mutated)
            message = "the set holds M = 65 points, but the surface has 156 nonzero points"
        elif mutation == "duplicated-row":
            points[k + 1] = points[k]
            message = f"rows do not strictly increase from above the origin at {sol.triple(k)}"
        elif mutation == "origin-row":
            points[0] = 0
            message = "rows do not strictly increase from above the origin at (0, 0, 0)"
        else:
            k = next(k for k in range(len(sol) - 1)
                     if points[k, 2] < 12 and sol.triple(k)[:2] != sol.triple(k + 1)[:2])
            points[k, 2] += 1
            message = f"row {tuple(points[k].tolist())} is not on the surface"
        if mutation != "dropped-orbit":
            mutated = SolutionSet(params, points, sol.offsets)
        with pytest.raises(CertificateError, match="^" + re.escape(message) + "$"):
            verify_certificate(build_certificate(mutated), part)

    def test_verify_refuses_outside_the_certificate_domain(self):
        for p, a in ((3, (0, 0, 1)), (7, (0, 0, -3))):
            sol = enumerate_solutions(params_of(p, a))
            assign = DeltaAssignment(sol)
            with pytest.raises(ValueError, match="p >= 5 and s != 0"):
                verify_certificate(assign, compute_orbits(sol))

    def test_refuses_s_zero_and_tiny_p(self):
        with pytest.raises(ValueError):
            build_certificate(enumerate_solutions(params_of(7, (0, 0, -3))))
        with pytest.raises(ValueError):
            build_certificate(enumerate_solutions(params_of(3, (0, 0, 1))))

    @pytest.mark.parametrize("p", (5, 7, 11, 13))
    def test_existence_matches_classification(self, p):
        for a in itertools.product(range(p), repeat=3):
            params = params_of(p, a)
            cls = classify_parameters(params)
            if cls.kind == "s-zero":
                continue
            sol = enumerate_solutions(params)
            if cls.kind in (ALL_NONDEGENERATE, SPECIAL_FORM):
                report = verify_certificate(build_certificate(sol), compute_orbits(sol))
                assert report.all_divisible
            else:
                with pytest.raises(NoConsistentExtension):
                    build_certificate(sol)
