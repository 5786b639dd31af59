import itertools

import pytest

from markoff.conics import (DOUBLE_LINE, ELLIPSE, EMPTY, HYPERBOLA,
                            INTERSECTING_LINES, PARABOLA, PARALLEL_LINES,
                            SINGLE_POINT, ConicParams, cayley_correction,
                            cayley_membership, classify_and_count,
                            closed_form_total, count_conic_bruteforce,
                            degeneracy_quantity, fiber_conic, total_via_fibers)
from markoff.field import chi
from markoff.surface import SurfaceParams

from conftest import naive_conic_count, naive_solutions


def test_classify_frozen_examples():
    assert classify_and_count(ConicParams.make(7, 0, 0, 0, -1)) == (ELLIPSE, 8)
    assert classify_and_count(ConicParams.make(5, 0, 0, 0, 0)) == (INTERSECTING_LINES, 9)
    assert classify_and_count(ConicParams.make(7, 2, 0, 0, 0)) == (DOUBLE_LINE, 7)


def test_classify_covers_all_classes():
    seen = {}
    for p in (5, 7, 11):
        for conic in itertools.product(range(p), repeat=4):
            c = ConicParams.make(p, *conic)
            kind, _ = classify_and_count(c)
            seen.setdefault(kind, c)
    assert set(seen) == {ELLIPSE, HYPERBOLA, PARABOLA, INTERSECTING_LINES,
                         SINGLE_POINT, DOUBLE_LINE, PARALLEL_LINES, EMPTY}


def test_count_matches_naive_exhaustive_p3_p5():
    for p in (3, 5):
        for conic in itertools.product(range(p), repeat=4):
            c = ConicParams.make(p, *conic)
            assert classify_and_count(c)[1] == naive_conic_count(p, *conic), conic


def test_count_matches_bruteforce_random(rng):
    for p in (11, 31, 101):
        for _ in range(300):
            c = ConicParams.make(p, rng.randrange(p), rng.randrange(p),
                                 rng.randrange(p), rng.randrange(p))
            assert classify_and_count(c)[1] == count_conic_bruteforce(c)


def test_bruteforce_helper_matches_naive():
    for p in (3, 7):
        for conic in [(0, 0, 0, 1), (1, 2, 3, 4), (2, 0, 1, 0)]:
            c = ConicParams.make(p, *conic)
            assert count_conic_bruteforce(c) == naive_conic_count(p, *conic)


def test_p2_unsupported():
    with pytest.raises(ValueError):
        classify_and_count(ConicParams.make(2, 0, 0, 0, 1))


def test_diagonal_conic_count():
    # x^2 - alpha*y^2 = beta has p - chi(alpha) points for alpha, beta != 0;
    # cross-checked against a smooth B-form conic with the same character
    for p in (7, 11, 13, 19):
        for alpha in range(1, p):
            for beta in (1, 2, p - 1):
                direct = sum(1 for x in range(p) for y in range(p)
                             if (x * x - alpha * y * y - beta) % p == 0)
                assert direct == p - chi(alpha, p)
                b_match = next(b for b in range(p)
                               if (b * b - 4) % p != 0 and chi(b * b - 4, p) == chi(alpha, p))
                c = ConicParams.make(p, b_match, 0, 0, -beta)
                assert classify_and_count(c)[1] == p - chi(alpha, p)


def test_degeneracy_quantity_is_square_when_b2_is_4(rng):
    for p in (7, 13, 31):
        for _ in range(200):
            b = 2 if rng.random() < 0.5 else p - 2
            d, e, f = (rng.randrange(p) for _ in range(3))
            c = ConicParams.make(p, b, d, e, f)
            half_b = b * pow(2, -1, p) % p
            assert degeneracy_quantity(c) == (e - half_b * d) ** 2 % p


def test_cayley_membership_frozen_examples():
    assert cayley_membership((2, 2, 2), 7)
    assert not cayley_membership((0, 0, 0), 7)
    assert not cayley_membership((2, 2, 5), 7)   # (2, 2, -2) mod 7


def test_cayley_correction_branches():
    # off the cubic
    assert cayley_correction(SurfaceParams.make(7, (0, 0, 0))) == 0
    # special form on the cubic: C = -chi(alpha^2 - 4)
    assert cayley_correction(SurfaceParams.make(7, (2, 3, 3))) == -chi(5, 7)
    # degenerate special values: C = 0
    assert cayley_correction(SurfaceParams.make(7, (2, 2, 2))) == 0
    # on the cubic but not special form: C = -prod chi(a_i^2 - 4)
    for p in (7, 11, 13):
        for a in itertools.product(range(p), repeat=3):
            params = SurfaceParams.make(p, a)
            if not cayley_membership(params.a, p):
                assert cayley_correction(params) == 0
                continue
            from markoff.surface import special_form_detect
            if special_form_detect(params) is None:
                prod = 1
                for ai in params.a:
                    prod *= chi(ai * ai - 4, p)
                assert cayley_correction(params) == -prod


def test_closed_form_total_frozen_examples():
    assert closed_form_total(SurfaceParams.make(5, (0, 0, 0))) == 40
    assert closed_form_total(SurfaceParams.make(13, (2, 2, -2))) == 169
    assert closed_form_total(SurfaceParams.make(7, (1, 1, 1))) == 70


def test_closed_form_total_matches_enumeration_small():
    for p in (5, 7):
        for a in itertools.product(range(p), repeat=3):
            params = SurfaceParams.make(p, a)
            if params.s == 0:
                continue
            assert closed_form_total(params) == len(naive_solutions(p, a)), (p, a)


def test_closed_form_preconditions():
    with pytest.raises(ValueError):
        closed_form_total(SurfaceParams.make(7, (0, 0, -3)))   # s = 0
    with pytest.raises(ValueError):
        closed_form_total(SurfaceParams.make(3, (1, 1, 1)))    # p < 5


def test_fiber_conic_frozen_examples():
    params = SurfaceParams.make(7, (0, 0, 0))
    c = fiber_conic(params, 2, 1)
    assert (c.B, c.D, c.E, c.F) == ((-3) % 7, 0, 0, 1)
    c0 = fiber_conic(params, 1, 0)
    assert (c0.B, c0.D, c0.E, c0.F) == (params.a[1], 0, 0, 0)


def test_fiber_conic_counts_slice_points():
    for p, a in [(5, (1, 2, 3)), (7, (2, 3, 3)), (11, (0, 0, 0))]:
        params = SurfaceParams.make(p, a)
        sols = naive_solutions(p, a)
        for i in range(3):
            for v in range(p):
                slice_count = sum(1 for x in sols if x[i] == v) + (1 if v == 0 else 0)
                c = fiber_conic(params, i, v)
                assert classify_and_count(c)[1] == slice_count, (p, a, i, v)


def test_total_via_fibers_matches_closed_form():
    # slice sums agree with the closed form for every parameter triple
    for p in (5, 7, 11, 13):
        for a in itertools.product(range(p), repeat=3):
            params = SurfaceParams.make(p, a)
            if params.s == 0:
                continue
            assert total_via_fibers(params) == closed_form_total(params), (p, a)
    # and independently of which coordinate is sliced
    for p, a in [(7, (2, 3, 3)), (11, (1, 2, 3)), (13, (2, 2, -2))]:
        params = SurfaceParams.make(p, a)
        for i in range(3):
            assert total_via_fibers(params, i) == closed_form_total(params)


def test_degenerate_slices_are_a3_and_quadratic_roots():
    for p in (7, 11, 13):
        for a in [(1, 1, 1), (2, 3, 3), (3, 5, 1), (0, 2, 6)]:
            params = SurfaceParams.make(p, a)
            if params.s == 0:
                continue
            # a3 and t+- = (a1*a2 +- sqrt((a1^2-4)(a2^2-4)))/2 when the root is in F_p
            a1, a2, a3 = params.a
            r = int(params.field.sqrt_table[(a1 * a1 - 4) * (a2 * a2 - 4) % p])
            expected = {a3} | {(a1 * a2 + e * r) * pow(2, -1, p) % p for e in (1, -1) if r >= 0}
            inv_s = pow(params.s, -1, p)
            seen = set()
            for x3 in range(p):
                c = fiber_conic(params, 2, x3)
                if degeneracy_quantity(c) == 0 and x3 != 0:
                    seen.add(c.B)
            if x3_zero_degenerate(params):
                seen.add(params.a[2] % p)
            assert seen <= expected
            # every expected B value whose slice is an actual x3 must degenerate
            for b in expected:
                x3 = (params.a[2] - b) * inv_s % p
                c = fiber_conic(params, 2, x3)
                assert degeneracy_quantity(c) == 0


def x3_zero_degenerate(params):
    return degeneracy_quantity(fiber_conic(params, 2, 0)) == 0
