import itertools

import numpy as np
import pytest

from markoff.enumeration import enumerate_solutions
from markoff.surface import (ALL_NONDEGENERATE, HYPOTHESIS_VIOLATED, S_ZERO,
                             SPECIAL_FORM, SurfaceParams, apply_move,
                             classify_parameters, on_surface, rescale,
                             residual, residual_array, special_form_detect,
                             x3_coefficients)

from conftest import (all_triples, check_u_coordinates, double_fixed_residual,
                      naive_move, naive_residual, naive_solutions)

# a deterministic panel of parameter sets used by the exhaustive-in-x sweeps
PANEL = [
    (5, (0, 0, 0)), (5, (2, 2, 2)), (5, (1, 3, 0)),
    (7, (1, 1, 1)), (7, (2, 3, 3)), (7, (2, 2, -2)), (7, (0, 4, 1)),
    (11, (0, 0, 0)), (11, (3, 7, 2)), (11, (2, 5, 5)),
]


def params_of(p, a):
    return SurfaceParams.make(p, a)


def test_s_is_derived():
    params = params_of(7, (2, 3, 3))
    assert params.s == (3 + 2 + 3 + 3) % 7
    assert params.a == (2, 3, 3)
    params = params_of(7, (2, 2, -2))
    assert params.a == (2, 2, 5)
    assert params.s == 5


def test_residual_frozen_examples():
    for p, a in [(7, (1, 5, 2)), (11, (3, 3, 3)), (13, (0, 0, 0))]:
        params = params_of(p, a)
        assert residual(params, (1, 1, 1)) == 0
        assert residual(params, (0, 0, 0)) == 0
    assert residual(params_of(5, (0, 0, 0)), (1, 2, 3)) == 1


def test_residual_matches_naive():
    for p, a in PANEL:
        params = params_of(p, a)
        for x in all_triples(p)[:200]:
            assert residual(params, x) == naive_residual(p, params.a, x)


def test_apply_move_frozen_examples():
    assert apply_move(params_of(7, (0, 0, 0)), (1, 1, 1), 0) == (2, 1, 1)
    # barbell edge for a = (2,2,-2) mod 7: m_1 joins (0, 2/s, -2/s) to (4/s, 2/s, -2/s)
    params = params_of(7, (2, 2, -2))
    assert params.s == 5
    assert apply_move(params, (0, 6, 1), 0) == (5, 6, 1)


def test_moves_match_naive():
    """On a point of ints and on int32 coordinate columns alike."""
    for p, a in PANEL[:4]:
        params = params_of(p, a)
        triples = all_triples(p)
        cols = np.array(triples, dtype=np.int32).T
        for i in range(3):
            expected = [naive_move(p, params.a, x, i) for x in triples]
            for x, y in zip(triples, expected):
                image = apply_move(params, x, i)
                assert image == y and all(type(v) is int for v in image)
            assert np.array_equal(np.stack(apply_move(params, cols, i)), np.array(expected).T)


def test_move_preserves_surface():
    for p, a in PANEL:
        params = params_of(p, a)
        for x in naive_solutions(p, params.a):
            for i in range(3):
                assert residual(params, apply_move(params, x, i)) == 0


def test_classify_frozen_examples():
    assert classify_parameters(params_of(5, (0, 0, 0))).kind == ALL_NONDEGENERATE
    cls = classify_parameters(params_of(7, (2, 3, 3)))
    assert (cls.kind, cls.i, cls.sigma, cls.alpha) == (SPECIAL_FORM, 0, 1, 3)
    assert classify_parameters(params_of(7, (2, 2, -2))).kind == HYPOTHESIS_VIOLATED
    for p in (7, 11, 31):
        assert classify_parameters(params_of(p, (0, 0, -3))).kind == S_ZERO


def test_classify_s_zero_takes_precedence():
    # a = (2, 2, 0) mod 7 has s = 0 and a degenerate coordinate
    params = params_of(7, (2, 2, 0))
    assert params.s == 0
    assert classify_parameters(params).kind == S_ZERO


def test_classify_scan_order_deterministic():
    cls = classify_parameters(params_of(7, (2, 2, 2)))
    assert (cls.i, cls.sigma, cls.alpha) == (0, 1, 2)
    # sigma = -1 shape
    cls = classify_parameters(params_of(7, (-2, 3, -3)))
    assert (cls.kind, cls.i, cls.sigma) == (SPECIAL_FORM, 0, -1)
    assert cls.alpha == 3


def test_special_form_implies_hypothesis_at_index():
    for p in (5, 7, 11):
        for a in itertools.product(range(p), repeat=3):
            params = params_of(p, a)
            sf = special_form_detect(params)
            if sf is None:
                continue
            i, sigma, alpha = sf
            assert (params.a[i] - 2 * sigma) % p == 0
            assert (2 * params.a[(i - 1) % 3]
                    - params.a[(i + 1) % 3] * params.a[i]) % p == 0


def test_classify_partition_is_total_and_unique():
    for p in (5, 7):
        for a in itertools.product(range(p), repeat=3):
            params = params_of(p, a)
            cls = classify_parameters(params)
            if params.s == 0:
                assert cls.kind == S_ZERO
            elif all((ai * ai - 4) % p != 0 for ai in params.a):
                assert cls.kind == ALL_NONDEGENERATE
            else:
                assert cls.kind in (SPECIAL_FORM, HYPOTHESIS_VIOLATED)


def test_rescale_identity():
    params = params_of(7, (2, 2, 2))
    new_params, y = rescale(params, (1, 1, 1), 1)
    assert new_params.s == params.s and y == (1, 1, 1)


def test_rescale_frozen_example():
    params = params_of(7, (2, 2, 2))
    assert params.s == 2
    new_params, y = rescale(params, (1, 1, 1), params.s)
    assert new_params.s == 1
    assert y == (2, 2, 2)
    assert residual(new_params, y) == 0


def test_rescale_preserves_solutions(rng):
    for p, a in PANEL:
        params = params_of(p, a)
        sols = naive_solutions(p, params.a)
        for _ in range(40):
            x = sols[rng.randrange(len(sols))]
            t = rng.randrange(1, p)
            new_params, y = rescale(params, x, t)
            assert residual(new_params, y) == 0
        # the enumerated point array, passed as int64 coordinate columns
        t = rng.randrange(1, p)
        new_params, y = rescale(params, enumerate_solutions(params).points.astype(np.int64).T, t)
        assert not residual_array(new_params, y).any()
    with pytest.raises(ValueError):
        rescale(params, (1, 1, 1), 0)


def test_permute_consistency():
    params = params_of(7, (2, 3, 4))
    for perm in itertools.permutations(range(3)):
        new_params = params_of(7, tuple(params.a[j] for j in perm))
        for x in naive_solutions(7, params.a):
            y = tuple(x[j] for j in perm)
            assert residual(new_params, y) == 0
            # moves conjugate: permuting then moving = moving then permuting
            for i in range(3):
                moved = apply_move(params, x, i)
                assert apply_move(new_params, y, perm.index(i)) == tuple(moved[j] for j in perm)


def test_u_coords_frozen_example():
    params = params_of(11, (2, 3, 4))
    s = params.s
    u = check_u_coordinates(params, [(1, 1, 1)])
    assert tuple(u[0]) == ((s - 2) % 11, (s - 3) % 11, (s - 4) % 11)


def test_u_move_markoff_reduces():
    # a = 0, s = 3 mod 7: x = (3, 1, 6) has u = (2, 3, 4), and m_0 sends u_0 to -u_0 + u_1 u_2
    params = params_of(7, (0, 0, 0))
    x = (3, 1, 6)
    u = check_u_coordinates(params, [x, apply_move(params, x, 0)])
    assert tuple(u[0]) == (2, 3, 4)
    assert tuple(u[1]) == ((-2 + 3 * 4) % 7, 3, 4)


def test_u_move_equivariance_exhaustive():
    for p, a in PANEL:
        check_u_coordinates(params_of(p, a), all_triples(p))


def test_u_residual_scales_by_s_squared():
    # s = 0 puts every point at u = -a, where both residuals vanish
    for p, a in [(7, (0, 0, 4)), (11, (2, 3, 3))]:
        params = params_of(p, a)
        u = check_u_coordinates(params, all_triples(p))
        assert (u == -np.array(params.a) % p).all()


def test_double_fixed_residual_frozen_examples():
    params = params_of(7, (2, 2, -2))
    assert apply_move(params, (5, 5, 0), 1) == apply_move(params, (5, 5, 0), 0) == (5, 5, 0)
    assert double_fixed_residual(7, params.a, (5, 5, 0), 2) == 0
    assert double_fixed_residual(7, params.a, (0, 0, 0), 1) == 0


def test_double_fixed_residual_vanishes_on_double_fixed_points():
    for p in (5, 7):
        for a in itertools.product(range(p), repeat=3):
            params = params_of(p, a)
            for x in naive_solutions(p, a):
                for i in range(3):
                    if (apply_move(params, x, (i - 1) % 3) == x
                            and apply_move(params, x, (i + 1) % 3) == x):
                        assert double_fixed_residual(p, a, x, i) == 0


def test_singleton_for_params_2_a_b():
    # the point (0, a-b, b-a) on the surface with parameters (2, a, b) is
    # fixed by m2 and m3; m1 sends its first coordinate to (1-s)(a-b)^2,
    # so it is a genuine singleton only when s = 1 or a = b
    for p in (7, 11, 13):
        for (a_val, b_val) in [(3, 5), (1, 4), (2, 6), (4, 4)]:
            params = params_of(p, (2, a_val, b_val))
            x = (0, (a_val - b_val) % p, (b_val - a_val) % p)
            assert on_surface(params, x)
            assert apply_move(params, x, 1) == x
            assert apply_move(params, x, 2) == x
            moved = apply_move(params, x, 0)
            assert moved[0] == (1 - params.s) * (a_val - b_val) ** 2 % p
            if params.s != 1 and a_val != b_val:
                assert moved != x


def test_x3_coefficients_int32_exact_at_the_guard():
    p = 19997  # the largest prime below DEFAULT_MAX_PRIME = 20000
    params = params_of(p, (p - 1, p - 2, p - 1))
    x1 = np.array([0, 1, p - 2, p - 1])[:, None]
    x2 = np.arange(p)
    for got, want in zip(x3_coefficients(params, x1.astype(np.int32), x2.astype(np.int32)),
                         x3_coefficients(params, x1, x2.astype(np.int64))):
        assert got.dtype == np.int32 and np.array_equal(got, want)


def test_residual_array_matches_scalar():
    params = params_of(13, (3, 1, 7))
    pts = np.array(all_triples(13), dtype=np.int64)
    bulk = residual_array(params, pts.T)
    for k in (0, 1, 100, 2000, 2196):
        assert bulk[k] == residual(params, tuple(int(v) for v in pts[k]))
