import pytest

from markoff.field import chi
from markoff.obstruction import (AMBIGUOUS, NON_NEG, NON_POS, SIGN_PATTERNS,
                                 breakup_report_dict, class_label,
                                 degenerate_label, perfect_square_check,
                                 special_form_detect, verify_breakup)
from markoff.surface import SurfaceParams, apply_move, rescale

from conftest import naive_chi, naive_move, naive_solutions

SPECIAL_PANEL = [
    (5, (2, 3, 3)), (7, (2, 3, 3)), (7, (5, 3, 4)), (11, (2, 7, 7)),
    (13, (2, 5, 5)), (13, (11, 6, 7)), (17, (2, 9, 9)),
]
DEGENERATE_PANEL = [
    (5, (2, 2, 2)), (7, (2, 2, 2)), (7, (2, -2, -2)), (7, (-2, 2, -2)),
    (7, (-2, -2, 2)), (13, (2, 2, 2)), (13, (-2, 2, -2)), (17, (2, -2, -2)),
]

# (p, a, (i, sigma, alpha mod p)): one generic and one alpha = +-2 triple per prime
TALLY_PANEL = [
    (7, (2, 3, 3), (0, 1, 3)), (7, (2, 2, 2), (0, 1, 2)),
    (11, (8, 9, 3), (1, -1, 3)), (11, (-2, 2, -2), (0, -1, 2)),
    (13, (2, 5, 5), (0, 1, 5)), (13, (2, -2, -2), (0, 1, 11)),
    (17, (2, 9, 9), (0, 1, 9)), (17, (-2, -2, 2), (0, -1, 15)),
]


def params_of(p, a):
    return SurfaceParams.make(p, a)


def test_special_form_detect_frozen_examples():
    assert special_form_detect(params_of(7, (2, 3, 3))) == (0, 1, 3)
    assert special_form_detect(params_of(7, (2, 2, 2))) == (0, 1, 2)
    assert special_form_detect(params_of(7, (0, 0, 0))) is None


def test_class_label_requires_surface_point():
    params = params_of(7, (2, 3, 3))
    with pytest.raises(ValueError):
        class_label(params, (1, 2, 3))


def test_class_label_requires_special_form():
    with pytest.raises(ValueError):
        class_label(params_of(7, (1, 1, 1)), (1, 1, 1))


def test_characters_never_strictly_opposite():
    for p, a in SPECIAL_PANEL:
        params = params_of(p, a)
        for x in naive_solutions(p, params.a):
            label = class_label(params, x)
            assert label.chi_coord * label.chi_companion != -1
            assert label.kind in (NON_NEG, NON_POS, AMBIGUOUS)
            assert label.in_non_negative or label.in_non_positive


def test_predicates_are_move_invariant():
    for p, a in SPECIAL_PANEL:
        params = params_of(p, a)
        for x in naive_solutions(p, params.a):
            label = class_label(params, x)
            for i in range(3):
                moved = class_label(params, apply_move(params, x, i))
                if label.in_non_negative:
                    assert moved.in_non_negative
                if label.in_non_positive:
                    assert moved.in_non_positive


def test_nonempty_split_into_closed_classes():
    params = params_of(5, (2, 2, 2))
    sols = naive_solutions(5, (2, 2, 2))
    labels = {x: degenerate_label(params, x) for x in sols}
    assert set(labels.values()) == set(SIGN_PATTERNS)


def satisfied_patterns(params, x):
    """All admissible sign patterns compatible with the characters of s*x."""
    _, y = rescale(params, x, params.s)
    chars = [chi(v, params.p) for v in y]
    return tuple(e for e in SIGN_PATTERNS
                 if all(c * t >= 0 for c, t in zip(chars, e)))


class TestDegenerateLabel:
    def test_exactly_one_admissible_pattern(self):
        for p, a in DEGENERATE_PANEL:
            params = params_of(p, a)
            for x in naive_solutions(p, params.a):
                pats = satisfied_patterns(params, x)
                assert len(pats) == 1
                assert degenerate_label(params, x) == pats[0]

    def test_pattern_is_move_invariant(self):
        for p, a in DEGENERATE_PANEL:
            params = params_of(p, a)
            for x in naive_solutions(p, params.a):
                e = degenerate_label(params, x)
                for i in range(3):
                    assert degenerate_label(params, apply_move(params, x, i)) == e

    def test_character_product_rule(self):
        # chi(y1)chi(y2)chi(y3) is never -chi(s') = -1 on the rescaled surface
        for p, a in DEGENERATE_PANEL:
            params = params_of(p, a)
            s = params.s
            for x in naive_solutions(p, params.a):
                y = tuple(s * v % p for v in x)
                prod = chi(y[0], p) * chi(y[1], p) * chi(y[2], p)
                assert prod != -1

    def test_requires_degenerate_alpha(self):
        with pytest.raises(ValueError):
            degenerate_label(params_of(7, (2, 3, 3)), (1, 1, 1))


def test_perfect_square_identity_exhaustive():
    for p, a in SPECIAL_PANEL + DEGENERATE_PANEL:
        params = params_of(p, a)
        for x in naive_solutions(p, params.a):
            assert perfect_square_check(params, x), (p, a, x)


def test_perfect_square_trivial_at_origin():
    assert perfect_square_check(params_of(7, (2, 3, 3)), (0, 0, 0))


class TestBreakup:
    def test_generic_form_frozen_example(self):
        report = verify_breakup(params_of(7, (2, 3, 3)))
        assert report.orbit_sizes == [14, 28]
        assert report.bound_holds and report.min_orbits == 2
        # chi(alpha^2 - 4) = chi(5 mod 7) = -1, so the suspected partition
        # is p(p+1)/2 = 28 and p(p-3)/2 = 14
        assert report.conjectured_sizes == [14, 28]
        assert report.conjecture_matched

    def test_generic_form_second_example(self):
        report = verify_breakup(params_of(5, (2, 4, 4)))
        assert report.orbit_sizes == [5, 15]
        assert report.conjecture_matched

    def test_degenerate_values_frozen_examples(self):
        report = verify_breakup(params_of(5, (2, 2, 2)))
        assert report.orbit_sizes == [5, 5, 5, 10]
        assert report.min_orbits == 4 and report.bound_holds
        assert report.conjecture_matched
        report = verify_breakup(params_of(7, (2, 2, 2)))
        assert report.orbit_sizes == [7, 14, 14, 14]
        assert report.conjecture_matched

    def test_class_sizes_cover_solutions(self):
        report = verify_breakup(params_of(13, (2, 2, 2)))
        assert sum(report.class_sizes.values()) == sum(report.orbit_sizes)
        assert sorted(report.class_sizes.values()) == report.conjectured_sizes
        report = verify_breakup(params_of(13, (2, 5, 5)))
        assert sum(report.class_sizes.values()) == sum(report.orbit_sizes)

    def test_bound_across_panel(self):
        for p, a in SPECIAL_PANEL + DEGENERATE_PANEL:
            report = verify_breakup(params_of(p, a))
            assert report.bound_holds, (p, a)
            assert len(report.orbit_sizes) >= report.min_orbits

    def test_report_dict_schema(self):
        report = verify_breakup(params_of(7, (2, 3, 3)))
        d = breakup_report_dict(report)
        assert d["form"] == {"i": 0, "sigma": 1, "alpha": 3}
        assert d["orbit_count"] == 2
        assert d["conjecture_partition_matched"] is True
        assert set(d) == {"prime", "params", "form", "degenerate", "orbit_count",
                          "orbit_sizes", "min_orbits", "bound_holds",
                          "class_sizes", "conjectured_sizes",
                          "conjecture_partition_matched"}


def naive_tally(p, a, form):
    """Obstruction labels from naive_chi and naive_move, tallied in report order.

    On the surface rescaled to s = 1 by y = s*x, the move image of y_i is
    s times that of x_i, so naive_move on the original surface suffices.
    """
    i, sigma, alpha = form
    s = (3 + sum(a)) % p
    labels = {}
    for x in naive_solutions(p, a):
        y = [s * v % p for v in x]
        if (alpha * alpha - 4) % p:
            y_moved = s * naive_move(p, a, x, i)[i] % p
            c1 = naive_chi(y[i], p)
            c2 = naive_chi(y[i] + y_moved + 2 * y[(i + 1) % 3] + 2 * sigma * y[(i - 1) % 3], p)
            assert c1 * c2 != -1, (p, a, x)
            if c1 == 0 and c2 == 0:
                labels[x] = AMBIGUOUS
            else:
                labels[x] = NON_NEG if c1 >= 0 and c2 >= 0 else NON_POS
        else:
            chars = [naive_chi(v, p) for v in y]
            assert chars.count(0) <= 1, (p, a, x)
            completion = 1
            for c in chars:
                completion *= c or 1
            if 0 not in chars:
                assert completion == 1, (p, a, x)
            labels[x] = "".join("+" if (c or completion) > 0 else "-" for c in chars)
    if (alpha * alpha - 4) % p:
        keys = [NON_NEG, NON_POS, AMBIGUOUS]
    else:
        keys = ["".join("+" if e > 0 else "-" for e in pattern) for pattern in SIGN_PATTERNS]
    return labels, {k: sum(1 for v in labels.values() if v == k) for k in keys}


@pytest.mark.parametrize("p, a, form", TALLY_PANEL)
def test_class_sizes_equal_naive_tally(p, a, form):
    params = params_of(p, a)
    a = params.a
    assert special_form_detect(params) == form
    labels, tally = naive_tally(p, a, form)
    report = verify_breakup(params)
    assert list(report.class_sizes.items()) == list(tally.items())
    for x, expected in labels.items():
        if report.degenerate:
            got = "".join("+" if e > 0 else "-" for e in degenerate_label(params, x))
        else:
            got = class_label(params, x).kind
        assert got == expected, (p, a, x)
