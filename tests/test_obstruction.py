import itertools
import math
import re
import sys

import numpy as np
import pytest

from markoff.enumeration import SolutionSet, enumerate_solutions
from markoff.field import chi
from markoff.obstruction import (AMBIGUOUS, NON_NEG, NON_POS, SIGN_PATTERNS,
                                 CertificateViolation, breakup_report_dict,
                                 labels, perfect_square_check, verify_breakup)
from markoff.orbits import neighbor_indices
from markoff.surface import SurfaceParams, rescale, special_form_detect

from conftest import all_triples, naive_chi, naive_move, naive_solutions

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


def test_class_label_requires_special_form():
    with pytest.raises(ValueError):
        labels(enumerate_solutions(params_of(7, (1, 1, 1))))


def signs(pattern):
    return "".join("+" if e > 0 else "-" for e in pattern)


def assert_labels_match_naive(p, a):
    """labels(sol) names every point as naive_tally does; returns (sol, names, index)."""
    params = params_of(p, a)
    sol = enumerate_solutions(params)
    names, index = labels(sol)
    naive, _ = naive_tally(p, params.a, special_form_detect(params))
    assert len(sol) == len(naive)
    for k, x in enumerate(sol.iter_triples()):
        assert names[index[k]] == naive[x], (p, a, x)
    return sol, names, index


def test_characters_never_strictly_opposite():
    # labels raises CertificateViolation on a strictly opposite pair, and
    # naive_tally asserts its own characters are never opposite
    for p, a in SPECIAL_PANEL:
        assert_labels_match_naive(p, a)


def test_labels_make_no_move(monkeypatch):
    """The generic companion comes from the root sum: no markoff move formula is called.

    At p = 13, (2,5,5) is generic with chi(s) = chi(2) = -1, (11,6,7) is
    generic with sigma = -1, and (2,-2,-2) has alpha = -2.
    """
    forms = [(2, 5, 5), (11, 6, 7), (2, -2, -2)]
    sets = [enumerate_solutions(params_of(13, a)) for a in forms]
    assert chi(sets[0].params.s, 13) == -1 and special_form_detect(sets[1].params)[1] == -1
    expected = [labels(sol) for sol in sets]

    def refused(*args, **kwargs):
        raise AssertionError("labels called the move formula")

    for module in [m for name, m in sys.modules.items()
                   if name == "markoff" or name.startswith("markoff.")]:
        for name in ("moved_coordinate", "apply_move"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    for sol, (names, index) in zip(sets, expected):
        got_names, got_index = labels(sol)
        assert got_names == names and np.array_equal(got_index, index), sol.params.a


def assert_index_move_invariant(p, a):
    """Every move edge joins two rows with the same label."""
    sol = enumerate_solutions(params_of(p, a))
    _names, index = labels(sol)
    nbr = neighbor_indices(sol)
    for i in range(3):
        assert np.array_equal(index[nbr[i]], index), (p, a, i)


def test_predicates_are_move_invariant():
    for p, a in SPECIAL_PANEL:
        assert_index_move_invariant(p, a)


def test_nonempty_split_into_closed_classes():
    names, index = labels(enumerate_solutions(params_of(5, (2, 2, 2))))
    assert names == tuple(signs(e) for e in SIGN_PATTERNS)
    assert set(index.tolist()) == {0, 1, 2, 3}


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
            sol, names, index = assert_labels_match_naive(p, a)
            for k, x in enumerate(sol.iter_triples()):
                pats = satisfied_patterns(params, x)
                assert len(pats) == 1
                assert names[index[k]] == signs(pats[0])

    def test_pattern_is_move_invariant(self):
        for p, a in DEGENERATE_PANEL:
            assert_index_move_invariant(p, a)

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
        # sign patterns label only alpha = +-2; other forms get the character classes
        names, _index = labels(enumerate_solutions(params_of(7, (2, 3, 3))))
        assert names == (NON_NEG, NON_POS, AMBIGUOUS)


def test_perfect_square_identity_exhaustive():
    # on ints one point at a time, and on int64 coordinate columns
    for p, a in SPECIAL_PANEL + DEGENERATE_PANEL:
        params = params_of(p, a)
        sols = naive_solutions(p, params.a)
        ok = perfect_square_check(params, np.array(sols, dtype=np.int64).T)
        assert ok.all(), (p, a)
        for x in sols:
            assert perfect_square_check(params, x), (p, a, x)


def test_perfect_square_trivial_at_origin():
    assert perfect_square_check(params_of(7, (2, 3, 3)), (0, 0, 0))


# (a, message, a test on naive_characters that selects the corrupting triple)
VIOLATIONS = [
    ((2, 5, 5), "strictly opposite obstruction characters", lambda c: math.prod(c) == -1),
    ((2, 2, 2), "character product -1", lambda c: math.prod(c) == -1),
    ((-2, 2, -2), "two vanishing coordinates off the origin", lambda c: c.count(0) >= 2),
]


@pytest.mark.parametrize("a, message, breaks", VIOLATIONS,
                         ids=["opposite", "product", "two-zeros"])
def test_corrupted_row_raises_naming_the_point(a, message, breaks):
    """Each CertificateViolation of labels fires on one corrupted row and names it."""
    p = 13
    params = params_of(p, a)
    form = special_form_detect(params)
    x = next(x for x in all_triples(p) if breaks(naive_characters(p, params.a, form, x)))
    sol = enumerate_solutions(params)
    points = sol.points.copy(order="F")
    points[30] = x
    with pytest.raises(CertificateViolation, match=re.escape(f"{message} at {x}")):
        labels(SolutionSet(params, points, sol.offsets))


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


def naive_characters(p, a, form, x):
    """Obstruction characters of x from naive_chi and naive_move, on y = s*x.

    (chi(y_i), chi(y_i + y_i' + 2 y_{i+1} + 2 sigma y_{i-1})) for a
    generic form, (chi(y_1), chi(y_2), chi(y_3)) for alpha = +-2.  On
    the surface rescaled to s = 1 the move image of y_i is s times that
    of x_i, so naive_move on the original surface suffices.
    """
    i, sigma, alpha = form
    s = (3 + sum(a)) % p
    y = [s * v % p for v in x]
    if (alpha * alpha - 4) % p == 0:
        return [naive_chi(v, p) for v in y]
    y_moved = s * naive_move(p, a, x, i)[i] % p
    return [naive_chi(y[i], p),
            naive_chi(y[i] + y_moved + 2 * y[(i + 1) % 3] + 2 * sigma * y[(i - 1) % 3], p)]


def naive_tally(p, a, form):
    """Obstruction labels from naive_characters, tallied in report order."""
    generic = (form[2] ** 2 - 4) % p != 0
    naive = {}
    for x in naive_solutions(p, a):
        chars = naive_characters(p, a, form, x)
        if generic:
            c1, c2 = chars
            assert c1 * c2 != -1, (p, a, x)
            if c1 == 0 and c2 == 0:
                naive[x] = AMBIGUOUS
            else:
                naive[x] = NON_NEG if c1 >= 0 and c2 >= 0 else NON_POS
        else:
            assert chars.count(0) <= 1, (p, a, x)
            completion = math.prod(c or 1 for c in chars)
            if 0 not in chars:
                assert completion == 1, (p, a, x)
            naive[x] = "".join("+" if (c or completion) > 0 else "-" for c in chars)
    keys = [NON_NEG, NON_POS, AMBIGUOUS] if generic else [signs(e) for e in SIGN_PATTERNS]
    return naive, {k: sum(1 for v in naive.values() if v == k) for k in keys}


@pytest.mark.parametrize("p, a, form", TALLY_PANEL)
def test_class_sizes_equal_naive_tally(p, a, form):
    params = params_of(p, a)
    a = params.a
    assert special_form_detect(params) == form
    _naive, tally = naive_tally(p, a, form)
    report = verify_breakup(params)
    assert list(report.class_sizes.items()) == list(tally.items())
    assert_labels_match_naive(p, a)


def every_special_form(p):
    """Every (2 sigma, alpha, alpha sigma) triple at p, for all i, sigma = +-1 and alpha."""
    triples = set()
    for i, sigma, alpha in itertools.product(range(3), (1, -1), range(p)):
        a = [0, 0, 0]
        a[i], a[(i + 1) % 3], a[(i - 1) % 3] = 2 * sigma, alpha, alpha * sigma
        triples.add(tuple(v % p for v in a))
    return sorted(triples)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_labels_equal_naive_tally_on_every_special_form(p):
    """labels reads the characters of y = s*x at x, as chi(s) times chi(x).

    Generic forms meet both chi(s) = 1 and chi(s) = -1.  The alpha = +-2
    forms have s = 3 + 2 sigma + alpha (1 + sigma) in {1, 9}, so
    chi(s) = 1 there, or s = 0 at p = 3, where labels refuses.
    """
    chi_s = set()
    for a in every_special_form(p):
        params = params_of(p, a)
        if params.s == 0:
            with pytest.raises(ValueError, match="s != 0"):
                labels(enumerate_solutions(params))
            continue
        alpha = special_form_detect(params)[2]
        if (alpha * alpha - 4) % p == 0:
            assert params.s in (1, 9 % p) and chi(params.s, p) == 1, a
        else:
            chi_s.add(chi(params.s, p))
        assert_labels_match_naive(p, a)
    assert chi_s == {1, -1}
