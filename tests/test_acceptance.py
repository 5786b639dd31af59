"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with `pytest -s tests/test_acceptance.py` to see one verdict line per
criterion.  The sweeps mirror the library's verification entry points:
exhaustive parameter scans for p in {5, 7, 11, 13} and seeded random
samples for the larger primes.
"""

import itertools
import random
import time

import numpy as np
import pytest

from markoff.conics import (ConicParams, classify_and_count,
                            closed_form_total, count_conic_bruteforce)
from markoff.delta import (NoConsistentExtension, build_certificate,
                           delta_column, verify_certificate)
from markoff.enumeration import count_solutions_bruteforce, enumerate_solutions
from markoff.field import inverse, mult_order, prime_field
from markoff.obstruction import labels, perfect_square_check, verify_breakup
from markoff.orbits import compute_orbits, neighbor_indices, size_table
from markoff.special_cases import (UNDERCOUNTED_SIZE4, markoff_p3,
                                   orbit_table_22m2, orbits_00_minus3,
                                   primes_up_to, REFERENCE_TABLE_22M2)
from markoff.surface import (ALL_NONDEGENERATE, SPECIAL_FORM, SurfaceParams,
                             apply_move, classify_parameters, moved_coordinate,
                             residual_array)

from conftest import (all_triples, check_u_coordinates, dihedral_cycles,
                      double_fixed_residual, moved_points, zero_plane)

SMALL_PRIMES = (5, 7, 11, 13)
LARGE_PRIMES = tuple(p for p in primes_up_to(97) if p >= 17)
SAMPLES_PER_PRIME = 200
SEED = 20260809


def _verdict(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number} ({name}): {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed"


def _random_triples(p, n, salt):
    rng = random.Random(SEED * 1_000_003 + salt * 97 + p)
    return [(rng.randrange(p), rng.randrange(p), rng.randrange(p))
            for _ in range(n)]


def test_criterion_1_count_formula():
    start = time.perf_counter()
    checked = 0
    for p in SMALL_PRIMES:
        for a in all_triples(p):
            params = SurfaceParams.make(p, a)
            if params.s == 0:
                continue
            assert count_solutions_bruteforce(params) == closed_form_total(params), (p, a)
            checked += 1
    for p in LARGE_PRIMES:
        for a in _random_triples(p, SAMPLES_PER_PRIME, salt=1):
            params = SurfaceParams.make(p, a)
            if params.s == 0:
                continue
            assert count_solutions_bruteforce(params) == closed_form_total(params), (p, a)
            checked += 1
    elapsed = time.perf_counter() - start
    _verdict(1, "count formula", True, f"{checked} parameter sets, {elapsed:.1f}s")


def test_criterion_2_divisibility():
    start = time.perf_counter()
    checked = 0
    for p in SMALL_PRIMES:
        for a in all_triples(p):
            params = SurfaceParams.make(p, a)
            if classify_parameters(params).kind not in (ALL_NONDEGENERATE, SPECIAL_FORM):
                continue
            part = compute_orbits(enumerate_solutions(params))
            assert all(size % p == 0 for size in part.orbit_sizes()), \
                (p, a, size_table(part))
            checked += 1
    for p in LARGE_PRIMES:
        for a in _random_triples(p, SAMPLES_PER_PRIME, salt=2):
            params = SurfaceParams.make(p, a)
            if classify_parameters(params).kind not in (ALL_NONDEGENERATE, SPECIAL_FORM):
                continue
            part = compute_orbits(enumerate_solutions(params))
            assert all(size % p == 0 for size in part.orbit_sizes()), \
                (p, a, size_table(part))
            checked += 1
    elapsed = time.perf_counter() - start
    _verdict(2, "orbit divisibility", True, f"{checked} parameter sets, {elapsed:.1f}s")


def test_criterion_3_delta_certificate():
    start = time.perf_counter()
    built = refused = 0
    for p in SMALL_PRIMES:
        for a in all_triples(p):
            params = SurfaceParams.make(p, a)
            kind = classify_parameters(params).kind
            if kind in (ALL_NONDEGENERATE, SPECIAL_FORM):
                sol = enumerate_solutions(params)
                part = compute_orbits(sol)
                report = verify_certificate(build_certificate(sol), part)
                assert report.all_divisible, (p, a)
                built += 1
            elif kind == "hypothesis-violated":
                # a double fixed point with x_i = 0 pins Delta_i to two
                # different values; the construction must refuse
                with pytest.raises(NoConsistentExtension):
                    build_certificate(enumerate_solutions(params))
                refused += 1
    elapsed = time.perf_counter() - start
    _verdict(3, "delta certificate", True,
             f"{built} certificates, {refused} refusals, {elapsed:.1f}s")


def test_criterion_4_reference_table():
    start = time.perf_counter()
    rows = orbit_table_22m2(43)
    assert {row.p for row in rows} == set(REFERENCE_TABLE_22M2)
    discrepancies = []
    for row in rows:
        if row.p in UNDERCOUNTED_SIZE4:
            assert row.matches_reference is False, row.p
            assert row.corrected_match is True, row.p
            discrepancies.append(row.p)
        else:
            assert row.matches_reference is True, row.p
    assert sorted(discrepancies) == sorted(UNDERCOUNTED_SIZE4)
    elapsed = time.perf_counter() - start
    _verdict(4, "orbit table for (2,2,-2)", True,
             f"{len(rows)} rows, 4^3->4^4 correction at p in {sorted(discrepancies)}, "
             f"{elapsed:.1f}s")


def test_criterion_5_breakup():
    start = time.perf_counter()
    matched = total = 0
    for p in primes_up_to(97):
        if p < 5:
            continue
        rng = random.Random(SEED * 31 + p)
        produced = 0
        while produced < 30:
            sigma = rng.choice((1, -1))
            alpha = rng.randrange(p)
            rot = rng.randrange(3)
            base = [2 * sigma % p, alpha, alpha * sigma % p]
            a = tuple(base[(k - rot) % 3] for k in range(3))
            params = SurfaceParams.make(p, a)
            if classify_parameters(params).kind != SPECIAL_FORM:
                continue  # s = 0 draws are re-sampled
            produced += 1
            report = verify_breakup(params)
            assert report.bound_holds, (p, a, report.orbit_sizes)
            assert len(report.orbit_sizes) >= (4 if report.degenerate else 2)
            total += 1
            matched += report.conjecture_matched
    elapsed = time.perf_counter() - start
    _verdict(5, "orbit break-up bound", True,
             f"{total} runs, conjectured partition matched {matched}/{total} "
             f"(reported, not asserted), {elapsed:.1f}s")


def test_criterion_6_dihedral_family():
    start = time.perf_counter()
    for p in primes_up_to(199):
        if p < 7:
            continue
        rep = orbits_00_minus3(p)
        assert rep.consistent, p
    rep89 = orbits_00_minus3(89)
    assert rep89.lambda_order == 11
    assert rep89.conic1_sizes == [11, 11, 22, 22, 22]
    elapsed = time.perf_counter() - start
    _verdict(6, "linear family a=(0,0,-3)", True,
             f"primes 7..199, formula = Burnside = orbit engine, {elapsed:.1f}s")


def test_criterion_7_conic_counts():
    start = time.perf_counter()
    for p in (3, 5, 7):
        for conic in itertools.product(range(p), repeat=4):
            c = ConicParams.make(p, *conic)
            assert classify_and_count(c)[1] == count_conic_bruteforce(c), (p, conic)
    n_random = 10_000
    for p in primes_up_to(199):
        if p < 11:
            continue
        rng = random.Random(SEED * 7 + p)
        conics = np.array([[rng.randrange(p) for _ in range(4)]
                           for _ in range(n_random)], dtype=np.int64)
        counted = np.array([classify_and_count(ConicParams.make(p, *row))[1]
                            for row in conics], dtype=np.int64)
        # independent count: for each y, the x-quadratic has 1 + chi(disc) roots
        fld = prime_field(p)
        y = np.arange(p, dtype=np.int64)[None, :]
        b_lin = (conics[:, [0]] * y + conics[:, [1]]) % p
        c_con = (y * y + conics[:, [2]] * y + conics[:, [3]]) % p
        disc = (b_lin * b_lin - 4 * c_con) % p
        brute = p + fld.chi_table[disc].astype(np.int64).sum(axis=1)
        assert np.array_equal(counted, brute), p
        # and a grid-count subsample, sharing nothing with the above
        for row in conics[:100]:
            c = ConicParams.make(p, *row)
            assert classify_and_count(c)[1] == count_conic_bruteforce(c)
    elapsed = time.perf_counter() - start
    _verdict(7, "conic point counts", True,
             f"exhaustive p in {{3,5,7}} plus {n_random} random conics per prime "
             f"p <= 199, {elapsed:.1f}s")


# --- criterion 8: the property suites ---------------------------------------

PANEL_SMALL = [
    (3, (0, 0, 0)), (3, (2, 2, 1)), (5, (0, 0, 0)), (5, (2, 2, 2)),
    (5, (1, 3, 0)), (7, (1, 1, 1)), (7, (2, 3, 3)), (7, (2, 2, 5)),
    (7, (0, 4, 1)), (11, (0, 0, 0)), (11, (3, 7, 2)), (11, (2, 5, 5)),
    (11, (1, 0, 6)),
]
PANEL_LARGE = [(17, (2, 9, 9)), (17, (4, 4, 4)), (29, (1, 7, 20)), (31, (2, 2, 29))]


def _panel_points(p, a, salt):
    if p <= 11:
        return np.array(all_triples(p), dtype=np.int64)
    return np.array(_random_triples(p, 4000, salt), dtype=np.int64)


def _check_involution_and_preservation():
    for salt, (p, a) in enumerate(PANEL_SMALL + PANEL_LARGE):
        params = SurfaceParams.make(p, a)
        pts = _panel_points(p, a, salt)
        res = residual_array(params, pts.T)
        for i in range(3):
            moved = moved_points(params, pts, i)
            assert np.array_equal(moved_points(params, moved, i), pts)
            assert np.array_equal(residual_array(params, moved.T) == 0, res == 0)


def _check_vieta():
    for salt, (p, a) in enumerate(PANEL_SMALL + PANEL_LARGE):
        params = SurfaceParams.make(p, a)
        pts = _panel_points(p, a, salt + 100)
        on = pts[residual_array(params, pts.T) == 0]
        s = params.s
        for i in range(3):
            im1, ip1 = (i - 1) % 3, (i + 1) % 3
            moved = moved_coordinate(params, pts.T, i)
            sums = (s * (pts[:, im1] * pts[:, ip1] % p)
                    - params.a[im1] * pts[:, ip1] - params.a[ip1] * pts[:, im1]) % p
            assert np.array_equal((pts[:, i] + moved) % p, sums)
            moved_on = moved_coordinate(params, on.T, i)
            prods = (on[:, im1] ** 2 + on[:, ip1] ** 2
                     + params.a[i] * (on[:, im1] * on[:, ip1] % p)) % p
            assert np.array_equal(on[:, i] * moved_on % p, prods)


def _check_no_bigons():
    for salt, (p, a) in enumerate(PANEL_SMALL + PANEL_LARGE):
        params = SurfaceParams.make(p, a)
        pts = _panel_points(p, a, salt + 200)
        images = [moved_points(params, pts, i) for i in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                same = (images[i] == images[j]).all(axis=1)
                fixed = (images[i] == pts).all(axis=1)
                assert bool((~same | fixed).all())


def _check_u_equivariance():
    for salt, (p, a) in enumerate(PANEL_SMALL + PANEL_LARGE):
        check_u_coordinates(SurfaceParams.make(p, a), _panel_points(p, a, salt + 300))


def _check_shifted_squares():
    for p in (5, 7, 11, 13, 17, 19, 23, 29):
        fld = prime_field(p)
        t = np.arange(p, dtype=np.int64)
        for c in range(1, p):
            assert int(fld.chi_table[(t * t - c) % p].sum()) == -1


def _check_nine_equivalences():
    for p in primes_up_to(31):
        if p < 5:
            continue
        rng = random.Random(SEED + p)
        param_sets = [tuple(rng.randrange(p) for _ in range(3)) for _ in range(6)]
        param_sets += [(2, 2, p - 2), (1, 1, 1)]
        if p <= 13:
            param_sets += [(2, 3, 3), (0, 0, 0), (4, 1, 3)]
        for a in param_sets:
            params = SurfaceParams.make(p, a)
            sol = enumerate_solutions(params)
            for i in range(3):
                im1, ip1 = (i - 1) % 3, (i + 1) % 3
                ai = params.a[i]
                half = ai * inverse(2, p) % p
                for x in zero_plane(sol, i):
                    r = x[ip1] * inverse(x[im1], p) % p
                    conds = (
                        (ai * ai - 4) % p == 0,
                        r * r % p == 1,
                        mult_order(r * r % p, p) == 1,
                        r == (-half) % p,
                        inverse(r, p) == (-half) % p,
                        (x[im1] + half * x[ip1]) % p == 0,
                        (x[im1] ** 2 - x[ip1] ** 2) % p == 0,
                        apply_move(params, x, im1) == x,
                        apply_move(params, x, ip1) == x,
                    )
                    assert len(set(conds)) == 1, (p, a, i, x)


def _check_cycles():
    # non-degeneracy for N >= 2 and the vanishing cycle sum for a_i^2 != 4
    for p in primes_up_to(31):
        if p < 5:
            continue
        rng = random.Random(SEED * 3 + p)
        param_sets = [tuple(rng.randrange(p) for _ in range(3)) for _ in range(6)]
        param_sets += [(0, 0, 0), (1, 1, 1)]
        param_sets += {11: [(3, 1, 4)], 13: [(5, 2, 8)], 17: [(4, 9, 2)]}.get(p, [])
        for a in param_sets:
            params = SurfaceParams.make(p, a)
            sol = enumerate_solutions(params)
            for i in range(3):
                for zs, ws in dihedral_cycles(p, params.a, zero_plane(sol, i), i):
                    pts = zs + ws
                    if len(zs) >= 2:
                        assert len(set(pts)) == 2 * len(zs)
                    if (params.a[i] ** 2 - 4) % p != 0:
                        cols = np.array(pts, dtype=np.int64).T
                        assert int(delta_column(params, cols, i).sum()) % p == 0


def _check_perfect_square_and_labels():
    """Square identities at every point; label classes closed under every move.

    Each parameter set is labelled once through labels.  Every move
    image, recomputed with moved_points, must lie on the surface and be
    the row that neighbor_indices finds for it, which carries the same
    label.
    """
    count = 0
    for p in primes_up_to(31):
        if p < 5:
            continue
        rng = random.Random(SEED * 5 + p)
        forms = set()
        while len(forms) < 8:
            sigma = rng.choice((1, -1))
            alpha = rng.randrange(p)
            rot = rng.randrange(3)
            base = [2 * sigma % p, alpha, alpha * sigma % p]
            a = tuple(base[(k - rot) % 3] for k in range(3))
            if SurfaceParams.make(p, a).s != 0:
                forms.add(a)
        for a in forms:
            params = SurfaceParams.make(p, a)
            sol = enumerate_solutions(params)
            pts = sol.points.astype(np.int64)
            ok = perfect_square_check(params, pts.T)
            assert ok.all(), (p, a, tuple(pts[np.argmin(ok)]))
            _names, index = labels(sol)
            nbr = neighbor_indices(sol)
            for i in range(3):
                moved = moved_points(params, pts, i)
                assert not residual_array(params, moved.T).any(), (p, a, i)
                image = nbr[i]
                assert np.array_equal(sol.points[image], moved), (p, a, i)
                broken = index[image] != index
                assert not broken.any(), (p, a, tuple(pts[np.argmax(broken)]), i)
            count += len(pts)
    assert count > 50 * 31


def _check_double_fixed():
    for p in SMALL_PRIMES:
        for a in all_triples(p):
            params = SurfaceParams.make(p, a)
            sol = enumerate_solutions(params)
            if len(sol) == 0:
                continue
            nbr = neighbor_indices(sol)
            idx = np.arange(len(sol))
            for i in range(3):
                im1, ip1 = (i - 1) % 3, (i + 1) % 3
                both = (nbr[im1] == idx) & (nbr[ip1] == idx)
                for k in np.flatnonzero(both):
                    x = sol.triple(int(k))
                    assert apply_move(params, x, im1) == x and apply_move(params, x, ip1) == x
                    assert double_fixed_residual(p, params.a, x, i) == 0


def test_criterion_8_property_suites():
    start = time.perf_counter()
    _check_involution_and_preservation()
    _check_vieta()
    _check_no_bigons()
    _check_u_equivariance()
    _check_shifted_squares()
    _check_nine_equivalences()
    _check_cycles()
    _check_perfect_square_and_labels()
    _check_double_fixed()
    elapsed = time.perf_counter() - start
    _verdict(8, "property suites", True,
             f"involution, preservation, Vieta, no-bigons, u-equivariance, "
             f"shifted squares, nine equivalences, cycles, perfect squares, "
             f"double fixed points; {elapsed:.1f}s")


def test_criterion_9_markoff_p3():
    rep = markoff_p3()  # raises ArithmeticError unless the moves are the listed cube edges
    ok = (rep.multiset == {8: 1} and rep.is_cube and rep.n_points == 8
          and len(rep.edges) == 12)
    _verdict(9, "p=3 cube", ok, "single orbit of size 8, graph = 3-cube")


def test_criterion_10_performance_p997():
    import resource
    params = SurfaceParams.make(997, (1, 1, 1))
    start = time.perf_counter()
    sol = enumerate_solutions(params)
    count_ok = len(sol) == closed_form_total(params)
    part = compute_orbits(sol)
    report = verify_certificate(build_certificate(sol), part)
    elapsed = time.perf_counter() - start
    rss_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6  # kB -> GB
    ok = (count_ok and report.all_divisible and elapsed < 10.0 and rss_gb < 1.0)
    _verdict(10, "performance at p=997", ok,
             f"{len(sol)} points, {len(part.orbits)} orbit(s) "
             f"(single generic orbit: {len(part.orbits) == 1}), "
             f"{elapsed:.2f}s, peak {rss_gb:.2f} GB")
