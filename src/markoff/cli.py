"""Command-line front end: single runs, verification verbs, tables and sweeps.

One argparse tree dispatches every command: verify and special hold one
nested parser per check and per family, and each parser declares only
the options its handler reads, so any other option is a usage error.
main turns -p/-a into a SurfaceParams once, before the handler runs.

Exit codes: 0 on success (conjecture mismatches only warn), 1 when an
asserted check fails or an unexpected error ends the run (one "error:"
line naming the exception type, no traceback), 2 on usage errors and
out-of-domain input, 3 when a resource guard trips.
Output is deterministic for a fixed command line and seed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys

from . import delta, obstruction, orbits, special_cases
from .conics import (ConicParams, classify_and_count, closed_form_total,
                     count_conic_bruteforce, total_via_fibers)
from .enumeration import (ResourceGuardError, count_solutions_bruteforce,
                          enumerate_solutions)
from .field import validate_prime
from .surface import (ALL_NONDEGENERATE, SPECIAL_FORM, SurfaceParams,
                      classify_parameters)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _parse_params(p: int, text: str) -> SurfaceParams:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("expected three comma-separated parameters, e.g. -a 2,2,-2")
    return SurfaceParams.make(p, tuple(int(v) for v in parts))


def _add_pa(parser, require_a=True):
    parser.add_argument("-p", "--prime", type=int, required=True, help="odd prime modulus")
    parser.add_argument("-a", "--params", type=str, required=require_a,
                        help="surface parameters a1,a2,a3 (negatives allowed)")


def _positive_int(text: str) -> int:
    """argparse type for sample counts: a run that checks nothing must not PASS."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="markoff",
        description="Orbits and solution counts of Markoff-like surfaces over F_p")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="closed-form solution count vs brute force")
    _add_pa(p_count)
    p_count.set_defaults(handler=_cmd_count)

    p_enum = sub.add_parser("enumerate", help="list all nonzero solutions as CSV")
    _add_pa(p_enum)
    p_enum.add_argument("--allow-large", action="store_true",
                        help="override the enumeration size guard")
    p_enum.set_defaults(handler=_cmd_enumerate)

    p_orb = sub.add_parser("orbits", help="orbit partition report")
    _add_pa(p_orb)
    p_orb.add_argument("--format", choices=("text", "json"), default="text")
    p_orb.set_defaults(handler=_cmd_orbits)

    checks = sub.add_parser("verify", help="run one verification suite").add_subparsers(
        dest="check", required=True)
    for name, handler in (("divisibility", _verify_divisibility), ("breakup", _verify_breakup),
                          ("delta", _verify_delta), ("numel", _cmd_count)):
        check = checks.add_parser(name)
        _add_pa(check)
        check.set_defaults(handler=handler)
    for name, handler in (("conics", _verify_conics), ("nobigons", _verify_nobigons)):
        check = checks.add_parser(name)
        _add_pa(check, require_a=False)
        check.add_argument("--samples", type=_positive_int, default=1000)
        check.add_argument("--seed", type=int, default=0)
        check.set_defaults(handler=handler)

    p_tab = sub.add_parser("table-22m2", help="orbit-size tables for a = (2,2,-2)")
    p_tab.add_argument("--max-p", type=int, default=43)
    p_tab.add_argument("--format", choices=("csv", "text"), default="csv")
    p_tab.set_defaults(handler=_cmd_table)

    families = sub.add_parser("special", help="worked families").add_subparsers(
        dest="family", required=True)
    for name, handler in (("00m3", _special_00m3), ("p3", _special_p3),
                          ("22m2", _special_22m2)):
        family = families.add_parser(name)
        # p3 is the p = 3 surface; its -p only guards against another prime
        family.add_argument("-p", "--prime", type=int, required=name != "p3",
                            help="odd prime modulus")
        family.set_defaults(handler=handler)

    p_sweep = sub.add_parser("sweep", help="count/divisibility sweep over parameters")
    p_sweep.add_argument("--p-list", type=str, required=True,
                         help="comma-separated primes, e.g. 5,7,11,13")
    group = p_sweep.add_mutually_exclusive_group()
    group.add_argument("--exhaustive", action="store_true",
                       help="all parameter triples per prime")
    group.add_argument("--samples", type=_positive_int, default=None,
                       help="seeded random triples per prime (default 200)")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--with-delta", action="store_true",
                         help="also build and verify the certificate per run")
    p_sweep.set_defaults(handler=_cmd_sweep)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0

    try:
        if "params" in args:  # every command that reads -p/-a
            p = validate_prime(args.prime)
            if args.params is not None:
                args.params = _parse_params(p, args.params)
        return args.handler(args)
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # fail closed: one line, no traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL


def _cmd_count(args) -> int:
    params = args.params
    brute = count_solutions_bruteforce(params)
    if params.s == 0 or params.p < 5:
        print(f"brute={brute} formula=unavailable (s={params.s}, p={params.p})")
        return EXIT_OK
    formula = closed_form_total(params)
    status = "PASS" if brute == formula else "FAIL"
    print(f"brute={brute} formula={formula} {status}")
    return EXIT_OK if status == "PASS" else EXIT_FAIL


def _cmd_enumerate(args) -> int:
    sol = enumerate_solutions(args.params, allow_large=args.allow_large)
    sol.write_csv(sys.stdout)
    return EXIT_OK


def _cmd_orbits(args) -> int:
    params = args.params
    part = orbits.compute_orbits(enumerate_solutions(params))
    if args.format == "json":
        print(json.dumps(orbits.partition_report(part), sort_keys=True))
    else:
        cls = classify_parameters(params)
        print(f"p={params.p} a={params.a} s={params.s} class={cls.kind}")
        print(f"total={len(part.solutions)} orbits={len(part.orbits)}")
        print(f"table: {orbits.size_table(part)}")
    return EXIT_OK


def _verify_divisibility(args) -> int:
    part = orbits.compute_orbits(enumerate_solutions(args.params))
    report = orbits.verify_divisibility(part)
    table = orbits.size_table(part)
    if report.passed is None:
        print(f"class={report.params_class.kind}: not asserted; sizes {table}")
        return EXIT_OK
    print(f"class={report.params_class.kind}: sizes {table} "
          f"{'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_FAIL


def _verify_delta(args) -> int:
    params = args.params
    try:
        delta.require_consistent(params)  # a refusal needs no enumeration
        sol = enumerate_solutions(params)
        assign = delta.build_certificate(sol)
        part = orbits.compute_orbits(sol)
        report = delta.verify_certificate(assign, part)
    except delta.NoConsistentExtension as exc:
        print(f"no consistent extension: {exc}")
        cls = classify_parameters(params)
        # expected exactly for hypothesis-violated parameters
        return EXIT_OK if cls.kind not in (ALL_NONDEGENERATE, SPECIAL_FORM) else EXIT_FAIL
    except delta.CertificateError as exc:
        print(f"certificate FAILED: {exc}")
        return EXIT_FAIL
    ok = report.all_divisible
    print(f"certificate verified on {report.n_points} points; "
          f"orbit sizes divisible by p: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_FAIL


def _verify_breakup(args) -> int:
    report = obstruction.verify_breakup(args.params)
    print(json.dumps(obstruction.breakup_report_dict(report), sort_keys=True))
    if not report.bound_holds:
        return EXIT_FAIL
    if not report.conjecture_matched:
        print(f"note: conjectured partition {report.conjectured_sizes} "
              f"differs from computed {report.orbit_sizes}", file=sys.stderr)
    return EXIT_OK


def _verify_conics(args) -> int:
    p = args.prime
    rng = random.Random(args.seed)
    bad = 0
    for _ in range(args.samples):
        c = ConicParams.make(p, rng.randrange(p), rng.randrange(p),
                             rng.randrange(p), rng.randrange(p))
        if classify_and_count(c)[1] != count_conic_bruteforce(c):
            bad += 1
    extra = ""
    params = args.params
    if params is not None and params.s != 0 and p >= 5:
        fib = total_via_fibers(params)
        form = closed_form_total(params)
        extra = f"; fiber-sum={fib} formula={form}"
        if fib != form:
            bad += 1
    print(f"conics checked={args.samples} mismatches={bad}{extra} "
          f"{'PASS' if bad == 0 else 'FAIL'}")
    return EXIT_OK if bad == 0 else EXIT_FAIL


def _verify_nobigons(args) -> int:
    p = args.prime
    params = args.params if args.params is not None else SurfaceParams.make(p, (0, 0, 0))
    rng = random.Random(args.seed)
    pts = [tuple(rng.randrange(p) for _ in range(3)) for _ in range(args.samples)]
    ok = orbits.no_bigons_holds(params, pts)
    print(f"no-bigons on {len(pts)} points: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_table(args) -> int:
    rows = special_cases.orbit_table_22m2(args.max_p)
    if args.format == "csv":
        sys.stdout.write(special_cases.table_csv(rows))
    else:
        for row in rows:
            flags = ""
            if row.matches_reference is False:
                flags = (" (matches reference after 4^3 -> 4^4 correction)"
                         if row.corrected_match else " (DISAGREES with reference)")
            print(f"{row.p}: {row.table_string()}{flags}")
    bad = [r for r in rows if r.matches_reference is False and not r.corrected_match]
    return EXIT_FAIL if bad else EXIT_OK


def _special_p3(args) -> int:
    if args.prime not in (None, 3):
        raise ValueError(f"special p3 is the p = 3 surface; got -p {args.prime}")
    report = special_cases.markoff_p3()
    print(f"orbits: {orbits.size_table(report.multiset)}")
    # markoff_p3 checked that the moves negate coordinates on the listed
    # cube; is_cube says the cube is the whole surface
    print(f"moves negate coordinates: {report.is_cube}; "
          f"graph is the 3-cube: {report.is_cube}")
    return EXIT_OK if report.is_cube and report.multiset == {8: 1} else EXIT_FAIL


def _special_00m3(args) -> int:
    rep = special_cases.orbits_00_minus3(validate_prime(args.prime))
    sizes = ",".join(str(v) for v in sorted(rep.conic1_sizes, reverse=True))
    print(f"ord(lambda)={rep.lambda_order}; "
          f"conic1 orbits={rep.conic1_orbits} ({sizes}); "
          f"conic0 orbits={rep.conic0_orbits}")
    return EXIT_OK if rep.consistent else EXIT_FAIL


def _special_22m2(args) -> int:
    params = SurfaceParams.make(validate_prime(args.prime), (2, 2, -2))
    rep = special_cases.tiny_orbits_22m2(params)
    if rep.s_zero:
        print("s = 0: closed-form small orbits skipped")
        return EXIT_OK
    print(f"singletons={len(rep.singletons)} barbells={len(rep.barbells)} "
          f"tripods={len(rep.tripods)}"
          f"{' (tripods degenerate)' if rep.tripods_degenerate else ''} "
          f"verified={rep.all_verified()}")
    return EXIT_OK if rep.all_verified() else EXIT_FAIL


def _iter_sweep_params(p: int, exhaustive: bool, samples: int, seed: int):
    if exhaustive:
        return itertools.product(range(p), repeat=3)
    rng = random.Random(seed * 1_000_003 + p)
    return [(rng.randrange(p), rng.randrange(p), rng.randrange(p)) for _ in range(samples)]


def _sweep_one(p: int, a: tuple[int, int, int], with_delta: bool) -> list[str]:
    params = SurfaceParams.make(p, a)
    messages = []
    if params.s != 0 and p >= 5:
        if count_solutions_bruteforce(params) != closed_form_total(params):
            messages.append(f"COUNT FAIL p={p} a={a}")
    sol = enumerate_solutions(params)
    part = orbits.compute_orbits(sol)
    if p >= 5:
        report = orbits.verify_divisibility(part)
        if report.passed is False:
            messages.append(f"DIVISIBILITY FAIL p={p} a={a}: {orbits.size_table(part)}")
        if with_delta and report.asserted:
            try:
                assign = delta.build_certificate(sol)
                delta.verify_certificate(assign, part)
            except (delta.NoConsistentExtension, delta.CertificateError) as exc:
                messages.append(f"DELTA FAIL p={p} a={a}: {exc}")
    return messages


def _cmd_sweep(args) -> int:
    primes = [validate_prime(int(v)) for v in args.p_list.split(",")]
    samples = args.samples if args.samples is not None else 200
    jobs = []
    for p in primes:
        exhaustive = args.exhaustive or (args.samples is None and p <= 13)
        jobs.extend((p, a) for a in _iter_sweep_params(p, exhaustive, samples, args.seed))
    jobs.sort()

    # below p = 5 there is no count formula, divisibility verdict or certificate
    skipped = sum(1 for p, _ in jobs if p < 5)
    if skipped == len(jobs):
        raise ValueError("sweep checks nothing below p = 5; include a prime >= 5")

    failures = 0
    for p, a in jobs:
        for line in _sweep_one(p, a, args.with_delta):
            print(line)
            failures += 1
    runs = f"{len(jobs)} runs"
    if skipped:
        runs += f" ({len(jobs) - skipped} checked, {skipped} skipped below p = 5)"
    print(f"sweep: {runs}, {failures} failures")
    return EXIT_OK if failures == 0 else EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
