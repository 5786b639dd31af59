"""Workload inputs and per-item call sequences for the markoff benchmark.

An item is one parameter set or one family call.  Each item makes the
same library calls as the matching `markoff` verb, checks its outputs
against an independent fact where one exists, and returns a canonical
record whose digest is compared with the one recorded for the seed
commit (golden.json).  Every call goes through a module attribute
(`enumeration.enumerate_solutions`, ...) so that the traced run can wrap
it.

Seeded inputs are drawn from fixed pools, so every input a seed can
produce has a recorded digest.  The pools themselves are drawn once by
POOL_SEED and never change.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from markoff import conics, delta, enumeration, obstruction, orbits, special_cases
from markoff.surface import SurfaceParams

POOL_SEED = 2509_02187

MID_PRIMES = (97, 101, 103)
MID_SAMPLES = 30          # per prime; one repetition of the 90 items takes about 3 s
MID_SEED_POOL = 16        # `sweep --seed S` values whose items have digests
FAMILY_P = 997
FAMILY_GENERIC_POOL_SIZE = 8
FAMILY_00M3_STRATA = 8
TABLE_MAX_P = 97


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes q with lo <= q <= hi, by trial division (independent of markoff)."""
    return [q for q in range(max(lo, 2), hi + 1)
            if all(q % d for d in range(2, int(q ** 0.5) + 1))]


# field tables each workload builds in set-up (odd primes it enumerates at)
TABLE_PRIMES = {
    "sweep_mid": list(MID_PRIMES),
    "families": primes_between(3, TABLE_MAX_P) + [FAMILY_P],
}


def _special_form(p: int, i: int, sigma: int, alpha: int) -> tuple[int, int, int]:
    """(a_i, a_{i+1}, a_{i-1}) = (2*sigma, alpha, alpha*sigma), reduced mod p."""
    a = [0, 0, 0]
    a[i], a[(i + 1) % 3], a[(i - 1) % 3] = 2 * sigma, alpha, alpha * sigma
    return tuple(v % p for v in a)


def family_generic_pool() -> list[tuple[int, int, int]]:
    """Special-form triples at FAMILY_P with alpha^2 != 4 and s != 0."""
    p = FAMILY_P
    rng = random.Random(POOL_SEED + 1)
    pool: list[tuple[int, int, int]] = []
    while len(pool) < FAMILY_GENERIC_POOL_SIZE:
        alpha = rng.randrange(p)
        a = _special_form(p, rng.randrange(3), rng.choice((1, -1)), alpha)
        if (alpha * alpha - 4) % p and (3 + sum(a)) % p and a not in pool:
            pool.append(a)
    return pool


def family_degenerate_pool() -> list[tuple[int, int, int]]:
    """Every special-form triple at FAMILY_P with alpha = +-2."""
    return sorted({_special_form(FAMILY_P, i, sigma, alpha)
                   for i in range(3) for sigma in (1, -1) for alpha in (2, -2)})


def mid_params(sweep_seed: int) -> list[tuple[int, tuple[int, int, int]]]:
    """The items of `markoff sweep --p-list 97,101,103 --samples K --seed S`."""
    jobs = []
    for p in MID_PRIMES:
        rng = random.Random(sweep_seed * 1_000_003 + p)
        jobs += [(p, (rng.randrange(p), rng.randrange(p), rng.randrange(p)))
                 for _ in range(MID_SAMPLES)]
    return sorted(jobs)


def strata_00m3() -> list[list[int]]:
    """Primes 5 < q <= FAMILY_P in FAMILY_00M3_STRATA bands of equal width."""
    primes = primes_between(7, FAMILY_P)
    width = FAMILY_P / FAMILY_00M3_STRATA
    return [[q for q in primes if k * width < q <= (k + 1) * width]
            for k in range(FAMILY_00M3_STRATA)]


# --- items -------------------------------------------------------------------

@dataclass(frozen=True)
class Item:
    key: str                      # golden-digest key, unique per input
    run: Callable[[], tuple[dict, list[str], int]]   # -> record, failed checks, points


def _key(kind: str, p: int, a=None) -> str:
    return f"{kind}:{p}" + ("" if a is None else ":" + ",".join(map(str, a)))


def _certify(sol, part, m: int, rec: dict, bad: list[str]) -> None:
    assign = delta.build_certificate(sol)
    cert = delta.verify_certificate(assign, part)
    rec["cert"] = [cert.n_points, cert.n_fixed_edges, cert.all_divisible]
    if not cert.all_divisible or cert.n_points != m:
        bad.append("certificate")


def sweep_item(p: int, a) -> Item:
    """One `markoff sweep --samples` run: count oracle, enumerate, orbits, verdicts."""
    def run():
        params = SurfaceParams.make(p, a)
        rec: dict = {"p": p, "a": list(params.a)}
        bad: list[str] = []
        cf = None
        if params.s != 0 and p >= 5:
            rec["bf"] = enumeration.count_solutions_bruteforce(params)
            rec["cf"] = cf = conics.closed_form_total(params)
            if rec["bf"] != cf:
                bad.append("closed_form:bruteforce")
        sol = enumeration.enumerate_solutions(params)
        part = orbits.compute_orbits(sol)
        m = len(sol)
        rec["M"], rec["table"] = m, orbits.size_table(part)
        if cf is not None and m != cf:
            bad.append("closed_form:M")
        report = orbits.verify_divisibility(part)
        rec["class"], rec["div"] = report.params_class.kind, report.passed
        if report.passed is False:
            bad.append("divisibility")
        return rec, bad, m
    return Item(_key("sample", p, a), run)


def breakup_item(a) -> Item:
    def run():
        params = SurfaceParams.make(FAMILY_P, a)
        report = obstruction.verify_breakup(params)
        rec = obstruction.breakup_report_dict(report)
        m = sum(report.orbit_sizes)
        bad = [] if report.bound_holds else ["bound_holds"]
        if m != conics.closed_form_total(params):
            bad.append("closed_form:M")
        return rec, bad, m
    return Item(_key("breakup", FAMILY_P, a), run)


def certificate_item(a) -> Item:
    def run():
        params = SurfaceParams.make(FAMILY_P, a)
        sol = enumeration.enumerate_solutions(params)
        part = orbits.compute_orbits(sol)
        m = len(sol)
        rec = {"a": list(params.a), "M": m, "table": orbits.size_table(part)}
        bad: list[str] = []
        _certify(sol, part, m, rec, bad)
        if m != conics.closed_form_total(params):
            bad.append("closed_form:M")
        return rec, bad, m
    return Item(_key("certificate", FAMILY_P, a), run)


def orbits_00m3_item(q: int) -> Item:
    def run():
        report = special_cases.orbits_00_minus3(q)
        return asdict(report), [] if report.consistent else ["consistent"], 0
    return Item(_key("00m3", q), run)


def table_item() -> Item:
    def run():
        rows = special_cases.orbit_table_22m2(TABLE_MAX_P)
        rec = {"csv": special_cases.table_csv(rows),
               "reference": [[r.p, r.matches_reference, r.corrected_match] for r in rows]}
        bad = [f"reference:{r.p}" for r in rows
               if r.matches_reference is False and not r.corrected_match]
        points = sum(size * n for r in rows for size, n in r.computed.items())
        return rec, bad, points
    return Item(_key("table22m2", TABLE_MAX_P), run)


def tiny_item(q: int) -> Item:
    def run():
        report = special_cases.tiny_orbits_22m2(SurfaceParams.make(q, (2, 2, -2)))
        groups = report.singletons + report.barbells + report.tripods
        rec = {"s_zero": report.s_zero, "tripods_degenerate": report.tripods_degenerate,
               "orbits": [[t.kind, t.points, t.verified_size] for t in groups]}
        return rec, [] if report.all_verified() else ["all_verified"], 0
    return Item(_key("tiny22m2", q), run)


def mid_sweep_seed(seed: int) -> int:
    return seed % MID_SEED_POOL


def run_items(workload: str, seed: int) -> list[Item]:
    """The items of a run with this seed; the same seed gives the same items."""
    rng = random.Random(seed)
    if workload == "sweep_mid":
        return [sweep_item(p, a) for p, a in mid_params(mid_sweep_seed(seed))]
    if workload == "families":
        generic = rng.choice(family_generic_pool())
        degenerate = rng.choice(family_degenerate_pool())
        items = ([breakup_item(generic), breakup_item(degenerate),
                  certificate_item(generic), certificate_item(degenerate)]
                 + [orbits_00m3_item(rng.choice(band)) for band in strata_00m3()]
                 + [table_item()]
                 + [tiny_item(q) for q in primes_between(3, FAMILY_P)])
        rng.shuffle(items)
        return items
    raise ValueError(f"unknown workload {workload!r}")


def all_pool_items() -> list[Item]:
    """Every item any seed can produce: the inputs golden.json covers."""
    items = [sweep_item(p, a) for s in range(MID_SEED_POOL) for p, a in mid_params(s)]
    for a in family_generic_pool() + family_degenerate_pool():
        items += [breakup_item(a), certificate_item(a)]
    items += [orbits_00m3_item(q) for band in strata_00m3() for q in band]
    items += [table_item()] + [tiny_item(q) for q in primes_between(3, FAMILY_P)]
    unique = {item.key: item for item in items}
    return list(unique.values())


def digest(record: dict) -> str:
    """First 16 hex digits of the SHA-256 of the record's canonical JSON."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"), default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _plain(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    raise TypeError(f"unserialisable {type(value).__name__}")
