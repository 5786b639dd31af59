import json

from markoff import cli, delta, obstruction
from markoff.cli import (EXIT_FAIL, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, main)
from markoff.enumeration import DEFAULT_MAX_PRIME, enumerate_solutions
from markoff.field import is_prime
from markoff.surface import SurfaceParams

from conftest import restrict


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_orbits_table_example(capsys):
    code, out, _ = run(capsys, "orbits", "-p", "13", "-a", "2,2,-2")
    assert code == EXIT_OK
    assert "table: 1^3, 2^3, 4^4, 16^3, 24^4" in out


def test_special_p3_example(capsys):
    code, out, _ = run(capsys, "special", "p3")
    assert code == EXIT_OK
    assert out.startswith("orbits: 8^1")


def test_special_p3_rejects_other_primes(capsys):
    code, out, _ = run(capsys, "special", "p3", "-p", "3")
    assert code == EXIT_OK and out.startswith("orbits: 8^1")
    for p in ("7", "5", "10"):
        code, out, err = run(capsys, "special", "p3", "-p", p)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: special p3 is the p = 3 surface; got -p {p}\n"


def test_verify_numel_example(capsys):
    code, out, _ = run(capsys, "verify", "numel", "-p", "5", "-a", "0,0,0")
    assert code == EXIT_OK
    assert out.strip().splitlines()[0] == "brute=40 formula=40 PASS"


def test_special_00m3_example(capsys):
    code, out, _ = run(capsys, "special", "00m3", "-p", "89")
    assert code == EXIT_OK
    assert out.strip() == ("ord(lambda)=11; conic1 orbits=5 (22,22,22,11,11); "
                           "conic0 orbits=8")
    # sqrt(5) is not in F_13, so lambda has order dividing 14 in F_{13^2}
    code, out, _ = run(capsys, "special", "00m3", "-p", "13")
    assert code == EXIT_OK
    assert out.strip() == "ord(lambda)=7; conic1 orbits=1 (14); conic0 orbits=0"


def test_count_s_zero_reports_unavailable(capsys):
    code, out, _ = run(capsys, "count", "-p", "7", "-a", "0,0,-3")
    assert code == EXIT_OK
    assert "formula=unavailable" in out


def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "-p", "3", "-a", "0,0,0")
    assert code == EXIT_OK
    assert out.splitlines() == ["1,1,1", "1,1,2", "1,2,1", "1,2,2",
                                "2,1,1", "2,1,2", "2,2,1", "2,2,2"]


def test_orbits_json(capsys):
    code, out, _ = run(capsys, "orbits", "-p", "7", "-a", "2,3,3", "--format", "json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["prime"] == 7
    assert report["class"] == "special-form"
    assert report["table"] == "14^1, 28^1"


def test_verify_divisibility(capsys):
    code, out, _ = run(capsys, "verify", "divisibility", "-p", "7", "-a", "1,1,1")
    assert code == EXIT_OK and "PASS" in out
    code, out, _ = run(capsys, "verify", "divisibility", "-p", "7", "-a", "2,2,-2")
    assert code == EXIT_OK and "not asserted" in out


def test_incomplete_enumeration_fails_the_verdicts(capsys, monkeypatch):
    """A set missing an orbit exits 1 in verify divisibility, delta and breakup, naming the counts."""
    enumerate_solutions = cli.enumerate_solutions

    def one_orbit(params):
        sol = enumerate_solutions(params)
        return restrict(sol, cli.orbits.compute_orbits(sol).ids(sol.points.T) == 1)

    monkeypatch.setattr(cli, "enumerate_solutions", one_orbit)
    monkeypatch.setattr(obstruction, "enumerate_solutions", one_orbit)
    counts = "the set holds M = 65 points, but the surface has 156 nonzero points"
    code, _, err = run(capsys, "verify", "divisibility", "-p", "13", "-a", "2,5,5")
    assert code == EXIT_FAIL and err == f"error: CertificateError: {counts}\n"
    code, out, _ = run(capsys, "verify", "delta", "-p", "13", "-a", "2,5,5")
    assert code == EXIT_FAIL and out == f"certificate FAILED: {counts}\n"
    code, out, err = run(capsys, "verify", "breakup", "-p", "13", "-a", "2,5,5")
    assert code == EXIT_FAIL and out == "" and err == f"error: CertificateError: {counts}\n"


def test_verify_delta(capsys):
    code, out, _ = run(capsys, "verify", "delta", "-p", "13", "-a", "2,5,5")
    assert code == EXIT_OK
    assert "certificate verified" in out and "PASS" in out
    # hypothesis-violated parameters fail to extend, which is expected
    code, out, _ = run(capsys, "verify", "delta", "-p", "13", "-a", "2,2,-2")
    assert code == EXIT_OK
    assert "no consistent extension" in out


def test_verify_breakup(capsys):
    code, out, _ = run(capsys, "verify", "breakup", "-p", "7", "-a", "2,3,3")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["orbit_sizes"] == [14, 28]


def test_verify_conics(capsys):
    code, out, _ = run(capsys, "verify", "conics", "-p", "11", "--samples", "200",
                       "-a", "1,1,1")
    assert code == EXIT_OK
    assert "mismatches=0" in out and "fiber-sum=" in out


def test_verify_nobigons(capsys):
    code, out, _ = run(capsys, "verify", "nobigons", "-p", "11", "--samples", "300")
    assert code == EXIT_OK and "PASS" in out


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table-22m2", "--max-p", "13")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "p,orbit_sizes"
    assert lines[-1] == '13,"1^3, 2^3, 4^4, 16^3, 24^4"'


def test_table_text_flags_discrepancy(capsys):
    code, out, _ = run(capsys, "table-22m2", "--max-p", "11", "--format", "text")
    assert code == EXIT_OK
    assert "4^3 -> 4^4 correction" in out


def test_special_22m2(capsys):
    code, out, _ = run(capsys, "special", "22m2", "-p", "13")
    assert code == EXIT_OK and "verified=True" in out


def test_sweep_small(capsys):
    code, out, _ = run(capsys, "sweep", "--p-list", "5", "--exhaustive", "--with-delta")
    assert code == EXIT_OK
    assert out.strip() == "sweep: 125 runs, 0 failures"


def test_sweep_with_delta_certifies_above_p13(capsys, monkeypatch):
    def refuse(assign, part):
        raise delta.CertificateError("planted refusal")

    monkeypatch.setattr(delta, "verify_certificate", refuse)
    code, out, _ = run(capsys, "sweep", "--p-list", "17", "--samples", "5",
                       "--with-delta")
    assert code == EXIT_FAIL
    fails = [line for line in out.splitlines() if line.startswith("DELTA FAIL p=17 ")]
    assert fails and all(line.endswith(": planted refusal") for line in fails)
    assert out.splitlines()[-1] == f"sweep: 5 runs, {len(fails)} failures"


def test_sweep_sampled_deterministic(capsys):
    code, out1, _ = run(capsys, "sweep", "--p-list", "17", "--samples", "20",
                        "--seed", "7")
    assert code == EXIT_OK
    code, out2, _ = run(capsys, "sweep", "--p-list", "17", "--samples", "20",
                        "--seed", "7")
    assert out1 == out2


def test_sweep_default_mode(capsys):
    # without --exhaustive or --samples: every triple at p = 5, 200 seeded at p = 17
    code, out, _ = run(capsys, "sweep", "--p-list", "5,17")
    assert code == EXIT_OK
    assert out.strip() == "sweep: 325 runs, 0 failures"


def test_usage_error_exit_code(capsys):
    assert main(["orbits", "-p", "13"]) == EXIT_USAGE          # missing -a
    assert main(["count", "-p", "10", "-a", "1,1,1"]) == EXIT_USAGE  # not prime
    code = main(["count", "-p", "7", "-a", "1,1"])             # malformed triple
    assert code == EXIT_USAGE
    # verify has no --format option; every check prints one fixed format
    assert main(["verify", "delta", "-p", "13", "-a", "2,5,5", "--format", "json"]) == EXIT_USAGE


def test_params_may_start_with_a_negative_number(capsys):
    """-a -2,5,5 runs as -a=-2,5,5 does; -a followed by an option is still a usage error."""
    for command, value, rest in ((["verify", "delta"], "-2,5,5", []),
                                 (["orbits"], "-1,-1,-1", ["--format", "json"]),
                                 (["count"], "-1,2", [])):
        for flag in ("-a", "--params", "--par"):
            spaced = run(capsys, *command, "-p", "13", flag, value, *rest)
            assert spaced == run(capsys, *command, "-p", "13", f"{flag}={value}", *rest)
        assert spaced[0] == (EXIT_USAGE if value == "-1,2" else EXIT_OK), command
    code, out, err = run(capsys, "orbits", "-p", "13", "-a", "--format", "json")
    assert code == EXIT_USAGE and out == ""
    assert "argument -a/--params: expected one argument" in err


def test_each_command_takes_only_its_own_options(capsys):
    pa_commands = (["count"], ["enumerate"], ["orbits"], ["verify", "divisibility"],
                   ["verify", "delta"], ["verify", "breakup"], ["verify", "numel"])
    for command in pa_commands:
        code, out, err = run(capsys, *command, "-p", "7")
        assert code == EXIT_USAGE and out == ""
        assert "required: -a/--params" in err
    # only conics and nobigons draw samples
    for command in pa_commands[3:]:
        for extra in (["--seed", "1"], ["--samples", "5"]):
            code, out, err = run(capsys, *command, "-p", "7", "-a", "1,1,1", *extra)
            assert code == EXIT_USAGE and out == ""
            assert f"unrecognized arguments: {' '.join(extra)}" in err
    for family in ("00m3", "22m2"):
        code, out, err = run(capsys, "special", family)
        assert code == EXIT_USAGE and out == ""
        assert "required: -p/--prime" in err


def test_verify_delta_refuses_without_enumerating(capsys, monkeypatch):
    def enumerate_refused(*args, **kwargs):
        raise AssertionError("a refusal read from the parameters enumerated the surface")

    monkeypatch.setattr(cli, "enumerate_solutions", enumerate_refused)
    code, out, _ = run(capsys, "verify", "delta", "-p", "13", "-a", "2,2,-2")
    assert code == EXIT_OK
    assert out == ("no consistent extension: double fixed point (0, 1, 12) forces "
                   "Delta_0 = 0 but 2a_2 != a_1a_0 (mod 13)\n")


def test_s0_orbits_come_from_the_cone_engine(capsys, monkeypatch):
    """orbits, verify divisibility and sweep send s = 0 at odd p to cone_orbits.

    They must give the search's report without enumerating the surface.
    """
    part = cli.orbits.compute_orbits(enumerate_solutions(SurfaceParams.make(97, (0, 0, -3))))
    report = json.dumps(cli.orbits.partition_report(part), sort_keys=True) + "\n"

    def refused(*args, **kwargs):
        raise AssertionError("the surface was enumerated")

    monkeypatch.setattr(cli, "enumerate_solutions", refused)
    assert run(capsys, "orbits", "-p", "97", "-a", "0,0,-3", "--format", "json") == (
        EXIT_OK, report, "")
    assert run(capsys, "verify", "divisibility", "-p", "97", "-a", "0,0,-3") == (
        EXIT_OK, "class=s-zero: not asserted; sizes 196^48\n", "")
    # past the enumeration guard, the engine runs
    code, out, _ = run(capsys, "orbits", "-p", "20011", "-a", "0,0,-3")
    assert code == EXIT_OK and out.splitlines()[1].startswith("total=400440120 ")
    # ord(lambda) = 23 at p = 28657: the orbit list trips its guard before any line is
    # printed, and special 00m3, which reads orbit labels, runs
    assert run(capsys, "orbits", "-p", "28657", "-a", "0,0,-3") == (
        EXIT_RESOURCE, "", "resource guard: p = 28657: 8926344 orbits exceed the s = 0 "
                           "orbit engine's bound 1000000\n")
    code, out, _ = run(capsys, "special", "00m3", "-p", "28657")
    assert code == EXIT_OK and out.startswith("ord(lambda)=23; conic1 orbits=623 (46,46,")
    # and so do a sweep's s = 0 items
    assert cli._sweep_one(97, (0, 0, -3), True) == []


def test_resource_guard_exit_code(capsys):
    p = next(q for q in range(DEFAULT_MAX_PRIME + 1, DEFAULT_MAX_PRIME + 200)
             if is_prime(q))
    code, out, err = run(capsys, "enumerate", "-p", str(p), "-a", "0,0,0")
    assert code == EXIT_RESOURCE and out == ""
    assert err == (f"resource guard: p = {p} exceeds the enumeration guard "
                   f"{DEFAULT_MAX_PRIME}; pass allow_large=True to override\n")
    for argv in (["count", "-p", str(p), "-a", "1,1,1"],
                 ["verify", "numel", "-p", str(p), "-a", "1,1,1"]):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_RESOURCE and out == ""
        assert err == (f"resource guard: p = {p} exceeds the brute-force guard "
                       f"{DEFAULT_MAX_PRIME} ({p}^2-byte root table)\n")
    # the conic grid count is refused before its p x p grid is built
    code, out, err = run(capsys, "verify", "conics", "-p", str(p), "--samples", "1")
    assert code == EXIT_RESOURCE and out == ""
    assert err == (f"resource guard: p = {p} exceeds the brute-force guard "
                   f"{DEFAULT_MAX_PRIME} ({p}^2-point grid)\n")
    # --allow-large lifts the enumeration guard, not the int32 bound p^2 + 1 < 2^31
    code, out, err = run(capsys, "enumerate", "-p", "46349", "-a", "1,1,1", "--allow-large")
    assert code == EXIT_RESOURCE and out == ""
    assert err.startswith("resource guard: p = 46349: the 2148229802 cell offsets exceed")
    # the field-table limit is a domain error, not an overridable guard
    code, _, err = run(capsys, "orbits", "-p", "20000003", "-a", "0,0,0")
    assert code == EXIT_USAGE
    assert err == "error: p = 20000003 exceeds the table limit 20000000\n"


def test_out_of_memory_exits_as_a_resource_guard(capsys, monkeypatch):
    """A MemoryError ends the run with exit 3 and one line, not exit 1 as a failed claim."""
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 734. MiB")

    monkeypatch.setattr(cli, "enumerate_solutions", exhausted)
    for argv in (["verify", "delta", "-p", "13", "-a", "1,1,1"],
                 ["orbits", "-p", "13", "-a", "1,1,1"]):
        assert run(capsys, *argv) == (
            EXIT_RESOURCE, "", "resource guard: out of memory: Unable to allocate 734. MiB\n")


def test_non_positive_samples_are_usage_errors(capsys):
    for argv in (["verify", "conics", "-p", "11", "--samples", "-3"],
                 ["verify", "nobigons", "-p", "11", "--samples", "0"],
                 ["sweep", "--p-list", "5", "--samples", "0"]):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert "expected a positive integer" in err


def test_special_22m2_rejects_p2(capsys):
    code, out, err = run(capsys, "special", "22m2", "-p", "2")
    assert code == EXIT_USAGE and out == ""
    assert err == "error: p = 2 is not supported here (odd prime required)\n"
    code, out, _ = run(capsys, "special", "22m2", "-p", "3")
    assert code == EXIT_OK
    assert out == ("singletons=3 barbells=3 tripods=0 (tripods degenerate) "
                   "verified=True\n")
    code, out, _ = run(capsys, "special", "22m2", "-p", "5")
    assert code == EXIT_OK
    assert out == "s = 0: closed-form small orbits skipped\n"


def test_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "orbits", "-p", "11", "-a", "2,7,7", "--format", "json")
    _, out2, _ = run(capsys, "orbits", "-p", "11", "-a", "2,7,7", "--format", "json")
    assert out1 == out2


def test_sweep_reports_runs_skipped_below_p5(capsys):
    code, out, err = run(capsys, "sweep", "--p-list", "3", "--exhaustive")
    assert code == EXIT_USAGE and out == ""
    assert "checks nothing below p = 5" in err
    code, out, _ = run(capsys, "sweep", "--p-list", "3,5", "--samples", "4")
    assert code == EXIT_OK
    assert out == "sweep: 8 runs (4 checked, 4 skipped below p = 5), 0 failures\n"


def test_table_max_p_below_2_is_usage_error(capsys):
    for max_p in ("-5", "1"):
        code, out, err = run(capsys, "table-22m2", "--max-p", max_p)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: the table needs max_p >= 2, got {max_p}\n"
    code, out, _ = run(capsys, "table-22m2", "--max-p", "2")
    assert code == EXIT_OK and out == 'p,orbit_sizes\n2,"4^1"\n'


def test_unexpected_error_fails_closed(capsys, monkeypatch):
    def broken(args):
        raise ArithmeticError("lost a sign")

    monkeypatch.setattr(cli, "_cmd_count", broken)
    code, out, err = run(capsys, "count", "-p", "13", "-a", "2,2,-2")
    assert code == EXIT_FAIL and out == ""
    assert err == "error: ArithmeticError: lost a sign\n"
