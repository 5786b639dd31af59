"""Fingerprints of the CLI's and the demos' output.

Usage: PYTHONPATH=src python tools/cli_parity.py

Runs every command line below in this process through markoff.cli.main,
then every demos/*.py script in this process as __main__, and prints one
line for each:

    <exit code> <sha256(stdout)[:16]> <sha256(stderr)[:16]> <command line>
    <exit code> <sha256(stdout)[:16]> <sha256(stderr)[:16]> demos/<name>

Two checkouts whose lines are equal give byte-identical stdout and
stderr and the same exit codes on these runs.  The list holds every
README example, among them a parameter list after -a that starts with
a minus sign (a usage error, exit 2, before markoff's CLI joined such a
value to its -a), the two README paths no example runs (the fiber-sum
branch of verify conics -a and table-22m2 --format text), two breakup
runs with sigma = -1, the p = 997 and p = 2017 runs behind the
benchmark families, a certificate on the all-nondegenerate
a = (1,1,1) at p = 997, certificates on two sigma = -1 forms of the
families pools at p = 997, breakups on three forms of the families
generic pool at p = 997, one per companion axis, with chi(s) = -1 and
sigma = -1 among them, the orbits of the s = 0 sets (0,0,-3) at
p = 997 and (-1,-1,-1) at p = 211, many orbits that are mostly scalar
multiples of one another, (0,1,9) at p = 13, whose cone is two
planes, and (1,1,50016) at p = 50021, above the int32 bound, the
divisibility report of (0,0,-3) at p = 997 and its family at
p = 4001, the orbits of (2,2,-2) at p = 997, with 31 orbits, the
sweep_mid workload's own sweep, a seeded sweep with certificates at
p = 101, the p = 2 and p = 3 edge inputs, the brute-force count at
p = 101, 997 and 2003, three refusals of the Delta certificate, and the
usage (exit 2) and resource-guard (exit 3) inputs, the conic grid's
guard among them.  It calls only markoff.cli.main and the demo scripts
of the checkout it sits in, so it runs unchanged on older commits.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pathlib
import runpy
import shlex

from markoff.cli import main

COMMANDS = [
    # README examples
    "count -p 13 -a 2,2,-2",
    "enumerate -p 7 -a 1,1,1",
    "orbits -p 13 -a 2,2,-2",
    "orbits -p 13 -a 2,2,-2 --format json",
    "verify divisibility -p 7 -a 1,1,1",
    "verify delta -p 13 -a 2,5,5",
    "verify breakup -p 7 -a 2,3,3",
    # a leading minus sign after -a: the same run as "-a=-2,718,279" below
    "verify delta -p 997 -a -2,718,279",
    # breakup with sigma = -1: a generic form at i = 1, and alpha = 2 as
    # (-2, 2, -2) mod 11
    "verify breakup -p 11 -a 8,9,3",
    "verify breakup -p 11 -a 9,2,9",
    "verify numel -p 5 -a 0,0,0",
    "verify conics -p 11 --samples 1000 --seed 0",
    "verify nobigons -p 11 --samples 1000",
    "table-22m2 --max-p 43",
    # README paths no example runs: the fiber sum, and the text table
    "verify conics -p 11 --samples 200 --seed 0 -a 1,1,1",
    "table-22m2 --max-p 43 --format text",
    "special p3",
    "special 00m3 -p 89",
    "special 22m2 -p 13",
    "sweep --p-list 5,7 --exhaustive --with-delta",
    "sweep --p-list 17,19 --samples 50 --seed 1",
    # larger primes; (2,5,5) is special form with alpha = 5, (2,-2,-2) with alpha = -2
    "orbits -p 997 -a 1,1,1 --format json",
    # many orbits: s = 0, where most are scalar multiples of others, and (2,2,-2)
    "orbits -p 997 -a 0,0,-3 --format json",
    "orbits -p 211 -a 210,210,210 --format json",
    "orbits -p 997 -a 2,2,-2 --format json",
    # s = 0 on Cayley's cubic, where the cone is two planes
    "orbits -p 13 -a 0,1,9 --format json",
    # s = 0 above 46337, where p^2 + 1 passes 2^31 and the cone engine's
    # arithmetic must stay int64
    "orbits -p 50021 -a 1,1,50016",
    # a certificate on an all-nondegenerate set at scale
    "verify delta -p 997 -a 1,1,1",
    "verify delta -p 997 -a 2,5,5",
    "verify breakup -p 997 -a 2,5,5",
    "verify divisibility -p 997 -a 2,5,5",
    "verify delta -p 997 -a 2,-2,-2",
    "verify breakup -p 997 -a 2,-2,-2",
    "verify divisibility -p 997 -a 2,-2,-2",
    # sigma = -1 forms of the families pools, a generic and a degenerate
    # one, whose plane rows lie on other axes than the lines above; "-a="
    # passes a leading minus sign to argparse as a value
    "verify delta -p 997 -a=-2,718,279",
    "verify delta -p 997 -a=-2,2,-2",
    # breakup on the families generic pool: the companion along each
    # axis, i = 2 and i = 1 with chi(s) = -1, and i = 0 with sigma = -1
    "verify breakup -p 997 -a 419,419,2",
    "verify breakup -p 997 -a 584,2,584",
    "verify breakup -p 997 -a=-2,718,279",
    "verify divisibility -p 997 -a 0,0,-3",
    "verify delta -p 2017 -a 0,0,0",
    "sweep --p-list 11,13 --exhaustive --with-delta",
    # the sweep_mid benchmark workload: 90 seeded runs at p = 97, 101, 103
    "sweep --p-list 97,101,103 --samples 30 --seed 1",
    # certificates on seeded sets above p = 13
    "sweep --p-list 101 --samples 20 --seed 3 --with-delta",
    # worked families: conic0 non-empty at p = 11, sqrt(5) outside F_p at
    # p = 13, and the p = 997 items
    "special 00m3 -p 11",
    "special 00m3 -p 13",
    "special 00m3 -p 997",
    "special 00m3 -p 4001",
    "special 22m2 -p 997",
    # p = 2 and p = 3 edge inputs
    "enumerate -p 3 -a 0,0,0",
    "orbits -p 2 -a 2,2,-2",
    "special 22m2 -p 2",
    "special 22m2 -p 3",
    "special 22m2 -p 5",
    "sweep --p-list 3 --exhaustive",
    "sweep --p-list 3,5 --samples 4",
    "table-22m2 --max-p 2",
    "count -p 2 -a 1,1,1",
    "count -p 3 -a 0,0,0",
    # the brute-force count oracle at larger primes
    "count -p 101 -a 17,42,88",
    "count -p 997 -a 1,1,1",
    "verify numel -p 2003 -a 2,5,5",
    # Delta certificate refusals: a double fixed point on x1 = 0, and on
    # x3 = 0 at (1, 4, 0)
    "verify delta -p 13 -a 2,2,-2",
    "verify delta -p 5 -a 0,1,2",
    # a refusal read from the parameters, before any enumeration
    "verify delta -p 997 -a 2,2,-2",
    # usage errors (exit 2)
    "orbits -p 13",
    "count -p 10 -a 1,1,1",
    "count -p 7 -a 1,1",
    "verify conics -p 11 --samples -3",
    "verify nobigons -p 11 --samples 0",
    "sweep --p-list 5 --samples 0",
    "table-22m2 --max-p -5",
    "table-22m2 --max-p 1",
    "orbits -p 20000003 -a 0,0,0",
    "special 00m3 -p 5",
    "special p3 -p 7",
    "verify delta -p 13 -a 2,5,5 --format json",
    # a check given an option it does not read, or missing one it needs
    "verify divisibility -p 7",
    "verify delta -p 13 -a 2,5,5 --seed 1",
    "special 00m3",
    # resource guards (exit 3); 20011 is the least prime above the 20000 guard
    "enumerate -p 20011 -a 0,0,0",
    "count -p 20011 -a 1,1,1",
    "verify numel -p 20011 -a 1,1,1",
    # the conic grid count, refused before its p x p grid is built
    "verify conics -p 20000003 --samples 1",
]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _fingerprint(label: str, call) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = call()
    return f"{code} {_digest(out.getvalue())} {_digest(err.getvalue())} {label}"


def run(command: str) -> str:
    return _fingerprint(command, lambda: main(shlex.split(command)))


def run_demo(path: pathlib.Path) -> str:
    def call() -> int:
        runpy.run_path(str(path), run_name="__main__")
        return 0  # a demo that raises stops this tool with its traceback

    return _fingerprint(f"demos/{path.name}", call)


if __name__ == "__main__":
    for command in COMMANDS:
        print(run(command), flush=True)
    for path in sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py")):
        print(run_demo(path), flush=True)
