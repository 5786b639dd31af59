"""Fingerprints of the CLI's output on a fixed list of command lines.

Usage: PYTHONPATH=src python tools/cli_parity.py

Runs every command line below in this process through markoff.cli.main
and prints one line per command:

    <exit code> <sha256(stdout)[:16]> <sha256(stderr)[:16]> <command line>

Two checkouts whose lines are equal give byte-identical stdout and
stderr and the same exit codes on this list.  The list holds every
README example, the p = 997 and p = 2017 runs behind the benchmark
families, the p = 2 and p = 3 edge inputs, the brute-force count at
p = 997 and 2003, three refusals of the Delta certificate, and the usage
(exit 2) and resource-guard (exit 3) inputs.  It calls only
markoff.cli.main, so it runs unchanged on older commits.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
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
    "verify numel -p 5 -a 0,0,0",
    "verify conics -p 11 --samples 1000 --seed 0",
    "verify nobigons -p 11 --samples 1000",
    "table-22m2 --max-p 43",
    "special p3",
    "special 00m3 -p 89",
    "special 22m2 -p 13",
    "sweep --p-list 5,7 --exhaustive --with-delta",
    "sweep --p-list 17,19 --samples 50 --seed 1",
    # larger primes; (2,5,5) is special form with alpha = 5, (2,-2,-2) with alpha = -2
    "orbits -p 997 -a 1,1,1 --format json",
    "verify delta -p 997 -a 2,5,5",
    "verify breakup -p 997 -a 2,5,5",
    "verify divisibility -p 997 -a 2,5,5",
    "verify delta -p 997 -a 2,-2,-2",
    "verify breakup -p 997 -a 2,-2,-2",
    "verify divisibility -p 997 -a 2,-2,-2",
    "verify delta -p 2017 -a 0,0,0",
    "sweep --p-list 11,13 --exhaustive --with-delta",
    # worked families: conic0 non-empty at p = 11, sqrt(5) outside F_p at
    # p = 13, and the p = 997 items
    "special 00m3 -p 11",
    "special 00m3 -p 13",
    "special 00m3 -p 997",
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
]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run(command: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(command))
    return f"{code} {_digest(out.getvalue())} {_digest(err.getvalue())} {command}"


if __name__ == "__main__":
    for command in COMMANDS:
        print(run(command), flush=True)
