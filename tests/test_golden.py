"""Frozen CLI output: the exact stdout bytes of small configs of the
progression and kernel subcommands, so a change that should leave reports
untouched can show that it does.

Re-record (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import pathlib
from contextlib import redirect_stdout

import pytest

from missingdigit.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden") / "cli_stdout.json"

DS = "--b 10 --a0 7 --r 3 --k 5"
CONFIGS = (
    f"bv-table {DS} --D 10",
    f"bv-table {DS} --D 10 --format csv",
    f"weighted-bv {DS} --kind fixed --D 30 --c 3",
    f"weighted-bv {DS} --kind pairs --D1 6 --D2 5 --c 7",
    f"weighted-bv {DS} --kind wellfac --c 3",
    f"weighted-bv {DS} --kind semi",
    f"weighted-bv {DS} --kind lin",
    "buchstab-app --b 7 --a0 4 --r 3 --k 6 --alpha 3",
    "buchstab-app --b 7 --a0 4 --r 3 --k 6 --alpha 2.5",
    "buchstab-app --b 5 --a0 1 --r 2 --k 7 --alpha 3",
    "two-squares --limit 100000 --check-brute",
    "two-squares --n 65",
    f"count {DS} --primes",
    "vaughan-check --X 20000 --trials 4 --seed 3",
    "vaughan-check --X 30011 --trials 3 --dmax 1 --seed 5 --U 40",
    "mikawa --M 40 --N 40 --X 200000 --theta 0.4142135623730951 --Q 100",
    "mikawa --M 40 --N 40 --X 200000 --theta 0.3333333333333333 --Q 100",
    "sieve-fns --sandwich-nmax 30000 --umax 2.0",
    "count --b 10 --a0 7 --k 4 --check",
    "count --b 7 --a0 2 --r 5 --k 5 --check",
    "count --b 3 --a0 0 --k 8 --check",
    "count --b 5 --a0 0 --r 3 --k 6 --check",
    "constants --plimit 20000 --b 10 --tweight-X 300000",
    "constants --plimit 20000 --b 65 --tweight-X 300000",
)


def stdout_of(line: str) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(line.split()) == 0, line
    return buf.getvalue()


@pytest.mark.parametrize("line", CONFIGS)
def test_cli_stdout_is_frozen(line):
    assert stdout_of(line) == json.loads(GOLDEN.read_text())[line]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({line: stdout_of(line) for line in CONFIGS}, indent=1) + "\n")
