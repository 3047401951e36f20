"""Every function in src/missingdigit has a reader.

A function has one when the CLI runs it on a golden config or a `--schema`
(or it is the parser's refusal hook, which a refused argv reaches alone),
or when a file that does not change with the library reads it by name: the
oracles, the acceptance suite, or the benchmark's ops and tracer.  READERS
lists the second kind, each with the file and the name read there, so a
function that only its own tests call fails here and a new one cannot join
the package without a reader.
"""

import ast
import functools
import importlib
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import missingdigit
from test_golden import CONFIGS

SRC = pathlib.Path(missingdigit.__file__).parent
ROOT = pathlib.Path(__file__).parents[1]

# function (module.qualname) -> (file that reads it, the name read there); a
# helper is read through the function that calls it
READERS = {
    "primetables.PrimeTables.prime_powers": ("tests/oracles.py", "prime_powers"),
    "primetables.PrimeTables.tau": ("tests/oracles.py", "tau"),
    "expsums.type_one_inner": ("tests/oracles.py", "type_one_inner"),
    "primetables.PrimeTables.mobius": ("tests/test_acceptance.py", "mobius"),
    "primetables.PrimeTables.quadratic_class": ("tests/test_acceptance.py", "quadratic_class"),
    "circle.ramanujan_sum": ("tests/test_acceptance.py", "ramanujan_sum"),
    "expsums.vaughan_decompose": ("tests/test_acceptance.py", "vaughan_decompose"),
    "fourier.inversion_indicator": ("tests/test_acceptance.py", "inversion_indicator"),
    # the tracer rebinds these by name and fails when one is missing
    "primetables.PrimeTables.primes": ("perfbench/tracer.py", "primes"),
    "circle.classify_arc": ("perfbench/tracer.py", "classify_arc"),
    "circle.discrepancy_E": ("perfbench/tracer.py", "discrepancy_E"),
    "expsums.type_one_sum": ("perfbench/tracer.py", "type_one_sum"),
    # the benchmark's library ops, and the helpers that only they reach
    "expsums.min_sum": ("perfbench/ops.py", "min_sum"),
    "expsums.bilinear_sum": ("perfbench/ops.py", "bilinear_sum"),
    "expsums._pair_phases": ("perfbench/ops.py", "bilinear_sum"),
    "expsums._support": ("perfbench/ops.py", "bilinear_sum"),
    "expsums.type_one_max": ("perfbench/ops.py", "type_one_max"),
    "expsums._check_type_one": ("perfbench/ops.py", "type_one_max"),
    "digitset.members": ("perfbench/ops.py", "members"),
    "digitset.rank": ("perfbench/ops.py", "rank"),
    "digitset.unrank": ("perfbench/ops.py", "unrank"),
    "fourier.linf_probe": ("perfbench/ops.py", "linf_probe"),
    "fourier.eval_hat": ("perfbench/ops.py", "linf_probe"),
    # the reference that build_weights' support enumeration is checked against
    "sieveweights.support_member": ("tests/test_sieveweights.py", "support_member"),
}

# A fresh interpreter with the profiler on before the import: the
# registrations that run at import count, and no cache that an earlier test
# filled hides a call.
PROBE = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
src, reached = sys.argv[2], set()
def record(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(src):
        reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(record)
from missingdigit import cli
for line in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()):
        assert cli.main(line.split()) == 0, line
for name in cli._COMMANDS:
    cli.report_schema(name)
golden = set(reached)
with redirect_stderr(io.StringIO()):
    assert cli.main(["count"]) == 2
sys.setprofile(None)
print(json.dumps([sorted(golden), sorted(reached - golden)]))
"""


def _defs(node, prefix):
    """(qualname, first line) of each def under node; a decorated function's
    code starts at its first decorator."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + child.name
            yield name, min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield from _defs(child, name + ".")
        else:
            is_class = isinstance(child, ast.ClassDef)
            yield from _defs(child, prefix + child.name + "." if is_class else prefix)


@functools.cache
def defined_functions() -> dict:
    """module.qualname -> (file, first line) of every function in the package."""
    return {f"{path.stem}.{name}": (str(path), line)
            for path in sorted(SRC.glob("*.py"))
            for name, line in _defs(ast.parse(path.read_text()), "")}


@pytest.fixture(scope="module")
def probe() -> tuple[set, set]:
    """(the functions that the golden configs and every --schema call, those
    that a refused argv calls besides)."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    env.pop("MISSINGDIGIT_BUDGET", None)
    out = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(CONFIGS), str(SRC)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    starts = [{tuple(entry) for entry in entries} for entries in json.loads(out)]
    return tuple({name for name, start in defined_functions().items() if start in calls}
                 for calls in starts)


@pytest.fixture(scope="module")
def reached(probe) -> set:
    return probe[0] | probe[1]


def test_a_refused_argv_reaches_the_refusal_hook_alone(probe):
    assert probe[1] == {"cli._Parser.error"}


def test_every_function_has_a_reader(reached):
    unread = sorted(set(defined_functions()) - reached - set(READERS))
    assert not unread, f"called by no golden config, --schema or reader: {unread}"


@pytest.mark.parametrize("name", sorted(READERS))
def test_each_listed_reader_reads_the_function(reached, name):
    path, read = READERS[name]
    assert name in defined_functions()
    assert name not in reached, "reached by a golden config: the entry is not needed"
    assert re.search(rf"\b{read}\b", (ROOT / path).read_text()), f"{path} does not read {read}"
    module, *_, short = name.split(".")
    if short != read:
        caller = getattr(importlib.import_module(f"missingdigit.{module}"), read)
        assert re.search(rf"\b{short}\b", inspect.getsource(caller)), f"{read} does not call {short}"
