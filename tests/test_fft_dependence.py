"""Golden fields that depend on the FFT implementation.

Every golden line of test_golden.py is rerun in process with numpy's FFT
replaced by scipy's, another valid FFT whose last bits may differ.  The
fields whose printed value then moves must lie in FFT_DEPENDENT, so the set
of fields that print rounding residue of the FFT cannot grow silently.  The
check is a subset check: numpy 1.x ships another FFT (the C pocketfft, where
numpy 2.x has the C++ one), so on it some pinned field may not move.
"""

import json
from unittest import mock

import numpy as np
import scipy.fft

from test_golden import CONFIGS, GOLDEN, stdout_of

ARCS = "arcs --b 10 --a0 7 --r 3 --k 4 --C 2 --d 3 --c 1"
# (golden line, field): the imaginary part of the Major3 row prints the
# rounding residue (1.8e-13 beside a real part of 907.9) of the FFT sum
FFT_DEPENDENT = {(ARCS, "rows[2 Major3].im")}


def fields(stdout: str) -> dict:
    """field path -> printed value of one report: JSON keys joined by dots, a
    list entry by its index and any kind it has; CSV by line and cell."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return {f"line {i}, cell {j}": cell
                for i, line in enumerate(stdout.splitlines())
                for j, cell in enumerate(line.split(","))}
    out = {}

    def walk(value, path):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{path}.{key}" if path else key)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                kind = f" {item['kind']}" if isinstance(item, dict) and "kind" in item else ""
                walk(item, f"{path}[{i}{kind}]")
        else:
            out[path] = value

    walk(report, "")
    return out


def test_only_the_pinned_fields_move_under_another_fft():
    golden = json.loads(GOLDEN.read_text())
    with mock.patch.object(np.fft, "fft", scipy.fft.fft):
        rerun = {line: fields(stdout_of(line)) for line in CONFIGS}
    moved = set()
    for line in CONFIGS:
        want = fields(golden[line])
        assert rerun[line].keys() == want.keys(), line
        moved |= {(line, path) for path, value in want.items() if rerun[line][path] != value}
    assert moved <= FFT_DEPENDENT
    for line, path in FFT_DEPENDENT:
        assert path in fields(golden[line]), (line, path)
