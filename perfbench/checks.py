"""Correctness gate for op outputs.

Two layers:

* invariants, for any seed: the checks an op already reports (identity_ok,
  residuals, inversion error, mismatch and violation counts) plus closed
  forms the benchmark computes itself (member counts, row counts, arc
  census, rank/unrank round trips);
* reference values, for the seeds shipped in ``reference/``: ints, bools,
  strings and rationals must match exactly, floats to 1e-9 relative to the
  largest magnitude in the same record (row or results block), so rounding
  noise next to a large value does not count as a change.

Each function returns a list of failure messages; empty means correct.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from workloads import flag

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
FLOAT_RTOL = 1e-9

# Rounding-noise measurements: bounded by the invariants, not compared.
NOISE_FIELDS = {"residual", "max_residual", "inversion_max_error"}


def closed_form_count(b: int, a0: int, r, k: int) -> int:
    """Members of [0, b^k) avoiding a nonzero digit a0 (ending in r if set)."""
    if a0 == 0:
        raise ValueError("closed form needs a nonzero excluded digit")
    return (b - 1) ** (k - 1) if r is not None else (b - 1) ** k


def _phi(n: int) -> int:
    return sum(1 for m in range(1, n + 1) if math.gcd(m, n) == 1)


def _cli_invariants(argv: list[str], out) -> list[str]:
    sub = argv[0]
    if "--format" in argv and "csv" in argv:
        return [] if out.startswith("# ") else ["csv report lacks its config line"]
    res = out["results"]
    rows = out.get("rows") or []
    bad = []

    def need(cond, msg):
        if not cond:
            bad.append(f"{sub}: {msg}")

    if "--b" in argv and "--k" in argv:
        b, k = int(flag(argv, "--b")), int(flag(argv, "--k"))
        a0 = int(flag(argv, "--a0"))
        r = flag(argv, "--r")
        r = None if r is None else int(r)
    if sub == "count":
        expect = closed_form_count(b, a0, r, k)
        need(res["count"] == expect, f"count {res['count']} != closed form {expect}")
        zero_member = r is None  # 0 ends in r only when r = 0, excluded here
        need(res["count_positive"] == expect - zero_member, "count_positive")
        if "--check" in argv:
            need(res["brute_count"] == expect, "brute_count != closed form")
    elif sub == "fourier-stats":
        need(res["k"] == k, "k echoed wrongly")
        need(res["l1_total"] >= closed_form_count(b, a0, r, k) * (1 - 1e-9),
             "l1_total below |hat(0)|")
        if "--check-inversion" in argv:
            need(res["inversion_max_error"] <= 1e-6, f"inversion error {res['inversion_max_error']}")
    elif sub == "hybrid":
        top = res["points"] * closed_form_count(b, a0, r, k)
        need(res["points"] > 0 and 0 <= res["value"] <= top * (1 + 1e-9),
             "hybrid mass outside [0, points * |hat(0)|]")
    elif sub == "arcs":
        need(res["residual"] <= 1e-5, f"arc-split residual {res['residual']}")
        census = res["minor"] + res["major1"] + res["major2"] + res["major3"]
        need(census == b**k, f"arc census {census} != X")
        need(len(rows) == 4, "arcs must report four rows")
    elif sub == "bv-table":
        D = int(flag(argv, "--D"))
        expect = sum(1 for d in range(1, D + 1) if math.gcd(d, b) == 1)
        need(res["rows_count"] == len(rows) == expect, "bv-table row count")
    elif sub == "weighted-bv":
        need(res["rows_count"] == len(rows), "weighted-bv row count")
        if flag(argv, "--kind") == "fixed":
            D, c = int(flag(argv, "--D", 10)), int(flag(argv, "--c", 1))
            expect = sum(1 for d in range(1, D + 1) if math.gcd(d, b * c) == 1)
            need(len(rows) == expect, "fixed-c row count")
    elif sub == "buchstab-app":
        need(res["identity_ok"] is True, "Buchstab identity_ok is false")
        need(res["total"] == res["S"] - res["T"], "total != S - T")
    elif sub == "two-squares":
        if "--limit" in argv:
            need(0 < res["count_Bcal"] <= res["count_B"], "count_Bcal outside (0, count_B]")
        if "--check-brute" in argv:
            need(res["brute_mismatches"] == 0, "brute_mismatches != 0")
    elif sub == "sieve-fns":
        if "--sandwich-nmax" in argv:
            need(res["sandwich_violations"] == 0, "sandwich_violations != 0")
        if "--wellfactor-X" in argv:
            need(res["wellfactor_failures"] == 0, "wellfactor_failures != 0")
    elif sub == "vaughan-check":
        need(res["max_residual"] <= 1e-6, f"Vaughan residual {res['max_residual']}")
    elif sub == "mikawa":
        need(res["W"] > 0, "W not positive")
    elif sub == "integrals":
        need(res["difference"] > 0.1, "positivity margin not above 0.1")
    elif sub == "constants":
        for name in ("C1", "C2", "C3", "frakS"):
            need(res[f"{name}_lo"] <= res[name] <= res[f"{name}_hi"], f"{name} outside its interval")
        if "--b" in argv:
            bb = int(flag(argv, "--b"))
            f = Fraction(bb, _phi(bb))
            need(res["b_over_phi"] == f"{f.numerator}/{f.denominator}", "b_over_phi")
    elif sub == "density":
        bb = int(flag(argv, "--b"))
        need(math.isclose(res["zeta"], math.log(bb - 1) / math.log(bb), rel_tol=1e-9), "zeta")
    return bad


def _lib_invariants(op: dict, out) -> list[str]:
    name = op["lib"]
    bad = []
    if name == "members":
        expect = closed_form_count(op["b"], op["a0"], None, op["k"])
        if out["len"] != expect:
            bad.append(f"members: {out['len']} members, closed form {expect}")
        if not (out["increasing"] and out["roundtrip_ok"]):
            bad.append("members: enumeration not increasing or rank(unrank(i)) != i")
    elif name == "linf_probe":
        norm = closed_form_count(op["b"], op["a0"], op["r"], op["k"])
        if not 0 <= out["min"] <= out["max"] <= norm * (1 + 1e-9):
            bad.append("linf_probe: |hat| outside [0, hat(0)]")
    elif name in ("min_sum", "type_one_max"):
        if not out["value"] > 0:
            bad.append(f"{name}: value not positive")
    elif name == "bilinear_sum":
        if not abs(complex(*out["value"])) <= out["norm1"] * out["norm2"] * op["M"] * op["N"]:
            bad.append("bilinear_sum: value above the trivial bound")
    return bad


def invariants(op: dict, out) -> list[str]:
    if "cli" in op:
        return _cli_invariants(op["cli"], out)
    return _lib_invariants(op, out)


# -- stored reference values --------------------------------------------------------

def _scale(record) -> float:
    """Largest finite float magnitude directly inside a dict or list."""
    if isinstance(record, dict):
        values = [v for k, v in record.items() if k not in NOISE_FIELDS]
    else:
        values = record
    return max((abs(v) for v in values if isinstance(v, float) and math.isfinite(v)),
               default=0.0)


def _compare(ref, got, path: str, scale: float, bad: list[str]) -> None:
    if len(bad) > 5:
        return
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            bad.append(f"{path}: keys {sorted(set(ref) ^ set(got))} differ")
            return
        for key in ref:
            if key not in NOISE_FIELDS:
                _compare(ref[key], got[key], f"{path}.{key}", _scale(ref), bad)
    elif isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            bad.append(f"{path}: length {len(got)} != {len(ref)}")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _compare(r, g, f"{path}[{i}]", _scale(ref), bad)
    elif isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        tol = FLOAT_RTOL * max(abs(ref), abs(got), scale)
        if not (ref == got or abs(ref - got) <= tol):
            bad.append(f"{path}: {got!r} != reference {ref!r}")
    elif type(ref) is not type(got) or ref != got:
        bad.append(f"{path}: {got!r} != reference {ref!r}")


def compare_reference(ref, got) -> list[str]:
    bad: list[str] = []
    _compare(ref, got, "output", 0.0, bad)
    return bad


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int):
    """Stored outputs for (workload, seed), or None for a seed not shipped."""
    path = reference_path(workload)
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(str(seed))
