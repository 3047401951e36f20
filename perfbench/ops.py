"""Run one op through the program's public surface and return its output.

A CLI op calls ``missingdigit.cli.main(argv)`` with stdout and stderr
captured.  A library op calls exported functions directly.  Functions are
looked up on their module at call time, so a tracer that rebinds module
attributes sees every call.

``run_op`` returns ``(exit_code, output, stdout_bytes, error)``: ``output``
is a JSON-ready value (the parsed report, the raw text for CSV, or the
library op's result record).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random


def _cli(argv: list[str]):
    import missingdigit.cli as cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
    text = out.getvalue()
    error = err.getvalue().strip() or None
    if code != 0:
        return code, None, len(text), error or f"exit code {code}"
    output = text if "--format" in argv and "csv" in argv else json.loads(text)
    return 0, output, len(text), None


def _complex(z: complex) -> list[float]:
    return [z.real, z.imag]


def _lib_min_sum(p):
    from missingdigit import expsums

    ta = expsums.dirichlet_approx(p["theta"], p["Q"], p["X"])
    res = expsums.min_sum(p["mode"], p["M"], p["cap"], ta)
    return {"value": res.value, "bound": res.bound, "q": ta.q}


def _weights(rng: random.Random, n: int) -> dict[int, complex]:
    return {m: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for m in range(1, n + 1)}


def _lib_bilinear_sum(p):
    from missingdigit import expsums

    rng = random.Random(p["seed"])
    alpha1, alpha2 = _weights(rng, p["M"]), _weights(rng, p["N"])
    ta = expsums.dirichlet_approx(p["theta"], p["Q"], p["X"])
    res = expsums.bilinear_sum(alpha1, alpha2, p["X"], ta, d=p["d"], c=1 % p["d"])
    return {"value": _complex(res.value), "norm1": res.norm1, "norm2": res.norm2,
            "bound": res.bound}


def _lib_type_one_max(p):
    from missingdigit import PrimeTables, expsums

    rng = random.Random(p["seed"])
    tables = PrimeTables(max(p["D"], 100))
    alpha = _weights(rng, p["M"])
    value = expsums.type_one_max(tables, p["D"], p["h3"], p["M"], alpha, 1, p["X"], p["theta"])
    return {"value": value}


def _lib_members(p):
    from missingdigit import digitset

    ds = digitset.DigitSystem(p["b"], p["a0"])
    k = p["k"]
    listed = digitset.members(ds, k)
    rng = random.Random(p["seed"])
    ranks = [rng.randrange(len(listed)) for _ in range(p["samples"])]
    roundtrip = all(
        digitset.rank(ds, k, digitset.unrank(ds, k, i)) == i
        and digitset.unrank(ds, k, i) == listed[i]
        for i in ranks
    )
    return {
        "len": len(listed),
        "count": digitset.count(ds, k),
        "increasing": all(x < y for x, y in zip(listed, listed[1:])),
        "roundtrip_ok": roundtrip,
        "checksum": sum(listed) % (2**61 - 1),
    }


def _lib_linf_probe(p):
    import missingdigit as md

    ds = md.DigitSystem(p["b"], p["a0"], p["r"])
    b, k = p["b"], p["k"]
    rng = random.Random(p["seed"])
    q_cap = math.ceil(b ** (k / 3)) - 1
    eps_cap = 0.25 * b ** (-2 * k / 3)
    values, decays = [], []
    while len(values) < p["probes"]:
        q = rng.randrange(2, q_cap)
        a = rng.randrange(1, q)
        if math.gcd(a, q) != 1 or _strip_base_primes(q, b) == 1:
            continue
        value, decay = md.linf_probe(ds, k, q, a, rng.uniform(-eps_cap, eps_cap))
        values.append(value)
        decays.append(decay)
    return {"probes": len(values), "head": values[:16], "sum": math.fsum(values),
            "min": min(values), "max": max(values), "decay_sum": math.fsum(decays),
            "norm": md.count(ds, k)}


def _strip_base_primes(q: int, b: int) -> int:
    while (g := math.gcd(q, b)) > 1:
        q //= g
    return q


LIBRARY = {
    "min_sum": _lib_min_sum,
    "bilinear_sum": _lib_bilinear_sum,
    "type_one_max": _lib_type_one_max,
    "members": _lib_members,
    "linf_probe": _lib_linf_probe,
}


def run_op(op: dict):
    if "cli" in op:
        return _cli(op["cli"])
    return 0, LIBRARY[op["lib"]](op), 0, None


def label(op: dict) -> str:
    if "cli" in op:
        return " ".join(op["cli"])
    return op["lib"] + " " + " ".join(f"{k}={v}" for k, v in op.items() if k != "lib")
