"""Deterministic report serialization.

JSON is the canonical format: keys sorted, floats printed with 12 significant
digits, exact rationals as "p/q" strings, so identical configs produce
byte-identical output.  Every string and key goes through json's own escaper,
so control characters come out escaped (\\u0001, \\n) as RFC 8259 requires.
CSV is a projection of the same report: one comment line holding the canonical
config, then an RFC-quoted table (the rows table when the subcommand produces
rows, otherwise a single scalar row).
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from json.encoder import encode_basestring


def format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if x == int(x) and abs(x) < 1e15:
        return format(x, ".1f")
    return format(x, ".12g")


def canonical_json(obj) -> str:
    if isinstance(obj, float):  # the commonest leaves first
        return format_float(obj)
    if isinstance(obj, str):
        return encode_basestring(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, Fraction):
        return f'"{obj.numerator}/{obj.denominator}"'
    if isinstance(obj, dict):
        return "{" + ", ".join([f"{encode_basestring(str(key))}: {canonical_json(obj[key])}"
                                for key in sorted(obj, key=str)]) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(canonical_json, obj)) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _cell(value) -> str:
    if isinstance(value, float):
        return format_float(value).strip('"')
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def render(report: dict, fmt: str) -> str:
    """Serialize a {subcommand, config, results, rows?} report."""
    if fmt == "json":
        return canonical_json(report) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    buf = io.StringIO()
    header = {"subcommand": report.get("subcommand"), "config": report.get("config", {})}
    buf.write("# " + canonical_json(header) + "\r\n")
    writer = csv.writer(buf)
    rows = report.get("rows")
    if rows:
        fields = list(rows[0].keys())
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_cell(row[f]) for f in fields])
    else:
        results = report.get("results", {})
        fields = sorted(results, key=str)
        writer.writerow(fields)
        writer.writerow([_cell(results[f]) for f in fields])
    return buf.getvalue()
