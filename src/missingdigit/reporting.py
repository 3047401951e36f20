"""Deterministic report serialization.

JSON is the canonical format: keys sorted, floats printed with 12 significant
digits, exact rationals as "p/q" strings, so identical configs produce
byte-identical output.  CSV is a projection of the same report: one comment
line holding the canonical config, then an RFC-quoted table (the rows table
when the subcommand produces rows, otherwise a single scalar row).
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction


def format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if x == int(x) and abs(x) < 1e15:
        return format(x, ".1f")
    return format(x, ".12g")


def _emit(value, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(format_float(value))
    elif isinstance(value, Fraction):
        out.append(f'"{value.numerator}/{value.denominator}"')
    elif isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        out.append(f'"{escaped}"')
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value, key=str)):
            if i:
                out.append(", ")
            out.append(f'"{key}": ')
            _emit(value[key], out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(", ")
            _emit(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_json(obj) -> str:
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


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
