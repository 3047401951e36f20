"""Batch front-end: one subcommand per acceptance surface, deterministic
CSV/JSON reports.

Exit codes: 0 ok, 2 precondition violated, 3 scan budget exceeded,
4 internal consistency check failed.  Every report embeds its full config
(including the seed); identical configs produce byte-identical output.
`--schema` on any subcommand prints its machine-readable field list.
The scan budget can be overridden with the MISSINGDIGIT_BUDGET env var.

Each subcommand is declared once, by the `command` decorator on its runner:
its flags and its report schema sit next to the code that fills the report.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import random
import sys

import numpy as np

from . import circle, digitset, expsums, fourier, sievenumerics, sieveweights
from ._budget import SCAN_BLOCK, check_budget
from .digitset import DigitSystem
from .errors import BudgetError, InternalCheckError, PreconditionError
from .primetables import PrimeTables, quadratic_class_of
from .reporting import canonical_json, render

_COMMANDS: dict[str, tuple] = {}  # subcommand -> (runner, flags, checks, schema)


def command(name, flags, scalars, rows=(), checks=()):
    """Register the decorated runner as subcommand `name`.

    flags are (flag, argparse keywords[, domain (test, text)]) entries;
    checks are cross-flag (test of the parsed args, message with {dest}
    fields) entries, after DIGIT_RANGES when flags start with a digit group;
    scalars and rows are the report schema as (name, type[, unit]) entries.
    The runner returns (results dict, rows list or None).
    """

    def fields(entries):
        return [{"name": n, "type": t, "unit": unit[0] if unit else ""}
                for n, t, *unit in entries]

    if flags[:3] in (DIGITS, DIGITS_R):
        checks = DIGIT_RANGES + tuple(checks)

    def register(runner):
        _COMMANDS[name] = (runner, flags, checks,
                           {"scalars": fields(scalars), "rows": fields(rows)})
        return runner

    return register


def report_schema(subcommand: str) -> dict:
    """Machine-readable field list for one subcommand's report."""
    if subcommand not in _COMMANDS:
        raise PreconditionError(f"unknown subcommand {subcommand!r}")
    return _COMMANDS[subcommand][3]


# -- flag groups shared by several subcommands ----------------------------------


def _digit_flags(residue_required):
    return (
        ("--b", dict(type=int, required=True, help="base"), AT_LEAST_3),
        ("--a0", dict(type=int, required=True, help="excluded digit")),
        ("--r", dict(type=int, required=residue_required, default=None,
                     help="last-digit residue")),
    )


AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
AT_LEAST_2 = (lambda v: v >= 2, ">= 2")
AT_LEAST_3 = (lambda v: v >= 3, ">= 3")
POSITIVE = (lambda v: v > 0, "> 0")
# an int that a float operand meets must convert: 2^1024 - 2^970 rounds past the largest float
FLOAT_SIZED = (lambda v: v < 2**1024 - 2**970, "below 2^1024, the float range")

DIGITS = _digit_flags(False)
DIGITS_R = _digit_flags(True)
# the digit ranges read --b: command() adds them to every digit-group subcommand
DIGIT_RANGES = (
    (lambda args: 0 <= args.a0 < args.b, "--a0 must be in [0, --b), got a0={a0}, b={b}"),
    (lambda args: args.r is None or 0 <= args.r < args.b,
     "--r must be in [0, --b), got r={r}, b={b}"),
    # the last digit r would be the excluded one: the set is empty
    (lambda args: args.r != args.a0, "--r must differ from --a0, got r={r}, a0={a0}"),
)
# the progression subcommands read the members n = r (mod b) that can be prime
UNIT_RESIDUE = ((lambda args: math.gcd(args.r, args.b) == 1,
                 "--r must be prime to --b, got r={r}, b={b}"),)
K = (("--k", dict(type=int, required=True), AT_LEAST_1),)
DELTA_EPS = (("--delta", dict(type=float, default=sieveweights.DELTA)),
             ("--eps", dict(type=float, default=sieveweights.EPS)))
# The ranges of --delta and --eps are cross-flag checks, so that weighted-bv
# can apply them only to the kinds that read the two flags.
SIEVE_RANGES = (
    # at delta = 1/6 the semi-linear sifting exponent reaches 0 (sieve_exponents)
    (lambda args: 0 <= args.delta < 1 / 6, "--delta must be in [0, 1/6), got {delta}"),
    # below 1/7 both sieve levels rho stay positive for every delta in [0, 1/6)
    (lambda args: 0 < args.eps < 1 / 7, "--eps must be in (0, 1/7), got {eps}"),
    # the very float the semi-linear spec raises X to
    (lambda args: sieveweights.sieve_exponents(1, args.delta, args.eps)[1] > 0,
     "--eps must keep the sifting exponent 1/3 - 2 delta - 2 eps^2 above 0,"
     " got delta={delta}, eps={eps}"),
)


@contextlib.contextmanager
def _naming(args, message):
    """Re-raise a library refusal of the block as message, formatted with the
    flags' values and the refusal as {exc}, so that it names its flags."""
    try:
        yield
    except PreconditionError as exc:
        raise PreconditionError(message.format_map({**vars(args), "exc": exc})) from exc


def _system(args) -> tuple[DigitSystem, int]:
    """The flags' digit system and X = b^k, refused before the power is formed
    unless X <= 2^62 (past it no int64 array can index X); a checked base
    b >= 3 puts every k > 62 past it, and k past the float range never meets log2 b."""
    ds = DigitSystem(args.b, args.a0, args.r)
    if args.k > 62 or args.k * math.log2(args.b) > 62:
        raise PreconditionError(f"--b^--k must be at most 2^62, got b={args.b}, k={args.k}")
    return ds, args.b**args.k


# -- subcommands ------------------------------------------------------------------


@command("count", DIGITS + K + (
    ("--check", dict(action="store_true", help="compare with enumeration")),
    ("--primes", dict(action="store_true", help="also count primes in the set below b^k")),
), scalars=(
    ("count", "int"), ("count_positive", "int"), ("zeta", "float"), ("kappa", "rational"),
    ("brute_count", "int", "with --check"), ("prime_count", "int", "with --primes"),
    ("prime_predicted", "float", "with --primes"), ("prime_ratio", "float", "with --primes"),
))
def run_count(args):
    ds, X = _system(args)
    results = {
        "count": digitset.count(ds, args.k),
        "count_positive": digitset.count_positive(ds, args.k),
        "zeta": ds.zeta,
        "kappa": ds.kappa,
    }
    if args.check:
        check_budget(X, f"enumerating [0, {args.b}^{args.k})")
        brute = sum(
            int(digitset.contains_array(ds, np.arange(lo, min(lo + SCAN_BLOCK, X))).sum())
            for lo in range(0, X, SCAN_BLOCK)
        )
        results["brute_count"] = brute
        if brute != results["count"]:
            raise InternalCheckError("count formula disagrees with enumeration")
    if args.primes:
        tables = PrimeTables(X)
        cnt, pred = circle.count_missing_digit_primes(tables, ds, X)
        results.update(prime_count=cnt, prime_predicted=pred, prime_ratio=cnt / pred)
    return results, None


@command("density", DIGITS,
         scalars=(("zeta", "float"), ("kappa", "rational"), ("kappa_float", "float")))
def run_density(args):
    ds = DigitSystem(args.b, args.a0, args.r)
    return {"zeta": ds.zeta, "kappa": ds.kappa, "kappa_float": float(ds.kappa)}, None


@command("fourier-stats", DIGITS_R + K + (
    ("--check-inversion", dict(action="store_true")),
), scalars=(
    ("k", "int"), ("l1_total", "float"), ("c_b_estimate", "float"),
    ("alpha_b_estimate", "float"), ("inversion_max_error", "float", "with --check-inversion"),
))
def run_fourier_stats(args):
    ds, _ = _system(args)
    with _naming(args, "--a0: {exc}, got a0={a0}"):  # the digit-product transform
        results = dataclasses.asdict(fourier.l1_and_cb(ds, args.k))
    if args.check_inversion:
        worst = fourier.inversion_max_error(ds, args.k)
        results["inversion_max_error"] = worst
        if worst > 1e-6:
            raise InternalCheckError(f"inversion error {worst} above 1e-6")
    return results, None


@command("hybrid", DIGITS_R + K + (
    ("--Q", dict(type=int, required=True), AT_LEAST_1),
    ("--B", dict(type=int, required=True), AT_LEAST_1),
), scalars=(
    ("value", "float"), ("points", "int"), ("bound", "float", "unit implicit constant"),
    ("ratio", "float", "value/bound"),
))
def run_hybrid(args):
    ds, _ = _system(args)
    with _naming(args, "--a0: {exc}, got a0={a0}"):  # the digit-product transform
        return fourier.hybrid_sum(ds, args.k, args.Q, args.B), None


@command("arcs", DIGITS_R + K + (
    ("--C", dict(type=float, default=2.0)), ("--d", dict(type=int, default=1), AT_LEAST_1),
    ("--c", dict(type=int, default=0)),
), scalars=(
    ("minor", "int", "frequencies"), ("major1", "int"), ("major2", "int"), ("major3", "int"),
    ("direct", "float"), ("main_term", "float"), ("residual", "float", "relative"),
    ("abs_major_minus_main", "float"), ("abs_minor", "float"),
), rows=(("kind", "str"), ("re", "float"), ("im", "float"), ("abs", "float")),
   checks=UNIT_RESIDUE)
def run_arcs(args):
    ds, X = _system(args)
    for steps, what in circle.arc_split_claims(X, args.C):  # refused before the table
        check_budget(steps, what)
    tables = PrimeTables(X)
    with _naming(args, "--a0, --b, --c and --d: {exc}, got a0={a0}, b={b}, c={c}, d={d}"):
        split = circle.arc_split(tables, ds, X, args.d, args.c, args.C)
    results = {
        **{kind.lower(): n for kind, n in split.census.items()},
        "direct": split.direct,
        "main_term": split.main_term,
        "residual": split.residual,
        "abs_major_minus_main": abs(split.major - split.main_term),
        "abs_minor": abs(split.sums[circle.KIND_MINOR]),
    }
    rows = [{"kind": kind, "re": val.real, "im": val.imag, "abs": abs(val)}
            for kind, val in split.sums.items()]
    return results, rows


@command("bv-table", DIGITS_R + K + (("--D", dict(type=int, required=True)),),
         scalars=(("aggregate", "float"), ("rows_count", "int")),
         rows=(("d", "int"), ("c_star", "int"), ("E", "float"), ("abs_E", "float")),
         checks=UNIT_RESIDUE)
def run_bv_table(args):
    ds, X = _system(args)
    tables = PrimeTables(X)
    rep = circle.weighted_discrepancy(tables, ds, X, "abs_max_c", D=args.D)
    rows = [
        {"d": row.d, "c_star": row.c, "E": row.E, "abs_E": abs(row.E)}
        for row in rep.rows
    ]
    return {"aggregate": rep.aggregate, "rows_count": len(rows)}, rows


@command("weighted-bv", DIGITS_R + K + (
    ("--kind", dict(choices=("fixed", "pairs", "wellfac", "semi", "lin"), required=True)),
    ("--D", dict(type=int, default=10)), ("--c", dict(type=int, default=1)),
    ("--D1", dict(type=int, default=5)), ("--D2", dict(type=int, default=3)),
    ("--L", dict(type=int, default=None)),
) + DELTA_EPS, scalars=(
    ("aggregate", "float"), ("kind", "str"), ("rows_count", "int"),
), rows=(("d", "int"), ("c", "int"), ("E", "float"), ("weight", "float")),
   # only the kinds that build sieve weights (wellfac, semi, lin) read --delta/--eps
   checks=UNIT_RESIDUE + tuple(
       (lambda args, test=test: args.kind in ("fixed", "pairs") or test(args), text)
       for test, text in SIEVE_RANGES) + (
       (lambda args: args.kind != "lin" or args.L is None or args.L >= 1,
        "--L must be >= 1 with --kind lin, got {L}"),))
def run_weighted_bv(args):
    ds, X = _system(args)
    kind = args.kind
    if kind in ("semi", "wellfac", "lin"):
        # the spec refuses a level or sifting limit below 2, before the table claim
        with _naming(args, "--kind {kind} needs its sieve level X^rho and sifting limit X^s >= 2"
                     " at X = --b^--k, --delta and --eps, got b={b}, k={k}, delta={delta},"
                     " eps={eps}"):
            if kind == "lin":
                spec = sieveweights.linear_upper(
                    X, args.delta, args.eps, lambda p: (2 * ds.base) % p != 0)
            else:
                spec = sieveweights.semi_linear_lower(
                    X, args.delta, args.eps, lambda p: sieveweights.sifting_prime(p, ds.base))
    tables = PrimeTables(X)
    if kind == "fixed":
        rep = circle.weighted_discrepancy(tables, ds, X, "fixed_c", D=args.D, c=args.c)
    elif kind == "pairs":
        rep = circle.weighted_discrepancy(
            tables, ds, X, "factorable_pair", D1=args.D1, D2=args.D2, c=args.c
        )
    else:
        w = sieveweights.build_weights(spec, tables)
        if kind == "semi":
            rep = circle.weighted_discrepancy(tables, ds, X, "sieve_semi", weights=w)
        elif kind == "wellfac":
            rep = circle.weighted_discrepancy(tables, ds, X, "well_factorable", xi=w.values,
                                              c=args.c)
        else:  # "lin"
            L = args.L if args.L is not None else max(2, int(round(X ** (1 / 3))))
            h = lambda ell: 1.0 / math.log(X / ell)
            rep = circle.weighted_discrepancy(tables, ds, X, "sieve_lin", weights=w, L=L, h=h)
    rows = [row._asdict() for row in rep.rows]
    return {"aggregate": rep.aggregate, "kind": rep.weight_kind, "rows_count": len(rows)}, rows


@command("sieve-fns", (
    ("--umin", dict(type=float, default=1.1)), ("--umax", dict(type=float, default=3.0)),
    ("--ustep", dict(type=float, default=0.1), POSITIVE),
    ("--sandwich-z", dict(type=float, default=30.0)),
    ("--sandwich-D", dict(type=float, default=1000.0)),
    ("--sandwich-nmax", dict(type=int, default=None), AT_LEAST_2),
    ("--wellfactor-X", dict(type=int, default=None), AT_LEAST_1, FLOAT_SIZED),
) + DELTA_EPS, scalars=(
    ("grid_points", "int"), ("sandwich_violations", "int", "with --sandwich-nmax"),
    ("wellfactor_checked", "int", "with --wellfactor-X"),
    ("wellfactor_failures", "int", "with --wellfactor-X"),
), rows=(("kind", "str"), ("u", "float"), ("value", "float")), checks=SIEVE_RANGES + (
    (lambda args: args.sandwich_nmax is None or args.sandwich_z >= 2,
     "--sandwich-z must be >= 2 with --sandwich-nmax, got z={sandwich_z}"),
    # a prime p in (D, z] has lambda^- * 1 (p) = 1, above its sifted indicator 0
    (lambda args: args.sandwich_nmax is None or args.sandwich_D >= args.sandwich_z,
     "--sandwich-D must be >= --sandwich-z with --sandwich-nmax,"
     " got D={sandwich_D}, z={sandwich_z}"),
))
def run_sieve_fns(args):
    X = args.wellfactor_X
    if X is not None:
        # the specs refuse a level or sifting limit below 2, before the grid claim
        with _naming(args, "--wellfactor-X needs both sieve levels X^rho and sifting limits"
                     " X^s >= 2 at --delta and --eps, got X={wellfactor_X}, delta={delta},"
                     " eps={eps}"):
            specs = (sieveweights.semi_linear_lower(X, args.delta, args.eps),
                     sieveweights.linear_upper(X, args.delta, args.eps))
    check_budget(4 * ((args.umax - args.umin) / args.ustep + 1), "sieve function grid")
    rows = []
    u = args.umin
    while u <= args.umax + 1e-12:
        for kind in ("sem_f", "sem_F", "lin_f", "lin_F"):
            if sievenumerics.in_domain(kind, u):
                rows.append({"kind": kind, "u": round(u, 12),
                             "value": sievenumerics.sieve_fn(kind, u)})
        u += args.ustep
    results = {"grid_points": len(rows)}
    if args.sandwich_nmax is not None:
        # no d <= nmax has a prime factor above nmax: sifting past it changes no row
        z = min(args.sandwich_z, args.sandwich_nmax)
        tables = PrimeTables(math.ceil(z))
        total_bad = 0
        for degree in (1, 2):
            wm, wp = (sieveweights.build_weights(
                sieveweights.SieveSpec(degree, side, args.sandwich_D, z), tables
            ) for side in ("lower", "upper"))
            bad = sieveweights.sandwich_check(
                wm, wp, tables, z, lambda p: True, args.sandwich_nmax
            )
            total_bad += len(bad)
        results["sandwich_violations"] = total_bad
        if total_bad:
            raise InternalCheckError(f"{total_bad} sandwich violations")
    if X is not None:
        # build_weights reads the primes up to z; well_factor only factors
        tables = PrimeTables(math.ceil(max(spec.z for spec in specs)))
        checked = 0
        for spec in specs:
            w = sieveweights.build_weights(spec, tables)
            with _naming(args, "--wellfactor-X, --delta and --eps: {exc},"
                         " got X={wellfactor_X}, delta={delta}, eps={eps}"):
                for d in w.support:
                    if X**0.1 <= d <= X**spec.rho:
                        # the well-factor range starts at the spec's sifting limit
                        sieveweights.well_factor(d, spec, spec.z, X, tables)
                        checked += 1
        results["wellfactor_checked"] = checked
        results["wellfactor_failures"] = 0
    return results, rows


@command("integrals", DELTA_EPS + (
    ("--sensitivity", dict(action="store_true")),
), scalars=(
    ("delta", "float"), ("eps", "float"), ("rho_sem", "float"), ("rho_lin", "float"),
    ("alpha", "float"), ("I_sem", "float"), ("I_lin", "float"), ("ten_ninth_I_lin", "float"),
    ("difference", "float", "must exceed 0.1"), ("reference_I_sem", "float", "informational"),
    ("reference_ten_ninth_I_lin", "float", "informational"),
), rows=(
    ("eps", "float"), ("I_sem", "float"), ("ten_ninth_I_lin", "float"), ("difference", "float"),
), checks=SIEVE_RANGES)
def run_integrals(args):
    with _naming(args, "--delta and --eps: {exc}, got delta={delta}, eps={eps}"):
        margin = sievenumerics.lower_bound_margin(args.delta, args.eps)
        rows = None
        if args.sensitivity:
            rows = []
            for eps in (1e-4, 1e-6, 1e-8):
                m = sievenumerics.lower_bound_margin(args.delta, eps)
                rows.append({"eps": eps, "I_sem": m["I_sem"],
                             "ten_ninth_I_lin": m["ten_ninth_I_lin"],
                             "difference": m["difference"]})
    margin["reference_I_sem"] = 1.60492
    margin["reference_ten_ninth_I_lin"] = 1.4566
    if margin["difference"] <= 0.1:
        raise InternalCheckError(
            f"positivity margin {margin['difference']} not above 0.1"
        )
    return margin, rows


@command("constants", (
    ("--plimit", dict(type=int, default=10**5), (lambda v: v >= 1000, ">= 1000")),
    ("--b", dict(type=int, default=None), AT_LEAST_2),
    ("--y", dict(type=int, default=None), AT_LEAST_2),
    ("--tweight-X", dict(type=int, default=None), AT_LEAST_2),
    ("--alpha", dict(type=float, default=3.0)),
), scalars=(
    ("C1", "float"), ("C2", "float"), ("C3", "float"), ("frakS", "float", "= C2*C3/2"),
    ("C1_lo", "float"), ("C1_hi", "float"), ("C2_lo", "float"), ("C2_hi", "float"),
    ("C3_lo", "float"), ("C3_hi", "float"), ("frakS_lo", "float"), ("frakS_hi", "float"),
    ("p_limit", "int"), ("b_over_phi", "rational", "with --b"),
    ("mertens_product", "float", "with --y"), ("mertens_predicted", "float", "with --y"),
    ("mertens_ratio", "float", "with --y"), ("tweight_sum", "float", "with --tweight-X"),
    ("tweight_predicted", "float", "with --tweight-X"),
    ("tweight_ratio", "float", "with --tweight-X"),
), checks=((lambda args: args.tweight_X is None or args.b is not None, "--tweight-X needs --b"),))
def run_constants(args):
    tables = PrimeTables(max(args.plimit, args.y or 0))
    consts = sievenumerics.euler_constants(tables, args.plimit)
    results = {
        "C1": consts.C1, "C2": consts.C2, "C3": consts.C3, "frakS": consts.frakS,
        "p_limit": consts.p_limit,
    }
    for name, (lo, hi) in consts.intervals.items():
        results[f"{name}_lo"] = lo
        results[f"{name}_hi"] = hi
    if args.b is not None:
        results["b_over_phi"] = sievenumerics.b_over_phi(args.b)
    if args.y is not None:
        product, predicted = sievenumerics.mertens_3mod4(tables, args.y, consts)
        results.update(mertens_product=product, mertens_predicted=predicted,
                       mertens_ratio=product / predicted)
    if args.tweight_X is not None:
        with _naming(args, "--tweight-X and --alpha: {exc}, got X={tweight_X}, alpha={alpha}"):
            tw_limit = sievenumerics.t_weight_limit(args.tweight_X, args.alpha)
        total, predicted = sievenumerics.t_weight_sum(
            PrimeTables(tw_limit), args.tweight_X, args.alpha, args.b, consts
        )
        results.update(
            tweight_sum=total, tweight_predicted=predicted,
            tweight_ratio=total / predicted if predicted else math.inf,
        )
    return results, None


@command("two-squares", (
    ("--n", dict(type=int, default=None), AT_LEAST_1),
    ("--limit", dict(type=int, default=None), AT_LEAST_2),
    ("--check-brute", dict(action="store_true")),
), scalars=(
    ("n", "int", "with --n"), ("in_B", "bool", "with --n"), ("in_Bcal", "bool", "with --n"),
    ("limit", "int", "with --limit"), ("count_B", "int"), ("count_Bcal", "int"),
    ("brute_mismatches", "int", "with --check-brute"),
), checks=(
    (lambda args: args.n is not None or args.limit is not None, "need --n or --limit"),
    (lambda args: args.n is None or args.limit is None,
     "--n and --limit exclude each other, got n={n}, limit={limit}"),
))
def run_two_squares(args):
    if args.n is not None:
        qc = quadratic_class_of(args.n)
        return {"n": args.n, "in_B": qc.in_B, "in_Bcal": qc.in_Bcal}, None
    limit = args.limit
    in_bcal = PrimeTables(max(2, math.isqrt(limit))).in_bcal_array(limit + 1)
    halves = in_bcal[: limit // 2 + 1]  # B is Bcal on the odd n, and Bcal at m on n = 2m
    count_bcal = int(in_bcal.sum())
    results = {"limit": limit, "count_B": count_bcal + int(halves.sum()), "count_Bcal": count_bcal}
    if args.check_brute:
        marks = _brute_primitive_marks(limit)
        mismatches = int((marks[1::2] != in_bcal[1::2]).sum() + (marks[::2] != halves).sum())
        results["brute_mismatches"] = mismatches
        if mismatches:
            raise InternalCheckError(f"{mismatches} classifier mismatches")
    return results, None


def _brute_primitive_marks(limit: int) -> np.ndarray:
    """marks[s] = True iff s = n1^2 + n2^2 with gcd(n1, n2) = 1, 0 < s <= limit;
    one row of n2 >= n1 per n1."""
    top = math.isqrt(limit)
    check_budget(limit + (top + 1) * (top + 2) // 2, f"two-squares brute force to {limit}")
    marks = np.zeros(limit + 1, dtype=bool)
    for n1 in range(top + 1):
        n2 = np.arange(n1, math.isqrt(limit - n1 * n1) + 1)
        marks[(n1 * n1 + n2 * n2)[np.gcd(n1, n2) == 1]] = True
    return marks


@command("vaughan-check", (
    ("--X", dict(type=int, required=True), AT_LEAST_3),  # 2 <= U < X
    ("--trials", dict(type=int, default=100), AT_LEAST_1),
    ("--U", dict(type=int, default=None), AT_LEAST_2),
    ("--dmax", dict(type=int, default=50), AT_LEAST_1),
), scalars=(
    ("X", "int"), ("U", "int"), ("trials", "int"), ("max_residual", "float", "absolute"),
), checks=((lambda args: args.U is None or args.U < args.X,
            "--U must be below --X, got U={U}, X={X}"),))
def run_vaughan_check(args):
    X = args.X
    # each trial sums over n < X in one class mod d >= 1
    check_budget(args.trials * X, f"{args.trials} Vaughan trials at X={X}")
    tables = PrimeTables(X)
    U = args.U if args.U is not None else max(2, math.ceil(X ** (1 / 3)))
    rng = random.Random(args.seed)
    split = expsums.VaughanSplit(X, U)  # one set of buffers for every trial
    worst = 0.0
    for _ in range(args.trials):
        d = rng.randrange(1, args.dmax + 1)
        c = rng.randrange(d)
        theta = rng.random()
        parts = split(d, c, theta)
        direct = expsums.lambda_hat(tables, X, d, c, theta)
        worst = max(worst, abs(parts.total - direct))
    results = {"X": X, "U": U, "trials": args.trials, "max_residual": worst}
    if worst > 1e-6:
        raise InternalCheckError(f"Vaughan residual {worst} above 1e-6")
    return results, None


@command("mikawa", (
    ("--M", dict(type=int, required=True), AT_LEAST_1),
    ("--N", dict(type=int, required=True), AT_LEAST_1),
    ("--X", dict(type=int, required=True), AT_LEAST_1),
    ("--theta", dict(type=float, required=True)),
    ("--Q", dict(type=int, default=100), AT_LEAST_1, FLOAT_SIZED),
), scalars=(
    ("W", "float"), ("bound", "float", "unit implicit constant"), ("ratio", "float"),
    ("a", "int"), ("q", "int"), ("beta", "float"), ("H", "float"),
))
def run_mikawa(args):
    with _naming(args, "--theta and --Q: {exc}, got theta={theta}, Q={Q}"):
        ta = expsums.dirichlet_approx(args.theta, args.Q, args.X)
    with _naming(args, "--M, --N and --X: {exc}, got M={M}, N={N}, X={X}"):
        res = expsums.mikawa_w(args.M, args.N, args.X, ta)
    return {
        "W": res.value, "bound": res.bound,
        "ratio": res.value / res.bound if res.bound else math.inf,
        "a": ta.a, "q": ta.q, "beta": ta.beta, "H": ta.H,
    }, None


@command("buchstab-app", DIGITS_R + K + (
    ("--alpha", dict(type=float, default=3.0)),
), scalars=(
    ("S", "int"), ("T", "int"), ("total", "int"), ("identity_ok", "bool"),
    ("app_count", "int"), ("predicted_scale", "float"), ("ratio", "float"), ("z", "float"),
), checks=(
    (lambda args: args.b % 2 == 1, "--b must be odd for buchstab-app, got {b}"),
    # p ends in r and p - 1 in r - 1: the split needs both prime to b
    (lambda args: math.gcd(args.r * (args.r - 1), args.b) == 1,
     "--r and --r - 1 must be prime to --b, got r={r}, b={b}"),
))
def run_buchstab_app(args):
    ds, X = _system(args)
    tables = PrimeTables(X)
    with _naming(args, "--alpha: {exc}, got alpha={alpha}"):
        res = circle.buchstab_and_app(tables, ds, X, args.alpha)
    return {**res._asdict(), "identity_ok": res.total == res.S - res.T,
            "ratio": res.app_count / res.predicted_scale}, None


# -- wiring --------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser whose refusals (and its subparsers') end in one error record."""

    def error(self, message):
        raise PreconditionError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every registered subcommand, built on first use and
    shared by every later call in the process."""
    parser = _Parser(
        prog="missingdigit",
        description="Exact desk-scale computations on integers with a missing digit.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--output", default=None, help="write report to a file")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--schema", action="store_true",
                        help="print this subcommand's report schema and exit")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (runner, flags, *_) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common])
        for flag, keywords, *_ in flags:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=runner)
    return parser


def _config_dict(args) -> dict:
    skip = {"func", "schema", "format", "output"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def _check_domains(args) -> None:
    """Refuse a flag value outside its declared domain, then args failing a
    cross-flag check; every float flag must be finite."""
    _, flags, checks, _ = _COMMANDS[args.subcommand]
    for flag, keywords, *domain in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        finite = [(math.isfinite, "finite")] if keywords.get("type") is float else []
        for test, text in finite + domain:
            if value is not None and not test(value):
                raise PreconditionError(f"{flag} must be {text}, got {value}")
    for test, text in checks:
        if not test(args):
            raise PreconditionError(text.format_map(vars(args)))


def main(argv=None) -> int:
    args = argparse.Namespace()  # an argv refused by the parse has the config {}
    try:
        args = build_parser().parse_args(argv)
        if args.schema:
            sys.stdout.write(canonical_json(
                {"subcommand": args.subcommand, **report_schema(args.subcommand)}
            ) + "\n")
            return 0
        _check_domains(args)
        results, rows = args.func(args)
        report = {"subcommand": args.subcommand, "config": _config_dict(args),
                  "results": results}
        if rows is not None:
            report["rows"] = rows
        text = render(report, args.format)
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise PreconditionError(
                    f"--output: cannot write {args.output!r}: {exc.strerror}") from exc
        else:
            sys.stdout.write(text)
    except (PreconditionError, BudgetError, InternalCheckError, MemoryError) as exc:
        code = getattr(exc, "exit_code", BudgetError.exit_code)  # out of memory: too large
        record = {"error": {"code": code, "kind": type(exc).__name__, "message": str(exc)},
                  "config": _config_dict(args)}
        sys.stderr.write(canonical_json(record) + "\n")
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
