"""Batch front-end: one subcommand per acceptance surface, deterministic
CSV/JSON reports.

Exit codes: 0 ok, 2 precondition violated, 3 scan budget exceeded,
4 internal consistency check failed.  Every report embeds its full config
(including the seed); identical configs produce byte-identical output.
`--schema` on any subcommand prints its machine-readable field list.
The scan budget can be overridden with the MISSINGDIGIT_BUDGET env var.
"""

from __future__ import annotations

import argparse
import math
import random
import sys

import numpy as np

from . import circle, digitset, expsums, fourier, sievenumerics, sieveweights
from ._budget import SCAN_BLOCK, check_budget
from .digitset import DigitSystem
from .errors import BudgetError, InternalCheckError, PreconditionError
from .primetables import PrimeTables
from .reporting import canonical_json, render

SCHEMAS: dict[str, dict] = {}


def _field(name, ftype, unit=""):
    return {"name": name, "type": ftype, "unit": unit}


def report_schema(subcommand: str) -> dict:
    """Machine-readable field list for one subcommand's report."""
    if subcommand not in SCHEMAS:
        raise PreconditionError(f"unknown subcommand {subcommand!r}")
    return SCHEMAS[subcommand]


def _digit_system(args, need_residue=False) -> DigitSystem:
    r = getattr(args, "r", None)
    if need_residue and r is None:
        raise PreconditionError("this subcommand needs --r")
    return DigitSystem(args.b, args.a0, r)


def _p3_set(b: int):
    return lambda p: p % 4 == 3 and b % p != 0


# -- subcommand runners: each returns (results dict, rows list or None) -------


def run_count(args):
    ds = _digit_system(args)
    results = {
        "count": digitset.count(ds, args.k),
        "count_positive": digitset.count_positive(ds, args.k),
        "zeta": ds.zeta,
        "kappa": ds.kappa,
    }
    if args.check:
        top = args.b**args.k
        check_budget(top, f"enumerating [0, {args.b}^{args.k})")
        brute = sum(
            int(digitset.contains_array(ds, np.arange(lo, min(lo + SCAN_BLOCK, top))).sum())
            for lo in range(0, top, SCAN_BLOCK)
        )
        results["brute_count"] = brute
        if brute != results["count"]:
            raise InternalCheckError("count formula disagrees with enumeration")
    if args.primes:
        tables = PrimeTables(args.b**args.k)
        cnt, pred = circle.count_missing_digit_primes(tables, ds, args.b**args.k)
        results.update(prime_count=cnt, prime_predicted=pred, prime_ratio=cnt / pred)
    return results, None


SCHEMAS["count"] = {
    "scalars": [
        _field("count", "int"), _field("count_positive", "int"),
        _field("zeta", "float"), _field("kappa", "rational"),
        _field("brute_count", "int", "with --check"),
        _field("prime_count", "int", "with --primes"),
        _field("prime_predicted", "float", "with --primes"),
        _field("prime_ratio", "float", "with --primes"),
    ],
    "rows": [],
}


def run_density(args):
    ds = _digit_system(args)
    zeta, kappa = digitset.density_constants(ds)
    return {"zeta": zeta, "kappa": kappa, "kappa_float": float(kappa)}, None


SCHEMAS["density"] = {
    "scalars": [
        _field("zeta", "float"), _field("kappa", "rational"),
        _field("kappa_float", "float"),
    ],
    "rows": [],
}


def run_fourier_stats(args):
    ds = _digit_system(args, need_residue=True)
    stats = fourier.l1_and_cb(ds, args.k)
    results = {
        "k": stats.k,
        "l1_total": stats.l1_total,
        "c_b_estimate": stats.c_b_estimate,
        "alpha_b_estimate": stats.alpha_b_estimate,
    }
    if args.check_inversion:
        worst = fourier.inversion_max_error(ds, args.k)
        results["inversion_max_error"] = worst
        if worst > 1e-6:
            raise InternalCheckError(f"inversion error {worst} above 1e-6")
    return results, None


SCHEMAS["fourier-stats"] = {
    "scalars": [
        _field("k", "int"), _field("l1_total", "float"),
        _field("c_b_estimate", "float"), _field("alpha_b_estimate", "float"),
        _field("inversion_max_error", "float", "with --check-inversion"),
    ],
    "rows": [],
}


def run_hybrid(args):
    ds = _digit_system(args, need_residue=True)
    res = fourier.hybrid_sum(ds, args.k, args.Q, args.B)
    return dict(res), None


SCHEMAS["hybrid"] = {
    "scalars": [
        _field("value", "float"), _field("points", "int"),
        _field("bound", "float", "unit implicit constant"),
        _field("ratio", "float", "value/bound"),
    ],
    "rows": [],
}


def run_arcs(args):
    ds = _digit_system(args, need_residue=True)
    X = args.b**args.k
    codes = circle.arc_codes(X, args.C)
    census = {
        "minor": int((codes == 0).sum()),
        "major1": int((codes == 1).sum()),
        "major2": int((codes == 2).sum()),
        "major3": int((codes == 3).sum()),
    }
    tables = PrimeTables(X)
    split = circle.arc_split(tables, ds, X, args.d, args.c, args.C)
    results = {
        **census,
        "direct": split.direct,
        "main_term": split.main_term,
        "residual": split.residual,
        "abs_major_minus_main": abs(split.major - split.main_term),
        "abs_minor": abs(split.minor),
    }
    rows = [
        {"kind": kind, "re": val.real, "im": val.imag, "abs": abs(val)}
        for kind, val in (
            ("Major1", split.major1), ("Major2", split.major2),
            ("Major3", split.major3), ("Minor", split.minor),
        )
    ]
    return results, rows


SCHEMAS["arcs"] = {
    "scalars": [
        _field("minor", "int", "frequencies"), _field("major1", "int"),
        _field("major2", "int"), _field("major3", "int"),
        _field("direct", "float"), _field("main_term", "float"),
        _field("residual", "float", "relative"),
        _field("abs_major_minus_main", "float"), _field("abs_minor", "float"),
    ],
    "rows": [
        _field("kind", "str"), _field("re", "float"), _field("im", "float"),
        _field("abs", "float"),
    ],
}


def run_bv_table(args):
    ds = _digit_system(args, need_residue=True)
    X = args.b**args.k
    tables = PrimeTables(X)
    rep = circle.weighted_discrepancy(tables, ds, X, "abs_max_c", D=args.D)
    rows = [
        {"d": row.d, "c_star": row.c, "E": row.E, "abs_E": abs(row.E)}
        for row in rep.rows
    ]
    return {"aggregate": rep.aggregate, "rows_count": len(rows)}, rows


SCHEMAS["bv-table"] = {
    "scalars": [_field("aggregate", "float"), _field("rows_count", "int")],
    "rows": [
        _field("d", "int"), _field("c_star", "int"),
        _field("E", "float"), _field("abs_E", "float"),
    ],
}


def run_weighted_bv(args):
    ds = _digit_system(args, need_residue=True)
    X = args.b**args.k
    tables = PrimeTables(X)
    kind = args.kind
    if kind == "fixed":
        rep = circle.weighted_discrepancy(tables, ds, X, "fixed_c", D=args.D, c=args.c)
    elif kind == "pairs":
        rep = circle.weighted_discrepancy(
            tables, ds, X, "factorable_pair", D1=args.D1, D2=args.D2, c=args.c
        )
    elif kind in ("semi", "wellfac"):
        spec = sieveweights.semi_linear_lower(X, args.delta, args.eps, _p3_set(ds.base))
        w = sieveweights.build_weights(spec, tables)
        if kind == "semi":
            rep = circle.weighted_discrepancy(tables, ds, X, "sieve_semi", weights=w)
        else:
            xi = {d: float(v) for d, v in w.values.items()}
            rep = circle.weighted_discrepancy(
                tables, ds, X, "well_factorable", xi=xi, c=args.c
            )
    elif kind == "lin":
        spec = sieveweights.linear_upper(
            X, args.delta, args.eps, lambda p: (2 * ds.base) % p != 0
        )
        w = sieveweights.build_weights(spec, tables)
        L = args.L if args.L else max(2, int(round(X ** (1 / 3))))
        h = lambda ell: 1.0 / math.log(X / ell)
        rep = circle.weighted_discrepancy(
            tables, ds, X, "sieve_lin", weights=w, L=L, h=h
        )
    else:
        raise PreconditionError(f"unknown kind {kind!r}")
    rows = [
        {"d": row.d, "c": row.c, "E": row.E, "weight": row.weight}
        for row in rep.rows
    ]
    return {"aggregate": rep.aggregate, "kind": rep.weight_kind, "rows_count": len(rows)}, rows


SCHEMAS["weighted-bv"] = {
    "scalars": [
        _field("aggregate", "float"), _field("kind", "str"),
        _field("rows_count", "int"),
    ],
    "rows": [
        _field("d", "int"), _field("c", "int"),
        _field("E", "float"), _field("weight", "float"),
    ],
}


def run_sieve_fns(args):
    rows = []
    u = args.umin
    while u <= args.umax + 1e-12:
        for kind in ("sem_f", "sem_F", "lin_f", "lin_F"):
            lo, hi = sievenumerics._DOMAIN[kind]
            if lo < u <= hi + 1e-12:
                rows.append({"kind": kind, "u": round(u, 12),
                             "value": sievenumerics.sieve_fn(kind, u)})
        u += args.ustep
    results = {"grid_points": len(rows)}
    if args.sandwich_nmax:
        tables = PrimeTables(args.sandwich_nmax)
        total_bad = 0
        for degree in (1, 2):
            wm = sieveweights.build_weights(
                sieveweights.SieveSpec(degree, "lower", args.sandwich_D, args.sandwich_z), tables
            )
            wp = sieveweights.build_weights(
                sieveweights.SieveSpec(degree, "upper", args.sandwich_D, args.sandwich_z), tables
            )
            bad = sieveweights.sandwich_check(
                wm, wp, tables, args.sandwich_z, lambda p: True, args.sandwich_nmax
            )
            total_bad += len(bad)
        results["sandwich_violations"] = total_bad
        if total_bad:
            raise InternalCheckError(f"{total_bad} sandwich violations")
    if args.wellfactor_X:
        X = args.wellfactor_X
        tables = PrimeTables(max(int(X**0.5) + 10, 1000))  # covers d <= X^rho
        checked = 0
        for spec in (
            sieveweights.semi_linear_lower(X, args.delta, args.eps),
            sieveweights.linear_upper(X, args.delta, args.eps),
        ):
            w = sieveweights.build_weights(spec, tables)
            D0 = (
                X ** (1 / 3 - 2 * args.delta - 2 * args.eps**2)
                if spec.degree == 1
                else X**0.2
            )
            for d in w.support:
                if X**0.1 <= d <= X**spec.rho:
                    sieveweights.well_factor(d, spec, D0, X, tables)
                    checked += 1
        results["wellfactor_checked"] = checked
        results["wellfactor_failures"] = 0
    return results, rows


SCHEMAS["sieve-fns"] = {
    "scalars": [
        _field("grid_points", "int"),
        _field("sandwich_violations", "int", "with --sandwich-nmax"),
        _field("wellfactor_checked", "int", "with --wellfactor-X"),
        _field("wellfactor_failures", "int", "with --wellfactor-X"),
    ],
    "rows": [_field("kind", "str"), _field("u", "float"), _field("value", "float")],
}


def run_integrals(args):
    margin = sievenumerics.lower_bound_margin(args.delta, args.eps)
    margin["reference_I_sem"] = 1.60492
    margin["reference_ten_ninth_I_lin"] = 1.4566
    rows = None
    if args.sensitivity:
        rows = []
        for eps in (1e-4, 1e-6, 1e-8):
            m = sievenumerics.lower_bound_margin(args.delta, eps)
            rows.append({"eps": eps, "I_sem": m["I_sem"],
                         "ten_ninth_I_lin": m["ten_ninth_I_lin"],
                         "difference": m["difference"]})
    if margin["difference"] <= 0.1:
        raise InternalCheckError(
            f"positivity margin {margin['difference']} not above 0.1"
        )
    return margin, rows


SCHEMAS["integrals"] = {
    "scalars": [
        _field("delta", "float"), _field("eps", "float"),
        _field("rho_sem", "float"), _field("rho_lin", "float"),
        _field("alpha", "float"), _field("I_sem", "float"),
        _field("I_lin", "float"), _field("ten_ninth_I_lin", "float"),
        _field("difference", "float", "must exceed 0.1"),
        _field("reference_I_sem", "float", "informational"),
        _field("reference_ten_ninth_I_lin", "float", "informational"),
    ],
    "rows": [
        _field("eps", "float"), _field("I_sem", "float"),
        _field("ten_ninth_I_lin", "float"), _field("difference", "float"),
    ],
}


def run_constants(args):
    tables = PrimeTables(max(args.plimit, args.y or 0, 10**4))
    consts = sievenumerics.euler_constants(tables, args.plimit)
    results = {
        "C1": consts.C1, "C2": consts.C2, "C3": consts.C3, "frakS": consts.frakS,
        "p_limit": consts.p_limit,
    }
    for name, (lo, hi) in consts.intervals.items():
        results[f"{name}_lo"] = lo
        results[f"{name}_hi"] = hi
    if args.b:
        results["b_over_phi"] = sievenumerics.b_over_phi(args.b)
    if args.y:
        product, predicted = sievenumerics.mertens_3mod4(tables, args.y, consts)
        results.update(mertens_product=product, mertens_predicted=predicted,
                       mertens_ratio=product / predicted)
    if args.tweight_X:
        if args.b is None:
            raise PreconditionError("--tweight-X needs --b")
        tw_tables = tables if args.tweight_X <= tables.limit else PrimeTables(args.tweight_X)
        total, predicted = sievenumerics.t_weight_sum(
            tw_tables, args.tweight_X, args.alpha, args.b, consts
        )
        results.update(
            tweight_sum=total, tweight_predicted=predicted,
            tweight_ratio=total / predicted if predicted else math.inf,
        )
    return results, None


SCHEMAS["constants"] = {
    "scalars": [
        _field("C1", "float"), _field("C2", "float"), _field("C3", "float"),
        _field("frakS", "float", "= C2*C3/2"),
        _field("C1_lo", "float"), _field("C1_hi", "float"),
        _field("C2_lo", "float"), _field("C2_hi", "float"),
        _field("C3_lo", "float"), _field("C3_hi", "float"),
        _field("frakS_lo", "float"), _field("frakS_hi", "float"),
        _field("p_limit", "int"),
        _field("b_over_phi", "rational", "with --b"),
        _field("mertens_product", "float", "with --y"),
        _field("mertens_predicted", "float", "with --y"),
        _field("mertens_ratio", "float", "with --y"),
        _field("tweight_sum", "float", "with --tweight-X"),
        _field("tweight_predicted", "float", "with --tweight-X"),
        _field("tweight_ratio", "float", "with --tweight-X"),
    ],
    "rows": [],
}


def run_two_squares(args):
    if args.n is None and args.limit is None:
        raise PreconditionError("need --n or --limit")
    if args.n is not None:
        tables = PrimeTables(max(args.n, 4))
        qc = tables.quadratic_class(args.n)
        return {"n": args.n, "in_B": qc.in_B, "in_Bcal": qc.in_Bcal}, None
    tables = PrimeTables(args.limit)
    qc = tables.quadratic_class_array(np.arange(1, args.limit + 1))
    results = {"limit": args.limit, "count_B": int(qc.in_B.sum()),
               "count_Bcal": int(qc.in_Bcal.sum())}
    if args.check_brute:
        brute = _brute_primitive_marks(args.limit)[1:]
        mismatches = int((qc.in_B != brute).sum())
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


SCHEMAS["two-squares"] = {
    "scalars": [
        _field("n", "int", "with --n"), _field("in_B", "bool", "with --n"),
        _field("in_Bcal", "bool", "with --n"),
        _field("limit", "int", "with --limit"),
        _field("count_B", "int"), _field("count_Bcal", "int"),
        _field("brute_mismatches", "int", "with --check-brute"),
    ],
    "rows": [],
}


def run_vaughan_check(args):
    X = args.X
    U = args.U if args.U else max(2, math.ceil(X ** (1 / 3)))
    tables = PrimeTables(X)
    rng = random.Random(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        d = rng.randrange(1, args.dmax + 1)
        c = rng.randrange(d)
        theta = rng.random()
        parts = expsums.vaughan_decompose(tables, X, U, d, c, theta)
        direct = expsums.lambda_hat(tables, X, d, c, theta)
        worst = max(worst, abs(parts.total - direct))
    results = {"X": X, "U": U, "trials": args.trials, "max_residual": worst}
    if worst > 1e-6:
        raise InternalCheckError(f"Vaughan residual {worst} above 1e-6")
    return results, None


SCHEMAS["vaughan-check"] = {
    "scalars": [
        _field("X", "int"), _field("U", "int"), _field("trials", "int"),
        _field("max_residual", "float", "absolute"),
    ],
    "rows": [],
}


def run_mikawa(args):
    tables = PrimeTables(max(2 * args.N, 100))
    ta = expsums.dirichlet_approx(args.theta, args.Q, args.X)
    res = expsums.mikawa_w(tables, args.M, args.N, args.X, ta)
    return {
        "W": res.value, "bound": res.bound,
        "ratio": res.value / res.bound if res.bound else math.inf,
        "a": ta.a, "q": ta.q, "beta": ta.beta, "H": ta.H,
    }, None


SCHEMAS["mikawa"] = {
    "scalars": [
        _field("W", "float"), _field("bound", "float", "unit implicit constant"),
        _field("ratio", "float"), _field("a", "int"), _field("q", "int"),
        _field("beta", "float"), _field("H", "float"),
    ],
    "rows": [],
}


def run_buchstab_app(args):
    ds = _digit_system(args, need_residue=True)
    X = args.b**args.k
    tables = PrimeTables(X)
    res = circle.buchstab_and_app(tables, ds, X, args.alpha)
    return {
        "S": res.S, "T": res.T, "total": res.total,
        "identity_ok": res.total == res.S - res.T,
        "app_count": res.app_count,
        "predicted_scale": res.predicted_scale,
        "ratio": res.app_count / res.predicted_scale,
        "z": res.z,
    }, None


SCHEMAS["buchstab-app"] = {
    "scalars": [
        _field("S", "int"), _field("T", "int"), _field("total", "int"),
        _field("identity_ok", "bool"), _field("app_count", "int"),
        _field("predicted_scale", "float"), _field("ratio", "float"),
        _field("z", "float"),
    ],
    "rows": [],
}


# -- wiring --------------------------------------------------------------------


def _add_ds_flags(p, residue_required=False):
    p.add_argument("--b", type=int, required=True, help="base")
    p.add_argument("--a0", type=int, required=True, help="excluded digit")
    p.add_argument("--r", type=int, required=residue_required, default=None,
                   help="last-digit residue")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    def add(name, runner, configure):
        p = sub.add_parser(name, parents=[common])
        configure(p)
        p.set_defaults(func=runner)
        return p

    def c_count(p):
        _add_ds_flags(p)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--check", action="store_true", help="compare with enumeration")
        p.add_argument("--primes", action="store_true",
                       help="also count primes in the set below b^k")

    def c_density(p):
        _add_ds_flags(p)

    def c_fourier(p):
        _add_ds_flags(p, residue_required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--check-inversion", action="store_true")

    def c_hybrid(p):
        _add_ds_flags(p, residue_required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--Q", type=int, required=True)
        p.add_argument("--B", type=int, required=True)

    def c_arcs(p):
        _add_ds_flags(p, residue_required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--C", type=float, default=2.0)
        p.add_argument("--d", type=int, default=1)
        p.add_argument("--c", type=int, default=0)

    def c_bv(p):
        _add_ds_flags(p, residue_required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--D", type=int, required=True)

    def c_weighted(p):
        _add_ds_flags(p, residue_required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--kind", choices=("fixed", "pairs", "wellfac", "semi", "lin"),
                       required=True)
        p.add_argument("--D", type=int, default=10)
        p.add_argument("--c", type=int, default=1)
        p.add_argument("--D1", type=int, default=5)
        p.add_argument("--D2", type=int, default=3)
        p.add_argument("--L", type=int, default=None)
        p.add_argument("--delta", type=float, default=1e-3)
        p.add_argument("--eps", type=float, default=1e-6)

    def c_sievefns(p):
        p.add_argument("--umin", type=float, default=1.1)
        p.add_argument("--umax", type=float, default=3.0)
        p.add_argument("--ustep", type=float, default=0.1)
        p.add_argument("--sandwich-z", type=float, default=30.0)
        p.add_argument("--sandwich-D", type=float, default=1000.0)
        p.add_argument("--sandwich-nmax", type=int, default=None)
        p.add_argument("--wellfactor-X", type=int, default=None)
        p.add_argument("--delta", type=float, default=1e-3)
        p.add_argument("--eps", type=float, default=1e-6)

    def c_integrals(p):
        p.add_argument("--delta", type=float, default=1e-3)
        p.add_argument("--eps", type=float, default=1e-6)
        p.add_argument("--sensitivity", action="store_true")

    def c_constants(p):
        p.add_argument("--plimit", type=int, default=10**5)
        p.add_argument("--b", type=int, default=None)
        p.add_argument("--y", type=int, default=None)
        p.add_argument("--tweight-X", type=int, default=None)
        p.add_argument("--alpha", type=float, default=3.0)

    def c_twosq(p):
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--limit", type=int, default=None)
        p.add_argument("--check-brute", action="store_true")

    def c_vaughan(p):
        p.add_argument("--X", type=int, required=True)
        p.add_argument("--trials", type=int, default=100)
        p.add_argument("--U", type=int, default=None)
        p.add_argument("--dmax", type=int, default=50)

    def c_mikawa(p):
        p.add_argument("--M", type=int, required=True)
        p.add_argument("--N", type=int, required=True)
        p.add_argument("--X", type=int, required=True)
        p.add_argument("--theta", type=float, required=True)
        p.add_argument("--Q", type=int, default=100)

    def c_buchstab(p):
        _add_ds_flags(p, residue_required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--alpha", type=float, default=3.0)

    add("count", run_count, c_count)
    add("density", run_density, c_density)
    add("fourier-stats", run_fourier_stats, c_fourier)
    add("hybrid", run_hybrid, c_hybrid)
    add("arcs", run_arcs, c_arcs)
    add("bv-table", run_bv_table, c_bv)
    add("weighted-bv", run_weighted_bv, c_weighted)
    add("sieve-fns", run_sieve_fns, c_sievefns)
    add("integrals", run_integrals, c_integrals)
    add("constants", run_constants, c_constants)
    add("two-squares", run_two_squares, c_twosq)
    add("vaughan-check", run_vaughan_check, c_vaughan)
    add("mikawa", run_mikawa, c_mikawa)
    add("buchstab-app", run_buchstab_app, c_buchstab)
    return parser


def _config_dict(args) -> dict:
    skip = {"func", "schema", "format", "output"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.schema:
        sys.stdout.write(canonical_json(
            {"subcommand": args.subcommand, **report_schema(args.subcommand)}
        ) + "\n")
        return 0
    try:
        results, rows = args.func(args)
    except (PreconditionError, BudgetError, InternalCheckError) as exc:
        record = {"error": {"code": exc.exit_code, "kind": type(exc).__name__,
                            "message": str(exc)},
                  "config": _config_dict(args)}
        sys.stderr.write(canonical_json(record) + "\n")
        return exc.exit_code
    report = {"subcommand": args.subcommand, "config": _config_dict(args),
              "results": results}
    if rows is not None:
        report["rows"] = rows
    text = render(report, args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
