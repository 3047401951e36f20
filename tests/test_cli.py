import csv
import io
import json
import math
import pathlib
import re
import signal
import weakref
from contextlib import redirect_stdout

import numpy as np
import pytest

from missingdigit import (_budget, circle, cli, digitset, expsums, fourier, primetables,
                          sievenumerics, sieveweights)
from missingdigit.cli import SCHEMAS, build_parser, main, report_schema
from missingdigit.digitset import member_mask
from missingdigit.errors import BudgetError, PreconditionError
from missingdigit.primetables import PrimeTables
from missingdigit.reporting import canonical_json, render
from test_golden import CONFIGS as GOLDEN_CONFIGS

README = pathlib.Path(__file__).parents[1] / "README.md"
BIG = str(10**400)  # past the float range


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_example(capsys):
    code, out, _ = run_cli(capsys, "count", "--b", "10", "--a0", "7", "--r", "3", "--k", "3")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["count"] == 81
    assert report["config"]["seed"] == 0


def test_determinism_bytes(capsys):
    args = ("bv-table", "--b", "10", "--a0", "7", "--r", "3", "--k", "4", "--D", "8")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    _, as_csv, _ = run_cli(capsys, *args, "--format", "csv")
    _, as_csv2, _ = run_cli(capsys, *args, "--format", "csv")
    assert as_csv == as_csv2


def test_json_round_trip_matches_schema(capsys):
    _, out, _ = run_cli(
        capsys, "bv-table", "--b", "10", "--a0", "7", "--r", "3", "--k", "4", "--D", "8"
    )
    report = json.loads(out)
    schema = report_schema("bv-table")
    row_fields = [f["name"] for f in schema["rows"]]
    assert row_fields == ["d", "c_star", "E", "abs_E"]
    for row in report["rows"]:
        assert set(row) == set(row_fields)  # canonical JSON sorts keys
    scalar_fields = {f["name"] for f in schema["scalars"]}
    assert set(report["results"]) <= scalar_fields


def test_csv_round_trip(capsys):
    _, out, _ = run_cli(
        capsys,
        "bv-table", "--b", "10", "--a0", "7", "--r", "3", "--k", "4", "--D", "8",
        "--format", "csv",
    )
    lines = out.splitlines()
    assert lines[0].startswith("# ")
    json.loads(lines[0][2:])  # config header parses
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
    assert rows and set(rows[0]) == {"d", "c_star", "E", "abs_E"}
    for row in rows:
        int(row["d"])
        float(row["E"])


def test_fourier_stats_schema():
    fields = [f["name"] for f in report_schema("fourier-stats")["scalars"]]
    assert fields[:4] == ["k", "l1_total", "c_b_estimate", "alpha_b_estimate"]


def test_unknown_schema():
    with pytest.raises(PreconditionError):
        report_schema("nope")
    assert set(SCHEMAS) == {
        "count", "density", "fourier-stats", "hybrid", "arcs", "bv-table",
        "weighted-bv", "sieve-fns", "integrals", "constants", "two-squares",
        "vaughan-check", "mikawa", "buchstab-app",
    }


def _readme_invocations():
    return [line.split("#")[0].split()[1:] for line in README.read_text().splitlines()
            if line.startswith("missingdigit ")]


def _json_argvs():
    """Every README invocation and golden config, as JSON reports, once each."""
    argvs = _readme_invocations() + [line.split() for line in GOLDEN_CONFIGS]
    seen = {}
    for argv in argvs:
        if argv[-2:] == ["--format", "csv"]:
            argv = argv[:-2]
        seen.setdefault(" ".join(argv), argv)
    return list(seen.values())


_JSON_TYPES = {
    "int": lambda v: type(v) is int,
    # a float prints with 12 significant digits, so one >= 1e11 may read back as a JSON int
    "float": lambda v: type(v) in (int, float) or v in ("nan", "inf", "-inf"),
    "rational": lambda v: isinstance(v, str) and re.fullmatch(r"-?\d+/\d+", v) is not None,
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
}


def test_every_report_matches_its_schema():
    argvs = _json_argvs()
    assert len(_readme_invocations()) == len(SCHEMAS)
    assert {argv[0] for argv in argvs} == set(SCHEMAS)
    for argv in argvs:
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(argv) == 0, argv
        report = json.loads(buf.getvalue())
        schema = report_schema(argv[0])
        types = {f["name"]: f["type"] for f in schema["scalars"]}
        for key, value in report["results"].items():
            assert key in types, (argv, key)
            assert _JSON_TYPES[types[key]](value), (argv, key, value)
        row_fields = {f["name"] for f in schema["rows"]}
        for row in report.get("rows", []):
            assert set(row) == row_fields, argv


def test_consecutive_calls_share_no_state(capsys):
    assert build_parser() is build_parser()
    argv = ("count", "--b", "10", "--a0", "7", "--k", "3")
    _, out, _ = run_cli(capsys, *argv, "--check")
    assert "brute_count" in json.loads(out)["results"]
    _, out, _ = run_cli(capsys, *argv)
    report = json.loads(out)
    assert "brute_count" not in report["results"] and report["config"]["check"] is False
    _, as_csv, _ = run_cli(capsys, *argv, "--format", "csv")
    assert as_csv.startswith("# ")
    _, again, _ = run_cli(capsys, *argv)
    assert again == out


def test_schema_flag(capsys):
    code, out, _ = run_cli(capsys, "integrals", "--schema")
    assert code == 0
    schema = json.loads(out)
    assert schema["subcommand"] == "integrals"


def test_precondition_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "bv-table", "--b", "10", "--a0", "7", "--r", "5", "--k", "4", "--D", "8"
    )
    assert code == 2
    record = json.loads(err)
    assert record["error"]["code"] == 2


def test_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("MISSINGDIGIT_BUDGET", "10")
    code, _, err = run_cli(
        capsys, "fourier-stats", "--b", "10", "--a0", "6", "--r", "9", "--k", "5"
    )
    assert code == 3
    assert json.loads(err)["error"]["code"] == 3


def test_integrals_fields(capsys):
    code, out, _ = run_cli(capsys, "integrals", "--delta", "1e-3", "--eps", "1e-6")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["difference"] > 0.1
    assert results["reference_I_sem"] == 1.60492


def test_vaughan_check(capsys):
    code, out, _ = run_cli(
        capsys, "vaughan-check", "--X", "2000", "--trials", "10", "--seed", "1"
    )
    assert code == 0
    assert json.loads(out)["results"]["max_residual"] <= 1e-6


def test_a_modulus_past_int64_selects_its_residue(capsys):
    # every d drawn is above each n < X, so its class holds c mod d alone
    code, out, _ = run_cli(capsys, "vaughan-check", "--X", "8", "--trials", "3",
                           "--dmax", str(10**30))
    assert code == 0
    assert json.loads(out)["results"]["max_residual"] <= 1e-6


@pytest.mark.parametrize("line, code", [
    ("mikawa --M 8 --N 8 --X 5000 --theta 0.333333 --Q 100", 0),
    ("mikawa --M 2 --N 50000000 --X 1000 --theta 0.3", 3),  # the Weyl-sum claim
])
def test_mikawa_builds_no_prime_table(capsys, line, code):
    held = primetables._held
    assert run_cli(capsys, *line.split())[0] == code
    assert primetables._held is held


def test_mikawa_claims_its_tau_3_trial_divisions(capsys, monkeypatch):
    # 4 steps for each of the M N = 2000 pairs, and isqrt(2N) = 63 for each tau_3(n)
    argv = ("mikawa", "--M", "1", "--N", "2000", "--X", "1000", "--theta", "0.3")
    monkeypatch.setenv("MISSINGDIGIT_BUDGET", "10000")
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["message"] == (
        "weyl double sum M=1 N=2000 needs ~1.34e+05 steps, budget is 10000")
    monkeypatch.setenv("MISSINGDIGIT_BUDGET", str(4 * 2000 + 2000 * 63))
    assert run_cli(capsys, *argv)[0] == 0


def test_runners_size_their_tables_by_what_they_read(capsys, monkeypatch):
    made = []

    def new_tables(limit):
        made.append(limit)
        return PrimeTables(limit)

    monkeypatch.setattr(cli, "PrimeTables", new_tables)
    lines = {
        # the primes up to the larger z feed build_weights; well_factor factors
        "sieve-fns --wellfactor-X 1000000": [math.ceil(sieveweights.semi_linear_lower(10**6).z)],
        # no d <= nmax has a prime factor above nmax: the primes up to min(z, nmax)
        "sieve-fns --sandwich-nmax 1000": [30],
        "sieve-fns --sandwich-nmax 20 --sandwich-z 30": [20],
        "constants --plimit 1000 --b 10 --y 5000": [5000],
        "constants --plimit 1000 --b 10 --tweight-X 100000000": [1000, 10**4 + 1],
    }
    for line, limits in lines.items():
        made.clear()
        assert run_cli(capsys, *line.split())[0] == 0
        assert made == limits, line


def test_vaughan_check_claims_its_trials_before_its_table(capsys, monkeypatch):
    made = []
    monkeypatch.setattr(cli, "PrimeTables", made.append)
    monkeypatch.delenv("MISSINGDIGIT_BUDGET", raising=False)
    code, out, err = run_cli(capsys, "vaughan-check", "--X", "10000000", "--trials", "100")
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["message"] == (
        "100 Vaughan trials at X=10000000 needs ~1e+09 steps, budget is 200000000")
    assert made == []


@pytest.mark.parametrize("argv, message", [
    ("--k 8", "arc classification at X=100000000 needs ~3.39e+10 steps"),
    ("--k 7 --C 0.5", "arc split FFT at X=10000000 needs ~2.33e+08 steps"),
])
def test_arcs_claims_its_scans_before_its_table(capsys, monkeypatch, argv, message):
    made = []
    monkeypatch.setattr(cli, "PrimeTables", made.append)
    monkeypatch.delenv("MISSINGDIGIT_BUDGET", raising=False)
    code, out, err = run_cli(capsys, *f"arcs --b 10 --a0 7 --r 3 {argv}".split())
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["message"] == f"{message}, budget is 200000000"
    assert made == []


def test_output_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "density", "--b", "10", "--a0", "7", "--output", str(path)
    )
    assert code == 0 and out == ""
    report = json.loads(path.read_text())
    assert report["results"]["kappa"] == "5/6"


@pytest.mark.parametrize("steps, shown", [
    (123456, "1.23e+05"), (2.5e7, "2.5e+07"), (2**63, "9.22e+18"), (10**400, "1e+400"),
    (2 * 10**401 // 3, "6.67e+400"), (2**1100, "1.36e+331"),
])
def test_a_claim_shows_its_steps_to_three_digits(monkeypatch, steps, shown):
    # an int past the float range is shown without converting it to a float
    monkeypatch.setenv("MISSINGDIGIT_BUDGET", "1000")
    with pytest.raises(BudgetError, match=re.escape(f"work needs ~{shown} steps, budget is 1000")):
        _budget.check_budget(steps, "work")


@pytest.mark.parametrize("raw,code", [("inf", 0), ("nan", 3), ("ten", 3)])
def test_budget_env_parsing(capsys, monkeypatch, raw, code):
    monkeypatch.setenv("MISSINGDIGIT_BUDGET", raw)
    got, out, err = run_cli(capsys, "hybrid", "--b", "10", "--a0", "7", "--r", "3", "--k", "2",
                            "--Q", "2", "--B", "3")
    assert got == code
    if code:
        record = json.loads(err)
        assert record["error"] == {"code": 3, "kind": "BudgetError",
                                   "message": f"MISSINGDIGIT_BUDGET is not a number: {raw!r}"}
    else:
        assert json.loads(out)["results"]["points"] > 0


def test_arcs_past_the_old_size_cap(capsys):
    code, out, _ = run_cli(capsys, "arcs", "--b", "10", "--a0", "7", "--r", "3", "--k", "6",
                           "--C", "2", "--d", "7", "--c", "3")
    assert code == 0
    results = json.loads(out)["results"]
    assert sum(results[kind] for kind in ("minor", "major1", "major2", "major3")) == 10**6
    assert results["residual"] <= 1e-5


def test_check_inversion(capsys):
    code, out, _ = run_cli(capsys, "fourier-stats", "--b", "10", "--a0", "7", "--r", "3",
                           "--k", "4", "--check-inversion")
    assert code == 0
    assert json.loads(out)["results"]["inversion_max_error"] <= 1e-9


def test_prime_tables_claim_the_budget(capsys, monkeypatch):
    monkeypatch.setenv("MISSINGDIGIT_BUDGET", "1000")
    code, out, err = run_cli(capsys, "two-squares", "--limit", "100000")
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["kind"] == "BudgetError"


def test_count_check_claims_the_budget(capsys, monkeypatch):
    monkeypatch.setenv("MISSINGDIGIT_BUDGET", "10")
    code, out, err = run_cli(capsys, "count", "--b", "10", "--a0", "7", "--r", "3", "--k", "2",
                             "--check")
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["kind"] == "BudgetError"
    monkeypatch.setenv("MISSINGDIGIT_BUDGET", "100")
    code, out, _ = run_cli(capsys, "count", "--b", "10", "--a0", "7", "--r", "3", "--k", "2",
                           "--check")
    assert code == 0 and json.loads(out)["results"]["brute_count"] == 9


def test_two_squares_brute_force_claims_the_budget(capsys, monkeypatch):
    # the prime tables (10^4 steps) fit, the brute force's ~1.5 * 10^4 do not
    monkeypatch.setenv("MISSINGDIGIT_BUDGET", "10001")
    code, out, err = run_cli(capsys, "two-squares", "--limit", "10000", "--check-brute")
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["kind"] == "BudgetError"
    code, out, _ = run_cli(capsys, "two-squares", "--limit", "10000")
    assert code == 0 and json.loads(out)["results"]["limit"] == 10000


def _full_table_two_squares_stdout(argv):
    """two-squares --limit by a second route: a prime table to the limit, and
    B as a copy of the Bcal array with Bcal at m written to 2m."""
    args = build_parser().parse_args(argv)
    limit = args.limit
    in_bcal = PrimeTables(limit).in_bcal_array(limit + 1)
    in_b = in_bcal.copy()
    in_b[2::2] = in_bcal[1 : (limit + 2) // 2]
    results = {"limit": limit, "count_B": int(in_b.sum()), "count_Bcal": int(in_bcal.sum())}
    if args.check_brute:
        results["brute_mismatches"] = int((in_b != cli._brute_primitive_marks(limit)).sum())
    return render({"subcommand": "two-squares", "config": cli._config_dict(args),
                   "results": results}, "json")


@pytest.mark.parametrize("limit", [2, 3, 4, 5, 100, 300300])
@pytest.mark.parametrize("brute", [False, True])
def test_two_squares_limit_matches_the_full_table_route(capsys, limit, brute):
    argv = ["two-squares", "--limit", str(limit)] + ["--check-brute"] * brute
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == _full_table_two_squares_stdout(argv)


def test_two_squares_n_needs_no_table(capsys, monkeypatch):
    # 10^9 + 7 is a prime = 3 (mod 4): trial division, no table to n
    code, out, _ = run_cli(capsys, "two-squares", "--n", "1000000007")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["in_B"] is False and results["in_Bcal"] is False
    monkeypatch.setenv("MISSINGDIGIT_BUDGET", "31622")  # isqrt(10^9 + 7) = 31622
    assert run_cli(capsys, "two-squares", "--n", "1000000007")[0] == 0
    monkeypatch.setenv("MISSINGDIGIT_BUDGET", "31621")
    code, out, err = run_cli(capsys, "two-squares", "--n", "1000000007")
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["kind"] == "BudgetError"


SYSTEM = ("--b", "10", "--a0", "7", "--r", "3")


def test_weighted_rows_claim_the_budget(capsys, monkeypatch):
    # the prime tables (10^3 steps) fit, the rows over the members do not
    monkeypatch.setenv("MISSINGDIGIT_BUDGET", "2000")
    for argv in (("bv-table", *SYSTEM, "--k", "3", "--D", "2000"),
                 ("weighted-bv", *SYSTEM, "--k", "3", "--kind", "lin", "--L", "300000")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["kind"] == "BudgetError"
    code, out, _ = run_cli(capsys, "bv-table", *SYSTEM, "--k", "3", "--D", "10")
    assert code == 0 and json.loads(out)["results"]["rows_count"] == 4


@pytest.mark.parametrize("argv,message", [
    (("bv-table", *SYSTEM, "--k", "3", "--D", "20000000"), "abs_max_c: listing 20000000 moduli"),
    (("weighted-bv", *SYSTEM, "--k", "3", "--kind", "pairs", "--D1", "3000", "--D2", "3000",
      "--c", "1"), "factorable_pair: listing 3000 x 3000 moduli"),
])
def test_listing_the_moduli_claims_the_budget(capsys, monkeypatch, argv, message):
    # the moduli are claimed before they are listed, not only the rows after
    monkeypatch.setenv("MISSINGDIGIT_BUDGET", "2000")
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    record = json.loads(err)["error"]
    assert record["kind"] == "BudgetError"
    assert record["message"].startswith(message + " needs ~")


@pytest.mark.parametrize("argv,route,corrupt", [
    # bincount rows are rechecked to 1e-9 relative, masked sums to the last bit
    (("bv-table", "--D", "12"), "lam_mod", lambda sums: sums * (1 + 1e-6)),
    (("weighted-bv", "--kind", "fixed", "--D", "12"), "lam", lambda s: math.nextafter(s, math.inf)),
    (("weighted-bv", "--kind", "pairs"), "lam", lambda s: math.nextafter(s, math.inf)),
    (("weighted-bv", "--kind", "wellfac"), "lam", lambda s: math.nextafter(s, math.inf)),
    (("weighted-bv", "--kind", "semi"), "lam", lambda s: math.nextafter(s, math.inf)),
])
def test_a_corrupted_row_exits_4(capsys, monkeypatch, argv, route, corrupt):
    argv = (argv[0], *SYSTEM, "--k", "4", *argv[1:])
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    d_max = max(row["d"] for row in json.loads(out)["rows"])  # the row rechecked
    real = getattr(circle.ProgressionCounts, route)

    def corrupted(self, d, *c):
        value = real(self, d, *c)
        return corrupt(value) if d == d_max else value

    monkeypatch.setattr(circle.ProgressionCounts, route, corrupted)
    code, out, err = run_cli(capsys, *argv)
    assert code == 4 and out == ""
    assert json.loads(err)["error"]["kind"] == "InternalCheckError"


@pytest.mark.parametrize("argv", [
    ("bv-table", "--D", "12"),
    ("weighted-bv", "--kind", "fixed", "--D", "12"),
    ("weighted-bv", "--kind", "semi"),
    ("weighted-bv", "--kind", "lin"),
])
def test_a_wrong_membership_mask_exits_4(capsys, monkeypatch, argv):
    # every value a member: the recheck, which tests membership digit by
    # digit, disagrees with the rows read from the mask
    monkeypatch.setattr(circle, "member_mask", lambda ds, k: np.ones(ds.base**k, dtype=bool))
    code, out, err = run_cli(capsys, argv[0], *SYSTEM, "--k", "4", *argv[1:])
    assert code == 4 and out == ""
    assert json.loads(err)["error"]["kind"] == "InternalCheckError"


def _dropping_m1_in_the_second_sift(real):
    calls = []

    def sift(free, primes):
        real(free, primes)
        calls.append(primes)
        if len(calls) == 2:
            free[1] = False

    return sift


@pytest.mark.parametrize("argv,target,name,wrong", [
    # each replacement wrong(real) spoils one side of a two-route comparison
    (("count", *SYSTEM, "--k", "3", "--check"), digitset, "contains_array",
     lambda real: lambda ds, n: np.zeros(n.shape, dtype=bool)),
    (("fourier-stats", *SYSTEM, "--k", "3", "--check-inversion"), fourier,
     "inversion_max_error", lambda real: lambda ds, k: 1.0),
    (("two-squares", "--limit", "1000", "--check-brute"), cli, "_brute_primitive_marks",
     lambda real: lambda limit: ~real(limit)),
    (("vaughan-check", "--X", "2000", "--trials", "2"), expsums, "lambda_hat",
     lambda real: lambda *args: real(*args) + 1),
    (("arcs", *SYSTEM, "--k", "3", "--d", "7", "--c", "2"), circle.ProgressionCounts, "lam",
     lambda real: lambda *args: real(*args) + 1),
    # no prefix of an empty prime chain qualifies as d1
    (("sieve-fns", "--umax", "1.2", "--wellfactor-X", "100000"), sieveweights, "_chain_of",
     lambda real: lambda tables, d, z: []),
    # the convergent 0/1 is not within 1/Q of theta
    (("mikawa", "--M", "8", "--N", "8", "--X", "5000", "--theta", "0.333333", "--Q", "100"),
     expsums, "_convergents", lambda real: lambda theta, max_q: [(0, 1)]),
    # a row (n, lower, indicator, upper) with the lower sieve above the indicator
    (("sieve-fns", "--umax", "1.2", "--sandwich-nmax", "1000"), sieveweights, "sandwich_check",
     lambda real: lambda *args: real(*args) + [(1, 2, 1, 1)]),
    # the two sides of b/phi(b) = sum over squarefree q | b of 1/phi(q)
    (("constants", "--plimit", "1000", "--b", "10"), sievenumerics, "totient",
     lambda real: lambda n: real(n) + 1),
    # S = T + total: the second sift also drops m = 1 (p = 3), which T still counts in S
    (("buchstab-app", "--b", "7", "--a0", "4", "--r", "3", "--k", "6"), circle, "_sift_1mod4",
     lambda real: _dropping_m1_in_the_second_sift(real)),
])
def test_two_routes_disagreeing_exits_4(capsys, monkeypatch, argv, target, name, wrong):
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(target, name, wrong(getattr(target, name)))
    code, out, err = run_cli(capsys, *argv)
    assert code == 4 and out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    record = json.loads(err)
    assert canonical_json(record) + "\n" == err
    assert record["error"]["code"] == 4
    assert record["error"]["kind"] == "InternalCheckError"


def test_a_lin_report_builds_one_mask_and_keeps_none(capsys, monkeypatch):
    # the counts object and the lin rows read one mask, freed with the report
    built = []

    def counted(ds, k):
        mask = member_mask(ds, k)
        built.append(weakref.ref(mask))
        return mask

    monkeypatch.setattr(circle, "member_mask", counted)
    code, _, _ = run_cli(capsys, "weighted-bv", *SYSTEM, "--k", "4", "--kind", "lin")
    assert code == 0 and len(built) == 1
    assert built[0]() is None


# README lines do not pass these valued flags; the sweep below adds them
SWEEP_EXTRA = (
    "vaughan-check --X 10000 --trials 3 --U 30 --dmax 10 --seed 1",
    "weighted-bv --b 10 --a0 7 --r 3 --k 4 --kind lin --L 20",
    "sieve-fns --umin 1.5 --umax 2.0 --ustep 0.1",
    "constants --plimit 20000 --b 10 --tweight-X 300000",
    "weighted-bv --b 10 --a0 7 --r 3 --k 4 --kind semi --delta 0.001 --eps 0.000001",
    "sieve-fns --sandwich-z 30 --sandwich-D 1000 --sandwich-nmax 1000 --wellfactor-X 100000"
    " --delta 0.001 --eps 0.000001",
)
SWEEP_VALUES = ("0", "-1", "1", "2", "1000000000000", "9223372036854775808", "1e308",
                "nan", "inf", "-inf", "0.5", "-0.5")


def _flag_sweep():
    """Every README invocation and SWEEP_EXTRA line with one valued flag set to
    one of SWEEP_VALUES."""
    for argv in _readme_invocations() + [line.split() for line in SWEEP_EXTRA]:
        for i in range(len(argv) - 1):
            if argv[i].startswith("--") and not argv[i + 1].startswith("--"):
                for value in SWEEP_VALUES:
                    yield argv[: i + 1] + [value] + argv[i + 2:]


def _raise_timeout(signum, frame):
    raise TimeoutError


def _swept_exit(capsys, argv):
    """(exit code, stdout, stderr) of one argv, under a SIGALRM handler that
    raises TimeoutError; the code is a description when the run raises
    (SystemExit included) or takes more than 5 s."""
    signal.alarm(5)
    try:
        code = main(argv)
    except TimeoutError:
        code = "no exit within 5 s"
    except (Exception, SystemExit) as exc:
        code = repr(exc)
    finally:
        signal.alarm(0)
    out = capsys.readouterr()
    return code, out.out, out.err


def _names_a_flag(err: str) -> bool:
    return "--" in json.loads(err)["error"]["message"]


def test_no_flag_value_ends_in_a_traceback(capsys, monkeypatch):
    """Each argv exits 0, 2, 3 or 4 within 5 s, and an exit-2 message names a flag."""
    monkeypatch.setenv("MISSINGDIGIT_BUDGET", "1000000")
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    failures = []
    try:
        for argv in _flag_sweep():
            code, _, err = _swept_exit(capsys, argv)
            if code not in (0, 2, 3, 4) or code == 2 and not _names_a_flag(err):
                failures.append((" ".join(argv), code, err[-300:]))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not failures


# values past every range a flag's type or the float range holds
EXTREMES = (BIG, f"-{BIG}", str(2**63), "1e308", "-1e308", "inf", "-inf", "nan",
            "0", "-1", "1e-320")


def _extreme_sweep(line):
    """The golden line with each numeric flag of its subcommand, whether the
    line sets it or not, set to each of EXTREMES."""
    argv = line.split()
    for flag, keywords, *_ in cli._COMMANDS[argv[0]][1]:
        if keywords.get("type") in (int, float):
            for value in EXTREMES:
                if flag in argv:
                    at = argv.index(flag) + 1
                    yield argv[:at] + [value] + argv[at + 1:]
                else:
                    yield argv + [flag, value]


def _one_record(err: str, code: int) -> bool:
    try:
        return err.count("\n") == 1 and json.loads(err)["error"]["code"] == code
    except ValueError:
        return False


@pytest.mark.parametrize("line", GOLDEN_CONFIGS)
def test_extreme_values_end_in_a_report_or_one_error_record(capsys, monkeypatch, line):
    """Each argv exits 0 with a report, or 2, 3 or 4 with one JSON error
    record on stderr and nothing on stdout; an exit-2 message names a flag."""
    monkeypatch.setenv("MISSINGDIGIT_BUDGET", "1000000")
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    failures = []
    try:
        for argv in _extreme_sweep(line):
            code, out, err = _swept_exit(capsys, argv)
            if code == 0:
                ok = out != "" and err == ""
            else:
                ok = code in (2, 3, 4) and out == "" and _one_record(err, code)
                ok = ok and (code != 2 or _names_a_flag(err))
            if not ok:
                failures.append((" ".join(argv), code, err[-300:]))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not failures


@pytest.mark.parametrize("line", [
    "arcs --b 10 --a0 7 --r 3 --k -1",
    "sieve-fns --wellfactor-X -1",
    "constants --y -1",
    "constants --y 1",
    "constants --b 10 --tweight-X -1",
    "constants --b 10 --tweight-X 1",
    "vaughan-check --X -1",
    "vaughan-check --X 100 --dmax 0",
    "vaughan-check --X 100 --dmax -1",
    "mikawa --M 8 --N 8 --X 0 --theta 0.3",
    "mikawa --M 8 --N 8 --X -1 --theta 0.3",
    # 2^1023 is a float, but not q Q = 2^1024 at the second convergent q = 2
    f"mikawa --M 8 --N 8 --X 5000 --theta 0.4142135623730951 --Q {2**1023}",
    "sieve-fns --ustep 0",
    "sieve-fns --ustep -1",
    # b^k is refused before it is formed: k < 1, or past 2^62
    "count --b 10 --a0 7 --k 0",
    "count --b 10 --a0 7 --k 19",
    "count --b 10 --a0 7 --k 1000000000000",
    f"count --b 3 --a0 0 --k {BIG}",
    "fourier-stats --b 10 --a0 7 --r 3 --k 1000000000000",
    "hybrid --b 10 --a0 7 --r 3 --k 9223372036854775808 --Q 4 --B 4",
    "arcs --b 10 --a0 7 --r 3 --k 1000000000000",
    "bv-table --b 10 --a0 7 --r 3 --k 1000000000000 --D 10",
    "weighted-bv --b 10 --a0 7 --r 3 --k 1000000000000 --kind semi",
    "buchstab-app --b 7 --a0 4 --r 3 --k 1000000000000",
    # a check that runs nothing, or parameters outside the proof's range
    "vaughan-check --X 10000 --trials 0",
    "vaughan-check --X 10000 --trials -1",
    "integrals --eps 0",
    "integrals --delta 1e-3 --eps -1 --sensitivity",
    "sieve-fns --eps 0",
    "sieve-fns --eps nan",
    "weighted-bv --b 10 --a0 7 --r 3 --k 4 --kind lin --L 0",
    "weighted-bv --b 10 --a0 7 --r 3 --k 4 --kind lin --L -1",
    # declared domains: --eps > 0 and --delta in [0, 1/6) wherever they are
    # taken, and every float flag finite
    "weighted-bv --b 10 --a0 7 --r 3 --k 4 --kind lin --eps 0",
    "weighted-bv --b 10 --a0 7 --r 3 --k 4 --kind semi --delta -1",
    "weighted-bv --b 10 --a0 7 --r 3 --k 4 --kind semi --delta 0.1666666666666667",
    "weighted-bv --b 10 --a0 7 --r 3 --k 4 --kind semi --delta nan",
    "integrals --delta 0.5",
    "sieve-fns --delta inf",
    "sieve-fns --umin nan",
    "sieve-fns --umax inf",
    "sieve-fns --ustep inf",
    "sieve-fns --sandwich-nmax 1000 --sandwich-z nan",
    "sieve-fns --sandwich-nmax 1000 --sandwich-D inf",
    "arcs --b 10 --a0 7 --r 3 --k 4 --C nan",
    "mikawa --M 8 --N 8 --X 5000 --theta nan",
    "mikawa --M 8 --N 8 --X 5000 --theta inf",
    "buchstab-app --b 7 --a0 4 --r 3 --k 6 --alpha nan",
    "constants --alpha inf",
    "fourier-stats --b 10 --a0 7 --r 3 --k -1",
])
def test_values_outside_a_formula_exit_2(capsys, line):
    code, out, err = run_cli(capsys, *line.split())
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["kind"] == "PreconditionError"


@pytest.mark.parametrize("line", [
    "",  # no subcommand
    "count --b 10 --a0 7",  # no --k
    "count --b 10 --a0 7 --k 1e308",
    "weighted-bv --b 10 --a0 7 --r 3 --k 4 --kind bogus",
])
def test_a_refused_parse_is_one_error_record_with_an_empty_config(capsys, line):
    code, out, err = run_cli(capsys, *line.split())
    assert code == 2 and out == "" and err.count("\n") == 1
    record = json.loads(err)
    assert record["config"] == {} and record["error"]["kind"] == "PreconditionError"


def test_help_still_prints_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--help"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: ")


def test_a_power_past_2_62_is_refused_naming_b_and_k(capsys):
    code, _, err = run_cli(capsys, "count", "--b", "3", "--a0", "0", "--k", "100")
    assert code == 2
    assert json.loads(err)["error"]["message"] == "--b^--k must be at most 2^62, got b=3, k=100"


@pytest.mark.parametrize("line", [
    "count --b 10 --a0 7 --r 5 --k 3",
    "fourier-stats --b 10 --a0 7 --r 2 --k 3",
    "hybrid --b 10 --a0 7 --r 0 --k 3 --Q 4 --B 4",
])
def test_the_subcommands_without_progressions_take_any_residue(capsys, line):
    assert run_cli(capsys, *line.split())[0] == 0


@pytest.mark.parametrize("eps", ["0.13", "0.14"])
def test_a_sifting_limit_above_the_level_names_the_sieve_flags(capsys, eps):
    # for eps in about (0.1286, 1/7) the semi-linear X^s lies above X^rho, where D0 = X^s must not
    code, out, err = run_cli(capsys, "sieve-fns", "--wellfactor-X", "100000", "--eps", eps)
    assert code == 2 and out == ""
    message = json.loads(err)["error"]["message"]
    assert all(flag in message for flag in ("--wellfactor-X", "--delta", "--eps")), message


@pytest.mark.parametrize("line", [
    "weighted-bv --b 10 --a0 7 --r 3 --k 4 --kind semi --eps 0.5",
    "weighted-bv --b 10 --a0 7 --r 3 --k 4 --kind lin --eps 1e308",
    "sieve-fns --wellfactor-X 100000 --eps 0.5",
    "integrals --eps 0.5",
    "integrals --eps 0.1428571428571429",  # the float just above 1/7
    # each eps below 1/7, but 2 delta + 2 eps^2 >= 1/3
    "weighted-bv --b 10 --a0 7 --r 3 --k 4 --kind lin --delta 0.16 --eps 0.1",
    "sieve-fns --wellfactor-X 100000 --delta 0.166 --eps 0.03",
    "integrals --delta 0.16 --eps 0.14",
])
def test_an_eps_outside_the_proof_range_names_eps(capsys, line):
    code, out, err = run_cli(capsys, *line.split())
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "PreconditionError" and error["message"].startswith("--eps "), error


@pytest.mark.parametrize("line, flag", [
    ("constants --b 0 --tweight-X 10000", "--b"),
    ("constants --y 0", "--y"),
    ("constants --b 10 --tweight-X 0", "--tweight-X"),
    ("sieve-fns --sandwich-nmax 0", "--sandwich-nmax"),
    ("sieve-fns --wellfactor-X 0", "--wellfactor-X"),
    ("vaughan-check --X 10000 --trials 1 --U 0", "--U"),
])
def test_a_zero_flag_value_is_refused_by_its_domain(capsys, line, flag):
    """0 is a value, not an absent flag: it gets no fallback and no skipped step."""
    code, out, err = run_cli(capsys, *line.split())
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"].startswith(f"{flag} must be ")


@pytest.mark.parametrize("kind, flag, value", [
    ("fixed", "--eps", "0"), ("pairs", "--delta", "0.5"),
])
def test_kinds_that_do_not_sieve_ignore_delta_and_eps(capsys, kind, flag, value):
    argv = ("weighted-bv", *SYSTEM, "--k", "4", "--kind", kind)
    code, out, _ = run_cli(capsys, *argv, flag, value)
    assert code == 0
    _, plain, _ = run_cli(capsys, *argv)
    report, want = json.loads(out), json.loads(plain)
    assert (report["results"], report["rows"]) == (want["results"], want["rows"])


@pytest.mark.parametrize("D", [2, 4, 10, 30, 100])
@pytest.mark.parametrize("z", [3, 4, 10, 30])
def test_a_sandwich_level_below_z_is_refused_naming_both_flags(capsys, D, z):
    # with D < z, a prime p in (D, z] has lambda^- * 1 (p) = 1, above its sifted indicator 0
    argv = ("sieve-fns", "--umax", "1.2", "--sandwich-nmax", "20000",
            "--sandwich-D", str(D), "--sandwich-z", str(z))
    code, out, err = run_cli(capsys, *argv)
    if D < z:
        assert code == 2 and out == ""
        message = json.loads(err)["error"]["message"]
        assert "--sandwich-D" in message and "--sandwich-z" in message
    else:
        assert code == 0 and json.loads(out)["results"]["sandwich_violations"] == 0
    assert run_cli(capsys, *argv[:3], *argv[5:])[0] == 0  # no sandwich, no relation


@pytest.mark.parametrize("line, message", [
    ("constants --tweight-X 1000", "--tweight-X needs --b"),
    ("constants --plimit 999", "--plimit must be >= 1000, got 999"),
    ("two-squares", "need --n or --limit"),
    ("two-squares --n 65 --limit 100", "--n and --limit exclude each other, got n=65, limit=100"),
    ("two-squares --limit 1", "--limit must be >= 2, got 1"),
    ("density --b 2 --a0 0", "--b must be >= 3, got 2"),
    ("density --b 10 --a0 12", "--a0 must be in [0, --b), got a0=12, b=10"),
    ("count --b 10 --a0 7 --r -1 --k 2", "--r must be in [0, --b), got r=-1, b=10"),
    ("arcs --b 7 --a0 3 --r 7 --k 2", "--r must be in [0, --b), got r=7, b=7"),
    ("count --b 10 --a0 7 --r 7 --k 2", "--r must differ from --a0, got r=7, a0=7"),
    ("bv-table --b 3 --a0 0 --r 0 --k 2 --D 5", "--r must differ from --a0, got r=0, a0=0"),
    # a residue whose members the progressions cannot read as primes
    ("arcs --b 10 --a0 7 --r 5 --k 3", "--r must be prime to --b, got r=5, b=10"),
    ("bv-table --b 10 --a0 7 --r 2 --k 3 --D 5", "--r must be prime to --b, got r=2, b=10"),
    ("weighted-bv --b 10 --a0 7 --r 4 --k 3 --kind fixed",
     "--r must be prime to --b, got r=4, b=10"),
    ("buchstab-app --b 10 --a0 7 --r 3 --k 4", "--b must be odd for buchstab-app, got 10"),
    ("buchstab-app --b 7 --a0 4 --r 1 --k 4",
     "--r and --r - 1 must be prime to --b, got r=1, b=7"),
    ("vaughan-check --X 30 --U 50 --trials 1", "--U must be below --X, got U=50, X=30"),
    ("vaughan-check --X 2", "--X must be >= 3, got 2"),  # the default U = 2 is not below 2
    # sieve levels X^rho and sifting limits X^s below 2, refused by the specs before any claim
    ("weighted-bv --b 10 --a0 7 --r 3 --k 4 --kind semi --delta 0.15 --eps 0.1",
     "--kind semi needs its sieve level X^rho and sifting limit X^s >= 2 at X = --b^--k,"
     " --delta and --eps, got b=10, k=4, delta=0.15, eps=0.1"),
    ("weighted-bv --b 3 --a0 1 --r 2 --k 3 --kind lin",
     "--kind lin needs its sieve level X^rho and sifting limit X^s >= 2 at X = --b^--k,"
     " --delta and --eps, got b=3, k=3, delta=0.001, eps=1e-06"),
    ("sieve-fns --wellfactor-X 31",
     "--wellfactor-X needs both sieve levels X^rho and sifting limits X^s >= 2 at"
     " --delta and --eps, got X=31, delta=0.001, eps=1e-06"),
    # before the grid claim of ~7.6e9 steps
    ("sieve-fns --wellfactor-X 31 --ustep 1e-9",
     "--wellfactor-X needs both sieve levels X^rho and sifting limits X^s >= 2 at"
     " --delta and --eps, got X=31, delta=0.001, eps=1e-06"),
    ("sieve-fns --sandwich-nmax 100 --sandwich-z 1.5",
     "--sandwich-z must be >= 2 with --sandwich-nmax, got z=1.5"),
    # ints that a float operand meets
    (f"mikawa --M 8 --N 8 --X 5000 --theta 0.333333 --Q {BIG}",
     f"--Q must be below 2^1024, the float range, got {BIG}"),
    (f"sieve-fns --wellfactor-X {BIG}",
     f"--wellfactor-X must be below 2^1024, the float range, got {BIG}"),
])
def test_flag_relations_are_refused_before_the_runner(capsys, monkeypatch, line, message):
    # a check left in a runner would come after a table claim past this budget (exit 3)
    monkeypatch.setenv("MISSINGDIGIT_BUDGET", "1000")
    code, out, err = run_cli(capsys, *line.split())
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"] == message


@pytest.mark.parametrize("line, message", [
    ("integrals --eps 0.14", "--delta and --eps: alpha*rho = 0.9059260247197471 outside [1, 3],"
     " got delta=0.001, eps=0.14"),
    ("mikawa --M 1000000000000 --N 8 --X 5000 --theta 0.333333",
     "--M, --N and --X: X and 8 M^2 N must be below 2^53, got M=1000000000000, N=8, X=5000"),
    (f"mikawa --M 8 --N 8 --X 5000 --theta 0.4142135623730951 --Q {2**1023}",
     f"--theta and --Q: Q={2**1023} takes q Q past the float range at q=2,"
     f" got theta=0.4142135623730951, Q={2**1023}"),
    ("arcs --b 10 --a0 7 --r 3 --k 3 --d 2 --c 1", "--a0, --b, --c and --d: need gcd(c, d) ="
     " gcd(d, b) = 1, got a0=7, b=10, c=1, d=2"),
    ("arcs --b 10 --a0 0 --r 3 --k 3", "--a0, --b, --c and --d: digit-product transform needs"
     " a nonzero excluded digit, got a0=0, b=10, c=0, d=1"),
    ("hybrid --b 10 --a0 0 --r 3 --k 3 --Q 4 --B 4",
     "--a0: digit-product transform needs a nonzero excluded digit, got a0=0"),
    ("fourier-stats --b 10 --a0 0 --r 3 --k 3",
     "--a0: digit-product transform needs a nonzero excluded digit, got a0=0"),
    ("buchstab-app --b 7 --a0 4 --r 3 --k 4 --alpha 2",
     "--alpha: alpha must exceed 2, got alpha=2.0"),
    ("constants --plimit 1000 --b 10 --tweight-X 10000 --alpha 4",
     "--tweight-X and --alpha: alpha must lie in [2, 4), got X=10000, alpha=4.0"),
])
def test_a_library_refusal_names_its_flags(capsys, line, message):
    code, out, err = run_cli(capsys, *line.split())
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"] == message


def test_sieve_fns_claims_its_grid(capsys, monkeypatch):
    # 4 kinds at each of the (3.0 - 1.1) / ustep + 1 grid points
    monkeypatch.setenv("MISSINGDIGIT_BUDGET", "1000")
    code, out, err = run_cli(capsys, "sieve-fns", "--ustep", "0.001")
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["kind"] == "BudgetError"
    code, out, _ = run_cli(capsys, "sieve-fns", "--ustep", "0.01")
    assert code == 0 and json.loads(out)["results"]["grid_points"] == 564


@pytest.mark.parametrize("line", [
    "arcs --b 10 --a0 7 --r 3 --k 4 --C 1000000000000",
    "arcs --b 10 --a0 7 --r 3 --k 4 --C 1e308",
    "vaughan-check --X 10000 --trials 1000000000000",
    "vaughan-check --X 10000 --trials 9223372036854775808 --U 30",
    f"vaughan-check --X 10000 --trials {BIG}",  # a claim past the float range
    # trial division of the prime base 2^61 - 1 claims sqrt(b) steps
    "density --b 2305843009213693951 --a0 7",
    "count --b 2305843009213693951 --a0 7 --k 1",
    "constants --b 2305843009213693951",
    # a modulus past int64 reaches the trial division of phi(d) in the main term
    "arcs --b 10 --a0 7 --r 3 --k 2 --d 1000000000000000000000000000001 --c 1",
])
def test_sizes_past_the_budget_exit_3(capsys, line):
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(5)
    try:
        code, out, err = run_cli(capsys, *line.split())
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["kind"] == "BudgetError"


def test_out_of_memory_exits_3(capsys, monkeypatch):
    def no_memory(limit):
        raise MemoryError("Unable to allocate the prime table")

    monkeypatch.setattr(cli, "PrimeTables", no_memory)
    code, out, err = run_cli(capsys, "two-squares", "--limit", "100000")
    assert code == 3 and out == ""
    record = json.loads(err)
    assert record["error"] == {"code": 3, "kind": "MemoryError",
                               "message": "Unable to allocate the prime table"}
    assert record["config"]["limit"] == 100000
