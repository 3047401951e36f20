import csv
import io
import json

import pytest

from missingdigit.cli import SCHEMAS, main, report_schema
from missingdigit.errors import PreconditionError


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


def test_output_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "density", "--b", "10", "--a0", "7", "--output", str(path)
    )
    assert code == 0 and out == ""
    report = json.loads(path.read_text())
    assert report["results"]["kappa"] == "5/6"


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
