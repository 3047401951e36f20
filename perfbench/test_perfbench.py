"""The benchmark's own tests (not part of the library suite).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from ops import label  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        run.layer_metric_specs()
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_reports_the_declared_metrics(trace, section):
    proc = _bench(ROOT, "--workload", "smoke", "--seed", "1", "--seconds", "0",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.README_INVOCATIONS) * (1 + trace)
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for metric in SPEC[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_generators_are_deterministic(name):
    for seed in (1, 2, 97):
        assert workloads.generate(name, seed) == workloads.generate(name, seed)
    assert workloads.generate(name, 1) != workloads.generate(name, 2)


def test_spectral_cache_pressure():
    props = workloads.input_properties(workloads.generate("spectral", 5))
    assert props["spectrum"]["distinct"] == workloads.SPECTRUM_CACHE_CAPACITY
    assert props["arc_codes"]["distinct"] > workloads.ARC_CODE_CACHE_CAPACITY
    assert props["arc_codes"]["repeat_share"] >= 0.5


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_references_match_generators(name):
    stored = json.loads(checks.reference_path(name).read_text())
    assert stored, "no shipped seeds"
    for seed, entry in stored.items():
        assert entry["ops"] == [label(op) for op in workloads.generate(name, int(seed))]


def test_latencies_are_scaled_by_the_probes_around_each_op():
    ref = speed.REFERENCE_S
    rep = {"ops": [{"latency_s": 1.0, "probe_s": [ref, ref]},
                   {"latency_s": 1.0, "probe_s": [ref, 3 * ref]}]}
    assert run.scaled_latencies(rep) == [1.0, 0.5]


def test_quantiles_of_equal_latencies():
    figures = run._figures([0.25] * 21)
    assert figures["job_s"] == 0.25 * 21
    assert figures["op_p50_s"] == pytest.approx(0.25)
    assert figures["op_tail_s"] == pytest.approx(0.25)


def test_reference_comparison_tolerances():
    ref = {"results": {"count": 81, "kappa": "9/8", "x": 1.0, "noise": 1e-3, "ok": True},
           "rows": [{"re": 100.0, "im": 1e-12}]}
    near = {"results": {"count": 81, "kappa": "9/8", "x": 1.0 + 1e-12, "noise": 1e-3, "ok": True},
            "rows": [{"re": 100.0, "im": 5e-11}]}
    assert checks.compare_reference(ref, near) == []
    for path, value in ((("results", "x"), 1.0 + 1e-6), (("results", "kappa"), "9/7"),
                        (("results", "count"), 82), (("results", "ok"), False)):
        bad = json.loads(json.dumps(ref))
        bad[path[0]][path[1]] = value
        assert checks.compare_reference(ref, bad)


def test_tracer_restores_every_binding():
    import missingdigit
    from missingdigit import circle, fourier, primetables

    before = (circle.spectrum, missingdigit.min_sum, circle.check_budget,
              primetables.PrimeTables.__dict__["primes"], primetables.PrimeTables.factor)
    tracer = Tracer().install()
    assert circle.spectrum is not before[0] and circle.spectrum is fourier.spectrum
    table = primetables.PrimeTables(1000)
    assert len(table.primes) == 168 and table.factor(12) == [(2, 2), (3, 1)]
    tracer.uninstall()
    after = (circle.spectrum, missingdigit.min_sum, circle.check_budget,
             primetables.PrimeTables.__dict__["primes"], primetables.PrimeTables.factor)
    assert after == before
    layers = tracer.metrics()
    assert layers["primetables.build.calls"] == 1
    assert layers["primetables.build.entries"] == 1001
    assert layers["primetables.factor.calls"] == 1


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "spectral", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
