"""Benchmark entry point for missingdigit sweeps.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 43 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, a table

A run is a closed loop with one client: each repetition spawns one fresh
worker interpreter (``worker.py``) that imports ``missingdigit.cli`` and runs
the workload's whole op list in order, one op after the other.  After a few
set-up-only spawns, repetitions run back to back while one more of the
average length still ends within ``--seconds`` of the start (at least one).

Times are scaled to a reference host speed (``speed.py``): the worker times a
fixed probe loop before the first op and after every op, and each op's
latency is scaled by the probes on either side of it.  Each op's scaled
latency is the median over the repetitions; ``job_s``, ``op_p50_s`` and
``op_tail_s`` are the sum, the median and the tail of those, the quantiles
as Harrell-Davis estimates.  Set-up is timed from spawn to the worker's
``ready`` line, scaled by a probe just before the spawn, and the median over
every spawn is reported.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced repetition, reports the per-layer metrics of the
traced one, checks that both produced identical outputs, and reports the
tracing overhead as the difference of their scaled job times.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the run's context
(machine, probe times, input properties, measured per-repetition figures).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("spectral", "progressions", "kernels")
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 170.0
TAIL_BEYOND = 10  # op_tail_s: highest percentile with at least this many ops above it

END_TO_END = [
    ("setup_s", "s"), ("job_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"), ("ok_ratio", "1"),
]
HARNESS_LAYER_METRICS = [
    ("cli.ops", "count", "higher"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class WorkerError(RuntimeError):
    pass


def machine() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform()}


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("MISSINGDIGIT_BUDGET", None)  # the default budget is part of the workload
    return env


def spawn(workload: str, seed: int, *flags: str) -> tuple[float, dict | None]:
    """Run one worker; return (set-up seconds, its result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        try:
            rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise WorkerError(f"worker exceeded {WORKER_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"worker failed (exit {proc.returncode}) before reporting")
    if "--setup-only" in flags:
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def tail_quantile(n: int) -> float:
    """The quantile of the order statistic with TAIL_BEYOND of n ops above it."""
    return max(n - TAIL_BEYOND, 1) / (n + 1)


def _figures(latencies: list[float]) -> dict:
    """Sum, median and tail of the op latencies.  The quantiles are
    Harrell-Davis estimates (a weighted mean of the order statistics around
    the quantile), which wobble less than the single op at that rank."""
    from scipy.stats.mstats import hdquantiles  # imported late: keeps the spawning parent small

    p50, tail = hdquantiles(latencies, prob=[0.5, tail_quantile(len(latencies))])
    return {"job_s": sum(latencies), "op_p50_s": float(p50), "op_tail_s": float(tail)}


def scaled_latencies(rep: dict) -> list[float]:
    """Each op's latency at reference speed, by the probes on either side of it."""
    return [speed.scale(op["latency_s"], statistics.fmean(op["probe_s"])) for op in rep["ops"]]


def op_summary(rep: dict) -> dict:
    """One repetition's measured figures, as printed in the context line."""
    n = len(rep["ops"])
    return {
        **_figures([op["latency_s"] for op in rep["ops"]]),
        "probe_p50_s": statistics.median(p for op in rep["ops"] for p in op["probe_s"]),
        "tail_percentile": 100.0 * tail_quantile(n),
        "peak_rss_mb": rep["peak_rss_mb"],
        "failed": sum(1 for op in rep["ops"] if op["problems"]),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Return (result, context) for one benchmark run."""
    import workloads as wl

    setups, setup_probes = [], []

    def repetition(*flags):
        setup_probes.append(speed.probe())
        setup_s, rep = spawn(workload, seed, *flags)
        setups.append(setup_s)
        return rep

    start = time.perf_counter()
    for _ in range(SETUP_PROBES):
        repetition("--setup-only")
    if trace:
        reps = [repetition(), repetition("--traced")]
    else:
        reps, first = [], time.perf_counter()

        def next_ends(now):  # when one more repetition of the average length would end
            return now - start + (now - first) / len(reps)

        while not reps or next_ends(time.perf_counter()) <= seconds:
            reps.append(repetition())

    summaries = [op_summary(rep) for rep in reps]
    attempted = sum(len(rep["ops"]) for rep in reps)
    failed = sum(s["failed"] for s in summaries)
    problems = [f"{op['op']}: {p}" for rep in reps for op in rep["ops"] for p in op["problems"]]
    if trace:
        plain, traced = reps
        diverged = [a["op"] for a, b in zip(plain["ops"], traced["ops"]) if a["digest"] != b["digest"]]
        failed += len(diverged)
        problems += [f"{op}: traced output differs from untraced" for op in diverged]
        cli_ops = [op for op in traced["ops"] if op["cli"]]
        values = {
            **traced["layers"],
            "cli.ops": len(cli_ops),
            "cli.output_bytes": sum(op["stdout_bytes"] for op in cli_ops),
            "trace.overhead_s": sum(scaled_latencies(traced)) - sum(scaled_latencies(plain)),
        }
        units = {name: unit for name, unit, _ in layer_metric_specs()}
        values = {name: values[name] for name in units}
    else:
        # each op's median over the repetitions, at reference speed
        per_op = [statistics.median(column) for column in zip(*map(scaled_latencies, reps))]
        values = {
            "setup_s": statistics.median(map(speed.scale, setups, setup_probes)),
            **_figures(per_op),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in summaries),
            "ok_ratio": 1.0 - failed / attempted,
        }
        units = dict(END_TO_END)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    context = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "machine": machine(),
        "probe": {"iterations": speed.ITERATIONS, "reference_s": speed.REFERENCE_S,
                  "before_spawn_s": setup_probes},
        "inputs": wl.input_properties(wl.generate(workload, seed)),
        "ops": len(reps[0]["ops"]),
        "tail_percentile": summaries[0]["tail_percentile"],
        "fail_ratio": failed / attempted,
        "reference_checked": all(rep["reference_checked"] for rep in reps),
        "setup_samples_s": setups,
        "reps": summaries,
        "problems": problems[:20],
    }
    return result, context


def layer_metric_specs() -> list[tuple[str, str, str]]:
    from tracer import LAYER_METRICS

    return HARNESS_LAYER_METRICS + LAYER_METRICS


def _print_table(result: dict, context: dict) -> None:
    print(f"== {context['workload']} (seed {context['seed']}, {context['ops']} ops, "
          f"tail = p{context['tail_percentile']:.0f}, fail_ratio = {context['fail_ratio']:.3g}, "
          f"{len(context['reps'])} reps)")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']}")
    for line in context["problems"]:
        print(f"  FAIL {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "smoke", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=43.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "missingdigit" / "__init__.py").is_file():
        sys.stderr.write(f"no missingdigit sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(HERE))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result, context = run_workload(name, args.seed, args.seconds, bool(args.trace))
            if args.workload == "all":
                _print_table(result, context)
            print(json.dumps({"context": context}))
            print(json.dumps(result))
    except WorkerError as exc:
        sys.stderr.write(f"benchmark worker failed: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
