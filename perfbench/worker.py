"""One benchmark worker: a fresh interpreter that runs one op list.

Protocol on stdout: the line ``ready`` as soon as ``missingdigit.cli`` is
imported (the parent times spawn-to-ready as set-up), then, unless
``--setup-only``, one JSON line with the op timings, check results and,
with ``--traced``, the per-layer metrics.  Op outputs are captured, never
printed.  The host-speed probe (``speed.py``) runs before the first op and
after every op, outside the op timings.  Checks run after the op list.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def peak_rss_kb() -> int:
    """This process's peak resident set.  VmHWM starts afresh at exec;
    ru_maxrss does not, as Linux carries the spawning parent's peak into it."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--keep-outputs", action="store_true")
    args = parser.parse_args()

    import missingdigit.cli  # noqa: F401  (the set-up being timed)

    src = (ROOT / "src").resolve()
    if src not in Path(missingdigit.cli.__file__).resolve().parents:
        sys.stderr.write(f"missingdigit was imported from outside {src}\n")
        return 2
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0

    import checks
    import ops as oplib
    import workloads
    from speed import probe
    from tracer import Tracer

    op_list = workloads.generate(args.workload, args.seed)
    tracer = Tracer().install() if args.traced else None
    records, probes = [], [probe()]
    for op in op_list:
        t0 = time.perf_counter()
        try:
            code, output, nbytes, error = oplib.run_op(op)
        except Exception as exc:  # an op failure is data, not a crash
            code, output, nbytes, error = -1, None, 0, f"{type(exc).__name__}: {exc}"
        records.append((time.perf_counter() - t0, code, output, nbytes, error))
        probes.append(probe())
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()
    peak_rss_mb = peak_rss_kb() / 1024.0

    # --keep-outputs records new references, so it skips the stored ones
    reference = None if args.keep_outputs else checks.load_reference(args.workload, args.seed)
    labels = [oplib.label(op) for op in op_list]
    if reference is not None and reference["ops"] != labels:
        reference = {"stale": True}
    results = []
    for i, (op, (latency, code, output, nbytes, error)) in enumerate(zip(op_list, records)):
        try:
            problems = [error] if code != 0 else checks.invariants(op, output)
            if code == 0 and reference is not None:
                if reference.get("stale"):
                    problems.append("stored reference was made for another op list")
                else:
                    problems += checks.compare_reference(reference["outputs"][i], output)
        except (KeyError, TypeError, ValueError) as exc:  # output lacks an expected field
            problems = [f"output check failed: {type(exc).__name__}: {exc}"]
        text = json.dumps(output, sort_keys=True)
        results.append({
            "op": labels[i],
            "cli": "cli" in op,
            "latency_s": latency,
            # the host-speed probes just before and just after the op
            "probe_s": [probes[i], probes[i + 1]],
            "code": code,
            "problems": problems,
            "stdout_bytes": nbytes,
            "digest": hashlib.sha256(text.encode()).hexdigest(),
            **({"output": output} if args.keep_outputs else {}),
        })
    sys.stdout.write(json.dumps({
        "peak_rss_mb": peak_rss_mb,
        "reference_checked": reference is not None,
        "ops": results,
        "layers": layers,
    }) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
