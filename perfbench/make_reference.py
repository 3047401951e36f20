"""Record reference outputs for the shipped seeds.

    python3 perfbench/make_reference.py                 # every workload, seeds 1-5
    python3 perfbench/make_reference.py kernels 1 2 3   # one workload, some seeds

Runs each (workload, seed) once in a fresh worker and stores the op outputs
in ``reference/<workload>.json`` next to the op labels they belong to.  A
seed whose outputs fail the invariants is not recorded.  Re-run only when
the generators change; the references pin the program's outputs.
"""

from __future__ import annotations

import json
import sys

import checks
from run import WORKLOADS, spawn

SHIPPED_SEEDS = tuple(range(1, 6))


def record(workload: str, seeds) -> None:
    path = checks.reference_path(workload)
    store = json.loads(path.read_text()) if path.exists() else {}
    for seed in seeds:
        _, rep = spawn(workload, seed, "--keep-outputs")
        bad = [p for op in rep["ops"] for p in op["problems"]]
        if bad:
            raise SystemExit(f"{workload} seed {seed} fails its invariants: {bad[:3]}")
        store[str(seed)] = {"ops": [op["op"] for op in rep["ops"]],
                            "outputs": [op["output"] for op in rep["ops"]]}
        print(f"{workload} seed {seed}: {len(rep['ops'])} ops recorded")
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(store, sort_keys=True, separators=(",", ":")) + "\n")


def main(argv) -> int:
    workloads = [argv[0]] if argv else list(WORKLOADS)
    seeds = [int(s) for s in argv[1:]] or SHIPPED_SEEDS
    for workload in workloads:
        record(workload, seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
