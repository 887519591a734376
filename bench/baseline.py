"""Measure this commit's baseline and write it to bench/BASELINE.json.

Run from the root of a checkout:

    python3 bench/baseline.py

Every workload runs on seeds 1-10 for ``run_seconds`` of BENCHMARK.json, in
two rounds, one after the other. For each round, workload and end-to-end
metric it records the values, their median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance between
the quartiles as a share of the median, and how long each run took, set-up
included. It also records how far the second round's median moved from the
first's. One traced run per workload, on seed
1, gives the per-layer figures and the tracing overhead
(``trace.wall_ratio``).
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

from run import BENCH, ROOT, SRC, environment

sys.path.insert(0, str(SRC))
from workloads import WORKLOADS  # noqa: E402  (needs src/ on the path)

SEEDS = list(range(1, 11))
ROUNDS = 2
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
OUT = BENCH / "BASELINE.json"


def _run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}, {result}")
    print(f"{workload} seed {seed} trace {trace}: {elapsed:.1f} s, "
          + ", ".join(f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()
                      if not trace or k.startswith("trace.")), flush=True)
    return {**result, "elapsed_s": elapsed}


def _round(workload: str) -> dict:
    runs = [_run(workload, seed, 0) for seed in SEEDS]
    end_to_end = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        end_to_end[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / median, "values": values}
        print(f"  {workload} {name}: median {median:.5g} spread {(q3 - q1) / median:.4f}", flush=True)
    return {"attempted_per_run": runs[0]["attempted"], "end_to_end": end_to_end,
            "run_elapsed_s": [r["elapsed_s"] for r in runs]}


def main() -> int:
    report = {"environment": environment(), "seconds": SECONDS, "seeds": SEEDS, "workloads": {}}
    rounds = [{name: _round(name) for name in WORKLOADS} for _ in range(ROUNDS)]
    for name in WORKLOADS:
        first, last = rounds[0][name]["end_to_end"], rounds[-1][name]["end_to_end"]
        report["workloads"][name] = {
            "rounds": [r[name] for r in rounds],
            "median_shift": {m: last[m]["median"] / first[m]["median"] - 1.0 for m in first},
            "traced_seed": SEEDS[0],
            "per_layer": {k: v["value"] for k, v in _run(name, SEEDS[0], 1)["metrics"].items()},
        }
    OUT.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
