"""Seeded end-to-end benchmark of ``radrisk extract`` and ``radrisk run``.

Run from the root of a radrisk checkout:

    python3 bench/run.py --workload extract-small --seed 1 --seconds 8 --trace 0

The inputs of a workload are generated from ``--seed`` in set-up, in child
processes (so set-up memory stays out of ``peak_rss_mb``); the extract
workloads set up three times and report the median time. The measured
process then invokes the CLI in-process, closed loop, one invocation after
another until ``--seconds`` have passed and the workload's least number of
invocations has run, single-threaded. Every invocation's outputs are checked,
and then the run's as a whole.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced invocations (at least one of each) and reports per-layer
self times and counters, and the tracing overhead: traced over untraced wall
time. The last line of stdout is the result object; a record with the
machine, versions, seeds and load sizes is written under
``.bench_work/results/``. The exit code is 0 only when every check passed.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

from layers import LAYER_HOOKS, OP_HOOKS, ROOT_LAYER, per_layer_metrics
from spans import Tracer, hooked

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

HELD_OUT_SEED = 7919  # never used while tuning; a claimed gain must also hold on it
SETUP_TIMEOUT_S = 150


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-into", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "held_out_seed": HELD_OUT_SEED,
    }


def _setup_child(workload, seed: int, directory: Path) -> int:
    directory.mkdir(parents=True)
    info = workload.setup(directory, seed)
    (directory / "setup.json").write_text(json.dumps(info))
    return 0


def _set_up(workload, seed: int, work: Path) -> tuple[list[float], Path, dict]:
    """Set up ``workload.setups`` times, each in a child process; keep the first.

    A set-up's time is its child's wall time, interpreter start included: the
    file writes of a small set-up vary more than the whole process does. The
    child also keeps set-up memory out of ``peak_rss_mb``.
    """
    times = []
    for k in range(workload.setups):
        directory = work / f"setup{k}"
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload.name,
               "--seed", str(seed), "--setup-into", str(directory)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up of {workload.name} exited {proc.returncode}")
        if k:
            shutil.rmtree(directory)
    first = work / "setup0"
    return times, first, json.loads((first / "setup.json").read_text())


def _invoke(tracer, hooks, argv) -> int:
    from workloads import quiet_cli

    with hooked(tracer, hooks):
        try:
            return tracer.call(ROOT_LAYER, quiet_cli, argv)
        except Exception:  # a crash is a failed invocation, not a crashed benchmark
            traceback.print_exc()
            return 1


def measure(workload, directory: Path, info: dict, seed: int, seconds: float, trace: bool):
    tracer = Tracer()
    out = directory.parent / "out"
    least = max(workload.min_invocations, 2 if trace else 1)
    invocations = []
    t0 = time.perf_counter()
    while True:
        run_id = len(invocations)
        traced = trace and run_id % 2 == 1
        tracer.run_id = run_id
        argv = workload.argv(directory, info, out, seed, run_id)
        code = _invoke(tracer, LAYER_HOOKS if traced else OP_HOOKS, argv)
        failed, problems, facts = workload.check(directory, info, out, code, tracer, run_id)
        _report(workload, f"run {run_id}", problems)
        (root,) = tracer.roots(run_id)
        invocations.append({
            "run_id": run_id,
            "traced": traced,
            "exit_code": code,
            "wall_s": root.end - root.start,
            "op_s": sum(tracer.durations(workload.op_layer, [run_id])),
            "ops": workload.ops(info),
            "failed": failed,
            "problems": problems,
            "facts": facts,
        })
        if time.perf_counter() - t0 >= seconds and len(invocations) >= least:
            return tracer, invocations


def _report(workload, where: str, problems: list[str]) -> None:
    for problem in problems:
        print(f"check failed [{workload.name} {where}]: {problem}", file=sys.stderr)


def end_to_end(workload, setup_times, invocations) -> dict:
    walls = [inv["wall_s"] for inv in invocations]
    # op_s is 0 only when the command failed before its first operation
    rates = [inv["ops"] / inv["op_s"] if inv["op_s"] else 0.0 for inv in invocations]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "ops_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def _summary(workload, seed, trace, setup_times, invocations, metrics, attempted, failed) -> list[str]:
    lines = [f"# radrisk bench: workload={workload.name} seed={seed} trace={trace} "
             f"invocations={len(invocations)} set-ups={len(setup_times)}"]
    op_name = f"{workload.op}_per_s"
    for name, m in metrics.items():
        label = f"{name} ({op_name})" if name == "ops_per_s" else name
        lines.append(f"#   {label:<40} {m['value']:.6g} {m['unit']}")
    lines.append(f"#   {'fail_ratio':<40} {failed}/{attempted} {workload.op} "
                 f"= {failed / attempted:.4g}")
    return lines


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "radrisk" / "__init__.py").is_file():
        print(f"error: {SRC / 'radrisk'} not found; run from the root of a radrisk checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_into:
        return _setup_child(workload, args.seed, Path(args.setup_into))

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    try:
        setup_times, directory, info = _set_up(workload, args.seed, work)
        tracer, invocations = measure(workload, directory, info, args.seed, args.seconds,
                                      bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run_failed, run_problems = workload.check_run(invocations)
    _report(workload, "run", run_problems)
    attempted = sum(inv["ops"] for inv in invocations)
    failed = min(attempted, sum(inv["failed"] for inv in invocations) + run_failed)
    if args.trace:
        metrics = per_layer_metrics(tracer, [inv["run_id"] for inv in invocations if inv["traced"]],
                                    [inv["wall_s"] for inv in invocations if not inv["traced"]])
    else:
        metrics = end_to_end(workload, setup_times, invocations)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    record = {
        "environment": environment(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": info["load"],
        "setup_s": setup_times,
        "invocations": invocations,
        "run_problems": run_problems,
        "result": result,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (results / f"{tag}.spans.json").write_text(json.dumps(tracer.dump()) + "\n")

    print("# environment " + json.dumps(record["environment"], sort_keys=True))
    print(f"# load {json.dumps(info['load'], sort_keys=True)}")
    for line in _summary(workload, args.seed, args.trace, setup_times, invocations, metrics,
                         attempted, failed):
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
