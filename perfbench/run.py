"""topolab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; topolab is imported from its ``src/``.
Each workload runs as one client in a closed loop (a query starts when the
previous one returns) inside a fresh single-threaded worker process.  See
README.md in this directory for the workloads and metrics.

Times are rescaled to a reference host speed (see hostspeed.py), because
the host's speed drifts while a run measures.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload twice, untraced and then with every layer's public functions
wrapped, and prints the per-layer metrics plus the tracing overhead.
The last stdout line is the result; the exit code is nonzero, with no
result, when the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from hostspeed import K_REF_S, kernel_median  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_BUDGET_S = 165.0  # the whole invocation must end within 180 s
SETUP_SAMPLES = 9
KERNEL_RUNS = 15  # back-to-back kernel runs on each side of a timed spawn
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Function-level spans named by the metric-to-layer table in README.md.
TRACED_FUNCTIONS = (
    "subgroups.all_normal_subgroups", "subgroups.commutator_subgroup",
    "subgroups.quotient_group", "subgroups.conjugacy_classes",
    "semitop.min_steps", "semitop.is_semitopological_oracle",
    "classify.classify", "classify.is_totally_taimanov",
    "topology.taimanov_topology", "groups.build_group",
    "report.emit_lattice_dot", "report.emit_report_json",
    "permaction.PermAction.elements", "permaction.orbit_data",
    "permaction.full_symmetric_centralizer", "permaction.lemma_trivial_centralizer",
    "cli.main",
)
COUNTS = ("subgroups.lattice_size", "groups.build_group.elements", "permaction.elements")


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in output order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.self_s", "s"), (f"{layer}.calls", "count")]
    for fn in TRACED_FUNCTIONS:
        out += [(f"{fn}.self_s", "s"), (f"{fn}.calls", "count")]
    out.append(("subgroups.commutator_subgroup.repeat_ratio", "ratio"))
    out += [(name, "count") for name in COUNTS]
    out += [("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.layer_cover_frac", "ratio")]
    return out


class WorkerFailed(Exception):
    pass


def run_worker(args, rundir: str, extra: list[str], timeout: float) -> tuple[float, str]:
    """Run one worker to its end.  Returns the seconds from spawn to its
    ``ready`` line (interpreter start, import, inputs) and its stdout."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=rundir, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerFailed("worker overran the run budget") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}")
    return ready, out


def scaled_setup(args, rundir: str, extra: list[str], timeout: float) -> tuple[float, str]:
    """run_worker, with the set-up time at the reference host speed (the
    kernel timed just before and just after the spawn sets the scale)."""
    before = kernel_median(KERNEL_RUNS)
    ready, out = run_worker(args, rundir, extra, timeout)
    after = kernel_median(KERNEL_RUNS)
    return ready * K_REF_S / ((before + after) / 2), out


def measure(args, rundir: str, trace: int, budget: float) -> tuple[float, dict]:
    ready, out = scaled_setup(args, rundir, ["--trace", str(trace), "--budget", str(budget)],
                              budget + 10)
    return ready, json.loads(out.strip().splitlines()[-1])


def end_to_end(args, rundir: str, started: float) -> tuple[dict, dict]:
    setups = [scaled_setup(args, rundir, ["--setup-only"], 30)[0]
              for _ in range(SETUP_SAMPLES - 1)]
    ready, result = measure(args, rundir, 0, RUN_BUDGET_S - (time.perf_counter() - started))
    setups.append(ready)
    metrics = {
        "wall_s": (result["wall_s"], "s"),
        "slowest_query_s": (result["slowest_query_s"], "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return result, metrics


def traced(args, rundir: str, started: float) -> tuple[dict, dict]:
    _, plain = measure(args, rundir, 0, (RUN_BUDGET_S - (time.perf_counter() - started)) / 2)
    _, result = measure(args, rundir, 1, RUN_BUDGET_S - (time.perf_counter() - started))
    result["attempted"] += plain["attempted"]
    result["failed"] += plain["failed"]
    result["failures"] += plain["failures"]
    trace = result["trace"]
    self_s, calls, counts = trace["self_s"], trace["calls"], trace["counts"]
    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        values[f"{layer}.calls"] = sum(v for k, v in calls.items() if k.startswith(layer + "."))
    for fn in TRACED_FUNCTIONS:
        values[f"{fn}.self_s"] = self_s.get(fn, 0.0)
        values[f"{fn}.calls"] = calls.get(fn, 0)
    distinct = counts.get("subgroups.commutator_subgroup.distinct_args", 0)
    values["subgroups.commutator_subgroup.repeat_ratio"] = (
        calls.get("subgroups.commutator_subgroup", 0) / distinct if distinct else 0.0)
    for name in COUNTS:
        values[name] = counts.get(name, 0)
    values["trace.wall_s"] = result["wall_s"]
    values["trace.overhead_s"] = result["wall_s"] - plain["wall_s"]
    values["trace.layer_cover_frac"] = trace["cover_frac"]
    return result, {name: (values[name], unit) for name, unit in per_layer_metrics()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    rundir = os.path.join(HERE, "runs", args.workload)
    os.makedirs(rundir, exist_ok=True)
    try:
        result, metrics = (traced if args.trace else end_to_end)(args, rundir, started)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for why in result["failures"]:
        print(f"failed: {why}", file=sys.stderr)
    print(f"passes: {result['passes']}, unscaled wall_s: {result['unscaled_wall_s']:.4f}",
          file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
