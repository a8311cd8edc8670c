"""The weakorder benchmark: one command, four seeded closed-loop workloads.

Run from the repository root; the package is imported from ``src``:

    python3 perfbench/run.py --workload tito-large --seed 1 --seconds 25 --trace 0

Workloads (one caller, one process; the next operation starts when the
previous one returns):

    cli-cold       one fresh ``python -m weakorder.cli`` process per operation
    tito-large     joins, meets and biclosed images of periodic orders, n = 16
    perm-large     joins and meets of nearby elements of S_80 and of total
                   orders with 60-wide support
    lab-quotients  lattice and semidistributivity checks on finite quotients

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it runs a fixed number of operations, each once untraced and once traced,
and prints per-layer calls and self time.  Every answer is checked outside the timed
region; the last line of output is one JSON object.

``perfbench/selftest.py`` checks the benchmark itself, and
``perfbench/sweep.py`` runs it over ten seeds and summarises the spread.
"""

from __future__ import annotations

import os

# Set before numpy loads, here and in every child process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import MODULES, Tracer, merge, traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# set-up is timed this many times, spread evenly through an untraced run
SETUP_RUNS = 15
IMPORTTIME_RUNS = 3
SEGMENTS = 5
WARMUP_OPS = 2
TOP_LAYERS = 12
# Operations a traced run makes, each once untraced and once traced, for
# --seconds 20 and scaled to it; together they take about half the budget.
TRACE_OPS = {"cli-cold": 18, "tito-large": 400, "perm-large": 400, "lab-quotients": 10}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

_TRACED_FUNCTIONS = [
    "cli.main",
    "tito.join_tito", "tito.meet_tito", "tito.decode", "tito.encode",
    "tito.normalize_tito", "tito.reverse_tito", "tito.lt_tito", "tito.leq_tito",
    "tito.lower_wrapped_arcs", "tito.join_of_cyclic_collection",
    "intervals.ZSet.sumset", "intervals.ZSet.union", "intervals.ZSet.issubset",
    "crossing.tuples_cross",
    "dyer.dyer_join", "dyer.dyer_meet", "dyer.dyer_normal_form",
    "sn.join_sn", "sn.meet_sn", "sn.closure_pairs", "sn.interior_pairs",
    "sn.permutation_from_inversions", "sn.inversions",
    "total_orders.join_tot", "total_orders.meet_tot", "total_orders.finite_total_order",
    "lattices.check_lattice", "lattices.is_join_semidistributive_fin",
    "lattices.is_meet_semidistributive_fin", "lattices.finite_poset",
    "lattices.weak_order_poset", "lattices.tot_quotient", "lattices.tito_quotient",
    "lattices.congruence_generated_by", "lattices.canonical_join_rep_fin",
    "render.render_hasse", "render.render_arcs",
]

PER_LAYER = {}
for _fn in _TRACED_FUNCTIONS:
    PER_LAYER[_fn + ".calls"] = "count"
    PER_LAYER[_fn + ".self_s"] = "s"
PER_LAYER.update({
    "lattices.tito_quotient.kept": "count",
    "lattices.tito_quotient.tried": "count",
    "import.numpy.self_s": "s",
    "import.weakorder.self_s": "s",
})
PER_LAYER.update({f"{layer}.errors": "count" for layer in MODULES})
PER_LAYER["trace.overhead_ratio"] = "ratio"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def time_setup(env: dict) -> float:
    """Wall time for a fresh interpreter to import the CLI."""
    t0 = time.perf_counter()
    # No timeout: with one, the wait polls in sleeps of up to 50 ms, which
    # rounds the time to that step.
    subprocess.run([sys.executable, "-c", "import weakorder.cli"], env=env, check=True)
    return time.perf_counter() - t0


def import_self_times(env: dict) -> dict:
    """Self time of numpy's and the package's modules, from -X importtime."""
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import weakorder.cli"],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        totals = {"numpy": 0, "weakorder": 0}
        for m in re.finditer(r"^import time:\s+(\d+) \|\s+\d+ \|\s+(\S+)$", proc.stderr, re.M):
            top = m.group(2).split(".")[0]
            if top in totals:
                totals[top] += int(m.group(1))
        runs.append(totals)
    return {
        f"import.{top}.self_s": statistics.median(r[top] for r in runs) / 1e6
        for top in ("numpy", "weakorder")
    }


def make_workload(name: str, seed: int, workdir: Path, traced_cli: bool):
    import workloads

    if name == "cli-cold":
        runner = [sys.executable, str(HERE / "cli_child.py")] if traced_cli else [sys.executable, "-m", "weakorder.cli"]
        env = child_env()
        env["PERFBENCH_SUMMARY_DIR"] = str(workdir)
        return workloads.CliCold(seed, workdir, env, runner)
    return workloads.IN_PROCESS[name](seed)


def closed_loop(wl, seconds: float = math.inf, count: float = math.inf, tracer=None) -> tuple[list[float], int]:
    """Run operations back to back until ``seconds`` of operation time or
    ``count`` operations are used up; return the latencies and the number
    of operations that failed.

    Making an operation and checking its answer stay outside the timed
    region and outside the trace.  Each answer is checked and dropped
    before the next operation, so memory does not grow with the run.
    """
    latencies: list[float] = []
    busy = 0.0
    failed = 0
    while len(latencies) < count and busy < seconds:
        op = wl.next_op()
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = wl.run(op)
        except Exception as exc:  # an operation that raises counts as failed
            result = exc
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        latencies.append(t1 - t0)
        busy += t1 - t0
        failed += not answer_ok(wl, op, result)
    return latencies, failed


def answer_ok(wl, op, result) -> bool:
    if isinstance(result, Exception):
        return False
    try:
        return bool(wl.check(op, result))
    except Exception:  # an answer the check cannot even read is wrong
        return False


def nearest_rank(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """The pct-th percentile by nearest rank, and how many samples lie beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def segment_rate(latencies: list[float]) -> float:
    """Median over consecutive segments of operations per busy second, so a
    burst of load from elsewhere on the machine moves one segment, not the
    figure."""
    size = max(1, len(latencies) // SEGMENTS)
    chunks = [latencies[k:k + size] for k in range(0, len(latencies) - size + 1, size)]
    return statistics.median(len(c) / sum(c) for c in chunks)


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def run_untraced(name: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, int, int, dict]:
    env = child_env()
    wl = make_workload(name, seed, workdir, traced_cli=False)
    warm = make_workload(name, seed + 1_000_003, workdir, traced_cli=False)
    closed_loop(warm, count=WARMUP_OPS)
    # Set-up is timed between stretches of the run rather than in one burst
    # before it, so a change of load on the machine reaches both figures.
    setup_times: list[float] = []
    latencies: list[float] = []
    failed = 0
    for k in range(1, SETUP_RUNS + 1):
        setup_times.append(time_setup(env))
        lat, bad = closed_loop(wl, seconds=seconds * k / SETUP_RUNS - sum(latencies))
        latencies += lat
        failed += bad
    tail, beyond = nearest_rank(sorted(latencies), wl.tail_pct)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": segment_rate(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_tail_ms": tail * 1000,
        "peak_rss_mb": peak_rss_mb(name),
    }
    extra = {
        "fail_ratio": failed / len(latencies),
        "tail_percentile": wl.tail_pct,
        "samples": len(latencies),
        "samples_beyond_tail": beyond,
    }
    return metrics, len(latencies), failed, extra


def run_traced(name: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, int, int, dict]:
    count = max(1, round(TRACE_OPS[name] * seconds / 20))
    metrics = import_self_times(child_env())
    closed_loop(make_workload(name, seed + 1_000_003, workdir, traced_cli=False), count=WARMUP_OPS)
    # Two copies of the same operation sequence, one untraced and one traced,
    # run alternately one operation at a time, so that a change in machine
    # speed during the run falls on both sides of the overhead ratio.
    plain = make_workload(name, seed, workdir, traced_cli=False)
    wl = make_workload(name, seed, workdir, traced_cli=True)
    tracer = Tracer()
    base: list[float] = []
    latencies: list[float] = []
    failed = 0
    for _ in range(count):
        lat, bad = closed_loop(plain, count=1)
        base += lat
        failed += bad
        if name == "cli-cold":  # the child process traces itself
            lat, bad = closed_loop(wl, count=1)
        else:
            with traced(tracer):
                lat, bad = closed_loop(wl, count=1, tracer=tracer)
        latencies += lat
        failed += bad
    if name == "cli-cold":
        summary: dict = {}
        for path in sorted(workdir.glob("*.json")):
            merge(summary, json.loads(path.read_text()))
            path.unlink()
    else:
        summary = tracer.summary()

    metrics["trace.overhead_ratio"] = sum(base) / sum(latencies)
    for key in PER_LAYER:
        head, _, field = key.rpartition(".")
        if key in metrics:
            continue
        if field in ("calls", "self_s", "errors"):
            metrics[key] = summary.get(field, {}).get(head, 0)
        else:
            metrics[key] = summary.get("counts", {}).get(key, 0)
    top = sorted(summary.get("self_s", {}).items(), key=lambda kv: -kv[1])[:TOP_LAYERS]
    extra = {"traced_ops": count, "spans": summary.get("spans", 0), "top_self_s": dict(top)}
    return metrics, 2 * count, failed, extra


def metadata(name: str, seed: int, seconds: float, trace: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    import numpy

    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": commit, "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def main(argv: list[str] | None = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = run_traced if args.trace else run_untraced
        metrics, attempted, failed, extra = runner(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    print("# meta " + json.dumps(metadata(args.workload, args.seed, args.seconds, args.trace)))
    print("# run " + json.dumps(extra))
    if not args.trace:
        for key in END_TO_END:
            print(f"# {key} = {metrics[key]:.6g} {units[key]}")
        print(f"# fail_ratio = {extra['fail_ratio']:.6g} ({failed}/{attempted})")
        print(f"# latency_tail_ms is p{extra['tail_percentile']:g} of {extra['samples']} samples")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (SRC / "weakorder" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
