"""Run the benchmark over several seeds and summarise each end-to-end metric.

Run from the repository root:

    python3 perfbench/sweep.py
    python3 perfbench/sweep.py --append perfbench/trajectory.json

Every workload in BENCHMARK.json runs once per seed 1..10, one run after
another, for BENCHMARK.json's run_seconds.  For every metric the sweep
prints the median, the quartiles and the spread (quartile distance over the
median), and marks a spread wider than the metric's bound.  With ``--append`` it adds the
summary as one point to a trajectory file.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(spec: dict, workload: str, seed: int) -> tuple[dict, dict]:
    """The result line and the ``# meta`` line of one run."""
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    meta = next(json.loads(line[len("# meta "):]) for line in lines if line.startswith("# meta "))
    return json.loads(lines[-1]), meta


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--append", type=Path, default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {}
    meta: dict = {}
    too_wide = False
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in SEEDS:
            out, meta = run_once(spec, workload, seed)
            failed += out["failed"]
            for key, metric in out["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in out["metrics"].items()), flush=True)
        rows = {}
        for key, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            flag = "" if spread <= bounds[key] else "  WIDER THAN BOUND"
            too_wide = too_wide or bool(flag)
            rows[key] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"  {workload} {key}: median {med:.4g} quartiles {q1:.4g}..{q3:.4g} "
                  f"spread {spread:.3f} (bound {bounds[key]}){flag}", flush=True)
        summary[workload] = {"failed": failed, "metrics": rows}

    if args.append is not None:
        point = {
            **{key: meta[key] for key in ("commit", "python", "numpy", "nproc")},
            "date": datetime.date.today().isoformat(),
            "machine": platform.machine(),
            "run_seconds": spec["run_seconds"],
            "seeds": list(SEEDS),
            "workloads": summary,
        }
        trajectory = json.loads(args.append.read_text()) if args.append.exists() else []
        trajectory.append(point)
        args.append.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 1 if too_wide else 0


if __name__ == "__main__":
    sys.exit(main())
