"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

It runs every workload at a tiny size in both modes and checks that each
run exits 0 and ends with one JSON object whose metrics are exactly the
end-to-end (``--trace 0``) or per-layer (``--trace 1``) metrics listed in
BENCHMARK.json, with the same units, and that every answer checked out.
It then corrupts one answer of each workload and checks that the failure
is counted, checks that the lower bound on an ``arcs`` answer rejects the
bottom element, and runs the command in a directory that holds only
BENCHMARK.json and the benchmark, where it must fail without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from weakorder import dyer, sn, tito  # noqa: E402
from weakorder.total_orders import FiniteTotalOrder  # noqa: E402

TINY_SECONDS = "0.5"


def corrupt(result):
    """A wrong answer of the same type as ``result``."""
    if isinstance(result, bool):
        return not result
    if isinstance(result, tito.Tito):
        return tito.reverse_tito(result)
    if isinstance(result, dyer.DyerElement):
        return dyer.dyer_normal_form(tito.reverse_tito(result.rep))
    if isinstance(result, sn.Permutation):
        return sn.Permutation(result.n, result.one_line[::-1])
    if isinstance(result, FiniteTotalOrder):
        return FiniteTotalOrder(frozenset() if result.invs else frozenset({(0, 1)}))
    if isinstance(result, dict):
        return {**result, "jsd": not result["jsd"]}
    code, stdout, written = result
    return code, stdout + "x", written


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_runs(spec: dict) -> list[str]:
    problems = []
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if [w["name"] for w in spec["workloads"]] != workloads.NAMES:
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for name in workloads.NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [*spec["command"], "--workload", name, "--seed", "1",
                 "--seconds", TINY_SECONDS, "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            where = f"{name} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            out = last_json(proc.stdout)
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: keys {sorted(out)}")
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                problems.append(f"{where}: {out['failed']} of {out['attempted']} failed")
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{where}: metrics or units differ from BENCHMARK.json")
            print(f"ok {where}: {out['attempted']} operations")
    return problems


def check_corruption() -> list[str]:
    problems = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for name in workloads.NAMES:
            wl = run.make_workload(name, 1, Path(tmp), traced_cli=False)
            honest = wl.run
            calls = []

            def corrupted_first(op):
                calls.append(op)
                result = honest(op)
                return corrupt(result) if len(calls) == 1 else result

            wl.run = corrupted_first
            latencies, failed = run.closed_loop(wl, count=2)
            if failed != 1:
                problems.append(f"{name}: one corrupted answer gave {failed} failures, not 1")
            else:
                print(f"ok {name}: corrupted answer counted, fail_ratio {failed / len(latencies)}")
    return problems


def check_arcs_lower_bound() -> list[str]:
    """The bottom element is below every input, so only the lower bound of
    the ``arcs`` check can reject it: take the first input that is not
    widely generated, where the answer is not the input itself."""
    from oracles import widely_generated

    wl = workloads.TitoLarge(1)
    for _ in range(1000):
        op = wl.next_op()
        if op[0] == "arcs" and not widely_generated(op[1][0]):
            break
    else:
        return ["arcs: no input that is not widely generated in 1000 operations"]
    t = op[1][0]
    bottom = tito.Tito(t.n, (tito.Block(tito.WAXING, tuple(range(1, t.n + 1))),))
    if not wl.check(op, wl.run(op)) or wl.check(op, bottom):
        return ["arcs: the bottom element is not told from the right answer"]
    print("ok arcs: the bottom element in place of the answer is counted")
    return []


def check_restore() -> list[str]:
    """Tracing wraps every public function while active and restores every
    name afterwards."""
    from spans import MODULES, Tracer, traced
    import inspect

    def bindings():
        out = {}
        for name, mod in list(sys.modules.items()):
            if name.startswith("weakorder"):
                for attr, obj in vars(mod).items():
                    if inspect.isfunction(obj):
                        out[name, attr] = obj
        zset = sys.modules["weakorder.intervals"].ZSet
        out.update({("ZSet", attr): obj for attr, obj in vars(zset).items() if inspect.isfunction(obj)})
        return out

    before = bindings()
    with traced(Tracer()):
        during = bindings()
    after = bindings()
    public = [
        key for key, obj in before.items()
        if not key[1].startswith("_") and obj.__module__.startswith("weakorder")
        and key[0].split(".")[-1] in MODULES + ("ZSet",)
    ]
    missed = [key for key in public if during[key] is before[key]]
    problems = [f"not wrapped: {key}" for key in missed]
    problems += [f"not restored: {key}" for key in before if after.get(key) is not before[key]]
    if not problems:
        print(f"ok tracing wrapped {len(public)} public names and restored all {len(before)}")
    return problems


def check_bare_directory(spec: dict) -> list[str]:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [*spec["command"], "--workload", workloads.NAMES[1], "--seed", "1",
             "--seconds", TINY_SECONDS, "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
    if proc.returncode == 0 or proc.stdout.strip():
        return ["bare directory: the command did not fail without a result"]
    print(f"ok bare directory: exit {proc.returncode}, no result")
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_runs(spec) + check_corruption() + check_arcs_lower_bound() + check_restore() + check_bare_directory(spec)
    for line in problems:
        print("FAIL " + line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
