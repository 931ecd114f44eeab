"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 perfbench/smoke.py

Runs every workload of ``run.py`` (those ``BENCHMARK.json`` lists and the
extra ones) for one second at a twentieth of its size, untraced and traced,
and checks that the result line names every declared metric with its
declared unit, that outputs were correct, and that no target failed. Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys

import common
from run import WORKLOADS

SCALE = "0.05"


def check(workload: str, trace: int, declared: dict[str, str]) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", SCALE],
        cwd=common.ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if not result["correct"]:
        errors.append(f"incorrect outputs: {proc.stderr.strip()[-500:]}")
    if result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"attempted {result['attempted']}, failed {result['failed']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        errors.append(f"metrics differ from BENCHMARK.json: {set(got) ^ set(declared)}")
    if trace == 0 and result["metrics"].get("ok_share", {}).get("value") != 1.0:
        errors.append("ok_share is not 1, so failed_share is not 0")
    return errors


def main() -> int:
    bench = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            errors = check(workload, trace, declared[trace])
            print(f"{workload} trace={trace}: {'ok' if not errors else 'FAIL'}")
            for error in errors:
                print(f"  {error}")
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
