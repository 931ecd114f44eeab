"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 perfbench/spread.py [--runs 10] [--seconds S] [--seed0 N]
                                [--workloads a,b] [--traced] [--out FILE]

Runs ``run.py`` once per seed on each workload (untraced), then prints, per
metric, the median, the quartiles as ``statistics.quantiles(values, n=4)``
gives them, and their distance as a share of the median next to the
metric's bound from ``BENCHMARK.json``. ``--traced`` adds one traced run per
workload. ``--out`` writes every run's result plus the machine record to a
JSON file.
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

import common

RUN = common.BENCH_DIR / "run.py"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run's result line, plus the run's wall time as ``elapsed_s``."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=common.ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return {**json.loads(proc.stdout.splitlines()[-1]), "elapsed_s": time.monotonic() - started}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    bench = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--seed0", type=int, default=1000)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_before": os.getloadavg(),
        "network": "loopback only",
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        seeds = range(args.seed0, args.seed0 + args.runs)
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        entry = {"seeds": list(seeds), "runs": runs, "spread": {}}
        print(f"{workload}: correct={all(r['correct'] for r in runs)} "
              f"failed={sum(r['failed'] for r in runs)} "
              f"wall per run {statistics.mean(r['elapsed_s'] for r in runs):.1f}s")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, share = spread(values)
            entry["spread"][name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": share}
            bound = bounds.get(name)
            flag = "" if bound is None or share < bound / 3 else "  <-- over a third of bound"
            print(f"  {name:20s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"iqr/median {share:7.4f}  bound {bound}{flag}")
        if args.traced:
            entry["traced"] = run_once(workload, args.seed0, args.seconds, 1)
        record["workloads"][workload] = entry
    record["loadavg_after"] = os.getloadavg()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
