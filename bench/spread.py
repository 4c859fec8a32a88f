"""Run the benchmark over several seeds and print each end-to-end metric's spread.

    python3 bench/spread.py --workload layered-n14 --seeds 1-10

The spread is the distance between the first and third quartile of the
runs' values, as a share of their median; BENCHMARK.json's bound is shown
beside it. Each run lasts BENCHMARK.json's run_seconds, the length the
bounds apply to. Raw results go to .bench_out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median

from stats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))

    runs = []
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)
    (ROOT / ".bench_out" / f"spread-{args.workload}.json").write_text(json.dumps(runs) + "\n")

    print(f"{'metric':30s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        print(f"{metric['name']:30s} {median(values):12.6g} "
              f"{quartile_spread(values):8.4f} {metric['bound']:6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
