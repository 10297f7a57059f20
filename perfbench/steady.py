"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/steady.py --workload group-batch --seeds 10

Runs ``perfbench/run.py`` once per seed, one run at a time, with the
run_seconds of BENCHMARK.json.  For each end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the bound.
A spread above a third of its bound is flagged.  Use --trace 1 to collect the
per-layer metrics instead (they have no bound).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10, help="number of seeds, starting at --first")
    ap.add_argument("--first", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    values: dict[str, list[float]] = {}
    for seed in range(args.first, args.first + args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        report = json.loads(lines[-2])["report"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} digest={report['slp_digest'][:16]}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]} if args.trace == 0 else {}
    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else "  <-- above bound/3"
        print(f"{name:48s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}"
              + (f"  bound {bound}" if bound is not None else "") + flag)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
