"""Alternating parent/change pairs of perfbench runs, written to BENCH_<topic>.json.

    python3 tools/pairs.py --topic group_batch_reuse --workloads group-batch --pairs 10

The change is this checkout's working tree; the parent is a ``git worktree``
of --base (default HEAD~1), or an existing checkout given as --base-dir.  A
--base-dir, say a ``git archive`` export with no ``.git`` to read, must come
with --base-commit, the commit it holds, which the file records as
``base.commit``; without it the script refuses (exit 2) before any run.
Each pair runs ``perfbench/run.py --workload W --seed S --seconds N`` once in
each tree, one run at a time, the parent first in even pairs and the change
first in odd ones, so drift in machine speed falls on both sides.  Pair i uses
seed ``first + 10 * i`` (1, 11, 21, ... by default).

For every end-to-end metric of BENCHMARK.json the file records each side's
median and quartiles (``statistics.quantiles(n=4)``), the pairs the change
won (ties count for neither side), and whether the medians differ by more
than the parent's own quartile spread.  It also records the ``slp_digest`` of
both sides per seed, whether every run passed the checker, the source lines
under ``src/`` of both trees, and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def src_lines(tree: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((tree / "src").rglob("*.py")))


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in ``tree``: its metric values, digest and verdict."""
    cmd = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=20 * seconds + 600)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"pairs: {' '.join(cmd)} in {tree} printed no report (exit {proc.returncode})\n{proc.stderr}")
    result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
    return {
        "exit": proc.returncode,
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "slp_digest": report["slp_digest"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(metric: dict, base_runs: list[dict], change_runs: list[dict]) -> dict:
    name, higher = metric["name"], metric["better"] == "higher"
    pairs = [(b["metrics"].get(name), c["metrics"].get(name)) for b, c in zip(base_runs, change_runs)]
    pairs = [(b, c) for b, c in pairs if b is not None and c is not None]
    if not pairs:
        return {"unit": metric["unit"], "better": metric["better"], "pairs": 0}
    base, change = summarise([b for b, _ in pairs]), summarise([c for _, c in pairs])
    wins = sum((c > b) if higher else (c < b) for b, c in pairs)
    gap = change["median"] - base["median"]
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "pairs": len(pairs),
        "base": base,
        "change": change,
        "change_wins": wins,
        "change_losses": sum((c < b) if higher else (c > b) for b, c in pairs),
        "median_change_share": gap / base["median"] if base["median"] else None,
        "gap_exceeds_base_iqr": abs(gap) > base["q3"] - base["q1"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--topic", required=True, help="the file written is BENCH_<topic>.json at the repository root")
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--first", type=int, default=1, help="seed of the first pair")
    where = ap.add_mutually_exclusive_group()
    where.add_argument("--base", default="HEAD~1", help="git ref checked out as the parent")
    where.add_argument("--base-dir", type=Path, help="an existing checkout to use as the parent")
    ap.add_argument("--base-commit", help="the commit --base-dir holds (required with it)")
    args = ap.parse_args(argv)
    if bool(args.base_dir) != bool(args.base_commit):
        ap.error("--base-dir and --base-commit go together: the file records the parent's commit")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",")
    seeds = [args.first + 10 * i for i in range(args.pairs)]

    scratch = None
    if args.base_dir:
        base_tree, base_ref = args.base_dir.resolve(), None
    else:
        scratch = Path(tempfile.mkdtemp(prefix="slpforge-pairs-"))
        base_tree, base_ref = scratch / "base", args.base
        git("worktree", "add", "--detach", str(base_tree), base_ref)
    try:
        out = {
            "topic": args.topic,
            "command": bench["command"],
            "seconds": seconds,
            "pairs": args.pairs,
            "seeds": seeds,
            "order": "parent first in even pairs (0-based), change first in odd pairs",
            "base": {
                "ref": base_ref,
                "commit": args.base_commit or git("rev-parse", "HEAD", cwd=base_tree),
            },
            "change": {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "--", "src"))},
            "machine": {
                "cpus": os.cpu_count(),
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
            "src_lines": {"base": src_lines(base_tree), "change": src_lines(ROOT)},
            "workloads": {},
        }
        out["src_lines"]["net"] = out["src_lines"]["change"] - out["src_lines"]["base"]
        for workload in workloads:
            base_runs, change_runs = [], []
            for i, seed in enumerate(seeds):
                sides = [(base_tree, base_runs), (ROOT, change_runs)]
                for tree, runs in sides if i % 2 == 0 else sides[::-1]:
                    runs.append(run_once(tree, bench["command"], workload, seed, seconds))
                b, c = base_runs[-1], change_runs[-1]
                print(f"{workload} seed {seed}: " + "  ".join(
                    f"{m['name']} {b['metrics'].get(m['name'], float('nan')):.4g} -> "
                    f"{c['metrics'].get(m['name'], float('nan')):.4g}" for m in bench["end_to_end"][:2]
                ) + f"  digests {'equal' if b['slp_digest'] == c['slp_digest'] else 'DIFFER'}", flush=True)
            out["workloads"][workload] = {
                "correct": all(r["correct"] and r["exit"] == 0 for r in base_runs + change_runs),
                "fail_share": {
                    side: sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
                    for side, runs in (("base", base_runs), ("change", change_runs))
                },
                "metrics": {m["name"]: compare(m, base_runs, change_runs) for m in bench["end_to_end"]},
                "digests": [
                    {"seed": s, "base": b["slp_digest"][:16], "change": c["slp_digest"][:16],
                     "equal": b["slp_digest"] == c["slp_digest"]}
                    for s, b, c in zip(seeds, base_runs, change_runs)
                ],
                "runs": {"base": [r["metrics"] for r in base_runs], "change": [r["metrics"] for r in change_runs]},
            }
        path = ROOT / f"BENCH_{args.topic}.json"
        path.write_text(json.dumps(out, indent=1) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    finally:
        if scratch is not None:
            git("worktree", "remove", "--force", str(base_tree))
            shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
