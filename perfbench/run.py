"""slpforge benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload zoo-auto --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ./src.  All
requests run in this one process, one at a time (a closed loop with one
client).  Inputs come only from --seed.  Every output is replayed by the
independent checker; any failure makes ``correct`` false and the exit code 1.

--trace 0 runs whole rounds of requests until --seconds have passed, and at
least ``min_rounds``.  ``setup_s`` is the import time plus the median of
SETUP_REPS set-ups, made before the first round and between later ones so
that they sample the machine at different moments.  Every round holds one
request of each kind (a zoo instance, a group and strategy, a size band and
query type), so ``latency_p50_ms`` is the median over kinds of each kind's
median latency: the median request of a typical round.  Over a fixed mix
the plain sample median would sit in the gap between two kinds' clusters
and swing with the slowest request of one and the fastest of the other.

--trace 1 runs ``trace_rounds`` rounds on two fresh set-ups in lockstep,
each request once plain and once with every function in ``tracer.LAYERS``
wrapped, alternating which goes first, so that drift in machine speed
cancels out of the overhead.  The traced set-up and rounds give the per-layer
metrics; the plain rounds are the base for the tracing overhead.  Round
counts are fixed, so call counts repeat exactly for a seed.

Both modes print a sha256 digest of the canonical .slp outputs (and
non-member answers) of the first ``trace_rounds`` rounds, which every run
completes, so the digest depends on the seed and the program only.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
P90_MIN_REQUESTS = 100


def load_program() -> float:
    """Import slpforge from ./src; return the import time in seconds."""
    src = ROOT / "src"
    if not (src / "slpforge" / "__init__.py").is_file():
        sys.exit(f"perfbench: no slpforge package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    start = perf_counter()
    import slpforge  # noqa: F401

    return perf_counter() - start


class Tally:
    """Outcomes of the requests of one pass."""

    def __init__(self):
        self.latencies: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.lengths: list[int] = []
        self.widths: list[int] = []
        self.attempted = 0
        self.verified = 0
        self.failed = 0
        self.errors: list[str] = []
        self.auto = 0
        self.fallbacks = 0
        self.digest = hashlib.sha256()
        self.digest_requests = 0

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    def fail(self, key: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{key}: {type(exc).__name__}: {exc}")


def run_request(wl, req, r: int, tally: Tally, tracer=None) -> None:
    """Time one request of round r and check its output."""
    from checker import CheckError

    tally.attempted += 1
    if tracer is not None:
        tracer.request = tally.attempted
    t0 = perf_counter()
    try:
        out = wl.run(req)
    except Exception as exc:  # a raising request is a failed one
        tally.fail(req.key, exc)
        return
    finally:
        if tracer is not None:
            tracer.request = None
    tally.latencies.append(perf_counter() - t0)
    tally.by_kind.setdefault(req.kind, []).append(tally.latencies[-1])
    try:
        checked = wl.check(req, out)
    except CheckError as exc:
        tally.fail(req.key, exc)
        return
    tally.verified += 1
    if checked.size is not None:
        tally.lengths.append(checked.size[0])
        tally.widths.append(checked.size[1])
    tally.auto += checked.auto
    tally.fallbacks += checked.fallback
    if r < wl.trace_rounds:
        tally.digest.update(f"{req.key}\n{checked.slp_text or 'non-member'}\n".encode())
        tally.digest_requests += 1


def timed_setup(wl) -> float:
    start = perf_counter()
    wl.setup()
    return perf_counter() - start


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl, seconds: int, import_s: float) -> tuple[Tally, dict, dict]:
    setups = [timed_setup(wl)]
    wl.prepare()
    tally = Tally()
    start = perf_counter()
    r = 0
    while r < wl.min_rounds or perf_counter() - start < seconds:
        for req in wl.requests(r):
            run_request(wl, req, r, tally)
        if len(setups) < SETUP_REPS:
            setups.append(timed_setup(type(wl)(wl.seed)))  # a throwaway copy
        r += 1
    while len(setups) < SETUP_REPS:
        setups.append(timed_setup(type(wl)(wl.seed)))
    extra = {"fail_share": metric(tally.failed / tally.attempted, "ratio"), "rounds": r}
    if not tally.lengths:  # no program passed the checker, so no metric is defined
        return tally, {}, extra
    metrics = {
        "targets_per_s": metric(tally.verified / tally.busy_s, "1/s"),
        "latency_p50_ms": metric(1e3 * statistics.median(map(statistics.median, tally.by_kind.values())), "ms"),
        "setup_s": metric(import_s + statistics.median(setups), "s"),
        "slp_length_mean": metric(statistics.fmean(tally.lengths), "instr"),
        "slp_width_mean": metric(statistics.fmean(tally.widths), "registers"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra["slp_width_max"] = metric(max(tally.widths), "registers")
    if len(tally.latencies) >= P90_MIN_REQUESTS:
        extra["latency_p90_ms"] = metric(1e3 * statistics.quantiles(tally.latencies, n=10)[-1], "ms")
    return tally, metrics, extra


def per_layer(wl) -> tuple[Tally, dict, dict]:
    from tracer import LAYERS, Tracer

    plain = type(wl)(wl.seed)
    plain.setup()
    plain.prepare()
    tracer = Tracer()
    with tracer.installed():
        wl.setup()
    wl.prepare()
    plain_tally, traced = Tally(), Tally()
    for r in range(wl.trace_rounds):
        for i, (plain_req, req) in enumerate(zip(plain.requests(r), wl.requests(r))):
            if i % 2:
                run_request(plain, plain_req, r, plain_tally)
            with tracer.installed():
                run_request(wl, req, r, traced, tracer)
            if not i % 2:
                run_request(plain, plain_req, r, plain_tally)
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{wl.name}-seed{wl.seed}.jsonl"
    tracer.write(spans_file)

    metrics = {}
    layers = tracer.per_layer()
    for label in LAYERS:
        calls, self_s = layers[label]
        metrics[f"{label}.calls"] = metric(calls, "count")
        metrics[f"{label}.self_s"] = metric(self_s, "s")
    metrics["classify.fallback_share"] = metric(traced.fallbacks / traced.auto if traced.auto else 0.0, "ratio")
    metrics["trace.coverage_share"] = metric(tracer.request_coverage() / traced.busy_s, "ratio")
    metrics["trace.overhead_share"] = metric(traced.busy_s / plain_tally.busy_s - 1.0, "ratio")
    extra = {"rounds": wl.trace_rounds, "spans": len(tracer.spans), "spans_file": str(spans_file.relative_to(ROOT))}

    traced.attempted += plain_tally.attempted
    traced.failed += plain_tally.failed
    traced.errors += plain_tally.errors
    return traced, metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_s = load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)
    if args.trace:
        tally, metrics, extra = per_layer(wl)
    else:
        tally, metrics, extra = end_to_end(wl, args.seconds, import_s)

    for name, m in [*metrics.items(), *((k, v) for k, v in extra.items() if isinstance(v, dict))]:
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "requests": len(tally.latencies),
        "slp_digest": tally.digest.hexdigest(),
        "digest_requests": tally.digest_requests,
        "errors": tally.errors,
        **extra,
    }
    print(json.dumps({"report": report}))
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
