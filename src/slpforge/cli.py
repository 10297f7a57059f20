"""Command-line surface: generate, classify, compress, verify, member, bench.

All randomness is seeded via --seed; rows of the bench CSV are sorted before
writing so identical seeds give byte-identical artifacts (pass --no-time to
zero out the wall-clock column, which is otherwise measured).  Exit code 2
signals an input error with a diagnostic line on stderr; member uses 0 for
member and 1 for non-member.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time

from . import zoo
from .classify import Config, classify
from .compressors import STRATEGIES, check_strategy, compress
from .errors import SlpforgeError
from .groups import group_view
from .io import read_cay, read_slp, write_cay, write_slp
from .membership import member_oracle
from .semigroup import cached_closure
from .slp import verify as verify_slp


def _config(args) -> Config:
    cfg = Config()
    if getattr(args, "kmax", None) is not None:
        cfg.kmax = args.kmax
    if getattr(args, "budget", None) is not None:
        cfg.scan_budget = args.budget
    return cfg


def _parse_params(args) -> list[int]:
    if args.params:
        return [int(x) for x in args.params.split(",") if x != ""]
    if args.n is not None:
        return [args.n]
    return []


def _gens_from(args, sidecar):
    if args.gens:
        return [int(x) for x in args.gens.split(",")]
    return sidecar


def cmd_zoo(args) -> int:
    for family in sorted(zoo.FAMILIES):
        print(f"{family}: {zoo.FAMILIES[family]}")
    return 0


def cmd_gen(args) -> int:
    S, gens, target = zoo.build_family(args.family, _parse_params(args))
    write_cay(args.out, S, gens=gens, target=target)
    print(f"wrote {args.out}: n={S.n}" + (f" target={target}" if target is not None else ""))
    return 0


def cmd_classify(args) -> int:
    S, gens, _ = read_cay(args.cayley)
    report = classify(S, _gens_from(args, gens), _config(args))
    for key in (
        "completely_regular",
        "commutation_level",
        "sandwich_level",
        "rb_ideal_level",
        "stable_ideal_level",
        "is_band",
        "is_normal_band",
        "is_lrb",
        "is_rrb",
        "is_group",
        "groups_solvable",
        "recommended",
    ):
        print(f"{key}={getattr(report, key)}")
    return 0


def cmd_compress(args) -> int:
    S, gens, sidecar_target = read_cay(args.cayley)
    gens = _gens_from(args, gens)
    if gens is None:
        raise SlpforgeError("no generators: pass --gens or use a file with a GENS line")
    target = args.target if args.target is not None else sidecar_target
    if target is None:
        raise SlpforgeError("no target: pass --target or use a file with a TARGET line")
    report = compress(S, gens, target, args.strategy, _config(args))
    if args.out:
        write_slp(args.out, report.slp)
    print(
        f"strategy={report.strategy} length={report.length} "
        f"width={report.width} verified={report.verified}"
    )
    return 0


def cmd_verify(args) -> int:
    S, _, sidecar_target = read_cay(args.cayley)
    prog = read_slp(args.slp)
    target = args.target if args.target is not None else sidecar_target
    if target is None:
        raise SlpforgeError("no target given")
    ok = verify_slp(S, prog, target, group=group_view(S) if prog.is_group else None)
    print(f"length={prog.length} width={prog.width} verified={ok}")
    return 0 if ok else 1


def cmd_member(args) -> int:
    S, gens, sidecar_target = read_cay(args.cayley)
    gens = _gens_from(args, gens)
    if gens is None:
        raise SlpforgeError("no generators given")
    target = args.target if args.target is not None else sidecar_target
    if target is None:
        raise SlpforgeError("no target given")
    if args.certify:
        from .membership import member_certified

        answer = member_certified(S, gens, target, args.strategy, _config(args))
        if answer.member:
            print(
                f"member certificate: length={answer.report.length} "
                f"width={answer.report.width} strategy={answer.report.strategy}"
            )
        else:
            print("non-member")
        return 0 if answer.member else 1
    is_member = member_oracle(S, gens, target)
    print("member" if is_member else "non-member")
    return 0 if is_member else 1


def _bench_case(S, gens, target, strategy, cfg, no_time):
    t0 = time.perf_counter()
    try:
        report = compress(S, gens, target, strategy, cfg)
        length, width, ok = report.length, report.width, True
    except SlpforgeError:
        length, width, ok = -1, -1, False
    ms = 0.0 if no_time else (time.perf_counter() - t0) * 1000.0
    return length, width, ok, ms


def cmd_bench(args) -> int:
    cfg = _config(args)
    rng = random.Random(args.seed)
    instances = [s for s in args.instances.split(";") if s] if args.instances else []
    strategies = [s for s in args.strategies.split(",") if s]
    for strat in strategies:
        check_strategy(strat)
    cases = []
    for inst in instances:
        params = [int(x) for x in inst.split(",")]
        S, gens, target = zoo.build_family(args.family, params)
        members = sorted(cached_closure(S, gens))
        targets = []
        if target is not None:
            targets.append(target)
        pool = [m for m in members if m not in targets]
        want = max(0, args.targets - len(targets))
        if pool and want:
            targets.extend(rng.sample(pool, min(want, len(pool))))
        for t in targets:
            for strat in strategies:
                cases.append((args.family, inst, S, gens, t, strat))

    # cases on one instance share its Semigroup, so its memoised structure
    # (closure, plans, cubes) is built once per generator set
    results = []
    for family, inst, S, gens, t, strat in cases:
        length, width, ok, ms = _bench_case(S, gens, t, strat, cfg, args.no_time)
        results.append(
            (family, inst, S.n, t, strat, length, width, math.log2(S.n), ok, ms)
        )
    results.sort(key=lambda r: (r[0], r[1], r[2], r[3], r[4]))

    lines = ["family,params,N,target,strategy,length,width,log2N,verified,ms"]
    for family, inst, n, t, strat, length, width, log2n, ok, ms in results:
        lines.append(
            f"{family},{inst.replace(',', ' ')},{n},{t},{strat},{length},{width},"
            f"{log2n:.4f},{str(ok).lower()},{ms:.3f}"
        )
    summary: dict[tuple[str, str, int], int] = {}
    for family, inst, n, t, strat, length, width, log2n, ok, ms in results:
        if not ok:
            continue
        key = (family, strat, n)
        summary[key] = max(summary.get(key, 0), length)
    for (family, strat, n) in sorted(summary):
        lines.append(f"# summary family={family} strategy={strat} N={n} max_length={summary[(family, strat, n)]}")
    fits: dict[tuple[str, str], list[tuple[float, int]]] = {}
    for (family, strat, n), maxlen in summary.items():
        fits.setdefault((family, strat), []).append((math.log2(n), maxlen))
    for (family, strat) in sorted(fits):
        pts = sorted(fits[(family, strat)])
        if len(pts) >= 2:
            xs = [p[0] for p in pts]
            ys = [p[1] for p in pts]
            n_ = len(pts)
            sx, sy = sum(xs), sum(ys)
            sxx = sum(x * x for x in xs)
            sxy = sum(x * y for x, y in zip(xs, ys))
            denom = n_ * sxx - sx * sx
            slope = (n_ * sxy - sx * sy) / denom if denom else 0.0
            intercept = (sy - slope * sx) / n_
            lines.append(
                f"# fit family={family} strategy={strat} slope={slope:.4f} intercept={intercept:.4f}"
            )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    bad = sum(1 for r in results if not r[8])
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slpforge",
        description="straight-line program compression over finite Cayley tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zoo", help="list generator families and parameter bounds")
    p.set_defaults(func=cmd_zoo)

    p = sub.add_parser("gen", help="generate a family member as a .cay file")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--params", default=None, help="comma-separated parameters")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("classify", help="print structural flags of a table")
    p.add_argument("--cayley", required=True)
    p.add_argument("--gens", default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("compress", help="compress a target into a .slp certificate")
    p.add_argument("--cayley", required=True)
    p.add_argument("--gens", default=None)
    p.add_argument("--target", type=int, default=None)
    p.add_argument("--strategy", default="auto", choices=("auto", *STRATEGIES))
    p.add_argument("--out", default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("verify", help="check a .slp against a table and target")
    p.add_argument("--cayley", required=True)
    p.add_argument("--slp", required=True)
    p.add_argument("--target", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("member", help="Cayley-table membership (exit 0/1/2)")
    p.add_argument("--cayley", required=True)
    p.add_argument("--gens", default=None)
    p.add_argument("--target", type=int, default=None)
    p.add_argument("--strategy", default="auto", choices=("auto", *STRATEGIES))
    p.add_argument("--certify", action="store_true", help="also emit a verified certificate")
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("bench", help="sweep a family and write a CSV")
    p.add_argument("--family", required=True)
    p.add_argument("--instances", required=True, help="semicolon-separated parameter tuples")
    p.add_argument("--strategies", default="auto")
    p.add_argument("--targets", type=int, default=3, help="targets per instance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--no-time", action="store_true", help="write ms=0 for reproducible files")
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SlpforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
