"""The three workloads: how each builds its inputs, issues requests and checks them.

A workload is built from a seed.  ``setup`` makes every input the program
receives (timed as ``setup_s``), ``prepare`` gets the independent checker
ready (untimed), and ``requests(r)`` lists round r.  A round is a fixed mix of
request kinds, so a run made of whole rounds has the same mix whatever its
length.  Every run completes ``trace_rounds`` <= ``min_rounds`` rounds.
``run`` is the timed call into slpforge; ``check`` replays the output
through ``checker`` and returns the canonical .slp text (None for a
non-member answer) with the program's (length, width).

slpforge is reached through module attributes at call time (``slpforge.io``,
``slpforge.compress``), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Optional

import slpforge
import slpforge.io
import slpforge.zoo

import checker
import randsemi


@dataclass
class Request:
    key: str           # names the request inside the digest
    kind: str          # the slot the request fills in every round
    text: str          # the .cay input
    rows: list         # the checker's own copy of the table
    gens: list[int]
    target: int
    strategy: str = "auto"
    table: Any = None  # a Semigroup built in setup (library-session workloads)


@dataclass
class Checked:
    slp_text: Optional[str]
    size: Optional[tuple[int, int]]
    auto: bool
    fallback: bool


def _round_rng(seed: int, name: str, r: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{r}")


def _fallback(report) -> bool:
    return bool(report.extras.get("fallback"))


class ZooAuto:
    """One-shot CLI-style requests: parse, classify and compress, dump.

    A round is one seeded member target on each instance.  A5 is the one
    table on which ``auto`` takes the non-solvable group branch.
    """

    name = "zoo-auto"
    min_rounds = 4
    trace_rounds = 2
    INSTANCES = (
        ("rb", (30, 30)),
        ("power-witness", (6, 4)),
        ("dihedral", (512,)),
        ("heisenberg", (7,)),
        ("rb-x-cyclic", (6, 6, 8)),
        ("semilattice", (8,)),
        ("lrb-witness", (8,)),
        ("nilpotent-rb", (3, 3, 4, 2)),
        ("alt", (5,)),
    )

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.instances = []
        for family, params in self.INSTANCES:
            S, gens, _ = slpforge.zoo.build_family(family, params)
            self.instances.append((f"{family}{params}", slpforge.io.dump_cay(S, gens), gens))

    def prepare(self) -> None:
        self.rows = {}
        self.members = {}
        for label, text, gens in self.instances:
            rows = checker.parse_table(text)
            self.rows[label] = rows
            self.members[label] = sorted(checker.closure(rows, gens))

    def requests(self, r: int) -> list[Request]:
        rng = _round_rng(self.seed, self.name, r)
        out = []
        for label, text, gens in self.instances:
            t = rng.choice(self.members[label])
            out.append(Request(f"{label}:{t}", label, text, self.rows[label], gens, t))
        return out

    def run(self, req: Request):
        S, _, _ = slpforge.io.parse_cay(req.text)
        report = slpforge.compress(S, req.gens, req.target, "auto")
        return report, slpforge.io.dump_slp(report.slp)

    def check(self, req: Request, out) -> Checked:
        report, slp_text = out
        if not report.verified:
            raise checker.CheckError("program reported unverified")
        size = checker.check_program(req.rows, req.gens, req.target, slp_text)
        return Checked(slp_text, size, True, _fallback(report))


class GroupBatch:
    """A library session: many targets and three group strategies on one table each."""

    name = "group-batch"
    min_rounds = 2
    trace_rounds = 2
    GROUPS = (("dihedral", (256,)), ("heisenberg", (7,)))
    STRATEGIES = ("group-solvable", "group-solvable-bw", "group-bsz")
    TARGETS = 8

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.groups = []
        for family, params in self.GROUPS:
            S, gens, _ = slpforge.zoo.build_family(family, params)
            self.groups.append((f"{family}{params}", S, slpforge.io.dump_cay(S, gens), gens))

    def prepare(self) -> None:
        self.rows = {}
        self.members = {}
        for label, _, text, gens in self.groups:
            self.rows[label] = checker.parse_table(text)
            self.members[label] = sorted(checker.closure(self.rows[label], gens))

    def requests(self, r: int) -> list[Request]:
        rng = _round_rng(self.seed, self.name, r)
        out = []
        for label, S, text, gens in self.groups:
            for strategy in self.STRATEGIES:
                for _ in range(self.TARGETS):
                    t = rng.choice(self.members[label])
                    kind = f"{label}:{strategy}"
                    out.append(Request(f"{kind}:{t}", kind, text, self.rows[label], gens, t, strategy, S))
        return out

    def run(self, req: Request):
        return slpforge.compress(req.table, req.gens, req.target, req.strategy)

    def check(self, req: Request, report) -> Checked:
        if not report.verified:
            raise checker.CheckError("program reported unverified")
        slp_text = slpforge.io.dump_slp(report.slp)
        size = checker.check_program(req.rows, req.gens, req.target, slp_text)
        return Checked(slp_text, size, False, False)


class RandomMember:
    """Certified membership on small random transformation semigroups.

    Each round takes one table from each size band, so every run sees the
    same spread of sizes.  A table gets two queries with all its generators
    and two with one generator dropped: one inside the smaller closure and
    one outside it.  Tables are drawn until some generator can be dropped
    that way, so every round holds 24 certificate requests and 8
    oracle-only ones.
    """

    name = "random-member"
    min_rounds = 6
    trace_rounds = 6
    # Bands stop well below the generator's cap of 400: per-request time grows
    # faster than n^2, so larger tables would swamp the small ones this
    # workload is about and make each run's total hinge on a few draws.
    BANDS = ((1, 4), (5, 9), (10, 19), (20, 39), (40, 79), (80, 129), (130, 179), (180, 230))
    POOL_ROUNDS = 20

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        self.pool = [[self._draw(rng, lo, hi) for lo, hi in self.BANDS] for _ in range(self.POOL_ROUNDS)]

    @staticmethod
    def _draw(rng: random.Random, lo: int, hi: int):
        while True:
            rt = randsemi.draw_table(rng, lo, hi)
            rows = rt.table.tolist()
            droppable = [g for g in rt.gens if len(checker.closure(rows, [h for h in rt.gens if h != g])) < rt.n]
            if len(rt.gens) > 1 and droppable:
                dropped = rng.choice(droppable)
                rest = [h for h in rt.gens if h != dropped]
                return rt.gens, rest, randsemi.to_cay(rt.table, rt.gens)

    def prepare(self) -> None:
        self.tables = []
        for tables in self.pool:
            for gens, rest, text in tables:
                rows = checker.parse_table(text)
                inside = sorted(checker.closure(rows, rest))
                outside = sorted(set(range(len(rows))) - set(inside))
                self.tables.append((gens, rest, text, rows, inside, outside))

    def requests(self, r: int) -> list[Request]:
        rng = _round_rng(self.seed, self.name, r)
        p = r % self.POOL_ROUNDS
        out = []
        for i in range(len(self.BANDS)):
            gens, rest, text, rows, inside, outside = self.tables[p * len(self.BANDS) + i]
            queries = [("all", gens, rng.randrange(len(rows))), ("all", gens, rng.randrange(len(rows))),
                       ("inside", rest, rng.choice(inside)), ("outside", rest, rng.choice(outside))]
            out.extend(Request(f"{p}.{i}:{g}:{t}", f"band{i}:{q}", text, rows, g, t) for q, g, t in queries)
        return out

    def run(self, req: Request):
        S, _, _ = slpforge.io.parse_cay(req.text)
        return slpforge.member_certified(S, req.gens, req.target, "auto")

    def check(self, req: Request, answer) -> Checked:
        slp_text = None
        if answer.member:
            if answer.report is None or not answer.report.verified:
                raise checker.CheckError("certificate reported unverified")
            slp_text = slpforge.io.dump_slp(answer.certificate)
        size = checker.check_membership(req.rows, req.gens, req.target, answer.member, slp_text)
        report = answer.report
        return Checked(slp_text, size, report is not None, report is not None and _fallback(report))


WORKLOADS = {w.name: w for w in (ZooAuto, GroupBatch, RandomMember)}
