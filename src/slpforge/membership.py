"""Cayley-table membership: brute-force oracle, certificates, irredundancy."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .classify import Config
from .compressors import CompressionReport, check_strategy, compress
from .errors import BudgetExceededError, CompressorFailedError, SlpforgeError
from .semigroup import Semigroup, cached_closure, check_element, closure
from .slp import Slp


@dataclass
class MembershipAnswer:
    member: bool
    certificate: Optional[Slp]
    report: Optional[CompressionReport]


def member_oracle(S: Semigroup, gens: Sequence[int], t: int) -> bool:
    """Worklist closure; the ground truth every certificate is checked against.

    The closure is memoised on S, so ``compress`` on the same generators
    reuses it.  A target outside the table raises OutOfRangeError.
    """
    check_element(S, t, "target")
    return t in cached_closure(S, gens)


def member_certified(
    S: Semigroup,
    gens: Sequence[int],
    t: int,
    strategy: str = "auto",
    config: Optional[Config] = None,
) -> MembershipAnswer:
    """Oracle plus, for members, a verified straight-line certificate.

    A member whose compression fails, or whose certificate fails
    verification, is a broken invariant and raises CompressorFailedError
    instead of being masked as a non-member.  An unknown strategy name
    raises ValueError before the oracle runs.
    """
    check_strategy(strategy)
    is_member = member_oracle(S, gens, t)
    if not is_member:
        return MembershipAnswer(False, None, None)
    try:
        report = compress(S, gens, t, strategy, config)
    except SlpforgeError as exc:
        raise CompressorFailedError(
            f"oracle says member but strategy {strategy!r} failed: {exc}"
        ) from exc
    return MembershipAnswer(True, report.slp, report)


def irredundancy(
    S: Semigroup, gens: Sequence[int], t: int, budget: int = 10**4
) -> set[int]:
    """Generators g with t outside the closure of the others.

    When every generator is necessary, any straight-line program for t must
    load all of them, certifying length >= |gens|.
    """
    check_element(S, t, "target")
    distinct = sorted(set(int(g) for g in gens))
    if len(distinct) > budget:
        raise BudgetExceededError(f"{len(distinct)} generators exceed budget {budget}")
    necessary: set[int] = set()
    for g in distinct:
        rest = [h for h in distinct if h != g]
        if not rest or t not in closure(S, rest):
            necessary.add(g)
    return necessary
