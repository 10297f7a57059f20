"""The strategy table and the classify-then-dispatch entry point."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..classify import Config, recommend
from ..errors import SlpforgeError
from ..groups import group_view
from ..semigroup import Semigroup, check_element
from ..slp import Slp, verify
from .base import CompressionReport, generated_part
from .bands import compress_normal_band
from .diameter import compress_bounded_diameter
from .general import compress_general
from .in_group import GROUP_STRATEGIES
from .permutative import compress_permutative


Runner = Callable[[Semigroup, list[int], int, Config], Slp]


def _in_group(name: str) -> Runner:
    return lambda S, gens, t, cfg: GROUP_STRATEGIES[name](group_view(S), gens, t)


# Every named strategy but ``auto``, as a runner (S, gens, t, cfg) -> Slp;
# ``recommend`` and ``group_route`` return keys of this table.  Entries call
# the strategies through this module's names and ``GROUP_STRATEGIES``.
STRATEGIES: dict[str, Runner] = {
    "bounded-diameter": lambda S, gens, t, cfg: compress_bounded_diameter(S, gens, t),
    "permutative": lambda S, gens, t, cfg: compress_permutative(S, gens, t, None, cfg),
    **{name: _in_group(name) for name in GROUP_STRATEGIES},
    "normal-band": lambda S, gens, t, cfg: compress_normal_band(S, gens, t).slp,
    "general": lambda S, gens, t, cfg: compress_general(S, gens, t, cfg).slp,
}


def check_strategy(strategy: str) -> None:
    """Raise ValueError unless ``strategy`` is ``auto`` or a table key."""
    if strategy != "auto" and strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; known: auto, {', '.join(STRATEGIES)}")


def compress(
    S: Semigroup,
    gens: Sequence[int],
    t: int,
    strategy: str = "auto",
    config: Optional[Config] = None,
) -> CompressionReport:
    """Compress t over gens with the named strategy; 'auto' dispatches.

    The generated subsemigroup is carved once, and the strategy (or ``auto``'s
    recommendation) runs there once, so identities verified by the classifier
    hold exactly where the program lives.  ``auto`` picks only a strategy that
    applies, so any error the strategy raises propagates, as for a named one.
    The program is relabelled to S and verified once, by evaluation on S; a
    mismatch raises SlpforgeError.  Target-independent structure (the closure,
    the sub-semigroup, the ``auto`` recommendation, and the group builders'
    plans and cubes) is memoised on S, so later targets on the same table
    reuse it.  An unknown strategy name raises ValueError before any of it is
    built.
    """
    check_strategy(strategy)
    cfg = config or Config()
    check_element(S, t, "target")
    sub, sub_gens, sub_t, to_parent = generated_part(S, gens, t)

    # a named strategy reports no extras; ``auto`` reports its decision
    chosen = recommend(sub, cfg) if strategy == "auto" else strategy
    extras = {"classified": chosen} if strategy == "auto" else {}
    slp = STRATEGIES[chosen](sub, sub_gens, sub_t, cfg)
    if to_parent is not None:
        slp = slp.relabel(to_parent)
    if not verify(S, slp, t):
        raise SlpforgeError(f"{chosen} program failed verification")
    return CompressionReport(chosen, slp, slp.length, slp.width, t, extras)
