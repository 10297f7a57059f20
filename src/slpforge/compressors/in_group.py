"""The group strategies: runners (G, gens, t) -> Slp without INV instructions.

``compress`` reaches them through ``STRATEGIES``, ``normal-band`` on each class
group.  Entries call the builders by this module's names, so a wrapper
installed on those names sees every call.
"""

from __future__ import annotations

from typing import Callable

from ..groups import GroupView
from ..slp import Slp, eliminate_inverses
from .reachability import compress_group_reachability
from .solvable import compress_group_solvable, compress_group_solvable_bounded

GROUP_STRATEGIES: dict[str, Callable[[GroupView, list[int], int], Slp]] = {
    "group-bsz": lambda G, gens, t: eliminate_inverses(
        G, compress_group_reachability(G, gens, t)[0]
    ),
    "group-solvable": lambda G, gens, t: compress_group_solvable(G, gens, t)[0],
    "group-solvable-bw": lambda G, gens, t: compress_group_solvable_bounded(G, gens, t)[0],
}
