"""The group strategies: builders (G, gens, t) -> Slp without INV instructions.

``compress`` reaches them through ``STRATEGIES``, ``normal-band`` on each class
group.  Each builder keeps its plan on the group's table (``solvable_plan``,
``build_polycyclic_set``, ``build_cube``) and returns only the program.
"""

from __future__ import annotations

from typing import Callable

from ..groups import GroupView
from ..slp import Slp
from .reachability import compress_group_reachability
from .solvable import compress_group_solvable, compress_group_solvable_bounded

GROUP_STRATEGIES: dict[str, Callable[[GroupView, list[int], int], Slp]] = {
    "group-bsz": compress_group_reachability,
    "group-solvable": compress_group_solvable,
    "group-solvable-bw": compress_group_solvable_bounded,
}
