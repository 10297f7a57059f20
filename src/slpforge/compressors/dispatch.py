"""Strategy registry and the classify-then-dispatch entry point."""

from __future__ import annotations

from typing import Optional, Sequence

from ..classify import Config, recommend
from ..errors import SlpforgeError, UnreachableError
from ..groups import GroupView, cached_group_view
from ..semigroup import Semigroup, cached_closure, cached_sub_semigroup, check_element
from ..slp import Slp, eliminate_inverses, verify
from .base import CompressionReport
from .bands import compress_normal_band
from .diameter import compress_bounded_diameter
from .general import compress_general
from .permutative import compress_permutative
from .reachability import compress_group_reachability
from .solvable import compress_group_solvable, compress_group_solvable_bounded

GROUP_STRATEGIES = ("group-bsz", "group-solvable", "group-solvable-bw")
STRATEGIES = (
    "bounded-diameter",
    "permutative",
    *GROUP_STRATEGIES,
    "normal-band",
    "general",
    "auto",
)


def compress_in_group(
    G: GroupView, gens: list[int], t: int, strategy: str
) -> tuple[Slp, dict]:
    """Run a group strategy inside G; the program has no INV instructions.

    The one path for every group program: ``compress`` runs it on a group
    table, ``normal-band`` on each class group.  Each builder memoises its
    target-independent structure on G's table.
    """
    if strategy == "group-bsz":
        prog, state = compress_group_reachability(G, gens, t)
        extras = {
            "rounds": state.rounds,
            "group_slp_width": prog.width,
            "group_slp_length": prog.length,
            "doubling_log": list(state.doubling_log),
        }
        return eliminate_inverses(G, prog), extras
    if strategy == "group-solvable":
        prog, delta, chain = compress_group_solvable(G, gens, t)
        return prog, {"delta_size": len(delta.records), "derived_length": chain.length}
    if strategy == "group-solvable-bw":
        prog, pcs = compress_group_solvable_bounded(G, gens, t)
        return prog, {"chain_length": len(pcs.chain_indices)}
    raise ValueError(f"unknown group strategy {strategy!r}")


def _run_strategy(
    S: Semigroup, gens: list[int], t: int, strategy: str, cfg: Config
) -> tuple[Slp, dict]:
    if strategy == "bounded-diameter":
        return compress_bounded_diameter(S, gens, t), {}
    if strategy == "permutative":
        return compress_permutative(S, gens, t, None, cfg), {}
    if strategy in GROUP_STRATEGIES:
        return compress_in_group(cached_group_view(S), gens, t, strategy)
    if strategy == "normal-band":
        bc = compress_normal_band(S, gens, t)
        return bc.slp, {
            "group_width": bc.group_width,
            "group_length": bc.group_length,
            "alpha": bc.alpha,
        }
    if strategy == "general":
        gc = compress_general(S, gens, t, cfg)
        extras = {"peel_level": gc.peel_level}
        if gc.group_width is not None:
            extras["group_width"] = gc.group_width
        return gc.slp, extras
    raise ValueError(f"unknown strategy {strategy!r}")


def compress(
    S: Semigroup,
    gens: Sequence[int],
    t: int,
    strategy: str = "auto",
    config: Optional[Config] = None,
) -> CompressionReport:
    """Compress t over gens with the named strategy; 'auto' dispatches.

    Work happens inside the generated subsemigroup, so identities verified by
    the classifier hold exactly where the program lives.  Target-independent
    structure (the closure, the sub-semigroup, the ``auto`` recommendation,
    and the group builders' plans and cubes) is memoised on S, so later
    targets on the same table reuse it.
    """
    cfg = config or Config()
    gens = [int(g) for g in gens]
    check_element(S, t, "target")
    members = cached_closure(S, gens)
    if t not in members:
        raise UnreachableError(f"target {t} is outside the generated subsemigroup")
    if members.cardinality != S.n:
        sub, to_sub, to_parent = cached_sub_semigroup(S, members)
        inner = compress(
            sub, [int(to_sub[g]) for g in gens], int(to_sub[t]), strategy, cfg
        )
        prog = inner.slp.relabel(to_parent)
        report = verify(S, prog, t, inner.strategy)
        if not report.verified:
            raise SlpforgeError("lifted program failed verification")
        return CompressionReport(
            inner.strategy, prog, prog.length, prog.width, True, t, inner.extras
        )

    extras: dict = {}
    if strategy == "auto":
        chosen = recommended = recommend(S, cfg)
        try:
            slp, extras = _run_strategy(S, gens, t, chosen, cfg)
        except SlpforgeError as exc:
            if chosen == "bounded-diameter":
                raise
            chosen = "bounded-diameter"
            slp, extras = _run_strategy(S, gens, t, chosen, cfg)
            extras["fallback"] = True
            extras["fallback_reason"] = f"{type(exc).__name__}: {exc}"
        extras["classified"] = recommended
    else:
        chosen = strategy
        slp, extras = _run_strategy(S, gens, t, strategy, cfg)
    report = verify(S, slp, t, chosen)
    return CompressionReport(
        chosen, slp, report.length, report.width, report.verified, t, extras
    )
