"""Span recording around slpforge's public functions, installed from outside.

Callers inside slpforge import functions by name (``dispatch`` holds its own
reference to ``classify``, ``permutative`` to ``central_commutation_level``),
so wrapping one module attribute is not enough.  ``Tracer.install`` replaces
every attribute, in every loaded ``slpforge`` module, that *is* one of the
listed functions, for as long as ``installed()`` is active.  Spans stay in memory until ``write`` and carry the index of
the request that caused them.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from importlib import import_module
from time import perf_counter
from typing import Optional

PACKAGE = "slpforge"

# <module>.<function>, the module named relative to the slpforge package
LAYERS = (
    "io.parse_cay",
    "semigroup.validate_table",
    "semigroup.closure",
    "semigroup.shortest_word",
    "semigroup.sub_semigroup",
    "semigroup.ideal_power",
    "classify.classify",
    "classify.central_commutation_level",
    "classify.sandwich_ideal_level",
    "classify.rb_ideal_level",
    "classify.stable_ideal_level",
    "classify.maximal_subgroups_solvable",
    "decomposition.band_of_groups_decomposition",
    "identities.satisfies_identity",
    "zoo.build_family",
    "compressors.compress",
    "compressors.compress_permutative",
    "compressors.compress_bounded_diameter",
    "compressors.compress_normal_band",
    "compressors.compress_general",
    "compressors.solvable_plan",
    "compressors.build_polycyclic_set",
    "compressors.build_cube",
    "compressors.adapt_subnormal",
    "groups.group_view",
    "groups.derived_series",
    "groups.quotient_group",
    "groups.minimal_generating_subset",
    "slp.eliminate_inverses",
    "slp.verify",
    "slp.evaluate",
    "membership.member_certified",
    "membership.member_oracle",
)


class Tracer:
    def __init__(self):
        # each span: [label, request, parent span index or -1, start, end]
        self.spans: list[list] = []
        self.request: Optional[int] = None
        self._stack: list[int] = []
        self._patches = self._find_patches()

    def _wrap(self, label: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([label, self.request, stack[-1] if stack else -1, perf_counter(), 0.0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][4] = perf_counter()

        return traced

    def _find_patches(self) -> list[tuple[object, str, object, object]]:
        """(module, attribute, original, wrapper) for every place a loaded
        slpforge module holds one of the listed functions."""
        modules = [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")]
        patches = []
        for label in LAYERS:
            module, name = label.rsplit(".", 1)
            original = getattr(import_module(f"{PACKAGE}.{module}"), name)
            wrapper = self._wrap(label, original)
            for mod in modules:
                patches.extend((mod, attr, original, wrapper) for attr, value in vars(mod).items() if value is original)
        return patches

    @contextmanager
    def installed(self):
        """Route every listed function through its span-recording wrapper."""
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, original, _ in self._patches:
                setattr(mod, attr, original)

    def per_layer(self) -> dict[str, tuple[int, float]]:
        """label -> (calls, self seconds); self time excludes child spans."""
        child_time = [0.0] * len(self.spans)
        for label, _, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {label: (0, 0.0) for label in LAYERS}
        for i, (label, _, _, start, end) in enumerate(self.spans):
            calls, self_s = out[label]
            out[label] = (calls + 1, self_s + (end - start) - child_time[i])
        return out

    def request_coverage(self) -> float:
        """Seconds that top-level spans cover inside requests."""
        return sum(end - start for _, req, parent, start, end in self.spans if parent < 0 and req is not None)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for label, req, parent, start, end in self.spans:
                fh.write(json.dumps({"name": label, "request": req, "parent": parent, "start": start, "end": end}) + "\n")
