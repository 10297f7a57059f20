"""Group compression three ways: cube doubling, derived series, polycyclic.

Cube doubling (after Babai and Szemeredi) works in every group: maintain
h_1..h_m whose subset products double in number each round, until the target
is a quotient of two cube elements.  For solvable groups two specialised
routes do better: an O(log N) length construction along the derived series,
and a width-4 construction along a polycyclic chain whose generators are
nested conjugated commutators.
"""

import math

from slpforge import evaluate
from slpforge.compressors import (
    build_cube,
    build_polycyclic_set,
    compress_group_reachability,
    compress_group_solvable,
    compress_group_solvable_bounded,
    emit_from_cube,
    solvable_plan,
)
from slpforge.groups import group_view
from slpforge.zoo import dihedral_generators, make_alt, make_dihedral, _alt_generators

# cube doubling on the (nonsolvable) alternating group A5
A5 = make_alt(5)
G = group_view(A5)
gens = _alt_generators(5)
target = 37
state = build_cube(G, gens, target)
prog = emit_from_cube(G, gens, state, target)
print(f"A5, target {target}: cube sizes per round {[2 ** (i + 1) for i in range(state.rounds)]}")
print(f"  group program: length {prog.length}, width {prog.width}")
plain = compress_group_reachability(G, gens, target)
print(f"  after inverse elimination: length {plain.length}, width {plain.width}")
assert evaluate(A5, plain).output_value == target

# solvable routes on the dihedral group of order 512
D = make_dihedral(256)
GD = group_view(D)
dgens = dihedral_generators(256)
t = 300
slp = compress_group_solvable(GD, dgens, t)
plan = solvable_plan(GD, dgens)
print(f"\nD512 derived-series route: length {slp.length} "
      f"(log2 N = {math.log2(D.n):.0f}), width {slp.width}")
print(f"  adapted generating set of size {len(plan.delta.records)} across "
      f"{len(plan.chain.terms) - 1} levels")

slp2 = compress_group_solvable_bounded(GD, dgens, t)
print(f"D512 polycyclic route: length {slp2.length}, width {slp2.width}")
print(f"  chain of {len(build_polycyclic_set(GD, dgens).chain_indices)} cyclic steps")
assert evaluate(D, slp).output_value == t == evaluate(D, slp2).output_value
