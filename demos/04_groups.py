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
    compress_group_reachability,
    compress_group_solvable,
    compress_group_solvable_bounded,
)
from slpforge.groups import group_view
from slpforge.slp import eliminate_inverses
from slpforge.zoo import dihedral_generators, make_alt, make_dihedral, _alt_generators

# cube doubling on the (nonsolvable) alternating group A5
A5 = make_alt(5)
G = group_view(A5)
gens = _alt_generators(5)
target = 37
prog, state = compress_group_reachability(G, gens, target)
print(f"A5, target {target}: cube sizes per round {state.doubling_log}")
print(f"  group program: length {prog.length}, width {prog.width}")
plain = eliminate_inverses(G, prog)
print(f"  after inverse elimination: length {plain.length}, width {plain.width}")
assert evaluate(A5, plain).output_value == target

# solvable routes on the dihedral group of order 512
D = make_dihedral(256)
GD = group_view(D)
dgens = dihedral_generators(256)
t = 300
slp, delta, chain = compress_group_solvable(GD, dgens, t)
print(f"\nD512 derived-series route: length {slp.length} "
      f"(log2 N = {math.log2(D.n):.0f}), width {slp.width}")
print(f"  adapted generating set of size {len(delta.records)} across "
      f"{len(chain.terms) - 1} levels")

slp2, pcs = compress_group_solvable_bounded(GD, dgens, t)
print(f"D512 polycyclic route: length {slp2.length}, width {slp2.width}")
print(f"  chain of {len(pcs.chain_indices)} cyclic steps")
assert evaluate(D, slp).output_value == t == evaluate(D, slp2).output_value
