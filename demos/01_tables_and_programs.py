"""First steps: Cayley tables, straight-line programs, and fast exponentiation.

A straight-line program computes a semigroup element from generators with
load and multiply instructions over registers.  Its length plays the role of
compressed size; its width is the working memory.
"""

from slpforge import evaluate, fast_exp, verify
from slpforge.zoo import make_cyclic

# Z20 under addition: "exponentiation" is multiplication by n
z20 = make_cyclic(20)
prog = fast_exp(3, 13)
print("program for 3^13 over a single generator:")
for ins in prog.instructions:
    print("   ", ins)
trace = evaluate(z20, prog)
print("value of 13 * 3 mod 20:", trace.output_value)
print("length:", prog.length, "  width:", prog.width)
print("instead of the 12 multiplications of the naive product\n")

# the same program text works in any semigroup with a chosen generator
from slpforge.zoo import make_dihedral

d8 = make_dihedral(4)
rot = 1
prog = fast_exp(rot, 3)
print("rot^3 in the dihedral group of order 8:", evaluate(d8, prog).output_value)
print("verified:", verify(d8, prog, evaluate(d8, prog).output_value))
