"""From groups to unions of groups to arbitrary eligible semigroups.

A completely regular semigroup that decomposes as a normal band of groups
compresses by finding the class idempotent e_a (via the permutative band
quotient), building class generators e_a s e_a, and splicing a group program
between them.  The general pipeline first peels a nilpotent layer, then maps
middle letters to their omega-plus-one powers, which land in such a band.
"""

from slpforge import evaluate
from slpforge.classify import classify
from slpforge.compressors import compress, compress_general, compress_normal_band
from slpforge.zoo import build_family, make_nilpotent_extension

# a 4 x 4 grid of copies of Z9
S, gens, _ = build_family("rb-x-cyclic", [2, 2, 9])
t = 25
for mode in ("wide", "narrow"):
    bc = compress_normal_band(S, gens, t, mode)
    print(
        f"RB(2,2) x Z9, mode={mode}: width {bc.slp.width} "
        f"(group part {bc.group_width}), length {bc.slp.length}"
    )
    assert evaluate(S, bc.slp).output_value == t

# wrap it in a nilpotent layer and run the general pipeline
T, _ = make_nilpotent_extension(S, len(gens), gens, 3)
tg = list(range(len(gens)))
report = classify(T)
print(f"\nextension: recommended strategy = {report.recommended}")
deep = T.n - 1
gc = compress_general(T, tg, deep)
print(f"general pipeline on target {deep}: width {gc.slp.width}, length {gc.slp.length}")
assert evaluate(T, gc.slp).output_value == deep

# the dispatcher does all of the above on its own
rep = compress(T, tg, deep, "auto")
print(f"auto dispatch chose {rep.strategy!r}: verified = {rep.verified}")
