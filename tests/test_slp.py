import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from slpforge import zoo
from slpforge.errors import InvalidProgramError, InverseOutsideGroupError
from slpforge.groups import group_view, minimal_generating_subset
from slpforge.io import parse_slp
from slpforge.slp import (
    BlockScans,
    InverseMirror,
    Slp,
    SlpBuilder,
    compact,
    compact_blocks,
    eliminate_inverses,
    evaluate,
    fast_exp,
    inverting_power,
    scan_block,
    verify,
)

from conftest import random_semigroups

D8 = zoo.make_dihedral(4)
D8_VIEW = group_view(D8)


def test_evaluate_square():
    Z5 = zoo.make_cyclic(5)
    prog = Slp((2,), (("L", 0, 0), ("M", 0, 0, 0)), 0)
    assert evaluate(Z5, prog).output_value == 4


def test_unassigned_register_rejected():
    with pytest.raises(InvalidProgramError):
        Slp((0,), (("M", 0, 0, 1),), 0)


@pytest.mark.parametrize("mul", [("M", 1, 0, 1), ("M", 1, 1, 0)])
def test_first_write_cannot_read_its_own_register(mul):
    # register 1 is first written by this M, so neither operand may name it
    with pytest.raises(InvalidProgramError, match="unassigned"):
        Slp((0,), (("L", 0, 0), mul), 1)


@pytest.mark.parametrize(
    "instructions, output",
    [
        ((("L", 1, 0),), 1),
        ((("L", 0, 0), ("L", 2, 0)), 2),
        ((("L", 0, 0), ("M", 2, 0, 0)), 2),
        ((("L", 0, 0), ("I", 3, 0)), 3),
        ((("L", -1, 0),), -1),
    ],
    ids=["first-load-at-1", "skips-1", "product-skips-1", "inverse-skips-2", "negative"],
)
def test_constructor_rejects_an_out_of_order_first_write(instructions, output):
    with pytest.raises(InvalidProgramError, match="first write"):
        Slp((0,), instructions, output)


def test_width_and_group_flag_are_derived():
    prog = Slp((0, 1), (("L", 0, 0), ("L", 1, 1), ("M", 0, 0, 1), ("L", 1, 0)), 0)
    assert (prog.width, prog.is_group) == (2, False)
    prog = Slp((0,), (("L", 0, 0), ("I", 1, 0), ("M", 0, 0, 1)), 0)
    assert (prog.width, prog.is_group) == (2, True)


def test_inverse_needs_group_flag_and_carrier():
    prog = Slp((1,), (("L", 0, 0), ("I", 0, 0)), 0)
    assert prog.is_group
    with pytest.raises(InverseOutsideGroupError):
        evaluate(zoo.make_cyclic(6), prog)
    G = group_view(zoo.make_cyclic(6))
    assert evaluate(zoo.make_cyclic(6), prog, group=G).output_value == 5


def test_static_metrics_match_trace(zoo_small):
    rng = random.Random(11)
    for name, (S, gens, _) in zoo_small.items():
        b = SlpBuilder()
        regs = [b.fresh() for _ in range(3)]
        b.load(regs[0], gens[0])
        b.load(regs[1], gens[-1])
        for _ in range(10):
            b.mul(rng.choice(regs[:2]), rng.choice(regs[:2]), rng.choice(regs[:2]))
        prog = b.finish(regs[0])
        trace = evaluate(S, prog)
        assert len(trace.registers) == prog.width
        assert trace.output_value in trace.registers.values()


def test_fast_exp_example():
    prog = fast_exp(3, 13)
    Z20 = zoo.make_cyclic(20)
    assert evaluate(Z20, prog).output_value == 19
    assert prog.length == 6 and prog.width == 2


def test_fast_exp_one_and_powers_of_two():
    assert fast_exp(1, 1).length == 1
    for k in range(1, 8):
        prog = fast_exp(1, 1 << k)
        assert prog.length == k + 1


@given(st.integers(min_value=1, max_value=1 << 16))
@settings(max_examples=300, deadline=None)
def test_fast_exp_integer_semantics(n):
    """Simulate with integer coefficients: the program must compute exactly n
    copies of the symbol, which makes the value correct in every semigroup."""
    prog = fast_exp(0, n)
    regs = {}
    for ins in prog.instructions:
        if ins[0] == "L":
            regs[ins[1]] = 1
        else:
            regs[ins[1]] = regs[ins[2]] + regs[ins[3]]
    assert regs[prog.output] == n
    assert prog.length <= 2 * math.floor(math.log2(n)) + 1
    assert prog.width == (2 if n >= 2 else 1)


def _random_group_slp(rng, gens, n_instr):
    instrs = [("L", 0, rng.randrange(len(gens)))]
    assigned = [0]
    next_reg = 1
    for _ in range(n_instr - 1):
        op = rng.choice(["L", "M", "M", "I"])
        if rng.random() < 0.3 and next_reg < 6:
            dst = next_reg
            next_reg += 1
        else:
            dst = rng.choice(assigned)
        if op == "L":
            instrs.append(("L", dst, rng.randrange(len(gens))))
        elif op == "M":
            instrs.append(("M", dst, rng.choice(assigned), rng.choice(assigned)))
        else:
            instrs.append(("I", dst, rng.choice(assigned)))
        if dst not in assigned:
            assigned.append(dst)
    return Slp(tuple(gens), tuple(instrs), rng.choice(assigned))


def test_eliminate_inverses_examples():
    Z6 = zoo.make_cyclic(6)
    G = group_view(Z6)
    prog = Slp((1,), (("L", 0, 0), ("I", 1, 0)), 1)
    plain = eliminate_inverses(G, prog)
    assert evaluate(Z6, plain).output_value == 5
    # f r f^-1 in D4
    D = zoo.make_dihedral(4)
    GD = group_view(D)
    r, f = zoo.dihedral_generators(4)
    prog = Slp(
        (r, f),
        (("L", 0, 1), ("L", 1, 0), ("M", 2, 0, 1), ("I", 3, 1), ("M", 2, 2, 3)),
        2,
    )
    hmm = evaluate(D, prog, group=GD).output_value
    plain = eliminate_inverses(GD, prog)
    assert evaluate(D, plain).output_value == hmm
    # the trivial group has exponent 1: the prelude squares its generator
    Z1 = zoo.make_cyclic(1)
    plain = eliminate_inverses(group_view(Z1), Slp((0,), (("L", 0, 0), ("I", 1, 0)), 1))
    assert not plain.is_group and evaluate(Z1, plain).output_value == 0
    # 3 lies outside the minimal subset {1} of Z8, so it is written as
    # 1 * 1 * 1 and its inverse as the product of three inverted letters
    Z8 = zoo.make_cyclic(8)
    plain = eliminate_inverses(group_view(Z8), Slp((1, 3), (("L", 0, 1), ("I", 1, 0)), 1))
    assert not plain.is_group and evaluate(Z8, plain).output_value == 5


@pytest.mark.parametrize("exponent", range(1, 13))
def test_inverting_power_inverts_in_every_exponent(exponent):
    k = inverting_power(exponent)
    assert k >= 2 and (k + 1) % exponent == 0


def test_eliminate_inverses_no_inv_passthrough():
    Z6 = zoo.make_cyclic(6)
    G = group_view(Z6)
    prog = Slp((1,), (("L", 0, 0), ("M", 0, 0, 0)), 0)
    plain = eliminate_inverses(G, prog)
    assert plain is prog and not plain.is_group
    assert evaluate(Z6, plain).output_value == 2
    assert plain.length <= 2 * prog.length + 12


def test_eliminate_inverses_randomised():
    rng = random.Random(2024)
    cases = [
        (zoo.make_dihedral(4), zoo.dihedral_generators(4)),
        (zoo.make_sym(4), [zoo.perm_index(4, (1, 0, 2, 3)), zoo.perm_index(4, (1, 2, 3, 0))]),
        (zoo.make_cyclic(12), [1]),
    ]
    for S, gens in cases:
        G = group_view(S)
        smin = minimal_generating_subset(G, gens)
        for _ in range(120):
            prog = _random_group_slp(rng, gens, rng.randrange(2, 25))
            want = evaluate(S, prog, group=G).output_value
            plain = eliminate_inverses(G, prog)
            assert not any(ins[0] == "I" for ins in plain.instructions)
            assert evaluate(S, plain).output_value == want
            bound = (
                2 * prog.length
                + 12 * len(smin)
                + 2 * math.floor(math.log2(S.n))
                + 3
            )
            assert plain.length <= bound


def test_verify_reports():
    Z5 = zoo.make_cyclic(5)
    prog = fast_exp(2, 3)
    assert verify(Z5, prog, 1) is True
    assert verify(Z5, prog, 2) is False


def test_canonical_renumbering_first_use():
    b = SlpBuilder()
    b.load(5, 1)
    b.load(3, 1)
    b.mul(7, 5, 3)
    canon = b.finish(7)
    assert [ins[1] for ins in canon.instructions] == [0, 1, 2]
    assert canon.output == 2
    assert parse_slp("SLP\nA 1\nL 5 0\nL 3 0\nM 7 5 3\nO 7\n") == canon


@st.composite
def programs(draw):
    """A valid program over D8 on at most five registers, INV included when
    it is a group program; the alphabet may repeat a value."""
    alphabet = tuple(draw(st.lists(st.integers(0, D8.n - 1), min_size=1, max_size=4)))
    ops = draw(st.sampled_from(["LMI", "LM"]))
    symbol = st.integers(0, len(alphabet) - 1)
    instrs = [("L", 0, draw(symbol))]
    width = 1
    for _ in range(draw(st.integers(0, 20))):
        # an assigned register, or the next unused one while fewer than five
        dst, op = draw(st.integers(0, min(width, 4))), draw(st.sampled_from(ops))
        read = st.integers(0, width - 1)
        if op == "L":
            instrs.append(("L", dst, draw(symbol)))
        elif op == "M":
            instrs.append(("M", dst, draw(read), draw(read)))
        else:
            instrs.append(("I", dst, draw(read)))
        width = max(width, dst + 1)
    return Slp(alphabet, tuple(instrs), draw(st.integers(0, width - 1)))


@given(programs(), st.integers(0, 5))
def test_splice_under_injective_renaming(prog, base):
    b = SlpBuilder()
    for r in range(base):
        b.load(r, r)  # registers below base, which the splice must leave alone
    out = b.splice(prog, base)
    assert out == base + prog.output
    assert b.fresh() == base + prog.width
    # prog shifted by base, each load reading its value's interned symbol
    for ins, new in zip(prog.instructions, b.instructions[base:]):
        if ins[0] == "L":
            assert new[:2] == ("L", base + ins[1])
            assert b.alphabet[new[2]] == prog.alphabet[ins[2]]
        else:
            assert new == (ins[0], *(base + r for r in ins[1:]))
    spliced = b.finish(out)
    assert spliced.instructions == tuple(b.instructions)  # numbered at first write
    before = evaluate(D8, prog, group=D8_VIEW).registers
    after = evaluate(D8, spliced, group=D8_VIEW).registers
    assert after == {**{r: r for r in range(base)}, **{base + r: v for r, v in before.items()}}
    assert (spliced.length, spliced.width) == (prog.length + base, prog.width + base)


@given(programs(), st.integers(0, D8.n - 1))
def test_relabel_through_an_automorphism(prog, c):
    # conjugation by c is an automorphism, so it commutes with the program
    table, inverse = D8.table, D8_VIEW.inverse
    phi = [int(table[table[inverse[c], x], c]) for x in range(D8.n)]
    relabelled = prog.relabel(phi)
    assert relabelled.instructions == prog.instructions
    assert relabelled.alphabet == tuple(phi[v] for v in prog.alphabet)
    value = evaluate(D8, prog, group=D8_VIEW).output_value
    assert evaluate(D8, relabelled, group=D8_VIEW).output_value == phi[value]
    assert prog.relabel(dict(enumerate(phi))) == relabelled


# -- finish: one renumbering, same errors --------------------------------------


def _canonical_oracle(alphabet, instructions, output) -> Slp:
    """The renumbering as first written (``Slp.canonical``, since removed),
    its splice through a second builder (whose alphabet maps each value to
    its first symbol) inlined, after the checks the constructor then made
    under any numbering."""
    assigned = set()
    for ins in instructions:
        if ins[0] != "L" and not assigned.issuperset(ins[2:]):
            raise InvalidProgramError(f"read of unassigned register in {ins}")
        assigned.add(ins[1])
    if output not in assigned:
        raise InvalidProgramError("output register never assigned")
    regs = list(dict.fromkeys(ins[1] for ins in instructions))
    if regs == list(range(len(regs))):
        return Slp(alphabet, instructions, output)
    ren = {r: i for i, r in enumerate(regs)}
    first = {v: k for k, v in reversed(list(enumerate(alphabet)))}
    instrs = []
    for ins in instructions:
        if ins[0] == "M":
            instrs.append(("M", ren[ins[1]], ren[ins[2]], ren[ins[3]]))
        elif ins[0] == "L":
            instrs.append(("L", ren[ins[1]], first[alphabet[ins[2]]]))
        else:
            instrs.append(("I", ren[ins[1]], ren[ins[2]]))
    return Slp(alphabet, tuple(instrs), ren[output])


def test_finish_rejects_a_read_of_a_register_never_assigned():
    b = SlpBuilder()
    b.load(5, 2)
    b.mul(3, 5, 9)  # 9 is never written; 5 -> 0 and 3 -> 1 need renumbering
    with pytest.raises(InvalidProgramError, match="unassigned"):
        b.finish(3)
    g = SlpBuilder()
    g.load(4, 1)
    g.inv(2, 7)
    with pytest.raises(InvalidProgramError, match="unassigned"):
        g.finish(2)


def test_finish_rejects_a_read_before_the_first_assignment():
    b = SlpBuilder()
    b.load(5, 2)
    b.mul(3, 5, 4)  # 4 is written only afterwards
    b.load(4, 1)
    with pytest.raises(InvalidProgramError, match="unassigned"):
        b.finish(3)


@pytest.mark.parametrize("output", [0, 1, 2, 9])
def test_finish_rejects_an_unassigned_output(output):
    # 0 and 1 are the numbers the assigned registers 5 and 3 renumber to;
    # the output must not be mapped onto either
    b = SlpBuilder()
    b.load(5, 2)
    b.mul(3, 5, 5)
    with pytest.raises(InvalidProgramError, match="output register never assigned"):
        b.finish(output)


def test_finish_keeps_the_symbol_and_opcode_checks():
    b = SlpBuilder()
    b.load(5, 2)
    b.instructions.append(("L", 3, -1))
    with pytest.raises(InvalidProgramError, match="unknown symbol"):
        b.finish(3)
    b = SlpBuilder()
    b.load(5, 2)
    b.instructions.append(("X", 3, 5))
    with pytest.raises(InvalidProgramError, match="unknown opcode"):
        b.finish(3)


@st.composite
def builder_programs(draw):
    """A builder with random instructions over registers 0..7 and a random
    output.  Reads mostly name a register already written, but may name one
    written only later or never."""
    b = SlpBuilder()
    written = []

    def read():
        if written and draw(st.integers(0, 9)):
            return draw(st.sampled_from(written))
        return draw(st.integers(0, 7))

    for _ in range(draw(st.integers(1, 16))):
        op, dst = draw(st.sampled_from("LLMMI")), draw(st.integers(0, 7))
        if op == "L":
            b.load(dst, draw(st.integers(0, D8.n - 1)))
        elif op == "M":
            b.mul(dst, read(), read())
        else:
            b.inv(dst, read())
        written.append(dst)
    return b, read()


@given(builder_programs())
@settings(max_examples=400)
def test_finish_matches_the_canonical_oracle(case):
    b, out = case
    try:
        want = _canonical_oracle(tuple(b.alphabet), tuple(b.instructions), out)
    except InvalidProgramError:
        with pytest.raises(InvalidProgramError):
            b.finish(out)
        return
    assert b.finish(out) == want


@given(programs(), st.permutations(range(12)))
def test_canonical_matches_the_oracle_with_repeated_values(prog, perm):
    # parse_slp renumbers a hand-numbered file as finish does
    instrs = tuple(
        ("L", perm[ins[1]], ins[2]) if ins[0] == "L" else (ins[0], *(perm[r] for r in ins[1:]))
        for ins in prog.instructions
    )
    text = "SLP\nA " + " ".join(map(str, prog.alphabet)) + "\n"
    text += "".join(" ".join(map(str, ins)) + "\n" for ins in instrs)
    text += f"O {perm[prog.output]}\n"
    assert parse_slp(text) == _canonical_oracle(prog.alphabet, instrs, perm[prog.output])


# -- inverse elimination: each pair holds its value and its inverse ----------


@pytest.mark.parametrize(
    "S, gens",
    [
        (zoo.make_sym(4), [zoo.perm_index(4, (1, 0, 2, 3)), zoo.perm_index(4, (1, 2, 3, 0))]),
        (D8, zoo.dihedral_generators(4)),
        (zoo.make_heisenberg(3), zoo.heisenberg_generators(3)),
    ],
    ids=["S4", "D8", "Heis3"],
)
def test_mirror_pairs_hold_each_value_and_its_inverse(S, gens):
    # every write takes new registers, so after the whole feed each input
    # register's pair still holds its last value and that value's inverse
    rng = random.Random(31)
    G = group_view(S)
    for _ in range(60):
        prog = _random_group_slp(rng, gens, rng.randrange(2, 30))
        mirror = InverseMirror(G, prog.alphabet)
        mirror.feed(prog.instructions)
        kept = mirror.b.finish(mirror.pos[prog.output])
        assert kept.instructions == tuple(mirror.b.instructions)  # numbered at first write
        got = evaluate(S, kept).registers
        for r, v in evaluate(S, prog, group=G).registers.items():
            assert (got[mirror.pos[r]], got[mirror.neg[r]]) == (v, G.inverse[v])
        assert eliminate_inverses(G, prog) == compact(kept)


# -- compact: liveness and register reuse --------------------------------------


def test_compact_drops_dead_values_and_reuses_registers():
    b = SlpBuilder()
    b.load(7, 4)    # dead: overwritten before any read
    b.load(7, 5)
    b.load(2, 6)    # dead: never read
    b.load(3, 4)
    b.mul(9, 7, 3)  # both operands read for the last time
    b.mul(9, 9, 9)
    prog = b.compact(9)
    assert prog.alphabet == (5, 4)  # 6 is never loaded; order of first load
    assert prog.instructions == (("L", 0, 0), ("L", 1, 1), ("M", 0, 0, 1), ("M", 0, 0, 0))
    assert (prog.output, prog.width) == (0, 2)
    assert compact(prog) is prog
    assert compact(b.finish(9)) == prog


def test_compact_gives_the_latest_freed_register():
    b = SlpBuilder()
    for r in range(4):
        b.load(r, r)
    b.mul(4, 0, 1)  # both read for the last time: 4 takes 0's register, 1's is freed
    b.mul(5, 2, 3)  # likewise: 5 in 2's, 3's freed
    b.load(6, 9)    # takes 3's, the latest freed
    b.load(7, 8)    # then 1's
    b.mul(8, 4, 5)
    b.mul(8, 8, 6)
    b.mul(8, 8, 7)
    prog = b.compact(8)
    assert [ins[1] for ins in prog.instructions] == [0, 1, 2, 3, 0, 2, 3, 1, 0, 0, 0]
    assert (prog.width, prog.output) == (4, 0)


def test_compact_rejects_a_read_of_a_register_never_assigned():
    b = SlpBuilder()
    b.load(5, 2)
    b.mul(3, 5, 9)
    with pytest.raises(InvalidProgramError, match="unassigned"):
        b.compact(3)
    # also when the faulty instruction is dead
    b = SlpBuilder()
    b.load(5, 2)
    b.inv(4, 7)
    with pytest.raises(InvalidProgramError, match="unassigned"):
        b.compact(5)


def test_compact_rejects_a_read_before_the_first_assignment():
    b = SlpBuilder()
    b.load(5, 2)
    b.mul(3, 5, 4)  # 4 is written only afterwards
    b.load(4, 1)
    with pytest.raises(InvalidProgramError, match="unassigned"):
        b.compact(3)
    b = SlpBuilder()
    b.load(5, 2)
    b.mul(6, 5, 4)  # dead, and 4 is written only afterwards
    b.load(4, 1)
    with pytest.raises(InvalidProgramError, match="unassigned"):
        b.compact(5)


@pytest.mark.parametrize("output", [0, 1, 2, 9])
def test_compact_rejects_an_unassigned_output(output):
    b = SlpBuilder()
    b.load(5, 2)
    b.mul(3, 5, 5)
    with pytest.raises(InvalidProgramError, match="output register never assigned"):
        b.compact(output)


def test_compact_keeps_the_symbol_and_opcode_checks():
    b = SlpBuilder()
    b.load(5, 2)
    b.instructions.append(("L", 3, -1))
    with pytest.raises(InvalidProgramError, match="unknown symbol"):
        b.compact(3)
    for out in (3, 5):  # the bad instruction kept, and dropped
        b = SlpBuilder()
        b.load(5, 2)
        b.instructions.append(("X", 3, 5))
        with pytest.raises(InvalidProgramError, match="unknown opcode"):
            b.compact(out)


def test_compact_forks_share_the_scan_of_their_prefix():
    b = SlpBuilder()
    for r in range(4):
        b.load(r, r)
    b.mul(4, 0, 1)
    forks = []
    for x, y in ((4, 2), (3, 3), (4, 2), (0, 0)):
        f = b.fork()
        f.mul(f.fresh(), x, y)
        forks.append(f)
    for f in forks:
        out = f.instructions[-1][1]
        assert f.compact(out) == compact(f.finish(out))
    assert len(b._shared[2].out) == 3  # one scan per set of prefix registers read


def test_compact_blocks_joins_memoised_scans():
    blocks = {
        "a": scan_block([("L", 0, 7), ("M", 1, 0, 0)], (1,)),
        "b": scan_block([("L", 2, 5), ("M", 1, 1, 2)], (1,)),
    }
    memo = BlockScans()
    for keys in (["a", "b", "b"], ["a", "b"], ["a", "b", "b", "b"]):
        b = SlpBuilder()
        for ins, _ in (i for k in keys for i in blocks[k]):
            b.instructions.append(("L", ins[1], b.symbol(ins[2])) if ins[0] == "L" else ins)
        assert compact_blocks(memo, range(8), keys, blocks.get, 1) == compact(b.finish(1))
    # "b" is scanned after "a" and after "b"; a third "b" enters the state the second left
    assert len(memo.out) == 3


def test_compact_blocks_rejects_a_read_of_a_register_no_block_wrote():
    blocks = {"load": scan_block([("L", 0, 2)], (0,)), "read": scan_block([("M", 1, 0, 5)], (1,))}
    memo = BlockScans()
    for keys in (["read"], ["load", "read"]):
        with pytest.raises(InvalidProgramError, match="unassigned"):
            compact_blocks(memo, range(4), keys, blocks.get, 1)
    # the faulty block's scan is never memoised
    assert list(memo.out) == [("load", 0)] and len(memo.states) == 2
    with pytest.raises(InvalidProgramError, match="output register never assigned"):
        compact_blocks(memo, range(4), ["load"], blocks.get, 1)


SMALL = random_semigroups(6, seed=5)


@st.composite
def compactable(draw):
    """A builder over a random transformation semigroup or D8 (INV included),
    with dead values, aliased writes ``M r r x``, registers first written out
    of order and repeated alphabet values, and a register it wrote."""
    S = draw(st.sampled_from([*SMALL, D8]))
    group = D8_VIEW if S is D8 else None
    values = draw(st.lists(st.integers(0, S.n - 1), min_size=1, max_size=3))
    regs = draw(st.permutations(range(10)))[: draw(st.integers(1, 6))]
    b = SlpBuilder()
    b.alphabet = list(values) + list(values[:1])  # a repeated value
    written = _draw_instructions(draw, b, group, regs, [], [], draw(st.integers(1, 24)))
    return S, group, b, draw(st.sampled_from(written))


def _draw_instructions(draw, b, group, regs, written, unwritten, count):
    """Append ``count`` random instructions to ``b``, each writing one of
    ``regs`` and reading those in ``written`` (a load first, if it is
    empty) or in ``unwritten``; returns ``written`` with their registers."""
    written = list(written)
    for _ in range(count):
        op = draw(st.sampled_from("LMMMI" if group else "LMM")) if written else "L"
        dst = draw(st.sampled_from(regs))
        if op == "L":
            b.instructions.append(("L", dst, draw(st.integers(0, len(b.alphabet) - 1))))
        elif op == "M":
            x = draw(st.sampled_from(written + unwritten))
            b.mul(dst, dst if dst in written and draw(st.booleans()) else x, draw(st.sampled_from(written + unwritten)))
        else:
            b.inv(dst, draw(st.sampled_from(written + unwritten)))
        written.append(dst)
    return written


@given(compactable())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_compact_properties(case):
    S, group, b, out = case
    prog = b.finish(out)
    small = compact(prog)
    assert b.compact(out) == small
    assert evaluate(S, small, group=group).output_value == evaluate(S, prog, group=group).output_value
    assert small.length <= prog.length and small.width <= prog.width
    assert Slp(small.alphabet, small.instructions, small.output) == small
    loaded = [ins[2] for ins in small.instructions if ins[0] == "L"]
    assert sorted(set(loaded)) == list(range(len(small.alphabet)))
    assert list(dict.fromkeys(loaded)) == list(range(len(small.alphabet)))
    assert len(set(small.alphabet)) == len(small.alphabet)
    assert compact(small) is small


@st.composite
def forked(draw):
    """``compactable``'s builder cut at a random point into a builder and a
    fork of it, then several tails, each on its own fork of that fork: some
    a copy of an earlier tail, which reads the same registers before it, some
    writing a new alphabet value, some reading register 10, which nothing
    writes.  Each tail comes with an output register."""
    S, group, b, _ = draw(compactable())
    cut = draw(st.integers(0, len(b.instructions)))
    head = SlpBuilder()
    head.alphabet, head.instructions = list(b.alphabet), b.instructions[:cut]
    prefix = head.fork()
    prefix.instructions += b.instructions[cut:]
    written = [ins[1] for ins in b.instructions]
    regs = sorted(set(written) | set(draw(st.lists(st.integers(0, 9), max_size=3))))
    n, tails = len(prefix.instructions), []  # each: alphabet values added, instructions, output
    for _ in range(draw(st.integers(1, 5))):
        if tails and draw(st.booleans()):
            tails.append(draw(st.sampled_from(tails)))
            continue
        f = prefix.fork()
        if draw(st.booleans()):
            f.alphabet.append(draw(st.integers(0, S.n - 1)))
        unwritten = [10] if draw(st.integers(0, 3)) == 0 else []
        tail_written = _draw_instructions(draw, f, group, regs, written, unwritten, draw(st.integers(0, 6)))
        tails.append((f.alphabet[len(prefix.alphabet):], f.instructions[n:], draw(st.sampled_from(tail_written))))
    return prefix, tails, draw(st.sampled_from(written))


def _same_compaction(b: SlpBuilder, out: int) -> None:
    """``b.compact(out)`` is ``compact`` of the whole program, or raises an
    error of the same kind."""
    try:
        want = compact(b.finish(out))
    except InvalidProgramError as e:
        with pytest.raises(InvalidProgramError) as got:
            b.compact(out)
        kind = re.compile(r"( in)? [\d(-].*")  # the message without its register or instruction
        assert kind.sub("", str(got.value)) == kind.sub("", str(e))
    else:
        assert b.compact(out) == want


@given(forked())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_compact_of_a_fork_is_compact_of_its_program(case):
    prefix, tails, out = case
    _same_compaction(prefix, out)  # a fork at a random point
    for i, (values, tail, out) in enumerate(tails):  # forks of that fork
        f = prefix.fork()
        f.alphabet += values
        f.instructions += tail
        memo = prefix._shared[2]
        scans = len(memo.out)
        _same_compaction(f, out)
        if tails[i] in tails[:i]:  # the same registers read: a memo hit
            assert len(memo.out) == scans


def test_constructor_rejects_an_output_never_assigned():
    with pytest.raises(InvalidProgramError, match="output register never assigned"):
        Slp((0,), (("L", 0, 0),), 1)


def test_compact_of_a_fork_that_writes_nothing_needs_an_output_its_prefix_wrote():
    b = SlpBuilder()
    b.load(b.fresh(), 3)
    assert b.fork().compact(0) == Slp((3,), (("L", 0, 0),), 0)
    with pytest.raises(InvalidProgramError, match="output register never assigned"):
        b.fork().compact(1)


def test_evaluate_rejects_an_alphabet_value_outside_the_semigroup():
    with pytest.raises(InvalidProgramError, match="outside semigroup"):
        evaluate(zoo.make_cyclic(5), Slp((5,), (("L", 0, 0),), 0))


@pytest.mark.parametrize("e", [0, 1])
def test_fast_exp_into_needs_an_exponent_of_two_or_more(e):
    b = SlpBuilder()
    b.load(b.fresh(), 0)
    with pytest.raises(ValueError, match="exponent >= 2"):
        b.fast_exp_into(b.fresh(), 0, e)


@pytest.mark.parametrize("n", [0, -3])
def test_fast_exp_needs_a_positive_exponent(n):
    with pytest.raises(ValueError, match="exponent must be >= 1"):
        fast_exp(0, n)
