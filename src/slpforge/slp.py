"""Straight-line programs over semigroup generators.

A program is a sequence of instructions over registers:

    ("L", dst, k)      load alphabet symbol k into dst
    ("M", dst, a, b)   dst <- a * b
    ("I", dst, a)      dst <- a^-1         (group programs only)

Length is the instruction count, width the number of registers.  Programs
are immutable values; a strategy composes pieces by emitting them into one
``SlpBuilder`` (``splice``, ``word_product``).  Every ``Slp`` is canonical:
its constructor rejects a first write to any register but the next unused
number, so registers are 0, 1, 2, ... in first-assignment order, and metrics
and file round-trips are reproducible bit for bit.  ``SlpBuilder.finish``
and ``io.parse_slp`` renumber what they are given into that order.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import InvalidProgramError, InverseOutsideGroupError
from .groups import GroupView, minimal_generating_subset
from .semigroup import Semigroup, closure, shortest_word


@dataclass(frozen=True)
class Slp:
    alphabet: tuple[int, ...]
    instructions: tuple[tuple, ...]
    output: int
    width: int = field(init=False)      # registers 0 .. width - 1 are written
    is_group: bool = field(init=False)  # an INV instruction is present

    def __post_init__(self):
        width, is_group = 0, False
        for ins in self.instructions:
            op = ins[0]
            if op == "L":
                _, dst, k = ins
                if not 0 <= k < len(self.alphabet):
                    raise InvalidProgramError(f"load of unknown symbol {k}")
            elif op == "M":
                _, dst, a, b = ins
                if not (0 <= a < width and 0 <= b < width):
                    raise InvalidProgramError(f"read of unassigned register in {ins}")
            elif op == "I":
                _, dst, a = ins
                if not 0 <= a < width:
                    raise InvalidProgramError(f"read of unassigned register in {ins}")
                is_group = True
            else:
                raise InvalidProgramError(f"unknown opcode {op!r}")
            if dst == width:
                width += 1
            elif not 0 <= dst < width:
                raise InvalidProgramError(
                    f"first write to register {dst} in {ins}, expected {width}"
                )
        if not 0 <= self.output < width:
            raise InvalidProgramError("output register never assigned")
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "is_group", is_group)

    @property
    def length(self) -> int:
        return len(self.instructions)

    def relabel(self, values) -> "Slp":
        """The same program over new alphabet values: symbol value v becomes
        ``values[v]`` (a mapping, or a sequence indexed by value)."""
        return Slp(tuple(int(values[v]) for v in self.alphabet), self.instructions, self.output)


def _renumbered(alphabet, instructions: tuple, output: int) -> tuple[tuple, int]:
    """Registers renumbered 0, 1, 2, ... in first-assignment order, a load of
    a repeated alphabet value reading its first symbol; the same tuple comes
    back when already numbered that way.  A read of a register never assigned,
    and an output never assigned, raise InvalidProgramError; a read before the
    first assignment stays one, for the program's own check to reject.
    """
    regs = list(dict.fromkeys([ins[1] for ins in instructions]))
    if regs == list(range(len(regs))):
        return instructions, output
    ren = dict(zip(regs, range(len(regs))))
    if output not in ren:
        raise InvalidProgramError("output register never assigned")
    first = {v: k for k, v in reversed(list(enumerate(alphabet)))}
    sym = {k: first[v] for k, v in enumerate(alphabet)} if len(first) < len(alphabet) else {}
    out: list[tuple] = []
    emit = out.append
    try:
        for ins in instructions:
            op = ins[0]
            if op == "M":
                emit(("M", ren[ins[1]], ren[ins[2]], ren[ins[3]]))
            elif op == "L":
                emit(("L", ren[ins[1]], sym.get(ins[2], ins[2])))
            elif op == "I":
                emit(("I", ren[ins[1]], ren[ins[2]]))
            else:
                emit(ins)  # the program's own check names the opcode
    except KeyError:
        raise InvalidProgramError(f"read of unassigned register in {ins}") from None
    return tuple(out), ren[output]


@dataclass
class EvalTrace:
    registers: dict[int, int]
    output_value: int


def evaluate(S: Semigroup, prog: Slp, group: Optional[GroupView] = None) -> EvalTrace:
    """Execute the program over S.  INV needs the group view of S."""
    for v in prog.alphabet:
        if not 0 <= v < S.n:
            raise InvalidProgramError(f"alphabet value {v} outside semigroup")
    item, alphabet = S.table.item, prog.alphabet
    regs = [0] * prog.width  # canonical: every register 0 .. width - 1 is written
    for ins in prog.instructions:
        op = ins[0]
        if op == "M":
            regs[ins[1]] = item(regs[ins[2]], regs[ins[3]])
        elif op == "L":
            regs[ins[1]] = alphabet[ins[2]]
        else:
            if group is None:
                raise InverseOutsideGroupError("INV without a group")
            regs[ins[1]] = group.inverse[regs[ins[2]]]
    return EvalTrace(dict(enumerate(regs)), regs[prog.output])


def verify(S: Semigroup, prog: Slp, t: int, group=None) -> bool:
    """Whether the program evaluates to the target."""
    return evaluate(S, prog, group=group).output_value == t


class SlpBuilder:
    """Mutable instruction buffer with symbol interning."""

    def __init__(self):
        self.instructions: list[tuple] = []
        self.alphabet: list[int] = []
        self._sym_index: dict[int, int] = {}
        self._next_reg = 0

    def fork(self) -> "SlpBuilder":
        """A new builder holding a copy of everything this one holds."""
        b = copy.copy(self)
        b.instructions, b.alphabet, b._sym_index = list(b.instructions), list(b.alphabet), dict(b._sym_index)
        return b

    def fresh(self) -> int:
        r = self._next_reg
        self._next_reg = r + 1
        return r

    def symbol(self, value: int) -> int:
        k = self._sym_index.get(value)
        if k is None:
            k = len(self.alphabet)
            self.alphabet.append(value)
            self._sym_index[value] = k
        return k

    def load(self, dst: int, value: int) -> None:
        self.instructions.append(("L", dst, self.symbol(value)))

    def mul(self, dst: int, a: int, b: int) -> None:
        self.instructions.append(("M", dst, a, b))

    def inv(self, dst: int, a: int) -> None:
        self.instructions.append(("I", dst, a))

    def write(self, block: Sequence[tuple]) -> None:
        """Append instructions whose loads name alphabet values, not symbols."""
        for ins in block:
            if ins[0] == "L":
                self.load(ins[1], ins[2])
            else:
                self.instructions.append(ins)

    def word_product(self, values: Sequence[int], acc: int, scratch: int) -> None:
        """acc <- left-to-right product of the given element values."""
        self.load(acc, values[0])
        for v in values[1:]:
            self.load(scratch, v)
            self.mul(acc, acc, scratch)

    def fast_exp_into(self, acc: int, base: int, e: int) -> None:
        """acc <- (value of base)^e by MSB-first square and multiply; e >= 2.

        The base register is read but never written, so its value survives.
        """
        if e < 2:
            raise ValueError("fast_exp_into needs exponent >= 2")
        bits = bin(e)[2:]
        self.mul(acc, base, base)
        if bits[1] == "1":
            self.mul(acc, acc, base)
        for b in bits[2:]:
            self.mul(acc, acc, acc)
            if b == "1":
                self.mul(acc, acc, base)

    def splice(self, prog: Slp, base: int) -> int:
        """Re-emit ``prog`` with each register r written as base + r; returns
        the register that holds its output.  Its alphabet values are interned,
        and ``fresh`` hands out no register it wrote."""
        emit, symbol, alphabet = self.instructions.append, self.symbol, prog.alphabet
        for ins in prog.instructions:
            if ins[0] == "M":
                emit(("M", base + ins[1], base + ins[2], base + ins[3]))
            elif ins[0] == "L":
                emit(("L", base + ins[1], symbol(alphabet[ins[2]])))
            else:
                emit(("I", base + ins[1], base + ins[2]))
        self._next_reg = max(self._next_reg, base + prog.width)
        return base + prog.output

    def finish(self, output: int) -> Slp:
        """The program, its registers numbered in first-assignment order."""
        instructions, output = _renumbered(self.alphabet, tuple(self.instructions), output)
        return Slp(tuple(self.alphabet), instructions, output)


def fast_exp(symbol: int, n: int) -> Slp:
    """Width-2 square-and-multiply program for symbol^n, length <= 2*floor(log2 n) + 1."""
    if n < 1:
        raise ValueError("exponent must be >= 1")
    b = SlpBuilder()
    base = b.fresh()
    b.load(base, symbol)
    if n == 1:
        return b.finish(base)
    acc = b.fresh()
    b.fast_exp_into(acc, base, n)
    return b.finish(acc)


class InverseMirror:
    """The inverse-elimination pass over one alphabet, resumable.

    The prelude computes the inverses of a minimal generating subset once
    (prefix/suffix products and one omega-minus-one exponentiation).  ``feed``
    pairs each input register with two of ``b``, ``neg`` holding the inverse;
    INV swaps the pair, so a write takes fresh registers where the old ones
    are shared (``refs`` counts slots per register).  The output depends on
    the input registers only through which are equal, so a program fed in
    pieces, under any such numbering, gives the same program.
    """

    def __init__(self, G: GroupView, alphabet: Sequence[int]):
        sigma = tuple(sorted(set(alphabet)))
        # the prelude's inputs depend only on the alphabet; memoised on the table
        sigma_min, inv_exp = G.base.cached(("inverse_prelude", sigma), lambda: _inverse_prelude(G, sigma))
        self.G, self.alphabet, self.sigma_min, self.b = G, tuple(alphabet), sigma_min, SlpBuilder()
        b, s = self.b, len(sigma_min)

        # prefixes h_i = g_1 ... g_i parked in the future inverse slots
        regs = [b.fresh()]
        b.load(regs[0], sigma_min[0])
        scratch = b.fresh() if s >= 2 else None
        for i in range(1, s):
            b.load(scratch, sigma_min[i])
            regs.append(b.fresh())
            b.mul(regs[i], regs[i - 1], scratch)
        # gbar = (g_1 ... g_s)^-1 via the group exponent
        gbar = b.fresh()
        b.fast_exp_into(gbar, regs[s - 1], inv_exp)
        self.inv_reg = dict(zip(sigma_min, regs))  # later holds g^-1
        # extract inverses right to left: g_i^-1 = (g_i+1 ... g_s) gbar h_i-1,
        # the suffix product kept in kreg
        for i in range(s - 1, 0, -1):
            if i == s - 1:
                b.mul(regs[i], gbar, regs[i - 1])
                kreg = b.fresh()
                b.load(kreg, sigma_min[i])
            else:
                b.mul(scratch, kreg, gbar)
                b.mul(regs[i], scratch, regs[i - 1])
                b.load(scratch, sigma_min[i])
                b.mul(kreg, scratch, kreg)
        if s == 1:
            self.inv_reg[sigma_min[0]] = gbar
        else:
            b.mul(regs[0], kreg, gbar)
        self.pos, self.neg, self.refs, self.free = {}, {}, {}, []
        self.pinned = set(self.inv_reg.values())

    def fork(self) -> "InverseMirror":
        """A copy to resume independently of this one."""
        m = copy.copy(self)
        m.b, m.pos, m.neg = self.b.fork(), dict(self.pos), dict(self.neg)
        m.refs, m.free = dict(self.refs), list(self.free)
        return m

    def _take(self) -> int:
        """A released register, or a new one."""
        return self.free.pop() if self.free else self.b.fresh()

    def _reusable(self, dst: int) -> list[int]:
        out = []
        for m in (self.pos, self.neg):
            old = m.get(dst)
            if old is not None and old not in self.pinned and self.refs[old] == 1:
                out.append(old)
        return out

    def writable_pair(self, dst: int) -> tuple[int, int]:
        """(pos, neg) registers safe to overwrite for dst."""
        out = self._reusable(dst)
        while len(out) < 2:
            out.append(self._take())
        return out[0], out[1]

    def writable_one(self, dst: int) -> int:
        out = self._reusable(dst)
        return out[0] if out else self._take()

    def rebind(self, dst: int, p: int, n: int) -> None:
        refs = self.refs
        for m, new in ((self.pos, p), (self.neg, n)):
            old = m.get(dst)
            m[dst] = new
            refs[new] = refs.get(new, 0) + 1
            if old is None:
                continue
            refs[old] -= 1
            if (
                old not in (p, n)
                and old not in self.pinned
                and refs[old] == 0
                and old not in self.free
            ):
                self.free.append(old)

    def feed(self, instructions: Sequence[tuple]) -> None:
        b, inv_reg = self.b, self.inv_reg
        for ins in instructions:
            if ins[0] == "L":
                dst, g = ins[1], self.alphabet[ins[2]]
                if g in inv_reg:
                    p = self.writable_one(dst)
                    b.load(p, g)
                    self.rebind(dst, p, inv_reg[g])
                    continue
                # the word search tree is memoised on the table across programs
                positions = shortest_word(self.G.base, self.sigma_min, g)
                if positions is None:
                    raise InvalidProgramError(
                        f"generator {g} not expressible over the minimal subset"
                    )
                w = [self.sigma_min[i] for i in positions]
                p, nreg = self.writable_pair(dst)
                b.load(p, w[0])
                for letter in w[1:]:
                    b.load(nreg, letter)
                    b.mul(p, p, nreg)
                rev = list(reversed(w))
                b.mul(nreg, inv_reg[rev[0]], inv_reg[rev[1]])
                for letter in rev[2:]:
                    b.mul(nreg, nreg, inv_reg[letter])
                self.rebind(dst, p, nreg)
            elif ins[0] == "M":
                dst, x, y = ins[1], ins[2], ins[3]
                px, nx = self.pos[x], self.neg[x]
                py, ny = self.pos[y], self.neg[y]
                p, nreg = self.writable_pair(dst)
                # INV aliasing can make the reused slot an operand of the twin
                # instruction; order the writes so no operand is clobbered first
                pos_hazard = p in (nx, ny)
                neg_hazard = nreg in (px, py)
                if pos_hazard and neg_hazard:
                    p = self._take()
                    pos_hazard = False
                if pos_hazard:
                    b.mul(nreg, ny, nx)
                    b.mul(p, px, py)
                else:
                    b.mul(p, px, py)
                    b.mul(nreg, ny, nx)
                self.rebind(dst, p, nreg)
            else:
                dst, x = ins[1], ins[2]
                self.rebind(dst, self.neg[x], self.pos[x])

    def finish(self, output: int) -> Slp:
        """The ordinary program for the value the fed register ``output`` holds."""
        return self.b.finish(self.pos[output])


def eliminate_inverses(G: GroupView, prog: Slp) -> Slp:
    """Rewrite a group SLP into an ordinary SLP over the same generators: the
    ``InverseMirror`` pass fed the whole program.  A program without INV
    comes back as it is."""
    if not prog.is_group:
        return prog
    mirror = InverseMirror(G, prog.alphabet)
    mirror.feed(prog.instructions)
    return mirror.finish(prog.output)


def _inverse_prelude(G: GroupView, sigma: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Minimal generating subset of the group the alphabet generates, and the
    power that inverts every element of that group."""
    exponent = math.lcm(*G.base.periods[closure(G.base, sigma).mask].tolist())
    sigma_min = tuple(sorted(minimal_generating_subset(G, sigma)))
    return sigma_min, inverting_power(exponent)


def inverting_power(exponent: int) -> int:
    """A power k >= 2 with g^k = g^-1 for every g of a group of this exponent."""
    return exponent - 1 if exponent - 1 >= 2 else 2 * exponent - 1
