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
and file round-trips are reproducible bit for bit.

Every program a strategy returns passes once through ``compact``
(``SlpBuilder.compact``): one backward liveness scan drops each instruction
whose value is never read, and one forward scan gives each value the
register most recently freed by a last read, or the next new one.  The
result is canonical, never longer or wider than its input, loads only the
alphabet values it reads, and is its own compaction.  ``SlpBuilder.finish``
and ``io.parse_slp`` only renumber: group programs, which the inverse
elimination reads whole, ``fast_exp``, and a file, which is the user's
program.

Programs built from shared blocks share their scans through one memo,
``BlockScans``: per block and scan state on entry, what the forward scan
writes and the state it leaves.  ``compact_blocks`` joins memoised blocks,
and a fork's ``compact`` scans the prefix it shares with its builder's other
forks as one block, keyed by the prefix registers it reads, then resumes
from the state that block leaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Optional, Sequence

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
        width, is_group, symbols = 0, False, len(self.alphabet)
        for ins in self.instructions:
            op = ins[0]
            if op == "L":
                _, dst, k = ins
                if not 0 <= k < symbols:
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

    @classmethod
    def _scanned(cls, alphabet: tuple, instructions: tuple, output: int, width: int, is_group: bool) -> "Slp":
        """A program ``compact``'s scan numbered canonically as it wrote it."""
        prog = object.__new__(cls)
        prog.__dict__.update(alphabet=alphabet, instructions=instructions, output=output, width=width, is_group=is_group)
        return prog

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


def _liveness(instructions: Sequence[tuple], live: set, pending: set) -> list[tuple[tuple, int]]:
    """``compact``'s backward scan of a block.  ``live`` holds the registers
    read after it, ``pending`` those read after it by dropped instructions.
    Returns the instructions whose value is read, each with the operands it
    reads last (1: the first, 2: the second, 3: both), and leaves in both sets
    what is read before the block."""
    kept = []
    for ins in reversed(instructions):
        op, dst = ins[0], ins[1]
        if pending:
            pending.discard(dst)
        if op not in ("L", "M", "I"):
            raise InvalidProgramError(f"unknown opcode {op!r}")
        if dst not in live:
            pending.update(ins[2:] if op != "L" else ())
            continue
        live.discard(dst)
        last = 0
        if op == "M":
            a, b = ins[2], ins[3]
            last = (a not in live) + 2 * (b != a and b not in live)
            live.add(a)
            live.add(b)
        elif op == "I":
            last = ins[2] not in live
            live.add(ins[2])
        kept.append((ins, last))
    kept.reverse()
    return kept


def _unread(*reads: set) -> None:
    if any(reads):
        raise InvalidProgramError(f"read of unassigned register {min(set().union(*reads))}")


class _Scan:
    """``compact``'s forward scan, resumable: each kept value goes to the
    register its last read freed most recently (the first operand's when both
    are), or else to the next new one; values are numbered by first load."""

    __slots__ = ("where", "free", "width", "first", "values", "out", "is_group")

    def __init__(self):
        self.where: dict[int, int] = {}  # input register -> register holding its value
        self.free: list[int] = []        # freed registers, the latest on top
        self.first: dict[int, int] = {}  # value -> output symbol
        self.values: list[int] = []
        self.out: list[tuple] = []
        self.width, self.is_group = 0, False

    def run(self, alphabet: Sequence[int], kept: Sequence[tuple[tuple, int]]) -> None:
        """Scan ``_liveness``'s output; ``alphabet`` maps its symbols to values."""
        where, free, first, values, emit, width = self.where, self.free, self.first, self.values, self.out.append, self.width
        symbols = len(alphabet)
        try:
            for ins, last in kept:
                op = ins[0]
                if op == "M":
                    a, b = where[ins[2]], where[ins[3]]
                    if last == 1:
                        dst = a
                    elif last == 2:
                        dst = b
                    elif last:
                        free.append(b)
                        dst = a
                    elif free:
                        dst = free.pop()
                    else:
                        dst, width = width, width + 1
                    emit(("M", dst, a, b))
                else:
                    if op == "L":  # never a last read: ``a`` is a symbol
                        if not 0 <= ins[2] < symbols:
                            raise InvalidProgramError(f"load of unknown symbol {ins[2]}")
                        v = alphabet[ins[2]]
                        a = first.get(v)
                        if a is None:
                            a = first[v] = len(values)
                            values.append(v)
                    else:
                        a, self.is_group = where[ins[2]], True
                    if last:
                        dst = a
                    elif free:
                        dst = free.pop()
                    else:
                        dst, width = width, width + 1
                    emit((op, dst, a))
                where[ins[1]] = dst
        except KeyError:
            raise InvalidProgramError(f"read of unassigned register in {ins}") from None
        self.width = width

    def program(self, output: int) -> Slp:
        return Slp._scanned(tuple(self.values), tuple(self.out), self.where[output], self.width, self.is_group)


def _compacted(alphabet: Sequence[int], instructions: Sequence[tuple], output: int) -> Slp:
    live, pending = {output}, set()
    kept = _liveness(instructions, live, pending)
    if not kept:
        raise InvalidProgramError("output register never assigned")
    _unread(live, pending)
    scan = _Scan()
    scan.run(alphabet, kept)
    return scan.program(output)


def compact(prog: Slp) -> Slp:
    """The program without the instructions whose value is never read, each
    value in the register most recently freed by a last read (or the next new
    one), loading only the alphabet values it reads.  Never longer or wider
    than ``prog``; a program already compact comes back as it is."""
    out = _compacted(prog.alphabet, prog.instructions, prog.output)
    return prog if out == prog else out


def scan_block(instructions: Sequence[tuple], live) -> list[tuple[tuple, int]]:
    """``compact``'s backward scan of a block after which the registers
    ``live`` are read, for ``compact_blocks``.  The block may read registers
    written before it, but may not drop an instruction that does."""
    live, pending = set(live), set()
    kept = _liveness(instructions, live, pending)
    _unread(pending)
    return kept


class BlockScans:
    """``compact``'s memo over blocks that programs share: per block key and
    ``_Scan`` state on entry, the instructions the scan writes for the block
    and the state it leaves (``compact_blocks``, ``SlpBuilder.fork``).  A
    state is where, free, width, the values loaded so far in first-load
    order, and is_group; each is numbered at first sight, 0 being the empty
    scan, and keeps its value map.  The pieces hold one tuple per distinct
    instruction.  It only grows."""

    def __init__(self):
        self.states: list[tuple] = [((), (), 0, (), False)]
        self.firsts: list[dict[int, int]] = [{}]  # per state, value -> output symbol
        self.numbers: dict[tuple, int] = {self.states[0]: 0}
        self.out: dict[tuple, tuple[tuple, int]] = {}
        self.interned: dict[tuple, tuple] = {}

    def resume(self, state: int, out: Sequence[tuple]) -> _Scan:
        """A ``_Scan`` in state number ``state`` that has written ``out``."""
        where, free, width, values, is_group = self.states[state]
        scan = _Scan()
        scan.where, scan.free, scan.width, scan.is_group = dict(where), list(free), width, is_group
        scan.values, scan.first, scan.out = list(values), dict(self.firsts[state]), list(out)
        return scan

    def scan(self, key, state: int, kept: Sequence[tuple[tuple, int]], alphabet: Sequence[int], keep) -> tuple[tuple, int]:
        """Run ``_Scan`` over ``kept`` from state number ``state``, its loads
        naming symbols of ``alphabet``; memoises and returns the instructions
        it wrote and the state it left, which knows where only the registers
        ``keep`` went (every register, if None)."""
        scan = self.resume(state, ())
        scan.run(alphabet, kept)
        where = scan.where if keep is None else {r: scan.where[r] for r in keep}
        after = (tuple(sorted(where.items())), tuple(scan.free), scan.width, tuple(scan.values), scan.is_group)
        number = self.numbers.setdefault(after, len(self.states))
        if number == len(self.states):
            self.states.append(after)
            self.firsts.append(scan.first)
        interned = self.interned
        piece = self.out[key, state] = (tuple([interned.setdefault(ins, ins) for ins in scan.out]), number)
        return piece


def compact_blocks(
    memo: BlockScans, alphabet: Sequence[int], keys: Iterable[Hashable], block: Callable[[Hashable], list], output: int
) -> Slp:
    """``compact`` of the program the blocks ``keys`` name form in order.
    ``block(key)`` is ``scan_block``'s scan of a block, with what the blocks
    after it and ``output`` read; its loads name symbols of ``alphabet``.
    Each block is scanned once per state the scan enters it in, memoised in
    ``memo``, so the program joins memoised pieces."""
    out: list[tuple] = []
    state, pieces = 0, memo.out
    for key in keys:
        piece = pieces.get((key, state))
        if piece is None:
            piece = memo.scan(key, state, block(key), alphabet, None)
        out += piece[0]
        state = piece[1]
    where, _, width, values, is_group = memo.states[state]
    where = dict(where)
    if output not in where:
        raise InvalidProgramError("output register never assigned")
    return Slp._scanned(values, tuple(out), where[output], width, is_group)


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
        self._prefix: Optional[tuple] = None  # (length, registers written, BlockScans) this fork shares
        self._shared: Optional[tuple] = None  # the same for forks of this builder

    def fork(self) -> "SlpBuilder":
        """A new builder holding a copy of everything this one holds.  Its
        ``compact`` scans this builder's instructions as one ``BlockScans``
        block, keyed by the set of their registers the fork goes on to read
        and memoised across all forks."""
        b = SlpBuilder.__new__(SlpBuilder)
        b.instructions, b.alphabet, b._sym_index = list(self.instructions), list(self.alphabet), dict(self._sym_index)
        b._next_reg = self._next_reg
        if self._shared is None or self._shared[0] != len(self.instructions):
            self._shared = (len(self.instructions), {ins[1] for ins in self.instructions}, BlockScans())
        b._prefix, b._shared = self._shared, None
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
        """The program, its registers numbered in first-assignment order and
        every instruction kept."""
        instructions, output = _renumbered(self.alphabet, tuple(self.instructions), output)
        return Slp(tuple(self.alphabet), instructions, output)

    def compact(self, output: int) -> Slp:
        """The program compacted (``compact``): for a program returned."""
        if self._prefix is None:
            return _compacted(self.alphabet, self.instructions, output)
        n, written, memo = self._prefix
        live, pending = {output}, set()
        kept = _liveness(self.instructions[n:], live, pending)
        if pending:
            _unread(pending - written)
        if not kept and output not in written:
            raise InvalidProgramError("output register never assigned")
        reads = frozenset(live)
        piece = memo.out.get((reads, 0))
        if piece is None:
            pending = set()
            head = _liveness(self.instructions[:n], live, pending)
            _unread(live, pending)
            piece = memo.scan(reads, 0, head, self.alphabet, reads)
        scan = memo.resume(piece[1], piece[0])
        scan.run(self.alphabet, kept)
        return scan.program(output)


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
    a write takes new registers and INV swaps the pair, so no value the pair
    holds is ever overwritten, and ``finish`` leaves register reuse to
    ``compact``.  The output depends on the input registers only through which
    are equal, so a program fed in pieces, under any such numbering, gives the
    same program.
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
        self.pos: dict[int, int] = {}
        self.neg: dict[int, int] = {}

    def fork(self) -> "InverseMirror":
        """A copy to resume independently of this one."""
        m = InverseMirror.__new__(InverseMirror)
        m.__dict__.update(self.__dict__)
        m.b, m.pos, m.neg = self.b.fork(), dict(self.pos), dict(self.neg)
        return m

    def feed(self, instructions: Sequence[tuple]) -> None:
        b, inv_reg, pos, neg, fresh = self.b, self.inv_reg, self.pos, self.neg, self.b.fresh
        for ins in instructions:
            dst = ins[1]
            if ins[0] == "L":
                g = self.alphabet[ins[2]]
                p = fresh()
                if g in inv_reg:
                    b.load(p, g)
                    pos[dst], neg[dst] = p, inv_reg[g]
                    continue
                # the word search tree is memoised on the table across programs
                positions = shortest_word(self.G.base, self.sigma_min, g)
                if positions is None:
                    raise InvalidProgramError(
                        f"generator {g} not expressible over the minimal subset"
                    )
                w = [self.sigma_min[i] for i in positions]
                n = fresh()
                b.load(p, w[0])
                for letter in w[1:]:
                    b.load(n, letter)
                    b.mul(p, p, n)
                rev = list(reversed(w))
                b.mul(n, inv_reg[rev[0]], inv_reg[rev[1]])
                for letter in rev[2:]:
                    b.mul(n, n, inv_reg[letter])
            elif ins[0] == "M":
                x, y = ins[2], ins[3]
                p, n = fresh(), fresh()
                b.mul(p, pos[x], pos[y])
                b.mul(n, neg[y], neg[x])
            else:
                p, n = neg[ins[2]], pos[ins[2]]
            pos[dst], neg[dst] = p, n

    def finish(self, output: int) -> Slp:
        """The ordinary program, compacted, for the value the fed register
        ``output`` holds."""
        return self.b.compact(self.pos[output])


def eliminate_inverses(G: GroupView, prog: Slp) -> Slp:
    """Rewrite a group SLP into an ordinary SLP over the same generators: the
    ``InverseMirror`` pass fed the whole program, then ``compact``."""
    if not prog.is_group:
        return compact(prog)
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
    return exponent - 1 if exponent > 2 else exponent + 1
