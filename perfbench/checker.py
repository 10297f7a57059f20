"""Independent output checker.

It reads the table from the .cay text and each program from its canonical
.slp text, then replays the program with a plain-Python interpreter and
computes membership with its own set-based closure.  It shares no code with
slpforge, so a bug in ``slpforge.evaluate`` or ``slpforge.closure`` cannot
hide a wrong answer.
"""

from __future__ import annotations

from typing import Optional


class CheckError(Exception):
    """The program's output disagrees with the checker."""


def parse_table(cay_text: str) -> list[list[int]]:
    rows: list[list[int]] = []
    header = None
    for line in cay_text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split()
            continue
        rows.append([int(x) for x in line.split()])
    n = int(header[1])
    if header[0] != "CAYLEY" or len(rows) != n or any(len(r) != n for r in rows):
        raise CheckError("malformed .cay text")
    return rows


def closure(rows: list[list[int]], gens: list[int]) -> set[int]:
    """Everything generated by gens: close under right multiplication by them."""
    members = set(gens)
    frontier = list(members)
    while frontier:
        nxt = []
        for x in frontier:
            row = rows[x]
            for g in gens:
                y = row[g]
                if y not in members:
                    members.add(y)
                    nxt.append(y)
        frontier = nxt
    return members


def inverse(rows: list[list[int]], a: int) -> int:
    """a^-1 inside the maximal subgroup holding a; CheckError if there is none.

    The first idempotent power a^k is that subgroup's identity, so the
    inverse is a^(k-1), or a itself when a is idempotent.
    """
    powers = [a]
    while rows[powers[-1]][powers[-1]] != powers[-1]:
        powers.append(rows[powers[-1]][a])
        if len(powers) > len(rows) + 1:
            raise CheckError(f"power sequence of {a} has no idempotent")
    if rows[a][powers[-1]] != a:
        raise CheckError(f"{a} lies in no subgroup, so INV is undefined")
    return powers[-2] if len(powers) > 1 else a


def parse_program(slp_text: str) -> tuple[list[int], list[tuple], int]:
    lines = [ln.split() for ln in slp_text.splitlines() if ln.strip()]
    try:
        if lines[0] != ["SLP"] or lines[1][0] != "A" or lines[-1][0] != "O" or len(lines) < 3:
            raise ValueError("missing SLP, A or O line")
        alphabet = [int(x) for x in lines[1][1:]]
        instrs = [(p[0],) + tuple(int(x) for x in p[1:]) for p in lines[2:-1]]
        return alphabet, instrs, int(lines[-1][1])
    except (IndexError, ValueError) as exc:
        raise CheckError(f"malformed .slp text: {exc}") from exc


def run_program(rows: list[list[int]], alphabet: list[int], instrs: list[tuple], output: int) -> int:
    regs: dict[int, int] = {}
    for ins in instrs:
        op = ins[0]
        if op == "L" and len(ins) == 3:
            regs[ins[1]] = alphabet[ins[2]]
        elif op == "M" and len(ins) == 4:
            regs[ins[1]] = rows[regs[ins[2]]][regs[ins[3]]]
        elif op == "I" and len(ins) == 3:
            regs[ins[1]] = inverse(rows, regs[ins[2]])
        else:
            raise CheckError(f"bad instruction {ins}")
    return regs[output]


def check_program(rows: list[list[int]], gens: list[int], target: int, slp_text: str) -> tuple[int, int]:
    """Check that the program builds target from gens; return (length, width)."""
    alphabet, instrs, output = parse_program(slp_text)
    stray = set(alphabet) - set(gens)
    if stray:
        raise CheckError(f"program loads non-generators {sorted(stray)}")
    try:
        value = run_program(rows, alphabet, instrs, output)
    except (KeyError, IndexError) as exc:
        raise CheckError(f"program reads an unset register or symbol: {exc!r}") from exc
    if value != target:
        raise CheckError(f"program evaluates to {value}, target is {target}")
    registers = set()
    for ins in instrs:
        registers.update(ins[1:] if ins[0] != "L" else ins[1:2])
    return len(instrs), len(registers)


def check_membership(
    rows: list[list[int]], gens: list[int], target: int, member: bool, slp_text: Optional[str]
) -> Optional[tuple[int, int]]:
    """Check a membership answer and, for members, its certificate."""
    expected = target in closure(rows, gens)
    if member != expected:
        raise CheckError(f"member={member} for {target}, closure says {expected}")
    if not member:
        if slp_text is not None:
            raise CheckError("non-member answer carries a certificate")
        return None
    if slp_text is None:
        raise CheckError("member answer has no certificate")
    return check_program(rows, gens, target, slp_text)
