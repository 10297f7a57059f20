"""Acceptance gate: one test per criterion, each printing a PASS line.

Tolerances and guards are pinned here, not configured elsewhere.  Several
criteria use calibrated regression guards where the underlying results are
asymptotic; the guard constants are frozen in this module.
"""

import math
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from slpforge import zoo
from slpforge.classify import Config
from slpforge.compressors import (
    class_generators,
    compress,
    compress_bounded_diameter,
    compress_general,
    build_cube,
    compress_group_reachability,
    compress_group_solvable,
    compress_group_solvable_bounded,
    compress_normal_band,
    compress_permutative,
    emit_from_cube,
    solvable_plan,
)
from slpforge.decomposition import band_of_groups_decomposition
from slpforge.groups import derived_series, group_view, is_adapted, subgroup_closure
from slpforge.membership import irredundancy, member_certified, member_oracle
from slpforge.semigroup import closure
from slpforge.slp import Slp, eliminate_inverses, evaluate, fast_exp

PASS = "ACCEPTANCE {num:>2} {name}: PASS ({detail})"


def _passline(num, name, detail=""):
    print(PASS.format(num=num, name=name, detail=detail))


def _solvable_families():
    fams = []
    for k in range(3, 10):
        m = 2 ** (k - 1)
        fams.append((zoo.make_dihedral(m), zoo.dihedral_generators(m)))
    fams.append((zoo.make_heisenberg(3), zoo.heisenberg_generators(3)))
    fams.append((zoo.make_heisenberg(5), zoo.heisenberg_generators(5)))
    fams.append(
        (zoo.make_sym(4), [zoo.perm_index(4, (1, 0, 2, 3)), zoo.perm_index(4, (1, 2, 3, 0))])
    )
    return fams


def test_01_oracle_equivalence(zoo_small):
    t0 = time.time()
    rng = random.Random(20260809)
    checked = 0
    for name, (S, gens, _) in zoo_small.items():
        assert S.n <= 80, name
        members = closure(S, gens)
        for t in range(S.n):
            answer = member_certified(S, gens, t)
            assert answer.member == member_oracle(S, gens, t) == (t in members), (name, t)
            checked += 1
        for _ in range(200):
            sub = rng.sample(range(S.n), rng.randrange(1, min(5, S.n) + 1))
            t = rng.randrange(S.n)
            answer = member_certified(S, sub, t)
            assert answer.member == member_oracle(S, sub, t), (name, sub, t)
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 300, f"criterion 1 must finish inside 5 minutes, took {elapsed:.0f}s"
    _passline(1, "oracle equivalence", f"{checked} instances in {elapsed:.1f}s")


def test_02_universal_certificate_validity(zoo_small):
    rng = random.Random(77)
    structures = dict(zoo_small)
    structures["D16"] = (zoo.make_dihedral(8), zoo.dihedral_generators(8), None)
    structures["Z3^3"] = (zoo.make_abelian([3, 3, 3]), zoo._abelian_unit_generators([3, 3, 3]), None)
    sl = zoo.make_subset_semilattice(6)
    structures["Sl2^6"] = (sl.semigroup, sl.generators, sl.target)
    cases = 0
    failures = 0
    names = sorted(structures)
    while cases < 1000:
        name = names[cases % len(names)]
        S, gens, _ = structures[name]
        if rng.random() < 0.5:
            sub = gens
        else:
            sub = rng.sample(range(S.n), rng.randrange(1, min(5, S.n) + 1))
        members = sorted(closure(S, sub))
        t = rng.choice(members)
        rep = compress(S, sub, t, "auto")
        if not rep.verified:
            failures += 1
        cases += 1
    assert failures == 0
    _passline(2, "universal certificate validity", f"{cases} cases, 0 failures")


def test_03_fast_exponentiation():
    """Integer-coefficient simulation proves the computed power is exactly n,
    which makes the value correct in every semigroup; cyclic groups up to
    order 97 are additionally evaluated through the real evaluator."""
    max_n = 1 << 16
    for n in range(1, max_n + 1):
        prog = fast_exp(0, n)
        assert prog.length <= 2 * math.floor(math.log2(n)) + 1
        assert prog.width == (2 if n >= 2 else 1)
        regs = {}
        for ins in prog.instructions:
            if ins[0] == "L":
                regs[ins[1]] = 1
            else:
                regs[ins[1]] = regs[ins[2]] + regs[ins[3]]
        assert regs[prog.output] == n
    orders = [2, 3, 5, 7, 12, 16, 31, 49, 60, 64, 81, 96, 97]
    tables = {m: zoo.make_cyclic(m) for m in orders}
    for n in list(range(1, 4097)) + [8191, 16384, 40961, 65536]:
        prog = fast_exp(1, n)
        for m in (97, 64):
            S = tables[m]
            assert evaluate(S, prog).output_value == n % m, (n, m)
    for n in range(1, 513):
        prog = fast_exp(1, n)
        for m in orders:
            assert evaluate(tables[m], prog).output_value == n % m, (n, m)
    _passline(3, "fast exponentiation", f"all n <= {max_n}, orders <= 97")


def test_04_rectangular_bands():
    rng = random.Random(4)
    shapes = [(1, 1), (2, 3), (7, 11), (25, 40), (100, 100)]
    for p, q in shapes:
        S = zoo.make_rectangular_band(p, q)
        assert p * q <= 10**4
        gens = zoo.rectangular_band_generators(p, q)
        targets = range(S.n) if S.n <= 100 else rng.sample(range(S.n), 120)
        for t in targets:
            slp = compress_bounded_diameter(S, gens, t, D=3)
            assert evaluate(S, slp).output_value == t
            assert slp.length <= 3 and slp.width <= 2, (p, q, t)
    # the full generating set keeps the bound trivially
    S = zoo.make_rectangular_band(7, 11)
    for t in rng.sample(range(77), 20):
        slp = compress_bounded_diameter(S, list(range(77)), t, D=3)
        assert slp.length <= 3
    # dispatcher route on a small instance
    rep = compress(zoo.make_rectangular_band(2, 3), list(range(6)), 4, "auto")
    assert rep.strategy == "bounded-diameter" and rep.verified
    _passline(4, "rectangular bands", f"shapes up to pq = 10^4, length <= 3")


def test_05_bounded_diameter_extensions():
    for base, assignment in (
        (zoo.make_rectangular_band(2, 2), [0, 3]),
        (zoo.make_rectangular_band(3, 2), [0, 3, 4]),
    ):
        for k in (2, 3, 4):
            T, _ = zoo.make_nilpotent_extension(base, len(assignment), assignment, k)
            gens = list(range(len(assignment)))
            members = closure(T, gens)
            for t in members:
                slp = compress_bounded_diameter(T, gens, t, D=3 * k - 1)
                assert evaluate(T, slp).output_value == t
                assert slp.width <= 2
                assert slp.length <= 6 * k - 3, (k, t, slp.length)
    _passline(5, "rectangular-by-nilpotent diameter", "k <= 4, length <= 6k-3")


def test_06_permutative_families(tmp_path):
    rng = random.Random(6)
    instances = []
    for d in (4, 6, 8, 10, 12):
        dims = [2] * d
        instances.append((f"Z2^{d}", zoo.make_abelian(dims), zoo._abelian_unit_generators(dims), None))
    for dims in ([9, 9, 9], [5, 5, 5, 5], [3] * 6, [7, 7, 7], [4] * 5):
        name = "x".join(map(str, dims))
        instances.append((name, zoo.make_abelian(dims), zoo._abelian_unit_generators(dims), None))
    for n in (4, 6, 8, 10, 12):
        w = zoo.make_subset_semilattice(n)
        instances.append((f"Sl2^{n}", w.semigroup, w.generators, w.target))
    points = []
    for name, S, gens, hard in instances:
        targets = set(rng.sample(range(S.n), min(S.n, 24)))
        if hard is not None:
            targets.add(hard)
        targets.add(S.n - 1)
        max_len, max_width = 0, 0
        for t in sorted(targets):
            if t not in closure(S, gens):
                continue
            slp = compress_permutative(S, gens, t)
            assert evaluate(S, slp).output_value == t, (name, t)
            max_len = max(max_len, slp.length)
            max_width = max(max_width, slp.width)
        assert max_width == 2, name
        bound = 6 * math.log2(S.n) + 24
        assert max_len <= bound, (name, max_len, bound)
        points.append((math.log2(S.n), max_len))
    # slope reported through the bench CSV
    from slpforge.cli import main as cli_main

    csv_path = str(tmp_path / "perm.csv")
    rc = cli_main(
        ["bench", "--family", "abelian",
         "--instances", "2,2,2,2;2,2,2,2,2,2;2,2,2,2,2,2,2,2;2,2,2,2,2,2,2,2,2,2",
         "--strategies", "permutative", "--targets", "6", "--seed", "6",
         "--no-time", "--out", csv_path]
    )
    assert rc == 0
    fit_lines = [l for l in open(csv_path) if l.startswith("# fit")]
    assert fit_lines, "bench CSV must report the fitted slope"
    slope = float(fit_lines[0].split("slope=")[1].split()[0])
    assert slope <= 6.0
    _passline(6, "permutative families", f"max slope reported {slope:.2f}, guard a<=6 b<=24")


def test_07_obstruction_witnesses():
    for n in (6, 18, 30):
        for variant, extra in (("LRB", 0), ("RRB", 0), ("T", 1)):
            w = zoo.make_obstruction_witness(variant, n)
            S = w.semigroup
            assert S.n == n * (n + 1) // 2 + extra, (variant, n)
            necessary = irredundancy(S, w.generators, w.target)
            assert necessary == set(w.generators), (variant, n)
            rep = compress(S, w.generators, w.target, "auto")
            assert rep.verified
            assert rep.length >= n >= math.sqrt(2 * S.n) - 1, (variant, n, rep.length)
    for n in range(2, 13):
        assert zoo.make_u_witness(n).semigroup.n == 2**n
    for n in (13, 14, 15, 16):
        assert zoo.u_witness_size_by_enumeration(n) == 2**n
    _passline(7, "obstruction witnesses", "sizes exact, all generators necessary")


def test_08_cube_doubling():
    rng = random.Random(8)
    cases = []
    for k in (4, 7, 10):
        dims = [2] * k
        cases.append((zoo.make_abelian(dims), zoo._abelian_unit_generators(dims)))
    cases.append((zoo.make_alt(5), zoo._alt_generators(5)))
    for S, gens in cases:
        G = group_view(S)
        members = sorted(subgroup_closure(G, gens))
        targets = members if len(members) <= 24 else rng.sample(members, 16)
        for t in targets:
            state = build_cube(G, gens, t)
            prog = emit_from_cube(G, gens, state, t)
            assert len(state.order) == 2 ** state.rounds, "cube must double every round"
            assert state.rounds <= math.ceil(math.log2(S.n))
            assert prog.width <= state.rounds + 3
            assert evaluate(S, prog, group=G).output_value == t
            plain = compress_group_reachability(G, gens, t)
            assert plain == eliminate_inverses(G, prog)
            assert evaluate(S, plain).output_value == t
    _passline(8, "cube doubling", "Z2^k and A5, rounds <= ceil(log2 |G|)")


def test_09_solvable_unbounded():
    worst = 0.0
    for S, gens in _solvable_families():
        G = group_view(S)
        chain = derived_series(G)
        delta = solvable_plan(G, gens).delta
        assert is_adapted(G, delta.values, chain)
        for i, term in enumerate(chain.terms[:-1]):
            part = [v for v in delta.values if v in term]
            assert subgroup_closure(G, part) == term, (S.name, i)
        bound = 64 * math.log2(S.n) + 64
        lmax = 0
        for t in range(S.n):
            slp = compress_group_solvable(G, gens, t)
            assert evaluate(S, slp).output_value == t, (S.name, t)
            lmax = max(lmax, slp.length)
        assert lmax <= bound, (S.name, lmax, bound)
        worst = max(worst, lmax / (64 * math.log2(S.n) + 64))
    _passline(9, "solvable unbounded width", f"max length ratio vs guard {worst:.2f}")


def test_10_solvable_bounded():
    # regression guard calibrated on the first build and frozen: C = 6
    C = 6.0
    width_max = 0
    ratio_max = 0.0
    for S, gens in _solvable_families():
        G = group_view(S)
        lmax = 0
        for t in range(S.n):
            slp = compress_group_solvable_bounded(G, gens, t)
            assert evaluate(S, slp).output_value == t, (S.name, t)
            assert slp.width <= 5, (S.name, t, slp.width)
            width_max = max(width_max, slp.width)
            lmax = max(lmax, slp.length)
        bound = C * math.log2(S.n) ** 3
        assert lmax <= bound, (S.name, lmax, bound)
        ratio_max = max(ratio_max, lmax / bound)
    assert width_max <= 5
    _passline(
        10,
        "solvable bounded width",
        f"max width {width_max} (target 4), max length ratio {ratio_max:.2f} of C=6 guard",
    )


def test_11_normal_bands():
    families = [
        zoo.build_family("rb-x-cyclic", [2, 2, 3]),
        zoo.build_family("rb-x-cyclic", [2, 2, 9]),
        zoo.build_family("rb-x-cyclic", [3, 2, 4]),
        zoo.build_family("clifford-z4-z2", []),
    ]
    G9 = zoo.make_cyclic(9)
    S_cl = zoo.make_normal_band_of_groups(
        "clifford", top=G9, bottom=zoo.make_cyclic(3), hom=[v % 3 for v in range(9)]
    )
    families.append((S_cl, [1, 9 + 1], None))
    for S, gens, _ in families:
        dec = band_of_groups_decomposition(S)
        for alpha in range(dec.class_count):
            vals, _ = class_generators(S, dec, gens, alpha)
            assert closure(S, vals) == dec.carriers[alpha], (S.name, alpha)
        for mode, extra in (("wide", 2), ("narrow", 1)):
            for t in range(S.n):
                bc = compress_normal_band(S, gens, t, mode)
                assert evaluate(S, bc.slp).output_value == t, (S.name, mode, t)
                assert bc.slp.width <= max(bc.group_width + extra, 3), (S.name, mode, t)
    _passline(11, "normal bands of groups", "generation lemma + both splice modes")


def test_12_general_pipeline():
    t0 = time.time()
    bases = []
    b1, g1, _ = zoo.build_family("rb-x-cyclic", [2, 2, 9])
    bases.append((b1, g1))
    b2, g2, _ = zoo.build_family("clifford-z4-z2", [])
    bases.append((b2, g2))
    S3 = zoo.make_sym(3)
    b3 = zoo.make_normal_band_of_groups("product", p=2, q=2, group=S3)
    a, c = zoo.perm_index(3, (1, 0, 2)), zoo.perm_index(3, (1, 2, 0))
    g3 = [0 * 6 + a, 0 * 6 + c, 3 * 6 + a, 3 * 6 + c]
    bases.append((b3, g3))
    for base, bgens in bases:
        for k in (2, 3):
            T, _ = zoo.make_nilpotent_extension(base, len(bgens), bgens, k)
            gens = list(range(len(bgens)))
            for t in sorted(closure(T, gens)):
                gc = compress_general(T, gens, t)
                assert evaluate(T, gc.slp).output_value == t, (base.name, k, t)
                if gc.group_width is not None:
                    assert gc.slp.width <= gc.group_width + 3, (base.name, k, t)
                if gc.tilde_value is not None:
                    lhs = T.word_value([gc.left, gc.tilde_value, gc.right])
                    assert lhs == t, "leaf-substitution equality failed"
    elapsed = time.time() - t0
    assert elapsed < 600
    _passline(12, "general pipeline", f"extensions k <= 3 in {elapsed:.0f}s")


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


def test_13_inverse_elimination():
    from slpforge.groups import minimal_generating_subset

    rng = random.Random(13)
    cases = [
        (zoo.make_dihedral(4), zoo.dihedral_generators(4)),
        (zoo.make_sym(4), [zoo.perm_index(4, (1, 0, 2, 3)), zoo.perm_index(4, (1, 2, 3, 0))]),
        (zoo.make_cyclic(12), [1]),
    ]
    total = 0
    for S, gens in cases:
        G = group_view(S)
        smin = minimal_generating_subset(G, gens)
        for _ in range(167):
            prog = _random_group_slp(rng, gens, rng.randrange(2, 30))
            want = evaluate(S, prog, group=G).output_value
            plain = eliminate_inverses(G, prog)
            assert not any(ins[0] == "I" for ins in plain.instructions)
            assert evaluate(S, plain).output_value == want
            bound = 2 * prog.length + 12 * len(smin) + 2 * math.floor(math.log2(S.n)) + 3
            assert plain.length <= bound, (S.name, plain.length, bound)
            total += 1
    assert total >= 500
    _passline(13, "inverse elimination", f"{total} random group programs")


def test_14_determinism(tmp_path):
    from slpforge.cli import main as cli_main

    def run_all(tag):
        cay = str(tmp_path / f"w{tag}.cay")
        slp = str(tmp_path / f"w{tag}.slp")
        csv = str(tmp_path / f"b{tag}.csv")
        assert cli_main(["gen", "--family", "lrb-witness", "--n", "8", "--out", cay]) == 0
        assert (
            cli_main(
                ["compress", "--cayley", cay, "--strategy", "auto", "--target", "7", "--out", slp]
            )
            == 0
        )
        assert (
            cli_main(
                ["bench", "--family", "dihedral", "--instances", "4;8;16",
                 "--strategies", "auto,group-solvable-bw", "--targets", "4",
                 "--seed", "42", "--no-time", "--out", csv]
            )
            == 0
        )
        return open(cay, "rb").read(), open(slp, "rb").read(), open(csv, "rb").read()

    first = run_all("1")
    second = run_all("2")
    assert first == second
    _passline(14, "determinism", "byte-identical .cay/.slp/CSV across runs")
