import os
import subprocess
import sys
from pathlib import Path

import pytest

from slpforge import zoo
from slpforge.cli import main
from slpforge.compressors import build_cube, compress
from slpforge.compressors.reachability import emit_from_cube
from slpforge.groups import group_view
from slpforge.io import write_cay, write_slp
from slpforge.semigroup import Semigroup


def run(args):
    return main(args)


def test_zoo_listing(capsys):
    assert run(["zoo"]) == 0
    out = capsys.readouterr().out
    assert "lrb-witness" in out


def test_gen_compress_verify_member(tmp_path, capsys):
    cay = str(tmp_path / "w.cay")
    slp = str(tmp_path / "w.slp")
    assert run(["gen", "--family", "lrb-witness", "--n", "6", "--out", cay]) == 0
    assert run(
        ["compress", "--cayley", cay, "--strategy", "auto", "--target", "20", "--out", slp]
    ) == 0
    assert run(["verify", "--cayley", cay, "--slp", slp, "--target", "20"]) == 0
    assert run(["verify", "--cayley", cay, "--slp", slp, "--target", "19"]) == 1
    assert run(["member", "--cayley", cay, "--target", "20"]) == 0
    # non-member: drop a generator from the sidecar set
    assert run(
        ["member", "--cayley", cay, "--gens", "0,6,11,15,18", "--target", "5"]
    ) == 1


def test_verify_takes_the_group_flag_from_the_program(tmp_path, capsys):
    d8, rb, slp = (str(tmp_path / name) for name in ("d8.cay", "rb.cay", "p.slp"))
    S, gens = zoo.make_dihedral(4), zoo.dihedral_generators(4)
    write_cay(d8, S)
    write_cay(rb, zoo.make_rectangular_band(2, 4))  # 8 elements, not a group
    G = group_view(S)
    prog = emit_from_cube(G, gens, build_cube(G, gens, 3), 3)
    assert prog.instructions == (("L", 0, 0), ("I", 1, 0))
    write_slp(slp, prog)
    assert run(["verify", "--cayley", d8, "--slp", slp, "--target", "3"]) == 0
    assert run(["verify", "--cayley", d8, "--slp", slp, "--target", "1"]) == 1
    capsys.readouterr()
    assert run(["verify", "--cayley", rb, "--slp", slp, "--target", "3"]) == 2
    assert "no neutral element" in capsys.readouterr().err


def test_input_error_exit_codes(tmp_path):
    assert run(["gen", "--family", "nonsense", "--n", "3", "--out", str(tmp_path / "x.cay")]) == 2
    assert run(["member", "--cayley", str(tmp_path / "missing.cay"), "--target", "0"]) == 2


def test_unknown_strategy_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    cay = str(tmp_path / "z.cay")
    run(["gen", "--family", "cyclic", "--n", "6", "--out", cay])
    capsys.readouterr()
    for argv in (
        ["compress", "--cayley", cay, "--gens", "2", "--target", "2", "--strategy", "bogus"],
        ["member", "--cayley", cay, "--gens", "2", "--target", "1", "--certify", "--strategy", "bogus"],
    ):
        with pytest.raises(SystemExit) as exit_:
            run(argv)
        assert exit_.value.code == 2, argv
        captured = capsys.readouterr()
        assert "invalid choice: 'bogus'" in captured.err and captured.out == "", argv

    def no_build(*args):
        raise AssertionError("an instance was built before the names were checked")

    monkeypatch.setattr(zoo, "build_family", no_build)
    argv = ["bench", "--family", "cyclic", "--instances", "6", "--strategies", "auto,bogus"]
    assert run(argv) == 2
    assert "unknown strategy 'bogus'" in capsys.readouterr().err


def test_compress_takes_no_seed_and_bench_does(tmp_path, capsys):
    cay = str(tmp_path / "z.cay")
    run(["gen", "--family", "cyclic", "--n", "6", "--out", cay])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        run(["compress", "--cayley", cay, "--gens", "1", "--target", "2", "--seed", "1"])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --seed 1" in captured.err and captured.out == ""
    argv = ["bench", "--family", "cyclic", "--instances", "6", "--targets", "1", "--seed", "1", "--no-time"]
    assert run(argv + ["--out", str(tmp_path / "b.csv")]) == 0


def test_classify_output(tmp_path, capsys):
    cay = str(tmp_path / "g.cay")
    run(["gen", "--family", "dihedral", "--n", "8", "--out", cay])
    assert run(["classify", "--cayley", cay]) == 0
    out = capsys.readouterr().out
    assert "recommended=group-solvable-bw" in out


def test_member_certify(tmp_path, capsys):
    cay = str(tmp_path / "g.cay")
    run(["gen", "--family", "cyclic", "--n", "12", "--out", cay])
    assert run(["member", "--cayley", cay, "--gens", "5", "--target", "3", "--certify"]) == 0
    out = capsys.readouterr().out
    assert "certificate" in out


def test_bench_writes_sorted_csv(tmp_path):
    out = str(tmp_path / "bench.csv")
    rc = run(
        [
            "bench",
            "--family",
            "abelian",
            "--instances",
            "2,2;2,2,2",
            "--strategies",
            "permutative,auto",
            "--targets",
            "2",
            "--seed",
            "5",
            "--no-time",
            "--out",
            out,
        ]
    )
    assert rc == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "family,params,N,target,strategy,length,width,log2N,verified,ms"
    assert any(line.startswith("# summary") for line in lines)
    data = [l for l in lines if l and not l.startswith("#")][1:]
    assert data == sorted(data, key=lambda l: (l.split(",")[0], l.split(",")[1], int(l.split(",")[2]), int(l.split(",")[3]), l.split(",")[4]))


def test_bench_determinism(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    args = [
        "bench",
        "--family",
        "dihedral",
        "--instances",
        "4;8",
        "--strategies",
        "auto",
        "--targets",
        "3",
        "--seed",
        "11",
        "--no-time",
    ]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_console_script_entry():
    # pytest's own ``pythonpath`` setting does not reach a subprocess
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "slpforge.cli", "zoo"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0


def test_bench_group_sweep_matches_fresh_tables(tmp_path):
    # bench reuses one table for every case of an instance; each row must
    # match compress on a fresh table for its target and strategy
    out = str(tmp_path / "bench.csv")
    strategies = ("group-bsz", "group-solvable", "group-solvable-bw")
    rc = run(
        ["bench", "--family", "dihedral", "--instances", "16", "--strategies",
         ",".join(strategies), "--targets", "6", "--seed", "3", "--no-time", "--out", out]
    )
    assert rc == 0
    rows = [l.split(",") for l in Path(out).read_text().splitlines()[1:] if not l.startswith("#")]
    assert len(rows) == 6 * len(strategies)
    S, gens, _ = zoo.build_family("dihedral", [16])
    for _, _, _, t, strategy, length, width, _, verified, _ in rows:
        assert verified == "true"
        report = compress(Semigroup(S.table), gens, int(t), strategy)
        assert (int(length), int(width)) == (report.length, report.width), (t, strategy)


def test_classify_honours_the_sidecar_generators(tmp_path, capsys):
    # one rotation of D8 generates Z4, which ``compress --strategy auto`` sends
    # to permutative; the whole group would take the group route
    cay = str(tmp_path / "d8.cay")
    write_cay(cay, zoo.make_dihedral(4), gens=[1])
    assert run(["classify", "--cayley", cay]) == 0
    assert "recommended=permutative" in capsys.readouterr().out
    assert run(["compress", "--cayley", cay, "--target", "3"]) == 0
    assert "strategy=permutative" in capsys.readouterr().out
    assert run(["classify", "--cayley", cay, "--gens", "1,4"]) == 0
    assert "recommended=group-solvable-bw" in capsys.readouterr().out


def test_compress_reads_kmax_and_budget(tmp_path, capsys):
    cay = str(tmp_path / "z6.cay")
    assert run(["gen", "--family", "cyclic", "--params", "6,", "--out", cay]) == 0
    argv = ["compress", "--cayley", cay, "--target", "5", "--strategy", "permutative"]
    assert run(argv + ["--kmax", "3", "--budget", "1000"]) == 0
    assert "strategy=permutative" in capsys.readouterr().out


def test_gen_without_parameters(tmp_path, capsys):
    cay = str(tmp_path / "clifford.cay")
    assert run(["gen", "--family", "clifford-z4-z2", "--out", cay]) == 0
    assert "n=6" in capsys.readouterr().out


def test_missing_generators_or_target_exit_2(tmp_path, capsys):
    bare, gens_only, slp = (str(tmp_path / name) for name in ("bare.cay", "gens.cay", "p.slp"))
    S = zoo.make_cyclic(4)
    write_cay(bare, S)
    write_cay(gens_only, S, gens=[1])
    write_slp(slp, compress(S, [1], 3).slp)
    for argv, message in (
        (["compress", "--cayley", bare, "--target", "3"], "no generators: pass --gens"),
        (["compress", "--cayley", gens_only], "no target: pass --target"),
        (["verify", "--cayley", gens_only, "--slp", slp], "no target given"),
        (["member", "--cayley", bare, "--target", "3"], "no generators given"),
        (["member", "--cayley", gens_only], "no target given"),
    ):
        assert run(argv) == 2, argv
        assert message in capsys.readouterr().err, argv


def test_member_certify_non_member(tmp_path, capsys):
    cay = str(tmp_path / "z4.cay")
    write_cay(cay, zoo.make_cyclic(4), gens=[2])
    assert run(["member", "--cayley", cay, "--target", "1", "--certify"]) == 1
    assert capsys.readouterr().out == "non-member\n"


def test_bench_to_stdout_counts_failed_cases_and_keeps_the_family_target(capsys):
    # A5 is not solvable, so every group-solvable case fails; the lrb witness
    # brings its own target
    assert run(["bench", "--family", "alt", "--instances", "5", "--strategies",
                "group-solvable", "--targets", "1", "--no-time"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("family,params,N,target,strategy,")
    assert ",-1,-1,5.9069,false,0.000" in out
    assert "# summary" not in out
    assert run(["bench", "--family", "lrb-witness", "--instances", "4", "--targets", "1", "--no-time"]) == 0
    rows = capsys.readouterr().out.splitlines()
    target = zoo.build_family("lrb-witness", [4])[2]
    assert rows[1].startswith(f"lrb-witness,4,10,{target},auto,")
