import warnings

import numpy as np
import pytest

import slpforge.io
from slpforge import zoo
from slpforge.errors import FormatError, InvalidProgramError, OutOfRangeError
from slpforge.io import dump_cay, dump_slp, parse_cay, parse_slp
from slpforge.slp import Slp, fast_exp


def test_cay_roundtrip_bit_exact(tmp_path):
    w = zoo.make_obstruction_witness("LRB", 5)
    text = dump_cay(w.semigroup, gens=w.generators, target=w.target)
    S2, gens2, t2 = parse_cay(text)
    assert np.array_equal(S2.table.astype(np.int64), w.semigroup.table.astype(np.int64))
    assert gens2 == w.generators and t2 == w.target
    assert dump_cay(S2, gens=gens2, target=t2) == text


@pytest.mark.parametrize("S", [zoo.make_sym(3), zoo.make_dihedral(150)], ids=["S3", "D300"])
def test_cay_rows_match_the_per_element_layout(S):
    # D300 has 300 elements, stored as uint16
    rows = "".join(" ".join(str(int(x)) for x in row) + "\n" for row in S.table)
    text = dump_cay(S, gens=[0, 1], target=2)
    assert text.endswith("# GENS 0 1\n# TARGET 2\n" + rows)


def test_cay_comments_anywhere():
    text = "# leading comment\nCAYLEY 2\n0 1\n# middle\n1 0\n# GENS 1\n"
    S, gens, target = parse_cay(text)
    assert S.n == 2 and gens == [1] and target is None


def test_cay_headers_below_the_rows_override_those_above():
    S, gens, target = parse_cay("CAYLEY 2\n# NAME first\n# GENS 0\n0 1\n1 0\n# NAME last\n# GENS 1\n")
    assert (S.name, gens, target) == ("last", [1], None)


def test_cay_blank_lines_anywhere():
    S, gens, target = parse_cay("\nCAYLEY 2\n0 1\n\n  \n1 0\n\n")
    assert S.n == 2 and gens is None and target is None


def test_cay_errors():
    with pytest.raises(FormatError):
        parse_cay("0 1\n1 0\n")
    with pytest.raises(FormatError):
        parse_cay("CAYLEY 2\n0 1\n")
    with pytest.raises(FormatError):
        parse_cay("CAYLEY 2\n0 1 0\n1 0\n")


@pytest.mark.parametrize("token", ["x", "2.5", "1,2", "1e3", "0x1"])
def test_cay_non_integer_token(token):
    for row in (f"{token} 0", f"0 {token}"):
        with pytest.raises(FormatError, match="line 3: bad table row"):
            parse_cay(f"CAYLEY 2\n0 1\n{row}\n")


def test_cay_short_row_from_old_numpy(monkeypatch):
    # numpy before 2.0 stops at a bad token with a warning and a short row
    def fromstring(line, dtype, sep):
        warnings.warn("string could not be read to its end", DeprecationWarning)
        return np.asarray([int(line.split()[0])], dtype=dtype)

    monkeypatch.setattr(slpforge.io.np, "fromstring", fromstring)
    with pytest.raises(FormatError, match="line 2: bad table row"):
        parse_cay("CAYLEY 1\n0 x\n")


def test_cay_row_errors_name_the_line():
    with pytest.raises(FormatError, match="line 3: row has 1 entries, expected 2"):
        parse_cay("CAYLEY 2\n0 1\n1\n")
    with pytest.raises(FormatError, match="expected 2 rows, found 3"):
        parse_cay("CAYLEY 2\n0 1\n1 0\n1 0\n")
    with pytest.raises(FormatError, match="missing CAYLEY header"):
        parse_cay("# only a comment\n")
    S, _, _ = parse_cay("CAYLEY 2\n 0\t1 \n1   0\n")
    assert S.table.tolist() == [[0, 1], [1, 0]]


def test_cay_degenerate_sizes():
    with pytest.raises(OutOfRangeError, match="^empty table$"):
        parse_cay("CAYLEY 0\n")
    with pytest.raises(FormatError, match="^expected -1 rows, found 0$"):
        parse_cay("CAYLEY -1\n")
    with pytest.raises(FormatError, match="^line 2: row has 1 entries, expected -1$"):
        parse_cay("CAYLEY -1\n0\n")


def test_cay_header_larger_than_its_rows_is_a_format_error():
    # rows too short to fill the header's table are refused before it is allocated
    big = "CAYLEY 100000000000\n"
    with pytest.raises(FormatError, match="^line 2: row has 2 entries, expected 100000000000$"):
        parse_cay(big + "0 1\n")
    with pytest.raises(FormatError, match="^line 2: row has 2 entries, expected 100000000000$"):
        parse_cay(big + "0 1\n# GENS x\n")
    with pytest.raises(FormatError, match="^expected 100000000000 rows, found 0$"):
        parse_cay(big)
    with pytest.raises(FormatError, match=f"^line 2: row has 1 entries, expected {10**22}$"):
        parse_cay(f"CAYLEY {10**22}\n0\n")


def test_slp_roundtrip_bit_exact():
    prog = fast_exp(3, 44)
    text = dump_slp(prog)
    back = parse_slp(text)
    assert back == prog
    assert dump_slp(back) == text


def test_slp_group_flag_from_inv():
    prog = Slp((1,), (("L", 0, 0), ("I", 1, 0)), 1)
    back = parse_slp(dump_slp(prog))
    assert back == prog and back.is_group


def test_slp_read_is_renumbered():
    back = parse_slp("SLP\nA 1 4\nL 7 1\nL 2 0\nI 7 2\nM 2 7 2\nO 2\n")
    want = (("L", 0, 1), ("L", 1, 0), ("I", 0, 1), ("M", 1, 0, 1))
    assert (back.instructions, back.output, back.width) == (want, 1, 2)
    assert back.is_group
    with pytest.raises(InvalidProgramError, match="output register never assigned"):
        parse_slp("SLP\nA 1\nL 5 0\nO 3\n")
    with pytest.raises(InvalidProgramError, match="unassigned"):
        parse_slp("SLP\nA 1\nL 5 0\nM 3 5 4\nL 4 0\nO 3\n")


def test_slp_errors():
    for text in (
        "A 1 2\nL 0 0\nO 0\n",
        "SLP\nA 1\nL 0 0\n",
        "SLP\nA 1\nX 0 0\nO 0\n",
        "SLP\nA x\nL 0 0\nO 0\n",  # not an element index
        "SLP\nAB 1\nL 0 0\nO 0\n",  # not the alphabet keyword
        "SLP\nA 1\nL 0 0\nL 1 0\nO 0\nO 1\n",  # a second output line
        "SLP\nA 1\nL 0 0\nM 0 x 0\nO 0\n",  # a register that is not a number
    ):
        with pytest.raises(FormatError):
            parse_slp(text)


def test_slp_short_file_names_the_missing_line():
    with pytest.raises(FormatError, match="missing output line"):
        parse_slp("SLP\nA 1 2\n")
    with pytest.raises(FormatError, match="missing alphabet line"):
        parse_slp("SLP\n")


Z3_ROWS = "0 1 2\n1 2 0\n2 0 1\n"


@pytest.mark.parametrize(
    "header,message",
    [
        ("# GENS 7", "line 2: element 7 outside \\[0, 3\\)"),
        ("# GENS -1", "line 2: element -1 outside \\[0, 3\\)"),
        ("# GENS 1 x", "line 2: bad GENS entry"),
        ("# GENS 1.5", "line 2: bad GENS entry"),
        ("# TARGET 3", "line 2: element 3 outside \\[0, 3\\)"),
        ("# TARGET -2", "line 2: element -2 outside \\[0, 3\\)"),
        ("# TARGET y", "line 2: bad TARGET entry"),
        ("# TARGET", "line 2: TARGET takes one element"),
        ("# TARGET 1 2", "line 2: TARGET takes one element"),
    ],
)
def test_cay_header_values_are_checked(header, message):
    with pytest.raises(FormatError, match=message):
        parse_cay(f"CAYLEY 3\n{header}\n{Z3_ROWS}")


def test_cay_header_after_rows_is_checked_with_its_line():
    with pytest.raises(FormatError, match="line 5: element 3 outside"):
        parse_cay(f"CAYLEY 3\n{Z3_ROWS}# GENS 1 3\n")
    with pytest.raises(FormatError, match="line 1: bad CAYLEY entry"):
        parse_cay(f"CAYLEY three\n{Z3_ROWS}")
    S, gens, target = parse_cay(f"# TARGET 2\nCAYLEY 3\n{Z3_ROWS}# GENS 1\n")
    assert S.n == 3 and gens == [1] and target == 2
