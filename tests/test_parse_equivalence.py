"""``parse_csv`` against a frozen copy of the row-by-row parser it replaced.

``_reference_parse`` is the parser as it was before data rows went through
one ``np.loadtxt`` call, with one deliberate change: a ``csv.Error`` becomes
a ``ParseError`` naming ``reader.line_num``.  On every input the two must
agree: bit-identical ``x`` and ``y`` arrays, or the same exception type,
message and ``.line``.
"""

from __future__ import annotations

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualfit import Dataset
from dualfit import cli
from dualfit.cli import parse_csv
from dualfit.errors import InvalidInput, ParseError

# ---- the frozen reference ----------------------------------------------------


def _ref_as_text(source) -> str:
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, str):
        return source
    if isinstance(source, (bytes, bytearray)):
        try:
            return bytes(source).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidInput(f"input is not valid UTF-8: {exc}") from exc
    raise InvalidInput(f"unsupported CSV source type {type(source).__name__}")


def _ref_is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _ref_probe_index(selector, default: int) -> int:
    if selector is None:
        return default
    try:
        return int(selector)
    except ValueError:
        return default


def _ref_resolve_column(selector, header, default_name: str, default_index: int) -> int:
    if header is not None:
        if selector is None:
            return header.index(default_name) if default_name in header else default_index
        if selector in header:
            return header.index(selector)
        try:
            return int(selector)
        except ValueError:
            raise InvalidInput(f"column {selector!r} not found in header {header}") from None
    if selector is None:
        return default_index
    try:
        return int(selector)
    except ValueError:
        raise InvalidInput(
            f"column {selector!r} is a name but the file has no header row"
        ) from None


def _reference_parse(source, x_column=None, y_column=None) -> Dataset:
    reader = csv.reader(io.StringIO(_ref_as_text(source)))
    rows: list[tuple[int, list[str]]] = []
    try:
        for cells in reader:
            if not cells or all(c.strip() == "" for c in cells):
                continue
            rows.append((reader.line_num, [c.strip() for c in cells]))
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}", line=reader.line_num) from None
    if not rows:
        raise InvalidInput("need at least 2 data rows, got 0")

    first_cells = rows[0][1]
    probes = {_ref_probe_index(x_column, 0), _ref_probe_index(y_column, 1)}
    present = [first_cells[i] for i in sorted(probes) if 0 <= i < len(first_cells)]
    has_header = bool(present) and not all(_ref_is_number(c) for c in present)
    header = first_cells if has_header else None
    data_rows = rows[1:] if has_header else rows

    x_idx = _ref_resolve_column(x_column, header, "x", 0)
    y_idx = _ref_resolve_column(y_column, header, "y", 1)
    if not data_rows:
        raise InvalidInput("need at least 2 data rows, got 0")
    width = len(data_rows[0][1])
    for idx, label in ((x_idx, "x"), (y_idx, "y")):
        if idx < 0 or idx >= width:
            raise InvalidInput(
                f"{label} column index {idx} is out of range for {width} column(s)"
            )

    xs: list[float] = []
    ys: list[float] = []
    needed = max(x_idx, y_idx) + 1
    for line_num, cells in data_rows:
        if len(cells) < needed:
            raise ParseError(
                f"line {line_num}: expected at least {needed} columns, got {len(cells)}",
                line=line_num,
            )
        for idx in (x_idx, y_idx):
            if not _ref_is_number(cells[idx]):
                raise ParseError(
                    f"line {line_num}: could not parse {cells[idx]!r} as a number",
                    line=line_num,
                )
        xs.append(float(cells[x_idx]))
        ys.append(float(cells[y_idx]))
    if len(xs) < 2:
        raise InvalidInput(f"need at least 2 data rows, got {len(xs)}")
    return Dataset(np.asarray(xs), np.asarray(ys))


# ---- comparison ----------------------------------------------------------------


def _outcome(parser, source, x_column, y_column):
    try:
        data = parser(source, x_column, y_column)
    except (ParseError, InvalidInput) as exc:
        return ("error", type(exc), str(exc), getattr(exc, "line", None))
    return ("data", data.x.tobytes(), data.y.tobytes())


def _assert_equivalent(text: str, x_column=None, y_column=None) -> None:
    expected = _outcome(_reference_parse, text, x_column, y_column)
    for source in (text, text.encode("utf-8", "surrogatepass")):
        assert _outcome(parse_csv, source, x_column, y_column) == expected, source


# ---- a fixed table -------------------------------------------------------------

CASES = [
    "x,y\n0,0\n1,2\n",
    "0,0\n1,1\n",
    "1,2\r\n3,4\r\n",
    "x,y\r\n\r\n0,0\r\n1,2\r\n\r\n",
    "1,2\r3,4\r",
    "1,2\r\r\n3,4\n",
    "1,2\n3,4\r",
    "1,2\n   \n3,4\n",
    "1,2\n\t\n3,4\n",
    "1,2\n,,\n3,4\n",
    "x,y\n,,\n1,2\n3,4\n",
    '"",""\n1,2\n3,4\n',
    '1,2\n""\n3,4\n',
    "1,2\n3,4\n   ",
    '"1",2\n3,"4"\n',
    '"1"2,3\n4,5\n',
    '1"2",3\n4,5\n',
    '"1""2",3\n4,5\n',
    '"1,5",2\n3,4\n',
    '1,2\n"3,5",4\n5,6\n',
    '"1\n",2\n3,4\n',
    '"1\n2",3\n4,5\n',
    ' "1",2\n3,4\n',
    '1,2\n "3",4\n5,6\n',
    '1,2\n"3" ,4\n',
    "1_0,2\n3,4\n",
    "1,2\n3,4_0\n",
    "١,2\n3,٤\n",
    "\xa01\xa0,2\n3,\xa04\n",
    "1, 2\n3 ,4\n\t5\t,\t6\t\n",
    "1,2\x0c\n3,4\n",
    "1,2,3\n4,5,6\n",
    "1,2,3\n4,5\n",
    "1,2\n3,4,5,6\n",
    "1,2\n3\n",
    "x,y\n0,0\n1\n",
    "x,y\n1\n2,3\n",
    "x,y,z\n1,2\n3,4\n",
    "x,y\n1,1\n",
    "x,y\n",
    "x,y\n\n\n",
    "",
    "\n\n",
    "   \n",
    "1,2\n",
    "x,y\n0,0\n1,abc\n2,2\n",
    "inf,2\n3,4\n",
    "x,y\n1,nan\n2,3\n",
    "x,y\n1,Infinity\n2,-inf\n",
    "1e5,2\n+3,-4\n1.,.5\n",
    "0x10,1\n2,3\n",
    "1d5,2\n3,4\n",
    "1,2\n3,4\n#\n",
    "#c\n1,2\n3,4\n",
    "1,2\n3,4\n\x00",
    "﻿x,y\n1,2\n3,4\n",
    "﻿1,2\n3,4\n",
    "y,x\n0,1\n2,3\n",
    "1,2\n3,4\n" * 50 + "5,x\n",
]

COLUMN_CASES = [
    ("time,reading,flag\n0,0,a\n1,2,b\n", "time", "reading"),
    ("time,reading,flag\n0,0,a\n1,2,b\n", "0", "1"),
    ("time,reading,flag\n0,0,a\n1,2,b\n", "time", "flag"),
    ("time,reading,flag\n0,0,a\n1,2,b\n", "weight", None),
    ("0,0\n1,1\n", None, "5"),
    ("0,0\n1,1\n", "-1", None),
    ("0,0\n1,1\n", "0", "0"),
    ("0,0\n1,1\n", "x", None),
    ("0,0,7\n1,1,8\n", "2", "1"),
    ("a,b,c\n1,2,3\n4,5,6\n", "2", "0"),
    ("a,b,c\n1,2,3\n4,5\n", "2", "0"),
    ("a,b\n1,2,3\n4,5,6\n", "2", "b"),
    ("1,2\n3,4\n", "99999999999999999999", None),
]


@pytest.mark.parametrize("text", CASES)
def test_fixed_cases_match_reference(text):
    _assert_equivalent(text)


@pytest.mark.parametrize("text, x_column, y_column", COLUMN_CASES)
def test_column_cases_match_reference(text, x_column, y_column):
    _assert_equivalent(text, x_column, y_column)


WELL_FORMED = [
    "0,0\n1,1\n",
    "x,y\n0,0\n1,2\n",
    "y,x,z\n0,1,a\n2,3,b",
    "x,y\r\n\r\n0,0\r\n1,2\r\n\r\n",
    '"x","y"\n"1",2\n3,"4" \n',
    "\xa01\xa0,\t2\n3 , 4\n",
    "\n\nx,y\n\n1e5,-2.5\n+3,.5\n",
]


@pytest.mark.parametrize("text", WELL_FORMED)
def test_well_formed_text_skips_row_loop(text, monkeypatch):
    expected = _outcome(_reference_parse, text, None, None)
    assert expected[0] == "data"

    def row_loop(*args):
        raise AssertionError("row loop reached")

    monkeypatch.setattr(cli, "_parse_rows", row_loop)
    assert _outcome(parse_csv, text, None, None) == expected


def test_invalid_utf8_matches_reference():
    for raw in (b"\xff\xfe\x00bad", b"x,y\n1,2\n3,\xff\n", b"1,2\n3,4\n\xc3"):
        assert _outcome(parse_csv, raw, None, None) == _outcome(
            _reference_parse, raw, None, None
        )


# ---- generated text ------------------------------------------------------------

_ALPHABET = '0123456789.e-+," \t\r\n_#'
# the same alphabet, weighted towards digits, commas and line ends so that
# texts hold more numbers and rows than a uniform draw gives
_WEIGHTED = st.sampled_from(list("0123456789" * 12 + ",\n" * 24 + _ALPHABET))


@settings(max_examples=400, deadline=None)
@given(
    prefix=st.sampled_from(["", "x,y\n", "y,x\n", "1,2\n", "x,y\n0,0\n"]),
    body=st.one_of(st.text(alphabet=_ALPHABET, max_size=60), st.text(_WEIGHTED, max_size=80)),
    columns=st.sampled_from([(None, None), ("1", "0"), ("x", "y"), ("0", "2"), ("2", None)]),
)
def test_generated_text_matches_reference(prefix, body, columns):
    _assert_equivalent(prefix + body, *columns)


_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["1e5", "-0", "+3", ".5", "1.", "1E-3"]),
)
_ODD_NUMBER = st.sampled_from(["inf", "nan", "1_0", "٣", "0x1", ""])
_PAD = st.sampled_from(["", "", "", " ", "\t", "\xa0"])


@st.composite
def _cells(draw) -> str:
    """A padded, sometimes quoted number; one cell in 50 is odd or noise."""
    odd = draw(st.integers(0, 99))
    if odd == 0:
        return draw(st.text(alphabet=_ALPHABET.replace("\n", "").replace("\r", ""), max_size=4))
    number = draw(_ODD_NUMBER if odd == 1 else _NUMBER)
    padded = draw(_PAD) + number + draw(_PAD)
    if draw(st.booleans()):
        return f'"{padded}"' + draw(_PAD)
    return padded


@settings(max_examples=250, deadline=None)
@given(
    rows=st.lists(st.one_of(st.lists(_cells(), min_size=2, max_size=4), st.just([])), max_size=8),
    header=st.sampled_from(["", "x,y", "y,x,z", "a,b"]),
    ending=st.sampled_from(["\n", "\r\n"]),
)
def test_generated_tables_match_reference(rows, header, ending):
    lines = ([header] if header else []) + [",".join(cells) for cells in rows]
    _assert_equivalent("".join(line + ending for line in lines))


# ---- parity at size ------------------------------------------------------------


def test_100k_rows_parse_bit_exact(tmp_path):
    rng = np.random.default_rng(20260)
    n = 100_000
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    y = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    x[:4] = [5e-324, -0.0, 1.7976931348623157e308, 2.2250738585072014e-308]
    path = tmp_path / "big.csv"
    path.write_text("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())))

    def check(data):
        assert data.x.tobytes() == x.tobytes()
        assert data.y.tobytes() == y.tobytes()

    check(parse_csv(path.read_text()))
    check(parse_csv(path.read_bytes()))
    with path.open("rb") as fh:
        check(parse_csv(fh))
    with path.open() as fh:
        check(parse_csv(fh))
