import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from budgetreg.core import Dataset, Regime
from budgetreg.ingest import Scaler, load_csv, normalize, write_csv


def reference_load_csv(path, has_header=False, label_column=-1):
    """The per-cell loop load_csv ran before it parsed with np.loadtxt: one
    float() per cell, the same checks in the same order."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    start = 1 if has_header else 0
    rows = []
    width = None
    for lineno, line in enumerate(lines, start=1):
        if lineno == 1 and has_header:
            continue
        if line == "":
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
            if width < 2:
                raise ValueError(f"row {lineno}: need at least one attribute and a label")
        elif len(cells) != width:
            raise ValueError(f"row {lineno}: expected {width} columns, found {len(cells)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            bad = next(c for c in cells if not _reference_is_number(c))
            raise ValueError(f"row {lineno}: non-numeric value {bad!r}") from None
    if not rows:
        raise ValueError("empty file: no data rows")
    data = np.asarray(rows, dtype=float)
    finite = np.isfinite(data)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        lineno = [n for n, line in enumerate(lines, start=1) if line != "" and n > start][row]
        raise ValueError(f"row {lineno}: non-finite value {lines[lineno - 1].split(',')[col]!r}")
    label = label_column if label_column >= 0 else data.shape[1] + label_column
    if not 0 <= label < data.shape[1]:
        raise ValueError(f"label column {label_column} out of range for {data.shape[1]} columns")
    y = data[:, label]
    x = np.delete(data, label, axis=1)
    return Dataset(x, y, None)


def _reference_is_number(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    ds = Dataset(rng.standard_normal((20, 3)), rng.standard_normal(20))
    path = tmp_path / "data.csv"
    write_csv(path, ds)
    back = load_csv(path)
    np.testing.assert_array_equal(back.x, ds.x)
    np.testing.assert_array_equal(back.y, ds.y)
    assert back.regime is None


def test_load_csv_header_and_label_column(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b,c\n1,2,3\n4,5,6\n", encoding="ascii")
    ds = load_csv(path, has_header=True, label_column=0)
    np.testing.assert_array_equal(ds.x, [[2.0, 3.0], [5.0, 6.0]])
    np.testing.assert_array_equal(ds.y, [1.0, 4.0])


def test_load_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1,2\n\n3,4\n", encoding="ascii")
    assert len(load_csv(path)) == 2


def test_load_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n4,5\n", encoding="ascii")
    with pytest.raises(ValueError, match="row 2: expected 3 columns, found 2"):
        load_csv(path)
    path.write_text("1,2\n3,oops\n", encoding="ascii")
    with pytest.raises(ValueError, match="row 2: non-numeric value 'oops'"):
        load_csv(path)
    path.write_text("", encoding="ascii")
    with pytest.raises(ValueError, match="empty file"):
        load_csv(path)
    path.write_text("5\n6\n", encoding="ascii")
    with pytest.raises(ValueError, match="at least one attribute and a label"):
        load_csv(path)
    path.write_text("1,2\n", encoding="ascii")
    with pytest.raises(ValueError, match="label column 4 out of range"):
        load_csv(path, label_column=4)
    # float() reads "1_0" as 10.0, numpy's parser refuses digit-group underscores
    path.write_text("1,2\n3,1_0\n", encoding="ascii")
    with pytest.raises(ValueError, match="row 2: non-numeric value '1_0'"):
        load_csv(path)
    # numpy strips \x1f around a cell as a blank, float() refuses it
    path.write_text("1,2\n3,4\x1f\n", encoding="ascii")
    with pytest.raises(ValueError, match=r"row 2: non-numeric value '4\\x1f'"):
        load_csv(path)
    path.write_text("a\x1fb,c\n3,4\n", encoding="ascii")
    np.testing.assert_array_equal(load_csv(path, has_header=True).y, [4.0])


def test_load_csv_rejects_non_finite_cells(tmp_path):
    path = tmp_path / "bad.csv"
    # the row number counts the header and blank lines, like every other ingest error
    path.write_text("a,b,c\n1,2,3\n\n4,5,nan\n", encoding="ascii")
    with pytest.raises(ValueError, match="row 4: non-finite value 'nan'"):
        load_csv(path, has_header=True)
    path.write_text("1,2,3\n-inf,5,6\n", encoding="ascii")
    with pytest.raises(ValueError, match="row 2: non-finite value '-inf'"):
        load_csv(path)
    # a finite-looking literal that overflows to inf is just as unusable
    path.write_text("1,1e999,3\n", encoding="ascii")
    with pytest.raises(ValueError, match="row 1: non-finite value '1e999'"):
        load_csv(path)


def test_load_csv_rejects_first_non_finite_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,4\nNaN,inf\n5,nan\n", encoding="ascii")
    with pytest.raises(ValueError, match="row 3: non-finite value 'NaN'"):
        load_csv(path, label_column=0)


NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}"),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.builds("{}{}e{}".format, st.sampled_from(["", "+", "-"]),
              st.sampled_from(["1", "2.5", ".5", "7.", "12345678901234567"]), st.integers(-330, 330)),
    st.sampled_from(["0", "-0", "+0", "-0.0", "0.1", "0.30000000000000004", "1.0000000000000002",
                     "4.9e-324", "5e-324", "2.2250738585072009e-308", "1e-400", "1.7976931348623157e308"]),
)
NON_FINITE_CELLS = st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "+Infinity", "1e999", "-1e999"])
JUNK_CELLS = st.one_of(
    st.sampled_from(["", "#", "1#c", "2#", "#3", '"1"', "'2'", "oops", "1.2.3", "e5", "1e", "--1", "0x10",
                     "1 2", "nan(1)", "\x00", "4\x00", "\x1f5"]),
    st.text(alphabet="0123456789.eE+-naifty#\"' \t\x1f", max_size=6),
)
CLEAN_PADS = st.sampled_from(["", "", " ", "\t", " \t "])
DIRTY_PADS = st.sampled_from(["", " ", "\t", "\x1f", "\x00"])
SEPARATORS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c"])


@st.composite
def csv_texts(draw):
    """CSV text, a header flag and a label column.  A clean file holds only
    finite numbers in equal rows; a dirty one mixes in non-finite and junk
    cells, ragged and whitespace-only rows, trailing commas and comments,
    \\x1f and NUL."""
    clean = draw(st.booleans())
    width = draw(st.sampled_from([1, 2, 2, 3, 3, 4]))
    lines = []
    has_header = draw(st.booleans())
    if has_header:
        lines.append(draw(st.sampled_from(["a,b,c", "x", "", " ", "1,2", "#h,\x1f,1_0"])))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank"] + ([] if clean else ["ragged", "space"])))
        if kind == "blank":
            lines.append("")
            continue
        if kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", "  \t"])))
            continue
        cells = []
        for _ in range(width if kind == "row" else draw(st.integers(1, 5))):
            source = "number" if clean else draw(st.sampled_from(["number"] * 8 + ["non-finite", "junk"]))
            cell = draw({"number": NUMBER_CELLS, "non-finite": NON_FINITE_CELLS, "junk": JUNK_CELLS}[source])
            pads = CLEAN_PADS if clean or draw(st.booleans()) else DIRTY_PADS
            cells.append(draw(pads) + cell + draw(pads))
        tail = "" if clean else draw(st.sampled_from([""] * 6 + [",", "#", "#c", ",1#"]))
        lines.append(",".join(cells) + tail)
    text = "".join(line + draw(SEPARATORS) for line in lines)
    if lines and draw(st.booleans()):
        text = text[:-1]  # no final separator
    return text, has_header, draw(st.integers(-width - 1, width))


def _outcome(loader, path, has_header, label_column):
    try:
        ds = loader(path, has_header=has_header, label_column=label_column)
    except ValueError as exc:
        return "error", str(exc)
    return "ok", ds.x.shape, ds.x.tobytes(), ds.y.tobytes(), ds.regime


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_texts())
@example(("1,2#c\n3,4#\n", False, -1))  # a '#' starts no comment
@example(("1,2\x1f\n", False, -1))
@example(("1,\x002\n", False, -1))
def test_load_csv_matches_reference_loop(tmp_path, case):
    text, has_header, label_column = case
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("ascii"))
    assert _outcome(load_csv, path, has_header, label_column) == \
        _outcome(reference_load_csv, path, has_header, label_column)


def test_load_csv_memory_stays_near_file_and_array_size(tmp_path):
    """No Python object per cell: the traced peak stays near the text plus the
    parsed array, far below the ~40 bytes per cell a float() per cell costs."""
    rng = np.random.default_rng(0)
    x = np.where(rng.random((5000, 99)) < 0.05, rng.uniform(0.5, 1.5, (5000, 99)), 0.0)
    path = tmp_path / "data.csv"
    write_csv(path, Dataset(x, x.sum(axis=1)))
    file_bytes = path.stat().st_size
    array_bytes = 5000 * 100 * 8
    tracemalloc.start()
    try:
        ds = load_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(ds.x, x)
    # measured: 2.17x with np.loadtxt, 4.88x with one float() per cell
    assert peak < 3.0 * (file_bytes + array_bytes)


def test_scaler_l2_uses_worst_row():
    x = np.array([[3.0, 4.0], [0.3, 0.4]])
    ds = Dataset(x, np.zeros(2))
    out = Scaler(Regime.L2).fit(ds).transform(ds)
    norms = np.sqrt((out.x**2).sum(axis=1))
    assert norms[0] == pytest.approx(1.0)
    assert norms[1] == pytest.approx(0.1)
    assert out.regime == Regime.L2


def test_scaler_linf_per_column():
    x = np.array([[2.0, -8.0], [1.0, 4.0]])
    ds = Dataset(x, np.zeros(2))
    out = Scaler(Regime.LINF).fit(ds).transform(ds)
    np.testing.assert_allclose(out.x, [[1.0, -1.0], [0.5, 0.5]])


def test_scaler_zero_column_kept():
    x = np.array([[2.0, 0.0], [1.0, 0.0]])
    out = normalize(Dataset(x, np.zeros(2)), Regime.LINF)
    np.testing.assert_allclose(out.x, [[1.0, 0.0], [0.5, 0.0]])


def test_scaler_clips_out_of_ball_test_rows():
    train = Dataset(np.array([[0.5, 0.0], [0.0, 0.5]]), np.zeros(2))
    scaler = Scaler(Regime.L2).fit(train)
    test = Dataset(np.array([[2.0, 0.0], [0.1, 0.0]]), np.zeros(2))
    out = scaler.transform(test)
    assert scaler.clipped == 1
    assert np.sqrt((out.x[0] ** 2).sum()) == pytest.approx(1.0)
    np.testing.assert_allclose(out.x[1], [0.2, 0.0])


def test_scaler_errors():
    with pytest.raises(ValueError, match="all-zero dataset"):
        Scaler(Regime.L2).fit(Dataset(np.zeros((2, 2)), np.zeros(2)))
    with pytest.raises(ValueError, match="scaler not fitted"):
        Scaler(Regime.L2).transform(Dataset(np.ones((1, 1)), np.zeros(1)))


def test_normalize_idempotent():
    rng = np.random.default_rng(1)
    ds = Dataset(rng.standard_normal((10, 3)) * 5, rng.standard_normal(10))
    for regime in (Regime.L2, Regime.LINF):
        once = normalize(ds, regime)
        once.validate()
        twice = normalize(once, regime)
        np.testing.assert_allclose(twice.x, once.x, atol=1e-12)
