import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from budgetreg import cli, harness
from budgetreg.core import Dataset, Regime
from budgetreg.ingest import Scaler, load_csv, normalize, write_csv


def reference_load_csv(path):
    """The per-cell loop load_csv ran before it parsed with np.loadtxt: one
    float() per cell, the same checks in the same order, label last."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    rows = []
    width = None
    for lineno, line in enumerate(lines, start=1):
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
        lineno = [n for n, line in enumerate(lines, start=1) if line != ""][row]
        raise ValueError(f"row {lineno}: non-finite value {lines[lineno - 1].split(',')[col]!r}")
    return Dataset(data[:, :-1], data[:, -1], None)


def _reference_is_number(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False


EDGE_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                sys.float_info.max, -sys.float_info.max, 1.0, 0.1, 1 / 3]
FINITE_DOUBLES = st.one_of(
    st.sampled_from(EDGE_DOUBLES),
    st.floats(allow_nan=False, allow_infinity=False),
    # |x| < 1 keeps x * 2**1024 finite: math.ldexp raises OverflowError rather than return inf
    st.builds(math.ldexp, st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True), st.integers(-1074, 1024)),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 8).flatmap(lambda m: st.integers(1, 5).flatmap(
    lambda d: arrays(np.float64, (m, d + 1), elements=FINITE_DOUBLES))))
@example(np.array([EDGE_DOUBLES]))
def test_csv_round_trip(tmp_path, table):
    """write_csv then load_csv returns every finite double bit for bit
    (the sign of zero and subnormals included), the label last."""
    ds = Dataset(table[:, :-1], table[:, -1])
    path = tmp_path / "data.csv"
    write_csv(path, ds)
    back = load_csv(path)
    assert back.x.shape == ds.x.shape
    assert back.x.tobytes() == ds.x.tobytes()
    assert back.y.tobytes() == ds.y.tobytes()
    assert back.regime is None


def test_load_csv_refuses_header_line(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b,c\n1,2,3\n4,5,6\n", encoding="ascii")
    with pytest.raises(ValueError, match="row 1: non-numeric value 'a'"):
        load_csv(path)
    path.write_text("a\x1fb,c\n3,4\n", encoding="ascii")
    with pytest.raises(ValueError, match=r"row 1: non-numeric value 'a\\x1fb'"):
        load_csv(path)


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
    # float() reads "1_0" as 10.0, numpy's parser refuses digit-group underscores
    path.write_text("1,2\n3,1_0\n", encoding="ascii")
    with pytest.raises(ValueError, match="row 2: non-numeric value '1_0'"):
        load_csv(path)
    # numpy strips \x1f around a cell as a blank, float() refuses it
    path.write_text("1,2\n3,4\x1f\n", encoding="ascii")
    with pytest.raises(ValueError, match=r"row 2: non-numeric value '4\\x1f'"):
        load_csv(path)


def test_load_csv_rejects_non_finite_cells(tmp_path):
    path = tmp_path / "bad.csv"
    # the row number counts blank lines, like every other ingest error
    path.write_text("1,2,3\n\n4,5,nan\n", encoding="ascii")
    with pytest.raises(ValueError, match="row 3: non-finite value 'nan'"):
        load_csv(path)
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
        load_csv(path)


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
    """CSV text.  A clean file holds only finite numbers in equal rows; a
    dirty one mixes in non-finite and junk cells, ragged and whitespace-only
    rows, trailing commas and comments, \\x1f and NUL."""
    clean = draw(st.booleans())
    width = draw(st.sampled_from([1, 2, 2, 3, 3, 4]))
    lines = []
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
    return text


def _outcome(loader, path):
    try:
        ds = loader(path)
    except ValueError as exc:
        return "error", str(exc)
    return "ok", ds.x.shape, ds.x.tobytes(), ds.y.tobytes(), ds.regime


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_texts())
@example("1,2#c\n3,4#\n")  # a '#' starts no comment
@example("1,2\x1f\n")
@example("1,\x002\n")
def test_load_csv_matches_reference_loop(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("ascii"))
    assert _outcome(load_csv, path) == _outcome(reference_load_csv, path)


def test_load_csv_memory_stays_near_file_and_array_size(tmp_path):
    """No Python object per cell: the traced peak stays near the text plus the
    parsed array, far below the ~40 bytes per cell a float() per cell costs.
    Once load_csv returns, x and y hold the parsed table once, not twice."""
    rng = np.random.default_rng(0)
    x = np.where(rng.random((5000, 99)) < 0.05, rng.uniform(0.5, 1.5, (5000, 99)), 0.0)
    path = tmp_path / "data.csv"
    write_csv(path, Dataset(x, x.sum(axis=1)))
    file_bytes = path.stat().st_size
    array_bytes = 5000 * 100 * 8
    tracemalloc.start()
    try:
        ds = load_csv(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(ds.x, x)
    # measured: 1.23x with np.loadtxt and column slices, 1.90x with a np.delete copy, 4.88x with one float() per cell
    assert peak < 3.0 * (file_bytes + array_bytes)
    # measured: 1.00x with x and y slicing one table, 1.99x with x a copy beside it
    assert held < 1.25 * array_bytes


@pytest.fixture(scope="module")
def sparse_table(tmp_path_factory):
    """A csv-cli-shaped table, 4000 x 100 attributes at 10% density with
    magnitudes in [0.5, 1.5), as a CSV; returns (path, parsed table bytes)."""
    rng = np.random.default_rng(0)
    x = np.where(rng.random((4000, 100)) < 0.1, rng.uniform(0.5, 1.5, (4000, 100)), 0.0)
    path = tmp_path_factory.mktemp("sparse") / "data.csv"
    write_csv(path, Dataset(x, x @ rng.choice([-1.0, 1.0], 100)))
    return path, 4000 * 101 * 8


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_materialize_frees_the_parsed_table_once_split(sparse_table):
    """The parsed table is freed once the split has copied the pool and test
    rows: the scaled copies and the moments' square never sit beside it."""
    path, table_bytes = sparse_table
    config = harness.ExperimentConfig.from_dict({"algorithms": ["aelr"], "regime": "linf", "prefixes": [100],
                                                 "k": 3, "data": str(path), "repeats": 1})
    # measured: 2.83x with the table held to the end, 2.01x with it freed after the split
    assert traced_peak(lambda: harness._materialize(config)) < 2.3 * table_bytes


def test_train_frees_the_parsed_table_once_scaled(sparse_table, tmp_path):
    path, table_bytes = sparse_table
    argv = ["train", "--algo", "aelr", "--data", str(path), "--k", "3", "--eta-auto",
            "--out-model", str(tmp_path / "model.json")]
    # measured: 3.01x with the table held to the end, 2.05x with it freed after Scaler.transform
    assert traced_peak(lambda: cli.main(argv)) < 2.3 * table_bytes


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


def test_scaler_linf_max_matches_the_abs_table_bit_for_bit():
    """fit and transform take max |x| without an np.abs copy of the table:
    the factors and rows match the abs-based formulas bit for bit, with
    negative maxima, NaN, and -0.0 and +0.0 columns (factor 1)."""
    rng = np.random.default_rng(5)
    x = rng.uniform(-3.0, 3.0, (40, 6))
    x[:, 1] = -np.abs(x[:, 1])
    x[:, 2] = np.where(rng.random(40) < 0.5, -0.0, 0.0)
    x[:, 3] = -0.0
    x[7, 4] = np.nan
    ds = Dataset(x, np.zeros(40))
    scaler = Scaler(Regime.LINF).fit(ds)
    col_max = np.abs(x).max(axis=0)
    assert scaler.factors.tobytes() == np.where(col_max > 0, col_max, 1.0).tobytes()
    assert list(scaler.factors[2:4]) == [1.0, 1.0]
    test = Dataset(rng.uniform(-9.0, 9.0, (30, 6)), np.zeros(30))
    out = scaler.transform(test)
    expected = test.x / scaler.factors
    scale = np.abs(expected).max(axis=1)
    expected[scale > 1.0] /= scale[scale > 1.0, None]
    assert out.x.tobytes() == expected.tobytes()
    assert scaler.clipped == int((scale > 1.0).sum()) > 0


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


@pytest.mark.parametrize("regime", [Regime.L2, Regime.LINF])
def test_scaler_refuses_data_of_another_width(regime):
    scaler = Scaler(regime).fit(Dataset(np.array([[0.5, 0.0, 1.0], [0.0, 0.5, 2.0]]), np.zeros(2)))
    for width in (2, 4):
        with pytest.raises(ValueError, match=f"scaler was fit on 3 attributes, got data with {width}"):
            scaler.transform(Dataset(np.ones((2, width)), np.zeros(2)))
    assert scaler.clipped == 0


def test_normalize_idempotent():
    rng = np.random.default_rng(1)
    ds = Dataset(rng.standard_normal((10, 3)) * 5, rng.standard_normal(10))
    for regime in (Regime.L2, Regime.LINF):
        once = normalize(ds, regime)
        assert np.all(np.isfinite(once.x)) and np.all(np.isfinite(once.y))
        row_norms = np.sqrt((once.x**2).sum(axis=1)) if regime == Regime.L2 else np.abs(once.x).max(axis=1)
        assert row_norms.max() <= 1.0 + 1e-9
        twice = normalize(once, regime)
        np.testing.assert_allclose(twice.x, once.x, atol=1e-12)
