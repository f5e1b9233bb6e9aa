import numpy as np
import pytest

from budgetreg.core import Dataset, Regime
from budgetreg.ingest import Scaler, load_csv, normalize, write_csv


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
