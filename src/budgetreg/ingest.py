"""CSV loading and ball normalization.

The file format is deliberately rigid, the one ``write_csv`` writes:
comma-separated ASCII decimal numbers, label last, no header line, no
quoting, escapes or comments.  A cell is a decimal number with an
optional sign, decimal point and exponent (``-1.5e-3``, ``.5``, ``7.``),
optionally surrounded by spaces or tabs; digit-group underscores
(``1_0``) are refused, and ``nan``/``inf`` parse but are refused as
non-finite.  Empty lines are skipped; numbers are parsed by numpy's C reader.

Scaling factors are always fit on a training split and reapplied
verbatim to test data; test examples that land outside the ball after
scaling are rescaled onto the boundary and counted.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import Dataset, Regime

__all__ = [
    "load_csv",
    "write_csv",
    "Scaler",
    "normalize",
]


def load_csv(path):
    """Rectangular numeric CSV, label last -> raw Dataset whose x and y are
    views of the one parsed table (no regime attached).  Row numbers in
    errors are 1-based file line numbers; nan and +-inf cells are rejected.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    numbers = [n for n, line in enumerate(lines, start=1) if line != ""]
    if not numbers:
        raise ValueError("empty file: no data rows")
    rows = [lines[n - 1] for n in numbers]
    if any("\x1f" in row for row in rows):  # numpy strips \x1f around a cell as a blank; float() refuses it
        _check_rows(rows, numbers)
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        _check_rows(rows, numbers)
        raise
    if data.shape[1] < 2:
        raise ValueError(f"row {numbers[0]}: need at least one attribute and a label")
    finite = np.isfinite(data)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(f"row {numbers[row]}: non-finite value {rows[row].split(',')[col]!r}")
    return Dataset(data[:, :-1], data[:, -1], None)


def _check_rows(rows, numbers):
    """Raise the first malformed row's error, in file order; return if none is found."""
    width = len(rows[0].split(","))
    if width < 2:
        raise ValueError(f"row {numbers[0]}: need at least one attribute and a label")
    for lineno, line in zip(numbers, rows):
        cells = line.split(",")
        if len(cells) != width:
            raise ValueError(f"row {lineno}: expected {width} columns, found {len(cells)}")
        bad = next((c for c in cells if not _is_number(c)), None)
        if bad is not None:
            raise ValueError(f"row {lineno}: non-numeric value {bad!r}")


def _is_number(cell):
    """The cell syntax numpy's parser accepts: float()'s, without digit-group underscores."""
    if "_" in cell:
        return False
    try:
        float(cell)
        return True
    except ValueError:
        return False


def write_csv(path, dataset):
    """Dataset -> CSV with the label as the last column.

    Values are written with 17 significant digits, enough to reproduce
    every float64 exactly on reload.
    """
    with open(path, "w", encoding="ascii") as fh:
        for row, label in zip(dataset.x, dataset.y):
            cells = [f"{v:.17g}" for v in row] + [f"{label:.17g}"]
            fh.write(",".join(cells) + "\n")


@dataclass
class Scaler:
    """Per-regime scaling fit on training data, reusable on test data.

    L2 divides every example by the largest training-example norm; Linf
    divides each column by its largest training absolute value.  Columns
    that are identically zero keep factor 1.
    """

    regime: Regime
    factors: np.ndarray | None = None  # scalar array (L2) or per-column (Linf)
    clipped: int = field(default=0)  # out-of-ball transform rows, cumulative

    def fit(self, dataset):
        x = dataset.x
        if not np.any(x != 0):
            raise ValueError("all-zero dataset")
        if self.regime == Regime.L2:
            self.factors = np.array([np.sqrt((x * x).sum(axis=1)).max()])
        else:
            col_max = np.abs(x).max(axis=0)
            self.factors = np.where(col_max > 0, col_max, 1.0)
        return self

    def transform(self, dataset):
        if self.factors is None:
            raise ValueError("scaler not fitted")
        x = dataset.x / self.factors
        if self.regime == Regime.L2:
            scale = np.sqrt((x * x).sum(axis=1))
        else:
            scale = np.abs(x).max(axis=1) if x.size else np.zeros(len(dataset))
        outside = scale > 1.0
        if np.any(outside):
            self.clipped += int(outside.sum())
            x[outside] /= scale[outside, None]
        return Dataset(x, dataset.y.copy(), self.regime)


def normalize(dataset, regime):
    """Fit-and-transform in one step; training-split use only."""
    return Scaler(regime).fit(dataset).transform(dataset)
