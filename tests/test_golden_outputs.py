"""Pin the bytes `budgetreg experiment` writes on three small configs.

The weight fingerprints cover single training runs; this covers what an
experiment adds on top of them: cross-validated step-size selection, the
curve aggregation and the three writers.  The "csv" config reads a table
that needs real scaling, so the scaler's fit on the pool, its clipped test
rows and the default b on CSV data are pinned too.  A change that moves any
of these files is a change of output and must update the digests on purpose.
"""

import hashlib
import json

import numpy as np
import pytest

from budgetreg import cli, harness, ingest
from budgetreg.core import Dataset

CONFIGS = {
    "l2": {
        "algorithms": ["aerr", "ddaerr", "2p-ddaerr", "ogd-full", "erm", "adagrad-gaerr"],
        "regime": "l2", "prefixes": [120, 300], "k": 3, "dim": 8, "alpha": -1.0,
        "repeats": 3, "folds": 3, "eta_grid": [0.02, 0.1, 0.5], "seed": 13,
    },
    "linf": {
        "algorithms": ["aelr", "ddaelr", "2p-ddaelr", "eg-full", "adagrad-gaelr"],
        "regime": "linf", "prefixes": [100, 250], "k": 2, "dim": 6, "alpha": -0.5,
        "repeats": 3, "eta_grid": None, "seed": 21,
    },
    "csv": {
        "algorithms": ["aelr", "ddaelr", "2p-ddaelr", "eg-full", "erm"],
        "regime": "linf", "prefixes": [60, 150], "k": 3, "data": "data.csv",
        "repeats": 3, "folds": 3, "eta_grid": [0.02, 0.1, 0.5], "seed": 17,
    },
}

DIGESTS = {
    "l2": {
        "curve_2p-ddaerr.csv": "c0c863cfe318e99f1ec74bb2f93d4a16c7d0207484f30f3b49006b47bcce35f3",
        "curve_adagrad-gaerr.csv": "4649cd632afbf8b640ea47d0df9df85b5b82be8f557164f03c5c854b8508093a",
        "curve_aerr.csv": "48005de67a18cd29ddbb3d34089beb11122ab8132c00a9b11fe1980045cd4e97",
        "curve_ddaerr.csv": "590cf41eb61124f817c8a72b193c5287db9d9cd0d250d2beba1fda8b86d40184",
        "curve_erm.csv": "2c3a3be693f3bcecd16bf724191b742aba251a3fe4f699ff3e1a560250554b17",
        "curve_ogd-full.csv": "76759981995d9a93cb096a65bab4b5a6032a6675b8297c51e264b31648ba7f6b",
        "records.csv": "61a58e8abaa9d33fea9cb7e7c7e01e898f22a4daa90d9c1c80160600e9ad6ba7",
        "summary.json": "c7020337cda43f3a2e10b0a5bf87e006b6e58239a2dec063318eefb3b4acdc6f",
    },
    "linf": {
        "curve_2p-ddaelr.csv": "897e29f3c668af4176150a175da16e7d2676bd55255cade2a3c7de5aa8b12c43",
        "curve_adagrad-gaelr.csv": "ce7f967a5b9d4c5b7a1b184f7a93065a72d6c4ec01c72177b7167c4fa087499d",
        "curve_aelr.csv": "8444e9472c71b0ffe8cf73f1684fd91462db0bf88ee5948bf6892c5e59d8fd53",
        "curve_ddaelr.csv": "538ea6af8f2d961a190547f9b6523cb841b310c75bbd17751ee3f709de94ad2b",
        "curve_eg-full.csv": "4cac0c1c22abc5f56f70cb6e76eccf945a58f08915f1b090aaed257dc41027a5",
        "records.csv": "17fdc4e411ece8843f83741b8b98cb9993be5f657c7882c13b471ace9cf51079",
        "summary.json": "52eee942863f32e593b1530b7b48188081b0ce14c7dd8f91da858e819dc89321",
    },
    "csv": {
        "curve_2p-ddaelr.csv": "fd183d85b7ef48e6996a2e2455c5f82539d7bb00f81afbdb191fd9415bfbed20",
        "curve_aelr.csv": "64bb58dd03e470bb30e64b6ff986b443846110f2f077448659acc7603cb87e8b",
        "curve_ddaelr.csv": "15a6daa0b03fa9c0b2709bc611522ac33b906007bdf5ed72f0a78c6024857ffb",
        "curve_eg-full.csv": "a4c98e744225a6626bb76391aacf229b2e9b3384d2cde016380034efbb3f09bb",
        "curve_erm.csv": "a0bf7652294dba5c5d4f616f60be73730a44413ba34fd88a7ccf8eec8a5eca50",
        "records.csv": "4535ae87b4a396e30e419b8033b7104821c6013b6bb27d8e22e2ccbbe62f3703",
        "summary.json": "d246dcf0edd96361b99a7dec672953884700ffc876317e00920a4a2f59b1dcab",
    },
}


def write_scaled_table(path):
    """The "csv" config's 300 x 10 table: attributes of magnitude 0.5-1.5
    times a lognormal row scale, noisy targets; its split leaves test rows
    outside the pool's per-column maxima."""
    rng = np.random.default_rng(32)
    x = np.where(rng.random((300, 10)) < 0.5, rng.uniform(0.5, 1.5, (300, 10)), 0.0) * rng.lognormal(0.0, 0.5, (300, 1))
    y = x @ rng.choice([-1.0, 1.0], 10) + rng.normal(0.0, 0.1, 300)
    ingest.write_csv(path, Dataset(x, y))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_experiment_outputs_match_recorded_digests(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)  # the config names its CSV by a relative path, which summary.json records
    scalers = []

    class RecordingScaler(ingest.Scaler):
        def __init__(self, regime):
            super().__init__(regime)
            scalers.append(self)

    monkeypatch.setattr(harness, "Scaler", RecordingScaler)
    if CONFIGS[name].get("data") is not None:
        write_scaled_table(tmp_path / CONFIGS[name]["data"])
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIGS[name]))
    out = tmp_path / "out"
    assert cli.main(["experiment", "--config", str(config), "--out-dir", str(out), "--workers", "1"]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert digests == DIGESTS[name]
    if name == "csv":  # one scaler, fit on the pool, which clips some test rows
        assert [s.clipped for s in scalers] == [5]
