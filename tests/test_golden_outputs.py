"""Pin the bytes `budgetreg experiment` writes on two small configs.

The weight fingerprints cover single training runs; this covers what an
experiment adds on top of them: cross-validated step-size selection, the
curve aggregation and the three writers.  A change that moves any of these
files is a change of output and must update the digests on purpose.
"""

import hashlib
import json

import pytest

from budgetreg import cli

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
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_experiment_outputs_match_recorded_digests(tmp_path, name):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIGS[name]))
    out = tmp_path / "out"
    assert cli.main(["experiment", "--config", str(config), "--out-dir", str(out), "--workers", "1"]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert digests == DIGESTS[name]
