"""Fixed-seed weight fingerprints for all twelve algorithms.

    python3 perfbench/fingerprints.py          # check against fingerprints.json
    python3 perfbench/fingerprints.py --write  # regenerate the reference

Each algorithm trains once on one small fixed synthetic pool per regime
(the regime the algorithm needs; ``erm`` uses the L2 pool).  The
fingerprint is the SHA-256 of the predictor weights as little-endian
float64 bytes, plus ``attributes_consumed``.  A refactor that must not
change results leaves every fingerprint unchanged; a change that alters
the random streams on purpose regenerates the reference and says so.
Exits 1 and names each algorithm whose fingerprint differs.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from checkout import MissingPackage, import_package

REFERENCE = Path(__file__).resolve().parent / "fingerprints.json"
D, M, ALPHA, K, DATA_SEED, RUN_SEED = 12, 60, -1.0, 4, 3, 17
ALGORITHMS = (
    "aerr", "ddaerr", "2p-ddaerr", "aelr", "ddaelr", "2p-ddaelr",
    "ogd-full", "eg-full", "erm", "adagrad-ogd-full", "adagrad-gaerr", "adagrad-gaelr",
)


def compute(pkg):
    datagen, harness, core = pkg.datagen, pkg.harness, pkg.core
    n_point, n_inner = harness.split_budget(K + 1)
    contexts = {}
    for regime in (pkg.Regime.L2, pkg.Regime.LINF):
        w_star = datagen.random_target_weights(D, regime, DATA_SEED)
        pool = datagen.generate_dataset(datagen.power_law_means(D, ALPHA, regime), w_star, M, regime, DATA_SEED)
        b = max(core.weight_norm(w_star, regime), float(np.abs(pool.y).max()))
        contexts[regime] = (pool, harness.RunContext(regime=regime, b=b, n_point=n_point, n_inner=n_inner,
                                                     moments=harness.dataset_moments(pool)))
    out = {}
    for i, algo in enumerate(ALGORITHMS):
        pool, ctx = contexts[harness.ALGORITHMS[algo].regime or pkg.Regime.L2]
        result = harness.train_run(algo, pool, ctx, None, (RUN_SEED, i))
        weights = np.ascontiguousarray(result.predictor.weights, dtype="<f8")
        out[algo] = {"sha256": hashlib.sha256(weights.tobytes()).hexdigest(),
                     "attributes_consumed": int(result.attributes_consumed)}
    return out


def mismatches(reference, current):
    """One message per algorithm whose fingerprint differs or is missing."""
    out = []
    for algo in sorted(set(reference) | set(current)):
        if reference.get(algo) != current.get(algo):
            out.append(f"{algo}: expected {reference.get(algo)}, got {current.get(algo)}")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="regenerate the reference file")
    args = parser.parse_args(argv)
    try:
        pkg = import_package()
    except MissingPackage as exc:
        print(f"fingerprints: {exc}", file=sys.stderr)
        return 2
    current = compute(pkg)
    if args.write:
        REFERENCE.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(current)} fingerprints to {REFERENCE.name}")
        return 0
    bad = mismatches(json.loads(REFERENCE.read_text()), current)
    for line in bad:
        print(f"mismatch {line}")
    print(f"{len(current) - len(bad)} of {len(current)} fingerprints match {REFERENCE.name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
