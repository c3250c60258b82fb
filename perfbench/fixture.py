"""Write a workload's input files, in a process of its own.

    python3 perfbench/fixture.py --seed N --out DIR [--prepared]

Writes the generated CSV to ``DIR/traffic.csv``.  With ``--prepared`` it
also runs ``metroflow prepare`` into ``DIR`` and saves a freshly initialised
checkpoint of each model kind against that dataset.  Running apart from the
benchmark keeps this work out of the benchmark process's peak memory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--prepared", action="store_true")
    args = parser.parse_args(argv)
    out = Path(args.out)
    gen.write_csv(out / "traffic.csv", args.seed)
    if not args.prepared:
        return 0

    from metroflow import KINDS, ModelSpec, build_model, cli, load_cache

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["prepare", "--csv", str(out / "traffic.csv"), "--out", str(out)])
    if code != 0:
        return code
    bundle = load_cache(out / cli.DATASET_FILE)
    for kind in KINDS:
        model = build_model(ModelSpec(kind=kind, input_features=bundle.input_features,
                                      window=bundle.window, horizon=bundle.horizon))
        model.save(out / f"model_{kind}.bin", data_hash=bundle.data_hash)
    return 0


if __name__ == "__main__":
    sys.exit(main())
