#!/usr/bin/env python3
"""Regenerate data/default_gain_table.json from the characterization pipeline.

Runs the full (code kind x Eb/No x ratio bin x quality level) grid with the
default (1024, 512) codes. Takes tens of minutes; use --parallel to fan the
(kind, Eb/No) columns out over processes. The output is deterministic in the
seed and independent of the worker count. A flag left out keeps the default
of `montecarlo.build_gain_table`, which is the shipped table's setting.
"""

import argparse
import inspect
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from uepsim import montecarlo

# flag -> build_gain_table parameter
FLAGS = {
    "--seed": "master_seed",
    "--char-trials": "char_trials",
    "--pages": "n_pages",
    "--page-codewords": "page_codewords",
    "--parallel": "workers",
}


def main(argv=None) -> int:
    defaults = inspect.signature(montecarlo.build_gain_table).parameters
    ap = argparse.ArgumentParser(description=__doc__)
    for flag, param in FLAGS.items():
        ap.add_argument(flag, type=int, dest=param, help=f"default {defaults[param].default}")
    ap.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parents[1] / "data" / "default_gain_table.json"),
    )
    args = ap.parse_args(argv)
    given = {p: getattr(args, p) for p in FLAGS.values() if getattr(args, p) is not None}

    t0 = time.time()
    table = montecarlo.build_gain_table(**given)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(table.to_json() + "\n")
    print(f"wrote {out} in {time.time() - t0:.0f}s")
    for kind, grid in table.gains.items():
        print(f"{kind}: mean gain q=1 {grid[:, :, 1].mean():.3f}, q=0 {grid[:, :, 0].mean():.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
