"""Deterministic random substreams and the process fan-out they make safe.

Every stochastic operation in the package draws from a substream derived
from a master seed plus an integer path (for example ``(master_seed, trial)``).
Substreams are mutually independent, so trials can be fanned out over
workers in any order and still accumulate to the same result as a serial
run.
"""

from __future__ import annotations

import numpy as np


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Return an independent generator for (master_seed, *path)."""
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(seq)


def fan_out(fn, args, workers: int) -> list:
    """``[fn(a) for a in args]``, over ``workers`` processes when more than one.

    Results keep the order of ``args``; an ``fn`` that draws only from
    substreams named by its argument returns the same for any worker count.
    """
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, args))
    return [fn(a) for a in args]
