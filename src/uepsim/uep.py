"""Per-position error characterization and protection orderings.

`characterize` repeats random-payload transmissions through encode ->
channel -> decode and counts, for every payload bit position, the number
of transmissions in which that position was received in error after
decoding. The resulting profile drives the priority mappings of the
approximate-transmission layer.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

import numpy as np
from scipy import stats

from . import fec
from .channel import ChannelConfig, transmit_batch
from .rng import fan_out, substream

DEFAULT_TRIALS = 100_000
FAST_TRIALS = 10_000
_HEAD_LEN = 50


@dataclass(eq=False)
class BitErrorProfile:
    code_kind: str  # "LDPC" or "POLAR"
    ebno_db: float
    trials: int
    error_counts: np.ndarray  # per payload position
    k_info: int

    def __post_init__(self):
        self.error_counts = np.asarray(self.error_counts, dtype=np.int64)
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        if (self.error_counts < 0).any() or (self.error_counts > self.trials).any():
            raise ValueError("error counts must lie in [0, trials]")

    # -- serialization ------------------------------------------------------

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("position,error_count\n")
        for i, c in enumerate(self.error_counts):
            buf.write(f"{i},{int(c)}\n")
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "code_kind": self.code_kind,
                "ebno_db": self.ebno_db,
                "trials": self.trials,
                "k_info": self.k_info,
                "error_counts": [int(c) for c in self.error_counts],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "BitErrorProfile":
        d = json.loads(text)
        return cls(
            code_kind=d["code_kind"],
            ebno_db=d["ebno_db"],
            trials=d["trials"],
            error_counts=np.asarray(d["error_counts"], dtype=np.int64),
            k_info=d["k_info"],
        )

    @classmethod
    def from_csv(cls, text: str, code_kind: str, ebno_db: float, trials: int) -> "BitErrorProfile":
        rows = [ln.split(",") for ln in text.strip().splitlines()[1:]]
        counts = np.zeros(len(rows), dtype=np.int64)
        for pos, cnt in rows:
            counts[int(pos)] = int(cnt)
        return cls(code_kind, ebno_db, trials, counts, k_info=len(counts))


def characterize(
    code: fec.CodeSpec,
    cfg: ChannelConfig,
    trials: int,
    list_size: int = fec.DEFAULT_LIST_SIZE,
    batch_size: int = 256,
    workers: int = 1,
) -> BitErrorProfile:
    """Measure the per-position post-decoding error counts of ``code``.

    Trial t draws its payload and noise from substream (cfg.rng_seed, t),
    so counts are additive over disjoint trial ranges and identical for any
    batching or worker layout.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    bounds = [trials * w // workers for w in range(workers + 1)]
    ranges = [(code, cfg, a, b - a, list_size, batch_size)
              for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    return BitErrorProfile(
        code_kind=fec.code_kind(code),
        ebno_db=cfg.ebno_db,
        trials=trials,
        error_counts=sum(fan_out(_run_range, ranges, workers)),
        k_info=fec.payload_length(code),
    )


def _run_range(args) -> np.ndarray:
    code, cfg, first, n, list_size, batch_size = args
    counts = np.zeros(fec.payload_length(code), dtype=np.int64)
    for start in range(first, first + n, batch_size):
        m = min(batch_size, first + n - start)
        counts += _run_batch(code, cfg, start, m, list_size)
    return counts


def _run_batch(code, cfg, first_trial, n, list_size) -> np.ndarray:
    npos = fec.payload_length(code)
    payloads = np.empty((n, npos), dtype=np.uint8)
    noise_rngs = []
    for i in range(n):
        rng = substream(cfg.rng_seed, first_trial + i)
        payloads[i] = rng.integers(0, 2, npos)
        noise_rngs.append(rng)
    codewords = fec.encode_batch(code, payloads)
    llrs = np.empty(codewords.shape, dtype=np.float64)
    for i, rng in enumerate(noise_rngs):
        llrs[i] = transmit_batch(codewords[i : i + 1], cfg, rng)[0]
    decoded, _ = fec.decode_batch(code, llrs, list_size)
    return (decoded != payloads).sum(axis=0, dtype=np.int64)


def protection_order(profile: BitErrorProfile) -> np.ndarray:
    """Payload positions sorted most-protected first (ascending error count,
    ties broken by lower index)."""
    return np.argsort(profile.error_counts, kind="stable")


def summarize(profile: BitErrorProfile) -> dict:
    """Shape statistics of a profile: head/tail means, rank correlation,
    min/max ratio."""
    counts = profile.error_counts
    k = len(counts)
    head = min(_HEAD_LEN, max(1, k // 2))
    mean_head = float(counts[:head].mean())
    mean_tail = float(counts[head:].mean()) if k > head else mean_head
    cmax = int(counts.max())
    cmin = int(counts.min())
    if counts.max() == counts.min():
        spearman = None  # constant profile: correlation undefined
    else:
        spearman = float(stats.spearmanr(np.arange(k), counts).statistic)
    return {
        "positions": k,
        "head_len": head,
        "mean_head": mean_head,
        "mean_tail": mean_tail,
        "head_tail_ratio": mean_head / mean_tail if mean_tail > 0 else 1.0,
        "spearman_position_vs_count": spearman,
        "min_count": cmin,
        "max_count": cmax,
        "min_max_ratio": cmin / cmax if cmax > 0 else 1.0,
    }
