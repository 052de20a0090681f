"""The benchmark's workloads, their generated configs and their output checks.

Every workload is one `uepsim` CLI invocation on a config the benchmark
generates from a pinned config under `configs/`. The pinned operating point
(code, Eb/No, quality level, ratio bins, image size, GOP, protected P-frames,
algorithms, injection grid) is kept; only the trial, page, GOP and seed
counts are sized so that one invocation takes seconds on one core.

This module uses the standard library only: the benchmark parent imports it
without importing `uepsim`.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

# every layer the traced run wraps; `Workload.active` names the ones a
# workload must call, and every other one must record no call
LAYERS = (
    "fec.polar.construct",
    "fec.polar.encode",
    "fec.polar.decode",
    "fec.ldpc.construct",
    "fec.ldpc.encode",
    "fec.ldpc.decode",
    "channel.transmit_batch",
    "channel.transmit_keyed",
    "uep.characterize",
    "approxtx.transfer",
    "approxtx.quality.ms_ssim",
    "montecarlo.run_simulation",
    "montecarlo.gain_lookup",
    "montecarlo.sample_workload",
    "sched.assign",
    "sched.compute_metrics",
)

_TRANSMIT_SHARED = (
    "channel.transmit_batch",
    "channel.transmit_keyed",
    "uep.characterize",
    "approxtx.transfer",
    "approxtx.quality.ms_ssim",
)

RATIO_BINS = [[20 + 40 * i, 480 - 40 * i] for i in range(8)]
PROTECTED_PFRAMES = list(range(15))
INJECTION_PROBS = [round(0.1 * i, 1) for i in range(1, 11)]

TRANSMIT_HEADER = ["ratio_or_npframes", "scenario", "gain_percent", "quality_score", "ebno_db"]
SCHEDULE_HEADER = ["algorithm", "injection_prob", "avg_throughput", "avg_wait", "avg_flow",
                   "makespan", "n_jobs"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # uepsim subcommand
    base_config: str  # pinned config, relative to the checkout
    sizes: dict  # benchmark sizing laid over the pinned config
    tiny: dict  # smoke-test sizing laid over `sizes`
    active: frozenset  # layers this workload must call
    output: str  # the file the invocation writes
    # the worker's reference kernel that tracks this workload's speed on a
    # drifting host: "python" for interpreted code, "numpy" for large arrays
    reference: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="web-polar",
            why="transmit ratio sweep on polar (1024,512) CA-SCL L=8: polar decode dominates, "
                "LDPC and the scheduler stay idle",
            command="transmit",
            base_config="configs/transmit_ratio.json",
            # 2 characterization batches of 256 rows; 16 pages x 4 codewords
            # make 64-row first transmission rounds
            sizes={"ratios": RATIO_BINS, "char_trials": 512, "n_pages": 16},
            tiny={"ratios": RATIO_BINS[:2], "char_trials": 16, "n_pages": 1,
                  "quality_image_size": 32},
            active=frozenset(("fec.polar.construct", "fec.polar.encode", "fec.polar.decode")
                             + _TRANSMIT_SHARED),
            output="sweep.csv",
            reference="python",
        ),
        Workload(
            name="video-ldpc",
            why="transmit P-frame sweep on PEG LDPC (1024,512) BP at 1.5 dB: LDPC decode and "
                "GOP MS-SSIM dominate, polar and the scheduler stay idle",
            command="transmit",
            base_config="configs/transmit_video.json",
            # one GOP already runs 16 paired transfers with long retransmission tails
            sizes={"protected_pframes": PROTECTED_PFRAMES, "char_trials": 512, "n_gops": 1},
            tiny={"protected_pframes": [0, 14], "char_trials": 16},
            active=frozenset(("fec.ldpc.construct", "fec.ldpc.encode", "fec.ldpc.decode")
                             + _TRANSMIT_SHARED),
            output="sweep.csv",
            reference="numpy",
        ),
        Workload(
            name="sched-study",
            why="schedule 4L+2P at 2.0 dB, q=0, four algorithms over the full injection grid: "
                "no codec runs, so it is the control for every decoder change",
            command="schedule",
            base_config="configs/schedule.json",
            sizes={"injection_probs": INJECTION_PROBS, "seeds": [0]},
            tiny={"injection_probs": [0.1, 0.2], "horizon_ticks": 100},
            active=frozenset(("montecarlo.run_simulation", "montecarlo.gain_lookup",
                              "montecarlo.sample_workload", "sched.assign",
                              "sched.compute_metrics")),
            output="metrics.csv",
            reference="python",
        ),
    )
}


def make_config(workload: Workload, checkout: Path, tiny: bool = False) -> dict:
    """The workload's config: the pinned config with the benchmark's sizes."""
    cfg = json.loads((checkout / workload.base_config).read_text())
    cfg.update(workload.sizes)
    if tiny:
        cfg.update(workload.tiny)
    if workload.command == "schedule":
        table = checkout / cfg["gain_table"]
        if not table.is_file():
            raise FileNotFoundError(f"gain table not found: {table}")
        cfg["gain_table"] = str(table.resolve())
    return cfg


# --------------------------------------------------------------------------
# output checks: each returns (rows checked, rows failed, first problems)


def check_output(workload: Workload, cfg: dict, out_dir: Path):
    path = out_dir / workload.output
    if workload.command == "schedule":
        expected = [(a, float(p)) for a in cfg["algorithms"] for p in cfg["injection_probs"]]
        check_rows = _check_schedule_rows
    elif cfg["mode"] == "ratio":
        expected = [f"{t}:{i}" for t, i in cfg["ratios"]]
        check_rows = _check_transmit_rows
    else:
        expected = [str(n) for n in cfg["protected_pframes"]]
        check_rows = _check_transmit_rows
    header = TRANSMIT_HEADER if workload.command == "transmit" else SCHEDULE_HEADER
    if not path.is_file():
        return len(expected), len(expected), [f"{path.name} missing"]
    with path.open(newline="") as fh:
        table = list(csv.reader(fh))
    if not table or table[0] != header:
        return len(expected), len(expected), [f"{path.name} header is {table[:1]}"]
    rows = table[1:]
    problems = [None] * len(rows)
    check_rows(rows, expected, cfg, problems)
    for i in range(len(expected), len(rows)):
        problems[i] = "unexpected extra row"
    checked = max(len(rows), len(expected))
    bad = [f"row {i + 1}: {p}" for i, p in enumerate(problems) if p]
    failed = len(bad) + max(0, len(expected) - len(rows))
    if len(rows) < len(expected):
        bad.append(f"{len(expected) - len(rows)} rows missing")
    return checked, failed, bad[:5]


def _floats(fields):
    try:
        values = [float(f) for f in fields]
    except ValueError:
        return None
    return values if all(math.isfinite(v) for v in values) else None


def _check_transmit_rows(rows, expected, cfg, problems):
    """Finite values, gain_percent >= 0, quality_score in [0, 1]; in pframes
    mode gain must not grow with the number of protected P-frames (noise is
    paired across the sweep, so this holds exactly)."""
    ratio_mode = cfg["mode"] == "ratio"
    prev_gain = math.inf
    for i, row in enumerate(rows[: len(expected)]):
        values = _floats(row[2:]) if len(row) == len(TRANSMIT_HEADER) else None
        if values is None:
            problems[i] = f"malformed or non-finite: {row}"
            continue
        gain, quality, ebno = values
        scenario = f"k={cfg['quality_level']}" if ratio_mode else f"np={expected[i]}"
        if row[0] != expected[i] or row[1] != scenario:
            problems[i] = f"expected {expected[i]},{scenario}, got {row[0]},{row[1]}"
        elif gain < 0:
            problems[i] = f"negative gain {gain}"
        elif not 0.0 <= quality <= 1.0:
            problems[i] = f"quality {quality} outside [0, 1]"
        elif ebno != float(cfg["ebno_db"]):
            problems[i] = f"ebno_db {ebno} != {cfg['ebno_db']}"
        elif not ratio_mode and gain > prev_gain:
            problems[i] = f"gain {gain} grew with protected P-frames (previous {prev_gain})"
        prev_gain = gain


def _check_schedule_rows(rows, expected, cfg, problems):
    """Finite values, avg_flow >= avg_wait >= 0, makespan > 0, and equal
    n_jobs across algorithms at each injection probability (arrivals are
    paired across algorithms)."""
    jobs_at = {}
    for i, row in enumerate(rows[: len(expected)]):
        values = _floats(row[1:]) if len(row) == len(SCHEDULE_HEADER) else None
        if values is None:
            problems[i] = f"malformed or non-finite: {row}"
            continue
        inj, thr, wait, flow, makespan, n_jobs = values
        algo, want_inj = expected[i]
        first_jobs = jobs_at.setdefault(inj, n_jobs)
        if row[0] != algo or inj != want_inj:
            problems[i] = f"expected {algo},{want_inj}, got {row[0]},{inj}"
        elif not flow >= wait >= 0.0:
            problems[i] = f"need avg_flow >= avg_wait >= 0, got {flow}, {wait}"
        elif makespan <= 0 or thr <= 0 or n_jobs <= 0:
            problems[i] = f"non-positive makespan, throughput or n_jobs: {row}"
        elif n_jobs != first_jobs:
            problems[i] = f"n_jobs {n_jobs} differs from {first_jobs} at injection {inj}"
