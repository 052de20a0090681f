"""Workload generation, the characterization gain table, and the
base-station Monte Carlo simulations.

The gain table is built by running the approximate-transmission pipeline
for each (code kind, Eb/No, text:image ratio bin, quality level) cell and
recording the mean performance gain of selective protection over the
full-protection baseline. A job's processing time on an encoder kind is
then s_j / (base_rate * (1 + gain)): encoders whose code earns a larger
gain at the job's operating point clear it proportionally faster.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from . import approxtx, fec, sched, uep
from .approxtx import transfer
from .channel import ChannelConfig
from .rng import fan_out, substream

# MB of payload one encoder processes per tick at gain 0. The paper-facing
# normalization is one workload-size unit per tick; 0.1 MB/tick puts the
# default gamma(2, 1.5) MB workloads into the contended regime that the
# algorithm comparison needs (see decisions ledger).
BASE_RATE_MB_PER_TICK = 0.1

EBNO_GRID = tuple(round(1.0 + 0.1 * i, 1) for i in range(11))
RATIO_BINS = tuple((20 + 40 * i, 480 - 40 * i) for i in range(8))
QUALITY_LEVELS = (0, 1)

SCENARIOS = {"4L": (4, 0), "3L2P": (3, 2), "2L2P": (2, 2)}
REFERENCE_SCENARIO = "4L"  # the conventional all-LDPC base station

ALGORITHMS = ("wftm", "smab", "random", "minqueue")


def _nearest(grid, x) -> int:
    """Index of the grid value closest to x; the first one on ties."""
    return min(range(len(grid)), key=lambda i: abs(grid[i] - x))


@dataclass(eq=False)
class GainTable:
    """Mean performance gain per (kind, Eb/No, ratio bin, quality level)."""

    ebno_grid: tuple
    ratio_bins: tuple  # of (text_bits, image_bits) per codeword
    quality_levels: tuple
    gains: dict  # kind -> ndarray (n_ebno, n_ratio, n_quality)

    def __post_init__(self):
        shape = (len(self.ebno_grid), len(self.ratio_bins), len(self.quality_levels))
        for kind, arr in self.gains.items():
            self.gains[kind] = np.asarray(arr, dtype=np.float64)
            if self.gains[kind].shape != shape:
                raise ValueError(f"gain grid for {kind} has shape {self.gains[kind].shape}")
            if not np.isfinite(self.gains[kind]).all():
                raise ValueError(f"gain grid for {kind} has non-finite entries")
        self._text_fractions = tuple(t / (t + i) for t, i in self.ratio_bins)

    def gain(self, kind: str, ebno_db: float, text_fraction: float, quality_level: int) -> float:
        """Gain of the nearest cell; values off the grid read its edge."""
        return float(
            self.gains[kind][
                _nearest(self.ebno_grid, ebno_db),
                _nearest(self._text_fractions, text_fraction),
                _nearest(self.quality_levels, quality_level),
            ]
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "ebno_grid": list(self.ebno_grid),
                "ratio_bins": [list(b) for b in self.ratio_bins],
                "quality_levels": list(self.quality_levels),
                "gains": {k: v.tolist() for k, v in self.gains.items()},
            },
            indent=1,
        )

    @classmethod
    def from_json(cls, text: str) -> "GainTable":
        d = json.loads(text)
        return cls(
            ebno_grid=tuple(d["ebno_grid"]),
            ratio_bins=tuple(tuple(b) for b in d["ratio_bins"]),
            quality_levels=tuple(d["quality_levels"]),
            gains={k: np.asarray(v) for k, v in d["gains"].items()},
        )


# --------------------------------------------------------------------------
# transfer gain measurement (shared by the table builder and the CLI sweeps)


def pooled_performance(total_codewords, retransmissions, payload_bits_per_codeword) -> float:
    """Reciprocal transfer time of a pooled batch of pages under the default
    TCP parameters."""
    stats = approxtx.TransferStats(total_codewords, retransmissions, None)
    payload_bytes = total_codewords * payload_bits_per_codeword / 8.0
    return approxtx.performance(
        approxtx.transfer_time(stats, approxtx.ThroughputParams(), payload_bytes)
    )


def _paired_transfer(code, cfg, sent, mappings, noise_seed):
    """One transfer pass of ``sent`` under every mapping's protected set and,
    last, under full protection of the same slots.

    The mappings must share one stream layout (they differ only in their
    protected sets, as the mappings of one ratio or one GOP do), so that
    ``sent`` carries the same payload under each. Returns (retransmissions
    (M + 1,), received (M + 1, n, payload_len)).
    """
    masks = np.stack([m.protected for m in mappings] + [mappings[0].fully_protected().protected])
    _, retx, received = transfer.retransmit_until_clean(sent, masks, code, cfg, noise_seed)
    return retx, received


def _pooled_gains(total, retx, bits_per_cw):
    """Gain and loss fractions of each selective count in ``retx`` over the
    last one, the baseline's."""
    retx = [int(r) for r in retx]
    perf_b = pooled_performance(total, retx[-1], bits_per_cw)
    return [
        {
            "gain": approxtx.performance_gain(pooled_performance(total, r, bits_per_cw), perf_b),
            "loss_fraction": r / (total + r),
            "baseline_loss_fraction": retx[-1] / (total + retx[-1]),
        }
        for r in retx[:-1]
    ]


def measure_webpage_gains(
    code,
    profile,
    cfg: ChannelConfig,
    ratio,
    quality_levels,
    n_pages,
    page_codewords,
    master_seed,
):
    """Performance gain of selective protection at each quality level over
    the full-protection baseline, pooled over ``n_pages`` random pages.

    Page i draws its payload from substream (seed, i, 0) and every codeword
    is noise-keyed by its global index; one transfer pass serves every
    quality level and the baseline, so each sees the same pages under the
    same noise. The baseline's pooled retransmission count dominates every
    selective one, and no gain is negative. Returns one dict per level.
    """
    if not quality_levels:
        return []
    mappings = [approxtx.build_webpage_mapping(profile, ratio, q) for q in quality_levels]
    sent = np.concatenate([
        transfer.assemble_bits(
            approxtx.make_webpage(ratio, page_codewords, substream(master_seed, i, 0)),
            mappings[0],
        )
        for i in range(n_pages)
    ])
    retx, _ = _paired_transfer(code, cfg, sent, mappings, mix_seed(master_seed, 1))
    return _pooled_gains(sent.shape[0], retx, sum(ratio))


def measure_webpage_gain(code, profile, cfg: ChannelConfig, ratio, quality_level, n_pages,
                         page_codewords, master_seed):
    """`measure_webpage_gains` at one quality level."""
    return measure_webpage_gains(code, profile, cfg, ratio, (quality_level,), n_pages,
                                 page_codewords, master_seed)[0]


def measure_video_gains(
    code,
    profile,
    cfg: ChannelConfig,
    protected_pframes,
    frames,
    n_gops: int,
    master_seed: int,
):
    """GOP-transfer gain of each selective P-frame protection count over full
    protection, plus the mean received video quality (MS-SSIM over frames).

    GOP g is noise-keyed from (seed, g); one transfer pass per GOP serves
    every count and the baseline. The reference for quality is the GOP
    reconstructed from the transmitted difference representation, so full
    protection scores exactly 1.0. Returns one dict per count.
    """
    if not protected_pframes:
        return []
    payload = approxtx.GopPayload.from_frames(frames)
    mappings = [approxtx.build_video_mapping(profile, n_p, payload.n_pframes)
                for n_p in protected_pframes]
    reference = payload.reconstruct_frames()
    bits_per_cw = len(mappings[0].stream_positions["frame0"]) * (payload.n_pframes + 1)
    sent = transfer.assemble_bits(payload, mappings[0])

    retx = np.zeros(len(mappings) + 1, dtype=np.int64)
    scores = [[] for _ in mappings]
    for g in range(n_gops):
        gop_retx, received = _paired_transfer(code, cfg, sent, mappings, mix_seed(master_seed, g))
        retx += gop_retx
        for m, mapping in enumerate(mappings):
            frames_m = transfer.extract_payload(payload, mapping, received[m]).reconstruct_frames()
            scores[m].append(approxtx.gop_quality(reference, frames_m))
    results = _pooled_gains(n_gops * sent.shape[0], retx, bits_per_cw)
    for res, gop_scores in zip(results, scores):
        res["quality"] = float(np.mean(gop_scores))
    return results


def _default_code(kind: str):
    if kind == fec.POLAR:
        return fec.construct_polar_code(1024, 512, crc_len=fec.DEFAULT_CRC_LEN)
    return fec.generate_ldpc_code(1024, 512, seed=1)


def build_gain_table(
    ebno_grid=EBNO_GRID,
    ratio_bins=RATIO_BINS,
    quality_levels=QUALITY_LEVELS,
    master_seed: int = 20240,
    char_trials: int = 3000,
    n_pages: int = 150,
    page_codewords: int = 8,
    workers: int = 1,
) -> GainTable:
    """Run the characterization pipeline over the whole grid.

    The defaults are the settings `data/default_gain_table.json` was built
    with. Deterministic in ``master_seed`` and independent of ``workers``:
    every (kind, ebno) column derives its substreams from the master seed
    alone.
    """
    jobs = [(kind, i) for kind in (fec.LDPC, fec.POLAR) for i in range(len(ebno_grid))]
    args = [
        (kind, i, ebno_grid[i], ratio_bins, quality_levels, master_seed,
         char_trials, n_pages, page_codewords)
        for kind, i in jobs
    ]
    results = fan_out(_gain_column, args, workers)
    shape = (len(ebno_grid), len(ratio_bins), len(quality_levels))
    gains = {fec.LDPC: np.zeros(shape), fec.POLAR: np.zeros(shape)}
    for (kind, i), col in zip(jobs, results):
        gains[kind][i] = col
    return GainTable(tuple(ebno_grid), tuple(tuple(b) for b in ratio_bins),
                     tuple(quality_levels), gains)


def _gain_column(args):
    (kind, ebno_idx, ebno, ratio_bins, quality_levels, master_seed,
     char_trials, n_pages, page_codewords) = args
    code = _default_code(kind)
    kind_tag = 0 if kind == fec.LDPC else 1
    cfg = ChannelConfig(ebno, fec.code_rate(code),
                        rng_seed=mix_seed(master_seed, kind_tag, ebno_idx, 0))
    profile = uep.characterize(code, cfg, char_trials)
    col = np.zeros((len(ratio_bins), len(quality_levels)))
    for ri, ratio in enumerate(ratio_bins):
        # one seed and one transfer pass per ratio, shared by its quality levels
        seed = mix_seed(master_seed, kind_tag, ebno_idx, 1 + ri)
        res = measure_webpage_gains(
            code, profile, cfg, ratio, quality_levels, n_pages, page_codewords, master_seed=seed
        )
        col[ri] = [r["gain"] for r in res]
    return col


def mix_seed(*parts) -> int:
    """Stable composite seed from integer parts."""
    h = 0
    for p in parts:
        h = (h * 1_000_003 + int(p) + 1) % (2**63)
    return h


# --------------------------------------------------------------------------
# workload sampling and the event-driven FIFO base-station simulation


@dataclass
class SimConfig:
    num_ldpc: int = 4
    num_polar: int = 2
    injection_prob: float = 0.5
    ebno_db: float = 2.0
    horizon_ticks: int = 1500
    quality_level: int = 0
    master_seed: int = 0
    algorithm: str = "minqueue"

    def __post_init__(self):
        if self.num_ldpc + self.num_polar < 1:
            raise ValueError("need at least one encoder node")
        if not 0.0 <= self.injection_prob <= 1.0:
            raise ValueError("injection probability must be in [0, 1]")
        if self.horizon_ticks <= 0:
            raise ValueError("horizon must be positive")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")


def sample_workload(
    rng: np.random.Generator,
    job_id: int,
    arrival_time: float,
    table: GainTable,
    ebno_db: float,
    quality_level: int,
) -> sched.WorkloadJob:
    """Draw one workload: size ~ Gamma(2, 1.5) MB, text fraction ~ Beta(0.6, 1.8).

    Its gain on each encoder kind is the mean gain of its table cell (the
    WFTM weight w_ij and the SMAB Gain_Perf_ij mean), and its processing
    time there is size / (base rate * (1 + gain)).
    """
    size = float(rng.gamma(2.0, 1.5))
    size = max(size, 1e-6)
    frac = float(rng.beta(0.6, 1.8))
    gain_l = table.gain(fec.LDPC, ebno_db, frac, quality_level)
    gain_p = table.gain(fec.POLAR, ebno_db, frac, quality_level)
    return sched.WorkloadJob(
        job_id=job_id,
        size_mb=size,
        text_fraction=frac,
        quality_level=quality_level,
        arrival_time=arrival_time,
        proc_time_ldpc=size / (BASE_RATE_MB_PER_TICK * (1.0 + gain_l)),
        proc_time_polar=size / (BASE_RATE_MB_PER_TICK * (1.0 + gain_p)),
        gain_ldpc=gain_l,
        gain_polar=gain_p,
    )


def sample_arrivals(cfg: SimConfig, table: GainTable) -> list:
    """The arrival stream of ``cfg``: each tick before the horizon draws at
    most one Bernoulli(injection_prob) arrival from substream (master_seed, 0).

    Only the seed, injection probability, horizon, Eb/No and quality level
    shape it, so one stream serves every algorithm and node configuration.
    """
    lo, hi = min(table.ebno_grid), max(table.ebno_grid)
    if not lo <= cfg.ebno_db <= hi:
        raise ValueError(f"ebno_db {cfg.ebno_db} lies outside the gain table grid [{lo}, {hi}]")
    if cfg.quality_level not in table.quality_levels:
        raise ValueError(
            f"quality_level {cfg.quality_level} is not a gain table level {table.quality_levels}"
        )
    rng = substream(cfg.master_seed, 0)
    jobs = []
    for tick in range(cfg.horizon_ticks):
        if rng.random() < cfg.injection_prob:
            jobs.append(
                sample_workload(rng, len(jobs), float(tick), table, cfg.ebno_db, cfg.quality_level)
            )
    return jobs


def run_simulation(cfg: SimConfig, jobs):
    """Event-driven FIFO simulation of the arrival stream ``jobs`` (from
    `sample_arrivals`); returns (SchedMetrics, trace).

    The configured algorithm assigns each job at its arrival. A node serves
    its jobs FIFO without preemption, so a job starts at the later of its
    arrival and the node's previous finish, and every assigned job runs to
    completion. Before each assignment a node reports its backlog and its
    count of jobs finishing after the arrival. The algorithm draws from
    substream (master_seed, 1), apart from the arrivals' (master_seed, 0).
    The trace is in arrival order.
    """
    nodes = [sched.EncoderNode(i, sched.LDPC) for i in range(cfg.num_ldpc)] + [
        sched.EncoderNode(cfg.num_ldpc + j, sched.POLAR) for j in range(cfg.num_polar)
    ]
    # per node, the finish times of its unfinished jobs in FIFO order; the
    # last one is when the node next falls idle
    unfinished = [deque() for _ in nodes]
    algo_rng = substream(cfg.master_seed, 1)
    state = sched.SmabState(len(nodes))

    trace = []
    for job in jobs:
        t = job.arrival_time
        for node, finishes in zip(nodes, unfinished):
            while finishes and finishes[0] <= t:
                finishes.popleft()
            node.occupancy = len(finishes)
            node.remaining_work = finishes[-1] - t if finishes else 0.0
        nid = _assign(cfg.algorithm, job, nodes, state, algo_rng)
        node, finishes = nodes[nid], unfinished[nid]
        proc = job.proc_time_on(node.kind)
        start = finishes[-1] if finishes else t
        finishes.append(start + proc)
        trace.append(
            sched.CompletedJob(
                job_id=job.job_id,
                arrival=t,
                node_id=nid,
                kind=node.kind,
                start=start,
                finish=finishes[-1],
                size_mb=job.size_mb,
                proc_time=proc,
            )
        )
    return sched.compute_metrics(trace), trace


def _assign(algorithm, job, nodes, state, rng) -> int:
    if algorithm == "wftm":
        # a zero measured gain zeroes the weighted objective; the tiny floor
        # lets such ties resolve toward the emptier node instead of node 0
        weights = [max(job.gain_on(n.kind), 1e-9) for n in nodes]
        return sched.wftm_assign(job, nodes, weights)
    if algorithm == "random":
        return sched.random_assign(job, nodes, rng)
    if algorithm == "minqueue":
        return sched.minqueue_assign(job, nodes)
    nid = sched.smab_assign(job, state, nodes)
    reward = sched.smab_reward(job.gain_on(nodes[nid].kind), nodes[nid].occupancy, state, rng)
    sched.smab_update(state, nid, reward)
    return nid


# --------------------------------------------------------------------------
# scenario study


def run_scenario_comparison(
    base_cfg: SimConfig,
    table: GainTable,
    *,
    ebno_grid,
    injection_grid,
    seeds,
    scenarios: dict = None,
):
    """Performance of each encoder scenario across the grid, with the gain
    over `REFERENCE_SCENARIO` paired per seed: every scenario of a cell
    serves the same arrival stream, drawn once.

    Returns a list of row dicts (scenario, ebno_db, injection_prob, seed,
    perf, gain_pct_vs_4L). Performance is the reciprocal of the time to
    finish every workload (the makespan of the trace).
    """
    scenarios = dict(SCENARIOS if scenarios is None else scenarios)
    if REFERENCE_SCENARIO not in scenarios:
        raise ValueError(f"reference scenario {REFERENCE_SCENARIO!r} not among scenarios")

    perfs = {}
    for ebno, inj, seed in product(ebno_grid, injection_grid, seeds):
        cfg = replace(base_cfg, ebno_db=ebno, injection_prob=inj, master_seed=seed)
        jobs = sample_arrivals(cfg, table)  # one stream for every scenario
        for name, (m, n) in scenarios.items():
            metrics = run_simulation(replace(cfg, num_ldpc=m, num_polar=n), jobs)[0]
            perf = 1.0 / metrics.makespan if metrics.makespan > 0 else math.nan
            perfs[(name, ebno, inj, seed)] = perf
        del jobs  # one stream alive at a time

    rows = []
    for name, ebno, inj, seed in product(scenarios, ebno_grid, injection_grid, seeds):
        perf = perfs[(name, ebno, inj, seed)]
        ref = perfs[(REFERENCE_SCENARIO, ebno, inj, seed)]
        rows.append(
            {
                "scenario": name,
                "ebno_db": ebno,
                "injection_prob": inj,
                "seed": seed,
                "perf": perf,
                "gain_pct_vs_4L": 100.0 * (perf - ref) / ref,
            }
        )
    return rows


def gain_surface(rows, scenario: str):
    """Seed-averaged gain per (ebno_db, injection_prob) cell for one scenario."""
    cells = {}
    for r in rows:
        if r["scenario"] != scenario:
            continue
        cells.setdefault((r["ebno_db"], r["injection_prob"]), []).append(r["gain_pct_vs_4L"])
    return {cell: float(np.mean(v)) for cell, v in sorted(cells.items())}
