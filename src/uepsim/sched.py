"""Base-station encoder model and the four online resource-allocation rules.

A workload (web page) arrives, is assigned immediately to one LDPC or polar
encoder node, and is processed FIFO and non-preemptively. The four
assignment rules are:

  * weighted flow-time minimization (WFTM): greedy argmin over nodes of the
    increase in weighted flow time, delta_i = w_ij * (backlog_i + p_ij),
    where p_ij is the job's processing time on that node kind and w_ij its
    mean performance gain there,
  * stochastic multi-armed bandit (SMAB): UCB over the nodes with reward
    sampled_gain / (queue occupancy + 1) and a constant learning rate,
  * random: uniform over all nodes,
  * min-queue: pick the kind with the smaller processing time for the job,
    then the node of that kind with the least queue occupancy.

All ties break toward the lowest node id so runs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

LDPC = "LDPC"
POLAR = "POLAR"

DEFAULT_UCB_ALPHA = 0.1
DEFAULT_UCB_C = 15.0
DEFAULT_GAIN_SIGMA_FRAC = 0.1


@dataclass
class WorkloadJob:
    job_id: int
    size_mb: float  # s_j
    text_fraction: float  # r_j in [0, 1]
    quality_level: int  # q_j
    arrival_time: float
    proc_time_ldpc: float  # tl_j
    proc_time_polar: float  # tp_j
    gain_ldpc: float  # mean gain of the job's table cell on LDPC: w_ij, Gain_Perf_ij
    gain_polar: float  # the same on polar

    def __post_init__(self):
        if self.size_mb <= 0:
            raise ValueError("workload size must be positive")
        if not 0.0 <= self.text_fraction <= 1.0:
            raise ValueError("text fraction must lie in [0, 1]")
        if self.proc_time_ldpc <= 0 or self.proc_time_polar <= 0:
            raise ValueError("processing times must be positive")

    def proc_time_on(self, kind: str) -> float:
        return self.proc_time_ldpc if kind == LDPC else self.proc_time_polar

    def gain_on(self, kind: str) -> float:
        return self.gain_ldpc if kind == LDPC else self.gain_polar


@dataclass
class EncoderNode:
    """One encoder as the assignment rules see it at an arrival."""

    node_id: int
    kind: str  # LDPC or POLAR
    remaining_work: float = 0.0  # ticks until its last assigned job finishes
    occupancy: int = 0  # jobs waiting plus the one in service


@dataclass(eq=False)
class SmabState:
    n_arms: int
    alpha: float = DEFAULT_UCB_ALPHA
    c: float = DEFAULT_UCB_C
    gain_sigma_frac: float = DEFAULT_GAIN_SIGMA_FRAC
    q_values: np.ndarray = field(init=False)
    pull_counts: np.ndarray = field(init=False)
    total_pulls: int = field(init=False, default=0)

    def __post_init__(self):
        self.q_values = np.zeros(self.n_arms, dtype=np.float64)
        self.pull_counts = np.zeros(self.n_arms, dtype=np.int64)


# --------------------------------------------------------------------------
# assignment rules


def wftm_assign(job: WorkloadJob, nodes, weights) -> int:
    """Greedy weighted flow-time minimization; ``weights[i]`` is w_ij for
    nodes[i]."""
    if not nodes:
        raise ValueError("no encoder nodes")
    best, best_delta = None, None
    for node, w in zip(nodes, weights):
        delta = w * (node.remaining_work + job.proc_time_on(node.kind))
        if best_delta is None or delta < best_delta or (
            delta == best_delta and node.node_id < best.node_id
        ):
            best, best_delta = node, delta
    return best.node_id


def smab_assign(job: WorkloadJob, state: SmabState, nodes) -> int:
    """UCB arm selection; arms with no pulls are taken first (lowest id)."""
    unpulled = [n for n, cnt in zip(nodes, state.pull_counts) if cnt == 0]
    if unpulled:
        return min(unpulled, key=lambda n: n.node_id).node_id
    t = state.total_pulls
    bonus = state.c * np.sqrt(math.log(t) / state.pull_counts)
    scores = state.q_values + bonus
    order = np.argmax(scores)  # argmax takes the first (lowest id) on ties
    return nodes[int(order)].node_id


def smab_reward(mean_gain: float, occupancy: int, state: SmabState, rng) -> float:
    """Sampled gain over (occupancy + 1); negative samples clamp to zero."""
    sampled = rng.normal(mean_gain, state.gain_sigma_frac * abs(mean_gain))
    return max(sampled, 0.0) / (occupancy + 1)


def smab_update(state: SmabState, arm_index: int, reward: float) -> None:
    state.pull_counts[arm_index] += 1
    state.total_pulls += 1
    state.q_values[arm_index] += state.alpha * (reward - state.q_values[arm_index])


def random_assign(job: WorkloadJob, nodes, rng) -> int:
    if not nodes:
        raise ValueError("no encoder nodes")
    return nodes[int(rng.integers(0, len(nodes)))].node_id


def minqueue_assign(job: WorkloadJob, nodes) -> int:
    """Prefer the faster kind for this job, then least occupancy within it.

    tl_j < tp_j selects the LDPC side, otherwise the polar side; if the
    preferred kind has no nodes (the all-LDPC scenario), fall back to the
    other kind.
    """
    if not nodes:
        raise ValueError("no encoder nodes")
    preferred = LDPC if job.proc_time_ldpc < job.proc_time_polar else POLAR
    pool = [n for n in nodes if n.kind == preferred]
    if not pool:
        pool = list(nodes)
    best = min(pool, key=lambda n: (n.occupancy, n.node_id))
    return best.node_id


# --------------------------------------------------------------------------
# metrics


@dataclass
class CompletedJob:
    job_id: int
    arrival: float
    node_id: int
    kind: str
    start: float
    finish: float
    size_mb: float
    proc_time: float


@dataclass
class SchedMetrics:
    avg_throughput: float  # MB per tick, mean over jobs of s_j / proc_j
    avg_wait: float
    avg_flow: float
    makespan: float
    n_jobs: int


def compute_metrics(trace) -> SchedMetrics:
    """Aggregate a completed-job trace.

    wait = start - arrival, flow = finish - arrival, makespan = last finish
    minus first arrival. Throughput is the per-job mean of s_j over its
    processing time (the aggregate form sum(s) / sum(t) is the documented
    alternative normalization).
    """
    if not trace:
        return SchedMetrics(0.0, 0.0, 0.0, 0.0, 0)
    waits = [j.start - j.arrival for j in trace]
    flows = [j.finish - j.arrival for j in trace]
    thr = [j.size_mb / j.proc_time for j in trace]
    makespan = max(j.finish for j in trace) - min(j.arrival for j in trace)
    return SchedMetrics(
        avg_throughput=float(np.mean(thr)),
        avg_wait=float(np.mean(waits)),
        avg_flow=float(np.mean(flows)),
        makespan=float(makespan),
        n_jobs=len(trace),
    )
