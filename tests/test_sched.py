"""Assignment rules and scheduling metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uepsim import sched
from uepsim.rng import substream


def job(tl=3.0, tp=5.0, jid=0, size=1.0, arrival=0.0):
    return sched.WorkloadJob(
        job_id=jid,
        size_mb=size,
        text_fraction=0.2,
        quality_level=1,
        arrival_time=arrival,
        proc_time_ldpc=tl,
        proc_time_polar=tp,
        gain_ldpc=0.5,
        gain_polar=0.2,
    )


def nodes_of(kinds):
    return [sched.EncoderNode(i, k) for i, k in enumerate(kinds)]


# -- WFTM -------------------------------------------------------------------


def test_wftm_prefers_faster_kind_on_empty_queues():
    nodes = nodes_of([sched.LDPC, sched.LDPC, sched.POLAR])
    nid = sched.wftm_assign(job(tl=3, tp=5), nodes, [1.0, 1.0, 1.0])
    assert nodes[nid].kind == sched.LDPC
    assert nid == 0  # tie between the two LDPC nodes breaks to the lowest id


def test_wftm_hand_oracle_two_nodes():
    # remaining (10, 0), p = (3, 5), equal weights: deltas are 13 vs 5
    nodes = nodes_of([sched.LDPC, sched.POLAR])
    nodes[0].remaining_work = 10.0
    assert sched.wftm_assign(job(tl=3, tp=5), nodes, [1.0, 1.0]) == 1


def test_wftm_weight_scaling_invariance():
    rng = substream(1, 0)
    for _ in range(25):
        kinds = [sched.LDPC if rng.random() < 0.5 else sched.POLAR for _ in range(5)]
        nodes = nodes_of(kinds)
        for n in nodes:
            n.remaining_work = float(rng.integers(0, 30))
        w = list(1.0 + rng.random(5))
        j = job(tl=float(1 + rng.integers(1, 9)), tp=float(1 + rng.integers(1, 9)))
        base = sched.wftm_assign(j, nodes, w)
        scaled = sched.wftm_assign(j, nodes, [3.7 * x for x in w])
        assert base == scaled


def test_wftm_rejects_empty_nodes():
    with pytest.raises(ValueError):
        sched.wftm_assign(job(), [], [])


def test_wftm_single_kind_reduces_to_least_backlog():
    # identical weights and one node kind: the delta ordering collapses to
    # remaining work (p is the same on every node)
    nodes = nodes_of([sched.LDPC] * 4)
    for n, r in zip(nodes, (7.0, 2.0, 9.0, 2.5)):
        n.remaining_work = r
    assert sched.wftm_assign(job(tl=3, tp=3), nodes, [1.0] * 4) == 1


# -- SMAB -------------------------------------------------------------------


def test_smab_reward_substitution():
    state = sched.SmabState(3, gain_sigma_frac=0.0)
    assert sched.smab_reward(0.3, 2, state, substream(0, 0)) == pytest.approx(0.1)
    # occupancy zero: the +1 keeps the denominator at one
    assert sched.smab_reward(0.3, 0, state, substream(0, 0)) == pytest.approx(0.3)


def test_smab_cold_start_touches_every_arm_once():
    nodes = nodes_of([sched.LDPC] * 4 + [sched.POLAR] * 2)
    state = sched.SmabState(6)
    rng = substream(2, 0)
    picked = []
    for _ in range(6):
        nid = sched.smab_assign(job(), state, nodes)
        picked.append(nid)
        sched.smab_update(state, nid, sched.smab_reward(0.5, 0, state, rng))
    assert sorted(picked) == list(range(6))


def test_smab_counts_and_q_values_stay_consistent():
    nodes = nodes_of([sched.LDPC, sched.POLAR])
    state = sched.SmabState(2, alpha=0.1)
    rng = substream(3, 0)
    for k in range(200):
        nid = sched.smab_assign(job(), state, nodes)
        sched.smab_update(state, nid, sched.smab_reward(0.4, k % 3, state, rng))
    assert state.pull_counts.sum() == state.total_pulls == 200
    assert np.isfinite(state.q_values).all()


def test_smab_negative_samples_clamp_to_zero():
    state = sched.SmabState(2, gain_sigma_frac=5.0)
    rewards = [sched.smab_reward(0.1, 0, state, substream(4, i)) for i in range(50)]
    assert min(rewards) == 0.0  # wide sigma produces negative draws, clamped


# -- random -----------------------------------------------------------------


def test_random_single_node():
    nodes = nodes_of([sched.POLAR])
    assert sched.random_assign(job(), nodes, substream(5, 0)) == 0


def test_random_is_seed_reproducible():
    nodes = nodes_of([sched.LDPC] * 3 + [sched.POLAR] * 3)
    one = substream(6, 0)
    c = [sched.random_assign(job(), nodes, one) for _ in range(10)]
    two = substream(6, 0)
    d = [sched.random_assign(job(), nodes, two) for _ in range(10)]
    assert c == d


def test_random_uniformity_chi_square():
    nodes = nodes_of([sched.LDPC] * 4 + [sched.POLAR] * 2)
    rng = substream(7, 0)
    counts = np.zeros(6)
    n = 10_000
    for _ in range(n):
        counts[sched.random_assign(job(), nodes, rng)] += 1
    expected = n / 6
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 15.086  # chi-square critical value, df = 5, alpha = 0.01


# -- min-queue ---------------------------------------------------------------


def test_minqueue_picks_least_occupied_of_preferred_kind():
    nodes = nodes_of([sched.LDPC] * 4 + [sched.POLAR] * 2)
    for node, occ in zip(nodes[:4], (2, 0, 1, 4)):
        node.occupancy = occ
    assert sched.minqueue_assign(job(tl=3, tp=5), nodes) == 1


def test_minqueue_tie_goes_to_polar():
    nodes = nodes_of([sched.LDPC, sched.POLAR])
    assert sched.minqueue_assign(job(tl=4, tp=4), nodes) == 1


def test_minqueue_falls_back_when_kind_missing():
    nodes = nodes_of([sched.LDPC] * 4)
    assert sched.minqueue_assign(job(tl=5, tp=3), nodes) == 0


# -- metrics ----------------------------------------------------------------


def completed(jid, arrival, start, finish, size=1.0, node=0):
    return sched.CompletedJob(
        job_id=jid, arrival=arrival, node_id=node, kind=sched.LDPC,
        start=start, finish=finish, size_mb=size, proc_time=finish - start,
    )


def test_metrics_single_job():
    m = sched.compute_metrics([completed(0, 0.0, 0.0, 4.0)])
    assert m.avg_wait == 0.0
    assert m.avg_flow == 4.0
    assert m.makespan == 4.0


def test_metrics_fifo_second_job_waits():
    trace = [completed(0, 0.0, 0.0, 3.0), completed(1, 0.0, 3.0, 6.0)]
    m = sched.compute_metrics(trace)
    assert m.avg_wait == pytest.approx(1.5)
    assert m.avg_flow == pytest.approx(4.5)


def test_metrics_hand_computed_five_job_trace():
    trace = [
        completed(0, 0.0, 0.0, 2.0, size=2.0),
        completed(1, 1.0, 2.0, 5.0, size=3.0),
        completed(2, 2.0, 5.0, 6.0, size=1.0),
        completed(3, 4.0, 6.0, 10.0, size=4.0, node=1),
        completed(4, 5.0, 10.0, 11.0, size=1.0, node=1),
    ]
    m = sched.compute_metrics(trace)
    assert m.avg_wait == pytest.approx((0 + 1 + 3 + 2 + 5) / 5)
    assert m.avg_flow == pytest.approx((2 + 4 + 4 + 6 + 6) / 5)
    assert m.makespan == pytest.approx(11.0)
    assert m.avg_throughput == pytest.approx(np.mean([2 / 2, 3 / 3, 1 / 1, 4 / 4, 1 / 1]))
    assert m.n_jobs == 5


def test_metrics_empty_trace():
    m = sched.compute_metrics([])
    assert m.n_jobs == 0 and m.makespan == 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 50), st.floats(0, 20), st.floats(0.1, 20)),
                min_size=1, max_size=40))
def test_metrics_invariants(raw):
    trace = []
    for i, (arrival, wait, proc) in enumerate(raw):
        start = arrival + wait
        trace.append(completed(i, arrival, start, start + proc))
    m = sched.compute_metrics(trace)
    assert m.avg_flow >= m.avg_wait
    assert m.makespan >= max(j.finish - j.arrival for j in trace) - 1e-9


def test_job_validation():
    with pytest.raises(ValueError):
        job(tl=0.0)
    with pytest.raises(ValueError):
        sched.WorkloadJob(0, -1.0, 0.2, 1, 0.0, 1.0, 1.0, 0.0, 0.0)


def test_smab_state_equality_is_identity():
    # a field-wise == would compare the ndarray fields and raise
    a, b = sched.SmabState(3), sched.SmabState(3)
    assert a == a
    assert a != b
