"""Workload distributions, gain table, simulation engine, and scenario study."""

import functools
import hashlib
import importlib.util
import inspect
import json

import numpy as np
import pytest
from dataclasses import replace

from uepsim import cli, fec, montecarlo as mc, sched
from uepsim.rng import substream

from conftest import DEFAULT_TABLE_PATH, REPO


# -- workload sampling -------------------------------------------------------


def test_workload_size_mean_matches_gamma(gain_table):
    rng = substream(1, 0)
    sizes = np.array(
        [mc.sample_workload(rng, i, 0.0, gain_table, 2.0, 0).size_mb for i in range(50_000)]
    )
    # Gamma(2, 1.5): mean 3, var 4.5; check within 3 sigma of the sample mean
    tol = 3 * np.sqrt(4.5 / len(sizes))
    assert abs(sizes.mean() - 3.0) <= tol
    assert (sizes > 0).all()


def test_workload_ratio_mean_matches_beta(gain_table):
    rng = substream(2, 0)
    fracs = np.array(
        [mc.sample_workload(rng, i, 0.0, gain_table, 2.0, 0).text_fraction for i in range(50_000)]
    )
    var = 0.6 * 1.8 / (2.4**2 * 3.4)
    tol = 3 * np.sqrt(var / len(fracs))
    assert abs(fracs.mean() - 0.25) <= tol
    assert ((fracs > 0) & (fracs < 1)).all()


def test_processing_time_scales_linearly_with_size(gain_table):
    rng = substream(3, 0)
    j = mc.sample_workload(rng, 0, 0.0, gain_table, 1.5, 1)
    for kind, proc_time in ((fec.LDPC, j.proc_time_ldpc), (fec.POLAR, j.proc_time_polar)):
        gain = j.gain_on(kind)
        assert gain == gain_table.gain(kind, 1.5, j.text_fraction, j.quality_level)
        assert j.size_mb / proc_time == pytest.approx(mc.BASE_RATE_MB_PER_TICK * (1.0 + gain))


# -- gain table --------------------------------------------------------------


def test_table_json_round_trip(gain_table):
    back = mc.GainTable.from_json(gain_table.to_json())
    for kind in gain_table.gains:
        assert np.allclose(back.gains[kind], gain_table.gains[kind])
    assert back.ebno_grid == gain_table.ebno_grid
    assert back != gain_table  # identity, not a field-wise compare of the arrays


def test_table_covers_full_grid(gain_table):
    assert gain_table.ebno_grid == mc.EBNO_GRID
    assert gain_table.ratio_bins == mc.RATIO_BINS
    for kind in (fec.LDPC, fec.POLAR):
        assert np.isfinite(gain_table.gains[kind]).all()
        assert (gain_table.gains[kind] >= 0.0).all()  # paired baselines dominate


def test_table_nearest_cell_lookup(gain_table):
    g = gain_table.gains[fec.LDPC]
    assert gain_table.gain(fec.LDPC, 1.52, 0.04, 1) == g[5, 0, 1]
    assert gain_table.gain(fec.LDPC, 0.0, 0.9, 0) == g[0, 7, 0]


def test_nearest_takes_first_index_on_tie():
    assert mc._nearest((1, 3, 5), 2) == 0
    assert mc._nearest((1, 3, 5), 4.5) == 2


def test_ldpc_gain_dominates_polar_at_1db(gain_table):
    # low-SNR regime: the LDPC baseline loses far more retransmissions, so
    # selective protection buys it much more than it buys the polar path
    for qi in range(len(gain_table.quality_levels)):
        ldpc = gain_table.gains[fec.LDPC][0, :, qi]
        polar = gain_table.gains[fec.POLAR][0, :, qi]
        assert ldpc.mean() > polar.mean()


def test_small_gain_table_build_runs_end_to_end():
    table = mc.build_gain_table(
        ebno_grid=(1.5,),
        ratio_bins=((100, 400),),
        quality_levels=(0,),
        master_seed=99,
        char_trials=200,
        n_pages=10,
        page_codewords=4,
    )
    for kind in (fec.LDPC, fec.POLAR):
        assert table.gains[kind].shape == (1, 1, 1)
        assert table.gains[kind][0, 0, 0] >= 0.0


PINNED_TABLE_ARGS = dict(
    ebno_grid=(1.0, 1.5),
    ratio_bins=((20, 480), (300, 200)),
    quality_levels=(0, 1),
    master_seed=5,
    char_trials=64,
    n_pages=5,
    page_codewords=4,
)
# SHA-256 of the table JSON from the earlier transfer path, which ran the
# baseline and each quality level as separate retransmission loops
PINNED_TABLE_DIGEST = "190c54df361e04993871f97088231ce3d401bf34f389529ced57ffd40a018080"


def test_gain_table_digest_pinned():
    table = mc.build_gain_table(**PINNED_TABLE_ARGS)
    assert hashlib.sha256(table.to_json().encode()).hexdigest() == PINNED_TABLE_DIGEST


def test_gain_table_digest_pinned_over_two_workers():
    table = mc.build_gain_table(**PINNED_TABLE_ARGS, workers=2)
    assert hashlib.sha256(table.to_json().encode()).hexdigest() == PINNED_TABLE_DIGEST


def test_build_script_forwards_only_given_flags(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location(
        "build_default_gain_table", REPO / "scripts" / "build_default_gain_table.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    real = mc.build_gain_table
    calls = []

    @functools.wraps(real)
    def recording(**kwargs):
        bound = inspect.signature(real).bind(**kwargs)
        bound.apply_defaults()
        calls.append(dict(bound.arguments))
        return mc.GainTable((1.0,), ((20, 480),), (0, 1), {fec.LDPC: np.zeros((1, 1, 2))})

    monkeypatch.setattr(mc, "build_gain_table", recording)
    out = str(tmp_path / "table.json")
    assert script.main(["--out", out]) == 0
    assert script.main(["--out", out, "--pages", "3", "--parallel", "2"]) == 0
    shipped = dict(master_seed=20240, char_trials=3000, n_pages=150, page_codewords=8, workers=1)
    assert {k: calls[0][k] for k in shipped} == shipped
    assert {k: calls[1][k] for k in shipped} == {**shipped, "n_pages": 3, "workers": 2}


# -- simulation engine -------------------------------------------------------


def simulate(cfg, table):
    """Serve the arrival stream of ``cfg`` under ``cfg``."""
    return mc.run_simulation(cfg, mc.sample_arrivals(cfg, table))


def test_zero_injection_produces_no_jobs(gain_table):
    cfg = mc.SimConfig(injection_prob=0.0, horizon_ticks=100, master_seed=1)
    metrics, trace = simulate(cfg, gain_table)
    assert metrics.n_jobs == 0 and not trace


def test_simulation_deterministic(gain_table):
    cfg = mc.SimConfig(injection_prob=0.6, horizon_ticks=300, master_seed=4)
    a, ta = simulate(cfg, gain_table)
    b, tb = simulate(cfg, gain_table)
    assert a == b
    assert [(j.job_id, j.node_id, j.finish) for j in ta] == [
        (j.job_id, j.node_id, j.finish) for j in tb
    ]


def test_every_arrival_completes_exactly_once(gain_table):
    for algo in mc.ALGORITHMS:
        cfg = mc.SimConfig(
            injection_prob=0.8, horizon_ticks=300, master_seed=5, algorithm=algo
        )
        metrics, trace = simulate(cfg, gain_table)
        ids = [j.job_id for j in trace]
        assert len(ids) == len(set(ids)) == metrics.n_jobs
        assert sorted(ids) == list(range(len(ids)))


def test_fifo_start_times_non_decreasing_per_node(gain_table):
    cfg = mc.SimConfig(injection_prob=0.9, horizon_ticks=300, master_seed=6)
    _, trace = simulate(cfg, gain_table)
    by_node = {}
    for j in sorted(trace, key=lambda j: j.arrival):
        by_node.setdefault(j.node_id, []).append(j.start)
    for starts in by_node.values():
        assert all(a <= b for a, b in zip(starts, starts[1:]))


def test_low_injection_keeps_waits_near_zero(gain_table):
    cfg = mc.SimConfig(injection_prob=0.02, horizon_ticks=2000, master_seed=7)
    metrics, _ = simulate(cfg, gain_table)
    assert metrics.n_jobs > 10
    assert metrics.avg_wait < 1.0


def test_arrivals_pair_across_node_configurations(gain_table):
    base = mc.SimConfig(injection_prob=0.5, horizon_ticks=200, master_seed=8)
    jobs = mc.sample_arrivals(base, gain_table)
    assert jobs
    for algo in mc.ALGORITHMS:
        for m, n in [(4, 2), *mc.SCENARIOS.values()]:
            cfg = replace(base, num_ldpc=m, num_polar=n, algorithm=algo)
            assert mc.sample_arrivals(cfg, gain_table) == jobs


def test_adding_a_node_does_not_increase_makespan_minqueue(gain_table):
    for seed in range(5):
        base = mc.SimConfig(
            injection_prob=0.8, horizon_ticks=400, master_seed=seed, algorithm="minqueue"
        )
        m_small, _ = simulate(base, gain_table)
        m_big, _ = simulate(replace(base, num_polar=3), gain_table)
        assert m_big.makespan <= m_small.makespan + 1e-9


def test_smab_pulls_match_assignments(gain_table):
    cfg = mc.SimConfig(
        injection_prob=0.7, horizon_ticks=300, master_seed=9, algorithm="smab"
    )
    metrics, trace = simulate(cfg, gain_table)
    assert metrics.n_jobs == len(trace)


def scripted_run(monkeypatch, gain_table, proc_times):
    """One encoder node, an arrival every tick, job j taking proc_times[j]
    ticks. Returns the trace and the (occupancy, remaining_work) of the node
    as each arrival saw it."""

    def scripted_job(rng, job_id, arrival_time, *args):
        p = proc_times[job_id]
        return sched.WorkloadJob(job_id, 1.0, 0.2, 0, arrival_time, p, p, 0.0, 0.0)

    assign = sched.minqueue_assign
    seen = []

    def observed_assign(job, nodes):
        seen.append((nodes[0].occupancy, nodes[0].remaining_work))
        return assign(job, nodes)

    monkeypatch.setattr(mc, "sample_workload", scripted_job)
    monkeypatch.setattr(sched, "minqueue_assign", observed_assign)
    cfg = mc.SimConfig(num_ldpc=1, num_polar=0, injection_prob=1.0,
                       horizon_ticks=len(proc_times), algorithm="minqueue")
    _, trace = simulate(cfg, gain_table)
    return trace, seen


def test_fifo_hand_oracle_one_node(monkeypatch, gain_table):
    # start = max(arrival, previous finish): job 1 finds the node idle,
    # job 2 waits behind it
    trace, seen = scripted_run(monkeypatch, gain_table, (0.5, 3.0, 1.0))
    assert [(j.arrival, j.start, j.finish) for j in trace] == [
        (0.0, 0.0, 0.5), (1.0, 1.0, 4.0), (2.0, 4.0, 5.0)
    ]
    assert seen == [(0, 0.0), (0, 0.0), (1, 2.0)]


def test_job_finishing_at_an_arrival_is_not_counted(monkeypatch, gain_table):
    trace, seen = scripted_run(monkeypatch, gain_table, (1.0, 2.0))
    assert seen[1] == (0, 0.0)
    assert trace[1].start == 1.0


def test_occupancy_counts_in_service_job(monkeypatch, gain_table):
    # at tick 1 job 0 is in service; at tick 2 it still is, with job 1 queued
    _, seen = scripted_run(monkeypatch, gain_table, (2.5, 1.0, 1.0))
    assert seen == [(0, 0.0), (1, 1.5), (2, 1.5)]


# SHA-256 of metrics.csv from the tick-stepped engine that the event-driven
# one replaced: the two agree byte for byte on these outputs; and of
# scenario_gains.csv from the scenario study that drew a fresh arrival stream
# for every scenario instead of sharing one
SMALL_STUDY = {
    "algorithms": list(mc.ALGORITHMS),
    "injection_probs": [0.3, 0.9],
    "num_polar": 2,
    "ebno_db": 2.0,
    "quality_level": 0,
    "horizon_ticks": 400,
    "seeds": [0, 1],
    "gain_table": str(DEFAULT_TABLE_PATH),
}
SMALL_SCENARIO_STUDY = {
    "ebno_grid": [1.2, 2.0],
    "injection_probs": [0.3, 0.9],
    "horizon_ticks": 400,
    "seeds": [0, 1],
    "gain_table": str(DEFAULT_TABLE_PATH),
}


@pytest.mark.parametrize(
    "command,config,artifact,digest",
    [  # the schedule cases keep their num_ldpc-digest ids
        pytest.param("schedule", {**SMALL_STUDY, "num_ldpc": n}, "metrics.csv", digest,
                     id=f"{n}-{digest}")
        for n, digest in (
            (4, "09ba40642f956e08001c9225fbc5087b34b7134391fd09731a6a915c372f48a8"),
            (2, "8ba4d81bdc2d5956493fb4bd70239c4a96749b4b7ef2c34fee56407d209f8cc4"),
        )
    ] + [
        pytest.param("fullsystem", SMALL_SCENARIO_STUDY, "scenario_gains.csv",
                     "d6703071b9a497c164ca1a3c045cbaacfbe4148fa48dba7fb449eb19c8591fd1",
                     id="fullsystem"),
    ],
)
def test_schedule_metrics_digest_pinned(tmp_path, command, config, artifact, digest):
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest() == digest


def test_config_validation():
    with pytest.raises(ValueError):
        mc.SimConfig(num_ldpc=0, num_polar=0)
    with pytest.raises(ValueError):
        mc.SimConfig(injection_prob=1.5)
    with pytest.raises(ValueError):
        mc.SimConfig(algorithm="roundrobin")


# -- scenario comparison ------------------------------------------------------


def test_scenario_self_gain_is_zero(gain_table):
    cfg = mc.SimConfig(horizon_ticks=150, algorithm="minqueue")
    rows = mc.run_scenario_comparison(
        cfg, gain_table, scenarios={"4L": (4, 0)}, ebno_grid=(1.5,),
        injection_grid=(0.5,), seeds=(0, 1),
    )
    assert all(r["gain_pct_vs_4L"] == 0.0 for r in rows)


def test_scenario_rows_cover_grid(gain_table):
    cfg = mc.SimConfig(horizon_ticks=150, algorithm="minqueue")
    rows = mc.run_scenario_comparison(
        cfg, gain_table, ebno_grid=(1.2, 1.8), injection_grid=(0.4, 0.8), seeds=(0,),
    )
    assert len(rows) == 3 * 2 * 2 * 1
    surface = mc.gain_surface(rows, "3L2P")
    assert set(surface) == {(1.2, 0.4), (1.2, 0.8), (1.8, 0.4), (1.8, 0.8)}
