"""Acceptance suite: one test per criterion, run at the stated tolerances.

Each test prints a single summary line (visible with -s or on failure) so a
full run doubles as the acceptance report.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from uepsim import approxtx, cli, fec, montecarlo as mc, uep
from uepsim.approxtx import ThroughputParams, throughput
from uepsim.channel import ChannelConfig
from uepsim.rng import substream

from conftest import DEFAULT_TABLE_PATH, TOY_H

# Operating point for the scheduler criteria (6-8). The algorithm-comparison
# dynamics need the regime where the measured gain table makes both encoder
# kinds competitive; see the schedule defaults and the repo README.
SCHED_EBNO_DB = 2.0
SCHED_QUALITY = 0


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


# -- 1. LDPC UEP shape --------------------------------------------------------


def test_criterion_1_ldpc_uep_shape(ldpc_profile_10k):
    counts = ldpc_profile_10k.error_counts
    assert ldpc_profile_10k.trials >= 10_000
    head = counts[:50].mean()
    tail = counts[50:].mean()
    report(
        "1 LDPC head/tail",
        head <= 0.5 * tail,
        f"mean head {head:.3f} vs tail {tail:.3f}, ratio {head / tail:.3f} <= 0.5",
    )


# -- 2. polar UEP shape -------------------------------------------------------


def test_criterion_2_polar_uep_rank_correlation(polar_profile_10k):
    counts = polar_profile_10k.error_counts
    assert polar_profile_10k.trials >= 10_000
    rho = float(sps.spearmanr(np.arange(len(counts)), counts).statistic)
    report("2 polar Spearman", rho >= 0.5, f"rank correlation {rho:.3f} >= +0.5")


# -- 3. throughput model ------------------------------------------------------


def test_criterion_3_throughput_model():
    import math

    params = ThroughputParams(w_max=64, rtt=2.76e-3, rto=11.04e-3, b_ack=2, packet_size=1500)
    worst = 0.0
    for p in np.linspace(0.0, 0.3, 20):
        p = float(p)
        if p == 0.0:
            oracle = 64 / 2.76e-3 * 1500
        else:
            oracle = 1500 * min(
                64 / 2.76e-3,
                1.0
                / (
                    2.76e-3 * math.sqrt(2 * 2 * p / 3)
                    + 11.04e-3 * 3 * math.sqrt(3 * 2 * p / 8) * p * (1 + 32 * p * p)
                ),
            )
        worst = max(worst, abs(throughput(p, params) - oracle) / oracle)
    exact_zero = throughput(0.0, params) == 64 / 2.76e-3 * 1500
    grid = [throughput(float(p), params) for p in np.linspace(0.0, 0.3, 200)]
    monotone = all(a >= b for a, b in zip(grid, grid[1:]))
    report(
        "3 throughput model",
        worst <= 1e-9 and exact_zero and monotone,
        f"max rel err {worst:.2e}, Th(0) exact {exact_zero}, non-increasing {monotone}",
    )


# -- 4. transfer gain trend ---------------------------------------------------


def test_criterion_4_ratio_sweep_gain_trend(polar_crc_code, polar_crc_profile):
    cfg = ChannelConfig(2.0, 0.5, rng_seed=104)
    gains = []
    fewer_retx = None
    for ratio in mc.RATIO_BINS:
        # one seed for all sweep points: identical noise keys across ratios
        res = mc.measure_webpage_gain(
            polar_crc_code, polar_crc_profile, cfg, ratio, 0,
            n_pages=1000, page_codewords=4, master_seed=104,
        )
        gains.append(res["gain"])
        if ratio == (100, 400):
            fewer_retx = res["loss_fraction"] < res["baseline_loss_fraction"]
    rho = float(sps.spearmanr(np.arange(8), gains).statistic)
    ok = gains[0] > 0 and rho <= -0.5 and fewer_retx
    report(
        "4 ratio sweep",
        ok,
        f"gain(20:480) {100 * gains[0]:.1f}% > 0, Spearman {rho:.3f} <= -0.5, "
        f"fewer retransmissions than baseline at 100:400 {fewer_retx}; "
        f"gains% {[round(100 * g, 1) for g in gains]}",
    )


# -- 5. codec correctness -----------------------------------------------------


def test_criterion_5_codec_correctness(ldpc_code, toy_ldpc):
    # exhaustive (8, 4) polar round trip
    polar84 = fec.construct_polar_code(8, 4)
    payloads = np.array([[(v >> i) & 1 for i in range(4)] for v in range(16)], np.uint8)
    llrs = (1.0 - 2.0 * fec.polar_encode_batch(polar84, payloads)) * 15.0
    decoded, _ = fec.polar_decode_cascl_batch(polar84, llrs, 8)
    polar_ok = np.array_equal(decoded, payloads)

    # exhaustive toy LDPC round trip
    toy_payloads = np.array([[(v >> i) & 1 for i in range(3)] for v in range(8)], np.uint8)
    toy_llrs = (1.0 - 2.0 * fec.ldpc_encode_batch(toy_ldpc, toy_payloads)) * 15.0
    toy_dec, toy_conv = fec.ldpc_decode_bp_batch(toy_ldpc, toy_llrs)
    toy_ok = np.array_equal(toy_dec, toy_payloads) and toy_conv.all()

    # 1000 random noiseless round trips at (1024, 512)
    rng = substream(105, 0)
    big_polar = fec.construct_polar_code(1024, 512, 2.0, fec.DEFAULT_CRC_LEN)
    pl_p = rng.integers(0, 2, (1000, big_polar.payload_len)).astype(np.uint8)
    dec_p, _ = fec.polar_decode_cascl_batch(
        big_polar, (1.0 - 2.0 * fec.polar_encode_batch(big_polar, pl_p)) * 15.0, 8
    )
    pl_l = rng.integers(0, 2, (1000, 512)).astype(np.uint8)
    dec_l, _ = fec.ldpc_decode_bp_batch(
        ldpc_code, (1.0 - 2.0 * fec.ldpc_encode_batch(ldpc_code, pl_l)) * 15.0
    )
    random_ok = np.array_equal(dec_p, pl_p) and np.array_equal(dec_l, pl_l)

    # paired-trial list-size comparison
    spec = fec.construct_polar_code(256, 128, 2.0, crc_len=fec.DEFAULT_CRC_LEN)
    chan = ChannelConfig(1.5, 0.5, rng_seed=106)
    pl = substream(106, 0).integers(0, 2, (2000, spec.payload_len)).astype(np.uint8)
    cw = fec.polar_encode_batch(spec, pl)
    from uepsim.channel import transmit_keyed

    llrs = transmit_keyed(cw, chan, 106, np.arange(len(cw)), 0)
    dec1, _ = fec.polar_decode_cascl_batch(spec, llrs, 1)
    dec8, _ = fec.polar_decode_cascl_batch(spec, llrs, 8)
    bler1 = (dec1 != pl).any(axis=1).mean()
    bler8 = (dec8 != pl).any(axis=1).mean()
    list_ok = bler8 <= bler1

    report(
        "5 codec correctness",
        polar_ok and toy_ok and random_ok and list_ok,
        f"(8,4) exhaustive {polar_ok}, toy exhaustive {toy_ok}, 1000 round trips "
        f"{random_ok}, BLER L8 {bler8:.4f} <= L1 {bler1:.4f}",
    )


# -- 6. scheduler orderings ---------------------------------------------------


def _seed_mean_metrics(table, algorithm, injection, seeds, m=4, n=2, horizon=1600):
    out = {"wait": [], "flow": [], "makespan": [], "n_jobs": []}
    for seed in seeds:
        cfg = mc.SimConfig(
            num_ldpc=m, num_polar=n, injection_prob=injection, ebno_db=SCHED_EBNO_DB,
            horizon_ticks=horizon, quality_level=SCHED_QUALITY, master_seed=seed,
            algorithm=algorithm,
        )
        metrics, _ = mc.run_simulation(cfg, mc.sample_arrivals(cfg, table))
        out["wait"].append(metrics.avg_wait)
        out["flow"].append(metrics.avg_flow)
        out["makespan"].append(metrics.makespan)
        out["n_jobs"].append(metrics.n_jobs)
    return {k: float(np.mean(v)) for k, v in out.items()}


def test_criterion_6_algorithm_orderings(gain_table):
    seeds = range(10)
    details = []
    ok = True
    for inj in (0.7, 0.9):
        per_algo = {a: _seed_mean_metrics(gain_table, a, inj, seeds) for a in mc.ALGORITHMS}
        assert all(v["n_jobs"] >= 1000 for v in per_algo.values())
        by_makespan = min(per_algo, key=lambda a: per_algo[a]["makespan"])
        worst_makespan = max(per_algo, key=lambda a: per_algo[a]["makespan"])
        by_wait = min(per_algo, key=lambda a: per_algo[a]["wait"])
        by_flow = min(per_algo, key=lambda a: per_algo[a]["flow"])
        cond = (
            by_makespan == "minqueue"
            and by_wait == "minqueue"
            and by_flow == "wftm"
            and worst_makespan == "random"
        )
        ok &= cond
        details.append(
            f"inj {inj}: best makespan {by_makespan}, best wait {by_wait}, "
            f"best flow {by_flow}, worst makespan {worst_makespan}"
        )
    report("6 algorithm orderings", ok, "; ".join(details))


# -- 7. proposed vs conventional ----------------------------------------------


def test_criterion_7_proposed_beats_conventional(gain_table):
    seeds = range(10)
    ok = True
    details = []
    for inj in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
        prop = _seed_mean_metrics(gain_table, "minqueue", inj, seeds, m=4, n=2)
        conv = _seed_mean_metrics(gain_table, "minqueue", inj, seeds, m=4, n=0)
        cond = prop["wait"] < conv["wait"] and prop["flow"] < conv["flow"]
        ok &= cond
        details.append(f"inj {inj}: wait {prop['wait']:.0f}<{conv['wait']:.0f} "
                       f"flow {prop['flow']:.0f}<{conv['flow']:.0f}")
    report("7 proposed vs conventional", ok, "; ".join(details))


# -- 8. full-system scenario study ---------------------------------------------


def test_criterion_8_scenario_study(gain_table):
    base = mc.SimConfig(
        horizon_ticks=1200, quality_level=SCHED_QUALITY, algorithm="minqueue"
    )
    ebno_grid = (1.0, 1.2, 1.4, 1.6, 1.8, 2.0)
    inj_grid = (0.2, 0.4, 0.6, 0.8, 1.0)
    rows = mc.run_scenario_comparison(
        base, gain_table, ebno_grid=ebno_grid, injection_grid=inj_grid,
        seeds=(0, 1, 2, 3, 4),
    )
    surf_3l2p = mc.gain_surface(rows, "3L2P")
    surf_2l2p = mc.gain_surface(rows, "2L2P")

    band = [1.2, 1.4, 1.6, 1.8, 2.0]
    mean_3l2p = float(np.mean([g for (e, _), g in surf_3l2p.items() if e in band]))
    two_below = all(g < 0 for g in surf_2l2p.values())
    flagged = {cell: round(g, 1) for cell, g in surf_3l2p.items() if not -5 <= g <= 24}
    if flagged:
        print(f"acceptance 8 note: 3L2P cells outside [-5%, +24%]: {flagged}")
    report(
        "8 scenario study",
        mean_3l2p >= 0 and two_below,
        f"3L2P mean gain over 1.2-2.0 dB {mean_3l2p:+.1f}% >= 0; "
        f"2L2P below 4L everywhere {two_below}",
    )


# -- 9. MS-SSIM ---------------------------------------------------------------


def test_criterion_9_ms_ssim():
    from uepsim.synthassets import synthetic_image

    img = synthetic_image(128, seed=9)
    self_score = approxtx.ms_ssim(img, img)
    rng = substream(9, 1)
    scores = []
    for frac in (0.005, 0.05, 0.25):
        noisy = img.copy()
        mask = rng.random(img.shape) < frac
        noisy[mask] = rng.integers(0, 256, int(mask.sum()))
        scores.append(approxtx.ms_ssim(img, noisy))
    ok = abs(self_score - 1.0) <= 1e-9 and scores[0] > scores[1] > scores[2]
    report(
        "9 MS-SSIM",
        ok,
        f"identical {self_score:.12f}, degradation {[round(s, 4) for s in scores]}",
    )


# -- 10. CLI determinism --------------------------------------------------------


def test_criterion_10_cli_determinism(tmp_path):
    configs = {
        "characterize": (
            {"code": "ldpc", "n_total": 256, "k_info": 128, "ebno_db": 1.5, "trials": 200},
            "profile.csv",
        ),
        "transmit": (
            {
                "mode": "ratio", "code": "polar", "ebno_db": 2.0, "char_trials": 200,
                "ratios": [[100, 400]], "n_pages": 8, "page_codewords": 4,
                "quality_image_size": 32,
            },
            "sweep.csv",
        ),
        "schedule": (
            {
                "algorithms": ["minqueue", "wftm"], "injection_probs": [0.5],
                "horizon_ticks": 120, "seeds": [0], "gain_table": str(DEFAULT_TABLE_PATH),
            },
            "metrics.csv",
        ),
        "fullsystem": (
            {
                "ebno_grid": [1.4], "injection_probs": [0.5], "horizon_ticks": 120,
                "seeds": [0], "gain_table": str(DEFAULT_TABLE_PATH),
            },
            "scenario_gains.csv",
        ),
    }
    identical = {}
    for command, (config, artifact) in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(config))
        outs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{command}_{attempt}"
            rc = cli.main(
                [command, "--config", str(cfg_path), "--out", str(out), "--seed", "7"]
            )
            assert rc == 0
            outs.append((out / artifact).read_bytes())
        identical[command] = outs[0] == outs[1]
    report(
        "10 CLI determinism",
        all(identical.values()),
        ", ".join(f"{c}={v}" for c, v in identical.items()),
    )
