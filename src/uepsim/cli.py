"""Command-line front end.

Subcommands map one-to-one onto the experiment families:

    characterize   per-position error profile of one code (CSV + JSON summary)
    transmit       ratio or P-frame sweep of transfer gain and received quality
    schedule       resource-allocation algorithm comparison (metrics CSV)
    fullsystem     4L / 3L2P / 2L2P scenario gain study (per-seed CSV)

Each command reads a JSON config plus flag overrides. `_DEFAULTS[command]`
is the command's schema: every key is optional, and a key outside it is an
error. All randomness descends from one master seed, so re-running with the
same config and seed reproduces every output byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import approxtx, fec, montecarlo, synthassets, uep
from .channel import ChannelConfig
from .rng import substream

_SIM = montecarlo.SimConfig()  # the one default operating point of the scheduler

_DEFAULTS = {
    "characterize": {
        "code": "polar",
        "n_total": 1024,
        "k_info": 512,
        "ebno_db": 2.0,
        "trials": uep.FAST_TRIALS,  # paper-fidelity runs use uep.DEFAULT_TRIALS
        "crc_len": 0,  # polar only; ldpc ignores it
        "list_size": fec.DEFAULT_LIST_SIZE,
        "ldpc_seed": 1,
        "seed": 0,
    },
    "transmit": {
        "mode": "ratio",
        "code": "polar",
        "n_total": 1024,
        "k_info": 512,
        "ebno_db": 2.0,
        "char_trials": 2000,
        "quality_level": 0,
        "ratios": [list(b) for b in montecarlo.RATIO_BINS],
        "protected_pframes": list(range(15)),
        "n_pages": 200,
        "page_codewords": 4,
        "quality_image_size": 64,
        "n_gops": 3,
        "gop_size": 32,
        "ldpc_seed": 1,
        "seed": 0,
    },
    "schedule": {
        "algorithms": list(montecarlo.ALGORITHMS),
        "injection_probs": [round(0.1 * i, 1) for i in range(1, 11)],
        "num_ldpc": _SIM.num_ldpc,
        "num_polar": _SIM.num_polar,
        "ebno_db": _SIM.ebno_db,
        "horizon_ticks": _SIM.horizon_ticks,
        "quality_level": _SIM.quality_level,
        "seeds": [0, 1, 2, 3, 4],
        "gain_table": "data/default_gain_table.json",
        "seed": 0,
    },
    "fullsystem": {
        "scenarios": {name: list(mn) for name, mn in montecarlo.SCENARIOS.items()},
        "ebno_grid": list(montecarlo.EBNO_GRID),
        "injection_probs": [round(0.1 * i, 1) for i in range(1, 11)],
        "horizon_ticks": _SIM.horizon_ticks,
        "quality_level": _SIM.quality_level,
        "seeds": [0, 1, 2, 3, 4],
        "gain_table": "data/default_gain_table.json",
        "seed": 0,
    },
}

# the config key `--trials` sets; the other commands have none
_TRIALS_KEY = {"characterize": "trials", "transmit": "char_trials"}


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _load_config(command: str, args) -> dict:
    cfg = dict(_DEFAULTS[command])
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {path}")
        given = json.loads(path.read_text())
        unknown = sorted(set(given) - set(cfg))
        if unknown:
            raise ValueError(f"unknown {command} config keys: {', '.join(unknown)}")
        cfg.update(given)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.trials is not None:
        if command not in _TRIALS_KEY:
            raise ValueError(f"--trials does not apply to {command}")
        cfg[_TRIALS_KEY[command]] = args.trials
    if args.parallel > 1 and command in ("schedule", "fullsystem"):
        raise ValueError(f"--parallel above 1 does not apply to {command}")
    cfg["_out"] = Path(args.out)
    cfg["_parallel"] = args.parallel
    return cfg


def _build_code(cfg):
    kind = cfg["code"].lower()
    if kind == "polar":
        return fec.construct_polar_code(cfg["n_total"], cfg["k_info"], crc_len=cfg["crc_len"])
    if kind == "ldpc":
        return fec.generate_ldpc_code(cfg["n_total"], cfg["k_info"], seed=cfg["ldpc_seed"])
    raise ValueError(f"unknown code kind {cfg['code']!r}")


# --------------------------------------------------------------------------


def cmd_characterize(cfg) -> None:
    code = _build_code(cfg)
    chan = ChannelConfig(cfg["ebno_db"], fec.code_rate(code), rng_seed=cfg["seed"])
    profile = uep.characterize(
        code, chan, cfg["trials"], list_size=cfg["list_size"], workers=cfg["_parallel"]
    )
    out = cfg["_out"]
    _write(out / "profile.csv", profile.to_csv())
    summary = uep.summarize(profile)
    summary.update(code=cfg["code"], ebno_db=cfg["ebno_db"], trials=cfg["trials"])
    _write(out / "summary.json", json.dumps(summary, indent=1, sort_keys=True) + "\n")


def _transmit_ratio_rows(cfg, code, chan, profile):
    q = int(cfg["quality_level"])
    image = synthassets.synthetic_image(cfg["quality_image_size"], seed=cfg["seed"])
    rows = []
    for ratio in cfg["ratios"]:
        ratio = tuple(int(v) for v in ratio)
        # one seed for the whole sweep: noise keys pair across ratio points
        res = montecarlo.measure_webpage_gain(
            code, profile, chan, ratio, q, cfg["n_pages"], cfg["page_codewords"],
            master_seed=montecarlo.mix_seed(cfg["seed"], 11),
        )
        page = approxtx.make_webpage(ratio, rng=substream(cfg["seed"], ratio[0], 7), image=image)
        mapping = approxtx.build_webpage_mapping(profile, ratio, q)
        stats = approxtx.simulate_transfer(
            page, mapping, code, chan, montecarlo.mix_seed(cfg["seed"], ratio[0], 9)
        )
        score = approxtx.ms_ssim(image, stats.received_payload.image())
        rows.append((f"{ratio[0]}:{ratio[1]}", f"k={q}", 100.0 * res["gain"], score))
    return rows


def _transmit_pframe_rows(cfg, code, chan, profile):
    frames = synthassets.synthetic_gop(cfg["gop_size"], seed=cfg["seed"])
    # one seed and one transfer pass per GOP for every n_p and the baseline:
    # the retransmission counts are exactly monotone in n_p
    results = montecarlo.measure_video_gains(
        code, profile, chan, [int(n_p) for n_p in cfg["protected_pframes"]], frames,
        cfg["n_gops"], master_seed=montecarlo.mix_seed(cfg["seed"], 100),
    )
    return [
        (str(n_p), f"np={n_p}", 100.0 * res["gain"], res["quality"])
        for n_p, res in zip(cfg["protected_pframes"], results)
    ]


def cmd_transmit(cfg) -> None:
    mode = cfg["mode"]
    if mode not in ("ratio", "pframes"):
        raise ValueError(f"unknown transmit mode {mode!r}; use 'ratio' or 'pframes'")
    code = _build_code(
        {**cfg, "crc_len": fec.DEFAULT_CRC_LEN if cfg["code"] == "polar" else None}
    )
    chan = ChannelConfig(cfg["ebno_db"], fec.code_rate(code), rng_seed=cfg["seed"])
    profile = uep.characterize(code, chan, cfg["char_trials"], workers=cfg["_parallel"])
    rows = (
        _transmit_ratio_rows(cfg, code, chan, profile)
        if mode == "ratio"
        else _transmit_pframe_rows(cfg, code, chan, profile)
    )
    lines = ["ratio_or_npframes,scenario,gain_percent,quality_score,ebno_db"]
    for key, scenario, gain, score in rows:
        lines.append(f"{key},{scenario},{_fmt(gain)},{_fmt(score)},{_fmt(cfg['ebno_db'])}")
    _write(cfg["_out"] / "sweep.csv", "\n".join(lines) + "\n")


def _load_table(cfg) -> montecarlo.GainTable:
    path = Path(cfg["gain_table"])
    if not path.exists():
        raise FileNotFoundError(f"gain table not found: {path}")
    return montecarlo.GainTable.from_json(path.read_text())


def cmd_schedule(cfg) -> None:
    table = _load_table(cfg)
    algorithms, injection_probs = cfg["algorithms"], cfg["injection_probs"]
    point = {k: cfg[k] for k in ("num_ldpc", "num_polar", "ebno_db", "horizon_ticks",
                                 "quality_level")}
    # per (algorithm, injection) row, the metrics of every seed
    runs = [[[] for _ in injection_probs] for _ in algorithms]
    for i, inj in enumerate(injection_probs):
        for seed in cfg["seeds"]:
            sim = montecarlo.SimConfig(**point, injection_prob=inj,
                                       master_seed=montecarlo.mix_seed(cfg["seed"], seed))
            jobs = montecarlo.sample_arrivals(sim, table)  # one stream for every algorithm
            for algo, per_injection in zip(algorithms, runs):
                metrics = montecarlo.run_simulation(replace(sim, algorithm=algo), jobs)[0]
                per_injection[i].append(metrics)
            del jobs  # one stream alive at a time
    keys = ("avg_throughput", "avg_wait", "avg_flow", "makespan", "n_jobs")
    lines = ["algorithm,injection_prob," + ",".join(keys)]
    for algo, per_injection in zip(algorithms, runs):
        for inj, per_seed in zip(injection_probs, per_injection):
            means = [float(np.mean([getattr(m, k) for m in per_seed])) for k in keys]
            lines.append(",".join([algo, _fmt(inj)] + [_fmt(v) for v in means]))
    _write(cfg["_out"] / "metrics.csv", "\n".join(lines) + "\n")


def cmd_fullsystem(cfg) -> None:
    table = _load_table(cfg)
    base = montecarlo.SimConfig(
        horizon_ticks=cfg["horizon_ticks"],
        quality_level=cfg["quality_level"],
        algorithm="minqueue",
    )
    scenarios = {name: tuple(mn) for name, mn in cfg["scenarios"].items()}
    mixed = {montecarlo.mix_seed(cfg["seed"], s): s for s in cfg["seeds"]}
    rows = montecarlo.run_scenario_comparison(
        base,
        table,
        scenarios=scenarios,
        ebno_grid=cfg["ebno_grid"],
        injection_grid=tuple(cfg["injection_probs"]),
        seeds=tuple(mixed),
    )
    lines = ["scenario,ebno_db,injection_prob,seed,perf,gain_pct_vs_4L"]
    for r in rows:
        lines.append(
            f"{r['scenario']},{_fmt(r['ebno_db'])},{_fmt(r['injection_prob'])},"
            f"{mixed[r['seed']]},{_fmt(r['perf'])},{_fmt(r['gain_pct_vs_4L'])}"
        )
    _write(cfg["_out"] / "scenario_gains.csv", "\n".join(lines) + "\n")


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="uepsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _DEFAULTS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--trials", type=int, default=None, help="trial count override")
        p.add_argument("--parallel", type=int, default=1, help="worker processes")
    args = parser.parse_args(argv)

    handlers = {
        "characterize": cmd_characterize,
        "transmit": cmd_transmit,
        "schedule": cmd_schedule,
        "fullsystem": cmd_fullsystem,
    }
    try:
        cfg = _load_config(args.command, args)
        handlers[args.command](cfg)
    except (ValueError, FileNotFoundError, KeyError, TypeError, RuntimeError) as exc:
        print(f"uepsim {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
