"""CLI commands: outputs, validation, and byte-level reproducibility."""

import argparse
import hashlib
import json
from pathlib import Path

import pytest

from uepsim import cli, montecarlo

from conftest import DEFAULT_TABLE_PATH, REPO


def run(tmp_path, command, config, name, *flags, seed=3):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / name
    rc = cli.main(
        [command, "--config", str(cfg_path), "--out", str(out), "--seed", str(seed), *flags]
    )
    return rc, out


SMALL_CHAR = {"code": "polar", "n_total": 256, "k_info": 128, "ebno_db": 2.0, "trials": 300}
SMALL_TRANSMIT = {
    "mode": "ratio",
    "code": "polar",
    "ebno_db": 2.0,
    "char_trials": 300,
    "ratios": [[20, 480], [300, 200]],
    "n_pages": 10,
    "page_codewords": 4,
    "quality_image_size": 32,
}
SMALL_SCHEDULE = {
    "algorithms": ["minqueue", "random"],
    "injection_probs": [0.4, 0.8],
    "horizon_ticks": 150,
    "seeds": [0, 1],
    "gain_table": str(DEFAULT_TABLE_PATH),
}
SMALL_FULLSYSTEM = {
    "ebno_grid": [1.5],
    "injection_probs": [0.6],
    "horizon_ticks": 150,
    "seeds": [0, 1],
    "gain_table": str(DEFAULT_TABLE_PATH),
}


def test_characterize_row_count_matches_positions(tmp_path):
    rc, out = run(tmp_path, "characterize", SMALL_CHAR, "char")
    assert rc == 0
    rows = (out / "profile.csv").read_text().strip().splitlines()
    assert rows[0] == "position,error_count"
    assert len(rows) - 1 == 128  # K rows for the crc-free characterization code
    summary = json.loads((out / "summary.json").read_text())
    assert summary["trials"] == 300


def test_characterize_validation_error_exits_nonzero(tmp_path, capsys):
    rc, _ = run(tmp_path, "characterize", {**SMALL_CHAR, "trials": 0}, "bad")
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_transmit_ratio_sweep_rows(tmp_path):
    rc, out = run(tmp_path, "transmit", SMALL_TRANSMIT, "tx")
    assert rc == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "ratio_or_npframes,scenario,gain_percent,quality_score,ebno_db"
    assert len(rows) - 1 == 2
    assert rows[1].startswith("20:480,k=0,")


def test_transmit_pframe_sweep_rows(tmp_path):
    config = {
        "mode": "pframes",
        "code": "polar",
        "ebno_db": 1.5,
        "char_trials": 300,
        "protected_pframes": list(range(15)),
        "n_gops": 1,
        "gop_size": 16,
    }
    rc, out = run(tmp_path, "transmit", config, "gop")
    assert rc == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) - 1 == 15
    assert rows[1].startswith("0,np=0,")


# SHA-256 of sweep.csv from the earlier transfer path, which ran every
# protected set (and its baseline) as a separate retransmission loop; the
# one-pass transfer reproduces them byte for byte
SMALL_PFRAMES_LDPC = {
    "mode": "pframes",
    "code": "ldpc",
    "ebno_db": 1.5,
    "char_trials": 64,
    "protected_pframes": [0, 2, 5, 14],
    "n_gops": 2,
    "gop_size": 12,
}


@pytest.mark.parametrize(
    "config,digest",
    [
        (SMALL_PFRAMES_LDPC, "85d74c0e66fd210ea0313c0f72139b45ff3e7e34e84f313baf96db3df728ba3a"),
        ({**SMALL_TRANSMIT, "ebno_db": 1.25},
         "b74e8683aa4143e969ef1e0c6b09b687e5a14ff40a2a7996aa7cf186e09323d0"),
    ],
    ids=["pframes-ldpc", "ratio-polar"],
)
def test_transmit_sweep_digest_pinned(tmp_path, config, digest):
    rc, out = run(tmp_path, "transmit", config, "pinned")
    assert rc == 0
    assert hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest() == digest


def test_transmit_unknown_mode_fails(tmp_path, capsys):
    rc, _ = run(tmp_path, "transmit", {**SMALL_TRANSMIT, "mode": "carrier"}, "badmode")
    assert rc == 1
    assert "mode" in capsys.readouterr().err


def test_schedule_row_count(tmp_path):
    rc, out = run(tmp_path, "schedule", SMALL_SCHEDULE, "sched")
    assert rc == 0
    rows = (out / "metrics.csv").read_text().strip().splitlines()
    assert rows[0].startswith("algorithm,injection_prob,")
    assert len(rows) - 1 == 2 * 2  # algorithms x injection probabilities


def test_schedule_missing_table_names_file(tmp_path, capsys):
    cfg = {**SMALL_SCHEDULE, "gain_table": str(tmp_path / "nowhere.json")}
    rc, _ = run(tmp_path, "schedule", cfg, "notable")
    assert rc == 1
    assert "nowhere.json" in capsys.readouterr().err


def test_schedule_ebno_outside_table_grid_fails(tmp_path, capsys):
    rc, _ = run(tmp_path, "schedule", {**SMALL_SCHEDULE, "ebno_db": 5.0}, "offgrid")
    assert rc == 1
    assert "ebno_db 5.0 lies outside the gain table grid [1.0, 2.0]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["schedule", "fullsystem"])
def test_quality_level_outside_table_fails(tmp_path, capsys, command):
    config = {"schedule": SMALL_SCHEDULE, "fullsystem": SMALL_FULLSYSTEM}[command]
    rc, _ = run(tmp_path, command, {**config, "quality_level": 7}, "badq")
    assert rc == 1
    assert "quality_level 7 is not a gain table level (0, 1)" in capsys.readouterr().err


def test_transmit_retransmission_cap_exits_nonzero(tmp_path, capsys, monkeypatch):
    def capped(*args, **kwargs):
        raise RuntimeError("retransmission cap exceeded; channel unusably bad")

    monkeypatch.setattr(montecarlo, "measure_webpage_gain", capped)
    rc, _ = run(tmp_path, "transmit", {**SMALL_TRANSMIT, "char_trials": 50}, "capped")
    assert rc == 1
    assert "uepsim transmit: error: retransmission cap exceeded" in capsys.readouterr().err


def test_fullsystem_grid_and_reference_zero(tmp_path):
    rc, out = run(tmp_path, "fullsystem", SMALL_FULLSYSTEM, "full")
    assert rc == 0
    rows = (out / "scenario_gains.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 3 * 1 * 1 * 2  # scenarios x ebno x inj x seeds
    ref = [r for r in rows if r.startswith("4L,")]
    assert ref and all(r.rsplit(",", 1)[1] == "0" for r in ref)


@pytest.mark.parametrize(
    "command,config,artifact",
    [
        ("characterize", SMALL_CHAR, "profile.csv"),
        ("transmit", SMALL_TRANSMIT, "sweep.csv"),
        ("schedule", SMALL_SCHEDULE, "metrics.csv"),
        ("fullsystem", SMALL_FULLSYSTEM, "scenario_gains.csv"),
    ],
)
def test_rerun_is_byte_identical(tmp_path, command, config, artifact):
    _, out1 = run(tmp_path, command, config, "first")
    _, out2 = run(tmp_path, command, config, "second")
    assert (out1 / artifact).read_bytes() == (out2 / artifact).read_bytes()


# -- the config schema ---------------------------------------------------------


@pytest.mark.parametrize("key", ["ebno", "_out"])
def test_unknown_config_key_exits_nonzero_and_names_it(tmp_path, capsys, key):
    rc, _ = run(tmp_path, "schedule", {**SMALL_SCHEDULE, key: 2.0}, "typo")
    assert rc == 1
    err = capsys.readouterr().err
    assert "schedule" in err and key in err


def test_transmit_list_size_key_is_rejected(tmp_path, capsys):
    rc, _ = run(tmp_path, "transmit", {**SMALL_TRANSMIT, "list_size": 32}, "listsize")
    assert rc == 1
    assert "list_size" in capsys.readouterr().err


def test_schedule_rejects_parallel_above_one(tmp_path, capsys):
    rc, _ = run(tmp_path, "schedule", SMALL_SCHEDULE, "par", "--parallel", "2")
    assert rc == 1
    assert "--parallel" in capsys.readouterr().err


def test_fullsystem_rejects_trials(tmp_path, capsys):
    rc, _ = run(tmp_path, "fullsystem", SMALL_FULLSYSTEM, "trials", "--trials", "10")
    assert rc == 1
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path", sorted((REPO / "configs").glob("*.json")), ids=lambda p: p.stem
)
def test_pinned_config_fits_schema(path):
    command = path.stem.split("_")[0]
    args = argparse.Namespace(config=str(path), seed=None, trials=None, parallel=1, out="out")
    cfg = cli._load_config(command, args)
    assert set(json.loads(path.read_text())) <= set(cfg)


def test_transmit_parallel_characterization_is_byte_identical(tmp_path):
    _, serial = run(tmp_path, "transmit", SMALL_TRANSMIT, "serial", "--parallel", "1")
    _, fanned = run(tmp_path, "transmit", SMALL_TRANSMIT, "fanned", "--parallel", "2")
    assert (serial / "sweep.csv").read_bytes() == (fanned / "sweep.csv").read_bytes()
