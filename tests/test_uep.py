"""Error-profile measurement, protection ordering, and summaries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uepsim import fec, uep
from uepsim.channel import ChannelConfig


def profile_from_counts(counts, trials=None):
    counts = np.asarray(counts, dtype=np.int64)
    trials = int(counts.max()) + 1 if trials is None else trials
    return uep.BitErrorProfile("LDPC", 2.0, max(trials, 1), counts, k_info=len(counts))


def test_noiseless_channel_gives_zero_counts():
    code = fec.construct_polar_code(64, 32, crc_len=0)
    cfg = ChannelConfig(40.0, 0.5, rng_seed=3)
    profile = uep.characterize(code, cfg, 50)
    assert not profile.error_counts.any()
    assert profile.trials == 50 and profile.k_info == 32


def test_counts_are_additive_over_disjoint_trial_ranges():
    code = fec.generate_ldpc_code(128, 64, seed=2)
    cfg = ChannelConfig(1.0, 0.5, rng_seed=9)
    whole = uep.characterize(code, cfg, 60)
    first = uep._run_batch(code, cfg, 0, 30, fec.DEFAULT_LIST_SIZE)
    second = uep._run_batch(code, cfg, 30, 30, fec.DEFAULT_LIST_SIZE)
    assert np.array_equal(whole.error_counts, first + second)


def test_batch_size_does_not_change_counts():
    code = fec.generate_ldpc_code(128, 64, seed=2)
    cfg = ChannelConfig(1.5, 0.5, rng_seed=10)
    a = uep.characterize(code, cfg, 40, batch_size=7)
    b = uep.characterize(code, cfg, 40, batch_size=40)
    assert np.array_equal(a.error_counts, b.error_counts)


def test_worker_count_does_not_change_counts():
    code = fec.generate_ldpc_code(128, 64, seed=2)
    cfg = ChannelConfig(1.5, 0.5, rng_seed=10)
    a = uep.characterize(code, cfg, 30, workers=1)
    b = uep.characterize(code, cfg, 30, workers=3)
    assert np.array_equal(a.error_counts, b.error_counts)


def test_characterize_rejects_zero_trials():
    code = fec.construct_polar_code(16, 8)
    with pytest.raises(ValueError):
        uep.characterize(code, ChannelConfig(2.0, 0.5), 0)
    with pytest.raises(ValueError, match="workers"):
        uep.characterize(code, ChannelConfig(2.0, 0.5), 10, workers=0)
    with pytest.raises(TypeError):  # a fractional count would run fewer trials than it reports
        uep.characterize(code, ChannelConfig(2.0, 0.5), 2.5)


# -- protection order -------------------------------------------------------


def test_protection_order_sorts_by_count():
    order = uep.protection_order(profile_from_counts([5, 1, 3]))
    assert list(order) == [1, 2, 0]


def test_protection_order_breaks_ties_by_index():
    order = uep.protection_order(profile_from_counts([2, 2, 2, 2]))
    assert list(order) == [0, 1, 2, 3]


def test_protection_order_head_of_shaped_profile():
    # strongly protected initial block: its positions fill the order's head
    counts = np.concatenate([np.zeros(50, dtype=int), 5 + (np.arange(462) * 7) % 23])
    order = uep.protection_order(profile_from_counts(counts))
    assert set(order[:50]) == set(range(50))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=200))
def test_protection_order_is_a_bijection(counts):
    order = uep.protection_order(profile_from_counts(counts))
    assert sorted(order) == list(range(len(counts)))
    sorted_counts = np.asarray(counts)[order]
    assert (np.diff(sorted_counts) >= 0).all()


# -- summaries --------------------------------------------------------------


def test_summary_of_all_zero_counts():
    s = uep.summarize(profile_from_counts(np.zeros(100, dtype=int), trials=10))
    assert s["spearman_position_vs_count"] is None
    assert s["min_max_ratio"] == 1.0


def test_summary_of_strictly_increasing_counts():
    s = uep.summarize(profile_from_counts(np.arange(1, 201)))
    assert s["spearman_position_vs_count"] == pytest.approx(1.0)


def test_summary_head_tail_ratio_of_shaped_profile():
    counts = np.concatenate([np.full(50, 1), np.full(462, 10)])
    s = uep.summarize(profile_from_counts(counts))
    assert s["head_len"] == 50
    assert s["head_tail_ratio"] < 0.5


# -- serialization ----------------------------------------------------------


def test_csv_round_trip():
    prof = profile_from_counts([4, 0, 7, 2])
    text = prof.to_csv()
    assert text.splitlines()[0] == "position,error_count"
    back = uep.BitErrorProfile.from_csv(text, prof.code_kind, prof.ebno_db, prof.trials)
    assert np.array_equal(back.error_counts, prof.error_counts)


def test_json_round_trip():
    prof = profile_from_counts([4, 0, 7, 2])
    back = uep.BitErrorProfile.from_json(prof.to_json())
    assert np.array_equal(back.error_counts, prof.error_counts)
    assert back.code_kind == prof.code_kind and back.trials == prof.trials


def test_profile_validation():
    with pytest.raises(ValueError):
        uep.BitErrorProfile("LDPC", 2.0, 0, np.array([1]), 1)
    with pytest.raises(ValueError):
        uep.BitErrorProfile("LDPC", 2.0, 5, np.array([7]), 1)


def test_profile_equality_is_identity():
    # a field-wise == would compare the ndarray fields and raise
    a, b = profile_from_counts([1, 2, 3]), profile_from_counts([1, 2, 3])
    assert a == a
    assert a != b
