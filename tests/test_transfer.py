"""Selective-retransmission transfer semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uepsim import approxtx, fec, uep
from uepsim.approxtx import transfer
from uepsim.channel import ChannelConfig
from uepsim.rng import substream


@pytest.fixture(scope="module")
def small_code():
    return fec.construct_polar_code(64, 32, 2.0, crc_len=0)


@pytest.fixture(scope="module")
def small_ldpc():
    return fec.generate_ldpc_code(64, 32, seed=3)


@pytest.fixture(scope="module")
def small_profile(small_code):
    cfg = ChannelConfig(2.0, 0.5, rng_seed=70)
    return uep.characterize(small_code, cfg, 400)


def make_page(seed, n_codewords=6, ratio=(8, 24)):
    return approxtx.make_webpage(ratio, n_codewords=n_codewords, rng=substream(seed, 0))


def test_noiseless_transfer_is_exact(small_code, small_profile):
    page = make_page(1)
    mapping = approxtx.build_webpage_mapping(small_profile, (8, 24), 0)
    stats = approxtx.simulate_transfer(page, mapping, small_code, ChannelConfig(40.0, 0.5), 5)
    assert stats.retransmissions == 0
    assert stats.loss_fraction == 0.0
    assert np.array_equal(stats.received_payload.text_bits, page.text_bits)
    assert np.array_equal(stats.received_payload.pixels, page.pixels)


def test_full_protection_is_exact_under_noise(small_code, small_profile):
    page = make_page(2)
    mapping = approxtx.build_webpage_mapping(small_profile, (8, 24), 0).fully_protected()
    cfg = ChannelConfig(1.0, 0.5)
    stats = approxtx.simulate_transfer(page, mapping, small_code, cfg, 6)
    assert np.array_equal(stats.received_payload.text_bits, page.text_bits)
    assert np.array_equal(stats.received_payload.pixels, page.pixels)
    assert stats.retransmissions > 0  # 1 dB is noisy enough to force retries


def test_text_is_always_exact_even_unprotected_pixels_may_err(small_code, small_profile):
    cfg = ChannelConfig(1.5, 0.5)
    pixel_errors = 0
    for seed in range(8):
        page = make_page(100 + seed, n_codewords=10)
        mapping = approxtx.build_webpage_mapping(small_profile, (8, 24), 0)
        stats = approxtx.simulate_transfer(page, mapping, small_code, cfg, 200 + seed)
        assert np.array_equal(stats.received_payload.text_bits, page.text_bits)
        pixel_errors += int((stats.received_payload.pixels != page.pixels).sum())
    assert pixel_errors > 0  # unprotected damage is kept, not retransmitted away


def test_paired_retransmissions_monotone_in_protection(small_code, small_profile):
    cfg = ChannelConfig(1.5, 0.5)
    for seed in range(5):
        page = make_page(300 + seed, n_codewords=10)
        retx = {}
        for k in (0, 4, 8):
            mapping = approxtx.build_webpage_mapping(small_profile, (8, 24), k)
            stats = approxtx.simulate_transfer(page, mapping, small_code, cfg, 400 + seed)
            retx[k] = stats.retransmissions
        base = approxtx.simulate_transfer(
            page,
            approxtx.build_webpage_mapping(small_profile, (8, 24), 0).fully_protected(),
            small_code,
            cfg,
            400 + seed,
        )
        assert retx[0] <= retx[4] <= retx[8] <= base.retransmissions


def test_gop_transfer_protects_iframe(small_code, small_profile):
    from uepsim.synthassets import synthetic_gop

    frames = synthetic_gop(8, n_pframes=1, seed=9)
    payload = approxtx.GopPayload.from_frames(frames)
    mapping = approxtx.build_video_mapping(small_profile, 0, n_pframes=1)
    cfg = ChannelConfig(1.5, 0.5)
    stats = approxtx.simulate_transfer(payload, mapping, small_code, cfg, 11)
    received = stats.received_payload
    assert np.array_equal(received.i_frame, payload.i_frame)
    rebuilt = received.reconstruct_frames()
    assert rebuilt[0].shape == frames[0].shape


def test_quality_one_at_full_protection_and_degraded_at_k0(small_code, small_profile):
    from uepsim.approxtx import ms_ssim
    from uepsim.synthassets import synthetic_image

    img = synthetic_image(16, seed=12)
    cfg = ChannelConfig(1.25, 0.5)
    scores = {}
    for k, label in ((8, "full"), (0, "none")):
        mapping = approxtx.build_webpage_mapping(small_profile, (8, 24), k)
        vals = []
        for seed in range(12):
            page = approxtx.make_webpage((8, 24), rng=substream(500 + seed, 0), image=img)
            stats = approxtx.simulate_transfer(page, mapping, small_code, cfg, 600 + seed)
            vals.append(ms_ssim(img, stats.received_payload.image()))
        scores[label] = float(np.mean(vals))
    assert scores["full"] == pytest.approx(1.0, abs=1e-9)  # k=8 protects every bit
    assert scores["none"] <= scores["full"]
    assert scores["none"] < 1.0  # some unprotected damage survived at 1.25 dB


def test_mapping_code_mismatch_rejected(small_profile):
    other = fec.construct_polar_code(128, 64, crc_len=0)
    page = make_page(3)
    mapping = approxtx.build_webpage_mapping(small_profile, (8, 24), 0)
    with pytest.raises(ValueError):
        approxtx.simulate_transfer(page, mapping, other, ChannelConfig(2.0, 0.5), 4)


def test_stats_validation():
    with pytest.raises(ValueError):
        approxtx.TransferStats(0, 0, None)
    with pytest.raises(ValueError):
        approxtx.TransferStats(5, -1, None)


# -- one pass for many protected sets ----------------------------------------


def _masks(seed, n_masks, length, nested):
    """Random protected masks; nested ones grow by union, the others are
    drawn independently, and densities span empty to full."""
    rng = substream(seed, 1)
    density = rng.choice([0.0, 0.02, 0.05, 0.15, 0.5, 1.0], n_masks)
    masks = rng.random((n_masks, length)) < density[:, None]
    return np.logical_or.accumulate(masks) if nested else masks


@settings(max_examples=30, deadline=None)
@given(
    code_name=st.sampled_from(["polar", "ldpc"]),
    seed=st.integers(0, 2**16),
    n_masks=st.integers(1, 4),
    n_rows=st.integers(1, 16),
    nested=st.booleans(),
    ebno=st.sampled_from([1.0, 1.25, 1.5]),
)
def test_multi_mask_pass_equals_separate_passes(
    small_code, small_ldpc, code_name, seed, n_masks, n_rows, nested, ebno
):
    code = small_code if code_name == "polar" else small_ldpc
    length = fec.payload_length(code)
    cfg = ChannelConfig(ebno, fec.code_rate(code))
    sent = substream(seed, 0).integers(0, 2, (n_rows, length)).astype(np.uint8)
    masks = _masks(seed, n_masks, length, nested)
    resent, retx, received = transfer.retransmit_until_clean(sent, masks, code, cfg, seed)
    assert isinstance(resent, int)
    assert received.shape == (n_masks, n_rows, length)
    for m, mask in enumerate(masks):
        one_resent, one_retx, one_received = transfer.retransmit_until_clean(
            sent, mask[None], code, cfg, seed
        )
        assert one_resent == one_retx[0] == retx[m]
        assert one_received[0].tobytes() == received[m].tobytes()
        assert (received[m][:, mask] == sent[:, mask]).all()
    # every mask's resends ride on the shared ones, which never exceed their sum
    assert max(retx) <= resent <= sum(retx)
    if nested:
        assert all(a <= b for a, b in zip(retx, retx[1:]))


def test_protected_masks_must_be_stacked(small_code):
    sent = np.zeros((2, fec.payload_length(small_code)), dtype=np.uint8)
    mask = np.ones(sent.shape[1], dtype=bool)
    with pytest.raises(ValueError, match="protected masks"):
        transfer.retransmit_until_clean(sent, mask, small_code, ChannelConfig(2.0, 0.5), 1)
