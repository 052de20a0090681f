"""Priority-mapping construction for web pages and GOP video."""

import numpy as np
import pytest

from uepsim import approxtx, uep
from uepsim.approxtx import mapping as mp


def shaped_profile(counts):
    counts = np.asarray(counts, dtype=np.int64)
    return uep.BitErrorProfile("POLAR", 2.0, int(counts.max()) + 1, counts, len(counts))


FIG5A_LIKE = shaped_profile(np.concatenate([np.zeros(50, int), 5 + np.arange(450) % 17]))
STRICT = shaped_profile(np.arange(500))


def test_all_text_ratio_marks_everything_text():
    m = approxtx.build_webpage_mapping(STRICT, (500, 0), 0)
    assert (m.roles == mp.TEXT).all()
    assert m.protected.all()


def test_k8_protects_every_pixel_bit():
    m = approxtx.build_webpage_mapping(STRICT, (100, 400), 8)
    assert m.protected[m.roles == mp.PIXEL_BIT].all()
    assert m.protected.sum() == 500  # equivalent to the full-protection baseline


def test_k0_protects_text_only():
    m = approxtx.build_webpage_mapping(STRICT, (100, 400), 0)
    assert m.protected.sum() == 100
    assert (m.roles[m.protected] == mp.TEXT).all()


def test_text_lands_on_least_error_positions():
    m = approxtx.build_webpage_mapping(FIG5A_LIKE, (100, 400), 1)
    text_positions = np.flatnonzero(m.roles == mp.TEXT)
    order = uep.protection_order(FIG5A_LIKE)
    assert set(text_positions) == set(order[:100])


def test_pixel_bits_fill_msb_first_by_pixel():
    m = approxtx.build_webpage_mapping(STRICT, (100, 400), 1)
    # under a strictly increasing profile, protection order is the identity
    pix = np.flatnonzero(m.roles == mp.PIXEL_BIT)
    assert np.array_equal(m.role_arg[pix], np.arange(400) // 8)
    assert np.array_equal(m.bit_arg[pix], np.arange(400) % 8)
    protected_bits = m.bit_arg[m.protected & (m.roles == mp.PIXEL_BIT)]
    assert (protected_bits == 0).all()  # k=1 protects the MSB only


def test_leftover_positions_become_pad():
    m = approxtx.build_webpage_mapping(STRICT, (100, 320), 0)
    assert (m.roles == mp.PAD).sum() == 80
    pad_positions = np.flatnonzero(m.roles == mp.PAD)
    assert set(pad_positions) == set(uep.protection_order(STRICT)[420:])
    assert not m.protected[pad_positions].any()


def test_ratio_must_fit_budget():
    with pytest.raises(ValueError):
        approxtx.build_webpage_mapping(STRICT, (200, 400), 0)
    with pytest.raises(ValueError):
        approxtx.build_webpage_mapping(STRICT, (100, 400), 9)


# -- video ------------------------------------------------------------------


def test_video_np0_protects_iframe_only():
    m = approxtx.build_video_mapping(STRICT, 0)
    assert (m.roles[m.protected] == mp.IFRAME).all()
    assert m.protected.sum() == 500 // 15


def test_video_np14_protects_all_frames():
    m = approxtx.build_video_mapping(STRICT, 14)
    data = m.roles != mp.PAD
    assert m.protected[data].all()


def test_video_frame_priority_follows_protection_order():
    m = approxtx.build_video_mapping(STRICT, 3)
    # strictly ordered profile: frame f occupies positions [f*chunk, (f+1)*chunk)
    chunk = 500 // 15
    iframe = np.flatnonzero(m.roles == mp.IFRAME)
    assert iframe.max() < chunk
    p1 = np.flatnonzero((m.roles == mp.PFRAME) & (m.role_arg == 1))
    p14 = np.flatnonzero((m.roles == mp.PFRAME) & (m.role_arg == 14))
    assert p1.max() < p14.min()


def test_video_np_out_of_range():
    with pytest.raises(ValueError):
        approxtx.build_video_mapping(STRICT, 15)
    with pytest.raises(ValueError):
        approxtx.build_video_mapping(STRICT, -1)


def test_fully_protected_variant_covers_all_data():
    m = approxtx.build_webpage_mapping(STRICT, (60, 400), 0).fully_protected()
    assert m.protected.sum() == 460
    assert not m.protected[m.roles == mp.PAD].any()


def test_mapping_equality_is_identity():
    # a field-wise == would compare the ndarray fields and raise
    a = approxtx.build_webpage_mapping(STRICT, (60, 400), 0)
    b = approxtx.build_webpage_mapping(STRICT, (60, 400), 0)
    assert a == a
    assert a != b
