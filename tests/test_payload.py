"""Payload containers, bit packing, and PGM round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uepsim.approxtx import GopPayload, WebPagePayload, make_webpage, read_pgm, write_pgm
from uepsim.rng import substream
from uepsim.synthassets import synthetic_gop, synthetic_image


def test_webpage_codeword_count():
    page = WebPagePayload(np.ones(250, np.uint8), np.zeros(100, np.uint8), (100, 400))
    # 250 text bits need 3 codewords at 100/cw; 800 pixel bits need 2 at 400/cw
    assert page.n_codewords == 3
    text, pix = page.streams()
    assert len(text) == 300 and len(pix) == 1200
    assert text[:250].all() and not text[250:].any()


def test_webpage_round_trip_via_streams():
    rng = substream(1, 0)
    page = make_webpage((100, 400), n_codewords=4, rng=rng)
    text, pix = page.streams()
    back = page.with_received(text, pix)
    assert np.array_equal(back.text_bits, page.text_bits)
    assert np.array_equal(back.pixels, page.pixels)


def test_webpage_with_image_carries_shape():
    img = synthetic_image(24, seed=2)
    page = make_webpage((100, 400), rng=substream(2, 0), image=img)
    assert page.image_shape == (24, 24)
    assert np.array_equal(page.image(), img)
    assert page.n_codewords == -(-24 * 24 * 8 // 400)


def test_webpage_ratio_validation():
    with pytest.raises(ValueError):
        WebPagePayload(np.zeros(10, np.uint8), np.zeros(10, np.uint8), (100, 401))
    with pytest.raises(ValueError):
        WebPagePayload(np.zeros(10, np.uint8), np.zeros(10, np.uint8), (0, 0))


def test_gop_diff_round_trip_for_gentle_motion():
    frames = synthetic_gop(16, n_pframes=5, seed=3)
    payload = GopPayload.from_frames(frames)
    rebuilt = payload.reconstruct_frames()
    for a, b in zip(frames, rebuilt):
        assert np.array_equal(a, b)


def test_gop_clamps_extreme_differences():
    a = np.zeros((16, 16), dtype=np.uint8)
    b = np.full((16, 16), 255, dtype=np.uint8)
    payload = GopPayload.from_frames([a, b])
    rebuilt = payload.reconstruct_frames()
    assert rebuilt[1].max() == 127  # +127 is the largest representable step


def test_gop_stream_round_trip():
    frames = synthetic_gop(16, n_pframes=4, seed=4)
    payload = GopPayload.from_frames(frames)
    streams = payload.frame_streams()
    assert len(streams) == 5
    back = payload.with_received(streams)
    assert np.array_equal(back.i_frame, payload.i_frame)
    for x, y in zip(back.p_frames, payload.p_frames):
        assert np.array_equal(x, y)


def test_gop_dimension_validation():
    with pytest.raises(ValueError):
        GopPayload(np.zeros((8, 8), np.uint8), [np.zeros((4, 4), np.uint8)])


# -- pgm --------------------------------------------------------------------


def test_pgm_round_trip():
    img = synthetic_image(48, seed=5)
    assert np.array_equal(read_pgm(write_pgm(img)), img)


def test_pgm_header_with_comments():
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    data = b"P5\n# comment line\n4 3\n# another\n255\n" + img.tobytes()
    assert np.array_equal(read_pgm(data), img)


@pytest.mark.parametrize(
    "data",
    [b"P2\n2 2\n255\n1234", b"P5\n2 2\n65535\n" + b"\0" * 8, b"P5\n4 4\n255\n\0\0"],
)
def test_pgm_rejects_malformed(data):
    with pytest.raises(ValueError):
        read_pgm(data)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_pgm_round_trip_random(seed):
    rng = substream(seed, 0)
    img = rng.integers(0, 256, (rng.integers(1, 20), rng.integers(1, 20)), dtype=np.uint8)
    assert np.array_equal(read_pgm(write_pgm(img)), img)


def test_gop_pgm_sequence_round_trip(tmp_path):
    from uepsim.approxtx.pgm import load_gop, save_gop

    frames = synthetic_gop(16, n_pframes=3, seed=11)
    save_gop(tmp_path / "gop", frames)
    back = load_gop(tmp_path / "gop")
    assert len(back) == 4
    assert all(np.array_equal(a, b) for a, b in zip(frames, back))
    with pytest.raises(ValueError):
        load_gop(tmp_path / "empty")


def test_payload_equality_is_identity():
    # a field-wise == would compare the ndarray fields and raise
    pages = [make_webpage((8, 24), 3, substream(4, 0)) for _ in range(2)]
    gops = [GopPayload.from_frames(synthetic_gop(12, n_pframes=2, seed=5)) for _ in range(2)]
    for a, b in (pages, gops):
        assert a == a
        assert a != b
