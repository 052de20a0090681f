"""Polar construction, encoding (against the explicit matrix oracle), and
CA-SCL decoding."""

import hashlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uepsim import fec
from uepsim.channel import ChannelConfig, transmit_batch
from uepsim.fec import crc as crcmod
from uepsim.fec import polar
from uepsim.rng import substream


def kronecker_power_matrix(m: int) -> np.ndarray:
    """Independent oracle: explicit F^(x m) built by repeated np.kron."""
    f = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    g = np.array([[1]], dtype=np.uint8)
    for _ in range(m):
        g = np.kron(f, g) % 2
    return g


def noiseless_llrs(codewords, scale=20.0):
    return (1.0 - 2.0 * codewords.astype(np.float64)) * scale


# -- construction -----------------------------------------------------------


def test_two_bit_code_freezes_position_zero():
    # one Bhattacharyya step: z+ = z^2 <= 2z - z^2 = z- on [0, 1]
    for ebno in (-2.0, 0.0, 2.0, 6.0):
        spec = fec.construct_polar_code(2, 1, ebno)
        assert spec.frozen_set == frozenset({0})
        assert list(spec.info_positions) == [1]


def test_half_rate_code_has_half_frozen():
    spec = fec.construct_polar_code(1024, 512)
    assert len(spec.frozen_set) == 512
    assert len(spec.info_positions) == 512


def test_full_rate_code_has_no_frozen():
    spec = fec.construct_polar_code(8, 8)
    assert spec.frozen_set == frozenset()
    assert sorted(spec.reliability_order) == list(range(8))


def test_construction_validation():
    with pytest.raises(ValueError):
        fec.construct_polar_code(12, 6)  # not a power of two
    with pytest.raises(ValueError):
        fec.construct_polar_code(8, 9)  # K > N
    with pytest.raises(ValueError):
        fec.construct_polar_code(8, 4, crc_len=4)  # crc eats whole budget


def test_spec_json_round_trip():
    spec = fec.construct_polar_code(64, 32, 2.0, crc_len=8)
    back = polar.PolarCodeSpec.from_json(spec.to_json())
    assert back.frozen_set == spec.frozen_set
    assert np.array_equal(back.reliability_order, spec.reliability_order)
    assert back.crc_len == spec.crc_len and back.crc_poly == spec.crc_poly


def test_spec_equality_is_identity():
    # a field-wise == would compare the ndarray fields and raise
    a, b = fec.construct_polar_code(8, 4), fec.construct_polar_code(8, 4)
    assert a == a
    assert a != b


# -- encoding ---------------------------------------------------------------


def test_transform_matches_kronecker_oracle():
    rng = substream(7, 0)
    for m in range(1, 7):
        n = 2**m
        g = kronecker_power_matrix(m)
        u = rng.integers(0, 2, (32, n)).astype(np.uint8)
        assert np.array_equal(polar.polar_transform(u), (u @ g) % 2)


def test_single_high_bit_gives_all_ones_codeword():
    spec = fec.construct_polar_code(8, 8)
    u = np.zeros(8, dtype=np.uint8)
    u[7] = 1
    assert np.array_equal(fec.polar_encode(spec, u), np.ones(8, dtype=np.uint8))


def test_two_low_bits_fix_index_convention():
    # oracle output of (1,1,0,...,0) . F^(x 3): rows 0 xor 1 of the matrix
    spec = fec.construct_polar_code(8, 8)
    u = np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=np.uint8)
    expected = (kronecker_power_matrix(3)[0] + kronecker_power_matrix(3)[1]) % 2
    got = fec.polar_encode(spec, u)
    assert np.array_equal(got, expected)
    assert np.array_equal(got, np.array([0, 1, 0, 0, 0, 0, 0, 0], dtype=np.uint8))


def test_all_zero_payload_gives_all_zero_codeword():
    spec = fec.construct_polar_code(16, 8, crc_len=4)
    cw = fec.polar_encode(spec, np.zeros(4, dtype=np.uint8))
    assert not cw.any()


def test_encode_rejects_wrong_length():
    spec = fec.construct_polar_code(16, 8, crc_len=4)
    with pytest.raises(ValueError):
        fec.polar_encode(spec, np.zeros(8, dtype=np.uint8))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**8 - 1), st.integers(0, 2**8 - 1))
def test_encode_is_linear(a, b):
    spec = fec.construct_polar_code(16, 8)
    pa = np.array([(a >> i) & 1 for i in range(8)], dtype=np.uint8)
    pb = np.array([(b >> i) & 1 for i in range(8)], dtype=np.uint8)
    lhs = fec.polar_encode(spec, pa ^ pb)
    rhs = fec.polar_encode(spec, pa) ^ fec.polar_encode(spec, pb)
    assert np.array_equal(lhs, rhs)


def test_frozen_positions_ignore_payload():
    # decoding treats frozen u-positions as 0 whatever the payload was
    spec = fec.construct_polar_code(16, 8)
    rng = substream(8, 0)
    payloads = rng.integers(0, 2, (64, 8)).astype(np.uint8)
    decoded, _ = fec.polar_decode_cascl_batch(
        spec, noiseless_llrs(fec.polar_encode_batch(spec, payloads)), 1
    )
    assert np.array_equal(decoded, payloads)


# -- decoding ---------------------------------------------------------------


@pytest.mark.parametrize("n,k,crc,lst", [(8, 4, 0, 1), (16, 8, 0, 4), (64, 32, 8, 8)])
def test_noiseless_round_trip(n, k, crc, lst):
    spec = fec.construct_polar_code(n, k, 2.0, crc)
    rng = substream(9, n, k)
    payloads = rng.integers(0, 2, (50, spec.payload_len)).astype(np.uint8)
    decoded, ok = fec.polar_decode_cascl_batch(
        spec, noiseless_llrs(fec.polar_encode_batch(spec, payloads)), lst
    )
    assert np.array_equal(decoded, payloads)
    assert ok.all()


def test_exhaustive_round_trip_16_8():
    spec = fec.construct_polar_code(16, 8)
    payloads = np.array(
        [[(v >> i) & 1 for i in range(8)] for v in range(256)], dtype=np.uint8
    )
    decoded, _ = fec.polar_decode_cascl_batch(
        spec, noiseless_llrs(fec.polar_encode_batch(spec, payloads)), 2
    )
    assert np.array_equal(decoded, payloads)


def test_single_flip_recovered_with_list_8():
    spec = fec.construct_polar_code(16, 8)
    rng = substream(10, 0)
    payload = rng.integers(0, 2, (1, 8)).astype(np.uint8)
    base = noiseless_llrs(fec.polar_encode_batch(spec, payload), scale=10.0)
    flipped = np.repeat(base, 16, axis=0)
    flipped[np.arange(16), np.arange(16)] *= -1.0
    decoded, _ = fec.polar_decode_cascl_batch(spec, flipped, 8)
    assert np.array_equal(decoded, np.repeat(payload, 16, axis=0))


def test_decode_rejects_wrong_length():
    spec = fec.construct_polar_code(16, 8)
    with pytest.raises(ValueError):
        fec.polar_decode_cascl(spec, np.zeros(8), 1)


def test_crc_flags_failure_on_garbage():
    spec = fec.construct_polar_code(64, 32, crc_len=8)
    rng = substream(11, 0)
    garbage = rng.normal(0, 1, (20, 64))
    _, ok = fec.polar_decode_cascl_batch(spec, garbage, 2)
    assert not ok.all()  # random soft values cannot all satisfy an 8-bit CRC


def test_bler_improves_with_ebno():
    # paired Monte Carlo at 1 dB vs 2 dB via common noise scaled per channel
    spec = fec.construct_polar_code(128, 64, 2.0, crc_len=0)
    rng = substream(12, 0)
    payloads = rng.integers(0, 2, (1000, 64)).astype(np.uint8)
    cw = fec.polar_encode_batch(spec, payloads)
    blers = {}
    for ebno in (1.0, 2.0):
        cfg = ChannelConfig(ebno, 0.5, rng_seed=33)
        llrs = np.stack(
            [transmit_batch(cw[i : i + 1], cfg, substream(33, i))[0] for i in range(len(cw))]
        )
        decoded, _ = fec.polar_decode_cascl_batch(spec, llrs, 8)
        blers[ebno] = (decoded != payloads).any(axis=1).mean()
    assert blers[2.0] < blers[1.0]


def test_larger_list_never_worse_on_paired_noise():
    spec = fec.construct_polar_code(128, 64, 2.0, crc_len=8)
    cfg = ChannelConfig(1.5, 0.5, rng_seed=44)
    rng = substream(44, 0)
    payloads = rng.integers(0, 2, (600, spec.payload_len)).astype(np.uint8)
    cw = fec.polar_encode_batch(spec, payloads)
    llrs = np.stack(
        [transmit_batch(cw[i : i + 1], cfg, substream(45, i))[0] for i in range(len(cw))]
    )
    dec1, _ = fec.polar_decode_cascl_batch(spec, llrs, 1)
    dec8, _ = fec.polar_decode_cascl_batch(spec, llrs, 8)
    bler1 = (dec1 != payloads).any(axis=1).mean()
    bler8 = (dec8 != payloads).any(axis=1).mean()
    assert bler8 <= bler1


# -- decoder equivalence ------------------------------------------------------


def _ref_leaf_llr(llr, u):
    """SC LLR of leaf len(u) given the decided bits u, by direct recursion."""
    if len(llr) == 1:
        return llr[0]
    half = len(llr) // 2
    if len(u) < half:
        a, b = llr[:half], llr[half:]
        return _ref_leaf_llr(np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b)), u)
    sgn = 1.0 - 2.0 * polar.polar_transform(np.array(u[:half], dtype=np.uint8))
    return _ref_leaf_llr(llr[half:] + sgn * llr[:half], u[half:])


def reference_scl(spec, llr, list_size):
    """Per-word SCL with eager path copies: (payload, crc_pass)."""
    paths = [(0.0, [])]  # (path metric, decided u bits)
    for i in range(spec.n_total):
        lams = [_ref_leaf_llr(llr, u) for _, u in paths]
        if i in spec.frozen_set:
            paths = [
                (pm + (-lam if lam < 0 else 0.0), u + [0]) for (pm, u), lam in zip(paths, lams)
            ]
            continue
        cands = [(pm + max(-lam, 0.0), u + [0]) for (pm, u), lam in zip(paths, lams)]
        cands += [(pm + max(lam, 0.0), u + [1]) for (pm, u), lam in zip(paths, lams)]
        # a list that still has room keeps every child, unsorted; once full,
        # a stable sort keeps the list_size best
        paths = cands if len(cands) <= list_size else sorted(cands, key=lambda c: c[0])[:list_size]
    blocks = np.array([u for _, u in paths], dtype=np.uint8)[:, spec.info_positions]
    ok = crcmod.crc_check(blocks, spec._crc_matrix)
    pms = [pm for pm, _ in paths]
    best = min(range(len(paths)), key=lambda j: (not ok[j], pms[j]))
    return blocks[best, : spec.payload_len], bool(ok.any()) or spec.crc_len == 0


DECIMAL_LLRS = (-0.7, -0.3, -0.2, -0.1, 0.1, 0.2, 0.3, 0.7)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([16, 32]),
    st.sampled_from([1, 2, 4, 8]),
    st.sampled_from([0, 4]),
    st.data(),
)
def test_batched_decoder_matches_eager_reference(n, lst, crc_len, data):
    # a small k leaves the list still filling (cur_l < L) at the last leaf
    k = data.draw(st.integers(crc_len + 1, n - 1), label="k")
    spec = fec.construct_polar_code(n, k, 2.0, crc_len, crc_poly=0x3)
    # half-precision values and small integers make exact path-metric ties
    # common; repeated decimals, whose float sums round, make path metrics
    # depend on the order in which penalties are added
    llr_value = st.one_of(
        st.floats(-6, 6, width=16),
        st.integers(-2, 2).map(float),
        st.sampled_from(DECIMAL_LLRS),
    )
    llr_rows = st.lists(llr_value, min_size=n, max_size=n)
    llrs = np.array(data.draw(st.lists(llr_rows, min_size=1, max_size=4), label="llrs"))
    _assert_matches_reference(spec, llrs, lst)


TIED_CASES = [(16, 12, 0, 2), (16, 6, 4, 4), (32, 8, 4, 8), (32, 12, 0, 4)]


@pytest.mark.parametrize("n,k,crc_len,lst", TIED_CASES)
def test_batched_decoder_matches_eager_reference_on_tied_metrics(n, k, crc_len, lst):
    # integer LLRs tie many path metrics, so list order and tie-breaks decide
    spec = fec.construct_polar_code(n, k, 2.0, crc_len, crc_poly=0x3)
    llrs = substream(13, n, k, lst).integers(-2, 3, (100, n)).astype(np.float64)
    _assert_matches_reference(spec, llrs, lst)


@pytest.mark.parametrize("n,k,crc_len,lst", TIED_CASES)
def test_batched_decoder_matches_eager_reference_on_decimal_llrs(n, k, crc_len, lst):
    # repeated decimals tie path metrics in real arithmetic, but their float
    # sums round, so a decoder that adds the penalties in another order than
    # leaf by leaf (one sum per all-frozen subtree, say) decodes some words
    # differently
    spec = fec.construct_polar_code(n, k, 2.0, crc_len, crc_poly=0x3)
    llrs = substream(13, n, k, lst).choice(DECIMAL_LLRS, (100, n))
    _assert_matches_reference(spec, llrs, lst)


def _assert_matches_reference(spec, llrs, lst):
    payloads, crc_pass = fec.polar_decode_cascl_batch(spec, llrs, lst)
    for row, payload, ok in zip(llrs, payloads, crc_pass):
        ref_payload, ref_ok = reference_scl(spec, row, lst)
        assert np.array_equal(payload, ref_payload)
        assert ok == ref_ok


def _noisy_llrs(spec, ebno_db, words, seed):
    rng = substream(seed, round(100 * ebno_db), 0)
    payloads = rng.integers(0, 2, (words, spec.payload_len)).astype(np.uint8)
    chan = ChannelConfig(ebno_db, fec.code_rate(spec))
    return transmit_batch(fec.polar_encode_batch(spec, payloads), chan, rng)


# `python3 scripts/decoder_digest.py --words 128` prints these digests
GOLDEN_DIGESTS = {
    (1.0, 1): "841250888a7f49ac0dbd9544de174d08aa22a8f2cb7e9c5a48c2819ca14d5add",
    (1.0, 8): "20d45d3566bb4fc0fd8b03d81580b844e15d60c896b290b06b6499e4e817fc24",
    (1.0, 32): "cbf4d1c005083f7bdce66a710a2e8a770a56d2e8d603fccf0d33a28a69d53428",
    (1.5, 1): "d65b67f5385cac4e043b1adb3233d10adf33cfac9264c6dc98a9fed6e5ae275c",
    (1.5, 8): "05e6d5c264f6913e642a4f4433901af6123be14ec862950f7f160cda2339d460",
    (1.5, 32): "93b6f7ce945ec74da5560a0b7d2da7310dc14111b520cedca79cecdfaaf0f0db",
    (2.0, 1): "f197e12656473ec0b15aa2df54acb5e9317fbf367e2c48d65945629fe697c743",
    (2.0, 8): "52f6e6aa91f07d2c8c61ba9f1c5d58334cc87686022cac58c374ba0470ae32ae",
    (2.0, 32): "52f6e6aa91f07d2c8c61ba9f1c5d58334cc87686022cac58c374ba0470ae32ae",
}


@pytest.mark.parametrize("ebno", [1.0, 1.5, 2.0])
def test_decoder_outputs_match_pinned_digests(polar_crc_code, ebno):
    llrs = _noisy_llrs(polar_crc_code, ebno, 128, seed=1)
    for lst in (1, 8, 32):
        payloads, crc_pass = fec.polar_decode_cascl_batch(polar_crc_code, llrs, lst)
        got = hashlib.sha256(payloads.tobytes() + crc_pass.tobytes()).hexdigest()
        assert got == GOLDEN_DIGESTS[(ebno, lst)], f"L={lst}"


def test_decode_is_batch_size_invariant():
    spec = fec.construct_polar_code(64, 32, 2.0, crc_len=8)
    llrs = _noisy_llrs(spec, 1.0, 600, seed=2)  # one call spans two internal blocks
    whole = fec.polar_decode_cascl_batch(spec, llrs, 4)
    assert not whole[1].all()  # the corpus holds decoding failures too
    for chunk in (1, 7, 64):
        parts = [fec.polar_decode_cascl_batch(spec, llrs[lo : lo + chunk], 4)
                 for lo in range(0, len(llrs), chunk)]
        assert np.concatenate([p for p, _ in parts]).tobytes() == whole[0].tobytes()
        assert np.concatenate([c for _, c in parts]).tobytes() == whole[1].tobytes()


def test_threads_decoding_on_one_spec_match_serial():
    spec = fec.construct_polar_code(64, 32, 2.0, crc_len=8)
    batches = [_noisy_llrs(spec, 1.0, 24, seed=s) for s in (3, 4)]
    serial = [fec.polar_decode_cascl_batch(spec, b, 8) for b in batches]
    results = [[], []]

    def work(t):
        for _ in range(20):
            results[t].append(fec.polar_decode_cascl_batch(spec, batches[t], 8))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in (0, 1)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    for t in (0, 1):
        assert len(results[t]) == 20
        for payloads, crc_pass in results[t]:
            assert np.array_equal(payloads, serial[t][0])
            assert np.array_equal(crc_pass, serial[t][1])
