"""LDPC construction, alist handling, systematic encoding, and BP decoding."""

import hashlib
import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uepsim import fec
from uepsim.channel import ChannelConfig, transmit_batch, uncoded_ber
from uepsim.fec import alist, ldpc
from uepsim.rng import substream

from conftest import TOY_H


def noiseless_llrs(codewords, scale=12.0):
    return (1.0 - 2.0 * codewords.astype(np.float64)) * scale


# -- alist ------------------------------------------------------------------


def test_toy_matrix_loads_with_paper_dimensions(toy_ldpc):
    assert toy_ldpc.n_total == 6
    assert toy_ldpc.parity_check.shape == (4, 6)
    assert np.array_equal(toy_ldpc.parity_check, TOY_H)
    # the 4x6 matrix has rank 3
    assert toy_ldpc.k_info == 3


def test_alist_round_trip(ldpc_code):
    back = fec.load_ldpc_matrix(fec.write_alist(ldpc_code))
    assert np.array_equal(back.parity_check, ldpc_code.parity_check)


def test_alist_rejects_inconsistent_rows():
    text = alist.format_alist(TOY_H)
    lines = text.splitlines()
    # corrupt one row adjacency line (rows come after the 4 header + 6 column lines)
    lines[10] = "1 2"
    with pytest.raises(ValueError):
        fec.load_ldpc_matrix("\n".join(lines))


def test_alist_rejects_truncation():
    with pytest.raises(ValueError):
        fec.load_ldpc_matrix("6 4\n3 3\n")


def test_spec_json_round_trip(toy_ldpc):
    back = ldpc.LdpcCodeSpec.from_json(toy_ldpc.to_json())
    assert np.array_equal(back.parity_check, toy_ldpc.parity_check)
    assert back.k_info == toy_ldpc.k_info
    assert back != toy_ldpc  # identity, not a field-wise compare of the arrays


def test_empty_column_fails_when_the_spec_is_built():
    # column 6 of this 4x7 matrix has no edge; belief propagation cannot use it
    rows = [[int(c) for c in np.flatnonzero(r)] for r in TOY_H]
    with pytest.raises(ValueError, match="empty column"):
        ldpc.LdpcCodeSpec.from_json(json.dumps({"n_total": 7, "k_info": 4, "rows": rows}))


# -- construction -----------------------------------------------------------


def test_generate_is_deterministic():
    a = fec.generate_ldpc_code(256, 128, seed=5)
    b = fec.generate_ldpc_code(256, 128, seed=5)
    assert np.array_equal(a.parity_check, b.parity_check)


def test_generated_column_weights(ldpc_code):
    weights = ldpc_code.parity_check.sum(axis=0)
    assert weights.min() >= 2
    # documented irregular profile: 50 heavy info columns, then weight 3
    assert (weights[:50] == ldpc.HIGH_COL_WEIGHT).all()
    assert (weights[50:512] == ldpc.BASE_COL_WEIGHT).all()


def test_generated_code_is_full_rank(ldpc_code):
    assert len(ldpc_code.pivot_positions) == 512
    assert np.array_equal(ldpc_code.info_positions, np.arange(512))


def test_generated_code_has_girth_at_least_six(ldpc_code):
    h = ldpc_code.parity_check.astype(np.float32)
    gram = h.T @ h
    np.fill_diagonal(gram, 0.0)
    assert gram.max() <= 1.0  # no two columns share two rows = no 4-cycles


def test_generate_rejects_bad_shapes():
    with pytest.raises(ValueError):
        fec.generate_ldpc_code(100, 100, seed=0)
    with pytest.raises(ValueError):
        fec.generate_ldpc_code(100, 98, seed=0)  # accumulator needs 4 parity cols
    with pytest.raises(ValueError):
        fec.generate_ldpc_code(12, 4, seed=0)  # heavy column outweighs 8 rows


# -- encoding ---------------------------------------------------------------


def test_toy_code_exhaustive_syndrome_and_systematic(toy_ldpc):
    for v in range(2**toy_ldpc.k_info):
        payload = np.array([(v >> i) & 1 for i in range(toy_ldpc.k_info)], dtype=np.uint8)
        cw = fec.ldpc_encode(toy_ldpc, payload)
        assert not fec.syndrome(toy_ldpc, cw).any()
        assert np.array_equal(cw[toy_ldpc.info_positions], payload)


def test_paper_example_word_is_a_codeword(toy_ldpc):
    word = np.array([0, 1, 1, 1, 1, 0], dtype=np.uint8)
    assert not fec.syndrome(toy_ldpc, word).any()


def test_all_zero_payload_encodes_to_zero(ldpc_code):
    assert not fec.ldpc_encode(ldpc_code, np.zeros(512, dtype=np.uint8)).any()


def test_single_flip_has_nonzero_syndrome(toy_ldpc):
    cw = fec.ldpc_encode(toy_ldpc, np.array([1, 0, 1], dtype=np.uint8))
    for i in range(6):
        bad = cw.copy()
        bad[i] ^= 1
        assert fec.syndrome(toy_ldpc, bad).any()


def test_encode_rejects_wrong_length(toy_ldpc):
    with pytest.raises(ValueError):
        fec.ldpc_encode(toy_ldpc, np.zeros(4, dtype=np.uint8))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1))
def test_encode_is_linear(a, b):
    spec = fec.generate_ldpc_code(24, 12, seed=3)
    pa = np.array([(a >> i) & 1 for i in range(12)], dtype=np.uint8)
    pb = np.array([(b >> i) & 1 for i in range(12)], dtype=np.uint8)
    lhs = fec.ldpc_encode(spec, pa ^ pb)
    rhs = fec.ldpc_encode(spec, pa) ^ fec.ldpc_encode(spec, pb)
    assert np.array_equal(lhs, rhs)


# -- decoding ---------------------------------------------------------------


def test_noiseless_round_trip_converges_immediately(toy_ldpc):
    payloads = np.array(
        [[(v >> i) & 1 for i in range(3)] for v in range(8)], dtype=np.uint8
    )
    cw = fec.ldpc_encode_batch(toy_ldpc, payloads)
    decoded, conv = fec.ldpc_decode_bp_batch(toy_ldpc, noiseless_llrs(cw), max_iters=0)
    assert np.array_equal(decoded, payloads)
    assert conv.all()


def test_toy_single_flip_corrected_within_five_iterations(toy_ldpc):
    for v in range(8):
        payload = np.array([(v >> i) & 1 for i in range(3)], dtype=np.uint8)
        llrs = noiseless_llrs(fec.ldpc_encode(toy_ldpc, payload))[None, :]
        for i in range(6):
            bad = llrs.copy()
            bad[0, i] *= -1.0
            decoded, conv = fec.ldpc_decode_bp_batch(toy_ldpc, bad, max_iters=5)
            assert conv[0] and np.array_equal(decoded[0], payload)


def test_total_erasure_does_not_converge(toy_ldpc):
    _, conv = fec.ldpc_decode_bp(toy_ldpc, np.zeros(6))
    assert not conv


def test_decode_rejects_wrong_length(toy_ldpc):
    with pytest.raises(ValueError):
        fec.ldpc_decode_bp(toy_ldpc, np.zeros(5))


def test_random_round_trips_full_size(ldpc_code):
    rng = substream(21, 0)
    payloads = rng.integers(0, 2, (200, 512)).astype(np.uint8)
    cw = fec.ldpc_encode_batch(ldpc_code, payloads)
    decoded, conv = fec.ldpc_decode_bp_batch(ldpc_code, noiseless_llrs(cw))
    assert np.array_equal(decoded, payloads)
    assert conv.all()


def test_coded_ber_beats_uncoded_at_2db(ldpc_code):
    cfg = ChannelConfig(2.0, 0.5, rng_seed=77)
    payloads = np.zeros((400, 512), dtype=np.uint8)  # linear code: zero word suffices
    cw = fec.ldpc_encode_batch(ldpc_code, payloads)
    llrs = np.stack(
        [transmit_batch(cw[i : i + 1], cfg, substream(77, i))[0] for i in range(len(cw))]
    )
    decoded, _ = fec.ldpc_decode_bp_batch(ldpc_code, llrs)
    ber = decoded.mean()
    assert ber < uncoded_ber(2.0)


# -- row independence ---------------------------------------------------------


@pytest.fixture(scope="module")
def small_ldpc():
    return fec.generate_ldpc_code(128, 64, seed=2)


def _noisy_llrs(spec, ebno_db, words, seed):
    rng = substream(seed, round(100 * ebno_db), 0)
    payloads = rng.integers(0, 2, (words, spec.k_info)).astype(np.uint8)
    chan = ChannelConfig(ebno_db, fec.code_rate(spec))
    return transmit_batch(fec.ldpc_encode_batch(spec, payloads), chan, rng)


def _decode_in_chunks(spec, llrs, chunk):
    parts = [fec.ldpc_decode_bp_batch(spec, llrs[lo : lo + chunk])
             for lo in range(0, len(llrs), chunk)]
    return np.concatenate([p for p, _ in parts]), np.concatenate([c for _, c in parts])


def test_decode_is_batch_size_invariant(small_ldpc):
    llrs = _noisy_llrs(small_ldpc, 1.5, 600, seed=1)
    whole = fec.ldpc_decode_bp_batch(small_ldpc, llrs)
    assert 0 < whole[1].mean() < 1  # converged and failed words both occur
    for chunk in (1, 7, 64):
        payloads, converged = _decode_in_chunks(small_ldpc, llrs, chunk)
        assert payloads.tobytes() == whole[0].tobytes()
        assert converged.tobytes() == whole[1].tobytes()


def test_decode_across_the_row_limit_matches_chunks(small_ldpc):
    assert ldpc._MAX_DECODE_ROWS < 1100  # the call below splits internally
    llrs = _noisy_llrs(small_ldpc, 1.5, 1100, seed=2)
    whole = fec.ldpc_decode_bp_batch(small_ldpc, llrs)
    payloads, converged = _decode_in_chunks(small_ldpc, llrs, 100)
    assert payloads.tobytes() == whole[0].tobytes()
    assert converged.tobytes() == whole[1].tobytes()


def test_threads_decoding_on_one_spec_match_serial(small_ldpc):
    spec = small_ldpc
    batches = [_noisy_llrs(spec, 1.5, 24, seed=s) for s in (3, 4)]
    results = [[], []]

    def work(t):
        for _ in range(20):
            results[t].append(fec.ldpc_decode_bp_batch(spec, batches[t]))

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
    serial = [fec.ldpc_decode_bp_batch(spec, b) for b in batches]
    for t in (0, 1):
        assert len(results[t]) == 20
        for payloads, converged in results[t]:
            assert np.array_equal(payloads, serial[t][0])
            assert np.array_equal(converged, serial[t][1])


# `python3 scripts/decoder_digest.py --words 128` prints these in its ldpc rows
GOLDEN_DIGESTS = {
    1.0: "52b28c1b3d8c625b93e07b6f562a5e6a153ae6f908237ee383b0c115c038bc2d",
    1.5: "c5f8befd8fb5415e54c4f14a25d8161501874d40cba26cf7eed066641807e0be",
    2.0: "b9cf45a22a32201ecff3686e270e0561a2c67a44aed680d6d3c285999899188d",
}


@pytest.mark.parametrize("ebno", [1.0, 1.5, 2.0])
def test_decoder_outputs_match_pinned_digests(ldpc_code, ebno):
    payloads, converged = fec.ldpc_decode_bp_batch(ldpc_code, _noisy_llrs(ldpc_code, ebno, 128, 1))
    got = hashlib.sha256(payloads.tobytes() + converged.tobytes()).hexdigest()
    assert got == GOLDEN_DIGESTS[ebno]
