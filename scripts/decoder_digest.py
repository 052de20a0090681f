#!/usr/bin/env python3
"""Fingerprint the polar CA-SCL decoder's outputs on a seeded corpus.

For every (Eb/No, list size) cell of the (1024, 512) CRC-12 code, at Eb/No
1.0, 1.5 and 2.0 dB and list sizes 1, 8 and 32, the script decodes the same
received words and prints the word count, the decode throughput and a
SHA-256 digest of the outputs. Two decoder versions that
print the same digests decode every word of the corpus to the same payload
and CRC flag.

    python3 scripts/decoder_digest.py --words 20000 --save new.npz
    python3 scripts/decoder_digest.py --words 20000 --against old.npz

``--save`` keeps the raw outputs; ``--against`` counts, per cell, the words
whose payload or CRC flag differs from a saved run.

Corpus: word i of a cell is block i // 128, row i % 128 of the blocks drawn
from ``substream(SEED, round(100 * ebno), block)`` (payload bits, then
channel noise), so the first words are the same whatever ``--words`` is, and
every list size decodes the same received words. The digest hashes, block
by block, the payload bytes followed by the CRC-flag bytes.
``--words 128`` prints the digests pinned in ``tests/test_polar.py``.
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from uepsim import fec
from uepsim.channel import ChannelConfig, transmit_batch
from uepsim.rng import substream

N, K = 1024, 512  # the paper's code, with the default CRC-12
EBNOS = (1.0, 1.5, 2.0)  # dB
LISTS = (1, 8, 32)
SEED = 1
BLOCK = 128  # words drawn per substream


def corpus(spec, ebno_db: float, words: int) -> np.ndarray:
    """(words, N) channel LLRs of random payloads sent at ``ebno_db``."""
    chan = ChannelConfig(ebno_db, fec.code_rate(spec))
    blocks = []
    for b in range(-(-words // BLOCK)):
        rng = substream(SEED, round(100 * ebno_db), b)
        payloads = rng.integers(0, 2, (BLOCK, spec.payload_len)).astype(np.uint8)
        blocks.append(transmit_batch(fec.polar_encode_batch(spec, payloads), chan, rng))
    return np.concatenate(blocks)[:words]


def digest(payloads: np.ndarray, crc_pass: np.ndarray) -> str:
    h = hashlib.sha256()
    for lo in range(0, len(payloads), BLOCK):
        h.update(np.ascontiguousarray(payloads[lo : lo + BLOCK]).tobytes())
        h.update(np.ascontiguousarray(crc_pass[lo : lo + BLOCK]).tobytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--words", type=int, default=BLOCK, help="words per cell")
    ap.add_argument("--batch", type=int, default=512, help="rows per decode call")
    ap.add_argument("--save", type=Path, help="write every cell's outputs to this .npz")
    ap.add_argument("--against", type=Path, help="count mismatches against a --save file")
    args = ap.parse_args(argv)
    if args.words < 1 or args.batch < 1:
        ap.error("--words and --batch must be positive")

    spec = fec.construct_polar_code(N, K, crc_len=fec.DEFAULT_CRC_LEN)
    ref = None
    if args.against:
        with np.load(args.against) as saved_run:
            ref = dict(saved_run)
    saved = {}
    header = "n,k,crc,ebno_db,list_size,words,words_per_s,sha256"
    print(header + (",mismatches" if ref is not None else ""))
    for ebno in EBNOS:
        llrs = corpus(spec, ebno, args.words)
        for lst in LISTS:
            payloads = np.empty((args.words, spec.payload_len), dtype=np.uint8)
            crc_pass = np.empty(args.words, dtype=bool)
            t0 = time.perf_counter()
            for lo in range(0, args.words, args.batch):
                hi = lo + args.batch
                payloads[lo:hi], crc_pass[lo:hi] = fec.polar_decode_cascl_batch(
                    spec, llrs[lo:hi], lst
                )
            rate = args.words / (time.perf_counter() - t0)
            row = f"{N},{K},{spec.crc_len},{ebno},{lst},{args.words},{rate:.1f},"
            row += digest(payloads, crc_pass)
            key = f"{ebno}_{lst}"
            if ref is not None:
                old_p, old_c = ref.get(f"payloads_{key}"), ref.get(f"crc_pass_{key}")
                if old_p is None or old_p.shape != payloads.shape:
                    ap.error(f"{args.against} holds a different corpus for cell {key}")
                bad = (old_p != payloads).any(axis=1) | (old_c != crc_pass)
                row += f",{int(bad.sum())}"
            print(row, flush=True)
            saved[f"payloads_{key}"], saved[f"crc_pass_{key}"] = payloads, crc_pass
    if args.save:
        np.savez_compressed(args.save, **saved)
    return 0


if __name__ == "__main__":
    sys.exit(main())
