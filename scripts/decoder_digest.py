#!/usr/bin/env python3
"""Fingerprint the polar CA-SCL and LDPC BP decoders' outputs on a seeded corpus.

Polar cells are the (1024, 512) CRC-12 code at Eb/No 1.0, 1.5 and 2.0 dB
and list sizes 1, 8 and 32; LDPC cells are the PEG (1024, 512) code of
seed 1 at the same Eb/No points. For every cell the script decodes the same
received words and prints the word count, the decode throughput and a
SHA-256 digest of the outputs. Two decoder versions that print the same
digests decode every word of the corpus to the same payload and flag (CRC
pass for polar, convergence for LDPC).

    python3 scripts/decoder_digest.py --words 20000 --save new.npz
    python3 scripts/decoder_digest.py --words 20000 --against old.npz

``--save`` keeps the raw outputs; ``--against`` counts, per cell, the words
whose payload or flag differs from a saved run.

Corpus: word i of a cell is block i // 128, row i % 128 of the blocks drawn
from ``substream(SEED, round(100 * ebno), block)`` (payload bits, then
channel noise), so the first words are the same whatever ``--words`` is, and
every list size decodes the same received words. The digest hashes, block
by block, the payload bytes followed by the flag bytes.
``--words 128`` prints the digests pinned in ``tests/test_polar.py`` and
``tests/test_ldpc.py``.
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

N, K = 1024, 512  # the paper's codes; polar with the default CRC-12
EBNOS = (1.0, 1.5, 2.0)  # dB
LISTS = (1, 8, 32)  # polar list sizes
SEED = 1
LDPC_SEED = 1  # PEG construction seed
BLOCK = 128  # words drawn per substream


def corpus(spec, ebno_db: float, words: int) -> np.ndarray:
    """(words, N) channel LLRs of random payloads sent at ``ebno_db``."""
    chan = ChannelConfig(ebno_db, fec.code_rate(spec))
    blocks = []
    for b in range(-(-words // BLOCK)):
        rng = substream(SEED, round(100 * ebno_db), b)
        payloads = rng.integers(0, 2, (BLOCK, fec.payload_length(spec))).astype(np.uint8)
        blocks.append(transmit_batch(fec.encode_batch(spec, payloads), chan, rng))
    return np.concatenate(blocks)[:words]


def digest(payloads: np.ndarray, flags: np.ndarray) -> str:
    h = hashlib.sha256()
    for lo in range(0, len(payloads), BLOCK):
        h.update(np.ascontiguousarray(payloads[lo : lo + BLOCK]).tobytes())
        h.update(np.ascontiguousarray(flags[lo : lo + BLOCK]).tobytes())
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

    codes = [  # (spec, list sizes); LDPC decodes once per Eb/No, list size None
        (fec.construct_polar_code(N, K, crc_len=fec.DEFAULT_CRC_LEN), LISTS),
        (fec.generate_ldpc_code(N, K, seed=LDPC_SEED), (None,)),
    ]
    ref = None
    if args.against:
        with np.load(args.against) as saved_run:
            ref = dict(saved_run)
    saved = {}
    header = "code,n,k,crc,ebno_db,list_size,words,words_per_s,sha256"
    print(header + (",mismatches" if ref is not None else ""))
    for ebno in EBNOS:
        for spec, lists in codes:
            polar = fec.code_kind(spec) == fec.POLAR
            llrs = corpus(spec, ebno, args.words)
            for lst in lists:
                payloads = np.empty((args.words, fec.payload_length(spec)), dtype=np.uint8)
                flags = np.empty(args.words, dtype=bool)
                t0 = time.perf_counter()
                for lo in range(0, args.words, args.batch):
                    hi = lo + args.batch
                    payloads[lo:hi], flags[lo:hi] = fec.decode_batch(spec, llrs[lo:hi], lst)
                rate = args.words / (time.perf_counter() - t0)
                code, crc = ("polar", spec.crc_len) if polar else ("ldpc", 0)
                row = f"{code},{N},{K},{crc},{ebno},{lst or '-'},{args.words},{rate:.1f},"
                row += digest(payloads, flags)
                # polar keys keep the form of earlier saved runs
                key = f"{ebno}_{lst}" if polar else f"ldpc_{ebno}"
                flag_key = ("crc_pass_" if polar else "converged_") + key
                if ref is not None:
                    old_p, old_f = ref.get(f"payloads_{key}"), ref.get(flag_key)
                    if old_p is None or old_p.shape != payloads.shape:
                        ap.error(f"{args.against} holds a different corpus for cell {key}")
                    bad = (old_p != payloads).any(axis=1) | (old_f != flags)
                    row += f",{int(bad.sum())}"
                print(row, flush=True)
                saved[f"payloads_{key}"], saved[flag_key] = payloads, flags
    if args.save:
        np.savez_compressed(args.save, **saved)
    return 0


if __name__ == "__main__":
    sys.exit(main())
