"""Selective-retransmission transfer of mapped payloads over the coded channel.

Each codeword is sent, decoded, and compared genie-style against the sent
bits on a protected set of payload positions; any protected mismatch
triggers a retransmission of that codeword with fresh noise. Errors on
unprotected positions stay in the received payload.

One pass serves every protected set of a comparison. The selective
mappings of a sweep and their fully protected baseline carry the same sent
bits, so ``retransmit_until_clean`` takes a stack of protected masks and
runs one send/decode/compare loop: each round it resends every codeword
that is still unclean under at least one mask, and for each mask it keeps
the first attempt at which the codeword is clean on that mask. The result
equals separate runs, one per mask, bit for bit, because

  * noise is keyed per (codeword key, attempt) from the caller's seed, so an
    attempt of a codeword sees the same channel realization whichever mask
    asked for it and whichever other rows share the batch;
  * polar and LDPC decoding are row-independent, so a codeword decodes the
    same whatever batch it is decoded in.

A codeword's accepting attempt under a larger protected set can then never
precede its accepting attempt under a smaller one, which makes the paired
retransmission monotonicity exact rather than statistical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import fec
from ..channel import ChannelConfig, transmit_keyed
from .mapping import PriorityMapping
from .payload import GopPayload, WebPagePayload

_MAX_ROUNDS = 10_000


@dataclass
class TransferStats:
    total_codewords: int
    retransmissions: int
    received_payload: object  # same type as the sent payload

    def __post_init__(self):
        if self.total_codewords <= 0 or self.retransmissions < 0:
            raise ValueError("counts must be non-negative with at least one codeword")

    @property
    def loss_fraction(self) -> float:
        return self.retransmissions / (self.total_codewords + self.retransmissions)


def assemble_bits(payload, mapping: PriorityMapping) -> np.ndarray:
    """Pack the payload streams into (n_codewords, payload_len) bit rows."""
    npos = mapping.payload_len
    if isinstance(payload, WebPagePayload):
        text, pix = payload.streams()
        n = payload.n_codewords
        bits = np.zeros((n, npos), dtype=np.uint8)
        tpos = mapping.stream_positions["text"]
        ipos = mapping.stream_positions["image"]
        if len(tpos) != payload.ratio[0] or len(ipos) != payload.ratio[1]:
            raise ValueError("mapping ratio does not match payload ratio")
        if len(tpos):
            bits[:, tpos] = text.reshape(n, len(tpos))
        if len(ipos):
            bits[:, ipos] = pix.reshape(n, len(ipos))
        return bits
    if isinstance(payload, GopPayload):
        streams = payload.frame_streams()
        if len(streams) != len(mapping.stream_positions):
            raise ValueError("mapping frame count does not match payload GOP")
        chunk = len(mapping.stream_positions["frame0"])
        n = -(-payload.frame_bits // chunk)
        bits = np.zeros((n, npos), dtype=np.uint8)
        for f, stream in enumerate(streams):
            padded = np.zeros(n * chunk, dtype=np.uint8)
            padded[: len(stream)] = stream
            bits[:, mapping.stream_positions[f"frame{f}"]] = padded.reshape(n, chunk)
        return bits
    raise TypeError(f"unsupported payload type {type(payload).__name__}")


def extract_payload(payload, mapping: PriorityMapping, received_bits: np.ndarray):
    if isinstance(payload, WebPagePayload):
        text = received_bits[:, mapping.stream_positions["text"]].reshape(-1)
        pix = received_bits[:, mapping.stream_positions["image"]].reshape(-1)
        return payload.with_received(text, pix)
    streams = [
        received_bits[:, mapping.stream_positions[f"frame{f}"]].reshape(-1)
        for f in range(len(mapping.stream_positions))
    ]
    return payload.with_received(streams)


def retransmit_until_clean(
    sent_bits: np.ndarray,
    protected: np.ndarray,
    code: fec.CodeSpec,
    cfg: ChannelConfig,
    noise_seed: int,
):
    """Core send/decode/compare loop over (n_cw, payload_len) bit rows.

    ``protected`` stacks M boolean masks, (M, payload_len). Returns
    (resent, retransmissions, received): ``resent`` is the number of rows
    sent again on the channel after the first round, ``retransmissions``
    (M,) the count each mask alone would have resent, and ``received``
    (M, n_cw, payload_len) the bits decoded at each row's accepting attempt
    under each mask. Row i draws its noise from key i.
    """
    protected = np.asarray(protected, dtype=bool)
    if protected.ndim != 2 or protected.shape[1] != sent_bits.shape[1]:
        raise ValueError(f"protected masks must be (M, {sent_bits.shape[1]}), got {protected.shape}")
    n_cw = sent_bits.shape[0]
    codewords = fec.encode_batch(code, sent_bits)
    received = np.empty((len(protected),) + sent_bits.shape, dtype=sent_bits.dtype)
    clean = np.zeros((len(protected), n_cw), dtype=bool)
    retransmissions = np.zeros(len(protected), dtype=np.int64)
    pending = np.arange(n_cw)  # rows still unclean under some mask
    resent = 0
    for attempt in range(_MAX_ROUNDS):
        llrs = transmit_keyed(codewords[pending], cfg, noise_seed, pending, attempt)
        decoded, _ = fec.decode_batch(code, llrs)
        wrong = decoded != sent_bits[pending]
        accept = ~(wrong[None] & protected[:, None]).any(axis=2) & ~clean[:, pending]
        for m, rows in enumerate(accept):
            received[m, pending[rows]] = decoded[rows]
        clean[:, pending] |= accept
        retransmissions += n_cw - clean.sum(axis=1)
        pending = pending[~clean[:, pending].all(axis=0)]
        if len(pending) == 0:
            return resent, retransmissions, received
        resent += len(pending)
    raise RuntimeError("retransmission cap exceeded; channel unusably bad")


def simulate_transfer(
    payload,
    mapping: PriorityMapping,
    code: fec.CodeSpec,
    cfg: ChannelConfig,
    noise_seed: int,
) -> TransferStats:
    """Send one page or GOP; retransmit codewords until protected slots are clean.

    ``noise_seed`` roots the keyed noise substreams; identical seeds pair the
    channel realizations across mappings of the same payload.
    """
    if mapping.payload_len != fec.payload_length(code):
        raise ValueError("mapping payload length does not match the code")
    sent_bits = assemble_bits(payload, mapping)
    _, retransmissions, received = retransmit_until_clean(
        sent_bits, mapping.protected[None], code, cfg, noise_seed
    )
    return TransferStats(
        total_codewords=sent_bits.shape[0],
        retransmissions=int(retransmissions[0]),
        received_payload=extract_payload(payload, mapping, received[0]),
    )
