"""Priority mappings: payload roles onto measured protection orderings.

A mapping is a per-codeword template over the code's payload positions.
High-priority roles (text, I-frame) occupy the most protected positions of
the measured bit-error profile; leftover positions carry zero PAD bits.
The protected predicate decides which roles trigger a retransmission when
received in error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..uep import BitErrorProfile, protection_order

# slot role codes
TEXT = 0
PIXEL_BIT = 1
IFRAME = 2
PFRAME = 3
PAD = 4


@dataclass(eq=False)
class PriorityMapping:
    """Per-position roles for one codeword plus stream gather indices."""

    payload_len: int
    roles: np.ndarray  # (payload_len,) role codes
    role_arg: np.ndarray  # pixel index / frame index per position, -1 otherwise
    bit_arg: np.ndarray  # pixel bit index (0 = MSB), -1 otherwise
    protected: np.ndarray  # (payload_len,) bool
    stream_positions: dict  # stream name -> positions in stream order

    def fully_protected(self) -> "PriorityMapping":
        """Baseline variant: every data slot (everything but PAD) protected."""
        return PriorityMapping(
            payload_len=self.payload_len,
            roles=self.roles,
            role_arg=self.role_arg,
            bit_arg=self.bit_arg,
            protected=self.roles != PAD,
            stream_positions=self.stream_positions,
        )


def build_webpage_mapping(
    profile: BitErrorProfile, ratio: tuple, quality_level: int
) -> PriorityMapping:
    """Text on the most protected positions, pixel bits MSB-first after it.

    ``ratio`` = (text bits, image bits) per codeword; ``quality_level`` k
    protects the first k MSBs of every pixel (k = 0 protects no image bit).
    """
    t, i = int(ratio[0]), int(ratio[1])
    if not 0 <= quality_level <= 8:
        raise ValueError(f"quality level must be in 0..8, got {quality_level}")
    if i % 8:
        raise ValueError("image bits per codeword must be a multiple of 8")
    npos = profile.k_info
    if t + i > npos:
        raise ValueError(f"ratio {t}:{i} exceeds payload budget {npos}")
    order = protection_order(profile)

    roles = np.full(npos, PAD, dtype=np.int8)
    role_arg = np.full(npos, -1, dtype=np.int32)
    bit_arg = np.full(npos, -1, dtype=np.int32)

    text_pos = order[:t]
    roles[text_pos] = TEXT
    pix_pos = order[t : t + i]
    roles[pix_pos] = PIXEL_BIT
    local = np.arange(i)
    role_arg[pix_pos] = local // 8
    bit_arg[pix_pos] = local % 8

    protected = (roles == TEXT) | ((roles == PIXEL_BIT) & (bit_arg < quality_level))
    return PriorityMapping(
        payload_len=npos,
        roles=roles,
        role_arg=role_arg,
        bit_arg=bit_arg,
        protected=protected,
        stream_positions={"text": text_pos, "image": pix_pos},
    )


def build_video_mapping(
    profile: BitErrorProfile, protected_pframes: int, n_pframes: int = 14
) -> PriorityMapping:
    """I-frame on the most protected positions, then P1..Pn by priority.

    The payload budget is split into 1 + n_pframes equal chunks (leftover
    positions become PAD); the protected predicate covers the I-frame and
    the first ``protected_pframes`` P-frames.
    """
    if not 0 <= protected_pframes <= n_pframes:
        raise ValueError(f"protected P-frame count must be in 0..{n_pframes}")
    npos = profile.k_info
    n_chunks = 1 + n_pframes
    chunk = npos // n_chunks
    if chunk == 0:
        raise ValueError(f"payload budget {npos} cannot carry {n_chunks} frame chunks")
    order = protection_order(profile)

    roles = np.full(npos, PAD, dtype=np.int8)
    role_arg = np.full(npos, -1, dtype=np.int32)
    bit_arg = np.full(npos, -1, dtype=np.int32)
    streams = {}
    for f in range(n_chunks):
        pos = order[f * chunk : (f + 1) * chunk]
        roles[pos] = IFRAME if f == 0 else PFRAME
        role_arg[pos] = f
        streams[f"frame{f}"] = pos

    protected = (roles == IFRAME) | ((roles == PFRAME) & (role_arg <= protected_pframes))
    return PriorityMapping(
        payload_len=npos,
        roles=roles,
        role_arg=role_arg,
        bit_arg=bit_arg,
        protected=protected,
        stream_positions=streams,
    )
