"""Forward error correction: polar and LDPC codecs over GF(2).

The two code families share a small kind-generic surface (`encode_batch`,
`decode_batch`, `payload_length`, `code_kind`) so the characterization and
transfer layers can treat a code spec as an opaque codec.
"""

from __future__ import annotations

import numpy as np

from .ldpc import (
    DEFAULT_MAX_ITERS,
    LdpcCodeSpec,
    generate_ldpc_code,
    ldpc_decode_bp,
    ldpc_decode_bp_batch,
    ldpc_encode,
    ldpc_encode_batch,
    load_ldpc_matrix,
    syndrome,
    write_alist,
)
from .polar import (
    DEFAULT_CRC_LEN,
    DEFAULT_CRC_POLY,
    DEFAULT_LIST_SIZE,
    PolarCodeSpec,
    construct_polar_code,
    polar_decode_cascl,
    polar_decode_cascl_batch,
    polar_encode,
    polar_encode_batch,
    polar_transform,
)

CodeSpec = PolarCodeSpec | LdpcCodeSpec

LDPC = "LDPC"
POLAR = "POLAR"


def code_kind(spec: CodeSpec) -> str:
    return POLAR if isinstance(spec, PolarCodeSpec) else LDPC


def payload_length(spec: CodeSpec) -> int:
    """Number of caller-supplied payload bits per codeword."""
    return spec.payload_len if isinstance(spec, PolarCodeSpec) else spec.k_info


def code_rate(spec: CodeSpec) -> float:
    return spec.k_info / spec.n_total


def encode_batch(spec: CodeSpec, payloads: np.ndarray) -> np.ndarray:
    if isinstance(spec, PolarCodeSpec):
        return polar_encode_batch(spec, payloads)
    return ldpc_encode_batch(spec, payloads)


def decode_batch(spec: CodeSpec, llrs: np.ndarray, list_size: int = DEFAULT_LIST_SIZE):
    """Returns (payloads, ok) where ok is crc_pass (polar) or converged (LDPC)."""
    if isinstance(spec, PolarCodeSpec):
        return polar_decode_cascl_batch(spec, llrs, list_size)
    return ldpc_decode_bp_batch(spec, llrs)
