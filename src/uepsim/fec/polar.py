"""Polar code construction, encoding, and CRC-aided list decoding.

Conventions (fixed by the matrix oracle in the tests):
  * natural, non-bit-reversed ordering; codeword x = u . F^(x m) over GF(2)
    with kernel F = [[1, 0], [1, 1]] and F^(x m) = F kron F^(x (m-1)),
  * channel reliabilities from the Bhattacharyya recursion evaluated at the
    design Eb/No; index 2i gets the degraded branch 2z - z^2 and index 2i+1
    the upgraded branch z^2,
  * payload (with CRC appended) fills the information positions in
    ascending index order; frozen positions carry 0.

Decoding is successive-cancellation list decoding with min-sum branch
combining and the standard sign-mismatch penalty path metric. List
candidates are disambiguated by CRC when the code carries one (CA-SCL).
The decoder is batched: one call decodes many received words at once,
which is what makes the Monte Carlo characterization runs affordable.
Path lineage is kept as flat integer parent vectors, one per fork, over
the row-major (word, path) index, so realigning tree state after forks is
a chain of plain gathers. Every decode call owns its state, so threads may
decode on one spec at the same time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import crc as crcmod

DEFAULT_LIST_SIZE = 8
DEFAULT_CRC_LEN = 12
DEFAULT_CRC_POLY = 0xC06
DEFAULT_DESIGN_EBNO_DB = 2.0


@dataclass(eq=False)
class PolarCodeSpec:
    """Immutable description of one polar code. Safe to share across workers."""

    n_total: int
    k_info: int
    frozen_set: frozenset
    reliability_order: np.ndarray  # permutation of 0..N-1, most reliable first
    crc_len: int = 0
    crc_poly: int = DEFAULT_CRC_POLY
    info_positions: np.ndarray = field(init=False)
    is_frozen: np.ndarray = field(init=False)  # (N,) bool mask of the frozen set

    def __post_init__(self):
        if len(self.frozen_set) != self.n_total - self.k_info:
            raise ValueError("frozen set size must be N - K")
        if not 0 <= self.crc_len < self.k_info:
            raise ValueError("crc_len must be smaller than k_info")
        info = sorted(set(range(self.n_total)) - set(int(i) for i in self.frozen_set))
        self.info_positions = np.asarray(info, dtype=np.int64)
        self.is_frozen = np.ones(self.n_total, dtype=bool)
        self.is_frozen[self.info_positions] = False
        self._crc_matrix = crcmod.remainder_matrix(self.payload_len, self.crc_len, self.crc_poly)

    @property
    def payload_len(self) -> int:
        return self.k_info - self.crc_len

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": "polar",
                "n_total": self.n_total,
                "k_info": self.k_info,
                "frozen_set": sorted(int(i) for i in self.frozen_set),
                "reliability_order": [int(i) for i in self.reliability_order],
                "crc_len": self.crc_len,
                "crc_poly": self.crc_poly,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "PolarCodeSpec":
        d = json.loads(text)
        return cls(
            n_total=d["n_total"],
            k_info=d["k_info"],
            frozen_set=frozenset(d["frozen_set"]),
            reliability_order=np.asarray(d["reliability_order"], dtype=np.int64),
            crc_len=d["crc_len"],
            crc_poly=d["crc_poly"],
        )


def bhattacharyya_reliability(n_total: int, design_ebno_db: float, code_rate: float) -> np.ndarray:
    """Reliability order (most reliable first) from the Bhattacharyya recursion.

    The BI-AWGN channel parameter is z0 = exp(-rate * Eb/No); one recursion
    level maps z to (2z - z^2, z^2) for the degraded/upgraded halves.
    """
    ebno = 10.0 ** (design_ebno_db / 10.0)
    z = np.array([math.exp(-code_rate * ebno)], dtype=np.float64)
    while len(z) < n_total:
        nxt = np.empty(2 * len(z), dtype=np.float64)
        nxt[0::2] = 2.0 * z - z * z
        nxt[1::2] = z * z
        z = nxt
    return np.argsort(z, kind="stable")


def construct_polar_code(
    n_total: int,
    k_info: int,
    design_ebno_db: float = DEFAULT_DESIGN_EBNO_DB,
    crc_len: int = 0,
    crc_poly: int = DEFAULT_CRC_POLY,
) -> PolarCodeSpec:
    """Build an (N, K) polar code with N - K frozen positions."""
    if n_total < 2 or (n_total & (n_total - 1)) != 0:
        raise ValueError(f"codeword length must be a power of two >= 2, got {n_total}")
    if not 0 < k_info <= n_total:
        raise ValueError(f"need 0 < K <= N, got K={k_info} N={n_total}")
    if crc_len >= k_info:
        raise ValueError(f"crc_len {crc_len} must be < K {k_info}")
    order = bhattacharyya_reliability(n_total, design_ebno_db, k_info / n_total)
    frozen = frozenset(int(i) for i in order[k_info:])
    return PolarCodeSpec(
        n_total=n_total,
        k_info=k_info,
        frozen_set=frozen,
        reliability_order=order,
        crc_len=crc_len,
        crc_poly=crc_poly,
    )


def polar_transform(u: np.ndarray) -> np.ndarray:
    """x = u . F^(x m) over GF(2); ``u`` shape (..., N)."""
    x = np.array(u, dtype=np.uint8, copy=True)
    n = x.shape[-1]
    half = n // 2
    while half >= 1:
        # blocks of width 2*half: first half ^= second half
        shaped = x.reshape(x.shape[:-1] + (n // (2 * half), 2 * half))
        shaped[..., :half] ^= shaped[..., half:]
        half //= 2
    return x


def polar_encode_batch(spec: PolarCodeSpec, payloads: np.ndarray) -> np.ndarray:
    """Encode payload rows of length K - crc_len into codewords of length N."""
    payloads = np.atleast_2d(np.asarray(payloads, dtype=np.uint8))
    if payloads.shape[-1] != spec.payload_len:
        raise ValueError(f"payload length {payloads.shape[-1]} != {spec.payload_len}")
    blocks = crcmod.crc_append(payloads, spec._crc_matrix)
    u = np.zeros((payloads.shape[0], spec.n_total), dtype=np.uint8)
    u[:, spec.info_positions] = blocks
    return polar_transform(u)


def polar_encode(spec: PolarCodeSpec, payload: np.ndarray) -> np.ndarray:
    return polar_encode_batch(spec, payload)[0]


def _f_minsum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))


class _ListDecoder:
    """Batched successive-cancellation list decoder for one decode call.

    Per-path tree state is never physically permuted at a fork. Each fork
    appends one flat ``intp`` parent vector to the lineage log: entry
    ``b * l_new + j`` holds ``b * l_old + p``, the row-major index of the
    parent of path ``j`` of row ``b`` among the paths before the fork. A
    recursion frame that touches an array again composes the vectors since
    the array's fork epoch with plain integer gathers and realigns the
    array with one row gather on its ``(B * L, w)`` view. That keeps the
    copy volume per decode at O(N log N) instead of O(N K).

    All state belongs to one call of ``decode``; build a fresh decoder per
    call, so that threads sharing a spec never share a decoder.
    """

    def __init__(self, spec: PolarCodeSpec, list_size: int):
        self.spec = spec
        self.L = int(list_size)

    # -- lazy fork alignment ------------------------------------------------

    def _realign(self, arr: np.ndarray, epoch: int) -> np.ndarray:
        if epoch == len(self._par):
            return arr
        cur = self._par[-1]
        for e in range(len(self._par) - 2, epoch - 1, -1):
            cur = self._par[e][cur]
        batch, paths, w = arr.shape
        return arr.reshape(batch * paths, w)[cur].reshape(batch, -1, w)

    # -- tree recursion -----------------------------------------------------

    def _subtree(self, llr: np.ndarray) -> np.ndarray:
        w = llr.shape[2]
        if w == 1:
            return self._leaf(llr[:, :, 0])
        half = w // 2
        e0 = len(self._par)
        beta_l = self._subtree(_f_minsum(llr[:, :, :half], llr[:, :, half:]))
        llr = self._realign(llr, e0)
        sgn = 1.0 - 2.0 * beta_l.astype(llr.dtype)
        e1 = len(self._par)
        beta_r = self._subtree(llr[:, :, half:] + sgn * llr[:, :, :half])
        beta_l = self._realign(beta_l, e1)
        return np.concatenate([beta_l ^ beta_r, beta_r], axis=2)

    def _leaf(self, lam: np.ndarray) -> np.ndarray:
        i = self._leaf_idx
        self._leaf_idx += 1
        if self.spec.is_frozen[i]:
            self._pm = self._pm + np.where(lam < 0, -lam, 0.0)
            return np.zeros(lam.shape + (1,), dtype=np.uint8)
        batch, cur_l = lam.shape
        pm2 = np.concatenate(
            [self._pm + np.maximum(-lam, 0.0), self._pm + np.maximum(lam, 0.0)], axis=1
        )
        if 2 * cur_l <= self.L:
            par = np.tile(np.arange(cur_l), 2)
            bits = np.broadcast_to(
                np.repeat(np.array([0, 1], dtype=np.uint8), cur_l), (batch, 2 * cur_l)
            )
            self._pm = pm2
        else:
            idx = np.argsort(pm2, axis=1, kind="stable")[:, : self.L]
            self._pm = pm2.ravel()[idx + self._rows * (2 * cur_l)]
            par = idx % cur_l
            bits = (idx >= cur_l).astype(np.uint8)
        self._par.append((par + self._rows * cur_l).ravel())
        self._bits.append(np.ascontiguousarray(bits))
        return self._bits[-1][:, :, None]

    # -- public entry ---------------------------------------------------------

    def decode(self, llrs: np.ndarray):
        """Decode (B, N) channel LLRs; returns (payloads (B, payload_len), crc_pass (B,))."""
        batch = llrs.shape[0]
        self._rows = np.arange(batch)[:, None]
        self._pm = np.zeros((batch, 1), dtype=np.float64)
        self._par = []
        self._bits = []
        self._leaf_idx = 0
        self._subtree(np.asarray(llrs, dtype=np.float64)[:, None, :])

        n_forks = len(self._bits)
        final_l = self._pm.shape[1]
        cands = np.empty((batch, final_l, n_forks), dtype=np.uint8)
        cur = np.arange(batch * final_l)
        for e in range(n_forks - 1, -1, -1):
            cands[:, :, e] = self._bits[e].ravel()[cur].reshape(batch, final_l)
            cur = self._par[e][cur]

        spec = self.spec
        if spec.crc_len > 0:
            ok = crcmod.crc_check(cands, spec._crc_matrix)
            any_ok = ok.any(axis=1)
            scored = np.where(ok, self._pm, np.inf)
            best_ok = np.argmin(scored, axis=1)
            best_any = np.argmin(self._pm, axis=1)
            chosen = np.where(any_ok, best_ok, best_any)
            crc_pass = any_ok
        else:
            chosen = np.argmin(self._pm, axis=1)
            crc_pass = np.ones(batch, dtype=bool)
        payloads = cands[np.arange(batch), chosen, : spec.payload_len]
        return payloads, crc_pass


_MAX_DECODE_ROWS = 512  # keeps peak tree-state memory bounded


def polar_decode_cascl_batch(
    spec: PolarCodeSpec, llrs: np.ndarray, list_size: int = DEFAULT_LIST_SIZE
):
    """Batched CA-SCL decode; returns (payloads (B, K-crc), crc_pass (B,))."""
    llrs = np.atleast_2d(np.asarray(llrs, dtype=np.float64))
    if llrs.shape[-1] != spec.n_total:
        raise ValueError(f"LLR length {llrs.shape[-1]} != N {spec.n_total}")
    if list_size < 1:
        raise ValueError("list size must be >= 1")
    payloads = np.empty((llrs.shape[0], spec.payload_len), dtype=np.uint8)
    crc_pass = np.empty(llrs.shape[0], dtype=bool)
    for lo in range(0, llrs.shape[0], _MAX_DECODE_ROWS):
        hi = min(lo + _MAX_DECODE_ROWS, llrs.shape[0])
        payloads[lo:hi], crc_pass[lo:hi] = _ListDecoder(spec, list_size).decode(llrs[lo:hi])
    return payloads, crc_pass


def polar_decode_cascl(spec: PolarCodeSpec, llrs: np.ndarray, list_size: int = DEFAULT_LIST_SIZE):
    """Decode one received word; returns (payload, crc_pass)."""
    payloads, crc_pass = polar_decode_cascl_batch(spec, llrs, list_size)
    return payloads[0], bool(crc_pass[0])
