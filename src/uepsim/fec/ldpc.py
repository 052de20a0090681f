"""LDPC code construction, systematic encoding, and belief propagation.

Generated codes use the column layout H = [A | T]:

  * columns 0..K-1 are the systematic information positions. Their
    column weights follow a fixed irregular profile: the first
    min(50, max(1, round(0.1 K))) information columns get weight
    HIGH_COL_WEIGHT and the remainder weight BASE_COL_WEIGHT. High-weight
    variable nodes converge first under belief propagation, which is what
    gives the leading information positions their stronger protection.
  * columns K..N-1 form an invertible square accumulator T (cyclic
    double-diagonal closed by one extra entry), so H always has full row
    rank and back-solving for the parity bits is a dense GF(2) multiply.

Edges in A are placed by progressive edge growth: each new edge attaches
to a check node at maximal graph distance from the column (unreachable
preferred), breaking ties by lowest check degree and then by a seeded
random priority. This keeps the girth at 6 or above whenever the degree
profile allows it.

Codes can also be loaded from MacKay alist text, in which case the
information positions are the first K non-pivot columns of H under
rightmost pivot preference and K = N - rank(H).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import alist as alistmod

HIGH_COL_WEIGHT = 9
BASE_COL_WEIGHT = 3
LLR_CLAMP = 30.0
DEFAULT_MAX_ITERS = 25
# posteriors this close to zero count as undecided, not as a decoded 0
_UNDECIDED_TOL = 1e-6


@dataclass(eq=False)
class LdpcCodeSpec:
    """Parity-check matrix plus the derived systematic encoder."""

    parity_check: np.ndarray  # (rows, N) uint8
    k_info: int
    info_positions: np.ndarray  # (K,) column indices carrying the payload
    pivot_positions: np.ndarray  # (rank,) column indices solved by the encoder
    encoder_matrix: np.ndarray  # (rank, K); c[pivot[i]] = encoder_matrix[i] @ payload
    n_total: int = field(init=False)
    bp: "_BpContext" = field(init=False, repr=False)  # read-only edge layout for decoding

    def __post_init__(self):
        self.n_total = self.parity_check.shape[1]
        self.bp = _BpContext(self.parity_check)

    def to_json(self) -> str:
        h = self.parity_check
        return json.dumps(
            {
                "kind": "ldpc",
                "n_total": int(self.n_total),
                "k_info": int(self.k_info),
                "rows": [[int(c) for c in np.flatnonzero(h[i])] for i in range(h.shape[0])],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "LdpcCodeSpec":
        d = json.loads(text)
        h = np.zeros((len(d["rows"]), d["n_total"]), dtype=np.uint8)
        for i, cols in enumerate(d["rows"]):
            h[i, cols] = 1
        spec = _spec_from_matrix(h)
        if spec.k_info != d["k_info"]:
            raise ValueError("stored k_info does not match rank of stored matrix")
        return spec


# --------------------------------------------------------------------------
# GF(2) elimination


def _eliminate(h: np.ndarray, col_order: np.ndarray):
    """Row-reduce ``h`` picking pivots along ``col_order``.

    Returns (reduced matrix, pivot column list in elimination order).
    """
    m = h.astype(np.uint8).copy()
    n_rows = m.shape[0]
    pivots = []
    row = 0
    for col in col_order:
        nz = np.flatnonzero(m[row:, col])
        if len(nz) == 0:
            continue
        piv = row + nz[0]
        if piv != row:
            m[[row, piv]] = m[[piv, row]]
        others = np.flatnonzero(m[:, col])
        others = others[others != row]
        if len(others):
            m[others] ^= m[row]
        pivots.append(int(col))
        row += 1
        if row == n_rows:
            break
    return m, pivots


def _spec_from_matrix(h: np.ndarray) -> LdpcCodeSpec:
    """Derive the systematic encoder for an arbitrary parity-check matrix.

    Pivots are chosen right-to-left so the payload lands on the leading
    columns; the information positions are the first K non-pivot columns.
    """
    n = h.shape[1]
    col_order = np.arange(n - 1, -1, -1)
    reduced, pivots = _eliminate(h, col_order)
    rank = len(pivots)
    k = n - rank
    if k == 0:
        raise ValueError("parity-check matrix has full column rank; no information positions")
    pivot_cols = np.asarray(pivots, dtype=np.int64)
    info_cols = np.setdiff1d(np.arange(n), pivot_cols)[:k]
    # row i of the reduced matrix has its pivot at pivots[i]
    enc = reduced[:rank][:, info_cols].astype(np.uint8)
    return LdpcCodeSpec(
        parity_check=np.asarray(h, dtype=np.uint8),
        k_info=k,
        info_positions=info_cols,
        pivot_positions=pivot_cols,
        encoder_matrix=enc,
    )


def load_ldpc_matrix(alist_text: str) -> LdpcCodeSpec:
    """Build a code spec from MacKay alist text."""
    h = alistmod.parse_alist(alist_text)
    if not h.any(axis=1).all():
        raise ValueError("alist: parity-check matrix has an empty row")
    return _spec_from_matrix(h)


def write_alist(spec: LdpcCodeSpec) -> str:
    return alistmod.format_alist(spec.parity_check)


# --------------------------------------------------------------------------
# Progressive edge growth construction


def _accumulator(n_par: int) -> np.ndarray:
    """Invertible square parity block with every column weight >= 2."""
    t = np.zeros((n_par, n_par), dtype=np.uint8)
    idx = np.arange(n_par)
    t[idx, idx] = 1
    t[(idx + 1) % n_par, idx] = 1
    t[n_par // 2, 0] ^= 1  # break the all-ones null vector of the cyclic chain
    return t


def _column_profile(k_info: int) -> np.ndarray:
    n_high = min(50, max(1, round(0.1 * k_info)))
    weights = np.full(k_info, BASE_COL_WEIGHT, dtype=np.int64)
    weights[:n_high] = HIGH_COL_WEIGHT
    return weights


def generate_ldpc_code(n_total: int, k_info: int, seed: int) -> LdpcCodeSpec:
    """Construct an irregular (N, K) code by progressive edge growth."""
    if not 0 < k_info < n_total:
        raise ValueError(f"need 0 < K < N, got K={k_info} N={n_total}")
    n_par = n_total - k_info
    if n_par < 4:
        raise ValueError("need at least 4 parity positions for the accumulator block")
    weights = _column_profile(k_info)
    if weights.max() > n_par:
        raise ValueError(
            f"degree profile infeasible: column weight {weights.max()} exceeds {n_par} rows"
        )
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed)))
    priority = rng.permutation(n_par)  # seeded tie-break among equal candidates

    h = np.zeros((n_par, n_total), dtype=np.uint8)
    h[:, k_info:] = _accumulator(n_par)
    rows_of_col = [list(np.flatnonzero(h[:, j])) for j in range(n_total)]
    cols_of_row = [list(np.flatnonzero(h[i, :])) for i in range(n_par)]
    row_deg = h.sum(axis=1).astype(np.int64)

    def best_row(candidates: np.ndarray) -> int:
        degs = row_deg[candidates]
        pool = candidates[degs == degs.min()]
        return int(pool[np.argmin(priority[pool])])

    for col in range(k_info):
        for edge in range(weights[col]):
            if edge == 0:
                r = best_row(np.arange(n_par))
            else:
                dist = _bfs_row_distances(col, rows_of_col, cols_of_row, n_par)
                unreachable = np.flatnonzero(dist < 0)
                if len(unreachable):
                    r = best_row(unreachable)
                else:
                    taken = np.isin(np.arange(n_par), rows_of_col[col])
                    dist = np.where(taken, -1, dist)
                    r = best_row(np.flatnonzero(dist == dist.max()))
            h[r, col] = 1
            rows_of_col[col].append(r)
            cols_of_row[r].append(col)
            row_deg[r] += 1

    spec = _spec_from_matrix(h)
    # The accumulator block guarantees full row rank and leading info columns.
    assert spec.k_info == k_info and np.array_equal(spec.info_positions, np.arange(k_info))
    return spec


def _bfs_row_distances(col, rows_of_col, cols_of_row, n_par):
    """Distance from a variable node to every check node; -1 = unreachable."""
    dist = np.full(n_par, -1, dtype=np.int64)
    seen_col = {col}
    frontier = [r for r in rows_of_col[col]]
    d = 1
    while frontier:
        fresh = []
        for r in frontier:
            if dist[r] < 0:
                dist[r] = d
                fresh.append(r)
        nxt_cols = set()
        for r in fresh:
            for c in cols_of_row[r]:
                if c not in seen_col:
                    seen_col.add(c)
                    nxt_cols.add(c)
        frontier = []
        for c in nxt_cols:
            frontier.extend(rows_of_col[c])
        d += 2
    return dist


# --------------------------------------------------------------------------
# Encoding


def ldpc_encode_batch(spec: LdpcCodeSpec, payloads: np.ndarray) -> np.ndarray:
    """Encode payload rows of length K; every output satisfies H c^T = 0."""
    payloads = np.atleast_2d(np.asarray(payloads, dtype=np.uint8))
    if payloads.shape[-1] != spec.k_info:
        raise ValueError(f"payload length {payloads.shape[-1]} != {spec.k_info}")
    c = np.zeros((payloads.shape[0], spec.n_total), dtype=np.uint8)
    c[:, spec.info_positions] = payloads
    prod = payloads.astype(np.float32) @ spec.encoder_matrix.T.astype(np.float32)
    c[:, spec.pivot_positions] = np.rint(prod).astype(np.int64).astype(np.uint8) & 1
    return c


def ldpc_encode(spec: LdpcCodeSpec, payload: np.ndarray) -> np.ndarray:
    return ldpc_encode_batch(spec, payload)[0]


def syndrome(spec: LdpcCodeSpec, words: np.ndarray) -> np.ndarray:
    words = np.atleast_2d(np.asarray(words, dtype=np.uint8))
    # float32 matmul hits BLAS; sums stay below 2**24 so rounding is exact
    prod = words.astype(np.float32) @ spec.parity_check.T.astype(np.float32)
    return np.rint(prod).astype(np.int64) & 1


# --------------------------------------------------------------------------
# Belief propagation


class _BpContext:
    """Edge-parallel sum-product index arrays, built once per code spec and
    only read by decode calls, so concurrent decodes on one spec are safe."""

    def __init__(self, h: np.ndarray):
        rows, cols = np.nonzero(h)
        order = np.lexsort((rows, cols))  # column-major edge order
        self.e_row = rows[order]
        self.e_col = cols[order]
        n_rows, n_cols = h.shape
        self.n_cols = n_cols
        col_counts = np.bincount(self.e_col, minlength=n_cols)
        if (col_counts == 0).any():
            raise ValueError("parity-check matrix has an empty column")
        self.col_starts = np.concatenate([[0], np.cumsum(col_counts)[:-1]])
        to_row_major = np.lexsort((self.e_col, self.e_row))
        self.to_row = to_row_major
        self.from_row = np.argsort(to_row_major)
        row_counts = np.bincount(self.e_row[to_row_major], minlength=n_rows)
        if (row_counts == 0).any():
            raise ValueError("parity-check matrix has an empty row")
        self.row_starts = np.concatenate([[0], np.cumsum(row_counts)[:-1]])
        self.row_of_edge_rm = self.e_row[to_row_major]


def _phi(x: np.ndarray) -> np.ndarray:
    return -np.log(np.tanh(0.5 * np.clip(x, 1e-12, None)))


_MAX_DECODE_ROWS = 1024  # bounds peak per-edge message memory


def ldpc_decode_bp_batch(
    spec: LdpcCodeSpec, llrs: np.ndarray, max_iters: int = DEFAULT_MAX_ITERS
):
    """Batched sum-product decode of (B, N) LLRs.

    Returns (payloads (B, K), converged (B,)). A word counts as converged
    only when the syndrome is zero and no posterior sits at (numerical)
    zero, so an all-erased input never converges. Messages are clamped
    to +-30.
    """
    llrs = np.atleast_2d(np.asarray(llrs, dtype=np.float64))
    if llrs.shape[-1] != spec.n_total:
        raise ValueError(f"LLR length {llrs.shape[-1]} != N {spec.n_total}")
    if llrs.shape[0] > _MAX_DECODE_ROWS:
        parts = [
            ldpc_decode_bp_batch(spec, llrs[lo : lo + _MAX_DECODE_ROWS], max_iters)
            for lo in range(0, llrs.shape[0], _MAX_DECODE_ROWS)
        ]
        return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])
    ctx = spec.bp

    hard = (llrs < 0).astype(np.uint8)
    decided = np.abs(llrs).min(axis=1) > _UNDECIDED_TOL
    ok = _syndrome_ok(spec, hard) & decided
    out_bits = hard.copy()
    converged = ok.copy()

    active = np.flatnonzero(~ok)
    if len(active) == 0 or max_iters == 0:
        return out_bits[:, spec.info_positions], converged

    llr_a = llrs[active]
    llr_edges = llr_a[:, ctx.e_col]
    m_cv = np.zeros_like(llr_edges)
    for _ in range(max_iters):
        col_sums = np.add.reduceat(m_cv, ctx.col_starts, axis=1)
        m_vc = llr_edges + col_sums[:, ctx.e_col] - m_cv
        np.clip(m_vc, -LLR_CLAMP, LLR_CLAMP, out=m_vc)

        m_rm = m_vc[:, ctx.to_row]
        mags = _phi(np.abs(m_rm))
        mag_sums = np.add.reduceat(mags, ctx.row_starts, axis=1)
        excl = _phi(np.clip(mag_sums[:, ctx.row_of_edge_rm] - mags, 1e-12, None))
        neg = m_rm < 0
        neg_counts = np.add.reduceat(neg.astype(np.int32), ctx.row_starts, axis=1)
        sign_excl = 1.0 - 2.0 * ((neg_counts[:, ctx.row_of_edge_rm] - neg) & 1)
        m_cv = (sign_excl * excl)[:, ctx.from_row]
        np.clip(m_cv, -LLR_CLAMP, LLR_CLAMP, out=m_cv)

        post = llr_a + np.add.reduceat(m_cv, ctx.col_starts, axis=1)
        hard_a = (post < 0).astype(np.uint8)
        parities = np.add.reduceat(hard_a[:, ctx.e_col][:, ctx.to_row], ctx.row_starts, axis=1) & 1
        ok_a = ~parities.any(axis=1) & (np.abs(post).min(axis=1) > _UNDECIDED_TOL)

        out_bits[active] = hard_a
        if ok_a.any():
            done = active[ok_a]
            converged[done] = True
            keep = ~ok_a
            if not keep.any():
                break
            active = active[keep]
            llr_a = llr_a[keep]
            llr_edges = llr_edges[keep]
            m_cv = m_cv[keep]

    return out_bits[:, spec.info_positions], converged


def _syndrome_ok(spec: LdpcCodeSpec, words: np.ndarray) -> np.ndarray:
    return ~(syndrome(spec, words).any(axis=1))


def ldpc_decode_bp(spec: LdpcCodeSpec, llrs: np.ndarray, max_iters: int = DEFAULT_MAX_ITERS):
    """Decode one received word; returns (payload, converged)."""
    payloads, conv = ldpc_decode_bp_batch(spec, llrs, max_iters)
    return payloads[0], bool(conv[0])
