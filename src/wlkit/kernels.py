"""Refinement round kernels for k >= 2 and the dense rank they feed.

`round_rows` builds, for every k-tuple, the row ``[previous color | sorted
substitution codes]``.  A substitution code encodes the k-vector of previous
colors obtained by substituting one vertex x into the tuple, ordered from the
last tuple position down to the first.  Codes are order-isomorphic to the
lexicographic order on those k-vectors, so dense-ranking the rows yields the
same color ids whichever code scheme produced them.

A round splits nothing exactly when every tuple's row equals the row of the
first tuple of its class (`rows_agree_within_classes`); that compare stands in
for the rank of the round that confirms stability.

`dense_rank_rows` ranks rows of at most three columns whose column bit
lengths sum to at most 62 (a k = 2 search node's first round, seeded initial
colorings, k = 1 rows of degree at most 2) as one packed int64 key per row
through `argsort`; every other row is sorted as big-endian bytes.  Both give
the same ids.
"""
from __future__ import annotations

import numpy as np

# codes must fit comfortably in int64
_PACK_LIMIT = 2**62


def backend_name() -> str:
    return "python"


def packable(base: int, k: int) -> bool:
    return base**k < _PACK_LIMIT


_IDX_CACHE: dict[tuple[int, int], list[np.ndarray]] = {}


def index_matrices(n: int, k: int) -> list[np.ndarray]:
    """Per-position gather indices: mats[j][T, x] = rank of T with slot j := x."""
    key = (n, k)
    mats = _IDX_CACHE.get(key)
    if mats is None:
        idx = np.arange(n**k, dtype=np.int64)
        xs = np.arange(n, dtype=np.int64)
        mats = []
        for j in range(k):
            stride = n ** (k - 1 - j)
            digit = (idx // stride) % n
            base = idx - digit * stride
            mats.append(base[:, None] + xs[None, :] * stride)
        if len(_IDX_CACHE) >= 4:
            _IDX_CACHE.clear()
        _IDX_CACHE[key] = mats
    return mats


def tuple_digits(n: int, k: int) -> list[np.ndarray]:
    """digits[j][T] = vertex at position j of the rank-T tuple."""
    idx = np.arange(n**k, dtype=np.int64)
    return [(idx // (n ** (k - 1 - j))) % n for j in range(k)]


def _key_bits(rows: np.ndarray) -> list[int] | None:
    """Each column's bit length when rows of at most three columns pack into
    one int64 key below _PACK_LIMIT, else None."""
    if not 1 <= rows.shape[1] <= 3:
        return None
    bits = [int(top).bit_length() for top in rows.max(axis=0).tolist()]
    return bits if 1 << sum(bits) <= _PACK_LIMIT else None


def dense_rank_rows(rows: np.ndarray) -> np.ndarray:
    """Dense ids by lexicographic rank of int64 rows.

    Non-negative entries only.  Rows of at most three columns whose column
    bit lengths sum to at most 62 are packed into one int64 key each, which
    orders like the row, and the keys are argsorted.  Other rows are
    byte-swapped to big-endian and sorted as raw bytes, which coincides with
    numeric lexicographic order.
    """
    m = rows.shape[0]
    if m == 0:
        return np.empty(0, dtype=np.int64)
    bits = _key_bits(rows)
    if bits is not None:
        key = rows[:, 0].astype(np.int64)
        for j in range(1, len(bits)):
            key <<= bits[j]
            key |= rows[:, j]
        order = key.argsort()
        srt = key[order]
        differs = srt[1:] != srt[:-1]
    else:
        rows = np.ascontiguousarray(rows)
        view = rows.astype(">i8").view(f"V{8 * rows.shape[1]}").ravel()
        # np.unique's steps, less its copy of the input
        order = view.argsort(kind="stable")
        del view  # the big-endian copy goes before the sorted rows are gathered
        srt = rows[order]
        differs = np.any(srt[1:] != srt[:-1], axis=1)
    del srt
    starts = np.empty(m, dtype=bool)
    starts[0] = True
    starts[1:] = differs
    ids = np.empty(m, dtype=np.int64)
    ids[order] = starts.cumsum() - 1
    return ids


def rows_agree_within_classes(rows: np.ndarray, colors: np.ndarray, ncolors: int) -> bool:
    """True when every tuple's row equals the row of the first tuple of its
    color class."""
    first = np.full(ncolors, colors.shape[0], dtype=np.int64)
    np.minimum.at(first, colors, np.arange(colors.shape[0], dtype=np.int64))
    return bool((rows == rows[first[colors]]).all())


def round_rows(colors: np.ndarray, n: int, k: int, ncolors: int) -> np.ndarray:
    """The exact rows of one k-dim refinement round: (n^k, 1+n) int64, column
    0 the previous color, the rest the sorted substitution codes.  Codes are
    base-`ncolors` packed vectors when they fit in int64, else the dense
    ranks of the vectors."""
    if k < 2:
        raise ValueError("round_rows handles k >= 2 only")
    nk = colors.shape[0]
    base = max(2, int(ncolors))
    out = np.empty((nk, n + 1), dtype=np.int64)
    out[:, 0] = colors
    if packable(base, k):
        if k == 2:
            # codes[(a, b), x] = C[a, x] * base + C[x, b]
            c = colors.reshape(n, n)
            codes = out.reshape(n, n, n + 1)[:, :, 1:]
            np.add((c * base)[:, None, :], c.T[None, :, :], out=codes)
        else:
            mats = index_matrices(n, k)
            codes = colors[mats[k - 1]]
            for j in range(k - 2, -1, -1):
                codes *= base
                codes += colors[mats[j]]
            out[:, 1:] = codes
    else:
        # overflow-safe path: rank the substitution vectors instead of packing
        mats = index_matrices(n, k)
        stacked = np.empty((nk, n, k), dtype=np.int64)
        for t in range(k):
            stacked[..., t] = colors[mats[k - 1 - t]]
        out[:, 1:] = dense_rank_rows(stacked.reshape(nk * n, k)).reshape(nk, n)
    out[:, 1:].sort(axis=1)
    return out
