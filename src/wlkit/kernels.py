"""Refinement round kernels for k >= 2 and the dense rank they feed.

A k-tuple coloring of n vertices is held as n^k colors in rank order, the
rank of (t_0, ..., t_{k-1}) being its base-n number, first position most
significant.  Reshaped to the ``(n,) * k`` grid, ``grid[t] = C(t)``.  For
each position j, `substitution_view` moves axis j of the grid to the end
and puts a length-1 axis in its place: that view holds C(t[j:=x]) at
``[t_0, ..., t_{k-1}, x]``, broadcast along position j.  It is a view, so
reading the substitutions costs no gather and no index array.

`round_rows` builds, for every k-tuple, the row ``[previous color | sorted
substitution codes]``.  A substitution code encodes the k-vector of previous
colors obtained by substituting one vertex x into the tuple, ordered from the
last tuple position down to the first.  Codes are order-isomorphic to the
lexicographic order on those k-vectors, so dense-ranking the rows yields the
same color ids whichever code scheme produced them.  `substitution_codes` is
the one builder of packed codes, position j weighted base^j.  Codes, and the
rows holding them, are int32 when base^k is below _INT32_LIMIT and int64
otherwise (`code_dtype`); the narrower rows halve the bytes that a round's
sort, compare and rank move.

A round splits nothing exactly when every tuple's row equals the row of the
first tuple of its class.  At k >= 3 `refine`'s one growth loop steps by a
full round, which checks that (`any_row_differs`) and ranks the round's
rows only on a split.  k >= 4 takes the same step; where base^k reaches
_PACK_LIMIT, which k = 4 does from 46341 classes, `round_rows` ranks the
substitution vectors instead of packing them (its overflow branch).  At
k = 2 the check is `unstable_pairs`, the one exact round, which `refine`
runs after its hashed growth rounds and `coherent.validate` runs as axiom 3
on the relation ids: the pairs are ordered by class and each row is built
(`pair_code_rows`, from the two `pair_tables`) and compared with the row
before it in its class, one block of at most _PAIR_CELLS codes at a time,
so the n^2 (n + 1) round is never held.  Of each transpose pair of classes
only one is built.  With τ(K) the class of the transpose of K's first
pair, when every pair of K transposes into τ(K) (one O(n^2) compare,
before any row), row (y, x) is row (x, y) with each code (a, b) replaced
by (τ(b), τ(a)), so τ(K)'s rows agree exactly when K's do, and only the
classes K <= τ(K) are built; the partners of the classes that fail are
then checked alone, for their own first breaks.  Stable colorings are
transpose-closed, so a closed Klein scheme builds 13,120 of its 25,600
rows at 160 points; a coloring that is not builds every class.  A split,
which at k = 2 comes only after a hash collision, builds the rows of the
classes that split and no others.

`dense_rank_rows` ranks rows whose column bit lengths sum to at most 62 (a
k = 2 search node's first round, built from its seed keys; initial
colorings, and a k = 1 search node's seed keys; narrow k = 1 rows) as one
packed int64 key per row through `argsort`; every other row is sorted as
big-endian bytes of its own width.  Both give the same ids.  The round
loop owns the rows it builds, so once its stop check fails it swaps them
to big-endian in place (`big_endian`) and the rank sorts them where they
lie: a k >= 3 round holds its n^k * (n + 1) cells once, plus one slab of
at most _AGREE_CELLS gathered cells and a few n^k-long id arrays.  Any
other input is copied first; the rank never writes its argument.
"""
from __future__ import annotations

import numpy as np

# codes must fit comfortably in int64
_PACK_LIMIT = 2**62
# codes below this are built, sorted and ranked as int32
_INT32_LIMIT = 2**31
# any_row_differs and dense_rank_rows' compare of sorted neighbours gather
# this many cells at a time
_AGREE_CELLS = 1 << 18
# the k = 2 stop check builds, sorts and compares this many codes at a time:
# on Klein schemes of 80-240 points a check ran fastest from 2^16 to 2^17
# codes, 10-15% slower at _AGREE_CELLS and 25-75% slower at 2^13
_PAIR_CELLS = 1 << 16


def backend_name() -> str:
    return "python"


def substitution_view(grid: np.ndarray, j: int) -> np.ndarray:
    """C(t[j:=x]) at ``[t_0, ..., t_{k-1}, x]`` for the ``(n,) * k`` color
    grid, length 1 along position j."""
    axes = [a for a in range(grid.ndim) if a != j] + [j]
    return grid.transpose(axes)[(slice(None),) * j + (None,)]


def code_dtype(base: int, k: int) -> type:
    """int32 when every base-`base` code of k colors is below _INT32_LIMIT,
    else int64."""
    return np.int32 if base**k < _INT32_LIMIT else np.int64


def substitution_codes(grid: np.ndarray, base: int, out: np.ndarray) -> None:
    """Write the code sum_j C(t[j:=x]) * base^j of the ``(n,) * k`` color
    grid at ``[t_0, ..., t_{k-1}, x]`` of `out`.  Codes must fit `out`'s
    dtype."""
    k = grid.ndim
    # the weights go on the n^k grid; only the sums are n^(k+1) wide
    views = [substitution_view(grid, 0)] + [
        substitution_view(grid, j) * base**j for j in range(1, k)
    ]
    # numpy buffers each strided or broadcast operand (all three) in blocks
    # of bufsize, 8192 elements by default; n^k-element blocks keep that
    # within a round's per-tuple allowance, at the same speed
    with np.errstate():
        np.setbufsize(16 * max(1, min(np.getbufsize(), grid.size) // 16))
        np.add(views[k - 1], views[k - 2], out=out)
        for view in views[: k - 2]:
            out += view


def any_row_differs(rows: np.ndarray, first: np.ndarray) -> bool:
    """Whether some row i differs from row ``first[i]``, the first row of
    its class.  One _AGREE_CELLS slab at a time, stopping at the first slab
    that differs."""
    m, w = rows.shape
    step = max(1, _AGREE_CELLS // w)
    return any(
        (rows[lo : lo + step] != rows[first[lo : lo + step]]).any() for lo in range(0, m, step)
    )


def pair_tables(colors: np.ndarray, n: int, base: int) -> tuple[np.ndarray, np.ndarray]:
    """The (n, n) pair grid C of `colors` times `base`, and C's transpose,
    both C-contiguous and of dtype `code_dtype(base, 2)`: row x of the first
    plus row y of the second are pair (x, y)'s codes C(x, z) * base +
    C(z, y) over z, the substitution codes of its k = 2 round row.  `base`
    is a class count, at most n^2, so the codes fit in int64 below _PACK_LIMIT
    for every n up to 46340, and k = 2 has no table branch."""
    if base * base >= _PACK_LIMIT:
        raise ValueError("k = 2 codes need base^2 below 2^62")
    grid = colors.astype(code_dtype(base, 2)).reshape(n, n)
    cols = np.ascontiguousarray(grid.T)
    grid *= base
    return grid, cols


def pair_code_rows(
    tables: tuple[np.ndarray, np.ndarray], pairs: np.ndarray, out: np.ndarray,
    cells: int = _PAIR_CELLS,
) -> None:
    """Write the sorted codes of each pair x * n + y of `pairs` (`tables` from
    `pair_tables`) to the rows of `out`, `cells` codes at a time: two
    contiguous row gathers, an add and a sort along the row."""
    scaled, cols = tables
    n = cols.shape[0]
    step = max(1, cells // max(1, n))
    for lo in range(0, pairs.shape[0], step):
        x, y = np.divmod(pairs[lo : lo + step], n)
        block = out[lo : lo + step]
        np.take(scaled, x, axis=0, out=block, mode="clip")  # "raise" would buffer
        block += cols[y]
        block.sort(axis=1)


def unstable_pairs(
    colors: np.ndarray, n: int, ncolors: int, cells: int = _PAIR_CELLS
) -> np.ndarray | None:
    """The exact k = 2 stop check of the pair coloring `colors` (dense ids
    below `ncolors`): for each class whose round rows are not all equal, the
    first pair in row-major order whose row differs from that of the class's
    first pair, in increasing class id; None when every class agrees.

    The pairs are sorted by class, each class's in row-major order, and
    classes of one pair are left out (a lone pair agrees with itself).
    Blocks of about `cells` codes, at least one row, are built
    (`pair_code_rows`) and each row is compared with the row before it in
    its class, one row carried across blocks.  Rows equal along that chain
    all equal the class's first row, so the check is exact, and a class's
    first break is its first pair that differs from the first pair.
    Column 0, the previous id, is equal within a class and is not built.

    Of each transpose pair of classes only one is checked.  Let τ(K) be the
    class of the transpose of K's first pair.  When C(y, x) = τ(C(x, y))
    for every pair (`_skipped_classes` compares each pair's transpose class
    with the one before it in its class, before any row is built), τ is an
    involution and transposing maps K one to one onto τ(K).  Row (y, x) is
    then row (x, y) with each code (a, b) replaced by (τ(b), τ(a)), a
    one-to-one map of codes, so τ(K)'s rows are all equal exactly when K's
    are, and only the classes K <= τ(K) are built: 13,120 of the 25,600
    rows of the 160-point Klein scheme.  Otherwise every class is, as the
    same loop over all pairs.  A failing class K then names τ(K), the
    class of its break's transpose, which fails too; the skipped ones are
    checked by the same loop over their pairs alone, for their own first
    breaks.  Holds the two tables, a few index arrays of the pairs, one
    per-class flag, and one block."""
    pairs = _class_sorted(colors, np.bincount(colors, minlength=ncolors) > 1)
    if not pairs.size:
        return None
    # the compare holds about 40 bytes a pair and a block 9 a code, so
    # slabs of cells // 8 pairs stay near a block's size
    skipped = _skipped_classes(colors, pairs, n, ncolors, max(1, cells // 8))
    pairs = pairs[~skipped[colors[pairs]]]
    tables = pair_tables(colors, n, max(2, ncolors))
    breaks = _first_breaks(tables, colors, pairs, cells)
    del pairs
    if not breaks.size:
        return None
    partners = np.zeros(ncolors, dtype=bool)
    partners[colors[_transposed(breaks, n)]] = True
    partners &= skipped
    if partners.any():
        more = _first_breaks(tables, colors, _class_sorted(colors, partners), cells)
        breaks = np.concatenate((breaks, more))
        breaks = breaks[np.argsort(colors[breaks])]
    return breaks


def _class_sorted(colors: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """The pairs of the classes flagged in `flags`, sorted by class and each
    class's pairs in row-major order, so its first pair comes first.  One
    in-place sort of the keys class * n^2 + pair, below n^4 < 2^63 for
    every n up to 46340, several times faster than a stable argsort."""
    pairs = np.flatnonzero(flags[colors])
    keys = colors[pairs].astype(np.int64, copy=False)
    keys *= colors.shape[0]
    keys += pairs
    del pairs
    keys.sort()
    np.remainder(keys, colors.shape[0], out=keys)
    return keys


def _transposed(pairs: np.ndarray, n: int) -> np.ndarray:
    """The pair y * n + x of each pair x * n + y."""
    x, y = np.divmod(pairs, n)
    y *= n
    y += x
    return y


def _skipped_classes(
    colors: np.ndarray, pairs: np.ndarray, n: int, ncolors: int, step: int
) -> np.ndarray:
    """Per class, whether `unstable_pairs` leaves it out.  When each pair of
    the class-sorted `pairs` transposes into the class that the pair before
    it in its class transposes into, so every pair of K into τ(K), those
    are the classes K with τ(K) < K; else there are none.  `step` pairs at
    a time, one pair carried."""
    skipped = np.zeros(ncolors, dtype=bool)
    for lo in range(0, pairs.shape[0], step):
        at = pairs[max(0, lo - 1) : lo + step]
        cls, tcls = colors[at], colors[_transposed(at, n)]
        if np.any((cls[1:] == cls[:-1]) & (tcls[1:] != tcls[:-1])):
            return np.zeros(ncolors, dtype=bool)
        skipped[cls[tcls < cls]] = True
    return skipped


def _first_breaks(
    tables: tuple[np.ndarray, np.ndarray], colors: np.ndarray, pairs: np.ndarray, cells: int
) -> np.ndarray:
    """For each class of the class-sorted `pairs` (`_class_sorted`) whose
    rows are not all equal, its first pair whose row differs from the row
    before it, in increasing class id: the block loop of `unstable_pairs`."""
    n = tables[1].shape[0]
    cls = colors[pairs]
    step = min(max(1, cells // n), pairs.shape[0])
    rows = np.empty((step + 1, n), dtype=tables[0].dtype)
    breaks = []
    for lo in range(0, pairs.shape[0], step):
        hi = min(lo + step, pairs.shape[0])
        block = rows[: hi - lo + 1]
        pair_code_rows(tables, pairs[lo:hi], block[1:], cells)
        differ = np.any(block[1:] != block[:-1], axis=1)
        # row 0 is the last row of the block before, or nothing
        differ[0] &= lo > 0 and cls[lo] == cls[lo - 1]
        differ[1:] &= cls[lo + 1 : hi] == cls[lo : hi - 1]
        if differ.any():
            breaks.append(lo + np.flatnonzero(differ))
        rows[0] = block[-1]
    if not breaks:
        return pairs[:0]
    at = np.concatenate(breaks)
    # `at` increases, so its classes do too: keep each class's first break
    first = np.ones(at.shape[0], dtype=bool)
    np.not_equal(cls[at[1:]], cls[at[:-1]], out=first[1:])
    return pairs[at[first]]


def _key_bits(rows: np.ndarray) -> list[int] | None:
    """Each column's bit length when the rows pack into one int64 key below
    _PACK_LIMIT, else None.  Columns are read one at a time (a strided
    column max is fast, a multi-column one is not), the last first: a
    padded k = 1 row or a row of sorted codes holds its widest value there,
    so a row that cannot pack is mostly given up after one or a few."""
    bits = [0] * rows.shape[1]
    total = 0
    for j in range(-1, rows.shape[1] - 1):
        bits[j] = int(rows[:, j].max()).bit_length()
        total += bits[j]
        if 1 << total > _PACK_LIMIT:
            return None
    return bits or None


def big_endian(rows: np.ndarray) -> np.ndarray:
    """The values of C-contiguous `rows` as a big-endian view of the same
    memory, which is rewritten in place: the caller gives `rows` up.  The
    swap is a cast onto the aliased view, several times faster than
    ``ndarray.byteswap``; it goes through 1-d views because numpy casts
    aliased 1-d arrays element by element, where it would copy aliased 2-d
    ones first."""
    big = rows.dtype.newbyteorder(">")
    flat = rows.reshape(-1)
    np.copyto(flat.view(big), flat)
    return rows.view(big)


def dense_rank_rows(rows: np.ndarray) -> np.ndarray:
    """Dense ids by lexicographic rank of int32, uint32 or int64 rows.

    Non-negative entries only; `rows` is never written.  Rows whose column
    bit lengths sum to at most 62 are packed into one int64 key each, which
    orders like the row, and the keys are argsorted.  Other rows are sorted
    as raw big-endian bytes of their own width, which coincides with numeric
    lexicographic order: C-contiguous big-endian rows (`big_endian`) are
    sorted where they lie, any other rows are first copied to big-endian.
    Sorted neighbours are then compared one _AGREE_CELLS slab at a time, on
    the raw words, since equality does not depend on byte order.
    """
    m = rows.shape[0]
    if m == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.empty(m, dtype=bool)
    starts[0] = True
    bits = _key_bits(rows)
    if bits is not None:
        key = rows[:, 0].astype(np.int64)
        for j in range(1, len(bits)):
            key <<= bits[j]
            key |= rows[:, j]
        order = key.argsort()
        srt = key[order]
        np.not_equal(srt[1:], srt[:-1], out=starts[1:])
        del key, srt
    else:
        big = rows.dtype.newbyteorder(">")
        if rows.dtype != big or not rows.flags.c_contiguous:
            rows = np.ascontiguousarray(rows, dtype=big)
        w = rows.shape[1]
        # stable (timsort) for speed, not for the ids: a round's rows come
        # in runs, and tied rows are equal anyway
        order = rows.view(f"V{big.itemsize * w}").ravel().argsort(kind="stable")
        words = rows.view(big.newbyteorder("="))
        step = max(1, _AGREE_CELLS // max(1, w))
        for lo in range(0, m - 1, step):
            srt = words[order[lo : lo + step + 1]]
            np.any(srt[1:] != srt[:-1], axis=1, out=starts[lo + 1 : lo + step + 1])
            del srt  # one slab at a time
        del rows, words  # a copy goes before the ids are built
    dense = starts.cumsum()
    dense -= 1  # in place: one m-long int64 array fewer at the peak
    ids = np.empty(m, dtype=np.int64)
    ids[order] = dense
    return ids


def round_rows(colors: np.ndarray, n: int, k: int, ncolors: int) -> np.ndarray:
    """The exact rows of one k-dim refinement round: (n^k, 1+n) of dtype
    `code_dtype(base, k)`, column 0 the previous color, the rest the sorted
    substitution codes.  Codes are base-`ncolors` packed vectors
    (`substitution_codes`) when they fit in int64, else the dense ranks of
    the vectors."""
    if k < 2:
        raise ValueError("round_rows handles k >= 2 only")
    nk = colors.shape[0]
    base = max(2, int(ncolors))
    dtype = code_dtype(base, k)
    out = np.empty((nk, n + 1), dtype=dtype)
    out[:, 0] = colors
    grid = colors.astype(dtype, copy=False).reshape((n,) * k)
    if base**k < _PACK_LIMIT:
        substitution_codes(grid, base, out.reshape((n,) * k + (n + 1,))[..., 1:])
    else:
        # overflow-safe path: rank the substitution vectors instead of
        # packing them, built big-endian so that the rank sorts them in place
        stacked = np.empty((n,) * k + (n, k), dtype=">i8")
        for t in range(k):
            stacked[..., t] = substitution_view(grid, k - 1 - t)
        out[:, 1:] = dense_rank_rows(stacked.reshape(nk * n, k)).reshape(nk, n)
    out[:, 1:].sort(axis=1)
    return out
