"""k-dimensional color refinement over tuples of vertices.

The coloring starts from the isomorphism type of each k-tuple (equality
pattern, pair codes in both directions, vertex colors).  A round splits each
class by the multiset of substitution vectors of its tuples: the k-vector of
current colors obtained by replacing one position at a time (last position
first) with a vertex x, collected over all x.  The process stops when the
partition stops splitting.

The colors of all n^k tuples are held in rank order (a tuple's base-n
number, first position most significant), which is the ``(n,) * k`` tuple
grid read row-major.  For k >= 2 every read of C(t[j:=x]) is a
substitution view of that grid (`kernels.substitution_view`): a full
round's rows on both code schemes, and the first round after
individualization, which reads the views at x = v.  The initial rows
broadcast eye(n), the pair codes and the vertex colors over the grid,
`similar_k` compares two corner blocks of it, and `export_text` and `lift`
enumerate tuples with `itertools.product`, which yields them in rank
order.  No index array is built, and nothing a round allocates outlives
the round, for any k.

Every refinement runs one path (`_refine`): one budget check, one start
(`_start`: the iso types at a root, or a search child's parent, below) and
one round loop (`refine_rounds`), which `coherent.cellular_closure` runs
too, from its own seed.  `refine_k` and every canonical-search node
(`refine_node`) call it.  At every k the loop is one growth loop (`_grow`):
a step maps the colors and their class count to the next round's ids,
ranked previous id first, and runs until it returns None, the class count
stops growing, or every tuple has its own class.  The step is the rank of
the sparse k = 1 rows (below), the rank of the hashed k = 2 rows
(`_hashed_rows`), or a full k >= 3 round (`_full_round`), which returns
None when it splits nothing; k >= 4 takes the k >= 3 step, through
`round_rows`' overflow branch once its codes pass int64.  k = 1 and k >= 3
rounds are exact, so their loop ends stable, and a discrete k = 1 coloring
takes no confirming rank.  At k = 2, unless the caller skips it, the one
exact round (`_exact_round`) follows, and on a split the growth loop goes
on.

The hashed rounds split as far as exact rounds would unless a hash
collides, so the exact round normally finds nothing to split; a collision
costs an exact round, never a wrong partition (`coherent.cellular_closure`
gives the proof).  So k = 2 ids are hash ranks.  A k = 2 search node skips
the exact round, and a collision only leaves one of its classes unsplit
(`canon` says why that suffices).

An exact round's rows are dense-ranked lexicographically, previous color
first, so a color id is the rank of its row among the round's rows, and a
round that splits nothing gives back the previous ids.  Each exact round
first checks whether it splits anything, and when it does not the loop
stops without ranking.  At k = 2 the check (`stop_check`,
`kernels.unstable_pairs`, which `coherent.validate` runs as axiom 3)
compares each pair's row with the row before it in its class, in
cache-sized blocks, so it never holds the n^2 (n + 1) round; on a split
only the rows of the classes it names are built and ranked.  A k >= 3
round builds every tuple's row, compares it with the row of the first
tuple of its class (`kernels.any_row_differs`) and on a split ranks all
its rows, in place.  It stays a full round for two measured reasons
(prototypes that gave the same ids; best of five, one BLAS thread,
Xeon).  A check in blocks, as at k = 2, must build the rows again on every
split: it took `refine_k(CFI(K4), 3)` from 74 to 102 ms and
`refine_k(CFI(K3,3), 3)` from 310 to 442 ms.  Ranking every round without
the check took CFI(K4) from 74 to 95 ms.  A k >= 2 child's first round
(below) is ranked once, before the loop.

A search node's child is given by its parent: `parent=(tc, v)`
individualizes vertex v on top of the parent's stable coloring tc, and the
child's first round then depends only on each tuple's relation to v (the
first-round observation of McKay and Piperno's "Practical graph
isomorphism, II"), so it costs O(n^k), not O(n^(k+1)).  Let C be the
seeded coloring: tc met with the child's vertex colors, under which v's
color is above the rest of its vertex class of tc and no other vertex
changes.  Because tc is stable, all tuples of one class of C share one
multiset of substitution vectors under tc.  So a tuple t's row is that
shared multiset, read in C, with one vector swapped: u(t), the vector x =
v would give if v kept the color of the rest of its class, becomes the
marked vector m(t) = (C(t[k-1:=v]), ..., C(t[0:=v])).  Within a class of
C, m(t) fixes u(t) and the row, and orders like u(t).  v's new color is
above the rest of its class, so m(t) > u(t), and of two rows the one with
the larger m(t) is lexicographically smaller: their differences are
{u(t'), m(t)} against {u(t), m(t')}, and the smallest of the four is the
smaller u.  Ranking the k + 1 wide rows ``[C(t) | M - C(t[k-1:=v]) |
... | M - C(t[0:=v])]``, M being C's class count, therefore gives the ids
of the full round, and two tuples of a class agree there exactly when
their full rows do.

C itself is never ranked.  A stable tc (k >= 2) fixes the vertex class of
every position of t, so within a class of tc the child's vertex colors
differ only where a position holds v, and v's is the larger.  The seed key
key(t) = tc(t) * 2^k + sum_j [t_j = v] * 2^(k-1-j) therefore orders like
C's rows ``[tc | vertex color at each position]``: C is the dense rank of
the keys.  A dense rank depends only on order and equality, so the rows
above with the key in place of C and the largest key + 1 in place of M
order, and rank, like C's (`_pivot_round`).  Column 0 is the key, so the
ids run through the keys in order, and the number of distinct keys is C's
class count.  When the ids are no more than that, the round split nothing
and its ids are C's; that covers keys that are already all distinct.  The
ids, round counts and class counts are those of ranking C and then its
first round.  At k = 1 the key is tc(t) * 2 + [t = v], its dense rank is
C, and the k = 1 rounds below go on from C.  A k = 2 search node's parent
is a hashed one (`refine_node`): while its partition is the stable one,
which it is unless a hash collided, the argument above holds as it is, and
in any case the round is an isomorphism-invariant refinement of the seed
keys.

For k = 1 tuples are vertices and a round's row is ``[previous color |
sorted codes of the (neighbor color, edge code out, edge code in) triples]``,
padded to the maximum degree and built from the graph's cached neighbor
pairs, so a round costs O(m log m) rather than O(n^2) (Berkholz, Bonsma and
Grohe's sparse colour refinement).  This refines like the classical degree
iteration but is aware of edge colors and orientation.  The row also fixes
the multiset of non-neighbor colors (the round's color histogram less the
vertex and its neighbors), so the ids equal those of ranking the full
substitution rows.
"""
from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import kernels
from .errors import UnsupportedGraphError
from .graph import ColoredGraph, NeighborCodes, disjoint_union
from .kernels import (
    any_row_differs,
    big_endian,
    code_dtype,
    dense_rank_rows,
    pair_code_rows,
    pair_tables,
    round_rows,
    substitution_view,
    unstable_pairs,
)
from .limits import DEFAULT_LIMITS, Limits

_SENTINEL = 2**62


def _tuple_rank(tup: Sequence[int], n: int, k: int) -> int:
    """Rank of a k-tuple of vertices: its base-n number, first position most
    significant."""
    if len(tup) != k:
        raise ValueError(f"expected a {k}-tuple")
    idx = 0
    for v in tup:
        if not 0 <= v < n:
            raise ValueError("vertex out of range")
        idx = idx * n + v
    return idx


@dataclass
class TupleColoring:
    """Stable k-tuple coloring with the class count before the first round
    and after each splitting round."""

    k: int
    n: int
    colors: np.ndarray
    num_colors: int
    rounds: int
    class_counts: list[int]

    def rank(self, tup: Sequence[int]) -> int:
        return _tuple_rank(tup, self.n, self.k)

    def color_of(self, tup: Sequence[int]) -> int:
        return int(self.colors[self.rank(tup)])

    def export_text(self) -> str:
        """One line per tuple: `t v1 ... vk color`, tuples in rank order."""
        tuples = itertools.product(range(self.n), repeat=self.k)
        lines = [
            f"t {' '.join(map(str, tup))} {c}"
            for tup, c in zip(tuples, self.colors.tolist())
        ]
        return "\n".join(lines) + "\n"


@dataclass
class ProjectedColoring:
    """t-tuple coloring obtained by projecting a stable k-tuple coloring."""

    t: int
    n: int
    colors: np.ndarray
    num_colors: int

    def color_of(self, tup: Sequence[int]) -> int:
        return int(self.colors[_tuple_rank(tup, self.n, self.t)])


@dataclass
class LiftedColoring:
    """Keys for t-tuples with t > k, built recursively from a k-coloring."""

    t: int
    n: int
    keys: dict[tuple[int, ...], object] = field(repr=False, default_factory=dict)

    def key_of(self, tup: Sequence[int]):
        return self.keys[tuple(tup)]


def iso_type(g: ColoredGraph, tup: Sequence[int]) -> tuple:
    """Isomorphism type of an ordered tuple: equality pattern, pair codes
    for all ordered position pairs, and the vertex color at each position."""
    p = g.pair_codes()
    k = len(tup)
    eq = tuple(int(tup[i] == tup[j]) for i in range(k) for j in range(i + 1, k))
    pc = tuple(
        int(p[tup[i], tup[j]]) for i in range(k) for j in range(k) if i != j
    )
    vc = tuple(int(g.vertex_colors[v]) for v in tup)
    return (eq, pc, vc)


def _initial_rows(g: ColoredGraph, k: int, vc: np.ndarray) -> np.ndarray:
    """Feature rows for all n^k tuples (dense-rankable): the iso type under
    vertex colors `vc`.  Each column is eye(n), the pair codes or `vc` laid
    along its positions and broadcast over the tuple grid."""
    n = g.n
    # digits[i] is the vertex at position i, n long along axis i
    digits = np.indices((n,) * k, sparse=True)
    cols = [digits[i] == digits[j] for i in range(k) for j in range(i + 1, k)]
    # a vertex has no position pairs, so k = 1 builds no pair codes
    cols += [
        g.pair_codes()[digits[i], digits[j]]
        for i in range(k) for j in range(k) if i != j
    ]
    cols += [vc[digits[i]] for i in range(k)]
    rows = np.empty((n,) * k + (len(cols),), dtype=np.int64)
    for c, col in enumerate(cols):
        rows[..., c] = col
    return rows.reshape(n**k, len(cols))


# Bytes a round holds whatever its size: the Python and numpy objects of a
# call (array headers, views, the graph's lazily built codes, small index
# arrays).  Fitted to tracemalloc peaks at n = 1-20 (edgeless, complete,
# path, cycle, discrete and random graphs, directed or not) of refine_k at
# k = 1, 2 and 3, cellular_closure and validate (Python 3.11, numpy 2.4):
# the peak passes the size-dependent terms by at most 6956 bytes.
_CALL_BYTES = 8192


# Bytes a pair of a hashed k = 2 search node (`refine_node`) holds at its
# peak: a child's input, its parent's coloring (8 bytes a pair); the root's
# five-column iso-type rows, the graph's pair codes and the rank's copies
# of them, or a child's seed keys and pivot rows; then a hashed round's
# three-column rows, salts, salt gathers, product and rank.  Fitted to
# tracemalloc peaks of every node of canonical and verified searches, and
# of roots and first children, at n = 10-240 (random graphs, directed or
# not, cycles, edgeless and complete graphs, CFI gadgets, edge codes past
# 2^40): peak/estimate 0.43-0.82 before the input is added, highest at deep
# nodes near n^2 classes and where those codes keep the iso-type rows from
# packing into one key.  The search's live frames come on top (`held`).
_HASHED_PAIR_BYTES = 128


def _hashed_bytes(n: int) -> int:
    """Working bytes of a hashed k = 2 search node, and of any k = 2 round
    (`_estimate_bytes`): `_CALL_BYTES` and _HASHED_PAIR_BYTES a pair.  At
    the default 2 GiB this admits n up to 4095."""
    return _CALL_BYTES + _HASHED_PAIR_BYTES * n * n


def _estimate_bytes(n: int, k: int, width: int = 0, pairs: int = 0) -> int:
    """Working bytes of a round: `_CALL_BYTES` and a term that grows with
    the round; the peak/estimate ratios below were taken against the
    growing term alone.  A k = 1 round holds its rows `width` wide, the
    rank's two row-sized copies and a few n-vectors; building the `pairs`
    adjacent ordered pairs takes up to 16 int64 arrays of that length.
    Checked against tracemalloc peaks of paths, cycles, a star, K_100 and
    random graphs, directed or not (peak/estimate 0.4-0.7).

    A k = 2 round needs what a hashed search node does (`_hashed_bytes`):
    the hashed rounds peak there, and the exact stop check holds at most
    _STOP_PAIR_BYTES a pair beside a block sized to fit the rest
    (`_stop_cells`).  A split builds its rows only after checking them
    against memory_bytes (`_exact_round`).  Fitted to tracemalloc peaks of
    `refine_k(·, 2)`: peak/estimate 0.96-0.99 at n = 40-400 for a graph
    with one twin pair, whose hashed rounds run one round at nearly n^2
    classes, 0.77-0.88 at n = 10-20; 0.59-0.74 for random graphs, which
    the hashed rounds make discrete; 0.63-0.90 for a graph beside a
    relabeled copy, whose stop check builds every pair's row.

    A k >= 3 round holds its n^k * (n + 1) cells once, at the itemsize of
    the widest codes n^k colors can take (`code_dtype`), since the rank
    sorts them where they lie; one slab of at most _AGREE_CELLS cells, for
    the stop check (gathered cells and their bool compare, then that
    compare's float32 copy for the row flags: itemsize + 1 bytes a cell
    either way) and for the rank's neighbour compare; and up to 96 bytes a
    tuple of id, order and index arrays: the previous ids, each class's
    first tuple and its gather, the row flags, the rank's order, run starts
    and ids, and the new ids.  Where base^k can reach _PACK_LIMIT,
    `round_rows`' overflow-safe branch adds its n^(k+1) stacked k-vectors
    (8k bytes a cell, ranked in place) and the rank's 32 bytes a cell.
    Fitted to tracemalloc peaks: peak/estimate 0.85-0.86 at k = 3,
    n = 20-40 (random graphs, every row of a splitting round ranked);
    0.74-0.82 for the branch with _PACK_LIMIT patched to 1 (k = 3-4).  At
    the default 2 GiB this admits k = 2 up to n = 4095, k = 3 up to n = 118
    (the branch can run from n = 119) and k = 4 up to n = 30."""
    if k == 1:
        return _CALL_BYTES + 8 * (n * (3 * width + 8) + 16 * pairs)
    if k == 2:
        return _hashed_bytes(n)
    nk = n**k
    cells = nk * (n + 1)
    size = np.dtype(code_dtype(nk, k)).itemsize
    need = _CALL_BYTES + cells * size + min(cells, kernels._AGREE_CELLS) * (size + 1) + 96 * nk
    if nk**k >= kernels._PACK_LIMIT:
        need += nk * n * (8 * k + 32)
    return need


# Bytes a pair of the k = 2 stop check (`kernels.unstable_pairs`) holds
# beside its block: the caller's ids, the pairs of classes of two or more,
# their class order and classes, and the two code tables.  Traced at 21-30
# beside the block (n = 10-440: Klein schemes and colorings of 2, 7 and
# n^2 / 2 classes, int32 and int64 codes), so a block of _STOP_PAIR_BYTES
# less than the estimate's allowance keeps the check's peak within the
# estimate (peak/estimate 0.27-0.84 from n = 40 up).
_STOP_PAIR_BYTES = 48


def _stop_cells(n: int) -> int:
    """Codes in a block of the k = 2 stop check: kernels._PAIR_CELLS, or
    fewer when the block (the codes, their column gather and their compare:
    2 * itemsize + 1 bytes a code) would not fit in what the round's
    estimate (`_hashed_bytes`) leaves beside _STOP_PAIR_BYTES a pair.  That
    is at least one row for every n."""
    cell = 2 * np.dtype(code_dtype(n * n, 2)).itemsize + 1
    return min(kernels._PAIR_CELLS, (_HASHED_PAIR_BYTES - _STOP_PAIR_BYTES) * n * n // cell)


def check_round_budget(
    what: str, limits: Limits, n: int, k: int, width: int = 0, pairs: int = 0, held: int = 0
) -> None:
    """Raise ResourceLimitError, naming memory_bytes, when a round of `what`
    (`_estimate_bytes`) plus `held` bytes kept beside it would pass it."""
    limits.check("memory_bytes", _estimate_bytes(n, k, width, pairs) + held, what)


def _round_rows_k1(nc: NeighborCodes, colors: np.ndarray) -> np.ndarray:
    """Rows ``[color | sorted neighbor codes c_x*pb^2 + p_vx*pb + p_xv]``,
    padded with _SENTINEL to the maximum degree."""
    pb = nc.base
    rows = np.full((colors.shape[0], 1 + nc.delta), _SENTINEL, dtype=np.int64)
    rows[:, 0] = colors
    rows[nc.src, 1 + nc.pos] = (colors[nc.tgt] * pb + nc.out) * pb + nc.inn
    rows[:, 1:].sort(axis=1)
    return rows


def check_k(k: int) -> None:
    """Refuse a refinement dimension below 1, whatever the graph."""
    if k < 1:
        raise ValueError("k must be >= 1")


def _vertex_color_array(g: ColoredGraph, vertex_colors) -> np.ndarray:
    """Vertex colors as an int64 array, checked the way ColoredGraph checks
    its own."""
    if vertex_colors is None:
        return np.asarray(g.vertex_colors, dtype=np.int64)
    vc = np.asarray(vertex_colors, dtype=np.int64)
    if vc.shape != (g.n,):
        raise UnsupportedGraphError("vertex_colors length must equal n")
    if vc.size and int(vc.min()) < 0:
        raise UnsupportedGraphError("vertex colors must be non-negative")
    return vc


def _pivot_rows(colors: np.ndarray, n: int, k: int, ncolors: int, v: int) -> np.ndarray:
    """Rows ``[C(t) | M - C(t[k-1:=v]) | ... | M - C(t[0:=v])]`` with M =
    `ncolors`, above every entry of `colors`: the first round after v is
    individualized, ranked in O(n^k) (see the module docstring).  `colors`
    may be any keys that order like the seeded coloring."""
    grid = colors.reshape((n,) * k)
    rows = np.empty((n**k, k + 1), dtype=np.int64)
    cols = rows.reshape((n,) * k + (k + 1,))
    cols[..., 0] = grid
    for i in range(k):
        cols[..., 1 + i] = ncolors - substitution_view(grid, k - 1 - i)[..., v]
    return rows


def _seed_keys(start: np.ndarray, n: int, k: int, v: int) -> np.ndarray:
    """Keys ``start(t) * 2^k + sum_j [t_j = v] * 2^(k-1-j)`` of the tuples of
    the child that individualizes v on top of the stable coloring `start`:
    they order like its seeded coloring (see the module docstring)."""
    keys = start.astype(np.int64) << k
    grid = keys.reshape((n,) * k)
    for j in range(k):
        grid[(slice(None),) * j + (v,)] += 1 << (k - 1 - j)
    return keys


def _pivot_round(start: np.ndarray, n: int, k: int, v: int) -> tuple[np.ndarray, int]:
    """The ids of the first round of the k >= 2 child that individualizes v
    on top of `start`, and the class count of its seeded coloring: the
    pivot rows of the seed keys, ranked once."""
    keys = _seed_keys(start, n, k, v)
    ids = dense_rank_rows(_pivot_rows(keys, n, k, int(keys.max()) + 1, v))
    # column 0 is the key, so the ids run through the keys in order
    key_of = np.empty(int(ids.max()) + 1, dtype=np.int64)
    key_of[ids] = keys
    return ids, 1 + int(np.count_nonzero(key_of[1:] != key_of[:-1]))


def stop_check(colors: np.ndarray, n: int, ncolors: int) -> np.ndarray | None:
    """The exact k = 2 stop check (`kernels.unstable_pairs`) in blocks of
    `_stop_cells(n)` codes: for each class of `colors` that an exact round
    would split, its first pair whose row differs from its first pair's,
    or None when the round splits nothing."""
    return unstable_pairs(colors, n, ncolors, _stop_cells(n))


def _exact_round(colors: np.ndarray, n: int, ncolors: int, limits: Limits) -> np.ndarray | None:
    """The ids of an exact k = 2 round of `colors`, or None when it splits
    nothing.  The stop check (`stop_check`) names the classes that split;
    only their members' rows ``[previous id | sorted codes]`` are built,
    within `limits`, and ranked.  The ids are the dense rank of (previous
    id, that rank, or 0 outside those classes): the ids of ranking every
    pair's row, since the rows of a class that does not split are all
    equal."""
    split = stop_check(colors, n, ncolors)
    if split is None:
        return None
    failing = np.zeros(ncolors, dtype=bool)
    failing[colors[split]] = True
    members = np.flatnonzero(failing[colors])
    del split, failing
    dtype = code_dtype(max(2, ncolors), 2)
    # the rows, the rank's neighbour slab and bool compare, and 40 bytes a
    # member of index and id arrays; the n^2-long arrays fit the estimate
    size, cells = np.dtype(dtype).itemsize, members.shape[0] * (n + 1)
    need = _estimate_bytes(n, 2) + cells * size + min(cells, kernels._AGREE_CELLS) * (size + 1)
    limits.check("memory_bytes", need + 40 * members.shape[0], f"exact split of {members.shape[0]} pairs at n={n}")
    rows = np.empty((members.shape[0], n + 1), dtype=dtype)
    rows[:, 0] = colors[members]
    pair_code_rows(pair_tables(colors, n, max(2, ncolors)), members, rows[:, 1:])
    sub = np.zeros(colors.shape[0], dtype=np.int64)
    sub[members] = dense_rank_rows(big_endian(rows))
    del rows, members
    return dense_rank_rows(np.column_stack((colors, sub)))


def _full_round(colors: np.ndarray, n: int, k: int, ncolors: int) -> np.ndarray | None:
    """The ids of a full k >= 2 round of `colors`, or None when it splits
    nothing: every tuple's row (`round_rows`) is compared with the row of
    the first tuple of its class (`any_row_differs`), and on a split all
    the rows are ranked, in place.  The growth step at k >= 3."""
    rows = round_rows(colors, n, k, ncolors)
    first = np.full(ncolors, colors.shape[0], dtype=np.int64)
    np.minimum.at(first, colors, np.arange(colors.shape[0], dtype=np.int64))
    if not any_row_differs(rows, first[colors]):
        return None
    return dense_rank_rows(big_endian(rows))


# the two primes of the hashed rounds, below 2^20
_PRIMES = (1048573, 1048571)
# a hashed product sums terms below 2^40, exact in float64 while fewer than
# _HASH_MAX_N of them are summed, since _HASH_MAX_N * 2^40 = 2^53
_HASH_MAX_N = 8192


def _salts(m: int) -> np.ndarray:
    """Salts (a_1, b_1, a_2, b_2) of color ids 0..m-1 as float64 rows: row j
    of id c is splitmix64(4c + j), mapped to 1..p-1 of its row's prime.  A
    fixed function of the id alone, so each id keeps its salts whatever m.
    Built in place but for one temporary: 64 bytes an id at the peak, which
    a node near n^2 classes reaches, not the 96 of building out of place."""
    z = np.arange(1, 4 * m + 1, dtype=np.uint64).reshape(m, 4).T
    z *= np.uint64(0x9E3779B97F4A7C15)  # uint64 arrays wrap, as splitmix64 does
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    z %= np.repeat(np.asarray(_PRIMES, dtype=np.uint64) - np.uint64(1), 2)[:, None]
    out = z.astype(np.float64)
    out += 1
    return out


def _product_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b for float64 entries in 1..p-1, exact modulo p: the inner sum is
    taken _HASH_MAX_N - 1 terms at a time, reduced mod p between chunks, so
    every partial sum stays below 2^53.  Below _HASH_MAX_N columns that is
    one product, unreduced."""
    step = _HASH_MAX_N - 1
    out = a[:, :step] @ b[:step]
    for z in range(step, a.shape[1], step):
        out %= p
        out += a[:, z : z + step] @ b[z : z + step]
    return out


def _hashed_rows(colors: np.ndarray, n: int) -> np.ndarray:
    """The rows (previous id, h_1, h_2) of a hashed 2-dim round of
    `colors`, dense ids of all n^2 pairs.

    h_i = (a_i[C] @ b_i[C]) mod p_i is a bilinear hash of the multiset over
    z of (C(x, z), C(z, y)), that is of the pair's exact round row, read
    with one float64 product per prime (`_product_mod`, in chunks from
    _HASH_MAX_N vertices up).  The salts depend on the color id alone
    (`_salts`), so the ids are relabeling-equivariant whatever collides; a
    collision only leaves a class unsplit.  Every entry is below p < 2^20,
    so each partial sum is below 2^53: the product is exact in any
    summation order, and the ids are the same on every BLAS and thread
    count.

    Each round is a function of each class's exact rows, so it never splits
    a stable coloring, and whatever stable partition refines its input
    refines its output: exact rounds from here end at the same stable
    partition as from `colors`.  The rounds hold at most _HASHED_PAIR_BYTES
    a pair (`_hashed_bytes`)."""
    grid = colors.reshape(n, n)
    salts = _salts(int(colors.max()) + 1)
    rows = np.empty((n * n, 3), dtype=np.int64)
    rows[:, 0] = colors
    for i, p in enumerate(_PRIMES):
        rows[:, 1 + i] = _product_mod(salts[2 * i][grid], salts[2 * i + 1][grid], p).reshape(-1)
        rows[:, 1 + i] %= p  # as integers: several times faster than fmod
    return rows


def _grow(colors: np.ndarray, step, class_counts: list[int]) -> np.ndarray:
    """The growth loop of every k: run `step(colors, class count)`, the
    next round's ids with the previous id ranked first, round after round
    until it returns None, the class count stops growing or every tuple
    has its own class; appends each splitting round's class count to
    `class_counts` (whose last entry is that of `colors`) and returns the
    last ids."""
    while class_counts[-1] < colors.shape[0]:
        ids = step(colors, class_counts[-1])
        if ids is None:
            break
        count = int(ids.max()) + 1
        if count == class_counts[-1]:  # the previous id ranks first: the same ids
            break
        colors = ids
        class_counts.append(count)
    return colors


def refine_rounds(
    colors: np.ndarray,
    n: int,
    k: int,
    v: int | None = None,
    nc: NeighborCodes | None = None,
    *,
    exact: bool = True,
    limits: Limits = DEFAULT_LIMITS,
) -> tuple[np.ndarray, list[int]]:
    """The round loop of every refinement: refine from a start to stability;
    returns the colors and the class count before the first round and
    after each splitting round.  The start is `colors` (dense ids of all
    n^k tuples), or, given v, the first round (`_pivot_round`) of the
    k >= 2 child that individualizes v on top of the stable `colors`, which
    ends the pass when it splits nothing.

    The growth loop (`_grow`) steps by the rank of the k = 1 rows, which
    read the neighbor codes `nc`, by the rank of the hashed k = 2 rows
    (`_hashed_rows`), or by a full k >= 3 round (`_full_round`).  k = 1 and
    k >= 3 rounds are exact, so they end stable.  At k = 2, unless `exact`
    is False, the stop check follows and, on a split (a hash collided),
    the failing classes' round (`_exact_round`, within `limits`), after
    which the growth loop goes on; a coloring with n^2 classes cannot
    split and takes no check."""
    if v is None:
        class_counts = [int(colors.max()) + 1]
    else:
        colors, seeded = _pivot_round(colors, n, k, v)
        class_counts = [seeded, int(colors.max()) + 1]
        if class_counts[1] == seeded:  # the first round split nothing
            return colors, class_counts[:1]
    if k == 1:
        step = lambda colors, count: dense_rank_rows(_round_rows_k1(nc, colors))
    elif k == 2:
        step = lambda colors, count: dense_rank_rows(_hashed_rows(colors, n))
    else:
        step = lambda colors, count: _full_round(colors, n, k, count)
    while True:
        colors = _grow(colors, step, class_counts)
        if not exact or k != 2 or class_counts[-1] == colors.shape[0]:
            return colors, class_counts
        ids = _exact_round(colors, n, class_counts[-1], limits)
        if ids is None:
            return colors, class_counts
        colors = ids
        class_counts.append(int(ids.max()) + 1)


def _coloring(k: int, n: int, colors: np.ndarray, class_counts: list[int]) -> TupleColoring:
    return TupleColoring(
        k=k, n=n, colors=colors, num_colors=class_counts[-1],
        rounds=len(class_counts) - 1, class_counts=class_counts,
    )


def _check_refinement(g: ColoredGraph, k: int, limits: Limits, held: int = 0):
    """Check a k-dim refinement of g, with `held` bytes beside it, against
    `limits`, and that a k = 1 round's codes pack into int64; returns the
    neighbor codes a k = 1 round reads, or None."""
    n = g.n
    nc = g.neighbor_codes() if k == 1 else None
    k1_rows = () if nc is None else (1 + nc.delta, nc.src.shape[0])  # width, pairs
    check_round_budget(f"refinement at n={n}, k={k}", limits, n, k, *k1_rows, held=held)
    if nc is not None and n * nc.base**2 >= _SENTINEL:
        raise UnsupportedGraphError(
            "the 1-dim round packs each neighbor code into int64 and needs "
            f"n * (largest pair code + 1)^2 < 2^62; here n={n}, largest pair code "
            f"{nc.base - 1}"
        )
    return nc


def _start(
    g: ColoredGraph, k: int, vc: np.ndarray | None, parent: tuple[TupleColoring, int] | None
) -> tuple[np.ndarray, int | None]:
    """The start of a refinement and its pivot, for `refine_rounds`: at a
    root the rank of the iso types under vertex colors `vc` (the graph's
    own when None); for the child `parent` = (tc, v), the rank of the seed
    keys at k = 1, which is the seeded coloring, and at k >= 2 tc's colors
    with pivot v, whose first round the loop reads off v."""
    if parent is None:
        vc = _vertex_color_array(g, None) if vc is None else vc
        return dense_rank_rows(_initial_rows(g, k, vc)), None
    tc, v = parent
    start = np.asarray(tc.colors)
    if k == 1:  # the seed keys rank like the seeded coloring
        return dense_rank_rows(_seed_keys(start, g.n, 1, v)[:, None]), None
    return start, v


def _refine(
    g: ColoredGraph,
    k: int,
    vc: np.ndarray | None,
    parent: tuple[TupleColoring, int] | None,
    limits: Limits,
    held: int = 0,
    exact: bool = True,
) -> TupleColoring:
    """The one refinement path: one budget check, one start (`_start`)
    and one round loop (`refine_rounds`)."""
    nc = _check_refinement(g, k, limits, held)
    n = g.n
    if n == 0:
        return _coloring(k, 0, np.empty(0, dtype=np.int64), [0])
    colors, v = _start(g, k, vc, parent)
    return _coloring(k, n, *refine_rounds(colors, n, k, v, nc, exact=exact, limits=limits))


def refine_k(
    g: ColoredGraph,
    k: int,
    *,
    vertex_colors: Sequence[int] | None = None,
    parent: tuple[TupleColoring, int] | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> TupleColoring:
    """Run k-dim refinement to stability.

    `vertex_colors` overrides the graph's own colors; the edges and the
    cached pair codes (neighbor codes for k = 1) of `g` are used as they
    are.  `parent` = (tc, v), when given, makes this a search node's child:
    tc is a stable coloring of `g` at this k, and the child individualizes
    vertex v on top of it, giving v a color above the rest of its class.
    The stable partition is the one refining from scratch under those
    vertex colors would give; only the color ids differ, and fewer rounds
    are needed.  k = 2 ids are hash ranks (`refine_rounds`); at every other
    k an id is the lexicographic rank of the tuple's row in the last
    splitting round."""
    check_k(k)
    n = g.n
    vc = None
    if parent is None:
        vc = _vertex_color_array(g, vertex_colors)
    elif vertex_colors is not None:
        raise ValueError("pass vertex_colors or parent, not both")
    else:
        tc, v = parent
        if not (isinstance(v, (int, np.integer)) and 0 <= v < n):
            raise ValueError("parent vertex out of range")
        if (tc.k, tc.n) != (k, n) or np.shape(tc.colors) != (n**k,):
            raise ValueError(f"parent must be a coloring of all {n}^{k} tuples")
        start = np.asarray(tc.colors)
        if start.dtype.kind not in "iu" or not (
            int(start.min()) >= 0 and int(start.max()) < n**k
        ):
            raise ValueError(f"parent must hold integer ids from 0 to {n}^{k} - 1")
    return _refine(g, k, vc, parent, limits)


def refine_node(
    g: ColoredGraph,
    k: int,
    parent: tuple[TupleColoring, int] | None = None,
    limits: Limits = DEFAULT_LIMITS,
    held: int = 0,
) -> TupleColoring:
    """The coloring of a canonical-search node: `parent` = (the parent
    node's coloring, the vertex this node individualizes), None at the root;
    the budget counts `held`, what the search keeps beside the node.  The
    search hands in its own colorings, so `parent` is not checked again.

    The node runs the refinement path `refine_k` runs, at every k, but its
    round loop skips the exact k = 2 round, so a k = 2 node stays within
    the hashed rounds' budget (`_hashed_bytes`): an isomorphism-invariant
    refinement of the parent, all a search node needs, whose partition is
    the exact one unless a hash collides, and whose ids are hash ranks.  At
    every other k the growth loop ends stable, and the coloring is the one
    `refine_k(g, k, parent=parent)` gives."""
    return _refine(g, k, None, parent, limits, held, exact=False)


def refine_1(g: ColoredGraph, **kwargs) -> TupleColoring:
    return refine_k(g, 1, **kwargs)


def refine_2(g: ColoredGraph, **kwargs) -> TupleColoring:
    return refine_k(g, 2, **kwargs)


def invariant_bytes(tc: TupleColoring) -> bytes:
    """Label-invariant summary of a coloring: round class counts plus the
    histogram of final colors (sorted by color id, which is itself a
    label-invariant order)."""
    head = np.asarray([tc.n, tc.k, tc.rounds] + tc.class_counts, dtype=np.int64)
    hist = np.bincount(tc.colors, minlength=tc.num_colors).astype(np.int64)
    return head.tobytes() + b"|" + hist.tobytes()


def project(tc: TupleColoring, t: int) -> ProjectedColoring:
    """Restrict a stable k-coloring C to t-tuples (1 <= t <= k): a t-tuple's
    id is the dense rank of the least color of its n^(k-t) extensions.

    These are the ids of sorting out the last position k - t times, each
    time dense-ranking the sorted ids of each prefix's n extensions.  Write
    K(p) for the colors of all extensions of a prefix p.
    * C(s.x) fixes the multiset {C(s.y)}, which is the last-position part
      of its stable round row.  Substituting one position after another,
      any color in K(p) fixes K(p) and the multiset of K(p.y) over y, so
      the K of two prefixes are equal or disjoint.
    * Disjoint sorted rows compare by their first entries.
    * At every lower level, a prefix's id fixes the rows of its
      extensions: going down from level k, the id of p.y ranks min K(p.y),
      a color of K(p), and equal ids mean equal K(p.y).  So p's row is
      fixed by K(p), and rows of two prefixes are equal or disjoint as
      their K are.
    * A monotone rank commutes with min, so the first entry of p's sorted
      row ranks like min K(p), and so does p's id.
    """
    if not 1 <= t <= tc.k:
        raise ValueError("projection needs 1 <= t <= k")
    cur = tc.colors
    n = tc.n
    if t < tc.k and n:
        cur = np.unique(cur.reshape(n**t, -1).min(axis=1), return_inverse=True)[1]
    num = int(cur.max()) + 1 if cur.size else 0
    return ProjectedColoring(t=t, n=n, colors=cur, num_colors=num)


def vertex_classes(tc: TupleColoring) -> np.ndarray:
    """Vertex coloring induced by a stable k-coloring."""
    return project(tc, 1).colors


def lift(
    g: ColoredGraph,
    tc: TupleColoring,
    t: int,
    tuples: Iterable[Sequence[int]] | None = None,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> LiftedColoring:
    """Extend a stable k-coloring to t-tuples (t > k): the key of a tuple is
    its isomorphism type together with the keys of all delete-one-position
    subtuples, deleting the last position first."""
    if t <= tc.k:
        raise ValueError("lift needs t > k; use project for t <= k")
    n = tc.n
    memo: dict[tuple[int, ...], object] = {}

    def key(tup: tuple[int, ...]):
        got = memo.get(tup)
        if got is not None:
            return got
        if len(tup) == tc.k:
            out = ("s", tc.color_of(tup))
        else:
            subs = tuple(
                key(tup[:i] + tup[i + 1 :]) for i in range(len(tup) - 1, -1, -1)
            )
            out = ("l", iso_type(g, tup), subs)
        memo[tup] = out
        return out

    lifted = LiftedColoring(t=t, n=n)
    if tuples is None:
        limits.check("lift_tuples", n**t, f"enumerating all {n}^{t} tuples (pass explicit ones)")
        tuples = itertools.product(range(n), repeat=t)
    for tup in tuples:
        tup = tuple(tup)
        if len(tup) != t:
            raise ValueError(f"expected {t}-tuples")
        lifted.keys[tup] = key(tup)
    return lifted


def similar_k(
    g: ColoredGraph,
    h: ColoredGraph,
    k: int,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> bool:
    """True when no k-dim refinement invariant separates g and h: run the
    refinement on the disjoint union and compare the color multisets of the
    all-in-g and all-in-h tuples, the two corner blocks of the tuple grid."""
    check_k(k)
    if g.n != h.n or g.directed != h.directed:
        return False
    if g.n == 0:
        return True
    u = disjoint_union(g, h)
    tc = refine_k(u, k, limits=limits)
    grid = tc.colors.reshape((u.n,) * k)
    cg = np.sort(grid[(slice(None, g.n),) * k], axis=None)
    ch = np.sort(grid[(slice(g.n, None),) * k], axis=None)
    return bool(np.array_equal(cg, ch))


def count_paths(
    g: ColoredGraph,
    u: int,
    v: int,
    length: int,
    coloring: Sequence[int] | None = None,
) -> dict[tuple[int, ...], int]:
    """Count simple u-v paths with `length` edges, bucketed by the sequence
    of colors along the path (endpoints included)."""
    if coloring is None:
        coloring = g.vertex_colors
    out: dict[tuple[int, ...], int] = {}
    path = [u]
    seen = {u}

    def walk(x: int) -> None:
        if len(path) == length + 1:
            if x == v:
                chara = tuple(int(coloring[w]) for w in path)
                out[chara] = out.get(chara, 0) + 1
            return
        for y in g.neighbors(x):
            if y in seen:
                continue
            path.append(y)
            seen.add(y)
            walk(y)
            seen.discard(y)
            path.pop()

    walk(u)
    return out


def _hash(*parts: bytes) -> bytes:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.digest()


def stable_vertex_names(
    g: ColoredGraph,
    *,
    vertex_colors: Sequence[int] | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> list[bytes]:
    """Absolute per-vertex names under 1-dim refinement, equal across runs
    and across graphs whenever the underlying structure is.  A vertex's name
    starts as a digest of its color; each round re-hashes it with the sorted
    (name, edge code out, edge code in) parts of its neighbors, for as many
    rounds as the refinement takes to stabilize.  A round's names are
    constant on the stable classes, so each round hashes one representative
    per class: O(m) work a round, no non-neighbor lists."""
    tc = refine_k(g, 1, vertex_colors=vertex_colors, limits=limits)
    if g.n == 0:
        return []
    vc = _vertex_color_array(g, vertex_colors)
    nc = g.neighbor_codes()
    reps = np.unique(tc.colors, return_index=True)[1]
    lo = np.searchsorted(nc.src, reps)
    hi = np.searchsorted(nc.src, reps + 1)
    # each adjacent pair's codes out and in, 8 big-endian bytes each
    codes = np.column_stack((nc.out, nc.inn)).astype(">i8").tobytes()
    cls = tc.colors[nc.tgt].tolist()
    nbrs = [
        [(cls[i], codes[16 * i : 16 * i + 16]) for i in range(a, b)]
        for a, b in zip(lo.tolist(), hi.tolist())
    ]
    names = [_hash(b"v", int(vc[v]).to_bytes(8, "big")) for v in reps.tolist()]
    for _ in range(tc.rounds):
        names = [
            _hash(b"r", names[c], b"N", *sorted(names[x] + part for x, part in nb))
            for c, nb in enumerate(nbrs)
        ]
    return [names[c] for c in tc.colors.tolist()]
