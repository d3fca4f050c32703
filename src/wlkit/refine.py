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

Every k runs one round loop (`stable_rounds`), and so does the coherent
closure.  A round's rows are dense-ranked lexicographically, previous color
first, so a color id is the rank of its row among the round's rows, and a
round that splits nothing gives back the previous ids.  For k >= 2 a round
first checks whether anything splits: each tuple's exact row is compared
with the row of the first tuple of its class.  When all agree the coloring
is stable and the loop stops without ranking; the round that confirms
stability thus costs a compare, not a sort of its n + 1 wide rows.  A
k >= 2 coloring with n^k classes cannot split, so the loop stops there
without building a round.  A k = 1 row is as narrow as a vertex's degree,
so it is ranked at once and the loop stops when the ids come back
unchanged.

A search node individualizes one vertex v on top of its parent's stable
coloring `start`, and its first round then depends only on each tuple's
relation to v (the first-round observation of McKay and Piperno's
"Practical graph isomorphism, II"), so it costs O(n^k), not O(n^(k+1)).
Let C be the seeded coloring, `start` met with the new vertex colors,
which set apart only v from the vertex classes of `start`.  Because
`start` is stable, all tuples of one class of C share one multiset of
substitution vectors under `start`.  So a tuple t's row is that shared
multiset, read in C, with one vector swapped: u(t), the vector x = v
would give if v kept the color of the rest of its class, becomes the
marked vector m(t) = (C(t[k-1:=v]), ..., C(t[0:=v])).  Within a class of
C, m(t) fixes u(t) and the row, and orders like u(t).  v's new color is
above the rest of its class, so m(t) > u(t), and of two rows the one with
the larger m(t) is lexicographically smaller: their differences are
{u(t'), m(t)} against {u(t), m(t')}, and the smallest of the four is the
smaller u.  Ranking the k + 1 wide rows ``[C(t) | M - C(t[k-1:=v]) |
... | M - C(t[0:=v])]``, M being C's class count, therefore gives the ids
of the full round, and two tuples of a class agree there exactly when
their full rows do.  `refine_k` finds v itself: under the new vertex
colors every vertex class of `start` (read off its diagonal tuples) must
keep one color, but for v, whose color is above the rest of its class.
Any other `start` takes full rounds.

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

from .errors import ResourceLimitError, UnsupportedGraphError
from .graph import ColoredGraph, NeighborCodes, disjoint_union
from .kernels import (
    dense_rank_rows,
    round_rows,
    rows_agree_within_classes,
    substitution_view,
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


def _initial_rows(
    g: ColoredGraph, k: int, vc: np.ndarray, start: np.ndarray | None = None
) -> np.ndarray:
    """Feature rows for all n^k tuples (dense-rankable): the iso type under
    vertex colors `vc`, or `[start | vc at each position]` when seeded.
    Each column is eye(n), the pair codes or `vc` laid along its positions
    and broadcast over the tuple grid."""
    n = g.n
    # digits[i] is the vertex at position i, n long along axis i
    digits = np.indices((n,) * k, sparse=True)
    if start is not None:
        cols = [np.reshape(start, (n,) * k)]
    else:
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


def _estimate_bytes(n: int, k: int, width: int = 0, pairs: int = 0) -> int:
    """Working bytes of a round.  A k = 1 round holds its rows `width` wide,
    the rank's two row-sized copies and a few n-vectors; building the
    `pairs` adjacent ordered pairs takes up to 16 int64 arrays of that
    length.  Checked against tracemalloc peaks of paths, cycles, a star,
    K_100 and random graphs, directed or not (peak/estimate 0.4-0.7)."""
    if k == 1:
        return 8 * (n * (3 * width + 8) + 16 * pairs)
    return 8 * (n**k) * (n + 1) * (k + 3)


def _round_rows_k1(nc: NeighborCodes, colors: np.ndarray) -> np.ndarray:
    """Rows ``[color | sorted neighbor codes c_x*pb^2 + p_vx*pb + p_xv]``,
    padded with _SENTINEL to the maximum degree."""
    pb = nc.base
    rows = np.full((colors.shape[0], 1 + nc.delta), _SENTINEL, dtype=np.int64)
    rows[:, 0] = colors
    rows[nc.src, 1 + nc.pos] = colors[nc.tgt] * (pb * pb) + nc.part
    rows[:, 1:].sort(axis=1)
    return rows


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


def _pivot(start: np.ndarray, vc: np.ndarray, n: int, k: int) -> int | None:
    """The vertex v that `vc` alone sets apart from the vertex classes of
    `start` (read off its diagonal tuples): every class has one color under
    `vc`, but for v, whose color is above the rest of its class.  None when
    `vc` differs from the classes in any other way."""
    diag = start[np.arange(n) * sum(n**j for j in range(k))]
    cls = np.unique(diag, return_inverse=True)[1]
    low = np.full(int(cls.max()) + 1, int(vc.max()), dtype=np.int64)
    np.minimum.at(low, cls, vc)
    raised = np.flatnonzero(vc != low[cls])
    return int(raised[0]) if raised.shape[0] == 1 else None


def _pivot_rows(colors: np.ndarray, n: int, k: int, ncolors: int, v: int) -> np.ndarray:
    """Rows ``[C(t) | M - C(t[k-1:=v]) | ... | M - C(t[0:=v])]`` with M =
    `ncolors`: the first round after v is individualized, ranked in O(n^k)
    (see the module docstring)."""
    grid = colors.reshape((n,) * k)
    rows = np.empty((n**k, k + 1), dtype=np.int64)
    cols = rows.reshape((n,) * k + (k + 1,))
    cols[..., 0] = grid
    for i in range(k):
        cols[..., 1 + i] = ncolors - substitution_view(grid, k - 1 - i)[..., v]
    return rows


def stable_rounds(
    colors: np.ndarray,
    n: int,
    k: int,
    nc: NeighborCodes | None = None,
    pivot: int | None = None,
) -> tuple[np.ndarray, list[int]]:
    """Refine `colors`, dense ids of all n^k tuples, until a round splits
    nothing; returns the stable colors and the class count before the first
    round and after each splitting round.  A k = 1 round needs the graph's
    neighbor codes `nc`.  For k >= 2, `pivot` is a vertex individualized on
    top of the stable coloring that `colors` was seeded from, and the first
    round is built from it alone in O(n^k) (see the module docstring);
    every later round is a full one.  A k >= 2 coloring with n^k classes is
    stable without a round."""
    ncolors = int(colors.max()) + 1
    class_counts = [ncolors]
    while True:
        if k == 1:
            ids = dense_rank_rows(_round_rows_k1(nc, colors))
            if np.array_equal(ids, colors):
                return colors, class_counts
        else:
            if ncolors == colors.shape[0]:
                return colors, class_counts
            if pivot is None:
                rows = round_rows(colors, n, k, ncolors)
            else:
                rows = _pivot_rows(colors, n, k, ncolors, pivot)
                pivot = None
            if rows_agree_within_classes(rows, colors, ncolors):
                return colors, class_counts
            ids = dense_rank_rows(rows)
            del rows  # freed before the next round allocates its own
        colors = ids
        ncolors = int(colors.max()) + 1
        class_counts.append(ncolors)


def refine_k(
    g: ColoredGraph,
    k: int,
    *,
    vertex_colors: Sequence[int] | None = None,
    start: np.ndarray | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> TupleColoring:
    """Run k-dim refinement to stability.

    `vertex_colors` overrides the graph's own colors (used for
    individualization); the edges and the cached pair codes (neighbor codes
    for k = 1) of `g` are used as they are.  `start`, when given, is a
    stable n^k coloring of `g` under coarser vertex colors (a search node's
    parent).  The first coloring is then `start` met with the vertex colors
    of each position instead of the iso type; the stable partition is the
    same, only the color ids differ, and fewer rounds are needed."""
    if k < 1:
        raise ValueError("k must be >= 1")
    vc = _vertex_color_array(g, vertex_colors)
    n = g.n
    if start is not None and np.shape(start) != (n**k,):
        raise ValueError(f"start must be a coloring of all {n}^{k} tuples")
    if k == 1:
        nc = g.neighbor_codes()
        need = _estimate_bytes(n, 1, 1 + nc.delta, nc.src.shape[0])
    else:
        nc = None
        need = _estimate_bytes(n, k)
    if need > limits.memory_bytes:
        raise ResourceLimitError(
            f"refinement at n={n}, k={k} needs about {need} bytes",
            required=need,
            cap=limits.memory_bytes,
        )
    if n == 0:
        return TupleColoring(
            k=k, n=0, colors=np.empty(0, dtype=np.int64), num_colors=0,
            rounds=0, class_counts=[0],
        )
    if nc is not None and n * nc.base**2 >= _SENTINEL:
        raise ResourceLimitError("edge color space too large for the 1-dim round")
    pivot = _pivot(np.asarray(start), vc, n, k) if start is not None and k >= 2 else None
    colors = dense_rank_rows(_initial_rows(g, k, vc, start))
    colors, class_counts = stable_rounds(colors, n, k, nc, pivot)
    return TupleColoring(
        k=k, n=n, colors=colors, num_colors=class_counts[-1],
        rounds=len(class_counts) - 1, class_counts=class_counts,
    )


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
    """Restrict a stable k-coloring to t-tuples (1 <= t <= k) by repeatedly
    sorting out the last position."""
    if not 1 <= t <= tc.k:
        raise ValueError("projection needs 1 <= t <= k")
    cur = tc.colors
    n = tc.n
    for level in range(tc.k - 1, t - 1, -1):
        rows = cur.reshape(n**level, n).copy()
        rows.sort(axis=1)
        cur = dense_rank_rows(rows)
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
        if n**t > limits.lift_tuples:
            raise ResourceLimitError(
                f"enumerating all {n}^{t} tuples exceeds lift_tuples; "
                "pass explicit tuples",
                required=n**t, cap=limits.lift_tuples,
            )
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
    codes = np.column_stack(np.divmod(nc.part, nc.base)).astype(">i8").tobytes()
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
