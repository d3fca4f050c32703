"""Stable subsets, their closures, and the contraction-based reduction.

A subset S is color-stable (here: CWS) when any two vertices of S that share
a class color also share their colored neighborhood outside S.  The closure
of a seed set is the fixpoint of adding every outside vertex w on which a
same-colored group of S disagrees (its pair codes to or from w are not all
equal); the result is the minimal CWS superset.  A CWS set is prime when
every same-colored pair inside it closes to exactly the whole set.

Closures run on bit-sliced pair codes.  For each vertex v, bit b of every
code p[v, w] is packed along w into one row of uint64 words (plane b), and a
directed graph adds the planes of p[w, v]; a vertex set is a row of the same
width.  The planes are scattered from the adjacent pairs, so no n x n code
matrix is built; twin groups are found on them too.  The vertices on which
u and r disagree are then the XOR of their planes, ORed over the planes.
One scan per level (`_Scan`) closes the classmate pairs of every scanned
class of the level in one batch, caches each closure as its packed row
(`bytes`) and decides primality from those rows.  Frozensets are built
only for what leaves the module: `closure`, `cws_spectrum`,
`CWSRecord.vertices` and `Level.pieces`.

`reduce_graph` repeats: refine, contract twin groups, contract overlap blocks
(vertices whose pair closures give several distinct primes), then contract
the prime pieces found by the scan, each piece replaced by one vertex whose
color ranks the canonical certificate of the piece's induced subgraph and
whose attachment edges rank the colored attachment profiles.  A piece is
certified with each vertex colored by its (class color, vertex color) pair:
the class colors keep where each class sits in the piece, which the
attachment profiles (class colors only) cannot say, and the vertex colors
what its vertices were.  The run ends in a terminal graph; the combined digest
hashes the terminal certificate plus every level's piece digests and
attachment profiles.  Each of these is invariant under relabeling, so
isomorphic inputs reduce to one digest; that non-isomorphic inputs reduce to
different ones is checked against `oracle.iso_oracle` on small
vertex-colored graphs (tests/test_cws.py).  The normalizations run the same
loop restricted to one kind of piece.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from . import kernels
from .canon import Certificate, certify
from .errors import DecompositionError, UnsupportedGraphError
from .graph import ColoredGraph, serialize_wlg
from .kernels import big_endian, dense_rank_rows
from .limits import DEFAULT_LIMITS, Limits
from .refine import check_k, project, refine_k, similar_k


@dataclass(frozen=True)
class CWSRecord:
    vertices: frozenset[int]
    prime: bool
    seed_pair: tuple[int, int] | None = None


@dataclass
class Level:
    kind: str  # "twin" | "overlap" | "prime"
    pieces: list[CWSRecord]
    digests: list[bytes]
    mapping: list[int]  # old vertex -> new vertex
    profile_table: list[bytes]  # attachment profile per fresh edge color rank
    size_before: int
    size_after: int


@dataclass
class DecompositionTree:
    k: int
    levels: list[Level]
    terminal: ColoredGraph
    terminal_certificate: Certificate = field(repr=False, default=None)

    @property
    def depth(self) -> int:
        return len(self.levels)

    def digest(self) -> bytes:
        h = hashlib.sha256()
        h.update(b"T")
        h.update(self.terminal_certificate.digest)
        for lv in self.levels:
            h.update(b"L")
            h.update(lv.kind.encode("ascii"))
            for d in sorted(lv.digests):
                h.update(b"p")
                h.update(d)
            for p in lv.profile_table:
                h.update(b"e")
                h.update(p)
        return h.digest()


def _as_colors(g: ColoredGraph, coloring) -> np.ndarray:
    arr = np.asarray(list(coloring), dtype=np.int64)
    if arr.shape != (g.n,):
        raise ValueError("coloring must assign one class per vertex")
    return arr


def _refined_classes(g: ColoredGraph, k: int, limits: Limits) -> np.ndarray:
    tc = refine_k(g, k, limits=limits)
    return project(tc, 1).colors


def _seed(g: ColoredGraph, s) -> frozenset[int]:
    """The vertices of `s` as a set, each checked to be a vertex of g."""
    sset = frozenset(int(v) for v in s)
    if not all(0 <= v < g.n for v in sset):
        raise ValueError("seed vertex out of range")
    return sset


def is_cws(g: ColoredGraph, coloring, s) -> bool:
    """Same-colored members of s must agree on their colored adjacency to
    every vertex outside s, i.e. s is its own closure."""
    return _Scan(g, _as_colors(g, coloring), DEFAULT_LIMITS).is_closed(_seed(g, s))


def _dense_classes(cols: np.ndarray) -> np.ndarray:
    """Class colors renumbered 0..m-1, so they can index per-class arrays."""
    return np.unique(cols, return_inverse=True)[1].reshape(-1)


def _class_members(cols: np.ndarray) -> list[np.ndarray]:
    """The indices holding each class color, increasing, by ascending color."""
    dense = _dense_classes(cols)
    order = np.argsort(dense, kind="stable")
    return np.split(order, np.cumsum(np.bincount(dense))[:-1])


# A vertex set is a packed row: bit v % 8 of byte v // 8 stands for vertex v,
# in whole uint64 words, cached as `bytes`.  Seeds closed in one batch keep a
# few rows and one representative per class each; a fixpoint step gathers
# the code rows of the vertices that joined in the step before, in runs.
# Both are capped at this many bytes, or at one seed or one seed's joiners.
_BATCH_BYTES = 1 << 22

# the bits of each byte value, lowest first, and their count
_BYTE_BITS = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
).astype(bool)
_POPCOUNT = _BYTE_BITS.sum(axis=1, dtype=np.uint8)


def _plane_shape(g: ColoredGraph) -> tuple[int, int]:
    """(planes, words) per vertex: a plane per bit of the largest pair code,
    twice as many when directed, and a uint64 word per 64 vertices."""
    nbits = max(1, (g.neighbor_codes().base - 1).bit_length())
    return (1 + g.directed) * nbits, max(1, -(-g.n // 64))


def _bit_planes(g: ColoredGraph) -> np.ndarray:
    """(n, planes, words) uint64 bit-sliced pair codes p of g, scattered from
    its adjacent pairs (`ColoredGraph.neighbor_codes`): bit w of plane b of
    v is bit b of p[v, w], and a directed graph adds the planes of p[w, v]."""
    nc = g.neighbor_codes()
    out = np.zeros((g.n, *_plane_shape(g)), dtype=np.uint64)
    _, nplanes, words = out.shape
    nbits = nplanes // (1 + g.directed)
    at = nc.src * (nplanes * words) + (nc.tgt >> 6)  # the pair's word in plane 0
    bit = np.left_shift(np.uint64(1), (nc.tgt & 63).astype(np.uint64))
    for plane in range(nplanes):
        on = np.flatnonzero(((nc.inn if plane >= nbits else nc.out) >> plane % nbits) & 1)
        # the pairs of a vertex come in increasing w, so one word's bits are a run
        word = at[on] + plane * words
        first = _run_starts(word)
        out.reshape(-1)[word[first]] = np.bitwise_or.reduceat(bit[on], first)
    return out


def _bits_of(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, vertex) of every set bit of packed rows, in row-major order."""
    octets = rows.view(np.uint8).reshape(-1)
    at = np.flatnonzero(octets)
    bit = np.flatnonzero(_BYTE_BITS[octets[at]])
    at = at[bit >> 3]
    row = at // (8 * rows.shape[1])
    return row, (at - row * 8 * rows.shape[1]) * 8 + (bit & 7)


def _run_starts(ids: np.ndarray) -> np.ndarray:
    """Where each run of equal values of `ids` starts."""
    edge = np.empty(ids.shape[0], dtype=bool)
    edge[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=edge[1:])
    return np.flatnonzero(edge)


def _members(row: bytes) -> np.ndarray:
    return _bits_of(np.frombuffer(row, np.uint64).reshape(1, -1))[1]


def _vertex_set(row: bytes) -> frozenset[int]:
    return frozenset(_members(row).tolist())


def _closures(planes: np.ndarray, cls: np.ndarray, seeds: list, cap: int) -> np.ndarray:
    """Least CWS superset of every seed, one packed row each; `planes` comes
    from `_bit_planes` and `cls` holds dense class ids.  The batch state and
    the gathered rows each stay within `cap` bytes, or one seed's, beside
    about 8 KB that any call holds.  A seed in a batch is counted at six
    packed rows (the vertices that joined in the step before, those that
    join now, the set before them, a temporary and the next step's
    joiners), 4 bytes a class and 128 bytes of index arrays; a gathered
    vertex at two rows of planes (its own, XORed with its representative's
    copy), their OR and 192 bytes of set-bit, key and pair index arrays
    (`_bits_of` and below).  The seeds passed in and the rows given back
    are the caller's to count.  Traced: at most 0.88 of 2 * cap + 8 KB
    at caps of 5 KB - 4 MB on 60 disjoint C7 and a 1000-vertex path with 21
    planes; more only where one seed's joining vertices pass the cap.

    A vertex w outside S is forced in when some same-colored group of S
    disagrees on w: `p[grp, w]` (or `p[w, grp]` when directed) is not
    constant.  A group disagrees exactly where one of its members differs
    from any fixed member, so each class keeps one representative in S and
    every vertex that joins S is compared with its representative once.

    Codes are non-negative and below 2^planes, so p[u, w] != p[r, w]
    exactly when some bit b of the two differs, that is when bit w of
    plane b of u XOR plane b of r is set.  ORing those XORs over the planes
    (the in-code planes of a directed graph too) leaves bit w set exactly
    where the int compare of the rows, or of the columns, says "differ".
    Seeds are closed side by side, and a step reads only the rows of the
    vertices that joined in the step before, so its cost follows what it
    adds.
    """
    n, nplanes, words = planes.shape
    planes = planes.reshape(n, nplanes * words)
    out = np.zeros((len(seeds), words), dtype=np.uint64)
    ncls = int(cls.max(initial=-1)) + 1
    batch = max(1, cap // (48 * words + 4 * ncls + 128))
    gather = max(1, cap // (8 * (2 * nplanes * words + words) + 192))
    for lo in range(0, len(seeds), batch):
        chunk = seeds[lo : lo + batch]
        inside = out[lo : lo + len(chunk)]
        sizes = [len(s) for s in chunk]
        vv = np.fromiter((v for s in chunk for v in s), dtype=np.int64, count=sum(sizes))
        bb = np.repeat(np.arange(len(chunk)), sizes)
        bit = np.left_shift(1, vv & 7).astype(np.uint8)
        np.bitwise_or.at(inside.view(np.uint8), (bb, vv >> 3), bit)
        # the representative of class c in seed b is rep[b * ncls + c]
        rep = np.full(len(chunk) * ncls, -1, dtype=np.int32)
        active = np.flatnonzero(inside.any(axis=1))
        joined = np.take(inside, active, axis=0)
        while active.size:
            marked = np.zeros_like(joined)
            cuts = [0, active.size]
            if 64 * joined.size > gather:
                # runs of seeds with about `gather` joining vertices each
                counts = _POPCOUNT[joined.view(np.uint8)].sum(axis=1, dtype=np.int64)
                run = (np.cumsum(counts) - counts) // gather
                cuts = _run_starts(run).tolist() + [active.size]
            for a, b in zip(cuts[:-1], cuts[1:]):
                at, vv = _bits_of(joined[a:b])
                key = active[a + at] * ncls + cls[vv]
                fresh = rep[key] < 0
                rep[key[fresh]] = vv[fresh]
                r = rep[key]
                keep = r != vv
                if not keep.any():
                    continue
                at, vv, r = at[keep], vv[keep], r[keep]
                diff = np.take(planes, vv, axis=0)
                diff ^= np.take(planes, r, axis=0)
                if nplanes > 1:
                    diff = np.bitwise_or.reduce(diff.reshape(-1, nplanes, words), axis=1)
                # at is sorted: OR each seed's rows together
                first = _run_starts(at)
                marked[a + at[first]] = np.bitwise_or.reduceat(diff, first, axis=0)
            was = np.take(inside, active, axis=0)
            marked &= ~was
            inside[active] = was | marked
            live = marked.any(axis=1)
            active, joined = active[live], np.compress(live, marked, axis=0)
    return out


# bytes a cached closure holds beside its row: dict slots, key, `bytes` header
# and primality memo (traced at up to 184 bytes for n = 70-1050)
_ENTRY_BYTES = 200
# bytes a key of a `close_pairs` batch holds while the batch runs: its
# 2-tuple and the key set's slots as the set grows (traced at up to 181)
_KEY_BYTES = 192
# bytes `twin_classes` holds a vertex and an adjacent pair beside the planes,
# their copy and the rank's compare slab: the rank's order, run starts and
# ids, the pass's vertex and id arrays, the masks over the adjacent pairs,
# and 8192 bytes of call objects.  Traced at up to 88 a vertex on sparse
# graphs and 40 an adjacent pair on dense ones (n = 60-2100: disjoint
# 7-cycles, paths, K_60, random, edge-colored and directed graphs),
# peak/need 0.59-0.94
_TWIN_VERTEX_BYTES = 96
_TWIN_PAIR_BYTES = 48


class _Scan:
    """Bit planes, pair closures and primality of one (graph, coloring) within
    `limits.memory_bytes`; closures are `bytes` rows, which hash as keys."""

    def __init__(self, g: ColoredGraph, cols, limits: Limits):
        self.g = g
        self.cls = _dense_classes(np.asarray(cols))
        self.limits = limits
        self.cl: dict[tuple[int, int], bytes] = {}
        self.prime: dict[bytes, bool] = {}
        nplanes, self.words = _plane_shape(g)
        self.plane_bytes = 8 * g.n * nplanes * self.words
        # once a class has two members, closures or twin groups build the
        # planes, and a twin pass copies them and ranks the copy, comparing
        # sorted neighbours one slab of at most _AGREE_CELLS 32-bit words
        # (with its bool compare) at a time
        if np.bincount(self.cls).max(initial=0) >= 2:
            slab = min(self.plane_bytes, 4 * kernels._AGREE_CELLS)
            need = 2 * self.plane_bytes + slab + slab // 4 + 8192
            need += _TWIN_VERTEX_BYTES * g.n + _TWIN_PAIR_BYTES * g.neighbor_codes().src.shape[0]
            limits.check("memory_bytes", need, f"bit planes and twin ranks of {g.n} vertices")

    @cached_property
    def planes(self) -> np.ndarray:
        return _bit_planes(self.g)

    def closures(self, seeds, cap: int = _BATCH_BYTES) -> list[bytes]:
        return [row.tobytes() for row in _closures(self.planes, self.cls, seeds, cap)]

    def is_closed(self, sset: frozenset[int]) -> bool:
        return _vertex_set(self.closures([sset])[0]) == sset

    def close_pairs(self, pairs) -> None:
        """Close and cache every uncached pair in one batch, within budget,
        counting the batch's keys, `todo` slots and rows while it runs."""
        # `set - dict.keys()` would walk the whole cache on every call
        keys = {(x, y) if x < y else (y, x) for x, y in pairs}
        todo = sorted(key for key in keys if key not in self.cl)
        if todo:
            cached = len(self.cl) + len(todo)
            need = self.plane_bytes + cached * (8 * self.words + _ENTRY_BYTES)
            # result rows beside their bytes copies, and two list slots each
            need += len(keys) * _KEY_BYTES + len(todo) * (8 * self.words + 16)
            self.limits.check("memory_bytes", need, f"bit planes and {cached} closures of {self.g.n} vertices")
            # the batch state and the gathered rows fit in what is left
            cap = min(_BATCH_BYTES, (self.limits.memory_bytes - need) // 2)
            self.cl.update(zip(todo, self.closures(todo, cap)))

    def closures_of(self, x: int, ys) -> dict[bytes, tuple[int, int]]:
        """Distinct closures of x with each y, in order of first appearance,
        each mapped to the first pair (x, y) that gave it."""
        ys = list(ys)
        self.close_pairs((x, y) for y in ys)
        out: dict[bytes, tuple[int, int]] = {}
        for y in ys:
            out.setdefault(self.cl[(x, y) if x < y else (y, x)], (x, y))
        return out

    def prime_closures_of(self, x: int, ys) -> dict[bytes, tuple[int, int]]:
        """The prime ones of `closures_of(x, ys)`, in the same order."""
        return {row: pair for row, pair in self.closures_of(x, ys).items() if self.is_prime(row)}

    def is_prime(self, row: bytes) -> bool:
        """Whether the closed set `row` (its own closure) has a same-colored
        pair and every such pair closes to exactly the set."""
        got = self.prime.get(row)
        if got is not None:
            return got
        members = _members(row)
        pairs = _classmate_pairs(members, self.cls[members]) if members.size >= 2 else []
        # batches double in size, so a set that fails early costs at most
        # twice the closures of checking pair by pair
        out, lo, size = bool(pairs), 0, 1
        while out and lo < len(pairs):
            batch = pairs[lo : lo + size]
            self.close_pairs(batch)
            out = all(self.cl[pair] == row for pair in batch)
            lo, size = lo + size, 2 * size
        self.prime[row] = out
        return out


def _classmate_pairs(members: np.ndarray, cls: np.ndarray) -> list[tuple[int, int]]:
    """Every pair x < y of the increasing `members` within one class, sorted.
    One stable argsort by class puts each class's members in one run, in
    increasing order, and each member is paired with the rest of its run."""
    order = np.argsort(cls, kind="stable")
    srt = cls[order]
    ends = np.flatnonzero(np.append(srt[1:] != srt[:-1], True)) + 1
    # how many members of its run follow each position
    later = np.repeat(ends, np.diff(ends, prepend=0)) - np.arange(order.shape[0]) - 1
    i = np.repeat(np.arange(order.shape[0]), later)
    j = np.arange(i.shape[0]) - np.repeat(np.cumsum(later) - later, later) + i + 1
    x, y = members[order[i]], members[order[j]]
    keep = np.lexsort((y, x))
    return list(zip(x[keep].tolist(), y[keep].tolist()))


def closure(g: ColoredGraph, coloring, seed) -> frozenset[int]:
    """Minimal CWS superset of `seed`: whenever a same-colored pair inside
    disagrees about a vertex, that vertex is forced in."""
    scan = _Scan(g, _as_colors(g, coloring), DEFAULT_LIMITS)
    return _vertex_set(scan.closures([_seed(g, seed)])[0])


def is_prime(g: ColoredGraph, coloring, s) -> bool:
    """True when s is a CWS set, contains at least one same-colored pair, and
    every same-colored pair inside closes to exactly s."""
    sset = _seed(g, s)
    scan = _Scan(g, _as_colors(g, coloring), DEFAULT_LIMITS)
    row = scan.closures([sset])[0]
    return _vertex_set(row) == sset and scan.is_prime(row)


def cws_spectrum(g: ColoredGraph, coloring, v: int) -> list[frozenset[int]]:
    """Distinct pair closures of v with its classmates, smallest first."""
    cols = _as_colors(g, coloring)
    if not 0 <= v < g.n:
        raise ValueError("vertex out of range")
    mates = [w for w in range(g.n) if w != v and cols[w] == cols[v]]
    out = [_vertex_set(row) for row in _Scan(g, cols, DEFAULT_LIMITS).closures_of(v, mates)]
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def twin_classes(
    g: ColoredGraph, coloring, *, _scan: _Scan | None = None
) -> tuple[list[list[int]], list[list[int]]]:
    """Groups of mutual twins: (adjacent-pair groups, non-adjacent groups),
    each by smallest member, members ascending.  Twins share a class color,
    a symmetric code a = p[x, y] = p[y, x] (adjacent when a is non-zero)
    and their colored adjacency to every other vertex; adjacent twin groups
    come out as uniform cliques.  A reduction level passes its own scan of
    (g, coloring), so the level builds and budgets its planes once."""
    scan = _Scan(g, _as_colors(g, coloring), DEFAULT_LIMITS) if _scan is None else _scan
    cls = scan.cls
    # twins with codes (a, a) form an equivalence whose classes hold one
    # code each: if x, y are twins with a and y, z with b, then p[y, x] =
    # p[z, x] gives a = b.  x and y are twins with a exactly when they share
    # a class and x's planes with its own bits set to the bits of a equal
    # y's planes with its own bits set so; equal planes are equal rows of
    # codes.  Planes are ranked once for a = 0 and once per code a of an
    # adjacent (a, a) pair within a class.
    nc = g.neighbor_codes()
    sym = (cls[nc.src] == cls[nc.tgt]) & (nc.out == nc.inn)
    passes = [(0, np.flatnonzero(np.bincount(cls)[cls] >= 2))]
    if not passes[0][1].size:
        return [], []
    passes += [(a, np.unique(nc.src[sym & (nc.out == a)])) for a in np.unique(nc.out[sym]).tolist()]
    planes = scan.planes
    _, nplanes, words = planes.shape
    nbits = nplanes // (1 + g.directed)
    true_groups, false_groups = [], []
    for a, xs in passes:
        rows = planes[xs]  # p[x, x] = 0: every own bit is clear
        if a:
            on = ((a >> (np.arange(nplanes) % nbits)) & 1).astype(np.uint64)
            bit = np.left_shift(np.uint64(1), (xs & 63).astype(np.uint64))
            rows[np.arange(xs.size), :, xs >> 6] |= bit[:, None] * on
        # ranked as 32-bit words: dense_rank_rows takes no uint64
        same = dense_rank_rows(big_endian(rows.reshape(xs.size, -1).view(np.uint32)))
        del rows  # before the next pass copies the planes again
        ids = cls[xs] * xs.size + same
        order = np.argsort(ids, kind="stable")
        xs, ids = xs[order], ids[order]
        # only groups of two or more become lists: no view per lone vertex
        starts = _run_starts(ids)
        ends = np.append(starts[1:], ids.size)
        pair = ends - starts >= 2
        for lo, hi in zip(starts[pair].tolist(), ends[pair].tolist()):
            (true_groups if a else false_groups).append(xs[lo:hi].tolist())
    return sorted(true_groups), sorted(false_groups)


def _piece_digest(
    g: ColoredGraph, cols: np.ndarray, piece, k: int, limits: Limits, *, twin: bool = False
) -> bytes:
    """The canonical certificate of the piece's induced subgraph, each vertex
    colored by the rank of its (class color, vertex color) pair, hashed with
    the sorted table of the pairs, which says what each rank means.  A `twin`
    group needs no search: its members share a class, so one rank, and it is
    complete or edgeless with one edge color, so every leaf of its search
    serializes as the graph does."""
    keep = sorted(piece)
    pairs = [(int(cols[v]), g.vertex_colors[v]) for v in keep]
    table = sorted(set(pairs))
    rank = {pair: r for r, pair in enumerate(table)}
    sub = g.induced(keep)[0].with_vertex_colors([rank[pair] for pair in pairs])
    if twin:
        cert = hashlib.sha256(serialize_wlg(sub).encode("ascii")).digest()
    else:
        cert = certify(sub, k, "canonical", limits=limits).digest
    return hashlib.sha256(cert + repr(table).encode("ascii")).digest()


def contract_batch(
    g: ColoredGraph,
    cols: np.ndarray,
    pieces: list[frozenset[int]],
    digests: list[bytes],
) -> tuple[ColoredGraph, list[int], list[bytes]]:
    """Replace each piece by one vertex; returns (new graph, old->new map,
    profile table behind the fresh edge colors); a piece's fresh color ranks
    its digest.  One walk over the edges keeps the edges outside every
    piece and collects the serialized attachment patterns, per (outside
    vertex, piece) and per adjacent piece pair; their entries use class
    colors, so they are stable under relabeling of the input."""
    if g.directed:
        raise UnsupportedGraphError("contraction is defined for undirected graphs")
    order = sorted(range(len(pieces)), key=lambda i: (digests[i], min(pieces[i])))
    slot = [-1] * g.n  # the piece slot holding each vertex; -1 outside every piece
    for at, i in enumerate(order):
        for v in pieces[i]:
            if slot[v] >= 0:
                raise DecompositionError("pieces overlap")
            slot[v] = at
    outside = [v for v in range(g.n) if slot[v] < 0]
    m = len(outside)  # outside vertices map below m, pieces to m and above
    mapping = [m + at for at in slot]
    for new, v in enumerate(outside):
        mapping[v] = new
    color_rank = {d: r for r, d in enumerate(sorted(set(digests)))}
    vbase = g.max_vertex_color() + 1
    colors = [g.vertex_colors[v] for v in outside] + [
        vbase + color_rank[digests[i]] for i in order
    ]
    col = np.asarray(cols).tolist()
    edges: dict[tuple[int, int], int] = {}
    found: dict[tuple[int, int], list] = {}
    for u, v, c in g.edge_list():
        a, b = sorted((mapping[u], mapping[v]))
        if b < m:
            edges[(a, b)] = c
        elif a < m:
            x = u if mapping[u] == b else v  # the piece end
            found.setdefault((a, b), []).append((col[x], c, c))
        elif a != b:
            found.setdefault((a, b), []).append((*sorted((col[u], col[v])), c))
    profiles = {
        (a, b): (("op" if a < m else "pp") + repr(sorted(entries))).encode("ascii")
        for (a, b), entries in found.items()
    }
    profile_table = sorted(set(profiles.values()))
    profile_rank = {prof: r for r, prof in enumerate(profile_table)}
    ebase = g.max_edge_color() + 1
    for key, prof in profiles.items():
        edges[key] = ebase + profile_rank[prof]
    out = ColoredGraph(
        m + len(pieces),
        [(u, v, c) for (u, v), c in sorted(edges.items())],
        directed=False,
        vertex_colors=colors,
    )
    return out, mapping, profile_table


def contract(
    g: ColoredGraph,
    s,
    *,
    k: int = 2,
    coloring=None,
    limits: Limits = DEFAULT_LIMITS,
) -> ColoredGraph:
    """Contract one CWS subset to a single vertex: `contract_batch` on one
    piece.  The fresh vertex and attachment-edge colors rank the piece digest
    and the attachment profiles; `contract_batch` also returns the profile
    table behind the edge ranks."""
    if g.directed:
        raise UnsupportedGraphError("contraction is defined for undirected graphs")
    cols = (
        _refined_classes(g, k, limits) if coloring is None else _as_colors(g, coloring)
    )
    piece = _seed(g, s)
    if not piece or not _Scan(g, cols, limits).is_closed(piece):
        raise UnsupportedGraphError("subset is not color-stable; refusing to contract")
    out, _, _ = contract_batch(g, cols, [piece], [_piece_digest(g, cols, piece, k, limits)])
    return out


def decompose(
    g: ColoredGraph,
    k: int = 2,
    *,
    coloring=None,
    limits: Limits = DEFAULT_LIMITS,
    _scan: _Scan | None = None,
) -> list[CWSRecord]:
    """Scan the class colors in ascending order; for the smallest uncovered
    member of a class, collect the closures with its uncovered classmates
    and accept the unique prime among them.  A class whose scan vertex has
    no prime closure is dropped; several distinct primes raise, since that
    is exactly the overlap situation normalization removes.  Normalization
    skips classes past `Limits.overlap_class_cap`, so there the error is a
    `ResourceLimitError` naming that cap.  Bit planes or cached closures
    past `limits.memory_bytes` raise before they are built (`_Scan`)."""
    if g.directed:
        raise UnsupportedGraphError("decomposition is defined for undirected graphs")
    cols = (
        _refined_classes(g, k, limits) if coloring is None else _as_colors(g, coloring)
    )
    scan = _Scan(g, cols, limits) if _scan is None else _scan
    covered = np.zeros(g.n, dtype=bool)
    records: list[CWSRecord] = []
    for group in _class_members(cols):
        while True:
            members = group[~covered[group]].tolist()
            if len(members) < 2:
                break
            u = members[0]
            primes = scan.prime_closures_of(u, members[1:])
            if not primes:
                break
            if len(primes) > 1:
                limits.check(
                    "overlap_class_cap", int(group.size),
                    f"overlap normalization of the class of vertex {u}, which closes to "
                    f"{len(primes)} distinct primes,",
                )
                sizes = sorted(_members(row).size for row in primes)
                raise DecompositionError(
                    f"vertex {u} closes to {len(primes)} distinct primes "
                    f"(sizes {sizes}); normalize overlaps first"
                )
            row, pair = next(iter(primes.items()))
            inside = _members(row)
            if covered[inside].any():
                raise DecompositionError(
                    f"prime of vertex {u} intersects an accepted piece"
                )
            piece = frozenset(inside.tolist())
            records.append(CWSRecord(vertices=piece, prime=True, seed_pair=pair))
            covered[inside] = True
    return records


def _overlap_blocks(scan: _Scan, limits: Limits) -> list[frozenset[int]]:
    """Vertices whose pair closures hit two or more distinct primes, each
    bundled with the intersection of those primes.  One batch closes every
    classmate pair of every scanned class, so the primality tests read the
    closures of those pairs from the cache."""
    classes = [
        grp.tolist() for grp in _class_members(scan.cls)
        if 3 <= grp.size <= limits.overlap_class_cap
    ]
    scan.close_pairs(pair for members in classes for pair in combinations(members, 2))
    blocks: dict[bytes, np.ndarray] = {}  # members of each block, in order of discovery
    for members in classes:
        for x in members:
            # distinct closures of x with its classmates, in order of first appearance
            rows = dict.fromkeys(scan.cl[(x, y) if x < y else (y, x)] for y in members if y != x)
            primes = [row for row in rows if scan.is_prime(row)]
            if len(primes) >= 2:
                block = np.bitwise_and.reduce(
                    np.frombuffer(b"".join(primes), np.uint8).reshape(len(primes), -1)
                ).tobytes()
                if block not in blocks:
                    inside = _members(block)
                    if inside.size >= 2:
                        blocks[block] = inside
    covered = np.zeros(scan.g.n, dtype=bool)
    for inside in blocks.values():
        if covered[inside].any():
            raise DecompositionError("overlap blocks intersect each other")
        covered[inside] = True
    return [frozenset(inside.tolist()) for inside in blocks.values()]


def _reduce(
    g: ColoredGraph, k: int, kinds: tuple[str, ...], limits: Limits
) -> tuple[list[Level], ColoredGraph]:
    """Refine, then contract the pieces of the first of `kinds` that has any,
    until none has; returns the levels and the terminal graph."""
    if g.directed:
        raise UnsupportedGraphError("reduction is defined for undirected graphs")
    levels: list[Level] = []
    cur = g
    while True:
        if len(levels) > g.n + 1:
            raise DecompositionError("reduction failed to terminate")
        cols = _refined_classes(cur, k, limits)
        scan = _Scan(cur, cols, limits)
        for kind in kinds:
            if kind == "twin":
                true_groups, false_groups = twin_classes(cur, cols, _scan=scan)
                pieces = [frozenset(grp) for grp in true_groups or false_groups]
            elif kind == "overlap":
                pieces = _overlap_blocks(scan, limits)
            else:
                records = decompose(cur, k, coloring=cols, limits=limits, _scan=scan)
                pieces = [r.vertices for r in records]
            if pieces:
                break
        else:
            return levels, cur
        if kind != "prime":
            records = [CWSRecord(vertices=p, prime=False) for p in pieces]
        digests = [_piece_digest(cur, cols, p, k, limits, twin=kind == "twin") for p in pieces]
        nxt, mapping, profile_table = contract_batch(cur, cols, pieces, digests)
        levels.append(
            Level(
                kind=kind, pieces=records, digests=digests, mapping=mapping,
                profile_table=profile_table, size_before=cur.n, size_after=nxt.n,
            )
        )
        cur = nxt


def normalize_cliques(
    g: ColoredGraph,
    k: int = 2,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> ColoredGraph:
    """Contract twin groups (adjacent groups first) until none remain."""
    return _reduce(g, k, ("twin",), limits)[1]


def normalize_overlaps(
    g: ColoredGraph,
    k: int = 2,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> ColoredGraph:
    """Contract overlap blocks until every scan vertex has at most one prime."""
    return _reduce(g, k, ("overlap",), limits)[1]


def reduce_graph(
    g: ColoredGraph,
    k: int = 2,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> tuple[DecompositionTree, Certificate]:
    """Full reduction loop; see the module docstring."""
    levels, cur = _reduce(g, k, ("twin", "overlap", "prime"), limits)
    tree = DecompositionTree(k=k, levels=levels, terminal=cur)
    tree.terminal_certificate = certify(cur, k, "canonical", limits=limits)
    cert = Certificate(
        digest=tree.digest(), k=k, mode="reduce", n=g.n,
        trace=tuple((i, len(lv.pieces)) for i, lv in enumerate(levels)),
    )
    return tree, cert


def mutually_stable_trivial(
    g: ColoredGraph,
    coloring,
    subsets,
    k: int = 2,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> bool:
    """Sufficient condition for a family of disjoint CWS subsets to be
    interchangeable: equal class-color multisets, pairwise k-similar induced
    graphs, and same-colored members agreeing on adjacency outside the
    union of the family."""
    check_k(k)
    cols = _as_colors(g, coloring)
    fam = [_seed(g, s) for s in subsets]
    if len(fam) < 2:
        return True
    union = frozenset().union(*fam)
    if len(union) < sum(map(len, fam)):  # not disjoint
        return False
    scan = _Scan(g, cols, limits)
    if not all(scan.is_closed(s) for s in fam):
        return False
    profs = [sorted(int(cols[v]) for v in s) for s in fam]
    if any(p != profs[0] for p in profs[1:]):
        return False
    # the scan's classes are renumbered over the whole graph, so negative ids
    # still make vertex colors, and one map serves every piece
    graphs = [g.induced(s)[0].with_vertex_colors(scan.cls[sorted(s)]) for s in fam]
    for other in graphs[1:]:
        if not similar_k(graphs[0], other, k, limits=limits):
            return False
    return scan.is_closed(union)
