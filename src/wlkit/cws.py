"""Stable subsets, their closures, and the contraction-based reduction.

A subset S is color-stable (here: CWS) when any two vertices of S that share
a class color also share their colored neighborhood outside S.  The closure
of a seed set is the fixpoint of adding every outside vertex w on which a
same-colored group of S disagrees (its pair codes to or from w are not all
equal); the result is the minimal CWS superset.  A CWS set is prime when
every same-colored pair inside it closes to exactly the whole set.

`reduce_graph` repeats: refine, contract twin groups, contract overlap blocks
(vertices whose pair closures give several distinct primes), then contract
the prime pieces found by the scan, each piece replaced by one vertex whose
color ranks the piece's canonical certificate and whose attachment edges
rank the colored attachment profiles.  The run ends in a terminal graph; the
combined digest hashes the terminal certificate plus every level's piece
digests and rank tables, so two inputs reduce to the same digest only if the
whole decomposition matches piece for piece.  The normalizations run the
same loop restricted to one kind of piece.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .canon import Certificate, certify
from .errors import DecompositionError, UnsupportedGraphError
from .graph import ColoredGraph
from .kernels import dense_rank_rows
from .limits import DEFAULT_LIMITS, Limits
from .oracle import _UnionFind
from .refine import project, refine_k


@dataclass(frozen=True)
class CWSRecord:
    vertices: frozenset[int]
    colors: tuple[tuple[int, int], ...]  # (vertex, class color), sorted
    prime: bool
    seed_pair: tuple[int, int] | None = None


@dataclass
class Level:
    kind: str  # "twin" | "overlap" | "prime"
    pieces: list[CWSRecord]
    digests: list[bytes]
    mapping: list[int]  # old vertex -> new vertex
    color_table: list[bytes]  # piece digest per fresh color rank
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
            for d in lv.color_table:
                h.update(b"c")
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


def is_cws(g: ColoredGraph, coloring, s) -> bool:
    """Same-colored members of s must agree on their colored adjacency to
    every vertex outside s, i.e. s is its own closure."""
    sset = frozenset(int(v) for v in s)
    return closure(g, coloring, sset) == sset


def _dense_classes(cols: np.ndarray) -> np.ndarray:
    """Class colors renumbered 0..m-1, so they can index per-class arrays."""
    return np.unique(cols, return_inverse=True)[1].reshape(-1)


# seeds closed together are capped at this many cells of seeds x n x n, which
# bounds the row gathers of one fixpoint step (the n x n pair codes at most)
_BATCH_CELLS = 1 << 18


def _closures(p: np.ndarray, cls: np.ndarray, seeds: list, directed: bool) -> list[frozenset[int]]:
    """Least CWS superset of every seed; `cls` holds dense class ids.

    A vertex w outside S is forced in when some same-colored group of S
    disagrees on w: `p[grp, w]` (or `p[w, grp]` when directed) is not
    constant.  A group disagrees exactly where one of its members differs
    from any fixed member, so each class keeps one representative in S and
    every vertex that joins S is compared with its representative once.
    Seeds are closed side by side, one row of S per seed.
    """
    n = p.shape[0]
    step = max(1, _BATCH_CELLS // max(1, n * n))
    out: list[frozenset[int]] = []
    for lo in range(0, len(seeds), step):
        chunk = [list(s) for s in seeds[lo : lo + step]]
        inside = np.zeros((len(chunk), n), dtype=bool)
        rep = np.full((len(chunk), n), -1, dtype=np.int64)
        bb = np.repeat(np.arange(len(chunk)), [len(s) for s in chunk])
        vv = np.asarray([v for s in chunk for v in s], dtype=np.int64)
        while vv.size:
            inside[bb, vv] = True
            c = cls[vv]
            fresh = rep[bb, c] < 0
            rep[bb[fresh], c[fresh]] = vv[fresh]
            r = rep[bb, c]
            diff = p[vv] != p[r]
            if directed:
                diff |= (p[:, vv] != p[:, r]).T
            # bb is sorted: OR each seed's rows together
            first = np.flatnonzero(np.diff(bb, prepend=-1))
            marked = np.zeros_like(inside)
            marked[bb[first]] = np.logical_or.reduceat(diff, first, axis=0)
            bb, vv = np.nonzero(marked & ~inside)
        rows, members = np.nonzero(inside)
        ends = np.cumsum(np.bincount(rows, minlength=len(chunk)))[:-1]
        out.extend(frozenset(m.tolist()) for m in np.split(members, ends))
    return out


class _Scan:
    """Memoized pair closures and primality checks for one (graph, coloring)."""

    def __init__(self, g: ColoredGraph, cols):
        self.g = g
        self.cls = _dense_classes(np.asarray(cols))
        self.p = g.pair_codes()
        self.cl: dict[tuple[int, int], frozenset[int]] = {}
        self.prime: dict[frozenset[int], bool] = {}

    def close_pairs(self, pairs) -> None:
        """Close every uncached pair in one batch."""
        # `set - dict.keys()` would walk the whole cache on every call
        keys = {(x, y) if x < y else (y, x) for x, y in pairs}
        todo = sorted(key for key in keys if key not in self.cl)
        self.cl.update(zip(todo, _closures(self.p, self.cls, todo, self.g.directed)))

    def closure_pair(self, x: int, y: int) -> frozenset[int]:
        key = (x, y) if x < y else (y, x)
        if key not in self.cl:
            self.close_pairs([key])
        return self.cl[key]

    def closures_of(self, x: int, ys) -> dict[frozenset[int], tuple[int, int]]:
        """Distinct closures of x with each y, in order of first appearance,
        each mapped to the first pair (x, y) that gave it."""
        ys = list(ys)
        self.close_pairs((x, y) for y in ys)
        out: dict[frozenset[int], tuple[int, int]] = {}
        for y in ys:
            out.setdefault(self.closure_pair(x, y), (x, y))
        return out

    def is_prime(self, sset: frozenset[int]) -> bool:
        """A CWS set (one that is its own closure) with a same-colored pair,
        every such pair closing to exactly the set."""
        got = self.prime.get(sset)
        if got is not None:
            return got
        out = False
        if len(sset) >= 2 and _closures(self.p, self.cls, [sset], self.g.directed)[0] == sset:
            members = sorted(sset)
            cls = self.cls[members].tolist()
            pairs = [
                (x, members[j])
                for i, x in enumerate(members)
                for j in range(i + 1, len(members))
                if cls[i] == cls[j]
            ]
            # batches double in size, so a set that fails early costs at
            # most twice the closures of checking pair by pair
            out, lo, size = bool(pairs), 0, 1
            while out and lo < len(pairs):
                batch = pairs[lo : lo + size]
                self.close_pairs(batch)
                out = all(self.cl[pair] == sset for pair in batch)
                lo, size = lo + size, 2 * size
        self.prime[sset] = out
        return out


def closure(g: ColoredGraph, coloring, seed) -> frozenset[int]:
    """Minimal CWS superset of `seed`: whenever a same-colored pair inside
    disagrees about a vertex, that vertex is forced in."""
    cols = _as_colors(g, coloring)
    s = set(int(v) for v in seed)
    if not all(0 <= v < g.n for v in s):
        raise ValueError("seed vertex out of range")
    return _closures(g.pair_codes(), _dense_classes(cols), [s], g.directed)[0]


def is_prime(g: ColoredGraph, coloring, s) -> bool:
    """True when s is a CWS set, contains at least one same-colored pair, and
    every same-colored pair inside closes to exactly s."""
    cols = _as_colors(g, coloring)
    sset = frozenset(int(v) for v in s)
    return _Scan(g, cols).is_prime(sset)


def cws_spectrum(g: ColoredGraph, coloring, v: int) -> list[frozenset[int]]:
    """Distinct pair closures of v with its classmates, smallest first."""
    cols = _as_colors(g, coloring)
    if not 0 <= v < g.n:
        raise ValueError("vertex out of range")
    mates = [w for w in range(g.n) if w != v and cols[w] == cols[v]]
    out = _Scan(g, cols).closures_of(v, mates)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def twin_classes(
    g: ColoredGraph, coloring
) -> tuple[list[list[int]], list[list[int]]]:
    """Groups of mutual twins: (adjacent-pair groups, non-adjacent groups).
    Twins share a class color and their colored adjacency to every other
    vertex; adjacent twin groups come out as uniform cliques.  A pair counts
    as adjacent when the code of (smaller, larger) is non-zero."""
    cls = _dense_classes(_as_colors(g, coloring))
    p = g.pair_codes()
    n = g.n
    uf_t, uf_f = _UnionFind(n), _UnionFind(n)
    # x and y are twins when the codes of (x, w) and (w, x) equal those of
    # (y, w) and (w, y) at every other w.  With a = p[x, y] and b = p[y, x]
    # that is: x's row [class | p[x, :] | p[:, x]] with its own two cells set
    # to (b, a) equals y's row with its own two set to (a, b).  Rows are
    # sorted once for a = b = 0 and once per code pair {a, b} of an adjacent
    # pair within a class.
    nc = g.neighbor_codes()
    within = cls[nc.src] == cls[nc.tgt]
    src, part = nc.src[within], nc.part[within]
    a_of, b_of = np.divmod(part, nc.base)
    passes = [(0, 0, np.flatnonzero(np.bincount(cls)[cls] >= 2), None)]
    for code in np.unique(np.minimum(a_of, b_of) * nc.base + np.maximum(a_of, b_of)).tolist():
        a, b = divmod(code, nc.base)
        xs = np.unique(src[(a_of == a) & (b_of == b)])
        passes.append((a, b, xs, None if a == b else np.unique(src[(a_of == b) & (b_of == a)])))
    for a, b, xs, ys in passes:
        if ys is None:
            ids = dense_rank_rows(_twin_rows(p, cls, xs, a, a, g.directed))
            order = np.argsort(ids, kind="stable")
            starts = np.flatnonzero(np.diff(ids[order], prepend=-1))
            uf = uf_t if a else uf_f
            for grp in np.split(xs[order], starts[1:]):
                for y in grp[1:].tolist():
                    uf.union(int(grp[0]), y)
            continue
        # a != b: a row of one side equals at most one row of the other
        ids = dense_rank_rows(np.vstack((
            _twin_rows(p, cls, xs, b, a, True), _twin_rows(p, cls, ys, a, b, True),
        )))
        x_of = dict(zip(ids[: xs.shape[0]].tolist(), xs.tolist()))
        for rid, y in zip(ids[xs.shape[0] :].tolist(), ys.tolist()):
            x = x_of.get(rid)
            if x is not None:
                (uf_t if p[min(x, y), max(x, y)] != 0 else uf_f).union(x, y)
    return (
        [grp for grp in uf_t.groups() if len(grp) >= 2],
        [grp for grp in uf_f.groups() if len(grp) >= 2],
    )


def _twin_rows(
    p: np.ndarray, cls: np.ndarray, vs: np.ndarray, out: int, into: int, directed: bool
) -> np.ndarray:
    """Rows [class | p[v, :] | p[:, v]] of the vertices vs, with p[v, v] set
    to `out` in the first half and to `into` in the second.  The second half
    repeats the first in an undirected graph and is left out."""
    n = p.shape[0]
    rows = np.empty((vs.shape[0], 1 + n * (1 + directed)), dtype=np.int64)
    at = np.arange(vs.shape[0])
    rows[:, 0] = cls[vs]
    rows[:, 1 : n + 1] = p[vs]
    rows[at, 1 + vs] = out
    if directed:
        rows[:, n + 1 :] = p.T[vs]
        rows[at, n + 1 + vs] = into
    return rows


def _piece_graph(g: ColoredGraph, cols: np.ndarray, piece: frozenset[int]) -> ColoredGraph:
    sub, index = g.induced(sorted(piece))
    local = cols[np.asarray(index, dtype=np.int64)]
    _, dense = np.unique(local, return_inverse=True)
    return sub.with_vertex_colors([int(c) for c in dense])


def _piece_digest(
    g: ColoredGraph, cols: np.ndarray, piece: frozenset[int], k: int, limits: Limits
) -> bytes:
    return certify(_piece_graph(g, cols, piece), k, "canonical", limits=limits).digest


def _attachment_profiles(
    g: ColoredGraph, cols: np.ndarray, pieces: list[frozenset[int]]
) -> tuple[dict, dict]:
    """Serialized colored attachment patterns: per (outside vertex, piece)
    and per adjacent piece pair, in one walk over the edges.  Entries use
    class colors, so they are stable under relabeling of the input."""
    owner = {}
    for pi, piece in enumerate(pieces):
        for v in piece:
            owner[v] = pi
    col = [int(c) for c in cols]
    op: dict[tuple[int, int], bytes] = {}
    between: dict[tuple[int, int], list] = {}
    for w in range(g.n):
        pw = owner.get(w)
        per_piece: dict[int, list] = {}
        for u in g.neighbors(w):
            pu = owner.get(u)
            if pu is None:
                continue
            if pw is None:
                c = g.edge_color(w, u)
                cr = g.edge_color(u, w)
                per_piece.setdefault(pu, []).append(
                    (col[u], -1 if c is None else c, -1 if cr is None else cr)
                )
            elif pu > pw:
                c = g.edge_color(w, u)
                between.setdefault((pw, pu), []).append(
                    (*sorted((col[w], col[u])), 0 if c is None else c)
                )
        for pi, entries in per_piece.items():
            op[(w, pi)] = ("op" + repr(sorted(entries))).encode("ascii")
    pp = {
        key: ("pp" + repr(sorted(entries))).encode("ascii")
        for key, entries in sorted(between.items())
    }
    return op, pp


def contract_batch(
    g: ColoredGraph,
    cols: np.ndarray,
    pieces: list[frozenset[int]],
    digests: list[bytes],
) -> tuple[ColoredGraph, list[int], list[bytes], list[bytes]]:
    """Replace each piece by one vertex; returns (new graph, old->new map,
    digest table behind the fresh colors, profile table behind the fresh
    edge colors)."""
    seen: set[int] = set()
    for piece in pieces:
        if seen & piece:
            raise DecompositionError("pieces overlap")
        seen |= piece
    outside = [v for v in range(g.n) if v not in seen]
    order = sorted(range(len(pieces)), key=lambda i: (digests[i], min(pieces[i])))
    mapping = [-1] * g.n
    for new, v in enumerate(outside):
        mapping[v] = new
    for slot, i in enumerate(order):
        for v in pieces[i]:
            mapping[v] = len(outside) + slot
    color_table = sorted(set(digests))
    color_rank = {d: r for r, d in enumerate(color_table)}
    vbase = g.max_vertex_color() + 1
    colors = [g.vertex_colors[v] for v in outside] + [
        vbase + color_rank[digests[i]] for i in order
    ]
    op, pp = _attachment_profiles(g, cols, pieces)
    profile_table = sorted(set(op.values()) | set(pp.values()))
    profile_rank = {prof: r for r, prof in enumerate(profile_table)}
    ebase = g.max_edge_color() + 1
    edges: dict[tuple[int, int], int] = {}
    for u, v, c in g.edge_list():
        iu, iv = u in seen, v in seen
        if not iu and not iv:
            edges[(mapping[u], mapping[v])] = c
    slot_of_piece = {i: len(outside) + slot for slot, i in enumerate(order)}
    for (w, pi), prof in op.items():
        a, b = mapping[w], slot_of_piece[pi]
        edges[(min(a, b), max(a, b))] = ebase + profile_rank[prof]
    for (i, j), prof in pp.items():
        a, b = slot_of_piece[i], slot_of_piece[j]
        edges[(min(a, b), max(a, b))] = ebase + profile_rank[prof]
    out = ColoredGraph(
        len(outside) + len(pieces),
        [(u, v, c) for (u, v), c in sorted(edges.items())],
        directed=False,
        vertex_colors=colors,
    )
    return out, mapping, color_table, profile_table


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
    and the attachment profiles; `contract_batch` also returns the tables
    behind those ranks."""
    if g.directed:
        raise UnsupportedGraphError("contraction is defined for undirected graphs")
    cols = (
        _refined_classes(g, k, limits) if coloring is None else _as_colors(g, coloring)
    )
    piece = frozenset(int(v) for v in s)
    if not piece or not is_cws(g, cols, piece):
        raise UnsupportedGraphError("subset is not color-stable; refusing to contract")
    out, _, _, _ = contract_batch(g, cols, [piece], [_piece_digest(g, cols, piece, k, limits)])
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
    is exactly the overlap situation normalization removes."""
    if g.directed:
        raise UnsupportedGraphError("decomposition is defined for undirected graphs")
    cols = (
        _refined_classes(g, k, limits) if coloring is None else _as_colors(g, coloring)
    )
    scan = _Scan(g, cols) if _scan is None else _scan
    covered: set[int] = set()
    records: list[CWSRecord] = []
    for cid in sorted(set(int(c) for c in cols)):
        while True:
            members = [v for v in range(g.n) if cols[v] == cid and v not in covered]
            if len(members) < 2:
                break
            u = members[0]
            found = scan.closures_of(u, members[1:])
            primes = {s: pair for s, pair in found.items() if scan.is_prime(s)}
            if not primes:
                break
            if len(primes) > 1:
                sizes = sorted(len(s) for s in primes)
                raise DecompositionError(
                    f"vertex {u} closes to {len(primes)} distinct primes "
                    f"(sizes {sizes}); normalize overlaps first"
                )
            piece, pair = next(iter(primes.items()))
            if piece & covered:
                raise DecompositionError(
                    f"prime of vertex {u} intersects an accepted piece"
                )
            records.append(
                CWSRecord(
                    vertices=piece,
                    colors=tuple(sorted((v, int(cols[v])) for v in piece)),
                    prime=True,
                    seed_pair=pair,
                )
            )
            covered |= piece
    return records


def _overlap_blocks(
    g: ColoredGraph, cols: np.ndarray, limits: Limits, scan: _Scan | None = None
) -> list[frozenset[int]]:
    """Vertices whose pair closures hit two or more distinct primes, each
    bundled with the intersection of those primes."""
    if scan is None:
        scan = _Scan(g, cols)
    blocks: list[frozenset[int]] = []
    takenfrom: set[frozenset[int]] = set()
    for cid in sorted(set(int(c) for c in cols)):
        members = [v for v in range(g.n) if cols[v] == cid]
        if len(members) < 3 or len(members) > limits.overlap_class_cap:
            continue
        for x in members:
            found = scan.closures_of(x, (y for y in members if y != x))
            primes = [s for s in found if scan.is_prime(s)]
            if len(primes) >= 2:
                block = frozenset.intersection(*primes)
                if len(block) >= 2 and block not in takenfrom:
                    takenfrom.add(block)
                    blocks.append(block)
    for i, a in enumerate(blocks):
        for b in blocks[i + 1 :]:
            if a & b:
                raise DecompositionError("overlap blocks intersect each other")
    return blocks


def _reduce(
    g: ColoredGraph, k: int, piece_k: int, kinds: tuple[str, ...], limits: Limits
) -> tuple[list[Level], ColoredGraph]:
    """Refine, then contract the pieces of the first of `kinds` that has any,
    until none has; returns the levels and the terminal graph.  Pieces are
    certified at `piece_k`."""
    if g.directed:
        raise UnsupportedGraphError("reduction is defined for undirected graphs")
    levels: list[Level] = []
    cur = g
    while True:
        if len(levels) > g.n + 1:
            raise DecompositionError("reduction failed to terminate")
        cols = _refined_classes(cur, k, limits)
        scan = _Scan(cur, cols)
        for kind in kinds:
            if kind == "twin":
                true_groups, false_groups = twin_classes(cur, cols)
                pieces = [frozenset(grp) for grp in true_groups or false_groups]
            elif kind == "overlap":
                pieces = _overlap_blocks(cur, cols, limits, scan=scan)
            else:
                records = decompose(cur, k, coloring=cols, limits=limits, _scan=scan)
                pieces = [r.vertices for r in records]
            if pieces:
                break
        else:
            return levels, cur
        digests = [_piece_digest(cur, cols, p, piece_k, limits) for p in pieces]
        nxt, mapping, color_table, profile_table = contract_batch(
            cur, cols, pieces, digests
        )
        recs = [
            CWSRecord(
                vertices=p,
                colors=tuple(sorted((v, int(cols[v])) for v in p)),
                prime=(kind == "prime"),
            )
            for p in pieces
        ]
        levels.append(
            Level(
                kind=kind, pieces=recs, digests=digests, mapping=mapping,
                color_table=color_table, profile_table=profile_table,
                size_before=cur.n, size_after=nxt.n,
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
    return _reduce(g, k, k, ("twin",), limits)[1]


def normalize_overlaps(
    g: ColoredGraph,
    k: int = 2,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> ColoredGraph:
    """Contract overlap blocks until every scan vertex has at most one prime."""
    return _reduce(g, k, k, ("overlap",), limits)[1]


def reduce_graph(
    g: ColoredGraph,
    k: int = 2,
    *,
    limits: Limits = DEFAULT_LIMITS,
    escalate: bool = False,
) -> tuple[DecompositionTree, Certificate]:
    """Full reduction loop; see the module docstring.  `escalate` certifies
    pieces one dimension higher (slower, finer piece separation)."""
    piece_k = k + 1 if escalate else k
    levels, cur = _reduce(g, k, piece_k, ("twin", "overlap", "prime"), limits)
    tree = DecompositionTree(k=k, levels=levels, terminal=cur)
    tree.terminal_certificate = certify(cur, piece_k, "canonical", limits=limits)
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
    from .refine import similar_k

    cols = _as_colors(g, coloring)
    fam = [frozenset(int(v) for v in s) for s in subsets]
    if len(fam) < 2:
        return True
    union: set[int] = set()
    for s in fam:
        if union & s:
            return False
        union |= s
    for s in fam:
        if not is_cws(g, cols, s):
            return False
    profs = [sorted(int(cols[v]) for v in s) for s in fam]
    if any(p != profs[0] for p in profs[1:]):
        return False
    graphs = [_piece_graph(g, cols, s) for s in fam]
    for other in graphs[1:]:
        if not similar_k(graphs[0], other, k, limits=limits):
            return False
    return is_cws(g, cols, union)
