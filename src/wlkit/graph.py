"""Colored-graph core: representation, WLG text I/O, and small combinators.

Graphs are finite, loop-free, and simple (at most one edge per vertex pair,
one di-edge per ordered pair when directed).  Vertices are 0..n-1 and carry
non-negative integer colors (default 0); edges carry non-negative integer
colors as well.

WLG text format::

    # comment
    p wlg <n> <m> <directed: 0|1>
    v <index> <color>
    e <u> <v> [<color>]

Serialization is canonical: header, ``v`` lines ascending by index with
color-0 lines omitted, then ``e`` lines ascending lexicographically with
color-0 fields omitted.
"""
from __future__ import annotations

import random
from itertools import chain, combinations
from typing import NamedTuple

import numpy as np

from .errors import ParseError, UnsupportedGraphError
from .limits import DEFAULT_LIMITS, Limits
from .records import RecordFormat, Records, Tag, repeats


class NeighborCodes(NamedTuple):
    """Adjacent ordered pairs (x, y) in CSR order, di-edges counted in either
    orientation: `out` is p[x, y] and `inn` p[y, x] for the pair codes p of
    `ColoredGraph.pair_codes`, `pos` the pair's place among the pairs of x,
    `delta` the largest number of pairs of one x and `base` p.max() + 1."""

    src: np.ndarray
    tgt: np.ndarray
    out: np.ndarray
    inn: np.ndarray
    pos: np.ndarray
    delta: int
    base: int


class ColoredGraph:
    """Immutable colored graph. Mutating helpers return new instances."""

    __slots__ = (
        "n", "directed", "vertex_colors", "edges", "_pair_codes", "_neighbors",
        "_neighbor_codes", "_edge_array",
    )

    def __init__(self, n: int, edges=(), directed: bool = False, vertex_colors=None):
        if n < 0:
            raise UnsupportedGraphError("vertex count must be non-negative")
        self.n = n
        self.directed = bool(directed)
        if vertex_colors is None:
            vertex_colors = (0,) * n
        else:
            vertex_colors = tuple(int(c) for c in vertex_colors)
            if len(vertex_colors) != n:
                raise UnsupportedGraphError("vertex_colors length must equal n")
            if any(c < 0 for c in vertex_colors):
                raise UnsupportedGraphError("vertex colors must be non-negative")
        self.vertex_colors = vertex_colors

        norm: dict[tuple[int, int], int] = {}
        for item in edges:
            if len(item) == 2:
                u, v, c = item[0], item[1], 0
            else:
                u, v, c = item
            u, v, c = int(u), int(v), int(c)
            if not (0 <= u < n and 0 <= v < n):
                raise UnsupportedGraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise UnsupportedGraphError(f"self-loop at vertex {u}")
            if c < 0:
                raise UnsupportedGraphError("edge colors must be non-negative")
            if not self.directed and u > v:
                u, v = v, u
            if (u, v) in norm:
                raise UnsupportedGraphError(f"duplicate edge ({u},{v})")
            norm[(u, v)] = c
        self._set(norm, None)

    @classmethod
    def _checked(
        cls, n: int, directed: bool, vertex_colors: tuple, edges: dict, edge_array: np.ndarray
    ) -> "ColoredGraph":
        """A graph from vertex colors and normalized edges that have passed
        `__init__`'s checks already; `edge_array` is `edge_array()`."""
        g = cls.__new__(cls)
        g.n, g.directed, g.vertex_colors = n, directed, vertex_colors
        g._set(edges, edge_array)
        return g

    def _set(self, edges: dict, edge_array) -> None:
        self.edges = edges
        self._edge_array = edge_array
        self._pair_codes = None
        self._neighbors = None
        self._neighbor_codes = None

    # -- basic accessors ---------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge_color(self, u: int, v: int) -> int | None:
        """Color of edge (u,v), or None when absent. Respects direction."""
        if not self.directed and u > v:
            u, v = v, u
        return self.edges.get((u, v))

    def has_edge(self, u: int, v: int) -> bool:
        return self.edge_color(u, v) is not None

    def neighbors(self, v: int) -> list[int]:
        """Sorted neighbors of v; di-edges count in either orientation."""
        return self._neighbor_lists()[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def max_vertex_color(self) -> int:
        return max(self.vertex_colors, default=0)

    def max_edge_color(self) -> int:
        return max(self.edges.values(), default=0)

    def _neighbor_lists(self) -> list[list[int]]:
        if self._neighbors is None:
            nbrs: list[set[int]] = [set() for _ in range(self.n)]
            for (u, v) in self.edges:
                nbrs[u].add(v)
                nbrs[v].add(u)
            self._neighbors = [sorted(s) for s in nbrs]
        return self._neighbors

    def edge_array(self) -> np.ndarray:
        """(m, 3) int64 rows (u, v, color), one per edge in `edges` order."""
        if self._edge_array is None:
            m = len(self.edges)
            out = np.empty((m, 3), dtype=np.int64)
            out[:, :2] = np.fromiter(
                chain.from_iterable(self.edges), dtype=np.int64, count=2 * m
            ).reshape(m, 2)
            out[:, 2] = np.fromiter(self.edges.values(), dtype=np.int64, count=m)
            self._edge_array = out
        return self._edge_array

    def pair_codes(self) -> np.ndarray:
        """(n,n) int64 matrix: 0 for non-adjacent, 1+color for a (di-)edge."""
        if self._pair_codes is None:
            P = np.zeros((self.n, self.n), dtype=np.int64)
            for (u, v), c in self.edges.items():
                P[u, v] = 1 + c
                if not self.directed:
                    P[v, u] = 1 + c
            self._pair_codes = P
        return self._pair_codes

    def neighbor_codes(self) -> NeighborCodes:
        """The adjacent pairs and their codes, built from the edges in
        O(m log m) without the n x n pair-code matrix."""
        if self._neighbor_codes is None:
            n, m = self.n, len(self.edges)
            u, v, code = self.edge_array().T
            code = 1 + code
            src, tgt = np.concatenate([u, v]), np.concatenate([v, u])
            if self.directed:
                # (u, v) takes the edge's code out and (v, u) its code in
                none = np.zeros(m, dtype=np.int64)
                out, inn = np.concatenate([code, none]), np.concatenate([none, code])
            else:
                out = inn = np.concatenate([code, code])
            # sort by (x, y); a pair with di-edges both ways comes twice and
            # adds the two
            key = src * n + tgt
            order = np.argsort(key, kind="stable")
            key = key[order]
            first = np.flatnonzero(np.diff(key, prepend=-1))
            out = np.add.reduceat(out[order], first)
            inn = np.add.reduceat(inn[order], first)
            src, tgt = np.divmod(key[first], n)
            base = int(code.max()) + 1 if m else 1
            degree = np.bincount(src, minlength=n)
            first_pair = np.cumsum(degree) - degree
            self._neighbor_codes = NeighborCodes(
                src=src, tgt=tgt, out=out, inn=inn,
                pos=np.arange(src.shape[0], dtype=np.int64) - first_pair[src],
                delta=int(degree.max()) if n else 0,
                base=base,
            )
        return self._neighbor_codes

    # -- equality / rebuilding --------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ColoredGraph)
            and self.n == other.n
            and self.directed == other.directed
            and self.vertex_colors == other.vertex_colors
            and self.edges == other.edges
        )

    def __repr__(self) -> str:
        kind = "digraph" if self.directed else "graph"
        return f"<ColoredGraph {kind} n={self.n} m={self.num_edges}>"

    def edge_list(self) -> list[tuple[int, int, int]]:
        """Edges as (u,v,color), canonically sorted."""
        return [(u, v, c) for (u, v), c in sorted(self.edges.items())]

    def with_vertex_colors(self, colors) -> "ColoredGraph":
        return ColoredGraph(self.n, self.edge_list(), self.directed, colors)

    def relabel(self, perm: list[int]) -> "ColoredGraph":
        """Apply vertex permutation: vertex i of self becomes perm[i]."""
        colors, rows = _relabeled(self, perm)
        u, v, c = rows.T.tolist()
        return ColoredGraph._checked(
            self.n, self.directed, colors, dict(zip(zip(u, v), c)), rows
        )

    def induced(self, subset) -> tuple["ColoredGraph", list[int]]:
        """Subgraph on ``subset``; returns (graph, sorted original indices)."""
        keep = sorted(set(subset))
        pos = {v: i for i, v in enumerate(keep)}
        edges = [
            (pos[u], pos[v], c)
            for (u, v), c in self.edges.items()
            if u in pos and v in pos
        ]
        colors = [self.vertex_colors[v] for v in keep]
        return ColoredGraph(len(keep), edges, self.directed, colors), keep


# -- WLG text I/O ----------------------------------------------------------

_WLG = RecordFormat(
    "wlg",
    Tag("p", (3, 3), "header must be 'p wlg <n> <m> <directed>'",
        "header fields must be integers"),
    (
        Tag("v", (2, 2), "vertex line must be 'v <index> <color>'",
            "vertex fields must be integers"),
        Tag("e", (2, 3), "edge line must be 'e <u> <v> [<color>]'",
            "edge fields must be integers"),
    ),
    unknown="unknown directive {!r}",
    early="'{}' line before header",
)


def parse_wlg(text: str) -> ColoredGraph:
    """Parse WLG text into a ColoredGraph. Raises ParseError with line numbers."""
    rec = Records(text, _WLG)
    f = rec.fields
    n, m, d = f[rec.heads[0]].tolist() if rec.heads.size else (0, 0, 0)
    rec.check(rec.heads[:1], n < 0 or m < 0 or d not in (0, 1), lambda r: "invalid header values")

    vs = rec.after(1)
    idx, col = f[vs, 0], f[vs, 1]
    bad_index = (idx < 0) | (idx >= n)
    bad_color = col < 0
    rec.check(vs, bad_index, lambda r: f"vertex index {f[r, 0]} out of range")
    rec.check(vs, bad_color, lambda r: "vertex color must be non-negative")
    ok = ~(bad_index | bad_color)
    vs, idx, col = vs[ok], idx[ok], col[ok]
    rec.check(vs, repeats(idx), lambda r: f"duplicate color line for vertex {f[r, 0]}")

    es = rec.after(2)
    u, v, c = f[es].T
    bad_range = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    loop = u == v
    bad_color = c < 0
    rec.check(es, bad_range, lambda r: f"edge ({f[r, 0]},{f[r, 1]}) out of range")
    rec.check(es, loop, lambda r: f"self-loop at vertex {f[r, 0]}")
    rec.check(es, bad_color, lambda r: "edge color must be non-negative")
    ok = ~(bad_range | loop | bad_color)
    es, u, v, c = es[ok], u[ok], v[ok], c[ok]
    if not d:
        u, v = np.minimum(u, v), np.maximum(u, v)
    edges = dict(zip(zip(u.tolist(), v.tolist()), c.tolist()))
    # the dict is one entry short for every repeated edge
    rec.check(es, len(edges) < es.shape[0] and repeats(u, v),
              lambda r: f"duplicate edge ({f[r, 0]},{f[r, 1]})")

    rec.finish()
    if not rec.heads.size:
        raise ParseError("missing 'p wlg' header", 1)
    if len(edges) != m:
        line = rec.line(int(rec.heads[0]))
        raise ParseError(f"header declares {m} edges, found {len(edges)}", line)
    colors = np.zeros(n, dtype=np.int64)
    colors[idx] = col
    return ColoredGraph._checked(
        n, bool(d), tuple(colors.tolist()), edges, np.column_stack((u, v, c))
    )


def serialize_wlg(g: ColoredGraph) -> str:
    """Canonical WLG serialization; parse(serialize(g)) == g."""
    return _format_wlg(g.n, g.directed, g.vertex_colors, g.edge_array())


def serialize_wlg_relabeled(g: ColoredGraph, perm) -> str:
    """serialize_wlg(g.relabel(perm)), written without building the
    relabeled graph: vertex i of g becomes perm[i]."""
    return _format_wlg(g.n, g.directed, *_relabeled(g, perm))


def is_permutation(p, n: int) -> bool:
    """Whether p lists each of 0..n-1 exactly once."""
    p = np.asarray(p)
    return p.shape == (n,) and bool(np.array_equal(np.sort(p), np.arange(n)))


def _relabeled(g: ColoredGraph, perm) -> tuple[tuple[int, ...], np.ndarray]:
    """The vertex colors and the normalized edge rows (u, v, color), in
    `edges` order, of g with vertex i renamed perm[i]."""
    if not is_permutation(perm, g.n):
        raise UnsupportedGraphError("relabel requires a permutation of 0..n-1")
    p = np.asarray(perm, dtype=np.int64)
    colors = np.empty(g.n, dtype=np.int64)
    colors[p] = g.vertex_colors
    e = g.edge_array()
    rows = e.copy()
    u, v = p[e[:, 0]], p[e[:, 1]]
    if g.directed:
        rows[:, 0], rows[:, 1] = u, v
    else:
        np.minimum(u, v, out=rows[:, 0])
        np.maximum(u, v, out=rows[:, 1])
    return tuple(colors.tolist()), rows


def _format_wlg(n: int, directed: bool, colors, rows: np.ndarray) -> str:
    """WLG text: header, a `v` line for every non-zero entry of `colors`,
    then the normalized edges (u, v, color) of `rows` in ascending order
    with color-0 fields omitted."""
    m = rows.shape[0]
    rows = rows[np.argsort(rows[:, 0] * n + rows[:, 1])]  # distinct pairs of 0..n-1
    # every edge line ends in its color field, so " 0\n" is a color-0 field
    edges = ("e %d %d %d\n" * m % tuple(rows.ravel().tolist())).replace(" 0\n", "\n")
    head = [f"p wlg {n} {m} {int(directed)}\n"]
    head += [f"v {i} {c}\n" for i, c in enumerate(colors) if c]
    return "".join(head) + edges


# -- combinators -----------------------------------------------------------


def complement(g: ColoredGraph) -> ColoredGraph:
    """Edge-complement of an undirected, edge-uncolored graph."""
    if g.directed:
        raise UnsupportedGraphError("complement requires an undirected graph")
    if any(c != 0 for c in g.edges.values()):
        raise UnsupportedGraphError("complement of an edge-colored graph is ambiguous")
    edges = [
        (u, v) for u in range(g.n) for v in range(u + 1, g.n) if (u, v) not in g.edges
    ]
    return ColoredGraph(g.n, edges, False, g.vertex_colors)


def disjoint_union(g: ColoredGraph, h: ColoredGraph) -> ColoredGraph:
    """Disjoint union; h's vertices are shifted by g.n."""
    if g.directed != h.directed:
        raise UnsupportedGraphError("cannot union directed with undirected")
    edges = g.edge_list() + [(u + g.n, v + g.n, c) for u, v, c in h.edge_list()]
    colors = list(g.vertex_colors) + list(h.vertex_colors)
    return ColoredGraph(g.n + h.n, edges, g.directed, colors)


def join(g: ColoredGraph, h: ColoredGraph) -> ColoredGraph:
    """Disjoint union plus all cross edges, colored with a fresh edge color."""
    if g.directed or h.directed:
        raise UnsupportedGraphError("join requires undirected graphs")
    u = disjoint_union(g, h)
    cross_color = max(u.max_edge_color() + 1, 1) if u.edges else 1
    edges = u.edge_list()
    for a in range(g.n):
        for b in range(h.n):
            edges.append((a, g.n + b, cross_color))
    return ColoredGraph(u.n, edges, False, u.vertex_colors)


def _components(g: ColoredGraph, seen: set[int]):
    """Each component (orientation-insensitive) of the vertices not in
    `seen`, in order of its least vertex, as the list of vertices a DFS from
    there visits; adds them to `seen`."""
    for s in range(g.n):
        if s in seen:
            continue
        stack, comp = [s], []
        seen.add(s)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in g.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        yield comp


def connected_components(g: ColoredGraph) -> list[list[int]]:
    """Components (orientation-insensitive), each sorted, ordered by minimum."""
    return [sorted(comp) for comp in _components(g, set())]


def is_connected(g: ColoredGraph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


def distance(g: ColoredGraph, u: int, v: int) -> int | None:
    """BFS distance from u to v (orientation-insensitive), None if unreachable."""
    if u == v:
        return 0
    dist = {u: 0}
    frontier = [u]
    while frontier:
        nxt = []
        for x in frontier:
            for y in g.neighbors(x):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    if y == v:
                        return dist[y]
                    nxt.append(y)
        frontier = nxt
    return None


def min_separator_size(
    g: ColoredGraph, bound: int | None = None, limits: Limits = DEFAULT_LIMITS
) -> int | None:
    """Smallest |S| such that G minus S has no component of size >= |V|/2.

    Exhaustive over subsets in size order; returns None when every subset up
    to ``bound`` fails.  ``bound`` defaults to n.
    """
    if g.directed:
        raise UnsupportedGraphError("separator search requires an undirected graph")
    if not is_connected(g):
        raise UnsupportedGraphError("separator search requires a connected graph")
    n = g.n
    half = n / 2
    if bound is None:
        bound = n
    examined = 0
    verts = list(range(n))
    for size in range(0, bound + 1):
        for subset in combinations(verts, size):
            examined += 1
            limits.check("separator_subsets", examined, "separator search")
            if all(len(comp) < half for comp in _components(g, set(subset))):
                return size
    return None


def random_relabel(g: ColoredGraph, seed: int) -> tuple[ColoredGraph, list[int]]:
    """Seed-deterministic relabeling; returns (H, perm) with old i -> perm[i]."""
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm), perm
