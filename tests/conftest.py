"""Shared fixtures, partition helpers, a small-graph strategy, a traced
memory peak, degenerate hash salts, the full-round and hashed-round
references, a graph with one twin pair and a doubled graph.

Color ids produced by dense ranking are arbitrary; two equal partitions of
the same index set can carry different ids.  Tests therefore compare
partitions through a first-occurrence renumbering instead of raw ids.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from wlkit import refine
from wlkit.families import complete, random_graph
from wlkit.cfi import cfi_build
from wlkit.graph import ColoredGraph, disjoint_union, random_relabel


def canon_partition(colors) -> np.ndarray:
    """Renumber ids by first occurrence so equal partitions compare equal."""
    arr = np.asarray(colors).ravel()
    out = np.empty(arr.shape[0], dtype=np.int64)
    seen: dict[int, int] = {}
    for i, c in enumerate(arr.tolist()):
        out[i] = seen.setdefault(int(c), len(seen))
    return out


def same_partition(a, b) -> bool:
    """True when a and b cut the same index set into the same classes."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape != b.shape:
        return False
    return bool(np.array_equal(canon_partition(a), canon_partition(b)))


def traced_peak(fn):
    """`fn()` and the peak bytes tracemalloc sees allocated while it runs,
    above what was allocated when it started."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base, _ = tracemalloc.get_traced_memory()
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return out, peak - base


def two_valued_salts(m):
    """Hash salts that collide almost everywhere, to patch over
    `refine._salts`: every even id gets 1, every odd id 2."""
    return np.ones((4, 1)) + np.arange(m) % 2


def constant_salts(m):
    """Hash salts under which no hashed round splits, to patch over
    `refine._salts`: every split is left to the exact rounds."""
    return np.ones((4, m))


def full_rounds(colors, n: int, k: int):
    """The k >= 2 full-round loop (`refine._full_round`: round rows, the
    check against each class's first row, a rank) until a round splits
    nothing; returns the stable colors and the class count before the
    first round and after each splitting round.  A coloring with n^k
    classes is stable without a round."""
    counts = [int(colors.max()) + 1]
    while counts[-1] < colors.shape[0]:
        ids = refine._full_round(colors, n, k, counts[-1])
        if ids is None:
            break
        colors = ids
        counts.append(int(ids.max()) + 1)
    return colors, counts


def hashed_rounds(colors, n: int):
    """Hashed k = 2 rounds (`refine._hashed_rows`) of `colors`, dense ids
    of all n^2 pairs, until the class count stops growing (`refine._grow`);
    returns what `full_rounds` does."""
    counts = [int(colors.max()) + 1]
    step = lambda c, m: refine.dense_rank_rows(refine._hashed_rows(c, n))
    colors = refine._grow(colors, step, counts)
    return colors, counts


def twin_pair_graph(n: int) -> ColoredGraph:
    """A random graph on n - 1 vertices with a twin of vertex 0 added: its
    stable pair coloring is one swap short of discrete, so the k = 2 hashed
    rounds run one round past a discrete graph's, at nearly n^2 classes,
    where their arrays peak."""
    g = random_graph(n - 1, 0.5, seed=3)
    return ColoredGraph(n, list(g.edges) + [(v, n - 1) for v in g.neighbors(0)])


def doubled_graph(n: int) -> ColoredGraph:
    """A random graph on n / 2 vertices beside a relabeled copy: every class
    of its stable pair coloring holds two or more pairs, so the exact k = 2
    stop check builds the row of every pair, n^3 codes."""
    half = random_graph(n // 2, 0.5, seed=3)
    return disjoint_union(half, random_relabel(half, 2)[0])


def crown_graph() -> ColoredGraph:
    """Two color classes {0,1,2} and {3,4,5}, edges i-(3+j) for i != j."""
    edges = [(i, 3 + j, 0) for i in range(3) for j in range(3) if i != j]
    return ColoredGraph(6, edges, vertex_colors=[1, 1, 1, 2, 2, 2])


@st.composite
def colored_graphs(
    draw, max_n: int = 8, max_code: int = 2, min_n: int = 0, directed: bool | None = None
):
    """Small graphs of min_n..max_n vertices, of the given orientation or
    either, with pair codes 0..max_code (edge colors below max_code) and an
    arbitrary (not necessarily stable) vertex coloring of up to three
    classes."""
    n = draw(st.integers(min_n, max_n))
    if directed is None:
        directed = draw(st.booleans())
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    codes = draw(st.lists(st.integers(0, max_code), min_size=len(pairs), max_size=len(pairs)))
    edges = [(u, v, c - 1) for (u, v), c in zip(pairs, codes) if c]
    cols = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return ColoredGraph(n, edges, directed=directed), np.asarray(cols, dtype=np.int64)


@st.composite
def graph_pairs(draw, max_n: int = 7, directed: bool | None = None):
    """(g, h), vertex-colored graphs of at most max_n vertices: h is a
    relabeled copy of g, an independent draw of the same size, or, for
    g = A + B where B is A with every vertex color raised by one, a relabeled
    B + B.  The last pair is never isomorphic, and its pieces match up to a
    shift of their colors."""
    kind = draw(st.sampled_from(("relabeled", "independent", "union")), label="pair kind")
    if kind == "union":
        a, cols = draw(colored_graphs(max_n=max_n // 2, min_n=1, directed=directed))
        a = a.with_vertex_colors(cols.tolist())
        b = a.with_vertex_colors((cols + 1).tolist())
        g, h = disjoint_union(a, b), disjoint_union(b, b)
    else:
        g, cols = draw(colored_graphs(max_n=max_n, directed=directed))
        g = h = g.with_vertex_colors(cols.tolist())
        if kind == "independent":
            h, hcols = draw(colored_graphs(max_n=g.n, min_n=g.n, directed=g.directed))
            h = h.with_vertex_colors(hcols.tolist())
    if kind != "independent":
        h, _ = random_relabel(h, seed=draw(st.integers(0, 2**16)))
    return g, h


@pytest.fixture(scope="session")
def cfi_k4():
    graph, m = cfi_build(complete(4))
    return graph, m


@pytest.fixture(scope="session")
def cfi_k4_twisted():
    graph, m = cfi_build(complete(4), twisted=((0, 1),))
    return graph, m
