"""Shared fixtures, partition helpers, a small-graph strategy and a traced
memory peak.

Color ids produced by dense ranking are arbitrary; two equal partitions of
the same index set can carry different ids.  Tests therefore compare
partitions through a first-occurrence renumbering instead of raw ids.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from wlkit.families import complete
from wlkit.cfi import cfi_build
from wlkit.graph import ColoredGraph


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


def crown_graph() -> ColoredGraph:
    """Two color classes {0,1,2} and {3,4,5}, edges i-(3+j) for i != j."""
    edges = [(i, 3 + j, 0) for i in range(3) for j in range(3) if i != j]
    return ColoredGraph(6, edges, vertex_colors=[1, 1, 1, 2, 2, 2])


@st.composite
def colored_graphs(draw, max_n: int = 8, max_code: int = 2, min_n: int = 0):
    """Small graphs of min_n..max_n vertices, either orientation, with pair
    codes 0..max_code (edge colors below max_code) and an arbitrary (not
    necessarily stable) vertex coloring of up to three classes."""
    n = draw(st.integers(min_n, max_n))
    directed = draw(st.booleans())
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    codes = draw(st.lists(st.integers(0, max_code), min_size=len(pairs), max_size=len(pairs)))
    edges = [(u, v, c - 1) for (u, v), c in zip(pairs, codes) if c]
    cols = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return ColoredGraph(n, edges, directed=directed), np.asarray(cols, dtype=np.int64)


@pytest.fixture(scope="session")
def cfi_k4():
    graph, m = cfi_build(complete(4))
    return graph, m


@pytest.fixture(scope="session")
def cfi_k4_twisted():
    graph, m = cfi_build(complete(4), twisted=((0, 1),))
    return graph, m
