"""Standard graph families used by tests and benchmarks."""
from __future__ import annotations

import random
from itertools import combinations

from .graph import ColoredGraph


def complete(n: int) -> ColoredGraph:
    return ColoredGraph(n, list(combinations(range(n), 2)))


def cycle(n: int) -> ColoredGraph:
    return ColoredGraph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> ColoredGraph:
    return ColoredGraph(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(a: int, b: int) -> ColoredGraph:
    return ColoredGraph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def hypercube(d: int) -> ColoredGraph:
    n = 1 << d
    edges = [(x, x ^ (1 << i)) for x in range(n) for i in range(d) if x < x ^ (1 << i)]
    return ColoredGraph(n, edges)


def petersen() -> ColoredGraph:
    edges = [(i, (i + 1) % 5) for i in range(5)]            # outer C5
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]   # inner pentagram
    edges += [(i, 5 + i) for i in range(5)]                 # spokes
    return ColoredGraph(10, edges)


def generalized_petersen(n: int, j: int) -> ColoredGraph:
    """GP(n, j): outer cycle 0..n-1, spokes i-(n+i), inner edges
    (n+i)-(n+(i+j) mod n); cubic for n >= 3 and 1 <= j < n/2."""
    if n < 3 or not 1 <= j < n / 2:
        raise ValueError("generalized_petersen needs n >= 3 and 1 <= j < n/2")
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    edges += [(n + i, n + (i + j) % n) for i in range(n)]
    return ColoredGraph(2 * n, edges)


def shrikhande() -> ColoredGraph:
    """Shrikhande graph on Z4 x Z4: differences (±1,0),(0,±1),(1,1),(-1,-1)."""
    diffs = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    edges = []
    for x in range(16):
        for y in range(x + 1, 16):
            d = ((y // 4 - x // 4) % 4, (y % 4 - x % 4) % 4)
            if d in diffs:
                edges.append((x, y))
    return ColoredGraph(16, edges)


def rook_4x4() -> ColoredGraph:
    """4x4 rook's graph: cells adjacent when sharing a row or column."""
    edges = []
    for x in range(16):
        for y in range(x + 1, 16):
            if x // 4 == y // 4 or x % 4 == y % 4:
                edges.append((x, y))
    return ColoredGraph(16, edges)


def bowtie() -> ColoredGraph:
    """Two triangles sharing one vertex (smallest non-cycle with min degree 2)."""
    return ColoredGraph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])


def random_graph(n: int, p: float, seed: int) -> ColoredGraph:
    """Seed-deterministic Erdos-Renyi graph."""
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return ColoredGraph(n, edges)
