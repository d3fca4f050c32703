"""Brute-force reference algorithms for small graphs, and the order of a
generated permutation group.

The automorphism search is plain color- and adjacency-pruned backtracking
over vertex images — no refinement of any kind — so it can serve as an
independent check of everything the refinement machinery reports.  The
isomorphism search uses the classical 1-dim partition to prune (sound: class
sizes are isomorphism invariants) but returns only explicitly verified
mappings, and exhausts the branch space before reporting non-isomorphism.
`aut_group_order` is not brute force: it builds a Schreier–Sims stabilizer
chain in polynomial time, so it needs no budget.
"""
from __future__ import annotations

import numpy as np

from .graph import ColoredGraph, disjoint_union, is_permutation
from .limits import DEFAULT_LIMITS, Limits
from .refine import refine_k


def is_automorphism(g: ColoredGraph, sigma) -> bool:
    return is_isomorphism(g, g, sigma)


def is_isomorphism(g: ColoredGraph, h: ColoredGraph, mapping) -> bool:
    """Whether renaming each vertex v of g to mapping[v] gives h, vertex
    colors, edges and edge colors alike: O(n + m), by `ColoredGraph.relabel`."""
    if g.n != h.n or g.directed != h.directed or not is_permutation(mapping, g.n):
        return False
    return g.relabel(mapping) == h


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def groups(self) -> list[list[int]]:
        """Every group, members ascending, ordered by smallest member."""
        out: dict[int, list[int]] = {}
        for v in range(len(self.parent)):
            out.setdefault(self.find(v), []).append(v)
        return list(out.values())


def _aut_backtrack(g: ColoredGraph, limits: Limits):
    """Enumerate all automorphisms; returns (count, union-find of orbits)."""
    n = g.n
    limits.check("oracle_vertices", n, "automorphism oracle's vertex count")
    p = g.pair_codes()
    vc = g.vertex_colors
    uf = _UnionFind(n)
    f = [-1] * n
    used = [False] * n
    state = {"count": 0, "nodes": 0}

    def rec(v: int) -> None:
        state["nodes"] += 1
        limits.check("oracle_nodes", state["nodes"], "automorphism oracle search")
        if v == n:
            state["count"] += 1
            for u in range(n):
                uf.union(u, f[u])
            return
        for w in range(n):
            if used[w] or vc[w] != vc[v]:
                continue
            ok = True
            for u in range(v):
                fu = f[u]
                if p[v, u] != p[w, fu] or p[u, v] != p[fu, w]:
                    ok = False
                    break
            if not ok:
                continue
            f[v] = w
            used[w] = True
            rec(v + 1)
            used[w] = False
            f[v] = -1

    if n:
        rec(0)
    return state["count"], uf


def aut_order_oracle(g: ColoredGraph, *, limits: Limits = DEFAULT_LIMITS) -> int:
    """|Aut(g)| by exhaustive backtracking."""
    if g.n == 0:
        return 1
    count, _ = _aut_backtrack(g, limits)
    return count


def orbits_oracle(g: ColoredGraph, *, limits: Limits = DEFAULT_LIMITS) -> list[list[int]]:
    """Vertex orbits of Aut(g), sorted by smallest member."""
    if g.n == 0:
        return []
    _, uf = _aut_backtrack(g, limits)
    return uf.groups()


def iso_oracle(
    g: ColoredGraph,
    h: ColoredGraph,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> list[int] | None:
    """An explicit isomorphism g -> h, or None after exhausting the search.

    Branches individualize a vertex pair (one per side) and re-run the 1-dim
    partition on the disjoint union; classes with unequal side counts prune
    the branch.  Any returned mapping is re-verified edge by edge.
    """
    if g.n != h.n or g.directed != h.directed:
        return None
    n = g.n
    if n == 0:
        return []
    limits.check("iso_vertices", n, "isomorphism oracle's vertex count")
    if g.num_edges != h.num_edges:
        return None
    if sorted(g.vertex_colors) != sorted(h.vertex_colors):
        return None
    if sorted(c for _, _, c in g.edge_list()) != sorted(c for _, _, c in h.edge_list()):
        return None
    u = disjoint_union(g, h)
    base = np.asarray(u.vertex_colors, dtype=np.int64)
    state = {"nodes": 0}

    def rec(colors: np.ndarray) -> list[int] | None:
        state["nodes"] += 1
        limits.check("iso_nodes", state["nodes"], "isomorphism oracle search")
        tc = refine_k(u, 1, vertex_colors=colors, limits=limits)
        cc = tc.colors
        split_class = None
        for cid in range(tc.num_colors):
            members = np.flatnonzero(cc == cid)
            left = [int(x) for x in members if x < n]
            right = [int(x) - n for x in members if x >= n]
            if len(left) != len(right):
                return None
            if len(left) >= 2 and split_class is None:
                split_class = (left, right)
        if split_class is None:
            mapping = [-1] * n
            for cid in range(tc.num_colors):
                members = np.flatnonzero(cc == cid)
                mapping[int(members[0])] = int(members[1]) - n
            if is_isomorphism(g, h, mapping):
                return mapping
            return None
        left, right = split_class
        x = left[0]
        fresh = int(colors.max()) + 1
        for y in right:
            c2 = colors.copy()
            c2[x] = fresh
            c2[n + y] = fresh
            got = rec(c2)
            if got is not None:
                return got
        return None

    return rec(base)


def aut_group_order(generators, n: int) -> int:
    """Order of the permutation group generated by `generators`: a
    deterministic Schreier–Sims (Sims 1970; Seress 2003) over the base
    0..n-1, in polynomial time.  Level j keeps the strong generators that
    fix 0..j-1, the orbit of j under them and, per orbit point, a coset
    representative with its inverse; the order is the product of the orbit
    lengths.  Each Schreier generator is sifted once.  A residue that is
    not the identity joins every level from the one tested down to the one
    where it stopped, and testing resumes there."""
    ident = np.arange(n, dtype=np.int64)
    gens: list[list[np.ndarray]] = [[] for _ in range(n)]
    done: list[list[int]] = [[] for _ in range(n)]  # orbit points sifted per generator
    orbits = [[j] for j in range(n)]
    reps = [{j: (ident, ident)} for j in range(n)]

    def grow(j: int, s: np.ndarray) -> None:
        gens[j].append(s)
        done[j].append(0)
        orb, rep = orbits[j], reps[j]
        old, pos = len(orb), 0
        while pos < len(orb):  # old points meet only s, new points every generator
            x = orb[pos]
            for t in gens[j] if pos >= old else (s,):
                y = int(t[x])
                if y not in rep:
                    u = t[rep[x][0]]
                    rep[y] = (u, np.argsort(u))
                    orb.append(y)
            pos += 1

    def residue(i: int) -> tuple[int, np.ndarray] | None:
        orb, rep = orbits[i], reps[i]
        for t, s in enumerate(gens[i]):
            while done[i][t] < len(orb):
                x = orb[done[i][t]]
                done[i][t] += 1
                h = rep[int(s[x])][1][s[rep[x][0]]]  # fixes 0..i
                while h[j := int((h != ident).argmax())] != j:  # first moved point
                    r = reps[j].get(int(h[j]))
                    if r is None:
                        return j, h
                    h = r[1][h]
        return None

    for s in generators:
        s = np.asarray([int(x) for x in s], dtype=np.int64)
        if not is_permutation(s, n):
            raise ValueError("generator is not a permutation of range(n)")
        moved = np.flatnonzero(s != ident)  # s joins the levels up to its first moved point
        for j in range(int(moved[0]) + 1 if moved.size else 0):
            grow(j, s)
    i = n - 1
    while i >= 0:
        found = residue(i)
        if found is None:
            i -= 1
            continue
        j, h = found
        for level in range(i + 1, j + 1):
            grow(level, h)
        i = j
    order = 1
    for orb in orbits:
        order *= len(orb)
    return order
