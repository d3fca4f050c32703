"""Gadget replacement that separates refinement dimensions.

Every vertex v of the base graph becomes a gadget: one pair of end vertices
(a, b) per incident edge and one middle vertex per even-size subset of the
incident edges.  A middle vertex for subset S is joined to the a-end of the
edges in S and the b-end of the rest.  For every base edge {u, v} the two
gadgets are joined end-to-end: a-a and b-b normally, a-b and b-a when the
edge is in the twist set.  End vertices keep color 2*c(v), middle vertices
get 2*c(v)+1, and cross edges inherit the base edge color, so base colorings
carry over.  Twisting an even number of edges yields an isomorphic graph;
odd twists do not.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, UnsupportedGraphError
from .graph import ColoredGraph, is_connected


def gadget_size(degree: int) -> int:
    """Vertices a degree-d gadget contributes: 2d ends plus 2^(d-1) middles."""
    return 2 ** (degree - 1) + 2 * degree


@dataclass
class CFIMap:
    """Bookkeeping for one gadget replacement."""

    base: ColoredGraph
    origin: list[int]
    role: list[tuple]
    twisted: frozenset[tuple[int, int]]
    a_index: dict[tuple[int, int], int]
    b_index: dict[tuple[int, int], int]
    m_index: dict[tuple[int, frozenset[int]], int]

    def fibres(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {v: [] for v in range(self.base.n)}
        for x, v in enumerate(self.origin):
            out[v].append(x)
        return out


def lambda_inverse(m: CFIMap, vertex: int) -> tuple[int, tuple]:
    """Base vertex and role behind a gadget vertex."""
    if not 0 <= vertex < len(m.origin):
        raise ValueError("vertex out of range")
    return m.origin[vertex], m.role[vertex]


def _check_base(g: ColoredGraph) -> None:
    if g.directed:
        raise UnsupportedGraphError("gadget replacement needs an undirected base")
    if g.n == 0:
        raise UnsupportedGraphError("gadget replacement needs a non-empty base")
    if not is_connected(g):
        raise UnsupportedGraphError("gadget replacement needs a connected base")
    degs = [g.degree(v) for v in range(g.n)]
    if min(degs) < 2:
        raise UnsupportedGraphError("gadget replacement needs minimum degree 2")
    if max(degs) < 3:
        raise UnsupportedGraphError(
            "a base that is a single cycle has no twist-sensitive structure"
        )


def cfi_build(
    g: ColoredGraph,
    twisted=(),
) -> tuple[ColoredGraph, CFIMap]:
    """Gadget graph and its map; `twisted` lists the base edges to cross over."""
    _check_base(g)
    tw = set()
    for e in twisted:
        u, v = int(e[0]), int(e[1])
        if u > v:
            u, v = v, u
        if not g.has_edge(u, v):
            raise UnsupportedGraphError(f"twist edge ({u}, {v}) is not a base edge")
        if (u, v) in tw:
            raise UnsupportedGraphError(f"twist edge ({u}, {v}) listed twice")
        tw.add((u, v))

    origin: list[int] = []
    role: list[tuple] = []
    colors: list[int] = []
    a_index: dict[tuple[int, int], int] = {}
    b_index: dict[tuple[int, int], int] = {}
    m_index: dict[tuple[int, frozenset[int]], int] = {}
    edges: list[tuple[int, int, int]] = []

    for v in range(g.n):
        ns = g.neighbors(v)
        for u in ns:
            a_index[(v, u)] = len(origin)
            origin.append(v)
            role.append(("a", u))
            colors.append(2 * g.vertex_colors[v])
        for u in ns:
            b_index[(v, u)] = len(origin)
            origin.append(v)
            role.append(("b", u))
            colors.append(2 * g.vertex_colors[v])
        d = len(ns)
        # even subsets in ascending bitmask order over the sorted neighbor list
        for mask in range(2**d):
            if bin(mask).count("1") % 2 != 0:
                continue
            subset = frozenset(ns[i] for i in range(d) if mask >> i & 1)
            mid = m_index[(v, subset)] = len(origin)
            origin.append(v)
            role.append(("m", subset))
            colors.append(2 * g.vertex_colors[v] + 1)
            for u in ns:
                end = a_index[(v, u)] if u in subset else b_index[(v, u)]
                edges.append((mid, end, 0))

    for u, v, c in g.edge_list():
        if (u, v) in tw:
            edges.append((a_index[(u, v)], b_index[(v, u)], c))
            edges.append((b_index[(u, v)], a_index[(v, u)], c))
        else:
            edges.append((a_index[(u, v)], a_index[(v, u)], c))
            edges.append((b_index[(u, v)], b_index[(v, u)], c))

    h = ColoredGraph(len(origin), edges, directed=False, vertex_colors=colors)
    return h, CFIMap(
        base=g, origin=origin, role=role, twisted=frozenset(tw),
        a_index=a_index, b_index=b_index, m_index=m_index,
    )


def iterate_lambda(g: ColoredGraph, depth: int) -> tuple[ColoredGraph, list[CFIMap]]:
    """Apply the untwisted gadget replacement `depth` times."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    maps: list[CFIMap] = []
    cur = g
    for _ in range(depth):
        cur, m = cfi_build(cur)
        maps.append(m)
    return cur, maps


def serialize_cfi_map(m: CFIMap) -> str:
    """One line per gadget vertex: `m <vertex> <base-vertex> <role>` where the
    role is a:<u>, b:<u>, or m:<u1,u2,...> (m:- for the empty subset)."""
    lines = []
    for x in range(len(m.origin)):
        kind = m.role[x][0]
        if kind == "m":
            subset = sorted(m.role[x][1])
            tail = "m:" + (",".join(str(u) for u in subset) if subset else "-")
        else:
            tail = f"{kind}:{m.role[x][1]}"
        lines.append(f"m {x} {m.origin[x]} {tail}")
    return "\n".join(lines) + "\n"


def parse_cfi_map_roles(text: str) -> list[tuple[int, int, tuple]]:
    """Parse the sidecar format back into (vertex, base vertex, role) rows."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4 or parts[0] != "m":
            raise ParseError("expected `m <vertex> <base-vertex> <role>`", lineno)
        try:
            x, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError("vertex fields must be integers", lineno)
        rolestr = parts[3]
        if rolestr.startswith(("a:", "b:")):
            try:
                role: tuple = (rolestr[0], int(rolestr[2:]))
            except ValueError:
                raise ParseError("end role needs an integer neighbor", lineno)
        elif rolestr.startswith("m:"):
            body = rolestr[2:]
            if body == "-":
                role = ("m", frozenset())
            else:
                try:
                    role = ("m", frozenset(int(t) for t in body.split(",")))
                except ValueError:
                    raise ParseError("middle role needs a comma list of integers", lineno)
        else:
            raise ParseError(f"unknown role {rolestr!r}", lineno)
        rows.append((x, v, role))
    return rows
