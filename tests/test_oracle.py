from __future__ import annotations

import dataclasses
import inspect
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import colored_graphs
from wlkit.canon import aut_generators_via_recursion, certify
from wlkit.cfi import cfi_build
from wlkit.coherent import klein_scheme, psi_twist, scheme_graph
from wlkit.errors import ResourceLimitError
from wlkit.families import (
    bowtie,
    complete,
    complete_bipartite,
    cycle,
    generalized_petersen,
    hypercube,
    path,
    petersen,
    random_graph,
)
from wlkit.graph import ColoredGraph, disjoint_union, random_relabel
from wlkit.limits import DEFAULT_LIMITS
from wlkit.oracle import (
    aut_group_order,
    aut_order_oracle,
    is_automorphism,
    is_isomorphism,
    iso_oracle,
    orbits_oracle,
)


# -- permutation checks ---------------------------------------------------------


def test_is_automorphism():
    g = cycle(4)
    assert is_automorphism(g, [1, 2, 3, 0])
    assert is_automorphism(g, [0, 3, 2, 1])
    assert not is_automorphism(path(3), [1, 0, 2])
    colored = g.with_vertex_colors([1, 0, 0, 0])
    assert not is_automorphism(colored, [1, 2, 3, 0])
    assert is_automorphism(colored, [0, 3, 2, 1])


def test_is_isomorphism():
    g = path(3)
    h = g.relabel([2, 0, 1])
    assert is_isomorphism(g, h, [2, 0, 1])
    assert not is_isomorphism(g, h, [0, 1, 2])
    assert not is_isomorphism(g, cycle(3), [0, 1, 2])
    # an empty mapping: the dense compare once indexed with a float array
    assert is_isomorphism(ColoredGraph(0), ColoredGraph(0), [])


def reference_is_isomorphism(g, h, mapping) -> bool:
    """The mapping's permutation check, then the vertex colors and the n x n
    pair codes of h, permuted by the mapping, against g's."""
    if g.n != h.n or g.directed != h.directed:
        return False
    if sorted(mapping) != list(range(g.n)):
        return False
    if any(h.vertex_colors[mapping[v]] != g.vertex_colors[v] for v in range(g.n)):
        return False
    m = np.asarray(mapping, dtype=np.int64)
    return bool(np.array_equal(h.pair_codes()[np.ix_(m, m)], g.pair_codes()))


def _edited(g: ColoredGraph, edit: str, at: int) -> ColoredGraph | None:
    """g with one vertex recolored, one edge recolored or one arc reversed,
    or None when g has no such vertex, edge or free reverse slot."""
    edges = g.edge_list()
    if edit == "vertex color":
        if not g.n:
            return None
        colors = list(g.vertex_colors)
        colors[at % g.n] += 1
        return g.with_vertex_colors(colors)
    if not edges:
        return None
    u, v, c = edges[at % len(edges)]
    rest = [e for e in edges if e[:2] != (u, v)]
    if edit == "edge color":
        return ColoredGraph(g.n, rest + [(u, v, c + 1)], g.directed, g.vertex_colors)
    if not g.directed or g.has_edge(v, u):
        return None
    return ColoredGraph(g.n, rest + [(v, u, c)], True, g.vertex_colors)


@settings(max_examples=200, deadline=None)
@given(colored_graphs(max_n=7), st.data())
def test_is_isomorphism_matches_the_dense_reference(case, data):
    g, cols = case
    g = g.with_vertex_colors(cols.tolist())
    perm = data.draw(st.permutations(range(g.n)), label="perm")
    h = g.relabel(perm)
    assert is_isomorphism(g, h, perm) and reference_is_isomorphism(g, h, perm)
    assert is_isomorphism(h, g, np.argsort(perm))
    at = data.draw(st.integers(0, 50), label="at")
    for edit in ("vertex color", "edge color", "reversed arc"):
        edited = _edited(h, edit, at)
        if edited is not None:
            assert not is_isomorphism(g, edited, perm)
            assert not reference_is_isomorphism(g, edited, perm)
    if g.n >= 2:
        # one image twice and one vertex of h left out
        bad = list(perm)
        bad[at % g.n] = perm[(at + 1) % g.n]
        assert not is_isomorphism(g, h, bad)
        assert not is_isomorphism(g, h, perm[:-1])
        assert not is_isomorphism(g, h, list(perm) + [g.n])
    other = data.draw(st.permutations(range(g.n)), label="other")
    assert is_isomorphism(g, h, other) == reference_is_isomorphism(g, h, other)


# -- automorphism group sizes ----------------------------------------------------


@pytest.mark.parametrize(
    "g,order",
    [
        (complete(4), 24),
        (cycle(4), 8),
        (cycle(6), 12),
        (petersen(), 120),
        (bowtie(), 8),
        (path(3), 2),
        (ColoredGraph(1), 1),
        (ColoredGraph(3), 6),
    ],
)
def test_group_orders(g, order):
    assert aut_order_oracle(g) == order


def test_colors_cut_the_group_down():
    g = cycle(4).with_vertex_colors([1, 0, 0, 0])
    assert aut_order_oracle(g) == 2
    h = ColoredGraph(2, [(0, 1, 3)], vertex_colors=[0, 1])
    assert aut_order_oracle(h) == 1


def test_orbits():
    assert orbits_oracle(cycle(4)) == [[0, 1, 2, 3]]
    assert orbits_oracle(path(4)) == [[0, 3], [1, 2]]
    assert orbits_oracle(bowtie()) == [[0, 1, 3, 4], [2]]
    assert orbits_oracle(complete(4)) == [[0, 1, 2, 3]]


def test_oracle_vertex_cap():
    with pytest.raises(ResourceLimitError):
        aut_order_oracle(random_graph(13, 0.5, seed=0))
    wider = dataclasses.replace(DEFAULT_LIMITS, oracle_vertices=13)
    assert aut_order_oracle(random_graph(13, 0.5, seed=0), limits=wider) >= 1


# -- isomorphism oracle ------------------------------------------------------------


def test_iso_oracle_finds_and_verifies_a_mapping():
    for seed in range(5):
        g = random_graph(10, 0.5, seed=seed)
        h, _ = random_relabel(g, seed=seed + 77)
        mapping = iso_oracle(g, h)
        assert mapping is not None
        assert is_isomorphism(g, h, mapping)


def test_iso_oracle_rejects_non_isomorphic_pairs():
    assert iso_oracle(cycle(6), disjoint_union(cycle(3), cycle(3))) is None
    assert iso_oracle(path(4), cycle(4)) is None
    # same degree sequence, different structure
    a = ColoredGraph(6, [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0), (4, 5, 0)])
    b = ColoredGraph(6, [(0, 1, 0), (1, 2, 0), (2, 0, 0), (3, 4, 0), (4, 5, 0)])
    assert iso_oracle(a, b) is None


def test_iso_oracle_respects_colors():
    g = cycle(4).with_vertex_colors([1, 0, 0, 0])
    h = cycle(4).with_vertex_colors([0, 1, 0, 0])
    assert iso_oracle(g, h) is not None
    odd = cycle(4).with_vertex_colors([2, 0, 0, 0])
    assert iso_oracle(g, odd) is None


def test_iso_oracle_size_guards():
    assert iso_oracle(cycle(4), cycle(5)) is None
    with pytest.raises(ResourceLimitError):
        iso_oracle(random_graph(41, 0.2, seed=0), random_graph(41, 0.2, seed=1))


# -- a second isomorphism oracle: networkx's VF2 -------------------------------------


def to_nx(a: ColoredGraph):
    """a as a networkx graph with vertex and edge colors under the key "c"."""
    nx = pytest.importorskip("networkx")
    out = nx.DiGraph() if a.directed else nx.Graph()
    out.add_nodes_from((v, {"c": int(c)}) for v, c in enumerate(a.vertex_colors))
    out.add_edges_from((u, v, {"c": c}) for u, v, c in a.edge_list())
    return out


def _color_matches():
    iso = pytest.importorskip("networkx").algorithms.isomorphism
    return {
        "node_match": iso.categorical_node_match("c", None),
        "edge_match": iso.categorical_edge_match("c", None),
    }


def _vf2_automorphisms(g: ColoredGraph) -> int:
    """|Aut(g)| with vertex and edge colors kept, counted by VF2."""
    nx = pytest.importorskip("networkx")
    a = to_nx(g)
    matcher = nx.algorithms.isomorphism.GraphMatcher(a, a, **_color_matches())
    return sum(1 for _ in matcher.isomorphisms_iter())


def _nx_isomorphic(g: ColoredGraph, h: ColoredGraph) -> bool:
    """VF2 with vertex colors and edge colors matched."""
    nx = pytest.importorskip("networkx")
    return nx.is_isomorphic(to_nx(g), to_nx(h), **_color_matches())


def _same_certificate(g: ColoredGraph, h: ColoredGraph, k: int = 2) -> bool:
    return certify(g, k, "canonical").digest == certify(h, k, "canonical").digest


@pytest.mark.parametrize(
    "base,seed",
    # VF2's time on the 120-vertex CFI(GP(6, 1)) swings with the labeling:
    # 0.2-0.3 s at seeds 3 and 7, 9 s at seed 120
    [(complete_bipartite(3, 3), 60), (hypercube(3), 80), (petersen(), 100),
     (generalized_petersen(6, 1), 3)],
    ids=["K33", "Q3", "Petersen", "GP(6,1)"],
)
def test_vf2_agrees_with_canonical_certificates_on_relabeled_cfi_gadgets(base, seed):
    g, _ = cfi_build(base)
    h, _ = random_relabel(g, seed=seed)
    assert (_nx_isomorphic(g, h), _same_certificate(g, h)) == (True, True)


def test_vf2_agrees_with_canonical_certificates_on_the_cfi_k4_twist_pair():
    # the larger twist pairs are left out: VF2 takes tens of seconds on
    # them, and over three minutes on the 120-vertex CFI(GP(6, 1)) pair
    plain, _ = cfi_build(complete(4))
    twisted, _ = cfi_build(complete(4), twisted=((0, 1),))
    twisted, _ = random_relabel(twisted, seed=5)
    assert (_nx_isomorphic(plain, twisted), _same_certificate(plain, twisted)) == (False, False)


@pytest.mark.parametrize(
    "base",
    [complete(4), complete_bipartite(3, 3), hypercube(3), petersen()],
    ids=["K4", "K33", "Q3", "Petersen"],
)
def test_vf2_agrees_with_canonical_certificates_on_klein_pairs(base):
    # the directed scheme graph of a Klein scheme (16-40 points) against its
    # psi-twisted form and against a copy of itself, both relabeled
    c = klein_scheme(base)
    g = scheme_graph(c)
    twisted, _ = random_relabel(scheme_graph(psi_twist(c, 0)), seed=g.n)
    copy, _ = random_relabel(g, seed=g.n + 1)
    for h, iso in ((twisted, False), (copy, True)):
        assert _nx_isomorphic(g, h) == iso
        assert [_same_certificate(g, h, k) for k in (1, 2)] == [iso, iso]


@pytest.mark.parametrize("twisted", [(), ((0, 1),)], ids=["plain", "twisted"])
def test_search_generators_span_the_vf2_group_of_a_relabeled_cfi_k4(twisted):
    # a search that jumps on every equal leaf keeps few generators; they must
    # still generate every color-preserving automorphism
    g, _ = random_relabel(cfi_build(complete(4), twisted=twisted)[0], seed=3)
    vf2 = _vf2_automorphisms(g)
    assert vf2 == 192
    assert aut_group_order(aut_generators_via_recursion(g, 2), g.n) == vf2


# -- group order from generators ------------------------------------------------------


def reference_group_order(generators, n: int) -> int:
    """Order of the generated group by closure under composition, breadth
    first: every element is listed, so only small groups fit."""
    gens = [tuple(int(x) for x in s) for s in generators]
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for s in gens:
                comp = tuple(s[e[i]] for i in range(n))
                if comp not in seen:
                    seen.add(comp)
                    nxt.append(comp)
        frontier = nxt
    return len(seen)


def test_group_order_closure():
    assert aut_group_order([], 4) == 1
    assert aut_group_order([(1, 0, 2, 3)], 4) == 2
    assert aut_group_order([(1, 2, 3, 0)], 4) == 4
    assert aut_group_order([(1, 2, 3, 0), (0, 3, 2, 1)], 4) == 8
    # two generators of S4
    assert aut_group_order([(1, 0, 2, 3), (1, 2, 3, 0)], 4) == 24


@st.composite
def generator_sets(draw, max_n: int = 7):
    n = draw(st.integers(0, max_n))
    return n, draw(st.lists(st.permutations(range(n)), max_size=4))


@settings(max_examples=200, deadline=None)
@given(generator_sets())
@example((0, []))
@example((5, []))
@example((5, [list(range(5))]))
@example((6, [list(range(6)), [1, 0, 2, 3, 4, 5]]))
def test_group_order_matches_the_breadth_first_reference(case):
    n, gens = case
    assert aut_group_order(gens, n) == reference_group_order(gens, n)


def random_generators(seed: int) -> tuple[int, list[list[int]]]:
    """One to three permutations of degree 20-40, each a map of blocks of
    `size` consecutive points onto blocks (so the group keeps the blocks)
    or a cycle on a few random points; one seed in three leads with a full
    shuffle."""
    rng = random.Random(seed)
    size = rng.choice([2, 3, 4, 5])
    n = size * rng.randint(-(-20 // size), 40 // size)
    blocks = [range(i, i + size) for i in range(0, n, size)]
    gens = [rng.sample(range(n), n)] if seed % 3 == 0 else []
    for _ in range(rng.randint(1, 3) - len(gens)):
        p = list(range(n))
        if rng.random() < 0.5:
            for block, image in zip(blocks, rng.sample(blocks, len(blocks))):
                for x, y in zip(block, rng.sample(image, size)):
                    p[x] = y
        else:
            pts = rng.sample(range(n), rng.randint(2, 6))
            for x, y in zip(pts, pts[1:] + pts[:1]):
                p[x] = y
        gens.append(p)
    return n, gens


@pytest.mark.parametrize("seed", range(9))
def test_group_order_agrees_with_sympy(seed):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    n, gens = random_generators(seed)
    group = combinatorics.PermutationGroup([combinatorics.Permutation(p) for p in gens])
    assert aut_group_order(gens, n) == group.order()


def test_group_order_of_k60_from_search_generators_needs_no_deep_stack():
    g = complete(60)
    gens = aut_generators_via_recursion(g, 1)
    # a stack only a little deeper than this frame: a recursion over the
    # 59 levels of the chain would pass it
    depth = len(inspect.stack(0))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 30)
    try:
        order = aut_group_order(gens, g.n)
    finally:
        sys.setrecursionlimit(old)
    assert order == math.factorial(60)
    assert aut_group_order(gens, g.n) == order  # the same value on every call


@pytest.mark.parametrize("twisted", [(), ((0, 1),)], ids=["plain", "twisted"])
@pytest.mark.parametrize(
    "base, order",
    [(complete(4), 192), (petersen(), 7680), (generalized_petersen(10, 2), 245_760)],
    ids=["K4", "Petersen", "GP(10,2)"],
)
def test_search_generators_give_the_cfi_group_order(base, order, twisted):
    # |Aut(CFI(B))| = 2^(m-n+1) |Aut(B)| for a connected cubic base B with m
    # edges and n vertices; GP(10, 2) is past oracle_vertices, so VF2 counts it
    if base.n <= DEFAULT_LIMITS.oracle_vertices:
        aut_base = aut_order_oracle(base)
    else:
        aut_base = _vf2_automorphisms(base)
    assert 2 ** (base.num_edges - base.n + 1) * aut_base == order
    g = cfi_build(base, twisted=twisted)[0]
    assert aut_group_order(aut_generators_via_recursion(g, 1), g.n) == order
