from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import colored_graphs, crowns, lines_run
from wlkit.errors import ParseError, ResourceLimitError, UnsupportedGraphError
from wlkit.families import (
    bowtie,
    complete,
    complete_bipartite,
    cycle,
    generalized_petersen,
    path,
    petersen,
    random_graph,
)
from wlkit.graph import (
    ColoredGraph,
    complement,
    connected_components,
    disjoint_union,
    distance,
    is_connected,
    join,
    min_separator_size,
    parse_wlg,
    random_relabel,
    serialize_wlg,
    serialize_wlg_relabeled,
)
from wlkit.limits import Limits
from wlkit.oracle import aut_group_order, is_isomorphism, iso_oracle


# -- construction ------------------------------------------------------------


def test_basic_accessors():
    g = ColoredGraph(4, [(0, 1, 0), (1, 2, 5)], vertex_colors=[0, 1, 0, 2])
    assert g.n == 4
    assert g.num_edges == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.edge_color(1, 2) == 5
    assert g.edge_color(0, 2) is None
    assert g.neighbors(1) == [0, 2]
    assert g.degree(1) == 2 and g.degree(3) == 0
    assert g.max_vertex_color() == 2
    assert g.max_edge_color() == 5


@pytest.mark.parametrize("n, j", [(3, 1), (5, 2), (8, 3), (10, 2), (10, 3), (11, 5)])
def test_generalized_petersen_is_cubic_on_2n_vertices(n, j):
    g = generalized_petersen(n, j)
    assert (g.n, g.num_edges) == (2 * n, 3 * n)
    assert all(g.degree(v) == 3 for v in range(g.n))


def test_generalized_petersen_5_2_is_the_petersen_graph():
    g = generalized_petersen(5, 2)
    assert iso_oracle(g, petersen()) is not None
    # GP(5, 1), the pentagonal prism, is cubic on 10 vertices as well
    assert iso_oracle(generalized_petersen(5, 1), petersen()) is None


@pytest.mark.parametrize("n, j", [(2, 1), (6, 3), (5, 0), (5, 3)])
def test_generalized_petersen_refuses_parameters_off_its_range(n, j):
    with pytest.raises(ValueError):
        generalized_petersen(n, j)


def test_directed_edges_are_one_way():
    g = ColoredGraph(3, [(0, 1, 0)], directed=True)
    assert g.has_edge(0, 1)
    assert not g.has_edge(1, 0)
    p = g.pair_codes()
    assert p[0, 1] == 1 and p[1, 0] == 0


def test_relabel_and_induced():
    g = cycle(4)
    h = g.relabel([1, 2, 3, 0])
    assert h.num_edges == 4
    sub, verts = cycle(6).induced([0, 1, 2])
    assert verts == [0, 1, 2]
    assert sub.n == 3 and sub.num_edges == 2


@settings(max_examples=150, deadline=None)
@given(colored_graphs(), st.data())
def test_induced_keeps_every_edge_and_arc_within_the_subset(case, data):
    # the reference keeps each edge of the whole graph with both ends in the
    # subset; a directed graph keeps both arcs of a pair
    g, _ = case
    subset = data.draw(st.sets(st.integers(0, max(g.n - 1, 0)), max_size=g.n))
    sub, keep = g.induced(subset)
    pos = {v: i for i, v in enumerate(keep)}
    want = {(pos[u], pos[v]): c for (u, v), c in g.edges.items() if u in pos and v in pos}
    assert keep == sorted(subset) and sub.directed == g.directed
    assert sub.edges == want
    assert sub.vertex_colors == tuple(g.vertex_colors[v] for v in keep)


def test_induced_subgraphs_of_many_pieces_run_in_linear_time():
    # the induced subgraph of each of m crowns walks the crown's neighbour
    # lists: the lines run grow with m, where a walk over every edge per
    # call grew about 4x a doubling (192500, 745000, 2930000 lines)
    runs = []
    for m in (100, 200, 400):
        g = crowns(m)
        subs, lines = lines_run(lambda: [g.induced(range(6 * c, 6 * c + 6))[0] for c in range(m)])
        assert subs[0] == crowns(1) and all(sub.num_edges == 6 for sub in subs)
        runs.append(lines)
    assert runs[1] <= 2.1 * runs[0] and runs[2] <= 2.1 * runs[1], runs


def test_rejects_bad_input():
    with pytest.raises(UnsupportedGraphError):
        ColoredGraph(2, [(0, 0, 0)])
    with pytest.raises(UnsupportedGraphError):
        ColoredGraph(2, [(0, 5, 0)])
    with pytest.raises(UnsupportedGraphError):
        ColoredGraph(2, [(0, 1, 0), (1, 0, 0)])
    with pytest.raises(UnsupportedGraphError):
        ColoredGraph(2, vertex_colors=[0])
    with pytest.raises(UnsupportedGraphError):
        ColoredGraph(-1)


# -- text format -------------------------------------------------------------


@pytest.mark.parametrize(
    "g",
    [
        cycle(6),
        complete(4),
        petersen(),
        bowtie(),
        ColoredGraph(3, [(0, 1, 2), (1, 2, 0)], vertex_colors=[1, 0, 4]),
        ColoredGraph(3, [(0, 1, 0), (1, 0, 1)], directed=True),
        ColoredGraph(0),
        ColoredGraph(5),
    ],
)
def test_round_trip(g):
    assert parse_wlg(serialize_wlg(g)) == g


def test_parser_accepts_comments_and_blank_lines():
    text = "# a comment\n\np wlg 2 1 0  # trailing\ne 0 1\n"
    g = parse_wlg(text)
    assert g.n == 2 and g.has_edge(0, 1)


def test_default_colors_are_omitted():
    text = serialize_wlg(ColoredGraph(3, [(0, 1, 0)], vertex_colors=[0, 0, 2]))
    lines = text.strip().splitlines()
    assert lines == ["p wlg 3 1 0", "v 2 2", "e 0 1"]


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("e 0 1\n", 1),  # edge before header
        ("p wlg 2 0 0\np wlg 2 0 0\n", 2),  # duplicate header
        ("p wlg 2 0 7\n", 1),  # bad directed flag
        ("p wlg x 0 0\n", 1),  # non-integer field
        ("p wlg 2 1 0\ne 0 2\n", 2),  # endpoint out of range
        ("p wlg 2 1 0\ne 0 0\n", 2),  # self loop
        ("p wlg 2 2 0\ne 0 1\ne 1 0\n", 3),  # duplicate edge
        ("p wlg 2 1 0\ne 0 1 -1\n", 2),  # negative edge color
        ("p wlg 2 0 0\nv 5 1\n", 2),  # vertex out of range
        ("p wlg 2 0 0\nv 0 1\nv 0 2\n", 3),  # duplicate vertex line
        ("p wlg 2 0 0\nq 1\n", 2),  # unknown directive
        ("p wlg 2 3 0\ne 0 1\n", 1),  # edge count mismatch
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(ParseError) as info:
        parse_wlg(text)
    assert info.value.line == lineno


def test_reversed_undirected_duplicate_is_rejected_at_its_own_line():
    text = "p wlg 3 3 0\ne 1 2\ne 0 1 4\ne 2 1\n"
    with pytest.raises(ParseError) as info:
        parse_wlg(text)
    assert info.value.line == 4
    assert "duplicate edge (2,1)" in str(info.value)


def test_directed_opposite_arcs_are_distinct_edges():
    g = parse_wlg("p wlg 2 2 1\ne 0 1\ne 1 0 3\n")
    assert g.directed and g.num_edges == 2
    assert g.edge_color(0, 1) == 0 and g.edge_color(1, 0) == 3


def test_missing_header():
    with pytest.raises(ParseError):
        parse_wlg("# nothing here\n")


# -- combinators -------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(colored_graphs())
def test_neighbor_codes_are_the_pair_codes_of_adjacent_pairs(case):
    g, _ = case
    nc = g.neighbor_codes()
    p = g.pair_codes()
    adjacent = (p > 0) | (p.T > 0)
    src, tgt = np.nonzero(adjacent)  # row-major: CSR order
    assert np.array_equal(nc.src, src) and np.array_equal(nc.tgt, tgt)
    base = int(p.max()) + 1 if g.n else 1
    assert nc.base == base
    assert np.array_equal(nc.out, p[src, tgt]) and np.array_equal(nc.inn, p[tgt, src])
    degree = adjacent.sum(axis=1)
    assert nc.delta == (int(degree.max()) if g.n else 0)
    assert nc.pos.tolist() == [int((src[:i] == src[i]).sum()) for i in range(src.shape[0])]


def test_complement():
    g = cycle(5)
    cg = complement(g)
    assert cg.num_edges == 5
    assert complement(cg) == g
    # the pentagon is self-complementary
    assert iso_oracle(g, cg) is not None


def test_disjoint_union_and_join():
    u = disjoint_union(cycle(3), cycle(4))
    assert u.n == 7 and u.num_edges == 7
    assert connected_components(u) == [[0, 1, 2], [3, 4, 5, 6]]
    j = join(cycle(3), cycle(3))
    assert j.n == 6 and j.num_edges == 3 + 3 + 9
    assert is_connected(j)


def test_distance():
    g = cycle(6)
    assert distance(g, 0, 3) == 3
    assert distance(g, 0, 0) == 0
    assert distance(disjoint_union(cycle(3), cycle(3)), 0, 4) is None


# -- separators --------------------------------------------------------------


def test_separator_frozen_values():
    # every leftover component must be strictly smaller than n/2
    assert min_separator_size(path(4)) == 2
    assert min_separator_size(cycle(6)) == 2
    assert min_separator_size(complete(4)) == 3


def test_separator_rejects_directed_and_disconnected():
    with pytest.raises(UnsupportedGraphError):
        min_separator_size(ColoredGraph(2, [(0, 1, 0)], directed=True))
    with pytest.raises(UnsupportedGraphError):
        min_separator_size(disjoint_union(cycle(3), cycle(3)))


@settings(max_examples=150, deadline=None)
@given(colored_graphs(max_n=7, min_n=1, directed=False))
def test_components_and_separators_match_a_networkx_reference(case):
    # the components, their order and the separator search's subset count
    # (its separator_subsets budget) against networkx on each subset
    nx = pytest.importorskip("networkx")
    g = case[0]
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from((u, v) for u, v, _ in g.edge_list())
    want = sorted(sorted(c) for c in nx.connected_components(ref))
    assert connected_components(g) == want
    assert is_connected(g) == (len(want) == 1)
    if len(want) > 1:
        return
    examined = 0
    for size in range(g.n + 1):
        found = False
        for subset in itertools.combinations(range(g.n), size):
            examined += 1
            rest = ref.subgraph(set(range(g.n)) - set(subset))
            if all(len(c) < g.n / 2 for c in nx.connected_components(rest)):
                found = True
                break
        if found:
            break
    assert min_separator_size(g, limits=Limits(separator_subsets=examined)) == size
    with pytest.raises(ResourceLimitError):
        min_separator_size(g, limits=Limits(separator_subsets=examined - 1))


# -- relabeling --------------------------------------------------------------


def test_random_relabel_is_isomorphic():
    for seed in range(5):
        g = random_graph(9, 0.4, seed=seed)
        h, perm = random_relabel(g, seed=seed + 100)
        assert h == g.relabel(perm)
        assert is_isomorphism(g, h, perm)


def reference_relabel(g: ColoredGraph, perm: list[int]) -> ColoredGraph:
    """Relabel by a per-vertex and a per-edge loop through the checking
    constructor."""
    colors = [0] * g.n
    for i, c in enumerate(g.vertex_colors):
        colors[perm[i]] = c
    edges = [(perm[u], perm[v], c) for (u, v), c in g.edges.items()]
    return ColoredGraph(g.n, edges, g.directed, colors)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_relabel_matches_the_per_edge_reference(data):
    g, _ = data.draw(colored_graphs())
    g = g.with_vertex_colors(data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n)))
    perm = data.draw(st.permutations(range(g.n)))
    h, ref = g.relabel(perm), reference_relabel(g, perm)
    assert h == ref
    assert list(h.edges.items()) == list(ref.edges.items())
    assert np.array_equal(h.edge_array(), ref.edge_array())


@pytest.mark.parametrize("perm", [[0, 0, 2], [0, 1], [0, 1, 3]])
def test_every_permutation_check_refuses_a_non_permutation(perm):
    g = path(3)
    with pytest.raises(UnsupportedGraphError, match="permutation of 0..n-1"):
        g.relabel(perm)
    with pytest.raises(UnsupportedGraphError, match="permutation of 0..n-1"):
        serialize_wlg_relabeled(g, perm)
    assert is_isomorphism(g, g, perm) is False
    with pytest.raises(ValueError, match="not a permutation"):
        aut_group_order([perm], 3)
