from __future__ import annotations

from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wlkit.cws as cws
from conftest import colored_graphs, crown_graph, crowns, graph_pairs, lines_run, traced_peak
from wlkit.cfi import cfi_build
from wlkit.cws import (
    closure,
    contract,
    contract_batch,
    cws_spectrum,
    decompose,
    is_cws,
    is_prime,
    mutually_stable_trivial,
    normalize_cliques,
    normalize_overlaps,
    reduce_graph,
    twin_classes,
)
from wlkit.errors import DecompositionError, ResourceLimitError, UnsupportedGraphError
from wlkit.families import complete, cycle, path, petersen, random_graph
from wlkit.graph import ColoredGraph, disjoint_union, random_relabel
from wlkit.limits import DEFAULT_LIMITS, Limits
from wlkit.oracle import _UnionFind, iso_oracle, orbits_oracle
from wlkit.refine import refine_2, refine_k, vertex_classes


def classes_of(g) -> np.ndarray:
    return vertex_classes(refine_2(g))


# -- references: dense bit planes, the per-pair worklist closure and the pairwise
# -- twin test ---------------------------------------------------------------------


def reference_bit_planes(p: np.ndarray, directed: bool) -> np.ndarray:
    """The planes from the n x n pair codes: plane b of vertex v packs bit b
    of p[v, w] over w, and a directed graph adds the planes of p[w, v]."""
    n = p.shape[0]
    words = max(1, -(-n // 64))
    nbits = max(1, int(p.max(initial=0)).bit_length())
    sides = (p, p.T) if directed else (p,)
    out = np.empty((n, len(sides) * nbits, 8 * words), dtype=np.uint8)
    bits = np.zeros((n, 64 * words), dtype=bool)
    for i, side in enumerate(sides):
        for b in range(nbits):
            np.not_equal(side & (1 << b), 0, out=bits[:, :n])
            out[:, i * nbits + b] = np.packbits(bits, axis=1, bitorder="little")
    return out.view(np.uint64)


def reference_closure(p: np.ndarray, cols, seed, directed: bool) -> frozenset[int]:
    """Pop a same-colored pair, add every outside vertex it disagrees on, and
    queue the newcomer's pairs with its classmates, until no pair is left."""
    s = set(int(v) for v in seed)
    members = sorted(s)
    pending = [
        (x, y)
        for i, x in enumerate(members)
        for y in members[i + 1 :]
        if cols[x] == cols[y]
    ]
    while pending:
        x, y = pending.pop()
        neq = p[x] != p[y]
        if directed:
            neq = neq | (p[:, x] != p[:, y])
        for w in np.flatnonzero(neq):
            w = int(w)
            if w in s or w == x or w == y:
                continue
            pending.extend((w, z) for z in s if cols[z] == cols[w])
            s.add(w)
    return frozenset(s)


def reference_is_prime(g, cols, sset: frozenset[int]) -> bool:
    p = g.pair_codes()
    if len(sset) < 2 or reference_closure(p, cols, sset, g.directed) != sset:
        return False
    pairs = [(x, y) for x in sset for y in sset if x < y and cols[x] == cols[y]]
    return bool(pairs) and all(
        reference_closure(p, cols, pair, g.directed) == sset for pair in pairs
    )


def reference_overlap_blocks(g, cols, cap: int) -> list[frozenset[int]]:
    """For each member x of each class of 3 to `cap` vertices, by ascending
    color: the intersection of x's distinct prime pair closures when there
    are two or more, kept once when it holds two vertices or more.  Raises
    when two of the blocks intersect."""
    p = g.pair_codes()
    blocks: list[frozenset[int]] = []
    for c in sorted(set(cols.tolist())):
        members = [v for v in range(g.n) if cols[v] == c]
        if not 3 <= len(members) <= cap:
            continue
        for x in members:
            closures = [reference_closure(p, cols, (x, y), g.directed) for y in members if y != x]
            primes = [s for s in dict.fromkeys(closures) if reference_is_prime(g, cols, s)]
            block = frozenset.intersection(*primes) if len(primes) >= 2 else frozenset()
            if len(block) >= 2 and block not in blocks:
                blocks.append(block)
    if any(a & b for a, b in combinations(blocks, 2)):
        raise DecompositionError("overlap blocks intersect each other")
    return blocks


def reference_twin_classes(g, cols):
    p = g.pair_codes()
    uf_t, uf_f = _UnionFind(g.n), _UnionFind(g.n)
    for x in range(g.n):
        for y in range(x + 1, g.n):
            if cols[x] != cols[y] or p[x, y] != p[y, x]:
                continue
            rest = [w for w in range(g.n) if w != x and w != y]
            if all(p[x, w] == p[y, w] and p[w, x] == p[w, y] for w in rest):
                (uf_t if p[x, y] != 0 else uf_f).union(x, y)

    def collect(uf):
        groups: dict[int, list[int]] = {}
        for v in range(g.n):
            groups.setdefault(uf.find(v), []).append(v)
        return [sorted(vs) for _, vs in sorted(groups.items()) if len(vs) >= 2]
    return collect(uf_t), collect(uf_f)


def reference_attachment_profiles(g, cols, pieces):
    """Attachment profiles per (outside vertex, piece index) and per adjacent
    piece pair, from each outside vertex's neighbors and a loop over every
    pair of pieces."""
    owner = {}
    for pi, piece in enumerate(pieces):
        for v in piece:
            owner[v] = pi
    outside = [v for v in range(g.n) if v not in owner]
    op, pp = {}, {}
    for w in outside:
        per_piece: dict[int, list] = {}
        for u in g.neighbors(w):
            pi = owner.get(u)
            if pi is None:
                continue
            c = g.edge_color(w, u)
            cr = g.edge_color(u, w)
            per_piece.setdefault(pi, []).append(
                (int(cols[u]), -1 if c is None else c, -1 if cr is None else cr)
            )
        for pi, entries in per_piece.items():
            op[(w, pi)] = ("op" + repr(sorted(entries))).encode("ascii")
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            entries = []
            for u in pieces[i]:
                for v in g.neighbors(u):
                    if owner.get(v) == j:
                        c = g.edge_color(u, v)
                        entries.append(
                            (*sorted((int(cols[u]), int(cols[v]))), 0 if c is None else c)
                        )
            if entries:
                pp[(i, j)] = ("pp" + repr(sorted(entries))).encode("ascii")
    return op, pp


@st.composite
def blown_up_graphs(draw):
    """Each vertex of a small colored graph becomes 1-3 copies that keep its
    adjacency; the copies of one vertex are joined by a drawn code pair
    (possibly one-way or none), so twins of every kind are common.  Edge
    colors 0 and 1 may be renamed to two colors of at least 2^32."""
    g, cols = draw(colored_graphs(max_n=4))
    names = draw(
        st.just([0, 1])
        | st.lists(st.integers(2**32, 2**40), min_size=2, max_size=2, unique=True)
    )
    sizes = draw(st.lists(st.integers(1, 3), min_size=g.n, max_size=g.n))
    first = np.concatenate([[0], np.cumsum(sizes)]).astype(int).tolist()
    edges = {}
    for (u, v), c in g.edges.items():
        for x in range(first[u], first[u + 1]):
            for y in range(first[v], first[v + 1]):
                edges[(x, y)] = c
    for v in range(g.n):
        out, back = draw(st.sampled_from([(0, 0), (1, 1), (2, 2), (1, 0), (0, 2), (1, 2)]))
        if not g.directed:
            back = out
        for x in range(first[v], first[v + 1]):
            for y in range(x + 1, first[v + 1]):
                if out:
                    edges[(x, y)] = out - 1
                if back and g.directed:
                    edges[(y, x)] = back - 1
    n = first[-1]
    blown = ColoredGraph(n, [(x, y, names[c]) for (x, y), c in edges.items()], g.directed)
    return blown, np.repeat(cols, sizes)


@st.composite
def graphs_with_pieces(draw):
    """A colored graph and disjoint pieces of one to three vertices."""
    g, cols = draw(colored_graphs())
    perm = draw(st.permutations(range(g.n)))
    cuts = sorted(draw(st.lists(st.integers(0, g.n), max_size=4)))
    pieces = []
    for lo, hi in zip([0] + cuts, cuts + [g.n]):
        if 1 <= hi - lo <= 3 and draw(st.booleans()):
            pieces.append(frozenset(perm[lo:hi]))
    return g, cols, pieces


# pair codes up to 13 (edge colors up to 12) take four bit planes, eight
# with a directed graph's in-codes; `colored_graphs` alone draws two
WIDE_CODES = 13


def any_codes(max_n: int = 8):
    return colored_graphs(max_n) | colored_graphs(max_n, max_code=WIDE_CODES)


@st.composite
def wide_code_graphs(draw, max_n: int = 9):
    """Small graphs of either orientation whose pair codes come from a drawn
    palette of small codes and codes of 2^32 and more."""
    n = draw(st.integers(0, max_n))
    directed = draw(st.booleans())
    palette = draw(st.lists(st.integers(1, 3) | st.integers(2**32, 2**40), min_size=1, max_size=3))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    codes = draw(st.lists(st.sampled_from([0] + palette), min_size=len(pairs), max_size=len(pairs)))
    return ColoredGraph(n, [(u, v, c - 1) for (u, v), c in zip(pairs, codes) if c], directed)


@st.composite
def graphs_with_seed(draw):
    g, cols = draw(any_codes())
    # empty, singleton, pair and larger seeds
    size = min(draw(st.sampled_from((0, 1, 2, 3, 5))), g.n)
    seed = draw(st.sets(st.integers(0, max(g.n - 1, 0)), min_size=size, max_size=size))
    return g, cols, frozenset(seed)


PROPERTY = settings(max_examples=150, deadline=None)


# -- the subset predicate ------------------------------------------------------


def test_is_cws_on_c4():
    g = cycle(4)
    cols = classes_of(g)
    assert is_cws(g, cols, {0, 2})
    assert is_cws(g, cols, {1, 3})
    assert not is_cws(g, cols, {0, 1})
    assert is_cws(g, cols, {0})
    assert is_cws(g, cols, set(range(4)))


def test_is_cws_ignores_differently_colored_members():
    g = path(3)
    cols = classes_of(g)  # ends vs middle
    assert is_cws(g, cols, {0, 1})


# -- closures --------------------------------------------------------------------


def test_closures_in_c4():
    g = cycle(4)
    cols = classes_of(g)
    assert closure(g, cols, {0, 2}) == frozenset({0, 2})
    assert closure(g, cols, {0, 1}) == frozenset(range(4))
    with pytest.raises(ValueError):
        closure(g, cols, {0, 9})


@pytest.mark.parametrize("check", [closure, is_cws, is_prime])
def test_a_set_with_a_vertex_out_of_range_is_refused(check):
    # 64 would index past the packed rows, and -1 would wrap to bit 63
    g = cycle(64)
    cols = classes_of(g)
    for bad in ([64, 0], [-1, 31]):
        with pytest.raises(ValueError, match="seed vertex out of range"):
            check(g, cols, bad)


def test_mutually_stable_trivial_checks_k_before_its_shortcuts():
    # a family of fewer than two subsets is trivially interchangeable
    with pytest.raises(ValueError, match="k must be >= 1"):
        mutually_stable_trivial(cycle(4), [0] * 4, [{0}], k=0)


def test_a_family_with_a_vertex_out_of_range_is_refused():
    # checked before the family's other tests, which may pass or fail first
    g = cycle(6)
    cols = classes_of(g)
    for fam in ([[0, 6]], [[0, 1], [-1, 3]], [[0, 1], [1, 7]]):
        with pytest.raises(ValueError, match="seed vertex out of range"):
            mutually_stable_trivial(g, cols, fam)


def test_closure_is_monotone_and_idempotent():
    for seed in range(6):
        g = random_graph(8, 0.5, seed=seed)
        cols = classes_of(g)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                s = closure(g, cols, (u, v))
                assert {u, v} <= s
                assert closure(g, cols, s) == s
                assert is_cws(g, cols, s)


@PROPERTY
@given(graphs_with_seed())
def test_closure_matches_the_worklist_reference(case):
    g, cols, seed = case
    want = reference_closure(g.pair_codes(), cols, seed, g.directed)
    assert closure(g, cols, seed) == want
    assert is_cws(g, cols, seed) == (want == seed)


@PROPERTY
@given(wide_code_graphs() | any_codes().map(lambda case: case[0]))
def test_bit_planes_match_the_dense_reference(g):
    got = cws._bit_planes(g)
    assert got.dtype == np.uint64
    assert np.array_equal(got, reference_bit_planes(g.pair_codes(), g.directed))


@PROPERTY
@given(any_codes(max_n=7))
def test_batched_pair_closures_match_the_reference(case):
    g, cols = case
    pairs = [(x, y) for x in range(g.n) for y in range(x + 1, g.n)]
    p = g.pair_codes()
    want = [reference_closure(p, cols, pair, g.directed) for pair in pairs]
    planes = cws._bit_planes(g)
    dense = cws._dense_classes(cols)
    # batches of one, two and about six seeds, whose steps gather a few
    # vertices at a time, as well as one batch
    for cap in (cws._BATCH_BYTES, 1, 100, 300):
        rows = cws._closures(planes, dense, pairs, cap)
        assert [cws._vertex_set(row.tobytes()) for row in rows] == want


def test_mirror_pair_closures_of_a_long_path(monkeypatch):
    # the classes of a path are its mirror pairs {i, n-1-i}; the closure of a
    # mirror pair grows by one pair per fixpoint step, toward the middle and
    # toward the ends, so the pair of the two ends takes n/2 steps
    n = 240
    g = path(n)
    cols = np.minimum(np.arange(n), n - 1 - np.arange(n))
    pairs = [(i, n - 1 - i) for i in range(n // 2)]
    scan = cws._Scan(g, cols, DEFAULT_LIMITS)
    steps = []
    bits_of = cws._bits_of
    monkeypatch.setattr(cws, "_bits_of", lambda rows: steps.append(len(rows)) or bits_of(rows))
    scan.close_pairs(pairs)
    assert len(steps) >= 100
    p = g.pair_codes()
    for pair in pairs:
        assert cws._vertex_set(scan.cl[pair]) == reference_closure(p, cols, pair, False)


def test_closing_a_full_overlap_class_stays_within_the_batch_budget(monkeypatch):
    # every pair of a class as large as the overlap scan takes, on 256
    # vertices, each pair closing to the whole graph: beyond a few hundred
    # bytes per cached pair the traced peak follows the batch budget (the
    # closures as frozensets alone would take about 17 MB)
    g = random_graph(256, 0.5, seed=3)
    cols = np.arange(256) % 4
    members = np.flatnonzero(cols == 0).tolist()
    assert len(members) == DEFAULT_LIMITS.overlap_class_cap
    for budget in (1 << 20, cws._BATCH_BYTES):
        monkeypatch.setattr(cws, "_BATCH_BYTES", budget)
        scan = cws._Scan(g, cols, DEFAULT_LIMITS)
        scan.planes  # built before tracing
        _, peak = traced_peak(lambda: scan.close_pairs(combinations(members, 2)))
        assert len(scan.cl) == 64 * 63 // 2
        assert all(cws._members(row).size == g.n for row in scan.cl.values())
        assert peak < 2 * budget + 512 * len(scan.cl)


@PROPERTY
@given(any_codes(max_n=7))
def test_spectrum_matches_the_per_pair_closures(case):
    # the batched scan against the public one-pair-at-a-time closure
    g, cols = case
    for v in range(g.n):
        mates = [w for w in range(g.n) if w != v and cols[w] == cols[v]]
        firsts: dict[frozenset[int], tuple[int, int]] = {}
        for w in mates:
            firsts.setdefault(closure(g, cols, {v, w}), (v, w))
        got = cws._Scan(g, cols, DEFAULT_LIMITS).closures_of(v, mates)
        assert [(cws._vertex_set(row), pair) for row, pair in got.items()] == list(
            firsts.items()
        )
        assert cws_spectrum(g, cols, v) == sorted(firsts, key=lambda s: (len(s), sorted(s)))


@PROPERTY
@given(graphs_with_seed())
def test_is_prime_matches_the_worklist_reference(case):
    g, cols, seed = case
    s = closure(g, cols, seed)
    for sset in (seed, s):
        assert is_prime(g, cols, sset) == reference_is_prime(g, cols, sset)


@PROPERTY
@given(colored_graphs() | blown_up_graphs())
def test_twin_classes_match_the_pairwise_reference(case):
    g, cols = case
    assert twin_classes(g, cols) == reference_twin_classes(g, cols)


@PROPERTY
@given(graphs_with_pieces())
def test_attachment_profiles_match_the_pairwise_reference(case):
    # contraction reads each edge once; the profile table, each attachment
    # edge's color and the kept edges must match the pairwise reference
    g, cols, pieces = case
    digests = [bytes([i % 2]) for i in range(len(pieces))]
    if g.directed:
        with pytest.raises(UnsupportedGraphError):
            contract_batch(g, cols, pieces, digests)
        return
    out, mapping, profile_table = contract_batch(g, cols, pieces, digests)
    op, pp = reference_attachment_profiles(g, cols, pieces)
    assert profile_table == sorted(set(op.values()) | set(pp.values()))
    ebase = g.max_edge_color() + 1
    slot = [mapping[min(piece)] for piece in pieces]
    expected = {}
    for (w, i), prof in op.items():
        expected[(mapping[w], slot[i])] = ebase + profile_table.index(prof)
    for (i, j), prof in pp.items():
        expected[tuple(sorted((slot[i], slot[j])))] = ebase + profile_table.index(prof)
    inside = set().union(*pieces)
    for u, v, c in g.edge_list():
        if u not in inside and v not in inside:
            expected[(mapping[u], mapping[v])] = c
    assert out.edges == expected


def test_contraction_refuses_a_directed_graph():
    # arcs 0->1, 2->1 and 3->2 with the piece {1, 2}
    g = ColoredGraph(4, [(0, 1, 0), (2, 1, 0), (3, 2, 0)], directed=True)
    with pytest.raises(UnsupportedGraphError):
        contract_batch(g, np.zeros(4, dtype=np.int64), [frozenset({1, 2})], [b""])


def test_prime_pieces_of_c4():
    g = cycle(4)
    cols = classes_of(g)
    assert is_prime(g, cols, {0, 2})
    assert not is_prime(g, cols, set(range(4)))
    assert not is_prime(g, cols, {0})


def test_c6_is_its_own_prime():
    g = cycle(6)
    cols = classes_of(g)
    assert cws_spectrum(g, cols, 0) == [frozenset(range(6))]
    assert is_prime(g, cols, frozenset(range(6)))


# -- twins --------------------------------------------------------------------------


def test_twin_classes():
    true_k4, false_k4 = twin_classes(complete(4), classes_of(complete(4)))
    assert true_k4 == [[0, 1, 2, 3]] and false_k4 == []
    true_c4, false_c4 = twin_classes(cycle(4), classes_of(cycle(4)))
    assert true_c4 == [] and false_c4 == [[0, 2], [1, 3]]
    star = ColoredGraph(4, [(0, 1, 0), (0, 2, 0), (0, 3, 0)])
    t, f = twin_classes(star, vertex_classes(refine_2(star)))
    assert t == [] and f == [[1, 2, 3]]


def test_no_twins_in_c6():
    t, f = twin_classes(cycle(6), classes_of(cycle(6)))
    assert t == [] and f == []


@pytest.mark.parametrize("arcs", [
    [(0, 1, 0), (0, 2, 0), (1, 2, 0)],  # transitive tournament: 0 and 2 differ at 1
    [(2, 0, 0), (0, 1, 0), (2, 1, 0)],  # 0 twins 1 and 2 only through arcs one way
])
def test_twins_need_a_symmetric_code(arcs):
    # pairs whose codes differ each way are not twins, so no union of them
    # groups vertices that are not mutual twins
    g = ColoredGraph(3, arcs, directed=True)
    assert twin_classes(g, np.zeros(3, dtype=np.int64)) == ([], [])


@pytest.mark.parametrize("k", [1, 2])
def test_twin_digests_are_the_canonical_certificates(k):
    # a twin group, uniformly colored and complete or edgeless with one
    # edge code, inside a graph that joins every member to one hub; its
    # digest without a search is the canonical search's
    for size in range(1, 9):
        for code in (0, 1, 2):
            inner = [] if code == 0 else [
                (u, v, code - 1) for u, v in combinations(range(size), 2)
            ]
            g = ColoredGraph(
                size + 1, inner + [(u, size, 0) for u in range(size)],
                vertex_colors=[2] * size + [0],
            )
            g, perm = random_relabel(g, seed=size)
            cols = np.asarray(g.vertex_colors)
            piece = frozenset(perm[u] for u in range(size))
            want = cws._piece_digest(g, cols, piece, k, DEFAULT_LIMITS)
            fast = cws._piece_digest(g, cols, piece, k, DEFAULT_LIMITS, twin=True)
            assert fast == want, (size, code)


def test_reduction_runs_no_search_on_twin_pieces():
    # 100 disjoint C4s reduce in three twin levels; only the one-vertex
    # terminal graph is certified, and the digests are those of searching
    # every twin piece (a 200-vertex group alone took 20 100 search nodes)
    def disjoint_c4s(m):
        out = cycle(4)
        for _ in range(m - 1):
            out = disjoint_union(out, cycle(4))
        return out

    sizes = []
    real = cws.certify

    def spy(g, *args, **kwargs):
        sizes.append(g.n)
        return real(g, *args, **kwargs)

    with mock.patch.object(cws, "certify", spy):
        tree, cert = reduce_graph(disjoint_c4s(100), 1)
    assert [lv.kind for lv in tree.levels] == ["twin"] * 3
    assert sizes == [1]
    assert cert.hexdigest == (
        "a9364813f83cc21c3a70d652c4f3ff444c1ebef32e770d2f8162381cbb8065e2"
    )
    assert reduce_graph(disjoint_c4s(200), 1)[1].hexdigest == (
        "308d3731f49883469e276788855cacb020d39cc023c1ddc606848d59c2d38026"
    )


# -- contraction ----------------------------------------------------------------------


def test_contract_requires_a_cws_set():
    g = cycle(4)
    with pytest.raises(UnsupportedGraphError):
        contract(g, {0, 1})
    out = contract(g, {0, 2})
    assert out.n == 3
    # the contracted vertex carries a fresh digest-derived color
    assert out.vertex_colors[2] > g.max_vertex_color()


def test_contract_is_the_one_piece_batch():
    g = disjoint_union(cycle(4), path(3))
    cols = classes_of(g)
    from wlkit.cws import _piece_digest
    from wlkit.limits import DEFAULT_LIMITS

    piece = frozenset({0, 2})
    digest = _piece_digest(g, cols, piece, 2, DEFAULT_LIMITS)
    batch, _, _ = contract_batch(g, cols, [piece], [digest])
    assert contract(g, piece, coloring=cols) == batch


def test_equal_pieces_share_a_color():
    g = disjoint_union(cycle(3), cycle(3))
    cols = classes_of(g)
    pieces = [frozenset({0, 1, 2}), frozenset({3, 4, 5})]
    from wlkit.cws import _piece_digest
    from wlkit.limits import DEFAULT_LIMITS

    digests = [_piece_digest(g, cols, p, 2, DEFAULT_LIMITS) for p in pieces]
    assert digests[0] == digests[1]
    out, mapping, profile_table = contract_batch(g, cols, pieces, digests)
    assert out.n == 2
    assert out.vertex_colors[0] == out.vertex_colors[1]


def test_attachment_profiles_separate_different_contexts():
    # two triangles, one hanging off a path: the pieces are isomorphic but
    # their surroundings differ, which must show in the edge colors
    g = ColoredGraph(
        7,
        [(0, 1, 0), (1, 2, 0), (2, 0, 0), (3, 4, 0), (4, 5, 0), (5, 3, 0), (2, 6, 0), (6, 3, 0)],
    )
    cols = classes_of(g)
    pieces = [frozenset({0, 1, 2}), frozenset({3, 4, 5})]
    from wlkit.cws import _piece_digest
    from wlkit.limits import DEFAULT_LIMITS

    digests = [_piece_digest(g, cols, p, 2, DEFAULT_LIMITS) for p in pieces]
    out, mapping, profile_table = contract_batch(g, cols, pieces, digests)
    assert out.n == 3


# -- decomposition -----------------------------------------------------------------------


def test_decompose_c4():
    recs = decompose(cycle(4))
    assert [sorted(r.vertices) for r in recs] == [[0, 2], [1, 3]]
    assert all(r.prime for r in recs)


def test_decompose_c6_keeps_the_whole():
    recs = decompose(cycle(6))
    assert len(recs) == 1
    assert recs[0].vertices == frozenset(range(6))


def test_decompose_reports_overlaps():
    crown = crown_graph()
    with pytest.raises(DecompositionError):
        decompose(crown, coloring=crown.vertex_colors)


def test_decompose_rejects_directed():
    with pytest.raises(UnsupportedGraphError):
        decompose(ColoredGraph(2, [(0, 1, 0)], directed=True))


# -- normalization ------------------------------------------------------------------------


def test_clique_normalization_collapses_twin_towers():
    g = disjoint_union(complete(3), complete(3))
    out = normalize_cliques(g)
    assert out.n == 1


def test_overlap_normalization_on_the_crown():
    crown = crown_graph()
    out = normalize_overlaps(crown)
    assert out.n == 3
    # the three merged blocks are mutual twins, the next reduction step
    t, f = twin_classes(out, classes_of(out))
    assert (t or f) == [[0, 1, 2]]
    assert normalize_cliques(out).n == 1


def test_crown_overlap_blocks():
    crown = crown_graph()
    scan = cws._Scan(crown, crown.vertex_colors, DEFAULT_LIMITS)
    blocks = cws._overlap_blocks(scan, DEFAULT_LIMITS)
    assert sorted(sorted(b) for b in blocks) == [[0, 3], [1, 4], [2, 5]]


@PROPERTY
@given(any_codes(max_n=7))
def test_overlap_blocks_match_the_pairwise_reference(case):
    g, cols = case
    scan = cws._Scan(g, cols, DEFAULT_LIMITS)
    try:
        want = reference_overlap_blocks(g, cols, DEFAULT_LIMITS.overlap_class_cap)
    except DecompositionError:
        with pytest.raises(DecompositionError, match="intersect"):
            cws._overlap_blocks(scan, DEFAULT_LIMITS)
    else:
        assert cws._overlap_blocks(scan, DEFAULT_LIMITS) == want


def test_intersecting_overlap_blocks_raise():
    # under this (unstable) coloring, blocks {0, 3} and {3, 4} share vertex 3
    g = ColoredGraph(7, [(0, 2), (0, 5), (2, 6), (3, 4), (3, 5), (3, 6), (5, 6)])
    cols = np.array([0, 0, 1, 1, 0, 1, 0])
    with pytest.raises(DecompositionError, match="intersect"):
        reference_overlap_blocks(g, cols, DEFAULT_LIMITS.overlap_class_cap)
    with pytest.raises(DecompositionError, match="intersect"):
        cws._overlap_blocks(cws._Scan(g, cols, DEFAULT_LIMITS), DEFAULT_LIMITS)


@pytest.mark.parametrize("twisted, seeds, digest", [
    ((), 396, "5a940ad540eb89adb216418a1dcd5c806325f36aa144e3ba3931061e7fac8375"),
    (((0, 1),), 1624, "1ea1fa1da757a1e35a0e8f8dd6412014171712a8411e7b15dbafc173eb7123f5"),
])
def test_an_overlap_scan_closes_every_classmate_pair_in_one_batch(monkeypatch, twisted, seeds, digest):
    # CFI(K4) and CFI(K4) beside a twisted copy: the scan closes the pairs of
    # every scanned class at once, and primality and decompose read the
    # cache, so the whole reduction runs one closure batch, with the digests
    # that closing class by class gave (in 4-9 and 13-14 batches)
    g, _ = cfi_build(complete(4))
    if twisted:
        g = disjoint_union(g, cfi_build(complete(4), twisted=twisted)[0])
    batches = []
    closures = cws._closures
    monkeypatch.setattr(
        cws, "_closures", lambda planes, cls, s, cap: batches.append(len(s)) or closures(planes, cls, s, cap)
    )
    tree, cert = reduce_graph(g, 2)
    assert batches == [seeds]
    assert cert.digest.hex() == digest
    assert [(lv.kind, len(lv.pieces)) for lv in tree.levels] == [("prime", 1 + bool(twisted))]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 4)), min_size=2, max_size=30,
                unique_by=lambda t: t[0]))
def test_classmate_pairs_are_every_same_class_pair_in_order(members):
    # increasing members with arbitrary class ids: the pairs of one stable
    # argsort are the sorted same-class pairs of itertools.combinations
    members.sort()
    verts = np.asarray([v for v, _ in members], dtype=np.int64)
    cls = np.asarray([c for _, c in members], dtype=np.int64)
    want = sorted((x, y) for (x, a), (y, b) in combinations(members, 2) if a == b)
    got = cws._classmate_pairs(verts, cls)
    assert got == want
    assert all(type(v) is int for pair in got for v in pair)


def test_overlap_blocks_of_many_crowns_run_in_linear_time():
    # 3m blocks of m crowns: one closure batch, one primality test per
    # distinct closure and one pass over the blocks that checks them for
    # overlap, so the lines run grow with m; checking every pair of blocks
    # and closing per class grew 2.6-3.0x a doubling (142485, 374935,
    # 1115435 lines)
    runs = []
    for m in (100, 200, 400):
        g = crowns(m)
        scan = cws._Scan(g, g.vertex_colors, DEFAULT_LIMITS)
        blocks, lines = lines_run(lambda: cws._overlap_blocks(scan, DEFAULT_LIMITS))
        assert blocks == [frozenset((6 * c + i, 6 * c + 3 + i)) for c in range(m) for i in range(3)]
        runs.append(lines)
    assert runs[1] <= 2.1 * runs[0] and runs[2] <= 2.1 * runs[1], runs


# -- full reduction -----------------------------------------------------------------------


def test_reduce_two_hexagons():
    tree, cert = reduce_graph(disjoint_union(cycle(6), cycle(6)))
    assert tree.depth == 2
    assert [lv.kind for lv in tree.levels] == ["prime", "twin"]
    assert tree.terminal.n == 1
    assert cert.mode == "reduce"
    assert len(cert.digest) == 32


def test_reduce_digest_is_relabeling_invariant():
    g = disjoint_union(cycle(6), cycle(6))
    _, ref = reduce_graph(g)
    for seed in range(3):
        h, _ = random_relabel(g, seed=seed)
        _, cert = reduce_graph(h)
        assert cert.digest == ref.digest


@st.composite
def relabeled_graphs(draw):
    """An undirected graph of at most 9 vertices with up to three vertex
    colors and three edge colors, and a permutation of its vertices.  It is
    made of copies of one small graph (often one copy), each vertex possibly
    joined to its image in the next copy, so that about half reduce through
    one to three levels of every kind."""
    m = draw(st.integers(1, 9))
    copies = draw(st.integers(1, 9 // m))
    pairs = [(u, v) for u in range(m) for v in range(u + 1, m)]
    codes = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    colors = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
    link = draw(st.integers(0, 3)) if copies > 1 else 0
    edges = [
        (i * m + u, i * m + v, c - 1)
        for i in range(copies)
        for (u, v), c in zip(pairs, codes)
        if c
    ]
    if link:
        # copy i to copy i + 1, and the last back to the first when that
        # adds no second edge between two vertices
        for i in range(copies if copies > 2 else 1):
            j = (i + 1) % copies
            edges += [(i * m + u, j * m + u, link - 1) for u in range(m)]
    g = ColoredGraph(copies * m, edges, vertex_colors=colors * copies)
    return g, draw(st.permutations(range(g.n)))


def reduce_outcome(g, k):
    """The reduction digest, or the kind of refusal (its message names
    vertices, which a relabeling moves)."""
    try:
        return reduce_graph(g, k)[1].digest
    except DecompositionError:
        return "DecompositionError"


@PROPERTY
@given(relabeled_graphs())
def test_reduce_digest_is_relabeling_invariant_on_random_colored_graphs(case):
    g, perm = case
    for k in (1, 2):
        assert reduce_outcome(g.relabel(perm), k) == reduce_outcome(g, k)


@pytest.mark.parametrize(
    "name", ["crown", "twin towers K3+K3", "crown+crown", "C4+P3"]
)
def test_reduce_digest_is_relabeling_invariant_over_several_levels(name):
    g = {
        "crown": crown_graph(),
        "twin towers K3+K3": disjoint_union(complete(3), complete(3)),
        "crown+crown": disjoint_union(crown_graph(), crown_graph()),
        "C4+P3": disjoint_union(cycle(4), path(3)),
    }[name]
    for k in (1, 2):
        tree, ref = reduce_graph(g, k)
        assert tree.depth >= 2
        for seed in range(4):
            h, _ = random_relabel(g, seed=seed)
            assert reduce_graph(h, k)[1].digest == ref.digest


def test_reduce_separates_different_unions():
    _, a = reduce_graph(disjoint_union(cycle(6), cycle(6)))
    _, b = reduce_graph(disjoint_union(cycle(3), cycle(3)))
    assert a.digest != b.digest


def test_reduce_crown_uses_overlap_levels():
    tree, _ = reduce_graph(crown_graph())
    assert "overlap" in [lv.kind for lv in tree.levels]
    assert tree.terminal.n == 1


def test_a_k1_reduction_reads_no_pair_code_matrix(monkeypatch):
    # twin groups and closures read the planes, which come from the adjacent
    # pairs; twin, overlap and prime levels all run below
    def refuse(g):
        raise AssertionError("pair_codes called")

    monkeypatch.setattr(ColoredGraph, "pair_codes", refuse)
    graphs = [
        disjoint_union(cycle(6), cycle(6)), crown_graph(), complete(5),
        cfi_build(complete(4))[0], path(9).with_vertex_colors([1, 0, 0, 0, 2, 0, 0, 0, 1]),
    ]
    kinds = set()
    for g in graphs:
        tree, _ = reduce_graph(g, 1)
        kinds.update(lv.kind for lv in tree.levels)
    assert kinds == {"twin", "overlap", "prime"}


def test_a_k1_reduction_of_a_discrete_path_stays_within_a_small_budget():
    # no class has two members, so nothing builds the planes; n x n int64
    # pair codes would be 8 MB
    g = path(1000).with_vertex_colors(range(1000))
    lim = Limits(memory_bytes=2_000_000)
    (tree, _), peak = traced_peak(lambda: reduce_graph(g, 1, limits=lim))
    assert tree.depth == 0
    assert peak < lim.memory_bytes


def test_bit_planes_past_the_memory_budget_raise_before_they_are_built():
    # codes of 21 bits take 21 planes of 16 words: 2.7 MB for 1000 vertices,
    # while a k = 1 refinement of the path fits well within 2 MB
    g = path(1000)
    g = ColoredGraph(g.n, [(u, v, 2**20 - 1) for u, v, _ in g.edge_list()])
    lim = Limits(memory_bytes=2_000_000)
    refine_k(g, 1, limits=lim)
    for run in (lambda: reduce_graph(g, 1, limits=lim), lambda: decompose(g, 1, limits=lim)):
        with pytest.raises(ResourceLimitError, match="memory_bytes") as err:
            run()
        assert err.value.cap == lim.memory_bytes
        assert err.value.required >= 1000 * 21 * 16 * 8
    # raised before anything of the planes' size is allocated
    _, peak = traced_peak(lambda: pytest.raises(ResourceLimitError, reduce_graph, g, 1, limits=lim))
    assert peak < 1000 * 21 * 16 * 8


def wide_path() -> ColoredGraph:
    """path(1000) with 21-bit edge codes: its bit planes take 2.69 MB."""
    g = path(1000)
    return ColoredGraph(g.n, [(u, v, 2**20 - 1) for u, v, _ in g.edge_list()])


_WIDE_PLANES = 1000 * 21 * 16 * 8
_MIRROR = np.minimum(np.arange(1000), 999 - np.arange(1000))  # the path's classes


@pytest.mark.parametrize(
    "run",
    [
        lambda g: closure(g, _MIRROR, {0, 999}),
        lambda g: is_cws(g, _MIRROR, {0, 999}),
        lambda g: is_prime(g, _MIRROR, {0, 999}),
        lambda g: cws_spectrum(g, _MIRROR, 0),
        lambda g: twin_classes(g, _MIRROR),
    ],
    ids=["closure", "is_cws", "is_prime", "cws_spectrum", "twin_classes"],
)
def test_entry_points_without_limits_read_the_default_memory_budget(monkeypatch, run):
    g = wide_path()
    lim = Limits(memory_bytes=2_000_000)
    run(g.with_vertex_colors([0] * g.n))  # first-call allocations are not the run's
    monkeypatch.setattr(cws, "DEFAULT_LIMITS", lim)
    with pytest.raises(ResourceLimitError, match="memory_bytes") as err:
        run(g)
    assert err.value.cap == lim.memory_bytes and err.value.required >= _WIDE_PLANES
    _, peak = traced_peak(lambda: pytest.raises(ResourceLimitError, run, g))
    assert peak < _WIDE_PLANES


def test_a_reduction_level_builds_and_budgets_its_planes_once(monkeypatch):
    # the twin pass reads the level's scan, so a default budget too small
    # for the planes does not stop a reduction run under a larger one, and
    # a level with no twin groups builds its planes once, not twice
    g = wide_path()
    builds = []
    bit_planes = cws._bit_planes
    monkeypatch.setattr(cws, "_bit_planes", lambda h: builds.append(h.n) or bit_planes(h))
    monkeypatch.setattr(cws, "DEFAULT_LIMITS", Limits(memory_bytes=2_000_000))
    tree, _ = reduce_graph(g, 1, limits=Limits(memory_bytes=10**9))
    assert [lv.kind for lv in tree.levels] == ["prime"]
    assert builds.count(g.n) == 1


def test_contract_and_interchangeability_apply_their_own_memory_budget():
    g = wide_path()
    lim = Limits(memory_bytes=2_000_000)
    for run in (
        lambda: contract(g, range(1000), k=1, coloring=_MIRROR, limits=lim),
        lambda: mutually_stable_trivial(g, _MIRROR, [{0}, {999}], 1, limits=lim),
    ):
        with pytest.raises(ResourceLimitError, match="memory_bytes") as err:
            run()
        assert err.value.cap == lim.memory_bytes
        _, peak = traced_peak(lambda: pytest.raises(ResourceLimitError, run))
        assert peak < _WIDE_PLANES


def test_interchangeability_builds_the_planes_once(monkeypatch):
    g = disjoint_union(disjoint_union(cycle(6), cycle(6)), cycle(6))
    fam = [frozenset(range(i, i + 6)) for i in (0, 6, 12)]
    builds = []
    bit_planes = cws._bit_planes
    monkeypatch.setattr(cws, "_bit_planes", lambda h: builds.append(h) or bit_planes(h))
    assert mutually_stable_trivial(g, classes_of(g), fam)
    assert len(builds) == 1


def _cycles(m: int) -> ColoredGraph:
    g = cycle(7)
    for _ in range(m - 1):
        g = disjoint_union(g, cycle(7))
    return g


def test_pair_closures_stay_within_their_batch_cap():
    # the batch state and the gathered rows each stay within the cap, with
    # a step's set-bit, key and XOR arrays counted, beside the 8 KB a call
    # holds; the rows given back are the caller's
    g = _cycles(60)
    cls = np.zeros(g.n, dtype=np.int64)  # one class at k = 1
    seeds = [(0, y) for y in range(1, g.n)]
    planes = cws._bit_planes(g)
    want = cws._closures(planes, cls, seeds, cws._BATCH_BYTES)
    for cap in (30_000, 100_000):
        rows, peak = traced_peak(lambda: cws._closures(planes, cls, seeds, cap))
        assert np.array_equal(rows, want)
        assert peak - rows.nbytes <= 2 * cap + 8192


def test_cached_closures_past_the_memory_budget_raise():
    # at k = 1 the disjoint 7-cycles form one class, and the scan closes
    # each uncovered vertex with every classmate: thousands of cached pairs
    reduce_graph(_cycles(2), 1)  # first-call allocations are not the run's
    lim = Limits(memory_bytes=1_000_000)
    g = _cycles(60)
    with pytest.raises(ResourceLimitError, match="memory_bytes") as err:
        reduce_graph(g, 1, limits=lim)
    assert "closures" in str(err.value) and err.value.cap == lim.memory_bytes
    assert err.value.budget == "memory_bytes"
    _, peak = traced_peak(lambda: pytest.raises(ResourceLimitError, reduce_graph, g, 1, limits=lim))
    assert peak < err.value.required
    # 40 copies fit in 2 MB, with the digest of the default budget
    g = _cycles(40)
    want = reduce_graph(g, 1)[1].digest
    assert reduce_graph(g, 1, limits=Limits(memory_bytes=2_000_000))[1].digest == want


@pytest.mark.parametrize("m, budget", [(150, 4_000_000), (100, 6_500_000)])
def test_a_closure_batch_counts_its_keys_and_rows(m, budget):
    # a batch's key set, its todo list and its result rows beside their
    # bytes copies live only while it runs; counted with the cache, they
    # keep the traced peak within the budget up to the check that raises
    reduce_graph(_cycles(2), 1)  # first-call allocations are not the run's
    g = _cycles(m)
    lim = Limits(memory_bytes=budget)

    def run():
        with pytest.raises(ResourceLimitError, match="closures") as err:
            reduce_graph(g, 1, limits=lim)
        return err.value

    err, peak = traced_peak(run)
    assert err.cap == budget < err.required and err.budget == "memory_bytes"
    assert peak <= budget


def test_an_overlap_scan_budgets_the_pairs_of_every_scanned_class_at_once(monkeypatch):
    # 100 crowns hold 200 scanned classes of 3.  At the least budget the
    # scan's planes take, the three pairs of a class close on their own, but
    # the keys and rows of all 600 pairs at once do not: the one batch raises
    # before it builds a closure, or the planes
    g = crowns(100)
    with pytest.raises(ResourceLimitError) as err:
        cws._Scan(g, g.vertex_colors, Limits(memory_bytes=1))
    lim = Limits(memory_bytes=err.value.required)
    for members in cws._class_members(np.asarray(g.vertex_colors))[:3]:
        one = cws._Scan(g, g.vertex_colors, lim)
        one.close_pairs(combinations(members.tolist(), 2))
        assert len(one.cl) == 3
    batches = []
    monkeypatch.setattr(cws, "_closures", lambda *args: batches.append(args))
    scan = cws._Scan(g, g.vertex_colors, lim)
    with pytest.raises(ResourceLimitError, match="600 closures") as err:
        cws._overlap_blocks(scan, lim)
    assert err.value.budget == "memory_bytes" and err.value.cap == lim.memory_bytes
    assert batches == [] and scan.cl == {} and "planes" not in vars(scan)


def test_twin_ranks_are_budgeted_with_the_planes():
    # at k = 1 the disjoint 7-cycles form one class, so a level's twin pass
    # copies the planes and ranks the copy.  The scan charges that copy, the
    # rank's compare slab and its per-vertex and per-pair arrays, so 150
    # copies under 500 KB raise before the budget is passed (the pass alone
    # traced 0.54 MB beside 0.13 MB held when only 3 planes were charged),
    # and the pass's own peak stays within what the scan charges
    reduce_graph(_cycles(2), 1)  # first-call allocations are not the run's
    g = _cycles(150)
    lim = Limits(memory_bytes=500_000)

    def run():
        with pytest.raises(ResourceLimitError, match="twin ranks") as err:
            reduce_graph(g, 1, limits=lim)
        return err.value

    err, peak = traced_peak(run)
    assert err.cap == 500_000 < err.required and peak <= 500_000
    assert err.budget == "memory_bytes"
    for h in (g, path(1000), random_graph(400, 0.05, seed=2)):
        cols = np.zeros(h.n, dtype=np.int64)
        h.neighbor_codes()  # the graph's own cache is not the pass's
        with pytest.raises(ResourceLimitError) as err:
            cws._Scan(h, cols, Limits(memory_bytes=1))
        scan = cws._Scan(h, cols, DEFAULT_LIMITS)
        _, peak = traced_peak(lambda: twin_classes(h, cols, _scan=scan))
        assert peak <= err.value.required, h.n


def test_reduce_records_piece_members():
    tree, _ = reduce_graph(disjoint_union(cycle(6), cycle(6)))
    level0 = tree.levels[0]
    assert sorted(sorted(r.vertices) for r in level0.pieces) == [
        list(range(6)),
        list(range(6, 12)),
    ]
    assert level0.size_before == 12 and level0.size_after == 2


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize(
    "g",
    [
        cfi_build(complete(4))[0],
        disjoint_union(cycle(6), cycle(6)),
        # the triangle's twin level comes first, then the hexagons' prime one
        disjoint_union(disjoint_union(cycle(6), cycle(6)), cycle(3)),
    ],
    ids=["CFI(K4)", "2C6", "2C6+C3"],
)
def test_a_prime_level_keeps_the_seed_pairs_of_decompose(monkeypatch, g, k):
    found = []

    def spy(*args, **kwargs):
        found.append(decompose(*args, **kwargs))
        return found[-1]

    monkeypatch.setattr(cws, "decompose", spy)
    tree, _ = reduce_graph(g, k)
    primes = [lv.pieces for lv in tree.levels if lv.kind == "prime"]
    assert primes and primes == [records for records in found if records]
    assert all(r.seed_pair is not None for records in primes for r in records)
    if g.n == 40:  # CFI(K4)
        assert [r.seed_pair for r in primes[0]] == [(0, 1)]


def _shifted(g, by):
    return g.with_vertex_colors([c + by for c in g.vertex_colors])


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", ["K2+K1", "2K2", "CFI(K4) unions"])
def test_reduction_keeps_the_vertex_colors_of_its_pieces(name, k):
    # non-isomorphic pairs whose pieces look alike once their colors are
    # ranked within each piece with no record of what each rank stands for
    cfi = cfi_build(complete(4))[0]
    g, h = {
        "K2+K1": (
            disjoint_union(complete(2), complete(1)).with_vertex_colors([0, 0, 1]),
            disjoint_union(complete(2), complete(1)).with_vertex_colors([1, 1, 1]),
        ),
        "2K2": (
            disjoint_union(complete(2), complete(2)).with_vertex_colors([1, 1, 1, 1]),
            disjoint_union(complete(2), complete(2)).with_vertex_colors([1, 1, 0, 0]),
        ),
        "CFI(K4) unions": (
            disjoint_union(cfi, _shifted(cfi, 2)),
            disjoint_union(_shifted(cfi, 2), _shifted(cfi, 2)),
        ),
    }[name]
    assert reduce_graph(g, k)[1].digest != reduce_graph(h, k)[1].digest


@PROPERTY
@given(graph_pairs(directed=False), st.sampled_from((1, 2)))
def test_reduction_digests_agree_with_the_isomorphism_oracle(pair, k):
    g, h = pair
    same = reduce_graph(g, k)[1].digest == reduce_graph(h, k)[1].digest
    assert same == (iso_oracle(g, h) is not None)


def _hooked_cycle(m, hooks, colors):
    """C_m in vertex color 0 with one outside vertex per hook, in its color,
    joined to the cycle vertices the hook names."""
    edges = [(i, (i + 1) % m, 0) for i in range(m)]
    edges += [(m + j, v, 0) for j, hook in enumerate(hooks) for v in hook]
    return ColoredGraph(m + len(hooks), edges, vertex_colors=[0] * m + list(colors))


@pytest.mark.parametrize("m", [8, 10])
@pytest.mark.parametrize("k", [1, 2])
def test_reduction_keeps_where_each_class_sits_in_a_piece(m, k):
    # C_m stays one prime piece whose vertex colors are all 0; only the two
    # outside vertices, each hooked onto an antipodal pair, split it into
    # classes.  An edge joins the two hooks in g and none does in h, which a
    # piece certified in its vertex colors alone cannot tell, since the
    # attachment profiles name classes only
    half = m // 2
    g = _hooked_cycle(m, [(0, half), (1, 1 + half)], [1, 2])
    h = _hooked_cycle(m, [(0, half), (2, 2 + half)], [1, 2])
    assert reduce_graph(g, k)[1].digest != reduce_graph(h, k)[1].digest


@st.composite
def hooked_cycle_pairs(draw):
    """A cycle of 4..9 vertices with one to three colored outside vertices
    hooked onto it, each onto a rotation orbit or any proper subset, against a relabeled copy or the same cycle and outside
    colors with hooks drawn afresh."""
    m = draw(st.integers(4, 9))
    colors = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    step = st.sampled_from([d for d in range(1, m) if m % d == 0])
    orbit = st.builds(lambda s, d: {(s + j * d) % m for j in range(m // d)}, st.integers(0, m - 1), step)
    hook = st.one_of(orbit, st.sets(st.integers(0, m - 1), min_size=1, max_size=m - 1))
    g = _hooked_cycle(m, [draw(hook) for _ in colors], colors)
    if draw(st.booleans()):
        return g, random_relabel(g, seed=draw(st.integers(0, 2**16)))[0]
    return g, _hooked_cycle(m, [draw(hook) for _ in colors], colors)


@PROPERTY
@given(hooked_cycle_pairs(), st.sampled_from((1, 2)))
def test_reduction_digests_of_hooked_cycles_agree_with_the_isomorphism_oracle(pair, k):
    g, h = pair
    same = reduce_graph(g, k)[1].digest == reduce_graph(h, k)[1].digest
    assert same == (iso_oracle(g, h) is not None)


def test_reduction_levels_do_not_depend_on_how_large_an_edge_color_is():
    # K4 less an edge, all edges one color: its twin groups must be found
    # whatever that color is, even past the square root of 2^63
    def levels(color):
        edges = [(u, v, color) for u, v in combinations(range(4), 2) if (u, v) != (0, 1)]
        tree, _ = reduce_graph(ColoredGraph(4, edges), 2)
        return [(lv.kind, sorted(sorted(r.vertices) for r in lv.pieces)) for lv in tree.levels]

    assert levels(4 * 10**9) == levels(3) == [("twin", [[2, 3]]), ("twin", [[0, 1]])]


# -- interchangeability check ----------------------------------------------------------------


def test_mutually_stable_trivial():
    g = disjoint_union(cycle(6), cycle(6))
    cols = classes_of(g)
    both = [frozenset(range(6)), frozenset(range(6, 12))]
    assert mutually_stable_trivial(g, cols, both)
    assert mutually_stable_trivial(cycle(4), classes_of(cycle(4)), [{0, 2}, {1, 3}])
    # overlapping subsets are rejected outright
    assert not mutually_stable_trivial(g, cols, [frozenset(range(6)), frozenset(range(5, 11))])
    # a non-CWS member fails
    assert not mutually_stable_trivial(g, cols, [{0, 1}, {6, 7}])
    # singletons pass every check but the last: their union is not CWS
    assert not mutually_stable_trivial(g, cols, [{0}, {3}])
    # class ids are any integers, as every other coloring argument takes
    assert mutually_stable_trivial(cycle(4), [-1] * 4, [{0, 2}, {1, 3}])


def test_mutually_stable_trivial_catches_unequal_attachments():
    # pin one hexagon so the two components stop being interchangeable
    g = disjoint_union(cycle(6), cycle(6)).with_vertex_colors([1] + [0] * 11)
    cols = g.vertex_colors
    assert not mutually_stable_trivial(
        g, cols, [frozenset(range(6)), frozenset(range(6, 12))]
    )


# -- agreement with the exhaustive oracle ------------------------------------------------------


def test_reduction_terminal_respects_orbits():
    # classes produced along the way never split true orbits
    for seed in range(4):
        g = random_graph(8, 0.5, seed=seed)
        cols = classes_of(g)
        for orb in orbits_oracle(g):
            assert len({int(cols[v]) for v in orb}) == 1
