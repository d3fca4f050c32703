from __future__ import annotations

import dataclasses
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wlkit.refine as refine_module
from conftest import colored_graphs, same_partition, traced_peak
from wlkit import kernels
from wlkit.errors import ResourceLimitError, UnsupportedGraphError
from wlkit.families import (
    complete,
    cycle,
    path,
    petersen,
    random_graph,
    rook_4x4,
    shrikhande,
)
from wlkit.graph import ColoredGraph, disjoint_union, random_relabel
from wlkit.limits import DEFAULT_LIMITS, limits_from_env
from wlkit.refine import (
    count_paths,
    invariant_bytes,
    iso_type,
    lift,
    project,
    refine_1,
    refine_2,
    refine_k,
    similar_k,
    stable_vertex_names,
    vertex_classes,
)


# -- frozen small-graph values ------------------------------------------------


def test_cycle6_class_counts():
    assert refine_1(cycle(6)).num_colors == 1
    tc = refine_2(cycle(6))
    # diagonal, adjacent, distance-2, distance-3
    assert tc.num_colors == 4
    assert tc.rounds == 1


def test_path3_projection_matches_direct_refinement():
    g = path(3)
    pr = project(refine_2(g), 1)
    r1 = refine_1(g)
    # ids are rank-dependent; the partitions must agree up to a bijection
    assert same_partition(pr.colors, r1.colors)


def test_petersen_two_dim_gives_three_pair_classes():
    assert refine_2(petersen()).num_colors == 3


def test_vertex_colors_feed_the_initial_coloring():
    g = ColoredGraph(4, [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)],
                     vertex_colors=[1, 0, 0, 0])
    vc = vertex_classes(refine_1(g))
    assert vc[0] != vc[1]
    assert vc[1] == vc[3]
    assert vc[1] != vc[2]


def test_edge_colors_feed_the_initial_coloring():
    plain = cycle(4)
    marked = ColoredGraph(4, [(0, 1, 1), (1, 2, 0), (2, 3, 0), (3, 0, 0)])
    assert refine_1(plain).num_colors == 1
    assert refine_1(marked).num_colors > 1


def test_iso_type_components():
    g = ColoredGraph(3, [(0, 1, 4)], vertex_colors=[2, 2, 0])
    t_same = iso_type(g, (0, 0))
    t_edge = iso_type(g, (0, 1))
    t_non = iso_type(g, (0, 2))
    assert len({t_same, t_edge, t_non}) == 3


# -- structural properties on seeded random graphs ----------------------------


def test_projection_is_stable_under_rerefinement():
    for seed in range(8):
        g = random_graph(8, 0.5, seed=seed)
        tc = refine_2(g)
        vc = vertex_classes(tc)
        again = refine_2(g.with_vertex_colors(vc.tolist()))
        assert same_partition(tc.colors, again.colors)


def test_refinement_never_coarsens_with_k():
    for seed in range(6):
        g = random_graph(7, 0.5, seed=seed)
        c1 = vertex_classes(refine_1(g))
        c2 = vertex_classes(refine_2(g))
        c3 = vertex_classes(refine_k(g, 3))
        # every class of the higher dimension sits inside one lower class
        for lo, hi in ((c1, c2), (c2, c3)):
            pairs = {(int(a), int(b)) for a, b in zip(hi, lo)}
            assert len(pairs) == len({a for a, _ in pairs})


def test_relabeling_preserves_the_invariant():
    for seed in range(6):
        g = random_graph(9, 0.4, seed=seed)
        h, _ = random_relabel(g, seed=seed + 50)
        for k in (1, 2):
            assert invariant_bytes(refine_k(g, k)) == invariant_bytes(refine_k(h, k))
            assert similar_k(g, h, k)


def test_history_is_monotone():
    tc = refine_k(random_graph(9, 0.5, seed=3), 2)
    counts = list(tc.class_counts)
    assert counts == sorted(counts)
    assert counts[-1] == tc.num_colors
    assert len(counts) == tc.rounds + 1


# -- refinement seeded from a parent's stable coloring -------------------------


@st.composite
def individualization_runs(draw, max_n: int = 7):
    """A small colored graph, k in {1, 2}, and a sequence of vertices to
    individualize one after another."""
    g, cols = draw(colored_graphs(max_n=max_n))
    k = draw(st.sampled_from((1, 2)))
    seq = draw(st.lists(st.integers(0, max(g.n - 1, 0)), max_size=3)) if g.n else []
    return g, cols, k, seq


def individualized(colors: np.ndarray, v: int) -> np.ndarray:
    out = colors.copy()
    out[v] = int(colors.max()) + 1
    return out


@settings(max_examples=150, deadline=None)
@given(individualization_runs())
def test_seeded_refinement_matches_refinement_from_scratch(case):
    g, cols, k, seq = case
    tc = refine_k(g, k, vertex_colors=cols)
    # passing vertex colors is exactly refining the recolored graph
    rebuilt = refine_k(g.with_vertex_colors(cols.tolist()), k)
    assert np.array_equal(tc.colors, rebuilt.colors)
    colors = cols
    for v in seq:
        colors = individualized(colors, v)
        seeded = refine_k(g, k, vertex_colors=colors, start=tc.colors)
        scratch = refine_k(g, k, vertex_colors=colors)
        assert same_partition(seeded.colors, scratch.colors)
        assert seeded.num_colors == scratch.num_colors
        tc = seeded


def test_seeding_saves_rounds_on_a_cycle():
    g = cycle(12)
    root = refine_2(g)
    colors = individualized(np.zeros(12, dtype=np.int64), 0)
    seeded = refine_2(g, vertex_colors=colors, start=root.colors)
    scratch = refine_2(g, vertex_colors=colors)
    assert same_partition(seeded.colors, scratch.colors)
    assert seeded.rounds < scratch.rounds


def test_bad_vertex_colors_are_rejected_without_a_rebuild():
    g = cycle(4)
    for bad in ([0, 0, 0], [0, 0, 0, 0, 0], [0, -1, 0, 0], [[0, 0], [0, 0]]):
        for k in (1, 2):
            with pytest.raises(UnsupportedGraphError):
                refine_k(g, k, vertex_colors=bad)
            with pytest.raises(UnsupportedGraphError):
                refine_k(g, k, vertex_colors=bad, start=refine_k(g, k).colors)


def test_start_must_cover_every_tuple():
    g = cycle(4)
    with pytest.raises(ValueError):
        refine_2(g, start=refine_1(g).colors)


# -- strongly regular pair -----------------------------------------------------


def test_srg_pair_two_dim_blind_three_dim_sharp():
    a, b = shrikhande(), rook_4x4()
    assert similar_k(a, b, 2)
    assert not similar_k(a, b, 3)


# -- lifting -------------------------------------------------------------------


def test_lift_separates_adjacent_from_antipodal_in_c4():
    g = cycle(4)
    tc = refine_1(g)
    lf = lift(g, tc, 2)
    assert lf.keys[(0, 1)] == lf.keys[(1, 2)]
    assert lf.keys[(0, 2)] == lf.keys[(1, 3)]
    assert lf.keys[(0, 1)] != lf.keys[(0, 2)]


def test_lift_respects_explicit_tuples_and_validates_t():
    g = cycle(4)
    tc = refine_1(g)
    lf = lift(g, tc, 3, tuples=[(0, 1, 2), (1, 2, 3)])
    assert lf.keys[(0, 1, 2)] == lf.keys[(1, 2, 3)]
    with pytest.raises(ValueError):
        lift(g, tc, 1)
    with pytest.raises(ResourceLimitError):
        lift(random_graph(8, 0.5, seed=0), refine_1(random_graph(8, 0.5, seed=0)), 7)


def test_lift_enumeration_is_capped_by_lift_tuples(monkeypatch):
    g = cycle(4)
    tc = refine_1(g)
    assert len(lift(g, tc, 3).keys) == 64
    tight = dataclasses.replace(DEFAULT_LIMITS, lift_tuples=63)
    with pytest.raises(ResourceLimitError, match="lift_tuples") as err:
        lift(g, tc, 3, limits=tight)
    assert (err.value.required, err.value.cap) == (64, 63)
    assert DEFAULT_LIMITS.lift_tuples == 200_000
    monkeypatch.setenv("WLKIT_LIFT_TUPLES", "63")
    assert limits_from_env().lift_tuples == 63


# -- path counting ---------------------------------------------------------------


def test_count_paths():
    assert count_paths(cycle(6), 0, 3, 3) == {(0, 0, 0, 0): 2}
    assert count_paths(complete(4), 0, 1, 2) == {(0, 0, 0): 2}
    assert count_paths(cycle(6), 0, 3, 2) == {}
    by_class = count_paths(cycle(6), 0, 3, 3,
                           coloring=vertex_classes(refine_1(cycle(6))))
    assert sum(by_class.values()) == 2


def test_equal_pair_colors_imply_equal_path_counts():
    for seed in range(5):
        g = random_graph(7, 0.5, seed=seed)
        pr = project(refine_2(g), 2)
        colors = pr.colors.reshape(g.n, g.n)
        buckets: dict[int, dict] = {}
        for u in range(g.n):
            for v in range(g.n):
                if u == v:
                    continue
                counts = count_paths(g, u, v, 3)
                c = int(colors[u, v])
                if c in buckets:
                    assert buckets[c] == counts
                else:
                    buckets[c] = counts


# -- resource limits --------------------------------------------------------------


def test_memory_budget_is_enforced_before_allocation():
    with pytest.raises(ResourceLimitError):
        refine_k(random_graph(50, 0.5, seed=1), 4)
    tight = dataclasses.replace(DEFAULT_LIMITS, memory_bytes=1024)
    with pytest.raises(ResourceLimitError):
        refine_2(petersen(), limits=tight)


def test_stable_names_memory_grows_linearly():
    # path(n) takes about n/2 rounds with n/2 classes each, so anything kept
    # per round grows as n^2
    stable_vertex_names(path(8))  # first-call allocations are not the run's
    peaks = []
    for n in (300, 600):
        g = path(n)
        g.neighbor_codes()  # the graph's cached edge list is not the names'
        peaks.append(traced_peak(lambda: stable_vertex_names(g))[1])
    assert peaks[1] <= 2.5 * peaks[0]


def test_rejects_bad_k():
    with pytest.raises(ValueError):
        refine_k(cycle(4), 0)


def test_tuple_lookups_check_their_tuples():
    tc = refine_k(cycle(5), 3)
    pc = project(tc, 2)
    assert tc.color_of((1, 2, 3)) == tc.colors[1 * 25 + 2 * 5 + 3]
    assert pc.color_of((4, 0)) == pc.colors[4 * 5 + 0]
    for lookup, k in ((tc.color_of, 3), (pc.color_of, 2)):
        with pytest.raises(ValueError, match=f"expected a {k}-tuple"):
            lookup((0,) * (k + 1))
        with pytest.raises(ValueError, match="vertex out of range"):
            lookup((0,) * (k - 1) + (5,))


# -- export ------------------------------------------------------------------------


def test_export_text_lists_every_tuple():
    tc = refine_2(cycle(6))
    lines = tc.export_text().strip().splitlines()
    assert len(lines) == 36
    assert all(ln.startswith("t ") and len(ln.split()) == 4 for ln in lines)
    assert len({ln.split()[3] for ln in lines}) == 4


# -- the round loop against a lexicographic reference ------------------------------


def reference_refine(g, k, vertex_colors=None, start=None):
    """Rank every tuple's (color, sorted substitution vectors) each round,
    lexicographically, until a round splits nothing; returns the colors,
    the number of splitting rounds and the class count after each round."""
    n = g.n
    vc = np.asarray(
        g.vertex_colors if vertex_colors is None else vertex_colors, dtype=np.int64
    )
    colors = kernels.dense_rank_rows(refine_module._initial_rows(g, k, vc, start)).tolist()
    tuples = list(itertools.product(range(n), repeat=k))  # in rank order
    rank = {t: i for i, t in enumerate(tuples)}
    counts = [max(colors) + 1]
    rounds = 0
    while True:
        sigs = [
            (colors[rank[t]], tuple(sorted(
                tuple(colors[rank[t[:j] + (x,) + t[j + 1:]]] for j in range(k - 1, -1, -1))
                for x in range(n)
            )))
            for t in tuples
        ]
        index = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        ids = [index[sig] for sig in sigs]
        if ids == colors:
            return np.asarray(colors), rounds, counts
        colors = ids
        rounds += 1
        counts.append(len(index))


@st.composite
def recolorings(draw):
    """Up to three recolorings, each applied on top of the previous stable
    coloring: one vertex individualized (the first round then comes from
    that vertex alone), or, for the fallback to full rounds, two vertices
    individualized at once or one vertex recolored below the rest of its
    class."""
    steps = st.tuples(
        st.sampled_from(("one", "one", "two", "below")),
        st.integers(0, 5), st.integers(0, 5),
    )
    return draw(st.lists(steps, min_size=1, max_size=3))


def recolored(colors: np.ndarray, kind: str, v: int, w: int) -> np.ndarray:
    if kind == "one":
        return individualized(colors, v)
    if kind == "two":
        return individualized(individualized(colors, v), w)
    out = colors + 1
    out[v] = 0
    return out


@st.composite
def reference_graphs(draw):
    """A colored graph, or a smaller one beside a relabeled copy of itself
    (its vertex classes are never all singletons, so recolorings split
    them)."""
    if draw(st.booleans()):
        return draw(colored_graphs(max_n=6))
    g, cols = draw(colored_graphs(max_n=3))
    g = g.with_vertex_colors(cols.tolist())
    u = disjoint_union(g, g.relabel(draw(st.permutations(range(g.n)))))
    return u, np.asarray(u.vertex_colors, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(reference_graphs(), st.sampled_from((2, 3)), recolorings())
def test_refinement_matches_the_lexicographic_reference(case, k, steps):
    g, cols = case
    if g.n == 0:
        return
    start = None
    for kind, v, w in [(None, 0, 0)] + steps:
        if kind is not None:
            # recolor vertices that share a class where there are any
            vcls = vertex_classes(tc)
            pool = np.flatnonzero(np.bincount(vcls)[vcls] >= 2)
            pool = pool if pool.shape[0] else np.arange(g.n)
            cols = recolored(cols, kind, int(pool[v % pool.shape[0]]), int(pool[w % pool.shape[0]]))
        ranked = []

        def spy(rows):
            ranked.append(rows.shape[0])
            return kernels.dense_rank_rows(rows)

        with mock.patch.object(refine_module, "dense_rank_rows", spy):
            tc = refine_k(g, k, vertex_colors=cols, start=start)
        colors, rounds, counts = reference_refine(g, k, cols, start)
        # ids, not only the partition: every splitting round is ranked
        # lexicographically, previous color first
        assert np.array_equal(tc.colors, colors)
        assert tc.rounds == rounds
        assert tc.class_counts == counts
        # the initial coloring and each splitting round are ranked; the round
        # that finds nothing to split is not
        assert len(ranked) == 1 + rounds
        start = tc.colors


def test_an_individualized_child_takes_its_first_round_from_the_vertex(cfi_k4):
    g = cfi_k4[0]
    root = refine_2(g)
    base = np.asarray(g.vertex_colors, dtype=np.int64)
    v = int(np.flatnonzero(vertex_classes(root) == 0)[0])
    calls = []

    def rows_spy(colors, *args):
        calls.append(int(colors.max()) + 1)
        return kernels.round_rows(colors, *args)

    with mock.patch.object(refine_module, "round_rows", rows_spy):
        child = refine_2(g, vertex_colors=individualized(base, v), start=root.colors)
    # round 1 came from v alone; every later round, and the stop check,
    # built full rows from the classes round 1 left
    assert child.rounds >= 2
    assert calls == child.class_counts[1:]


@settings(max_examples=60, deadline=None)
@given(colored_graphs(max_n=5), st.sampled_from((1, 2, 3)), st.booleans())
def test_initial_rows_are_the_iso_types(case, k, seeded):
    g, cols = case
    recolored = g.with_vertex_colors(cols.tolist())
    tuples = list(itertools.product(range(g.n), repeat=k))
    if seeded:
        start = np.arange(len(tuples), dtype=np.int64)[::-1] % 4
        want = [[int(start[i])] + [int(cols[v]) for v in t] for i, t in enumerate(tuples)]
    else:
        start = None
        want = [[x for part in iso_type(recolored, t) for x in part] for t in tuples]
    rows = refine_module._initial_rows(g, k, cols, start)
    assert rows.tolist() == want


def reference_round_rows(colors, n, k, ncolors):
    """`round_rows` through explicit gather indices: mat[T, x] is the rank
    of tuple T with position j set to x, and position j is weighted base^j."""
    idx = np.arange(n**k, dtype=np.int64)
    xs = np.arange(n, dtype=np.int64)
    base = max(2, ncolors)
    codes = np.zeros((n**k, n), dtype=np.int64)
    for j in range(k - 1, -1, -1):
        stride = n ** (k - 1 - j)
        digit = (idx // stride) % n
        mat = (idx - digit * stride)[:, None] + xs[None, :] * stride
        codes = codes * base + colors[mat]
    codes.sort(axis=1)
    return np.column_stack([colors, codes])


def test_round_rows_match_the_gather_form():
    # the grid views must read the same substitutions as the gathers, on
    # both code schemes; k = 4 has no other reference
    rng = np.random.default_rng(5)
    for k, sizes in ((2, range(1, 8)), (3, range(1, 6)), (4, range(1, 5))):
        for n in sizes:
            colors = rng.integers(0, 50, size=n**k)
            want = reference_round_rows(colors, n, k, 50)
            assert np.array_equal(kernels.round_rows(colors, n, k, 50), want)
            with mock.patch.object(kernels, "_PACK_LIMIT", 1):
                table = kernels.round_rows(colors, n, k, 50)
            # table codes are the dense ranks of the packed ones
            assert np.array_equal(table[:, 0], colors)
            codes = want[:, 1:]
            assert np.array_equal(table[:, 1:], np.searchsorted(np.unique(codes), codes))


def test_refinement_keeps_nothing_after_it_returns():
    # no round's arrays, and no index arrays, outlive the call; a round's
    # peak stays within the estimate the memory budget is checked against
    for n, k in ((40, 2), (80, 2), (20, 3), (30, 3)):
        g = random_graph(n, 0.5, seed=1)
        g.pair_codes()  # the graph's own cache is not the refinement's
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            refine_k(g, k)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held - base < 2**20, (n, k)
        assert peak - base <= refine_module._estimate_bytes(n, k), (n, k)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rows_agree_within_classes_matches_a_row_by_row_compare(data):
    m = data.draw(st.integers(1, 12))
    w = data.draw(st.integers(1, 6))
    ncolors = data.draw(st.integers(1, m))
    colors = np.array(data.draw(st.lists(st.integers(0, ncolors - 1), min_size=m, max_size=m)))
    # each class starts from one shared row; a few cells then change, most
    # of them in the last column
    shared = np.array(data.draw(st.lists(
        st.lists(st.integers(0, 3), min_size=w, max_size=w),
        min_size=ncolors, max_size=ncolors,
    )))
    rows = shared[colors]
    changes = data.draw(st.lists(st.tuples(
        st.integers(0, m - 1),
        st.one_of(st.just(w - 1), st.integers(0, w - 1)),
        st.integers(1, 2),
    ), max_size=3))
    for i, j, step in changes:
        rows[i, j] += step
    first: dict[int, int] = {}
    want = all(
        rows[i].tolist() == rows[first.setdefault(int(c), i)].tolist()
        for i, c in enumerate(colors)
    )
    assert kernels.rows_agree_within_classes(rows, colors, ncolors) == want


def test_rows_agree_within_classes():
    rows = np.array([[0, 1, 2], [0, 1, 2], [1, 5, 5], [1, 5, 6]])
    assert kernels.rows_agree_within_classes(rows[:3], np.array([0, 0, 1]), 2)
    # rows 2 and 3 differ in their last column only, rows 0 and 2 in the middle
    assert not kernels.rows_agree_within_classes(rows, np.array([0, 0, 1, 1]), 2)
    assert not kernels.rows_agree_within_classes(rows[[0, 2]], np.array([0, 0]), 1)
    # classes are compared with their first tuple, wherever it sits
    assert kernels.rows_agree_within_classes(
        rows[[2, 0, 2, 1]], np.array([1, 0, 1, 0]), 2
    )


# -- the sparse k = 1 round against the dense one ----------------------------------


def dense_round_k1(g, colors):
    """The n x (2n+1) row of each vertex: its color, the sorted codes
    c_x*pb^2 + p_vx*pb + p_xv of its neighbors x, then the sorted colors of
    its non-neighbors, each half padded with the sentinel."""
    n = g.n
    p = g.pair_codes()
    pb = int(p.max()) + 1
    sentinel = refine_module._SENTINEL
    mask = (p > 0) | (p.T > 0)
    np.fill_diagonal(mask, False)
    nbr = (colors[None, :] * pb + p) * pb + p.T
    nbr = np.where(mask, nbr, sentinel)
    non = np.broadcast_to(colors[None, :], (n, n)).copy()
    non[mask] = sentinel
    np.fill_diagonal(non, sentinel)
    nbr.sort(axis=1)
    non.sort(axis=1)
    rows = np.empty((n, 1 + 2 * n), dtype=np.int64)
    rows[:, 0] = colors
    rows[:, 1 : 1 + n] = nbr
    rows[:, 1 + n :] = non
    return rows, pb


def decode_dense_k1(row, n, pb):
    sentinel = refine_module._SENTINEL
    nbr = []
    for code in row[1 : 1 + n].tolist():
        if code < sentinel:
            code, pvu = divmod(code, pb)
            pc, puv = divmod(code, pb)
            nbr.append((pc, puv, pvu))
    non = tuple(c for c in row[1 + n :].tolist() if c < sentinel)
    return ("k1", int(row[0]), tuple(nbr), non)


def reference_refine_k1(g, vertex_colors, start=None):
    """k = 1 refinement ranking the dense rows until a round splits nothing;
    returns the colors, the class count after each round and, for every
    splitting round, the decoded structure of each color id."""
    colors = kernels.dense_rank_rows(
        refine_module._initial_rows(g, 1, vertex_colors, start)
    )
    counts = [int(colors.max()) + 1]
    decoded = []
    while True:
        rows, pb = dense_round_k1(g, colors)
        ids = kernels.dense_rank_rows(rows)
        if np.array_equal(ids, colors):
            return colors, counts, decoded
        uniq = rows[np.unique(ids, return_index=True)[1]]
        decoded.append([decode_dense_k1(row, g.n, pb) for row in uniq])
        colors = ids
        counts.append(int(colors.max()) + 1)


@settings(max_examples=200, deadline=None)
@given(colored_graphs(), st.integers(0, 7), st.booleans())
def test_sparse_one_dim_rounds_match_the_dense_reference(case, v, seeded):
    g, cols = case
    if g.n == 0:
        return
    start = None
    if seeded:
        start = refine_1(g, vertex_colors=cols).colors
        cols = individualized(cols, v % g.n)
    tc = refine_1(g, vertex_colors=cols, start=start)
    colors, counts, decoded = reference_refine_k1(g, cols, start)
    # the same ids, not only the same partition
    assert np.array_equal(tc.colors, colors)
    assert tc.rounds == len(decoded)
    assert tc.class_counts == counts


# -- overflow-safe round kernel ----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(colored_graphs(max_n=6), st.sampled_from((2, 3)), st.integers(0, 5))
def test_table_rounds_match_packed_rounds(case, k, v):
    g, cols = case
    if g.n == 0:
        return
    v %= g.n
    packed = refine_k(g, k, vertex_colors=cols)
    child = individualized(cols, v)
    packed_child = refine_k(g, k, vertex_colors=child, start=packed.colors)
    rounds, widths = [], []

    def rows_spy(*args):
        rounds.append(args)
        return kernels.round_rows(*args)

    def rank_spy(rows):
        widths.append(rows.shape[1])
        return real_rank(rows)

    # a pack limit of 1 fits no code, so every round ranks substitution
    # vectors, k columns wide (only round_rows' table branch calls the
    # kernels module's own dense_rank_rows)
    real_rank = kernels.dense_rank_rows
    with mock.patch.object(kernels, "_PACK_LIMIT", 1), \
            mock.patch.object(refine_module, "round_rows", rows_spy), \
            mock.patch.object(kernels, "dense_rank_rows", rank_spy):
        table = refine_k(g, k, vertex_colors=cols)
        table_child = refine_k(g, k, vertex_colors=child, start=table.colors)
    # every round that runs ranks k-wide vectors; a coloring discrete from
    # the start is stable without a round
    assert widths == [k] * len(rounds)
    initial = kernels.dense_rank_rows(refine_module._initial_rows(g, k, cols))
    assert bool(rounds) != (int(initial.max()) + 1 == g.n**k)
    # table codes are lexicographic ranks, order-isomorphic to packed ones,
    # so the ids (not only the partitions) agree
    assert np.array_equal(packed.colors, table.colors)
    assert np.array_equal(packed_child.colors, table_child.colors)


# -- stable structure names ------------------------------------------------------------


def test_stable_names_are_label_independent():
    g = petersen()
    h, perm = random_relabel(g, seed=9)
    names_g = stable_vertex_names(g)
    names_h = stable_vertex_names(h)
    assert sorted(names_g) == sorted(names_h)
    assert [names_h[perm[v]] for v in range(g.n)] == list(names_g)


def test_stable_names_follow_the_one_dim_partition():
    g = disjoint_union(cycle(3), cycle(4))
    names = stable_vertex_names(g)
    # one-dim refinement cannot split two regular components of equal degree
    assert len(set(names)) == 1


def reference_names(g, vertex_colors):
    """Names as they were built from decode records: a vertex color's name
    is the digest of its value; a round's name is the digest of the previous
    name, the sorted neighbor parts and the sorted names of all
    non-neighbors, from the dense reference's decoded rows."""
    if g.n == 0:
        return []
    hash_ = refine_module._hash
    colors, _, decoded = reference_refine_k1(g, vertex_colors)
    values = np.unique(vertex_colors).tolist()
    names = [hash_(b"v", v.to_bytes(8, "big")) for v in values]
    for rows in decoded:
        prev = names
        names = [
            hash_(
                b"r", prev[pc0],
                b"N", *sorted(
                    prev[pc] + puv.to_bytes(8, "big") + pvu.to_bytes(8, "big")
                    for pc, puv, pvu in nbr
                ),
                b"E", *sorted(prev[pc] for pc in non),
            )
            for _, pc0, nbr, non in rows
        ]
    return [names[c] for c in colors.tolist()]


def name_ids(names) -> list[int]:
    index: dict[bytes, int] = {}
    return [index.setdefault(nm, len(index)) for nm in names]


@st.composite
def graph_pairs(draw):
    """Two colored graphs (colors folded in): independent ones, a graph and
    a relabeling of it, or two uncolored undirected graphs of one size."""
    kind = draw(st.sampled_from(["independent", "relabeled", "same size"]))
    if kind == "same size":
        n = draw(st.integers(1, 7))
        pairs = list(itertools.combinations(range(n), 2))
        out = []
        for _ in range(2):
            keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
            out.append(ColoredGraph(n, [(u, v, 0) for (u, v), b in zip(pairs, keep) if b]))
        return tuple(out)
    g, cols = draw(colored_graphs())
    g = g.with_vertex_colors(cols.tolist())
    if kind == "relabeled":
        return g, g.relabel(draw(st.permutations(range(g.n))))
    h, hcols = draw(colored_graphs())
    return g, h.with_vertex_colors(hcols.tolist())


@settings(max_examples=200, deadline=None)
@given(graph_pairs())
def test_stable_names_match_the_record_based_reference(pair):
    g, h = pair
    names = [stable_vertex_names(x) for x in (g, h)]
    refs = [reference_names(x, np.asarray(x.vertex_colors, dtype=np.int64)) for x in (g, h)]
    for x, got in zip((g, h), names):
        assert same_partition(name_ids(got), refine_1(x).colors)
    # the same cross-graph verdicts as the names that hashed non-neighbors
    assert (sorted(names[0]) == sorted(names[1])) == (sorted(refs[0]) == sorted(refs[1]))


def dense_rank_cases(rng):
    """Random rows, wide duplicate-heavy rows, and rows of one to three
    columns whose column bit lengths sum to 62 (they pack into one key) or
    63 (they take the byte path)."""
    for trial in range(400):
        hi = (2, 7, 2**40)[trial % 3]
        if trial < 300:
            m, w = int(rng.integers(1, 40)), int(rng.integers(1, 5))
            rows = rng.integers(0, hi, size=(m, w))
        else:
            # wide and duplicate-heavy: a few distinct rows, some differing
            # only in their last column, each repeated many times
            m, w = int(rng.integers(1, 200)), int(rng.integers(100, 170))
            distinct = rng.integers(0, hi, size=(int(rng.integers(1, 6)), w))
            distinct = np.vstack([distinct, distinct])
            distinct[distinct.shape[0] // 2 :, -1] += 1
            rows = distinct[rng.integers(0, distinct.shape[0], size=m)]
        yield trial, rows
    boundary = ((62,), (63,), (31, 31), (31, 32), (20, 21, 21), (21, 21, 21), (1, 60, 1), (2, 60, 1))
    for trial in range(160):
        bits = boundary[trial % len(boundary)]
        m, d = int(rng.integers(1, 60)), int(rng.integers(1, 8))
        distinct = np.column_stack(
            [rng.integers(0, (1 << b) - 1, size=d, endpoint=True) for b in bits]
        )
        rows = distinct[rng.integers(0, d, size=m)]
        rows[int(rng.integers(0, m))] = [(1 << b) - 1 for b in bits]  # each column's top
        assert (kernels._key_bits(rows) is None) == (sum(bits) > 62)
        yield trial, rows


def test_dense_rank_rows_matches_np_unique():
    # reference: np.unique on the big-endian byte view of each row
    for trial, rows in dense_rank_cases(np.random.default_rng(7)):
        if trial % 2:
            rows = rows[:, ::-1]  # a non-contiguous view
        view = np.ascontiguousarray(rows).astype(">i8").view(f"V{8 * rows.shape[1]}").ravel()
        _, inverse = np.unique(view, return_inverse=True)
        ids = kernels.dense_rank_rows(rows)
        assert ids.dtype == np.int64
        assert np.array_equal(ids, inverse.reshape(-1))
