from __future__ import annotations

import ast
import contextlib
import dataclasses
import itertools
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wlkit
import wlkit.canon as canon_module
import wlkit.coherent as coherent_module
import wlkit.refine as refine_module
from conftest import (
    colored_graphs,
    constant_salts,
    crown_graph,
    doubled_graph,
    full_rounds,
    hashed_rounds,
    same_partition,
    traced_peak,
    twin_pair_graph,
    two_valued_salts,
)
from wlkit import kernels
from wlkit.coherent import cellular_closure, klein_merge_groups, klein_scheme, merge_relations
from wlkit.cws import reduce_graph
from wlkit.errors import ResourceLimitError, UnsupportedGraphError
from wlkit.families import (
    complete,
    cycle,
    generalized_petersen,
    path,
    petersen,
    random_graph,
    rook_4x4,
    shrikhande,
)
from wlkit.graph import ColoredGraph, disjoint_union, min_separator_size, random_relabel
from wlkit.limits import DEFAULT_LIMITS, Limits, limits_from_env
from wlkit.oracle import aut_order_oracle, iso_oracle
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
    """A small colored graph, k in {1, 2, 3}, and a sequence of vertices to
    individualize one after another (a vertex may come again)."""
    g, cols = draw(colored_graphs(max_n=max_n))
    k = draw(st.sampled_from((1, 2, 3)))
    seq = draw(st.lists(st.sampled_from(range(g.n)), max_size=4)) if g.n else []
    return g, cols, k, seq


def individualized(colors: np.ndarray, v: int) -> np.ndarray:
    out = colors.copy()
    out[v] = int(colors.max()) + 1
    return out


def seeded_rows(start, vc, n: int, k: int) -> np.ndarray:
    """Rows ``[start | vc at each position]`` of all n^k tuples in rank
    order: the seeded coloring of a child whose vertex colors are `vc`."""
    tuples = itertools.product(range(n), repeat=k)
    rows = [[int(start[i])] + [int(vc[x]) for x in t] for i, t in enumerate(tuples)]
    return np.asarray(rows, dtype=np.int64).reshape(n**k, k + 1)


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
        # a chain of children, each individualizing v on top of the last
        colors = individualized(colors, v)
        seeded = refine_k(g, k, parent=(tc, v))
        scratch = refine_k(g, k, vertex_colors=colors)
        assert same_partition(seeded.colors, scratch.colors)
        assert seeded.num_colors == scratch.num_colors
        tc = seeded


@pytest.mark.parametrize("k", (1, 2, 3))
def test_a_child_of_a_singleton_vertex_keeps_its_parents_partition(k):
    # the middle vertex of a path is alone in its class, so individualizing
    # it splits nothing, however often
    g = path(5)
    tc = refine_k(g, k)
    for _ in range(2):
        child = refine_k(g, k, parent=(tc, 2))
        assert same_partition(child.colors, tc.colors)
        assert (child.num_colors, child.rounds) == (tc.num_colors, 0)
        tc = child


@settings(max_examples=150, deadline=None)
@given(colored_graphs(min_n=1), st.sampled_from((1, 2, 3)), st.data())
def test_a_search_node_is_refine_k_from_the_same_parent(case, k, data):
    # a node's round loop skips only the exact k = 2 round: at k = 1 and
    # k = 3 its growth loop ends stable and the node is refine_k's coloring
    # byte for byte, down a chain of children; at k = 2 it is refine_k's
    # partition (its ids are hash ranks, and no hash collides here)
    g, cols = case
    g = g.with_vertex_colors(cols.tolist())
    seq = data.draw(st.lists(st.sampled_from(range(g.n)), min_size=2, max_size=3))
    node, want = refine_module.refine_node(g, k), refine_k(g, k)
    for v in [None] + seq:
        if v is not None:
            node, want = refine_module.refine_node(g, k, (node, v)), refine_k(g, k, parent=(want, v))
        if k == 2:
            assert same_partition(node.colors, want.colors)
        else:
            assert node.colors.tobytes() == want.colors.tobytes()
            assert (node.rounds, node.class_counts) == (want.rounds, want.class_counts)


def test_seeding_saves_rounds_on_a_cycle():
    g = cycle(12)
    root = refine_2(g)
    colors = individualized(np.zeros(12, dtype=np.int64), 0)
    seeded = refine_2(g, parent=(root, 0))
    scratch = refine_2(g, vertex_colors=colors)
    assert same_partition(seeded.colors, scratch.colors)
    assert seeded.rounds < scratch.rounds


def test_bad_vertex_colors_are_rejected_without_a_rebuild():
    g = cycle(4)
    for bad in ([0, 0, 0], [0, 0, 0, 0, 0], [0, -1, 0, 0], [[0, 0], [0, 0]]):
        for k in (1, 2):
            with pytest.raises(UnsupportedGraphError):
                refine_k(g, k, vertex_colors=bad)


def test_vertex_colors_and_a_parent_are_not_both_taken():
    g = cycle(4)
    for k in (1, 2):
        with pytest.raises(ValueError, match="not both"):
            refine_k(g, k, vertex_colors=[0, 0, 0, 0], parent=(refine_k(g, k), 0))


def test_parent_must_cover_every_tuple():
    g = cycle(4)
    for parent in ((refine_1(g), 0), (refine_2(cycle(5)), 0)):
        with pytest.raises(ValueError, match="parent"):
            refine_2(g, parent=parent)


def test_a_malformed_parent_is_refused_before_any_allocation():
    # a negative id, an id past n^k and a float id would each reach numpy:
    # negative dimensions, a petabyte allocation or a float index; so would
    # a vertex past n or a negative one
    g = petersen()
    root = refine_2(g)
    bad_parents = [
        (dataclasses.replace(root, colors=colors), 0)
        for colors in (root.colors - 5, root.colors * 10**15, root.colors.astype(float))
    ]
    bad_parents += [(root, g.n), (root, -1), (root, 0.5)]
    for parent in bad_parents:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="parent"):
                refine_2(g, parent=parent)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16
    assert refine_2(g, parent=(root, 0)).num_colors > root.num_colors


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


def test_a_non_integer_limit_override_names_its_variable(monkeypatch):
    monkeypatch.setenv("WLKIT_CANON_NODES", "x")
    with pytest.raises(ValueError, match="WLKIT_CANON_NODES must be an integer, got 'x'"):
        limits_from_env()


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


@pytest.mark.parametrize("color, refused", [(2**30 - 3, False), (2**30 - 2, True)])
def test_one_dim_rounds_refuse_edge_colors_past_their_int64_packing(color, refused):
    # a 4-vertex path whose end edge has the largest pair code, color + 1:
    # n * (color + 2)^2 is just below 2^62, then at it
    g = ColoredGraph(4, [(0, 1, color), (1, 2, 0), (2, 3, 0)])
    assert (4 * (color + 2) ** 2 >= 2**62) == refused
    if refused:
        with pytest.raises(UnsupportedGraphError, match=r"\(largest pair code \+ 1\)\^2 < 2\^62"):
            refine_k(g, 1)
    else:
        small = ColoredGraph(4, [(0, 1, 1), (1, 2, 0), (2, 3, 0)])
        assert np.array_equal(refine_k(g, 1).colors, refine_k(small, 1).colors)


# each budget error of `Limits`: the field, a cap it passes, and a call
# that passes it
BUDGETS = {
    "memory_bytes": (1024, lambda lim: refine_2(petersen(), limits=lim)),
    "canon_nodes": (1, lambda lim: canon_module.certify(petersen(), 2, "canonical", limits=lim)),
    "oracle_vertices": (4, lambda lim: aut_order_oracle(cycle(5), limits=lim)),
    "oracle_nodes": (1, lambda lim: aut_order_oracle(cycle(5), limits=lim)),
    "iso_vertices": (4, lambda lim: iso_oracle(cycle(5), cycle(5), limits=lim)),
    "iso_nodes": (1, lambda lim: iso_oracle(cycle(6), cycle(6), limits=lim)),
    "separator_subsets": (1, lambda lim: min_separator_size(cycle(6), limits=lim)),
    "lift_tuples": (63, lambda lim: lift(cycle(4), refine_1(cycle(4)), 3, limits=lim)),
    "depth_sweep_vertices": (24, lambda lim: canon_module.depth_d_1dim(cycle(5), 1, limits=lim)),
    # crown_graph's classes of 3 need overlap normalization
    "overlap_class_cap": (2, lambda lim: reduce_graph(crown_graph(), 1, limits=lim)),
}


def test_every_budget_of_limits_is_tripped_below():
    names = {f.name for f in dataclasses.fields(Limits)}
    assert names == set(BUDGETS)


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_a_budget_error_names_its_limits_field(name):
    cap, run = BUDGETS[name]
    run(DEFAULT_LIMITS)  # within the default caps
    with pytest.raises(ResourceLimitError, match=rf"\b{name}\b") as err:
        run(dataclasses.replace(DEFAULT_LIMITS, **{name: cap}))
    assert err.value.budget == name
    assert err.value.cap == cap and err.value.required > cap


def test_only_the_limits_gate_makes_a_budget_error():
    # every budget decision goes through Limits.check, so every
    # ResourceLimitError names the field that tripped in one message shape
    makers = set()
    for path in sorted(Path(wlkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name == "ResourceLimitError":
                    makers.add(path.name)
    assert makers == {"limits.py"}


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
    lexicographically, until a round splits nothing, starting from the iso
    types or, when `start` is given, from the seeded rows; returns the
    colors, the number of splitting rounds and the class count after each
    round."""
    n = g.n
    vc = np.asarray(
        g.vertex_colors if vertex_colors is None else vertex_colors, dtype=np.int64
    )
    first = refine_module._initial_rows(g, k, vc) if start is None else seeded_rows(start, vc, n, k)
    colors = kernels.dense_rank_rows(first).tolist()
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


# up to three children, each individualizing one vertex on top of the last
# stable coloring; a step picks among the vertices that share a class
children = st.lists(st.integers(0, 5), min_size=1, max_size=3)


def pick(tc, step: int) -> int:
    """The vertex a step individualizes: one that shares its class with
    another where there are any."""
    vcls = vertex_classes(tc)
    pool = np.flatnonzero(np.bincount(vcls)[vcls] >= 2)
    pool = pool if pool.shape[0] else np.arange(tc.n)
    return int(pool[step % pool.shape[0]])


@st.composite
def reference_graphs(draw):
    """A colored graph, or a smaller one beside a relabeled copy of itself
    (its vertex classes are never all singletons, so individualizing splits
    them)."""
    if draw(st.booleans()):
        return draw(colored_graphs(max_n=6))
    g, cols = draw(colored_graphs(max_n=3))
    g = g.with_vertex_colors(cols.tolist())
    u = disjoint_union(g, g.relabel(draw(st.permutations(range(g.n)))))
    return u, np.asarray(u.vertex_colors, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(reference_graphs(), st.sampled_from((2, 3)), children)
def test_refinement_matches_the_lexicographic_reference(case, k, steps):
    g, cols = case
    if g.n == 0:
        return
    tc = None
    for step in [None] + steps:
        if step is not None:
            v = pick(tc, step)
            cols = individualized(cols, v)
        ranked = []

        def spy(rows):
            ranked.append(rows.shape[0])
            return kernels.dense_rank_rows(rows)

        def refine():
            if tc is None:
                return refine_k(g, k, vertex_colors=cols)
            return refine_k(g, k, parent=(tc, v))

        with mock.patch.object(refine_module, "dense_rank_rows", spy):
            child = refine()
        colors, rounds, counts = reference_refine(g, k, cols, None if tc is None else tc.colors)
        if k == 2:
            # k = 2 ids are hash ranks, so the partition is compared; under
            # constant salts no hashed round splits, every split is left to
            # the exact rounds, and the ids are the reference's
            assert same_partition(child.colors, colors)
            with mock.patch.object(refine_module, "_salts", constant_salts):
                assert np.array_equal(refine().colors, colors)
        else:
            # ids, not only the partition: every splitting round is ranked
            # lexicographically, previous color first
            assert np.array_equal(child.colors, colors)
        assert child.rounds == rounds
        assert child.class_counts == counts
        # a child ranks its first round once, from seed keys, whether it
        # splits or not, and never its seeded coloring; the root ranks its
        # initial coloring.  Each later splitting round is ranked, and a
        # full round that finds nothing to split is not.  At k = 2 those
        # are hashed rounds, and the hashed round that finds nothing to
        # split is checked before it is ranked, so it is not ranked either;
        # the exact stop check after it ranks nothing
        assert len(ranked) == (1 + rounds if tc is None else max(rounds, 1))
        tc = child


def test_an_individualized_child_takes_its_first_round_from_the_vertex(cfi_k4):
    g = cfi_k4[0]
    root = refine_2(g)
    v = int(np.flatnonzero(vertex_classes(root) == 0)[0])
    calls = []
    real_check = refine_module.stop_check

    def check_spy(colors, n, ncolors):
        calls.append(ncolors)
        return real_check(colors, n, ncolors)

    with mock.patch.object(refine_module, "stop_check", check_spy):
        child = refine_2(g, parent=(root, v))
    # round 1 came from v alone and every later one was hashed: only the
    # exact stop check built rows, of the classes the last round left
    assert child.rounds >= 2
    assert calls == child.class_counts[-1:]
    colors, rounds, counts = reference_refine(
        g, 2, individualized(np.asarray(g.vertex_colors), v), root.colors,
    )
    assert same_partition(child.colors, colors)
    assert (child.rounds, child.class_counts) == (rounds, counts)


@pytest.mark.parametrize("k", (1, 2, 3))
def test_every_refinement_runs_one_budget_check_and_one_round_loop(k):
    # refine_k from scratch and from a parent, a search node at the root
    # and at a child, and the coherent closure each check the budget once
    # and enter the one round loop once; a search node never calls refine_k
    g = petersen()
    calls = []

    def spy(name, real):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapped

    root = refine_k(g, k)
    node = refine_module.refine_node(g, k)
    runs = {
        "refine_k": lambda: refine_k(g, k),
        "refine_k child": lambda: refine_k(g, k, parent=(root, 0)),
        "node": lambda: refine_module.refine_node(g, k),
        "node child": lambda: refine_module.refine_node(g, k, (node, 0)),
        "closure": lambda: cellular_closure(g),
    }
    patches = [
        mock.patch.object(module, name, spy(name, getattr(module, name)))
        for module in (refine_module, coherent_module)
        for name in ("check_round_budget", "refine_rounds")
    ]
    patches.append(mock.patch.object(refine_module, "refine_k", spy("refine_k", refine_k)))
    with contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        for what, run in runs.items():
            calls.clear()
            out = run()
            assert sorted(calls) == ["check_round_budget", "refine_rounds"], what
            if what.endswith("child"):
                assert out.num_colors > root.num_colors, what


def two_rank_refine(g, k, vc, start, v):
    """A k >= 2 child that individualizes v by way of its seeded coloring C,
    `start` met with the child's vertex colors `vc`: rank C's rows, then,
    when C is not discrete, rank C's first round from v and go on with full
    rounds.  Returns the colors, rounds, class counts and which of the
    three cases the node is."""
    n = g.n
    colors = kernels.dense_rank_rows(seeded_rows(start, vc, n, k))
    ncolors = int(colors.max()) + 1
    if ncolors == n**k:
        return colors, 0, [ncolors], "discrete"
    ids = kernels.dense_rank_rows(refine_module._pivot_rows(colors, n, k, ncolors, v))
    if int(ids.max()) + 1 == ncolors:
        return colors, 0, [ncolors], "no split"
    colors, counts = full_rounds(ids, n, k)
    return colors, len(counts), [ncolors] + counts, "split"


def assert_keyed_first_round(g, k, coarse, v):
    """The child that individualizes v on top of the stable coloring under
    `coarse` vertex colors against `two_rank_refine`; returns the node's
    case."""
    parent = refine_k(g, k, vertex_colors=coarse)
    tc = refine_k(g, k, parent=(parent, v))
    colors, rounds, counts, case = two_rank_refine(
        g, k, individualized(coarse, v), parent.colors, v,
    )
    assert np.array_equal(tc.colors, colors), case
    assert (tc.rounds, tc.class_counts) == (rounds, counts), case
    return case


# each case's graph, individualizing vertex 0 on top of uniform colors; K_n
# less one vertex is K_(n-1), so there the seeded coloring is already stable
KEYED_CASES = {
    "split": cycle(6),
    "no split": complete(4),
    "discrete": complete(2),
}


@pytest.mark.parametrize("k", (2, 3))
@pytest.mark.parametrize("case", list(KEYED_CASES))
def test_the_keyed_first_round_equals_the_two_rank_path(case, k):
    g = KEYED_CASES[case]
    assert assert_keyed_first_round(g, k, np.zeros(g.n, dtype=np.int64), 0) == case


@settings(max_examples=200, deadline=None)
@given(reference_graphs(), st.sampled_from((2, 3)), children)
def test_the_keyed_first_round_equals_the_two_rank_path_on_random_graphs(case, k, steps):
    g, cols = case
    if g.n == 0:
        return
    for step in steps:
        v = pick(refine_k(g, k, vertex_colors=cols), step)
        assert_keyed_first_round(g, k, cols, v)
        cols = individualized(cols, v)


def reference_project(colors, n, k, t):
    """Sort out the last position, then rank the sorted rows, k - t times."""
    for level in range(k - 1, t - 1, -1):
        colors = kernels.dense_rank_rows(np.sort(colors.reshape(n**level, n), axis=1))
    return colors


def assert_projection(tc):
    """Every t's ids against `reference_project`, with no rank of rows."""
    for t in range(1, tc.k + 1):
        ranked = []

        def spy(rows):
            ranked.append(rows.shape[0])
            return kernels.dense_rank_rows(rows)

        with mock.patch.object(refine_module, "dense_rank_rows", spy):
            got = project(tc, t)
        want = reference_project(tc.colors, tc.n, tc.k, t)
        assert np.array_equal(got.colors, want), (tc.n, tc.k, t)
        assert got.num_colors == (int(want.max()) + 1 if want.size else 0)
        assert ranked == []


@settings(max_examples=150, deadline=None)
@given(colored_graphs(max_n=6), st.sampled_from((2, 3)), children)
def test_a_projection_equals_sort_and_rank(case, k, steps):
    # roots, recolorings and search nodes up to three vertices deep: in a
    # stable coloring the rows of two prefixes are equal or disjoint
    g, cols = case
    assert_projection(refine_k(g, k))
    tc = refine_k(g, k, vertex_colors=cols)
    assert_projection(tc)
    if g.n == 0:
        return
    for step in steps:
        tc = refine_k(g, k, parent=(tc, pick(tc, step)))
        assert_projection(tc)


@pytest.mark.parametrize("k", (2, 3))
def test_a_discrete_projection_equals_sort_and_rank(k):
    # all-distinct vertex colors make every tuple its own class
    for n in (0, 1, 2, 3, 7):
        g = random_graph(n, 0.5, seed=n)
        tc = refine_k(g, k, vertex_colors=list(range(n))[::-1])
        assert tc.num_colors == n**k
        assert_projection(tc)
    # the leaves of a canonical search
    leaves = []

    def node_spy(*args, **kwargs):
        tc = refine_module.refine_node(*args, **kwargs)
        if tc.num_colors == tc.n**tc.k:
            leaves.append(tc)
        return tc

    with mock.patch.object(canon_module, "refine_node", node_spy):
        canon_module.certify(petersen(), k, "canonical")
    assert leaves
    for tc in leaves:
        assert_projection(tc)


@settings(max_examples=60, deadline=None)
@given(colored_graphs(max_n=5), st.sampled_from((1, 2, 3)))
def test_initial_rows_are_the_iso_types(case, k):
    g, cols = case
    recolored = g.with_vertex_colors(cols.tolist())
    tuples = list(itertools.product(range(g.n), repeat=k))
    want = [[x for part in iso_type(recolored, t) for x in part] for t in tuples]
    rows = refine_module._initial_rows(g, k, cols)
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


@pytest.mark.parametrize("k, n, below", [(2, 6, 46340), (3, 11, 1290)])
def test_round_rows_are_int32_exactly_below_the_limit(k, n, below):
    # base^k < 2^31 just below the limit and not at one color more; the
    # codes must equal the int64 gather form on both sides, and forcing
    # int64 everywhere must not change them
    rng = np.random.default_rng(k)
    for ncolors, dtype in ((below, np.int32), (below + 1, np.int64)):
        assert (ncolors**k < 2**31) == (dtype is np.int32)
        colors = rng.integers(0, ncolors, size=n**k)
        colors[:: n + 1] = ncolors - 1  # the top code occurs
        want = reference_round_rows(colors, n, k, ncolors)
        got = kernels.round_rows(colors, n, k, ncolors)
        assert got.dtype == dtype
        assert np.array_equal(got, want)
        with mock.patch.object(kernels, "_INT32_LIMIT", 1):
            wide = kernels.round_rows(colors, n, k, ncolors)
        assert wide.dtype == np.int64
        assert np.array_equal(wide, want)


# -- the k = 2 stop check against the full round -------------------------------


def reference_unstable_pairs(colors, n, ncolors):
    """The stop check through the full round: the pairs whose `round_rows`
    row differs from the row of the first pair of their class, then the
    first such pair of each class by class id."""
    first = np.full(ncolors, n * n, dtype=np.int64)
    np.minimum.at(first, colors, np.arange(n * n, dtype=np.int64))
    rows = kernels.round_rows(colors, n, 2, ncolors)
    flags = np.any(rows != rows[first[colors]], axis=1)
    if not flags.any():
        return None
    at = np.flatnonzero(flags)
    return at[np.unique(colors[at], return_index=True)[1]]


@st.composite
def pair_colorings(draw):
    """(colors, n): dense pair colorings of 1-7 points.  Random colorings
    with 1, 2, 3 or n^2 values; stable closures of random colored graphs,
    directed or not, one cell changed or not; the same closures with one
    pair p moved into the class of a pair q and p's transpose into that of
    q's, so the colors stay transpose-compatible and the check skips one
    class of each transpose pair; and the iso types of directed colored
    graphs, with or without one hashed round."""
    kind = draw(st.sampled_from(("random", "closure", "transposed", "directed")))
    if kind == "random":
        n = draw(st.integers(1, 7))
        m = draw(st.sampled_from((1, 2, 3, n * n)))
        colors = np.asarray(draw(st.lists(st.integers(0, m - 1), min_size=n * n, max_size=n * n)))
    elif kind == "closure":
        g, cols = draw(colored_graphs(max_n=7, min_n=1))
        colors = cellular_closure(g.with_vertex_colors(cols.tolist())).rel.ravel()
        n = g.n
        if draw(st.booleans()):
            colors = colors.copy()
            colors[draw(st.integers(0, n * n - 1))] = colors[draw(st.integers(0, n * n - 1))]
    elif kind == "transposed":
        g, cols = draw(colored_graphs(max_n=7, min_n=2))
        rel = cellular_closure(g.with_vertex_colors(cols.tolist())).rel.copy()
        n = g.n
        x, y = draw(st.sampled_from([(x, y) for x in range(n) for y in range(n) if x != y]))
        u, v = divmod(draw(st.integers(0, n * n - 1)), n)
        rel[x, y], rel[y, x] = rel[u, v], rel[v, u]
        colors = rel.ravel()
    else:
        g, cols = draw(colored_graphs(max_n=7, min_n=1, directed=True))
        colors = kernels.dense_rank_rows(refine_module._initial_rows(g, 2, cols))
        n = g.n
        if draw(st.booleans()):
            colors = hashed_rounds(colors, n)[0]
    return np.unique(colors, return_inverse=True)[1].reshape(-1), n


@settings(max_examples=300, deadline=None)
@given(pair_colorings())
def test_the_stop_check_matches_the_full_round(case):
    # the same classes, and the same first differing pair in each, from
    # blocks of one row, of three rows and one code past them, and of the
    # default size; on int32 codes and on int64 ones.  A split ranks only
    # the rows of the classes that split, and its ids are those of ranking
    # every row of the full round
    colors, n = case
    ncolors = int(colors.max()) + 1
    want = reference_unstable_pairs(colors, n, ncolors)
    for wide in (False, True):
        with mock.patch.object(kernels, "_INT32_LIMIT", 1 if wide else kernels._INT32_LIMIT):
            for cells in (1, n, 3 * n + 1, kernels._PAIR_CELLS):
                got = kernels.unstable_pairs(colors, n, ncolors, cells)
                assert (got is None) == (want is None), cells
                assert got is None or np.array_equal(got, want), cells
    ids = refine_module._exact_round(colors, n, ncolors, DEFAULT_LIMITS)
    if want is None:
        assert ids is None
    else:
        full = kernels.dense_rank_rows(kernels.round_rows(colors, n, 2, ncolors))
        assert np.array_equal(ids, full)


def _rows_built(colors, n, ncolors):
    """The stop check's result and the number of rows it builds."""
    built = []
    real = kernels.pair_code_rows

    def spy(tables, pairs, out, cells=kernels._PAIR_CELLS):
        built.append(pairs.shape[0])
        return real(tables, pairs, out, cells)

    with mock.patch.object(kernels, "pair_code_rows", spy):
        out = kernels.unstable_pairs(colors, n, ncolors)
    return out, sum(built)


@pytest.mark.parametrize("base, rows", [
    (complete(4), 160), (petersen(), 880), (generalized_petersen(20, 1), 13_120),
])
def test_the_stop_check_builds_one_class_of_each_transpose_pair(base, rows):
    # a Klein closure is transpose-compatible, so of its n^2 pairs the
    # check builds the rows of its symmetric classes and of one class of
    # each transpose pair: 160 of 256 on K4, 880 of 1600 on Petersen and
    # 13,120 of 25,600 on the prism Y20
    c = klein_scheme(base)
    closed = cellular_closure(merge_relations(c, klein_merge_groups(c)))
    for rel, s in ((c.rel, c.s), (closed.rel, closed.s)):
        out, built = _rows_built(rel.ravel(), rel.shape[0], s)
        assert out is None and built == rows


def test_a_coloring_that_is_not_transpose_compatible_checks_every_class():
    # one cell moved into a class whose other pairs transpose elsewhere:
    # every class of two or more pairs is built, and the breaks are those
    # of the full round
    c = klein_scheme(complete(4))
    rel = c.rel.copy()
    assert rel[0, 5] != rel[0, 6] and rel[6, 0] != rel[5, 0]
    rel[0, 5] = rel[0, 6]
    colors = np.unique(rel, return_inverse=True)[1].reshape(-1)
    ncolors = int(colors.max()) + 1
    out, built = _rows_built(colors, c.n, ncolors)
    assert built == int(np.count_nonzero(np.bincount(colors)[colors] > 1))
    assert np.array_equal(out, reference_unstable_pairs(colors, c.n, ncolors))


@settings(max_examples=100, deadline=None)
@given(colored_graphs(max_n=7))
def test_two_valued_salts_give_the_partition_of_full_exact_rounds(case):
    # hashes that collide almost everywhere leave the exact rounds most
    # splits to make, each ranking only the classes its stop check names,
    # then the hashed rounds go on: the partition is that of full rounds
    g, cols = case
    if g.n == 0:
        return
    with mock.patch.object(refine_module, "_salts", two_valued_salts):
        tc = refine_k(g, 2, vertex_colors=cols)
    assert same_partition(tc.colors, reference_refine(g, 2, cols)[0])
    assert same_partition(tc.colors, refine_k(g, 2, vertex_colors=cols).colors)


def _traced_refinement(g, k, **kwargs):
    """refine_k(g, k, **kwargs), the bytes it still holds after returning
    and its traced peak, both above what was allocated when it started."""
    g.pair_codes()  # the graph's own cache is not the refinement's
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tc = refine_k(g, k, **kwargs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return tc, held - base, peak - base


def test_refinement_keeps_nothing_after_it_returns():
    # no round's arrays, and no index arrays, outlive the call, and a
    # round's peak stays within the estimate the memory budget is checked
    # against.  At k = 2 the hashed rounds peak and the stop check's blocks
    # fit beside its arrays, so the estimate is at most twice the peak
    # whether the hashed rounds make a random graph discrete, run one round
    # more at nearly n^2 classes on a twin pair, or leave the stop check
    # every pair's row of a doubled graph; k = 3 is as tight at its largest
    # size.  At n = 220 the twin pair leaves 220^2 - 438 classes, past
    # 46340, so the stop check's codes are int64
    cases = [(random_graph(n, 0.5, seed=1), 2, True) for n in (10, 20, 40, 80, 160)]
    cases += [(random_graph(20, 0.5, seed=1), 3, False), (random_graph(30, 0.5, seed=1), 3, True)]
    cases += [(doubled_graph(160), 2, True)]
    cases += [(twin_pair_graph(n), 2, True) for n in (100, 160, 220)]
    for g, k, tight in cases:
        tc, held, peak = _traced_refinement(g, k)
        estimate = refine_module._estimate_bytes(g.n, k)
        assert held < 2**20, (g.n, k)
        assert peak <= estimate, (g.n, k)
        if tight:
            assert estimate <= 2 * peak, (g.n, k)
    assert tc.num_colors == 220**2 - 438 and tc.num_colors**2 >= 2**31


def test_a_seeded_child_keeps_nothing_after_it_returns():
    # a child that individualizes one vertex of a graph beside a relabeled
    # copy of itself: its first round comes from seed keys and splits
    for n, k in ((40, 2), (160, 2), (30, 3)):
        half = random_graph(n // 2, 0.5, seed=1)
        g = disjoint_union(half, random_relabel(half, 2)[0])
        root = refine_k(g, k)
        tc, held, peak = _traced_refinement(g, k, parent=(root, 0))
        assert tc.rounds >= 1, (n, k)  # the first round split
        assert held < 2**20, (n, k)
        assert peak <= refine_module._estimate_bytes(n, k), (n, k)


def test_a_400_vertex_two_dim_refinement_fits_the_default_budget():
    # a k = 2 round needs 128 bytes a pair, where its hashed rounds peak;
    # the stop check never holds the n^2 (n + 1) round, so 400 vertices take
    # 20 MB where they took 531 MB.  A discrete random graph, a twin pair
    # (int64 codes) and a doubled graph, whose stop check builds every
    # pair's row, each peak within the estimate and above half of it
    n = 400
    estimate = refine_module._estimate_bytes(n, 2)
    assert estimate <= 21 * 10**6
    for g, classes in (
        (random_graph(n, 0.5, seed=1), n * n),
        (twin_pair_graph(n), n * n - 2 * (n - 2) - 2),
        (doubled_graph(n), n * n // 2),
    ):
        tc, _, peak = _traced_refinement(g, 2, limits=Limits())
        assert tc.num_colors == classes
        assert peak <= estimate <= 2 * peak


@pytest.mark.parametrize("bound", [2, 9, 41])
def test_chunked_hashed_products_stay_within_the_estimate(bound):
    # from _HASH_MAX_N vertices up each hashed product is summed in chunks;
    # with the bound patched small, a k = 2 refinement that runs one round at
    # nearly n^2 classes keeps its ids and peaks within the same estimate
    g = twin_pair_graph(100)
    want = refine_k(g, 2)
    with mock.patch.object(refine_module, "_HASH_MAX_N", bound):
        tc, _, peak = _traced_refinement(g, 2)
    assert np.array_equal(tc.colors, want.colors) and tc.class_counts == want.class_counts
    assert peak <= refine_module._hashed_bytes(g.n)


def test_the_salt_table_is_the_splitmix_salts_of_its_ids():
    # ids below the cap read the table, ids from the cap up are built as
    # they come; either way the salts are the same function of the id
    cap = refine_module._SALT_IDS
    table = refine_module._SALT_TABLE
    assert table.shape == (4, cap) and table.nbytes == 512 * 1024
    assert not table.flags.writeable
    for m in (cap - 1, cap, cap + 1):
        fresh = refine_module._splitmix_salts(m)
        assert np.array_equal(refine_module._salts(m), fresh), m
        assert np.array_equal(fresh[:, : min(m, cap)], table[:, : min(m, cap)]), m
    assert np.shares_memory(refine_module._salts(cap), table)
    assert not np.shares_memory(refine_module._salts(cap + 1), table)


@contextlib.contextmanager
def _salt_builds():
    """The id counts `refine._splitmix_salts` builds salts for within the
    block."""
    built = []
    real = refine_module._splitmix_salts
    with mock.patch.object(refine_module, "_splitmix_salts", lambda m: built.append(m) or real(m)):
        yield built


def test_ids_past_a_lowered_salt_cap_are_the_same():
    # a random graph starts at 3 classes and goes discrete at 144, so with
    # the cap patched down to 8 its rounds salt ids on both sides of it
    g = random_graph(12, 0.5, seed=3)
    want = refine_k(g, 2)
    assert want.class_counts[0] <= 8 < want.num_colors
    with mock.patch.object(refine_module, "_SALT_IDS", 8), _salt_builds() as built:
        tc = refine_k(g, 2)
    assert built and min(built) > 8
    assert np.array_equal(tc.colors, want.colors) and tc.class_counts == want.class_counts


def test_a_refinement_below_the_salt_cap_builds_no_salts():
    # every salt a k = 2 refinement of up to _SALT_IDS classes reads is a
    # view of the table: a spy on the builder sees no call from a
    # refinement, a search or a closure
    g = random_graph(40, 0.5, seed=1)
    with _salt_builds() as built:
        tc = refine_k(g, 2)
        canon_module.certify(petersen(), 2, "canonical")
        cellular_closure(klein_scheme(petersen()).rel)
    assert tc.num_colors == 40 * 40 <= refine_module._SALT_IDS
    assert built == []


@st.composite
def hashed_step_cases(draw):
    """(dense ids of all n^2 pairs, n): random colorings, colorings with a
    class of two pairs that splits, and discrete colorings."""
    kind = draw(st.sampled_from(("random", "pair", "discrete")))
    n = draw(st.integers(1 if kind != "pair" else 2, 7))
    if kind == "discrete":
        perm = draw(st.permutations(range(n * n)))
        return np.asarray(perm, dtype=np.int64), n
    if kind == "pair":
        # every pair its own class but (0, 1) and (1, 0), whose rows read
        # (C(0, 0), C(0, 1)) against (C(1, 0), C(0, 0)): they split
        ids = np.arange(n * n, dtype=np.int64)
        ids[n] = ids[1]
        return np.unique(ids, return_inverse=True)[1], n
    m = draw(st.integers(1, n * n))
    raw = draw(st.lists(st.integers(0, m - 1), min_size=n * n, max_size=n * n))
    return np.unique(np.asarray(raw, dtype=np.int64), return_inverse=True)[1], n


@settings(max_examples=200, deadline=None)
@given(hashed_step_cases())
def test_the_hashed_step_ranks_exactly_the_rounds_that_split(case):
    # the check before the rank returns the rank's ids whenever the rank
    # grows the class count, and None exactly when it does not
    colors, n = case
    ncolors = int(colors.max()) + 1
    ranked = kernels.dense_rank_rows(refine_module._hashed_rows(colors, n))
    ids = refine_module._hashed_step(colors, n, ncolors)
    if int(ranked.max()) + 1 == ncolors:
        assert ids is None
    else:
        assert np.array_equal(ids, ranked)
    if ncolors == n * n:
        assert ids is None
    if n >= 2 and colors[1] == colors[n] and ncolors == n * n - 1:
        assert ids is not None and ids[1] != ids[n]


def test_an_exact_split_builds_its_rows_within_memory_bytes():
    # under constant salts no hashed round splits, so exact rounds make
    # every split, each building and ranking the rows of the classes its
    # stop check names, checked against memory_bytes before they are built:
    # from the round's estimate up, each budget either runs within itself or
    # raises before it is passed, naming what the split needs
    g = random_graph(60, 0.3, seed=1)
    want = refine_k(g, 2)

    def run(budget):
        try:
            return refine_k(g, 2, limits=Limits(memory_bytes=budget))
        except ResourceLimitError as err:
            return err

    budget, refusals = refine_module._estimate_bytes(g.n, 2), 0
    with mock.patch.object(refine_module, "_salts", constant_salts):
        while True:
            out, peak = traced_peak(lambda: run(budget))
            assert peak <= budget
            if not isinstance(out, ResourceLimitError):
                break
            assert "exact split" in str(out) and out.required > budget
            assert out.budget == "memory_bytes"
            budget, refusals = out.required, refusals + 1
    assert refusals >= 1 and same_partition(out.colors, want.colors)


def test_overflow_safe_rows_stay_within_the_estimate():
    # where base^k reaches _PACK_LIMIT, round_rows ranks n^(k+1) stacked
    # k-vectors; the estimate counts them wherever the branch can run, and
    # the branch gives the packed codes' ids.  k = 2 never builds round_rows
    # (its codes fit below _PACK_LIMIT up to n = 46340), and refuses a
    # limit that they pass
    with mock.patch.object(kernels, "_PACK_LIMIT", 1), \
            pytest.raises(ValueError, match="base\\^2"):
        refine_k(twin_pair_graph(20), 2)
    for g, k, tight in (
        (random_graph(20, 0.5, seed=1), 3, True),
        (random_graph(30, 0.5, seed=1), 3, True),
    ):
        n = g.n
        want = refine_k(g, k)
        with mock.patch.object(kernels, "_PACK_LIMIT", 1):
            tc, held, peak = _traced_refinement(g, k)
            estimate = refine_module._estimate_bytes(n, k)
        assert tc.class_counts == want.class_counts
        assert np.array_equal(tc.colors, want.colors)
        assert held < 2**20
        assert peak <= estimate, (n, k)
        if tight:
            assert estimate <= 2 * peak, (n, k)
        assert refine_module._estimate_bytes(n, k) < estimate  # the branch is budgeted


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
    """k = 1 refinement ranking the dense rows until a round splits nothing,
    from the vertex colors or, when `start` is given, from the seeded rows;
    returns the colors, the class count after each round and, for every
    splitting round, the decoded structure of each color id."""
    colors = kernels.dense_rank_rows(
        refine_module._initial_rows(g, 1, vertex_colors)
        if start is None else seeded_rows(start, vertex_colors, g.n, 1)
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
        parent = refine_1(g, vertex_colors=cols)
        start, cols = parent.colors, individualized(cols, v % g.n)
        tc = refine_1(g, parent=(parent, v % g.n))
    else:
        tc = refine_1(g, vertex_colors=cols)
    colors, counts, decoded = reference_refine_k1(g, cols, start)
    # the same ids, not only the same partition
    assert np.array_equal(tc.colors, colors)
    assert tc.rounds == len(decoded)
    assert tc.class_counts == counts


def test_a_discrete_one_dim_coloring_takes_no_confirming_rank():
    # a k = 1 coloring with n classes cannot split, so no round ranks it:
    # distinct vertex colors rank only the initial rows, and a child that
    # one round makes discrete ranks its seed keys and that round alone.
    # The ids and class counts are the reference's, which ranks a last
    # round to see it split nothing
    g = path(5)
    ranked = []

    def spy(rows):
        ranked.append(rows.shape[0])
        return kernels.dense_rank_rows(rows)

    cols = np.asarray([4, 2, 0, 1, 3], dtype=np.int64)
    root = refine_1(g)
    with mock.patch.object(refine_module, "dense_rank_rows", spy):
        tc = refine_1(g, vertex_colors=cols)
        assert len(ranked) == 1
        ranked.clear()
        child = refine_1(g, parent=(root, 0))
        assert len(ranked) == 2
    colors, counts, _ = reference_refine_k1(g, cols)
    assert np.array_equal(tc.colors, colors) and tc.class_counts == counts == [5]
    colors, counts, _ = reference_refine_k1(g, individualized(np.zeros(5, dtype=np.int64), 0), root.colors)
    assert np.array_equal(child.colors, colors) and child.class_counts == counts == [4, 5]


# -- overflow-safe round kernel ----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(colored_graphs(max_n=6), st.integers(0, 5))
def test_table_rounds_match_packed_rounds(case, v):
    # k = 3: only k >= 3 builds round_rows (k = 2 codes always pack)
    g, cols = case
    if g.n == 0:
        return
    k, v = 3, v % g.n
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
    packed = refine_k(g, k, vertex_colors=cols)
    packed_child = refine_k(g, k, parent=(packed, v))
    with mock.patch.object(kernels, "_PACK_LIMIT", 1), \
            mock.patch.object(refine_module, "round_rows", rows_spy), \
            mock.patch.object(kernels, "dense_rank_rows", rank_spy):
        table = refine_k(g, k, vertex_colors=cols)
        table_child = refine_k(g, k, parent=(table, v))
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
    """Random rows, wide duplicate-heavy rows, and rows of one to 63
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
    boundary = (
        (62,), (63,), (31, 31), (31, 32), (20, 21, 21), (21, 21, 21), (1, 60, 1), (2, 60, 1),
        (15, 16, 15, 16), (16, 16, 15, 16), (12, 13, 12, 12, 13), (13, 13, 12, 12, 13),
        (10, 11, 10, 10, 11, 10), (10, 11, 11, 10, 11, 10),
        # wider than one block of column maxima, zero-bit columns included
        (1,) * 62, (1,) * 63, (0,) * 9 + (31, 31), (0,) * 9 + (31, 32),
    )
    for trial in range(4 * len(boundary)):
        # each case four times: as is, reversed, int32, reversed int32
        bits = boundary[trial // 4]
        m, d = int(rng.integers(1, 60)), int(rng.integers(1, 8))
        distinct = np.column_stack(
            [rng.integers(0, (1 << b) - 1, size=d, endpoint=True) for b in bits]
        )
        rows = distinct[rng.integers(0, d, size=m)]
        rows[int(rng.integers(0, m))] = [(1 << b) - 1 for b in bits]  # each column's top
        assert (kernels._key_bits(rows) is None) == (sum(bits) > 62)
        yield trial, rows


def reference_dense_ids(rows: np.ndarray) -> np.ndarray:
    """np.unique on the big-endian byte view of each row."""
    view = np.ascontiguousarray(rows).astype(">i8").view(f"V{8 * rows.shape[1]}").ravel()
    return np.unique(view, return_inverse=True)[1].reshape(-1)


def test_dense_rank_rows_matches_np_unique():
    # each case as int64 and, below the int32 limit, as int32 (round rows),
    # both native and big-endian (rows the round loop swapped in place),
    # and every other case as a non-contiguous view; no input is written
    for trial, rows in dense_rank_cases(np.random.default_rng(7)):
        widths = (np.int64, np.int32) if rows.max() < 2**31 else (np.int64,)
        for dtype in widths:
            for order in "=>":
                held = rows.astype(np.dtype(dtype).newbyteorder(order))
                given = held[:, ::-1] if trial % 2 else held
                kept = held.copy()
                ids = kernels.dense_rank_rows(given)
                assert ids.dtype == np.int64
                assert np.array_equal(ids, reference_dense_ids(given)), (trial, dtype, order)
                assert held.tobytes() == kept.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_dense_rank_rows_compares_neighbours_across_slab_edges(data):
    # the byte path compares sorted neighbours a slab of _AGREE_CELLS cells
    # at a time; slabs of one row or a few put the edges everywhere
    m = data.draw(st.integers(1, 14))
    w = data.draw(st.integers(1, 5))
    rows = np.array(data.draw(st.lists(
        st.lists(st.integers(0, 2), min_size=w, max_size=w), min_size=m, max_size=m,
    )))
    cells = data.draw(st.integers(1, 3 * w))
    want = reference_dense_ids(rows)
    for held in (rows, kernels.big_endian(rows.astype(np.int32))):
        with mock.patch.object(kernels, "_PACK_LIMIT", 1), \
                mock.patch.object(kernels, "_AGREE_CELLS", cells):
            assert np.array_equal(kernels.dense_rank_rows(held), want)
