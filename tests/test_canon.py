from __future__ import annotations

import dataclasses
import hashlib
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wlkit.canon as canon
import wlkit.refine as refine_module
from conftest import colored_graphs, graph_pairs, same_partition, traced_peak, two_valued_salts
from wlkit.canon import (
    _canonical_search,
    aut_generators_via_recursion,
    certify,
    depth_d_1dim,
    individualize,
    serialize_in_order,
)
from wlkit.cfi import cfi_build
from wlkit.cws import reduce_graph
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
from wlkit.graph import ColoredGraph, disjoint_union, random_relabel, serialize_wlg
from wlkit.limits import DEFAULT_LIMITS, Limits
from wlkit.oracle import aut_group_order, aut_order_oracle, is_automorphism, iso_oracle
from wlkit.refine import project, refine_1, refine_k, vertex_classes


# -- individualization --------------------------------------------------------


def test_individualize_pins_one_vertex():
    g = cycle(4)
    vc = vertex_classes(refine_1(individualize(g, 0)))
    assert vc[1] == vc[3]
    assert len({int(vc[0]), int(vc[1]), int(vc[2])}) == 3


def test_serialize_in_order_is_an_exact_relabeling():
    g = ColoredGraph(3, [(0, 1, 2)], vertex_colors=[5, 0, 1])
    by_identity = serialize_in_order(g, [0, 1, 2])
    flipped = serialize_in_order(g, [1, 0, 2])
    assert by_identity != flipped


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_serialize_in_order_equals_serializing_the_relabeled_graph(data):
    g, cols = data.draw(colored_graphs())
    g = g.with_vertex_colors(cols.tolist())
    order = data.draw(st.permutations(range(g.n)))
    perm = [0] * g.n
    for i, v in enumerate(order):
        perm[v] = i
    want = serialize_wlg(g.relabel(perm)).encode("ascii")
    assert serialize_in_order(g, np.asarray(order, dtype=np.int64)) == want


# -- digests -------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["fast", "verified", "canonical"])
@pytest.mark.parametrize("make", [petersen, bowtie, lambda: random_graph(9, 0.4, seed=2)])
def test_digest_is_relabeling_invariant(mode, make):
    g = make()
    ref = certify(g, 2, mode)
    for seed in range(4):
        h, _ = random_relabel(g, seed=seed)
        assert certify(h, 2, mode).digest == ref.digest


@settings(max_examples=400, deadline=None)
@given(colored_graphs(max_n=7), st.sampled_from((1, 2)), st.integers(0, 2**16))
def test_canonical_digest_is_invariant_on_random_colored_graphs(case, k, seed):
    # the trace too: on graphs this small, leaves reached through different
    # target classes often serialize alike, so a label-dependent target can
    # leave the digest alone and show only in the classes branched on
    g, cols = case
    g = g.with_vertex_colors(cols.tolist())
    ref = certify(g, k, "canonical")
    for s in (seed, seed + 1):
        h, _ = random_relabel(g, seed=s)
        c = certify(h, k, "canonical")
        assert (c.digest, c.trace) == (ref.digest, ref.trace)


@settings(max_examples=120, deadline=None)
@given(graph_pairs(), st.sampled_from((1, 2)))
def test_canonical_search_agrees_with_the_exhaustive_oracles(pair, k):
    # the digests are equal exactly when the oracle finds an isomorphism,
    # and the generators the search finds span the oracle's whole group
    g, h = pair
    same = certify(g, k, "canonical").digest == certify(h, k, "canonical").digest
    assert same == (iso_oracle(g, h) is not None)
    assert aut_group_order(aut_generators_via_recursion(g, k), g.n) == aut_order_oracle(g)


@pytest.mark.parametrize("k", [1, 2])
def test_one_canonical_digest_for_either_component_order(k):
    # at k = 1 most of these searches meet a node whose invariant path is
    # below the incumbent's prefix; each leaf below it compares smaller and
    # replaces the incumbent, so every order and labeling ends on one leaf
    digests = set()
    for a, b in ((4, 3), (3, 4)):
        g = disjoint_union(cycle(a), cycle(b))
        graphs = [g] + [random_relabel(g, seed=s)[0] for s in range(4)]
        digests |= {certify(h, k, "canonical").digest for h in graphs}
    assert len(digests) == 1


def test_modes_agree_with_each_other():
    for make in (petersen, bowtie, cycle):
        g = make() if make is not cycle else cycle(7)
        fast = certify(g, 2, "fast")
        verified = certify(g, 2, "verified")
        canonical = certify(g, 2, "canonical")
        assert fast.digest == verified.digest == canonical.digest
        assert {fast.mode, verified.mode, canonical.mode} == {
            "fast", "verified", "canonical"
        }


def test_certificate_fields():
    c = certify(petersen(), 2, "canonical")
    assert c.n == 10 and c.k == 2
    assert c.nodes >= 1
    assert len(c.digest) == 32
    assert c.hexdigest == c.digest.hex()


def test_digest_separates_one_dim_similar_graphs():
    # C3 + C4 and C7 share every one-dim refinement invariant
    a = disjoint_union(cycle(3), cycle(4))
    b = cycle(7)
    assert certify(a, 1, "fast").digest != certify(b, 1, "fast").digest
    assert certify(a, 1, "canonical").digest != certify(b, 1, "canonical").digest


def test_orbit_flag():
    flagged = certify(disjoint_union(cycle(3), cycle(4)), 1, "verified")
    assert flagged.orbit_flag
    clean = certify(petersen(), 2, "verified")
    assert not clean.orbit_flag


def test_empty_graph():
    c = certify(ColoredGraph(0), 2, "canonical")
    assert c.n == 0 and len(c.digest) == 32


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        certify(cycle(4), 2, "fancy")


@pytest.mark.parametrize("n", (0, 4))
def test_k_below_one_is_rejected_before_the_empty_graph_shortcut(n):
    g = ColoredGraph(n)
    for k in (0, -3):
        for mode in ("fast", "verified", "canonical"):
            with pytest.raises(ValueError, match="k must be >= 1"):
                certify(g, k, mode)
        with pytest.raises(ValueError, match="k must be >= 1"):
            aut_generators_via_recursion(g, k)
        with pytest.raises(ValueError, match="k must be >= 1"):
            refine_module.similar_k(g, g, k)
        with pytest.raises(ValueError, match="k must be >= 1"):
            reduce_graph(g, k)


def test_node_budget_is_enforced():
    tight = dataclasses.replace(DEFAULT_LIMITS, canon_nodes=1)
    with pytest.raises(ResourceLimitError):
        certify(petersen(), 2, "canonical", limits=tight)


def test_a_search_deeper_than_the_recursion_limit_ends_in_a_typed_error():
    # an edgeless graph's first descent individualizes all but one vertex,
    # 1099 levels deep; a loop drives the search, so it reaches its leaf
    # or the node budget rather than Python's recursion limit
    g = ColoredGraph(1100, [])
    budget = dataclasses.replace(DEFAULT_LIMITS, canon_nodes=1200)
    with pytest.raises(ResourceLimitError, match="canon_nodes") as err:
        certify(g, 1, "canonical", limits=budget)
    assert (err.value.required, err.value.cap) == (1201, 1200)
    assert certify(g, 1, "fast", limits=budget).nodes == 1100


def test_vertex_colors_change_the_digest():
    g = cycle(5)
    marked = g.with_vertex_colors([1, 0, 0, 0, 0])
    assert certify(g, 2, "canonical").digest != certify(marked, 2, "canonical").digest


# -- the target class -------------------------------------------------------------


def test_target_class_is_the_largest_with_ties_to_the_smallest_id():
    assert canon._target_class(np.array([0, 1, 1, 2, 2, 2])) == (2, [3, 4, 5])
    assert canon._target_class(np.array([2, 0, 1, 2, 1, 0])) == (0, [1, 5])
    assert canon._target_class(np.array([3, 1, 0, 1, 3, 2])) == (1, [1, 3])
    for discrete in ([0], [2, 0, 1]):
        with pytest.raises(ValueError, match="discrete"):
            canon._target_class(np.array(discrete))


# -- automorphism generators ----------------------------------------------------


@pytest.mark.parametrize(
    "make,order",
    [
        (lambda: cycle(4), 8),
        (lambda: complete(4), 24),
        (petersen, 120),
        (bowtie, 8),
        (lambda: path(4), 2),
    ],
)
def test_recovered_generators_span_the_full_group(make, order):
    g = make()
    gens = aut_generators_via_recursion(g, 2)
    for sigma in gens:
        assert is_automorphism(g, sigma)
    assert aut_group_order(gens, g.n) == order
    assert aut_order_oracle(g) == order


def test_generators_respect_vertex_colors():
    g = cycle(4).with_vertex_colors([1, 0, 0, 0])
    gens = aut_generators_via_recursion(g, 2)
    assert aut_group_order(gens, 4) == aut_order_oracle(g) == 2


# -- pruning with found automorphisms -------------------------------------------


def exact_node(g, k, parent, limits, held=0):
    """A search node refined to its exact stable coloring, as before k = 2
    nodes ran hashed rounds (under refine_k's own budget)."""
    tc = refine_k(g, k, parent=parent, limits=limits)
    return tc, project(tc, 1)


@pytest.mark.parametrize(
    "base", [complete_bipartite(3, 3), petersen()], ids=["K33", "Petersen"],
)
def test_search_size_is_stable_under_relabeling(base):
    # a search that prunes with every automorphism it finds visits about the
    # same tree whatever the labels.  Hashed nodes number classes their own
    # way, so a relabeling may branch on another tied class than the exact
    # search does, but the tree stays within the sizes the exact search
    # takes over the same relabelings
    g, _ = cfi_build(base)
    graphs = [random_relabel(g, seed=s)[0] for s in range(16)]
    hashed = [certify(h, 2, "canonical") for h in graphs]
    with mock.patch.object(canon, "_refine_node", exact_node):
        exact = [certify(h, 2, "canonical") for h in graphs]
    assert len({c.digest for c in hashed}) == len({c.digest for c in exact}) == 1
    lo, hi = min(c.nodes for c in exact), max(c.nodes for c in exact)
    assert all(lo <= c.nodes <= hi for c in hashed)


@pytest.mark.parametrize(
    "g,k",
    [
        (cfi_build(complete(4))[0], 2),
        (cfi_build(complete(4), twisted=((0, 1),))[0], 2),
        (petersen(), 1),
    ],
    ids=["cfi_k4", "cfi_k4_twisted", "petersen_k1"],
)
@pytest.mark.parametrize("seed", range(4))
def test_every_equal_leaf_jumps(g, k, seed):
    # each distinct generator is found at an equal leaf, and every equal leaf
    # unwinds the search to where its path parts from the incumbent's
    _, stats = _canonical_search(random_relabel(g, seed=seed)[0], k, DEFAULT_LIMITS)
    assert stats.generators
    assert stats.jumps >= len(stats.generators)
    assert stats.orbit_skips > 0


def test_orbit_pruning_tests_each_generator_once_per_frame(monkeypatch):
    # an edgeless graph is searched along n(n+1)/2 nodes and finds n - 1
    # generators; testing every generator against the prefix again for every
    # candidate would take on the order of n^4 steps
    n = 40
    tests = []
    fixes = canon._fixes

    def spy(s, prefix):
        tests.append(len(prefix))
        return fixes(s, prefix)

    monkeypatch.setattr(canon, "_fixes", spy)
    _, stats = _canonical_search(ColoredGraph(n, []), 1, DEFAULT_LIMITS)
    assert stats.nodes == n * (n + 1) // 2
    assert len(stats.generators) == stats.jumps == n - 1
    assert stats.orbit_skips == (n - 1) * (n - 2) // 2
    assert len(tests) <= n * n


def logged_search(g, k):
    """Run the canonical search and log, in order, each node (its prefix and
    its target class, None at a leaf), each automorphism found at an equal
    leaf and each jump (the depth it unwinds to)."""
    log = []
    prefixes = {}  # id of a node's coloring: (the coloring, the node's prefix)
    refine_node, is_aut, jump_depth = canon._refine_node, canon.is_automorphism, canon._jump_depth

    def node_spy(g, k, parent, limits, held):
        tc, pv = refine_node(g, k, parent, limits, held)
        # a node's prefix is its parent's and the vertex it individualizes
        prefix = () if parent is None else prefixes[id(parent[0])][1] + (int(parent[1]),)
        prefixes[id(tc)] = (tc, prefix)
        members = None if pv.num_colors == g.n else canon._target_class(pv.colors)[1]
        log.append(("node", prefix, members))
        return tc, pv

    def aut_spy(g, sigma):
        out = is_aut(g, sigma)
        if out:
            log.append(("gen", tuple(int(x) for x in sigma)))
        return out

    def jump_spy(sigma, prefix, bpath):
        depth = jump_depth(sigma, prefix, bpath)
        if depth is not None:
            log.append(("jump", depth))
        return depth

    with mock.patch.object(canon, "_refine_node", node_spy), \
            mock.patch.object(canon, "is_automorphism", aut_spy), \
            mock.patch.object(canon, "_jump_depth", jump_spy):
        _, stats = _canonical_search(g, k, DEFAULT_LIMITS)
    return log, stats


def check_orbit_pruning(g, k):
    """At every candidate of every frame, the search skips exactly the
    members in the orbits of the members before it under the automorphisms
    found so far that fix the frame's prefix pointwise, recomputed from
    scratch; returns the number of skips."""
    log, stats = logged_search(g, k)
    at = {e[1]: i for i, e in enumerate(log) if e[0] == "node"}
    # a jump that unwinds past a frame ends its loop after the child it
    # came through
    last_child = {}
    leaf = None
    for e in log:
        if e[0] == "node":
            leaf = e[1]
        elif e[0] == "jump":
            for depth in range(e[1] + 1, len(leaf)):
                last_child[leaf[:depth]] = leaf[depth]
    skips = 0
    for i, e in enumerate(log):
        if e[0] != "node" or e[2] is None or e[1] + (e[2][0],) not in at:
            continue  # a leaf, or pruned by its invariant before the loop
        prefix, members = e[1], e[2]
        end = next(
            (j for j in range(i + 1, len(log))
             if log[j][0] == "node" and log[j][1][: len(prefix)] != prefix),
            len(log),
        )
        if prefix in last_child:
            members = members[: members.index(last_child[prefix]) + 1]
        for pos, v in enumerate(members):
            visited = prefix + (v,) in at
            # the loop decides on v when the earlier siblings' subtrees are done
            t = next((at[prefix + (w,)] for w in members[pos:] if prefix + (w,) in at), end)
            gens = [
                s for kind, *rest in log[:t] if kind == "gen"
                for s in rest if all(s[p] == p for p in prefix)
            ]
            reach = set(members[:pos])
            queue = list(reach)
            while queue:
                x = queue.pop()
                for s in gens:
                    if s[x] not in reach:
                        reach.add(s[x])
                        queue.append(s[x])
            assert visited == (v not in reach), (prefix, v)
            skips += not visited
    assert skips == stats.orbit_skips
    return skips


@pytest.mark.parametrize("seed", range(3))
def test_orbit_pruning_skips_exactly_the_orbits_of_explored_members(seed):
    skips = 0
    for g, k in (
        (random_relabel(cfi_build(complete(4))[0], seed=seed)[0], 2),
        (random_relabel(petersen(), seed=seed)[0], 1),
        (random_relabel(ColoredGraph(6, []), seed=seed)[0], 1),
    ):
        skips += check_orbit_pruning(g, k)
    assert skips > 0


@settings(max_examples=80, deadline=None)
@given(colored_graphs(max_n=7), st.sampled_from((1, 2)))
def test_orbit_pruning_is_exact_on_random_colored_graphs(case, k):
    g, cols = case
    if g.n:
        check_orbit_pruning(g.with_vertex_colors(cols.tolist()), k)


# -- hashed k = 2 search nodes -------------------------------------------------------


def check_hashed_nodes(g):
    """Run the canonical k = 2 search of g and check every node's hashed
    coloring against refine_k's exact one from the same parent: the same
    partition and class counts.  Returns the number of nodes checked."""
    checked = []
    refine_node = canon._refine_node

    def node_spy(g, k, parent, limits, held):
        tc, pv = refine_node(g, k, parent, limits, held)
        exact = refine_k(g, k, parent=parent, limits=limits)
        assert same_partition(tc.colors, exact.colors)
        assert tc.class_counts == exact.class_counts
        checked.append(tc.num_colors)
        return tc, pv

    with mock.patch.object(canon, "_refine_node", node_spy):
        _canonical_search(g, 2, DEFAULT_LIMITS)
    return len(checked)


@settings(max_examples=120, deadline=None)
@given(colored_graphs(max_n=8))
def test_hashed_nodes_split_like_exact_rounds_on_random_colored_graphs(case):
    g, cols = case
    if g.n:
        assert check_hashed_nodes(g.with_vertex_colors(cols.tolist())) >= 1


@pytest.mark.parametrize("base", [complete(4), complete_bipartite(3, 3)], ids=["K4", "K33"])
@pytest.mark.parametrize("seed", range(4))
def test_hashed_nodes_split_like_exact_rounds_on_cfi_gadgets(base, seed):
    for twisted in ((), (min(base.edges),)):
        g = random_relabel(cfi_build(base, twisted=twisted)[0], seed=seed)[0]
        assert check_hashed_nodes(g) >= 8


@settings(max_examples=80, deadline=None)
@given(graph_pairs())
def test_two_valued_salts_keep_canonical_digests_exact(pair):
    # hashes that collide almost everywhere leave nodes coarser, never a
    # digest wrong: a leaf is compared byte for byte and every automorphism
    # is checked before the search uses it
    g, h = pair
    with mock.patch.object(refine_module, "_salts", two_valued_salts):
        same = certify(g, 2, "canonical").digest == certify(h, 2, "canonical").digest
    assert same == (iso_oracle(g, h) is not None)


def test_two_valued_salts_grow_the_search_and_keep_it_label_invariant():
    grew = False
    for base in (complete(4), complete_bipartite(3, 3), generalized_petersen(5, 1)):
        digests = []
        for twisted in ((), (min(base.edges),)):
            g = cfi_build(base, twisted=twisted)[0]
            for seed in range(2):
                h = random_relabel(g, seed=seed)[0]
                real = certify(h, 2, "canonical")
                with mock.patch.object(refine_module, "_salts", two_valued_salts):
                    coarse = certify(h, 2, "canonical")
                assert coarse.nodes >= real.nodes
                grew |= coarse.nodes > real.nodes
                digests.append(coarse.digest)
        # equal within a parity, unequal across the two
        assert digests[0] == digests[1] != digests[2] == digests[3]
    assert grew


def test_a_k2_search_is_budgeted_by_its_hashed_nodes():
    # a hashed node holds O(n^2), and so does refine_k's exact stop check,
    # whose blocks fit in the same estimate: both run within one node's
    # budget; below it a search raises before the root is refined
    g = cfi_build(petersen())[0]
    need = refine_module._hashed_bytes(g.n)
    lim = Limits(memory_bytes=need)
    tc, peak = traced_peak(lambda: refine_k(g, 2, limits=lim))
    assert same_partition(tc.colors, refine_k(g, 2).colors) and peak < need
    cert, peak = traced_peak(lambda: certify(g, 2, "fast", limits=lim))
    assert cert.digest == certify(g, 2, "fast").digest
    assert peak < need

    def refused():
        with pytest.raises(ResourceLimitError, match="memory_bytes") as err:
            certify(g, 2, "canonical", limits=Limits(memory_bytes=need - 1))
        return err.value

    err, peak = traced_peak(refused)
    assert (err.required, err.cap) == (need, need - 1)
    assert peak < need // 10


@pytest.mark.parametrize(
    "base, n", [(petersen, 100), (lambda: generalized_petersen(8, 3), 160)],
    ids=["Petersen", "GP(8,3)"],
)
def test_a_k2_search_counts_its_frames_colorings(base, n):
    # each live frame keeps an n^2 coloring beside the node being refined,
    # and canonical frames keep their invariants too: a search under one
    # node's budget either finishes within it or raises before passing it
    g = cfi_build(base())[0]
    lim = Limits(memory_bytes=refine_module._hashed_bytes(n))
    for mode in ("fast", "verified", "canonical"):

        def run():
            try:
                return certify(g, 2, mode, limits=lim)
            except ResourceLimitError as err:
                assert "memory_bytes" in str(err) and err.required > err.cap
                return err

        out, peak = traced_peak(run)
        assert peak <= lim.memory_bytes, mode
        if mode == "fast":  # its frames are dropped as it descends
            assert out.digest == certify(g, 2, mode).digest


# -- fast and verified against the former greedy descent -------------------------


def reference_fast_leaf(g, k, parent, limits, stats, trace=None, on_siblings=None):
    """The fast descent as a loop of its own, as it was before the modes
    shared one search: refine, take the target class, descend into its
    first member; `on_siblings` gets the digests of the fast leaves below
    every other member at every level (below the first lies the descent)."""
    n = g.n
    while True:
        stats.nodes += 1
        limits.check("canon_nodes", stats.nodes, "fast search")
        tc, pv = canon._refine_node(g, k, parent, limits)
        if pv.num_colors == n:
            return serialize_in_order(g, np.argsort(pv.colors))
        cid, members = canon._target_class(pv.colors)
        if trace is not None:
            trace.append((cid, len(members)))
        if on_siblings is not None:
            on_siblings([
                hashlib.sha256(reference_fast_leaf(g, k, (tc, w), limits, stats)).digest()
                for w in members[1:]
            ])
        parent = (tc, members[0])


@settings(max_examples=120, deadline=None)
@given(colored_graphs(max_n=12), st.sampled_from((1, 2)))
def test_fast_and_verified_match_the_reference_descent(case, k):
    g, cols = case
    if not g.n:
        return
    g = g.with_vertex_colors(cols.tolist())
    for mode in ("fast", "verified"):
        stats, trace, levels = canon.SearchStats(), [], []
        leafb = reference_fast_leaf(
            g, k, None, DEFAULT_LIMITS, stats, trace,
            levels.append if mode == "verified" else None,
        )
        c = certify(g, k, mode)
        assert c.digest == hashlib.sha256(leafb).digest()
        assert c.trace == tuple(trace)
        # the flag: some member's fast leaf differs from the descent's own
        assert c.orbit_flag == any(d != c.digest for ds in levels for d in ds)
        assert c.nodes == stats.nodes


def test_fast_holds_one_node_at_a_time():
    # fast keeps no invariant path and drops a node once it has descended
    # into its one member: a node held per level would keep an n^k coloring
    # each, about 14 MB more at k = 2 below
    _, peak = traced_peak(lambda: certify(ColoredGraph(1000, []), 1, "fast"))
    assert peak < 2**20
    _, peak = traced_peak(lambda: certify(ColoredGraph(120, []), 2, "fast"))
    assert peak < 1.5 * refine_module._estimate_bytes(120, 2)


def test_a_canonical_k1_search_reads_no_pair_code_matrix(monkeypatch):
    # k = 1 refinement reads the adjacent pairs and an equal leaf's
    # automorphism is checked by relabeling
    def refuse(g):
        raise AssertionError("pair_codes called")

    checked = []
    is_aut = canon.is_automorphism
    monkeypatch.setattr(ColoredGraph, "pair_codes", refuse)
    monkeypatch.setattr(canon, "is_automorphism", lambda g, s: checked.append(s) or is_aut(g, s))
    for g in (cycle(12), cfi_build(complete(4))[0], petersen()):
        certify(g, 1, "canonical")
    assert checked


def test_a_canonical_k1_search_of_a_cycle_stays_within_a_small_budget():
    # equal leaves of a cycle give automorphisms; checked on n x n int64 pair
    # codes, they would hold 8 MB
    lim = Limits(memory_bytes=2_000_000)
    cert, peak = traced_peak(lambda: certify(cycle(1000), 1, "canonical", limits=lim))
    assert cert.nodes > 1
    assert peak < lim.memory_bytes


# -- iterated-individualization invariant ----------------------------------------


def test_depth_zero_cannot_split_regular_graphs():
    a = disjoint_union(cycle(3), cycle(3))
    b = cycle(6)
    assert depth_d_1dim(a, 0).digest == depth_d_1dim(b, 0).digest


def test_depth_one_separates_them():
    a = disjoint_union(cycle(3), cycle(3))
    b = cycle(6)
    assert depth_d_1dim(a, 1).digest != depth_d_1dim(b, 1).digest


def test_depth_two_is_the_first_to_separate_the_cfi_k4_pair(cfi_k4, cfi_k4_twisted):
    # the K4 row of the paper's question: the recursive 1-dim method needs
    # two individualized vertices to tell the twisted gadget from the plain
    plain, twisted = cfi_k4[0], cfi_k4_twisted[0]
    separated = [
        depth_d_1dim(plain, d).digest != depth_d_1dim(twisted, d).digest
        for d in (0, 1, 2)
    ]
    assert separated == [False, False, True]


def test_depth_d_is_relabeling_invariant():
    g = petersen()
    ref = depth_d_1dim(g, 1)
    for seed in range(3):
        h, _ = random_relabel(g, seed=seed)
        assert depth_d_1dim(h, 1).digest == ref.digest


@settings(max_examples=80, deadline=None)
@given(colored_graphs(max_n=7), st.randoms(use_true_random=False))
def test_depth_one_sweep_is_relabeling_invariant_on_colored_graphs(case, rnd):
    # directed graphs, edge colors and vertex colors, any relabeling
    g, cols = case
    g = g.with_vertex_colors(cols.tolist())
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert depth_d_1dim(g.relabel(perm), 1).digest == depth_d_1dim(g, 1).digest


def test_depth_d_guards_its_budget():
    with pytest.raises(ResourceLimitError):
        depth_d_1dim(random_graph(40, 0.5, seed=0), 4)
    # depth 1 on C5: 5 runs of 5 vertices
    tight = dataclasses.replace(DEFAULT_LIMITS, depth_sweep_vertices=24)
    with pytest.raises(ResourceLimitError, match="depth_sweep_vertices") as err:
        depth_d_1dim(cycle(5), 1, limits=tight)
    assert (err.value.required, err.value.cap) == (25, 24)
    assert DEFAULT_LIMITS.depth_sweep_vertices == 4_000_000
    enough = dataclasses.replace(DEFAULT_LIMITS, depth_sweep_vertices=25)
    assert depth_d_1dim(cycle(5), 1, limits=enough).digest == depth_d_1dim(cycle(5), 1).digest
    with pytest.raises(ValueError):
        depth_d_1dim(cycle(4), -1)


# -- pinned certificate bytes ------------------------------------------------------


# SHA-256 of the certificates (digest, trace, orbit flag) and reduction digests
# of `_pinned_graphs`.  Pruning and seeded refinement change no color id, so
# no digest may move when they change; the choice of target class moves every
# digest whose search branches, and so do the ids of k = 2 search nodes,
# which are hash ranks (`refine.refine_node`).  k = 2 reduction digests
# move with `refine_k`'s k = 2 ids, hash ranks too (`refine.refine_rounds`),
# where no certificate does.  Search sizes are in PINNED_NODES.
PINNED_SHA256 = "c12fcb34afde8698807da640231fd90ba24b7637e04b0a9f73f1762d683291b2"

# Certificate.nodes of each graph of `_pinned_graphs`, in its order, as
# {k: (fast, verified, canonical)}.  The canonical counts are those of a search
# that jumps on every automorphism found at an equal leaf and branches on the
# largest class.
PINNED_NODES = [
    {1: (3, 56, 10), 2: (3, 56, 10)},  # CFI(K4)
    {1: (3, 56, 10), 2: (3, 56, 10)},  # CFI(K4), one twisted edge
    {1: (3, 56, 10), 2: (3, 56, 10)},  # the same, relabeled
    {1: (4, 126, 19), 2: (4, 126, 19)},  # CFI(K3,3)
    {1: (4, 42, 10), 2: (4, 42, 10)},  # Petersen
    {1: (4, 30, 10), 2: (4, 30, 10)},  # Q3
    {1: (3, 20, 6), 2: (3, 20, 6)},  # C9
    {1: (2, 4, 3), 2: (2, 4, 3)},  # directed colored 6-cycle
    {1: (2, 3, 3), 2: (2, 3, 3)},  # random (6, 7) beside a relabeled copy
    {1: (2, 3, 3), 2: (2, 3, 3)},  # random (8, 14) beside a relabeled copy
]


def _pinned_graphs():
    k4 = complete(4)
    twisted = cfi_build(k4, twisted=((0, 1),))[0]
    graphs = [
        cfi_build(k4)[0], twisted, random_relabel(twisted, seed=3)[0],
        cfi_build(complete_bipartite(3, 3))[0], petersen(), hypercube(3), cycle(9),
    ]
    # a directed 6-cycle with alternating edge and vertex colors
    arcs = [(i, (i + 1) % 6, i % 2) for i in range(6)]
    graphs.append(ColoredGraph(6, arcs, True, [0, 1, 0, 1, 0, 1]))
    # seeded random colored graphs, each beside a relabeled copy of itself
    rng = random.Random(11)
    for n, m in ((6, 7), (8, 14)):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [(u, v, rng.randrange(2)) for u, v in rng.sample(pairs, m)]
        g = ColoredGraph(n, edges, vertex_colors=[rng.randrange(2) for _ in range(n)])
        graphs.append(disjoint_union(g, random_relabel(g, seed=n)[0]))
    return graphs


@pytest.fixture(scope="module")
def pinned_certificates():
    """[(certificates in mode order, reduce digest or None)] per graph and k"""
    return [
        (
            tuple(certify(g, k, mode) for mode in ("fast", "verified", "canonical")),
            None if g.directed else reduce_graph(g, k)[1].digest,
        )
        for g in _pinned_graphs()
        for k in (1, 2)
    ]


def test_certificates_and_reduction_digests_are_pinned(pinned_certificates):
    h = hashlib.sha256()
    for certs, reduced in pinned_certificates:
        for c in certs:
            h.update(c.digest + repr((c.trace, c.orbit_flag)).encode("ascii"))
        if reduced is not None:
            h.update(reduced)
    assert h.hexdigest() == PINNED_SHA256


def test_search_node_counts_are_pinned(pinned_certificates):
    nodes = [tuple(c.nodes for c in certs) for certs, _ in pinned_certificates]
    assert nodes == [row[k] for row in PINNED_NODES for k in (1, 2)]
