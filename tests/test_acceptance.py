"""End-to-end acceptance checks.

Each numbered test covers one acceptance criterion, prints a PASS line with
its wall-clock time, and asserts the stated runtime budget.  The expected
values come from exhaustive oracles (`wlkit.oracle`), independent
combinatorial formulas recomputed inline, or exact structural statements.
The last test pins the cheap cells of the paper's separation table.
"""
from __future__ import annotations

import itertools
import math
import time
import timeit

import numpy as np
import pytest

from conftest import crown_graph, doubled_graph, same_partition
from wlkit.canon import certify
from wlkit.cfi import cfi_build
from wlkit.coherent import (
    cellular_closure,
    config_graph,
    klein_relation_count,
    klein_scheme,
    psi_twist,
    scheme_graph,
    validate,
)
from wlkit.cws import _Scan, _vertex_set, closure, reduce_graph
from wlkit.bench import fit_exponent
from wlkit.families import (
    bowtie,
    complete,
    complete_bipartite,
    cycle,
    hypercube,
    path,
    petersen,
    random_graph,
    rook_4x4,
    shrikhande,
)
from wlkit.graph import (
    ColoredGraph,
    disjoint_union,
    min_separator_size,
    random_relabel,
)
from wlkit.limits import DEFAULT_LIMITS
from wlkit.oracle import is_isomorphism, iso_oracle, orbits_oracle
from wlkit.refine import project, refine_k, similar_k, vertex_classes


def _report(num: int, name: str, t0: float) -> None:
    print(f"criterion {num:02d} PASS {name} ({time.time() - t0:.1f}s)")


@pytest.fixture(scope="module")
def composites():
    """The two 80-vertex gadget composites and their reductions."""
    base = complete(4)
    plain, _ = cfi_build(base)
    twisted, _ = cfi_build(base, twisted=((0, 1),))
    relabeled, _ = random_relabel(plain, seed=5)
    non_iso = disjoint_union(plain, twisted)
    iso = disjoint_union(plain, relabeled)
    tree_non, cert_non = reduce_graph(non_iso)
    tree_iso, cert_iso = reduce_graph(iso)
    return {
        "plain": plain,
        "twisted": twisted,
        "non_iso": non_iso,
        "iso": iso,
        "tree_non": tree_non,
        "cert_non": cert_non,
        "tree_iso": tree_iso,
        "cert_iso": cert_iso,
    }


def test_criterion_01_twist_parity_of_all_gadget_variants():
    t0 = time.time()
    base = complete(4)
    edges = [(u, v) for u, v, _ in base.edge_list()]
    digests: dict[int, set[bytes]] = {0: set(), 1: set()}
    for r in range(len(edges) + 1):
        for twist in itertools.combinations(edges, r):
            g, _ = cfi_build(base, twisted=twist)
            digests[r % 2].add(certify(g, 2, "canonical").digest)
    # the digest is a function of twist-count parity and nothing else
    assert len(digests[0]) == 1
    assert len(digests[1]) == 1
    assert digests[0] != digests[1]
    # explicit oracle confirmation on one pair of each kind
    plain, _ = cfi_build(base)
    even, _ = cfi_build(base, twisted=((0, 1), (2, 3)))
    odd, _ = cfi_build(base, twisted=((0, 1),))
    mapping = iso_oracle(plain, even)
    assert mapping is not None and is_isomorphism(plain, even, mapping)
    assert iso_oracle(plain, odd) is None
    assert time.time() - t0 < 300
    _report(1, "gadget twist parity over all 64 twist sets", t0)


def test_criterion_02_low_dim_equivalence_of_the_gadget_pair():
    t0 = time.time()
    assert min_separator_size(complete(4)) == 3
    plain, _ = cfi_build(complete(4))
    twisted, _ = cfi_build(complete(4), twisted=((0, 1),))
    assert similar_k(plain, twisted, 1)
    assert similar_k(plain, twisted, 2)
    assert time.time() - t0 < 60
    _report(2, "twisted pair is 1- and 2-indistinguishable", t0)


def test_criterion_03_recursive_certificates_characterize_the_pair():
    t0 = time.time()
    plain, _ = cfi_build(complete(4))
    twisted, _ = cfi_build(complete(4), twisted=((0, 1),))
    cp = certify(plain, 2, "canonical")
    ct = certify(twisted, 2, "canonical")
    assert cp.digest != ct.digest
    for seed in range(20):
        rp, _ = random_relabel(plain, seed=seed)
        rt, _ = random_relabel(twisted, seed=1000 + seed)
        assert certify(rp, 2, "canonical").digest == cp.digest
        assert certify(rt, 2, "canonical").digest == ct.digest
    assert time.time() - t0 < 600
    _report(3, "recursive 2-dim digests split the pair, stable over 20 relabelings", t0)


def test_criterion_04_fibre_scheme_validity_and_twist_parity():
    t0 = time.time()
    for make in (lambda: complete(4), lambda: complete_bipartite(3, 3), petersen):
        g = make()
        c = klein_scheme(g)
        assert validate(c).ok
        once = psi_twist(c, 0)
        assert np.array_equal(psi_twist(once, 0).rel, c.rel)  # involution
        assert validate(once).ok
        ref = certify(config_graph(c), 1, "canonical")
        one = certify(config_graph(once), 1, "canonical")
        two = certify(config_graph(psi_twist(once, 1)), 1, "canonical")
        assert one.digest != ref.digest
        assert two.digest == ref.digest
    assert time.time() - t0 < 120
    _report(4, "scheme validity, involution, and twist parity on 3 bases", t0)


def test_criterion_05_fibre_scheme_counts():
    t0 = time.time()
    for g, expect_points in ((complete(4), 16), (complete_bipartite(3, 3), 24)):
        c = klein_scheme(g)
        s, m = g.n, g.num_edges
        # independent recount: 4 ids per fibre, 4 per edge (two directions,
        # two relations each), 1 per ordered non-adjacent pair
        expect_relations = 4 * s + 4 * m + (s * (s - 1) - 2 * m)
        assert c.n == expect_points
        assert c.s == expect_relations == klein_relation_count(s, m)
    assert klein_scheme(complete(4)).s == 40
    assert klein_scheme(complete_bipartite(3, 3)).s == 72
    _report(5, "scheme point/relation counts match the formula", t0)


def test_criterion_06_structural_theorems_on_random_graphs():
    t0 = time.time()
    checked = 0
    for seed in range(200):
        n = 6 + seed % 7
        p = (0.3, 0.5, 0.7)[seed % 3]
        g = random_graph(n, p, seed=seed)
        orbits = orbits_oracle(g)
        for k in (2, 3):
            tc = refine_k(g, k)
            vc = vertex_classes(tc)
            # (a) re-refining on the projected classes is a fixpoint
            again = refine_k(g.with_vertex_colors(vc.tolist()), k)
            assert same_partition(tc.colors, again.colors)
            # (d) stable classes never split true orbits
            for orb in orbits:
                assert len({int(vc[v]) for v in orb}) == 1
            # (b) closures of full color classes include each other or neither
            members: dict[int, list[int]] = {}
            for v in range(n):
                members.setdefault(int(vc[v]), []).append(v)
            cls = {c: closure(g, vc, vs) for c, vs in members.items()}
            for c1, c2 in itertools.combinations(members, 2):
                fwd = set(members[c2]) <= cls[c1]
                bwd = set(members[c1]) <= cls[c2]
                assert fwd == bwd
            if k == 3:
                # (c) equal pair colors force matching closures: same size,
                # same class histogram, same primality verdict
                pair_colors = project(tc, 2).colors.reshape(n, n)
                scan = _Scan(g, vc, DEFAULT_LIMITS)
                scan.close_pairs(itertools.combinations(range(n), 2))
                buckets: dict[int, tuple] = {}
                for x in range(n):
                    for y in range(n):
                        if x == y:
                            continue
                        row = scan.cl[min(x, y), max(x, y)]
                        s = _vertex_set(row)
                        hist = tuple(sorted(int(vc[v]) for v in s))
                        sig = (len(s), hist, scan.is_prime(row))
                        c = int(pair_colors[x, y])
                        if c in buckets:
                            assert buckets[c] == sig
                        else:
                            buckets[c] = sig
        checked += 1
    assert checked == 200
    assert time.time() - t0 < 900
    _report(6, "projection/closure/orbit theorems on 200 random graphs", t0)


def test_criterion_07_closure_equals_the_pair_partition():
    t0 = time.time()
    suite = [
        cycle(6),
        path(4),
        complete(4),
        complete_bipartite(3, 3),
        petersen(),
        bowtie(),
        shrikhande(),
        rook_4x4(),
        crown_graph(),
        random_graph(10, 0.4, seed=11),
        random_graph(10, 0.6, seed=12),
    ]
    for g in suite:
        c = cellular_closure(g)
        assert validate(c).ok
        tc = refine_k(g, 2)
        assert same_partition(c.rel.reshape(-1), tc.colors)
    _report(7, "cellular closure equals the stable 2-dim pair partition", t0)


def test_criterion_08_reduction_pipeline(composites):
    t0 = time.time()
    # plain 2-dim refinement cannot tell the composites apart ...
    assert similar_k(composites["non_iso"], composites["iso"], 2)
    # ... but the contraction pipeline separates them at the same dimension
    assert composites["cert_non"].digest != composites["cert_iso"].digest
    relabeled, _ = random_relabel(composites["iso"], seed=21)
    _, cert_again = reduce_graph(relabeled)
    assert cert_again.digest == composites["cert_iso"].digest
    assert time.time() - t0 < 900
    _report(8, "contraction pipeline separates 2-similar composites", t0)


def test_criterion_09_reduction_depth_bound(composites):
    t0 = time.time()
    fixtures = [
        (composites["tree_non"], composites["non_iso"].n),
        (composites["tree_iso"], composites["iso"].n),
    ]
    for g in (
        disjoint_union(cycle(6), cycle(6)),
        disjoint_union(complete(3), complete(3)),
        crown_graph(),
    ):
        tree, _ = reduce_graph(g)
        fixtures.append((tree, g.n))
    for tree, nverts in fixtures:
        assert tree.depth <= math.ceil(math.log2(nverts))
    _report(9, "reduction depth stays within ceil(log2 n)", t0)


def test_criterion_10_strongly_regular_pair():
    t0 = time.time()
    a, b = shrikhande(), rook_4x4()
    assert similar_k(a, b, 2)
    assert not similar_k(a, b, 3)
    ca = certify(a, 3, "canonical")
    cb = certify(b, 3, "canonical")
    assert ca.digest != cb.digest
    assert iso_oracle(a, b) is None
    assert time.time() - t0 < 1200
    _report(10, "strongly regular pair: 2-dim blind, 3-dim sharp, oracle-confirmed", t0)


def test_criterion_11_scaling_smoke():
    t0 = time.time()
    # a random graph goes discrete in hashed rounds and never shows the
    # exact round.  A random graph beside a relabeled copy has two pairs in
    # every stable class, so the stop check builds all n^2 rows, n^3 codes;
    # at n = 120-260 its codes stay int32.  Best of 15 rides out a shared
    # host's stalls (the fit read 2.9-3.1 over six processes, OpenBLAS at
    # one thread or its default two)
    graphs = {n: doubled_graph(n) for n in (120, 180, 260)}
    rows = [
        {"n": n, "seconds": min(timeit.repeat(lambda: refine_k(g, 2), number=1, repeat=15))}
        for n, g in graphs.items()
    ]
    exponent = fit_exponent(rows)
    assert 2.2 <= exponent <= 4.2
    _report(11, f"runtime exponent {exponent:.2f} within [2.2, 4.2]", t0)


# -- the paper's separation table, its cheap cells ----------------------------------


SEPARATION_BASES = {
    "K4": lambda: complete(4),
    "K33": lambda: complete_bipartite(3, 3),
    "Q3": lambda: hypercube(3),
    "Petersen": petersen,
}


def _separation_pair(family: str, base: ColoredGraph) -> tuple[ColoredGraph, ColoredGraph]:
    """A CFI gadget against the one with its base's first edge twisted, or a
    Klein scheme graph against its psi-twist at fibre 0."""
    if family == "CFI":
        u, v, _ = base.edge_list()[0]
        return cfi_build(base)[0], cfi_build(base, twisted=((u, v),))[0]
    c = klein_scheme(base)
    return scheme_graph(c), scheme_graph(psi_twist(c, 0))


@pytest.mark.parametrize(
    "family,base,nodes",
    [
        ("CFI", "K4", 10), ("CFI", "K33", 19), ("CFI", "Q3", 18), ("CFI", "Petersen", 30),
        ("Klein", "K4", 8), ("Klein", "K33", 9), ("Klein", "Q3", 15), ("Klein", "Petersen", 16),
    ],
)
def test_separation_table_pins_the_cheap_cells(family, base, nodes):
    # every pair is 2-WL-similar and canonical search separates it at k = 1
    # and at k = 2; `nodes` is the search size of either side at either k
    g, h = _separation_pair(family, SEPARATION_BASES[base]())
    assert similar_k(g, h, 2)
    for k in (1, 2):
        cg, ch = certify(g, k, "canonical"), certify(h, k, "canonical")
        assert cg.digest != ch.digest
        assert (cg.nodes, ch.nodes) == (nodes, nodes)
