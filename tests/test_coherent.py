from __future__ import annotations

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wlkit.coherent as coherent
import wlkit.refine as refine_module
from test_refine import reference_refine
from conftest import (
    colored_graphs,
    constant_salts,
    full_rounds,
    hashed_rounds,
    same_partition,
    traced_peak,
    twin_pair_graph,
    two_valued_salts,
)
from wlkit import kernels
from wlkit.canon import certify
from wlkit.coherent import (
    CoherentConfig,
    cellular_closure,
    config_graph,
    graph_seed,
    klein_merge_groups,
    klein_relation_count,
    klein_scheme,
    merge_relations,
    parse_scheme,
    psi_twist,
    scheme_graph,
    serialize_scheme,
    validate,
)
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
from wlkit.graph import ColoredGraph
from wlkit.limits import DEFAULT_LIMITS
from wlkit.refine import refine_2

PROPERTY = settings(max_examples=150, deadline=None)


# -- validation ---------------------------------------------------------------


def two_point_config() -> CoherentConfig:
    return CoherentConfig(n=2, s=2, rel=np.array([[0, 1], [1, 0]]))


def test_validate_accepts_the_two_point_scheme():
    rep = validate(two_point_config())
    assert rep.ok
    assert rep.transpose_map == [0, 1]
    assert rep.intersection[1][(0, 1)] == 1


def test_validate_flags_missing_labels():
    c = CoherentConfig(n=2, s=3, rel=np.array([[0, 2], [2, 0]]))
    rep = validate(c)
    assert not rep.ok and rep.axiom == 0


def test_validate_flags_diagonal_leak():
    c = CoherentConfig(n=2, s=2, rel=np.array([[0, 1], [1, 1]]))
    rep = validate(c)
    assert not rep.ok and rep.axiom == 1


def test_validate_flags_broken_transpose():
    rel = np.array([[0, 1, 1], [1, 0, 1], [1, 2, 0]])
    rep = validate(CoherentConfig(n=3, s=3, rel=rel))
    assert not rep.ok and rep.axiom == 2


def test_validate_flags_inconsistent_intersection_numbers():
    # the path 0-1-2 with plain adjacency: 1-step counts differ inside
    # the adjacency relation, so it cannot be coherent
    rel = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    rep = validate(CoherentConfig(n=3, s=3, rel=rel))
    assert not rep.ok and rep.axiom == 3
    assert rep.witness is not None


def reference_validate(c: CoherentConfig) -> dict:
    """The axioms checked cell by cell, one np.unique per cell: the witness
    of each axiom is the first failure of a row-major scan, diagonal ids
    taken in ascending order."""
    rel = c.rel
    n = c.n
    if rel.shape != (n, n):
        return dict(ok=False, axiom=0, witness=(rel.shape, (n, n)))
    present = np.unique(rel)
    if rel.min() < 0 or rel.max() >= c.s or present.shape[0] != c.s:
        missing = sorted(set(range(c.s)) - set(int(x) for x in present))
        return dict(ok=False, axiom=0, witness=tuple(missing))
    diag_ids = set(int(x) for x in np.unique(np.diag(rel)))
    off = ~np.eye(n, dtype=bool)
    for did in sorted(diag_ids):
        cells = np.argwhere((rel == did) & off)
        if cells.shape[0]:
            x, y = (int(v) for v in cells[0])
            return dict(ok=False, axiom=1, witness=(did, x, y))
    tmap = [-1] * c.s
    for rid in range(c.s):
        xs, ys = np.nonzero(rel == rid)
        tvals = np.unique(rel[ys, xs])
        if tvals.shape[0] != 1:
            x, y = int(xs[0]), int(ys[0])
            return dict(ok=False, axiom=2, witness=(rid, x, y))
        tmap[rid] = int(tvals[0])
    sparse: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    exemplar: dict[int, tuple[int, int]] = {}
    for x in range(n):
        row = rel[x, :] * c.s
        for y in range(n):
            rid = int(rel[x, y])
            codes, counts = np.unique(row + rel[:, y], return_counts=True)
            got = sparse.get(rid)
            if got is None:
                sparse[rid] = (codes, counts)
                exemplar[rid] = (x, y)
            elif not (
                np.array_equal(got[0], codes) and np.array_equal(got[1], counts)
            ):
                return dict(ok=False, axiom=3, witness=(rid, x, y, *exemplar[rid]))
    inter = {
        rid: {
            (int(code) // c.s, int(code) % c.s): int(cnt)
            for code, cnt in zip(codes, counts)
        }
        for rid, (codes, counts) in sparse.items()
    }
    return dict(ok=True, transpose_map=tmap, intersection=inter)


def assert_matches_reference(c: CoherentConfig, codes=np.int32) -> None:
    want = reference_validate(c)
    rep = validate(c)
    assert rep.ok == want["ok"]
    assert rep.axiom == want.get("axiom")
    assert rep.witness == want.get("witness")
    assert rep.transpose_map == want.get("transpose_map")
    assert rep.intersection == want.get("intersection")
    if rep.witness is not None and rep.axiom != 0:
        assert all(type(v) is int for v in rep.witness)
    if rep.ok:
        assert rep.code_rows.dtype == codes


@st.composite
def relation_matrices(draw):
    """Small matrices, symmetric or not, with the diagonal ids kept apart
    from the rest or not, ids mostly made dense, and s sometimes one off."""
    n = draw(st.integers(1, 6))
    rel = np.asarray(
        draw(st.lists(st.integers(0, 4), min_size=n * n, max_size=n * n)),
        dtype=np.int64,
    ).reshape(n, n)
    if draw(st.booleans()):
        rel = np.triu(rel) + np.triu(rel, 1).T
    if draw(st.booleans()):
        rel = rel + 5 * (1 - np.eye(n, dtype=np.int64))
    if draw(st.sampled_from([True, True, True, False])):
        rel = np.unique(rel, return_inverse=True)[1].reshape(n, n)
    s = max(0, int(rel.max()) + 1 + draw(st.sampled_from([0] * 6 + [-1, 1])))
    return CoherentConfig(n=n, s=s, rel=rel)


@st.composite
def klein_variants(draw):
    """Klein schemes, psi-twisted or not, with one cell changed, with an
    off-diagonal cell moved into the relation of another and its transpose
    into that relation's transpose (transpose-compatible, so the stop check
    builds one relation of each transpose pair, then the partners of those
    that fail), or their role-merged seeds (not coherent)."""
    g = draw(st.sampled_from([complete(4), complete_bipartite(3, 3)]))
    c = klein_scheme(g)
    for fibre in draw(st.lists(st.integers(0, g.n - 1), max_size=2)):
        c = psi_twist(c, fibre)
    kind = draw(st.sampled_from(["scheme", "cell", "transposed", "merged"]))
    if kind == "cell":
        x, y = draw(st.integers(0, c.n - 1)), draw(st.integers(0, c.n - 1))
        c.rel[x, y] = draw(st.integers(0, c.s - 1))
    elif kind == "transposed":
        off = [(x, y) for x in range(c.n) for y in range(c.n) if x != y]
        (x, y), (u, v) = draw(st.sampled_from(off)), draw(st.sampled_from(off))
        c.rel[x, y], c.rel[y, x] = c.rel[u, v], c.rel[v, u]
    elif kind == "merged":
        seed = merge_relations(c, klein_merge_groups(c))
        c = CoherentConfig(n=c.n, s=int(seed.max()) + 1, rel=seed)
    return c


@st.composite
def closed_graphs(draw):
    """Closures of small colored graphs (coherent), with one cell changed."""
    g, cols = draw(colored_graphs(max_n=6).filter(lambda case: case[0].n > 0))
    c = cellular_closure(g.with_vertex_colors(cols.tolist()))
    if draw(st.booleans()):
        x, y = draw(st.integers(0, c.n - 1)), draw(st.integers(0, c.n - 1))
        c.rel[x, y] = draw(st.integers(0, c.s - 1))
    return c


@PROPERTY
@given(st.one_of(relation_matrices(), klein_variants(), closed_graphs()))
def test_validate_matches_the_cell_by_cell_reference(c):
    # also in stop-check blocks of one and of three rows, so block edges
    # are crossed; codes are int32 here, and int64 when the limit is forced
    # down
    for cells in (kernels._PAIR_CELLS, c.n, 3 * c.n):
        with mock.patch.object(kernels, "_PAIR_CELLS", cells):
            assert_matches_reference(c)
            with mock.patch.object(kernels, "_INT32_LIMIT", 1):
                assert_matches_reference(c, np.int64)


@pytest.mark.parametrize("n, codes", [(215, np.int32), (216, np.int64)])
def test_validate_codes_are_int32_exactly_below_the_limit(n, codes):
    # a discrete configuration is coherent with s = n^2 relations: s^2 is
    # below 2^31 at n = 215 and above it at n = 216.  The exemplar rows of
    # the last two x hold the largest codes, which must be exact
    s = n * n
    rel = np.arange(s, dtype=np.int64).reshape(n, n)
    rep = validate(CoherentConfig(n=n, s=s, rel=rel))
    assert rep.ok and rep.code_rows.dtype == codes
    for x in (n - 2, n - 1):
        # row y: the sorted rel[x, z] * s + rel[z, y] over z
        want = np.sort(rel[x][None, :] * s + rel.T, axis=1)
        assert np.array_equal(rep.code_rows[x * n : (x + 1) * n], want)


def test_validate_names_the_smallest_leaking_diagonal_id():
    # diagonal ids {1, 8}: 8 leaks first in row-major order (and a Python
    # set of them iterates 8 before 1), but the witness is id 1
    rel = np.array([[1, 8, 0, 2], [3, 8, 4, 5], [6, 7, 1, 0], [0, 0, 1, 8]])
    c = CoherentConfig(n=4, s=9, rel=rel)
    rep = validate(c)
    assert (rep.axiom, rep.witness) == (1, (1, 3, 2))
    assert_matches_reference(c)


def test_validate_of_the_empty_configuration():
    assert validate(CoherentConfig(n=0, s=0, rel=np.zeros((0, 0), dtype=np.int64))).ok
    rep = validate(CoherentConfig(n=0, s=2, rel=np.zeros((0, 0), dtype=np.int64)))
    assert (rep.ok, rep.axiom, rep.witness) == (False, 0, (0, 1))


# -- cellular closure ----------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: cycle(6),
        lambda: path(4),
        lambda: complete(4),
        petersen,
        bowtie,
        lambda: complete_bipartite(3, 3),
        lambda: random_graph(9, 0.4, seed=4),
        lambda: random_graph(9, 0.6, seed=5),
    ],
)
def test_closure_matches_the_two_dim_pair_partition(make):
    g = make()
    c = cellular_closure(g)
    assert validate(c).ok
    tc = refine_2(g)
    assert same_partition(c.rel.reshape(-1), tc.colors)


@settings(max_examples=300, deadline=None)
@given(colored_graphs(max_n=7, max_code=3))
def test_closure_matches_the_two_dim_pair_partition_of_random_colored_graphs(case):
    # directed or not, with edge and vertex colors: the closure keeps the
    # vertex colors on the diagonal alone, refine_k in every iso type, and
    # the two still end at one partition
    g, cols = case
    if g.n == 0:
        return
    c = cellular_closure(g.with_vertex_colors(cols.tolist()))
    assert validate(c).ok
    assert same_partition(c.rel, refine_2(g, vertex_colors=cols).colors)


def reference_closure(seed: np.ndarray) -> np.ndarray:
    """The closure's former round loop of its own: the diagonal forced apart,
    then rows [c | sorted c(x, z) * s + c(z, y) over z] written in place
    and ranked with np.unique each round until the ranks stop changing;
    ids then renumbered diagonal relations first, each part in its order."""
    n = seed.shape[0]

    def rank(rows):
        return np.unique(rows, axis=0, return_inverse=True)[1].reshape(n, n)

    cur = rank((seed * 2 + np.eye(n, dtype=np.int64)).reshape(n * n, 1))
    rows = np.empty((n * n, n + 1), dtype=np.int64)
    codes = rows.reshape(n, n, n + 1)[:, :, 1:]
    while True:
        s = int(cur.max()) + 1
        rows[:, 0] = cur.ravel()
        np.multiply(cur[:, None, :], s, out=codes)
        codes += cur.T[None, :, :]
        codes.sort(axis=2)
        nxt = rank(rows)
        if np.array_equal(nxt, cur):
            break
        cur = nxt
    diag = sorted(set(np.diag(cur).tolist()))
    rest = sorted(set(cur.ravel().tolist()) - set(diag))
    new_id = {rid: i for i, rid in enumerate(diag + rest)}
    return np.array([[new_id[v] for v in row] for row in cur.tolist()], dtype=np.int64)


@st.composite
def colored_graph_seeds(draw):
    g, cols = draw(colored_graphs(max_n=6).filter(lambda case: case[0].n > 0))
    return graph_seed(g.with_vertex_colors(cols.tolist()))


CLOSURE_SEEDS = st.one_of(
    relation_matrices().map(lambda c: c.rel),
    klein_variants().map(lambda c: c.rel),
    colored_graph_seeds(),
)


def assert_same_closure(got: np.ndarray, want: np.ndarray) -> None:
    """The same partition and s as `want`, diagonal relations first."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert same_partition(got, want) and got.max() == want.max()
    ndiag = len(set(np.diag(want).tolist()))
    assert set(np.diag(got).tolist()) == set(range(ndiag))


def relabeled(rel: np.ndarray, perm: np.ndarray) -> np.ndarray:
    return rel[np.ix_(perm, perm)]


def exact_rounds(seed) -> list[int]:
    """The class count of each exact stop check a closure of `seed` runs."""
    counts = []
    real_check = refine_module.stop_check

    def check_spy(colors, n, ncolors):
        counts.append(ncolors)
        return real_check(colors, n, ncolors)

    with mock.patch.object(refine_module, "stop_check", check_spy):
        cellular_closure(seed)
    return counts


@PROPERTY
@given(CLOSURE_SEEDS)
def test_closure_matches_the_reference_round_loop(seed):
    # the hashed rounds number classes their own way, so the ids are not
    # the reference's; with constant salts no hashed round splits, the exact
    # loop does every round and the ids are the reference's byte for byte
    want = reference_closure(seed)
    assert_same_closure(cellular_closure(seed).rel, want)
    with mock.patch.object(refine_module, "_salts", constant_salts):
        assert cellular_closure(seed).rel.tobytes() == want.tobytes()


@PROPERTY
@given(CLOSURE_SEEDS, st.randoms(use_true_random=False))
def test_closure_is_relabeling_equivariant(seed, rnd):
    perm = np.asarray(rnd.sample(range(seed.shape[0]), seed.shape[0]), dtype=np.int64)
    got = cellular_closure(relabeled(seed, perm)).rel
    assert got.tobytes() == relabeled(cellular_closure(seed).rel, perm).tobytes()


@settings(max_examples=60, deadline=None)
@given(CLOSURE_SEEDS, st.randoms(use_true_random=False))
def test_two_valued_salts_keep_the_partition_and_equivariance(seed, rnd):
    # collisions everywhere: the exact loop finishes what the hash missed
    perm = np.asarray(rnd.sample(range(seed.shape[0]), seed.shape[0]), dtype=np.int64)
    with mock.patch.object(refine_module, "_salts", two_valued_salts):
        got = cellular_closure(seed).rel
        back = cellular_closure(relabeled(seed, perm)).rel
    assert_same_closure(got, reference_closure(seed))
    assert back.tobytes() == relabeled(got, perm).tobytes()


@pytest.mark.parametrize("make", [lambda: complete(4), lambda: complete_bipartite(3, 3), petersen])
def test_two_valued_salts_leave_more_exact_rounds(make):
    c = klein_scheme(make())
    seed = merge_relations(c, klein_merge_groups(c))
    want = cellular_closure(seed)
    assert exact_rounds(seed) == [want.s]
    with mock.patch.object(refine_module, "_salts", two_valued_salts):
        counts = exact_rounds(seed)
        got = cellular_closure(seed)
    assert len(counts) > 1 and counts[-1] == want.s
    assert same_partition(got.rel, want.rel)


@pytest.mark.parametrize(
    "make", [lambda: path(7), bowtie, lambda: random_graph(8, 0.5, seed=2)],
)
def test_an_exact_split_finishes_what_colliding_hashes_leave(make):
    # hashes that collide almost everywhere leave classes unsplit, and an
    # exact splitting round, the only rank of n + 1 wide k = 2 rows (those
    # of the classes that split), finishes them: refine_k and the closure
    # still end at the exact stable partitions of their references
    g = make()
    full = []
    real_rank = refine_module.dense_rank_rows

    def rank_spy(rows):
        full.append(rows.shape[1] == g.n + 1 and rows.shape[0] <= g.n**2)
        return real_rank(rows)

    with mock.patch.object(refine_module, "_salts", two_valued_salts), \
            mock.patch.object(refine_module, "dense_rank_rows", rank_spy):
        tc = refine_2(g)
        assert any(full)
        full.clear()
        c = cellular_closure(g)
        assert any(full)
    assert same_partition(tc.colors, reference_refine(g, 2)[0])
    assert_same_closure(c.rel, reference_closure(graph_seed(g)))


@settings(max_examples=60, deadline=None)
@given(CLOSURE_SEEDS, st.integers(2, 9))
def test_past_the_hash_bound_the_products_run_in_chunks(seed, bound):
    # from _HASH_MAX_N vertices up each hashed product sums _HASH_MAX_N - 1
    # columns at a time, reduced mod p between chunks; with the bound
    # patched small the rows and the closure are the one-product ones
    n = seed.shape[0]
    cur = kernels.dense_rank_rows((seed * 2 + np.eye(n, dtype=np.int64)).reshape(-1, 1))
    rows, want = refine_module._hashed_rows(cur, n), cellular_closure(seed).rel
    with mock.patch.object(refine_module, "_HASH_MAX_N", bound):
        assert np.array_equal(refine_module._hashed_rows(cur, n), rows)
        assert cellular_closure(seed).rel.tobytes() == want.tobytes()


@st.composite
def coherent_configs(draw):
    """Klein schemes, psi-twisted or not, and closures of small colored
    graphs."""
    if draw(st.booleans()):
        g, cols = draw(colored_graphs(max_n=6).filter(lambda case: case[0].n > 0))
        return cellular_closure(g.with_vertex_colors(cols.tolist()))
    g = draw(st.sampled_from([complete(4), complete_bipartite(3, 3), petersen()]))
    c = klein_scheme(g)
    for fibre in draw(st.lists(st.integers(0, g.n - 1), max_size=2)):
        c = psi_twist(c, fibre)
    return c


@PROPERTY
@given(coherent_configs())
def test_a_hashed_round_never_splits_a_coherent_configuration(c):
    flat = c.rel.ravel()
    assert np.array_equal(hashed_rounds(flat, c.n)[0], flat)


@pytest.mark.parametrize("m", [5, 10, 20])  # Petersen, Y10, Y20: 40-160 points
def test_merged_klein_closures_make_one_exact_round(m):
    # timing-free: the hashed rounds split as far as the exact ones, class
    # count for class count, and leave the exact loop its stop check alone
    c = klein_scheme(petersen() if m == 5 else generalized_petersen(m, 1))
    seed = merge_relations(c, klein_merge_groups(c))
    assert exact_rounds(seed) == [c.s]
    n = c.n
    cur = kernels.dense_rank_rows((seed * 2 + np.eye(n, dtype=np.int64)).reshape(-1, 1))
    counts = [int(cur.max()) + 1]
    real_rank = refine_module.dense_rank_rows

    def rank_spy(rows):
        ids = real_rank(rows)
        counts.append(int(ids.max()) + 1)
        return ids

    with mock.patch.object(refine_module, "dense_rank_rows", rank_spy):
        hashed_rounds(cur, n)
    assert counts[-1] == counts[-2]  # the last round split nothing
    assert counts[:-1] == full_rounds(cur, n, 2)[1]
    assert counts[-1] == c.s


def test_a_closure_makes_one_exact_n3_pass():
    # the stop check of the round loop is the closure's only n^3 pass: the
    # hashed rounds split as far as exact ones would, and validate's check,
    # called through coherent's own global, does not follow it
    checks, validated = [], []
    real_check = refine_module.stop_check

    def check_spy(colors, n, ncolors):
        out = real_check(colors, n, ncolors)
        checks.append([ncolors, out is None])  # every row agrees with its class's first
        return out

    def validate_spy(colors, n, ncolors):
        validated.append((n, ncolors))
        return real_check(colors, n, ncolors)

    c = klein_scheme(complete_bipartite(3, 3))
    with mock.patch.object(refine_module, "stop_check", check_spy), \
            mock.patch.object(coherent, "stop_check", validate_spy):
        # already coherent: one check, which splits nothing
        fixed = cellular_closure(c.rel)
        assert np.array_equal(fixed.rel, c.rel)
        assert (checks, validated) == ([[c.s, True]], [])
        checks.clear()
        # merged: hashed splitting rounds, then one exact check
        merged = cellular_closure(merge_relations(c, klein_merge_groups(c)))
        assert (checks, validated) == ([[merged.s, True]], [])
        # a direct call still checks axiom 3, with one k = 2 stop check
        assert validate(merged).ok and validated == [(merged.n, merged.s)]


def test_closure_accepts_raw_seed_matrices():
    g = cycle(5)
    c1 = cellular_closure(graph_seed(g))
    c2 = cellular_closure(g)
    assert c1.s == c2.s
    assert same_partition(c1.rel.reshape(-1), c2.rel.reshape(-1))


def test_closure_refuses_a_seed_that_is_not_integer():
    # a float seed used to be truncated: this one closed to s = 2, while the
    # same seed times 10 closes to s = 5.  It is refused before the budget
    # check, so before anything of its size is allocated
    seed = np.array([[1, 0.2, 0.7], [0.2, 1, 0.7], [0.7, 0.7, 1]])
    tight = dataclasses.replace(DEFAULT_LIMITS, memory_bytes=1)
    for bad in (seed, seed.astype(np.float32), seed.astype(object)):
        with pytest.raises(UnsupportedGraphError, match="integers or bools"):
            cellular_closure(bad, limits=tight)
    assert cellular_closure((seed * 10).astype(np.int64)).s == 5
    # integer and bool seeds of any width close as their int64 values do
    want = cellular_closure((seed * 10).astype(np.int64)).rel
    for dtype in (np.int8, np.uint16, np.int32):
        got = cellular_closure((seed * 10).astype(dtype))
        assert got.rel.tobytes() == want.tobytes()
    flags = seed > 0.5
    got = cellular_closure(flags)
    assert got.rel.tobytes() == cellular_closure(flags.astype(np.int64)).rel.tobytes()
    assert got.rel.tobytes() == cellular_closure(flags.tolist()).rel.tobytes()


def test_closure_respects_vertex_colors():
    plain = cellular_closure(cycle(4))
    marked = cellular_closure(cycle(4).with_vertex_colors([1, 0, 0, 0]))
    assert marked.s > plain.s


def test_closure_refuses_a_round_past_memory_bytes():
    tight = dataclasses.replace(DEFAULT_LIMITS, memory_bytes=12_000)
    with pytest.raises(ResourceLimitError, match="memory_bytes") as err:
        cellular_closure(petersen(), limits=tight)
    assert err.value.cap == 12_000 and err.value.required > 12_000
    assert err.value.budget == "memory_bytes"
    small = cellular_closure(cycle(4), limits=tight)
    assert small.s == cellular_closure(cycle(4)).s


def test_closure_of_a_non_square_or_empty_seed():
    with pytest.raises(UnsupportedGraphError, match="square"):
        cellular_closure(np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(UnsupportedGraphError, match="square"):
        cellular_closure(np.zeros(4, dtype=np.int64))
    empty = cellular_closure(np.zeros((0, 0), dtype=np.int64))
    assert (empty.n, empty.s, empty.rel.shape) == (0, 0, (0, 0))


def _validate_required(c: CoherentConfig) -> int:
    """The bytes validate says it needs for `c`."""
    tight = dataclasses.replace(DEFAULT_LIMITS, memory_bytes=1)
    with mock.patch.object(coherent, "DEFAULT_LIMITS", tight), \
            pytest.raises(ResourceLimitError) as err:
        validate(c)
    return err.value.required


def test_validate_refuses_a_round_past_memory_bytes():
    # validate runs the k = 2 stop check, within a round's estimate, and
    # builds no code rows; it reads DEFAULT_LIMITS at the call
    c = klein_scheme(petersen())
    required = _validate_required(c)
    assert required == refine_module._estimate_bytes(c.n, 2)
    below = dataclasses.replace(DEFAULT_LIMITS, memory_bytes=required - 1)
    with mock.patch.object(coherent, "DEFAULT_LIMITS", below), \
            pytest.raises(ResourceLimitError, match="memory_bytes") as err:
        validate(c)
    assert (err.value.required, err.value.cap) == (required, required - 1)
    assert err.value.budget == "memory_bytes"
    at = dataclasses.replace(DEFAULT_LIMITS, memory_bytes=required)
    with mock.patch.object(coherent, "DEFAULT_LIMITS", at):
        assert validate(c).ok
    # axioms 0-2 need no round: their failures are reported under any cap
    broken = c.copy()
    broken.rel[0, 1] = 0  # a diagonal id off the diagonal
    with mock.patch.object(coherent, "DEFAULT_LIMITS", below):
        assert validate(broken).axiom == 1


def test_intersection_rows_are_built_on_first_read_within_memory_bytes():
    # the s x n code rows come with the first read of `intersection` (or
    # `code_rows`), checked then against DEFAULT_LIMITS: a discrete
    # configuration's stop check fits a cap that its n^3 code rows pass,
    # so the report says the axioms hold and the read is refused
    n = 100
    c = CoherentConfig(n=n, s=n * n, rel=np.arange(n * n).reshape(n, n))
    rows = n**3 * np.dtype(np.int32).itemsize
    cap = dataclasses.replace(DEFAULT_LIMITS, memory_bytes=rows)
    with mock.patch.object(coherent, "DEFAULT_LIMITS", cap):
        rep = validate(c)
        assert rep.ok
        with pytest.raises(ResourceLimitError, match="memory_bytes") as err:
            rep.intersection
    assert err.value.required > rows and err.value.cap == rows
    assert err.value.budget == "memory_bytes"
    assert rep.code_rows.shape == (n * n, n)
    # the report keeps its own copy of the ids: a later change to the
    # configuration does not reach its intersection numbers
    c = klein_scheme(petersen())
    rep = validate(c)
    want = validate(c.copy()).intersection
    c.rel[0, 1] = c.rel[0, 2]
    assert rep.intersection == want


def test_intersection_numbers_are_checked_against_memory_bytes_before_they_are_built():
    # a discrete configuration's intersection numbers are n^3 dict entries,
    # some 250 bytes each: 250 MB at 100 points against 4.4 MB of code rows.
    # A cap that the rows fit refuses the entries before any is built
    n = 100
    c = CoherentConfig(n=n, s=n * n, rel=np.arange(n * n).reshape(n, n))
    rep = validate(c)
    cap = 2 * _code_rows_required(rep)

    def refused():
        with pytest.raises(ResourceLimitError, match="memory_bytes") as err:
            rep.intersection
        return err.value

    tight = dataclasses.replace(DEFAULT_LIMITS, memory_bytes=cap)
    with mock.patch.object(coherent, "DEFAULT_LIMITS", tight):
        err, peak = traced_peak(refused)
        assert rep.code_rows.shape == (n * n, n)  # the rows fit the cap
    assert err.budget == "memory_bytes" and err.cap == cap < err.required
    assert err.required >= n**3 * 200 and peak < cap


def test_intersection_numbers_fill_their_dict_a_block_at_a_time():
    # the lists that feed the dict are built a block of rows at a time, so
    # the read peaks little above what it keeps: a discrete 60-point
    # configuration keeps 216000 entries, about 154 bytes each, and peaked
    # at 237 bytes an entry when the lists were as long as the entries
    n = 60
    rep = validate(CoherentConfig(n=n, s=n * n, rel=np.arange(n * n).reshape(n, n)))
    rep.code_rows
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        numbers = rep.intersection
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, numbers.values())) == n**3
    assert peak - base <= 1.2 * (kept - base)


def test_validate_never_holds_the_code_rows_unless_read():
    # Klein Y30, 240 points: its s x n code rows (3.8 MB) pass the traced
    # peak of a validate whose intersection numbers are never read
    c = klein_scheme(generalized_petersen(30, 1))
    rep, peak = traced_peak(lambda: validate(c))
    assert rep.ok
    assert peak < c.s * c.n * np.dtype(np.int32).itemsize
    rows, peak = traced_peak(lambda: rep.code_rows)
    assert rows.dtype == np.int32 and peak >= rows.nbytes


def _code_rows_required(rep) -> int:
    """The bytes a report says its code rows need."""
    tight = dataclasses.replace(DEFAULT_LIMITS, memory_bytes=1)
    with mock.patch.object(coherent, "DEFAULT_LIMITS", tight), \
            pytest.raises(ResourceLimitError) as err:
        rep.code_rows
    return err.value.required


def test_validate_peak_stays_within_its_required_bytes():
    # a discrete configuration has n^3 code cells and its stop check has
    # nothing to compare; a Klein scheme has few, and its check compares
    # every pair's row.  The code rows, built when first read, peak within
    # their own required bytes
    for c in (
        CoherentConfig(n=100, s=100**2, rel=np.arange(100**2).reshape(100, 100)),
        klein_scheme(petersen()),
    ):
        rep, peak = traced_peak(lambda: validate(c))
        assert rep.ok
        assert peak <= _validate_required(c) <= 2 * peak, c.n
        rows, peak = traced_peak(lambda: rep.code_rows)
        assert peak <= _code_rows_required(validate(c)) <= 2 * peak, c.n


def _closure_required(seed) -> int:
    """The bytes cellular_closure says it needs for `seed`."""
    with pytest.raises(ResourceLimitError) as err:
        cellular_closure(seed, limits=dataclasses.replace(DEFAULT_LIMITS, memory_bytes=1))
    return err.value.required


def twin_pair_seed(n: int) -> np.ndarray:
    """The seed of a random graph on n - 1 vertices with a twin of vertex 0
    added: its closure is one swap short of discrete, so its hashed rounds
    run one round at nearly n^2 classes, where a closure peaks."""
    return graph_seed(twin_pair_graph(n))


def test_discrete_closure_peak_stays_within_its_required_bytes():
    # a discrete closure ends in its hashed rounds and needs no stop check;
    # a twin pair's runs one hashed round more.  Either way the required
    # bytes are at most twice the peak
    for n in (100, 160):
        seed = graph_seed(random_graph(n, 0.5, seed=3))
        c, peak = traced_peak(lambda: cellular_closure(seed))
        assert c.s == n * n
        assert peak <= _closure_required(seed) <= 2 * peak, n
        seed = twin_pair_seed(n)
        c, peak = traced_peak(lambda: cellular_closure(seed))
        assert c.s < n * n
        assert peak <= _closure_required(seed) <= 2 * peak, n


def test_closure_peak_with_int64_rows_stays_within_its_required_bytes():
    # a random graph with one pair of twin vertices closes to 220^2 - 438
    # classes, past 46340, so its stop check builds int64 code tables and
    # blocks: the widest a closure can hold, which its required bytes are
    # sized for
    n = 220
    seed = twin_pair_seed(n)
    c, peak = traced_peak(lambda: cellular_closure(seed))
    assert c.s == n * n - 438 and c.s**2 >= 2**31
    assert peak <= _closure_required(seed) <= 2 * peak


def test_a_graph_closure_checks_its_budget_before_the_seed():
    # the seed of a 300-vertex graph builds n x n pair codes and n x n x 4
    # rows, 3.6 MB, before a round would start
    g = random_graph(300, 0.5, seed=3)
    lim = dataclasses.replace(DEFAULT_LIMITS, memory_bytes=1_000_000)
    cellular_closure(cycle(4))  # first-call allocations are not the run's
    with pytest.raises(ResourceLimitError, match="memory_bytes") as err:
        cellular_closure(g, limits=lim)
    assert err.value.budget == "memory_bytes"
    _, peak = traced_peak(lambda: pytest.raises(ResourceLimitError, cellular_closure, g, limits=lim))
    assert peak < lim.memory_bytes


def test_closure_runs_at_exactly_its_required_bytes():
    seed = graph_seed(petersen())
    required = _closure_required(seed)
    at = dataclasses.replace(DEFAULT_LIMITS, memory_bytes=required)
    assert np.array_equal(cellular_closure(seed, limits=at).rel, cellular_closure(seed).rel)
    below = dataclasses.replace(DEFAULT_LIMITS, memory_bytes=required - 1)
    with pytest.raises(ResourceLimitError, match="memory_bytes") as err:
        cellular_closure(seed, limits=below)
    assert (err.value.required, err.value.cap) == (required, required - 1)
    assert err.value.budget == "memory_bytes"


def test_small_rounds_stay_within_their_required_bytes():
    # below about 8 points the Python and numpy objects of a call outweigh
    # a round's arrays; the fixed term `refine._CALL_BYTES` budgets them.
    # Each call gets a new graph, so it builds the graph's codes itself
    def refine_required(g, k):
        tight = dataclasses.replace(DEFAULT_LIMITS, memory_bytes=1)
        with pytest.raises(ResourceLimitError) as err:
            refine_module.refine_k(g, k, limits=tight)
        return err.value.required

    cellular_closure(cycle(4))  # first-call allocations are not the run's
    discrete = CoherentConfig(n=2, s=4, rel=np.array([[0, 2], [3, 1]]))
    rep, peak = traced_peak(lambda: validate(discrete))
    assert rep.ok and peak <= _validate_required(discrete)
    for n in range(2, 9):
        edges = random_graph(n, 0.5, seed=1).edge_list()
        for directed in (False, True):
            def fresh():
                return ColoredGraph(n, edges, directed)

            for k in (1, 2, 3):
                g = fresh()
                _, peak = traced_peak(lambda: refine_module.refine_k(g, k))
                assert peak <= refine_required(fresh(), k), (n, directed, k)
            g = fresh()
            c, peak = traced_peak(lambda: cellular_closure(g))
            assert peak <= _closure_required(fresh()), (n, directed)
            _, peak = traced_peak(lambda: validate(c))
            assert peak <= _validate_required(c), (n, directed)


def test_closure_output_is_diagonal_first():
    c = cellular_closure(cycle(6))
    diag_ids = sorted(set(int(v) for v in np.diag(c.rel)))
    off_ids = set(int(v) for v in c.rel[~np.eye(c.n, dtype=bool)])
    assert diag_ids == list(range(len(diag_ids)))
    assert min(off_ids) == len(diag_ids)


def test_closure_moves_diagonal_ids_first_and_keeps_the_rest_in_order():
    # the diagonal seed value sorts last, so before the diagonal-first remap
    # the diagonal relations hold the highest ids of the stable partition.
    # Under constant salts the exact loop numbers the classes: ends, middle;
    # then non-adjacent pairs by distance, then adjacent ones
    seed = np.array([[5, 1, 0, 0], [1, 5, 1, 0], [0, 1, 5, 1], [0, 0, 1, 5]])
    with mock.patch.object(refine_module, "_salts", constant_salts):
        assert cellular_closure(seed).rel.tolist() == [
            [0, 5, 3, 2], [6, 1, 7, 4], [4, 7, 1, 6], [2, 3, 5, 0],
        ]
    # under the real salts the hashed rounds order the split classes by
    # their hashes: the same partition, diagonal relations still first
    assert cellular_closure(seed).rel.tolist() == [
        [0, 7, 2, 4], [5, 1, 6, 3], [3, 6, 1, 5], [4, 2, 7, 0],
    ]


# -- Klein schemes ----------------------------------------------------------------


def test_counts_against_the_combinatorial_formula():
    for g, pts in ((complete(4), 16), (complete_bipartite(3, 3), 24), (petersen(), 40)):
        c = klein_scheme(g)
        m = g.num_edges
        assert c.n == pts == 4 * g.n
        # 4 ids per fibre, 4 per edge, 1 per ordered non-adjacent pair
        expect = 4 * g.n + 4 * m + (g.n * (g.n - 1) - 2 * m)
        assert c.s == expect == klein_relation_count(g.n, m)
        assert validate(c).ok


def test_frozen_relation_counts():
    assert klein_scheme(complete(4)).s == 40
    assert klein_scheme(complete_bipartite(3, 3)).s == 72


def test_rejects_non_cubic_bases():
    with pytest.raises(UnsupportedGraphError):
        klein_scheme(cycle(4))
    with pytest.raises(UnsupportedGraphError):
        klein_scheme(complete(5))


def test_explicit_ports_validated():
    g = complete(4)
    bad = {v: {u: 1 for u in g.neighbors(v)} for v in range(4)}
    with pytest.raises(UnsupportedGraphError):
        klein_scheme(g, ports=bad)
    good = {v: {u: i + 1 for i, u in enumerate(g.neighbors(v))} for v in range(4)}
    assert validate(klein_scheme(g, ports=good)).ok


def test_roles_cover_every_cell():
    c = klein_scheme(complete(4))
    kinds = {role[0] for role in c.roles.values()}
    assert kinds == {"diag", "fibre", "edge"}
    c2 = klein_scheme(petersen())
    kinds2 = {role[0] for role in c2.roles.values()}
    assert kinds2 == {"diag", "fibre", "edge", "non"}


# -- twisting ------------------------------------------------------------------------


def test_twist_is_an_involution_and_stays_valid():
    c = klein_scheme(complete(4))
    t = psi_twist(c, 0)
    assert not np.array_equal(t.rel, c.rel)
    assert validate(t).ok
    back = psi_twist(t, 0)
    assert np.array_equal(back.rel, c.rel)
    with pytest.raises(ValueError):
        psi_twist(c, 4)


def test_twist_parity_under_certification():
    c = klein_scheme(complete(4))
    ref = certify(config_graph(c), 1, "canonical")
    one = certify(config_graph(psi_twist(c, 0)), 1, "canonical")
    two = certify(config_graph(psi_twist(psi_twist(c, 0), 1)), 1, "canonical")
    assert one.digest != ref.digest
    assert two.digest == ref.digest


def test_scheme_graph_shape():
    sg = scheme_graph(klein_scheme(complete(4)))
    assert sg.n == 16 and sg.directed
    outdeg = {sum(1 for (u, _v) in sg.edges if u == x) for x in range(16)}
    assert outdeg == {15}


def test_config_graph_is_lossless():
    c = klein_scheme(complete(4))
    cg = config_graph(c)
    assert cg.n == c.n and cg.directed
    for x in range(c.n):
        for y in range(c.n):
            if x != y:
                assert cg.edge_color(x, y) == int(c.rel[x, y])


# -- merging -------------------------------------------------------------------------


def test_merge_groups_recover_the_scheme():
    c = klein_scheme(complete(4))
    groups = klein_merge_groups(c)
    assert sorted(len(g) for g in groups) == [4, 4, 4, 4, 12, 12]
    seed = merge_relations(c, groups)
    closed = cellular_closure(seed)
    assert closed.s == c.s
    assert same_partition(closed.rel.reshape(-1), c.rel.reshape(-1))


def test_merge_relations_validates_ids():
    c = klein_scheme(complete(4))
    with pytest.raises(ValueError):
        merge_relations(c, [[0, 1], [1, 2]])
    with pytest.raises(ValueError):
        merge_relations(c, [[0, c.s]])


# -- text format ------------------------------------------------------------------------


def test_scheme_round_trip():
    c = klein_scheme(complete(4))
    back = parse_scheme(serialize_scheme(c))
    assert back.n == c.n and back.s == c.s
    assert np.array_equal(back.rel, c.rel)


@pytest.mark.parametrize(
    "text",
    [
        "r 0 0 0\n",  # cell before header
        "p cc 1 1\n",  # missing cells
        "p cc 1 1\nr 0 0 0\nr 0 0 0\n",  # duplicate cell
        "p cc 1 2\nr 0 0 0\n",  # id 1 never used
        "p cc 1 1\nr 0 0 5\n",  # id out of range
        "p cc 1 1\nq\n",  # unknown record
        "p cc 0 3\n",  # no points, yet three relation ids
    ],
)
def test_scheme_parse_errors(text):
    with pytest.raises(ParseError):
        parse_scheme(text)
