"""Coherent configurations: validation, closure, and the Klein-group scheme.

A configuration is stored as an (n, n) matrix of relation ids.  Validation
checks the three axioms: the diagonal is a union of relations, the
transpose of every relation is a relation, and the number of z with
(x, z) in R_i, (z, y) in R_j depends only on the relation of (x, y).  The
third is the k = 2 stop check that ends the closure's round loop, so a
closure needs no separate pass for it.  The closure runs refine's round
loop at k = 2 (`refine.refine_rounds`): the growth loop of hashed rounds,
then the one exact round's stop check (`refine.stop_check`), normally its
one exact pass.  That pass builds the rows of one relation of each
transpose pair (`kernels.unstable_pairs`), about half of the n^3 codes.

The Klein scheme of a cubic graph puts a 4-point fibre on every vertex,
carrying that fibre's identity relation and three pairings (points as 2-bit
vectors; pairing m joins points differing by m).  Every ordered adjacent
fibre pair carries two block relations built from the port numbers of the
edge; every ordered non-adjacent pair carries one full block relation.
Relation ids are absolute: each block's relations are distinct ids, numbered
in a fixed scan order, so two schemes are compared id for id.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels, refine
from .errors import CoherenceError, ParseError, UnsupportedGraphError
from .graph import ColoredGraph
from .kernels import code_dtype, dense_rank_rows, pair_code_rows, pair_tables
from .limits import DEFAULT_LIMITS, Limits
from .records import RecordFormat, Records, Tag, repeats
from .refine import check_round_budget, refine_rounds, stop_check


@dataclass
class CoherentConfig:
    n: int
    s: int
    rel: np.ndarray
    roles: dict[int, tuple] | None = None

    def copy(self) -> "CoherentConfig":
        return CoherentConfig(
            n=self.n, s=self.s, rel=self.rel.copy(),
            roles=dict(self.roles) if self.roles is not None else None,
        )


# bytes of `intersection` a run of equal codes in a code row (its entry,
# key tuple and four Python ints, and its slots in the numpy and list
# temporaries) and a relation (its inner dict).  Traced peak over estimate
# (with the rows): 0.17-0.93 on discrete configurations of 2-100 points,
# trivial ones of 2-400 and Klein schemes of 16-240 (Python 3.11), with
# temporaries as long as all the runs; filled a block of _FILL_CELLS at a
# time, a discrete configuration of 60 points peaks at 156 bytes a run
_RUN_BYTES = 272
_RELATION_BYTES = 256
# code cells whose runs `intersection` turns into entries at a time
_FILL_CELLS = 1 << 12


@dataclass
class ValidationReport:
    ok: bool
    axiom: int | None = None
    witness: tuple | None = None
    transpose_map: list[int] | None = None
    # an ok report keeps a copy of the relation ids and each relation's
    # exemplar, its first cell in row-major order, for `code_rows`
    _source: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)

    @cached_property
    def code_rows(self) -> np.ndarray | None:
        """Row r: the sorted codes i * s + j over z of the relation pairs
        (i, j) of ((x, z), (z, y)), at the exemplar (x, y) of relation r;
        built on first access (None unless ok).  They and the code tables
        they are gathered from must fit `DEFAULT_LIMITS.memory_bytes`, read
        at the access (ResourceLimitError): s x n codes, which under 2 GiB
        admits a Klein scheme up to 1600 points and a discrete configuration
        up to 644, whose rows are n^3 codes."""
        if self._source is None:
            return None
        rel, first = self._source
        n, s = rel.shape[0], first.shape[0]
        dtype = code_dtype(max(2, s), 2)
        size = np.dtype(dtype).itemsize
        # the rows, the two code tables, and a block's column gather and the
        # x and y of its pairs (`kernels.pair_code_rows`)
        step = min(s, max(1, kernels._PAIR_CELLS // n))
        need = refine._CALL_BYTES + (s + 2 * n) * n * size + step * (n * size + 16)
        DEFAULT_LIMITS.check("memory_bytes", need, f"intersection rows of {s} relations at n={n}")
        rows = np.empty((s, n), dtype=dtype)
        pair_code_rows(pair_tables(rel.ravel(), n, max(2, s)), first, rows)
        return rows

    @cached_property
    def intersection(self) -> dict[int, dict[tuple[int, int], int]] | None:
        """relation id -> {(i, j): count of z with (x,z) in i, (z,y) in j};
        built from `code_rows` on first access (None unless ok).  One entry
        a run of equal codes in a row, up to s x n, which with the rows
        must fit `DEFAULT_LIMITS.memory_bytes`, read at the access
        (ResourceLimitError) before the entries are built."""
        rows = self.code_rows
        if rows is None:
            return None
        s, n = rows.shape
        run = np.ones((s, n), dtype=bool)
        run[:, 1:] = rows[:, 1:] != rows[:, :-1]
        runs = int(np.count_nonzero(run))
        need = refine._CALL_BYTES + rows.nbytes + run.nbytes + runs * _RUN_BYTES + s * _RELATION_BYTES
        DEFAULT_LIMITS.check("memory_bytes", need, f"intersection numbers of {runs} runs at n={n}")
        out: dict[int, dict[tuple[int, int], int]] = {rid: {} for rid in range(s)}
        # a block of rows at a time, so the lists that feed the dict stay
        # small beside it (every row starts a run)
        step = max(1, _FILL_CELLS // n)
        for lo in range(0, s, step):
            block = rows[lo : lo + step].ravel()
            starts = np.flatnonzero(run[lo : lo + step])
            counts = np.diff(np.append(starts, block.shape[0]))
            codes = block[starts]
            for rid, i, j, cnt in zip(
                (lo + starts // n).tolist(), (codes // s).tolist(), (codes % s).tolist(),
                counts.tolist(),
            ):
                out[rid][(i, j)] = cnt
        return out


def _check_cells(c: CoherentConfig) -> tuple[ValidationReport, np.ndarray | None]:
    """Axioms 0-2, O(n^2): the failing report, or an ok report with the
    transpose map together with each relation's exemplar, its first cell in
    row-major order (None on failure)."""
    rel = c.rel
    n, s = c.n, c.s
    if rel.shape != (n, n):
        return ValidationReport(ok=False, axiom=0, witness=(rel.shape, (n, n))), None
    flat = rel.ravel()
    inside = (flat >= 0) & (flat < s)
    present = np.zeros(s, dtype=bool)
    present[flat[inside]] = True
    if not (inside.all() and present.all()):
        missing = tuple(np.flatnonzero(~present).tolist())
        return ValidationReport(ok=False, axiom=0, witness=missing), None
    is_diag = np.zeros(s, dtype=bool)
    is_diag[np.diagonal(rel)] = True
    leak = is_diag[rel]
    np.fill_diagonal(leak, False)
    if leak.any():
        cells = np.flatnonzero(leak)
        ids = flat[cells]
        did = int(ids.min())
        x, y = divmod(int(cells[np.argmax(ids == did)]), n)
        return ValidationReport(ok=False, axiom=1, witness=(did, x, y)), None
    first = np.full(s, n * n, dtype=np.int64)
    np.minimum.at(first, flat, np.arange(n * n, dtype=np.int64))
    ex, ey = np.divmod(first, n)
    tmap = rel[ey, ex]
    bad = rel.T != tmap[rel]
    if bad.any():
        rid = int(rel[bad].min())
        witness = (rid, int(ex[rid]), int(ey[rid]))
        return ValidationReport(ok=False, axiom=2, witness=witness), None
    return ValidationReport(ok=True, transpose_map=tmap.tolist()), first


def validate(c: CoherentConfig) -> ValidationReport:
    """Check the configuration axioms; on failure the report names the axiom
    (1 diagonal, 2 transpose, 3 intersection numbers) and a witness cell.

    Each relation's exemplar is its first cell in row-major order.  The
    axiom-1 witness is the smallest leaking diagonal id at its first
    off-diagonal cell; the axiom-2 witness is the smallest relation whose
    cells disagree on the relation of their transpose, at its exemplar; the
    axiom-3 witness is the first cell whose multiset of pairs over z differs
    from its relation's exemplar, followed by that exemplar.

    Axiom 3 is refine's k = 2 stop check on the relation ids
    (`refine.stop_check`): each cell's sorted codes rel[x, z] * s + rel[z, y]
    over z against those of the cell before it in its relation, in blocks,
    which gives, for each relation that fails, its first cell that differs
    from its exemplar; the witness is the first of those.  Axiom 2 holds
    by then, so the check builds the cells of one relation of each
    transpose pair, about n^3 / 2 codes, and then those of the transposes
    of the relations that fail.  The check must
    fit `DEFAULT_LIMITS.memory_bytes`, read at the call
    (ResourceLimitError): under 2 GiB, up to 4230 points.  An ok report
    keeps a copy of the relation ids and the exemplars, and builds the
    exemplars' rows (`code_rows`, s x n codes) only when `intersection` is
    first read, so a caller that asks only whether the axioms hold never
    holds them."""
    report, first = _check_cells(c)
    if first is None:
        return report
    n, s = c.n, c.s
    check_round_budget(f"validation at n={n}", DEFAULT_LIMITS, n, 2)
    flat = c.rel.ravel()
    split = stop_check(flat, n, s)
    if split is not None:
        x, y = divmod(int(split.min()), n)
        rid = int(flat[x * n + y])
        witness = (rid, x, y) + divmod(int(first[rid]), n)
        return ValidationReport(ok=False, axiom=3, witness=witness)
    return ValidationReport(ok=True, transpose_map=report.transpose_map, _source=(c.rel.copy(), first))


def graph_seed(g: ColoredGraph) -> np.ndarray:
    """Seed partition of V x V from a colored graph: diagonal split by vertex
    color, off-diagonal split by edge code in both directions."""
    n = g.n
    p = g.pair_codes()
    vc = np.asarray(g.vertex_colors, dtype=np.int64)
    diag = np.eye(n, dtype=np.int64)
    c0 = diag
    c1 = diag * (1 + vc[:, None])
    c2 = (1 - diag) * p
    c3 = (1 - diag) * p.T
    rows = np.stack([c0, c1, c2, c3], axis=2).reshape(n * n, 4)
    return dense_rank_rows(rows).reshape(n, n)


def cellular_closure(
    seed: np.ndarray | ColoredGraph,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> CoherentConfig:
    """Coarsest coherent configuration refining the seed partition.

    Let P* be the exact stable partition of the seed with the diagonal
    forced apart: where exact 2-dim rounds end, each replacing each cell's
    color with (its color, the multiset over z of the color pair (c(x, z),
    c(z, y))).  The closure runs refine's k = 2 pass
    (`refine.refine_rounds`): hashed rounds, then the exact stop check,
    and on a split an exact round and hashed rounds again.  The result is
    P*, whatever collides (and from any start, so `refine_k(·, 2)`'s
    partition is exact too):
    * A hashed round is a function of each cell's exact row.  P* is stable,
      so if P* refines a coloring C, it refines C's exact round and hence
      C's hashed round.  P* refines the seed, so by induction it refines
      every hashed and every exact iterate.
    * Every round ranks the previous id first, so the pass ends, where the
      stop check finds no split, at a stable partition Q that refines the
      seed.  P* is the coarsest such partition, so Q refines P*; P*
      refines Q by the induction above.  So the result is P*.
    * A collision can only cost an extra exact round.

    The pass's last step, the stop check, compares each cell's row
    with the row before it in its class, which is `validate`'s axiom 3 on
    the result (renumbering ids changes neither side).  Unless a collision
    hid a split, it is the closure's one exact pass, over the rows of one
    relation of each transpose pair (about n^3 / 2 codes), int32 codes
    (int64 once the class count reaches 46341) in cache-sized blocks; a
    discrete result needs none.  The result is then checked against axioms
    0-2, which are O(n^2).

    Ids are the dense ranks of the last splitting round, renumbered
    diagonal relations first, each part in its order.  That round is
    normally a hashed one, ranking (previous id, h_1, h_2) with salts fixed
    by the color id alone.  So ids are relabeling-equivariant whatever
    collides, but no longer the lexicographic order of exact rows.  A
    hashed round cannot split a stable coloring, so a coherent input whose
    diagonal relations hold the lowest ids closes to itself, id for id.
    Each hashed product sums terms below 2^40, fewer than 8192 at a time
    and reduced mod p between chunks (`refine._product_mod`), so it is
    exact in float64 in any order at every n, and the ids do not depend on
    the BLAS or its threads.  The default budget stops the closure at 4230
    points.

    The seed must hold integers or bools (UnsupportedGraphError otherwise,
    before anything of its size is allocated).  Raises ResourceLimitError
    before the first round, and before a graph's seed is built, when a k = 2
    round would need more than `limits.memory_bytes`
    (`refine.check_round_budget`: 120 bytes a pair, where the hashed rounds
    peak; the stop check's blocks fit beside its own arrays), and before an
    exact split builds its rows past it.
    """
    graph = isinstance(seed, ColoredGraph)
    if not graph:
        seed = np.asarray(seed)
        if seed.dtype.kind not in "biu":
            raise UnsupportedGraphError(f"seed must hold integers or bools, not {seed.dtype}")
        if seed.ndim != 2 or seed.shape[0] != seed.shape[1]:
            raise UnsupportedGraphError("seed must be a square matrix")
    n = seed.n if graph else seed.shape[0]
    if n == 0:
        return CoherentConfig(n=0, s=0, rel=np.zeros((0, 0), dtype=np.int64))
    # the closure's rounds are refine's k = 2 rounds, and what it holds
    # besides (O(n^2) ids after the loop; the seed goes before the first
    # round) stays below their per-pair allowance.  Checked against
    # tracemalloc peaks: peak/need 0.92-0.93 at n = 100-220 with one twin
    # pair, 0.85-0.86 for random graphs, 0.46-0.89 for Klein schemes of
    # 40-480 points, merged or not
    check_round_budget(f"cellular closure at n={n}", limits, n, 2)
    # a graph's pair codes and seed rows come only after the budget check
    seed = (graph_seed(seed) if graph else seed).astype(np.int64, copy=False)
    # force the diagonal apart from the rest before refining
    start = seed * 2 + np.eye(n, dtype=np.int64)
    cur = dense_rank_rows(start.reshape(n * n, 1))
    del seed, start  # only the rounds' own arrays are live during them
    cur = refine_rounds(cur, n, 2, limits=limits)[0].reshape(n, n)
    # canonical ids: diagonal relations first, then the rest, old order kept
    on_diag = np.zeros(int(cur.max()) + 1, dtype=bool)
    on_diag[np.diag(cur)] = True
    order = np.concatenate([np.flatnonzero(on_diag), np.flatnonzero(~on_diag)])
    remap = np.empty_like(order)
    remap[order] = np.arange(order.shape[0])
    rel = remap[cur]
    out = CoherentConfig(n=n, s=int(rel.max()) + 1, rel=rel)
    # axiom 3 held at the stop check; a coloring with n^2 classes meets it
    # without one
    report = _check_cells(out)[0]
    if not report.ok:
        raise CoherenceError("closure output failed validation", report.axiom, report.witness)
    return out


def _check_cubic(g: ColoredGraph) -> None:
    if g.directed:
        raise UnsupportedGraphError("the fibre scheme needs an undirected base")
    if g.n == 0:
        raise UnsupportedGraphError("the fibre scheme needs a non-empty base")
    if any(g.degree(v) != 3 for v in range(g.n)):
        raise UnsupportedGraphError("the fibre scheme needs a cubic base")
    if any(c != 0 for _, _, c in g.edge_list()):
        raise UnsupportedGraphError("the fibre scheme needs uncolored base edges")


def klein_scheme(
    g: ColoredGraph,
    ports: dict[int, dict[int, int]] | None = None,
) -> CoherentConfig:
    """Klein-group scheme of a cubic graph: points 4v..4v+3 per vertex v.

    `ports` assigns each vertex a bijection from its neighbors to {1, 2, 3}
    (default: ascending neighbor order).  With points read as 2-bit vectors,
    an edge {i, j} with ports c and c' relates (x, y) by whether x lies in
    {0, c} exactly when y lies in {0, c'}; that block and its complement are
    the edge's two relations, in both directions.
    """
    _check_cubic(g)
    if ports is None:
        ports = {
            v: {u: t + 1 for t, u in enumerate(g.neighbors(v))} for v in range(g.n)
        }
    for v in range(g.n):
        got = ports.get(v)
        if got is None or sorted(got) != g.neighbors(v) or sorted(got.values()) != [1, 2, 3]:
            raise UnsupportedGraphError(
                f"ports of vertex {v} must map its neighbors onto {{1, 2, 3}}"
            )
    n = g.n
    npts = 4 * n
    rel = np.full((npts, npts), -1, dtype=np.int64)
    roles: dict[int, tuple] = {}
    nid = 0
    for i in range(n):
        roles[nid] = ("diag", i)
        for x in range(4):
            rel[4 * i + x, 4 * i + x] = nid
        nid += 1
    for i in range(n):
        for m in (1, 2, 3):
            roles[nid] = ("fibre", i, m)
            for x in range(4):
                rel[4 * i + x, 4 * i + (x ^ m)] = nid
            nid += 1
    adj = {(u, v) for u, v, _ in g.edge_list()} | {(v, u) for u, v, _ in g.edge_list()}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if (i, j) in adj:
                cij, cji = ports[i][j], ports[j][i]
                r1, r2 = nid, nid + 1
                roles[r1] = ("edge", i, j, 1)
                roles[r2] = ("edge", i, j, 2)
                for x in range(4):
                    for y in range(4):
                        same = (x in (0, cij)) == (y in (0, cji))
                        rel[4 * i + x, 4 * j + y] = r1 if same else r2
                nid += 2
            else:
                roles[nid] = ("non", i, j)
                rel[4 * i : 4 * i + 4, 4 * j : 4 * j + 4] = nid
                nid += 1
    assert int(rel.min()) >= 0
    return CoherentConfig(n=npts, s=nid, rel=rel, roles=roles)


def klein_relation_count(num_vertices: int, num_edges: int) -> int:
    """Relation count of the scheme: 4 per fibre, 4 per edge (two ordered
    directions, two relations each), 1 per ordered non-adjacent pair."""
    s, m = num_vertices, num_edges
    return 4 * s + 4 * m + (s * (s - 1) - 2 * m)


def psi_twist(c: CoherentConfig, i: int) -> CoherentConfig:
    """Swap the two relations inside every edge block incident to fibre i
    (both directions).  The relation ids keep their meaning as indices; only
    which cells carry which id changes."""
    if c.n % 4 != 0:
        raise UnsupportedGraphError("twist needs a fibre scheme (4-point fibres)")
    nf = c.n // 4
    if not 0 <= i < nf:
        raise ValueError("fibre index out of range")
    out = c.copy()
    rel = out.rel
    for j in range(nf):
        if j == i:
            continue
        for a, b in ((i, j), (j, i)):
            block = rel[4 * a : 4 * a + 4, 4 * b : 4 * b + 4]
            ids = np.unique(block)
            if ids.shape[0] != 2:
                continue
            r1, r2 = int(ids[0]), int(ids[1])
            mask = block == r1
            block[mask] = r2
            block[~mask] = r1
    return out


def scheme_graph(c: CoherentConfig) -> ColoredGraph:
    """Directed edge-colored graph of a fibre scheme: one di-edge per cell,
    colored by relation id, except the diagonal and the full one-relation
    blocks (non-adjacent fibre pairs)."""
    if c.n % 4 != 0:
        raise UnsupportedGraphError("expected a fibre scheme (4-point fibres)")
    nf = c.n // 4
    edges = []
    for a in range(nf):
        for b in range(nf):
            block = c.rel[4 * a : 4 * a + 4, 4 * b : 4 * b + 4]
            if a == b:
                for x in range(4):
                    for y in range(4):
                        if x != y:
                            edges.append((4 * a + x, 4 * b + y, int(block[x, y])))
                continue
            if np.unique(block).shape[0] < 2:
                continue
            for x in range(4):
                for y in range(4):
                    edges.append((4 * a + x, 4 * b + y, int(block[x, y])))
    return ColoredGraph(c.n, edges, directed=True)


def config_graph(c: CoherentConfig) -> ColoredGraph:
    """Lossless graph form of any configuration: vertices colored by their
    diagonal relation, all off-diagonal cells as colored di-edges."""
    diag = np.diag(c.rel)
    _, inverse = np.unique(diag, return_inverse=True)
    edges = [
        (x, y, int(c.rel[x, y]))
        for x in range(c.n)
        for y in range(c.n)
        if x != y
    ]
    return ColoredGraph(
        c.n, edges, directed=True, vertex_colors=[int(v) for v in inverse]
    )


def merge_relations(c: CoherentConfig, groups: list[list[int]]) -> np.ndarray:
    """Seed matrix with each listed group of relation ids fused into one
    color (unlisted ids stay separate).  The result is generally not
    coherent; feed it to cellular_closure."""
    seen: set[int] = set()
    for grp in groups:
        for rid in grp:
            if not 0 <= rid < c.s:
                raise ValueError(f"relation id {rid} out of range")
            if rid in seen:
                raise ValueError(f"relation id {rid} in two groups")
            seen.add(rid)
    remap = np.empty(c.s, dtype=np.int64)
    nxt = 0
    for grp in groups:
        for rid in grp:
            remap[rid] = nxt
        nxt += 1
    for rid in range(c.s):
        if rid not in seen:
            remap[rid] = nxt
            nxt += 1
    return remap[c.rel]


def klein_merge_groups(c: CoherentConfig) -> list[list[int]]:
    """The role-respecting fusion of a fibre scheme: all fibre identities,
    the three pairing families, the two edge-relation families, and the
    non-adjacent blocks."""
    if c.roles is None:
        raise ValueError("scheme has no role table")
    buckets: dict[tuple, list[int]] = {}
    for rid in range(c.s):
        role = c.roles[rid]
        if role[0] == "diag":
            key = ("diag",)
        elif role[0] == "fibre":
            key = ("fibre", role[2])
        elif role[0] == "edge":
            key = ("edge", role[3])
        else:
            key = ("non",)
        buckets.setdefault(key, []).append(rid)
    order = [("diag",), ("fibre", 1), ("fibre", 2), ("fibre", 3),
             ("edge", 1), ("edge", 2), ("non",)]
    return [buckets[k] for k in order if k in buckets]


def serialize_scheme(c: CoherentConfig) -> str:
    """`p cc <points> <relations>`, then one `r <x> <y> <relation>` line per
    cell in row-major order."""
    n = c.n
    # one row's lines with the row left open, filled in per row
    row = "".join([f"r \0 {y} %d\n" for y in range(n)])
    cells = "".join([row.replace("\0", str(x)) for x in range(n)])
    return f"p cc {n} {c.s}\n" + cells % tuple(np.asarray(c.rel).ravel().tolist())


_SCHEME = RecordFormat(
    "cc",
    Tag("p", (2, 2), "expected `p cc <points> <relations>`", "header counts must be integers"),
    (Tag("r", (3, 3), "expected `r <x> <y> <relation>`", "cell fields must be integers"),),
    unknown="unknown record {!r}",
    early="cell before header",
)


def parse_scheme(text: str) -> CoherentConfig:
    """Parse `serialize_scheme` text; raises ParseError.  Memory stays
    proportional to the text: the n x n matrix is built only once n^2
    well-formed cells have been read."""
    rec = Records(text, _SCHEME)
    f = rec.fields
    n, s = f[rec.heads[0], :2].tolist() if rec.heads.size else (0, 0)
    rec.check(rec.heads[:1], n < 0 or s < 0, lambda r: "header counts must be non-negative")
    cells = rec.after(1)
    x, y, rid = f[cells].T
    outside = (x < 0) | (x >= n) | (y < 0) | (y >= n)
    bad_id = (rid < 0) | (rid >= s)
    rec.check(cells, outside, lambda r: "cell out of range")
    rec.check(cells, bad_id, lambda r: "relation id out of range")
    ok = ~(outside | bad_id)
    cells, x, y, rid = cells[ok], x[ok], y[ok], rid[ok]
    # n^2 cells in range fill the matrix exactly when none repeats
    full = cells.shape[0] == n * n
    if full:
        filled = np.zeros(n * n, dtype=bool)
        filled[x * n + y] = True
        full = bool(filled.all())
    rec.check(cells, not full and repeats(x, y),
              lambda r: f"cell ({f[r, 0]}, {f[r, 1]}) assigned twice")
    rec.finish()
    if not rec.heads.size:
        raise ParseError("missing `p cc` header")
    if cells.shape[0] != n * n:
        raise ParseError(f"expected {n * n} cells, found {cells.shape[0]}")
    rel = np.empty(n * n, dtype=np.int64)
    rel[x * n + y] = rid
    if not np.bincount(rel, minlength=s).all():  # every id is in range by now
        raise ParseError("relation ids must be exactly 0..s-1")
    return CoherentConfig(n=n, s=s, rel=rel.reshape(n, n))
