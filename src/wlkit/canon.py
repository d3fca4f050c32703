"""Canonical certificates by individualization and refinement.

Three modes, all built on k-dim refinement:

* fast: repeatedly refine, pick the smallest color class of size >= 2,
  individualize its smallest vertex, until the vertex classes are discrete;
  the certificate hashes the graph serialized in discrete-color order.
  Cheap, label-dependent in the worst case.
* verified: the fast descent, but at every level each other member of the
  target class is also descended (fast) and the resulting digests are
  compared; a mismatch sets `orbit_flag`, signalling that the fast digest
  may depend on labels.
* canonical: a full backtracking search over the members of the target
  class at every level.  Branches are ordered by a label-invariant
  node invariant (refinement round counts and color histograms); the
  certificate is the minimum (invariant path, leaf serialization) over the
  tree, which is label-invariant.  A leaf equal to the incumbent gives the
  automorphism sigma that maps the incumbent leaf onto it, so
  sigma(incumbent path[j]) = current path[j] at every level j; every such
  leaf unwinds the search to the level where the two paths part, since
  sigma maps the explored subtree there onto the current one.  Siblings in
  the orbit of explored ones under the automorphisms that fix the current
  prefix are skipped (orbit pruning); each frame keeps that orbit and
  grows it, so a generator is tested against a prefix once per frame.

All three share one descent step.  A search node is a vertex coloring (the
root's colors with each individualized vertex given a fresh color); its
refinement starts from the parent's stable tuple coloring met with the new
vertex colors rather than from the iso-type coloring.  The node's stable
coloring refines its parent's, so the stable partition is the one refining
from scratch would give; only color ids differ.  For k >= 2 a child's
first round is read off its individualized vertex alone in O(n^k) and
ranked once, from keys of the parent's coloring that order like the seeded
one, a tuple coloring that is already discrete runs no round, and a leaf's
discrete coloring projects to vertex classes by tuple minima, with no rank
(see `refine`); the ids are those of ranking the seeded coloring and full
rounds.  Ids are still fixed by the graph and the individualized sequence
alone, so digests stay label-invariant.
"""
from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError
from .graph import ColoredGraph, serialize_wlg, serialize_wlg_relabeled
from .limits import DEFAULT_LIMITS, Limits
from .oracle import is_automorphism
from .refine import invariant_bytes, project, refine_k, stable_vertex_names


@dataclass(frozen=True)
class Certificate:
    digest: bytes
    k: int
    mode: str
    n: int
    trace: tuple[tuple[int, int], ...] = ()
    orbit_flag: bool = False
    nodes: int = 0

    @property
    def hexdigest(self) -> str:
        return self.digest.hex()


@dataclass
class SearchStats:
    nodes: int = 0
    leaves: int = 0
    generators: list[tuple[int, ...]] = field(default_factory=list)
    jumps: int = 0  # equal leaves that unwound the search
    orbit_skips: int = 0  # siblings pruned as images of explored ones


def individualize(g: ColoredGraph, v: int) -> ColoredGraph:
    """Give v a fresh color (one past the current maximum)."""
    colors = list(g.vertex_colors)
    colors[v] = g.max_vertex_color() + 1
    return g.with_vertex_colors(colors)


def serialize_in_order(g: ColoredGraph, order: np.ndarray | list[int]) -> bytes:
    """Serialize g relabeled so that order[i] becomes vertex i."""
    # order is a permutation of 0..n-1; its inverse is perm
    return serialize_wlg_relabeled(g, np.argsort(order)).encode("ascii")


def _target_class(vc: np.ndarray) -> tuple[int, list[int]]:
    counts = np.bincount(vc)
    for cid in range(counts.shape[0]):
        if counts[cid] >= 2:
            return cid, [int(v) for v in np.flatnonzero(vc == cid)]
    raise ValueError("no class of size >= 2 (coloring is discrete)")


def _count_node(stats: SearchStats, limits: Limits, what: str) -> None:
    stats.nodes += 1
    if stats.nodes > limits.canon_nodes:
        raise ResourceLimitError(
            f"{what} search exceeded the node budget",
            required=stats.nodes, cap=limits.canon_nodes,
        )


def _refine_node(g, k, colors, start, limits):
    """Stable coloring of a search node with vertex colors `colors`, seeded
    from its parent's stable tuple coloring `start` (None at the root);
    returns it with its vertex classes."""
    tc = refine_k(g, k, vertex_colors=colors, start=start, limits=limits)
    return tc, project(tc, 1)


def _child_colors(colors: np.ndarray, v: int) -> np.ndarray:
    """Vertex colors of the child that individualizes v: a fresh color one
    past the current maximum, the same for every sibling."""
    out = colors.copy()
    out[v] = int(colors.max()) + 1
    return out


def _fast_leaf(g, k, colors, start, limits, stats, trace=None, on_siblings=None):
    """Descend greedily to a discrete coloring; returns the leaf bytes.
    `on_siblings`, when given, is called at every level with the digests of
    the fast leaves below each member of the target class."""
    n = g.n
    while True:
        _count_node(stats, limits, "certificate")
        tc, pv = _refine_node(g, k, colors, start, limits)
        if pv.num_colors == n:
            return serialize_in_order(g, np.argsort(pv.colors))
        cid, members = _target_class(pv.colors)
        if trace is not None:
            trace.append((cid, len(members)))
        if on_siblings is not None:
            on_siblings([
                hashlib.sha256(_fast_leaf(
                    g, k, _child_colors(colors, w), tc.colors, limits, stats,
                )).digest()
                for w in members
            ])
        colors, start = _child_colors(colors, members[0]), tc.colors


def _fixes(s: tuple[int, ...], prefix: tuple[int, ...]) -> bool:
    """Whether the permutation s fixes every vertex of `prefix`."""
    return all(s[p] == p for p in prefix)


def _grow(reach: set[int], xs, gens) -> None:
    """Add xs to the orbit closure `reach` and close it again under gens."""
    queue = [x for x in xs if x not in reach]
    reach.update(queue)
    while queue:
        x = queue.pop()
        for s in gens:
            y = s[x]
            if y not in reach:
                reach.add(y)
                queue.append(y)


class _Jump(Exception):
    """Unwind the search to the frame at `depth` (an automorphism showed the
    rest of the current subtree repeats an already-explored one)."""

    def __init__(self, depth: int):
        self.depth = depth


def _canonical_search(g: ColoredGraph, k: int, limits: Limits):
    n = g.n
    base_colors = np.asarray(g.vertex_colors, dtype=np.int64)
    stats = SearchStats()
    best: dict = {"inv": None, "bytes": None, "path": None, "order": None, "trace": None}

    def node(colors, start, prefix, inv_path, trace, fixing, known):
        """`fixing` holds the generators that fix `prefix` pointwise among
        the first `known` found; each later one is tested once, below."""
        depth = len(prefix)
        _count_node(stats, limits, "canonical")
        tc, pv = _refine_node(g, k, colors, start, limits)
        vhist = np.bincount(pv.colors, minlength=pv.num_colors).astype(np.int64)
        path2 = inv_path + (invariant_bytes(tc) + b"#" + vhist.tobytes(),)
        if best["bytes"] is not None:
            bpfx = best["inv"][: len(path2)]
            if path2 > bpfx:
                return  # every leaf below is larger than the incumbent
        if pv.num_colors == n:
            stats.leaves += 1
            order = np.argsort(pv.colors)
            leafb = serialize_in_order(g, order)
            if best["bytes"] is None or (path2, leafb) < (best["inv"], best["bytes"]):
                best.update(inv=path2, bytes=leafb, path=prefix, order=order, trace=trace)
                return
            if path2 == best["inv"] and leafb == best["bytes"]:
                b_order = best["order"]
                sigma = np.empty(n, dtype=np.int64)
                sigma[np.asarray(b_order)] = np.asarray(order)
                if not np.array_equal(sigma, np.arange(n)) and is_automorphism(g, sigma):
                    tup = tuple(int(x) for x in sigma)
                    if tup not in stats.generators:
                        stats.generators.append(tup)
                    bpath = best["path"]
                    common = 0
                    while (
                        common < len(prefix)
                        and common < len(bpath)
                        and prefix[common] == bpath[common]
                    ):
                        common += 1
                    # sigma maps the incumbent leaf onto this one, so at an
                    # equal leaf sigma(bpath[j]) == prefix[j] for every j:
                    # it fixes the common prefix pointwise and sends the
                    # incumbent's branch vertex to this child's, so the rest
                    # of this child's subtree is the image of the explored
                    # one.  Every equal leaf jumps; these checks and
                    # is_automorphism cross-check the leaf compare.
                    if (
                        all(int(sigma[p]) == p for p in prefix[:common])
                        and common < len(prefix)
                        and common < len(bpath)
                        and int(sigma[bpath[common]]) == prefix[common]
                    ):
                        stats.jumps += 1
                        raise _Jump(common)
            return
        cid, members = _target_class(pv.colors)
        reach: set[int] = set()  # the orbits of the explored members
        for v in members:
            for s in stats.generators[known:]:
                if _fixes(s, prefix):
                    fixing.append(s)
                    _grow(reach, [s[x] for x in reach], fixing)
            known = len(stats.generators)
            if v in reach:
                stats.orbit_skips += 1
                continue
            try:
                node(
                    _child_colors(colors, v), tc.colors, prefix + (v,), path2,
                    trace + ((cid, len(members)),), [s for s in fixing if s[v] == v], known,
                )
            except _Jump as j:
                if j.depth < depth:
                    raise
                # j.depth == depth: the subtree under v repeats an explored
                # sibling's; move on to the next candidate.
            _grow(reach, [v], fixing)

    node(base_colors, None, (), (), (), [], 0)
    if best["bytes"] is None:
        raise ResourceLimitError("canonical search ended with no leaf")
    return best, stats


def certify(
    g: ColoredGraph,
    k: int,
    mode: str = "fast",
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> Certificate:
    """Certificate of g under k-dim refinement; see the module docstring for
    what each mode guarantees."""
    if mode not in ("fast", "verified", "canonical"):
        raise ValueError(f"unknown mode {mode!r}")
    n = g.n
    if n == 0:
        digest = hashlib.sha256(serialize_wlg(g).encode("ascii")).digest()
        return Certificate(digest=digest, k=k, mode=mode, n=0)
    stats = SearchStats()
    base = np.asarray(g.vertex_colors, dtype=np.int64)
    if mode != "canonical":
        trace: list[tuple[int, int]] = []
        levels: list[list[bytes]] = []  # verified: each level's sibling digests
        leafb = _fast_leaf(
            g, k, base, None, limits, stats, trace,
            levels.append if mode == "verified" else None,
        )
        return Certificate(
            digest=hashlib.sha256(leafb).digest(), k=k, mode=mode, n=n,
            trace=tuple(trace), orbit_flag=any(len(set(ds)) > 1 for ds in levels),
            nodes=stats.nodes,
        )
    best, stats = _canonical_search(g, k, limits)
    return Certificate(
        digest=hashlib.sha256(best["bytes"]).digest(), k=k, mode=mode, n=n,
        trace=tuple(best["trace"]), nodes=stats.nodes,
    )


def aut_generators_via_recursion(
    g: ColoredGraph,
    k: int,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> list[tuple[int, ...]]:
    """Automorphisms discovered by the canonical search (equal-leaf events).

    On small graphs these generate the full automorphism group; each returned
    permutation is verified against the graph before being reported.
    """
    if g.n == 0:
        return []
    _, stats = _canonical_search(g, k, limits)
    return list(stats.generators)


def depth_d_1dim(
    g: ColoredGraph,
    d: int,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> Certificate:
    """Invariant that individualizes every ordered d-tuple in turn and runs
    1-dim refinement: the digest of the sorted multiset of resulting stable
    name profiles.  Names are structure digests, so the certificate is
    label-independent by construction; d = 0 is plain 1-dim refinement."""
    if d < 0:
        raise ValueError("d must be >= 0")
    n = g.n
    if n == 0:
        return Certificate(
            digest=hashlib.sha256(b"empty").digest(), k=1, mode=f"depth{d}", n=0,
        )
    runs = n**d
    if runs * n > limits.depth_sweep_vertices:
        raise ResourceLimitError(
            f"depth-{d} sweep of {runs} refinements on {n} vertices exceeds "
            "depth_sweep_vertices",
            required=runs * n, cap=limits.depth_sweep_vertices,
        )
    base = list(g.vertex_colors)
    fresh0 = g.max_vertex_color() + 1
    profiles = []
    for tup in itertools.product(range(n), repeat=d):
        colors = list(base)
        for i, v in enumerate(tup):
            colors[v] = fresh0 + 1 + i
        names = stable_vertex_names(g, vertex_colors=colors, limits=limits)
        profiles.append(b"".join(sorted(names)))
    h = hashlib.sha256()
    for p in sorted(profiles):
        h.update(p)
        h.update(b"/")
    return Certificate(digest=h.digest(), k=1, mode=f"depth{d}", n=n)
