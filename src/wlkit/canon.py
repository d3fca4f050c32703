"""Canonical certificates by individualization and refinement.

The three modes run one search (`_search`) built on k-dim refinement.  A
node refines its coloring, takes its largest vertex class as its target,
ties going to the smallest id (`_target_class`), and branches on its
members, each individualized in turn, until the vertex classes are
discrete; the certificate hashes the best leaf, the graph serialized in
discrete-color order.

* canonical: branches on every member.  The certificate is the minimum
  (invariant path, leaf serialization) over the tree, where a node's
  invariant is its refinement round counts and color histograms, so it is
  label-invariant.  A leaf equal to the incumbent gives the automorphism
  sigma that maps the incumbent leaf onto it, so sigma(incumbent path[j]) =
  current path[j] at every level j; every such leaf unwinds the search to
  the level where the two paths part, since sigma maps the explored
  subtree there onto the current one.  Siblings in the orbit of explored
  ones under the automorphisms that fix the current prefix are skipped
  (orbit pruning); each frame keeps that orbit and grows it, so a
  generator is tested against a prefix once per frame.
* fast: the canonical search's first branch, member 0 of each target
  class.  Its one leaf is compared with nothing, so it builds no invariant
  path.  Cheap, label-dependent in the worst case.
* verified: fast, plus a fast search below every other member of each
  target class it meets (the search below member 0 is its own descent); a
  leaf digest among them that differs from the certificate's sets
  `orbit_flag`, signalling that the fast digest may depend on labels.

A node is a generator that yields its children's arguments, and one loop
over the suspended nodes drives the search, so depth adds no Python stack
frame and no recursion limit applies: a deep search ends at its leaf or at
`Limits.canon_nodes`.  A node that has yielded its last member is dropped,
so fast holds O(1) frames.  A node's budget also counts what the live
frames keep: colorings, vertex classes and canonical path invariants.

A search node is refined from its parent's coloring and the vertex it
individualizes (`refine.refine_node`); the root has none and refines the
graph from its iso-type coloring.  A node runs refine's one refinement path,
as `refine_k` does: one budget check, one start and one round loop
(`refine.refine_rounds`).  For k >= 2 a child's first round is read off
its individualized vertex alone in O(n^k) and ranked once, from keys of
the parent's coloring that order like the seeded one (see `refine`).  The
growth loop follows.  At k = 1 and k >= 3 (k >= 4 takes the k >= 3 step)
its rounds are exact, so a node ends at its stable coloring, whose ids are
those of ranking the seeded coloring and full rounds.

At k = 2 the growth rounds are hashed, and a node skips the exact round
that `refine_k` runs after them: hashed rounds to a fixed class count and
no exact stop check, so no node builds an n^3 round and a node's memory
is O(n^2); its ids are hash ranks.  No check is needed: the search asks
only that a node's coloring be an isomorphism-invariant function of the
graph and the individualized sequence that refines its parent's, since a
certificate is the best leaf's bytes, compared byte for byte, and every
automorphism passes `is_automorphism` before the search uses it.  A
hashed round's salts depend on the color id alone, so a collision can
only leave a class unsplit: a coarser node and a larger tree, never a
wrong certificate.  Unless a hash collides, a node's partition and class
counts are the exact ones (tests/test_canon.py compares them node by
node).

Every node's coloring projects to vertex classes by its tuple minima
(`refine.project`).  Each round ranks the previous id first, so a node's
ids refine its parent's in order and a singleton vertex stays one; the
individualized vertex's tuples take keys no other vertex's share, so it
becomes one.  Every branch therefore reaches a leaf within n levels.  Ids
are fixed by the graph and the individualized sequence alone, so digests
stay label-invariant.
"""
from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

import numpy as np

from .graph import ColoredGraph, serialize_wlg, serialize_wlg_relabeled
from .limits import DEFAULT_LIMITS, Limits
from .oracle import is_automorphism
from .refine import check_k, invariant_bytes, project, refine_node, stable_vertex_names
from .refine import refine_k  # noqa: F401  canon.refine_k stays a name profilers wrap


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
    """The largest class, ties going to the smallest id, and its members.

    Branching on the largest class visits fewer nodes than on the first
    non-singleton one (McKay & Piperno 2014, on target cell selection): a
    third fewer on CFI gadgets.  Ids and sizes are fixed by the graph and
    the individualized sequence, so the choice is label-invariant."""
    sizes = np.bincount(vc)
    cid = int(np.argmax(sizes))
    if sizes[cid] < 2:
        raise ValueError("no class of size >= 2 (coloring is discrete)")
    return cid, np.flatnonzero(vc == cid).tolist()


def _refine_node(g, k, parent, limits, held=0):
    """Coloring of a search node, `parent` = (its parent's coloring, the
    vertex it individualizes) or None, beside `held` bytes of live frames;
    returns it with its vertex classes."""
    tc = refine_node(g, k, parent, limits, held)
    return tc, project(tc, 1)


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


def _jump_depth(sigma: np.ndarray, prefix: tuple[int, ...], bpath: tuple[int, ...]) -> int | None:
    """The depth that the automorphism sigma, found at the leaf `prefix`
    equal to the incumbent leaf `bpath`, unwinds the search to (the rest of
    the current subtree repeats an explored one there), or None."""
    common = 0
    while common < len(prefix) and common < len(bpath) and prefix[common] == bpath[common]:
        common += 1
    # sigma maps the incumbent leaf onto this one, so at an equal leaf
    # sigma(bpath[j]) == prefix[j] for every j: it fixes the common prefix
    # pointwise and sends the incumbent's branch vertex to this child's, so
    # the rest of this child's subtree is the image of the explored one.
    # Every equal leaf jumps; these checks and is_automorphism cross-check
    # the leaf compare.
    if (
        all(int(sigma[p]) == p for p in prefix[:common])
        and common < len(prefix)
        and common < len(bpath)
        and int(sigma[bpath[common]]) == prefix[common]
    ):
        return common
    return None


def _search(g, k, limits, stats, mode, parent=None, held=0) -> dict:
    """Search the tree below the node `parent` (see `_refine_node`) in
    `mode`, beside `held` bytes of an enclosing search's frames; returns its
    best leaf as a dict (`bytes`, `trace`, and `below`, the leaf digests of
    verified's fast searches, among others)."""
    n, what = g.n, f"{mode} search"
    best: dict = {
        "inv": None, "bytes": None, "path": None, "order": None, "trace": None, "below": set(),
    }

    def node(parent, prefix, inv_path, trace, fixing, known, held):
        """A generator: yields each child's arguments, with whether it is the
        last member, and returns the depth a jump unwinds to, or None.
        `fixing` holds the generators that fix `prefix` pointwise among the
        first `known` found; each later one is tested once, below.  `held`
        is what the live frames above keep, beside the node's estimate."""
        stats.nodes += 1
        limits.check("canon_nodes", stats.nodes, what)
        tc, pv = _refine_node(g, k, parent, limits, held)
        parent = None  # a frame keeps its own coloring, not its parent's
        kept = tc.colors.nbytes + pv.colors.nbytes  # while the frame is live
        path2 = None  # a search with one leaf compares nothing with it
        if mode == "canonical":
            vhist = np.bincount(pv.colors, minlength=pv.num_colors).astype(np.int64)
            path2 = inv_path + (invariant_bytes(tc) + b"#" + vhist.tobytes(),)
            held += len(path2[-1])  # for as long as a descendant's path holds it
            if best["bytes"] is not None and path2 > best["inv"][: len(path2)]:
                return None  # every leaf below is larger than the incumbent
        if pv.num_colors == n:
            stats.leaves += 1
            order = np.argsort(pv.colors)
            leafb = serialize_in_order(g, order)
            if best["bytes"] is None or (path2, leafb) < (best["inv"], best["bytes"]):
                best.update(inv=path2, bytes=leafb, path=prefix, order=order, trace=trace)
                return None
            if path2 == best["inv"] and leafb == best["bytes"]:
                sigma = np.empty(n, dtype=np.int64)
                sigma[np.asarray(best["order"])] = np.asarray(order)
                if not np.array_equal(sigma, np.arange(n)) and is_automorphism(g, sigma):
                    tup = tuple(int(x) for x in sigma)
                    if tup not in stats.generators:
                        stats.generators.append(tup)
                    depth = _jump_depth(sigma, prefix, best["path"])
                    if depth is not None:
                        stats.jumps += 1
                    return depth
            return None
        cid, members = _target_class(pv.colors)
        trace += ((cid, len(members)),)
        if mode == "verified":
            best["below"].update(
                hashlib.sha256(_search(g, k, limits, stats, "fast", (tc, w), held + kept)["bytes"])
                .digest() for w in members[1:]
            )
        if mode != "canonical":
            members = members[:1]  # fast is the canonical search's first branch
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
            last = v == members[-1]  # the loop then drops this frame
            yield (
                (tc, v), prefix + (v,), path2, trace, [s for s in fixing if s[v] == v], known,
                held if last else held + kept,
            ), last
            _grow(reach, [v], fixing)

    # One loop drives the nodes, so search depth adds no Python stack frame.
    # A frame is dropped when it yields its last member: resumed, it would
    # only return None.  A jump to depth d drops every frame deeper than d;
    # the frame at d, or the nearest one above it, then resumes.
    stack = [(0, node(parent, (), (), (), [], 0, held))]
    jump = None
    while stack:
        depth, frame = stack[-1]
        if jump is not None and depth > jump:
            stack.pop()
            continue
        jump = None
        try:
            child, last = next(frame)
        except StopIteration as done:
            stack.pop()
            jump = done.value
            continue
        if last:
            stack.pop()
        stack.append((depth + 1, node(*child)))
        child = None  # the child's frame alone holds its parent's coloring
    return best


def _canonical_search(g: ColoredGraph, k: int, limits: Limits):
    stats = SearchStats()
    return _search(g, k, limits, stats, "canonical"), stats


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
    check_k(k)
    n = g.n
    if n == 0:
        digest = hashlib.sha256(serialize_wlg(g).encode("ascii")).digest()
        return Certificate(digest=digest, k=k, mode=mode, n=0)
    stats = SearchStats()
    best = _search(g, k, limits, stats, mode)
    digest = hashlib.sha256(best["bytes"]).digest()
    return Certificate(
        digest=digest, k=k, mode=mode, n=n, trace=best["trace"],
        orbit_flag=bool(best["below"] - {digest}), nodes=stats.nodes,
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
    check_k(k)
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
    limits.check("depth_sweep_vertices", runs * n, f"depth-{d} sweep of {runs} refinements on {n} vertices")
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
