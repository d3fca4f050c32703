"""The four benchmark workloads.

Each workload is a closed loop: one client, in one process and one thread,
calls wlkit one operation at a time, as a library or CLI user would, and
checks every result before it sends the next call.  `setup()` makes the
inputs from the seed and warms the caches; `cycles` then holds the
operations, in one or more cycles of fixed shape.  The runner repeats whole
cycles until the measuring time is used up, so every run of a workload sees
the same mix of operations whatever the seed.

Operations call wlkit through module attributes (``canon.certify(...)``),
looked up at call time, so that a traced run sees them through the wrappers
of ``spans.PATCHES``.
"""
from __future__ import annotations

import contextlib
import io
import math
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from wlkit import canon, cfi, cli, coherent, cws, graph
from wlkit.families import complete, complete_bipartite, cycle, hypercube, petersen
from wlkit.graph import ColoredGraph


@dataclass
class Op:
    """One call into wlkit plus the check of its result.  `check` returns
    None when the result is right and a message otherwise."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def subseed(seed: int, *parts) -> int:
    """Independent, reproducible sub-seed for one input of one run."""
    return random.Random(repr((seed,) + parts)).getrandbits(62)


def relabel(g: ColoredGraph, seed: int, *parts) -> ColoredGraph:
    h, _ = graph.random_relabel(g, subseed(seed, *parts))
    return h


def relabel_ported(g: ColoredGraph, seed: int, *parts) -> tuple[ColoredGraph, dict]:
    """A relabeled cubic graph plus the port numbering carried over from
    the original's default one, so that its Klein scheme is a relabeled
    copy of the original's (fresh default ports could merge differently)."""
    h, perm = graph.random_relabel(g, subseed(seed, *parts))
    ports = {
        perm[v]: {perm[u]: t + 1 for t, u in enumerate(g.neighbors(v))} for v in range(g.n)
    }
    return h, ports


def prism(m: int) -> ColoredGraph:
    """Cycle C_m times K2: cubic, 2m vertices."""
    edges = [(i, (i + 1) % m) for i in range(m)]
    edges += [(m + i, m + (i + 1) % m) for i in range(m)]
    edges += [(i, m + i) for i in range(m)]
    return ColoredGraph(2 * m, edges)


def mobius_ladder(m: int) -> ColoredGraph:
    """C_2m plus its m long diagonals: cubic, 2m vertices."""
    edges = [(i, (i + 1) % (2 * m)) for i in range(2 * m)]
    edges += [(i, i + m) for i in range(m)]
    return ColoredGraph(2 * m, edges)


class Digests:
    """Reference digest per isomorphism class; the first result of a class
    becomes its reference unless setup supplied one.  Classes listed as
    non-isomorphic must keep distinct digests."""

    def __init__(self, refs: dict | None = None):
        self.refs = dict(refs or {})

    def same(self, cls, digest: bytes, *others) -> str | None:
        ref = self.refs.setdefault(cls, digest)
        if digest != ref:
            return f"{cls}: digest {digest.hex()[:12]} differs from {ref.hex()[:12]}"
        for other in others:
            if self.refs.get(other) == digest:
                return f"{cls} and {other} share digest {digest.hex()[:12]}"
        return None


class Workload:
    name = ""
    # tail percentile, fixed per workload from its seed-state operation
    # counts so that it does not move when a change fits more operations
    # into a run (see README.md)
    tail_pct = 75.0

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.cycles: list[list[Op]] = []

    def setup(self) -> None:
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        pass


class CanonCFI(Workload):
    name = "canon-cfi"
    tail_pct = 75.0

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self.base = complete(4)
        self.large = complete(4) if smoke else complete_bipartite(3, 3)
        self.per_cycle = 2 if smoke else 16
        # enough cycles to visit all 64 twist sets (and both large parities)
        self.num_cycles = 2 if smoke else 64 // self.per_cycle

    def sizes(self):
        return {
            "base": "K4", "large_base": "K4" if self.smoke else "K3,3",
            "gadget_vertices": cfi.gadget_size(3) * self.base.n,
            "large_vertices": sum(
                cfi.gadget_size(self.large.degree(v)) for v in range(self.large.n)
            ),
            "twist_sets_per_cycle": self.per_cycle, "large_per_cycle": 1,
            "cycles": self.num_cycles, "k": 2, "mode": "canonical",
        }

    def setup(self):
        base_edges = [(u, v) for u, v, _ in self.base.edge_list()]
        large_edges = [(u, v) for u, v, _ in self.large.edge_list()]
        plain, _ = cfi.cfi_build(self.base)
        twisted, _ = cfi.cfi_build(self.base, twisted=base_edges[:1])
        # independent references for the small family; doubles as warm-up
        digests = Digests({
            ("K4", 0): canon.certify(plain, 2, "canonical").digest,
            ("K4", 1): canon.certify(twisted, 2, "canonical").digest,
        })

        def op(family, parity, g):
            def check(cert):
                return digests.same((family, parity), cert.digest, (family, 1 - parity))
            return Op(family, lambda: canon.certify(g, 2, "canonical"), check)

        self.cycles = []
        for c in range(self.num_cycles):
            ops = []
            for i in range(c * self.per_cycle, (c + 1) * self.per_cycle):
                twist = [e for j, e in enumerate(base_edges) if i >> j & 1]
                g, _ = cfi.cfi_build(self.base, twisted=twist)
                ops.append(op("K4", len(twist) % 2, relabel(g, self.seed, "K4", i)))
            # The large pair is certified as built.  Its search size ranges
            # from 21 to 63 nodes over relabelings, which the few copies in
            # a run cannot average out; the 64 relabeled small gadgets carry
            # the relabeling check and its label-dependent cost.
            parity = c % 2
            g, _ = cfi.cfi_build(self.large, twisted=large_edges[:parity])
            ops.append(op("large", parity, g))
            self.cycles.append(ops)


class ReduceComposite(Workload):
    name = "reduce-composite"
    # six operations a run: no percentile has ten beyond it, report the max
    tail_pct = 100.0

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        if smoke:
            self.gadget = cycle(6)
            self.a, self.b = cycle(6), graph.disjoint_union(complete(3), complete(3))
        else:
            base = complete(4)
            self.gadget, _ = cfi.cfi_build(base)
            self.a = self.gadget
            self.b, _ = cfi.cfi_build(base, twisted=((0, 1),))

    def sizes(self):
        return {
            "gadget_vertices": self.gadget.n,
            "composite_vertices": self.a.n + self.b.n, "k": 2,
            "ops_per_cycle": 6, "cycles": 1,
        }

    def setup(self):
        # warm-up: a tiny reduction through every level kind's code path
        cws.reduce_graph(graph.disjoint_union(cycle(6), cycle(6)), 2)
        non_iso = graph.disjoint_union(self.a, self.b)
        iso = graph.disjoint_union(self.a, relabel(self.a, self.seed, "iso-half"))
        digests = Digests()

        def op(cls, g, other=None):
            bound = math.ceil(math.log2(g.n))

            def check(out):
                tree, cert = out
                if tree.depth > bound:
                    return f"{cls}: depth {tree.depth} > ceil(log2 {g.n}) = {bound}"
                return digests.same(cls, cert.digest, *([other] if other else []))
            return Op(cls, lambda: cws.reduce_graph(g, 2), check)

        # four gadgets to two composites, so that the median is a gadget
        # reduction with four samples, not the mean of two unlike ones
        gadgets = [op("gadget", relabel(self.gadget, self.seed, "gadget", i)) for i in range(4)]
        self.cycles = [[
            gadgets[0],
            op("non-iso", relabel(non_iso, self.seed, "non-iso"), "iso"),
            gadgets[1],
            gadgets[2],
            op("iso", relabel(iso, self.seed, "iso"), "non-iso"),
            gadgets[3],
        ]]


class SchemeClosure(Workload):
    name = "scheme-closure"
    tail_pct = 75.0

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        if smoke:
            self.bases = [("K4", complete(4)), ("K3,3", complete_bipartite(3, 3))]
        else:
            self.bases = [
                ("K4", complete(4)), ("K3,3", complete_bipartite(3, 3)),
                ("Q3", hypercube(3)), ("Wagner", mobius_ladder(4)),
                ("Petersen", petersen()), ("M10", mobius_ladder(5)),
            ] + [(f"Y{m}", prism(m)) for m in (3, 4, 5, 6, 8, 10, 12, 15, 20)]

    def sizes(self):
        return {"bases": [name for name, _ in self.bases],
                "points": [4 * g.n for _, g in self.bases], "cycles": 1}

    def setup(self):
        # warm-up on the smallest scheme
        coherent.cellular_closure(coherent.klein_scheme(complete(4)).rel)

        def op(name, based):
            base, ports = based

            def run():
                c = coherent.klein_scheme(base, ports)
                merged = coherent.merge_relations(c, coherent.klein_merge_groups(c))
                closed = coherent.cellular_closure(merged)
                report = coherent.validate(closed)
                back = coherent.parse_scheme(coherent.serialize_scheme(closed))
                fixed = coherent.cellular_closure(c.rel)
                return c, closed, report, back, fixed

            def check(out):
                c, closed, report, back, fixed = out
                if c.s != coherent.klein_relation_count(base.n, base.num_edges):
                    return f"{name}: scheme has {c.s} relations"
                if not report.ok:
                    return f"{name}: closure fails axiom {report.axiom}"
                if back.s != closed.s or not (back.rel == closed.rel).all():
                    return f"{name}: scheme text round trip differs"
                if fixed.s != c.s or not (fixed.rel == c.rel).all():
                    return f"{name}: closing the unmerged scheme is not a fixpoint"
                return None
            return Op(name, run, check)

        self.cycles = [[
            op(name, relabel_ported(base, self.seed, name)) for name, base in self.bases
        ]]


class WlgCli(Workload):
    name = "wlg-cli"
    tail_pct = 75.0

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self.prisms = (3,) if smoke else (3, 4, 5, 6, 8, 10, 12, 15)
        # (vertices, edges) of the dense random colored graphs
        self.dense = ((30, 200),) if smoke else ((150, 5000), (180, 7000))
        self.dir = Path(tempfile.mkdtemp(prefix="wlg-", dir=_out_dir()))

    def sizes(self):
        return {
            "prism_bases": list(self.prisms),
            "gadget_vertices": [20 * m for m in self.prisms],
            "dense_graphs": [list(d) for d in self.dense], "k": 1, "mode": "fast",
            "cycles": 1,
        }

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _dense_graph(self, i: int, n: int, m: int) -> ColoredGraph:
        rng = random.Random(subseed(self.seed, "dense", i))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [(u, v, rng.randrange(3)) for u, v in rng.sample(pairs, m)]
        return ColoredGraph(n, edges, vertex_colors=[rng.randrange(4) for _ in range(n)])

    def setup(self):
        # Each base is written plain and twisted and the twisted gadget is
        # read back.  The writes are then most of the operations, so the
        # median falls among them, not in the gap between the fastest writes
        # and the slowest reads, where it would swing from run to run.
        ops = []
        for m in self.prisms:
            base = relabel(prism(m), self.seed, "prism", m)
            rng = random.Random(subseed(self.seed, "twist", m))
            twist = [(u, v) for u, v, _ in base.edge_list() if rng.random() < 0.5]
            plain, _ = cfi.cfi_build(base)
            gadget, _ = cfi.cfi_build(base, twisted=twist)
            base_path = self.dir / f"prism{m}.wlg"
            base_path.write_text(graph.serialize_wlg(base), encoding="utf-8")
            plain_path = self.dir / f"plain{m}.wlg"
            argv = ["cfi", str(base_path), "-o", str(plain_path)]
            ops.append(self._cfi_op(f"cfi-plain-Y{m}", argv, plain_path, graph.serialize_wlg(plain)))
            out_path = self.dir / f"gadget{m}.wlg"
            argv = ["cfi", str(base_path), "-o", str(out_path)]
            if twist:
                argv += ["--twist", ",".join(f"{u}-{v}" for u, v in twist)]
            ops.append(self._cfi_op(f"cfi-Y{m}", argv, out_path, graph.serialize_wlg(gadget)))
            ops.append(self._certify_op(f"certify-Y{m}", out_path, gadget))
        for i, (n, m) in enumerate(self.dense):
            g = self._dense_graph(i, n, m)
            path = self.dir / f"dense{i}.wlg"
            path.write_text(graph.serialize_wlg(g), encoding="utf-8")
            ops.append(self._certify_op(f"certify-dense{n}", path, g))
        self.cycles = [ops]

    @staticmethod
    def _cli(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def _cfi_op(self, kind, argv, out_path, expected: str) -> Op:
        def check(res):
            code, _, err = res
            if code != 0:
                return f"{kind}: exit {code}: {err.strip()}"
            text = out_path.read_text(encoding="utf-8")
            if text != expected:
                return f"{kind}: written gadget differs from the in-memory one"
            if graph.serialize_wlg(graph.parse_wlg(text)) != text:
                return f"{kind}: parse/serialize round trip differs"
            return None
        return Op(kind, lambda: self._cli(argv), check)

    def _certify_op(self, kind, path, g: ColoredGraph) -> Op:
        # digest computed in memory at setup; doubles as warm-up of k=1
        expected = canon.certify(g, 1, "fast").hexdigest
        argv = ["certify", str(path), "-k", "1", "--mode", "fast", "--digest-only"]

        def check(res):
            code, out, err = res
            if code != 0:
                return f"{kind}: exit {code}: {err.strip()}"
            if out.strip() != expected:
                return f"{kind}: digest {out.strip()[:12]} != {expected[:12]}"
            return None
        return Op(kind, lambda: self._cli(argv), check)


def _out_dir() -> Path:
    out = Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    return out


WORKLOADS = {w.name: w for w in (CanonCFI, ReduceComposite, SchemeClosure, WlgCli)}
