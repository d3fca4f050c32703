"""Outside-in tracing: spans recorded around wlkit's cross-module calls.

No library file is touched.  Each traced function is replaced, for the
duration of a run, under the name its caller looks it up by (for example
``wlkit.canon.refine_k`` is what the canonical search calls), so spans nest
the way the calls do.  Spans are kept in memory as ``[name, start, end,
parent]`` and written out when the run ends; counts are taken at the same
boundaries from the arguments and results that cross them.

A span's self time is its duration minus the durations of its direct
children.  A layer's self time is the sum of the self times of its spans.
"""
from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """In-memory span list plus counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.cut: tuple[int, dict] | None = None
        # set while the span list is being changed, so that a speed probe
        # arriving by signal in the middle skips its turn
        self.busy = False

    def mark_period(self) -> None:
        """Remember spans and counts so far: the per-layer metrics cover
        exactly one pass over a workload's distinct cycles, a fixed amount
        of work per seed, so counts repeat exactly and times compare."""
        self.cut = (len(self.spans), dict(self.counts))

    def period(self) -> tuple[list[list], dict[str, float]]:
        """Spans and counts of the marked period, or of the whole trace."""
        if self.cut is None:
            return self.spans, self.counts
        n, counts = self.cut
        return self.spans[:n], defaultdict(float, counts)

    def open(self, name: str) -> int:
        self.busy = True
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(idx)
        self.busy = False
        return idx

    def close(self, idx: int) -> None:
        self.busy = True
        self.spans[idx][2] = perf_counter()
        self._stack.pop()
        self.busy = False

    def write(self, path, t0: float) -> None:
        """Spans as JSON rows, times in seconds from `t0`."""
        rows = [[n, round(s - t0, 7), round(e - t0, 7), p] for n, s, e, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": rows}, fh)


# -- counters taken at span boundaries ---------------------------------------


def _count_refine(counts, args, out) -> None:
    counts["refine.rounds"] += out.rounds
    counts["refine.tuples"] += out.n**out.k


def _count_rank(counts, args, out) -> None:
    rows = args[0]
    counts["kernels.rows_ranked"] += rows.shape[0]
    counts["kernels.cells_ranked"] += rows.size


def _count_certify(counts, args, out) -> None:
    counts["canon.nodes"] += out.nodes


def _count_parse(counts, args, out) -> None:
    counts["graph.parse_bytes"] += len(args[0].encode("utf-8"))


def _count_reduce(counts, args, out) -> None:
    tree, _ = out
    counts["cws.levels"] += tree.depth
    counts["cws.pieces"] += sum(len(lv.pieces) for lv in tree.levels)


def _count_closure(counts, args, out) -> None:
    counts["coherent.points"] += out.n


# (object path, attribute, span name, counter).  The object is the module
# whose global the caller reads, so a call is traced only from that caller:
# the benchmark's own checks use other bindings and stay out of the spans.
# The first entry of each group is the public entry point the benchmark
# itself calls.
PATCHES = [
    ("wlkit.canon", "certify", "canon.certify", _count_certify),
    ("wlkit.cws", "certify", "canon.certify", _count_certify),
    ("wlkit.cli", "certify", "canon.certify", _count_certify),
    ("wlkit.canon", "serialize_in_order", "canon.serialize", None),
    ("wlkit.canon", "refine_k", "refine.refine_k", _count_refine),
    ("wlkit.cws", "refine_k", "refine.refine_k", _count_refine),
    ("wlkit.canon", "project", "refine.project", None),
    ("wlkit.cws", "project", "refine.project", None),
    ("wlkit.refine", "dense_rank_rows", "kernels.dense_rank", _count_rank),
    ("wlkit.coherent", "dense_rank_rows", "kernels.dense_rank", _count_rank),
    ("wlkit.refine", "round_rows", "kernels.round_rows", None),
    ("wlkit.graph:ColoredGraph", "with_vertex_colors", "graph.rebuild", None),
    ("wlkit.cli", "parse_wlg", "graph.parse", _count_parse),
    ("wlkit.cli", "serialize_wlg", "graph.serialize", None),
    ("wlkit.canon", "serialize_wlg", "graph.serialize", None),
    ("wlkit.cws", "reduce_graph", "cws.reduce", _count_reduce),
    ("wlkit.cws", "twin_classes", "cws.twin", None),
    ("wlkit.cws", "decompose", "cws.decompose", None),
    ("wlkit.cws", "contract_batch", "cws.contract", None),
    ("wlkit.coherent", "klein_scheme", "coherent.klein", None),
    ("wlkit.coherent", "merge_relations", "coherent.merge", None),
    ("wlkit.coherent", "cellular_closure", "coherent.closure", _count_closure),
    ("wlkit.coherent", "validate", "coherent.validate", None),
    ("wlkit.coherent", "serialize_scheme", "coherent.scheme_io", None),
    ("wlkit.coherent", "parse_scheme", "coherent.scheme_io", None),
    ("wlkit.cli", "cfi_build", "cfi.build", None),
    ("wlkit.cli", "main", "cli.main", None),
]


def _resolve(path: str):
    mod, _, attr = path.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, attr) if attr else obj


def _wrap(tracer: Tracer, name: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if count is not None:
            count(tracer.counts, args, out)
        return out

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every entry of PATCHES for the duration of the block."""
    saved = []
    try:
        for path, attr, name, count in PATCHES:
            obj = _resolve(path)
            fn = getattr(obj, attr)
            saved.append((obj, attr, fn))
            setattr(obj, attr, _wrap(tracer, name, fn, count))
        yield tracer
    finally:
        for obj, attr, fn in reversed(saved):
            setattr(obj, attr, fn)


# -- per-layer metrics ---------------------------------------------------------


def span_times(spans: list[list]) -> tuple[dict, dict, dict, list[float]]:
    """Per span name: call count, total duration and self time; plus each
    span's own duration.  Speed probes (spans named "probe") that fired
    inside a span are left out of its durations."""
    child = [0.0] * len(spans)
    net = [end - start for _, start, end, _ in spans]
    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
        if name == "probe":
            while parent >= 0:
                net[parent] -= end - start
                parent = spans[parent][3]
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        calls[name] += 1
        total[name] += net[i]
        own[name] += end - start - child[i]
    return calls, total, own, net


def layer_self(own: dict, layer: str) -> float:
    return sum(v for k, v in own.items() if k.startswith(layer + "."))


LAYERS = ("graph", "kernels", "refine", "canon", "cws", "coherent", "cfi", "cli")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric by name, as (value, unit), over the marked
    period (the whole trace when none was marked)."""
    spans, cnt = tracer.period()
    calls, total, own, net = span_times(spans)
    piece_certify = sum(
        net[i]
        for i, (name, _, _, parent) in enumerate(spans)
        if name == "canon.certify" and parent >= 0 and spans[parent][0].startswith("cws.")
    )
    rcalls = calls["refine.refine_k"]
    rounds = cnt["refine.rounds"]
    nodes = cnt["canon.nodes"]
    return {
        "refine.calls": (rcalls, "count"),
        "refine.self_s": (layer_self(own, "refine"), "s"),
        "refine.rounds": (rounds, "count"),
        "refine.tuples": (cnt["refine.tuples"], "count"),
        "refine.useful_round_ratio": (
            rounds / (rounds + rcalls) if rcalls else 0.0, "ratio",
        ),
        "kernels.dense_rank_calls": (calls["kernels.dense_rank"], "count"),
        "kernels.dense_rank_s": (total["kernels.dense_rank"], "s"),
        "kernels.rows_ranked": (cnt["kernels.rows_ranked"], "count"),
        "kernels.cells_ranked": (cnt["kernels.cells_ranked"], "count"),
        "kernels.round_rows_s": (total["kernels.round_rows"], "s"),
        "canon.certify_calls": (calls["canon.certify"], "count"),
        "canon.nodes": (nodes, "count"),
        "canon.self_s": (layer_self(own, "canon"), "s"),
        "canon.serialize_s": (total["canon.serialize"], "s"),
        "canon.ms_per_node": (
            1000.0 * total["canon.certify"] / nodes if nodes else 0.0, "ms",
        ),
        "graph.parse_calls": (calls["graph.parse"], "count"),
        "graph.parse_bytes": (cnt["graph.parse_bytes"], "bytes"),
        "graph.parse_s": (total["graph.parse"], "s"),
        "graph.serialize_s": (total["graph.serialize"], "s"),
        "graph.rebuild_calls": (calls["graph.rebuild"], "count"),
        "graph.rebuild_s": (total["graph.rebuild"], "s"),
        "cws.reduce_calls": (calls["cws.reduce"], "count"),
        "cws.self_s": (layer_self(own, "cws"), "s"),
        "cws.twin_s": (total["cws.twin"], "s"),
        "cws.decompose_s": (total["cws.decompose"], "s"),
        "cws.contract_s": (total["cws.contract"], "s"),
        "cws.piece_certify_s": (piece_certify, "s"),
        "cws.levels": (cnt["cws.levels"], "count"),
        "cws.pieces": (cnt["cws.pieces"], "count"),
        "coherent.closure_calls": (calls["coherent.closure"], "count"),
        "coherent.closure_self_s": (own["coherent.closure"], "s"),
        "coherent.validate_s": (total["coherent.validate"], "s"),
        "coherent.scheme_io_s": (total["coherent.scheme_io"], "s"),
        "coherent.points": (cnt["coherent.points"], "count"),
        "cfi.build_s": (total["cfi.build"], "s"),
        "cli.self_s": (own["cli.main"], "s"),
        "trace.spans": (sum(1 for sp in spans if sp[0] != "probe"), "count"),
    }


def layer_shares(tracer: Tracer) -> dict[str, float]:
    """Self time of each layer as a share of the time spent in operations."""
    _, total, own, _ = span_times(tracer.period()[0])
    op_time = sum(v for k, v in total.items() if k.startswith("op."))
    if not op_time:
        return {}
    shares = {layer: layer_self(own, layer) / op_time for layer in LAYERS}
    shares["benchmark"] = layer_self(own, "op") / op_time
    return shares
