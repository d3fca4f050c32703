"""Benchmark launcher: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload canon-cfi --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

Run from anywhere; wlkit is imported from the ``src`` directory next to this
one, never from an installed copy, and the run exits non-zero, printing no result,
when that source tree is missing.  The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the wlkit calls are
wrapped (see spans.py) and the metrics are the per-layer ones.  The line
before it is the run record: machine, software, settings, tail percentile,
fail ratio and, when traced, layer shares and the span file.

``--smoke`` runs every workload at a tiny size through all of its cycles,
untraced and traced, with every check on.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    return args


def _import_wlkit():
    """Import wlkit from ROOT/src with thread pools pinned to one thread."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "wlkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no wlkit source tree at {src}")
    sys.path.insert(0, str(src))
    import wlkit

    if Path(wlkit.__file__).resolve().parent != (src / "wlkit").resolve():
        raise SystemExit(f"error: imported wlkit from {wlkit.__file__}, not {src}")


def _read_first(path: str, key: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit() -> str | None:
    """HEAD of ROOT when it is a git checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(wl, args) -> dict:
    import numpy
    from wlkit import kernels

    return {
        "machine": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": _read_first("/proc/cpuinfo", "model name"),
            "mem_total": _read_first("/proc/meminfo", "MemTotal"),
        },
        "software": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "kernel_backend": kernels.backend_name(),
            "git_commit": _git_commit(),
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        },
        "settings": {
            "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "setup_repeats": SETUP_REPEATS,
            "sizes": wl.sizes(),
        },
    }


def measure(wl, seconds: float, probe, tracer=None, min_cycles: int = 1) -> dict:
    """Run whole cycles until `seconds` of operations have passed (and at
    least `min_cycles`).  Latency is the wlkit call alone; the check that
    follows it is part of the client's loop and of the busy time.  The time
    speed probes take is left out of both."""
    lat: list[float] = []
    spans_at: list[tuple[float, float]] = []
    kinds: list[str] = []
    failures: list[str] = []
    cycles = 0
    t_start = perf_counter()
    with probe.periodic():
        probe.run()
        while cycles < min_cycles or perf_counter() - t_start - probe.spent < seconds:
            for op in wl.cycles[cycles % len(wl.cycles)]:
                span = tracer.open("op." + op.kind) if tracer else None
                p0 = probe.spent
                t0 = perf_counter()
                try:
                    out = op.run()
                    err = None
                except Exception as exc:  # a failed call is counted, not fatal
                    out, err = None, f"{op.kind}: {type(exc).__name__}: {exc}"
                t1 = perf_counter()
                lat.append(t1 - t0 - (probe.spent - p0))
                spans_at.append((t0, t1))
                if tracer:
                    tracer.close(span)
                    span = tracer.open("check")
                if err is None:
                    try:
                        err = op.check(out)
                    except Exception as exc:
                        err = f"{op.kind}: check raised {type(exc).__name__}: {exc}"
                if tracer:
                    tracer.close(span)
                kinds.append(op.kind)
                if err is not None:
                    failures.append(err)
            cycles += 1
            if tracer and cycles == len(wl.cycles):
                tracer.mark_period()
        probe.run()
    elapsed = perf_counter() - t_start
    return {"t_start": t_start, "elapsed": elapsed, "busy": elapsed - probe.spent,
            "cycles": cycles, "lat": lat, "kinds": kinds, "failures": failures,
            "scaled": [x * probe.scale_near(a, b) for x, (a, b) in zip(lat, spans_at)]}


def timed_setup(wl) -> tuple[list[float], object]:
    """Set the workload up SETUP_REPEATS times; the last set-up is kept."""
    from speed import Probe

    probe = Probe()
    times = []
    with probe.periodic():
        for _ in range(SETUP_REPEATS):
            probe.run()
            p0 = probe.spent
            t0 = perf_counter()
            wl.setup()
            times.append(perf_counter() - t0 - (probe.spent - p0))
        probe.run()
    return times, probe


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty list.  A run holds whole
    cycles, k copies of each operation, and the nearest rank then falls on
    the same operation of the cycle whatever k is; interpolating would mix
    two operations in proportions that change with k."""
    xs = sorted(values)
    return xs[max(0, math.ceil(pct / 100.0 * len(xs)) - 1)]


def run_workload(args, import_s: float) -> int:
    import resource

    import spans
    from speed import Probe
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)
    try:
        setup_times, setup_probe = timed_setup(wl)
        tracer = spans.Tracer() if args.trace else None
        probe = Probe(tracer)
        if tracer:
            with spans.installed(tracer):
                res = measure(wl, args.seconds, probe, tracer, min_cycles=len(wl.cycles))
        else:
            res = measure(wl, args.seconds, probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        wl.close()

    lat, n = res["lat"], len(res["lat"])
    scale = probe.scale()
    ops_per_s = n / res["busy"]
    setup_s = import_s + statistics.median(setup_times)
    tail = percentile(res["scaled"], wl.tail_pct)
    beyond = sum(1 for x in res["scaled"] if x > tail)
    by_kind: dict[str, list[float]] = {}
    for kind, x in zip(res["kinds"], lat):
        by_kind.setdefault(kind, []).append(x)
    record = metadata(wl, args)
    record["run"] = {
        "cycles": res["cycles"], "elapsed_s": res["elapsed"], "busy_s": res["busy"],
        "ops": n,
        "fail_ratio": len(res["failures"]) / n, "failures": res["failures"][:10],
        "tail": {"percentile": wl.tail_pct, "samples": n, "beyond": beyond},
        "setup_runs_s": setup_times, "import_s": import_s,
        "speed": {"timed": probe.summary(), "setup": setup_probe.summary()},
        "raw": {
            "ops_per_s": ops_per_s, "op_p50_ms": 1000.0 * statistics.median(lat),
            "op_tail_ms": 1000.0 * percentile(lat, wl.tail_pct), "setup_s": setup_s,
        },
        "op_ms_by_kind": {
            k: {"ops": len(v), "p50": 1000.0 * statistics.median(v)}
            for k, v in by_kind.items()
        },
    }
    if tracer is None:
        metrics = {
            "ops_per_s": (ops_per_s / scale, "1/s"),
            "op_p50_ms": (1000.0 * statistics.median(res["scaled"]), "ms"),
            "op_tail_ms": (1000.0 * tail, "ms"),
            "setup_s": (setup_s * setup_probe.scale(), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = spans.layer_metrics(tracer)
        top = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
        metrics["trace.ops_per_s"] = (ops_per_s / scale, "1/s")
        metrics["trace.coverage"] = (top / res["elapsed"], "ratio")
        path = HERE / "out" / f"spans-{wl.name}-seed{args.seed}.json"
        path.parent.mkdir(exist_ok=True)
        tracer.write(path, res["t_start"])
        record["trace"] = {
            "spans_file": str(path.relative_to(ROOT)),
            "layer_share": spans.layer_shares(tracer),
        }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not res["failures"],
        "attempted": n,
        "failed": len(res["failures"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_smoke() -> int:
    import spans
    from speed import Probe
    from workloads import WORKLOADS

    attempted = failed = 0
    for name, cls in WORKLOADS.items():
        wl = cls(seed=1, smoke=True)
        try:
            wl.setup()
            plain = measure(wl, 0.0, Probe(), min_cycles=len(wl.cycles))
            tracer = spans.Tracer()
            with spans.installed(tracer):
                traced = measure(wl, 0.0, Probe(tracer), tracer, min_cycles=len(wl.cycles))
        finally:
            wl.close()
        fails = plain["failures"] + traced["failures"]
        unclosed = sum(1 for _, start, end, _ in tracer.spans if end < start)
        if unclosed:
            fails.append(f"{name}: {unclosed} spans left open")
        attempted += len(plain["lat"]) + len(traced["lat"])
        failed += len(fails)
        layers = {k: v for k, (v, _) in spans.layer_metrics(tracer).items() if v}
        print(json.dumps({"workload": name, "failures": fails, "layers": layers}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {},
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    t0 = perf_counter()
    _import_wlkit()
    import numpy  # noqa: F401  (counted in the import time)

    import_s = perf_counter() - t0
    if args.smoke:
        return run_smoke()
    return run_workload(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
