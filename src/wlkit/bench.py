"""Timing harness for the refinement kernels.

Runs full refinements on seeded random graphs over a range of sizes and fits
the growth exponent of a log-log regression.  An exact round of k-dim
refinement touches n^(k+1) cells, so for k >= 3 the fit on uniformly random
inputs lands near k + 1.  At k = 2 two hashed rounds (n^2 rows ranked, n x n
products) make a random graph discrete, and the fit lands near 2.
"""
from __future__ import annotations

import math
import time

import numpy as np

from .families import random_graph
from .limits import DEFAULT_LIMITS, Limits
from .refine import refine_k


def run_bench(
    sizes=(8, 12, 16, 24),
    k: int = 2,
    *,
    seed: int = 7,
    repeats: int = 3,
    limits: Limits = DEFAULT_LIMITS,
) -> list[dict]:
    """One row per n: best-of-`repeats` wall time of a full refinement."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    rows: list[dict] = []
    for n in sizes:
        g = random_graph(n, 0.5, seed=seed + n)
        best = math.inf
        rounds = 0
        for _ in range(repeats):
            t0 = time.perf_counter()
            tc = refine_k(g, k, limits=limits)
            best = min(best, time.perf_counter() - t0)
            rounds = tc.rounds
        rows.append(
            {"n": int(n), "k": int(k), "rounds": int(rounds), "seconds": float(best)}
        )
    return rows


def fit_exponent(rows: list[dict]) -> float:
    """Least-squares slope of log(seconds) against log(n)."""
    if len(rows) < 2:
        raise ValueError("need at least two sizes to fit an exponent")
    if min(r["n"] for r in rows) < 1:
        raise ValueError("sizes must be >= 1 to fit an exponent")
    xs = np.log([r["n"] for r in rows])
    ys = np.log([max(r["seconds"], 1e-9) for r in rows])
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def format_rows(rows: list[dict]) -> str:
    out = ["n\tk\trounds\tseconds"]
    for r in rows:
        out.append(f"{r['n']}\t{r['k']}\t{r['rounds']}\t{r['seconds']:.6f}")
    return "\n".join(out) + "\n"
