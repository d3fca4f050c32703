"""Resource caps with environment-variable overrides, and the one gate
(`Limits.check`) that raises when a computation would pass one.

Every cap can be overridden by an environment variable named WLKIT_<FIELD>
(upper-cased), e.g. WLKIT_MEMORY_BYTES=8000000000.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from .errors import ResourceLimitError


@dataclass(frozen=True)
class Limits:
    # dense working arrays of refine_k and of cellular_closure (bytes)
    memory_bytes: int = 2 * 1024**3
    # explored nodes in canonical-mode branching
    canon_nodes: int = 200_000
    # vertex cap for the exhaustive orbit/automorphism oracle
    oracle_vertices: int = 12
    # search-node budget for the oracles
    oracle_nodes: int = 5_000_000
    # vertex cap (per side) for the isomorphism oracle
    iso_vertices: int = 40
    # search-node budget for the isomorphism oracle
    iso_nodes: int = 2_000_000
    # subsets examined by the exhaustive separator search
    separator_subsets: int = 5_000_000
    # vertices in a color class considered by overlap normalization; decompose
    # raises past it on a class with several primes
    overlap_class_cap: int = 64
    # tuples lift enumerates when no explicit tuples are passed
    lift_tuples: int = 200_000
    # vertex refinements of a depth_d_1dim sweep: n^d runs times n vertices
    depth_sweep_vertices: int = 4_000_000

    def check(self, budget: str, required: int, what: str) -> None:
        """Raise ResourceLimitError naming the field `budget` when `what`
        needs `required` units of it, more than its cap."""
        cap = getattr(self, budget)
        if required > cap:
            raise ResourceLimitError(what, budget=budget, required=required, cap=cap)


def limits_from_env(base: Limits | None = None) -> Limits:
    """Return ``base`` (default ``Limits()``) with WLKIT_* overrides applied."""
    lim = base or Limits()
    overrides = {}
    for f in fields(Limits):
        raw = os.environ.get("WLKIT_" + f.name.upper())
        if raw is not None:
            try:
                overrides[f.name] = int(raw)
            except ValueError:
                raise ValueError(f"WLKIT_{f.name.upper()} must be an integer, got {raw!r}")
    return replace(lim, **overrides) if overrides else lim


DEFAULT_LIMITS = limits_from_env()
