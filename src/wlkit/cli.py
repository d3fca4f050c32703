"""Command line front end.

Exit codes: 0 success (for `iso`: isomorphic), 1 the `iso` verdict is
non-isomorphic, 2 any error (bad arguments, malformed input, resource caps).
"""
from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import __version__
from .bench import fit_exponent, format_rows, run_bench
from .canon import certify
from .cfi import cfi_build, iterate_lambda, serialize_cfi_map
from .coherent import (
    cellular_closure,
    klein_merge_groups,
    klein_scheme,
    merge_relations,
    parse_scheme,
    psi_twist,
    scheme_graph,
    serialize_scheme,
    validate,
)
from .cws import decompose, reduce_graph
from .errors import WlkitError
from .graph import ColoredGraph, min_separator_size, parse_wlg, serialize_wlg
from .limits import DEFAULT_LIMITS
from .oracle import iso_oracle, orbits_oracle
from .refine import project, refine_k, similar_k


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_graph(path: str) -> ColoredGraph:
    return parse_wlg(_read_text(path))


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_refine(args) -> int:
    g = _read_graph(args.graph)
    tc = refine_k(g, args.k, limits=DEFAULT_LIMITS)
    print(f"n {g.n}")
    print(f"k {args.k}")
    print(f"rounds {tc.rounds}")
    print(f"classes {tc.num_colors}")
    print(f"class-counts {' '.join(str(c) for c in tc.class_counts)}")
    vc = project(tc, 1)
    print(f"vertex-classes {vc.num_colors}")
    if args.export:
        _write_text(args.export, tc.export_text())
    return 0


def _cmd_certify(args) -> int:
    g = _read_graph(args.graph)
    cert = certify(g, args.k, args.mode, limits=DEFAULT_LIMITS)
    if args.digest_only:
        print(cert.hexdigest)
        return 0
    print(f"digest {cert.hexdigest}")
    print(f"mode {cert.mode}")
    print(f"k {cert.k}")
    print(f"levels {len(cert.trace)}")
    if cert.mode == "verified":
        print(f"orbit-flag {int(cert.orbit_flag)}")
    print(f"nodes {cert.nodes}")
    return 0


def _cmd_iso(args) -> int:
    g = _read_graph(args.graph)
    h = _read_graph(args.other)
    if args.method == "similar":
        same = similar_k(g, h, args.k, limits=DEFAULT_LIMITS)
        print("similar" if same else "distinguished")
        return 0 if same else 1
    if args.method == "oracle":
        mapping = iso_oracle(g, h, limits=DEFAULT_LIMITS)
        if mapping is None:
            print("non-isomorphic")
            return 1
        print("isomorphic")
        print("mapping " + " ".join(str(x) for x in mapping))
        return 0
    cg = certify(g, args.k, "canonical", limits=DEFAULT_LIMITS)
    ch = certify(h, args.k, "canonical", limits=DEFAULT_LIMITS)
    if cg.digest == ch.digest:
        print("isomorphic")
        return 0
    print("non-isomorphic")
    return 1


def _cmd_orbits(args) -> int:
    g = _read_graph(args.graph)
    if args.method == "oracle":
        for orbit in orbits_oracle(g, limits=DEFAULT_LIMITS):
            print(" ".join(str(v) for v in orbit))
        return 0
    tc = refine_k(g, args.k, limits=DEFAULT_LIMITS)
    vc = project(tc, 1).colors
    # each class is one run of a stable sort by color, members ascending
    order = np.argsort(vc, kind="stable")
    for members in np.split(order, np.flatnonzero(np.diff(vc[order])) + 1):
        if members.size:
            print(" ".join(map(str, members.tolist())))
    return 0


def _cmd_separator(args) -> int:
    g = _read_graph(args.graph)
    print(min_separator_size(g, limits=DEFAULT_LIMITS))
    return 0


def _parse_twists(specs: list[str]) -> list[tuple[int, int]]:
    out = []
    for spec in specs:
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            bits = part.split("-")
            if len(bits) != 2:
                raise WlkitError(f"twist {part!r} must look like u-v")
            out.append((int(bits[0]), int(bits[1])))
    return out


def _cmd_cfi(args) -> int:
    g = _read_graph(args.graph)
    if args.depth == 1:
        h, m = cfi_build(g, _parse_twists(args.twist))
    elif args.twist:
        raise WlkitError(f"twists apply to a single replacement, not --depth {args.depth}")
    else:
        h, maps = iterate_lambda(g, args.depth)  # refuses a depth below 1
        m = maps[-1]
    _write_text(args.output, serialize_wlg(h))
    if args.map:
        _write_text(args.map, serialize_cfi_map(m))
    return 0


def _cmd_klein(args) -> int:
    g = _read_graph(args.graph)
    c = klein_scheme(g)
    for i in args.twist_fibre:
        c = psi_twist(c, i)
    if args.merge:
        merged = merge_relations(c, klein_merge_groups(c))
        c = cellular_closure(merged)
    if args.validate:
        report = validate(c)
        print(f"valid {int(report.ok)}")
        if not report.ok:
            print(f"axiom {report.axiom}")
            print(f"witness {report.witness}")
    _write_text(args.output, serialize_scheme(c))
    if args.graph_out:
        _write_text(args.graph_out, serialize_wlg(scheme_graph(c)))
    return 0


def _cmd_validate(args) -> int:
    c = parse_scheme(_read_text(args.scheme))
    report = validate(c)
    print(f"points {c.n}")
    print(f"relations {c.s}")
    print(f"valid {int(report.ok)}")
    if not report.ok:
        print(f"axiom {report.axiom}")
        print(f"witness {report.witness}")
        return 1
    return 0


def _cmd_decompose(args) -> int:
    g = _read_graph(args.graph)
    records = decompose(g, args.k, limits=DEFAULT_LIMITS)
    print(f"pieces {len(records)}")
    for r in records:
        vs = " ".join(str(v) for v in sorted(r.vertices))
        pair = "-" if r.seed_pair is None else f"{r.seed_pair[0]},{r.seed_pair[1]}"
        print(f"piece prime={int(r.prime)} seed={pair} vertices {vs}")
    return 0


def _cmd_reduce(args) -> int:
    g = _read_graph(args.graph)
    tree, cert = reduce_graph(g, args.k, limits=DEFAULT_LIMITS)
    if args.digest_only:
        print(cert.hexdigest)
        return 0
    print(f"depth {tree.depth}")
    for i, lv in enumerate(tree.levels):
        print(
            f"level {i} kind={lv.kind} pieces={len(lv.pieces)} "
            f"size {lv.size_before}->{lv.size_after}"
        )
    print(f"terminal-vertices {tree.terminal.n}")
    print(f"digest {cert.hexdigest}")
    return 0


def _cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    rows = run_bench(sizes, args.k, seed=args.seed, repeats=args.repeats)
    sys.stdout.write(format_rows(rows))
    if len(rows) >= 2:
        print(f"# exponent: {fit_exponent(rows):.2f}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was (`append` options copy their default list before they add to it)."""
    ap = argparse.ArgumentParser(prog="wlkit", description=__doc__)
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("refine", help="run k-dim refinement, print a summary")
    p.add_argument("graph")
    p.add_argument("-k", type=int, default=2)
    p.add_argument("--export", help="write per-tuple colors to a file")
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("certify", help="certificate of a graph")
    p.add_argument("graph")
    p.add_argument("-k", type=int, default=2)
    p.add_argument("--mode", choices=("fast", "verified", "canonical"), default="fast")
    p.add_argument("--digest-only", action="store_true")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("iso", help="isomorphism verdict for two graphs")
    p.add_argument("graph")
    p.add_argument("other")
    p.add_argument("-k", type=int, default=2)
    p.add_argument(
        "--method", choices=("certificate", "oracle", "similar"),
        default="certificate",
    )
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("orbits", help="vertex orbits (oracle) or classes (refine)")
    p.add_argument("graph")
    p.add_argument(
        "--method", choices=("oracle", "refine"), default="oracle",
        help="oracle: exact orbits by exhaustive search (small graphs); refine: the "
        "vertex classes of stable k-dim refinement, which can be coarser than the orbits",
    )
    p.add_argument("-k", type=int, default=2)
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("separator", help="exhaustive minimum balanced separator size")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_separator)

    p = sub.add_parser("cfi", help="gadget replacement of a base graph")
    p.add_argument("graph")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--map", help="write the vertex-role sidecar here")
    p.add_argument(
        "--twist", action="append", default=[],
        help="base edges to cross, e.g. --twist 0-1,2-3",
    )
    p.add_argument("--depth", type=int, default=1, help="iterate the replacement")
    p.set_defaults(func=_cmd_cfi)

    p = sub.add_parser("klein", help="fibre scheme of a cubic graph")
    p.add_argument("graph")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--twist-fibre", type=int, action="append", default=[])
    p.add_argument("--merge", action="store_true", help="role-merged closure")
    p.add_argument("--validate", action="store_true")
    p.add_argument("--graph-out", help="also write the scheme as a WLG digraph")
    p.set_defaults(func=_cmd_klein)

    p = sub.add_parser("validate", help="check a scheme file against the axioms")
    p.add_argument("scheme")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("decompose", help="prime pieces of the current coloring")
    p.add_argument("graph")
    p.add_argument("-k", type=int, default=2)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("reduce", help="full contraction loop with digest")
    p.add_argument("graph")
    p.add_argument("-k", type=int, default=2)
    p.add_argument("--digest-only", action="store_true")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("bench", help="time the round kernels")
    p.add_argument("--sizes", default="8,12,16,24")
    p.add_argument("-k", type=int, default=2)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--repeats", type=int, default=3)
    p.set_defaults(func=_cmd_bench)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (WlkitError, OSError, ValueError) as exc:
        # a library ValueError (say, k = 0) is bad input, not an `iso` verdict
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
