"""Text formats: the array parsers and formatters against the line loops
they replaced, round trips, pinned bytes, and bounded parser memory.

`reference_parse_wlg`, `reference_serialize_wlg`, `reference_parse_scheme`
and `reference_serialize_scheme` are the per-line implementations the
library used before it read and wrote whole texts with array operations.
The parity tests feed both the same valid and mutated texts and require an
equal object or the same ParseError message at the same line.
"""
from __future__ import annotations

import hashlib
import random
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import colored_graphs, traced_peak
from wlkit.cfi import cfi_build, parse_cfi_map_roles, serialize_cfi_map
from wlkit.coherent import (
    CoherentConfig,
    cellular_closure,
    klein_merge_groups,
    klein_scheme,
    merge_relations,
    parse_scheme,
    psi_twist,
    serialize_scheme,
)
from wlkit.errors import ParseError
from wlkit.families import complete, complete_bipartite, cycle, hypercube, petersen
from wlkit.graph import (
    ColoredGraph,
    parse_wlg,
    random_relabel,
    serialize_wlg,
    serialize_wlg_relabeled,
)

PROPERTY = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# -- the per-line references ---------------------------------------------------


def reference_parse_wlg(text: str) -> ColoredGraph:
    header = None
    vcolors: dict[int, int] = {}
    edges: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int]] = set()
    header_line = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "p":
            if header is not None:
                raise ParseError("duplicate header", lineno)
            if len(parts) != 5 or parts[1] != "wlg":
                raise ParseError("header must be 'p wlg <n> <m> <directed>'", lineno)
            try:
                n, m, d = int(parts[2]), int(parts[3]), int(parts[4])
            except ValueError:
                raise ParseError("header fields must be integers", lineno)
            if n < 0 or m < 0 or d not in (0, 1):
                raise ParseError("invalid header values", lineno)
            header = (n, m, d)
            header_line = lineno
        elif tag == "v":
            if header is None:
                raise ParseError("'v' line before header", lineno)
            if len(parts) != 3:
                raise ParseError("vertex line must be 'v <index> <color>'", lineno)
            try:
                idx, c = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("vertex fields must be integers", lineno)
            if not 0 <= idx < header[0]:
                raise ParseError(f"vertex index {idx} out of range", lineno)
            if c < 0:
                raise ParseError("vertex color must be non-negative", lineno)
            if idx in vcolors:
                raise ParseError(f"duplicate color line for vertex {idx}", lineno)
            vcolors[idx] = c
        elif tag == "e":
            if header is None:
                raise ParseError("'e' line before header", lineno)
            if len(parts) not in (3, 4):
                raise ParseError("edge line must be 'e <u> <v> [<color>]'", lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
                c = int(parts[3]) if len(parts) == 4 else 0
            except ValueError:
                raise ParseError("edge fields must be integers", lineno)
            n, _, d = header
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"edge ({u},{v}) out of range", lineno)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", lineno)
            if c < 0:
                raise ParseError("edge color must be non-negative", lineno)
            a, b = (u, v) if d or u < v else (v, u)
            if (a, b) in seen:
                raise ParseError(f"duplicate edge ({u},{v})", lineno)
            seen.add((a, b))
            edges.append((a, b, c))
        else:
            raise ParseError(f"unknown directive {tag!r}", lineno)

    if header is None:
        raise ParseError("missing 'p wlg' header", 1)
    n, m, d = header
    if len(edges) != m:
        raise ParseError(f"header declares {m} edges, found {len(edges)}", header_line)
    colors = [vcolors.get(i, 0) for i in range(n)]
    return ColoredGraph(n, edges, directed=bool(d), vertex_colors=colors)


def reference_format_wlg(n: int, directed: bool, vertex_colors, edges) -> str:
    out = [f"p wlg {n} {len(edges)} {int(directed)}"]
    for i, c in enumerate(vertex_colors):
        if c != 0:
            out.append(f"v {i} {c}")
    for u, v, c in edges:
        out.append(f"e {u} {v} {c}" if c != 0 else f"e {u} {v}")
    return "\n".join(out) + "\n"


def reference_serialize_wlg(g: ColoredGraph) -> str:
    return reference_format_wlg(
        g.n, g.directed, g.vertex_colors, sorted((u, v, c) for (u, v), c in g.edges.items())
    )


def reference_serialize_wlg_relabeled(g: ColoredGraph, perm: list[int]) -> str:
    colors = [0] * g.n
    for i, c in enumerate(g.vertex_colors):
        colors[perm[i]] = c
    edges = []
    for (u, v), c in g.edges.items():
        a, b = perm[u], perm[v]
        if not g.directed and a > b:
            a, b = b, a
        edges.append((a, b, c))
    edges.sort()
    return reference_format_wlg(g.n, g.directed, colors, edges)


def reference_serialize_scheme(c: CoherentConfig) -> str:
    lines = [f"p cc {c.n} {c.s}"]
    for x in range(c.n):
        for y in range(c.n):
            lines.append(f"r {x} {y} {int(c.rel[x, y])}")
    return "\n".join(lines) + "\n"


def reference_parse_scheme(text: str) -> CoherentConfig:
    n = s = None
    rel = None
    filled = None
    count = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate header", lineno)
            if len(parts) != 4 or parts[1] != "cc":
                raise ParseError("expected `p cc <points> <relations>`", lineno)
            try:
                n, s = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("header counts must be integers", lineno)
            if n < 0 or s < 0:
                raise ParseError("header counts must be non-negative", lineno)
            rel = np.full((n, n), -1, dtype=np.int64)
            filled = np.zeros((n, n), dtype=bool)
        elif parts[0] == "r":
            if rel is None:
                raise ParseError("cell before header", lineno)
            if len(parts) != 4:
                raise ParseError("expected `r <x> <y> <relation>`", lineno)
            try:
                x, y, rid = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("cell fields must be integers", lineno)
            if not (0 <= x < n and 0 <= y < n):
                raise ParseError("cell out of range", lineno)
            if not 0 <= rid < s:
                raise ParseError("relation id out of range", lineno)
            if filled[x, y]:
                raise ParseError(f"cell ({x}, {y}) assigned twice", lineno)
            filled[x, y] = True
            rel[x, y] = rid
            count += 1
        else:
            raise ParseError(f"unknown record {parts[0]!r}", lineno)
    if n is None:
        raise ParseError("missing `p cc` header")
    if count != n * n:
        raise ParseError(f"expected {n * n} cells, found {count}")
    if set(np.unique(rel).tolist()) != set(range(s)):
        raise ParseError("relation ids must be exactly 0..s-1")
    return CoherentConfig(n=n, s=s, rel=rel)


# -- inputs --------------------------------------------------------------------


@st.composite
def wlk_graphs(draw, max_n: int = 7):
    """Graphs of `colored_graphs` with its coloring as vertex colors, now and
    then spread out so that colors and edge colors have several digits."""
    g, cols = draw(colored_graphs(max_n=max_n))
    scale = draw(st.sampled_from([1, 1, 7, 1000]))
    edges = [(u, v, c * scale) for (u, v), c in g.edges.items()]
    return ColoredGraph(g.n, edges, g.directed, [int(c) * scale for c in cols])


@st.composite
def schemes(draw, max_n: int = 5):
    """Relation matrices using every id of 0..s-1 (not necessarily coherent)."""
    n = draw(st.integers(0, max_n))
    raw = draw(st.lists(st.integers(0, 6), min_size=n * n, max_size=n * n))
    _, rel = np.unique(np.asarray(raw, dtype=np.int64), return_inverse=True)
    rel = rel.reshape(n, n).astype(np.int64)
    return CoherentConfig(n=n, s=int(rel.max()) + 1 if n else 0, rel=rel)


# tokens a field may be replaced by: out of range, negative, signed, padded
# and not integers at all ("1_0", non-ASCII digits and 19-digit fields are
# left out here: `test_field_grammar` covers where the parsers part ways)
BAD_FIELDS = ["-1", "0", "1", "2", "9", "+3", "-0", "007", "x", "1.5", "", "0x1", "--1", "3e2"]
SPACES = [" ", "  ", "\t", " \t ", "\xa0", "　", "\x1f"]
LINE_ENDS = ["\n", "\r\n", "\r", "\x0c", "\x85", " "]


@st.composite
def mutated(draw, text: str):
    """`text` after a few line-level edits and a change of spacing."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(
            ["drop", "dup", "swap", "field", "extra", "short", "tag", "comment", "blank"]
        ))
        if not lines:
            lines.append(draw(st.sampled_from(["p wlg 1 0 0", "p cc 1 1", "# empty"])))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        parts = lines[i].split()
        if op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(j, lines[i])
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "field" and len(parts) > 1:
            parts[draw(st.integers(1, len(parts) - 1))] = draw(st.sampled_from(BAD_FIELDS))
            lines[i] = " ".join(parts)
        elif op == "extra":
            lines[i] = lines[i] + " " + draw(st.sampled_from(["0", "1", "x"]))
        elif op == "short" and parts:
            lines[i] = " ".join(parts[:-1])
        elif op == "tag" and parts:
            parts[0] = draw(st.sampled_from(["q", "P", "ee", "v", "e", "r", "p", "#"]))
            lines[i] = " ".join(parts)
        elif op == "comment":
            lines.insert(j, "# " + draw(st.sampled_from(["note", "e 0 1", "p wlg 9 9 9"])))
        elif op == "blank":
            lines.insert(j, draw(st.sampled_from(["", "   ", "\t"])))
    space = draw(st.sampled_from(SPACES))
    end = draw(st.sampled_from(LINE_ENDS))
    lines = [ln.replace(" ", space) for ln in lines]
    if draw(st.booleans()):
        lines = [("  " + ln + " # tail") if ln and k % 3 == 0 else ln
                 for k, ln in enumerate(lines)]
    return end.join(lines) + draw(st.sampled_from(["", end, end + end]))


def outcome(parse, text):
    try:
        return "ok", parse(text)
    except ParseError as exc:
        return "error", str(exc), exc.line


def assert_same_graph_outcome(text):
    got, want = outcome(parse_wlg, text), outcome(reference_parse_wlg, text)
    assert got[0] == want[0], (text, got, want)
    if got[0] == "error":
        assert got == want, text
        return
    g, h = got[1], want[1]
    assert g == h
    assert list(g.edges.items()) == list(h.edges.items())
    assert all(type(c) is int for c in g.vertex_colors)
    assert np.array_equal(g.edge_array(), h.edge_array())


def assert_same_scheme_outcome(text):
    got, want = outcome(parse_scheme, text), outcome(reference_parse_scheme, text)
    assert got[0] == want[0], (text, got, want)
    if got[0] == "error":
        assert got == want, text
        return
    c, d = got[1], want[1]
    assert (c.n, c.s) == (d.n, d.s)
    assert c.rel.dtype == d.rel.dtype and np.array_equal(c.rel, d.rel)


# -- parity ----------------------------------------------------------------------


@PROPERTY
@given(st.data())
def test_wlg_parser_matches_the_line_reference_on_mutated_texts(data):
    g = data.draw(wlk_graphs())
    assert_same_graph_outcome(data.draw(mutated(serialize_wlg(g))))


@PROPERTY
@given(st.data())
def test_scheme_parser_matches_the_line_reference_on_mutated_texts(data):
    c = data.draw(schemes())
    assert_same_scheme_outcome(data.draw(mutated(serialize_scheme(c))))


WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


@pytest.mark.parametrize("ws", WHITESPACE, ids=[f"U+{ord(w):04X}" for w in WHITESPACE])
def test_every_whitespace_character_splits_as_str_does(ws):
    """Each character Python counts as whitespace, as a field separator, a
    line end and both, next to a "\\r" and inside a comment."""
    for text in [
        f"p{ws}wlg 3 2 0\ne{ws}0 1\ne 1{ws}{ws}2{ws}\n",
        f"p wlg 3 1 0{ws}e 0 1{ws}v 2 1",
        f"p wlg 3 1 0\r{ws}e 0 1 # {ws} e 1 2\n{ws}\r\n",
        f"p wlg 3 1 0{ws}{ws}e 0 1\ne 1 2",
    ]:
        assert_same_graph_outcome(text)
    assert_same_scheme_outcome(f"p{ws}cc 1 1{ws}r 0{ws}0 0\r{ws}")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n\n",
        "# only a comment\n",
        "p wlg 0 0 0",
        "p wlg 3 1 0\ne 0 1\nv 2 5",
        "  p   wlg 3 1 1 # header\n\n\te 2 1 4\n",
        "p wlg 3 1 0\r\ne 1 0\r\n",
        "p wlg 3 2 0\ne 0 1\ne 1 0\n",  # duplicate after normalization
        "p wlg 3 2 1\ne 0 1\ne 1 0\n",  # directed: two edges
        "p wlg 3 2 0\ne 0 1\ne 0 9\ne 0 1\n",  # range error before the repeat
        "p wlg 3 2 0\ne 0 1\ne 0 1\ne 0 9\n",  # repeat before the range error
        "p wlg 3 1 0\ne 0 1\ne 0 1 x\n",  # a malformed repeat reports its fields
        "p wlg 3 0 0\nv 0 1\nv 0 1 2\n",
        "p wlg 3 0 0\nv 0 1\nv 0 -1\nv 0 2\n",
        "p wlg 3 0 0\nv 3 -1\n",  # range before color
        "p wlg 3 1 0\ne 5 5 -1\n",  # range before loop before color
        "p wlg 3 1 0\ne 1 1 -1\n",
        "p wlg -1 0 0\ne 0 1\n",
        "e 0 1\np wlg 2 1 0\n",
        "v 0 1 2 3\np wlg 2 0 0\n",
        "p wlg 2 0 0\np wlg\n",
        "p wlg 2 0 0\nq 1\ne 0 1\n",
        "p wlg 2 1 0\ne 0 1\nwlg\n",
        "p wlg 2 1 0\ne 0 1\n1 2\n",
        "p wlg 2 1 0\ne0 1\n",
        "p wlg 2 1 0\ne 0 1 2 3\n",
        "p wlg 2 1 0\ne 0 -0\n",
        "p wlg 2 1 0\ne +0 +1 +2\n",
        "p wlg 2 1 0\ne 0 1 -5\ne 0 1\n",
        "p wlg 2 1 0 # p wlg 9 9 9\ne 0 1 # e 0 1\n",
        "p wlg 2 1 0\x0be 0 1\x1c",
        "p　wlg\xa02 1 0\ne\x1f0\t1\n",
        "p wlg 999999999999999999 0 0\ne 0 999999999999999999\n",
        "p wlg 3 0 0\nv 1 999999999999999999\nv 1 1\n",
        "# two edges declared, one given\n\np wlg 3 2 0\nv 0 1\ne 0 1\n",
        "p wlg 3 0 0\ne 0 1\n",
    ],
)
def test_wlg_parser_matches_the_line_reference_on_edge_cases(text):
    assert_same_graph_outcome(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "p cc 0 0\n",
        "p cc 0 3\n",
        "p cc 1 1\nr 0 0 0",
        "r 0 0 0\np cc 1 1\n",
        "p cc 1 1\np cc 1 1\n",
        "p cc 1 1\nr 0 0 0\nr 0 0 0\n",
        "p cc 2 2\nr 0 0 0\nr 0 1 1\nr 0 0 1\nr 5 5 5\n",  # repeat before range
        "p cc 2 2\nr 0 0 0\nr 5 5 5\nr 0 0 1\n",  # range before repeat
        "p cc 2 2\nr 0 0 0\nr 0 1 1\nr 1 0 1\nr 1 1 0\nr 0 0 0\n",  # n^2 + 1 cells
        "p cc 2 2\nr 0 0 0\nr 0 1 1\nr 1 0 1\nr 0 0 0\n",  # n^2 cells, one twice
        "p cc 2 3\nr 0 0 0\nr 0 1 1\nr 1 0 1\nr 1 1 0\n",
        "p cc 1 1\nr 0 0 0 0\n",
        "p cc 1 1\nr 0 0 x\n",
        "p cc -1 1\n",
        "p cc 1\n",
        "p cc 1 1\nq\n",
        "p cc 1 1\n\n  r\t0 0 0 # cell\r\n",
        "p cc 1 1\nr +0 -0 00\n",
        "p cc 1 1\nr 0 0 -1\n",  # id out of range
        "p cc 1 1\nr 0 -1 0\n",
        "p cc 1 1\nrr 0 0 0\n",
        "p cc 1 1 # p cc 2 2\nr 0 0 0\n",
    ],
)
def test_scheme_parser_matches_the_line_reference_on_edge_cases(text):
    assert_same_scheme_outcome(text)


@pytest.mark.parametrize(
    "text,line,message",
    [
        ("p wlg 1_0 0 0\n", 1, "header fields must be integers"),
        ("p wlg 2 0 0\nv 0 ١\n", 2, "vertex fields must be integers"),
        ("p wlg 2 1 0\ne 0 1 1234567890123456789\n", 2, "edge fields must be integers"),
        ("p cc 1 1\nr 0 0 0_0\n", 2, "cell fields must be integers"),
    ],
)
def test_field_grammar(text, line, message):
    """A field is an optional sign and 1 to 18 ASCII digits.  Python's int()
    also reads underscores, other decimal digits and longer numbers; the
    parsers reject those with the 'must be integers' error of their line."""
    parse = parse_scheme if text.startswith("p cc") else parse_wlg
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: {message}"


# -- round trips -------------------------------------------------------------------


@PROPERTY
@given(wlk_graphs())
def test_wlg_round_trip_and_reference_bytes(g):
    text = serialize_wlg(g)
    assert text == reference_serialize_wlg(g)
    assert parse_wlg(text) == g
    perm = list(range(g.n))
    random.Random(g.n + g.num_edges).shuffle(perm)
    assert serialize_wlg_relabeled(g, perm) == reference_serialize_wlg_relabeled(g, perm)
    assert serialize_wlg_relabeled(g, np.asarray(perm)) == serialize_wlg(g.relabel(perm))


@pytest.mark.parametrize("m", [1, 90, 400])
@pytest.mark.parametrize("directed", [False, True])
def test_relabeled_bytes_match_the_reference_on_larger_graphs(m, directed):
    # the hypothesis graphs above have at most 42 edges
    rng = random.Random(m * 2 + directed)
    n = 40
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    for colors in (0, 1, 3):
        edges = [(u, v, rng.randrange(colors) if colors else 0) for u, v in rng.sample(pairs, m)]
        g = ColoredGraph(n, edges, directed, [rng.randrange(3) for _ in range(n)])
        perm = list(range(n))
        rng.shuffle(perm)
        text = serialize_wlg_relabeled(g, perm)
        assert text == reference_serialize_wlg_relabeled(g, perm)
        assert text == serialize_wlg(g.relabel(perm))


@PROPERTY
@given(schemes())
def test_scheme_round_trip_and_reference_bytes(c):
    text = serialize_scheme(c)
    assert text == reference_serialize_scheme(c)
    back = parse_scheme(text)
    assert (back.n, back.s) == (c.n, c.s) and np.array_equal(back.rel, c.rel)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([complete(4), petersen(), complete_bipartite(2, 3), hypercube(3)]),
    st.lists(st.booleans(), min_size=15, max_size=15),
)
def test_cfi_map_round_trip(base, flips):
    twisted = [(u, v) for (u, v, _), flip in zip(base.edge_list(), flips) if flip]
    _, m = cfi_build(base, twisted=twisted)
    rows = parse_cfi_map_roles(serialize_cfi_map(m))
    assert rows == [(x, m.origin[x], m.role[x]) for x in range(len(m.origin))]


# -- pinned bytes and memory -------------------------------------------------------


# SHA-256 of the bytes the per-line formatters wrote for `_pinned_inputs`
PINNED_SHA256 = "070b6c7af2365b5f645167b1d2569ad879730d0f92b4b1893cedce05379ab217"


def _pinned_inputs():
    graphs = [cycle(9), petersen(), hypercube(3), complete_bipartite(3, 3), ColoredGraph(0)]
    graphs.append(ColoredGraph(4, [(0, 1, 2), (3, 1, 0), (2, 0, 5)], True, [0, 3, 0, 1]))
    graphs.append(cfi_build(complete(4), twisted=((0, 1),))[0])
    rng = random.Random(5)
    for n, m in ((30, 200), (60, 900)):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [(u, v, rng.randrange(3)) for u, v in rng.sample(pairs, m)]
        graphs.append(ColoredGraph(n, edges, vertex_colors=[rng.randrange(4) for _ in range(n)]))
    k4 = klein_scheme(complete(4))
    schemes_ = [k4, psi_twist(k4, 1), cellular_closure(merge_relations(k4, klein_merge_groups(k4)))]
    schemes_.append(CoherentConfig(n=0, s=0, rel=np.zeros((0, 0), dtype=np.int64)))
    return graphs, schemes_


def test_serialized_bytes_are_pinned():
    graphs, schemes_ = _pinned_inputs()
    h = hashlib.sha256()
    for i, g in enumerate(graphs):
        h.update(serialize_wlg(g).encode("ascii"))
        h.update(serialize_wlg_relabeled(g, random_relabel(g, i)[1]).encode("ascii"))
    for c in schemes_:
        h.update(serialize_scheme(c).encode("ascii"))
    assert h.hexdigest() == PINNED_SHA256


def test_a_scheme_header_alone_allocates_nothing_of_its_size():
    # the parser used to allocate the 4000 x 4000 matrix and its fill mask,
    # 144 MB, before it counted the cells
    got, peak = traced_peak(lambda: outcome(parse_scheme, "p cc 4000 1\n"))
    assert got == ("error", "expected 16000000 cells, found 0", None)
    assert peak < 1 << 20


def test_parser_memory_stays_a_small_multiple_of_the_text():
    # matching one regex group repeated over every line of the text grew the
    # regex engine's stack by about 1.2 kB per line, 120 times the text
    rng = random.Random(11)
    n = 200
    pairs = rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)], 8000)
    g = ColoredGraph(n, [(u, v, rng.randrange(3)) for u, v in pairs])
    text = serialize_wlg(g)
    got, peak = traced_peak(lambda: parse_wlg(text))
    assert got == g
    assert peak < 30 * len(text)
    c = CoherentConfig(n=90, s=90, rel=np.arange(8100, dtype=np.int64).reshape(90, 90) % 90)
    text = serialize_scheme(c)
    got, peak = traced_peak(lambda: parse_scheme(text))
    assert np.array_equal(got.rel, c.rel)
    assert peak < 30 * len(text)
