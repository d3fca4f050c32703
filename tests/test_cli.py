from __future__ import annotations

import numpy as np
import pytest

from conftest import traced_peak
import wlkit.cli as cli
from wlkit.cli import main
from wlkit.cfi import cfi_build, parse_cfi_map_roles
from wlkit.coherent import klein_scheme, parse_scheme, serialize_scheme
from wlkit.errors import ResourceLimitError
from wlkit.families import complete, cycle, path, petersen, random_graph, rook_4x4, shrikhande
from wlkit.graph import ColoredGraph, parse_wlg, serialize_wlg
from wlkit.limits import Limits
from wlkit.refine import project, refine_k


@pytest.fixture()
def files(tmp_path):
    def write(name, g):
        p = tmp_path / name
        p.write_text(serialize_wlg(g))
        return str(p)

    return tmp_path, write


def test_refine_summary(files, capsys):
    _, write = files
    assert main(["refine", write("c6.wlg", cycle(6)), "-k", "2"]) == 0
    out = capsys.readouterr().out
    assert "classes 4" in out
    assert "vertex-classes 1" in out


def test_refine_export(files, capsys, tmp_path):
    _, write = files
    dest = tmp_path / "colors.txt"
    assert main(["refine", write("c4.wlg", cycle(4)), "--export", str(dest)]) == 0
    lines = dest.read_text().strip().splitlines()
    assert len(lines) == 16


def test_refine_stays_within_the_refinement_budget(files, capsys):
    # refinement keeps nothing from past rounds: the command holds the
    # parsed graph and one round's rows at a time over its 199 rounds
    _, write = files
    g = path(400)
    with pytest.raises(ResourceLimitError) as err:
        refine_k(g, 1, limits=Limits(memory_bytes=1))
    src = write("p400.wlg", g)
    text = serialize_wlg(g)
    _, parse_peak = traced_peak(lambda: parse_wlg(text))
    code, peak = traced_peak(lambda: main(["refine", src, "-k", "1"]))
    assert code == 0 and peak <= err.value.required + parse_peak
    assert "rounds 199" in capsys.readouterr().out


def test_certify_digest_only_is_relabel_invariant(files, capsys):
    _, write = files
    g = petersen()
    h = g.relabel([9, 8, 7, 6, 5, 4, 3, 2, 1, 0])
    a = write("a.wlg", g)
    b = write("b.wlg", h)
    assert main(["certify", a, "--mode", "canonical", "--digest-only"]) == 0
    da = capsys.readouterr().out.strip()
    assert main(["certify", b, "--mode", "canonical", "--digest-only"]) == 0
    db = capsys.readouterr().out.strip()
    assert da == db and len(da) == 64


def test_certify_report_fields(files, capsys):
    _, write = files
    assert main(["certify", write("g.wlg", cycle(5)), "--mode", "verified"]) == 0
    out = capsys.readouterr().out
    assert "digest " in out and "orbit-flag 0" in out


def test_iso_verdicts(files, capsys):
    _, write = files
    c6 = write("c6.wlg", cycle(6))
    cc = write("cc.wlg", cycle(6).relabel([3, 4, 5, 0, 1, 2]))
    k4 = write("k4.wlg", complete(4))
    assert main(["iso", c6, cc]) == 0
    assert main(["iso", c6, k4]) == 1
    assert main(["iso", c6, cc, "--method", "oracle"]) == 0
    out = capsys.readouterr().out
    assert "mapping" in out
    assert main(["iso", c6, k4, "--method", "oracle"]) == 1
    shr = write("s.wlg", shrikhande())
    rook = write("r.wlg", rook_4x4())
    assert main(["iso", shr, rook, "--method", "similar", "-k", "2"]) == 0
    assert main(["iso", shr, rook, "--method", "similar", "-k", "3"]) == 1


def test_orbits_help_says_refine_prints_classes(capsys):
    with pytest.raises(SystemExit):
        main(["orbits", "--help"])
    assert "can be coarser than the orbits" in " ".join(capsys.readouterr().out.split())


def test_orbits(files, capsys):
    _, write = files
    p4 = write("p4.wlg", parse_wlg("p wlg 4 3 0\ne 0 1\ne 1 2\ne 2 3\n"))
    assert main(["orbits", p4]) == 0
    assert capsys.readouterr().out == "0 3\n1 2\n"
    assert main(["orbits", p4, "--method", "refine"]) == 0
    assert capsys.readouterr().out == "0 3\n1 2\n"
    # many classes: one line per class in color order, members ascending
    g = random_graph(40, 0.1, seed=3).with_vertex_colors([v % 3 for v in range(40)])
    src = write("r.wlg", g)
    for k in (1, 2):
        assert main(["orbits", src, "--method", "refine", "-k", str(k)]) == 0
        vc = project(refine_k(g, k), 1).colors
        want = [
            " ".join(str(v) for v in range(g.n) if vc[v] == cid)
            for cid in range(int(vc.max()) + 1)
        ]
        assert capsys.readouterr().out.splitlines() == want


def test_separator(files, capsys):
    _, write = files
    assert main(["separator", write("k4.wlg", complete(4))]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_cfi_pipeline(files, capsys, tmp_path):
    _, write = files
    base = write("k4.wlg", complete(4))
    out = tmp_path / "gadget.wlg"
    sidecar = tmp_path / "gadget.map"
    assert main(["cfi", base, "-o", str(out), "--map", str(sidecar),
                 "--twist", "0-1"]) == 0
    g = parse_wlg(out.read_text())
    assert g.n == 40
    rows = parse_cfi_map_roles(sidecar.read_text())
    assert len(rows) == 40
    # twists only make sense for a single replacement step
    assert main(["cfi", base, "--depth", "2", "--twist", "0-1",
                 "-o", str(out)]) == 2


@pytest.mark.parametrize("depth", ["0", "-2"])
def test_cfi_refuses_a_depth_below_1(files, capsys, tmp_path, depth):
    _, write = files
    out = tmp_path / "none.wlg"
    assert main(["cfi", write("k4.wlg", complete(4)), "--depth", depth, "-o", str(out)]) == 2
    assert "depth must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_cfi_depth(files, tmp_path):
    _, write = files
    out = tmp_path / "l2.wlg"
    assert main(["cfi", write("k4.wlg", complete(4)), "--depth", "2",
                 "-o", str(out)]) == 0
    assert parse_wlg(out.read_text()).n == 400


def test_klein_validate_and_twist(files, capsys, tmp_path):
    _, write = files
    base = write("k4.wlg", complete(4))
    out = tmp_path / "scheme.cc"
    assert main(["klein", base, "-o", str(out), "--validate"]) == 0
    assert "valid 1" in capsys.readouterr().out
    c = parse_scheme(out.read_text())
    assert c.n == 16 and c.s == 40
    twisted = tmp_path / "twisted.cc"
    assert main(["klein", base, "-o", str(twisted), "--twist-fibre", "0"]) == 0
    t = parse_scheme(twisted.read_text())
    assert not np.array_equal(t.rel, c.rel)


def test_klein_merge_and_graph_out(files, capsys, tmp_path):
    _, write = files
    base = write("k4.wlg", complete(4))
    out = tmp_path / "merged.cc"
    gout = tmp_path / "scheme.wlg"
    assert main(["klein", base, "-o", str(out), "--merge",
                 "--graph-out", str(gout)]) == 0
    assert parse_scheme(out.read_text()).s == 40
    sg = parse_wlg(gout.read_text())
    assert sg.n == 16 and sg.directed


def test_validate_command(files, capsys, tmp_path):
    _, write = files
    base = write("k4.wlg", complete(4))
    out = tmp_path / "scheme.cc"
    assert main(["klein", base, "-o", str(out)]) == 0
    assert main(["validate", str(out)]) == 0
    assert "valid 1" in capsys.readouterr().out
    # move one within-fibre pair into a different relation: coherence breaks
    from wlkit.coherent import serialize_scheme

    c = parse_scheme(out.read_text())
    c.rel[0, 1] = c.rel[0, 2]
    c.rel[1, 0] = c.rel[2, 0]
    bad = tmp_path / "bad.cc"
    bad.write_text(serialize_scheme(c))
    assert main(["validate", str(bad)]) == 1
    assert "valid 0" in capsys.readouterr().out


def test_validate_prints_plain_integer_witnesses(capsys, tmp_path):
    bad = tmp_path / "leak.cc"
    bad.write_text("p cc 2 2\nr 0 0 0\nr 0 1 1\nr 1 0 1\nr 1 1 1\n")
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "axiom 1\nwitness (1, 0, 1)\n" in out


def test_decompose_and_reduce(files, capsys):
    _, write = files
    c4 = write("c4.wlg", cycle(4))
    assert main(["decompose", c4]) == 0
    out = capsys.readouterr().out
    assert "pieces 2" in out
    assert main(["reduce", c4]) == 0
    out = capsys.readouterr().out
    assert "depth" in out and "digest" in out
    assert main(["reduce", c4, "--digest-only"]) == 0
    assert len(capsys.readouterr().out.strip()) == 64


def test_bench(files, capsys):
    assert main(["bench", "--sizes", "6,8", "--repeats", "1"]) == 0
    out = capsys.readouterr().out
    assert "seconds" in out and "# exponent:" in out


def test_stdin_input(files, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_wlg(cycle(6))))
    assert main(["refine", "-"]) == 0
    assert "classes 4" in capsys.readouterr().out


def test_error_paths(files, capsys, tmp_path):
    assert main(["refine", str(tmp_path / "missing.wlg")]) == 2
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.wlg"
    bad.write_text("p wlg 1 5 0\n")
    assert main(["refine", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["iso", "{g}", "{g}", "-k", "0"],  # 1 would read as "non-isomorphic"
        ["refine", "{g}", "-k", "0"],
        ["cfi", "{g}", "--twist", "a-b"],
        ["bench", "--sizes", "8,x"],
        ["bench", "--repeats", "0"],  # would print inf seconds and a nan exponent
        ["bench", "--sizes", "0,6", "--repeats", "1"],  # log(0) fails the fit
    ],
)
def test_library_value_errors_exit_2(files, capsys, argv):
    _, write = files
    src = write("c4.wlg", cycle(4))
    assert main([a.replace("{g}", src) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "{g}", "-k", "0"],
        ["iso", "{g}", "{g}", "-k", "0"],
        ["iso", "{g}", "{g}", "--method", "similar", "-k", "0"],
    ],
)
def test_k_below_one_exits_2_on_the_empty_graph_too(files, capsys, argv):
    _, write = files
    src = write("empty.wlg", ColoredGraph(0))
    assert main([a.replace("{g}", src) for a in argv]) == 2
    assert "k must be >= 1" in capsys.readouterr().err


def test_iso_of_a_search_past_the_node_budget_exits_2(files, capsys, monkeypatch):
    # the canonical search on an edgeless 1100-vertex graph descends 1099
    # levels before the budget trips; it ends in the budget's error, not
    # in a verdict
    _, write = files
    a = write("a.wlg", ColoredGraph(1100, []))
    b = write("b.wlg", ColoredGraph(1100, []))
    monkeypatch.setattr(cli, "DEFAULT_LIMITS", Limits(canon_nodes=1200))
    assert main(["iso", a, b, "-k", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "canon_nodes" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "wlkit" in capsys.readouterr().out


def test_repeated_calls_in_one_process_behave_alike(files, capsys, tmp_path):
    """`main` reuses one argument parser per process: the same argv gives the
    same output and exit code every time, and options do not carry over."""
    _, write = files
    base = write("k4.wlg", complete(4))
    bad = tmp_path / "bad.wlg"
    bad.write_text("p wlg 2 1 0\ne 0 5\n")
    argvs = [
        ["cfi", base, "--twist", "0-1"],
        ["cfi", base, "--twist", "0-2,1-3", "--twist", "2-3"],
        ["cfi", base],
        ["klein", base, "--twist-fibre", "1"],
        ["klein", base],
        ["certify", base, "-k", "1", "--digest-only"],
        ["refine", str(bad)],
        ["certify", base, "--mode", "bogus"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    first = [run(argv) for argv in argvs]
    assert [run(argv) for argv in argvs] == first
    codes = [code for code, _, _ in first]
    assert codes == [0, 0, 0, 0, 0, 0, 2, 2]
    assert first[6][2] == "error: line 2: edge (0,5) out of range\n"
    assert "invalid choice: 'bogus'" in first[7][2]
    # no twist leaks into a later call: each output is that of a fresh build
    plain = serialize_wlg(cfi_build(complete(4))[0])
    assert first[2][1] == plain != first[0][1]
    assert first[0][1] == serialize_wlg(cfi_build(complete(4), twisted=[(0, 1)])[0])
    assert first[1][1] == serialize_wlg(
        cfi_build(complete(4), twisted=[(0, 2), (1, 3), (2, 3)])[0]
    )
    assert first[4][1] == serialize_scheme(klein_scheme(complete(4))) != first[3][1]
