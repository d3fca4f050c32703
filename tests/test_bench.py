from __future__ import annotations

import pytest

from wlkit.bench import fit_exponent, format_rows, run_bench


def test_rows_have_the_expected_shape():
    rows = run_bench(sizes=(6, 8), k=2, repeats=1)
    assert len(rows) == 2
    for r in rows:
        assert set(r) == {"n", "k", "rounds", "seconds"}
        assert r["seconds"] > 0


def test_fit_exponent():
    rows = [
        {"n": 10, "k": 2, "rounds": 1, "seconds": 1.0},
        {"n": 20, "k": 2, "rounds": 1, "seconds": 8.0},
        {"n": 40, "k": 2, "rounds": 1, "seconds": 64.0},
    ]
    assert abs(fit_exponent(rows) - 3.0) < 1e-9
    with pytest.raises(ValueError):
        fit_exponent(rows[:1])


def test_format_rows_prints_a_header_and_one_line_per_size():
    rows = run_bench(sizes=(6, 8), k=2, repeats=1)
    lines = format_rows(rows).splitlines()
    assert lines[0] == "n\tk\trounds\tseconds"
    assert [ln.split("\t")[:2] for ln in lines[1:]] == [["6", "2"], ["8", "2"]]


def test_bench_inputs_are_checked():
    with pytest.raises(ValueError, match="repeats must be >= 1"):
        run_bench(sizes=(6,), repeats=0)
    rows = [{"n": n, "k": 2, "rounds": 1, "seconds": 1.0} for n in (0, 6)]
    with pytest.raises(ValueError, match="sizes must be >= 1"):
        fit_exponent(rows)
