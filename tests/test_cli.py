"""End-to-end runs of the command line front end.

Exit codes are the contract: 0 all checks pass, 1 the computation or a
check failed, 2 the input was unusable.  Reports on stdout must be
byte-identical across runs; timing goes to stderr.
"""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import torloc
from torloc.cli import emit, main
from torloc.io import parse_json_text

DATASETS = Path(torloc.__file__).parent / "datasets"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# -- happy paths ---------------------------------------------------------------


def test_lifts_on_the_circle(capsys):
    code, rep, err = run_json(capsys, "lifts", "--input", DATASETS / "circle_lifts.json")
    assert code == 0
    assert rep["command"] == "lifts"
    assert rep["degree"] == 1
    assert rep["ambient_dim"] == 2
    assert rep["direction_count"] == 1
    assert rep["verdict"] == "non-singleton (affine line)"
    assert rep["canonical_lift"] is None
    assert rep["base_lift"] == ["1", "0"]
    assert re.fullmatch(r"torloc lifts: \d+\.\d{3}s\n", err)


def test_les_on_the_circle(capsys):
    code, rep, _ = run_json(capsys, "les", "--input", DATASETS / "circle_lifts.json")
    assert code == 0
    assert rep["ok"] is True
    by_degree = {row["degree"]: row for row in rep["degrees"]}
    assert by_degree[1]["dim_supported"] == 2
    assert by_degree[1]["dim_ambient"] == 1
    assert by_degree[1]["rank_connect"] == 1
    assert all(
        row["composite_zero"] and row["exact_at_ambient"] for row in rep["degrees"]
    )


def test_les_beyond_the_top_degree_is_trivially_exact(capsys):
    code, rep, _ = run_json(
        capsys, "les", "--input", DATASETS / "circle_lifts.json", "--degree", "7"
    )
    assert code == 0
    (row,) = rep["degrees"]
    assert row["dim_supported"] == row["dim_ambient"] == row["dim_quotient"] == 0
    assert row["exact_at_supported"] is True


def test_abbv_unit_integrates_to_zero(capsys):
    code, rep, _ = run_json(capsys, "abbv", "--input", DATASETS / "p1_abbv_unit.json")
    assert code == 0
    assert rep["ok"] is True
    assert all(c["ok"] for c in rep["concentration"])
    assert rep["integral"]["constant"] == "0"
    assert rep["integral"]["is_polynomial"] is True


def test_abbv_euler_counts_fixed_points(capsys):
    code, rep, _ = run_json(capsys, "abbv", "--input", DATASETS / "p3_abbv_euler.json")
    assert code == 0
    assert rep["integral"]["constant"] == "4"


def test_abbv_hyperplane_degree(capsys):
    code, rep, _ = run_json(
        capsys, "abbv", "--input", DATASETS / "p1_abbv_hyperplane.json"
    )
    assert code == 0
    assert rep["integral"]["constant"] == "1"


def test_ktheory_fixture_value(capsys):
    code, rep, _ = run_json(capsys, "ktheory", "--input", DATASETS / "kth_p2_d3.json")
    assert code == 0
    assert rep["point_count"] == 3
    assert rep["is_character"] is True
    assert rep["value_at_one"] == "10"


def test_verify_passes(capsys):
    code, rep, _ = run_json(capsys, "verify", "--seed", "7")
    assert code == 0
    assert rep["ok"] is True
    assert rep["seed"] == 7
    assert len(rep["checks"]) == 12


# -- failure routing -------------------------------------------------------------


def test_unsupported_class_is_an_engine_error(capsys, tmp_path):
    job = json.loads((DATASETS / "circle_lifts.json").read_text())
    job["class"] = {"degree": 0, "coordinates": [1]}
    p = tmp_path / "job.json"
    p.write_text(json.dumps(job))
    code, rep, _ = run_json(capsys, "lifts", "--input", p)
    assert code == 1
    assert rep["error"]["type"] == "NotSupported"
    assert "restriction" in rep["error"]["message"]


def test_missing_file_exits_two(capsys):
    code, out, err = run(capsys, "les", "--input", "/nonexistent/job.json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read")


def test_malformed_json_exits_two(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{")
    code, out, err = run(capsys, "les", "--input", p)
    assert code == 2
    assert "line 1" in err


def test_non_utf8_input_exits_two(capsys, tmp_path):
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"vertices": ["\xff"]}')
    code, out, err = run(capsys, "les", "--input", p)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read") and "UTF-8" in err


def test_float_input_exits_two(capsys, tmp_path):
    p = tmp_path / "f.json"
    p.write_text('{"num_vars": 2, "components": [{"weights": [[0.5, 1]], "restriction": "unit"}]}')
    code, out, err = run(capsys, "abbv", "--input", p)
    assert code == 2
    assert "inexact" in err


def test_negative_degree_exits_two(capsys):
    code, out, err = run(
        capsys, "les", "--input", DATASETS / "circle_lifts.json", "--degree", "-1"
    )
    assert code == 2
    assert "--degree" in err


def test_missing_class_exits_two(capsys, tmp_path):
    job = json.loads((DATASETS / "circle_lifts.json").read_text())
    del job["class"]
    p = tmp_path / "job.json"
    p.write_text(json.dumps(job))
    code, out, err = run(capsys, "lifts", "--input", p)
    assert code == 2
    assert "missing 'class'" in err


# -- output discipline -------------------------------------------------------------


def test_reports_are_byte_identical_across_runs(capsys):
    outs = []
    for _ in range(2):
        _, out, _ = run(capsys, "lifts", "--input", DATASETS / "circle_lifts.json")
        outs.append(out)
    assert outs[0] == outs[1]


def test_text_format(capsys):
    code, out, err = run(
        capsys, "lifts", "--input", DATASETS / "circle_lifts.json", "--format", "text"
    )
    assert code == 0
    assert "verdict: non-singleton (affine line)" in out
    assert "canonical_lift: null" in out
    assert 'base_lift: ["1", "0"]' not in out  # text mode drops the quotes
    assert "base_lift: [1, 0]" in out


def test_emit_round_trips_through_the_parser():
    report = {
        "command": "demo",
        "ok": True,
        "nested": {"values": ["1/2", 3, None, False]},
    }
    assert parse_json_text(emit(report, "json")) == report


def test_json_emit_ends_with_one_newline():
    assert emit({"a": 1}, "json").endswith("}\n")
    assert not emit({"a": 1}, "json").endswith("\n\n")


# -- module execution ----------------------------------------------------------------


def test_module_entry_point_verify():
    r1 = subprocess.run(
        [sys.executable, "-m", "torloc", "verify", "--seed", "42"],
        capture_output=True,
        text=True,
    )
    assert r1.returncode == 0
    rep = json.loads(r1.stdout)
    assert rep["ok"] is True
    assert r1.stderr.startswith("torloc verify:")


def test_verify_is_the_same_under_optimize():
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "torloc", "verify", "--seed", "42"],
            capture_output=True,
        )
        for flags in ([], ["-O"])
    ]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout


def test_engine_invariants_are_not_asserts():
    # `python -O` strips assert statements, so an internal invariant must raise
    src = Path(torloc.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_unknown_command_exits_two():
    r = subprocess.run(
        [sys.executable, "-m", "torloc", "frobnicate"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 2
    assert r.stdout == ""
