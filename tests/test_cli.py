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
import time
from pathlib import Path

import pytest

import torloc
from torloc import cli
from torloc.cli import emit, main
from torloc.equivariant import EquivariantElement
from torloc.io import (
    ValidationError,
    parse_abbv_input,
    parse_complex,
    parse_json_text,
    parse_ktheory_input,
)

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


def test_internal_error_is_a_structured_report(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("invariant broken")

    monkeypatch.setitem(cli._HANDLERS, "les", broken)
    code, rep, err = run_json(capsys, "les", "--input", DATASETS / "circle_lifts.json")
    assert code == 1
    assert rep == {
        "command": "les",
        "error": {"type": "InternalError", "message": "RuntimeError: invariant broken"},
    }
    assert err.startswith("internal error: RuntimeError raised at test_cli.py:")
    assert "Traceback" not in err


def test_failed_inversion_round_trip_is_an_internal_error(capsys, monkeypatch):
    # the round trip runs on every inversion, the recorded-split path included
    monkeypatch.setattr(EquivariantElement, "equals", lambda self, other: False)
    code, rep, err = run_json(capsys, "abbv", "--input", DATASETS / "p2_abbv_euler.json")
    assert code == 1
    assert rep["error"] == {
        "type": "InternalError",
        "message": "RuntimeError: inversion failed to round-trip",
    }
    assert "in invert_localized" in err


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


def test_oversized_closure_exits_two_at_once(tmp_path):
    # one 40-vertex generator would close to 2^40 - 1 faces
    p = tmp_path / "simplex40.json"
    p.write_text(json.dumps({
        "complex": {"vertices": [f"v{i}" for i in range(40)], "simplices": [list(range(40))]},
        "closed_vertices": [0],
    }))
    r = subprocess.run(
        [sys.executable, "-m", "torloc", "les", "--input", str(p)],
        capture_output=True, text=True, timeout=60,
    )
    assert r.returncode == 2
    assert r.stdout == ""
    assert "65536" in r.stderr and "complex.simplices" in r.stderr


def test_closure_bound_counts_distinct_generators():
    # one 16-vertex generator, given twice, plus one vertex: 2^16 - 1 + 1
    # faces, exactly at the bound, is allowed
    obj = {"vertices": [f"v{i}" for i in range(17)],
           "simplices": [list(range(16)), list(range(15, -1, -1)), [16]]}
    cx, _ = parse_complex(obj)
    assert cx.simplex_count() == 2**16
    obj["simplices"].append([16, 0])
    with pytest.raises(ValidationError, match="the bound is 65536"):
        parse_complex(obj)


def wide_pair(w, d=0):
    """P^1 along the weights 0 and w, twisted by O(d)."""
    return {"num_vars": 1, "points": [
        {"fiber": {"0": 1}, "conormal": [[-w]]},
        {"fiber": {str(-d * w): 1}, "conormal": [[w]]},
    ]}


def test_oversized_ktheory_span_exits_two_at_once(capsys, tmp_path):
    # weights +-10^7: the sum would work over 2 * 10^7 exponents
    p = tmp_path / "wide.json"
    p.write_text(json.dumps(wide_pair(10**7)))
    start = time.perf_counter()
    code, out, err = run(capsys, "ktheory", "--input", p)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "is 20000000" in err and "the bound is 1048576" in err


def test_wide_pair_under_the_span_bound_collapses(capsys, tmp_path):
    p = tmp_path / "wide.json"
    p.write_text(json.dumps(wide_pair(10**5, 1)))
    code, rep, _ = run_json(capsys, "ktheory", "--input", p)
    assert code == 0
    assert rep["character"] == "1 + t^-100000"
    assert rep["value_at_one"] == "2"


def test_ktheory_span_bound_counts_fibers_and_conormals():
    # conormals of weight +-2^19 sum to 2^20, exactly at the bound
    obj = wide_pair(2**19)
    assert len(parse_ktheory_input(obj)) == 2
    obj["points"][1]["fiber"] = {"1": 1}
    with pytest.raises(ValidationError, match="is 1048577; the bound is 1048576"):
        parse_ktheory_input(obj)
    # each variable counts: 2^19 + 2^19 in one weight, then a fiber span of 1
    flat = {"num_vars": 2, "points": [{"fiber": {"0,0": 1}, "conormal": [[2**19, -2**19]]}]}
    assert len(parse_ktheory_input(flat)) == 1
    flat["points"][0]["fiber"] = {"0,0": 1, "0,1": 1}
    with pytest.raises(ValidationError, match="the bound is 1048576"):
        parse_ktheory_input(flat)


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


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        # quoted annotations name their types inside a string
        notes = [getattr(node, "annotation", None), getattr(node, "returns", None)]
        for note in filter(None, notes):
            for sub in ast.walk(note):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                             if isinstance(n, ast.Name)}
        # names listed in __all__ are exported, so they count as used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # __init__.py imports only to re-export
    src = Path(torloc.__file__).parent
    found = {
        path.name: unused
        for path in sorted(src.rglob("*.py"))
        if path.name != "__init__.py"
        and (unused := _unused_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}


def test_unused_import_scan_flags_only_unused_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "from typing import Mapping, Sequence\n"
        "from .x import Exported, Dropped\n"
        "__all__ = ['Exported']\n"
        "def f(a: 'Mapping') -> Sequence: return a\n"
    )
    assert _unused_imports(tree) == ["os (line 2)", "Dropped (line 4)"]


_IMPORT_PROBE = """
import contextlib, io, json, sys
from torloc.cli import main

codes = []
for command in ("les", "lifts"):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(main([command, "--input", sys.argv[1]]))
unwanted = ("dataclasses", "inspect",
            "torloc.equivariant", "torloc.ktheory", "torloc.poly", "torloc.suite")
print(json.dumps({"codes": codes, "loaded": sorted(m for m in unwanted if m in sys.modules)}))
"""


def test_pair_commands_import_no_dataclasses_and_no_unused_engine():
    # a fresh interpreter: the cold start of les and lifts stays free of
    # dataclasses, inspect and the polynomial engines
    r = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(DATASETS / "circle_lifts.json")],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {"codes": [0, 0], "loaded": []}


def test_package_names_resolve_on_first_use():
    assert len(torloc.__all__) == 42
    for name in torloc.__all__:
        value = getattr(torloc, name)
        assert getattr(sys.modules[value.__module__], name) is value
        assert name in dir(torloc)
    with pytest.raises(AttributeError):
        torloc.no_such_name


_SYMPY_PROBE = """
import contextlib, io, json, sys
from pathlib import Path
from torloc.cli import main
from torloc.equivariant import (
    ComponentAlgebra, EquivariantElement, GradedPoly, NotInvertible, invert_localized,
)

jobs = [["abbv", "--input", str(p)] for p in sorted(Path(sys.argv[1]).glob("*abbv*"))]
codes = {}
for argv in jobs + [["verify", "--seed", "42"]]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes[argv[-1]] = main(argv)
loaded = "sympy" in sys.modules

x1, x2 = (GradedPoly.variable(2, i) for i in range(2))
refused = []
for u in (x1 + GradedPoly.constant(2, 1), x1 * x1 + x2 * x2):
    try:
        invert_localized(EquivariantElement.from_poly(ComponentAlgebra.point(), u))
    except NotInvertible:
        refused.append(str(u))
print(json.dumps({"codes": codes, "loaded": loaded, "refused": refused,
                  "fallback": "sympy" in sys.modules}))
"""


def test_euler_path_never_imports_sympy():
    # a fresh interpreter, so that nothing else has loaded sympy first
    r = subprocess.run(
        [sys.executable, "-c", _SYMPY_PROBE, str(DATASETS)], capture_output=True, text=True
    )
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert len(out["codes"]) == 8
    assert set(out["codes"].values()) == {0}
    assert out["loaded"] is False
    assert out["refused"] == ["x1 + 1", "x1^2 + x2^2"]
    assert out["fallback"] is True


def test_euler_restrictions_share_the_component_euler_class():
    obj = json.loads((DATASETS / "p2_abbv_euler.json").read_text())
    components, restrictions = parse_abbv_input(obj)
    assert all(r is fc.euler() for r, fc in zip(restrictions, components))


def test_unknown_command_exits_two():
    r = subprocess.run(
        [sys.executable, "-m", "torloc", "frobnicate"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 2
    assert r.stdout == ""
