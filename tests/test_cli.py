"""Tests for the command-line surface: exit codes and error messages."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zecs
from zecs import cli, datasets, io
from zecs.diagnostics import resolve_reference
from zecs.layout import heavy_hex_127
from zecs.report import SubsystemSpec


def subsystems_file(tmp_path):
    path = tmp_path / "subsystems.json"
    path.write_text(json.dumps({"subsystems": [{"kind": "pair", "qubits": [0, 1]}]}))
    return path


def reconstruct(tmp_path, snapshots):
    return cli.main(
        [
            "reconstruct",
            "--snapshots", str(snapshots),
            "--subsystems", str(subsystems_file(tmp_path)),
            "--ref-policy", "zero",
            "--out", str(tmp_path / "report.json"),
        ]
    )


def test_simulate_then_reconstruct(tmp_path, capsys):
    stream = tmp_path / "snapshots.jsonl"
    argv = ["simulate", "--qubits", "2", "--reps", "1", "--snapshots", "50", "--out", str(stream)]
    assert cli.main(argv) == 0
    assert reconstruct(tmp_path, stream) == 0
    report = io.read_report(tmp_path / "report.json")
    assert [row.qubits for row in report.subsystems] == [(0, 1)]


def test_zero_policy_fills_both_pairs_of_a_pair_pair():
    spec = SubsystemSpec("pair_pair", (0, 1, 3, 4))
    references = cli._references_from_specs([spec], {}, "zero")
    assert set(references) == {(0, 1), (3, 4)}
    zero = np.zeros(16)
    zero[0] = 1.0
    assert np.array_equal(resolve_reference(spec, references).pure_vector, zero)


def test_header_without_n_qubits_exits_2(tmp_path, capsys):
    header = io.snapshot_header(2)
    del header["n_qubits"]
    stream = tmp_path / "snapshots.jsonl"
    stream.write_text(json.dumps(header) + '\n{"bases":"XZ","bits":"01"}\n')
    assert reconstruct(tmp_path, stream) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "snapshots.jsonl: line 1: header n_qubits" in err
    assert not (tmp_path / "report.json").exists()


def test_header_with_non_integer_n_qubits_exits_2(tmp_path, capsys):
    header = io.snapshot_header(2)
    header["n_qubits"] = "two"
    stream = tmp_path / "snapshots.jsonl"
    stream.write_text(json.dumps(header) + "\n")
    assert reconstruct(tmp_path, stream) == 2
    err = capsys.readouterr().err
    assert "line 1: header n_qubits must be a positive integer, got 'two'" in err


def test_invalid_json_line_exits_2(tmp_path, capsys):
    stream = tmp_path / "snapshots.jsonl"
    stream.write_text(io.canonical_dumps(io.snapshot_header(2)) + "{not json\n")
    assert reconstruct(tmp_path, stream) == 2
    assert "line 2: invalid JSON" in capsys.readouterr().err


def route_files(tmp_path, report_obj=None, layout_obj=None):
    report = tmp_path / "report.json"
    layout = tmp_path / "layout.json"
    if report_obj is None:
        report_obj = io.report_to_obj(datasets.brisbane_report())
    if layout_obj is None:
        layout_obj = io.layout_to_obj(heavy_hex_127())
    report.write_text(json.dumps(report_obj))
    layout.write_text(json.dumps(layout_obj))
    return report, layout


def route(report, layout, *extra):
    argv = ["route", "--report", str(report), "--layout", str(layout), "--length", "3"]
    return cli.main([*argv, *extra, "--out", str(report.parent / "chain.json")])


def test_route_on_bundled_report(tmp_path):
    assert route(*route_files(tmp_path)) == 0
    assert json.loads((tmp_path / "chain.json").read_text())["approximate"] is False


def test_report_row_without_kind_exits_2(tmp_path, capsys):
    obj = io.report_to_obj(datasets.brisbane_report())
    del obj["subsystems"][3]["kind"]
    assert route(*route_files(tmp_path, report_obj=obj)) == 2
    assert "report.json: report: missing key 'kind'" in capsys.readouterr().err
    assert not (tmp_path / "chain.json").exists()


@pytest.mark.parametrize(
    "key, value",
    [("infidelity_zecs", "0.1"), ("s_ab", True), ("qubits", 7), ("kind", "triple")],
)
def test_report_row_with_wrong_type_exits_2(tmp_path, capsys, key, value):
    obj = io.report_to_obj(datasets.brisbane_report())
    obj["subsystems"][0][key] = value
    assert route(*route_files(tmp_path, report_obj=obj)) == 2
    assert "report.json: report: " in capsys.readouterr().err


def test_report_not_an_object_exits_2(tmp_path, capsys):
    assert route(*route_files(tmp_path, report_obj=[])) == 2
    assert "report.json: report: expected a JSON object, got list" in capsys.readouterr().err


def test_layout_without_num_qubits_exits_2(tmp_path, capsys):
    obj = io.layout_to_obj(heavy_hex_127())
    del obj["num_qubits"]
    assert route(*route_files(tmp_path, layout_obj=obj)) == 2
    assert "layout.json: layout: missing key 'num_qubits'" in capsys.readouterr().err


def test_layout_with_bad_edge_exits_2(tmp_path, capsys):
    obj = io.layout_to_obj(heavy_hex_127())
    obj["edges"].append([0])
    assert route(*route_files(tmp_path, layout_obj=obj)) == 2
    assert "layout.json: layout: " in capsys.readouterr().err


NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e400"]


@pytest.mark.parametrize("literal", NON_FINITE)
@pytest.mark.parametrize("row, key", [(107, "s_ab"), (0, "infidelity_zecs")])
def test_non_finite_report_value_exits_2(tmp_path, capsys, literal, row, key):
    obj = io.report_to_obj(datasets.brisbane_report())
    obj["subsystems"][row][key] = "PLACEHOLDER"
    report, layout = route_files(tmp_path, report_obj=obj)
    report.write_text(report.read_text().replace('"PLACEHOLDER"', literal))
    assert route(report, layout) == 2
    assert f"report.json: report: row {row}: {key} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "chain.json").exists()


@pytest.mark.parametrize("literal", NON_FINITE)
def test_non_finite_scan_value_exits_2(tmp_path, capsys, literal):
    target, values = datasets.brisbane_nonlocal_values()
    rows = [{"candidate": list(c), "s_ij": s} for c, s in values]
    rows[5]["s_ij"] = "PLACEHOLDER"
    path = tmp_path / "values.json"
    path.write_text(json.dumps({"pairs": rows, "target": list(target)}).replace(
        '"PLACEHOLDER"', literal))
    out = tmp_path / "scan.json"
    assert cli.main(["nonlocal", "--values", str(path), "--out", str(out)]) == 2
    assert "values.json: values: row 5: s_ij must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
def test_non_finite_weight_exits_2(tmp_path, capsys, weight):
    assert route(*route_files(tmp_path), f"--weight={weight}") == 2
    assert "entropy weight must be finite" in capsys.readouterr().err


BROKEN_JSON = '{\n  "kind": \n'


def test_invalid_json_in_every_input_exits_2(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text(BROKEN_JSON)
    report, layout = route_files(tmp_path)
    stream = tmp_path / "snapshots.jsonl"
    assert cli.main(["simulate", "--qubits", "2", "--reps", "1", "--snapshots", "5",
                     "--out", str(stream)]) == 0
    out = str(tmp_path / "out.json")
    commands = [
        ["route", "--report", str(broken), "--layout", str(layout), "--length", "3"],
        ["route", "--report", str(report), "--layout", str(broken), "--length", "3"],
        ["reconstruct", "--snapshots", str(stream), "--subsystems", str(broken)],
        ["nonlocal", "--values", str(broken)],
        ["simulate", "--circuit", str(broken), "--snapshots", "5"],
    ]
    capsys.readouterr()
    for argv in commands:
        assert cli.main([*argv, "--out", out]) == 2, argv
        assert f"{broken}: line 3: invalid JSON" in capsys.readouterr().err, argv


def test_missing_snapshots_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.jsonl"
    assert reconstruct(tmp_path, missing) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"{missing}: cannot read file (No such file or directory)" in err
    assert not (tmp_path / "report.json").exists()


def test_missing_report_file_exits_2(tmp_path, capsys):
    _, layout = route_files(tmp_path)
    missing = tmp_path / "missing.json"
    assert route(missing, layout) == 2
    assert f"{missing}: cannot read file (No such file or directory)" in capsys.readouterr().err
    assert not (tmp_path / "chain.json").exists()


def test_non_utf8_snapshots_file_exits_2(tmp_path, capsys):
    stream = tmp_path / "snapshots.jsonl"
    stream.write_bytes(b'{"bases":"XZ","bits":"\xff1"}\n')
    assert reconstruct(tmp_path, stream) == 2
    assert "snapshots.jsonl: byte 22: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize(
    "obj, key",
    [
        ({"pairs": []}, "target"),
        ({"target": [19, 20]}, "pairs"),
        ({"target": [19, 20], "pairs": [{"s_ij": 0.5}]}, "candidate"),
        ({"target": [19, 20], "pairs": [{"candidate": [2, 3]}]}, "s_ij"),
    ],
)
def test_values_missing_key_exits_2(tmp_path, capsys, obj, key):
    values = tmp_path / "values.json"
    values.write_text(json.dumps(obj))
    assert cli.main(["nonlocal", "--values", str(values), "--out", str(tmp_path / "o.json")]) == 2
    assert f"values.json: values: missing key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row, message",
    [
        ({"qubits": [0, 1]}, "missing key 'kind'"),
        ({"kind": "pair"}, "missing key 'qubits'"),
        ({"kind": "pair", "qubits": [0, 1], "reference": {"kind": "gates", "n_qubits": 2}},
         "missing key 'gates'"),
        ({"kind": "pair", "qubits": [0, 1], "reference": [1]},
         "reference of (0, 1) is not an object"),
    ],
)
def test_malformed_subsystems_file_exits_2(tmp_path, capsys, row, message):
    stream = tmp_path / "snapshots.jsonl"
    assert cli.main(["simulate", "--qubits", "2", "--reps", "1", "--snapshots", "5",
                     "--out", str(stream)]) == 0
    subsystems = tmp_path / "subsystems.json"
    subsystems.write_text(json.dumps({"subsystems": [row]}))
    argv = ["reconstruct", "--snapshots", str(stream), "--subsystems", str(subsystems),
            "--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == 2
    assert f"subsystems.json: subsystems: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "obj, key",
    [
        ({"kind": "efficient_su2", "reps": 1, "param_seed": 0}, "n_qubits"),
        ({"kind": "gates", "n_qubits": 2}, "gates"),
        ({"kind": "gates", "n_qubits": 2, "gates": [{"target": 0}]}, "kind"),
    ],
)
def test_circuit_missing_key_exits_2(tmp_path, capsys, obj, key):
    circuit = tmp_path / "circuit.json"
    circuit.write_text(json.dumps(obj))
    argv = ["simulate", "--circuit", str(circuit), "--snapshots", "5",
            "--out", str(tmp_path / "s.jsonl")]
    assert cli.main(argv) == 2
    assert f"circuit.json: circuit: missing key {key!r}" in capsys.readouterr().err


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(zecs.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_route_loads_no_numpy(tmp_path):
    """``import zecs``, ``import zecs.cli`` and a whole ``route`` run leave NumPy unloaded."""
    report, layout = route_files(tmp_path)
    out = tmp_path / "chain.json"
    run_python(
        "import sys\n"
        "import zecs, zecs.cli\n"
        "argv = ['route', '--report', sys.argv[1], '--layout', sys.argv[2],\n"
        "        '--length', '20', '--out', sys.argv[3]]\n"
        "assert zecs.cli.main(argv) == 0\n"
        "assert 'numpy' not in sys.modules, sorted(m for m in sys.modules if 'numpy' in m)[:5]\n",
        report, layout, out,
    )
    assert json.loads(out.read_text())["cost"] == pytest.approx(0.757)


#: Layer modules perfbench/tracer.py looks up in sys.modules after its imports.
TRACED_LAYERS = ["io", "simulator", "shadow", "linalg", "projection", "states",
                 "diagnostics", "routing", "study"]


def test_tracer_imports_load_every_layer():
    run_python(
        "import sys\n"
        "import zecs, zecs.cli, zecs.datasets\n"
        f"missing = [m for m in {TRACED_LAYERS!r} if 'zecs.' + m not in sys.modules]\n"
        "assert not missing, missing\n"
    )
