"""Tests for the command-line surface: exit codes and error messages."""

import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import zecs
from zecs import cli, datasets, io
from zecs.diagnostics import resolve_reference
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
    assert np.array_equal(resolve_reference(spec, references), zero)


def test_header_without_n_qubits_exits_2(tmp_path, capsys):
    header = io.snapshot_header(2)
    del header["n_qubits"]
    stream = tmp_path / "snapshots.jsonl"
    stream.write_text(json.dumps(header) + '\n{"bases":"XZ","bits":"01"}\n')
    assert reconstruct(tmp_path, stream) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "snapshots.jsonl: line 1: header needs an integer number of qubits >= 1, got None" in err
    assert not (tmp_path / "report.json").exists()


def test_header_with_non_integer_n_qubits_exits_2(tmp_path, capsys):
    header = io.snapshot_header(2)
    header["n_qubits"] = "two"
    stream = tmp_path / "snapshots.jsonl"
    stream.write_text(json.dumps(header) + "\n")
    assert reconstruct(tmp_path, stream) == 2
    err = capsys.readouterr().err
    assert "line 1: header needs an integer number of qubits >= 1, got 'two'" in err


def test_header_wider_than_any_code_matrix_exits_2(tmp_path, capsys):
    stream = tmp_path / "snapshots.jsonl"
    header = {**io.snapshot_header(2), "n_qubits": 10**30}
    stream.write_text(json.dumps(header) + '\n{"bases":"XZ","bits":"01"}\n')
    assert reconstruct(tmp_path, stream) == 2
    message = f"header n_qubits {10**30} exceeds {sys.maxsize} columns"
    assert capsys.readouterr().err == f"error: {stream}: line 1: {message}\n"
    assert not (tmp_path / "report.json").exists()


def test_invalid_json_line_exits_2(tmp_path, capsys):
    stream = tmp_path / "snapshots.jsonl"
    stream.write_text(io.canonical_dumps(io.snapshot_header(2)) + "{not json\n")
    assert reconstruct(tmp_path, stream) == 2
    assert "line 2: invalid JSON" in capsys.readouterr().err


def simulate(stream, endianness=io.Q0_LEFTMOST, qubits=8):
    argv = ["simulate", "--qubits", str(qubits), "--reps", "1", "--snapshots", "400",
            "--seed", "3", "--endianness", endianness, "--out", str(stream)]
    assert cli.main(argv) == 0


#: Target pair and candidate pairs on an eight-qubit line.
LINE_TARGETS = "0,1"
LINE_CANDIDATES = "3,4;4,5;5,6;6,7"


def line_layout(tmp_path, n_qubits=8):
    path = tmp_path / "line.json"
    edges = [[q, q + 1] for q in range(n_qubits - 1)]
    path.write_text(json.dumps({"edges": edges, "num_qubits": n_qubits}))
    return path


def scan(stream, layout, out, targets=LINE_TARGETS):
    return cli.main(["nonlocal", "--snapshots", str(stream), "--targets", targets,
                     "--candidates", LINE_CANDIDATES, "--layout", str(layout),
                     "--out", str(out)])


@pytest.mark.parametrize(
    "targets, message",
    [
        ("19,x", "expected integer 'a,b' pairs separated by ';', got '19,x'"),
        ("0,1;2", "target 1: (2,) is not a qubit pair"),
        ("0,1;1,2,3", "target 1: (1, 2, 3) is not a qubit pair"),
        ("a,b", "expected integer 'a,b' pairs separated by ';', got 'a,b'"),
    ],
    ids=["19,x", "0,1;2", "0,1;1,2,3", "a,b"],
)
def test_nonlocal_non_integer_pair_exits_2(tmp_path, capsys, targets, message):
    """The CLI reads integers; that each group is a qubit pair is the scan's ``as_pairs`` rule."""
    stream = tmp_path / "snapshots.jsonl"
    simulate(stream)
    assert scan(stream, line_layout(tmp_path), tmp_path / "scan.json", targets) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "scan.json").exists()


def test_q0_rightmost_copy_gives_the_same_bytes(tmp_path):
    """A stream and its q0-rightmost copy give byte-identical reports and scans."""
    subsystems = tmp_path / "subsystems.json"
    subsystems.write_text(json.dumps({"subsystems": [
        {"kind": "pair", "qubits": [0, 1]},
        {"kind": "pair", "qubits": [6, 2]},
        {"kind": "pair_plus_idle", "qubits": [3, 4, 7]},
        {"kind": "pair_pair", "qubits": [0, 5, 2, 7]},
    ]}))
    layout = line_layout(tmp_path)
    outputs = {}
    for endianness in (io.Q0_LEFTMOST, io.Q0_RIGHTMOST):
        stream = tmp_path / f"{endianness}.jsonl"
        simulate(stream, endianness)
        report = tmp_path / f"report-{endianness}.json"
        scan_out = tmp_path / f"scan-{endianness}.json"
        assert cli.main(["reconstruct", "--snapshots", str(stream), "--subsystems",
                         str(subsystems), "--ref-policy", "zero", "--out", str(report)]) == 0
        assert scan(stream, layout, scan_out) == 0
        outputs[endianness] = (stream.read_bytes(), report.read_bytes(), scan_out.read_bytes())
    left, right = outputs[io.Q0_LEFTMOST], outputs[io.Q0_RIGHTMOST]
    assert left[0] != right[0]
    assert left[1:] == right[1:]


GOLDEN = Path(__file__).resolve().parent / "golden"

#: ``simulate`` arguments of the streams pinned in ``tests/golden``: the default
#: circuit id in ``q0-leftmost`` order, and a given ``--circuit-id`` in ``q0-rightmost``.
GOLDEN_STREAMS = {
    "stream_default_q0_leftmost.jsonl": [
        "--qubits", "3", "--reps", "1", "--param-seed", "5", "--snapshots", "40", "--seed", "3",
    ],
    "stream_circuit_id_q0_rightmost.jsonl": [
        "--qubits", "4", "--reps", "2", "--param-seed", "1", "--snapshots", "40", "--seed", "2",
        "--circuit-id", "run-7", "--endianness", io.Q0_RIGHTMOST,
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_STREAMS))
def test_simulate_bytes_match_golden(tmp_path, name):
    out = tmp_path / name
    assert cli.main(["simulate", *GOLDEN_STREAMS[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_ansatz_flags_and_circuit_file_give_the_same_stream(tmp_path):
    """``--qubits/--reps/--param-seed`` and the matching ``param_seed`` circuit file agree."""
    circuit = tmp_path / "circuit.json"
    circuit.write_text(json.dumps({"kind": "efficient_su2", "n_qubits": 3, "reps": 2,
                                   "param_seed": 5}))
    common = ["--snapshots", "60", "--seed", "7", "--circuit-id", "su2"]
    flags, from_file = tmp_path / "flags.jsonl", tmp_path / "file.jsonl"
    argv = ["simulate", "--qubits", "3", "--reps", "2", "--param-seed", "5", *common]
    assert cli.main([*argv, "--out", str(flags)]) == 0
    assert cli.main(["simulate", "--circuit", str(circuit), *common, "--out", str(from_file)]) == 0
    assert flags.read_bytes() == from_file.read_bytes()


BUNDLED = Path(zecs.__file__).resolve().parent / "data"

#: Commands whose output files are pinned in ``tests/golden``: a route over the
#: bundled report and layout, and a small perturbation study.
GOLDEN_OUTPUTS = {
    "chain_brisbane_l20_w0.5.json": [
        "route", "--report", str(BUNDLED / "brisbane_report.json"),
        "--layout", str(BUNDLED / "heavy_hex_127.json"), "--length", "20", "--weight", "0.5",
    ],
    "study_sigmas_0.1_0.3.json": [
        "perturb-study", "--sigmas", "0.1,0.3", "--trials", "20", "--seed", "4",
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUTS))
def test_output_bytes_match_golden(tmp_path, name):
    out = tmp_path / name
    assert cli.main([*GOLDEN_OUTPUTS[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_simulate_keeps_an_empty_circuit_id(tmp_path):
    out = tmp_path / "s.jsonl"
    argv = ["simulate", "--qubits", "2", "--reps", "1", "--snapshots", "3", "--circuit-id", "",
            "--out", str(out)]
    assert cli.main(argv) == 0
    lines = out.read_text().splitlines()[1:]
    assert len(lines) == 3
    assert all('"circuit_id":""' in line for line in lines)


def route_files(tmp_path, report_obj=None, layout_obj=None):
    report = tmp_path / "report.json"
    layout = tmp_path / "layout.json"
    if report_obj is None:
        report_obj = io.report_to_obj(datasets.brisbane_report())
    if layout_obj is None:
        layout_obj = io.layout_to_obj(datasets.brisbane_layout())
    report.write_text(json.dumps(report_obj))
    layout.write_text(json.dumps(layout_obj))
    return report, layout


def route(report, layout, *extra):
    argv = ["route", "--report", str(report), "--layout", str(layout), "--length", "3"]
    return cli.main([*argv, *extra, "--out", str(report.parent / "chain.json")])


def test_route_on_bundled_report(tmp_path):
    assert route(*route_files(tmp_path)) == 0
    assert json.loads((tmp_path / "chain.json").read_text())["approximate"] is False


@pytest.mark.parametrize("length", [127, 128])
def test_route_longer_than_the_scored_qubits_exits_2_at_once(tmp_path, capsys, length):
    """126 of the 127 bundled qubits carry a scored edge: no search runs at all."""
    report, layout = route_files(tmp_path)
    argv = ["route", "--report", str(report), "--layout", str(layout), "--length", str(length)]
    start = time.perf_counter()
    assert cli.main([*argv, "--out", str(tmp_path / "chain.json")]) == 2
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr().err == f"error: no simple path of {length} qubits exists\n"
    assert not (tmp_path / "chain.json").exists()


def test_report_row_without_kind_exits_2(tmp_path, capsys):
    obj = io.report_to_obj(datasets.brisbane_report())
    del obj["subsystems"][3]["kind"]
    assert route(*route_files(tmp_path, report_obj=obj)) == 2
    assert "report.json: report: row 3: missing key 'kind'" in capsys.readouterr().err
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


@pytest.mark.parametrize(
    "key, value, message",
    [
        # The ids of the first two cases are the messages they pinned before
        # ``SubsystemSpec`` checked the qubits; they are kept so the case names stay stable.
        pytest.param("qubits", [13, 12.7], "row 0: qubit index must be an integer, got 12.7",
                     id="qubits-value0-row 0: qubit must be an integer, got 12.7"),
        pytest.param("qubits", [True, 13], "row 0: qubit index must be an integer, got True",
                     id="qubits-value1-row 0: qubit must be an integer, got True"),
        ("kind", 5, "row 0: kind must be a string, got 5"),
        ("degenerate_flag", "yes", "row 0: degenerate_flag must be a boolean or null, got 'yes'"),
        ("entropy_normalization", 5,
         "entropy_normalization must be one of ('per-kind', 'global'), got 5"),
    ],
)
def test_report_value_not_coerced_exits_2(tmp_path, capsys, key, value, message):
    obj = io.report_to_obj(datasets.brisbane_report())
    (obj if key == "entropy_normalization" else obj["subsystems"][0])[key] = value
    assert route(*route_files(tmp_path, report_obj=obj)) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'report.json'}: report: {message}\n"
    assert not (tmp_path / "chain.json").exists()


def test_report_not_an_object_exits_2(tmp_path, capsys):
    assert route(*route_files(tmp_path, report_obj=[])) == 2
    assert "report.json: report: expected a JSON object, got list" in capsys.readouterr().err


def test_layout_without_num_qubits_exits_2(tmp_path, capsys):
    obj = io.layout_to_obj(datasets.brisbane_layout())
    del obj["num_qubits"]
    assert route(*route_files(tmp_path, layout_obj=obj)) == 2
    assert "layout.json: layout: missing key 'num_qubits'" in capsys.readouterr().err


def test_layout_with_bad_edge_exits_2(tmp_path, capsys):
    obj = io.layout_to_obj(datasets.brisbane_layout())
    obj["edges"].append([0])
    assert route(*route_files(tmp_path, layout_obj=obj)) == 2
    assert "layout.json: layout: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, message",
    [
        ("edges", "edge 3: qubit index must be an integer, got True"),
        ("num_qubits", "layout needs an integer number of qubits >= 1, got '3'"),
    ],
    # The ids are the messages these cases pinned before ``DeviceLayout`` checked
    # the raw values; they are kept so the case names stay stable.
    ids=["edges-edge 3: qubit must be an integer, got True",
         "num_qubits-num_qubits must be an integer, got '3'"],
)
def test_layout_with_wrong_type_exits_2(tmp_path, capsys, field, message):
    obj = io.layout_to_obj(datasets.brisbane_layout())
    if field == "edges":
        obj["edges"][3][0] = True
    else:
        obj["num_qubits"] = "3"
    assert route(*route_files(tmp_path, layout_obj=obj)) == 2
    assert f"layout.json: layout: {message}" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("s_ij", True, "row 5: s_ij must be a number, got True"),
        ("s_ij", "0.5", "row 5: s_ij must be a number, got '0.5'"),
        ("candidate", [4.9, 6], "row 5: qubit index must be an integer, got 4.9"),
    ],
    ids=["bool-s_ij", "string-s_ij", "fractional-qubit"],
)
def test_scan_value_with_wrong_type_exits_2(tmp_path, capsys, key, value, message):
    target, values = datasets.brisbane_nonlocal_values()
    rows = [{"candidate": list(c), "s_ij": s} for c, s in values]
    rows[5][key] = value
    path = tmp_path / "values.json"
    path.write_text(json.dumps({"pairs": rows, "target": list(target)}))
    out = tmp_path / "scan.json"
    assert cli.main(["nonlocal", "--values", str(path), "--out", str(out)]) == 2
    assert f"values.json: values: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "target, candidates, message",
    [
        ([19], [[1, 2], [5, 6], [7, 8]], "target 0: (19,) is not a qubit pair"),
        ([19, 20], [[1, 2, 3], [5, 6], [7, 8]], "row 0: (1, 2, 3) is not a qubit pair"),
        ([19, 20], [[4, 4], [5, 6], [7, 8]], "row 0: (4, 4) is not a qubit pair"),
        ([19, 20], [[1, 2], [5, 6], [6, 5]], "row 2: (6, 5) repeats row 1 (5, 6)"),
        ([19, 20], [[20, 21], [1, 2], [5, 6]],
         "row 0: candidate (20, 21) shares a qubit with target (19, 20)"),
    ],
    ids=["short-target", "triple", "repeated-qubit", "reversed-duplicate", "overlaps-target"],
)
def test_scan_values_with_bad_pairs_exit_2(tmp_path, capsys, target, candidates, message):
    """``--values`` applies the live scan's pair checks instead of scoring bad pairings."""
    rows = [{"candidate": c, "s_ij": 0.25 * (i + 1)} for i, c in enumerate(candidates)]
    path = tmp_path / "values.json"
    path.write_text(json.dumps({"pairs": rows, "target": target}))
    out = tmp_path / "scan.json"
    assert cli.main(["nonlocal", "--values", str(path), "--out", str(out)]) == 2
    assert f"values.json: values: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_bundled_scan_values_still_score(tmp_path, capsys):
    out = tmp_path / "scan.json"
    values = BUNDLED / "brisbane_nonlocal_19_20.json"
    assert cli.main(["nonlocal", "--values", str(values), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("scanned 51 pairings, ")


def test_bundled_scan_values_pass_the_bundled_layout_unchanged(tmp_path):
    """None of the 51 bundled candidates couples to (19, 20): ``--layout`` changes no byte."""
    values, layout = BUNDLED / "brisbane_nonlocal_19_20.json", BUNDLED / "heavy_hex_127.json"
    plain, checked = tmp_path / "plain.json", tmp_path / "checked.json"
    assert cli.main(["nonlocal", "--values", str(values), "--out", str(plain)]) == 0
    assert cli.main(["nonlocal", "--values", str(values), "--layout", str(layout),
                     "--out", str(checked)]) == 0
    assert checked.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("coupled_row", [0, 3])
def test_scan_values_with_a_coupled_candidate_and_a_layout_exit_2(tmp_path, capsys, coupled_row):
    """(21, 22) couples to (19, 20) through the heavy-hex edge 20-21, as the live scan sees."""
    candidates = [[1, 2], [5, 6], [7, 8]]
    candidates.insert(coupled_row, [21, 22])
    rows = [{"candidate": c, "s_ij": 0.25 * (i + 1)} for i, c in enumerate(candidates)]
    path, out = tmp_path / "values.json", tmp_path / "scan.json"
    path.write_text(json.dumps({"pairs": rows, "target": [19, 20]}))
    assert cli.main(["nonlocal", "--values", str(path), "--out", str(out)]) == 0
    out.unlink()
    layout = BUNDLED / "heavy_hex_127.json"
    assert cli.main(["nonlocal", "--values", str(path), "--layout", str(layout),
                     "--out", str(out)]) == 2
    message = f"row {coupled_row}: candidate (21, 22) couples to target (19, 20)"
    assert f"values.json: values: {message}" in capsys.readouterr().err
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


DEEP = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("entry, stream_line", [
    ("route --report", None),
    ("reconstruct --snapshots", 1),  # the header line
    ("reconstruct --snapshots", 2),  # a line before a record
    ("reconstruct --subsystems", None),
    ("nonlocal --values", None),
])
def test_deeply_nested_json_exits_2(tmp_path, capsys, entry, stream_line):
    """JSON nested deeper than the parser recurses is an error naming the file, and the
    line of a stream, not a ``RecursionError`` traceback."""
    _, layout = route_files(tmp_path)
    stream = tmp_path / "snapshots.jsonl"
    assert cli.main(["simulate", "--qubits", "2", "--reps", "1", "--snapshots", "5",
                     "--out", str(stream)]) == 0
    deep = tmp_path / "deep.json"
    if stream_line is None:
        deep.write_text(DEEP)
    else:
        lines = stream.read_text().splitlines(keepends=True)
        lines[stream_line - 1:1] = [DEEP + "\n"]  # in place of the header, or after it
        deep.write_text("".join(lines))
    argv = {
        "route --report": ["route", "--report", deep, "--layout", layout, "--length", "3"],
        "reconstruct --snapshots": ["reconstruct", "--snapshots", deep,
                                    "--subsystems", subsystems_file(tmp_path)],
        "reconstruct --subsystems": ["reconstruct", "--snapshots", stream, "--subsystems", deep],
        "nonlocal --values": ["nonlocal", "--values", deep],
    }[entry]
    capsys.readouterr()
    assert cli.main([*map(str, argv), "--out", str(tmp_path / "out.json")]) == 2
    line = "" if stream_line is None else f"line {stream_line}: "
    assert capsys.readouterr().err.startswith(f"error: {deep}: {line}")
    assert not (tmp_path / "out.json").exists()


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
    row = "row 0: " if key in ("candidate", "s_ij") else ""
    assert f"values.json: values: {row}missing key {key!r}" in capsys.readouterr().err


#: A gate-list circuit whose only gate is not an object.
NON_OBJECT_GATE = {"kind": "gates", "n_qubits": 2, "gates": [5]}


@pytest.mark.parametrize(
    "row, message",
    [
        ({"qubits": [0, 1]}, "subsystem 0: missing key 'kind'"),
        ({"kind": "pair"}, "subsystem 0: missing key 'qubits'"),
        ({"kind": "pair", "qubits": [0, 1], "reference": {"kind": "gates", "n_qubits": 2}},
         "subsystem 0: reference: missing key 'gates'"),
        ({"kind": "pair", "qubits": [0, 1], "reference": [1]},
         "subsystem 0: reference: expected a JSON object, got list"),
        ({"kind": "pair", "qubits": [0, 1], "reference": NON_OBJECT_GATE},
         "subsystem 0: reference: gate 0: expected a JSON object, got int"),
    ],
    # The ids are the messages these cases pinned before each row and reference was
    # named; they are kept so the case names stay stable.
    ids=["row0-missing key 'kind'", "row1-missing key 'qubits'", "row2-missing key 'gates'",
         "row3-reference of (0, 1) is not an object", "row4-gate 0 is not an object"],
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
    gate = "gate 0: " if "gates" in obj else ""
    assert f"circuit.json: circuit: {gate}missing key {key!r}" in capsys.readouterr().err


def test_non_object_gate_exits_2(tmp_path, capsys):
    circuit = tmp_path / "circuit.json"
    circuit.write_text(json.dumps(NON_OBJECT_GATE))
    stream = tmp_path / "s.jsonl"
    argv = ["simulate", "--circuit", str(circuit), "--snapshots", "5", "--out", str(stream)]
    assert cli.main(argv) == 2
    expected = f"error: {circuit}: circuit: gate 0: expected a JSON object, got int\n"
    assert capsys.readouterr().err == expected
    assert not stream.exists()


@pytest.mark.parametrize("sigmas, message", [
    ("0.1,abc", "--sigmas: could not convert string to float: 'abc'"),
    ("nan", "sigma must be a finite number in [0, 0.5], got nan"),
    ("0.7", "sigma must be a finite number in [0, 0.5], got 0.7"),
    ("inf", "sigma must be a finite number in [0, 0.5], got inf"),
    ("-0.1", "sigma must be a finite number in [0, 0.5], got -0.1"),
])
def test_perturb_study_bad_sigma_exits_2(tmp_path, capsys, sigmas, message):
    out = tmp_path / "study.json"
    argv = ["perturb-study", "--sigmas", sigmas, "--trials", "2", "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, seed", [
    (["simulate", "--qubits", "2", "--reps", "1", "--snapshots", "5", "--seed", "-1"], -1),
    (["simulate", "--qubits", "2", "--reps", "1", "--snapshots", "5", "--param-seed", "-3"], -3),
    (["perturb-study", "--sigmas", "0.1", "--trials", "2", "--seed", "-2"], -2),
], ids=["simulate-seed", "simulate-param-seed", "perturb-study-seed"])
def test_negative_seed_exits_2(tmp_path, capsys, argv, seed):
    out = tmp_path / "out.json"
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: seed must be a non-negative integer, got {seed}\n"
    assert not out.exists()


@pytest.mark.parametrize("qubits, reps, message", [
    ("3", "-1", "reps must be >= 1, got -1"),
    ("-2", "1", "n_qubits must be >= 1, got -2"),
    ("3", "0", "reps must be >= 1, got 0"),
])
def test_negative_ansatz_size_exits_2(tmp_path, capsys, qubits, reps, message):
    out = tmp_path / "s.jsonl"
    argv = ["simulate", "--qubits", qubits, "--reps", reps, "--snapshots", "5", "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_circuit_file_with_negative_width_exits_2(tmp_path, capsys):
    circuit = tmp_path / "circuit.json"
    circuit.write_text(json.dumps({"kind": "efficient_su2", "n_qubits": -2, "reps": 1,
                                   "param_seed": 1}))
    argv = ["simulate", "--circuit", str(circuit), "--snapshots", "5",
            "--out", str(tmp_path / "s.jsonl")]
    assert cli.main(argv) == 2
    assert (capsys.readouterr().err
            == f"error: {circuit}: circuit: n_qubits must be >= 1, got -2\n")


def test_reference_of_the_wrong_width_exits_2(tmp_path, capsys):
    stream = tmp_path / "snapshots.jsonl"
    simulate(stream, qubits=4)
    subsystems = tmp_path / "subsystems.json"
    reference = {"kind": "efficient_su2", "n_qubits": 3, "reps": 1, "param_seed": 1}
    subsystems.write_text(json.dumps({"subsystems": [
        {"kind": "pair", "qubits": [2, 3], "reference": reference}]}))
    out = tmp_path / "report.json"
    argv = ["reconstruct", "--snapshots", str(stream), "--subsystems", str(subsystems),
            "--out", str(out)]
    assert cli.main(argv) == 2
    assert (capsys.readouterr().err
            == "error: subsystem (2, 3): the reference for (2, 3) has 3 qubit(s), not 2\n")
    assert not out.exists()


@pytest.mark.parametrize("candidates", ["3,4;4,5;3,4;6,7", "3,4;4,5;5,6;4,3"])
def test_nonlocal_repeated_candidate_exits_2(tmp_path, capsys, candidates):
    stream, out = tmp_path / "snapshots.jsonl", tmp_path / "scan.json"
    simulate(stream)
    assert cli.main(["nonlocal", "--snapshots", str(stream), "--targets", LINE_TARGETS,
                     "--candidates", candidates, "--layout", str(line_layout(tmp_path)),
                     "--out", str(out)]) == 2
    repeat = {"3,4;4,5;3,4;6,7": "candidate 2: (3, 4)",
              "3,4;4,5;5,6;4,3": "candidate 3: (4, 3)"}[candidates]
    assert capsys.readouterr().err == f"error: {repeat} repeats candidate 0 (3, 4)\n"
    assert not out.exists()


def test_out_in_missing_directory_exits_2(tmp_path, capsys):
    report, layout = route_files(tmp_path)
    stream = tmp_path / "snapshots.jsonl"
    simulate(stream)
    target, values = datasets.brisbane_nonlocal_values()
    values_file = tmp_path / "values.json"
    values_file.write_text(json.dumps(
        {"pairs": [{"candidate": list(c), "s_ij": s} for c, s in values], "target": list(target)}
    ))
    commands = [
        ["simulate", "--qubits", "2", "--reps", "1", "--snapshots", "5"],
        ["reconstruct", "--snapshots", str(stream), "--subsystems", str(subsystems_file(tmp_path)),
         "--ref-policy", "zero"],
        ["route", "--report", str(report), "--layout", str(layout), "--length", "3"],
        ["nonlocal", "--values", str(values_file)],
        ["perturb-study", "--sigmas", "0.1", "--trials", "2"],
    ]
    out = tmp_path / "missing" / "out.json"
    capsys.readouterr()
    for argv in commands:
        assert cli.main([*argv, "--out", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert err == f"error: {out}: cannot write file (No such file or directory)\n", argv
    assert not out.parent.exists()


def run_child(*argv, **env):
    """Run ``python ARGV`` in a fresh interpreter that imports this checkout's package.

    Keyword arguments are set in its environment.
    """
    src = str(Path(zecs.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, **env}
    return subprocess.run([sys.executable, *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)


def run_python(code, *args, **env):
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    result = run_child("-c", code, *args, **env)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("length, status", [(3, 0), (127, 2)])
def test_run_freezes_the_heap_once_after_main_returns(tmp_path, monkeypatch, capsys,
                                                     length, status):
    """``run`` exits with ``main``'s status, 0 on success and 2 on a ``ZecsError``."""
    report, layout = route_files(tmp_path)
    chain = tmp_path / "chain.json"
    monkeypatch.setattr(sys, "argv", ["zecs", "route", "--report", str(report), "--layout",
                                      str(layout), "--length", str(length), "--out", str(chain)])
    events = []
    main = cli.main
    monkeypatch.setattr(cli, "main", lambda: events.append("main") or main())
    monkeypatch.setattr(gc, "freeze", lambda: events.append(("freeze", chain.exists())))
    with pytest.raises(SystemExit) as exit_:
        cli.run()
    assert exit_.value.code == status
    assert events == ["main", ("freeze", status == 0)]
    assert capsys.readouterr().err == ("" if status == 0 else
                                       "error: no simple path of 127 qubits exists\n")


def test_main_never_freezes_the_heap(tmp_path, monkeypatch):
    freezes = []
    monkeypatch.setattr(gc, "freeze", lambda: freezes.append(1))
    report, layout = route_files(tmp_path)
    assert route(report, layout) == 0
    assert route(report, layout, "--weight", "nan") == 2
    assert cli.main(["perturb-study", "--sigmas", "0.1", "--trials", "2",
                     "--out", str(tmp_path / "study.json")]) == 0
    assert freezes == []


def test_module_entry_writes_the_golden_chain(tmp_path):
    out = tmp_path / "chain.json"
    result = run_child("-m", "zecs.cli", *GOLDEN_OUTPUTS["chain_brisbane_l20_w0.5.json"],
                       "--out", out)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.startswith("best 20-qubit chain: cost ")
    assert out.read_bytes() == (GOLDEN / "chain_brisbane_l20_w0.5.json").read_bytes()


def test_module_entry_failure_exits_2_with_its_error_line(tmp_path):
    report, layout = route_files(tmp_path)
    result = run_child("-m", "zecs.cli", "route", "--report", report, "--layout", layout,
                       "--length", "127", "--out", tmp_path / "chain.json")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: no simple path of 127 qubits exists\n"


def test_route_loads_no_numpy(tmp_path):
    """``import zecs``, ``import zecs.cli`` and a whole ``route`` run leave NumPy,
    ``dataclasses`` and ``inspect`` unloaded."""
    report, layout = route_files(tmp_path)
    out = tmp_path / "chain.json"
    run_python(
        "import sys\n"
        "import zecs, zecs.cli\n"
        "argv = ['route', '--report', sys.argv[1], '--layout', sys.argv[2],\n"
        "        '--length', '20', '--out', sys.argv[3]]\n"
        "assert zecs.cli.main(argv) == 0\n"
        "assert 'numpy' not in sys.modules, sorted(m for m in sys.modules if 'numpy' in m)[:5]\n"
        "assert 'dataclasses' not in sys.modules and 'inspect' not in sys.modules\n",
        report, layout, out,
    )
    assert json.loads(out.read_text())["cost"] == pytest.approx(0.757)


def test_route_over_a_ten_million_qubit_layout_fits_in_512_mb(tmp_path):
    """The search's tables hold the scored qubits only: the bundled layout widened to
    ``num_qubits = 10**7`` routes to the golden chain with 512 MB of address space."""
    layout = tmp_path / "layout.json"
    layout.write_text(json.dumps({**json.loads((BUNDLED / "heavy_hex_127.json").read_text()),
                                  "num_qubits": 10**7}))
    out = tmp_path / "chain.json"
    run_python(
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS,\n"
        "                   (512 << 20, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
        "import zecs.cli\n"
        "sys.exit(zecs.cli.main(sys.argv[1:]))\n",
        "route", "--report", BUNDLED / "brisbane_report.json", "--layout", layout,
        "--length", "20", "--weight", "0.5", "--out", out,
    )
    assert out.read_bytes() == (GOLDEN / "chain_brisbane_l20_w0.5.json").read_bytes()


def test_io_loads_no_numpy():
    """``zecs.io`` imports NumPy only when a stream or circuit is read."""
    run_python(
        "import sys\n"
        "import zecs.io\n"
        "assert 'numpy' not in sys.modules, sorted(m for m in sys.modules if 'numpy' in m)[:5]\n"
    )


def test_report_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """``reconstruct`` writes the same report with one BLAS thread and with two."""
    stream = tmp_path / "snapshots.jsonl"
    simulate(stream)
    subsystems = tmp_path / "subsystems.json"
    subsystems.write_text(json.dumps({"subsystems": [
        {"kind": "pair", "qubits": [0, 1]},
        {"kind": "pair", "qubits": [5, 2]},
        {"kind": "pair_plus_idle", "qubits": [3, 4, 7]},
        {"kind": "pair_pair", "qubits": [0, 1, 6, 7]},
        {"kind": "pair_pair", "qubits": [2, 3, 4, 5]},
    ]}))
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"report_{threads}.json"
        run_python("import sys, zecs.cli\nsys.exit(zecs.cli.main(sys.argv[1:]))",
                   "reconstruct", "--snapshots", stream, "--subsystems", subsystems,
                   "--ref-policy", "zero", "--out", out,
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


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


#: The ``zecs`` modules a step loads: ``import zecs.cli`` alone, then the layers a
#: ``nonlocal`` scan calls, then those ``perfbench/wide_step.py`` imports and calls.
CLI_MODULES = ["zecs", "zecs.cli", "zecs.errors", "zecs.io", "zecs.layout", "zecs.report"]
SCAN_MODULES = sorted(CLI_MODULES + ["zecs.diagnostics", "zecs.linalg", "zecs.projection",
                                     "zecs.shadow", "zecs.states"])
WIDE_STEP_MODULES = [m for m in SCAN_MODULES if m not in ("zecs.cli", "zecs.diagnostics")]
WIDE_STEP = Path(__file__).resolve().parents[1] / "perfbench" / "wide_step.py"


def assert_loads(code, expected, *args):
    """Run ``code`` in a fresh interpreter, which must leave exactly the ``expected`` zecs
    modules loaded, and not ``dataclasses``."""
    run_python(
        "import sys\n" + code +
        "loaded = sorted(m for m in sys.modules if m == 'zecs' or m.startswith('zecs.'))\n"
        f"assert loaded == {expected!r}, loaded\n"
        "assert 'dataclasses' not in sys.modules\n",
        *args,
    )


def test_cli_import_loads_no_numeric_layer_and_no_router():
    assert_loads("import zecs.cli\n", CLI_MODULES)


def test_nonlocal_scan_loads_neither_simulator_nor_router(tmp_path):
    stream, layout, out = tmp_path / "s.jsonl", line_layout(tmp_path), tmp_path / "scan.json"
    simulate(stream)
    assert_loads(
        "import zecs.cli\n"
        "argv = ['nonlocal', '--snapshots', sys.argv[1], '--targets', sys.argv[2],\n"
        "        '--candidates', sys.argv[3], '--layout', sys.argv[4], '--out', sys.argv[5]]\n"
        "assert zecs.cli.main(argv) == 0\n",
        SCAN_MODULES, stream, LINE_TARGETS, LINE_CANDIDATES, layout, out,
    )
    assert len(json.loads(out.read_text())["results"]) == 4


def test_wide_step_loads_neither_simulator_nor_router(tmp_path):
    stream, out = tmp_path / "s.jsonl", tmp_path / "wide.json"
    simulate(stream, qubits=5)
    assert_loads(
        "import runpy\n"
        "main = runpy.run_path(sys.argv[1])['main']\n"
        "assert main(sys.argv[2:]) == 0\n",
        WIDE_STEP_MODULES, WIDE_STEP, stream, "[[0, 1, 2], [4, 3, 2, 1]]", out,
    )
    assert [row["qubits"] for row in json.loads(out.read_text())["subsystems"]] == [
        [0, 1, 2], [4, 3, 2, 1]]
