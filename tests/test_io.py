"""Tests for file formats: snapshot-stream parsing errors and golden round-trips."""

import dataclasses
import importlib.util
import json
import re
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from zecs import datasets, io
from zecs.diagnostics import score_candidates
from zecs.errors import ConfigError, RecordError
from zecs.report import DiagnosticReport, NonlocalResult, SubsystemDiagnostics
from zecs.routing import ChainSolution, best_chain, edge_scores_from_report
from zecs.shadow import outcome_codes
from zecs.simulator import SnapshotRecord

RECORD_LINE = '{"bases":"XZ","bits":"01","circuit_id":"c"}\n'


def bundled_text(name):
    return resources.files("zecs.data").joinpath(name).read_text(encoding="ascii")


def write_stream(tmp_path, header):
    path = tmp_path / "snapshots.jsonl"
    path.write_text(json.dumps(header) + "\n" + RECORD_LINE, encoding="ascii")
    return path


def random_records(rng, n_records, n_qubits):
    return [
        SnapshotRecord("".join(rng.choice(list("XYZ"), n_qubits)),
                       "".join(rng.choice(list("01"), n_qubits)))
        for _ in range(n_records)
    ]


class TestWriteSnapshots:
    @pytest.mark.parametrize("circuit_id", ["", 'a"b', "c\\d", "50%", "\u00e9"])
    def test_lines_equal_canonical_dumps(self, tmp_path, circuit_id):
        records = random_records(np.random.default_rng(5), 20, 7)
        for endianness, step in ((io.Q0_LEFTMOST, 1), (io.Q0_RIGHTMOST, -1)):
            path = tmp_path / f"{endianness}.jsonl"
            io.write_snapshots(path, records, 7, endianness=endianness, circuit_id=circuit_id)
            objects = [{"bases": r.bases[::step], "bits": r.bits[::step], "circuit_id": circuit_id}
                       for r in records]
            expected = [io.snapshot_header(7, endianness), *objects]
            assert path.read_text(encoding="ascii") == "".join(map(io.canonical_dumps, expected))


class TestReadSnapshots:
    def test_round_trip_both_endiannesses(self, tmp_path):
        records = [SnapshotRecord("XYZ", "011"), SnapshotRecord("ZZX", "100")]
        for endianness in (io.Q0_LEFTMOST, io.Q0_RIGHTMOST):
            path = tmp_path / f"{endianness}.jsonl"
            io.write_snapshots(path, records, 3, endianness=endianness)
            codes, n_qubits = io.read_snapshots(path)
            assert n_qubits == 3
            assert codes.dtype == np.uint8
            assert codes.tolist() == [[0, 3, 5], [5, 4, 0]]

    @pytest.mark.parametrize("seed", range(6))
    def test_random_round_trip_equals_outcome_codes(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n_qubits = int(rng.integers(1, 40))
        records = random_records(rng, int(rng.integers(1, 300)), n_qubits)
        for endianness in (io.Q0_LEFTMOST, io.Q0_RIGHTMOST):
            path = tmp_path / f"{endianness}.jsonl"
            io.write_snapshots(path, records, n_qubits, endianness=endianness)
            codes, width = io.read_snapshots(path)
            assert width == n_qubits
            assert np.array_equal(codes, outcome_codes(records))
            # An overriding endianness reads the other file's bit order.
            other = io.Q0_LEFTMOST if endianness == io.Q0_RIGHTMOST else io.Q0_RIGHTMOST
            codes, _ = io.read_snapshots(path, endianness=other)
            assert np.array_equal(codes, outcome_codes(records)[:, ::-1])

    def test_unknown_endianness_argument_is_rejected(self, tmp_path):
        path = write_stream(tmp_path, io.snapshot_header(2))
        with pytest.raises(ConfigError, match="unknown endianness 'q0-sideways'"):
            io.read_snapshots(path, endianness="q0-sideways")

    def test_header_only_gives_empty_matrix(self, tmp_path):
        path = tmp_path / "snapshots.jsonl"
        path.write_text(io.canonical_dumps(io.snapshot_header(4)), encoding="ascii")
        codes, n_qubits = io.read_snapshots(path)
        assert codes.shape == (0, 4) and n_qubits == 4

    @pytest.mark.parametrize(
        "line, message",
        [
            ("{not json", "invalid JSON (Expecting property name enclosed in double quotes)"),
            ('{"bases": "XZ", "bits": "01"} {}', "invalid JSON (Extra data)"),
            ('["XZ", "01"]', "expected an object"),
            ('{"bits": "01"}', "missing field 'bases'"),
            ('{"bases": "XZ"}', "missing field 'bits'"),
            ('{"bases": "XZ", "bits": 10}', "bits must be a string, got 10"),
            ('{"bases": ["X", "Z"], "bits": "01"}', "bases must be a string, got ['X', 'Z']"),
            ('{"bases": null, "bits": "01"}', "bases must be a string, got None"),
            ('{"bases": "XQ", "bits": "01"}', "invalid basis character(s) ['Q']"),
            ('{"bases": "xz", "bits": "01"}', "invalid basis character(s) ['x', 'z']"),
            ('{"bases": "XZ", "bits": "02"}', "invalid bit character(s) ['2']"),
            (r'{"bases": "X\u00e9", "bits": "01"}', "invalid basis character(s) ['\u00e9']"),
            (r'{"bases": "XZ", "bits": "0\u0661"}', "invalid bit character(s) ['\u0661']"),
            (r'{"bases": "XZ", "bits": "0\u0000"}', r"invalid bit character(s) ['\x00']"),
            ('{"bases": "XZY", "bits": "01"}', "bases/bits length mismatch: 'XZY' vs '01'"),
            ('{"bases": "", "bits": ""}', "record covers no qubits"),
            ('{"bases": "XZY", "bits": "010"}', "record width 3 != expected 2"),
            ('{"bases": "X", "bits": "0"}', "record width 1 != expected 2"),
            (json.dumps(io.snapshot_header(2)), "a header must be the first non-blank line"),
        ],
    )
    @pytest.mark.parametrize("header", [True, False])
    def test_bad_line_names_its_own_line(self, tmp_path, line, message, header):
        """Every malformed line is named by its number, after blank lines and good records."""
        good = ['{"bases": "XZ", "bits": "01"}', '{"bases":"YY","bits":"11"}']
        lines = [json.dumps(io.snapshot_header(2))] if header else []
        lines += ["", good[0], "   ", good[1], ""]
        bad_line = len(lines) + 1
        lines += [line, "", good[0], '{"bases": "Q", "bits": "9"}']
        path = tmp_path / "snapshots.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        expected = rf"snapshots\.jsonl: line {bad_line}: {re.escape(message)}$"
        for endianness in (None, io.Q0_RIGHTMOST):
            with pytest.raises(RecordError, match=expected):
                io.read_snapshots(path, endianness=endianness)

    @pytest.mark.parametrize(
        "lines, message",
        [
            (['{"bases": "", "bits": ""}', '{"bases": "X", "bits": "0"}'],
             "line 1: record covers no qubits"),
            (['{"bases": "XZ", "bits": "0"}', '{"bases": "X", "bits": "0"}'],
             "line 1: bases/bits length mismatch: 'XZ' vs '0'"),
            (["", '{"bases": "XZ", "bits": "01"}', '{"bases": "XYZ", "bits": "011"}'],
             "line 3: record width 3 != expected 2"),
            (['  {"bases": "XZ", "bits": "01"}\t', '{"bases": "XZ", "bits": "0"}'],
             "line 2: bases/bits length mismatch"),
        ],
    )
    def test_headerless_width_is_the_first_record(self, tmp_path, lines, message):
        path = tmp_path / "snapshots.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(RecordError, match=rf"snapshots\.jsonl: {message}"):
            io.read_snapshots(path)

    def test_earliest_bad_line_wins(self, tmp_path):
        """A bad record character is reported before a later structural error."""
        lines = [json.dumps(io.snapshot_header(2)), '{"bases": "XZ", "bits": "01"}',
                 '{"bases": "XZ", "bits": "0x"}', "{not json", '{"bits": "01"}']
        path = tmp_path / "snapshots.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        with pytest.raises(RecordError, match=r"line 3: invalid bit character"):
            io.read_snapshots(path)

    def test_value_split_across_lines_is_invalid(self, tmp_path):
        """Each non-blank line is one JSON value, even where the joined lines would parse."""
        lines = ['{"bases": "XZ", "bits": "01", "note": [{}', '{}]}',
                 '{"bases": "XZ", "bits": "01"}, {"bases": "ZZ", "bits": "00"}']
        path = tmp_path / "snapshots.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        with pytest.raises(RecordError, match=r"line 1: invalid JSON"):
            io.read_snapshots(path)

    def test_circuit_id_is_not_read(self, tmp_path):
        path = tmp_path / "snapshots.jsonl"
        path.write_text('{"bases": "XZ", "bits": "01", "circuit_id": [1, {}]}\n',
                        encoding="ascii")
        codes, n_qubits = io.read_snapshots(path)
        assert codes.tolist() == [[0, 5]] and n_qubits == 2

    def test_header_without_n_qubits(self, tmp_path):
        header = io.snapshot_header(2)
        del header["n_qubits"]
        path = write_stream(tmp_path, header)
        with pytest.raises(RecordError, match=r"snapshots\.jsonl: line 1: header n_qubits"):
            io.read_snapshots(path)

    @pytest.mark.parametrize("value", ["two", "2", 2.0, 2.5, None, True, [2], 0, -2, 2**63, 10**30])
    def test_header_with_bad_n_qubits(self, tmp_path, value):
        header = io.snapshot_header(2)
        header["n_qubits"] = value
        path = write_stream(tmp_path, header)
        with pytest.raises(RecordError, match=r"snapshots\.jsonl: line 1: header n_qubits"):
            io.read_snapshots(path)

    def test_widest_header_still_checks_record_width(self, tmp_path):
        """Up to ``sys.maxsize`` columns a header is read, and its records checked against it."""
        path = write_stream(tmp_path, {**io.snapshot_header(2), "n_qubits": sys.maxsize})
        with pytest.raises(RecordError, match=f"line 2: record width 2 != expected {sys.maxsize}"):
            io.read_snapshots(path)

    def test_record_width_checked_against_header(self, tmp_path):
        path = write_stream(tmp_path, io.snapshot_header(3))
        with pytest.raises(RecordError, match="line 2: record width 2 != expected 3"):
            io.read_snapshots(path)

    @pytest.mark.parametrize(
        "lines, bad_line",
        [
            # One stream read in two bit orders: the same record before and after.
            (['{"bases": "XYZ", "bits": "001"}', "HEADER 3 q0-rightmost",
              '{"bases": "XYZ", "bits": "001"}'], 2),
            # A width-3 record, then a header that declares 5 qubits.
            (['{"bases": "XYZ", "bits": "001"}', "HEADER 5 q0-leftmost",
              '{"bases": "XYZXY", "bits": "00101"}'], 2),
            # A second header, after a blank line.
            (["HEADER 3 q0-leftmost", '{"bases": "XYZ", "bits": "001"}', "",
              "HEADER 3 q0-leftmost"], 4),
        ],
    )
    def test_header_only_on_the_first_line(self, tmp_path, lines, bad_line):
        text = ""
        for line in lines:
            if line.startswith("HEADER"):
                _, n, endianness = line.split()
                line = json.dumps(io.snapshot_header(int(n), endianness))
            text += line + "\n"
        path = tmp_path / "snapshots.jsonl"
        path.write_text(text, encoding="ascii")
        with pytest.raises(
            RecordError, match=rf"snapshots\.jsonl: line {bad_line}: a header must be the first"
        ):
            io.read_snapshots(path)


def test_canonical_numpy_values_match_python_values():
    as_numpy = {
        "bools": [np.bool_(True), np.bool_(False)],
        "int": np.int64(-7),
        "single": np.float32(0.1),
        "double": np.float64(1 / 3),
        "matrix": np.array([[0.5, -2.0], [3.0, 1e-300]]),
        "counts": np.array([[1, 2], [3, 4]], dtype=np.int64),
    }
    as_python = {
        "bools": [True, False],
        "int": -7,
        "single": 0.10000000149011612,
        "double": 1 / 3,
        "matrix": [[0.5, -2.0], [3.0, 1e-300]],
        "counts": [[1, 2], [3, 4]],
    }
    assert io.canonical_dumps(as_numpy) == io.canonical_dumps(as_python)
    for value in (np.float64("nan"), np.float32("inf")):
        with pytest.raises(ValueError, match="non-finite"):
            io.canonical_dumps(value)


RY_GATE = {"kind": "ry", "target": 0, "angle": 0.5}
GATES = {"kind": "gates", "n_qubits": 2, "gates": [RY_GATE]}
SU2 = {"kind": "efficient_su2", "n_qubits": 2, "reps": 1, "param_seed": 3}


class TestCircuitAndSubsystemTypes:
    """Circuit and subsystem fields are typed JSON values; a wrong type names the file."""

    @pytest.mark.parametrize(
        "circuit, message",
        [
            ({**GATES, "gates": [{**RY_GATE, "target": 1.7}]},
             "gate 0: target must be an integer, got 1.7"),
            ({**GATES, "gates": [{**RY_GATE, "angle": True}]},
             "gate 0: angle must be a number, got True"),
            ({**GATES, "n_qubits": "2"}, "n_qubits must be an integer, got '2'"),
            ({**SU2, "param_seed": 2.5}, "param_seed must be an integer, got 2.5"),
        ],
        ids=["float-target", "bool-angle", "string-n_qubits", "float-param_seed"],
    )
    def test_wrong_circuit_field_type(self, tmp_path, circuit, message):
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps(circuit))
        with pytest.raises(ConfigError, match=rf"circuit\.json: circuit: {message}$"):
            io.read_circuit(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ({"kind": "pair", "qubits": [True, 2]},
             "subsystem 0: qubit must be an integer, got True"),
            ({"kind": "pair", "qubits": [0, 2.9]},
             "subsystem 0: qubit must be an integer, got 2.9"),
            ({"kind": "pair", "qubits": [0, 1], "reference": {**SU2, "n_qubits": 2.0}},
             "n_qubits must be an integer, got 2.0"),
        ],
        ids=["bool-qubit", "float-qubit", "reference-field"],
    )
    def test_wrong_subsystem_field_type(self, tmp_path, row, message):
        path = tmp_path / "subsystems.json"
        path.write_text(json.dumps({"subsystems": [row]}))
        with pytest.raises(ConfigError, match=rf"subsystems\.json: subsystems: {message}$"):
            io.read_subsystems(path)

    def test_integer_angles_and_params_still_load(self, tmp_path):
        path = tmp_path / "subsystems.json"
        gates = {**GATES, "gates": [{**RY_GATE, "angle": 1}, {"kind": "cnot", "target": 1,
                                                              "control": 0}]}
        su2 = {"kind": "efficient_su2", "n_qubits": 2, "reps": 1, "params": [0, 1] * 4}
        path.write_text(json.dumps({"subsystems": [
            {"kind": "pair", "qubits": [0, 1], "reference": gates},
            {"kind": "pair_pair", "qubits": [2, 3, 4, 5], "reference": su2},
        ]}))
        specs, circuits = io.read_subsystems(path)
        assert [s.qubits for s in specs] == [(0, 1), (2, 3, 4, 5)]
        assert circuits[(0, 1)].gates[0].angle == 1.0
        assert isinstance(circuits[(0, 1)].gates[0].angle, float)
        assert circuits[(2, 3, 4, 5)].n_qubits == 2


def names(record_type):
    return {field.name for field in dataclasses.fields(record_type)}


def test_file_objects_hold_their_record_fields():
    """Each output object has one key per record field, plus its format keys."""
    format_keys = {"format", "version"}
    report = datasets.brisbane_report()
    obj = io.report_to_obj(report)
    assert set(obj) == names(DiagnosticReport) | format_keys
    assert all(set(row) == names(SubsystemDiagnostics) for row in obj["subsystems"])
    scan = io.scan_to_obj(score_candidates(*datasets.brisbane_nonlocal_values()))
    assert set(scan) == {"results"} | format_keys
    assert all(set(row) == names(NonlocalResult) for row in scan["results"])
    layout = datasets.brisbane_layout()
    chain = io.chain_to_obj(best_chain(layout, edge_scores_from_report(report, layout), 3), 1.0)
    assert set(chain) == names(ChainSolution) | format_keys | {"length", "weight"}
    assert set(io.study_to_obj([])) == {"rows"} | format_keys


def test_report_numbers_read_as_floats():
    obj = io.report_to_obj(datasets.brisbane_report())
    obj["subsystems"][0]["infidelity_cs"] = 0
    value = io.report_from_obj(obj).subsystems[0].infidelity_cs
    assert value == 0.0 and type(value) is float


class TestNonlocalValuePairs:
    """A values file gets the pair checks of the live scan, for target and candidates."""

    GOOD = [[1, 2], [3, 4], [5, 6]]

    @pytest.mark.parametrize(
        "target, candidates, message",
        [
            ([19], GOOD, r"\(19,\) is not a qubit pair"),
            ([19, 19], GOOD, r"\(19, 19\) is not a qubit pair"),
            ([19, 20], [[1, 2, 3], *GOOD], r"\(1, 2, 3\) is not a qubit pair"),
            ([19, 20], [[4, 4], *GOOD], r"\(4, 4\) is not a qubit pair"),
            ([19, 20], [*GOOD, [6, 5]], r"candidate pair \(6, 5\) repeats candidate pair \(5, 6\)"),
            ([19, 20], [*GOOD, [3, 4]], r"candidate pair \(3, 4\) repeats candidate pair \(3, 4\)"),
            ([19, 20], [[20, 21], *GOOD], r"row 0: candidate \(20, 21\) shares a qubit with "
                                          r"target \(19, 20\)"),
            ([19, 20], [*GOOD, [19, 20]], r"row 3: candidate \(19, 20\) shares a qubit with "
                                          r"target \(19, 20\)"),
        ],
        ids=["short-target", "repeated-target-qubit", "triple", "repeated-qubit",
             "reversed-duplicate", "duplicate", "overlaps-target", "is-target"],
    )
    def test_bad_pairs_name_the_file(self, tmp_path, target, candidates, message):
        path = tmp_path / "values.json"
        rows = [{"candidate": c, "s_ij": 0.1 * i} for i, c in enumerate(candidates)]
        path.write_text(json.dumps({"pairs": rows, "target": target}))
        with pytest.raises(ConfigError, match=rf"values\.json: values: {message}$"):
            io.read_nonlocal_values(path)

    def test_bundled_values_are_51_distinct_pairs(self):
        target, values = datasets.brisbane_nonlocal_values()
        assert target == (19, 20)
        assert len({frozenset(c) for c, _ in values}) == len(values) == 51


class TestGoldenRoundTrips:
    def test_report(self):
        text = bundled_text("brisbane_report.json")
        report = io.report_from_obj(json.loads(text))
        assert io.canonical_dumps(io.report_to_obj(report)) == text

    def test_layout(self):
        text = bundled_text("heavy_hex_127.json")
        layout = io.layout_from_obj(json.loads(text))
        assert io.canonical_dumps(io.layout_to_obj(layout)) == text

    def test_nonlocal_values(self):
        text = bundled_text("brisbane_nonlocal_19_20.json")
        target, values = datasets.brisbane_nonlocal_values()
        obj = {
            "pairs": [{"candidate": list(c), "s_ij": s} for c, s in values],
            "target": list(target),
        }
        assert io.canonical_dumps(obj) == text

    def test_heavy_hex_builder_matches_bundled_layout(self, fixture_tool):
        """The builder of tools/make_fixtures.py gives the layout ``datasets`` reads."""
        layout = fixture_tool.heavy_hex_127()
        assert layout.edges == datasets.brisbane_layout().edges
        assert io.canonical_dumps(io.layout_to_obj(layout)) == bundled_text("heavy_hex_127.json")


@pytest.fixture
def fixture_tool(monkeypatch):
    """tools/make_fixtures.py, loaded as a module."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src/ on import
    script = Path(__file__).resolve().parents[1] / "tools" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", script)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_fixture_tool_rebuilds_bundled_files(fixture_tool):
    """tools/make_fixtures.py regenerates the three bundled files byte for byte."""
    built = {
        "brisbane_report.json": io.report_to_obj(fixture_tool.build_report()),
        "brisbane_nonlocal_19_20.json": fixture_tool.build_nonlocal_values(),
        "heavy_hex_127.json": io.layout_to_obj(fixture_tool.heavy_hex_127()),
    }
    for name, obj in built.items():
        assert io.canonical_dumps(obj) == bundled_text(name), name
