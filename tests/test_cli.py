"""Tests for the command-line surface: exit codes and error messages."""

import json

from zecs import cli, io


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
