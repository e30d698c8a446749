"""Tests for file formats: snapshot-stream parsing errors and golden round-trips."""

import json
from importlib import resources

import pytest

from zecs import datasets, io
from zecs.errors import RecordError
from zecs.layout import heavy_hex_127
from zecs.simulator import SnapshotRecord

RECORD_LINE = '{"bases":"XZ","bits":"01","circuit_id":"c"}\n'


def bundled_text(name):
    return resources.files("zecs.data").joinpath(name).read_text(encoding="ascii")


def write_stream(tmp_path, header):
    path = tmp_path / "snapshots.jsonl"
    path.write_text(json.dumps(header) + "\n" + RECORD_LINE, encoding="ascii")
    return path


class TestReadSnapshots:
    def test_round_trip_both_endiannesses(self, tmp_path):
        records = [SnapshotRecord("XYZ", "011", "a"), SnapshotRecord("ZZX", "100", "b")]
        for endianness in (io.Q0_LEFTMOST, io.Q0_RIGHTMOST):
            path = tmp_path / f"{endianness}.jsonl"
            io.write_snapshots(path, records, 3, endianness=endianness)
            assert io.read_snapshots(path) == (records, 3)

    def test_header_without_n_qubits(self, tmp_path):
        header = io.snapshot_header(2)
        del header["n_qubits"]
        path = write_stream(tmp_path, header)
        with pytest.raises(RecordError, match=r"snapshots\.jsonl: line 1: header n_qubits"):
            io.read_snapshots(path)

    @pytest.mark.parametrize("value", ["two", "2", 2.0, 2.5, None, True, [2], 0, -2])
    def test_header_with_bad_n_qubits(self, tmp_path, value):
        header = io.snapshot_header(2)
        header["n_qubits"] = value
        path = write_stream(tmp_path, header)
        with pytest.raises(RecordError, match=r"snapshots\.jsonl: line 1: header n_qubits"):
            io.read_snapshots(path)

    def test_record_width_checked_against_header(self, tmp_path):
        path = write_stream(tmp_path, io.snapshot_header(3))
        with pytest.raises(RecordError, match="line 2: record width 2 != expected 3"):
            io.read_snapshots(path)


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

    def test_heavy_hex_builder_matches_bundled_layout(self):
        text = bundled_text("heavy_hex_127.json")
        assert io.layout_to_obj(heavy_hex_127()) == json.loads(text)
        assert io.canonical_dumps(io.layout_to_obj(heavy_hex_127())) == text
