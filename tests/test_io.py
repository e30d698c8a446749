"""Tests for file formats: snapshot-stream parsing errors and golden round-trips."""

import importlib.util
import json
import math
import re
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from zecs import datasets, io, simulator
from zecs.diagnostics import score_candidates
from zecs.errors import CircuitSpecError, ConfigError, RecordError
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
        with pytest.raises(RecordError, match=r"snapshots\.jsonl: line 1: header needs an integer "
                                              r"number of qubits >= 1, got "):
            io.read_snapshots(path)

    @pytest.mark.parametrize("value", ["two", "2", 2.0, 2.5, None, True, [2], 0, -2, 2**63, 10**30])
    def test_header_with_bad_n_qubits(self, tmp_path, value):
        header = io.snapshot_header(2)
        header["n_qubits"] = value
        path = write_stream(tmp_path, header)
        if type(value) is int and value > sys.maxsize:
            message = f"header n_qubits {value} exceeds {sys.maxsize} columns"
        else:
            message = f"header needs an integer number of qubits >= 1, got {value!r}"
        with pytest.raises(RecordError, match=rf"snapshots\.jsonl: line 1: {re.escape(message)}$"):
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


GOLDEN = Path(__file__).resolve().parent / "golden"


def read_outcome(read, path, endianness):
    """What a stream reader gives: its codes and width, or its error's type and message."""
    try:
        codes, width = read(path, endianness)
    except Exception as exc:  # the error's type and message are what is compared
        return type(exc), str(exc)
    return codes.dtype, codes.shape, codes.tolist(), width


def read_line_by_line(path, endianness):
    codes, width, settled = io._read_snapshot_lines(path, Path(path).read_bytes(), endianness)
    return (codes[:, ::-1] if settled == io.Q0_RIGHTMOST else codes), width


def assert_reads_as_line_by_line(path):
    """``read_snapshots`` gives what the line-by-line parser gives, under every endianness."""
    for endianness in (None, io.Q0_LEFTMOST, io.Q0_RIGHTMOST):
        assert (read_outcome(io.read_snapshots, path, endianness)
                == read_outcome(read_line_by_line, path, endianness))


def written_stream(tmp_path, seed, n_qubits=6, n_records=12, endianness=io.Q0_LEFTMOST):
    """The bytes ``write_snapshots`` writes for random records tagged ``c``."""
    path = tmp_path / "written.jsonl"
    records = random_records(np.random.default_rng(seed), n_records, n_qubits)
    io.write_snapshots(path, records, n_qubits, endianness=endianness, circuit_id="c")
    return path.read_bytes()


def _edit_line(data, index, edit):
    lines = data.splitlines(keepends=True)
    lines[index:index + 1] = edit(lines[index])
    return b"".join(lines)


def _edit_header(data, edit, **dumps):
    """``data`` with its header line replaced by ``json.dumps(edit(header), **dumps)``."""
    return _edit_line(data, 0, lambda line: [
        json.dumps(edit(json.loads(line)), **dumps).encode() + b"\n"])


#: Edits of a written stream, each given the stream and a seeded generator.
STREAM_EDITS = {
    "line-deleted": lambda data, rng: _edit_line(data, rng.integers(0, 13), lambda line: []),
    "line-duplicated": lambda data, rng: _edit_line(data, rng.integers(0, 13),
                                                    lambda line: [line, line]),
    "blank-line-inserted": lambda data, rng: _edit_line(data, rng.integers(0, 13),
                                                        lambda line: [line, b"\n"]),
    "no-final-newline": lambda data, rng: data[:-1],
    "crlf-line-ends": lambda data, rng: data.replace(b"\n", b"\r\n"),
    "version-true": lambda data, rng: data.replace(b'"version":1}', b'"version":true}'),
    "version-1.0": lambda data, rng: data.replace(b'"version":1}', b'"version":1.0}'),
    "n-qubits-2**63": lambda data, rng: data.replace(b'"n_qubits":6', b'"n_qubits":%d' % 2**63),
    "endianness-unknown": lambda data, rng: data.replace(b"q0-leftmost", b"q0-sideways"),
    "bases-repeated-in-a-suffix": lambda data, rng: _edit_line(
        data, rng.integers(1, 13), lambda line: [line.replace(b"}\n", b',"bases":"XYZXYZ"}\n')]),
    "bases-repeated-in-every-suffix": lambda data, rng: data.replace(
        b'"c"}\n', b'"c","bases":"XYZXYZ"}\n'),
    "circuit-id-changed": lambda data, rng: _edit_line(
        data, rng.integers(1, 13), lambda line: [line.replace(b'"c"', b'"d"')]),
    "header-spaced": lambda data, rng: _edit_header(data, lambda header: header),
    "header-without-endianness": lambda data, rng: _edit_header(
        data, lambda header: {k: v for k, v in header.items() if k != "endianness"}),
    "header-keys-reordered": lambda data, rng: _edit_header(
        data, lambda header: dict(reversed(header.items())), separators=(",", ":")),
    "header-deleted": lambda data, rng: _edit_line(data, 0, lambda line: []),
    "blank-first-line": lambda data, rng: b"\n" + data,
    "header-twice": lambda data, rng: _edit_line(data, 0, lambda line: [line, line]),
    "header-with-u2028": lambda data, rng: _edit_header(
        data, lambda header: {**header, "note": "a\u2028b"}, ensure_ascii=False),
    "header-with-cr": lambda data, rng: _edit_header(
        data, lambda header: {**header, "note": "a\rb"}).replace(b"\\r", b"\r"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN.glob("stream_*.jsonl")), ids=lambda p: p.name)
def test_golden_streams_read_as_line_by_line(name):
    assert_reads_as_line_by_line(name)


@pytest.mark.parametrize("endianness", [io.Q0_LEFTMOST, io.Q0_RIGHTMOST])
def test_written_127_qubit_stream_reads_as_line_by_line(tmp_path, endianness):
    data = written_stream(tmp_path, 127, n_qubits=127, n_records=500, endianness=endianness)
    path = tmp_path / "stream.jsonl"
    path.write_bytes(data)
    assert_reads_as_line_by_line(path)
    codes, width = io.read_snapshots(path)
    assert width == 127 and codes.shape == (500, 127) and int(codes.max()) <= 5


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("edit", sorted(STREAM_EDITS))
def test_edited_stream_reads_as_line_by_line(tmp_path, edit, seed):
    path = tmp_path / "stream.jsonl"
    data = written_stream(tmp_path, seed)
    path.write_bytes(STREAM_EDITS[edit](data, np.random.default_rng(seed)))
    assert_reads_as_line_by_line(path)


@pytest.mark.parametrize("line", ["\u00a0", "\u3000", "\x0b", "\x0c", "\u2028", "\x1c",
                                  " \u00a0\t"])
def test_line_of_non_json_whitespace_is_not_blank(tmp_path, line):
    """Only spaces and tabs make a blank line: any other whitespace is a line of invalid JSON,
    named by its number, though ``str.strip`` would empty it."""
    lines = (GOLDEN / "stream_default_q0_leftmost.jsonl").read_bytes().split(b"\n")
    path = tmp_path / "stream.jsonl"
    path.write_bytes(b"\n".join(lines[:2] + [line.encode()] + lines[2:]))
    message = r"stream\.jsonl: line 3: invalid JSON \(Expecting value\)$"
    with pytest.raises(RecordError, match=message):
        io.read_snapshots(path)
    path.write_bytes(b"\n".join(lines[:2] + [b" \t "] + lines[2:]))
    assert io.read_snapshots(path)[0].shape == (40, 3)


@pytest.mark.parametrize("character", ["\u2028", "\u2029", "\x85"])
def test_unicode_line_break_in_a_string_stays_in_its_line(tmp_path, character):
    """Lines end at LF, CRLF and CR only: a raw U+2028, U+2029 or U+0085 in a JSON string
    of the header or a record leaves the stream readable and later line numbers exact."""
    data = written_stream(tmp_path, 4)
    path = tmp_path / "stream.jsonl"
    path.write_bytes(data)
    expected, _ = io.read_snapshots(path)
    note = f"a{character}b".encode()
    header_noted = data.replace(b'"version":1}', b'"version":1,"note":"' + note + b'"}', 1)
    record_noted = _edit_line(header_noted, 2, lambda line: [
        line.replace(b'"c"}', b'"c","note":"' + note + b'"}')])
    for edited in (header_noted, record_noted):
        path.write_bytes(edited)
        assert_reads_as_line_by_line(path)
        codes, width = io.read_snapshots(path)
        assert width == 6 and np.array_equal(codes, expected)
    path.write_bytes(_edit_line(record_noted, 4, lambda line: [b'{"bases":"XQ"}\n']))
    assert_reads_as_line_by_line(path)
    with pytest.raises(RecordError, match=r": line 5: missing field 'bits'"):
        io.read_snapshots(path)


@pytest.mark.parametrize("character", ["X", "2", '"', "\\", "\r", "\x85", "é", " "])
def test_stream_with_one_byte_replaced_reads_as_line_by_line(tmp_path, character):
    """One byte of a written stream replaced: in the header, a field, the fixed bytes of a
    record line or anywhere, by a code, a JSON delimiter, a line break or a non-ASCII byte."""
    data = written_stream(tmp_path, 1)
    record = data.index(b"\n") + 1  # the first record line, ``{"bases":"`` + 6 + ``","bits":"``
    positions = [5, record + 3, record + 12, record + 24, record + 30, len(data) - 3]
    positions += np.random.default_rng(ord(character)).integers(0, len(data), 8).tolist()
    replacement = character.encode("latin-1") if character == "\x85" else character.encode()
    path = tmp_path / "stream.jsonl"
    for at in positions:
        path.write_bytes(data[:at] + replacement + data[at + 1:])
        assert_reads_as_line_by_line(path)


@pytest.mark.parametrize("n_qubits", ["true", "1.0", "0"])
def test_header_width_that_is_not_a_count_reads_as_line_by_line(tmp_path, n_qubits):
    """``true`` and ``1.0`` render as they are written and equal 1, each record's width;
    a header of 0 qubits matches records of no qubits."""
    width = 0 if n_qubits == "0" else 1
    header = io.canonical_dumps(io.snapshot_header(width)).replace(f":{width},", f":{n_qubits},")
    record = io.canonical_dumps({"bases": "X" * width, "bits": "1" * width, "circuit_id": ""})
    path = tmp_path / "stream.jsonl"
    path.write_text(header + record * 3, encoding="ascii")
    assert_reads_as_line_by_line(path)


def test_written_stream_is_decoded_in_one_pass(tmp_path, monkeypatch):
    """A written stream costs two ``json.loads`` calls, its header and first record,
    also with a spaced header or one without ``endianness``."""
    data = written_stream(tmp_path, 2, n_qubits=127, n_records=300)
    path = tmp_path / "stream.jsonl"
    loads = json.loads
    for edit in (None, "header-spaced", "header-without-endianness"):
        path.write_bytes(data if edit is None else STREAM_EDITS[edit](data, None))
        calls = []
        monkeypatch.setattr(json, "loads", lambda *args: calls.append(1) or loads(*args))
        codes, _ = io.read_snapshots(path)
        assert codes.shape == (300, 127), edit
        assert len(calls) <= 2, edit


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


def per_value_canonical(obj) -> str:
    """The canonical text of ``obj`` written one value at a time: the oracle of the writer."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
        value = float(obj)
        if not math.isfinite(value):
            raise ValueError(f"non-finite float {value} cannot be serialized")
        text = "%.17g" % value
        if "." not in text and "e" not in text:
            text += ".0"
        return text
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(per_value_canonical(v) for v in obj) + "]"
    if hasattr(obj, "tolist"):
        return per_value_canonical(obj.tolist())
    if isinstance(obj, dict):
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise ValueError(f"object keys must be strings, got {key!r}")
            parts.append(f"{json.dumps(key, ensure_ascii=True)}:{per_value_canonical(obj[key])}")
        return "{" + ",".join(parts) + "}"
    raise ValueError(f"cannot serialize {type(obj).__name__}")


def written(write, obj):
    """The text ``write`` gives for ``obj``, or its ``ValueError`` message."""
    try:
        return write(obj)
    except ValueError as exc:
        return ValueError, str(exc)


def assert_writes_as_per_value(obj):
    assert written(io._canonical, obj) == written(per_value_canonical, obj)


#: Floats whose text is easy to get wrong: signed zeros, integral values either side
#: of 1e17 (where ``%.17g`` turns to an exponent), the largest and smallest doubles.
EDGE_FLOATS = [0.0, -0.0, 1.0, -3.0, 0.5, 1e16, 2.0**53, 2.0**53 + 2, 1e17 - 16, -(1e17 - 16),
               1e17, -1e17, 1e17 + 16, 2.0**60, 1e22, -1e22, 1e300, 5e-324, -5e-324,
               2.2250738585072014e-308, 1.7976931348623157e308, 1 / 3, 0.1, 123456789.125]
NON_FINITE = [math.nan, math.inf, -math.inf]


def random_float(rng):
    pick = rng.integers(4)
    if pick == 0:
        return float(rng.choice(EDGE_FLOATS))
    if pick == 1:
        return float(rng.integers(-10**6, 10**6))
    return float(rng.standard_normal() * 10.0 ** rng.integers(-20, 20))


def random_rows(rng):
    """A list of equal-length float lists, now and then edited off the row path."""
    m = int(rng.integers(1, 5))
    rows = [[random_float(rng) for _ in range(m)] for _ in range(int(rng.integers(1, 6)))]
    edit = rng.integers(8)
    row = rows[int(rng.integers(len(rows)))]
    at = int(rng.integers(m))
    if edit == 0:
        row[at] = float(rng.choice(NON_FINITE))
    elif edit == 1:
        row[at] = [1, True, False, np.float64(0.25), np.float32(0.5), None, "x"][rng.integers(7)]
    elif edit == 2:
        row.append(random_float(rng))
    elif edit == 3:
        rows[rows.index(row)] = tuple(row)
    elif edit == 4:
        rows.append(np.array(row))
    return rows


def random_nest(rng, depth=0):
    pick = rng.integers(9 if depth < 3 else 5)
    if pick == 0:
        return random_float(rng)
    if pick == 1:
        return [None, True, False, 0, -7, 2**70, "a\"b\u00e9", ""][rng.integers(8)]
    if pick == 2:
        return random_rows(rng)
    if pick == 3:
        return [np.float64(random_float(rng)), np.int64(5), np.bool_(True),
                np.arange(6.0).reshape(3, 2) / 4][rng.integers(4)]
    if pick == 4:
        return float(rng.choice(NON_FINITE)) if rng.integers(10) == 0 else random_float(rng)
    if pick == 5:
        return [random_nest(rng, depth + 1) for _ in range(rng.integers(0, 4))]
    if pick == 6:
        return tuple(random_nest(rng, depth + 1) for _ in range(rng.integers(0, 4)))
    return {f"k{i}": random_nest(rng, depth + 1) for i in range(rng.integers(0, 4))}


class TestCanonicalWriter:
    """The writer gives the per-value oracle's text, or its ``ValueError``, for every value."""

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_nests(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            assert_writes_as_per_value(random_nest(rng))

    @pytest.mark.parametrize("value", EDGE_FLOATS)
    def test_edge_floats_alone_and_in_rows(self, value):
        for obj in (value, [value], [[value]], [[value, 1.5], [-2.0, value]], [[value] * 3] * 2):
            assert_writes_as_per_value(obj)
        assert io._float_rows([[value, 1.5]]) == per_value_canonical([[value, 1.5]])

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("at", [0, 3, 5])
    def test_non_finite_value_in_a_row_raises_its_error(self, bad, at):
        values = [0.5, -1.0, 2.0, 0.25, 1e20, 3.0]
        values[at] = bad
        obj = [values[:2], values[2:4], values[4:]]
        assert io._float_rows(obj) is None
        message = written(per_value_canonical, obj)
        assert message == (ValueError, f"non-finite float {bad} cannot be serialized")
        assert written(io._canonical, obj) == message
        # The first non-finite value in the text is the one named.
        obj[2][1] = -bad
        assert_writes_as_per_value(obj)

    def test_finite_rows_whose_sum_overflows(self):
        obj = [[1.7976931348623157e308, 1.7976931348623157e308], [-1e308, 0.0]]
        assert_writes_as_per_value(obj)

    @pytest.mark.parametrize("obj", [
        [[1.0, 2.0], [3.0]],
        [[1.0, 2.0], (3.0, 4.0)],
        ((1.0, 2.0), (3.0, 4.0)),
        ([1.0, 2.0], [3.0, -0.0]),
        [[1, 2.0], [3.0, 4.0]],
        [[True, 2.0], [3.0, False]],
        [[1.0, None], [3.0, 4.0]],
        [[np.float64(1.5), 2.0], [3.0, 4.0]],
        [[1.0, 2.0], np.array([3.0, 4.0])],
        np.array([[0.5, -0.0], [1e17, 2.0**60]]),
        [np.float32(0.1), np.float64(-0.0), np.int64(3)],
        [[], []],
        [[[1.0, 2.0]], [[3.0, 4.0]]],
        [],
        [[]],
    ], ids=repr)
    def test_sequences_on_and_off_the_row_path(self, obj):
        assert_writes_as_per_value(obj)

    def test_64_by_64_re_im_matrix_is_written_a_row_at_a_time(self):
        rng = np.random.default_rng(7)
        matrix = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        matrix[np.arange(64), np.arange(64)] = rng.integers(-2, 3, 64)
        matrix[3, 5] = -0.0
        pairs = [[[float(z.real), float(z.imag)] for z in row] for row in matrix]
        text = io._canonical({"rho": pairs})
        assert text == per_value_canonical({"rho": pairs})
        assert all(io._float_rows(row) == per_value_canonical(row) for row in pairs)
        assert json.loads(text)["rho"] == pairs


RY_GATE = {"kind": "ry", "target": 0, "angle": 0.5}
GATES = {"kind": "gates", "n_qubits": 2, "gates": [RY_GATE]}
SU2 = {"kind": "efficient_su2", "n_qubits": 2, "reps": 1, "param_seed": 3}


class TestCircuitAndSubsystemTypes:
    """Circuit and subsystem fields are typed JSON values; a wrong type names the file."""

    @pytest.mark.parametrize(
        "circuit, message",
        [
            ({**GATES, "gates": [{**RY_GATE, "target": 1.7}]},
             "gate 0: qubit index must be an integer, got 1.7"),
            ({**GATES, "gates": [{**RY_GATE, "angle": True}]},
             "gate 0: angle must be a number, got True"),
            ({**GATES, "n_qubits": "2"}, "circuit needs an integer number of qubits >= 1, got '2'"),
            ({**SU2, "param_seed": 2.5}, "seed must be a non-negative integer, got 2.5"),
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
             "subsystem 0: qubit index must be an integer, got True"),
            ({"kind": "pair", "qubits": [0, 2.9]},
             "subsystem 0: qubit index must be an integer, got 2.9"),
            ({"kind": "pair", "qubits": [0, 1], "reference": {**SU2, "n_qubits": 2.0}},
             "subsystem 0: reference: n_qubits must be an integer, got 2.0"),
            ([0, 1], "subsystem 0: expected a JSON object, got list"),
        ],
        ids=["bool-qubit", "float-qubit", "reference-field", "list-row"],
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

    @pytest.mark.parametrize(
        "row, message",
        [
            ({"kind": 5, "qubits": [0, 1]}, "kind must be a string, got 5"),
            ({"kind": "pair", "qubits": [0, 1.5]}, "qubit index must be an integer, got 1.5"),
            ({"kind": "pair", "qubits": [3, 3]}, "qubit subset (3, 3) repeats a qubit"),
            ({"kind": "triple", "qubits": [0, 1, 2]}, "unknown subsystem kind 'triple'"),
            ({"kind": "pair", "qubits": [0, 1, 2]}, "pair subsystem needs 2 qubits, got (0, 1, 2)"),
            ({"kind": "pair", "qubits": [-1, 0]}, "qubit index must be non-negative, got -1"),
        ],
        ids=["int-kind", "float-qubit", "repeat", "unknown-kind", "wrong-size", "negative"],
    )
    def test_reports_and_subsystem_files_read_a_spec_alike(self, tmp_path, row, message):
        """``SubsystemSpec`` checks the ``kind`` and ``qubits`` of both files; each error names
        the file and the row, and only the row's name differs."""
        report = io.report_to_obj(datasets.brisbane_report())
        report["subsystems"][2] = {**report["subsystems"][2], **row}
        subsystems = {"subsystems": [{"kind": "pair", "qubits": [0, 1]}] * 2 + [row]}
        for what, obj, where in [("report", report, "row 2"),
                                 ("subsystems", subsystems, "subsystem 2")]:
            path = tmp_path / f"{what}.json"
            path.write_text(json.dumps(obj))
            expected = f"{path}: {what}: {where}: {message}"
            with pytest.raises(ConfigError, match=f"^{re.escape(expected)}$"):
                getattr(io, f"read_{what}")(path)


def names(record_type):
    return set(record_type._fields)


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


#: Versions other than the integer ``FORMAT_VERSION``, for a report and a stream header.
OTHER_VERSIONS = pytest.mark.parametrize(
    "version", [99, 0, "1", None, True, 1.0], ids=["99", "0", "string", "missing", "true", "float"]
)


@OTHER_VERSIONS
def test_report_of_another_version_is_rejected(tmp_path, version):
    """A report, like a snapshot stream's header, is read only at ``FORMAT_VERSION``."""
    obj = io.report_to_obj(datasets.brisbane_report())
    if version is None:
        del obj["version"]
    else:
        obj["version"] = version
    path = tmp_path / "report.json"
    path.write_text(json.dumps(obj))
    expected = f"{path}: report: unsupported version {version!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(expected)}$"):
        io.read_report(path)


@OTHER_VERSIONS
def test_stream_header_of_another_version_is_rejected(tmp_path, version):
    header = io.snapshot_header(2)
    if version is None:
        del header["version"]
    else:
        header["version"] = version
    path = write_stream(tmp_path, header)
    expected = f"{path}: line 1: unsupported version {version!r}"
    with pytest.raises(RecordError, match=f"^{re.escape(expected)}$"):
        io.read_snapshots(path)


def _bundled(name, edit):
    """The bundled file ``name`` as an object, changed in place by ``edit``."""
    obj = json.loads(bundled_text(name))
    edit(obj)
    return obj


#: One bad value in each kind of row: (reader, file object, the error after the file's name).
ROW_ERRORS = {
    "report-row": ("report", _bundled(
        "brisbane_report.json", lambda obj: obj["subsystems"][7].update(qubits=[13, 12.5])),
        "row 7: qubit index must be an integer, got 12.5"),
    "subsystems-row": ("subsystems", {"subsystems": [
        {"kind": "pair", "qubits": [0, 1]}, {"kind": "pair", "qubits": [2, "3"]}]},
        "subsystem 1: qubit index must be an integer, got '3'"),
    "reference-circuit": ("subsystems", {"subsystems": [
        {"kind": "pair", "qubits": [0, 1]},
        {"kind": "pair", "qubits": [2, 3], "reference": {**GATES, "n_qubits": True}}]},
        "subsystem 1: reference: circuit needs an integer number of qubits >= 1, got True"),
    "values-row": ("nonlocal_values", _bundled(
        "brisbane_nonlocal_19_20.json", lambda obj: obj["pairs"][4].update(candidate=[4.5, 6])),
        "row 4: qubit index must be an integer, got 4.5"),
    "gate-target": ("circuit", {**GATES, "gates": [RY_GATE, {**RY_GATE, "target": 0.5}]},
                    "gate 1: qubit index must be an integer, got 0.5"),
    "gate-control": ("circuit", {**GATES, "gates": [{**RY_GATE, "control": 1.5}]},
                     "gate 0: ry gate takes no control, got 1.5"),
    "layout-edge": ("layout", _bundled(
        "heavy_hex_127.json", lambda obj: obj["edges"][5].__setitem__(1, 2.5)),
        "edge 5: qubit index must be an integer, got 2.5"),
}


@pytest.mark.parametrize("case", ROW_ERRORS)
def test_errors_name_the_file_and_the_row(tmp_path, case):
    """Each record checks its own fields, and the reader names the file and the row."""
    reader, obj, message = ROW_ERRORS[case]
    path = tmp_path / f"{reader}.json"
    path.write_text(json.dumps(obj))
    what = "values" if reader == "nonlocal_values" else reader
    expected = f"{path}: {what}: {message}"
    with pytest.raises(ConfigError, match=f"^{re.escape(expected)}$"):
        getattr(io, f"read_{reader}")(path)


def test_ry_gate_with_an_integer_control_is_rejected():
    """A rotation takes no control: ``run`` would ignore it, so ``Circuit`` rejects it."""
    for control in (0, -1):
        message = f"gate 0: ry gate takes no control, got {control}"
        with pytest.raises(CircuitSpecError, match=f"^{re.escape(message)}$"):
            io.circuit_from_obj({**GATES, "gates": [{**RY_GATE, "control": control}]})


@pytest.mark.parametrize(
    "obj",
    [
        {**GATES, "n_qubits": 13},
        {"kind": "efficient_su2", "n_qubits": 20000, "reps": 1, "param_seed": 0},
        {"kind": "efficient_su2", "n_qubits": 13, "reps": 1, "params": [0.0] * 52},
    ],
    ids=["gate-list-13", "ansatz-20000", "ansatz-params-13"],
)
def test_circuit_wider_than_the_simulator_cap_is_rejected(tmp_path, monkeypatch, obj):
    """The 12-qubit cap is checked before an ansatz builds a gate; a gate list builds its own."""
    built = []
    monkeypatch.setattr(simulator, "Gate", lambda *args, **kw: built.append(args))
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(obj))
    expected = f"{path}: circuit: simulation capped at 12 qubits"
    with pytest.raises(ConfigError, match=f"^{re.escape(expected)}$"):
        io.read_circuit(path)
    assert len(built) == len(obj.get("gates", []))


class TestNonlocalValuePairs:
    """A values file gets the pair checks of the live scan, for target and candidates."""

    GOOD = [[1, 2], [3, 4], [5, 6]]

    @pytest.mark.parametrize(
        "target, candidates, message",
        [
            ([19], GOOD, r"target 0: \(19,\) is not a qubit pair"),
            ([19, 19], GOOD, r"target 0: \(19, 19\) is not a qubit pair"),
            ([19, 20], [[1, 2, 3], *GOOD], r"row 0: \(1, 2, 3\) is not a qubit pair"),
            ([19, 20], [[4, 4], *GOOD], r"row 0: \(4, 4\) is not a qubit pair"),
            ([19, 20], [*GOOD, [6, 5]], r"row 3: \(6, 5\) repeats row 2 \(5, 6\)"),
            ([19, 20], [*GOOD, [3, 4]], r"row 3: \(3, 4\) repeats row 1 \(3, 4\)"),
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
