"""File formats: canonical JSON, snapshot streams, reports, chains, scans, studies.

All files are emitted in a canonical form (sorted keys, floats at 17
significant digits, newline-terminated) so identical inputs produce
byte-identical outputs and golden tests can compare raw bytes.

Snapshot streams are JSON lines with an optional header line; the header
pins the qubit count and the bit-string endianness.  The internal
convention is ``q0-leftmost`` (qubit 0 is the leftmost character and the
most significant bit).  ``write_snapshots`` writes ``SnapshotRecord`` lists,
every record line laid out by ``_record_pieces``.  ``read_snapshots`` reads the
file once and returns the stream's code matrix.  The line parser owns every
header and record rule and encodes through ``shadow.encode_rows``.  A stream
whose header line that parser reads and whose record lines differ only in
``bases`` and ``bits``, as ``write_snapshots`` writes them, is decoded in one
pass through ``shadow.encode_bytes`` that checks only that repeated layout.
``q0-rightmost`` input is read as a column flip.
A stream comes from one circuit: ``write_snapshots`` takes its
``circuit_id`` once and writes it on every record line, and no result of
``read_snapshots`` depends on it.

The report, scan and chain objects come from their record dataclasses
(``report.SubsystemDiagnostics``, ``report.NonlocalResult``,
``routing.ChainSolution``): one key per field, so a field is declared once,
in its record.  ``simulate`` writes its stream with ``write_snapshots``; every
other command writes its file as ``write_canonical(path, <kind>_to_obj(...))``.

Records check their own fields, and ``io`` names the file and the row: raw JSON
values go to ``SubsystemSpec``, ``DeviceLayout``, ``Circuit``, ``as_pairs`` and the
ansatz builder, and ``_named`` turns any error in a file, row, reference or gate
into a ``ConfigError`` that names it (``<file>: report: row 3: ...``).

Reports, layouts, chains, scans and canonical JSON need no NumPy, so the
``route`` command loads none: ``read_snapshots`` imports the ``shadow`` layer
(and with it NumPy) when it runs, and ``circuit_from_obj`` the ``simulator``
layer.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import fields
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import ConfigError, RecordError, SubsystemError, ZecsError
from .layout import DeviceLayout
from .report import (
    ENTROPY_NORMALIZATIONS,
    DiagnosticReport,
    NonlocalResult,
    SubsystemDiagnostics,
    SubsystemSpec,
    as_pairs,
    qubit_count,
)
from .routing import ChainSolution

if TYPE_CHECKING:
    import numpy as np

    from .simulator import Circuit, SnapshotRecord

SNAPSHOT_FORMAT = "zecs-snapshots"
REPORT_FORMAT = "zecs-report"
CHAIN_FORMAT = "zecs-chain"
NONLOCAL_FORMAT = "zecs-nonlocal"
STUDY_FORMAT = "zecs-perturb-study"
FORMAT_VERSION = 1

Q0_LEFTMOST = "q0-leftmost"
Q0_RIGHTMOST = "q0-rightmost"


# ---------------------------------------------------------------------------
# canonical JSON


def _canonical(obj) -> str:
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
        return "[" + ",".join(_canonical(v) for v in obj) + "]"
    if hasattr(obj, "tolist"):  # NumPy scalars and arrays, as Python values
        return _canonical(obj.tolist())
    if isinstance(obj, dict):
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise ValueError(f"object keys must be strings, got {key!r}")
            parts.append(f"{json.dumps(key, ensure_ascii=True)}:{_canonical(obj[key])}")
        return "{" + ",".join(parts) + "}"
    raise ValueError(f"cannot serialize {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    """Canonical single-line JSON text, newline-terminated."""
    return _canonical(obj) + "\n"


def write_canonical(path: str | Path, obj) -> None:
    _write_text(path, canonical_dumps(obj))


def _write_text(path: str | Path, text: str) -> None:
    """Write ASCII ``text``; a file that cannot be written raises ``ConfigError`` naming it."""
    try:
        Path(path).write_text(text, encoding="ascii")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot write file ({exc.strerror})") from None


def _read_bytes(path: str | Path, error: type[ZecsError]) -> bytes:
    """The file's bytes; a file that cannot be read raises ``error`` naming it."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise error(f"{path}: cannot read file ({exc.strerror})") from None


def _utf8(path: str | Path, data: bytes, error: type[ZecsError]) -> str:
    """``data`` as text; bytes that are not UTF-8 raise ``error`` naming the file and the byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: byte {exc.start}: not UTF-8 text") from None


def read_json(path: str | Path):
    # Line ends are read as ``open`` reads them, so an error's line number counts a CR as one.
    text = _utf8(path, _read_bytes(path, ConfigError), ConfigError)
    try:
        return json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: invalid JSON ({exc.msg})") from None
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply") from None


def _named(where: str, from_obj, raw):
    """``from_obj(raw)`` of a JSON object; any error in it is a ``ConfigError`` naming ``where``."""
    try:
        if not isinstance(raw, dict):
            raise TypeError(f"expected a JSON object, got {type(raw).__name__}")
        return from_obj(raw)
    except KeyError as exc:
        raise ConfigError(f"{where}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError, ZecsError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _check_format(obj: dict, name: str, error: type[ZecsError]) -> None:
    """The header rule of streams and reports: format ``name``, int version ``FORMAT_VERSION``."""
    if obj.get("format") != name:
        raise error(f"not a {name} file (format {obj.get('format')!r})")
    version = obj.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise error(f"unsupported version {version!r}")


# ---------------------------------------------------------------------------
# snapshot streams


def snapshot_header(n_qubits: int, endianness: str = Q0_LEFTMOST) -> dict:
    return {
        "endianness": endianness,
        "format": SNAPSHOT_FORMAT,
        "n_qubits": n_qubits,
        "version": FORMAT_VERSION,
    }


def _record_pieces(circuit_id) -> tuple[str, str, str]:
    """A record line is ``head + bases + middle + bits + tail``, ``tail`` holding the
    canonical JSON of ``circuit_id``: the one owner of the line layout, for the writer
    and for the reader's one-pass decoder."""
    return '{"bases":"', '","bits":"', '","circuit_id":' + _canonical(circuit_id) + "}\n"


def write_snapshots(
    path: str | Path,
    records: Iterable[SnapshotRecord],
    n_qubits: int,
    endianness: str = Q0_LEFTMOST,
    circuit_id: str = "",
) -> None:
    """Write a header line and one record per line, each tagged with ``circuit_id``.

    Records are held internally as ``q0-leftmost``; asking for
    ``q0-rightmost`` reverses the strings on the way out.  Every record line
    is laid out by ``_record_pieces``: a record's ``bases`` and ``bits`` hold
    only ``XYZ`` and ``01``, which JSON writes unescaped, so each line equals
    ``canonical_dumps`` of the record's object.
    """
    if endianness not in (Q0_LEFTMOST, Q0_RIGHTMOST):
        raise ConfigError(f"unknown endianness {endianness!r}")
    step = 1 if endianness == Q0_LEFTMOST else -1
    head, middle, tail = _record_pieces(circuit_id)
    lines = [canonical_dumps(snapshot_header(n_qubits, endianness))]
    for record in records:
        if record.n_qubits != n_qubits:
            raise RecordError(
                f"record width {record.n_qubits} does not match header n_qubits {n_qubits}"
            )
        lines.append(f"{head}{record.bases[::step]}{middle}{record.bits[::step]}{tail}")
    _write_text(path, "".join(lines))


def _written_layout_codes(
    path: str | Path, data: bytes, endianness: str | None
) -> tuple[np.ndarray, int, str | None] | None:
    """:func:`_read_snapshot_lines` of a stream whose first line is a header, read by that
    parser, and whose other lines equal the first record line byte for byte, itself the
    writer's rendering of its fields, except in ``bases`` and ``bits``, whose bytes are all
    basis letters and bits; else None.  This checks only that repeated layout."""
    import numpy as np

    from .shadow import encode_bytes

    header_end = data.find(b"\n") + 1
    first_line = data[header_end:data.find(b"\n", header_end) + 1]
    try:
        header_rows, n, endianness = _read_snapshot_lines(path, data[:header_end], endianness)
        first = json.loads(first_line)
    except (RecordError, ValueError, RecursionError):
        return None
    if len(header_rows) or not (isinstance(first, dict) and first_line.isascii()):
        return None
    bases, bits, circuit_id = first.get("bases"), first.get("bits"), first.get("circuit_id")
    if not (type(bases) is type(bits) is type(circuit_id) is str
            and len(bases) == len(bits) == n):
        return None
    head, middle, tail = _record_pieces(circuit_id)
    if first_line.decode("ascii") != head + bases + middle + bits + tail:
        return None
    line_len = len(first_line)
    if (len(data) - header_end) % line_len:
        return None
    lines = np.frombuffer(data, dtype=np.uint8, offset=header_end).reshape(-1, line_len)
    at_bases = len(head)
    at_bits = at_bases + n + len(middle)
    for fixed in (slice(0, at_bases), slice(at_bases + n, at_bits), slice(at_bits + n, line_len)):
        if (lines[1:, fixed] != lines[0, fixed]).any():
            return None
    codes, bad_rows = encode_bytes(lines[:, at_bases:at_bases + n], lines[:, at_bits:at_bits + n])
    if bad_rows.any():
        return None
    return codes, n, endianness


def read_snapshots(
    path: str | Path, endianness: str | None = None
) -> tuple[np.ndarray, int]:
    """Parse a snapshot stream into its code matrix and qubit count.

    The matrix is ``uint8[N, n_qubits]`` of codes ``2 * basis + bit`` in the
    internal ``q0-leftmost`` order (see :func:`zecs.shadow.encode_rows`).
    Malformed lines are rejected with their line number, the first in the
    file if there are several; nothing is returned from a partially valid
    file.  A header may only be the first non-blank line.  ``endianness``
    overrides the header (and is required context for headerless files from
    other tools).

    The file is read once.  The line parser owns every header and record rule.
    When the first line is a header and every record line differs from the
    first only in its ``bases`` and ``bits`` characters, as ``write_snapshots``
    writes them, the records are decoded in one vectorized pass that checks
    only that layout; any other input is read line by line.
    """
    if endianness not in (None, Q0_LEFTMOST, Q0_RIGHTMOST):
        raise ConfigError(f"unknown endianness {endianness!r}")
    data = _read_bytes(path, RecordError)
    codes, n_qubits, endianness = (_written_layout_codes(path, data, endianness)
                                   or _read_snapshot_lines(path, data, endianness))
    if endianness == Q0_RIGHTMOST:
        codes = codes[:, ::-1]
    return codes, n_qubits


def _read_snapshot_lines(
    path: str | Path, data: bytes, endianness: str | None
) -> tuple[np.ndarray, int, str | None]:
    """The codes of the file ``path`` holding ``data`` in file column order, read line by
    line, with their width and the endianness given, else the header's, else None."""
    from .shadow import encode_rows

    text = _utf8(path, data, RecordError)
    bases: list[str] = []
    bits: list[str] = []
    linenos: list[int] = []
    file_endianness = endianness
    n_qubits: int | None = None
    failure = None
    try:
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RecordError(f"invalid JSON ({exc.msg})") from None
            except RecursionError:
                raise RecordError("JSON nested too deeply") from None
            if not isinstance(obj, dict):
                raise RecordError("expected an object")
            if "format" in obj:
                if n_qubits is not None:
                    raise RecordError("a header must be the first non-blank line")
                _check_format(obj, SNAPSHOT_FORMAT, RecordError)
                width = qubit_count(obj.get("n_qubits"), RecordError, "header")
                if width > sys.maxsize:  # no array dimension holds it
                    raise RecordError(f"header n_qubits {width} exceeds {sys.maxsize} columns")
                n_qubits = width
                if file_endianness is None:
                    declared = obj.get("endianness", Q0_LEFTMOST)
                    if declared not in (Q0_LEFTMOST, Q0_RIGHTMOST):
                        raise RecordError(f"unknown endianness {declared!r}")
                    file_endianness = declared
                continue
            try:
                row = obj["bases"], obj["bits"]
            except KeyError as exc:
                raise RecordError(f"missing field {exc.args[0]!r}") from None
            if type(row[0]) is not str or type(row[1]) is not str:
                field = "bases" if type(row[0]) is not str else "bits"
                raise RecordError(f"{field} must be a string, got {obj[field]!r}")
            if n_qubits is None:
                n_qubits = len(row[0])
            bases.append(row[0])
            bits.append(row[1])
            linenos.append(lineno)
    except RecordError as exc:
        failure = RecordError(f"{path}: line {lineno}: {exc}")
    # Rows before a failing line are checked first: a bad one is the earlier error.
    codes = encode_rows(bases, bits, n_qubits or 0,
                        where=lambda row: f"{path}: line {linenos[row]}")
    if failure is not None:
        raise failure
    if n_qubits is None:
        raise RecordError(f"{path}: no header and no records")
    return codes, n_qubits, file_endianness


# ---------------------------------------------------------------------------
# diagnostic reports


def _record_obj(record) -> dict:
    """A JSON object with one key per dataclass field; tuples become lists."""
    obj = {}
    for field in fields(record):
        value = getattr(record, field.name)
        obj[field.name] = list(value) if isinstance(value, tuple) else value
    return obj


def report_to_obj(report: DiagnosticReport) -> dict:
    return {
        "entropy_normalization": report.entropy_normalization,
        "format": REPORT_FORMAT,
        "subsystems": [_record_obj(row) for row in report.subsystems],
        "version": FORMAT_VERSION,
    }


def _number(value, field: str) -> float:
    """A finite JSON number: not a boolean, string, null, ``NaN``, ``Infinity`` or ``1e400``."""
    if type(value) is bool or not isinstance(value, (int, float)):
        raise TypeError(f"{field} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{field} must be finite, got {value!r}")
    return float(value)


#: The optional number fields of a report row, read from its annotations.
_REPORT_NUMBERS = tuple(f.name for f in fields(SubsystemDiagnostics) if f.type == "float | None")


def _report_row(raw: dict) -> SubsystemDiagnostics:
    spec, flag = SubsystemSpec(raw["kind"], raw["qubits"]), raw.get("degenerate_flag")
    if flag is not None and type(flag) is not bool:
        raise TypeError(f"degenerate_flag must be a boolean or null, got {flag!r}")
    numbers = {key: None if raw.get(key) is None else _number(raw[key], key)
               for key in _REPORT_NUMBERS}
    return SubsystemDiagnostics(spec.kind, spec.qubits, degenerate_flag=flag, **numbers)


def report_from_obj(obj: dict) -> DiagnosticReport:
    _check_format(obj, REPORT_FORMAT, ConfigError)
    normalization = obj.get("entropy_normalization", "per-kind")
    if normalization not in ENTROPY_NORMALIZATIONS:
        raise ConfigError(
            f"entropy_normalization must be one of {ENTROPY_NORMALIZATIONS}, got {normalization!r}"
        )
    rows = tuple(_named(f"row {i}", _report_row, raw) for i, raw in enumerate(obj["subsystems"]))
    return DiagnosticReport(subsystems=rows, entropy_normalization=normalization)


def read_report(path: str | Path) -> DiagnosticReport:
    return _named(f"{path}: report", report_from_obj, read_json(path))


# ---------------------------------------------------------------------------
# chains and scans


def chain_to_obj(solution: ChainSolution, weight: float) -> dict:
    return {
        **_record_obj(solution),
        "format": CHAIN_FORMAT,
        "length": len(solution.qubits),
        "version": FORMAT_VERSION,
        "weight": weight,
    }


#: Target pair and archived (candidate, entropy) values of a non-local scan.
NonlocalValues = tuple[tuple[int, int], list[tuple[tuple[int, int], float]]]


def nonlocal_values_from_obj(obj: dict, layout: DeviceLayout | None = None) -> NonlocalValues:
    """Target and values, with the pair checks of the live scan (see ``report.as_pairs``);
    a candidate that shares a qubit with the target, or couples to it in ``layout``, is rejected."""
    [target] = as_pairs([obj["target"]], "target")
    rows = [_named(f"row {i}", lambda row: (row["candidate"], _number(row["s_ij"], "s_ij")), raw)
            for i, raw in enumerate(obj["pairs"])]
    pairs = as_pairs([candidate for candidate, _ in rows], "row")
    for index, pair in enumerate(pairs):
        if set(pair) & set(target):
            raise SubsystemError(f"row {index}: candidate {pair} shares a qubit with "
                                 f"target {target}")
        if layout is not None and layout.edges_between(target, pair):
            raise SubsystemError(f"row {index}: candidate {pair} couples to target {target}")
    return target, [(pair, s_ij) for pair, (_, s_ij) in zip(pairs, rows)]


def read_nonlocal_values(path: str | Path, layout: DeviceLayout | None = None) -> NonlocalValues:
    values = read_json(path)
    return _named(f"{path}: values", lambda obj: nonlocal_values_from_obj(obj, layout), values)


def scan_to_obj(results: Sequence[NonlocalResult]) -> dict:
    rows = [_record_obj(result) for result in results]
    return {"format": NONLOCAL_FORMAT, "results": rows, "version": FORMAT_VERSION}


def study_to_obj(rows: list[dict]) -> dict:
    """The ``perturb-study`` file: the rows of ``study.perturbation_study``."""
    return {"format": STUDY_FORMAT, "rows": rows, "version": FORMAT_VERSION}


# ---------------------------------------------------------------------------
# layouts


def layout_to_obj(layout: DeviceLayout) -> dict:
    return {"edges": [list(e) for e in layout.edges], "num_qubits": layout.num_qubits}


def layout_from_obj(obj: dict) -> DeviceLayout:
    return DeviceLayout(obj["num_qubits"], obj["edges"])


def read_layout(path: str | Path) -> DeviceLayout:
    return _named(f"{path}: layout", layout_from_obj, read_json(path))


# ---------------------------------------------------------------------------
# circuits and subsystem specs


def circuit_from_obj(obj: dict) -> Circuit:
    """Build a circuit from its JSON description.

    Either a layered ansatz (``kind: efficient_su2`` with explicit ``params``
    or a ``param_seed``) or an explicit gate list (``kind: gates``).
    """
    from .simulator import Circuit, Gate, build_efficient_su2, random_su2_params

    def gate(raw: dict) -> Gate:
        angle = raw.get("angle")
        return Gate(raw["kind"], raw["target"], raw.get("control"),
                    None if angle is None else _number(angle, "angle"))

    kind = obj.get("kind")
    if kind == "efficient_su2":
        n, reps = obj["n_qubits"], obj["reps"]
        if "params" in obj:
            params = [_number(p, f"param {i}") for i, p in enumerate(obj["params"])]
        elif "param_seed" in obj:
            params = random_su2_params(n, reps, obj["param_seed"])
        else:
            raise ConfigError("efficient_su2 circuit needs 'params' or 'param_seed'")
        return build_efficient_su2(n, reps, params)
    if kind == "gates":
        gates = [_named(f"gate {i}", gate, raw) for i, raw in enumerate(obj["gates"])]
        return Circuit(obj["n_qubits"], tuple(gates))
    raise ConfigError(f"unknown circuit kind {kind!r}")


def read_circuit(path: str | Path) -> Circuit:
    return _named(f"{path}: circuit", circuit_from_obj, read_json(path))


#: Subsystem specs and the reference circuits given inline for some of them.
Subsystems = tuple[list[SubsystemSpec], dict[tuple[int, ...], "Circuit"]]


def _subsystem(raw: dict) -> tuple[SubsystemSpec, Circuit | None]:
    spec, reference = SubsystemSpec(raw["kind"], raw["qubits"]), raw.get("reference")
    return spec, None if reference is None else _named("reference", circuit_from_obj, reference)


def subsystems_from_obj(obj: dict) -> Subsystems:
    """Parse subsystem specs plus any inline reference circuits."""
    rows = [_named(f"subsystem {i}", _subsystem, raw) for i, raw in enumerate(obj["subsystems"])]
    specs = [spec for spec, _ in rows]
    return specs, {spec.qubits: circuit for spec, circuit in rows if circuit is not None}


def read_subsystems(path: str | Path) -> Subsystems:
    return _named(f"{path}: subsystems", subsystems_from_obj, read_json(path))
