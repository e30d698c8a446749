"""File formats: canonical JSON, snapshot streams, reports, chains, scans, studies.

All files are emitted in a canonical form (sorted keys, floats at 17
significant digits, newline-terminated) so identical inputs produce
byte-identical outputs and golden tests can compare raw bytes.

Snapshot streams are JSON lines with an optional header line; the header
pins the qubit count and the bit-string endianness.  The internal
convention is ``q0-leftmost`` (qubit 0 is the leftmost character and the
most significant bit).  ``write_snapshots`` writes ``SnapshotRecord`` lists;
``read_snapshots`` returns the stream's code matrix, encoded by
``shadow.encode_rows``, and reads ``q0-rightmost`` input as a column flip.
A stream comes from one circuit: ``write_snapshots`` takes its
``circuit_id`` once and writes it on every record line, and
``read_snapshots`` never reads it.

The report, scan and chain objects come from their record dataclasses
(``report.SubsystemDiagnostics``, ``report.NonlocalResult``,
``routing.ChainSolution``): one key per field, so a field is declared once,
in its record.  ``simulate`` writes its stream with ``write_snapshots``; every
other command writes its file as ``write_canonical(path, <kind>_to_obj(...))``.

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


def _read_text(path: str | Path, error: type[ZecsError]) -> str:
    """The file's text; a file that cannot be read as UTF-8 raises ``error`` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise error(f"{path}: cannot read file ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: byte {exc.start}: not UTF-8 text") from None


def read_json(path: str | Path):
    try:
        return json.loads(_read_text(path, ConfigError))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: invalid JSON ({exc.msg})") from None


def _read_object(path: str | Path, from_obj, what: str):
    """Parse a JSON object file with ``from_obj``; any malformed content names the file."""
    obj = read_json(path)
    try:
        if not isinstance(obj, dict):
            raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
        return from_obj(obj)
    except KeyError as exc:
        raise ConfigError(f"{path}: {what}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError, ZecsError) as exc:
        raise ConfigError(f"{path}: {what}: {exc}") from None


# ---------------------------------------------------------------------------
# snapshot streams


def snapshot_header(n_qubits: int, endianness: str = Q0_LEFTMOST) -> dict:
    return {
        "endianness": endianness,
        "format": SNAPSHOT_FORMAT,
        "n_qubits": n_qubits,
        "version": FORMAT_VERSION,
    }


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
    is formatted from one template that holds the canonical JSON of
    ``circuit_id``: a record's ``bases`` and ``bits`` hold only ``XYZ`` and
    ``01``, which JSON writes unescaped, so each line equals
    ``canonical_dumps`` of the record's object.
    """
    if endianness not in (Q0_LEFTMOST, Q0_RIGHTMOST):
        raise ConfigError(f"unknown endianness {endianness!r}")
    step = 1 if endianness == Q0_LEFTMOST else -1
    line = ('{"bases":"%s","bits":"%s","circuit_id":'
            + _canonical(circuit_id).replace("%", "%%") + "}\n")
    lines = [canonical_dumps(snapshot_header(n_qubits, endianness))]
    for record in records:
        if record.n_qubits != n_qubits:
            raise RecordError(
                f"record width {record.n_qubits} does not match header n_qubits {n_qubits}"
            )
        lines.append(line % (record.bases[::step], record.bits[::step]))
    _write_text(path, "".join(lines))


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
    """
    from .shadow import encode_rows

    if endianness not in (None, Q0_LEFTMOST, Q0_RIGHTMOST):
        raise ConfigError(f"unknown endianness {endianness!r}")
    text = _read_text(path, RecordError)
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
            if not isinstance(obj, dict):
                raise RecordError("expected an object")
            if "format" in obj:
                if n_qubits is not None:
                    raise RecordError("a header must be the first non-blank line")
                if obj.get("format") != SNAPSHOT_FORMAT:
                    raise RecordError(f"unknown format {obj.get('format')!r}")
                if obj.get("version") != FORMAT_VERSION:
                    raise RecordError(f"unsupported version {obj.get('version')!r}")
                width = obj.get("n_qubits")
                if type(width) is not int or width < 1:
                    raise RecordError(f"header n_qubits must be a positive integer, got {width!r}")
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
    if file_endianness == Q0_RIGHTMOST:
        codes = codes[:, ::-1]
    return codes, n_qubits


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


def _number(value, what: str) -> float:
    """A finite JSON number: not a boolean, string, null, ``NaN``, ``Infinity`` or ``1e400``."""
    if type(value) is bool or not isinstance(value, (int, float)):
        raise TypeError(f"{what} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return float(value)


def _integer(value, what: str) -> int:
    """A JSON integer from an input file: not a boolean, string or fraction."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def _spec_from_obj(raw, where: str) -> SubsystemSpec:
    """The ``SubsystemSpec`` of a report or subsystems-file row, which ``where`` names."""
    if not isinstance(raw, dict):
        raise TypeError(f"{where} is not an object")
    if type(raw["kind"]) is not str:
        raise TypeError(f"{where}: kind must be a string, got {raw['kind']!r}")
    return SubsystemSpec(raw["kind"], tuple(_integer(q, f"{where}: qubit") for q in raw["qubits"]))


#: The optional number fields of a report row, read from its annotations.
_REPORT_NUMBERS = tuple(f.name for f in fields(SubsystemDiagnostics) if f.type == "float | None")


def report_from_obj(obj: dict) -> DiagnosticReport:
    if obj.get("format") != REPORT_FORMAT:
        raise ConfigError(f"not a report file (format {obj.get('format')!r})")
    if obj.get("version") != FORMAT_VERSION:
        raise ConfigError(f"unsupported version {obj.get('version')!r}")
    normalization = obj.get("entropy_normalization", "per-kind")
    if normalization not in ENTROPY_NORMALIZATIONS:
        raise ConfigError(
            f"entropy_normalization must be one of {ENTROPY_NORMALIZATIONS}, got {normalization!r}"
        )
    rows = []
    for index, raw in enumerate(obj["subsystems"]):
        spec, flag = _spec_from_obj(raw, f"row {index}"), raw.get("degenerate_flag")
        if flag is not None and type(flag) is not bool:
            raise TypeError(f"row {index}: degenerate_flag must be a boolean or null, got {flag!r}")
        numbers = {
            key: None if raw.get(key) is None else _number(raw[key], f"row {index}: {key}")
            for key in _REPORT_NUMBERS
        }
        rows.append(SubsystemDiagnostics(spec.kind, spec.qubits, degenerate_flag=flag, **numbers))
    return DiagnosticReport(subsystems=tuple(rows), entropy_normalization=normalization)


def read_report(path: str | Path) -> DiagnosticReport:
    return _read_object(path, report_from_obj, "report")


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
    [target] = as_pairs([[_integer(q, "target qubit") for q in obj["target"]]], "target")
    candidates, entropies = [], []
    for index, row in enumerate(obj["pairs"]):
        entropies.append(_number(row["s_ij"], f"row {index}: s_ij"))
        candidates.append([_integer(q, f"row {index}: candidate qubit") for q in row["candidate"]])
    pairs = as_pairs(candidates, "candidate")
    for index, pair in enumerate(pairs):
        if set(pair) & set(target):
            raise SubsystemError(f"row {index}: candidate {pair} shares a qubit with "
                                 f"target {target}")
        if layout is not None and layout.edges_between(target, pair):
            raise SubsystemError(f"row {index}: candidate {pair} couples to target {target}")
    return target, list(zip(pairs, entropies))


def read_nonlocal_values(path: str | Path, layout: DeviceLayout | None = None) -> NonlocalValues:
    return _read_object(path, lambda obj: nonlocal_values_from_obj(obj, layout), "values")


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
    edges = [tuple(_integer(q, f"edge {i}: qubit") for q in e) for i, e in enumerate(obj["edges"])]
    return DeviceLayout(_integer(obj["num_qubits"], "num_qubits"), tuple(edges))


def read_layout(path: str | Path) -> DeviceLayout:
    return _read_object(path, layout_from_obj, "layout")


# ---------------------------------------------------------------------------
# circuits and subsystem specs


def circuit_from_obj(obj: dict) -> Circuit:
    """Build a circuit from its JSON description.

    Either a layered ansatz (``kind: efficient_su2`` with explicit ``params``
    or a ``param_seed``) or an explicit gate list (``kind: gates``).
    """
    from .simulator import Circuit, Gate, build_efficient_su2, random_su2_params

    kind = obj.get("kind")
    if kind == "efficient_su2":
        n = _integer(obj["n_qubits"], "n_qubits")
        reps = _integer(obj["reps"], "reps")
        if "params" in obj:
            params = [_number(p, f"param {i}") for i, p in enumerate(obj["params"])]
        elif "param_seed" in obj:
            params = random_su2_params(n, reps, _integer(obj["param_seed"], "param_seed"))
        else:
            raise ConfigError("efficient_su2 circuit needs 'params' or 'param_seed'")
        return build_efficient_su2(n, reps, params)
    if kind == "gates":
        gates = []
        for i, raw in enumerate(obj["gates"]):
            if not isinstance(raw, dict):
                raise TypeError(f"gate {i} is not an object")
            control, angle = raw.get("control"), raw.get("angle")
            gates.append(
                Gate(
                    kind=str(raw["kind"]),
                    target=_integer(raw["target"], f"gate {i}: target"),
                    control=None if control is None else _integer(control, f"gate {i}: control"),
                    angle=None if angle is None else _number(angle, f"gate {i}: angle"),
                )
            )
        return Circuit(_integer(obj["n_qubits"], "n_qubits"), tuple(gates))
    raise ConfigError(f"unknown circuit kind {kind!r}")


def read_circuit(path: str | Path) -> Circuit:
    return _read_object(path, circuit_from_obj, "circuit")


#: Subsystem specs and the reference circuits given inline for some of them.
Subsystems = tuple[list[SubsystemSpec], dict[tuple[int, ...], "Circuit"]]


def subsystems_from_obj(obj: dict) -> Subsystems:
    """Parse subsystem specs plus any inline reference circuits."""
    specs = []
    references: dict[tuple[int, ...], Circuit] = {}
    for index, raw in enumerate(obj["subsystems"]):
        spec = _spec_from_obj(raw, f"subsystem {index}")
        specs.append(spec)
        reference = raw.get("reference")
        if reference is not None:
            if not isinstance(reference, dict):
                raise TypeError(f"reference of {spec.qubits} is not an object")
            references[spec.qubits] = circuit_from_obj(reference)
    return specs, references


def read_subsystems(path: str | Path) -> Subsystems:
    return _read_object(path, subsystems_from_obj, "subsystems")
