"""File formats: canonical JSON, snapshot streams, reports, chains, scans.

All files are emitted in a canonical form (sorted keys, floats at 17
significant digits, newline-terminated) so identical inputs produce
byte-identical outputs and golden tests can compare raw bytes.

Snapshot streams are JSON lines with an optional header line; the header
pins the qubit count and the bit-string endianness.  The internal
convention is ``q0-leftmost`` (qubit 0 is the leftmost character and the
most significant bit); ``q0-rightmost`` input is reversed on ingestion.

Reports, layouts, chains, scans and canonical JSON need no NumPy, so the
``route`` command loads none; ``read_snapshots`` and ``circuit_from_obj``
import the ``simulator`` layer when they build records and circuits.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import ConfigError, RecordError, ZecsError
from .layout import DeviceLayout
from .report import DiagnosticReport, NonlocalResult, SubsystemDiagnostics, SubsystemSpec
from .routing import ChainSolution

if TYPE_CHECKING:
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
    Path(path).write_text(canonical_dumps(obj), encoding="ascii")


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


def _reverse_record(record: SnapshotRecord) -> SnapshotRecord:
    return replace(record, bases=record.bases[::-1], bits=record.bits[::-1])


def write_snapshots(
    path: str | Path,
    records: Iterable[SnapshotRecord],
    n_qubits: int,
    endianness: str = Q0_LEFTMOST,
) -> None:
    """Write a header line and one record per line.

    Records are held internally as ``q0-leftmost``; asking for
    ``q0-rightmost`` reverses the strings on the way out.
    """
    if endianness not in (Q0_LEFTMOST, Q0_RIGHTMOST):
        raise ConfigError(f"unknown endianness {endianness!r}")
    lines = [canonical_dumps(snapshot_header(n_qubits, endianness))]
    for record in records:
        if record.n_qubits != n_qubits:
            raise RecordError(
                f"record width {record.n_qubits} does not match header n_qubits {n_qubits}"
            )
        out = record if endianness == Q0_LEFTMOST else _reverse_record(record)
        lines.append(
            canonical_dumps(
                {"bases": out.bases, "bits": out.bits, "circuit_id": out.circuit_id}
            )
        )
    Path(path).write_text("".join(lines), encoding="ascii")


def read_snapshots(
    path: str | Path, endianness: str | None = None
) -> tuple[list[SnapshotRecord], int]:
    """Parse a snapshot stream, returning internal-convention records.

    Malformed lines are rejected with their line number; nothing is returned
    from a partially valid file.  A header may only be the first non-blank
    line.  ``endianness`` overrides the header (and is required context for
    headerless files from other tools).
    """
    from .simulator import SnapshotRecord

    text = _read_text(path, RecordError)
    records: list[SnapshotRecord] = []
    file_endianness = endianness
    n_qubits: int | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RecordError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from None
        if not isinstance(obj, dict):
            raise RecordError(f"{path}: line {lineno}: expected an object")
        if "format" in obj:
            if n_qubits is not None:
                raise RecordError(f"{path}: line {lineno}: a header must be the first non-blank line")
            if obj.get("format") != SNAPSHOT_FORMAT:
                raise RecordError(f"{path}: line {lineno}: unknown format {obj.get('format')!r}")
            if obj.get("version") != FORMAT_VERSION:
                raise RecordError(f"{path}: line {lineno}: unsupported version {obj.get('version')!r}")
            n_qubits = obj.get("n_qubits")
            if type(n_qubits) is not int or n_qubits < 1:
                raise RecordError(
                    f"{path}: line {lineno}: header n_qubits must be a positive integer, "
                    f"got {n_qubits!r}"
                )
            if file_endianness is None:
                declared = obj.get("endianness", Q0_LEFTMOST)
                if declared not in (Q0_LEFTMOST, Q0_RIGHTMOST):
                    raise RecordError(f"{path}: line {lineno}: unknown endianness {declared!r}")
                file_endianness = declared
            continue
        try:
            record = SnapshotRecord(
                bases=str(obj["bases"]),
                bits=str(obj["bits"]),
                circuit_id=str(obj.get("circuit_id", "")),
            )
        except KeyError as exc:
            raise RecordError(f"{path}: line {lineno}: missing field {exc.args[0]!r}") from None
        except RecordError as exc:
            raise RecordError(f"{path}: line {lineno}: {exc}") from None
        if n_qubits is None:
            n_qubits = record.n_qubits
        elif record.n_qubits != n_qubits:
            raise RecordError(
                f"{path}: line {lineno}: record width {record.n_qubits} != expected {n_qubits}"
            )
        if (file_endianness or Q0_LEFTMOST) == Q0_RIGHTMOST:
            record = _reverse_record(record)
        records.append(record)
    if n_qubits is None:
        raise RecordError(f"{path}: no header and no records")
    return records, n_qubits


# ---------------------------------------------------------------------------
# diagnostic reports


def report_to_obj(report: DiagnosticReport) -> dict:
    rows = []
    for row in report.subsystems:
        rows.append(
            {
                "clamp_magnitude": row.clamp_magnitude,
                "degenerate_flag": row.degenerate_flag,
                "infidelity_cs": row.infidelity_cs,
                "infidelity_zecs": row.infidelity_zecs,
                "kind": row.kind,
                "qubits": list(row.qubits),
                "s_ab": row.s_ab,
                "s_ab_normalized": row.s_ab_normalized,
                "trace_distance": row.trace_distance,
            }
        )
    return {
        "entropy_normalization": report.entropy_normalization,
        "format": REPORT_FORMAT,
        "subsystems": rows,
        "version": FORMAT_VERSION,
    }


def _require_finite(value: float, what: str) -> None:
    """Reject NaN and infinities (JSON ``NaN``, ``Infinity``, ``1e400``) in an input file."""
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {value!r}")


_REPORT_NUMBERS = (
    "infidelity_cs",
    "infidelity_zecs",
    "trace_distance",
    "s_ab",
    "s_ab_normalized",
    "clamp_magnitude",
)


def report_from_obj(obj: dict) -> DiagnosticReport:
    if obj.get("format") != REPORT_FORMAT:
        raise ConfigError(f"not a report file (format {obj.get('format')!r})")
    rows = []
    for index, raw in enumerate(obj["subsystems"]):
        if not isinstance(raw, dict):
            raise TypeError(f"row {index} is not an object")
        numbers = {key: raw.get(key) for key in _REPORT_NUMBERS}
        for key, value in numbers.items():
            if value is None:
                continue
            if type(value) is bool or not isinstance(value, (int, float)):
                raise TypeError(f"row {index}: {key} must be a number or null, got {value!r}")
            _require_finite(value, f"row {index}: {key}")
        spec = SubsystemSpec(kind=raw["kind"], qubits=tuple(raw["qubits"]))
        rows.append(
            SubsystemDiagnostics(
                kind=spec.kind,
                qubits=spec.qubits,
                degenerate_flag=raw.get("degenerate_flag"),
                **numbers,
            )
        )
    return DiagnosticReport(
        subsystems=tuple(rows),
        entropy_normalization=obj.get("entropy_normalization", "per-kind"),
    )


def write_report(path: str | Path, report: DiagnosticReport) -> None:
    write_canonical(path, report_to_obj(report))


def read_report(path: str | Path) -> DiagnosticReport:
    return _read_object(path, report_from_obj, "report")


# ---------------------------------------------------------------------------
# chains and scans


def chain_to_obj(solution: ChainSolution, weight: float) -> dict:
    return {
        "approximate": solution.approximate,
        "cost": solution.cost,
        "format": CHAIN_FORMAT,
        "length": len(solution.qubits),
        "mean_entropy": solution.mean_entropy,
        "mean_fidelity": solution.mean_fidelity,
        "qubits": list(solution.qubits),
        "version": FORMAT_VERSION,
        "weight": weight,
    }


def write_chain(path: str | Path, solution: ChainSolution, weight: float) -> None:
    write_canonical(path, chain_to_obj(solution, weight))


#: Target pair and archived (candidate, entropy) values of a non-local scan.
NonlocalValues = tuple[tuple[int, ...], list[tuple[tuple[int, ...], float]]]


def nonlocal_values_from_obj(obj: dict) -> NonlocalValues:
    target = tuple(int(q) for q in obj["target"])
    values = []
    for index, row in enumerate(obj["pairs"]):
        s_ij = float(row["s_ij"])
        _require_finite(s_ij, f"row {index}: s_ij")
        values.append((tuple(int(q) for q in row["candidate"]), s_ij))
    return target, values


def read_nonlocal_values(path: str | Path) -> NonlocalValues:
    return _read_object(path, nonlocal_values_from_obj, "values")


def scan_to_obj(results: Sequence[NonlocalResult]) -> dict:
    rows = []
    for r in results:
        rows.append(
            {
                "candidate": list(r.candidate),
                "flagged": r.flagged,
                "highest": r.highest,
                "s_ij": r.s_ij,
                "target": list(r.target),
                "zscore": r.zscore,
            }
        )
    return {"format": NONLOCAL_FORMAT, "results": rows, "version": FORMAT_VERSION}


# ---------------------------------------------------------------------------
# layouts


def layout_to_obj(layout: DeviceLayout) -> dict:
    return {"edges": [list(e) for e in layout.edges], "num_qubits": layout.num_qubits}


def layout_from_obj(obj: dict) -> DeviceLayout:
    return DeviceLayout(
        num_qubits=int(obj["num_qubits"]),
        edges=tuple((int(a), int(b)) for a, b in obj["edges"]),
    )


def write_layout(path: str | Path, layout: DeviceLayout) -> None:
    write_canonical(path, layout_to_obj(layout))


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
        n = int(obj["n_qubits"])
        reps = int(obj["reps"])
        if "params" in obj:
            params = [float(p) for p in obj["params"]]
        elif "param_seed" in obj:
            params = random_su2_params(n, reps, int(obj["param_seed"]))
        else:
            raise ConfigError("efficient_su2 circuit needs 'params' or 'param_seed'")
        return build_efficient_su2(n, reps, params)
    if kind == "gates":
        gates = []
        for raw in obj["gates"]:
            gates.append(
                Gate(
                    kind=str(raw["kind"]),
                    target=int(raw["target"]),
                    control=int(raw["control"]) if raw.get("control") is not None else None,
                    angle=float(raw["angle"]) if raw.get("angle") is not None else None,
                )
            )
        return Circuit(int(obj["n_qubits"]), tuple(gates))
    raise ConfigError(f"unknown circuit kind {kind!r}")


def read_circuit(path: str | Path) -> Circuit:
    return _read_object(path, circuit_from_obj, "circuit")


#: Subsystem specs and the reference circuits given inline for some of them.
Subsystems = tuple[list[SubsystemSpec], dict[tuple[int, ...], "Circuit"]]


def subsystems_from_obj(obj: dict) -> Subsystems:
    """Parse subsystem specs plus any inline reference circuits."""
    specs = []
    references: dict[tuple[int, ...], Circuit] = {}
    for raw in obj["subsystems"]:
        spec = SubsystemSpec(kind=str(raw["kind"]), qubits=tuple(int(q) for q in raw["qubits"]))
        specs.append(spec)
        reference = raw.get("reference")
        if reference is not None:
            if not isinstance(reference, dict):
                raise TypeError(f"reference of {spec.qubits} is not an object")
            references[spec.qubits] = circuit_from_obj(reference)
    return specs, references


def read_subsystems(path: str | Path) -> Subsystems:
    return _read_object(path, subsystems_from_obj, "subsystems")
