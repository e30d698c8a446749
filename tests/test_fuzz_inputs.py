"""Seeded mutation fuzzing of every input reader.

Each input file is mutated a fixed number of times by a stdlib-only mutator:
a field set to a boolean, a fraction, a huge or negative integer, a string, a
list or a null; a key or element deleted; a value nested deeper than the JSON
parser recurses; and, for snapshot streams, a line deleted, duplicated or
blanked out.  Every reader must either succeed or raise a ``ZecsError``.  A few
mutants also run through the command line in a child process, one at a time,
with its address space capped, and must exit 0 or 2.
"""

import copy
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import zecs
from zecs import io
from zecs.errors import ZecsError
from zecs.simulator import SnapshotRecord

BUNDLED = Path(zecs.__file__).resolve().parent / "data"
MUTANTS = 60
SEED = 20240830
DEPTH = 100_000
REPLACEMENTS = [True, False, 0.5, -2.5, 2**64, 10**30, -1, -(2**63) - 1, "x", "", [], [0, 1.5],
                None, {}]
NESTED = "\x00nested\x00"  # stands in for the nested value until the text is written

SUBSYSTEMS = {"subsystems": [
    {"kind": "pair", "qubits": [0, 1]},
    {"kind": "pair_plus_idle", "qubits": [1, 2, 3],
     "reference": {"kind": "efficient_su2", "n_qubits": 3, "reps": 1, "param_seed": 5}},
]}
CIRCUIT = {"kind": "gates", "n_qubits": 3, "gates": [
    {"kind": "ry", "target": 0, "angle": 0.3},
    {"kind": "cnot", "target": 1, "control": 0},
    {"kind": "rz", "target": 2, "angle": -1.25},
    {"kind": "cnot", "target": 2, "control": 1},
]}


def _paths(value, at=()):
    """Every (container path, key) below ``value``, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield at, key
        if isinstance(child, (dict, list)) and child:
            yield from _paths(child, (*at, key))


def mutate_json(doc, rng):
    """The text of ``doc`` with one field replaced, deleted or nested ``DEPTH`` deep."""
    doc = copy.deepcopy(doc)
    op = rng.choice(["set", "set", "delete", "nest"])
    nested = None
    if op == "nest" and rng.random() < 0.2:
        doc, nested = NESTED, doc
    else:
        at, key = rng.choice(list(_paths(doc)))
        parent = doc
        for step in at:
            parent = parent[step]
        if op == "set":
            parent[key] = copy.deepcopy(rng.choice(REPLACEMENTS))
        elif op == "delete":
            del parent[key]
        else:
            nested, parent[key] = parent[key], NESTED
    text = json.dumps(doc)
    return text.replace(json.dumps(NESTED),
                        "[" * DEPTH + json.dumps(nested) + "]" * DEPTH)


def mutate_stream(text, rng):
    """``text`` with one line deleted, duplicated, blanked out or mutated as JSON."""
    lines = text.splitlines(keepends=True)
    index = rng.randrange(len(lines))
    op = rng.choice(["delete", "duplicate", "blank", "json", "json", "json"])
    if op == "delete":
        lines[index:index + 1] = []
    elif op == "duplicate":
        lines[index:index + 1] = [lines[index]] * 2
    elif op == "blank":
        lines[index] = "\n"
    else:
        lines[index] = mutate_json(json.loads(lines[index]), rng) + "\n"
    return "".join(lines)


def stream_text(tmp_path):
    """A ``write_snapshots`` stream of six records on four qubits, written to
    ``tmp_path / "stream.jsonl"``."""
    rng = random.Random(SEED)
    records = [SnapshotRecord("".join(rng.choice("XYZ") for _ in range(4)),
                              "".join(rng.choice("01") for _ in range(4))) for _ in range(6)]
    path = tmp_path / "stream.jsonl"
    io.write_snapshots(path, records, 4, circuit_id="c")
    return path.read_text(encoding="ascii")


#: Input name -> (its seed text given a scratch directory, how it is mutated, its readers).
INPUTS = {
    "report": (lambda tmp: (BUNDLED / "brisbane_report.json").read_text(), "json",
               [io.read_report]),
    "layout": (lambda tmp: (BUNDLED / "heavy_hex_127.json").read_text(), "json",
               [io.read_layout]),
    "values": (lambda tmp: (BUNDLED / "brisbane_nonlocal_19_20.json").read_text(), "json",
               [io.read_nonlocal_values, lambda path: io.read_nonlocal_values(
                   path, io.read_layout(BUNDLED / "heavy_hex_127.json"))]),
    "subsystems": (lambda tmp: json.dumps(SUBSYSTEMS), "json", [io.read_subsystems]),
    "circuit": (lambda tmp: json.dumps(CIRCUIT), "json", [io.read_circuit]),
    "stream": (stream_text, "stream",
               [io.read_snapshots, lambda path: io.read_snapshots(path, io.Q0_RIGHTMOST)]),
}


def mutants(name, tmp_path):
    """The ``MUTANTS`` texts of input ``name``, the same on every run."""
    seed_text, kind, _ = INPUTS[name]
    text = seed_text(tmp_path)
    rng = random.Random(f"{SEED}:{name}")
    for _ in range(MUTANTS):
        yield (mutate_json(json.loads(text), rng) if kind == "json"
               else mutate_stream(text, rng))


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_every_mutant_reads_or_raises_a_zecs_error(tmp_path, name):
    path = tmp_path / f"mutant.{name}"
    for number, text in enumerate(mutants(name, tmp_path)):
        path.write_text(text, encoding="utf-8")
        for read in INPUTS[name][2]:
            try:
                read(path)
            except ZecsError:
                pass
            except Exception as exc:
                pytest.fail(f"{name} mutant {number} ({text[:120]!r}...): "
                            f"{type(exc).__name__}: {exc}"[:400])


#: Command lines of the child cases, ``{mutant}`` standing for the mutated file.
CLI_CASES = {
    "report": ["route", "--report", "{mutant}", "--layout", str(BUNDLED / "heavy_hex_127.json"),
               "--length", "20"],
    "layout": ["route", "--report", str(BUNDLED / "brisbane_report.json"),
               "--layout", "{mutant}", "--length", "20"],
    "values": ["nonlocal", "--values", "{mutant}"],
    "subsystems": ["reconstruct", "--snapshots", "{stream}", "--subsystems", "{mutant}",
                   "--ref-policy", "zero"],
    "circuit": ["simulate", "--circuit", "{mutant}", "--snapshots", "5"],
    "stream": ["reconstruct", "--snapshots", "{mutant}", "--subsystems", "{subsystems}",
               "--ref-policy", "zero"],
}
CHILD = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS,\n"
    "                   (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
    "import zecs.cli\n"
    "sys.exit(zecs.cli.main(sys.argv[1:]))\n"
)


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_a_mutant_through_the_command_line_exits_0_or_2(tmp_path, name):
    """One seeded mutant per input, in a child whose address space is capped at 1 GiB."""
    texts = list(mutants(name, tmp_path))
    mutant = tmp_path / f"mutant.{name}"
    mutant.write_text(random.Random(f"{SEED}:cli:{name}").choice(texts), encoding="utf-8")
    stream_text(tmp_path)
    stream, subsystems = tmp_path / "stream.jsonl", tmp_path / "subsystems.json"
    subsystems.write_text(json.dumps(SUBSYSTEMS), encoding="ascii")
    argv = [arg.format(mutant=mutant, stream=stream, subsystems=subsystems)
            for arg in CLI_CASES[name]]
    src = str(Path(zecs.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    result = subprocess.run([sys.executable, "-c", CHILD, *argv, "--out", str(tmp_path / "out")],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode in (0, 2), result.stderr[-2000:]
    if result.returncode == 2:
        assert result.stderr.startswith("error: "), result.stderr[-2000:]
