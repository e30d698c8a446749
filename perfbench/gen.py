"""Workload generator: builds every benchmark input from a seed, with NumPy only.

It does not import ``zecs``.  The device stream is sampled from exact
block-product states: each bundled Brisbane pair holds a seeded 2-qubit
``efficient_su2`` state (reps 1), idle qubits hold |0>, and one 4-qubit block
across (19, 20) + (3, 2) holds a state whose cut carries exactly one bit of
entanglement.  Each block is Born-sampled exactly per basis string.

Conventions match the program's file formats: qubit 0 is the most significant
bit of a block index, basis letters are X, Y, Z, and files are canonical JSON
(sorted keys, no spaces) so their sha256 identifies the bytes the program ran.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

N_SNAPSHOTS = 6000
N_QUBITS = 127
TARGET = (19, 20)
PLANTED = (3, 2)
ROUTE_LENGTH = 40

WIDE_QUBITS = 12
WIDE_REPS = 2
WIDE_SIZES = (6, 6, 5)

STUDY_SIGMAS = "0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5"
STUDY_TRIALS = 100
#: Study seeds that have a golden output in ``golden/``; a run uses ``seed % STUDY_GOLDEN_SEEDS``.
STUDY_GOLDEN_SEEDS = 8

#: (length, weight) of the chain searches on the bundled report.
ROUTE_CASES = ((40, 0.0), (40, 0.5), (40, 1.0), (40, 2.0), (20, 1.0))

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
_SDG = np.array([[1, 0], [0, -1j]], dtype=complex)
#: Rotation before a computational-basis measurement, indexed by basis 0, 1, 2 = X, Y, Z.
MEASURE_ROTATIONS = (_H, _H @ _SDG, np.eye(2, dtype=complex))


def canonical(obj) -> str:
    """Canonical JSON text as the program writes it (floats at 17 digits)."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        text = "%.17g" % obj
        return text + ".0" if "." not in text and "e" not in text else text
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in obj) + "]"
    return "{" + ",".join(f"{json.dumps(k)}:{canonical(obj[k])}" for k in sorted(obj)) + "}"


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# small exact state-vector simulator


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def su2_gates(n: int, params, reps: int = 1) -> list[dict]:
    """Gate list of the ``efficient_su2`` ansatz: per rep RY, RZ, CNOT ladder, RY, RZ."""
    it = iter(float(p) for p in params)
    gates = []
    for _ in range(reps):
        for kind in ("ry", "rz"):
            gates += [{"kind": kind, "target": q, "angle": next(it)} for q in range(n)]
        gates += [{"kind": "cnot", "control": q, "target": q + 1} for q in range(n - 1)]
        for kind in ("ry", "rz"):
            gates += [{"kind": kind, "target": q, "angle": next(it)} for q in range(n)]
    return gates


def su2_params(n: int, reps: int, seed: int) -> np.ndarray:
    """Ansatz angles the program draws for ``--param-seed``: uniform on [0, pi/2]."""
    return np.random.default_rng(seed).uniform(0.0, math.pi / 2.0, size=4 * reps * n)


def apply_gates(n: int, gates: list[dict]) -> np.ndarray:
    """State vector of ``gates`` applied to |0...0>; qubit 0 is the most significant bit."""
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    index = np.arange(2**n)
    for g in gates:
        if g["kind"] == "cnot":
            control = (index >> (n - 1 - g["control"])) & 1
            psi = psi[np.where(control == 1, index ^ (1 << (n - 1 - g["target"])), index)]
        else:
            u = (_ry if g["kind"] == "ry" else _rz)(g["angle"])
            q = g["target"]
            psi = np.einsum("ab,ibj->iaj", u, psi.reshape(2**q, 2, -1)).reshape(-1)
    return psi


def planted_gates(pair_a_params, pair_b_params) -> list[dict]:
    """Bell pair across local qubits 1 and 2, then each pair's own circuit on its side.

    The pair circuits act on {0, 1} and {2, 3} only, so the (0,1)|(2,3) cut
    keeps exactly one bit of entanglement whatever the angles.
    """
    gates = [{"kind": "ry", "target": 1, "angle": math.pi / 2.0},
             {"kind": "cnot", "control": 1, "target": 2}]
    gates += su2_gates(2, pair_a_params)
    for g in su2_gates(2, pair_b_params):
        shifted = dict(g, target=g["target"] + 2)
        if "control" in g:
            shifted["control"] = g["control"] + 2
        gates.append(shifted)
    return gates


def _born_cdfs(psi: np.ndarray, k: int) -> np.ndarray:
    """Outcome CDFs of a k-qubit block for every basis string, indexed base-3."""
    cdfs = np.empty((3**k, 2**k))
    for code in range(3**k):
        digits = [(code // 3 ** (k - 1 - j)) % 3 for j in range(k)]
        u = np.eye(1, dtype=complex)
        for d in digits:
            u = np.kron(u, MEASURE_ROTATIONS[d])
        probs = np.abs(u @ psi) ** 2
        cdfs[code] = np.cumsum(probs / probs.sum())
    return cdfs


# ---------------------------------------------------------------------------
# device workload


def bundled(data_dir: Path) -> tuple[list[dict], list[tuple[int, int]]]:
    """The 143 bundled report rows and the 51 scan candidates of the (19, 20) scan."""
    report = json.loads((data_dir / "brisbane_report.json").read_text())
    scan = json.loads((data_dir / "brisbane_nonlocal_19_20.json").read_text())
    rows = [{"kind": r["kind"], "qubits": list(r["qubits"])} for r in report["subsystems"]]
    candidates = [tuple(p["candidate"]) for p in scan["pairs"]]
    return rows, candidates


def device_blocks(seed: int, data_dir: Path) -> dict:
    """Circuits and exact states of every block; deterministic in ``seed``."""
    rows, candidates = bundled(data_dir)
    rng = np.random.default_rng([seed, 1])
    pairs = [tuple(r["qubits"]) for r in rows if r["kind"] == "pair"]
    params = {p: rng.uniform(0.0, math.pi / 2.0, size=8).tolist() for p in pairs}
    blocks = []
    for p in pairs:
        if p in (TARGET, PLANTED):
            continue
        gates = su2_gates(2, params[p])
        blocks.append({"qubits": list(p), "gates": gates, "state": apply_gates(2, gates)})
    gates = planted_gates(params[TARGET], params[PLANTED])
    blocks.append({"qubits": list(TARGET + PLANTED), "gates": gates,
                   "state": apply_gates(4, gates)})
    return {"rows": rows, "candidates": candidates, "params": params, "blocks": blocks}


def sample_stream(blocks: list[dict], seed: int, n_records: int = N_SNAPSHOTS,
                  n_qubits: int = N_QUBITS) -> tuple[np.ndarray, np.ndarray]:
    """Uniform random bases and exact Born outcomes, as uint8 arrays [record, qubit]."""
    rng = np.random.default_rng([seed, 2])
    bases = rng.integers(0, 3, size=(n_records, n_qubits)).astype(np.uint8)
    bits = np.zeros((n_records, n_qubits), dtype=np.uint8)
    covered = set()
    for block in blocks:
        qubits = block["qubits"]
        covered.update(qubits)
        k = len(qubits)
        cdfs = _born_cdfs(block["state"], k)
        code = np.zeros(n_records, dtype=np.int64)
        for q in qubits:
            code = 3 * code + bases[:, q]
        draws = rng.random(n_records)
        outcome = (draws[:, None] >= cdfs[code]).sum(axis=1).clip(max=2**k - 1)
        for j, q in enumerate(qubits):
            bits[:, q] = (outcome >> (k - 1 - j)) & 1
    # Idle qubits are in |0>: a Z measurement reads 0, X and Y read a fair coin.
    for q in range(n_qubits):
        if q in covered:
            continue
        coin = rng.integers(0, 2, size=n_records).astype(np.uint8)
        bits[:, q] = np.where(bases[:, q] == 2, 0, coin)
    return bases, bits


def write_stream(path: Path, bases: np.ndarray, bits: np.ndarray, circuit_id: str) -> None:
    n = bases.shape[1]
    letters = np.frombuffer(b"XYZ", dtype=np.uint8)[bases]
    digits = (bits + ord("0")).astype(np.uint8)
    header = {"endianness": "q0-leftmost", "format": "zecs-snapshots",
              "n_qubits": n, "version": 1}
    lines = [canonical(header)]
    tail = json.dumps(circuit_id)
    for b, o in zip(letters, digits):
        lines.append(f'{{"bases":"{b.tobytes().decode()}","bits":"{o.tobytes().decode()}",'
                     f'"circuit_id":{tail}}}')
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def make_device(seed: int, data_dir: Path, out_dir: Path) -> dict:
    """Write the device stream and subsystem list; return their paths, sha256s and blocks."""
    out_dir.mkdir(parents=True, exist_ok=True)
    dev = device_blocks(seed, data_dir)
    bases, bits = sample_stream(dev["blocks"], seed)
    stream = out_dir / "device_stream.jsonl"
    write_stream(stream, bases, bits, f"brisbane-synth-{seed}")

    subsystems = []
    for row in dev["rows"]:
        entry = dict(row)
        if row["kind"] == "pair":
            entry["reference"] = {"kind": "efficient_su2", "n_qubits": 2, "reps": 1,
                                  "params": dev["params"][tuple(row["qubits"])]}
        subsystems.append(entry)
    subsystems_path = out_dir / "device_subsystems.json"
    subsystems_path.write_text(canonical({"subsystems": subsystems}) + "\n")

    files = {"stream": stream, "subsystems": subsystems_path}
    return {
        "files": files,
        "sha256": {name: sha256_file(p) for name, p in files.items()},
        "device": dev,
    }


def make_wide(seed: int) -> dict:
    """Arguments of the 12-qubit simulate step and the three wide subsystems."""
    rng = np.random.default_rng([seed, 3])
    subsets = [sorted(int(q) for q in rng.choice(WIDE_QUBITS, size=k, replace=False))
               for k in WIDE_SIZES]
    return {
        "param_seed": int(rng.integers(0, 2**31)),
        "sample_seed": int(rng.integers(0, 2**31)),
        "subsets": subsets,
    }

