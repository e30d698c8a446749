"""Independent NumPy oracle for the program's outputs.

Nothing here imports ``zecs``.  ``rho_cs`` is rebuilt from a histogram of
local (basis, bit) codes contracted with an exact dyadic inverse-channel
table, so every partial sum is exact and only the final division by the
record count rounds.  Projections use ``np.linalg.eigh``, fidelities use the
pure reference vectors, and entropies use the Schmidt coefficients of the
projected vector.  Each ``check_*`` returns a ``Tally`` of the comparisons made,
the failure messages and the largest deviation seen.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

#: Largest deviation of a numeric output from the oracle that still passes.
TOL = 1e-8
#: Golden outputs may move by this much (a change of eigensolver moves the study by ~6e-9).
GOLDEN_TOL = 1e-6
CLAMP_TOL = 1e-10
DEGENERACY_REL_TOL = 1e-6
FLAG_ZSCORE = 2.0

# Inverse-channel factor 3 U†|b><b|U - I for code 2*basis + bit, basis 0, 1, 2 = X, Y, Z.
# Every entry is a multiple of 1/2, so it is exact in binary floating point.
TABLE = np.array([
    [[0.5, 1.5], [1.5, 0.5]],        # X, 0
    [[0.5, -1.5], [-1.5, 0.5]],      # X, 1
    [[0.5, -1.5j], [1.5j, 0.5]],     # Y, 0
    [[0.5, 1.5j], [-1.5j, 0.5]],     # Y, 1
    [[2.0, 0.0], [0.0, -1.0]],       # Z, 0
    [[-1.0, 0.0], [0.0, 2.0]],       # Z, 1
], dtype=complex)


class Stream:
    """A snapshot stream as uint8 arrays ``bases[record, qubit]`` (0, 1, 2 = X, Y, Z) and ``bits``."""

    def __init__(self, bases: np.ndarray, bits: np.ndarray):
        self.bases = bases
        self.bits = bits

    @classmethod
    def read(cls, path: Path) -> "Stream":
        letters = np.full(256, 255, dtype=np.uint8)
        letters[list(b"XYZ")] = (0, 1, 2)
        bases, bits = [], []
        reverse = False
        for line in Path(path).read_text().splitlines():
            obj = json.loads(line)
            if "format" in obj:
                reverse = obj.get("endianness") == "q0-rightmost"
                continue
            bases.append(obj["bases"][::-1] if reverse else obj["bases"])
            bits.append(obj["bits"][::-1] if reverse else obj["bits"])
        n = len(bases[0])
        b = letters[np.frombuffer("".join(bases).encode(), dtype=np.uint8)].reshape(-1, n)
        o = (np.frombuffer("".join(bits).encode(), dtype=np.uint8) - ord("0")).reshape(-1, n)
        return cls(b, o)

    def rho_cs(self, qubits) -> np.ndarray:
        """Mean inverted snapshot on ``qubits``, first qubit most significant."""
        qubits = list(qubits)
        k = len(qubits)
        codes = 2 * self.bases[:, qubits].astype(np.int64) + self.bits[:, qubits]
        flat = np.zeros(codes.shape[0], dtype=np.int64)
        for j in range(k):
            flat = 6 * flat + codes[:, j]
        hist = np.bincount(flat, minlength=6**k).reshape((6,) * k).astype(complex)
        letters = "abcdefghijklmnopqrstuvwxyz"
        c, a, b = letters[:k], letters[k:2 * k], letters[2 * k:3 * k]
        spec = c + "," + ",".join(f"{c[j]}{a[j]}{b[j]}" for j in range(k)) + "->" + a + b
        total = np.einsum(spec, hist, *([TABLE] * k), optimize=True).reshape(2**k, 2**k)
        return total / codes.shape[0]


def projection(rho: np.ndarray) -> dict:
    """Dominant-|eigenvalue| eigenvector and the spectral quantities the program reports."""
    w, v = np.linalg.eigh(rho)
    order = sorted(range(len(w)), key=lambda i: (-abs(w[i]), -w[i], i))
    w, v = w[order], v[:, order]
    spectrum = np.abs(w)
    gap = spectrum[0] - spectrum[1]
    return {
        "vector": v[:, 0],
        "lambda_top": float(w[0]),
        "degenerate": bool(gap < DEGENERACY_REL_TOL * spectrum[0]),
        "clamp_magnitude": float(-w[w < -CLAMP_TOL].sum()),
        "clamped": (v * np.maximum(w, 0.0)) @ v.conj().T,
    }


def schmidt_entropy(vector: np.ndarray, n_a: int) -> float:
    """Base-2 entropy of the first ``n_a`` qubits of a pure state vector."""
    probs = np.linalg.svd(vector.reshape(2**n_a, -1), compute_uv=False) ** 2
    probs = probs / probs.sum()
    probs = probs[probs > 0.0]
    return float(-(probs * np.log2(probs)).sum())


class Tally:
    """Counts checks, collects failure messages and tracks the largest deviation."""

    def __init__(self):
        self.checks = 0
        self.failures: list[str] = []
        self.max_err = 0.0

    def close(self, what: str, got, want, tol: float = TOL) -> None:
        self.checks += 1
        err = float(np.max(np.abs(np.asarray(got, dtype=complex) - np.asarray(want, dtype=complex))))
        self.max_err = max(self.max_err, err)
        if not err <= tol:
            self.failures.append(f"{what}: deviates by {err:.3e} (tol {tol:.0e})")

    def equal(self, what: str, got, want) -> None:
        self.checks += 1
        if got != want:
            self.failures.append(f"{what}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# device: report, scan and chain


def _state(pairs: dict, qubits) -> np.ndarray:
    vec = np.ones(1, dtype=complex)
    for i in range(0, len(qubits), 2):
        chunk = tuple(qubits[i:i + 2])
        vec = np.kron(vec, pairs[chunk] if len(chunk) == 2 else np.array([1.0, 0.0]))
    return vec


def check_report(report: dict, stream: Stream, rows: list[dict], references: dict) -> Tally:
    """Compare every report row with the oracle; ``references`` maps each pair to its ideal vector."""
    tally = Tally()
    got_rows = report["subsystems"]
    tally.equal("report row count", len(got_rows), len(rows))
    entropies: dict[str, list[float]] = {}
    expected = []
    for spec in rows:
        qubits = spec["qubits"]
        rho = stream.rho_cs(qubits)
        proj = projection(rho)
        psi = _state(references, qubits)
        v = proj["vector"]
        diff = np.outer(v, v.conj()) - np.outer(psi, psi.conj())
        s_ab = None if spec["kind"] == "pair" else schmidt_entropy(v, 2)
        if s_ab is not None:
            entropies.setdefault(spec["kind"], []).append(s_ab)
        expected.append({
            "kind": spec["kind"], "qubits": qubits,
            "infidelity_cs": 1.0 - float(np.real(psi.conj() @ proj["clamped"] @ psi)),
            "infidelity_zecs": 1.0 - float(abs(np.vdot(v, psi)) ** 2),
            "trace_distance": float(np.abs(np.linalg.eigvalsh(diff)).sum() / 2.0),
            "s_ab": s_ab,
            "degenerate_flag": proj["degenerate"],
            "clamp_magnitude": proj["clamp_magnitude"],
        })
    for want, got in zip(expected, got_rows):
        where = f"row {want['qubits']}"
        tally.equal(f"{where} kind", got["kind"], want["kind"])
        tally.equal(f"{where} qubits", got["qubits"], want["qubits"])
        tally.equal(f"{where} degenerate_flag", got["degenerate_flag"], want["degenerate_flag"])
        for key in ("infidelity_cs", "infidelity_zecs", "trace_distance", "clamp_magnitude"):
            tally.close(f"{where} {key}", got[key], want[key])
        if want["s_ab"] is None:
            tally.equal(f"{where} s_ab", got["s_ab"], None)
        else:
            tally.close(f"{where} s_ab", got["s_ab"], want["s_ab"])
            peak = max(entropies[want["kind"]])
            tally.close(f"{where} s_ab_normalized", got["s_ab_normalized"], want["s_ab"] / peak)
    return tally


def check_scan(scan: dict, stream: Stream, target, candidates) -> tuple[Tally, dict]:
    """Compare the non-local scan with the oracle; also return the scan's quality signals."""
    tally = Tally()
    values = []
    for cand in candidates:
        proj = projection(stream.rho_cs(list(target) + list(cand)))
        values.append(schmidt_entropy(proj["vector"], 2))
    values = np.array(values)
    z = (values - values.mean()) / values.std()
    got = scan["results"]
    tally.equal("scan row count", len(got), len(candidates))
    for i, (cand, row) in enumerate(zip(candidates, got)):
        where = f"candidate {list(cand)}"
        tally.equal(f"{where} pairing", (row["target"], row["candidate"]), (list(target), list(cand)))
        tally.close(f"{where} s_ij", row["s_ij"], values[i])
        tally.close(f"{where} zscore", row["zscore"], z[i])
        if abs(z[i] - FLAG_ZSCORE) > 1e-6:
            tally.equal(f"{where} flagged", row["flagged"], bool(z[i] >= FLAG_ZSCORE))
        tally.equal(f"{where} highest", row["highest"], i == int(np.argmax(values)))
    return tally, {"values": values, "zscores": z}


def edge_scores(report: dict, layout: dict) -> dict:
    """Per-edge (fidelity, entropy) from report rows, as routing defines them."""
    edges = {tuple(sorted(e)) for e in layout["edges"]}
    fid: dict = {}
    ent: dict = {}
    for row in report["subsystems"]:
        q = row["qubits"]
        if row["kind"] == "pair":
            touched = [e for e in [tuple(sorted(q[:2]))] if e in edges]
        else:
            touched = sorted({tuple(sorted((a, b))) for a in q[:2] for b in q[2:]
                              if tuple(sorted((a, b))) in edges})
        if row["infidelity_zecs"] is not None:
            f = min(1.0, max(0.0, 1.0 - row["infidelity_zecs"]))
            for e in touched:
                fid[e] = min(f, fid.get(e, 1.0))
        if row["s_ab"] is not None and row["kind"] != "pair":
            for e in touched:
                ent[e] = max(row["s_ab"], ent.get(e, 0.0))
    return {e: (f, ent.get(e, 0.0)) for e, f in fid.items()}


def check_chain(chain: dict, report: dict, layout: dict, length: int, weight: float) -> Tally:
    """The chain is an exact, simple, scored path of the asked length with the stated cost."""
    tally = Tally()
    scores = edge_scores(report, layout)
    qubits = chain["qubits"]
    tally.equal("chain approximate", chain["approximate"], False)
    tally.equal("chain length", (len(qubits), chain["length"]), (length, length))
    tally.equal("chain simple", len(set(qubits)), len(qubits))
    path = [tuple(sorted(e)) for e in zip(qubits, qubits[1:])]
    missing = [e for e in path if e not in scores]
    tally.equal("chain edges scored", missing, [])
    if not missing:
        cost = math.fsum((1.0 - scores[e][0]) + weight * scores[e][1] for e in path)
        tally.close("chain cost", chain["cost"], cost)
        tally.close("chain mean_fidelity", chain["mean_fidelity"],
                    math.fsum(scores[e][0] for e in path) / len(path))
    return tally


# ---------------------------------------------------------------------------
# wide subsystems and golden files


def check_wide(result: dict, stream: Stream, subsets) -> Tally:
    tally = Tally()
    tally.equal("wide subsystem count", len(result["subsystems"]), len(subsets))
    for qubits, got in zip(subsets, result["subsystems"]):
        where = f"subsystem {qubits}"
        tally.equal(f"{where} qubits", got["qubits"], qubits)
        rho = stream.rho_cs(qubits)
        proj = projection(rho)
        v = proj["vector"]
        tally.close(f"{where} rho_cs", _complex(got["rho_cs"]), rho)
        tally.close(f"{where} lambda_top", got["lambda_top"], proj["lambda_top"])
        tally.close(f"{where} rho_zecs", _complex(got["rho_zecs"]), np.outer(v, v.conj()))
        tally.close(f"{where} entropy", got["entropy"], schmidt_entropy(v, len(qubits) // 2))
    return tally


def check_sampling(stream: Stream, psi: np.ndarray) -> Tally:
    """Per-qubit Pauli expectations of the stream agree with the exact state.

    For each qubit and basis the mean of (-1)**bit over the records measured
    in that basis estimates <X>, <Y> or <Z>; its standard deviation is at
    most 1/sqrt(count), and the check allows six of them.
    """
    tally = Tally()
    n = stream.bases.shape[1]
    for q in range(n):
        amps = psi.reshape(2**q, 2, -1)
        rho = np.einsum("iaj,ibj->ab", amps, amps.conj())
        exact = (2 * rho[0, 1].real, -2 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real)
        for basis in range(3):
            signs = 1.0 - 2.0 * stream.bits[stream.bases[:, q] == basis, q]
            tally.checks += 1
            if abs(signs.mean() - exact[basis]) > 6.0 / math.sqrt(len(signs)):
                tally.failures.append(
                    f"qubit {q} <{'XYZ'[basis]}>: sampled {signs.mean():.4f}, "
                    f"exact {exact[basis]:.4f}")
    return tally


def _complex(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def check_golden(got, want, where: str = "", tally: Tally | None = None) -> Tally:
    """Structural comparison: equal keys, strings and flags; numbers within ``GOLDEN_TOL``."""
    tally = tally or Tally()
    if isinstance(want, dict) and isinstance(got, dict):
        tally.equal(f"{where} keys", sorted(got), sorted(want))
        for key in sorted(set(got) & set(want)):
            check_golden(got[key], want[key], f"{where}.{key}", tally)
    elif isinstance(want, list) and isinstance(got, list):
        tally.equal(f"{where} length", len(got), len(want))
        if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in want):
            if len(got) == len(want) and want:
                tally.close(where, got, want, GOLDEN_TOL)
        else:
            for i, (g, w) in enumerate(zip(got, want)):
                check_golden(g, w, f"{where}[{i}]", tally)
    elif isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        tally.close(where, got, want, GOLDEN_TOL)
    else:
        tally.equal(where, got, want)
    return tally
