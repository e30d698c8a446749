"""The wide workload's library step: read a stream back and analyse wide subsystems.

Usage: python wide_step.py STREAM SUBSETS_JSON OUT

For each subset it reconstructs ``rho_cs``, projects it and takes the
entanglement entropy of the first half of its qubits, then writes the
matrices and values as canonical JSON.  Calls go through the module
attributes of ``zecs`` so a traced run sees them.
"""

from __future__ import annotations

import json
import sys

from zecs import io, projection, shadow, states


def _pairs(matrix) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def main(argv: list[str]) -> int:
    stream, subsets, out = argv
    records, _ = io.read_snapshots(stream)
    rows = []
    for qubits in json.loads(subsets):
        rho = shadow.reconstruct(records, qubits)
        result = projection.zecs_project(rho)
        half = tuple(range(len(qubits) // 2))
        rows.append({
            "entropy": states.entanglement_entropy(result.rho_zecs, half),
            "lambda_top": result.lambda_top,
            "qubits": list(qubits),
            "rho_cs": _pairs(rho.matrix),
            "rho_zecs": _pairs(result.rho_zecs.matrix),
        })
    io.write_canonical(out, {"subsystems": rows})
    print(f"wrote {len(rows)} wide subsystem(s) to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
