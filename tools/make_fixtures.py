"""Generate the bundled device-data fixtures (run from the repo root).

Writes three files into src/zecs/data/:
  - heavy_hex_127.json        the 127-qubit heavy-hex coupling map
  - brisbane_report.json      archived per-subsystem diagnostic values
  - brisbane_nonlocal_19_20.json  archived entropy values for the (19,20) scan

The report values are transcribed from the archived 6000-snapshot device
run (54 pair, 36 pair-plus-idle, 53 pair-pair subsystems).  The non-local
values are synthesized to match the archived summary statistics exactly:
population mean 0.113, population std 0.035, peak 0.237 at candidate (2,3).
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from zecs import io  # noqa: E402
from zecs.diagnostics import normalize_entropies  # noqa: E402
from zecs.layout import DeviceLayout  # noqa: E402
from zecs.report import (  # noqa: E402
    PAIR,
    PAIR_PAIR,
    PAIR_PLUS_IDLE,
    DiagnosticReport,
    SubsystemDiagnostics,
)

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "zecs" / "data"


def heavy_hex_127() -> DeviceLayout:
    """The 127-qubit heavy-hex coupling map (7 rows, 24 connectors, 144 edges).

    Seven rows of qubits are joined by four connector qubits per gap, the
    connector columns alternating between (0, 4, 8, 12) and (2, 6, 10, 14).
    """
    row_starts = [0, 18, 37, 56, 75, 94, 113]
    # Column span per row: the first and last rows are one site short.
    row_cols = [range(0, 14)] + [range(0, 15)] * 5 + [range(1, 15)]
    rows = []
    for start, cols in zip(row_starts, row_cols):
        rows.append({col: start + i for i, col in enumerate(cols)})

    edges: list[tuple[int, int]] = []
    for row in rows:
        cols = sorted(row)
        for a, b in zip(cols, cols[1:]):
            edges.append((row[a], row[b]))

    connector_starts = [14, 33, 52, 71, 90, 109]
    for gap, start in enumerate(connector_starts):
        cols = (0, 4, 8, 12) if gap % 2 == 0 else (2, 6, 10, 14)
        for i, col in enumerate(cols):
            connector = start + i
            edges.append((rows[gap][col], connector))
            edges.append((connector, rows[gap + 1][col]))

    return DeviceLayout(num_qubits=127, edges=tuple(edges))


# (qubits, 1 - F_cs, 1 - F_zecs)
TWO_QUBIT = [
    ((13, 12), 0.144, 0.021), ((11, 10), 0.303, 0.08), ((9, 8), 0.089, 0.004),
    ((7, 6), 0.143, 0.025), ((5, 4), 0.128, 0.024), ((3, 2), 0.229, 0.043),
    ((1, 0), 0.131, 0.005), ((14, 18), 0.154, 0.02), ((19, 20), 0.375, 0.087),
    ((21, 22), 0.126, 0.017), ((23, 24), 0.258, 0.075), ((25, 26), 0.208, 0.071),
    ((27, 28), 0.239, 0.011), ((29, 30), 0.162, 0.009), ((31, 32), 0.149, 0.038),
    ((36, 51), 0.136, 0.041), ((50, 49), 0.153, 0.014), ((48, 47), 0.105, 0.004),
    ((46, 45), 0.176, 0.003), ((44, 43), 0.232, 0.052), ((42, 41), 0.14, 0.035),
    ((40, 39), 0.183, 0.006), ((38, 37), 0.153, 0.01), ((52, 56), 0.126, 0.028),
    ((57, 58), 0.13, 0.018), ((59, 60), 0.21, 0.009), ((61, 62), 0.208, 0.012),
    ((63, 64), 0.127, 0.001), ((65, 66), 0.101, 0.02), ((67, 68), 0.475, 0.162),
    ((69, 70), 0.192, 0.013), ((74, 89), 0.21, 0.028), ((88, 87), 0.264, 0.053),
    ((86, 85), 0.194, 0.019), ((84, 83), 0.154, 0.012), ((82, 81), 0.152, 0.015),
    ((80, 79), 0.127, 0.018), ((78, 77), 0.256, 0.019), ((76, 75), 0.213, 0.08),
    ((90, 94), 0.14, 0.016), ((95, 96), 0.148, 0.018), ((97, 98), 0.112, 0.01),
    ((99, 100), 0.242, 0.02), ((101, 102), 0.285, 0.04), ((103, 104), 0.21, 0.098),
    ((105, 106), 0.145, 0.01), ((107, 108), 0.18, 0.018), ((112, 126), 0.132, 0.008),
    ((125, 124), 0.254, 0.029), ((123, 122), 0.181, 0.021), ((121, 120), 0.257, 0.016),
    ((119, 118), 0.426, 0.071), ((117, 116), 0.132, 0.018), ((115, 114), 0.356, 0.064),
]

# (qubits, 1 - F_cs, 1 - F_zecs, S_ab)
THREE_QUBIT = [
    ((13, 12, 17), 0.168, 0.02, 0.016), ((9, 8, 16), 0.122, 0.014, 0.017),
    ((5, 4, 15), 0.121, 0.026, 0.01), ((19, 20, 33), 0.397, 0.104, 0.031),
    ((21, 22, 15), 0.128, 0.017, 0.01), ((23, 24, 34), 0.278, 0.077, 0.02),
    ((25, 26, 16), 0.222, 0.074, 0.008), ((27, 28, 35), 0.247, 0.015, 0.014),
    ((29, 30, 17), 0.2, 0.014, 0.015), ((50, 49, 55), 0.164, 0.016, 0.017),
    ((48, 47, 35), 0.119, 0.005, 0.011), ((46, 45, 54), 0.194, 0.007, 0.006),
    ((44, 43, 34), 0.264, 0.053, 0.019), ((42, 41, 53), 0.179, 0.035, 0.013),
    ((40, 39, 33), 0.179, 0.007, 0.015), ((57, 58, 71), 0.149, 0.019, 0.015),
    ((59, 60, 53), 0.245, 0.014, 0.01), ((61, 62, 72), 0.226, 0.014, 0.016),
    ((63, 64, 54), 0.151, 0.004, 0.015), ((65, 66, 73), 0.131, 0.022, 0.022),
    ((67, 68, 55), 0.478, 0.171, 0.031), ((88, 87, 93), 0.266, 0.053, 0.03),
    ((86, 85, 73), 0.234, 0.019, 0.011), ((84, 83, 92), 0.145, 0.02, 0.029),
    ((82, 81, 72), 0.188, 0.016, 0.007), ((80, 79, 91), 0.152, 0.026, 0.016),
    ((78, 77, 71), 0.271, 0.02, 0.012), ((95, 96, 109), 0.173, 0.02, 0.005),
    ((97, 98, 91), 0.142, 0.016, 0.007), ((99, 100, 110), 0.25, 0.023, 0.015),
    ((101, 102, 92), 0.312, 0.046, 0.014), ((103, 104, 111), 0.236, 0.11, 0.017),
    ((105, 106, 93), 0.17, 0.015, 0.005), ((123, 122, 111), 0.208, 0.024, 0.017),
    ((119, 118, 110), 0.436, 0.094, 0.046), ((115, 114, 109), 0.369, 0.071, 0.022),
]

FOUR_QUBIT = [
    ((13, 12, 11, 10), 0.401, 0.132, 0.099), ((11, 10, 9, 8), 0.355, 0.09, 0.107),
    ((9, 8, 7, 6), 0.211, 0.041, 0.086), ((7, 6, 5, 4), 0.243, 0.069, 0.08),
    ((5, 4, 3, 2), 0.308, 0.078, 0.063), ((3, 2, 1, 0), 0.339, 0.058, 0.102),
    ((1, 0, 14, 18), 0.271, 0.043, 0.074), ((14, 18, 19, 20), 0.472, 0.143, 0.117),
    ((19, 20, 21, 22), 0.442, 0.126, 0.145), ((21, 22, 23, 24), 0.353, 0.097, 0.072),
    ((23, 24, 25, 26), 0.42, 0.193, 0.115), ((25, 26, 27, 28), 0.373, 0.107, 0.058),
    ((27, 28, 29, 30), 0.376, 0.035, 0.081), ((29, 30, 31, 32), 0.292, 0.069, 0.101),
    ((31, 32, 36, 51), 0.254, 0.089, 0.049), ((36, 51, 50, 49), 0.288, 0.07, 0.098),
    ((50, 49, 48, 47), 0.239, 0.028, 0.088), ((48, 47, 46, 45), 0.265, 0.033, 0.081),
    ((46, 45, 44, 43), 0.356, 0.084, 0.074), ((44, 43, 42, 41), 0.342, 0.113, 0.151),
    ((42, 41, 40, 39), 0.327, 0.05, 0.075), ((40, 39, 38, 37), 0.288, 0.03, 0.08),
    ((38, 37, 52, 56), 0.26, 0.044, 0.066), ((52, 56, 57, 58), 0.254, 0.057, 0.074),
    ((57, 58, 59, 60), 0.324, 0.061, 0.078), ((59, 60, 61, 62), 0.339, 0.052, 0.171),
    ((61, 62, 63, 64), 0.293, 0.026, 0.09), ((63, 64, 65, 66), 0.243, 0.039, 0.047),
    ((65, 66, 67, 68), 0.517, 0.19, 0.078), ((67, 68, 69, 70), 0.603, 0.222, 0.134),
    ((69, 70, 74, 89), 0.374, 0.061, 0.105), ((74, 89, 88, 87), 0.383, 0.102, 0.05),
    ((88, 87, 86, 85), 0.43, 0.095, 0.099), ((86, 85, 84, 83), 0.299, 0.045, 0.08),
    ((84, 83, 82, 81), 0.256, 0.041, 0.075), ((82, 81, 80, 79), 0.256, 0.042, 0.068),
    ((80, 79, 78, 77), 0.36, 0.061, 0.101), ((78, 77, 76, 75), 0.399, 0.138, 0.121),
    ((76, 75, 90, 94), 0.348, 0.115, 0.066), ((90, 94, 95, 96), 0.274, 0.054, 0.103),
    ((95, 96, 97, 98), 0.205, 0.041, 0.051), ((97, 98, 99, 100), 0.332, 0.053, 0.123),
    ((99, 100, 101, 102), 0.433, 0.104, 0.109), ((101, 102, 103, 104), 0.428, 0.141, 0.096),
    ((103, 104, 105, 106), 0.321, 0.142, 0.209), ((105, 106, 107, 108), 0.28, 0.038, 0.055),
    ((107, 108, 112, 126), 0.284, 0.065, 0.129), ((112, 126, 125, 124), 0.406, 0.072, 0.056),
    ((125, 124, 123, 122), 0.383, 0.079, 0.086), ((123, 122, 121, 120), 0.362, 0.077, 0.175),
    ((121, 120, 119, 118), 0.568, 0.171, 0.196), ((119, 118, 117, 116), 0.515, 0.159, 0.105),
    ((117, 116, 115, 114), 0.455, 0.119, 0.1),
]


def build_report() -> DiagnosticReport:
    rows = []
    for qubits, inf_cs, inf_ze in TWO_QUBIT:
        rows.append(
            SubsystemDiagnostics(
                kind=PAIR, qubits=qubits, infidelity_cs=inf_cs, infidelity_zecs=inf_ze,
                trace_distance=None, s_ab=None, s_ab_normalized=None,
                degenerate_flag=None, clamp_magnitude=None,
            )
        )
    for source, kind in ((THREE_QUBIT, PAIR_PLUS_IDLE), (FOUR_QUBIT, PAIR_PAIR)):
        for qubits, inf_cs, inf_ze, s_ab in source:
            rows.append(
                SubsystemDiagnostics(
                    kind=kind, qubits=qubits, infidelity_cs=inf_cs, infidelity_zecs=inf_ze,
                    trace_distance=None, s_ab=s_ab, s_ab_normalized=None,
                    degenerate_flag=None, clamp_magnitude=None,
                )
            )
    return DiagnosticReport(subsystems=normalize_entropies(rows), entropy_normalization="per-kind")


def build_nonlocal_values() -> dict:
    """Entropy values for the (19,20) scan with the archived summary moments.

    Candidates: every pair subsystem except (19,20) itself and its coupled
    neighbors (14,18) and (21,22).  The peak 0.237 sits at (2,3); the other
    50 values are drawn reproducibly and affinely adjusted so the population
    mean is exactly 0.113 and the population std exactly 0.035.
    """
    target = (19, 20)
    excluded = {target, (14, 18), (21, 22)}
    candidates = [q for q, _, _ in TWO_QUBIT if q not in excluded]
    assert len(candidates) == 51
    peak_pair = (3, 2)
    peak = 0.237
    rest = [c for c in candidates if c != peak_pair]

    k = len(candidates)
    mean, std = 0.113, 0.035
    rest_sum = k * mean - peak
    rest_mean = rest_sum / len(rest)
    rest_sq = k * std**2 - (peak - mean) ** 2 - len(rest) * (rest_mean - mean) ** 2
    rest_std = np.sqrt(rest_sq / len(rest))

    rng = np.random.default_rng(20240601)
    draws = rng.normal(0.0, 1.0, size=len(rest))
    draws = (draws - draws.mean()) / draws.std()
    values = rest_mean + rest_std * draws
    assert values.min() > 0.02 and values.max() < peak

    pairs = [{"candidate": list(peak_pair), "s_ij": peak}]
    pairs += [{"candidate": list(c), "s_ij": float(v)} for c, v in zip(rest, values)]
    pairs.sort(key=lambda row: row["candidate"])
    return {"target": list(target), "pairs": pairs}


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    io.write_canonical(DATA_DIR / "heavy_hex_127.json", io.layout_to_obj(heavy_hex_127()))
    io.write_canonical(DATA_DIR / "brisbane_report.json", io.report_to_obj(build_report()))
    io.write_canonical(DATA_DIR / "brisbane_nonlocal_19_20.json", build_nonlocal_values())
    obj = build_nonlocal_values()
    svals = np.array([row["s_ij"] for row in obj["pairs"]])
    print(f"layout + report ({len(build_report().subsystems)} rows) written")
    print(f"nonlocal: n={len(svals)} mean={svals.mean():.6f} std={svals.std():.6f} "
          f"max={svals.max():.3f} z={(svals.max()-svals.mean())/svals.std():.4f}")


if __name__ == "__main__":
    main()
