"""The wide workload's library step against the stacked kernels it stands in for.

``perfbench/wide_step.py`` runs ``shadow.reconstruct``, ``zecs_project`` and the
scalar ``entanglement_entropy`` on each subset.  Each row it writes must equal,
bit for bit, what ``shadow.rho_cs``, ``linalg.eigh``, ``project_spectra`` and
``entanglement_entropy_matrix`` give for that subset.
"""

import json
import runpy
from pathlib import Path

import numpy as np
import pytest

from zecs import cli, io, linalg, shadow
from zecs.projection import project_spectra
from zecs.states import entanglement_entropy_matrix

WIDE_STEP = Path(__file__).resolve().parents[1] / "perfbench" / "wide_step.py"
SUBSETS = [[0, 2, 4], [5, 1, 3], [0, 1, 2, 3], [5, 3, 1, 0]]


def as_matrix(pairs):
    return np.array([[complex(re, im) for re, im in row] for row in pairs])


@pytest.fixture(scope="module")
def step(tmp_path_factory):
    work = tmp_path_factory.mktemp("wide")
    stream, out = work / "stream.jsonl", work / "wide.json"
    assert cli.main(["simulate", "--qubits", "6", "--reps", "2", "--snapshots", "300",
                     "--seed", "5", "--out", str(stream)]) == 0
    main = runpy.run_path(str(WIDE_STEP))["main"]
    assert main([str(stream), json.dumps(SUBSETS), str(out)]) == 0
    codes, _ = io.read_snapshots(stream)
    return codes, json.loads(out.read_text(encoding="ascii"))["subsystems"]


def test_one_row_per_subset_in_order(step):
    _, rows = step
    assert [row["qubits"] for row in rows] == SUBSETS


@pytest.mark.parametrize("index", range(len(SUBSETS)))
def test_row_matches_the_stacked_kernels(step, index):
    codes, rows = step
    qubits, row = SUBSETS[index], rows[index]
    rho = shadow.rho_cs(codes, [qubits])
    decomp = linalg.eigh(rho)
    _, zecs, _ = project_spectra(decomp)
    half = tuple(range(len(qubits) // 2))
    assert np.array_equal(as_matrix(row["rho_cs"]), rho[0])
    assert np.array_equal(as_matrix(row["rho_zecs"]), zecs[0])
    assert row["lambda_top"] == decomp.eigenvalues[0, 0]
    assert row["entropy"] == entanglement_entropy_matrix(zecs, half)[0]
    # A rank-1 projector of unit trace, whatever the sign of the top eigenvalue.
    assert np.trace(zecs[0]).real == pytest.approx(1.0, abs=1e-12)
    assert np.abs(zecs[0] @ zecs[0] - zecs[0]).max() < 1e-12
