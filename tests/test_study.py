"""Tests for the Bell-perturbation recovery study."""

import json
from pathlib import Path

import numpy as np
import pytest

from zecs import cli, io, linalg
from zecs.errors import ConfigError
from zecs.projection import zecs_project
from zecs.simulator import perturb_state
from zecs.states import DensityOperator, concurrence, fidelity, trace_distance
from zecs.study import BELL_VECTOR, perturbation_study

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
SIGMAS = "0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5"
GOLDEN_TOL = 1e-6


def max_abs_err(got, want, where=""):
    """Largest numeric difference between two JSON trees of the same shape."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        return max((max_abs_err(got[k], want[k], f"{where}.{k}") for k in want), default=0.0)
    if isinstance(want, list):
        assert len(got) == len(want), where
        return max((max_abs_err(g, w, f"{where}[{i}]") for i, (g, w) in enumerate(zip(got, want))),
                   default=0.0)
    if isinstance(want, float):
        return abs(got - want)
    assert got == want, where
    return 0.0


def loop_study(sigma_grid, trials, seed):
    """Reference study, one trial at a time: perturb_state -> zecs_project -> scalar metrics."""
    ideal = DensityOperator.from_pure(BELL_VECTOR)
    master = np.random.default_rng(seed)
    trial_seeds = master.integers(0, 2**63 - 1, size=(len(sigma_grid), trials))
    rows = []
    for i, sigma in enumerate(sigma_grid):
        columns = {name: [] for name in (
            "infidelity_raw", "infidelity_ze", "trace_distance_raw", "trace_distance_ze",
            "concurrence_raw", "concurrence_ze")}
        eigenvalues = np.zeros(4)
        for t in range(trials):
            rho = perturb_state(ideal, sigma, int(trial_seeds[i, t]))
            result = zecs_project(rho)
            ze = result.rho_zecs
            columns["infidelity_raw"].append(1.0 - fidelity(rho, ideal))
            columns["infidelity_ze"].append(1.0 - fidelity(ze, ideal))
            columns["trace_distance_raw"].append(trace_distance(rho, ideal))
            columns["trace_distance_ze"].append(trace_distance(ze, ideal))
            columns["concurrence_raw"].append(concurrence(rho))
            columns["concurrence_ze"].append(concurrence(ze))
            eigenvalues += np.abs(linalg.eigh(rho.matrix).eigenvalues)
        row = {"sigma": sigma, "trials": trials}
        for name, values in columns.items():
            row[f"{name}_mean"] = float(np.mean(values))
            row[f"{name}_std"] = float(np.std(values))
        row["eigenvalue_means"] = list(eigenvalues / trials)
        rows.append(row)
    return rows


@pytest.mark.parametrize("seed", range(8))
def test_cli_output_matches_golden(tmp_path, capsys, seed):
    out = tmp_path / "study.json"
    argv = ["perturb-study", "--sigmas", SIGMAS, "--trials", "100", "--seed", str(seed),
            "--out", str(out)]
    assert cli.main(argv) == 0
    got = json.loads(out.read_text())
    want = json.loads((GOLDEN / f"study_seed{seed}.json").read_text())
    assert got["format"] == io.STUDY_FORMAT
    assert max_abs_err(got, want) <= GOLDEN_TOL


@pytest.mark.parametrize("seed", [0, 5])
def test_stacked_study_matches_trial_loop(seed):
    sigmas = [0.0, 0.05, 0.5]
    assert max_abs_err(perturbation_study(sigmas, 60, seed), loop_study(sigmas, 60, seed)) <= 1e-12


def test_rows_carry_every_statistic():
    rows = perturbation_study([0.1, 0.3], trials=5, seed=1)
    assert [(r["sigma"], r["trials"]) for r in rows] == [(0.1, 5), (0.3, 5)]
    for row in rows:
        assert len(row["eigenvalue_means"]) == 4
        assert sum(row["eigenvalue_means"]) == pytest.approx(1.0, abs=1e-12)
        for name in ("infidelity", "trace_distance", "concurrence"):
            for kind in ("raw", "ze"):
                assert row[f"{name}_{kind}_std"] >= 0.0
        # the projection recovers the Bell pair better than the raw perturbed state
        assert row["infidelity_ze_mean"] < row["infidelity_raw_mean"]


def test_zero_noise_keeps_the_bell_pair():
    (row,) = perturbation_study([0.0], trials=3, seed=2)
    assert row["infidelity_raw_mean"] == pytest.approx(0.0, abs=1e-12)
    assert row["infidelity_ze_mean"] == pytest.approx(0.0, abs=1e-12)
    assert row["concurrence_raw_mean"] == pytest.approx(1.0, abs=1e-12)
    assert row["eigenvalue_means"] == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-12)


def test_one_decomposition_per_trial_stack(monkeypatch):
    """The physical check's decomposition is the one projected and the one the raw
    concurrence takes its square root from: 7 ``eigh`` calls per sigma."""
    calls = []
    eigh = linalg.eigh
    monkeypatch.setattr(linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
    perturbation_study([0.1, 0.3], trials=5, seed=0)
    assert len(calls) == 14


def test_reproducible_from_seed():
    assert perturbation_study([0.2], 4, seed=3) == perturbation_study([0.2], 4, seed=3)
    assert perturbation_study([0.2], 4, seed=3) != perturbation_study([0.2], 4, seed=4)


@pytest.mark.parametrize("sigmas, trials", [
    ([0.1], 1), ([], 5), ([0.1, float("nan")], 5), ([float("inf")], 5), ([0.7], 5), ([-0.1], 5),
    ([0.1], 2.5), ([0.1], True), ([0.1], "4"),
])
def test_rejects_bad_arguments(sigmas, trials):
    with pytest.raises(ConfigError):
        perturbation_study(sigmas, trials, seed=0)
