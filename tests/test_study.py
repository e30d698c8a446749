"""Tests for the Bell-perturbation recovery study."""

import json
from pathlib import Path

import pytest

from zecs import cli, io
from zecs.errors import ConfigError
from zecs.study import perturbation_study

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


def test_cli_output_matches_golden(tmp_path, capsys):
    out = tmp_path / "study.json"
    argv = ["perturb-study", "--sigmas", SIGMAS, "--trials", "100", "--seed", "0", "--out", str(out)]
    assert cli.main(argv) == 0
    got = json.loads(out.read_text())
    want = json.loads((GOLDEN / "study_seed0.json").read_text())
    assert got["format"] == io.STUDY_FORMAT
    assert max_abs_err(got, want) <= GOLDEN_TOL


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


def test_reproducible_from_seed():
    assert perturbation_study([0.2], 4, seed=3) == perturbation_study([0.2], 4, seed=3)
    assert perturbation_study([0.2], 4, seed=3) != perturbation_study([0.2], 4, seed=4)


@pytest.mark.parametrize("sigmas, trials", [([0.1], 1), ([], 5)])
def test_rejects_bad_arguments(sigmas, trials):
    with pytest.raises(ConfigError):
        perturbation_study(sigmas, trials, seed=0)
