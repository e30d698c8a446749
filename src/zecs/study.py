"""Recovery study: random Bell-state perturbations, raw versus projected.

For each noise strength the study perturbs a Bell pair many times, applies
the rank-1 projection to the perturbed mixed state, and tabulates how close
each version stays to the ideal state in infidelity, trace distance, and the
``concurrence_*`` columns.  Those come from ``states.concurrence_matrix``:
Wootters' formula with an ``X (x) X`` flip in place of ``Y (x) Y``, which is
not Wootters' concurrence in general (|++> reads 1, not 0).  The per-sigma
mean eigenvalue curve is included so the rank-stability of the dominant
eigenvalue can be checked downstream.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .projection import project_spectra
from .report import is_integer
from .simulator import _generator, _perturb_stack
from .states import (concurrence_matrix, pure_fidelity_matrix, require_physical,
                     trace_distance_matrix)

#: The study's ideal state (|00> + |11>) / sqrt(2), as a unit vector.
BELL_VECTOR = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)


def perturbation_study(
    sigma_grid: Sequence[float], trials: int, seed: int
) -> list[dict]:
    """One row per sigma with mean/std of 1-F, D, C for raw and projected states.

    Trial t of sigma i is ``perturb_state(bell, sigma, seed_it)`` with its
    own seed from the master stream, projected by ``project_spectra`` as
    ``zecs_project`` does.  All trials of one sigma go through the model, the
    projection and the metrics as one ``(trials, 4, 4)`` stack.
    """
    if not is_integer(trials):
        raise ConfigError(f"trials must be an integer, got {trials!r}")
    if trials < 2:
        raise ConfigError(f"need at least 2 trials, got {trials}")
    sigmas = [float(s) for s in sigma_grid]
    if not sigmas:
        raise ConfigError("sigma grid is empty")
    ideal = np.outer(BELL_VECTOR, BELL_VECTOR.conj())
    master = _generator(seed)
    trial_seeds = master.integers(0, 2**63 - 1, size=(len(sigmas), trials))

    rows = []
    for sigma, seeds in zip(sigmas, trial_seeds):
        raw = _perturb_stack(ideal, sigma, seeds)
        decomp = require_physical(raw)
        top, ze, _ = project_spectra(decomp)
        metrics = {
            "infidelity_raw": 1.0 - pure_fidelity_matrix(BELL_VECTOR, raw),
            "infidelity_ze": 1.0 - pure_fidelity_matrix(top, ideal),
            "trace_distance_raw": trace_distance_matrix(raw, ideal),
            "trace_distance_ze": trace_distance_matrix(ze, ideal),
            "concurrence_raw": concurrence_matrix(raw, decomp),
            "concurrence_ze": concurrence_matrix(ze),
        }
        row = {"sigma": sigma, "trials": trials}
        for name, values in metrics.items():
            row[f"{name}_mean"] = float(values.mean())
            row[f"{name}_std"] = float(values.std())
        row["eigenvalue_means"] = np.abs(decomp.eigenvalues).mean(axis=0).tolist()
        rows.append(row)
    return rows
