"""Write the golden outputs the study and route workloads are checked against.

Usage (from the repository root): python3 perfbench/make_golden.py

Runs ``perturb-study`` for every study seed and ``route`` for every chain
case of the route workload, with the benchmark's own arguments, and stores
the outputs under ``perfbench/golden/``.  The committed files were produced
by the program as it stood when the benchmark was added; regenerate them
only when an output is meant to change.
"""

from __future__ import annotations

import os
import subprocess
import sys

import gen
import run


def main() -> int:
    run.GOLDEN.mkdir(exist_ok=True)
    env = dict(os.environ, **run.CHILD_ENV)
    commands = []
    for seed in range(gen.STUDY_GOLDEN_SEEDS):
        commands.append(["perturb-study", "--sigmas", gen.STUDY_SIGMAS,
                         "--trials", str(gen.STUDY_TRIALS), "--seed", str(seed),
                         "--out", str(run.GOLDEN / f"study_seed{seed}.json")])
    for length, weight in gen.ROUTE_CASES:
        commands.append(["route", "--report", str(run.DATA / "brisbane_report.json"),
                         "--layout", str(run.LAYOUT), "--length", str(length),
                         "--weight", str(weight),
                         "--out", str(run.GOLDEN / run.route_name(length, weight))])
    for args in commands:
        subprocess.run([sys.executable, "-m", "zecs.cli", *args], env=env, check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
