"""Command-line surface tying the pipeline together.

Subcommands: ``simulate`` (sample a snapshot stream from a circuit),
``reconstruct`` (per-subsystem diagnostic report), ``route`` (best qubit
chain from a report), ``nonlocal`` (non-local correlation scan), and
``perturb-study`` (the Bell-perturbation recovery table).  Every command is
deterministic given its arguments and seed.

Each command imports the layers it calls when it runs: ``route`` runs on the
stored report alone and imports ``routing`` and no NumPy; ``simulate``,
``reconstruct``, ``nonlocal`` and ``perturb-study`` import the numeric layers
(``simulator``, ``diagnostics``, ``study``).

:func:`run` is the process entry, for ``python -m zecs.cli`` and the ``zecs``
script.  It calls :func:`main`, then ``gc.freeze()``, so the full collections
of interpreter shutdown skip the objects the step left alive (about 21,500
after a ``reconstruct``), which die with the process anyway and took those
collections longer than the report took to build.  Shutdown is otherwise as
usual: ``atexit`` handlers run and the standard streams are flushed.
:func:`main` never freezes, so in-process callers keep their collector as it was.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from . import io
from .errors import ConfigError, ZecsError
from .report import ENTROPY_NORMALIZATIONS


def _parse_pairs(text: str) -> list[tuple[int, ...]]:
    """Parse '19,20;67,68' into [(19, 20), (67, 68)]; ``nonlocal_scan`` reads them as pairs."""
    pairs = []
    for chunk in filter(str.strip, text.split(";")):
        try:
            pairs.append(tuple(int(part) for part in chunk.split(",")))
        except ValueError:
            raise ConfigError(
                f"expected integer 'a,b' pairs separated by ';', got {chunk.strip()!r}"
            ) from None
    if not pairs:
        raise ConfigError("no qubit pairs given")
    return pairs


def _load_circuit(args) -> tuple:
    if args.circuit:
        circuit, default_id = io.read_circuit(args.circuit), Path(args.circuit).stem
    elif args.qubits is None or args.reps is None:
        raise ConfigError("give either --circuit FILE or both --qubits and --reps")
    else:
        circuit = io.circuit_from_obj({"kind": "efficient_su2", "n_qubits": args.qubits,
                                       "reps": args.reps, "param_seed": args.param_seed})
        default_id = f"su2-n{args.qubits}-r{args.reps}-p{args.param_seed}"
    return circuit, default_id if args.circuit_id is None else args.circuit_id


def cmd_simulate(args) -> int:
    from .simulator import run, sample_shadow

    if args.snapshots < 1:
        raise ConfigError(f"--snapshots must be >= 1, got {args.snapshots}")
    circuit, circuit_id = _load_circuit(args)
    state = run(circuit)
    records = sample_shadow(state, args.snapshots, args.seed)
    io.write_snapshots(args.out, records, circuit.n_qubits, endianness=args.endianness,
                       circuit_id=circuit_id)
    print(f"wrote {len(records)} snapshots of {circuit.n_qubits} qubit(s) to {args.out}")
    return 0


def _references_from_specs(specs, circuits, policy: str):
    from .simulator import run, zero_state

    references = {key: run(circuit).to_density() for key, circuit in circuits.items()}
    if policy == "zero":
        for spec in specs:
            if spec.qubits in references:
                continue
            for pair in spec.pairs():
                references.setdefault(pair, zero_state(2).to_density())
    elif policy != "require":
        raise ConfigError(f"unknown reference policy {policy!r}")
    return references


def cmd_reconstruct(args) -> int:
    from .diagnostics import build_report

    codes, _ = io.read_snapshots(args.snapshots, endianness=args.endianness)
    specs, circuits = io.read_subsystems(args.subsystems)
    references = _references_from_specs(specs, circuits, args.ref_policy)
    report = build_report(
        codes, specs, references, entropy_normalization=args.entropy_norm
    )
    io.write_canonical(args.out, io.report_to_obj(report))
    print(f"wrote report with {len(report.subsystems)} subsystem(s) to {args.out}")
    return 0


def cmd_route(args) -> int:
    from .routing import best_chain, edge_scores_from_report

    report = io.read_report(args.report)
    layout = io.read_layout(args.layout)
    scores = edge_scores_from_report(report, layout)
    solution = best_chain(layout, scores, args.length, weight_w=args.weight)
    io.write_canonical(args.out, io.chain_to_obj(solution, args.weight))
    marker = " (approximate)" if solution.approximate else ""
    print(
        f"best {args.length}-qubit chain{marker}: cost {solution.cost:.6g}, "
        f"mean fidelity {solution.mean_fidelity:.4f} -> {args.out}"
    )
    return 0


def cmd_nonlocal(args) -> int:
    from .diagnostics import nonlocal_scan, score_candidates

    layout = io.read_layout(args.layout) if args.layout else None
    if args.values:
        results = score_candidates(*io.read_nonlocal_values(args.values, layout))
    else:
        if not (args.snapshots and args.targets and args.candidates and layout):
            raise ConfigError(
                "need --snapshots, --targets, --candidates and --layout (or --values)"
            )
        codes, _ = io.read_snapshots(args.snapshots, endianness=args.endianness)
        results = nonlocal_scan(
            codes,
            _parse_pairs(args.targets),
            _parse_pairs(args.candidates),
            layout,
        )
    io.write_canonical(args.out, io.scan_to_obj(results))
    flagged = sum(1 for r in results if r.flagged)
    print(f"scanned {len(results)} pairings, {flagged} flagged -> {args.out}")
    return 0


def cmd_perturb_study(args) -> int:
    from .study import perturbation_study

    try:
        sigmas = [float(s) for s in args.sigmas.split(",") if s.strip()]
    except ValueError as exc:  # names the value: "could not convert string to float: 'abc'"
        raise ConfigError(f"--sigmas: {exc}") from None
    rows = perturbation_study(sigmas, args.trials, args.seed)
    io.write_canonical(args.out, io.study_to_obj(rows))
    print(f"wrote {len(rows)} sigma rows ({args.trials} trials each) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zecs",
        description="Shadow-based state reconstruction and device diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample a snapshot stream from a circuit")
    p.add_argument("--circuit", help="circuit description JSON file")
    p.add_argument("--qubits", type=int, help="ansatz width (with --reps)")
    p.add_argument("--reps", type=int, help="ansatz repetitions (with --qubits)")
    p.add_argument("--param-seed", type=int, default=0, help="seed for random ansatz angles")
    p.add_argument("--circuit-id", default=None)
    p.add_argument("--snapshots", type=int, required=True, help="number of records")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--endianness", default=io.Q0_LEFTMOST,
                   choices=[io.Q0_LEFTMOST, io.Q0_RIGHTMOST])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="build a per-subsystem diagnostic report")
    p.add_argument("--snapshots", required=True)
    p.add_argument("--subsystems", required=True, help="subsystem spec JSON file")
    p.add_argument("--endianness", default=None,
                   choices=[io.Q0_LEFTMOST, io.Q0_RIGHTMOST])
    p.add_argument("--entropy-norm", default="per-kind", choices=ENTROPY_NORMALIZATIONS)
    p.add_argument("--ref-policy", default="require", choices=["require", "zero"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("route", help="select the best qubit chain from a report")
    p.add_argument("--report", required=True)
    p.add_argument("--layout", required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--weight", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("nonlocal", help="scan for non-local correlations")
    p.add_argument("--snapshots")
    p.add_argument("--targets", help="target pairs, e.g. '19,20;67,68'")
    p.add_argument("--candidates", help="candidate pairs, same syntax")
    p.add_argument("--layout", help="device layout JSON; with --values, rejects coupled candidates")
    p.add_argument("--values", help="archived entropy values JSON (skips reconstruction)")
    p.add_argument("--endianness", default=None,
                   choices=[io.Q0_LEFTMOST, io.Q0_RIGHTMOST])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_nonlocal)

    p = sub.add_parser("perturb-study", help="Bell-perturbation recovery table")
    p.add_argument("--sigmas", default="0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_perturb_study)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ZecsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Run :func:`main` on ``sys.argv`` and exit with its status, the heap frozen first."""
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
