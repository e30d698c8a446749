"""Tests of the benchmark itself: generator determinism, oracle agreement, metric names.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import itertools
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

DATA = ROOT / "src" / "zecs" / "data"
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _device_sha(seed: int, tmp: Path) -> dict:
    return gen.make_device(seed, DATA, tmp / str(seed))["sha256"]


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    first = _device_sha(5, tmp_path / "a")
    assert first == _device_sha(5, tmp_path / "b")
    other = _device_sha(6, tmp_path / "c")
    assert all(first[name] != other[name] for name in first)
    assert gen.make_wide(5) == gen.make_wide(5) != gen.make_wide(6)


def test_device_inputs_cover_the_paper_experiment(tmp_path):
    spec = gen.make_device(3, DATA, tmp_path)
    stream = oracle.Stream.read(spec["files"]["stream"])
    assert stream.bases.shape == (gen.N_SNAPSHOTS, gen.N_QUBITS)
    rows = json.loads(spec["files"]["subsystems"].read_text())["subsystems"]
    kinds = [r["kind"] for r in rows]
    assert (kinds.count("pair"), kinds.count("pair_plus_idle"), kinds.count("pair_pair")) == (
        54, 36, 53)
    assert all(("reference" in r) == (r["kind"] == "pair") for r in rows)
    candidates = spec["device"]["candidates"]
    assert len(candidates) == 51 and gen.PLANTED in candidates


def test_planted_block_carries_one_bit_across_the_cut():
    blocks = gen.device_blocks(4, DATA)["blocks"]
    planted = [b for b in blocks if len(b["qubits"]) == 4]
    assert len(planted) == 1
    assert oracle.schmidt_entropy(planted[0]["state"], 2) == pytest.approx(1.0, abs=1e-12)


def test_table_is_exact_and_unbiased():
    """The dyadic table equals 3 U†|b><b|U - I and inverts the Pauli channel exactly."""
    for basis, bit in itertools.product(range(3), range(2)):
        u = gen.MEASURE_ROTATIONS[basis]
        ket = u.conj().T[:, bit]
        expected = 3.0 * np.outer(ket, ket.conj()) - np.eye(2)
        assert np.abs(oracle.TABLE[2 * basis + bit] - expected).max() < 1e-15
    assert np.array_equal(oracle.TABLE * 2, np.round(oracle.TABLE * 2))
    rng = np.random.default_rng(0)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T / np.trace(g @ g.conj().T)
    average = sum(
        np.real((u @ rho @ u.conj().T)[bit, bit]) / 3 * oracle.TABLE[2 * b + bit]
        for b, u in enumerate(gen.MEASURE_ROTATIONS) for bit in range(2))
    assert np.abs(average - rho).max() < 1e-14


def test_oracle_matches_program_on_small_stream():
    from zecs import io as zio
    from zecs.diagnostics import SubsystemSpec, build_report, nonlocal_scan
    from zecs.layout import DeviceLayout
    from zecs.simulator import SnapshotRecord, run as simulate

    rng = np.random.default_rng(9)
    pairs = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
    params = {p: rng.uniform(0.0, np.pi / 2, size=8).tolist() for p in pairs}
    refs = {p: gen.apply_gates(2, gen.su2_gates(2, params[p])) for p in pairs}
    blocks = [{"qubits": list(p), "state": refs[p]} for p in pairs[1:3] + pairs[4:]]
    blocks.append({"qubits": [0, 1, 6, 7],
                   "state": gen.apply_gates(4, gen.planted_gates(params[(0, 1)],
                                                                 params[(6, 7)]))})
    bases, bits = gen.sample_stream(blocks, seed=2, n_records=400, n_qubits=10)
    records = [SnapshotRecord("".join("XYZ"[b] for b in rb), "".join(map(str, ro)))
               for rb, ro in zip(bases, bits)]
    stream = oracle.Stream(bases, bits)

    rows = [{"kind": "pair", "qubits": list(p)} for p in pairs]
    rows += [{"kind": "pair_pair", "qubits": [0, 1, 2, 3]},
             {"kind": "pair_pair", "qubits": [4, 5, 8, 9]}]
    references = {}
    for p in pairs:
        circuit = zio.circuit_from_obj({"kind": "efficient_su2", "n_qubits": 2, "reps": 1,
                                        "params": params[p]})
        references[p] = simulate(circuit).to_density()
    report = build_report(records, [SubsystemSpec(r["kind"], tuple(r["qubits"])) for r in rows],
                          references)
    tally = oracle.check_report(zio.report_to_obj(report), stream, rows, refs)
    assert tally.failures == [] and tally.checks > 50
    assert tally.max_err < 1e-10

    layout = DeviceLayout(10, tuple(pairs))
    scan = nonlocal_scan(records, [(0, 1)], pairs[1:], layout)
    tally, values = oracle.check_scan(zio.scan_to_obj(scan), stream, (0, 1), pairs[1:])
    assert tally.failures == [] and tally.max_err < 1e-10
    assert int(np.argmax(values["values"])) == pairs[1:].index((6, 7))


def test_oracle_reports_deviations():
    tally = oracle.check_golden({"a": [1.0, 2.0], "b": "x"}, {"a": [1.0, 2.5], "b": "y"})
    assert len(tally.failures) == 2 and tally.max_err == pytest.approx(0.5)


def test_self_times_subtract_children(tmp_path):
    spans = {"spans": [["cli.route", 0.0, 10.0, -1], ["routing.best_chain", 2.0, 5.0, 0],
                       ["linalg.eigh", 3.0, 4.0, 1]], "counters": {"io.read_bytes": 7}}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spans))
    self_s, calls, counters = tracer.self_times([path, path])
    assert self_s == {"cli.route": 14.0, "routing.best_chain": 4.0, "linalg.eigh": 2.0}
    assert calls["linalg.eigh"] == 2 and counters == {"io.read_bytes": 14}


def test_metric_names_and_benchmark_file():
    names = [*run.END_TO_END_UNITS, *run.PER_LAYER_UNITS, *run.RAW_UNITS, *run.QUALITY_UNITS]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for layer, functions in tracer.WRAPPED.items():
        module = __import__(f"zecs.{layer}", fromlist=["_"])
        assert all(callable(getattr(module, f)) for f in functions)
