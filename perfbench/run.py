"""Paper-scale benchmark for zecs: four workloads run as a user runs them.

Usage (from the repository root):
    python3 perfbench/run.py --workload {device,wide,study,route,all} --seed N \
        --seconds S --trace {0,1}

Every step of a workload is a fresh ``python -m zecs.cli`` process (the wide
workload's library step is ``perfbench/wide_step.py``), with ``ZECS_THREADS=1``
and one BLAS thread; the benchmark starts one step at a time, on the one CPU
it runs on itself.  Iterations of the step sequence repeat while the next one
fits in ``--seconds`` (at least one runs), and timings are medians over
iterations.

The bounded times (``setup_s``, ``corrected_wall_s``,
``corrected_items_per_s``) are corrected for the speed of a shared host: while
a child runs, ``Probe`` times a fixed piece of work on the same CPU every
10 ms, and the child's wall time is scaled by ``PROBE_REF_S`` over the mean
probe time.  On a host whose speed swings by up to 2x over tens of seconds,
raw wall times spread too widely between runs to bound a change; the raw ones
(``setup_wall_s``, ``wall_s``, ``items_per_s``) are printed and recorded too.

The first iteration's outputs are checked against the NumPy oracle in
``oracle.py`` or the golden files in ``golden/``; later iterations must
reproduce them byte for byte.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` also runs the
untraced iterations, then one iteration under ``tracer.py`` and reports the
per-layer metrics: self time per wrapped function, counters, and
``trace.overhead_s`` (traced wall time minus the untraced median).  Traced
and untraced outputs must be byte-identical.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric with its unit, the run environment and input sha256s.
A full record is written to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import gen
import oracle
import tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
DATA = SRC / "zecs" / "data"
LAYOUT = DATA / "heavy_hex_127.json"
WORK = ROOT / ".perfbench_work"
HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
SETUP_REPEATS = 3
STEP_TIMEOUT_S = 170
PROBE_PERIOD_S = 0.01
#: Scale of corrected times: a step's corrected time is its wall time at the
#: speed where one probe takes this long, near the mean probe time seen while
#: steps ran on the 2-vCPU Xeon VM the benchmark was written on.
PROBE_REF_S = 250e-6

CHILD_ENV = {
    "PYTHONPATH": str(SRC),
    "ZECS_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END_UNITS = {"setup_s": "s", "corrected_wall_s": "s", "corrected_items_per_s": "1/s",
                    "peak_rss_mb": "MB"}
#: The wall times the corrected times are made from; printed and recorded, not bounded.
RAW_UNITS = {"setup_wall_s": "s", "wall_s": "s", "items_per_s": "1/s"}

#: Per-layer metric -> unit.  Times ending in ``_s`` are self times, except
#: ``cli.<command>_s`` and ``step.<script>_s``, which are whole-step times.
PER_LAYER_UNITS = {
    "shadow.reconstruct_s": "s",
    "shadow.reconstruct_calls": "count",
    "shadow.records_absorbed": "count",
    "shadow.kernel_entries": "count",
    "linalg.eigh_s": "s",
    "linalg.eigh_calls": "count",
    "linalg.eigh_calls_per_subsystem": "ratio",
    "linalg.eigh_dim_max": "count",
    "linalg.eigh_flops_computed": "flop",
    "linalg.clamp_psd_s": "s",
    "projection.zecs_project_s": "s",
    "projection.calls": "count",
    "projection.degenerate_count": "count",
    "projection.negative_lambda_top_count": "count",
    "states.fidelity_s": "s",
    "states.trace_distance_s": "s",
    "states.entanglement_entropy_s": "s",
    "states.concurrence_s": "s",
    "simulator.run_s": "s",
    "simulator.sample_shadow_s": "s",
    "simulator.records_sampled": "count",
    "simulator.basis_reuse_ratio": "ratio",
    "simulator.perturb_state_s": "s",
    "io.read_snapshots_s": "s",
    "io.read_json_s": "s",
    "io.read_bytes": "B",
    "io.records_parsed": "count",
    "io.write_snapshots_s": "s",
    "io.write_canonical_s": "s",
    "io.write_bytes": "B",
    "diagnostics.build_report_self_s": "s",
    "diagnostics.nonlocal_scan_self_s": "s",
    "routing.edge_scores_s": "s",
    "routing.best_chain_s": "s",
    "routing.exact_ratio": "ratio",
    "study.perturbation_study_self_s": "s",
    "cli.simulate_s": "s",
    "cli.reconstruct_s": "s",
    "cli.nonlocal_s": "s",
    "cli.route_s": "s",
    "cli.perturb-study_s": "s",
    "step.wide_step_s": "s",
    "trace.overhead_s": "s",
}

#: Per-layer time metric -> span name, where the two differ beyond the ``_s`` suffix.
_SPAN_OF = {
    "routing.edge_scores_s": "routing.edge_scores_from_report",
    "diagnostics.build_report_self_s": "diagnostics.build_report",
    "diagnostics.nonlocal_scan_self_s": "diagnostics.nonlocal_scan",
    "study.perturbation_study_self_s": "study.perturbation_study",
}

QUALITY_UNITS = {
    "failed_frac": "ratio",
    "max_abs_err": "abs",
    "planted_zscore": "sigma",
    "false_flags": "count",
    "chain_cost": "cost",
    "infidelity_zecs_mean": "ratio",
}


class Step:
    """One program invocation: ``python -m zecs.cli ARGS`` or ``python SCRIPT ARGS``."""

    def __init__(self, args: list[str], items: int = 0, script: Path | None = None):
        self.args = [str(a) for a in args]
        self.items = items
        self.script = script

    def argv(self, spans: Path | None) -> list[str]:
        target = [str(self.script)] if self.script else ["-m", "zecs.cli"]
        if spans is None:
            return [sys.executable, *target, *self.args]
        return [sys.executable, str(HERE / "tracer.py"), str(spans), *target, *self.args]


class Probe:
    """Samples how fast the CPU that runs a step is going, while the step runs.

    The benchmark and its steps share one CPU.  Every ``PROBE_PERIOD_S`` the
    benchmark wakes and times a fixed piece of work like the program's own:
    a small dict loop and four 4x4 complex ``eigh`` calls.  On a shared host
    the CPU's speed changes from second to second, and a step's wall time
    follows the mean probe time closely, so ``wall * PROBE_REF_S / mean``
    removes most of that noise.  The probes take a few percent of the CPU.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
        self.matrices = a + a.conj().transpose(0, 2, 1)

    def sample(self) -> float:
        start = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(400):
            table[i & 63] = table.get(i & 63, 0) + i * 3 % 7
        for matrix in self.matrices:
            np.linalg.eigh(matrix)
        return time.perf_counter() - start


def run_probed(argv: list[str], cwd: Path, probe: Probe):
    """Run one child while probing; return it, its output, wall time and corrected time.

    A child still running after ``STEP_TIMEOUT_S`` is killed.
    """
    env = dict(os.environ, **CHILD_ENV)
    samples = []
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err) as proc:
            try:
                while True:
                    samples.append(probe.sample())
                    try:
                        proc.wait(timeout=PROBE_PERIOD_S)
                        break
                    except subprocess.TimeoutExpired:
                        if time.perf_counter() - start > STEP_TIMEOUT_S:
                            proc.kill()
                            proc.wait()
                            break
            except BaseException:  # never leave a child running
                proc.kill()
                raise
        wall = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    return proc, stdout, stderr, wall, wall * PROBE_REF_S / statistics.fmean(samples)


class Run:
    """Counts attempted and failed commands and checks for one workload run."""

    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.max_err = 0.0
        self.probe = Probe()

    def execute(self, step: Step, spans: Path | None = None) -> tuple[float, float, bytes]:
        """Run one step; return its wall time, its corrected time and its stdout."""
        proc, stdout, stderr, wall, corrected = run_probed(step.argv(spans), self.work,
                                                           self.probe)
        self.attempted += 1
        if proc.returncode != 0:
            tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
            label = step.script.name if step.script else step.args[0]
            self.failures.append(f"{label} exited {proc.returncode}: {tail}")
        return wall, corrected, stdout

    def setup_time(self) -> tuple[float, float]:
        """Wall and corrected time for a fresh interpreter to import ``zecs.cli``."""
        proc, _, stderr, wall, corrected = run_probed(
            [sys.executable, "-c", "import zecs.cli"], self.work, self.probe)
        if proc.returncode != 0:
            raise RuntimeError(f"import zecs.cli failed: {stderr.decode(errors='replace')}")
        return wall, corrected

    def absorb(self, tally: oracle.Tally) -> None:
        self.attempted += tally.checks
        self.failures.extend(tally.failures)
        self.max_err = max(self.max_err, tally.max_err)

    def same(self, what: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.failures.append(f"{what} differ")


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Steps of one iteration, the files they write, and the checks on those files."""

    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.inputs: dict[str, str] = {}
        self.steps: list[Step] = []
        self.outputs: list[str] = []
        self.quality: dict[str, float] = {}

    def check(self, run: Run) -> None:
        raise NotImplementedError

    def digest(self, stdouts: list[bytes]) -> list[str]:
        """sha256 of every output file and of the steps' standard output."""
        paths = [self.work / out for out in self.outputs]
        files = [gen.sha256_file(p) if p.is_file() else "missing" for p in paths]
        return files + [hashlib.sha256(b"".join(stdouts)).hexdigest()]


def _params_sha(obj) -> str:
    return hashlib.sha256(gen.canonical(obj).encode()).hexdigest()


def _read(path: Path):
    return json.loads(Path(path).read_text())


class Device(Workload):
    """Paper scale: 127 qubits, 6000 snapshots, 143 subsystems, 51-candidate scan, chain."""

    name = "device"

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        spec = gen.make_device(seed, DATA, work)
        self.spec = spec
        self.inputs = dict(spec["sha256"])
        candidates = ";".join(f"{a},{b}" for a, b in spec["device"]["candidates"])
        files = spec["files"]
        self.steps = [
            Step(["reconstruct", "--snapshots", files["stream"].name,
                  "--subsystems", files["subsystems"].name, "--out", "report.json"], items=143),
            Step(["nonlocal", "--snapshots", files["stream"].name, "--targets", "19,20",
                  "--candidates", candidates, "--layout", LAYOUT, "--out", "scan.json"], items=51),
            Step(["route", "--report", "report.json", "--layout", LAYOUT,
                  "--length", gen.ROUTE_LENGTH, "--out", "chain.json"]),
        ]
        self.outputs = ["report.json", "scan.json", "chain.json"]

    def check(self, run: Run) -> None:
        dev = self.spec["device"]
        refs = {p: gen.apply_gates(2, gen.su2_gates(2, prm)) for p, prm in dev["params"].items()}
        run.absorb(_simulator_check(dev, refs))
        stream = oracle.Stream.read(self.spec["files"]["stream"])
        report = _read(self.work / "report.json")
        run.absorb(oracle.check_report(report, stream, dev["rows"], refs))
        tally, scan = oracle.check_scan(_read(self.work / "scan.json"), stream,
                                        gen.TARGET, dev["candidates"])
        run.absorb(tally)
        chain = _read(self.work / "chain.json")
        run.absorb(oracle.check_chain(chain, report, _read(LAYOUT), gen.ROUTE_LENGTH, 1.0))
        planted = dev["candidates"].index(gen.PLANTED)
        zscores = scan["zscores"]
        self.quality = {
            "planted_zscore": float(zscores[planted]),
            "false_flags": int(sum(z >= oracle.FLAG_ZSCORE for i, z in enumerate(zscores)
                                   if i != planted)),
            "chain_cost": chain["cost"],
            "infidelity_zecs_mean": statistics.fmean(
                row["infidelity_zecs"] for row in report["subsystems"]),
        }


def _simulator_check(dev: dict, refs: dict) -> oracle.Tally:
    """``zecs.simulator.run`` reproduces the generator's 2- and 4-qubit states."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from zecs import io as zio
    from zecs.simulator import run as simulate

    tally = oracle.Tally()
    for pair, params in dev["params"].items():
        circuit = zio.circuit_from_obj({"kind": "efficient_su2", "n_qubits": 2, "reps": 1,
                                        "params": params})
        tally.close(f"simulator pair {pair}", simulate(circuit).amplitudes, refs[pair], 1e-12)
    for block in dev["blocks"]:
        k = len(block["qubits"])
        circuit = zio.circuit_from_obj({"kind": "gates", "n_qubits": k, "gates": block["gates"]})
        tally.close(f"simulator block {block['qubits']}", simulate(circuit).amplitudes,
                    block["state"], 1e-12)
    return tally


class Wide(Workload):
    """12-qubit simulate (sampler-bound), then three 5- and 6-qubit subsystems."""

    name = "wide"

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.spec = gen.make_wide(seed)
        self.inputs = {"params": _params_sha(self.spec)}
        self.steps = [
            Step(["simulate", "--qubits", gen.WIDE_QUBITS, "--reps", gen.WIDE_REPS,
                  "--param-seed", self.spec["param_seed"], "--snapshots", gen.N_SNAPSHOTS,
                  "--seed", self.spec["sample_seed"], "--out", "wide_stream.jsonl"]),
            Step(["wide_stream.jsonl", json.dumps(self.spec["subsets"]), "wide.json"],
                 items=len(self.spec["subsets"]), script=HERE / "wide_step.py"),
        ]
        self.outputs = ["wide_stream.jsonl", "wide.json"]

    def check(self, run: Run) -> None:
        stream = oracle.Stream.read(self.work / "wide_stream.jsonl")
        run.same("wide stream shape", stream.bases.shape, (gen.N_SNAPSHOTS, gen.WIDE_QUBITS))
        params = gen.su2_params(gen.WIDE_QUBITS, gen.WIDE_REPS, self.spec["param_seed"])
        psi = gen.apply_gates(gen.WIDE_QUBITS, gen.su2_gates(gen.WIDE_QUBITS, params,
                                                             gen.WIDE_REPS))
        run.absorb(oracle.check_sampling(stream, psi))
        run.absorb(oracle.check_wide(_read(self.work / "wide.json"), stream,
                                     self.spec["subsets"]))


class Study(Workload):
    """Bell-perturbation study: thousands of 4x4 eigendecompositions, no I/O or sampling."""

    name = "study"

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.study_seed = seed % gen.STUDY_GOLDEN_SEEDS
        args = {"sigmas": gen.STUDY_SIGMAS, "trials": gen.STUDY_TRIALS, "seed": self.study_seed}
        self.inputs = {"params": _params_sha(args)}
        self.steps = [Step(["perturb-study", "--sigmas", gen.STUDY_SIGMAS,
                            "--trials", gen.STUDY_TRIALS, "--seed", self.study_seed,
                            "--out", "study.json"],
                           items=len(gen.STUDY_SIGMAS.split(",")) * gen.STUDY_TRIALS)]
        self.outputs = ["study.json"]

    def check(self, run: Run) -> None:
        golden = GOLDEN / f"study_seed{self.study_seed}.json"
        run.absorb(oracle.check_golden(_read(self.work / "study.json"), _read(golden), "study"))


class Route(Workload):
    """Branch-and-bound chain search on the bundled Brisbane report; pure Python."""

    name = "route"

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        report = DATA / "brisbane_report.json"
        self.inputs = {"report": gen.sha256_file(report),
                       "params": _params_sha([list(c) for c in gen.ROUTE_CASES])}
        for length, weight in gen.ROUTE_CASES:
            out = route_name(length, weight)
            self.steps.append(Step(["route", "--report", report, "--layout", LAYOUT,
                                    "--length", length, "--weight", weight, "--out", out],
                                   items=1))
            self.outputs.append(out)

    def check(self, run: Run) -> None:
        report = _read(DATA / "brisbane_report.json")
        for (length, weight), out in zip(gen.ROUTE_CASES, self.outputs):
            chain = _read(self.work / out)
            run.absorb(oracle.check_golden(chain, _read(GOLDEN / out), out))
            run.absorb(oracle.check_chain(chain, report, _read(LAYOUT), length, weight))
            if (length, weight) == (gen.ROUTE_LENGTH, 1.0):
                self.quality["chain_cost"] = chain["cost"]


def route_name(length: int, weight: float) -> str:
    return f"route_L{length}_w{weight:g}.json"


WORKLOADS = {w.name: w for w in (Device, Wide, Study, Route)}


# ---------------------------------------------------------------------------
# measurement


def iterate(workload: Workload, run: Run, spans_dir: Path | None = None):
    """Run the step sequence once; return its times and the steps' stdouts.

    The times are the wall and corrected times of all steps and of the steps
    that count items, and of each step.
    """
    times = dict.fromkeys(("wall", "corrected", "item_wall", "item_corrected"), 0.0)
    times["steps"] = []
    stdouts = []
    for i, step in enumerate(workload.steps):
        spans = spans_dir / f"step{i}.json" if spans_dir else None
        wall, corrected, out = run.execute(step, spans)
        times["steps"].append([wall, corrected])
        times["wall"] += wall
        times["corrected"] += corrected
        if step.items:
            times["item_wall"] += wall
            times["item_corrected"] += corrected
        stdouts.append(out)
    return times, stdouts


def timed_iterations(workload: Workload, run: Run, seconds: float) -> dict:
    """Iterate while the next iteration fits in ``seconds``; check outputs.

    Set-up is timed ``SETUP_REPEATS`` times before the first iteration and
    once after each, so its median spans the whole run.
    """
    iterations, reference = [], None
    setups = [run.setup_time() for _ in range(SETUP_REPEATS)]
    start = time.perf_counter()
    while True:
        times, stdouts = iterate(workload, run)
        iterations.append(times)
        setups.append(run.setup_time())
        digest = workload.digest(stdouts)
        if reference is None:
            reference = digest
        else:
            run.same(f"outputs of iteration {len(iterations)}", digest, reference)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(t["wall"] for t in iterations) > seconds:
            break
    return {"iterations": iterations, "setups": setups, "digest": reference}


def per_layer(spans_dir: Path, traced_wall: float, untraced_wall: float) -> dict:
    self_s, calls, counters = tracer.self_times(sorted(spans_dir.glob("*.json")))
    recon = calls.get("shadow.reconstruct", 0)
    eigh_calls = calls.get("linalg.eigh", 0)
    sampled = counters.get("simulator.records_sampled", 0)
    chains = calls.get("routing.best_chain", 0)
    derived = {
        "shadow.reconstruct_calls": recon,
        "linalg.eigh_calls": eigh_calls,
        "linalg.eigh_calls_per_subsystem": eigh_calls / recon if recon else 0.0,
        "projection.calls": calls.get("projection.zecs_project", 0),
        "simulator.basis_reuse_ratio":
            1.0 - counters.get("simulator.distinct_bases", 0) / sampled if sampled else 0.0,
        "routing.exact_ratio":
            counters.get("routing.exact_chains", 0) / chains if chains else 0.0,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    metrics = {}
    for name in PER_LAYER_UNITS:
        if name in derived:
            value = derived[name]
        elif name in counters or not name.endswith("_s"):
            value = counters.get(name, 0)
        else:
            value = self_s.get(_SPAN_OF.get(name, name[:-2]), 0.0)
        metrics[name] = value
    return metrics


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "ZECS_THREADS": CHILD_ENV["ZECS_THREADS"],
        "blas_threads": CHILD_ENV["OPENBLAS_NUM_THREADS"],
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    env = environment()
    # The steps inherit this CPU, so the probe samples the CPU they run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[name](seed, work)
    run = Run(work)
    timed = timed_iterations(workload, run, seconds)
    try:
        workload.check(run)
    except Exception:  # a missing or malformed output is a failed check, not a crash
        run.attempted += 1
        run.failures.append("output check raised: " + traceback.format_exc(limit=-1).strip())
    iterations = timed["iterations"]
    items = sum(s.items for s in workload.steps)

    def median(key: str) -> float:
        return statistics.median(t[key] for t in iterations)

    def rate(key: str) -> float:
        return statistics.median(items / t[key] for t in iterations)

    setups = timed["setups"]
    raw = {"setup_wall_s": statistics.median(wall for wall, _ in setups),
           "wall_s": median("wall"), "items_per_s": rate("item_wall")}
    if trace:
        spans_dir = work / "spans"
        spans_dir.mkdir()
        traced, stdouts = iterate(workload, run, spans_dir)
        run.same("traced and untraced outputs", workload.digest(stdouts), timed["digest"])
        metrics = per_layer(spans_dir, traced["wall"], raw["wall_s"])
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(corrected for _, corrected in setups),
            "corrected_wall_s": median("corrected"),
            "corrected_items_per_s": rate("item_corrected"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    quality = {"failed_frac": len(run.failures) / run.attempted, "max_abs_err": run.max_err,
               **workload.quality}
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "inputs_sha256": workload.inputs,
        "iterations": iterations,
        "setups_s": timed["setups"],
        "failures": run.failures,
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "raw": {k: {"value": v, "unit": RAW_UNITS[k]} for k, v in raw.items()},
        "quality": {k: {"value": v, "unit": QUALITY_UNITS[k]} for k, v in quality.items()},
    }


def publish(result: dict) -> None:
    name = result["workload"]
    print(f"# {name}: seed {result['seed']}, {len(result['iterations'])} iteration(s), "
          f"environment {json.dumps(result['environment'], sort_keys=True)}")
    print(f"# {name}: inputs sha256 {json.dumps(result['inputs_sha256'], sort_keys=True)}")
    for group in ("metrics", "raw", "quality"):
        for key, m in result[group].items():
            print(f"{name} {key} {m['value']:.6g} {m['unit']}")
    for failure in result["failures"][:20]:
        print(f"# {name}: FAILED {failure}")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{name}-seed{result['seed']}-trace{result['trace']}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")


def run_all(args) -> dict:
    """Run every workload in its own process, so each one's peak RSS is its own."""
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        final["correct"] = final["correct"] and result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        final["metrics"].update({f"{name}.{k}": m for k, m in result["metrics"].items()})
    return final


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zecs" / "cli.py").is_file():
        print(f"error: no zecs sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        final = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        publish(result)
        final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
