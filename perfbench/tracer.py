"""Traced launcher: run one program step with timing wrappers on the zecs layers.

Usage: python tracer.py SPANS_OUT -m zecs.cli COMMAND ARGS...
       python tracer.py SPANS_OUT SCRIPT ARGS...

Before the step runs, every public function in ``WRAPPED`` is replaced, at
each module attribute that holds it, by a wrapper that records a span (name,
start, end, parent) and a few counters.  The wrappers only time calls and
read arguments and results; they change no value.  Spans stay in memory and
are written to SPANS_OUT when the step ends.  ``self_times`` reduces the
spans of many files to per-name self time and call counts.
"""

from __future__ import annotations

import importlib
import json
import os
import runpy
import sys
import time
from pathlib import Path

#: Layer module -> public functions wrapped in a traced run.
WRAPPED = {
    "io": ("read_snapshots", "read_json", "write_snapshots", "write_canonical"),
    "simulator": ("run", "sample_shadow", "perturb_state"),
    "shadow": ("reconstruct",),
    "linalg": ("eigh", "clamp_psd"),
    "projection": ("zecs_project",),
    "states": ("fidelity", "trace_distance", "entanglement_entropy", "concurrence"),
    "diagnostics": ("build_report", "nonlocal_scan"),
    "routing": ("edge_scores_from_report", "best_chain"),
    "study": ("perturbation_study",),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        span = [name, time.perf_counter(), None, parent]
        self.spans.append(span)
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn):
        account = _ACCOUNTING.get(name)

        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if account is not None:
                account(self, result, *args, **kwargs)
            return result

        return traced

    def install(self) -> None:
        """Replace each wrapped function at every zecs module attribute bound to it."""
        for module in ("zecs", "zecs.cli", "zecs.datasets"):
            importlib.import_module(module)
        modules = [m for n, m in sys.modules.items() if n == "zecs" or n.startswith("zecs.")]
        for layer, names in WRAPPED.items():
            home = sys.modules[f"zecs.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans, "counters": self.counters}))


def _reconstruct(t, result, records, qubit_subset):
    t.count("shadow.records_absorbed", len(records))
    t.count("shadow.kernel_entries", len(records) * 4 ** len(qubit_subset))


def _eigh(t, result, m, *args, **kwargs):
    dim = len(m)
    t.count("linalg.eigh_flops_computed", dim**3)
    t.counters["linalg.eigh_dim_max"] = max(t.counters.get("linalg.eigh_dim_max", 0), dim)


def _zecs_project(t, result, *args, **kwargs):
    t.count("projection.degenerate_count", int(result.degenerate_flag))
    t.count("projection.negative_lambda_top_count", int(result.lambda_top < 0))


def _sample_shadow(t, result, *args, **kwargs):
    t.count("simulator.records_sampled", len(result))
    t.count("simulator.distinct_bases", len({r.bases for r in result}))


def _read_snapshots(t, result, path, *args, **kwargs):
    t.count("io.read_bytes", os.path.getsize(path))
    t.count("io.records_parsed", len(result[0]))


def _read_json(t, result, path, *args, **kwargs):
    t.count("io.read_bytes", os.path.getsize(path))


def _write(t, result, path, *args, **kwargs):
    t.count("io.write_bytes", os.path.getsize(path))


def _best_chain(t, result, *args, **kwargs):
    t.count("routing.exact_chains", int(not result.approximate))


_ACCOUNTING = {
    "shadow.reconstruct": _reconstruct,
    "linalg.eigh": _eigh,
    "projection.zecs_project": _zecs_project,
    "simulator.sample_shadow": _sample_shadow,
    "io.read_snapshots": _read_snapshots,
    "io.read_json": _read_json,
    "io.write_snapshots": _write,
    "io.write_canonical": _write,
    "routing.best_chain": _best_chain,
}


def self_times(paths) -> tuple[dict, dict, dict]:
    """Sum, over span files, each name's self time, call count and counters."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[str, float] = {}
    for path in paths:
        obj = json.loads(Path(path).read_text())
        spans = obj["spans"]
        own = [end - start for _, start, end, _ in spans]
        for name, start, end, parent in spans:
            if parent >= 0:
                own[parent] -= end - start
        for (name, *_), value in zip(spans, own):
            self_s[name] = self_s.get(name, 0.0) + value
            calls[name] = calls.get(name, 0) + 1
        for name, value in obj["counters"].items():
            if name.endswith("_max"):
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
    return self_s, calls, counters


def main(argv: list[str]) -> int:
    out, rest = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    if rest[0] == "-m":
        cli = sys.modules["zecs.cli"]
        name = f"cli.{rest[2]}"
        step = lambda: cli.main(rest[2:])  # noqa: E731
    else:
        name = f"step.{Path(rest[0]).stem}"
        sys.argv = list(rest)

        def step():
            try:
                runpy.run_path(rest[0], run_name="__main__")
            except SystemExit as exc:
                return exc.code
            return 0

    try:
        code = tracer.call(name, step)
    finally:
        tracer.dump(Path(out))
    return code or 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
