"""Bundled device datasets: archived diagnostic values and the coupling map.

The report holds the archived 6000-snapshot diagnostic run over a 127-qubit
heavy-hex device (54 pair, 36 pair-plus-idle, 53 pair-pair subsystems); the
non-local file holds the archived entropy values of the (19, 20) scan; the
layout is the device's 127-qubit heavy-hex coupling map (144 edges).  Each
is stored in the package's canonical file format and read with the ``io``
reader the CLI uses for it, so they double as golden files for round-trip
tests.  ``tools/make_fixtures.py`` regenerates all three.
"""

from __future__ import annotations

from importlib import resources

# perfbench/tracer.py looks every layer up in sys.modules after importing zecs,
# zecs.cli and zecs.datasets; the CLI itself loads diagnostics, routing and study on demand.
from . import diagnostics, routing, study  # noqa: F401  (kept loaded for perfbench/tracer.py)
from .io import NonlocalValues, read_layout, read_nonlocal_values, read_report
from .layout import DeviceLayout
from .report import DiagnosticReport

_DATA = resources.files("zecs.data")


def brisbane_report() -> DiagnosticReport:
    return read_report(_DATA / "brisbane_report.json")


def brisbane_layout() -> DeviceLayout:
    return read_layout(_DATA / "heavy_hex_127.json")


def brisbane_nonlocal_values() -> NonlocalValues:
    """Archived (candidate, entropy) values for the (19, 20) non-local scan."""
    return read_nonlocal_values(_DATA / "brisbane_nonlocal_19_20.json")
