"""Bundled device datasets: archived diagnostic values and the coupling map.

The report holds the archived 6000-snapshot diagnostic run over a 127-qubit
heavy-hex device (54 pair, 36 pair-plus-idle, 53 pair-pair subsystems); the
non-local file holds the archived entropy values of the (19, 20) scan.
Both are stored in the package's canonical file formats, so they double as
golden files for round-trip tests.
"""

from __future__ import annotations

import json
from importlib import resources

from .diagnostics import DiagnosticReport
from .io import layout_from_obj, nonlocal_values_from_obj, report_from_obj
from .layout import DeviceLayout


def _load(name: str):
    with resources.files("zecs.data").joinpath(name).open("r", encoding="utf-8") as handle:
        return json.load(handle)


def brisbane_report() -> DiagnosticReport:
    return report_from_obj(_load("brisbane_report.json"))


def brisbane_layout() -> DeviceLayout:
    return layout_from_obj(_load("heavy_hex_127.json"))


def brisbane_nonlocal_values() -> tuple[tuple[int, int], list[tuple[tuple[int, int], float]]]:
    """Archived (candidate, entropy) values for the (19, 20) non-local scan."""
    return nonlocal_values_from_obj(_load("brisbane_nonlocal_19_20.json"))
