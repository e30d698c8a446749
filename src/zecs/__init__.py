"""Shadow-based density-operator reconstruction and device diagnostics.

Pipeline: sample (or ingest) randomized-measurement records, invert and
average them into subsystem state estimates, project each estimate onto its
dominant pure state, then use the resulting fidelity and entanglement
entropy maps for device diagnostics, non-local correlation detection, and
qubit-chain routing.

The package loads no layer itself: import each one from its submodule
(``zecs.io``, ``zecs.routing``, ...), so that reading a stored report and
routing over it never import NumPy.
"""

__version__ = "0.1.0"
