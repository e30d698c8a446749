"""Aggregate randomized-measurement records into a classical-shadow state estimate.

Each record contributes the tensor product, over the selected qubits, of
``3 U† |b><b| U - I`` where ``U`` rotates the measured Pauli basis to the
computational one (X via Hadamard, Y via Hadamard after S-dagger).  Every
single-qubit factor has unit trace and eigenvalues {2, -1}; the mean is
Hermitian with unit trace but generally indefinite.

A k-qubit snapshot depends on the record only through its k local outcome
codes ``2 * basis + bit``, so :meth:`ShadowAccumulator.add_many`, the one
place records enter a sum, counts them into a ``6**k`` histogram and
contracts each axis with the 6 x 2 x 2 factor table.  The work after
counting does not depend on the number of records; the histogram takes
16 * 6**k bytes as complex (27 MB at k = 8).  The full-device operator is
never formed.

The factor table is written out exactly: every entry is a multiple of 1/2, so
each k-qubit snapshot entry is an integer multiple of 2**-k and every sum of
N snapshots, in any order or grouping, is exact while N * 4**k < 2**52
(k <= 8 at any realistic N).  Within that range ``trace(sum_matrix) ==
count`` holds exactly, and one batch, several batches and ``merge`` of
shards agree bit for bit.  Dividing by the count rounds each diagonal entry
on its own, so :func:`rho_cs` puts the diagonal back on a dyadic grid whose
float sum is exactly 1 in any summation order.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CoverageError,
    EmptyAccumulatorError,
    MergeError,
    SubsystemError,
)
from .simulator import BASIS_LETTERS, SnapshotRecord
from .states import DensityOperator

#: Inverted-channel factors ``3 U†|bit><bit|U - I`` indexed by [basis, bit].
#: Written out rather than computed through the 1/sqrt(2) rotations, which
#: leave the X and Y entries an ulp or two off the exact multiples of 1/2.
_FACTORS = np.array(
    [
        [[[0.5, 1.5], [1.5, 0.5]], [[0.5, -1.5], [-1.5, 0.5]]],
        [[[0.5, -1.5j], [1.5j, 0.5]], [[0.5, 1.5j], [-1.5j, 0.5]]],
        [[[2.0, 0.0], [0.0, -1.0]], [[-1.0, 0.0], [0.0, 2.0]]],
    ],
    dtype=complex,
)
#: Local outcome code ``2 * basis + bit`` by character code, for rows of
#: ``_FACTORS.reshape(6, 2, 2)``: basis letters give ``2 * basis``, bits give ``bit``.
_CODE = np.zeros(128, dtype=np.intp)
_CODE[[ord(letter) for letter in BASIS_LETTERS]] = np.arange(0, 6, 2)
_CODE[ord("1")] = 1


class ShadowAccumulator:
    """Running sum of inverted snapshots over a fixed qubit subset.

    Stores the raw sum (not the mean) so that merging shards is exact.
    Single-writer: shard streams across accumulators and merge afterwards.
    """

    def __init__(self, qubit_subset: Sequence[int]):
        subset = tuple(int(q) for q in qubit_subset)
        if not subset or len(set(subset)) != len(subset):
            raise SubsystemError(f"qubit subset {subset} must be non-empty without repeats")
        self.qubit_subset = subset
        self.count = 0
        dim = 2 ** len(subset)
        self.sum_matrix = np.zeros((dim, dim), dtype=complex)

    def add_many(self, records: Iterable[SnapshotRecord]) -> "ShadowAccumulator":
        """Absorb a batch of records through a histogram of their local outcomes.

        Each record's subset columns become codes ``2 * basis + bit`` in 0..5;
        the records are counted into a ``6**k`` histogram (16 * 6**k bytes as
        complex, 27 MB at k = 8), and each of its k axes is contracted with
        the 6 x 2 x 2 factor table.  The row and column axes are then
        interleaved into the ``2**k x 2**k`` sum, which is exact while
        ``count * 4**k < 2**52``.  Every record must cover every subset
        qubit, else ``CoverageError``.
        """
        records = list(records)
        if not records:
            return self
        subset = list(self.qubit_subset)
        k = len(subset)
        bases = np.array([r.bases for r in records])
        width = bases.dtype.itemsize // 4
        if min(subset) < 0 or max(subset) >= width:
            raise CoverageError(f"records cover qubits 0..{width - 1}, subset asks for {subset}")
        bases = bases.view(np.uint32).reshape(len(records), width)[:, subset]
        if not bases.all():
            row = int(np.flatnonzero(~bases.all(axis=1))[0])
            raise CoverageError(
                f"record {row} covers qubits 0..{records[row].n_qubits - 1}, "
                f"subset asks for {subset}"
            )
        bits = np.array([r.bits for r in records]).view(np.uint32).reshape(len(records), width)
        codes = _CODE[bases] + _CODE[bits[:, subset]]
        hist = np.bincount(np.ravel_multi_index(codes.T, (6,) * k), minlength=6**k)
        tensor = hist.astype(complex).reshape((6,) * k)
        for _ in range(k):
            tensor = np.tensordot(tensor, _FACTORS.reshape(6, 2, 2), axes=(0, 0))
        rows_then_cols = list(range(0, 2 * k, 2)) + list(range(1, 2 * k, 2))
        self.sum_matrix += tensor.transpose(rows_then_cols).reshape(2**k, 2**k)
        self.count += len(records)
        return self


def merge(a: ShadowAccumulator, b: ShadowAccumulator) -> ShadowAccumulator:
    """Combine two shards; bit for bit equal to sequential accumulation."""
    if a.qubit_subset != b.qubit_subset:
        raise MergeError(f"subset mismatch: {a.qubit_subset} vs {b.qubit_subset}")
    out = ShadowAccumulator(a.qubit_subset)
    out.count = a.count + b.count
    out.sum_matrix = a.sum_matrix + b.sum_matrix
    return out


def _unit_trace_diagonal(d: np.ndarray) -> np.ndarray:
    """Round ``d``, which sums to 1 up to rounding, onto a grid where it sums to exactly 1.

    The grid is ``2**-m`` with ``m = 52 - ceil(log2(sum|d| + 1))``, so every
    partial sum of grid values is an exact float and the total does not depend
    on the summation order.  Entries are rounded down, then the ones with the
    largest remainders are rounded up until the grid counts add to ``2**m``;
    each entry moves by less than ``2**-m``.
    """
    m = 52 - math.ceil(math.log2(float(np.abs(d).sum()) + 1.0))
    scaled = np.ldexp(d, m)
    grid = np.floor(scaled)
    deficit = (1 << m) - int(grid.sum())
    grid[np.argsort(grid - scaled, kind="stable")[:deficit]] += 1.0
    return np.ldexp(grid, -m)


def rho_cs(acc: ShadowAccumulator) -> DensityOperator:
    """Mean of the absorbed snapshots: Hermitian, unit trace, not necessarily PSD.

    The trace is exactly 1 in floating point, in any summation order, while
    the accumulated sum is exact (``count * 4**k < 2**52``): the diagonal of
    ``sum_matrix / count`` is re-rounded onto a dyadic grid by
    :func:`_unit_trace_diagonal`, moving each entry by less than
    ``2 * (sum|diag| + 1) * 2**-52``.
    """
    if acc.count == 0:
        raise EmptyAccumulatorError("no records absorbed")
    mean = acc.sum_matrix / acc.count
    mean = (mean + mean.conj().T) / 2.0
    np.fill_diagonal(mean, _unit_trace_diagonal(mean.diagonal().real))
    return DensityOperator.from_matrix(mean, validate=False)


def reconstruct(
    records: Sequence[SnapshotRecord], qubit_subset: Sequence[int]
) -> DensityOperator:
    """One-shot helper: accumulate all records and return the mean state."""
    acc = ShadowAccumulator(qubit_subset)
    acc.add_many(records)
    return rho_cs(acc)
