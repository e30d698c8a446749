"""Classical-shadow state estimates of qubit subsets from randomized-measurement records.

Each record contributes the tensor product, over the selected qubits, of
``3 U† |b><b| U - I`` where ``U`` rotates the measured Pauli basis to the
computational one (X via Hadamard, Y via Hadamard after S-dagger).  Every
single-qubit factor has unit trace and eigenvalues {2, -1}; the mean is
Hermitian with unit trace but generally indefinite.

A k-qubit snapshot depends on the record only through its k local outcome
codes ``2 * basis + bit``.  :func:`encode_bytes` holds the one code map, from
matrices of basis-letter and bit bytes; ``io.read_snapshots`` applies it to the
field columns of a stream as ``write_snapshots`` lays it out.
:func:`encode_rows` checks rows of basis letters and bits and encodes them
through it as a ``uint8[N, width]`` matrix in one vectorized pass, for the
lines of any other stream file and for record lists (:func:`outcome_codes`,
which passes a code matrix through unchanged).  :func:`rho_cs`, the one place codes
enter a sum, checks that every code is 0..5, copies the columns its subsets
use once into contiguous per-qubit rows, and counts each subset into a
``6**k`` histogram through one contiguous index of the N records, built by
``k - 1`` multiply-adds of those rows; the index of one subset is held at a
time (N entries of ``uint16`` while ``6**k <= 2**16``, else ``intp``).  It
then contracts the stacked histograms axis by axis with the 6 x 2 x 2 factor
table.  The work after counting does not depend on the number of records; a
histogram takes 16 * 6**k bytes as complex (27 MB at k = 8).  The
full-device operator is never formed.

The factor table is written out exactly: every entry is a multiple of 1/2, so
each k-qubit snapshot entry is an integer multiple of 2**-k and every sum of
N snapshots, in any order or grouping, is exact while N * 4**k < 2**52
(k <= 8 at any realistic N).  Within that range the trace of a subset's sum
is exactly N, and a subset's matrix does not depend on the other subsets of
its stack.  Dividing by N rounds each diagonal entry on its own, so
:func:`rho_cs` puts the diagonal back on a dyadic grid whose float sum is
exactly 1 in any summation order.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import CoverageError, RecordError, SubsystemError
from .report import BASIS_LETTERS, qubit_subset, record_problem
from .states import DensityOperator

if TYPE_CHECKING:
    from .simulator import SnapshotRecord

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
#: Local outcome code parts by ASCII byte: ``2 * basis`` for a basis letter,
#: ``bit`` for a bit character, ``_INVALID`` for every other byte, so a code
#: ``2 * basis + bit`` above 5 marks a bad character.
_INVALID = 6
_BASIS_CODE = np.full(256, _INVALID, dtype=np.uint8)
_BASIS_CODE[list(BASIS_LETTERS.encode())] = np.arange(0, 6, 2)
_BIT_CODE = np.full(256, _INVALID, dtype=np.uint8)
_BIT_CODE[list(b"01")] = (0, 1)


def _ascii(rows: Sequence[str]) -> np.ndarray:
    """The joined rows as bytes, one per character; a non-ASCII character becomes ``?``."""
    return np.frombuffer("".join(rows).encode("ascii", "replace"), dtype=np.uint8)


def encode_bytes(bases: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Codes ``2 * basis + bit`` of two ``uint8[N, width]`` matrices of ASCII bytes, and the
    rows that hold a byte other than a basis letter in ``bases`` or a bit in ``bits``."""
    # Looked up flat, since no lookup allocates a (0, width) result for every width;
    # a uint8 index never leaves the 256-entry tables, so "wrap" skips a bounds check.
    codes = _BASIS_CODE.take(bases.ravel(), mode="wrap") + _BIT_CODE.take(bits.ravel(), mode="wrap")
    codes = codes.reshape(bases.shape)
    return codes, (codes >= _INVALID).any(axis=1)


def encode_rows(
    bases: Sequence[str],
    bits: Sequence[str],
    width: int,
    where: Callable[[int], str] = "record {}".format,
) -> np.ndarray:
    """Check and encode rows as a ``uint8[N, width]`` matrix of codes ``2 * basis + bit``.

    ``bases[i]`` and ``bits[i]`` hold row ``i``'s basis letters and bits,
    qubit 0 first.  Every row must be a valid record (see
    :func:`~zecs.report.record_problem`) covering ``width`` qubits, else
    ``RecordError`` names the first bad row by ``where(row)``.  No rows give
    a ``(0, width)`` matrix.
    """
    n_rows = len(bases)
    valid = n_rows  # rows before this one have the right width
    if width < 1 or {*map(len, bases), *map(len, bits)} - {width}:
        valid = next((row for row in range(n_rows)
                      if not len(bases[row]) == len(bits[row]) == width > 0), n_rows)
    codes, bad_rows = encode_bytes(_ascii(bases[:valid]).reshape(valid, width),
                                   _ascii(bits[:valid]).reshape(valid, width))
    bad = int(bad_rows.argmax()) if bad_rows.any() else valid
    if bad == n_rows:
        return codes
    problem = record_problem(bases[bad], bits[bad])
    if problem is not None:
        raise RecordError(f"{where(bad)}: {problem}")
    raise RecordError(f"{where(bad)}: record width {len(bases[bad])} != expected {width}")


def outcome_codes(stream: np.ndarray | Sequence[SnapshotRecord]) -> np.ndarray:
    """A stream's ``uint8[N, width]`` matrix of codes ``2 * basis + bit``.

    A code matrix, as :func:`zecs.io.read_snapshots` returns, is returned
    unchanged once its shape, dtype and range are checked.  Records are
    encoded by :func:`encode_rows` at the width of the first record: a record
    of another width raises ``RecordError`` naming it, as a stream line does.
    An empty stream gives a ``(0, 0)`` matrix.
    """
    if isinstance(stream, np.ndarray):
        if stream.ndim != 2 or stream.dtype != np.uint8:
            raise RecordError(
                f"a code matrix must be 2-D uint8, got {stream.ndim}-D {stream.dtype}"
            )
        _check_code_range(stream)
        return stream
    records = list(stream)
    width = len(records[0].bases) if records else 0
    return encode_rows([r.bases for r in records], [r.bits for r in records], width)


def _check_code_range(codes: np.ndarray) -> None:
    """Raise ``RecordError`` unless every entry of ``codes`` is a code 0..5."""
    if codes.dtype.kind not in "iu":
        raise RecordError(f"a code matrix holds integer codes, got {codes.dtype}")
    if codes.size:
        low, high = int(codes.min()), int(codes.max())
        if low < 0 or high >= _INVALID:
            raise RecordError(f"a code matrix holds codes 0..5, got {low if low < 0 else high}")


def _unit_trace_diagonal(d: np.ndarray) -> np.ndarray:
    """Round each row of ``d``, which sums to 1 up to rounding, onto a grid summing to exactly 1.

    A row's grid is ``2**-m`` with ``m = 52 - ceil(log2(sum|row| + 1))``, so
    every partial sum of grid values is an exact float and the total does not
    depend on the summation order.  Entries are rounded down, then the ones
    with the largest remainders are rounded up until the grid counts add to
    ``2**m``; each entry moves by less than ``2**-m``.
    """
    m = np.array([52 - math.ceil(math.log2(s + 1.0)) for s in np.abs(d).sum(axis=-1).tolist()])
    scaled = np.ldexp(d, m[:, None])
    grid = np.floor(scaled)
    deficit = (1 << m) - grid.sum(axis=-1).astype(np.int64)
    rank = np.argsort(np.argsort(grid - scaled, axis=-1, kind="stable"), axis=-1)
    grid += rank < deficit[:, None]
    return np.ldexp(grid, -m[:, None])


def rho_cs(codes: np.ndarray, subsets: Sequence[Sequence[int]]) -> np.ndarray:
    """Snapshot means of equal-size qubit subsets: an ``(S, 2**k, 2**k)`` stack.

    Each subset is a non-empty ``qubit_subset`` of one size, else ``SubsystemError``.
    ``codes`` is a 2-D integer array of codes 0..5, as :func:`outcome_codes`
    returns, else ``RecordError``.  One histogram
    per subset, counted from one contiguous index of the N records (memory of
    one N-length index at a time), then ``k`` contractions of the stack with
    the factor table.  While the sum is exact (``N * 4**k < 2**52``), each
    mean is Hermitian bit for bit, as the exact sum is and division by N
    keeps, with no symmetrizing step; it is not necessarily PSD.  Its diagonal
    is re-rounded onto a dyadic grid (each entry moves by less than
    ``2 * (sum|diag| + 1) * 2**-52``; see :func:`_unit_trace_diagonal`), so
    its trace is exactly 1 in any summation order.
    """
    if not isinstance(codes, np.ndarray) or codes.ndim != 2:
        got = f"{codes.ndim}-D array" if isinstance(codes, np.ndarray) else type(codes).__name__
        raise RecordError(f"a code matrix must be a 2-D array, got a {got}")
    try:
        subsets = [list(qubit_subset(subset)) for subset in subsets]
    except TypeError:
        raise SubsystemError(f"expected a sequence of qubit subsets, got {subsets!r}") from None
    n_rows, width = codes.shape
    if not n_rows:
        raise CoverageError("record stream is empty")
    if not subsets:
        raise SubsystemError("no qubit subsets given")
    k = len(subsets[0])
    for subset in subsets:
        if not subset or len(subset) != k:
            raise SubsystemError(f"qubit subset {subset} must be non-empty and of size {k}")
        if max(subset) >= width:
            raise CoverageError(f"records cover qubits 0..{width - 1}, subset asks for {subset}")
    _check_code_range(codes)
    # One contiguous row per used qubit, wide enough for a subset's index 6**k - 1.
    qubits = sorted({qubit for subset in subsets for qubit in subset})
    row_of = dict(zip(qubits, codes.T[qubits].astype(np.uint16 if 6**k <= 2**16 else np.intp)))
    hist = np.empty((len(subsets), 6**k), dtype=np.intp)
    for out, subset in zip(hist, subsets):
        index = row_of[subset[0]].copy()
        for qubit in subset[1:]:
            index *= 6
            index += row_of[qubit]
        out[:] = np.bincount(index, minlength=6**k)
    tensor = hist.astype(complex).reshape((len(subsets),) + (6,) * k)
    for _ in range(k):
        tensor = np.tensordot(tensor, _FACTORS.reshape(6, 2, 2), axes=(1, 0))
    rows_then_cols = [0] + list(range(1, 2 * k, 2)) + list(range(2, 2 * k + 1, 2))
    mean = tensor.transpose(rows_then_cols).reshape(len(subsets), 2**k, 2**k) / n_rows
    diagonal = np.arange(2**k)
    mean[:, diagonal, diagonal] = _unit_trace_diagonal(mean[:, diagonal, diagonal].real)
    return mean


def reconstruct(
    stream: np.ndarray | Sequence[SnapshotRecord], qubit_subset: Sequence[int]
) -> DensityOperator:
    """The :func:`rho_cs` of one subset of a code matrix or record stream, unvalidated."""
    return DensityOperator(rho_cs(outcome_codes(stream), [qubit_subset])[0])
