"""Test-only reference tally grouped by displacement vector.

Pixel pairs are grouped by their integer displacement (dr, dc); all pairs
sharing a displacement share a distance, and each displacement contributes
(rows - dr) * (cols - |dc|) pairs whose category tally is one vectorized
pass over two shifted views of the grid.  Cost is O(#displacements * N),
fast enough to check the FFT route exactly on mid-size grids where the
O(N^2) brute-force enumerator is too slow.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from spatent import CoverageError, PairSample


def _displacements(rows: int, cols: int):
    """Every displacement (dr, dc) linking a pixel to a later row-major pixel."""
    for dc in range(1, cols):
        yield 0, dc
    for dr in range(1, rows):
        for dc in range(-(cols - 1), cols):
            yield dr, dc


def pair_code_table(scheme) -> np.ndarray:
    """(I, I) lookup: 0-based categories of a pair -> 0-based pair code of ``scheme``."""
    i = scheme.num_x_categories
    lut = np.empty((i, i), dtype=np.int64)
    if scheme.ordered:
        lut[:] = np.arange(i * i).reshape(i, i)
    else:
        code = 0
        for a in range(i):
            for b in range(a, i):
                lut[a, b] = code
                lut[b, a] = code
                code += 1
    return lut


def enumerate_pairs_displacement(grid, classification, scheme, *, require_coverage=True):
    """Same contract as ``spatent.enumerate_pairs``, by the displacement route."""
    m0 = grid.matrix - 1
    rows, cols = m0.shape
    lut = pair_code_table(scheme)
    breaks = list(classification.breaks)
    num_codes = scheme.num_z_categories
    counts = np.zeros((classification.num_bands, num_codes), dtype=np.int64)
    pair_counts = np.zeros(classification.num_bands, dtype=np.int64)
    for dr, dc in _displacements(rows, cols):
        d = math.sqrt(dr * dr + dc * dc)
        if d <= breaks[0] or d > breaks[-1]:
            if not require_coverage:
                continue
            raise CoverageError(
                f"distance {d:.6g} of displacement ({dr}, {dc}) has no band"
            )
        k = bisect.bisect_left(breaks, d) - 1
        if dc >= 0:
            a = m0[: rows - dr, : cols - dc]
            b = m0[dr:, dc:]
        else:
            a = m0[: rows - dr, -dc:]
            b = m0[dr:, : cols + dc]
        codes = lut[a.ravel(), b.ravel()]
        counts[k] += np.bincount(codes, minlength=num_codes)
        pair_counts[k] += codes.size
    return PairSample(scheme, classification, pair_counts, counts)
