"""A reference computation time-sliced into a run, to tell how fast the machine is.

The benchmark runs on shared virtual machines whose speed drifts by tens of
per cent within seconds and by up to 2x over minutes, in CPU time as much
as in wall time.  ``ReferenceSampler`` measures that speed in the same
moments as the program: while it runs, a one-shot ``SIGALRM`` timer fires
every ``INTERVAL_S``, and its handler runs one slice of a fixed reference
kernel (about a millisecond) and re-arms the timer.  The handler's time is
taken out of the operation times, and an operation's time divided by the
reference time around it no longer moves with the machine, while a slower
program still reads slower.

The kernel is the direct displacement pair tally, written here and frozen,
not imported from spatent, so no change to the program moves it.  It
tallies grids the workload itself uses, generated from the run's seed
before timing (``bincount`` runs slower on long runs of one value than on
random values, and by how much depends on the machine's state, so the
kernel needs the same mix of maps as the program).  Each call tallies one
slice of displacements on every grid, in a fixed shuffled order.  One
``ref`` is the time the kernel would take for all displacements of one
grid: the mean slice time times the number of slices, over the number of
grids.  On the seed program a decompose call costs about 1 ref.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.05
# displacements join a slice until it holds this many pixel pairs, all grids
SLICE_PAIRS = 100_000
# an operation is divided by the reference samples within this many seconds
# of it, and by at least MIN_SAMPLES of the nearest ones
WINDOW_S = 0.5
MIN_SAMPLES = 8


def _displacements(rows: int, cols: int) -> list:
    """Every displacement (dr, dc) linking a pixel to a later row-major pixel."""
    out = [(0, dc) for dc in range(1, cols)]
    out += [(dr, dc) for dr in range(1, rows) for dc in range(-(cols - 1), cols)]
    return out


class ReferenceSampler:
    def __init__(self, grids) -> None:
        """``grids``: (matrix, categories) pairs, matrices of one shape with values 1..I."""
        self._grids = []
        for matrix, categories in grids:
            lut = np.arange(categories * categories).reshape(categories, categories)
            self._grids.append((np.array(matrix, dtype=np.int64) - 1, lut, categories**2))
        rows, cols = self._grids[0][0].shape
        rng = np.random.default_rng(20170317)
        disp = _displacements(rows, cols)
        order = rng.permutation(len(disp))
        self._slices, part, pairs = [], [], 0
        for i in order:
            dr, dc = disp[i]
            part.append((dr, dc))
            pairs += (rows - dr) * (cols - abs(dc)) * len(self._grids)
            if pairs >= SLICE_PAIRS:
                self._slices.append(part)
                part, pairs = [], 0
        if part:
            self._slices.append(part)
        self._next = 0
        self.busy = 0.0  # seconds spent in the kernel, in total
        self.samples: list = []  # (end time, seconds) of each slice
        self._saved = None

    def sample(self) -> None:
        """Run the next slice of the kernel and record its time."""
        rows, cols = self._grids[0][0].shape
        part = self._slices[self._next]
        self._next = (self._next + 1) % len(self._slices)
        start = time.perf_counter()
        for m, lut, codes in self._grids:
            counts = np.zeros(codes, dtype=np.int64)
            for dr, dc in part:
                if dc >= 0:
                    a, b = m[: rows - dr, : cols - dc], m[dr:, dc:]
                else:
                    a, b = m[: rows - dr, -dc:], m[dr:, : cols + dc]
                counts += np.bincount(lut[a.ravel(), b.ravel()], minlength=codes)
        end = time.perf_counter()
        self.busy += end - start
        self.samples.append((end, end - start))

    def _on_alarm(self, signum, frame) -> None:
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self) -> None:
        self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def ref_seconds(self, start: float, end: float) -> float:
        """Seconds per ref, from the samples taken around ``[start, end]``."""
        def gap(s):
            return max(start - s[0], s[0] - end, 0.0)

        near = sorted(self.samples, key=gap)
        chosen = [s for s in near if gap(s) <= WINDOW_S]
        if len(chosen) < MIN_SAMPLES:
            chosen = near[:MIN_SAMPLES]
        return sum(s[1] for s in chosen) / len(chosen) * len(self._slices) / len(self._grids)
