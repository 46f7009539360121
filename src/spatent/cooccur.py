"""Pair co-occurrence engine.

The spatial measures implemented in this package are entropies of a
transformed variable: the category pair observed at two pixels, together
with the distance class of the pixel pair.  This module owns

* the pair-category coding (ordered or unordered category pairs),
* the distance classification into half-open bands (d_{k-1}, d_k],
* the enumeration of all N(N-1)/2 unordered pixel pairs of a grid.

One ordered tally over fine enough bands holds every other tally of the same
grid, and every pair measure reads one through ``pairs_within``: its running
sum over the bands makes the pairs between two breaks a difference of two
rows, and ``fold_counts`` adds (a, b) to (b, a) for the unordered coding.
Both are exact integer sums.

Enumeration never materializes the pair list.  For categories a and b, the
number of ordered pairs (a at x, b at x + d) at displacement d is the
cross-correlation of their indicator images, and a band's count is that
correlation summed over the band's displacements d = (dr, dc), taken from
the row-major-earlier pixel.  Only the inner bands 0 .. nb-2 are summed
this way.  Their displacements reach at most Dr rows and Dc columns, so
on a zero-padded p1 x p2 plane (2^a 3^b 5^c lengths of at least (R + Dr)
x (C + Dc)) no correlation they read wraps around, and Parseval turns the
band sum into one spectral inner product,

    sum over band k of corr_ab(d) = (1/P) Re sum_f w_f F_a conj(F_b) G_k,

with F_a the spectrum of category a, G_k that of band k's 0/1 displacement
mask and w_f the Hermitian weight of the half spectrum (the real part of a
sum is that of its conjugate, so the conjugate falls on F, once per
category, and not on every band).  One real GEMM per band yields the whole
I x I table; no inverse transform is needed.  The present categories'
indicators add up to the window, the all-ones R x C image, whose transform
W is the outer product of two 1-D transforms of ones; so only the first
I - 1 present categories are transformed, and the last one's spectrum is
W - sum F_a.  The outermost band, which ends at the window diagonal and
holds most pairs of a large grid, is the exact integer difference of the
every-pair table (a before b in row-major order) and the inner bands.  With
P = p1 * p2 (80 x 80 for a 50 x 50 grid and 240 x 240 for 200 x 200 with
the default bands, at most ~4N) and nb bands, cost is
O((I - 1 + nb) * P log P) for the transforms, nb - 1 GEMMs of O(I^2 * P)
and O(N + I^2 * N / 8) for the every-pair table, against O(N^2) pair
visits.  A one-band classification runs no FFT.

Two parts of that cost grow with the number ni of present categories, and
for each the tally picks one of two exact routes from counts it already
has; neither choice is an option.  An inner band costs a multiply
of O(ni * P) and a GEMM of O(ni^2 * P), while counting it directly costs
one O(N) bincount of a * ni + b per displacement, over the overlap of the
grid and its shift.  So a band with fewer displacements than ni is counted
directly, its displacements read off the geometry's band map, which keeps
the float band rule: with the default bands (0, 1] (2 displacements) once
ni >= 3 and (1, 2] (4) once ni >= 5.  And the every-pair table follows with
ni <= 2 from closed-form identities, which need only the category sizes and
the index sum of the last category's pixels.  From ni = 3 on it comes from
blocks of 8 consecutive pixels in one pass: per-block histograms give the
pairs in two blocks by a GEMM, and bincounts of position pairs those inside
a block, in bands of blocks whose temporaries stay in cache.  Each band of
blocks' GEMM is added to an int64 total, and its entries stay far below
2^53, so the route is exact at any grid size that fits in memory.

A one-shot tally of two present categories a and b reads no band spectrum
at all.  One transformed category holds all four cells of every inner
band: with corr(d) the autocorrelation of a's indicator, every pixel is a
or b, so a band's (a, b) count is the a-pixels whose partner lies in the
window less its sum of corr, (b, a) likewise, and (b, b) the band total
less those three.  corr is one inverse transform of |F_a|^2, pruned to the
rows dr = 0 .. Dr, and the a-pixel counts come from Dr + 1 row cuts of the
column counts, so this route costs one category's transforms and one
inverse, against the nb - 1 band transforms and GEMMs of the band route.
A batch keeps the band route, since it finishes the band spectra once for
every grid, and so does every tally of three or more categories, where one
inverse per category pair costs more than the GEMMs.

Everything that depends only on the grid shape and the bands is a
``BandGeometry``: the band of each displacement the inner bands reach (a
narrow integer map, and the same laid out on the plane as [dc mod p2,
dr]), the closed-form band totals and the plane size.  The band route
also reads each inner G_k after its row transform, kept only for the rows
dr = 0 .. (largest dr in band k) and scaled by w, and the two 1-D factors
of W; the geometry builds those on first use, so the two-category route
never pays for them.  A batch of same-shape grids shares one geometry,
which also keeps each finished G_k once a tally first needs it; a one-shot
tally by the band route finishes each band's column block as it goes.
Memory stays near (I - 1) * N complex values: only the R non-zero rows of
each transformed category are row-transformed, and the column transforms
run one column block at a time, each category's block once, then
multiplied by each band's block or, on the two-category route, inverted
along p1 into Dr + 1 rows, in buffers allocated once per tally.

The inner sums and the outermost band's differences are stacked and
checked once (``_exact_counts``): each must lie within 0.25 of its integer
and round to a count >= 0, and each band's counts must add up to its
closed-form pair total sum (R - dr)(C - |dc|).  On the two-category route
that total holds by construction, so each autocorrelation value a band
reads is held to the same 0.25 first.  A miss raises ConsistencyError.
So every table derived from a tally holds valid frequencies, and the
decomposition and the contiguity indices read them without building a
validated pmf.  Band assignment uses the float rule of
``DistanceClassification.band_index`` exactly.

``enumerate_pairs_bruteforce`` is the independent O(N^2) reference
implementation used to verify the FFT route on small grids, in the test
suite and by the ``verify`` command; the test suite also keeps an
O(#displacements * N) displacement-grouped tally (``tests/oracles.py``) as
the reference on mid-size grids.  The routes must never be merged.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, product

import numpy as np

from .errors import ConsistencyError, CoverageError
from .lattice import CategoricalGrid, window_diagonal

_UINT63_MAX = 2**63 - 1
# an FFT pair sum further than this from its integer is a numerical fault
_ROUNDING_TOL = 0.25
# bytes of category spectra finished per column block, consumed by one GEMM per
# band; and of the position pairs of one band of pixel blocks
_BLOCK_BYTES = 1 << 18
# pixels per block of the all-pairs route of three or more categories
_PAIR_BLOCK = 8


def count_categories(scheme: "CooccurrenceScheme") -> int:
    """Number of distinct category pairs the scheme can produce.

    Ordered pairs of I categories: I^2.  Unordered pairs: C(I + 1, 2) =
    (I^2 + I) / 2.
    """
    i = scheme.num_x_categories
    n = i * i if scheme.ordered else math.comb(i + 1, 2)
    if n > _UINT63_MAX:
        raise OverflowError(f"category count {n} exceeds the 64-bit range")
    return n


@dataclass(frozen=True)
class CooccurrenceScheme:
    """How the category pair at two pixels is coded as one co-occurrence category.

    ``ordered=False`` identifies permutations: the pair (a, b) is stored
    sorted.  ``ordered=True`` keeps orientation; for pairs the first element
    is the pixel that comes first in row-major order, i.e. the pair is read
    moving rightward and downward.
    """

    num_x_categories: int
    ordered: bool = False

    def __post_init__(self) -> None:
        if self.num_x_categories < 1:
            raise ValueError("num_x_categories must be >= 1")

    @property
    def num_z_categories(self) -> int:
        return count_categories(self)

    def category_labels(self) -> tuple:
        """All category pairs in canonical order, 1-based codes."""
        rng = range(1, self.num_x_categories + 1)
        if self.ordered:
            return tuple(product(rng, repeat=2))
        return tuple(combinations_with_replacement(rng, 2))


@dataclass(frozen=True)
class DistanceClassification:
    """Strictly increasing break points defining half-open distance bands.

    Band k (1-based label 'wk') is the interval (breaks[k-1], breaks[k]].
    Distances at or below breaks[0] and above breaks[-1] belong to no band.
    """

    breaks: tuple

    def __post_init__(self) -> None:
        b = tuple(float(x) for x in self.breaks)
        if len(b) < 2:
            raise ValueError("need at least two break points")
        if not all(math.isfinite(x) for x in b):
            raise ValueError("break points must be finite")
        if b[0] < 0.0:
            raise ValueError("break points must be >= 0")
        if any(x >= y for x, y in zip(b, b[1:])):
            raise ValueError("break points must be strictly increasing")
        object.__setattr__(self, "breaks", b)

    @classmethod
    def default_for(cls, grid: CategoricalGrid) -> "DistanceClassification":
        """Bands (0,1], (1,2], (2,5], (5,10], (10,20], (20,30], (30, diag].

        The final break is the window diagonal, so every pair is covered;
        interior breaks that the grid cannot reach are dropped.
        """
        diag = window_diagonal(grid)
        interior = [b for b in (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0) if b < diag]
        return cls(tuple(interior) + (diag,))

    @classmethod
    def single_band(cls, max_distance: float) -> "DistanceClassification":
        """The cumulative band (0, max_distance]."""
        return cls((0.0, float(max_distance)))

    @property
    def num_bands(self) -> int:
        return len(self.breaks) - 1

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(f"w{k + 1}" for k in range(self.num_bands))

    def band_index(self, distance: float):
        """0-based band of a distance, or None when it falls outside."""
        if distance <= self.breaks[0] or distance > self.breaks[-1]:
            return None
        return bisect.bisect_left(self.breaks, distance) - 1

    def refined(self, extra) -> "DistanceClassification":
        """This classification split further at the extra breaks strictly inside it."""
        lo, hi = self.breaks[0], self.breaks[-1]
        inner = {float(b) for b in extra if lo < b < hi}
        return DistanceClassification(tuple(sorted(inner.union(self.breaks))))


@dataclass(frozen=True)
class PairSample:
    """Tally of all pixel pairs of one grid: counts per band and pair category.

    ``pair_counts[k]`` is the number of pairs in band k; ``category_counts``
    is the (num_bands, num_z_categories) table of pair-category counts.
    """

    scheme: CooccurrenceScheme
    classification: DistanceClassification
    pair_counts: np.ndarray
    category_counts: np.ndarray

    def __post_init__(self) -> None:
        q = np.asarray(self.pair_counts, dtype=np.int64)
        c = np.asarray(self.category_counts, dtype=np.int64)
        if c.shape != (self.classification.num_bands, self.scheme.num_z_categories):
            raise ValueError("category_counts shape does not match scheme/classification")
        if q.shape != (self.classification.num_bands,):
            raise ValueError("pair_counts shape does not match classification")
        if np.any(c.sum(axis=1) != q):
            raise ValueError("per-band category counts do not sum to pair counts")
        if np.any(c < 0):
            raise ValueError("category counts must be non-negative")
        q.flags.writeable = False
        c.flags.writeable = False
        object.__setattr__(self, "pair_counts", q)
        object.__setattr__(self, "category_counts", c)

    @property
    def total_pairs(self) -> int:
        return int(self.pair_counts.sum())


def fold_counts(counts: np.ndarray, num_x_categories: int) -> np.ndarray:
    """Unordered pair-category counts from ordered ones, along the last axis.

    Unordered code (a, b), a <= b, counts ordered codes (a, b) and (b, a),
    once on the diagonal; the codes come in ``category_labels`` order.
    """
    ab, ba, off = _fold_index(num_x_categories)
    return counts[..., ab] + counts[..., ba] * off


@functools.cache
def _fold_index(i: int) -> tuple:
    """Read-only gathers of ``fold_counts`` for I = i: codes (a, b) and (b, a), and a != b."""
    # the pairs a <= b in row-major order; row a starts at code a (2i - a + 1) / 2
    a = np.repeat(np.arange(i), np.arange(i, 0, -1))
    b = np.arange(a.size) - a * (2 * i - a + 1) // 2 + a
    index = (a * i + b, b * i + a, a != b)
    for x in index:
        x.flags.writeable = False
    return index


def _fast_length(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n: a length pocketfft transforms quickly."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def _band_map(rows, cols, classification):
    """Band of each displacement the inner bands reach, every band's pair total, inner sizes.

    The float rule of ``DistanceClassification.band_index`` is even in dc
    and monotone in dr^2 + dc^2, so the inner bands reach only dr, |dc| <=
    floor(breaks[-2]).  Entry [|dc|, dr] of that block, clipped to (cols,
    rows), holds the 0-based band of displacement (dr, dc), or -1 at the
    zero displacement, which links no pixels (the block's only entry with
    one band).  An inner band's pair total sums (rows - dr) * (cols - |dc|)
    over its displacements; the outermost band's is every pair minus theirs.
    An inner band's size is its number of linking displacements.  Linking
    distances run from 1 to sqrt((rows-1)^2 + (cols-1)^2), so these
    two decide coverage; a miss raises ``_coverage_error``.
    """
    nb = classification.num_bands
    breaks = np.asarray(classification.breaks)
    if not (breaks[0] < 1.0 and math.sqrt(float((rows - 1) ** 2 + (cols - 1) ** 2)) <= breaks[-1]):
        raise _coverage_error(rows, cols, breaks)
    reach = math.floor(breaks[-2]) + 1  # 1 with one band, as breaks[0] < 1
    dc = np.arange(min(cols, reach))[:, None]
    dr = np.arange(min(rows, reach))
    dist = np.sqrt((dc * dc + dr * dr).astype(np.float64))
    # the type holds band + 1 for the bincounts below
    half = (np.searchsorted(breaks, dist, side="left") - 1).astype(np.min_scalar_type(-nb - 1))
    del dist  # no float plane outlives band assignment
    # (dr, dc) and (dr, -dc) both link pixels when dr > 0; at dr = 0 only dc > 0 does
    linking = np.where(dc > 0, 2, 1) - (dr == 0)
    slot = half.ravel() + 1
    links = (rows - dr) * (cols - dc) * linking
    totals = np.bincount(slot, weights=links.ravel(), minlength=nb + 1)
    inner = totals[1:nb].astype(np.int64)
    sizes = np.bincount(slot, weights=linking.ravel(), minlength=nb + 1)[1:nb].astype(np.int64)
    total = rows * cols * (rows * cols - 1) // 2 - inner.sum()
    return half, np.append(inner, total), sizes


def _coverage_error(rows, cols, breaks):
    """CoverageError naming the first linking displacement, in (|dc|, dr) order, with no band.

    Distance grows with dr in each column |dc|, so the column's nearest
    linking displacement (dr = 0, or 1 at dc = 0) and its farthest (dr =
    rows - 1) find the first column holding one, in O(rows + cols).
    """
    dc, dr = np.arange(cols), np.arange(rows)
    nearest = np.sqrt((dc * dc + (dc == 0)).astype(np.float64))
    farthest = np.sqrt((dc * dc + (rows - 1) ** 2).astype(np.float64))
    holds = (nearest <= breaks[0]) | (farthest > breaks[-1])
    holds[0] &= rows > 1  # column 0 links no pixels of a one-row grid
    j = int(np.argmax(holds))
    dist = np.sqrt((j * j + dr * dr).astype(np.float64))
    outside = (dist <= breaks[0]) | (dist > breaks[-1])
    outside[0] &= j > 0  # the zero displacement pairs no pixels
    i = int(np.argmax(outside))
    return CoverageError(f"distance {dist[i]:.6g} of displacement ({i}, {j}) has no band")


class BandGeometry:
    """Everything of a tally that depends only on the grid shape and the bands.

    ``totals[k]`` is band k's closed-form pair total and ``sizes[k]`` inner
    band k's number of linking displacements.  Only the inner bands 0 ..
    nb-2 are tallied by displacement, and only the box of displacements
    they can reach is mapped; the outermost band is every pair minus theirs.
    ``displacements(k)`` lists band k's (dr, dc), read off that map for the
    bands a tally counts directly.  The p1 x p2 plane is sized by the
    largest |dr| and |dc| of the inner bands, Dr and Dc: p1 >= rows + Dr and
    p2 >= cols + Dc keep every correlation a tally reads free of
    wrap-around.  ``plane``, read-only (p2, Dr + 1), holds at [dc mod p2,
    dr] the band of each displacement (dr, dc) with |dc| <= Dc, and -1 where
    it links no pixel to a later one; an autocorrelation over the plane,
    kept for the rows dr = 0 .. Dr, has the same layout.  One geometry
    serves every grid of its shape tallied over its classification.

    The band route reads three more, each built on first use, so a
    two-category one-shot tally never builds them.  ``spectra[k]``, one per
    inner band, is band k's displacement mask after stage one of the 2-D
    transform: the row rfft of the mask's rows dr = 0 .. (the largest dr in
    band k), scaled by the Parseval weight, or None for a band no
    displacement reaches.  ``window`` holds the two 1-D factors of the
    window's 2-D transform, W = window[0] * window[1] over (p2//2 + 1, p1),
    or None when no inner band is reached; it is built with ``spectra``.
    ``finished``, each inner band's G_k, is built for a batch the first time
    a tally is given this geometry: (nb - 1) * (p2//2 + 1) * p1 * 16 bytes,
    about 0.3 MiB at 50 x 50, 2.7 MiB at 200 x 200 and 53 MiB at 1000 x
    1000 with the default bands.
    """

    def __init__(self, rows: int, cols: int, classification: DistanceClassification):
        if rows < 1 or cols < 1:
            raise ValueError("grid dimensions must be positive")
        if rows * cols < 2:
            raise ValueError("need at least two pixels to form a pair")
        self.rows, self.cols, self.classification = rows, cols, classification
        half, self.totals, self.sizes = _band_map(rows, cols, classification)
        self.totals.flags.writeable = False
        self.sizes.flags.writeable = False
        inner = classification.num_bands - 1
        dcs, drs = np.nonzero((half >= 0) & (half < inner))
        reach_r, reach_c = (int(drs.max()), int(dcs.max())) if drs.size else (0, 0)
        self.p1, self.p2 = _fast_length(rows + reach_r), _fast_length(cols + reach_c)
        # the band of (dr, dc) at [dc mod p2, dr], as far as the inner bands
        # reach; at dr = 0 only dc > 0 links a pixel to a later one
        reached = half[: reach_c + 1, : reach_r + 1]
        band = np.full((self.p2, reach_r + 1), -1, dtype=half.dtype)
        band[: reach_c + 1] = reached
        band[self.p2 - reach_c:] = reached[:0:-1]
        band[self.p2 - reach_c:, 0] = -1
        band.flags.writeable = False
        self.plane = band
        self._reached, self._displacements = reached, {}

    @functools.cached_property
    def _stage_one(self) -> tuple:
        """``(spectra, window)``, built together on first use."""
        # Parseval over the half spectrum: columns with a mirror image count twice
        weight = np.full((self.p2 // 2 + 1, 1), 2.0 / (self.p1 * self.p2))
        weight[0] /= 2.0
        if self.p2 % 2 == 0:
            weight[-1] /= 2.0
        spectra = []
        for k in range(len(self.sizes)):
            mask = self.plane == k
            rows_reached = np.flatnonzero(mask.any(axis=0))
            if rows_reached.size == 0:
                spectra.append(None)
                continue
            # np.fft is loaded on first access, which keeps it out of import time
            s = np.fft.rfft(mask[:, : rows_reached[-1] + 1], axis=0)
            s *= weight
            s.flags.writeable = False
            spectra.append(s)
        window = None
        if any(s is not None for s in spectra):
            # the window's 2-D transform is the outer product of these two
            window = (
                np.fft.rfft(np.ones(self.cols), n=self.p2)[:, None],
                np.fft.fft(np.ones(self.rows), n=self.p1),
            )
            for w in window:
                w.flags.writeable = False
        return tuple(spectra), window

    @property
    def spectra(self) -> tuple:
        """Per inner band, its stage-one spectrum, read-only, or None; built on first use."""
        return self._stage_one[0]

    @property
    def window(self):
        """The window's two 1-D transform factors, or None; built on first use with ``spectra``."""
        return self._stage_one[1]

    def displacements(self, k: int) -> tuple:
        """Inner band k's displacements (dr, dc), read off the band map once per geometry."""
        if k not in self._displacements:
            dcs, drs = (x.tolist() for x in np.nonzero(self._reached == k))
            # (dr, -dc) links a pixel to a later one too, unless dr = 0
            mirrored = [(dr, -dc) for dr, dc in zip(drs, dcs) if dr > 0 and dc > 0]
            self._displacements[k] = tuple(zip(drs, dcs)) + tuple(mirrored)
        return self._displacements[k]

    @functools.cached_property
    def finished(self) -> tuple:
        """Per inner band, G_k, read-only (p2//2 + 1, p1), or None; built on first use."""
        finished = []
        for s in self.spectra:
            if s is not None:
                s = _finish_band(s, self.p1)
                s.flags.writeable = False
            finished.append(s)
        return tuple(finished)


def _finish_band(block, p1, out=None):
    """G_k over a column block of band k's stage-one spectrum, written into ``out`` when given."""
    return np.fft.fft(block, n=p1, axis=1, out=out)


def _exact_counts(sums: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Round per-band FFT pair sums to int64, checked three ways.

    ``sums`` has one leading axis per band.  A sum further than
    ``_ROUNDING_TOL`` from its integer, a negative rounded count, or a band
    whose rounded counts do not add up to its closed-form pair total raises
    ConsistencyError.
    """
    counts = np.rint(sums)
    worst = float(np.max(np.abs(sums - counts), initial=0.0))
    if worst > _ROUNDING_TOL:
        raise ConsistencyError(f"FFT pair sum lies {worst:.3g} from the nearest integer")
    counts = counts.astype(np.int64)
    if np.any(counts < 0):
        raise ConsistencyError(f"FFT pair sum rounds to the negative count {counts.min()}")
    got = counts.sum(axis=tuple(range(1, counts.ndim)))
    if np.any(got != totals):
        raise ConsistencyError(
            f"per-band pair counts {got.tolist()} disagree with the geometry {totals.tolist()}"
        )
    return counts


def enumerate_pairs(
    grid: CategoricalGrid,
    classification: DistanceClassification,
    scheme: CooccurrenceScheme,
    *,
    geometry: BandGeometry | None = None,
) -> PairSample:
    """Tally every unordered pixel pair by distance band and pair category.

    Pairs are unordered {u, v} with no self-pairs; for an ordered scheme the
    category tuple is read from the row-major-first pixel.  A pair whose
    distance has no band raises CoverageError.  The inner bands' counts are
    the FFT band sums of the module docstring, and the outermost band's are
    every ordered pair of the grid minus theirs; counts that fail its
    exactness checks raise ConsistencyError.  ``geometry``, when given,
    must have been built for the grid's shape and ``classification``
    (ValueError otherwise).  Passing one marks batch use: the tally reads the
    band spectra the geometry finished once for every grid of the batch.
    Without one, the tally builds its own geometry and finishes each band's
    column block as it goes, which keeps its peak memory near I * N; with
    two present categories it reads one autocorrelation and no band
    spectrum instead.
    """
    if scheme.num_x_categories < grid.num_categories:
        raise ValueError("scheme has fewer categories than the grid")
    rows, cols = grid.rows, grid.cols
    batch = geometry is not None
    if not batch:
        geometry = BandGeometry(rows, cols, classification)
    elif (geometry.rows, geometry.cols, geometry.classification) != (rows, cols, classification):
        raise ValueError(
            f"geometry of a {geometry.rows}x{geometry.cols} grid over bands "
            f"{geometry.classification.breaks} does not fit a {rows}x{cols} grid "
            f"over bands {classification.breaks}"
        )

    nb = classification.num_bands
    present = np.flatnonzero(np.bincount(grid.values))  # the codes on the grid
    inner = _inner_band_sums(grid.matrix, present, geometry, batch)
    # the outermost band is every pair minus the inner bands; one check covers all
    outer = _ordered_pair_counts(grid.values, present) - np.rint(inner).sum(axis=0)
    counts = _exact_counts(np.concatenate((inner, outer[None])), geometry.totals)

    i = scheme.num_x_categories
    table = np.zeros((nb, i, i), dtype=np.int64)
    cells = present - 1
    table[:, cells[:, None], cells] = counts
    table = table.reshape(nb, i * i)
    if not scheme.ordered:
        table = fold_counts(table, i)
    return PairSample(scheme, classification, geometry.totals, table)


def pairs_within(
    grid: CategoricalGrid, classification: DistanceClassification, distances=(), *, geometry=None
) -> np.ndarray:
    """Ordered pair-category counts of the pairs at distance <= each break, then <= each distance.

    One int64 row per break of ``classification``, then one per distance
    clamped to [breaks[0], breaks[-1]], from one running sum over one
    ordered tally split further at ``distances``: the first row is all
    zero, the pairs between two breaks are the difference of their rows,
    and ``fold_counts`` folds any row.  ``geometry`` is as for
    ``enumerate_pairs``, built over the split bands.
    """
    lo, hi = classification.breaks[0], classification.breaks[-1]
    ends = classification.breaks + tuple(min(max(float(d), lo), hi) for d in distances)
    fine = classification.refined(distances)
    scheme = CooccurrenceScheme(grid.num_categories, ordered=True)
    tally = enumerate_pairs(grid, fine, scheme, geometry=geometry)
    within = np.zeros((len(fine.breaks), scheme.num_z_categories), dtype=np.int64)
    np.cumsum(tally.category_counts, axis=0, out=within[1:])
    return within[np.searchsorted(fine.breaks, ends)]


def _inner_band_sums(codes, present, geometry, batch):
    """Pair sums of the inner bands: (nb - 1, ni, ni) floats, per present category pair.

    ``codes`` is the (rows, cols) grid and ``present`` the ni codes on it.
    A band with fewer displacements than ni holds its exact direct counts,
    the others their FFT sums.  Only the first ni - 1 present categories are
    transformed: every pixel lies in a present category, so the last one's
    spectrum is the window's minus theirs.  A ``batch`` reads its geometry's
    ``finished`` bands; a one-shot tally finishes each band's column block
    here, into one buffer, or, with two present categories, takes
    ``_two_category_sums`` and no band spectrum.
    """
    ni = len(present)
    if ni == 2 and not batch:
        return _two_category_sums(codes, present[0], geometry)
    sums = np.zeros((len(geometry.sizes), ni, ni))
    direct = [k for k, size in enumerate(geometry.sizes) if 0 < size < ni]
    if direct:
        sums[direct] = _direct_band_counts(codes, present, map(geometry.displacements, direct))
    bands = [(k, s) for k, s in enumerate(geometry.spectra) if geometry.sizes[k] >= ni]
    if not bands:
        return sums
    finished = geometry.finished if batch else None
    p1, h2 = geometry.p1, geometry.p2 // 2 + 1
    rows = codes.shape[0]
    # stage one of each 2-D transform: row rfft of the `rows` non-zero rows,
    # stored column-major so that stage two runs along contiguous memory
    spectra = np.empty((ni - 1, h2, rows), dtype=np.complex128)
    for i, a in enumerate(present[:-1]):
        np.fft.rfft(codes.T == a, n=geometry.p2, axis=0, out=spectra[i])

    # stage two, one column block at a time: the category block is finished
    # and conjugated once, then multiplied by every band's block, each band
    # feeding one real GEMM on (re, im) pairs; all blocks share three buffers
    step = min(h2, max(1, _BLOCK_BYTES // (16 * ni * p1)))
    cats, product = (np.empty(ni * step * p1, dtype=np.complex128) for _ in range(2))
    band = None if batch else np.empty(step * p1, dtype=np.complex128)
    row_w, col_w = geometry.window
    for j in range(0, h2, step):
        cut = slice(j, j + step)
        width = min(step, h2 - j)
        f = cats[: ni * width * p1].reshape(ni, width, p1)
        t = product[: f.size].reshape(f.shape)
        np.fft.fft(spectra[:, cut], n=p1, axis=2, out=f[:-1])
        # every pixel lies in a present category: the last one's block is W minus the others'
        np.sum(f[:-1], axis=0, out=f[-1])
        np.multiply(row_w[cut], col_w, out=t[0])
        np.subtract(t[0], f[-1], out=f[-1])
        np.conjugate(f, out=f)
        fr = f.reshape(ni, -1).view(np.float64)
        for k, s in bands:
            if batch:
                g = finished[k][cut]
            else:
                g = _finish_band(s[cut], p1, out=band[: width * p1].reshape(width, p1))
            np.multiply(f, g, out=t)
            sums[k] += fr @ t.reshape(ni, -1).view(np.float64).T
    return sums


def _two_category_sums(codes, a, geometry):
    """``_inner_band_sums`` of a grid whose only categories are ``a`` and one other, b.

    Every pixel is a or b.  So with corr(d) the autocorrelation of a's
    indicator, the pairs at displacement d read (a, b) for the a-pixels x
    with x + d in the window less corr(d), (b, a) for the a-pixels y with y
    - d in it less corr(d), and (b, b) for the rest of d's pairs.  Over band
    k, with A and B those a-pixel counts and T_k the closed-form total:
    c_aa = sum corr, c_ab = A - c_aa, c_ba = B - c_aa and c_bb = T_k - A -
    B + c_aa.  The four add up to T_k by construction, so the check that
    can fail here is on corr: each value a band reads must lie within
    ``_ROUNDING_TOL`` of its integer (ConsistencyError otherwise), and the
    bands sum the rounded values.  A and B come from the a-pixels per
    column in the rows [0, R - dr) and [dr, R), whose running sums along the
    columns give each displacement's count as one difference.
    """
    nb = len(geometry.sizes)
    sums = np.zeros((nb, 2, 2))
    plane = geometry.plane
    live = (plane >= 0) & (plane < nb)
    if not live.any():
        return sums
    rows, cols = codes.shape
    depth = plane.shape[1]
    mask = codes == a
    # a-pixels per column in the rows [0, rows - dr) (top) and [dr, rows) (bottom),
    # with a leading zero column for the running sums along the columns
    top, bottom = (np.zeros((depth, cols + 1), dtype=np.int64) for _ in range(2))
    top[:, 1:] = bottom[:, 1:] = mask.sum(axis=0)
    top[1:, 1:] -= np.cumsum(mask[: rows - depth : -1], axis=0)
    bottom[1:, 1:] -= np.cumsum(mask[: depth - 1], axis=0)
    np.cumsum(top, axis=1, out=top)
    np.cumsum(bottom, axis=1, out=bottom)

    corr = _autocorrelation(mask, geometry)[live]
    rounded = np.rint(corr)
    worst = float(np.max(np.abs(corr - rounded)))
    if worst > _ROUNDING_TOL:
        raise ConsistencyError(f"FFT autocorrelation lies {worst:.3g} from the nearest integer")
    j, dr = np.nonzero(live)
    band = plane[j, dr]
    dc = j - geometry.p2 * (j > geometry.p2 // 2)
    right, left = np.maximum(dc, 0), np.maximum(-dc, 0)
    first = np.bincount(band, top[dr, cols - right] - top[dr, left], nb)
    second = np.bincount(band, bottom[dr, cols - left] - bottom[dr, right], nb)
    same = np.bincount(band, rounded, nb)
    sums[:, 0, 0] = same
    sums[:, 0, 1] = first - same
    sums[:, 1, 0] = second - same
    sums[:, 1, 1] = geometry.totals[:-1] - first - second + same
    return sums


def _autocorrelation(mask, geometry):
    """corr(dr, dc) of the 0/1 image ``mask``, laid out like the geometry's ``plane``.

    One inverse transform of |F|^2, with F the 2-D spectrum from the band
    route's two stages: along p1 one column block at a time, kept for the
    rows dr = 0 .. Dr only, then along p2 into (p2, Dr + 1) floats.
    """
    p1, p2, depth = geometry.p1, geometry.p2, geometry.plane.shape[1]
    h2 = p2 // 2 + 1
    spectrum = np.fft.rfft(mask.T, n=p2, axis=0)  # (h2, rows), as in the band route
    step = min(h2, max(1, _BLOCK_BYTES // (16 * p1)))
    buffer = np.empty(step * p1, dtype=np.complex128)
    kept = np.empty((h2, depth), dtype=np.complex128)
    for j in range(0, h2, step):
        cut = slice(j, j + step)
        f = buffer[: min(step, h2 - j) * p1].reshape(-1, p1)
        np.fft.fft(spectrum[cut], n=p1, axis=1, out=f)
        f *= f.conj()
        np.fft.ifft(f, axis=1, out=f)
        kept[cut] = f[:, :depth]
    return np.fft.irfft(kept, n=p2, axis=0)


def _compact(values, present):
    """Each value's rank among the present categories, as intp."""
    rank = np.zeros(present[-1] + 1, dtype=np.intp)
    rank[present] = np.arange(present.size)
    return rank[values]


def _direct_band_counts(matrix, present, bands):
    """Exact (len(bands), ni, ni) counts of the pairs (a at x, b at x + d) over each band's d.

    ``bands`` yields each band's displacements (dr, dc).  One displacement
    is one bincount of a * ni + b over the overlap of the grid and its shift,
    with a and b the ranks of the codes among the ``present`` ones.
    """
    codes = _compact(matrix, present)
    rows, cols = codes.shape
    ni = present.size
    first = codes * ni
    counts = []
    for displacements in bands:
        c = np.zeros(ni * ni, dtype=np.int64)
        for dr, dc in displacements:
            lo, hi = max(0, -dc), cols - max(0, dc)
            pair = first[: rows - dr, lo:hi] + codes[dr:, lo + dc : hi + dc]
            c += np.bincount(pair.ravel(), minlength=ni * ni)
        counts.append(c.reshape(ni, ni))
    return counts


def _ordered_pair_counts(flat, present):
    """(ni, ni) int64 counts of the pairs (a at u, b at v) over every u < v of the grid.

    From ni = 3 on, ``_block_pair_counts`` counts the table.  With ni <= 2,
    identities give it from the category sizes n and one index sum.  The
    n_a (n_a - 1) / 2 pairs of two a-pixels are all (a, a).  A pair of an
    a-pixel and a b-pixel is (a, b) or (b, a), n_a n_b in all.  And the
    pixels before v number v, so column b adds up to the sum of the indices
    of b's pixels.
    """
    if len(present) > 2:
        return _block_pair_counts(flat, present)
    if len(present) == 1:
        return np.array([[flat.size * (flat.size - 1) // 2]])
    last = np.flatnonzero(flat == present[1])
    n = np.array([flat.size - last.size, last.size])
    every = np.diag(n * (n - 1) // 2)
    every[0, 1] = last.sum() - every[1, 1]
    every[1, 0] = n[0] * n[1] - every[0, 1]
    return every


def _block_pair_counts(flat, present):
    """``_ordered_pair_counts`` from blocks of ``_PAIR_BLOCK`` consecutive pixels.

    A pair lies in two blocks or inside one.  Pairs in two blocks sum, over
    the blocks, the outer product of the categories in the blocks before it
    and its own: a GEMM over per-block histograms.  Pairs inside a block
    are its position pairs (s, s + shift), bincounts of a * k + b over them.
    The last block is padded with the extra code ni, whose row and column
    are dropped.  The blocks run in bands whose position pairs take
    ``_BLOCK_BYTES``, so that the temporaries stay in cache.  Each band's
    float64 GEMM is cast to int64 and added to an int64 total.  An entry of
    one band's GEMM sums m <= ``_BLOCK_BYTES`` // 224 = 1,170 blocks, each
    term at most N earlier pixels times the block's 8; so every partial sum
    is an integer <= N * 8 * 1,170, exact while N < 9.6e11 pixels, far past
    any grid that fits in memory.
    """
    ni, n = present.size, flat.size
    k, w = ni + 1, _PAIR_BLOCK
    nblk = -(-n // w)
    codes = np.full(nblk * w, ni, dtype=np.intp)
    codes[:n] = _compact(flat, present)
    codes = codes.reshape(nblk, w)
    step = min(nblk, _BLOCK_BYTES // (4 * w * (w - 1)))
    pairs = np.empty((w * (w - 1) // 2, step), dtype=np.intp)
    across = np.zeros((k, k), dtype=np.int64)
    seen = np.zeros((k, 1))  # the categories of the bands before
    inside = np.zeros(k * k, dtype=np.int64)
    for start in range(0, nblk, step):
        pos = codes[start : start + step].T.copy()  # row s holds position s of each block
        m = pos.shape[1]
        hist = np.bincount((pos * m + np.arange(m)).ravel(), minlength=k * m)
        hist = hist.reshape(k, m).astype(np.float64)
        before = np.cumsum(hist, axis=1)
        before -= hist
        before += seen
        across += (before @ hist.T).astype(np.int64)
        seen = before[:, -1:] + hist[:, -1:]
        first = pos * k
        row = 0
        for shift in range(1, w):
            np.add(first[:-shift], pos[shift:], out=pairs[row : row + w - shift, :m])
            row += w - shift
        inside += np.bincount(pairs[:, :m].ravel(), minlength=k * k)
    every = across + inside.reshape(k, k)
    return every[:ni, :ni]


def enumerate_pairs_bruteforce(
    grid: CategoricalGrid,
    classification: DistanceClassification,
    scheme: CooccurrenceScheme,
) -> PairSample:
    """Reference tally visiting all N(N-1)/2 pairs one by one.

    Independent of the displacement route by design: distances come from
    ``pixel_distance`` on pixel indices, categories from the flat value
    vector.  Quadratic cost; intended for grids up to a few hundred pixels.
    """
    from .lattice import pixel_distance

    if grid.size < 2:
        raise ValueError("need at least two pixels to form a pair")

    labels = scheme.category_labels()
    index = {lab: r for r, lab in enumerate(labels)}
    nb = classification.num_bands
    counts = np.zeros((nb, len(labels)), dtype=np.int64)
    pair_counts = np.zeros(nb, dtype=np.int64)
    vals = grid.values
    for u in range(grid.size - 1):
        for v in range(u + 1, grid.size):
            d = pixel_distance(u, v, grid)
            k = classification.band_index(d)
            if k is None:
                raise CoverageError(f"distance {d:.6g} has no band")
            a, b = int(vals[u]), int(vals[v])
            key = (a, b) if scheme.ordered else (min(a, b), max(a, b))
            counts[k, index[key]] += 1
            pair_counts[k] += 1
    return PairSample(scheme, classification, pair_counts, counts)

