"""Pair co-occurrence engine.

The spatial measures implemented in this package are entropies of a
transformed variable: the category pair observed at two pixels, together
with the distance class of the pixel pair.  This module owns

* the pair-category coding (ordered or unordered category pairs),
* the distance classification into half-open bands (d_{k-1}, d_k],
* the enumeration of all N(N-1)/2 unordered pixel pairs of a grid.

One ordered tally over fine enough bands holds every other tally of the same
grid: ``PairSample.cumulative`` runs one sum over its bands, so the pairs
between any two of its breaks are a difference of two rows, and
``fold_counts`` adds (a, b) to (b, a) for the unordered coding.  Both are
exact integer sums.

Enumeration never materializes the pair list.  For categories a and b, the
number of ordered pairs (a at x, b at x + d) at displacement d is the
cross-correlation of their indicator images, and a band's count is that
correlation summed over the band's displacements d = (dr, dc), taken from
the row-major-earlier pixel.  Only the inner bands 0 .. nb-2 are summed
this way.  Their displacements reach at most Dr rows and Dc columns, so
on a zero-padded p1 x p2 plane (2^a 3^b 5^c lengths of at least (R + Dr)
x (C + Dc)) no correlation they read wraps around, and Parseval turns the
band sum into one spectral inner product,

    sum over band k of corr_ab(d) = (1/P) Re sum_f w_f conj(F_a) F_b conj(G_k),

with F_a the spectrum of category a, G_k that of band k's 0/1 displacement
mask and w_f the Hermitian weight of the half spectrum.  One real GEMM per
band yields the whole I x I table; no inverse transform is needed.  The
outermost band, which ends at the window diagonal and holds most pairs of
a large grid, is the exact integer difference of every ordered pair (a
before b in row-major order, an O(N) prefix count per category) and the
inner bands.  With P = p1 * p2 (80 x 80 for a 50 x 50 grid and 240 x 240
for 200 x 200 with the default bands, at most ~4N) and nb bands, cost is
O((I + nb) * P log P) for the transforms, nb - 1 GEMMs of O(I^2 * P) and
O(I * N) for the prefix counts, against O(N^2) pair visits.  A one-band
classification runs no FFT.

Everything that depends only on the grid shape and the bands is a
``BandGeometry``: the band of every displacement (a narrow integer map; no
float distance plane outlives band assignment), the closed-form band
totals, the plane size, and each inner G_k after its row transform, kept
only for the rows dr = 0 .. (largest dr in band k) and scaled by w.  A
batch of same-shape grids shares one.  Memory stays near I * N complex
values: only the R non-zero rows of each category are row-transformed,
and the column transforms are finished one column block at a time, each
category's block once, then each band's block in turn as its GEMM
consumes it.

The inner sums and the outermost band's differences are stacked and
checked once (``_exact_counts``): each must lie within 0.25 of its integer
and round to a count >= 0, and each band's counts must add up to its
closed-form pair total sum (R - dr)(C - |dc|).  A miss raises
ConsistencyError.  So every table derived from a tally holds valid
frequencies, and the decomposition and the contiguity indices read them
without building a validated pmf.  Band assignment uses the float rule of
``DistanceClassification.band_index`` exactly.

``enumerate_pairs_bruteforce`` is the independent O(N^2) reference
implementation used to verify the FFT route on small grids, in the test
suite and by the ``verify`` command; the test suite also keeps an
O(#displacements * N) displacement-grouped tally (``tests/oracles.py``) as
the reference on mid-size grids.  The routes must never be merged.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, product

import numpy as np

from .errors import ConsistencyError, CoverageError
from .lattice import CategoricalGrid, window_diagonal
from .prob import Pmf

_UINT63_MAX = 2**63 - 1
# an FFT pair sum further than this from its integer is a numerical fault
_ROUNDING_TOL = 0.25
# bytes of category spectra finished per column block, consumed by one GEMM per band
_BLOCK_BYTES = 1 << 18


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

    def pair_code_table(self) -> np.ndarray:
        """(I, I) lookup: 0-based categories of a pair -> 0-based pair code.

        The table is what makes vectorized tallying possible.
        """
        i = self.num_x_categories
        lut = np.empty((i, i), dtype=np.int64)
        if self.ordered:
            lut[:] = np.arange(i * i).reshape(i, i)
        else:
            code = 0
            for a in range(i):
                for b in range(a, i):
                    lut[a, b] = code
                    lut[b, a] = code
                    code += 1
        return lut


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

    def cumulative(self, breaks) -> np.ndarray:
        """Pair-category counts of the pairs at distance <= each break, one row each.

        Every break must be a break of this tally.  Rows come from one
        running sum over the bands, so the pairs between two breaks are the
        difference of their rows, and the first break's row is all zero.
        """
        position = {b: i for i, b in enumerate(self.classification.breaks)}
        missing = [b for b in breaks if b not in position]
        if missing:
            raise ValueError(f"breaks {missing} are not breaks of this tally")
        cumulative = np.zeros((len(position), self.scheme.num_z_categories), dtype=np.int64)
        np.cumsum(self.category_counts, axis=0, out=cumulative[1:])
        return cumulative[[position[b] for b in breaks]]

def fold_counts(counts: np.ndarray, num_x_categories: int) -> np.ndarray:
    """Unordered pair-category counts from ordered ones, along the last axis.

    Unordered code (a, b), a <= b, counts ordered codes (a, b) and (b, a),
    once on the diagonal; the codes come in ``category_labels`` order.
    """
    i = num_x_categories
    # the pairs a <= b in row-major order; row a starts at code a (2i - a + 1) / 2
    a = np.repeat(np.arange(i), np.arange(i, 0, -1))
    b = np.arange(a.size) - a * (2 * i - a + 1) // 2 + a
    return counts[..., a * i + b] + counts[..., b * i + a] * (a != b)


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
    """Band of every displacement, as a narrow integer map, and each band's pair total.

    Entry [|dc|, dr] of the (cols, rows) map holds the 0-based band of
    displacement (dr, dc), or -1 at the zero displacement, which links no
    pixels; a linking displacement whose distance has no band raises
    CoverageError.  A band's pair total is the sum of (rows - dr) * (cols -
    |dc|) over its displacements.  Distance is even in dc, so it is computed
    once per (|dc|, dr); distances and band edges follow
    ``DistanceClassification.band_index`` exactly.
    """
    nb = classification.num_bands
    breaks = np.asarray(classification.breaks)
    dc = np.arange(cols)[:, None]
    dr = np.arange(rows)
    dist = np.sqrt((dc * dc + dr * dr).astype(np.float64))
    outside = (dist <= breaks[0]) | (dist > breaks[-1])
    outside[0, 0] = False  # the zero displacement pairs no pixels
    if np.any(outside):
        j, i = np.argwhere(outside)[0]
        raise CoverageError(f"distance {dist[j, i]:.6g} of displacement ({i}, {j}) has no band")
    half = (np.searchsorted(breaks, dist, side="left") - 1).astype(np.min_scalar_type(-nb))
    del dist, outside  # no float plane outlives band assignment
    # (dr, dc) and (dr, -dc) both link pixels when dr > 0; at dr = 0 only dc > 0 does
    links = (rows - dr) * (cols - dc) * (np.where(dc > 0, 2, 1) - (dr == 0))
    totals = np.bincount(half.ravel() + 1, weights=links.ravel(), minlength=nb + 1)
    return half, totals[1:].astype(np.int64)


class BandGeometry:
    """Everything of a tally that depends only on the grid shape and the bands.

    ``totals[k]`` is band k's closed-form pair total.  Only the inner bands
    0 .. nb-2 are tallied by FFT; the outermost band is every pair minus
    theirs.  ``spectra[k]``, one per inner band, is band k's displacement
    mask after stage one of the 2-D transform: the row rfft of the mask's
    rows dr = 0 .. (the largest dr in band k), scaled by the Parseval
    weight, or None for a band no displacement reaches.  The p1 x p2 plane
    is sized by the largest |dr| and |dc| of the inner bands, Dr and Dc:
    p1 >= rows + Dr and p2 >= cols + Dc keep every correlation these masks
    read free of wrap-around.  One geometry serves every grid of its shape
    tallied over its classification.
    """

    def __init__(self, rows: int, cols: int, classification: DistanceClassification):
        if rows < 1 or cols < 1:
            raise ValueError("grid dimensions must be positive")
        if rows * cols < 2:
            raise ValueError("need at least two pixels to form a pair")
        self.rows, self.cols, self.classification = rows, cols, classification
        half, self.totals = _band_map(rows, cols, classification)
        self.totals.flags.writeable = False
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
        # Parseval over the half spectrum: columns with a mirror image count twice
        weight = np.full((self.p2 // 2 + 1, 1), 2.0 / (self.p1 * self.p2))
        weight[0] /= 2.0
        if self.p2 % 2 == 0:
            weight[-1] /= 2.0
        spectra = []
        for k in range(inner):
            mask = band == k
            rows_reached = np.flatnonzero(mask.any(axis=0))
            if rows_reached.size == 0:
                spectra.append(None)
                continue
            # np.fft is loaded on first access, which keeps it out of import time
            s = np.fft.rfft(mask[:, : rows_reached[-1] + 1], axis=0)
            s *= weight
            s.flags.writeable = False
            spectra.append(s)
        self.spectra = tuple(spectra)


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
    (ValueError otherwise); it saves rebuilding the band spectra for every
    grid of a batch.
    """
    if scheme.num_x_categories < grid.num_categories:
        raise ValueError("scheme has fewer categories than the grid")
    rows, cols = grid.rows, grid.cols
    if geometry is None:
        geometry = BandGeometry(rows, cols, classification)
    elif (geometry.rows, geometry.cols, geometry.classification) != (rows, cols, classification):
        raise ValueError(
            f"geometry of a {geometry.rows}x{geometry.cols} grid over bands "
            f"{geometry.classification.breaks} does not fit a {rows}x{cols} grid "
            f"over bands {classification.breaks}"
        )

    nb = classification.num_bands
    m0 = grid.matrix - 1
    present = np.flatnonzero(np.bincount(m0.ravel()))
    inner = _inner_band_sums(m0, present, geometry)
    # the outermost band is every pair minus the inner bands; one check covers all
    outer = _ordered_pair_counts(m0.ravel(), present) - np.rint(inner).sum(axis=0)
    counts = _exact_counts(np.concatenate((inner, outer[None])), geometry.totals)

    i = scheme.num_x_categories
    table = np.zeros((nb, i, i), dtype=np.int64)
    table[:, present[:, None], present] = counts
    table = table.reshape(nb, i * i)
    if not scheme.ordered:
        table = fold_counts(table, i)
    return PairSample(scheme, classification, geometry.totals, table)


def _inner_band_sums(m0, present, geometry):
    """FFT pair sums of the inner bands: (nb - 1, ni, ni) floats, per present category pair."""
    ni = len(present)
    sums = np.zeros((len(geometry.spectra), ni, ni))
    bands = [(k, s) for k, s in enumerate(geometry.spectra) if s is not None]
    if not bands:
        return sums
    p1, h2 = geometry.p1, geometry.p2 // 2 + 1
    rows = m0.shape[0]
    # stage one of each 2-D transform: row rfft of the `rows` non-zero rows,
    # stored column-major so that stage two runs along contiguous memory
    spectra = np.empty((ni, h2, rows), dtype=np.complex128)
    for i, a in enumerate(present):
        np.fft.rfft(m0.T == a, n=geometry.p2, axis=0, out=spectra[i])

    # stage two, one column block at a time: each category block is finished
    # once, then every band's block, each band feeding one real GEMM on
    # (re, im) pairs; a block's arrays are freed before the next is made
    step = max(1, _BLOCK_BYTES // (16 * ni * p1))
    for j in range(0, h2, step):
        cut = slice(j, j + step)
        f = np.fft.fft(spectra[:, cut], n=p1, axis=2)
        fr = f.reshape(ni, -1).view(np.float64)
        for k, s in bands:
            g = np.fft.fft(s[cut], n=p1, axis=1)
            t = f * np.conjugate(g, out=g)
            sums[k] += fr @ t.reshape(ni, -1).view(np.float64).T
    return sums


def _ordered_pair_counts(flat, present):
    """(ni, ni) int64 counts of the pairs (a at u, b at v) over every u < v of the grid.

    Entry (a, b), a < b, sums over the pixels v of b the number of a-pixels
    before v: one prefix count per category.  Three identities give the
    rest.  The n_a (n_a - 1) / 2 pairs of two a-pixels are all (a, a).  A
    pair of an a-pixel and a b-pixel is (a, b) or (b, a), n_a n_b in all.
    And the pixels before v number v, so column b adds up to the sum of
    the indices of b's pixels; that gives the last entry above the
    diagonal, and the last two categories need no prefix count.
    """
    positions = [np.flatnonzero(flat == a) for a in present]
    n = np.array([p.size for p in positions])
    order = np.concatenate(positions)  # pixels by category, row-major within
    starts = np.concatenate(([0], np.cumsum(n)[:-1]))
    every = np.zeros((len(n), len(n)), dtype=np.int64)
    for i, p in enumerate(positions[:-2]):
        before = np.zeros(flat.size, dtype=np.int64)
        before[p] = 1
        np.cumsum(before, out=before)  # a-pixels up to v: those before v when v is no a-pixel
        later = starts[i + 1:]
        every[i, i + 1:] = np.add.reduceat(before[order[later[0]:]], later - later[0])
    if len(n) > 1:
        every[-2, -1] = positions[-1].sum() - n[-1] * (n[-1] - 1) // 2 - every[:-2, -1].sum()
    every += np.tril(np.outer(n, n) - every.T, -1)
    every[np.diag_indices_from(every)] = n * (n - 1) // 2
    return every


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


def tabulate_within(
    grid: CategoricalGrid, max_distance: float, scheme: CooccurrenceScheme
) -> Pmf:
    """Pmf of pair categories over all pairs at distance in (0, max_distance].

    One tally over (0, window diagonal], split at ``max_distance``: its
    first band holds exactly those pairs.
    """
    d = DistanceClassification.single_band(max_distance).breaks[-1]
    whole = DistanceClassification((0.0, window_diagonal(grid)))
    near = enumerate_pairs(grid, whole.refined((d,)), scheme).category_counts[0]
    if not near.any():
        raise ValueError(f"no pixel pairs at distance <= {d}")
    return Pmf.from_counts(scheme.category_labels(), near)
