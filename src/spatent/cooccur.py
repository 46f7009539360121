"""Pair co-occurrence engine.

The spatial measures implemented in this package are entropies of a
transformed variable: the category pair observed at two pixels, together
with the distance class of the pixel pair.  This module owns

* the pair-category coding (ordered or unordered category pairs),
* the distance classification into half-open bands (d_{k-1}, d_k],
* the enumeration of all N(N-1)/2 unordered pixel pairs of a grid.

One ordered tally over fine enough bands holds every other tally of the same
grid: ``PairSample.coarsen`` sums adjacent bands into any classification
whose breaks it shares, and ``PairSample.fold`` adds (a, b) to (b, a) for
the unordered coding.  Both are exact integer sums.

Enumeration never materializes the pair list.  For categories a and b, the
number of ordered pairs (a at x, b at x + d) at displacement d is the
cross-correlation of their indicator images, and a band's count is that
correlation summed over the band's displacements d = (dr, dc), taken from
the row-major-earlier pixel.  On a zero-padded p1 x p2 plane (2^a 3^b 5^c
lengths of at least (2R - 1) x (2C - 1), so no correlation wraps around),
Parseval turns the band sum into one spectral inner product,

    sum over band k of corr_ab(d) = (1/P) Re sum_f w_f conj(F_a) F_b conj(G_k),

with F_a the spectrum of category a, G_k that of band k's 0/1 displacement
mask and w_f the Hermitian weight of the half spectrum.  One real GEMM per
band yields the whole I x I table; no inverse transform is needed.  With P
= p1 * p2 ~ 4N and nb bands, cost is O(nb * I * P log P) for the transforms
plus nb GEMMs of O(I^2 * P), against O(N^2) pair visits.  Memory stays near
I * N complex values: only the R non-zero rows are row-transformed, the
column transforms are finished one block at a time as the GEMM consumes
them (and redone per band rather than stored), and one band plane is reused
across bands.

The sums are rounded to int64 and checked twice (``_exact_counts``): each
must lie within 0.25 of its integer, and each band's counts must add up to
its closed-form pair total sum (R - dr)(C - |dc|).  A miss raises
ConsistencyError.  Band assignment uses the float rule of
``DistanceClassification.band_index`` exactly.

``enumerate_pairs_bruteforce`` is the independent O(N^2) reference
implementation used to verify the FFT route on small grids, in the test
suite and by the ``verify`` command; the test suite also keeps an
O(#displacements * N) displacement-grouped tally (``tests/oracles.py``) as
the reference on mid-size grids.  The routes must never be merged.
"""

from __future__ import annotations

import bisect
import io
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, product

import numpy as np

from .errors import ConsistencyError, CoverageError
from .lattice import CategoricalGrid, max_centroid_distance, window_diagonal
from .prob import JointPmf, Pmf

_UINT63_MAX = 2**63 - 1
# an FFT pair sum further than this from its integer is a numerical fault
_ROUNDING_TOL = 0.25
# bytes of category spectra finished per column block and consumed by one GEMM
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

    def intervals(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.breaks[:-1], self.breaks[1:]))

    def band_index(self, distance: float):
        """0-based band of a distance, or None when it falls outside."""
        if distance <= self.breaks[0] or distance > self.breaks[-1]:
            return None
        return bisect.bisect_left(self.breaks, distance) - 1

    def covers(self, grid: CategoricalGrid) -> bool:
        """True when every inter-pixel distance of the grid has a band."""
        return self.breaks[0] < 1.0 and self.breaks[-1] >= max_centroid_distance(grid)

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
        q.flags.writeable = False
        c.flags.writeable = False
        object.__setattr__(self, "pair_counts", q)
        object.__setattr__(self, "category_counts", c)

    @property
    def total_pairs(self) -> int:
        return int(self.pair_counts.sum())

    def pooled_category_counts(self) -> np.ndarray:
        return self.category_counts.sum(axis=0)

    def coarsen(self, classification: DistanceClassification) -> "PairSample":
        """The tally over a sub-classification, by summing adjacent bands.

        Every break of ``classification`` must be a break of this tally, so
        each of its bands is a run of consecutive bands here.  Bands outside
        its outer breaks are dropped.
        """
        position = {b: i for i, b in enumerate(self.classification.breaks)}
        missing = [b for b in classification.breaks if b not in position]
        if missing:
            raise ValueError(f"breaks {missing} are not breaks of this tally")
        at = [position[b] for b in classification.breaks]
        cumulative = np.zeros((len(position), self.scheme.num_z_categories), dtype=np.int64)
        np.cumsum(self.category_counts, axis=0, out=cumulative[1:])
        counts = cumulative[at[1:]] - cumulative[at[:-1]]
        return PairSample(self.scheme, classification, counts.sum(axis=1), counts)

    def within(self, distance: float) -> Pmf:
        """Pmf of the pair categories of all pairs at distance <= ``distance``.

        ``distance`` is one of the tally's breaks or at least its last one,
        so the pairs are exactly those of its leading bands, pooled.
        """
        lo, hi = self.classification.breaks[0], self.classification.breaks[-1]
        near = self.coarsen(DistanceClassification((lo, min(distance, hi))))
        if near.total_pairs == 0:
            raise ValueError(f"no pixel pairs at distance <= {distance}")
        return Pmf.from_counts(self.scheme.category_labels(), near.pooled_category_counts())

    def fold(self) -> "PairSample":
        """The unordered tally: ordered codes (a, b) and (b, a) added together."""
        if not self.scheme.ordered:
            return self
        scheme = CooccurrenceScheme(self.scheme.num_x_categories)
        counts = np.zeros((self.classification.num_bands, scheme.num_z_categories), dtype=np.int64)
        np.add.at(counts.T, scheme.pair_code_table().ravel(), self.category_counts.T)
        return PairSample(scheme, self.classification, self.pair_counts, counts)

    def to_csv(self, path_or_buf) -> None:
        """Write rows 'band,z_category,count' covering every cell of the table."""
        labels = self.scheme.category_labels()
        buf = io.StringIO()
        buf.write("band,z_category,count\n")
        for k, band in enumerate(self.classification.labels):
            for r, lab in enumerate(labels):
                z = "-".join(str(x) for x in lab)
                buf.write(f"{band},{z},{int(self.category_counts[k, r])}\n")
        text = buf.getvalue()
        if hasattr(path_or_buf, "write"):
            path_or_buf.write(text)
        else:
            with open(path_or_buf, "w", encoding="ascii") as fh:
                fh.write(text)


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


def _band_plane(rows, cols, p2, classification):
    """Band of every displacement, laid out as the transposed band mask plane.

    Entry [dc mod p2, dr] holds the 0-based band of displacement (dr, dc),
    or -1 where (dr, dc) links no pixel to a later row-major pixel; a
    linking displacement whose distance has no band raises CoverageError.
    Also returns each band's closed-form pair total, the sum of (rows - dr)
    * (cols - |dc|) over its displacements.  Distances and band edges follow
    ``DistanceClassification.band_index`` exactly.
    """
    dr = np.arange(rows)
    dc = np.arange(p2)[:, None]
    dc = np.where(dc < cols, dc, dc - p2)
    reach = (dc > -cols) & ((dr > 0) | (dc > 0))
    breaks = np.asarray(classification.breaks)
    dist = np.sqrt((dr * dr + dc * dc).astype(np.float64))
    inside = (dist > breaks[0]) & (dist <= breaks[-1])
    if np.any(reach & ~inside):
        j, i = np.argwhere(reach & ~inside)[0]
        raise CoverageError(
            f"distance {dist[j, i]:.6g} of displacement ({i}, {dc[j, 0]}) has no band"
        )
    band = np.searchsorted(breaks, dist, side="left") - 1
    band[~reach] = -1
    pairs = (rows - dr) * (cols - np.abs(dc))
    totals = np.bincount(
        band.ravel() + 1, weights=pairs.ravel(), minlength=classification.num_bands + 1
    )
    return band, totals[1:].astype(np.int64)


def _exact_counts(sums: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Round per-band FFT pair sums to int64, checked two ways.

    ``sums`` has one leading axis per band.  A sum further than
    ``_ROUNDING_TOL`` from its integer, or a band whose rounded counts do not
    add up to its closed-form pair total, raises ConsistencyError.
    """
    counts = np.rint(sums)
    worst = float(np.max(np.abs(sums - counts), initial=0.0))
    if worst > _ROUNDING_TOL:
        raise ConsistencyError(f"FFT pair sum lies {worst:.3g} from the nearest integer")
    counts = counts.astype(np.int64)
    got = counts.reshape(len(totals), -1).sum(axis=1)
    if np.any(got != totals):
        raise ConsistencyError(
            f"per-band pair counts {got.tolist()} disagree with the geometry {totals.tolist()}"
        )
    return counts


def _block_sum(spectra, band_spectrum, weight, p1):
    """(I, I) sums Re sum_f w_f conj(F_a) F_b conj(G) over one column block.

    Finishes the column transforms of the block's stage-one spectra, then
    takes the sum as one real GEMM on (re, im) pairs.  The block's arrays
    are freed on return, before the next block is transformed.
    """
    g = np.fft.fft(band_spectrum, n=p1, axis=1)
    f = np.fft.fft(spectra, n=p1, axis=2)
    t = f * (g.conj() * weight)
    ni = len(f)
    return f.reshape(ni, -1).view(np.float64) @ t.reshape(ni, -1).view(np.float64).T


def enumerate_pairs(
    grid: CategoricalGrid,
    classification: DistanceClassification,
    scheme: CooccurrenceScheme,
) -> PairSample:
    """Tally every unordered pixel pair by distance band and pair category.

    Pairs are unordered {u, v} with no self-pairs; for an ordered scheme the
    category tuple is read from the row-major-first pixel.  A pair whose
    distance has no band raises CoverageError.  Counts are the FFT band
    sums of the module docstring; sums that fail its exactness checks raise
    ConsistencyError.
    """
    if scheme.num_x_categories < grid.num_categories:
        raise ValueError("scheme has fewer categories than the grid")
    if grid.size < 2:
        raise ValueError("need at least two pixels to form a pair")

    rows, cols = grid.rows, grid.cols
    nb = classification.num_bands
    # circular correlation on p1 x p2 equals the linear one: no wrap-around
    p1, p2 = _fast_length(2 * rows - 1), _fast_length(2 * cols - 1)
    h2 = p2 // 2 + 1
    band, totals = _band_plane(rows, cols, p2, classification)
    m0 = grid.matrix - 1
    present = np.flatnonzero(np.bincount(m0.ravel()))
    ni = len(present)
    # stage one of each 2-D transform: row rfft of the `rows` non-zero rows,
    # stored column-major so that stage two runs along contiguous memory.
    # np.fft is loaded on first access, which keeps it out of import time.
    spectra = np.empty((ni, h2, rows), dtype=np.complex128)
    for i, a in enumerate(present):
        np.fft.rfft(m0.T == a, n=p2, axis=0, out=spectra[i])
    # Parseval over the half spectrum: columns with a mirror image count twice
    weight = np.full((h2, 1), 2.0 / (p1 * p2))
    weight[0] /= 2.0
    if p2 % 2 == 0:
        weight[-1] /= 2.0

    plane = np.empty((p2, rows))
    plane_spectrum = np.empty((h2, rows), dtype=np.complex128)
    step = max(1, _BLOCK_BYTES // (16 * ni * p1))
    sums = np.zeros((nb, ni, ni))
    for k in range(nb):
        if totals[k] == 0:
            continue
        np.equal(band, k, out=plane)
        np.fft.rfft(plane, axis=0, out=plane_spectrum)
        for j in range(0, h2, step):
            cut = slice(j, j + step)
            sums[k] += _block_sum(spectra[:, cut], plane_spectrum[cut], weight[cut], p1)

    exact = _exact_counts(sums, totals)
    counts = np.zeros((nb, scheme.num_z_categories), dtype=np.int64)
    codes = scheme.pair_code_table()[np.ix_(present, present)]
    np.add.at(counts.T, codes.ravel(), exact.reshape(nb, -1).T)
    return PairSample(scheme, classification, totals, counts)


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

    One tally over (0, window diagonal], split at ``max_distance`` and
    pooled by ``PairSample.within``.
    """
    d = DistanceClassification.single_band(max_distance).breaks[-1]
    whole = DistanceClassification((0.0, window_diagonal(grid)))
    return enumerate_pairs(grid, whole.refined((d,)), scheme).within(d)


@dataclass(frozen=True)
class PairDistributions:
    """Estimated distributions of one PairSample.

    ``p_w``: band weights Q_k / Q.  ``conditionals[k]``: pair-category pmf
    within band k, or None for an empty band.  ``p_z``: the pooled marginal,
    i.e. the Q-weighted mixture of the conditionals.  ``joint``: pair
    category x band, whose marginals reproduce p_z and p_w.
    """

    p_w: Pmf
    conditionals: tuple
    p_z: Pmf
    joint: JointPmf


def conditional_pmfs(sample: PairSample) -> PairDistributions:
    """Relative-frequency estimates of the band and pair-category laws."""
    q = sample.pair_counts
    total = sample.total_pairs
    if total == 0:
        raise ValueError("sample contains no pairs")
    band_labels = sample.classification.labels
    z_labels = sample.scheme.category_labels()

    p_w = Pmf(band_labels, q / total)
    p_z = Pmf(z_labels, sample.pooled_category_counts() / total)
    conditionals = tuple(
        Pmf(z_labels, sample.category_counts[k] / q[k]) if q[k] > 0 else None
        for k in range(len(band_labels))
    )
    joint = JointPmf(z_labels, band_labels, sample.category_counts.T / total)
    return PairDistributions(p_w, conditionals, p_z, joint)
