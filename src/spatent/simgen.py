"""Seeded scenario generators for the comparative study.

Every scenario fixes a category mix (the counts) and arranges exactly those
counts on the grid, so all arrangements of one replicate share the same
non-spatial entropy and differ only in spatial structure:

* ``random``       - a uniform permutation of the category multiset;
* ``compact``      - one solid block per category along a boustrophedon
                     (serpentine) scan of the grid;
* ``repulsive``    - a chessboard-like alternating pattern (two categories);
* ``multicluster`` - 25 compact clusters on a background (two categories).

Counts come either from a symmetric Dirichlet draw followed by a
multinomial (``pmf_source="dirichlet"``) or from the exact equal split
(``pmf_source="uniform"``, the idealized reference arrangement: perfect
chessboard, clusters centred exactly on a 5 x 5 block mosaic).

Randomness is stream-split: each (master seed, scenario, categories,
replicate) tuple seeds an independent generator, and within a replicate the
count draw and the arrangement use separate child streams, so adding
scenarios or replicates never shifts existing output.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .lattice import CategoricalGrid

SCENARIOS = ("compact", "repulsive", "multicluster", "random")
_SCENARIO_ID = {name: i for i, name in enumerate(SCENARIOS)}

NUM_CLUSTERS = 25  # multicluster: 5 x 5 block mosaic
REPULSIVE_NOISE_RATIO = 0.25  # scattered swaps per surplus cell, see arrange_repulsive

PMF_SOURCES = ("dirichlet", "uniform")


def check_categories(kind: str, num_categories: int) -> None:
    """Raise ValueError unless the scenario kind is defined for this many categories."""
    if num_categories < 2:
        raise ValueError("scenarios need at least two categories")
    if kind in ("repulsive", "multicluster") and num_categories != 2:
        raise ValueError(f"{kind} patterns are defined for two categories only")


@dataclass(frozen=True)
class ScenarioSpec:
    """One replicate of one scenario: geometry, mix source, and seed."""

    kind: str
    rows: int
    cols: int
    num_categories: int
    pmf_source: str = "dirichlet"
    seed: tuple = (0,)

    def __post_init__(self) -> None:
        if self.kind not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.kind!r}, expected one of {SCENARIOS}")
        if self.pmf_source not in PMF_SOURCES:
            raise ValueError(f"unknown pmf_source {self.pmf_source!r}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid dimensions must be positive")
        check_categories(self.kind, self.num_categories)
        if self.kind == "multicluster" and (self.rows < 5 or self.cols < 5):
            raise ValueError("multicluster needs at least 5 rows and 5 columns")
        if self.pmf_source == "uniform" and (self.rows * self.cols) % self.num_categories:
            raise ValueError("uniform mix needs the category count to divide the pixel count")
        seed = self.seed if isinstance(self.seed, tuple) else (int(self.seed),)
        object.__setattr__(self, "seed", tuple(int(s) for s in seed))

    @property
    def size(self) -> int:
        return self.rows * self.cols

    def rng(self, role: int) -> np.random.Generator:
        """Independent child stream for one stage of the replicate."""
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(role,)))


def replicate_seed(master_seed: int, kind: str, num_categories: int, replicate: int) -> tuple:
    """Seed tuple for one replicate; distinct tuples give independent streams."""
    return (int(master_seed), _SCENARIO_ID[kind], int(num_categories), int(replicate))


def draw_counts(spec: ScenarioSpec) -> np.ndarray:
    """Category counts of one replicate, summing to the pixel count.

    Dirichlet(1, ..., 1) weights followed by a multinomial draw; the uniform
    source returns the exact equal split instead.
    """
    if spec.pmf_source == "uniform":
        return np.full(spec.num_categories, spec.size // spec.num_categories, dtype=np.int64)
    rng = spec.rng(0)
    weights = rng.dirichlet(np.ones(spec.num_categories))
    return rng.multinomial(spec.size, weights).astype(np.int64)


def _category_vector(counts) -> np.ndarray:
    counts = np.asarray(counts, dtype=np.int64)
    return np.repeat(np.arange(1, counts.size + 1, dtype=np.int64), counts)


def _serpentine_order(rows: int, cols: int) -> np.ndarray:
    """Flat pixel indices along the boustrophedon scan (odd rows reversed)."""
    idx = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    idx[1::2] = idx[1::2, ::-1]
    return idx.ravel()


def arrange_random(spec: ScenarioSpec, counts) -> CategoricalGrid:
    vals = _category_vector(counts)
    spec.rng(1).shuffle(vals)
    return CategoricalGrid(spec.rows, spec.cols, spec.num_categories, vals)


def arrange_compact(spec: ScenarioSpec, counts) -> CategoricalGrid:
    """Categories in sorted order along the serpentine scan: one block each.

    Consecutive scan positions are always rook-adjacent, so each category
    forms a single connected block and the category boundary is one cut
    across the grid.
    """
    out = np.empty(spec.size, dtype=np.int64)
    out[_serpentine_order(spec.rows, spec.cols)] = _category_vector(counts)
    return CategoricalGrid(spec.rows, spec.cols, spec.num_categories, out)


def arrange_repulsive(spec: ScenarioSpec, counts) -> CategoricalGrid:
    """Alternating pattern: perfect chessboard bent to the drawn counts.

    Category 1 starts on the even-parity cells.  An equal split is returned
    as the exact chessboard.  A count surplus cannot alternate, so it is
    placed as one compact blob: the surplus cells of the shrinking category
    are flipped by nearest-to-centre accretion over their parity class
    around a random centre (flipping a parity class inside a region makes
    that region solid).  A scattered swap noise proportional to the surplus
    (REPULSIVE_NOISE_RATIO per surplus cell) roughens the board so that the
    short-range order degrades smoothly with the imbalance.
    """
    rows, cols = spec.rows, spec.cols
    m = np.empty((rows, cols), dtype=np.int64)
    m[0::2, 0::2] = m[1::2, 1::2] = 1
    m[0::2, 1::2] = m[1::2, 0::2] = 2
    m = m.ravel()
    c1 = int(counts[0])
    surplus = c1 - (spec.size + 1) // 2  # category 1 holds the (size + 1) // 2 even cells
    if surplus != 0:
        rng = spec.rng(1)
        new_value = 1 if surplus > 0 else 2
        flip_cells = np.flatnonzero(m != new_value)  # the other parity class, row-major
        centre_r, centre_c = rng.uniform(0.0, rows), rng.uniform(0.0, cols)
        r, c = np.divmod(flip_cells, cols)
        r = r + 0.5 - centre_r  # from each cell's centroid; ties stay stable
        c = c + 0.5 - centre_c
        m[flip_cells[np.argsort(r * r + c * c, kind="stable")[: abs(surplus)]]] = new_value

        # every cell now holds its count: c1 ones and size - c1 twos
        noise = min(int(round(REPULSIVE_NOISE_RATIO * abs(surplus))), c1, spec.size - c1)
        if noise > 0:
            ones = np.flatnonzero(m == 1)
            twos = np.flatnonzero(m == 2)
            o = ones[rng.choice(len(ones), size=noise, replace=False)]
            t = twos[rng.choice(len(twos), size=noise, replace=False)]
            m[o] = 2
            m[t] = 1
    return CategoricalGrid(rows, cols, 2, m)


def arrange_multicluster(spec: ScenarioSpec, counts) -> CategoricalGrid:
    """25 compact clusters of the rarer category on the other as background.

    The window splits into a 5 x 5 mosaic of equal-as-possible blocks; each
    block receives one disc of cluster_count // 25 cells (the remainder is
    spread one extra cell over randomly chosen blocks) grown by
    nearest-to-centre accretion within the block.  Centres are uniform
    within their block, or exactly the block centres for the uniform mix.
    Clustering the rarer category keeps the discs genuinely small and
    separated at any mix (a disc never exceeds half its block).
    """
    rows, cols = spec.rows, spec.cols
    c1 = int(np.asarray(counts)[0])
    cluster_cat = 1 if c1 <= spec.size - c1 else 2
    background = 3 - cluster_cat
    n_clustered = c1 if cluster_cat == 1 else spec.size - c1

    rng = spec.rng(1)
    base, rem = divmod(n_clustered, NUM_CLUSTERS)
    sizes = np.full(NUM_CLUSTERS, base, dtype=np.int64)
    if rem:
        sizes[rng.choice(NUM_CLUSTERS, size=rem, replace=False)] += 1

    lo, hi, tile_rows, tile_cols = _mosaic(rows, cols)
    if np.any(sizes > np.prod(hi - lo, axis=1)):
        raise ValueError("cluster does not fit its mosaic block")
    if spec.pmf_source == "uniform":
        centres = (lo + hi) / 2.0
    else:
        # one draw per non-empty block, in block order: row, then column
        centres = np.zeros((NUM_CLUSTERS, 2))
        full = sizes > 0
        centres[full] = rng.uniform(lo[full], hi[full])

    # squared distance of every pixel to its block's centre, block by block,
    # each block laid out row-major in one tile of the largest block's shape
    # (inf past the block's end)
    centre_r, centre_c = (x.reshape(5, 5, 1, 1) for x in centres.T)
    dr2 = (tile_rows[:, None, :, None] - centre_r) ** 2
    dc2 = (tile_cols[None, :, None, :] - centre_c) ** 2
    # nearest-to-centre accretion in every block at once: the sort is stable,
    # so ties keep the block's row-major order and the padding comes last
    order = np.argsort((dr2 + dc2).reshape(NUM_CLUSTERS, -1), axis=1, kind="stable")
    block, rank = np.nonzero(np.arange(order.shape[1]) < sizes[:, None])
    dr, dc = np.divmod(order[block, rank], tile_cols.shape[1])
    m = np.full((rows, cols), background, dtype=np.int64)
    m[lo[block, 0] + dr, lo[block, 1] + dc] = cluster_cat
    return CategoricalGrid(rows, cols, 2, m)


@functools.cache
def _mosaic(rows: int, cols: int) -> tuple:
    """Read-only 5 x 5 block mosaic of a window: (lo, hi, tile_rows, tile_cols).

    Block b = 5 i + j spans rows lo[b, 0]..hi[b, 0] - 1 and columns
    lo[b, 1]..hi[b, 1] - 1 of equal-as-possible splits of each side.
    ``tile_rows[i]`` holds the centroid rows r + 0.5 of block row i, padded
    with inf to the tallest block; ``tile_cols[j]`` likewise the columns.
    """
    edges = [np.linspace(0, n, 6).astype(np.int64) for n in (rows, cols)]
    bi, bj = np.divmod(np.arange(NUM_CLUSTERS), 5)
    lo = np.stack([edges[0][bi], edges[1][bj]], axis=1)
    hi = np.stack([edges[0][bi + 1], edges[1][bj + 1]], axis=1)
    tiles = []
    for e in edges:
        span = np.arange(np.diff(e).max())
        tiles.append(np.where(span < np.diff(e)[:, None], e[:-1, None] + span + 0.5, np.inf))
    mosaic = (lo, hi, *tiles)
    for x in mosaic:
        x.flags.writeable = False
    return mosaic


_ARRANGERS = {
    "random": arrange_random,
    "compact": arrange_compact,
    "repulsive": arrange_repulsive,
    "multicluster": arrange_multicluster,
}


def arrange(spec: ScenarioSpec, counts) -> CategoricalGrid:
    """Arrange the given counts according to the scenario of ``spec``."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size != spec.num_categories:
        raise ValueError("one count per category is required")
    if counts.min() < 0 or int(counts.sum()) != spec.size:
        raise ValueError("counts must be non-negative and sum to the pixel count")
    return _ARRANGERS[spec.kind](spec, counts)


def generate(spec: ScenarioSpec) -> CategoricalGrid:
    """Draw counts and arrange them: the full replicate in one call."""
    return arrange(spec, draw_counts(spec))
