"""Scenario generators: count preservation, determinism, idealized cases."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatent import (
    CategoricalGrid,
    CooccurrenceScheme,
    DistanceClassification,
    SCENARIOS,
    ScenarioSpec,
    arrange,
    draw_counts,
    enumerate_pairs,
    generate,
    replicate_seed,
    shannon,
)
from spatent import simgen


def _spec(kind, cats=2, source="dirichlet", seed=(0,), rows=50, cols=50):
    return ScenarioSpec(kind, rows, cols, cats, source, seed)


# --------------------------------------------------------------------------
# spec validation

def test_spec_validation():
    with pytest.raises(ValueError):
        _spec("blob")
    with pytest.raises(ValueError):
        ScenarioSpec("random", 50, 50, 2, "gaussian", (0,))
    with pytest.raises(ValueError):
        ScenarioSpec("random", 0, 50, 2, "dirichlet", (0,))
    with pytest.raises(ValueError):
        ScenarioSpec("random", 50, 50, 1, "dirichlet", (0,))
    # alternating and clustered patterns are two-category constructions
    with pytest.raises(ValueError):
        _spec("repulsive", cats=5)
    with pytest.raises(ValueError):
        _spec("multicluster", cats=5)
    # exact equal split requires divisibility
    with pytest.raises(ValueError):
        ScenarioSpec("random", 7, 7, 2, "uniform", (0,))
    with pytest.raises(ValueError):
        ScenarioSpec("multicluster", 4, 4, 2, "dirichlet", (0,))  # < 5x5 mosaic


def test_seed_normalized_to_int_tuple():
    assert _spec("random", seed=7).seed == (7,)
    assert _spec("random", seed=(1, 2, 3)).seed == (1, 2, 3)


def test_replicate_seed_distinct_streams():
    seeds = {
        replicate_seed(master, kind, cats, rep)
        for master in (0, 1)
        for kind in SCENARIOS
        for cats in (2, 5)
        for rep in range(3)
    }
    assert len(seeds) == 2 * 4 * 2 * 3


# --------------------------------------------------------------------------
# counts

def test_uniform_counts_exact_split():
    np.testing.assert_array_equal(draw_counts(_spec("random", 2, "uniform")), [1250, 1250])
    np.testing.assert_array_equal(
        draw_counts(_spec("random", 20, "uniform")), np.full(20, 125)
    )


def test_dirichlet_counts_sum_and_reproduce():
    spec = _spec("random", 5, seed=(42,))
    counts = draw_counts(spec)
    assert counts.sum() == 2500
    assert counts.shape == (5,)
    np.testing.assert_array_equal(counts, draw_counts(spec))
    assert not np.array_equal(counts, draw_counts(_spec("random", 5, seed=(43,))))


def test_count_draw_isolated_from_arrangement_stream():
    # same seed, different scenario kind: the category mix is identical
    a = draw_counts(_spec("random", 2, seed=(9,)))
    b = draw_counts(_spec("compact", 2, seed=(9,)))
    np.testing.assert_array_equal(a, b)


# --------------------------------------------------------------------------
# arrangement: counts preserved, determinism

@given(
    st.sampled_from(SCENARIOS),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_counts_preserved_and_deterministic(kind, seed):
    spec = ScenarioSpec(kind, 20, 20, 2, "dirichlet", (seed,))
    counts = draw_counts(spec)
    grid = arrange(spec, counts)
    np.testing.assert_array_equal(grid.category_counts(), counts)
    again = arrange(spec, counts)
    np.testing.assert_array_equal(grid.values, again.values)
    np.testing.assert_array_equal(generate(spec).values, grid.values)


def test_marginal_entropy_identical_across_arrangements():
    counts = draw_counts(_spec("random", 2, seed=(5,)))
    entropies = {
        kind: shannon(arrange(_spec(kind, 2, seed=(5,)), counts).category_pmf())
        for kind in SCENARIOS
    }
    vals = list(entropies.values())
    assert all(v == pytest.approx(vals[0], abs=1e-15) for v in vals)


def test_arrange_rejects_bad_counts():
    spec = _spec("random", 2)
    with pytest.raises(ValueError):
        arrange(spec, [2500])  # wrong length
    with pytest.raises(ValueError):
        arrange(spec, [1250, 1251])  # wrong total
    with pytest.raises(ValueError):
        arrange(spec, [2501, -1])


def test_multicategory_arrangements():
    for kind in ("compact", "random"):
        spec = ScenarioSpec(kind, 50, 50, 20, "uniform", (1,))
        grid = generate(spec)
        np.testing.assert_array_equal(grid.category_counts(), np.full(20, 125))


# --------------------------------------------------------------------------
# idealized equal-split cases

def test_compact_uniform_is_half_split_with_minimal_boundary():
    g = generate(_spec("compact", 2, "uniform"))
    m = g.matrix
    assert (m[:25] == 1).all() and (m[25:] == 2).all()
    sample = enumerate_pairs(
        g, DistanceClassification.default_for(g), CooccurrenceScheme(2)
    )
    # the single straight boundary: one mixed contiguous pair per column
    assert sample.category_counts[0].tolist() == [2425, 50, 2425]


def test_compact_serpentine_keeps_blocks_contiguous():
    # unequal counts: each category still occupies one connected block, so
    # mixed contiguous pairs stay rare (at most one cut per category change)
    spec = _spec("compact", 5, seed=(7,))
    g = generate(spec)
    sample = enumerate_pairs(
        g, DistanceClassification.default_for(g), CooccurrenceScheme(5)
    )
    labels = CooccurrenceScheme(5).category_labels()
    mixed = sum(
        int(c)
        for lab, c in zip(labels, sample.category_counts[0])
        if lab[0] != lab[1]
    )
    # 4 category boundaries, each crossing at most one 50-pixel row plus the
    # serpentine joint
    assert mixed <= 4 * 51


def test_repulsive_uniform_is_exact_chessboard():
    g = generate(_spec("repulsive", 2, "uniform"))
    parity = np.add.outer(np.arange(50), np.arange(50)) % 2
    np.testing.assert_array_equal(g.matrix, np.where(parity == 0, 1, 2))


def test_repulsive_skewed_counts_still_exact():
    spec = _spec("repulsive", 2, seed=(13,))
    counts = draw_counts(spec)
    g = arrange(spec, counts)
    np.testing.assert_array_equal(g.category_counts(), counts)


def test_repulsive_all_one_category_edge():
    g = arrange(_spec("repulsive", 2), [2500, 0])
    assert (g.values == 1).all()


def test_multicluster_uniform_25_equal_clusters_at_block_centres():
    g = generate(_spec("multicluster", 2, "uniform"))
    m = g.matrix
    for i in range(5):
        for j in range(5):
            block = m[10 * i : 10 * (i + 1), 10 * j : 10 * (j + 1)]
            assert int((block == 1).sum()) == 50
            rr, cc = np.nonzero(block == 1)
            radii = np.hypot(rr + 0.5 - 5.0, cc + 0.5 - 5.0)
            assert radii.max() < 4.0  # a compact disc, not a sprinkle


def test_multicluster_clusters_use_rarer_category():
    spec = _spec("multicluster", 2, seed=(31,))
    counts = draw_counts(spec)
    g = arrange(spec, counts)
    np.testing.assert_array_equal(g.category_counts(), counts)
    rare = 1 if counts[0] <= counts[1] else 2
    per_block = counts[rare - 1] // 25
    m = g.matrix
    found = sum(
        int((m[10 * i : 10 * (i + 1), 10 * j : 10 * (j + 1)] == rare).sum())
        for i in range(5)
        for j in range(5)
    )
    assert found == counts[rare - 1]
    assert per_block <= 50  # a cluster never overflows half its block


def test_multicluster_empty_minority_edge():
    g = arrange(_spec("multicluster", 2), [0, 2500])
    assert (g.values == 2).all()


def _multicluster_block_by_block(spec, counts):
    """The arrangement drawn one block at a time: the reference for the vectorized one."""
    c1 = int(counts[0])
    cluster_cat = 1 if c1 <= spec.size - c1 else 2
    rng = spec.rng(1)
    base, rem = divmod(c1 if cluster_cat == 1 else spec.size - c1, 25)
    sizes = np.full(25, base)
    if rem:
        sizes[rng.choice(25, size=rem, replace=False)] += 1
    m = np.full((spec.rows, spec.cols), 3 - cluster_cat)
    r_edges = np.linspace(0, spec.rows, 6).astype(np.int64)
    c_edges = np.linspace(0, spec.cols, 6).astype(np.int64)
    for b, size in enumerate(sizes):
        (r0, r1), (c0, c1) = r_edges[b // 5 : b // 5 + 2], c_edges[b % 5 : b % 5 + 2]
        if size == 0:
            continue
        if size > (r1 - r0) * (c1 - c0):
            raise ValueError("cluster does not fit its mosaic block")
        if spec.pmf_source == "uniform":
            centre = ((r0 + r1) / 2.0, (c0 + c1) / 2.0)
        else:
            centre = (rng.uniform(r0, r1), rng.uniform(c0, c1))
        cells = np.argwhere(np.ones((r1 - r0, c1 - c0), dtype=bool)) + (r0, c0)
        d2 = (cells[:, 0] + 0.5 - centre[0]) ** 2 + (cells[:, 1] + 0.5 - centre[1]) ** 2
        chosen = cells[np.argsort(d2, kind="stable")[:size]]
        m[chosen[:, 0], chosen[:, 1]] = cluster_cat
    return m.ravel()


def test_multicluster_mosaic_is_one_read_only_layout_per_shape():
    mosaic = simgen._mosaic(23, 37)
    assert simgen._mosaic(23, 37) is mosaic
    assert not any(x.flags.writeable for x in mosaic)
    lo, hi, tile_rows, tile_cols = mosaic
    # the tiles pad each block's centroid rows and columns to the largest block
    assert np.prod(hi - lo, axis=1).sum() == 23 * 37
    assert np.isfinite(tile_rows).sum() == 23 and np.isfinite(tile_cols).sum() == 37


def _outcome(arrangement, spec, counts):
    try:
        return arrangement(spec, counts)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("rows,cols", [(5, 5), (6, 9), (13, 11), (23, 37), (50, 50)])
def test_multicluster_matches_the_block_by_block_arrangement(rows, cols):
    rejected = 0
    for seed in range(12):
        for source in ("dirichlet", "uniform"):
            if source == "uniform" and (rows * cols) % 2:
                continue
            spec = _spec("multicluster", 2, source, (seed, 2, 2, seed), rows, cols)
            counts = draw_counts(spec)
            got = _outcome(lambda s, c: arrange(s, c).values, spec, counts)
            want = _outcome(_multicluster_block_by_block, spec, counts)
            if isinstance(want, str):
                assert got == want == "cluster does not fit its mosaic block"
                rejected += 1
            else:
                np.testing.assert_array_equal(got, want)
    # on 6 x 9 the one-cell blocks cannot hold a remainder cell on top of the base one
    assert rejected > 0 if (rows, cols) == (6, 9) else rejected == 0


def test_random_arrangement_varies_with_seed():
    counts = [1250, 1250]
    a = arrange(_spec("random", 2, seed=(1,)), counts)
    b = arrange(_spec("random", 2, seed=(2,)), counts)
    assert not np.array_equal(a.values, b.values)


def _repulsive_cell_by_cell(spec, counts):
    """The alternating arrangement built one cell at a time: the reference for arrange."""
    rows, cols = spec.rows, spec.cols
    m = [[1 + (r + c) % 2 for c in range(cols)] for r in range(rows)]
    surplus = int(counts[0]) - (rows * cols + 1) // 2  # category 1 holds the even cells
    if surplus == 0:
        return np.array(m).ravel()
    rng = spec.rng(1)
    # a surplus of category 1 takes odd cells, a shortfall gives even cells away
    flip_parity, new_value = (1, 1) if surplus > 0 else (0, 2)
    centre_r, centre_c = rng.uniform(0.0, rows), rng.uniform(0.0, cols)
    cells = [(r, c) for r in range(rows) for c in range(cols) if (r + c) % 2 == flip_parity]
    d2 = []
    for r, c in cells:
        dr, dc = r + 0.5 - centre_r, c + 0.5 - centre_c
        d2.append(dr * dr + dc * dc)
    for i in sorted(range(len(cells)), key=d2.__getitem__)[: abs(surplus)]:
        r, c = cells[i]
        m[r][c] = new_value
    ones = [(r, c) for r in range(rows) for c in range(cols) if m[r][c] == 1]
    twos = [(r, c) for r in range(rows) for c in range(cols) if m[r][c] == 2]
    noise = min(round(0.25 * abs(surplus)), len(ones), len(twos))
    if noise > 0:
        picked_ones = rng.choice(len(ones), size=noise, replace=False)
        picked_twos = rng.choice(len(twos), size=noise, replace=False)
        for i in picked_ones:
            r, c = ones[i]
            m[r][c] = 2
        for i in picked_twos:
            r, c = twos[i]
            m[r][c] = 1
    return np.array(m).ravel()


@pytest.mark.parametrize(
    "rows,cols",
    [(1, 2), (2, 1), (1, 7), (7, 1), (2, 2), (3, 5), (6, 9), (13, 11), (23, 37), (50, 50)],
)
def test_repulsive_matches_the_cell_by_cell_arrangement(rows, cols):
    size = rows * cols
    # the exact chessboard count, either category in surplus, and a noise
    # capped by a one-cell category
    evens = (size + 1) // 2
    extremes = [(evens, size - evens), (size, 0), (0, size), (1, size - 1), (size - 1, 1)]
    surpluses = set()
    for seed in range(12):
        for source in ("dirichlet", "uniform"):
            if source == "uniform" and size % 2:
                continue
            spec = _spec("repulsive", 2, source, (seed, 1, 2, seed), rows, cols)
            for counts in [draw_counts(spec), *extremes]:
                counts = np.asarray(counts, dtype=np.int64)
                got = arrange(spec, counts).values
                np.testing.assert_array_equal(got, _repulsive_cell_by_cell(spec, counts))
                np.testing.assert_array_equal(np.bincount(got, minlength=3)[1:], counts)
                surpluses.add(int(np.sign(counts[0] - evens)))
    assert surpluses == {-1, 0, 1}


# sha256 prefixes of generate(spec).values (int64 bytes) over replicates 0-2 of
# master seed 0, per design entry, shape and pmf source; an equal split of
# 23 x 37 = 851 pixels exists for no category count of the design
GENERATION_DIGESTS = {
    ("compact", 2, 50, 50, "dirichlet"): "0b7fe867bcd0e207",
    ("compact", 2, 50, 50, "uniform"): "bf236156b1273395",
    ("compact", 2, 23, 37, "dirichlet"): "570728f336583861",
    ("repulsive", 2, 50, 50, "dirichlet"): "72c6223b2ed60a79",
    ("repulsive", 2, 50, 50, "uniform"): "5179ae1d3d91a0c7",
    ("repulsive", 2, 23, 37, "dirichlet"): "49ff01bce87782af",
    ("multicluster", 2, 50, 50, "dirichlet"): "8c77a5756f7b2060",
    ("multicluster", 2, 50, 50, "uniform"): "fd7f9e7495565559",
    ("multicluster", 2, 23, 37, "dirichlet"): "ee2e61598ada53b5",
    ("random", 2, 50, 50, "dirichlet"): "c1b573b4fc56c1fd",
    ("random", 2, 50, 50, "uniform"): "b1fe5de21486ba37",
    ("random", 2, 23, 37, "dirichlet"): "75758dfda464289b",
    ("compact", 5, 50, 50, "dirichlet"): "f0034819d72e8cf0",
    ("compact", 5, 50, 50, "uniform"): "71fee05622233cce",
    ("compact", 5, 23, 37, "dirichlet"): "873d6c51bdba01a0",
    ("random", 5, 50, 50, "dirichlet"): "6dd9ec599314a116",
    ("random", 5, 50, 50, "uniform"): "36f8670951767bce",
    ("random", 5, 23, 37, "dirichlet"): "7891b525ec315403",
    ("compact", 20, 50, 50, "dirichlet"): "f283a731b89f24e5",
    ("compact", 20, 50, 50, "uniform"): "c7e99e7f5af04b74",
    ("compact", 20, 23, 37, "dirichlet"): "dfc283629d3107df",
    ("random", 20, 50, 50, "dirichlet"): "2df71006d2e6bf97",
    ("random", 20, 50, 50, "uniform"): "64fc86ad698ce656",
    ("random", 20, 23, 37, "dirichlet"): "e0b9dc768752af58",
}


@pytest.mark.parametrize("key", list(GENERATION_DIGESTS), ids=lambda key: "-".join(map(str, key)))
def test_generation_streams_are_pinned(key):
    """Every design entry draws the same grids: the RNG streams and their use stay."""
    kind, cats, rows, cols, source = key
    digest = hashlib.sha256()
    for rep in range(3):
        spec = ScenarioSpec(kind, rows, cols, cats, source, replicate_seed(0, kind, cats, rep))
        digest.update(np.ascontiguousarray(generate(spec).values, dtype=np.int64).tobytes())
    assert digest.hexdigest()[:16] == GENERATION_DIGESTS[key]
