"""Pair enumeration: schemes, distance bands, counts, oracle equivalence."""

import bisect
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import _displacements, enumerate_pairs_displacement, pair_code_table

from spatent import (
    CategoricalGrid,
    ConsistencyError,
    CooccurrenceScheme,
    CoverageError,
    DistanceClassification,
    PairSample,
    conditional_pmfs,
    count_categories,
    decompose,
    enumerate_pairs,
    enumerate_pairs_bruteforce,
    window_diagonal,
)
from spatent import cooccur
from spatent.cooccur import (
    BandGeometry,
    _exact_counts,
    _fast_length,
    _fold_index,
    _inner_band_sums,
    fold_counts,
    pairs_within,
)


def _grid(rows, cols, cats, values):
    return CategoricalGrid(rows, cols, cats, np.asarray(values, dtype=np.int64))


def _chessboard(n=50):
    vals = ((np.add.outer(np.arange(n), np.arange(n)) % 2) + 1).ravel()
    return _grid(n, n, 2, vals)


# --------------------------------------------------------------------------
# scheme category counts: pairs over I categories, with and without order

@pytest.mark.parametrize(
    "cats,ordered,expected",
    [
        (2, True, 4),
        (2, False, 3),
        (5, True, 25),
        (5, False, 15),
        (20, True, 400),
        (20, False, 210),
    ],
)
def test_pair_category_counts(cats, ordered, expected):
    scheme = CooccurrenceScheme(cats, ordered=ordered)
    assert count_categories(scheme) == expected
    assert scheme.num_z_categories == expected
    assert len(scheme.category_labels()) == expected


def test_entropy_maxima_round_to_published_table():
    # (categories, ordered pairs, unordered pairs) -> entropy ceilings
    rows = [(2, 4, 3), (5, 25, 15), (20, 400, 210)]
    seen = []
    for cats, r_o, r_no in rows:
        assert count_categories(CooccurrenceScheme(cats, ordered=True)) == r_o
        assert count_categories(CooccurrenceScheme(cats, ordered=False)) == r_no
        seen.append(
            (
                round(math.log(cats), 2),
                round(math.log(r_o), 2),
                round(math.log(r_no), 2),
            )
        )
    assert seen == [(0.69, 1.39, 1.1), (1.61, 3.22, 2.71), (3.0, 5.99, 5.35)]


def test_count_overflow_guard():
    # 10^20 ordered pairs exceed 2^63 - 1
    with pytest.raises(OverflowError):
        count_categories(CooccurrenceScheme(10**10, ordered=True))


def test_pair_code_table_matches_labels():
    scheme = CooccurrenceScheme(3, ordered=False)
    labels = scheme.category_labels()
    lut = pair_code_table(scheme)
    assert labels[lut[0, 2]] == (1, 3)
    assert lut[0, 2] == lut[2, 0]  # unordered symmetry
    ordered = CooccurrenceScheme(3, ordered=True)
    olut = pair_code_table(ordered)
    assert ordered.category_labels()[olut[0, 2]] == (1, 3)
    assert ordered.category_labels()[olut[2, 0]] == (3, 1)
    assert olut[0, 2] != olut[2, 0]


# --------------------------------------------------------------------------
# distance classification

def test_classification_validation():
    with pytest.raises(ValueError):
        DistanceClassification((1.0,))
    with pytest.raises(ValueError):
        DistanceClassification((0.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        DistanceClassification((-1.0, 1.0))
    # a NaN first break once put every pair of a grid into band w2
    for breaks in ((math.nan, 1.0, 10.0), (0.0, math.inf), (-math.inf, 1.0), (0.0, 1.0, math.nan)):
        with pytest.raises(ValueError):
            DistanceClassification(breaks)


def test_default_classification_for_50x50():
    g = _chessboard()
    cls = DistanceClassification.default_for(g)
    assert cls.breaks == (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0, pytest.approx(math.hypot(50, 50)))
    assert cls.num_bands == 7
    assert cls.labels == ("w1", "w2", "w3", "w4", "w5", "w6", "w7")
    assert cls.breaks[0] < 1 and cls.breaks[-1] >= math.hypot(g.rows - 1, g.cols - 1)


def test_default_classification_drops_unreachable_breaks():
    g = _grid(2, 2, 1, np.ones(4))
    cls = DistanceClassification.default_for(g)
    assert cls.breaks == (0.0, 1.0, 2.0, pytest.approx(math.hypot(2, 2)))


def test_band_index_half_open():
    cls = DistanceClassification((0.0, 1.0, 2.0, 5.0))
    assert cls.band_index(1.0) == 0  # right edge inclusive
    assert cls.band_index(1.0000001) == 1
    assert cls.band_index(math.sqrt(2)) == 1
    assert cls.band_index(5.0) == 2
    assert cls.band_index(0.0) is None  # at the left edge of the first band
    assert cls.band_index(5.1) is None
    assert tuple(zip(cls.breaks[:-1], cls.breaks[1:])) == ((0.0, 1.0), (1.0, 2.0), (2.0, 5.0))


# --------------------------------------------------------------------------
# enumeration anchors

# band totals on any 50x50 grid with the default breaks, frozen after
# brute-force verification; the sum is C(2500, 2)
Q_50 = (4900, 9602, 76966, 238432, 746330, 856324, 1191196)


def test_band_totals_50x50_frozen():
    g = _chessboard()
    sample = enumerate_pairs(g, DistanceClassification.default_for(g), CooccurrenceScheme(2))
    assert tuple(sample.pair_counts.tolist()) == Q_50
    assert sample.total_pairs == 3123750 == math.comb(2500, 2)
    assert sample.pair_counts[0] + sample.pair_counts[1] == 14502


def test_chessboard_w1_counts():
    g = _chessboard()
    cls = DistanceClassification.default_for(g)
    unordered = enumerate_pairs(g, cls, CooccurrenceScheme(2))
    # every contiguous pair mixes the two categories
    assert unordered.category_counts[0].tolist() == [0, 4900, 0]
    ordered = enumerate_pairs(g, cls, CooccurrenceScheme(2, ordered=True))
    assert ordered.category_counts[0].tolist() == [0, 2450, 2450, 0]


def test_2x2_chessboard_counts():
    g = _grid(2, 2, 2, [1, 2, 2, 1])
    cls = DistanceClassification.default_for(g)
    sample = enumerate_pairs(g, cls, CooccurrenceScheme(2))
    # 4 contiguous mixed pairs; both diagonals are same-category pairs
    assert sample.category_counts.tolist() == [[0, 4, 0], [1, 0, 1], [0, 0, 0]]


def test_ordered_pair_read_rightward_and_downward():
    g = _grid(1, 2, 2, [1, 2])
    cls = DistanceClassification.single_band(1.0)
    sample = enumerate_pairs(g, cls, CooccurrenceScheme(2, ordered=True))
    labels = CooccurrenceScheme(2, ordered=True).category_labels()
    assert sample.category_counts[0].tolist() == [0, 1, 0, 0]
    assert labels[1] == (1, 2)  # left pixel first
    g2 = _grid(2, 1, 2, [2, 1])
    sample2 = enumerate_pairs(g2, cls, CooccurrenceScheme(2, ordered=True))
    assert labels[sample2.category_counts[0].argmax()] == (2, 1)  # top pixel first


def test_coverage_enforcement():
    g = _chessboard(4)
    for breaks in ((0.0, 1.0), (1.0, 5.0), (0.5, 4.0)):
        with pytest.raises(CoverageError):
            enumerate_pairs(g, DistanceClassification(breaks), CooccurrenceScheme(2))
    with pytest.raises(CoverageError):
        enumerate_pairs_bruteforce(g, DistanceClassification((0.0, 1.0)), CooccurrenceScheme(2))
    # the first offender in (|dc|, dr) order, also where it lies beyond the inner bands' reach
    for rows, cols, breaks, message in (
        (6, 6, (0.0, 5.0), "distance 5.09902 of displacement (5, 1) has no band"),
        (6, 6, (1.0, 10.0), "distance 1 of displacement (1, 0) has no band"),
        (40, 40, (0.0, 1.0, 30.0, 50.0), "distance 50.448 of displacement (39, 32) has no band"),
        (1, 8, (1.0, 10.0), "distance 1 of displacement (0, 1) has no band"),
        (1, 8, (0.0, 5.0), "distance 6 of displacement (0, 6) has no band"),
    ):
        grid = _grid(rows, cols, 1, np.ones(rows * cols))
        with pytest.raises(CoverageError) as raised:
            enumerate_pairs(grid, DistanceClassification(breaks), CooccurrenceScheme(1))
        assert str(raised.value) == message
    assert pairs_within(g, DistanceClassification((0.0, 1.0, 5.0)))[1].sum() == 24  # contiguous


def test_scheme_must_cover_grid_categories():
    g = _grid(2, 2, 3, [1, 2, 3, 1])
    with pytest.raises(ValueError):
        enumerate_pairs(g, DistanceClassification.default_for(g), CooccurrenceScheme(2))
    with pytest.raises(ValueError, match="^num_x_categories must be >= 1$"):
        CooccurrenceScheme(0)


def test_tabulate_within_distance_one():
    g = _chessboard(3)
    whole = DistanceClassification((0.0, window_diagonal(g)))
    # 12 contiguous pairs on a 3x3 board, all mixed: 6 read (1, 2) and 6 read (2, 1)
    within = pairs_within(g, whole, (1.0, 0.5, 0.0, -1.0, math.inf))
    np.testing.assert_array_equal(within[2], [0, 6, 6, 0])
    np.testing.assert_array_equal(fold_counts(within[2], 2), [0, 12, 0])
    # distances are clamped to the classification: none below it, all 36 pairs above it
    assert not within[3:6].any()
    np.testing.assert_array_equal(within[6], within[1])
    assert within[6].sum() == 36


@pytest.mark.parametrize("ordered", [False, True])
@pytest.mark.parametrize("rows,cols,cats", [(1, 7, 2), (6, 1, 3), (9, 13, 5), (20, 20, 2)])
@pytest.mark.parametrize("distance", [1.0, 1.5, 2.0, 3.0, 7.5, 100.0])
def test_tabulate_within_equals_a_single_band_tally(rows, cols, cats, distance, ordered):
    values = np.random.default_rng(rows * cols).integers(1, cats + 1, size=rows * cols)
    g = _grid(rows, cols, cats, values)
    scheme = CooccurrenceScheme(cats, ordered=ordered)
    # the oracle skips pairs beyond the band: the old cumulative tally
    ref = enumerate_pairs_displacement(
        g, DistanceClassification.single_band(distance), scheme, require_coverage=False
    )
    whole = DistanceClassification((0.0, window_diagonal(g)))
    near = pairs_within(g, whole, (distance,))[-1]
    if not ordered:
        near = fold_counts(near, cats)
    assert near.size == len(scheme.category_labels())
    np.testing.assert_array_equal(near, ref.category_counts[0])
    assert near.sum() == ref.total_pairs


# --------------------------------------------------------------------------
# dual-route equivalence and mixture consistency

def test_single_pixel_grid_rejected():
    g = _grid(1, 1, 1, [1])
    with pytest.raises(ValueError):
        enumerate_pairs(g, DistanceClassification.default_for(g), CooccurrenceScheme(1))
    with pytest.raises(ValueError, match="^need at least two pixels to form a pair$"):
        enumerate_pairs_bruteforce(g, DistanceClassification((0, 1)), CooccurrenceScheme(1))


@st.composite
def small_grids(draw, max_side=8, max_cats=5):
    rows = draw(st.integers(min_value=1, max_value=max_side))
    cols = draw(st.integers(min_value=2 if rows == 1 else 1, max_value=max_side))
    cats = draw(st.integers(min_value=1, max_value=max_cats))
    vals = draw(
        st.lists(
            st.integers(min_value=1, max_value=cats),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    return _grid(rows, cols, cats, vals)


# strictly increasing finite breaks, or None for the grid's default bands
band_breaks = st.none() | st.lists(
    st.floats(min_value=0.0, max_value=12.0), min_size=2, max_size=6, unique=True
).map(sorted)


def _tally_or_none(route, grid, breaks, scheme):
    cls = (
        DistanceClassification.default_for(grid)
        if breaks is None
        else DistanceClassification(tuple(breaks))
    )
    try:
        return route(grid, cls, scheme)
    except CoverageError:
        return None


def _covering(grid, breaks):
    """The grid's default bands, or (0, window diagonal] split at the drawn breaks."""
    if breaks is None:
        return DistanceClassification.default_for(grid)
    return DistanceClassification((0.0, window_diagonal(grid))).refined(breaks)


def _assert_same_tally(fast, slow):
    assert (fast is None) == (slow is None)
    if fast is not None:
        np.testing.assert_array_equal(fast.pair_counts, slow.pair_counts)
        np.testing.assert_array_equal(fast.category_counts, slow.category_counts)


@given(small_grids(), st.booleans(), band_breaks)
@example(_grid(1, 7, 3, [1, 2, 3, 3, 2, 1, 1]), True, None)
@example(_grid(6, 1, 2, [2, 1, 1, 2, 2, 1]), True, [0.5, 1.0, 5.5])
@example(_grid(6, 1, 2, [2, 1, 1, 2, 2, 1]), True, [0.5, 1.0, 2.5])
@settings(max_examples=120)
def test_bruteforce_oracle_equality(grid, ordered, breaks):
    scheme = CooccurrenceScheme(grid.num_categories, ordered=ordered)
    _assert_same_tally(
        _tally_or_none(enumerate_pairs, grid, breaks, scheme),
        _tally_or_none(enumerate_pairs_bruteforce, grid, breaks, scheme),
    )


@st.composite
def mid_grids(draw):
    rows = draw(st.integers(min_value=20, max_value=60))
    cols = draw(st.integers(min_value=20, max_value=60))
    cats = draw(st.integers(min_value=1, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    values = np.random.default_rng(seed).integers(1, cats + 1, size=rows * cols)
    return _grid(rows, cols, cats, values)


@given(mid_grids(), st.booleans())
@example(_grid(60, 60, 20, np.random.default_rng(7).integers(1, 21, size=3600)), True)
@settings(max_examples=8)
def test_displacement_oracle_equality(grid, ordered):
    cls = DistanceClassification.default_for(grid)
    scheme = CooccurrenceScheme(grid.num_categories, ordered=ordered)
    _assert_same_tally(
        enumerate_pairs(grid, cls, scheme),
        enumerate_pairs_displacement(grid, cls, scheme),
    )


@given(small_grids(max_side=30, max_cats=3), band_breaks)
@settings(max_examples=40)
def test_band_totals_match_closed_form(grid, breaks):
    scheme = CooccurrenceScheme(grid.num_categories)
    sample = enumerate_pairs(grid, _covering(grid, breaks), scheme)
    expected = np.zeros(sample.classification.num_bands, dtype=np.int64)
    for dr, dc in _displacements(grid.rows, grid.cols):
        k = sample.classification.band_index(math.sqrt(dr * dr + dc * dc))
        if k is not None:
            expected[k] += (grid.rows - dr) * (grid.cols - abs(dc))
    np.testing.assert_array_equal(sample.pair_counts, expected)
    np.testing.assert_array_equal(sample.category_counts.sum(axis=1), expected)


@given(small_grids(max_side=30), band_breaks)
@settings(max_examples=40)
def test_ordered_table_folds_to_unordered(grid, breaks):
    i = grid.num_categories
    cls = _covering(grid, breaks)
    ordered = enumerate_pairs(grid, cls, CooccurrenceScheme(i, ordered=True))
    unordered = enumerate_pairs(grid, cls, CooccurrenceScheme(i))
    table = ordered.category_counts.reshape(-1, i, i)
    upper = table + table.transpose(0, 2, 1)
    upper[:, np.arange(i), np.arange(i)] //= 2
    rows, cols = np.triu_indices(i)
    np.testing.assert_array_equal(upper[:, rows, cols], unordered.category_counts)


def test_rounding_guard_rejects_inexact_band_sums():
    sums = np.array([[[1.0, 2.2], [0.0, 0.9]], [[0.0, 1.0], [1.0, 0.0]]])
    np.testing.assert_array_equal(
        _exact_counts(sums, np.array([4, 2])), [[[1, 2], [0, 1]], [[0, 1], [1, 0]]]
    )
    with pytest.raises(ConsistencyError):
        _exact_counts(sums + np.array([0.0, 0.3]).reshape(2, 1, 1), np.array([4, 2]))


def test_total_guard_rejects_counts_off_the_closed_form():
    sums = np.array([[[1.0, 2.0], [0.0, 1.0]]])
    with pytest.raises(ConsistencyError):
        _exact_counts(sums, np.array([5]))


def test_sign_guard_rejects_negative_counts():
    # the band total holds (-1 + 3 = 2), so only the sign check can catch it
    sums = np.array([[[-1.0, 3.0]], [[-0.2, 1.1]]])
    with pytest.raises(ConsistencyError, match="negative count -1"):
        _exact_counts(sums, np.array([2, 1]))
    # a sum that rounds to zero from below is a count of zero
    np.testing.assert_array_equal(_exact_counts(sums[1:], np.array([1])), [[[0, 1]]])


def test_exact_counts_accepts_zero_bands():
    counts = _exact_counts(np.zeros((0, 2, 2)), np.zeros(0, dtype=np.int64))
    assert counts.shape == (0, 2, 2) and counts.dtype == np.int64


def test_complement_guard_rejects_negative_and_off_total_counts():
    # the outermost band, every pair minus the inner bands, is stacked after
    # the inner sums and checked with them, as enumerate_pairs does
    every = np.array([[3, 2], [1, 0]])

    def stacked(inner):
        return np.concatenate((inner, (every - np.rint(inner).sum(axis=0))[None]))

    inner = np.array([[[1.0, 2.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])
    totals = np.array([3, 1, 2])
    np.testing.assert_array_equal(_exact_counts(stacked(inner), totals)[-1], [[1, 0], [1, 0]])
    # every band total holds (outer: 2 - 1 + 1 = 2), so only the sign check can catch it
    shifted = inner + np.array([[[-1.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]])
    with pytest.raises(ConsistencyError, match="negative count -1"):
        _exact_counts(stacked(shifted), totals)
    with pytest.raises(ConsistencyError, match="disagree with the geometry"):
        _exact_counts(stacked(inner), np.array([3, 1, 3]))


def test_pair_sample_rejects_negative_counts():
    scheme, bands = CooccurrenceScheme(2), DistanceClassification((0, 1))
    with pytest.raises(ValueError, match="non-negative"):
        PairSample(scheme, bands, np.array([1]), np.array([[2, -1, 0]]))


@pytest.mark.parametrize(
    "pair_counts,category_counts,message",
    [
        ([3], [[1, 2]], "category_counts shape does not match scheme/classification"),
        ([3], [[1, 2, 0], [0, 0, 0]], "category_counts shape does not match scheme/classification"),
        ([3, 0], [[1, 2, 0]], "pair_counts shape does not match classification"),
        ([4], [[1, 2, 0]], "per-band category counts do not sum to pair counts"),
    ],
)
def test_pair_sample_rejects_tables_that_do_not_fit(pair_counts, category_counts, message):
    scheme, bands = CooccurrenceScheme(2), DistanceClassification((0, 1))
    with pytest.raises(ValueError, match=f"^{message}$"):
        PairSample(scheme, bands, np.array(pair_counts), np.array(category_counts))


@pytest.mark.parametrize("num_x", [1, 2, 3, 5, 20])
def test_fold_counts_follows_the_unordered_codes(num_x):
    ordered, unordered = CooccurrenceScheme(num_x, ordered=True), CooccurrenceScheme(num_x)
    counts = np.random.default_rng(num_x).integers(0, 9, size=(3, num_x * num_x))
    expected = np.zeros((3, unordered.num_z_categories), dtype=np.int64)
    code = {lab: r for r, lab in enumerate(unordered.category_labels())}
    for j, (a, b) in enumerate(ordered.category_labels()):
        expected[:, code[min(a, b), max(a, b)]] += counts[:, j]
    np.testing.assert_array_equal(fold_counts(counts, num_x), expected)


@pytest.mark.parametrize("num_x", [1, 2, 5, 20])
def test_fold_counts_equals_the_gather_it_caches(num_x):
    i = num_x
    counts = np.random.default_rng(num_x).integers(0, 2**40, size=(7, i * i))
    a = np.repeat(np.arange(i), np.arange(i, 0, -1))
    b = np.arange(a.size) - a * (2 * i - a + 1) // 2 + a
    expected = counts[..., a * i + b] + counts[..., b * i + a] * (a != b)
    for _ in range(2):  # built once, then read from the cache
        got = fold_counts(counts, i)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)
    assert _fold_index(i) is _fold_index(i)
    assert not any(x.flags.writeable for x in _fold_index(i))


@given(small_grids(max_cats=4))
@settings(max_examples=40, deadline=None)
def test_mixture_consistency_is_exact(grid):
    cls = DistanceClassification.default_for(grid)
    sample = enumerate_pairs(grid, cls, CooccurrenceScheme(grid.num_categories))
    dists = conditional_pmfs(sample)
    mix = np.zeros_like(dists.p_z.probs)
    for k, cond in enumerate(dists.conditionals):
        if cond is not None:
            mix += float(dists.p_w.probs[k]) * cond.probs
    np.testing.assert_allclose(mix, dists.p_z.probs, rtol=0, atol=1e-15)
    # the joint table marginalizes back to p_w and p_z
    np.testing.assert_allclose(
        dists.joint.probs.sum(axis=0), dists.p_w.probs, rtol=0, atol=1e-15
    )
    np.testing.assert_allclose(
        dists.joint.probs.sum(axis=1), dists.p_z.probs, rtol=0, atol=1e-15
    )


# --------------------------------------------------------------------------
# one ordered tally, its bands summed and its codes folded, equals the direct tallies

@st.composite
def covered_grids(draw):
    """A grid of side <= 30 with I <= 20, a covering classification of it and
    a coarser one whose breaks are a subset, both outer breaks included."""
    rows = draw(st.integers(min_value=1, max_value=30))
    cols = draw(st.integers(min_value=2 if rows == 1 else 1, max_value=30))
    cats = draw(st.integers(min_value=1, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    values = np.random.default_rng(seed).integers(1, cats + 1, size=rows * cols)
    grid = _grid(rows, cols, cats, values)
    lo = draw(st.floats(min_value=0.0, max_value=0.99))
    hi = math.hypot(rows - 1, cols - 1) + draw(st.floats(min_value=0.0, max_value=5.0))
    inner = draw(
        st.lists(st.floats(min_value=lo, max_value=hi, exclude_min=True, exclude_max=True),
                 max_size=8, unique=True)
    )
    fine = (lo, *sorted(inner), hi)
    keep = draw(st.lists(st.booleans(), min_size=len(inner), max_size=len(inner)))
    coarse = (lo, *(b for b, k in zip(sorted(inner), keep) if k), hi)
    return grid, DistanceClassification(fine), DistanceClassification(coarse)


@given(covered_grids())
@example(
    (_grid(1, 2, 1, [1, 1]), DistanceClassification((0.0, 1.0)), DistanceClassification((0.0, 1.0)))
)
@settings(max_examples=40)
def test_coarsened_and_folded_tally_equals_direct_tallies(case):
    grid, fine, coarse = case
    i = grid.num_categories
    ordered, unordered = CooccurrenceScheme(i, ordered=True), CooccurrenceScheme(i)
    tally = enumerate_pairs(grid, fine, ordered)
    coarsened = np.diff(pairs_within(grid, fine, coarse.breaks)[len(fine.breaks):], axis=0)
    _assert_same_counts(coarsened, enumerate_pairs(grid, coarse, ordered))
    _assert_same_counts(fold_counts(coarsened, i), enumerate_pairs(grid, coarse, unordered))
    _assert_same_counts(fold_counts(tally.category_counts, i), enumerate_pairs(grid, fine, unordered))
    # a sub-range keeps only its own pairs: the oracle skips the others
    sub = DistanceClassification(fine.breaks[:2])
    _assert_same_counts(
        np.diff(pairs_within(grid, fine, sub.breaks)[len(fine.breaks):], axis=0),
        enumerate_pairs_displacement(grid, sub, ordered, require_coverage=False),
    )


def _assert_same_counts(counts, sample):
    np.testing.assert_array_equal(counts, sample.category_counts)
    np.testing.assert_array_equal(counts.sum(axis=1), sample.pair_counts)


def test_coarsen_needs_breaks_of_the_tally():
    g = _chessboard(4)
    cls = DistanceClassification((0, 1, 2, 5))
    # nothing up to the first break, the 24 rook pairs up to 1, all 120 up to 5
    within = fold_counts(pairs_within(g, cls, (0, 1, 5)), 2)
    np.testing.assert_array_equal(within[[4, 5, 6]], [[0, 0, 0], [0, 24, 0], [28, 64, 28]])
    np.testing.assert_array_equal(within[:4:3], within[[4, 6]])
    # a distance that is no break splits the tally there
    split = enumerate_pairs(g, DistanceClassification((0, 1.5, 5)), CooccurrenceScheme(2))
    np.testing.assert_array_equal(
        fold_counts(pairs_within(g, cls, (1.5,))[-1], 2), split.category_counts[0]
    )


def test_refined_adds_only_inner_breaks():
    cls = DistanceClassification((0.5, 2.0, 5.0))
    assert cls.refined((1.0, 2.0, 5.0, 7.0, 0.25)).breaks == (0.5, 1.0, 2.0, 5.0)
    assert cls.refined(()).breaks == cls.breaks


# --------------------------------------------------------------------------
# one band geometry serves every grid of its shape and bands

def _awkward_bands(rows, cols, *extra):
    """(0, window diagonal] split where row supports are awkward: at 1.5; at
    sqrt(2) and sqrt(5), equal to the distances of (1, 1) and (1, 2); at
    rows - 1; and around (1.5, 1.55], a band no displacement reaches."""
    breaks = (math.sqrt(2), 1.5, 1.55, math.sqrt(5), rows - 1, *extra)
    return DistanceClassification((0.0, math.hypot(rows, cols))).refined(breaks)


def _last_rows(rows, cols, cls):
    """Per band, the largest dr among its displacements, or -1 when it has none."""
    last = [-1] * cls.num_bands
    for dr, dc in _displacements(rows, cols):
        k = cls.band_index(math.sqrt(dr * dr + dc * dc))
        last[k] = max(last[k], dr)
    return last


@pytest.mark.parametrize("rows,cols", [(1, 8), (8, 1), (2, 2), (3, 8), (5, 7), (8, 8)])
@pytest.mark.parametrize("ordered", [False, True])
def test_reused_geometry_equals_bruteforce(rows, cols, ordered):
    cls = _awkward_bands(rows, cols)
    geometry = BandGeometry(rows, cols, cls)
    rng = np.random.default_rng(rows * 10 + cols)
    for cats in (1, 2, 5, 20):
        scheme = CooccurrenceScheme(cats, ordered=ordered)
        for _ in range(2):
            values = rng.integers(1, cats + 1, size=rows * cols)
            grid = _grid(rows, cols, cats, values)
            _assert_same_tally(
                enumerate_pairs(grid, cls, scheme, geometry=geometry),
                enumerate_pairs_bruteforce(grid, cls, scheme),
            )


@pytest.mark.parametrize("cats", [1, 2, 5, 20])
@pytest.mark.parametrize("ordered", [False, True])
def test_reused_geometry_equals_the_displacement_oracle(cats, ordered):
    rows, cols = 37, 29
    cls = _awkward_bands(rows, cols, 10.0, 20.0)
    geometry = BandGeometry(rows, cols, cls)
    scheme = CooccurrenceScheme(cats, ordered=ordered)
    rng = np.random.default_rng(cats)
    values = rng.integers(1, cats + 1, size=rows * cols)
    # a random map, the same mix sorted into blocks, and a map missing category 1
    for v in (values, np.sort(values), np.maximum(values, min(2, cats))):
        grid = _grid(rows, cols, cats, v)
        _assert_same_tally(
            enumerate_pairs(grid, cls, scheme, geometry=geometry),
            enumerate_pairs_displacement(grid, cls, scheme),
        )


@pytest.mark.parametrize("rows,cols", [(1, 8), (8, 1), (5, 7), (9, 6), (37, 29)])
def test_band_spectra_keep_the_rows_their_band_reaches(rows, cols):
    cls = _awkward_bands(rows, cols)
    geometry = BandGeometry(rows, cols, cls)
    # the outermost band keeps no spectrum: it is every pair minus the inner bands
    assert len(geometry.spectra) == cls.num_bands - 1
    kept = [0 if s is None else s.shape[1] for s in geometry.spectra]
    assert kept == [last + 1 for last in _last_rows(rows, cols, cls)[:-1]]
    assert 0 in kept  # the band (1.5, 1.55]
    assert [s is None for s in geometry.spectra] == [t == 0 for t in geometry.totals[:-1]]


def test_plane_is_sized_by_the_inner_bands():
    for n, side in ((50, 80), (200, 240), (1000, 1080)):
        geometry = BandGeometry(n, n, DistanceClassification.default_for(_chessboard(n)))
        assert (geometry.p1, geometry.p2) == (side, side)
    for rows, cols in ((1, 8), (8, 1), (5, 5), (5, 7), (9, 6), (37, 29), (29, 37)):
        diag = math.hypot(rows, cols)
        for breaks in (
            (0.0, diag),
            (0.0, 1.0, 100.0, 200.0),
            (0.0, 1.0, 3.5, diag),
            _awkward_bands(rows, cols).breaks,
            DistanceClassification.default_for(_grid(rows, cols, 1, np.ones(rows * cols))).breaks,
        ):
            geometry = BandGeometry(rows, cols, DistanceClassification(breaks))
            assert geometry.p1 <= _fast_length(2 * rows - 1)
            assert geometry.p2 <= _fast_length(2 * cols - 1)


# the edges of the outermost band's complement route, (rows, cols, breaks) each
COMPLEMENT_EDGES_SMALL = [
    pytest.param(8, 8, (0.0, math.hypot(8, 8)), id="one-band"),
    pytest.param(5, 5, (0.0, 1.0, 100.0, 200.0), id="unreached-outer-band"),
    pytest.param(4, 8, (0.0, 1.0, 3.5, math.hypot(4, 8)), id="inner-bands-reach-every-row"),
    pytest.param(8, 4, (0.0, 1.0, 3.5, math.hypot(8, 4)), id="inner-bands-reach-every-column"),
    pytest.param(1, 8, (0.0, 1.0, 2.0, 5.0, math.hypot(1, 8)), id="1xn"),
    pytest.param(8, 1, (0.0, 1.0, 2.0, 5.0, math.hypot(8, 1)), id="nx1"),
]
COMPLEMENT_EDGES_MID = [
    pytest.param(37, 29, (0.0, math.hypot(37, 29)), id="one-band"),
    pytest.param(37, 29, (0.0, 1.0, 100.0, 200.0), id="unreached-outer-band"),
    pytest.param(29, 37, (0.0, 1.0, 30.0, math.hypot(29, 37)), id="inner-bands-reach-every-row"),
    pytest.param(37, 29, (0.0, 1.0, 30.0, math.hypot(37, 29)), id="inner-bands-reach-every-column"),
    pytest.param(1, 60, (0.0, 1.0, 30.0, math.hypot(1, 60)), id="1xn"),
    pytest.param(60, 1, (0.0, 1.0, 30.0, math.hypot(60, 1)), id="nx1"),
]


def _edge_grids(rows, cols):
    """Per I in (1, 2, 5, 20): a random map and the same map missing category 1."""
    rng = np.random.default_rng(rows * 100 + cols)
    for cats in (1, 2, 5, 20):
        values = rng.integers(1, cats + 1, size=rows * cols)
        for v in (values, np.maximum(values, min(2, cats))):
            yield _grid(rows, cols, cats, v)


@pytest.mark.parametrize("rows,cols,breaks", COMPLEMENT_EDGES_SMALL)
@pytest.mark.parametrize("ordered", [False, True])
def test_complement_edges_equal_bruteforce(rows, cols, breaks, ordered):
    cls = DistanceClassification(breaks)
    for grid in _edge_grids(rows, cols):
        scheme = CooccurrenceScheme(grid.num_categories, ordered=ordered)
        _assert_same_tally(
            enumerate_pairs(grid, cls, scheme), enumerate_pairs_bruteforce(grid, cls, scheme)
        )


@pytest.mark.parametrize("rows,cols,breaks", COMPLEMENT_EDGES_MID)
@pytest.mark.parametrize("ordered", [False, True])
def test_complement_edges_equal_the_displacement_oracle(rows, cols, breaks, ordered):
    cls = DistanceClassification(breaks)
    for grid in _edge_grids(rows, cols):
        scheme = CooccurrenceScheme(grid.num_categories, ordered=ordered)
        _assert_same_tally(
            enumerate_pairs(grid, cls, scheme), enumerate_pairs_displacement(grid, cls, scheme)
        )


def test_one_band_tally_runs_no_fft(monkeypatch):
    def no_fft(*args, **kwargs):
        raise AssertionError("a one-band tally ran an FFT")

    grid = _grid(6, 7, 3, np.random.default_rng(3).integers(1, 4, size=42))
    cls = DistanceClassification((0.0, window_diagonal(grid)))
    scheme = CooccurrenceScheme(3, ordered=True)
    for name in ("fft", "rfft"):
        monkeypatch.setattr(np.fft, name, no_fft)
    geometry = BandGeometry(6, 7, cls)
    assert geometry.spectra == ()
    _assert_same_tally(
        enumerate_pairs(grid, cls, scheme, geometry=geometry),
        enumerate_pairs_bruteforce(grid, cls, scheme),
    )


def test_geometry_must_fit_the_grid_and_bands():
    grid = _chessboard(6)
    cls = DistanceClassification.default_for(grid)
    scheme = CooccurrenceScheme(2, ordered=True)
    for wrong in (
        BandGeometry(6, 7, cls),
        BandGeometry(7, 6, cls),
        BandGeometry(6, 6, cls.refined((1.5,))),
    ):
        with pytest.raises(ValueError, match="geometry of a"):
            enumerate_pairs(grid, cls, scheme, geometry=wrong)
    _assert_same_tally(
        enumerate_pairs(grid, cls, scheme, geometry=BandGeometry(6, 6, cls)),
        enumerate_pairs(grid, cls, scheme),
    )
    with pytest.raises(CoverageError, match="has no band"):
        BandGeometry(6, 6, DistanceClassification((0, 1, 2)))
    for rows, cols in ((0, 6), (6, 0)):
        with pytest.raises(ValueError, match="^grid dimensions must be positive$"):
            BandGeometry(rows, cols, cls)


def _three_grids(rows, cols, cats, seed, blocks=False):
    """Three random maps of one shape, each sorted into blocks when asked."""
    rng = np.random.default_rng(seed)
    for _ in range(3):
        values = rng.integers(1, cats + 1, size=rows * cols)
        yield _grid(rows, cols, cats, np.sort(values) if blocks else values)


@pytest.mark.parametrize(
    "rows,cols,cats,blocks,breaks",
    [
        (200, 200, 2, False, None),
        (200, 200, 2, True, None),
        (50, 50, 5, False, None),
        (50, 50, 20, False, None),
        (50, 50, 5, False, (0.0, math.hypot(50, 50))),
        (1, 60, 3, False, None),
    ],
    ids=["200x200-I2", "200x200-I2-blocks", "50x50-I5", "50x50-I20", "one-band", "1x60"],
)
@pytest.mark.parametrize("ordered", [False, True])
def test_shared_geometry_equals_the_one_shot_tally(rows, cols, cats, blocks, breaks, ordered):
    grids = list(_three_grids(rows, cols, cats, rows + cats, blocks))
    if breaks is None:
        breaks = DistanceClassification.default_for(grids[0]).breaks
    cls = DistanceClassification(breaks)
    scheme = CooccurrenceScheme(cats, ordered=ordered)
    geometry = BandGeometry(rows, cols, cls)
    stage_one = [None if s is None else s.tobytes() for s in geometry.spectra]
    for grid in grids:
        _assert_same_tally(
            enumerate_pairs(grid, cls, scheme, geometry=geometry),
            enumerate_pairs(grid, cls, scheme),
        )
    assert len(geometry.finished) == len(geometry.spectra)
    for s, g in zip(geometry.spectra, geometry.finished):
        assert (s is None) == (g is None)
        if g is not None:
            assert g.shape == (geometry.p2 // 2 + 1, geometry.p1)
            assert not g.flags.writeable
    assert [None if s is None else s.tobytes() for s in geometry.spectra] == stage_one


def test_one_shot_tally_never_finishes_the_band_spectra(monkeypatch):
    def refuse(self):
        raise AssertionError("a one-shot tally built the finished band spectra")

    monkeypatch.setattr(BandGeometry, "finished", property(refuse))
    grid = next(_three_grids(40, 30, 3, 7))
    cls = DistanceClassification.default_for(grid)
    for ordered in (False, True):
        scheme = CooccurrenceScheme(3, ordered=ordered)
        _assert_same_tally(
            enumerate_pairs(grid, cls, scheme), enumerate_pairs_displacement(grid, cls, scheme)
        )
    pairs_within(grid, cls, (2.5,))
    decompose(grid)
    with pytest.raises(AssertionError, match="one-shot tally built"):
        enumerate_pairs(grid, cls, scheme, geometry=BandGeometry(40, 30, cls))


def test_tally_peak_allocation_stays_bounded():
    # the tally that finished every category's column blocks once per band,
    # over a float distance plane, peaked at 4,303,232 traced bytes here
    grid = _grid(200, 200, 2, np.random.default_rng(1).integers(1, 3, size=40000))
    cls = DistanceClassification.default_for(grid)
    scheme = CooccurrenceScheme(2, ordered=True)
    enumerate_pairs(grid, cls, scheme)  # loads np.fft outside the trace
    tracemalloc.start()
    try:
        enumerate_pairs(grid, cls, scheme)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4_303_232


def test_many_category_tally_peak_stays_at_the_fft_route():
    # the tally before the direct routes peaked at 8,449,177 traced bytes in this test
    grid = _grid(200, 200, 20, np.random.default_rng(1).integers(1, 21, size=40000))
    cls = DistanceClassification.default_for(grid)
    scheme = CooccurrenceScheme(20, ordered=True)
    enumerate_pairs(grid, cls, scheme)  # loads np.fft outside the trace
    tracemalloc.start()
    try:
        enumerate_pairs(grid, cls, scheme)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8_449_177


# --------------------------------------------------------------------------
# the window route: the last present category's spectrum is the window's
# minus the other categories'

def _window_edge_grids(rows, cols, cats):
    """Maps whose last present category is rare, absent or alone, then a random one."""
    n = rows * cols
    rng = np.random.default_rng(n + cats)
    below = rng.integers(1, cats, size=n) if cats > 1 else np.ones(n, dtype=np.int64)
    yield _grid(rows, cols, cats, below)  # the highest code is absent
    yield _grid(rows, cols, cats, below + (cats > 1))  # the lowest code is absent
    for pixel in (0, n - 1):  # the last present category is one pixel
        single = below.copy()
        single[pixel] = cats
        yield _grid(rows, cols, cats, single)
    yield _grid(rows, cols, cats, np.full(n, cats))  # no category is transformed
    yield _grid(rows, cols, cats, rng.integers(1, cats + 1, size=n))


def _window_route_cases(rows, cols, cats):
    """Each edge grid with its bands, both orders, without and with a shared geometry."""
    for grid in _window_edge_grids(rows, cols, cats):
        cls = DistanceClassification.default_for(grid)
        for ordered in (False, True):
            scheme = CooccurrenceScheme(cats, ordered=ordered)
            for geometry in (None, BandGeometry(rows, cols, cls)):
                yield grid, cls, scheme, enumerate_pairs(grid, cls, scheme, geometry=geometry)


@pytest.mark.parametrize("rows,cols", [(8, 8), (5, 7), (1, 60), (60, 1)])
@pytest.mark.parametrize("cats", [1, 2, 3])
def test_window_route_edges_equal_bruteforce(rows, cols, cats):
    for grid, cls, scheme, tally in _window_route_cases(rows, cols, cats):
        _assert_same_tally(tally, enumerate_pairs_bruteforce(grid, cls, scheme))
        _assert_same_tally(tally, enumerate_pairs_displacement(grid, cls, scheme))


@pytest.mark.parametrize(
    "rows,cols,cats", [(50, 50, 20), (37, 29, 3), (37, 29, 20), (1, 60, 20), (60, 1, 20)]
)
def test_window_route_edges_equal_the_displacement_oracle(rows, cols, cats):
    for grid, cls, scheme, tally in _window_route_cases(rows, cols, cats):
        _assert_same_tally(tally, enumerate_pairs_displacement(grid, cls, scheme))


# each side of the direct routes: (0, 1] (2 displacements) from 3 categories
# on, (1, 2] (4) from 5 on, the block pair route from 6 on; a 1 x n or
# n x 1 grid has one-displacement bands
@pytest.mark.parametrize("rows,cols", [(8, 8), (5, 7), (1, 8), (8, 1)])
@pytest.mark.parametrize("cats", [2, 3, 5, 6, 8, 20])
def test_direct_route_edges_equal_bruteforce(rows, cols, cats):
    for grid, cls, scheme, tally in _window_route_cases(rows, cols, cats):
        _assert_same_tally(tally, enumerate_pairs_bruteforce(grid, cls, scheme))


def _spy(monkeypatch, target, name, calls):
    real = getattr(target, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(target, name, spy)


@pytest.mark.parametrize("shared", [False, True])
def test_direct_routes_run_only_for_many_categories(shared, monkeypatch):
    calls = []
    for target, name in (
        (cooccur, "_direct_band_counts"),
        (cooccur, "_block_pair_counts"),
        (BandGeometry, "displacements"),
    ):
        _spy(monkeypatch, target, name, calls)
    both = {"_direct_band_counts", "_block_pair_counts"}
    # the bands (0, 1] and (1, 2] have 2 and 4 displacements: direct below ni
    for cats, routes, direct in ((2, set(), 0), (3, both, 1), (5, both, 2), (20, both, 2)):
        grid = next(_three_grids(50, 50, cats, cats))
        # the bands of an experiment grid's tally
        cls = DistanceClassification.default_for(grid).refined((1.0, 2.0))
        scheme = CooccurrenceScheme(cats, ordered=True)
        geometry = BandGeometry(50, 50, cls) if shared else None
        calls.clear()
        tally = enumerate_pairs(grid, cls, scheme, geometry=geometry)
        assert set(calls) - {"displacements"} == routes
        assert calls.count("displacements") == direct
        _assert_same_tally(tally, enumerate_pairs_displacement(grid, cls, scheme))


@pytest.mark.parametrize("rows,cols", [(1, 9), (2, 9), (9, 9), (9, 40)])
def test_geometry_sizes_count_each_band_displacements(rows, cols):
    cls = DistanceClassification((0.0, 1.0, 1.5, 2.0, 2.5, 4.0, 7.5, 100.0))
    geometry = BandGeometry(rows, cols, cls)
    want = [[] for _ in range(cls.num_bands)]
    for dr, dc in _displacements(rows, cols):
        want[cls.band_index(math.hypot(dr, dc))].append((dr, dc))
    assert geometry.sizes.tolist() == [len(w) for w in want[:-1]]
    for k, w in enumerate(want[:-1]):
        assert sorted(geometry.displacements(k)) == sorted(w)
        assert geometry.displacements(k) is geometry.displacements(k)


# a partial last block, one band of blocks (9360 pixels), several with a
# partial last one; ni = cats - 1, and ni = 3 and 4 take each kind too
@pytest.mark.parametrize(
    "n,cats",
    [
        (9, 6),
        (2500, 20),
        (9377, 7),
        (2 * 9360 + 5, 20),
        (13, 4),
        (3 * 9360 + 3, 4),
        (21, 5),
        (2 * 9360 + 7, 5),
    ],
)
def test_block_pair_table_equals_a_one_hot_count(n, cats):
    flat = np.random.default_rng(n).integers(2, cats + 1, size=n)  # code 1 is absent
    flat[-1] = cats  # and the last present code ends the grid
    present = np.flatnonzero(np.bincount(flat))
    onehot = (flat[:, None] == present).astype(np.int64)
    before = np.cumsum(onehot, axis=0) - onehot
    table = cooccur._block_pair_counts(flat, present)
    assert table.dtype == np.int64
    np.testing.assert_array_equal(table, before.T @ onehot)


def test_a_128_band_map_keeps_its_last_band():
    # 128 bands put band + 1 = 128 past the int8 range of a -1 .. 127 map
    grid = _grid(2, 130, 3, np.random.default_rng(128).integers(1, 4, size=260))
    cls = DistanceClassification(tuple(range(128)) + (130.0,))
    assert cls.num_bands == 128
    for ordered in (False, True):
        scheme = CooccurrenceScheme(3, ordered=ordered)
        _assert_same_tally(
            enumerate_pairs(grid, cls, scheme), enumerate_pairs_displacement(grid, cls, scheme)
        )


@pytest.mark.parametrize("present", [1, 3, 5])
def test_tally_transforms_one_category_fewer_than_it_finds(present, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return rfft(*args, **kwargs)

    rfft = np.fft.rfft
    grid = _grid(20, 30, 5, np.random.default_rng(present).integers(1, present + 1, size=600))
    cls = DistanceClassification.default_for(grid)
    geometry = BandGeometry(20, 30, cls)
    geometry.spectra  # the band masks' transforms run on first use, before the count
    monkeypatch.setattr(np.fft, "rfft", counting)
    for ordered in (False, True):
        calls.clear()
        scheme = CooccurrenceScheme(5, ordered=ordered)
        _assert_same_tally(
            enumerate_pairs(grid, cls, scheme, geometry=geometry),
            enumerate_pairs_displacement(grid, cls, scheme),
        )
        assert calls == [(30, 20)] * (present - 1)


def test_window_route_keeps_its_rounding_headroom_at_1000x1000():
    values = np.ones(1000 * 1000, dtype=np.int64)
    values[500_333] = 2  # the last present category is one pixel
    grid = _grid(1000, 1000, 2, values)
    cls = DistanceClassification.default_for(grid)
    geometry = BandGeometry(1000, 1000, cls)
    m0 = grid.matrix - 1
    band, autocorrelation = (
        _inner_band_sums(m0, np.array([0, 1]), geometry, batch) for batch in (True, False)
    )
    # the band route's sums, and the one-shot route's autocorrelation values,
    # which it rounds before it sums them
    assert np.max(np.abs(band - np.rint(band))) <= 1e-5
    corr = cooccur._autocorrelation(m0 == 0, geometry)
    live = (geometry.plane >= 0) & (geometry.plane < cls.num_bands - 1)
    assert np.max(np.abs(corr[live] - np.rint(corr[live]))) <= 1e-5
    np.testing.assert_array_equal(np.rint(band), autocorrelation)


# --------------------------------------------------------------------------
# a one-shot tally of two present categories: one autocorrelation, no band spectra

def _two_category_grids(rows, cols):
    """Two-category maps: random, sorted into blocks, one pixel of either
    category at either end, and a map declaring I = 5 whose codes are 2 and 5."""
    n = rows * cols
    values = np.random.default_rng(n).integers(1, 3, size=n)
    yield _grid(rows, cols, 2, values)
    yield _grid(rows, cols, 2, np.sort(values))
    for code in (1, 2):
        for pixel in (0, n - 1):
            single = np.full(n, 3 - code)
            single[pixel] = code
            yield _grid(rows, cols, 2, single)
    yield _grid(rows, cols, 5, np.where(values == 1, 2, 5))


def _small_two_category_bands(rows, cols):
    """The default bands, one band, a break at 5, the exact distance of (3, 4)
    and (0, 5), and bands with one no displacement reaches."""
    diag = math.hypot(rows, cols)
    return (
        DistanceClassification.default_for(_grid(rows, cols, 1, np.ones(rows * cols))),
        DistanceClassification((0.0, diag)),
        DistanceClassification((0.0, 1.0, 5.0, diag)),
        _awkward_bands(rows, cols),
    )


@pytest.mark.parametrize("rows,cols", [(1, 8), (8, 1), (3, 6), (5, 7), (8, 8)])
@pytest.mark.parametrize("ordered", [False, True])
def test_two_category_route_equals_bruteforce(rows, cols, ordered):
    for cls in _small_two_category_bands(rows, cols):
        for grid in _two_category_grids(rows, cols):
            scheme = CooccurrenceScheme(grid.num_categories, ordered=ordered)
            _assert_same_tally(
                enumerate_pairs(grid, cls, scheme), enumerate_pairs_bruteforce(grid, cls, scheme)
            )


def _every_ordered_pair(grid):
    """Ordered (a, b) counts of every pair u < v of the grid, from prefix counts of each category."""
    onehot = np.eye(grid.num_categories, dtype=np.int64)[grid.values - 1]
    before = np.cumsum(onehot, axis=0) - onehot
    return (before.T @ onehot).ravel()  # (a, b): a-pixels before b-pixels


@pytest.mark.parametrize(
    "rows,cols,breaks",
    [
        (37, 29, None),
        (37, 29, (0.0, 1.0, 30.0, math.hypot(37, 29))),
        (29, 37, (0.0, 2.0, 30.0, math.hypot(29, 37))),
        (50, 50, None),
        (200, 200, None),
    ],
    ids=["37x29", "37x29-reach-exactly-30", "29x37-reach-exactly-30", "50x50", "200x200"],
)
def test_two_category_route_equals_the_displacement_oracle(rows, cols, breaks):
    # with a break at 30, (18, 24) and (24, 18) lie at exactly 30, in the band (1 or 2, 30]
    grids = list(_two_category_grids(rows, cols))
    if rows == 200:  # the random, sorted and declared I = 5 maps, for the oracle's time
        grids = grids[:2] + grids[-1:]
    cls = DistanceClassification(breaks) if breaks else DistanceClassification.default_for(grids[0])
    near = DistanceClassification(cls.breaks[:-1])
    for grid in grids:
        i = grid.num_categories
        ordered = CooccurrenceScheme(i, ordered=True)
        # the oracle tallies the inner bands, the outermost one is every pair minus theirs
        want = np.zeros((cls.num_bands, i * i), dtype=np.int64)
        want[:-1] = enumerate_pairs_displacement(
            grid, near, ordered, require_coverage=False
        ).category_counts
        want[-1] = _every_ordered_pair(grid) - want[:-1].sum(axis=0)
        for scheme in (ordered, CooccurrenceScheme(i)):
            codes = pair_code_table(scheme).ravel()
            coded = np.zeros((cls.num_bands, scheme.num_z_categories), dtype=np.int64)
            np.add.at(coded, (slice(None), codes), want)
            tally = enumerate_pairs(grid, cls, scheme)
            np.testing.assert_array_equal(tally.category_counts, coded)
            np.testing.assert_array_equal(tally.pair_counts, coded.sum(axis=1))


def test_two_category_route_reads_no_band_spectrum(monkeypatch):
    calls = []

    def spying(name):
        real = getattr(BandGeometry, name)
        return property(lambda self: calls.append(name) or real.__get__(self, BandGeometry))

    for name in ("spectra", "finished"):
        monkeypatch.setattr(BandGeometry, name, spying(name))
    _spy(monkeypatch, cooccur, "_two_category_sums", calls)
    values = np.random.default_rng(2).integers(1, 4, size=2500)
    two, three = _grid(50, 50, 2, np.minimum(values, 2)), _grid(50, 50, 3, values)
    declared = _grid(50, 50, 5, np.minimum(values, 2) * 2)  # the codes 2 and 4
    cls = DistanceClassification.default_for(two)
    for grid, geometry, routes in (
        (two, None, ["_two_category_sums"]),
        (declared, None, ["_two_category_sums"]),
        (two, BandGeometry(50, 50, cls), ["finished", "spectra"]),
        (three, None, ["spectra"]),
    ):
        scheme = CooccurrenceScheme(grid.num_categories, ordered=True)
        calls.clear()
        tally = enumerate_pairs(grid, cls, scheme, geometry=geometry)
        assert sorted(set(calls)) == routes
        _assert_same_tally(tally, enumerate_pairs_displacement(grid, cls, scheme))
    calls.clear()
    pairs_within(two, cls, (2.5,))
    decompose(two)
    assert set(calls) == {"_two_category_sums"}


def test_two_category_route_rejects_an_autocorrelation_off_its_integers(monkeypatch):
    def shifted(*args, **kwargs):
        corr = irfft(*args, **kwargs)
        # two displacements of the band (0, 1], (0, 1) and (1, 0): its sum
        # moves by 0.8 and rounds off by one in all four cells, which still
        # add up to the band total
        corr[1, 0] += 0.4
        corr[0, 1] += 0.4
        return corr

    irfft = np.fft.irfft
    grid = _grid(9, 7, 2, np.random.default_rng(9).integers(1, 3, size=63))
    cls = DistanceClassification.default_for(grid)
    scheme = CooccurrenceScheme(2, ordered=True)
    monkeypatch.setattr(np.fft, "irfft", shifted)
    with pytest.raises(ConsistencyError, match="^FFT autocorrelation lies 0.4 from the nearest"):
        enumerate_pairs(grid, cls, scheme)


def test_two_category_tally_peak_stays_bounded_at_1000x1000():
    # the one-shot tally by the band route peaked at 18,328,943 traced bytes here
    grid = _grid(1000, 1000, 2, np.random.default_rng(1).integers(1, 3, size=10**6))
    cls = DistanceClassification.default_for(grid)
    scheme = CooccurrenceScheme(2, ordered=True)
    enumerate_pairs(grid, cls, scheme)  # loads np.fft outside the trace
    tracemalloc.start()
    try:
        enumerate_pairs(grid, cls, scheme)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 18_328_943


def test_two_category_every_pair_table_peak_stays_bounded_at_1000x1000():
    # with per-category positions and their concatenation it peaked at 16,005,244 traced bytes
    grid = _grid(1000, 1000, 2, np.random.default_rng(1).integers(1, 3, size=10**6))
    tracemalloc.start()
    try:
        cooccur._ordered_pair_counts(grid.values, np.array([1, 2]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5_000_264


# --------------------------------------------------------------------------
# closed-form anchors: band totals and whole tables at sizes no oracle reaches

def _band_runs(rows, cols, breaks):
    """Per signed column dc, the cut points dr where each break is passed.

    Band k holds the linking displacements (dr, dc) with cut[k] <= dr <
    cut[k + 1].  Within a column math.sqrt(dr^2 + dc^2) grows with dr, so
    bisect finds each cut; no distance plane or band map is built.
    """
    for dc in range(-(cols - 1), cols):
        drs = range(0 if dc > 0 else 1, rows)  # at dr = 0 only dc > 0 reaches a later pixel
        key = lambda dr: math.sqrt(dr * dr + dc * dc)
        cut = [drs.start + bisect.bisect_right(drs, b, key=key) for b in breaks]
        assert cut[0] == drs.start and cut[-1] == rows, "a linking distance has no band"
        yield dc, cut


def _closed_form_totals(rows, cols, breaks):
    """Per band, the sum of (rows - dr) * (cols - |dc|) over its displacements."""
    below = np.concatenate(([0], np.cumsum(np.arange(rows, 0, -1))))  # sum of rows - dr, dr < m
    totals = np.zeros(len(breaks) - 1, dtype=np.int64)
    for dc, cut in _band_runs(rows, cols, breaks):
        totals += np.diff(below[cut]) * (cols - abs(dc))
    return totals


@pytest.mark.parametrize(
    "rows,cols,breaks",
    [
        (50, 50, None),
        (200, 200, None),
        (1000, 1000, None),
        (37, 29, None),
        (1, 8, None),
        (8, 1, None),
        (37, 29, (0.0, 1.0, 30.0, math.hypot(37, 29))),
        (37, 29, (0.0, 1.0, 29.999999, math.hypot(37, 29))),
        (29, 37, (0.0, 2.0, 30.0, math.hypot(29, 37))),
        (5, 5, (0.0, 1.0, 100.0, 200.0)),
        (37, 29, (0.0, math.hypot(37, 29))),
        (8, 1, (0.0, 7.0)),
    ],
    ids=[
        "50x50", "200x200", "1000x1000", "37x29", "1x8", "8x1", "reach-exactly-30",
        "reach-below-30", "29x37-reach-30", "past-the-farthest-pair", "one-band", "one-band-nx1",
    ],
)
def test_geometry_totals_equal_an_independent_sum(rows, cols, breaks):
    if breaks is None:
        breaks = DistanceClassification.default_for(_grid(rows, cols, 1, np.ones(rows * cols))).breaks
    geometry = BandGeometry(rows, cols, DistanceClassification(breaks))
    np.testing.assert_array_equal(geometry.totals, _closed_form_totals(rows, cols, breaks))
    assert geometry.totals.sum() == math.comb(rows * cols, 2)


def _label_pairs(labels, shift):
    """(L, L) counts of (labels[t], labels[t + shift]) over every t with both in range."""
    n, k = labels.size, int(labels.max()) + 1
    if shift >= 0:
        a, b = labels[: n - shift], labels[shift:]
    else:
        a, b = labels[-shift:], labels[: n + shift]
    return np.bincount(a * k + b, minlength=k * k).reshape(k, k)


def _product_grid_tally(h, v, table, breaks):
    """Ordered (bands, I * I) counts of the grid x[r, c] = table[h[r], v[c]], in closed form.

    The pairs at displacement (dr, dc) are the row-label pairs at dr times
    the column-label pairs at dc: for stripes, (rows - dr) times the
    column-pair counts at dc.  No pixel pair is visited, no FFT runs and no
    band is a complement.
    """
    row_pairs = np.array([_label_pairs(h, dr) for dr in range(h.size)])
    below = np.concatenate((np.zeros_like(row_pairs[:1]), np.cumsum(row_pairs, axis=0)))
    k = int(v.max()) + 1
    labels = np.zeros((len(breaks) - 1, *row_pairs.shape[1:], k, k), dtype=np.int64)
    for dc, cut in _band_runs(h.size, v.size, breaks):
        labels += np.multiply.outer(np.diff(below[cut], axis=0), _label_pairs(v, dc))
    i = int(table.max())
    category = np.eye(i, dtype=np.int64)[table - 1]  # [h, v, a]: 1 where table[h, v] = a + 1
    ordered = np.einsum("kgjvw,gva,jwb->kab", labels, category, category)
    return ordered.reshape(len(breaks) - 1, i * i)


def _stripes(width, cats, vertical, rows, cols):
    """Row labels, column labels and table of stripes ``width`` wide cycling over ``cats``."""
    if not vertical:
        h, v, table = _stripes(width, cats, True, cols, rows)
        return v, h, table.T
    stripe = np.arange(cols) // width % cats
    return np.zeros(rows, dtype=np.int64), stripe, np.arange(1, cats + 1)[None]


def _checkerboard(rows, cols):
    return np.arange(rows) % 2, np.arange(cols) % 2, np.array([[1, 2], [2, 1]])


CLOSED_FORM_GRIDS = [
    pytest.param(partial(_stripes, 7, 3, True), True, id="vertical-7-over-3"),
    pytest.param(partial(_stripes, 7, 3, False), False, id="horizontal-7-over-3"),
    pytest.param(partial(_stripes, 1, 2, True), False, id="vertical-1-over-2"),
    pytest.param(partial(_stripes, 1, 2, False), True, id="horizontal-1-over-2"),
    pytest.param(_checkerboard, True, id="checkerboard"),
]


@pytest.mark.parametrize("make,ordered", CLOSED_FORM_GRIDS)
@pytest.mark.parametrize("rows,cols", [(1000, 1000), (230, 97)])
def test_tally_equals_the_closed_form_of_a_product_grid(make, ordered, rows, cols):
    h, v, table = make(rows, cols)
    grid = _grid(rows, cols, int(table.max()), table[h[:, None], v].ravel())
    cls = DistanceClassification.default_for(grid)
    expected = _product_grid_tally(h, v, table, cls.breaks)
    # at 1000 x 1000 each grid is tallied once, in one of the two codings
    for scheme_ordered in (ordered,) if rows == 1000 else (True, False):
        scheme = CooccurrenceScheme(grid.num_categories, ordered=scheme_ordered)
        want = expected if scheme_ordered else fold_counts(expected, grid.num_categories)
        np.testing.assert_array_equal(enumerate_pairs(grid, cls, scheme).category_counts, want)
