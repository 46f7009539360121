"""Pair enumeration: schemes, distance bands, counts, oracle equivalence."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import _displacements, enumerate_pairs_displacement

from spatent import (
    CategoricalGrid,
    ConsistencyError,
    CooccurrenceScheme,
    CoverageError,
    DistanceClassification,
    PairSample,
    conditional_pmfs,
    count_categories,
    enumerate_pairs,
    enumerate_pairs_bruteforce,
    tabulate_within,
    window_diagonal,
)
from spatent.cooccur import (
    BandGeometry,
    _exact_counts,
    _fast_length,
    fold_counts,
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
    lut = scheme.pair_code_table()
    assert labels[lut[0, 2]] == (1, 3)
    assert lut[0, 2] == lut[2, 0]  # unordered symmetry
    ordered = CooccurrenceScheme(3, ordered=True)
    olut = ordered.pair_code_table()
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
    sample = enumerate_pairs(g, DistanceClassification((0.0, 1.0, 5.0)), CooccurrenceScheme(2))
    assert sample.cumulative((1.0,)).sum() == 24  # contiguous


def test_scheme_must_cover_grid_categories():
    g = _grid(2, 2, 3, [1, 2, 3, 1])
    with pytest.raises(ValueError):
        enumerate_pairs(g, DistanceClassification.default_for(g), CooccurrenceScheme(2))


def test_tabulate_within_distance_one():
    g = _chessboard(3)
    pmf = tabulate_within(g, 1.0, CooccurrenceScheme(2))
    # 12 contiguous pairs on a 3x3 board, all mixed
    assert pmf.probs[pmf.labels.index((1, 2))] == 1.0
    with pytest.raises(ValueError, match=r"no pixel pairs at distance <= 0\.5"):
        tabulate_within(g, 0.5, CooccurrenceScheme(2))
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            tabulate_within(g, bad, CooccurrenceScheme(2))


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
    pmf = tabulate_within(g, distance, scheme)
    assert pmf.labels == scheme.category_labels()
    np.testing.assert_array_equal(pmf.probs, ref.category_counts[0] / ref.total_pairs)


# --------------------------------------------------------------------------
# dual-route equivalence and mixture consistency

def test_single_pixel_grid_rejected():
    g = _grid(1, 1, 1, [1])
    with pytest.raises(ValueError):
        enumerate_pairs(g, DistanceClassification.default_for(g), CooccurrenceScheme(1))


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


@pytest.mark.parametrize("num_x", [1, 2, 3, 5, 20])
def test_fold_counts_follows_the_unordered_codes(num_x):
    ordered, unordered = CooccurrenceScheme(num_x, ordered=True), CooccurrenceScheme(num_x)
    counts = np.random.default_rng(num_x).integers(0, 9, size=(3, num_x * num_x))
    expected = np.zeros((3, unordered.num_z_categories), dtype=np.int64)
    code = {lab: r for r, lab in enumerate(unordered.category_labels())}
    for j, (a, b) in enumerate(ordered.category_labels()):
        expected[:, code[min(a, b), max(a, b)]] += counts[:, j]
    np.testing.assert_array_equal(fold_counts(counts, num_x), expected)


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
    coarsened = np.diff(tally.cumulative(coarse.breaks), axis=0)
    _assert_same_counts(coarsened, enumerate_pairs(grid, coarse, ordered))
    _assert_same_counts(fold_counts(coarsened, i), enumerate_pairs(grid, coarse, unordered))
    _assert_same_counts(fold_counts(tally.category_counts, i), enumerate_pairs(grid, fine, unordered))
    # a sub-range keeps only its own pairs: the oracle skips the others
    sub = DistanceClassification(fine.breaks[:2])
    _assert_same_counts(
        np.diff(tally.cumulative(sub.breaks), axis=0),
        enumerate_pairs_displacement(grid, sub, ordered, require_coverage=False),
    )


def _assert_same_counts(counts, sample):
    np.testing.assert_array_equal(counts, sample.category_counts)
    np.testing.assert_array_equal(counts.sum(axis=1), sample.pair_counts)


def test_coarsen_needs_breaks_of_the_tally():
    g = _chessboard(4)
    tally = enumerate_pairs(g, DistanceClassification((0, 1, 2, 5)), CooccurrenceScheme(2))
    # nothing up to the first break, the 24 rook pairs up to 1, all 120 up to 5
    np.testing.assert_array_equal(tally.cumulative((0, 1, 5)), [[0, 0, 0], [0, 24, 0], [28, 64, 28]])
    with pytest.raises(ValueError, match=r"breaks \[1\.5\] are not breaks of this tally"):
        tally.cumulative((0, 1.5, 5))


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
