"""Pair enumeration: schemes, distance bands, counts, oracle equivalence."""

import io
import math

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
    conditional_pmfs,
    count_categories,
    enumerate_pairs,
    enumerate_pairs_bruteforce,
    tabulate_within,
    window_diagonal,
)
from spatent.cooccur import _exact_counts


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
    assert cls.covers(g)


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
    assert cls.intervals() == ((0.0, 1.0), (1.0, 2.0), (2.0, 5.0))


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
    assert sample.coarsen(DistanceClassification((0.0, 1.0))).total_pairs == 24  # contiguous


def test_scheme_must_cover_grid_categories():
    g = _grid(2, 2, 3, [1, 2, 3, 1])
    with pytest.raises(ValueError):
        enumerate_pairs(g, DistanceClassification.default_for(g), CooccurrenceScheme(2))


def test_tabulate_within_distance_one():
    g = _chessboard(3)
    pmf = tabulate_within(g, 1.0, CooccurrenceScheme(2))
    # 12 contiguous pairs on a 3x3 board, all mixed
    assert pmf.prob_of((1, 2)) == 1.0
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


def test_pair_sample_csv_export():
    g = _grid(2, 2, 2, [1, 2, 2, 1])
    sample = enumerate_pairs(g, DistanceClassification.default_for(g), CooccurrenceScheme(2))
    buf = io.StringIO()
    sample.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "band,z_category,count"
    assert lines[1] == "w1,1-1,0"
    assert lines[2] == "w1,1-2,4"
    assert len(lines) == 1 + 3 * 3


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
        dists.joint.col_marginal().probs, dists.p_w.probs, rtol=0, atol=1e-15
    )
    np.testing.assert_allclose(
        dists.joint.row_marginal().probs, dists.p_z.probs, rtol=0, atol=1e-15
    )


# --------------------------------------------------------------------------
# one ordered tally, coarsened and folded, equals the direct tallies

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
    _assert_same_tally(tally.coarsen(coarse), enumerate_pairs(grid, coarse, ordered))
    _assert_same_tally(tally.coarsen(coarse).fold(), enumerate_pairs(grid, coarse, unordered))
    _assert_same_tally(tally.fold(), enumerate_pairs(grid, fine, unordered))
    # a sub-range keeps only its own pairs: the oracle skips the others
    sub = DistanceClassification(fine.breaks[:2])
    _assert_same_tally(
        tally.coarsen(sub), enumerate_pairs_displacement(grid, sub, ordered, require_coverage=False)
    )


def test_coarsen_needs_breaks_of_the_tally():
    g = _chessboard(4)
    tally = enumerate_pairs(g, DistanceClassification((0, 1, 2, 5)), CooccurrenceScheme(2))
    assert tally.fold() is tally
    with pytest.raises(ValueError, match="not breaks of this tally"):
        tally.coarsen(DistanceClassification((0, 1.5, 5)))


def test_refined_adds_only_inner_breaks():
    cls = DistanceClassification((0.5, 2.0, 5.0))
    assert cls.refined((1.0, 2.0, 5.0, 7.0, 0.25)).breaks == (0.5, 1.0, 2.0, 5.0)
    assert cls.refined(()).breaks == cls.breaks
