"""Area-based and contiguity-based classical indices."""

import math

import numpy as np
import pytest

from spatent import (
    AreaNeighbourhood,
    AreaPartition,
    AreaProbabilities,
    CategoricalGrid,
    ConsistencyError,
    UNIFORM_PARTITION,
    batty_entropy,
    build_area_neighbourhood,
    estimate_area_probs,
    karlstrom_entropy,
    leibovici_entropy,
    oneill_entropy,
    parresol_edwards_entropy,
    partition_window,
    relative_contagion,
    shannon,
)
from spatent.classic import contiguity_index


def _grid(rows, cols, cats, values):
    return CategoricalGrid(rows, cols, cats, np.asarray(values, dtype=np.int64))


def _chessboard(n=50):
    vals = ((np.add.outer(np.arange(n), np.arange(n)) % 2) + 1).ravel()
    return _grid(n, n, 2, vals)


def _all_black(n=50):
    return _grid(n, n, 2, np.ones(n * n))


# --------------------------------------------------------------------------
# area probabilities

def test_estimate_area_probs_counts_target_share():
    g = _grid(2, 2, 2, [1, 1, 2, 1])
    part = partition_window(g, 4, UNIFORM_PARTITION)
    ap = estimate_area_probs(g, part, 1)
    np.testing.assert_allclose(ap.probs, [1 / 3, 1 / 3, 0.0, 1 / 3])
    np.testing.assert_array_equal(ap.sizes, [1, 1, 1, 1])
    ap2 = estimate_area_probs(g, part, 2)
    np.testing.assert_allclose(ap2.probs, [0.0, 0.0, 1.0, 0.0])


def test_estimate_area_probs_errors():
    g = _grid(2, 2, 2, [1, 1, 1, 1])
    part = partition_window(g, 4, UNIFORM_PARTITION)
    with pytest.raises(ValueError):
        estimate_area_probs(g, part, 2)  # absent category
    with pytest.raises(ValueError):
        estimate_area_probs(g, part, 3)  # out of range
    other = partition_window(_grid(4, 4, 1, np.ones(16)), 4, UNIFORM_PARTITION)
    with pytest.raises(ValueError):
        estimate_area_probs(g, other, 1)  # geometry mismatch


@pytest.mark.parametrize(
    "probs,sizes,message",
    [
        ([0.5, 0.5], [1.0], "probs and sizes must have equal length"),
        ([], [], "need at least one area"),
        ([0.5, 0.6], [1.0, 1.0], "area probabilities must be a distribution"),
        ([1.5, -0.5], [1.0, 1.0], "area probabilities must be a distribution"),
        ([0.5, 0.5], [1.0, 0.0], "area sizes must be positive"),
    ],
)
def test_area_probabilities_validation(probs, sizes, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        AreaProbabilities(probs, sizes)


# --------------------------------------------------------------------------
# Batty's index

def test_batty_maximum_at_constant_intensity():
    g = _all_black()
    part = partition_window(g, 100, 17)  # areas of different size
    ap = estimate_area_probs(g, part, 1)
    assert batty_entropy(ap) == pytest.approx(math.log(2500), abs=1e-12)
    assert round(batty_entropy(ap), 3) == 7.824


def test_batty_minimum_in_smallest_area():
    part = partition_window(_all_black(), 100, 17)
    sizes = part.sizes.astype(float)
    probs = np.zeros(100)
    probs[np.argmin(sizes)] = 1.0
    ap = AreaProbabilities(probs, sizes)
    assert batty_entropy(ap) == pytest.approx(math.log(sizes.min()), abs=1e-12)
    # any other concentration point gives a larger value
    probs2 = np.zeros(100)
    probs2[np.argmax(sizes)] = 1.0
    assert batty_entropy(AreaProbabilities(probs2, sizes)) > batty_entropy(ap)


def test_batty_reduces_to_shannon_at_unit_sizes():
    probs = np.array([0.5, 0.25, 0.25])
    ap = AreaProbabilities(probs, np.ones(3))
    assert batty_entropy(ap) == pytest.approx(shannon(probs), abs=1e-15)


def test_batty_clustered_below_spread():
    g = _grid(4, 4, 2, [1] * 4 + [2] * 12)  # category 1 packed in the top row
    part = partition_window(g, 4, UNIFORM_PARTITION)
    clustered = batty_entropy(estimate_area_probs(g, part, 1))
    spread = batty_entropy(estimate_area_probs(_grid(4, 4, 2, [1, 2] * 8), part, 1))
    assert clustered < spread


# --------------------------------------------------------------------------
# Karlstrom-Ceccato index

def test_neighbourhood_validation():
    with pytest.raises(ValueError):
        AreaNeighbourhood(np.array([[0.5, 0.4], [0.5, 0.5]]))  # row sum != 1
    with pytest.raises(ValueError):
        AreaNeighbourhood(np.array([[1.0, -0.0001], [0.0, 1.0]]).clip(-1, 1) * [[1, -1], [1, 1]])
    with pytest.raises(ValueError):
        AreaNeighbourhood(np.array([[np.nan, np.nan], [0.0, 1.0]]))  # NaN passes both tests above
    for weights in (np.full(3, 1 / 3), np.full((2, 3), 1 / 3)):
        with pytest.raises(ValueError, match="^weights must be a square matrix$"):
            AreaNeighbourhood(weights)
    part = partition_window(_all_black(10), 4, UNIFORM_PARTITION)
    with pytest.raises(ValueError):
        build_area_neighbourhood(part, math.nan)


def test_distance_zero_gives_identity_neighbourhood():
    part = partition_window(_all_black(10), 4, UNIFORM_PARTITION)
    nb = build_area_neighbourhood(part, 0.0)
    np.testing.assert_array_equal(nb.weights, np.eye(4))
    assert np.flatnonzero(nb.weights[0] > 0).tolist() == [0]


def test_neighbourhood_grows_with_distance():
    part = partition_window(_all_black(10), 4, UNIFORM_PARTITION)
    # centroids 5 apart: distance 5 reaches rook neighbours, 7.2 all areas
    nb5 = build_area_neighbourhood(part, 5.0)
    nb8 = build_area_neighbourhood(part, 8.0)
    assert len(np.flatnonzero(nb5.weights[0] > 0)) == 3
    assert len(np.flatnonzero(nb8.weights[0] > 0)) == 4
    np.testing.assert_allclose(nb8.weights, 0.25)


def test_karlstrom_identity_neighbourhood_equals_unit_batty():
    rng = np.random.default_rng(3)
    g = _grid(50, 50, 2, rng.integers(1, 3, size=2500))
    part = partition_window(g, 100, 17)
    ap = estimate_area_probs(g, part, 1)
    nb = build_area_neighbourhood(part, 0.0)
    unit = AreaProbabilities(ap.probs, np.ones(100))
    assert abs(karlstrom_entropy(ap, nb) - batty_entropy(unit)) < 1e-12


def test_karlstrom_maximum_at_uniform_probs():
    part = partition_window(_all_black(), 100, 17)
    ap = AreaProbabilities(np.full(100, 0.01), part.sizes.astype(float))
    for d in (0.0, 2.0, 5.0, 10.0):
        nb = build_area_neighbourhood(part, d)
        assert karlstrom_entropy(ap, nb) == pytest.approx(math.log(100), abs=1e-12)
    assert round(math.log(100), 3) == 4.605


def test_area_indices_read_one_support_per_grid():
    rng = np.random.default_rng(11)
    g = _grid(50, 50, 2, (rng.random(2500) < 0.02) + 1)  # category 2 misses areas
    part = partition_window(g, 100, 5)
    ap = estimate_area_probs(g, part, 2)
    mask, p = ap._support
    assert 0 < mask.sum() < 100 and ap._support[1] is p
    # the formulas with the support taken per index
    on = ap.probs > 0.0
    assert batty_entropy(ap) == float((ap.probs[on] * np.log(ap.sizes[on] / ap.probs[on])).sum())
    for d in (0.0, 2.0, 5.0, 10.0):
        nb = build_area_neighbourhood(part, d)
        smoothed = nb.weights @ ap.probs
        want = 0.0 - float((ap.probs[on] * np.log(smoothed[on])).sum())
        assert karlstrom_entropy(ap, nb) == want
    counts = np.bincount(part.assignment[g.values == 2] - 1, minlength=100)
    np.testing.assert_array_equal(ap.probs, counts / counts.sum())


def test_karlstrom_area_count_mismatch():
    part = partition_window(_all_black(10), 4, UNIFORM_PARTITION)
    nb = build_area_neighbourhood(part, 0.0)
    with pytest.raises(ValueError):
        karlstrom_entropy(AreaProbabilities(np.full(9, 1 / 9), np.ones(9)), nb)


def test_karlstrom_rejects_weights_that_vanish_on_the_support():
    # no area neighbours itself here, so the one occupied area smooths to 0
    ap = AreaProbabilities([1.0, 0.0], [1.0, 1.0])
    nb = AreaNeighbourhood(np.array([[0.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ConsistencyError, match="^smoothed probability vanished on the support$"):
        karlstrom_entropy(ap, nb)


# --------------------------------------------------------------------------
# contiguity-based indices

def test_oneill_chessboard_is_log_two():
    assert oneill_entropy(_chessboard()) == pytest.approx(math.log(2), abs=1e-12)


def test_oneill_all_black_is_zero():
    assert oneill_entropy(_all_black()) == 0.0


def test_oneill_ordering_constant_chessboard_random():
    # constant grid: one pair type; chessboard: the two mixed types, evenly;
    # random: all four types roughly evenly (close to the log 4 ceiling)
    rng = np.random.default_rng(9)
    rand = _grid(50, 50, 2, rng.integers(1, 3, size=2500))
    assert 0.0 == oneill_entropy(_all_black()) < oneill_entropy(_chessboard())
    assert oneill_entropy(_chessboard()) < oneill_entropy(rand) <= math.log(4)


def test_leibovici_distance_one_equals_oneill():
    rng = np.random.default_rng(11)
    for _ in range(5):
        g = _grid(12, 9, 3, rng.integers(1, 4, size=108))
        assert leibovici_entropy(g, 1.0) == pytest.approx(oneill_entropy(g), abs=1e-15)


def test_leibovici_chessboard_distance_two_frozen():
    # ordered pairs within distance 2 on the 50x50 chessboard (14502 total):
    # the 4900 contiguous pairs are mixed, 2450 per orientation; the 9602
    # pairs at sqrt(2) and 2 are same-category, 4801 per category
    counts = np.array([4801.0, 2450.0, 2450.0, 4801.0])
    total = counts.sum()
    expected = math.log(total) - float((counts * np.log(counts)).sum()) / total
    assert total == 14502
    assert leibovici_entropy(_chessboard(), 2.0) == pytest.approx(expected, abs=1e-12)


def test_leibovici_needs_reachable_distance():
    for bad in (0.5, 0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            leibovici_entropy(_chessboard(4), bad)


def test_relative_contagion_chessboard():
    # ordered contiguous pairs split evenly between the two mixed types:
    # H = log 2, maximum log 4, contagion 1 - 1/2
    assert relative_contagion(_chessboard()) == pytest.approx(0.5, abs=1e-12)


def test_relative_contagion_extremes():
    assert relative_contagion(_all_black()) == 1.0
    rng = np.random.default_rng(2)
    g = _grid(40, 40, 4, rng.integers(1, 5, size=1600))
    rc = relative_contagion(g)
    assert 0.0 <= rc <= 1.0
    assert rc < 0.2  # random pattern sits near the disordered end


def test_relative_contagion_unordered_variant():
    rc_o = relative_contagion(_chessboard(), ordered=True)
    rc_no = relative_contagion(_chessboard(), ordered=False)
    # unordered: all contiguous pairs are the single mixed type -> H = 0
    assert rc_no == 1.0
    assert rc_o == pytest.approx(0.5, abs=1e-12)


def test_contiguity_index_rejects_unknown_names():
    with pytest.raises(ValueError, match="^unknown contiguity index 'contagion'$"):
        contiguity_index("contagion", np.array([0.5, 0.5]))


def test_parresol_is_negated_oneill():
    rng = np.random.default_rng(4)
    g = _grid(15, 15, 5, rng.integers(1, 6, size=225))
    assert parresol_edwards_entropy(g) == pytest.approx(-oneill_entropy(g), abs=1e-15)
    assert parresol_edwards_entropy(g) <= 0.0


def test_neighbourhoods_reuse_the_partition_centroids():
    grid = _grid(50, 50, 2, np.ones(2500))
    part = partition_window(grid, 100, 17)
    cached = [build_area_neighbourhood(part, d) for d in (0.0, 2.0, 5.0, 10.0)]
    assert part.centroids() is part.centroids()
    assert not part.centroids().flags.writeable
    for d, nb in zip((0.0, 2.0, 5.0, 10.0), cached):
        fresh = AreaPartition(part.rows, part.cols, part.num_areas, part.assignment)
        assert np.array_equal(build_area_neighbourhood(fresh, d).weights, nb.weights)
