"""Grid and partition geometry, validation, file round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatent import (
    UNIFORM_PARTITION,
    AreaPartition,
    CategoricalGrid,
    max_centroid_distance,
    partition_window,
    pixel_distance,
    read_grid,
    read_partition,
    window_diagonal,
    write_grid,
    write_partition,
)


def _grid(rows, cols, cats, values):
    return CategoricalGrid(rows, cols, cats, np.asarray(values, dtype=np.int64))


def test_grid_basics():
    g = _grid(2, 3, 2, [1, 2, 1, 2, 1, 2])
    assert g.size == 6
    assert g.matrix.shape == (2, 3)
    np.testing.assert_array_equal(g.category_counts(), [3, 3])
    np.testing.assert_allclose(g.category_pmf().probs, [0.5, 0.5])


def test_grid_rejects_out_of_range_codes():
    with pytest.raises(ValueError):
        _grid(2, 2, 2, [1, 2, 3, 1])
    with pytest.raises(ValueError):
        _grid(2, 2, 2, [0, 1, 2, 1])
    with pytest.raises(ValueError):
        _grid(2, 2, 2, [1, 2, 1])  # wrong length


def test_grid_values_readonly():
    g = _grid(2, 2, 2, [1, 2, 2, 1])
    with pytest.raises(ValueError):
        g.values[0] = 2


def test_pixel_distance_examples():
    g = _grid(50, 50, 1, np.ones(2500))
    assert pixel_distance(0, 1, g) == 1.0  # contiguous in a row
    assert pixel_distance(0, 50, g) == 1.0  # contiguous in a column
    assert pixel_distance(0, 51, g) == pytest.approx(math.sqrt(2), abs=1e-15)
    # opposite corners of the 50x50 window
    assert pixel_distance(0, 2499, g) == pytest.approx(49 * math.sqrt(2), abs=1e-12)
    assert pixel_distance(0, 2499, g) == pytest.approx(69.29646455628166, abs=1e-10)


def test_distance_symmetry_and_extremes():
    g = _grid(4, 6, 1, np.ones(24))
    assert pixel_distance(3, 17, g) == pixel_distance(17, 3, g)
    assert pixel_distance(5, 5, g) == 0.0
    assert max_centroid_distance(g) == pytest.approx(math.hypot(3, 5), abs=1e-15)
    assert window_diagonal(g) == pytest.approx(math.hypot(4, 6), abs=1e-15)
    assert max_centroid_distance(g) < window_diagonal(g)


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=143),
    st.integers(min_value=0, max_value=143),
)
@settings(max_examples=200, deadline=None)
def test_distance_invariant_under_transposition(rows, cols, u, v):
    """Transposing the grid transposes pixel coordinates, not distances."""
    n = rows * cols
    u %= n
    v %= n
    g = _grid(rows, cols, 1, np.ones(n))
    gt = _grid(cols, rows, 1, np.ones(n))
    ut = (u % cols) * rows + u // cols
    vt = (v % cols) * rows + v // cols
    assert pixel_distance(u, v, g) == pytest.approx(
        pixel_distance(ut, vt, gt), abs=1e-12
    )


# --------------------------------------------------------------------------
# partitions

def test_uniform_partition_4x4():
    g = _grid(4, 4, 1, np.ones(16))
    part = partition_window(g, 4, UNIFORM_PARTITION)
    assert part.num_areas == 4
    np.testing.assert_array_equal(part.sizes, [4, 4, 4, 4])
    np.testing.assert_array_equal(
        part.assignment.reshape(4, 4),
        [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]],
    )
    np.testing.assert_allclose(part.centroids(), [(1, 1), (1, 3), (3, 1), (3, 3)])


def test_uniform_partition_requires_divisibility():
    g = _grid(5, 4, 1, np.ones(20))
    with pytest.raises(ValueError):
        partition_window(g, 4, UNIFORM_PARTITION)  # 2 does not divide 5


def test_partition_needs_square_area_count():
    g = _grid(6, 6, 1, np.ones(36))
    with pytest.raises(ValueError):
        partition_window(g, 8, UNIFORM_PARTITION)


def test_seeded_partition_covers_and_reproduces():
    g = _grid(50, 50, 1, np.ones(2500))
    a = partition_window(g, 100, 7)
    b = partition_window(g, 100, 7)
    c = partition_window(g, 100, 8)
    np.testing.assert_array_equal(a.assignment, b.assignment)
    assert not np.array_equal(a.assignment, c.assignment)
    assert a.num_areas == 100
    assert int(a.sizes.sum()) == 2500
    assert a.sizes.min() >= 1
    # every area id occurs
    assert set(np.unique(a.assignment)) == set(range(1, 101))
    # seeded cuts give areas of different size (the generic case)
    assert len(set(a.sizes.tolist())) > 1


def test_partition_validation():
    with pytest.raises(ValueError):
        AreaPartition(2, 2, 2, np.array([1, 1, 3, 3]))  # id out of range
    with pytest.raises(ValueError):
        AreaPartition(2, 2, 3, np.array([1, 1, 3, 3]))  # area 2 empty


def test_partition_centroids_weighted_by_pixels():
    # area 1 = the left 2x2 block, area 2 = the right column
    part = AreaPartition(2, 3, 2, np.array([1, 1, 2, 1, 1, 2]))
    cents = part.centroids()
    np.testing.assert_allclose(cents[0], (1.0, 1.0))
    np.testing.assert_allclose(cents[1], (1.0, 2.5))


# --------------------------------------------------------------------------
# file round trips

def test_grid_roundtrip(tmp_path):
    g = _grid(3, 4, 5, [1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 1, 2])
    path = tmp_path / "g.grid"
    write_grid(g, path)
    back = read_grid(path)
    assert (back.rows, back.cols, back.num_categories) == (3, 4, 5)
    np.testing.assert_array_equal(back.values, g.values)


def test_grid_read_rejects_corruption(tmp_path):
    path = tmp_path / "bad.grid"
    path.write_text("2 2 2\n1 2\n0 1\n")  # value 0 out of range
    with pytest.raises(ValueError):
        read_grid(path)
    path.write_text("2 2\n1 2\n1 1\n")  # malformed header
    with pytest.raises(ValueError):
        read_grid(path)


@pytest.mark.parametrize(
    "text",
    [
        b"2 2 20\n1 2\n2 1_1\n",  # int() reads 1_1 as 11
        b"2 2 2\n+2 1\n2 1\n",  # sign
        b"2 2 2\n1 2\n2 -1\n",
        b"2 2 +2\n1 2\n2 1\n",  # sign in the header
        b"2 2 2\n1 2\n2 1.0\n",  # float
        b"2 2 2\n1 2\n2 1e0\n",
        b"2 2 2\n1 2\n2 1 1\n",  # extra value
        b"2 2 2\n1 2\n2\n",  # missing value
        "2 2 2\n1 2\n2 \u0661\n".encode(),  # non-ASCII digit, which int() accepts
        b"2 2 2\n1 2\n2 \xff\n",  # non-ASCII byte
        b"2 2 2\n1 2\n2 0000000000000000001\n",  # beyond 18 digits
        b"",  # empty file
        b"\n1 2\n2 1\n",  # empty header
    ],
)
def test_grid_read_rejects_malformed_text(tmp_path, text):
    path = tmp_path / "bad.grid"
    path.write_bytes(text)
    with pytest.raises(ValueError):
        read_grid(path)


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_grid_read_accepts_any_line_break(tmp_path, newline):
    path = tmp_path / "g.grid"
    path.write_bytes(newline.join([b"2 3 12", b"1  12 3", b"\t4 5 6", b""]))
    back = read_grid(path)
    assert (back.rows, back.cols, back.num_categories) == (2, 3, 12)
    np.testing.assert_array_equal(back.values, [1, 12, 3, 4, 5, 6])


@pytest.mark.parametrize(
    "text",
    [b"4\n1 2 3 4_0\n", b"+4\n1 2 3 4\n", b"4\n1 2 3 4.0\n", b"4 4\n1 2 3 4\n", b"4\n1 2 3\n", b""],
)
def test_partition_read_rejects_malformed_text(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_bytes(text)
    with pytest.raises(ValueError):
        read_partition(path, 2, 2)


def test_partition_roundtrip(tmp_path):
    g = _grid(10, 10, 1, np.ones(100))
    part = partition_window(g, 4, 3)
    path = tmp_path / "p.txt"
    write_partition(part, path)
    back = read_partition(path, 10, 10)
    assert back.num_areas == 4
    np.testing.assert_array_equal(back.assignment, part.assignment)
    np.testing.assert_array_equal(back.sizes, part.sizes)
