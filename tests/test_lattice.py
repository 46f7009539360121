"""Grid and partition geometry, validation, file round trips."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spatent import (
    UNIFORM_PARTITION,
    AreaPartition,
    CategoricalGrid,
    partition_window,
    pixel_distance,
    read_grid,
    read_partition,
    window_diagonal,
    write_grid,
    write_partition,
)
from spatent.lattice import _parse_naturals


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
    with pytest.raises(ValueError, match="^category codes must be integers$"):
        CategoricalGrid(1, 2, 2, np.array([1.5, 2.0]))


def test_grid_rejects_bad_dimensions_and_pixel_indices():
    with pytest.raises(ValueError, match="^grid dimensions must be positive$"):
        _grid(0, 2, 2, [])
    with pytest.raises(ValueError, match="^num_categories must be >= 1$"):
        _grid(1, 2, 0, [1, 1])
    g = _grid(2, 3, 2, [1, 2, 1, 2, 1, 2])
    assert g.centroid(5) == (1.5, 2.5)
    for u in (6, -1):
        with pytest.raises(IndexError, match=rf"^pixel index {u} out of range 0\.\.5$"):
            g.centroid(u)


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
    assert window_diagonal(g) == pytest.approx(math.hypot(4, 6), abs=1e-15)


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
    with pytest.raises(ValueError, match="^unknown partition seed 'even'$"):
        partition_window(_grid(4, 4, 1, np.ones(16)), 4, "even")


def test_partition_centroids_weighted_by_pixels():
    # area 1 = the left 2x2 block, area 2 = the right column
    part = AreaPartition(2, 3, 2, np.array([1, 1, 2, 1, 1, 2]))
    cents = part.centroids()
    np.testing.assert_allclose(cents[0], (1.0, 1.0))
    np.testing.assert_allclose(cents[1], (1.0, 2.5))


def _masked_mean_centroids(part):
    """One mask per area: the mean row and column centroid of its pixels."""
    r, c = np.divmod(np.arange(part.rows * part.cols), part.cols)
    rows = []
    for g in range(1, part.num_areas + 1):
        mask = part.assignment == g
        rows.append([(r[mask] + 0.5).mean(), (c[mask] + 0.5).mean()])
    return np.array(rows)


@pytest.mark.parametrize(
    "rows,cols,num_areas",
    [(1, 1, 1), (1, 9, 1), (7, 3, 9), (13, 17, 16), (50, 50, 100), (64, 40, 400)],
)
def test_partition_centroids_equal_the_masked_means(rows, cols, num_areas):
    grid = _grid(rows, cols, 1, np.ones(rows * cols))
    g0 = math.isqrt(num_areas)
    uniform = [UNIFORM_PARTITION] if rows % g0 == cols % g0 == 0 else []
    for seed in [0, 1, 2, *uniform]:
        part = partition_window(grid, num_areas, seed)
        cents = part.centroids()
        assert cents.shape == (num_areas, 2)
        assert np.array_equal(cents, _masked_mean_centroids(part))


def test_irregular_partition_centroids_equal_the_masked_means(tmp_path):
    # scattered areas of unequal size, every label used, read back from a file
    rng = np.random.default_rng(11)
    labels = np.concatenate([np.arange(1, 31), rng.integers(1, 31, 37 * 23 - 30)])
    path = tmp_path / "p.txt"
    write_partition(AreaPartition(37, 23, 30, rng.permutation(labels)), path)
    part = read_partition(path, 37, 23)
    assert np.array_equal(part.centroids(), _masked_mean_centroids(part))


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


# every whitespace byte the readers accept, and the two-byte Windows line break
_GAPS = st.lists(
    st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"\r\n"]), min_size=1, max_size=3
).map(b"".join)
# 1 to 18 digits, leading zeros included
_NUMBERS = st.integers(1, 18).flatmap(
    lambda w: st.text("0123456789", min_size=w, max_size=w)
).map(str.encode)


@st.composite
def _bodies(draw, tokens=None):
    """Tokens between whitespace runs, each end bare or padded; possibly no token at all."""
    if tokens is None:
        tokens = draw(st.lists(_NUMBERS, max_size=40))
    parts = [draw(st.just(b"") | _GAPS)]
    for token in tokens:
        parts += [token, draw(_GAPS)]
    if draw(st.booleans()):
        parts[-1] = b""
    return b"".join(parts)


@st.composite
def _area_bodies(draw):
    """Area ids 1..G, every one used, each written with 1 to 18 digits."""
    drawn = draw(st.lists(st.integers(1, 6), min_size=1, max_size=40))
    ids = np.unique(drawn, return_inverse=True)[1] + 1
    tokens = [b"0" * draw(st.integers(0, 17)) + str(g).encode() for g in ids]
    return ids, draw(_bodies(tokens))


def _reference(body: bytes, what: str) -> np.ndarray:
    """An independent reader: the same byte check, then ``int`` on each whitespace-split token."""
    if body.translate(None, b"0123456789 \t\n\r\x0b\x0c"):
        raise ValueError(f"{what}: only ASCII digits and whitespace are allowed")
    return np.array([int(t) for t in body.split()], dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(_bodies())
@example(b"")
@example(b" \t\r\n\x0b\x0c")
@example(b"9" * 18)
@example(b"\r" + b"0" * 17 + b"7\r\r\n1\r")
def test_parse_naturals_equals_int_on_split_tokens(body):
    values = _parse_naturals(body, "body")
    assert values.dtype == np.int64 and values.shape == (len(body.split()),)
    assert np.array_equal(values, _reference(body, "body"))


@settings(max_examples=150, deadline=None)
@given(_area_bodies(), st.sampled_from([b"\n", b"\r", b"\r\n"]))
def test_file_readers_equal_int_on_split_tokens(tmp_path_factory, drawn, newline):
    ids, body = drawn
    expected = _reference(body, "body")
    assert np.array_equal(expected, ids)
    n, g = ids.size, ids.max()
    path = tmp_path_factory.mktemp("read") / "f.txt"
    path.write_bytes(f"1 {n} {g}".encode() + newline + body)
    grid = read_grid(path)
    assert (grid.rows, grid.cols, grid.num_categories) == (1, n, g)
    assert np.array_equal(grid.values, expected)
    path.write_bytes(str(g).encode() + newline + body)
    part = read_partition(path, 1, n)
    assert part.num_areas == g
    assert np.array_equal(part.assignment, expected)


def test_parse_naturals_error_texts():
    assert _parse_naturals(b"1 " + b"9" * 18 + b"\n", "body").tolist() == [1, 10**18 - 1]
    with pytest.raises(ValueError, match=r"^body: number longer than 18 digits$"):
        _parse_naturals(b"1 " + b"0" * 18 + b"1\n", "body")
    with pytest.raises(ValueError, match=r"^body: only ASCII digits and whitespace are allowed$"):
        _parse_naturals(b"1 2\x00", "body")


def test_file_reader_error_texts(tmp_path):
    path = tmp_path / "g.grid"
    path.write_bytes(b"1 2 2\n1 " + b"1" * 19 + b"\n")
    with pytest.raises(ValueError) as err:
        read_grid(path)
    assert str(err.value) == f"{path}: number longer than 18 digits"
    path.write_bytes(b"1 2 2\n1 2;\n")
    with pytest.raises(ValueError) as err:
        read_grid(path)
    assert str(err.value) == f"{path}: only ASCII digits and whitespace are allowed"
    path.write_bytes(b"2 x\n1 2\n")
    with pytest.raises(ValueError) as err:
        read_partition(path, 1, 2)
    assert str(err.value) == f"{path}: header: only ASCII digits and whitespace are allowed"


def test_read_grid_peak_allocation_stays_bounded(tmp_path):
    # the reader's temporaries stay below 4.5 int64 copies of the grid (it needs ~2.9)
    grid = _grid(500, 500, 2, np.random.default_rng(5).integers(1, 3, 250_000))
    path = tmp_path / "g.grid"
    write_grid(grid, path)
    tracemalloc.start()
    try:
        back = read_grid(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.values, grid.values)
    assert peak <= 4.5 * back.values.nbytes


def test_partition_roundtrip(tmp_path):
    g = _grid(10, 10, 1, np.ones(100))
    part = partition_window(g, 4, 3)
    path = tmp_path / "p.txt"
    write_partition(part, path)
    back = read_partition(path, 10, 10)
    assert back.num_areas == 4
    np.testing.assert_array_equal(back.assignment, part.assignment)
    np.testing.assert_array_equal(back.sizes, part.sizes)


def _per_value_text(header, rows):
    """A file of the writers' format, each value formatted on its own by ``str(int(x))``."""
    return (header + "".join(" ".join(str(int(x)) for x in row) + "\n" for row in rows)).encode()


@pytest.mark.parametrize("cats", [1, 2, 20])
@pytest.mark.parametrize("rows,cols", [(1, 7), (6, 1), (13, 17)])
def test_write_grid_equals_a_per_value_writer(tmp_path, rows, cols, cats):
    values = np.random.default_rng(rows * cols + cats).integers(1, cats + 1, size=rows * cols)
    path = tmp_path / "g.grid"
    write_grid(_grid(rows, cols, cats, values), path)
    want = _per_value_text(f"{rows} {cols} {cats}\n", values.reshape(rows, cols))
    assert path.read_bytes() == want


@pytest.mark.parametrize("num_areas", [1, 9, 10, 12345, 99999])
def test_write_partition_equals_a_per_value_writer(tmp_path, num_areas):
    # every area id once, then some twice: ids of 1 to 5 digits
    rng = np.random.default_rng(num_areas)
    rows, cols = 2, num_areas // 2 + 3
    extra = rng.integers(1, num_areas + 1, size=rows * cols - num_areas)
    labels = rng.permutation(np.concatenate((np.arange(1, num_areas + 1), extra)))
    path = tmp_path / "p.txt"
    write_partition(AreaPartition(rows, cols, num_areas, labels), path)
    assert path.read_bytes() == _per_value_text(f"{num_areas}\n", [labels])
