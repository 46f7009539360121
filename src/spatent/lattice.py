"""Categorical lattice data model.

A grid is a rows x cols window of unit-square pixels, each carrying one
category code from 1..num_categories.  Pixels are identified either by
row-major index u in 0..N-1 or by (row, col); the centroid of pixel
(r, c) sits at (r + 0.5, c + 0.5), so rook-contiguous pixels are exactly
the pairs at Euclidean centroid distance 1.

An area partition groups the same pixels into G labelled areas (irregular
rectangles by construction here), the support for the classical area-based
indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Final

import numpy as np

UNIFORM_PARTITION: Final = "uniform"  # sentinel seed: equal-size areas


@dataclass(frozen=True)
class CategoricalGrid:
    """Immutable categorical raster.

    ``values`` is the flat row-major vector of category codes; ``matrix``
    exposes the same buffer as a (rows, cols) view.
    """

    rows: int
    cols: int
    num_categories: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid dimensions must be positive")
        if self.num_categories < 1:
            raise ValueError("num_categories must be >= 1")
        v = np.asarray(self.values)
        if not np.issubdtype(v.dtype, np.integer):
            vv = np.asarray(self.values, dtype=np.int64)
            if not np.array_equal(vv, np.asarray(self.values)):
                raise ValueError("category codes must be integers")
            v = vv
        v = v.astype(np.int64, copy=True).ravel()
        if v.size != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} values, got {v.size}"
            )
        if v.size and (v.min() < 1 or v.max() > self.num_categories):
            raise ValueError(
                f"category codes must lie in 1..{self.num_categories}"
            )
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return self.rows * self.cols

    @property
    def matrix(self) -> np.ndarray:
        return self.values.reshape(self.rows, self.cols)

    def centroid(self, u: int) -> tuple[float, float]:
        """Centroid coordinates (row + 0.5, col + 0.5) of pixel u."""
        if not 0 <= u < self.size:
            raise IndexError(f"pixel index {u} out of range 0..{self.size - 1}")
        r, c = divmod(u, self.cols)
        return (r + 0.5, c + 0.5)

    def category_counts(self) -> np.ndarray:
        """Occurrences of each category 1..num_categories, as a length-I vector."""
        return np.bincount(self.values, minlength=self.num_categories + 1)[1:]

    def category_pmf(self):
        from .prob import Pmf

        return Pmf.from_counts(range(1, self.num_categories + 1), self.category_counts())


def pixel_distance(u: int, v: int, grid: CategoricalGrid) -> float:
    """Euclidean distance between the centroids of pixels u and v."""
    ru, cu = grid.centroid(u)
    rv, cv = grid.centroid(v)
    return math.hypot(ru - rv, cu - cv)


def window_diagonal(grid: CategoricalGrid) -> float:
    """Diagonal length of the observation window itself."""
    return math.hypot(grid.rows, grid.cols)


@dataclass(frozen=True)
class AreaPartition:
    """Assignment of every pixel to one of num_areas labelled areas (1..G)."""

    rows: int
    cols: int
    num_areas: int
    assignment: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.assignment, dtype=np.int64).ravel().copy()
        if a.size != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} assignments, got {a.size}"
            )
        if a.size and (a.min() < 1 or a.max() > self.num_areas):
            raise ValueError(f"area ids must lie in 1..{self.num_areas}")
        sizes = np.bincount(a, minlength=self.num_areas + 1)[1:]
        if np.any(sizes == 0):
            raise ValueError("every area must contain at least one pixel")
        a.flags.writeable = False
        sizes.flags.writeable = False
        object.__setattr__(self, "assignment", a)
        object.__setattr__(self, "_sizes", sizes)

    @property
    def sizes(self) -> np.ndarray:
        """Pixel count T_g of each area, indexed 0..G-1 for areas 1..G."""
        return self._sizes

    def centroids(self) -> np.ndarray:
        """(G, 2) area centroids (mean pixel centroid per area), computed once, read-only."""
        return self._centroids

    @cached_property
    def _centroids(self) -> np.ndarray:
        r, c = np.divmod(np.arange(self.rows * self.cols), self.cols)
        # pixel centroids are half-integers, so both weighted sums are exact
        sums = [np.bincount(self.assignment, x + 0.5, self.num_areas + 1)[1:] for x in (r, c)]
        out = np.stack(sums, axis=1) / self.sizes[:, None]
        out.flags.writeable = False
        return out


def partition_window(grid: CategoricalGrid, num_areas: int, seed) -> AreaPartition:
    """Partition the window into g0 x g0 rectangular areas, g0 = sqrt(num_areas).

    With an integer ``seed`` the g0-1 horizontal and vertical cut positions
    are drawn without replacement from the interior grid lines, so areas are
    unequal rectangles with side >= 1.  With ``seed=UNIFORM_PARTITION`` the
    cuts are evenly spaced, which requires g0 to divide both dimensions.
    """
    g0 = math.isqrt(num_areas)
    if g0 * g0 != num_areas:
        raise ValueError(f"num_areas must be a perfect square, got {num_areas}")
    if num_areas > grid.size:
        raise ValueError("more areas than pixels")
    if grid.rows < g0 or grid.cols < g0:
        raise ValueError(f"cannot cut a {grid.rows}x{grid.cols} grid into {g0}x{g0} strips")

    if isinstance(seed, str):
        if seed != UNIFORM_PARTITION:
            raise ValueError(f"unknown partition seed {seed!r}")
        if grid.rows % g0 or grid.cols % g0:
            raise ValueError(
                f"uniform partition needs {g0} to divide rows and cols"
            )
        row_cuts = np.arange(1, g0) * (grid.rows // g0)
        col_cuts = np.arange(1, g0) * (grid.cols // g0)
    else:
        rng = np.random.default_rng(seed)
        row_cuts = np.sort(rng.choice(np.arange(1, grid.rows), size=g0 - 1, replace=False))
        col_cuts = np.sort(rng.choice(np.arange(1, grid.cols), size=g0 - 1, replace=False))

    r_strip = np.searchsorted(row_cuts, np.arange(grid.rows), side="right")
    c_strip = np.searchsorted(col_cuts, np.arange(grid.cols), side="right")
    assignment = (r_strip[:, None] * g0 + c_strip[None, :] + 1).ravel()
    return AreaPartition(grid.rows, grid.cols, num_areas, assignment)


# ---------------------------------------------------------------------------
# plain-text file formats

def write_grid(grid: CategoricalGrid, path) -> None:
    """Write 'rows cols num_categories' then one line of codes per grid row."""
    # one decimal string per code, indexed by the matrix, not one str() per pixel
    codes = np.array([str(v) for v in range(grid.num_categories + 1)], dtype=object)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{grid.rows} {grid.cols} {grid.num_categories}\n")
        fh.writelines(" ".join(row) + "\n" for row in codes[grid.matrix])


_DIGITS = b"0123456789"
_WHITESPACE = b" \t\n\r\x0b\x0c"
# longest token parsed: 10**18 - 1 still fits an int64
_MAX_DIGITS = 18


def _parse_naturals(data: bytes, what: str) -> np.ndarray:
    """Whitespace-separated ASCII decimal numbers; any other byte is an error.

    Signs, underscores and non-ASCII digits, which Python's ``int()``
    accepts, raise ValueError like every other byte outside the two sets.
    One pass finds each number's first digit, then extends only the numbers
    whose next byte is still a digit, at most 18 digits deep.
    """
    if data.translate(None, _DIGITS + _WHITESPACE):
        raise ValueError(f"{what}: only ASCII digits and whitespace are allowed")
    # one whitespace byte per side, so every number has a non-digit on both sides
    buf = np.frombuffer(b" " + data + b" ", dtype=np.uint8)
    digit = buf >= ord("0")  # every whitespace byte sorts below "0"
    at = np.flatnonzero(digit[1:] > digit[:-1]) + 1  # each number's first digit
    values = (buf[at] - ord("0")).astype(np.int64)
    live = None  # which numbers ``at`` still follows; None means all of them
    for _ in range(_MAX_DIGITS - 1):
        at += 1
        more = np.flatnonzero(digit[at])
        if not more.size:
            return values
        at = at[more]
        live = more if live is None else live[more]
        values[live] = values[live] * 10 + (buf[at] - ord("0"))
    if digit[at + 1].any():
        raise ValueError(f"{what}: number longer than {_MAX_DIGITS} digits")
    return values


def _read_sections(path) -> tuple[bytes, bytes]:
    """The first line of a file and the rest, split at its first line break."""
    with open(path, "rb") as fh:
        data = fh.read()
    cut = min((i for i in (data.find(b"\n"), data.find(b"\r")) if i >= 0), default=len(data))
    return data[:cut], data[cut:]


def read_grid(path) -> CategoricalGrid:
    """Read the format of ``write_grid``: decimal digits and whitespace only."""
    header, body = _read_sections(path)
    dims = _parse_naturals(header, f"{path}: header")
    if dims.size != 3:
        raise ValueError(f"{path}: header must be 'rows cols num_categories'")
    rows, cols, num_categories = (int(x) for x in dims)
    return CategoricalGrid(rows, cols, num_categories, _parse_naturals(body, str(path)))


def write_partition(partition: AreaPartition, path) -> None:
    """Write the area count, then all pixel area ids row-major on one line."""
    ids = np.array([str(v) for v in range(partition.num_areas + 1)], dtype=object)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{partition.num_areas}\n")
        fh.write(" ".join(ids[partition.assignment]) + "\n")


def read_partition(path, rows: int, cols: int) -> AreaPartition:
    """Read the format of ``write_partition``: decimal digits and whitespace only."""
    header, body = _read_sections(path)
    count = _parse_naturals(header, f"{path}: header")
    if count.size != 1:
        raise ValueError(f"{path}: first line must be the area count")
    return AreaPartition(rows, cols, int(count[0]), _parse_naturals(body, str(path)))
