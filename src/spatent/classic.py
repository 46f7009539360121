"""Classical spatial entropy indices.

Two families:

* area-based: Batty's spatial entropy and the Karlstrom-Ceccato variant,
  computed from the probability that a target category falls in each area
  of a partition of the window;
* contiguity-based: O'Neill's entropy of ordered contiguous pixel pairs,
  Leibovici's cumulative-distance generalization, the relative contagion
  index, and the Parresol-Edwards negated form.

All of them are single numbers; none separates the contribution of space
from the entropy of the category mix, which is what the decomposition in
``spatent.decomp`` adds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cooccur import DistanceClassification, fold_counts, pairs_within
from .errors import ConsistencyError
from .lattice import AreaPartition, CategoricalGrid, window_diagonal
from .prob import _plogp, _row_sums


@dataclass(frozen=True)
class AreaProbabilities:
    """Per-area probabilities p_g of the target category, with area sizes T_g."""

    probs: np.ndarray
    sizes: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=np.float64).ravel()
        t = np.asarray(self.sizes, dtype=np.float64).ravel()
        if p.size != t.size:
            raise ValueError("probs and sizes must have equal length")
        if p.size == 0:
            raise ValueError("need at least one area")
        if (p < 0.0).any() or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("area probabilities must be a distribution")
        if (t <= 0.0).any():
            raise ValueError("area sizes must be positive")
        p.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "sizes", t)

    @property
    def num_areas(self) -> int:
        return self.probs.size

    @cached_property
    def _support(self) -> tuple:
        """The areas holding the target category (a mask) and their p_g, taken once."""
        mask = self.probs > 0.0
        return mask, self.probs[mask]


def estimate_area_probs(
    grid: CategoricalGrid, partition: AreaPartition, target_category: int
) -> AreaProbabilities:
    """p_g = (occurrences of the target category in area g) / (total occurrences)."""
    if not 1 <= target_category <= grid.num_categories:
        raise ValueError(f"target category {target_category} out of range")
    if (partition.rows, partition.cols) != (grid.rows, grid.cols):
        raise ValueError("partition geometry does not match the grid")
    mask = grid.values == target_category
    if not mask.any():
        raise ValueError(f"category {target_category} does not occur in the grid")
    return AreaProbabilities(_area_probs(mask[None], partition)[0], partition.sizes)


def _area_probs(masks: np.ndarray, partition: AreaPartition) -> np.ndarray:
    """The p_g of each row of a (R, N) stack of target-category masks, each holding one.

    Each area's target pixels are counted as one run of the pixels sorted by
    area.
    """
    order, starts = partition._runs
    counts = np.add.reduceat(masks[:, order], starts, axis=1, dtype=np.int64)
    return counts / masks.sum(axis=-1)[:, None]


def batty_entropy(ap: AreaProbabilities) -> float:
    """Batty's spatial entropy sum_g p_g log(T_g / p_g).

    Maximal, log(sum T_g), when intensity p_g / T_g is constant; minimal,
    log(T_g*), when everything concentrates in the smallest area.  With all
    T_g = 1 it reduces to the Shannon entropy of (p_1..p_G).
    """
    mask, p = ap._support
    return _batty(p, ap.sizes[mask], mask[None]).item()


def _batty(p: np.ndarray, sizes: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Batty's entropy of each row of a (R, G) ``support`` mask, from p_g and T_g on it.

    ``p`` and ``sizes`` hold the p_g and the T_g of the areas of the
    support, row after row.
    """
    return _row_sums(p * np.log(sizes / p), support)


@dataclass(frozen=True)
class AreaNeighbourhood:
    """Row-standardized neighbourhood weights between areas.

    ``weights[g, g']`` is 1/|N(g)| when area g' (self included) lies in the
    neighbourhood of g, else 0; every row sums to 1.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weights must be a square matrix")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0.0) or np.any(np.abs(w.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("rows must be non-negative and sum to 1")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def num_areas(self) -> int:
        return self.weights.shape[0]


def build_area_neighbourhood(
    partition: AreaPartition, distance: float
) -> AreaNeighbourhood:
    """Neighbourhood by centroid distance: g' in N(g) iff dist <= distance.

    The threshold is closed and the self-distance is 0, so each area always
    belongs to its own neighbourhood; distance 0 gives the identity
    neighbourhood.  Weights are equal within a neighbourhood (1/|N(g)|).
    """
    if not distance >= 0.0:
        raise ValueError("neighbourhood distance must be >= 0")
    c = partition.centroids()
    diff = c[:, None, :] - c[None, :, :]
    d = np.hypot(diff[..., 0], diff[..., 1])
    adj = d <= distance
    weights = adj / adj.sum(axis=1, keepdims=True)
    return AreaNeighbourhood(weights)


def karlstrom_entropy(ap: AreaProbabilities, nb: AreaNeighbourhood) -> float:
    """Karlstrom-Ceccato entropy sum_g p_g log(1 / ptilde_g).

    ptilde_g is the neighbourhood-smoothed probability (weights @ p).  The
    maximum log(G) is reached at uniform p_g whatever the neighbourhood;
    with the identity neighbourhood the index is Shannon's entropy of p,
    i.e. Batty's entropy at unit area sizes.
    """
    if nb.num_areas != ap.num_areas:
        raise ValueError("neighbourhood and probabilities disagree on area count")
    mask, p = ap._support
    return _karlstrom(p, (nb.weights @ ap.probs)[mask], mask[None]).item()


def _karlstrom(p: np.ndarray, smoothed: np.ndarray, support: np.ndarray) -> np.ndarray:
    """The Karlstrom-Ceccato entropy of each row of a (R, G) ``support`` mask.

    ``p`` and ``smoothed`` hold the p_g and the ptilde_g of the areas of
    the support, row after row.
    """
    if (smoothed <= 0.0).any():
        # impossible while each area neighbours itself; guards foreign weights
        raise ConsistencyError("smoothed probability vanished on the support")
    return 0.0 - _row_sums(p * np.log(smoothed), support)  # no -0.0


# ---------------------------------------------------------------------------
# contiguity-based indices

CONTIGUITY_INDICES = ("oneill", "leibovici", "rc", "parresol")


def contiguity_index(name: str, probs: np.ndarray) -> float:
    """One contiguity-based index from the pair-category law it is defined on.

    ``probs``, taken as valid, is the pmf of pair categories at distance
    (0, 1] (rook contiguity) for ``"oneill"``, ``"rc"`` and ``"parresol"``,
    and at (0, d] for ``"leibovici"``; the pair coding is ordered except for
    the unordered contagion variant.  O'Neill and Leibovici are its Shannon
    entropy H, Parresol-Edwards is -H, and the relative contagion is
    1 - H / log(number of pair categories).
    """
    return _index_of_entropy(name, _plogp(probs), probs.size)


def _index_of_entropy(name: str, h: float, num_codes: int) -> float:
    """``contiguity_index`` from the entropy h of a law over ``num_codes`` pair categories."""
    if name in ("oneill", "leibovici"):
        return h
    if name == "parresol":
        return 0.0 - h  # folds -0.0 into 0.0
    if name == "rc":
        if num_codes < 2:
            raise ValueError("contagion needs at least two categories")
        return 1.0 - h / math.log(num_codes)
    raise ValueError(f"unknown contiguity index {name!r}")


def checked_leibovici_distance(max_distance: float) -> float:
    """``max_distance`` as the upper end of Leibovici's band (0, max_distance]."""
    if max_distance < 1.0:
        raise ValueError("max_distance must be >= 1 so that some pair exists")
    return DistanceClassification.single_band(max_distance).breaks[-1]


def _near_law(grid: CategoricalGrid, max_distance: float, ordered: bool = True) -> np.ndarray:
    """Pair-category law of the pairs at distance (0, max_distance], from one ordered tally."""
    whole = DistanceClassification((0.0, window_diagonal(grid)))
    within, present = pairs_within(grid, whole, (max_distance,))
    near = within[-1] if ordered else fold_counts(within[-1], present.size)
    return near / near.sum()


def oneill_entropy(grid: CategoricalGrid) -> float:
    """O'Neill's entropy: Shannon entropy of ordered contiguous pixel pairs.

    Contiguous means centroid distance in (0, 1], i.e. rook adjacency; the
    range is [0, 2 log(I)].
    """
    return contiguity_index("oneill", _near_law(grid, 1.0))


def leibovici_entropy(grid: CategoricalGrid, max_distance: float) -> float:
    """Leibovici's entropy: ordered pair entropy at distances (0, max_distance].

    At max_distance = 1 it coincides with O'Neill's entropy by construction.
    """
    return contiguity_index("leibovici", _near_law(grid, checked_leibovici_distance(max_distance)))


def relative_contagion(grid: CategoricalGrid, *, ordered: bool = True) -> float:
    """Relative contagion index 1 - H(pairs) / log(num pair categories).

    1 on a single-category grid (maximal contagion), 0 when contiguous pair
    categories are uniform.  The unordered variant normalizes by the
    unordered category count (I^2 + I) / 2, with I the declared count.
    """
    i = int(grid.num_categories)
    codes = i * i if ordered else i * (i + 1) // 2
    return _index_of_entropy("rc", _plogp(_near_law(grid, 1.0, ordered)), codes)


def parresol_edwards_entropy(grid: CategoricalGrid) -> float:
    """Parresol-Edwards form: the negated O'Neill entropy."""
    return contiguity_index("parresol", _near_law(grid, 1.0))
