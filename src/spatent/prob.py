"""Finite probability distributions and the entropy calculus on them.

Everything downstream (classical spatial indices and the distance-band
entropy decomposition) reduces to a handful of operations on finite pmfs:
Shannon entropy, Kullback-Leibler divergence, and the bivariate quantities
conditional entropy and mutual information (the joint entropy is
``shannon`` of the flattened joint table).

Conventions, applied uniformly:

* natural logarithms, so every result is in nats;
* the continuity convention 0*log(0) = 0, so zero-probability labels are
  legal everywhere and contribute nothing;
* a pmf is valid when all entries are >= 0 and the total mass is 1 within
  ``MASS_TOLERANCE``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AbsoluteContinuityError,
    DegenerateDistributionWarning,
    InvalidDistributionError,
)

MASS_TOLERANCE = 1e-9


def _validated_probs(probs, what: str) -> np.ndarray:
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1:
        p = p.ravel()
    if p.size == 0:
        raise InvalidDistributionError(f"{what}: empty probability vector")
    if np.any(p < 0.0):
        raise InvalidDistributionError(f"{what}: negative probability entry")
    mass = float(p.sum())
    if abs(mass - 1.0) > MASS_TOLERANCE:
        raise InvalidDistributionError(f"{what}: total mass {mass!r} is not 1")
    p.flags.writeable = False
    return p


# the fewest runs of one length that ``_row_sums`` gathers into one array;
# fewer are summed a slice each.  Timed on single tables and on the default
# design's stacks, 4, 8 and 16 cost the same; 1 or 2 cost a single I = 20
# table's decomposition 12-24% more, and slices alone its I = 2 stacks 30-44%
_GATHER = 4


def _row_sums(terms: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The sum of each row's run of ``terms``, one per row of ``mask``.

    ``mask`` (R, ...) marks the cells whose terms lie, row after row in C
    order, end to end along the last axis of ``terms``; a row with no cell
    sums to 0.0.  Each sum is the very sum numpy takes of its run alone:
    one pairwise reduction of a contiguous row.  A run is summed as a
    slice, or, when at least ``_GATHER`` runs have its length, gathered
    with them into one C-contiguous (m, n) array summed along its rows.  So
    a stack of tables, its runs laid end to end, gets each table's own bits.
    """
    if len(mask) == 1:
        # numpy's own sum: the bookkeeping below costs a single table's decomposition 6-9%
        return terms.sum(axis=-1, keepdims=True)
    lengths = mask.reshape(len(mask), -1).sum(axis=-1).tolist()
    groups: dict = {}
    start = 0
    for j, n in enumerate(lengths):
        if n:
            groups.setdefault(n, []).append((j, start))
        start += n
    out = np.zeros(terms.shape[:-1] + (len(lengths),))
    for n, runs in groups.items():
        if len(runs) < _GATHER:
            for j, s in runs:
                out[..., j] = terms[..., s : s + n].sum(axis=-1)
        else:
            js, starts = zip(*runs)
            # take, unlike an index, lays the gathered runs out C-contiguous
            out[..., list(js)] = np.take(terms, np.add.outer(starts, np.arange(n)), axis=-1).sum(axis=-1)
    return out


def _plogp(p: np.ndarray):
    """-sum(p * log p) over the strictly positive entries: a float, or one per row of a stack.

    A (R, n) stack ``p`` gives an (R,) array, each row's entropy bit for bit
    the float that row alone gives (``_row_sums``).
    """
    mask = p > 0.0
    pos = p[mask]
    terms = pos * np.log(pos)
    if p.ndim == 1:
        return float(-terms.sum()) + 0.0  # + 0.0 folds -0.0 into 0.0
    return -_row_sums(terms, mask) + 0.0


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over an explicit finite label set.

    ``labels`` is a tuple of hashable category identifiers; ``probs`` is the
    aligned vector of probabilities.  Validation happens at construction, so
    any ``Pmf`` instance in circulation is a valid distribution.
    """

    labels: tuple
    probs: np.ndarray

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        probs = _validated_probs(self.probs, "Pmf")
        if len(labels) != probs.size:
            raise InvalidDistributionError(
                f"Pmf: {len(labels)} labels but {probs.size} probabilities"
            )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_counts(cls, labels, counts) -> "Pmf":
        c = np.asarray(counts, dtype=np.float64)
        total = c.sum()
        if total <= 0:
            raise InvalidDistributionError("Pmf.from_counts: nothing observed")
        return cls(tuple(labels), c / total)

    def __len__(self) -> int:
        return len(self.labels)


def as_pmf(p) -> Pmf:
    """Coerce a Pmf, or any probability sequence, into a Pmf.

    Plain sequences get integer labels 1..n; passing an existing Pmf is a
    no-op.  Lets the entropy functions accept raw vectors in scripts and
    tests without extra ceremony.
    """
    if isinstance(p, Pmf):
        return p
    arr = np.asarray(p, dtype=np.float64).ravel()
    return Pmf(tuple(range(1, arr.size + 1)), arr)


def shannon(p) -> float:
    """Shannon entropy H(p) = sum_i p_i log(1/p_i), in nats.

    Zero entries are skipped under the 0*log(0) = 0 convention.  The result
    lies in [0, log(len(p))].
    """
    return _plogp(as_pmf(p).probs)


def kl_divergence(p, q) -> float:
    """Kullback-Leibler divergence KL(p || q) = sum_i p_i log(p_i / q_i).

    Both pmfs must be over the same label tuple, and p must be absolutely
    continuous w.r.t. q (p_i > 0 implies q_i > 0); otherwise the divergence
    is undefined and AbsoluteContinuityError is raised.
    """
    pp, qq = as_pmf(p), as_pmf(q)
    if pp.labels != qq.labels:
        raise ValueError("kl_divergence: label sets differ")
    return _kl(pp.probs, qq.probs)


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) of two aligned probability vectors, checked only for support."""
    mask = p > 0.0
    if np.any(q[mask] <= 0.0):
        raise AbsoluteContinuityError(
            "kl_divergence: support(p) not contained in support(q)"
        )
    pm = p[mask]
    return float((pm * np.log(pm / q[mask])).sum())


@dataclass(frozen=True)
class JointPmf:
    """Joint distribution of two categorical variables as a matrix.

    Rows index the first variable, columns the second.  The matrix must be
    elementwise >= 0 with total mass 1 within MASS_TOLERANCE.
    """

    row_labels: tuple
    col_labels: tuple
    probs: np.ndarray

    def __post_init__(self) -> None:
        row_labels = tuple(self.row_labels)
        col_labels = tuple(self.col_labels)
        p = np.array(self.probs, dtype=np.float64, order="C")  # a row-major copy
        if p.shape != (len(row_labels), len(col_labels)):
            raise InvalidDistributionError(
                f"JointPmf: shape {p.shape} does not match labels "
                f"({len(row_labels)}, {len(col_labels)})"
            )
        object.__setattr__(self, "row_labels", row_labels)
        object.__setattr__(self, "col_labels", col_labels)
        object.__setattr__(self, "probs", _validated_probs(p, "JointPmf").reshape(p.shape))


def conditional_entropy(joint: JointPmf, conditioning: str = "cols") -> float:
    """Expected entropy of one variable given the other.

    ``conditioning="cols"`` returns H(rows | cols) =
    sum_k p(col_k) * H(rows | col_k); ``"rows"`` conditions the other way.
    Zero-mass conditioning labels contribute nothing and are flagged with a
    DegenerateDistributionWarning.
    """
    if conditioning == "cols":
        m = joint.probs
    elif conditioning == "rows":
        m = joint.probs.T
    else:
        raise ValueError("conditioning must be 'rows' or 'cols'")
    col_mass = m.sum(axis=0)
    if np.any(col_mass == 0.0):
        warnings.warn(
            "zero-mass conditioning label skipped in conditional entropy",
            DegenerateDistributionWarning,
            stacklevel=2,
        )
    total = 0.0
    for k in np.nonzero(col_mass > 0.0)[0]:
        cond = m[:, k] / col_mass[k]
        total += col_mass[k] * _plogp(cond)
    return float(total)


def mutual_information(joint) -> float | np.ndarray:
    """Mutual information MI(X,Y) = KL(joint || product of marginals).

    Computed directly as sum over positive cells of
    p(x,y) log(p(x,y) / (p(x) p(y))).  Wherever p(x,y) > 0 the marginal
    product is positive too, so the divergence always exists.  ``joint`` is
    a JointPmf, or a probability matrix that the caller has already checked;
    a (R, rows, cols) stack of such matrices gives an (R,) array, each bit
    for bit the float of its matrix alone.
    """
    p = joint.probs if isinstance(joint, JointPmf) else joint
    prod = p.sum(axis=-1)[..., :, None] * p.sum(axis=-2)[..., None, :]
    mask = p > 0.0
    pm = p[mask]
    terms = pm * np.log(pm / prod[mask])
    if p.ndim == 2:
        return float(terms.sum())
    return _row_sums(terms, mask)
