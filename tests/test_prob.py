"""Probability layer: validation, frozen reference values, identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatent import (
    AbsoluteContinuityError,
    AreaNeighbourhood,
    AreaProbabilities,
    CategoricalGrid,
    DegenerateDistributionWarning,
    InvalidDistributionError,
    JointPmf,
    Pmf,
    as_pmf,
    conditional_entropy,
    karlstrom_entropy,
    kl_divergence,
    mutual_information,
    parresol_edwards_entropy,
    shannon,
)
from spatent.classic import contiguity_index

# independently computed with mpmath at 50 digits, frozen here
H_QUARTER = 0.5623351446188083  # -(0.25 ln 0.25 + 0.75 ln 0.75)
KL_QUARTER_UNIFORM = 0.13081203594113694  # KL((.25,.75) || (.5,.5))


def test_shannon_frozen_value():
    assert shannon([0.25, 0.75]) == pytest.approx(H_QUARTER, abs=1e-15)


def test_shannon_uniform_is_log_n():
    for n in (2, 5, 20, 210):
        assert shannon([1.0 / n] * n) == pytest.approx(math.log(n), abs=1e-12)


def test_shannon_degenerate_is_exact_zero():
    assert shannon([1.0, 0.0, 0.0]) == 0.0
    assert math.copysign(1.0, shannon([1.0])) == 1.0  # no negative zero


def test_negated_entropies_give_no_negative_zero():
    one = CategoricalGrid(3, 3, 1, np.ones(9, dtype=np.int64))
    assert math.copysign(1.0, parresol_edwards_entropy(one)) == 1.0
    assert math.copysign(1.0, contiguity_index("parresol", np.array([1.0]))) == 1.0
    # every area its own neighbour: the smoothed probability of the one area is 1
    ap = AreaProbabilities(np.array([1.0]), np.array([9.0]))
    assert math.copysign(1.0, karlstrom_entropy(ap, AreaNeighbourhood(np.eye(1)))) == 1.0
    # the other values keep their sign and bits: -h and -(sum p log ptilde)
    h = contiguity_index("oneill", np.array([0.25, 0.75]))
    assert contiguity_index("parresol", np.array([0.25, 0.75])) == -h
    ap = AreaProbabilities(np.array([0.25, 0.75]), np.array([1.0, 1.0]))
    smoothed = np.array([[0.5, 0.5], [0.5, 0.5]]) @ ap.probs
    expected = -float((ap.probs * np.log(smoothed)).sum())
    assert karlstrom_entropy(ap, AreaNeighbourhood(np.full((2, 2), 0.5))) == expected


def test_invalid_distributions_rejected():
    with pytest.raises(InvalidDistributionError):
        shannon([0.5, 0.6])
    with pytest.raises(InvalidDistributionError):
        shannon([1.2, -0.2])
    with pytest.raises(InvalidDistributionError):
        shannon([])
    with pytest.raises(InvalidDistributionError, match="^Pmf: 3 labels but 2 probabilities$"):
        Pmf((1, 2, 3), np.array([0.5, 0.5]))
    with pytest.raises(InvalidDistributionError, match="^Pmf.from_counts: nothing observed$"):
        Pmf.from_counts(("a", "b"), (0, 0))


def test_mass_tolerance_boundary():
    assert shannon([0.5, 0.5 + 5e-10]) > 0  # inside tolerance
    with pytest.raises(InvalidDistributionError):
        shannon([0.5, 0.5 + 5e-9])


def test_kl_frozen_value():
    p = Pmf((1, 2), np.array([0.25, 0.75]))
    q = Pmf((1, 2), np.array([0.5, 0.5]))
    assert kl_divergence(p, q) == pytest.approx(KL_QUARTER_UNIFORM, abs=1e-15)


def test_kl_self_is_zero():
    p = as_pmf([0.2, 0.3, 0.5])
    assert kl_divergence(p, p) == 0.0


def test_kl_requires_absolute_continuity():
    p = as_pmf([0.5, 0.5, 0.0])
    q = as_pmf([0.5, 0.0, 0.5])
    with pytest.raises(AbsoluteContinuityError):
        kl_divergence(p, q)
    # the other direction is fine: support(q') inside support(p')
    assert kl_divergence(as_pmf([1.0, 0.0]), as_pmf([0.5, 0.5])) == pytest.approx(
        math.log(2), abs=1e-12
    )


def test_kl_label_mismatch_rejected():
    p = Pmf((1, 2), np.array([0.5, 0.5]))
    q = Pmf((1, 3), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        kl_divergence(p, q)


def test_pmf_from_counts_and_lookup():
    pmf = Pmf.from_counts(("a", "b"), (3, 1))
    assert pmf.labels == ("a", "b")
    assert pmf.probs.tolist() == [0.75, 0.25]


def test_pmf_probs_readonly():
    pmf = as_pmf([0.5, 0.5])
    with pytest.raises(ValueError):
        pmf.probs[0] = 0.9


# joint distribution frozen example: probs [[0.4, 0.1], [0.1, 0.4]]
JOINT = JointPmf((1, 2), ("a", "b"), np.array([[0.4, 0.1], [0.1, 0.4]]))
H_JOINT = 1.1935496040981333
H_ROWS_GIVEN_COLS = 0.5004024235381879
MI_JOINT = 0.19274475702175743


def test_joint_entropy_frozen():
    assert shannon(JOINT.probs.ravel()) == pytest.approx(H_JOINT, abs=1e-15)


def test_conditional_entropy_frozen():
    assert conditional_entropy(JOINT, conditioning="cols") == pytest.approx(
        H_ROWS_GIVEN_COLS, abs=1e-15
    )
    # symmetric example: conditioning on rows matches by symmetry of the table
    assert conditional_entropy(JOINT, conditioning="rows") == pytest.approx(
        H_ROWS_GIVEN_COLS, abs=1e-15
    )


def test_conditional_entropy_conditions_on_rows_or_cols_only():
    with pytest.raises(ValueError, match="^conditioning must be 'rows' or 'cols'$"):
        conditional_entropy(JOINT, conditioning="both")


def test_mutual_information_frozen():
    assert mutual_information(JOINT) == pytest.approx(MI_JOINT, abs=1e-15)


def test_joint_rejects_bad_shape():
    with pytest.raises(ValueError):
        JointPmf((1, 2), ("a",), np.array([[0.5], [0.5], [0.0]]))


def test_independent_joint_has_zero_mi():
    p = np.outer([0.3, 0.7], [0.2, 0.5, 0.3])
    j = JointPmf((1, 2), (1, 2, 3), p)
    assert mutual_information(j) == pytest.approx(0.0, abs=1e-15)


def test_conditional_entropy_zero_mass_column_warns():
    j = JointPmf((1, 2), ("a", "b"), np.array([[0.5, 0.0], [0.5, 0.0]]))
    with pytest.warns(DegenerateDistributionWarning):
        assert conditional_entropy(j, conditioning="cols") == pytest.approx(
            math.log(2), abs=1e-12
        )


# --------------------------------------------------------------------------
# property tests

def _random_joint(draw, rows, cols):
    cells = draw(
        st.lists(
            st.integers(min_value=0, max_value=50),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    total = sum(cells)
    if total == 0:
        cells[0] = 1
        total = 1
    probs = np.asarray(cells, dtype=np.float64).reshape(rows, cols) / total
    return JointPmf(tuple(range(rows)), tuple(range(cols)), probs)


@st.composite
def joint_pmfs(draw):
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=6))
    return _random_joint(draw, rows, cols)


@given(joint_pmfs())
@settings(max_examples=200, deadline=None)
def test_chain_rule_identity(joint):
    """H(rows, cols) = H(cols) + H(rows | cols)."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateDistributionWarning)
        h_cond = conditional_entropy(joint, conditioning="cols")
    lhs = shannon(joint.probs.ravel())
    rhs = shannon(joint.probs.sum(axis=0)) + h_cond
    assert abs(lhs - rhs) < 1e-10


@given(joint_pmfs())
@settings(max_examples=200, deadline=None)
def test_mi_equals_entropy_drop(joint):
    """MI = H(rows) - H(rows | cols), and MI >= 0."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateDistributionWarning)
        h_cond = conditional_entropy(joint, conditioning="cols")
    mi = mutual_information(joint)
    assert abs(mi - (shannon(joint.probs.sum(axis=1)) - h_cond)) < 1e-10
    assert mi >= -1e-12


@given(st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_entropy_bounds(counts):
    pmf = Pmf.from_counts(range(len(counts)), counts)
    h = shannon(pmf)
    assert -1e-12 <= h <= math.log(len(counts)) + 1e-12


@given(st.lists(st.integers(min_value=1, max_value=100), min_size=2, max_size=30))
@settings(max_examples=200, deadline=None)
def test_kl_nonnegative(counts):
    p = Pmf.from_counts(range(len(counts)), counts)
    q = Pmf(p.labels, np.full(len(p), 1.0 / len(p)))
    assert kl_divergence(p, q) >= -1e-12
