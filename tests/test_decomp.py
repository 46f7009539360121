"""Distance-band entropy decomposition: worked examples and identities."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatent import (
    CategoricalGrid,
    ConsistencyError,
    CooccurrenceScheme,
    DistanceClassification,
    Pmf,
    conditional_pmfs,
    decompose,
    decompose_distributions,
    enumerate_pairs,
    write_grid,
    as_pmf,
)
from spatent import cli, decomp
from spatent.decomp import identity_residuals


def _grid(rows, cols, cats, values):
    return CategoricalGrid(rows, cols, cats, np.asarray(values, dtype=np.int64))


def _chessboard(n):
    vals = ((np.add.outer(np.arange(n), np.arange(n)) % 2) + 1).ravel()
    return _grid(n, n, 2, vals)


# frozen 2x2 chessboard example, derived by hand from the six pixel pairs:
# band w1 = (0,1] holds the 4 contiguous mixed pairs, band w2 = (1,2] the two
# same-category diagonal pairs, band w3 is empty
H_Z_2X2 = 0.8675632284814613
H_RES_2X2 = 0.23104906018664844
MI_2X2 = 0.6365141682948128
PI_W1_2X2 = 0.4054651081081644  # log 3/2
PI_W2_2X2 = 1.0986122886681098  # log 3
MI_PROP_2X2 = 0.7336804366512110


def test_2x2_chessboard_full_decomposition():
    dec = decompose(_chessboard(2))
    assert dec.marginal == pytest.approx(H_Z_2X2, abs=1e-12)
    assert dec.residual_global == pytest.approx(H_RES_2X2, abs=1e-12)
    assert dec.mutual_information == pytest.approx(MI_2X2, abs=1e-12)
    assert dec.mi_proportional == pytest.approx(MI_PROP_2X2, abs=1e-12)
    assert not dec.degenerate

    w1, w2, w3 = dec.bands
    assert (w1.label, w2.label, w3.label) == ("w1", "w2", "w3")
    assert w1.p_w == pytest.approx(4 / 6, abs=1e-15)
    assert w2.p_w == pytest.approx(2 / 6, abs=1e-15)
    assert w1.pair_count == 4 and w2.pair_count == 2 and w3.pair_count == 0
    assert w1.residual_partial == 0.0  # all contiguous pairs are the same type
    assert w2.residual_partial == pytest.approx(math.log(2), abs=1e-12)
    assert w1.info_partial == pytest.approx(PI_W1_2X2, abs=1e-12)
    assert w2.info_partial == pytest.approx(PI_W2_2X2, abs=1e-12)
    assert w3.empty and w3.p_w == 0.0 and w3.info_partial == 0.0
    assert dec.band("w2") is w2
    with pytest.raises(KeyError):
        dec.band("w9")


def test_50x50_chessboard_contiguous_band_is_deterministic():
    dec = decompose(_chessboard(50))
    assert dec.band("w1").residual_partial == 0.0
    assert dec.band("w1").pair_count == 4900
    assert dec.mutual_information > 0.0


def test_all_one_category_grid_degenerate():
    dec = decompose(_grid(50, 50, 2, np.ones(2500)))
    assert dec.degenerate
    assert dec.marginal == 0.0
    assert dec.residual_global == 0.0
    assert dec.mutual_information == 0.0
    assert dec.mi_proportional == 0.0
    for band in dec.bands:
        assert band.residual_partial == 0.0
        assert band.info_partial == 0.0


def test_single_band_classification_carries_no_information():
    rng = np.random.default_rng(0)
    g = _grid(10, 10, 3, rng.integers(1, 4, size=100))
    diag = math.hypot(10, 10)
    dec = decompose(g, DistanceClassification((0.0, diag)))
    assert dec.mutual_information == pytest.approx(0.0, abs=1e-15)
    assert dec.mi_proportional == pytest.approx(0.0, abs=1e-15)
    assert dec.residual_global == pytest.approx(dec.marginal, abs=1e-15)
    assert dec.bands[0].p_w == 1.0


def test_empty_bands_flagged_not_fatal():
    # bands (0,1], (1,2], (2, sqrt(10)]: the last contains no pixel pair
    g = _grid(1, 3, 2, [1, 2, 1])
    dec = decompose(g)
    empties = [b for b in dec.bands if b.empty]
    assert len(empties) == 1
    assert empties[0].label == "w3"
    assert empties[0].p_w == 0.0
    assert not dec.degenerate
    assert dec.marginal > 0.0


def _forbidden(*args, **kwargs):
    raise AssertionError("the process-wide warnings filters must not be changed")


def test_empty_band_decomposes_with_warnings_as_errors(monkeypatch):
    g = _grid(1, 3, 2, [1, 2, 1])  # band w3 holds no pixel pair
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with monkeypatch.context() as m:
            # the filters are process-wide: no thread may change them mid-run
            m.setattr(warnings, "catch_warnings", _forbidden)
            m.setattr(warnings, "simplefilter", _forbidden)
            dec = decompose(g)
            checks = cli._verify_grid(g)
    assert dec.band("w3").empty
    assert dec.marginal == pytest.approx(dec.mutual_information + dec.residual_global, abs=1e-15)
    assert [name for name, passed, _ in checks if not passed] == []
    assert "mi-dual-route" in [name for name, _, _ in checks]


IDENTITIES = (
    "pmf-mass",
    "mixture-consistency",
    "entropy-split",
    "mi-dual-route",
    "mi-aggregation",
    "residual-aggregation",
)


def test_identity_residuals_name_the_broken_identity(tmp_path, monkeypatch, capsys):
    g = _grid(6, 6, 3, np.random.default_rng(4).integers(1, 4, size=36))
    sample = enumerate_pairs(g, DistanceClassification.default_for(g), CooccurrenceScheme(3))
    dists = conditional_pmfs(sample)
    dec = decompose_distributions(dists, sample.pair_counts)
    residuals = identity_residuals(dists, dec)
    assert tuple(residuals) == IDENTITIES
    assert max(residuals.values()) < 1e-10

    shifted = dataclasses.replace(dec, residual_global=dec.residual_global + 1e-6)
    broken = {name for name, r in identity_residuals(dists, shifted).items() if r > 1e-10}
    assert broken == {"entropy-split", "residual-aggregation"}

    def with_conditional(k, cond):
        conds = dists.conditionals[:k] + (cond,) + dists.conditionals[k + 1 :]
        changed = dataclasses.replace(dists, conditionals=conds)
        return {name for name, r in identity_residuals(changed, dec).items() if r > 1e-10}

    first = dists.conditionals[0]
    assert with_conditional(0, Pmf.uniform(first.labels)) == {"mixture-consistency"}
    last = dists.conditionals[-1]  # a Pmf admits mass errors up to 1e-9
    heavy = dataclasses.replace(last, probs=last.probs * (1 + 5e-10))
    assert "pmf-mass" in with_conditional(len(dists.conditionals) - 1, heavy)

    exact = decomp.mutual_information
    monkeypatch.setattr(decomp, "mutual_information", lambda joint: exact(joint) + 1e-6)
    with pytest.raises(ConsistencyError, match="mi-"):
        decompose(g)
    path = tmp_path / "g.grid"
    write_grid(g, path)
    assert cli.main(["verify", str(path)]) == 1
    assert f"FAIL {path} decomposition" in capsys.readouterr().out


def test_category_relabelling_invariance():
    rng = np.random.default_rng(8)
    vals = rng.integers(1, 4, size=144)
    g = _grid(12, 12, 3, vals)
    perm = {1: 3, 2: 1, 3: 2}
    g2 = _grid(12, 12, 3, np.vectorize(perm.get)(vals))
    a, b = decompose(g), decompose(g2)
    assert a.marginal == pytest.approx(b.marginal, abs=1e-12)
    assert a.mutual_information == pytest.approx(b.mutual_information, abs=1e-12)
    for ba, bb in zip(a.bands, b.bands):
        assert ba.residual_partial == pytest.approx(bb.residual_partial, abs=1e-12)
        assert ba.info_partial == pytest.approx(bb.info_partial, abs=1e-12)


# --------------------------------------------------------------------------
# serialization

def test_json_schema():
    dec = decompose(_chessboard(2))
    doc = json.loads(dec.to_json())
    assert set(doc) == {
        "marginal",
        "residual_global",
        "mutual_information",
        "mi_proportional",
        "degenerate",
        "bands",
    }
    assert doc["degenerate"] is False
    assert len(doc["bands"]) == 3
    for band in doc["bands"]:
        assert set(band) == {"label", "p_w", "residual_partial", "info_partial"}
    assert doc["bands"][0]["label"] == "w1"
    assert doc["marginal"] == pytest.approx(H_Z_2X2, abs=1e-12)


def test_csv_row_schema():
    dec = decompose(_chessboard(2))
    header, row = dec.to_csv_row().strip().split("\n")
    names = header.split(",")
    values = row.split(",")
    assert names[:4] == [
        "marginal",
        "residual_global",
        "mutual_information",
        "mi_proportional",
    ]
    assert names[4:7] == ["w1_p_w", "w1_residual_partial", "w1_info_partial"]
    assert len(names) == 4 + 3 * 3 == len(values)
    parsed = [float(v) for v in values]
    assert parsed[0] == pytest.approx(H_Z_2X2, abs=1e-10)


# --------------------------------------------------------------------------
# identity properties on random grids

@st.composite
def grids(draw):
    rows = draw(st.integers(min_value=2, max_value=12))
    cols = draw(st.integers(min_value=2, max_value=12))
    cats = draw(st.sampled_from((2, 3, 5)))
    vals = draw(
        st.lists(
            st.integers(min_value=1, max_value=cats),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    return _grid(rows, cols, cats, vals)


@given(grids())
@settings(max_examples=60, deadline=None)
def test_decomposition_identities(grid):
    dec = decompose(grid)
    # additive split of the pair entropy
    assert abs(dec.marginal - dec.mutual_information - dec.residual_global) < 1e-10
    # aggregation of the per-band terms
    mi_sum = sum(b.p_w * b.info_partial for b in dec.bands)
    res_sum = sum(b.p_w * b.residual_partial for b in dec.bands)
    assert abs(dec.mutual_information - mi_sum) < 1e-10
    assert abs(dec.residual_global - res_sum) < 1e-10
    # weights form a distribution, information terms are non-negative
    assert abs(sum(b.p_w for b in dec.bands) - 1.0) < 1e-12
    assert all(b.info_partial >= -1e-12 for b in dec.bands)
    assert dec.mutual_information >= -1e-12


@given(grids())
@settings(max_examples=30, deadline=None)
def test_residual_never_exceeds_marginal(grid):
    dec = decompose(grid)
    assert dec.residual_global <= dec.marginal + 1e-10
    if not dec.degenerate:
        assert 0.0 <= dec.mi_proportional <= 1.0 + 1e-12
