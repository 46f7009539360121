"""Distance-band entropy decomposition: worked examples and identities."""

import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatent import (
    CategoricalGrid,
    ConsistencyError,
    CooccurrenceScheme,
    DistanceClassification,
    JointPmf,
    Pmf,
    ScenarioSpec,
    decompose,
    enumerate_pairs,
    generate,
    kl_divergence,
    mutual_information,
    shannon,
    write_grid,
    as_pmf,
)
from spatent import cli, decomp
from spatent.cooccur import fold_counts, pairs_within
from spatent.decomp import decompose_counts


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
    bands = DistanceClassification.default_for(g)
    counts = enumerate_pairs(g, bands, CooccurrenceScheme(3)).category_counts
    dec = decompose_counts(counts, bands.labels)
    assert tuple(dec.residuals) == IDENTITIES
    assert max(dec.residuals.values()) < 1e-10

    # re-check dec's numbers on the laws of its table, one of them broken
    def broken(k=None, cond=None, residual_shift=0.0):
        p_w, p_z, conds, joint = decomp._laws(counts)
        if k is not None:
            conds[k] = cond
        partials, infos = (
            np.array([getattr(b, key) for b in dec.bands])
            for key in ("residual_partial", "info_partial")
        )
        residuals = decomp._residuals(
            p_w, p_z, conds, joint, dec.marginal, dec.mutual_information,
            dec.residual_global + residual_shift, partials, infos,
        )
        return {n for n, r in residuals.items() if r > 1e-10}

    assert broken() == set()
    assert broken(residual_shift=1e-6) == {"entropy-split", "residual-aggregation"}

    # a count table always mixes back and sums to 1: break its laws instead
    nz = counts.shape[1]
    assert broken(0, np.full(nz, 1.0 / nz)) == {"mixture-consistency"}
    last = counts[-1] / counts[-1].sum()  # a mass error small enough for a Pmf to admit
    assert "pmf-mass" in broken(len(counts) - 1, last * (1 + 5e-10))

    exact = decomp.mutual_information
    monkeypatch.setattr(decomp, "mutual_information", lambda joint: exact(joint) + 1e-6)
    with pytest.raises(ConsistencyError, match="mi-"):
        decompose(g)
    path = tmp_path / "g.grid"
    write_grid(g, path)
    assert cli.main(["verify", str(path)]) == 1
    assert f"FAIL {path} decomposition" in capsys.readouterr().out


@pytest.mark.parametrize(
    "rows, cols, cats", [(1, 2, 2), (5, 7, 5), (8, 8, 1), (12, 17, 20), (37, 29, 2)]
)
def test_verify_prints_the_residuals_the_decomposition_carries(rows, cols, cats, tmp_path, capsys):
    values = np.random.default_rng(rows * cols).integers(1, cats + 1, size=rows * cols)
    if cats == 5:
        values[values == 5] = 4  # the highest code absent, as in the digest corpus
    g = _grid(rows, cols, cats, values)
    path = tmp_path / "g.grid"
    write_grid(g, path)
    assert cli.main(["verify", str(path)]) == 0
    printed = {}
    for line in capsys.readouterr().out.splitlines():
        if "(residual=" in line:
            _, _, name, detail = line.split(" ")
            printed[name] = detail
    dec = decompose(g)
    assert tuple(dec.residuals) == IDENTITIES
    assert printed == {name: f"(residual={r:.3e})" for name, r in dec.residuals.items()}
    with pytest.raises(TypeError):
        dec.residuals["pmf-mass"] = 0.0

    bands = DistanceClassification.default_for(g).refined((1.5,))
    within, present = pairs_within(g, bands)
    counts = fold_counts(np.diff(within, axis=0), present.size)
    dec = decompose(g, bands)
    assert dec == decompose_counts(counts, bands.labels)
    assert "residuals" not in repr(dec)
    assert not {"residuals", *IDENTITIES} & set(json.loads(dec.to_json()))
    assert not {"residuals", *IDENTITIES} & set(dec.to_csv_row().splitlines()[0].split(","))


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


def test_json_refuses_a_non_finite_term():
    # strict JSON: a NaN or infinite term raises rather than writing NaN or Infinity
    dec = decompose(_chessboard(2))
    assert dec.to_json().endswith("}\n")
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not JSON compliant"):
            replace(dec, marginal=value).to_json()
        band = replace(dec.bands[0], info_partial=value)
        with pytest.raises(ValueError, match="not JSON compliant"):
            replace(dec, bands=(band, *dec.bands[1:])).to_json()


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


@pytest.mark.parametrize("label", ["a,b", 'a"b', "a\rb", "a\nb"])
def test_labels_the_csv_row_cannot_carry_are_rejected(label):
    counts = np.array([[1, 1, 0], [0, 1, 1]])
    with pytest.raises(ValueError, match=f"^band label {re.escape(repr(label))} holds a comma"):
        decompose_counts(counts, (label, "c"))
    header, row = decompose_counts(counts, ("a b", "c")).to_csv_row().splitlines()
    assert len(header.split(",")) == len(row.split(",")) == 4 + 2 * 3


@pytest.mark.parametrize(
    "counts,labels,message",
    [
        # too few labels used to drop a band from the output, but not from MI or H(Z)_W
        ([[1, 1, 0], [0, 1, 1], [2, 0, 1]], ("w1", "w2"),
         "^2 band labels for a table of 3 bands$"),
        # too many used to drop the surplus label
        ([[1, 1, 0], [0, 1, 1], [2, 0, 1]], ("w1", "w2", "w3", "w4"),
         "^4 band labels for a table of 3 bands$"),
        ([1, 1, 0], ("w1",), r"^expected a \(bands, pair categories\) table, got shape \(3,\)$"),
        ([[[1, 1]], [[0, 1]]], ("w1", "w2"), r"^expected a .* got shape \(2, 1, 2\)$"),
        # a negative count used to surface as an identity ConsistencyError
        ([[1, -1, 3], [0, 1, 1]], ("w1", "w2"), "^pair counts must be non-negative$"),
    ],
    ids=["two-labels", "four-labels", "1-d", "3-d", "negative"],
)
def test_decompose_counts_rejects_a_table_its_labels_do_not_fit(counts, labels, message):
    with pytest.raises(ValueError, match=message):
        decompose_counts(np.array(counts, dtype=np.int64), labels)


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


# --------------------------------------------------------------------------
# the array core against the route through validated pmfs

def _pmf_route(counts, labels):
    """Every term from validated Pmf/JointPmf objects and the prob functions."""
    q = counts.sum(axis=1)
    total = int(q.sum())
    codes = tuple(range(counts.shape[1]))
    p_w = Pmf(labels, q / total)
    p_z = Pmf(codes, counts.sum(axis=0) / total)
    conds = [Pmf(codes, counts[k] / q[k]) if q[k] else None for k in range(len(labels))]
    partials = [0.0 if c is None else shannon(c) for c in conds]
    infos = [0.0 if c is None else kl_divergence(c, p_z) for c in conds]
    h_z = shannon(p_z)
    mi = mutual_information(JointPmf(codes, labels, counts.T / total))
    weights = [0.0 if c is None else float(p_w.probs[k]) for k, c in enumerate(conds)]
    return {
        "marginal": h_z,
        "residual_global": float(np.dot(p_w.probs, np.array(partials))),
        "mutual_information": mi,
        "mi_proportional": 0.0 if h_z == 0.0 else mi / h_z,
        "p_w": weights,
        "residual_partial": partials,
        "info_partial": infos,
        "empty": [c is None for c in conds],
    }


def _terms(dec):
    return {
        "marginal": dec.marginal,
        "residual_global": dec.residual_global,
        "mutual_information": dec.mutual_information,
        "mi_proportional": dec.mi_proportional,
        "p_w": [b.p_w for b in dec.bands],
        "residual_partial": [b.residual_partial for b in dec.bands],
        "info_partial": [b.info_partial for b in dec.bands],
        "empty": [b.empty for b in dec.bands],
    }


def _random_tables(rng, num_x, ordered):
    nz = num_x * num_x if ordered else num_x * (num_x + 1) // 2
    for nb in (1, 3, 7):
        counts = rng.integers(0, 5000, size=(nb, nz))
        yield counts
        sparse = counts * (rng.random((nb, nz)) < 0.3)  # zero codes
        sparse[:, 0] += 1
        yield sparse
        if nb > 1:
            hollow = counts.copy()
            hollow[rng.choice(nb, size=nb // 2 + 1, replace=False)] = 0  # empty bands
            hollow[-1] += hollow.sum() == 0
            yield hollow
    yield np.eye(1, nz, nz - 1, dtype=np.int64) * 12  # one code only: H(Z) = 0


@pytest.mark.parametrize("ordered", [False, True])
@pytest.mark.parametrize("num_x", [1, 2, 5, 20])
def test_array_core_equals_the_pmf_route(num_x, ordered):
    rng = np.random.default_rng(num_x * 2 + ordered)
    for counts in _random_tables(rng, num_x, ordered):
        labels = tuple(f"w{k + 1}" for k in range(counts.shape[0]))
        dec = decompose_counts(counts, labels)
        assert _terms(dec) == _pmf_route(counts, labels)
        assert [b.pair_count for b in dec.bands] == counts.sum(axis=1).tolist()
        assert max(dec.residuals.values()) <= decomp.MI_AGREEMENT_TOL
        # H(Z)_W is the very dot product that the residual-aggregation check takes
        assert dec.residuals["residual-aggregation"] == 0.0


@pytest.mark.parametrize("ordered", [False, True])
def test_array_core_equals_the_pmf_route_on_experiment_tables(ordered):
    # the table experiment decomposes: one tally over the bands split at 1 and
    # at the Leibovici distance 2, the last two rows dropped
    for i, (kind, num_x) in enumerate(
        [("compact", 2), ("repulsive", 2), ("multicluster", 2), ("random", 2),
         ("compact", 5), ("random", 5), ("compact", 20), ("random", 20)]
    ):
        spec = ScenarioSpec(kind, 50, 50, num_x, "uniform" if i % 3 == 0 else "dirichlet", (i,))
        g = generate(spec)
        cls = DistanceClassification.default_for(g)
        assert len(cls.refined((1.0, 2.0)).breaks) == 8
        within, present = pairs_within(g, cls, (1.0, 2.0))
        counts = np.diff(within[:-2], axis=0)
        if not ordered:
            counts = fold_counts(counts, present.size)
        dec = decompose_counts(counts, cls.labels)
        assert _terms(dec) == _pmf_route(counts, cls.labels)
        assert max(dec.residuals.values()) <= decomp.MI_AGREEMENT_TOL
        assert dec.residuals["residual-aggregation"] == 0.0


@pytest.mark.parametrize("ordered", [False, True])
@pytest.mark.parametrize("num_x", [2, 5, 20])
def test_every_entry_point_shares_the_core(num_x, ordered, monkeypatch):
    rng = np.random.default_rng(num_x)
    # missing categories leave zero codes; the (2.5, 2.6] band holds no pair
    values = rng.integers(1, num_x + 1, size=23 * 17)
    values[values == num_x] = 1
    g = _grid(23, 17, num_x, values)
    bands = DistanceClassification((0.0, 1.0, 2.5, 2.6, 7.0, math.hypot(23, 17)))
    sample = enumerate_pairs(g, bands, CooccurrenceScheme(num_x, ordered=ordered))
    dec = decompose_counts(sample.category_counts, bands.labels)
    assert dec.band("w3").empty
    assert _terms(dec) == _pmf_route(sample.category_counts, bands.labels)
    assert max(dec.residuals.values()) <= decomp.MI_AGREEMENT_TOL
    if not ordered:
        assert decompose(g, bands) == dec

    # verify decomposes the grid's default unordered tally, as decompose does
    want = decompose(g)
    seen = []

    def recording(counts, labels):
        seen.append(decompose_counts(counts, labels))
        return seen[-1]

    monkeypatch.setattr(decomp, "decompose_counts", recording)
    checks = cli._verify_grid(g)
    assert seen == [want]
    assert [name for name, passed, _ in checks if not passed] == []
    assert [name for name, _, _ in checks][1:] == list(IDENTITIES)


@pytest.mark.parametrize("num_x", [1, 2, 5, 20])
def test_ordered_decompose_equals_the_core_on_an_ordered_tally(num_x):
    rng = np.random.default_rng(num_x + 40)
    for rows, cols in ((1, 9), (7, 1), (12, 17)):
        g = _grid(rows, cols, num_x, rng.integers(1, num_x + 1, size=rows * cols))
        for bands in (None, DistanceClassification((0.0, 1.0, 2.5, math.hypot(rows, cols)))):
            cls = bands or DistanceClassification.default_for(g)
            sample = enumerate_pairs(g, cls, CooccurrenceScheme(num_x, ordered=True))
            want = decompose_counts(sample.category_counts, cls.labels)
            assert decompose(g, bands, ordered=True) == want


def test_core_rejects_an_empty_table():
    with pytest.raises(ValueError, match="no pairs"):
        decompose_counts(np.zeros((2, 3), dtype=np.int64), ("w1", "w2"))


# --------------------------------------------------------------------------
# a stack of tables decomposes each as it alone

def _stack_terms(stack, r):
    """Table r of a ``decomp._decompose_stack``, as ``_terms`` reads a decomposition."""
    p_w, partials, infos = (terms[r].tolist() for terms in stack.bands)
    marginal, residual_global, mi, mi_proportional = stack.whole[r]
    return {
        "marginal": marginal,
        "residual_global": residual_global,
        "mutual_information": mi,
        "mi_proportional": mi_proportional,
        "p_w": p_w,
        "residual_partial": partials,
        "info_partial": infos,
        "empty": [w == 0.0 for w in p_w],
    }


@pytest.mark.parametrize("ordered", [False, True])
def test_a_stack_decomposes_each_experiment_table_as_it_alone(ordered):
    # six replicates of each default entry, stacked as experiment stacks
    # them: one stack per count of present categories
    stacks: dict = {}
    for kind, num_x in [("compact", 2), ("repulsive", 2), ("multicluster", 2), ("random", 2),
                        ("compact", 5), ("random", 5), ("compact", 20), ("random", 20)]:
        for rep in range(6):
            spec = ScenarioSpec(kind, 50, 50, num_x, "uniform" if rep == 5 else "dirichlet", (rep,))
            g = generate(spec)
            cls = DistanceClassification.default_for(g)
            within, present = pairs_within(g, cls, (1.0, 2.0))
            stacks.setdefault(present.size, []).append(within[:-2])
    assert len(stacks) > 1
    for ni, tables in stacks.items():
        stack = decomp._decompose_stack(
            decomp._band_counts(np.stack(tables), ni, ordered), cls.labels
        )
        for r, within in enumerate(tables):
            alone = decomp.decompose_within(within, np.arange(ni), cls.labels, ordered=ordered)
            assert _stack_terms(stack, r) == _terms(alone)
            assert stack.residuals[r] == dict(alone.residuals)
            assert stack.failures[r] is None


@pytest.mark.parametrize("ordered", [False, True])
@pytest.mark.parametrize("num_x", [1, 2, 5, 20])
def test_a_stack_decomposes_each_random_table_as_it_alone(num_x, ordered):
    # dense, sparse and hollow tables, and one of a single code, by shape
    stacks: dict = {}
    for counts in _random_tables(np.random.default_rng(num_x * 2 + ordered), num_x, ordered):
        stacks.setdefault(counts.shape, []).append(counts)
    for (nb, _), tables in stacks.items():
        labels = tuple(f"w{k + 1}" for k in range(nb))
        stack = decomp._decompose_stack(np.stack(tables), labels)
        for r, counts in enumerate(tables):
            assert _stack_terms(stack, r) == _terms(decompose_counts(counts, labels))


def test_a_table_failing_its_identities_fails_alone_in_its_stack(monkeypatch):
    counts = np.random.default_rng(9).integers(0, 5000, size=(5, 7, 15))
    labels = tuple(f"w{k + 1}" for k in range(7))
    exact = decomp.mutual_information
    # table 2 of a stack of five misses the MI identities; a stack of one does not
    monkeypatch.setattr(
        decomp, "mutual_information", lambda joint: exact(joint) + 1e-6 * (len(joint) == 5) * np.eye(5)[2]
    )
    stack = decomp._decompose_stack(counts, labels)
    assert [f is None for f in stack.failures] == [True, True, False, True, True]
    assert re.match(r"^decomposition identity mi-\S+ misses by ", str(stack.failures[2]))
    assert max(stack.residuals[2].values()) > decomp.MI_AGREEMENT_TOL
    for r in (0, 1, 3, 4):
        assert _stack_terms(stack, r) == _terms(decompose_counts(counts[r], labels))
