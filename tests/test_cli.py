"""End-to-end command line coverage on tiny inputs."""

import argparse
import collections
import hashlib
import json
import logging
import math
import os
import re
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from test_golden_digests import EXPERIMENTS, _corpus

from spatent import (
    CategoricalGrid,
    CooccurrenceScheme,
    CoverageError,
    DistanceClassification,
    decompose,
    enumerate_pairs,
    leibovici_entropy,
    oneill_entropy,
    parresol_edwards_entropy,
    read_grid,
    read_partition,
    relative_contagion,
    shannon,
    write_grid,
)
from spatent import ConsistencyError, cli, cooccur, decomp
from spatent.cli import ExperimentPlan, build_parser, main
from spatent.decomp import decompose_counts

SRC = Path(__file__).resolve().parents[1] / "src"


def _write(tmp_path, name, rows, cols, cats, values):
    path = tmp_path / name
    write_grid(CategoricalGrid(rows, cols, cats, np.asarray(values, dtype=np.int64)), path)
    return path


def _chessboard_path(tmp_path, n=10):
    vals = ((np.add.outer(np.arange(n), np.arange(n)) % 2) + 1).ravel()
    return _write(tmp_path, "chess.grid", n, n, 2, vals)


def _spy_tallies(monkeypatch):
    """Every grid tallied on the command paths: (grid, split bands, geometry, within, present).

    One entry per grid of a ``pairs_within_stack`` call, which every
    ``pairs_within`` call makes; a grid whose tally raises is not recorded.
    """
    tallies = []
    real = cooccur.pairs_within_stack

    def stack(grids, classification, distances=(), *, geometry=None):
        items = real(grids, classification, distances, geometry=geometry)
        fine = classification.refined(distances)
        tallies.extend((grid, fine, geometry, *item) for grid, item in zip(grids, items)
                       if not isinstance(item, Exception))
        return items

    for module in (cooccur, cli):
        monkeypatch.setattr(module, "pairs_within_stack", stack)
    return tallies


# --------------------------------------------------------------------------
# generate

def test_generate_writes_grids_and_manifest(tmp_path):
    out = tmp_path / "g"
    rc = main(
        [
            "generate",
            "--scenario",
            "multicluster",
            "--rows",
            "20",
            "--cols",
            "20",
            "--categories",
            "2",
            "--replicates",
            "3",
            "--seed",
            "12",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"] == "multicluster"
    assert manifest["pmf_source"] == "dirichlet"
    assert len(manifest["grids"]) == 3
    for entry in manifest["grids"]:
        grid = read_grid(out / entry["file"])
        assert (grid.rows, grid.cols, grid.num_categories) == (20, 20, 2)
    # same master seed reproduces the same grids
    out2 = tmp_path / "g2"
    main(
        "generate --scenario multicluster --rows 20 --cols 20 --categories 2"
        " --replicates 3 --seed 12 --out".split()
        + [str(out2)]
    )
    for entry in manifest["grids"]:
        a = read_grid(out / entry["file"])
        b = read_grid(out2 / entry["file"])
        np.testing.assert_array_equal(a.values, b.values)


def test_generate_uniform_pmf_flag(tmp_path):
    out = tmp_path / "u"
    rc = main(
        "generate --scenario repulsive --rows 10 --cols 10 --categories 2"
        " --replicates 1 --uniform-pmf --out".split()
        + [str(out)]
    )
    assert rc == 0
    grid = read_grid(out / "repulsive_x2_r0000.grid")
    parity = np.add.outer(np.arange(10), np.arange(10)) % 2
    np.testing.assert_array_equal(grid.matrix, np.where(parity == 0, 1, 2))


# --------------------------------------------------------------------------
# measure

def test_measure_outputs_csv(tmp_path, capsys):
    path = _chessboard_path(tmp_path)
    rc = main(["measure", str(path), "--measures", "shannon_x,oneill,rc,decomposition"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "measure,band,value"
    table = {}
    for line in lines[1:]:
        measure, band, value = line.split(",")
        table[(measure, band)] = float(value)
    assert table[("shannon_x", "")] == pytest.approx(math.log(2), abs=1e-10)
    assert table[("oneill", "")] == pytest.approx(math.log(2), abs=1e-10)
    assert table[("rc", "")] == pytest.approx(0.5, abs=1e-10)
    assert table[("residual_partial", "w1")] == 0.0
    assert table[("mutual_information", "")] > 0.0


def test_measure_area_indices_and_absent_category(tmp_path, capsys):
    path = _write(tmp_path, "ones.grid", 10, 10, 2, np.ones(100))
    rc = main(
        [
            "measure",
            str(path),
            "--measures",
            "batty,karlstrom",
            "--areas",
            "4",
            "--karlstrom-distances",
            "0,5",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    table = {}
    for line in lines[1:]:
        measure, band, value = line.split(",")
        table[(measure, band)] = value
    # constant intensity: the area index tops out at log of the window size
    assert float(table[("batty", "")]) == pytest.approx(math.log(100), abs=1e-10)
    assert float(table[("karlstrom", "d0")]) == pytest.approx(math.log(4), abs=1e-10)
    assert set(b for m, b in table if m == "karlstrom") == {"d0", "d5"}

    rc = main(
        ["measure", str(path), "--measures", "batty", "--areas", "4", "--target-category", "2"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[1] == "batty,,nan"


def test_measure_to_file(tmp_path):
    path = _chessboard_path(tmp_path)
    out = tmp_path / "m.csv"
    rc = main(["measure", str(path), "--measures", "oneill", "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("measure,band,value\noneill,,")


# --------------------------------------------------------------------------
# input errors: one log line and exit 2, no traceback

@pytest.mark.parametrize(
    "argv,message",
    [
        ("measure {missing}", "No such file or directory"),
        ("decompose {missing}", "No such file or directory"),
        ("decompose {g7} --bands 0,1,2", "has no band"),
        ("measure {g7}", "more areas than pixels"),
        ("measure {g7} --areas 1 --target-category 3", "target category 3 out of range"),
        ("generate --scenario multicluster --rows 4 --out {out}", "at least 5 rows"),
        (
            "generate --scenario random --categories 3 --rows 2 --cols 2 --uniform-pmf --out {out}",
            "uniform mix needs the category count to divide the pixel count",
        ),
        ("experiment --rows 6 --cols 6 --skip-uniform --out {out}", "more areas than pixels"),
        ("experiment --rows 7 --cols 7 --out {out}", "random:20 (use --skip-uniform)"),
        (
            "experiment --scenarios compact:2,random:5,compact:02 --out {out}",
            "--scenarios lists compact:2 more than once",
        ),
        (
            "experiment --karlstrom-distances 0,2,2.0 --out {out}",
            "--karlstrom-distances gives more than one distance the label d2",
        ),
        (
            "measure {g7} --areas 1 --karlstrom-distances 1,5,1e0",
            "--karlstrom-distances gives more than one distance the label d1",
        ),
    ],
    ids=[
        "measure-missing-file",
        "decompose-missing-file",
        "decompose-uncovered-bands",
        "measure-too-many-areas",
        "measure-target-category-out-of-range",
        "generate-multicluster-too-small",
        "generate-uniform-pmf-no-equal-split",
        "experiment-too-many-areas",
        "experiment-no-equal-split",
        "experiment-duplicate-scenarios",
        "experiment-duplicate-karlstrom-labels",
        "measure-duplicate-karlstrom-labels",
    ],
)
def test_input_errors_exit_2_in_one_line(tmp_path, caplog, capsys, argv, message):
    g7 = _write(tmp_path, "g7.grid", 7, 7, 2, (np.arange(49) % 2) + 1)
    paths = {"missing": tmp_path / "missing.grid", "g7": g7, "out": tmp_path / "gen"}
    with caplog.at_level(logging.ERROR, logger="spatent"):
        assert main(argv.format(**paths).split()) == 2
    assert len(caplog.records) == 1
    record = caplog.records[0]
    assert record.getMessage().startswith("error: ")
    assert message in record.getMessage()
    assert record.exc_info is None
    assert "Traceback" not in capsys.readouterr().err
    # a bad generate or experiment spec makes no output directory
    assert not paths["out"].exists()


def test_consistency_errors_still_propagate(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ConsistencyError("routes disagree")

    monkeypatch.setattr(decomp, "decompose_counts", broken)
    with pytest.raises(ConsistencyError, match="routes disagree"):
        main(["decompose", str(_chessboard_path(tmp_path))])


# --------------------------------------------------------------------------
# one ordered tally per grid feeds every pair-based measure

PAIR_MEASURES = ("shannon_x", "shannon_z", "oneill", "leibovici", "rc", "parresol", "decomposition")


@st.composite
def grids_with_bands(draw):
    """A grid of side <= 30 with I <= 20 and covering breaks (or None)."""
    rows = draw(st.integers(min_value=1, max_value=30))
    cols = draw(st.integers(min_value=2 if rows == 1 else 1, max_value=30))
    cats = draw(st.integers(min_value=1, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    values = np.random.default_rng(seed).integers(1, cats + 1, size=rows * cols)
    grid = CategoricalGrid(rows, cols, cats, values)
    if draw(st.booleans()):
        return grid, None
    lo = draw(st.floats(min_value=0.0, max_value=0.99))
    hi = math.hypot(grid.rows - 1, grid.cols - 1) + draw(st.floats(min_value=0.0, max_value=5.0))
    inner = draw(
        st.lists(st.floats(min_value=lo, max_value=hi, exclude_min=True, exclude_max=True),
                 max_size=6, unique=True)
    )
    return grid, DistanceClassification((lo, *sorted(inner), hi))


def _rows(grid, measures, bands=None, leibovici_distance=2.0, **kwargs):
    """``_measure_rows`` of a grid's pair measures, over their ``_plan``."""
    args = argparse.Namespace(bands=bands, leibovici_distance=leibovici_distance)
    return cli._measure_rows(grid, measures, cli._plan(grid, measures, args, None), **kwargs)


@pytest.mark.parametrize(
    "measures,bands,d",
    [
        ("shannon_x", None, None),
        ("shannon_z", "given", 1.0),
        ("batty", None, None),
        ("karlstrom", None, None),
        ("oneill", "default", 1.0),
        ("leibovici", "default", 3.5),
        ("rc", "default", 1.0),
        ("parresol", "default", 1.0),
        ("decomposition", "given", 1.0),
        ("shannon_x,batty,karlstrom", None, None),
        ("oneill,rc,parresol,batty", "default", 1.0),
        ("leibovici,decomposition", "given", 3.5),
        ("shannon_z,karlstrom", "given", 1.0),
        ("all", "given", 3.5),
    ],
)
def test_pair_bands_plan_the_one_tally_of_the_pair_measures(measures, bands, d):
    measures = cli._measures_arg(measures)
    grid = CategoricalGrid(6, 6, 2, (np.arange(36) % 2) + 1)
    default = DistanceClassification.default_for(grid)
    given = DistanceClassification((0.0, 1.0, 3.0, 9.0))
    want = {None: None, "default": (default, (1.0, d)), "given": (given, (1.0, d))}[bands]

    def plan(bands, leibovici_distance=3.5, shared=False):
        args = argparse.Namespace(
            bands=bands, leibovici_distance=leibovici_distance, areas=4,
            karlstrom_distances=(0.0, 2.0),
        )
        return cli._plan(grid, measures, args, cli.UNIFORM_PARTITION, shared)

    # no pair measure: no tally; the given bands only for the decomposition
    assert plan(given).pair_bands == want
    assert plan(None).pair_bands == (want and (default, (1.0, d)))
    # a geometry of the split bands only for a shared plan
    assert plan(given).geometry is None
    geometry = plan(given, shared=True).geometry
    assert (geometry and geometry.classification) == (want and want[0].refined(want[1]))
    # the partition for either area measure, the neighbourhoods for karlstrom
    areas = plan(None)
    assert (areas.partition is None) == ("batty" not in measures and "karlstrom" not in measures)
    labels = [label for label, _ in areas.karlstrom]
    assert labels == (["d0", "d2"] if "karlstrom" in measures else [])
    if "leibovici" in measures:
        # the band label reads the plan's distance, a float for any number given
        _, (_, given_int) = plan(None, 3).pair_bands
        assert type(given_int) is float and given_int == 3.0
        assert ("leibovici", "d3", leibovici_entropy(grid, 3)) in _rows(
            grid, tuple(m for m in measures if m not in ("batty", "karlstrom")), None, 3
        )


def _rows_table(rows):
    table = {(m, b): v for m, b, v in rows}
    assert len(table) == len(rows)
    return table


@given(
    grids_with_bands(),
    st.sampled_from([1.0, 1.5, 2.0, 3.0, "diagonal", "beyond"]),
    st.booleans(),
)
@example((CategoricalGrid(1, 2, 2, np.array([1, 2])), DistanceClassification((0, 1))), 1.0, True)
@settings(max_examples=40)
def test_measure_rows_equal_the_direct_measures(case, leibovici, ordered):
    grid, cls = case
    diagonal = math.hypot(grid.rows, grid.cols)
    d = {"diagonal": diagonal, "beyond": diagonal + 1.0}.get(leibovici, leibovici)
    measures = PAIR_MEASURES if grid.num_categories > 1 else tuple(
        m for m in PAIR_MEASURES if m != "rc"
    )
    table = _rows_table(_rows(grid, measures, cls, d, ordered=ordered))
    bands = cls or DistanceClassification.default_for(grid)
    scheme = CooccurrenceScheme(grid.num_categories, ordered=True)
    if ordered:
        dec = decompose_counts(enumerate_pairs(grid, bands, scheme).category_counts, bands.labels)
    else:
        dec = decompose(grid, bands)
    assert table.pop(("shannon_x", "")) == shannon(grid.category_pmf())
    assert table.pop(("shannon_z", "")) == dec.marginal
    assert table.pop(("oneill", "")) == oneill_entropy(grid)
    assert table.pop(("leibovici", f"d{d:g}")) == leibovici_entropy(grid, d)
    if grid.num_categories > 1:
        assert table.pop(("rc", "")) == relative_contagion(grid)
    assert table.pop(("parresol", "")) == parresol_edwards_entropy(grid)
    assert table.pop(("mutual_information", "")) == dec.mutual_information
    assert table.pop(("residual_global", "")) == dec.residual_global
    assert table.pop(("mi_proportional", "")) == dec.mi_proportional
    for b in dec.bands:
        assert table.pop(("p_w", b.label)) == b.p_w
        assert table.pop(("residual_partial", b.label)) == b.residual_partial
        assert table.pop(("info_partial", b.label)) == b.info_partial
    assert not table


def _owner(name):
    """The measure that emits a row named ``name``: the decomposition's rows carry term names."""
    return name if name in cli.MEASURES else "decomposition"


@given(
    st.sets(st.sampled_from(cli.MEASURES), min_size=1),
    st.sampled_from([2, 5, 20]),
    st.booleans(),
    st.integers(4, 12),
    st.integers(4, 12),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60)
def test_measure_rows_emit_exactly_the_selection(subset, cats, ordered, rows, cols, seed):
    # every stage computes some values it may not emit (shannon_x, batty);
    # a subset's rows are the full table's rows of that subset, in order
    values = np.random.default_rng(seed).integers(1, cats + 1, size=rows * cols)
    values[0] = 1  # the target category is present: no NaN area rows
    grid = CategoricalGrid(rows, cols, cats, values)
    args = argparse.Namespace(
        bands=DistanceClassification((0.0, 1.0, 2.5, 4.0, math.hypot(rows, cols))),
        leibovici_distance=3.0, areas=4, karlstrom_distances=(0.0, 2.0),
    )

    def measure_rows(measures):
        plan = cli._plan(grid, measures, args, seed)  # one random partition
        return cli._measure_rows(grid, measures, plan, ordered=ordered)

    every = measure_rows(cli.MEASURES)
    selected = tuple(m for m in cli.MEASURES if m in subset)
    assert measure_rows(selected) == [row for row in every if _owner(row[0]) in subset]
    assert [_owner(m) for m, _, _ in every] == sorted(
        (_owner(m) for m, _, _ in every), key=cli.MEASURES.index
    )
    dec = decompose(grid, args.bands, ordered=ordered)
    want = [
        ("mutual_information", "", dec.mutual_information),
        ("residual_global", "", dec.residual_global),
        ("mi_proportional", "", dec.mi_proportional),
    ]
    for b in dec.bands:
        want += [("p_w", b.label, b.p_w), ("residual_partial", b.label, b.residual_partial),
                 ("info_partial", b.label, b.info_partial)]
    assert [row for row in every if _owner(row[0]) == "decomposition"] == want
    assert [row for row in every if row[0] == "shannon_z"] == [("shannon_z", "", dec.marginal)]


def test_measure_rows_keep_their_errors():
    grid = CategoricalGrid(4, 4, 2, (np.arange(16) % 2) + 1)
    short = DistanceClassification((0, 1, 2))  # the corner pair lies beyond 2
    # bands that leave pairs out fail the decomposition only
    for measures in (("decomposition",), ("shannon_z",)):
        with pytest.raises(CoverageError):
            _rows(grid, measures, short)
    rows = _rows(grid, ("oneill", "leibovici"), short)
    assert rows == [("oneill", "", oneill_entropy(grid)), ("leibovici", "d2", leibovici_entropy(grid, 2))]
    with pytest.raises(ValueError, match="max_distance must be >= 1 so that some pair exists"):
        cli._plan(grid, ("leibovici",), argparse.Namespace(bands=None, leibovici_distance=0.5), 0)
    with pytest.raises(ValueError, match="contagion needs at least two categories"):
        _rows(CategoricalGrid(4, 4, 1, np.ones(16)), ("rc",))


def test_every_pair_path_makes_one_ordered_tally(monkeypatch):
    tallies = _spy_tallies(monkeypatch)
    grid = CategoricalGrid(6, 6, 3, (np.arange(36) % 3) + 1)
    paths = {
        "decompose": lambda: decompose(grid),
        "decompose-ordered": lambda: decompose(grid, ordered=True),
        "oneill": lambda: oneill_entropy(grid),
        "leibovici": lambda: leibovici_entropy(grid, 2.5),
        "rc": lambda: relative_contagion(grid),
        "rc-unordered": lambda: relative_contagion(grid, ordered=False),
        "parresol": lambda: parresol_edwards_entropy(grid),
        "measure": lambda: _rows(grid, cli.MEASURES[:2] + cli.MEASURES[4:]),
        "verify": lambda: cli._verify_grid(grid),
    }
    for name, path in paths.items():
        tallies.clear()
        path()
        # one ordered tally: all 3^2 ordered codes of the three categories
        assert [(t[3].shape[1], t[4].tolist()) for t in tallies] == [(9, [1, 2, 3])], name


def test_measure_prints_no_negative_zero(tmp_path, capsys):
    path = _write(tmp_path, "one.grid", 4, 4, 1, np.ones(16))
    argv = ["measure", str(path), "--areas", "1", "--measures", "oneill,parresol,karlstrom"]
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows == [f"karlstrom,d{d},0" for d in (0, 2, 5, 10)] + ["oneill,,0", "parresol,,0"]


def test_measure_rows_tally_once_and_only_for_pair_measures(monkeypatch):
    tallies = _spy_tallies(monkeypatch)
    grid = CategoricalGrid(6, 6, 2, (np.arange(36) % 2) + 1)
    _rows(grid, ("shannon_x",))
    assert tallies == []
    _rows(grid, cli.MEASURES[:2] + cli.MEASURES[4:], leibovici_distance=3.5)
    # the default bands, split further at the Leibovici distance
    assert [t[1].breaks for t in tallies] == [(0.0, 1.0, 2.0, 3.5, 5.0, math.hypot(6, 6))]


# --------------------------------------------------------------------------
# decompose

def test_decompose_json(tmp_path, capsys):
    path = _chessboard_path(tmp_path)
    rc = main(["decompose", str(path)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bands"][0]["residual_partial"] == 0.0
    assert doc["marginal"] == pytest.approx(
        doc["mutual_information"] + doc["residual_global"], abs=1e-12
    )


def test_decompose_csv_with_custom_bands(tmp_path, capsys):
    path = _chessboard_path(tmp_path)
    rc = main(["decompose", str(path), "--format", "csv", "--bands", "0,1,14.15"])
    assert rc == 0
    header, row = capsys.readouterr().out.strip().split("\n")
    assert header.split(",")[4:7] == ["w1_p_w", "w1_residual_partial", "w1_info_partial"]
    assert len(header.split(",")) == 4 + 2 * 3


def test_decompose_ordered_flag(tmp_path, capsys):
    path = _chessboard_path(tmp_path)
    assert main(["decompose", str(path), "--ordered"]) == 0
    ordered = json.loads(capsys.readouterr().out)
    assert main(["decompose", str(path)]) == 0
    unordered = json.loads(capsys.readouterr().out)
    # contiguous chessboard pairs: one unordered type (H=0) but two ordered
    # orientations in equal shares (H=log 2)
    assert unordered["bands"][0]["residual_partial"] == 0.0
    assert ordered["bands"][0]["residual_partial"] == pytest.approx(
        math.log(2), abs=1e-12
    )


def _run_limited(*argv):
    """``spatent`` in a child under a 3 GiB address-space limit: a table sized by I fails fast."""
    limit = 3 << 30
    start = (
        "import resource, runpy; "
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
        "runpy.run_module('spatent.cli', run_name='__main__')"
    )
    return subprocess.run(
        [sys.executable, "-c", start, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True,
    )


@pytest.mark.parametrize("declared", [300, 20_000, 10**10])
def test_commands_ignore_the_declared_category_count(tmp_path, capsys, declared):
    # a 2x2 map of two codes: every table is sized by the codes present, so a
    # header declaring I = 20000 (a (3, I, I) int64 table would take 8.9 GiB)
    # or 10^10 runs as I = 2 does, verify's brute-force oracle included; only
    # rc's normaliser log I^2 reads I
    two, path = tmp_path / "two.grid", tmp_path / "declared.grid"
    two.write_text("2 2 2\n1 2\n2 1\n")
    path.write_text(f"2 2 {declared}\n1 2\n2 1\n")
    assert main(["decompose", str(two)]) == 0
    run = _run_limited("decompose", str(path))
    assert (run.returncode, run.stdout) == (0, capsys.readouterr().out), run.stderr
    assert main(["measure", str(two), "--areas", "1"]) == 0
    measured = dict(line.rsplit(",", 1) for line in capsys.readouterr().out.splitlines())
    run = _run_limited("measure", str(path), "--areas", "1")
    assert run.returncode == 0, run.stderr
    rows = dict(line.rsplit(",", 1) for line in run.stdout.splitlines())
    assert rows == {**measured, "rc,": rows["rc,"]}
    rc = 1 - float(rows["oneill,"]) / math.log(declared**2)
    assert float(rows["rc,"]) == pytest.approx(rc, abs=1e-11)
    assert main(["verify", str(two)]) == 0
    verified = capsys.readouterr().out.replace(str(two), str(path))
    run = _run_limited("verify", str(path))
    assert (run.returncode, run.stdout) == (0, verified), run.stderr


def test_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    path = _chessboard_path(tmp_path)
    assert main(["decompose", str(path), "--ordered"]) == 0
    capsys.readouterr()
    assert main(["decompose", str(path)]) == 0
    after_ordered = capsys.readouterr().out
    fresh = subprocess.run(
        [sys.executable, "-m", "spatent.cli", "decompose", str(path)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert after_ordered == fresh


# --------------------------------------------------------------------------
# verify

def test_verify_passes_on_valid_grid(tmp_path, capsys):
    path = _write(tmp_path, "small.grid", 8, 8, 3, (np.arange(64) % 3) + 1)
    rc = main(["verify", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all identities hold" in out
    assert "bruteforce-oracle" in out  # 64 pixels: the slow path runs too
    assert "FAIL" not in out


def test_verify_compares_the_ordered_table(tmp_path, monkeypatch, capsys):
    # left half 1, right half 2: the 4 mixed rook pairs all read (1, 2), none (2, 1)
    path = _write(tmp_path, "halves.grid", 4, 4, 2, np.tile([1, 1, 2, 2], 4))

    def swapped(grid, classification, distances=(), *, geometry=None):
        within, present = pairs_within(grid, classification, distances, geometry=geometry)
        # swap (1, 2) and (2, 1) in the first band's row difference, and so in
        # every running sum from it on
        within = within.copy()
        first = within[1] - within[0]
        within[1:, [1, 2]] += first[[2, 1]] - first[[1, 2]]
        return within, present

    def relabelled(grid, classification, distances=(), *, geometry=None):
        within, present = pairs_within(grid, classification, distances, geometry=geometry)
        return within, present[::-1]  # the right counts under the wrong codes

    pairs_within = cooccur.pairs_within
    for tampered in (swapped, relabelled):
        monkeypatch.setattr(cli, "pairs_within", tampered)
        assert main(["verify", str(path)]) == 1
        out = capsys.readouterr().out
        # the folded decomposition cannot see the swap or the codes; the oracle can
        assert [line.split()[2] for line in out.splitlines() if line.startswith("FAIL")] == [
            "bruteforce-oracle"
        ]


def test_verify_reports_the_residuals_decompose_carries(tmp_path, capsys):
    # grids with absent codes, among them the golden corpus's r60x1_i20,
    # r5x7_i20 and r8x8_i5_nolow, where a table over all I^2 codes sums
    # the pmf mass in another order than decompose's table over the present ones
    corpus = [p for p in _corpus(tmp_path) if p.stem.endswith(("_i20", "_nolow", "_nohigh"))]
    corpus.append(_write(tmp_path, "gaps.grid", 6, 7, 9, (np.arange(42) % 3) * 4 + 1))
    assert {"r60x1_i20", "r5x7_i20", "r8x8_i5_nolow"} < {p.stem for p in corpus}
    assert main(["verify", *map(str, corpus)]) == 0
    reported = {}
    for line in capsys.readouterr().out.splitlines()[:-1]:
        _, path, name, detail = line.split(maxsplit=3)
        reported.setdefault(path, {})[name] = detail
    for path in corpus:
        residuals = decompose(read_grid(path)).residuals
        assert len(residuals) == 6
        want = {name: f"(residual={r:.3e})" for name, r in residuals.items()}
        assert {k: v for k, v in reported[str(path)].items() if k in want} == want, path.stem


def test_verify_flags_corrupt_file(tmp_path, capsys):
    bad = tmp_path / "bad.grid"
    bad.write_text("2 2 2\n1 0\n2 1\n")  # category 0 is invalid
    rc = main(["verify", str(bad)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out


def test_verify_multiple_files(tmp_path, capsys):
    good = _chessboard_path(tmp_path)
    bad = tmp_path / "bad.grid"
    bad.write_text("1 2 2\n1 3\n")
    one = tmp_path / "one.grid"
    one.write_text("1 1 1\n1\n")  # reads, but holds no pixel pair to tally
    rc = main(["verify", str(one), str(good), str(bad)])
    assert rc == 1
    out = capsys.readouterr().out
    assert out.count("FAIL") == 2
    assert f"FAIL {one} tally: need at least two pixels" in out
    assert f"PASS {good} pair-total" in out
    assert f"PASS {good} residual-aggregation" in out


# --------------------------------------------------------------------------
# experiment

EXP_ARGS = (
    "experiment --scenarios compact:2,random:5 --rows 10 --cols 10"
    " --replicates 2 --seed 3 --areas 4 --workers {workers} --out {out}"
)


def _run_experiment(tmp_path, tag, workers):
    out = tmp_path / tag
    rc = main(EXP_ARGS.format(workers=workers, out=out).split())
    assert rc == 0
    return out


def test_experiment_long_csv_schema(tmp_path):
    out = _run_experiment(tmp_path, "e1", 1)
    lines = (out / "results_long.csv").read_text().strip().split("\n")
    assert lines[0] == "scenario,replicate,uniform_flag,measure,band,value"
    rows = [line.split(",") for line in lines[1:]]
    scenarios = {r[0] for r in rows}
    assert scenarios == {"compact_x2", "random_x5"}
    # uniform special case: one extra flagged replicate per scenario
    uniform = [r for r in rows if r[2] == "1"]
    assert {r[0] for r in uniform} == scenarios
    assert all(r[1] == "2" for r in uniform)
    # area indices only on the two-category scenario
    batty_scenarios = {r[0] for r in rows if r[3] == "batty"}
    assert batty_scenarios == {"compact_x2"}
    karlstrom_bands = {r[4] for r in rows if r[3] == "karlstrom"}
    assert karlstrom_bands == {"d0", "d2", "d5", "d10"}
    # every value parses as a float
    for r in rows:
        float(r[5])
    # decomposition rows carry band labels
    assert {r[4] for r in rows if r[3] == "residual_partial"} == {
        "w1",
        "w2",
        "w3",
        "w4",
        "w5",
    }


def test_experiment_summary_quantiles(tmp_path):
    out = _run_experiment(tmp_path, "e2", 1)
    lines = (out / "summary.csv").read_text().strip().split("\n")
    assert lines[0] == "scenario,measure,band,min,q1,median,q3,max,uniform"
    for line in lines[1:]:
        cells = line.split(",")
        q = [float(v) for v in cells[3:8]]
        assert q[0] <= q[1] <= q[2] <= q[3] <= q[4]
    # the uniform column for shannon_x on the 2-category scenario is log 2
    row = next(l for l in lines[1:] if l.startswith("compact_x2,shannon_x,"))
    assert float(row.split(",")[-1]) == pytest.approx(math.log(2), abs=1e-10)


def _no_threads(self):
    raise AssertionError("experiment must run its replicates in this thread")


def test_experiment_deterministic_across_workers(tmp_path, monkeypatch):
    a = _run_experiment(tmp_path, "wa", 1)
    # --workers is accepted but the replicates run serially
    monkeypatch.setattr(threading.Thread, "start", _no_threads)
    b = _run_experiment(tmp_path, "wb", 3)
    assert (a / "results_long.csv").read_bytes() == (b / "results_long.csv").read_bytes()
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()


def test_experiment_rejects_impossible_uniform_case(tmp_path):
    rc = main(
        "experiment --scenarios random:3 --rows 10 --cols 10 --replicates 1"
        " --seed 1 --measures shannon_x --out".split()
        + [str(tmp_path / "bad")]
    )
    assert rc == 2
    rc = main(
        "experiment --scenarios random:3 --rows 10 --cols 10 --replicates 1"
        " --seed 1 --measures shannon_x --skip-uniform --out".split()
        + [str(tmp_path / "ok")]
    )
    assert rc == 0


def test_experiment_plan_json_written(tmp_path):
    out = _run_experiment(tmp_path, "e3", 1)
    plan = json.loads((out / "plan.json").read_text())
    assert plan["replicates"] == 2
    assert plan["master_seed"] == 3
    assert {(s["kind"], s["categories"]) for s in plan["scenarios"]} == {
        ("compact", 2),
        ("random", 5),
    }
    assert (out / "partition.txt").exists()


def test_json_files_never_hold_a_non_json_token(tmp_path, monkeypatch):
    # Infinity and NaN are no JSON; strict parsers reject them.  One function
    # writes every JSON document: plan.json, manifest.json and decompose's
    grid = tmp_path / "g.grid"
    write_grid(CategoricalGrid(3, 3, 2, [1, 2, 1, 2, 2, 1, 1, 1, 2]), grid)
    dec = decompose(read_grid(grid))
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._json_text({"karlstrom_distances": [0.0, value]})
        monkeypatch.setattr(cli, "decompose", lambda *a, **k: replace(dec, marginal=value))
        assert main(["decompose", str(grid), "--out", str(tmp_path / "d.json")]) == 2
    assert not (tmp_path / "d.json").exists()


def test_bad_cli_arguments_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--scenarios", "blob:2", "--out", "x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["measure", "g.grid", "--measures", "nonsense"])
    assert exc.value.code == 2
    # non-finite break points would misbin every pair instead of failing
    for bands in ("0,nan", "0,inf", "nan,1,10"):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "g.grid", "--bands", bands])
        assert exc.value.code == 2
    # numbers no measure or design can use are refused before any work starts
    for argv in (
        "measure g.grid --leibovici-distance nan",
        "measure g.grid --leibovici-distance inf",
        "measure g.grid --leibovici-distance 0.5",
        "experiment --leibovici-distance nan --out x",
        "measure g.grid --karlstrom-distances nan",
        "measure g.grid --karlstrom-distances 0,nan",
        "measure g.grid --karlstrom-distances inf",
        "measure g.grid --karlstrom-distances 0,inf",
        "measure g.grid --karlstrom-distances 1e400",
        "experiment --karlstrom-distances inf --out x",
        "experiment --karlstrom-distances 0,inf --out x",
        "experiment --karlstrom-distances 1e400 --out x",
        "measure g.grid --areas 0",
        "measure g.grid --areas -3",
        "experiment --areas 0 --out x",
        "experiment --rows 0 --out x",
        "experiment --cols 0 --out x",
        "experiment --replicates -1 --out x",
        "experiment --workers 0 --out x",
        "experiment --workers two --out x",
        "generate --scenario random --rows 0 --out x",
        "generate --scenario random --replicates 0 --out x",
        "generate --scenario random --seed -1 --out x",
        "experiment --seed -1 --out x",
        "experiment --seed 1.5 --out x",
        "generate --scenario random --categories 1 --out x",
        "generate --scenario repulsive --categories 5 --out x",
        "generate --scenario multicluster --categories 3 --out x",
        "experiment --scenarios random:1 --out x",
        "experiment --scenarios random:0 --out x",
        "experiment --scenarios compact:2,repulsive:5 --out x",
        "experiment --scenarios multicluster:3 --out x",
        "measure g.grid --target-category 0",
        "measure g.grid --target-category -1",
        "measure g.grid --partition-seed -1",
        # an empty measure list would write a header and nothing else
        "measure g.grid --measures ,",
        # integers are ASCII digits only, as in a grid file
        "generate --scenario random --rows ３ --out x",
        "experiment --seed ٣ --out x",
        "measure g.grid --areas ²",
        "measure g.grid --partition-seed ٣",
        "experiment --scenarios random:٣ --out x",
        "experiment --scenarios random:² --out x",
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2, argv
    # split() would drop the blank measure list
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--measures", " ", "--out", "x"])
    assert exc.value.code == 2


def test_integer_readers_refuse_digits_with_spaces_around_them(capsys):
    # every integer option is ASCII digits and nothing else, as in a grid file
    for text in (" 5", "5 ", "\t5", "5\n"):
        got = re.escape(repr(text))
        with pytest.raises(
            argparse.ArgumentTypeError, match=f"^expected a positive integer, got {got}$"
        ):
            cli._positive_int_arg(text)
        with pytest.raises(
            argparse.ArgumentTypeError, match=f"^expected a non-negative integer, got {got}$"
        ):
            cli._non_negative_int_arg(text)
        with pytest.raises(
            argparse.ArgumentTypeError,
            match=f"^expected a non-negative integer or 'uniform', got {got}$",
        ):
            cli._partition_seed_arg(text)
    # an entry's own spaces are stripped, those inside it are not
    assert cli._plan_arg(" random:2 ") == (("random", 2),)
    for entry, count in (("random: 2", " 2"), ("random:\t2", "\t2"), ("random:2 2", "2 2")):
        with pytest.raises(
            argparse.ArgumentTypeError,
            match=f"^bad plan entry {re.escape(repr(entry))}: "
            f"category count {re.escape(repr(count))} is not ASCII digits$",
        ):
            cli._plan_arg(entry)
    for argv in (
        ["generate", "--scenario", "random", "--rows", " 5", "--out", "x"],
        ["experiment", "--seed", "0 ", "--out", "x"],
        ["measure", "g.grid", "--partition-seed", " 3"],
        ["experiment", "--scenarios", "compact: 2", "--out", "x"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()


def test_argument_types_name_what_they_reject(capsys):
    # an empty plan entry is skipped, and a plan of nothing but commas is refused
    assert cli._plan_arg("random:2,,compact:5,") == (("random", 2), ("compact", 5))
    with pytest.raises(argparse.ArgumentTypeError, match="^empty scenario plan$"):
        cli._plan_arg(",")
    for text in (",", " ", ", ,"):
        with pytest.raises(argparse.ArgumentTypeError, match="^empty measure list$"):
            cli._measures_arg(text)
    # digits outside ASCII are refused by name, never by an int() traceback text
    for entry in ("random:٣", "random:²", "random:３"):
        with pytest.raises(
            argparse.ArgumentTypeError,
            match=f"^bad plan entry '{entry}': category count '{entry[-1]}' is not ASCII digits$",
        ):
            cli._plan_arg(entry)
    for text in ("３", "٣", "²"):
        with pytest.raises(
            argparse.ArgumentTypeError, match=f"^expected a positive integer, got '{text}'$"
        ):
            cli._positive_int_arg(text)
        with pytest.raises(
            argparse.ArgumentTypeError, match=f"^expected a non-negative integer, got '{text}'$"
        ):
            cli._non_negative_int_arg(text)
        with pytest.raises(
            argparse.ArgumentTypeError,
            match=f"^expected a non-negative integer or 'uniform', got '{text}'$",
        ):
            cli._partition_seed_arg(text)
    with pytest.raises(argparse.ArgumentTypeError, match="could not convert string to float: 'x'"):
        cli._distances_arg("1,x")
    for text in ("nan", "0,inf", "1e400", "-1"):
        with pytest.raises(
            argparse.ArgumentTypeError, match="^distances must be finite non-negative numbers$"
        ):
            cli._distances_arg(text)
    assert cli._partition_seed_arg("uniform") == "uniform"
    assert cli._partition_seed_arg("3") == 3
    for text in ("abc", "-1", "1.5", ""):
        with pytest.raises(
            argparse.ArgumentTypeError,
            match=f"^expected a non-negative integer or 'uniform', got '{text}'$",
        ):
            cli._partition_seed_arg(text)
    # a negative seed stops in the parser, which names the option
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["measure", "g.grid", "--partition-seed", "-1"])
    assert capsys.readouterr().err.endswith(
        "error: argument --partition-seed: expected a non-negative integer or 'uniform', "
        "got '-1'\n"
    )


AGREE_MEASURES = "shannon_x,shannon_z,oneill,leibovici,rc,parresol,decomposition"


@pytest.mark.parametrize("scenario", ["random:5", "compact:2", "multicluster:2", "random:20"])
def test_experiment_and_measure_agree_row_for_row(tmp_path, capsys, scenario):
    # experiment's batch tally through the shared geometry against measure's
    # one-shot tally of the same grid, written by generate and read back
    kind, cats = scenario.split(":")
    common = "--rows 12 --cols 10 --replicates 3 --seed 7 --out {}"
    argv = f"experiment --scenarios {scenario} --skip-uniform --measures {AGREE_MEASURES}"
    argv += f" --leibovici-distance 3 {common.format(tmp_path / 'exp')}"
    assert main(argv.split()) == 0
    argv = f"generate --scenario {kind} --categories {cats} {common.format(tmp_path / 'gen')}"
    assert main(argv.split()) == 0
    capsys.readouterr()
    lines = (tmp_path / "exp" / "results_long.csv").read_text().splitlines()[1:]
    for entry in json.loads((tmp_path / "gen" / "manifest.json").read_text())["grids"]:
        head = f"{kind}_x{cats},{entry['replicate']},0,"
        want = [line[len(head):] for line in lines if line.startswith(head)]
        assert want
        path = tmp_path / "gen" / entry["file"]
        argv = ["measure", str(path), "--measures", AGREE_MEASURES, "--leibovici-distance", "3"]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[1:] == want, entry["file"]


def test_experiment_tallies_each_grid_once(tmp_path, monkeypatch):
    tallies = _spy_tallies(monkeypatch)
    out = _run_experiment(tmp_path, "once", 1)
    # two scenarios, two replicates each plus the flagged equal-split one
    assert len(tallies) == 6
    assert len({id(t[0]) for t in tallies}) == 6
    assert (out / "results_long.csv").exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            "--scenarios multicluster:2 --rows 4 --cols 4 --measures decomposition",
            "multicluster needs at least 5 rows and 5 columns",
        ),
        (
            "--bands 0,1,2 --rows 6 --cols 6 --scenarios random:2 --measures decomposition",
            "distance 3 of displacement (3, 0) has no band",
        ),
        (
            "--scenarios random:2 --rows 5 --cols 5 --measures decomposition",
            "the equal-split replicate needs the category count to divide 25 pixels; "
            "impossible for random:2 (use --skip-uniform)",
        ),
        (
            "--scenarios random:2 --rows 10 --cols 10 --areas 50",
            "num_areas must be a perfect square, got 50",
        ),
        ("--scenarios random:2 --rows 6 --cols 6", "more areas than pixels"),
        (
            "--scenarios random:2 --rows 1 --cols 1 --skip-uniform --measures decomposition",
            "need at least two pixels to form a pair",
        ),
        (
            "--scenarios random:5 --replicates 1 --measures batty",
            "--measures batty selects nothing on --scenarios random:5: "
            "batty and karlstrom are defined on two-category scenarios only",
        ),
    ],
    ids=[
        "multicluster-too-small",
        "uncovered-bands",
        "no-equal-split",
        "areas-not-square",
        "more-areas-than-pixels",
        "one-pixel",
        "no-measure-selected",
    ],
)
def test_experiment_checks_the_plan_before_any_replicate(
    tmp_path, monkeypatch, caplog, argv, message
):
    drawn = []
    monkeypatch.setattr(cli, "generate", drawn.append)
    out = tmp_path / "plan"
    with caplog.at_level(logging.ERROR, logger="spatent"):
        assert main(["experiment", *argv.split(), "--out", str(out)]) == 2
    assert drawn == []
    assert not out.exists()
    assert [r.getMessage() for r in caplog.records] == [f"error: {message}"]


def test_experiment_runs_no_replicate_of_an_entry_selecting_nothing(tmp_path, monkeypatch):
    # batty is defined on random:2 only, so random:5 draws no replicate and
    # the files hold random:2's bytes alone; nor is its equal split checked,
    # which 36 pixels cannot give five categories
    drawn = []

    def recording(spec):
        drawn.append((spec.kind, spec.num_categories, spec.seed))
        return real_generate(spec)

    real_generate = cli.generate
    monkeypatch.setattr(cli, "generate", recording)
    for side, replicates in ((10, 2), (6, 1)):
        argv = f"--rows {side} --cols {side} --replicates {replicates} --areas 4 --measures batty"
        seeds = [cli.replicate_seed(0, "random", 2, rep) for rep in range(replicates + 1)]
        for scenarios in ("random:2,random:5", "random:2"):
            drawn.clear()
            out = tmp_path / f"{side}_{scenarios}"
            argv_out = [*argv.split(), "--scenarios", scenarios, "--out", str(out)]
            assert main(["experiment", *argv_out]) == 0
            assert drawn == [("random", 2, seed) for seed in seeds]
        for name in ("results_long.csv", "summary.csv"):
            mixed = (tmp_path / f"{side}_random:2,random:5" / name).read_bytes()
            assert mixed == (tmp_path / f"{side}_random:2" / name).read_bytes()


def test_experiment_checks_bands_only_for_the_decomposition(tmp_path):
    # the contiguity indices tally the grid's default bands, not --bands
    out = tmp_path / "oneill"
    argv = "--bands 0,1,2 --rows 6 --cols 6 --scenarios random:2 --measures oneill --replicates 1"
    assert main(["experiment", *argv.split(), "--out", str(out)]) == 0
    rows = (out / "results_long.csv").read_text().splitlines()
    assert [r.split(",")[3] for r in rows[1:]] == ["oneill", "oneill"]


def test_experiment_shares_one_geometry_across_replicates(tmp_path, monkeypatch):
    tallies = _spy_tallies(monkeypatch)
    out = tmp_path / "shared"
    argv = EXP_ARGS.format(workers=1, out=out) + " --leibovici-distance 3.5"
    assert main(argv.split()) == 0
    seen = [t[1:3] for t in tallies]
    assert len(seen) == 6
    geometry = seen[0][1]
    assert all(g is geometry for _, g in seen)
    # the default bands of a 10x10 grid, split further at the Leibovici distance
    assert geometry.classification.breaks == (0.0, 1.0, 2.0, 3.5, 5.0, 10.0, math.hypot(10, 10))
    assert all(cls == geometry.classification for cls, _ in seen)


def test_experiment_finishes_the_band_spectra_once(tmp_path, monkeypatch):
    finished = []

    def counting(block, p1):
        finished.append(block)
        return finish_band(block, p1)

    finish_band = cooccur._finish_band
    tallies = _spy_tallies(monkeypatch)
    monkeypatch.setattr(cooccur, "_finish_band", counting)
    assert main(EXP_ARGS.format(workers=1, out=tmp_path / "finished").split()) == 0
    (geometry,) = {t[2] for t in tallies}
    # once per band, over the whole stage-one spectrum, for all six tallies
    assert [id(b) for b in finished] == [id(s) for s in geometry.spectra if s is not None]
    assert len(finished) == 4  # the inner bands of (0, 1, 2, 5, 10, 10 sqrt 2]


def test_experiment_isolates_a_failed_replicate(tmp_path, monkeypatch, caplog):
    full = _run_experiment(tmp_path, "full", 1)
    real_generate = cli.generate
    bad_seed = cli.replicate_seed(3, "random", 5, 1)

    def failing(spec):
        if spec.seed == bad_seed and spec.pmf_source == "dirichlet":
            raise ValueError("boom")
        return real_generate(spec)

    monkeypatch.setattr(cli, "generate", failing)
    out = tmp_path / "partial"
    with caplog.at_level(logging.ERROR, logger="spatent"):
        rc = main(EXP_ARGS.format(workers=2, out=out).split())
    assert rc == 1
    assert "replicate random_x5/1 aborted: ValueError: boom" in caplog.text
    kept = [
        line
        for line in (full / "results_long.csv").read_text().splitlines()
        if not line.startswith("random_x5,1,0,")
    ]
    assert (out / "results_long.csv").read_text().splitlines() == kept
    assert (out / "summary.csv").exists()


def _entry_rows(plan, skip=()):
    """The ``results_long.csv`` text of ``plan`` from ``run_entry``, without the replicates in ``skip``."""
    lines = ["scenario,replicate,uniform_flag,measure,band,value\n"]
    for index, (kind, cats) in enumerate(plan.scenarios):
        for rep in range(plan.replicates + 1):
            if (index, rep) not in skip:
                head = f"{kind}_x{cats},{rep},{int(rep == plan.replicates)},"
                lines.append(cli._row_lines(plan.run_entry(index, rep)[1], head))
    return "".join(lines)


def test_experiment_isolates_a_replicate_failing_its_identities(tmp_path, monkeypatch, caplog):
    plan = ExperimentPlan.from_args(build_parser().parse_args(EXP_ARGS.format(workers=1, out="x").split()))
    # the joint table of random:5, replicate 1, and a mutual information that
    # misses it wherever it is decomposed, in a stack of one or of three
    ((within, present),) = cli._tallies([plan.run_entry(1, 1)[0]], plan.shared)
    target = decomp._laws(decomp._band_counts(within[:-2], present.size, False))[3]
    exact = decomp.mutual_information
    stacked = []

    def broken(joint):
        stacked.append(len(joint))
        hit = [j.shape == target.shape and np.array_equal(j, target) for j in joint]
        return exact(joint) + 1e-6 * np.array(hit)

    monkeypatch.setattr(decomp, "mutual_information", broken)
    out = tmp_path / "broken"
    with caplog.at_level(logging.ERROR, logger="spatent"):
        assert main(EXP_ARGS.format(workers=1, out=out).split()) == 1
    assert stacked == [3, 3]  # each entry's three replicates, as one stack
    aborted = [r.getMessage() for r in caplog.records if " aborted: " in r.getMessage()]
    assert len(aborted) == 1
    assert re.match(
        r"^replicate random_x5/1 aborted: ConsistencyError: decomposition identity \S+ misses"
        r" by 1\.000e-06 \(tolerance 1e-10\); failing: .*mi-dual-route", aborted[0]
    )
    # every other replicate is written, as run_entry gives it alone
    assert (out / "results_long.csv").read_text() == _entry_rows(plan, skip={(1, 1)})
    with pytest.raises(ConsistencyError, match="^decomposition identity "):
        plan.run_entry(1, 1)


def test_experiment_isolates_a_replicate_failing_its_tally(tmp_path, monkeypatch, caplog):
    plan = ExperimentPlan.from_args(build_parser().parse_args(EXP_ARGS.format(workers=1, out="x").split()))
    # the every-pair table of random:5, replicate 1, one pair off, so that its
    # outermost band misses the geometry's total wherever it is tallied
    target = plan.run_entry(1, 1)[0].values
    every_pair, stack_call = cooccur._ordered_pair_counts, cooccur.pairs_within_stack
    stacks = []

    def perturbed(flat, present):
        every = every_pair(flat, present)
        if np.array_equal(flat, target):
            every[0, 0] += 1
        return every

    def counting(grids, *args, **kwargs):
        stacks.append(len(grids))
        return stack_call(grids, *args, **kwargs)

    monkeypatch.setattr(cooccur, "_ordered_pair_counts", perturbed)
    monkeypatch.setattr(cli, "pairs_within_stack", counting)
    out = tmp_path / "broken"
    with caplog.at_level(logging.ERROR, logger="spatent"):
        assert main(EXP_ARGS.format(workers=1, out=out).split()) == 1
    assert stacks == [3, 3]  # each entry's three replicates, tallied in one call
    aborted = [r.getMessage() for r in caplog.records if " aborted: " in r.getMessage()]
    assert len(aborted) == 1
    assert re.match(
        r"^replicate random_x5/1 aborted: ConsistencyError: per-band pair counts \[.*\] disagree"
        r" with the geometry \[.*\]$", aborted[0]
    )
    # every other replicate is written, as run_entry gives it alone
    assert (out / "results_long.csv").read_text() == _entry_rows(plan, skip={(1, 1)})
    with pytest.raises(ConsistencyError, match="^per-band pair counts "):
        plan.run_entry(1, 1)


def test_each_default_design_grid_tallies_in_its_stack_as_alone():
    argv = "experiment --replicates 10 --seed 0 --out x".split()
    plan = ExperimentPlan.from_args(build_parser().parse_args(argv))
    cls, distances = plan.shared.pair_bands
    tallied = 0
    for index in range(len(plan.scenarios)):
        grids = plan.run_entries(index, range(plan.replicates + 1))[0]
        stacked = cooccur.pairs_within_stack(grids, cls, distances, geometry=plan.shared.geometry)
        for grid, (within, present) in zip(grids, stacked):
            alone = cooccur.pairs_within(grid, cls, distances)
            np.testing.assert_array_equal(within, alone[0])
            np.testing.assert_array_equal(present, alone[1])
            tallied += 1
    assert tallied == 88


@pytest.mark.parametrize("stack", [1, 2, 32])
def test_experiment_writes_run_entry_rows_in_replicate_order(tmp_path, monkeypatch, stack):
    whole = _run_experiment(tmp_path, "whole", 1)
    monkeypatch.setattr(cli, "_STACK", stack)
    out = _run_experiment(tmp_path, f"stack{stack}", 1)
    plan = ExperimentPlan.from_json((out / "plan.json").read_text())
    assert (out / "results_long.csv").read_text() == _entry_rows(plan)
    for name in ("results_long.csv", "summary.csv", "plan.json", "partition.txt"):
        assert (out / name).read_bytes() == (whole / name).read_bytes(), name


@pytest.mark.parametrize("stack", [1, 32])
def test_an_interrupted_experiment_leaves_its_plan_and_whole_replicates(tmp_path, monkeypatch, stack):
    full = _run_experiment(tmp_path, "full", 1)
    real_generate = cli.generate
    stop = cli.replicate_seed(3, "random", 5, 1)

    def interrupted(spec):
        if spec.seed == stop and spec.pmf_source == "dirichlet":
            raise KeyboardInterrupt
        return real_generate(spec)

    monkeypatch.setattr(cli, "_STACK", stack)
    monkeypatch.setattr(cli, "generate", interrupted)
    out = tmp_path / "cut"
    with pytest.raises(KeyboardInterrupt):
        main(EXP_ARGS.format(workers=1, out=out).split())
    assert (out / "plan.json").read_bytes() == (full / "plan.json").read_bytes()
    assert not (out / "summary.csv").exists()
    cut = (out / "results_long.csv").read_text().splitlines()
    lines = (full / "results_long.csv").read_text().splitlines()
    assert cut == lines[: len(cut)]

    def replicates(rows):
        return collections.Counter(tuple(row.split(",")[:2]) for row in rows[1:])

    # only whole replicates, and none from the stack that was cut
    kept, every = replicates(cut), replicates(lines)
    assert all(kept[key] == every[key] for key in kept)
    assert sorted(kept) == [("compact_x2", "0"), ("compact_x2", "1"), ("compact_x2", "2")] + (
        [("random_x5", "0")] if stack == 1 else []
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_experiment_output_matches_the_pinned_checksums(tmp_path, workers):
    out = tmp_path / f"pin{workers}"
    argv = f"experiment --replicates 10 --seed 0 --workers {workers} --out {out}"
    assert main(argv.split()) == 0
    for name, prefix in (
        ("results_long.csv", "d3f803faeefd5d7c"),
        ("summary.csv", "38ee305e3b9320c8"),
    ):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest()[:16] == prefix


def test_import_loads_no_fft_and_no_thread_pool():
    # what a fresh interpreter loads to import the package and build the
    # parser: no FFT until a tally needs one (BandGeometry._stage_one), and
    # no pool of threads or processes
    code = (
        "import sys, spatent, spatent.cli; spatent.cli.build_parser(); "
        "print(sorted(m for m in sys.modules"
        " if m.startswith(('numpy.fft', 'concurrent.futures', 'multiprocessing'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


def test_experiment_summary_groups_keys_by_value_count(tmp_path, monkeypatch):
    # keys with 0, 5 and some other count of non-NaN values over 5 replicates;
    # three decimals survive the 12-digit CSV round trip exactly
    drawn = iter(np.random.default_rng(5).random(1000).round(3))

    def fake_rows(grid):
        rep = next(drawn)
        return [next(drawn), next(drawn) if rep < 0.6 else math.nan, math.nan, next(drawn)]

    def fake_stack(grids, tallies, selected, plan):
        keys = [("a", ""), ("b", "w1"), ("c", ""), ("d", "")]
        return keys, np.array([fake_rows(g) for g in grids]), [None] * len(grids)

    monkeypatch.setattr(cli, "_measure_stack", fake_stack)
    out = tmp_path / "grouped"
    argv = "--scenarios random:2,compact:2 --rows 6 --cols 6 --replicates 5 --skip-uniform"
    assert main(["experiment", *argv.split(), "--measures", "shannon_x", "--out", str(out)]) == 0
    values: dict = {}
    for line in (out / "results_long.csv").read_text().splitlines()[1:]:
        label, _, _, m, band, v = line.split(",")
        values.setdefault((label, m, band), []).append(float(v))
    lines = (out / "summary.csv").read_text().splitlines()[1:]
    assert [tuple(line.split(",")[:3]) for line in lines] == list(values)
    sizes = set()
    for line, (key, vals) in zip(lines, values.items()):
        arr = np.array(vals)
        arr = arr[~np.isnan(arr)]
        sizes.add(arr.size)
        want = np.quantile(arr, (0.0, 0.25, 0.5, 0.75, 1.0)) if arr.size else [math.nan] * 5
        assert line.split(",")[3:] == [cli._fmt(v) for v in want] + ["nan"]
    assert {0, 5} < sizes and len(sizes) > 2


@pytest.mark.parametrize(
    "measures,recorded",
    [("oneill", None), ("oneill,batty", None), ("decomposition", [0.0, 1.0, 9.0]),
     ("shannon_z", [0.0, 1.0, 9.0])],
)
def test_experiment_plan_records_bands_only_when_tallied(tmp_path, measures, recorded):
    out = tmp_path / "plan"
    argv = "--bands 0,1,9 --rows 6 --cols 6 --scenarios random:2 --replicates 1 --areas 4"
    assert main(["experiment", *argv.split(), "--measures", measures, "--out", str(out)]) == 0
    assert json.loads((out / "plan.json").read_text())["bands"] == recorded


@pytest.mark.parametrize(
    "scenarios,measures,recorded",
    [
        ("random:2", "oneill", (None, None)),
        ("random:2", "oneill,leibovici", (3.0, None)),
        ("random:2", "batty,karlstrom", (None, [0.0, 1.5])),
        # the neighbourhoods are built for the smoothed index only
        ("random:2", "batty", (None, None)),
        # the smoothed index runs on two-category scenarios only
        ("random:3", "leibovici,karlstrom", (3.0, None)),
        ("random:2,random:3", "leibovici,karlstrom", (3.0, [0.0, 1.5])),
    ],
)
def test_experiment_plan_records_distances_only_where_used(tmp_path, scenarios, measures, recorded):
    out = tmp_path / "plan"
    argv = (
        "--rows 6 --cols 6 --replicates 1 --areas 4 --leibovici-distance 3"
        " --karlstrom-distances 0,1.5"
    )
    argv = [*argv.split(), "--scenarios", scenarios, "--measures", measures, "--out", str(out)]
    assert main(["experiment", *argv]) == 0
    plan = json.loads((out / "plan.json").read_text())
    assert (plan["leibovici_distance"], plan["karlstrom_distances"]) == recorded


def _argv_from_plan(plan):
    """The ``experiment`` arguments that ``plan.json`` records, read from it alone."""
    argv = [
        "--scenarios", ",".join(f"{e['kind']}:{e['categories']}" for e in plan["scenarios"]),
        "--replicates", str(plan["replicates"]),
        "--rows", str(plan["rows"]),
        "--cols", str(plan["cols"]),
        "--seed", str(plan["master_seed"]),
        "--measures", ",".join(plan["measures"]),
    ]
    for key in ("bands", "leibovici_distance", "areas", "karlstrom_distances"):
        value = plan[key]
        if value is not None:
            items = value if isinstance(value, list) else [value]
            argv += ["--" + key.replace("_", "-"), ",".join(map(str, items))]
    return argv + ([] if plan["uniform_case"] else ["--skip-uniform"])


REPLAYED = pytest.mark.parametrize(
    "args",
    [
        *EXPERIMENTS,
        "--rows 6 --cols 6 --areas 4 --scenarios random:2,random:5 --measures batty"
        " --replicates 1",
    ],
    ids=["golden-0", "golden-1", "equal-split"],
)


@REPLAYED
def test_plan_json_holds_every_input(tmp_path, args):
    # a run from the arguments plan.json records writes the same four files
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(["experiment", *args.split(), "--out", str(first)]) == 0
    plan = json.loads((first / "plan.json").read_text())
    assert main(["experiment", *_argv_from_plan(plan), "--out", str(again)]) == 0
    for name in ("results_long.csv", "summary.csv", "plan.json", "partition.txt"):
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


def _experiment_plan(argv):
    return ExperimentPlan.from_args(build_parser().parse_args(["experiment", *argv, "--out", "x"]))


@REPLAYED
def test_plan_json_replays_from_python(tmp_path, monkeypatch, args):
    # the files a finished run leaves are all a later check needs: the
    # partition file holds the plan's partition, the plan read back from
    # plan.json runs the same four files, and each replicate's rows
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(["experiment", *args.split(), "--out", str(first)]) == 0
    plan = ExperimentPlan.from_json((first / "plan.json").read_text())
    assert plan == _experiment_plan(args.split())
    partition = read_partition(first / "partition.txt", plan.rows, plan.cols)
    assert partition.num_areas == plan.shared.partition.num_areas == plan.areas
    np.testing.assert_array_equal(partition.assignment, plan.shared.partition.assignment)
    # the command reads nothing of its arguments but --out once the plan is built
    monkeypatch.setattr(ExperimentPlan, "from_args", staticmethod(lambda args: plan))
    assert main(["experiment", "--out", str(again)]) == 0
    for name in ("results_long.csv", "summary.csv", "plan.json", "partition.txt"):
        assert (again / name).read_bytes() == (first / name).read_bytes(), name
    lines = (first / "results_long.csv").read_text().splitlines()[1:]
    for index, ((kind, cats), selected) in enumerate(zip(plan.scenarios, plan.selections)):
        for rep in range(plan.replicates + (not plan.skip_uniform)) if selected else ():
            head = f"{kind}_x{cats},{rep},{int(rep == plan.replicates)},"
            grid, rows = plan.run_entry(index, rep)
            assert (grid.rows, grid.cols, grid.num_categories) == (plan.rows, plan.cols, cats)
            want = [line[len(head):] for line in lines if line.startswith(head)]
            assert want
            assert [f"{m},{band},{cli._fmt(v)}" for m, band, v in rows] == want


@REPLAYED
def test_summary_is_the_summary_of_every_replicate_rerun(tmp_path, monkeypatch, args):
    # summary.csv is _summary_csv of the values that run_entry gives for
    # every replicate of the plan read back from plan.json, with one
    # quantile call per count of non-NaN values
    out = tmp_path / "run"
    assert main(["experiment", *args.split(), "--out", str(out)]) == 0
    plan = ExperimentPlan.from_json((out / "plan.json").read_text())
    ensemble: dict = {}
    uniform: dict = {}
    for index, ((kind, cats), selected) in enumerate(zip(plan.scenarios, plan.selections)):
        for rep in range(plan.replicates + (not plan.skip_uniform)) if selected else ():
            for m, band, value in plan.run_entry(index, rep)[1]:
                key = (f"{kind}_x{cats}", m, band)
                if rep == plan.replicates:
                    uniform[key] = value
                else:
                    ensemble.setdefault(key, []).append(value)
    sizes = {int(np.count_nonzero(~np.isnan(v))) for v in ensemble.values()} - {0}
    calls, real = [], np.quantile
    monkeypatch.setattr(np, "quantile", lambda *a, **k: calls.append(a[0].shape) or real(*a, **k))
    assert cli._summary_csv(ensemble, uniform) == (out / "summary.csv").read_text()
    assert sorted(shape[1] for shape in calls) == sorted(sizes)


@st.composite
def experiment_argv(draw):
    """``experiment`` arguments over small grids, most of which make a plan."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    entries = draw(st.lists(
        st.sampled_from(["random:2", "compact:2", "repulsive:2", "multicluster:2", "random:3",
                         "compact:5", "random:20"]),
        min_size=1, max_size=4, unique=True,
    ))
    measures = draw(st.lists(st.sampled_from(cli.MEASURES), min_size=1, unique=True))
    argv = [
        "--rows", str(rows), "--cols", str(cols),
        "--scenarios", ",".join(entries), "--measures", ",".join(measures),
        "--replicates", str(draw(st.integers(1, 5))), "--seed", str(draw(st.integers(0, 2**40))),
    ]
    if draw(st.booleans()):
        diagonal = math.hypot(rows, cols)
        inner = draw(st.lists(st.floats(0.0, diagonal, exclude_min=True), max_size=3, unique=True))
        top = draw(st.floats(diagonal, 2 * diagonal))
        argv += ["--bands", ",".join(map(str, [0.0, *sorted(set(inner) - {top}), top]))]
    if draw(st.booleans()):
        argv += ["--leibovici-distance", str(draw(st.floats(1.0, 30.0)))]
    if draw(st.booleans()):
        argv += ["--areas", str(draw(st.sampled_from([1, 4, 9])))]
    if draw(st.booleans()):
        distances = draw(st.lists(st.integers(0, 40), min_size=1, max_size=4, unique=True))
        argv += ["--karlstrom-distances", ",".join(str(d / 4) for d in distances)]
    return argv + (["--skip-uniform"] if draw(st.booleans()) else [])


@settings(max_examples=80)
@given(experiment_argv())
def test_a_plan_is_the_plan_its_json_reads_back(argv):
    try:
        plan = _experiment_plan(argv)
    except ValueError:
        reject()
    text = plan.to_json()
    again = ExperimentPlan.from_json(text)
    assert again == plan
    assert again.to_json() == text
    # each number is recorded only where a selected measure uses it
    used = set().union(*plan.selections)
    assert (plan.bands is None) == (not {"shannon_z", "decomposition"} & used)
    assert (plan.leibovici_distance is None) == ("leibovici" not in used)
    assert (plan.areas is None) == (not {"batty", "karlstrom"} & used)
    assert (plan.areas is None) == (plan.shared.partition is None)
    assert (plan.karlstrom_distances is None) == ("karlstrom" not in used)


EDITED_ARGV = (
    "--scenarios random:2 --rows 10 --cols 10 --replicates 1 --areas 4"
    " --measures decomposition,batty"
).split()


@pytest.mark.parametrize(
    "key,value,flags",
    [
        ("scenarios", [{"kind": "random", "categories": 2}] * 2, "--scenarios random:2,random:2"),
        ("areas", 50, "--areas 50"),
        ("bands", [0.0, 1.0, 2.0], "--bands 0,1,2"),
    ],
    ids=["duplicate-entry", "areas-not-square", "uncovered-bands"],
)
def test_an_edited_plan_json_is_refused_as_experiment_refuses_it(
    tmp_path, caplog, key, value, flags
):
    assert main(["experiment", *EDITED_ARGV, "--out", str(tmp_path / "ok")]) == 0
    doc = json.loads((tmp_path / "ok" / "plan.json").read_text())
    with pytest.raises(ValueError) as refused:
        ExperimentPlan.from_json(json.dumps({**doc, key: value}))
    argv = ["experiment", *EDITED_ARGV, *flags.split(), "--out", str(tmp_path / "bad")]
    with caplog.at_level(logging.ERROR, logger="spatent"):
        assert main(argv) == 2
    assert [r.getMessage() for r in caplog.records] == [f"error: {refused.value}"]


def test_plan_json_is_read_back_only_as_its_plan_writes_it():
    text = _experiment_plan(EDITED_ARGV).to_json()
    doc = json.loads(text)
    for edit, message in [
        ({"version": "0.0.1"}, "^plan.json holds a plan of spatent 0.0.1, not "),
        # a number no selected measure uses, or none where one is used
        ({"leibovici_distance": 3.0}, "^plan.json differs from the plan it describes in leib"),
        ({"areas": None}, "^plan.json differs from the plan it describes in areas$"),
        ({"measures": ["decomposition", "batty"]}, "in measures$"),  # not in canonical order
        ({"extra": 1}, "in extra$"),
        # a value the parser refuses, with the parser's reason
        ({"rows": 0}, "^plan.json rows: expected a positive integer, got '0'$"),
        ({"rows": True}, "^plan.json rows: expected a positive integer, got 'True'$"),
        ({"measures": ["nonsense"]}, "^plan.json measures: unknown measures"),
        ({"scenarios": [{"kind": "random", "categories": 2, "x": 1}]}, "^plan.json scenarios: "),
    ]:
        with pytest.raises(ValueError, match=message):
            ExperimentPlan.from_json(json.dumps({**doc, **edit}))
    for missing in ("replicates", "uniform_case", "master_seed"):
        with pytest.raises(ValueError, match=f"in {missing}$"):
            ExperimentPlan.from_json(json.dumps({k: v for k, v in doc.items() if k != missing}))
    for other in ("[]", "{}"):
        with pytest.raises(ValueError, match="^plan.json holds a plan of spatent None, not "):
            ExperimentPlan.from_json(other)
    # JSON formatting is not part of the plan
    assert ExperimentPlan.from_json(json.dumps(doc)) == ExperimentPlan.from_json(text)
