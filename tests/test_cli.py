"""End-to-end command line coverage on tiny inputs."""

import argparse
import dataclasses
import hashlib
import json
import logging
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    relative_contagion,
    shannon,
    write_grid,
)
from spatent import ConsistencyError, cli, cooccur, decomp
from spatent.cli import main
from spatent.decomp import decompose_counts

SRC = Path(__file__).resolve().parents[1] / "src"


def _write(tmp_path, name, rows, cols, cats, values):
    path = tmp_path / name
    write_grid(CategoricalGrid(rows, cols, cats, np.asarray(values, dtype=np.int64)), path)
    return path


def _chessboard_path(tmp_path, n=10):
    vals = ((np.add.outer(np.arange(n), np.arange(n)) % 2) + 1).ravel()
    return _write(tmp_path, "chess.grid", n, n, 2, vals)


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
    """``_measure_rows`` of a grid, over its ``_pair_bands`` plan."""
    plan = cli._pair_bands(grid, measures, bands, leibovici_distance)
    return cli._measure_rows(grid, measures, plan, **kwargs)


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
    # no pair measure: no tally; the given bands only for the decomposition
    assert cli._pair_bands(grid, measures, given, 3.5) == want
    assert cli._pair_bands(grid, measures, None, 3.5) == (want and (default, (1.0, d)))
    if "leibovici" in measures:
        # the band label reads the plan's distance, a float for any number given
        _, (_, given_int) = cli._pair_bands(grid, measures, None, 3)
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
        cli._pair_bands(grid, ("leibovici",), None, 0.5)
    with pytest.raises(ValueError, match="contagion needs at least two categories"):
        _rows(CategoricalGrid(4, 4, 1, np.ones(16)), ("rc",))


def test_every_pair_path_makes_one_ordered_tally(monkeypatch):
    schemes = []

    def recording(grid, classification, scheme, *, geometry=None):
        schemes.append(scheme)
        return enumerate_pairs(grid, classification, scheme, geometry=geometry)

    monkeypatch.setattr(cooccur, "enumerate_pairs", recording)
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
        schemes.clear()
        path()
        assert schemes == [CooccurrenceScheme(3, ordered=True)], name


def test_measure_prints_no_negative_zero(tmp_path, capsys):
    path = _write(tmp_path, "one.grid", 4, 4, 1, np.ones(16))
    argv = ["measure", str(path), "--areas", "1", "--measures", "oneill,parresol,karlstrom"]
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows == [f"karlstrom,d{d},0" for d in (0, 2, 5, 10)] + ["oneill,,0", "parresol,,0"]


def test_measure_rows_tally_once_and_only_for_pair_measures(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return enumerate_pairs(*args, **kwargs)

    monkeypatch.setattr(cooccur, "enumerate_pairs", counting)
    grid = CategoricalGrid(6, 6, 2, (np.arange(36) % 2) + 1)
    _rows(grid, ("shannon_x",))
    assert calls == []
    _rows(grid, cli.MEASURES[:2] + cli.MEASURES[4:], leibovici_distance=3.5)
    # the default bands, split further at the Leibovici distance
    assert [c.breaks for c in calls] == [(0.0, 1.0, 2.0, 3.5, 5.0, math.hypot(6, 6))]


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

    def swapped(grid, classification, scheme, *, geometry=None):
        sample = enumerate_pairs(grid, classification, scheme, geometry=geometry)
        counts = sample.category_counts.copy()
        if scheme.ordered:  # swap (1, 2) and (2, 1) in the first band
            counts[0, [1, 2]] = counts[0, [2, 1]]
        return dataclasses.replace(sample, category_counts=counts)

    monkeypatch.setattr(cooccur, "enumerate_pairs", swapped)
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    # the folded decomposition cannot see the swap; the oracle can
    assert [line.split()[2] for line in out.splitlines() if line.startswith("FAIL")] == [
        "bruteforce-oracle"
    ]


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


def test_json_files_never_hold_a_non_json_token(tmp_path):
    # Infinity and NaN are no JSON; strict parsers reject them
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._write_json({"karlstrom_distances": [0.0, value]}, tmp_path / "plan.json")
    assert not (tmp_path / "plan.json").exists()


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
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2, argv


def test_argument_types_name_what_they_reject(capsys):
    # an empty plan entry is skipped, and a plan of nothing but commas is refused
    assert cli._plan_arg("random:2,,compact:5,") == (("random", 2), ("compact", 5))
    with pytest.raises(argparse.ArgumentTypeError, match="^empty scenario plan$"):
        cli._plan_arg(",")
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


def test_experiment_tallies_each_grid_once(tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return enumerate_pairs(*args, **kwargs)

    monkeypatch.setattr(cooccur, "enumerate_pairs", counting)
    out = _run_experiment(tmp_path, "once", 1)
    # two scenarios, two replicates each plus the flagged equal-split one
    assert len(calls) == 6
    assert len({id(grid) for grid in calls}) == 6
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
    ],
    ids=[
        "multicluster-too-small",
        "uncovered-bands",
        "no-equal-split",
        "areas-not-square",
        "more-areas-than-pixels",
        "one-pixel",
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


def test_experiment_checks_bands_only_for_the_decomposition(tmp_path):
    # the contiguity indices tally the grid's default bands, not --bands
    out = tmp_path / "oneill"
    argv = "--bands 0,1,2 --rows 6 --cols 6 --scenarios random:2 --measures oneill --replicates 1"
    assert main(["experiment", *argv.split(), "--out", str(out)]) == 0
    rows = (out / "results_long.csv").read_text().splitlines()
    assert [r.split(",")[3] for r in rows[1:]] == ["oneill", "oneill"]


def test_experiment_shares_one_geometry_across_replicates(tmp_path, monkeypatch):
    seen = []

    def recording(grid, classification, scheme, *, geometry=None):
        seen.append((classification, geometry))
        return enumerate_pairs(grid, classification, scheme, geometry=geometry)

    monkeypatch.setattr(cooccur, "enumerate_pairs", recording)
    out = tmp_path / "shared"
    argv = EXP_ARGS.format(workers=1, out=out) + " --leibovici-distance 3.5"
    assert main(argv.split()) == 0
    assert len(seen) == 6
    geometry = seen[0][1]
    assert all(g is geometry for _, g in seen)
    # the default bands of a 10x10 grid, split further at the Leibovici distance
    assert geometry.classification.breaks == (0.0, 1.0, 2.0, 3.5, 5.0, 10.0, math.hypot(10, 10))
    assert all(cls == geometry.classification for cls, _ in seen)


def test_experiment_finishes_the_band_spectra_once(tmp_path, monkeypatch):
    geometries, finished = set(), []

    def recording(grid, classification, scheme, *, geometry=None):
        geometries.add(geometry)
        return enumerate_pairs(grid, classification, scheme, geometry=geometry)

    def counting(block, p1):
        finished.append(block)
        return finish_band(block, p1)

    finish_band = cooccur._finish_band
    monkeypatch.setattr(cooccur, "enumerate_pairs", recording)
    monkeypatch.setattr(cooccur, "_finish_band", counting)
    assert main(EXP_ARGS.format(workers=1, out=tmp_path / "finished").split()) == 0
    (geometry,) = geometries
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
    code = (
        "import sys, spatent, spatent.cli; "
        "print(sorted(m for m in sys.modules"
        " if m.startswith(('numpy.fft', 'concurrent.futures'))))"
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

    def fake_rows(grid, selected, pair_bands, **kwargs):
        rep = next(drawn)
        return [
            ("a", "", next(drawn)),
            ("b", "w1", next(drawn) if rep < 0.6 else math.nan),
            ("c", "", math.nan),
            ("d", "", next(drawn)),
        ]

    monkeypatch.setattr(cli, "_measure_rows", fake_rows)
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
