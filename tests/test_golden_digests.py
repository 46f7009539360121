"""The bytes every command writes, pinned by digest.

Output is the contract: a refactor must keep every byte that ``spatent``
prints or writes.  This module builds a fixed corpus of grid files in a
temporary directory, runs each command on it through ``cli.main`` in this
process, and compares every run with ``golden_digests.json``:

- the exit code;
- the sha256 prefix (16 hex digits) of stdout and of every file written;
- the ``spatent`` log lines (what a real process prints on stderr), as
  ``LEVEL message``.

The temporary directory is replaced by ``<tmp>`` in stdout and in the log,
so paths never reach a digest.  The test reads bytes only: it stays
independent of the tally, of the decomposition and of ``tests/oracles.py``.

The corpus:

- every shape of 1x2, 1x7, 7x1, 1x60, 60x1, 5x7, 8x8, 12x17, 37x29 and
  50x50 with 1, 2, 5 and 20 declared categories, values drawn uniformly;
- at 5 categories, on 1x7, 8x8, 12x17 and 50x50, one grid with the
  highest code absent, one with the lowest code absent and one whose last
  category holds a single pixel;
- one 200x200 grid with 2 categories;
- the grids of four ``generate`` runs, one per scenario kind.

The corpus values come from Python's ``random`` seeded by the grid's name
and are written by this module, so no package code builds them.  The runs:
``decompose`` as JSON and CSV, unordered and ordered, with the default
bands and with ``--bands 0,1.5,3,200000``; ``measure`` with the defaults,
with ``--ordered --areas 4 --partition-seed 3`` and with the contiguity
indices only; the ``--out`` file of both; ``verify`` over the whole
corpus; the input errors that exit 2 with one log line; two small
``experiment`` plans (all four output files and stdout); and the four
``generate`` runs (their grids and ``manifest.json``).

The digests hold for this platform's numpy (FFT, RNG streams, quantiles)
and libm (``log``, ``sqrt``), like the checksum pins in ``test_cli.py``.
There is no switch that rewrites the table.  A digest may change only in a
change that says which one moved and why; copy the new value from the
failure message by hand.
"""

import hashlib
import json
import logging
import random
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from spatent.cli import main

TABLE = Path(__file__).with_name("golden_digests.json")

SHAPES = ((1, 2), (1, 7), (7, 1), (1, 60), (60, 1), (5, 7), (8, 8), (12, 17), (37, 29), (50, 50))
CATEGORIES = (1, 2, 5, 20)
VARIANT_SHAPES = ((1, 7), (8, 8), (12, 17), (50, 50))
CUSTOM_BANDS = "0,1.5,3,200000"
GENERATE = (
    "--scenario compact --rows 20 --cols 20 --categories 5 --seed 4",
    "--scenario repulsive --rows 20 --cols 20 --uniform-pmf --seed 5",
    "--scenario multicluster --rows 20 --cols 20 --replicates 2 --seed 6",
    "--scenario random --rows 20 --cols 20 --categories 20 --seed 7",
)
EXPERIMENTS = (
    "--scenarios compact:2,random:5 --rows 10 --cols 10 --replicates 2 --seed 3"
    " --areas 4 --bands 0,1,3,15",
    "--scenarios repulsive:2,multicluster:2,random:20 --rows 20 --cols 20 --replicates 3"
    " --seed 5 --measures shannon_x,oneill,leibovici,batty,karlstrom"
    " --leibovici-distance 3 --karlstrom-distances 0,1.5 --areas 16 --skip-uniform",
)
# the cases of test_cli.py::test_input_errors_exit_2_in_one_line
ERRORS = (
    "measure {missing}",
    "decompose {missing}",
    "decompose {g7} --bands 0,1,2",
    "measure {g7}",
    "measure {g7} --areas 1 --target-category 3",
    "generate --scenario multicluster --rows 4 --out {out}",
    "generate --scenario random --categories 3 --rows 2 --cols 2 --uniform-pmf --out {out}",
    "experiment --rows 6 --cols 6 --skip-uniform --out {out}",
    "experiment --rows 7 --cols 7 --out {out}",
    "experiment --scenarios compact:2,random:5,compact:02 --out {out}",
    "experiment --karlstrom-distances 0,2,2.0 --out {out}",
    "measure {g7} --areas 1 --karlstrom-distances 1,5,1e0",
)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _write_corpus_grid(path, rows, cols, cats, values):
    lines = [f"{rows} {cols} {cats}"]
    lines += [" ".join(map(str, values[r * cols:(r + 1) * cols])) for r in range(rows)]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _corpus(root):
    """Write the hand-built grids under ``root``; their paths in order."""
    paths = []

    def add(name, rows, cols, cats, codes, last=None):
        rng = random.Random(name)
        values = [rng.choice(codes) for _ in range(rows * cols)]
        if last is not None:
            values[len(values) // 2] = last
        path = root / f"{name}.grid"
        _write_corpus_grid(path, rows, cols, cats, values)
        paths.append(path)

    for rows, cols in SHAPES:
        for cats in CATEGORIES:
            add(f"r{rows}x{cols}_i{cats}", rows, cols, cats, range(1, cats + 1))
    for rows, cols in VARIANT_SHAPES:
        add(f"r{rows}x{cols}_i5_nohigh", rows, cols, 5, range(1, 5))
        add(f"r{rows}x{cols}_i5_nolow", rows, cols, 5, range(2, 6))
        add(f"r{rows}x{cols}_i5_onelast", rows, cols, 5, range(1, 5), last=5)
    add("r200x200_i2", 200, 200, 2, (1, 2))
    return paths


class _Lines(logging.Handler):
    def __init__(self):
        super().__init__()
        self.lines = []

    def emit(self, record):
        line = f"{record.levelname} {record.getMessage()}"
        self.lines.append(line + (" [traceback]" if record.exc_info else ""))


def golden_runs(tmp_path) -> dict:
    """Run every command of the corpus; the record of each run by its name."""
    tmp = str(tmp_path)
    runs = {}
    handler = _Lines()
    logger = logging.getLogger("spatent")

    def run(name, argv, files=()):
        handler.lines.clear()
        out = StringIO()
        with redirect_stdout(out):
            code = main(argv)
        record = {"exit": code, "stdout": _digest(out.getvalue().replace(tmp, "<tmp>").encode())}
        if handler.lines:
            record["log"] = [line.replace(tmp, "<tmp>") for line in handler.lines]
        if files:
            record["files"] = {
                str(f.relative_to(tmp_path)): _digest(f.read_bytes()) if f.exists() else None
                for f in files
            }
        assert name not in runs, name
        runs[name] = record

    logger.addHandler(handler)
    try:
        grids = tmp_path / "grids"
        grids.mkdir()
        scenario_grids = []
        for i, args in enumerate(GENERATE):
            out = tmp_path / f"gen{i}"
            run(f"generate {args}", ["generate", *args.split(), "--out", str(out)])
            manifest = out / "manifest.json"
            written = sorted(out.glob("*.grid"))
            runs[f"generate {args}"]["files"] = {
                str(f.relative_to(tmp_path)): _digest(f.read_bytes())
                for f in [*written, manifest]
            }
            scenario_grids += [f.rename(grids / f.name) for f in written]
        corpus = _corpus(grids) + scenario_grids

        for path in corpus:
            g = path.stem
            for fmt in ("json", "csv"):
                for order in ((), ("--ordered",)):
                    for bands in ((), ("--bands", CUSTOM_BANDS)):
                        argv = ["decompose", str(path), "--format", fmt, *order, *bands]
                        run(" ".join(["decompose", g, *argv[2:]]), argv)
            for flags in (
                (),
                ("--ordered", "--areas", "4", "--partition-seed", "3"),
                ("--measures", "oneill,leibovici,rc,parresol"),
            ):
                run(" ".join(["measure", g, *flags]), ["measure", str(path), *flags])

        for i, path in enumerate(corpus[::17]):
            target = tmp_path / f"m{i}.csv"
            run(f"measure {path.stem} --out", ["measure", str(path), "--out", str(target)], [target])
            for fmt in ("json", "csv"):
                target = tmp_path / f"d{i}.{fmt}"
                argv = ["decompose", str(path), "--format", fmt, "--out", str(target)]
                run(f"decompose {path.stem} --format {fmt} --out", argv, [target])

        run("verify corpus", ["verify", *map(str, corpus)])

        g7 = tmp_path / "g7.grid"
        _write_corpus_grid(g7, 7, 7, 2, [i % 2 + 1 for i in range(49)])
        paths = {"missing": tmp_path / "missing.grid", "g7": g7, "out": tmp_path / "never"}
        for argv in ERRORS:
            run(f"error {argv}", argv.format(**paths).split(), [paths["out"]])

        for i, args in enumerate(EXPERIMENTS):
            out = tmp_path / f"exp{i}"
            names = ("results_long.csv", "summary.csv", "plan.json", "partition.txt")
            run(
                f"experiment {args}",
                ["experiment", *args.split(), "--out", str(out)],
                [out / name for name in names],
            )
    finally:
        logger.removeHandler(handler)
    return runs


def test_every_command_writes_its_pinned_bytes(tmp_path):
    table = json.loads(TABLE.read_text(encoding="ascii"))
    runs = golden_runs(tmp_path)
    moved = {
        name: {"pinned": table.get(name), "now": runs.get(name)}
        for name in sorted(table.keys() | runs.keys())
        if table.get(name) != runs.get(name)
    }
    assert not moved, json.dumps(moved, indent=1)
