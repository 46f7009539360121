"""Command line interface: generation, measurement, experiments, verification.

Subcommands
-----------
generate    write replicate grids of one scenario plus a manifest
measure     compute selected measures on one grid file (CSV output)
decompose   distance-band entropy decomposition of one grid (JSON or CSV)
experiment  scenario ensemble -> long CSV plus quantile summary CSV
verify      run the internal identity suite on one or more grid files

Experiment output is deterministic for a given plan and master seed: every
replicate derives its own RNG stream from its index.  ``plan.json`` is
written before the first replicate.  Each entry's replicates run in plan
order, in stacks of at most ``_STACK`` replicates and ``_STACK_CODES`` pair
codes: every replicate of a stack is drawn, the drawn ones are tallied in
one call over the plan's shared geometry, the stack is measured at once,
and its rows are written, in replicate order, as soon as it is measured.
A ``ValueError`` or ``OSError``
caused by the input is reported as one ``error: <message>`` line with exit
code 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .classic import (
    CONTIGUITY_INDICES,
    _area_probs,
    _batty,
    _index_of_entropy,
    _karlstrom,
    build_area_neighbourhood,
    checked_leibovici_distance,
)
from .cooccur import (
    BandGeometry,
    CooccurrenceScheme,
    DistanceClassification,
    enumerate_pairs_bruteforce,
    pairs_within,
    pairs_within_stack,
)
from .decomp import _band_counts, _decompose_stack, decompose, decompose_within
from .errors import ConsistencyError
from .lattice import (
    UNIFORM_PARTITION,
    AreaPartition,
    CategoricalGrid,
    _fmt,
    _json_text,
    partition_window,
    read_grid,
    write_grid,
    write_partition,
)
from .prob import _plogp
from .simgen import SCENARIOS, ScenarioSpec, check_categories, generate, replicate_seed

log = logging.getLogger("spatent")

MEASURES = (
    "shannon_x",
    "shannon_z",
    "batty",
    "karlstrom",
    "oneill",
    "leibovici",
    "rc",
    "parresol",
    "decomposition",
)

# the eight-scenario comparative design: all four patterns with 2 categories,
# compact and random additionally with 5 and 20
DEFAULT_DESIGN = (
    "compact:2,repulsive:2,multicluster:2,random:2,"
    "compact:5,random:5,compact:20,random:20"
)

DEFAULT_KARLSTROM_DISTANCES = "0,2,5,10"

# the most replicates of one entry that `experiment` measures as one stack, for
# the stack's grids and tables are held until it is measured: on the full-scale
# design 32 runs as fast as 64 and 128 in 1.5 and 5.4 MB less RSS, and 16 ~17%
# slower; and the most ordered pair codes (I^2 per grid) a stack's tables hold:
# beyond them a stacked decomposition is no faster, and its arrays outgrow the
# tally's own
_STACK = 32
_STACK_CODES = 2**12

# the area-based indices: they read the partition, and `experiment` runs them
# on two-category scenarios only
_AREA = frozenset({"batty", "karlstrom"})

# each number of a plan and the measures that read it: a plan reads, and
# plan.json records, a number only when one of them is selected
_READERS = {
    "bands": frozenset({"shannon_z", "decomposition"}),
    "leibovici_distance": frozenset({"leibovici"}),
    "areas": _AREA,
    "karlstrom_distances": frozenset({"karlstrom"}),
}

# ---------------------------------------------------------------------------
# argument parsing helpers (argparse type= callbacks)

def _breaks_arg(text: str) -> DistanceClassification:
    try:
        return DistanceClassification(tuple(float(t) for t in text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _measures_arg(text: str) -> tuple:
    if text.strip() == "all":
        return MEASURES
    requested = {t.strip() for t in text.split(",") if t.strip()}
    if not requested:
        raise argparse.ArgumentTypeError("empty measure list")
    unknown = requested.difference(MEASURES)
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown measures {sorted(unknown)}; choose from {', '.join(MEASURES)}"
        )
    return tuple(m for m in MEASURES if m in requested)


def _plan_arg(text: str) -> tuple:
    """Comma list of kind:categories entries, e.g. 'compact:2,random:5'."""
    plan = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        kind, sep, cats = item.partition(":")
        try:
            if not sep or kind not in SCENARIOS:
                raise ValueError(f"expected kind:categories with kind in {SCENARIOS}")
            if not _digits(cats):
                raise ValueError(f"category count {cats!r} is not ASCII digits")
            check_categories(kind, int(cats))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad plan entry {item!r}: {exc}")
        plan.append((kind, int(cats)))
    if not plan:
        raise argparse.ArgumentTypeError("empty scenario plan")
    return tuple(plan)


def _distances_arg(text: str) -> tuple:
    try:
        out = tuple(float(t) for t in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if not out or not all(0 <= d < math.inf for d in out):
        raise argparse.ArgumentTypeError("distances must be finite non-negative numbers")
    return out


def _leibovici_distance_arg(text: str) -> float:
    try:
        return checked_leibovici_distance(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _digits(text: str) -> bool:
    """Whether ``text`` is ASCII digits and nothing else, as a number in a grid file."""
    return text.isascii() and text.isdecimal()


def _positive_int_arg(text: str) -> int:
    if not _digits(text) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _non_negative_int_arg(text: str) -> int:
    if not _digits(text):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _partition_seed_arg(text: str):
    if text == UNIFORM_PARTITION:
        return UNIFORM_PARTITION
    if not _digits(text):
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer or '{UNIFORM_PARTITION}', got {text!r}"
        )
    return int(text)


# ---------------------------------------------------------------------------
# measurement core shared by `measure` and `experiment`

@dataclass(frozen=True)
class _Plan:
    """What ``_measure_stack`` reads of a run, built by ``_plan``.

    ``pair_bands`` is (bands, split distances (1, d)) or None,
    ``karlstrom`` the (label, neighbourhood) pairs of the smoothed index,
    and ``geometry`` the tally geometry that every replicate shares, or None.
    """

    pair_bands: tuple | None
    partition: AreaPartition | None
    karlstrom: tuple
    geometry: BandGeometry | None


def _plan(grid, measures, args, seed, shared=False) -> _Plan:
    """The plan of ``measures`` on grids of ``grid``'s shape, built and checked in this order.

    ``args`` is the parsed arguments of ``measure``, or an ``ExperimentPlan``,
    whose fields carry the same names; of its numbers, only those that
    ``_READERS`` gives a requested reader are read.  The pair bands are None
    when no pair measure is requested.  Else they are (decomposition bands,
    split distances): the decomposition or shannon_z uses ``args.bands``
    when given; any other request gets the grid's default bands.  The bands
    are split further at distance 1, the rook contiguity, and at d,
    ``args.leibovici_distance`` when ``leibovici`` is requested, else 1.
    With ``shared``, the plan holds the ``BandGeometry`` of the split bands,
    which every tally of that shape then shares.  The partition into
    ``args.areas`` areas, drawn from ``seed``, is built only for batty or
    karlstrom, else it is None; the neighbourhoods at
    ``args.karlstrom_distances``, labelled d<distance>, only for karlstrom,
    else there are none.
    """
    reads = {name: getattr(args, name) for name, readers in _READERS.items()
             if readers.intersection(measures)}
    pair_bands = geometry = partition = None
    karlstrom = ()
    if _READERS["bands"].union(CONTIGUITY_INDICES).intersection(measures):
        bands = reads.get("bands") or DistanceClassification.default_for(grid)
        d = checked_leibovici_distance(reads.get("leibovici_distance", 1.0))
        pair_bands = bands, (1.0, d)
        if shared:
            geometry = BandGeometry(grid.rows, grid.cols, bands.refined(pair_bands[1]))
    if "areas" in reads:
        partition = partition_window(grid, reads["areas"], seed)
    if "karlstrom_distances" in reads:
        labels = [f"d{d:g}" for d in reads["karlstrom_distances"]]
        for label in labels:
            if labels.count(label) > 1:
                raise ValueError(
                    f"--karlstrom-distances gives more than one distance the label {label}"
                )
        nbs = [build_area_neighbourhood(partition, d) for d in reads["karlstrom_distances"]]
        karlstrom = tuple(zip(labels, nbs))
    return _Plan(pair_bands, partition, karlstrom, geometry)


def _tallies(grids, plan) -> list:
    """Each grid's ``pairs_within`` table, or the exception it raises; None with no pair bands.

    A table is over the plan's bands, split further at its distances 1 and
    d.  One ``pairs_within_stack`` call tallies the same-shape grids,
    through the plan's shared geometry if it holds one; a grid failing its
    exactness checks gets its own ConsistencyError, and an error of the
    call itself is every grid's.
    """
    if plan.pair_bands is None:
        return [None] * len(grids)
    cls, distances = plan.pair_bands
    try:
        return pairs_within_stack(grids, cls, distances, geometry=plan.geometry)
    except Exception as exc:
        return [exc] * len(grids)


def _measure_rows(grid, measures, plan, *, ordered: bool = False, target_category: int = 1):
    """(measure, band, value) rows for one grid, in canonical measure order.

    ``plan`` is the ``_plan`` of ``measures`` on the grid's shape.  The rows
    are the stack of one of ``_measure_stack`` over the grid's ``_tallies``
    table, whose errors, its decomposition's included, are raised.
    """
    (tally,) = _tallies([grid], plan)
    if isinstance(tally, Exception):
        raise tally
    keys, values, failures = _measure_stack(
        [grid], [tally], measures, plan,
        ordered=ordered, target_category=target_category,
    )
    if failures[0] is not None:
        raise failures[0]
    return _keyed_rows(keys, values[0])


def _keyed_rows(keys, values) -> list:
    """The (measure, band, value) rows of one grid's ``_measure_stack`` keys and values."""
    return [(m, band, value) for (m, band), value in zip(keys, values.tolist())]


def _measure_stack(grids, tallies, measures, plan, *, ordered: bool = False,
                   target_category: int = 1) -> tuple:
    """The values of ``measures`` on a stack of grids of one shape and category count.

    Returns ``(keys, values, failures)``: the (measure, band) of each
    column, in canonical measure order; an (R, K) float array, one row per
    grid, each the values that grid alone gets; and per grid the
    ConsistencyError of its decomposition, or None.  ``tallies`` are the
    grids' ``_tallies`` tables, and ``plan`` is the ``_plan`` of ``measures``
    on their shape.  The stages run in order over the whole stack, each
    filling the columns of its measures: Shannon's entropy of the
    categories; per count of present categories, one stacked decomposition
    of the tables' bands (``decomp._decompose_stack``, folded unless
    ``ordered``) and the contiguity entropies, from the laws up to 1 and up
    to d; the area indices, Batty from the plan's partition and Karlstrom
    also from its labelled neighbourhoods.  Shannon's entropy of the
    categories and Batty's index are computed whenever their stage runs;
    the columns of ``measures`` alone are returned.

    Batty and Karlstrom are NaN for a grid where the target category is
    absent (the area probabilities are then undefined).
    """
    n = len(grids)
    # per code up to the largest present
    width = max(int(g.values.max()) for g in grids) + 1
    x_counts = np.array([np.bincount(g.values, minlength=width) for g in grids])
    # each measure's (row name, band, column) triples
    columns = {"shannon_x": [("shannon_x", "", _plogp(x_counts / grids[0].size))]}
    failures = [None] * n
    if plan.pair_bands is not None:
        cls, distances = plan.pair_bands
        decomposed = _READERS["bands"].intersection(measures)
        # one entropy per pair law: O'Neill, rc and Parresol-Edwards share the
        # rook law's, Leibovici takes the law up to d
        laws = {-1 if m == "leibovici" else -2 for m in CONTIGUITY_INDICES if m in measures}
        labels = cls.labels
        # the decomposition's terms, as _decompose_stack orders them
        whole, bands = np.empty((4, n)), np.empty((3, n, len(labels)))
        entropies = {k: np.empty(n) for k in laws}
        groups: dict = {}
        for i, (_, present) in enumerate(tallies):
            groups.setdefault(present.size, []).append(i)
        for ni, rows in groups.items():
            within = np.stack([tallies[i][0] for i in rows])
            if decomposed:
                dec = _decompose_stack(_band_counts(within[:, :-2], ni, ordered), labels)
                whole[:, rows] = np.transpose(dec.whole)
                bands[:, rows] = dec.bands
                for i, failure in zip(rows, dec.failures):
                    failures[i] = failure
            for k in laws:
                near = within[:, k]
                entropies[k][rows] = _plogp(near / near.sum(axis=-1, keepdims=True))
        if decomposed:
            marginal, residual_global, mi, mi_proportional = whole
            columns["shannon_z"] = [("shannon_z", "", marginal)]
            # each row is named after the term it reads
            columns["decomposition"] = [
                ("mutual_information", "", mi),
                ("residual_global", "", residual_global),
                ("mi_proportional", "", mi_proportional),
            ] + [(t, label, terms[:, j]) for j, label in enumerate(labels)
                 for t, terms in zip(("p_w", "residual_partial", "info_partial"), bands)]
        # rc divides by log I^2
        num_codes = int(grids[0].num_categories) ** 2
        for m in CONTIGUITY_INDICES:
            if m in measures:
                k = -1 if m == "leibovici" else -2
                value = _index_of_entropy(m, entropies[k], num_codes)
                columns[m] = [(m, f"d{distances[-1]:g}" if k == -1 else "", value)]
    if _AREA.intersection(measures):
        if not 1 <= target_category <= grids[0].num_categories:
            raise ValueError(f"target category {target_category} out of range")
        batty = np.full(n, math.nan)
        karlstrom = np.full((n, len(plan.karlstrom)), math.nan)
        if target_category < width:
            held = np.flatnonzero(x_counts[:, target_category])
            if held.size:
                masks = np.array([grids[i].values == target_category for i in held])
                probs = _area_probs(masks, plan.partition)
                # one support per stack, read by every index
                live = probs > 0.0
                p = probs[live]
                sizes = np.broadcast_to(plan.partition.sizes, probs.shape)[live]
                batty[held] = _batty(p, sizes, live)
                for j, (_, nb) in enumerate(plan.karlstrom):
                    # one product per grid, as one grid's probabilities are smoothed
                    smoothed = np.array([nb.weights @ row for row in probs])[live]
                    karlstrom[held, j] = _karlstrom(p, smoothed, live)
        columns["batty"] = [("batty", "", batty)]
        columns["karlstrom"] = [
            ("karlstrom", band, karlstrom[:, j]) for j, (band, _) in enumerate(plan.karlstrom)
        ]
    chosen = [row for m in MEASURES if m in measures for row in columns[m]]
    keys = [(name, band) for name, band, _ in chosen]
    return keys, np.column_stack([column for _, _, column in chosen]), failures


def _write_text(text: str, path) -> None:
    """Write ``text`` to the file ``path``, or to stdout when no path is given."""
    if path:
        Path(path).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)


def _row_lines(rows, head: str = "") -> str:
    """The CSV lines of (measure, band, value) rows, each line after ``head``."""
    return "".join(f"{head}{m},{band},{_fmt(value)}\n" for m, band, value in rows)


# ---------------------------------------------------------------------------
# the experiment plan: checked once, run, written to plan.json and read back

@dataclass(frozen=True)
class ExperimentPlan:
    """What ``experiment`` runs, exactly as ``plan.json`` records it, checked when made.

    The fields carry the names of the ``experiment`` arguments.  The checks
    run in this order, each raising ValueError: an entry listed twice; the
    equal split of each entry that selects a measure (area-based indices are
    defined on two categories only), unless skipped; each entry by simgen's
    rules; no entry selecting a measure.  Then the bands (the given ones or
    the window's default), the Leibovici distance, the areas and the
    Karlstrom distances are each kept only where ``_READERS`` names a
    selected measure as their reader, else None, and ``shared``, the
    ``_plan`` that every replicate reads, is built from the plan's own
    fields with ``_plan``'s checks.
    """

    scenarios: tuple
    replicates: int
    rows: int
    cols: int
    seed: int
    measures: tuple
    bands: DistanceClassification | None
    leibovici_distance: float | None
    areas: int | None
    karlstrom_distances: tuple | None
    skip_uniform: bool
    shared: _Plan = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for entry in self.scenarios:
            if self.scenarios.count(entry) > 1:
                raise ValueError(f"--scenarios lists {entry[0]}:{entry[1]} more than once")
        if not self.skip_uniform:
            pixels = self.rows * self.cols
            bad = [f"{k}:{c}" for (k, c), sel in zip(self.scenarios, self.selections)
                   if sel and pixels % c]
            if bad:
                raise ValueError(
                    f"the equal-split replicate needs the category count to divide "
                    f"{pixels} pixels; impossible for {','.join(bad)} (use --skip-uniform)"
                )
        for kind, cats in self.scenarios:
            ScenarioSpec(kind, self.rows, self.cols, cats)
        if not any(self.selections):
            raise ValueError(
                f"--measures {','.join(self.measures)} selects nothing on --scenarios "
                f"{','.join(f'{k}:{c}' for k, c in self.scenarios)}: batty and karlstrom are "
                f"defined on two-category scenarios only"
            )
        used = set().union(*self.selections)
        window = CategoricalGrid(self.rows, self.cols, 1, np.ones(self.rows * self.cols, np.int64))
        if self.bands is None:
            object.__setattr__(self, "bands", DistanceClassification.default_for(window))
        for name, measures in _READERS.items():
            if not measures & used:
                object.__setattr__(self, name, None)
        seed = np.random.SeedSequence((int(self.seed),), spawn_key=(1,))
        object.__setattr__(self, "shared", _plan(window, used, self, seed, shared=True))

    @functools.cached_property
    def selections(self) -> tuple:
        """Each entry's measures: batty and karlstrom run on two-category entries only."""
        return tuple(
            tuple(m for m in self.measures if cats == 2 or m not in _AREA)
            for _, cats in self.scenarios
        )

    @classmethod
    def from_args(cls, args) -> ExperimentPlan:
        """The plan of the parsed ``experiment`` arguments ``args``."""
        return cls(**{f.name: getattr(args, f.name) for f in fields(cls) if f.init})

    @classmethod
    def from_json(cls, text: str) -> ExperimentPlan:
        """The plan whose ``to_json()`` is ``text``, rebuilt through ``from_args``.

        Each value is read as ``experiment`` reads its option's text, a
        missing or null one as the option's default, so a value that
        ``experiment`` refuses is refused with its message.  Raises
        ValueError also for a ``version`` other than this package's, and
        for any key in which ``text`` and the rebuilt plan's ``to_json()``
        differ: an unknown key, a number that no selected measure uses, or
        none where one is used.
        """
        doc = json.loads(text)
        version = doc.get("version") if isinstance(doc, dict) else None
        if version != __version__:
            raise ValueError(f"plan.json holds a plan of spatent {version}, not {__version__}")
        args = build_parser().parse_args(["experiment", "--out", ""])  # every option's default
        args.skip_uniform = not doc.get("uniform_case", True)
        reads = dict.fromkeys(("replicates", "rows", "cols", "areas"), _positive_int_arg)
        reads.update(scenarios=_plan_arg, seed=_non_negative_int_arg, measures=_measures_arg,
                     bands=_breaks_arg, leibovici_distance=_leibovici_distance_arg,
                     karlstrom_distances=_distances_arg)
        for name, read in reads.items():
            key = "master_seed" if name == "seed" else name
            if doc.get(key) is not None:
                # a list as one comma list, a scenario {kind, categories} as kind:categories
                items = doc[key] if isinstance(doc[key], list) else [doc[key]]
                option = ",".join(":".join(map(str, v.values())) if isinstance(v, dict) else str(v)
                                  for v in items)
                try:
                    setattr(args, name, read(option))
                except argparse.ArgumentTypeError as exc:
                    raise ValueError(f"plan.json {key}: {exc}") from None
        plan = cls.from_args(args)
        written = json.loads(plan.to_json())
        moved = sorted(k for k in doc.keys() | written.keys() if doc.get(k) != written.get(k))
        if moved:
            raise ValueError(f"plan.json differs from the plan it describes in {', '.join(moved)}")
        return plan

    def to_json(self) -> str:
        """The ``plan.json`` text, as ``_json_text``."""
        doc = {
            "version": __version__,
            "scenarios": [{"kind": k, "categories": c} for k, c in self.scenarios],
            "replicates": self.replicates,
            "rows": self.rows,
            "cols": self.cols,
            "master_seed": self.seed,
            "measures": self.measures,
            "bands": None if self.bands is None else self.bands.breaks,
            "leibovici_distance": self.leibovici_distance,
            "areas": self.areas,
            "karlstrom_distances": self.karlstrom_distances,
            "uniform_case": not self.skip_uniform,
        }
        return _json_text(doc)

    def run_entry(self, index: int, rep: int) -> tuple:
        """Replicate ``rep`` of entry ``index``: its grid and the rows ``experiment`` writes.

        The stack of one of ``run_entries``, whose failure is raised.
        """
        (grid,), keys, values, (failure,) = self.run_entries(index, [rep])
        if failure is not None:
            raise failure
        return grid, _keyed_rows(keys, values[0])

    def run_entries(self, index: int, reps) -> tuple:
        """Replicates ``reps`` of entry ``index``, measured as one stack.

        Returns ``(grids, keys, values, failures)``, one item per replicate
        and one row of ``values`` per replicate, as ``_measure_stack`` gives
        them over ``shared`` for the entry's selection.  Replicate
        ``replicates`` is the idealized one, with the exact equal category
        split; each draws from its own ``replicate_seed``.  Every replicate
        is drawn first, then the drawn ones are tallied in one ``_tallies``
        call, and one whose draw or tally raises is left out of the stack,
        with None as its grid.  A replicate's failure is the exception of its
        draw, its tally or its decomposition's identities, or of the stacked
        stage, which fails every replicate of the stack; its row of
        ``values`` is then NaN.
        """
        kind, cats = self.scenarios[index]
        grids, failures = [None] * len(reps), [None] * len(reps)
        for i, rep in enumerate(reps):
            uniform = "uniform" if rep == self.replicates else "dirichlet"
            seed = replicate_seed(self.seed, kind, cats, rep)
            try:
                grids[i] = generate(ScenarioSpec(kind, self.rows, self.cols, cats, uniform, seed))
            except Exception as exc:
                failures[i] = exc
        drawn = [i for i, grid in enumerate(grids) if grid is not None]
        tallies = []
        for i, tally in zip(drawn, _tallies([grids[i] for i in drawn], self.shared)):
            if isinstance(tally, Exception):
                grids[i], failures[i] = None, tally
            else:
                tallies.append(tally)
        live = [i for i, grid in enumerate(grids) if grid is not None]
        keys, values = [], np.full((len(grids), 0), math.nan)
        if live:
            try:
                keys, stacked, measured = _measure_stack(
                    [grids[i] for i in live], tallies, self.selections[index], self.shared
                )
            except Exception as exc:
                measured = [exc] * len(live)
            else:
                values = np.full((len(grids), len(keys)), math.nan)
                values[live] = stacked
            for i, failure in zip(live, measured):
                failures[i] = failure
        return grids, keys, values, failures


# ---------------------------------------------------------------------------
# subcommands

def _cmd_generate(args) -> int:
    pmf_source = "uniform" if args.uniform_pmf else "dirichlet"
    # the spec is checked before any output is made
    spec = ScenarioSpec(args.scenario, args.rows, args.cols, args.categories, pmf_source)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for rep in range(args.replicates):
        seed = replicate_seed(args.seed, args.scenario, args.categories, rep)
        name = f"{args.scenario}_x{args.categories}_r{rep:04d}.grid"
        write_grid(generate(replace(spec, seed=seed)), out / name)
        entries.append({"file": name, "replicate": rep, "seed": list(seed)})
    manifest = {
        "version": __version__,
        "scenario": args.scenario,
        "rows": args.rows,
        "cols": args.cols,
        "categories": args.categories,
        "pmf_source": pmf_source,
        "master_seed": args.seed,
        "grids": entries,
    }
    _write_text(_json_text(manifest), out / "manifest.json")
    print(f"wrote {len(entries)} grid(s) and manifest.json to {out}")
    return 0


def _cmd_measure(args) -> int:
    grid = read_grid(args.grid)
    plan = _plan(grid, args.measures, args, args.partition_seed)
    rows = _measure_rows(
        grid, args.measures, plan, ordered=args.ordered, target_category=args.target_category
    )
    _write_text("measure,band,value\n" + _row_lines(rows), args.out)
    return 0


def _cmd_decompose(args) -> int:
    dec = decompose(read_grid(args.grid), args.bands, ordered=args.ordered)
    _write_text(dec.to_csv_row() if args.format == "csv" else dec.to_json(), args.out)
    return 0


def _cmd_experiment(args) -> int:
    out = Path(args.out)
    plan = ExperimentPlan.from_args(args)  # checked before any output is made
    out.mkdir(parents=True, exist_ok=True)
    # the plan first, so that a run cut short still says what made its rows
    _write_text(plan.to_json(), out / "plan.json")
    if plan.shared.partition is not None:
        write_partition(plan.shared.partition, out / "partition.txt")

    failed = 0
    written = 0
    ensemble: dict = {}
    uniform_values: dict = {}
    long_path = out / "results_long.csv"
    with open(long_path, "w", encoding="ascii") as fh:
        fh.write("scenario,replicate,uniform_flag,measure,band,value\n")
        for index, ((kind, cats), selected) in enumerate(zip(plan.scenarios, plan.selections)):
            if not selected:
                continue  # no replicate of an entry whose measures it cannot take
            label = f"{kind}_x{cats}"
            # the replicates, then the idealized extra one with the exact
            # equal category split, flagged, unless it is skipped; in as few
            # stacks of as equal sizes as the limits allow, each stack's rows
            # written in replicate order
            reps = range(plan.replicates + (not plan.skip_uniform))
            stacks = math.ceil(len(reps) / max(1, min(_STACK, _STACK_CODES // cats**2)))
            size = math.ceil(len(reps) / stacks)
            ordinary, ordinary_keys = [], []
            for first in range(0, len(reps), size):
                stack = reps[first : first + size]
                _, keys, values, failures = plan.run_entries(index, stack)
                for rep, row, exc in zip(stack, values, failures):
                    # one failing replicate is reported and skipped, the others are written
                    if exc is not None:
                        log.error(
                            "replicate %s/%d aborted: %s: %s",
                            label, rep, type(exc).__name__, exc, exc_info=exc,
                        )
                        failed += 1
                        continue
                    rows = _keyed_rows(keys, row)
                    uflag = int(rep == plan.replicates)
                    fh.write(_row_lines(rows, f"{label},{rep},{uflag},"))
                    written += len(rows)
                    if uflag:
                        uniform_values.update(((label, m, band), value) for m, band, value in rows)
                    else:
                        ordinary.append(row)
                        ordinary_keys = keys
            # each key's values over the ordinary replicates, straight from their rows
            columns = np.transpose(ordinary) if ordinary else ()
            ensemble.update(((label, m, band), c) for (m, band), c in zip(ordinary_keys, columns))

    summary_path = out / "summary.csv"
    _write_text(_summary_csv(ensemble, uniform_values), summary_path)

    print(f"wrote {written} rows to {long_path} and quantiles to {summary_path}")
    if failed:
        log.error("%d replicate(s) aborted", failed)
        return 1
    return 0


def _summary_csv(ensemble: dict, uniform: dict) -> str:
    """The ``summary.csv`` text of an experiment's collected values.

    ``ensemble`` maps each (scenario, measure, band) key, in row order, to
    its values over the unflagged replicates, and ``uniform`` a key to its
    flagged replicate's value.  Each row holds the quantiles 0, 1/4, 1/2,
    3/4 and 1 of the key's non-NaN values (NaN without any) and its flagged
    value (NaN without one).
    """
    # keys with equally many non-NaN values share one quantile call; each
    # key's non-NaN values replace its column, and the quantile partitions
    # their stacked copy in place, so the summary adds little memory
    groups: dict = {}
    for key, values in ensemble.items():
        arr = np.asarray(values, dtype=np.float64)
        ensemble[key] = arr = arr[~np.isnan(arr)]
        groups.setdefault(arr.size, []).append(key)
    quants = dict.fromkeys(ensemble, (math.nan,) * 5)
    for size, keys in groups.items():
        if size:
            table = np.array([ensemble[k] for k in keys])
            table = np.quantile(table, (0.0, 0.25, 0.5, 0.75, 1.0), axis=1, overwrite_input=True)
            quants.update(zip(keys, table.T))
    lines = ["scenario,measure,band,min,q1,median,q3,max,uniform\n"]
    for key in ensemble:
        cells = [*key, *map(_fmt, quants[key]), _fmt(uniform.get(key, math.nan))]
        lines.append(",".join(cells) + "\n")
    return "".join(lines)


def _verify_grid(grid) -> list:
    """(name, passed, detail) for every check on one grid.

    The checks read the table every other command reads: one
    ``pairs_within`` tally over the ni codes on the grid.  Its last row
    gives the pair total, and its folded bands the decomposition, as
    ``decompose`` computes it, whose identity ``residuals`` are reported,
    each within ``decompose_counts``'s tolerance; a decomposition that
    raises on its identities is one failed check.  Up to 64 pixels the
    brute-force oracle counts the grid relabelled to the ranks 1..ni of its
    codes, taken by ``np.unique`` and not from the tally, and must match the
    tally's codes and its ordered bands.
    """
    checks = []
    cls = DistanceClassification.default_for(grid)
    within, present = pairs_within(grid, cls)
    ordered = np.diff(within, axis=0)

    n = grid.size
    total = int(within[-1].sum())
    checks.append(("pair-total", total == n * (n - 1) // 2, f"count={total}"))

    try:
        dec = decompose_within(within, present, cls.labels)
    except ConsistencyError as exc:
        checks.append(("decomposition", False, str(exc)))
    else:
        checks += [(name, True, f"residual={r:.3e}") for name, r in dec.residuals.items()]

    if n <= 64:
        codes, ranks = np.unique(grid.values, return_inverse=True)
        ranked = CategoricalGrid(grid.rows, grid.cols, codes.size, ranks + 1)
        ref = enumerate_pairs_bruteforce(ranked, cls, CooccurrenceScheme(codes.size, ordered=True))
        same = np.array_equal(codes, present) and np.array_equal(ref.category_counts, ordered)
        checks.append(("bruteforce-oracle", same, "exact integer comparison"))

    return checks


def _cmd_verify(args) -> int:
    failures = 0
    for path in args.grids:
        try:
            grid = read_grid(path)
        except (ValueError, OSError) as exc:
            print(f"FAIL {path} read: {exc}")
            failures += 1
            continue
        try:
            checks = _verify_grid(grid)
        except (ValueError, ConsistencyError) as exc:
            print(f"FAIL {path} tally: {exc}")
            failures += 1
            continue
        for name, passed, detail in checks:
            print(f"{'PASS' if passed else 'FAIL'} {path} {name} ({detail})")
            if not passed:
                failures += 1
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all identities hold")
    return 0


# ---------------------------------------------------------------------------
# parser wiring

def _add_order_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--ordered",
        action="store_true",
        help="distinguish pair orientation (read from the scan-order first pixel)",
    )


def _add_measure_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--measures",
        type=_measures_arg,
        default=MEASURES,
        help=f"comma list from: {', '.join(MEASURES)} (default: all)",
    )
    p.add_argument(
        "--bands",
        type=_breaks_arg,
        default=None,
        help="comma list of distance break points, e.g. 0,1,2,5,10,20,30,70.711",
    )
    p.add_argument(
        "--karlstrom-distances",
        type=_distances_arg,
        default=_distances_arg(DEFAULT_KARLSTROM_DISTANCES),
        help=f"centroid distances for the smoothed index (default {DEFAULT_KARLSTROM_DISTANCES})",
    )
    p.add_argument(
        "--leibovici-distance",
        type=_leibovici_distance_arg,
        default=2.0,
        help="co-occurrence distance for the cumulative pair entropy (default 2)",
    )
    p.add_argument(
        "--areas",
        type=_positive_int_arg,
        default=100,
        help="number of areas for the partition-based indices (default 100)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``spatent`` parser, built once per process: parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="spatent",
        description="Spatial entropy measures for categorical lattice data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write scenario replicate grids + manifest")
    p.add_argument("--scenario", choices=SCENARIOS, required=True)
    p.add_argument("--rows", type=_positive_int_arg, default=50)
    p.add_argument("--cols", type=_positive_int_arg, default=50)
    p.add_argument("--categories", type=_positive_int_arg, default=2)
    p.add_argument("--replicates", type=_positive_int_arg, default=1)
    p.add_argument("--seed", type=_non_negative_int_arg, default=0, help="master seed")
    p.add_argument("--uniform-pmf", action="store_true", help="exact equal category split")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("measure", help="compute measures on one grid file")
    p.add_argument("grid", help="grid file path")
    _add_measure_flags(p)
    _add_order_flags(p)
    p.add_argument("--target-category", type=_positive_int_arg, default=1)
    p.add_argument(
        "--partition-seed",
        type=_partition_seed_arg,
        default=UNIFORM_PARTITION,
        help=f"integer seed for a random partition, or '{UNIFORM_PARTITION}' (default)",
    )
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("decompose", help="band decomposition of one grid")
    p.add_argument("grid", help="grid file path")
    p.add_argument("--bands", type=_breaks_arg, default=None)
    _add_order_flags(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("experiment", help="run a scenario ensemble to CSV")
    p.add_argument(
        "--scenarios",
        type=_plan_arg,
        default=_plan_arg(DEFAULT_DESIGN),
        help=f"comma list of kind:categories (default {DEFAULT_DESIGN})",
    )
    p.add_argument("--rows", type=_positive_int_arg, default=50)
    p.add_argument("--cols", type=_positive_int_arg, default=50)
    p.add_argument("--replicates", type=_positive_int_arg, default=100)
    p.add_argument("--seed", type=_non_negative_int_arg, default=0, help="master seed")
    _add_measure_flags(p)
    p.add_argument(
        "--skip-uniform",
        action="store_true",
        help="omit the flagged equal-split replicate appended to each scenario",
    )
    p.add_argument(
        "--workers",
        type=_positive_int_arg,
        default=1,
        help="accepted for compatibility and ignored: replicates run one after another",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("verify", help="identity suite on grid files")
    p.add_argument("grids", nargs="+", help="grid file path(s)")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate":
        try:
            check_categories(args.scenario, args.categories)
        except ValueError as exc:
            parser.error(str(exc))
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        log.error("error: %s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
