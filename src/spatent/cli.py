"""Command line interface: generation, measurement, experiments, verification.

Subcommands
-----------
generate    write replicate grids of one scenario plus a manifest
measure     compute selected measures on one grid file (CSV output)
decompose   distance-band entropy decomposition of one grid (JSON or CSV)
experiment  scenario ensemble -> long CSV plus quantile summary CSV
verify      run the internal identity suite on one or more grid files

Experiment output is deterministic for a given plan and master seed: every
replicate derives its own RNG stream from its index, and replicates run one
after another in plan order, each written as soon as it finishes.  A
``ValueError`` or ``OSError`` caused by the input is reported as one
``error: <message>`` line with exit code 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .classic import (
    CONTIGUITY_INDICES,
    _index_of_entropy,
    batty_entropy,
    build_area_neighbourhood,
    checked_leibovici_distance,
    estimate_area_probs,
    karlstrom_entropy,
)
from .cooccur import (
    BandGeometry,
    CooccurrenceScheme,
    DistanceClassification,
    enumerate_pairs_bruteforce,
    fold_counts,
    pairs_within,
)
from .decomp import decompose, decompose_counts
from .errors import ConsistencyError
from .lattice import (
    UNIFORM_PARTITION,
    CategoricalGrid,
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

# the measures read from the decomposition's bands
_DECOMPOSED = frozenset({"shannon_z", "decomposition"})

_FMT = "%.12g"


def _fmt(value: float) -> str:
    return _FMT % float(value)


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
            if not sep or kind not in SCENARIOS or not cats.isdigit():
                raise ValueError(f"expected kind:categories with kind in {SCENARIOS}")
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


def _positive_int_arg(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _non_negative_int_arg(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _partition_seed_arg(text: str):
    if text == UNIFORM_PARTITION:
        return UNIFORM_PARTITION
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer or '{UNIFORM_PARTITION}', got {text!r}"
        )
    return int(text)


# ---------------------------------------------------------------------------
# measurement core shared by `measure` and `experiment`

def _pair_bands(grid, measures, bands, leibovici_distance):
    """The tally plan of a grid: None when no pair measure is requested.

    Else (decomposition bands, split distances): the decomposition or
    shannon_z uses ``bands`` when given; any other request gets the grid's
    default bands.  The bands are split further at distance 1, the rook
    contiguity, and at d, the Leibovici distance when ``leibovici`` is
    requested, else 1.  Both depend on the grid's shape only.
    """
    if not _DECOMPOSED.union(CONTIGUITY_INDICES).intersection(measures):
        return None
    if bands is None or not _DECOMPOSED.intersection(measures):
        bands = DistanceClassification.default_for(grid)
    d = checked_leibovici_distance(leibovici_distance) if "leibovici" in measures else 1.0
    return bands, (1.0, d)


def _measure_rows(
    grid,
    measures,
    pair_bands,
    *,
    ordered: bool = False,
    geometry=None,
    partition=None,
    target_category: int = 1,
    karlstrom_nb=(),
):
    """(measure, band, value) rows for one grid, in canonical measure order.

    ``pair_bands`` is the grid's ``_pair_bands`` plan.  Every pair-based
    measure reads one ``pairs_within`` table of the grid over the plan's
    bands, split further at the plan's distances 1 and d: the
    decomposition takes its bands back (folded to unordered codes unless
    ``ordered``), the contiguity indices pool the leading bands.
    ``geometry``, when given, is the ``BandGeometry`` of that tally.

    Batty and Karlstrom rows are NaN when the target category is absent from
    the grid (the area probabilities are then undefined).
    """
    rows = []
    dec = None
    contiguity = {}
    if pair_bands is not None:
        cls, distances = pair_bands
        # pairs up to each decomposition break, then up to 1 and up to d
        within = pairs_within(grid, cls, distances, geometry=geometry)
        if _DECOMPOSED.intersection(measures):
            counts = np.diff(within[:-2], axis=0)
            if not ordered:
                counts = fold_counts(counts, grid.num_categories)
            dec = decompose_counts(counts, cls.labels)
        # one entropy per pair law: O'Neill, rc and Parresol-Edwards share the
        # rook law's, Leibovici takes the law up to d
        entropies = {}
        for m in [m for m in CONTIGUITY_INDICES if m in measures]:
            far = m == "leibovici"
            if far not in entropies:
                law = within[-1 if far else -2]
                entropies[far] = (_plogp(law / law.sum()), law.size)
            contiguity[m] = _index_of_entropy(m, *entropies[far])

    area_probs = None
    x_counts = grid.category_counts()
    if "batty" in measures or "karlstrom" in measures:
        if not 1 <= target_category <= grid.num_categories:
            raise ValueError(f"target category {target_category} out of range")
        if x_counts[target_category - 1]:
            area_probs = estimate_area_probs(grid, partition, target_category)

    for m in MEASURES:
        if m not in measures:
            continue
        if m == "shannon_x":
            rows.append(("shannon_x", "", _plogp(x_counts / grid.size)))
        elif m == "shannon_z":
            rows.append(("shannon_z", "", dec.marginal))
        elif m == "batty":
            value = batty_entropy(area_probs) if area_probs else math.nan
            rows.append(("batty", "", value))
        elif m == "karlstrom":
            for band, nb in karlstrom_nb:
                value = karlstrom_entropy(area_probs, nb) if area_probs else math.nan
                rows.append(("karlstrom", band, value))
        elif m in contiguity:
            band = f"d{distances[-1]:g}" if m == "leibovici" else ""
            rows.append((m, band, contiguity[m]))
        elif m == "decomposition":
            rows.append(("mutual_information", "", dec.mutual_information))
            rows.append(("residual_global", "", dec.residual_global))
            rows.append(("mi_proportional", "", dec.mi_proportional))
            for b in dec.bands:
                rows.append(("p_w", b.label, b.p_w))
                rows.append(("residual_partial", b.label, b.residual_partial))
                rows.append(("info_partial", b.label, b.info_partial))
    return rows


def _write_text(text: str, path) -> None:
    """Write ``text`` to the file ``path``, or to stdout when no path is given."""
    if path:
        Path(path).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)


def _write_json(doc, path) -> None:
    """Write ``doc`` as ASCII JSON, indented by 2, with a trailing newline; nan or inf raises."""
    _write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n", path)


def _karlstrom_neighbourhoods(partition, distances):
    labels = [f"d{d:g}" for d in distances]
    for label in labels:
        if labels.count(label) > 1:
            raise ValueError(
                f"--karlstrom-distances gives more than one distance the label {label}"
            )
    return tuple(
        (label, build_area_neighbourhood(partition, d)) for label, d in zip(labels, distances)
    )


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
    _write_json(manifest, out / "manifest.json")
    print(f"wrote {len(entries)} grid(s) and manifest.json to {out}")
    return 0


def _cmd_measure(args) -> int:
    grid = read_grid(args.grid)
    partition = None
    karl = ()
    if "batty" in args.measures or "karlstrom" in args.measures:
        partition = partition_window(grid, args.areas, args.partition_seed)
        if "karlstrom" in args.measures:
            karl = _karlstrom_neighbourhoods(partition, args.karlstrom_distances)
    rows = _measure_rows(
        grid,
        args.measures,
        _pair_bands(grid, args.measures, args.bands, args.leibovici_distance),
        ordered=args.ordered,
        partition=partition,
        target_category=args.target_category,
        karlstrom_nb=karl,
    )
    text = "measure,band,value\n" + "".join(f"{m},{b},{_fmt(v)}\n" for m, b, v in rows)
    _write_text(text, args.out)
    return 0


def _cmd_decompose(args) -> int:
    dec = decompose(read_grid(args.grid), args.bands, ordered=args.ordered)
    _write_text(dec.to_csv_row() if args.format == "csv" else dec.to_json() + "\n", args.out)
    return 0


def _cmd_experiment(args) -> int:
    for entry in args.scenarios:
        if args.scenarios.count(entry) > 1:
            raise ValueError(f"--scenarios lists {entry[0]}:{entry[1]} more than once")
    if not args.skip_uniform:
        pixels = args.rows * args.cols
        bad = [f"{kind}:{cats}" for kind, cats in args.scenarios if pixels % cats]
        if bad:
            raise ValueError(
                f"the equal-split replicate needs the category count to divide "
                f"{pixels} pixels; impossible for {','.join(bad)} (use --skip-uniform)"
            )
    # the plan is checked before any replicate runs or any output is made:
    # each entry by simgen's rules, the bands and the grid size by the tally
    # geometry that every replicate shares, the areas by the partition
    specs = [ScenarioSpec(kind, args.rows, args.cols, cats) for kind, cats in args.scenarios]
    dummy = CategoricalGrid(
        args.rows, args.cols, 1, np.ones(args.rows * args.cols, dtype=np.int64)
    )
    pair_bands = _pair_bands(dummy, args.measures, args.bands, args.leibovici_distance)
    geometry = None
    if pair_bands is not None:
        bands, distances = pair_bands
        geometry = BandGeometry(args.rows, args.cols, bands.refined(distances))
    partition = None
    karl = ()
    area_measures = {"batty", "karlstrom"}.intersection(args.measures)
    if area_measures and any(spec.num_categories == 2 for spec in specs):
        seed = np.random.SeedSequence((int(args.seed),), spawn_key=(1,))
        partition = partition_window(dummy, args.areas, seed)
        if "karlstrom" in args.measures:
            karl = _karlstrom_neighbourhoods(partition, args.karlstrom_distances)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if partition is not None:
        write_partition(partition, out / "partition.txt")

    failed = 0
    written = 0
    ensemble: dict = {}
    uniform_values: dict = {}
    long_path = out / "results_long.csv"
    with open(long_path, "w", encoding="ascii") as fh:
        fh.write("scenario,replicate,uniform_flag,measure,band,value\n")
        for spec in specs:
            kind, cats = spec.kind, spec.num_categories
            label = f"{kind}_x{cats}"
            # area-based indices are defined on the two-category scenarios only
            selected = args.measures
            if cats != 2:
                selected = tuple(m for m in selected if m not in area_measures)
            # the replicates, then the idealized extra one with the exact
            # equal category split, flagged, unless it is skipped
            for rep in range(args.replicates + (not args.skip_uniform)):
                uflag = int(rep == args.replicates)
                # one failing replicate is reported and skipped, the others are written
                try:
                    grid = generate(replace(
                        spec,
                        pmf_source="uniform" if uflag else "dirichlet",
                        seed=replicate_seed(args.seed, kind, cats, rep),
                    ))
                    rows = _measure_rows(
                        grid,
                        selected,
                        pair_bands,
                        geometry=geometry,
                        partition=partition,
                        karlstrom_nb=karl,
                    )
                except Exception as exc:
                    log.error(
                        "replicate %s/%d aborted: %s: %s",
                        label, rep, type(exc).__name__, exc, exc_info=exc,
                    )
                    failed += 1
                    continue
                head = f"{label},{rep},{uflag},"
                fh.write("".join([f"{head}{m},{band},{_fmt(value)}\n" for m, band, value in rows]))
                written += len(rows)
                if uflag:
                    uniform_values.update(((label, m, band), value) for m, band, value in rows)
                else:
                    for m, band, value in rows:
                        ensemble.setdefault((label, m, band), []).append(value)

    # keys with equally many non-NaN values share one quantile call; each
    # key's array replaces its list of floats, and the quantile partitions
    # its stacked copy in place, so the summary adds little memory
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
    summary_path = out / "summary.csv"
    with open(summary_path, "w", encoding="ascii") as fh:
        fh.write("scenario,measure,band,min,q1,median,q3,max,uniform\n")
        for key in ensemble:
            star = uniform_values.get(key, math.nan)
            label, m, band = key
            cells = [label, m, band] + [_fmt(v) for v in quants[key]] + [_fmt(star)]
            fh.write(",".join(cells) + "\n")

    plan_doc = {
        "version": __version__,
        "scenarios": [{"kind": k, "categories": c} for k, c in args.scenarios],
        "replicates": args.replicates,
        "rows": args.rows,
        "cols": args.cols,
        "master_seed": args.seed,
        "measures": list(args.measures),
        # each number only where a measure uses it: the bands where the
        # decomposition tallies them, the distances where their index runs
        "bands": list(pair_bands[0].breaks) if _DECOMPOSED.intersection(args.measures) else None,
        "leibovici_distance": pair_bands[1][-1] if "leibovici" in args.measures else None,
        "areas": args.areas if partition is not None else None,
        "karlstrom_distances": list(args.karlstrom_distances) if karl else None,
        "uniform_case": not args.skip_uniform,
    }
    _write_json(plan_doc, out / "plan.json")

    print(f"wrote {written} rows to {long_path} and quantiles to {summary_path}")
    if failed:
        log.error("%d replicate(s) aborted", failed)
        return 1
    return 0


def _verify_grid(grid) -> list:
    """(name, passed, detail) for every check on one grid.

    The pair total and, up to 64 pixels, the brute-force oracle check the
    ordered ``pairs_within`` table that every pair measure reads, and the
    decomposition of its folded bands reports its identity ``residuals``,
    each one within ``decompose_counts``'s tolerance.  A decomposition that
    raises on its identities is one failed check.
    """
    checks = []
    cls = DistanceClassification.default_for(grid)
    ordered = np.diff(pairs_within(grid, cls), axis=0)
    counts = fold_counts(ordered, grid.num_categories)

    n = grid.size
    total = int(ordered.sum())
    checks.append(("pair-total", total == n * (n - 1) // 2, f"count={total}"))

    try:
        dec = decompose_counts(counts, cls.labels)
    except ConsistencyError as exc:
        checks.append(("decomposition", False, str(exc)))
    else:
        checks += [(name, True, f"residual={r:.3e}") for name, r in dec.residuals.items()]

    if n <= 64:
        scheme = CooccurrenceScheme(grid.num_categories, ordered=True)
        ref = enumerate_pairs_bruteforce(grid, cls, scheme)
        same = np.array_equal(ref.category_counts, ordered)
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
