"""The mutation gate: faults the tests must catch, and the runner that checks they do.

Each mutant is one exact text edit of one file of the package and the tests
that must fail on it.  ``run`` copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, applies the edit there, never
in the checkout, and runs the mutant's tests with ``-x``.  The outcome is
``killed`` (a test failed), ``survived`` (every test passed), ``no longer
applies`` (the old text is not in the file exactly once) or an error exit
of pytest; every outcome but ``killed`` fails the gate.

``tests/test_mutants.py`` runs the gate when ``SPATENT_MUTANTS=1`` is set;
Tier-1 only checks that every old text is still in its file once.  Run one
or more mutants by name, or all of them, with

    python tests/mutants.py [name ...]

A route or output rule that gains a test should gain its mutant here.  A
surviving mutant is a gap in the tests: report it, and mend the tests, not
the list.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    """``old`` replaced by ``new`` in ``path``, relative to the root; ``tests`` must fail."""

    name: str
    path: str
    old: str
    new: str
    tests: tuple


_LATTICE = "src/spatent/lattice.py"
_CLI = "src/spatent/cli.py"
_COOCCUR = "src/spatent/cooccur.py"
_DECOMP = "src/spatent/decomp.py"
_PROB = "src/spatent/prob.py"
_DIGESTS = "tests/test_golden_digests.py::test_every_command_writes_its_pinned_bytes"

MUTANTS = (
    # the output format rules: one JSON document, one CSV number, one row line
    Mutant(
        "json-allows-nan", _LATTICE, "allow_nan=False", "allow_nan=True",
        ("tests/test_decomp.py::test_json_refuses_a_non_finite_term",
         "tests/test_cli.py::test_json_files_never_hold_a_non_json_token"),
    ),
    Mutant(
        "csv-number-11-digits", _LATTICE, '"%.12g" % float(value)', '"%.11g" % float(value)',
        (_DIGESTS,),
    ),
    Mutant(
        "row-line-separator", _CLI, 'f"{head}{m},{band},{_fmt(value)}\\n"',
        'f"{head}{m};{band},{_fmt(value)}\\n"',
        (_DIGESTS,),
    ),
    # the tally's routes
    Mutant(
        "direct-counts-a-b-swapped", _COOCCUR,
        "pair = first[: rows - dr, lo:hi] + codes[dr:, lo + dc : hi + dc]",
        "pair = codes[: rows - dr, lo:hi] + first[dr:, lo + dc : hi + dc]",
        ("tests/test_cooccur.py::test_direct_route_edges_equal_bruteforce",),
    ),
    Mutant(
        "plane-mirror-dropped", _COOCCUR,
        "        plane[self.p2 - reach_c:] = reached[:0:-1]\n", "",
        ("tests/test_cooccur.py::test_geometry_sizes_count_each_band_displacements",
         "tests/test_cooccur.py::test_bruteforce_oracle_equality"),
    ),
    Mutant(
        "band-map-side-right", _COOCCUR, 'np.searchsorted(breaks, dist, side="left")',
        'np.searchsorted(breaks, dist, side="right")',
        ("tests/test_cooccur.py::test_geometry_sizes_count_each_band_displacements",
         "tests/test_cooccur.py::test_bruteforce_oracle_equality"),
    ),
    Mutant(
        "exact-counts-unrounded", _COOCCUR, "    counts = counts.astype(np.int64)\n",
        "    counts = sums.astype(np.int64)\n",
        ("tests/test_cooccur.py::test_bruteforce_oracle_equality",
         "tests/test_cooccur.py::test_displacement_oracle_equality"),
    ),
    Mutant(
        "block-table-across-float64", _COOCCUR, "across = np.zeros((k, k), dtype=np.int64)",
        "across = np.zeros((k, k))",
        ("tests/test_cooccur.py::test_block_pair_table_equals_a_one_hot_count",),
    ),
    Mutant(
        "two-category-index-sum-off-by-one", _COOCCUR, "every[0, 1] = last.sum() - every[1, 1]",
        "every[0, 1] = last.sum() + last.size - every[1, 1]",
        ("tests/test_cooccur.py::test_bruteforce_oracle_equality",
         "tests/test_cooccur.py::test_two_category_route_equals_bruteforce"),
    ),
    Mutant(
        "fold-doubles-the-diagonal", _COOCCUR, "counts[..., ab] + counts[..., ba] * off",
        "counts[..., ab] + counts[..., ba]",
        ("tests/test_cooccur.py::test_fold_counts_follows_the_unordered_codes",),
    ),
    Mutant(
        "two-category-dc-sign-swapped", _COOCCUR,
        "right, left = np.maximum(dc, 0), np.maximum(-dc, 0)",
        "right, left = np.maximum(-dc, 0), np.maximum(dc, 0)",
        ("tests/test_cooccur.py::test_two_category_route_equals_bruteforce",
         "tests/test_cooccur.py::test_two_category_route_equals_the_displacement_oracle"),
    ),
    Mutant(
        "two-category-column-bounds-swapped", _COOCCUR, "top[dr, cols - right] - top[dr, left]",
        "top[dr, cols - left] - top[dr, right]",
        ("tests/test_cooccur.py::test_two_category_route_equals_bruteforce",
         "tests/test_cooccur.py::test_two_category_route_equals_the_displacement_oracle"),
    ),
    # the stacked tally: band sums cleared per grid, tables in their grid's
    # slot, a grid's check failure kept to that grid
    Mutant(
        "stack-band-sums-not-cleared", _COOCCUR, "        sums.fill(0.0)\n", "",
        ("tests/test_cooccur.py::test_each_stacked_grid_tallies_as_it_does_alone",
         "tests/test_cli.py::test_each_default_design_grid_tallies_in_its_stack_as_alone"),
    ),
    Mutant(
        "stack-tables-in-neighbour-slots", _COOCCUR, "    return tallies\n",
        "    return tallies[1:] + tallies[:1]\n",
        ("tests/test_cooccur.py::test_each_stacked_grid_tallies_as_it_does_alone",
         "tests/test_cli.py::test_each_default_design_grid_tallies_in_its_stack_as_alone"),
    ),
    Mutant(
        "stack-check-failure-fails-the-stack", _COOCCUR,
        "        except ConsistencyError as exc:\n            tallies.append(exc)\n",
        "        except ConsistencyError:\n            raise\n",
        ("tests/test_cooccur.py::test_a_stacked_grid_failing_its_checks_fails_alone",
         "tests/test_cli.py::test_experiment_isolates_a_replicate_failing_its_tally"),
    ),
    # the one tally body's dispatch: a stack without a geometry takes the
    # two-category route and finishes each band's block as it goes, a stack
    # sharing one reads its finished band spectra
    Mutant(
        "unshared-stack-takes-the-shared-route", _COOCCUR,
        "        geometry = BandGeometry(grids[0].rows, grids[0].cols, fine)\n",
        "        geometry = BandGeometry(grids[0].rows, grids[0].cols, fine)\n"
        "        shared = True\n",
        ("tests/test_cooccur.py::test_one_shot_tally_never_finishes_the_band_spectra",
         "tests/test_cooccur.py::test_two_category_route_reads_no_band_spectrum"),
    ),
    Mutant(
        "shared-stack-takes-the-two-category-route", _COOCCUR,
        "pairwise = [not shared and present.size == 2 for present in presents]",
        "pairwise = [present.size == 2 for present in presents]",
        ("tests/test_cooccur.py::test_two_category_route_reads_no_band_spectrum",),
    ),
    # the geometry's coverage check, and the position pairs inside a block
    # of the every-pair table
    Mutant(
        "coverage-lower-break-inclusive", _COOCCUR, "if not (breaks[0] < 1.0 and",
        "if not (breaks[0] <= 1.0 and",
        ("tests/test_cooccur.py::test_coverage_enforcement",),
    ),
    Mutant(
        "block-route-row-cuts-swapped", _COOCCUR,
        "np.add(first[:-shift], pos[shift:], out=",
        "np.add(first[shift:], pos[:-shift], out=",
        ("tests/test_cooccur.py::test_block_pair_table_equals_a_one_hot_count",
         "tests/test_cooccur.py::test_displacement_oracle_equality"),
    ),
    # the decomposition's identity residuals
    Mutant(
        "mixture-residual-fixed-at-zero", _DECOMP,
        '"mixture-consistency": float(np.max(np.abs(p_w @ conds - p_z))),',
        '"mixture-consistency": 0.0,',
        ("tests/test_decomp.py::test_identity_residuals_name_the_broken_identity",),
    ),
    Mutant(
        "dual-route-from-the-residual", _DECOMP, '"mi-dual-route": abs(mi - (h_z - h_z_given_w)),',
        '"mi-dual-route": abs(mi - (h_z - h_zw)),',
        ("tests/test_decomp.py::test_identity_residuals_name_the_broken_identity",),
    ),
    # the stacked post-tally stage: runs summed alone, failures kept per
    # table, rows in replicate order
    Mutant(
        "gathered-run-crosses-its-boundary", _PROB, "np.add.outer(starts, np.arange(n))",
        "np.add.outer(starts, np.arange(1, n + 1))",
        ("tests/test_decomp.py::test_array_core_equals_the_pmf_route",
         "tests/test_decomp.py::test_a_stack_decomposes_each_experiment_table_as_it_alone"),
    ),
    Mutant(
        "identity-failure-aborts-its-stack", _DECOMP,
        "        failures.append(_identity_failure(found))\n",
        "        failures.append(_identity_failure(found))\n"
        "        if failures[-1] is not None:\n"
        "            raise failures[-1]\n",
        ("tests/test_decomp.py::test_a_table_failing_its_identities_fails_alone_in_its_stack",
         "tests/test_cli.py::test_experiment_isolates_a_replicate_failing_its_identities"),
    ),
    Mutant(
        "stack-rows-scattered-reversed", _CLI, "whole[:, rows] = np.transpose(dec.whole)",
        "whole[:, rows[::-1]] = np.transpose(dec.whole)",
        ("tests/test_cli.py::test_experiment_writes_run_entry_rows_in_replicate_order",),
    ),
    Mutant(
        "rows-out-of-replicate-order", _CLI, "for rep, row, exc in zip(stack, values, failures):",
        "for rep, row, exc in zip(stack[::-1], values[::-1], failures[::-1]):",
        ("tests/test_cli.py::test_experiment_writes_run_entry_rows_in_replicate_order",),
    ),
)


def run(mutant: Mutant, root: Path = ROOT) -> tuple:
    """``(outcome, pytest output)`` of ``mutant``'s tests on a mutated copy of ``root``."""
    text = (root / mutant.path).read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return "no longer applies", ""
    with tempfile.TemporaryDirectory(prefix="spatent-mutant-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(root / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(root / "pyproject.toml", copy)
        (copy / mutant.path).write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        # the mutated copy is the only spatent on the path
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "SPATENT_MUTANTS")}
        env["PYTHONPATH"] = str(copy / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    outcome = {0: "survived", 1: "killed"}.get(proc.returncode, f"pytest exit {proc.returncode}")
    return outcome, proc.stdout + proc.stderr


def main(names) -> int:
    """Run the named mutants, or all; print one outcome per line; 1 unless all were killed."""
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    failed = 0
    for mutant in chosen:
        outcome, output = run(mutant)
        print(f"{outcome:>17}  {mutant.name}", flush=True)
        if outcome != "killed":
            failed += 1
            print(output[-2000:])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
