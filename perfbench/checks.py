"""Output checks that do not depend on how the program tallies pairs.

Every check reads what the CLI wrote (JSON or CSV) and returns a list of
failure messages; an empty list means the output is correct.

* Band weights: ``p_w`` of every band equals the geometry closed form
  sum (R - dr)(C - |dc|) / (N(N-1)/2) over the displacements in the band.
* Entropy identities: marginal = MI + residual_global, and the band-weighted
  partial residuals and partial informations reproduce residual_global and
  MI, each within IDENTITY_TOL, recomputed from the written numbers.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

IDENTITY_TOL = 1e-10
# CSV values are written with 12 significant digits, JSON values in full.
PW_TOL_JSON = 1e-15
PW_TOL_CSV = 1e-11

DEFAULT_BREAKS = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0)


def default_breaks(rows: int, cols: int) -> tuple:
    """The documented default bands: fixed breaks below the window diagonal."""
    diag = math.hypot(rows, cols)
    return tuple(b for b in DEFAULT_BREAKS if b < diag) + (diag,)


def band_weights(rows: int, cols: int, breaks) -> np.ndarray:
    """Closed-form share of the N(N-1)/2 pixel pairs in each band (breaks[k-1], breaks[k]]."""
    dr = np.arange(rows)[:, None]
    dc = np.arange(-(cols - 1), cols)[None, :]
    later = (dr > 0) | (dc > 0)  # each unordered pair once
    pairs = (rows - dr) * (cols - np.abs(dc))
    dist = np.sqrt(dr * dr + dc * dc)
    band = np.searchsorted(np.asarray(breaks, dtype=np.float64), dist, side="left") - 1
    inside = later & (dist > breaks[0]) & (dist <= breaks[-1])
    counts = np.zeros(len(breaks) - 1, dtype=np.int64)
    np.add.at(counts, band[inside], pairs.astype(np.int64)[inside])
    n = rows * cols
    return counts / (n * (n - 1) // 2)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def decomposition_failures(dec: dict, expected_pw, pw_tol: float) -> list:
    """Identity and band-weight failures of one decomposition record.

    ``dec`` holds marginal, mutual_information, residual_global and a list of
    bands, each with label, p_w, residual_partial and info_partial.
    """
    bad = []
    bands = dec["bands"]
    labels = [b["label"] for b in bands]
    want = [f"w{k + 1}" for k in range(len(expected_pw))]
    if labels != want:
        return [f"band labels {labels} != {want}"]
    values = [dec["marginal"], dec["mutual_information"], dec["residual_global"]]
    values += [b[key] for b in bands for key in ("p_w", "residual_partial", "info_partial")]
    if not all(math.isfinite(v) for v in values):
        return ["non-finite value in decomposition"]
    for b, pw in zip(bands, expected_pw):
        if abs(b["p_w"] - pw) > pw_tol:
            bad.append(f"{b['label']} p_w {b['p_w']!r} != closed form {pw!r}")
    split = dec["marginal"] - dec["mutual_information"] - dec["residual_global"]
    res = sum(b["p_w"] * b["residual_partial"] for b in bands) - dec["residual_global"]
    mi = sum(b["p_w"] * b["info_partial"] for b in bands) - dec["mutual_information"]
    for name, gap in (("entropy split", split), ("residual sum", res), ("MI sum", mi)):
        if abs(gap) > IDENTITY_TOL:
            bad.append(f"{name} off by {gap:.3e}")
    return bad


def check_decompose_json(path, rows: int, cols: int) -> list:
    try:
        dec = json.loads(Path(path).read_text(encoding="ascii"))
        return decomposition_failures(
            dec, band_weights(rows, cols, default_breaks(rows, cols)), PW_TOL_JSON
        )
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable decomposition: {exc!r}"]


def _read_long(path) -> dict:
    """results_long.csv -> {(scenario, replicate, uniform_flag): {(measure, band): value}}."""
    grids: dict = {}
    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["scenario", "replicate", "uniform_flag", "measure", "band", "value"]:
            raise ValueError("unexpected results_long.csv header")
        for scenario, rep, uflag, measure, band, value in reader:
            grids.setdefault((scenario, int(rep), int(uflag)), {})[(measure, band)] = float(value)
    return grids


def _grid_failures(values: dict, categories: int, expected_pw) -> list:
    bands = []
    for k in range(len(expected_pw)):
        label = f"w{k + 1}"
        try:
            bands.append(
                {
                    "label": label,
                    "p_w": values[("p_w", label)],
                    "residual_partial": values[("residual_partial", label)],
                    "info_partial": values[("info_partial", label)],
                }
            )
        except KeyError:
            return [f"band {label} missing"]
    dec = {
        "marginal": values[("shannon_z", "")],
        "mutual_information": values[("mutual_information", "")],
        "residual_global": values[("residual_global", "")],
        "bands": bands,
    }
    bad = decomposition_failures(dec, expected_pw, PW_TOL_CSV)
    oneill = values[("oneill", "")]
    if abs(values[("parresol", "")] + oneill) > IDENTITY_TOL:
        bad.append("parresol != -oneill")
    if abs(values[("rc", "")] - (1.0 - oneill / math.log(categories**2))) > IDENTITY_TOL:
        bad.append("rc != 1 - oneill / log(I^2)")
    return bad


def check_experiment(out_dir, plan, replicates: int, rows: int, cols: int) -> list:
    """Checks on results_long.csv and summary.csv of one experiment run.

    ``plan`` is the (kind, categories) list of the design; every scenario must
    report its ``replicates`` replicates plus the equal-split one.
    """
    out_dir = Path(out_dir)
    try:
        grids = _read_long(out_dir / "results_long.csv")
        text = (out_dir / "summary.csv").read_text(encoding="ascii")
        summary = list(csv.reader(text.splitlines()))
    except (OSError, ValueError) as exc:
        return [f"unreadable experiment output: {exc!r}"]
    bad = []
    want = {
        (f"{kind}_x{cats}", rep, int(rep == replicates))
        for kind, cats in plan
        for rep in range(replicates + 1)
    }
    if set(grids) != want:
        missing = sorted(want - set(grids))[:3]
        bad.append(f"{len(want - set(grids))} grid(s) missing, e.g. {missing}")
    expected_pw = band_weights(rows, cols, default_breaks(rows, cols))
    cats_of = {f"{kind}_x{cats}": cats for kind, cats in plan}
    for key in sorted(set(grids) & want):
        try:
            fails = _grid_failures(grids[key], cats_of[key[0]], expected_pw)
        except KeyError as exc:
            fails = [f"measure {exc} missing"]
        bad.extend(f"{key}: {msg}" for msg in fails)

    keys = {
        (scenario, measure, band)
        for (scenario, _, uflag), vals in grids.items()
        if not uflag
        for measure, band in vals
    }
    if not summary or summary[0][:3] != ["scenario", "measure", "band"]:
        return bad + ["unexpected summary.csv header"]
    if len(summary) - 1 != len(keys):
        bad.append(f"summary has {len(summary) - 1} rows, expected {len(keys)}")
    for row in summary[1:]:
        try:
            quants = [float(x) for x in row[3:8]]
        except ValueError:
            quants = []
        if len(quants) != 5:
            bad.append(f"summary row {row[:3]} lacks five quantiles")
        elif all(math.isfinite(q) for q in quants) and quants != sorted(quants):
            bad.append(f"summary quantiles out of order for {row[:3]}")
    return bad
