"""Distance-band decomposition of the pair-category entropy.

Let Z be the unordered category pair at two pixels and W the distance band
of the pair.  The marginal pair entropy splits exactly into

    H(Z) = MI(Z, W) + H(Z)_W

where H(Z)_W = sum_k p(w_k) H(Z | w_k) is the spatial residual entropy (the
part of the pair entropy that survives after distance is known) and
MI(Z, W) is the spatial mutual information (the part explained by
distance).  Both terms split further band by band: H(Z | w_k) is the
partial residual entropy and PI(Z, w_k) = KL(p(Z | w_k) || p(Z)) the
partial information of band k, with MI = sum_k p(w_k) PI(Z, w_k).

The mutual information is computed twice, through the joint divergence and
through H(Z) - H(Z)_W; disagreement beyond tolerance raises instead of
returning either number.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cooccur import (
    CooccurrenceScheme,
    DistanceClassification,
    PairDistributions,
    PairSample,
    conditional_pmfs,
    enumerate_pairs,
)
from .errors import ConsistencyError, DegenerateDistributionWarning
from .lattice import CategoricalGrid
from .prob import (
    JointPmf,
    Pmf,
    joint_entropy,
    kl_divergence,
    mutual_information,
    shannon,
)

MI_AGREEMENT_TOL = 1e-10


def partial_residual(p_z_given_w: Pmf) -> float:
    """Residual entropy of one band: Shannon entropy of p(Z | w_k)."""
    return shannon(p_z_given_w)


def global_residual(p_w: Pmf, partials: Sequence[float]) -> float:
    """Spatial residual entropy: band-weighted mean of the partial residuals."""
    if len(partials) != len(p_w):
        raise ValueError("one partial residual per band is required")
    return float(np.dot(p_w.probs, np.asarray(partials, dtype=np.float64)))


def partial_information(p_z_given_w: Pmf, p_z: Pmf) -> float:
    """Partial information of one band: KL(p(Z | w_k) || p(Z))."""
    return kl_divergence(p_z_given_w, p_z)


def spatial_mutual_information(joint: JointPmf) -> float:
    """MI(Z, W) from the pair-category x band joint distribution.

    Evaluated both as the joint-vs-product divergence and as
    H(Z) - H(Z | W), with H(Z | W) = H(Z, W) - H(W) so that empty bands need
    no special case; the routes must agree within MI_AGREEMENT_TOL or a
    ConsistencyError is raised.
    """
    mi = mutual_information(joint)
    h_z = shannon(joint.row_marginal())
    h_res = joint_entropy(joint) - shannon(joint.col_marginal())
    alt = h_z - h_res
    if abs(mi - alt) > MI_AGREEMENT_TOL:
        raise ConsistencyError(
            f"mutual information routes disagree: {mi!r} vs {alt!r}"
        )
    return mi


def proportional_mi(decomposition: "EntropyDecomposition") -> float:
    """Share of the pair entropy explained by space: MI / H(Z), in [0, 1].

    A constant grid has H(Z) = 0; that degenerate ratio is defined as 0 and
    flagged with a DegenerateDistributionWarning.
    """
    if decomposition.marginal == 0.0:
        warnings.warn(
            "proportional mutual information of a zero-entropy grid is defined as 0",
            DegenerateDistributionWarning,
            stacklevel=2,
        )
        return 0.0
    return decomposition.mutual_information / decomposition.marginal


@dataclass(frozen=True)
class BandDecomposition:
    """Per-band terms: weight, pair count, partial residual, partial information."""

    label: str
    p_w: float
    pair_count: int
    residual_partial: float
    info_partial: float
    empty: bool = False


@dataclass(frozen=True)
class EntropyDecomposition:
    """Complete decomposition of the pair entropy of one grid.

    ``marginal`` is H(Z); ``residual_global`` and ``mutual_information`` sum
    to it; ``mi_proportional`` is their ratio MI / H(Z) (0, flagged, when
    H(Z) = 0, recorded by ``degenerate``).
    """

    marginal: float
    residual_global: float
    mutual_information: float
    mi_proportional: float
    bands: tuple
    degenerate: bool = False

    def band(self, label: str) -> BandDecomposition:
        for b in self.bands:
            if b.label == label:
                return b
        raise KeyError(label)

    def to_json(self, indent: int = 2) -> str:
        payload = {
            "marginal": self.marginal,
            "residual_global": self.residual_global,
            "mutual_information": self.mutual_information,
            "mi_proportional": self.mi_proportional,
            "degenerate": self.degenerate,
            "bands": [
                {
                    "label": b.label,
                    "p_w": b.p_w,
                    "residual_partial": b.residual_partial,
                    "info_partial": b.info_partial,
                }
                for b in self.bands
            ],
        }
        return json.dumps(payload, indent=indent)

    def to_csv_row(self) -> str:
        """Flat one-row CSV with a header, wide over bands."""
        header = ["marginal", "residual_global", "mutual_information", "mi_proportional"]
        row = [
            self.marginal,
            self.residual_global,
            self.mutual_information,
            self.mi_proportional,
        ]
        for b in self.bands:
            header += [f"{b.label}_p_w", f"{b.label}_residual_partial", f"{b.label}_info_partial"]
            row += [b.p_w, b.residual_partial, b.info_partial]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerow(f"{x:.12g}" for x in row)
        return buf.getvalue()


def decompose_distributions(
    dists: PairDistributions, pair_counts: Sequence[int] | None = None
) -> EntropyDecomposition:
    """Decomposition from already-estimated pair distributions.

    ``pair_counts`` optionally supplies the per-band pair counts Q_k for the
    report; frequencies alone carry no sample size.
    """
    p_w = dists.p_w
    p_z = dists.p_z
    h_z = shannon(p_z)
    if pair_counts is None:
        pair_counts = [0] * len(p_w)

    bands = []
    partials = []
    infos = []
    for k, label in enumerate(p_w.labels):
        cond = dists.conditionals[k]
        if cond is None:
            partials.append(0.0)
            infos.append(0.0)
            bands.append(
                BandDecomposition(label, 0.0, int(pair_counts[k]), 0.0, 0.0, empty=True)
            )
            continue
        h_k = partial_residual(cond)
        pi_k = partial_information(cond, p_z)
        partials.append(h_k)
        infos.append(pi_k)
        bands.append(
            BandDecomposition(
                label, float(p_w.probs[k]), int(pair_counts[k]), h_k, pi_k
            )
        )
    h_res = global_residual(p_w, partials)
    mi = spatial_mutual_information(dists.joint)

    mi_from_bands = float(np.dot(p_w.probs, np.asarray(infos)))
    if abs(mi - mi_from_bands) > MI_AGREEMENT_TOL:
        raise ConsistencyError(
            f"band-weighted partial information {mi_from_bands!r} "
            f"disagrees with mutual information {mi!r}"
        )

    degenerate = h_z == 0.0
    mi_prop = 0.0 if degenerate else mi / h_z
    return EntropyDecomposition(
        marginal=h_z,
        residual_global=h_res,
        mutual_information=mi,
        mi_proportional=mi_prop,
        bands=tuple(bands),
        degenerate=degenerate,
    )


def decompose(
    grid: CategoricalGrid,
    classification: DistanceClassification | None = None,
) -> EntropyDecomposition:
    """Decompose the unordered pair entropy of a grid over distance bands.

    Uses the default distance classification for the grid when none is
    given.  The unordered pair coding is the canonical choice here: an
    ordered coding would count the same unordered pixel pair twice in
    opposite orientations.
    """
    if classification is None:
        classification = DistanceClassification.default_for(grid)
    scheme = CooccurrenceScheme(grid.num_categories, ordered=False)
    return decompose_sample(enumerate_pairs(grid, classification, scheme))


def decompose_sample(sample: PairSample) -> EntropyDecomposition:
    """Decomposition of a pair tally over its own bands and pair coding."""
    dists = conditional_pmfs(sample)
    return decompose_distributions(dists, pair_counts=sample.pair_counts)
