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

Every decomposition is checked against six identities before it is
returned (``identity_residuals``): the estimated pmfs sum to 1, the band
conditionals mix back into p(Z), the entropy split holds, the mutual
information agrees with H(Z) - (H(Z, W) - H(W)), and the band-weighted
partial terms sum to MI and to H(Z)_W.  A residual beyond MI_AGREEMENT_TOL
raises ConsistencyError instead of returning the numbers.
"""

from __future__ import annotations

import csv
import io
import json
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
from .errors import ConsistencyError
from .lattice import CategoricalGrid
from .prob import (
    JointPmf,
    joint_entropy,
    kl_divergence,
    mutual_information,
    shannon,
)

MI_AGREEMENT_TOL = 1e-10


def spatial_mutual_information(joint: JointPmf) -> float:
    """MI(Z, W) from the pair-category x band joint distribution.

    The divergence of the joint from the product of its marginals; its
    agreement with the entropy route is one of ``identity_residuals``.
    """
    return mutual_information(joint)


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
    dists: PairDistributions, pair_counts: Sequence[int]
) -> EntropyDecomposition:
    """Decomposition from already-estimated pair distributions.

    ``pair_counts`` supplies the per-band pair counts Q_k for the report;
    frequencies alone carry no sample size.  Raises ConsistencyError,
    naming the worst identity, when any of ``identity_residuals`` exceeds
    MI_AGREEMENT_TOL.
    """
    p_w = dists.p_w
    p_z = dists.p_z
    h_z = shannon(p_z)

    bands = []
    for k, (label, cond) in enumerate(zip(p_w.labels, dists.conditionals)):
        if cond is None:
            bands.append(BandDecomposition(label, 0.0, int(pair_counts[k]), 0.0, 0.0, empty=True))
        else:
            bands.append(
                BandDecomposition(
                    label,
                    float(p_w.probs[k]),
                    int(pair_counts[k]),
                    shannon(cond),
                    kl_divergence(cond, p_z),
                )
            )
    partials = np.array([b.residual_partial for b in bands])
    mi = mutual_information(dists.joint)
    degenerate = h_z == 0.0
    dec = EntropyDecomposition(
        marginal=h_z,
        residual_global=float(np.dot(p_w.probs, partials)),
        mutual_information=mi,
        mi_proportional=0.0 if degenerate else mi / h_z,
        bands=tuple(bands),
        degenerate=degenerate,
    )

    failed = {
        name: r for name, r in identity_residuals(dists, dec).items() if not r <= MI_AGREEMENT_TOL
    }
    if failed:
        worst = max(failed, key=failed.get)
        raise ConsistencyError(
            f"decomposition identity {worst} misses by {failed[worst]:.3e} "
            f"(tolerance {MI_AGREEMENT_TOL:g}); failing: {', '.join(failed)}"
        )
    return dec


def identity_residuals(
    dists: PairDistributions, dec: EntropyDecomposition
) -> dict[str, float]:
    """Absolute residual of every identity linking ``dec`` to ``dists``.

    pmf-mass              p(W), p(Z) and every p(Z | w_k) sum to 1
    mixture-consistency   sum_k p(w_k) p(Z | w_k) = p(Z), worst label
    entropy-split         H(Z) = MI(Z, W) + H(Z)_W
    mi-dual-route         MI(Z, W) = H(Z) - (H(Z, W) - H(W))
    mi-aggregation        MI(Z, W) = sum_k p(w_k) PI(Z, w_k)
    residual-aggregation  H(Z)_W = sum_k p(w_k) H(Z | w_k)

    The dual route needs no empty-band case: H(Z, W) - H(W) is H(Z | W)
    with zero-mass bands contributing nothing.
    """
    p_w = dists.p_w.probs
    p_z = dists.p_z.probs
    conds = np.array(
        [np.zeros_like(p_z) if c is None else c.probs for c in dists.conditionals]
    )
    filled = [c is not None for c in dists.conditionals]
    weights = np.array([b.p_w for b in dec.bands])
    infos = np.array([b.info_partial for b in dec.bands])
    partials = np.array([b.residual_partial for b in dec.bands])
    h_z_given_w = joint_entropy(dists.joint) - shannon(dists.p_w)
    mass = np.abs(np.concatenate(([p_w.sum(), p_z.sum()], conds[filled].sum(axis=1))) - 1.0)
    return {
        "pmf-mass": float(mass.max()),
        "mixture-consistency": float(np.max(np.abs(p_w @ conds - p_z))),
        "entropy-split": abs(dec.marginal - dec.mutual_information - dec.residual_global),
        "mi-dual-route": abs(dec.mutual_information - (dec.marginal - h_z_given_w)),
        "mi-aggregation": abs(dec.mutual_information - float(np.dot(weights, infos))),
        "residual-aggregation": abs(dec.residual_global - float(np.dot(weights, partials))),
    }


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
