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

Every term comes from one table, the pair-category counts per distance
band (row differences of ``cooccur.pairs_within``), and this module is the
only place that turns it into laws: p(W), p(Z), the band conditionals and
the joint table, all relative frequencies.  ``decompose_counts`` reads them
as plain arrays, ``decompose`` tallies a grid and calls it, and
``conditional_pmfs`` returns the same arrays as ``Pmf``/``JointPmf``.

``decompose_counts`` checks every decomposition against six identities
once, before it returns it, and the result carries the six residuals
(``EntropyDecomposition.residuals``): the estimated pmfs sum to 1, the band
conditionals mix back into p(Z), the entropy split holds, the mutual
information agrees with H(Z) - (H(Z, W) - H(W)), and the band-weighted
partial terms sum to MI and to H(Z)_W.  A residual beyond MI_AGREEMENT_TOL
raises ConsistencyError instead of returning the numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .cooccur import DistanceClassification, PairSample, fold_counts, pairs_within
from .errors import ConsistencyError
from .lattice import CategoricalGrid
from .prob import JointPmf, Pmf, _plogp, mutual_information

MI_AGREEMENT_TOL = 1e-10
# characters a band label cannot hold: ``to_csv_row`` writes labels unquoted
_CSV_SPECIAL = frozenset(',"\r\n')


def spatial_mutual_information(joint: JointPmf) -> float:
    """MI(Z, W) from the pair-category x band joint distribution.

    The divergence of the joint from the product of its marginals; its
    agreement with the entropy route is the ``mi-dual-route`` residual of
    ``EntropyDecomposition.residuals``.
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
    H(Z) = 0, recorded by ``degenerate``).  ``residuals`` maps each identity
    that ``decompose_counts`` checked to its residual (see ``_residuals``);
    it is left out of ``==``, ``repr`` and the JSON and CSV forms.
    """

    marginal: float
    residual_global: float
    mutual_information: float
    mi_proportional: float
    bands: tuple
    residuals: MappingProxyType = field(compare=False, repr=False)
    degenerate: bool = False

    def band(self, label: str) -> BandDecomposition:
        for b in self.bands:
            if b.label == label:
                return b
        raise KeyError(label)

    def to_json(self) -> str:
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
        return json.dumps(payload, indent=2)

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
        # decompose_counts admits no label that needs quoting
        return ",".join(header) + "\n" + ",".join(f"{x:.12g}" for x in row) + "\n"


def _laws(counts: np.ndarray) -> tuple:
    """(p_w, p_z, conds, joint): the relative frequencies of a pair-count table.

    ``counts`` is (nb, nz); ``conds`` (nb, nz) holds a zero row for each
    band of zero weight, and ``joint`` is the C-contiguous (nz, nb) pair
    category x band table.  ``decompose_counts`` takes the terms and the
    identity residuals of a decomposition from these same arrays.
    """
    q = counts.sum(axis=1)
    total = int(q.sum())
    if total == 0:
        raise ValueError("sample contains no pairs")
    conds = counts / np.maximum(q, 1)[:, None]  # an empty band's row stays zero
    joint = np.ascontiguousarray(counts.T) / total
    return q / total, counts.sum(axis=0) / total, conds, joint


@dataclass(frozen=True)
class PairDistributions:
    """Estimated distributions of one PairSample.

    ``p_w``: band weights Q_k / Q.  ``conditionals[k]``: pair-category pmf
    within band k, or None for an empty band.  ``p_z``: the pooled marginal,
    i.e. the Q-weighted mixture of the conditionals.  ``joint``: pair
    category x band, whose marginals reproduce p_z and p_w.
    """

    p_w: Pmf
    conditionals: tuple
    p_z: Pmf
    joint: JointPmf


def conditional_pmfs(sample: PairSample) -> PairDistributions:
    """The laws of a tally's count table (``_laws``), as validated pmfs."""
    p_w, p_z, conds, joint = _laws(sample.category_counts)
    bands, z_labels = sample.classification.labels, sample.scheme.category_labels()
    return PairDistributions(
        Pmf(bands, p_w),
        tuple(Pmf(z_labels, c) if w > 0.0 else None for w, c in zip(p_w, conds)),
        Pmf(z_labels, p_z),
        JointPmf(z_labels, bands, joint),
    )


def decompose_counts(counts: np.ndarray, labels) -> EntropyDecomposition:
    """Decomposition of a (num_bands, num_z_categories) int64 pair-count table.

    ``labels`` names the bands.  The laws are relative frequencies: p(w_k)
    = Q_k / Q, p(Z) the pooled counts over Q, p(Z | w_k) band k's counts
    over Q_k.  The result carries its six identity ``residuals``; raises
    ConsistencyError, naming the worst identity, when any exceeds
    MI_AGREEMENT_TOL.  A label holding a comma, a double quote, CR or LF
    raises ValueError, since the CSV row could not carry it.
    """
    for label in labels:
        if not _CSV_SPECIAL.isdisjoint(label):
            raise ValueError(f"band label {label!r} holds a comma, quote or line break")
    p_w, p_z, conds, joint = _laws(counts)
    # the summands of every band's H(Z | w_k) and PI(Z, w_k) over the support
    # of the table, band after band; each band sums its own run, in support
    # order, as _plogp and _kl do
    live = conds > 0.0
    pos = conds[live]
    terms = np.empty((2, pos.size))
    np.log(pos, out=terms[0])
    np.log(pos / np.broadcast_to(p_z, conds.shape)[live], out=terms[1])
    terms *= pos
    ends = np.cumsum(np.count_nonzero(live, axis=1)).tolist()
    partials = np.zeros(len(ends))
    infos = np.zeros(len(ends))
    start = 0
    for k, end in enumerate(ends):
        if end > start:  # a live band: an empty one keeps its zeros
            h, infos[k] = terms[:, start:end].sum(axis=1)
            partials[k] = -h + 0.0  # + 0.0 folds -0.0 into 0.0
        start = end
    h_z = _plogp(p_z)
    mi = mutual_information(joint)
    h_zw = float(np.dot(p_w, partials))
    residuals = _residuals(p_w, p_z, conds, joint, h_z, mi, h_zw, partials, infos)
    failed = {name: r for name, r in residuals.items() if not r <= MI_AGREEMENT_TOL}
    if failed:
        worst = max(failed, key=failed.get)
        raise ConsistencyError(
            f"decomposition identity {worst} misses by {failed[worst]:.3e} "
            f"(tolerance {MI_AGREEMENT_TOL:g}); failing: {', '.join(failed)}"
        )

    bands = tuple(
        BandDecomposition(label, w, n, h, i, empty=w == 0.0)
        for label, w, n, h, i in zip(
            labels, p_w.tolist(), counts.sum(axis=1).tolist(), partials.tolist(), infos.tolist()
        )
    )
    degenerate = h_z == 0.0
    return EntropyDecomposition(
        marginal=h_z,
        residual_global=h_zw,
        mutual_information=mi,
        mi_proportional=0.0 if degenerate else mi / h_z,
        bands=bands,
        residuals=MappingProxyType(residuals),
        degenerate=degenerate,
    )


def _residuals(p_w, p_z, conds, joint, h_z, mi, h_zw, partials, infos) -> dict[str, float]:
    """Absolute residual of every identity linking H(Z), MI and H(Z)_W to the laws.

    pmf-mass              p(W), p(Z) and every p(Z | w_k) sum to 1
    mixture-consistency   sum_k p(w_k) p(Z | w_k) = p(Z), worst label
    entropy-split         H(Z) = MI(Z, W) + H(Z)_W
    mi-dual-route         MI(Z, W) = H(Z) - (H(Z, W) - H(W))
    mi-aggregation        MI(Z, W) = sum_k p(w_k) PI(Z, w_k)
    residual-aggregation  H(Z)_W = sum_k p(w_k) H(Z | w_k)

    ``partials`` and ``infos`` are the bands' H(Z | w_k) and PI(Z, w_k).
    The dual route needs no empty-band case: H(Z, W) - H(W) is H(Z | W)
    with zero-mass bands contributing nothing.
    """
    h_z_given_w = _plogp(joint.ravel()) - _plogp(p_w)
    masses = (p_w.sum(), p_z.sum(), *conds[p_w > 0.0].sum(axis=1))
    return {
        "pmf-mass": float(max(abs(m - 1.0) for m in masses)),
        "mixture-consistency": float(np.max(np.abs(p_w @ conds - p_z))),
        "entropy-split": abs(h_z - mi - h_zw),
        "mi-dual-route": abs(mi - (h_z - h_z_given_w)),
        "mi-aggregation": abs(mi - float(np.dot(p_w, infos))),
        "residual-aggregation": abs(h_zw - float(np.dot(p_w, partials))),
    }


def decompose(
    grid: CategoricalGrid,
    classification: DistanceClassification | None = None,
    *,
    ordered: bool = False,
) -> EntropyDecomposition:
    """Decompose the pair entropy of a grid over distance bands.

    Uses the default distance classification for the grid when none is
    given.  The unordered pair coding is the default: an ordered coding
    (``ordered=True``) tells the pair (a, b), read from the row-major-first
    pixel, from (b, a).
    """
    if classification is None:
        classification = DistanceClassification.default_for(grid)
    counts = np.diff(pairs_within(grid, classification), axis=0)
    if not ordered:
        counts = fold_counts(counts, grid.num_categories)
    return decompose_counts(counts, classification.labels)
