"""Spatial entropy measures for categorical lattice data.

The core idea: turn a categorical map into a distribution over co-occurrence
pairs, classify each pair by the distance between its pixels, and split the
map's pair entropy into a mutual-information part (how much the distance
class tells you about the pair type) and a residual part.  Classical spatial
entropy indices are provided alongside for comparison, plus seeded scenario
generators and a command line interface for batch experiments.
"""

from .classic import (
    AreaNeighbourhood,
    AreaProbabilities,
    batty_entropy,
    build_area_neighbourhood,
    estimate_area_probs,
    karlstrom_entropy,
    leibovici_entropy,
    oneill_entropy,
    parresol_edwards_entropy,
    relative_contagion,
)
from .cooccur import (
    CooccurrenceScheme,
    DistanceClassification,
    PairSample,
    count_categories,
    enumerate_pairs,
    enumerate_pairs_bruteforce,
)
from .decomp import (
    conditional_pmfs,
    decompose,
    spatial_mutual_information,
)
from .errors import (
    AbsoluteContinuityError,
    ConsistencyError,
    CoverageError,
    DegenerateDistributionWarning,
    InvalidDistributionError,
)
from .lattice import (
    UNIFORM_PARTITION,
    AreaPartition,
    CategoricalGrid,
    partition_window,
    pixel_distance,
    read_grid,
    read_partition,
    window_diagonal,
    write_grid,
    write_partition,
)
from .prob import (
    JointPmf,
    Pmf,
    as_pmf,
    conditional_entropy,
    kl_divergence,
    mutual_information,
    shannon,
)
from .simgen import (
    SCENARIOS,
    ScenarioSpec,
    arrange,
    draw_counts,
    generate,
    replicate_seed,
)

__version__ = "0.1.0"

__all__ = [
    "AbsoluteContinuityError",
    "AreaNeighbourhood",
    "AreaPartition",
    "AreaProbabilities",
    "CategoricalGrid",
    "ConsistencyError",
    "CooccurrenceScheme",
    "CoverageError",
    "DegenerateDistributionWarning",
    "DistanceClassification",
    "InvalidDistributionError",
    "JointPmf",
    "PairSample",
    "Pmf",
    "SCENARIOS",
    "ScenarioSpec",
    "UNIFORM_PARTITION",
    "arrange",
    "as_pmf",
    "batty_entropy",
    "build_area_neighbourhood",
    "conditional_entropy",
    "conditional_pmfs",
    "count_categories",
    "decompose",
    "draw_counts",
    "enumerate_pairs",
    "enumerate_pairs_bruteforce",
    "estimate_area_probs",
    "generate",
    "karlstrom_entropy",
    "kl_divergence",
    "leibovici_entropy",
    "mutual_information",
    "oneill_entropy",
    "parresol_edwards_entropy",
    "partition_window",
    "pixel_distance",
    "read_grid",
    "read_partition",
    "relative_contagion",
    "replicate_seed",
    "shannon",
    "spatial_mutual_information",
    "write_grid",
    "write_partition",
]
