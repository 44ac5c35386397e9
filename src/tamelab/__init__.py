"""tamelab: a desk-scale lab for symbolic codings.

Build rotation/arithmetic sequence families exactly, enumerate their
window languages, search for free (interpolation) coordinate sets,
estimate entropy along coordinate sequences, and probe bounded function
families for independence, l1 lower bounds, non-sensitivity, and
bounded variation.
"""

__version__ = "0.1.0"

from .classify import ClassifyParams, EvidenceReport, classify, probe_projection_growth
from .entropy import EntropySeries, entropy_estimate, sequence_entropy_estimate
from .families import (
    FunctionSample,
    GridCover,
    IndependenceWitness,
    epsilon_ns,
    find_independent_subfamily,
    l1_lower_bound,
    orbit_family_sample,
    total_variation,
)
from .freeset import (
    FreeSearchBudget,
    FreeSearchResult,
    FreeSetCertificate,
    brute_force_free_oracle,
    is_free,
    max_free_set,
)
from .language import (
    CoordSet,
    PatternSet,
    WindowLanguage,
    complexity,
    count_contiguous,
    patterns_on,
    project,
)
from .sources import (
    SeqSource,
    SeqWindow,
    materialize,
    read_window,
    write_window,
)
from .torus import (
    BallRegion,
    CutPartition,
    RotationSpec,
    TorusPoint,
    ball_contains,
    parse_fraction,
    rotate_add,
)

__all__ = [name for name in dir() if not name.startswith("_")]
