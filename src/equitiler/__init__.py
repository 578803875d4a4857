"""Equitable colorings and clique factors under degree-sum conditions."""

from .graphs import (
    Graph,
    VertexSet,
    OreStats,
    sigma,
    complement,
    ore_edge_bound,
    low_degree_set,
    find_clique_of_size,
)
from .oracle import (
    Tiling,
    Coloring,
    LayeredFactor,
    kr_factor_exact,
    equitable_coloring_exact,
)
from .matching import (
    Matching,
    maximum_matching,
    covering_matching,
    pm_or_structure,
    TutteBarrier,
)
from .extremal import (
    Ex1Witness,
    Ex2Witness,
    CliqueObstruction,
    BicliqueObstruction,
    build_ex1_like,
    build_ex2,
    build_obstruction,
    independent_set_of_size,
    recognize_extremal,
)
from .constants import ConstantsConfig, default_constants
from .partition import (
    RsPartition,
    VertexClassification,
    GoodPartition,
    RefinementTrace,
    peel_partition,
    classify,
    refine_to_good,
    validate_good,
)
from .tiling import (
    SingleBase,
    DoubleBase,
    BaseSet,
    base_slack,
    cover_exceptional,
    cover_nonexcellent,
    extend_base,
    strip_tiling,
    contract_residual,
    multipartite_factor,
    parity_repair,
)
from .absorbing import (
    AbsorberFamily,
    AbsorbingSet,
    AugmentationMove,
    absorb,
    build_absorbing_set,
    enumerate_absorbers,
    find_augmentation,
    layered_greedy,
)
from .decide import (
    FALLBACK_CAP,
    DecisionCertificate,
    coloring_obstruction,
    decide_equitable,
    decide_kr_factor,
    lift_coloring,
    pad_to_divisible,
)
from .certificates import (
    SCHEMA,
    certificate_from_json,
    certificate_to_json,
    payload_clauses,
    verify_certificate,
    vertex_sets_from_json,
)
from .graphio import (
    GraphParseError,
    parse_edgelist,
    parse_dimacs,
    write_edgelist,
    write_dimacs,
    loads,
    dumps,
)
from .generators import FAMILIES, generate, random_gnp, random_ore
from .sweep import CHECKS, SweepReport, resolve_threads, sweep
from .errors import PreconditionError, InternalContradiction

__version__ = "0.1.0"
