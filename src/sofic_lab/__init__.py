"""Random uniform and planted homomorphisms into symmetric groups, the induced
k-uniform hypergraphs and their proper 2-colorings: samplers, exact counts,
growth-rate analytics, core/rigidity structure, and the tree Markov measure."""

from ._errors import ScaleRefusal
from .analytics import (
    balance_polynomial,
    bias_of_distance,
    core_fixed_point,
    cross_entropy2,
    degrees_from_offset,
    distance_of_bias,
    distance_rate_scan,
    dominant_type,
    entropy2,
    entropy_gap_report,
    optimal_pair_type,
    planted_distance_rate,
    proper_rate,
    type_rate,
    working_precision,
)
from .exact_count import (
    cluster_size,
    count_at_distance,
    count_good_colorings,
    count_proper,
    exact_first_moment,
    exact_planted_distance_moment,
    is_good_coloring,
    proper_colorings,
    proper_equitable_colorings,
)
from .group_model import (
    ModelParams,
    UniformHom,
    check_sofic,
    enumerate_uniform_homs,
    evaluate_word,
    reduce_word,
    uniform_hom_count,
)
from .hypergraph import (
    Coloring,
    LabeledHypergraph,
    build_hypergraph,
    generator_type,
    monochromatic_edge_count,
)
from .samplers import RngState, sample_planted_hom, sample_uniform_hom
from .structure import (
    core_decomposition,
    density_report,
    expansivity_scan,
    rigidity_violation_search,
)
from .tree_markov import (
    core_density_estimate,
    cylinder_probability,
    local_pattern_census,
    sample_proper_pattern,
    single_edge_domain,
)

__all__ = [
    "ScaleRefusal",
    "ModelParams",
    "UniformHom",
    "check_sofic",
    "enumerate_uniform_homs",
    "evaluate_word",
    "reduce_word",
    "uniform_hom_count",
    "Coloring",
    "LabeledHypergraph",
    "build_hypergraph",
    "generator_type",
    "monochromatic_edge_count",
    "RngState",
    "sample_planted_hom",
    "sample_uniform_hom",
    "cluster_size",
    "count_at_distance",
    "count_good_colorings",
    "count_proper",
    "exact_first_moment",
    "exact_planted_distance_moment",
    "is_good_coloring",
    "proper_colorings",
    "proper_equitable_colorings",
    "balance_polynomial",
    "bias_of_distance",
    "core_fixed_point",
    "cross_entropy2",
    "degrees_from_offset",
    "distance_of_bias",
    "distance_rate_scan",
    "dominant_type",
    "entropy2",
    "entropy_gap_report",
    "optimal_pair_type",
    "planted_distance_rate",
    "proper_rate",
    "type_rate",
    "working_precision",
    "core_decomposition",
    "density_report",
    "expansivity_scan",
    "rigidity_violation_search",
    "core_density_estimate",
    "cylinder_probability",
    "local_pattern_census",
    "sample_proper_pattern",
    "single_edge_domain",
    "ExperimentConfig",
    "load_instance",
    "run_experiment",
    "save_instance",
]

_HARNESS_NAMES = frozenset(
    {"ExperimentConfig", "load_instance", "run_experiment", "save_instance"}
)


def __getattr__(name):
    # the harness is imported on demand so that running it as a module
    # (python3 -m sofic_lab.harness) does not trip runpy's reimport warning
    if name in _HARNESS_NAMES:
        from . import harness

        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
