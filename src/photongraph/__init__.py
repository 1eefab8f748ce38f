"""photongraph: pair-source experiments as edge-labeled multigraphs.

The post-selected multiphoton state of a setup is the coherent superposition
of the perfect matchings of its graph.  This package provides the graph
model with canonical serialization, exact matching enumeration and counting
kernels (hafnian / permanent), state synthesis and target search,
matchability witnesses, a setup compiler and random-network statistics.
"""

from .compiler import SetupPlan, parse_plan, plan_to_graph, render_plan, serialize_plan, synthesize_setup
from .counting import count_pm_via_matrix, hafnian, matrix_counts, permanent
from .errors import (
    DomainError,
    FullyFrustratedError,
    GraphParseError,
    NotBipartiteError,
    PhotonGraphError,
    ScaleLimitError,
)
from .feasibility import HallWitness, TutteWitness, hall_check, tutte_check
from .graph import (
    Edge,
    ExperimentGraph,
    complete_graph,
    merge_graphs,
    parse_graph,
    random_graph,
    serialize_graph,
    to_dot,
    vertex_names,
)
from .matching import (
    Factorization,
    LayerReport,
    classify_layers,
    count_pm_formula,
    enumerate_factorizations,
    enumerate_pm,
    ghz_dimension_bound,
    is_coincidence_cover,
    max_disjoint_pms,
    scan_ghz_dimension,
)
from .networks import EnsembleReport, ensemble_scan, network_amplitude, network_state, trial_seed
from .states import (
    QuantumState,
    frustration_scan,
    is_ghz_like,
    parse_state,
    search_graph_for_state,
    serialize_state,
    state_from_graph,
    states_equal,
    verify_target,
)

__version__ = "0.1.0"

__all__ = [
    "Edge",
    "ExperimentGraph",
    "QuantumState",
    "SetupPlan",
    "Factorization",
    "LayerReport",
    "HallWitness",
    "TutteWitness",
    "EnsembleReport",
    "PhotonGraphError",
    "GraphParseError",
    "DomainError",
    "NotBipartiteError",
    "ScaleLimitError",
    "FullyFrustratedError",
    "parse_graph",
    "serialize_graph",
    "merge_graphs",
    "random_graph",
    "complete_graph",
    "vertex_names",
    "to_dot",
    "enumerate_pm",
    "count_pm_formula",
    "max_disjoint_pms",
    "ghz_dimension_bound",
    "enumerate_factorizations",
    "classify_layers",
    "scan_ghz_dimension",
    "is_coincidence_cover",
    "hafnian",
    "permanent",
    "count_pm_via_matrix",
    "matrix_counts",
    "state_from_graph",
    "is_ghz_like",
    "states_equal",
    "verify_target",
    "search_graph_for_state",
    "frustration_scan",
    "parse_state",
    "serialize_state",
    "hall_check",
    "tutte_check",
    "synthesize_setup",
    "plan_to_graph",
    "serialize_plan",
    "parse_plan",
    "render_plan",
    "ensemble_scan",
    "network_amplitude",
    "network_state",
    "trial_seed",
]
