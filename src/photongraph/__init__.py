"""photongraph: pair-source experiments as edge-labeled multigraphs.

The post-selected multiphoton state of a setup is the coherent superposition
of the perfect matchings of its graph.  This package provides the graph
model with canonical serialization, exact matching enumeration and counting
kernels (hafnian / permanent), state synthesis and target search,
matchability witnesses, a setup compiler and random-network statistics.

Importing the package loads none of its modules.  Each public name, and
each submodule (``photongraph.states`` and so on), is imported from its
home module on first access (PEP 562) and then kept in the package
namespace, so a short CLI call pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Public name -> home module, by module.
_EXPORTS = {
    "errors": (
        "PhotonGraphError",
        "GraphParseError",
        "DomainError",
        "NotBipartiteError",
        "ScaleLimitError",
        "FullyFrustratedError",
    ),
    "graph": (
        "Edge",
        "ExperimentGraph",
        "parse_graph",
        "serialize_graph",
        "merge_graphs",
        "random_graph",
        "complete_graph",
        "vertex_names",
        "to_dot",
    ),
    "matching": (
        "Factorization",
        "LayerReport",
        "enumerate_pm",
        "count_pm_formula",
        "max_disjoint_pms",
        "ghz_dimension_bound",
        "enumerate_factorizations",
        "classify_layers",
        "scan_ghz_dimension",
        "is_coincidence_cover",
    ),
    "counting": ("hafnian", "permanent", "matrix_counts"),
    "states": (
        "QuantumState",
        "state_from_graph",
        "is_ghz_like",
        "states_equal",
        "verify_target",
        "search_graph_for_state",
        "frustration_scan",
        "parse_state",
        "serialize_state",
    ),
    "feasibility": ("HallWitness", "TutteWitness", "hall_check", "tutte_check"),
    "compiler": ("SetupPlan", "synthesize_setup", "plan_to_graph", "serialize_plan", "parse_plan", "render_plan"),
    "networks": ("EnsembleReport", "ensemble_scan", "network_amplitude", "network_state", "trial_seed"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
