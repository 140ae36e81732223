"""Exact computations with metric betweenness, degenerate triangles, weak
hypergraph saturation, line reconstruction, and metric realizability of
small 3-uniform hypergraphs.

Importing the package loads none of its modules: each public name imports
its module on first access, so a command pays only for what it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_HOME = {
    name: module
    for module, names in {
        "errors": "LinesatError",
        "hypergraph": "UniformHypergraph complement complete_hypergraph delete_vertex rank "
        "star_construction unrank",
        "lines": "anchor_via_closure check_order reconstruct_line verify_non_anchor_witness",
        "metric": "DistanceMatrix Graph betweenness degenerate_hypergraph four_cycle_metric "
        "graph_metric line_metric middle_of random_rational_metric theta_graph validate_metric",
        "realizability": "MiddleAssignment RealizabilityVerdict is_metric_hypergraph "
        "lp_max_slack minimal_nonmetric_audit nineteen_edge_hypergraph propagate",
        "saturation": "ClosureCertificate ClosureResult exhaustive_size_check "
        "is_weakly_saturated min_saturation_search verify_certificate "
        "weak_saturation_closure",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
