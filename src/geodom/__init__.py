"""Boundary vertices, x-geodomination, and geodetic sets on connected
graphs, with product constructions and brute-force verification oracles."""

import importlib

from .boundary import (
    BoundaryResult,
    GeodominationCheck,
    boundary,
    geodetic_from_boundary,
    is_x_geodominating,
    min_gx_vertex,
)
from .graph import (
    DisconnectedError,
    DistanceMatrix,
    Graph,
    GraphError,
    ParseError,
    VertexSet,
    all_pairs,
    bfs_distances,
    complete_graph,
    cycle_graph,
    emit_graph,
    geodesic_sweep,
    geodetic_closure,
    interval,
    is_connected,
    is_geodetic,
    parse_graph,
    path_graph,
    simplicial_vertices,
    star_graph,
)

# Every command needs graph and boundary, so they load eagerly; boundary
# must anyway, since the function `boundary` shares its submodule's name:
# importing a submodule binds it as a package attribute, and __getattr__
# runs only for missing names. The oracle and product layers load on
# first use.
_LAZY = {
    **dict.fromkeys(
        (
            "GraphGenSpec",
            "OracleResult",
            "VerificationReport",
            "enumerate_connected_graphs",
            "find_simplicial_counterexample",
            "geodetic_number_bruteforce",
            "min_x_geodominating_bruteforce",
            "random_connected_graph",
            "random_graph_corpus",
            "verify_unique_minimum",
        ),
        "oracles",
    ),
    **dict.fromkeys(
        (
            "ProductGraph",
            "ProductKind",
            "ProductReport",
            "product",
            "product_distance",
            "product_reports",
        ),
        "products",
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "Graph",
    "DistanceMatrix",
    "VertexSet",
    "GraphError",
    "ParseError",
    "DisconnectedError",
    "parse_graph",
    "emit_graph",
    "is_connected",
    "bfs_distances",
    "all_pairs",
    "geodesic_sweep",
    "interval",
    "geodetic_closure",
    "is_geodetic",
    "simplicial_vertices",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "BoundaryResult",
    "GeodominationCheck",
    "boundary",
    "is_x_geodominating",
    "min_gx_vertex",
    "geodetic_from_boundary",
    "ProductKind",
    "ProductGraph",
    "ProductReport",
    "product",
    "product_distance",
    "product_reports",
    "OracleResult",
    "GraphGenSpec",
    "VerificationReport",
    "min_x_geodominating_bruteforce",
    "geodetic_number_bruteforce",
    "enumerate_connected_graphs",
    "random_connected_graph",
    "random_graph_corpus",
    "find_simplicial_counterexample",
    "verify_unique_minimum",
    "__version__",
]
