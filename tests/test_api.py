import importlib
import inspect

import geodom

PUBLIC_NAMES = {
    # graph
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
    # boundary
    "BoundaryResult",
    "GeodominationCheck",
    "boundary",
    "is_x_geodominating",
    "min_gx_vertex",
    "geodetic_from_boundary",
    # products
    "ProductKind",
    "ProductGraph",
    "ProductReport",
    "product",
    "product_distance",
    "product_reports",
    # oracles
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
}

# the only public functions that read whole distance matrices
MATRIX_READERS = {
    "product_distance",
    "min_x_geodominating_bruteforce",
    "geodetic_number_bruteforce",
}


def test_only_matrix_readers_take_a_distance_matrix():
    takers = set()
    for name in geodom.__all__:
        obj = getattr(geodom, name)
        if not inspect.isfunction(obj):
            continue
        params = inspect.signature(obj).parameters.values()
        # annotations are strings under `from __future__ import annotations`
        if any("DistanceMatrix" in str(p.annotation) for p in params):
            takers.add(name)
    assert takers == MATRIX_READERS


def test_package_names():
    assert set(geodom.__all__) == PUBLIC_NAMES
    assert len(geodom.__all__) == len(PUBLIC_NAMES)
    for name in geodom.__all__:
        getattr(geodom, name)
    # the lazily loaded names are their modules' own
    for name, module in geodom._LAZY.items():
        assert name in importlib.import_module(f"geodom.{module}").__all__
