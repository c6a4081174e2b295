"""Boundary vertices, x-geodomination, and geodetic sets on connected
graphs, with product constructions and brute-force verification oracles."""

import importlib

from .boundary import *
from .boundary import __all__ as _boundary_all
from .graph import *
from .graph import __all__ as _graph_all

# Every command needs graph and boundary, so they load eagerly; boundary
# must anyway, since one of its functions shares the submodule's name:
# importing a submodule binds it as a package attribute, and __getattr__
# runs only for missing names. The product and oracle layers load on
# first use, which spares the other commands their compile and import
# time; reading their __all__ would load them, so their public names are
# listed here, in their modules' order.
_LAZY = {
    **dict.fromkeys(
        (
            "ProductKind",
            "ProductGraph",
            "ProductReport",
            "product",
            "product_distance",
            "product_reports",
        ),
        "products",
    ),
    **dict.fromkeys(
        (
            "VerificationReport",
            "min_x_geodominating_bruteforce",
            "geodetic_number_bruteforce",
            "enumerate_connected_graphs",
            "random_connected_graph",
            "random_graph_corpus",
            "find_simplicial_counterexample",
            "verify_unique_minimum",
        ),
        "oracles",
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

__all__ = [*_graph_all, *_boundary_all, *_LAZY, "__version__"]
