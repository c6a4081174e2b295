import inspect

import geodom

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
