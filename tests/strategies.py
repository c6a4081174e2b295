"""Hypothesis generators for small connected graphs and JSON documents."""

from __future__ import annotations

import math
import string

from hypothesis import strategies as st

from geodom import Graph

_LABELS = string.ascii_lowercase


def _build(n: int, parents: list[int], extra: list[tuple[int, int]]) -> Graph:
    # attachment tree guarantees connectivity; extras may duplicate
    edges = {(parents[i - 1], i) for i in range(1, n)}
    for u, v in extra:
        if u != v:
            edges.add((min(u, v), max(u, v)))
    labels = list(_LABELS[:n])
    return Graph(
        ((labels[u], labels[v]) for u, v in sorted(edges)), vertices=labels
    )


@st.composite
def connected_graphs(draw, min_n: int = 2, max_n: int = 7) -> Graph:
    n = draw(st.integers(min_n, max_n))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=2 * n,
        )
    )
    return _build(n, parents, extra)


@st.composite
def trees(draw, min_n: int = 2, max_n: int = 9) -> Graph:
    n = draw(st.integers(min_n, max_n))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    return _build(n, parents, [])


@st.composite
def graphs_with_vertex(draw, min_n: int = 2, max_n: int = 7) -> tuple[Graph, int]:
    g = draw(connected_graphs(min_n, max_n))
    return g, draw(st.integers(0, g.n - 1))


@st.composite
def graphs_vertex_and_set(
    draw, min_n: int = 2, max_n: int = 7
) -> tuple[Graph, int, frozenset[int]]:
    g, x = draw(graphs_with_vertex(min_n, max_n))
    members = draw(st.frozensets(st.integers(0, g.n - 1), max_size=g.n))
    return g, x, members


# labels whose string order differs from their order as pair labels:
# "+" and "!" sort before "," and ")"
_AWKWARD_LABELS = st.text(alphabet="ab+!-", min_size=1, max_size=3)


@st.composite
def relabelled(draw, graphs) -> Graph:
    """A graph from graphs with its vertices renamed to awkward labels."""
    g = draw(graphs)
    names = draw(st.lists(_AWKWARD_LABELS, min_size=g.n, max_size=g.n, unique=True))
    return Graph(((names[u], names[v]) for u, v in g.edges()), vertices=names)


@st.composite
def edge_lists(draw) -> tuple[list[tuple[str, str]], list[str]]:
    """Constructor input: label pairs, repeated and reversed at will, and
    declared vertices, some of them on no edge; never empty."""
    labels = draw(st.lists(_AWKWARD_LABELS, min_size=1, max_size=8, unique=True))
    pairs = st.tuples(st.sampled_from(labels), st.sampled_from(labels))
    edges = draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), max_size=20))
    vertices = draw(st.lists(st.sampled_from(labels), max_size=8))
    if not edges and not vertices:
        vertices = labels[:1]
    return edges, vertices


@st.composite
def edge_documents(draw) -> str:
    """Edge-list documents with repeated and reversed edges, comments,
    blank and padded lines, and vertices only on ``vertices:`` lines."""
    edges, vertices = draw(edge_lists())
    lines = ["vertices: " + " ".join(vertices[i:i + 2]) for i in range(0, len(vertices), 2)]
    for u, v in edges:
        lines.append(f"{u} {v}" if draw(st.booleans()) else f"  {v}\t{u} ")
    lines.extend(draw(st.lists(st.sampled_from(["", "# note", "#a b c", "   "]), max_size=4)))
    return "\n".join(draw(st.permutations(lines))) + "\n"


# strings json must escape: quotes, backslashes, control characters,
# non-ASCII, astral and lone surrogate code points
_AWKWARD_TEXT = ['"q', "back\\slash", "\x00\x1f\n\t\x7f", "é", "日本", "\U0001f600", "\ud800"]

_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**200), 2**200),
    st.floats(),
    st.sampled_from([-0.0, 1e300, math.nan, math.inf, -math.inf]),
    st.text(),
    st.sampled_from(_AWKWARD_TEXT),
)

json_documents = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        # keys of every type json.dumps takes; the CLI's keys are all str
        st.dictionaries(_json_scalars, children, max_size=6),
    ),
    max_leaves=40,
)


# sibling dicts may repeat a key that compares equal but prints otherwise
_colliding_keys = st.sampled_from([0, False, 0.0, -0.0, 1, True, 1.0, None, "0"])

# documents with lists of labels, which the CLI may hand over pre-escaped
labelled_documents = st.recursive(
    st.one_of(_json_scalars, st.lists(st.one_of(st.text(), st.sampled_from(_AWKWARD_TEXT)))),
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(st.one_of(_json_scalars, _colliding_keys), children, max_size=6),
    ),
    max_leaves=40,
)
