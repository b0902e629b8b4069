import pytest
from hypothesis import given, settings, strategies as st

from ttm.errors import GraphError, MapError, PathError
from ttm.graphs import (
    Graph, inverse, is_reduced, make_turn, reverse_path, rose, subpaths_up_to,
    turns_of,
)
from ttm.maps import GraphMap, used_language

from conftest import A, Abar, B, Bbar, laminary_violations


def test_involution_fixed_point_free(rose2):
    for e in rose2.oriented_edges:
        assert inverse(e) != e
        assert inverse(inverse(e)) == e
    assert len(list(rose2.oriented_edges)) == 2 * len(list(rose2.positive_edges))


def test_reverse():
    assert reverse_path(()) == ()
    assert reverse_path((A, B)) == (Bbar, Abar)
    # a b ~a reverses to a ~b ~a
    assert reverse_path((A, B, Abar)) == (A, Bbar, Abar)
    assert reverse_path(reverse_path((A, B, Abar))) == (A, B, Abar)


def test_reverse_preserves_length_and_reducedness(rose2):
    for p in rose2.reduced_paths(3):
        assert len(reverse_path(p)) == len(p)
        assert is_reduced(reverse_path(p))


def test_is_reduced():
    assert is_reduced((A, B))
    assert not is_reduced((A, Abar))
    assert not is_reduced((A, B, Bbar, A))


def test_turns_of():
    assert turns_of((A, B)) == [make_turn(Abar, B)]
    assert turns_of((A, A)) == [make_turn(Abar, A)]
    assert turns_of((A, B, A)) == [make_turn(Abar, B), make_turn(Bbar, A)]
    with pytest.raises(PathError):
        turns_of((A, Abar))


def test_graph_invariants():
    with pytest.raises(GraphError):
        Graph(2, [(0, 1)])          # valence 1
    with pytest.raises(GraphError):
        Graph(2, [(0, 0), (1, 1)])  # disconnected
    g = Graph(2, [(0, 1), (0, 1), (0, 1)])  # theta graph
    assert g.valence(0) == g.valence(1) == 3
    assert g.rank() == 2


def test_path_validation(rose2):
    theta = Graph(2, [(0, 1), (0, 1), (0, 1)])
    assert theta.is_path((0, 3))     # x then ~y
    assert not theta.is_path((0, 2))  # x then y does not match endpoints
    # ids outside 0 .. 2 n_edges - 1 are no edges, though -1 would index the
    # endpoint tables like 5, which may follow 0 and be the image of 0
    assert theta.is_path((0, 5))
    GraphMap(theta, theta, [1, 0], [(5,), (3,), (1,)])
    for bad in (-1, 2 * theta.n_edges):
        assert not theta.is_path((bad,)) and not theta.is_path((0, bad))
        with pytest.raises(MapError):
            GraphMap(theta, theta, [1, 0], [(bad,), (3,), (1,)])


def reference_graph(n, endpoints, vertex_labels=None):
    """The checks of ``Graph`` one at a time, in their order: the message of
    the first that fails, else the edge tables that a graph must hold."""
    ends = [(int(a), int(b)) for a, b in endpoints]
    if n <= 0:
        return "graph needs at least one vertex"
    if any(not (0 <= a < n and 0 <= b < n) for a, b in ends):
        return "edge endpoint out of range"
    labels = vertex_labels or tuple(f"v{i}" for i in range(n))
    if len(labels) != n:
        return "label count mismatch"
    tails = [v for a, b in ends for v in (a, b)]
    heads = [v for a, b in ends for v in (b, a)]
    directions = [tuple(d for d, t in enumerate(tails) if t == v) for v in range(n)]
    for v in range(n):
        if len(directions[v]) < 2:
            return f"vertex {labels[v]} has valence {len(directions[v])} < 2"
    reached = {0}
    for _ in range(n):
        reached |= {w for a, b in ends if a in reached or b in reached for w in (a, b)}
    if len(reached) != n:
        return "graph is not connected"
    return tuple(ends), tuple(tails), tuple(heads), tuple(directions)


def graph_outcome(n, endpoints, vertex_labels=None):
    try:
        g = Graph(n, endpoints, vertex_labels)
    except GraphError as exc:
        return str(exc)
    return g._endpoints, g._tails, g._heads, g._directions


def mostly_in(n):
    """Integers in range(n), now and then -1 or n."""
    return st.sampled_from(list(range(n)) * 4 + [-1, n])


@st.composite
def graph_data(draw):
    n = draw(st.integers(0, 3))
    endpoints = draw(st.lists(st.tuples(mostly_in(n), mostly_in(n)), max_size=6))
    labels = draw(st.sampled_from([None, None, ("x",), ("x", "y"), ("x", "y", "z")]))
    return n, endpoints, labels


@settings(max_examples=300)
@given(graph_data())
def test_graph_checks_equal_the_reference(data):
    assert graph_outcome(*data) == reference_graph(*data)


def reference_map_error(dom, cod, vertex_image, edge_image):
    """The checks of ``GraphMap`` one at a time, in their order: the message
    of the first that fails, or None."""
    if len(vertex_image) != dom.n_vertices:
        return "need one image per domain vertex"
    if len(edge_image) != dom.n_edges:
        return "need one image path per positive domain edge"
    if any(not 0 <= v < cod.n_vertices for v in vertex_image):
        return "vertex image out of range"
    for k, p in enumerate(edge_image):
        label = dom.edge_labels[k]
        if not (all(0 <= e < 2 * cod.n_edges for e in p)
                and all(cod.terminal(a) == cod.initial(b) for a, b in zip(p, p[1:]))):
            return f"image of edge {label} is not a path"
        start = vertex_image[dom.initial(2 * k)]
        end = vertex_image[dom.terminal(2 * k)]
        if (cod.initial(p[0]), cod.terminal(p[-1])) != (start, end) if p else start != end:
            return f"image of edge {label} does not run between the images of its endpoints"
    return None


MAP_GRAPHS = (rose(2), Graph(2, [(0, 1), (0, 1), (1, 0)]), Graph(2, [(0, 0), (0, 1), (1, 1)]))


@st.composite
def map_data(draw):
    """A domain and a codomain with vertex and edge images that may break
    each check of ``GraphMap``: a wrong count, an id out of range, a path
    that is not one or runs between the wrong vertices."""
    dom, cod = draw(st.sampled_from(MAP_GRAPHS)), draw(st.sampled_from(MAP_GRAPHS))
    size = dom.n_vertices + draw(st.sampled_from((0, 0, 0, 1)))
    vertex_image = draw(st.lists(mostly_in(cod.n_vertices), min_size=size, max_size=size))
    edge = mostly_in(2 * cod.n_edges)
    edge_image = draw(st.lists(st.lists(edge, max_size=3).map(tuple),
                               min_size=dom.n_edges, max_size=dom.n_edges))
    return dom, cod, vertex_image, edge_image


@settings(max_examples=300)
@given(map_data())
def test_map_checks_equal_the_reference(data):
    try:
        GraphMap(*data)
        message = None
    except MapError as exc:
        message = str(exc)
    assert message == reference_map_error(*data)


def test_reduced_paths_by_length_then_edge_ids(rose2):
    """The support walks sort their paths by (length, edge ids) to visit
    them in the order of ``reduced_paths``."""
    theta = Graph(2, [(0, 1), (0, 1), (1, 0)])
    for g in (rose2, theta, rose(3)):
        paths = g.reduced_paths(4)
        assert paths == sorted(paths, key=lambda p: (len(p), p))


@pytest.mark.parametrize("max_length", [0, -1])
def test_no_reduced_paths_below_length_one(max_length):
    """The non-trivial paths of length at most 0 are none."""
    assert rose(2).reduced_paths(max_length) == []
    assert rose(2).reduced_paths(1) == [(e,) for e in rose(2).oriented_edges]


def test_language_laminary(rose2, fibonacci):
    lang = used_language(fibonacci, 3)
    assert laminary_violations(lang, 3, rose2) == []
    # break closure under subpaths
    assert laminary_violations(lang - {(A,)}, 3, rose2)


def test_subpaths():
    assert subpaths_up_to((A, B, A), 2) == {(A,), (B,), (A, B), (B, A)}


def test_rose_labels(rose2):
    assert rose2.edge_label(A) == "a"
    assert rose2.edge_label(Abar) == "~a"
    assert rose2.path_label((A, Bbar)) == "a ~b"
