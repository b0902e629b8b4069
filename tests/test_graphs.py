import pytest

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


def test_reduced_paths_by_length_then_edge_ids(rose2):
    """The support walks sort their paths by (length, edge ids) to visit
    them in the order of ``reduced_paths``."""
    theta = Graph(2, [(0, 1), (0, 1), (1, 0)])
    for g in (rose2, theta, rose(3)):
        paths = g.reduced_paths(4)
        assert paths == sorted(paths, key=lambda p: (len(p), p))


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
