import random

import pytest

from ttm.dialects import blow_up, blow_up_map, contract_map, to_long, to_long_map, to_short
from ttm.errors import GraphError, PathError
from ttm.graphs import Graph, is_reduced, make_turn, reverse_path, turns_of
from ttm.maps import GraphMap, identity_map

from conftest import A, Abar, B, random_tame_maps


# -- comparison oracles of the round-trip laws ------------------------------------------


def same_graph(g1, g2):
    """Equal graphs: the same endpoints and the same labels."""
    return ((g1.n_vertices, g1._endpoints, g1.vertex_labels, g1.edge_labels)
            == (g2.n_vertices, g2._endpoints, g2.vertex_labels, g2.edge_labels))


def same_blow_up(bu1, bu2):
    """Equal blow-ups: equal graphs and the same local edge of each turn."""
    return same_graph(bu1.graph, bu2.graph) and bu1.local_index == bu2.local_index


def check_structure(bu):
    """The blow-up structure conditions that ``bu`` breaks."""
    problems = []
    g = bu.graph
    # every vertex meets exactly one non-local edge
    for v in g.vertices:
        nl = [d for d in g.directions_at(v) if not bu.is_local(d)]
        if len(nl) != 1:
            problems.append(f"vertex {v} meets {len(nl)} non-local edges")
    # local classes are complete graphs over the direction classes
    for v in bu.base.vertices:
        dirs = bu.base.directions_at(v)
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                if make_turn(dirs[i], dirs[j]) not in bu.local_index:
                    problems.append(f"missing local edge for {(dirs[i], dirs[j])}")
    return problems


def keyed_edge_bijection(g1, key1, g2, key2):
    """Match oriented edges of two graphs through orientation-equivariant
    keys: ``key(e)`` must satisfy key(reverse) = reversed key.  Returns the
    oriented-edge bijection or raises."""
    table = {}
    for e in g2.oriented_edges:
        k = key2(e)
        if k in table:
            raise GraphError(f"duplicate edge key {k}")
        table[k] = e
    out = {}
    for e in g1.oriented_edges:
        k = key1(e)
        if k not in table:
            raise GraphError(f"unmatched edge key {k}")
        out[e] = table[k]
    if len(set(out.values())) != 2 * g2.n_edges or g1.n_edges != g2.n_edges:
        raise GraphError("edge keys do not biject")
    return out


def maps_equal_via(f1, f2, domain_edge_map):
    """Are two maps with one codomain equal after the given oriented-edge
    identification of their domains?"""
    return all(f1.image(e) == f2.image(domain_edge_map[e])
               for e in f1.domain.oriented_edges)


def long_key(lf):
    return lambda e: lf.chain(e)


def projected_long_key(lf, sf):
    """Chains of short pieces, projected to base edges."""
    def key(e):
        out = []
        for piece in lf.chain(e):
            base_e, idx = sf.parents[piece]
            if idx == 0:
                out.append(base_e)
        return tuple(out)
    return key


# -- long-edge dialect -------------------------------------------------------------


def test_to_long_rose_unchanged(rose2):
    lf = to_long(rose2)
    assert same_graph(lf.graph, rose2)
    assert lf.to_base_path((A, B)) == (A, B)


def test_to_long_collapses_chain():
    # circle subdivided into 3 edges attached to a rose petal at vertex 0
    g = Graph(3, [(0, 0), (0, 1), (1, 2), (2, 0)],
              edge_labels=("p", "c1", "c2", "c3"))
    lf = to_long(g)
    assert lf.graph.n_vertices == 1
    assert lf.graph.n_edges == 2
    # Euler characteristic is preserved
    assert lf.graph.n_vertices - lf.graph.n_edges == g.n_vertices - g.n_edges
    p = (2, 4, 6)  # c1 c2 c3
    assert lf.to_base_path((2,)) == p   # the chain is the second long edge
    assert lf.to_base_path((3,)) == reverse_path(p)


def test_to_long_rejects_circle():
    circle = Graph(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(GraphError):
        to_long(circle)


def test_long_idempotent(fibonacci):
    long_f, lf = to_long_map(fibonacci)
    again, lf2 = to_long_map(long_f)
    assert again == long_f


# -- short-edge dialect ---------------------------------------------------------------


def test_to_short_fibonacci(fibonacci):
    sf = to_short(fibonacci)
    assert sf.graph.n_edges == 3
    assert all(len(p) == 1 for p in sf.map.edge_image)
    assert sf.pieces == (2, 1)


def test_to_short_identity_unchanged(rose2):
    sf = to_short(identity_map(rose2))
    assert sf.map == identity_map(rose2)
    assert same_graph(sf.graph, rose2)


def test_to_short_thue_morse(thue_morse):
    sf = to_short(thue_morse)
    assert sf.graph.n_edges == 4
    assert sf.pieces == (2, 2)


def test_short_idempotent(fibonacci):
    sf = to_short(fibonacci)
    again = to_short(sf.map)
    assert again.map == sf.map
    assert same_graph(again.graph, sf.graph)


def piece_key(sf):
    """Pieces keyed by (base oriented edge, index)."""
    return lambda e: (sf.parents[e],)


def chain_piece_key(sf_long, lf, f):
    """Pieces of subdivided long edges keyed in base terms: the j-th image
    letter of a chain lies over one base edge at a local offset."""
    def key(e):
        ell, j = sf_long.parents[e]
        chain = lf.chain(ell)
        total = 0
        for d in chain:
            step = len(f.image(d))
            if j < total + step:
                return ((d, j - total),)
            total += step
        raise AssertionError("offset out of chain")
    return key


def test_short_of_long_is_short():
    """Subdividing after collapsing valence-2 vertices recreates exactly the
    subdivision of the original map."""
    g = Graph(3, [(0, 0), (0, 1), (1, 2), (2, 0)],
              edge_labels=("p", "c1", "c2", "c3"))
    # map sending the petal around itself and the circle over the petal
    f = GraphMap(g, g, [0, 0, 0], [(0, 2, 4, 6), (0,), (0,), (0, 0)])
    sf = to_short(f)
    long_f, lf = to_long_map(f)
    sf_long = to_short(long_f)
    bij = keyed_edge_bijection(sf.graph, piece_key(sf),
                               sf_long.graph, chain_piece_key(sf_long, lf, f))
    assert maps_equal_via(sf.map, sf_long.map, bij)


def test_short_of_long_random():
    for f in random_tame_maps(555, 25):
        if not any(f.domain.valence(v) >= 3 for v in f.domain.vertices):
            continue
        sf = to_short(f)
        long_f, lf = to_long_map(f)
        sf_long = to_short(long_f)
        bij = keyed_edge_bijection(sf.graph, piece_key(sf),
                                   sf_long.graph,
                                   chain_piece_key(sf_long, lf, f))
        assert maps_equal_via(sf.map, sf_long.map, bij)


def test_short_path_translation(fibonacci):
    sf = to_short(fibonacci)
    for p in [(A, B), (B, Abar), (A, B, A), reverse_path((A, B, A))]:
        assert sf.to_base_path(sf.to_short_path(p)) == p


def test_rejects_contracted_edges(rose2):
    f = GraphMap(rose2, rose2, [0], [(A, B), ()])
    from ttm.errors import PreconditionError
    with pytest.raises(PreconditionError):
        to_short(f)
    with pytest.raises(PreconditionError):
        blow_up_map(f)


# -- blow-up dialect ---------------------------------------------------------------------


def test_blow_up_rose(rose2):
    bu = blow_up(rose2)
    assert bu.graph.n_vertices == 4
    assert bu.n_nonlocal == 2
    assert bu.graph.n_edges - bu.n_nonlocal == 6  # complete graph K4
    assert check_structure(bu) == []


def test_blow_up_structure_conditions():
    theta = Graph(2, [(0, 1), (0, 1), (0, 1)])
    bu = blow_up(theta)
    assert check_structure(bu) == []
    # every vertex meets exactly one non-local edge: checked inside
    assert bu.base is theta


def test_blow_up_identity_map(rose2):
    bm = blow_up_map(identity_map(rose2))
    assert not bm.illegal_turns
    bu = bm.domain
    for k in range(bu.n_nonlocal, bu.graph.n_edges):
        assert bm.map.edge_image[k] == (2 * k,)


def test_blow_up_fibonacci(fibonacci):
    bm = blow_up_map(fibonacci)
    bu = bm.domain
    # image of the non-local edge over a interleaves the junction local edge
    img = bm.map.edge_image[0]
    assert len(img) == 3
    assert not bu.is_local(img[0]) and bu.is_local(img[1]) and not bu.is_local(img[2])
    # never first/last or doubled local edges in any non-local image
    for k in range(bu.n_nonlocal):
        img = bm.map.edge_image[k]
        assert not bu.is_local(img[0]) and not bu.is_local(img[-1])
        assert not any(bu.is_local(img[i]) and bu.is_local(img[i + 1])
                       for i in range(len(img) - 1))
    # the contracted round trip returns the original map
    assert contract_map(bm) == fibonacci


def test_blow_up_map_images_random():
    """The non-local edges of a blown-up edge image are the base image, its
    local edges, read through their endpoints, are the turns that image
    crosses, in order, and a domain local edge is contracted exactly when
    its turn is illegal."""
    contracted = set()
    for f in random_tame_maps(112358, 30):
        bm = blow_up_map(f)
        cod = bm.codomain
        for e in f.domain.positive_edges:
            img = bm.map.image(e)
            assert tuple(x for x in img if not cod.is_local(x)) == f.image(e)
            assert [make_turn(cod.graph.initial(x), cod.graph.terminal(x))
                    for x in img if cod.is_local(x)] == turns_of(f.image(e))
        for turn, k in bm.domain.local_index.items():
            empty = bm.map.image(k) == ()
            contracted.add(empty)
            assert empty == (turn in bm.illegal_turns)
    assert contracted == {True, False}


def test_blow_up_path_translation(rose2):
    bu = blow_up(rose2)
    for p in [(A, B), (A, B, A), (B, Abar), (A, A)]:
        hat = bu.to_blowup_path(p)
        assert bu.to_base_path(hat) == p
    with pytest.raises(PathError):
        bu.to_base_path((bu.local_edge(Abar, B),))


def test_blowup_contract_roundtrip(rose2):
    bu = blow_up(rose2)
    assert same_blow_up(blow_up(bu.base), bu)


# -- the round-trip laws on random maps ---------------------------------------------------


def _check_laws(f):
    sf = to_short(f)
    assert to_short(sf.map).map == sf.map
    if any(f.domain.valence(v) >= 3 for v in f.domain.vertices):
        # the long-edge dialect exists only with an intrinsic vertex
        long_f, lf = to_long_map(f)
        assert to_long_map(long_f)[0] == long_f
        long_sf, lf2 = to_long_map(sf.map)
        bij = keyed_edge_bijection(long_f.domain, long_key(lf),
                                   long_sf.domain, projected_long_key(lf2, sf))
        assert maps_equal_via(long_f, long_sf, bij)
    bm = blow_up_map(f)
    assert contract_map(bm) == f
    assert same_blow_up(blow_up(bm.domain.base), bm.domain)


def test_round_trip_laws_random():
    maps = random_tame_maps(987654, 40)
    for f in maps:
        _check_laws(f)


def test_path_translation_cycles_random():
    rng = random.Random(13579)
    maps = random_tame_maps(24680, 25)
    for f in maps:
        g = f.domain
        sf = to_short(f)
        bu = blow_up(g)
        paths = [p for p in g.reduced_paths(3)]
        rng.shuffle(paths)
        for p in paths[:10]:
            assert sf.to_base_path(sf.to_short_path(p)) == p
            assert bu.to_base_path(bu.to_blowup_path(p)) == p
        intrinsic = [v for v in g.vertices if g.valence(v) >= 3]
        if intrinsic:
            # every reduced long path is a reduced base path between the
            # intrinsic vertices its ends stand for
            lf = to_long(g)
            for lp in lf.graph.reduced_paths(3):
                p = lf.to_base_path(lp)
                assert g.is_path(p) and is_reduced(p)
                assert g.path_initial(p) == lf.vertex_to_base[lf.graph.path_initial(lp)]
                assert g.path_terminal(p) == lf.vertex_to_base[lf.graph.path_terminal(lp)]
