import random

import pytest

from ttm.errors import MapError, PreconditionError
from ttm.graphs import inverse, is_reduced, make_turn, reverse_path, rose
from ttm.maps import (
    GraphMap, LegalPullbacks, abelianization_determinant, compose,
    identity_map, infinitely_legal_language, is_expanding,
    is_homotopy_equivalence, is_train_track, matmul, power, used_language,
)

from conftest import (
    A, Abar, B, Bbar, pullback_maps, random_graph, random_map, random_tame_maps,
)


def test_edge_image_of_inverse(fibonacci):
    assert fibonacci.image(Abar) == reverse_path(fibonacci.image(A))


def test_transition_matrix(fibonacci, thue_morse, rose2):
    assert fibonacci.transition_matrix() == ((1, 1), (1, 0))
    assert thue_morse.transition_matrix() == ((1, 1), (1, 1))
    # inverse occurrences are counted positively
    f = GraphMap(rose2, rose2, [0], [(A, Bbar), (B,)])
    m = f.transition_matrix()
    assert (m[0][0], m[1][0]) == (1, 1)


def test_compose(fibonacci, rose2):
    assert compose(identity_map(rose2), fibonacci) == fibonacci
    f2 = compose(fibonacci, fibonacci)
    assert f2.edge_image[0] == (A, B, A)
    assert f2.edge_image[1] == (A, B)
    assert f2.transition_matrix() == ((2, 1), (1, 1))
    with pytest.raises(MapError):
        theta_id = identity_map(rose(3))
        compose(theta_id, fibonacci)


def test_transition_functoriality_random():
    rng = random.Random(20240923)
    checked = 0
    while checked < 100:
        g1 = random_graph(rng)
        g2 = random_graph(rng)
        g3 = random_graph(rng)
        f = random_map(rng, g1, g2)
        g = random_map(rng, g2, g3)
        if f is None or g is None:
            continue
        assert compose(g, f).transition_matrix() == matmul(
            g.transition_matrix(), f.transition_matrix())
        checked += 1


def test_train_track_decisions(fibonacci, thue_morse, rose2):
    assert is_train_track(fibonacci) == (True, None)
    assert is_train_track(thue_morse) == (True, None)
    bad = GraphMap(rose2, rose2, [0], [(A, B), (Abar,)])
    ok, witness = is_train_track(bad)
    assert not ok
    e, t = witness
    assert t <= 5
    assert not is_reduced(bad.iterate_image(e, t))
    # reduced up to the witness exponent
    for s in range(t):
        assert is_reduced(bad.iterate_image(e, s))


def test_train_track_iterates_reduced(fibonacci, thue_morse):
    for f in (fibonacci, thue_morse):
        for e in f.domain.positive_edges:
            for t in range(1, 21):
                assert is_reduced(f.iterate_image(e, t))


def test_compose_reports_cancellation(rose2):
    # g(g(a)) = g(a) g(b) = a b ~b a, so the raw square is unreduced
    g = GraphMap(rose2, rose2, [0], [(A, B), (Bbar, A)])
    square = compose(g, g)
    assert not square.images_reduced()
    assert square.edge_image[0] == (A, B, Bbar, A)
    fib = GraphMap(rose2, rose2, [0], [(A, B), (A,)])
    assert compose(fib, fib).images_reduced()


def test_positive_substitution_maps_are_train_track():
    rng = random.Random(7)
    g = rose(3)
    for _ in range(10):
        eimg = [tuple(2 * rng.randrange(3) for _ in range(rng.randint(1, 4)))
                for _ in range(3)]
        f = GraphMap(g, g, [0], eimg)
        assert is_train_track(f)[0]


def test_expanding(fibonacci, rose2):
    assert is_expanding(fibonacci)
    assert not is_expanding(identity_map(rose2))
    f = GraphMap(rose2, rose2, [0], [(A, B), (B,)])
    assert not is_expanding(f)


def test_homotopy_equivalence(fibonacci, thue_morse, rose2):
    assert is_homotopy_equivalence(fibonacci)
    assert not is_homotopy_equivalence(thue_morse)
    doubling = GraphMap(rose2, rose2, [0], [(A, A), (B,)])
    assert not is_homotopy_equivalence(doubling)
    assert is_homotopy_equivalence(identity_map(rose2))


def test_homotopy_equivalence_on_theta():
    from ttm.graphs import Graph
    theta = Graph(2, [(0, 1), (0, 1), (0, 1)], edge_labels=("x", "y", "z"))
    assert is_homotopy_equivalence(identity_map(theta))
    # swap two edges: still an equivalence
    f = GraphMap(theta, theta, [0, 1], [(2,), (0,), (4,)])
    assert is_homotopy_equivalence(f)


def test_abelianization_filter():
    """Folding says yes implies |det| of the abelianised map is 1."""
    for f in random_tame_maps(20240924, 60):
        if not f.is_self_map() or not f.images_nontrivial():
            continue
        if is_homotopy_equivalence(f):
            assert abs(abelianization_determinant(f)) == 1


def test_used_language(fibonacci, thue_morse, rose2):
    lang = used_language(fibonacci, 2)
    positives = {p for p in lang.paths if all(e % 2 == 0 for e in p)}
    assert positives == {(A,), (B,), (A, B), (B, A), (A, A)}
    assert (B, B) not in lang.paths
    assert all(reverse_path(p) in lang.paths for p in lang.paths)
    tm = used_language(thue_morse, 2)
    assert (B, B) in tm.paths and (A, A) in tm.paths


def test_used_language_f_invariant(fibonacci, thue_morse):
    for f in (fibonacci, thue_morse):
        lang = used_language(f, 6)
        for p in lang.paths:
            image = f.map_path(p)
            if len(image) <= 6:
                assert image in lang.paths


def test_infinitely_legal(fibonacci, rose2):
    pb = LegalPullbacks(fibonacci)
    lang = infinitely_legal_language(fibonacci, 2, pb)
    used = used_language(fibonacci, 2)
    assert used.paths <= lang.paths
    # the difference at length 2 is exactly the diagonal pair a ~b / b ~a,
    # whose common turn is fixed by the direction map
    assert lang.paths - used.paths == {(A, Bbar), (B, Abar)}
    # unreduced paths never qualify
    assert not pb.is_infinitely_legal((A, Abar))
    # bb is legal but dies under pullback
    assert pb.da.is_legal_path((B, B))
    assert not pb.is_infinitely_legal((B, B))


def test_infinitely_legal_f_invariant(fibonacci, thue_morse):
    for f in (fibonacci, thue_morse):
        pb = LegalPullbacks(f)
        lang = infinitely_legal_language(f, 5, pb)
        assert lang.laminary_violations(f.domain) == []
        for p in lang.paths:
            image = f.map_path(p)
            if len(image) <= 5:
                assert image in lang.paths


# -- indexed cover search vs the recursive reference ------------------------------------


class RecursivePullbacks(LegalPullbacks):
    """Reference pullbacks: covers grown recursively by image concatenation
    from every (edge, image offset) start, legality by turn orbits, and the
    verdict memo read only after the legality check."""

    def minimal_covers(self, path):
        path = tuple(path)
        if path not in self._covers:
            results = set()
            for e0 in self.f.domain.oriented_edges:
                img0 = self.f.image(e0)
                for off in range(len(img0)):
                    self._extend((e0,), img0[off:], path, results)
            self._covers[path] = frozenset(results)
        return self._covers[path]

    def _extend(self, cover, avail, path, results):
        k = min(len(avail), len(path))
        if avail[:k] != path[:k]:
            return
        if len(avail) >= len(path):
            results.add(cover)
            return
        g, last = self.f.domain, cover[-1]
        for d in g.directions_at(g.terminal(last)):
            if d != inverse(last) and self.da.is_legal(make_turn(inverse(last), d)):
                self._extend(cover + (d,), avail + self.f.image(d), path, results)

    def is_infinitely_legal(self, path) -> bool:
        path = tuple(path)
        if not self.da.is_legal_path(path):
            return False
        colour = {}
        good = self._verdict

        def dfs(p):
            if p in good:
                return good[p]
            if colour.get(p) == "grey":
                return True
            colour[p] = "grey"
            result = False
            for c in self.minimal_covers(p):
                if (c in good and good[c]) or colour.get(c) == "grey" or dfs(c):
                    result = True
                    break
            colour[p] = "black"
            good[p] = result
            return result

        return dfs(path)


PULLBACK_MAPS = pullback_maps()


@pytest.mark.parametrize("name,f", PULLBACK_MAPS, ids=[n for n, _ in PULLBACK_MAPS])
def test_indexed_pullbacks_equal_recursive_reference(name, f):
    """The start index, the successor table and the memo-first verdict give
    the covers, verdicts and languages of the recursive search."""
    g = f.domain
    paths = g.reduced_paths(5) + [(e, inverse(e)) for e in g.oriented_edges]
    pb, ref = LegalPullbacks(f), RecursivePullbacks(f)
    for p in paths:
        assert pb.minimal_covers(p) == ref.minimal_covers(p), p
    pb, ref = LegalPullbacks(f), RecursivePullbacks(f)
    for p in paths:
        assert pb.is_infinitely_legal(p) == ref.is_infinitely_legal(p), p
    assert (infinitely_legal_language(f, 6, LegalPullbacks(f))
            == infinitely_legal_language(f, 6, RecursivePullbacks(f)))


def test_language_preconditions(rose2):
    non_expanding = GraphMap(rose2, rose2, [0], [(A, B), (B,)])
    with pytest.raises(PreconditionError):
        used_language(non_expanding, 3)
    with pytest.raises(PreconditionError):
        infinitely_legal_language(non_expanding, 3)


def test_power(fibonacci):
    f3 = power(fibonacci, 3)
    assert f3.edge_image[0] == fibonacci.iterate_image(A, 3)
