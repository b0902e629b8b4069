import functools
import gc
import importlib.util
import random
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from ttm import maps
from ttm.errors import MapError, PreconditionError
from ttm.graphs import (
    inverse, is_reduced, reverse_path, rose, subpaths_up_to, turns_of,
)
from ttm.maps import (
    DirectionAnalysis, GraphMap, LegalPullbacks, compose, fundamental_group_images,
    identity_map, image_windows, is_expanding, is_homotopy_equivalence,
    is_train_track, matmul, subgroup_is_whole_group, used_language,
)
from ttm.polys import char_poly_and_adjugate
from ttm.textio import parse

from conftest import (
    A, Abar, B, Bbar, expanding_self_maps, laminary_violations, pullback_maps,
    random_graph, random_map, random_tame_maps, rose_map,
)
from pullback_reference import rescan_used_language


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


def abelianized_matrix(words, rank):
    """Signed letter-count matrix of fundamental group words (rows =
    generators, numbered from 1; negative letters are inverses)."""
    m = [[0] * len(words) for _ in range(rank)]
    for j, w in enumerate(words):
        for letter in w:
            m[abs(letter) - 1][j] += 1 if letter > 0 else -1
    return m


def test_abelianization_filter():
    """Folding says yes implies |det| of the abelianised map is 1."""
    for f in random_tame_maps(20240924, 60):
        if not f.is_self_map() or not f.images_nontrivial():
            continue
        if is_homotopy_equivalence(f):
            words, rank = fundamental_group_images(f)
            assert abs(elimination_det(abelianized_matrix(words, rank))) == 1


def elimination_det(mat) -> Fraction:
    """Reference determinant: Gaussian elimination over the rationals."""
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for i in range(n):
        p = next((r for r in range(i, n) if a[r][i] != 0), None)
        if p is None:
            return Fraction(0)
        if p != i:
            a[i], a[p] = a[p], a[i]
            det = -det
        det *= a[i][i]
        for r in range(i + 1, n):
            c = a[r][i] / a[i][i]
            for k in range(i, n):
                a[r][k] -= c * a[i][k]
    return det


def test_char_poly_constant_is_signed_determinant():
    """det A = (-1)**n p(0) for the characteristic polynomial p of A, on
    seeded signed integer matrices of sizes 1 to 8."""
    rng = random.Random(31337)
    for _ in range(400):
        n = rng.randint(1, 8)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        poly, _ = char_poly_and_adjugate(m)
        assert (-1) ** n * poly[0] == elimination_det(m), m


def test_abelianization_determinant_equals_elimination():
    """On seeded self-maps of several ranks, odd and even, the determinant of
    the abelianised fundamental group images, read off the characteristic
    polynomial, equals elimination; on one-vertex graphs the abelianised
    matrix is the signed letter count of the edge images."""
    ranks = set()
    for f in random_tame_maps(20240924, 60):
        if not f.is_self_map():
            continue
        words, rank = fundamental_group_images(f)
        assert rank == f.domain.rank()
        if not rank:
            continue
        m = abelianized_matrix(words, rank)
        poly, _ = char_poly_and_adjugate(m)
        assert (-1) ** rank * poly[0] == elimination_det(m), f
        if f.domain.n_vertices == 1:
            signed = [[0] * rank for _ in range(rank)]
            for j in range(rank):
                for e in f.image(2 * j):
                    signed[e >> 1][j] += -1 if e & 1 else 1
            assert m == signed, f
        ranks.add(rank)
    assert {1, 2, 3} <= ranks


def test_used_language(fibonacci, thue_morse, rose2):
    lang = used_language(fibonacci, 2)
    positives = {p for p in lang if all(e % 2 == 0 for e in p)}
    assert positives == {(A,), (B,), (A, B), (B, A), (A, A)}
    assert (B, B) not in lang
    assert all(reverse_path(p) in lang for p in lang)
    tm = used_language(thue_morse, 2)
    assert (B, B) in tm and (A, A) in tm


def test_used_language_f_invariant(fibonacci, thue_morse):
    for f in (fibonacci, thue_morse):
        lang = used_language(f, 6)
        for p in lang:
            image = f.map_path(p)
            if len(image) <= 6:
                assert image in lang


def test_used_language_equals_rescan():
    """The window worklist from the positive edges, closed under reversal,
    is the full-rescan fixpoint on expanding train track self-maps; maps that
    are not train track are refused (their iterated images need not be
    reduced)."""
    drawn = [f for f in random_tame_maps(2718, 100) if f.is_self_map() and is_expanding(f)]
    train_track = [f for f in drawn if is_train_track(f)[0]]
    assert (len(drawn) - len(train_track), len(train_track)) == (51, 6)
    for f in drawn:
        if not is_train_track(f)[0]:
            with pytest.raises(PreconditionError):
                used_language(f, 3)
    for f in train_track + expanding_self_maps(2718, 2):
        for max_length in range(6):
            expected = rescan_used_language(f, max_length)
            assert used_language(f, max_length) == expected


def test_image_windows(fibonacci):
    """Windows are as long as the image they are cut from allows (b -> a
    gives the window a), and each one is a subpath of an iterated positive
    edge image."""
    windows = image_windows(fibonacci, fibonacci.edge_image, 3)
    assert windows == {(A,), (A, B), (A, B, A), (B, A, A), (A, A, B), (B, A, B)}
    deep = {w for e in (A, B) for w in subpaths_up_to(fibonacci.iterate_image(e, 8), 3)}
    assert windows <= deep
    assert image_windows(fibonacci, fibonacci.edge_image, 0) == set()


def test_infinitely_legal(fibonacci, rose2):
    """``f.legal`` is the map's one language, built once: its members are
    the used language, so the diagonal pair a ~b / b ~a, infinitely legal
    (its common turn is fixed by the direction map) but in no iterated edge
    image, is not in it."""
    pb = fibonacci.legal
    assert isinstance(pb, LegalPullbacks) and pb is fibonacci.legal
    used = used_language(fibonacci, 2)
    assert {p for p in rose2.reduced_paths(2) if pb.is_infinitely_legal(p)} == used
    assert not pb.is_infinitely_legal((A, Bbar)) and not pb.is_infinitely_legal((B, Abar))
    # unreduced paths never qualify
    assert not pb.is_infinitely_legal((A, Abar))
    # bb is legal (its one turn is) but lies in no image of a legal path
    assert all(DirectionAnalysis(fibonacci).is_legal(t) for t in turns_of((B, B)))
    assert not pb.is_infinitely_legal((B, B))


def test_a_map_and_its_analyses_make_no_reference_cycle():
    """``f.directions`` and ``f.legal`` hold no strong reference back to the
    map, so it is freed when its last reference goes, without a garbage
    collection."""
    f = rose_map("ab", "a")
    assert f.legal.is_infinitely_legal((A, B))
    assert all(map(f.directions.is_legal, turns_of((A, B))))
    gone = weakref.ref(f)
    gc.disable()
    try:
        del f
        assert gone() is None
    finally:
        gc.enable()


def test_infinitely_legal_f_invariant(fibonacci, thue_morse):
    """On primitive maps the one language is laminary and closed under f."""
    for f in (fibonacci, thue_morse):
        lang = used_language(f, 5)
        assert laminary_violations(lang, 5, f.domain) == []
        for p in lang:
            image = f.map_path(p)
            if len(image) <= 5:
                assert image in lang


def language_maps():
    """``pullback_maps()``, the rose maps of the 30 generated substitutions
    and the expanding train track self-maps of a ``random_tame_maps`` draw."""
    from test_generated_maps import GENERATED
    tame = [f for f in random_tame_maps(5, 300)
            if f.is_self_map() and is_train_track(f)[0] and is_expanding(f)]
    return [f for _, f in pullback_maps()] + [rose_map(*im) for im in GENERATED] + tame


def test_shorter_lengths_are_the_factors_of_the_built_length():
    """One fixpoint at length 12 answers every length n <= 12 with the
    length-n windows of the edge images and their reversals, as a fixpoint
    at n would; among the maps are some with edges that occur in no image,
    whose images are factors of no longer window."""
    maps = language_maps()
    assert len(maps) >= 50
    for f in maps:
        legal = LegalPullbacks(f)
        legal.paths_of_length(12)
        for n in range(12, 0, -1):
            windows = {w for w in image_windows(f, f.edge_image, n) if len(w) == n}
            assert legal.paths_of_length(n) == windows | set(map(reverse_path, windows)), (f, n)
        assert legal.built == 12


def test_language_grows_geometrically_towards_the_longest_length(monkeypatch):
    """A rising run of lengths builds the fixpoint at each length past the
    built one, doubled but never beyond ``longest``; without ``longest``, at
    the length asked."""
    built = []
    windows = image_windows
    monkeypatch.setattr(maps, "image_windows",
                        lambda f, starts, n: built.append(n) or windows(f, starts, n))
    f = rose_map("ab", "a")
    legal = f.legal
    for n in range(1, 18, 2):
        legal.paths_of_length(n, 17)
    assert built == [1, 3, 6, 12, 17]
    legal.paths_of_length(19)
    legal.paths_of_length(5)
    assert built == [1, 3, 6, 12, 17, 19]


# -- the one language vs the rescan reference --------------------------------------------


PULLBACK_MAPS = pullback_maps()


def membership_paths(g):
    """Every reduced path of length <= 5 and the unreduced (e, ~e)."""
    return g.reduced_paths(5) + [(e, inverse(e)) for e in g.oriented_edges]


def assert_forward_equals_backward(f, max_length):
    """Membership in ``f.legal`` and the truncations ``used_language`` are
    the full rescan of the subpath set (``rescan_used_language``)."""
    reference = rescan_used_language(f, max_length)
    for p in membership_paths(f.domain):
        assert f.legal.is_infinitely_legal(p) == (p in reference), p
    for n in range(1, max_length + 1):
        assert used_language(f, n) == {p for p in reference if len(p) <= n}, n


@functools.cache
def random_train_track_maps():
    """The expanding train track self-maps among the first 100 maps of four
    seeds."""
    return [f for seed in (2718, 1414, 99, 7) for f in random_tame_maps(seed, 100)
            if f.is_self_map() and is_expanding(f) and is_train_track(f)[0]]


def test_forward_legality_equals_backward_on_random_maps():
    """The window fixpoint from the edge images is the rescanned language up
    to length 7 on 27 random maps, 6 of them on graphs with more than one
    vertex."""
    drawn = random_train_track_maps()
    assert (len(drawn), sum(f.domain.n_vertices > 1 for f in drawn)) == (27, 6)
    for f in drawn:
        assert_forward_equals_backward(f, 7)


@pytest.mark.parametrize("name,f", PULLBACK_MAPS, ids=[n for n, _ in PULLBACK_MAPS])
def test_forward_legality_equals_backward_on_named_maps(name, f):
    assert_forward_equals_backward(f, 9)


def test_language_preconditions(rose2):
    non_expanding = GraphMap(rose2, rose2, [0], [(A, B), (B,)])
    with pytest.raises(PreconditionError):
        used_language(non_expanding, 3)
    with pytest.raises(PreconditionError):
        non_expanding.legal


def test_power(fibonacci):
    """Composing a map with itself gives the iterate images."""
    f3 = compose(fibonacci, compose(fibonacci, fibonacci))
    assert f3.edge_image == (fibonacci.iterate_image(A, 3), fibonacci.iterate_image(B, 3))


# -- Stallings folding against the restart-scan reference ------------------------------


def restart_scan_is_whole_group(words, rank):
    """The folding the worklist replaced: wedge the loops at state 0, then
    rescan every edge after each merge until no state carries two
    equal-letter edges; a basis letter is in the subgroup iff it labels a
    loop at the basepoint."""
    if rank == 0:
        return True
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    edges, fresh = [], 1
    for w in words:
        cur = 0
        for i, letter in enumerate(w):
            if i == len(w) - 1:
                target = 0
            else:
                target, fresh = fresh, fresh + 1
            edges += [(cur, letter, target), (target, -letter, cur)]
            cur = target
    while True:
        out, clash = {}, None
        for u, letter, v in edges:
            key, v = (find(u), letter), find(v)
            if out.setdefault(key, v) != v:
                clash = (out[key], v)
                break
        if clash is None:
            break
        parent[clash[0]] = clash[1]
    base = find(0)
    return all(out.get((base, k)) == base for k in range(1, rank + 1))


def random_word_lists(seed, count):
    """Lists of random words of 1 to 6 signed letters, of rank 0 to 4;
    letters next to their inverses are kept, so words cancel freely."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        rank = rng.randrange(5)
        letters = [s * k for k in range(1, rank + 1) for s in (1, -1)]
        n_words = rng.randrange(rank + 3) if rank else 0
        out.append(([tuple(rng.choice(letters) for _ in range(rng.randrange(1, 7)))
                     for _ in range(n_words)], rank))
    return out


BASIC_SUBGROUPS = [
    ([], 0, True), ([(1,)], 1, True), ([(1, 1)], 1, False), ([(-1,)], 1, True),
    ([(1, 1), (2,)], 2, False),                     # <a^2, b>
    ([(1, 2), (2, 1)], 2, False),                   # <ab, ba>
    ([(1, 2), (2,)], 2, True),                      # <ab, b>
    ([(1, 2, -2), (2,)], 2, True),                  # a b ~b cancels freely to a
    ([(1, 2, -2, -1), (2,)], 2, False),             # the trivial word and b
    ([(2, 1, -2), (2,)], 2, True),                  # a conjugate of a, and b
    ([(1, 2, 3), (2, 3), (3,)], 3, True),
    ([(1, 2), (2, 1), (3,)], 3, False),
]


@pytest.mark.parametrize("words, rank, whole", BASIC_SUBGROUPS)
def test_subgroup_is_whole_group_on_basic_subgroups(words, rank, whole):
    assert subgroup_is_whole_group(words, rank) is whole
    assert restart_scan_is_whole_group(words, rank) is whole


def test_folding_equals_restart_scan_on_random_words():
    lists = random_word_lists(19830, 400)
    verdicts = [subgroup_is_whole_group(w, r) for w, r in lists]
    assert verdicts == [restart_scan_is_whole_group(w, r) for w, r in lists]
    assert True in verdicts and False in verdicts


def bench_workloads():
    """``bench/workloads.py``, which imports nothing of this package."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_folding_equals_restart_scan_on_maps():
    """Every self-map of ``random_tame_maps`` and of the seeded bench
    documents of two seeds gets the reference's verdict."""
    workloads = bench_workloads()
    maps = [f for f in random_tame_maps(20240924, 200) if f.is_self_map()]
    for seed in (1, 7):
        doc = parse(workloads.random_maps_text(seed, 30))
        maps += [m for m, _, _ in doc.maps.values()]
    verdicts = [is_homotopy_equivalence(f) for f in maps]
    assert verdicts == [restart_scan_is_whole_group(*fundamental_group_images(f))
                        for f in maps]
    assert True in verdicts and False in verdicts
