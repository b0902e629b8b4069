"""The measure suites on generated substitutions.

The maps are rose maps of random substitutions: 2-4 letters, each image a
positive word of 1-3 letters, drawn by ``random.Random(1)``.  Positive words
never cancel, so every draw is a train track map; the draws that are
expanding and carry a measure are kept (30 of the first 50).  On each, the
verify suites pass and the sweep's values equal the per-path scan that
the sweep replaced.

On these maps and on ``pullback_maps`` (the benchmark roses and three
seeded random maps), the support of every measure is the set of paths
with a non-zero value: its values are positive, it lies in the
lamination's language, and every path off it scans to the exact zero.  The
values at two consecutive tower levels enclose the same number.  The
measures agree with the frequency oracle, whose support is the set of its
non-zero estimates, and printing then parsing gives back every map, as it
does on the benchmark's substitution document.  The pushforward that
``image_measure`` and the eigen walk read is, endpoint for endpoint, the
sum over the covers that a recursive walk and the reference depth-first
search find, on each measure and on each measure with one edge's paths set
to zero.  On them,
on signed roses and on random train track maps, the repetition bound over
that language is the bound over the larger infinitely legal language.
"""

import functools
import random
from unittest import mock

import pytest

import ttm.intervals as ia
from ttm.graphs import reverse_path, subpaths_up_to
from ttm.maps import GraphMap, is_expanding, used_language
from ttm.measures import (
    FrequencyOracle, KolmogorovFunction, image_measure, verify_eigen_measure,
    verify_kolmogorov, verify_oracle,
)
from ttm.textio import InputDocument, parse, print_document
from ttm.towers import StationaryTower, repetition_bound

from conftest import bench_workloads, measures_of, pullback_maps, rose_map
from pullback_reference import InfinitelyLegal, search_covers
from test_maps import random_train_track_maps
from test_measures import scan_eval_at_level, walk_image_measure, walk_parents
from test_towers import signed_roses

DRAWS, MAPS = 50, 30


def generated_images(seed, draws):
    rng = random.Random(seed)
    out = []
    for _ in range(draws):
        letters = "abcd"[:rng.randint(2, 4)]
        out.append(tuple("".join(rng.choice(letters) for _ in range(rng.randint(1, 3)))
                         for _ in letters))
    return out


@functools.cache
def generated_measures(images):
    """The measures of the rose map of the images (none unless expanding)."""
    f = rose_map(*images)
    return f, (measures_of(f) if is_expanding(f) else [])


GENERATED = [images for images in generated_images(1, DRAWS) if generated_measures(images)[1]]


def test_the_draw_keeps_thirty_maps():
    assert len(GENERATED) == MAPS


@pytest.mark.parametrize("images", GENERATED, ids=" ".join)
def test_generated_measures_pass_verify(images):
    f, kfs = generated_measures(images)
    for kf in kfs:
        assert verify_kolmogorov(kf, 4, 1e-12).passed
        assert verify_eigen_measure(f, kf, kf.weights.lam, 4, 1e-12).passed


@pytest.mark.parametrize("images", GENERATED, ids=" ".join)
def test_generated_values_equal_the_scan(images):
    """Every reduced path up to length 3 takes the scan of itself or its
    reversal, whichever is smaller in tuple order, at its level."""
    f, kfs = generated_measures(images)
    for kf in kfs:
        for p in f.domain.reduced_paths(3):
            level = kf.tower.level_for_length(len(p))
            assert kf.eval(p) == scan_eval_at_level(kf, min(p, reverse_path(p)), level), p


LANGUAGE_MAPS = dict(pullback_maps() + [(" ".join(images), generated_measures(images)[0])
                                        for images in GENERATED])


@functools.cache
def language_measures(name):
    f = LANGUAGE_MAPS[name]
    return f, measures_of(f)


def has_zero_coordinate(kf):
    return any(x == 0 for x in kf.weights.vector)


@pytest.mark.parametrize("name", LANGUAGE_MAPS)
def test_support_is_the_language(name):
    """``support(1)`` is the set of edges with a non-zero coordinate.  From
    length 2 on, ``support(L)`` lies in the length-L part of
    ``used_language``, and is all of it when no coordinate is zero."""
    f, kfs = language_measures(name)
    language = used_language(f, 6)
    edges = {(e,) for e in f.domain.oriented_edges}
    assert edges >= {p for p in language if len(p) == 1}
    for kf in kfs:
        assert set(kf.support(1)) == {p for p in edges if kf.weights.edge_weight[p[0]] != 0}
        for length in range(2, 7):
            support, words = set(kf.support(length)), {p for p in language if len(p) == length}
            assert support <= words and (support == words or has_zero_coordinate(kf)), length


@pytest.mark.parametrize("name", LANGUAGE_MAPS)
def test_support_values_are_positive(name):
    """Every support value up to length 6 is certifiably positive, on the
    measures with a zero coordinate too: the support is the non-zero set."""
    f, kfs = language_measures(name)
    for kf in kfs:
        for length in range(1, 7):
            for p in kf.support(length):
                assert (kf.eval(p) > 0) is True, p


@pytest.mark.parametrize("name", LANGUAGE_MAPS)
def test_paths_off_the_support_are_the_exact_zero(name):
    """Every reduced path up to length 4 outside the support has the exact
    zero as the value of the per-path scan, the reference that the sweep
    replaced, at its level."""
    f, kfs = language_measures(name)
    for kf in kfs:
        for p in f.domain.reduced_paths(4):
            if p <= reverse_path(p) and p not in kf.support(len(p)):
                level = kf.tower.level_for_length(len(p))
                assert ia.endpoints(scan_eval_at_level(kf, p, level)) == (0, 0), p


@pytest.mark.parametrize("name", LANGUAGE_MAPS)
def test_measures_agree_with_the_oracle(name):
    """Every measure lies within the oracle's tail bound plus 1e-12 of the
    estimates at t = 20, up to length 4."""
    f, kfs = language_measures(name)
    for kf in kfs:
        oracle = FrequencyOracle(f, kf.weights.vector, kf.weights.lam, 20)
        assert verify_oracle(kf, oracle, 4, 1e-12)[0].passed


@pytest.mark.parametrize("name", LANGUAGE_MAPS)
def test_values_do_not_depend_on_the_level(name):
    """Every reduced path up to length 5 has overlapping enclosures at its
    level n and at level n + 1, and is the exact zero at both or at
    neither.  A path that neither level's sweep holds is the exact zero at
    both, so the paths that one of them holds are walked."""
    for kf in language_measures(name)[1]:
        for length in range(1, 6):
            n = kf.tower.level_for_length(length)
            for p in kf._sweeps(n, length).keys() | kf._sweeps(n + 1, length).keys():
                low, high = kf.eval_at_level(p, n), kf.eval_at_level(p, n + 1)
                assert (low is ia.zero()) == (high is ia.zero()), p
                lo, hi = ia.endpoints(low - high)
                assert lo <= 0 <= hi, p


def test_oracle_support_is_the_non_zero_estimates():
    """``FrequencyOracle.support(L)`` is the set of paths of length L whose
    estimate is not the exact zero, up to length 4 at t = 20: on red's
    vector (1, 1, 0) and on the 15 of the 40 measures above that have a
    zero coordinate."""
    red = LANGUAGE_MAPS["red"]
    cases = [(red, (1, 1, 0), 2)] + [
        (f, kf.weights.vector, kf.weights.lam) for name in LANGUAGE_MAPS
        for f, kfs in [language_measures(name)] for kf in kfs if has_zero_coordinate(kf)]
    assert len(cases) == 16
    for f, vector, lam in cases:
        oracle = FrequencyOracle(f, vector, lam, 20)
        for length in range(1, 5):
            non_zero = {p for p in f.domain.reduced_paths(length) if len(p) == length
                        and ia.endpoints(oracle.estimate(p).value) != (0, 0)}
            assert oracle.support(length) == non_zero, (f, length)


def assert_round_trip(doc):
    """``parse`` of the printed document prints the same text and gives equal
    maps and substitutions."""
    text = print_document(doc)
    back = parse(text)
    assert print_document(back) == text
    assert list(back.maps) == list(doc.maps)
    assert list(back.substitutions) == list(doc.substitutions)
    for name in doc.maps:
        assert back.map(name) == doc.map(name), name
    for name in doc.substitutions:
        assert back.substitution(name) == doc.substitution(name), name


def test_print_then_parse_gives_back_the_maps():
    doc = InputDocument()
    for k, f in enumerate(LANGUAGE_MAPS.values()):
        doc.graphs[f"G{k}"] = f.domain
        doc.maps[f"f{k}"] = (f, f"G{k}", f"G{k}")
    assert len(doc.maps) == 39
    assert_round_trip(doc)


def test_print_then_parse_gives_back_the_bench_substitutions():
    """The seed-1 substitution document of the benchmark: each substitution,
    up to 20 letters, with its rose graph and rose map."""
    doc = parse(bench_workloads().generate_substitutions(1)[0])
    assert max(len(s.alphabet) for s in doc.substitutions.values()) == 20
    assert len(doc.maps) == len(doc.substitutions) == 4
    assert_round_trip(doc)


def test_repetition_bound_is_the_infinitely_legal_bound():
    """At levels 0-2 and caps 0, 2 and 5, the repetition bound over the used
    language (``f.legal``) is the bound over the infinitely legal language,
    installed as ``legal`` on a copy of the map: on the 39 maps above, the
    12 random train track maps without valence-2 vertices (towers refuse
    those) and 60 signed roses: 999 cases, 489 of them not found."""
    random_maps = [f for f in random_train_track_maps()
                   if all(f.domain.valence(v) != 2 for v in f.domain.vertices)]
    maps = list(LANGUAGE_MAPS.values()) + random_maps + signed_roses(3, 60)
    missing = 0
    for f in maps:
        old = GraphMap(f.domain, f.codomain, f.vertex_image, f.edge_image)
        old.__dict__["legal"] = InfinitelyLegal(old)
        tower, old_tower = StationaryTower(f), StationaryTower(old)
        for n in range(3):
            for cap in (0, 2, 5):
                bound = repetition_bound(tower, n, cap).bound
                assert bound == repetition_bound(old_tower, n, cap).bound, (f, n, cap)
                missing += bound is None
    assert (len(random_maps), len(maps), missing) == (12, 111, 489)


class WithoutEdge(KolmogorovFunction):
    """A measure with every path through one edge set to the exact zero: its
    support is closed under factors but not under f, so paths off the
    support can have non-zero eigen residuals."""

    def __init__(self, weights, edge):
        super().__init__(weights)
        self.edge = edge

    def keeps(self, path):
        return all(e >> 1 != self.edge for e in path)

    def support(self, length):
        return [p for p in super().support(length) if self.keeps(p)]

    def _walked(self, path):
        return super()._walked(path) if self.keeps(path) else ia.zero()



@functools.cache
def measure_variants(name):
    """``(f, [(lam, mu), ...])``: each measure of the map, then each of its
    ``WithoutEdge`` measures."""
    f, kfs = language_measures(name)
    return f, [(kf.weights.lam, mu) for kf in kfs
               for mu in [kf] + [WithoutEdge(kf.weights, x) for x in range(f.domain.n_edges)]]


@functools.cache
def eigen_walks(name):
    """``(f, lam, mu, walk)`` for each of ``measure_variants``: ``walk`` is
    the set of paths that ``verify_eigen_measure`` evaluates at bound 6, the
    support and the paths of the one pushforward
    (``KolmogorovFunction._image_values``) that it builds."""
    f, variants = measure_variants(name)
    pushed, walks = [], []
    image_values = KolmogorovFunction._image_values
    with mock.patch.object(KolmogorovFunction, "_image_values",
                           lambda mu, f, bound: pushed.append(image_values(mu, f, bound))
                           or pushed[-1]):
        for lam, mu in variants:
            pushed.clear()
            assert (verify_eigen_measure(f, mu, lam, 6, 1e-12).passed
                    or isinstance(mu, WithoutEdge))
            (values,) = pushed
            walks.append((f, lam, mu, set(values) | support_up_to_6(mu)))
    return walks


def support_up_to_6(mu):
    return {p for length in range(1, 7) for p in mu.support(length)}


def eigen_residual(f, lam, mu, path):
    return image_measure(f, mu, path) - lam * mu.eval(path)


@pytest.mark.parametrize("name", LANGUAGE_MAPS)
def test_eigen_walk_holds_every_non_zero_residual(name):
    """The eigen walk, the support and the paths that it covers, lies in the
    walk of the support and every factor of its images up to the bound, and
    holds each path of that walk whose eigen residual is not the exact zero:
    on each measure, and on each measure with one edge's paths set to zero."""
    for f, lam, mu, walk in eigen_walks(name):
        factors = {x for d in support_up_to_6(mu)
                   for x in (d, *subpaths_up_to(f.map_path(d), 6))}
        assert walk <= factors
        for p in factors - walk:
            assert ia.endpoints(eigen_residual(f, lam, mu, p)) == (0, 0), p


def test_eigen_walk_leaves_the_support():
    """On 33 of the 39 maps, a measure with one edge's paths set to zero has
    a walked path off its support with a non-zero eigen residual, so the
    test above checks the covers and not the support alone; on the other
    six, none has."""
    leaving = [name for name in LANGUAGE_MAPS if any(
        ia.endpoints(eigen_residual(f, lam, mu, p)) != (0, 0)
        for f, lam, mu, walk in eigen_walks(name)
        for p in walk - support_up_to_6(mu))]
    assert len(leaving) == 33


@pytest.mark.parametrize("name", LANGUAGE_MAPS)
def test_eigen_walk_pushforward_is_the_cover_search(name):
    """On each walked path, the pushforward that the eigen walk reads is the
    sum of the measure over the reference search's covers, in search order,
    endpoint for endpoint: on each measure and each ``WithoutEdge``
    measure, whose covers off the support are exact zeros."""
    for f, lam, mu, walk in eigen_walks(name):
        pushed = mu._image_values(f, 6)
        for p in walk:
            reference = ia.isum(map(mu.eval, search_covers(f, p)))
            assert ia.endpoints(pushed.get(p, ia.zero())) == ia.endpoints(reference), p


@pytest.mark.parametrize("name", LANGUAGE_MAPS)
def test_image_measure_bit_identical_to_walk(name):
    """``image_measure`` sums the same parents in the same order as the
    recursive sub-edge walk, on every reduced path up to length 4: on each
    measure, and on each measure with one edge's paths set to zero."""
    f, variants = measure_variants(name)
    assert variants
    for p in f.codomain.reduced_paths(4):
        parents = walk_parents(f, p)
        for _, mu in variants:
            assert image_measure(f, mu, p) == walk_image_measure(f, mu, p, parents), p
