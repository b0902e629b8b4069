"""The measure suites on generated substitutions.

The maps are rose maps of random substitutions: 2-4 letters, each image a
positive word of 1-3 letters, drawn by ``random.Random(1)``.  Positive words
never cancel, so every draw is a train track map; the draws that are
expanding and carry a measure are kept (30 of the first 50).  On each, the
verify suites pass and the replayed values equal the per-path scan that
the sweep replaced.

On these maps and on ``pullback_maps`` (the benchmark roses and three
seeded random maps), the support of every measure is the lamination's
language, and its values are positive where the eigenvector is.
"""

import functools
import random

import pytest

from ttm.graphs import reverse_path
from ttm.maps import is_expanding, used_language
from ttm.measures import verify_eigen_measure, verify_kolmogorov

from conftest import measures_of, pullback_maps, rose_map
from test_measures import scan_eval_at_level

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


@pytest.mark.parametrize("name", LANGUAGE_MAPS)
def test_support_is_the_language(name):
    """From length 2 on, ``support(L)`` is the length-L part of
    ``used_language``; ``support(1)`` is every oriented edge, which holds
    the letters of the edge images and may hold more."""
    f, kfs = language_measures(name)
    language = used_language(f, 6)
    edges = {(e,) for e in f.domain.oriented_edges}
    assert edges >= {p for p in language if len(p) == 1}
    for kf in kfs:
        assert set(kf.support(1)) == edges
        for length in range(2, 7):
            assert set(kf.support(length)) == {p for p in language if len(p) == length}, length


@pytest.mark.parametrize("name", LANGUAGE_MAPS)
def test_support_values_are_positive(name):
    """Every support value up to length 5 is certifiably positive when the
    eigenvector is; a measure with a zero coordinate (red's first) is
    skipped, as the paths of that edge are zero-valued."""
    f, kfs = language_measures(name)
    for kf in kfs:
        if all((x > 0) is True for x in kf.weights.vector):
            for length in range(1, 6):
                for p in kf.support(length):
                    assert (kf.eval(p) > 0) is True, p
