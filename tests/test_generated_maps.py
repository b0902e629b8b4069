"""The measure suites on generated substitutions.

The maps are rose maps of random substitutions: 2-4 letters, each image a
positive word of 1-3 letters, drawn by ``random.Random(1)``.  Positive words
never cancel, so every draw is a train track map; the draws that are
expanding and carry a measure are kept (30 of the first 50).  On each, the
verify suites pass and the replayed values equal the per-path scan that
the sweep replaced.
"""

import functools
import random

import pytest

from ttm.graphs import reverse_path
from ttm.maps import is_expanding
from ttm.measures import verify_eigen_measure, verify_kolmogorov

from conftest import measures_of, rose_map
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
