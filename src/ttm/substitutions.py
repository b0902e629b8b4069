"""Substitutions on a finite alphabet: a thin adapter over graph maps.

A substitution is a monoid endomorphism sending each letter to a non-empty
word.  Identifying the alphabet with the positive edges of a one-vertex graph
(the rose) turns it into a self-map whose edge images cross only positively
oriented edges, which is automatically a train track map with the same
incidence matrix.  ``Substitution`` keeps only the word-level API (``apply``,
``iterate``); the expansion test, the incidence matrix and the language are
those of its rose map, read back as words.  ``Substitution.rose_map`` is the
one builder of that map.

Invariant measures of the subshift are the measures of the rose map
(as ``measures.eigen_measures`` builds them on ``Substitution.rose_map``): each
distinguished eigenvector of the incidence matrix with eigenvalue above one
yields a shift-invariant probability measure, and the letter frequencies are
the eigenvector coordinates, read off the eigenpair; ``ergodic_measures``
adds its preconditions and a bounded periodicity scan, run unless the
eigenvalue of a primitive substitution rules periodic points out.  A word's
cylinder value is the value of its positive path (``SubshiftMeasure.value``),
from an evaluator built at the first such value on ``Substitution.tower``,
the one tower that every measure of the substitution shares.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property

from . import maps, spectra
from .errors import PathError, PreconditionError
from .graphs import is_positive, rose
from .measures import KolmogorovFunction, eigenvector_measure, split_at_one
from .towers import StationaryTower


class Substitution:
    """Letters to non-empty words; the incidence matrix counts letter
    occurrences in the images.  Two substitutions are equal when their
    alphabets and images are."""

    def __init__(self, alphabet: tuple, images: tuple):
        self.alphabet = alphabet
        self.images = images      # tuple of words (tuples of letters), one per letter
        index = {x: i for i, x in enumerate(alphabet)}
        if len(index) != len(alphabet):
            raise PreconditionError("alphabet letters must be distinct")
        for w in images:
            if not w:
                raise PreconditionError("substitution images must be non-empty")
            for x in w:
                if x not in index:
                    raise PreconditionError(f"image uses unknown letter {x!r}")
        self._image = dict(zip(alphabet, images))

    def __eq__(self, other):
        if not isinstance(other, Substitution):
            return NotImplemented
        return (self.alphabet, self.images) == (other.alphabet, other.images)

    def __hash__(self):
        return hash((self.alphabet, self.images))

    @staticmethod
    def from_strings(rules: dict, alphabet=None) -> "Substitution":
        """Word images given as strings or iterables of letters."""
        letters = tuple(alphabet) if alphabet else tuple(rules)
        return Substitution(letters, tuple(tuple(rules[x]) for x in letters))

    def index(self, letter) -> int:
        return self.alphabet.index(letter)

    def apply(self, word):
        image = self._image
        return tuple(x for y in word for x in image[y])

    def iterate(self, word, n: int):
        for _ in range(n):
            word = self.apply(word)
        return word

    @cached_property
    def rose_map(self) -> maps.GraphMap:
        """The substitution as a self-map of the rose, one positive edge per
        letter (built on first use)."""
        g = rose(len(self.alphabet), edge_labels=tuple(str(x) for x in self.alphabet))
        eimg = tuple(word_to_path(self, w) for w in self.images)
        return maps.GraphMap(g, g, [0], eimg, name="subst")

    @cached_property
    def tower(self) -> StationaryTower:
        """The stationary tower of the rose map, shared by every measure of
        the substitution (built on first use)."""
        return StationaryTower(self.rose_map)

    def incidence_matrix(self):
        return self.rose_map.transition_matrix()

    def is_expanding(self) -> bool:
        """Do all iterated image lengths go to infinity?"""
        return maps.is_expanding(self.rose_map)

    def language(self, max_length: int):
        """All factors of length <= max_length of the iterated letter images:
        the positive paths of the rose map's used language, read as words."""
        lang = maps.used_language(self.rose_map, max_length)
        return frozenset(path_to_word(self, p) for p in lang if is_positive(p[0]))


def word_to_path(sigma: Substitution, word):
    """The positive path of a word (raises on letters outside the alphabet)."""
    try:
        return tuple(2 * sigma.index(x) for x in word)
    except ValueError:
        bad = next(x for x in word if x not in sigma.alphabet)
        raise PathError(f"word uses unknown letter {bad!r}") from None


def path_to_word(sigma: Substitution, path):
    """Letters of a positive path (raises on negative edges)."""
    if not all(is_positive(e) for e in path):
        raise PreconditionError("path crosses negatively oriented edges")
    return tuple(sigma.alphabet[e >> 1] for e in path)


# -- measures ----------------------------------------------------------------------


class SubshiftMeasure:
    """A shift-invariant probability measure on the substitution subshift,
    evaluated on cylinders of finite words.  Its letter frequencies are the
    eigenvector coordinates; the cylinder evaluator, with its certified
    weight tower, is built on ``sigma.tower`` at the first cylinder value."""

    def __init__(self, sigma: Substitution, eigenpair: spectra.Eigenpair):
        self.sigma = sigma
        self.eigenpair = eigenpair

    @property
    def eigenvalue(self):
        return self.eigenpair.value

    @cached_property
    def kolmogorov(self) -> KolmogorovFunction:
        return eigenvector_measure(self.sigma.tower, self.eigenpair.vector, self.eigenpair.value)

    def value(self, word):
        """Measure of the cylinder of a finite word."""
        if not word:
            raise PreconditionError("cylinder words must be non-empty")
        return self.kolmogorov.eval(word_to_path(self.sigma, word))

    def letter_frequencies(self):
        return self.eigenpair.vector

PERIODICITY_SCAN = 4    # longest word the scan of ``ergodic_measures`` tries


class ErgodicEnumeration:
    def __init__(self, measures: list, skipped: list, block_form: spectra.BlockForm,
                 warnings: list = None):
        self.measures = measures
        self.skipped = skipped            # distinguished eigenpairs with eigenvalue <= 1
        self.block_form = block_form
        self.warnings = [] if warnings is None else warnings


def ergodic_measures(sigma: Substitution) -> ErgodicEnumeration:
    """Enumerate the candidate ergodic probability measures of the subshift:
    one per distinguished eigenvector of the incidence matrix with eigenvalue
    above one.

    A primitive substitution has no periodic point unless its eigenvalue
    lambda is an integer (its subshift is minimal, so a periodic point w^oo
    would make sigma(w) a conjugate of some w^k, and the letter counts of w
    an eigenvector for k; Queffelec, LNM 1294).  Otherwise a bounded scan
    warns about small periodic witnesses instead of silently assuming
    aperiodicity, which is not decided here.  Distinguished
    eigenvalues at or below one are reported in ``skipped``, never dropped
    silently.  No tower is built here: each measure builds its evaluator, on
    the substitution's one tower, at its first cylinder value.
    """
    if len(sigma.alphabet) < 2:
        raise PreconditionError(
            "measure enumeration needs at least two letters (the one-letter "
            "subshift is a single periodic point)")
    if not sigma.is_expanding():
        raise PreconditionError(
            "measure enumeration needs all iterated image lengths to diverge")
    spec = spectra.spectrum(sigma.incidence_matrix())
    aperiodic = spec.form.kinds == ("primitive",) and not _is_integer(spec.radii[0])
    warnings = [f"possible periodic word {w!r} in the subshift"
                for w in ([] if aperiodic else _periodic_witnesses(sigma, PERIODICITY_SCAN))]
    above, skipped = split_at_one(spec.distinguished)
    return ErgodicEnumeration(
        measures=[SubshiftMeasure(sigma, p) for p in above],
        skipped=skipped, block_form=spec.form, warnings=warnings)


def _is_integer(root) -> bool:
    """Is the certified root one of the integers in its enclosure?"""
    return any(root.compare(k) == 0
               for k in range(math.floor(root.lo), math.ceil(root.hi) + 1))


def _periodic_witnesses(sigma: Substitution, bound: int):
    """The least rotations of the primitive words w of length <= bound whose
    periodic repeat has all its factors of length depth = 2 bound + 2 in the
    language, that is, among the image windows of that length.  By Fine and
    Wilf a window of w^oo has least period |w| and starts with a rotation of
    w; a primitive w has |w| such windows, so w passes if its class counts |w|."""
    if bound <= 0:
        return []
    depth = 2 * bound + 2
    classes = Counter()
    for u in maps.image_windows(sigma.rose_map, sigma.rose_map.edge_image, depth):
        if len(u) == depth:
            k = next((k for k in range(1, bound + 1) if u[k:] == u[:-k]), 0)
            if k:
                classes[min(path_to_word(sigma, u[i:k] + u[:i]) for i in range(k))] += 1
    return sorted(w for w, n in classes.items() if n == len(w))
