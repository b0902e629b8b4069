"""Substitutions on a finite alphabet and their invariant measures.

A substitution is a monoid endomorphism sending each letter to a non-empty
word.  Identifying the alphabet with the positive edges of a one-vertex graph
turns it into a self-map whose edge images cross only positively oriented
edges, which is automatically a train track map with the same incidence
matrix.  Invariant measures of the subshift then come out of the eigenvector
machinery: each distinguished eigenvector of the incidence matrix with
eigenvalue above one yields a shift-invariant probability measure, and the
letter frequencies are the eigenvector coordinates.

Word-level measures and path-level measures translate through a three-case
rule: positive words carry the path value, inverse words mirror it, and
mixed-sign words carry zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import spectra
from .errors import PreconditionError
from .graphs import Graph, is_positive, reverse_path, rose
from .maps import GraphMap
from .measures import KolmogorovFunction, MeasureTable
from .towers import StationaryTower, VectorTower, weight_tower_from_vector


@dataclass(frozen=True)
class Substitution:
    """Letters to non-empty words; the incidence matrix counts letter
    occurrences in the images."""

    alphabet: tuple
    images: tuple     # tuple of words (tuples of letters), one per letter
    _image: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {x: i for i, x in enumerate(self.alphabet)}
        if len(index) != len(self.alphabet):
            raise PreconditionError("alphabet letters must be distinct")
        for w in self.images:
            if not w:
                raise PreconditionError("substitution images must be non-empty")
            for x in w:
                if x not in index:
                    raise PreconditionError(f"image uses unknown letter {x!r}")
        object.__setattr__(self, "_image", dict(zip(self.alphabet, self.images)))

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

    def incidence_matrix(self):
        m = [[0] * len(self.alphabet) for _ in self.alphabet]
        for j, w in enumerate(self.images):
            for x in w:
                m[self.index(x)][j] += 1
        return tuple(tuple(r) for r in m)

    def composed_with(self, other: "Substitution") -> "Substitution":
        if self.alphabet != other.alphabet:
            raise PreconditionError("substitutions over different alphabets")
        return Substitution(self.alphabet,
                            tuple(self.apply(w) for w in other.images))

    def is_expanding(self) -> bool:
        """Do all iterated image lengths go to infinity?  Fails exactly when
        some letter cycles forever through single-letter images."""
        for start in self.alphabet:
            x = start
            seen = set()
            while len(self.images[self.index(x)]) == 1:
                if x in seen:
                    return False
                seen.add(x)
                x = self.images[self.index(x)][0]
        return True

    def is_primitive(self) -> bool:
        return spectra.is_primitive(self.incidence_matrix())

    def language(self, max_length: int):
        """All factors of length <= max_length of the iterated letter images:
        the least set holding the factors of the images and, with each word,
        the factors of its image.

        A worklist applies the substitution once to each *window*, a factor
        of length ``min(max_length, len(W))`` of a letter image or of the
        image ``W`` of a window.  Every factor found lies in a window, and
        the image of a factor is a factor of the image of its window, so
        the factors of the windows are the whole fixpoint."""
        if not self.is_expanding():
            raise PreconditionError("language needs an expanding substitution")
        if max_length < 1:
            return frozenset()
        windows = set()
        todo = []

        def visit(word):
            k = min(max_length, len(word))
            for i in range(len(word) - k + 1):
                w = word[i:i + k]
                if w not in windows:
                    windows.add(w)
                    todo.append(w)

        for w in self.images:
            visit(w)
        while todo:
            visit(self.apply(todo.pop()))
        found = set()
        for w in windows:
            found |= _factors(w, max_length)
        return frozenset(found)


def _factors(word, max_length):
    n = len(word)
    return {word[i:j] for i in range(n) for j in range(i + 1, min(i + max_length, n) + 1)}


def to_train_track(sigma: Substitution):
    """The substitution as a self-map of the one-vertex graph whose positive
    edges are the letters.  Returns ``(map, graph)``; the incidence matrix
    equals the transition matrix, and positivity of the images makes the map
    a train track map outright."""
    g = rose(len(sigma.alphabet), edge_labels=tuple(str(x) for x in sigma.alphabet))
    eimg = tuple(tuple(2 * sigma.index(x) for x in w) for w in sigma.images)
    return GraphMap(g, g, [0], eimg, name="subst"), g


def word_to_path(sigma: Substitution, word):
    return tuple(2 * sigma.index(x) for x in word)


def path_to_word(sigma: Substitution, path):
    """Letters of a positive path (raises on negative edges)."""
    if not all(is_positive(e) for e in path):
        raise PreconditionError("path crosses negatively oriented edges")
    return tuple(sigma.alphabet[e >> 1] for e in path)


# -- measures ----------------------------------------------------------------------


@dataclass
class SubshiftMeasure:
    """A shift-invariant probability measure on the substitution subshift,
    evaluated on cylinders of finite words."""

    sigma: Substitution
    eigenpair: spectra.Eigenpair
    kolmogorov: KolmogorovFunction
    warnings: tuple = ()

    @property
    def eigenvalue(self):
        return self.eigenpair.value

    def value(self, word):
        """Measure of the cylinder of a finite word."""
        if not word:
            raise PreconditionError("cylinder words must be non-empty")
        return self.kolmogorov.eval(word_to_path(self.sigma, word))

    def letter_frequencies(self):
        return tuple(self.value((x,)) for x in self.sigma.alphabet)

    def table(self, max_length: int) -> MeasureTable:
        return classic_to_graph_table(
            self.sigma, self.word_table(max_length),
            self.kolmogorov.graph, max_length)

    def word_table(self, max_length: int) -> dict:
        lang = self.sigma.language(max_length)
        return {w: self.value(w) for w in sorted(lang)}


@dataclass
class ErgodicEnumeration:
    measures: list
    skipped: list            # distinguished eigenpairs with eigenvalue <= 1
    block_form: spectra.BlockForm
    warnings: list = field(default_factory=list)


def ergodic_measures(sigma: Substitution, periodicity_scan: int = 4) -> ErgodicEnumeration:
    """Enumerate the candidate ergodic probability measures of the subshift:
    one per distinguished eigenvector of the incidence matrix with eigenvalue
    above one.

    Aperiodicity of the subshift is not decidable here; a bounded scan warns
    about small periodic witnesses instead of silently assuming.  Distinguished
    eigenvalues at or below one are reported in ``skipped``, never dropped
    silently.
    """
    if len(sigma.alphabet) < 2:
        raise PreconditionError(
            "measure enumeration needs at least two letters (the one-letter "
            "subshift is a single periodic point)")
    if not sigma.is_expanding():
        raise PreconditionError(
            "measure enumeration needs all iterated image lengths to diverge")
    m = sigma.incidence_matrix()
    bf = spectra.block_form(m)
    pairs = spectra.distinguished_eigenvectors(m)
    f, _ = to_train_track(sigma)
    warnings = [f"possible periodic word {w!r} in the subshift"
                for w in _periodic_witnesses(sigma, periodicity_scan)]
    measures = []
    skipped = []
    for pair in pairs:
        if pair.value.compare(1) <= 0:
            skipped.append(pair)
            continue
        tower = StationaryTower(f)
        vt = VectorTower(tower, pair.vector, pair.value)
        wt = weight_tower_from_vector(tower, vt)
        kf = KolmogorovFunction(tower, wt)
        measures.append(SubshiftMeasure(sigma=sigma, eigenpair=pair,
                                        kolmogorov=kf, warnings=tuple(warnings)))
    return ErgodicEnumeration(measures=measures, skipped=skipped,
                              block_form=bf, warnings=warnings)


def _periodic_witnesses(sigma: Substitution, bound: int):
    """Primitive words w of length <= bound whose periodic biinfinite repeat
    looks like a subshift point at the scanned factor depth."""
    if bound <= 0:
        return []
    depth = 2 * bound + 2
    lang = sigma.language(depth)
    out = []
    seen_rotations = set()
    # a witness is a prefix of its first window, so it lies in the
    # factor-closed language and the short words of lang are all candidates
    for w in sorted(w for w in lang if len(w) <= bound):
        if w in seen_rotations or not _is_primitive_word(w):
            continue
        repeated = w * ((depth // len(w)) + 2)
        if all(repeated[i:i + depth] in lang for i in range(len(w))):
            out.append(w)
            for r in range(len(w)):
                seen_rotations.add(w[r:] + w[:r])
    return out


def _words_up_to(alphabet, bound):
    words = [()]
    out = []
    for _ in range(bound):
        words = [w + (x,) for w in words for x in alphabet]
        out.extend(words)
    return out


def _is_primitive_word(w) -> bool:
    for p in range(1, len(w)):
        if len(w) % p == 0 and w == w[:p] * (len(w) // p):
            return False
    return True


# -- classic word tables vs path tables ----------------------------------------------


def classic_to_graph_table(sigma: Substitution, word_values: dict, graph: Graph,
                           max_length: int) -> MeasureTable:
    """Turn a word table into a path table on the one-vertex graph: positive
    paths carry the word value, inverse paths mirror it, mixed-sign paths are
    zero (and stay implicit)."""
    entries = {}
    for w, v in word_values.items():
        p = word_to_path(sigma, w)
        entries[p] = v
        entries[reverse_path(p)] = v
    return MeasureTable(graph, entries, max_length, provenance="external")


def graph_to_classic_table(sigma: Substitution, table: MeasureTable,
                           max_length: int) -> dict:
    """Restrict a path table to positive words."""
    out = {}
    for w in sorted(_words_up_to(sigma.alphabet, max_length)):
        out[w] = table.value(word_to_path(sigma, w))
    return out


def graph_value_of_word_table(sigma: Substitution, word_values: dict, path):
    """Three-case evaluation of a word table on an arbitrary reduced path."""
    if all(is_positive(e) for e in path):
        return word_values.get(path_to_word(sigma, path), Fraction(0))
    rev = reverse_path(path)
    if all(is_positive(e) for e in rev):
        return word_values.get(path_to_word(sigma, rev), Fraction(0))
    return Fraction(0)
