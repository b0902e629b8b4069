import itertools
import math
import random
from collections import Counter
from copy import copy
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import ttm.intervals as ia
from ttm import maps, spectra, substitutions
from ttm.errors import PathError, PreconditionError
from ttm.graphs import reverse_path, subpaths_up_to
from ttm.maps import GraphMap, image_windows, used_language
from ttm.measures import MeasureTable, eigen_measures, verify_eigen_measure, verify_kolmogorov
from ttm.spectra import is_primitive
from ttm.textio import parse
from ttm.substitutions import (
    PERIODICITY_SCAN, Substitution, _periodic_witnesses,
    ergodic_measures, path_to_word, word_to_path,
)

from conftest import A, Bbar

FIB = Substitution.from_strings({"a": "ab", "b": "a"})
TM = Substitution.from_strings({"a": "ab", "b": "ba"})
THREE = Substitution.from_strings({"a": "ab", "b": "ba", "c": "cccab"})
THREE_CAB = Substitution.from_strings({"a": "ab", "b": "ba", "c": "cab"})


def words(lang):
    return sorted("".join(w) for w in lang)


def test_incidence_matrices():
    assert FIB.incidence_matrix() == ((1, 1), (1, 0))
    assert TM.incidence_matrix() == ((1, 1), (1, 1))
    assert THREE.incidence_matrix() == ((1, 1, 1), (1, 1, 1), (0, 0, 3))


def test_composition_multiplies_incidence():
    rng = random.Random(99)
    letters = ("a", "b", "c")
    for _ in range(12):
        images = {x: "".join(rng.choice(letters)
                             for _ in range(rng.randint(1, 3)))
                  for x in letters}
        sigma = Substitution.from_strings(images)
        square = Substitution(sigma.alphabet,
                              tuple(sigma.apply(w) for w in sigma.images))
        from ttm.maps import matmul
        assert square.incidence_matrix() == matmul(
            sigma.incidence_matrix(), sigma.incidence_matrix())


def test_language():
    assert words(FIB.language(2)) == ["a", "aa", "ab", "b", "ba"]
    assert words(TM.language(2)) == ["a", "aa", "ab", "b", "ba", "bb"]
    assert words(FIB.language(1)) == ["a", "b"]
    with pytest.raises(PreconditionError):
        Substitution.from_strings({"a": "ab", "b": "b"}).language(2)


# -- worklist language and periodic scan vs full rescans ---------------------------------


def rescan_language(sigma, max_length):
    """Reference fixpoint: reapply the substitution to the whole set."""
    current = set()
    for w in sigma.images:
        current |= subpaths_up_to(w, max_length)
    while True:
        new = set(current)
        for w in current:
            new |= subpaths_up_to(sigma.apply(w), max_length)
        if new == current:
            return frozenset(current)
        current = new


def is_primitive_word(w) -> bool:
    """Is ``w`` no power of a shorter word?"""
    return not any(len(w) % p == 0 and w == w[:p] * (len(w) // p)
                   for p in range(1, len(w)))


def scan_candidates(lang, candidates, depth):
    """The primitive candidates whose repeat has every length-``depth``
    window in ``lang``, one per rotation class (the least, in sorted order)."""
    out, seen_rotations = [], set()
    for w in sorted(candidates):
        if w in seen_rotations or not is_primitive_word(w):
            continue
        repeated = w * ((depth // len(w)) + 2)
        if all(repeated[i:i + depth] in lang for i in range(len(w))):
            out.append(w)
            seen_rotations.update(w[r:] + w[:r] for r in range(len(w)))
    return out


def enumerating_witnesses(sigma, bound):
    """Reference periodic scan over every alphabet word up to ``bound``."""
    depth = 2 * bound + 2
    words, candidates = [()], []
    for _ in range(bound):
        words = [w + (x,) for w in words for x in sigma.alphabet]
        candidates.extend(words)
    return scan_candidates(sigma.language(depth), candidates, depth)


def prefix_witnesses(sigma, bound):
    """Reference periodic scan over the prefixes, up to ``bound`` letters, of
    the length-depth windows: a witness is a prefix of its first window."""
    depth = 2 * bound + 2
    windows = image_windows(sigma.rose_map, sigma.rose_map.edge_image, depth)
    lang = {path_to_word(sigma, p) for p in windows if len(p) == depth}
    candidates = {w[:k] for w in lang for k in range(1, bound + 1)}
    return scan_candidates(lang, candidates, depth)


@st.composite
def expanding_substitutions(draw):
    letters = "abcde"[:draw(st.integers(2, 5))]
    images = {x: "".join(draw(st.lists(st.sampled_from(letters), min_size=1, max_size=4)))
              for x in letters}
    sigma = Substitution.from_strings(images)
    assume(sigma.is_expanding())
    return sigma


@settings(max_examples=80)
@given(expanding_substitutions(), st.integers(1, 6))
def test_worklist_language_equals_rescan(sigma, max_length):
    assert sigma.language(max_length) == rescan_language(sigma, max_length)


@pytest.mark.parametrize("sigma", [FIB, TM])
def test_language_applies_sigma_once_per_window(monkeypatch, sigma):
    """Only the maximal windows go through the rose map, each once: far
    fewer applications than factors, where a worklist over all factors makes
    one application per factor."""
    windows = image_windows(sigma.rose_map, sigma.rose_map.edge_image, 10)
    words = []
    map_path = GraphMap.map_path

    def counting(self, path):
        words.append(path)
        return map_path(self, path)

    monkeypatch.setattr(GraphMap, "map_path", counting)
    lang = sigma.language(10)
    assert set(words) == windows
    assert len(set(words)) == len(words)
    assert all(len(w) <= 10 for w in words)
    assert 4 * len(words) < len(lang)


def test_rose_map_is_built_on_first_use():
    """Constructing a substitution builds no map; the rose map is built
    once, on first use, and cached."""
    sigma = Substitution.from_strings({"a": "ab", "b": "a"})
    assert "rose_map" not in vars(sigma)
    f = sigma.rose_map
    assert sigma.rose_map is f
    assert sigma == FIB and hash(sigma) == hash(FIB)


@settings(max_examples=80)
@given(expanding_substitutions(), st.integers(1, 4))
def test_periodic_scan_equals_alphabet_enumeration(sigma, bound):
    assert _periodic_witnesses(sigma, bound) == enumerating_witnesses(sigma, bound)


@pytest.mark.parametrize("name", ["subs20", "periodic"])
def test_periodic_scan_equals_prefix_scan_on_data_files(name):
    """On the substitutions of the data files, and on their other rose maps
    with positive images read as substitutions, the one pass over the
    periodic windows finds the witnesses of the candidate-prefix scan.  The
    12- and 20-letter ones are beyond the 2-5 letter strategy above."""
    doc = parse((Path(__file__).resolve().parent / "data" / f"{name}.tt").read_text())
    substs = list(doc.substitutions.values())
    for map_name, (f, *_) in doc.maps.items():
        labels = f.domain.edge_labels
        if map_name not in doc.substitutions and all(e % 2 == 0 for p in f.edge_image for e in p):
            substs.append(Substitution(labels, tuple(tuple(labels[e >> 1] for e in p)
                                                     for p in f.edge_image)))
    assert len(substs) == {"subs20": 2, "periodic": 1}[name]
    for sigma in substs:
        for bound in range(1, 6):
            assert _periodic_witnesses(sigma, bound) == prefix_witnesses(sigma, bound), bound


@settings(max_examples=40)
@given(expanding_substitutions())
def test_longest_factors_are_the_longest_windows(sigma):
    """The factors of length d are the image windows of length d, read as
    words: a factor lies in a window of length <= d, so it is that window."""
    for d in range(1, 11):
        factors = {w for w in sigma.language(d) if len(w) == d}
        windows = {path_to_word(sigma, p)
                   for p in image_windows(sigma.rose_map, sigma.rose_map.edge_image, d) if len(p) == d}
        assert factors == windows, d


@pytest.mark.parametrize("rules", [
    {"a": "ab", "b": "ab"}, {"a": "aa", "b": "bb", "c": "abc"},
    {"a": "abc", "b": "abc", "c": "ba"}, {"a": "aab", "b": "aab", "c": "cbc"},
    {"a": "ab", "b": "ba"}])
def test_periodic_scan_on_periodic_examples(rules):
    sigma = Substitution.from_strings(rules)
    assert _periodic_witnesses(sigma, 4) == enumerating_witnesses(sigma, 4)


def test_to_train_track():
    f = FIB.rose_map
    assert f.transition_matrix() == FIB.incidence_matrix()
    from ttm.maps import is_train_track
    assert is_train_track(f)[0]


def test_to_train_track_matrix_matches_random():
    rng = random.Random(4)
    letters = ("a", "b", "c")
    for _ in range(10):
        images = {x: "".join(rng.choice(letters)
                             for _ in range(rng.randint(1, 4)))
                  for x in letters}
        sigma = Substitution.from_strings(images)
        f = sigma.rose_map
        counts = tuple(tuple(images[y].count(x) for y in letters) for x in letters)
        assert f.transition_matrix() == sigma.incidence_matrix() == counts


def letter_cycle_is_expanding(sigma):
    """Reference: not expanding iff some letter cycles forever through
    single-letter images."""
    image = dict(zip(sigma.alphabet, sigma.images))
    for x in sigma.alphabet:
        seen = set()
        while len(image[x]) == 1:
            if x in seen:
                return False
            seen.add(x)
            x = image[x][0]
    return True


def test_is_expanding_equals_letter_cycle_test():
    rng = random.Random(8)
    verdicts = set()
    for _ in range(300):
        letters = "abcd"[:rng.randint(1, 4)]
        sigma = Substitution.from_strings(
            {x: "".join(rng.choice(letters) for _ in range(rng.choice((1, 1, 2))))
             for x in letters})
        verdict = sigma.is_expanding()
        assert verdict == letter_cycle_is_expanding(sigma)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_used_language_is_translated_language():
    f = FIB.rose_map
    lang = used_language(f, 5)
    expected = set()
    for w in FIB.language(5):
        p = word_to_path(FIB, w)
        expected.add(p)
        expected.add(reverse_path(p))
    assert lang == frozenset(expected)


def test_ergodic_fibonacci():
    enum = ergodic_measures(FIB)
    assert len(enum.measures) == 1
    mu = enum.measures[0]
    freqs = [ia.midpoint(v) for v in mu.letter_frequencies()]
    phi = (1 + 5 ** 0.5) / 2
    assert abs(freqs[0] - phi / (phi + 1)) < 1e-12
    assert abs(freqs[1] - 1 / (phi + 1)) < 1e-12
    # cross-check against letter counts in a long iterate
    word = FIB.iterate(("a",), 25)
    counts = Counter(word)
    assert abs(freqs[0] - counts["a"] / len(word)) < 1e-6
    assert not enum.warnings


def test_ergodic_three_letter():
    enum = ergodic_measures(THREE)
    assert len(enum.measures) == 2
    by_val = sorted(enum.measures, key=lambda m: float(m.eigenvalue))
    f2 = [ia.midpoint(v) for v in by_val[0].letter_frequencies()]
    f3 = [ia.midpoint(v) for v in by_val[1].letter_frequencies()]
    assert max(abs(x - y) for x, y in zip(f2, (0.5, 0.5, 0.0))) < 1e-10
    assert max(abs(x - 1 / 3) for x in f3) < 1e-10
    # one tower on the rose map carries every measure
    tower = by_val[0].kolmogorov.tower
    assert all(mu.kolmogorov.tower is tower for mu in enum.measures)
    assert tower.f is THREE.rose_map


def test_ergodic_cab_variant():
    enum = ergodic_measures(THREE_CAB)
    assert len(enum.measures) == 1
    freqs = [ia.midpoint(v) for v in enum.measures[0].letter_frequencies()]
    assert max(abs(x - y) for x, y in zip(freqs, (0.5, 0.5, 0.0))) < 1e-10


SUBS20 = parse((Path(__file__).resolve().parent / "data" / "subs20.tt").read_text())


@pytest.mark.parametrize("sigma", [FIB, TM, THREE, THREE_CAB,
                                   SUBS20.substitution("i12"), SUBS20.substitution("b20")],
                         ids=["fib", "tm", "three", "cab", "i12", "b20"])
def test_letter_frequencies_are_the_eigenvector(sigma):
    """A measure's letter frequencies are its eigenvector's coordinates, with
    the endpoints of each letter's cylinder value (one edge at level 0)."""
    enum = ergodic_measures(sigma)
    assert enum.measures
    for mu in enum.measures:
        freqs = mu.letter_frequencies()
        assert freqs is mu.eigenpair.vector
        for x, v in zip(sigma.alphabet, freqs):
            assert ia.endpoints(v) == ia.endpoints(mu.value((x,)))


@pytest.mark.parametrize("sigma", [FIB, THREE, THREE_CAB], ids=["fib", "three", "cab"])
def test_ergodic_measures_build_the_block_form_once(sigma, monkeypatch):
    """The enumeration reads its block form off the one spectrum that its
    measures come from, and splits that spectrum's pairs as
    ``eigen_measures`` does."""
    calls = []
    block_form = spectra.block_form
    monkeypatch.setattr(spectra, "block_form",
                        lambda m: calls.append(m) or block_form(m))
    enum = ergodic_measures(sigma)
    assert len(calls) == 1
    assert enum.block_form == block_form(sigma.incidence_matrix())
    measures, skipped = eigen_measures(sigma.rose_map)
    assert (len(enum.measures), len(enum.skipped)) == (len(measures), len(skipped))
    got = [mu.eigenpair for mu in enum.measures] + enum.skipped
    for a, b in zip(got, [pair for pair, _ in measures] + skipped):
        assert (a.vector, a.support, a.block) == (b.vector, b.support, b.block)
        assert a.value.compare(b.value) == 0


@pytest.mark.parametrize("sigma, fixpoints", [(FIB, []), (TM, [10]), (THREE, [10])],
                         ids=["fib", "tm", "three"])
def test_ergodic_measures_build_the_language_once(sigma, fixpoints, monkeypatch):
    """The periodicity scan reads its candidate words off the windows that
    it already built, with no second language fixpoint; where the
    eigenvalue rules periodic points out (FIB: primitive, lambda = phi)
    there is no scan and no fixpoint at all."""
    calls = []
    windows = maps.image_windows
    monkeypatch.setattr(maps, "image_windows",
                        lambda *args: calls.append(args[2]) or windows(*args))
    ergodic_measures(sigma)
    assert calls == fixpoints
    assert fixpoints in ([], [2 * PERIODICITY_SCAN + 2])


def test_ergodic_measures_satisfy_kirchhoff_and_normalise():
    for enum in (ergodic_measures(FIB), ergodic_measures(THREE)):
        for mu in enum.measures:
            report = verify_kolmogorov(mu.kolmogorov, 3, 1e-12)
            assert report.passed
            total = ia.isum(mu.letter_frequencies())
            assert ia.contains_zero(total - ia.one())


def test_ergodic_measures_satisfy_eigen_equation():
    enum = ergodic_measures(TM)
    mu = enum.measures[0]
    f = TM.rose_map
    report = verify_eigen_measure(f, mu.kolmogorov, mu.eigenvalue, 3, 1e-12)
    assert report.passed


def test_primitive_case_matches_pf_vector():
    for sigma in (FIB, TM):
        assert is_primitive(sigma.incidence_matrix())
        enum = ergodic_measures(sigma)
        assert len(enum.measures) == 1
        from ttm.spectra import pf_eigenpair
        pf = pf_eigenpair(sigma.incidence_matrix())
        for got, want in zip(enum.measures[0].letter_frequencies(), pf.vector):
            assert ia.contains_zero(got - want)


def test_periodicity_warning():
    periodic = Substitution.from_strings({"a": "ab", "b": "ab"})
    enum = ergodic_measures(periodic)
    assert enum.warnings
    aperiodic = ergodic_measures(TM)
    assert not aperiodic.warnings


@pytest.mark.parametrize("sigma, scans, witnesses", [
    (FIB, False, []),
    (SUBS20.substitution("i12"), False, []),
    (TM, True, []),
    (Substitution.from_strings({"a": "ab", "b": "ab"}), True, [("a", "b")]),
    (SUBS20.substitution("b20"), True, [("x1", "x7", "x17")]),
], ids=["fib", "i12", "tm", "ab-ab", "b20"])
def test_periodicity_scan_runs_unless_the_eigenvalue_rules_it_out(
        sigma, scans, witnesses, monkeypatch):
    """A primitive substitution with an irrational eigenvalue (Fibonacci,
    i12) has no periodic point: no scan, no warning.  An integer eigenvalue
    (Thue-Morse and a -> ab, b -> ab, both 2; the second is the orbit of
    (ab)^oo) or a substitution that is not primitive (b20) keeps the scan
    and its warnings."""
    calls = []
    scan = substitutions._periodic_witnesses
    monkeypatch.setattr(substitutions, "_periodic_witnesses",
                        lambda *args: calls.append(args) or scan(*args))
    enum = ergodic_measures(sigma)
    assert bool(calls) == scans
    assert enum.warnings == [f"possible periodic word {w!r} in the subshift"
                             for w in witnesses]


@settings(max_examples=60)
@given(expanding_substitutions())
def test_substitutions_without_a_scan_are_aperiodic(sigma):
    """Where the eigenvalue rules periodic points out, the language has more
    than n factors of each length n up to 12, as an aperiodic subshift must
    (Morse-Hedlund); every other substitution is scanned.  The eigenvalue is
    exact just when it is one of the integers in its enclosure, each compared
    with a copy of it."""
    spec = spectra.spectrum(sigma.incidence_matrix())
    if len(sigma.alphabet) < 2 or spec.form.kinds != ("primitive",):
        return
    root = spec.radii[0]
    probe = copy(root)
    integer = any(probe.compare(k) == 0
                  for k in range(math.floor(root.lo), math.ceil(root.hi) + 1))
    assert integer == (root.exact is not None)
    if integer:
        assert root.compare(round(float(root))) == 0
        return
    language = sigma.language(12)
    for n in range(1, 13):
        assert sum(len(w) == n for w in language) > n


def test_classic_bridge_round_trip():
    """The word measure of the subshift and the path measure of its train
    track map agree: positive paths carry the word value, inverse paths
    mirror it, mixed-sign paths and words outside the language carry zero."""
    mu = ergodic_measures(FIB).measures[0]
    f = FIB.rose_map
    (pair, kf), = eigen_measures(f)[0]
    assert pair.value.compare(mu.eigenvalue) == 0
    lang = FIB.language(3)
    for n in range(1, 4):
        for w in itertools.product(FIB.alphabet, repeat=n):
            p = word_to_path(FIB, w)
            assert path_to_word(FIB, p) == w
            if w not in lang:
                assert mu.value(w) == ia.zero(), w
                continue
            assert ia.contains_zero(kf.eval(p) - mu.value(w)), w
            assert ia.contains_zero(kf.eval(reverse_path(p)) - mu.value(w)), w
    assert kf.eval((A, Bbar)) == ia.zero()


def test_classic_table_satisfies_kirchhoff():
    """The word values, mirrored onto inverse paths, form a path table on
    the train track graph that passes the Kirchhoff check."""
    mu = ergodic_measures(FIB).measures[0]
    entries = {}
    for w in FIB.language(4):
        p = word_to_path(FIB, w)
        entries[p] = entries[reverse_path(p)] = mu.value(w)
    report = verify_kolmogorov(MeasureTable(FIB.rose_map.domain, entries, 4), 3, 1e-12)
    assert report.passed


def test_path_word_round_trip():
    w = ("a", "b", "a")
    assert path_to_word(FIB, word_to_path(FIB, w)) == w
    with pytest.raises(PreconditionError):
        path_to_word(FIB, (A, Bbar))


def test_unknown_letter_is_a_path_error():
    """A word with a letter outside the alphabet is refused with a package
    error naming the letter, by the path translation and by the cylinder
    value alike."""
    with pytest.raises(PathError, match="unknown letter 'z'"):
        word_to_path(FIB, ("a", "z", "b"))
    mu = ergodic_measures(FIB).measures[0]
    with pytest.raises(PathError, match="unknown letter 'z'"):
        mu.value(("z",))
