import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import ttm.intervals as ia
from ttm.errors import PreconditionError
from ttm.graphs import reverse_path
from ttm.maps import used_language
from ttm.measures import verify_eigen_measure, verify_kolmogorov
from ttm.substitutions import (
    Substitution, _factors, _is_primitive_word, _periodic_witnesses,
    classic_to_graph_table, ergodic_measures, graph_to_classic_table,
    graph_value_of_word_table, path_to_word, to_train_track, word_to_path,
)

from conftest import A, Abar, B, Bbar

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
        square = sigma.composed_with(sigma)
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
        current |= _factors(w, max_length)
    while True:
        new = set(current)
        for w in current:
            new |= _factors(sigma.apply(w), max_length)
        if new == current:
            return frozenset(current)
        current = new


def enumerating_witnesses(sigma, bound):
    """Reference periodic scan over every alphabet word up to ``bound``."""
    depth = 2 * bound + 2
    lang = sigma.language(depth)
    words, candidates = [()], []
    for _ in range(bound):
        words = [w + (x,) for w in words for x in sigma.alphabet]
        candidates.extend(words)
    out, seen_rotations = [], set()
    for w in sorted(candidates):
        if w in seen_rotations or not _is_primitive_word(w):
            continue
        repeated = w * ((depth // len(w)) + 2)
        if all(repeated[i:i + depth] in lang for i in range(len(w))):
            out.append(w)
            seen_rotations.update(w[r:] + w[:r] for r in range(len(w)))
    return out


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
    """Only the maximal windows go through the substitution, each once: far
    fewer applications than factors, where a worklist over all factors makes
    one application per factor."""
    words = []
    apply = Substitution.apply

    def counting(self, word):
        words.append(word)
        return apply(self, word)

    monkeypatch.setattr(Substitution, "apply", counting)
    lang = sigma.language(10)
    assert len(set(words)) == len(words)
    assert all(len(w) <= 10 for w in words)
    assert 4 * len(words) < len(lang)


@settings(max_examples=80)
@given(expanding_substitutions(), st.integers(1, 3))
def test_periodic_scan_equals_alphabet_enumeration(sigma, bound):
    assert _periodic_witnesses(sigma, bound) == enumerating_witnesses(sigma, bound)


@pytest.mark.parametrize("rules", [
    {"a": "ab", "b": "ab"}, {"a": "aa", "b": "bb", "c": "abc"},
    {"a": "abc", "b": "abc", "c": "ba"}, {"a": "aab", "b": "aab", "c": "cbc"},
    {"a": "ab", "b": "ba"}])
def test_periodic_scan_on_periodic_examples(rules):
    sigma = Substitution.from_strings(rules)
    assert _periodic_witnesses(sigma, 4) == enumerating_witnesses(sigma, 4)


def test_to_train_track():
    f, g = to_train_track(FIB)
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
        f, _ = to_train_track(sigma)
        assert f.transition_matrix() == sigma.incidence_matrix()


def test_used_language_is_translated_language():
    f, g = to_train_track(FIB)
    lang = used_language(f, 5)
    expected = set()
    for w in FIB.language(5):
        p = word_to_path(FIB, w)
        expected.add(p)
        expected.add(reverse_path(p))
    assert lang.paths == frozenset(expected)


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


def test_ergodic_cab_variant():
    enum = ergodic_measures(THREE_CAB)
    assert len(enum.measures) == 1
    freqs = [ia.midpoint(v) for v in enum.measures[0].letter_frequencies()]
    assert max(abs(x - y) for x, y in zip(freqs, (0.5, 0.5, 0.0))) < 1e-10


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
    f, _ = to_train_track(TM)
    report = verify_eigen_measure(f, mu.kolmogorov, mu.eigenvalue, 3, 1e-12)
    assert report.passed


def test_primitive_case_matches_pf_vector():
    for sigma in (FIB, TM):
        assert sigma.is_primitive()
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


def test_classic_bridge_round_trip():
    enum = ergodic_measures(FIB)
    mu = enum.measures[0]
    word_values = mu.word_table(3)
    # graph -> classic -> graph is the identity on positive words
    f, g = to_train_track(FIB)
    table = classic_to_graph_table(FIB, word_values, g, 3)
    back = graph_to_classic_table(FIB, table, 3)
    for w, v in word_values.items():
        assert ia.contains_zero(_as_iv(back[w]) - _as_iv(v))
    # mixed-sign paths carry zero
    assert graph_value_of_word_table(FIB, word_values, (A, Bbar)) == 0
    # inverse paths mirror
    p = word_to_path(FIB, ("a", "b"))
    assert table.value(reverse_path(p)) is table.value(p) or \
        ia.contains_zero(_as_iv(table.value(reverse_path(p))) - _as_iv(table.value(p)))


def _as_iv(x):
    return ia.from_fraction(x) if isinstance(x, Fraction) else x


def test_classic_table_satisfies_kirchhoff():
    enum = ergodic_measures(FIB)
    mu = enum.measures[0]
    f, g = to_train_track(FIB)
    table = classic_to_graph_table(FIB, mu.word_table(4), g, 4)
    report = verify_kolmogorov(table, 3, 1e-12)
    assert report.passed


def test_path_word_round_trip():
    w = ("a", "b", "a")
    assert path_to_word(FIB, word_to_path(FIB, w)) == w
    with pytest.raises(PreconditionError):
        path_to_word(FIB, (A, Bbar))
