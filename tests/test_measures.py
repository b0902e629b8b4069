import math
from collections import Counter
from fractions import Fraction

import pytest

import ttm.intervals as ia
from ttm.errors import IncompleteTableError, PathError, PreconditionError
from ttm.graphs import inverse, make_turn, reverse_path, rose
from ttm.maps import GraphMap, identity_map, used_language
from ttm import maps
from ttm.measures import (
    FrequencyOracle, KolmogorovFunction, MeasureTable, VerificationReport,
    eigen_measures, eigenvector_measure, frequency_oracle, image_measure,
    recover_weights, verify_eigen_measure, verify_kolmogorov,
)

from ttm.spectra import distinguished_eigenvectors
from ttm.substitutions import Substitution, ergodic_measures
from ttm.towers import StationaryTower, WeightTower, repetition_bound

from conftest import (
    A, Abar, B, Bbar, measures_of, pullback_maps, rose_map,
)
from pullback_reference import InfinitelyLegal, search_covers

PHI = (1 + math.sqrt(5)) / 2


def mid(x):
    return ia.midpoint(x)


# -- evaluation ----------------------------------------------------------------------


FIB_VALUES = {
    (A,): PHI,
    (B,): 1.0,
    (A, B): 1.0,
    (B, A): 1.0,
    (A, A): 1 / PHI,
    (B, B): 0.0,
    (A, Bbar): 0.0,
}


def test_eval_fibonacci(fib_setup):
    kf = fib_setup[3]
    for path, val in FIB_VALUES.items():
        assert abs(mid(kf.eval(path)) - val) < 1e-12
        assert ia.width(kf.eval(path)) < 1e-12


def test_eval_thue_morse(tm_setup):
    kf = tm_setup[3]
    # letter pair frequencies of the overlap-free fixed point, scaled to
    # total letter mass 2
    expected = {
        (A,): 1.0, (B,): 1.0,
        (A, A): 1 / 3, (B, B): 1 / 3,
        (A, B): 2 / 3, (B, A): 2 / 3,
    }
    for path, val in expected.items():
        assert abs(mid(kf.eval(path)) - val) < 1e-12


def test_eval_flip_symmetry(fib_setup, rose2):
    kf = fib_setup[3]
    for p in rose2.reduced_paths(4):
        assert ia.contains_zero(kf.eval(p) - kf.eval(reverse_path(p)))


def test_eval_rejects_bad_paths(fib_setup):
    kf = fib_setup[3]
    with pytest.raises(PathError):
        kf.eval(())
    with pytest.raises(PathError):
        kf.eval((A, Abar))


def test_level_independence(fib_setup, rose2):
    """The defining sum gives the same value at any sufficiently high level."""
    tower, _, _, kf = fib_setup
    for p in [(A,), (A, A), (A, B, A), (B, A, A, B)]:
        n = tower.level_for_length(len(p))
        v1 = kf.eval_at_level(p, n)
        v2 = kf.eval_at_level(p, n + 2)
        assert ia.sup_abs(v1 - v2) < 1e-12


def test_eval_linear_in_vector(fib_setup, golden_root):
    tower, vt, _, kf = fib_setup
    scaled = WeightTower(tower, tuple(v * ia.exact(3) for v in vt.vector), vt.lam)
    kf3 = eigenvector_measure(tower, scaled.vector, scaled.lam)
    for p in [(A,), (A, A), (A, B)]:
        assert ia.sup_abs(kf3.eval(p) - ia.exact(3) * kf.eval(p)) < 1e-12


def test_one_map_builds_its_legal_language_once(monkeypatch):
    """The used language belongs to the map (``f.legal``): two truncations,
    the legal windows of a tower and the support table of a measure on
    another tower make one language between them, whose fixpoint is built
    only at the two lengths that grew it."""
    made, built = [], []
    init, windows = maps.LegalPullbacks.__init__, maps.image_windows
    monkeypatch.setattr(maps.LegalPullbacks, "__init__",
                        lambda self, f: made.append(f) or init(self, f))
    monkeypatch.setattr(maps, "image_windows",
                        lambda f, starts, n: built.append(n) or windows(f, starts, n))
    f = rose_map("ab", "a")
    assert used_language(f, 3) < used_language(f, 4)
    assert list(StationaryTower(f).legal_windows((A, 0), 1, 1))
    (_, kf), = eigen_measures(f)[0]
    assert kf.tower.f is f and kf.support_table(4).entries
    assert made == [f] and built == [3, 4]


def test_support_containment(fib_setup, fibonacci, rose2):
    kf = fib_setup[3]
    used = used_language(fibonacci, 4)
    for p in rose2.reduced_paths(4):
        if (kf.eval(p) > 0) is True:
            assert p in used


# -- eigenvectors to measures ---------------------------------------------------------


def test_eigen_measures_share_one_tower():
    """red (a -> ab, b -> ba, c -> cccab) has two distinguished eigenpairs
    above one; their measures sit on one tower, in distinguished order."""
    red = rose_map("ab", "ba", "cccab")
    measures, skipped = eigen_measures(red)
    pairs = distinguished_eigenvectors(red.transition_matrix())
    assert len(measures) == len(pairs) == 2 and skipped == []
    assert measures[0][1].tower is measures[1][1].tower
    assert measures[0][1].tower.f is red
    for (pair, kf), want in zip(measures, pairs):
        assert pair.value.compare(want.value) == 0
        assert list(kf.weights.vector) == list(want.vector)
    assert sorted(pair.value.compare(2) for pair, _ in measures) == [0, 1]


def test_exact_coordinates_give_the_interval_measure():
    """Eigenvector coordinates may be ints, Fractions or intervals: red's
    (1, 1, 0) with lambda = 2 given each way gives overlapping values."""
    red = rose_map("ab", "ba", "cccab")
    tower = StationaryTower(red)
    forms = [((1, 1, 0), 2), ((Fraction(1), Fraction(1), Fraction(0)), Fraction(2)),
             ((ia.one(), ia.one(), ia.zero()), ia.exact(2))]
    kfs = [eigenvector_measure(tower, vector, lam) for vector, lam in forms]
    for p in red.domain.reduced_paths(3):
        values = [kf.eval(p) for kf in kfs]
        assert all(ia.contains_zero(x - y) for x in values for y in values), p
    assert kfs[0].eval((A,)) > 0


def test_eigen_measures_skip_eigenvalues_at_most_one():
    """a -> ab, b -> b: the block of b is the one distinguished block, with
    eigenvalue one.  The pair is skipped, and no tower is built (the map is
    not expanding, so it has none)."""
    sigma = Substitution.from_strings({"a": "ab", "b": "b"})
    measures, skipped = eigen_measures(sigma.rose_map)
    assert measures == []
    assert len(skipped) == 1 and skipped[0].value.compare(1) == 0
    assert skipped[0].support == frozenset({1})
    with pytest.raises(PreconditionError):
        StationaryTower(sigma.rose_map)


# -- the batched engines against the per-path scans -----------------------------------


def occurrences(word, pattern):
    m = len(pattern)
    return sum(1 for i in range(len(word) - m + 1) if word[i:i + m] == pattern)


def scan_eval_at_level(kf, path, n):
    """Reference: the per-path scan of the level-n words the sweep replaced."""
    tower, weights, graph = kf.tower, kf.weights, kf.graph
    total = ia.zero()
    rev = reverse_path(path)
    for e in graph.positive_edges:
        word = tower.word(e, n)
        count = occurrences(word, path) + occurrences(word, rev)
        if count:
            total = total + ia.exact(count) * weights.edge_weight[e]
    for e1 in graph.oriented_edges:
        w1 = tower.word(e1, n)
        for e2 in graph.directions_at(graph.terminal(e1)):
            if e2 == inverse(e1):
                continue
            w2 = tower.word(e2, n)
            tw = weights.turn_weight[make_turn(inverse(e1), e2)]
            for cut in range(1, len(path)):
                if w1[-cut:] == path[:cut] and w2[:len(path) - cut] == path[cut:]:
                    total = total + tw
    return total * weights.level_scale(n)


def scan_oracle(f, vector, lam, path, t):
    """Reference: the per-path block recursion of the frequency oracle, as
    (per positive edge counts, value, tail bound)."""
    graph = f.domain
    want = (path, reverse_path(path))
    margin = len(path) - 1
    edges = graph.oriented_edges
    words = {e: (e,) for e in edges}
    level = 0
    while level < t and min(len(words[e]) for e in edges) < max(1, margin):
        words = {e: f.map_path(words[e]) for e in edges}
        level += 1
    counts = {e: sum(occurrences(words[e], w) for w in want) for e in edges}
    prefixes = {e: words[e][:margin] for e in edges}
    suffixes = {e: words[e][-margin:] if margin else () for e in edges}
    while level < t:
        new_counts, new_pre, new_suf = {}, {}, {}
        for e in edges:
            img = f.image(e)
            c = sum(counts[x] for x in img)
            for i in range(len(img) - 1):
                boundary = suffixes[img[i]] + prefixes[img[i + 1]]
                c += sum(occurrences(boundary, w) for w in want)
            new_counts[e] = c
            new_pre[e] = prefixes[img[0]] if margin else ()
            new_suf[e] = suffixes[img[-1]] if margin else ()
        counts, prefixes, suffixes = new_counts, new_pre, new_suf
        level += 1
    est = ia.zero()
    vec_total = ia.zero()
    for k, e in enumerate(graph.positive_edges):
        est = est + ia.exact(counts[e]) * vector[k]
        vec_total = vec_total + vector[k]
    est = est * lam ** (-t)
    max_img = max(len(f.image(e)) for e in graph.positive_edges)
    per_step = ia.exact(2 * margin * max(0, max_img - 1)) * vec_total
    tail = per_step * ia.geometric_tail(1 / lam, t + 1) if margin else ia.zero()
    return tuple(counts[e] for e in graph.positive_edges), est, tail


def engine_maps():
    """The Fibonacci, Thue-Morse and tribonacci roses and the random maps
    among the pullback maps."""
    return [(name, f) for name, f in pullback_maps()
            if name in ("fibonacci", "thue-morse", "tribonacci") or name.startswith("random")]


ENGINE_MAPS = engine_maps()


@pytest.mark.parametrize("name,f", ENGINE_MAPS)
def test_engine_bit_identical_to_scan(name, f):
    """Sweep values equal the per-path scan endpoint for endpoint, at the
    chosen level and two levels higher: a path and its reversal both take
    the scan of the one that is smaller in tuple order."""
    for kf in measures_of(f):
        tower = kf.tower
        for p in f.domain.reduced_paths(5):
            n = tower.level_for_length(len(p))
            smaller = min(p, reverse_path(p))
            assert kf.eval(p) == scan_eval_at_level(kf, smaller, n), p
            for level in (n, n + 2):
                assert (kf.eval_at_level(p, level)
                        == scan_eval_at_level(kf, smaller, level)), (p, level)


@pytest.mark.parametrize("name,f", ENGINE_MAPS)
def test_values_do_not_depend_on_evaluation_order(name, f):
    """A value depends only on the level and on the pair {p, p-bar}: fresh
    measures that evaluate the support up to length 5 in tuple order, in
    label order and in reverse order give every path the same endpoints,
    and a path and its reversal share them."""
    label = f.domain.path_label
    orders = (sorted, lambda paths: sorted(paths, key=label),
              lambda paths: sorted(paths, reverse=True))
    runs = []
    for order in orders:
        run = []
        for kf in measures_of(f):
            paths = order(p for length in range(1, 6) for p in kf.support(length))
            values = {p: ia.endpoints(kf.eval(p)) for p in paths}
            assert all(ia.endpoints(kf.eval(reverse_path(p))) == values[p] for p in paths)
            run.append(values)
        runs.append(run)
    assert runs[0] and runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("name,f", ENGINE_MAPS)
def test_oracle_bit_identical_to_scan(name, f):
    for kf in measures_of(f):
        wt = kf.weights
        for t in (3, 20):
            oracle = FrequencyOracle(f, wt.vector, wt.lam, t)
            for p in f.domain.reduced_paths(5):
                counts, value, tail = scan_oracle(f, wt.vector, wt.lam, p, t)
                est = oracle.estimate(p)
                assert oracle.counts(p) == counts, (p, t)
                assert est.value == value, (p, t)
                assert est.tail_bound == tail, (p, t)
                assert est.iterations == t


def reference_factor_counts(oracle, length):
    """Reference: the oracle's counts merged level by level, one ``Counter``
    per positive edge, from the explicit words on (the recursion that
    ``FrequencyOracle._factor_counts`` ran before it went through powers of
    the block matrix)."""
    f, edges, t = oracle.f, oracle.graph.positive_edges, oracle.t
    margin = length - 1

    def factors(word):
        return Counter(min(q, reverse_path(q))
                       for q in (word[i:i + length] for i in range(len(word) - length + 1)))
    words = {e: (e,) for e in oracle.graph.oriented_edges}
    level = 0
    while level < t and min(map(len, words.values())) < max(1, margin):
        words = {e: f.map_path(w) for e, w in words.items()}
        level += 1
    counts = [factors(words[e]) for e in edges]
    prefixes = {e: w[:margin] for e, w in words.items()}
    suffixes = {e: w[len(w) - margin:] for e, w in words.items()}
    while level < t:
        new_counts = []
        for e in edges:
            img = f.image(e)
            c = Counter()
            for x in img:
                c.update(counts[x >> 1])
            for x, y in zip(img, img[1:]):
                c.update(factors(suffixes[x] + prefixes[y]))
            new_counts.append(c)
        counts = new_counts
        prefixes = {e: prefixes[f.image(e)[0]] for e in prefixes}
        suffixes = {e: suffixes[f.image(e)[-1]] for e in suffixes}
        level += 1
    return counts


@pytest.mark.parametrize("name,f", pullback_maps(), ids=[n for n, _ in pullback_maps()])
def test_oracle_counts_equal_the_level_by_level_merge(name, f):
    """The counts through powers of the block matrix are the merged
    ``Counter`` recursion's, key for key, on every measure of the engine and
    pullback maps; t up to 3 ends inside the explicit-word phase for the
    longer lengths."""
    for kf in measures_of(f):
        wt = kf.weights
        for t in (0, 1, 2, 3, 7, 20, 64):
            oracle = FrequencyOracle(f, wt.vector, wt.lam, t)
            for length in range(1, 6):
                assert oracle._factor_counts(length) == reference_factor_counts(oracle, length), \
                    (t, length)


def test_oracle_counts_at_a_large_iterate():
    """At t = 2000 the counts of the Fibonacci map have hundreds of digits;
    the block-matrix columns keep them exact."""
    f = dict(pullback_maps())["fibonacci"]
    wt = measures_of(f)[0].weights
    oracle = FrequencyOracle(f, wt.vector, wt.lam, 2000)
    counts = oracle._factor_counts(4)
    assert counts == reference_factor_counts(oracle, 4)
    assert max(max(c.values()) for c in counts).bit_length() > 1000


def test_eval_at_level_rejects_empty_and_low_levels(fib_setup):
    tower, _, _, kf = fib_setup
    with pytest.raises(PathError):
        kf.eval_at_level((), 3)
    with pytest.raises(PreconditionError):
        kf.eval_at_level((A, B, A), tower.level_for_length(3) - 1)
    with pytest.raises(PathError):
        kf.eval_at_level((Abar, A), 3)      # unreduced
    with pytest.raises(PreconditionError):
        kf.eval_at_level((A,), -1)


def test_engine_shares_equal_values(fib_setup):
    """Equal recipes share one interval: paths absent from every level word
    are the one exact zero of their level."""
    kf = fib_setup[3]
    zero = kf.eval((B, B, A))
    assert zero.a == 0 and zero.b == 0
    assert kf.eval((A, B, B)) is zero


# -- Kirchhoff verification ---------------------------------------------------------------


def test_verify_kolmogorov_fibonacci(fib_setup):
    report = verify_kolmogorov(fib_setup[3], 6, 1e-12)
    assert report.passed
    assert report.max_violation < 1e-18


def test_verify_kolmogorov_thue_morse(tm_setup):
    report = verify_kolmogorov(tm_setup[3], 6, 1e-12)
    assert report.passed


def test_verify_detects_corruption(fib_setup, rose2):
    kf = fib_setup[3]
    entries = {p: kf.eval(p) for p in rose2.reduced_paths(4)}
    entries[(A, B)] = entries[(A, B)] + ia.one()
    entries[reverse_path((A, B))] = entries[(A, B)]
    bad = MeasureTable(rose2, entries, 4)
    report = verify_kolmogorov(bad, 3, 1e-9)
    assert not report.passed


PULLBACK_MAPS = pullback_maps()


# 1e-12 and values within half an ulp of it; all exact at 128 bits
TOL = 1e-12
BELOW = Fraction(TOL) - Fraction(1, 2 ** 100)
NEAR = Fraction(TOL) + Fraction(1, 2 ** 100)
NEARER = Fraction(TOL) + Fraction(1, 2 ** 99)


@pytest.mark.parametrize("violations, tol, verdict, shown", [
    # both endpoints round to the double TOL, but the lower one is above it
    ([ia.from_endpoints(NEAR, NEARER)], TOL, "fail", TOL),
    # the largest lower and upper endpoints come from different values
    ([ia.from_endpoints(BELOW, BELOW), ia.exact(0),
      ia.from_endpoints(Fraction(0), NEAR)], TOL, "inconclusive", TOL),
    ([Fraction(0)], 0.0, "pass", 0.0),
])
def test_record_compares_exact_endpoints(violations, tol, verdict, shown):
    report = VerificationReport()
    report.record("c", iter(violations), tol)
    got = ("fail" if report.failures else
           "inconclusive" if report.inconclusive else "pass")
    assert got == verdict
    assert report.checks["c"] == report.max_violation == shown


def test_record_refuses_nan_tolerance():
    with pytest.raises(PreconditionError):
        VerificationReport().record("c", [], math.nan)


def test_record_refuses_negative_tolerance():
    """Below a negative tolerance even the exact zero would fail."""
    with pytest.raises(PreconditionError):
        VerificationReport().record("c", [Fraction(0)], -1.0)


def test_record_refuses_infinite_tolerance():
    """Below an infinite tolerance any violation would pass."""
    with pytest.raises(PreconditionError):
        VerificationReport().record("c", [ia.exact(10 ** 9)], math.inf)


# -- image measures -----------------------------------------------------------------------


def test_image_measure_identity(fib_setup, rose2):
    kf = fib_setup[3]
    ident = identity_map(rose2)
    for p in [(A,), (A, B), (A, A)]:
        assert ia.sup_abs(image_measure(ident, kf, p) - kf.eval(p)) < 1e-12


def test_image_measure_fibonacci(fib_setup, fibonacci, golden_root):
    kf = fib_setup[3]
    lam = golden_root.interval()
    for p in fibonacci.domain.reduced_paths(4):
        defect = image_measure(fibonacci, kf, p) - lam * kf.eval(p)
        assert ia.sup_abs(defect) < 1e-12


def test_image_measure_thue_morse(tm_setup, thue_morse):
    """The pushforward doubles the measure even though the map is not a
    homotopy equivalence (the subshift route)."""
    kf = tm_setup[3]
    for p in thue_morse.domain.reduced_paths(4):
        defect = image_measure(thue_morse, kf, p) - ia.exact(2) * kf.eval(p)
        assert ia.sup_abs(defect) < 1e-12


def walk_image_measure(f, kf, path, parents=None):
    """Reference pushforward: the measure summed over the path's
    ``walk_parents`` (given, or found here) in their order."""
    total = ia.zero()
    for parent in walk_parents(f, path) if parents is None else parents:
        total = total + kf.eval(parent)
    return total


def walk_parents(f, path):
    """Every sub-edge ``(e, j)`` whose image letter is ``path[0]``, in
    (oriented edge, offset) order, grows its parents by a recursive walk over
    the reduced continuations in ``directions_at`` order."""
    g = f.domain
    parents = []

    def walk(e, j, idx, cover):
        img = f.image(e)
        while idx < len(path) and j < len(img):
            if img[j] != path[idx]:
                return
            j += 1
            idx += 1
        if idx == len(path):
            parents.append(tuple(cover))
            return
        for d in g.directions_at(g.terminal(e)):
            if d != inverse(e):
                walk(d, 0, idx, cover + [d])

    for e in g.oriented_edges:
        for j, letter in enumerate(f.image(e)):
            if letter == path[0]:
                walk(e, j, 0, [e])
    return parents


def assert_pushforward_equals_walk(f, kf, max_length=4):
    for p in f.codomain.reduced_paths(max_length):
        assert image_measure(f, kf, p) == walk_image_measure(f, kf, p), p


def test_image_measure_bit_identical_to_walk_off_self_maps(fib_setup, rose2):
    """Also for maps that are neither expanding nor train track: the identity,
    and a map from the rose to a three-petal rose (a -> a b, b -> c ~a)."""
    kf = fib_setup[3]
    assert_pushforward_equals_walk(identity_map(rose2), kf)
    r3 = rose(3, ("a", "b", "c"))
    assert_pushforward_equals_walk(GraphMap(rose2, r3, [0], [(0, 2), (4, 1)]), kf)


def test_image_measure_counts_every_occurrence():
    """On red (c -> c c c a b) the path c occurs three times in the image of
    c, so the cover (c,) is summed three times; a set of covers would drop
    two and break the eigen equation with lambda = 3."""
    red = rose_map("ab", "ba", "cccab")
    C = 4
    covers = search_covers(red, (C,))
    assert covers.count((C,)) == 3
    pair, kf = next((pair, kf) for pair, kf in eigen_measures(red)[0]
                    if pair.value.compare(3) == 0)
    assert (kf.eval((C,)) > 0) is True
    total = image_measure(red, kf, (C,))
    assert ia.sup_abs(total - ia.exact(3) * kf.eval((C,))) < 1e-12


def test_verify_eigen_measure_pushes_each_path_forward_once(fib_setup, fibonacci,
                                                             golden_root, monkeypatch):
    """The eigen walk checks the map once and builds the pushforward once,
    reading each support value once, in no set order: it walks reduced
    paths up to the bound, the support among them.  Every reduced path it
    skips has the residual exactly [0, 0], which no check reads."""
    builds, reads, tame = [], [], []
    image_values, evaluate = KolmogorovFunction._image_values, KolmogorovFunction.eval
    require_tame = GraphMap.require_tame

    def counted(kf, f, bound):
        builds.append((f, bound))
        return image_values(kf, f, bound)

    monkeypatch.setattr(KolmogorovFunction, "_image_values", counted)
    monkeypatch.setattr(KolmogorovFunction, "eval",
                        lambda kf, path: reads.append(tuple(path)) or evaluate(kf, path))
    monkeypatch.setattr(GraphMap, "require_tame",
                        lambda f, *what: tame.append(f) or require_tame(f, *what))
    kf = KolmogorovFunction(fib_setup[1])    # no pushforward cached yet
    report = verify_eigen_measure(fibonacci, kf, golden_root, 4, 1e-12)
    assert report.passed and tame == [fibonacci]
    assert builds == [(fibonacci, 4)]
    support = {p for length in range(1, 5) for p in kf.support(length)}
    assert reads and len(set(reads)) == len(reads) and set(reads) == support
    everything = fibonacci.domain.reduced_paths(4)
    walked = set(image_values(kf, fibonacci, 4)) | support
    assert walked <= set(everything)
    assert all(kf.support(length) <= walked for length in range(1, 5))
    lam = golden_root.interval()
    skipped = [p for p in everything if p not in walked]
    assert skipped
    for p in skipped:
        assert image_measure(fibonacci, kf, p) - lam * kf.eval(p) == ia.zero(), p


def test_verify_eigen_measure_does_not_depend_on_a_longer_image_measure(monkeypatch):
    """After ``image_measure`` of a length-6 path, which builds the map's
    one pushforward at bound 6, ``verify_eigen_measure`` at bound 4 reads
    that pass but walks the same paths and gives the same report as on a
    fresh measure: at each measure's eigenvalue and at a wrong one."""
    walked, reports = [], []
    read = KolmogorovFunction._walked
    monkeypatch.setattr(KolmogorovFunction, "_walked",
                        lambda kf, path: walked.append(path) or read(kf, path))
    for _, f in pullback_maps():
        longest = f.domain.reduced_paths(6)[-1]
        for kf in measures_of(f):
            for lam in (kf.weights.lam, ia.exact(2)):
                runs = []
                for prime in (False, True):
                    mu = KolmogorovFunction(kf.weights)
                    if prime:
                        image_measure(f, mu, longest)
                    walked.clear()
                    report = verify_eigen_measure(f, mu, lam, 4, 1e-12)
                    runs.append((vars(report), set(walked)))
                assert runs[0] == runs[1], f
                reports.append(runs[0][0]["checks"])
    assert len(reports) >= 20


def test_verify_eigen_measure(fib_setup, fibonacci, golden_root):
    report = verify_eigen_measure(fibonacci, fib_setup[3], golden_root, 4, 1e-12)
    assert report.passed
    # a deliberately wrong eigenvalue fails with defect (2 - phi) * eval
    bad = verify_eigen_measure(fibonacci, fib_setup[3], ia.exact(2), 4, 1e-12)
    assert not bad.passed
    assert abs(bad.checks["eigen-equation"] - (2 - PHI) * PHI) < 1e-6


# -- the independent frequency oracle -------------------------------------------------------


def test_oracle_agrees(fib_setup, tm_setup, rose2):
    for setup in (fib_setup, tm_setup):
        tower, vt, _, kf = setup
        for p in rose2.reduced_paths(4):
            est = frequency_oracle(tower.f, vt.vector, vt.lam, p, 25)
            # a single edge has tail bound 0: only a tolerance can prove it
            assert est.within(kf.eval(p), 1e-12 if len(p) == 1 else 0.0) is True, p
            assert est.within(kf.eval(p) + ia.one(), 1e-12) is False, p
            assert ia.sup_abs(kf.eval(p) - est.value) <= ia.sup_abs(est.tail_bound) + 1e-15
    # with an irrational single-edge value and no tolerance nothing is proved
    tower, vt, _, kf = fib_setup
    est = frequency_oracle(tower.f, vt.vector, vt.lam, (A,), 25)
    assert est.within(kf.eval((A,))) is None


def test_oracle_refuses_vectors_that_are_not_non_negative(fib_setup):
    """The oracle takes the vector rule of ``WeightTower``: one certified
    non-negative coordinate per positive edge.  A negated vector would give
    a negative tail bound, a short one would be indexed past its end and a
    long one would be read only in part."""
    tower, vt, _, _ = fib_setup
    for vector in ([-x for x in vt.vector], vt.vector[:1], vt.vector + (ia.one(),)):
        with pytest.raises(PreconditionError):
            FrequencyOracle(tower.f, vector, vt.lam, 5)
        with pytest.raises(PreconditionError):
            frequency_oracle(tower.f, vector, vt.lam, (A,), 5)


def test_oracle_refuses_negative_iterates_and_small_eigenvalues(fib_setup):
    """A negative t or an eigenvalue not certainly above one gives a wrong
    estimate with a zero tail bound (at t = -3, cylinder a reads 2.618...
    against the value 0.618...), so both are refused."""
    tower, vt, _, _ = fib_setup
    with pytest.raises(PreconditionError, match=r"start at 0 \(got -3\)"):
        FrequencyOracle(tower.f, vt.vector, vt.lam, -3)
    with pytest.raises(PreconditionError, match=r"start at 0 \(got -3\)"):
        frequency_oracle(tower.f, vt.vector, vt.lam, (A,), -3)
    straddling = ia.from_endpoints(Fraction(1, 2), Fraction(3, 2))
    for lam in (1, Fraction(1), Fraction(1, 2), ia.one(), straddling):
        with pytest.raises(PreconditionError, match="exceed 1"):
            FrequencyOracle(tower.f, vt.vector, lam, 5)
        with pytest.raises(PreconditionError, match="exceed 1"):
            frequency_oracle(tower.f, vt.vector, lam, (A,), 5)


def test_oracle_refuses_what_is_no_eigenvector(fib_setup):
    """The tail bound's recursion needs M v = lambda v: (1, 1) with lambda =
    2 on Fibonacci read 0.1406 at t = 10 and 0.0169 at t = 20, each with an
    exact zero tail bound, so it is refused, as by the weight tower."""
    tower, _, _, _ = fib_setup
    for t in (10, 20):
        with pytest.raises(PreconditionError, match="not a certified eigenvector"):
            frequency_oracle(tower.f, (1, 1), 2, (A,), t)
    with pytest.raises(PreconditionError, match="not a certified eigenvector"):
        WeightTower(tower, (1, 1), 2)


@pytest.mark.parametrize("path", [(), (7,), (A, Abar), (A, 9)],
                         ids=["empty", "edge-7", "unreduced", "edge-9"])
def test_oracle_refuses_what_is_no_reduced_path(fib_setup, path):
    """Edge ids 7 and 9 name no edge of the 2-edge rose: an error, not a
    count of 0 occurrences."""
    tower, vt, _, _ = fib_setup
    oracle = FrequencyOracle(tower.f, vt.vector, vt.lam, 5)
    with pytest.raises(PathError):
        oracle.counts(path)
    with pytest.raises(PathError):
        oracle.estimate(path)
    with pytest.raises(PathError):
        frequency_oracle(tower.f, vt.vector, vt.lam, path, 5)


def test_oracle_monotone_convergence(fib_setup):
    tower, vt, _, kf = fib_setup
    last = None
    for t in (5, 10, 20, 30, 40):
        est = frequency_oracle(tower.f, vt.vector, vt.lam, (A, A), t)
        value = mid(est.value)
        if last is not None:
            assert value >= last - 1e-15
        last = value
    assert abs(last - 1 / PHI) < 1e-7


def test_oracle_mixed_sign_vanishes(fib_setup):
    tower, vt, _, _ = fib_setup
    est = frequency_oracle(tower.f, vt.vector, vt.lam, (A, Bbar), 12)
    assert mid(est.value) == 0.0


def test_oracle_and_eigen_equation_reducible_example():
    """Cross-validation on the three-letter substitution with a reducible
    incidence matrix: both measures agree with the counting oracle and are
    projectively invariant under the pushforward."""
    three = Substitution.from_strings({"a": "ab", "b": "ba", "c": "cccab"})
    f = three.rose_map
    enum = ergodic_measures(three)
    assert len(enum.measures) == 2
    for mu in enum.measures:
        kf = mu.kolmogorov
        wt = kf.weights
        for p in f.domain.reduced_paths(3):
            est = frequency_oracle(f, wt.vector, wt.lam, p, 25)
            assert est.within(kf.eval(p), 1e-12 if len(p) == 1 else 0.0) is True, p
        report = verify_eigen_measure(f, kf, mu.eigenvalue, 3, 1e-12)
        assert report.passed


# -- recovery -------------------------------------------------------------------------------


def test_recovery_reproduces_weights(fib_setup):
    tower, vt, _, kf = fib_setup
    table = kf.support_table(13)
    for m, rho in [(0, 0), (1, 1), (2, 3), (3, 6)]:
        recovered = recover_weights(table, tower, m, rho)
        for (e, _), value in recovered.items():
            target = vt.vector[e >> 1] * vt.level_scale(m)
            assert ia.sup_abs(value - target) < 1e-10


def test_recovery_reads_no_value_off_the_used_language():
    """On every measure of the bench maps, at levels 0-2 where the
    repetition bound is found within radius 6 (24 cases), the support table,
    the non-zero set, recovers the same weights, endpoint for endpoint, as a
    table over the infinitely legal language, which is larger in 14 of them
    (the two more are level 0 of red's first measure and of random-0's,
    which have a zero coordinate): the windows that ``recover_weights`` sums
    off the support table read the exact zero either way."""
    recovered = smaller = 0
    for name, f in pullback_maps():
        old = InfinitelyLegal(f)
        for kf in measures_of(f):
            tower = kf.tower
            for m in range(3):
                rho = repetition_bound(tower, m, 6).bound
                if rho is None:
                    continue
                length = 2 * rho + 1
                table = kf.support_table(length)
                wide = MeasureTable(f.domain, {p: kf.eval(p) for n in range(1, length + 1)
                                               for p in old.paths_of_length(n)}, length)
                assert table.entries.keys() <= wide.entries.keys(), (name, m)
                smaller += len(table.entries) < len(wide.entries)
                got, want = (recover_weights(t, tower, m, rho) for t in (table, wide))
                assert got.keys() == want.keys()
                for center, value in got.items():
                    assert ia.endpoints(value) == ia.endpoints(want[center]), (name, m, center)
                recovered += 1
    assert (recovered, smaller) == (24, 14)


def test_recovery_level0_is_identity(fib_setup):
    tower, vt, _, kf = fib_setup
    table = kf.support_table(3)
    recovered = recover_weights(table, tower, 0, 0)
    assert ia.sup_abs(recovered[(A, 0)] - kf.eval((A,))) < 1e-12
    assert ia.sup_abs(recovered[(B, 0)] - kf.eval((B,))) < 1e-12


def test_recovery_guard_rails(fib_setup):
    tower, _, _, kf = fib_setup
    small = kf.support_table(3)
    with pytest.raises(IncompleteTableError):
        recover_weights(small, tower, 2, 3)
    with pytest.raises(PreconditionError):
        recover_weights(kf.support_table(9), tower, 3, 4)


def test_recovery_refuses_negative_level(fib_setup):
    tower, _, _, kf = fib_setup
    with pytest.raises(PreconditionError, match=r"tower levels start at 0 \(got -1\)"):
        recover_weights(kf.support_table(3), tower, -1, 1)


def test_recovery_below_bound_double_counts(fib_setup):
    """Radius four at level three genuinely over-attributes mass: both the
    wrap-around and the block parsing of the same nine-letter word claim it."""
    tower, vt, _, kf = fib_setup
    table = kf.support_table(9)
    # the sums of recover_weights, taken below the bound that it enforces
    worst = max(ia.sup_abs(ia.isum(table.value(img) for img in sorted(
                    {img for _, img in tower.legal_windows(center, 4, 3)}))
                           - vt.vector[center[0] >> 1] * vt.level_scale(3))
                for center in tower.short_edges(3))
    assert worst > 0.1


# -- external tables ------------------------------------------------------------------------


def figure4_word_values():
    """The published integer listing for the two-letter weighted tower
    example (lengths up to five)."""
    return {
        "a": 9, "b": 18,
        "aa": 0, "ab": 9, "ba": 9, "bb": 9,
        "aaa": 0, "aab": 0, "aba": 3, "abb": 6, "baa": 0,
        "bab": 9, "bba": 6, "bbb": 3,
        "abba": 3, "abbb": 3, "babb": 6, "baba": 3,
        "abbab": 3, "ababb": 3, "bbaba": 3, "bbabb": 3, "bbbaa": 3,
    }


def word_path(word):
    return tuple(A if ch == "a" else B for ch in word)


def figure4_table(rose2, up_to):
    entries = {}
    for word, value in figure4_word_values().items():
        if len(word) > up_to:
            continue
        p = word_path(word)
        entries[p] = Fraction(value)
        entries[reverse_path(p)] = Fraction(value)
    return MeasureTable(rose2, entries, up_to)


def test_figure4_short_lengths_exact(rose2):
    table = figure4_table(rose2, 3)
    report = verify_kolmogorov(table, 2, 0.0)
    assert report.passed
    assert report.max_violation == 0


def test_exact_pairs_stay_exact():
    """Two Fractions compare and subtract exactly through the operators; a
    Fraction meeting an interval is enclosed on contact."""
    third = Fraction(1, 3)
    assert type(third - third) is Fraction and third - third == 0
    assert (third < third) is False
    x = third - ia.one()
    assert type(x) is ia.Interval and ia.contains_zero(x + ia.one() * 2 / 3)
    assert x == ia.from_fraction(third) - ia.one()
    assert (third < ia.one()) is True and (ia.one() < third) is False
    assert ia.coerce(ia.one()) is ia.one() and ia.coerce(Fraction(2)) == ia.exact(2)


def test_figure4_inconsistency_flagged(rose2):
    table = figure4_table(rose2, 5)
    flagged = table.monotonicity_violations()
    assert any(path == word_path("bbbaa") for path, _ in flagged)
    # and the verifier surfaces the same flag
    report = verify_kolmogorov(table, 2, 0.0)
    label = rose2.path_label(word_path("bbbaa"))
    assert any(flag[1] == label for flag in report.flags
               if flag[0] == "monotonicity")


def test_table_normalisation(fibonacci, fib_setup):
    """Scaling a measure so its single-edge cylinders over the positive
    edges sum to one gives the probability measure of eigen_measures, whose
    single-edge cylinders sum to one on every map."""
    kf = fib_setup[3]
    total = kf.eval((A,)) + kf.eval((B,))
    (prob,) = measures_of(fibonacci)
    for p in fibonacci.domain.reduced_paths(2):
        assert ia.contains_zero(kf.eval(p) / total - prob.eval(p)), p
    for _, f in PULLBACK_MAPS:
        for m in measures_of(f):
            mass = ia.isum(m.eval((e,)) for e in f.domain.positive_edges)
            assert ia.contains_zero(mass - ia.one())


def test_table_incomplete_error(rose2):
    table = figure4_table(rose2, 3)
    with pytest.raises(IncompleteTableError):
        table.value(word_path("aaaa"))


def test_table_recorded_zero_beyond_bound(rose2):
    """A recorded zero past the bound is returned for the path and its reversal."""
    path = word_path("aaaa")
    table = MeasureTable(rose2, {path: Fraction(0)}, 3)
    assert table.value(path) == table.value(reverse_path(path)) == table.recorded(path) == 0
