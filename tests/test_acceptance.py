"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; nothing is deferred to calibration.  The
weight-recovery criterion runs at the computed repetition bounds of the
Fibonacci tower (radii 0, 1, 3, 6 for levels 0-3), which need cylinder
values up to length 13; see the regression test at the bottom for why a
shorter table cannot work at level 3.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

import ttm.intervals as ia
from ttm.graphs import is_reduced, reverse_path, rose
from ttm.maps import (
    GraphMap, compose, is_train_track, matmul,
)
from ttm.measures import (
    MeasureTable, frequency_oracle, image_measure, recover_weights,
    verify_kolmogorov,
)
from ttm.spectra import pf_eigenpair
from ttm.substitutions import Substitution, ergodic_measures
from ttm.towers import repetition_bound

from conftest import A, Abar, B, Bbar, random_graph, random_map, random_tame_maps
from test_measures import figure4_table, word_path

PHI_REFERENCE = 1.6180339887498949


def _result(number, title, started, ok):
    elapsed = time.time() - started
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {title}: {status} ({elapsed:.2f}s)")
    return elapsed


def test_criterion_1_train_track_decisions(fibonacci, rose2):
    started = time.time()
    ok_fib, _ = is_train_track(fibonacci)
    bad = GraphMap(rose2, rose2, [0], [(A, B), (Abar,)])
    rejected, witness = is_train_track(bad)
    ok = ok_fib and not rejected and witness is not None
    if ok:
        e, t = witness
        # oracle: explicit iteration and free reduction
        ok = t <= 5 and not is_reduced(bad.iterate_image(e, t))
        ok = ok and all(is_reduced(bad.iterate_image(e, s)) for s in range(t))
    elapsed = _result(1, "train track decisions", started, ok)
    assert ok and elapsed < 1.0


def test_criterion_2_spectrum():
    started = time.time()
    pair = pf_eigenpair(((1, 1), (1, 0)))
    lam = pair.interval()
    ok = ia.width(lam) < 1e-12
    ok = ok and abs(ia.midpoint(lam) - PHI_REFERENCE) < 1e-12
    vec = [ia.midpoint(v) for v in pair.vector]
    ok = ok and abs(vec[0] - 0.61803398875) < 1e-10
    ok = ok and abs(vec[1] - 0.38196601125) < 1e-10
    elapsed = _result(2, "certified PF eigenpair", started, ok)
    assert ok and elapsed < 1.0


def test_criterion_3_measure_values(fib_setup):
    started = time.time()
    tower, vt, _, kf = fib_setup
    phi = PHI_REFERENCE
    expected = {(A,): phi, (B,): 1.0, (A, B): 1.0, (B, A): 1.0,
                (A, A): 1 / phi, (B, B): 0.0}
    ok = True
    for path, value in expected.items():
        got = kf.eval(path)
        ok = ok and ia.width(got) <= 1e-12
        ok = ok and abs(ia.midpoint(got) - value) <= 1e-12
        est = frequency_oracle(tower.f, vt.vector, vt.lam, path, 25)
        ok = ok and est.within(got, 1e-12 if len(path) == 1 else 0.0) is True
    elapsed = _result(3, "measure values against the counting oracle", started, ok)
    assert ok and elapsed < 5.0


def test_criterion_4_kirchhoff_flip_switch(fib_setup, tm_setup):
    started = time.time()
    ok = True
    for setup in (fib_setup, tm_setup):
        _, _, wt, kf = setup
        report = verify_kolmogorov(kf, 6, 1e-12)
        ok = ok and report.passed
        switch = max(ia.sup_abs(r) for r in wt.switch_residuals().values())
        ok = ok and switch <= 1e-12
    elapsed = _result(4, "Kirchhoff, flip and switch suites", started, ok)
    assert ok and elapsed < 10.0


def test_criterion_5_eigen_equation(fib_setup, tm_setup, fibonacci, thue_morse):
    started = time.time()
    ok = True
    for setup, f, lam in ((fib_setup, fibonacci, None),
                          (tm_setup, thue_morse, ia.exact(2))):
        kf = setup[3]
        lam = lam if lam is not None else setup[1].lam
        for path in f.domain.reduced_paths(5):
            defect = image_measure(f, kf, path) - lam * kf.eval(path)
            if not ia.sup_abs(defect) <= 1e-12:
                ok = False
                break
    elapsed = _result(5, "pushforward equals lambda times the measure", started, ok)
    assert ok and elapsed < 10.0


def test_criterion_6_uniqueness_recovery(fib_setup):
    started = time.time()
    tower, vt, _, kf = fib_setup
    bounds = {0: 0, 1: 1, 2: 3, 3: 6}
    table = kf.support_table(2 * max(bounds.values()) + 1)
    ok = True
    recovered0 = None
    for level, rho in bounds.items():
        recovered = recover_weights(table, tower, level, rho)
        if level == 0:
            recovered0 = recovered
        for (e, _), value in recovered.items():
            target = vt.vector[e >> 1] * vt.level_scale(level)
            ok = ok and ia.sup_abs(value - target) <= 1e-10
    # the recovered level-0 vector is a certified eigenvector of M(f)
    w0 = [recovered0[(2 * k, 0)] for k in range(tower.graph.n_edges)]
    m = tower.f.transition_matrix()
    for i in range(len(w0)):
        acc = ia.zero()
        for j in range(len(w0)):
            acc = acc + ia.exact(m[i][j]) * w0[j]
        ok = ok and ia.contains_zero(acc - vt.lam * w0[i])
    elapsed = _result(6, "weight recovery from the measure table", started, ok)
    assert ok and elapsed < 30.0


def test_criterion_7_published_table(rose2):
    started = time.time()
    short = figure4_table(rose2, 3)
    report = verify_kolmogorov(short, 2, 0.0)
    ok = report.passed and report.max_violation == 0
    full = figure4_table(rose2, 5)
    flagged = full.monotonicity_violations()
    ok = ok and any(path == word_path("bbbaa") for path, _ in flagged)
    elapsed = _result(7, "published integer table consistency", started, ok)
    assert ok and elapsed < 1.0


def _empirical_frequencies(sigma, seed, n):
    counts = Counter(sigma.iterate((seed,), n))
    total = sum(counts.values())
    return [counts[x] / total for x in sigma.alphabet]


def test_criterion_8_measure_enumeration():
    started = time.time()
    three = Substitution.from_strings({"a": "ab", "b": "ba", "c": "cccab"})
    enum = ergodic_measures(three)
    ok = len(enum.measures) == 2
    if ok:
        by_val = sorted(enum.measures, key=lambda m: float(m.eigenvalue))
        f2 = [ia.midpoint(v) for v in by_val[0].letter_frequencies()]
        f3 = [ia.midpoint(v) for v in by_val[1].letter_frequencies()]
        ok = max(abs(x - y) for x, y in zip(f2, (0.5, 0.5, 0.0))) <= 1e-10
        ok = ok and max(abs(x - 1 / 3) for x in f3) <= 1e-10
        # brute-force cross-check: the c-frequency error in sigma^n(c) is
        # 2**(n+1) / (3 (3**(n+1) - 2**(n+1))), first below 1e-3 at n = 14
        empirical = _empirical_frequencies(three, "c", 14)
        ok = ok and max(abs(x - y) for x, y in zip(f3, empirical)) <= 1e-3
    cab = Substitution.from_strings({"a": "ab", "b": "ba", "c": "cab"})
    enum_cab = ergodic_measures(cab)
    ok = ok and len(enum_cab.measures) == 1
    if ok:
        freq = [ia.midpoint(v) for v in enum_cab.measures[0].letter_frequencies()]
        empirical = _empirical_frequencies(cab, "c", 12)
        ok = max(abs(x - y) for x, y in zip(freq, empirical)) <= 1e-3
    elapsed = _result(8, "distinguished-eigenvector measure enumeration", started, ok)
    assert ok and elapsed < 10.0


def test_criterion_8_twelfth_iterate_gap_documented():
    """At the twelfth iterate the c-frequency of the dominant measure is
    still 2**13 / (3 (3**13 - 2**13)) away from one third, which exceeds
    1e-3; the convergent cross-check above therefore runs at the fourteenth
    iterate, the first with deviation below that tolerance."""
    three = Substitution.from_strings({"a": "ab", "b": "ba", "c": "cccab"})
    empirical = _empirical_frequencies(three, "c", 12)
    gap = abs(empirical[2] - 1 / 3)
    closed_form = 2 ** 13 / (3 * (3 ** 13 - 2 ** 13))
    assert abs(gap - closed_form) < 1e-12
    assert gap > 1e-3
    assert abs(_empirical_frequencies(three, "c", 14)[2] - 1 / 3) < 1e-3


def test_criterion_9_dialect_round_trips():
    from test_dialects import _check_laws
    from ttm.dialects import blow_up, to_short
    started = time.time()
    rng = random.Random(1212)
    maps = random_tame_maps(31415, 100)
    ok = True
    try:
        for f in maps:
            _check_laws(f)
            g = f.domain
            sf = to_short(f)
            bu = blow_up(g)
            paths = g.reduced_paths(3)
            rng.shuffle(paths)
            for p in paths[:6]:
                if sf.to_base_path(sf.to_short_path(p)) != p:
                    ok = False
                if bu.to_base_path(bu.to_blowup_path(p)) != p:
                    ok = False
    except AssertionError:
        ok = False
    elapsed = _result(9, "dialect round-trip laws on 100 random maps", started, ok)
    assert ok and elapsed < 30.0


def test_criterion_10_transition_functoriality():
    started = time.time()
    rng = random.Random(27182)
    checked = 0
    ok = True
    while checked < 100:
        g1, g2, g3 = (random_graph(rng) for _ in range(3))
        f = random_map(rng, g1, g2)
        g = random_map(rng, g2, g3)
        if f is None or g is None:
            continue
        if compose(g, f).transition_matrix() != matmul(g.transition_matrix(),
                                                       f.transition_matrix()):
            ok = False
            break
        checked += 1
    elapsed = _result(10, "transition matrix functoriality on 100 pairs", started, ok)
    assert ok and elapsed < 5.0


def test_fibonacci_repetition_bounds_documented(fib_setup):
    """Regression guard for the recovery radii used in criterion 6: the
    bounds grow with the subdivision scale, so the level-3 windows need
    thirteen letters (see the double-counting test in the measure suite)."""
    tower = fib_setup[0]
    bounds = {n: repetition_bound(tower, n, 7).bound for n in range(4)}
    assert bounds == {0: 0, 1: 1, 2: 3, 3: 6}
