import functools
import math
import random

import pytest

import ttm.intervals as ia
import ttm.towers
from ttm.dialects import to_short
from ttm.errors import PreconditionError
from ttm.graphs import is_degenerate, is_reduced, make_turn, rose, turns_of
from ttm.maps import (
    GraphMap, compose, identity_map, is_expanding, is_train_track, matmul, used_language,
)
from ttm.measures import KolmogorovFunction, eigen_measures
from ttm.spectra import distinguished_eigenvectors
from ttm.towers import (
    RepetitionSearch, StationaryTower, WeightTower, repetition_bound,
    weight_tower_from_vector,
)

from conftest import A, Abar, B, Bbar, measures_of, pullback_maps
from pullback_reference import used_reference

PHI = (1 + math.sqrt(5)) / 2


def power(f, t):
    """The t-th iterate of a self-map, by composition."""
    return functools.reduce(compose, [f] * t, identity_map(f.domain))


def path_image(tower, path, n):
    """The level-0 image of a level-n short-edge path, letter by letter."""
    return tuple(tower.word(e, n)[j] for e, j in path)


def test_preconditions(rose2):
    not_tt = GraphMap(rose2, rose2, [0], [(A, B), (Abar,)])
    with pytest.raises(PreconditionError):
        StationaryTower(not_tt)
    not_exp = GraphMap(rose2, rose2, [0], [(A, B), (B,)])
    with pytest.raises(PreconditionError):
        StationaryTower(not_exp)
    valence2 = GraphMap(rose(1, ("a",)), rose(1, ("a",)), [0], [(0, 0)])
    with pytest.raises(PreconditionError):
        StationaryTower(valence2)


def test_minlength_fibonacci(fib_setup):
    tower = fib_setup[0]
    # Fibonacci numbers 1, 1, 2, 3, 5, 8, 13
    assert [tower.minlength(n) for n in range(7)] == [1, 1, 2, 3, 5, 8, 13]
    assert tower.level_for_length(5) == 4
    assert all(tower.minlength(n) >= 1 for n in range(7))


def test_minlength_thue_morse(tm_setup):
    tower = tm_setup[0]
    assert [tower.minlength(n) for n in range(6)] == [1, 2, 4, 8, 16, 32]


def test_level_zero_is_identity(fib_setup):
    tower = fib_setup[0]
    for e in tower.graph.oriented_edges:
        assert tower.word(e, 0) == (e,)


def test_level_map_compatibility(fib_setup):
    """Tower maps compose on the nose: the map from level n to level m is
    the (n-m)-th power of f, the (k,m)-map after the (m,n)-map is the
    (k,n)-map, and its edge images are the tower's words of level n-k."""
    tower = fib_setup[0]
    f = tower.f
    for k, m, n in [(0, 0, 0), (0, 1, 2), (1, 2, 4), (0, 2, 5), (2, 3, 6)]:
        lhs = power(f, m - k)
        rhs = power(f, n - m)
        comp_words = [lhs.map_path(rhs.image(e)) for e in tower.graph.positive_edges]
        direct = power(f, n - k)
        assert comp_words == [direct.image(e) for e in tower.graph.positive_edges]
        assert comp_words == [tower.word(e, n - k) for e in tower.graph.positive_edges]
    assert power(f, 0).edge_image == ((A,), (B,))


def test_subdivision_counts(fib_setup):
    tower = fib_setup[0]
    assert len(tower.word(A, 2)) == 3
    assert len(tower.word(B, 2)) == 2


def test_level_graph_matches_virtual_structure(fib_setup):
    """The level-n graph materialised in short-edge dialect (the short form
    of the n-th power) has one short edge per virtual address, mapped to the
    same letters."""
    tower = fib_setup[0]
    for n in range(4):
        sf = to_short(power(tower.f, n))
        assert sf.pieces == tuple(len(tower.word(2 * k, n))
                                  for k in range(tower.graph.n_edges))
        for k in range(tower.graph.n_edges):
            for i in range(sf.pieces[k]):
                short = sf.piece_edge[(2 * k, i)]
                assert sf.map.image(short) == (tower.word(2 * k, n)[i],)


def image_at_level(tower, se, n, m):
    """Image of a level-n short edge at level m: one level-m short edge,
    since level-n subdivision points sit over level-m ones."""
    e, j = se
    for letter in tower.word(e, n - m):
        if j < len(tower.word(letter, m)):
            return (letter, j)
        j -= len(tower.word(letter, m))
    raise AssertionError("offset out of range")


def test_image_at_level(fib_setup):
    tower = fib_setup[0]
    # words refine consistently between levels
    for n, m in [(2, 1), (3, 1), (3, 2), (4, 0)]:
        for e in tower.graph.oriented_edges:
            for j in range(len(tower.word(e, n))):
                se = image_at_level(tower, (e, j), n, m)
                # mapping down to level 0 in two hops agrees with one hop
                letter_direct = tower.word(e, n)[j]
                letter_via = tower.word(se[0], m)[se[1]]
                assert letter_direct == letter_via


def test_vector_tower_requires_expansion_eigenpair(fib_setup, golden_root):
    tower = fib_setup[0]
    with pytest.raises(PreconditionError):
        WeightTower(tower, (ia.one(), ia.one()), golden_root)  # not an eigenvector
    with pytest.raises(PreconditionError):
        WeightTower(tower, (golden_root.interval(), ia.one()), ia.exact(1))


def test_vector_tower_levels(fib_setup):
    _, vt, _, _ = fib_setup
    # compatibility: M(f) (v / lam^{n+1}) = v / lam^n
    m = vt.tower.f.transition_matrix()
    def level_vector(n):
        return tuple(v * vt.level_scale(n) for v in vt.vector)

    for n in range(4):
        high = level_vector(n + 1)
        low = level_vector(n)
        for i in range(2):
            acc = ia.zero()
            for j in range(2):
                acc = acc + ia.exact(m[i][j]) * high[j]
            assert ia.contains_zero(acc - low[i])
    # sup norm of the level vectors tends to zero
    assert max(ia.sup_abs(v) for v in level_vector(40)) < 1e-8


def test_turn_weights_fibonacci(fib_setup):
    _, _, wt, _ = fib_setup
    inv_phi = 1 / PHI
    expected = {
        make_turn(Abar, B): 1.0,
        make_turn(Bbar, A): 1.0,
        make_turn(Abar, A): inv_phi,
        make_turn(A, B): 0.0,
        make_turn(Abar, Bbar): 0.0,
        make_turn(B, Bbar): 0.0,
    }
    for turn, val in expected.items():
        assert abs(ia.midpoint(wt.turn_weight[turn]) - val) < 1e-12
    # switch condition at the direction ~a written out: w(a) = w({~a,a}) +
    # w({~a,b}) + w({~a,~b}) = 1/phi + 1 + 0 = phi
    lhs = wt.edge_weight[A]
    rhs = wt.turn_weight[make_turn(Abar, A)] + wt.turn_weight[make_turn(Abar, B)] \
        + wt.turn_weight[make_turn(Abar, Bbar)]
    assert ia.contains_zero(lhs - rhs)


def test_turn_weights_thue_morse(tm_setup):
    _, _, wt, _ = tm_setup
    expected = {
        make_turn(Abar, B): 2 / 3,
        make_turn(Bbar, A): 2 / 3,
        make_turn(Abar, A): 1 / 3,
        make_turn(B, Bbar): 1 / 3,
        make_turn(A, B): 0.0,
        make_turn(Abar, Bbar): 0.0,
    }
    for turn, val in expected.items():
        assert abs(ia.midpoint(wt.turn_weight[turn]) - val) < 1e-15


# -- turn weights from one orbit walk vs per-target hit times ------------------------


def hit_times(da, source_turn, target_turn):
    """When the Df-orbit of the source sits at the target: never, once at k,
    or periodically at k0, k0 + q, ..."""
    target = make_turn(*target_turn)
    pre, cyc = da.orbit(source_turn)
    for k, t in enumerate(pre):
        if t == target:
            return ("once", k)
    if len(cyc) == 1 and is_degenerate(cyc[0]):
        return ("never", None)
    for j, t in enumerate(cyc):
        if t == target:
            return ("periodic", (len(pre) + j, len(cyc)))
    return ("never", None)


def hit_time_turn_weights(wt):
    """Reference turn weights: one hit-time query per (target, e, tau)."""
    tower = wt.tower
    graph, da = tower.graph, tower.f.directions
    lam_inv = 1 / wt.lam
    out = {}
    for target in graph.all_turns():
        acc = ia.zero()
        if da.is_legal(target):
            for e in graph.positive_edges:
                v_e = wt.vector[e >> 1]
                for tau in turns_of(tower.f.image(e)):
                    kind, data = hit_times(da, tau, target)
                    if kind == "once":
                        acc = acc + lam_inv ** (data + 1) * v_e
                    elif kind == "periodic":
                        k0, q = data
                        acc = acc + lam_inv ** (k0 + 1) / (ia.one() - lam_inv ** q) * v_e
        out[target] = acc
    return out


def weight_maps():
    """The pullback maps but q and q2."""
    return [f for name, f in pullback_maps() if name not in ("q", "q2")]


def three_step_measures(f):
    """Reference: a fresh tower per distinguished eigenpair above one, then
    the certified weight tower and the evaluator, one step at a time."""
    out = []
    for pair in distinguished_eigenvectors(f.transition_matrix()):
        if pair.value.compare(1) > 0:
            tower = StationaryTower(f)
            wt = weight_tower_from_vector(tower, pair.vector, pair.value.interval())
            out.append(KolmogorovFunction(wt))
    return out


@pytest.mark.parametrize("f", weight_maps())
def test_eigen_measures_equal_three_step_chain(f):
    """The constructor on one shared tower gives the same measures, endpoint
    for endpoint, as the step-by-step chain on a tower per measure."""
    measures, skipped = eigen_measures(f)
    reference = three_step_measures(f)
    assert len(measures) == len(reference) >= 1 and skipped == []
    for (_, kf), ref in zip(measures, reference):
        for p in f.domain.reduced_paths(4):
            assert kf.eval(p) == ref.eval(p), p


@pytest.mark.parametrize("f", weight_maps())
def test_turn_weights_equal_hit_time_sums(f):
    for kf in measures_of(f):
        wt = kf.weights
        ref = hit_time_turn_weights(wt)
        assert list(wt.turn_weight) == list(ref)
        for t, w in ref.items():
            assert wt.turn_weight[t] == w, t


def dense_turn_weights(wt):
    """Reference: the dense accumulation, an interval zero on every turn and
    each orbit term added in (e, tau) order, every power taken afresh."""
    tower = wt.tower
    graph, da = tower.graph, tower.f.directions
    lam_inv = 1 / wt.lam
    out = {t: ia.zero() for t in graph.all_turns()}
    for e in graph.positive_edges:
        v_e = wt.vector[e >> 1]
        for tau in turns_of(tower.f.image(e)):
            if not da.is_legal(tau):
                continue
            pre, cyc = da.orbit(tau)
            for k, t in enumerate(pre):
                out[t] = out[t] + lam_inv ** (k + 1) * v_e
            q = len(cyc)
            for j, t in enumerate(cyc):
                tail = lam_inv ** (len(pre) + j + 1) / (ia.one() - lam_inv ** q)
                out[t] = out[t] + tail * v_e
    return out


def dense_switch_residuals(wt, turn_weight):
    """Reference: every turn weight at a direction added, zeros included."""
    graph = wt.tower.graph
    out = {}
    for v in graph.vertices:
        for d in graph.directions_at(v):
            acc = ia.zero()
            for d2 in graph.directions_at(v):
                if d2 != d:
                    acc = acc + turn_weight[make_turn(d, d2)]
            out[d] = wt.edge_weight[d] - acc
    return out


def block_triangular_roses(seed):
    """Rose maps of seeded substitutions on 12-20 letters: one diagonal block
    per entry of the shape, each block a cycle of letters with images of
    length 2-4, and every block but the first also mapping into the one
    before it (block triangular incidence)."""
    rng = random.Random(seed)
    out = []
    for sizes in ([12], [6, 6], [6, 5, 5], [5, 5, 5, 5]):
        images, offset = [], 0
        for b, size in enumerate(sizes):
            for i in range(size):
                image = [offset + (i + 1) % size] + [
                    offset + rng.randrange(size) for _ in range(rng.randint(1, 3))]
                rng.shuffle(image)
                if b > 0 and rng.random() < 0.5:
                    image.append(offset - 1 - rng.randrange(sizes[b - 1]))
                images.append(tuple(2 * x for x in image))
            offset += size
        g = rose(offset, tuple(f"x{i}" for i in range(offset)))
        out.append(GraphMap(g, g, [0], images))
    return out


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("f", weight_maps() + block_triangular_roses(17))
def test_sparse_turn_weights_equal_dense_sums(f, bits):
    """Sums on the visited turns only, one shared exact zero elsewhere and a
    switch check that skips it give every turn weight and every residual of
    the dense loops endpoint for endpoint."""
    with ia.working_precision(bits):
        measures = measures_of(f)
        assert measures
        for kf in measures:
            wt = kf.weights
            ref = dense_turn_weights(wt)
            assert list(wt.turn_weight) == list(ref)
            for t, w in ref.items():
                assert wt.turn_weight[t] == w, t
            residuals = wt.switch_residuals()
            ref_residuals = dense_switch_residuals(wt, ref)
            assert list(residuals) == list(ref_residuals)
            for d, r in ref_residuals.items():
                assert residuals[d] == r, d


def test_switch_conditions(fib_setup, tm_setup):
    for setup in (fib_setup, tm_setup):
        wt = setup[2]
        assert all(ia.contains_zero(r) for r in wt.switch_residuals().values())
        for residual in wt.switch_residuals().values():
            assert ia.sup_abs(residual) < 1e-12


def test_illegal_turns_have_zero_weight(fib_setup, tm_setup):
    for setup in (fib_setup, tm_setup):
        wt = setup[2]
        da = wt.tower.f.directions
        assert all(w == ia.zero() for t, w in wt.turn_weight.items()
                   if not da.is_legal(t))


def test_turn_weight_bounded_by_edge_weights(fib_setup, tm_setup):
    for setup in (fib_setup, tm_setup):
        wt = setup[2]
        assert all((w <= wt.edge_weight[d]) is not False
                   for turn, w in wt.turn_weight.items() for d in turn)


def test_compatibility_is_eigen_identity(fib_setup):
    _, _, wt, _ = fib_setup
    residual = ia.eigen_residual(wt.tower.f.transition_matrix(), wt.vector, wt.lam)
    assert all(map(ia.contains_zero, residual))


def test_weight_determination_identity(fib_setup):
    """The weight of a level-m short edge equals the total weight of all
    legal level-n paths lying over its radius-r windows, once level-n long
    edges exceed the window length."""
    tower, vt, wt, _ = fib_setup
    for m, r in [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]:
        n = m
        while tower.minlength(n) < 2 * r + 1:
            n += 1
        n = max(n, m)
        for center in tower.short_edges(m):
            windows = [w for w in tower.windows(center, r, m)
                       if is_reduced(path_image(tower, w, m))]
            total = ia.zero()
            for w in windows:
                for lifted in _level_preimages(tower, w, m, n):
                    total = total + level_path_weight(wt, lifted, n)
            target = wt.edge_weight[center[0]] * vt.level_scale(m)
            assert ia.sup_abs(total - target) < 1e-12, (m, r, center)


def level_path_weight(wt, path, n):
    """Weight of a level-n path crossing at most one unsubdivided vertex:
    that turn's weight, else the common short-edge weight."""
    word = wt.tower.word
    crossed = [make_turn(e ^ 1, path[i + 1][0]) for i, (e, j) in enumerate(path[:-1])
               if j == len(word(e, n)) - 1]
    assert len(crossed) <= 1
    weight = wt.turn_weight[crossed[0]] if crossed else wt.edge_weight[path[0][0]]
    return weight * wt.level_scale(n)


def _level_preimages(tower, path, m, n):
    """Legal level-n paths mapping onto the given level-m path."""
    starts = [se for se in tower.short_edges(n)
              if image_at_level(tower, se, n, m) == path[0]]
    out = []

    def extend(prefix, idx):
        if idx == len(path):
            out.append(tuple(prefix))
            return
        for nxt in successors(tower, prefix[-1], n):
            if image_at_level(tower, nxt, n, m) == path[idx]:
                prefix.append(nxt)
                extend(prefix, idx + 1)
                prefix.pop()

    for s in starts:
        extend([s], 1)
    return [p for p in out if is_reduced(path_image(tower, p, n))]


def test_tower_self_morphism(fib_setup, golden_root):
    """The defining map, applied on every level, is a self-morphism of the
    tower: it commutes with the tower maps and multiplies the vector of the
    weight tower by lambda."""
    tower, vt, _, _ = fib_setup
    mf = tower.f.transition_matrix()
    lam = golden_root.interval()
    for got, v in zip(ia.matvec(mf, vt.vector), vt.vector):
        assert ia.contains_zero(got - lam * v)
    # commuting powers: M(f) M(f^2) = M(f^2) M(f)
    mf2 = power(tower.f, 2).transition_matrix()
    assert matmul(mf, mf2) == matmul(mf2, mf)


def test_identity_morphism_fixes_vector_tower(fib_setup):
    tower, vt, _, _ = fib_setup
    mi = identity_map(tower.graph).transition_matrix()
    mf = tower.f.transition_matrix()
    assert matmul(mi, mf) == matmul(mf, mi)
    for got, v in zip(ia.matvec(mi, vt.vector), vt.vector):
        assert ia.contains_zero(got - v)


def test_repetition_bounds_fibonacci(fib_setup):
    tower = fib_setup[0]
    results = {n: repetition_bound(tower, n, 7) for n in range(4)}
    assert results[0].bound == 0
    assert results[1].bound == 1
    assert results[2].bound == 3
    assert results[3].bound == 6
    assert all(r.found for r in results.values())


def test_repetition_bound_refuses_negative_cap(fib_setup):
    with pytest.raises(PreconditionError):
        repetition_bound(fib_setup[0], 0, -1)


def test_repetition_bound_refuses_negative_level(fib_setup):
    with pytest.raises(PreconditionError, match=r"tower levels start at 0 \(got -1\)"):
        repetition_bound(fib_setup[0], -1, 2)


def test_word_refuses_negative_level(fib_setup):
    tower = fib_setup[0]
    for e in (A, Bbar):
        with pytest.raises(PreconditionError, match=r"tower levels start at 0 \(got -1\)"):
            tower.word(e, -1)
    assert tower.word(A, 0) == (A,)


def test_repetition_bound_witness(rose2):
    """Two edges with identical images defeat small windows and the search
    reports the violating pair."""
    g = rose(3, ("a", "b", "c"))
    a, b, c = 0, 2, 4
    f = GraphMap(g, g, [0], [(c,), (c,), (a, b, c)])
    tower = StationaryTower(f)
    r = repetition_bound(tower, 1, 0)
    assert not r.found
    assert r.witness is not None
    w1, w2 = r.witness
    assert path_image(tower, w1, 1) == path_image(tower, w2, 1)
    assert w1[len(w1) // 2] != w2[len(w2) // 2]


@pytest.mark.parametrize("cap", [0, 2])
def test_repetition_bound_searches_each_radius_once(monkeypatch, cap):
    """A failed search scans each radius 0..cap once, builds no window
    twice, asks the language for no window longer than the cap's, and
    reports the first violation of the full scan at the cap."""
    g = rose(3, ("a", "b", "c"))
    a, b, c = 0, 2, 4
    f = GraphMap(g, g, [0], [(c,), (c,), (a, b, c)])
    radii, built, lengths = [], [], []
    scan, extend = ttm.towers._first_violation, ttm.towers._extend

    def recording(windows, k, tables, members):
        for w in extend(windows, k, tables, members):
            built.append(w[0])
            yield w

    monkeypatch.setattr(ttm.towers, "_first_violation",
                        lambda windows, rho: radii.append(rho) or scan(windows, rho))
    monkeypatch.setattr(ttm.towers, "_extend", recording)
    paths_of_length = f.legal.paths_of_length
    f.legal.paths_of_length = lambda k, longest: (
        lengths.append((k, longest)) or paths_of_length(k, longest))
    r = repetition_bound(StationaryTower(f), 1, cap)
    assert not r.found
    assert radii == list(range(cap + 1))
    assert len(built) == len(set(built)) and (cap == 0 or built)
    assert max(lengths) == (2 * cap + 1, 2 * cap + 1)
    assert {longest for _, longest in lengths} == {2 * cap + 1}
    assert r.witness == windows_violating_pair(StationaryTower(f), 1, cap)


def test_repetition_bound_legal_mode(fib_setup):
    """A stricter search over every window with a reduced image quantifies
    over more windows, so its bound is at least the used language's."""
    tower = fib_setup[0]
    weak = repetition_bound(tower, 1, 7)
    strict = reference_repetition_bound(StationaryTower(tower.f), 1, 7, False)
    assert strict.found and weak.found
    assert strict.bound >= weak.bound
    assert weak == reference_repetition_bound(StationaryTower(tower.f), 1, 7)


# -- pruned window scan vs the full window scan -------------------------------------------


def successors(tower, se, n):
    """Level-n short edges that can follow ``se`` on a reduced path."""
    e, j = se
    if j + 1 < len(tower.word(e, n)):
        return [(e, j + 1)]
    v = tower.graph.terminal(e)
    return [(d, 0) for d in tower.graph.directions_at(v) if d != e ^ 1]


def reverse_short(tower, se, n):
    e, j = se
    return (e ^ 1, len(tower.word(e, n)) - 1 - j)


def reference_windows(tower, center, radius, n):
    """Every reduced level-n path of length 2 radius + 1 centred on the
    short edge, lefts and rights grown separately, each one edge out at a
    time, then paired."""
    lefts = [()]
    for _ in range(radius):
        lefts = [(reverse_short(tower, q, n),) + p for p in lefts
                 for q in successors(tower, reverse_short(tower, p[0] if p else center, n), n)]
    rights = [()]
    for _ in range(radius):
        rights = [p + (q,) for p in rights for q in successors(tower, p[-1] if p else center, n)]
    return [l + (center,) + r for l in lefts for r in rights]


def windows_violating_pair(tower, n, rho, used=True):
    """Reference scan: every window, mapped letter by letter, filtered after
    to the reduced images, those in the used language (by the rescan
    reference) unless told otherwise."""
    language = used_reference(tower.f, 2 * rho + 1)
    seen = {}
    for center in tower.short_edges(n):
        for w in reference_windows(tower, center, rho, n):
            img = path_image(tower, w, n)
            if not is_reduced(img):
                continue
            if used and img not in language:
                continue
            if img in seen and seen[img][0] != center:
                return (seen[img][1], w)
            seen[img] = (center, w)
    return None


def reference_repetition_bound(tower, n, cap, used=True, scan=windows_violating_pair):
    """Reference search: the full scan at each radius 0..cap in turn."""
    for rho in range(cap + 1):
        witness = scan(tower, n, rho, used)
        if witness is None:
            return RepetitionSearch(level=n, cap=cap, bound=rho)
    return RepetitionSearch(level=n, cap=cap, witness=witness)


def signed_roses(seed, count):
    """Expanding train track self-maps of the 2- and 3-petal roses, each
    image a reduced word of 1-3 petals in either orientation.  Only maps
    whose level-2 edges all have at least three short edges are kept: the
    full reference scan enumerates every reduced window, and windows that
    cross the vertex at most a few times keep it under a few seconds."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = rng.randint(2, 3)
        g = rose(k, tuple("abc"[:k]))
        images = []
        while len(images) < k:
            w = tuple(rng.randrange(2 * k) for _ in range(rng.randint(1, 3)))
            if is_reduced(w):
                images.append(w)
        f = GraphMap(g, g, [0], images)
        if (is_train_track(f)[0] and is_expanding(f)
                and StationaryTower(f).minlength(2) >= 3):
            out.append(f)
    return out


PULLBACK_MAPS = pullback_maps()
# the windows of q2 (and of red at level 1) multiply so fast per radius that
# their caps stop where the full reference scan still takes under a second
WINDOW_CAPS = {"q2": 3, "red": 6}


def test_windows_are_the_reference_windows():
    """The tower's windows are every reduced window, in the reference order."""
    for name, f in PULLBACK_MAPS:
        tower = StationaryTower(f)
        for n in range(3):
            for center in tower.short_edges(n):
                for rho in range(3):
                    assert tower.windows(center, rho, n) == reference_windows(
                        tower, center, rho, n), (name, n, center, rho)


@pytest.mark.parametrize("name,f,query", [
    pytest.param(name, f, query, id=name + ("-infinitely-legal" if query else ""))
    for query in (False, True) for name, f in PULLBACK_MAPS])
def test_legal_windows_are_the_reduced_windows_in_order(name, f, query):
    """The pruned windows are the full list filtered to reduced images in
    the used language, in the same order.  Membership is decided by the
    rescan reference (the ``infinitely-legal`` cases, named after the
    language that they once read), or by the library's ``used_language``."""
    tower = StationaryTower(f)
    if query:
        legal = lambda img: img in used_reference(f, len(img))
    else:
        language = used_language(f, 5)   # windows have <= 5 edges
        legal = language.__contains__
    for n in range(3):
        for center in tower.short_edges(n):
            for rho in range(3):
                want = [(w, path_image(tower, w, n))
                        for w in reference_windows(tower, center, rho, n)]
                want = [(w, img) for w, img in want if is_reduced(img)]
                want = [(w, img) for w, img in want if legal(img)]
                assert list(tower.legal_windows(center, rho, n)) == want


@pytest.mark.parametrize("name,f", PULLBACK_MAPS, ids=[n for n, _ in PULLBACK_MAPS])
def test_pruned_repetition_search_equals_full_scan(name, f):
    """Bound and witness agree with the full window scan at levels 0-3 and
    every cap up to 8."""
    tower, reference = StationaryTower(f), StationaryTower(f)
    for n in range(4):
        for cap in range(WINDOW_CAPS.get(name, 8) + 1):
            got = repetition_bound(tower, n, cap)
            assert got == reference_repetition_bound(reference, n, cap), (n, cap)


def test_repetition_search_equals_full_scan_on_signed_roses():
    """Bound and witness agree with the full window scan on 100 seeded maps,
    at levels 0-2 and caps 0-5, with bounds found and not found."""
    outcomes = set()
    for f in signed_roses(3, 100):
        tower, reference = StationaryTower(f), StationaryTower(f)
        scan = functools.cache(windows_violating_pair)    # each radius once per level
        for n in range(3):
            for cap in range(6):
                got = repetition_bound(tower, n, cap)
                want = reference_repetition_bound(reference, n, cap, scan=scan)
                assert got == want, (f, n, cap)
                outcomes.add(got.found)
    assert outcomes == {True, False}
