import math

import pytest

import ttm.intervals as ia
import ttm.towers
from ttm.cli import build_measure
from ttm.errors import PreconditionError
from ttm.graphs import is_degenerate, is_reduced, make_turn, rose
from ttm.maps import GraphMap, junction_turns, matmul, power
from ttm.towers import (
    StationaryTower, VectorTower, image_vector_tower, repetition_bound,
    tower_self_morphism, weight_tower_from_vector,
)

from conftest import A, Abar, B, Bbar, expanding_self_maps, pullback_maps

PHI = (1 + math.sqrt(5)) / 2


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
    """Tower maps compose on the nose: the (k,m)-map after the (m,n)-map is
    the (k,n)-map."""
    tower = fib_setup[0]
    f = tower.f
    for k, m, n in [(0, 0, 0), (0, 1, 2), (1, 2, 4), (0, 2, 5), (2, 3, 6)]:
        lhs = tower.level_map(k, m)
        rhs = tower.level_map(m, n)
        comp_words = [lhs.map_path(rhs.image(e)) for e in tower.graph.positive_edges]
        direct = tower.level_map(k, n)
        assert comp_words == [direct.image(e) for e in tower.graph.positive_edges]
    assert tower.level_map(0, 2) == power(f, 2)
    assert tower.level_map(2, 2).edge_image == ((A,), (B,))


def test_subdivision_counts(fib_setup):
    tower = fib_setup[0]
    assert len(tower.word(A, 2)) == 3
    assert len(tower.word(B, 2)) == 2


def test_level_graph_matches_virtual_structure(fib_setup):
    tower = fib_setup[0]
    for n in range(4):
        sf = tower.level_graph(n)
        # one short edge per virtual address, mapped to the same letters
        assert sf.pieces == tuple(len(tower.word(2 * k, n))
                                  for k in range(tower.graph.n_edges))
        for k in range(tower.graph.n_edges):
            for i in range(sf.pieces[k]):
                short = sf.piece_edge[(2 * k, i)]
                assert sf.map.image(short) == (tower.image_letter((2 * k, i), n),)


def test_image_at_level(fib_setup):
    tower = fib_setup[0]
    # words refine consistently between levels
    for n, m in [(2, 1), (3, 1), (3, 2), (4, 0)]:
        for e in tower.graph.oriented_edges:
            for j in range(len(tower.word(e, n))):
                se = tower.image_at_level((e, j), n, m)
                # mapping down to level 0 in two hops agrees with one hop
                letter_direct = tower.image_letter((e, j), n)
                letter_via = tower.image_letter(se, m)
                assert letter_direct == letter_via


def test_vector_tower_requires_expansion_eigenpair(fib_setup, golden_root):
    tower = fib_setup[0]
    with pytest.raises(PreconditionError):
        VectorTower(tower, (ia.one(), ia.one()), golden_root)  # not an eigenvector
    with pytest.raises(PreconditionError):
        VectorTower(tower, (golden_root.interval(), ia.one()), ia.exact(1))


def test_vector_tower_levels(fib_setup):
    _, vt, _, _ = fib_setup
    # compatibility: M(f) (v / lam^{n+1}) = v / lam^n
    m = vt.f_matrix()
    for n in range(4):
        high = vt.level_vector(n + 1)
        low = vt.level_vector(n)
        for i in range(2):
            acc = ia.zero()
            for j in range(2):
                acc = acc + ia.exact(m[i][j]) * high[j]
            assert ia.contains_zero(acc - low[i])
    # sup norm of the level vectors tends to zero
    assert vt.sup_norm_level(40) < 1e-8


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


def hit_time_turn_weights(vt):
    """Reference turn weights: one hit-time query per (target, e, tau)."""
    tower = vt.tower
    graph, da = tower.graph, tower.directions
    lam_inv = 1 / vt.lam
    out = {}
    for target in graph.all_turns():
        acc = ia.zero()
        if da.is_legal(target):
            for e in graph.positive_edges:
                v_e = vt.vector[e >> 1]
                for tau in junction_turns(tower.f, e):
                    kind, data = hit_times(da, tau, target)
                    if kind == "once":
                        acc = acc + lam_inv ** (data + 1) * v_e
                    elif kind == "periodic":
                        k0, q = data
                        acc = acc + lam_inv ** (k0 + 1) / (ia.one() - lam_inv ** q) * v_e
        out[target] = acc
    return out


def weight_maps():
    r2, r3 = rose(2, ("a", "b")), rose(3, ("a", "b", "c"))
    a, b, c = 0, 2, 4
    roses = [GraphMap(r2, r2, [0], [(a, b), (a,)]), GraphMap(r2, r2, [0], [(a, b), (b, a)]),
             GraphMap(r3, r3, [0], [(a, b), (a, c), (a,)]),
             GraphMap(r3, r3, [0], [(a, b), (b, a), (c, c, c, a, b)])]
    return roses + expanding_self_maps(1414, 3)


@pytest.mark.parametrize("f", weight_maps())
def test_turn_weights_equal_hit_time_sums(f):
    _, vt, wt, _ = build_measure(f, "auto")
    ref = hit_time_turn_weights(vt)
    assert list(wt.turn_weight) == list(ref)
    for t, w in ref.items():
        assert wt.turn_weight[t]._mpi_ == w._mpi_, t


def test_switch_conditions(fib_setup, tm_setup):
    for setup in (fib_setup, tm_setup):
        wt = setup[2]
        assert wt.check_switch_conditions()
        for residual in wt.switch_residuals().values():
            assert ia.sup_abs(residual) < 1e-12


def test_illegal_turns_have_zero_weight(fib_setup, tm_setup):
    for setup in (fib_setup, tm_setup):
        wt = setup[2]
        assert wt.check_illegal_zero()


def test_turn_weight_bounded_by_edge_weights(fib_setup, tm_setup):
    for setup in (fib_setup, tm_setup):
        assert setup[2].check_turn_bounds()


def test_compatibility_is_eigen_identity(fib_setup):
    _, _, wt, _ = fib_setup
    assert all(ia.contains_zero(r) for r in wt.compatibility_residual())


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
                       if tower.is_level_path_legal(w, m)]
            total = ia.zero()
            for w in windows:
                for lifted in _level_preimages(tower, w, m, n):
                    total = total + wt.level_path_weight(lifted, n)
            target = wt.edge_weight_at(center[0], m)
            assert ia.sup_abs(total - target) < 1e-12, (m, r, center)


def _level_preimages(tower, path, m, n):
    """Legal level-n paths mapping onto the given level-m path."""
    starts = [se for se in tower.short_edges(n)
              if tower.image_at_level(se, n, m) == path[0]]
    out = []

    def extend(prefix, idx):
        if idx == len(path):
            out.append(tuple(prefix))
            return
        for nxt in tower.successors(prefix[-1], n):
            if tower.image_at_level(nxt, n, m) == path[idx]:
                prefix.append(nxt)
                extend(prefix, idx + 1)
                prefix.pop()

    for s in starts:
        extend([s], 1)
    return [p for p in out if tower.is_level_path_legal(p, n)]


def test_tower_self_morphism(fib_setup, golden_root):
    tower, vt, _, _ = fib_setup
    morphism = tower_self_morphism(tower)
    image = image_vector_tower(morphism, vt)
    lam = golden_root.interval()
    for got, v in zip(image.vector, vt.vector):
        assert ia.contains_zero(got - lam * v)
    # commuting powers: M(g) M(f^{k}) = M(f^{k}) M(g)
    mg = morphism.matrix()
    mf2 = power(tower.f, 2).transition_matrix()
    assert matmul(mg, mf2) == matmul(mf2, mg)


def test_identity_morphism_fixes_vector_tower(fib_setup):
    from ttm.maps import identity_map
    tower, vt, _, _ = fib_setup
    ident = tower_self_morphism(tower, identity_map(tower.graph))
    image = image_vector_tower(ident, vt)
    for got, v in zip(image.vector, vt.vector):
        assert ia.contains_zero(got - v)


def test_repetition_bounds_fibonacci(fib_setup):
    tower = fib_setup[0]
    results = {n: repetition_bound(tower, n, 7) for n in range(4)}
    assert results[0].bound == 0
    assert results[1].bound == 1
    assert results[2].bound == 3
    assert results[3].bound == 6
    assert all(r.status == "found" for r in results.values())


def test_repetition_bound_witness(rose2):
    """Two edges with identical images defeat small windows and the search
    reports the violating pair."""
    g = rose(3, ("a", "b", "c"))
    a, b, c = 0, 2, 4
    f = GraphMap(g, g, [0], [(c,), (c,), (a, b, c)])
    tower = StationaryTower(f)
    r = repetition_bound(tower, 1, 0)
    assert not r.found
    assert r.status == "not-found-within-cap"
    assert r.witness is not None
    w1, w2 = r.witness
    assert tower.path_image(w1, 1) == tower.path_image(w2, 1)
    assert w1[len(w1) // 2] != w2[len(w2) // 2]


@pytest.mark.parametrize("cap", [0, 2])
def test_repetition_bound_searches_each_radius_once(monkeypatch, cap):
    """A failed search reports the witness of its last radius, the cap,
    without running the costliest radius again."""
    g = rose(3, ("a", "b", "c"))
    a, b, c = 0, 2, 4
    tower = StationaryTower(GraphMap(g, g, [0], [(c,), (c,), (a, b, c)]))
    radii = []
    search = ttm.towers._violating_pair

    def counting(tower, n, rho, infinitely_legal):
        radii.append(rho)
        return search(tower, n, rho, infinitely_legal)

    monkeypatch.setattr(ttm.towers, "_violating_pair", counting)
    r = repetition_bound(tower, 1, cap)
    assert not r.found and r.witness is not None
    assert radii == list(range(cap + 1))
    assert r.witness == search(tower, 1, cap, True)


def test_repetition_bound_legal_mode(fib_setup):
    """The strict mode quantifies over more windows, so its bound is at
    least the infinitely-legal one."""
    tower = fib_setup[0]
    strict = repetition_bound(tower, 1, 7, infinitely_legal=False)
    weak = repetition_bound(tower, 1, 7, infinitely_legal=True)
    assert strict.found and weak.found
    assert strict.bound >= weak.bound


# -- pruned window scan vs the full window scan -------------------------------------------


def windows_violating_pair(tower, n, rho, infinitely_legal):
    """Reference scan: every window, mapped letter by letter, filtered after."""
    seen = {}
    for center in tower.short_edges(n):
        for w in tower.windows(center, rho, n):
            img = tower.path_image(w, n)
            if not is_reduced(img):
                continue
            if infinitely_legal and not tower.pullbacks().is_infinitely_legal(img):
                continue
            if img in seen and seen[img][0] != center:
                return (seen[img][1], w)
            seen[img] = (center, w)
    return None


PULLBACK_MAPS = pullback_maps()
# the windows of q2 (and of red at level 1) multiply so fast per radius that
# their caps stop where the full reference scan still takes under a second
WINDOW_CAPS = {"q2": 3, "red": 6}


@pytest.mark.parametrize("name,f", PULLBACK_MAPS, ids=[n for n, _ in PULLBACK_MAPS])
def test_legal_windows_are_the_reduced_windows_in_order(name, f):
    tower = StationaryTower(f)
    for n in range(3):
        for center in tower.short_edges(n):
            for rho in range(3):
                want = [(w, tower.path_image(w, n)) for w in tower.windows(center, rho, n)]
                want = [(w, img) for w, img in want if is_reduced(img)]
                assert list(tower.legal_windows(center, rho, n)) == want


@pytest.mark.parametrize("name,f", PULLBACK_MAPS, ids=[n for n, _ in PULLBACK_MAPS])
def test_pruned_repetition_search_equals_full_scan(monkeypatch, name, f):
    """Bound and witness agree with the full window scan at levels 0-3 and
    every cap up to 8, over infinitely legal and over all legal windows."""
    tower, reference = StationaryTower(f), StationaryTower(f)
    for infinitely_legal in (True, False):
        for n in range(4):
            for cap in range(WINDOW_CAPS.get(name, 8) + 1):
                got = repetition_bound(tower, n, cap, infinitely_legal)
                with monkeypatch.context() as m:
                    m.setattr(ttm.towers, "_violating_pair", windows_violating_pair)
                    want = repetition_bound(reference, n, cap, infinitely_legal)
                assert got == want, (n, cap, infinitely_legal)
