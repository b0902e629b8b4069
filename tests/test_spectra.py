from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import ttm.intervals as ia
from ttm.errors import SpectralError
from ttm.spectra import (
    _pattern, _pattern_product, _power_is_normalised, block_form,
    distinguished_eigenvectors, is_primitive, nonneg_eigenvectors_for,
    pf_eigenpair, spectral_radius_root, submatrix,
)

FIB = ((1, 1), (1, 0))
THREE = ((1, 1, 1), (1, 1, 1), (0, 0, 3))     # a->ab, b->ba, c->cccab
THREE_CAB = ((1, 1, 1), (1, 1, 1), (0, 0, 1))  # variant c->cab
PHI = 1.6180339887498949


def mids(vec):
    return [ia.midpoint(v) for v in vec]


def test_is_primitive():
    assert is_primitive(FIB)
    assert not is_primitive(((0, 1), (1, 0)))
    assert is_primitive(((1,),))
    assert not is_primitive(((0,),))


def test_block_form_fibonacci():
    bf = block_form(FIB)
    assert bf.blocks == ((0, 1),)
    assert bf.kinds == ("primitive",)
    assert bf.power_used == 1
    assert bf.permuted_matrix() == FIB


def test_block_form_three_letter():
    bf = block_form(THREE)
    assert bf.blocks == ((0, 1), (2,))
    assert bf.kinds == ("primitive", "primitive")
    assert bf.power_used == 1
    # the c-block dominates the ab-block
    assert bf.dominates(1, 0)
    assert not bf.dominates(0, 1)
    # permuted matrix is upper block triangular
    pm = bf.permuted_matrix()
    assert pm == THREE


def test_block_form_permutation_matrix():
    bf = block_form(((0, 1), (1, 0)))
    assert len(bf.blocks) == 1
    assert bf.kinds == ("imprimitive",)
    assert bf.periods == (2,)
    assert bf.power_used == 2


def integer_power(m, t):
    n = len(m)
    out = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for _ in range(t):
        out = tuple(tuple(sum(out[i][k] * m[k][j] for k in range(n)) for j in range(n))
                    for i in range(n))
    return out


@st.composite
def sparse_matrices(draw):
    n = draw(st.integers(1, 6))
    entry = st.sampled_from((0, 0, 0, 1, 2))
    return tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n))


@settings(max_examples=120)
@given(sparse_matrices())
def test_block_form_power_from_patterns_matches_integer_powers(m):
    """The normalising power searched on boolean patterns is the one found
    on the integer powers of the matrix."""
    bf = block_form(m)
    n = len(m)
    base = lcm(*bf.periods)
    k = base
    while not _power_is_normalised(integer_power(m, k)):
        k += base
        assert k <= base * (2 * ((n - 1) ** 2 + 1) + n + 1)
    assert bf.power_used == k


def wielandt_is_primitive(m):
    """Reference: square the positivity pattern up to the Wielandt exponent
    (n-1)**2 + 1, which is sharp."""
    n = len(m)
    if n == 0:
        return False
    full = (1 << n) - 1
    pattern = power = _pattern(m)
    for _ in range((n - 1) ** 2 + 1):
        if all(row == full for row in power):
            return True
        power = _pattern_product(power, pattern)
    return all(row == full for row in power)


@st.composite
def chorded_cycles(draw):
    """An n-cycle with one chord: the Wielandt matrices, whose primitivity
    exponents (n-1)**2 + 1 are the largest, are among them."""
    n = draw(st.integers(1, 8))
    m = [[0] * n for _ in range(n)]
    for c in range(n):
        m[(c + 1) % n][c] = 1
    r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    m[r][c] += draw(st.integers(0, 2))
    return tuple(tuple(row) for row in m)


@settings(max_examples=300)
@given(st.one_of(sparse_matrices(), chorded_cycles()))
def test_is_primitive_by_period_equals_wielandt_powers(m):
    assert is_primitive(m) == wielandt_is_primitive(m)


def test_is_primitive_edge_cases():
    wielandt = ((0, 0, 1, 1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    assert is_primitive(wielandt) and wielandt_is_primitive(wielandt)
    assert not is_primitive(())
    assert not is_primitive(((0, 0), (0, 0)))
    assert not is_primitive(((1, 0), (0, 1)))      # reducible, both blocks aperiodic
    assert not is_primitive(((1, 1), (0, 1)))      # reducible, upper triangular
    assert not is_primitive(((0, 1, 0), (0, 0, 1), (1, 0, 0)))  # period 3


def test_matvec_equals_entrywise_loop():
    """``ia.matvec`` sums the non-zero entries of each row in column order,
    bit for bit like the loops it replaced."""
    # magnitudes far apart, so another summation order rounds differently
    vec = (ia.from_fraction(Fraction(1, 3)), ia.exact(2) ** -100 / 7, ia.zero(),
           ia.one() / 11)
    for m in (((1, 0, 2, 3), (0, 0, 0, 0), (1, 1, 1, 0), (0, 4, 0, 1)),
              ((2, 2, 2, 2),) * 4):
        ref = []
        for i in range(4):
            acc = ia.zero()
            for j in range(4):
                if m[i][j]:
                    acc = acc + ia.exact(m[i][j]) * vec[j]
            ref.append(acc)
        got = ia.matvec(m, vec)
        assert [(x.a, x.b) for x in got] == [(x.a, x.b) for x in ref]
        assert ia.is_exact_zero(ia.matvec(((0, 0, 0, 0),), vec)[0])


def test_block_form_reassembles():
    import random
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = tuple(tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(n))
        bf = block_form(m)
        perm = bf.permutation
        pm = bf.permuted_matrix()
        rebuilt = [[0] * n for _ in range(n)]
        for r in range(n):
            for c in range(n):
                rebuilt[perm[r]][perm[c]] = pm[r][c]
        assert tuple(tuple(r) for r in rebuilt) == m


def test_pf_eigenpair_fibonacci():
    pair = pf_eigenpair(FIB)
    lam = pair.interval()
    assert ia.width(lam) < 1e-12
    assert abs(ia.midpoint(lam) - PHI) < 1e-12
    v = mids(pair.vector)
    assert abs(v[0] - 0.6180339887498949) < 1e-10
    assert abs(v[1] - 0.3819660112501051) < 1e-10
    assert pair.check_residual(FIB)


def test_pf_eigenpair_symmetric_and_one_by_one():
    pair = pf_eigenpair(((1, 1), (1, 1)))
    assert pair.value.exact == 2
    assert mids(pair.vector) == [0.5, 0.5]
    pair3 = pf_eigenpair(((3,),))
    assert pair3.value.exact == 3
    assert mids(pair3.vector) == [1.0]
    with pytest.raises(SpectralError):
        pf_eigenpair(((0,),))


def test_collatz_wielandt_bracket():
    """Row sums bracket the spectral radius."""
    for m in (FIB, ((1, 1), (1, 1)), ((2, 1, 0), (1, 1, 1), (0, 1, 2))):
        if not is_primitive(m):
            continue
        pair = pf_eigenpair(m)
        lam = pair.interval()
        rows = [sum(r) for r in m]
        assert lam.b >= min(rows) and lam.a <= max(rows)


def test_power_iteration_cross_check():
    """Float power iteration lands inside a slightly inflated interval."""
    for m in (FIB, THREE, ((2, 1), (1, 2))):
        bf = block_form(m)
        for idx, kind in zip(bf.blocks, bf.kinds):
            if kind != "primitive":
                continue
            sub = submatrix(m, idx)
            v = [1.0] * len(sub)
            lam_est = 1.0
            for _ in range(200):
                w = [sum(sub[i][j] * v[j] for j in range(len(v)))
                     for i in range(len(v))]
                lam_est = max(w)
                v = [x / lam_est for x in w]
            root = spectral_radius_root(sub)
            root.refine_bits(64)
            assert root.lo - Fraction(1, 10 ** 6) <= Fraction(lam_est) \
                <= root.hi + Fraction(1, 10 ** 6)


def test_distinguished_fibonacci():
    pairs = distinguished_eigenvectors(FIB)
    assert len(pairs) == 1
    assert abs(ia.midpoint(pairs[0].interval()) - PHI) < 1e-12


def test_distinguished_three_letter():
    pairs = distinguished_eigenvectors(THREE)
    assert len(pairs) == 2
    by_val = sorted(pairs, key=lambda p: float(p.value))
    assert by_val[0].value.compare(2) == 0
    assert by_val[1].value.compare(3) == 0
    v2 = mids(by_val[0].vector)
    v3 = mids(by_val[1].vector)
    assert max(abs(x - y) for x, y in zip(v2, [0.5, 0.5, 0.0])) < 1e-12
    assert max(abs(x - 1 / 3) for x in v3) < 1e-12
    assert by_val[0].support == frozenset({0, 1})
    assert by_val[1].support == frozenset({0, 1, 2})
    for p in pairs:
        assert p.check_residual(THREE)
        total = ia.isum(p.vector)
        assert ia.contains_zero(total - ia.one())


def test_distinguished_cab_variant():
    pairs = distinguished_eigenvectors(THREE_CAB)
    assert len(pairs) == 1
    assert pairs[0].value.compare(2) == 0
    assert mids(pairs[0].vector)[2] == 0.0


def test_nonneg_eigenvectors_for():
    gens = nonneg_eigenvectors_for(THREE, 3)
    assert len(gens) == 1
    assert max(abs(x - 1 / 3) for x in mids(gens[0].vector)) < 1e-12
    gens2 = nonneg_eigenvectors_for(THREE, (Fraction(19, 10), Fraction(21, 10)))
    assert len(gens2) == 1
    assert mids(gens2[0].vector)[2] == 0.0
    with pytest.raises(SpectralError):
        nonneg_eigenvectors_for(THREE, 5)


def test_nonneg_eigenvectors_for_algebraic_eigenvalue():
    from ttm.polys import largest_real_root
    phi_root = largest_real_root((-1, -1, 1))
    gens = nonneg_eigenvectors_for(FIB, phi_root)
    assert len(gens) == 1
    assert abs(ia.midpoint(gens[0].interval()) - PHI) < 1e-12


def test_distinct_supports_and_normalisation():
    pairs = distinguished_eigenvectors(THREE)
    supports = {p.support for p in pairs}
    assert len(supports) == len(pairs)
    for p in pairs:
        assert ia.contains_zero(ia.isum(p.vector) - ia.one())
