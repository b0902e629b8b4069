"""Integer kernels of ``ttm.polys`` against test-local copies of the rational
versions they replace: Faddeev-LeVerrier over ``Fraction``, the Sturm chain
of the square-free part and root refinement by Sturm counts.  They must
agree bit for bit."""

from copy import copy
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from pathlib import Path
import random

import pytest
from hypothesis import given, settings, strategies as st

from ttm.errors import SpectralError
import ttm.intervals as ia
from ttm.polys import (
    CertifiedRoot, _common_factor, _pseudo_divmod, _sign_at, adjugate_column, cauchy_bound,
    char_poly_and_adjugate, count_roots, largest_real_root, poly_degree,
    poly_derivative, poly_trim, sturm_chain,
)
from ttm.spectra import block_form, submatrix
from ttm.textio import parse

from conftest import bench_workloads

BENCH_MAPS = Path(__file__).resolve().parent.parent / "bench" / "inputs" / "maps.tt"


# -- rational reference copies ---------------------------------------------------


def fraction_char_poly_and_adjugate(a):
    n = len(a)
    coeffs = [Fraction(1)]
    m = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    mats = [m]
    for k in range(1, n + 1):
        am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        c = Fraction(-sum(am[i][i] for i in range(n)), k)
        coeffs.append(c)
        if k < n:
            m = [[am[i][j] + (c if i == j else 0) for j in range(n)]
                 for i in range(n)]
            mats.append(m)
    assert all(c.denominator == 1 for c in coeffs)
    poly = tuple(int(c) for c in reversed(coeffs))
    bmats = [tuple(tuple(int(x) for x in row) for row in mm) for mm in reversed(mats)]
    return poly, bmats


def fraction_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_divmod(a, b):
    """Euclidean division over the rationals."""
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in poly_trim(b)]
    db = len(b) - 1
    q = [Fraction(0)] * max(1, len(a) - db)
    while any(a) and poly_degree(a) >= db:
        da = poly_degree(a)
        c = a[da] / b[db]
        q[da - db] += c
        for i in range(db + 1):
            a[da - db + i] -= c * b[i]
        a[da] = Fraction(0)
    return poly_trim(tuple(q)), poly_trim(tuple(a))


def poly_gcd(a, b):
    """Monic gcd over the rationals."""
    a = poly_trim(tuple(Fraction(c) for c in a))
    b = poly_trim(tuple(Fraction(c) for c in b))
    while any(b):
        _, r = poly_divmod(a, b)
        a, b = b, r
    return tuple(c / a[-1] for c in a) if any(a) else (Fraction(0),)


def square_free_part(p):
    """p divided by the monic gcd of p and p'."""
    p = poly_trim(tuple(Fraction(c) for c in p))
    if poly_degree(p) <= 1:
        return p
    g = poly_gcd(p, poly_derivative(p))
    if poly_degree(g) == 0:
        return p
    q, r = poly_divmod(p, g)
    assert all(c == 0 for c in r)
    return q


def primitive(p):
    """The positive rational multiple of p with coprime integer coefficients."""
    den = lcm(*(Fraction(c).denominator for c in p))
    ints = [int(c * den) for c in p]
    g = gcd(*ints)
    return tuple(c // g for c in ints) if g > 1 else tuple(ints)


def fraction_sturm_chain(p):
    chain = [poly_trim(tuple(Fraction(c) for c in p))]
    if len(chain[0]) == 1:
        return chain
    chain.append(poly_trim(poly_derivative(chain[0])))
    while True:
        _, r = poly_divmod(chain[-2], chain[-1])
        if all(c == 0 for c in r):
            return chain
        chain.append(tuple(-c for c in r))


def fraction_count(chain, lo, hi):
    def variations(x):
        signs = [v > 0 for v in (fraction_eval(q, x) for q in chain) if v != 0]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)
    return variations(lo) - variations(hi)


def sturm_refine(poly, lo, hi, max_width):
    """Bisection choosing the half by a Sturm count; returns (lo, hi, exact)."""
    chain = fraction_sturm_chain(square_free_part(poly))
    while hi - lo > max_width:
        mid = (lo + hi) / 2
        if fraction_eval(poly, mid) == 0:
            return mid, mid, mid
        if fraction_count(chain, lo, mid) == 1:
            hi = mid
        else:
            lo = mid
    return lo, hi, None


# -- strategies -------------------------------------------------------------------------


@st.composite
def square_matrices(draw, max_n=8, max_entry=3):
    n = draw(st.integers(1, max_n))
    return [[draw(st.integers(0, max_entry)) for _ in range(n)] for _ in range(n)]


@st.composite
def irreducible_blocks(draw, max_n=7):
    """A random non-negative matrix plus the cycle 0 -> 1 -> ... -> 0."""
    m = draw(square_matrices(max_n=max_n, max_entry=2))
    n = len(m)
    for i in range(n):
        m[(i + 1) % n][i] = max(m[(i + 1) % n][i], 1)
    return m


# -- Faddeev-LeVerrier -----------------------------------------------------------------


@settings(max_examples=60)
@given(square_matrices())
def test_integer_faddeev_leverrier_matches_fractions(m):
    poly, bmats = char_poly_and_adjugate(m)
    ref_poly, ref_bmats = fraction_char_poly_and_adjugate(m)
    assert poly == ref_poly
    assert bmats == ref_bmats
    assert all(type(c) is int for c in poly)
    assert all(type(x) is int for b in bmats for row in b for x in row)


def test_faddeev_leverrier_known_values():
    assert char_poly_and_adjugate([[1, 1], [1, 0]]) == (
        (-1, -1, 1), [((0, 1), (1, -1)), ((1, 0), (0, 1))])
    assert char_poly_and_adjugate([]) == ((1,), [])


def test_faddeev_leverrier_rejects_non_integer_coefficient():
    with pytest.raises(SpectralError):
        char_poly_and_adjugate([[Fraction(1, 2)]])


# -- Sturm chains and refinement ---------------------------------------------------------


@settings(max_examples=60)
@given(irreducible_blocks(), st.fractions(-4, 4, max_denominator=64),
       st.fractions(-4, 4, max_denominator=64))
def test_integer_sturm_counts_match_rational(m, lo, hi):
    poly, _ = char_poly_and_adjugate(m)
    chain = sturm_chain(primitive(square_free_part(poly)))
    assert all(type(c) is int for q in chain for c in q)
    ref = fraction_sturm_chain(square_free_part(poly))
    expected = fraction_count(ref, lo, hi) if lo < hi else 0
    assert count_roots(poly, lo, hi, chain) == expected


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def poly_add(a, b):
    return tuple(x + y for x, y in zip_longest(a, b, fillvalue=0))


@settings(max_examples=60)
@given(irreducible_blocks(), st.sampled_from([(1,), (-1, 1), (0, 0, 1), (1, -2, 1)]))
def test_sturm_chain_is_the_chain_of_the_square_free_part(m, factor):
    """One remainder sequence gives the chain of a square-free polynomial;
    a repeated factor costs a second one on the quotient.  Either way the
    members are the rational Sturm chain of the square-free part, each made
    a primitive integer polynomial."""
    poly, _ = char_poly_and_adjugate(m)
    for p in (poly, poly_mul(poly, factor), poly_mul(poly, poly)):
        chain = sturm_chain(p)
        assert chain == [primitive(q) for q in fraction_sturm_chain(square_free_part(p))]
        assert chain == sturm_chain(primitive(square_free_part(p)))


# -- the integer kernel on general integer polynomials ---------------------------------


coefficients = st.integers(-20, 20)


@st.composite
def integer_polys(draw):
    """A non-zero integer polynomial of degree at most 8, leading coefficient
    of either sign; half of them a polynomial of degree at most 4 times the
    square of a factor of degree 1 or 2, so the square-free part is a proper
    factor."""
    if draw(st.booleans()):
        return (tuple(draw(st.lists(coefficients, max_size=8)))
                + (draw(coefficients.filter(bool)),))
    a = draw(st.lists(coefficients, min_size=1, max_size=4)) + [draw(coefficients.filter(bool))]
    f = draw(st.lists(coefficients, min_size=1, max_size=2)) + [draw(coefficients.filter(bool))]
    return poly_mul(tuple(a), poly_mul(tuple(f), tuple(f)))


@settings(max_examples=200)
@given(integer_polys(), st.fractions(-25, 25, max_denominator=64),
       st.fractions(-25, 25, max_denominator=64))
def test_count_roots_matches_the_fraction_chain(p, lo, hi):
    expected = fraction_count(fraction_sturm_chain(square_free_part(p)), lo, hi)
    assert count_roots(p, lo, hi) == (expected if lo < hi else 0)


@settings(max_examples=200)
@given(integer_polys())
def test_sturm_chain_is_the_primitive_fraction_chain(p):
    """Also for a negative leading coefficient: the square-free part keeps
    the sign of p."""
    assert sturm_chain(p) == [primitive(q) for q in fraction_sturm_chain(square_free_part(p))]


@settings(max_examples=200)
@given(integer_polys(), integer_polys())
def test_pseudo_division_identity(a, b):
    """s a = q b + r with deg r < deg b and s = |lead b|**(deg a - deg b + 1)
    positive (1 when deg a < deg b)."""
    q, r = _pseudo_divmod(a, b)
    s = abs(b[-1]) ** max(0, len(a) - len(b) + 1)
    assert poly_trim(tuple(s * c for c in a)) == poly_trim(poly_add(poly_mul(q, b), r))
    assert not any(r) or poly_degree(r) < poly_degree(b)


@settings(max_examples=200)
@given(integer_polys(), integer_polys(), integer_polys())
def test_common_factor_has_the_degree_of_the_rational_gcd(a, b, c):
    """Through a shared factor c too; the factor divides both."""
    for x, y in ((a, b), (poly_mul(a, c), poly_mul(b, c)), (b, poly_mul(a, b))):
        g = _common_factor(x, y)
        assert poly_degree(g) == poly_degree(poly_gcd(x, y))
        assert not any(_pseudo_divmod(x, g)[1]) and not any(_pseudo_divmod(y, g)[1])


PHI_QUADRATIC = (-1, -1, 1)          # x^2 - x - 1: phi and -1/phi
PHI_CUBIC = (-2, -3, 1, 1)           # x^3 + x^2 - 3x - 2 = (x + 2)(x^2 - x - 1)


def test_compare_finds_equal_roots_of_different_polynomials():
    phi = largest_real_root(PHI_QUADRATIC)
    assert largest_real_root(PHI_CUBIC).compare(phi) == 0
    assert phi.compare(largest_real_root(PHI_CUBIC)) == 0
    # wide isolating intervals that overlap
    assert (CertifiedRoot(PHI_QUADRATIC, Fraction(-1, 2), Fraction(3)).compare(
        CertifiedRoot(PHI_CUBIC, Fraction(1), Fraction(5))) == 0)


def test_compare_separates_phi_from_minus_one_over_phi():
    for poly in (PHI_QUADRATIC, PHI_CUBIC):
        # (-1/2, 3) isolates phi and (-1, 3/2) isolates -1/phi; they overlap
        phi = CertifiedRoot(PHI_QUADRATIC, Fraction(-1, 2), Fraction(3))
        conj = CertifiedRoot(poly, Fraction(-1), Fraction(3, 2))
        assert phi.compare(conj) == 1 and conj.compare(phi) == -1


def test_compare_irrational_with_exact_roots():
    phi = largest_real_root(PHI_QUADRATIC)
    two = largest_real_root(poly_mul((-2, 1), PHI_QUADRATIC))   # (x - 2)(x^2 - x - 1)
    assert two.exact == 2
    assert phi.compare(two) == -1 and two.compare(phi) == 1
    assert phi.compare(1) == 1 and phi.compare(Fraction(13, 8)) == -1
    assert phi.compare(Fraction(8, 5)) == 1


def test_compare_builds_the_common_factor_chain_once(monkeypatch):
    """sqrt(2) and sqrt(2.0001), the second a root of
    (x^2 - 2)(10000 x^2 - 20001): their common factor x^2 - 2 has no root in
    the overlap, and separating them takes several refinement passes; the
    chain of the factor is built before the first."""
    import ttm.polys as polys
    root2 = CertifiedRoot((-2, 0, 1), Fraction(1), Fraction(2))
    near = CertifiedRoot((40002, 0, -40001, 0, 10000), Fraction(141422, 100000), Fraction(2))
    calls = []
    build = polys.sturm_chain
    monkeypatch.setattr(polys, "sturm_chain", lambda p: calls.append(p) or build(p))
    assert root2.compare(near) == -1
    assert len(calls) == 1 and calls[0] in ((-2, 0, 1), (2, 0, -1))
    assert root2.hi - root2.lo == Fraction(1, 2 ** 15)


@pytest.mark.parametrize("make", [
    lambda: largest_real_root((Fraction(1, 2), 1)),
    lambda: CertifiedRoot((Fraction(-1, 2), 1), Fraction(0), Fraction(1)),
    lambda: CertifiedRoot((-1, Fraction(2)), exact=Fraction(1, 2)),
    lambda: sturm_chain((1.5, 1)),
])
def test_non_integer_coefficients_are_refused(make):
    with pytest.raises(SpectralError, match="integers"):
        make()


@pytest.mark.parametrize("make", [
    lambda: CertifiedRoot((0,), exact=5),
    lambda: CertifiedRoot((0, 0), exact=-3),
    lambda: CertifiedRoot((0, 0, 0), Fraction(0), Fraction(1)),
    lambda: CertifiedRoot((0,), exact=1, chain=[(0,)]),
    lambda: CertifiedRoot((0, 0), Fraction(-1), Fraction(1), chain=[(0,)]),
], ids=["exact", "exact-untrimmed", "isolating", "chain-exact", "chain-isolating"])
def test_the_zero_polynomial_is_refused(make):
    """Every rational is a root of the zero polynomial, so no root of it is
    certified, as ``largest_real_root`` and ``cauchy_bound`` refuse it."""
    with pytest.raises(SpectralError, match="zero polynomial"):
        make()


@pytest.mark.parametrize("poly", [(-1, -1, 1), (-1, -1, -1, 1)],
                         ids=["phi", "tribonacci"])
def test_printing_a_root_leaves_its_enclosure(poly):
    """``repr`` and ``float`` refine a copy: a root printed first encloses
    exactly as a fresh one."""
    root = largest_real_root(poly)
    assert repr(root).startswith("CertifiedRoot(~")
    assert float(root) == pytest.approx(float(largest_real_root(poly)))
    assert root.interval() == largest_real_root(poly).interval()


def bench_block_polys():
    doc = parse(BENCH_MAPS.read_text(encoding="utf-8"))
    out = []
    for name, (f, _, _) in sorted(doc.maps.items()):
        m = f.transition_matrix()
        for idx in block_form(m).blocks:
            poly, _ = char_poly_and_adjugate(submatrix(m, idx))
            out.append((f"{name}-{idx}", poly))
    return out


def assert_refines_like_sturm(poly, bits=112):
    root = largest_real_root(poly)
    if root.exact is not None:
        return  # recognised as exact at isolation, nothing to bisect
    lo, hi = root.lo, root.hi
    scale = max(abs(lo), abs(hi), Fraction(1))
    root.refine_bits(bits)
    assert (root.lo, root.hi, root.exact) == sturm_refine(
        root.poly, lo, hi, scale / Fraction(2) ** bits)


@pytest.mark.parametrize("name,poly", bench_block_polys())
def test_refine_matches_sturm_counts_on_bench_roses(name, poly):
    assert_refines_like_sturm(poly)


@settings(max_examples=60)
@given(irreducible_blocks())
def test_refine_matches_sturm_counts_on_random_blocks(m):
    poly, _ = char_poly_and_adjugate(m)
    assert_refines_like_sturm(poly)


def test_refine_finds_rational_midpoint_root():
    """A root hit by a midpoint becomes exact, as with Sturm counts."""
    root = CertifiedRoot((-1, 2), Fraction(0), Fraction(1))   # 2x - 1
    root.refine(Fraction(1, 1024))
    assert root.exact == Fraction(1, 2) == root.lo == root.hi


def fraction_bisection(root, max_width):
    """The Fraction loop that ``refine`` replaced: midpoint ``(lo + hi) / 2``,
    its sign against the sign at lo; returns (lo, hi, exact)."""
    def sign(x):
        v = fraction_eval(root.sqfree, x)
        return (v > 0) - (v < 0)
    lo, hi = root.lo, root.hi
    sign_lo = sign(lo)
    while hi - lo > max_width:
        mid = (lo + hi) / 2
        if sign(mid) == 0:
            return mid, mid, mid
        if sign(mid) != sign_lo:
            hi = mid
        else:
            lo = mid
    return lo, hi, None


def seeded_polys(count=50):
    """Integer polynomials of degree 2-8 with a real root that isolation does
    not recognise as an integer, drawn by ``random.Random(38)``."""
    rng = random.Random(38)
    out = []
    while len(out) < count:
        p = ([rng.randint(-20, 20) for _ in range(rng.randint(2, 8))]
             + [rng.choice((-1, 1)) * rng.randint(1, 9)])
        try:
            if largest_real_root(p).exact is None:
                out.append(tuple(p))
        except SpectralError:
            continue
    return out


def test_integer_bisection_is_the_fraction_bisection():
    """``refine`` keeps the very endpoints of the Fraction loop, refined
    from each narrower interval at widths 2**-8 to 2**-200, and from the
    isolating interval straight to 2**-200."""
    for poly in seeded_polys():
        root = largest_real_root(poly)
        want = fraction_bisection(root, Fraction(1, 2 ** 200))
        for bits in (8, 13, 32, 64, 113, 150, 200):
            width = Fraction(1, 2 ** bits)
            step = fraction_bisection(root, width)
            assert (root.refine(width).lo, root.hi, root.exact) == step, (poly, bits)
        assert step == want
        fresh = largest_real_root(poly).refine(Fraction(1, 2 ** 200))
        assert (fresh.lo, fresh.hi, fresh.exact) == want


@pytest.mark.parametrize("poly, hi, exact", [
    ((-1, 0, 4), 1, Fraction(1, 2)),      # 4x^2 - 1: the first midpoint
    ((-5, 64), 2, Fraction(5, 64)),       # 64x - 5: the seventh midpoint
    ((-1, -1, 1), 2, None),               # x^2 - x - 1: no midpoint is a root
])
def test_integer_bisection_stops_on_an_exact_midpoint(poly, hi, exact):
    root = CertifiedRoot(poly, Fraction(0), Fraction(hi))
    want = fraction_bisection(root, Fraction(1, 2 ** 40))
    root.refine(Fraction(1, 2 ** 40))
    assert (root.lo, root.hi, root.exact) == want
    assert root.exact == exact


def planted_root_polys(count=60):
    """``(n, (x - n) q(x))`` for n in [-10**4, 10**4], drawn by
    ``random.Random(49)``.  The real roots of q lie below n, up to 10**4
    below it: q is a product of one to three factors x - r, x**2 + c (no
    real root) and x**2 - 2 a x + a**2 - b (roots a +- sqrt(b))."""
    rng = random.Random(49)
    out = []
    for _ in range(count):
        n = rng.randint(-10 ** 4, 10 ** 4)
        q = (1,)
        for _ in range(rng.randint(1, 3)):
            a = rng.randint(n - 10 ** 4, n - 20)
            q = poly_mul(q, rng.choice([(-a, 1), (rng.randint(1, 50), 0, 1),
                                        (a * a - rng.randint(2, 99), -2 * a, 1)]))
        out.append((n, poly_mul((-n, 1), q)))
    return out


def test_planted_integer_roots_are_exact():
    """The largest root n is returned exact, however far below it the
    other real roots are, so however wide its isolating interval."""
    for n, poly in planted_root_polys():
        assert largest_real_root(poly).exact == n, (n, poly)
    assert largest_real_root((-65, 1)).exact == 65
    assert largest_real_root((-3900, -5, 1)).exact == 65     # (x - 65)(x + 60)


@pytest.mark.parametrize("poly, exact", [
    ((-1, -1, 1), None),                # x^2 - x - 1: irrational, isolated
    ((-3, 1, -3, 1), Fraction(3)),      # (x - 3)(x^2 + 1): integer candidate
    ((0, 0, 1), Fraction(0)),           # x^2: double root hit by a midpoint
])
def test_largest_real_root_builds_one_sturm_chain(monkeypatch, poly, exact):
    """The chain of the bisection is the one the certified root keeps, also
    when the root comes out exact."""
    import ttm.polys as polys
    calls = []
    build = polys.sturm_chain

    def counting(p):
        calls.append(p)
        return build(p)

    monkeypatch.setattr(polys, "sturm_chain", counting)
    root = largest_real_root(poly)
    assert len(calls) == 1
    assert root.exact == exact
    assert root._chain == build(primitive(square_free_part(poly)))


def test_a_handed_chain_keeps_both_root_checks():
    chain = sturm_chain(primitive(square_free_part((-1, -1, 1))))
    with pytest.raises(SpectralError, match="isolate"):
        CertifiedRoot((-1, -1, 1), Fraction(-2), Fraction(2), chain=chain)
    with pytest.raises(SpectralError, match="not a root"):
        CertifiedRoot((-1, -1, 1), exact=Fraction(2), chain=chain)
    root = CertifiedRoot((-1, -1, 1), Fraction(1), Fraction(2), chain=chain)
    assert float(root) == pytest.approx((1 + 5 ** 0.5) / 2)


def reference_adjugate_at(bmats, x):
    """Every entry of adj(x I - A) at an interval point, by Horner (the full
    evaluator that ``adjugate_column`` replaced)."""
    n = len(bmats[0])
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ia.zero()
            for bm in reversed(bmats):
                acc = acc * x + ia.exact(bm[i][j])
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def seeded_integer_matrices():
    import random
    rng = random.Random(7)
    return [tuple(tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n)) for _ in range(n))
            for n in range(1, 9) for _ in range(3)]


@pytest.mark.parametrize("m", [((1, 1), (1, 0)), ((1, 1, 1), (1, 1, 1), (0, 0, 3))]
                         + seeded_integer_matrices())
def test_adjugate_column_equals_full_adjugate(m):
    """Each column, evaluated alone, is the column of the full evaluation bit
    for bit, at an exact point, a wide enclosure and the spectral radius."""
    poly, bmats = char_poly_and_adjugate(m)
    points = [ia.exact(2), ia.from_endpoints(Fraction(7, 3), Fraction(12, 5))]
    if any(poly[:-1]):
        points.append(largest_real_root(poly).interval())
    for x in points:
        full = reference_adjugate_at(bmats, x)
        for j in range(len(m)):
            assert list(adjugate_column(bmats, x, j)) == [row[j] for row in full]



# -- located cells and kept counts against today's loops --------------------------------


def reference_isolation(p):
    """The isolation loop of ``largest_real_root`` before its bracket ends
    kept their counts: Fraction midpoints and four chain evaluations a step.
    Returns ``(lo, hi)``, the isolating interval before the integer test, or
    ``(x, x)`` for a midpoint that is the root."""
    chain = sturm_chain(p)
    sqfree = chain[0]
    bound = cauchy_bound(p)
    lo, hi = -bound - 1, bound + 1
    assert count_roots(p, lo, hi, chain) > 0
    cut = lo
    while True:
        if count_roots(p, cut, hi, chain) == 1 and _sign_at(sqfree, cut):
            return cut, hi
        mid = (cut + hi) / 2
        if not _sign_at(sqfree, mid):
            if count_roots(p, mid, hi, chain) == 0:
                return mid, mid
            cut = mid
            continue
        if count_roots(p, mid, hi, chain) >= 1:
            cut = mid
        else:
            hi = mid


def bisection_refine(root, max_width):
    """``CertifiedRoot.refine`` before it located cells: the integer loop on
    the sign at the midpoint against the sign at lo, on a copy of the root;
    returns (lo, hi, exact)."""
    sqfree = root.sqfree
    d = root.lo.denominator * root.hi.denominator
    a = root.lo.numerator * root.hi.denominator
    b = root.hi.numerator * root.lo.denominator
    sign_lo = _sign_at(sqfree, root.lo)
    while (b - a) * max_width.denominator > max_width.numerator * d:
        mid = a + b
        a, b, d = 2 * a, 2 * b, 2 * d
        sign = _sign_at(sqfree, mid, d)
        if sign == 0:
            return Fraction(mid, d), Fraction(mid, d), Fraction(mid, d)
        if sign != sign_lo:
            b = mid
        else:
            a = mid
    return Fraction(a, d), Fraction(b, d), None


def square_free_polys(count=48):
    """Square-free integer polynomials of degree 2 to 20 with a real root,
    drawn by ``random.Random(53)``, as ``(kind, poly, x)``: dense ones with
    random coefficients; products of distinct factors with a planted root
    ``x = m / (q 2**t)``, q = 1 (dyadic), 3 or 5 (``planted``); products
    whose two largest roots are ``(a +- sqrt(2)) / 2**30``, about 2**-28
    apart (``close``); and ``(q 2**t X - m)(c - X)`` with c a little above
    x (``overshoot``): concave at x, so Newton steps from the right end
    cross x and approach it from below, where for q > 1 no fixed-point
    estimate hits it exactly."""
    rng = random.Random(53)
    out = []
    while len(out) < count:
        kind = ("dense", "planted", "close", "overshoot")[len(out) % 4]
        t = rng.randint(1, 60)
        x = Fraction(rng.randrange(-2 ** (t + 6), 2 ** (t + 6), 2) + 1,
                     rng.choice((1, 1, 3, 5)) * 2 ** t)
        if kind == "dense":
            x, p = None, tuple(rng.randint(-30, 30) for _ in range(rng.randint(2, 20))) + (
                rng.choice((-1, 1)) * rng.randint(1, 5),)
        elif kind == "overshoot":
            c = x + Fraction(1, 2 ** rng.randint(0, 10))
            p = poly_mul((-x.numerator, x.denominator), (c.numerator, -c.denominator))
        else:
            p = (rng.randint(1, 9), 0, 1)                 # no real root
            for _ in range(rng.randint(0, 8)):           # real roots in [-40, 40]
                p = poly_mul(p, rng.choice([(-rng.randint(-40, 40), rng.randint(1, 3)),
                                            (rng.randint(1, 50), 0, 1)]))
            if kind == "planted":
                p = poly_mul(p, (-x.numerator, x.denominator))
            else:
                a, n, x = rng.randint(41 * 2 ** 30, 50 * 2 ** 30), 2 ** 30, None
                p = poly_mul(p, (a * a - 2, -2 * a * n, n * n))
        bound = cauchy_bound(p) + 1
        if (2 <= poly_degree(p) <= 20 and count_roots(p, -bound, bound)
                and poly_degree(_common_factor(p, poly_derivative(p))) == 0):
            out.append((kind, p, x))
    return out


SQUARE_FREE = square_free_polys()
IDS = [f"{kind}-{k}" for k, (kind, _, _) in enumerate(SQUARE_FREE)]


def on_the_grid(poly, x, depth, steps):
    """The planted root x of poly, isolated by an interval of width
    ``2**depth s`` with x at ``steps`` times s from its left end, for the
    largest power of two s that isolates it: bisection meets x within
    ``depth`` steps, so a located cell has x at an end."""
    s = Fraction(1)
    while not (count_roots(poly, x - steps * s, x + (2 ** depth - steps) * s) == 1
               and _sign_at(poly, x - steps * s) and _sign_at(poly, x + (2 ** depth - steps) * s)):
        s /= 2
    return CertifiedRoot(poly, x - steps * s, x + (2 ** depth - steps) * s)


@pytest.mark.parametrize("kind,poly,x", SQUARE_FREE, ids=IDS)
def test_isolation_keeps_the_loop_of_four_chain_evaluations(kind, poly, x):
    lo, hi = reference_isolation(poly)
    root = largest_real_root(poly)
    if lo == hi:
        assert root.exact == lo
    elif root.exact is not None:      # an integer inside, recognised exactly
        assert root.exact.denominator == 1 and lo < root.exact < hi
    else:
        assert (root.lo, root.hi) == (lo, hi)


@pytest.mark.parametrize("kind,poly,x", SQUARE_FREE, ids=IDS)
def test_located_cell_is_the_bisection_cell(kind, poly, x):
    """From the isolating interval of the largest root, and of a planted
    root put on the bisection grid (at a quarter, near the left end and near
    the right end), ``refine`` and ``refine_bits`` end where bisection ends:
    the same cell, or the same exact midpoint (the planted root, where the
    cell proof must fail)."""
    roots = [largest_real_root(poly)]
    if x is not None:
        roots += [on_the_grid(poly, x, 2, 1), on_the_grid(poly, x, 40, 1),
                  on_the_grid(poly, x, 40, 2 ** 40 - 1)]
    for root in roots:
        if root.exact is not None:
            continue
        for k in (2, 23, 24, 25, 40, 64, 112, 200):
            width = (root.hi - root.lo) / 2 ** k
            got = copy(root).refine(width)
            assert (got.lo, got.hi, got.exact) == bisection_refine(root, width), k
        for bits in (60, 112, 256):
            scale = max(abs(root.lo), abs(root.hi), Fraction(1))
            got = copy(root).refine_bits(bits)
            assert (got.lo, got.hi, got.exact) == bisection_refine(
                root, scale / Fraction(2) ** bits), bits
    for root in roots[1:]:
        assert copy(root).refine(Fraction(1, 2 ** 200)).exact == x


def block_root_polys():
    """The characteristic polynomial of every diagonal block with an
    irrational spectral radius: the benchmark maps and the generated
    substitutions at seeds 1 and 7."""
    texts = [("maps", BENCH_MAPS.read_text(encoding="utf-8"))] + [
        (f"seed{seed}", bench_workloads().generate_substitutions(seed)[0]) for seed in (1, 7)]
    out = []
    for label, text in texts:
        for name, (f, _, _) in sorted(parse(text).maps.items()):
            m = f.transition_matrix()
            for idx in block_form(m).blocks:
                poly, _ = char_poly_and_adjugate(submatrix(m, idx))
                if any(poly[:-1]) and largest_real_root(poly).exact is None:
                    out.append((f"{label}-{name}-{idx[0]}", poly))
    return out


BLOCK_ROOTS = block_root_polys()


def test_block_roots_cover_the_maps_and_substitutions():
    names = {i.rsplit("-", 1)[0] for i, _ in BLOCK_ROOTS}
    assert {"maps-f", "maps-q", "maps-q2", "maps-t"} <= names
    assert {f"seed{s}-{n}" for s in (1, 7) for n in ("i12", "i16", "b16", "b20")} <= names


@pytest.mark.parametrize("name,poly", BLOCK_ROOTS, ids=[n for n, _ in BLOCK_ROOTS])
def test_newton_locates_every_block_root_without_bisection(name, poly, monkeypatch):
    """Refining a block root to the default enclosure, and on to 256 bits,
    reads three signs each time: at lo and at the located cell's two ends,
    with no bisection step; the cell is bisection's."""
    import ttm.polys as polys
    root = largest_real_root(poly)
    signs = []

    def counting(*args):
        signs.append(args)
        return _sign_at(*args)

    # counts the calls inside ttm.polys; bisection_refine calls this module's
    # own name for _sign_at, which stays uncounted
    monkeypatch.setattr(polys, "_sign_at", counting)
    for bits in (112, 256):
        scale = max(abs(root.lo), abs(root.hi), Fraction(1))
        want = bisection_refine(root, scale / Fraction(2) ** bits)
        signs.clear()
        root.refine_bits(bits)
        assert len(signs) == 3, bits
        assert (root.lo, root.hi, root.exact) == want
