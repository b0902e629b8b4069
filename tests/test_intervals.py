"""The interval kernel against mpmath's interval context, bit for bit.

``ttm.intervals`` ports mpmath's ``mpi_*``/``mpf_*`` routines; mpmath stays
a test dependency as the reference.  Every operation is drawn over both
signs, zero, point intervals, big mantissas and int operands at 64, 128,
256 and 512 bits, and its endpoints must equal mpmath's exactly; a
Fraction operand must act as its ``from_fraction`` enclosure.  The
``--exact`` printing rounds outward on purpose, so it is checked against a
directed decimal rounding instead.
"""

from contextlib import contextmanager
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction
import operator

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import iv, libmp

import ttm.intervals as ia
from ttm.intervals import Interval

PRECISIONS = (64, 128, 256, 512)


@contextmanager
def both_at(prec):
    """The kernel and the reference at ``prec`` bits, restored afterwards."""
    saved = iv.prec, mpmath.mp.prec
    try:
        iv.prec = mpmath.mp.prec = prec
        with ia.working_precision(prec):
            yield
    finally:
        iv.prec, mpmath.mp.prec = saved


def pair(f):
    """A raw mpf as the kernel's (mantissa, exponent) pair."""
    sign, man, exp, _ = f
    assert man or f == libmp.fzero, "finite endpoints only"
    return (-man if sign else man, exp) if man else (0, 0)


def kernel(v):
    """The kernel interval with the endpoints of the mpmath interval v."""
    a, b = v._mpi_
    return Interval(pair(a), pair(b))


def same(got, want):
    return (got._lo, got._hi) == tuple(pair(f) for f in want._mpi_)


def is_point(v, q):
    """Whether the mpmath interval v is the single point q (an int or a
    Fraction): the kernel's rule for ``==`` with an exact operand."""
    a, b = v._mpi_
    return a == b and Fraction(*libmp.to_rational(a)) == q


# mpmath intervals built at 64 bits that enclose an exact operand without
# being its point: mpmath's ``==`` calls them equal, the kernel does not
with both_at(64):
    ABOVE_2_200 = iv.mpf(2 ** 200 + 1)     # [2**200, 2**200 + 2**137]
    THIRD = iv.mpf(1) / 3                  # the 64-bit enclosure of 1/3


small = st.integers(-40, 40)
big = st.integers(-(2 ** 600), 2 ** 600)
dyadic = st.one_of(
    st.just((0, 0)),
    st.tuples(small, st.integers(-8, 8)),
    st.tuples(big, st.integers(-1500, 1500)))


@st.composite
def intervals(draw):
    """An mpmath interval: ordered dyadic endpoints, sometimes equal."""
    a, b = (libmp.from_man_exp(*draw(dyadic)) for _ in range(2))
    if draw(st.booleans()):
        b = a
    if libmp.mpf_gt(a, b):
        a, b = b, a
    return iv.make_mpf((a, b))


ints = st.one_of(small, big, st.sampled_from([0, 1, -1, 2 ** 64 + 1, -(3 ** 90)]))
precs = st.sampled_from(PRECISIONS)


def excludes_zero(v):
    a, b = v._mpi_
    return libmp.mpf_sign(a) * libmp.mpf_sign(b) > 0


@settings(max_examples=400)
@given(precs, intervals(), intervals())
def test_binary_operations(prec, x, y):
    with both_at(prec):
        X, Y = kernel(x), kernel(y)
        assert same(X + Y, x + y)
        assert same(X - Y, x - y)
        assert same(X * Y, x * y)
        if excludes_zero(y):
            assert same(X / Y, x / y)
        else:
            with pytest.raises(ZeroDivisionError):
                X / Y
        assert (X < Y, X <= Y, X > Y, X >= Y) == (x < y, x <= y, x > y, x >= y)
        assert (X == Y) == (x == y) and (X != Y) == (x != y)
        assert (Y in X) == (y in x)


@settings(max_examples=400)
@given(precs, intervals(), ints)
@example(prec=64, x=ABOVE_2_200, n=2 ** 200 + 1)
def test_int_operands(prec, x, n):
    with both_at(prec):
        X = kernel(x)
        assert same(X + n, x + n) and same(n + X, n + x)
        assert same(X - n, x - n) and same(n - X, n - x)
        assert same(X * n, x * n) and same(n * X, n * x)
        if n:
            assert same(X / n, x / n)
        if excludes_zero(x):
            assert same(n / X, n / x)
        assert (X < n, X <= n, X > n, X >= n) == (x < n, x <= n, x > n, x >= n)
        assert (X == n) == (n == X) == (not X != n) == is_point(x, n)
        assert (n in X) == (n in x)


rationals = st.one_of(
    st.sampled_from([Fraction(0), Fraction(-1, 3), Fraction(5, 8), Fraction(-3, 1024),
                     Fraction(2 ** 70 + 1, 3 ** 50)]),
    st.builds(lambda m, e: m * Fraction(2) ** e, small, st.integers(-60, 60)),
    st.builds(Fraction, st.integers(-(10 ** 40), 10 ** 40), st.integers(1, 10 ** 40)))


def endpoints_of(v):
    assert type(v) is Interval
    return v._lo, v._hi


@settings(max_examples=400)
@given(precs, intervals(), rationals)
@example(prec=64, x=THIRD, q=Fraction(1, 3))
def test_fraction_operands(prec, x, q):
    """A Fraction on either side of an operator, an order comparison or
    ``in`` is its ``from_fraction`` enclosure, bit for bit; it is ``==``
    only to its point."""
    with both_at(prec):
        X, Q = kernel(x), ia.from_fraction(q)
        for op in (operator.add, operator.sub, operator.mul):
            assert endpoints_of(op(X, q)) == endpoints_of(op(X, Q))
            assert endpoints_of(op(q, X)) == endpoints_of(op(Q, X))
        if q:
            assert endpoints_of(X / q) == endpoints_of(X / Q)
        if excludes_zero(x):
            assert endpoints_of(q / X) == endpoints_of(Q / X)
        assert (X < q, X <= q, X > q, X >= q) == (X < Q, X <= Q, X > Q, X >= Q)
        assert (q < X, q <= X, q > X, q >= X) == (Q < X, Q <= X, Q > X, Q >= X)
        assert (X == q) == (q == X) == (not X != q) == (not q != X) == is_point(x, q)
        assert (q in X) == (Q in X)
        den = q.denominator
        if not den & (den - 1) and abs(q.numerator).bit_length() <= prec:   # dyadic
            assert Q == q and hash(Q) == hash(q)
            assert Q._lo == Q._hi


@settings(max_examples=400)
@given(precs, rationals)
def test_an_exact_operand_equals_only_its_point(prec, q):
    """``from_fraction(q) == q`` only when the enclosure is the point q, so
    equal values hash alike and a set holding both has one member."""
    with ia.working_precision(prec):
        Q = ia.from_fraction(q)
        point = Q._lo == Q._hi
        assert (Q == q) == (q == Q) == point
        assert (len({Q, q}) == 1) == point
        n = q.numerator
        assert (ia.exact(n) == n) == (ia.exact(n)._lo == ia.exact(n)._hi)


@settings(max_examples=200)
@given(precs, st.lists(st.one_of(intervals(), st.just(None)), max_size=6))
def test_isum_skips_exact_zeros_bit_for_bit(prec, xs):
    """``isum`` skips the shared exact zero and still equals the plain
    left-to-right sum from ``zero()``, endpoint for endpoint."""
    with both_at(prec):
        values = [ia.zero() if x is None else kernel(x) for x in xs]
        plain = ia.zero()
        for v in values:
            plain = plain + v
        assert endpoints_of(ia.isum(values)) == endpoints_of(plain)


@st.composite
def straddling(draw):
    """A kernel interval with a negative lower and a positive upper end."""
    (lm, le), (hm, he) = (draw(st.tuples(st.one_of(small, big), st.integers(-80, 80)))
                          for _ in range(2))
    ends = libmp.from_man_exp(-abs(lm) - 1, le), libmp.from_man_exp(abs(hm) + 1, he)
    return kernel(iv.make_mpf(ends))


kernel_points = st.one_of(intervals().map(kernel), straddling(), st.just(ia.zero()))
coefficients = st.lists(st.one_of(ints, st.just(0)), min_size=1, max_size=8)


@settings(max_examples=400)
@given(precs, kernel_points, coefficients)
def test_horner_is_the_operator_horner_bit_for_bit(prec, x, poly):
    """``horner`` on endpoint pairs equals ``acc * x + c`` from the int 0,
    endpoint for endpoint, also where x or the partial sums straddle zero
    and where a coefficient needs more bits than the precision."""
    with ia.working_precision(prec):
        acc = 0
        for c in reversed(poly):
            acc = acc * x + c
        got = ia.horner(poly, x)
        assert endpoints_of(got) == endpoints_of(acc)
        assert got is not ia.zero()


@settings(max_examples=300)
@given(precs, st.lists(st.one_of(kernel_points, st.just(None)), min_size=1, max_size=5),
       st.data())
def test_matvec_is_the_operator_isum_bit_for_bit(prec, vec, data):
    """``matvec`` on endpoint pairs equals ``isum`` of the operator products
    ``a * v`` over the non-zero entries of each row: the same endpoints, and
    the shared zero exactly where that sum adds no term."""
    vec = [ia.zero() if v is None else v for v in vec]
    entries = st.one_of(st.just(0), st.integers(1, 5), st.integers(2 ** 200, 2 ** 201))
    m = data.draw(st.lists(st.lists(entries, min_size=len(vec), max_size=len(vec)),
                           min_size=1, max_size=4))
    with ia.working_precision(prec):
        want = [ia.isum(a * v for a, v in zip(row, vec) if a) for row in m]
        got = ia.matvec(m, vec)
        assert [endpoints_of(v) for v in got] == [endpoints_of(v) for v in want]
        assert [v is ia.zero() for v in got] == [v is ia.zero() for v in want]


@settings(max_examples=200)
@given(precs, st.lists(st.one_of(st.integers(-2 ** 300, 2 ** 300), st.fractions()),
                       min_size=1, max_size=5), st.data())
def test_matvec_of_exact_coordinates_encloses_the_exact_product(prec, vec, data):
    """Int and Fraction coordinates are taken as their enclosures: each
    coordinate of ``matvec`` contains the exact sum of products."""
    entries = st.one_of(st.just(0), st.integers(1, 5), st.integers(2 ** 200, 2 ** 201))
    m = data.draw(st.lists(st.lists(entries, min_size=len(vec), max_size=len(vec)),
                           min_size=1, max_size=4))
    with ia.working_precision(prec):
        got = ia.matvec(m, vec)
    for row, v in zip(m, got):
        lo, hi = ia.endpoints(v)
        assert lo <= sum(a * Fraction(x) for a, x in zip(row, vec)) <= hi


@settings(max_examples=300)
@given(precs, intervals())
def test_minus_the_shared_zero_rounds_only_wide_endpoints(prec, x):
    """``X - zero()`` is X itself when X was built at the working precision
    p, its endpoints being normal pairs of at most p bits, and otherwise the
    rounding of X, as mpmath's ``x - 0``: here X built at 2p bits, among
    them one third, whose 2p-bit endpoints take the branch that rounds."""
    with both_at(2 * prec):
        wide = [x + 0, iv.mpf(1) / 3]
    with both_at(prec):
        narrow = x + 0
        X = kernel(narrow)
        assert X - ia.zero() is X and same(X - ia.zero(), narrow - 0)
        for w in wide:
            assert same(kernel(w) - ia.zero(), w - 0)
        third = kernel(wide[1])
        assert third - ia.zero() is not third and third - ia.zero() != third
        assert ia.zero() - ia.zero() is ia.zero()


@settings(max_examples=500)
@given(precs, dyadic, dyadic, st.integers(-1200, 1200))
@example(prec=64, x=(3, 0), y=(-5, 0), shift=-300)
def test_fused_sum_and_round(prec, x, y, shift):
    """The one call that sums two endpoints and rounds the sum, to floor,
    to ceiling and to nearest, is mpmath's ``mpf_add`` bit for bit; the
    shift puts the exponents more than 100 apart, where a sticky unit stands
    for the smaller operand, as often as not.  ``+`` and ``-`` on the
    intervals of those endpoints are mpmath's too."""
    a, b = libmp.from_man_exp(*x), libmp.from_man_exp(y[0], y[1] + shift)
    for up, rnd in ((False, "f"), (True, "c"), (None, "n")):
        assert ia._add_round(*pair(a), *pair(b), prec, up) == pair(libmp.mpf_add(a, b, prec, rnd))
    s, t = iv.make_mpf((a, b) if libmp.mpf_le(a, b) else (b, a)), iv.make_mpf((b, b))
    with both_at(prec):
        S, T = kernel(s), kernel(t)
        assert same(S + T, s + t) and same(S - T, s - t) and same(T - S, t - s)


def test_foreign_operands_rejected():
    with pytest.raises(TypeError, match="intervals, ints and Fractions"):
        1.5 in ia.one()
    with pytest.raises(TypeError):
        ia.one() + 1.5


@settings(max_examples=300)
@given(precs, intervals(), st.integers(-25, 25))
def test_integer_powers(prec, x, n):
    with both_at(prec):
        X = kernel(x)
        if n >= 0 or excludes_zero(x):
            assert same(X ** n, x ** n)
        else:
            with pytest.raises(ZeroDivisionError):
                X ** n


@settings(max_examples=400)
@given(precs, intervals())
def test_unary_operations_and_measurements(prec, x):
    with both_at(prec):
        X = kernel(x)
        assert same(-X, -x)
        assert same(abs(X), abs(x))
        assert same(X.mid, x.mid) and same(X.delta, x.delta)
        assert same(X.a, x.a) and same(X.b, x.b)
        assert ia.contains_zero(X) == (0 in x)
        assert ia.midpoint(X) == float(mpmath.mpf(x.mid.a))
        assert ia.width(X) == float(mpmath.mpf(x.delta.b))
        assert ia.sup_abs(X) == float(mpmath.mpf(abs(x).b))
        assert ia.format_interval(X) == reference_format(x)


def reference_format(x):
    """The default rendering as it was written over mpmath."""
    mid = mpmath.mpf(x.mid.a)
    w = mpmath.mpf(x.delta.b)
    body = mpmath.nstr(mid, ia.DIGITS, strip_zeros=False)
    scale = max(abs(mid), mpmath.mpf(1))
    if w > scale * mpmath.mpf(10) ** (-ia.DIGITS):
        return "%s±%s" % (body, mpmath.nstr(w, 3))
    return body


@settings(max_examples=300)
@given(precs, ints, ints, st.integers(1, 2 ** 200))
def test_constructors(prec, n, p, q):
    with both_at(prec):
        assert same(ia.exact(n), iv.mpf(n))
        lo, hi = sorted((Fraction(p, q), Fraction(n, q + 1)))
        for r in (lo, hi):
            want = iv.mpf(r.numerator)
            if r.denominator != 1:
                want = want / iv.mpf(r.denominator)
            assert same(ia.from_fraction(r), want)
        a, b = iv.mpf(lo.numerator) / lo.denominator, iv.mpf(hi.numerator) / hi.denominator
        assert same(ia.from_endpoints(lo, hi), iv.mpf([a.a, b.b]))
        assert ia.endpoints(ia.from_endpoints(lo, hi))[0] <= lo


@settings(max_examples=300)
@given(precs, intervals())
def test_exact_endpoints_round_outward(prec, x):
    """``--exact`` prints the lower endpoint rounded down and the upper one
    rounded up at 17 significant digits, laid out as mpmath lays out a
    value of 17 digits."""
    with both_at(prec):
        text = ia.format_interval(kernel(x), exact_endpoints=True)
        lo, hi = ia.endpoints(kernel(x))
        assert text == "[%s, %s]" % (directed(lo, ROUND_FLOOR), directed(hi, ROUND_CEILING))
        printed = [Fraction(Decimal(t)) for t in text[1:-1].split(", ")]
        assert printed[0] <= lo and hi <= printed[1]


def directed(value: Fraction, rounding) -> str:
    """``value`` at DIGITS + 5 significant digits rounded by ``rounding``,
    printed by mpmath.nstr at a precision that keeps those digits."""
    if not value:
        return "0.0"
    digits = ia.DIGITS + 5
    shown = Context(prec=digits, rounding=rounding).plus(exact_decimal(value))
    with mpmath.workprec(400):
        return mpmath.nstr(mpmath.mpf(str(shown)), digits)


def exact_decimal(value: Fraction) -> Decimal:
    """The exact decimal of a dyadic fraction."""
    k = value.denominator.bit_length() - 1
    assert value.denominator == 1 << k
    return Decimal(value.numerator * 5 ** k).scaleb(-k, Context(prec=10 ** 6))


def test_hash_agrees_with_equal_numbers():
    """Point intervals hash as the int or Fraction they equal, so ``==`` with
    an int and ``hash`` agree; every interval is a usable dict key."""
    for q in (Fraction(3), Fraction(-7, 8), Fraction(5, 2 ** 70), Fraction(0)):
        v = ia.from_fraction(q)
        assert v.a == v.b and hash(v) == hash(q)
    assert ia.exact(5) == 5 and hash(ia.exact(5)) == hash(5)
    x = ia.from_fraction(Fraction(1, 3))
    assert {x: 1}[ia.from_fraction(Fraction(1, 3))] == 1


def test_exact_above_the_precision_is_an_enclosure():
    """An integer wider than the precision becomes its outward enclosure."""
    with ia.working_precision(16):
        v = ia.exact(2 ** 40 + 1)
        lo, hi = ia.endpoints(v)
        assert lo < 2 ** 40 + 1 < hi and v.a != v.b
        assert v != 2 ** 40 + 1    # an int equals only its point interval
