"""Certified interval arithmetic.

All spectral and measure-theoretic values emitted by this package are real
algebraic numbers that are generally irrational.  They are carried around as
:class:`Interval` values: closed intervals whose two endpoints are dyadic
numbers (an odd Python-int mantissa times a power of two, or zero), rounded
outward with integer shifts at a configurable working precision, so every
printed digit is certified: the true value provably lies inside the interval.

The arithmetic is ported operation for operation from the reference
multiple-precision library that ``tests/test_intervals.py`` compares it
with bit for bit (its ``libmpi`` interval routines ``mpi_*`` over the
``libmpf`` float routines ``mpf_*``, whose names the docstrings below cite):
each endpoint and each printed digit equals the reference's at the same
precision.  The one departure: dividing by an interval that contains zero
raises ZeroDivisionError, where the reference returns infinite endpoints.

Intervals take ints and Fractions as operands, enclosed on contact, while two
Fractions stay exact: an exact table of cylinder values keeps exact residuals.
So callers write plain arithmetic (``count * weight``, ``1 - x``, ``sum``).
The shared exact zero ``zero()`` is every product with an exact zero factor;
``zero() - zero()`` and ``abs(zero())`` return it and ``isum`` skips it, so
no caller needs to test for it.

The spectra kernels ``horner`` (an int polynomial at an interval) and
``matvec`` (an int matrix times an interval vector) run on endpoint pairs,
building no interval between steps: ``_mul_pairs``, the multiply that
``Interval.__mul__`` calls, and ``_add_round``, with the operators' operand
order and roundings, so they give the operator forms' bits.

Comparisons follow tri-state semantics: an interval predicate is True or
False only when it holds for every point of the interval(s); otherwise the
answer is None ("inconclusive", the caller should refine and retry).

The working precision defaults to 128 bits and can be set through the
environment variable ``TTM_PRECISION_BITS``; an unusable setting leaves the
default in force here, and the command line refuses it.  The precision is
this module's own setting, global to the process.
"""

from __future__ import annotations

import math
import os
import sys
from contextlib import contextmanager
from fractions import Fraction

from .errors import PreconditionError

DEFAULT_PRECISION_BITS = 128
DIGITS = 12    # significant digits of every printed value

_prec = DEFAULT_PRECISION_BITS


def set_precision(bits: int) -> None:
    """Set the global working precision (bits of mantissa)."""
    global _prec
    if bits < 16:
        raise ValueError("precision must be at least 16 bits")
    _prec = int(bits)


def precision_bits() -> int:
    return _prec


@contextmanager
def working_precision(bits: int):
    """Run the block at ``bits`` of working precision and restore the
    caller's precision on the way out, also when the block raises."""
    global _prec
    saved = _prec
    try:
        set_precision(bits)
        yield
    finally:
        _prec = saved


def precision_from_env() -> int:
    """``TTM_PRECISION_BITS`` (the default when unset); PreconditionError
    unless it is an integer of at least 16."""
    raw = os.environ.get("TTM_PRECISION_BITS", str(DEFAULT_PRECISION_BITS))
    if not raw.strip().isdecimal() or int(raw) < 16:
        raise PreconditionError(
            f"TTM_PRECISION_BITS must be an integer of at least 16 (got {raw!r})")
    return int(raw)


try:
    set_precision(precision_from_env())
except PreconditionError:   # reported by the command line
    set_precision(DEFAULT_PRECISION_BITS)


# -- dyadic numbers ------------------------------------------------------------
#
# A dyadic number is a pair (m, e) standing for m * 2**e.  A normal pair has
# an odd mantissa, or is (0, 0), so equal numbers are equal pairs.  The
# helpers below take mantissas and exponents and return pairs.

_ZERO = (0, 0)
_ONE = (1, 0)


def _round(m, e, prec, up):
    """m * 2**e rounded to ``prec`` bits, to floor or (``up``) to ceiling,
    as a normal pair."""
    n = m.bit_length() - prec
    if n > 0:
        m = -(-m >> n) if up else m >> n
        e += n
    if m & 1:
        return m, e
    if not m:
        return _ZERO
    t = (m & -m).bit_length() - 1
    return m >> t, e + t


def _nearest(m, e, prec):
    """m * 2**e rounded to ``prec`` bits, to nearest (ties to even)."""
    n = m.bit_length() - prec
    if n > 0:
        a = -m if m < 0 else m
        t = a >> (n - 1)
        a = (t >> 1) + 1 if t & 1 and (t & 2 or a & ((1 << (n - 1)) - 1)) else t >> 1
        m, e = (-a if m < 0 else a), e + n
    return _round(m, e, prec, False)    # only strips: m has at most prec bits


def _add_round(xm, xe, ym, ye, prec, up):
    """x + y rounded to ``prec`` bits, to floor, to ceiling (``up``) or, with
    ``up`` None, to nearest, as a normal pair: the rounding of the exact sum,
    taken from that sum, or from x with a sticky unit standing for y when y
    lies far below the precision of x (as in mpf_add)."""
    if not ym:
        m, e = xm, xe
    elif not xm:
        m, e = ym, ye
    else:
        d = xe - ye
        if d < 0:
            xm, xe, ym, ye, d = ym, ye, xm, xe, -d
        if d > 100 and xm.bit_length() - ym.bit_length() + d > prec + 4:
            m, e = (xm << (prec + 4)) + (1 if ym > 0 else -1), xe - prec - 4
        else:
            m, e = (xm << d) + ym, ye
    if up is None:
        return _nearest(m, e, prec)
    n = m.bit_length() - prec    # _round, inline
    if n > 0:
        m = -(-m >> n) if up else m >> n
        e += n
    if m & 1:
        return m, e
    if not m:
        return _ZERO
    t = (m & -m).bit_length() - 1
    return m >> t, e + t


def _quotient(xm, xe, ym, ye, prec):
    """x / y (y non-zero) as a pair whose rounding to ``prec`` bits, in any
    direction, is that of the exact quotient: at least prec + 4 bits and a
    sticky last bit for a remainder, as in mpf_div."""
    if not xm:
        return _ZERO
    a, b = -xm if xm < 0 else xm, -ym if ym < 0 else ym
    e = xe - ye
    if b != 1:
        extra = max(prec - a.bit_length() + b.bit_length() + 5, 5)
        a, r = divmod(a << extra, b)
        e -= extra
        if r:
            a, e = (a << 1) | 1, e - 1
    return (-a if (xm < 0) != (ym < 0) else a), e


def _cmp(x, y):
    """The sign of x - y for normal pairs."""
    xm, xe = x
    ym, ye = y
    if (xm > 0) != (ym > 0) or not xm or not ym:
        sx, sy = (xm > 0) - (xm < 0), (ym > 0) - (ym < 0)
        return (sx > sy) - (sx < sy)
    d = xm.bit_length() + xe - ym.bit_length() - ye
    if d:
        return 1 if (d > 0) == (xm > 0) else -1
    if xe >= ye:
        xm <<= xe - ye
    else:
        ym <<= ye - xe
    return (xm > ym) - (xm < ym)


def _pow(x, n, prec, up):
    """x**n for an integer n >= 3, rounded to floor or (``up``) to ceiling:
    the exact power when it is small, else binary powering with directed
    truncations at a working precision, exactly as mpf_pow_int."""
    m, e = x
    neg = m < 0 and bool(n & 1)
    a = -m if m < 0 else m
    if a == 1:
        return (-1 if neg else 1), e * n
    if a.bit_length() * n < 1000:
        a = a ** n
        return _round(-a if neg else a, e * n, prec, up)
    down = up == neg   # truncate the magnitude towards zero
    work = prec + 4 * n.bit_length() + 4
    pm, pe = 1, 0
    while True:
        if n & 1:
            pm, pe = pm * a, pe + e
            k = pm.bit_length() - work
            if k > 0:
                pm, pe = (pm >> k if down else -(-pm >> k)), pe + k
            n -= 1
            if not n:
                break
        a, e = a * a, e + e
        k = a.bit_length() - work
        if k > 0:
            a, e = (a >> k if down else -(-a >> k)), e + k
        n //= 2
    return _round(-pm if neg else pm, pe, prec, up)


def _to_float(x) -> float:
    """The nearest float (to_float: 53 bits to nearest, then ldexp;
    beyond the float range, an infinity)."""
    m, e = x
    if m.bit_length() > 53:
        m, e = _nearest(m, e, 53)
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.inf if m > 0 else -math.inf


_MODULUS = sys.hash_info.modulus    # the Mersenne prime 2**k - 1
_HASH_BITS = _MODULUS.bit_length()  # k: 2**k is 1 modulo _MODULUS


def _hash(x) -> int:
    """hash() of the number m * 2**e, equal to that of an equal int or
    Fraction."""
    m, e = x
    h = ((-m if m < 0 else m) % _MODULUS << e % _HASH_BITS) % _MODULUS
    h = -h if m < 0 else h
    return -2 if h == -1 else h


def _fraction(x) -> Fraction:
    m, e = x
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


# -- interval operations ------------------------------------------------------------
#
# Each takes intervals (exact operands already enclosed) and the precision in bits.


def _add(s, t, p):
    return Interval(_add_round(*s._lo, *t._lo, p, False),
                    _add_round(*s._hi, *t._hi, p, True))


def _sub(s, t, p):
    if t is _ZERO_INTERVAL and s._lo[0].bit_length() <= p >= s._hi[0].bit_length():
        return s    # the rounding of a normal pair of at most p bits is that pair
    (cm, ce), (dm, de) = t._lo, t._hi
    return Interval(_add_round(*s._lo, -dm, de, p, False),
                    _add_round(*s._hi, -cm, ce, p, True))


def _product(x, y, p, up):
    return _round(x[0] * y[0], x[1] + y[1], p, up)


def _mul(s, t, p):
    """mpi_mul, the shared zero for an exact zero factor."""
    sa, sb, ta, tb = s._lo, s._hi, t._lo, t._hi
    if not sa[0] and not sb[0] or not ta[0] and not tb[0]:
        return _ZERO_INTERVAL
    return Interval(*_mul_pairs(sa, sb, ta, tb, p))


def _mul_pairs(sa, sb, ta, tb, p):
    """mpi_mul on endpoint pairs: the endpoint pairs of the product, from
    the endpoint products that bound it, by the signs (zero pairs for an
    exact zero factor)."""
    if sa[0] >= 0:
        if ta[0] >= 0:
            lo, hi = (sa, ta), (sb, tb)
        elif tb[0] <= 0:
            lo, hi = (sb, ta), (sa, tb)
        else:
            lo, hi = (sb, ta), (sb, tb)
    elif sb[0] <= 0:
        if ta[0] >= 0:
            lo, hi = (sa, tb), (sb, ta)
        elif tb[0] <= 0:
            lo, hi = (sb, tb), (sa, ta)
        else:
            lo, hi = (sa, tb), (sa, ta)
    else:
        # s holds 0 inside: the extremes of the four exact products
        cases = [(x[0] * y[0], x[1] + y[1]) for x in (sa, sb) for y in (ta, tb)]
        low = high = cases[0]
        for c in cases[1:]:
            if _cmp(c, low) < 0:
                low = c
            if _cmp(c, high) > 0:
                high = c
        return _round(*low, p, False), _round(*high, p, True)
    return _product(*lo, p, False), _product(*hi, p, True)


def _div(s, t, p):
    """mpi_div for a divisor that excludes zero."""
    ta, tb = t._lo, t._hi
    if ta[0] <= 0 <= tb[0]:
        raise ZeroDivisionError("interval division by an interval containing zero")
    sa, sb = s._lo, s._hi
    if not sa[0] and not sb[0]:
        return _ZERO_INTERVAL
    if ta[0] < 0:    # -s / -t, negated exactly
        sa, sb = (-sb[0], sb[1]), (-sa[0], sa[1])
        ta, tb = (-tb[0], tb[1]), (-ta[0], ta[1])
    if sa[0] >= 0:
        lo, hi = (sa, tb), (sb, ta)
    elif sb[0] <= 0:
        lo, hi = (sa, ta), (sb, tb)
    else:
        lo, hi = (sa, ta), (sb, ta)
    return Interval(_round(*_quotient(*lo[0], *lo[1], p), p, False),
                    _round(*_quotient(*hi[0], *hi[1], p), p, True))


def _square(s, p):
    """mpi_square: squares of the endpoints, 0 below when s holds 0."""
    sa, sb = s._lo, s._hi
    if sa[0] >= 0:
        return Interval(_product(sa, sa, p, False), _product(sb, sb, p, True))
    if sb[0] <= 0:
        return Interval(_product(sb, sb, p, False), _product(sa, sa, p, True))
    top = sb if _cmp((-sa[0], sa[1]), sb) < 0 else sa
    return Interval(_ZERO, _product(top, top, p, True))


def _pow_int(s, n, p):
    """mpi_pow_int: a negative power is one over the positive power taken
    at p + 20 bits."""
    if n < 0:
        return _div(_ONE_INTERVAL, _pow_int(s, -n, p + 20), p)
    if n == 0:
        return _ONE_INTERVAL
    if n == 1:
        return s
    if n == 2:
        return _square(s, p)
    sa, sb = s._lo, s._hi
    if n & 1 or sa[0] >= 0:
        return Interval(_pow(sa, n, p, False), _pow(sb, n, p, True))
    if sb[0] <= 0:
        return Interval(_pow(sb, n, p, False), _pow(sa, n, p, True))
    neg = (-sa[0], sa[1])
    return Interval(_ZERO, _pow(neg if _cmp(neg, sb) >= 0 else sb, n, p, True))


def _less(s, t, p):
    """mpi_lt: s < t for every point (True), for none (False), else None."""
    if _cmp(s._hi, t._lo) < 0:
        return True
    if _cmp(s._lo, t._hi) >= 0:
        return False
    return None


def _less_equal(s, t, p):
    """mpi_le, tri-state as _less."""
    if _cmp(s._hi, t._lo) <= 0:
        return True
    if _cmp(s._lo, t._hi) > 0:
        return False
    return None


def _operand(t):
    """An interval as it is, an int or a Fraction as its enclosure, else
    NotImplemented."""
    if type(t) is Interval:
        return t
    if isinstance(t, int):
        return _from_int(t, _prec)
    if isinstance(t, Fraction):
        return from_fraction(t)
    return NotImplemented


def _from_int(n, prec):
    """The enclosure of an integer at ``prec`` bits (a point when it fits)."""
    if not n:
        return _ZERO_INTERVAL
    return Interval(_round(n, 0, prec, False), _round(n, 0, prec, True))


def _operator(op, reflected=False):
    """The method ``s <op> t`` (``t <op> s`` when reflected) at the working
    precision."""
    def method(s, t):
        if type(t) is not Interval:
            t = _operand(t)
            if t is NotImplemented:
                return t
        return op(t, s, _prec) if reflected else op(s, t, _prec)
    return method


# -- intervals ---------------------------------------------------------------------


class Interval:
    """The closed interval [lo, hi] with normal dyadic endpoint pairs.

    Immutable and hashable.  ``==`` compares the endpoints exactly, as
    ``mpi_eq``, and an int or a Fraction equals only its point interval;
    ``<``, ``<=``, ``>`` and ``>=`` are tri-state.  Python ints and
    Fractions mix in on either side of the other operators, and in ``in``,
    as their enclosure at the working precision.  Build intervals with the
    constructors below, not from pairs.
    """

    __slots__ = ("_lo", "_hi")

    def __init__(self, lo, hi):
        self._lo = lo
        self._hi = hi

    __add__ = __radd__ = _operator(_add)
    __sub__, __rsub__ = _operator(_sub), _operator(_sub, reflected=True)
    __mul__ = __rmul__ = _operator(_mul)
    __truediv__, __rtruediv__ = _operator(_div), _operator(_div, reflected=True)
    __lt__, __gt__ = _operator(_less), _operator(_less, reflected=True)
    __le__, __ge__ = _operator(_less_equal), _operator(_less_equal, reflected=True)

    def __eq__(s, t):
        """Equal endpoints (mpi_eq); an int or a Fraction is only its point."""
        if type(t) is Interval:
            return s._lo == t._lo and s._hi == t._hi
        if isinstance(t, (int, Fraction)):
            return s._lo == s._hi and _fraction(s._lo) == t
        return NotImplemented

    def __pow__(s, n):
        if not isinstance(n, int):
            return NotImplemented
        return _pow_int(s, n, _prec)

    def __neg__(s):
        (am, ae), (bm, be) = s._lo, s._hi
        return Interval(_round(-bm, be, _prec, False), _round(-am, ae, _prec, True))

    def __abs__(s):
        """mpi_abs: the endpoints rounded outward, and 0 below when s holds 0."""
        if s is _ZERO_INTERVAL:
            return s
        p = _prec
        (am, ae), (bm, be) = s._lo, s._hi
        if am >= 0:
            return Interval(_round(am, ae, p, False), _round(bm, be, p, True))
        if bm >= 0:
            top = s._hi if _cmp((-am, ae), s._hi) < 0 else (-am, ae)
            return Interval(_ZERO, _round(*top, p, True))
        return Interval(_round(-bm, be, p, False), _round(-am, ae, p, True))

    def __hash__(s):
        lo = s._lo
        if lo != s._hi:
            return hash((lo, s._hi))
        return _hash(lo) if lo[1] else hash(lo[0])

    def __contains__(s, t):
        """``t in s``: t (an interval, an int or a Fraction) lies inside s."""
        t = _operand(t)
        if t is NotImplemented:
            raise TypeError("only intervals, ints and Fractions can lie in an interval")
        return _cmp(s._lo, t._lo) <= 0 and _cmp(t._hi, s._hi) <= 0

    # -- endpoints and measurements, as point intervals

    @property
    def a(self):
        return Interval(self._lo, self._lo)

    @property
    def b(self):
        return Interval(self._hi, self._hi)

    @property
    def mid(self):
        """The midpoint (mpi_mid): the endpoint sum rounded to nearest, halved."""
        m, e = _add_round(*self._lo, *self._hi, _prec, None)
        v = (m, e - 1) if m else _ZERO
        return Interval(v, v)

    @property
    def delta(self):
        """The width hi - lo rounded up (mpi_delta)."""
        lm, le = self._lo
        v = _add_round(*self._hi, -lm, le, _prec, True)
        return Interval(v, v)

    def __float__(self):
        if self._lo != self._hi:
            raise ValueError("only a point interval converts to float")
        return _to_float(self._lo)

    def __repr__(self):
        return f"Interval{format_interval(self, exact_endpoints=True)}"


_ZERO_INTERVAL = Interval(_ZERO, _ZERO)
_ONE_INTERVAL = Interval(_ONE, _ONE)


# -- constructors ------------------------------------------------------------


def exact(n):
    """Interval for an exact integer (its enclosure when it needs more bits
    than the working precision)."""
    return _from_int(n, _prec)


def from_fraction(q: Fraction):
    """Tight enclosure of a rational number: the enclosure of the numerator
    divided by that of the denominator."""
    if q.denominator == 1:
        return _from_int(q.numerator, _prec)
    return _div(_from_int(q.numerator, _prec), _from_int(q.denominator, _prec), _prec)


def from_float(x: float):
    """The point interval of a finite float, exactly (floats are dyadic)."""
    if not math.isfinite(x):
        raise ValueError(f"not a finite float: {x!r}")
    m, d = x.as_integer_ratio()
    v = _round(m, 1 - d.bit_length(), max(m.bit_length(), 1), False)    # exact
    return Interval(v, v)


def coerce(x):
    """An operand as the operators take it, a certified root (anything with
    an ``interval()``) as its current enclosure."""
    t = _operand(x)
    if t is not NotImplemented:
        return t
    return x.interval() if hasattr(x, "interval") else x


def from_endpoints(lo: Fraction, hi: Fraction):
    """Enclosure of the closed interval [lo, hi] with rational endpoints."""
    return Interval(from_fraction(lo)._lo, from_fraction(hi)._hi)


def zero():
    return _ZERO_INTERVAL


def one():
    return _ONE_INTERVAL


# -- predicates (tri-state: True / False / None) ------------------------------

def contains_zero(x) -> bool:
    return x._lo[0] <= 0 <= x._hi[0]


# -- measurements -------------------------------------------------------------

def width(x) -> float:
    """Upper bound on the diameter of x, as a float."""
    return _to_float(x.delta._hi)


def sup_abs(x) -> float:
    """Upper bound on |x|, as a float."""
    return _to_float(abs(x)._hi)


def midpoint(x) -> float:
    return _to_float(x.mid._lo)


def endpoints(x) -> tuple:
    """The outward endpoint pair, as exact Fractions."""
    return _fraction(x._lo), _fraction(x._hi)


def max_endpoints(values):
    """The largest lower and the largest upper endpoint of the intervals and
    of zero, as point intervals (compared exactly)."""
    lo = hi = _ZERO
    for v in values:
        if _cmp(v._lo, lo) > 0:
            lo = v._lo
        if _cmp(v._hi, hi) > 0:
            hi = v._hi
    return Interval(lo, lo), Interval(hi, hi)


# -- aggregation ---------------------------------------------------------------

def isum(values):
    """Interval sum of an iterable, in order (empty sum is exact 0).  The
    shared exact zero is skipped unread: adding it to a sum already rounded
    at the working precision changes no bit.  This skip, ``s - zero()``,
    which returns s when its endpoints fit the precision (``zero() - zero()``
    is ``zero()``), and ``abs(zero())`` are the only identity tests on the
    shared zero: callers use the operators."""
    return sum((v for v in values if v is not _ZERO_INTERVAL), zero())


def horner(coefficients, x):
    """The int coefficients (low degree first) as a polynomial at the
    interval x: ``acc * x + c`` from ``acc = 0``, bit for bit as with the
    operators, on endpoint pairs.  A product with an exact zero factor has
    zero pairs, and adding c = 0 keeps the pairs, as ``_add`` does for a
    sum already rounded at the working precision."""
    p = _prec
    xa, xb = x._lo, x._hi
    lo = hi = _ZERO
    for c in reversed(coefficients):
        lo, hi = _mul_pairs(lo, hi, xa, xb, p)
        if c:
            lo = _add_round(*lo, *_round(c, 0, p, False), p, False)
            hi = _add_round(*hi, *_round(c, 0, p, True), p, True)
    return Interval(lo, hi)


def matvec(m, vec):
    """M v for a non-negative integer matrix and a vector of intervals, ints
    or Fractions (each taken as its enclosure, once per call): each
    coordinate sums ``m[i][j] * vec[j]`` over the non-zero entries of its
    row, in column order, as ``isum`` of the products (a row with no such
    product gives the shared zero), on endpoint pairs."""
    p = _prec
    vec = [_operand(v) for v in vec]
    out = []
    for row in m:
        lo = hi = None
        for a, v in zip(row, vec):
            va, vb = v._lo, v._hi
            if a and (va[0] or vb[0]):
                plo, phi = _mul_pairs(va, vb, _round(a, 0, p, False), _round(a, 0, p, True), p)
                if lo is None:    # zero() + v is v, its pairs already rounded
                    lo, hi = plo, phi
                else:
                    lo, hi = _add_round(*lo, *plo, p, False), _add_round(*hi, *phi, p, True)
        out.append(_ZERO_INTERVAL if lo is None else Interval(lo, hi))
    return tuple(out)


def eigen_residual(m, vec, lam):
    """``M v - lam v`` coordinatewise; every coordinate contains 0 when v is
    an eigenvector of M with eigenvalue in ``lam``."""
    return tuple(a - lam * v for a, v in zip(matvec(m, vec), vec))


def geometric_tail(ratio, first_exponent: int):
    """Certified value of sum_{j>=0} ratio**(first_exponent + j) for 0 < ratio < 1.

    ``ratio`` is an interval with 0 < ratio < 1 (raises if not certain).
    """
    if not (ratio > 0 and ratio < 1):
        raise ValueError("geometric tail needs a ratio certainly inside (0, 1)")
    return ratio ** first_exponent / (one() - ratio)


# -- printing ------------------------------------------------------------------

_LOG2_10 = math.log(10, 2)


def _digits(a, e, dps):
    """to_digits_exp for the positive a * 2**e: a digit string,
    truncated and at least about ``dps`` long, and the decimal exponent of
    its first digit.  Beyond 2**3500 either way the reference rescales by a power
    of ten computed inexactly; here the rescaling is exact."""
    bc = a.bit_length()
    if abs(e + bc) > 3500:
        f = dps + 3 - int((e + bc) * 0.3010299956639812)
        num, den = a * 10 ** max(f, 0), 10 ** max(-f, 0)
        num, den = (num << e, den) if e >= 0 else (num, den << -e)
        digits = str(num // den)
        return digits, len(digits) - f - 1
    bitprec = int(dps * _LOG2_10) + 10
    fixprec = max(bitprec - e - bc, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = e + fixprec
    fixed = a << shift if shift >= 0 else a >> -shift
    digits = str(fixed * 10 ** fixdps >> fixprec)
    return digits, len(digits) - fixdps - 1


def _layout(sign, digits, exponent, dps, strip_zeros):
    """to_str's layout of ``dps`` significant digits: fixed point for a
    leading digit between 10**min(-dps//3, -5) and 10**dps exclusive, else
    a mantissa with an exponent."""
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits, split = "0" * -exponent + digits, 1
        else:
            split = exponent + 1
        exponent = 0
    else:
        split = 1
    digits = digits[:split] + "." + digits[split:]
    if strip_zeros:
        digits = digits.rstrip("0")
        if digits[-1] == ".":
            digits += "0"
    if exponent == 0:
        return sign + digits
    return sign + digits + ("e+" if exponent > 0 else "e") + str(exponent)


def _to_str(x, dps, strip_zeros=True):
    """to_str: ``dps`` significant digits, the last one rounded
    half up on the next truncated digit."""
    m, e = x
    if not m:
        return "0.0"
    digits, exponent = _digits(-m if m < 0 else m, e, dps + 3)
    if len(digits) > dps and digits[dps] in "56789":
        digits = digits[:dps]
        i = dps - 1
        while i >= 0 and digits[i] == "9":
            i -= 1
        if i >= 0:
            digits = digits[:i] + str(int(digits[i]) + 1) + "0" * (dps - i - 1)
        else:
            digits, exponent = "1" + "0" * (dps - 1), exponent + 1
    else:
        digits = digits[:dps]
    return _layout("-" if m < 0 else "", digits, exponent, dps, strip_zeros)


def _to_str_directed(x, dps, up):
    """x at ``dps`` significant digits rounded to floor or (``up``) to
    ceiling, in to_str's layout."""
    m, e = x
    if not m:
        return "0.0"
    a = -m if m < 0 else m
    num, den = (a << e, 1) if e >= 0 else (a, 1 << -e)
    k = math.floor((a.bit_length() + e - 1) * math.log10(2))   # log10(x), about
    while True:
        p = dps - 1 - k
        n, d = (num * 10 ** p, den) if p >= 0 else (num, den * 10 ** -p)
        q = n // d
        if q >= 10 ** dps:
            k += 1
        elif q < 10 ** (dps - 1):
            k -= 1
        else:
            break
    if up == (m > 0) and q * d != n:   # the magnitude rounds up
        q += 1
        if q == 10 ** dps:
            q, k = 10 ** (dps - 1), k + 1
    return _layout("-" if m < 0 else "", str(q), k, dps, True)


_thresholds = {}


def _threshold(scale, prec):
    """scale * 10**-DIGITS as the reference computes it, to nearest at ``prec``:
    10**-DIGITS is one over 10**DIGITS taken at prec + 5 bits."""
    tenth = _thresholds.get(prec)
    if tenth is None:
        big = _nearest(5 ** DIGITS, DIGITS, prec + 5)
        tenth = _thresholds[prec] = _nearest(*_quotient(1, 0, *big, prec), prec)
    return _nearest(scale[0] * tenth[0], scale[1] + tenth[1], prec)


def format_interval(x, exact_endpoints: bool = False) -> str:
    """Deterministic decimal rendering of an interval.

    Prints the midpoint rounded to ``DIGITS`` significant digits.  When the
    interval is wider than the printed resolution the rendering carries a
    trailing ``±`` width marker so that no false precision leaks out.
    With ``exact_endpoints`` the endpoint pair is printed instead, at
    ``DIGITS + 5`` significant digits rounded outward (the lower endpoint
    down, the upper one up), so the printed pair still encloses x.
    """
    if exact_endpoints:
        return "[%s, %s]" % (_to_str_directed(x._lo, DIGITS + 5, False),
                             _to_str_directed(x._hi, DIGITS + 5, True))
    mid, w = x.mid._lo, x.delta._hi
    body = _to_str(mid, DIGITS, strip_zeros=False)
    scale = (abs(mid[0]), mid[1]) if _cmp((abs(mid[0]), mid[1]), _ONE) > 0 else _ONE
    if _cmp(w, _threshold(scale, _prec)) > 0:
        return "%s±%s" % (body, _to_str(w, 3))
    return body
