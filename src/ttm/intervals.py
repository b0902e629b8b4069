"""Certified interval arithmetic helpers.

All spectral and measure-theoretic values emitted by this package are real
algebraic numbers that are generally irrational.  They are carried around as
mpmath intervals (outward-rounded endpoints at a configurable working
precision), so every printed digit is certified: the true value provably lies
inside the interval.

Comparisons follow tri-state semantics: an interval predicate is True or
False only when it holds for every point of the interval(s); otherwise the
answer is None ("inconclusive", the caller should refine and retry).

The working precision defaults to 128 bits and can be set through the
environment variable ``TTM_PRECISION_BITS``; an unusable setting leaves the
default in force here, and the command line refuses it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from fractions import Fraction

import mpmath
from mpmath import iv

from .errors import PreconditionError

DEFAULT_PRECISION_BITS = 128
DIGITS = 12    # significant digits of every printed value


def set_precision(bits: int) -> None:
    """Set the global working precision (bits of mantissa)."""
    if bits < 16:
        raise ValueError("precision must be at least 16 bits")
    iv.prec = bits
    mpmath.mp.prec = bits


def precision_bits() -> int:
    return iv.prec


@contextmanager
def working_precision(bits: int):
    """Run the block at ``bits`` of working precision and restore the
    caller's interval and mpmath precisions on the way out, also when the
    block raises."""
    saved = iv.prec, mpmath.mp.prec
    try:
        set_precision(bits)
        yield
    finally:
        iv.prec, mpmath.mp.prec = saved


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


# -- constructors ------------------------------------------------------------

def exact(n):
    """Interval for an exact integer (or small exactly-representable value)."""
    return iv.mpf(n)


def from_fraction(q: Fraction):
    """Tight enclosure of a rational number."""
    if q.denominator == 1:
        return iv.mpf(q.numerator)
    return iv.mpf(q.numerator) / iv.mpf(q.denominator)


def coerce(x):
    """Fractions as their tight enclosure, certified roots (anything with an
    ``interval()``) as their current enclosure; intervals unchanged."""
    if isinstance(x, Fraction):
        return from_fraction(x)
    return x.interval() if hasattr(x, "interval") else x


def from_endpoints(lo: Fraction, hi: Fraction):
    """Enclosure of the closed interval [lo, hi] with rational endpoints."""
    a = from_fraction(lo)
    b = from_fraction(hi)
    return iv.mpf([a.a, b.b])


def zero():
    return iv.mpf(0)


def one():
    return iv.mpf(1)


# -- predicates (tri-state: True / False / None) ------------------------------

def contains_zero(x) -> bool:
    return 0 in x


def is_exact_zero(x) -> bool:
    """True iff x is the degenerate interval [0, 0]."""
    return x.a == 0 and x.b == 0


# -- measurements -------------------------------------------------------------

def width(x) -> float:
    """Upper bound on the diameter of x, as a float."""
    return float(mpmath.mpf(x.delta.b))


def sup_abs(x) -> float:
    """Upper bound on |x|, as a float."""
    return float(mpmath.mpf(abs(x).b))


def midpoint(x) -> float:
    return float(mpmath.mpf(x.mid.a))


def endpoints(x) -> tuple:
    """Outward endpoint pair as mpmath mpf numbers."""
    return mpmath.mpf(x.a.a), mpmath.mpf(x.b.b)


# -- aggregation ---------------------------------------------------------------

def isum(values):
    """Interval sum of an iterable (empty sum is exact 0)."""
    total = zero()
    for v in values:
        total = total + v
    return total


def matvec(m, vec):
    """M v for a non-negative integer matrix and an interval vector: each
    coordinate sums ``m[i][j] * vec[j]`` over the non-zero entries of its
    row, in column order (a zero row gives exact 0)."""
    out = []
    for row in m:
        acc = zero()
        for a, v in zip(row, vec):
            if a:
                acc = acc + exact(a) * v
        out.append(acc)
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

def format_interval(x, exact_endpoints: bool = False) -> str:
    """Deterministic decimal rendering of an interval.

    Prints the midpoint truncated to ``DIGITS`` significant digits.  When the
    interval is wider than the printed resolution the rendering carries a
    trailing ``±`` width marker so that no false precision leaks out.
    With ``exact_endpoints`` the outward endpoint pair is printed instead.
    """
    if exact_endpoints:
        a, b = endpoints(x)
        return "[%s, %s]" % (mpmath.nstr(a, DIGITS + 5), mpmath.nstr(b, DIGITS + 5))
    mid = mpmath.mpf(x.mid.a)
    w = mpmath.mpf(x.delta.b)
    body = mpmath.nstr(mid, DIGITS, strip_zeros=False)
    scale = max(abs(mid), mpmath.mpf(1))
    if w > scale * mpmath.mpf(10) ** (-DIGITS):
        return "%s±%s" % (body, mpmath.nstr(w, 3))
    return body
