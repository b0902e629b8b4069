"""Exact characteristic polynomials and certified real root isolation.

Matrices here are small non-negative integer matrices, so all polynomial
arithmetic is exact and in integers; only root endpoints and bisection
midpoints are ``Fraction``s:

* characteristic polynomials come from the Faddeev-LeVerrier recursion in
  integer arithmetic (each coefficient is an exact quotient of a trace by
  ``k``), which also yields the adjugate of ``x I - A`` as integer matrix
  coefficients, evaluated one column at a time;
* coefficients are ints (any other is a ``SpectralError``).  Division is
  pseudo-division, scaled by a positive power of the divisor's leading
  coefficient, so Sturm chains are primitive pseudo-remainder sequences with
  the signs of the rational chains, and equal roots of two polynomials are
  found through an integer common factor;
* signs at a rational ``n/d`` come from a homogeneous integer Horner sum.
  Sturm counts serve root isolation only, each bracket end keeping its
  count; every root test reads the sign of the square-free part, which has
  the roots of the polynomial.  Refinement of an isolated simple root by k
  bisection steps goes straight to the depth-k dyadic cell that holds the
  root: a fixed-point integer Newton estimate names the cell and the exact
  signs at its two ends prove it (the root lies strictly between them, and
  no grid point inside a cell was a midpoint), so the cell is bisection's.
  Short refinements, and cells whose proof fails, bisect on the sign at the
  midpoint against the left endpoint, which picks the same half as a Sturm
  count would.

A certified root is carried as an isolating rational interval (or an exact
rational) and can be refined on demand and converted to an outward-rounded
enclosure.
"""

from __future__ import annotations

from copy import copy
from fractions import Fraction
from math import ceil, gcd
from operator import add

from . import intervals as ia
from .errors import SpectralError

# Polynomials are tuples of int coefficients, low degree first: p[k] is the
# coefficient of x**k.


def poly_degree(p) -> int:
    d = len(p) - 1
    while d > 0 and p[d] == 0:
        d -= 1
    return d


def poly_trim(p):
    return tuple(p[:poly_degree(p) + 1])


def poly_derivative(p):
    return tuple(k * p[k] for k in range(1, len(p))) or (0,)


def _integer_poly(p):
    """p trimmed, after checking that every coefficient is an int."""
    if not all(isinstance(c, int) for c in p):
        raise SpectralError("polynomial coefficients must be integers")
    return poly_trim(p)


def _primitive(p):
    """p divided by the gcd of its coefficients (the zero polynomial stays)."""
    g = gcd(*p)
    return tuple(c // g for c in p) if g > 1 else tuple(p)


def _pseudo_divmod(a, b):
    """Pseudo-division of trimmed a by trimmed non-zero b: ``(q, r)`` with
    ``s a = q b + r``, ``deg r < deg b`` and
    ``s = |lead(b)|**max(0, deg a - deg b + 1)``.  As s > 0, r has the sign
    of the rational remainder at every point."""
    db = len(b) - 1
    scale, sign = abs(b[db]), (1 if b[db] > 0 else -1)
    r = list(a)
    q = [0] * max(1, len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        c = sign * r[k + db]
        q = [scale * x for x in q]
        q[k] += c
        r = [scale * x for x in r]
        for i, y in enumerate(b):
            r[k + i] -= c * y
    return poly_trim(q), poly_trim(r[:db] or [0])


def _sign_at(p, x, d: int = 1) -> int:
    """Sign of the integer polynomial p at x / d = n / d' (x an int or a
    Fraction, d > 0, n/d' not reduced), read off the homogeneous integer sum
    d'**deg * p(n/d') = sum_k p[k] n**k d'**(deg - k)."""
    n, d = x.numerator, x.denominator * d
    acc = 0
    dk = 1
    for c in reversed(p):
        acc = acc * n + c * dk
        dk *= d
    return (acc > 0) - (acc < 0)


def _remainder_chain(a, b):
    """The primitive pseudo-remainder sequence of (a, b), each remainder
    negated, up to the last non-zero member: every member is the positive
    multiple of the rational one with coprime integer coefficients, so sign
    counts agree, and the last one has the common roots of a and b."""
    chain = [_primitive(a)]
    b = _primitive(b)
    while any(b):
        chain.append(b)
        _, r = _pseudo_divmod(chain[-2], b)
        b = _primitive(tuple(-c for c in r))
    return chain


def sturm_chain(p):
    """Sturm sequence of the square-free part of the integer polynomial p,
    every member a primitive integer polynomial.

    The last member of the remainder sequence of (p, p') is a multiple of
    gcd(p, p').  When it is constant, p is square-free and the sequence is
    its Sturm chain; otherwise the square-free part is the exact
    pseudo-quotient of p by the last member, negated when that member leads
    negative so that it keeps the sign of p, and the chain is that of the
    quotient.
    """
    p = _integer_poly(p)
    chain = _remainder_chain(p, poly_derivative(p))
    last = chain[-1]
    if poly_degree(last) == 0:
        return chain
    q, r = _pseudo_divmod(chain[0], last)
    assert not any(r)
    if last[-1] < 0:
        q = tuple(-c for c in q)
    return _remainder_chain(q, poly_derivative(q))


def _common_factor(a, b):
    """A primitive integer polynomial with exactly the common complex roots
    of a and b (a constant when there is none)."""
    return _remainder_chain(a, b)[-1]


def _sign_variations(chain, x, d: int = 1):
    """``(s, v)``: the sign s of the chain's first member at x / d (as
    ``_sign_at``) and the number v of sign variations along the chain there,
    zeros skipped."""
    signs = [_sign_at(q, x, d) for q in chain]
    nonzero = [s for s in signs if s]
    return signs[0], sum(s != t for s, t in zip(nonzero, nonzero[1:]))


def count_roots(p, lo: Fraction, hi: Fraction, chain=None) -> int:
    """Number of distinct real roots in the half-open interval (lo, hi]."""
    if lo >= hi:
        return 0
    if chain is None:
        chain = sturm_chain(p)
    return _sign_variations(chain, lo)[1] - _sign_variations(chain, hi)[1]


def _newton(p, a, b, d, bits):
    """An integer x with x / 2**bits near the root of p in the open interval
    (a / d, b / d): fixed-point Newton steps from b / d, values scaled by
    2**P and truncated, P from 32 bits finer than the interval's width and
    doubling up to ``bits`` once a step moves less than 2**(-P/2); None when
    an iterate leaves the interval or the steps do not settle."""
    p_bits = min((d // (b - a)).bit_length() + 32, bits)
    x = (b << p_bits) // d
    for _ in range(64):
        v = dv = 0
        for c in reversed(p):
            dv = (dv * x >> p_bits) + v
            v = (v * x >> p_bits) + (c << p_bits)
        if not dv:
            return None
        step = (v << p_bits) // dv
        x -= step
        if not a << p_bits < x * d < b << p_bits:
            return None
        if abs(step) >> p_bits // 2 == 0:
            if p_bits == bits:
                return x
            grown = min(2 * p_bits, bits)
            x, p_bits = x << grown - p_bits, grown
    return None


def cauchy_bound(p) -> Fraction:
    """All real roots of the integer polynomial p lie in [-B, B]."""
    d = poly_degree(p)
    if p[d] == 0:
        raise SpectralError("zero polynomial")
    return 1 + Fraction(max((abs(c) for c in p[:d]), default=0), abs(p[d]))


# refinements of fewer bisection steps bisect: a Newton estimate costs about
# as much as 16 to 24 steps on the benchmark's block roots
_NEWTON_STEPS = 24


class CertifiedRoot:
    """A single real root of an integer polynomial.

    Carried either exactly (``exact`` is a Fraction) or as an open isolating
    interval ``(lo, hi)`` containing exactly one root of the polynomial, with
    nonzero polynomial values at the endpoints.  ``refine`` narrows it with
    exact arithmetic, so enclosures can be tightened indefinitely.
    """

    def __init__(self, poly, lo=None, hi=None, exact=None, *, chain=None, count=None):
        self.poly = _integer_poly(poly)
        if not any(self.poly):
            raise SpectralError("zero polynomial")
        # a caller that built the Sturm chain hands it in, with the root
        # count of (lo, hi] when it has one; the chain's first member is the
        # square-free part (a positive integer multiple)
        if chain is None:
            chain = sturm_chain(self.poly)
        self._chain = chain
        self.sqfree = self._chain[0]
        if exact is not None:
            self.exact = Fraction(exact)
            if _sign_at(self.sqfree, self.exact):
                raise SpectralError("claimed exact root is not a root")
            self.lo = self.hi = self.exact
            return
        self.exact = None
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        if not (_sign_at(self.sqfree, self.lo) and _sign_at(self.sqfree, self.hi)):
            raise SpectralError("isolating interval endpoints must not be roots")
        if count is None:
            count = count_roots(self.poly, self.lo, self.hi, self._chain)
        if count != 1:
            raise SpectralError("interval does not isolate exactly one root")

    # -- refinement ---------------------------------------------------------

    def refine(self, max_width: Fraction):
        """Narrow to width ``max_width`` as k bisection steps would.  The
        open interval holds one simple root of the square-free part and no
        root at its ends, so the root lies left of a non-root point exactly
        when the sign there differs from the sign at ``lo``.  The ends are
        integers a < b over one denominator d, all doubled at each step, so
        the midpoint is ``a + b`` over d: a Fraction bisection's midpoints,
        with no gcd.  After k steps the interval is the depth-k cell
        ``a 2**k + j (b - a)`` to the next over ``d 2**k`` that holds the
        root.  For long refinements a Newton estimate names j, and a cell
        whose left end has the sign at ``lo`` and whose right end the other
        sign is taken at once: the root lies strictly inside it, so no
        midpoint on the way was the root and bisection ends there too."""
        if self.exact is not None:
            return self
        sqfree = self.sqfree
        d = self.lo.denominator * self.hi.denominator
        a = self.lo.numerator * self.hi.denominator
        b = self.hi.numerator * self.lo.denominator
        sign_lo = _sign_at(sqfree, self.lo)
        quotient = -(-(b - a) * max_width.denominator // (max_width.numerator * d))
        k = (quotient - 1).bit_length()     # least k with 2**k >= quotient
        if k >= _NEWTON_STEPS:
            # 2**-bits is below 2**-32 of a cell's width (b - a) / (d 2**k)
            bits = (d // (b - a)).bit_length() + k + 32
            x = _newton(sqfree, a, b, d, bits)
            if x is not None:
                j = (x * d - (a << bits) << k) // (b - a << bits)
                lo, dk = (a << k) + j * (b - a), d << k
                if (_sign_at(sqfree, lo, dk) == sign_lo
                        and _sign_at(sqfree, lo + b - a, dk) == -sign_lo):
                    self.lo, self.hi = Fraction(lo, dk), Fraction(lo + b - a, dk)
                    return self
        for _ in range(k):
            mid = a + b
            a, b, d = 2 * a, 2 * b, 2 * d
            sign = _sign_at(sqfree, mid, d)
            if sign == 0:
                self.exact = self.lo = self.hi = Fraction(mid, d)
                return self
            if sign != sign_lo:
                b = mid
            else:
                a = mid
        self.lo, self.hi = Fraction(a, d), Fraction(b, d)
        return self

    def refine_bits(self, bits: int):
        scale = max(abs(self.lo), abs(self.hi), Fraction(1))
        return self.refine(scale / (Fraction(2) ** bits))

    def refine_to_exclude(self, x: Fraction):
        """Shrink until x is outside the open interval (or recognised as the
        root itself, making the root exact)."""
        if self.exact is not None:
            return self
        if self.lo < x < self.hi and not _sign_at(self.sqfree, x):
            self.exact = x
            self.lo = self.hi = x
            return self
        while self.lo < x < self.hi:
            self.refine((self.hi - self.lo) / 4)
        return self

    # -- conversions ---------------------------------------------------------

    def interval(self, bits=None):
        """Outward interval enclosure at roughly the requested relative width."""
        if bits is None:
            bits = ia.precision_bits() - 16
        self.refine_bits(bits)
        return ia.from_endpoints(self.lo, self.hi)

    def __float__(self):
        """The midpoint of a copy refined to 60 bits: converting (and so
        ``repr``) leaves this root's enclosure as it was."""
        r = copy(self).refine_bits(60)
        return float((r.lo + r.hi) / 2)

    # -- exact comparisons ------------------------------------------------------

    def compare(self, other) -> int:
        """Exact three-way comparison (-1, 0, +1) with a Fraction, int, or
        another certified root.  Equality of two irrational roots is decided
        through the common factor of their square-free parts, built once."""
        if isinstance(other, (int, Fraction)):
            x = Fraction(other)
            if self.exact is not None:
                return (self.exact > x) - (self.exact < x)
            self.refine_to_exclude(x)
            if self.exact is not None:
                return (self.exact > x) - (self.exact < x)
            return 1 if self.lo >= x else -1
        if self.exact is not None:
            return -other.compare(self.exact) if other.exact is None else (
                (self.exact > other.exact) - (self.exact < other.exact))
        if other.exact is not None:
            return -((CertifiedRoot.compare(other, self)))
        g = _common_factor(self.sqfree, other.sqfree)
        chain = sturm_chain(g) if poly_degree(g) > 0 else None
        for _ in range(4096):
            if self.hi <= other.lo:
                return -1
            if other.hi <= self.lo:
                return 1
            if chain is not None:
                lo = max(self.lo, other.lo)
                hi = min(self.hi, other.hi)
                if count_roots(g, lo, hi, chain) >= 1:
                    # a common root inside both open isolating intervals is
                    # the root of each of them (endpoints are never roots)
                    return 0
            w = min(self.hi - self.lo, other.hi - other.lo) / 4
            self.refine(w)
            other.refine(w)
        raise SpectralError("root comparison did not converge")

    def __repr__(self):
        if self.exact is not None:
            return f"CertifiedRoot({self.exact})"
        return f"CertifiedRoot(~{float(self):.12g})"


def largest_real_root(p) -> CertifiedRoot:
    """The maximal real root of p, isolated and certified.

    Integer roots are recognised and returned exactly, however wide the
    isolating interval: a copy refined to width 1/2 holds at most one
    integer, which is tested.  Any other root keeps its isolating interval.
    """
    chain = sturm_chain(p)
    sqfree = chain[0]
    bound = cauchy_bound(p)
    # the bracket (a, b] / d, its ends integers over one denominator as in
    # ``refine``, each end with its sign of sqfree and its sign variations:
    # a step evaluates the chain once, at the midpoint
    d = bound.denominator
    a, b = -bound.numerator - d, bound.numerator + d
    (sign_a, var_a), (_, var_b) = _sign_variations(chain, a, d), _sign_variations(chain, b, d)
    if var_a == var_b:
        raise SpectralError("polynomial has no real root")
    for _ in range(20000):
        # invariant: the largest root lies in (a, b] / d, b is not a root
        if var_a - var_b == 1 and sign_a:
            root = CertifiedRoot(p, Fraction(a, d), Fraction(b, d), chain=chain, count=1)
            n = Fraction(ceil(copy(root).refine(Fraction(1, 2)).lo))
            if _sign_at(sqfree, n):
                return root
            return CertifiedRoot(p, exact=n, chain=chain)
        mid = a + b
        a, b, d = 2 * a, 2 * b, 2 * d
        sign, var = _sign_variations(chain, mid, d)
        if var > var_b:
            a, sign_a, var_a = mid, sign, var
        elif sign:
            b, var_b = mid, var
        else:
            return CertifiedRoot(p, exact=Fraction(mid, d), chain=chain)
    raise SpectralError("root isolation did not converge")


# -- integer matrices ------------------------------------------------------------


def char_poly_and_adjugate(a):
    """Characteristic polynomial of an integer matrix plus the adjugate of
    ``x I - A`` as polynomial matrix coefficients.

    Returns ``(p, B)`` with ``p`` the monic characteristic polynomial
    (low degree first, integer coefficients) and ``B`` a list of integer
    matrices such that ``adj(x I - A) = sum_k x**k B[k]``.  The recursion
    ``M_k = A M_(k-1) + c_k I`` with ``c_k = -tr(A M_(k-1)) / k`` runs in
    integers: row i of ``A M`` is the sum of the rows of M scaled by the
    non-zero entries of row i of A.
    """
    n = len(a)
    if n == 0:
        return (1,), []
    rows = [[(t, x) for t, x in enumerate(row) if x] for row in a]
    coeffs = [1]  # by decreasing degree
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    mats = [m]
    for k in range(1, n + 1):
        am = []
        for entries in rows:
            acc = None
            for t, x in entries:
                row = m[t] if x == 1 else [x * v for v in m[t]]
                acc = row if acc is None else list(map(add, acc, row))
            am.append([0] * n if acc is None else list(acc))   # a copy, not a row of m
        c, r = divmod(-sum(am[i][i] for i in range(n)), k)
        if r:
            raise SpectralError("Faddeev-LeVerrier produced a non-integer coefficient")
        coeffs.append(c)
        if k < n:
            for i in range(n):
                am[i][i] += c
            m = am
            mats.append(m)
    poly = tuple(reversed(coeffs))
    # bmats[k] holds the x**k coefficient of adj(xI - A)
    bmats = [tuple(tuple(row) for row in mm) for mm in reversed(mats)]
    return poly, bmats


def adjugate_column(bmats, x, j):
    """Column j of adj(x I - A) at an interval point x, each entry a Horner
    sum over the coefficient matrices of ``char_poly_and_adjugate``."""
    return tuple(ia.horner([bm[i][j] for bm in bmats], x) for i in range(len(bmats[0])))
