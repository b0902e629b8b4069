"""Block Perron-Frobenius analysis of non-negative integer matrices.

Any non-negative square matrix becomes upper block triangular after reordering
indices by the strongly connected components of its digraph; the diagonal
blocks are irreducible (or 1x1 zero).  Each non-zero irreducible block has a
real spectral radius with a positive eigenvector.  A diagonal block is
*distinguished* when its spectral radius is non-zero and strictly dominates
the spectral radii of all blocks reachable from it; each distinguished block
carries a unique non-negative eigenvector of the full matrix, normalised to
coordinate sum 1 and supported exactly on the indices reachable from the
block.  The cone of non-negative eigenvectors for a given eigenvalue is
spanned by the distinguished eigenvectors with that eigenvalue.

All eigen-data is certified: eigenvalues are isolated roots of exact integer
characteristic polynomials, eigenvectors are interval evaluations of exact
adjugate formulas, and every residual check is an interval containment.

Digraph convention: the matrix entry ``M[r][c]`` counts occurrences of ``r``
in the image of ``c``, so the digraph has an arc ``c -> r`` whenever
``M[r][c]`` is positive, and "reachable from block B" means "appears in some
iterated image of B".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import intervals as ia
from .errors import SpectralError
from .polys import (
    CertifiedRoot, adjugate_at, char_poly_and_adjugate, char_poly_at,
    largest_real_root,
)


def check_square_nonnegative(m):
    n = len(m)
    for row in m:
        if len(row) != n:
            raise SpectralError("matrix is not square")
        for x in row:
            if int(x) != x or x < 0:
                raise SpectralError("matrix must have non-negative integer entries")
    return tuple(tuple(int(x) for x in row) for row in m)


def submatrix(m, indices):
    return tuple(tuple(m[i][j] for j in indices) for i in indices)


def _pattern(m):
    """Positivity pattern of a square matrix, one bitmask per row."""
    return [sum(1 << j for j, x in enumerate(row) if x) for row in m]


def _pattern_product(a, b):
    """Pattern of a product of two non-negative matrices from their patterns."""
    out = []
    for row in a:
        acc = 0
        for t, bt in enumerate(b):
            if row >> t & 1:
                acc |= bt
        out.append(acc)
    return out


def is_primitive(m) -> bool:
    """Some power of the (non-negative square) matrix is entrywise positive.

    Tested on the positivity pattern up to the Wielandt exponent
    (n-1)**2 + 1, which is sharp.
    """
    m = check_square_nonnegative(m)
    n = len(m)
    if n == 0:
        return False
    full = (1 << n) - 1
    pattern = _pattern(m)
    power = pattern
    limit = (n - 1) ** 2 + 1
    for _ in range(limit):
        if all(row == full for row in power):
            return True
        power = _pattern_product(power, pattern)
    return all(row == full for row in power)


def strongly_connected_components(m):
    """SCCs of the digraph of the matrix (arc c -> r iff m[r][c] > 0),
    in topological order with arcs pointing to earlier components, so the
    permuted matrix is upper block triangular.  Iterative Tarjan."""
    n = len(m)
    succ = [[r for r in range(n) if m[r][c]] for c in range(n)]
    index = {}
    low = {}
    on_stack = [False] * n
    stack = []
    components = []
    counter = [0]

    for root in range(n):
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            for i in range(pi, len(succ[v])):
                w = succ[v][i]
                if w not in index:
                    work.append((v, i + 1))
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if recurse:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(tuple(sorted(comp)))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    # Tarjan emits components in reverse topological order of the succ
    # digraph; with arcs c -> r this is already "reachable blocks first".
    return components


def block_period(m, indices) -> int:
    """Period (gcd of cycle lengths) of an irreducible diagonal block."""
    sub = submatrix(m, indices)
    n = len(sub)
    if all(x == 0 for row in sub for x in row):
        return 1
    succ = [[r for r in range(n) if sub[r][c]] for c in range(n)]
    level = {0: 0}
    order = [0]
    g = 0
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for w in succ[v]:
            if w in level:
                g = gcd(g, level[v] + 1 - level[w])
            else:
                level[w] = level[v] + 1
                order.append(w)
    return abs(g) or 1


@dataclass(frozen=True)
class BlockForm:
    """Strongly-connected block structure of a non-negative integer matrix."""

    matrix: tuple
    blocks: tuple            # index classes, upper-triangular order
    kinds: tuple             # per block: "primitive" | "zero" | "imprimitive"
    periods: tuple           # per block
    power_used: int          # least power normalising the block structure
    reach: tuple             # reach[i] = frozenset of block indices reachable from block i

    @property
    def permutation(self):
        """Concatenated block indices: new position -> original index."""
        return tuple(i for b in self.blocks for i in b)

    def dominates(self, i: int, j: int) -> bool:
        """Block order: does block i reach block j (i != j counts; a block
        trivially reaches itself)?"""
        return j in self.reach[i]

    def permuted_matrix(self):
        p = self.permutation
        return tuple(tuple(self.matrix[p[r]][p[c]] for c in range(len(p)))
                     for r in range(len(p)))

    def block_of_index(self, i: int) -> int:
        for b, idx in enumerate(self.blocks):
            if i in idx:
                return b
        raise SpectralError("index out of range")


def _reachability(m, blocks):
    n = len(m)
    block_of = {}
    for b, idx in enumerate(blocks):
        for i in idx:
            block_of[i] = b
    nb = len(blocks)
    adj = [set() for _ in range(nb)]
    for c in range(n):
        for r in range(n):
            if m[r][c] and block_of[c] != block_of[r]:
                adj[block_of[c]].add(block_of[r])
    reach = [None] * nb
    # blocks are topologically ordered with arcs pointing to earlier entries
    for b in range(nb):
        acc = {b}
        for t in adj[b]:
            acc |= reach[t]
        reach[b] = acc
    return tuple(frozenset(r) for r in reach)


def _power_is_normalised(m) -> bool:
    """Diagonal blocks primitive or 1x1 zero; off-diagonal blocks of the SCC
    decomposition entirely zero or entirely positive."""
    blocks = strongly_connected_components(m)
    for idx in blocks:
        sub = submatrix(m, idx)
        if len(idx) == 1 and sub[0][0] == 0:
            continue
        if not is_primitive(sub):
            return False
    for bi in blocks:
        for bj in blocks:
            if bi is bj:
                continue
            vals = [m[r][c] for r in bi for c in bj]
            if any(vals) and not all(vals):
                return False
    return True


def block_form(m) -> BlockForm:
    """SCC block decomposition plus the least power after which every
    diagonal block is primitive or zero and every off-diagonal block is zero
    or positive.

    The search runs over multiples of the lcm of the block periods (powers
    that are not multiples split an imprimitive block into periodic pieces),
    capped by the product of that lcm with a Wielandt-style positivity bound.
    """
    m = check_square_nonnegative(m)
    n = len(m)
    if n == 0:
        raise SpectralError("empty matrix")
    blocks = strongly_connected_components(m)
    kinds = []
    periods = []
    for idx in blocks:
        sub = submatrix(m, idx)
        if len(idx) == 1 and sub[0][0] == 0:
            kinds.append("zero")
            periods.append(1)
        elif is_primitive(sub):
            kinds.append("primitive")
            periods.append(1)
        else:
            kinds.append("imprimitive")
            periods.append(block_period(m, idx))
    base = lcm(*periods) if periods else 1
    cap = base * (2 * ((n - 1) ** 2 + 1) + n + 1)
    # the pattern of M**k is the k-th boolean power of the pattern of M,
    # and normalisation depends on the pattern alone
    step = pattern = _pattern(m)
    for _ in range(base - 1):
        step = _pattern_product(step, pattern)
    power_used = None
    power = step
    k = base
    while k <= cap:
        if _power_is_normalised([[row >> j & 1 for j in range(n)] for row in power]):
            power_used = k
            break
        power = _pattern_product(power, step)
        k += base
    if power_used is None:
        raise SpectralError("no normalising power found below the proved cap")
    return BlockForm(matrix=m, blocks=tuple(blocks), kinds=tuple(kinds),
                     periods=tuple(periods), power_used=power_used,
                     reach=_reachability(m, blocks))


# -- eigenpairs -----------------------------------------------------------------


@dataclass
class Eigenpair:
    """A certified eigenvalue with a non-negative eigenvector.

    ``value`` is a :class:`CertifiedRoot`; ``vector`` a tuple of intervals
    with coordinate sum one (entries known to vanish are exact zeros);
    ``support`` the index set carrying positive entries; ``block`` the
    defining diagonal block (as an index tuple) when there is one.
    """

    value: CertifiedRoot
    vector: tuple
    support: frozenset
    block: tuple = None

    def interval(self):
        return self.value.interval()

    def residual(self, m):
        """Interval evaluation of M v - lambda v (contains 0 when valid)."""
        lam = self.interval()
        out = []
        n = len(self.vector)
        for i in range(n):
            acc = ia.zero()
            for j in range(n):
                if m[i][j]:
                    acc = acc + ia.exact(m[i][j]) * self.vector[j]
            out.append(acc - lam * self.vector[i])
        return tuple(out)

    def check_residual(self, m) -> bool:
        return all(ia.contains_zero(r) for r in self.residual(m))


def _vector_sum(vec):
    return ia.isum(vec)


def _normalise(vec):
    total = _vector_sum(vec)
    if not (total > 0):
        raise SpectralError("cannot normalise a vector without provably positive sum")
    return tuple(v / total if not ia.is_exact_zero(v) else ia.zero() for v in vec)


def pf_eigenpair(block, bits=None) -> Eigenpair:
    """Perron-Frobenius eigenpair of a primitive (more generally irreducible
    non-zero) integer block: the spectral radius as a certified root of the
    exact characteristic polynomial, with the positive eigenvector read off
    a column of ``adj(lambda I - A)``, normalised to coordinate sum 1.
    """
    a = check_square_nonnegative(block)
    n = len(a)
    if n == 0:
        raise SpectralError("empty block")
    poly, bmats = char_poly_and_adjugate(a)
    root = largest_real_root(poly)
    if root.compare(0) <= 0:
        raise SpectralError("block spectral radius is not positive")
    for attempt in range(6):
        lam = root.interval(bits)
        adj = adjugate_at(bmats, lam)
        col = _positive_column(adj, n)
        if col is not None:
            vec = _normalise(col)
            pair = Eigenpair(value=root, vector=vec,
                             support=frozenset(range(n)),
                             block=tuple(range(n)))
            if pair.check_residual(a):
                return pair
        bits = (bits or ia.precision_bits()) * 2
        root.refine_bits(bits)
    raise SpectralError("could not certify a positive eigenvector")


def _positive_column(adj, n):
    for j in range(n):
        col = tuple(adj[i][j] for i in range(n))
        if all(c > 0 for c in col):
            return col
    return None


def spectral_radius_root(block) -> CertifiedRoot:
    """Certified spectral radius of an irreducible or zero diagonal block."""
    a = check_square_nonnegative(block)
    if all(x == 0 for row in a for x in row):
        poly, _ = char_poly_and_adjugate(a)
        return CertifiedRoot(poly, exact=0)
    poly, _ = char_poly_and_adjugate(a)
    return largest_real_root(poly)


def distinguished_blocks(bf: BlockForm):
    """Indices of diagonal blocks whose spectral radius is non-zero and
    strictly dominates every other block they reach."""
    radii = [spectral_radius_root(submatrix(bf.matrix, idx)) for idx in bf.blocks]
    out = []
    for i in range(len(bf.blocks)):
        if radii[i].compare(0) <= 0:
            continue
        if all(radii[i].compare(radii[j]) > 0
               for j in bf.reach[i] if j != i):
            out.append(i)
    return out, radii


def _distinguished_vector(bf: BlockForm, b: int, root: CertifiedRoot, bits=None):
    """Assemble the unique non-negative eigenvector attached to block b.

    On the block itself it is the PF eigenvector; on the strictly-reachable
    indices it is the unique solution of ``(lambda I - R) w = C u`` where R
    is the reachable submatrix and C the coupling into the block.  Since
    every reachable block has strictly smaller spectral radius, that system
    is solved exactly through ``adj(lambda I - R) / charpoly_R(lambda)``.
    """
    m = bf.matrix
    n = len(m)
    block = list(bf.blocks[b])
    rest = sorted(i for j in bf.reach[b] if j != b for i in bf.blocks[j])
    sub = submatrix(m, block)
    poly_b, bmats_b = char_poly_and_adjugate(sub)
    lam = root.interval(bits)
    adj_b = adjugate_at(bmats_b, lam)
    u = _positive_column(adj_b, len(block))
    if u is None:
        return None
    entries = {i: ia.zero() for i in range(n)}
    for pos, i in enumerate(block):
        entries[i] = u[pos]
    if rest:
        r_mat = submatrix(m, rest)
        poly_r, bmats_r = char_poly_and_adjugate(r_mat)
        denom = char_poly_at(poly_r, lam)
        if not (denom > 0):
            return None  # needs refinement
        adj_r = adjugate_at(bmats_r, lam)
        rhs = []
        for i in rest:
            acc = ia.zero()
            for pos, j in enumerate(block):
                if m[i][j]:
                    acc = acc + ia.exact(m[i][j]) * u[pos]
            rhs.append(acc)
        for pos, i in enumerate(rest):
            acc = ia.zero()
            for t in range(len(rest)):
                acc = acc + adj_r[pos][t] * rhs[t]
            entries[i] = acc / denom
    vec = tuple(entries[i] for i in range(n))
    support = frozenset(
        i for i in range(n)
        if bf.block_of_index(i) in bf.reach[b])
    for i in range(n):
        if i in support:
            if not (vec[i] > 0):
                return None  # needs refinement
        else:
            assert ia.is_exact_zero(vec[i])
    return Eigenpair(value=root, vector=_normalise(vec), support=support,
                     block=tuple(block))


def distinguished_eigenvectors(m):
    """All distinguished eigenpairs of the matrix: one per distinguished
    diagonal block, non-negative, coordinate sum 1, supported exactly on the
    indices reachable from the block, certified against ``M v = lambda v``.
    """
    bf = block_form(m)
    winners, radii = distinguished_blocks(bf)
    out = []
    for b in winners:
        bits = None
        for attempt in range(6):
            pair = _distinguished_vector(bf, b, radii[b], bits)
            if pair is not None and pair.check_residual(bf.matrix):
                out.append(pair)
                break
            bits = (bits or ia.precision_bits()) * 2
            radii[b].refine_bits(bits)
        else:
            raise SpectralError("could not certify distinguished eigenvector")
    return out


def nonneg_eigenvectors_for(m, lam):
    """Generators of the cone of non-negative eigenvectors with the given
    eigenvalue: the distinguished eigenpairs whose eigenvalue matches.

    ``lam`` may be a Fraction/int, a CertifiedRoot, or an interval pair
    ``(lo, hi)`` of rationals isolating the intended eigenvalue.  Raises when
    no block spectral radius matches.
    """
    pairs = distinguished_eigenvectors(m)
    matching = [p for p in pairs if _matches_eigenvalue(p.value, lam)]
    if not matching:
        raise SpectralError("no distinguished block carries that eigenvalue")
    return matching


def _matches_eigenvalue(root: CertifiedRoot, lam) -> bool:
    if isinstance(lam, CertifiedRoot):
        return root.compare(lam) == 0
    if isinstance(lam, (int, Fraction)):
        return root.compare(Fraction(lam)) == 0
    lo, hi = lam
    lo, hi = Fraction(lo), Fraction(hi)
    root.refine_to_exclude(lo)
    root.refine_to_exclude(hi)
    if root.exact is not None:
        return lo <= root.exact <= hi
    return lo <= root.lo and root.hi <= hi
