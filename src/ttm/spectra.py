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

``spectrum`` computes all of this in one pass: the block form once (the
blocks, their periods, cyclic classes and reach from one depth-first
search; a block's reach is one bitmask of blocks), each diagonal block's
characteristic polynomial and adjugate coefficients once, its radius from
that polynomial, and each distinguished eigenvector from the same
coefficients.  ``distinguished_eigenvectors`` and
``pf_eigenpair`` (the distinguished pair of full support) read that pass.

All eigen-data is certified: eigenvalues are isolated roots of exact integer
characteristic polynomials, eigenvectors are interval evaluations of exact
adjugate formulas, and every residual check is an interval containment.

Digraph convention: the matrix entry ``M[r][c]`` counts occurrences of ``r``
in the image of ``c``, so the digraph has an arc ``c -> r`` whenever
``M[r][c]`` is positive, and "reachable from block B" means "appears in some
iterated image of B".
"""

from __future__ import annotations

from math import gcd, lcm

from . import intervals as ia
from .errors import SpectralError
from .polys import (
    CertifiedRoot, adjugate_column, char_poly_and_adjugate, largest_real_root,
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

    That holds iff the matrix is non-empty and its block form has a single
    block, of kind primitive: non-zero, irreducible (one strongly connected
    component) and aperiodic (one cyclic class); see Seneta, *Non-negative
    Matrices and Markov Chains*.
    """
    return bool(m) and block_form(m).kinds == ("primitive",)


def strongly_connected_components(m):
    """The block form's search: one iterative Tarjan search of the digraph
    of the matrix (arc c -> r iff m[r][c] > 0), roots in index order and
    arcs in ascending order.  Returns ``(blocks, classes, reach)``, one entry
    per strongly connected component, in the order Tarjan emits them, which
    puts every component after all those it reaches: the permuted matrix is
    upper block triangular.

    When a block is emitted, one pass over its arcs v -> w reads off the
    rest.  ``reach[b]`` is a bitmask of blocks: bit b ORed with the reach of
    every other block an arc enters (emitted earlier), at most n bits and
    not a set of blocks.  The gcd g of ``depth[v] + 1 - depth[w]`` over the
    arcs inside the block, depths in the search tree, is its period: tree
    arcs add 0, and each closed walk's length is a sum of these terms.
    The block's cyclic classes are its indices by depth mod g; every arc
    steps one class forward.  g is 0, and there are no classes, exactly for
    a 1x1 zero block.
    """
    n = len(m)
    succ = [[r for r in range(n) if m[r][c]] for c in range(n)]
    index, low, depth = {}, {}, {}
    block_of = [None] * n    # None while on the stack
    stack, blocks, classes, reach = [], [], [], []

    def enter(v, d):
        index[v] = low[v] = len(index)
        depth[v] = d
        stack.append(v)
        return v, iter(succ[v])

    for root in range(n):
        if root in index:
            continue
        work = [enter(root, 0)]
        while work:
            v, arcs = work[-1]
            for w in arcs:
                if w not in index:
                    work.append(enter(w, depth[v] + 1))
                    break
                if block_of[w] is None:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] < index[v]:
                    continue
                b = len(blocks)
                comp = [stack.pop()]
                while comp[-1] != v:
                    comp.append(stack.pop())
                for u in comp:
                    block_of[u] = b
                g, below = 0, 1 << b
                for u in comp:
                    for w in succ[u]:
                        if block_of[w] == b:
                            g = gcd(g, depth[u] + 1 - depth[w])
                        else:
                            below |= reach[block_of[w]]
                blocks.append(tuple(sorted(comp)))
                cyclic = [[] for _ in range(g)]
                for u in blocks[b] if g else ():
                    cyclic[depth[u] % g].append(u)
                classes.append(cyclic)
                reach.append(below)
    return blocks, classes, reach


class BlockForm:
    """Strongly-connected block structure of a non-negative integer matrix.
    Two block forms are equal when all their fields are."""

    def __init__(self, matrix: tuple, blocks: tuple, kinds: tuple, periods: tuple,
                 power_used: int, reach: tuple):
        self.matrix = matrix
        self.blocks = blocks          # index classes, upper-triangular order
        self.kinds = kinds            # per block: "primitive" | "zero" | "imprimitive"
        self.periods = periods        # per block
        self.power_used = power_used  # least power normalising the block structure
        self.reach = reach            # reach[i] has bit j set iff block j is reachable from i

    def __eq__(self, other):
        if not isinstance(other, BlockForm):
            return NotImplemented
        return ((self.matrix, self.blocks, self.kinds, self.periods, self.power_used,
                 self.reach) == (other.matrix, other.blocks, other.kinds, other.periods,
                                 other.power_used, other.reach))

    def reachable(self, b):
        """The blocks reachable from block b, b included, ascending."""
        return [j for j in range(self.reach[b].bit_length()) if self.reach[b] >> j & 1]


def block_form(m) -> BlockForm:
    """SCC block decomposition plus the least power after which every
    diagonal block is primitive or zero and every off-diagonal block is zero
    or positive.

    The search runs over multiples k of the lcm of the block periods (powers
    that are not multiples split an imprimitive block into periodic pieces),
    capped by the product of that lcm with a Wielandt-style positivity bound.
    For such k the blocks of M**k are the cyclic classes of the blocks of M
    (and the zero blocks), each primitive or zero (Perron-Frobenius), so only
    the blocks between classes are tested.
    """
    m = check_square_nonnegative(m)
    n = len(m)
    if n == 0:
        raise SpectralError("empty matrix")
    blocks, cyclic, reach = strongly_connected_components(m)
    kinds = ["zero" if not c else "primitive" if len(c) == 1 else "imprimitive" for c in cyclic]
    periods = [len(c) or 1 for c in cyclic]
    # a zero block is one class of its own; the test below reads the classes
    # as a set, so where each block's class numbering starts does not matter
    classes = [part for idx, c in zip(blocks, cyclic) for part in c or [idx]]
    base = lcm(*periods)
    cap = base * (2 * ((n - 1) ** 2 + 1) + n + 1)
    masks = [sum(1 << i for i in c) for c in classes]
    # the pattern of M**k is the k-th boolean power of the pattern of M,
    # and normalisation depends on the pattern alone
    step = pattern = _pattern(m)
    for _ in range(base - 1):
        step = _pattern_product(step, pattern)
    power, k = step, base
    while not all({power[r] & mask for r in rows} in ({0}, {mask})
                  for rows, own in zip(classes, masks) for mask in masks if mask != own):
        power, k = _pattern_product(power, step), k + base
        if k > cap:
            raise SpectralError("no normalising power found below the proved cap")
    return BlockForm(matrix=m, blocks=tuple(blocks), kinds=tuple(kinds),
                     periods=tuple(periods), power_used=k, reach=tuple(reach))


# -- eigenpairs -----------------------------------------------------------------


class Eigenpair:
    """A certified eigenvalue with a non-negative eigenvector.

    ``value`` is a :class:`CertifiedRoot`; ``vector`` a tuple of intervals
    with coordinate sum one (entries known to vanish are exact zeros);
    ``support`` the index set carrying positive entries; ``block`` the
    defining diagonal block (as an index tuple) when there is one.
    """

    def __init__(self, value: CertifiedRoot, vector: tuple, support: frozenset,
                 block: tuple = None):
        self.value = value
        self.vector = vector
        self.support = support
        self.block = block

    def interval(self):
        return self.value.interval()

    def check_residual(self, m) -> bool:
        return all(ia.contains_zero(r)
                   for r in ia.eigen_residual(m, self.vector, self.interval()))


class Spectrum:
    """The spectral data of one matrix: its block form, the certified
    spectral radius of each diagonal block, and the distinguished eigenpairs
    in block order."""

    def __init__(self, form: BlockForm, radii: tuple, distinguished: tuple):
        self.form = form
        self.radii = radii
        self.distinguished = distinguished


def spectrum(m) -> Spectrum:
    """One pass over the matrix: the block form once, each diagonal block's
    characteristic polynomial and radius once, and each distinguished
    block's eigenvector from that block's adjugate coefficients.

    Every distinguished pair is certified against ``M v = lambda v``; a
    failed attempt refines the eigenvalue to twice the bits and retries once
    (the enclosure cannot get narrower than the working precision, so more
    bits would repeat the second attempt).
    """
    bf = block_form(m)
    adjugates, radii = [], []
    for idx in bf.blocks:
        poly, bmats = char_poly_and_adjugate(submatrix(bf.matrix, idx))
        adjugates.append(bmats)
        radii.append(spectral_radius_root(poly))
    # all comparisons first: they refine the radii the vectors then read
    winners = [b for b, root in enumerate(radii)
               if root.compare(0) > 0 and all(root.compare(radii[j]) > 0
                                              for j in bf.reachable(b) if j != b)]
    pairs = []
    for b in winners:
        bits = None
        for _ in range(2):
            pair = _distinguished_vector(bf, b, radii[b], adjugates[b], bits)
            if pair is not None and pair.check_residual(bf.matrix):
                pairs.append(pair)
                break
            bits = (bits or ia.precision_bits()) * 2
            radii[b].refine_bits(bits)
        else:
            raise SpectralError("could not certify distinguished eigenvector")
    return Spectrum(form=bf, radii=tuple(radii), distinguished=tuple(pairs))


def spectral_radius_root(poly) -> CertifiedRoot:
    """Certified spectral radius of an irreducible or zero diagonal block,
    read off its characteristic polynomial: exactly 0 when that is ``x**n``
    (the zero block), else the largest real root."""
    if not any(poly[:-1]):
        return CertifiedRoot(poly, exact=0)
    return largest_real_root(poly)


def distinguished_eigenvectors(m):
    """All distinguished eigenpairs of the matrix: one per distinguished
    diagonal block, non-negative, coordinate sum 1, supported exactly on the
    indices reachable from the block, certified against ``M v = lambda v``.
    """
    return list(spectrum(m).distinguished)


def pf_eigenpair(block) -> Eigenpair:
    """Perron-Frobenius eigenpair of a non-negative integer matrix: the
    distinguished eigenpair of :func:`spectrum` whose support is every index.
    It exists for every irreducible non-zero matrix (and for reducible ones
    such as ``((2, 0), (1, 1))``); SpectralError when there is none.
    """
    pairs = spectrum(block).distinguished
    full = [p for p in pairs if len(p.support) == len(block)]
    if not full:
        raise SpectralError("no non-negative eigenvector with full support")
    return full[0]


def _normalise(vec):
    total = ia.isum(vec)
    if not (total > 0):
        raise SpectralError("cannot normalise a vector without provably positive sum")
    return tuple(v / total for v in vec)


def _positive_column(bmats, lam):
    """The first column of ``adj(lam I - A)`` with every entry positive,
    evaluated one column at a time; None when there is none."""
    for j in range(len(bmats[0])):
        col = adjugate_column(bmats, lam, j)
        if all(c > 0 for c in col):
            return col
    return None


def _distinguished_vector(bf: BlockForm, b: int, root: CertifiedRoot, bmats, bits):
    """Assemble the unique non-negative eigenvector attached to block b,
    whose ``adj(x I - A)`` coefficients are ``bmats``; None when the
    eigenvalue enclosure is too wide to certify it.

    On the block itself it is the PF eigenvector; on the strictly-reachable
    indices it is the unique solution of ``(lambda I - R) w = C u`` where R
    is the reachable submatrix and C the coupling into the block.  Since
    every reachable block has strictly smaller spectral radius, that system
    is solved exactly through ``adj(lambda I - R) / charpoly_R(lambda)``.
    """
    m = bf.matrix
    block = bf.blocks[b]
    reachable = bf.reachable(b)
    rest = sorted(i for j in reachable if j != b for i in bf.blocks[j])
    lam = root.interval(bits)
    u = _positive_column(bmats, lam)
    if u is None:
        return None
    vec = [ia.zero()] * len(m)
    for pos, i in enumerate(block):
        vec[i] = u[pos]
    if rest:
        poly_r, bmats_r = char_poly_and_adjugate(submatrix(m, rest))
        denom = ia.horner(poly_r, lam)
        if not (denom > 0):
            return None  # needs refinement
        inflow = [[m[i][j] for j in block] for i in rest]
        rhs = ia.matvec(inflow, u)
        # a column whose inflow row is all zero meets the exact zero in rhs,
        # and isum skips its products: only the others are evaluated
        cols = [(adjugate_column(bmats_r, lam, t), r)
                for t, (row, r) in enumerate(zip(inflow, rhs)) if any(row)]
        for pos, i in enumerate(rest):
            vec[i] = ia.isum(col[pos] * r for col, r in cols) / denom
    support = frozenset(i for j in reachable for i in bf.blocks[j])
    if not all(vec[i] > 0 for i in support):
        return None  # needs refinement
    return Eigenpair(value=root, vector=_normalise(vec), support=support, block=block)

