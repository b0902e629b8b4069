from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import ttm.intervals as ia
from ttm import spectra
from ttm.cli import main
from ttm.errors import SpectralError
from ttm.polys import CertifiedRoot, char_poly_and_adjugate, largest_real_root
from ttm.spectra import (
    BlockForm, Eigenpair, _pattern, _pattern_product, block_form, check_square_nonnegative,
    distinguished_eigenvectors, is_primitive, pf_eigenpair, spectral_radius_root,
    strongly_connected_components, submatrix,
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


def arcs_point_to_earlier_blocks(bf):
    """The blocks partition the indices, and every arc c -> r (an entry
    m[r][c] > 0) stays in its block or points to an earlier one: the matrix
    permuted to block order is upper block triangular."""
    n = len(bf.matrix)
    block_of = {i: b for b, idx in enumerate(bf.blocks) for i in idx}
    return (sorted(i for idx in bf.blocks for i in idx) == list(range(n))
            and all(block_of[r] <= block_of[c]
                    for r in range(n) for c in range(n) if bf.matrix[r][c]))


def test_block_form_fibonacci():
    bf = block_form(FIB)
    assert bf.blocks == ((0, 1),)
    assert bf.kinds == ("primitive",)
    assert bf.power_used == 1
    assert arcs_point_to_earlier_blocks(bf)


def test_block_form_three_letter():
    bf = block_form(THREE)
    assert bf.blocks == ((0, 1), (2,))
    assert bf.kinds == ("primitive", "primitive")
    assert bf.power_used == 1
    # the c-block dominates the ab-block
    assert 0 in bf.reach[1]
    assert 1 not in bf.reach[0]
    # the block order is upper block triangular
    assert arcs_point_to_earlier_blocks(bf)


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


def block_period(m, indices) -> int:
    """Reference: period (gcd of cycle lengths) of an irreducible diagonal
    block, from BFS levels."""
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


def reference_is_primitive(m) -> bool:
    """Reference: non-zero, one strongly connected component, period 1."""
    m = check_square_nonnegative(m)
    if not any(any(row) for row in m) or len(strongly_connected_components(m)[0]) != 1:
        return False
    return block_period(m, range(len(m))) == 1


def _power_is_normalised(m) -> bool:
    """Reference: diagonal blocks primitive or 1x1 zero; off-diagonal blocks
    of the SCC decomposition entirely zero or entirely positive."""
    blocks, _, _ = strongly_connected_components(m)
    for idx in blocks:
        sub = submatrix(m, idx)
        if len(idx) == 1 and sub[0][0] == 0:
            continue
        if not reference_is_primitive(sub):
            return False
    for bi in blocks:
        for bj in blocks:
            if bi is bj:
                continue
            vals = [m[r][c] for r in bi for c in bj]
            if any(vals) and not all(vals):
                return False
    return True


def reference_reach(m, blocks):
    """Reference: the blocks reachable from each block, from a sweep of the
    whole matrix for the arcs between blocks (blocks in topological order,
    arcs pointing to earlier entries)."""
    n = len(m)
    block_of = {i: b for b, idx in enumerate(blocks) for i in idx}
    adj = [set() for _ in blocks]
    for c in range(n):
        for r in range(n):
            if m[r][c] and block_of[c] != block_of[r]:
                adj[block_of[c]].add(block_of[r])
    reach = []
    for b in range(len(blocks)):
        acc = {b}
        for t in adj[b]:
            acc |= reach[t]
        reach.append(acc)
    return tuple(frozenset(r) for r in reach)


def reference_block_form(m) -> BlockForm:
    """``block_form`` as it was before it read the cyclic classes: each
    block's kind from a primitivity test, and at every candidate power the
    SCCs of the power's pattern with every diagonal block tested again."""
    m = check_square_nonnegative(m)
    n = len(m)
    if n == 0:
        raise SpectralError("empty matrix")
    blocks, _, _ = strongly_connected_components(m)
    kinds = []
    periods = []
    for idx in blocks:
        sub = submatrix(m, idx)
        if len(idx) == 1 and sub[0][0] == 0:
            kinds.append("zero")
            periods.append(1)
        elif reference_is_primitive(sub):
            kinds.append("primitive")
            periods.append(1)
        else:
            kinds.append("imprimitive")
            periods.append(block_period(m, idx))
    base = lcm(*periods) if periods else 1
    cap = base * (2 * ((n - 1) ** 2 + 1) + n + 1)
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
                     reach=reference_reach(m, blocks))


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


@st.composite
def coupled_cycles(draw):
    """A direct sum of 1- to 5-cycles with a few random couplings between
    them and at most one self-loop: most draws keep a block of period above
    one, so ``power_used > 1``."""
    lengths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    n = sum(lengths)
    m = [[0] * n for _ in range(n)]
    cycle_of = [k for k, size in enumerate(lengths) for _ in range(size)]
    start = 0
    for size in lengths:
        for c in range(size):
            m[start + (c + 1) % size][start + c] = 1
        start += size
    index = st.integers(0, n - 1)
    for r, c in draw(st.lists(st.tuples(index, index), max_size=3)):
        if cycle_of[r] != cycle_of[c]:
            m[r][c] += 1
    for v in draw(st.lists(index, max_size=1)):
        m[v][v] += 1
    return tuple(tuple(row) for row in m)


def assert_block_form_equals_reference(m):
    """Blocks, kinds, periods and reach from one depth-first search, and a
    power search on the blocks between cyclic classes, give the earlier
    search's block form, or the same error."""
    try:
        ref = reference_block_form(m)
    except SpectralError as exc:
        ref = str(exc)
    try:
        got = block_form(m)
    except SpectralError as exc:
        got = str(exc)
    assert got == ref


@settings(max_examples=300)
@given(st.one_of(sparse_matrices(), chorded_cycles()))
def test_block_form_equals_reference(m):
    assert_block_form_equals_reference(m)


@settings(max_examples=1000)
@given(coupled_cycles())
def test_block_form_equals_reference_on_coupled_cycles(m):
    assert_block_form_equals_reference(m)


@settings(max_examples=300)
@given(st.one_of(sparse_matrices(), chorded_cycles(), coupled_cycles()))
def test_cyclic_classes_of_every_block(m):
    """The classes partition the block, there are as many as the gcd of its
    closed-walk lengths up to 2n, and every arc steps one class forward.
    A 1x1 zero block has no classes."""
    blocks, cyclic, _ = strongly_connected_components(m)
    for idx, classes in zip(blocks, cyclic):
        if len(idx) == 1 and m[idx[0]][idx[0]] == 0:
            assert classes == []
            continue
        assert all(classes) and sorted(i for c in classes for i in c) == list(idx)
        n = len(idx)
        pattern = power = _pattern(submatrix(m, idx))
        g = 0
        for t in range(1, 2 * n + 1):
            if any(power[i] >> i & 1 for i in range(n)):
                g = gcd(g, t)
            power = _pattern_product(power, pattern)
        assert len(classes) == g
        class_of = {i: c for c, members in enumerate(classes) for i in members}
        for r in idx:
            for c in idx:
                if m[r][c]:
                    assert class_of[r] == (class_of[c] + 1) % g


def test_search_of_a_long_chain():
    """The search keeps its own stack: a chain 0 -> 1 -> ... longer than
    the interpreter's recursion limit gives its 1x1 zero blocks, each
    emitted after the ones it reaches, so in reverse index order."""
    n = 1500
    m = tuple(tuple(int(r == c + 1) for c in range(n)) for r in range(n))
    blocks, classes, reach = strongly_connected_components(m)
    assert blocks == [(i,) for i in reversed(range(n))]
    assert classes == [[]] * n
    assert reach[-1] == frozenset(range(n))


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
        assert ia.matvec(((0, 0, 0, 0),), vec)[0] == ia.zero()


def test_block_form_reassembles():
    import random
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = tuple(tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(n))
        bf = block_form(m)
        assert bf.matrix == m
        assert arcs_point_to_earlier_blocks(bf)


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


def reference_pf_eigenpair(block):
    """``pf_eigenpair`` as it was before it read the spectral pass: its own
    root, every entry of the adjugate and its own retry loop."""
    n = len(block)
    poly, bmats = char_poly_and_adjugate(block)
    root = largest_real_root(poly)
    if root.compare(0) <= 0:
        raise SpectralError("block spectral radius is not positive")
    bits = None
    for attempt in range(6):
        lam = root.interval(bits)
        adj = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = ia.zero()
                for bm in reversed(bmats):
                    acc = acc * lam + ia.exact(bm[i][j])
                row.append(acc)
            adj.append(row)
        for j in range(n):
            col = tuple(adj[i][j] for i in range(n))
            if all(c > 0 for c in col):
                total = ia.isum(col)
                vec = tuple(v / total if v != ia.zero() else ia.zero()
                            for v in col)
                pair = Eigenpair(value=root, vector=vec, support=frozenset(range(n)),
                                 block=tuple(range(n)))
                if pair.check_residual(block):
                    return pair
                break
        bits = (bits or ia.precision_bits()) * 2
        root.refine_bits(bits)
    raise SpectralError("could not certify a positive eigenvector")


@pytest.mark.parametrize("m", [FIB, ((1, 1), (1, 1)), ((3,),), ((0, 1), (1, 0)),
                               ((2, 1, 0), (1, 1, 1), (0, 1, 2)), ((2, 0), (1, 1))])
def test_pf_eigenpair_equals_reference(m):
    """The full-support distinguished pair is the old routine's pair, bit for
    bit: irreducible blocks, and a reducible matrix with a positive vector."""
    pair, ref = pf_eigenpair(m), reference_pf_eigenpair(m)
    assert pair.interval() == ref.interval()
    assert list(pair.vector) == list(ref.vector)
    assert pair.support == frozenset(range(len(m)))


@pytest.mark.parametrize("m", [((0,),), ((2, 0), (0, 2))])
def test_pf_eigenpair_refuses_without_positive_vector(m):
    with pytest.raises(SpectralError):
        reference_pf_eigenpair(m)
    with pytest.raises(SpectralError):
        pf_eigenpair(m)


def reference_distinguished_eigenvectors(m):
    """``distinguished_eigenvectors`` before the single pass: radii from
    their own polynomials, every adjugate entry evaluated, and the block's
    polynomial taken again for its vector on every attempt."""
    bf = block_form(m)
    radii = []
    for idx in bf.blocks:
        sub = submatrix(m, idx)
        poly = char_poly_and_adjugate(sub)[0]
        radii.append(CertifiedRoot(poly, exact=0) if not any(map(any, sub))
                     else largest_real_root(poly))
    winners = [b for b in range(len(bf.blocks)) if radii[b].compare(0) > 0
               and all(radii[b].compare(radii[j]) > 0 for j in bf.reach[b] if j != b)]

    def adjugate(a, lam):
        bmats = char_poly_and_adjugate(a)[1]
        return [[_horner([bm[i][j] for bm in bmats], lam) for j in range(len(a))]
                for i in range(len(a))]

    def vector(b, lam):
        block = bf.blocks[b]
        rest = sorted(i for j in bf.reach[b] if j != b for i in bf.blocks[j])
        adj_b = adjugate(submatrix(m, block), lam)
        cols = [tuple(row[j] for row in adj_b) for j in range(len(block))]
        u = next((c for c in cols if all(x > 0 for x in c)), None)
        if u is None:
            return None
        entries = [ia.zero()] * len(m)
        for pos, i in enumerate(block):
            entries[i] = u[pos]
        if rest:
            denom = _horner(char_poly_and_adjugate(submatrix(m, rest))[0], lam)
            if not (denom > 0):
                return None
            adj_r = adjugate(submatrix(m, rest), lam)
            rhs = ia.matvec([[m[i][j] for j in block] for i in rest], u)
            for pos, i in enumerate(rest):
                acc = ia.zero()
                for t in range(len(rest)):
                    acc = acc + adj_r[pos][t] * rhs[t]
                entries[i] = acc / denom
        support = frozenset(i for j in bf.reach[b] for i in bf.blocks[j])
        if not all(entries[i] > 0 for i in support):
            return None
        total = ia.isum(entries)
        return tuple(v / total if v != ia.zero() else ia.zero()
                     for v in entries), support

    out = []
    for b in winners:
        bits = None
        for attempt in range(6):
            got = vector(b, radii[b].interval(bits))
            if got is not None and Eigenpair(radii[b], *got).check_residual(m):
                out.append(Eigenpair(radii[b], *got))
                break
            bits = (bits or ia.precision_bits()) * 2
            radii[b].refine_bits(bits)
    return out


def _horner(coeffs, x):
    acc = ia.zero()
    for c in reversed(coeffs):
        acc = acc * x + ia.exact(c)
    return acc


def seeded_reducible_matrices():
    """Sparse matrices, and matrices whose first two indices form a block of
    irrational radius that reaches the n - 2 others, so the rest solve sums
    at least three non-exact terms per coordinate."""
    import random
    rng = random.Random(11)
    sparse = [tuple(tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(n)) for _ in range(n))
              for n in range(2, 8) for _ in range(6)]
    headed = []
    for n in range(5, 9):
        m = [[rng.choice((0, 0, 1)) if r >= 2 and c >= 2 else 0 for c in range(n)]
             for r in range(n)]
        m[0][0], m[0][1], m[1][0], m[1][1] = 3, 1, 2, 5
        for r in range(2, n):
            m[r][0], m[r][1] = rng.randint(1, 2), rng.randint(0, 2)
        headed.append(tuple(map(tuple, m)))
    return sparse + headed


@pytest.mark.parametrize("m", [FIB, THREE, THREE_CAB, ((2, 0), (1, 1))]
                         + seeded_reducible_matrices())
def test_distinguished_eigenvectors_equal_reference(m):
    """Every distinguished pair of the single pass is the pair of the
    earlier assembly, bit for bit, reachable-rest solves included."""
    got, ref = distinguished_eigenvectors(m), reference_distinguished_eigenvectors(m)
    assert [p.support for p in got] == [p.support for p in ref]
    assert [p.interval() for p in got] == [p.interval() for p in ref]
    assert [list(p.vector) for p in got] == [list(p.vector) for p in ref]


def test_spectrum_job_computes_each_block_once(tmp_path, monkeypatch, capsys):
    """One ``spectrum`` job on red (blocks {a, b} and {c}) takes each block's
    characteristic polynomial and radius once; the only other polynomial is
    the one of {a, b} reached from {c}, for the c-block's vector."""
    calls = {"char_poly": [], "largest_root": 0}

    def char_poly(a):
        calls["char_poly"].append(tuple(tuple(row) for row in a))
        return char_poly_and_adjugate(a)

    def largest_root(p):
        calls["largest_root"] += 1
        return largest_real_root(p)

    monkeypatch.setattr(spectra, "char_poly_and_adjugate", char_poly)
    monkeypatch.setattr(spectra, "largest_real_root", largest_root)
    path = tmp_path / "red.tt"
    path.write_text("graph R3 { vertices: * ; edge a: * -> * ; edge b: * -> * ; "
                    "edge c: * -> * ; }\n"
                    "map red: R3 -> R3 { a -> a b ; b -> b a ; c -> c c c a b ; }\n")
    assert main(["spectrum", str(path), "--map", "red"]) == 0
    assert '"spectral_radius": "3.00000000000"' in capsys.readouterr().out
    ab, c = ((1, 1), (1, 1)), ((3,),)
    assert calls == {"char_poly": [ab, c, ab], "largest_root": 2}


def test_spectrum_retries_once_before_giving_up(monkeypatch):
    """An eigenvector that cannot be certified is tried at the working
    precision and once at twice the bits: a root enclosure narrower than the
    working precision would only repeat the second attempt."""
    calls = []

    def never(bf, b, root, bmats, bits):
        calls.append(bits)
        return None

    monkeypatch.setattr(spectra, "_distinguished_vector", never)
    with pytest.raises(SpectralError):
        spectra.spectrum(FIB)
    assert calls == [None, 2 * ia.precision_bits()]


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
            root = spectral_radius_root(char_poly_and_adjugate(sub)[0])
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
    """The non-negative eigenvectors for an eigenvalue are generated by the
    distinguished eigenpairs carrying it: one each for 3 and 2, none for 5."""
    pairs = distinguished_eigenvectors(THREE)
    gens = [p for p in pairs if p.value.compare(3) == 0]
    assert len(gens) == 1
    assert max(abs(x - 1 / 3) for x in mids(gens[0].vector)) < 1e-12
    gens2 = [p for p in pairs if p.value.compare(Fraction(19, 10)) > 0
             and p.value.compare(Fraction(21, 10)) < 0]
    assert len(gens2) == 1
    assert mids(gens2[0].vector)[2] == 0.0
    assert not [p for p in pairs if p.value.compare(5) == 0]


def test_nonneg_eigenvectors_for_algebraic_eigenvalue():
    phi_root = largest_real_root((-1, -1, 1))
    gens = [p for p in distinguished_eigenvectors(FIB) if p.value.compare(phi_root) == 0]
    assert len(gens) == 1
    assert abs(ia.midpoint(gens[0].interval()) - PHI) < 1e-12


def test_distinct_supports_and_normalisation():
    pairs = distinguished_eigenvectors(THREE)
    supports = {p.support for p in pairs}
    assert len(supports) == len(pairs)
    for p in pairs:
        assert ia.contains_zero(ia.isum(p.vector) - ia.one())
