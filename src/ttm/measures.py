"""Kolmogorov functions: shift- and flip-invariant measures on path spaces.

The measures of an expanding train track map f correspond to the
non-negative eigenvectors of its transition matrix with eigenvalue above one:
``eigenvector_measure`` builds one, ``eigen_measures`` all distinguished ones
on one tower.  Substitution subshifts are the case of the rose map.

A Kolmogorov function assigns a non-negative value to every non-trivial
reduced path, symmetric under path reversal and satisfying the Kirchhoff
rules: the value of a path equals the sum of the values of its one-edge
extensions on either side.  These are exactly the cylinder values of a finite
shift- and flip-invariant measure on the space of biinfinite reduced paths.

The evaluator built from a weight tower computes the value of a path at the
first tower level n whose long edges are at least that long: each occurrence
of the path (or its reverse) inside a level-n word contributes the edge
weight, and each occurrence straddling one unsubdivided vertex contributes
the crossed turn weight, all scaled by lambda**-n.  The result does not
depend on the level choice: a property test checks, on every reduced path
up to length 5 of the generated maps' measures, that levels n and n + 1
give overlapping enclosures and the same exact zeros.

Paths are not scanned one at a time.  The first path of length L at level n
triggers one sweep over the level-n words: a window of length L slides over
the word of each positive edge of non-zero weight and its reverse, counting
that edge for the factor read, and every junction ``(e1, e2, cut)`` whose
turn has a non-zero weight (``WeightTower.visited``; every other turn weighs
the exact zero) appends that turn to the factor ``w1[-cut:] + w2[:L-cut]``.
That gives a *recipe* per factor that occurs (edge counts, turns in the
order met), and the sweep is the table of their values.  A path and its
reversal share the value of the recipe of the one smaller in tuple order,
summed once, when the sweep is built, in the order a per-path scan of it
would sum it (edge terms in positive-edge order, then the turn weights as
met, then the level scale): a value depends only on the level and on
{p, p-bar}, not on call history.

No walk filters for reducedness.  The level words are iterate images of an
expanding train track map, so they, their images and the oracle's counted
factors are reduced; a visited turn is legal, so every window and its image
are reduced too.  ``support(L)`` is the sweep's key set, the paths of length
L whose value is not the exact zero: an edge of zero coordinate adds nothing,
nor do the turns only its orbits visit.  Every other reduced path of length L
is missing from the sweep and has the exact zero, the one shared zero
interval, which ``ttm.intervals`` keeps through ``-`` and ``abs`` and
``isum`` skips unread.  ``eval`` checks its path and hands it to
``_walked``, which the walks and the CLI tables call on the paths they
made.  Each verify suite evaluates the set of paths whose residual can be
non-zero, in any order (its verdict and violation are maxima):

* flip and Kirchhoff: each q in S(L + 1) scattered onto the left residual
  of q[1:] and the right one of q[:-1], S(L) with its own, flip reading one
  path of each pair {p, p-bar} (a table: its entries and their reversals);
* the eigen equation: S(L) and the paths that it covers, up to the bound.
  One pass pushes S(L) forward, scattering each value mu(d) onto the
  factors of f(d) from its first image block to its last; the sums give
  f_* mu on every path with a cover in the support, and ``image_measure``
  reads the same pass;
* the oracle: S(L) and the paths with a non-zero estimate (its vector is
  non-negative, so its tail bounds are too), one path of each pair.

The walks use no property of the measure or table they check, nor the
support's closure under factors, which makes the first walk S(L) itself.

An independent frequency oracle estimates the same values from occurrence
counts in iterate images alone, with a certified geometric tail bound.  Per
path length it counts the factors of each junction string (and of the words
it starts from) once, weighted through the powers of its own block matrix,
but it never touches the tower, the weights or the sweep: the two routes
share nothing past the transition matrix, making their agreement a
meaningful cross-validation.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, reduce
from itertools import chain
from operator import sub

from . import intervals as ia
from . import spectra
from .errors import IncompleteTableError, PathError, PreconditionError
from .graphs import (
    Graph, inverse, is_reduced, make_turn, reverse_path, subpaths_up_to,
)
from .maps import GraphMap
from .towers import (
    StationaryTower, WeightTower, eigen_data, repetition_bound, weight_tower_from_vector,
)

_ZERO = ia.zero()


class KolmogorovFunction:
    """Measure evaluator attached to a weight tower (and its tower)."""

    def __init__(self, weights: WeightTower):
        self.tower = weights.tower
        self.weights = weights
        self.graph = self.tower.graph
        # (level, length) -> sweep; length -> the sweep at its level
        self._sweeps = cache(self._sweep)
        self._length_sweep = cache(
            lambda length: self._sweeps(self.tower.level_for_length(length), length))
        self._images = {}    # map -> (bound, pushforward up to it)

    def eval(self, path):
        """Certified value of the measure on the cylinder of a reduced path."""
        return self._walked(_checked(self.graph, path, "a Kolmogorov function"))

    def eval_at_level(self, path, n: int):
        """Sum the weights of all legal level-n preimages of the path.

        Needs the level-n long edges at least as long as the path, so that a
        preimage crosses at most one unsubdivided vertex.
        """
        path = _checked(self.graph, path, "a Kolmogorov function")
        if self.tower.minlength(n) < len(path):
            raise PreconditionError("level too low for this path length")
        return self._sweeps(n, len(path)).get(path, ia.zero())

    def support(self, length: int):
        """The sweep's keys: the paths of this length whose value is not
        the exact zero; all else is the exact zero."""
        return self._length_sweep(length).keys()

    def _walked(self, path):
        """``eval`` without the path checks, for a reduced path that a walker
        made: its value in the sweep at ``level_for_length``."""
        return self._length_sweep(len(path)).get(path, _ZERO)

    def _sweep(self, n: int, length: int):
        """Value of every length-``length`` factor of the level-n words.

        A factor's recipe is the pair (edge counts, crossed turns): the
        occurrences of the factor or its reverse inside each positive edge's
        word, and the turn of every junction ``(e1, e2, cut)`` whose
        straddling window reads the factor, in the order the per-path scan
        would meet them.  Edges of weight zero are skipped and a junction is
        kept exactly when its turn is in ``weights.visited``, so the keys are
        the factors of non-zero value.  A factor and its reversal get one
        value, summed from the recipe of the one smaller in tuple order as
        the scan sums it: edge terms in positive-edge order (int counts as
        operands), then the turn weights as met, then times the level scale.
        Equal recipes share that sum.
        """
        tower, graph, weights = self.tower, self.graph, self.weights
        counts = {}
        for e in graph.positive_edges:
            if weights.edge_weight[e] == 0:
                continue
            # windows of the reversed word are the reversed windows
            for word in (tower.word(e, n), tower.word(inverse(e), n)):
                for i in range(len(word) - length + 1):
                    per_edge = counts.setdefault(word[i:i + length], {})
                    per_edge[e] = per_edge.get(e, 0) + 1
        crossed, visited = {}, weights.visited
        for e1 in graph.oriented_edges:
            w1 = tower.word(e1, n)
            for e2 in graph.directions_at(graph.terminal(e1)):
                turn = make_turn(inverse(e1), e2)
                if turn in visited:
                    w2 = tower.word(e2, n)
                    for cut in range(1, length):
                        crossed.setdefault(w1[-cut:] + w2[:length - cut], []).append(turn)
        edge_weight, turn_weight = weights.edge_weight, weights.turn_weight
        scale, values, by_recipe = weights.level_scale(n), {}, {}
        for p in counts.keys() | crossed.keys():
            if p not in values:
                rev = reverse_path(p)
                q = min(p, rev)
                recipe = (tuple(counts.get(q, {}).items()), tuple(crossed.get(q, ())))
                value = by_recipe.get(recipe)
                if value is None:
                    value = by_recipe[recipe] = sum(chain(
                        (count * edge_weight[e] for e, count in recipe[0]),
                        (turn_weight[turn] for turn in recipe[1]))) * scale
                values[p] = values[rev] = value
        return values

    def _image_values(self, f: GraphMap, bound: int):
        """The pushforward under f up to at least the bound, built once per
        map after checking f, and again only for a longer bound: each path p
        that the support covers, mapped to the sum of its covers' values.

        A cover of p is a domain path d with p a factor of f(d) from its
        first image block to its last, once per occurrence; it has at most
        |p| edges (edge images are non-empty), so the pass at a bound sums
        each shorter path as the pass at its length would.  Covers off the
        support are the exact zero, which ``ia.isum`` skips, so one pass
        over the support scatters each value onto the paths it covers.
        Each p sums in the order of the key ``(d[0], offset, *d[1:])``, in
        which a depth-first search from its first edge, over edge ids in
        increasing order, meets its covers (no cover at one offset is a
        prefix of another).  Values are read once a pass, through ``eval``:
        the validated route, which keeps ``verify``'s evaluations visible to
        a tracer of the public evaluator.
        """
        built, pushed = self._images.get(f, (0, None))
        if bound > built:
            f.require_tame("image measure")
            if self.graph._endpoints != f.domain._endpoints:
                raise PreconditionError("the measure lives on a different graph "
                                        "than the map's domain")
            covers = {}
            for length in range(1, bound + 1):
                for d in self.support(length):
                    value, image = self.eval(d), f.map_path(d)
                    last = len(image) - len(f.image(d[-1]))    # where the last block starts
                    for i in range(len(f.image(d[0]))):
                        for j in range(max(i, last) + 1, min(i + bound, len(image)) + 1):
                            covers.setdefault(image[i:j], {})[(d[0], i, *d[1:])] = value
            pushed = {p: ia.isum(map(values.get, sorted(values)))
                      for p, values in covers.items()}
            self._images[f] = (bound, pushed)
        return pushed

    def support_table(self, max_length: int) -> "MeasureTable":
        """Table over the support up to the bound, the paths with a
        non-zero value; every other path has measure zero and stays
        implicit, which keeps long tables linear in the support size."""
        entries = {p: self._walked(p) for length in range(1, max_length + 1)
                   for p in self.support(length)}
        return MeasureTable(self.graph, entries, max_length)


def _checked(graph: Graph, path, who: str):
    """The path as a tuple; PathError unless it is a non-trivial reduced
    edge path of the graph."""
    path = tuple(path)
    if not path or not graph.is_path(path) or not is_reduced(path):
        raise PathError(f"{who} takes non-trivial reduced edge paths of its graph")
    return path


# -- eigenvectors to measures ------------------------------------------------------


def eigenvector_measure(tower: StationaryTower, vector, lam) -> KolmogorovFunction:
    """The measure of an eigenvector of the tower map with eigenvalue ``lam``
    (root, Fraction or interval); PreconditionError unless the eigenpair,
    lam > 1 and the switch conditions are certified."""
    return KolmogorovFunction(weight_tower_from_vector(tower, vector, lam))


def measure_pairs(f: GraphMap):
    """``(above, skipped)``: f's distinguished eigenpairs above one (each with
    a measure) and at or below one, in ``distinguished_eigenvectors`` order."""
    return split_at_one(spectra.distinguished_eigenvectors(f.transition_matrix()))


def split_at_one(pairs):
    """``(above, skipped)``: the eigenpairs with eigenvalue above one and at
    or below one, each in the given order."""
    above, skipped = [], []
    for pair in pairs:
        (above if pair.value.compare(1) > 0 else skipped).append(pair)
    return above, skipped


def eigen_measures(f: GraphMap):
    """``(measures, skipped)``: a ``(pair, measure)`` per pair above one of
    ``measure_pairs``, on one tower of f, and the pairs at or below one."""
    above, skipped = measure_pairs(f)
    tower = StationaryTower(f) if above else None
    return ([(p, eigenvector_measure(tower, p.vector, p.value)) for p in above],
            skipped)


# -- tables ------------------------------------------------------------------------


class MeasureTable:
    """Reduced-path -> value map, complete up to a length bound.

    Absent reduced paths within the bound are zeros (external listings, like
    hand-made integer tables, customarily omit them).  Values are Fractions
    for exact external data or intervals for computed data; the interval
    operators take both, and two Fractions stay exact, so an exact table
    has exact residuals.
    """

    def __init__(self, graph: Graph, entries: dict, max_length: int):
        self.graph = graph
        self.entries = {_checked(graph, path, "a measure table"): value
                        for path, value in entries.items()}
        self.max_length = max_length

    def value(self, path):
        """The recorded value of a path or its reversal; zero for an unlisted
        path within the bound, IncompleteTableError beyond it."""
        value = self.recorded(path)
        if value is not None:
            return value
        if len(path) > self.max_length:
            raise IncompleteTableError(
                f"table complete only up to length {self.max_length}")
        return Fraction(0)

    def recorded(self, path):
        """The stored value of a path or its reversal; None when unlisted."""
        path = tuple(path)
        if path in self.entries:
            return self.entries[path]
        return self.entries.get(reverse_path(path))

    def monotonicity_violations(self):
        """Entries exceeding the recorded value of one of their subpaths.

        Kirchhoff plus non-negativity force the value of a path to be at most
        the value of every subpath, so a violation flags inconsistent data.
        Only explicitly recorded entries are compared (external listings
        customarily omit entries, so absence is missing data, not a zero).
        """
        out = []
        for path, value in self.entries.items():
            for sub in subpaths_up_to(path, len(path)):
                if sub == path:
                    continue
                sval = self.recorded(sub)
                if sval is not None and (sval < value) is True:
                    out.append((path, sub))
        return out


# -- verification --------------------------------------------------------------------


class VerificationReport:
    """Check outcomes with certified comparison semantics.  ``record`` is the
    one place a check's violations meet the tolerance: a check fails when its
    violation is provably beyond it and is *inconclusive* when its violation
    interval straddles it (the caller should raise the working precision and
    re-run).  ``checks`` and ``max_violation`` are floats for display only."""

    def __init__(self):
        self.checks = {}
        self.max_violation = 0.0
        self.failures = []
        self.inconclusive = []
        self.flags = []

    @property
    def passed(self) -> bool:
        return not self.failures and not self.inconclusive

    def record(self, name: str, violations, tol: float):
        """Record the check ``name`` from its violation values (intervals, or
        Fractions, enclosed first), streamed.  The largest lower and upper
        endpoints, from zero, are kept and compared with ``tol`` exactly; a
        NaN, negative or infinite ``tol`` raises PreconditionError."""
        if not 0 <= tol < float("inf"):
            raise PreconditionError(
                f"check {name!r} got a NaN, negative or infinite tolerance")
        lo, hi = ia.max_endpoints(map(ia.coerce, violations))
        shown = float(hi)
        self.checks[name] = shown
        self.max_violation = max(self.max_violation, shown)
        bound = ia.from_float(tol)
        if lo > bound:
            self.failures.append((name, shown))
        elif hi > bound:
            self.inconclusive.append((name, shown))


def verify_kolmogorov(source, max_length: int, tol: float = 0.0) -> VerificationReport:
    """Check flip symmetry and both Kirchhoff rules on the reduced paths up
    to the bound; for tables, also audit subpath monotonicity.

    ``source`` is a KolmogorovFunction or a MeasureTable, with values one
    edge beyond the bound.  One walk reads the valued paths up to that
    length, the support or a table's entries and their reversals: each q is
    a term of the left residual of q[1:] and of the right one of q[:-1], in
    ``extensions_left`` and ``extensions_right`` order (by the extra edge's
    id), and keeps its own residuals within the bound.  The extensions left
    out are exact zeros (or unrecorded, reading ``Fraction(0)``), whose
    subtraction changes no bit; every other path has exactly zero residuals.
    """
    _require_bound(max_length)
    graph, table = source.graph, isinstance(source, MeasureTable)
    get = source.value if table else source._walked
    if table and max_length + 1 > source.max_length:
        raise IncompleteTableError(
            "Kirchhoff checks need values one edge beyond the bound")
    valued = ({p for q in source.entries if len(q) <= max_length + 1
               for p in (q, reverse_path(q))} if table else
              [q for length in range(1, max_length + 2) for q in source.support(length)])
    # path -> [(extra edge, value)]: the valued one-edge extensions on each side
    left = {q: [] for q in valued if len(q) <= max_length}
    right = {q: [] for q in left}
    for q in valued:
        if len(q) > 1:
            value = get(q)
            left.setdefault(q[1:], []).append((inverse(q[0]), value))
            right.setdefault(q[:-1], []).append((q[-1], value))

    def kirchhoff(item):    # extra edges differ: sorted() compares no values
        return reduce(sub, [value for _, value in sorted(item[1])], get(item[0]))

    # each valued {p, p-bar} within the bound is among the keys; flip reads one of each
    pairs = [(p, q) for p in left for q in (reverse_path(p),) if p < q]
    residuals = (
        ("flip", lambda pair: get(pair[0]) - get(pair[1]), pairs),
        ("kirchhoff-left", kirchhoff, left.items()),
        ("kirchhoff-right", kirchhoff, right.items()),
    )
    report = VerificationReport()
    for name, residual, walk in residuals:
        report.record(name, map(abs, map(residual, walk)), tol)
    if table:
        for path, subpath in source.monotonicity_violations():
            report.flags.append(
                ("monotonicity", graph.path_label(path), graph.path_label(subpath)))
    return report


def _require_bound(max_length: int):
    if max_length < 1:
        raise PreconditionError(f"length bound must be at least 1 (got {max_length})")


# -- image measures --------------------------------------------------------------------


def image_measure(f: GraphMap, kf: KolmogorovFunction, path):
    """Value of the pushforward measure on a codomain path: the sum of the
    measure over its covers, the domain paths d whose image holds the path
    in an occurrence from f(d)'s first image block to its last, one term
    per occurrence.  The first call past the longest length so far builds
    the pushforward of every support path up to its length
    (``KolmogorovFunction._image_values``), as the first ``eval`` at a
    length builds that length's sweep; a shorter path reads the same pass.
    """
    path = _checked(f.codomain, path, "the image measure")
    return kf._image_values(f, len(path)).get(path, ia.zero())


def verify_eigen_measure(f: GraphMap, kf: KolmogorovFunction, lam,
                         max_length: int, tol: float) -> VerificationReport:
    """Check that the pushforward equals lambda times the measure on the
    reduced paths up to the bound.

    The paths checked are the support up to the bound and the paths up to
    the bound that it covers, read off one pass that pushes the support
    forward (``KolmogorovFunction._image_values``; an earlier
    ``image_measure`` call may have built it for a longer bound).  Every
    other reduced path has the exact zero as its value and as the value of
    each of its covers, so its residual is exactly [0, 0].
    """
    _require_bound(max_length)
    if not f.is_self_map():
        raise PreconditionError("the eigen equation needs a self-map")
    lam, zero = ia.coerce(lam), ia.zero()
    pushed = kf._image_values(f, max_length)
    walk = {p for p in pushed if len(p) <= max_length}
    walk.update(d for length in range(1, max_length + 1) for d in kf.support(length))
    report = VerificationReport()
    report.record("eigen-equation", (
        abs(pushed.get(p, zero) - lam * kf._walked(p)) for p in walk), tol)
    return report


# -- weight recovery -------------------------------------------------------------------


def recover_weights(table: MeasureTable, tower: StationaryTower, m: int, rho: int):
    """Reconstruct the level-m short-edge weights from measured cylinder
    values: the weight of a short edge is the sum of the table values over
    the *distinct* images of the radius-rho windows centred on it that lie
    in the used language (``legal_windows``; identical images from different
    windows are counted once).  Every measure is zero off that language, so
    the sum loses nothing.

    ``rho`` must be at least the level's repetition bound, otherwise windows
    centred on different edges can read the same word and the sums
    double-count; PreconditionError below the bound, IncompleteTableError
    when the table stops short of the window length ``2 rho + 1``.
    """
    if not repetition_bound(tower, m, rho).found:
        raise PreconditionError(
            f"radius {rho} is below the repetition bound of level {m}")
    if 2 * rho + 1 > table.max_length:
        raise IncompleteTableError(
            f"windows of length {2 * rho + 1} exceed the table bound "
            f"{table.max_length}")
    out = {}
    for center in tower.short_edges(m):
        images = {img for _, img in tower.legal_windows(center, rho, m)}
        out[center] = ia.isum(table.value(img) for img in sorted(images))
    return out


# -- the independent frequency oracle ----------------------------------------------------


class OracleEstimate:
    def __init__(self, value, tail_bound, iterations: int):
        self.value = value                # interval estimate
        self.tail_bound = tail_bound      # interval upper bound on the truncation error
        self.iterations = iterations

    def excess(self, reference):
        """|reference - value| beyond the tail bound."""
        return abs(reference - self.value) - self.tail_bound

    def within(self, reference, tol: float = 0.0):
        """Is the excess, floored at zero, at most ``tol``?  Tri-state: None
        when inconclusive (the verdict of ``VerificationReport.record``)."""
        report = VerificationReport()
        report.record("oracle", [self.excess(reference)], tol)
        return None if report.inconclusive else report.passed


class FrequencyOracle:
    """Occurrence-count estimates of cylinder measures at iterate t.

    The estimate of a path counts occurrences of the path and its reverse in
    the t-th iterate images of all positive edges, weights them by the
    eigenvector, and scales by lambda**-t.  The counts are a linear
    recursion: once the words are long enough, the image of a word is its
    blocks' words with a junction string (a block's suffix and the next
    one's prefix) between each two, so the counts of a level are B times
    those of the level before plus the junction strings' counts, B the
    block matrix (row e: the blocks of f(e)).  So each junction string, and
    each word the recursion starts from, has its factors counted once,
    times its entry in the sum of powers of B that Horner steps accumulate
    one level at a time: large t stays cheap and no power of B is kept.
    This runs once per path length and counts all its factors.  The counts
    are kept per positive edge and keyed by the pair {p, p-bar}, as the
    smaller of the two in tuple order, so a path reads one key; a block
    e-bar counts as e, its image being the reversed image of e.  The estimate
    increases in t to the true value; the tail bound is the geometric-series
    bound on the missing straddling mass, derived from the eigenvector
    identity alone.

    Only the map's edge images and the vector enter: no tower and no weights,
    so agreement with the tower evaluator is an independent cross-check.
    The vector and lam follow ``eigen_data``'s rule, as for ``WeightTower``
    (PreconditionError otherwise): the recursion behind the tail bound needs
    ``M v = lambda v``, and the bound is non-negative.
    """

    def __init__(self, f: GraphMap, vector, lam, t: int):
        if t < 0:
            raise PreconditionError(f"oracle iterates start at 0 (got {t})")
        self.f = f
        self.graph = f.domain
        self.vector, self.lam = eigen_data(f, vector, lam)
        self.t = t
        self.scale = self.lam ** (-t)
        self.vec_total = ia.isum(self.vector)
        self.max_img = max(len(f.image(e)) for e in self.graph.positive_edges)
        # length -> oriented edge -> factor counts
        self._length_counts = cache(self._factor_counts)
        self._tail = cache(self._tail_bound)    # length -> tail bound
        # count tuple -> estimate value
        self._value = cache(lambda counts: ia.matvec([counts], self.vector)[0] * self.scale)

    def counts(self, path) -> tuple:
        """Occurrences of the path and its reverse in the t-th iterate image
        of each positive edge."""
        path = _checked(self.graph, path, "the frequency oracle")
        return self._counts(min(path, reverse_path(path)))

    def _counts(self, key) -> tuple:
        """``counts`` of the pair {key, key-bar}, key the smaller."""
        return tuple(c[key] for c in self._length_counts(len(key)))

    def support(self, length: int) -> set:
        """The paths of this length with a non-zero estimate (a count for
        an edge of non-zero coordinate), closed under reversal."""
        keys = self._keys(length)
        return keys | {reverse_path(p) for p in keys}

    def _keys(self, length: int) -> set:
        """The support's smaller path of each pair {p, p-bar}."""
        return {q for c, x in zip(self._length_counts(length), self.vector) if x != 0
                for q in c}

    def estimate(self, path) -> OracleEstimate:
        path = _checked(self.graph, path, "the frequency oracle")
        return self._estimate(min(path, reverse_path(path)))

    def _estimate(self, key) -> OracleEstimate:
        """The estimate of the pair {key, key-bar}, key the smaller; its value
        is summed once per distinct count tuple."""
        return OracleEstimate(value=self._value(self._counts(key)),
                              tail_bound=self._tail(len(key)), iterations=self.t)

    def _factor_counts(self, length: int):
        """The factor counts of each positive edge's t-th iterate image, in
        edge order; a block x counts as ``counts[x >> 1]`` (the image of
        e-bar is the reversed image of e).  Row e of C holds how often each
        string counts for e, one Horner step a level: C <- B C, plus one
        per junction of the step."""
        f, edges = self.f, self.graph.positive_edges
        margin = length - 1
        # explicit words until every block is long enough for boundary recursion
        words = {e: (e,) for e in self.graph.oriented_edges}
        level = 0
        while level < self.t and min(map(len, words.values())) < max(1, margin):
            words = {e: f.map_path(w) for e, w in words.items()}
            level += 1
        blocks = [[x >> 1 for x in f.image(e)] for e in edges]    # the rows of B
        junctions = [(k, x, y) for k, e in enumerate(edges)
                     for x, y in zip(f.image(e), f.image(e)[1:])]
        firsts = [f.image(e)[0] for e in words]
        lasts = [f.image(e)[-1] for e in words]
        # heads[x], tails[x]: the edge whose word at the first level has the
        # prefix, the suffix, of x's word at this level
        heads = tails = list(words)
        strings = [words[e] for e in edges]
        rows = [[int(i == k) for i in range(len(edges))] for k in range(len(edges))]
        index = {}    # (tail edge, head edge) of a junction -> its column
        while level < self.t:
            rows = [list(map(sum, zip(*[rows[j] for j in block]))) for block in blocks]
            for k, x, y in junctions:
                key = (tails[x], heads[y])
                if key not in index:
                    index[key] = len(strings)
                    w, v = words[key[0]], words[key[1]]
                    strings.append(w[len(w) - margin:] + v[:margin])
                    for row in rows:
                        row.append(0)
                rows[k][index[key]] += 1
            heads = list(map(heads.__getitem__, firsts))
            tails = list(map(tails.__getitem__, lasts))
            level += 1
        counts = [Counter() for _ in edges]
        for i, string in enumerate(strings):
            factors = _factors(string, length)
            for c, row in zip(counts, rows):
                if row[i]:
                    for q, m in factors.items():
                        c[q] += row[i] * m
        return counts

    def _tail_bound(self, length: int):
        # new straddling occurrences at step s+1: per junction at most
        # 2(len-1) of them (path and reverse), junction count
        # max |f(e)| - 1 (none on single edges: the tail is exact 0)
        per_step = 2 * (length - 1) * max(0, self.max_img - 1) * self.vec_total
        return per_step * ia.geometric_tail(1 / self.lam, self.t + 1)


def _factors(word, length: int) -> Counter:
    """A reduced word's factors, each counted as the smaller of it and its reversal."""
    windows = (word[i:i + length] for i in range(len(word) - length + 1))
    return Counter(min(q, reverse_path(q)) for q in windows)


def verify_oracle(kf: KolmogorovFunction, oracle: FrequencyOracle, max_length: int,
                  tol: float):
    """Compare the measure with the oracle's estimates on the reduced paths
    up to the bound: the check ``oracle`` records ``|eval - estimate|``
    beyond the tail bound.  Returns the report and the largest
    ``|eval - estimate|`` (a float, for display).

    The paths compared are the two supports, the paths with a non-zero
    value or estimate; the oracle must count factors of the measure's map
    (PreconditionError otherwise).  On every other reduced path both values
    are exactly zero, so the excess is minus the tail bound, which is
    non-negative (the oracle's vector is): no check reads it.
    """
    _require_bound(max_length)
    if oracle.f != kf.tower.f:
        raise PreconditionError("the oracle is built on another map than the measure")
    # a path and its reversal share their value and their estimate: the walk
    # reads the smaller of each pair
    keys = set()
    for length in range(1, max_length + 1):
        keys.update(p for p in kf.support(length) if p < reverse_path(p))
        keys |= oracle._keys(length)
    worst, excess = 0.0, []
    for p in keys:
        est = oracle._estimate(p)
        gap = abs(kf._walked(p) - est.value)
        worst = max(worst, ia.sup_abs(gap))
        excess.append(gap - est.tail_bound)
    report = VerificationReport()
    report.record("oracle", excess, tol)
    return report, worst


def frequency_oracle(f: GraphMap, vector, lam, path, t: int) -> OracleEstimate:
    """Occurrence-count estimate of the measure of one path; see
    ``FrequencyOracle``."""
    return FrequencyOracle(f, vector, lam, t).estimate(path)
