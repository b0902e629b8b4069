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
depend on the level choice, which the test-suite spot-checks.

Paths are not scanned one at a time.  The first path of length L at level n
triggers one sweep over the level-n words: a window of length L slides over
the word of each positive edge of non-zero weight and its reverse, counting
that edge for the factor read, and every junction ``(e1, e2, cut)`` whose
turn has a non-zero weight (``WeightTower.visited``; every other turn weighs
the exact zero) appends that turn to the factor ``w1[-cut:] + w2[:L-cut]``.
The result is a *recipe* per factor that occurs (edge counts, turns in the
order met).  A path and its reversal share the recipe of the one smaller in
tuple order, replayed in the order a per-path scan of it would sum it (edge
terms in positive-edge order, then the turn weights as met, then the level
scale) and cached by level and recipe: a value depends only on the level and
on {p, p-bar}, not on call history.

No walk filters for reducedness.  The level words are iterate images of an
expanding train track map, so they, their images and the oracle's counted
factors are reduced; a visited turn is legal, so every window and its image
are reduced too.  ``support(L)`` is the sweep's key set, the paths of length
L whose value is not the exact zero: an edge of zero coordinate adds nothing,
nor do the turns only its orbits visit.  Every other reduced path of length L
has the empty recipe, the exact zero.  ``eval`` checks its path and hands it
to ``_walked``, which the walks and the CLI tables call on the paths they
made.  Each verify suite evaluates the set of paths whose residual can be
non-zero, in any order (its verdict and violation are maxima):

* flip and Kirchhoff: S(L), and q[1:] and q[:-1] for q in S(L + 1);
* the eigen equation: S(L) and the paths that its paths cover, up to the
  bound: the factors of f(d) from its first image block to its last (a
  path with a cover in the support is one);
* the oracle: S(L) and the paths with a non-zero estimate (its vector is
  non-negative, so its tail bounds are too).

The walks use no property of the measure they check, nor the support's
closure under factors, which makes the first two walks S(L) itself.
Measure tables, which are external data, are checked on every reduced path.

An independent frequency oracle estimates the same values from occurrence
counts in iterate images alone, with a certified geometric tail bound.  It
batches its own block recursion per path length but never touches the tower,
the weights or the sweep: the two routes share nothing past the transition
matrix, making their agreement a meaningful cross-validation.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import chain
from operator import mul

from . import intervals as ia
from . import spectra
from .errors import IncompleteTableError, PathError, PreconditionError
from .graphs import (
    Graph, inverse, is_reduced, make_turn, reverse_path, subpaths_up_to,
)
from .maps import GraphMap, search_covers
from .towers import (
    StationaryTower, WeightTower, eigen_data, repetition_bound, weight_tower_from_vector,
)


class KolmogorovFunction:
    """Measure evaluator attached to a weight tower (and its tower)."""

    def __init__(self, weights: WeightTower):
        self.tower = weights.tower
        self.weights = weights
        self.graph = self.tower.graph
        # (level, length) -> sweep; length -> (its level, sweep); level -> lambda**-n
        self._sweeps = cache(self._sweep)
        self._length_sweep = cache(self._level_sweep)
        self._scale = cache(weights.level_scale)
        self._values = {}    # (level, recipe) -> value

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
        return self._value(n, self._sweeps(n, len(path)).get(path, _NO_RECIPE))

    def support(self, length: int):
        """The sweep's keys: the paths of this length whose value is not
        the exact zero; all else is the exact zero."""
        return self._length_sweep(length)[1].keys()

    def _walked(self, path):
        """``eval`` without the path checks, for a reduced path that a walker
        made: the value of its recipe at ``level_for_length``."""
        level, sweep = self._length_sweep(len(path))
        return self._value(level, sweep.get(path, _NO_RECIPE))

    def _level_sweep(self, length: int):
        level = self.tower.level_for_length(length)
        return level, self._sweeps(level, length)

    def _sweep(self, n: int, length: int):
        """Recipe of every length-``length`` factor of the level-n words.

        A recipe is the pair (edge counts, crossed turns): the occurrences of
        the factor or its reverse inside each positive edge's word, and the
        turn of every junction ``(e1, e2, cut)`` whose straddling window reads
        the factor, in the order the per-path scan would meet them.  Edges
        of weight zero are skipped and a junction is kept exactly when its
        turn is in ``weights.visited``, so the keys are the factors of
        non-zero value.  A factor whose reversal is smaller in tuple order
        gets the reversal's recipe object.
        """
        tower, graph = self.tower, self.graph
        counts = {}
        for e in graph.positive_edges:
            if self.weights.edge_weight[e] == 0:
                continue
            # windows of the reversed word are the reversed windows
            for word in (tower.word(e, n), tower.word(inverse(e), n)):
                for i in range(len(word) - length + 1):
                    per_edge = counts.setdefault(word[i:i + length], {})
                    per_edge[e] = per_edge.get(e, 0) + 1
        crossed, visited = {}, self.weights.visited
        for e1 in graph.oriented_edges:
            w1 = tower.word(e1, n)
            for e2 in graph.directions_at(graph.terminal(e1)):
                turn = make_turn(inverse(e1), e2)
                if turn in visited:
                    w2 = tower.word(e2, n)
                    for cut in range(1, length):
                        crossed.setdefault(w1[-cut:] + w2[:length - cut], []).append(turn)
        recipes = {}
        for p in counts.keys() | crossed.keys():
            if p not in recipes:
                rev = reverse_path(p)
                q = min(p, rev)
                recipes[p] = recipes[rev] = (tuple(counts.get(q, {}).items()),
                                             tuple(crossed.get(q, ())))
        return recipes

    def _value(self, n: int, recipe):
        """Replay a recipe as one running sum in the per-path summation
        order: edge terms in positive-edge order, then turn weights as met,
        then the level scale.  The counts are int operands; the empty recipe
        sums to 0, and 0 times the scale is the exact zero."""
        key = (n, recipe)
        value = self._values.get(key)
        if value is None:
            edges, turns = recipe
            edge_weight, turn_weight = self.weights.edge_weight, self.weights.turn_weight
            value = self._values[key] = sum(chain(
                (count * edge_weight[e] for e, count in edges),
                (turn_weight[turn] for turn in turns))) * self._scale(n)
        return value

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


# a path with no preimage; it replays to the exact zero, the one shared
# zero interval, which ``ttm.intervals`` keeps through ``-`` and ``abs`` and
# ``isum`` skips unread
_NO_RECIPE = ((), ())


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
        lo, hi = ia.max_endpoints(ia.coerce(v) for v in violations)
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

    ``source`` is a KolmogorovFunction or a MeasureTable.  Values one edge
    longer than the bound must be available.  A table, being external data,
    is checked on every reduced path.  A measure is checked on the walk of
    its support S up to the bound and of q[1:] and q[:-1] for q in S up to
    one edge beyond: every other reduced path has the exact zero as its
    value and as the values of its one-edge extensions, so its three
    residuals are the exact zero, which no check reads.  On the walk, the
    residual of exact zeros and its magnitude are the shared zero itself:
    ``ttm.intervals`` keeps it through ``-`` and ``abs``.
    """
    _require_bound(max_length)
    graph, table = source.graph, isinstance(source, MeasureTable)
    get = source.value if table else source._walked
    if table and max_length + 1 > source.max_length:
        raise IncompleteTableError(
            "Kirchhoff checks need values one edge beyond the bound")

    def kirchhoff(path, extended):
        residual = get(path)
        for longer in extended:
            residual = residual - get(longer)
        return residual

    residuals = (
        ("flip", lambda p: get(p) - get(reverse_path(p))),
        ("kirchhoff-left",
         lambda p: kirchhoff(p, ((e,) + p for e in graph.extensions_left(p)))),
        ("kirchhoff-right",
         lambda p: kirchhoff(p, (p + (e,) for e in graph.extensions_right(p)))),
    )
    report = VerificationReport()
    paths = (graph.reduced_paths(max_length) if table else {
        p for length in range(1, max_length + 2) for q in source.support(length)
        for p in (q, q[1:], q[:-1]) if 0 < len(p) <= max_length})
    for name, residual in residuals:
        report.record(name, map(abs, map(residual, paths)), tol)
    if table:
        for path, sub in source.monotonicity_violations():
            report.flags.append(
                ("monotonicity", graph.path_label(path), graph.path_label(sub)))
    return report


def _require_bound(max_length: int):
    if max_length < 1:
        raise PreconditionError(f"length bound must be at least 1 (got {max_length})")


# -- image measures --------------------------------------------------------------------


def image_measure(f: GraphMap, kf: KolmogorovFunction, path):
    """Value of the pushforward measure on a codomain path.

    The domain is subdivided at preimages of vertices; every subdivided-sense
    preimage of the path contributes the measure of the smallest full-edge
    domain path containing it.  Those parents are the covers of
    :func:`ttm.maps.search_covers`; each occurrence counts, in the order the
    search returns them.
    """
    path = _checked(f.codomain, path, "the image measure")
    _require_pushforward(f, kf)
    return _pushforward(f, kf, path)


def _pushforward(f: GraphMap, kf: KolmogorovFunction, path):
    """``image_measure`` without its checks: the covers' values summed in
    search order."""
    return ia.isum(map(kf.eval, search_covers(f, path)))


def _require_pushforward(f: GraphMap, kf: KolmogorovFunction):
    f.require_tame("image measure")
    if kf.graph._endpoints != f.domain._endpoints:
        raise PreconditionError("the measure lives on a different graph "
                                "than the map's domain")


def verify_eigen_measure(f: GraphMap, kf: KolmogorovFunction, lam,
                         max_length: int, tol: float) -> VerificationReport:
    """Check that the pushforward equals lambda times the measure on the
    reduced paths up to the bound.

    The paths checked are the walk of the support paths d up to the bound
    and of the paths that they cover: the factors of f(d), up to the bound,
    that start in its first image block and end in its last (every factor
    when |d| = 1).  A cover c of p is at most |p| edges long (edge images
    are non-empty) and p is such a factor of f(c), as ``search_covers``
    defines covers, so a path with a cover in the support is walked; every
    other reduced path has the exact zero as its value and as the value of
    each of its covers, so its residual is exactly [0, 0].
    """
    _require_bound(max_length)
    _require_pushforward(f, kf)
    if not f.is_self_map():
        raise PreconditionError("the eigen equation needs a self-map")
    lam = ia.coerce(lam)
    walk = set()
    for length in range(1, max_length + 1):
        for d in kf.support(length):
            image = f.map_path(d)
            last = len(image) - len(f.image(d[-1]))    # where the last block starts
            walk.add(d)
            walk.update(image[i:j] for i in range(len(f.image(d[0])))
                        for j in range(max(i, last) + 1, min(i + max_length, len(image)) + 1))
    report = VerificationReport()
    report.record("eigen-equation", (
        abs(_pushforward(f, kf, path) - lam * kf._walked(path)) for path in walk), tol)
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
    eigenvector, and scales by lambda**-t.  The counts run through the block
    recursion (occurrences in the image of a word are occurrences in its
    blocks plus junction straddles), so large t stays cheap.  The boundary
    strings of the recursion depend only on the path length, so it runs once
    per length and counts every factor of that length at once.  The counts
    are kept per positive edge and keyed by the pair {p, p-bar}, as the
    smaller of the two in tuple order, so a path reads one key; a block
    e-bar counts as e, its image being the reversed image of e.  The estimate
    increases in t to the true value; the tail bound is the geometric-series
    bound on the missing straddling mass, derived from the eigenvector
    identity alone.

    Only the map's edge images and the vector enter: no tower and no weights,
    so agreement with the tower evaluator is an independent cross-check.
    The vector and lam follow the rule of ``WeightTower`` (PreconditionError
    otherwise), so every tail bound is non-negative.
    """

    def __init__(self, f: GraphMap, vector, lam, t: int):
        if t < 0:
            raise PreconditionError(f"oracle iterates start at 0 (got {t})")
        self.f = f
        self.graph = f.domain
        self.vector, self.lam = eigen_data(self.graph, vector, lam)
        self.t = t
        self.scale = self.lam ** (-t)
        self.vec_total = ia.isum(self.vector)
        self.max_img = max(len(f.image(e)) for e in self.graph.positive_edges)
        # length -> oriented edge -> factor counts
        self._length_counts = cache(self._factor_counts)
        self._tails = {}     # length -> tail bound

    def counts(self, path) -> tuple:
        """Occurrences of the path and its reverse in the t-th iterate image
        of each positive edge."""
        path = _checked(self.graph, path, "the frequency oracle")
        key = min(path, reverse_path(path))
        return tuple(c[key] for c in self._length_counts(len(path)))

    def support(self, length: int) -> set:
        """The paths of this length with a non-zero estimate (a count for
        an edge of non-zero coordinate), closed under reversal."""
        out = set()
        for c, x in zip(self._length_counts(length), self.vector):
            if x != 0:
                out.update(c)
        return out | {reverse_path(p) for p in out}

    def estimate(self, path) -> OracleEstimate:
        path = tuple(path)
        est = sum(map(mul, self.counts(path), self.vector)) * self.scale
        return OracleEstimate(value=est, tail_bound=self._tail(len(path)),
                              iterations=self.t)

    def _factor_counts(self, length: int):
        """The factor counts of each positive edge's t-th iterate image, in
        edge order; a block x counts as ``counts[x >> 1]`` (the image of
        e-bar is the reversed image of e)."""
        f, edges = self.f, self.graph.positive_edges
        margin = length - 1
        # explicit words until every block is long enough for boundary recursion
        words = {e: (e,) for e in self.graph.oriented_edges}
        level = 0
        while level < self.t and min(map(len, words.values())) < max(1, margin):
            words = {e: f.map_path(w) for e, w in words.items()}
            level += 1
        counts = [_factors(words[e], length) for e in edges]
        prefixes = {e: w[:margin] for e, w in words.items()}
        suffixes = {e: w[len(w) - margin:] for e, w in words.items()}
        while level < self.t:
            new_counts = []
            for e in edges:
                img = f.image(e)
                c = Counter()
                for x in img:
                    c.update(counts[x >> 1])
                for x, y in zip(img, img[1:]):
                    c.update(_factors(suffixes[x] + prefixes[y], length))
                new_counts.append(c)
            counts = new_counts
            prefixes = {e: prefixes[f.image(e)[0]] for e in prefixes}
            suffixes = {e: suffixes[f.image(e)[-1]] for e in suffixes}
            level += 1
        return counts

    def _tail(self, length: int):
        tail = self._tails.get(length)
        if tail is None:
            # new straddling occurrences at step s+1: per junction at most
            # 2(len-1) of them (path and reverse), junction count
            # max |f(e)| - 1 (none on single edges: the tail is exact 0)
            per_step = 2 * (length - 1) * max(0, self.max_img - 1) * self.vec_total
            tail = per_step * ia.geometric_tail(1 / self.lam, self.t + 1)
            self._tails[length] = tail
        return tail


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
    worst, excess = 0.0, []
    for p in {q for length in range(1, max_length + 1)
              for support in (kf.support, oracle.support) for q in support(length)}:
        value, est = kf._walked(p), oracle.estimate(p)
        worst = max(worst, ia.sup_abs(value - est.value))
        excess.append(est.excess(value))
    report = VerificationReport()
    report.record("oracle", excess, tol)
    return report, worst


def frequency_oracle(f: GraphMap, vector, lam, path, t: int) -> OracleEstimate:
    """Occurrence-count estimate of the measure of one path; see
    ``FrequencyOracle``."""
    return FrequencyOracle(f, vector, lam, t).estimate(path)
