"""Kolmogorov functions: shift- and flip-invariant measures on path spaces.

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
each positive edge's word and its reverse, counting that edge for the factor
read, and every junction ``(e1, e2, cut)`` appends its crossed turn to the
factor ``w1[-cut:] + w2[:L-cut]``.  The result is a *recipe* per factor that
occurs (edge counts, turns in the order met); a path absent from the sweep
has the empty recipe, the exact zero.  A recipe is replayed in the order a
per-path scan would sum it (edge terms in positive-edge order, then the turn
weights as met, then the level scale) and memoised by level and recipe, so
values are bit-identical to the per-path definition and equal recipes share
one interval.

An independent frequency oracle estimates the same values from occurrence
counts in iterate images alone, with a certified geometric tail bound.  It
batches its own block recursion per path length but never touches the tower,
the weights or the sweep: the two routes share nothing past the transition
matrix, making their agreement a meaningful cross-validation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from . import intervals as ia
from .errors import IncompleteTableError, PathError, PreconditionError
from .graphs import (
    Graph, inverse, is_reduced, make_turn, reverse_path, subpaths_up_to,
)
from .maps import GraphMap
from .towers import StationaryTower, WeightTower, repetition_bound


class KolmogorovFunction:
    """Measure evaluator attached to a weight tower on a stationary tower."""

    def __init__(self, tower: StationaryTower, weights: WeightTower):
        self.tower = tower
        self.weights = weights
        self.graph = tower.graph
        self._memo = {}      # validated path and its reversal -> value
        self._sweeps = {}    # (level, length) -> factor -> recipe
        self._values = {}    # (level, recipe) -> value
        self._scales = {}    # level -> lambda**-level

    @property
    def lam(self):
        return self.weights.lam

    def eval(self, path):
        """Certified value of the measure on the cylinder of a reduced path."""
        path = tuple(path)
        value = self._memo.get(path)
        if value is not None:
            return value
        if not path:
            raise PathError("Kolmogorov functions take non-trivial paths")
        if not self.graph.is_path(path) or not is_reduced(path):
            raise PathError("Kolmogorov functions take reduced edge paths")
        value = self.eval_at_level(path, self.tower.level_for_length(len(path)))
        self._memo[path] = value
        self._memo[reverse_path(path)] = value
        return value

    def eval_at_level(self, path, n: int):
        """Sum the weights of all legal level-n preimages of the path.

        Needs the level-n long edges at least as long as the path, so that a
        preimage crosses at most one unsubdivided vertex.
        """
        path = tuple(path)
        if not path:
            raise PathError("Kolmogorov functions take non-trivial paths")
        if self.tower.minlength(n) < len(path):
            raise PreconditionError("level too low for this path length")
        key = (n, len(path))
        sweep = self._sweeps.get(key)
        if sweep is None:
            sweep = self._sweeps[key] = self._sweep(n, len(path))
        return self._value(n, sweep.get(path, _ZERO_RECIPE))

    def _sweep(self, n: int, length: int):
        """Recipe of every length-``length`` factor of the level-n words.

        A recipe is the pair (edge counts, crossed turns): the occurrences of
        the factor or its reverse inside each positive edge's word, and the
        turn of every junction ``(e1, e2, cut)`` whose straddling window reads
        the factor, in the order the per-path scan would meet them.
        """
        tower, graph = self.tower, self.graph
        counts = {}
        for e in graph.positive_edges:
            # windows of the reversed word are the reversed windows
            for word in (tower.word(e, n), tower.word(inverse(e), n)):
                for i in range(len(word) - length + 1):
                    per_edge = counts.setdefault(word[i:i + length], {})
                    per_edge[e] = per_edge.get(e, 0) + 1
        crossed = {}
        for e1 in graph.oriented_edges:
            w1 = tower.word(e1, n)
            for e2 in graph.directions_at(graph.terminal(e1)):
                if e2 == inverse(e1):
                    continue
                w2 = tower.word(e2, n)
                turn = make_turn(inverse(e1), e2)
                for cut in range(1, length):
                    crossed.setdefault(w1[-cut:] + w2[:length - cut], []).append(turn)
        return {p: (tuple(counts.get(p, {}).items()), tuple(crossed.get(p, ())))
                for p in counts.keys() | crossed.keys()}

    def _value(self, n: int, recipe):
        """Replay a recipe in the per-path summation order: edge terms in
        positive-edge order, then turn weights as met, then the level scale."""
        key = (n, recipe)
        value = self._values.get(key)
        if value is None:
            edges, turns = recipe
            total = ia.zero()
            for e, count in edges:
                total = total + ia.exact(count) * self.weights.edge_weight[e]
            for turn in turns:
                total = total + self.weights.turn_weight[turn]
            scale = self._scales.get(n)
            if scale is None:
                scale = self._scales[n] = self.weights.vt.level_scale(n)
            value = self._values[key] = total * scale
        return value

    def table(self, max_length: int) -> "MeasureTable":
        """Table over every reduced path up to the bound (exponentially many;
        keep the bound small)."""
        entries = {}
        for p in self.graph.reduced_paths(max_length):
            entries[p] = self.eval(p)
        return MeasureTable(self.graph, entries, max_length, provenance="computed")

    def support_table(self, max_length: int) -> "MeasureTable":
        """Table over the infinitely legal language truncation only; paths
        outside it have measure zero and stay implicit, which keeps long
        tables linear in the language size."""
        from .maps import infinitely_legal_language
        lang = infinitely_legal_language(self.tower.f, max_length,
                                         self.tower.pullbacks())
        entries = {p: self.eval(p) for p in lang.paths}
        return MeasureTable(self.graph, entries, max_length, provenance="computed")


# a factor absent from every level word has no preimage: the exact zero
_ZERO_RECIPE = ((), ())


# -- tables ------------------------------------------------------------------------


@dataclass
class MeasureTable:
    """Reduced-path -> value map, complete up to a length bound.

    Absent reduced paths within the bound are zeros (external listings, like
    hand-made integer tables, customarily omit them).  Values are Fractions
    for exact external data or intervals for computed data.
    """

    graph: Graph
    entries: dict
    max_length: int
    provenance: str = "external"

    def __post_init__(self):
        fixed = {}
        for path, value in self.entries.items():
            path = tuple(path)
            if not self.graph.is_path(path) or not is_reduced(path) or not path:
                raise PathError(f"table key is not a reduced path: {path}")
            fixed[path] = value
        self.entries = fixed

    def value(self, path):
        path = tuple(path)
        if path in self.entries:
            return self.entries[path]
        rev = reverse_path(path)
        if rev in self.entries:
            return self.entries[rev]
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
                if sval is not None and _definitely_less(sval, value):
                    out.append((path, sub))
        return out

    def normalized(self):
        """Scale so the single-edge cylinder values over the positive section
        sum to one (probability normalisation)."""
        total = None
        for e in self.graph.positive_edges:
            v = self.value((e,))
            total = v if total is None else total + v
        if isinstance(total, Fraction):
            if total == 0:
                raise PreconditionError("cannot normalise the zero table")
            scale = Fraction(1) / total
        else:
            if not (total > 0):
                raise PreconditionError("cannot normalise the zero table")
            scale = 1 / total
        return MeasureTable(self.graph,
                            {p: v * scale for p, v in self.entries.items()},
                            self.max_length, provenance=self.provenance)


def _definitely_less(x, y) -> bool:
    """x < y certainly."""
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x < y
    x = x if not isinstance(x, Fraction) else ia.from_fraction(x)
    y = y if not isinstance(y, Fraction) else ia.from_fraction(y)
    return (x < y) is True


# -- verification --------------------------------------------------------------------


@dataclass
class VerificationReport:
    """Check outcomes with certified comparison semantics: a check fails only
    when its violation is provably beyond the tolerance; a violation interval
    straddling the tolerance is *inconclusive* (the caller should raise the
    working precision and re-run)."""

    checks: dict = field(default_factory=dict)
    max_violation: float = 0.0
    failures: list = field(default_factory=list)
    inconclusive: list = field(default_factory=list)
    flags: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures and not self.inconclusive

    def record(self, name: str, violation, tol: float, detail=None):
        sup, inf = violation if isinstance(violation, tuple) else (violation, violation)
        self.checks[name] = sup
        self.max_violation = max(self.max_violation, sup)
        if sup > tol:
            if inf > tol:
                self.failures.append((name, sup, detail))
            else:
                self.inconclusive.append((name, sup, detail))


class _Worst:
    """Running maximum of |x| over exact or interval values, keeping both the
    certified upper bound and the certified lower bound of the maximum."""

    def __init__(self):
        self.sup = 0.0
        self.inf = 0.0

    def add(self, x):
        if isinstance(x, Fraction):
            mag = float(abs(x))
            self.sup = max(self.sup, mag)
            self.inf = max(self.inf, mag)
            return
        self.sup = max(self.sup, ia.sup_abs(x))
        self.inf = max(self.inf, ia.inf_abs(x))

    @property
    def pair(self):
        return (self.sup, self.inf)


def verify_kolmogorov(source, max_length: int, tol: float = 0.0,
                      graph: Graph = None) -> VerificationReport:
    """Check flip symmetry and both Kirchhoff rules on all reduced paths up
    to the bound; for tables, also audit subpath monotonicity.

    ``source`` is a KolmogorovFunction or a MeasureTable.  Values one edge
    longer than the bound must be available.
    """
    if isinstance(source, KolmogorovFunction):
        graph = source.graph
        get = source.eval
    else:
        graph = source.graph
        get = source.value
        if max_length + 1 > source.max_length:
            raise IncompleteTableError(
                "Kirchhoff checks need values one edge beyond the bound")
    report = VerificationReport()
    worst_flip = _Worst()
    worst_left = _Worst()
    worst_right = _Worst()
    for path in graph.reduced_paths(max_length):
        value = get(path)
        worst_flip.add(_sub(value, get(reverse_path(path))))
        left = value
        for e0 in graph.extensions_left(path):
            left = _sub(left, get((e0,) + path))
        worst_left.add(left)
        right = value
        for e1 in graph.extensions_right(path):
            right = _sub(right, get(path + (e1,)))
        worst_right.add(right)
    report.record("flip", worst_flip.pair, tol)
    report.record("kirchhoff-left", worst_left.pair, tol)
    report.record("kirchhoff-right", worst_right.pair, tol)
    if isinstance(source, MeasureTable):
        for path, sub in source.monotonicity_violations():
            report.flags.append(
                ("monotonicity", graph.path_label(path), graph.path_label(sub)))
    return report


def _sub(x, y):
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x - y
    x = x if not isinstance(x, Fraction) else ia.from_fraction(x)
    y = y if not isinstance(y, Fraction) else ia.from_fraction(y)
    return x - y


# -- image measures --------------------------------------------------------------------


def image_measure(f: GraphMap, kf: KolmogorovFunction, path):
    """Value of the pushforward measure on a codomain path.

    The domain is subdivided at preimages of vertices; every subdivided-sense
    preimage of the path contributes the measure of the smallest full-edge
    domain path containing it.
    """
    path = tuple(path)
    if not f.codomain.is_path(path) or not is_reduced(path) or not path:
        raise PathError("image measure takes non-trivial reduced codomain paths")
    f.require_tame("image measure")
    if kf.graph._endpoints != f.domain._endpoints:
        raise PreconditionError("the measure lives on a different graph "
                                "than the map's domain")
    total = ia.zero()
    for prefix in _subedge_starts(f, path[0]):
        for parent in _subedge_preimages(f, prefix, path):
            total = total + kf.eval(parent)
    return total


def _subedge_starts(f: GraphMap, first_letter):
    """Sub-edges of the subdivided domain whose image letter matches."""
    out = []
    for e in f.domain.oriented_edges:
        img = f.image(e)
        for j, letter in enumerate(img):
            if letter == first_letter:
                out.append((e, j))
    return out


def _subedge_preimages(f: GraphMap, start, path):
    """Parents (full-edge domain paths) of subdivided preimage paths of
    ``path`` beginning at the given sub-edge."""
    results = []

    def walk(e, j, idx, parents):
        img = f.image(e)
        while idx < len(path) and j < len(img):
            if img[j] != path[idx]:
                return
            j += 1
            idx += 1
        if idx == len(path):
            results.append(tuple(parents))
            return
        v = f.domain.terminal(e)
        for d in f.domain.directions_at(v):
            if d == inverse(e):
                continue
            walk(d, 0, idx, parents + [d])

    e0, j0 = start
    walk(e0, j0, 0, [e0])
    return results


def verify_eigen_measure(f: GraphMap, kf: KolmogorovFunction, lam,
                         max_length: int, tol: float,
                         language=None) -> VerificationReport:
    """Check that the pushforward equals lambda times the measure on all
    paths up to the bound, plus support containment in the infinitely legal
    language when one is supplied."""
    lam = lam.interval() if hasattr(lam, "interval") else lam
    report = VerificationReport()
    worst = _Worst()
    for path in f.domain.reduced_paths(max_length):
        worst.add(image_measure(f, kf, path) - lam * kf.eval(path))
    report.record("eigen-equation", worst.pair, tol)
    if language is not None:
        bad = [p for p in f.domain.reduced_paths(min(max_length, language.max_length))
               if (kf.eval(p) > 0) is True and p not in language]
        if bad:
            report.record("support", 1.0, 0.0, detail=bad[:5])
        else:
            report.record("support", 0.0, 0.0)
    return report


# -- weight recovery -------------------------------------------------------------------


def recover_weights(table: MeasureTable, tower: StationaryTower, m: int, rho: int,
                    infinitely_legal: bool = True, enforce_bound: bool = True):
    """Reconstruct the level-m short-edge weights from measured cylinder
    values: the weight of a short edge is the sum of the table values over
    the *distinct* images of the radius-rho windows centred on it (identical
    images from different windows are counted once).

    ``rho`` must be at least the level's repetition bound, otherwise windows
    centred on different edges can read the same word and the sums
    double-count; pass ``enforce_bound=False`` to experiment below the bound.
    """
    if enforce_bound:
        search = repetition_bound(tower, m, rho, infinitely_legal)
        if not search.found:
            raise PreconditionError(
                f"radius {rho} is below the repetition bound of level {m}")
    if 2 * rho + 1 > table.max_length:
        raise IncompleteTableError(
            f"windows of length {2 * rho + 1} exceed the table bound "
            f"{table.max_length}")
    out = {}
    for center in tower.short_edges(m):
        images = {img for _, img in tower.legal_windows(center, rho, m,
                                                        infinitely_legal)}
        total = None
        for img in sorted(images):
            v = table.value(img)
            v = ia.from_fraction(v) if isinstance(v, Fraction) else v
            total = v if total is None else total + v
        out[center] = total if total is not None else ia.zero()
    return out


# -- the independent frequency oracle ----------------------------------------------------


@dataclass
class OracleEstimate:
    value: object          # interval estimate
    tail_bound: object     # interval upper bound on the truncation error
    iterations: int

    def within(self, reference) -> bool:
        """Is |reference - value| certifiably within the tail bound?"""
        return (abs(reference - self.value) <= self.tail_bound) is not False


class FrequencyOracle:
    """Occurrence-count estimates of cylinder measures at iterate t.

    The estimate of a path counts occurrences of the path and its reverse in
    the t-th iterate images of all positive edges, weights them by the
    eigenvector, and scales by lambda**-t.  The counts run through the block
    recursion (occurrences in the image of a word are occurrences in its
    blocks plus junction straddles), so large t stays cheap.  The boundary
    strings of the recursion depend only on the path length, so it runs once
    per length and counts every factor of that length at once.  The estimate
    increases in t to the true value; the tail bound is the geometric-series
    bound on the missing straddling mass, derived from the eigenvector
    identity alone.

    Only the map's edge images and the vector enter: no tower and no weights,
    so agreement with the tower evaluator is an independent cross-check.
    """

    def __init__(self, f: GraphMap, vector, lam, t: int):
        self.f = f
        self.graph = f.domain
        self.vector = vector
        self.t = t
        lam = lam if not hasattr(lam, "interval") else lam.interval()
        self.lam = lam
        self.scale = lam ** (-t)
        self.vec_total = ia.isum(vector[k] for k in range(self.graph.n_edges))
        self.max_img = max(len(f.image(e)) for e in self.graph.positive_edges)
        self._counts = {}    # length -> oriented edge -> factor counts
        self._tails = {}     # length -> tail bound

    def counts(self, path) -> tuple:
        """Occurrences of the path and its reverse in the t-th iterate image
        of each positive edge."""
        path = tuple(path)
        if not path:
            raise PathError("frequency oracle takes non-trivial paths")
        counts = self._counts.get(len(path))
        if counts is None:
            counts = self._counts[len(path)] = self._factor_counts(len(path))
        rev = reverse_path(path)
        return tuple(counts[e][path] + counts[e][rev]
                     for e in self.graph.positive_edges)

    def estimate(self, path) -> OracleEstimate:
        path = tuple(path)
        est = ia.zero()
        for k, count in enumerate(self.counts(path)):
            est = est + ia.exact(count) * self.vector[k]
        est = est * self.scale
        return OracleEstimate(value=est, tail_bound=self._tail(len(path)),
                              iterations=self.t)

    def _factor_counts(self, length: int):
        f, edges = self.f, self.graph.oriented_edges
        margin = length - 1
        # explicit words until every block is long enough for boundary recursion
        words = {e: (e,) for e in edges}
        level = 0
        while level < self.t and min(len(words[e]) for e in edges) < max(1, margin):
            words = {e: f.map_path(words[e]) for e in edges}
            level += 1
        counts = {e: _factors(words[e], length) for e in edges}
        prefixes = {e: words[e][:margin] for e in edges}
        suffixes = {e: words[e][-margin:] if margin else () for e in edges}
        while level < self.t:
            new_counts = {}
            for e in edges:
                img = f.image(e)
                c = Counter()
                for x in img:
                    c.update(counts[x])
                for x, y in zip(img, img[1:]):
                    c.update(_factors(suffixes[x] + prefixes[y], length))
                new_counts[e] = c
            counts = new_counts
            prefixes = {e: prefixes[f.image(e)[0]] for e in edges}
            suffixes = {e: suffixes[f.image(e)[-1]] for e in edges}
            level += 1
        return counts

    def _tail(self, length: int):
        tail = self._tails.get(length)
        if tail is None:
            margin = length - 1
            if margin:
                # new straddling occurrences at step s+1: per junction at most
                # 2(len-1) of them (path and reverse), junction count
                # max |f(e)| - 1
                per_step = ia.exact(2 * margin * max(0, self.max_img - 1)) * self.vec_total
                tail = per_step * ia.geometric_tail(1 / self.lam, self.t + 1)
            else:
                tail = ia.zero()
            self._tails[length] = tail
        return tail


def _factors(word, length: int) -> Counter:
    return Counter(word[i:i + length] for i in range(len(word) - length + 1))


def frequency_oracle(f: GraphMap, vector, lam, path, t: int) -> OracleEstimate:
    """Occurrence-count estimate of the measure of one path; see
    ``FrequencyOracle``."""
    return FrequencyOracle(f, vector, lam, t).estimate(path)
