"""Stationary graph towers of an expanding train track self-map.

The tower of a self-map f has every level graph equal to the base graph and
the map from level n to level m given by the (n-m)-th iterate.  Levels are
never materialised: in short-edge dialect the level-n graph subdivides each
edge e into |f^n(e)| short edges, so a level-n short edge is addressed as a
pair ``(e, j)`` (oriented base edge, offset into the iterate image word), and
a crossing of an unsubdivided vertex is a turn of the base graph.  The iterate
words are cached and grow monotonically; after a warm-up pass all queries are
read-only.

Weight data lives at level 0 and scales by ``lambda**-n`` across levels:

* edge weights are the eigenvector coordinates;
* turn weights (the weights of the local edges of the blow-up at the
  unsubdivided vertices) are evaluated in closed form: each junction turn of
  an edge image has an eventually periodic direction orbit, so its
  contribution to a turn is a finite sum plus a geometric tail, making the
  switch conditions hold exactly rather than in the limit.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache
from itertools import accumulate, chain, groupby, tee

from . import intervals as ia
from .errors import PreconditionError
from .graphs import inverse, make_turn, reverse_path, turns_of
from .maps import GraphMap, require_expanding_train_track


class StationaryTower:
    """Tower of an expanding train track self-map of a long-edge graph.

    The base graph must have no valence-2 vertices so that edges and long
    edges coincide and eigenvector coordinates index the edges directly.
    """

    def __init__(self, f: GraphMap):
        require_expanding_train_track(f)
        if any(f.domain.valence(v) == 2 for v in f.domain.vertices):
            raise PreconditionError(
                "stationary towers need a long-edge base graph "
                "(no valence-2 vertices); collapse them first")
        self.f = f
        self.graph = f.domain
        self._words = {}
        self._minlength = {}
        self._tables = {}

    # -- iterate words ---------------------------------------------------------

    def word(self, e: int, n: int):
        """The image of oriented edge e under the n-th iterate (cached in
        both orientations)."""
        if n == 0:
            return (e,)
        w = self._words.get((e, n))
        if w is None:
            if n < 0:
                raise PreconditionError(f"tower levels start at 0 (got {n})")
            if e % 2:
                w = reverse_path(self.word(e ^ 1, n))
            else:
                w = self.f.map_path(self.word(e, n - 1))
            self._words[(e, n)] = w
        return w

    def minlength(self, n: int) -> int:
        """Minimal iterate-image length over the (long) edges at level n."""
        if n not in self._minlength:
            self._minlength[n] = min(
                len(self.word(e, n)) for e in self.graph.positive_edges)
        return self._minlength[n]

    def level_for_length(self, length: int) -> int:
        """Least level whose minimal long-edge length reaches ``length``.

        Image lengths never decrease along the tower, so a linear scan
        terminates for expanding maps.
        """
        n = 0
        while self.minlength(n) < max(1, length):
            n += 1
        return n

    # -- virtual short-edge structure -------------------------------------------

    def short_edges(self, n: int):
        """All oriented level-n short edges as (base oriented edge, offset)."""
        out = []
        for e in self.graph.oriented_edges:
            out.extend((e, j) for j in range(len(self.word(e, n))))
        return out

    def level_tables(self, n: int):
        """``(starts, letters, exits, entries)`` of level n, built once:
        short edge ``(e, j)`` is number ``starts[e] + j``, with image letter
        ``letters[i]``.  A reduced path steps from i to i + 1 inside an edge,
        from the last number i of an edge to each of ``exits[i]``, and into
        its first number i from each of ``entries[i]`` (``directions_at``
        order)."""
        tables = self._tables.get(n)
        if tables is None:
            g = self.graph
            words = [self.word(e, n) for e in g.oriented_edges]
            starts = tuple(accumulate(map(len, words), initial=0))
            tables = self._tables[n] = (
                starts, tuple(chain.from_iterable(words)),
                {starts[e + 1] - 1: tuple(starts[d] for d in g.directions_at(g.terminal(e))
                                          if d != inverse(e))
                 for e in g.oriented_edges},
                {starts[e]: tuple(starts[inverse(d) + 1] - 1
                                  for d in g.directions_at(g.initial(e)) if d != e)
                 for e in g.oriented_edges})
        return tables

    def windows(self, center, radius: int, n: int):
        """All reduced level-n paths of length 2*radius + 1 centred on the
        given short edge, in scan order (see ``_extend``)."""
        return [w for w, _ in self._grown(center, radius, n, None)]

    def legal_windows(self, center, radius: int, n: int):
        """The windows of ``windows(center, radius, n)`` whose image lies in
        the used language (``f.legal``, the subpaths of iterated edge
        images), in the same order, as ``(window, image)`` pairs.  They grow
        one short edge on each side at a time, and only while their image
        stays in it: the language is closed under subpaths, so a window that
        leaves it never returns."""
        return self._grown(center, radius, n, self.f.legal)

    def _grown(self, center, radius, n, legal):
        starts, letters, _, _ = tables = self.level_tables(n)
        c = starts[center[0]] + center[1]
        windows = [((c,), (letters[c],))]
        if legal and not legal.is_infinitely_legal((letters[c],)):
            windows = []
        for k in range(radius):
            windows = _extend(windows, k, tables, legal and legal.paths_of_length(2 * k + 3))
        return [(_short_edges(starts, w), img) for w, img in windows]


# -- weight towers ----------------------------------------------------------------


def eigen_data(graph, vector, lam):
    """``(vector, lam)`` as a tuple and an enclosure; PreconditionError
    unless the vector has one certified non-negative coordinate per positive
    edge of the graph and lam certifiably exceeds 1."""
    vector, lam = tuple(vector), ia.coerce(lam)
    if len(vector) != graph.n_edges:
        raise PreconditionError("need one coordinate per positive edge")
    if not (lam > 1):
        raise PreconditionError("eigenvalue must certifiably exceed 1")
    if not all((x >= 0) is True for x in vector):
        raise PreconditionError("eigenvector must be non-negative")
    return vector, lam


class WeightTower:
    """The weight tower of a certified non-negative eigenvector v of the
    transition matrix with eigenvalue lambda > 1 (PreconditionError
    otherwise): level-0 edge and turn weights; level n is never
    materialised, its values are the level-0 ones times ``level_scale(n)``.

    ``lam`` (a certified root, a Fraction or an interval) is kept as its
    enclosure; the vector, indexed by positive edges, keeps its coordinates
    as given (intervals, or ints and Fractions, whose edge terms sum
    exactly).  Turn weights follow the closed form: a junction turn of an
    edge image contributes ``lambda**-(k+1) v(e)`` for every orbit step k
    at which its direction orbit sits on the target turn; eventual
    periodicity turns the tail into a geometric series.  Only the turns
    that an orbit of an edge of non-zero coordinate visits (``visited``) get
    a sum; every other turn, illegal ones included, gets the same exact zero.
    """

    def __init__(self, tower: StationaryTower, vector, lam):
        self.tower = tower
        self.vector, self.lam = eigen_data(tower.graph, vector, lam)
        res = ia.eigen_residual(tower.f.transition_matrix(), self.vector, self.lam)
        if not all(ia.contains_zero(r) for r in res):
            raise PreconditionError(
                "vector is not a certified eigenvector of the transition matrix")
        graph = tower.graph
        self.edge_weight = {e: self.vector[e >> 1] for e in graph.oriented_edges}
        da = tower.f.directions
        lam_inv = 1 / self.lam
        power = cache(lambda k: lam_inv ** k)
        geometric = cache(lambda q: 1 - power(q))
        # one orbit walk per junction turn adds its term to every turn the
        # orbit visits (a turn at most once); each turn's sum is taken in
        # (e, tau) order, and only visited turns get a sum
        zero = ia.zero()
        sums = {}
        for e in graph.positive_edges:
            v_e = self.vector[e >> 1]
            if v_e == 0:
                continue
            for tau in turns_of(tower.f.image(e)):
                pre, cyc = da.orbit(tau)
                for k, t in enumerate(pre):
                    sums[t] = sums.get(t, zero) + power(k + 1) * v_e
                for j, t in enumerate(cyc):
                    tail = power(len(pre) + j + 1) / geometric(len(cyc))
                    sums[t] = sums.get(t, zero) + tail * v_e
        self.visited = frozenset(sums)
        self.turn_weight = {t: sums.get(t, zero) for t in graph.all_turns()}

    def level_scale(self, n: int):
        return self.lam ** (-n)

    # -- structural checks ---------------------------------------------------------

    def switch_residuals(self):
        """Interval residuals of the switch conditions at every direction:
        the weight of the edge leaving a vertex minus the total weight of the
        local edges (turns) at that direction, the turn weights added in the
        order of the directions at the vertex."""
        graph = self.tower.graph
        out = {}
        for v in graph.vertices:
            for d in graph.directions_at(v):
                out[d] = self.edge_weight[d] - ia.isum(
                    self.turn_weight[make_turn(d, d2)]
                    for d2 in graph.directions_at(v) if d2 != d)
        return out


def weight_tower_from_vector(tower: StationaryTower, vector, lam) -> WeightTower:
    """The weight tower of an eigenvector (PreconditionError unless
    ``WeightTower`` accepts it), its switch conditions certified."""
    wt = WeightTower(tower, vector, lam)
    if not all(ia.contains_zero(r) for r in wt.switch_residuals().values()):
        raise PreconditionError("switch conditions failed certification")
    return wt


# -- repetition bounds ---------------------------------------------------------------


class RepetitionSearch:
    """Outcome of the bounded repetition-bound search at one level.  Two
    outcomes are equal when all their fields are."""

    def __init__(self, level: int, cap: int, bound: int = None, witness: tuple = None):
        self.level = level
        self.cap = cap
        self.bound = bound        # least working radius, when found
        self.witness = witness    # a violating pair of windows at the cap

    def __eq__(self, other):
        if not isinstance(other, RepetitionSearch):
            return NotImplemented
        return ((self.level, self.cap, self.bound, self.witness)
                == (other.level, other.cap, other.bound, other.witness))

    @property
    def found(self) -> bool:
        return self.bound is not None


def repetition_bound(tower: StationaryTower, n: int, cap: int) -> RepetitionSearch:
    """Search for the least radius rho <= cap such that any two level-n
    windows of length 2 rho + 1 with the same image pin the same middle
    (oriented) short edge.

    Windows range over the level-n paths whose image lies in the used
    language (``f.legal``), in ``legal_windows`` order, centre by centre.
    Each radius is scanned only up to its first violation, the witness at
    the cap.  The windows of radius rho + 1 extend those of radius rho
    lazily, as the scan asks for them, and reuse the ones the scan of rho
    built, so no window is built twice.  The language is asked for lengths
    up to ``2 cap + 1``, and built geometrically towards it.
    """
    if cap < 0:
        raise PreconditionError(f"the radius cap must be at least 0 (got {cap})")
    starts, letters, _, _ = tables = tower.level_tables(n)
    legal, longest = tower.f.legal, 2 * cap + 1
    single = legal.paths_of_length(1, longest)
    windows = (((c,), (x,)) for c, x in enumerate(letters) if (x,) in single)
    for rho in range(cap + 1):
        if rho:
            windows = _extend(windows, rho - 1, tables, legal.paths_of_length(2 * rho + 1, longest))
        windows, scan = tee(windows)
        witness = _first_violation(scan, rho)
        if witness is None:
            return RepetitionSearch(level=n, cap=cap, bound=rho)
    return RepetitionSearch(level=n, cap=cap, witness=tuple(
        _short_edges(starts, w) for w in witness))


def _short_edges(starts, window):
    """The short edges ``(e, j)`` of a window of ``level_tables`` numbers."""
    return tuple((e, i - starts[e]) for i in window for e in [bisect_right(starts, i) - 1])


def _first_violation(windows, rho):
    """``(earlier, window)``: the first window whose image an earlier window
    with another centre (short edge ``rho``) had, and the last such earlier
    window; None if there is none."""
    seen = {}
    for w, img in windows:
        if img in seen and seen[img][rho] != w[rho]:
            return seen[img], w
        seen[img] = w
    return None


def _extend(windows, k, tables, members):
    """The extensions by a short edge on each side, with an image in
    ``members`` (any for None), of radius-k windows in scan order (by
    centre, left half, right half, each half read outwards), in scan order."""
    _, letters, exits, entries = tables
    for left, run in groupby(windows, lambda x: x[0][:k + 1]):
        run = list(run)
        for p in entries.get(left[0], (left[0] - 1,)):
            for w, img in run:
                for q in exits.get(w[-1], (w[-1] + 1,)):
                    ext = (letters[p],) + img + (letters[q],)
                    if members is None or ext in members:
                        yield (p,) + w + (q,), ext
