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

from dataclasses import dataclass
from functools import cache

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

    def reverse_short(self, se, n: int):
        e, j = se
        return (inverse(e), len(self.word(e, n)) - 1 - j)

    def image_letter(self, se, n: int) -> int:
        """Image of a level-n short edge under the full map to level 0."""
        e, j = se
        return self.word(e, n)[j]

    def successors(self, se, n: int):
        """Level-n short edges that can follow ``se`` on a reduced path."""
        e, j = se
        if j + 1 < len(self.word(e, n)):
            return [(e, j + 1)]
        v = self.graph.terminal(e)
        return [(d, 0) for d in self.graph.directions_at(v) if d != inverse(e)]

    def predecessors(self, se, n: int):
        rev = self.reverse_short(se, n)
        return [self.reverse_short(t, n) for t in self.successors(rev, n)]

    def windows(self, center, radius: int, n: int):
        """All reduced level-n paths of length 2*radius + 1 centred on the
        given short edge."""
        lefts = [()]
        for _ in range(radius):
            nxt = []
            for p in lefts:
                anchor = p[0] if p else center
                nxt.extend((q,) + p for q in self.predecessors(anchor, n))
            lefts = nxt
        rights = [()]
        for _ in range(radius):
            nxt = []
            for p in rights:
                anchor = p[-1] if p else center
                nxt.extend(p + (q,) for q in self.successors(anchor, n))
            rights = nxt
        return [l + (center,) + r for l in lefts for r in rights]

    def legal_windows(self, center, radius: int, n: int):
        """The windows of ``windows(center, radius, n)`` whose image is
        infinitely legal, in the same order, as ``(window, image)`` pairs.

        Lefts and rights grow one short edge at a time, carrying their image
        letters, and an extension is kept only while its image with the
        centre letter stays infinitely legal; a whole window is kept only if
        its image is.  The infinitely legal paths are closed under subpaths,
        so a half that leaves them never returns, and the survivors are
        exactly the infinitely legal windows, in the order of the full lists.
        """
        ok = self.f.legal.is_infinitely_legal
        c = (self.image_letter(center, n),)
        lefts = [((), ())]
        for _ in range(radius):
            nxt = []
            for p, img in lefts:
                for q in self.predecessors(p[0] if p else center, n):
                    ext = (self.image_letter(q, n),) + img
                    if ok(ext + c):
                        nxt.append(((q,) + p, ext))
            lefts = nxt
        rights = [((), ())]
        for _ in range(radius):
            nxt = []
            for p, img in rights:
                for q in self.successors(p[-1] if p else center, n):
                    ext = img + (self.image_letter(q, n),)
                    if ok(c + ext):
                        nxt.append((p + (q,), ext))
            rights = nxt
        for l, limg in lefts:
            for r, rimg in rights:
                img = limg + c + rimg
                if ok(img):
                    yield l + (center,) + r, img


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
    periodicity turns the tail into a geometric series.  Sums are
    accumulated only on ``visited``, the turns that some orbit visits;
    every other turn, illegal ones included, gets the same exact zero.
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


@dataclass(frozen=True)
class RepetitionSearch:
    """Outcome of the bounded repetition-bound search at one level."""

    level: int
    cap: int
    bound: int = None          # least working radius, when found
    witness: tuple = None      # a violating pair of windows at the cap

    @property
    def found(self) -> bool:
        return self.bound is not None


def repetition_bound(tower: StationaryTower, n: int, cap: int) -> RepetitionSearch:
    """Search for the least radius rho <= cap such that any two level-n
    windows of length 2 rho + 1 with the same image pin the same middle
    (oriented) short edge.

    Windows range over the level-n paths whose image is infinitely legal.
    """
    if cap < 0:
        raise PreconditionError(f"the radius cap must be at least 0 (got {cap})")
    for rho in range(cap + 1):
        witness = _violating_pair(tower, n, rho)
        if witness is None:
            return RepetitionSearch(level=n, cap=cap, bound=rho)
    return RepetitionSearch(level=n, cap=cap, witness=witness)


def _violating_pair(tower, n, rho):
    seen = {}
    for center in tower.short_edges(n):
        for w, img in tower.legal_windows(center, rho, n):
            if img in seen and seen[img][0] != center:
                return (seen[img][1], w)
            seen[img] = (center, w)
    return None
