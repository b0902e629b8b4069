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

from . import intervals as ia
from .errors import MapError, PreconditionError
from .graphs import inverse, is_reduced, make_turn, reverse_path
from .maps import (
    DirectionAnalysis, GraphMap, LegalPullbacks, junction_turns, power,
    require_expanding_train_track,
)


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
        self.directions = DirectionAnalysis(f)
        self._words = {}
        self._minlength = {}
        self._pullbacks = None

    # -- iterate words ---------------------------------------------------------

    def word(self, e: int, n: int):
        """The image of oriented edge e under the n-th iterate (cached in
        both orientations)."""
        if n == 0:
            return (e,)
        w = self._words.get((e, n))
        if w is None:
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

    def level_map(self, m: int, n: int) -> GraphMap:
        """The map from level n to level m (the (n-m)-th iterate), m <= n."""
        if not 0 <= m <= n:
            raise MapError("levels must satisfy 0 <= m <= n")
        return power(self.f, n - m)

    def level_graph(self, n: int):
        """The level-n graph materialised in short-edge dialect (the base
        graph subdivided at iterate preimages of vertices), as the short form
        of the n-th power.  Levels grow exponentially; the virtual addressing
        above is preferred for anything quantitative."""
        from .dialects import to_short
        return to_short(power(self.f, n))

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

    def image_at_level(self, se, n: int, m: int):
        """Image of a level-n short edge at level m (a single level-m short
        edge, since level-n subdivision points sit over level-m ones)."""
        e, j = se
        w = self.word(e, n - m)
        total = 0
        for letter in w:
            step = len(self.word(letter, m))
            if j < total + step:
                return (letter, j - total)
            total += step
        raise MapError("offset out of range")

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

    def path_image(self, path, n: int):
        return tuple(self.image_letter(se, n) for se in path)

    def crossed_turns(self, path, n: int):
        """Base-graph turns this level-n path crosses at unsubdivided
        vertices (in order)."""
        out = []
        for i in range(len(path) - 1):
            e, j = path[i]
            if j == len(self.word(e, n)) - 1:
                e2, _ = path[i + 1]
                out.append(make_turn(inverse(e), e2))
        return out

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

    def legal_windows(self, center, radius: int, n: int,
                      infinitely_legal: bool = False):
        """The windows of ``windows(center, radius, n)`` whose image is
        reduced (the legal level-n windows), in the same order, as
        ``(window, image)`` pairs; with ``infinitely_legal`` only those
        whose image is infinitely legal.

        Lefts and rights grow one short edge at a time, carrying their image
        letters, and an extension is dropped as soon as its image letter
        cancels against the adjacent one.  A window's image is reduced iff
        its left half with the centre and its centre with the right half
        are, and a prefix that cancels keeps cancelling however it is
        extended, so the survivors are exactly the legal windows and keep
        the order of the full lists.
        """
        c = self.image_letter(center, n)
        lefts = [((), ())]
        for _ in range(radius):
            nxt = []
            for p, img in lefts:
                bad = inverse(img[0] if img else c)
                for q in self.predecessors(p[0] if p else center, n):
                    x = self.image_letter(q, n)
                    if x != bad:
                        nxt.append(((q,) + p, (x,) + img))
            lefts = nxt
        rights = [((), ())]
        for _ in range(radius):
            nxt = []
            for p, img in rights:
                bad = inverse(img[-1] if img else c)
                for q in self.successors(p[-1] if p else center, n):
                    x = self.image_letter(q, n)
                    if x != bad:
                        nxt.append((p + (q,), img + (x,)))
            rights = nxt
        pullbacks = self.pullbacks() if infinitely_legal else None
        for l, limg in lefts:
            for r, rimg in rights:
                img = limg + (c,) + rimg
                if pullbacks is None or pullbacks.is_infinitely_legal(img):
                    yield l + (center,) + r, img

    # -- languages --------------------------------------------------------------

    def pullbacks(self) -> LegalPullbacks:
        if self._pullbacks is None:
            self._pullbacks = LegalPullbacks(self.f)
        return self._pullbacks

    def is_level_path_legal(self, path, n: int) -> bool:
        return is_reduced(self.path_image(path, n))


# -- vector and weight towers -----------------------------------------------------


class VectorTower:
    """A non-negative eigenvector v with eigenvalue lambda > 1, read as the
    compatible family of level vectors v / lambda**n (never materialised).

    ``lam`` may be a certified root (refinable) or a plain interval; the
    vector is a tuple of intervals indexed by the positive edges.
    """

    def __init__(self, tower: StationaryTower, vector, lam):
        self.tower = tower
        self.lam_root = lam if hasattr(lam, "interval") else None
        self.lam = lam.interval() if self.lam_root is not None else lam
        self.vector = tuple(vector)
        if len(self.vector) != tower.graph.n_edges:
            raise PreconditionError("need one coordinate per positive edge")
        if not (self.lam > 1):
            raise PreconditionError("eigenvalue must certifiably exceed 1")
        for x in self.vector:
            if (x >= 0) is not True:
                raise PreconditionError("eigenvector must be non-negative")
        res = self.eigen_residual()
        if not all(ia.contains_zero(r) for r in res):
            raise PreconditionError(
                "vector is not a certified eigenvector of the transition matrix")

    def eigen_residual(self):
        m = self.f_matrix()
        out = []
        for i in range(len(self.vector)):
            acc = ia.zero()
            for j in range(len(self.vector)):
                if m[i][j]:
                    acc = acc + ia.exact(m[i][j]) * self.vector[j]
            out.append(acc - self.lam * self.vector[i])
        return out

    def f_matrix(self):
        return self.tower.f.transition_matrix()

    def level_scale(self, n: int):
        return self.lam ** (-n)

    def level_vector(self, n: int):
        s = self.level_scale(n)
        return tuple(v * s for v in self.vector)

    def sup_norm_level(self, n: int) -> float:
        return max(ia.sup_abs(v) for v in self.level_vector(n))

    def scaled(self, c):
        return VectorTower(self.tower, tuple(v * c for v in self.vector),
                           self.lam_root or self.lam)


@dataclass
class TowerMorphism:
    """A self-morphism of the stationary tower: the same map on every level.

    The level map must commute with the tower maps; powers of the defining
    map (including the identity) do so on the nose, and anything else is
    checked against the transition matrices.
    """

    tower: StationaryTower
    level_map: GraphMap

    def __post_init__(self):
        from .maps import matmul
        mg = self.matrix()
        mf = self.tower.f.transition_matrix()
        if matmul(mg, mf) != matmul(mf, mg):
            raise PreconditionError(
                "level map does not commute with the tower maps")

    def matrix(self):
        return self.level_map.transition_matrix()


def tower_self_morphism(tower: StationaryTower,
                        level_map: GraphMap = None) -> TowerMorphism:
    """The canonical self-morphism (every level mapped by the defining map),
    or a caller-supplied commuting level map such as the identity."""
    return TowerMorphism(tower, level_map if level_map is not None else tower.f)


def image_vector_tower(morphism: TowerMorphism, vt: VectorTower) -> VectorTower:
    """Push a vector tower through the morphism: level vectors multiply by the
    level transition matrix.  For the tower self-morphism this returns
    lambda times the input."""
    m = morphism.matrix()
    n = len(vt.vector)
    out = []
    for i in range(n):
        acc = ia.zero()
        for j in range(n):
            if m[i][j]:
                acc = acc + ia.exact(m[i][j]) * vt.vector[j]
        out.append(acc)
    return VectorTower(vt.tower, tuple(out), vt.lam_root or vt.lam)


class WeightTower:
    """Level-0 edge and turn weights of the weight tower induced by a vector
    tower; level-n values are the level-0 values divided by lambda**n.

    Turn weights follow the closed form: a junction turn of an edge image
    contributes ``lambda**-(k+1) v(e)`` for every orbit step k at which its
    direction orbit sits on the target turn; eventual periodicity turns the
    tail into a geometric series.  Illegal turns get weight exactly zero.
    """

    def __init__(self, vt: VectorTower):
        self.vt = vt
        self.tower = vt.tower
        self.lam = vt.lam
        graph = self.tower.graph
        self.edge_weight = {e: vt.vector[e >> 1] for e in graph.oriented_edges}
        self.turn_weight = {t: ia.zero() for t in graph.all_turns()}
        da = self.tower.directions
        lam_inv = 1 / self.lam
        # one orbit walk per junction turn adds its term to every turn the
        # orbit visits (a turn at most once); each turn's interval sum is
        # taken in (e, tau) order
        for e in graph.positive_edges:
            v_e = vt.vector[e >> 1]
            for tau in junction_turns(self.tower.f, e):
                if not da.is_legal(tau):
                    continue  # the orbit and every turn on it are illegal
                pre, cyc = da.orbit(tau)
                for k, t in enumerate(pre):
                    self.turn_weight[t] = self.turn_weight[t] + lam_inv ** (k + 1) * v_e
                q = len(cyc)
                for j, t in enumerate(cyc):
                    tail = lam_inv ** (len(pre) + j + 1) / (ia.one() - lam_inv ** q)
                    self.turn_weight[t] = self.turn_weight[t] + tail * v_e

    # -- level access -----------------------------------------------------------

    def edge_weight_at(self, e: int, n: int):
        return self.edge_weight[e] * self.vt.level_scale(n)

    def turn_weight_at(self, turn, n: int):
        return self.turn_weight[make_turn(*turn)] * self.vt.level_scale(n)

    def level_path_weight(self, path, n: int):
        """Weight of a level-n path: the common short-edge weight when it
        stays inside one subdivided edge, the crossed turn weight when it
        passes one unsubdivided vertex.  More than one crossing is out of
        range for the weight of a path."""
        crossed = self.tower.crossed_turns(path, n)
        if len(crossed) > 1:
            raise PreconditionError(
                "path weight needs at most one unsubdivided-vertex crossing; "
                "use a higher level")
        if crossed:
            return self.turn_weight_at(crossed[0], n)
        return self.edge_weight_at(path[0][0], n)

    # -- structural checks ---------------------------------------------------------

    def switch_residuals(self):
        """Interval residuals of the switch conditions at every direction:
        the weight of the edge leaving a vertex minus the total weight of the
        local edges (turns) at that direction."""
        graph = self.tower.graph
        out = {}
        for v in graph.vertices:
            for d in graph.directions_at(v):
                acc = ia.zero()
                for d2 in graph.directions_at(v):
                    if d2 != d:
                        acc = acc + self.turn_weight[make_turn(d, d2)]
                out[d] = self.edge_weight[d] - acc
        return out

    def check_switch_conditions(self) -> bool:
        return all(ia.contains_zero(r) for r in self.switch_residuals().values())

    def check_illegal_zero(self) -> bool:
        da = self.tower.directions
        return all(ia.is_exact_zero(w) for t, w in self.turn_weight.items()
                   if not da.is_legal(t))

    def check_turn_bounds(self):
        """Turn weights never exceed the adjacent edge weights."""
        for (d1, d2), w in self.turn_weight.items():
            for d in (d1, d2):
                if (w <= self.edge_weight[d]) is False:
                    return False
        return True

    def compatibility_residual(self):
        """Level compatibility of edge weights reduces to the eigen identity."""
        return self.vt.eigen_residual()


def weight_tower_from_vector(tower: StationaryTower, vt: VectorTower) -> WeightTower:
    if vt.tower is not tower:
        raise PreconditionError("vector tower belongs to a different tower")
    wt = WeightTower(vt)
    if not wt.check_switch_conditions():
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

    status_found = "found"
    status_not_found = "not-found-within-cap"

    @property
    def status(self) -> str:
        return self.status_found if self.found else self.status_not_found


def repetition_bound(tower: StationaryTower, n: int, cap: int,
                     infinitely_legal: bool = True) -> RepetitionSearch:
    """Search for the least radius rho <= cap such that any two level-n
    windows of length 2 rho + 1 with the same image pin the same middle
    (oriented) short edge.

    Windows range over infinitely legal level-n paths by default; the
    stricter variant quantifies over all legal ones.
    """
    for rho in range(cap + 1):
        witness = _violating_pair(tower, n, rho, infinitely_legal)
        if witness is None:
            return RepetitionSearch(level=n, cap=cap, bound=rho)
    return RepetitionSearch(level=n, cap=cap, witness=witness)


def _violating_pair(tower, n, rho, infinitely_legal):
    seen = {}
    for center in tower.short_edges(n):
        for w, img in tower.legal_windows(center, rho, n, infinitely_legal):
            if img in seen and seen[img][0] != center:
                return (seen[img][1], w)
            seen[img] = (center, w)
    return None
