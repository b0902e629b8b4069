"""Two test references for the languages of a self-map.

``rescan_used_language`` is the used language (the subpaths of iterated
edge images, the one language of ``ttm.maps``) by a full rescan, which
shares nothing with the window worklist but ``map_path``.

``BackwardPullbacks`` decides whether a path is infinitely legal, a larger
language that ``ttm.maps`` once kept: it pulls the path back through
minimal covers until it reaches a pullback cycle.  It shares nothing with
the library but the map's cover start index (``GraphMap.cover_starts``) and
reduced successor table.  ``InfinitelyLegal`` puts it in the interface of
``f.legal``, so the library's searches can run over the old language.
"""

import functools

from ttm.graphs import inverse, make_turn, subpaths_up_to
from ttm.maps import DirectionAnalysis, GraphMap, require_expanding_train_track


def rescan_used_language(f: GraphMap, max_length: int) -> frozenset:
    """Reference fixpoint over whole subpath sets: the subpaths of the images
    of every oriented edge, then the subpaths of the image of each new
    subpath, until no new subpath appears."""
    found, new = set(), set()
    for e in f.domain.oriented_edges:
        new |= subpaths_up_to(f.image(e), max_length)
    while new:
        found |= new
        new = set().union(*(subpaths_up_to(f.map_path(p), max_length) for p in new)) - found
    return frozenset(found)


@functools.cache
def used_reference(f: GraphMap, length: int) -> frozenset:
    """The rescanned used paths of exactly this length, once per map and
    length."""
    return frozenset(p for p in rescan_used_language(f, length) if len(p) == length)


def search_legal_covers(f: GraphMap, successors, path):
    """The covers of a non-empty path, depth first over the start index and
    the successor table ``successors[e]``, which indexes the pairs
    ``(d, f(d))`` that may follow e by the first edge of ``f(d)``."""
    n = len(path)
    covers = []
    stack = [((), 0)]
    while stack:
        cover, pos = stack.pop()
        if pos >= n:
            covers.append(cover)
            continue
        nxt = (successors[cover[-1]] if cover else f.cover_starts).get(path[pos], ())
        for d, block in reversed(nxt):
            end = pos + len(block)
            if path[pos:end] == block[:n - pos]:
                stack.append((cover + (d,), end))
    return covers


class BackwardPullbacks:
    """For a reduced path p, a *minimal cover* is a legal path d with p
    occurring inside the image of d, touching the first and last image
    block.  Minimal covers never get longer than max(1, len(p)), so iterated
    pullback explores a finite state space and "pullable forever" is
    equivalent to reaching a pullback cycle.

    The cover search walks the reduced successor table restricted to the
    legal continuations d (the turn ``(e^-1, d)`` legal); the legal
    successor table also decides legality of a path letter pair by letter
    pair.  Verdicts and covers are memoised across queries; only legal paths
    ever enter the verdict memo, so a query reads it before anything else.
    """

    def __init__(self, f: GraphMap):
        require_expanding_train_track(f)
        self.f = f
        self.da = DirectionAnalysis(f)
        self._next = tuple(
            {x: [(d, block) for d, block in pairs
                 if self.da.is_legal(make_turn(inverse(e), d))]
             for x, pairs in nxt.items()}
            for e, nxt in enumerate(f.reduced_successors))
        self._legal_next = tuple(frozenset(d for pairs in nxt.values() for d, _ in pairs)
                                 for nxt in self._next)
        self._covers = {}
        self._verdict = {}

    def minimal_covers(self, path):
        path = tuple(path)
        if path in self._covers:
            return self._covers[path]
        if not path:
            results = {(e0,) for e0 in self.f.domain.oriented_edges}
        else:
            results = search_legal_covers(self.f, self._next, path)
        self._covers[path] = frozenset(results)
        return self._covers[path]

    def is_infinitely_legal(self, path) -> bool:
        path = tuple(path)
        good = self._verdict
        if path in good:
            return good[path]
        legal_next = self._legal_next
        if not all(path[i + 1] in legal_next[path[i]] for i in range(len(path) - 1)):
            return False
        colour = {}

        def dfs(p):
            if p in good:
                return good[p]
            if colour.get(p) == "grey":
                return True  # cycle
            colour[p] = "grey"
            result = False
            for c in self.minimal_covers(p):
                if (c in good and good[c]) or colour.get(c) == "grey" or dfs(c):
                    result = True
                    break
            colour[p] = "black"
            good[p] = result
            return result

        return dfs(path)


class InfinitelyLegal:
    """The infinitely legal language in the interface of ``f.legal``:
    ``paths_of_length`` by one-edge extension of the backward verdicts,
    memoised per length, and ``is_infinitely_legal``.  The language is
    closed under subpaths, so only the extensions whose last n edges are a
    member of length n are decided.  Install it on a fresh map as
    ``f.__dict__["legal"]`` to run a search over the old language."""

    def __init__(self, f: GraphMap):
        self.pullbacks = BackwardPullbacks(f)
        self.is_infinitely_legal = self.pullbacks.is_infinitely_legal
        g = f.domain
        self._extensions = g.extensions_right
        self._by_length = [frozenset(), frozenset(
            (e,) for e in g.oriented_edges if self.is_infinitely_legal((e,)))]

    def paths_of_length(self, n: int, longest: int = None) -> frozenset:
        while len(self._by_length) <= n:
            last = self._by_length[-1]
            self._by_length.append(frozenset(
                p + (e1,) for p in last for e1 in self._extensions(p)
                if p[1:] + (e1,) in last and self.is_infinitely_legal(p + (e1,))))
        return self._by_length[max(n, 0)]
