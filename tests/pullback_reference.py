"""The backward decision of infinite legality, kept as a test reference.

``BackwardPullbacks`` decides whether a path is infinitely legal by pulling
it back through minimal covers until it reaches a pullback cycle, the way
``ttm.maps.LegalPullbacks`` did before infinite legality was read off the
forward image windows.  It shares nothing with the forward decision but the
map's cover start index (``GraphMap.cover_starts``) and reduced successor
table, so the equivalence tests compare two independent routes.
"""

import functools

from ttm.graphs import inverse, make_turn
from ttm.maps import DirectionAnalysis, GraphMap, require_expanding_train_track


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


def backward_language(pullbacks, max_length: int) -> frozenset:
    """The infinitely legal paths of length 1 to max_length, by one-edge
    extension: the language is closed under subpaths, so every member of
    length l+1 extends a member of length l."""
    g = pullbacks.f.domain
    frontier = [(e,) for e in g.oriented_edges if pullbacks.is_infinitely_legal((e,))]
    collected = set(frontier)
    for _ in range(max_length - 1):
        frontier = [p + (e1,) for p in frontier for e1 in g.extensions_right(p)
                    if pullbacks.is_infinitely_legal(p + (e1,))]
        collected.update(frontier)
    return frozenset(collected)


@functools.cache
def backward_pullbacks(f: GraphMap) -> BackwardPullbacks:
    """One shared reference per map, so its memos serve every query."""
    return BackwardPullbacks(f)
