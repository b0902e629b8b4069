"""Graph maps, transition matrices, and the train track decision procedures.

A graph map sends vertices to vertices and edges to edge paths.  The image of
a reversed edge is the reversed image, so only positive-edge images are
stored.  Raw composition does not reduce (whether iterates stay reduced is
exactly the train track property), and composition reports whether
cancellation occurred.

Self-map analysis works through the direction map ``Df`` (an edge goes to the
first edge of its image).  A turn is *legal* when no ``Df`` iterate makes it
degenerate; eventually periodic direction orbits decide this by a finite
walk.  The map owns its analyses, each built once, on first use: the
memoised orbits (``GraphMap.directions``), read by the train track test and
the towers, and the used language (``GraphMap.legal``), the subpaths of
iterated edge images, read by ``used_language``, the tower windows, the
repetition search and the support tables.
"""

from __future__ import annotations

import weakref
from functools import cached_property

from .errors import MapError, PreconditionError
from .graphs import (
    Graph, inverse, is_reduced, make_turn, is_degenerate, reverse_path, turns_of,
)


class GraphMap:
    """A map between graphs: vertex images plus one edge path per positive edge.

    Images may be unreduced or trivial (that happens under raw composition and
    for contracted local edges in the blow-up dialect); operations that need
    reduced non-trivial images check and raise.
    """

    def __init__(self, domain: Graph, codomain: Graph, vertex_image, edge_image,
                 name=None):
        self.domain = domain
        self.codomain = codomain
        self.vertex_image = vi = tuple(map(int, vertex_image))
        self.edge_image = tuple(map(tuple, edge_image))
        self.name = name
        if len(vi) != domain.n_vertices:
            raise MapError("need one image per domain vertex")
        if len(self.edge_image) != domain.n_edges:
            raise MapError("need one image path per positive domain edge")
        if not (0 <= min(vi) and max(vi) < codomain.n_vertices):
            raise MapError("vertex image out of range")
        # each image runs from the image of its edge's initial vertex to that
        # of its terminal one, through adjacent edges
        heads, tails, n = codomain._heads, codomain._tails, 2 * codomain.n_edges
        for (u, w), p, label in zip(domain._endpoints, self.edge_image, domain.edge_labels):
            v = vi[u]
            for e in p:
                if not 0 <= e < n or tails[e] != v:
                    break
                v = heads[e]
            else:
                if v == vi[w]:
                    continue
            if not codomain.is_path(p):
                raise MapError(f"image of edge {label} is not a path")
            raise MapError(f"image of edge {label} does not run between "
                           "the images of its endpoints")

    # -- application ---------------------------------------------------------

    @cached_property
    def oriented_images(self):
        """The image path of each oriented edge, indexed by edge id."""
        return tuple(p for q in self.edge_image for p in (q, reverse_path(q)))

    def image(self, e: int):
        """Image path of an oriented edge."""
        return self.oriented_images[e]

    def vertex(self, v: int) -> int:
        return self.vertex_image[v]

    @cached_property
    def directions(self) -> DirectionAnalysis:
        """The direction analysis of this self-map, built on first use."""
        return DirectionAnalysis(self)

    @cached_property
    def legal(self) -> LegalPullbacks:
        """The used language of this self-map (the lamination's), built on
        first use."""
        return LegalPullbacks(self)

    def map_path(self, path):
        """Image of an edge path; concatenation only, no free reduction."""
        images = self.oriented_images
        out = []
        for e in path:
            out += images[e]
        return tuple(out)

    # -- structural properties -------------------------------------------------

    def images_reduced(self) -> bool:
        return all(is_reduced(p) for p in self.edge_image)

    def images_nontrivial(self) -> bool:
        return all(len(p) >= 1 for p in self.edge_image)

    def require_tame(self, what="operation"):
        if not self.images_nontrivial():
            raise PreconditionError(f"{what}: map has contracted edges")
        if not self.images_reduced():
            raise PreconditionError(f"{what}: map has unreduced edge images")

    def is_self_map(self) -> bool:
        return self.domain is self.codomain or _same_graph(self.domain, self.codomain)

    def __eq__(self, other):
        if not isinstance(other, GraphMap):
            return NotImplemented
        return (_same_graph(self.domain, other.domain)
                and _same_graph(self.codomain, other.codomain)
                and self.vertex_image == other.vertex_image
                and self.edge_image == other.edge_image)

    def __hash__(self):
        return hash((self.vertex_image, self.edge_image))

    def __repr__(self):
        name = self.name or "f"
        ims = ", ".join(
            f"{self.domain.edge_labels[k]}->{self.codomain.path_label(p) or '.'}"
            for k, p in enumerate(self.edge_image))
        return f"GraphMap {name}: {ims}"

    # -- matrices ------------------------------------------------------------------

    def transition_matrix(self):
        """Non-negative integer matrix: entry (e', e) counts how often the image
        of e crosses e' in either orientation.  Rows are indexed by the
        codomain's positive edges, columns by the domain's, in stored order.
        """
        rows = self.codomain.n_edges
        cols = self.domain.n_edges
        m = [[0] * cols for _ in range(rows)]
        for k in range(cols):
            for e in self.edge_image[k]:
                m[e >> 1][k] += 1
        return tuple(tuple(r) for r in m)

    def iterate_image(self, e: int, t: int):
        """Image of the oriented edge e under the t-th iterate (self-maps)."""
        if not self.is_self_map():
            raise MapError("iteration needs a self-map")
        p = (e,)
        for _ in range(t):
            p = self.map_path(p)
        return p

    # -- cover search tables -------------------------------------------------------

    @cached_property
    def cover_starts(self):
        """Start index of :func:`search_covers`: for each codomain edge x, the
        pairs ``(e0, f(e0)[off:])`` whose image tail begins with x, in
        (oriented edge, offset) order."""
        starts = {}
        for e0 in self.domain.oriented_edges:
            img0 = self.image(e0)
            for off in range(len(img0)):
                starts.setdefault(img0[off], []).append((e0, img0[off:]))
        return starts

    @cached_property
    def reduced_successors(self):
        """Successor table of :func:`search_covers`: for each oriented edge
        e, the pairs ``(d, f(d))`` with ``e d`` reduced, in ``directions_at``
        order, indexed by the first edge of a non-trivial ``f(d)``."""
        g = self.domain
        table = []
        for e in g.oriented_edges:
            index = {}
            for d in g.extensions_right((e,)):
                block = self.image(d)
                if block:
                    index.setdefault(block[0], []).append((d, block))
            table.append(index)
        return tuple(table)


def search_covers(f: GraphMap, path):
    """The covers of a non-empty codomain path: the reduced domain paths d
    whose image holds ``path`` in an occurrence touching the first and last
    image block, one per occurrence, depth first over ``f.cover_starts`` and
    ``f.reduced_successors``, trying only blocks that start with the next
    edge of the path.  A stack entry ``(cover, pos)`` has the image of
    ``cover`` (from the occurrence start) matching ``path[:pos]``.
    """
    n = len(path)
    covers = []
    stack = [((), 0)]
    while stack:
        cover, pos = stack.pop()
        if pos >= n:
            covers.append(cover)
            continue
        nxt = (f.reduced_successors[cover[-1]] if cover else f.cover_starts).get(path[pos], ())
        for d, block in reversed(nxt):
            end = pos + len(block)
            if path[pos:end] == block[:n - pos]:
                stack.append((cover + (d,), end))
    return covers


def _same_graph(g1: Graph, g2: Graph) -> bool:
    return g1 is g2 or (g1._endpoints == g2._endpoints
                        and g1.n_vertices == g2.n_vertices)


def identity_map(g: Graph) -> GraphMap:
    return GraphMap(g, g, range(g.n_vertices), [(2 * k,) for k in range(g.n_edges)],
                    name="id")


def compose(g: GraphMap, f: GraphMap) -> GraphMap:
    """g after f.  Images are not freely reduced; inspect
    ``images_reduced()`` on the result to see whether cancellation occurred.
    """
    if not _same_graph(f.codomain, g.domain):
        raise MapError("compose: codomain of f must equal domain of g")
    vimg = tuple(g.vertex_image[v] for v in f.vertex_image)
    eimg = tuple(g.map_path(p) for p in f.edge_image)
    return GraphMap(f.domain, g.codomain, vimg, eimg)


def matmul(a, b):
    """Integer matrix product (tuples of tuples)."""
    if not b:
        return a
    n, k, m = len(a), len(b), len(b[0])
    assert all(len(r) == k for r in a)
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
                 for i in range(n))


# -- direction map and turn legality ------------------------------------------------


class DirectionAnalysis:
    """Direction map Df of a self-map plus memoised turn-orbit data.

    ``Df(e)`` is the first edge of the image of ``e``.  Orbits of turns under
    Df are eventually periodic; a turn is illegal iff its orbit ever becomes
    degenerate, which the memoised orbit records as its last turn.  Read it
    as ``f.directions``, the one analysis of the map.
    """

    def __init__(self, f: GraphMap):
        f.require_tame("direction analysis")
        if not f.is_self_map():
            raise MapError("direction analysis needs a self-map")
        self.df = tuple(f.image(e)[0] for e in f.domain.oriented_edges)
        self._orbit = {}

    def map_turn(self, turn):
        return make_turn(self.df[turn[0]], self.df[turn[1]])

    def orbit(self, turn):
        """(preperiod, cycle) of the Df-orbit of a turn.

        ``preperiod`` is the list of turns before the first repetition and
        ``cycle`` the periodic part; if the orbit hits a degenerate turn the
        walk stops there, the degenerate turn is the cycle, and the turn is
        illegal.
        """
        turn = make_turn(*turn)
        if turn in self._orbit:
            return self._orbit[turn]
        seq = []
        seen = {}
        t = turn
        while True:
            if is_degenerate(t):
                pre, cyc = seq, [t]
                break
            if t in seen:
                i = seen[t]
                pre, cyc = seq[:i], seq[i:]
                break
            seen[t] = len(seq)
            seq.append(t)
            t = self.map_turn(t)
        result = (tuple(pre), tuple(cyc))
        self._orbit[turn] = result
        return result

    def is_legal(self, turn) -> bool:
        return not is_degenerate(self.orbit(turn)[1][-1])

    def death_time(self, turn):
        """Least k with Df^k(turn) degenerate, or None for legal turns."""
        return None if self.is_legal(turn) else len(self.orbit(turn)[0])


def is_train_track(f: GraphMap):
    """Decide the train track property for a self-map with reduced non-trivial
    edge images.

    Returns ``(True, None)`` or ``(False, (e, t))`` where the iterate image of
    the witness edge ``e`` under the t-th power is unreduced.
    """
    f.require_tame("train track test")
    da = f.directions
    worst = None
    for e in f.domain.positive_edges:
        for turn in turns_of(f.image(e)):
            k = da.death_time(turn)
            if k is not None:
                # the degenerate image shows up one application later
                cand = (e, k + 1)
                if worst is None or cand[1] < worst[1]:
                    worst = cand
    if worst is None:
        return True, None
    return False, worst


def is_expanding(f: GraphMap) -> bool:
    """True iff every edge eventually has image length >= 2.

    Image lengths are non-decreasing under iteration, so an edge fails only by
    running forever through the chain of edges with single-edge images.
    """
    f.require_tame("expanding test")
    for start in f.domain.positive_edges:
        e = start
        seen = set()
        while len(f.image(e)) == 1:
            if e in seen:
                return False
            seen.add(e)
            e = f.image(e)[0]
    return True


def require_expanding_train_track(f: GraphMap):
    ok, witness = is_train_track(f)
    if not ok:
        e, t = witness
        raise PreconditionError(
            f"not a train track map: iterate {t} of edge "
            f"{f.domain.edge_labels[e >> 1]} is unreduced")
    if not is_expanding(f):
        raise PreconditionError("map is not expanding")


# -- homotopy equivalence via Stallings folding ---------------------------------------


def _spanning_tree(g: Graph):
    """BFS tree: parent direction per vertex (None at the root)."""
    parent = {0: None}
    order = [0]
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for d in g.directions_at(v):
            w = g.terminal(d)
            if w not in parent:
                parent[w] = d
                order.append(w)
    return parent


def _tree_path(g: Graph, parent, v):
    """Edge path from the root to v inside the tree."""
    path = []
    while parent[v] is not None:
        d = parent[v]
        path.append(d)
        v = g.initial(d)
    return tuple(reversed(path))


def _loop_word(path, gen_of_edge):
    """Collapse the spanning tree: a closed path becomes a word in the free
    generators (non-tree positive edges), as a tuple of signed generator ids
    (1-based, negative = inverse), freely reduced.
    """
    word = []
    for e in path:
        k = gen_of_edge.get(e >> 1)
        if k is None:
            continue
        g = k + 1 if e % 2 == 0 else -(k + 1)
        if word and word[-1] == -g:
            word.pop()
        else:
            word.append(g)
    return tuple(word)


def fundamental_group_images(f: GraphMap):
    """Words (in a fixed free basis of the fundamental group) generating the
    image subgroup of the induced endomorphism, plus the rank."""
    if not f.is_self_map():
        raise MapError("fundamental group analysis needs a self-map")
    g = f.domain
    parent = _spanning_tree(g)
    gen_of_edge = {}
    for k in range(g.n_edges):
        e = 2 * k
        if parent.get(g.terminal(e)) == e or parent.get(g.initial(e)) == inverse(e):
            continue  # tree edge
        gen_of_edge[k] = len(gen_of_edge)
    rank = len(gen_of_edge)
    assert rank == g.rank()
    base_paths = {v: _tree_path(g, parent, v) for v in g.vertices}
    q = base_paths[f.vertex(0)]  # root .. image of root
    words = []
    for k in sorted(gen_of_edge):
        e = 2 * k
        loop = (q
                + f.map_path(base_paths[g.initial(e)])
                + f.image(e)
                + reverse_path(f.map_path(base_paths[g.terminal(e)]))
                + reverse_path(q))
        words.append(_loop_word(loop, gen_of_edge))
    return words, rank


def subgroup_is_whole_group(words, rank) -> bool:
    """Does the subgroup generated by the words equal the whole free group?

    The words are wedged as loops at the basepoint, state 0, and folded
    (Stallings) by a worklist: each state has one signed letter -> state
    dict, a second edge with a letter already there queues its target and
    the first one for merging, and a merge moves the smaller dict into the
    larger.  Membership of a basis letter is then a labelled loop at the
    basepoint, and containing every basis letter is equivalent to being the
    whole group.
    """
    if rank == 0:
        return True
    out = [{}]       # out[state]: signed letter -> state (not yet merged away)
    parent = [0]     # merged states point towards their representative
    clashes = []

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def add(u, letter, v):
        w = out[u].setdefault(letter, v)
        if w != v:
            clashes.append((w, v))

    for word in words:
        cur = 0
        for i, letter in enumerate(word):
            if i == len(word) - 1:
                target = 0
            else:
                target = len(out)
                out.append({})
                parent.append(target)
            add(cur, letter, target)
            add(target, -letter, cur)
            cur = target
    while clashes:
        a, b = map(find, clashes.pop())
        if a != b:
            if len(out[a]) < len(out[b]):
                a, b = b, a
            parent[b] = a
            for letter, v in out[b].items():
                add(a, letter, v)
            out[b] = None
    base = find(0)
    at_base = out[base]
    return all(k in at_base and find(at_base[k]) == base for k in range(1, rank + 1))


def is_homotopy_equivalence(f: GraphMap) -> bool:
    """True iff the induced endomorphism of the fundamental group is an
    automorphism.

    Surjectivity is decided by Stallings folding of the image subgroup, and a
    surjective endomorphism of a free group is automatically injective
    (free groups are Hopfian), so surjectivity suffices.
    """
    if not f.is_self_map():
        raise MapError("homotopy equivalence test needs a self-map")
    words, rank = fundamental_group_images(f)
    return subgroup_is_whole_group(words, rank)


# -- languages -------------------------------------------------------------------


def image_windows(f: GraphMap, starts, max_length: int):
    """The windows of the start paths and of their iterated images: factors
    of length ``min(max_length, len(W))`` of a start or of the image ``W`` of
    a window, found by a worklist that maps each window once.

    Every subpath of length <= max_length of a start or of an iterated image
    of one lies in a window, and the image of a subpath is a subpath of the
    image of its window (``map_path`` concatenates without reduction), so
    the subpaths of the windows are the whole fixpoint.
    """
    windows = set()
    if max_length < 1:
        return windows
    todo = []

    def visit(path):
        k = min(max_length, len(path))
        for i in range(len(path) - k + 1):
            w = path[i:i + k]
            if w not in windows:
                windows.add(w)
                todo.append(w)

    for s in starts:
        visit(s)
    while todo:
        visit(f.map_path(todo.pop()))
    return windows


def used_language(f: GraphMap, max_length: int) -> frozenset:
    """Reduced paths of length <= max_length occurring as subpaths of some
    iterated edge image, the finite language of the attracting lamination:
    the members of lengths 1 to max_length of ``f.legal``, the longest first
    (one fixpoint).  Needs an expanding train track map (iterated images of
    other maps need not be reduced)."""
    return frozenset().union(*map(f.legal.paths_of_length, range(max_length, 0, -1)))


class LegalPullbacks:
    """The used language of a self-map (see :func:`used_language`), one
    window fixpoint for every length.

    The windows ``image_windows(f, f.edge_image, N)``, at the longest length
    N asked for so far, answer every length n <= N: their length-n factors
    are the length-n subpaths of the iterated positive edge images, and
    their reversals those of the reversed edges.  The windows shorter than
    N count too: they are whole images, such as the image of an edge that
    occurs in no image, which need not be a factor of a longer window.

    Read it as ``f.legal``.  The class and ``is_infinitely_legal`` keep the
    names of the infinitely legal language that this replaced (a larger
    one, on which every measure vanishes off this one), as ``bench/tracer.py``
    and ``tests/test_traced_names.py`` pin ``is_infinitely_legal``, which no
    bench job calls.
    """

    def __init__(self, f: GraphMap):
        require_expanding_train_track(f)
        self.f = weakref.proxy(f)    # f owns this (f.legal): no reference cycle
        self.built = 0               # the length of the fixpoint built so far
        self._windows = set()
        self._by_length = {}

    def paths_of_length(self, n: int, longest: int = None):
        """The used paths of length n.  Past the built length N the fixpoint
        is rebuilt at ``max(n, min(2 N, longest))``, so a caller that will
        ask up to ``longest`` (default n) gets few builds."""
        if n > self.built:
            self.built = max(n, min(2 * self.built, longest or n))
            self._windows = image_windows(self.f, self.f.edge_image, self.built)
        if n not in self._by_length and n > 0:
            paths = {w[i:i + n] for w in self._windows for i in range(len(w) - n + 1)}
            self._by_length[n] = frozenset(paths | set(map(reverse_path, paths)))
        return self._by_length.get(n, frozenset())

    def is_infinitely_legal(self, path) -> bool:
        """Is the path in the used language?"""
        return tuple(path) in self.paths_of_length(len(path))
