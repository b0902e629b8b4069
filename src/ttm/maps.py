"""Graph maps, transition matrices, and the train track decision procedures.

A graph map sends vertices to vertices and edges to edge paths.  The image of
a reversed edge is the reversed image, so only positive-edge images are
stored.  Raw composition does not reduce (whether iterates stay reduced is
exactly the train track property), and composition reports whether
cancellation occurred.

Self-map analysis works through the direction map ``Df`` (an edge goes to the
first edge of its image).  A turn is *legal* when no ``Df`` iterate makes it
degenerate; since direction orbits are eventually periodic this is decided by
a finite orbit walk, memoised in a legality table that the tower and measure
layers reuse heavily.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import MapError, PreconditionError
from .graphs import (
    Graph, Language, inverse, is_reduced, make_turn, is_degenerate,
    reverse_path, subpaths_up_to, turns_of,
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
        self.vertex_image = tuple(int(v) for v in vertex_image)
        self.edge_image = tuple(tuple(p) for p in edge_image)
        self.name = name
        if len(self.vertex_image) != domain.n_vertices:
            raise MapError("need one image per domain vertex")
        if len(self.edge_image) != domain.n_edges:
            raise MapError("need one image path per positive domain edge")
        for v in self.vertex_image:
            if not (0 <= v < codomain.n_vertices):
                raise MapError("vertex image out of range")
        for k, p in enumerate(self.edge_image):
            if not codomain.is_path(p):
                raise MapError(f"image of edge {domain.edge_labels[k]} is not a path")
            e = 2 * k
            u, w = domain.initial(e), domain.terminal(e)
            pu = self.vertex_image[u]
            pw = self.vertex_image[w]
            iu = codomain.initial(p[0]) if p else pu
            iw = codomain.terminal(p[-1]) if p else pu
            if (iu, iw) != (pu, pw):
                raise MapError(
                    f"image of edge {domain.edge_labels[k]} does not run between "
                    "the images of its endpoints")

    # -- application ---------------------------------------------------------

    def image(self, e: int):
        """Image path of an oriented edge."""
        p = self.edge_image[e >> 1]
        return p if e % 2 == 0 else reverse_path(p)

    def vertex(self, v: int) -> int:
        return self.vertex_image[v]

    def map_path(self, path):
        """Image of an edge path; concatenation only, no free reduction."""
        out = []
        for e in path:
            out.extend(self.image(e))
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


def power(f: GraphMap, t: int) -> GraphMap:
    if t < 0:
        raise MapError("negative power")
    out = identity_map(f.domain)
    for _ in range(t):
        out = compose(f, out)
    return out


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
    degenerate.  Build once per map, then read-only.
    """

    def __init__(self, f: GraphMap):
        f.require_tame("direction analysis")
        if not f.is_self_map():
            raise MapError("direction analysis needs a self-map")
        self.f = f
        self.df = tuple(f.image(e)[0] for e in f.domain.oriented_edges)
        self._legal = {}
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
        turn = make_turn(*turn)
        if turn not in self._legal:
            _, cyc = self.orbit(turn)
            self._legal[turn] = not (len(cyc) == 1 and is_degenerate(cyc[0]))
        return self._legal[turn]

    def death_time(self, turn):
        """Least k with Df^k(turn) degenerate, or None for legal turns."""
        turn = make_turn(*turn)
        if self.is_legal(turn):
            return None
        pre, _ = self.orbit(turn)
        return len(pre)

    def is_legal_path(self, path) -> bool:
        """A path is legal iff every turn it crosses is legal (train track
        maps keep edges legal, so this is equivalent to all iterated images
        staying reduced)."""
        if not is_reduced(path):
            return False
        return all(self.is_legal(t) for t in turns_of(path))


def junction_turns(f: GraphMap, e: int):
    """Turns crossed by the image path of e (at its interior vertices)."""
    return turns_of(f.image(e))


def is_train_track(f: GraphMap):
    """Decide the train track property for a self-map with reduced non-trivial
    edge images.

    Returns ``(True, None)`` or ``(False, (e, t))`` where the iterate image of
    the witness edge ``e`` under the t-th power is unreduced.
    """
    f.require_tame("train track test")
    da = DirectionAnalysis(f)
    worst = None
    for e in f.domain.positive_edges:
        for turn in junction_turns(f, e):
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


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        root = x
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        while self.parent.get(x, x) != x:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        a, b = self.find(a), self.find(b)
        if a != b:
            self.parent[a] = b
        return b


def _folded_wedge(words):
    """Stallings graph of the subgroup generated by ``words``: wedge the
    loops at a basepoint and fold until no state carries two equal-letter
    edges.  Returns ``(transitions, find)`` with
    ``transitions[state][signed letter] -> state`` an immersion.
    """
    uf = _UnionFind()
    edges = []
    fresh = [1]  # state 0 is the basepoint

    def new_state():
        fresh[0] += 1
        return fresh[0] - 1

    for w in words:
        cur = 0
        for i, letter in enumerate(w):
            target = 0 if i == len(w) - 1 else new_state()
            edges.append((cur, letter, target))
            edges.append((target, -letter, cur))
            cur = target
    while True:
        out = {}
        clash = None
        for u, letter, v in edges:
            u, v = uf.find(u), uf.find(v)
            key = (u, letter)
            if key in out and out[key] != v:
                clash = (out[key], v)
                break
            out[key] = v
        if clash is None:
            transitions = {}
            for (u, letter), v in out.items():
                transitions.setdefault(u, {})[letter] = v
            return transitions, uf.find
        uf.union(*clash)


def subgroup_is_whole_group(words, rank) -> bool:
    """Does the subgroup generated by the words equal the whole free group?

    Membership of a basis letter is a labelled loop at the basepoint of the
    folded graph, and containing every basis letter is equivalent to being
    the whole group.
    """
    if rank == 0:
        return True
    transitions, find = _folded_wedge(words)
    base = find(0)
    at_base = transitions.get(base, {})
    return all(at_base.get(k) == base for k in range(1, rank + 1))


def abelianized_matrix(words, rank):
    """Signed letter-count matrix of the words (rows = generators)."""
    m = [[0] * len(words) for _ in range(rank)]
    for j, w in enumerate(words):
        for letter in w:
            m[abs(letter) - 1][j] += 1 if letter > 0 else -1
    return m


def _det(mat) -> Fraction:
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for i in range(n):
        p = next((r for r in range(i, n) if a[r][i] != 0), None)
        if p is None:
            return Fraction(0)
        if p != i:
            a[i], a[p] = a[p], a[i]
            det = -det
        det *= a[i][i]
        inv = 1 / a[i][i]
        for r in range(i + 1, n):
            if a[r][i]:
                c = a[r][i] * inv
                for cidx in range(i, n):
                    a[r][cidx] -= c * a[i][cidx]
    return det


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


def abelianization_determinant(f: GraphMap) -> Fraction:
    words, rank = fundamental_group_images(f)
    if rank == 0:
        return Fraction(1)
    return _det(abelianized_matrix(words, rank))


# -- languages -------------------------------------------------------------------


def used_language(f: GraphMap, max_length: int) -> Language:
    """Reduced paths of length <= max_length occurring as subpaths of some
    iterated edge image (together with their reversals).

    Computed as a fixpoint: minimal covering subpaths never exceed the target
    length, so the subpath set of iterate t+1 is generated by mapping the
    subpath set of iterate t, and stabilisation of one step is stabilisation
    forever.
    """
    if not is_expanding(f):
        raise PreconditionError("used language needs an expanding map")
    current = set()
    for e in f.domain.oriented_edges:
        current |= subpaths_up_to(f.image(e), max_length)
    while True:
        new = set(current)
        for p in current:
            new |= subpaths_up_to(f.map_path(p), max_length)
        if new == current:
            break
        current = new
    return Language(frozenset(current), max_length)


class LegalPullbacks:
    """Backward-occurrence machinery used to decide infinite legality.

    For a reduced path p, a *minimal cover* is a legal path d with p occurring
    inside the image of d, touching the first and last image block.  Minimal
    covers never get longer than max(1, len(p)), so iterated pullback explores
    a finite state space and "pullable forever" is equivalent to reaching a
    pullback cycle.

    Two tables, built once per map, drive the search.  The *start index*
    lists, for each edge x, the pairs ``(e0, f(e0)[off:])`` whose image tail
    begins with x: the possible first blocks of an occurrence of a path that
    starts with x.  The *successor table* lists, for each edge e, the legal
    continuations d (``d != e^-1`` and the turn ``(e^-1, d)`` legal) together
    with their image blocks.  A cover search then only walks legal paths and
    matches each appended block against the path at a running position.  The
    successor table also decides legality of a path letter pair by letter
    pair.  Verdicts and covers are memoised across queries; only legal paths
    ever enter the verdict memo, so a query reads it before anything else.
    """

    def __init__(self, f: GraphMap):
        require_expanding_train_track(f)
        self.f = f
        self.da = DirectionAnalysis(f)
        g = f.domain
        self._next = tuple(
            tuple((d, f.image(d)) for d in g.directions_at(g.terminal(e))
                  if d != inverse(e) and self.da.is_legal(make_turn(inverse(e), d)))
            for e in g.oriented_edges)
        self._legal_next = tuple(frozenset(d for d, _ in nxt) for nxt in self._next)
        starts = {}
        for e0 in g.oriented_edges:
            img0 = f.image(e0)
            for off in range(len(img0)):
                starts.setdefault(img0[off], []).append((e0, img0[off:]))
        self._starts = starts
        self._covers = {}
        self._verdict = {}

    def minimal_covers(self, path):
        path = tuple(path)
        if path in self._covers:
            return self._covers[path]
        if not path:
            results = {(e0,) for e0 in self.f.domain.oriented_edges}
        else:
            results = self._search_covers(path)
        self._covers[path] = frozenset(results)
        return self._covers[path]

    def _search_covers(self, path):
        """Depth-first search over legal covers, in the order of the start
        index and the successor table.  A stack entry ``(cover, pos)`` has
        the image of ``cover`` (from the occurrence start) matching
        ``path[:pos]``; a block is appended only while ``pos < len(path)``
        and only if it matches the path from ``pos`` on, so the occurrence
        touches the first and last block."""
        n = len(path)
        starts, nxt = self._starts.get(path[0], ()), self._next
        results = set()
        stack = [((), 0)]
        while stack:
            cover, pos = stack.pop()
            if pos >= n:
                results.add(cover)
                continue
            for d, block in reversed(nxt[cover[-1]] if cover else starts):
                end = pos + len(block)
                if path[pos:end] == block[:n - pos]:
                    stack.append((cover + (d,), end))
        return results

    def is_infinitely_legal(self, path) -> bool:
        path = tuple(path)
        good = self._verdict
        if path in good:
            return good[path]
        # successor-table legality: on paths of the graph this agrees with
        # DirectionAnalysis.is_legal_path
        legal_next = self._legal_next
        if not all(path[i + 1] in legal_next[path[i]] for i in range(len(path) - 1)):
            return False
        # cycle detection in the pullback graph reachable from `path`
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {}

        def dfs(p):
            if p in good:
                return good[p]
            state = colour.get(p, WHITE)
            if state == GREY:
                return True  # cycle
            colour[p] = GREY
            result = False
            for c in self.minimal_covers(p):
                if c in good and good[c]:
                    result = True
                    break
                if colour.get(c) == GREY:
                    result = True
                    break
                if dfs(c):
                    result = True
                    break
            colour[p] = BLACK
            good[p] = result
            return result

        return dfs(path)


def infinitely_legal_language(f: GraphMap, max_length: int,
                              pullbacks: LegalPullbacks | None = None) -> Language:
    """Truncation of the language of paths that are subpaths of arbitrarily
    high iterate images of legal paths.

    Built by one-edge extension: the language is closed under subpaths, so
    every member of length l+1 extends a member of length l.
    """
    if pullbacks is None:
        pullbacks = LegalPullbacks(f)
    frontier = [(e,) for e in f.domain.oriented_edges
                if pullbacks.is_infinitely_legal((e,))]
    collected = set(frontier)
    for _ in range(max_length - 1):
        nxt = []
        for p in frontier:
            for e1 in f.domain.extensions_right(p):
                q = p + (e1,)
                if pullbacks.is_infinitely_legal(q):
                    nxt.append(q)
        collected.update(nxt)
        frontier = nxt
    return Language(frozenset(collected), max_length)
