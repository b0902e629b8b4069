"""The three presentations of graphs and graph maps, and their translations.

* long-edge dialect: only vertices of valence >= 3, obtained by erasing
  valence-2 vertices (maximal chains collapse to single long edges);
* short-edge dialect: every edge maps to a single edge, obtained by
  subdividing the domain at preimages of codomain vertices;
* blow-up dialect: every vertex opens into a complete graph on its
  directions (local vertices / local edges), with one non-local edge per
  original edge; a turn of the base graph is realised by a local edge.
  Blow-up vertex and non-local edge ids are the base direction and edge
  ids, so no translation table is needed for them.

Round trips (collapse after blow-up, and the idempotence laws between long
and short) hold on the nose up to canonical relabelling; the helpers at the
bottom produce and verify those relabelling isomorphisms through
orientation-equivariant edge keys.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GraphError, PathError, PreconditionError
from .graphs import Graph, inverse, is_reduced, make_turn, reverse_path
from .maps import GraphMap


# -- long-edge dialect -------------------------------------------------------------


@dataclass
class LongForm:
    """A graph collapsed to long edges, with the translation of long paths to
    base paths."""

    base: Graph
    graph: Graph
    chains: tuple              # per long positive edge: path of base edges
    vertex_to_base: tuple      # long vertex -> base vertex

    def chain(self, e: int):
        c = self.chains[e >> 1]
        return c if e % 2 == 0 else reverse_path(c)

    def to_base_path(self, path):
        out = []
        for e in path:
            out.extend(self.chain(e))
        return tuple(out)


def to_long(g: Graph) -> LongForm:
    """Collapse every maximal chain through valence-2 vertices to one edge.

    A graph that is a single circle has no intrinsic vertex and is rejected.
    Graphs without valence-2 vertices come back unchanged (the translations
    are identities), which makes the idempotence law nominal.
    """
    intrinsic = [v for v in g.vertices if g.valence(v) >= 3]
    if not intrinsic:
        raise GraphError("no intrinsic vertex: the graph is a circle of "
                         "valence-2 vertices")
    if len(intrinsic) == g.n_vertices:
        chains = tuple((2 * k,) for k in range(g.n_edges))
        return LongForm(base=g, graph=g, chains=chains,
                        vertex_to_base=tuple(g.vertices))
    vertex_index = {v: i for i, v in enumerate(intrinsic)}
    seen = set()
    raw_chains = []
    for v in intrinsic:
        for d in g.directions_at(v):
            if d in seen:
                continue
            chain = [d]
            seen.add(d)
            w = g.terminal(d)
            while g.valence(w) == 2:
                nxt = [x for x in g.directions_at(w) if x != inverse(chain[-1])]
                assert len(nxt) == 1
                chain.append(nxt[0])
                seen.add(nxt[0])
                w = g.terminal(nxt[0])
            for e in reverse_path(tuple(chain)):
                seen.add(e)
            raw_chains.append(tuple(chain))
    canonical = {}
    for c in raw_chains:
        r = reverse_path(c)
        canonical[min(c, r)] = min(c, r)
    chains = tuple(sorted(canonical))
    endpoints = [(vertex_index[g.initial(c[0])], vertex_index[g.terminal(c[-1])])
                 for c in chains]
    labels = tuple("+".join(g.edge_label(e) for e in c) for c in chains)
    long_graph = Graph(len(intrinsic), endpoints,
                       vertex_labels=tuple(g.vertex_labels[v] for v in intrinsic),
                       edge_labels=labels)
    return LongForm(base=g, graph=long_graph, chains=chains,
                    vertex_to_base=tuple(intrinsic))


def to_long_map(f: GraphMap) -> tuple:
    """Long-edge dialect of a map: the domain loses its valence-2 vertices,
    each long edge mapping to the image of its chain.  Returns
    ``(GraphMap, LongForm)``."""
    if not f.images_nontrivial():
        raise PreconditionError("long-edge dialect needs no contracted edges")
    lf = to_long(f.domain)
    if lf.graph is f.domain:
        return f, lf
    vimg = tuple(f.vertex(v) for v in lf.vertex_to_base)
    eimg = tuple(f.map_path(c) for c in lf.chains)
    return GraphMap(lf.graph, f.codomain, vimg, eimg, name=f.name), lf


# -- short-edge dialect -------------------------------------------------------------


@dataclass
class ShortForm:
    """A map subdivided so that every edge maps to a single edge.

    Each short edge remembers its parent edge and position, so data constant
    along parents (weights, for instance) needs no duplication.
    """

    base_map: GraphMap
    map: GraphMap
    pieces: tuple            # per base positive edge: tuple of its piece count
    piece_edge: dict         # (base positive edge, index) -> positive short edge

    @property
    def graph(self) -> Graph:
        return self.map.domain

    def piece_count(self, e: int) -> int:
        return self.pieces[e >> 1]

    def parent(self, short_e: int):
        """(base oriented edge, index) of an oriented short edge."""
        return self._parents[short_e]

    def to_short_path(self, base_path):
        out = []
        for e in base_path:
            k = self.piece_count(e)
            if e % 2 == 0:
                out.extend(self.piece_edge[(e, i)] for i in range(k))
            else:
                out.extend(inverse(self.piece_edge[(inverse(e), i)])
                           for i in reversed(range(k)))
        return tuple(out)

    def to_base_path(self, short_path):
        """Translate back a short path covering whole base edges."""
        out = []
        i = 0
        while i < len(short_path):
            e, idx = self.parent(short_path[i])
            k = self.piece_count(e)
            if idx != 0:
                raise PathError("short path starts inside a subdivided edge")
            expected = self.to_short_path((e,))
            if tuple(short_path[i:i + k]) != expected:
                raise PathError("short path leaves its parent edge midway")
            out.append(e)
            i += k
        return tuple(out)


def to_short(f: GraphMap) -> ShortForm:
    """Subdivide the domain at preimages of codomain vertices.

    Maps that are already short come back identically (the subdivision adds
    no vertices), making the idempotence law nominal.
    """
    if not f.images_nontrivial():
        raise PreconditionError("short-edge dialect rejects contracted edges")
    g = f.domain
    lengths = [len(f.edge_image[k]) for k in range(g.n_edges)]
    if all(l == 1 for l in lengths):
        sf = ShortForm(base_map=f, map=f,
                       pieces=tuple(lengths),
                       piece_edge={(2 * k, 0): 2 * k for k in range(g.n_edges)})
        sf._parents = {e: (e, 0) for e in g.oriented_edges}
        return sf
    n_vertices = g.n_vertices
    vertex_labels = list(g.vertex_labels)
    endpoints = []
    edge_labels = []
    piece_edge = {}
    for k in range(g.n_edges):
        e = 2 * k
        l = lengths[k]
        first = g.initial(e)
        interior = []
        for i in range(1, l):
            interior.append(n_vertices)
            vertex_labels.append(f"{g.edge_labels[k]}.{i}")
            n_vertices += 1
        stops = [first] + interior + [g.terminal(e)]
        for i in range(l):
            piece_edge[(e, i)] = 2 * len(endpoints)
            endpoints.append((stops[i], stops[i + 1]))
            edge_labels.append(g.edge_labels[k] if l == 1
                               else f"{g.edge_labels[k]}.{i}")
    short_graph = Graph(n_vertices, endpoints, tuple(vertex_labels),
                        tuple(edge_labels))
    vimg = [f.vertex(v) for v in g.vertices]
    for k in range(g.n_edges):
        img = f.edge_image[k]
        for i in range(1, lengths[k]):
            vimg.append(f.codomain.terminal(img[i - 1]))
    eimg = []
    for k in range(g.n_edges):
        for i in range(lengths[k]):
            eimg.append((f.edge_image[k][i],))
    short_map = GraphMap(short_graph, f.codomain, vimg, eimg, name=f.name)
    sf = ShortForm(base_map=f, map=short_map, pieces=tuple(lengths),
                   piece_edge=piece_edge)
    parents = {}
    for (e, i), se in piece_edge.items():
        parents[se] = (e, i)
        parents[inverse(se)] = (inverse(e), lengths[e >> 1] - 1 - i)
    sf._parents = parents
    return sf


# -- blow-up dialect ----------------------------------------------------------------


@dataclass
class BlowUp:
    """Blow-up of a graph: local vertices indexed by the base directions,
    one non-local edge per base edge, and complete local vertex graphs.

    Satisfies the structure conditions: vertices partition by base vertex,
    edges split into non-local and local classes, each local class is the
    complete graph on its vertex class, and every vertex meets exactly one
    non-local edge.
    """

    base: Graph
    graph: Graph
    n_nonlocal: int
    local_index: dict        # normalised turn -> positive local edge id

    def is_local(self, e: int) -> bool:
        return (e >> 1) >= self.n_nonlocal

    def local_edge(self, d1: int, d2: int) -> int:
        """Oriented local edge from the local vertex of d1 to that of d2."""
        turn = make_turn(d1, d2)
        if turn not in self.local_index:
            raise GraphError("directions do not share a base vertex")
        pos = self.local_index[turn]
        return pos if turn == (d1, d2) else inverse(pos)

    # -- path translation ------------------------------------------------------

    def to_blowup_path(self, base_path):
        """Interleave local edges at the turns a reduced base path crosses."""
        if not is_reduced(base_path):
            raise PathError("blow-up translation needs reduced paths")
        out = []
        for i, e in enumerate(base_path):
            if i:
                prev = base_path[i - 1]
                out.append(self.local_edge(inverse(prev), e))
            out.append(e)
        return tuple(out)

    def to_base_path(self, blow_path):
        """Drop local edges; the path must not start or end with a local edge
        nor cross two consecutive local edges."""
        if not blow_path:
            return ()
        if self.is_local(blow_path[0]) or self.is_local(blow_path[-1]):
            raise PathError("blow-up path starts or ends with a local edge")
        out = []
        prev_local = False
        for e in blow_path:
            if self.is_local(e):
                if prev_local:
                    raise PathError("two consecutive local edges")
                prev_local = True
            else:
                out.append(e)
                prev_local = False
        return tuple(out)

    def check_structure(self):
        """Verify the blow-up structure conditions; returns problems found."""
        problems = []
        g = self.graph
        # every vertex meets exactly one non-local edge
        for v in g.vertices:
            nl = [d for d in g.directions_at(v) if not self.is_local(d)]
            if len(nl) != 1:
                problems.append(f"vertex {v} meets {len(nl)} non-local edges")
        # local classes are complete graphs over the direction classes
        for v in self.base.vertices:
            dirs = self.base.directions_at(v)
            for i in range(len(dirs)):
                for j in range(i + 1, len(dirs)):
                    if make_turn(dirs[i], dirs[j]) not in self.local_index:
                        problems.append(
                            f"missing local edge for {(dirs[i], dirs[j])}")
        return problems


def blow_up(g: Graph) -> BlowUp:
    """Blow-up graph: local vertices = base directions (ids coincide), then
    the non-local edges follow the base edge order and local edges are sorted
    by their turns."""
    vertex_labels = tuple("v[%s]" % g.edge_label(d) for d in g.oriented_edges)
    endpoints = []
    edge_labels = []
    for k in range(g.n_edges):
        endpoints.append((2 * k, 2 * k + 1))
        edge_labels.append("^" + g.edge_labels[k])
    local_index = {}
    for turn in sorted(g.all_turns()):
        local_index[turn] = 2 * len(endpoints)
        endpoints.append(turn)
        edge_labels.append("eps[%s,%s]" % (g.edge_label(turn[0]),
                                           g.edge_label(turn[1])))
    graph = Graph(2 * g.n_edges, endpoints, vertex_labels, tuple(edge_labels))
    return BlowUp(base=g, graph=graph, n_nonlocal=g.n_edges,
                  local_index=local_index)


@dataclass
class BlowUpMap:
    """A map in blow-up dialect, with its legality classification."""

    map: GraphMap
    domain: BlowUp
    codomain: BlowUp
    illegal_turns: frozenset   # domain turns whose local edge is contracted


def blow_up_map(f: GraphMap) -> BlowUpMap:
    """Blow-up of a map with reduced non-trivial images: non-local edges map
    to the interleaved image paths, local edges map to local edges (or are
    contracted when both endpoint directions share their image direction,
    which is the illegal case)."""
    f.require_tame("blow-up")
    dom = blow_up(f.domain)
    cod = blow_up(f.codomain) if f.domain is not f.codomain else dom
    df = {d: f.image(d)[0] for d in f.domain.oriented_edges}
    vimg = tuple(df[d] for d in f.domain.oriented_edges)
    eimg = [cod.to_blowup_path(f.image(2 * k)) for k in range(dom.n_nonlocal)]
    for k in range(dom.n_nonlocal, dom.graph.n_edges):
        d1, d2 = dom.graph.initial(2 * k), dom.graph.terminal(2 * k)
        eimg.append(() if df[d1] == df[d2] else (cod.local_edge(df[d1], df[d2]),))
    illegal = frozenset(t for t in f.domain.all_turns()
                        if df[t[0]] == df[t[1]])
    bmap = GraphMap(dom.graph, cod.graph, vimg, eimg, name=f.name)
    return BlowUpMap(map=bmap, domain=dom, codomain=cod, illegal_turns=illegal)


def contract_map(bm: BlowUpMap) -> GraphMap:
    """Collapse local edges in a blow-up map; recovers the base map."""
    cod, g = bm.codomain, bm.domain.base
    vimg = [cod.base.initial(bm.map.vertex(g.directions_at(v)[0])) for v in g.vertices]
    eimg = [cod.to_base_path(bm.map.edge_image[k]) for k in range(g.n_edges)]
    return GraphMap(g, cod.base, vimg, eimg, name=bm.map.name)


def blowup_isomorphism(bu1: BlowUp, bu2: BlowUp):
    """Canonical isomorphism between two blow-ups of equal bases: vertices
    correspond through the base direction they sit on, edges through their
    base edge or turn.  Returns (vertex map, oriented edge map); raises if
    the structures do not match."""
    if bu1.base._endpoints != bu2.base._endpoints:
        raise GraphError("blow-ups of different base graphs")
    vmap = {d: d for d in bu1.base.oriented_edges}
    emap = {e: e for e in bu1.base.oriented_edges}
    for turn in bu1.base.all_turns():
        emap[bu1.local_edge(*turn)] = bu2.local_edge(*turn)
        emap[inverse(bu1.local_edge(*turn))] = inverse(bu2.local_edge(*turn))
    for e, e2 in emap.items():
        if vmap[bu1.graph.initial(e)] != bu2.graph.initial(e2) \
                or vmap[bu1.graph.terminal(e)] != bu2.graph.terminal(e2):
            raise GraphError("claimed blow-up isomorphism breaks incidence")
    return vmap, emap


# -- keyed comparisons (for the round-trip laws) -----------------------------------------


def keyed_edge_bijection(g1: Graph, key1, g2: Graph, key2):
    """Match oriented edges of two graphs through orientation-equivariant
    keys: ``key(e)`` must satisfy key(reverse) = reversed key.  Returns the
    oriented-edge bijection or raises."""
    table = {}
    for e in g2.oriented_edges:
        k = key2(e)
        if k in table:
            raise GraphError(f"duplicate edge key {k}")
        table[k] = e
    out = {}
    for e in g1.oriented_edges:
        k = key1(e)
        if k not in table:
            raise GraphError(f"unmatched edge key {k}")
        out[e] = table[k]
    if len(set(out.values())) != 2 * g2.n_edges or g1.n_edges != g2.n_edges:
        raise GraphError("edge keys do not biject")
    return out


def maps_equal_via(f1: GraphMap, f2: GraphMap, domain_edge_map,
                   codomain_edge_map=None) -> bool:
    """Are two maps equal after the given oriented-edge identification of
    their domains (and optionally codomains)?"""
    cmap = codomain_edge_map or {e: e for e in f1.codomain.oriented_edges}
    for e in f1.domain.oriented_edges:
        p1 = tuple(cmap[x] for x in f1.image(e))
        if p1 != f2.image(domain_edge_map[e]):
            return False
    return True
