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

Each presentation translates paths to and from its base.  The round-trip
laws between the presentations (collapse after blow-up, and the
idempotence of the long and the short form) are checked by the tests.
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
    A graph without valence-2 vertices gives an equal graph, with one-edge
    chains.
    """
    intrinsic = [v for v in g.vertices if g.valence(v) >= 3]
    if not intrinsic:
        raise GraphError("no intrinsic vertex: the graph is a circle of "
                         "valence-2 vertices")
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
    chains = tuple(sorted({min(c, reverse_path(c)) for c in raw_chains}))
    endpoints = [(vertex_index[g.initial(c[0])], vertex_index[g.terminal(c[-1])])
                 for c in chains]
    labels = tuple("+".join(g.edge_label(e) for e in c) for c in chains)
    long_graph = Graph(len(intrinsic), endpoints,
                       vertex_labels=tuple(g.vertex_labels[v] for v in intrinsic),
                       edge_labels=labels)
    return LongForm(graph=long_graph, chains=chains,
                    vertex_to_base=tuple(intrinsic))


def to_long_map(f: GraphMap) -> tuple:
    """Long-edge dialect of a map: the domain loses its valence-2 vertices,
    each long edge mapping to the image of its chain.  Returns
    ``(GraphMap, LongForm)``."""
    if not f.images_nontrivial():
        raise PreconditionError("long-edge dialect needs no contracted edges")
    lf = to_long(f.domain)
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

    map: GraphMap
    pieces: tuple            # per base positive edge: its piece count
    piece_edge: dict         # (base positive edge, index) -> positive short edge
    parents: dict            # oriented short edge -> (base oriented edge, index)

    @property
    def graph(self) -> Graph:
        return self.map.domain

    def piece_count(self, e: int) -> int:
        return self.pieces[e >> 1]

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
            e, idx = self.parents[short_path[i]]
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

    The base vertices keep their ids; the interior vertices of each edge
    follow, in edge order.  A map that is already short gives an equal map.
    """
    if not f.images_nontrivial():
        raise PreconditionError("short-edge dialect rejects contracted edges")
    g, cod = f.domain, f.codomain
    vertex_labels = list(g.vertex_labels)
    vimg = list(f.vertex_image)
    endpoints, edge_labels, eimg = [], [], []
    piece_edge, parents = {}, {}
    for k, img in enumerate(f.edge_image):
        e, n, label = 2 * k, len(img), g.edge_labels[k]
        stops = [g.initial(e)]
        for i in range(1, n):
            stops.append(len(vertex_labels))
            vertex_labels.append(f"{label}.{i}")
            vimg.append(cod.terminal(img[i - 1]))
        stops.append(g.terminal(e))
        for i, x in enumerate(img):
            se = 2 * len(endpoints)
            piece_edge[(e, i)] = se
            parents[se] = (e, i)
            parents[inverse(se)] = (inverse(e), n - 1 - i)
            endpoints.append((stops[i], stops[i + 1]))
            edge_labels.append(label if n == 1 else f"{label}.{i}")
            eimg.append((x,))
    short_graph = Graph(len(vertex_labels), endpoints, vertex_labels, edge_labels)
    return ShortForm(map=GraphMap(short_graph, cod, vimg, eimg, name=f.name),
                     pieces=tuple(len(p) for p in f.edge_image),
                     piece_edge=piece_edge, parents=parents)


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
