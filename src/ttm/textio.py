"""Parsing and printing of the input document format.

Line comments run from ``#`` to end of line; tokens are whitespace-separated
with ``{ } ; : ,`` and ``->`` standing alone.  Three declaration forms:

    graph G { vertices: v0 v1 ; edge a: v0 -> v1 ; ... }
    map f: G -> H { vertex v0 -> v1 ; a -> b ~c ; ... }
    subst s over a b { a -> a b ; b -> a ; ... }

The inverse of edge token ``e`` is written ``~e``.  Graphs referenced by maps
must be declared first; edge tokens must be declared.  Names are unique per
declaration kind, and each vertex, edge or letter has at most one image.
Errors carry line and column positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParseError
from .graphs import Graph
from .maps import GraphMap
from .substitutions import Substitution

PUNCT = ("->", "{", "}", ";", ":", ",")


@dataclass
class Token:
    text: str
    line: int
    column: int


def tokenize(text: str):
    """Tokens of a document with 1-based line and column positions: the
    :func:`token_strings` of each line, each found in the line after the one
    before (only whitespace lies between them)."""
    out = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        col = 0
        for tok in token_strings(raw):
            col = raw.index(tok, col)
            out.append(Token(tok, ln, col + 1))
            col += len(tok)
    return out


@dataclass
class InputDocument:
    graphs: dict = field(default_factory=dict)
    maps: dict = field(default_factory=dict)       # name -> (GraphMap, dom, cod)
    substitutions: dict = field(default_factory=dict)

    def map(self, name: str) -> GraphMap:
        if name not in self.maps:
            raise ParseError(f"no map named {name!r} in the input")
        return self.maps[name][0]

    def substitution(self, name: str) -> Substitution:
        if name not in self.substitutions:
            raise ParseError(f"no substitution named {name!r} in the input")
        return self.substitutions[name]


def token_strings(text: str):
    """The texts of the tokens of :func:`tokenize`: comments cut per line,
    the marks padded with spaces, then one whitespace split.  Every line
    boundary is whitespace, and ``->`` occurrences cannot overlap."""
    if "#" in text:
        text = "\n".join(raw.split("#", 1)[0] for raw in text.splitlines())
    for mark in PUNCT:
        text = text.replace(mark, f" {mark} ")
    return text.split()


_END = ""                         # end sentinel: no token is empty
_NOT_NAME = frozenset(PUNCT + (_END,))


class _Parser:
    """One pass over the token strings; ``i`` indexes the next unread one.
    Line and column come from :func:`tokenize` only when an error is raised."""

    def __init__(self, text: str):
        self.text = text
        self.toks = token_strings(text) + [_END, ";"]   # the ";" ends every search
        self.i = 0
        self.names = {}           # graph name -> (vertex index, edge token index)

    def fail(self, message, k=None):
        """Raise at token ``k`` (default: the next unread one); at the end of
        input, without a position."""
        k = self.i if k is None else k
        if self.toks[k] == _END:
            raise ParseError(message)
        tok = tokenize(self.text)[k]
        raise ParseError(message, tok.line, tok.column)

    def take(self, expect):
        t = self.toks[self.i]
        if t != expect:
            self.fail(f"expected {expect!r}, found {t!r}" if t
                      else f"expected {expect!r} at end of input")
        self.i += 1

    def word(self, what="name"):
        t = self.toks[self.i]
        if t in _NOT_NAME:
            self.fail(f"expected {what}, found {t!r}" if t else "unexpected end of input")
        self.i += 1
        return t

    def new_name(self, kind, taken):
        """The name of a declaration; no earlier one of its kind has it."""
        name = self.word(kind + " name")
        if name in taken:
            self.fail(f"duplicate {kind} {name!r}", self.i - 1)
        return name

    def keyword(self, kw):
        if self.word(kw) != kw:
            self.fail(f"expected {kw!r}", self.i - 1)

    def unknown(self, k, what, message):
        """Raise at token ``k``, which names nothing declared: as a
        punctuation mark if it is one, else with ``message``."""
        self.i = k
        self.word(what)
        self.fail(message, k)

    # -- document ------------------------------------------------------------

    def document(self) -> InputDocument:
        doc = InputDocument()
        parsers = {"graph": self.parse_graph, "map": self.parse_map,
                   "subst": self.parse_subst}
        while self.toks[self.i] != _END:
            t = self.word("declaration")
            if t not in parsers:
                self.fail(f"unknown declaration {t!r}", self.i - 1)
            parsers[t](doc)
        return doc

    def parse_graph(self, doc):
        toks = self.toks
        name = self.new_name("graph", doc.graphs)
        self.take("{")
        self.keyword("vertices")
        self.take(":")
        vertex_names = []
        while toks[self.i] not in (";", _END):
            vertex_names.append(self.word("vertex name"))
        self.take(";")
        vindex = {v: i for i, v in enumerate(vertex_names)}
        if len(vindex) != len(vertex_names) or not vertex_names:
            self.fail("vertex names must be distinct and non-empty")
        edges, eindex = [], {}
        while toks[self.i] == "edge":
            k = self.i = self.i + 1
            e = self.word("edge name")
            if e.startswith("~"):
                self.fail("edge declarations name the positive orientation", k)
            self.take(":")
            u = self.word("vertex")
            self.take("->")
            w = self.word("vertex")
            self.take(";")
            for j, v in ((k + 2, u), (k + 4, w)):
                if v not in vindex:
                    self.fail(f"undeclared vertex {v!r}", j)
            if e in eindex:
                self.fail(f"duplicate edge {e!r}", k)
            eindex[e] = 2 * len(edges)
            eindex["~" + e] = 2 * len(edges) + 1
            edges.append((vindex[u], vindex[w]))
        self.take("}")
        try:
            doc.graphs[name] = Graph(len(vertex_names), edges,
                                     tuple(vertex_names), tuple(eindex)[::2])
        except Exception as exc:
            raise ParseError(f"invalid graph {name!r}: {exc}") from exc
        self.names[name] = (vindex, eindex)

    def parse_map(self, doc):
        toks = self.toks
        name = self.new_name("map", doc.maps)
        self.take(":")
        k = self.i
        dom_name = self.word("graph name")
        self.take("->")
        cod_name = self.word("graph name")
        for j, g in ((k, dom_name), (k + 2, cod_name)):
            if g not in doc.graphs:
                self.fail(f"undeclared graph {g!r}", j)
        dom, cod = doc.graphs[dom_name], doc.graphs[cod_name]
        (dom_v, dom_e), (cod_v, cod_e) = self.names[dom_name], self.names[cod_name]
        self.take("{")
        vimg, eimg = {}, {}
        while toks[self.i] not in ("}", _END):
            k = self.i
            if self.word("assignment") == "vertex":
                v = self.word("vertex name")
                self.take("->")
                w = self.word("vertex name")
                self.take(";")
                for j, x, index in ((k + 1, v, dom_v), (k + 3, w, cod_v)):
                    if x not in index:
                        self.fail(f"undeclared vertex {x!r}", j)
                if dom_v[v] in vimg:
                    self.fail(f"duplicate image for vertex {v!r}", k + 1)
                vimg[dom_v[v]] = cod_v[w]
                continue
            e = dom_e.get(toks[k])
            if e is None:
                self.unknown(k, "assignment", _edge_error(toks[k]))
            if e % 2 == 1:
                self.fail("edge images are declared on positive edges", k)
            self.take("->")
            start = self.i
            i = min(toks.index(";", start), len(toks) - 2)
            path = tuple(map(cod_e.get, toks[start:i]))
            if None in path:
                j = start + path.index(None)
                self.unknown(j, "edge token", _edge_error(toks[j]))
            self.i = i
            self.take(";")
            if (e >> 1) in eimg:
                self.fail(f"duplicate image for edge {toks[k]!r}", k)
            eimg[e >> 1] = path
        self.take("}")
        missing = [dom.edge_labels[k] for k in range(dom.n_edges) if k not in eimg]
        if missing:
            self.fail(f"map {name!r} misses images for edges {missing}")
        for v in range(dom.n_vertices):
            if v not in vimg:
                # the start of the image of an edge leaving v, or the end of one entering
                vimg[v] = next((cod.initial(p[0]) if d % 2 == 0 else cod.terminal(p[-1])
                                for d in dom.directions_at(v) if (p := eimg[d >> 1])), None)
                if vimg[v] is None:
                    self.fail(f"map {name!r} misses the image of vertex "
                              f"{dom.vertex_labels[v]!r}")
        try:
            gm = GraphMap(dom, cod, [vimg[v] for v in range(dom.n_vertices)],
                          [eimg[k] for k in range(dom.n_edges)], name=name)
        except Exception as exc:
            raise ParseError(f"invalid map {name!r}: {exc}") from exc
        doc.maps[name] = (gm, dom_name, cod_name)

    def parse_subst(self, doc):
        toks = self.toks
        name = self.new_name("substitution", doc.substitutions)
        self.keyword("over")
        letters = []
        while toks[self.i] not in ("{", _END):
            letters.append(self.word("letter"))
        self.take("{")
        known = set(letters)
        images = {}
        while toks[self.i] not in ("}", _END):
            k = self.i
            x = self.word("letter")
            if x not in known:
                self.fail(f"undeclared letter {x!r}", k)
            self.take("->")
            start = i = self.i
            while toks[i] not in (";", "}", _END):
                if toks[i] not in known:
                    self.unknown(i, "letter", f"undeclared letter {toks[i]!r}")
                i += 1
            self.i = i + (toks[i] == ";")
            if x in images:
                self.fail(f"duplicate image for letter {x!r}", k)
            images[x] = tuple(toks[start:i])
        self.take("}")
        missing = [x for x in letters if x not in images]
        if missing:
            self.fail(f"substitution {name!r} misses images for {missing}")
        try:
            doc.substitutions[name] = Substitution(tuple(letters),
                                                   tuple(images[x] for x in letters))
        except Exception as exc:
            raise ParseError(f"invalid substitution {name!r}: {exc}") from exc


def parse(text: str) -> InputDocument:
    return _Parser(text).document()


# -- printing -----------------------------------------------------------------------


def print_graph(name: str, g: Graph) -> str:
    lines = [f"graph {name} {{"]
    lines.append("  vertices: " + " ".join(g.vertex_labels) + " ;")
    for k in range(g.n_edges):
        lines.append(f"  edge {g.edge_labels[k]}: "
                     f"{g.vertex_labels[g.initial(2 * k)]} -> "
                     f"{g.vertex_labels[g.terminal(2 * k)]} ;")
    lines.append("}")
    return "\n".join(lines)


def print_map(name: str, gm: GraphMap, dom_name: str, cod_name: str) -> str:
    lines = [f"map {name}: {dom_name} -> {cod_name} {{"]
    for v in gm.domain.vertices:
        lines.append(f"  vertex {gm.domain.vertex_labels[v]} -> "
                     f"{gm.codomain.vertex_labels[gm.vertex(v)]} ;")
    for k in range(gm.domain.n_edges):
        image = " ".join(gm.codomain.edge_label(e) for e in gm.edge_image[k])
        lines.append(f"  {gm.domain.edge_labels[k]} -> {image} ;")
    lines.append("}")
    return "\n".join(lines)


def print_subst(name: str, s: Substitution) -> str:
    lines = [f"subst {name} over " + " ".join(str(x) for x in s.alphabet) + " {"]
    for x, w in zip(s.alphabet, s.images):
        lines.append(f"  {x} -> " + " ".join(str(y) for y in w) + " ;")
    lines.append("}")
    return "\n".join(lines)


def print_document(doc: InputDocument) -> str:
    parts = ([print_graph(name, g) for name, g in doc.graphs.items()]
             + [print_map(name, *m) for name, m in doc.maps.items()]
             + [print_subst(name, s) for name, s in doc.substitutions.items()])
    return "\n\n".join(parts) + "\n"


def _edge_error(token: str) -> str:
    """Why an edge token names no edge of its graph."""
    name = token[1:] if token.startswith("~") else token
    if name.startswith("~"):
        return "double inversion '~~' is not a token; write the positive edge"
    return f"undeclared edge {name!r}"


def parse_path(graph: Graph, text: str):
    """A path given as space-separated edge tokens."""
    path = []
    for tok in text.split():
        name = tok[1:] if tok.startswith("~") else tok
        if name.startswith("~") or name not in graph.edge_labels:
            raise ParseError(_edge_error(tok))
        path.append(2 * graph.edge_labels.index(name) + (name != tok))
    path = tuple(path)
    if not graph.is_path(path):
        raise ParseError(f"tokens do not form an edge path: {text!r}")
    return path


# -- measure tables as TSV --------------------------------------------------------------


def format_table_tsv(labels, values, default=None) -> str:
    """TSV text of a table, one ``label<TAB>value`` line per label in order.

    ``values`` gives ``(index, value string)`` for some rows, in index order;
    every other row has the value ``default``, and each run of those rows is
    joined in one call.  The command line writes a measure table through
    this one path length at a time, its support rows in ``values``.
    """
    tail = f"\t{default}\n"
    out, start = [], 0
    for i, value in values:
        if start < i:
            out.append(tail.join(labels[start:i]) + tail)
        out.append(f"{labels[i]}\t{value}\n")
        start = i + 1
    if start < len(labels):
        out.append(tail.join(labels[start:]) + tail)
    return "".join(out)
