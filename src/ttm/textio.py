"""Parsing and printing of the input document format.

Line comments run from ``#`` to end of line; tokens are whitespace-separated
with ``{ } ; : ,`` and ``->`` standing alone.  Three declaration forms:

    graph G { vertices: v0 v1 ; edge a: v0 -> v1 ; ... }
    map f: G -> H { vertex v0 -> v1 ; a -> b ~c ; ... }
    subst s over a b { a -> a b ; b -> a ; ... }

The inverse of edge token ``e`` is written ``~e``.  Graphs referenced by maps
must be declared first; edge tokens must be declared.  Errors carry line and
column positions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ParseError
from .graphs import Graph
from .maps import GraphMap
from .substitutions import Substitution

PUNCT = ("->", "{", "}", ";", ":", ",")
# ``->`` or one punctuation character, else a maximal run of characters that
# are neither whitespace nor punctuation and do not start ``->``
_TOKEN = re.compile(r"->|[{};:,]|(?:(?!->)[^\s{};:,])+")


@dataclass
class Token:
    text: str
    line: int
    column: int


def tokenize(text: str):
    """Tokens of a document with 1-based line and column positions."""
    return [Token(m.group(), ln, m.start() + 1)
            for ln, raw in enumerate(text.splitlines(), start=1)
            for m in _TOKEN.finditer(raw.split("#", 1)[0])]


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


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expect=None):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input"
                             if expect is None else f"expected {expect!r} at end of input")
        self.pos += 1
        if expect is not None and tok.text != expect:
            raise ParseError(f"expected {expect!r}, found {tok.text!r}",
                             tok.line, tok.column)
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        if tok is None:
            raise ParseError(message)
        raise ParseError(message, tok.line, tok.column)

    def word(self, what="name"):
        tok = self.next(None)
        if tok.text in PUNCT:
            self.fail(f"expected {what}, found {tok.text!r}", tok)
        return tok

    # -- document ------------------------------------------------------------

    def document(self) -> InputDocument:
        doc = InputDocument()
        while self.peek() is not None:
            tok = self.word("declaration")
            if tok.text == "graph":
                self.parse_graph(doc)
            elif tok.text == "map":
                self.parse_map(doc)
            elif tok.text == "subst":
                self.parse_subst(doc)
            else:
                self.fail(f"unknown declaration {tok.text!r}", tok)
        return doc

    def parse_graph(self, doc):
        name = self.word("graph name").text
        self.next("{")
        self.next_keyword("vertices")
        self.next(":")
        vertex_names = []
        while self.peek() and self.peek().text != ";":
            vertex_names.append(self.word("vertex name").text)
        self.next(";")
        if len(set(vertex_names)) != len(vertex_names) or not vertex_names:
            self.fail("vertex names must be distinct and non-empty")
        vindex = {v: i for i, v in enumerate(vertex_names)}
        edges = []
        edge_names = []
        while self.peek() and self.peek().text == "edge":
            self.next("edge")
            etok = self.word("edge name")
            if etok.text.startswith("~"):
                self.fail("edge declarations name the positive orientation", etok)
            self.next(":")
            utok = self.word("vertex")
            self.next("->")
            wtok = self.word("vertex")
            self.next(";")
            for t in (utok, wtok):
                if t.text not in vindex:
                    self.fail(f"undeclared vertex {t.text!r}", t)
            if etok.text in edge_names:
                self.fail(f"duplicate edge {etok.text!r}", etok)
            edge_names.append(etok.text)
            edges.append((vindex[utok.text], vindex[wtok.text]))
        self.next("}")
        try:
            doc.graphs[name] = Graph(len(vertex_names), edges,
                                     tuple(vertex_names), tuple(edge_names))
        except Exception as exc:
            raise ParseError(f"invalid graph {name!r}: {exc}") from exc

    def next_keyword(self, kw):
        tok = self.word(kw)
        if tok.text != kw:
            self.fail(f"expected {kw!r}", tok)
        return tok

    def parse_map(self, doc):
        name = self.word("map name").text
        self.next(":")
        dom_tok = self.word("graph name")
        self.next("->")
        cod_tok = self.word("graph name")
        for t in (dom_tok, cod_tok):
            if t.text not in doc.graphs:
                self.fail(f"undeclared graph {t.text!r}", t)
        dom = doc.graphs[dom_tok.text]
        cod = doc.graphs[cod_tok.text]
        self.next("{")
        vimg = {}
        eimg = {}
        while self.peek() and self.peek().text != "}":
            tok = self.word("assignment")
            if tok.text == "vertex":
                vtok = self.word("vertex name")
                self.next("->")
                wtok = self.word("vertex name")
                self.next(";")
                if vtok.text not in dom.vertex_labels:
                    self.fail(f"undeclared vertex {vtok.text!r}", vtok)
                if wtok.text not in cod.vertex_labels:
                    self.fail(f"undeclared vertex {wtok.text!r}", wtok)
                vimg[dom.vertex_labels.index(vtok.text)] = \
                    cod.vertex_labels.index(wtok.text)
            else:
                e = self.edge_token(dom, tok)
                if e % 2 == 1:
                    self.fail("edge images are declared on positive edges", tok)
                self.next("->")
                path = []
                while self.peek() and self.peek().text != ";":
                    ttok = self.word("edge token")
                    path.append(self.edge_token(cod, ttok))
                self.next(";")
                if (e >> 1) in eimg:
                    self.fail(f"duplicate image for edge {tok.text!r}", tok)
                eimg[e >> 1] = tuple(path)
        self.next("}")
        missing = [dom.edge_labels[k] for k in range(dom.n_edges) if k not in eimg]
        if missing:
            self.fail(f"map {name!r} misses images for edges {missing}")
        full_vimg = []
        for v in range(dom.n_vertices):
            if v in vimg:
                full_vimg.append(vimg[v])
            else:
                inferred = self.infer_vertex_image(dom, cod, eimg, v)
                if inferred is None:
                    self.fail(f"map {name!r} misses the image of vertex "
                              f"{dom.vertex_labels[v]!r}")
                full_vimg.append(inferred)
        try:
            gm = GraphMap(dom, cod, full_vimg, [eimg[k] for k in range(dom.n_edges)],
                          name=name)
        except Exception as exc:
            raise ParseError(f"invalid map {name!r}: {exc}") from exc
        doc.maps[name] = (gm, dom_tok.text, cod_tok.text)

    @staticmethod
    def infer_vertex_image(dom, cod, eimg, v):
        for d in dom.directions_at(v):
            path = eimg.get(d >> 1)
            if not path:
                continue
            if d % 2 == 0:
                return cod.initial(path[0])
            return cod.terminal(path[-1])
        return None

    def edge_token(self, graph, tok):
        try:
            return _edge(graph, tok.text)
        except ParseError as exc:
            self.fail(str(exc), tok)

    def parse_subst(self, doc):
        name = self.word("substitution name").text
        self.next_keyword("over")
        letters = []
        while self.peek() and self.peek().text != "{":
            letters.append(self.word("letter").text)
        self.next("{")
        images = {}
        while self.peek() and self.peek().text != "}":
            ltok = self.word("letter")
            if ltok.text not in letters:
                self.fail(f"undeclared letter {ltok.text!r}", ltok)
            self.next("->")
            word = []
            while self.peek() and self.peek().text not in (";", "}"):
                wtok = self.word("letter")
                if wtok.text not in letters:
                    self.fail(f"undeclared letter {wtok.text!r}", wtok)
                word.append(wtok.text)
            if self.peek() and self.peek().text == ";":
                self.next(";")
            if ltok.text in images:
                self.fail(f"duplicate image for letter {ltok.text!r}", ltok)
            images[ltok.text] = tuple(word)
        self.next("}")
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
        e = 2 * k
        lines.append(f"  edge {g.edge_labels[k]}: "
                     f"{g.vertex_labels[g.initial(e)]} -> "
                     f"{g.vertex_labels[g.terminal(e)]} ;")
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
    parts = []
    for name, g in doc.graphs.items():
        parts.append(print_graph(name, g))
    for name, (gm, dom, cod) in doc.maps.items():
        parts.append(print_map(name, gm, dom, cod))
    for name, s in doc.substitutions.items():
        parts.append(print_subst(name, s))
    return "\n\n".join(parts) + "\n"


def _edge(graph: Graph, token: str) -> int:
    """The oriented edge of an edge token: ``e`` or its inverse ``~e``."""
    name = token[1:] if token.startswith("~") else token
    if name.startswith("~"):
        raise ParseError("double inversion '~~' is not a token; write the "
                         "positive edge")
    if name not in graph.edge_labels:
        raise ParseError(f"undeclared edge {name!r}")
    e = 2 * graph.edge_labels.index(name)
    return e + 1 if name != token else e


def parse_path(graph: Graph, text: str):
    """A path given as space-separated edge tokens."""
    path = tuple(_edge(graph, tok) for tok in text.split())
    if not graph.is_path(path):
        raise ParseError(f"tokens do not form an edge path: {text!r}")
    return path


# -- measure tables as TSV --------------------------------------------------------------


def format_table_tsv(rows) -> str:
    """Rows of ``(path label, value string)`` as TSV text."""
    return "".join(f"{label}\t{v}\n" for label, v in rows)
