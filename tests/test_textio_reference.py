"""The one-pass parser against a copy of the token-object parser it replaced.

``ReferenceParser`` below is that parser as it was: it walks ``Token``
objects through bounds-checked ``peek``/``next``/``word`` calls and resolves
names with ``tuple.index`` and ``in`` scans.  It has since taken the rules
that a declaration name is unique per kind, that a vertex has one image, and
that ``vertex`` starts a vertex image only when ``->`` does not follow it.
On token-level mutations of committed, hand-written and generated documents,
and of the documents that the benchmark parses, ``parse`` must give the same
document or raise the same error, message, line and column included.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ttm.errors import ParseError
from ttm.graphs import Graph
from ttm.maps import GraphMap
from ttm.substitutions import Substitution
from ttm.textio import PUNCT, InputDocument, parse, print_document, tokenize

from conftest import bench_workloads, random_tame_maps
from test_textio import FIB_DOC

MAPS_TT = (Path(__file__).resolve().parent.parent / "bench" / "inputs" / "maps.tt").read_text()


class ReferenceParser:
    """The parser over ``Token`` objects, kept as the reference."""

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
        name = self.declared_name("graph", doc.graphs)
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

    def declared_name(self, kind, declared):
        tok = self.word(kind + " name")
        if tok.text in declared:
            self.fail(f"duplicate {kind} {tok.text!r}", tok)
        return tok.text

    def next_keyword(self, kw):
        tok = self.word(kw)
        if tok.text != kw:
            self.fail(f"expected {kw!r}", tok)
        return tok

    def parse_map(self, doc):
        name = self.declared_name("map", doc.maps)
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
            if tok.text == "vertex" and (self.peek() is None or self.peek().text != "->"):
                vtok = self.word("vertex name")
                self.next("->")
                wtok = self.word("vertex name")
                self.next(";")
                if vtok.text not in dom.vertex_labels:
                    self.fail(f"undeclared vertex {vtok.text!r}", vtok)
                if wtok.text not in cod.vertex_labels:
                    self.fail(f"undeclared vertex {wtok.text!r}", wtok)
                v = dom.vertex_labels.index(vtok.text)
                if v in vimg:
                    self.fail(f"duplicate image for vertex {vtok.text!r}", vtok)
                vimg[v] = cod.vertex_labels.index(wtok.text)
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
        name = self.declared_name("substitution", doc.substitutions)
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


def reference_parse(text):
    return ReferenceParser(text).document()


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


def generated_document(seed=5, count=6):
    """Maps between random graphs (some with a second codomain graph), with
    their vertex images, followed by one substitution."""
    doc = InputDocument()
    for k, f in enumerate(random_tame_maps(seed, count)):
        doc.graphs[f"D{k}"] = f.domain
        cod = f"D{k}" if f.codomain is f.domain else f"C{k}"
        doc.graphs[cod] = f.codomain
        doc.maps[f"m{k}"] = (f, f"D{k}", cod)
    return print_document(doc) + "subst s over a b { a -> a b ; b -> a }\n"


SOURCES = (MAPS_TT, FIB_DOC, generated_document())
NAMES = ("a", "~a", "~~a", "~", "b", "c", "zz", "*", "v0", "v1", "v9", "e0", "~e1",
         "R2", "G", "D0", "C1", "f", "over", "vertices", "vertex", "edge", "graph",
         "map", "subst")
# the seed-1 documents of the benchmark: four of its random maps, and its
# substitutions with their rose graphs and maps
BENCH_SOURCES = (bench_workloads().random_maps_text(1, 4),
                 bench_workloads().generate_substitutions(1)[0])
BENCH_NAMES = ("v0", "v2", "v5", "e0", "~e3", "e9", "x0", "~x1", "x19", "x20", "*",
               "G0", "G1", "R_b20", "m1", "b20", "over", "vertices", "vertex", "edge",
               "map", "subst")


def outcome(parser_parse, text):
    try:
        return "ok", print_document(parser_parse(text))
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.column


def mutate(text, op, k, new):
    """Apply one token-level edit at token k: cut the text before it, delete
    it, duplicate it, swap it with the next one, or replace it by ``new``."""
    starts, offset = [], 0
    for line in text.splitlines(keepends=True):
        starts.append(offset)
        offset += len(line)
    toks = tokenize(text)
    spans = [(starts[t.line - 1] + t.column - 1, len(t.text)) for t in toks]
    at, size = spans[k]
    if op == "truncate":
        return text[:at]
    if op == "delete":
        return text[:at] + text[at + size:]
    if op == "duplicate":
        return text[:at + size] + " " + toks[k].text + text[at + size:]
    if op == "swap" and k + 1 < len(toks):
        at2, size2 = spans[k + 1]
        return (text[:at] + toks[k + 1].text + text[at + size:at2] + toks[k].text
                + text[at2 + size2:])
    return text[:at] + " " + new + " " + text[at + size:]


@st.composite
def mutated_documents(draw, sources=SOURCES, names=NAMES):
    text = draw(st.sampled_from(sources))
    k = draw(st.integers(0, len(tokenize(text)) - 1))
    op = draw(st.sampled_from(("truncate", "delete", "duplicate", "swap", "replace")))
    new = draw(st.sampled_from(PUNCT + names))
    return mutate(text, op, k, new)


def test_reference_agrees_on_the_sources():
    for text in SOURCES + BENCH_SOURCES:
        assert outcome(parse, text) == outcome(reference_parse, text)
        assert outcome(parse, text)[0] == "ok"


GRAPH = "graph G { vertices: v ; edge a: v -> v ; edge b: v -> v ; }\n"


@pytest.mark.parametrize("text", [
    "graph",
    GRAPH + "map f: G -> G { a -> a b ; }",
    GRAPH + "map f: G -> G { a -> ; b -> ; }",
    GRAPH + "map f: G -> G { a -> a ; b -> b ; a -> b ; }",
    GRAPH + "map f: G -> G { vertex v -> w ; a -> a ; b -> b ; }",
    "subst s over a b { a -> a b ; a -> b ; b -> a }",
    "subst s over a b { a -> a b }",
    "subst s over a a { a -> a }",
    "graph G { vertices: u v ; edge a: u -> v ; }",
    GRAPH + "graph G { vertices: w ; edge a: w -> w ; }",
    GRAPH + "map f: G -> G { a -> a ; b -> b ; }\nmap f: G -> G { a -> b ; b -> a ; }",
    "subst s over a { a -> a }\nsubst s over a b { a -> b ; b -> a }",
    GRAPH + "map f: G -> G { vertex v -> v ; a -> a ; vertex v -> v ; b -> b ; }",
    "graph G { vertices: v ; edge a: v -> v ; edge a: v -> v ; }",
    "graph G { vertices: v ; edge ~a: v -> v ; edge b: v -> v ; }",
    "graph G { vertices: v ; edge a: v -> w ; edge b: v -> v ; }",
    GRAPH + "map f: G -> G { ~a -> a ; b -> b ; }",
    "subst s over a b { a -> c ; b -> a }",
    "subst s over a b { c -> a ; a -> b ; b -> a }",
    GRAPH + "map f: G -> G { vertex -> a ; a -> a ; b -> b ; }",
    GRAPH + "map f: G -> G { a -> a ; b -> b ; vertex",
    GRAPH.replace("edge b", "edge vertex") + "map f: G -> G { vertex -> c ; a -> a ; }",
])
def test_reference_agrees_on_semantic_errors(text):
    assert outcome(parse, text)[0] == "error"
    assert outcome(parse, text) == outcome(reference_parse, text)


@settings(max_examples=1500)
@given(mutated_documents())
def test_parse_equals_reference_on_mutations(text):
    assert outcome(parse, text) == outcome(reference_parse, text)


@settings(max_examples=200)
@given(mutated_documents(BENCH_SOURCES, BENCH_NAMES))
def test_parse_equals_reference_on_bench_mutations(text):
    assert outcome(parse, text) == outcome(reference_parse, text)
