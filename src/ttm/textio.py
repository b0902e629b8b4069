"""Parsing and printing of the input document format.

Line comments run from ``#`` to end of line; tokens are whitespace-separated
with ``{ } ; : ,`` and ``->`` standing alone.  Three declaration forms:

    graph G { vertices: v0 v1 ; edge a: v0 -> v1 ; ... }
    map f: G -> H { vertex v0 -> v1 ; a -> b ~c ; ... }
    subst s over a b { a -> a b ; b -> a ; ... }

The inverse of edge token ``e`` is written ``~e``.  Graphs referenced by maps
must be declared first; edge tokens must be declared.  Names are unique per
declaration kind, and each vertex, edge or letter has at most one image.
In a map body, ``vertex`` starts a vertex image unless ``->`` follows it, so
an edge may be named ``vertex``.

The parser reads a statement at a time, a declaration's head or one statement
of its body: it finds the statement's end with ``list.index``, checks its
shape by slice comparison and resolves its names by dictionary lookup.  A
statement that fails this test is read again by ``expect`` from its steps,
its grammar in reading order, which raises the error of its first bad token.
Errors carry line and column positions.
"""

from __future__ import annotations

from .errors import ParseError
from .graphs import Graph
from .maps import GraphMap
from .substitutions import Substitution

PUNCT = ("->", "{", "}", ";", ":", ",")


class Token:
    """The text of a token with its 1-based line and column."""

    def __init__(self, text: str, line: int, column: int):
        self.text, self.line, self.column = text, line, column


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


class InputDocument:
    """The declarations of a document, by name."""

    def __init__(self):
        self.graphs = {}
        self.maps = {}            # name -> (GraphMap, dom, cod)
        self.substitutions = {}

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
# after the end sentinel: a mark that stops each ``list.index`` search, and
# room for the names a map head or an edge declaration unpacks near the end
_TAIL = [_END, "{", "}", ";", _END]
_GRAPH = ["{", "vertices", ":"]   # the marks of ``graph G { vertices: ...``
_MAP = [":", "->", "{"]           # the marks of ``map f: G -> H {``
_EDGE = ["edge", ":", "->", ";"]  # the marks of ``edge e: u -> w ;``
_VERTEX = ["->", ";"]             # the marks of ``vertex v -> w ;`` after ``v``


def _new(kind, taken):
    """The step of a declaration's name: no earlier one of its kind has it."""
    return kind + " name", lambda t: t in taken and f"duplicate {kind} {t!r}"


def _keyword(kw):
    """The step of the keyword ``kw``."""
    return kw, lambda t: t != kw and f"expected {kw!r}"


class _Parser:
    """One walk over the token strings, a statement at a time; ``i`` indexes
    the next unread one.  A statement is a declaration head or one statement
    of a body.  It is taken whole when it has its shape and every name in it
    resolves; otherwise ``expect`` reads it again from its steps, which
    raises the error of its first bad token.  Line and column come from
    :func:`tokenize` only when an error is raised."""

    def __init__(self, text: str):
        self.text = text
        self.toks = token_strings(text) + _TAIL
        self.end = len(self.toks) - len(_TAIL)
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

    def take(self, mark):
        t = self.toks[self.i]
        if t != mark:
            self.fail(f"expected {mark!r}, found {t!r}" if t
                      else f"expected {mark!r} at end of input")
        self.i += 1

    def word(self, what="name", check=None):
        """Read a name; ``check(name)``, if given, returns what makes it bad."""
        t = self.toks[self.i]
        if t in _NOT_NAME:
            self.fail(f"expected {what}, found {t!r}" if t else "unexpected end of input")
        if check and (message := check(t)):
            self.fail(message)
        self.i += 1
        return t

    def expect(self, k, steps, late=()):
        """Read the statement at token ``k`` by its steps, raising the error of
        its first bad token, then the first message of ``late``, its
        ``(token index, message)`` lookups that wait for its syntax.  A step
        is a mark; ``(what, check)``, a :meth:`word`; or ``(what, check,
        stops)``, such words up to one of the marks ``stops`` or the end.
        Returns only if nothing was bad."""
        self.i = k
        for step in steps:
            if isinstance(step, str):
                self.take(step)
            elif len(step) == 2:
                self.word(*step)
            else:
                what, check, stops = step
                while self.toks[self.i] not in stops and self.toks[self.i] != _END:
                    self.word(what, check)
        for j, message in late:
            if message:
                self.fail(message, j)

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
        toks, i = self.toks, self.i
        j = toks.index(";", i)
        name, vertex_names = toks[i], toks[i + 4:j]
        if (toks[i + 1:i + 4] != _GRAPH or name in _NOT_NAME or name in doc.graphs
                or not _NOT_NAME.isdisjoint(vertex_names)):
            self.expect(i, [_new("graph", doc.graphs), "{", _keyword("vertices"), ":",
                            ("vertex name", None, (";",)), ";"])
        self.i = i = j + 1
        vindex = {v: k for k, v in enumerate(vertex_names)}
        if len(vindex) != len(vertex_names) or not vertex_names:
            self.fail("vertex names must be distinct and non-empty")
        edges, eindex = [], {}
        while toks[i] == "edge":
            e, u, w = toks[i + 1:i + 6:2]
            ends = vindex.get(u), vindex.get(w)
            if (toks[i:i + 7:2] != _EDGE or e in _NOT_NAME or e[0] == "~"
                    or None in ends or e in eindex):
                self.expect(i + 1, [
                    ("edge name", lambda t: t[0] == "~" and
                     "edge declarations name the positive orientation"),
                    ":", ("vertex", None), "->", ("vertex", None), ";"],
                    [(k, toks[k] not in vindex and f"undeclared vertex {toks[k]!r}")
                     for k in (i + 3, i + 5)] + [(i + 1, f"duplicate edge {e!r}")])
            eindex[e] = 2 * len(edges)
            eindex["~" + e] = 2 * len(edges) + 1
            edges.append(ends)
            i += 7
        self.i = i
        self.take("}")
        try:
            doc.graphs[name] = Graph(len(vertex_names), edges,
                                     tuple(vertex_names), tuple(eindex)[::2])
        except Exception as exc:
            raise ParseError(f"invalid graph {name!r}: {exc}") from exc
        self.names[name] = (vindex, eindex)

    def parse_map(self, doc):
        toks, i = self.toks, self.i
        name, dom_name, cod_name = toks[i:i + 5:2]
        if (toks[i + 1:i + 6:2] != _MAP or name in _NOT_NAME or name in doc.maps
                or dom_name not in doc.graphs or cod_name not in doc.graphs):
            self.expect(i, [_new("map", doc.maps), ":", ("graph name", None), "->",
                            ("graph name", None)],
                        [(k, toks[k] not in doc.graphs and f"undeclared graph {toks[k]!r}")
                         for k in (i + 2, i + 4)])
            self.take("{")        # after the graph lookups
        dom, cod = doc.graphs[dom_name], doc.graphs[cod_name]
        (dom_v, dom_e), (cod_v, cod_e) = self.names[dom_name], self.names[cod_name]
        vimg, eimg = [None] * dom.n_vertices, [None] * dom.n_edges
        i += 6
        while toks[i] not in ("}", _END):
            if toks[i] == "vertex" and toks[i + 1] != "->":
                v, w = dom_v.get(toks[i + 1]), cod_v.get(toks[i + 3])
                if (toks[i + 2:i + 5:2] != _VERTEX or v is None or w is None
                        or vimg[v] is not None):
                    vertex = "vertex name", None
                    self.expect(i + 1, [vertex, "->", vertex, ";"],
                                [(k, toks[k] not in names and f"undeclared vertex {toks[k]!r}")
                                 for k, names in ((i + 1, dom_v), (i + 3, cod_v))]
                                + [(i + 1, f"duplicate image for vertex {toks[i + 1]!r}")])
                vimg[v] = w
                i += 5
                continue
            j = toks.index(";", i)
            e = dom_e.get(toks[i])
            path = tuple(map(cod_e.get, toks[i + 2:j]))
            if (toks[i + 1] != "->" or e is None or e % 2 == 1 or eimg[e >> 1] is not None
                    or None in path):
                self.expect(i, [
                    ("assignment", lambda t: _edge_error(t) if t not in dom_e else
                     dom_e[t] % 2 and "edge images are declared on positive edges"),
                    "->", ("edge token", lambda t: t not in cod_e and _edge_error(t), (";",)),
                    ";"],
                    [(i, f"duplicate image for edge {toks[i]!r}")])
            eimg[e >> 1] = path
            i = j + 1
        self.i = i
        self.take("}")
        if None in eimg:
            missing = [dom.edge_labels[k] for k, p in enumerate(eimg) if p is None]
            self.fail(f"map {name!r} misses images for edges {missing}")
        for v in range(dom.n_vertices):
            if vimg[v] is None:
                # the start of the image of an edge leaving v, or the end of one entering
                vimg[v] = next((cod.initial(p[0]) if d % 2 == 0 else cod.terminal(p[-1])
                                for d in dom.directions_at(v) if (p := eimg[d >> 1])), None)
                if vimg[v] is None:
                    self.fail(f"map {name!r} misses the image of vertex "
                              f"{dom.vertex_labels[v]!r}")
        try:
            gm = GraphMap(dom, cod, vimg, eimg, name=name)
        except Exception as exc:
            raise ParseError(f"invalid map {name!r}: {exc}") from exc
        doc.maps[name] = (gm, dom_name, cod_name)

    def parse_subst(self, doc):
        toks, i = self.toks, self.i
        j = toks.index("{", i)
        name, letters = toks[i], toks[i + 2:j]
        if (toks[i + 1] != "over" or name in _NOT_NAME or name in doc.substitutions
                or not _NOT_NAME.isdisjoint(letters)):
            self.expect(i, [_new("substitution", doc.substitutions), _keyword("over"),
                            ("letter", None, ("{",)), "{"])
        known = set(letters)
        images = {}
        i = j + 1
        close = min(toks.index("}", i), self.end)
        while i < close:
            j = min(toks.index(";", i), close)
            x, image = toks[i], toks[i + 2:j]
            if (toks[i + 1] != "->" or x not in known or x in images
                    or not known.issuperset(image)):
                letter = "letter", lambda t: t not in known and f"undeclared letter {t!r}"
                self.expect(i, [letter, "->", (*letter, (";", "}"))],
                            [(i, f"duplicate image for letter {x!r}")])
            images[x] = tuple(image)
            i = j + (toks[j] == ";")
        self.i = i
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
