
import pytest
from hypothesis import example, given, settings, strategies as st

from ttm.errors import ParseError
from ttm.graphs import Graph
from ttm.maps import GraphMap
from ttm.textio import (
    PUNCT, InputDocument, format_table_tsv, parse, parse_path, print_document,
    token_strings, tokenize,
)

FIB_DOC = """
# Fibonacci example
graph R {
  vertices: * ;
  edge a: * -> * ;
  edge b: * -> * ;
}

map f: R -> R {
  vertex * -> * ;
  a -> a b ;
  b -> a ;
}

subst fib over a b { a -> a b ; b -> a }
"""


def test_parse_fibonacci():
    doc = parse(FIB_DOC)
    g = doc.graphs["R"]
    assert g.n_vertices == 1 and g.n_edges == 2
    f = doc.map("f")
    assert f.edge_image == ((0, 2), (0,))
    s = doc.substitution("fib")
    assert s.images == (("a", "b"), ("a",))


def test_print_parse_round_trip():
    doc = parse(FIB_DOC)
    text = print_document(doc)
    doc2 = parse(text)
    assert print_document(doc2) == text
    assert doc2.map("f") == doc.map("f")
    assert doc2.substitution("fib") == doc.substitution("fib")


def test_an_edge_named_vertex_round_trips():
    """``vertex`` starts a vertex image only when ``->`` does not follow it,
    so the printed image of an edge named ``vertex`` parses back."""
    g = Graph(1, [(0, 0), (0, 0)], ("v",), ("vertex", "b"))
    f = GraphMap(g, g, [0], [(0, 2), (2,)], name="f")
    doc = InputDocument()
    doc.graphs["G"] = g
    doc.maps["f"] = (f, "G", "G")
    text = print_document(doc)
    assert "  vertex v -> v ;\n  vertex -> vertex b ;\n" in text
    back = parse(text)
    assert print_document(back) == text
    assert back.map("f") == f


def test_inverse_tokens():
    doc = parse("""
    graph G { vertices: v ; edge a: v -> v ; edge b: v -> v ; }
    map g: G -> G { vertex v -> v ; a -> a ~b ; b -> b ; }
    """)
    assert doc.map("g").edge_image[0] == (0, 3)


def test_undeclared_edge_error_position():
    bad = """graph G { vertices: v ; edge a: v -> v ; edge b: v -> v ; }
map f: G -> G { a -> a c ; b -> a ; }"""
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert "c" in str(err.value)
    assert err.value.line == 2


def test_double_inversion_rejected():
    bad = """graph G { vertices: v ; edge a: v -> v ; edge b: v -> v ; }
map f: G -> G { a -> ~~a ; b -> a ; }"""
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert "~~" in str(err.value) or "inversion" in str(err.value)


def test_vertex_image_inferred():
    doc = parse("""
    graph G { vertices: v ; edge a: v -> v ; edge b: v -> v ; }
    map f: G -> G { a -> a b ; b -> a ; }
    """)
    assert doc.map("f").vertex(0) == 0


def test_missing_image_rejected():
    with pytest.raises(ParseError):
        parse("""
        graph G { vertices: v ; edge a: v -> v ; edge b: v -> v ; }
        map f: G -> G { a -> a b ; }
        """)


R_DOC = "graph R { vertices: v ; edge a: v -> v ; }\n"


@pytest.mark.parametrize("text, message, line, column", [
    (R_DOC + "map f: R -> R { a -> a ; }\ngraph R { vertices: w ; edge b: w -> w ; }",
     "duplicate graph 'R'", 3, 7),
    (R_DOC + "map f: R -> R { a -> a ; }\nmap f: R -> R { a -> a a ; }",
     "duplicate map 'f'", 3, 5),
    ("subst s over a { a -> a }\n  subst s over b { b -> b b }",
     "duplicate substitution 's'", 2, 9),
    (R_DOC + "map f: R -> R { vertex v -> v ; a -> a ;\n vertex v -> v ; }",
     "duplicate image for vertex 'v'", 3, 9),
])
def test_duplicate_declarations_rejected(text, message, line, column):
    """A repeated name of one declaration kind, or a second image of a
    vertex, is an error at the repeated name, like a second edge image."""
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (str(err.value), err.value.line, err.value.column) == (
        f"line {line}, col {column}: {message}", line, column)


def test_names_are_unique_per_declaration_kind():
    """A graph, a map and a substitution may share a name."""
    doc = parse(R_DOC + "map R: R -> R { a -> a a ; }\nsubst R over a { a -> a a }")
    assert doc.map("R").edge_image == ((0, 0),)
    assert doc.substitution("R").images == (("a", "a"),)


@pytest.mark.parametrize("text, message", [
    ("graph G { vertices: v ; edge a: v ->", "unexpected end of input"),
    (R_DOC + "map f: R -> R { vertex v ->", "unexpected end of input"),
    (R_DOC + "map f: R -> R { a -> a", "expected ';' at end of input"),
])
def test_declarations_cut_off_at_end_of_input(text, message):
    """A declaration cut off at the end of input is an error without a
    position."""
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (str(err.value), err.value.line, err.value.column) == (message, None, None)


def test_invalid_graph_reported():
    with pytest.raises(ParseError):
        parse("graph G { vertices: u v ; edge a: u -> v ; }")  # valence 1


def test_parse_path_tokens():
    doc = parse(FIB_DOC)
    g = doc.graphs["R"]
    assert parse_path(g, "a ~b a") == (0, 3, 0)
    with pytest.raises(ParseError):
        parse_path(g, "a ~~b")
    with pytest.raises(ParseError):
        parse_path(g, "a c")


def test_table_tsv_round_trip():
    """One ``label<TAB>value`` line per label, each with its listed value;
    the labels read back as paths."""
    g = parse(FIB_DOC).graphs["R"]
    text = format_table_tsv(["a", "b", "a b"], [(0, "9"), (1, "18"), (2, "9")])
    assert text == "a\t9\nb\t18\na b\t9\n"
    assert (format_table_tsv(["a", "b", "a b", "b a"], [(0, "0"), (1, "0"), (2, "0"), (3, "0")])
            == "a\t0\nb\t0\na b\t0\nb a\t0\n")
    assert format_table_tsv([], []) == ""
    back = {parse_path(g, label): value
            for label, value in (line.split("\t") for line in text.splitlines())}
    assert back == {(0,): "9", (2,): "18", (0, 2): "9"}


# -- tokenizer ---------------------------------------------------------------------


def scanning_tokenize(text):
    """Reference character scanner: (text, line, column) triples."""
    tokens = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        col, n = 0, len(line)
        while col < n:
            if line[col].isspace():
                col += 1
                continue
            matched = next((p for p in PUNCT if line.startswith(p, col)), None)
            if matched:
                tokens.append((matched, ln, col + 1))
                col += len(matched)
                continue
            start = col
            while col < n and not line[col].isspace() and \
                    not any(line.startswith(p, col) for p in PUNCT):
                col += 1
            tokens.append((line[start:col], ln, start + 1))
    return tokens


DOC_CHARS = st.sampled_from(list("ab~*-->{};:,# \t\n\r\x0b\x0c\x1c\x85\u00a0\u2028\u3000"))


@settings(max_examples=300)
@given(st.one_of(st.text(DOC_CHARS, max_size=60), st.text(max_size=60)))
def test_tokenize_matches_character_scanner(text):
    assert [(t.text, t.line, t.column) for t in tokenize(text)] == scanning_tokenize(text)


@settings(max_examples=300)
@given(st.one_of(st.text(DOC_CHARS, max_size=60), st.text(max_size=60)))
@example("a->b")
@example("-->")
@example("->->")
@example("->>")
@example("x#y->z")
@example("a ->\r\nb;c\r\n")
@example("a\x1e# b -> c\nd{")
@example("a\u2028#b\u2029c:d")
@example("a\x1fb")
def test_token_strings_are_the_token_texts(text):
    """The parser's flat token strings are the texts of the positioned
    tokens it recovers error positions from."""
    assert token_strings(text) == [t.text for t in tokenize(text)]


def test_tokenize_positions():
    assert [(t.text, t.line, t.column) for t in tokenize("a->b # c\n  -->x{")] == [
        ("a", 1, 1), ("->", 1, 2), ("b", 1, 4),
        ("-", 2, 3), ("->", 2, 4), ("x", 2, 6), ("{", 2, 7)]
