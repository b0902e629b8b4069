import random

import pytest
from hypothesis import settings

import ttm.intervals as ia
from ttm.cli import build_measure
from ttm.errors import GraphError, TTMError
from ttm.graphs import Graph, rose
from ttm.maps import GraphMap, is_expanding, is_train_track
from ttm.measures import KolmogorovFunction
from ttm.polys import largest_real_root
from ttm.towers import StationaryTower, VectorTower, weight_tower_from_vector

# property tests replay the same examples on every run and store none
settings.register_profile("repeatable", deadline=None, derandomize=True, database=None)
settings.load_profile("repeatable")

# edge ids on the two-petal rose
A, Abar, B, Bbar = 0, 1, 2, 3


@pytest.fixture(scope="session")
def rose2():
    return rose(2, ("a", "b"))


@pytest.fixture(scope="session")
def fibonacci(rose2):
    """a -> ab, b -> a"""
    return GraphMap(rose2, rose2, [0], [(A, B), (A,)], name="fib")


@pytest.fixture(scope="session")
def thue_morse(rose2):
    """a -> ab, b -> ba"""
    return GraphMap(rose2, rose2, [0], [(A, B), (B, A)], name="tm")


@pytest.fixture(scope="session")
def golden_root():
    return largest_real_root((-1, -1, 1))


@pytest.fixture(scope="session")
def fib_setup(fibonacci, golden_root):
    """Tower, vector tower with v = (phi, 1), weights, measure."""
    tower = StationaryTower(fibonacci)
    vt = VectorTower(tower, (golden_root.interval(), ia.one()), golden_root)
    wt = weight_tower_from_vector(tower, vt)
    return tower, vt, wt, KolmogorovFunction(tower, wt)


@pytest.fixture(scope="session")
def tm_setup(thue_morse):
    """Tower, vector tower with v = (1, 1), lambda = 2, weights, measure."""
    tower = StationaryTower(thue_morse)
    vt = VectorTower(tower, (ia.one(), ia.one()), ia.exact(2))
    wt = weight_tower_from_vector(tower, vt)
    return tower, vt, wt, KolmogorovFunction(tower, wt)


# -- random generation for the property suites ----------------------------------


def random_graph(rng: random.Random, max_vertices=4, max_edges=6) -> Graph:
    while True:
        nv = rng.randint(1, max_vertices)
        ne = rng.randint(max(1, nv), max_edges)
        endpoints = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(ne)]
        try:
            return Graph(nv, endpoints)
        except GraphError:
            continue


def reduced_paths_between(g: Graph, u: int, w: int, max_len: int):
    return [p for p in g.reduced_paths(max_len, start=u)
            if g.path_terminal(p) == w]


def random_map(rng: random.Random, dom: Graph, cod: Graph, max_len=4):
    """A graph map with reduced non-trivial edge images, or None."""
    for _ in range(60):
        vimg = [rng.randrange(cod.n_vertices) for _ in dom.vertices]
        eimg = []
        for k in range(dom.n_edges):
            u, w = vimg[dom.initial(2 * k)], vimg[dom.terminal(2 * k)]
            cands = reduced_paths_between(cod, u, w, max_len)
            if not cands:
                eimg = None
                break
            eimg.append(rng.choice(cands))
        if eimg is not None:
            return GraphMap(dom, cod, vimg, eimg)
    return None


def random_tame_maps(seed: int, count: int, max_len=4):
    """A reproducible stream of maps with reduced non-trivial images."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dom = random_graph(rng)
        cod = random_graph(rng) if rng.random() < 0.5 else dom
        f = random_map(rng, dom, cod, max_len)
        if f is not None:
            out.append(f)
    return out


def expanding_self_maps(seed, count, max_paths=1000):
    """Random expanding train track self-maps on graphs of valence >= 3
    that carry a measure, with few reduced paths up to length five."""
    out = []
    for f in random_tame_maps(seed, 200):
        g = f.domain
        if (f.codomain is not g or any(g.valence(v) < 3 for v in g.vertices)
                or len(g.reduced_paths(5)) > max_paths
                or not is_train_track(f)[0] or not is_expanding(f)):
            continue
        try:
            build_measure(f, "auto")
        except TTMError:
            continue
        out.append(f)
        if len(out) == count:
            break
    return out


def rose_map(*images):
    """Self-map of the rose whose petals a, b, c, ... go to the given words
    of positively crossed petals."""
    letters = "abcdefgh"[:len(images)]
    g = rose(len(images), tuple(letters))
    return GraphMap(g, g, [0], [tuple(2 * letters.index(x) for x in w) for w in images])


def pullback_maps():
    """Named expanding train track maps for the equivalence tests of the
    pullback and window searches: the Fibonacci, Thue-Morse and tribonacci
    roses, the benchmark maps q, q2 and red, and seeded random maps (one of
    them on two vertices)."""
    return ([("fibonacci", rose_map("ab", "a")), ("thue-morse", rose_map("ab", "ba")),
             ("tribonacci", rose_map("ab", "ac", "a")), ("q", rose_map("ab", "c", "d", "a")),
             ("q2", rose_map("ac", "a", "bd", "a")), ("red", rose_map("ab", "ba", "cccab"))]
            + [(f"random-{k}", f) for k, f in enumerate(expanding_self_maps(1414, 3))])
