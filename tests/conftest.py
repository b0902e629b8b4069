import functools
import random

import pytest
from hypothesis import settings

import ttm.intervals as ia
from ttm.errors import GraphError, TTMError
from ttm.graphs import Graph, is_reduced, reverse_path, rose
from ttm.maps import GraphMap, is_expanding, is_train_track
from ttm.measures import eigen_measures, eigenvector_measure
from ttm.polys import largest_real_root
from ttm.towers import StationaryTower

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


def setup_of(kf):
    """Tower, weight tower (in both the vector and the weights slot) and
    measure of a measure."""
    return kf.tower, kf.weights, kf.weights, kf


@pytest.fixture(scope="session")
def fib_setup(fibonacci, golden_root):
    """The ``setup_of`` tuple of the measure of v = (phi, 1)."""
    return setup_of(eigenvector_measure(
        StationaryTower(fibonacci), (golden_root.interval(), ia.one()), golden_root))


@pytest.fixture(scope="session")
def tm_setup(thue_morse):
    """The ``setup_of`` tuple of the measure of v = (1, 1), lambda = 2."""
    return setup_of(eigenvector_measure(
        StationaryTower(thue_morse), (ia.one(), ia.one()), ia.exact(2)))


def measures_of(f):
    """The measure of every distinguished eigenpair of f above one."""
    return [kf for _, kf in eigen_measures(f)[0]]


def laminary_violations(paths, max_length: int, graph: Graph):
    """The members that keep a set of paths from being a laminary language
    truncated at ``max_length``: empty or unreduced ones, those whose
    reversal or maximal proper subpaths are missing, and those shorter than
    the bound without a left and a right extension in the set."""
    return [p for p in paths
            if not p or not is_reduced(p) or reverse_path(p) not in paths
            or len(p) > 1 and not {p[:-1], p[1:]} <= paths
            or len(p) < max_length and not (
                any((e0,) + p in paths for e0 in graph.extensions_left(p))
                and any(p + (e1,) in paths for e1 in graph.extensions_right(p)))]


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


def random_map(rng: random.Random, dom: Graph, cod: Graph, max_len=4):
    """A graph map with reduced non-trivial edge images, or None.  The
    candidates for an edge image are the codomain's reduced paths between
    the vertex images, in ``reduced_paths`` order."""
    between = {}
    for p in cod.reduced_paths(max_len):
        between.setdefault((cod.path_initial(p), cod.path_terminal(p)), []).append(p)
    for _ in range(60):
        vimg = [rng.randrange(cod.n_vertices) for _ in dom.vertices]
        eimg = []
        for k in range(dom.n_edges):
            u, w = vimg[dom.initial(2 * k)], vimg[dom.terminal(2 * k)]
            cands = between.get((u, w))
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
    """The first ``count`` random expanding train track self-maps on graphs
    of valence >= 3 that carry a measure, with few reduced paths up to length
    five, among the first 200 maps of the seed; raises when there are fewer,
    so a test never runs on fewer maps than it asks for.  The search runs
    once per argument tuple and session (several modules ask for the same
    draws)."""
    return list(_expanding_self_maps(seed, count, max_paths))


@functools.cache
def _expanding_self_maps(seed, count, max_paths):
    out = []
    for f in random_tame_maps(seed, 200):
        g = f.domain
        if (f.codomain is not g or any(g.valence(v) < 3 for v in g.vertices)
                or len(g.reduced_paths(5)) > max_paths
                or not is_train_track(f)[0] or not is_expanding(f)):
            continue
        try:
            if not eigen_measures(f)[0]:
                continue
        except TTMError:
            continue
        out.append(f)
        if len(out) == count:
            return tuple(out)
    raise ValueError(f"seed {seed} gives {len(out)} such maps, not {count}")


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
