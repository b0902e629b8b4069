"""Graphs with oriented-edge involution, reduced edge paths and turns.

An unoriented edge is stored as a pair of oppositely oriented edges.  Oriented
edges are small integers: the pair for unoriented edge ``k`` is ``2k``
(the positive orientation) and ``2k + 1`` (its reverse), so the involution is
``e ^ 1`` and the positive section is the set of even ids.  Fixing the section
once makes transition-matrix row/column order deterministic everywhere.

Edge paths are plain tuples of oriented edge ids.  Reversal and reducedness
are independent of the ambient graph; adjacency validation is not and lives on
:class:`Graph`.

All objects here are immutable after construction.
"""

from __future__ import annotations

from .errors import GraphError, PathError

Path = tuple  # tuple of oriented edge ids
Turn = tuple  # normalised (min, max) pair of oriented edge ids


def inverse(e: int) -> int:
    """The oppositely oriented edge."""
    return e ^ 1


def is_positive(e: int) -> bool:
    return e % 2 == 0


def reverse_path(path: Path) -> Path:
    """The inversely oriented path: entries inverted, order reversed."""
    return tuple([e ^ 1 for e in path[::-1]])    # e ^ 1 is inverse(e)


def is_reduced(path: Path) -> bool:
    """True iff no adjacent pair cancels (e followed by its inverse)."""
    return all(path[i + 1] != inverse(path[i]) for i in range(len(path) - 1))


def make_turn(d1: int, d2: int) -> Turn:
    """Unordered pair of directions, normalised for hashing."""
    return (d1, d2) if d1 <= d2 else (d2, d1)


def is_degenerate(turn: Turn) -> bool:
    return turn[0] == turn[1]


def turns_of(path: Path) -> list:
    """The turns a reduced path crosses: {e_i reversed, e_{i+1}} at each junction.

    Rejects unreduced input, so no returned turn is degenerate.
    """
    if not is_reduced(path):
        raise PathError("turns_of requires a reduced path")
    return [make_turn(inverse(path[i]), path[i + 1]) for i in range(len(path) - 1)]


class Graph:
    """Finite connected graph without valence-1 vertices.

    Parameters
    ----------
    n_vertices:
        Number of vertices; vertex ids are ``0 .. n_vertices - 1``.
    endpoints:
        One ``(initial, terminal)`` vertex pair per unoriented edge; pair ``k``
        describes the positive orientation ``2k``.
    vertex_labels, edge_labels:
        Optional display names (edge labels name the positive orientations).
    """

    def __init__(self, n_vertices, endpoints, vertex_labels=None, edge_labels=None):
        n = self.n_vertices = int(n_vertices)
        if n <= 0:
            raise GraphError("graph needs at least one vertex")
        # the endpoints, the initial and the terminal vertex of each oriented
        # edge by id, and at[v] = the oriented edges with initial vertex v
        ends, tails, heads = [], [], []
        at = [[] for _ in range(n)]
        for a, b in endpoints:
            a, b = int(a), int(b)
            if not (0 <= a < n and 0 <= b < n):
                raise GraphError("edge endpoint out of range")
            at[a].append(len(tails))
            at[b].append(len(tails) + 1)
            ends.append((a, b))
            tails += (a, b)
            heads += (b, a)
        self._endpoints, self._tails, self._heads = tuple(ends), tuple(tails), tuple(heads)
        self.n_edges = len(ends)
        self.vertex_labels = tuple(vertex_labels) if vertex_labels else tuple(
            f"v{i}" for i in range(n))
        self.edge_labels = tuple(edge_labels) if edge_labels else tuple(
            f"e{i}" for i in range(self.n_edges))
        if len(self.vertex_labels) != n or len(self.edge_labels) != self.n_edges:
            raise GraphError("label count mismatch")
        self._directions = tuple(map(tuple, at))
        self._check_valence()
        self._check_connected()

    # -- invariant checks ----------------------------------------------------

    def _check_valence(self):
        for v, ds in enumerate(self._directions):
            if len(ds) < 2:
                raise GraphError(f"vertex {self.vertex_labels[v]} has valence {len(ds)} < 2")

    def _check_connected(self):
        heads, directions = self._heads, self._directions
        seen = {0}
        stack = [0]
        while stack:
            for d in directions[stack.pop()]:
                w = heads[d]
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != self.n_vertices:
            raise GraphError("graph is not connected")

    # -- basic accessors -------------------------------------------------------

    @property
    def vertices(self):
        return range(self.n_vertices)

    @property
    def positive_edges(self):
        """The stored section Edges+ (one orientation per unoriented edge)."""
        return range(0, 2 * self.n_edges, 2)

    @property
    def oriented_edges(self):
        return range(2 * self.n_edges)

    def terminal(self, e: int) -> int:
        return self._heads[e]

    def initial(self, e: int) -> int:
        return self._tails[e]

    def valence(self, v: int) -> int:
        return len(self._directions[v])

    def directions_at(self, v: int):
        """Oriented edges with initial vertex v, in increasing id order."""
        return self._directions[v]

    def turns_at(self, v: int):
        """All non-degenerate unordered turns based at v."""
        ds = self._directions[v]
        return [make_turn(ds[i], ds[j])
                for i in range(len(ds)) for j in range(i + 1, len(ds))]

    def all_turns(self):
        out = []
        for v in self.vertices:
            out.extend(self.turns_at(v))
        return out

    def edge_label(self, e: int) -> str:
        name = self.edge_labels[e >> 1]
        return name if e % 2 == 0 else "~" + name

    def path_label(self, path: Path) -> str:
        return " ".join(self.edge_label(e) for e in path)

    # -- path validation ---------------------------------------------------------

    def is_path(self, path: Path) -> bool:
        if path and not (0 <= min(path) and max(path) < 2 * self.n_edges):
            return False
        heads, tails = self._heads, self._tails
        return all(heads[a] == tails[b] for a, b in zip(path, path[1:]))

    def path_initial(self, path: Path) -> int:
        return self.initial(path[0])

    def path_terminal(self, path: Path) -> int:
        return self.terminal(path[-1])

    # -- path enumeration ----------------------------------------------------------

    def reduced_paths(self, max_length: int):
        """All non-trivial reduced paths of length <= max_length, by length
        and then by edge ids.

        Intended for desk-scale graphs; the count grows exponentially in
        ``max_length``.
        """
        frontier = [(e,) for e in self.oriented_edges if max_length >= 1]
        out = list(frontier)
        for _ in range(max_length - 1):
            nxt = []
            for p in frontier:
                v = self.terminal(p[-1])
                for d in self._directions[v]:
                    if d != inverse(p[-1]):
                        nxt.append(p + (d,))
            out.extend(nxt)
            frontier = nxt
        return out

    def extensions_left(self, path: Path):
        """Edges e0 with e0 + path reduced."""
        v = self.path_initial(path)
        bad = inverse(path[0])
        return [inverse(d) for d in self._directions[v] if inverse(d) != bad]

    def extensions_right(self, path: Path):
        """Edges e1 with path + e1 reduced."""
        v = self.path_terminal(path)
        bad = inverse(path[-1])
        return [d for d in self._directions[v] if d != bad]

    # -- misc ---------------------------------------------------------------------

    def rank(self) -> int:
        """Rank of the (free) fundamental group."""
        return self.n_edges - self.n_vertices + 1

    def __repr__(self):
        return f"Graph({self.n_vertices} vertices, {self.n_edges} edges)"


def rose(n_petals: int, edge_labels=None) -> Graph:
    """One-vertex graph with ``n_petals`` loops."""
    return Graph(1, [(0, 0)] * n_petals, vertex_labels=("*",), edge_labels=edge_labels)


def subpaths_up_to(path: Path, max_length: int):
    """All non-empty subpaths of ``path`` with length <= max_length."""
    n = len(path)
    return {path[i:j] for i in range(n) for j in range(i + 1, min(i + max_length, n) + 1)}
