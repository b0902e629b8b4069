"""Test reference for ``ttm.maps.is_homotopy_equivalence``: the induced map
of fundamental groups, written out in a free basis.

``fundamental_group_images`` collapses a BFS spanning tree of the domain
(``_spanning_tree``, ``_tree_path``) and reads each non-tree edge's loop,
through the image of the tree, as a freely reduced word in the non-tree
edges (``_loop_word``).  ``subgroup_is_whole_group`` folds the bouquet of
those words at the basepoint and asks whether every basis letter labels a
loop there.  Together they decide surjectivity of f_* from the edge images
alone, without the fold of the map itself that the library runs.
"""

from ttm.errors import MapError
from ttm.graphs import Graph, inverse, reverse_path


def _spanning_tree(g: Graph):
    """BFS tree: parent direction per vertex (None at the root)."""
    parent = {0: None}
    order = [0]
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for d in g.directions_at(v):
            w = g.terminal(d)
            if w not in parent:
                parent[w] = d
                order.append(w)
    return parent


def _tree_path(g: Graph, parent, v):
    """Edge path from the root to v inside the tree."""
    path = []
    while parent[v] is not None:
        d = parent[v]
        path.append(d)
        v = g.initial(d)
    return tuple(reversed(path))


def _loop_word(path, gen_of_edge):
    """Collapse the spanning tree: a closed path becomes a word in the free
    generators (non-tree positive edges), as a tuple of signed generator ids
    (1-based, negative = inverse), freely reduced.
    """
    word = []
    for e in path:
        k = gen_of_edge.get(e >> 1)
        if k is None:
            continue
        g = k + 1 if e % 2 == 0 else -(k + 1)
        if word and word[-1] == -g:
            word.pop()
        else:
            word.append(g)
    return tuple(word)


def fundamental_group_images(f):
    """Words (in a fixed free basis of the fundamental group) generating the
    image subgroup of the induced endomorphism, plus the rank."""
    if not f.is_self_map():
        raise MapError("fundamental group analysis needs a self-map")
    g = f.domain
    parent = _spanning_tree(g)
    gen_of_edge = {}
    for k in range(g.n_edges):
        e = 2 * k
        if parent.get(g.terminal(e)) == e or parent.get(g.initial(e)) == inverse(e):
            continue  # tree edge
        gen_of_edge[k] = len(gen_of_edge)
    rank = len(gen_of_edge)
    assert rank == g.rank()
    base_paths = {v: _tree_path(g, parent, v) for v in g.vertices}
    q = base_paths[f.vertex(0)]  # root .. image of root
    words = []
    for k in sorted(gen_of_edge):
        e = 2 * k
        loop = (q
                + f.map_path(base_paths[g.initial(e)])
                + f.image(e)
                + reverse_path(f.map_path(base_paths[g.terminal(e)]))
                + reverse_path(q))
        words.append(_loop_word(loop, gen_of_edge))
    return words, rank


def subgroup_is_whole_group(words, rank) -> bool:
    """Does the subgroup generated by the words equal the whole free group?

    The words are wedged as loops at the basepoint, state 0, and folded
    (Stallings) by a worklist: each state has one signed letter -> state
    dict, a second edge with a letter already there queues its target and
    the first one for merging, and a merge moves the smaller dict into the
    larger.  Membership of a basis letter is then a labelled loop at the
    basepoint, and containing every basis letter is equivalent to being the
    whole group.
    """
    if rank == 0:
        return True
    out = [{}]       # out[state]: signed letter -> state (not yet merged away)
    parent = [0]     # merged states point towards their representative
    clashes = []

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def add(u, letter, v):
        w = out[u].setdefault(letter, v)
        if w != v:
            clashes.append((w, v))

    for word in words:
        cur = 0
        for i, letter in enumerate(word):
            if i == len(word) - 1:
                target = 0
            else:
                target = len(out)
                out.append({})
                parent.append(target)
            add(cur, letter, target)
            add(target, -letter, cur)
            cur = target
    while clashes:
        a, b = map(find, clashes.pop())
        if a != b:
            if len(out[a]) < len(out[b]):
                a, b = b, a
            parent[b] = a
            for letter, v in out[b].items():
                add(a, letter, v)
            out[b] = None
    base = find(0)
    at_base = out[base]
    return all(k in at_base and find(at_base[k]) == base for k in range(1, rank + 1))
