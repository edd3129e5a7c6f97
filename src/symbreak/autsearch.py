"""Graph automorphism search by refinement and individualization.

The search computes generators for the automorphism group of a finite
graph, optionally constrained to preserve a vertex colouring.  It uses
iterated neighbour-multiset refinement (degree/colour refinement) with
individualization backtracking, pruning candidate branches by the orbits
of generators already found and abandoning a non-leftmost subtree as soon
as one automorphism has been extracted from it.  Candidates are tried in
increasing vertex order, so results are deterministic.
"""

from __future__ import annotations

import sys
from collections import Counter

from .graphs import Graph
from .groups import PermGroup, orbit_of
from .perms import Perm


def _initial_partition(n, colours):
    if colours is None:
        return (tuple(range(n)),)
    by_colour = {}
    for v in range(n):
        by_colour.setdefault(colours[v], []).append(v)
    return tuple(tuple(by_colour[c]) for c in sorted(by_colour))


def _refine(adj, cells):
    """Equitable refinement: split cells by neighbour-cell multisets."""
    n = sum(len(c) for c in cells)
    while True:
        cell_id = [0] * n
        for ci, cell in enumerate(cells):
            for v in cell:
                cell_id[v] = ci
        new_cells = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups = {}
            for v in cell:
                sig = tuple(sorted(Counter(cell_id[u] for u in adj[v]).items()))
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    new_cells.append(tuple(groups[sig]))
        if not changed:
            return tuple(new_cells)
        cells = new_cells


def _individualize(cells, v):
    out = []
    for cell in cells:
        if v in cell and len(cell) > 1:
            out.append((v,))
            out.append(tuple(u for u in cell if u != v))
        else:
            out.append(cell)
    return tuple(out)


def _first_nonsingleton(cells):
    for idx, cell in enumerate(cells):
        if len(cell) > 1:
            return idx
    return None


def _shape(cells):
    return tuple(len(c) for c in cells)


def _flatten(cells):
    return tuple(v for cell in cells for v in cell)


def _tree_centres(g: Graph):
    """The one- or two-vertex centre of a tree, by repeated leaf removal."""
    n = g.vertex_count
    degree = [g.degree(v) for v in range(n)]
    remaining = n
    layer = [v for v in range(n) if degree[v] <= 1]
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            degree[v] = 0
            for u in g.adjacency[v]:
                degree[u] -= 1
                if degree[u] == 1:
                    nxt.append(u)
        layer = nxt
    return sorted(layer)


class _RootedTree:
    """Children lists, subtree code ids, and subtree swaps for a rooted tree."""

    def __init__(self, g: Graph, root, colours):
        n = g.vertex_count
        dist = g.distances(root)
        self.order = sorted(range(n), key=lambda v: (dist[v], v))
        self.children = [[] for _ in range(n)]
        for v in self.order:
            for u in g.adjacency[v]:
                if dist[u] == dist[v] + 1:
                    self.children[v].append(u)
        # canonical code ids: equal ids iff equal (colour, child-code multiset)
        interned = {}
        self.code = [0] * n
        for v in reversed(self.order):
            key = (
                colours[v] if colours is not None else 0,
                tuple(sorted(self.code[u] for u in self.children[v])),
            )
            self.code[v] = interned.setdefault(key, len(interned))

    def sorted_children(self, v):
        return sorted(self.children[v], key=lambda u: (self.code[u], u))

    def map_subtree(self, a, b, images):
        """Extend images by the code-matched bijection subtree(a) -> subtree(b)."""
        stack = [(a, b)]
        while stack:
            a, b = stack.pop()
            images[a] = b
            stack.extend(zip(self.sorted_children(a), self.sorted_children(b)))

    def swap_generators(self):
        """Yield transpositions of adjacent code-equal sibling subtrees.

        They generate the full automorphism group of the rooted coloured
        tree, the iterated wreath product over code-equal siblings.  When
        exhausted, returns that group's order: the product over vertices of
        m! for each class of m code-equal children.
        """
        n = len(self.code)
        group_order = 1
        for v in self.order:
            kids = self.sorted_children(v)
            run = 1  # members so far of the code-equal class of a
            for a, b in zip(kids, kids[1:]):
                if self.code[a] != self.code[b]:
                    run = 1
                    continue
                run += 1
                group_order *= run
                images = list(range(n))
                self.map_subtree(a, b, images)
                self.map_subtree(b, a, images)
                yield Perm(images, validate=False)
        return group_order


def _tree_automorphisms(g: Graph, colours):
    """Exact generators for a (coloured) tree via subtree codes; returns |Aut|.

    Every automorphism fixes the centre, so the group fixing it is the
    rooted tree's.  For a centre edge the two halves may additionally swap
    when their codes agree, which doubles the order.
    """
    n = g.vertex_count
    if n <= 1:
        return 1
    centres = _tree_centres(g)
    group_order = yield from _RootedTree(g, centres[0], colours).swap_generators()
    if len(centres) == 1:
        return group_order
    u, v = centres
    # halves around the centre edge: subtree(v) versus the rest rooted at u
    half_u = _half_code(g, u, v, colours)
    half_v = _half_code(g, v, u, colours)
    if half_u == half_v:
        images = [0] * n
        _map_half(g, u, v, colours, images)
        _map_half(g, v, u, colours, images)
        yield Perm(images)
        group_order *= 2
    return group_order


def _half_subtree(g: Graph, root, blocked):
    """BFS children structure of the component of `root` with `blocked` removed."""
    children = {root: []}
    queue = [root]
    while queue:
        x = queue.pop()
        for y in g.adjacency[x]:
            if y == blocked or y in children:
                continue
            children[x].append(y)
            children[y] = []
            queue.append(y)
    return children


def _half_code(g: Graph, root, blocked, colours):
    children = _half_subtree(g, root, blocked)

    def code(x):
        return (
            colours[x] if colours is not None else 0,
            tuple(sorted(code(y) for y in children[x])),
        )

    return code(root)


def _map_half(g: Graph, a, blocked_a, colours, images):
    """Match the half rooted at `a` onto the opposite half, code-sorted."""
    kids_a = _half_subtree(g, a, blocked_a)
    kids_b = _half_subtree(g, blocked_a, a)

    def code(children, x):
        return (
            colours[x] if colours is not None else 0,
            tuple(sorted(code(children, y) for y in children[x])),
        )

    def rec(x, y):
        images[x] = y
        xs = sorted(kids_a[x], key=lambda t: (code(kids_a, t), t))
        ys = sorted(kids_b[y], key=lambda t: (code(kids_b, t), t))
        for xc, yc in zip(xs, ys):
            rec(xc, yc)

    rec(a, blocked_a)


def _automorphisms(g: Graph, colours):
    """Generators of the (colour-preserving) automorphism group of g, lazily.

    A tree yields its sibling swaps in BFS order and then, for a centre
    edge, the swap of the halves; any other graph yields each search
    generator as it is found.  Exhausted, it returns the group order for a
    tree (read from the subtree codes) and None otherwise.
    """
    n = g.vertex_count
    if n == 0:
        return None
    if colours is not None and len(colours) != n:
        raise ValueError("vertex colouring must be total")
    if n > 200:
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n + 1000))
    if g.is_tree():
        return (yield from _tree_automorphisms(g, colours))
    yield from _search(g, colours)


def _search(g: Graph, vertex_colours):
    """Yield search generators in the order the search finds them."""
    n = g.vertex_count
    adj = g.adjacency
    adj_sets = [frozenset(nbrs) for nbrs in adj]

    pi0 = _refine(adj, _initial_partition(n, vertex_colours))

    # Leftmost descent: individualize the smallest vertex of the first
    # non-singleton cell until the partition is discrete.  A discrete pi0
    # leaves depth 0 and the search yields nothing.
    left_partitions = [pi0]
    left_seq = []
    pi = pi0
    while True:
        idx = _first_nonsingleton(pi)
        if idx is None:
            break
        v = min(pi[idx])
        left_seq.append(v)
        pi = _refine(adj, _individualize(pi, v))
        left_partitions.append(pi)
    rho_order = _flatten(left_partitions[-1])
    left_shapes = [_shape(p) for p in left_partitions]
    depth = len(left_seq)

    gens = []

    def try_leaf(cells):
        leaf_order = _flatten(cells)
        images = [0] * n
        for a, b in zip(rho_order, leaf_order):
            images[a] = b
        cand = Perm(images, validate=False)
        for u in range(n):
            cu = images[u]
            if vertex_colours is not None and vertex_colours[u] != vertex_colours[cu]:
                return None
            if frozenset(images[w] for w in adj[u]) != adj_sets[cu]:
                return None
        return cand

    def search(cells, level, on_left):
        # a subtree off the leftmost path yields at most one generator
        if level == depth:
            if not on_left:
                cand = try_leaf(cells)
                if cand is not None and not cand.is_identity():
                    gens.append(cand)
                    yield cand
            return
        cell = cells[_first_nonsingleton(cells)]
        if on_left:
            v = left_seq[level]
            yield from search(left_partitions[level + 1], level + 1, True)
            prefix = left_seq[:level]
            tried = [v]
            for w in sorted(cell):
                if w == v:
                    continue
                applicable = [h for h in gens if all(h.images[x] == x for x in prefix)]
                if w in orbit_of(tried, applicable):
                    continue
                child = _refine(adj, _individualize(cells, w))
                if _shape(child) == left_shapes[level + 1]:
                    yield from search(child, level + 1, False)
                tried.append(w)
            return
        for w in sorted(cell):
            child = _refine(adj, _individualize(cells, w))
            if _shape(child) != left_shapes[level + 1]:
                continue
            for found in search(child, level + 1, False):
                yield found
                return

    yield from search(pi0, 0, True)


def first_automorphism(g: Graph, vertex_colours=None):
    """The first of g's automorphism generators, or None when the group is trivial.

    The search stops there, so one automorphism certifies a non-trivial
    colour stabiliser; on a tree it is the first swap of code-equal
    siblings, or else of the halves.
    """
    return next(_automorphisms(g, vertex_colours), None)


def automorphism_group(g: Graph, vertex_colours=None) -> PermGroup:
    """The automorphism group of g, colour-preserving when colours are given.

    A tree's group carries its order, read from the subtree codes, so its
    ``order()`` builds no stabiliser chain.
    """
    search = _automorphisms(g, vertex_colours)
    gens = []
    while True:
        try:
            gens.append(next(search))
        except StopIteration as done:
            return PermGroup(g.vertex_count, gens, order=done.value)
