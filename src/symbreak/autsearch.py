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
        adj = g.adjacency
        # BFS by layers, each sorted, so order is by (depth, vertex)
        self.order = order = [root]
        self.children = children = [None] * n
        parent = [None] * n
        layer = [root]
        while layer:
            nxt = []
            for v in layer:
                p = parent[v]
                children[v] = kids = [u for u in adj[v] if u != p]
                for u in kids:
                    parent[u] = v
                nxt += kids
            nxt.sort()
            order += nxt
            layer = nxt
        # canonical code ids: equal ids iff equal keys
        self.colours = colours
        interned = {}
        self.code = [0] * n
        for v in reversed(order):
            self.code[v] = interned.setdefault(self.key(v, children[v]), len(interned))

    def key(self, v, kids):
        """v's colour and the sorted codes of `kids`, a subset of its children."""
        colour = self.colours[v] if self.colours is not None else 0
        return colour, tuple(sorted([self.code[u] for u in kids]))

    def identity(self):
        """[0, ..., n-1] made of the graph's own vertex ints, so a Perm built
        on it and kept by a caller holds no int objects of its own."""
        return sorted(self.order)

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
                images = self.identity()
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
    tree = _RootedTree(g, centres[0], colours)
    group_order = yield from tree.swap_generators()
    if len(centres) == 1:
        return group_order
    # v is a child of u; the u-half is u's subtree without v, and the halves
    # swap iff its key is v's, that is iff it would intern to v's code
    u, v = centres
    kids_u = [c for c in tree.sorted_children(u) if c != v]
    kids_v = tree.sorted_children(v)
    if tree.key(u, kids_u) == tree.key(v, kids_v):
        images = [0] * n
        images[u], images[v] = v, u
        for a, b in zip(kids_u, kids_v):
            tree.map_subtree(a, b, images)
            tree.map_subtree(b, a, images)
        yield Perm(images, validate=False)
        group_order *= 2
    return group_order


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
    if g.is_tree():
        return (yield from _tree_automorphisms(g, colours))
    # the search recurses once per individualized vertex; trees never do
    if n > 200:
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n + 1000))
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
