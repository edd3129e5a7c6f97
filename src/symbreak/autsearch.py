"""Graph automorphism search by refinement and individualization.

The search computes generators for the automorphism group of a finite
graph, optionally constrained to preserve a vertex colouring.  It uses
iterated neighbour-multiset refinement (degree/colour refinement) with
individualization backtracking, pruning candidate branches by the orbits
of generators already found and abandoning a non-leftmost subtree as soon
as one automorphism has been extracted from it.  Candidates are tried in
increasing vertex order, so results are deterministic.

Refinement re-examines only the cells that can split: after individualizing
w, the cells with a neighbour of w; after a round, the cells with a
neighbour in a piece of a cell that split, every piece but its largest.
A round groups an examined cell's vertices by the sorted tuple of their
neighbours' cell starts, and the sorted tuples order the pieces.
The search keeps an explicit stack, so no depth needs the recursion limit
raised, and returns |Aut| when exhausted: the product over the levels L of
its left path of the orbit length of left_seq[L] under the generators
fixing left_seq[:L] (McKay 1981).  Those generators are a strong
generating set relative to the base left_seq, so the search hands the
left path over too, and the group's stabiliser chain is read off it.
Trees skip the search: their generators and order come from subtree codes.
"""

from __future__ import annotations

from .graphs import Graph
from .groups import PermGroup, orbit_of
from .perms import Perm


def _initial_partition(n, colours):
    if colours is None:
        return (tuple(range(n)),) if n else ()
    by_colour = {}
    for v in range(n):
        by_colour.setdefault(colours[v], []).append(v)
    return tuple(tuple(by_colour[c]) for c in sorted(by_colour))


def _refine(adj, cells, touched=None):
    """Equitable refinement: split cells by neighbour-cell multisets.

    A cell is named by its start, the position of its first vertex in the
    flattened partition.  A split keeps every other cell's start, and starts
    order the cells as their indices do, so signatures sort as by index.
    A round groups an examined cell's vertices, in cell order, by the
    sorted tuple of their neighbours' starts: two vertices share a tuple
    iff they share a neighbour-cell multiset, and the pieces follow their
    tuples in sorted order.  A round re-examines only the cells with a
    vertex adjacent to `touched`; no other cell can split.  `touched`
    starts as the given vertices (None: every cell is examined) and then
    holds, for each cell that split, the vertices of every piece but its
    first largest one, since the counts into that piece follow from the
    counts into the others.
    """
    by_start = {}
    cell_at = [0] * sum(len(c) for c in cells)
    start = 0
    for cell in cells:
        by_start[start] = cell
        for v in cell:
            cell_at[v] = start
        start += len(cell)
    start_of = cell_at.__getitem__
    while True:
        examine = by_start if touched is None else {cell_at[u] for v in touched for u in adj[v]}
        splits = []
        for start in examine:
            cell = by_start[start]
            if len(cell) == 1:
                continue
            groups = {}
            for v in cell:
                groups.setdefault(tuple(sorted(map(start_of, adj[v]))), []).append(v)
            if len(groups) > 1:
                splits.append((start, [tuple(groups[t]) for t in sorted(groups)]))
        if not splits:
            return tuple(by_start[s] for s in sorted(by_start))
        touched = []
        for start, pieces in splits:
            largest = max(pieces, key=len)
            for piece in pieces:
                by_start[start] = piece
                for v in piece:
                    cell_at[v] = start
                if piece is not largest:
                    touched += piece
                start += len(piece)


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


def _fixing(gens, points):
    """The perms among `gens` that fix every one of `points`."""
    return [h for h in gens if all(h.images[x] == x for x in points)]


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
    """Children lists, subtree code ids and subtree swaps for a tree rooted
    at its centre: one vertex, or both ends u < v of the centre edge.  The
    BFS starts at u and v is no child of u, so u's code is the u-half's and
    the two halves are the centre's children."""

    def __init__(self, g: Graph, centre, colours):
        n = g.vertex_count
        adj = g.adjacency
        root = centre[0]
        self.centre = centre
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
        if len(centre) == 2:
            children[root].remove(centre[1])
        # canonical code ids: equal ids iff equal (colour, sorted child codes)
        interned = {}
        self.code = code = [0] * n
        for v in reversed(order):
            key = (0 if colours is None else colours[v], tuple(sorted([code[u] for u in children[v]])))
            code[v] = interned.setdefault(key, len(interned))

    def identity(self):
        """[0, ..., n-1] made of the graph's own vertex ints, so a Perm built
        on it and kept by a caller holds no int objects of its own."""
        return sorted(self.order)

    def by_code(self, vs):
        return sorted(vs, key=lambda u: (self.code[u], u))

    def map_subtree(self, a, b, images):
        """Extend images by the code-matched bijection subtree(a) -> subtree(b)."""
        stack = [(a, b)]
        while stack:
            a, b = stack.pop()
            images[a] = b
            stack.extend(zip(self.by_code(self.children[a]), self.by_code(self.children[b])))

    def swap_generators(self):
        """Yield transpositions of adjacent code-equal subtrees.

        The classes are each vertex's children, in BFS order, and last the
        centre itself, whose two ends swap with their halves when the half
        codes agree.  The swaps generate the full automorphism group of the
        coloured tree, the iterated wreath product over code-equal siblings.
        When exhausted, returns that group's order: the product of m! over
        the classes of m code-equal subtrees, the centre's pair giving 2!.
        """
        group_order = 1
        for kids in [self.children[v] for v in self.order] + [self.centre]:
            kids = self.by_code(kids)
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


def _pointed_colours(g: Graph, colours, fixing):
    """`colours` with every point of `fixing` individualised (McKay 1981).

    The i-th distinct point s is coloured (colours[s], i + 1) and every
    other vertex v (colours[v], 0), so each point is a colour class of its
    own, sorting just after the rest of its colour; the uniform colouring
    stands in for no colours.  No points leave `colours` as it is.
    """
    rank = {}
    for s in fixing:
        g._check_vertex(s)
        rank.setdefault(s, len(rank) + 1)
    if not rank:
        return colours
    return [(0 if colours is None else colours[v], rank.get(v, 0)) for v in range(g.vertex_count)]


def _automorphisms(g: Graph, colours, fixing=()):
    """Generators of the (colour-preserving) automorphism group of g that
    fix every point of `fixing`, lazily; the points are individualised by
    `_pointed_colours`.

    A tree yields its sibling swaps in BFS order and then, for a centre
    edge, the swap of the halves; any other graph yields each search
    generator as it is found.  Exhausted, it returns the group order and
    a base relative to which the generators are strong, or None for a
    tree.
    """
    if colours is not None and len(colours) != g.vertex_count:
        raise ValueError("vertex colouring must be total")
    colours = _pointed_colours(g, colours, fixing)
    if g.is_tree():
        tree = _RootedTree(g, _tree_centres(g), colours)
        return (yield from tree.swap_generators()), None
    return (yield from _search(g, colours))


def _search(g: Graph, vertex_colours):
    """Yield search generators in the order the search finds them; return
    |Aut| and the left path."""
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
        pi = _refine(adj, _individualize(pi, v), (v,))
        left_partitions.append(pi)
    rho_order = _flatten(left_partitions[-1])
    left_shapes = [_shape(p) for p in left_partitions]
    depth = len(left_seq)

    def leaf_automorphism(cells):
        """The non-identity automorphism mapping the left leaf to this one, or None.

        Only adjacency is checked: the map preserves colours by construction.
        Every partition on the search tree refines the initial colour
        partition in place (a split or an individualization keeps each
        piece at its cell's positions), so position p of any leaf lies in
        the same colour block as position p of the left leaf.
        """
        leaf_order = _flatten(cells)
        images = [0] * n
        for a, b in zip(rho_order, leaf_order):
            images[a] = b
        for u in range(n):
            nbrs = adj_sets[images[u]]
            if len(adj[u]) != len(nbrs) or not all(images[w] in nbrs for w in adj[u]):
                return None
        cand = Perm(images, validate=False)
        return None if cand.is_identity() else cand

    def children(cells, level):
        """The children of a node at `level` whose shape matches the left path's."""
        for w in sorted(cells[_first_nonsingleton(cells)]):
            child = _refine(adj, _individualize(cells, w), (w,))
            if _shape(child) == left_shapes[level + 1]:
                yield child

    def first_below(cells, level):
        """Depth first below a node off the left path, children in increasing
        vertex order: the first leaf automorphism, or None."""
        if level == depth:
            return leaf_automorphism(cells)
        stack = [children(cells, level)]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
            elif level + len(stack) == depth:
                found = leaf_automorphism(child)
                if found is not None:
                    return found
            else:
                stack.append(children(child, level + len(stack)))
        return None

    # The left path's levels, deepest first: at each, one subtree per
    # candidate not already in the orbit of those tried, under the
    # generators that fix the prefix, yields at most one generator.  Those
    # generators are then final and form a strong generating set relative
    # to the base left_seq, so |Aut| is the product of the basic orbit
    # lengths.  A generator found at a level fixes its prefix.
    gens = []
    group_order = 1
    for level in reversed(range(depth)):
        cells = left_partitions[level]
        fixing = _fixing(gens, left_seq[:level])
        tried = orbit_of((left_seq[level],), fixing)  # the orbit of the tried candidates
        for w in sorted(cells[_first_nonsingleton(cells)]):
            if w in tried:
                continue
            child = _refine(adj, _individualize(cells, w), (w,))
            found = None
            if _shape(child) == left_shapes[level + 1]:
                found = first_below(child, level + 1)
            if found is None:
                tried |= orbit_of((w,), fixing)
            else:
                gens.append(found)
                fixing.append(found)
                yield found
                tried = orbit_of(tried | {w}, fixing)
        group_order *= len(orbit_of((left_seq[level],), fixing))
    return group_order, tuple(left_seq)


def first_automorphism(g: Graph, vertex_colours=None, fixing=()):
    """The first generator of ``automorphism_group(g, vertex_colours, fixing)``,
    or None when that group is trivial.

    The search stops there, so one automorphism certifies a non-trivial
    colour stabiliser; on a tree it is the first swap of code-equal
    siblings, the halves counting as the centre's pair.
    """
    return next(_automorphisms(g, vertex_colours, fixing), None)


def automorphism_group(g: Graph, vertex_colours=None, fixing=()) -> SearchGroup:
    """The automorphism group of g, colour-preserving when colours are given,
    and fixing each vertex of the iterable `fixing`.

    The fixed points are individualised in the search, so the pointwise
    stabiliser Aut(g, colours) ∩ Fix(fixing) costs one coloured search; a
    repeated point counts once and each must be a vertex of g.  The group
    carries the order the search returns, so its ``order()`` builds no
    stabiliser chain.  On a graph that is not a tree it also carries the
    search's left path as its base, so its chain needs no Schreier-Sims.
    """
    colours = None if vertex_colours is None else tuple(vertex_colours)
    fixing = tuple(fixing)
    search = _automorphisms(g, colours, fixing)
    gens = []
    while True:
        try:
            gens.append(next(search))
        except StopIteration as done:
            order, base = done.value
            return SearchGroup(g, colours, fixing, gens, order, base)


class SearchGroup(PermGroup):
    """Aut(g, colours) ∩ Fix(fixing), as ``automorphism_group`` returns it.

    The group keeps its search's arguments, so each of its pointwise
    stabilisers is one more search with the points added to `fixing`.
    """

    def __init__(self, g: Graph, colours, fixing, generators, order, base):
        super().__init__(g.vertex_count, generators, order=order, base=base)
        self._graph = g
        self._colours = colours
        self._fixing = fixing

    def pointwise_stabiliser(self, points) -> SearchGroup:
        """The subgroup fixing every given point, each a vertex of the graph:
        ``automorphism_group`` with the points added to `fixing`."""
        return automorphism_group(self._graph, self._colours, self._fixing + tuple(points))
