import random
import sys
from collections import Counter

import pytest

from symbreak.autsearch import (
    _tree_centres,
    automorphism_group,
    first_automorphism,
)
from symbreak.graphs import (
    FamilySpec,
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    generate_family,
    hypercube,
    path_graph,
    star_graph,
)
from symbreak.groups import PermGroup

from conftest import (
    brute_force_automorphisms,
    petersen_graph,
    seeded_random_graphs,
    seeded_random_trees,
)


KNOWN_ORDERS = [
    (path_graph(2), 2),
    (path_graph(4), 2),
    (path_graph(7), 2),
    (cycle_graph(3), 6),
    (cycle_graph(6), 12),
    (cycle_graph(8), 16),
    (complete_graph(4), 24),
    (complete_graph(5), 120),
    (complete_bipartite(2, 3), 12),
    (complete_bipartite(3, 3), 72),
    (star_graph(4), 24),
    (hypercube(3), 48),
]


@pytest.mark.parametrize("graph, order", KNOWN_ORDERS)
def test_known_group_orders(graph, order):
    assert automorphism_group(graph).order() == order


def test_matches_brute_force_on_corpus(corpus):
    for name, g in corpus.items():
        if g.vertex_count > 8:
            continue
        expected = brute_force_automorphisms(g)
        aut = automorphism_group(g)
        assert aut.order() == len(expected), name
        for e in expected:
            assert aut.contains(e), (name, e)


def test_every_generator_preserves_adjacency(corpus):
    for name, g in corpus.items():
        adj = [frozenset(nbrs) for nbrs in g.adjacency]
        for gen in automorphism_group(g).generators:
            for v in range(g.vertex_count):
                assert frozenset(gen(u) for u in adj[v]) == adj[gen(v)], name


class TestColourConstrained:
    def test_c4_alternating(self):
        got = automorphism_group(cycle_graph(4), vertex_colours=(0, 1, 0, 1))
        assert got.order() == 4

    def test_matches_brute_force_with_colours(self):
        cases = [
            (cycle_graph(4), (0, 1, 0, 1)),
            (cycle_graph(4), (0, 0, 1, 1)),
            (cycle_graph(6), (0, 0, 0, 1, 1, 0)),
            (path_graph(4), (0, 0, 1, 0)),
            (complete_graph(4), (0, 1, 1, 0)),
            (star_graph(4), (0, 1, 1, 0, 1)),
        ]
        for g, colours in cases:
            expected = brute_force_automorphisms(g, colours)
            aut = automorphism_group(g, vertex_colours=colours)
            assert aut.order() == len(expected), colours
            for e in expected:
                assert aut.contains(e)

    def test_constant_colouring_is_unconstrained(self):
        g = cycle_graph(5)
        assert automorphism_group(g, vertex_colours=(7,) * 5).order() == 10

    def test_partial_colouring_rejected(self):
        with pytest.raises(ValueError):
            automorphism_group(path_graph(3), vertex_colours=(0, 1))


def test_edgeless_and_disconnected():
    edgeless = Graph.from_edges(4, [])
    assert automorphism_group(edgeless).order() == 24
    two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
    # each edge flips, and the two edges swap
    assert automorphism_group(two_edges).order() == 8


def test_single_vertex():
    assert automorphism_group(complete_graph(1)).order() == 1


def test_asymmetric_graph_is_trivial():
    # spider with leg lengths 1, 2, 3: the smallest asymmetric tree
    g = Graph.from_edges(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
    assert automorphism_group(g).order() == 1


def test_random_graphs_match_brute_force():
    # seeded fuzzing of the generic search against the permutation filter
    from symbreak.rng import SeededRng

    rng = SeededRng(777)
    for trial in range(120):
        draws = rng.stream(trial)
        n = 1 + draws.integers_below(6, 1)[0]
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        picks = draws.integers_below(3, len(all_pairs)) if all_pairs else []
        edges = [e for e, p in zip(all_pairs, picks) if p > 0]
        g = Graph.from_edges(n, edges)
        colours = tuple(draws.integers_below(2, n))
        for cols in (None, colours):
            expected = brute_force_automorphisms(g, cols)
            aut = automorphism_group(g, vertex_colours=cols)
            assert aut.order() == len(expected), (n, edges, cols)
            for e in expected:
                assert aut.contains(e)


def test_random_trees_match_brute_force():
    # exercises the tree fast path (single centres and centre edges) against
    # the permutation filter, with and without colours
    from symbreak.rng import SeededRng

    rng = SeededRng(1234)
    for trial in range(60):
        draws = rng.stream(trial)
        n = 2 + draws.integers_below(6, 1)[0]
        attach = draws.integers_below(max(n - 1, 1), n - 1)
        edges = [(attach[v - 1] % v, v) for v in range(1, n)]
        g = Graph.from_edges(n, edges)
        colours = tuple(draws.integers_below(2, n))
        for cols in (None, colours):
            expected = brute_force_automorphisms(g, cols)
            aut = automorphism_group(g, vertex_colours=cols)
            assert aut.order() == len(expected), (edges, cols)
            for e in expected:
                assert aut.contains(e)


def test_petersen_graph_order():
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((i + 5, 5 + (i + 2) % 5))
    g = Graph.from_edges(10, edges)
    assert automorphism_group(g).order() == 120


def test_first_automorphism_is_the_first_generator(corpus):
    graphs = (
        list(corpus.values())
        + [petersen_graph(), hypercube(4)]
        + seeded_random_graphs(11, 80)
        + seeded_random_trees(12, 80)
    )
    rnd = random.Random(13)
    for index, g in enumerate(graphs):
        n = g.vertex_count
        for k in (None, 2, 3):
            colours = None if k is None else tuple(rnd.randrange(k) for _ in range(n))
            gens = automorphism_group(g, colours).generators
            assert first_automorphism(g, colours) == (gens[0] if gens else None), (index, k)


def mirrored_tree(rnd, m):
    """Two copies of a random recursive tree on m vertices, joined root to root.

    Copy one holds 0..m-1 rooted at 0, copy two holds m..2m-1 rooted at m;
    the centre is the edge between the roots or lies inside one copy.
    """
    parents = [rnd.randrange(v) for v in range(1, m)]
    edges = [(0, m)]
    for copy in (0, m):
        edges += [(copy + p, copy + v) for v, p in enumerate(parents, start=1)]
    return Graph.from_edges(2 * m, edges)


def test_tree_order_from_codes_matches_the_chain():
    rnd = random.Random(21)
    cases = []
    for g in seeded_random_trees(22, 300):
        cases.append((g, None))
        cases.append((g, tuple(rnd.randrange(2) for _ in range(g.vertex_count))))
    for _ in range(220):
        g = mirrored_tree(rnd, rnd.randint(1, 15))
        half = [rnd.randrange(2) for _ in range(g.vertex_count // 2)]
        # the mirrored colouring keeps the halves swap
        cases += [(g, None), (g, tuple(half + half))]
    centres = Counter()
    halves_swapped = Counter()
    for index, (g, colours) in enumerate(cases):
        group = automorphism_group(g, colours)
        assert group.order() == PermGroup(g.vertex_count, group.generators).order(), index
        edges = {frozenset(e) for e in g.edges()}
        for h in group.generators:
            assert all(frozenset((h(a), h(b))) in edges for a, b in edges), index
            if colours is not None:
                assert all(colours[h(v)] == colours[v] for v in range(g.vertex_count)), index
        centre = _tree_centres(g)
        centres[len(centre), colours is None] += 1
        if len(centre) == 2 and any(h(centre[0]) == centre[1] for h in group.generators):
            halves_swapped[colours is None] += 1
    assert len(cases) >= 1000
    assert min(centres[c, plain] for c in (1, 2) for plain in (True, False)) >= 100
    assert min(halves_swapped[True], halves_swapped[False]) >= 50


TREE_FAMILIES = [
    FamilySpec("regular_tree", {"degree": 3}, 3),
    FamilySpec("regular_tree", {"degree": 3}, 4),
    FamilySpec("regular_tree", {"degree": 3}, 5),
    FamilySpec("regular_tree", {"degree": 4}, 3),
]


@pytest.mark.parametrize(
    "g",
    [generate_family(spec) for spec in TREE_FAMILIES] + [path_graph(n) for n in range(1, 12)],
    ids=[f"d{s.params['degree']}R{s.radius}" for s in TREE_FAMILIES]
    + [f"P{n}" for n in range(1, 12)],
)
def test_family_tree_order_from_codes_matches_the_chain(g):
    group = automorphism_group(g)
    assert group.order() == PermGroup(g.vertex_count, group.generators).order()


def test_long_trees_in_process():
    # the bicentral path swaps only its halves; the double ray fixes its centre
    for g, motion in (
        (path_graph(40000), 40000),
        (generate_family(FamilySpec("double_ray", {}, 20000)), 40000),
    ):
        group = automorphism_group(g)
        assert group.order() == 2
        assert group.motion().motion == motion


def test_trees_leave_the_recursion_limit_alone():
    rnd = random.Random(41)
    n = 5000
    recursive = Graph.from_edges(n, [(rnd.randrange(v), v) for v in range(1, n)])
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(1000)
        for g in (path_graph(n), recursive):
            automorphism_group(g).order()
            assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(limit)
