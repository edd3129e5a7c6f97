import hashlib
import math
import random
import sys
from collections import Counter

import pytest

from symbreak import autsearch
from symbreak.autsearch import (
    _first_nonsingleton,
    _individualize,
    _initial_partition,
    _pointed_colours,
    _refine,
    _tree_centres,
    automorphism_group,
    first_automorphism,
)
from symbreak.conditions import _suborbit_classes
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
from symbreak.perms import Perm
from symbreak.topology import ExhaustionSequence

from conftest import (
    brute_force_automorphisms,
    petersen_graph,
    plain_and_coloured,
    pointwise_stabiliser,
    refine_every_cell,
    seeded_random_graphs,
    seeded_random_trees,
)


def z4_squared_graph(differences):
    """The graph on Z4 x Z4, vertex 4 i + j standing for (i, j), that joins
    two vertices when they differ by one of `differences`."""
    return Graph.from_edges(
        16,
        [
            (u, v)
            for u in range(16)
            for v in range(u + 1, 16)
            if ((v // 4 - u // 4) % 4, (v % 4 - u % 4) % 4) in differences
        ],
    )


# both srg(16, 6, 2, 2), so refinement from the uniform partition splits
# nothing and the search does all the work
SHRIKHANDE = z4_squared_graph({(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)})
ROOK_4X4 = z4_squared_graph({(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)})  # K4 x K4


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
    # vertex-transitive, and a vertex's stabiliser acts on its neighbourhood,
    # a hexagon, as the dihedral group of order 12
    (SHRIKHANDE, 16 * 12),
    # permute the rows, permute the columns, transpose
    (ROOK_4X4, 2 * math.factorial(4) ** 2),
]


@pytest.mark.parametrize("graph, order", KNOWN_ORDERS)
def test_known_group_orders(graph, order):
    assert automorphism_group(graph).order() == order


@pytest.mark.parametrize("graph", [SHRIKHANDE, ROOK_4X4], ids=["shrikhande", "rook4x4"])
def test_strongly_regular_graphs_do_not_refine(graph):
    everything = (tuple(range(16)),)
    assert _refine(graph.adjacency, everything) == everything


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


def test_every_generator_preserves_colours(corpus):
    """The search checks a leaf map's adjacency only: each partition on the
    search tree refines the colour partition in place, so a leaf maps every
    vertex to one of its own colour.  Checked here on seeded 2- and
    3-colourings, with zero, one or two points fixed."""
    graphs = (
        list(corpus.values())
        + [hypercube(4), family("grid", 4, dimension=2)]
        + seeded_random_graphs(71, 60, max_n=12)
    )
    rnd = random.Random(72)
    generators = 0
    for index, g in enumerate(graphs):
        n = g.vertex_count
        for k in (2, 3):
            colours = tuple(rnd.randrange(k) for _ in range(n))
            for size in (0, 1, 2):
                fixing = rnd.sample(range(n), min(size, n))
                for h in automorphism_group(g, colours, fixing).generators:
                    assert all(colours[h(v)] == colours[v] for v in range(n)), (index, k, fixing)
                    generators += 1
    assert generators >= 100


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
        # the length is checked before the empty graph's trivial group
        with pytest.raises(ValueError, match="total"):
            automorphism_group(Graph([]), vertex_colours=(5,))


def test_edgeless_and_disconnected():
    edgeless = Graph.from_edges(4, [])
    assert automorphism_group(edgeless).order() == 24
    for colours in (None, ()):
        assert automorphism_group(Graph([]), colours).order() == 1
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
    points = random.Random(14)
    for index, g in enumerate(graphs):
        n = g.vertex_count
        for k in (None, 2, 3):
            colours = None if k is None else tuple(rnd.randrange(k) for _ in range(n))
            for fixing in ((), points.sample(range(n), points.randint(1, min(n, 3)))):
                gens = automorphism_group(g, colours, fixing).generators
                first = first_automorphism(g, colours, fixing)
                assert first == (gens[0] if gens else None), (index, k, fixing)


def test_fixing_is_the_pointwise_stabiliser(corpus):
    """`fixing=S` gives Aut(g, c) ∩ Fix(S): the order of the Schreier-Sims
    oracle `pointwise_stabiliser` on the search's generators alone, for
    every ball about vertex 0 and for seeded random point sets, the empty
    set and repeated points included, each handed over as a one-pass
    iterator."""
    d3 = family("regular_tree", 2, degree=3)
    n = d3.vertex_count
    # two d3 R2 balls joined root to root: a tree with the centre edge (0, n)
    bicentral = Graph.from_edges(2 * n, d3.edges() + [(u + n, v + n) for u, v in d3.edges()] + [(0, n)])
    graphs = (
        list(corpus.items())
        + [(f"Q{d}", hypercube(d)) for d in (4, 5, 6)]
        + [(f"d3R{r}", family("regular_tree", r, degree=3)) for r in (2, 3, 4)]
        + [("bicentral", bicentral), ("grid2R6", family("grid", 6, dimension=2))]
        + [("ladderR8", family("ladder", 8))]
        + [(f"random{i}", g) for i, g in enumerate(seeded_random_graphs(61, 40))]
    )
    assert _tree_centres(bicentral) == [0, n]
    rnd = random.Random(62)
    for name, g, colours in plain_and_coloured(graphs, 63):
        n = g.vertex_count
        group = PermGroup(n, automorphism_group(g, colours).generators)
        balls = ExhaustionSequence.balls(g, 0)
        point_sets = [list(balls.points(i)) for i in range(1, len(balls) + 1)] + [[]]
        point_sets += [[rnd.randrange(n) for _ in range(rnd.randint(1, 5))] for _ in range(4)]
        for points in point_sets:
            fixer = automorphism_group(g, colours, fixing=iter(points))
            assert fixer.order() == pointwise_stabiliser(group, points).order(), (name, points)
            for h in fixer.generators:
                assert all(h(s) == s for s in points), (name, points)
                assert all(colours[h(v)] == colours[v] for v in range(n)), (name, points)


@pytest.mark.parametrize("point", [-1, 4, True, 1.0, "0"])
@pytest.mark.parametrize("graph", [cycle_graph(4), path_graph(4)], ids=["search", "tree"])
def test_fixing_rejects_what_is_no_vertex(graph, point):
    with pytest.raises(ValueError, match="invalid vertex index"):
        automorphism_group(graph, fixing=(0, point))
    with pytest.raises(ValueError, match="invalid vertex index"):
        first_automorphism(graph, (0, 1, 0, 1), fixing=[point])


def mirrored_tree(rnd, m):
    """Two copies of a random recursive tree on m vertices, joined root to root.

    Copy one holds 0..m-1 rooted at 0, copy two holds m..2m-1 rooted at m;
    swapping the copies maps the centre to itself and fixes no vertex, so
    the centre is the edge between the roots.
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


def family(kind, radius, **params):
    return generate_family(FamilySpec(kind, params, radius))


def test_refinement_matches_the_every_cell_oracle(corpus):
    """Cells, their order and the order within each are the oracle's: on
    initial partitions, plain, coloured and with one or two points
    individualised as `fixing=` does it, and on every child of each node
    along a random path down to a discrete partition."""
    graphs = (
        list(corpus.values())
        + [hypercube(d) for d in (3, 5, 6)]
        + [complete_graph(7), complete_bipartite(3, 5), cycle_graph(9), path_graph(12)]
        + [family("grid", 6, dimension=2), family("grid", 3, dimension=3)]
        + [family("ladder", 8), family("regular_tree", 3, degree=3)]
    )
    # these also start from partitions with one or two points individualised
    pointed = [hypercube(4), family("grid", 4, dimension=2)] + seeded_random_graphs(31, 60, max_n=14)
    rnd = random.Random(32)
    refinements = pointed_refinements = 0

    def check_path_down(g, colours, case):
        nonlocal refinements
        adj = g.adjacency
        cells = _initial_partition(g.vertex_count, colours)
        pi = _refine(adj, cells)
        assert pi == refine_every_cell(adj, cells), case
        refinements += 1
        while (idx := _first_nonsingleton(pi)) is not None:
            children = []
            for w in pi[idx]:
                child = _refine(adj, _individualize(pi, w), (w,))
                assert child == refine_every_cell(adj, _individualize(pi, w)), (case, w)
                children.append(child)
            refinements += len(children)
            pi = rnd.choice(children)

    for index, g in enumerate(graphs + pointed):
        n = g.vertex_count
        for k in (None, 2, 3):
            colours = None if k is None else [rnd.randrange(k) for _ in range(n)]
            check_path_down(g, colours, (index, k))
            if index < len(graphs):
                continue
            before = refinements
            for size in (1, 2):
                points = rnd.sample(range(n), min(size, n))
                check_path_down(g, _pointed_colours(g, colours, points), (index, k, points))
            pointed_refinements += refinements - before
    assert refinements >= 1400 and pointed_refinements >= 400


def test_pieces_follow_the_neighbour_cell_counts():
    """A split cell's pieces are ordered by the sorted tuples of their
    neighbours' cell starts.  Cell (3, 4) at start 3 splits: 3 has both
    neighbours in cell 0, tuple (0, 0), and 4 one in cell 0 and one in cell
    5, tuple (0, 5), so 3 comes first.  Then (0, 1, 2) splits: 0 and 1 are
    next to 3, still at start 3, and 2 is next to 4, now at start 4, so 0
    and 1 come before 2."""
    adj = Graph.from_edges(6, [(0, 3), (1, 3), (2, 4), (4, 5)]).adjacency
    cells = ((0, 1, 2), (3, 4), (5,))
    assert _refine(adj, cells) == ((0, 1), (2,), (3,), (4,), (5,))
    assert _refine(adj, cells) == refine_every_cell(adj, cells)


def search_record(g, colours):
    """Everything the search decides, as plain tuples: generators in order,
    the first automorphism, order, base, strong generators, transversals,
    elements in `elements()` order, and motion with its witness."""
    group = automorphism_group(g, colours)
    first = first_automorphism(g, colours)
    motion = group.motion()
    return (
        tuple(h.images for h in group.generators),
        None if first is None else first.images,
        group.order(),
        group.base,
        tuple(h.images for h in group.strong_generators),
        tuple(tuple(sorted((p, u.images) for p, u in t.items())) for t in group.transversals),
        tuple(e.images for e in group.elements()),
        motion.motion,
        None if motion.witness is None else motion.witness.images,
    )


def pinned_searches(corpus):
    """(graph, colours) for 107 graphs, plain and randomly 2-coloured: the
    214 searches the digests below are taken over."""
    graphs = (
        list(corpus.values())
        + [hypercube(4), hypercube(5), complete_graph(7), complete_bipartite(3, 5)]
        + [cycle_graph(9), path_graph(12), petersen_graph(), family("grid", 3, dimension=2)]
        + [family("grid", 4, dimension=2), family("ladder", 8), family("regular_tree", 2, degree=3)]
        + seeded_random_graphs(41, 60, max_n=12)
        + seeded_random_trees(42, 15, max_n=20)
    )
    assert len(graphs) == 107
    rnd = random.Random(43)
    for g in graphs:
        for colours in (None, tuple(rnd.randrange(2) for _ in range(g.vertex_count))):
            yield g, colours


def invariant_record(g, colours):
    """What the group alone decides, whatever generators and base the search
    finds: order, orbits, motion, whether a first automorphism exists, and
    the suborbit classes at budget 0."""
    group = automorphism_group(g, colours)
    return (
        group.order(),
        group.orbits(),
        group.motion().motion,
        first_automorphism(g, colours) is None,
        _suborbit_classes(group, 0).classes,
    )


def digest_of(record, searches):
    digest = hashlib.sha256()
    for g, colours in searches:
        digest.update(repr(record(g, colours)).encode())
    return digest.hexdigest()


PINNED_SEARCH_DIGEST = "2def29fb801fc9cd034b182b13b166f808400deaa6253b82dcc068a4fd9bde7f"
PINNED_INVARIANT_DIGEST = "60d3c467e86b90a17c3f3b0c4dd1801d91cb63a5809bfdf808e0f2fea35377d4"


def test_search_results_are_pinned(corpus):
    """A digest of `search_record` over the pinned searches.  It pins the
    generators and everything built on them, so a change to the search that
    alters any of them must say so and re-pin."""
    assert digest_of(search_record, pinned_searches(corpus)) == PINNED_SEARCH_DIGEST


def test_search_invariants_are_pinned(corpus):
    """A digest of `invariant_record` over the same searches.  No correct
    search changes it: re-pinning it means the search found another group."""
    assert digest_of(invariant_record, pinned_searches(corpus)) == PINNED_INVARIANT_DIGEST


def test_only_a_tree_runs_the_connectivity_search(monkeypatch):
    """A graph whose edge count is no tree's is no tree: `is_tree` asks for
    no BFS, so a search on Q4, plain or coloured, reads no distance row,
    and a tree still reads one."""
    sources = []
    distances = Graph.distances
    monkeypatch.setattr(Graph, "distances", lambda g, v: sources.append(v) or distances(g, v))
    g = hypercube(4)
    assert automorphism_group(g).order() == 384
    assert first_automorphism(g, [v % 3 for v in range(16)]) is not None
    assert sources == []
    assert automorphism_group(path_graph(5)).order() == 2
    assert sources == [0]


def test_search_lists_the_fixing_generators_once_per_level(monkeypatch):
    """Each left-path level filters the generators fixing its prefix once and
    extends that list as it finds more, rather than once per candidate: a
    perfect matching of 20 edges has a left path of depth 20."""
    calls = []
    fixing = autsearch._fixing
    monkeypatch.setattr(autsearch, "_fixing", lambda gens, points: calls.append(1) or fixing(gens, points))
    g = Graph.from_edges(40, [(2 * i, 2 * i + 1) for i in range(20)])
    assert not g.is_tree()
    assert automorphism_group(g).order() == 2**20 * math.factorial(20)
    assert len(calls) == 20


def test_search_order_matches_the_chain(corpus):
    graphs = (
        list(corpus.values())
        + [petersen_graph(), hypercube(4), hypercube(5), family("grid", 4, dimension=2)]
        + seeded_random_graphs(51, 40, max_n=12)
    )
    rnd = random.Random(52)
    for index, g in enumerate(graphs):
        for k in (None, 2, 3):
            colours = None if k is None else tuple(rnd.randrange(k) for _ in range(g.vertex_count))
            group = automorphism_group(g, colours)
            handed_over = group.order()
            assert handed_over == PermGroup(g.vertex_count, group.generators).order(), (index, k)
            # the group's own chain, built for membership, must agree with the
            # handed-over order or raise InvariantError
            assert group.contains(Perm.identity(g.vertex_count))


def test_search_order_matches_networkx_automorphism_counts():
    isomorphism = pytest.importorskip("networkx.algorithms.isomorphism")
    import networkx

    rnd = random.Random(53)

    def plain_and_2_coloured(g):
        return [(g, None), (g, tuple(rnd.randrange(2) for _ in range(g.vertex_count)))]

    graphs = [petersen_graph(), cycle_graph(10), hypercube(3)] + seeded_random_graphs(54, 60, max_n=10)
    # trees take the subtree-code path, not the search
    graphs += seeded_random_trees(55, 40, max_n=12) + [path_graph(n) for n in range(1, 9)]
    cases = [case for g in graphs for case in plain_and_2_coloured(g)]
    for _ in range(40):
        g = mirrored_tree(rnd, rnd.randint(1, 6))
        half = tuple(rnd.randrange(2) for _ in range(g.vertex_count // 2))
        # the mirrored colouring keeps the halves swap
        cases += plain_and_2_coloured(g) + [(g, half + half)]
    cases += plain_and_2_coloured(SHRIKHANDE) + plain_and_2_coloured(ROOK_4X4)
    for index, (g, colours) in enumerate(cases):
        nxg = networkx.Graph()
        nxg.add_nodes_from(range(g.vertex_count))
        nxg.add_edges_from(g.edges())
        for v in range(g.vertex_count):
            nxg.nodes[v]["colour"] = None if colours is None else colours[v]
        matcher = isomorphism.GraphMatcher(nxg, nxg, node_match=lambda a, b: a["colour"] == b["colour"])
        count = sum(1 for _ in matcher.isomorphisms_iter())
        assert automorphism_group(g, colours).order() == count, (index, colours)


def test_search_leaves_the_recursion_limit_alone():
    g = family("grid", 12, dimension=2)
    assert g.vertex_count == 313 and not g.is_tree()
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(1000)
        assert automorphism_group(g).order() == 8
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(limit)



def matches_networkx(g):
    """Order, orbits and motion with its witness against every automorphism
    networkx's GraphMatcher lists; returns the order."""
    networkx = pytest.importorskip("networkx")
    isomorphism = pytest.importorskip("networkx.algorithms.isomorphism")
    n = g.vertex_count
    nxg = networkx.Graph()
    nxg.add_nodes_from(range(n))
    nxg.add_edges_from(g.edges())
    matcher = isomorphism.GraphMatcher(nxg, nxg)
    elements = {tuple(m[v] for v in range(n)) for m in matcher.isomorphisms_iter()}
    group = automorphism_group(g)
    assert group.order() == len(elements)
    orbits = {tuple(sorted({e[v] for e in elements})) for v in range(n)}
    assert group.orbits() == tuple(sorted(orbits))
    report = group.motion()
    supports = [sum(e[v] != v for v in range(n)) for e in elements]
    assert report.motion == min((s for s in supports if s), default=None)
    if report.witness is not None:
        assert report.witness.images in elements
        assert len(report.witness.support()) == report.motion
    return len(elements)


@pytest.mark.parametrize(
    "name, order",
    [("frucht_graph", 1), ("tutte_graph", 3), ("shrikhande", 192), ("rook4x4", 1152)],
)
def test_named_graphs_match_networkx(name, order):
    # Frucht reaches a leaf that is no automorphism and, like Tutte, a tried
    # candidate's orbit; Shrikhande and the rook graph are both
    # srg(16, 6, 2, 2), so refinement leaves the search all the work
    if name in ("shrikhande", "rook4x4"):
        g = {"shrikhande": SHRIKHANDE, "rook4x4": ROOK_4X4}[name]
    else:
        nxg = getattr(pytest.importorskip("networkx"), name)()
        g = Graph.from_edges(nxg.number_of_nodes(), list(nxg.edges()))
    assert matches_networkx(g) == order


# d = 3, n = 8 at seeds 2, 4 and 9 each reach every failure branch of the
# search: a leaf that is no automorphism, a child list that runs out, a
# subtree with no automorphism below it, and a tried candidate's orbit
@pytest.mark.parametrize("seed", [0, 2, 4, 9])
@pytest.mark.parametrize("n", range(8, 17, 2))
@pytest.mark.parametrize("d", [3, 4])
def test_random_regular_graphs_match_networkx(d, n, seed):
    networkx = pytest.importorskip("networkx")
    edges = networkx.random_regular_graph(d, n, seed=seed).edges()
    matches_networkx(Graph.from_edges(n, list(edges)))
