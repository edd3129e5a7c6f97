import random

import pytest

from conftest import (
    elements_by_recursion,
    from_cycles,
    from_elements,
    motion_by_enumeration,
    petersen_graph,
    seeded_random_graphs,
    seeded_random_trees,
    setwise_stabiliser,
    stabiliser_generators,
    suborbits,
)
from symbreak import autsearch
from symbreak.autsearch import automorphism_group
from symbreak.errors import CapExceededError, InvariantError
from symbreak.graphs import (
    FamilySpec,
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    generate_family,
    hypercube,
    path_graph,
)
from symbreak.groups import PermGroup, orbit_of
from symbreak.perms import Perm


def dihedral_generators(n):
    rot = Perm([(i + 1) % n for i in range(n)])
    refl = Perm([(n - i) % n for i in range(n)])
    return [rot, refl]


def test_trivial_group():
    for gens in ([], [Perm.identity(5)]):
        g = PermGroup(5, gens)
        assert g.order() == 1
        assert g.is_trivial()
        assert g.contains(Perm.identity(5))
        assert not g.contains(Perm([1, 0, 2, 3, 4]))
        asked = []
        assert list(g._walk(lambda i, h: asked.append(i) or True)) == [Perm.identity(5)]
        assert asked == []  # a chain with no levels has no prefix to prune


def test_dihedral_order():
    assert PermGroup(6, dihedral_generators(6)).order() == 12


def test_symmetric_group_order():
    n = 6
    gens = [Perm([1, 0] + list(range(2, n))), Perm([(i + 1) % n for i in range(n)])]
    assert PermGroup(n, gens).order() == 720


def test_contains_rejects_non_member():
    aut = automorphism_group(path_graph(4))
    three_cycle = from_cycles(4, [(0, 1, 2)])
    assert not aut.contains(three_cycle)
    assert aut.contains(Perm([3, 2, 1, 0]))


def test_elements_are_distinct_and_complete():
    g = PermGroup(5, dihedral_generators(5))
    elems = list(g.elements())
    assert len(elems) == g.order() == 10
    assert len({e.images for e in elems}) == 10
    for e in elems:
        assert g.contains(e)


def test_elements_cap_is_explicit():
    g = PermGroup(8, dihedral_generators(8))
    with pytest.raises(CapExceededError):
        list(g.elements(cap=10))
    assert len(g.element_list()) == 16
    with pytest.raises(CapExceededError):  # the cached list obeys the cap too
        g.element_list(cap=10)


def test_order_matches_element_closure():
    # close the generator set by brute force and compare counts
    for gens in [dihedral_generators(6), dihedral_generators(7)]:
        group = PermGroup(gens[0].degree, gens)
        closure = {Perm.identity(gens[0].degree).images}
        frontier = list(closure)
        while frontier:
            base = frontier.pop()
            for g in gens:
                img = (g * Perm(base, validate=False)).images
                if img not in closure:
                    closure.add(img)
                    frontier.append(img)
        assert group.order() == len(closure)


class TestOrbits:
    def test_trivial_group_orbit(self):
        g = PermGroup(4, [])
        assert g.orbits() == ((0,), (1,), (2,), (3,))
        assert orbit_of((2,), g.generators) == {2}

    def test_cycle_is_vertex_transitive(self):
        aut = automorphism_group(cycle_graph(6))
        assert aut.orbits() == (tuple(range(6)),)
        for v in range(6):
            assert orbit_of((v,), aut.generators) == set(range(6))

    def test_orbit_membership_symmetric(self):
        gens = automorphism_group(path_graph(5)).generators
        for s in range(5):
            for t in range(5):
                assert (t in orbit_of((s,), gens)) == (s in orbit_of((t,), gens))

    def test_suborbits_of_c6(self):
        g = cycle_graph(6)
        expect = ((0,), (1, 5), (2, 4), (3,))
        assert automorphism_group(g, fixing=(0,)).orbits() == expect
        assert suborbits(automorphism_group(g), 0) == expect

    def test_suborbits_partition(self):
        parts = automorphism_group(complete_graph(5), fixing=(2,)).orbits()
        assert parts == ((0, 1, 3, 4), (2,))


def indicator(n, subset):
    """The colouring of 0..n-1 whose stabiliser in Aut(G) is the setwise Stab(subset)."""
    return [v in subset for v in range(n)]


class TestStabilisers:
    """Point stabilisers in Aut(G) are the search with `fixing=`, set
    stabilisers are Aut(G, c); base change and the element filter are their
    oracles."""

    def test_setwise_of_everything_is_group(self):
        g = cycle_graph(5)
        aut = automorphism_group(g)
        assert setwise_stabiliser(aut, range(5)).order() == aut.order()
        assert automorphism_group(g, indicator(5, range(5))).order() == aut.order()

    def test_pointwise_c4(self):
        aut = automorphism_group(cycle_graph(4))
        assert aut.pointwise_stabiliser([0]).order() == 2

    def test_setwise_c6_antipodal(self):
        g = cycle_graph(6)
        assert setwise_stabiliser(automorphism_group(g), [0, 3]).order() == 4
        assert automorphism_group(g, indicator(6, {0, 3})).order() == 4

    def test_pointwise_of_empty_set(self):
        aut = automorphism_group(cycle_graph(5))
        assert aut.pointwise_stabiliser([]).order() == aut.order()

    def test_pointwise_subset_of_setwise(self):
        g = cycle_graph(6)
        aut = automorphism_group(g)
        for subset in [(0,), (0, 2), (1, 4)]:
            pw = aut.pointwise_stabiliser(subset)
            sw = automorphism_group(g, indicator(6, subset))
            for e in pw.elements():
                assert sw.contains(e)
            for e in pw.elements():
                assert all(e(s) == s for s in subset)
            for e in sw.elements():
                assert {e(s) for s in subset} == set(subset)

    def test_stabilisers_match_brute_force(self):
        g = cycle_graph(6)
        aut = automorphism_group(g)
        elems = list(aut.elements())
        for subset in [(0,), (0, 3), (1, 2)]:
            pw_expect = [e for e in elems if all(e(s) == s for s in subset)]
            sw_expect = [e for e in elems if {e(s) for s in subset} == set(subset)]
            assert aut.pointwise_stabiliser(subset).order() == len(pw_expect)
            assert setwise_stabiliser(aut, subset).order() == len(sw_expect)
            assert automorphism_group(g, fixing=subset).order() == len(pw_expect)
            assert automorphism_group(g, indicator(6, subset)).order() == len(sw_expect)

    def test_pointwise_stabiliser_of_a_tree_runs_one_schreier_sims(self, monkeypatch):
        # one run with the points as the base prefix; the subgroup's order
        # is read off its deeper levels, and the group's own chain is never built
        calls = []
        schreier_sims = PermGroup._schreier_sims

        def counted(group):
            calls.append(group)
            schreier_sims(group)

        monkeypatch.setattr(PermGroup, "_schreier_sims", counted)
        trees = [path_graph(7), generate_family(FamilySpec("regular_tree", {"degree": 3}, 3))]
        rnd = random.Random(21)
        for index, g in enumerate(trees + seeded_random_trees(22, 10, max_n=12)):
            n = g.vertex_count
            elements = automorphism_group(g).element_list()
            for points in ([0], list(range(min(n, 3))), rnd.sample(range(n), rnd.randint(1, n))):
                aut = automorphism_group(g)
                calls.clear()
                order = aut.pointwise_stabiliser(points).order()
                assert len(calls) == 1 and not aut._chain_ready, (index, points)
                assert order == sum(all(e(s) == s for s in points) for e in elements), (index, points)


class TestMotion:
    @pytest.mark.parametrize(
        "graph, expected",
        [
            (path_graph(4), 4),
            (cycle_graph(6), 4),
            (complete_graph(2), 2),
        ],
    )
    def test_examples(self, graph, expected):
        report = automorphism_group(graph).motion()
        assert report.motion == expected
        assert report.method == "backtrack"
        assert len(report.witness.support()) == expected

    def test_trivial_group_has_no_motion(self):
        report = PermGroup(3, []).motion()
        assert report.motion is None
        assert report.witness is None

    def test_witness_attains_minimum_exhaustively(self, corpus):
        for name, g in corpus.items():
            aut = automorphism_group(g)
            report = aut.motion()
            smallest = min(
                len(e.support()) for e in aut.elements() if not e.is_identity()
            )
            assert report.motion == smallest, name
            assert aut.contains(report.witness)

    def test_backtrack_agrees_with_enumeration(self, corpus):
        for name, g in corpus.items():
            aut = automorphism_group(g)
            back = aut.motion()
            assert back.method == "backtrack"
            assert (back.motion, back.witness) == motion_by_enumeration(aut), name
            assert len(back.witness.support()) == back.motion
            assert aut.contains(back.witness)

    @pytest.mark.parametrize(
        "graph",
        [hypercube(4), hypercube(5), complete_graph(8), complete_bipartite(4, 4)],
        ids=["Q4", "Q5", "K8", "K44"],
    )
    def test_witness_matches_enumeration(self, graph):
        aut = automorphism_group(graph)
        report = aut.motion()
        assert (report.motion, report.witness) == motion_by_enumeration(aut)

    def test_cap_is_accepted_and_ignored(self):
        # bench/workloads.py calls motion(0): the cap is accepted and changes nothing
        aut = automorphism_group(hypercube(4))
        assert aut.motion(0) == aut.motion()

    def test_backtrack_on_large_tree_group(self):
        g = generate_family(FamilySpec("regular_tree", {"degree": 3}, 3))
        aut = automorphism_group(g)
        assert aut.order() == 3072
        report = aut.motion()
        assert report.method == "backtrack"
        assert report.motion == 2  # swapping two sibling leaves
        assert (report.motion, report.witness) == motion_by_enumeration(aut)

    def test_backtrack_on_long_cycle(self):
        aut = automorphism_group(cycle_graph(50))
        report = aut.motion()
        assert report.method == "backtrack"
        assert report.motion == 48  # a reflection through two vertices
        assert (report.motion, report.witness) == motion_by_enumeration(aut)

    def test_backtrack_on_grid_truncation(self):
        g = generate_family(FamilySpec("grid", {"dimension": 2}, 3))
        aut = automorphism_group(g)
        report = aut.motion()
        assert (report.motion, report.witness) == motion_by_enumeration(aut)


def random_generator_sets():
    """40 seeded sets of 1-3 random permutations on 3-6 points."""
    from symbreak.rng import SeededRng

    rng = SeededRng(4242)
    for trial in range(40):
        draws = rng.stream(trial)
        n = 3 + draws.integers_below(4, 1)[0]
        gens = []
        for i in range(1 + draws.integers_below(3, 1)[0]):
            images = list(range(n))
            # random permutation by seeded Fisher-Yates
            picks = draws.integers_below(n, 2 * n)
            for j in range(n - 1, 0, -1):
                k = picks[j] % (j + 1)
                images[j], images[k] = images[k], images[j]
            gens.append(Perm(images))
        yield n, gens


def test_random_generator_sets_match_closure():
    for n, gens in random_generator_sets():
        group = PermGroup(n, gens)
        closure = {Perm.identity(n).images}
        frontier = list(closure)
        while frontier:
            base = frontier.pop()
            for g in gens:
                img = (g * Perm(base, validate=False)).images
                if img not in closure:
                    closure.add(img)
                    frontier.append(img)
        assert group.order() == len(closure), (n, gens)
        elems = {e.images for e in group.elements()}
        assert elems == closure
        # motion: backtrack agrees with enumeration, witness included
        if len(closure) > 1:
            report = group.motion()
            assert (report.motion, report.witness) == motion_by_enumeration(group)


def test_order_is_product_of_transversal_sizes():
    aut = automorphism_group(cycle_graph(8))
    sizes = [len(t) for t in aut.transversals]
    product = 1
    for s in sizes:
        product *= s
    assert product == aut.order() == 16
    base = aut.base
    for point, trans in zip(base, aut.transversals):
        for target, rep in trans.items():
            assert rep(point) == target


def test_group_json_shape():
    aut = automorphism_group(cycle_graph(4))
    data = aut.to_json_dict()
    assert data["degree"] == 4
    assert data["order"] == 8
    assert all(isinstance(row, list) for row in data["generators"])


def test_from_elements_reduces_generators():
    aut = automorphism_group(cycle_graph(6))
    rebuilt = from_elements(6, list(aut.elements()))
    assert rebuilt.order() == 12
    assert len(rebuilt.generators) <= 4


class TestCosetWalk:
    """elements() and motion() walk the chain's coset products iteratively;
    the former recursive enumeration is the oracle for their order."""

    @staticmethod
    def groups(corpus):
        out = [(name, automorphism_group(g)) for name, g in corpus.items()]
        for name, g in [
            ("Q4", hypercube(4)),
            ("Q5", hypercube(5)),
            ("K44", complete_bipartite(4, 4)),
            ("C16", cycle_graph(16)),
        ]:
            out.append((name, automorphism_group(g)))
        out.append(("trivial", PermGroup(5, [])))
        for i, (n, gens) in enumerate(random_generator_sets()):
            out.append((f"random{i}", PermGroup(n, gens)))
        return out

    def test_elements_keep_the_recursive_order(self, corpus):
        for name, group in self.groups(corpus):
            assert list(group.elements()) == list(elements_by_recursion(group)), name

    def test_motion_matches_enumeration(self, corpus):
        for name, group in self.groups(corpus):
            if group.is_trivial():
                continue
            report = group.motion()
            assert (report.motion, report.witness) == motion_by_enumeration(group), name


class TestOrbitsByBruteForce:
    """orbits, the coloured-search suborbits and the Schreier-generator oracle
    against the elements, which come from the recursive oracle so that a
    wrong walk cannot hide here."""

    @staticmethod
    def small_groups(corpus):
        out = [automorphism_group(g) for g in corpus.values()]
        out += [PermGroup(n, gens) for n, gens in random_generator_sets()]
        return out

    def test_orbits(self, corpus):
        for group in self.small_groups(corpus):
            elems = list(elements_by_recursion(group))
            expect = sorted({tuple(sorted({e(s) for e in elems})) for s in range(group.degree)})
            assert group.orbits() == tuple(expect)

    def test_stabiliser_generators_generate_the_stabiliser(self, corpus):
        for group in self.small_groups(corpus):
            elems = list(elements_by_recursion(group))
            for s in range(group.degree):
                stab = {e.images for e in elems if e(s) == s}
                gens = stabiliser_generators(group, s)
                assert all(g(s) == s and not g.is_identity() for g in gens)
                generated = elements_by_recursion(PermGroup(group.degree, gens))
                assert {e.images for e in generated} == stab

    def test_suborbits(self, corpus):
        for name, g in corpus.items():
            group = automorphism_group(g)
            elems = list(elements_by_recursion(group))
            for s in range(group.degree):
                stab = [e for e in elems if e(s) == s]
                expect = sorted({tuple(sorted({e(x) for e in stab})) for x in range(group.degree)})
                assert automorphism_group(g, fixing=(s,)).orbits() == tuple(expect), name
                assert suborbits(group, s) == tuple(expect), name


# the oracles keep the point checks of the PermGroup members they replace
POINT_QUERIES = {
    "suborbits": suborbits,
    "stabiliser_generators": stabiliser_generators,
    "pointwise_stabiliser": PermGroup.pointwise_stabiliser,
    "setwise_stabiliser": setwise_stabiliser,
}


@pytest.mark.parametrize("query", ["suborbits", "stabiliser_generators"])
@pytest.mark.parametrize("point", [-1, 6, 99, True, 1.0])
def test_point_queries_reject_points_outside_the_group(query, point):
    aut = automorphism_group(cycle_graph(6))
    with pytest.raises(ValueError, match=f"invalid point {point}"):
        POINT_QUERIES[query](aut, point)


@pytest.mark.parametrize("query", ["pointwise_stabiliser", "setwise_stabiliser"])
@pytest.mark.parametrize("point", [-1, 6, 99, True, 1.0])
def test_stabilisers_reject_points_outside_the_group(query, point):
    # -1 used to pass as vertex 5, True as vertex 1, and 6, 99 or 1.0 raised
    # IndexError or TypeError
    aut = automorphism_group(cycle_graph(6))
    with pytest.raises(ValueError, match=f"invalid point {point}"):
        POINT_QUERIES[query](aut, [0, point])


def test_known_order_needs_no_chain():
    gens = automorphism_group(cycle_graph(6)).generators
    group = PermGroup(6, gens, order=12)
    assert group.order() == 12
    assert not group._chain_ready
    assert group.base and group.order() == 12


def test_wrong_known_order_raises_when_the_chain_is_built():
    gens = automorphism_group(cycle_graph(6)).generators
    group = PermGroup(6, gens, order=6)
    assert group.order() == 6  # taken on trust until a chain exists
    with pytest.raises(InvariantError, match="chain order 12 differs from the known order 6"):
        group.base


# -- chains handed over by the automorphism search ------------------------------


def left_path(g, colours=None):
    """The search's left path: the base it hands `PermGroup` on a non-tree."""
    search = autsearch._search(g, colours)
    while True:
        try:
            next(search)
        except StopIteration as done:
            return done.value[1]


def handed_over_cases(corpus):
    """The corpus, Q4, Q5, K7, Petersen and 60 seeded random graphs, each
    plain and with a seeded 2-colouring."""
    graphs = (
        list(corpus.values())
        + [hypercube(4), hypercube(5), complete_graph(7), petersen_graph()]
        + seeded_random_graphs(81, 60, max_n=12)
    )
    rnd = random.Random(82)
    for g in graphs:
        yield g, None
        yield g, tuple(rnd.randrange(2) for _ in range(g.vertex_count))


def refuse(*args, **kwargs):
    raise AssertionError("the chain was built by Schreier-Sims")


class TestHandedOverChain:
    """Every query on a group from the search against `PermGroup(n, gens)`,
    which builds its chain from the same generators by Schreier-Sims."""

    def test_agrees_with_schreier_sims(self, corpus):
        rnd = random.Random(83)
        for index, (g, colours) in enumerate(handed_over_cases(corpus)):
            n = g.vertex_count
            group = automorphism_group(g, colours)
            oracle = PermGroup(n, group.generators)
            elements = set(group.elements())
            assert elements == set(oracle.elements()), index
            assert len(elements) == group.order() == oracle.order(), index
            assert all(group.contains(e) and oracle.contains(e) for e in elements), index
            for _ in range(20):
                images = list(range(n))
                rnd.shuffle(images)
                p = Perm(images)
                assert group.contains(p) == oracle.contains(p) == (p in elements), index
            report = group.motion()
            assert (report.motion, report.witness) == motion_by_enumeration(group), index
            assert report.motion == oracle.motion().motion, index
            for points in ([0], list(range(min(n, 3))), rnd.sample(range(n), rnd.randint(1, n))):
                stabiliser = group.pointwise_stabiliser(points).order()
                assert stabiliser == oracle.pointwise_stabiliser(points).order(), (index, points)
                assert stabiliser == sum(all(e(s) == s for s in points) for e in elements), index

    def test_base_is_the_left_path_where_a_generator_moves_first(self, corpus):
        for index, (g, colours) in enumerate(handed_over_cases(corpus)):
            if g.is_tree():
                continue
            group = automorphism_group(g, colours)
            path = left_path(g, colours)
            remaining = iter(path)
            assert all(b in remaining for b in group.base), index  # a subsequence
            # a level only where some generator moves its point first
            firsts = {next(b for b in path if h(b) != b) for h in group.generators}
            assert set(group.base) == firsts, index
            assert all(len(t) > 1 for t in group.transversals), index

    def test_non_tree_groups_run_no_schreier_sims(self, corpus, monkeypatch):
        graphs = [g for g, _ in handed_over_cases(corpus) if not g.is_tree()]
        monkeypatch.setattr(PermGroup, "_schreier_sims", refuse)
        monkeypatch.setattr(PermGroup, "_strip", refuse)
        groups = []
        for g in graphs:
            group = automorphism_group(g)
            group.base, group.strong_generators, group.transversals, group.order()
            assert len(list(group.elements())) == group.order()
            group.motion()
            groups.append(group)
        # membership sifts through the chain; the chain itself is not rebuilt
        monkeypatch.undo()
        monkeypatch.setattr(PermGroup, "_schreier_sims", refuse)
        for group in groups:
            assert all(group.contains(h) for h in group.generators)
        # a tree's sibling swaps still go through Schreier-Sims
        with pytest.raises(AssertionError, match="Schreier-Sims"):
            automorphism_group(path_graph(5)).base

    def test_perfect_matching_motion_needs_no_schreier_sims(self, monkeypatch):
        monkeypatch.setattr(PermGroup, "_schreier_sims", refuse)
        g = Graph.from_edges(80, [(2 * i, 2 * i + 1) for i in range(40)])
        report = automorphism_group(g).motion()
        assert report.motion == 2
        assert len(report.witness.support()) == 2

    def test_a_generator_fixing_every_base_point_raises(self):
        # the reflection s -> -s of C6 fixes 0
        group = PermGroup(6, dihedral_generators(6), order=12, base=(0,))
        with pytest.raises(InvariantError, match="fixes every base point"):
            group.base

    def test_generators_not_strong_for_the_base_raise(self):
        # (0 1 2) and (0 1) generate S3, but both move 0 first, so the chain
        # has one level of orbit length 3 and misses the stabiliser of 0
        gens = [Perm([1, 2, 0]), Perm([1, 0, 2])]
        group = PermGroup(3, gens, order=6, base=(0, 1))
        with pytest.raises(InvariantError, match="chain order 3 differs from the known order 6"):
            group.motion()

    def test_a_base_needs_the_order(self):
        with pytest.raises(ValueError, match="a base needs the group order"):
            PermGroup(6, dihedral_generators(6), base=(0, 1))
