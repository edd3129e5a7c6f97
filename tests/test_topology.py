import random
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import agreement_level_by_sets, ball_sets, from_cycles
from symbreak import topology
from symbreak.autsearch import automorphism_group
from symbreak.colourings import bit_planes
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
    star_graph,
)
from symbreak.groups import PermGroup
from symbreak.perms import Perm
from symbreak.rng import SeededRng
from symbreak.topology import (
    ExhaustionSequence,
    agreement_level,
    ball_decomposition,
    expected_stabiliser_measure,
    haar_fraction,
    ultrametric_distance,
)


class TestExhaustionSequence:
    def test_ball_sequence_of_c8(self):
        seq = ExhaustionSequence.balls(cycle_graph(8), 0)
        assert seq.level == (1, 2, 3, 4, 5, 4, 3, 2)
        assert seq.points(1) == (0,)
        assert seq.points(2) == (0, 1, 7)
        assert seq.points(len(seq)) == tuple(range(8))

    def test_ball_sequence_of_a_disconnected_graph(self):
        # P3 plus a disjoint edge: the full set closes each sequence
        g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        assert _sets(ExhaustionSequence.balls(g, 0)) == [(0,), (0, 1), (0, 1, 2), (0, 1, 2, 3, 4)]
        assert _sets(ExhaustionSequence.balls(g, 3)) == [(3,), (3, 4), (0, 1, 2, 3, 4)]
        assert ExhaustionSequence.balls(g, 3).level == (3, 3, 3, 1, 2)

    def test_prefix_sequence(self):
        seq = ExhaustionSequence.prefixes(3)
        assert seq.level == (1, 2, 3)
        assert [seq.points(i) for i in (1, 2, 3)] == [(0,), (0, 1), (0, 1, 2)]
        assert ExhaustionSequence.prefixes(1).points(1) == (0,)
        # the empty point set is one set, S_1 = {}
        empty = ExhaustionSequence.prefixes(0)
        assert (len(empty), empty.degree, empty.points(1)) == (1, 0, ())

    def test_degree_is_the_point_count(self):
        seq = ExhaustionSequence((2, 1, 2, 3))
        assert (seq.degree, len(seq)) == (4, 3)
        assert [seq.points(i) for i in (1, 2, 3)] == [(1,), (0, 1, 2), (0, 1, 2, 3)]

    def test_nesting_enforced(self):
        # a missing level 2 would make S_2 = S_1
        with pytest.raises(ValueError, match="exactly 1..k"):
            ExhaustionSequence((1, 3))

    def test_final_set_must_cover(self):
        # every point needs an int level in 1..k: level 0 is no set's first
        for level in [(0, 1), (1, 2, 0)]:
            with pytest.raises(ValueError, match="exactly 1..k"):
                ExhaustionSequence(level)
        for level in [(1, None), (True,), (1, 2.0)]:
            with pytest.raises(ValueError, match="is not an int"):
                ExhaustionSequence(level)

    def test_points_match_the_former_sets(self, corpus):
        graphs = dict(corpus, disconnected=Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)]))
        for name, g in graphs.items():
            for root in range(g.vertex_count):
                assert _sets(ExhaustionSequence.balls(g, root)) == ball_sets(g, root), (name, root)
            assert _sets(ExhaustionSequence.prefixes(g.vertex_count)) == [
                tuple(range(i)) for i in range(1, g.vertex_count + 1)
            ]


class TestAgreementLevel:
    def setup_method(self):
        self.g = cycle_graph(8)
        self.seq = ExhaustionSequence.balls(self.g, 0)
        self.rot = Perm([(i + 1) % 8 for i in range(8)])
        self.refl = Perm([(8 - i) % 8 for i in range(8)])
        self.ident = Perm.identity(8)

    def test_equal_marker(self):
        assert agreement_level(self.rot, self.rot, self.seq) is None
        assert ultrametric_distance(self.rot, self.rot, self.seq) == 0

    def test_rotation_differs_at_root(self):
        assert agreement_level(self.rot, self.ident, self.seq) == 0
        assert ultrametric_distance(self.rot, self.ident, self.seq) == 1

    def test_reflection_agrees_on_root_only(self):
        assert agreement_level(self.refl, self.ident, self.seq) == 1
        assert ultrametric_distance(self.refl, self.ident, self.seq) == Fraction(1, 2)

    def test_symmetric(self):
        elems = list(automorphism_group(self.g).elements())
        for a in elems:
            for b in elems:
                assert ultrametric_distance(a, b, self.seq) == ultrametric_distance(
                    b, a, self.seq
                )

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            agreement_level(Perm.identity(3), self.ident, self.seq)

    def test_sequence_degree_mismatch(self):
        with pytest.raises(ValueError, match="sequence degree mismatch"):
            agreement_level(self.rot, self.ident, ExhaustionSequence.prefixes(7))


from hypothesis import given
from hypothesis import strategies as st

_perm8 = st.permutations(range(8)).map(Perm)


@given(_perm8, _perm8, _perm8)
def test_ultrametric_holds_for_arbitrary_permutations(a, b, c):
    # the metric is defined on all of Pi_V, not just automorphisms
    seq = ExhaustionSequence.prefixes(8)
    dab = ultrametric_distance(a, b, seq)
    dbc = ultrametric_distance(b, c, seq)
    dac = ultrametric_distance(a, c, seq)
    assert dac <= max(dab, dbc)


def _sets(seq):
    """The explicit nested sets S_1, ..., S_k of a sequence."""
    return [seq.points(i) for i in range(1, len(seq) + 1)]


@st.composite
def _levels_and_pairs(draw):
    # any surjection onto 1..k, and a second permutation that is either any
    # permutation or the first with two images swapped
    n = draw(st.integers(0, 9))
    raw = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    rank = {x: i for i, x in enumerate(sorted(set(raw)), start=1)}
    a = draw(st.permutations(range(n)))
    if n and draw(st.booleans()):
        b = list(a)
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        b[i], b[j] = b[j], b[i]
    else:
        b = draw(st.permutations(range(n)))
    return tuple(rank[x] for x in raw), Perm(a), Perm(b)


@given(_levels_and_pairs())
def test_agreement_level_matches_the_set_scan_on_drawn_levels(case):
    level, a, b = case
    seq = ExhaustionSequence(level)
    assert agreement_level(a, b, seq) == agreement_level_by_sets(a, b, _sets(seq))


class TestAgreementLevelOracle:
    """The level-array `agreement_level` against the former scan over the
    explicit nested sets."""

    def test_seeded_level_arrays(self):
        rnd = random.Random(71)
        for _ in range(400):
            n = rnd.randint(1, 12)
            k = rnd.randint(1, n)
            level = list(range(1, k + 1)) + [rnd.randint(1, k) for _ in range(n - k)]
            rnd.shuffle(level)
            a = list(range(n))
            rnd.shuffle(a)
            b = list(a)
            for _ in range(rnd.randint(0, 2)):
                i, j = rnd.randrange(n), rnd.randrange(n)
                b[i], b[j] = b[j], b[i]
            sets = [tuple(v for v in range(n) if level[v] <= i) for i in range(1, k + 1)]
            a, b = Perm(a), Perm(b)
            assert agreement_level(a, b, ExhaustionSequence(level)) == agreement_level_by_sets(
                a, b, sets
            ), (level, a, b)

    def test_corpus_balls_and_prefixes(self, corpus):
        rnd = random.Random(72)
        for name, g in corpus.items():
            n = g.vertex_count
            elems = automorphism_group(g).element_list()
            pairs = [(a, b) for a in elems[:12] for b in elems[:12]]
            for _ in range(50):
                a, b = list(range(n)), list(range(n))
                rnd.shuffle(a)
                rnd.shuffle(b)
                pairs.append((Perm(a), Perm(b)))
            for root in range(n):
                seqs = [(ExhaustionSequence.balls(g, root), ball_sets(g, root))]
                seqs.append((ExhaustionSequence.prefixes(n), [tuple(range(i)) for i in range(1, n + 1)]))
                for seq, sets in seqs:
                    for a, b in pairs:
                        assert agreement_level(a, b, seq) == agreement_level_by_sets(a, b, sets), (
                            name, root, a, b,
                        )


class TestLongExhaustions:
    """Building a sequence, `agreement_level` and `ball_decomposition` are
    linear in the point count; storing every nested set took 850 MB on the
    double ray of radius 4000."""

    @staticmethod
    def _cases():
        # the reflection of the double ray through its centre swaps -k and k,
        # at indices 2k - 1 and 2k
        radius = 4000
        ray = generate_family(FamilySpec("double_ray", {}, radius))
        ray_flip = Perm([0] + [v + 1 if v % 2 else v - 1 for v in range(1, 2 * radius + 1)])
        n = 100_000
        return [(ray, ray_flip), (path_graph(n), Perm(range(n - 1, -1, -1)))]

    @staticmethod
    def _run(g, flip):
        # the group is named by its one generator: the search is not timed
        # here; swapping the last two points differs only on the last set
        n = g.vertex_count
        seq = ExhaustionSequence.balls(g, 0)
        last = Perm(list(range(n - 2)) + [n - 1, n - 2])
        levels = agreement_level(last, Perm.identity(n), seq), agreement_level(flip, last, seq)
        deco = ball_decomposition(PermGroup(n, [flip]), seq, len(seq))
        return levels, len(seq), deco.ball_count

    def test_double_ray_and_long_path_are_fast(self):
        want = [((4000, 1), 4001, 2), ((99_998, 0), 100_000, 2)]
        for (g, flip), expected in zip(self._cases(), want):
            start = time.perf_counter()
            assert self._run(g, flip) == expected
            assert time.perf_counter() - start < 2, g.vertex_count

    def test_double_ray_and_long_path_are_small(self):
        for g, flip in self._cases():
            tracemalloc.start()
            try:
                self._run(g, flip)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 50 * 2**20, (g.vertex_count, peak)


def _sample_triples(elems, count, seed):
    rng = SeededRng(seed)
    idx = rng.integers_below(len(elems), 3 * count)
    for t in range(count):
        yield elems[idx[3 * t]], elems[idx[3 * t + 1]], elems[idx[3 * t + 2]]


class TestUltrametric:
    @pytest.mark.parametrize("graph", [cycle_graph(8), hypercube(3)])
    def test_triangle_inequality_on_triples(self, graph):
        elems = list(automorphism_group(graph).elements())
        for seq in (
            ExhaustionSequence.balls(graph, 0),
            ExhaustionSequence.prefixes(graph.vertex_count),
        ):
            for a, b, c in _sample_triples(elems, 500, seed=13):
                dab = ultrametric_distance(a, b, seq)
                dbc = ultrametric_distance(b, c, seq)
                dac = ultrametric_distance(a, c, seq)
                assert dac <= max(dab, dbc)

    def test_right_multiplication_is_isometry(self):
        g = cycle_graph(8)
        elems = list(automorphism_group(g).elements())
        seq = ExhaustionSequence.balls(g, 0)
        for a, b, s in _sample_triples(elems, 300, seed=29):
            assert ultrametric_distance(a * s, b * s, seq) == ultrametric_distance(
                a, b, seq
            )

    def test_left_multiplication_is_not_an_isometry(self):
        # witness on C8 with the root-ball sequence
        g = cycle_graph(8)
        seq = ExhaustionSequence.balls(g, 0)
        elems = list(automorphism_group(g).elements())
        broken = False
        for a, b, s in _sample_triples(elems, 300, seed=31):
            if ultrametric_distance(s * a, s * b, seq) != ultrametric_distance(a, b, seq):
                broken = True
                break
        assert broken

    def test_topology_independence_at_ball_level(self):
        # every ball of one metric contains, around each member, a ball of the other
        g = cycle_graph(8)
        group = automorphism_group(g)
        elems = list(group.elements())
        seq_a = ExhaustionSequence.balls(g, 0)
        seq_b = ExhaustionSequence.prefixes(8)

        def ball(center, radius_level, seq):
            return {
                e.images
                for e in elems
                if ultrametric_distance(e, center, seq) <= Fraction(1, 2**radius_level)
            }

        for seq1, seq2 in ((seq_a, seq_b), (seq_b, seq_a)):
            for level in range(1, len(seq1) + 1):
                s1 = set(seq1.points(level))
                # a level in seq2 whose set contains s1 gives a finer ball
                finer = max(seq2.level[v] for v in s1)
                for e in elems:
                    assert ball(e, finer, seq2) <= ball(e, level, seq1)


class TestBallDecomposition:
    def test_c4_level_one(self):
        g = cycle_graph(4)
        deco = ball_decomposition(
            automorphism_group(g), ExhaustionSequence.balls(g, 0), 1
        )
        assert deco.ball_count == 4
        assert all(b.size == 2 for b in deco.balls)
        assert deco.radius == Fraction(1, 2)

    def test_partition_properties(self):
        for graph in [cycle_graph(8), hypercube(3)]:
            group = automorphism_group(graph)
            seq = ExhaustionSequence.balls(graph, 0)
            order = group.order()
            for level in range(1, len(seq) + 1):
                deco = ball_decomposition(group, seq, level)
                sizes = [b.size for b in deco.balls]
                assert sum(sizes) == order
                assert all(order % s == 0 for s in sizes)
                seen = set()
                for b in deco.balls:
                    members = {m.images for m in b.members}
                    assert len(members) == b.size
                    assert not (members & seen)
                    seen |= members
                assert len(seen) == order

    def test_final_level_is_singletons(self):
        g = cycle_graph(4)
        group = automorphism_group(g)
        seq = ExhaustionSequence.balls(g, 0)
        deco = ball_decomposition(group, seq, len(seq))
        assert deco.ball_count == group.order()
        assert all(b.size == 1 for b in deco.balls)

    def test_balls_are_distance_classes(self):
        g = cycle_graph(8)
        group = automorphism_group(g)
        seq = ExhaustionSequence.balls(g, 0)
        level = 2
        deco = ball_decomposition(group, seq, level)
        radius = deco.radius
        for b in deco.balls:
            for m1 in b.members:
                for m2 in b.members:
                    assert ultrametric_distance(m1, m2, seq) <= radius
        for i, b1 in enumerate(deco.balls):
            for b2 in deco.balls[i + 1 :]:
                assert ultrametric_distance(
                    b1.representative, b2.representative, seq
                ) > radius

    def test_representatives_only_mode_matches(self):
        # above the cap the BFS gives the materialised keys and sizes
        for g in [cycle_graph(8), hypercube(3), path_graph(5)]:
            group = automorphism_group(g)
            seq = ExhaustionSequence.balls(g, 0)
            for level in range(1, len(seq) + 1):
                full = ball_decomposition(group, seq, level)
                if full.ball_count == group.order():
                    continue  # a trivial stabiliser: as many balls as elements
                reps = ball_decomposition(group, seq, level, cap=full.ball_count)
                assert [b.key for b in reps.balls] == [b.key for b in full.balls]
                assert [b.size for b in reps.balls] == [b.size for b in full.balls]
                assert all(b.members is None for b in reps.balls)
                for rb, fb in zip(reps.balls, full.balls):
                    assert rb.representative.images in {m.images for m in fb.members}

    def test_coset_count_not_dividing_the_order_raises_invariant_error(self):
        # a group claiming order 4 and a point stabiliser of order 2 whose
        # generator has an orbit of length 3
        fake = SimpleNamespace(
            degree=3,
            order=lambda: 4,
            pointwise_stabiliser=lambda points: SimpleNamespace(order=lambda: 2),
            generators=[Perm([1, 2, 0])],
        )
        seq = ExhaustionSequence.prefixes(3)
        with pytest.raises(InvariantError):
            ball_decomposition(fake, seq, 1, cap=3)

    def test_cap_is_explicit(self):
        g = cycle_graph(8)
        group = automorphism_group(g)
        seq = ExhaustionSequence.balls(g, 0)
        with pytest.raises(CapExceededError):
            ball_decomposition(group, seq, 1, cap=3)
        # more balls than the cap raise: the deepest level of Q3 and of the
        # star K_{1,9} (9! cosets at level 2); level 1 lists representatives
        star = Graph.from_edges(10, [(0, i) for i in range(1, 10)])
        for g, cap in [(hypercube(3), 47), (star, 10**5)]:
            group = automorphism_group(g)
            seq = ExhaustionSequence.balls(g, 0)
            assert ball_decomposition(group, seq, 1, cap=cap).balls[0].members is None
            with pytest.raises(CapExceededError, match="balls exceed the cap"):
                ball_decomposition(group, seq, len(seq), cap=cap)

    def test_ball_count_equals_stabiliser_index(self):
        g = hypercube(3)
        group = automorphism_group(g)
        seq = ExhaustionSequence.balls(g, 0)
        for level in (1, 2):
            deco = ball_decomposition(group, seq, level)
            stab = group.pointwise_stabiliser(seq.points(level))
            assert deco.ball_count == group.order() // stab.order()

    def test_ball_count_is_the_index_in_sympy(self, corpus):
        # sympy's own Schreier-Sims gives |G : Fix(S_level)|
        combinatorics = pytest.importorskip("sympy.combinatorics")
        for name, g in corpus.items():
            n = g.vertex_count
            group = automorphism_group(g)
            gens = [combinatorics.Permutation(list(h.images)) for h in group.generators]
            sym = combinatorics.PermutationGroup(gens or [combinatorics.Permutation(list(range(n)))])
            assert sym.order() == group.order(), name
            for root in (0, n - 1):
                seq = ExhaustionSequence.balls(g, root)
                for level in range(1, len(seq) + 1):
                    fix = sym.pointwise_stabilizer(list(seq.points(level)))
                    deco = ball_decomposition(group, seq, level)
                    assert deco.ball_count * fix.order() == sym.order(), (name, root, level)

    def test_balls_are_right_stabiliser_cosets(self):
        # each ball equals {h * rep : h fixes S_level pointwise}
        for graph in [cycle_graph(8), hypercube(3)]:
            group = automorphism_group(graph)
            seq = ExhaustionSequence.balls(graph, 0)
            for level in (1, 2):
                stab = group.pointwise_stabiliser(seq.points(level))
                stab_elems = list(stab.elements())
                deco = ball_decomposition(group, seq, level)
                for b in deco.balls:
                    coset = {(h * b.representative).images for h in stab_elems}
                    assert coset == {m.images for m in b.members}

    def test_balls_depend_only_on_the_group(self):
        # the search's handed-over chain and a Schreier-Sims chain over the
        # same generators give the same members, representatives and keys
        def outcome(group, seq, level, cap):
            try:
                return ball_decomposition(group, seq, level, cap).to_json_dict()
            except CapExceededError as exc:
                return str(exc)

        graphs = [hypercube(3), hypercube(4), cycle_graph(8), complete_graph(5)]
        graphs += [complete_bipartite(3, 3), generate_family(FamilySpec("grid", {"dimension": 2}, 3))]
        runs = 0
        for g in graphs:
            group = automorphism_group(g)
            oracle = PermGroup(g.vertex_count, group.generators)
            for root in (0, 1):
                seq = ExhaustionSequence.balls(g, root)
                for level in range(1, len(seq) + 1):
                    for cap in (10**6, 5, 2):
                        want = outcome(oracle, seq, level, cap)
                        assert outcome(group, seq, level, cap) == want, (g, root, level, cap)
                        runs += 1
        assert runs == 141


class TestHaarFraction:
    def test_whole_group(self):
        group = automorphism_group(cycle_graph(4))
        assert haar_fraction(list(group.elements()), group) == 1

    def test_identity_alone(self):
        group = automorphism_group(cycle_graph(4))
        assert haar_fraction([Perm.identity(4)], group) == Fraction(1, 8)

    def test_stabiliser_fraction(self):
        group = automorphism_group(cycle_graph(4))
        stab = group.pointwise_stabiliser([0])
        assert haar_fraction(list(stab.elements()), group) == Fraction(1, 4)

    def test_duplicates_collapse(self):
        group = automorphism_group(cycle_graph(4))
        e = Perm.identity(4)
        assert haar_fraction([e, e], group) == Fraction(1, 8)

    def test_non_member_rejected(self):
        group = automorphism_group(path_graph(4))
        with pytest.raises(ValueError):
            haar_fraction([from_cycles(4, [(0, 1, 2)])], group)


class TestExpectedStabiliserMeasure:
    def test_k1(self):
        assert expected_stabiliser_measure(complete_graph(1)).value == 1

    def test_c4(self):
        rep = expected_stabiliser_measure(cycle_graph(4))
        assert rep.colour_first == rep.group_first == Fraction(3, 8)

    def test_p4(self):
        rep = expected_stabiliser_measure(path_graph(4))
        assert rep.value == Fraction(5, 8)

    def test_both_routes_agree_on_corpus(self, corpus):
        for name, g in corpus.items():
            rep = expected_stabiliser_measure(g)
            assert rep.agree, name

    def test_third_route_via_stabiliser_search(self):
        # average |stabiliser|/|Aut| with the stabiliser computed by the
        # colour-constrained search, independent of both summation routes
        from fractions import Fraction as F

        from symbreak.colourings import Colouring, colouring_stabiliser

        for g in [path_graph(4), cycle_graph(4), complete_graph(3)]:
            n = g.vertex_count
            order = automorphism_group(g).order()
            total = F(0)
            for bits in range(2**n):
                c = Colouring(tuple((bits >> v) & 1 for v in range(n)))
                total += F(colouring_stabiliser(g, c).order(), order)
            assert total / 2**n == expected_stabiliser_measure(g).value

    def test_colour_first_matches_pair_count(self, corpus):
        # the colour-first numerator counts (colouring, element) pairs
        for name, g in corpus.items():
            n = g.vertex_count
            if n > 8:
                continue
            elems = automorphism_group(g).element_list()
            pairs = sum(
                all((bits >> e(v)) & 1 == (bits >> v) & 1 for v in range(n))
                for bits in range(2**n)
                for e in elems
            )
            want = Fraction(pairs, 2**n * len(elems))
            assert expected_stabiliser_measure(g).colour_first == want, name

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("budget", [1, 1 << 24])
    def test_packed_count_matches_brute_force(self, monkeypatch, n, budget):
        # 2^n colourings fill part of one word for n < 6, one word at n = 6
        # and two at n = 7; a one-byte budget takes one element per slice
        monkeypatch.setattr(topology, "BLOCK_BYTES", budget)
        graphs = [path_graph(n), star_graph(n - 1), complete_graph(n)]
        for g in graphs + ([cycle_graph(n)] if n > 2 else []):
            elems = [e.images for e in automorphism_group(g).elements()]
            pairs = sum(
                all((bits >> e[v]) & 1 == (bits >> v) & 1 for v in range(n))
                for bits in range(2**n)
                for e in elems
            )
            rep = expected_stabiliser_measure(g)
            assert rep.colour_first == Fraction(pairs, 2**n * len(elems)), (n, g.edges())

    @pytest.mark.parametrize("n", range(13))
    def test_colouring_plane_matches_bit_planes_of_the_matrix(self, n):
        # column i of the matrix is the colouring whose vertex v has colour bit v of i
        colours = ((np.arange(2**n) >> np.arange(n)[:, None]) & 1).astype(np.uint8)
        planes = topology._all_two_colourings(n)
        want = bit_planes(colours, 2)
        assert planes.dtype == want.dtype and planes.shape == want.shape
        assert (planes == want).all()

    def test_p20_builds_no_colouring_matrix(self):
        # an (n, 2^n) int64 matrix alone is 160 MiB at n = 20
        tracemalloc.start()
        try:
            rep = expected_stabiliser_measure(path_graph(20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.value == Fraction(2**10 + 1, 2**11)
        assert peak < 16 * 2**20, peak

    def test_fubini_mismatch_raises_invariant_error(self, monkeypatch):
        # wrong cycle labels break the group-first route only
        monkeypatch.setattr(topology, "cycle_labels", lambda images: 0 * images)
        with pytest.raises(InvariantError):
            expected_stabiliser_measure(cycle_graph(4))

    def test_vertex_cap(self):
        # the cap counts colourings, 2^n, as `distinguishing_probability_exact` does
        g = path_graph(4)
        with pytest.raises(CapExceededError) as info:
            expected_stabiliser_measure(g, colour_cap=15)
        assert (info.value.required, info.value.cap) == (16, 15)
        assert expected_stabiliser_measure(g, colour_cap=16).value == Fraction(5, 8)
