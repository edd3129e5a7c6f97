import itertools
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    cycles,
    fix_probability,
    mc_by_stabilisers,
    mc_one_stage,
    petersen_graph,
    plain_and_coloured,
    prime_order_labels,
    prime_order_partitions_labelling_all,
    seeded_random_graphs,
    seeded_random_trees,
    tree_automorphism_by_nested_codes,
    uncertified_trials,
)
from symbreak import colourings, groups
from symbreak.autsearch import automorphism_group
from symbreak.cli import _parse_colours
from symbreak.colourings import (
    Colouring,
    PartialColouring,
    colouring_stabiliser,
    distinguishing_probability_exact,
    distinguishing_probability_mc,
    find_tree_automorphism,
    is_distinguishing,
    partial_stabiliser,
    preserves_partial,
    random_colouring,
    russel_sundaram_bound,
)
from symbreak.errors import CapExceededError
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
from symbreak.perms import Perm
from symbreak.rng import SeededRng, trial_block_bytes

ORACLE_GRAPHS = {
    "C8": cycle_graph(8),
    "Q3": hypercube(3),
    "K4": complete_graph(4),
    "K33": complete_bipartite(3, 3),
    "P6": path_graph(6),
}


def exact_oracle(g, k=2):
    """Distinguishing fraction by marking, for every non-identity element,
    each colouring constant on its cycles."""
    n = g.vertex_count
    fixed = set()
    for gamma in automorphism_group(g).elements():
        if gamma.is_identity():
            continue
        cycs = cycles(gamma, include_fixed=True)
        for assignment in itertools.product(range(k), repeat=len(cycs)):
            colours = [0] * n
            for col, cyc in zip(assignment, cycs):
                for v in cyc:
                    colours[v] = col
            fixed.add(tuple(colours))
    return Fraction(k**n - len(fixed), k**n)


def mc_oracle(g, k, trials, rng):
    """MC success count: each trial's scalar stream, checked against every element."""
    n = g.vertex_count
    elems = [e for e in automorphism_group(g).elements() if not e.is_identity()]
    successes = 0
    for t in range(trials):
        c = rng.trial_stream(t).integers_below(k, n)
        if all(any(c[e(v)] != c[v] for v in range(n)) for e in elems):
            successes += 1
    return successes


def preserves_partial_oracle(gamma, pc, n):
    """Literal definition: some total extension c1 of pc has c1 ∘ gamma also
    extending pc.  Enumerates all 2^(n - |domain|) extensions."""
    cmap = pc.colour_map()
    free = [v for v in range(n) if v not in cmap]
    for bits in itertools.product(range(pc.k), repeat=len(free)):
        c1 = dict(cmap)
        c1.update(zip(free, bits))
        if all(c1[gamma(s)] == col for s, col in cmap.items()):
            return True
    return False


class TestRng:
    def test_same_seed_same_colouring(self):
        g = cycle_graph(8)
        rng = SeededRng(123, 5)
        assert random_colouring(g, 2, rng) == random_colouring(g, 2, rng)

    def test_different_streams_differ(self):
        g = generate_family(FamilySpec("double_ray", {}, 40))  # 81 vertices
        rng = SeededRng(9)
        seen = set()
        for stream in range(20):
            seen.add(random_colouring(g, 2, rng.stream(stream)).colours)
        assert len(seen) == 20

    def test_colour_frequency_within_5_sigma(self):
        g = generate_family(FamilySpec("double_ray", {}, 5000))  # 10001 vertices
        c = random_colouring(g, 2, SeededRng(2024))
        n = g.vertex_count
        ones = sum(c.colours)
        sigma = (n * 0.25) ** 0.5
        assert abs(ones - n / 2) <= 5 * sigma

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            random_colouring(cycle_graph(3), 1, SeededRng(0))

    def test_raw_words_are_stable(self):
        # pinned generator: identical keys reproduce identical words
        a = SeededRng(42, 7).raw_words(8)
        b = SeededRng(42, 7).raw_words(8)
        assert list(a) == list(b)


class TestStabiliser:
    def test_constant_colouring_keeps_full_group(self):
        g = cycle_graph(5)
        assert colouring_stabiliser(g, Colouring((0,) * 5)).order() == 10

    def test_c4_alternating(self):
        assert colouring_stabiliser(cycle_graph(4), Colouring((0, 1, 0, 1))).order() == 4

    def test_p4_asymmetric_colouring(self):
        assert colouring_stabiliser(path_graph(4), Colouring((0, 0, 1, 0))).is_trivial()

    def test_matches_brute_force_on_seeded_colourings(self, corpus):
        rng = SeededRng(77)
        for name, g in corpus.items():
            elems = list(automorphism_group(g).elements())
            for i in range(10):
                c = random_colouring(g, 2, rng.stream(i))
                expected = [
                    e
                    for e in elems
                    if all(c[e(v)] == c[v] for v in range(g.vertex_count))
                ]
                assert colouring_stabiliser(g, c).order() == len(expected), name


class TestDistinguishing:
    def test_p4_witnessless_success(self):
        rep = is_distinguishing(path_graph(4), Colouring((0, 0, 1, 0)))
        assert rep.distinguishing and rep.witness is None

    def test_constant_on_transitive_graph_fails_with_witness(self):
        g = cycle_graph(5)
        rep = is_distinguishing(g, Colouring((1,) * 5))
        assert not rep.distinguishing
        w = rep.witness
        assert not w.is_identity()
        assert automorphism_group(g).contains(w)

    def test_c6_specific_colouring(self):
        g = cycle_graph(6)
        c = Colouring((0, 0, 0, 1, 1, 0))
        rep = is_distinguishing(g, c)
        assert not rep.distinguishing
        w = rep.witness
        assert all(c[w(v)] == c[v] for v in range(6))

    def test_witness_is_the_stabilisers_first_generator(self, corpus):
        for name, g in corpus.items():
            for t in range(8):
                c = random_colouring(g, 2, SeededRng(9, t))
                rep = is_distinguishing(g, c)
                gens = colouring_stabiliser(g, c).generators
                assert rep.distinguishing == (not gens), name
                assert rep.witness == (gens[0] if gens else None), name

    def test_partial_colouring_rejected(self):
        with pytest.raises(ValueError, match="colouring must be total"):
            is_distinguishing(path_graph(4), Colouring((0, 1)))


class TestFixProbability:
    def test_identity(self):
        assert fix_probability(Perm.identity(7)) == 1

    def test_transposition(self):
        assert fix_probability(Perm([1, 0])) == Fraction(1, 2)

    def test_p4_reversal(self):
        assert fix_probability(Perm([3, 2, 1, 0])) == Fraction(1, 4)

    def test_matches_enumeration(self, corpus):
        for name, g in corpus.items():
            n = g.vertex_count
            for gamma in automorphism_group(g).elements():
                count = 0
                for bits in range(2**n):
                    colours = [(bits >> v) & 1 for v in range(n)]
                    count += all(colours[gamma(v)] == colours[v] for v in range(n))
                assert fix_probability(gamma) == Fraction(count, 2**n), name

    def test_three_colours(self):
        assert fix_probability(Perm([1, 0, 2]), k=3) == Fraction(1, 3)


class TestExactProbability:
    def test_k1(self):
        assert distinguishing_probability_exact(complete_graph(1)) == 1

    def test_p4(self):
        assert distinguishing_probability_exact(path_graph(4)) == Fraction(3, 4)

    def test_c4_has_none(self):
        assert distinguishing_probability_exact(cycle_graph(4)) == 0

    def test_matches_naive_enumeration(self):
        for g in [path_graph(4), cycle_graph(5), star_graph(3)]:
            n = g.vertex_count
            elems = [e for e in automorphism_group(g).elements() if not e.is_identity()]
            count = 0
            for bits in range(2**n):
                colours = [(bits >> v) & 1 for v in range(n)]
                if all(
                    any(colours[e(v)] != colours[v] for v in range(n)) for e in elems
                ):
                    count += 1
            assert distinguishing_probability_exact(g) == Fraction(count, 2**n)

    @pytest.mark.parametrize("k", [1, 0, -1])
    def test_fewer_than_two_colours_rejected(self, k):
        with pytest.raises(ValueError, match="at least 2 colours required"):
            distinguishing_probability_exact(cycle_graph(6), k)

    def test_three_colours_on_k3(self):
        # distinguishing 3-colourings of K3 are exactly the 6 rainbow ones
        assert distinguishing_probability_exact(complete_graph(3), 3) == Fraction(6, 27)

    @pytest.mark.parametrize(
        "g,k",
        [
            (hypercube(4), 2),
            (cycle_graph(16), 2),
            (path_graph(16), 2),
            (complete_bipartite(3, 3), 2),
            # 012012012 is fixed by a rotation of order 3 and by no involution
            (cycle_graph(9), 3),
        ],
    )
    def test_matches_all_elements_oracle(self, g, k):
        assert distinguishing_probability_exact(g, k) == exact_oracle(g, k)

    def test_matches_all_elements_oracle_on_corpus(self, corpus):
        for name, g in corpus.items():
            for k in (2, 3, 4, 5):
                if k**g.vertex_count <= 2**14:
                    assert distinguishing_probability_exact(g, k) == exact_oracle(g, k), (name, k)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_empty_graph(self, k):
        assert distinguishing_probability_exact(Graph([]), k) == 1

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("g", [cycle_graph(5), complete_graph(2)], ids=["C5", "K2"])
    def test_row_of_one_block(self, g, k):
        # a rotation of C5 and the swap of K2 are one cycle: nothing to split in halves
        rows = colourings._prime_order_partitions(automorphism_group(g), 10**6)
        assert (rows == 0).all(axis=1).any()
        assert distinguishing_probability_exact(g, k) == exact_oracle(g, k)

    @pytest.mark.parametrize("budget", [1, 8 * 6, 8 * 40])
    def test_small_budget_gives_the_same_count(self, monkeypatch, budget):
        # budgets that split the rows of one block count, and one row's outer sum
        cases = [(hypercube(3), 2), (hypercube(3), 3), (cycle_graph(16), 2)]
        want = [distinguishing_probability_exact(g, k) for g, k in cases]
        monkeypatch.setattr(colourings, "BLOCK_BYTES", budget)
        assert [distinguishing_probability_exact(g, k) for g, k in cases] == want

    def test_long_transposition_row_stays_small(self):
        # P18 with two pendant vertices on vertex 9: Aut is the pendants'
        # swap, one row of 19 blocks over 2^20 colourings.  A (19 x 2^19)
        # digit matrix alone would take 80 MiB.
        adjacency = [set(nbrs) for nbrs in path_graph(18).adjacency] + [{9}, {9}]
        adjacency[9] |= {18, 19}
        g = Graph(adjacency)
        distinguishing_probability_exact(g)  # numpy's lazy set-up is not the count's
        tracemalloc.start()
        try:
            assert distinguishing_probability_exact(g) == Fraction(1, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_refuses_2_to_the_53_before_any_work(self, monkeypatch):
        # float64 indices are exact only below 2^53, whatever the colour cap
        def no_group(g):
            raise AssertionError("the group was built")

        monkeypatch.setattr(colourings, "automorphism_group", no_group)
        with pytest.raises(CapExceededError, match="2\\^53") as info:
            distinguishing_probability_exact(path_graph(53), 2, colour_cap=2**60)
        assert (info.value.required, info.value.cap) == (2**53, 2**53 - 1)

    def test_union_bound(self, corpus):
        for name, g in corpus.items():
            failure = 1 - distinguishing_probability_exact(g)
            total = sum(
                (
                    fix_probability(e)
                    for e in automorphism_group(g).elements()
                    if not e.is_identity()
                ),
                Fraction(0),
            )
            assert failure <= total, name


class TestMonteCarloEstimate:
    def test_deterministic_per_seed(self):
        g = path_graph(4)
        a = distinguishing_probability_mc(g, 2, 500, SeededRng(5))
        b = distinguishing_probability_mc(g, 2, 500, SeededRng(5))
        assert a == b

    def test_p4_calibration(self):
        est = distinguishing_probability_mc(path_graph(4), 2, 20000, SeededRng(11))
        assert abs(est.estimate - 0.75) <= 5 * est.stderr

    def test_c4_exactly_zero(self):
        est = distinguishing_probability_mc(cycle_graph(4), 2, 2000, SeededRng(3))
        assert est.successes == 0

    def test_k1_exactly_one(self):
        est = distinguishing_probability_mc(complete_graph(1), 2, 100, SeededRng(3))
        assert est.estimate == 1.0

    @pytest.mark.parametrize("k", [1, 0, -1])
    def test_fewer_than_two_colours_rejected(self, k):
        with pytest.raises(ValueError, match="at least 2 colours required"):
            distinguishing_probability_mc(cycle_graph(6), k, 300)

    def test_within_5_sigma_on_whole_corpus(self, corpus):
        for index, (name, g) in enumerate(corpus.items()):
            exact = float(distinguishing_probability_exact(g))
            est = distinguishing_probability_mc(g, 2, 2000, SeededRng(60 + index))
            se = (exact * (1 - exact) / 2000) ** 0.5
            if se == 0:
                assert est.estimate == exact, name
            else:
                assert abs(est.estimate - exact) <= 5 * se, name


    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_all_elements_recount(self, name, k):
        g = ORACLE_GRAPHS[name]
        for seed, stream in ((0, 0), (17, 3), (2**64 - 1, 2**32 - 1)):
            rng = SeededRng(seed, stream)
            got = distinguishing_probability_mc(g, k, 300, rng).successes
            assert got == mc_oracle(g, k, 300, rng), seed

    def test_small_memory_budget_gives_same_count(self, monkeypatch):
        g = hypercube(3)
        want = distinguishing_probability_mc(g, 2, 500, SeededRng(4, 2)).successes
        # element blocks and trial blocks both shrink to one row
        monkeypatch.setattr(groups, "BLOCK_BYTES", 1)
        monkeypatch.setattr(colourings, "BLOCK_BYTES", 1)
        assert distinguishing_probability_mc(g, 2, 500, SeededRng(4, 2)).successes == want

    def test_many_colours(self):
        # colours above 127 overflowed an int8 block
        est = distinguishing_probability_mc(cycle_graph(6), k=200, trials=300)
        assert est.successes == mc_oracle(cycle_graph(6), 200, 300, SeededRng(0))

    @pytest.mark.parametrize("d,count", [(3, 23), (5, 447)])
    def test_one_check_per_prime_order_cycle_partition(self, d, count):
        labels = colourings._prime_order_partitions(automorphism_group(hypercube(d)), 10**6)
        assert labels.shape == (count, 2**d)


@pytest.mark.parametrize(
    "estimator, args, match",
    [
        (distinguishing_probability_exact, (2.0,), "k must be an int"),
        (distinguishing_probability_exact, (True,), "k must be an int"),
        (distinguishing_probability_mc, (2.0, 10), "k must be an int"),
        (distinguishing_probability_mc, (3, 10.0), "trials must be an int"),
        (distinguishing_probability_mc, (2, True), "trials must be an int"),
        (distinguishing_probability_mc, (2, 0), "trials must be an int >= 1"),
        (random_colouring, (2.0,), "k must be an int"),
    ],
    ids=["exact-k-float", "exact-k-bool", "mc-k-float", "mc-trials-float", "mc-trials-bool",
         "mc-trials-zero", "random-k-float"],
)
def test_estimators_refuse_what_is_no_count(estimator, args, match):
    # a float or bool count once raised TypeError or AttributeError, or ran
    with pytest.raises(ValueError, match=match):
        estimator(cycle_graph(4), *args)


def asymmetric_graph():
    """The smallest asymmetric graphs have 6 vertices: this one has |Aut| = 1."""
    return Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (3, 5)])


#: The seeded runs of the benchmark's enumerated Monte Carlo items:
#: (graph, stream, trials), at bench seeds 1 and 2.
BENCH_MC_RUNS = {
    "C8": (cycle_graph(8), 1, 20_000),
    "Q4": (hypercube(4), 2, 10_000),
    "Q5": (hypercube(5), 3, 4096),
}

#: Seeded successes computed with the Philox draw before it ran in tiles.
#: `mc_one_stage` and `uncertified_trials` draw through `trial_block`
#: themselves, so only pinned counts catch a fault in the draw.
#: (graph, k) -> successes at seed 7 under a 1 MiB budget (many blocks of
#: one Philox tile each):
PINNED_BUDGET_SUCCESSES = {
    ("C64", 2): 40_000,
    ("C64", 3): 40_000,
    ("Q5", 2): 18_346,
    ("Q5", 3): 19_945,
}
#: (BENCH_MC_RUNS name, seed) -> successes at k = 2 (one block of 2-3 tiles):
PINNED_BENCH_SUCCESSES = {
    ("C8", 1): 7562,
    ("C8", 2): 7365,
    ("Q4", 1): 3503,
    ("Q4", 2): 3501,
    ("Q5", 1): 3765,
    ("Q5", 2): 3734,
}
#: (k, seed) -> successes of K10 above the enumeration cap, 200 trials from
#: stream 4; 20 colours are no power of two, so the draw rejection-samples:
PINNED_CERTIFIED_SUCCESSES = {(2, 1): 0, (2, 2): 0, (20, 1): 14, (20, 2): 16}


class TestPinnedDraws:
    """Seeded Monte Carlo counts stay those of the untiled draw."""

    @pytest.mark.parametrize("name, k", sorted(PINNED_BUDGET_SUCCESSES))
    def test_many_blocks(self, monkeypatch, name, k):
        g, trials = (cycle_graph(64), 40_000) if name == "C64" else (hypercube(5), 20_000)
        monkeypatch.setattr(colourings, "BLOCK_BYTES", 1 << 20)
        got = distinguishing_probability_mc(g, k, trials, SeededRng(7)).successes
        assert got == PINNED_BUDGET_SUCCESSES[name, k]

    @pytest.mark.parametrize("name, seed", sorted(PINNED_BENCH_SUCCESSES))
    def test_benchmark_runs(self, name, seed):
        g, stream, trials = BENCH_MC_RUNS[name]
        got = distinguishing_probability_mc(g, 2, trials, SeededRng(seed, stream)).successes
        assert got == PINNED_BENCH_SUCCESSES[name, seed]

    @pytest.mark.parametrize("k, seed", sorted(PINNED_CERTIFIED_SUCCESSES))
    def test_above_the_enumeration_cap(self, k, seed):
        got = distinguishing_probability_mc(complete_graph(10), k, 200, SeededRng(seed, 4))
        assert got.successes == PINNED_CERTIFIED_SUCCESSES[k, seed]


class TestTwoStageCheck:
    """The enumerated Monte Carlo path checks each block of trials, packed as
    bit-planes, against the label rows with `agreement`; its counts must
    equal the one-stage check on all columns (`mc_one_stage`).  The class
    keeps the name of the two-stage sieve the packed check replaced."""

    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_one_stage_check(self, name, k):
        g = ORACLE_GRAPHS[name]
        for seed, stream in ((0, 0), (23, 5)):
            got = distinguishing_probability_mc(g, k, 700, SeededRng(seed, stream)).successes
            assert got == mc_one_stage(g, k, 700, SeededRng(seed, stream)), seed

    @pytest.mark.parametrize("k", [2, 3])
    def test_small_graphs_match_one_stage_check(self, k):
        for g in (cycle_graph(5), complete_graph(4), path_graph(6), star_graph(4), cycle_graph(7)):
            got = distinguishing_probability_mc(g, k, 400, SeededRng(9, 1)).successes
            assert got == mc_one_stage(g, k, 400, SeededRng(9, 1))

    @pytest.mark.parametrize("trials", [1, 63, 64, 65, 700])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_partial_words_and_planes(self, trials, k):
        # 700 trials fill 10 words and 60 bits of an 11th; k = 2..5 take 1-3 planes
        for name in ("C8", "Q3", "K4"):
            g = ORACLE_GRAPHS[name]
            got = distinguishing_probability_mc(g, k, trials, SeededRng(4, k)).successes
            assert got == mc_one_stage(g, k, trials, SeededRng(4, k)), name

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("enum_cap", [0, 10**6])
    def test_zero_and_one_vertex(self, n, enum_cap):
        g = Graph.from_edges(n, [])
        for k in (2, 5):
            got = distinguishing_probability_mc(g, k, 65, SeededRng(2), enum_cap=enum_cap)
            assert got.successes == mc_one_stage(g, k, 65, SeededRng(2)) == 65

    def test_no_label_rows(self):
        g = asymmetric_graph()
        assert automorphism_group(g).order() == 1
        assert colourings._prime_order_partitions(automorphism_group(g), 10**6).shape == (0, 6)
        assert distinguishing_probability_mc(g, 2, 300, SeededRng(1)).successes == 300
        assert mc_one_stage(g, 2, 300, SeededRng(1)) == 300

    def test_random_graphs_match_one_stage_check(self):
        for index, g in enumerate(seeded_random_graphs(12, 30, max_n=11)):
            for k in (2, 3):
                got = distinguishing_probability_mc(g, k, 200, SeededRng(3, index)).successes
                assert got == mc_one_stage(g, k, 200, SeededRng(3, index)), (index, k)

    @pytest.mark.parametrize("budget", [1, 200, 5000])
    def test_small_budget_keeps_counts_and_chunks(self, monkeypatch, budget):
        # a block holds the trials whose draws fit the budget, and a chunk of
        # label rows two (rows, words) uint64 arrays and a column within it
        shapes = []
        agreement = colourings.agreement

        def recording(images, planes, columns):
            shapes.append((len(images), planes.shape[2]))
            return agreement(images, planes, columns)

        g = hypercube(4)
        want = mc_one_stage(g, 2, 100, SeededRng(6, 2))
        monkeypatch.setattr(colourings, "BLOCK_BYTES", budget)
        monkeypatch.setattr(colourings, "agreement", recording)
        assert distinguishing_probability_mc(g, 2, 100, SeededRng(6, 2)).successes == want
        words = -(-max(1, budget // trial_block_bytes(16)) // 64)
        assert shapes and all(w == words for _, w in shapes)
        assert all(rows == 1 or rows * (16 * w + 8) <= budget for rows, w in shapes)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize(
        "g, trials", [(cycle_graph(64), 40_000), (hypercube(5), 20_000)], ids=["C64", "Q5"]
    )
    def test_blocks_peak_within_the_budget(self, monkeypatch, g, trials, k):
        # a trial's draws peak at about 24 bytes per vertex, three times its
        # colours: blocks sized from the colours alone peaked at 3-6 budgets
        want = distinguishing_probability_mc(g, k, trials, SeededRng(7))
        budget = 1 << 20
        assert trials > 8 * budget // trial_block_bytes(g.vertex_count)  # many blocks
        monkeypatch.setattr(colourings, "BLOCK_BYTES", budget)
        partitions, held = colourings._prime_order_partitions, []

        def rows_then_reset(*args):
            rows = partitions(*args)
            # from here on the peak is the blocks' above the rows and the group
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return rows

        monkeypatch.setattr(colourings, "_prime_order_partitions", rows_then_reset)
        tracemalloc.start()
        try:
            got = distinguishing_probability_mc(g, k, trials, SeededRng(7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak - held[0] <= 1.25 * budget

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", sorted(BENCH_MC_RUNS))
    def test_benchmark_runs_match_one_stage_check(self, name, seed):
        g, stream, trials = BENCH_MC_RUNS[name]
        got = distinguishing_probability_mc(g, 2, trials, SeededRng(seed, stream)).successes
        assert got == mc_one_stage(g, 2, trials, SeededRng(seed, stream))


class TestBitPlanes:
    """`bit_planes`, `unpack_bits` and `agreement` against their definitions."""

    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 130])
    def test_bit_t_of_word_w_is_colouring_64w_plus_t(self, count):
        colours = np.random.default_rng(count).integers(0, 5, (3, count))
        planes = colourings.bit_planes(colours, 5)
        assert planes.dtype == np.uint64 and planes.shape == (3, 3, -(-count // 64))
        for j, plane in enumerate(planes.tolist()):
            for row, words in zip(colours.tolist(), plane):
                want = [0] * len(words)
                for i, colour in enumerate(row):
                    want[i // 64] |= ((colour >> j) & 1) << (i % 64)
                assert words == want
            unpacked = colourings.unpack_bits(planes[j], count)
            assert unpacked.tolist() == ((colours >> j) & 1).tolist()

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 9])
    @pytest.mark.parametrize("count", [1, 63, 64, 65, 130])
    def test_agreement_matches_colour_comparison(self, k, count):
        rnd = np.random.default_rng(k * 1000 + count)
        n = 7
        colours = rnd.integers(0, k, (n, count)).astype(np.uint8)
        images = np.array([rnd.permutation(n) for _ in range(5)], dtype=np.intp)
        planes = colourings.bit_planes(colours, k)
        assert planes.shape == ((k - 1).bit_length(), n, -(-count // 64))
        for columns in ([], [3], list(range(n))):
            got = colourings.unpack_bits(colourings.agreement(images, planes, columns), count)
            for r, row in enumerate(images):
                agree = [all(colours[row[v], i] == colours[v, i] for v in columns)
                         for i in range(count)]
                assert got[r].tolist() == agree
        assert colourings.agreement(images[:0], planes, range(n)).shape == (0, planes.shape[2])


class TestDistinctRows:
    """The label rows are deduplicated with `np.unique` over a void view of
    each row; the set must be `np.unique(axis=0)`'s, in one order."""

    @pytest.mark.parametrize("shape", [(0, 5), (1, 5), (2, 0), (40, 3), (300, 6)])
    def test_same_rows_as_unique_axis_0(self, shape):
        rows = np.random.default_rng(sum(shape)).integers(0, 3, shape).astype(np.intp)
        got = colourings._distinct_rows(rows)
        assert sorted(map(tuple, got.tolist())) == sorted(
            map(tuple, np.unique(rows, axis=0).tolist())
        )
        # the order depends on the rows' contents only
        shuffled = rows[np.random.default_rng(1).permutation(len(rows))]
        assert colourings._distinct_rows(shuffled).tolist() == got.tolist()

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_hypercube_labels(self, d):
        labels = colourings._prime_order_partitions(automorphism_group(hypercube(d)), 10**6)
        want = prime_order_labels(automorphism_group(hypercube(d)))
        assert sorted(map(tuple, labels.tolist())) == want


PREFILTER_GRAPHS = {
    **{f"Q{d}": hypercube(d) for d in range(3, 7)},
    **{f"K{n}": complete_graph(n) for n in range(3, 9)},
    # a rotation of C_p has order p, so most outlast the walk and stay open;
    # C2 is no simple graph, and P2 has its group
    **{f"C{p}": cycle_graph(p) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)},
    **{f"P{n}": path_graph(n) for n in (1, 2, 5, 16)},
    **{f"S{n}": star_graph(n) for n in (2, 3, 6)},
    "K33": complete_bipartite(3, 3),
    "C16": cycle_graph(16),
    "empty": Graph([]),
}


class TestPrimeCycleLabels:
    """`_prime_order_partitions` walks each element's first moved point's
    cycle before `cycle_labels` and merges each block's new rows into runs
    of the distinct rows found so far; its array must be the one labelling every
    element and deduplicating once gives (`prime_order_partitions_labelling_all`)."""

    @staticmethod
    def check(group, name):
        got = colourings._prime_order_partitions(group, 10**6)
        want = prime_order_partitions_labelling_all(group, 10**6)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want), name

    def test_corpus(self, corpus):
        for name, g in corpus.items():
            self.check(automorphism_group(g), name)

    def test_random_graphs_plain_and_coloured(self):
        graphs = list(enumerate(seeded_random_graphs(33, 100, max_n=10)))
        for name, g, colours in plain_and_coloured(graphs, 34):
            self.check(automorphism_group(g, vertex_colours=colours), name)

    @pytest.mark.parametrize("name", sorted(PREFILTER_GRAPHS))
    def test_families(self, name):
        self.check(automorphism_group(PREFILTER_GRAPHS[name]), name)

    def test_random_trees(self):
        for index, g in enumerate(seeded_random_trees(35, 40)):
            self.check(automorphism_group(g), index)

    def test_many_small_blocks(self, monkeypatch):
        # blocks of a few rows: the merge meets every row many times over
        monkeypatch.setattr(groups, "BLOCK_BYTES", 8 * 16 * 5)
        for name in ("Q4", "K6", "C13", "S6"):
            self.check(automorphism_group(PREFILTER_GRAPHS[name]), name)

    @pytest.mark.parametrize("name", ["Q5", "Q6", "K8", "C31"])
    def test_many_blocks_and_runs(self, monkeypatch, name):
        # blocks of 24 rows: the distinct rows stand in many runs, merged
        # as they grow, and come out as the one-pass deduplication orders them
        g = PREFILTER_GRAPHS[name]
        monkeypatch.setattr(groups, "BLOCK_BYTES", 8 * g.vertex_count * 24)
        self.check(automorphism_group(g), name)

    def test_each_row_is_copied_about_log_blocks_times(self, monkeypatch):
        # Q6 in 960 blocks: inserting each block's new rows into all the rows
        # found so far copied 1.4 million rows, for 2,359 distinct rows
        monkeypatch.setattr(groups, "BLOCK_BYTES", 8 * 64 * 48)
        aut = automorphism_group(hypercube(6))
        blocks = sum(1 for _ in aut.element_blocks(10**6))
        copied, insert = [], np.insert

        def recording(rows, *args, **kwargs):
            copied.append(len(rows))
            return insert(rows, *args, **kwargs)

        monkeypatch.setattr(np, "insert", recording)
        rows = colourings._prime_order_partitions(aut, 10**6)
        assert blocks >= 900 and len(rows) == 2359
        assert sum(copied) <= 2 * len(rows) * blocks.bit_length()

    @staticmethod
    def labelled(monkeypatch, g):
        counts = []
        labels = colourings.cycle_labels
        monkeypatch.setattr(
            colourings, "cycle_labels", lambda images: counts.append(len(images)) or labels(images)
        )
        colourings._prime_order_partitions(automorphism_group(g), 10**6)
        return sum(counts)

    def test_walk_drops_rows_of_composite_cycle_length(self, monkeypatch):
        # 1,409 of Q5's 3,840 elements reach the labelling
        assert self.labelled(monkeypatch, hypercube(5)) < 3840

    def test_open_walks_are_labelled(self, monkeypatch):
        # C31: 30 rotations of order 31 stay open after 10 steps, and the 31
        # reflections close at 2; only the identity is dropped
        assert self.labelled(monkeypatch, cycle_graph(31)) == 61

    def test_rows_peak_near_one_block_and_the_distinct_rows(self, monkeypatch):
        # Q5 in 160 element blocks of 24 rows: the rows once kept every
        # block's distinct rows (0.9 MiB here) until one final sort
        aut = automorphism_group(hypercube(5))
        budget = 8192
        monkeypatch.setattr(groups, "BLOCK_BYTES", budget)
        assert sum(1 for _ in aut.element_blocks(10**6)) == 160
        rows = colourings._prime_order_partitions(aut, 10**6)
        tracemalloc.start()
        try:
            colourings._prime_order_partitions(aut, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * rows.nbytes + 16 * budget


def test_cycle_labels_are_the_cycle_minima():
    rnd = random.Random(5)
    for n in range(40):
        rows = [rnd.sample(range(n), n) for _ in range(4)]
        labels = colourings.cycle_labels(np.array(rows, dtype=np.intp).reshape(4, n))
        for row, label in zip(rows, labels.tolist()):
            want = [0] * n
            for cycle in cycles(Perm(row), include_fixed=True):
                for v in cycle:
                    want[v] = min(cycle)
            assert label == want, row


def chain_elements(group, cap=10**6):
    """`elements()` as a list of image rows."""
    return [list(e.images) for e in group.elements(cap)]


class TestElementBlocks:
    """`PermGroup.element_blocks` yields the rows of `elements()`, in order, in blocks."""

    @staticmethod
    def rows(group, cap=10**6):
        blocks = list(group.element_blocks(cap))
        assert blocks and all(b.dtype == np.intp and b.ndim == 2 for b in blocks)
        return [row for b in blocks for row in b.tolist()]

    def test_corpus_rows_in_elements_order(self, corpus):
        for name, g in corpus.items():
            aut = automorphism_group(g)
            assert self.rows(aut) == chain_elements(aut), name

    def test_random_graphs_rows_in_elements_order(self):
        for index, g in enumerate(seeded_random_graphs(4, 40)):
            aut = automorphism_group(g)
            assert self.rows(aut) == chain_elements(aut), index

    @pytest.mark.parametrize("n", [0, 1, 6])
    def test_trivial_group_is_one_identity_row(self, n):
        g = asymmetric_graph() if n == 6 else Graph.from_edges(n, [])
        blocks = list(automorphism_group(g).element_blocks(1))
        assert len(blocks) == 1 and blocks[0].shape == (1, n)
        assert blocks[0].tolist() == [list(range(n))]

    @pytest.mark.parametrize("budget", [1, 8 * 16 * 5, 8 * 16 * 48, 8 * 16 * 100])
    def test_small_budget_splits_blocks_within_it(self, monkeypatch, budget):
        # Q4: 384 rows of 16 points; every block but a one-row block fits
        aut = automorphism_group(hypercube(4))
        want = chain_elements(aut)
        monkeypatch.setattr(groups, "BLOCK_BYTES", budget)
        blocks = list(aut.element_blocks(10**6))
        assert len(blocks) > 1
        assert all(len(b) == 1 or b.nbytes <= budget for b in blocks)
        assert [row for b in blocks for row in b.tolist()] == want

    def test_small_budget_on_corpus(self, monkeypatch, corpus):
        monkeypatch.setattr(groups, "BLOCK_BYTES", 8 * 7 * 12)
        for name, g in corpus.items():
            aut = automorphism_group(g)
            blocks = list(aut.element_blocks(10**6))
            n = g.vertex_count
            assert all(len(b) == 1 or b.nbytes <= max(8 * 7 * 12, 8 * n) for b in blocks), name
            assert [row for b in blocks for row in b.tolist()] == chain_elements(aut), name

    def test_blocks_are_built_without_a_second_copy(self, monkeypatch):
        # `heads[:, tail]` was not in C order, so its reshape copied each
        # block once more: Q6's blocks of 1 MiB peaked at 1.77 MiB
        aut = automorphism_group(hypercube(6))
        budget = 1 << 20
        monkeypatch.setattr(groups, "BLOCK_BYTES", budget)
        list(aut.element_blocks(10**6))  # the chain and numpy's lazy set-up
        tracemalloc.start()
        try:
            for block in aut.element_blocks(10**6):
                del block
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * budget

    def test_cap_below_the_order_raises_as_elements_does(self):
        aut = automorphism_group(hypercube(3))
        with pytest.raises(CapExceededError) as want:
            aut.elements(47)
        with pytest.raises(CapExceededError) as got:
            aut.element_blocks(47)
        assert str(got.value) == str(want.value)
        assert (got.value.required, got.value.cap) == (want.value.required, want.value.cap) == (48, 47)
        assert len(self.rows(aut, 48)) == 48


CERTIFICATE_GRAPHS = {
    "K10": complete_graph(10),
    "K33": complete_bipartite(3, 3),
    "Petersen": petersen_graph(),
    "C8": cycle_graph(8),
    "regular_tree d3 R4": generate_family(FamilySpec("regular_tree", {"degree": 3}, 4)),
}


class TestCertificatePath:
    """Above the enumeration cap, or when |Aut| exceeds trials * n, a trial
    that some generator of Aut(G) preserves is decided at once; every other
    trial stops at its colouring's first automorphism."""

    @pytest.mark.parametrize("name", sorted(CERTIFICATE_GRAPHS))
    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_per_trial_stabilisers(self, name, k):
        g = CERTIFICATE_GRAPHS[name]
        rng = SeededRng(31, 7)
        got = distinguishing_probability_mc(g, k, 150, rng, enum_cap=1).successes
        assert got == mc_by_stabilisers(g, k, 150, rng)

    @pytest.mark.parametrize("k", [2, 3])
    def test_random_graphs_and_trees_match_per_trial_stabilisers(self, k):
        graphs = seeded_random_graphs(5, 40) + seeded_random_trees(6, 40)
        for index, g in enumerate(graphs):
            rng = SeededRng(8, index)
            got = distinguishing_probability_mc(g, k, 40, rng, enum_cap=1).successes
            assert got == mc_by_stabilisers(g, k, 40, rng), index

    def test_small_memory_budget_gives_same_count(self, monkeypatch):
        g = CERTIFICATE_GRAPHS["Petersen"]
        want = distinguishing_probability_mc(g, 2, 100, SeededRng(4), enum_cap=1).successes
        monkeypatch.setattr(colourings, "BLOCK_BYTES", 1)
        assert distinguishing_probability_mc(g, 2, 100, SeededRng(4), enum_cap=1).successes == want

    def test_path_rule_at_trials_times_n(self, monkeypatch):
        # C8: |Aut| = 16 = 2 trials * 8 vertices enumerates; one trial does not
        calls = []
        partitions = colourings._prime_order_partitions
        monkeypatch.setattr(
            colourings,
            "_prime_order_partitions",
            lambda *args: calls.append(args) or partitions(*args),
        )
        g = cycle_graph(8)
        distinguishing_probability_mc(g, 2, 2, SeededRng(1))
        assert len(calls) == 1
        distinguishing_probability_mc(g, 2, 1, SeededRng(1))
        assert len(calls) == 1

    def test_q7_takes_the_certificate_path(self, monkeypatch):
        # |Aut(Q7)| = 645120 is under the cap but above 50 trials * 128
        # vertices; enumerating its prime-order elements took tens of seconds
        def refuse(*args):
            raise AssertionError("enumerated the prime-order elements")

        monkeypatch.setattr(colourings, "_prime_order_partitions", refuse)
        g = hypercube(7)
        got = distinguishing_probability_mc(g, 2, 50, SeededRng(2, 5)).successes
        assert got == mc_by_stabilisers(g, 2, 50, SeededRng(2, 5))

    def test_tree_path_choice_builds_no_chain(self, monkeypatch):
        from symbreak.groups import PermGroup

        def refuse(self):
            raise AssertionError("built a stabiliser chain")

        monkeypatch.setattr(PermGroup, "_ensure_chain", refuse)
        g = generate_family(FamilySpec("regular_tree", {"degree": 3}, 6))
        assert distinguishing_probability_mc(g, 2, 20, SeededRng(3)).successes == 0

    @staticmethod
    def count_searches(monkeypatch):
        calls = []
        search = colourings.first_automorphism
        monkeypatch.setattr(
            colourings, "first_automorphism", lambda g, c: calls.append(c) or search(g, c)
        )
        return calls

    @pytest.mark.parametrize("name", ["K10", "regular_tree d3 R4"])
    def test_generators_decide_every_trial_without_a_search(self, monkeypatch, name):
        g = CERTIFICATE_GRAPHS[name]
        want = mc_by_stabilisers(g, 2, 200, SeededRng(1))
        calls = self.count_searches(monkeypatch)
        assert distinguishing_probability_mc(g, 2, 200, SeededRng(1)).successes == want
        assert calls == []

    @pytest.mark.parametrize("name", ["Q7", "asymmetric"])
    def test_trials_no_generator_preserves_are_searched(self, monkeypatch, name):
        g = hypercube(7) if name == "Q7" else asymmetric_graph()
        want = mc_by_stabilisers(g, 2, 200, SeededRng(1))
        calls = self.count_searches(monkeypatch)
        assert distinguishing_probability_mc(g, 2, 200, SeededRng(1), enum_cap=0).successes == want
        assert len(calls) == 200

    @pytest.mark.parametrize("name", sorted(CERTIFICATE_GRAPHS))
    @pytest.mark.parametrize("k", [2, 3])
    def test_searches_only_the_trials_no_generator_preserves(self, monkeypatch, name, k):
        g = CERTIFICATE_GRAPHS[name]
        for seed in (1, 7):
            want = uncertified_trials(g, k, 130, SeededRng(seed, 2))
            calls = self.count_searches(monkeypatch)
            distinguishing_probability_mc(g, k, 130, SeededRng(seed, 2), enum_cap=0)
            assert len(calls) == want, seed

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_trivial_groups_certify_nothing(self, n):
        # n = 7: the spider with legs 1, 2, 3, the smallest asymmetric tree
        edges = [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)] if n == 7 else []
        g = Graph.from_edges(n, edges)
        assert distinguishing_probability_mc(g, 2, 30, SeededRng(1), enum_cap=0).successes == 30

    @pytest.mark.parametrize("name", sorted(CERTIFICATE_GRAPHS))
    def test_one_byte_blocks_give_the_same_certified_count(self, monkeypatch, name):
        g = CERTIFICATE_GRAPHS[name]
        want = distinguishing_probability_mc(g, 3, 60, SeededRng(5), enum_cap=0).successes
        monkeypatch.setattr(colourings, "BLOCK_BYTES", 1)
        assert distinguishing_probability_mc(g, 3, 60, SeededRng(5), enum_cap=0).successes == want

    @pytest.mark.parametrize("name", ["asymmetric", "Petersen", "C8"])
    def test_an_identity_generator_certifies_nothing(self, monkeypatch, name):
        from symbreak.groups import PermGroup

        g = asymmetric_graph() if name == "asymmetric" else CERTIFICATE_GRAPHS[name]
        want = mc_by_stabilisers(g, 2, 100, SeededRng(6))
        search = colourings.automorphism_group

        def with_identity(graph, vertex_colours=None):
            aut = search(graph, vertex_colours)
            gens = (Perm.identity(aut.degree),) + aut.generators
            return PermGroup(aut.degree, gens, order=aut.order())

        monkeypatch.setattr(colourings, "automorphism_group", with_identity)
        got = distinguishing_probability_mc(g, 2, 100, SeededRng(6), enum_cap=0).successes
        assert got == want


class TestRusselSundaram:
    def test_p4_bound_tight(self):
        rep = russel_sundaram_bound(path_graph(4))
        assert rep.bound == Fraction(1, 4)
        assert rep.applicable
        assert rep.witness is not None
        assert is_distinguishing(path_graph(4), rep.witness).distinguishing
        assert 1 - distinguishing_probability_exact(path_graph(4)) == rep.bound

    def test_c6_vacuous(self):
        rep = russel_sundaram_bound(cycle_graph(6))
        assert rep.bound == Fraction(11, 4)
        assert not rep.applicable

    def test_k2_tight(self):
        rep = russel_sundaram_bound(complete_graph(2))
        assert rep.bound == Fraction(1, 2)
        assert 1 - distinguishing_probability_exact(complete_graph(2)) == rep.bound

    def test_trivial_group(self):
        rep = russel_sundaram_bound(complete_graph(1))
        assert rep.bound == 0
        assert rep.witness is not None


class TestPartialColourings:
    def test_empty_domain_preserved_by_all(self):
        pc = PartialColouring((), ())
        for e in automorphism_group(cycle_graph(4)).elements():
            assert preserves_partial(e, pc)

    def test_c4_rotation_not_preserved(self):
        pc = PartialColouring((0, 1), (0, 1))
        rot = Perm([1, 2, 3, 0])
        assert not preserves_partial(rot, pc)

    def test_c4_reflection_preserved(self):
        pc = PartialColouring((0, 1), (0, 1))
        refl = Perm([0, 3, 2, 1])  # fixes 0 and 2, swaps 1 and 3
        assert preserves_partial(refl, pc)

    def test_matches_extension_oracle(self, corpus):
        small = {name: g for name, g in corpus.items() if g.vertex_count <= 5}
        for name, g in small.items():
            n = g.vertex_count
            elems = list(automorphism_group(g).elements())
            for domain_size in range(0, 4):
                for domain in itertools.combinations(range(n), domain_size):
                    for colours in itertools.product((0, 1), repeat=domain_size):
                        pc = PartialColouring(domain, colours)
                        for e in elems:
                            assert preserves_partial(e, pc) == preserves_partial_oracle(
                                e, pc, n
                            ), (name, domain, colours)

    def test_pair_enumeration_oracle_on_c4(self):
        # literal two-extension form: c1 and c2 both extend pc and c1∘γ = c2
        g = cycle_graph(4)
        pc = PartialColouring((0, 1), (0, 1))
        cmap = pc.colour_map()
        free = [v for v in range(4) if v not in cmap]
        for gamma in automorphism_group(g).elements():
            found = False
            for b1 in itertools.product((0, 1), repeat=len(free)):
                c1 = dict(cmap)
                c1.update(zip(free, b1))
                for b2 in itertools.product((0, 1), repeat=len(free)):
                    c2 = dict(cmap)
                    c2.update(zip(free, b2))
                    if all(c1[gamma(s)] == c2[s] for s in range(4)):
                        found = True
            assert found == preserves_partial(gamma, pc)

    def test_inversion_symmetry(self, corpus):
        rng = SeededRng(15)
        for name, g in corpus.items():
            n = g.vertex_count
            elems = list(automorphism_group(g).elements())
            domain = tuple(range(0, n, 2))
            colours = tuple(rng.integers_below(2, len(domain)))
            pc = PartialColouring(domain, colours)
            for e in elems:
                assert preserves_partial(e, pc) == preserves_partial(e.inverse(), pc)
            assert preserves_partial(Perm.identity(n), pc)

    def test_composition_closure_fails_with_witness(self):
        # rot1 and rot2 preserve this partial colouring of C6, their product rot3 does not
        pc = PartialColouring((0, 3), (0, 1))
        rot1 = Perm([1, 2, 3, 4, 5, 0])
        rot2 = rot1 * rot1
        rot3 = rot2 * rot1
        assert preserves_partial(rot1, pc)
        assert preserves_partial(rot2, pc)
        assert not preserves_partial(rot3, pc)

    def test_total_domain_equals_colouring_stabiliser(self, corpus):
        rng = SeededRng(31)
        for name, g in corpus.items():
            n = g.vertex_count
            c = random_colouring(g, 2, rng.stream(n))
            pc = PartialColouring(tuple(range(n)), c.colours)
            listed = {p.images for p in partial_stabiliser(g, pc)}
            stab = {p.images for p in colouring_stabiliser(g, c).elements()}
            assert listed == stab, name

    def test_domain_out_of_range(self):
        with pytest.raises(ValueError):
            preserves_partial(Perm.identity(2), PartialColouring((5,), (0,)))

    @pytest.mark.parametrize("colour", [1.0, True, -1, 2, "0"])
    def test_what_is_no_colour_rejected(self, colour):
        with pytest.raises(ValueError, match="out of range"):
            Colouring((colour, 0))
        with pytest.raises(ValueError, match="out of range"):
            PartialColouring((0,), (colour,))

    @pytest.mark.parametrize("k", [2.5, 2.0, True])
    def test_what_is_no_colour_count_rejected(self, k):
        # 2.5 used to be accepted with colour 2, and to_string() gave "012"
        with pytest.raises(ValueError, match="k must be an int >= 2"):
            Colouring((0, 1, 2), k)
        with pytest.raises(ValueError, match="k must be an int >= 2"):
            PartialColouring((0,), (0,), k)

    @pytest.mark.parametrize("k", [1, 0])
    def test_partial_colouring_needs_two_colours(self, k):
        # k = 1 used to be accepted
        with pytest.raises(ValueError, match="at least 2 colours required"):
            PartialColouring((0,), (0,), k)

    @pytest.mark.parametrize("point", [-1, True, 1.0])
    def test_what_is_no_vertex_rejected_from_the_domain(self, point):
        # -1 used to read as the last vertex: on P3 domain (-1, 0) gave (2, 0)'s stabiliser
        with pytest.raises(ValueError, match="invalid domain vertex"):
            PartialColouring((point, 0), (0, 1))


def assert_witness_like_oracle(g, root, c, case):
    """A witness exists iff the nested-code oracle finds one, and it fixes the
    root, is not the identity, and preserves colours and edges.  Which
    sibling pair it swaps may differ from the oracle's."""
    found = find_tree_automorphism(g, root, c)
    want = tree_automorphism_by_nested_codes(g, root, c)
    assert (found is None) == (want is None), case
    if found is None:
        return
    assert found(root) == root and not found.is_identity(), case
    for v in range(g.vertex_count):
        assert c[found(v)] == c[v], case
        assert frozenset(found(u) for u in g.adjacency[v]) == frozenset(
            g.adjacency[found(v)]
        ), case


class TestTreeAutomorphism:
    def test_star_with_two_matching_leaves(self):
        g = star_graph(3)
        result = find_tree_automorphism(g, 0, Colouring((0, 0, 0, 1)))
        assert result == Perm([0, 2, 1, 3])

    def test_star_all_leaves_distinct(self):
        g = star_graph(2)
        assert find_tree_automorphism(g, 0, Colouring((0, 0, 1))) is None

    def test_constant_colouring_on_regular_tree(self):
        g = generate_family(FamilySpec("regular_tree", {"degree": 3}, 2))
        result = find_tree_automorphism(g, 0, Colouring((0,) * g.vertex_count))
        assert result is not None and not result.is_identity()
        assert result(0) == 0

    def test_rejects_non_tree(self):
        with pytest.raises(ValueError):
            find_tree_automorphism(cycle_graph(4), 0, Colouring((0, 0, 0, 0)))

    def test_agrees_with_stabiliser_triviality(self):
        g = generate_family(FamilySpec("regular_tree", {"degree": 3}, 2))
        rng = SeededRng(8)
        for i in range(40):
            c = random_colouring(g, 2, rng.stream(i))
            found = find_tree_automorphism(g, 0, c)
            trivial = colouring_stabiliser(g, c).is_trivial()
            assert (found is None) == trivial, i

    def test_matches_nested_code_oracle_on_random_trees(self):
        rnd = random.Random(2424)
        for case in range(600):
            n = rnd.randint(2, 59)
            labels = list(range(n))
            rnd.shuffle(labels)
            edges = [(labels[v], labels[rnd.randrange(v)]) for v in range(1, n)]
            g = Graph.from_edges(n, edges)
            k = rnd.choice((2, 3))
            c = Colouring(tuple(rnd.randrange(k) for _ in range(n)), k)
            root = rnd.randrange(n)
            assert_witness_like_oracle(g, root, c, case)

    @pytest.mark.parametrize(
        "graph",
        [
            generate_family(FamilySpec("regular_tree", {"degree": 3}, 4)),
            generate_family(FamilySpec("regular_tree", {"degree": 3}, 6)),
            generate_family(FamilySpec("regular_tree", {"degree": 4}, 3)),
            path_graph(301),
        ],
        ids=["d3R4", "d3R6", "d4R3", "P301"],
    )
    def test_matches_nested_code_oracle_on_balls(self, graph):
        n = graph.vertex_count
        rnd = random.Random(n)
        for k in (2, 3):
            for _ in range(6):
                c = Colouring(tuple(rnd.randrange(k) for _ in range(n)), k)
                root = rnd.randrange(n)
                assert_witness_like_oracle(graph, root, c, (k, root))
        assert_witness_like_oracle(graph, 0, Colouring((0,) * n), "constant")

    def test_long_path_needs_no_recursion_limit(self):
        limit = sys.getrecursionlimit()
        g = path_graph(5001)
        result = find_tree_automorphism(g, 2500, Colouring((0,) * 5001))
        assert result == Perm([5000 - v for v in range(5001)])
        assert sys.getrecursionlimit() == limit


class TestSerialization:
    def test_colouring_string_round_trip(self):
        c = Colouring((0, 1, 1, 0))
        assert _parse_colours(c.to_string()) == c

    def test_colour_out_of_range(self):
        with pytest.raises(ValueError):
            Colouring((0, 2), k=2)
