import itertools
import json
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from conftest import (
    dsc_by_full_distances,
    gamma_refinement_by_elements,
    layer_fixing_by_elements,
    plain_and_coloured,
    seeded_random_graphs,
    sphere,
    sphere_classes_all_pairs,
    suborbit_classes_by_elements,
    suborbit_pairs_by_elements,
    suborbits,
)
from symbreak import autsearch, conditions

from symbreak.autsearch import automorphism_group
from symbreak.colourings import Colouring, random_colouring
from symbreak.conditions import (
    DSC_PAIR_CAP,
    DscReport,
    dsc_check,
    gamma_refinement_iterate,
    growth_bound,
    growth_classifier,
    layer_fixing_report,
    match_probability,
    sphere_classes,
    sphere_equivalence,
    suborbit_classes,
    suborbit_equivalence,
)
from symbreak.errors import CapExceededError, InvariantError
from symbreak.graphs import (
    FamilySpec,
    Graph,
    cartesian_product,
    complete_graph,
    cycle_graph,
    generate_family,
    growth_sequence,
    hypercube,
    path_graph,
    star_graph,
)
from symbreak.groups import DEFAULT_ENUMERATION_CAP, PermGroup, transversal
from symbreak.rng import SeededRng


DOUBLE_RAY = {"kind": "double_ray", "params": {}}

DSC_FAMILIES = [
    *(FamilySpec("regular_tree", {"degree": 3}, r) for r in range(1, 8)),
    FamilySpec("regular_tree", {"degree": 4}, 3),
    FamilySpec("double_ray", {}, 32),
    *(FamilySpec("grid", {"dimension": 2}, r) for r in range(1, 11)),
    *(FamilySpec("ladder", {}, r) for r in range(1, 17)),
    FamilySpec("cartesian_product", {"left": DOUBLE_RAY, "right": DOUBLE_RAY}, 6),
]


def assert_same_dsc(report, oracle):
    """The report's views equal the oracle's tuples and dict, as views and
    converted, and print as a report of those tuples and that dict does."""
    assert report.checked_pairs == oracle.checked_pairs
    for field in ("violations", "at_horizon", "first_separating_n"):
        view, want = getattr(report, field), getattr(oracle, field)
        assert view == want and want == view, field
        assert type(want)(view) == want, field
    listed = DscReport(
        report.root, report.radius, report.horizon_rule, oracle.checked_pairs,
        oracle.violations, oracle.at_horizon, oracle.first_separating_n,
    )
    assert report == listed
    assert report.to_json_dict() == listed.to_json_dict()
    assert report.to_csv() == listed.to_csv()
    assert report.to_text() == listed.to_text()


def random_graph(rnd, connected):
    """A seeded graph on 1-24 vertices; `connected` adds a spanning tree first."""
    n = rnd.randint(1, 24)
    edges = {(rnd.randrange(v), v) for v in range(1, n)} if connected else set()
    p = rnd.choice((0.05, 0.1, 0.2, 0.4))
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < p}
    return Graph.from_edges(n, sorted(edges))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda g: growth_sequence(g, 0, -2), "radius must be non-negative"),
        (lambda g: dsc_check(g, 0, -1), "radius must be non-negative"),
        (lambda g: suborbit_classes(g, -1), "budget must be non-negative"),
        (lambda g: sphere_classes(g, horizon=-1), "horizon must be non-negative"),
        (lambda g: sphere_classes(g, n0_max=-3), "n0_max must be non-negative"),
        (lambda g: sphere_equivalence(g, 0, 1, horizon=-1), "horizon must be non-negative"),
        (lambda g: sphere_equivalence(g, 0, 1, n0_max=-1), "n0_max must be non-negative"),
        (lambda g: gamma_refinement_iterate(g, 0, max_levels=0), "max_levels must be at least 1"),
    ],
    ids=[
        "growth-radius", "dsc-radius", "suborbit-budget", "classes-horizon",
        "classes-n0", "pair-horizon", "pair-n0", "iterate-levels",
    ],
)
def test_out_of_range_arguments_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call(cycle_graph(6))


def count_searches(monkeypatch):
    """The source of every `Graph.distances` call made from now on."""
    sources = []
    search = Graph.distances
    monkeypatch.setattr(Graph, "distances", lambda g, v: sources.append(v) or search(g, v))
    return sources


class TestDsc:
    @pytest.mark.parametrize("spec", DSC_FAMILIES, ids=lambda s: f"{s.kind}-R{s.radius}")
    def test_matches_full_distance_oracle_on_families(self, spec):
        report = dsc_check(generate_family(spec))
        assert_same_dsc(report, dsc_by_full_distances(generate_family(spec)))

    def test_matches_full_distance_oracle_on_star(self):
        assert_same_dsc(dsc_check(star_graph(3), 0, 1), dsc_by_full_distances(star_graph(3), 0, 1))

    @pytest.mark.parametrize("connected", [True, False])
    def test_matches_full_distance_oracle_on_random_graphs(self, connected):
        rnd = random.Random(5 + connected)
        for _ in range(150):
            g = random_graph(rnd, connected)
            root = rnd.randrange(g.vertex_count)
            ecc = max(g.distances(root))
            for radius in (None, 0, 1, rnd.randint(0, ecc), ecc + rnd.randint(1, 5)):
                assert_same_dsc(dsc_check(g, root, radius), dsc_by_full_distances(g, root, radius))

    @pytest.mark.parametrize("root", [0, 25])
    def test_huge_radius_stops_at_the_first_empty_sphere(self, root):
        g = path_graph(50)
        start = time.perf_counter()
        report = dsc_check(g, root, 10**9)
        assert time.perf_counter() - start < 1.0
        assert_same_dsc(report, dsc_by_full_distances(path_graph(50), root, 10**9))

    def test_pair_cap_raises_before_any_sphere(self):
        # d3 R12: 25,159,680 equidistant pairs, several GB of report if listed
        g = generate_family(FamilySpec("regular_tree", {"degree": 3}, 12))
        start = time.perf_counter()
        with pytest.raises(CapExceededError) as info:
            dsc_check(g)
        assert time.perf_counter() - start < 1.0
        assert (info.value.required, info.value.cap) == (25_159_680, DSC_PAIR_CAP)

    def test_caches_no_distance_rows_but_the_roots(self, monkeypatch):
        # one search from the root, which also gives the default radius
        searches = count_searches(monkeypatch)
        dsc_check(path_graph(9), 4)
        assert searches == [4]
        searches.clear()
        dsc_check(generate_family(FamilySpec("grid", {"dimension": 2}, 6)))
        assert searches == [0]

    def test_double_ray_pair_separates_at_one(self):
        g = generate_family(FamilySpec("double_ray", {}, 4))
        report = dsc_check(g)
        assert not report.violations
        x = g.labels.index(1)
        y = g.labels.index(-1)
        key = (min(x, y), max(x, y))
        assert report.first_separating_n[key] == 1

    def test_regular_tree_r6_clean(self):
        g = generate_family(FamilySpec("regular_tree", {"degree": 3}, 6))
        report = dsc_check(g)
        assert not report.violations

    def test_star_leaf_pairs_at_horizon(self):
        report = dsc_check(star_graph(3), 0, 1)
        assert not report.violations
        assert set(report.at_horizon) == {(1, 2), (1, 3), (2, 3)}

    def test_grid_clean(self):
        g = generate_family(FamilySpec("grid", {"dimension": 2}, 4))
        report = dsc_check(g)
        assert not report.violations

    def test_root_mismatch_rejected(self):
        g = generate_family(FamilySpec("double_ray", {}, 3))
        with pytest.raises(ValueError):
            dsc_check(g, v0=1)

    @pytest.mark.parametrize("radius", [2, 4])
    def test_radius_mismatch_rejected(self, radius):
        g = generate_family(FamilySpec("double_ray", {}, 3))
        root = g.truncation.root
        with pytest.raises(ValueError, match="radius differs from the truncation radius"):
            dsc_check(g, root, radius)
        assert dsc_check(g, root, 3) == dsc_check(g, root)

    def test_safe_horizon_sound_under_extension(self):
        small = dsc_check(generate_family(FamilySpec("regular_tree", {"degree": 3}, 4)))
        big = dsc_check(generate_family(FamilySpec("regular_tree", {"degree": 3}, 6)))
        # indices nest, so every separation recorded at R=4 must recur at R=6
        for pair, n in small.first_separating_n.items():
            assert big.first_separating_n[pair] == n

    def test_views_read_like_the_tuples_and_dict(self):
        # 1, 2 and 3, 6 are twins, so they agree on S(1), the only safe sphere
        # at depth 1; depth 2 has no safe sphere; 8 is unreachable
        edges = [(0, 1), (0, 2), (0, 3), (0, 6), (1, 4), (2, 4), (3, 5), (6, 5), (3, 7), (6, 7)]
        g = Graph.from_edges(9, edges)
        report = dsc_check(g, 0, 2)
        violations, at_horizon = ((1, 2), (3, 6)), ((4, 5), (4, 7), (5, 7))
        first = {(1, 3): 1, (1, 6): 1, (2, 3): 1, (2, 6): 1}
        oracle = dsc_by_full_distances(g, 0, 2)
        assert (oracle.violations, oracle.at_horizon, oracle.first_separating_n) == (
            violations, at_horizon, first
        )
        absent = [(0, 1), (1, 8), (8, 8), (-1, 2), (1,), (1, 2, 3), "12", [1, 2], None]
        for view, want in ((report.violations, violations), (report.at_horizon, at_horizon)):
            assert len(view) == len(want) and bool(view) and tuple(iter(view)) == want
            assert tuple(reversed(view)) == want[::-1]
            size = len(want)
            assert [view[i] for i in range(-size, size)] == [want[i] for i in range(-size, size)]
            assert view[1:] == want[1:] and view[::-1] == want[::-1]
            for k in (size, -size - 1):
                with pytest.raises(IndexError):
                    view[k]
            assert all(p in view for p in want)
            assert not any(p in view for p in absent + [(1, 3)] + [(y, x) for x, y in want])
            assert view == want and want == view and not view != want
            assert view != want[:-1] and want[:-1] != view and view != list(want)
            assert repr(view) == repr(want)
        sep = report.first_separating_n
        assert len(sep) == 4 and bool(sep) and list(sep) == list(first)
        assert list(sep.items()) == list(first.items()) and list(sep.values()) == [1] * 4
        assert sep[(2, 6)] == 1 and (2, 6) in sep and sep.get((1, 2)) is None
        assert not any(p in sep for p in absent + [(3, 1)])
        with pytest.raises(KeyError):
            sep[(1, 2)]
        assert sep == first and first == sep and not sep != first
        assert sep != {**first, (1, 2): 1} and sep != dict(list(first.items())[:3])
        assert repr(sep) == repr(first)

        empty = dsc_check(path_graph(3), 1)
        assert (empty.violations, empty.at_horizon, empty.first_separating_n) == ((), ((0, 2),), {})
        assert not empty.violations and len(empty.violations) == 0 and repr(empty.violations) == "()"
        assert not empty.first_separating_n and repr(empty.first_separating_n) == "{}"

    def test_degree_3_radius_10_stores_no_pair(self):
        g = generate_family(FamilySpec("regular_tree", {"degree": 3}, 10))
        start = time.perf_counter()
        report = dsc_check(g)
        elapsed = time.perf_counter() - start
        counts = (len(report.violations), len(report.at_horizon), len(report.first_separating_n))
        assert (report.checked_pairs, *counts) == (1_571_328, 0, 1_178_880, 392_448)
        assert elapsed < 0.2, elapsed
        tracemalloc.start()
        try:
            dsc_check(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak

    @pytest.mark.parametrize("spec, radius", [
        (FamilySpec("regular_tree", {"degree": 3}, 5), 2),
        (FamilySpec("grid", {"dimension": 2}, 6), 3),
        (FamilySpec("ladder", {}, 8), 1),
        (FamilySpec("double_ray", {}, 6), 4),
    ], ids=lambda p: getattr(p, "kind", p))
    def test_radius_below_the_eccentricity(self, spec, radius):
        # the same ball without its truncation: layers deeper than `radius`
        # get a negative horizon and are wholly at the horizon
        g = Graph(generate_family(spec).adjacency)
        assert_same_dsc(dsc_check(g, 0, radius), dsc_by_full_distances(g, 0, radius))

    def test_unreachable_vertices(self):
        # a path 0-1-2 with twin leaves 3, 4 on 2, plus an unreachable C5 and isolated 10
        edges = [(0, 1), (1, 2), (2, 3), (2, 4), (5, 6), (6, 7), (7, 8), (8, 9), (5, 9)]
        g = Graph.from_edges(11, edges)
        for root in (0, 2, 3, 6, 10):
            for radius in (None, 0, 1, 2, 5):
                assert_same_dsc(dsc_check(g, root, radius), dsc_by_full_distances(g, root, radius))

    def test_twins_and_pendant_paths(self):
        # twin leaves 3, 4 agree on S(1) = {2} and part at S(2), which holds the other
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
        assert dsc_check(g, 0, 4).violations == ((3, 4),)
        assert dict(dsc_check(g, 0, 10).first_separating_n) == {(3, 4): 2}
        # K_{2,m} with pendant paths: twins in each part, and walks that end
        # at different levels
        for m in range(2, 6):
            for lengths in ((0, 0), (1, 0), (2, 1), (3, 3)):
                n = 2 + m
                edges = [(a, b) for a in (0, 1) for b in range(2, n)]
                for start, length in zip((0, 2), lengths):
                    for _ in range(length):
                        edges.append((start, n))
                        start, n = n, n + 1
                k = Graph.from_edges(n, edges)
                for root in range(n):
                    for radius in (None, 1, 3, 9):
                        assert_same_dsc(
                            dsc_check(k, root, radius), dsc_by_full_distances(k, root, radius)
                        )

    def test_seeded_random_graphs_with_twins_and_explicit_radii(self):
        rnd = random.Random(11)
        for _ in range(120):
            g = random_graph(rnd, rnd.random() < 0.7)
            # twins of random vertices keep some classes shared past level 1
            edges = [(u, v) for u in range(g.vertex_count) for v in g.adjacency[u] if u < v]
            n = g.vertex_count
            for v in rnd.sample(range(g.vertex_count), min(3, g.vertex_count)):
                edges += [(u, n) for u in g.adjacency[v]]
                n += 1
            g = Graph.from_edges(n, edges)
            root = rnd.randrange(n)
            for radius in (rnd.randint(0, 3), rnd.randint(0, 8), 2 * n):
                assert_same_dsc(dsc_check(g, root, radius), dsc_by_full_distances(g, root, radius))

    @pytest.mark.parametrize("spec, most, counts", [
        (FamilySpec("grid", {"dimension": 2}, 16), 480, (11_696, 0, 2_016, 9_680)),
        (FamilySpec("regular_tree", {"degree": 3}, 10), 1533, (1_571_328, 0, 1_178_880, 392_448)),
        (FamilySpec("double_ray", {}, 32), 62, (32, 0, 1, 31)),
    ], ids=lambda p: getattr(p, "kind", None))
    def test_spheres_drawn_only_while_a_class_is_shared(self, spec, most, counts, monkeypatch):
        # building every vertex's spheres up to its horizon drew 2720, 3039 and 992
        drawn = []
        walk = conditions._spheres

        def counted(g, v):
            for sphere in walk(g, v):
                drawn.append(v)
                yield sphere

        monkeypatch.setattr(conditions, "_spheres", counted)
        report = dsc_check(generate_family(spec))
        assert len(drawn) <= most
        # the counts of `dsc_by_full_distances` on the same ball
        lengths = (len(report.violations), len(report.at_horizon), len(report.first_separating_n))
        assert (report.checked_pairs, *lengths) == counts

    def test_iteration_builds_no_tuple(self):
        g = generate_family(FamilySpec("regular_tree", {"degree": 3}, 10))
        report = dsc_check(g)
        tracemalloc.start()
        try:
            pairs = sum(1 for _ in report.at_horizon)
            separated = sum(1 for _ in report.first_separating_n.items())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (pairs, separated) == (1_178_880, 392_448)
        assert peak < 4 * 2**20, peak
        # a later lookup builds the tuple or dict once and answers from it
        leaves = [v for v, d in enumerate(g.distances(0)) if d == 10]
        assert report.at_horizon[-1] == tuple(leaves[-2:])
        assert (leaves[0], leaves[1]) in report.at_horizon
        siblings = [v for v in g.adjacency[1] if v > 1]
        assert report.first_separating_n[tuple(siblings)] == 1

    def test_pairs_print_in_pair_order_whatever_the_numbering(self):
        """A family truncation generates its separated pairs in pair order,
        and a graph numbered deepest first does not; both print them sorted."""
        g = generate_family(FamilySpec("grid", {"dimension": 2}, 4))
        n = g.vertex_count
        reversed_numbering = Graph.from_edges(n, [(n - 1 - u, n - 1 - v) for u, v in g.edges()])
        reports = ((dsc_check(g), True), (dsc_check(reversed_numbering, n - 1), False))
        for report, generated_sorted in reports:
            pairs = list(report.first_separating_n)
            assert (pairs == sorted(pairs)) == generated_sorted
            rows = [line.split(",") for line in report.to_csv().splitlines()[1:]]
            assert [(int(x), int(y)) for x, y, _ in rows[: len(pairs)]] == sorted(pairs)
            keys = list(report.to_json_dict()["first_separating_n"])
            assert keys == [f"{x},{y}" for x, y in sorted(pairs)]

    def test_csv_holds_no_list_of_lines(self):
        """d3 R9 prints one line per pair, 392,448 of them, most at the
        horizon.  The lines are written into one buffer as they are made, so
        the peak stays near twice the text; a list of the lines took six times."""
        report = dsc_check(generate_family(FamilySpec("regular_tree", {"degree": 3}, 9)))
        tracemalloc.start()
        try:
            text = report.to_csv()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.count("\n") == 1 + report.checked_pairs
        assert peak < 3 * len(text), (peak, len(text))

    def test_report_emissions(self):
        g = generate_family(FamilySpec("double_ray", {}, 3))
        report = dsc_check(g)
        assert "first_separating_n" in report.to_json_dict()
        assert report.to_csv().startswith("x,y,first_separating_n")
        assert "checked pairs" in report.to_text()


class TestSphereEquivalence:
    def test_reflexive(self):
        g = cycle_graph(6)
        assert sphere_equivalence(g, 2, 2).equivalent

    def test_ladder_rung_partners_separated(self):
        g = generate_family(FamilySpec("ladder", {}, 5))
        u = g.labels.index((0, 0))
        v = g.labels.index((0, 1))
        res = sphere_equivalence(g, u, v)
        assert not res.equivalent
        # the sphere mismatch itself, for every checkable n >= 1
        horizon = 5 - 1
        du, dv = g.distances(u), g.distances(v)
        for n in range(1, horizon + 1):
            su = {w for w in range(g.vertex_count) if du[w] == n}
            sv = {w for w in range(g.vertex_count) if dv[w] == n}
            assert su != sv, n

    def test_c6_antipodal_not_equivalent(self):
        res = sphere_equivalence(cycle_graph(6), 0, 3)
        assert res.in_same_orbit
        assert not res.equivalent

    def test_symmetric(self):
        g = cycle_graph(6)
        for u in range(6):
            for v in range(6):
                assert (
                    sphere_equivalence(g, u, v).equivalent
                    == sphere_equivalence(g, v, u).equivalent
                )

    def test_horizon_above_safe_range_rejected(self):
        g = generate_family(FamilySpec("double_ray", {}, 4))
        x = g.labels.index(2)
        with pytest.raises(ValueError):
            sphere_equivalence(g, 0, x, horizon=4)

    def test_matches_direct_definition(self):
        # independent reimplementation: try every n0 explicitly over the
        # pair's horizon (max eccentricity; beyond it both spheres are
        # empty and agreement would be vacuous)
        for g in [cycle_graph(6), complete_graph(4), path_graph(5)]:
            n = g.vertex_count
            orbits = automorphism_group(g).orbits()
            for u in range(n):
                for v in range(n):
                    horizon = max(g.distances(u) + g.distances(v))
                    in_orbit = any(u in orbit and v in orbit for orbit in orbits)
                    expected = False
                    for n0 in range(0, horizon + 1):
                        if all(
                            sphere(g, u, m) == sphere(g, v, m)
                            for m in range(n0, horizon + 1)
                        ):
                            expected = True
                            break
                    expected = expected and in_orbit
                    got = sphere_equivalence(g, u, v).equivalent
                    assert got == expected, (u, v)

    @pytest.mark.parametrize(
        "spec",
        [FamilySpec("regular_tree", {"degree": 3}, 4), FamilySpec("grid", {"dimension": 2}, 4)],
        ids=["d3-R4", "grid2-R4"],
    )
    def test_classes_read_the_root_row_once(self, spec, monkeypatch):
        # the depth row goes to every pair of every orbit; the other
        # search is the tree test of the automorphism search
        g = generate_family(spec)
        searches = count_searches(monkeypatch)
        for call in (lambda: sphere_classes(g), lambda: sphere_equivalence(g, 1, 2)):
            searches.clear()
            call()
            assert len(searches) <= 2

    def test_classes_need_no_closure_on_families(self):
        for spec in [
            FamilySpec("double_ray", {}, 4),
            FamilySpec("ladder", {}, 3),
            FamilySpec("regular_tree", {"degree": 3}, 3),
        ]:
            classes = sphere_classes(generate_family(spec))
            assert classes.closure_added == (), spec.kind


class TestSphereClassesByOrbit:
    """Each orbit's spheres are built when the orbit is read and only its
    pairs are tested; the former all-pairs classes are the oracle."""

    FAMILIES = [
        FamilySpec(kind, params, radius)
        for radius in range(5)
        for kind, params in [
            ("regular_tree", {"degree": 3}),
            ("double_ray", {}),
            ("grid", {"dimension": 2}),
            ("ladder", {}),
            ("cartesian_product", {"left": DOUBLE_RAY, "right": DOUBLE_RAY}),
        ]
    ]

    def test_match_the_all_pairs_oracle(self, corpus):
        graphs = list(corpus.items())
        graphs += [(f"random{i}", g) for i, g in enumerate(seeded_random_graphs(150, 150))]
        graphs += [(f"{spec.kind} R{spec.radius}", generate_family(spec)) for spec in self.FAMILIES]
        answered = 0
        for name, g in graphs:
            for n0_max, horizon in itertools.product((None, 0, 1, 2), (None, 0, 1, 2, 3)):
                try:
                    want = sphere_classes_all_pairs(g, n0_max, horizon)
                except ValueError as refusal:
                    # a pair of two orbits had a shorter safe range
                    assert "exceeds the safe range" in str(refusal)
                    try:
                        sphere_classes(g, n0_max, horizon)
                        answered += 1
                    except ValueError as error:
                        assert "exceeds the safe range" in str(error), name
                    continue
                got = sphere_classes(g, n0_max, horizon)
                assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict()), (
                    name, n0_max, horizon,
                )
        assert answered > 0

    @pytest.mark.parametrize(
        "g, walks",
        [(path_graph(7), 6), (generate_family(FamilySpec("grid", {"dimension": 2}, 4)), 40)],
        ids=["P7", "grid2 R4"],
    )
    def test_one_walk_per_vertex_of_an_orbit_of_two_or_more(self, g, walks, monkeypatch):
        # the all-pairs classes walked from every vertex: 7 and 41
        walked = []
        walk = conditions._spheres
        monkeypatch.setattr(conditions, "_spheres", lambda g, v: walked.append(v) or walk(g, v))
        sphere_classes(g)
        assert len(walked) == walks
        orbits = automorphism_group(g).orbits()
        assert sorted(walked) == sorted(v for orbit in orbits if len(orbit) > 1 for v in orbit)

    def test_a_long_path_in_little_memory(self):
        # the all-pairs classes took 1.3 s and 103 MiB on P800
        g = path_graph(800)
        start = time.perf_counter()
        classes = sphere_classes(g)
        assert time.perf_counter() - start < 1.0
        assert classes.classes == tuple((v,) for v in range(800))
        tracemalloc.start()
        try:
            sphere_classes(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak

    def test_an_explicit_horizon_is_checked_on_pairs_in_one_orbit(self):
        # the path 0-1-2-3 with a leaf 4 on vertex 1: the orbits are {0, 4}
        # and single points, and only the pair 1, 2 of two orbits has a safe
        # range below 3
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
        assert sphere_classes(g, horizon=3).classes == ((0, 4), (1,), (2,), (3,))
        with pytest.raises(ValueError, match="safe range 2"):
            sphere_classes_all_pairs(g, horizon=3)
        with pytest.raises(ValueError, match="horizon 3 exceeds the safe range 2"):
            sphere_equivalence(g, 1, 2, horizon=3)
        ray = generate_family(FamilySpec("double_ray", {}, 4))
        with pytest.raises(ValueError, match="horizon 4 exceeds the safe range 3"):
            sphere_classes(ray, horizon=4)


def test_pair_queries_on_a_long_path_take_linear_time():
    # both read Aut's orbits; taking the least unvisited point once per orbit
    # was quadratic in the 10,000 orbits of P20000 (3.4 s and 14.4 s)
    g = path_graph(20_000)
    start = time.perf_counter()
    res = sphere_equivalence(g, 0, 19_999)
    assert (res.in_same_orbit, res.equivalent) == (True, False)
    assert suborbit_equivalence(g, 0, 19_999, 0) is False
    assert time.perf_counter() - start < 2.0


class TestGammaEquivalence:
    def test_reflexive(self):
        assert suborbit_equivalence(cycle_graph(6), 2, 2, 0)

    @pytest.mark.parametrize(
        "s,t", [(0, 6), (0, 99), (0, -1), (6, 0), (-1, 0), (True, 2), (1.0, 2), (0, True)]
    )
    def test_points_outside_the_group_rejected(self, s, t):
        with pytest.raises(ValueError, match="invalid point"):
            suborbit_equivalence(cycle_graph(6), s, t, 0)

    def test_full_budget_collapses_to_orbits(self, corpus):
        for name, g in corpus.items():
            n = g.vertex_count
            aut = automorphism_group(g)
            classes = suborbit_classes(g, n)
            assert classes.classes == aut.orbits(), name

    def test_c6_budget_zero(self):
        g = cycle_graph(6)
        assert not suborbit_equivalence(g, 0, 1, 0)
        # exhaustive cross-check against the definition
        aut = automorphism_group(g)
        subs = [frozenset(c) for c in suborbits(aut, 0)]
        counts = set()
        for phi in aut.elements():
            if phi(0) != 1:
                continue
            mismatch = sum(
                len(c) for c in subs if frozenset(phi(x) for x in c) != c
            )
            counts.add(mismatch)
        assert counts == {6}

    def test_a_stabiliser_breaking_orbit_stabiliser_raises(self, monkeypatch):
        # every search fixing a point reports half its order, so the order
        # times the orbit length misses |Aut| and the rows are refused
        search = autsearch.automorphism_group

        def halving(g, colours=None, fixing=()):
            group = search(g, colours, fixing)
            if not fixing:
                return group
            return PermGroup(group.degree, group.generators, order=group.order() // 2)

        monkeypatch.setattr(autsearch, "automorphism_group", halving)
        for call in (
            lambda: suborbit_equivalence(cycle_graph(4), 0, 1, 0),
            lambda: suborbit_classes(cycle_graph(4), 0),
            lambda: gamma_refinement_iterate(star_graph(3), 0),
        ):
            with pytest.raises(InvariantError, match="orbit-stabiliser"):
                call()

    def test_budget_monotone_refinement(self):
        g = cycle_graph(6)
        aut = automorphism_group(g)
        prev = None
        for budget in range(0, 7):
            classes = suborbit_classes(g, budget).classes
            if prev is not None:
                # classes can only merge as the budget grows
                for cls in prev:
                    assert any(set(cls) <= set(c) for c in classes), budget
            prev = classes

    def test_symmetric(self):
        g = complete_graph(4)
        for budget in (0, 2, 4):
            for s in range(4):
                for t in range(4):
                    assert suborbit_equivalence(g, s, t, budget) == suborbit_equivalence(
                        g, t, s, budget
                    )

    def test_matches_element_level_oracle(self):
        # independent route: stabiliser suborbits by filtering the element
        # list, mismatch count by direct set images, minimised over phi
        for g in [cycle_graph(6), complete_graph(4), path_graph(5), star_graph(3)]:
            n = g.vertex_count
            elems = list(automorphism_group(g).elements())
            for s in range(n):
                stab = [e for e in elems if e(s) == s]

                def orbit_of(x):
                    seen = {x}
                    frontier = [x]
                    while frontier:
                        p = frontier.pop()
                        for e in stab:
                            q = e(p)
                            if q not in seen:
                                seen.add(q)
                                frontier.append(q)
                    return frozenset(seen)

                suborbits = {orbit_of(x) for x in range(n)}
                for t in range(n):
                    counts = {
                        sum(
                            len(cls)
                            for cls in suborbits
                            if frozenset(phi(x) for x in cls) != cls
                        )
                        for phi in elems
                        if phi(s) == t
                    }
                    for budget in range(n + 1):
                        expected = bool(counts) and min(counts) <= budget
                        assert suborbit_equivalence(g, s, t, budget) == expected, (
                            s, t, budget,
                        )


def carried_rows(group, orbit):
    """The suborbit sizes and label rows of `orbit`, from its least point."""
    _, trans = transversal(orbit[0], group.generators, group.degree)
    return conditions._suborbit_rows(group, orbit[0], trans, orbit)


class TestSuborbitsByColouredSearch:
    """The suborbits of s are the orbits of Aut(G, c) fixing s; filtering
    the elements of Aut(G, c) is the oracle.  The rows carried along an
    orbit by its transversal label each point's own suborbits."""

    GRAPHS = [(f"random{i}", g) for i, g in enumerate(seeded_random_graphs(4242, 40))]

    def test_corpus_and_random_graphs(self, corpus):
        for name, g, colours in plain_and_coloured(list(corpus.items()) + self.GRAPHS, 4243):
            group = automorphism_group(g, colours)
            for s in range(g.vertex_count):
                got = automorphism_group(g, colours, fixing=(s,)).orbits()
                assert got == suborbits(group, s), (name, s)

    def test_carried_rows_equal_a_search_at_every_point(self, corpus):
        orbits = 0
        for name, g, colours in plain_and_coloured(list(corpus.items()) + self.GRAPHS, 4245):
            group = automorphism_group(g, colours)
            for orbit in group.orbits():
                sizes, rows = carried_rows(group, orbit)
                assert sorted(rows) == list(orbit), name
                for p in orbit:
                    labelled = {}
                    for v, i in enumerate(rows[p]):
                        labelled.setdefault(i, []).append(v)
                    search = automorphism_group(g, colours, fixing=(p,)).orbits()
                    assert tuple(sorted(map(tuple, labelled.values()))) == search, (name, p)
                    assert [len(labelled[i]) for i in range(len(sizes))] == sizes, (name, p)
                orbits += len(orbit) > 1
        assert orbits >= 100


def gamma_level_colourings(g, budget):
    """The colourings whose stabilisers are the levels of the gamma
    iteration: level i + 1 pairs each vertex's level-i colour with its class."""
    colours = (0,) * g.vertex_count
    out = [colours]
    for level in gamma_refinement_iterate(g, budget).levels[:-1]:
        colours = tuple(zip(colours, conditions._block_index(level.classes.classes, g.vertex_count)))
        out.append(colours)
    return out


class TestOnePhiPerPair:
    """The mismatch count is the same for every phi with phi(s) = t, so the
    rows carried along the orbit decide the pair; every such phi in the
    element list is the oracle."""

    def test_every_phi_gives_the_rows_count(self, corpus):
        graphs = list(corpus.items())
        graphs += [(f"random{i}", g) for i, g in enumerate(seeded_random_graphs(7, 40))]
        coloured_levels = 0
        for name, g in graphs:
            n = g.vertex_count
            for level, colours in enumerate(gamma_level_colourings(g, 0)):
                coloured_levels += level > 0
                group = automorphism_group(g, colours)
                subs = [automorphism_group(g, colours, fixing=(s,)).orbits() for s in range(n)]
                counts = {}
                for orbit in group.orbits():
                    sizes, rows = carried_rows(group, orbit)
                    for s, t in itertools.product(orbit, repeat=2):
                        counts[s, t] = conditions._mismatch_count(sizes, rows[s], rows[t])
                for phi in group.elements():
                    for s in range(n):
                        expected = sum(
                            len(cls) for cls in subs[s] if frozenset(map(phi, cls)) != frozenset(cls)
                        )
                        assert counts[s, phi(s)] == expected, (name, level, s, phi(s))
        assert coloured_levels >= 20

    def test_conditions_build_no_chain(self, corpus, monkeypatch):
        def refuse(group):
            raise RuntimeError("a stabiliser chain was built")

        monkeypatch.setattr(PermGroup, "_ensure_chain", refuse)
        for name, g in corpus.items():
            n = g.vertex_count
            assert suborbit_classes(g, n).classes == automorphism_group(g).orbits(), name
            gamma_refinement_iterate(g, 0)
            for t in range(n):
                suborbit_equivalence(g, 0, t, 0)

    def test_d3_ball_above_the_old_enumeration_cap(self):
        g = generate_family(FamilySpec("regular_tree", {"degree": 3}, 4))
        group = automorphism_group(g)
        assert group.order() == 12582912 > DEFAULT_ENUMERATION_CAP
        assert suborbit_classes(g, g.vertex_count).classes == group.orbits()

    def test_gamma_orders_above_the_old_enumeration_cap(self):
        for radius, order in ((4, 12582912), (5, 211106232532992)):
            g = generate_family(FamilySpec("regular_tree", {"degree": 3}, radius))
            assert gamma_refinement_iterate(g, 0).orders[0] == order


def recorded_fixing_searches(monkeypatch):
    """The `fixing` argument of each coloured search that conditions runs
    with a point fixed, in call order."""
    search = autsearch.automorphism_group
    fixed = []

    def recording(g, colours=None, fixing=()):
        if fixing:
            fixed.append(tuple(fixing))
        return search(g, colours, fixing)

    monkeypatch.setattr(autsearch, "automorphism_group", recording)
    return fixed


D3_R5 = generate_family(FamilySpec("regular_tree", {"degree": 3}, 5))


class TestOneSearchPerOrbit:
    """Each orbit's suborbits come from one search at its least point and
    are carried to the orbit's other points by its transversal."""

    @pytest.mark.parametrize(
        "g, searches",
        [
            (cycle_graph(8), 1),
            (hypercube(3), 1),
            (path_graph(7), 0),
            (D3_R5, 5),
            (generate_family(FamilySpec("grid", {"dimension": 2}, 12)), 18),
        ],
        ids=["C8", "Q3", "P7", "d3 R5", "grid2 R12"],
    )
    def test_classes_search_the_least_point_of_each_orbit(self, g, searches, monkeypatch):
        # an orbit as long as |G| has a trivial point stabiliser, so it needs no search
        group = automorphism_group(g)
        least = [(orbit[0],) for orbit in group.orbits() if 1 < len(orbit) < group.order()]
        fixed = recorded_fixing_searches(monkeypatch)
        suborbit_classes(g, 1)
        assert fixed == least
        assert len(fixed) == searches

    def test_a_pair_takes_one_search(self, monkeypatch):
        fixed = recorded_fixing_searches(monkeypatch)
        assert suborbit_equivalence(cycle_graph(8), 1, 7, 1) is False
        assert fixed == [(1,)]
        # a pair in two orbits needs no search
        assert suborbit_equivalence(path_graph(7), 0, 1, 7) is False
        assert fixed == [(1,)]

    def test_large_orbits_in_time(self):
        for g, bound in ((cycle_graph(200), 1.0), (hypercube(7), 0.5)):
            start = time.perf_counter()
            classes = suborbit_classes(g, 1)
            assert time.perf_counter() - start < bound, g.vertex_count
            assert classes.classes == tuple((v,) for v in range(g.vertex_count))
        start = time.perf_counter()
        report = gamma_refinement_iterate(D3_R5, 1)
        assert time.perf_counter() - start < 0.1
        assert report.orders[0] == 211106232532992

    def test_long_path_keeps_no_partition_per_point(self):
        # P300's 150 orbits of two points get their rows one orbit at a time;
        # keeping every point's partition peaked at 5.3 MiB (48 MiB on P800)
        g = path_graph(300)
        tracemalloc.start()
        try:
            classes = suborbit_classes(g, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # the reflection moves every point, and no stabiliser moves any
        assert classes.classes == tuple((v,) for v in range(300))


class TestClosureAdded:
    """Random 3- and 4-regular graphs on 8 vertices at budget 6 put pairs in
    one class by transitive closure alone; the element list is the oracle."""

    @pytest.mark.parametrize(
        "d, seed", [(3, s) for s in (0, 1, 2, 4, 5, 7, 9)] + [(4, s) for s in (2, 6, 7, 9)]
    )
    def test_matches_the_element_oracle(self, d, seed):
        networkx = pytest.importorskip("networkx")
        g = Graph.from_edges(8, list(networkx.random_regular_graph(d, 8, seed=seed).edges()))
        group = automorphism_group(g)
        classes = suborbit_classes(g, 6)
        assert classes.classes == suborbit_classes_by_elements(group, 6)
        within = {pair for cls in classes.classes for pair in itertools.combinations(cls, 2)}
        closure = within - set(suborbit_pairs_by_elements(group, 6))
        assert closure and sorted(classes.closure_added) == sorted(closure)
        line = f"  closure added pairs: {list(classes.closure_added)}"
        assert classes.to_text().splitlines()[-1] == line
        report = gamma_refinement_iterate(g, 6)
        levels, fixpoint = gamma_refinement_by_elements(g, 6)
        got = [(level.group_order, level.classes.classes) for level in report.levels]
        assert (got, report.fixpoint_reached) == (list(levels), fixpoint)

    def test_first_closure_pairs(self):
        networkx = pytest.importorskip("networkx")
        g = Graph.from_edges(8, list(networkx.random_regular_graph(3, 8, seed=0).edges()))
        assert suborbit_classes(g, 6).closure_added[:2] == ((0, 4), (1, 5))


class TestGammaIteration:
    def test_chain_is_weakly_decreasing_to_fixpoint(self, corpus):
        for name, g in corpus.items():
            report = gamma_refinement_iterate(g, budget=0, max_levels=8)
            orders = report.orders
            assert all(a >= b for a, b in zip(orders, orders[1:])), name
            assert report.fixpoint_reached, name

    def test_c6_reaches_trivial_group(self):
        report = gamma_refinement_iterate(cycle_graph(6), budget=0)
        assert report.orders[0] == 12
        assert report.orders[-1] == 1

    def test_first_step_is_intersection_of_setwise_stabilisers(self):
        for g in [cycle_graph(6), complete_graph(4), path_graph(5)]:
            aut = automorphism_group(g)
            classes = suborbit_classes(g, 0)
            expected = [
                e
                for e in aut.elements()
                if all(
                    frozenset(e(v) for v in cls) == frozenset(cls)
                    for cls in classes.classes
                )
            ]
            report = gamma_refinement_iterate(g, budget=0, max_levels=2)
            if len(report.orders) > 1:
                assert report.orders[1] == len(expected)
            else:
                # fixpoint at level 0 means the stabilisers keep everything
                assert len(expected) == report.orders[0]

    def test_matches_the_element_filter_oracle(self):
        graphs = [("C6", cycle_graph(6)), ("P5", path_graph(5)), ("K4", complete_graph(4))]
        graphs += [(f"random{i}", g) for i, g in enumerate(seeded_random_graphs(4244, 40))]
        strict = 0
        for name, g in graphs:
            for budget in range(3):
                report = gamma_refinement_iterate(g, budget)
                levels, fixpoint = gamma_refinement_by_elements(g, budget)
                got = [(level.group_order, level.classes.classes) for level in report.levels]
                assert (got, report.fixpoint_reached) == (list(levels), fixpoint), (name, budget)
                strict += len(report.levels) > 1
        # the coloured route is exercised past its first level, C6 at budget 0 among them
        assert gamma_refinement_iterate(cycle_graph(6), 0).orders == (12, 1)
        assert strict >= 40

    def test_nonzero_budgets_still_decrease_to_fixpoint(self):
        for budget in (1, 3, 6):
            report = gamma_refinement_iterate(cycle_graph(6), budget=budget)
            orders = report.orders
            assert all(a >= b for a, b in zip(orders, orders[1:]))
            assert report.fixpoint_reached
        # full budget: classes are orbits, stabilising them keeps everything
        full = gamma_refinement_iterate(cycle_graph(6), budget=6)
        assert full.orders == (12,)


def edgeless(n):
    return Graph.from_edges(n, [])


# (name, g1, g2): the products whose layer reports are checked against the
# element-by-element oracle
LAYER_PRODUCTS = [
    ("K2xK2", complete_graph(2), complete_graph(2)),
    ("P3xK2", path_graph(3), complete_graph(2)),
    ("K3xK3", complete_graph(3), complete_graph(3)),
    ("C4xC4", cycle_graph(4), cycle_graph(4)),
    ("P3xP3", path_graph(3), path_graph(3)),
    ("Q3xK3", hypercube(3), complete_graph(3)),
    ("K1xP3", complete_graph(1), path_graph(3)),
    ("P3xK1", path_graph(3), complete_graph(1)),
    ("K1xK1", complete_graph(1), complete_graph(1)),
    ("E3xP2", edgeless(3), path_graph(2)),
    ("P2xE3", path_graph(2), edgeless(3)),
    ("E0xP3", edgeless(0), path_graph(3)),
    ("P3xE0", path_graph(3), edgeless(0)),
]


def layer_cases(seed, per_product):
    """(id, g1, g2, colours): each product constant-coloured, then
    `per_product` seeded 2-colourings of it."""
    rnd = random.Random(seed)
    cases = []
    for name, g1, g2 in LAYER_PRODUCTS:
        n = g1.vertex_count * g2.vertex_count
        cases.append((f"{name} constant", g1, g2, (0,) * n))
        for i in range(per_product):
            colours = tuple(rnd.randrange(2) for _ in range(n))
            cases.append((f"{name} seeded {i}", g1, g2, colours))
    return cases


LAYER_CASES = layer_cases(26, 4)


class TestLayerFixing:
    @pytest.mark.parametrize(
        "g1, g2, colours", [case[1:] for case in LAYER_CASES], ids=[case[0] for case in LAYER_CASES]
    )
    def test_matches_the_element_oracle(self, g1, g2, colours):
        report = layer_fixing_report(g1, g2, Colouring(colours))
        oracle = layer_fixing_by_elements(g1, g2, Colouring(colours))
        assert (report.group_order, report.respecting_fraction) == oracle

    def test_constant_colouring_reports_layer_swaps(self):
        k2 = complete_graph(2)
        c = Colouring((0, 0, 0, 0))
        report = layer_fixing_report(k2, k2, c)
        assert report.group_order == 8
        assert report.respecting_fraction == Fraction(1, 2)
        assert (report.group_order, report.respecting_fraction) == layer_fixing_by_elements(k2, k2, c)

    def test_trivial_stabiliser_is_vacuous(self):
        p3 = path_graph(3)
        k2 = complete_graph(2)
        product = cartesian_product(p3, k2)
        # find a distinguishing colouring of the product
        rng = SeededRng(4)
        for i in range(50):
            c = random_colouring(product, 2, rng.stream(i))
            report = layer_fixing_report(p3, k2, c)
            if report.group_order == 1:
                assert report.respecting_fraction == 1
                return
        pytest.fail("no distinguishing colouring found")

    def test_seeded_ladder_fraction(self):
        rail = generate_family(FamilySpec("double_ray", {}, 3))
        k2 = complete_graph(2)
        product = cartesian_product(rail, k2)
        c = random_colouring(product, 2, SeededRng(99))
        report = layer_fixing_report(rail, k2, c)
        assert (report.group_order, report.respecting_fraction) == layer_fixing_by_elements(rail, k2, c)

    def test_layers_are_keyed_by_index_not_label(self):
        # two right-factor vertices with one label are still two layers
        p2 = path_graph(2)
        twins = Graph(p2.adjacency, labels=[7, 7])
        c = Colouring((0,) * 4)
        assert layer_fixing_report(p2, twins, c) == layer_fixing_report(p2, p2, c)
        assert layer_fixing_report(p2, twins, c).respecting_fraction == Fraction(1, 2)

    def test_second_search_runs_only_when_a_generator_mixes_layers(self, monkeypatch):
        # the ladder's generators all map layers onto layers, so its fraction
        # is 1 without the augmented search; K2xK2's coordinate swap mixes them
        calls = []

        def counting(g, colours):
            calls.append(g.vertex_count)
            return automorphism_group(g, colours)

        monkeypatch.setattr(conditions, "automorphism_group", counting)
        ladder = layer_fixing_report(path_graph(200), complete_graph(2), Colouring((0,) * 400))
        square = layer_fixing_report(complete_graph(2), complete_graph(2), Colouring((0,) * 4))
        assert (ladder.respecting_fraction, square.respecting_fraction) == (1, Fraction(1, 2))
        assert calls == [6]

    @pytest.mark.parametrize(
        "g1, g2, order, fraction",
        [
            (complete_graph(9), complete_graph(9), 263_363_788_800, Fraction(1, 2)),
            (hypercube(3), complete_graph(7), 241_920, Fraction(1)),
            (hypercube(3), complete_graph(8), 1_935_360, Fraction(1)),
        ],
        ids=["K9xK9", "Q3xK7", "Q3xK8"],
    )
    def test_large_groups_list_no_element(self, g1, g2, order, fraction):
        # K9xK9 and Q3xK8 have more elements than the enumeration cap that
        # listing them used to hit; two searches need no cap
        start = time.perf_counter()
        report = layer_fixing_report(g1, g2, Colouring((0,) * (g1.vertex_count * g2.vertex_count)))
        assert time.perf_counter() - start < 1.0
        assert (report.group_order, report.respecting_fraction) == (order, fraction)


class TestMatchProbability:
    def test_small_values(self):
        assert match_probability(1) == Fraction(1, 2)
        assert match_probability(2) == Fraction(3, 8)

    def test_closed_form(self):
        for n in range(1, 20):
            assert match_probability(n) == Fraction(math.comb(2 * n, n), 4**n)

    def test_matches_joint_enumeration(self):
        for n in range(1, 7):
            hits = sum(
                1
                for bits in range(4**n)
                if bin(bits & ((1 << n) - 1)).count("1")
                == bin(bits >> n).count("1")
            )
            assert match_probability(n) == Fraction(hits, 4**n)

    def test_at_most_half_and_decreasing(self):
        prev = Fraction(1)
        for n in range(1, 65):
            p = match_probability(n)
            assert p <= Fraction(1, 2)
            assert p < prev
            prev = p

    def test_degenerate_zero(self):
        with pytest.warns(UserWarning):
            assert match_probability(0) == 1


class TestGrowthBound:
    def test_reference_case(self):
        report = growth_bound(16, 1, 1, 0.25)
        assert report.log2_failure_bound == 0
        assert abs(report.product_lower - 0.3561) < 1e-4

    def test_identity_over_sweep(self):
        for n in (8, 12, 16, 20, 32):
            for j in (1, 2, 3):
                for c in (0.5, 1.0, 2.0, 8.0):
                    for eps in (0.1, 0.125, 0.25, 0.4):
                        r = growth_bound(n, j, c, eps)
                        assert (
                            abs(
                                r.log2_failure_bound
                                - (r.log2_pi_bound - r.motion_lower / 2)
                            )
                            < 1e-12
                        )

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            growth_bound(1, 1, 1, 0.25)
        with pytest.raises(ValueError):
            growth_bound(8, 8, 1, 0.25)
        with pytest.raises(ValueError):
            growth_bound(8, 1, 0, 0.25)
        with pytest.raises(ValueError):
            growth_bound(8, 1, 1, 0.5)

    def test_double_ray_classifier(self):
        g = generate_family(FamilySpec("double_ray", {}, 64))
        report = growth_classifier(growth_sequence(g, 0, 64), 0.25)
        assert report.c_fit == max(report.ratios)
        assert report.c_fit < 40  # linear growth stays well under exp(sqrt)
