import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_text, sphere
from symbreak.errors import CapExceededError, GraphFormatError
from symbreak.graphs import (
    PRODUCT_VERTEX_CAP,
    FamilySpec,
    Graph,
    cartesian_product,
    complete_graph,
    cycle_graph,
    generate_family,
    graph_from_json_dict,
    graph_to_json_dict,
    growth_sequence,
    parse_graph_text,
    path_graph,
    rooted_tree,
    star_graph,
    truncate_to_ball,
)


DOUBLE_RAY = {"kind": "double_ray", "params": {}}


def test_bfs_distances_on_path():
    g = path_graph(3)
    assert g.distances(0) == (0, 1, 2)


def test_bfs_distance_zero_at_source():
    g = cycle_graph(5)
    for v in range(5):
        assert g.distances(v)[v] == 0


def test_bfs_distances_on_c6():
    assert cycle_graph(6).distances(0) == (0, 1, 2, 3, 2, 1)


def test_bfs_symmetry():
    g = cycle_graph(7)
    for u in range(7):
        for v in range(7):
            assert g.distances(u)[v] == g.distances(v)[u]


def test_bfs_invalid_vertex():
    with pytest.raises(ValueError):
        path_graph(3).distances(5)


def test_bfs_unreachable_sentinel():
    g = Graph.from_edges(3, [(0, 1)])
    assert g.distances(0) == (0, 1, -1)


def test_sphere_zero_is_centre():
    g = cycle_graph(6)
    assert sphere(g, 2, 0) == (2,)


def test_sphere_c6():
    assert sphere(cycle_graph(6), 0, 3) == (3,)


def test_sphere_double_ray_by_label():
    g = generate_family(FamilySpec("double_ray", {}, 3))
    labels = {g.labels[v] for v in sphere(g, 0, 2)}
    assert labels == {-2, 2}


def test_spheres_partition_component():
    g = cycle_graph(8)
    seen = set()
    for n in range(max(g.distances(0)) + 1):
        s = set(sphere(g, 0, n))
        assert not (s & seen)
        seen |= s
    assert seen == set(range(8))


class TestCartesianProduct:
    def test_k1_factor_is_isomorphic(self):
        g = path_graph(4)
        p = cartesian_product(complete_graph(1), g)
        assert p.vertex_count == 4
        assert sorted(p.edges()) == sorted(g.edges())

    def test_k2_square_is_c4(self):
        p = cartesian_product(complete_graph(2), complete_graph(2))
        assert (p.vertex_count, p.edge_count) == (4, 4)
        assert all(p.degree(v) == 2 for v in range(4))

    def test_p3_k2_ladder(self):
        p = cartesian_product(path_graph(3), complete_graph(2))
        assert (p.vertex_count, p.edge_count) == (6, 7)

    def test_labels_are_pairs(self):
        p = cartesian_product(complete_graph(2), complete_graph(2))
        assert p.labels == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_vertex_cap_refused_before_building(self):
        # 8001 x 8001 = 64,016,001 vertices: the factors of two radius-4000 double rays
        big = Graph(((),) * 8001)
        with pytest.raises(CapExceededError, match="64016001 product vertices") as info:
            cartesian_product(big, big)
        assert (info.value.required, info.value.cap) == (64_016_001, PRODUCT_VERTEX_CAP)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_product_distance_adds(self, data):
        g1 = data.draw(st.sampled_from([path_graph(4), cycle_graph(5), complete_graph(3)]))
        g2 = data.draw(st.sampled_from([path_graph(3), cycle_graph(4)]))
        p = cartesian_product(g1, g2)
        n1, n2 = g1.vertex_count, g2.vertex_count
        a = data.draw(st.integers(0, n1 * n2 - 1))
        b = data.draw(st.integers(0, n1 * n2 - 1))
        a1, a2 = divmod(a, n2)
        b1, b2 = divmod(b, n2)
        assert p.distances(a)[b] == g1.distances(a1)[b1] + g2.distances(a2)[b2]


class TestFamilies:
    def test_regular_tree_r1_is_star(self):
        g = generate_family(FamilySpec("regular_tree", {"degree": 3}, 1))
        assert g.vertex_count == 4
        assert g.degree(0) == 3

    def test_double_ray_r3_is_path(self):
        g = generate_family(FamilySpec("double_ray", {}, 3))
        assert (g.vertex_count, g.edge_count) == (7, 6)
        assert max(g.degree(v) for v in range(7)) == 2

    def test_grid2_r1_plus_shape(self):
        g = generate_family(FamilySpec("grid", {"dimension": 2}, 1))
        assert g.vertex_count == 5
        assert g.degree(0) == 4

    def test_root_is_zero(self):
        for spec in [
            FamilySpec("regular_tree", {"degree": 3}, 2),
            FamilySpec("double_ray", {}, 4),
            FamilySpec("grid", {"dimension": 2}, 3),
            FamilySpec("ladder", {}, 4),
        ]:
            g = generate_family(spec)
            assert g.truncation.root == 0
            assert max(g.distances(0)) <= spec.radius

    def test_generation_is_deterministic(self):
        spec = FamilySpec("ladder", {}, 5)
        g1, g2 = generate_family(spec), generate_family(spec)
        assert g1.labels == g2.labels
        assert g1.adjacency == g2.adjacency

    @pytest.mark.parametrize(
        "spec_fn",
        [
            lambda r: FamilySpec("regular_tree", {"degree": 3}, r),
            lambda r: FamilySpec("regular_tree", {"degree": 4}, r),
            lambda r: FamilySpec("double_ray", {}, r),
            lambda r: FamilySpec("grid", {"dimension": 2}, r),
            lambda r: FamilySpec("grid", {"dimension": 3}, r),
            lambda r: FamilySpec("ladder", {}, r),
        ],
    )
    def test_truncations_are_nested(self, spec_fn):
        for r in range(0, 4):
            small = generate_family(spec_fn(r))
            big = generate_family(spec_fn(r + 1))
            n = small.vertex_count
            assert big.labels[:n] == small.labels
            big_edges = {e for e in big.edges() if e[0] < n and e[1] < n}
            assert big_edges == set(small.edges())

    def test_grid_ball_closed_forms(self):
        g2 = generate_family(FamilySpec("grid", {"dimension": 2}, 6))
        prof2 = growth_sequence(g2, 0, 6)
        for r in range(7):
            assert prof2.ball_sizes[r] == 2 * r * r + 2 * r + 1
        g3 = generate_family(FamilySpec("grid", {"dimension": 3}, 2))
        assert growth_sequence(g3, 0, 2).sphere_sizes == (1, 6, 18)

    def test_grid_matches_product_construction(self):
        # Z^2 ball two ways: the grid generator and double_ray x double_ray
        radius = 3
        grid = generate_family(FamilySpec("grid", {"dimension": 2}, radius))
        product = generate_family(
            FamilySpec(
                "cartesian_product",
                {
                    "left": {"kind": "double_ray", "params": {}},
                    "right": {"kind": "double_ray", "params": {}},
                },
                radius,
            )
        )
        assert grid.vertex_count == product.vertex_count
        by_label_grid = {grid.labels[v]: v for v in range(grid.vertex_count)}
        by_label_prod = {product.labels[v]: v for v in range(product.vertex_count)}
        assert set(by_label_grid) == set(by_label_prod)
        grid_edges = {
            frozenset((grid.labels[u], grid.labels[v])) for u, v in grid.edges()
        }
        prod_edges = {
            frozenset((product.labels[u], product.labels[v])) for u, v in product.edges()
        }
        assert grid_edges == prod_edges

    def test_cartesian_family(self):
        spec = FamilySpec(
            "cartesian_product",
            {"left": {"kind": "double_ray", "params": {}}, "right": {"kind": "double_ray", "params": {}}},
            2,
        )
        g = generate_family(spec)
        # ball of radius 2 in Z^2: 1 + 4 + 8 = 13 vertices
        assert g.vertex_count == 13

    def test_custom_family_inline(self):
        spec = FamilySpec(
            "custom",
            {"graph": {"vertex_count": 6, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]]}, "root": 2},
            1,
        )
        g = generate_family(spec)
        assert g.vertex_count == 3
        assert g.truncation.root == 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(GraphFormatError):
            generate_family(FamilySpec("moebius", {}, 2))

    def test_tree_degree_below_three_rejected(self):
        with pytest.raises(ValueError):
            generate_family(FamilySpec("regular_tree", {"degree": 2}, 2))

    @pytest.mark.parametrize(
        "kind, params, radius, field",
        [
            ("grid", {"dimension": 2}, None, "'radius'"),
            ("grid", [1], 2, "'params'"),
            ("grid", None, 2, "'params'"),
            ("regular_tree", {}, 2, "'degree'"),
            ("regular_tree", {"degree": None}, 2, "'degree'"),
            ("grid", {}, 2, "'dimension'"),
            ("cartesian_product", {"left": DOUBLE_RAY}, 2, "'right'"),
            ("cartesian_product", {"left": DOUBLE_RAY, "right": 5}, 2, "product factor"),
            ("cartesian_product", {"left": {**DOUBLE_RAY, "radius": 1.5}, "right": DOUBLE_RAY}, 2,
             "'radius'"),
            ("grid", {"dimension": 2}, 2.9, "'radius'"),
            ("grid", {"dimension": 2}, True, "'radius'"),
            ("grid", {"dimension": "2"}, 2, "'dimension'"),
            ("grid", {"dimension": 2.0}, 2, "'dimension'"),
            ("regular_tree", {"degree": False}, 2, "'degree'"),
            ("custom", {"graph": {"vertex_count": 2, "edges": [[0, 1]]}, "root": "1"}, 1, "'root'"),
        ],
    )
    def test_bad_spec_fields_rejected(self, kind, params, radius, field):
        # nothing is coerced: a bool, float, string or null is not an int
        with pytest.raises(GraphFormatError, match=field):
            generate_family(FamilySpec(kind, params, radius))
        data = {"kind": kind, "params": params, "radius": radius}
        with pytest.raises(GraphFormatError, match=field):
            generate_family(FamilySpec.from_json_dict(data))

    def test_spec_defaults_still_apply(self):
        assert FamilySpec.from_json_dict({"kind": "double_ray"}) == FamilySpec("double_ray", {}, 0)


class TestGrowth:
    def test_double_ray_spheres(self):
        g = generate_family(FamilySpec("double_ray", {}, 3))
        assert growth_sequence(g, 0, 3).sphere_sizes == (1, 2, 2, 2)

    def test_regular_tree_spheres(self):
        g = generate_family(FamilySpec("regular_tree", {"degree": 3}, 2))
        assert growth_sequence(g, 0, 2).sphere_sizes == (1, 3, 6)

    def test_radius_defaults_to_the_eccentricity(self):
        g = generate_family(FamilySpec("grid", {"dimension": 2}, 3))
        assert growth_sequence(g, 0) == growth_sequence(g, 0, 3)
        assert growth_sequence(path_graph(4), 1) == growth_sequence(path_graph(4), 1, 2)

    def test_ball_zero_is_root_only(self):
        g = cycle_graph(7)
        assert growth_sequence(g, 0, 0).ball_sizes == (1,)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="radius must be non-negative"):
            growth_sequence(cycle_graph(7), 0, -2)

    def test_balls_are_sphere_prefix_sums(self):
        g = generate_family(FamilySpec("grid", {"dimension": 2}, 4))
        prof = growth_sequence(g, 0, 4)
        acc = 0
        for b, s in zip(prof.ball_sizes, prof.sphere_sizes):
            acc += s
            assert b == acc

    def test_range_past_eccentricity_reports(self):
        g = path_graph(3)
        prof = growth_sequence(g, 0, 5)
        assert prof.eccentricity == 2
        assert prof.sphere_sizes == (1, 1, 1, 0, 0, 0)
        assert prof.ball_sizes[-1] == 3


class TestTruncateToBall:
    def test_relabels_root_to_zero(self):
        g = cycle_graph(8)
        t = truncate_to_ball(g, 5, 2)
        assert t.vertex_count == 5
        assert t.truncation.root == 0
        assert max(t.distances(0)) == 2

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="radius must be non-negative"):
            truncate_to_ball(path_graph(3), 0, -1)


class TestSerialization:
    def test_text_round_trip(self):
        g = cycle_graph(5)
        assert parse_graph_text(graph_text(g)).adjacency == g.adjacency

    def test_json_round_trip(self):
        g = generate_family(FamilySpec("double_ray", {}, 2))
        data = json.loads(json.dumps(graph_to_json_dict(g)))
        back = graph_from_json_dict(data)
        assert back.adjacency == g.adjacency
        assert back.labels == g.labels

    def test_text_error_carries_line_number(self):
        with pytest.raises(GraphFormatError) as info:
            parse_graph_text("3 2\n0 1\n1 x\n")
        assert info.value.line == 3

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(2, [(0, 0)])

    @pytest.mark.parametrize(
        "adjacency, edge", [([[1], []], "0-1"), ([[1, 2], [0], [1]], "0-2")]
    )
    def test_missing_reverse_edge_rejected(self, adjacency, edge):
        with pytest.raises(GraphFormatError, match=f"^edge {edge} missing its reverse$"):
            Graph(adjacency)

    def test_dense_graph_builds_in_time(self):
        # scanning each reverse row took 0.35-0.45 s on K400
        start = time.perf_counter()
        g = complete_graph(400)
        assert time.perf_counter() - start < 0.2
        assert g.edge_count == 400 * 399 // 2

    def test_family_spec_round_trip(self):
        spec = FamilySpec("grid", {"dimension": 2}, 4)
        assert FamilySpec.from_json_dict(spec.to_json_dict()) == spec

    def test_file_round_trip_both_formats(self, tmp_path):
        from symbreak.graphs import load_graph

        g = generate_family(FamilySpec("ladder", {}, 3))
        files = {"g.txt": graph_text(g), "g.json": json.dumps(graph_to_json_dict(g))}
        for name, text in files.items():
            path = tmp_path / name
            path.write_text(text)
            back = load_graph(str(path))
            assert back.adjacency == g.adjacency
            if name.endswith(".json"):
                assert back.labels == g.labels


def test_rooted_tree_shape():
    g = rooted_tree(6, 3)
    assert g.vertex_count == 1 + 6 + 36 + 216
    assert g.is_tree()
    assert growth_sequence(g, 0, 3).sphere_sizes == (1, 6, 36, 216)


@pytest.mark.parametrize(
    "g, connected",
    [
        (Graph([]), True),
        (Graph([[]]), True),
        (Graph.from_edges(4, [(1, 2), (2, 3)]), False),  # vertex 0 isolated
        (Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]), False),  # two paths
        (path_graph(5), True),
    ],
    ids=["empty", "K1", "isolated-0", "forest", "P5"],
)
def test_is_connected_caches_no_rows(g, connected):
    assert g.is_connected() is connected
    assert g.is_tree() is (connected and g.edge_count == g.vertex_count - 1)
    assert Graph.__slots__ == ("adjacency", "labels", "truncation")  # no row cache


def test_graph_is_immutable():
    g = path_graph(3)
    with pytest.raises(AttributeError):
        g.adjacency = ()


def test_star_is_complete_bipartite():
    g = star_graph(4)
    assert g.degree(0) == 4
    assert all(g.degree(v) == 1 for v in range(1, 5))
