import csv
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import graph_text
from symbreak.autsearch import automorphism_group
from symbreak.cli import build_parser, main
from symbreak.colourings import Colouring
from symbreak.conditions import (
    dsc_check,
    layer_fixing_report,
    sphere_classes,
    suborbit_classes,
)
from symbreak.graphs import (
    FamilySpec,
    Graph,
    cycle_graph,
    generate_family,
    path_graph,
)
from symbreak.jsonfields import json_value
from symbreak.suites import ALL_SUITES
from symbreak.topology import ExhaustionSequence, ball_decomposition


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text(graph_text(path_graph(4)))
    return str(path)


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text(graph_text(cycle_graph(4)))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


C6_FAMILY = json.dumps(
    {
        "kind": "custom",
        "params": {
            "graph": {
                "vertex_count": 6,
                "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]],
            }
        },
        "radius": 3,
    }
)


def test_motion_on_c6_family(capsys):
    data = run_json(capsys, "motion", "--family", C6_FAMILY)
    assert data["result"]["motion"] == 4
    witness = data["result"]["witness"]
    assert isinstance(witness, list) and len(witness) == 6


def test_prob_exact_p4(capsys, p4_file):
    data = run_json(capsys, "prob-exact", "--graph", p4_file)
    assert data["result"]["probability"] == "3/4"


def test_haar_c4(capsys, c4_file):
    data = run_json(capsys, "haar", "--graph", c4_file)
    assert data["result"]["expected_stabiliser_measure"] == "3/8"
    assert data["result"]["fubini_check"] == "pass"


def test_autgroup_with_colours(capsys, c4_file):
    data = run_json(capsys, "autgroup", "--graph", c4_file, "--colours", "0101")
    assert data["result"]["order"] == 4


def test_autgroup_with_three_colours(capsys, c4_file):
    data = run_json(capsys, "autgroup", "--graph", c4_file, "--colours", "0120")
    assert data["result"]["order"] == 1


def test_config_embedded_in_output(capsys, p4_file):
    data = run_json(capsys, "--seed", "9", "--trials", "50", "prob-mc", "--graph", p4_file)
    cfg = data["config"]
    assert cfg["command"] == "prob-mc"
    assert cfg["seed"] == 9
    assert cfg["trials"] == 50
    assert set(cfg["caps"]) == {"enumeration", "colour_exhaustion"}


def test_byte_identical_reruns(capsys, p4_file):
    _, out1 = run_cli(capsys, "--seed", "3", "--trials", "100", "prob-mc", "--graph", p4_file)
    _, out2 = run_cli(capsys, "--seed", "3", "--trials", "100", "prob-mc", "--graph", p4_file)
    assert out1 == out2


def test_exact_values_never_floats(capsys, c4_file):
    data = run_json(capsys, "rs-bound", "--graph", c4_file)
    assert isinstance(data["result"]["bound"], str)


def test_metric_subcommand(capsys, c4_file):
    data = run_json(
        capsys,
        "metric",
        "--graph",
        c4_file,
        "--perm-a",
        "[0, 3, 2, 1]",
        "--perm-b",
        "[0, 1, 2, 3]",
    )
    assert data["result"]["agreement_level"] == 1
    assert data["result"]["distance"] == "1/2"


def test_balls_subcommand(capsys, c4_file):
    data = run_json(capsys, "balls", "--graph", c4_file, "--level", "1")
    assert len(data["result"]["balls"]) == 4


def test_balls_above_the_enumeration_cap_lists_representatives(capsys, c4_file):
    data = run_json(capsys, "--enumeration-cap", "7", "balls", "--graph", c4_file, "--level", "1")
    assert [b["size"] for b in data["result"]["balls"]] == [2, 2, 2, 2]
    assert all(b["members"] is None for b in data["result"]["balls"])
    # level 2 fixes C4's closed neighbourhood of 0, so all 8 elements are balls
    assert main(["--enumeration-cap", "7", "balls", "--graph", c4_file, "--level", "2"]) == 3
    assert "8 balls exceed the cap 7" in capsys.readouterr().err


def test_dsc_csv_output(capsys):
    spec = json.dumps({"kind": "double_ray", "params": {}, "radius": 4})
    code, out = run_cli(capsys, "--format", "csv", "dsc", "--family", spec)
    assert code == 0
    assert "x,y,first_separating_n" in out


def test_distinguish_subcommand(capsys, p4_file):
    data = run_json(capsys, "distinguish", "--graph", p4_file, "--colours", "0010")
    assert data["result"]["distinguishing"] is True


def test_treeauto_subcommand(capsys, tmp_path):
    star = tmp_path / "star.txt"
    star.write_text("4 3\n0 1\n0 2\n0 3\n")
    data = run_json(capsys, "treeauto", "--graph", str(star), "--colours", "0001")
    assert data["result"]["found"] is True
    assert data["result"]["automorphism"] == [0, 2, 1, 3]


def test_gamma_subcommand(capsys, c4_file):
    data = run_json(capsys, "gamma", "--graph", c4_file, "--pair", "0", "1", "--budget", "4")
    assert data["result"]["equivalent"] is True


def test_gamma_runs_above_the_enumeration_cap(capsys, tmp_path):
    # suborbits and gamma enumerate no elements, so the cap does not apply
    # to them; d3 R4 has |Aut| = 12,582,912 > 10^6
    spec = json.dumps({"kind": "regular_tree", "params": {"degree": 3}, "radius": 4})
    data = run_json(capsys, "gamma", "--family", spec, "--budget", "46")
    tree = generate_family(FamilySpec.from_json_dict(json.loads(spec)))
    assert data["result"]["classes"] == json_value(automorphism_group(tree).orbits())
    c6 = tmp_path / "c6.txt"
    c6.write_text(graph_text(cycle_graph(6)))
    data = run_json(capsys, "--enumeration-cap", "5", "gamma", "--graph", str(c6))
    assert data["config"]["caps"]["enumeration"] == 5
    assert data["result"] == json_value(suborbit_classes(cycle_graph(6), 0))


def test_product_subcommand(capsys, tmp_path):
    k2 = tmp_path / "k2.txt"
    k2.write_text("2 1\n0 1\n")
    data = run_json(capsys, "product", "--left", str(k2), "--right", str(k2))
    assert data["result"]["vertex_count"] == 4
    assert len(data["result"]["edges"]) == 4


def test_growth_bound_mode(capsys):
    data = run_json(capsys, "growth", "--bound", "16", "1", "1", "0.25")
    assert data["result"]["log2_failure_bound"] == 0


def test_growth_searches_once(capsys, tmp_path, monkeypatch):
    """The profile, the echoed radius and the classifier share one distance row."""
    c6 = tmp_path / "c6.txt"
    c6.write_text(graph_text(cycle_graph(6)))
    sources = []
    search = Graph.distances
    monkeypatch.setattr(Graph, "distances", lambda g, v: sources.append(v) or search(g, v))
    data = run_json(capsys, "growth", "--graph", str(c6), "--epsilon", "0.25")
    assert sources == [0]
    assert data["config"]["options"]["radius"] == 3
    assert list(data["result"]["classifier"]) == ["eps", "c_fit", "ball_sizes", "ratios"]


def test_spheres_pair(capsys):
    spec = json.dumps({"kind": "ladder", "params": {}, "radius": 3})
    data = run_json(capsys, "spheres", "--family", spec, "--pair", "0", "1")
    assert data["result"]["equivalent"] is False


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_malformed_graph_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 x\n")
    code = main(["motion", "--graph", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("3 2\n0 1\n1 1\n", "self-loop at vertex 1"),
        ("3 2\n1 0\n0 1\n", "duplicate edge 0-1"),
        ("3 1\n0 3\n", "edge (0, 3) out of range"),
        ("-1 0\n", "vertex count -1 is negative"),
    ],
    ids=["self-loop", "duplicate", "out-of-range", "negative-count"],
)
def test_bad_edge_exits_2_with_one_error_line(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert main(["motion", "--graph", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "edges, message",
    [
        ([[0, 1.5]], "edge [0, 1.5] is not a pair of integers"),
        ([[0, "1"]], 'edge [0, "1"] is not a pair of integers'),
        ([[0, 1, 2]], "edge [0, 1, 2] is not a pair of integers"),
        ([[0, True]], "edge [0, true] is not a pair of integers"),
    ],
    ids=["float", "string", "triple", "bool"],
)
def test_bad_json_edge_exits_2_with_one_error_line(tmp_path, capsys, edges, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertex_count": 3, "edges": edges}))
    assert main(["motion", "--graph", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"vertex_count": 2.7}, "graph JSON 'vertex_count' must be an integer"),
        ({"vertex_count": -1}, "vertex count -1 is negative"),
        ({"vertex_count": True}, "graph JSON 'vertex_count' must be an integer"),
        ({"vertex_count": "3"}, "graph JSON 'vertex_count' must be an integer"),
        ({"labels": 5}, "graph JSON 'labels' must be a list"),
    ],
    ids=["float-count", "negative-count", "bool-count", "string-count", "int-labels"],
)
def test_bad_json_graph_field_exits_2_with_one_error_line(tmp_path, capsys, fields, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertex_count": 3, "edges": [], **fields}))
    assert main(["autgroup", "--graph", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gamma", "--graph", "C4", "--pair", "0", "99"], "invalid point 99"),
        (["gamma", "--graph", "C4", "--pair", "99", "0"], "invalid point 99"),
        (["spheres", "--graph", "C4", "--pair", "0", "99"], "invalid vertex index 99"),
        (["prob-exact", "--graph", "C4", "--k", "0"], "at least 2 colours required"),
        (["prob-exact", "--graph", "C4", "--k", "-1"], "at least 2 colours required"),
        (["prob-mc", "--graph", "C4", "--k", "1"], "at least 2 colours required"),
        (["growth", "--graph", "C4", "--radius", "-2"], "radius must be non-negative"),
        (["growth", "--graph", "C4", "--radius", "-2", "--epsilon", "0.2"],
         "radius must be non-negative"),
        (["dsc", "--graph", "C4", "--radius", "-1"], "radius must be non-negative"),
        (["gamma", "--graph", "C4", "--budget", "-1"], "budget must be non-negative"),
        (["gamma", "--graph", "C4", "--iterate", "0"], "max_levels must be at least 1"),
        (["spheres", "--graph", "C4", "--horizon", "-1"], "horizon must be non-negative"),
        (["spheres", "--graph", "C4", "--n0-max", "-3"], "n0_max must be non-negative"),
        (["spheres", "--graph", "C4", "--pair", "0", "1", "--horizon", "-1"],
         "horizon must be non-negative"),
        (["growth", "--graph", "C4", "--epsilon", "0.5"], "eps must lie strictly between 0 and 1/2"),
        (["metric", "--graph", "C4", "--perm-a", "[true, false, 2, 3]", "--perm-b", "[0, 1, 2, 3]"],
         "not a permutation of 0..3"),
    ],
)
def test_out_of_range_inputs_exit_2(capsys, c4_file, argv, message):
    code = main([c4_file if a == "C4" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


def test_colouring_longer_than_an_empty_graph_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("0 0\n")
    assert run_json(capsys, "autgroup", "--graph", str(empty))["result"]["order"] == 1
    code = main(["autgroup", "--graph", str(empty), "--colours", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: vertex colouring must be total")


@pytest.mark.parametrize("argv", [
    ["autgroup", "--graph", "C4"],
    ["distinguish", "--graph", "C4"],
    ["layers", "--left", "C4", "--right", "C4"],
])
def test_empty_colours_are_an_explicit_colouring(capsys, c4_file, argv):
    # "" is a colouring of no vertex, not a request for a random one
    code = main([c4_file if a == "C4" else a for a in argv] + ["--colours", ""])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_empty_colours_on_the_empty_graph(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("0 0\n")
    data = run_json(capsys, "distinguish", "--graph", str(empty), "--colours", "")
    assert data["config"]["options"]["colours"] == ""
    assert data["result"]["distinguishing"] is True
    data = run_json(capsys, "layers", "--left", str(empty), "--right", str(empty), "--colours", "")
    assert data["config"]["options"]["colours"] == ""


def test_layers_counts_each_right_vertex_as_a_layer(tmp_path, capsys):
    # a right factor whose two vertices share a label still has two layers
    p2 = tmp_path / "p2.txt"
    p2.write_text(graph_text(path_graph(2)))
    twins = tmp_path / "twins.json"
    twins.write_text(json.dumps({"vertex_count": 2, "edges": [[0, 1]], "labels": [7, 7]}))
    runs = [
        run_json(capsys, "layers", "--left", str(p2), "--right", str(right), "--colours", "0000")
        for right in (p2, twins)
    ]
    assert [run["result"] for run in runs] == [{"group_order": 8, "respecting_fraction": "1/2"}] * 2


def test_only_json_output_encodes_the_report(capsys, monkeypatch):
    import symbreak.cli as cli

    encoded = []

    def recording_json_value(obj):
        encoded.append(type(obj).__name__)
        return json_value(obj)

    monkeypatch.setattr(cli, "json_value", recording_json_value)
    spec = json.dumps({"kind": "double_ray", "params": {}, "radius": 4})
    for fmt in ("csv", "text"):
        assert main(["--format", fmt, "dsc", "--family", spec]) == 0
    assert "DscReport" not in encoded
    assert main(["--format", "json", "dsc", "--family", spec]) == 0
    assert "DscReport" in encoded
    capsys.readouterr()


def test_cap_exceeded_exits_3(capsys, c4_file):
    assert main(["--colour-cap", "4", "prob-exact", "--graph", c4_file]) == 3


def test_haar_honours_the_colour_cap(capsys, c4_file):
    assert main(["--colour-cap", "15", "haar", "--graph", c4_file]) == 3
    assert capsys.readouterr().err == "error: 16 colourings exceed cap 15\n"
    assert run_json(capsys, "--colour-cap", "16", "haar", "--graph", c4_file)["result"][
        "expected_stabiliser_measure"
    ] == "3/8"


def test_exact_count_refuses_2_to_the_53_colourings(capsys, tmp_path):
    p53 = tmp_path / "p53.txt"
    p53.write_text(graph_text(path_graph(53)))
    assert main(["--colour-cap", str(2**60), "prob-exact", "--graph", str(p53)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: {2**53} colourings: float64 indices are exact only below 2^53\n"


@pytest.mark.parametrize("cmd", ["prob-exact", "haar"])
def test_an_allocation_beyond_the_machine_exits_3(capsys, tmp_path, cmd):
    # 2^52 colourings pass both checks; numpy then asks for 4 PiB (prob-exact)
    # or 32 PiB (haar), beyond any address space, so it fails at once
    p52 = tmp_path / "p52.txt"
    p52.write_text(graph_text(path_graph(52)))
    assert main(["--colour-cap", str(2**52), cmd, "--graph", str(p52)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


def test_memory_error_without_a_message_exits_3(capsys, c4_file, monkeypatch):
    import symbreak.cli as cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "distinguishing_probability_exact", exhausted)
    assert main(["prob-exact", "--graph", c4_file]) == 3
    assert capsys.readouterr().err == "error: out of memory\n"


def test_missing_graph_exits_2(capsys):
    assert main(["motion"]) == 2


def test_config_file_supplies_defaults(capsys, tmp_path, p4_file):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 17, "trials": 64}))
    data = run_json(capsys, "--config", str(cfg), "prob-mc", "--graph", p4_file)
    assert data["config"]["seed"] == 17
    assert data["config"]["trials"] == 64


def test_environment_caps_are_not_read(capsys, c4_file, monkeypatch):
    monkeypatch.setenv("SYMBREAK_COLOUR_CAP", "4")
    monkeypatch.setenv("SYMBREAK_ENUMERATION_CAP", "abc")
    data = run_json(capsys, "prob-exact", "--graph", c4_file)
    assert data["config"]["caps"] == {"enumeration": 10**6, "colour_exhaustion": 2**20}


BOUND_ARGV = ["growth", "--bound", "16", "1", "1", "0.25"]


def run_config(capsys, tmp_path, config, *argv):
    """The config header of a run given a `--config` file (None: no file)."""
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv = ("--config", str(path), *argv)
    return run_json(capsys, *argv, *BOUND_ARGV)["config"]


def test_run_option_precedence(capsys, tmp_path):
    """A flag beats the config file, which beats the built-in default."""
    cap = lambda cfg: cfg["caps"]["enumeration"]
    assert cap(run_config(capsys, tmp_path, None)) == 10**6
    assert cap(run_config(capsys, tmp_path, {"caps": {"enumeration": 8}})) == 8
    for argv in (("--enumeration-cap", "9"), ("--enumeration-cap=9",)):
        assert cap(run_config(capsys, tmp_path, {"caps": {"enumeration": 8}}, *argv)) == 9
    cfg = run_config(capsys, tmp_path, {"seed": 17, "trials": 64, "format": "json"}, "--seed", "3")
    assert (cfg["seed"], cfg["trials"], cfg["output"]["format"]) == (3, 64, "json")
    cfg = run_config(capsys, tmp_path, {"seed": None, "caps": {"colour_exhaustion": 5}})
    assert (cfg["seed"], cfg["caps"]["colour_exhaustion"]) == (0, 5)


def test_overridden_environment_cap_is_not_read(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SYMBREAK_ENUMERATION_CAP", "abc")
    assert run_config(capsys, tmp_path, {"caps": {"enumeration": 8}})["caps"]["enumeration"] == 8
    assert run_config(capsys, tmp_path, None, "--enumeration-cap", "9")["caps"]["enumeration"] == 9


@pytest.mark.parametrize(
    "config",
    [
        {"seed": "x"},
        {"format": "xml"},
        {"trials": 5.5},
        {"seed": True},
        {"caps": {"colour_exhaustion": "big"}},
        {"caps": [1]},
        {"output": {"path": "x"}},
        [17],
    ],
)
def test_invalid_config_values_exit_2(capsys, tmp_path, p4_file, config):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code = main(["--config", str(path), "distinguish", "--graph", p4_file])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err and captured.err.strip()


def test_output_to_file(tmp_path, capsys, p4_file):
    out = tmp_path / "report.json"
    code, _ = run_cli(capsys, "--output", str(out), "prob-exact", "--graph", p4_file)
    assert code == 0
    assert json.loads(out.read_text())["result"]["probability"] == "3/4"


@pytest.mark.parametrize("target", [".", "missing/report.json"], ids=["directory", "no-parent"])
def test_unwritable_output_exits_2(tmp_path, capsys, p4_file, target):
    code = main(["--output", str(tmp_path / target), "motion", "--graph", p4_file])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_batch_mode(tmp_path, capsys):
    code, _ = run_cli(
        capsys, "batch", "--report-dir", str(tmp_path), "--suites", "match_probability"
    )
    assert code == 0
    text = (tmp_path / "match_probability.csv").read_text()
    assert text.splitlines()[0] == "n,probability,at_most_half"


SUITE_HEADERS = {
    "russel_sundaram": "graph,order,motion,bound,exact_failure,within_bound",
    "stabiliser_measure": "graph,colour_first,group_first,fubini_check",
    "match_probability": "n,probability,at_most_half",
    "dsc_families": "family,radius,checked_pairs,violations,at_horizon",
    "growth_identity": "n,j,c,eps,log2_pi,motion_lower,log2_failure,identity_residual",
    "truncations": "radius,vertices,order,successes,trials,estimate,stderr",
}


@pytest.fixture(scope="module")
def batch_reports(tmp_path_factory):
    """Every suite through `symbreak batch` once, with its default (all) suites."""
    report_dir = tmp_path_factory.mktemp("reports")
    assert main(["batch", "--report-dir", str(report_dir)]) == 0
    return report_dir


@pytest.mark.parametrize("name", sorted(ALL_SUITES))
def test_batch_writes_every_suite_with_its_header(batch_reports, name):
    lines = (batch_reports / f"{name}.csv").read_text().splitlines()
    assert lines[0] == SUITE_HEADERS[name]
    assert len(lines) > 1


def test_truncations_suite_matches_the_double_ray_sweep(batch_reports):
    with open(batch_reports / "truncations.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["radius"]) for r in rows] == list(range(1, 9))
    assert [int(r["vertices"]) for r in rows] == [2 * r + 1 for r in range(1, 9)]
    assert {r["order"] for r in rows} == {"2"}
    assert {r["trials"] for r in rows} == {"2000"}
    assert [f"{float(r['estimate']):.4f}" for r in rows] == [
        "0.4915", "0.7430", "0.8785", "0.9380", "0.9605", "0.9835", "0.9920", "0.9975",
    ]
    assert all(int(r["successes"]) == 2000 * float(r["estimate"]) for r in rows)


def test_unknown_suite_exits_2_before_any_suite_runs(tmp_path, capsys):
    code = main(
        ["batch", "--report-dir", str(tmp_path), "--suites", "match_probability", "bogus"]
    )
    assert code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


TREE_SPEC = {"kind": "regular_tree", "radius": 2}
DOUBLE_RAY_SPEC = {"kind": "double_ray"}


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"kind": "double_ray", "radius": None}, "family spec 'radius' must be an integer, not null"),
        ({"kind": "double_ray", "params": [1]}, "family spec 'params' must be an object"),
        (TREE_SPEC, "regular_tree family spec needs the param 'degree'"),
        ({**TREE_SPEC, "params": {"degree": None}}, "family spec 'degree' must be an integer, not null"),
        ({"kind": "grid", "radius": 2}, "grid family spec needs the param 'dimension'"),
        ({"kind": "cartesian_product", "params": {"left": DOUBLE_RAY_SPEC}},
         "cartesian_product family spec needs the param 'right'"),
        ({"kind": "double_ray", "radius": 2.9}, "family spec 'radius' must be an integer, not 2.9"),
        ({"kind": "double_ray", "radius": True}, "family spec 'radius' must be an integer, not true"),
        ({"kind": "grid", "params": {"dimension": "2"}, "radius": 2},
         "family spec 'dimension' must be an integer, not \"2\""),
    ],
    ids=[
        "radius-null", "params-list", "degree-missing", "degree-null", "dimension-missing",
        "right-missing", "radius-float", "radius-bool", "dimension-string",
    ],
)
def test_bad_family_spec_fields_exit_2(capsys, spec, message):
    code = main(["growth", "--family", json.dumps(spec)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_product_vertex_cap_exits_3(capsys):
    # two radius-4000 double rays: 8001^2 = 64,016,001 vertices, refused before building
    ray = json.dumps({"kind": "double_ray", "radius": 4000})
    assert main(["product", "--left", ray, "--right", ray]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 8001 x 8001 = 64016001 product vertices exceed the cap 50000000\n"


def test_dsc_pair_cap_exits_3(capsys):
    spec = json.dumps({"kind": "regular_tree", "params": {"degree": 3}, "radius": 12})
    assert main(["dsc", "--family", spec]) == 3
    assert "dsc pair cap" in capsys.readouterr().err


def text_body(capsys, *argv):
    """The report body of a `--format text` run, below its config line."""
    code, out = run_cli(capsys, "--format", "text", *argv)
    assert code == 0, out
    config, _, body = out.partition("\n")
    assert config.startswith("# {")
    return body.rstrip("\n")


LADDER_4 = json.dumps({"kind": "ladder", "params": {}, "radius": 4})


def test_text_format_uses_the_reports_own_text(capsys, c4_file, tmp_path):
    c4 = cycle_graph(4)
    ladder = generate_family(FamilySpec.from_json_dict(json.loads(LADDER_4)))
    balls = ball_decomposition(automorphism_group(c4), ExhaustionSequence.balls(c4, 0), 1)
    assert text_body(capsys, "balls", "--graph", c4_file, "--level", "1") == balls.to_text()
    assert text_body(capsys, "dsc", "--family", LADDER_4) == dsc_check(ladder).to_text()
    assert text_body(capsys, "spheres", "--graph", c4_file) == sphere_classes(c4).to_text()
    gamma = suborbit_classes(c4, 1)
    assert text_body(capsys, "gamma", "--graph", c4_file, "--budget", "1") == gamma.to_text()
    p2 = tmp_path / "p2.txt"
    p2.write_text(graph_text(path_graph(2)))
    layers = layer_fixing_report(path_graph(2), path_graph(2), Colouring((0, 1, 1, 0), 2))
    body = text_body(capsys, "layers", "--left", str(p2), "--right", str(p2), "--colours", "0110")
    assert body == layers.to_text()


def test_text_format_falls_back_to_json(capsys, c4_file):
    body = text_body(capsys, "motion", "--graph", c4_file)
    assert json.loads(body) == run_json(capsys, "motion", "--graph", c4_file)["result"]


def test_csv_format_needs_a_report_with_csv(capsys, c4_file):
    assert main(["--format", "csv", "motion", "--graph", c4_file]) == 2
    assert "csv output not supported for motion" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["autgroup", "--graph", "C4", "--colours", "010"],
        ["distinguish", "--graph", "C4", "--colours", "01010"],
        ["treeauto", "--graph", "P4", "--colours", "01"],
        ["layers", "--left", "P4", "--right", "P4", "--colours", "0101"],
    ],
)
def test_wrong_length_colours_exit_2(capsys, c4_file, p4_file, argv):
    files = {"C4": c4_file, "P4": p4_file}
    code = main([files.get(a, a) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: vertex colouring must be total") and "Traceback" not in err


def test_readme_result_table_lists_the_usage_subcommands():
    usage = build_parser().format_usage()
    listed = re.search(r"\{([\w,-]+)\}\s+\.\.\.", usage).group(1).split(",")
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = re.findall(r"^\| `([\w-]+)` *\|", readme, flags=re.MULTILINE)
    assert table == listed


def readme_flat_field_rows():
    """README result rows that are a plain list of backticked fields.

    Parenthesised notes are dropped first; a row with any other words
    (`spheres`, `gamma`, `product`, `growth`) is not flat.
    """
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {}
    for name, cell in re.findall(r"^\| `([\w-]+)` *\| (.*?) *\|$", readme, flags=re.MULTILINE):
        unnoted = re.sub(r"\([^()]*\)", "", cell)
        items = [re.fullmatch(r"\s*`(\w+)`\s*", item) for item in unnoted.split(",")]
        if all(items):
            rows[name] = [m.group(1) for m in items]
    return rows


def test_readme_flat_result_rows_match_the_printed_keys(capsys, c4_file, p4_file, tmp_path):
    p2 = tmp_path / "p2.txt"
    p2.write_text(graph_text(path_graph(2)))
    runs = {
        "autgroup": ["autgroup", "--graph", c4_file],
        "motion": ["motion", "--graph", c4_file],
        "distinguish": ["distinguish", "--graph", c4_file, "--colours", "0111"],
        "prob-exact": ["prob-exact", "--graph", c4_file],
        "prob-mc": ["--trials", "20", "prob-mc", "--graph", c4_file],
        "rs-bound": ["rs-bound", "--graph", p4_file],
        "metric": ["metric", "--graph", c4_file, "--perm-a", "[1,2,3,0]", "--perm-b", "[0,1,2,3]"],
        "balls": ["balls", "--graph", c4_file, "--level", "1"],
        "haar": ["haar", "--graph", c4_file],
        "dsc": ["dsc", "--graph", c4_file],
        "layers": ["layers", "--left", str(p2), "--right", str(p2), "--colours", "0110"],
        "treeauto": ["treeauto", "--graph", p4_file, "--colours", "0110"],
        "batch": ["batch", "--report-dir", str(tmp_path), "--suites", "match_probability"],
    }
    rows = readme_flat_field_rows()
    assert sorted(rows) == sorted(runs)
    for name, fields in rows.items():
        assert list(run_json(capsys, *runs[name])["result"]) == fields, name


# subprocesses import the package from this checkout's src, whatever the shell's PYTHONPATH
SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "symbreak", "growth", "--bound", "16", "1", "1", "0.25"],
        capture_output=True,
        text=True,
        env=SRC_ENV,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["motion_lower"] == 32


#: Modules whose import an array-free run must not pay for: numpy, and
#: the standard library's dataclasses (which loads inspect) and typing.
START_UP_MODULES = ("numpy", "dataclasses", "inspect", "typing")

# `python -S` runs no site `.pth` file that could import those first, so
# numpy's own directory goes on the path instead of the site directories.
FRESH_ENV = {
    **SRC_ENV,
    "PYTHONPATH": os.pathsep.join(
        [SRC_ENV["PYTHONPATH"], str(Path(importlib.util.find_spec("numpy").origin).parents[1])]
    ),
}


def cli_in_fresh_process(*argvs, modules=START_UP_MODULES):
    """Run `main` on each argv in a new interpreter, started with `-S`.

    Returns (stdout of the calls, exit codes, the `modules` loaded).
    """
    script = (
        "import json, sys, symbreak, symbreak.cli\n"
        f"codes = [symbreak.cli.main(argv) for argv in {list(argvs)!r}]\n"
        f"loaded = [name for name in {tuple(modules)!r} if name in sys.modules]\n"
        "print(json.dumps({'codes': codes, 'loaded': loaded}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=FRESH_ENV
    )
    assert proc.returncode == 0, proc.stderr
    out, _, status = proc.stdout.rstrip("\n").rpartition("\n")
    status = json.loads(status)
    return out, status["codes"], status["loaded"]


def test_array_free_subcommands_do_not_import_numpy():
    ladder = json.dumps({"kind": "ladder", "params": {}, "radius": 3})
    tree = json.dumps({"kind": "regular_tree", "params": {"degree": 3}, "radius": 2})
    _, codes, loaded = cli_in_fresh_process(
        ["--help"],
        ["autgroup", "--family", ladder],
        ["motion", "--family", ladder],
        ["dsc", "--family", ladder],
        ["treeauto", "--family", tree, "--colours", "0110100101"],
        ["growth", "--bound", "16", "1", "1", "0.25"],
    )
    assert codes == [0] * 6
    assert loaded == []


def test_monte_carlo_imports_numpy_on_first_use():
    out, codes, loaded = cli_in_fresh_process(
        ["--seed", "11", "--trials", "500", "prob-mc", "--family", C6_FAMILY, "--k", "3"]
    )
    assert codes == [0]
    assert "numpy" in loaded
    assert json.loads(out)["result"] == {
        "successes": 297,
        "trials": 500,
        "estimate": 0.594,
        "stderr": 0.021961967125009547,
    }


def test_estimators_do_not_import_numpy_ma(tmp_path):
    # `np.unique` on numbers loads numpy.ma, 12-15 ms of a process's start-up
    _, codes, loaded = cli_in_fresh_process(
        ["prob-exact", "--family", C6_FAMILY],
        ["prob-mc", "--family", C6_FAMILY],
        ["haar", "--family", C6_FAMILY],
        ["batch", "--report-dir", str(tmp_path)],
        modules=("numpy", "numpy.ma"),
    )
    assert codes == [0] * 4
    assert loaded == ["numpy"]


def test_closed_stdout_exits_0_quietly():
    """A reader that stops early (`| head -1`) closes the pipe mid-report."""
    tree = json.dumps({"kind": "regular_tree", "params": {"degree": 3}, "radius": 8})
    proc = subprocess.Popen(
        [sys.executable, "-m", "symbreak", "--format", "csv", "dsc", "--family", tree],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=SRC_ENV,
    )
    assert proc.stdout.readline().startswith(b"# {")
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert stderr == b""
