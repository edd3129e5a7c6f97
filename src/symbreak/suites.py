"""Named experiment suites over the standard small-graph corpus.

Each suite returns (header, rows) ready for CSV emission; the CLI batch
mode writes one CSV per suite into a report directory.
"""

from __future__ import annotations

from fractions import Fraction

from .autsearch import automorphism_group
from .colourings import (
    distinguishing_probability_exact,
    distinguishing_probability_mc,
    russel_sundaram_bound,
)
from .conditions import dsc_check, growth_bound, match_probability
from .graphs import (
    FamilySpec,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    generate_family,
    hypercube,
    path_graph,
    star_graph,
)
from .rng import SeededRng
from .topology import expected_stabiliser_measure


def standard_corpus():
    """Paths P2..P8, cycles C3..C8, cliques K2..K5, K_{2,3}, K_{3,3}, K_{1,4}, Q3."""
    corpus = []
    for n in range(2, 9):
        corpus.append((f"P{n}", path_graph(n)))
    for n in range(3, 9):
        corpus.append((f"C{n}", cycle_graph(n)))
    for n in range(2, 6):
        corpus.append((f"K{n}", complete_graph(n)))
    corpus.append(("K_{2,3}", complete_bipartite(2, 3)))
    corpus.append(("K_{3,3}", complete_bipartite(3, 3)))
    corpus.append(("K_{1,4}", star_graph(4)))
    corpus.append(("Q3", hypercube(3)))
    return corpus


def russel_sundaram_suite():
    header = ["graph", "order", "motion", "bound", "exact_failure", "within_bound"]
    rows = []
    for name, g in standard_corpus():
        report = russel_sundaram_bound(g)
        failure = 1 - distinguishing_probability_exact(g)
        rows.append(
            [
                name,
                report.group_order,
                report.motion,
                str(report.bound),
                str(failure),
                failure <= report.bound,
            ]
        )
    return header, rows


def stabiliser_measure_suite():
    header = ["graph", "colour_first", "group_first", "fubini_check"]
    rows = []
    for name, g in standard_corpus():
        report = expected_stabiliser_measure(g)
        rows.append(
            [
                name,
                str(report.colour_first),
                str(report.group_first),
                "pass" if report.agree else "fail",
            ]
        )
    return header, rows


def match_probability_suite():
    header = ["n", "probability", "at_most_half"]
    rows = []
    for n in range(1, 65):
        p = match_probability(n)
        rows.append([n, str(p), p <= Fraction(1, 2)])
    return header, rows


def dsc_suite():
    header = ["family", "radius", "checked_pairs", "violations", "at_horizon"]
    families = [
        ("regular_tree_3", FamilySpec("regular_tree", {"degree": 3}, 8)),
        ("double_ray", FamilySpec("double_ray", {}, 32)),
        ("grid_2", FamilySpec("grid", {"dimension": 2}, 8)),
        ("ladder", FamilySpec("ladder", {}, 16)),
    ]
    rows = []
    for name, spec in families:
        g = generate_family(spec)
        report = dsc_check(g)
        rows.append(
            [name, spec.radius, report.checked_pairs, len(report.violations), len(report.at_horizon)]
        )
    st = star_graph(3)
    report = dsc_check(st, 0, 1)
    rows.append(["star_K13", 1, report.checked_pairs, len(report.violations), len(report.at_horizon)])
    return header, rows


def growth_identity_suite():
    header = ["n", "j", "c", "eps", "log2_pi", "motion_lower", "log2_failure", "identity_residual"]
    rows = []
    for n in (8, 12, 16, 24, 32):
        for j in (1, 2, 3, 4):
            for c, eps in ((1.0, 0.25), (1.5, 0.125), (2.0, 0.375), (0.5, 0.2), (1.0, 0.1)):
                report = growth_bound(n, j, c, eps)
                residual = report.log2_failure_bound - (
                    report.log2_pi_bound - report.motion_lower / 2
                )
                rows.append(
                    [
                        n,
                        j,
                        c,
                        eps,
                        report.log2_pi_bound,
                        report.motion_lower,
                        report.log2_failure_bound,
                        residual,
                    ]
                )
    return header, rows


def truncations_suite():
    """Monte Carlo distinguishing probability of the double ray's balls, R = 1..8.

    Truncations can behave very differently from their limit, so radii are
    reported side by side rather than extrapolated.  Radius R runs 2000
    trials from stream (0, R).
    """
    header = ["radius", "vertices", "order", "successes", "trials", "estimate", "stderr"]
    rows = []
    for radius in range(1, 9):
        g = generate_family(FamilySpec("double_ray", {}, radius))
        est = distinguishing_probability_mc(g, 2, 2000, SeededRng(0, radius))
        rows.append(
            [
                radius,
                g.vertex_count,
                automorphism_group(g).order(),
                est.successes,
                est.trials,
                est.estimate,
                est.stderr,
            ]
        )
    return header, rows


ALL_SUITES = {
    "russel_sundaram": russel_sundaram_suite,
    "stabiliser_measure": stabiliser_measure_suite,
    "match_probability": match_probability_suite,
    "dsc_families": dsc_suite,
    "growth_identity": growth_identity_suite,
    "truncations": truncations_suite,
}


def run_suite(name):
    return ALL_SUITES[name]()
