"""Command-line interface.

Every run prints a JSON object with a ``config`` header (the resolved run
configuration, for reproducibility) and a ``result`` payload; ``--format
text`` and ``csv`` print the config as a ``#`` line and then the report's
own ``to_text`` or ``to_csv``.  Exact rationals are emitted as "p/q"
strings, never floats.  Exit codes:
0 success, 2 input error, 3 cap exceeded or memory exhausted.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import suites
from .autsearch import automorphism_group
from .colourings import (
    Colouring,
    DEFAULT_COLOUR_CAP,
    distinguishing_probability_exact,
    distinguishing_probability_mc,
    find_tree_automorphism,
    is_distinguishing,
    random_colouring,
    russel_sundaram_bound,
)
from .conditions import (
    dsc_check,
    gamma_refinement_iterate,
    growth_bound,
    growth_classifier,
    layer_fixing_report,
    sphere_classes,
    sphere_equivalence,
    suborbit_classes,
    suborbit_equivalence,
)
from .errors import CapExceededError, GraphFormatError, SymbreakError
from .graphs import (
    FamilySpec,
    cartesian_product,
    generate_family,
    graph_from_json_dict,
    graph_to_json_dict,
    growth_sequence,
    load_graph,
)
from .groups import DEFAULT_ENUMERATION_CAP
from .jsonfields import json_value
from .perms import Perm
from .rng import SeededRng
from .topology import (
    ExhaustionSequence,
    agreement_level,
    ball_decomposition,
    expected_stabiliser_measure,
    ultrametric_distance,
)


def _cap(text):
    """A cap flag's value: an int >= 0, or argparse refuses it (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an int >= 0, not {text!r}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="symbreak",
        description="Symmetry breaking by random colourings: groups, motion, "
        "distinguishing probabilities, coset-ball metrics, and structural checks.",
    )
    parser.add_argument("--config", help="JSON file with defaults for the flags below")
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument("--trials", type=int, default=10_000, help="Monte Carlo trials")
    parser.add_argument("--enumeration-cap", type=_cap, default=DEFAULT_ENUMERATION_CAP)
    parser.add_argument("--colour-cap", type=_cap, default=DEFAULT_COLOUR_CAP)
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json")
    parser.add_argument("--output", default=None, help="write the report here instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_flags(p):
        p.add_argument("--graph", help="graph file ('n m' text or .json)")
        p.add_argument("--family", help="family spec JSON (inline or @file)")

    p = sub.add_parser("autgroup", help="automorphism group (optionally colour-preserving)")
    add_graph_flags(p)
    p.add_argument("--colours", help="colour string like 0110")

    p = sub.add_parser("motion", help="minimal support of a non-identity automorphism")
    add_graph_flags(p)

    p = sub.add_parser("distinguish", help="is the colouring distinguishing?")
    add_graph_flags(p)
    p.add_argument("--colours", help="colour string; omitted = seeded random colouring")

    p = sub.add_parser("prob-exact", help="exact distinguishing probability")
    add_graph_flags(p)
    p.add_argument("--k", type=int, default=2, help="number of colours")

    p = sub.add_parser("prob-mc", help="Monte Carlo distinguishing probability")
    add_graph_flags(p)
    p.add_argument("--k", type=int, default=2)

    p = sub.add_parser("rs-bound", help="motion-based failure bound and witness search")
    add_graph_flags(p)

    p = sub.add_parser("metric", help="agreement level and ultrametric distance")
    add_graph_flags(p)
    p.add_argument("--perm-a", required=True, help="image array JSON")
    p.add_argument("--perm-b", required=True)
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--sequence", choices=("balls", "prefixes"), default="balls")

    p = sub.add_parser("balls", help="coset-ball decomposition at a level")
    add_graph_flags(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--sequence", choices=("balls", "prefixes"), default="balls")

    p = sub.add_parser("haar", help="expected stabiliser measure, two ways")
    add_graph_flags(p)

    p = sub.add_parser("dsc", help="distinct-spheres check on a truncation")
    add_graph_flags(p)
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--radius", type=int, default=None)

    p = sub.add_parser("spheres", help="sphere-equivalence classes (or one pair)")
    add_graph_flags(p)
    p.add_argument("--pair", type=int, nargs=2, metavar=("U", "V"))
    p.add_argument("--n0-max", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)

    p = sub.add_parser("gamma", help="suborbit-equivalence classes, pair test, or iteration")
    add_graph_flags(p)
    p.add_argument("--budget", type=int, default=0)
    p.add_argument("--pair", type=int, nargs=2, metavar=("S", "T"))
    p.add_argument("--iterate", type=int, default=None, help="refinement levels")

    p = sub.add_parser("product", help="Cartesian product of two graphs")
    p.add_argument("--left", required=True, help="graph file or family JSON/@file")
    p.add_argument("--right", required=True)

    p = sub.add_parser("layers", help="layer fixing of a coloured product")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--colours", help="colour string for the product (default: seeded random)")

    p = sub.add_parser("growth", help="growth profile / classifier, or bound arithmetic")
    add_graph_flags(p)
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--bound", nargs=4, metavar=("N", "J", "C", "EPS"), default=None)

    p = sub.add_parser("treeauto", help="root-fixing colour-preserving tree automorphism")
    add_graph_flags(p)
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--colours", required=True)

    p = sub.add_parser("batch", help="run the named experiment suites, one CSV each")
    p.add_argument("--report-dir", required=True)
    names = sorted(suites.ALL_SUITES)
    p.add_argument("--suites", nargs="*", choices=names, default=names)

    return parser


def _config_flags(path):
    """The global flags a `--config` JSON file stands for; null values are skipped.

    `main` places them before the user's own flags, so an explicit flag
    still wins and argparse checks each value as it checks the flag.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or not isinstance(data.get("caps") or {}, dict):
        raise ValueError(f"config file {path} must hold a JSON object, with an object as caps")
    caps = data.get("caps") or {}
    values = {
        "--seed": data.get("seed"),
        "--trials": data.get("trials"),
        "--format": data.get("format"),
        "--output": data.get("output"),
        "--enumeration-cap": caps.get("enumeration"),
        "--colour-cap": caps.get("colour_exhaustion"),
    }
    flags = []
    for flag, value in values.items():
        if isinstance(value, (dict, list)):
            raise ValueError(f"config value for {flag} must be a single value")
        if value is not None:
            flags.append(f"{flag}={value}")
    return flags


def _load_spec_or_graph(value):
    """A graph argument: a file path, inline family/graph JSON, or @file JSON."""
    text = value
    if value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    stripped = text.strip()
    if stripped.startswith("{"):
        data = json.loads(stripped)
        if "kind" in data:
            return generate_family(FamilySpec.from_json_dict(data)), value
        return graph_from_json_dict(data), value
    return load_graph(value), value


def _graph_from_args(args):
    graph = getattr(args, "graph", None)
    family = getattr(args, "family", None)
    if graph and family:
        raise GraphFormatError("pass either --graph or --family, not both")
    if graph:
        return load_graph(graph), graph
    if family:
        g, source = _load_spec_or_graph(family)
        return g, source
    raise GraphFormatError("a graph is required (--graph or --family)")


def _sequence_from_args(args, g):
    if args.sequence == "balls":
        return ExhaustionSequence.balls(g, args.root)
    return ExhaustionSequence.prefixes(g.vertex_count)


def _parse_colours(text):
    """Colour string -> Colouring, with k inferred from the largest digit."""
    digits = [int(ch) for ch in text.strip()]
    return Colouring(tuple(digits), max(2, max(digits, default=0) + 1))


def _colouring_from_args(args, g, rng):
    if args.colours is not None:
        return _parse_colours(args.colours)
    return random_colouring(g, 2, rng)


def _run(args):
    """Returns (report, graph_source, options).

    The report is a library report object or a plain dict of library
    values; `_render` encodes its JSON with `json_value`, and its CSV or
    text with the report's own `to_csv` or `to_text` where it has them.
    """
    rng = SeededRng(args.seed)
    cmd = args.command
    options = {}

    if cmd == "batch":
        os.makedirs(args.report_dir, exist_ok=True)
        written = []
        for name in args.suites:
            header, rows = suites.run_suite(name)
            path = os.path.join(args.report_dir, f"{name}.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
            written.append(path)
        options["suites"] = list(args.suites)
        return {"written": written}, None, options

    if cmd == "product":
        left, left_src = _load_spec_or_graph(args.left)
        right, right_src = _load_spec_or_graph(args.right)
        product = cartesian_product(left, right)
        options = {"left": left_src, "right": right_src}
        return graph_to_json_dict(product), None, options

    if cmd == "layers":
        left, left_src = _load_spec_or_graph(args.left)
        right, right_src = _load_spec_or_graph(args.right)
        c = _colouring_from_args(args, cartesian_product(left, right), rng)
        report = layer_fixing_report(left, right, c)
        colours = "random" if args.colours is None else args.colours
        options = {"left": left_src, "right": right_src, "colours": colours}
        return report, None, options

    if cmd == "growth" and args.bound is not None:
        n, j, c, eps = args.bound
        report = growth_bound(int(n), int(j), float(c), float(eps))
        options = {"bound": [int(n), int(j), float(c), float(eps)]}
        return report, None, options

    g, source = _graph_from_args(args)

    if cmd == "autgroup":
        colours = None if args.colours is None else _parse_colours(args.colours).colours
        options = {"colours": args.colours}
        return automorphism_group(g, vertex_colours=colours), source, options

    if cmd == "motion":
        return automorphism_group(g).motion(), source, options

    if cmd == "distinguish":
        c = _colouring_from_args(args, g, rng)
        options = {"colours": c.to_string()}
        return is_distinguishing(g, c), source, options

    if cmd == "prob-exact":
        p = distinguishing_probability_exact(
            g, args.k, colour_cap=args.colour_cap, enum_cap=args.enumeration_cap
        )
        options = {"k": args.k}
        return {"probability": p}, source, options

    if cmd == "prob-mc":
        est = distinguishing_probability_mc(
            g, args.k, args.trials, rng, enum_cap=args.enumeration_cap
        )
        options = {"k": args.k}
        return est, source, options

    if cmd == "rs-bound":
        return russel_sundaram_bound(g, rng), source, options

    if cmd == "metric":
        seq = _sequence_from_args(args, g)
        a = Perm.from_json(args.perm_a)
        b = Perm.from_json(args.perm_b)
        level = agreement_level(a, b, seq)
        dist = ultrametric_distance(a, b, seq)
        options = {"root": args.root, "sequence": args.sequence}
        result = {"agreement_level": "equal" if level is None else level, "distance": dist}
        return result, source, options

    if cmd == "balls":
        seq = _sequence_from_args(args, g)
        group = automorphism_group(g)
        deco = ball_decomposition(group, seq, args.level, cap=args.enumeration_cap)
        options = {"level": args.level, "root": args.root, "sequence": args.sequence}
        return deco, source, options

    if cmd == "haar":
        report = expected_stabiliser_measure(
            g, enum_cap=args.enumeration_cap, colour_cap=args.colour_cap
        )
        return report, source, options

    if cmd == "dsc":
        options = {"root": args.root, "radius": args.radius}
        return dsc_check(g, args.root, args.radius), source, options

    if cmd == "spheres":
        options = {"n0_max": args.n0_max, "horizon": args.horizon}
        if args.pair:
            u, v = args.pair
            res = sphere_equivalence(g, u, v, n0_max=args.n0_max, horizon=args.horizon)
            options["pair"] = [u, v]
            return res, source, options
        return sphere_classes(g, n0_max=args.n0_max, horizon=args.horizon), source, options

    if cmd == "gamma":
        options = {"budget": args.budget}
        if args.iterate is not None:
            report = gamma_refinement_iterate(g, args.budget, max_levels=args.iterate)
            options["iterate"] = args.iterate
            return report, source, options
        if args.pair:
            s, t = args.pair
            ok = suborbit_equivalence(g, s, t, args.budget)
            options["pair"] = [s, t]
            return {"equivalent": ok}, source, options
        return suborbit_classes(g, args.budget), source, options

    if cmd == "growth":
        radius = args.radius
        if radius is None and g.truncation:
            radius = g.truncation.radius
        profile = growth_sequence(g, args.root, radius)
        result = {"profile": profile}
        options = {"root": args.root, "radius": len(profile.ball_sizes) - 1, "epsilon": args.epsilon}
        if args.epsilon is not None:
            result["classifier"] = growth_classifier(profile, args.epsilon)
        return result, source, options

    if cmd == "treeauto":
        perm = find_tree_automorphism(g, args.root, _parse_colours(args.colours))
        options = {"root": args.root, "colours": args.colours}
        return {"found": perm is not None, "automorphism": perm}, source, options

    raise GraphFormatError(f"unknown subcommand {cmd!r}")


def _render(args, report, source, options):
    """The text a run prints: JSON with its config, or a `#` config line and
    then the report's CSV or text.  Only JSON output encodes the whole report.
    An integer too long for the interpreter to print refuses as a cap does."""
    if args.format == "csv" and not hasattr(report, "to_csv"):
        raise ValueError(f"csv output not supported for {args.command}")
    config = {
        "command": args.command,
        "graph_source": source,
        "seed": args.seed,
        "trials": args.trials,
        "caps": {"enumeration": args.enumeration_cap, "colour_exhaustion": args.colour_cap},
        "output": {"format": args.format, "path": args.output},
        "options": options,
    }
    try:
        if args.format == "json":
            result = json_value(report)
            return json.dumps({"config": config, "result": result}, indent=2, default=json_value)
        header = "# " + json.dumps(config, default=json_value) + "\n"
        if args.format == "csv":
            return header + report.to_csv().rstrip("\n")
        if hasattr(report, "to_text"):
            return header + report.to_text()
        return header + json.dumps(json_value(report), indent=2, default=json_value)
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        raise CapExceededError(
            f"the result holds an integer of more than {sys.get_int_max_str_digits()} "
            "digits, the interpreter's limit for printing one"
        ) from exc


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)  # the first pass only finds --config
        if args.config:
            argv = _config_flags(args.config) + argv
        args = parser.parse_args(argv)
        report, source, options = _run(args)
        payload = _render(args, report, source, options)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
            return 0
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except (CapExceededError, MemoryError) as exc:
        # an allocation beyond the machine is a cap too, the machine's own
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (SymbreakError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        print(payload)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Python flushes it again at exit, so point
        # it at devnull to keep that flush from raising a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
