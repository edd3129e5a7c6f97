"""The four benchmark workloads: seeded inputs, timed calls and their checks.

A workload is a list of `Item`s.  `run()` is the timed call into symbreak's
public API and returns what `check()` needs; `check(result)` runs after the
timed passes and returns None or a message saying how the result differs
from its reference in `reference.py`.  Building the list is the set-up:
random trees, colourings and input files are drawn from the workload seed
here, without calling symbreak.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import reference as ref

class Item:
    __slots__ = ("name", "run", "check", "trials", "argv", "span")

    def __init__(self, name, run, check, trials=0, argv=None):
        self.name = name
        self.run = run
        self.check = check
        self.trials = trials  # Monte Carlo trials per call, for mc_trials_per_s
        self.argv = argv  # CLI items only
        self.span = None  # traced CLI items: the span around the in-process call


def memo(fn):
    return functools.lru_cache(maxsize=None)(fn)


def build(name, seed, sb, workdir):
    rnd = random.Random(f"{name}:{seed}")
    if name == "tree_truncations":
        return tree_truncations(sb, rnd)
    if name == "symmetric_graphs":
        return symmetric_graphs(sb, rnd)
    if name == "random_colourings":
        return random_colourings(sb, rnd, seed)
    if name == "cli_batch":
        return cli_batch(sb, rnd, seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


# -- shared checks ------------------------------------------------------------------


def plain_adjacency(g):
    return [set(nbrs) for nbrs in g.adjacency]


def group_item(sb, name, build_graph, order, motion, motion_cap=None):
    """Group order plus motion; the witness must be an automorphism of that support."""

    def run():
        g = build_graph()
        aut = sb.automorphism_group(g)
        got_order = aut.order()
        report = aut.motion() if motion_cap is None else aut.motion(motion_cap)
        witness = report.witness.images if report.witness is not None else None
        return g, got_order, report.motion, witness

    def check(result):
        g, got_order, got_motion, witness = result
        want_order, want_motion = order() if callable(order) else (order, motion)
        if got_order != want_order:
            return f"order {got_order} != {want_order}"
        if got_motion != want_motion:
            return f"motion {got_motion} != {want_motion}"
        if witness is not None:
            if not ref.is_automorphism(witness, plain_adjacency(g)):
                return "motion witness is not an automorphism"
            if sum(1 for v, w in enumerate(witness) if v != w) != want_motion:
                return "motion witness support differs from the motion"
        return None

    return Item(name, run, check)


def dsc_item(sb, name, build_graph, own_adjacency, radius):
    """dsc_check against the benchmark's own distinct-spheres count."""

    def run():
        r = sb.dsc_check(build_graph())
        return r.checked_pairs, len(r.violations), len(r.at_horizon)

    expected = memo(lambda: ref.dsc_counts(own_adjacency(), 0, radius))
    return Item(name, run, lambda got: None if got == expected() else f"{got} != {expected()}")


def regular_tree_adjacency(d, radius):
    """The degree-d ball in breadth-first order, root 0 (symbreak's numbering)."""
    edges, level, n = [], [0], 1
    for depth in range(radius):
        nxt = []
        for v in level:
            for _ in range(d if depth == 0 else d - 1):
                edges.append((v, n))
                nxt.append(n)
                n += 1
        level = nxt
    return ref.adjacency(n, edges)


def grid_points(radius):
    return [(x, y) for x in range(-radius, radius + 1) for y in range(-radius, radius + 1)
            if abs(x) + abs(y) <= radius]


def lattice_adjacency(points):
    index = {p: i for i, p in enumerate(points)}
    edges = [(i, index[q]) for p, i in index.items()
             for q in ((p[0] + 1, p[1]), (p[0], p[1] + 1)) if q in index]
    return ref.adjacency(len(points), edges), index


def grid_adjacency(radius):
    points = grid_points(radius)
    points.remove((0, 0))
    return lattice_adjacency([(0, 0)] + points)[0]


def ladder_adjacency(radius):
    points = [(i, j) for j in (0, 1) for i in range(-radius, radius + 1) if abs(i) + j <= radius]
    points.remove((0, 0))
    return lattice_adjacency([(0, 0)] + points)[0]


# -- tree_truncations ------------------------------------------------------------------


def random_recursive_tree(rnd, n):
    """Vertex v attaches to a uniform earlier vertex; labels are then shuffled."""
    label = list(range(n))
    rnd.shuffle(label)
    return [(label[rnd.randrange(v)], label[v]) for v in range(1, n)]


def tree_truncations(sb, rnd):
    spec = sb.FamilySpec
    items = []
    for d, radius in ((3, 3), (3, 4), (3, 5), (4, 3)):
        items.append(group_item(
            sb, f"regular_tree d{d} R{radius}",
            lambda d=d, radius=radius: sb.generate_family(spec("regular_tree", {"degree": d}, radius)),
            ref.regular_tree_order(d, radius), 2))
    for n in (500, 1000, 1500):
        # even paths are bicentral; the reflection moves every vertex
        items.append(group_item(sb, f"path {n}", lambda n=n: sb.path_graph(n), 2, n))
    items.append(group_item(
        sb, "double_ray R2000", lambda: sb.generate_family(spec("double_ray", {}, 2000)), 2, 4000))
    for i in range(16):
        n = 40 + 4 * i
        edges = random_recursive_tree(rnd, n)
        expected = memo(lambda n=n, edges=edges: ref.tree_order_and_motion(ref.adjacency(n, edges)))
        # motion(0) always takes the backtrack path: under the default cap a
        # tree whose order lands just below 10^6 enumerates the whole group
        items.append(group_item(sb, f"random_tree {i} n{n}",
                                lambda n=n, edges=edges: sb.Graph.from_edges(n, edges),
                                expected, None, motion_cap=0))

    def ball8():
        return sb.generate_family(spec("regular_tree", {"degree": 3}, 8))

    items.append(dsc_item(sb, "dsc regular_tree d3 R8", ball8,
                          lambda: regular_tree_adjacency(3, 8), 8))
    own8 = memo(lambda: regular_tree_adjacency(3, 8))
    colourings = [tuple(rnd.randrange(2) for _ in range(766)) for _ in range(8)]

    def run_tree_auto():
        g = ball8()
        return g, [sb.find_tree_automorphism(g, 0, sb.Colouring(c)) for c in colourings]

    def check_tree_auto(result):
        g, perms = result
        adj = own8()
        if plain_adjacency(g) != adj:
            return "regular_tree d3 R8 differs from the breadth-first ball"
        for c, perm in zip(colourings, perms):
            if (perm is not None) != ref.has_root_fixing_symmetry(adj, 0, c):
                return "existence of a root-fixing colour-preserving automorphism differs"
            if perm is not None and (perm.images[0] != 0 or perm.images == tuple(range(766))
                                     or not ref.is_automorphism(perm.images, adj, c)):
                return "returned permutation is not a root-fixing colour automorphism"
        return None

    items.append(Item("find_tree_automorphism d3 R8 x8", run_tree_auto, check_tree_auto))
    return items


# -- symmetric_graphs -----------------------------------------------------------------------


def symmetric_graphs(sb, rnd):
    spec = sb.FamilySpec
    items = []
    for d in (5, 6):
        items.append(group_item(sb, f"Q{d}", lambda d=d: sb.hypercube(d),
                                ref.hypercube_order(d), 2 ** (d - 1)))
    items.append(group_item(sb, "K10", lambda: sb.complete_graph(10), math.factorial(10), 2))
    for radius in (8, 12, 16):
        grid = lambda radius=radius: sb.generate_family(spec("grid", {"dimension": 2}, radius))
        items.append(group_item(sb, f"grid2 R{radius}", grid, 8, ref.grid_ball_motion(radius)))
        items.append(dsc_item(sb, f"dsc grid2 R{radius}", grid,
                              lambda radius=radius: grid_adjacency(radius), radius))
    ladder = lambda: sb.generate_family(spec("ladder", {}, 16))
    # rails of 33 and 31 vertices: only the reflection through rung 0, fixing 2
    items.append(group_item(sb, "ladder R16", ladder, 2, 62))
    items.append(dsc_item(sb, "dsc ladder R16", ladder, lambda: ladder_adjacency(16), 16))
    ray = {"kind": "double_ray", "params": {}}
    items.append(group_item(
        sb, "double_ray x double_ray R10",
        lambda: sb.generate_family(spec("cartesian_product", {"left": ray, "right": ray}, 10)),
        8, ref.grid_ball_motion(10)))
    items.append(balls_item(sb))
    small = {
        "C8": (lambda: sb.cycle_graph(8), lambda: ref.adjacency(8, [(i, (i + 1) % 8) for i in range(8)])),
        "Q3": (lambda: sb.hypercube(3), lambda: ref.adjacency(8, ref.hypercube_edges(3))),
        "K33": (lambda: sb.complete_bipartite(3, 3),
                lambda: ref.adjacency(6, [(i, 3 + j) for i in range(3) for j in range(3)])),
        "P7": (lambda: sb.path_graph(7), lambda: ref.adjacency(7, [(i, i + 1) for i in range(6)])),
    }
    for gname, (build_graph, own) in small.items():
        items.append(classes_item(sb, gname, build_graph, own))
    items.append(stabiliser_item(sb, rnd, "grid2 R12", 12))
    items.append(stabiliser_item(sb, rnd, "Q6", None))
    return items


def balls_item(sb):
    def run():
        g = sb.hypercube(4)
        aut = sb.automorphism_group(g)
        seq = sb.ExhaustionSequence.balls(g, 0)
        out = []
        for level in range(1, len(seq) + 1):
            deco = sb.ball_decomposition(aut, seq, level)
            out.append((deco.ball_count, sorted({b.size for b in deco.balls})))
        return out

    @memo
    def expected():
        elements = ref.hypercube_elements(4)
        out = []
        for level in range(1, 6):
            points = [x for x in range(16) if bin(x).count("1") <= level - 1]
            count = len({tuple(e[s] for s in points) for e in elements})
            out.append((count, [len(elements) // count]))
        return out

    return Item("ball_decomposition Q4 levels 1-5", run,
                lambda got: None if got == expected() else f"{got} != {expected()}")


def classes_item(sb, gname, build_graph, own):
    def run():
        g = build_graph()
        return (sb.sphere_classes(g).classes,
                sb.suborbit_classes(g, 0).classes,
                sb.suborbit_classes(g, 2).classes,
                sb.gamma_refinement_iterate(g, 1).orders)

    @memo
    def expected():
        adj = own()
        elements = ref.automorphisms(adj)
        orders, _ = ref.gamma_refinement(elements, 1)
        return (ref.sphere_classes(adj, elements), ref.suborbit_classes(elements, 0),
                ref.suborbit_classes(elements, 2), orders)

    return Item(f"sphere/suborbit classes, gamma iteration {gname}", run,
                lambda got: None if got == expected() else f"{got} != {expected()}")


def stabiliser_item(sb, rnd, gname, radius):
    """colouring_stabiliser on colourings planted with a seeded symmetry, so the
    stabiliser is non-trivial; its order is counted over the full group."""
    if radius is None:
        points = list(range(64))
    else:
        points = grid_points(radius)
        maps = ref.square_symmetries()
    colourings = []
    for _ in range(4):
        if radius is None:
            perm = list(range(6))
            while True:
                rnd.shuffle(perm)
                mask = rnd.randrange(64)
                if mask or perm != sorted(perm):
                    break
            sigma = lambda x, perm=perm, mask=mask: sum(
                1 << perm[i] for i in range(6) if (x >> i) & 1) ^ mask
        else:
            sigma = rnd.choice(maps[1:])
        colour = {}
        for p in points:
            if p not in colour:
                orbit, q = [], p
                while q not in orbit:
                    orbit.append(q)
                    q = sigma(q)
                value = rnd.randrange(2)
                colour.update((x, value) for x in orbit)
        colourings.append(colour)

    q6_elements = memo(lambda: ref.np.array(ref.hypercube_elements(6)))

    def build_graph():
        if radius is None:
            return sb.hypercube(6)
        return sb.generate_family(sb.FamilySpec("grid", {"dimension": 2}, radius))

    def run():
        g = build_graph()
        labels = g.labels if radius is not None else range(64)
        out = []
        for colour in colourings:
            stab = sb.colouring_stabiliser(g, sb.Colouring(tuple(colour[p] for p in labels)))
            out.append((stab.order(), [h.images for h in stab.generators]))
        return g, out

    def check(result):
        g, out = result
        labels = list(g.labels) if radius is not None else list(range(64))
        if radius is None:
            if {(u, v) for u in range(64) for v in g.adjacency[u] if u < v} != ref.hypercube_edges(6):
                return "Q6 is not the Hamming graph on 6-bit vertex numbers"
            adj = ref.adjacency(64, ref.hypercube_edges(6))
        else:
            if sorted(labels) != sorted(grid_points(radius)):
                return "grid labels are not the L1 ball"
            adj, _ = lattice_adjacency(labels)
        for colour, (order, gens) in zip(colourings, out):
            colours = [colour[p] for p in labels]
            if radius is None:
                vec = ref.np.array(colours)
                want = int((vec[q6_elements()] == vec).all(axis=1).sum())
            else:
                want = sum(1 for m in maps if all(colour[m(p)] == colour[p] for p in labels))
            if order != want:
                return f"stabiliser order {order} != {want}"
            if not all(ref.is_automorphism(h, adj, colours) for h in gens):
                return "a stabiliser generator is not a colour-preserving automorphism"
        return None

    return Item(f"colouring_stabiliser {gname} x4", run, check)


# -- random_colourings --------------------------------------------------------------------------


def random_colourings(sb, rnd, seed):
    items = []
    rng_stream = iter(range(1, 100))

    q4 = memo(lambda: ref.hypercube_elements(4))
    q5 = memo(lambda: ref.hypercube_elements(5))
    c8 = memo(lambda: ref.cycle_elements(8))
    mc_cases = [
        ("C8", lambda: sb.cycle_graph(8), 8, 20_000, c8),
        ("Q4", lambda: sb.hypercube(4), 16, 10_000, q4),
        ("Q5", lambda: sb.hypercube(5), 32, 4096, q5),
    ]
    for gname, build_graph, n, trials, elements in mc_cases:
        stream = next(rng_stream)
        exact = memo(lambda n=n, elements=elements: ref.distinguishing_probability(n, elements()))
        recount = memo(lambda n=n, trials=trials, stream=stream, elements=elements:
                       ref.mc_successes(seed, stream, trials, n, elements()))

        def check(got, n=n, trials=trials, exact=exact, recount=recount):
            if got != recount():
                return f"{got} successes, the trials' colourings give {recount()}"
            # 2^32 colourings of Q5 are too many to count exactly
            if n <= 16 and not ref.within_5_se(got, trials, exact()):
                return f"estimate {got}/{trials} is 5 SE away from {exact()}"
            return None

        items.append(Item(f"prob-mc {gname} {trials}",
                          lambda b=build_graph, t=trials, s=stream: sb.distinguishing_probability_mc(
                              b(), 2, t, sb.SeededRng(seed, s)).successes,
                          check, trials=trials))
    # above the enumeration cap every trial searches for a colour automorphism;
    # with two colours neither graph has a distinguishing colouring
    for gname, build_graph, trials in (
        ("K10", lambda: sb.complete_graph(10), 200),
        ("regular_tree d3 R4", lambda: sb.generate_family(
            sb.FamilySpec("regular_tree", {"degree": 3}, 4)), 200),
    ):
        stream = next(rng_stream)
        items.append(Item(f"prob-mc above cap {gname} {trials}",
                          lambda b=build_graph, t=trials, s=stream: sb.distinguishing_probability_mc(
                              b(), 2, t, sb.SeededRng(seed, s)).successes,
                          lambda got: None if got == 0 else f"{got} successes, expected 0",
                          trials=trials))
    exact_cases = [
        ("Q4", lambda: sb.hypercube(4), lambda: ref.distinguishing_probability(16, q4())),
        ("C16", lambda: sb.cycle_graph(16),
         lambda: ref.distinguishing_probability(16, ref.cycle_elements(16))),
        ("P16", lambda: sb.path_graph(16), lambda: ref.path_distinguishing(16)),
        # each side holds two equal colours, and swapping them is an automorphism
        ("K33", lambda: sb.complete_bipartite(3, 3), lambda: Fraction(0)),
    ]
    for gname, build_graph, want in exact_cases:
        want = memo(want)
        items.append(Item(f"prob-exact {gname}",
                          lambda b=build_graph: sb.distinguishing_probability_exact(b()),
                          lambda got, want=want: None if got == want() else f"{got} != {want()}"))
    for gname, build_graph, want in (
        ("C12", lambda: sb.cycle_graph(12), ref.dihedral_measure(12)),
        ("C14", lambda: sb.cycle_graph(14), ref.dihedral_measure(14)),
        ("K7", lambda: sb.complete_graph(7), ref.symmetric_measure(7)),
    ):
        def run(b=build_graph):
            r = sb.expected_stabiliser_measure(b())
            return r.colour_first, r.group_first

        items.append(Item(f"expected_stabiliser_measure {gname}", run,
                          lambda got, want=want: None if got == (want, want) else f"{got} != {want}"))
    rs_cases = [
        ("C16", lambda: sb.cycle_graph(16), 32, 14, lambda: ref.cycle_elements(16)),
        ("P16", lambda: sb.path_graph(16), 2, 16,
         lambda: [tuple(range(16)), tuple(range(15, -1, -1))]),
        ("Q4", lambda: sb.hypercube(4), 384, 8, q4),
    ]
    stream = next(rng_stream)
    for gname, build_graph, order, motion, elements in rs_cases:
        def run(b=build_graph):
            r = sb.russel_sundaram_bound(b(), sb.SeededRng(seed, stream))
            witness = r.witness.colours if r.witness is not None else None
            return r.bound, r.applicable, r.motion, r.group_order, witness

        def check(got, order=order, motion=motion, elements=elements):
            bound, applicable = ref.russel_sundaram(order, motion)
            if got[:4] != (bound, applicable, motion, order):
                return f"{got[:4]} != {(bound, applicable, motion, order)}"
            witness = got[4]
            if applicable and witness is None:
                return "no witness although the bound is below 1"
            if witness is not None:
                rows = ref.np.array([witness], dtype=ref.np.int8)
                if ref.preserved_any(rows, elements())[0]:
                    return "witness colouring is not distinguishing"
            return None

        items.append(Item(f"russel_sundaram_bound {gname}", run, check))
    return items


# -- cli_batch ------------------------------------------------------------------------------------


def write_graph(path, n, edges):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {len(edges)}\n")
        fh.writelines(f"{u} {v}\n" for u, v in sorted(edges))


def cli_batch(sb, rnd, seed, workdir):
    """One `python -m symbreak` process per subcommand on small input files."""
    cycle = lambda n: [(i, (i + 1) % n) for i in range(n)]
    path = lambda n: [(i, i + 1) for i in range(n - 1)]
    graphs = {
        "Q3": (8, sorted(ref.hypercube_edges(3))), "Q4": (16, sorted(ref.hypercube_edges(4))),
        "C4": (4, cycle(4)), "C6": (6, cycle(6)), "C8": (8, cycle(8)), "C10": (10, cycle(10)),
        "P3": (3, path(3)), "P6": (6, path(6)), "P12": (12, path(12)),
        "K33": (6, [(i, 3 + j) for i in range(3) for j in range(3)]),
    }
    files = {}
    for gname, (n, edges) in graphs.items():
        files[gname] = os.path.join(workdir, f"{gname}.txt")
        write_graph(files[gname], n, edges)
    own = {gname: ref.adjacency(n, edges) for gname, (n, edges) in graphs.items()}

    c8 = "".join(str(rnd.randrange(2)) for _ in range(8))
    layers = "".join(str(rnd.randrange(2)) for _ in range(9))
    tree = "".join(str(rnd.randrange(2)) for _ in range(22))
    perm_a = list(range(6))
    perm_b = list(range(6))
    cut = rnd.randrange(1, 5)
    perm_b[cut], perm_b[5] = perm_b[5], perm_b[cut]
    ladder = json.dumps({"kind": "ladder", "params": {}, "radius": 6})
    grid = json.dumps({"kind": "grid", "params": {"dimension": 2}, "radius": 5})
    tree_spec = json.dumps({"kind": "regular_tree", "params": {"degree": 3}, "radius": 3})
    report_dir = os.path.join(workdir, "batch")
    s = str(seed)

    def distinguishing(colours, elements):
        rows = ref.np.array([colours], dtype=ref.np.int8)
        return not ref.preserved_any(rows, elements)[0]

    def brute_layers():
        n = 9
        edges = [(3 * i + j, 3 * i + j + 1) for i in range(3) for j in range(2)]
        edges += [(3 * i + j, 3 * (i + 1) + j) for i in range(2) for j in range(3)]
        colours = [int(ch) for ch in layers]
        elements = ref.automorphisms(ref.adjacency(n, edges), colours)
        layer_sets = {frozenset(range(j, 9, 3)) for j in range(3)}
        ok = sum(all(frozenset(e[v] for v in ls) in layer_sets for ls in layer_sets)
                 for e in elements)
        return len(elements), str(Fraction(ok, len(elements)))

    def check_batch(result):
        code, _, stderr = result
        if code != 0:
            return f"exit code {code}: {stderr.strip()[-200:]}"
        for name in ("russel_sundaram", "stabiliser_measure", "match_probability",
                     "dsc_families", "growth_identity"):
            if not os.path.exists(os.path.join(report_dir, f"{name}.csv")):
                return f"batch wrote no {name}.csv"

        def rows(name):
            with open(os.path.join(report_dir, f"{name}.csv"), encoding="utf-8") as fh:
                return list(csv.DictReader(fh))

        for row in rows("match_probability"):
            if Fraction(row["probability"]) != ref.match_probability(int(row["n"])):
                return f"match_probability row {row}"
        for row in rows("russel_sundaram"):
            name = row["graph"]
            if name[0] in "PCK" and name[1:].isdigit():
                n = int(name[1:])
                want = {"P": 2, "C": 2 * n, "K": math.factorial(n)}[name[0]]
                if int(row["order"]) != want or row["within_bound"] != "True":
                    return f"russel_sundaram row {row}"
        if any(row["fubini_check"] != "pass" for row in rows("stabiliser_measure")):
            return "a stabiliser_measure row fails the Fubini check"
        if any(abs(float(row["identity_residual"])) > 1e-12 for row in rows("growth_identity")):
            return "a growth_identity residual exceeds 1e-12"
        return None

    def dihedral(n):
        return ref.cycle_elements(n)

    cases = [
        (["autgroup", "--graph", files["Q4"]],
         lambda r: r["order"] == ref.hypercube_order(4)),
        (["motion", "--graph", files["Q4"]], lambda r: r["motion"] == 8),
        (["distinguish", "--graph", files["C8"], "--colours", c8],
         lambda r: r["distinguishing"] == distinguishing([int(ch) for ch in c8], dihedral(8))),
        (["prob-exact", "--graph", files["C10"]],
         lambda r: Fraction(r["probability"]) == ref.distinguishing_probability(10, dihedral(10))),
        (["--seed", s, "--trials", "2000", "prob-mc", "--graph", files["C8"]],
         lambda r: r["successes"] == ref.mc_successes(seed, 0, 2000, 8, dihedral(8))),
        (["--seed", s, "rs-bound", "--graph", files["P12"]],
         lambda r: (Fraction(r["bound"]), r["applicable"]) == ref.russel_sundaram(2, 12)
         and distinguishing([int(ch) for ch in r["witness"]], [tuple(range(11, -1, -1))])),
        (["metric", "--graph", files["P6"], "--perm-a", json.dumps(perm_a),
          "--perm-b", json.dumps(perm_b), "--sequence", "prefixes"],
         lambda r: r["agreement_level"] == cut and Fraction(r["distance"]) == Fraction(1, 2**cut)),
        (["balls", "--graph", files["Q3"], "--level", "2"],
         lambda r: len(r["balls"]) == 48 and all(b["size"] == 1 for b in r["balls"])),
        (["haar", "--graph", files["C6"]],
         lambda r: Fraction(r["expected_stabiliser_measure"]) == ref.dihedral_measure(6)
         and r["fubini_check"] == "pass"),
        (["dsc", "--family", ladder],
         lambda r: (r["checked_pairs"], len(r["violations"]), len(r["at_horizon"]))
         == ref.dsc_counts(ladder_adjacency(6), 0, 6)),
        (["spheres", "--graph", files["C6"]],
         lambda r: tuple(map(tuple, r["classes"]))
         == ref.sphere_classes(own["C6"], ref.automorphisms(own["C6"]))),
        (["gamma", "--graph", files["K33"], "--budget", "0"],
         lambda r: tuple(map(tuple, r["classes"]))
         == ref.suborbit_classes(ref.automorphisms(own["K33"]), 0)),
        (["product", "--left", files["P3"], "--right", files["C4"]],
         lambda r: r["vertex_count"] == 12
         and {tuple(e) for e in r["edges"]} == product_edges(graphs["P3"], graphs["C4"])),
        (["layers", "--left", files["P3"], "--right", files["P3"], "--colours", layers],
         lambda r: (r["group_order"], r["respecting_fraction"]) == brute_layers()),
        (["growth", "--family", grid],
         lambda r: r["profile"]["sphere_sizes"] == [1] + [4 * k for k in range(1, 6)]),
        (["treeauto", "--family", tree_spec, "--colours", tree],
         lambda r: r["found"] == ref.has_root_fixing_symmetry(
             regular_tree_adjacency(3, 3), 0, [int(ch) for ch in tree])),
        (["batch", "--report-dir", report_dir], None),
    ]
    items = []
    for argv, want in cases:
        sub = next(a for a in argv if not a.startswith("-") and not a.isdigit())
        run = functools.partial(cli_subprocess, argv, workdir)
        check = check_batch if want is None else functools.partial(check_cli, want)
        trials = 2000 if sub == "prob-mc" else 0
        items.append(Item(f"cli {sub}", run, check, trials=trials, argv=argv))
    return items


def product_edges(left, right):
    """Edges of the Cartesian product, vertex (i, j) numbered i * n_right + j."""
    (n1, e1), (n2, e2) = left, right
    out = {(i * n2 + a, i * n2 + b) for i in range(n1) for a, b in e2}
    out |= {(a * n2 + j, b * n2 + j) for a, b in e1 for j in range(n2)}
    return {(min(u, v), max(u, v)) for u, v in out}


def cli_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src
    return env


def cli_subprocess(argv, workdir):
    proc = subprocess.run([sys.executable, "-m", "symbreak", *argv], cwd=workdir,
                          env=cli_env(), capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def cli_inprocess(sb, argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = sb.cli.main(list(argv))
    return code, out.getvalue(), ""


def check_cli(want, result):
    code, stdout, stderr = result
    if code != 0:
        return f"exit code {code}: {stderr.strip()[-200:]}"
    result = json.loads(stdout)["result"]
    return None if want(result) else f"unexpected result {json.dumps(result)[:300]}"
