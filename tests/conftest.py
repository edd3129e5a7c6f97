import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from symbreak import conditions
from symbreak.autsearch import automorphism_group
from symbreak.colourings import colouring_stabiliser, random_colouring
from symbreak.conditions import DscReport
from symbreak.graphs import Graph, cartesian_product
from symbreak.groups import DEFAULT_ENUMERATION_CAP, PermGroup, _Level, _orbit_partition, transversal
from symbreak.perms import Perm
from symbreak.suites import standard_corpus


@pytest.fixture(scope="session")
def corpus():
    """The standard small-graph corpus as a name -> Graph dict."""
    return dict(standard_corpus())


@pytest.fixture
def digit_limit():
    """The interpreter's int-to-str digit limit lowered to its least value,
    640, for one test; an interpreter without the limit skips the test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter prints integers of any length")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield 640
    finally:
        sys.set_int_max_str_digits(limit)


def graph_text(g: Graph):
    """The "n m" header then one "u v" line per edge: the text graph file format."""
    return f"{g.vertex_count} {g.edge_count}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())


def sphere(g: Graph, v, n):
    """The vertices at distance exactly n from v, read from v's distance row."""
    return tuple(u for u, d in enumerate(g.distances(v)) if d == n)


def from_cycles(degree, cycles):
    """The permutation with these disjoint cycles, e.g. [(0, 1, 2), (3, 4)]."""
    images = list(range(degree))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
    return Perm(images)


def cycles(gamma: Perm, include_fixed=False):
    """The library's former `Perm.cycles`: the cycle decomposition, singleton
    cycles only if requested; the oracle for the pointer-doubling
    `cycle_labels`."""
    images = gamma.images
    seen = [False] * len(images)
    out = []
    for s in range(len(images)):
        if seen[s]:
            continue
        cycle = [s]
        seen[s] = True
        t = images[s]
        while t != s:
            seen[t] = True
            cycle.append(t)
            t = images[t]
        if len(cycle) > 1 or include_fixed:
            out.append(tuple(cycle))
    return out


def cycle_count(gamma: Perm):
    """The library's former `Perm.cycle_count`: cycles including fixed points."""
    return len(cycles(gamma, include_fixed=True))


def fix_probability(gamma: Perm, k=2):
    """P[c(gamma(s)) = c(s) for all s] for uniform c: each cycle monochromatic."""
    return Fraction(1, k ** (gamma.degree - cycle_count(gamma)))


def brute_force_automorphisms(g: Graph, colours=None):
    """All vertex permutations preserving adjacency (and colours), by filtering.

    Exponential; intended for graphs with at most 8 vertices.
    """
    n = g.vertex_count
    adj_sets = [frozenset(nbrs) for nbrs in g.adjacency]
    out = []
    for images in itertools.permutations(range(n)):
        if colours is not None and any(colours[images[v]] != colours[v] for v in range(n)):
            continue
        if all(frozenset(images[u] for u in adj_sets[v]) == adj_sets[images[v]] for v in range(n)):
            out.append(Perm(images, validate=False))
    return out


def refine_every_cell(adj, cells):
    """The library's former `_refine`: every round recomputes the sorted
    tuple of neighbour cell indices of every vertex in every non-singleton
    cell, and a split cell's pieces follow their tuples in sorted order;
    the oracle for the refinement that re-examines only the cells next to
    a split."""
    n = sum(len(c) for c in cells)
    while True:
        cell_id = [0] * n
        for ci, cell in enumerate(cells):
            for v in cell:
                cell_id[v] = ci
        new_cells = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups = {}
            for v in cell:
                sig = tuple(sorted(cell_id[u] for u in adj[v]))
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    new_cells.append(tuple(groups[sig]))
        if not changed:
            return tuple(new_cells)
        cells = new_cells


def petersen_graph():
    edges = []
    for i in range(5):
        edges += [(i, (i + 1) % 5), (i, i + 5), (i + 5, 5 + (i + 2) % 5)]
    return Graph.from_edges(10, edges)


def seeded_random_graphs(seed, count, max_n=9):
    """`count` seeded random graphs on 1..max_n vertices, each edge with probability 1/2."""
    rnd = random.Random(seed)
    out = []
    for _ in range(count):
        n = rnd.randint(1, max_n)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < 0.5]
        out.append(Graph.from_edges(n, edges))
    return out


def plain_and_coloured(graphs, seed):
    """(name, graph, colours) for each (name, graph) uncoloured and randomly 2-coloured."""
    rnd = random.Random(seed)
    out = []
    for name, g in graphs:
        n = g.vertex_count
        out.append((name, g, (0,) * n))
        out.append((f"{name} coloured", g, tuple(rnd.randrange(2) for _ in range(n))))
    return out


def seeded_random_trees(seed, count, max_n=30):
    """`count` seeded random recursive trees on 1..max_n vertices, relabelled."""
    rnd = random.Random(seed)
    out = []
    for _ in range(count):
        n = rnd.randint(1, max_n)
        label = list(range(n))
        rnd.shuffle(label)
        edges = [(label[rnd.randrange(v)], label[v]) for v in range(1, n)]
        out.append(Graph.from_edges(n, edges))
    return out


def mc_by_stabilisers(g: Graph, k, trials, rng):
    """The library's former Monte Carlo loop above the enumeration cap.

    Each trial draws its colouring from its own scalar stream and builds the
    colouring's whole stabiliser; the oracle for the block draws and
    first-automorphism certificates that replaced it.
    """
    return sum(
        colouring_stabiliser(g, random_colouring(g, k, rng.trial_stream(t))).is_trivial()
        for t in range(trials)
    )


def prime_order_labels(group):
    """One cycle-minimum label row per cycle partition of the prime-order
    elements, from `cycles` of each element, sorted; no arrays."""
    rows = set()
    for gamma in group.elements():
        parts = cycles(gamma, include_fixed=True)
        lengths = {len(c) for c in parts} - {1}
        if len(lengths) == 1 and all(p % d for p in lengths for d in range(2, p)):
            label = [0] * gamma.degree
            for c in parts:
                for v in c:
                    label[v] = min(c)
            rows.add(tuple(label))
    return sorted(rows)


def distinct_rows(rows):
    """The distinct rows of a 2-d array, in the byte order of their contents:
    ``np.unique`` over each row viewed as one opaque (void) value."""
    import numpy as np

    from symbreak.colourings import _row_values

    if len(rows) < 2 or not rows.shape[1]:  # at most one distinct row
        return rows[:1]
    rows = np.ascontiguousarray(rows)
    _, first = np.unique(_row_values(rows), return_index=True)
    return rows[first]


def prime_order_partitions_labelling_all(group, cap=DEFAULT_ENUMERATION_CAP):
    """The library's former `_prime_order_partitions`: every row of every
    element block labelled by `cycle_labels`, the rows whose cycle lengths
    are 1 and one prime kept, and all blocks' rows deduplicated at the end
    by `distinct_rows`; the oracle, array for array, for the cycle-length
    prefilter and the set of row bytes that replaced it."""
    import numpy as np

    from symbreak.colourings import cycle_labels

    found = []
    for images in group.element_blocks(cap):
        count, n = images.shape
        label = cycle_labels(images)
        rows = np.arange(count)[:, None]
        sizes = np.bincount((label + rows * n).ravel(), minlength=count * n)
        cycle_len = sizes.reshape(count, n)[rows, label]
        longest = cycle_len.max(axis=1, initial=0)
        uniform = ((cycle_len == 1) | (cycle_len == longest[:, None])).all(axis=1)
        prime = np.array([m >= 2 and all(m % d for d in range(2, m)) for m in range(n + 1)])
        found.append(label[uniform & prime[longest]])
    return distinct_rows(np.concatenate(found))


def mc_one_stage(g: Graph, k, trials, rng):
    """The library's former enumerated Monte Carlo check, in one stage.

    Each block of trials (drawn as `SeededRng.trial_block` draws them) is
    compared on all n columns against every label row at once, one colour
    per array entry: a trial is a success iff no row r has c[r] == c.  The
    oracle for the packed check, which compares 64 trials' colourings per
    word of their bit-planes (`colourings.agreement`).
    """
    import numpy as np

    labels = np.array(prime_order_labels(automorphism_group(g)), dtype=np.intp)
    if not len(labels):
        return trials
    n, per_block = g.vertex_count, 512
    successes = 0
    for done in range(0, trials, per_block):
        block = rng.trial_block(k, done, min(per_block, trials - done), n)
        hit = (block[:, labels] == block[:, None, :]).all(axis=2).any(axis=1)
        successes += int((~hit).sum())
    return successes


def uncertified_trials(g: Graph, k, trials, rng):
    """The trials no non-identity generator of Aut(G) preserves, by the
    library's former certificate check: each trial's colours compared on
    each generator's moved points, one colour per array entry.  Above the
    enumeration cap, exactly these trials run the search."""
    import numpy as np

    block = rng.trial_block(k, 0, trials, g.vertex_count)
    held = np.zeros(trials, dtype=bool)
    for gen in automorphism_group(g).generators:
        support = list(gen.support())
        if support:
            images = [gen.images[v] for v in support]
            held |= (block[:, images] == block[:, support]).all(axis=1)
    return int((~held).sum())


def elements_by_recursion(group):
    """The library's former recursive `elements()`: rep_0 * (rep_1 * (...)).

    Level 0 varies slowest; each level lists its base point first, then its
    other orbit points in increasing order.  No cap; the oracle for the
    iterative walk that `elements()` and `motion()` now share.
    """
    base, transversals = group.base, group.transversals

    def rec(i):
        if i == len(base):
            yield Perm.identity(group.degree)
            return
        trans = transversals[i]
        points = [base[i]] + sorted(p for p in trans if p != base[i])
        for p in points:
            rep = trans[p]
            for h in rec(i + 1):
                yield rep * h

    return rec(0)


def motion_by_enumeration(group):
    """(motion, witness) by scanning every element in `elements()` order.

    The first element of least support wins, as in `PermGroup.motion`; the
    library's former enumeration path, kept here as the oracle.  It reads
    the elements from `elements_by_recursion`, so it shares no code with
    the walk behind `motion()`.
    """
    best = witness = None
    for g in elements_by_recursion(group):
        if g.is_identity():
            continue
        supp = len(g.support())
        if best is None or supp < best:
            best, witness = supp, g
    return best, witness


def tree_automorphism_by_nested_codes(g: Graph, root, c):
    """The library's former `find_tree_automorphism`, on nested-tuple codes.

    Swaps the first pair of equal-coded siblings met in BFS order (the first
    code group with two members, in order of first appearance); None when
    every sibling code is distinct.
    """
    dist = g.distances(root)
    children = [[] for _ in range(g.vertex_count)]
    bfs_order = sorted(range(g.vertex_count), key=lambda v: (dist[v], v))
    for v in bfs_order:
        for u in g.adjacency[v]:
            if dist[u] == dist[v] + 1:
                children[v].append(u)

    code = {}
    for v in reversed(bfs_order):
        code[v] = (c[v], tuple(sorted(code[u] for u in children[v])))

    swap_pair = None
    for v in bfs_order:
        by_code = {}
        for u in children[v]:
            by_code.setdefault(code[u], []).append(u)
        for members in by_code.values():
            if len(members) >= 2:
                swap_pair = (members[0], members[1])
                break
        if swap_pair:
            break
    if swap_pair is None:
        return None

    images = list(range(g.vertex_count))

    def swap_subtrees(a, b):
        images[a], images[b] = b, a
        ka = sorted(children[a], key=lambda u: (code[u], u))
        kb = sorted(children[b], key=lambda u: (code[u], u))
        for ua, ub in zip(ka, kb):
            swap_subtrees(ua, ub)

    swap_subtrees(*swap_pair)
    return Perm(images)


def check_point(group, s):
    """The library's former `PermGroup._check_point`: refuse what is no point
    of the group, for the oracles that take points."""
    if type(s) is not int or not 0 <= s < group.degree:  # `True` is no point
        raise ValueError(f"invalid point {s}")


def pointwise_stabiliser(group, points):
    """The library's former `PermGroup.pointwise_stabiliser`: the subgroup
    fixing every given point, from one Schreier-Sims run over the group's
    generators with the points as the base prefix.  The levels below the
    points are the subgroup's chain, so it needs no second run.  The oracle
    for the coloured search fixing the points."""
    points = tuple(dict.fromkeys(points))
    for s in points:
        check_point(group, s)
    if not points:
        return group
    chain = PermGroup(group.degree, group.generators)
    chain._levels = [_Level(b, group.degree) for b in points]
    for g in chain.generators:
        residue, j = chain._strip(g, 0)
        if not residue.is_identity():
            chain._add_strong_gen(j, residue)
    chain._schreier_sims()
    if group._order is not None:
        assert math.prod(len(lv.transversal) for lv in chain._levels) == group._order
    deeper = chain._levels[len(points) :]
    order = math.prod(len(lv.transversal) for lv in deeper)
    gens = chain._gens_for_level(len(points))
    return PermGroup(group.degree, gens, order=order, base=[lv.point for lv in deeper])


class SchreierSimsGroup(PermGroup):
    """A group from generators alone whose pointwise stabilisers come from
    the Schreier-Sims oracle `pointwise_stabiliser`: for the tests that hand
    `ball_decomposition` a group with no search behind it."""

    def pointwise_stabiliser(self, points):
        return pointwise_stabiliser(self, points)


def stabiliser_generators(group, s):
    """The library's former `PermGroup.stabiliser_generators`: Schreier
    generators for the stabiliser of a point, from the strong generators."""
    check_point(group, s)
    gens = group.strong_generators
    order, trans = transversal(s, gens, group.degree)
    out = []
    seen = set()
    for p in order:
        up = trans[p]
        for g in gens:
            sg = trans[g(p)].inverse() * (g * up)
            if not sg.is_identity() and sg.images not in seen:
                seen.add(sg.images)
                out.append(sg)
    return tuple(out)


def suborbits(group, s):
    """Orbit partition of all points under the stabiliser of s, by filtering
    the group's elements; the oracle for the coloured search fixing s."""
    check_point(group, s)
    stab = [e for e in group.elements() if e(s) == s]
    return _orbit_partition(group.degree, stab)


def from_elements(degree, elements):
    """The library's former `PermGroup.from_elements`: the group generated
    by the given elements, with redundant ones dropped."""
    gens = []
    group = PermGroup(degree, [])
    for e in elements:
        if not group.contains(e):
            gens.append(e)
            group = PermGroup(degree, gens)
    return group


def setwise_stabiliser(group, points, cap=DEFAULT_ENUMERATION_CAP):
    """The subgroup mapping the given set onto itself, by filtering every
    element; the oracle for Aut(G, c) with c colouring the set."""
    target = frozenset(points)
    for s in target:
        check_point(group, s)
    kept = [g for g in group.elements(cap) if frozenset(g(p) for p in target) == target]
    return from_elements(group.degree, kept)


def suborbit_pairs_by_elements(group, budget):
    """The pairs s < t, ascending, for which some phi with phi(s) = t moves
    at most `budget` points across the suborbits of s (the count is the same
    for every such phi), from the group's element list alone."""
    elements = list(group.elements())
    n = group.degree
    pairs = []
    for s in range(n):
        subs = [frozenset(cls) for cls in suborbits(group, s)]
        for t in range(s + 1, n):
            mismatch = min(
                (
                    sum(len(cls) for cls in subs if frozenset(phi(x) for x in cls) != cls)
                    for phi in elements
                    if phi(s) == t
                ),
                default=None,
            )
            if mismatch is not None and mismatch <= budget:
                pairs.append((s, t))
    return pairs


def suborbit_classes_by_elements(group, budget):
    """Suborbit classes of `group` from its element list alone: the
    transitive closure of `suborbit_pairs_by_elements`."""
    n = group.degree
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for s, t in suborbit_pairs_by_elements(group, budget):
        ra, rb = find(s), find(t)
        parent[max(ra, rb)] = min(ra, rb)
    by_root = {}
    for v in range(n):
        by_root.setdefault(find(v), []).append(v)
    return tuple(tuple(c) for _, c in sorted(by_root.items()))


def gamma_refinement_by_elements(g: Graph, budget, max_levels=10):
    """The library's former `gamma_refinement_iterate`: G_{i+1} keeps the
    elements of G_i that map every suborbit class onto itself, rebuilt by
    `from_elements`.  Returns ((order, classes) per level, fixpoint reached)."""
    group = automorphism_group(g)
    levels = []
    for _ in range(max_levels):
        classes = suborbit_classes_by_elements(group, budget)
        levels.append((group.order(), classes))
        class_sets = [frozenset(c) for c in classes]
        kept = [
            e
            for e in group.elements()
            if all(frozenset(e(v) for v in cls) == cls for cls in class_sets)
        ]
        refined = from_elements(group.degree, kept)
        if refined.order() == group.order():
            return tuple(levels), True
        group = refined
    return tuple(levels), False


def layer_fixing_by_elements(g1: Graph, g2: Graph, c):
    """The library's former `layer_fixing_report`, with its layers keyed by
    index: (group order, respecting fraction) from a verdict on every
    element of Aut(g1 x g2, c).  Vertex (i, j) has index i * n2 + j and lies
    in the g1-layer j; an element respects the layers when it maps each one
    onto a layer.  The oracle for the ratio of two coloured searches."""
    product = cartesian_product(g1, g2)
    layers = {}
    for v in range(product.vertex_count):
        layers.setdefault(v % g2.vertex_count, []).append(v)
    layer_sets = {frozenset(vs) for vs in layers.values()}
    elements = list(colouring_stabiliser(product, c).elements())
    respecting = sum(
        all(frozenset(e(v) for v in vs) in layer_sets for vs in layers.values())
        for e in elements
    )
    return len(elements), Fraction(respecting, len(elements))


def dsc_by_full_distances(g: Graph, v0=0, radius=None):
    """The library's former `dsc_check`, on full BFS distance rows.

    Every compared vertex gets its whole distance row and a depth -> sphere
    table; pairs at equal depth are compared over 1 <= n <= radius - depth.
    """
    if radius is None:
        radius = g.truncation.radius if g.truncation is not None else max(g.distances(v0))

    dist = g.distances(v0)
    by_depth = {}
    for v in range(g.vertex_count):
        if dist[v] >= 0:
            by_depth.setdefault(dist[v], []).append(v)

    spheres = {}

    def sphere_of(v, n):
        rows = spheres.get(v)
        if rows is None:
            rows = {}
            for u, d in enumerate(g.distances(v)):
                if d >= 0:
                    rows.setdefault(d, []).append(u)
            spheres[v] = rows
        return rows.get(n, [])

    violations, at_horizon, first_sep, checked = [], [], {}, 0
    for depth, group_vertices in sorted(by_depth.items()):
        safe_max = radius - depth
        for i, x in enumerate(group_vertices):
            for y in group_vertices[i + 1 :]:
                checked += 1
                if safe_max < 1:
                    at_horizon.append((x, y))
                    continue
                sep = None
                for n in range(1, safe_max + 1):
                    if sphere_of(x, n) != sphere_of(y, n):
                        sep = n
                        break
                if sep is None:
                    violations.append((x, y))
                else:
                    first_sep[(x, y)] = sep
    return DscReport(v0, radius, "", checked, tuple(violations), tuple(at_horizon), first_sep)


def sphere_classes_all_pairs(g: Graph, n0_max=None, horizon=None):
    """The library's former `sphere_classes`: every vertex's spheres built up
    front and one block of every vertex, so an explicit horizon is checked
    against every pair, pairs of different orbits included."""
    conditions._check_sphere_bounds(n0_max, horizon)
    orbit = conditions._block_index(automorphism_group(g).orbits(), g.vertex_count)
    depth = None if g.truncation is None else g.distances(g.truncation.root)
    spheres = conditions._vertex_spheres(g, range(g.vertex_count), depth)

    def pair_fn(s, t):
        in_orbit = orbit[s] == orbit[t]
        return conditions._sphere_pair(
            g, s, t, spheres, depth, n0_max, horizon, in_orbit
        ).equivalent

    return conditions._classes_from_pairwise(
        g.vertex_count, [range(g.vertex_count)], lambda block: pair_fn, "sphere",
        {"n0_max": n0_max, "horizon": horizon},
    )


def ball_sets(g: Graph, root):
    """The library's former `ExhaustionSequence.balls` sets: the distance
    balls around `root`, radius 0 up, then the full vertex set when some
    vertex is unreachable."""
    dist = g.distances(root)
    sets = [tuple(v for v, d in enumerate(dist) if 0 <= d <= r) for r in range(max(dist) + 1)]
    if len(sets[-1]) < g.vertex_count:
        sets.append(tuple(range(g.vertex_count)))
    return sets


def agreement_level_by_sets(g1: Perm, g2: Perm, sets):
    """The library's former `agreement_level`, over explicit nested sets:
    the index of the first set on which g1 * g2^-1 moves a point, less one;
    None when g1 == g2."""
    if g1 == g2:
        return None
    diff = g1 * g2.inverse()
    for i, s_i in enumerate(sets, start=1):
        if any(diff(s) != s for s in s_i):
            return i - 1
    raise AssertionError("the sets do not cover the points g1 * g2^-1 moves")
