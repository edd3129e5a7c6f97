"""Structural sufficient conditions and quantitative bound arithmetic.

Implements, on finite graphs and finite-radius truncations: the distinct
spheres check with an explicit safe horizon, sphere equivalence and
suborbit equivalence with an exception budget (plus the class-stabiliser
refinement iteration), Cartesian layer fixing under a colouring, the
equal-colour-count matching probability, and the growth-bound report.
Suborbits come from the coloured search and each pair s, t from one phi
with phi(s) = t in the orbit transversal of s; the layer-respecting
fraction is the ratio of two coloured-search orders.  No element is listed.
"""

from __future__ import annotations

import bisect
import collections.abc
import functools
import itertools
import math
import warnings
from fractions import Fraction

from .autsearch import automorphism_group
from .colourings import Colouring, colouring_stabiliser
from .errors import CapExceededError, InvariantError
from .graphs import Graph, GrowthProfile, cartesian_product
from .groups import PermGroup, transversal
from .jsonfields import JsonFields, Record, json_value

# ---------------------------------------------------------------------------
# Distinct spheres condition


class DscReport(Record):
    """Distinct-spheres evidence for one truncation.

    For each pair x != y equidistant from the root, spheres S_x(n) and
    S_y(n) are compared for 1 <= n <= R - depth (beyond that the truncation
    clips them; n = 0 is skipped because singleton spheres always differ).
    ``violations`` lists pairs that agreed on a non-empty safe range —
    truncation-limited evidence against the condition, never a refutation.
    ``at_horizon`` lists pairs with no checkable radius at all.  From
    `dsc_check` the two lists are read-only views and ``first_separating_n``
    a read-only mapping, all over its per-layer class tables: they equal the
    tuples and the dict they stand for, and hold no pair until read.
    """

    root: int
    radius: int
    horizon_rule: str
    checked_pairs: int
    violations: tuple
    at_horizon: tuple
    first_separating_n: dict

    def to_json_dict(self):
        return {
            "root": self.root,
            "radius": self.radius,
            "horizon_rule": self.horizon_rule,
            "checked_pairs": self.checked_pairs,
            "violations": [list(p) for p in self.violations],
            "at_horizon": [list(p) for p in self.at_horizon],
            "first_separating_n": {
                f"{x},{y}": n for (x, y), n in sorted(self.first_separating_n.items())
            },
        }

    def to_csv(self) -> str:
        lines = ["x,y,first_separating_n"]
        for (x, y), n in sorted(self.first_separating_n.items()):
            lines.append(f"{x},{y},{n}")
        for x, y in self.violations:
            lines.append(f"{x},{y},violation")
        for x, y in self.at_horizon:
            lines.append(f"{x},{y},at_horizon")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [
            f"root {self.root}  radius {self.radius}",
            f"rule: {self.horizon_rule}",
            f"checked pairs:          {self.checked_pairs}",
            f"separated pairs:        {len(self.first_separating_n)}",
            f"violations (safe range): {len(self.violations)}",
            f"at horizon (no range):   {len(self.at_horizon)}",
        ]
        return "\n".join(lines)


#: The JSON and CSV of a report print every equidistant pair, so `dsc_check`
#: refuses more than this many.
DSC_PAIR_CAP = 10**7


def dsc_check(g: Graph, v0: int = 0, radius: int | None = None) -> DscReport:
    """Compare spheres of equidistant vertex pairs within the safe horizon.

    The root's distance row comes from one search; without a truncation or
    an explicit radius, the radius is that row's maximum.  The pairs are
    counted first: above `DSC_PAIR_CAP` it raises `CapExceededError` before
    any sphere is built.  Then one layer of equidistant vertices at a time:
    each vertex's spheres come from a BFS that stops at its safe horizon
    radius - d(root, v), or earlier at its first empty sphere, and are
    dropped when the layer is classified (`_DscLayer`).  A pair separates
    at the first level where its two classes differ and is a violation
    when they end in one class; the report reads both off the class tables.
    """
    if g.truncation is not None:
        if v0 != g.truncation.root:
            raise ValueError(
                f"root {v0} differs from the truncation root {g.truncation.root}"
            )
        if radius is None:
            radius = g.truncation.radius
        elif radius != g.truncation.radius:
            raise ValueError("radius differs from the truncation radius")
    if radius is not None and radius < 0:
        raise ValueError("radius must be non-negative")
    dist = g.distances(v0)
    if radius is None:
        radius = max(dist)

    by_depth = {}
    for v in range(g.vertex_count):
        if dist[v] >= 0:
            by_depth.setdefault(dist[v], []).append(v)
    pairs = sum(len(vs) * (len(vs) - 1) // 2 for vs in by_depth.values())
    if pairs > DSC_PAIR_CAP:
        raise CapExceededError(
            f"{pairs} equidistant pairs exceed the dsc pair cap {DSC_PAIR_CAP}",
            required=pairs,
            cap=DSC_PAIR_CAP,
        )

    inner, horizon = {}, {}
    for depth, vertices in sorted(by_depth.items()):
        if len(vertices) > 1:
            # with no safe range no sphere is built: the layer is one class, at the horizon
            layers = inner if radius - depth >= 1 else horizon
            spheres = [_spheres_within(g, v, radius - depth) for v in vertices]
            layers[depth] = _DscLayer(vertices, spheres)
    rule = (
        "S_x(n) trusted iff n + d(root, x) <= radius; "
        "pairs compared over 1 <= n <= radius - depth"
    )
    return DscReport(
        v0, radius, rule, pairs,
        _DscPairs(inner, dist), _DscPairs(horizon, dist), _DscSeparations(inner, dist),
    )


class _DscLayer:
    """One depth's vertices, ascending, and their sphere classes.

    ``levels[n - 1][i]`` is vertex i's class id at level n, interned from
    its class at level n - 1 and S(n), so two vertices share it iff their
    spheres agree on 1..n.  With no levels the layer is one class.  The
    spheres are not kept.
    """

    __slots__ = ("vertices", "levels", "same", "separated")

    def __init__(self, vertices, spheres):
        classes, self.vertices, self.levels = [0] * len(vertices), vertices, []
        for n in range(max(map(len, spheres))):
            # each list ends before its first empty sphere; past it S(n) is empty
            ids = {}
            classes = [
                ids.setdefault((c, s[n] if n < len(s) else frozenset()), len(ids))
                for c, s in zip(classes, spheres)
            ]
            self.levels.append(classes)
            if len(ids) == len(vertices):
                break  # every class is a single vertex; later levels only refine
        last = collections.Counter(classes)
        self.same = sum(c * (c - 1) // 2 for c in last.values())  # pairs ending in one class
        self.separated = len(vertices) * (len(vertices) - 1) // 2 - self.same

    def first(self, i, j):
        """The first level at which vertices i and j differ, 0 if none."""
        return next((n for n, row in enumerate(self.levels, 1) if row[i] != row[j]), 0)

    def pairs(self):
        """((x, y), first(i, j)) for each pair i < j, in layer order."""
        vs = self.vertices
        for i, x in enumerate(vs):
            first = [0] * (len(vs) - i - 1)
            for n in range(len(self.levels), 0, -1):  # the last write is the least n
                row = self.levels[n - 1]
                ci = row[i]
                first = [n if c != ci else f for c, f in zip(row[i + 1 :], first)]
            yield from zip(zip(itertools.repeat(x), vs[i + 1 :]), first)


class _DscView:
    """Pairs of `_DscLayer`s (depth -> layer), located by the root's distance row."""

    def __init__(self, layers, depth):
        self._layers, self._depth = layers, depth

    def _first(self, pair):
        """`_DscLayer.first` of a pair x < y in one of these layers, else None."""
        if not (isinstance(pair, tuple) and len(pair) == 2):
            return None
        x, y = pair
        if not (isinstance(x, int) and isinstance(y, int) and 0 <= x < y < len(self._depth)):
            return None
        layer = self._layers.get(self._depth[x])
        if layer is None or self._depth[y] != self._depth[x]:
            return None
        vs = layer.vertices
        return layer.first(bisect.bisect_left(vs, x), bisect.bisect_left(vs, y))


class _DscPairs(_DscView, collections.abc.Sequence):
    """The pairs that end in one class, as a read-only tuple-like view."""

    def __len__(self):
        return sum(layer.same for layer in self._layers.values())

    def __iter__(self):
        for layer in self._layers.values():
            if not layer.separated:
                yield from itertools.combinations(layer.vertices, 2)
            elif layer.same:
                yield from (pair for pair, n in layer.pairs() if not n)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self)[k]
        size = len(self)
        if not -size <= k < size:
            raise IndexError("tuple index out of range")
        return next(itertools.islice(self, k % size, None))

    def __reversed__(self):
        return reversed(tuple(self))  # the Sequence default indexes, a walk per item

    def __contains__(self, pair):
        return self._first(pair) == 0

    def __eq__(self, other):
        if not isinstance(other, (tuple, _DscPairs)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self):
        return repr(tuple(self))


class _DscSeparations(_DscView, collections.abc.Mapping):
    """Pair -> first separating level, as a read-only dict-like view."""

    def __len__(self):
        return sum(layer.separated for layer in self._layers.values())

    def __iter__(self):
        return (pair for pair, n in self._items())

    def _items(self):
        for layer in self._layers.values():
            if layer.separated:
                yield from (item for item in layer.pairs() if item[1])

    def items(self):
        return _DscItems(self)

    def __getitem__(self, pair):
        n = self._first(pair)
        if not n:
            raise KeyError(pair)
        return n

    def __repr__(self):
        return repr(dict(self.items()))


class _DscItems(collections.abc.ItemsView):
    def __iter__(self):
        return self._mapping._items()


def _spheres_within(g: Graph, v, horizon):
    """[S_v(1), ..., S_v(m)] as frozensets, m = min(horizon, v's eccentricity)."""
    seen, frontier, spheres = {v}, [v], []
    while len(spheres) < horizon:
        layer = []
        for u in frontier:
            for w in g.adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    layer.append(w)
        if not layer:
            break
        spheres.append(frozenset(layer))
        frontier = layer
    return spheres


# ---------------------------------------------------------------------------
# Equivalence classes


class EquivalenceClasses(JsonFields):
    """A partition from pairwise tests; transitivity is re-verified on output.

    ``closure_added`` lists pairs placed in one class by transitive closure
    even though their direct pairwise test was negative.
    """

    relation: str
    classes: tuple
    parameters: dict
    closure_added: tuple

    def to_text(self):
        lines = [f"relation {self.relation}  parameters {self.parameters}"]
        for cls in self.classes:
            lines.append("  " + " ".join(str(v) for v in cls))
        if self.closure_added:
            lines.append(f"  closure added pairs: {list(self.closure_added)}")
        return "\n".join(lines)


def _classes_from_pairwise(n, pair_fn, relation, parameters):
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    positive = set()
    for s in range(n):
        for t in range(s + 1, n):
            if pair_fn(s, t):
                positive.add((s, t))
                ra, rb = find(s), find(t)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)

    by_root = {}
    for v in range(n):
        by_root.setdefault(find(v), []).append(v)
    classes = tuple(tuple(sorted(c)) for _, c in sorted(by_root.items()))

    closure_added = []
    for cls in classes:
        for i, s in enumerate(cls):
            for t in cls[i + 1 :]:
                if (s, t) not in positive:
                    closure_added.append((s, t))
    return EquivalenceClasses(relation, classes, parameters, tuple(closure_added))


# -- sphere equivalence -----------------------------------------------------


class SphereEquivalenceResult(JsonFields):
    equivalent: bool
    in_same_orbit: bool
    matched_n0: int | None
    horizon: int


def _vertex_spheres(g: Graph, vertices):
    """(vertex -> [S_v(1), S_v(2), ...], depth row): spheres up to the safe
    range and the root's distance row on a truncation; no row otherwise."""
    if g.truncation is None:
        return {v: _spheres_within(g, v, g.vertex_count) for v in vertices}, None
    depth = g.distances(g.truncation.root)
    spheres = {v: _spheres_within(g, v, g.truncation.radius - depth[v]) for v in vertices}
    return spheres, depth


def _check_sphere_bounds(n0_max, horizon):
    for name, value in (("n0_max", n0_max), ("horizon", horizon)):
        if value is not None and value < 0:
            raise ValueError(f"{name} must be non-negative")


def _block_index(partition, n):
    """vertex -> index of its block in `partition`, a partition of 0..n-1."""
    index = [0] * n
    for i, block in enumerate(partition):
        for v in block:
            index[v] = i
    return index


def _sphere_pair(g: Graph, u, v, spheres, depth, n0_max, horizon, orbit) -> SphereEquivalenceResult:
    su, sv = spheres[u], spheres[v]
    if depth is None:
        safe = max(len(su), len(sv))
    else:
        safe = g.truncation.radius - max(depth[u], depth[v])
    if horizon is None:
        horizon = max(safe, 0)
    elif horizon > safe:
        raise ValueError(f"horizon {horizon} exceeds the safe range {safe}")
    in_orbit = orbit[u] == orbit[v]
    matched_n0 = None
    if in_orbit:
        # largest suffix [agree_from .. horizon] on which the spheres agree,
        # scanned from the top; past the end of a list its spheres are empty
        pairs = list(itertools.zip_longest(su[:horizon], sv[:horizon], fillvalue=frozenset()))
        agree_from = 0 if u == v else 1 + next(
            (n for n in range(len(pairs), 0, -1) if pairs[n - 1][0] != pairs[n - 1][1]), 0
        )
        if agree_from <= min(horizon if n0_max is None else n0_max, horizon):
            matched_n0 = agree_from
    return SphereEquivalenceResult(
        in_orbit and matched_n0 is not None, in_orbit, matched_n0, horizon
    )


def sphere_equivalence(
    g: Graph,
    u: int,
    v: int,
    n0_max: int | None = None,
    horizon: int | None = None,
) -> SphereEquivalenceResult:
    """u ~ v: same automorphism orbit and S_u(n) = S_v(n) for n0 <= n <= horizon.

    Spheres come from bounded breadth-first searches (`_spheres_within`).
    The horizon defaults to the safe range and may not exceed it: the last
    radius at which u or v has a non-empty sphere, or on a truncation
    radius - max(depth(u), depth(v)).
    """
    g._check_vertex(u)
    g._check_vertex(v)
    _check_sphere_bounds(n0_max, horizon)
    spheres, depth = _vertex_spheres(g, (u, v))
    orbit = _block_index(automorphism_group(g).orbits(), g.vertex_count)
    return _sphere_pair(g, u, v, spheres, depth, n0_max, horizon, orbit)


def sphere_classes(
    g: Graph,
    n0_max: int | None = None,
    horizon: int | None = None,
) -> EquivalenceClasses:
    """Classes of `sphere_equivalence`, each vertex's spheres built once."""
    _check_sphere_bounds(n0_max, horizon)
    orbit = _block_index(automorphism_group(g).orbits(), g.vertex_count)
    spheres, depth = _vertex_spheres(g, range(g.vertex_count))

    def pair_fn(s, t):
        return _sphere_pair(g, s, t, spheres, depth, n0_max, horizon, orbit).equivalent

    return _classes_from_pairwise(
        g.vertex_count, pair_fn, "sphere", {"n0_max": n0_max, "horizon": horizon}
    )


# -- suborbit equivalence ---------------------------------------------------


def _suborbits(g: Graph, colours, s):
    """The orbits of the stabiliser of s in Aut(g, colours): the coloured
    search with s fixed."""
    return automorphism_group(g, colours, fixing=(s,)).orbits()


def _suborbit_mismatch_count(suborbits_s, suborbits_t, phi):
    """The sum of |C| over the suborbits C of s with phi(C) != C, for phi(s) = t.

    phi maps each suborbit of s onto one of t (else `InvariantError`: a
    wrong partition), and the count is the same for every such phi (phi' =
    phi * sigma with sigma stabilising s permutes each suborbit within
    itself), so one phi from the orbit transversal of s decides the pair.
    """
    targets = {frozenset(cls) for cls in suborbits_t}
    mismatch = 0
    for cls in suborbits_s:
        image = frozenset(phi(x) for x in cls)
        if image not in targets:
            raise InvariantError(f"phi maps the suborbit {sorted(cls)} onto no suborbit of t")
        if image != frozenset(cls):
            mismatch += len(cls)
    return mismatch


def suborbit_equivalence(g: Graph, s: int, t: int, budget: int) -> bool:
    """s ~ t: some element maps s to t moving at most `budget` points across
    stabiliser suborbits (the finite surrogate for 'all but finitely many').
    The element is the orbit transversal's representative for t."""
    if budget < 0:
        raise ValueError("budget must be non-negative")
    n = g.vertex_count
    for p in (s, t):
        if type(p) is not int or not 0 <= p < n:
            raise ValueError(f"invalid point {p}")
    _, reps = transversal(s, automorphism_group(g).generators, n)
    if t not in reps:
        return False
    sub_s, sub_t = (_suborbits(g, (0,) * n, p) for p in (s, t))
    return _suborbit_mismatch_count(sub_s, sub_t, reps[t]) <= budget


def suborbit_classes(g: Graph, budget: int) -> EquivalenceClasses:
    if budget < 0:
        raise ValueError("budget must be non-negative")
    return _suborbit_classes(g, (0,) * g.vertex_count, automorphism_group(g), budget)


def _suborbit_classes(g: Graph, colours, group: PermGroup, budget) -> EquivalenceClasses:
    """Suborbit classes of `group` = Aut(g, colours).  Each point's suborbits
    come from one coloured search and are kept; the transversal of s is
    kept only while s is paired (pairs arrive s by s), so memory is O(n^2)."""
    n = group.degree
    orbit = _block_index(group.orbits(), n)
    suborbits = functools.cache(lambda s: _suborbits(g, colours, s))
    reps = functools.lru_cache(maxsize=1)(lambda s: transversal(s, group.generators, n)[1])

    def pair_fn(s, t):
        return orbit[s] == orbit[t] and (
            _suborbit_mismatch_count(suborbits(s), suborbits(t), reps(s)[t]) <= budget
        )

    return _classes_from_pairwise(n, pair_fn, "suborbit", {"budget": budget})


class RefinementLevel(JsonFields):
    group_order: int
    classes: EquivalenceClasses


class RefinementIteration(Record):
    """Chain Aut = G_0 >= G_1 >= ... where G_{i+1} fixes every class of the
    suborbit relation of G_i setwise; stops at a fixpoint or max_levels."""

    levels: tuple
    fixpoint_reached: bool

    @property
    def orders(self):
        return tuple(level.group_order for level in self.levels)

    def to_json_dict(self):
        return {
            "orders": list(self.orders),
            "fixpoint_reached": self.fixpoint_reached,
            "levels": json_value(self.levels),
        }


def gamma_refinement_iterate(g: Graph, budget: int, max_levels: int = 10) -> RefinementIteration:
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if max_levels < 1:
        raise ValueError("max_levels must be at least 1")
    # G_i = Aut(g, colours): each level pairs a vertex's colour with its class
    colours = (0,) * g.vertex_count
    group = automorphism_group(g)
    levels = []
    fixpoint = False
    for _ in range(max_levels):
        classes = _suborbit_classes(g, colours, group, budget)
        levels.append(RefinementLevel(group.order(), classes))
        class_of = _block_index(classes.classes, g.vertex_count)
        colours = tuple(zip(colours, class_of))
        refined = automorphism_group(g, colours)
        if refined.order() == group.order():
            fixpoint = True
            break
        group = refined
    return RefinementIteration(tuple(levels), fixpoint)


# ---------------------------------------------------------------------------
# Cartesian layers


class LayerFixingReport(JsonFields):
    """The order of Aut(g1 x g2, c) and the fraction of its elements that
    map every g1-layer (fixed second coordinate) onto a g1-layer."""

    group_order: int
    respecting_fraction: Fraction

    def to_text(self):
        return (
            f"stabiliser order {self.group_order}  "
            f"layer-respecting fraction {self.respecting_fraction}"
        )


def layer_fixing_report(g1: Graph, g2: Graph, c: Colouring) -> LayerFixingReport:
    """At most two coloured searches, no element listed.

    Vertex (i, j) of the product P has index i * n2 + j and lies in the
    g1-layer j.  One marker vertex per layer, joined to that layer and
    coloured apart from P, makes the colour-preserving automorphisms of
    the augmented graph exactly the layer-respecting elements of
    Aut(P, c), so the fraction is the ratio of the two orders.  An empty
    product gets no marker.  When every generator of Aut(P, c) already maps
    layers onto layers, so does the group, and the second search is skipped.
    """
    product = cartesian_product(g1, g2)
    stab = colouring_stabiliser(product, c)
    order = stab.order()
    n, n2 = product.vertex_count, g2.vertex_count
    if all(
        len({p.images[v] % n2 for v in range(j, n, n2)}) == 1
        for p in stab.generators
        for j in range(n2)
    ):
        return LayerFixingReport(order, Fraction(1))
    markers = [list(range(j, n, n2)) for j in range(n2)] if n else []
    augmented = Graph(
        [nbrs + (n + v % n2,) for v, nbrs in enumerate(product.adjacency)] + markers
    )
    colours = [(0, x) for x in c.colours] + [(1, 0)] * len(markers)
    respecting = automorphism_group(augmented, colours).order()
    return LayerFixingReport(order, Fraction(respecting, order))


# ---------------------------------------------------------------------------
# Matching probability


def match_probability(n: int) -> Fraction:
    """P[two disjoint uniformly 2-coloured n-sets have equal colour-0 counts].

    Equals sum_j C(n,j)^2 / 4^n = C(2n,n) / 4^n, which is at most 1/2 for
    every n >= 1 and strictly decreasing.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        warnings.warn("match_probability(0) is degenerate; returning 1", stacklevel=2)
        return Fraction(1)
    return Fraction(math.comb(2 * n, n), 4**n)


# ---------------------------------------------------------------------------
# Growth bounds


class GrowthBoundReport(JsonFields):
    """Failure-probability arithmetic for breaking the small-motion layer.

    With sphere sizes inside the annulus bounded by c * 2^((1/2-eps)*n) and
    permutations moving at most 2^j vertices, the induced permutation count
    satisfies log2 |Pi| <= log2_pi_bound, their motion on the annulus is at
    least motion_lower, and the union bound gives
    log2 P[failure] <= log2_pi_bound - motion_lower / 2 = log2_failure_bound.
    product_lower = (1 - 2^(-eps n))^n bounds the probability that every
    annulus is broken simultaneously.
    """

    n: int
    j: int
    c: float
    eps: float
    log2_pi_bound: float
    motion_lower: int
    log2_failure_bound: float
    product_lower: float


def growth_bound(n: int, j: int, c: float, eps: float) -> GrowthBoundReport:
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 1 <= j <= n - 1:
        raise ValueError("j must satisfy 1 <= j <= n-1")
    if c <= 0:
        raise ValueError("c must be positive")
    if not 0 < eps < 0.5:
        raise ValueError("eps must lie strictly between 0 and 1/2")
    two_j = 2**j
    log2_pi = 2 * math.log2(n) + two_j * (0.5 - eps) * n + two_j * math.log2(c)
    motion_lower = n * two_j
    log2_failure = -eps * two_j * n + two_j * math.log2(c) + 2 * math.log2(n)
    product_lower = (1 - 2 ** (-eps * n)) ** n
    return GrowthBoundReport(
        n, j, c, eps, log2_pi, motion_lower, log2_failure, product_lower
    )


class GrowthClassifierReport(JsonFields):
    """Least c with |B(m)| <= c * 2^((1/2-eps)*sqrt(m)) for all m <= radius."""

    eps: float
    c_fit: float
    ball_sizes: tuple
    ratios: tuple


def growth_classifier(profile: GrowthProfile, eps: float) -> GrowthClassifierReport:
    """The ratios |B(m)| / 2^((1/2-eps)*sqrt(m)) of a growth profile; c_fit is their maximum."""
    if not 0 < eps < 0.5:
        raise ValueError("eps must lie strictly between 0 and 1/2")
    ratios = []
    for m, size in enumerate(profile.ball_sizes):
        ratios.append(size / (2 ** ((0.5 - eps) * math.sqrt(m))))
    c_fit = max(ratios)
    return GrowthClassifierReport(
        eps, c_fit, profile.ball_sizes, tuple(ratios)
    )
