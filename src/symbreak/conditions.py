"""Structural sufficient conditions and quantitative bound arithmetic.

Implements, on finite graphs and finite-radius truncations: the distinct
spheres check with an explicit safe horizon, sphere equivalence and
suborbit equivalence with an exception budget (plus the class-stabiliser
refinement iteration), Cartesian layer fixing under a colouring, the
equal-colour-count matching probability, and the growth-bound report.
Sphere and suborbit classes are decided orbit by orbit: an orbit's spheres
are built when it is read, its suborbits carried from one coloured search
(none when its points have trivial stabilisers) along its transversal.  The
layer-respecting fraction is the ratio of two coloured-search orders.  No
element is listed.
"""

from __future__ import annotations

import collections.abc
import functools
import io
import itertools
import math
import warnings
from fractions import Fraction

from .autsearch import SearchGroup, automorphism_group
from .colourings import Colouring, colouring_stabiliser
from .errors import InvariantError, check_cap
from .graphs import Graph, GrowthProfile, cartesian_product
from .groups import orbit_of, transversal
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
    `dsc_check` the two lists are read-only sequences and
    ``first_separating_n`` a read-only mapping over its per-layer class
    tables: iteration generates the pairs afresh, and any other read builds
    the tuple or dict they stand for once.
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
            "first_separating_n": {f"{x},{y}": n for (x, y), n in self._separations_by_pair()},
        }

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("x,y,first_separating_n\n")
        out.writelines(f"{x},{y},{n}\n" for (x, y), n in self._separations_by_pair())
        out.writelines(f"{x},{y},violation\n" for x, y in self.violations)
        out.writelines(f"{x},{y},at_horizon\n" for x, y in self.at_horizon)
        return out.getvalue()

    def _separations_by_pair(self):
        """``first_separating_n``'s items by pair: sorted only when one pass
        over the keys finds them out of order, never on a family truncation."""
        separations = self.first_separating_n
        if all(a < b for a, b in itertools.pairwise(separations)):
            return separations.items()
        return sorted(separations.items())

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
    any sphere is built.  Then one layer of equidistant vertices at a time
    (`_DscLayer`): level by level, each vertex whose class still holds
    another vertex draws its next sphere, up to the safe horizon
    radius - d(root, v).  A pair separates at the first level where its two
    classes differ and is a violation when they end in one class; the
    report reads both off the class tables.
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
    check_cap(pairs, DSC_PAIR_CAP, "{required} equidistant pairs exceed the dsc pair cap {cap}")

    inner, horizon = [], []
    for depth, vertices in sorted(by_depth.items()):
        if len(vertices) > 1:
            # with no safe range the layer is one class, at the horizon
            layers = inner if radius - depth >= 1 else horizon
            layers.append(_DscLayer(g, vertices, radius - depth))
    rule = (
        "S_x(n) trusted iff n + d(root, x) <= radius; "
        "pairs compared over 1 <= n <= radius - depth"
    )
    return DscReport(
        v0, radius, rule, pairs,
        _LazyTuple(sum(layer.same for layer in inner), functools.partial(_same_pairs, inner)),
        _LazyTuple(sum(layer.same for layer in horizon), functools.partial(_same_pairs, horizon)),
        _LazyDict(sum(layer.separated for layer in inner), functools.partial(_separations, inner)),
    )


class _DscLayer:
    """One depth's vertices, ascending, and their sphere classes.

    ``levels[n - 1][i]`` is vertex i's class id at level n, interned from
    its class at level n - 1 and S(n), so two vertices share it iff their
    spheres agree on 1..n.  Only a vertex whose class holds another draws
    S(n); a vertex alone in its class stays apart by its class id, so it
    gets no sphere.  The levels stop at the horizon or when every class is
    a single vertex.  With no levels the layer is one class.  No sphere is
    kept.
    """

    __slots__ = ("vertices", "levels", "same", "separated")

    def __init__(self, g, vertices, horizon):
        self.vertices, self.levels = vertices, []
        walks = [_spheres(g, v) for v in vertices]
        classes = [0] * len(vertices)
        sizes = {0: len(vertices)}
        for _ in range(horizon):
            spheres = [next(w, None) if sizes[c] > 1 else None for c, w in zip(classes, walks)]
            if not any(spheres):
                # two vertices that agree on S(1..n-1) are n or more apart, so each has
                # an S(n): no sphere drawn means every class is a single vertex
                break
            ids = {}
            classes = [ids.setdefault(key, len(ids)) for key in zip(classes, spheres)]
            self.levels.append(classes)
            sizes = collections.Counter(classes)
        self.same = sum(c * (c - 1) // 2 for c in sizes.values())  # pairs ending in one class
        self.separated = len(vertices) * (len(vertices) - 1) // 2 - self.same

    def pairs(self):
        """((x, y), n) for each pair i < j, in layer order: n is the first
        level at which they differ, 0 if none."""
        vs = self.vertices
        for i, x in enumerate(vs):
            first = [0] * (len(vs) - i - 1)
            for n in range(len(self.levels), 0, -1):  # the last write is the least n
                row = self.levels[n - 1]
                ci = row[i]
                first = [n if c != ci else f for c, f in zip(row[i + 1 :], first)]
            yield from zip(zip(itertools.repeat(x), vs[i + 1 :]), first)


def _same_pairs(layers):
    """The pairs of `layers` that end in one class."""
    for layer in layers:
        if not layer.separated:
            yield from itertools.combinations(layer.vertices, 2)
        elif layer.same:
            yield from (pair for pair, n in layer.pairs() if not n)


def _separations(layers):
    """(pair, first separating level) for the separated pairs of `layers`."""
    for layer in layers:
        if layer.separated:
            yield from (item for item in layer.pairs() if item[1])


class _Lazy:
    """`size` items that ``generate()`` yields afresh on each iteration;
    any other read uses one `_container` of them, built on first use."""

    _container = tuple

    def __init__(self, size, generate):
        self._size, self._generate, self._built = size, generate, None

    def _value(self):
        if self._built is None:
            self._built = self._container(self._generate())
        return self._built

    def __len__(self):
        return self._size

    def __eq__(self, other):
        return self._value() == other

    def __repr__(self):
        return repr(self._value())


class _LazyTuple(_Lazy, collections.abc.Sequence):
    def __iter__(self):
        return self._generate()

    def __getitem__(self, k):
        return self._value()[k]

    def __contains__(self, item):
        return item in self._value()


class _LazyDict(_Lazy, collections.abc.Mapping):
    """Generates (key, value) items: iterating the keys or ``items()``
    builds no dict."""

    _container = dict

    def __iter__(self):
        return (key for key, _ in self._generate())

    def items(self):
        return _GeneratedItems(self)

    def __getitem__(self, key):
        try:
            return self._value()[key]
        except TypeError:  # an unhashable key is simply absent
            raise KeyError(key) from None


class _GeneratedItems(collections.abc.ItemsView):
    def __iter__(self):
        return self._mapping._generate()


def _spheres(g: Graph, v):
    """Yield S_v(1), S_v(2), ... as frozensets, up to v's eccentricity."""
    seen, frontier = {v}, [v]
    while True:
        layer = []
        for u in frontier:
            for w in g.adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    layer.append(w)
        if not layer:
            return
        yield frozenset(layer)
        frontier = layer


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


def _classes_from_pairwise(n, orbits, orbit_test, relation, parameters):
    """Classes of 0..n-1 within `orbits`: for an orbit of two or more points,
    orbit_test(orbit) decides each pair s < t of the ascending orbit and is
    dropped before the next orbit is read; pairs across orbits never relate."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    positive = set()
    for orbit in orbits:
        if len(orbit) > 1:
            test = orbit_test(orbit)
            for s, t in itertools.combinations(orbit, 2):
                if test(s, t):
                    positive.add((s, t))
                    ra, rb = find(s), find(t)
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)
            del test

    by_root = {}
    for v in range(n):
        by_root.setdefault(find(v), []).append(v)
    classes = tuple(tuple(sorted(c)) for _, c in sorted(by_root.items()))

    closure_added = tuple(
        pair for cls in classes for pair in itertools.combinations(cls, 2) if pair not in positive
    )
    return EquivalenceClasses(relation, classes, parameters, closure_added)


# -- sphere equivalence -----------------------------------------------------


class SphereEquivalenceResult(JsonFields):
    equivalent: bool
    in_same_orbit: bool
    matched_n0: int | None
    horizon: int


def _vertex_spheres(g: Graph, vertices, depth):
    """vertex -> [S_v(1), S_v(2), ...]; on a truncation, whose root has the
    distance row `depth`, only up to the safe range."""
    spheres = {}
    for v in vertices:
        safe = None if depth is None else max(g.truncation.radius - depth[v], 0)
        spheres[v] = list(itertools.islice(_spheres(g, v), safe))
    return spheres


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


def _sphere_pair(g: Graph, u, v, spheres, depth, n0_max, horizon, in_orbit) -> SphereEquivalenceResult:
    su, sv = spheres[u], spheres[v]
    if depth is None:
        safe = max(len(su), len(sv))
    else:
        safe = g.truncation.radius - max(depth[u], depth[v])
    if horizon is None:
        horizon = max(safe, 0)
    elif horizon > safe:
        raise ValueError(f"horizon {horizon} exceeds the safe range {safe}")
    matched_n0 = None
    if in_orbit:
        # largest suffix [agree_from .. horizon] on which the spheres agree,
        # scanned from the top; past its end a list's spheres are empty (no
        # listed sphere is), so one-sphere slices compare them
        agree_from = 0 if u == v else 1 + next(
            (n for n in range(horizon, 0, -1) if su[n - 1 : n] != sv[n - 1 : n]), 0
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

    Spheres come from one breadth-first walk per vertex (`_spheres`).
    The horizon defaults to the safe range and may not exceed it: the last
    radius at which u or v has a non-empty sphere, or on a truncation
    radius - max(depth(u), depth(v)).
    """
    g._check_vertex(u)
    g._check_vertex(v)
    _check_sphere_bounds(n0_max, horizon)
    depth = None if g.truncation is None else g.distances(g.truncation.root)
    spheres = _vertex_spheres(g, (u, v), depth)
    in_orbit = v in orbit_of((u,), automorphism_group(g).generators)
    return _sphere_pair(g, u, v, spheres, depth, n0_max, horizon, in_orbit)


def sphere_classes(
    g: Graph,
    n0_max: int | None = None,
    horizon: int | None = None,
) -> EquivalenceClasses:
    """Classes of `sphere_equivalence`, each orbit's spheres built when it is
    read; an explicit horizon is checked only on pairs in one orbit."""
    _check_sphere_bounds(n0_max, horizon)
    depth = None if g.truncation is None else g.distances(g.truncation.root)

    def orbit_test(orbit):
        spheres = _vertex_spheres(g, orbit, depth)
        return lambda s, t: _sphere_pair(g, s, t, spheres, depth, n0_max, horizon, True).equivalent

    orbits = automorphism_group(g).orbits()
    parameters = {"n0_max": n0_max, "horizon": horizon}
    return _classes_from_pairwise(g.vertex_count, orbits, orbit_test, "sphere", parameters)


# -- suborbit equivalence ---------------------------------------------------


def _suborbit_rows(group: SearchGroup, r, trans, points):
    """(|D_0|, |D_1|, ...) and {p: row p} for `points` of the orbit of r.

    The D_i are the suborbits of r in `group` = Aut(g, colours), from its
    pointwise stabiliser Fix(r), which orbit-stabiliser checks.  u_p = trans[p]
    maps r to p and Stab(r) onto Stab(p), so row p labels v with i when v
    lies in the suborbit u_p(D_i) of p.  Any phi with phi(s) = t maps
    u_s(D_i) onto u_t(D_i), as phi * u_s = u_t * sigma with sigma fixing r.
    """
    if len(trans) == group.order():  # Stab(r) = 1: each D_i is one point, no search
        return [1] * group.degree, {p: list(trans[p].inverse().images) for p in points}
    stabiliser = group.pointwise_stabiliser((r,))
    if stabiliser.order() * len(trans) != group.order():
        raise InvariantError(f"Stab({r}) of order {stabiliser.order()} breaks orbit-stabiliser")
    suborbits = stabiliser.orbits()
    index = _block_index(suborbits, group.degree)
    rows = {p: [index[w] for w in trans[p].inverse().images] for p in points}
    return [len(d) for d in suborbits], rows


def _mismatch_count(sizes, row_s, row_t):
    """The points any phi with phi(s) = t moves across suborbits of s: the
    total size of the D_i at which the rows of s and t differ."""
    return sum(sizes[i] for i in {a for a, b in zip(row_s, row_t) if a != b})


def suborbit_equivalence(g: Graph, s: int, t: int, budget: int) -> bool:
    """s ~ t: some element maps s to t moving at most `budget` points across
    stabiliser suborbits (the finite surrogate for 'all but finitely many').
    One coloured search, fixing s, decides the pair."""
    if budget < 0:
        raise ValueError("budget must be non-negative")
    n = g.vertex_count
    for p in (s, t):
        if type(p) is not int or not 0 <= p < n:
            raise ValueError(f"invalid point {p}")
    group = automorphism_group(g)
    _, trans = transversal(s, group.generators, n)
    if t not in trans:
        return False
    sizes, rows = _suborbit_rows(group, s, trans, (s, t))
    return _mismatch_count(sizes, rows[s], rows[t]) <= budget


def suborbit_classes(g: Graph, budget: int) -> EquivalenceClasses:
    if budget < 0:
        raise ValueError("budget must be non-negative")
    return _suborbit_classes(automorphism_group(g), budget)


def _suborbit_classes(group: SearchGroup, budget) -> EquivalenceClasses:
    """Suborbit classes of `group` = Aut(g, colours): rows carried from each
    orbit's least point decide the orbit's pairs."""

    def orbit_test(orbit):
        _, trans = transversal(orbit[0], group.generators, group.degree)
        sizes, rows = _suborbit_rows(group, orbit[0], trans, orbit)
        return lambda s, t: _mismatch_count(sizes, rows[s], rows[t]) <= budget

    parameters = {"budget": budget}
    return _classes_from_pairwise(group.degree, group.orbits(), orbit_test, "suborbit", parameters)


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
        classes = _suborbit_classes(group, budget)
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
