"""Finite simple graphs with distance services, products, and family truncations.

Graphs are immutable after construction: vertices are dense indices
0..n-1, adjacency lists are sorted tuples, and optional per-vertex labels
carry family coordinates (integers for the double ray, tuples for grids and
trees, pairs for Cartesian products).  A graph produced by truncating an
infinite family records its root and radius so downstream sphere
computations know the safe horizon.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import deque

from .errors import GraphFormatError, check_cap
from .jsonfields import JsonFields, Record, json_value

UNREACHABLE = -1


class Truncation(Record):
    """Marks a graph as the ball of an infinite family: B_root(radius)."""

    root: int
    radius: int


class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    __slots__ = ("adjacency", "labels", "truncation")

    def __init__(self, adjacency, labels=None, truncation=None):
        adj = tuple(tuple(sorted(nbrs)) for nbrs in adjacency)
        n = len(adj)
        for v, nbrs in enumerate(adj):
            last = -1
            for u in nbrs:
                if not 0 <= u < n:
                    raise GraphFormatError(f"vertex {u} out of range in adjacency of {v}")
                if u == v:
                    raise GraphFormatError(f"self-loop at vertex {v}")
                if u == last:
                    raise GraphFormatError(f"duplicate edge {v}-{u}")
                last = u
        for v, nbrs in enumerate(adj):
            for u in nbrs:
                row = adj[u]  # sorted, so v is found by bisection
                i = bisect_left(row, v)
                if i == len(row) or row[i] != v:
                    raise GraphFormatError(f"edge {v}-{u} missing its reverse")
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "labels", tuple(labels) if labels is not None else None)
        if self.labels is not None and len(self.labels) != n:
            raise GraphFormatError("labels length differs from vertex count")
        object.__setattr__(self, "truncation", truncation)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @classmethod
    def from_edges(cls, vertex_count, edges, labels=None, truncation=None):
        """Self-loops and duplicate edges are refused by `Graph` itself."""
        if vertex_count < 0:
            raise GraphFormatError(f"vertex count {vertex_count} is negative")
        adj = [[] for _ in range(vertex_count)]
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise GraphFormatError(f"edge ({u}, {v}) out of range")
            adj[u].append(v)
            adj[v].append(u)
        return cls(adj, labels=labels, truncation=truncation)

    @property
    def vertex_count(self):
        return len(self.adjacency)

    @property
    def edge_count(self):
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def edges(self):
        return [(u, v) for u in range(self.vertex_count) for v in self.adjacency[u] if u < v]

    def degree(self, v):
        return len(self.adjacency[v])

    def _check_vertex(self, v):
        if type(v) is not int or not 0 <= v < self.vertex_count:  # `True` is no vertex
            raise ValueError(f"invalid vertex index {v!r} for graph on {self.vertex_count} vertices")

    def distances(self, v):
        """BFS distances from v; UNREACHABLE (-1) marks other components.

        Each call runs one search and nothing is cached: a caller that reads
        a row more than once keeps it.
        """
        self._check_vertex(v)
        dist = [UNREACHABLE] * self.vertex_count
        dist[v] = 0
        queue = deque([v])
        while queue:
            u = queue.popleft()
            du = dist[u]
            for w in self.adjacency[u]:
                if dist[w] == UNREACHABLE:
                    dist[w] = du + 1
                    queue.append(w)
        return tuple(dist)

    def is_connected(self):
        return self.vertex_count == 0 or UNREACHABLE not in self.distances(0)

    def is_tree(self):
        return self.edge_count == self.vertex_count - 1 and self.is_connected()

    def __repr__(self):
        return f"Graph(n={self.vertex_count}, m={self.edge_count})"


# ---------------------------------------------------------------------------
# Named finite graphs


def path_graph(n):
    vertices = list(range(n))  # one int object per vertex, shared by its two edges
    return Graph.from_edges(n, zip(vertices, vertices[1:]))


def cycle_graph(n):
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star_graph(leaves):
    """K_{1,leaves} with the centre at index 0."""
    return complete_bipartite(1, leaves)


def hypercube(dim):
    g = complete_graph(2)
    for _ in range(dim - 1):
        g = cartesian_product(g, complete_graph(2))
    return g


def rooted_tree(branching, depth):
    """Tree in which every vertex above the last level has `branching` children.

    Vertices come in breadth-first order with path-tuple labels; the root is 0.
    """
    if branching < 1 or depth < 0:
        raise ValueError("branching >= 1 and depth >= 0 required")
    return _bfs_tree(branching, branching, depth)


def _bfs_tree(root_children, children, depth, truncation=None):
    """The root gets `root_children` children and every later vertex above
    the last level `children`; breadth-first order, path-tuple labels."""
    labels = [()]
    edges = []
    level = [0]
    for d in range(depth):
        nxt = []
        for v in level:
            for i in range(root_children if d == 0 else children):
                w = len(labels)
                labels.append(labels[v] + (i,))
                edges.append((v, w))
                nxt.append(w)
        level = nxt
    return Graph.from_edges(len(labels), edges, labels=labels, truncation=truncation)


# ---------------------------------------------------------------------------
# Cartesian products


#: `cartesian_product` refuses more vertices than this before building any.
PRODUCT_VERTEX_CAP = 50_000_000


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Cartesian product: (a, b) ~ (c, d) iff (a=c and b~d) or (a~c and b=d).

    Vertex (i, j) gets index i * n2 + j and a pair label built from the factor
    labels (falling back to factor indices).  Distances add across factors.
    """
    n1, n2 = g1.vertex_count, g2.vertex_count
    message = f"{n1} x {n2} = {{required}} product vertices exceed the cap {{cap}}"
    check_cap(n1 * n2, PRODUCT_VERTEX_CAP, message)
    lab1 = g1.labels if g1.labels is not None else tuple(range(n1))
    lab2 = g2.labels if g2.labels is not None else tuple(range(n2))
    labels = [(lab1[i], lab2[j]) for i in range(n1) for j in range(n2)]
    edges = []
    for i in range(n1):
        base = i * n2
        for j in range(n2):
            for j2 in g2.adjacency[j]:
                if j2 > j:
                    edges.append((base + j, base + j2))
        for i2 in g1.adjacency[i]:
            if i2 > i:
                for j in range(n2):
                    edges.append((base + j, i2 * n2 + j))
    return Graph.from_edges(n1 * n2, edges, labels=labels)


def truncate_to_ball(g: Graph, root: int, radius: int) -> Graph:
    """Induced subgraph on B_root(radius), relabelled in (distance, index) order.

    The root becomes vertex 0 and the result records its truncation data.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    dist = g.distances(root)
    keep = sorted(
        (v for v in range(g.vertex_count) if 0 <= dist[v] <= radius),
        key=lambda v: (dist[v], v),
    )
    index = {v: i for i, v in enumerate(keep)}
    edges = [
        (index[u], index[v])
        for u in keep
        for v in g.adjacency[u]
        if v in index and index[u] < index[v]
    ]
    labels = None
    if g.labels is not None:
        labels = [g.labels[v] for v in keep]
    return Graph.from_edges(
        len(keep), edges, labels=labels, truncation=Truncation(0, radius)
    )


# ---------------------------------------------------------------------------
# Infinite-family truncations


class FamilySpec(JsonFields):
    """Declarative description of an infinite family plus truncation radius.

    Kinds and parameters:

    - ``regular_tree``: params ``{"degree": d}`` with d >= 3
    - ``double_ray``: no params (the two-way infinite path)
    - ``grid``: params ``{"dimension": k}`` with k >= 1
    - ``ladder``: no params (double ray times an edge)
    - ``cartesian_product``: params ``{"left": <FamilySpec or file>, "right": ...}``
    - ``custom``: params ``{"file": <path>}`` or ``{"graph": <graph JSON>}``,
      optional ``{"root": v}`` (default 0)

    The generated graph is the ball of the given radius around the family
    root, with the root at index 0.
    """

    kind: str
    params: dict
    radius: int

    @classmethod
    def from_json_dict(cls, data):
        if not isinstance(data, dict) or "kind" not in data:
            raise GraphFormatError("family spec must be an object with a 'kind'")
        spec = cls(data["kind"], data.get("params", {}), data.get("radius", 0))
        _check_spec_fields(spec)
        return spec


def _check_spec_fields(spec):
    """Refuse `params` that is not an object and a `radius` that is not an int."""
    if not isinstance(spec.params, dict):
        raise GraphFormatError("family spec 'params' must be an object")
    _spec_int("radius", spec.radius)


def _spec_int(name, value):
    """`value` if it is an int; a bool, float, string or null is refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise GraphFormatError(
            f"family spec {name!r} must be an integer, not {json.dumps(value, default=repr)}"
        )
    return value


def _spec_param(spec, name):
    """The param `name` of `spec`, which must be present."""
    if name not in spec.params:
        raise GraphFormatError(f"{spec.kind} family spec needs the param {name!r}")
    return spec.params[name]


def _generate_regular_tree(degree, radius):
    if degree < 3:
        raise ValueError("regular_tree needs degree >= 3")
    return _bfs_tree(degree, degree - 1, radius, Truncation(0, radius))


def _generate_double_ray(radius):
    # the one-dimensional grid, its 1-tuple labels unwrapped: 0, -1, 1, -2, 2, ...
    line = _generate_grid(1, radius)
    return Graph(line.adjacency, labels=[p for (p,) in line.labels], truncation=line.truncation)


def _generate_grid(dimension, radius):
    if dimension < 1:
        raise ValueError("grid needs dimension >= 1")
    points = [(0,) * dimension]
    frontier = {points[0]}
    seen = set(frontier)
    for _ in range(radius):
        nxt = set()
        for p in frontier:
            for axis in range(dimension):
                for step in (-1, 1):
                    q = p[:axis] + (p[axis] + step,) + p[axis + 1 :]
                    if q not in seen:
                        nxt.add(q)
        seen |= nxt
        points.extend(sorted(nxt))
        frontier = nxt
    index = {p: i for i, p in enumerate(points)}
    edges = []
    for p, i in index.items():
        for axis in range(dimension):
            q = p[:axis] + (p[axis] + 1,) + p[axis + 1 :]
            j = index.get(q)
            if j is not None:
                edges.append((i, j))
    return Graph.from_edges(
        len(points), edges, labels=points, truncation=Truncation(0, radius)
    )


def _factor_graph(value, radius):
    """A product factor: a nested family spec object or a file path."""
    if isinstance(value, str):
        return load_graph(value)
    if isinstance(value, dict):
        return generate_family(FamilySpec.from_json_dict({"radius": radius, **value}))
    raise GraphFormatError("product factor must be a family spec object or a file path")


def generate_family(spec: FamilySpec) -> Graph:
    """Build the radius-R ball of the declared infinite family, root at index 0.

    Labelling is deterministic (lexicographic breadth-first order from the
    root), so truncations of the same family at increasing radii are nested.
    """
    _check_spec_fields(spec)
    if spec.radius < 0:
        raise ValueError("radius must be non-negative")
    kind = spec.kind
    if kind == "regular_tree":
        return _generate_regular_tree(_spec_int("degree", _spec_param(spec, "degree")), spec.radius)
    if kind == "double_ray":
        return _generate_double_ray(spec.radius)
    if kind == "grid":
        return _generate_grid(_spec_int("dimension", _spec_param(spec, "dimension")), spec.radius)
    if kind == "ladder":
        rail = _generate_double_ray(spec.radius)
        rung = Graph.from_edges(2, [(0, 1)], labels=[0, 1])
        return truncate_to_ball(cartesian_product(rail, rung), 0, spec.radius)
    if kind == "cartesian_product":
        left = _factor_graph(_spec_param(spec, "left"), spec.radius)
        right = _factor_graph(_spec_param(spec, "right"), spec.radius)
        product = cartesian_product(left, right)
        return truncate_to_ball(product, 0, spec.radius)
    if kind == "custom":
        if "graph" in spec.params:
            g = graph_from_json_dict(spec.params["graph"])
        elif "file" in spec.params:
            g = load_graph(spec.params["file"])
        else:
            raise GraphFormatError("custom family needs a 'file' or inline 'graph'")
        root = _spec_int("root", spec.params.get("root", 0))
        return truncate_to_ball(g, root, spec.radius)
    raise GraphFormatError(f"unknown family kind {kind!r}")


# ---------------------------------------------------------------------------
# Growth sequences


class GrowthProfile(JsonFields):
    """Sphere and ball cardinalities around a root, indexed by radius."""

    ball_sizes: tuple
    sphere_sizes: tuple
    eccentricity: int


def growth_sequence(g: Graph, v0: int, radius: int | None = None) -> GrowthProfile:
    """Exact |S_v0(n)| and |B_v0(n)| for n = 0..radius.

    Without a radius, the radius is the eccentricity of v0, read from the
    same distance row.  Entries beyond the eccentricity are zero spheres;
    the profile records it so callers can see where the graph ran out.
    """
    if radius is not None and radius < 0:
        raise ValueError("radius must be non-negative")
    dist = g.distances(v0)
    ecc = max(dist)
    if radius is None:
        radius = ecc
    sphere_sizes = [0] * (radius + 1)
    for d in dist:
        if 0 <= d <= radius:
            sphere_sizes[d] += 1
    ball_sizes = []
    total = 0
    for s in sphere_sizes:
        total += s
        ball_sizes.append(total)
    return GrowthProfile(tuple(ball_sizes), tuple(sphere_sizes), ecc)


# ---------------------------------------------------------------------------
# Serialization: text format ("n m" header then "u v" lines) and JSON


def parse_graph_text(text: str) -> Graph:
    lines = text.splitlines()
    header_idx = None
    for idx, raw in enumerate(lines):
        if raw.strip() and not raw.lstrip().startswith("#"):
            header_idx = idx
            break
    if header_idx is None:
        raise GraphFormatError("empty graph file")
    header = lines[header_idx].split()
    if len(header) != 2:
        raise GraphFormatError("header must be 'n m'", line=header_idx + 1)
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphFormatError("header must contain two integers", line=header_idx + 1)
    edges = []
    for offset, raw in enumerate(lines[header_idx + 1 :], start=header_idx + 2):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise GraphFormatError("edge line must be 'u v'", line=offset)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError("edge endpoints must be integers", line=offset)
        edges.append((u, v))
        if len(edges) > m:
            raise GraphFormatError(f"more than {m} edges", line=offset)
    if len(edges) != m:
        raise GraphFormatError(f"expected {m} edges, found {len(edges)}")
    return Graph.from_edges(n, edges)


def graph_to_json_dict(g: Graph) -> dict:
    data = {"vertex_count": g.vertex_count, "edges": json_value(g.edges())}
    if g.labels is not None:
        data["labels"] = json_value(g.labels)
    return data


def _label_from_json(label):
    if isinstance(label, list):
        return tuple(_label_from_json(x) for x in label)
    return label


def graph_from_json_dict(data) -> Graph:
    if not isinstance(data, dict) or "vertex_count" not in data or "edges" not in data:
        raise GraphFormatError("graph JSON needs 'vertex_count' and 'edges'")
    vertex_count, edges = data["vertex_count"], data["edges"]
    if type(vertex_count) is not int:  # `true` and 2.7 are no vertex counts
        raise GraphFormatError("graph JSON 'vertex_count' must be an integer")
    if not isinstance(edges, list):
        raise GraphFormatError("graph JSON 'edges' must be a list of [u, v] pairs")
    for e in edges:
        # bool is a subclass of int, but `true` is no vertex
        if not (isinstance(e, list) and len(e) == 2 and all(type(v) is int for v in e)):
            raise GraphFormatError(f"edge {json.dumps(e)} is not a pair of integers")
    labels = data.get("labels")
    if labels is not None:
        if not isinstance(labels, list):
            raise GraphFormatError("graph JSON 'labels' must be a list")
        labels = [_label_from_json(lab) for lab in labels]
    return Graph.from_edges(vertex_count, [tuple(e) for e in edges], labels=labels)


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"invalid JSON: {exc}", line=exc.lineno)
        return graph_from_json_dict(data)
    return parse_graph_text(text)
