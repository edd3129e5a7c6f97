"""Reference values computed without symbreak.

Every check in the benchmark compares symbreak's output with a value from
this module: closed forms, brute force over groups the benchmark builds
itself, AHU tree codes, and a recount of Monte Carlo trials.  Only numpy
and the standard library are used here.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

_MASK64 = (1 << 64) - 1


# -- graphs as plain adjacency -------------------------------------------------


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def bfs(adj, root):
    dist = [-1] * len(adj)
    dist[root] = 0
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def is_automorphism(images, adj, colours=None):
    n = len(adj)
    if sorted(images) != list(range(n)):
        return False
    if colours is not None and any(colours[images[v]] != colours[v] for v in range(n)):
        return False
    return all({images[w] for w in adj[v]} == adj[images[v]] for v in range(n))


def automorphisms(adj, colours=None):
    """All (colour-preserving) automorphisms of a small graph, by backtracking."""
    n = len(adj)
    degree = [len(a) for a in adj]
    colour = colours if colours is not None else [0] * n
    out = []
    images = [-1] * n
    used = [False] * n

    def extend(v):
        if v == n:
            out.append(tuple(images))
            return
        for w in range(n):
            if used[w] or degree[w] != degree[v] or colour[w] != colour[v]:
                continue
            if all((images[u] in adj[w]) == (u in adj[v]) for u in range(v)):
                images[v] = w
                used[w] = True
                extend(v + 1)
                used[w] = False
        images[v] = -1

    extend(0)
    return out


# -- closed forms ----------------------------------------------------------------


def hypercube_order(d):
    return 2**d * math.factorial(d)


def regular_tree_order(d, radius):
    """d! * ((d-1)!)^(internal non-root vertices) for the radius-R ball."""
    if radius == 0:
        return 1
    internal = sum(d * (d - 1) ** (depth - 1) for depth in range(1, radius))
    return math.factorial(d) * math.factorial(d - 1) ** internal


def grid_ball_motion(radius):
    """An axis reflection of the L1 ball of Z^2 fixes 2R+1 of 2R^2+2R+1 points."""
    return 2 * radius * radius


def path_distinguishing(n):
    """P[a 2-colouring of P_n is distinguishing] = 1 - 2^(ceil(n/2) - n)."""
    return 1 - Fraction(1, 2 ** (n - (n + 1) // 2))


def match_probability(n):
    return Fraction(math.comb(2 * n, n), 4**n)


def symmetric_measure(n):
    """E|Stab|/|Aut| for K_n: sum over S_n of 2^cycles is (n+1)!."""
    return Fraction(math.factorial(n + 1), math.factorial(n) * 2**n)


def dihedral_measure(n):
    """E|Stab|/|Aut| for C_n from the cycle counts of the dihedral group."""
    total = sum(2 ** math.gcd(k, n) for k in range(n))
    if n % 2:
        total += n * 2 ** ((n + 1) // 2)
    else:
        total += (n // 2) * 2 ** (n // 2 + 1) + (n // 2) * 2 ** (n // 2)
    return Fraction(total, 2 * n * 2**n)


def russel_sundaram(order, motion):
    half_up = (motion + 1) // 2
    return Fraction(order - 1, 2**half_up), 2**half_up >= order


# -- groups the benchmark builds itself -------------------------------------------


def cycle_elements(n):
    rot = [tuple((i + k) % n for i in range(n)) for k in range(n)]
    ref = [tuple((k - i) % n for i in range(n)) for k in range(n)]
    return rot + ref


def hypercube_elements(d):
    """Coordinate permutations composed with translations of {0,1}^d."""
    out = []
    for perm in itertools.permutations(range(d)):
        moved = [sum(1 << j for i, j in enumerate(perm) if (x >> i) & 1) for x in range(2**d)]
        out.extend(tuple(y ^ mask for y in moved) for mask in range(2**d))
    return out


def hypercube_edges(d):
    return {(x, x ^ (1 << i)) for x in range(2**d) for i in range(d) if x < x ^ (1 << i)}


def square_symmetries():
    """The eight symmetries of Z^2 fixing the origin, as coordinate maps."""
    maps = []
    for swap in (False, True):
        for sx in (1, -1):
            for sy in (1, -1):
                maps.append(
                    lambda p, swap=swap, sx=sx, sy=sy: (
                        (sx * p[1], sy * p[0]) if swap else (sx * p[0], sy * p[1])
                    )
                )
    return maps


# -- colourings -----------------------------------------------------------------


def colouring_matrix(n):
    """All 2^n 2-colourings as rows; bit v of the row index colours vertex v."""
    idx = np.arange(2**n, dtype=np.int64)[:, None]
    return ((idx >> np.arange(n)) & 1).astype(np.int8)


def preserved_any(colourings, elements):
    """Row mask: some non-identity element preserves the colouring."""
    n = colourings.shape[1]
    ident = tuple(range(n))
    hit = np.zeros(colourings.shape[0], dtype=bool)
    for e in elements:
        if tuple(e) != ident:
            hit |= (colourings[:, list(e)] == colourings).all(axis=1)
    return hit


def distinguishing_probability(n, elements):
    hit = preserved_any(colouring_matrix(n), elements)
    return Fraction(int((~hit).sum()), 2**n)


def trial_colourings(seed, stream_id, trials, n):
    """The 2-colourings of MC trials 0..trials-1 under the documented Philox
    stream contract: trial t reads stream (stream_id * 2^32 + t) mod 2^64 of
    master seed `seed`; with two colours every raw word is accepted."""
    rows = np.empty((trials, n), dtype=np.int8)
    for t in range(trials):
        key = np.array([seed & _MASK64, (stream_id * (1 << 32) + t) & _MASK64], dtype=np.uint64)
        words = np.random.Philox(key=key).random_raw(max(n, 16))[:n]
        rows[t] = (words % np.uint64(2)).astype(np.int8)
    return rows


def mc_successes(seed, stream_id, trials, n, elements, block=256):
    """Number of distinguishing colourings among the MC trials."""
    rows = trial_colourings(seed, stream_id, trials, n)
    count = 0
    for start in range(0, trials, block):
        count += int((~preserved_any(rows[start : start + block], elements)).sum())
    return count


def within_5_se(successes, trials, p):
    estimate = Fraction(successes, trials)
    if p in (0, 1):
        return estimate == p
    se = math.sqrt(float(p) * (1 - float(p)) / trials)
    return abs(float(estimate) - float(p)) <= 5 * se


# -- trees (AHU codes) ------------------------------------------------------------


def tree_centres(adj):
    n = len(adj)
    if n <= 2:
        return list(range(n))
    degree = [len(a) for a in adj]
    leaves = [v for v in range(n) if degree[v] <= 1]
    remaining = n
    while remaining > 2:
        remaining -= len(leaves)
        nxt = []
        for v in leaves:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        leaves = nxt
    return sorted(leaves)


def rooted_codes(adj, root, colours=None):
    """Interned AHU codes, subtree sizes, children and automorphism counts.

    Returns (code, size, children, aut) dicts over the tree rooted at root;
    aut[v] is the order of the group of the subtree at v fixing v.
    """
    parent = {root: None}
    order = [root]
    for v in order:
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    children = {v: [] for v in order}
    for v in order[1:]:
        children[parent[v]].append(v)
    intern = {}
    code, size, aut = {}, {}, {}
    for v in reversed(order):
        kids = sorted(code[c] for c in children[v])
        key = (colours[v] if colours is not None else 0, tuple(kids))
        code[v] = intern.setdefault(key, len(intern))
        size[v] = 1 + sum(size[c] for c in children[v])
        a = 1
        for c in children[v]:
            a *= aut[c]
        for _, group in itertools.groupby(kids):
            a *= math.factorial(len(list(group)))
        aut[v] = a
    return code, size, children, aut


def _sibling_swap_support(code, size, children):
    best = None
    for v, kids in children.items():
        seen = {}
        for c in kids:
            if code[c] in seen:
                cand = 2 * size[c]
                best = cand if best is None else min(best, cand)
            seen[code[c]] = c
    return best


def tree_order_and_motion(adj):
    """|Aut(T)| and the motion (None for a rigid tree) of an uncoloured tree.

    The smallest support is a swap of two equal sibling subtrees, or the
    whole vertex set for the flip of a bicentral tree with equal halves.
    """
    n = len(adj)
    centres = tree_centres(adj)
    if len(centres) == 1:
        code, size, children, aut = rooted_codes(adj, centres[0])
        order = aut[centres[0]]
        motion = _sibling_swap_support(code, size, children)
    else:
        a, b = centres
        # root both halves at a virtual vertex on the centre edge: one interning
        # table gives equal halves equal codes, and their swap is the flip
        merged = [set(x) for x in adj]
        merged[a].discard(b)
        merged[b].discard(a)
        virtual = n
        merged.append({a, b})
        merged[a].add(virtual)
        merged[b].add(virtual)
        code, size, children, aut = rooted_codes(merged, virtual)
        order = aut[virtual]
        motion = _sibling_swap_support(code, size, children)
    return order, (motion if order > 1 else None)


def has_root_fixing_symmetry(adj, root, colours):
    code, _, children, _ = rooted_codes(adj, root, colours=colours)
    return any(len({code[c] for c in kids}) < len(kids) for kids in children.values())


# -- structural conditions --------------------------------------------------------


def dsc_counts(adj, root, radius):
    """(checked pairs, violations, pairs at the horizon) of the distinct-spheres
    rule: a pair x, y at depth d is compared on spheres 1..radius-d."""
    n = len(adj)
    dist = bfs(adj, root)
    by_depth = {}
    for v in range(n):
        by_depth.setdefault(dist[v], []).append(v)
    rows = {}

    def spheres(v):
        if v not in rows:
            row = {}
            for u, d in enumerate(bfs(adj, v)):
                row.setdefault(d, set()).add(u)
            rows[v] = row
        return rows[v]

    checked = violations = horizon = 0
    for depth, vs in by_depth.items():
        safe = radius - depth
        k = len(vs)
        checked += k * (k - 1) // 2
        if safe < 1:
            horizon += k * (k - 1) // 2
            continue
        for i, x in enumerate(vs):
            for y in vs[i + 1 :]:
                sx, sy = spheres(x), spheres(y)
                if all(sx.get(m, set()) == sy.get(m, set()) for m in range(1, safe + 1)):
                    violations += 1
    return checked, violations, horizon


def _classes(n, related):
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for s in range(n):
        for t in range(s + 1, n):
            if related(s, t):
                ra, rb = find(s), find(t)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    out = {}
    for v in range(n):
        out.setdefault(find(v), []).append(v)
    return tuple(tuple(c) for _, c in sorted(out.items()))


def sphere_classes(adj, elements):
    """u ~ v: same orbit and equal spheres on a suffix ending at the horizon
    max(ecc u, ecc v) (graphs without truncation data)."""
    n = len(adj)
    dist = [bfs(adj, v) for v in range(n)]

    def related(u, v):
        if not any(e[u] == v for e in elements):
            return False
        horizon = max(max(dist[u]), max(dist[v]))
        su = [w for w in range(n) if dist[u][w] == horizon]
        sv = [w for w in range(n) if dist[v][w] == horizon]
        return horizon >= 1 and su == sv

    return _classes(n, related)


def _suborbit_mismatch(elements, s, t):
    n = len(elements[0])
    stab = [e for e in elements if e[s] == s]
    suborbits = {frozenset(e[x] for e in stab) for x in range(n)}
    best = None
    for phi in elements:
        if phi[s] != t:
            continue
        miss = sum(len(c) for c in suborbits if frozenset(phi[x] for x in c) != c)
        best = miss if best is None else min(best, miss)
    return best


def suborbit_classes(elements, budget):
    n = len(elements[0])

    def related(s, t):
        miss = _suborbit_mismatch(elements, s, t)
        return miss is not None and miss <= budget

    return _classes(n, related)


def gamma_refinement(elements, budget, max_levels=10):
    """(orders, fixpoint reached) of the suborbit-class refinement chain."""
    orders = []
    group = list(elements)
    for _ in range(max_levels):
        classes = [frozenset(c) for c in suborbit_classes(group, budget)]
        orders.append(len(group))
        kept = [e for e in group if all(frozenset(e[v] for v in c) == c for c in classes)]
        if len(kept) == len(group):
            return tuple(orders), True
        group = kept
    return tuple(orders), False
