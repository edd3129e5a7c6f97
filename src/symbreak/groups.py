"""Permutation groups via a base and strong generating set.

``PermGroup`` carries a stabiliser chain, giving exact (big-integer) order,
membership tests, capped element enumeration, orbits, and exact motion
(minimal support of a non-identity element).  A group from the
automorphism search of a graph that is not a tree arrives with its chain:
the search's generators are a strong generating set relative to its left
path, so only the transversals are built.  A group given by generators
alone (a tree's sibling swaps, a group built by hand) runs a deterministic
Schreier-Sims.  No subgroup is built here: every subgroup of Aut(G) is
Aut(G, c) ∩ Fix(S) for a colouring c and a point set S, from one
automorphism search (``automorphism_group(g, c, fixing=S)``), and the
group that search returns gives its pointwise stabilisers by the same
search.

Elements, element rows and motion share one walk over the chain: the
products rep_0 * rep_1 * ... * rep_{k-1} of one coset representative per
level, each level's representatives in one order.  ``elements()`` yields
every product; ``element_blocks()`` yields the same products as numpy
image rows, the deepest levels multiplied out once into an array and the
walk covering only the upper levels; motion walks the same products in
the same order, pruning a partial product once the points it already
decides move as many as the best support found.  No other module reads
the chain: the others see a group through its generators and queries.
"""

from __future__ import annotations

import itertools

from .errors import InvariantError, check_cap
from .jsonfields import JsonFields, json_value
from .perms import Perm

#: Default cap on explicit element enumeration.
DEFAULT_ENUMERATION_CAP = 10**6

#: Memory budget, in bytes, for one block of array work: a block of element
#: rows, or a block of Monte Carlo trials checked against the cycle partitions.
BLOCK_BYTES = 1 << 24


class _Level:
    __slots__ = ("point", "gens", "transversal", "orbit_order")

    def __init__(self, point, degree):
        self.point = point
        self.gens = []
        self.transversal = {point: Perm.identity(degree)}
        self.orbit_order = [point]


def transversal(point, gens, degree):
    """Breadth-first orbit of `point` under `gens`: (orbit order, transversal).

    The transversal maps each orbit point q to a coset representative u
    with u(point) = q, built as s * u_p along the first edge p -> q found.
    """
    trans = {point: Perm.identity(degree)}
    order = [point]
    for p in order:  # order grows while it is read: the BFS queue
        up = trans[p]
        for s in gens:
            q = s(p)
            if q not in trans:
                trans[q] = s * up
                order.append(q)
    return order, trans


def orbit_of(points, gens):
    """The set of points reachable from any of `points` under the perms `gens`."""
    seen = set(points)
    stack = list(seen)
    while stack:
        p = stack.pop()
        for g in gens:
            q = g.images[p]
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return seen


def _orbit_partition(degree, gens):
    """The orbits of `gens` on 0..degree-1, as sorted tuples by smallest
    point; the points are visited once, in order."""
    seen = set()
    out = []
    for p in range(degree):
        if p not in seen:
            orb = orbit_of((p,), gens)
            seen |= orb
            out.append(tuple(sorted(orb)))
    return tuple(out)


class MotionReport(JsonFields):
    """Minimal support over non-identity elements; motion is None for the
    trivial group.  The witness attains the minimum."""

    motion: int | None
    witness: Perm | None
    method: str


class PermGroup:
    """Group generated by permutations of 0..degree-1, with a BSGS chain.

    The chain is built lazily, without a lock, on the first query that
    needs it, so a group is not thread-safe; triviality is decidable from
    the generators alone.  A known `order` (from the automorphism search,
    or a tree's subtree codes) answers ``order()`` without a chain; a
    chain built later must agree with it.  A `base`, given with the order,
    says the generators are a strong generating set relative to it: the
    chain is then read off the generators, with no Schreier-Sims.  Without
    one (a tree's sibling swaps, a group built by hand from generators),
    Schreier-Sims builds the chain.  No subgroup is built here: the group
    ``automorphism_group`` returns gives its pointwise stabilisers by search.
    """

    def __init__(self, degree, generators, order=None, base=None):
        self.degree = degree
        self.generators = tuple(generators)
        for g in self.generators:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
        if base is not None and order is None:
            raise ValueError("a base needs the group order, which checks the chain")
        self._given_base = None if base is None else tuple(base)
        self._order = order
        self._levels = None
        self._chain_ready = False

    def _ensure_chain(self):
        if self._chain_ready:
            return
        if self._given_base is not None:
            self._levels_from_base()
        else:
            self._levels = []
            for g in self.generators:
                residue, j = self._strip(g, 0)
                if not residue.is_identity():
                    self._add_strong_gen(j, residue)
            self._schreier_sims()
        chain_order = 1
        for lv in self._levels:
            chain_order *= len(lv.transversal)
        if self._order is not None and chain_order != self._order:
            raise InvariantError(
                f"stabiliser chain order {chain_order} differs from the known order {self._order}"
            )
        self._order = chain_order
        self._chain_ready = True

    # -- chain construction -------------------------------------------------

    def _levels_from_base(self):
        """The chain of a strong generating set relative to the given base.

        Each generator goes to the first base point it moves, and a level is
        made only for a base point that some generator moves first: a point
        no generator moves first has the trivial basic orbit.  Each level's
        transversal comes from its own and the deeper levels' generators.
        """
        base = self._given_base
        first_moved = {}
        for g in self.generators:
            images = g.images
            i = next((i for i, b in enumerate(base) if images[b] != b), None)
            if i is not None:
                first_moved.setdefault(i, []).append(g)
            elif not g.is_identity():
                raise InvariantError(
                    f"a generator moving {len(g.support())} points fixes every base point"
                )
        self._levels = []
        for i in sorted(first_moved):
            lv = _Level(base[i], self.degree)
            lv.gens = first_moved[i]
            self._levels.append(lv)
        for i, lv in enumerate(self._levels):
            lv.orbit_order, lv.transversal = transversal(lv.point, self._gens_for_level(i), self.degree)

    def _strip(self, g, start):
        for i in range(start, len(self._levels)):
            lv = self._levels[i]
            p = g(lv.point)
            if p not in lv.transversal:
                return g, i
            g = lv.transversal[p].inverse() * g
        return g, len(self._levels)

    def _add_strong_gen(self, level_idx, g):
        if level_idx == len(self._levels):
            self._levels.append(_Level(min(g.support()), self.degree))
        self._levels[level_idx].gens.append(g)

    def _gens_for_level(self, i):
        out = []
        for lv in self._levels[i:]:
            out.extend(lv.gens)
        return out

    def _schreier_sims(self):
        # Bottom-up: level i is done when its orbit is closed and every
        # Schreier generator sifts to the identity through deeper levels.
        i = len(self._levels) - 1
        while i >= 0:
            lv = self._levels[i]
            gens = self._gens_for_level(i)
            lv.orbit_order, lv.transversal = transversal(lv.point, gens, self.degree)
            stall = None
            for p in lv.orbit_order:
                up = lv.transversal[p]
                for s in gens:
                    uq = lv.transversal[s(p)]
                    schreier = uq.inverse() * (s * up)
                    if schreier.is_identity():
                        continue
                    residue, j = self._strip(schreier, i + 1)
                    if not residue.is_identity():
                        self._add_strong_gen(j, residue)
                        stall = j
                        break
                if stall is not None:
                    break
            i = stall if stall is not None else i - 1

    # -- queries ------------------------------------------------------------

    @property
    def base(self):
        self._ensure_chain()
        return tuple(lv.point for lv in self._levels)

    @property
    def strong_generators(self):
        self._ensure_chain()
        return tuple(self._gens_for_level(0))

    @property
    def transversals(self):
        """Per base point: orbit point -> coset representative."""
        self._ensure_chain()
        return tuple(dict(lv.transversal) for lv in self._levels)

    def order(self):
        if self._order is None:
            self._ensure_chain()
        return self._order

    def is_trivial(self):
        # decidable without a stabiliser chain
        return all(g.is_identity() for g in self.generators)

    def contains(self, g: Perm) -> bool:
        if g.degree != self.degree:
            return False
        self._ensure_chain()
        residue, _ = self._strip(g, 0)
        return residue.is_identity()

    def _coset_reps(self):
        """Each chain level's coset representatives in walk order: the base
        point's first, then the other orbit points' in increasing order."""
        self._ensure_chain()
        return [
            [lv.transversal[p] for p in sorted(lv.transversal, key=lambda p: (p != lv.point, p))]
            for lv in self._levels
        ]

    def _walk(self, keep=None, depth=None):
        """Yield rep_0 * rep_1 * ... * rep_{k-1}, one coset representative per
        chain level (the first `depth` levels, if given), level 0 varying
        slowest, each level in ``_coset_reps`` order.

        Prefix products wait on an explicit stack, so an element costs at most
        one multiplication; a level-0 representative is its own prefix.  A
        prefix g of i representatives (1 <= i <= k) for which `keep(i, g)` is
        false is dropped with every product below it; `keep` is asked as g
        is reached, so it may read state the caller updated since the last
        yield.  A walk over no levels yields the identity once.
        """
        reps = self._coset_reps()[:depth]
        k = len(reps)
        if k == 0:
            yield Perm.identity(self.degree)
            return
        stack = [(1, rep) for rep in reversed(reps[0])]
        while stack:
            i, g = stack.pop()
            if keep is not None and not keep(i, g):
                continue
            if i == k:
                yield g
            else:
                stack.extend((i + 1, g * rep) for rep in reversed(reps[i]))

    def _check_cap(self, cap):
        check_cap(self.order(), cap, "group order {required} exceeds enumeration cap {cap}")

    def elements(self, cap=DEFAULT_ENUMERATION_CAP):
        """Yield each group element exactly once; refuses above the cap."""
        self._check_cap(cap)
        return self._walk()

    def element_list(self, cap=DEFAULT_ENUMERATION_CAP):
        """A new list of every element, in elements() order; refuses above the cap."""
        return list(self.elements(cap))

    def element_blocks(self, cap):
        """Every element's image row, in elements() order, as intp arrays of
        at most about ``BLOCK_BYTES`` (one row at least); refuses above the cap.

        The deepest levels whose products fit one block are multiplied out
        once into a tail array, each level by one `np.take`; the walk over
        the upper levels gives the prefixes p, and p contributes the rows
        p[tail].
        """
        self._check_cap(cap)
        return self._element_rows()

    def _element_rows(self):
        import numpy as np

        n = self.degree
        rows = max(1, BLOCK_BYTES // (8 * max(n, 1)))
        reps = self._coset_reps()
        depth = len(reps)
        # (a * b).images == a.images[b.images]: a row array indexed by the tail;
        # `np.take` writes the products in C order, so the reshape copies
        # nothing, where `heads[:, tail]` did not and its reshape copied them
        tail = np.arange(n, dtype=np.intp)[None, :]
        while depth and len(reps[depth - 1]) * len(tail) <= rows:
            depth -= 1
            level = np.array([u.images for u in reps[depth]], dtype=np.intp)
            tail = np.take(level, tail, axis=1).reshape(len(level) * len(tail), n)
        walk = self._walk(depth=depth)
        while prefixes := list(itertools.islice(walk, rows // len(tail))):
            heads = np.array([p.images for p in prefixes], dtype=np.intp)
            yield np.take(heads, tail, axis=1).reshape(len(prefixes) * len(tail), n)

    def orbits(self):
        """All orbits on 0..degree-1, sorted by smallest element; no chain."""
        return _orbit_partition(self.degree, self.generators)

    # -- motion -------------------------------------------------------------

    def motion(self, cap=DEFAULT_ENUMERATION_CAP) -> MotionReport:
        """Exact minimal support of a non-identity element.

        Pruned backtracking over the stabiliser chain: the walk over
        products of coset representatives that elements() yields, in the
        same order, abandoning a partial product once the points it has
        already decided move as many as the best support found.  The witness
        is the first element of least support in that order.  `cap` is
        accepted for compatibility and ignored; the search enumerates
        nothing up front.
        """
        self._ensure_chain()
        if self.is_trivial():
            return MotionReport(None, None, "none")
        levels = self._levels
        n = self.degree
        k = len(levels)
        # fixed_at[i]: points unmoved by every generator at levels >= i; their
        # final image is already decided by the partial product at depth i.
        moved = set()
        fixed_at = [None] * (k + 1)
        fixed_at[k] = tuple(range(n))
        for i in range(k - 1, -1, -1):
            for g in levels[i].gens:
                moved.update(g.support())
            fixed_at[i] = tuple(s for s in range(n) if s not in moved)

        best = n + 1
        witness = None

        def keep(i, g):
            # a lower bound on g's final support, from the points it decides
            images = g.images
            lower = 0
            for s in fixed_at[i]:
                if images[s] != s:
                    lower += 1
                    if lower >= best:
                        return False
            return True

        # fixed_at[k] is every point, so each non-identity product that
        # survives keep() has support below the best so far
        for g in self._walk(keep):
            if not g.is_identity():
                best, witness = len(g.support()), g
        return MotionReport(best, witness, "backtrack")

    # -- misc ----------------------------------------------------------------

    def to_json_dict(self):
        return {
            "degree": self.degree,
            "generators": json_value(self.generators),
            "order": self.order(),
        }

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order()})"
