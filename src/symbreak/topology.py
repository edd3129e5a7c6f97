"""The agreement ultrametric on a permutation group and its coset balls.

An exhaustion S_1 < S_2 < ... < S_k = V is one level per point, S_i =
{v : level[v] <= i}, so building it, reading a set and comparing two
permutations are linear in the point count.  Two permutations are at
distance 2^-i where i is the largest index such that g1 * g2^-1 fixes S_i
pointwise (distance 0 when equal, 1 when g1 * g2^-1 already moves a point
of S_1).  Balls of radius 2^-i are right cosets of the pointwise
stabiliser of S_i; decompositions below enumerate them exactly.  All
arithmetic here is exact (dyadic radii, rational measures).
"""

from __future__ import annotations

from fractions import Fraction

from .autsearch import automorphism_group
from .colourings import DEFAULT_COLOUR_CAP, agreement, cycle_labels, unpack_bits
from .errors import CapExceededError, InvariantError
from .graphs import Graph
from .groups import BLOCK_BYTES, DEFAULT_ENUMERATION_CAP, PermGroup
from .jsonfields import JsonFields, Record, json_value
from .perms import Perm


class ExhaustionSequence(Record):
    """Strictly nested point sets ending in the full point set: level[v] is
    the index of the first S_i holding v.  The sets are strictly nested
    exactly when every level 1..k occurs."""

    level: tuple

    def __post_init__(self):
        level = tuple(self.level)
        object.__setattr__(self, "level", level)
        for i in level:
            if type(i) is not int:  # `True` and `1.0` are no level
                raise ValueError(f"level {i!r} is not an int")
        if set(level) != set(range(1, max(level, default=0) + 1)):
            raise ValueError("levels must be exactly 1..k, each occurring")

    @property
    def degree(self):
        return len(self.level)

    def __len__(self):
        # the empty point set is the one set S_1 = {}
        return max(self.level, default=1)

    def points(self, i):
        """S_i as an increasing tuple (S_i is every point for i >= len)."""
        return tuple(v for v, lv in enumerate(self.level) if lv <= i)

    @classmethod
    def balls(cls, g: Graph, root: int = 0):
        """S_i = B_root(i-1): the root, then growing distance balls; on a
        disconnected graph the full vertex set closes the sequence."""
        dist = g.distances(root)
        unreachable = max(dist) + 2
        return cls(tuple(d + 1 if d >= 0 else unreachable for d in dist))

    @classmethod
    def prefixes(cls, degree: int):
        """S_i = {0, ..., i - 1}: index-order prefixes."""
        return cls(tuple(range(1, degree + 1)))


def agreement_level(g1: Perm, g2: Perm, seq: ExhaustionSequence) -> int | None:
    """Largest i with g1 * g2^-1 fixing S_i pointwise; None when g1 == g2.

    Returns 0 when they already disagree on S_1 (distance 1).  The product
    moves g2(t) exactly when g1(t) != g2(t), so neither it nor an inverse
    is formed.
    """
    if g1.degree != g2.degree:
        raise ValueError("degree mismatch")
    if g1.degree != seq.degree:
        raise ValueError("sequence degree mismatch")
    level = seq.level
    first = min((level[b] for a, b in zip(g1.images, g2.images) if a != b), default=None)
    return None if first is None else first - 1


def ultrametric_distance(g1: Perm, g2: Perm, seq: ExhaustionSequence) -> Fraction:
    """2^-agreement_level as an exact dyadic rational; 0 iff equal."""
    level = agreement_level(g1, g2, seq)
    if level is None:
        return Fraction(0)
    return Fraction(1, 2**level)


# ---------------------------------------------------------------------------
# Coset balls


class Ball(JsonFields):
    """One ball: a right coset of the pointwise stabiliser of S_level.

    `key` is the common preimage tuple of S_level under the members;
    `members` is None when the group is above the enumeration cap.
    """

    key: tuple
    representative: Perm
    size: int
    members: tuple | None


class BallDecomposition(Record):
    level: int
    radius: Fraction
    balls: tuple
    group_order: int

    @property
    def ball_count(self):
        return len(self.balls)

    def to_json_dict(self):
        return {
            "level": self.level,
            "radius": str(self.radius),
            "group_order": self.group_order,
            "balls": json_value(self.balls),
        }

    def to_text(self, indent: str = "") -> str:
        lines = [
            f"{indent}level {self.level}  radius {self.radius}  "
            f"{self.ball_count} balls of size {self.balls[0].size if self.balls else 0}"
        ]
        for b in self.balls:
            lines.append(f"{indent}  ball {list(b.key)}  rep {list(b.representative.images)}")
        return "\n".join(lines)


def _preimage_key(perm: Perm, points) -> tuple:
    inv = perm.inverse()
    return tuple(inv(s) for s in points)


def ball_decomposition(
    group: PermGroup,
    seq: ExhaustionSequence,
    level: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> BallDecomposition:
    """Partition the group into balls of radius 2^-level.

    Balls are the right cosets of the pointwise stabiliser of S_level, so
    the number of balls equals the stabiliser's index.  Up to `cap`
    elements every ball lists its members in increasing order of their
    images, the first being the representative; above the cap a search
    over preimage tuples, under the group's generators, gives each ball's
    key, a representative and the size, with ``members`` None; more than
    `cap` balls raise `CapExceededError`.  Neither depends on the group's
    stabiliser chain.
    """
    if not 1 <= level <= len(seq):
        raise ValueError(f"level must be in 1..{len(seq)}")
    if group.degree != seq.degree:
        raise ValueError("sequence degree mismatch")
    points = seq.points(level)
    radius = Fraction(1, 2**level)
    order = group.order()

    if order <= cap:
        groups = {}
        for m in sorted(group.elements(cap), key=lambda m: m.images):
            groups.setdefault(_preimage_key(m, points), []).append(m)
        balls = tuple(Ball(key, ms[0], len(ms), tuple(ms)) for key, ms in sorted(groups.items()))
        return BallDecomposition(level, radius, balls, order)

    # Representatives only: BFS over right cosets acting on preimage tuples.
    size = group.pointwise_stabiliser(points).order()
    if order // size > cap:
        raise CapExceededError(
            f"{order // size} balls exceed the cap {cap}", required=order // size, cap=cap
        )
    start = tuple(points)
    reps = {start: Perm.identity(group.degree)}
    queue = [start]
    while queue:
        key = queue.pop()
        rep = reps[key]
        for gen in group.generators:
            new_rep = rep * gen
            new_key = _preimage_key(new_rep, points)
            if new_key not in reps:
                reps[new_key] = new_rep
                queue.append(new_key)
    if len(reps) * size != order:
        raise InvariantError("coset count times stabiliser order is not the group order")
    balls = tuple(Ball(key, reps[key], size, None) for key in sorted(reps))
    return BallDecomposition(level, radius, balls, order)


# ---------------------------------------------------------------------------
# Finite Haar analogue


def haar_fraction(subset, group: PermGroup) -> Fraction:
    """|subset| / |group| as an exact rational; subset elements must lie in the group."""
    distinct = {}
    for m in subset:
        if not group.contains(m):
            raise ValueError(f"element {m!r} is not in the group")
        distinct[m.images] = m
    return Fraction(len(distinct), group.order())


class StabiliserMeasureReport(Record):
    """E[|stabiliser of a random 2-colouring| / |Aut|], computed two ways.

    `colour_first` averages the stabiliser fraction over all colourings;
    `group_first` averages each element's fixed-colouring probability
    2^(cycles - n) over the group.  Exchanging the two summation orders
    must give exactly equal rationals.
    """

    colour_first: Fraction
    group_first: Fraction

    @property
    def agree(self):
        return self.colour_first == self.group_first

    @property
    def value(self):
        return self.colour_first

    def to_json_dict(self):
        return {
            "expected_stabiliser_measure": str(self.value),
            "colour_first": str(self.colour_first),
            "group_first": str(self.group_first),
            "fubini_check": "pass" if self.agree else "fail",
        }


def _all_two_colourings(n):
    """The 2^n 2-colourings of n vertices as one bit-plane (`bit_planes`).

    Colouring i gives vertex v colour bit v of i, so bit t of word w in row
    v is bit v of 64w + t: bit v of t for v < 6 (one pattern; its padding
    bits are 0 when 2^n < 64), else bit v - 6 of w (a word of ones or
    zeros).  No (n, 2^n) matrix is built.
    """
    import numpy as np

    total = 2**n
    words = np.arange(-(-total // 64))
    planes = np.empty((1, n, len(words)), dtype=np.uint64)
    for v in range(n):
        if v < 6:
            planes[0, v] = np.uint64(sum(1 << t for t in range(min(total, 64)) if t >> v & 1))
        else:
            planes[0, v] = np.where(words >> (v - 6) & 1, ~np.uint64(0), np.uint64(0))
    return planes


def expected_stabiliser_measure(
    g: Graph,
    enum_cap: int = DEFAULT_ENUMERATION_CAP,
    colour_cap: int = DEFAULT_COLOUR_CAP,
) -> StabiliserMeasureReport:
    """Average stabiliser fraction of a uniform random 2-colouring, both ways.

    Both routes read the group once, in element blocks (`PermGroup.element_blocks`).
    Colour-first: count the (colouring, element) pairs with c(gamma(v)) =
    c(v) for all v.  The 2^n colourings are packed once into one bit-plane
    (64 colourings per uint64 word), a slice of a block is compared against
    all of them at once (`agreement`), and the pairs are the set bits of
    the agreement words, the padding past 2^n < 64 left out.  Group-first:
    sum 2^cycles(gamma) over the group, the cycles counted from
    `cycle_labels`.  The two exact rationals must coincide (else
    `InvariantError`); both are returned.
    Above `colour_cap` colourings (2^n) it raises `CapExceededError`, as
    `distinguishing_probability_exact` does.
    """
    import numpy as np

    n = g.vertex_count
    total = 2**n
    if total > colour_cap:
        raise CapExceededError(
            f"{total} colourings exceed cap {colour_cap}", required=total, cap=colour_cap
        )
    aut = automorphism_group(g)
    order = aut.order()

    planes = _all_two_colourings(n)
    # agreement's two (elements, words) uint64 arrays and their bits unpacked
    per_slice = max(1, BLOCK_BYTES // (80 * planes.shape[2]))
    preserved_total = 0
    by_cycles = np.zeros(n + 1, dtype=np.int64)  # element count per cycle count
    for block in aut.element_blocks(enum_cap):
        for lo in range(0, len(block), per_slice):
            agree = agreement(block[lo : lo + per_slice], planes, range(n))
            preserved_total += int(np.count_nonzero(unpack_bits(agree, total)))
        cycles = (cycle_labels(block) == np.arange(n)).sum(axis=1)
        by_cycles += np.bincount(cycles, minlength=n + 1)
    colour_first = Fraction(preserved_total, total * order)
    group_first = Fraction(
        sum(count << c for c, count in enumerate(by_cycles.tolist())), total * order
    )

    report = StabiliserMeasureReport(colour_first, group_first)
    if not report.agree:
        raise InvariantError(
            f"summation-order identity violated: {colour_first} != {group_first}"
        )
    return report
