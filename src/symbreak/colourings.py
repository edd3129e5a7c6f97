"""Vertex colourings, their stabilisers, and distinguishing probabilities.

A colouring is distinguishing when no non-identity automorphism preserves
it.  This module computes colouring stabilisers exactly, exact and Monte
Carlo distinguishing probabilities, the motion-based random-colouring
bound of Russel and Sundaram, and partial-colouring preservation.  The
root-fixing tree witness is ``first_automorphism(g, c, fixing=(root,))``:
every subgroup of Aut(G) here is some Aut(G, c) ∩ Fix(S), from one search.
The estimators read a group through ``PermGroup.element_blocks`` (element
image rows in arrays) or its generators, never through its stabiliser
chain, and share its ``BLOCK_BYTES`` budget for their trial blocks.
They hold a block of colourings as bit-planes, 64 colourings to a uint64
word and one plane per bit of a colour, and `agreement` compares image
rows against a whole word of colourings at a time; the Monte Carlo check,
its generator certificates and the colour-first Haar count all use it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .autsearch import automorphism_group, first_automorphism
from .errors import check_cap
from .graphs import Graph
from .groups import BLOCK_BYTES, DEFAULT_ENUMERATION_CAP, PermGroup
from .jsonfields import JsonFields, Record
from .perms import Perm
from .rng import SeededRng, trial_block_bytes

#: Default cap on the number of colourings enumerated exhaustively.
DEFAULT_COLOUR_CAP = 2**20

#: Seeded random colourings `russel_sundaram_bound` tries for its witness.
RS_SEARCH_ATTEMPTS = 1000

_DIGITS = "0123456789"


def _check_colours(colours, k):
    if type(k) is not int or k < 2:  # `True` and `2.0` are no number of colours
        raise ValueError(f"at least 2 colours required: k must be an int >= 2, not {k!r}")
    for c in colours:
        if type(c) is not int or not 0 <= c < k:  # `True` and `1.0` are no colour
            raise ValueError(f"colour {c!r} out of range 0..{k - 1}")


class Colouring(Record):
    """Total map from vertices to colours 0..k-1."""

    colours: tuple
    k: int = 2

    def __post_init__(self):
        object.__setattr__(self, "colours", tuple(self.colours))
        _check_colours(self.colours, self.k)

    def __len__(self):
        return len(self.colours)

    def __getitem__(self, v):
        return self.colours[v]

    def to_string(self):
        if self.k > len(_DIGITS):
            raise ValueError("string form supports at most 10 colours")
        return "".join(_DIGITS[c] for c in self.colours)


class PartialColouring(Record):
    """Colouring defined only on `domain`; other vertices are unconstrained."""

    domain: tuple
    colours: tuple
    k: int = 2

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(self.domain))
        object.__setattr__(self, "colours", tuple(self.colours))
        if len(self.domain) != len(self.colours):
            raise ValueError("domain and colours must have equal length")
        if len(set(self.domain)) != len(self.domain):
            raise ValueError("domain has repeated vertices")
        for s in self.domain:
            if type(s) is not int or s < 0:
                raise ValueError(f"invalid domain vertex {s!r}")
        _check_colours(self.colours, self.k)

    def colour_map(self):
        return dict(zip(self.domain, self.colours))


class DistinguishReport(JsonFields):
    distinguishing: bool
    witness: Perm | None


class McEstimate(JsonFields):
    successes: int
    trials: int
    estimate: float
    stderr: float


class RusselSundaramReport(Record):
    """(|Aut|-1) / 2^ceil(m/2) as an exact failure-probability bound.

    `applicable` records whether 2^ceil(m/2) >= |Aut|, the premise under
    which the bound is below 1 and a random search must find a
    distinguishing colouring.
    """

    bound: Fraction
    applicable: bool
    witness: Colouring | None
    motion: int | None
    group_order: int

    def to_json_dict(self):
        return {
            "bound": str(self.bound),
            "applicable": self.applicable,
            "witness": self.witness.to_string() if self.witness else None,
            "motion": self.motion,
            "group_order": self.group_order,
        }


def random_colouring(g: Graph, k: int = 2, rng: SeededRng = SeededRng(0)) -> Colouring:
    """Uniform iid colours for every vertex, deterministic per stream."""
    _check_colours((), k)
    return Colouring(tuple(rng.integers_below(k, g.vertex_count)), k)


def colouring_stabiliser(g: Graph, c: Colouring) -> PermGroup:
    """The colour-preserving automorphisms {gamma : c(gamma(s)) = c(s) for all s}."""
    return automorphism_group(g, vertex_colours=c.colours)


def is_distinguishing(g: Graph, c: Colouring) -> DistinguishReport:
    """True iff the colouring's stabiliser is trivial; else a witness.

    The witness is the stabiliser's first generator, and the search stops
    once it is found.
    """
    witness = first_automorphism(g, c.colours)
    return DistinguishReport(witness is None, witness)


def _prime_order_partitions(aut: PermGroup, enum_cap: int):
    """One array row per distinct cycle partition of the prime-order elements.

    Reads the group from ``aut.element_blocks``.  Row entry v is the smallest
    vertex on v's cycle, so a colouring c is preserved by an element with
    that partition iff c[row] == c.  A non-trivial stabiliser contains an
    element of prime order (Cauchy) and an element preserves c iff c is
    constant on its cycles, so these rows detect exactly the colourings
    that some non-identity element preserves.

    Each block's label rows join one set as their bytes, which drops the
    rows already found; the rows come back in byte order, the order numpy
    gives void values, as Python orders bytes byte by byte.  The rows hold
    one element block and the set of distinct rows at once.
    """
    import numpy as np

    blocks, n = aut.element_blocks(enum_cap), aut.degree  # refuses above the cap
    if not n:  # no non-identity element, and no row to view as bytes
        return np.empty((0, 0), dtype=np.intp)
    prime, seen = _prime_table(n), set()
    for block in blocks:
        seen.update(_row_values(_prime_cycle_labels(block, prime)).tolist())
    return np.frombuffer(b"".join(sorted(seen)), dtype=np.intp).reshape(len(seen), n)


def _row_values(rows):
    """Each row of a C-contiguous 2-d array as one opaque (void) value;
    numpy orders and compares these values byte by byte."""
    import numpy as np

    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()


def cycle_labels(images):
    """Row-wise cycle labels of a (count, n) image array: entry v is the
    smallest point on v's cycle.

    Pointer doubling: after j steps label[v] is the least point among v's
    first 2^j successors and jump[v] is its 2^j-th successor, so
    ceil(log2 n) steps cover every cycle.  Each step gathers with
    ``np.take(..., out=, mode="clip")`` into one of two buffers allocated
    up front, and the last step skips the jump it would not read.
    """
    import numpy as np

    count, n = images.shape
    offset = (np.arange(count, dtype=np.intp) * n)[:, None]
    jump = (images + offset).ravel()
    label = np.tile(np.arange(n, dtype=np.intp), count)
    gathered, hop = np.empty_like(label), np.empty_like(jump)
    steps = max(1, (n - 1).bit_length())
    for step in range(steps):
        # the indices are flat points, so "clip" changes none; it saves the
        # buffer that the default mode copies `out` through
        np.take(label, jump, out=gathered, mode="clip")
        np.minimum(label, gathered, out=label)
        if step < steps - 1:
            np.take(jump, jump, out=hop, mode="clip")
            jump, hop = hop, jump
    return label.reshape(count, n)


def _pack_bits(bits):
    """(..., count) array of 0/1 entries -> (..., ceil(count / 64)) uint64
    words: bit t of word w is entry 64w + t; the padding bits are 0."""
    import numpy as np

    packed = np.packbits(bits.astype(bool, copy=False), axis=-1, bitorder="little")
    words = np.zeros(bits.shape[:-1] + (-(-bits.shape[-1] // 64) * 8,), dtype=np.uint8)
    words[..., : packed.shape[-1]] = packed
    return words.view("<u8").astype(np.uint64, copy=False)


def bit_planes(colours, k):
    """The bit-planes of a (vertices, colourings) array of colours below k.

    Plane j, row v, word w, bit t is bit j of colouring 64w + t's colour at
    vertex v: a (ceil(log2 k), vertices, ceil(colourings / 64)) uint64
    array.  The padding colourings of the last word are all 0.
    """
    import numpy as np

    return np.stack([_pack_bits((colours >> j) & 1) for j in range((k - 1).bit_length())])


def unpack_bits(words, count):
    """The first `count` bits of each row of a uint64 word array, as a
    (..., count) uint8 array of 0/1: entry i is bit i % 64 of word i // 64."""
    import numpy as np

    octets = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(octets, axis=-1, count=count, bitorder="little")


def agreement(images, planes, columns):
    """(image rows, words) uint64: bit t of word w in row r is set iff
    colouring 64w + t gives each listed vertex v the colour of its image,
    c[r[v]] == c[v].  `planes` holds the colourings as bit-planes
    (`bit_planes`), so one word compares 64 colourings; the padding
    colourings of the last word are all 0 and agree with every row."""
    import numpy as np

    differ = np.zeros((len(images), planes.shape[2]), dtype=np.uint64)
    gathered = np.empty_like(differ)
    for v in columns:
        for plane in planes:
            # the images are vertices, so "clip" changes none; it saves the
            # buffer that the default mode copies `out` through
            np.take(plane, images[:, v], axis=0, out=gathered, mode="clip")
            gathered ^= plane[v]
            differ |= gathered
    return np.invert(differ, out=differ)


def _prime_cycle_labels(images, prime):
    """Cycle-label rows of the prime-order rows of `images`, n >= 1 columns
    wide; ``prime[m]`` says whether m is prime, for m = 0..n (`_prime_table`).

    Every non-trivial cycle of an element of prime order p has length p,
    so a cheap walk comes first: each row follows the cycle of its first
    moved point for at most 2 ceil(log2 n) steps, one gathered entry per
    row per step.  The identity (whose walk starts at the fixed point 0)
    and every row whose cycle closes at a length that is not prime are
    dropped; only the rows whose cycle closed at a prime length or is
    still open are labelled by `cycle_labels` and tested exactly.
    """
    import numpy as np

    count, n = images.shape
    offset = np.arange(count, dtype=np.intp) * n
    start = (images != np.arange(n)).argmax(axis=1)
    flat, at = images.ravel(), start
    closed = np.empty((2 * max(1, (n - 1).bit_length()), count), dtype=bool)
    for step in closed:
        at = flat.take(at + offset)
        np.equal(at, start, out=step)
    # the first closing step is the cycle's length; an open walk stays a candidate
    images = images[prime[closed.argmax(axis=0) + 1] | ~closed.any(axis=0)]
    count = len(images)
    label = cycle_labels(images)
    rows = np.arange(count)[:, None]
    sizes = np.bincount((label + rows * n).ravel(), minlength=count * n)
    cycle_len = sizes.reshape(count, n)[rows, label]
    # the order is the lcm of the cycle lengths: prime iff they are 1 or one prime
    longest = cycle_len.max(axis=1, initial=0)  # at most n
    uniform = ((cycle_len == 1) | (cycle_len == longest[:, None])).all(axis=1)
    return label[uniform & prime[longest]]


def _prime_table(n):
    """Boolean array whose entry m, for m = 0..n, says whether m is prime."""
    import numpy as np

    prime = np.ones(n + 1, dtype=bool)
    prime[:2] = False
    for d in range(2, math.isqrt(n) + 1):
        if prime[d]:
            prime[d * d :: d] = False
    return prime


def distinguishing_probability_exact(
    g: Graph,
    k: int = 2,
    colour_cap: int = DEFAULT_COLOUR_CAP,
    enum_cap: int = DEFAULT_ENUMERATION_CAP,
) -> Fraction:
    """Exact fraction of k-colourings (k >= 2) with trivial stabiliser.

    Colouring c has index sum_v c(v) k^v.  For one element per cycle
    partition of the prime-order automorphisms (enough, by Cauchy's
    theorem), marks the colourings constant on its cycles: the indices
    sum_j a_j w_j with a_j in 0..k-1 and w_j = sum_{v in cycle j} k^v.
    Unmarked colourings are distinguishing.

    The rows are taken a block count b at a time.  Their indices are the
    outer sums of two float64 products, the digit tuples of the first
    floor(b/2) blocks times their weights and those of the last ceil(b/2)
    blocks times theirs, summed within `BLOCK_BYTES` at a time.  Every
    partial sum is an integer below k^n, so the products are exact while
    k^n < 2^53; above that it raises `CapExceededError`, as it does above
    `colour_cap`.
    """
    _check_colours((), k)
    import numpy as np

    n = g.vertex_count
    total = k**n
    check_cap(total, colour_cap, "{required} colourings exceed cap {cap}")
    check_cap(total, 2**53 - 1, "{required} colourings: float64 indices are exact only below 2^53")
    aut = automorphism_group(g)
    fixed = np.zeros(total, dtype=bool)
    labels = _prime_order_partitions(aut, enum_cap)
    rows = np.arange(len(labels))[:, None]
    # weight[r, v] = sum of k^u over the u on row r's cycle headed by v
    powers = np.broadcast_to(np.array([k**v for v in range(n)], dtype=float), labels.shape)
    weight = np.bincount((labels + rows * n).ravel(), powers.ravel(), labels.size)
    weight = weight.reshape(labels.shape)
    heads = labels == np.arange(n)
    blocks = heads.sum(axis=1)
    sizes = sorted(set(blocks.tolist()))
    # h -> the (h, k^h) float64 matrix whose columns are all h-digit tuples
    digits = {
        h: (np.arange(k**h) // k ** np.arange(h)[:, None] % k).astype(float)
        for h in {b // 2 for b in sizes} | {b - b // 2 for b in sizes}
    }
    for b in sizes:
        group = blocks == b
        weights = weight[group][heads[group]].reshape(-1, b)
        # a chunk's k^b indices per row, and the products before them, fit the budget
        per_row = max(1, BLOCK_BYTES // (8 * k**b))
        for r in range(0, len(weights), per_row):
            chunk = weights[r : r + per_row]
            left, right = (
                (chunk[:, lo:hi] @ digits[hi - lo]).astype(np.intp)
                for lo, hi in ((0, b // 2), (b // 2, b))
            )
            per_left = max(1, BLOCK_BYTES // (8 * len(chunk) * right.shape[1]))
            for c in range(0, left.shape[1], per_left):
                fixed[left[:, c : c + per_left, None] + right[:, None]] = True
    return Fraction(total - int(np.count_nonzero(fixed)), total)


def distinguishing_probability_mc(
    g: Graph,
    k: int = 2,
    trials: int = 10_000,
    rng: SeededRng = SeededRng(0),
    enum_cap: int = DEFAULT_ENUMERATION_CAP,
) -> McEstimate:
    """Monte Carlo estimate of the distinguishing probability of k >= 2 colours.

    Trial t draws its colouring from rng.trial_stream(t), so results do not
    depend on execution order.  The standard error is the binomial
    sqrt(p(1-p)/trials) at the estimated p.  Blocks of trials are drawn at
    once (``SeededRng.trial_block``), as many as the ``BLOCK_BYTES`` budget
    holds at the draw's peak (`trial_block_bytes`: about 25 bytes per trial
    and vertex for the Philox state, words and rejection flags while the
    block fits one Philox tile; beyond a tile the workspace stays at about
    1.2 MiB and a trial adds only its words, 8 bytes per vertex); the chunks
    of rows checked against a block take what its draws and bit-planes
    leave of the budget, so a block's arrays stay within about
    ``BLOCK_BYTES``.

    Each block of trials is packed into bit-planes (one uint64 word holds 64
    trials' colourings, one plane per bit of a colour) and checked against
    a set of image rows by `agreement`, 64 trials per word operation, on
    the vertices the rows move.  When |Aut| <= min(enum_cap, trials * n),
    the rows are one per cycle partition of the prime-order automorphisms,
    read from the element blocks (``aut.element_blocks``): a trial is
    distinguishing iff no row agrees with it.  Otherwise the rows are the
    non-identity generators of Aut(G): a trial that some generator
    preserves is not distinguishing, and each other trial runs the
    colour-constrained automorphism search until its first automorphism:
    a colouring is distinguishing iff there is none.  Every path decides
    every trial exactly, so the count does not depend on the path.  |Aut|
    comes from the search, or a tree's subtree codes, so choosing the path
    builds no stabiliser chain.
    """
    _check_colours((), k)
    if type(trials) is not int or trials < 1:  # `True` and `10.0` are no trial count
        raise ValueError(f"trials must be an int >= 1, not {trials!r}")
    import numpy as np

    n = g.vertex_count
    aut = automorphism_group(g)
    successes = 0
    per_block = max(1, BLOCK_BYTES // trial_block_bytes(n))
    dtype = np.min_scalar_type(k - 1)  # holds every colour 0..k-1
    if aut.order() <= min(enum_cap, trials * n):
        rows, certify = _prime_order_partitions(aut, enum_cap), False
        if not len(rows):  # no non-identity automorphism: every colouring distinguishes
            return McEstimate(trials, trials, 1.0, 0.0)
    else:
        # a non-identity generator that preserves a colouring certifies that it
        # is not distinguishing; only the other trials search
        gens = [gen.images for gen in aut.generators if not gen.is_identity()]
        rows, certify = np.array(gens, dtype=np.intp).reshape(len(gens), n), True
    columns = np.flatnonzero((rows != np.arange(n)).any(axis=0)).tolist()
    for done in range(0, trials, per_block):
        size = min(per_block, trials - done)
        block = rng.trial_block(k, done, size, n)
        planes = bit_planes(block.T.astype(dtype, order="C"), k)
        # a chunk of rows takes two (rows, words) uint64 arrays and a column of indices
        spare = BLOCK_BYTES - block.nbytes - planes.nbytes
        per_chunk = max(1, spare // (16 * planes.shape[2] + 8))
        held = np.zeros(planes.shape[2], dtype=np.uint64)
        for lo in range(0, len(rows), per_chunk):
            held |= np.bitwise_or.reduce(agreement(rows[lo : lo + per_chunk], planes, columns))
        held = unpack_bits(held, size).astype(bool)
        if certify:
            # one trial's colours at a time: a list of a block's rows can outgrow its array
            successes += sum(first_automorphism(g, c.tolist()) is None for c in block[~held])
        else:
            successes += size - int(np.count_nonzero(held))
        del block, planes  # the next block's draws take the whole budget
    p = successes / trials
    return McEstimate(successes, trials, p, math.sqrt(p * (1 - p) / trials))


def russel_sundaram_bound(g: Graph, rng: SeededRng = SeededRng(0)) -> RusselSundaramReport:
    """Bound P[random 2-colouring not distinguishing] <= (|Aut|-1) * 2^-ceil(m/2).

    A non-identity element moving s vertices has at most n - ceil(s/2)
    cycles, so it preserves a random 2-colouring with probability at most
    2^-ceil(s/2); summing over the group gives the bound (for even motion
    this is the familiar (|Aut|-1) * 2^(-m/2)).  When the premise
    2^ceil(m/2) >= |Aut| holds, the bound is below 1 and a seeded random
    search returns a distinguishing witness.
    """
    aut = automorphism_group(g)
    order = aut.order()
    if order == 1:
        return RusselSundaramReport(
            Fraction(0), True, Colouring((0,) * g.vertex_count), None, 1
        )
    m = aut.motion().motion
    half_up = (m + 1) // 2
    bound = Fraction(order - 1, 2**half_up)
    applicable = 2**half_up >= order
    witness = None
    if applicable:
        for attempt in range(RS_SEARCH_ATTEMPTS):
            c = random_colouring(g, 2, rng.trial_stream(attempt))
            if first_automorphism(g, c.colours) is None:
                witness = c
                break
    return RusselSundaramReport(bound, applicable, witness, m, order)


# ---------------------------------------------------------------------------
# Partial colourings


def preserves_partial(gamma: Perm, pc: PartialColouring) -> bool:
    """Whether gamma preserves the partial colouring.

    gamma is preserved exactly when two total colourings c1, c2 agreeing
    with pc on its domain exist with c1(gamma(s)) = c2(s) everywhere; that
    holds iff every domain point whose image stays in the domain keeps its
    colour.  c1 and c2 need not coincide off the domain.
    """
    cmap = pc.colour_map()
    for s, col in cmap.items():
        if s >= gamma.degree:
            raise ValueError("partial colouring domain out of range")
        t = gamma(s)
        if t in cmap and cmap[t] != col:
            return False
    return True


def partial_stabiliser(
    g: Graph, pc: PartialColouring, enum_cap: int = DEFAULT_ENUMERATION_CAP
):
    """All automorphisms preserving the partial colouring.

    Not closed under composition in general, so the result is an element
    list, not a group.
    """
    aut = automorphism_group(g)
    return [gamma for gamma in aut.elements(enum_cap) if preserves_partial(gamma, pc)]


# ---------------------------------------------------------------------------
# Trees


def find_tree_automorphism(g: Graph, root: int, c: Colouring) -> Perm | None:
    """A non-identity colour-preserving automorphism fixing the root, or None.

    Works on trees only: the first automorphism of the colouring that fixes
    the root.  That is the first swap of code-equal sibling subtrees in the
    code table rooted at the tree's centre.  Returns None exactly when the
    root-fixing colour stabiliser is trivial.
    """
    if not g.is_tree():
        raise ValueError("graph is not a tree")
    return first_automorphism(g, c.colours, fixing=(root,))
