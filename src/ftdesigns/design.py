"""Incidence structures and 2-design verification.

A ``Design`` is a point count v plus a list of distinct blocks (subsets of
{1..v}).  Verification covers the 2-design axioms (constant block size,
constant pair coverage), the standard counting identities and inequalities
relating (v, b, k, r, lambda), flags and flag-transitivity of an acting
group (orbits on the (point, block index) flags, by ``perm.orbits_on``),
and the constancy of block/part intersections against an invariant
partition.  ``condition_rows`` says which counting conditions bind (the
one place the 2 < k < v rule is written); blocks are point masks
(``Design.block_index``), and every automorphism test maps them through
``perm._mask_images``, the image test that partitions use too; one
routine, ``_mask_block``, turns a point mask back into a sorted block.
``Design`` keeps a block given as a sorted plain tuple as it is and sorts
every other block into a new tuple.  Design files are read with
``perm._read_counted_lines``, the reader of group files.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import lt
from typing import Optional

from .feasibility import CONDITIONS, FeasibleTuple, condition_failures
from .perm import (BlockSystem, PermGroup, Permutation, _bit_table, _mask_images,
                   _read_counted_lines, orbits_on)


class DesignError(ValueError):
    pass


class NotTwoDesignError(DesignError):
    """A 2-design check failed; names the first violated condition."""

    def __init__(self, condition, witness=None):
        self.condition = condition
        self.witness = witness
        msg = condition if witness is None else "%s: %s" % (condition, witness)
        super().__init__(msg)


class GeneratorNotAutomorphism(DesignError):
    """A group generator does not preserve the block set."""


# The most points that check_2_design and the automorphism search accept.
# Their point tables grow with v, and the pair check on a symmetric design
# of 2,047 points takes 0.8-1.1 s (pg 9, 1,023 points: 0.12-0.17 s, of
# which building the point rows is about 0.03 s) on a 2-core Xeon, growing
# about fivefold each time v doubles.  The automorphism search also takes
# at most MAX_POINTS blocks: each of its nodes refines, and each leaf
# orders, all v + b vertices, so the cost of a node grows with b.  On the
# same host the search on 2,048 triples of 25 points takes 0.29 s (210
# nodes, 1.4 ms a node), and on all 12,650 4-subsets of 25 points 4.0 s
# (325 nodes, 12 ms a node).
MAX_POINTS = 2048


class PointCapExceeded(RuntimeError):
    """A design has more points, or for the automorphism search more blocks,
    than MAX_POINTS."""


def check_point_cap(d: Design):
    if d.v > MAX_POINTS:
        raise PointCapExceeded("design has %d points, above the cap MAX_POINTS = %d"
                               % (d.v, MAX_POINTS))


@dataclass(frozen=True, init=False)
class Design:
    """v points and a lexicographically sorted list of distinct sorted blocks."""

    __slots__ = ("v", "blocks", "_block_index")  # the cache is not a field
    v: int
    blocks: tuple

    def __init__(self, v, blocks):
        if v < 1:
            raise DesignError("need at least one point")
        norm = []
        for blk in blocks:
            # a strictly ascending plain tuple is kept; it has no repeated point
            if type(blk) is not tuple or not all(map(lt, blk, blk[1:])):
                blk = tuple(sorted(blk))
                if len(set(blk)) != len(blk):
                    raise DesignError("block %r has a repeated point" % (blk,))
            if blk and not (1 <= blk[0] and blk[-1] <= v):
                raise DesignError("block %r out of range 1..%d" % (blk, v))
            if not blk:
                raise DesignError("empty block")
            norm.append(blk)
        norm.sort()
        for a, b in zip(norm, norm[1:]):
            if a == b:
                raise DesignError("repeated block %r (designs here are simple)" % (a,))
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "blocks", tuple(norm))
        object.__setattr__(self, "_block_index", None)  # built by block_index

    @property
    def b(self):
        return len(self.blocks)

    @property
    def block_index(self):
        """Each block's point mask (bit p - 1 for point p) mapped to the
        block's index, in block order; built on first use."""
        if self._block_index is None:
            object.__setattr__(self, "_block_index", {
                sum(1 << (p - 1) for p in blk): j for j, blk in enumerate(self.blocks)})
        return self._block_index

    def relabel(self, p: Permutation):
        if p.degree != self.v:
            raise DesignError("permutation degree %d != v %d" % (p.degree, self.v))
        return Design(self.v, (p.image_of_set(blk) for blk in self.blocks))

    def __repr__(self):
        return "Design(v=%d, b=%d)" % (self.v, self.b)


# The digits "0" and "1" as the bytes 0 and 1, which itertools.compress reads
# as false and true.
_BINARY_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _mask_block(mask, points):
    """The sorted block of a point mask (bit p - 1 for point p), whose point
    p is points[p - 1]: the mask's binary digits, lowest first, select the
    points with C-level loops, and a tuple of points shared by every block
    holds one int per point.  The block is built from a list (see
    ``parse_design_text``)."""
    digits = format(mask, "b").encode()[::-1].translate(_BINARY_DIGITS)
    return tuple([*compress(points, digits)])


@dataclass(frozen=True)
class DesignParameters:
    v: int
    b: int
    k: int
    r: int
    lam: int

    @property
    def nontrivial(self):
        return CONDITIONS["nontrivial-design"](self)

    def as_tuple(self):
        return (self.v, self.b, self.k, self.r, self.lam)


@dataclass(frozen=True)
class IntersectionProfile:
    ell: int
    parts_met_per_block: int
    constant: bool
    witness: Optional[tuple] = None  # (block_index, part_index, size, expected)


# The feasibility conditions that check_2_design tests on (v, b, k, r,
# lambda), in order, as (name, formula, provenance); verify reports them
# under these labels, as condition_rows gives them.
_DESIGN_CONDITIONS = (
    ("replication-count", "r(k-1)=lambda(v-1)", "trivial"),
    ("flag-count", "bk=vr", "trivial"),
    ("block-lower-bound", "b>=v", "derived"),
    ("replication-lower-bound", "r>=k", "derived"),
    ("replication-square", "r^2>lambda*v", "derived"),
)


def condition_rows(params: DesignParameters):
    """Each ``_DESIGN_CONDITIONS`` row as (name, formula, provenance, holds,
    binds) for params: the "trivial" identities bind for every design, the
    "derived" inequalities only when 2 < k < v."""
    nontrivial = params.nontrivial
    return [(name, formula, provenance, CONDITIONS[name](params),
             provenance == "trivial" or nontrivial)
            for name, formula, provenance in _DESIGN_CONDITIONS]


def check_2_design(d: Design) -> DesignParameters:
    """Verify the 2-design axioms and counting identities.

    Block size must be constant, every point pair must lie in the same
    number of blocks (counted over all pairs on bit-set point rows), and
    the derived (v, b, k, r, lambda) must pass every ``condition_rows``
    row that binds.  Raises NotTwoDesignError naming the first violated
    condition, with a witness, and PointCapExceeded when v is above
    MAX_POINTS.
    """
    if d.b == 0:
        raise NotTwoDesignError("no-blocks")
    sizes = {len(blk) for blk in d.blocks}
    if len(sizes) != 1:
        small = min(d.blocks, key=len)
        large = max(d.blocks, key=len)
        raise NotTwoDesignError(
            "non-constant-block-size", (tuple(small), tuple(large))
        )
    k = sizes.pop()
    v = d.v
    if v < 2:
        raise NotTwoDesignError("fewer-than-two-points")
    check_point_cap(d)
    rows = _point_rows(d)
    lam = (rows[0] & rows[1]).bit_count()
    for alpha in range(v - 1):
        row = rows[alpha]
        for beta in range(alpha + 1, v):
            count = (row & rows[beta]).bit_count()
            if count != lam:
                raise NotTwoDesignError(
                    "non-constant-pair-coverage",
                    ((1, 2, lam), (alpha + 1, beta + 1, count)),
                )
    if lam < 1:
        raise NotTwoDesignError("uncovered-pair", (1, 2))
    # every point lies in the same number r of blocks: each pair lies in
    # lam >= 1 blocks, so k >= 2, and counting the flags (q, B) with q != p
    # in the blocks B through a point p gives r_p(k - 1) = lam(v - 1)
    params = DesignParameters(v=v, b=d.b, k=k, r=rows[0].bit_count(), lam=lam)
    for name, _, _, holds, binds in condition_rows(params):
        if binds and not holds:
            raise NotTwoDesignError(name, params)
    return params


# The most blocks whose incidences _point_rows writes into one buffer, so
# that the buffer never exceeds v * _ROW_CHUNK bytes.
_ROW_CHUNK = 8192


def _point_rows(d: Design):
    """rows[p - 1]: the bitmask of the blocks containing point p (bit j for
    block j).  Each chunk of blocks is written as ASCII digits, one line of v
    bytes per block with the last block of the chunk first, so that point
    p's digits are the stride-v slice from byte p - 1 and read back with one
    int(., 2); this avoids one big-int |= per incidence."""
    v = d.v
    rows = [0] * v
    for start in range(0, d.b, _ROW_CHUNK):
        chunk = d.blocks[start:start + _ROW_CHUNK]
        buf = bytearray(b"0") * (v * len(chunk))
        base = len(buf) - v - 1  # buf[base + p]: point p of the current block
        for blk in chunk:
            for p in blk:
                buf[base + p] = 49  # ord("1")
            base -= v
        for p in range(v):
            rows[p] |= int(buf[p::v], 2) << start
        del buf  # before the next chunk's buffer is made
    return rows


def flags(d: Design):
    """All incident (point, block index) pairs, ordered by block then point."""
    return [(point, j) for j, blk in enumerate(d.blocks) for point in blk]


def is_automorphism(d: Design, p: Permutation) -> bool:
    """Whether p has degree v and carries every block onto a block."""
    return p.degree == d.v and _mask_images(_bit_table(p), d.blocks, d.block_index) is not None


def flag_orbit_count(g: PermGroup, d: Design) -> int:
    """Number of orbits of g on the flags of d.

    Each generator acts on a flag (point, block index) by its point table
    and its table of block indices (``perm._mask_images`` through
    ``Design.block_index``).  Raises
    GeneratorNotAutomorphism for a generator whose degree is not v or that
    does not preserve the block set.
    """
    tables = []
    for gen in g.generators:
        if gen.degree != d.v:
            raise GeneratorNotAutomorphism(
                "generator %r has degree %d, not v = %d" % (gen, gen.degree, d.v))
        blocks = _mask_images(_bit_table(gen), d.blocks, d.block_index)
        if blocks is None:
            raise GeneratorNotAutomorphism(
                "generator %r does not preserve the block set" % (gen,))
        tables.append(((0,) + gen.images, blocks))
    return len(orbits_on(flags(d), tables, _flag_image))


def _flag_image(tables, flag):
    points, blocks = tables
    return points[flag[0]], blocks[flag[1]]


def is_flag_transitive(g: PermGroup, d: Design):
    """Whether g is transitive on flags; returns (bool, flag orbit count)."""
    n = flag_orbit_count(g, d)
    return n == 1, n


def intersection_profile(d: Design, c: BlockSystem) -> IntersectionProfile:
    """Sizes of nonempty block/part intersections against a partition.

    If all nonempty intersections share one size ell, reports ell and the
    number of parts met per block (= k/ell); otherwise reports a
    counterexample witness.  Blocks and parts meet as point masks.
    """
    if c.degree != d.v:
        raise DesignError("partition degree %d != v %d" % (c.degree, d.v))
    if not d.blocks:
        raise DesignError("design has no blocks")
    parts = [sum(1 << (p - 1) for p in part) for part in c.parts]
    ell = None
    for j, mask in enumerate(d.block_index):
        for i, part in enumerate(parts):
            size = (mask & part).bit_count()
            if size == 0:
                continue
            if ell is None:
                ell = size
            elif size != ell:
                return IntersectionProfile(ell=ell, parts_met_per_block=0, constant=False,
                                           witness=(j, i, size, ell))
    # c partitions 1..v, so every (nonempty) block meets a part, and each
    # block's nonempty intersections sum to its size
    return IntersectionProfile(ell=ell, parts_met_per_block=len(d.blocks[0]) // ell,
                               constant=True)


def tuple_of(d: Design, g: PermGroup, c: BlockSystem) -> FeasibleTuple:
    """Assemble the full parameter tuple (lambda, v, k, r, b, c, d, ell, x)
    from a verified (design, flag-transitive group, invariant partition)
    triple and check it against the feasibility conditions.

    The multiplier is x = k - 1 - d(ell - 1); the condition
    ``block-size-split`` (k = x*c + ell) then checks it against the part
    size, and any failed condition is a DesignError naming it.
    """
    params = check_2_design(d)
    transitive, orbits = is_flag_transitive(g, d)
    if not transitive:
        raise DesignError("group is not flag-transitive (%d flag orbits)" % orbits)
    profile = intersection_profile(d, c)  # raises first on a wrong degree
    if not c.is_invariant_under(g.generators):
        raise DesignError("partition is not invariant under the group")
    if not profile.constant:
        raise DesignError(
            "block/part intersections are not constant: %r" % (profile.witness,)
        )
    return assemble_tuple(params, c, profile.ell)


def assemble_tuple(params: DesignParameters, c: BlockSystem, ell: int) -> FeasibleTuple:
    """The second half of ``tuple_of``: the tuple of a 2-design with
    parameters ``params`` and a partition ``c`` that every block meets in
    ell points or none, for callers that have already verified the design,
    the flag-transitive group and the invariant partition."""
    t = FeasibleTuple(
        lam=params.lam, v=params.v, k=params.k, r=params.r, b=params.b,
        c=c.part_size, d=c.num_parts, ell=ell,
        x=params.k - 1 - c.num_parts * (ell - 1),
    )
    failures = condition_failures(t)
    if failures:
        raise DesignError("feasibility condition failed: %s" % ", ".join(failures))
    return t


# -- design files ------------------------------------------------------------


def parse_design_text(text: str) -> Design:
    """Read the design file format: line 1 exactly ``v <n>`` with n >= 1,
    then one block per non-empty, non-# line as ascending space-separated
    point indices."""
    v, lines = _read_counted_lines(text, "design", "v", DesignError)
    # canonical spellings map through one table, which also shares one int
    # per point; any other spelling int() accepts ("01", "+2") falls back.
    # A block is built from a list: CPython grows a tuple read from an
    # iterator, so it bypasses the free list of its size but joins it when
    # freed, and such tuples pile up there until a full garbage collection
    numbers = {str(p): p for p in range(1, min(v, MAX_POINTS) + 1)}
    blocks = []
    for ln in lines:
        tokens = ln.split()
        try:
            blk = tuple([numbers[t] for t in tokens])
        except KeyError:
            try:
                blk = tuple([int(t) for t in tokens])
            except ValueError:
                raise DesignError("bad block line: %r" % ln) from None
        blocks.append(blk)
    return Design(v, blocks)


class _PointNames(dict):
    """point -> its spelling, made on the first lookup, so that the table
    holds only the points that occur; a point that is not an int (1.5,
    True) raises DesignError, as its spelling would not parse."""

    def __missing__(self, p):
        if type(p) is not int:
            raise DesignError("point %r is not an int" % (p,))
        name = self[p] = str(p)
        return name


def format_design_text(d: Design) -> str:
    """Canonical design file: sorted blocks, ascending points.  Raises
    DesignError for a point that is not an int."""
    names = _PointNames()
    lines = ["v %d" % d.v]
    lines.extend(" ".join(map(names.__getitem__, blk)) for blk in d.blocks)
    return "\n".join(lines) + "\n"
