"""Incidence structures and 2-design verification.

A ``Design`` is a point count v plus a list of distinct blocks (subsets of
{1..v}).  Verification covers the 2-design axioms (constant block size,
constant pair coverage), the standard counting identities and inequalities
relating (v, b, k, r, lambda), flags and flag-transitivity of an acting
group (orbits on the (point, block index) flags, by ``perm.orbits_on``),
and the constancy of block/part intersections against an invariant
partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .feasibility import CONDITIONS, FeasibleTuple, condition_failures
from .perm import BlockSystem, PermGroup, Permutation, orbits_on


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
# at most MAX_POINTS blocks: its initial coloring compares every pair of
# blocks, about 1.9 s for 3,276 blocks and 20 s for 9,880.
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

    __slots__ = ("v", "blocks", "_block_set")  # the cache is not a field
    v: int
    blocks: tuple

    def __init__(self, v, blocks):
        if v < 1:
            raise DesignError("need at least one point")
        norm = []
        for blk in blocks:
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
        object.__setattr__(self, "_block_set", None)  # built by block_set

    @property
    def b(self):
        return len(self.blocks)

    @property
    def block_set(self):
        """The blocks as a frozenset of frozensets, built on first use."""
        if self._block_set is None:
            object.__setattr__(self, "_block_set", frozenset(map(frozenset, self.blocks)))
        return self._block_set

    def relabel(self, p: Permutation):
        if p.degree != self.v:
            raise DesignError("permutation degree %d != v %d" % (p.degree, self.v))
        return Design(self.v, (p.image_of_set(blk) for blk in self.blocks))

    def __repr__(self):
        return "Design(v=%d, b=%d)" % (self.v, self.b)


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
# under these labels.  The "trivial" identities bind for every design, the
# "derived" inequalities only when 2 < k < v.
_DESIGN_CONDITIONS = (
    ("replication-count", "r(k-1)=lambda(v-1)", "trivial"),
    ("flag-count", "bk=vr", "trivial"),
    ("block-lower-bound", "b>=v", "derived"),
    ("replication-lower-bound", "r>=k", "derived"),
    ("replication-square", "r^2>lambda*v", "derived"),
)


def check_2_design(d: Design) -> DesignParameters:
    """Verify the 2-design axioms and counting identities.

    Block size must be constant, every point pair must lie in the same
    number of blocks (counted over all pairs on bit-set point rows), and
    the derived (v, b, k, r, lambda) must pass the ``_DESIGN_CONDITIONS``
    entries of ``feasibility.CONDITIONS``.  Raises NotTwoDesignError naming
    the first violated condition, with a witness, and PointCapExceeded when
    v is above MAX_POINTS.
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
    reps = [row.bit_count() for row in rows]
    r = reps[0]
    for p, rep in enumerate(reps, 1):
        if rep != r:
            raise NotTwoDesignError("non-constant-replication", (1, r, p, rep))
    params = DesignParameters(v=v, b=d.b, k=k, r=r, lam=lam)
    for name, _, provenance in _DESIGN_CONDITIONS:
        binds = provenance == "trivial" or params.nontrivial
        if binds and not CONDITIONS[name](params):
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
    if p.degree != d.v:
        return False
    return all(p.image_of_set(blk) in d.block_set for blk in d.blocks)


def flag_orbit_count(g: PermGroup, d: Design) -> int:
    """Number of orbits of g on the flags of d.

    Each generator acts on a flag (point, block index) by its point table
    and its table of block indices.  Raises GeneratorNotAutomorphism for a
    generator whose degree is not v or that does not preserve the block set.
    """
    index = {frozenset(blk): j for j, blk in enumerate(d.blocks)}
    tables = []
    for gen in g.generators:
        if gen.degree != d.v:
            raise GeneratorNotAutomorphism(
                "generator %r has degree %d, not v = %d" % (gen, gen.degree, d.v))
        blocks = [index.get(gen.image_of_set(blk)) for blk in d.blocks]
        if None in blocks:
            raise GeneratorNotAutomorphism(
                "generator %r does not preserve the block set" % (gen,)
            )
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
    counterexample witness.
    """
    if c.degree != d.v:
        raise DesignError("partition degree %d != v %d" % (c.degree, d.v))
    parts = [frozenset(part) for part in c.parts]
    ell = None
    for j, blk in enumerate(d.blocks):
        bs = frozenset(blk)
        for i, part in enumerate(parts):
            size = len(bs & part)
            if size == 0:
                continue
            if ell is None:
                ell = size
            elif size != ell:
                return IntersectionProfile(
                    ell=ell,
                    parts_met_per_block=0,
                    constant=False,
                    witness=(j, i, size, ell),
                )
    if ell is None:
        raise AssertionError("design has no nonempty block/part intersection")
    # c partitions 1..v, so each block's nonempty intersections sum to its size
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
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    header = lines[0].split() if lines else []
    if len(header) != 2 or header[0] != "v" or not header[1].isdecimal():
        raise DesignError("design file must start with a 'v <n>' line")
    try:
        v = int(header[1])
    except ValueError:  # more digits than int() converts
        raise DesignError("bad header line: %r" % lines[0]) from None
    # canonical spellings map through one table, which also shares one int
    # per point; any other spelling int() accepts ("01", "+2") falls back
    numbers = {str(p): p for p in range(1, min(v, MAX_POINTS) + 1)}
    blocks = []
    for ln in lines[1:]:
        tokens = ln.split()
        try:
            blk = tuple(map(numbers.__getitem__, tokens))
        except KeyError:
            try:
                blk = tuple(map(int, tokens))
            except ValueError:
                raise DesignError("bad block line: %r" % ln) from None
        blocks.append(blk)
    return Design(v, blocks)


def format_design_text(d: Design) -> str:
    """Canonical design file: sorted blocks, ascending points."""
    lines = ["v %d" % d.v]
    lines.extend(" ".join(str(p) for p in blk) for blk in d.blocks)
    return "\n".join(lines) + "\n"
