"""Exact permutation groups on {1..n}.

Permutations are stored as image tables over 1-based points.  Groups carry a
base and strong generating set, built by one Schreier-Sims recipe (Holt,
Eick & O'Brien, *Handbook of Computational Group Theory*, 2005, 4.4.2): the
residues of the generators are placed, each closing the basic orbits of
the levels it joins, and ``_complete`` then sifts the Schreier generators
from the deepest level up.  ``PermGroup.of_order`` places residues of
random products until the orbit lengths multiply to a known order, and
completes only if they do not; every group of known order is built that
way, so the constructor is left for groups read from files.  New base
points are the smallest points moved by each new residue.  The chain holds
padded image tables ``(0,) + images``, so points stay 1-based and the
product u*g (g after u) is ``tuple([g[x] for x in u])``; ``sift``,
``contains``, ``strong_generators`` and ``basic_orbits`` convert at the
boundary, so they take and give Permutations.  This gives exact orders,
membership tests, orbits and invariant partitions at the degrees used in
this package.  All orders are plain Python integers, so nothing overflows.
No setwise stabilizer is built: by orbit-stabilizer its order is
|G| / |orbit|.

Block systems come from one union-find, ``_min_partition``, run on the
action on the parts of each invariant partition that ``block_systems``
pops; systems are keyed by the point mask of their block through 1.  A
block holding the part B through 1 is a union of parts, so the join of B
with a part P is the smallest block holding B and any one point beta of
P, and it contains the minimal block Min(1, beta).  The first pop, on the
discrete partition, finds every Min(1, beta); later pops join B with one
part per class of parts linked by a shared minimal block, and skip a
class with a point whose minimal block is the whole set.

Orbits of points, point sets, bitmasks, flags and search vertices, and
the elements of a small group, come from one routine, ``closure`` (Holt,
Eick & O'Brien 2005, 4.1) with the action passed in, and ``orbits_on``
built on it, with no exception: ``orbit_of_set`` is the closure of one
point set.  Only ``_place_gen`` grows the basic orbits of the stabilizer
chain.

One image test on point masks, ``_mask_images`` on a permutation's
``_bit_table``, answers every automorphism and invariance test and gives
``block_systems`` its action on the parts; one reader, ``_read_counted_lines``,
reads the header and body lines of group and design files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm, prod


class CycleParseError(ValueError):
    """Malformed disjoint-cycle text."""


class GroupError(ValueError):
    """Invalid group construction or use."""


# the product seed, confirming sifts and trivial-sift limit of ``of_order``
_PRODUCT_SEED, _CONFIRMING_SIFTS, _TRIVIAL_SIFT_LIMIT = 1, 8, 64

# block systems can be exponential in number: Z2^n has one per nontrivial
# proper subspace of GF(2)^n, 2,823 for n = 6 and 29,210 for n = 7
MAX_BLOCK_SYSTEMS = 4096


class BlockSystemCapExceeded(RuntimeError):
    """A group with more than MAX_BLOCK_SYSTEMS block systems."""


@dataclass(frozen=True, init=False)
class Permutation:
    """A bijection of {1..n}, stored as the tuple of images of 1..n; equal
    and hashed by that tuple, and never equal to the tuple itself."""

    __slots__ = ("images",)
    images: tuple

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError("images are not a bijection of 1..%d" % n)
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, degree):
        return cls(range(1, degree + 1))

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, point):
        if point < 1:
            raise ValueError("point %d is below 1" % point)
        try:
            return self.images[point - 1]
        except IndexError:
            raise ValueError("point %d out of range 1..%d" % (point, self.degree)) from None

    def __mul__(self, other):
        """Composition acting left-to-right: (p*q)(x) = q(p(x))."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch: %d vs %d" % (self.degree, other.degree))
        oi = other.images
        return _trusted(tuple([oi[i - 1] for i in self.images]))

    def inverse(self):
        inv = [0] * self.degree
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return _trusted(tuple(inv))

    def is_identity(self):
        return self.images == tuple(range(1, self.degree + 1))

    def image_of_set(self, points):
        points = tuple(points)  # read an iterator once
        if points and min(points) < 1:
            raise ValueError("point %d is below 1" % min(points))
        images = self.images
        try:
            return frozenset([images[p - 1] for p in points])
        except IndexError:
            raise ValueError("point %d out of range 1..%d" % (max(points), self.degree)) from None

    def cycles(self):
        """Nontrivial cycles, each starting at its smallest point, sorted."""
        seen = [False] * (self.degree + 1)
        out = []
        for start in range(1, self.degree + 1):
            if seen[start] or self(start) == start:
                continue
            cyc = [start]
            seen[start] = True
            nxt = self(start)
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = self(nxt)
            out.append(tuple(cyc))
        return out

    def order(self):
        return lcm(1, *(len(c) for c in self.cycles()))

    def __repr__(self):
        return "Permutation(%r, degree=%d)" % (format_cycles(self), self.degree)


def _trusted(images):
    """A Permutation on an image tuple that is a bijection by construction
    (a product or inverse of validated permutations), built unchecked."""
    p = object.__new__(Permutation)
    object.__setattr__(p, "images", images)
    return p


def parse_cycles(text, degree):
    """Parse disjoint-cycle notation like ``(1,4)(2,6)(3,5)``.

    Unmentioned points are fixed; ``""`` and ``"()"`` denote the identity.
    Raises CycleParseError on malformed syntax, out-of-range points, or a
    point repeated across cycles.
    """
    if degree < 1:
        raise CycleParseError("degree must be positive")
    images = list(range(1, degree + 1))
    seen = set()
    s = text.strip()
    pos = 0
    while pos < len(s):
        if s[pos] != "(":
            raise CycleParseError("expected '(' at position %d in %r" % (pos, text))
        close = s.find(")", pos)
        if close < 0:
            raise CycleParseError("unclosed cycle in %r" % text)
        body = s[pos + 1 : close].strip()
        pos = close + 1
        while pos < len(s) and s[pos].isspace():
            pos += 1
        if not body:
            continue  # "()" = identity cycle
        try:
            entries = [int(tok) for tok in body.split(",")]
        except ValueError as exc:
            raise CycleParseError("bad cycle entry in %r: %s" % (text, exc)) from None
        for p in entries:
            if not 1 <= p <= degree:
                raise CycleParseError("point %d out of range 1..%d" % (p, degree))
            if p in seen:
                raise CycleParseError("point %d repeated in %r" % (p, text))
            seen.add(p)
        if len(entries) < 2:
            continue  # fixed point written explicitly
        for a, b in zip(entries, entries[1:]):
            images[a - 1] = b
        images[entries[-1] - 1] = entries[0]
    return Permutation(images)


def format_cycles(p):
    """Canonical disjoint-cycle string; identity prints as ``()``."""
    cycs = p.cycles()
    if not cycs:
        return "()"
    return "".join("(" + ",".join(str(x) for x in c) + ")" for c in cycs)


@dataclass(frozen=True, init=False)
class BlockSystem:
    """A partition of {1..degree} into d parts of common size c, 1 < c < degree."""

    __slots__ = ("degree", "parts")
    degree: int
    parts: tuple  # sorted tuple of sorted parts

    def __init__(self, degree, parts):
        parts = tuple(sorted(tuple(sorted(part)) for part in parts))
        covered = [p for part in parts for p in part]
        if sorted(covered) != list(range(1, degree + 1)):
            raise ValueError("parts do not partition 1..%d" % degree)
        sizes = {len(part) for part in parts}
        if len(sizes) != 1:
            raise ValueError("parts have unequal sizes %s" % sorted(sizes))
        c = sizes.pop()
        if not 1 < c < degree:
            raise ValueError("trivial partition (part size %d of %d)" % (c, degree))
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "parts", parts)

    @property
    def num_parts(self):
        return len(self.parts)

    @property
    def part_size(self):
        return len(self.parts[0])

    def is_invariant_under(self, perms):
        """Whether each of perms has this degree and maps parts onto parts."""
        perms = tuple(perms)
        return (all(g.degree == self.degree for g in perms)
                and self._maps_parts_onto_parts([_bit_table(g) for g in perms]))

    def _maps_parts_onto_parts(self, bit_tables):
        """Whether each permutation, given by its ``_bit_table``, maps parts
        onto parts."""
        index = {sum(1 << (p - 1) for p in part): i for i, part in enumerate(self.parts)}
        return all(_mask_images(bits, self.parts, index) is not None for bits in bit_tables)

    def __repr__(self):
        return "BlockSystem(c=%d, d=%d)" % (self.part_size, self.num_parts)


class _Level:
    __slots__ = ("point", "gens", "transversal", "inverses", "orbit_list", "done", "edge")

    def __init__(self, point, identity):
        self.point = point
        self.gens = []  # the strong generators that fix the earlier base points
        self.transversal = {point: identity}
        self.inverses = dict(self.transversal)  # orbit point -> transversal[q]^-1
        self.orbit_list = [point]
        self.done = {point: 0}  # orbit point p -> gens[:done[p]] are paired with p
        self.edge = {}  # orbit point q -> k: q was reached by gens[k], building transversal[q]

    def inverse(self, q):
        """transversal[q]^-1, built on first use (most never are); None off the orbit."""
        if q not in self.inverses and q in self.transversal:
            self.inverses[q] = (0,) + _trusted(self.transversal[q][1:]).inverse().images
        return self.inverses.get(q)


class PermGroup:
    """Permutation group from generators, with a base and strong generating set.

    The constructor places the residue of each generator that the chain
    built before it does not hold, then completes the chain once;
    ``generators`` keeps the input tuple, members included.  ``of_order``
    builds a chain to a known order.  The same generators in the same order
    give the same base, strong generators and transversals.
    """

    def __init__(self, generators, degree=None):
        generators = tuple(generators)
        if degree is None:
            if not generators:
                raise GroupError("empty generator list needs an explicit degree")
            degree = generators[0].degree
        self.degree = degree
        self._identity = tuple(range(degree + 1))
        self._levels = []
        for g in generators:
            if g.degree != degree:
                raise GroupError("generator degree %d does not match %d" % (g.degree, degree))
            self._grow((0,) + g.images)
        self._complete(len(self._levels) - 1)
        self.generators = generators

    # -- Schreier-Sims construction ------------------------------------
    #
    # Level i's ``gens`` are the strong generators that fix the first i base
    # points, and generate the i-th point stabilizer; its orbit is closed
    # under them whenever a generator has been placed.  Level i is complete
    # once every Schreier generator of that orbit sifts to the identity
    # through the deeper levels; each (orbit point, generator) pair is
    # sifted once, but for the tree edges that built the transversal (their
    # Schreier generators are trivial).  ``_complete`` walks the levels with
    # one level pointer (Holt, Eick & O'Brien 2005, 4.4.2).

    def _place_gen(self, h):
        """Append a nonidentity strong generator h to the gens of every level
        whose base point it fixes and of the first level whose base point it
        moves, a new one based at the smallest point h moves when h fixes
        every base point, and close the orbits of those levels; returns the
        index of the last one."""
        for j, level in enumerate(self._levels):
            if h[level.point] != level.point:
                break
        else:
            point = next(x for x in range(1, self.degree + 1) if h[x] != x)
            self._levels.append(_Level(point, self._identity))
            j = len(self._levels) - 1
        for level in self._levels[: j + 1]:
            level.gens.append(h)
            transversal, orbit, old = level.transversal, level.orbit_list, len(level.orbit_list)
            for n, p in enumerate(orbit):  # grows while the loop runs
                # the old points are closed under the other gens
                for k, g in ((len(level.gens) - 1, h),) if n < old else enumerate(level.gens):
                    q = g[p]
                    if q not in transversal:
                        transversal[q] = tuple([g[x] for x in transversal[p]])
                        orbit.append(q)
                        level.done[q], level.edge[q] = 0, k
        return j

    def _sift_from(self, i, h):
        """Residue of h through the stabilizer chain from level i down."""
        identity = self._identity
        for level in self._levels[i:]:
            if h == identity:
                return h
            img = h[level.point]
            if img == level.point:
                continue
            u_inv = level.inverse(img)
            if u_inv is None:
                return h
            h = tuple([u_inv[x] for x in h])
        return h

    def _grow(self, h):
        """Place h's residue, if nontrivial, sifting no Schreier generator;
        returns whether it placed one."""
        h = self._sift_from(0, h)
        if h == self._identity:
            return False
        self._place_gen(h)
        return True

    def _next_residue(self, i):
        """Sift each Schreier generator of level i's closed orbit not yet
        sifted through the deeper levels; returns the first nontrivial
        residue, or None once level i is complete."""
        level = self._levels[i]
        gens, transversal = level.gens, level.transversal
        done, edge, identity = level.done, level.edge, self._identity
        for p in level.orbit_list:
            up = transversal[p]
            for k, g in enumerate(gens[done[p]:], done[p]):
                q = g[p]
                if edge.get(q) == k:  # the tree edge p -> q: ug is transversal[q]
                    continue
                ug = tuple([g[x] for x in up])
                # the Schreier generator ug * inverses[q] is trivial iff ug == transversal[q]
                if ug != transversal[q]:
                    u_inv = level.inverse(q)
                    residue = self._sift_from(i + 1, tuple([u_inv[x] for x in ug]))
                    if residue != identity:
                        done[p] = k + 1
                        return residue
            done[p] = len(gens)
        return None

    def _complete(self, i):
        """Complete levels i..0, those past i being complete: a complete level
        i lowers i by one, else its next Schreier residue goes to a deeper
        level j, and i becomes j."""
        while i >= 0:
            residue = self._next_residue(i)
            if residue is None:
                i -= 1
                continue
            j = self._place_gen(residue)
            if j <= i:
                raise AssertionError("Schreier residue placed at level %r, not below %d"
                                     % (j, i))
            i = j

    @classmethod
    def of_order(cls, candidates, order, degree):
        """The group of the given order that ``candidates`` generate; its
        ``generators`` are the candidates, in order, that the chain built
        before them does not hold.  ``_grow`` places their residues, then
        those of products of 4 random kept generators (Seress, *Permutation
        Group Algorithms*, 2003, ch. 4).  The orbit lengths multiply to at
        most the group's order, and equality makes the chain a base and
        strong generating set; _CONFIRMING_SIFTS more trivial sifts catch a
        smaller ``order`` that they hit.  After _TRIVIAL_SIFT_LIMIT trivial
        sifts in a row ``_complete`` finishes the chain as the constructor
        does.  An orbit product past ``order``, another order after
        ``_complete``, or a candidate outside the chain raises
        AssertionError."""
        group, candidates = cls((), degree=degree), tuple(candidates)
        group.generators = tuple(g for g in candidates if group._grow((0,) + g.images))
        kept = [(0,) + g.images for g in group.generators]
        rng, walk, trivial = random.Random(_PRODUCT_SEED), group._identity, 0
        while kept and trivial < _TRIVIAL_SIFT_LIMIT and group.order() <= order and (
                group.order() != order or trivial < _CONFIRMING_SIFTS):
            for h in rng.choices(kept, k=4):
                walk = tuple([h[x] for x in walk])
            trivial = 0 if group._grow(walk) else trivial + 1
        if group.order() < order:
            group._complete(len(group._levels) - 1)
        if group.order() > order:
            raise AssertionError("chain order %d passes the given %d" % (group.order(), order))
        if group.order() != order or not all(map(group.contains, candidates)):
            raise AssertionError("the chain has order %d, not the given %d, or misses a "
                                 "candidate" % (group.order(), order))
        return group

    # -- queries ---------------------------------------------------------

    @property
    def base(self):
        return tuple(level.point for level in self._levels)

    @property
    def strong_generators(self):
        return tuple(_trusted(h[1:]) for h in self._levels[0].gens) if self._levels else ()

    @property
    def basic_orbits(self):
        """Per base point: (point, orbit in discovery order, transversal dict).

        Each transversal entry maps an orbit point q to a group element
        carrying the base point to q, witnessing orbit membership."""
        return tuple(
            (level.point, tuple(level.orbit_list),
             {q: _trusted(u[1:]) for q, u in level.transversal.items()})
            for level in self._levels
        )

    def order(self):
        return prod(len(level.orbit_list) for level in self._levels)

    def sift(self, p):
        """Residue of p through the stabilizer chain; identity iff p is a member."""
        if p.degree != self.degree:
            raise GroupError("permutation degree %d does not match %d" % (p.degree, self.degree))
        return _trusted(self._sift_from(0, (0,) + p.images)[1:])

    def contains(self, p):
        if p.degree != self.degree:
            return False
        return self._sift_from(0, (0,) + p.images) == self._identity

    def __contains__(self, p):
        return self.contains(p)

    def orbit(self, point):
        """The orbit of a point, as a sorted tuple."""
        if not 1 <= point <= self.degree:
            raise ValueError("point %d out of range 1..%d" % (point, self.degree))
        return tuple(sorted(closure((point,), self.generators)))

    def orbits(self):
        return orbits_on(range(1, self.degree + 1), self.generators)

    def is_transitive(self):
        return len(self.orbit(1)) == self.degree

    def orbit_of_set(self, points):
        """The orbit of a point set under the induced action on sets: a list
        of frozensets in breadth-first discovery order, the ``closure`` of
        the set.  Raises ValueError for a point outside 1..degree, and
        AssertionError if the orbit length does not divide |G|."""
        start = frozenset(points)
        for p in start:
            if not 1 <= p <= self.degree:
                raise ValueError("point %d out of range 1..%d" % (p, self.degree))
        orbit = closure([start], self.generators, Permutation.image_of_set)
        if self.order() % len(orbit):
            raise AssertionError("orbit length %d does not divide the group order %d"
                                 % (len(orbit), self.order()))
        return orbit

    # -- invariant partitions ---------------------------------------------

    def block_systems(self):
        """All nontrivial invariant partitions.  Sorted by part size, then
        lexicographically by first part.  Requires a transitive group, and
        raises BlockSystemCapExceeded past MAX_BLOCK_SYSTEMS systems.

        Every block through point 1 is a join of the minimal blocks
        Min(1, beta) (Atkinson, *An algorithm for finding the blocks of a
        permutation group*, Math. Comp. 29, 1975; Holt, Eick & O'Brien
        2005, 4.3).  A worklist pops invariant partitions, from the
        discrete one, and joins the part B through 1 with other parts by
        one seeded ``_min_partition`` on the action on the parts, which
        ``_mask_images`` gives and so checks that the partition is
        invariant.
        A block that contains B is a union of parts, so the join of B with
        a part P is the smallest block holding B and any one point beta of
        P, and it contains Min(1, beta).  Hence parts linked by a shared
        minimal block have one join, and a part holding a point whose
        minimal block is the whole set joins to the whole set.  The
        discrete partition's n - 1 joins are the minimal blocks; every
        later pop joins B with the first part of each linked class of
        parts (``_join_representatives``) and skips the rest.  A system is
        the orbit of its block through 1, so it is keyed by that block's
        point mask and lifted to sorted parts only when new."""
        if not self.is_transitive():
            raise GroupError("block systems require a transitive group")
        n = self.degree
        bit_tables = [_bit_table(g) for g in self.generators]
        where = [0] * (n + 1)  # point -> index of its part in the popped partition
        found = {}  # point mask of the block through 1 -> parts of its system
        minimal = {}  # point mask of a minimal block Min(1, beta) -> the points beta
        linked = []  # point lists whose parts share one join, filled by the first pop
        worklist = [tuple((p,) for p in range(1, n + 1))]
        while worklist:
            parts = worklist.pop()  # parts are sorted, so parts[0] holds 1
            if len({len(part) for part in parts}) != 1:
                raise AssertionError("congruence of a transitive group has unequal parts")
            masks = []
            for i, part in enumerate(parts):
                mask = 0
                for p in part:
                    where[p] = i
                    mask |= 1 << (p - 1)
                masks.append(mask)
            # each generator's action on the parts, by the image masks of the parts
            index = dict(zip(masks, range(len(parts))))
            tables = [_mask_images(bits, parts, index) for bits in bit_tables]
            if None in tables:
                raise AssertionError("block system is not invariant: %r" % (parts,))
            discrete = len(parts) == n  # the first pop, which finds the minimal blocks
            for j in range(1, n) if discrete else _join_representatives(len(parts), where, linked):
                classes = _min_partition(len(parts), tables, (0, j))
                block = 0
                for i in classes[0]:
                    block |= masks[i]
                if discrete:
                    minimal.setdefault(block, []).append(j + 1)
                if len(classes) == 1 or block in found:
                    continue
                if len(found) == MAX_BLOCK_SYSTEMS:
                    raise BlockSystemCapExceeded(
                        "%d block systems found, above the cap MAX_BLOCK_SYSTEMS = %d"
                        % (len(found) + 1, MAX_BLOCK_SYSTEMS))
                found[block] = joined = tuple(sorted(
                    tuple(sorted([p for i in cls for p in parts[i]])) for cls in classes))
                worklist.append(joined)
            if discrete:
                # a point whose minimal block is the whole set goes with 1
                whole = minimal.pop((1 << n) - 1, [])
                linked = [points for points in minimal.values() if len(points) > 1]
                linked.append([1] + whole)
        systems = [BlockSystem(n, parts) for parts in found.values()]
        systems.sort(key=lambda s: (s.part_size, s.parts))
        return systems

    def __repr__(self):
        return "PermGroup(degree=%d, order=%d, ngens=%d)" % (
            self.degree,
            self.order(),
            len(self.generators),
        )


def _bit_table(p):
    """The point masks of p's images: bit p(x) - 1 at index x, 0 at index 0."""
    return [0] + [1 << (y - 1) for y in p.images]


def _mask_images(bits, sets, index):
    """The value in ``index`` of the point mask (bit x - 1 for point x) of
    each set's image under the permutation whose ``_bit_table`` is bits,
    in order; None if an image mask is not in ``index``."""
    get, images = bits.__getitem__, []
    for s in sets:
        image = index.get(sum(map(get, s)))
        if image is None:
            return None
        images.append(image)
    return images


def _join_representatives(num_parts, where, linked):
    """The indices of the parts, past part 0 (through point 1), that
    ``block_systems`` joins with part 0: the first part of each class of
    parts that the point tuples of ``linked`` link (``where`` maps each
    point to its part), but for part 0's class."""
    link = list(range(num_parts))  # union-find on the parts, each class rooted at its first
    for points in linked:
        a = where[points[0]]
        while link[a] != a:
            link[a] = a = link[link[a]]
        for p in points[1:]:
            b = where[p]
            while link[b] != b:
                link[b] = b = link[link[b]]
            if a < b:
                link[b] = a
            elif b < a:
                link[a] = a = b
    return [i for i in range(1, num_parts) if link[i] == i]


def _min_partition(degree, tables, seed):
    """Finest congruence of the action on the points 0..degree-1 given by
    ``tables`` (each generator's list of images) with every point of seed
    in one class.  Returns its classes, each in increasing order: the class
    of seed[0] first, the others in order of their least points."""
    parent = list(range(degree))
    root = seed[0]
    absorbed = []  # each point whose root status ended, in merge order
    for p in seed[1:]:
        if p != root and parent[p] == p:
            parent[p] = root
            absorbed.append(p)
    for gamma in absorbed:  # grows while the loop runs
        delta = parent[gamma]
        while parent[delta] != delta:
            parent[delta] = delta = parent[parent[delta]]
        for img in tables:
            a, b = img[gamma], img[delta]
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                if b < a:
                    a, b = b, a
                parent[b] = a
                absorbed.append(b)
    while parent[root] != root:
        root = parent[root]
    classes = {root: []}
    for p in range(degree):
        r = p
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        classes.setdefault(r, []).append(p)
    return list(classes.values())


# -- orbits ------------------------------------------------------------------


def closure(seeds, gens, image=Permutation.__call__):
    """Breadth-first closure of ``seeds`` under the action ``image(g, x)`` of
    each g in ``gens``: the union of their orbits under the group that gens
    generate, as a list in discovery order, seeds first.  The default action
    is a Permutation on a point; ``Permutation.image_of_set`` acts on point
    sets, and any other callable on any hashable items."""
    out = list(dict.fromkeys(seeds))
    seen = set(out)
    for x in out:  # grows while the loop runs
        for g in gens:
            y = image(g, x)
            if y not in seen:
                seen.add(y)
                out.append(y)
    return out


def orbits_on(items, gens, image=Permutation.__call__):
    """The orbits on ``items`` of the group that ``gens`` generate, each a
    sorted tuple, in order of their least element.  Raises AssertionError
    if an orbit leaves ``items``."""
    left = set(items)
    out = []
    for x in sorted(left):
        if x in left:  # orbits are disjoint, so x's stays within ``left``
            orbit = closure((x,), gens, image)
            if not left.issuperset(orbit):
                raise AssertionError("the orbit of %r leaves the items" % (x,))
            left.difference_update(orbit)
            out.append(tuple(sorted(orbit)))
    return out


# -- group files -----------------------------------------------------------


def _read_counted_lines(text, kind, keyword, error):
    """(n, body lines) of a ``<keyword> <n>`` file, lines stripped and
    blank and # lines dropped; a bad header raises ``error``."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    header = lines[0].split() if lines else []
    if len(header) != 2 or header[0] != keyword or not header[1].isdecimal():
        raise error("%s file must start with a '%s <n>' line" % (kind, keyword))
    try:
        return int(header[1]), lines[1:]
    except ValueError:  # more digits than int() converts
        raise error("bad header line: %r" % lines[0]) from None


def parse_group_text(text, degree=None):
    """Read the group file format: line 1 exactly ``degree <n>`` with n >= 1,
    then one generator per non-empty, non-# line in disjoint-cycle notation.
    If ``degree`` is given, a header with another n raises GroupError before
    any generator is built."""
    n, lines = _read_counted_lines(text, "group", "degree", GroupError)
    if n < 1:
        raise GroupError("group degree must be positive")
    if degree is not None and n != degree:
        raise GroupError("group degree %d does not match %d" % (n, degree))
    gens = [parse_cycles(ln, n) for ln in lines]
    return PermGroup(gens, degree=n)


def format_group_text(group):
    """Write a PermGroup (its input generators) in the group file format."""
    lines = ["degree %d" % group.degree]
    lines.extend(format_cycles(g) for g in group.generators)
    return "\n".join(lines) + "\n"
