"""Built-in designs and their groups.

- ``twisted_diagonal_group`` / ``construction_36``: a flag-regular 2-(36,8,4)
  design on the 6x6 grid.  The group is the diagonal copy of Sym(6) twisted
  by an outer automorphism: one factor acts naturally on row indices while
  the column action is the image of the row action under the exceptional
  outer automorphism of Sym(6), pinned down by its effect on the standard
  generators.
- ``construction_36_cosets``: the same design built from the conjugation
  action of Sym(6) on its 36 Frobenius subgroups of order 20, with blocks
  read off orbits of dihedral stabilizers of (letter pair, bisection) data.
  Each of these subgroups is the normalizer of exactly one Sylow
  5-subgroup, and conjugation carries normalizers as it carries their
  Sylow subgroups, so a point is named by its Sylow subgroup's smallest
  generating 5-cycle and Sym(6) acts by relabeling that cycle's letters.
  The normalizer of each dihedral stabilizer H (of a letter pair {x, x'} and
  a bisection of the other four letters) is H x <(x,x')>: it permutes H's
  support, so it fixes {x, x'} setwise, and H is a self-normalizing Sylow
  2-subgroup of the symmetric group on its four letters.  So H's three
  generators and (x,x') generate it; they are checked to normalize H and to
  generate a group of order 16.
- ``projective_design``: the classical symmetric 2-(2^(n+1)-1, 2^n, 2^(n-1))
  design on the nonzero vectors of a binary space, blocks the complements
  of the hyperplanes.  ``semilinear_group_15`` gives its point-imprimitive
  flag-transitive group of order 360 for n = 3.
- ``design_96``: four 2-(96,20,4) designs, each the orbit of an
  explicit 20-point block under one of two block-regular groups of order 96
  shipped as data files.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from importlib import resources
from itertools import combinations, permutations

from .design import Design, NotTwoDesignError, _mask_block, check_2_design
from .perm import PermGroup, Permutation, closure, orbits_on, parse_cycles, parse_group_text

# sha256 of the shipped generator files, pinned against silent edits
_DATA_CHECKSUMS = {
    "h1_group.txt": "61797adcb4a28cbc03253ad816bfee2d44e5dc094cbd39d47dc18849b9fd593e",
    "h2_group.txt": "43be7b87ea7945ada7fc1a74c7c37f3496b45fd01f65b39148322e060cad2672",
}

# The outer automorphism of Sym(6) used throughout, given by its images of
# the standard generators (1,2) and (1,2,3,4,5,6).  Its keys, in this order,
# are the generators of every Sym(6) action built here.
OUTER_AUT_IMAGES = {
    "(1,2)": "(1,4)(2,6)(3,5)",
    "(1,2,3,4,5,6)": "(1,3)(2,6,5)",
}


def grid_index(i, j):
    """(i, j) in the 6x6 grid -> linear point 6(i-1)+j."""
    if not (1 <= i <= 6 and 1 <= j <= 6):
        raise ValueError("grid coordinates out of range: (%d, %d)" % (i, j))
    return 6 * (i - 1) + j


def grid_coords(point):
    if not 1 <= point <= 36:
        raise ValueError("grid point out of range: %d" % point)
    return (point - 1) // 6 + 1, (point - 1) % 6 + 1


def _grid_perm(row_perm, col_perm):
    images = [0] * 36
    for i in range(1, 7):
        for j in range(1, 7):
            images[grid_index(i, j) - 1] = grid_index(row_perm(i), col_perm(j))
    return Permutation(images)


@lru_cache(maxsize=None)
def twisted_diagonal_group():
    """The twisted-diagonal group of order 720 on the 36 grid points.

    Generated by two permutations acting coordinate-wise: row action (1,2)
    with column action (1,4)(2,6)(3,5), and row action (1,2,3,4,5,6) with
    column action (1,3)(2,6,5)."""
    return PermGroup.of_order([_grid_perm(parse_cycles(g, 6), parse_cycles(image, 6))
                               for g, image in OUTER_AUT_IMAGES.items()], 720, 36)


CONSTRUCTION_36_BASE_BLOCK = frozenset(
    grid_index(i, j)
    for i, j in [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3), (4, 4)]
)


def orbit_design(group: PermGroup, base_block) -> Design:
    """The design whose blocks are the orbit of base_block under group
    (``PermGroup.orbit_of_set``, which rejects points outside 1..v)."""
    base_block = frozenset(base_block)
    if not base_block:
        raise ValueError("base block must be nonempty")
    return Design(group.degree, group.orbit_of_set(base_block))


@lru_cache(maxsize=None)
def construction_36() -> Design:
    """The flag-regular 2-(36,8,4) design: orbit of the base block
    {1,2,7,9,14,16,21,22} under the twisted-diagonal group; 90 blocks."""
    d = orbit_design(twisted_diagonal_group(), CONSTRUCTION_36_BASE_BLOCK)
    if d.b != 90:
        raise AssertionError("grid design has %d blocks, not 90" % d.b)
    return d


# -- coset model on the 36 Frobenius subgroups ------------------------------


def _sylow_name(cycle):
    """The smallest generating 5-cycle, as a cycle tuple starting at its
    smallest letter, of the subgroup generated by the 5-cycle ``cycle``."""
    names = []
    for k in range(1, 5):
        power = [cycle[i * k % 5] for i in range(5)]
        s = power.index(min(power))
        names.append(tuple(power[s:] + power[:s]))
    return min(names)


class FrobeniusModel:
    """The 36 order-20 Frobenius subgroups of Sym(6) as labeled points.

    Each such subgroup is the normalizer of exactly one Sylow 5-subgroup
    (its own, which is normal in it), and conjugating the normalizer of P
    by g gives the normalizer of g^-1 P g.  So a point is named by the
    smallest generating 5-cycle of its Sylow 5-subgroup, points are sorted
    by that name, and Sym(6) acts on them as on the 5-cycles: g relabels
    each letter a of the cycle as g(a).  Each point fixes exactly one
    letter, the one its 5-cycle misses, giving the invariant partition used
    by the coset construction."""

    def __init__(self):
        self.points = sorted({_sylow_name(c) for c in permutations(range(1, 7), 5)})
        if len(self.points) != 36:
            raise AssertionError("expected 36 Sylow 5-subgroups, found %d" % len(self.points))
        self.index_of = {name: i + 1 for i, name in enumerate(self.points)}
        self.fixed_letter = {
            i + 1: (set(range(1, 7)) - set(name)).pop()
            for i, name in enumerate(self.points)
        }

    def induced(self, g: Permutation) -> Permutation:
        """The degree-36 permutation of the points induced by conjugation."""
        return Permutation(
            self.index_of[_sylow_name([g(a) for a in name])] for name in self.points
        )

    def group(self) -> PermGroup:
        return PermGroup.of_order([self.induced(parse_cycles(gen, 6))
                                   for gen in OUTER_AUT_IMAGES], 720, 36)

    def triple_data(self, x, xp, bisection):
        """For the triple (x, x', pi): the 24-point set of points fixing a
        letter outside {x, x'}, the three length-8 orbits on it of the
        dihedral stabilizer of (x, x', pi), and the two orbit blocks
        interchanged by the stabilizer's normalizer (the third is fixed).

        Raises ValueError unless x, x' and the bisection's letters are
        1..6, and AssertionError if the orbit structure deviates."""
        (z1, z2), (z3, z4) = bisection
        if sorted((x, xp, z1, z2, z3, z4)) != list(range(1, 7)):
            raise ValueError(
                "x, x' and the bisection must use each letter 1..6 once: %r"
                % ((x, xp, bisection),)
            )
        hgens6 = [
            parse_cycles("(%d,%d)" % (z1, z2), 6),
            parse_cycles("(%d,%d)" % (z3, z4), 6),
            parse_cycles("(%d,%d)(%d,%d)" % (z1, z3, z2, z4), 6),
        ]
        h6 = PermGroup.of_order(hgens6, 8, 6)
        # the normalizer N(H) = H x <(x,x')>, by the module docstring
        swap = parse_cycles("(%d,%d)" % (x, xp), 6)
        ngens6 = hgens6 + [swap]
        if not all(h6.contains(g.inverse() * h * g) for g in ngens6 for h in hgens6):
            raise AssertionError("the normalizer generators do not normalize the stabilizer")
        PermGroup.of_order(ngens6, 16, 6)  # raises AssertionError on another order
        hgens36 = [self.induced(g) for g in hgens6]
        ngens36 = hgens36 + [self.induced(swap)]
        zset = {z1, z2, z3, z4}
        p24 = frozenset(
            pt for pt in range(1, 37) if self.fixed_letter[pt] in zset
        )
        if len(p24) != 24:
            raise AssertionError("%d points fix a letter of the bisection, not 24" % len(p24))
        # raises AssertionError if a stabilizer orbit leaves the 24 points
        orbits = [frozenset(o) for o in orbits_on(p24, hgens36)]
        if sorted(len(o) for o in orbits) != [8, 8, 8]:
            raise AssertionError(
                "stabilizer orbit sizes %s, not [8, 8, 8]" % sorted(len(o) for o in orbits)
            )
        moved, invariant = [], []
        for orb in orbits:
            images = set(closure([orb], ngens36, Permutation.image_of_set))
            if not images <= set(orbits):
                raise AssertionError("the normalizer does not permute the orbits")
            (invariant if images == {orb} else moved).append(orb)
        if len(invariant) != 1 or len(moved) != 2:
            raise AssertionError(
                "%d orbits fixed by the normalizer, not 1" % len(invariant)
            )
        moved.sort(key=lambda o: tuple(sorted(o)))
        return p24, orbits, moved, invariant[0]

    @staticmethod
    def triples():
        """All 45 (letter pair, bisection) classes, canonically ordered."""
        out = []
        for x, xp in combinations(range(1, 7), 2):
            zs = [z for z in range(1, 7) if z not in (x, xp)]
            for bisection in (
                ((zs[0], zs[1]), (zs[2], zs[3])),
                ((zs[0], zs[2]), (zs[1], zs[3])),
                ((zs[0], zs[3]), (zs[1], zs[2])),
            ):
                out.append((x, xp, bisection))
        return out


@lru_cache(maxsize=None)
def _frobenius_model():
    return FrobeniusModel()


def construction_36_cosets():
    """The 2-(36,8,4) design in the Frobenius-subgroup model.

    Blocks are the orbit of the chosen 8-point block of the canonical first
    triple ((1,2), {{3,4},{5,6}}); of the two stabilizer orbits swapped by
    the normalizer, the one with lexicographically smaller sorted point list
    is chosen (both give the same block set, which the tests confirm)."""
    model = _frobenius_model()
    seed = model.triple_data(*model.triples()[0])[2][0]
    design = orbit_design(model.group(), seed)
    if design.b != 90:
        raise AssertionError("coset design has %d blocks, not 90" % design.b)
    return design


def coset_model_group() -> PermGroup:
    """The degree-36 conjugation action of Sym(6) on the Frobenius points."""
    return _frobenius_model().group()


# -- binary projective family ------------------------------------------------


def projective_design(n: int) -> Design:
    """Hyperplane-complement design on the nonzero vectors of an
    (n+1)-dimensional binary space, for odd n with 3 <= n <= 9.

    Points are the integers 1..2^(n+1)-1 read as coordinate bitmasks; the
    block of the functional w is {u : parity(u & w) = 1}.  This is a
    symmetric 2-(2^(n+1)-1, 2^n, 2^(n-1)) design."""
    if n % 2 == 0:
        raise ValueError("n must be odd")
    if not 3 <= n <= 9:
        raise ValueError("n out of supported range 3..9")
    v = 2 ** (n + 1) - 1
    # parity[w]: the point mask of w's block; parity(u & w) is linear in w
    parity = [0] * (v + 1)
    for i in range(n + 1):
        parity[1 << i] = sum(1 << (u - 1) for u in range(1, v + 1) if u >> i & 1)
    for w in range(1, v + 1):
        low = w & -w
        parity[w] = parity[w ^ low] ^ parity[low]
    points = tuple(range(1, v + 1))
    return Design(v, [_mask_block(parity[w], points) for w in range(1, v + 1)])


# GF(4) with elements 0, 1, w, w^2 encoded 0..3 (w^2 = w + 1); addition is xor
_GF4_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)


def _vector_perm(f):
    """Permutation of 1..15 from a bijection of the nonzero GF(4)^2 vectors,
    encoded as 4-bit integers (a << 2) | b."""
    images = [0] * 15
    for vec in range(1, 16):
        a, b = vec >> 2, vec & 3
        fa, fb = f(a, b)
        images[vec - 1] = (fa << 2) | fb
    return Permutation(images)


@lru_cache(maxsize=None)
def semilinear_group_15() -> PermGroup:
    """Invertible semilinear transformations of a 2-dimensional space over
    the 4-element field, acting on the 15 nonzero vectors of the underlying
    4-dimensional binary space; order 360.

    Generated by the GL(2,4) generators [[0,1],[1,0]], [[1,1],[0,1]],
    diag(w,1) plus coordinate-wise squaring (the field automorphism).  All
    four are GF(2)-linear, so they are automorphisms of projective_design(3)
    under the shared bitmask point labeling."""
    swap = _vector_perm(lambda a, b: (b, a))
    transvection = _vector_perm(lambda a, b: (a ^ b, b))
    diag = _vector_perm(lambda a, b: (_GF4_MUL[2][a], b))
    frobenius = _vector_perm(
        lambda a, b: (_GF4_MUL[a][a], _GF4_MUL[b][b])
    )
    return PermGroup.of_order([swap, transvection, diag, frobenius], 360, 15)


def gf4_line_partition():
    """The 5 punctured 1-dimensional GF(4)-subspaces of the 15 points (the
    orbits of the nonzero scalars), as sorted tuples; the unique nontrivial
    block system of the semilinear group."""

    def scale(s, vec):
        return (_GF4_MUL[s][vec >> 2] << 2) | _GF4_MUL[s][vec & 3]

    return tuple(orbits_on(range(1, 16), [2], scale))  # w generates the scalars


# -- the four 96-point designs ------------------------------------------------

# Base blocks for (group, block index).  The first H1 block as printed in
# the source data contained the impossible entry "141"; repair_h1_block1
# re-runs the search over the plausible corrections and exactly one (14)
# yields a 2-design, so it is shipped here.
BASE_BLOCKS_96 = {
    ("h1", 1): (1, 2, 3, 11, 12, 14, 17, 29, 31, 32, 36, 41, 47, 51, 57, 63, 68, 85, 87, 93),
    ("h1", 2): (1, 2, 3, 11, 14, 17, 24, 29, 31, 35, 43, 44, 48, 56, 64, 65, 69, 90, 95, 96),
    ("h2", 1): (1, 2, 3, 5, 11, 15, 21, 22, 23, 27, 41, 43, 62, 68, 77, 80, 86, 90, 92, 95),
    ("h2", 2): (1, 2, 3, 5, 11, 15, 21, 23, 31, 34, 46, 58, 66, 67, 69, 70, 72, 73, 89, 96),
}

# Full automorphism group orders of the four designs, in (group, block) order
AUT_ORDERS_96 = {
    ("h1", 1): 552960,
    ("h1", 2): 184320,
    ("h2", 1): 138240,
    ("h2", 2): 7680,
}


def _load_data_text(filename):
    text = (
        resources.files("ftdesigns.data").joinpath(filename).read_text(encoding="utf-8")
    )
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    expected = _DATA_CHECKSUMS[filename]
    if expected != digest:
        raise RuntimeError(
            "data file %s checksum mismatch: %s != %s" % (filename, digest, expected)
        )
    return text


@lru_cache(maxsize=None)
def block_regular_group_96(group_id: str) -> PermGroup:
    """One of the two shipped block-regular groups of order 96 on 96 points."""
    if group_id not in ("h1", "h2"):
        raise ValueError("group_id must be 'h1' or 'h2'")
    group = parse_group_text(_load_data_text("%s_group.txt" % group_id))
    if group.degree != 96 or group.order() != 96:
        raise AssertionError(
            "%s has degree %d and order %d, not 96 and 96"
            % (group_id, group.degree, group.order())
        )
    return group


def design_96(group_id: str, block_id: int):
    """(group, design) for one of the four 2-(96,20,4) designs.

    The group is block-regular: the design is the orbit of the listed
    20-point block, the orbit has size 96 = group order, and the design is
    symmetric with parameters (96, 96, 20, 20, 4)."""
    key = (group_id, block_id)
    if key not in BASE_BLOCKS_96:
        raise ValueError("unknown design %r; use ('h1'|'h2', 1|2)" % (key,))
    group = block_regular_group_96(group_id)
    design = orbit_design(group, BASE_BLOCKS_96[key])
    params = check_2_design(design)
    if params.as_tuple() != (96, 96, 20, 20, 4):
        raise AssertionError("design %r has parameters %s" % (key, params.as_tuple()))
    return group, design


def repair_h1_block1():
    """Re-run the repair search for the corrupted first H1 block.

    The printed block contains "141", impossible on 96 points.  Candidate
    corrections: 14, 41 and 4.  41 is already present (rejected as a
    duplicate); each remaining candidate 20-set is orbited under H1 and kept
    only if it yields a 2-(96,96,20,20,4) design.  Returns
    (winning value, corrected block, per-candidate report); raises if zero
    or multiple candidates pass."""
    template = [1, 2, 3, 11, 12, None, 17, 29, 31, 32, 36, 41, 47, 51, 57, 63, 68, 85, 87, 93]
    group = block_regular_group_96("h1")
    report = {}
    winners = []
    for candidate in (14, 41, 4):
        block = tuple(candidate if x is None else x for x in template)
        if len(set(block)) != 20:
            report[candidate] = "rejected: duplicate point"
            continue
        d = orbit_design(group, block)
        if d.b != 96:
            report[candidate] = "rejected: orbit size %d" % d.b
            continue
        try:
            params = check_2_design(d)
        except NotTwoDesignError as exc:
            report[candidate] = "rejected: %s" % exc.condition
            continue
        if params.as_tuple() == (96, 96, 20, 20, 4):
            report[candidate] = "accepted: 2-(96,20,4), b=96"
            winners.append((candidate, tuple(sorted(block))))
        else:
            report[candidate] = "rejected: parameters %s" % (params.as_tuple(),)
    if len(winners) != 1:
        raise RuntimeError(
            "block repair must yield exactly one candidate, got %d (%r)"
            % (len(winners), report)
        )
    value, block = winners[0]
    return value, block, report


CONSTRUCT_NAMES = ("d36", "d36-cosets", "pg", "d96")


def construct_by_name(tokens):
    """Dispatch for the CLI ``construct`` names:

    d36 | d36-cosets | pg N | d96 (h1|h2) (1|2)
    """
    if not tokens:
        raise ValueError("missing construction name")
    name, args = tokens[0], tokens[1:]
    if name == "d36":
        if args:
            raise ValueError("d36 takes no arguments")
        return construction_36()
    if name == "d36-cosets":
        if args:
            raise ValueError("d36-cosets takes no arguments")
        return construction_36_cosets()
    if name == "pg":
        try:
            (n,) = map(int, args)
        except ValueError:
            raise ValueError("usage: pg N (odd N, 3..9)") from None
        return projective_design(n)
    if name == "d96":
        if len(args) != 2 or args[0] not in ("h1", "h2") or args[1] not in ("1", "2"):
            raise ValueError("usage: d96 (h1|h2) (1|2)")
        _, design = design_96(args[0], int(args[1]))
        return design
    raise ValueError("unknown construction %r; names: %s" % (name, ", ".join(CONSTRUCT_NAMES)))
