"""Automorphism groups, canonical forms and isomorphism testing of designs.

The engine is an individualization-refinement search on the two-colored
point/block incidence structure, in the style of canonical graph labeling:

- vertices are the v points followed by the b blocks, adjacency is
  incidence, and the two color classes never mix;
- the initial coloring splits points by (degree, multiset of co-block
  counts with the other points) and blocks by (size, multiset of pairwise
  intersection sizes) -- this invariant set is fixed; changing it would
  change certificates;
- refinement splits cells by neighbor counts into the other cells until the
  coloring is equitable; its sequence of split events is the trace token,
  which picks the canonical leaf and so is part of the certificate (a
  test pins it against the original full-rescan refinement);
- a refinement round runs as splitters only the cells that can still
  split: every cell at the root, the individualized singleton below it,
  and then the parts of each cell split in the round before, except the
  last part (McKay 1981; McKay & Piperno 2014).  A skipped cell would
  split nothing, so it adds no event and the trace is that of the full
  rescan: once a cell has run as a splitter, every cell has equal counts
  into it until it splits, and the last part's counts are its old cell's
  counts minus those of the parts before it;
- the search individualizes vertices of the first smallest non-singleton
  cell (children in vertex order), records a label-invariant trace token
  per node, and keeps two reference leaves: the first leaf (for
  automorphism discovery) and the best (trace, certificate) leaf, whose
  labeling defines the canonical form;
- each automorphism is stored once, keyed by its vertex image tuple; a
  child is pruned when it lies in the closure (``perm.closure``) of the
  explored siblings under the stored automorphisms fixing the
  individualized prefix, and the stored automorphisms generate the full
  automorphism group;
- a leaf equivalent to the first or the best leaf gives an automorphism
  carrying the earlier leaf's path onto its own, so it maps the explored
  subtree below their common ancestor onto the rest of the current one:
  the search backjumps to that ancestor (McKay 1981), which changes neither
  the best leaf nor the group generated.

Search size is bounded by a node cap; hitting it raises
ResourceCapExceeded rather than returning a truncated answer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, islice, product
from operator import getitem
from typing import Optional

from .construct import twisted_diagonal_group
from .design import (MAX_POINTS, Design, DesignError, NotTwoDesignError, PointCapExceeded,
                     check_2_design, check_point_cap, is_automorphism)
from .perm import PermGroup, Permutation, closure, orbits_on

DEFAULT_NODE_CAP = 10**7


class ResourceCapExceeded(RuntimeError):
    def __init__(self, nodes):
        self.nodes = nodes
        super().__init__("search node cap exceeded at %d nodes" % nodes)


@dataclass(frozen=True)
class CanonicalForm:
    relabeling: Permutation = field(compare=False)  # original -> canonical points
    blocks: tuple = field(compare=False)  # canonical block list (sorted tuples)
    certificate: bytes


@dataclass(frozen=True)
class AutResult:
    group: PermGroup
    order: int
    nodes_explored: int


class _Leaf:
    __slots__ = ("tokens", "cert", "order", "prefix")

    def __init__(self, tokens, cert, order, prefix):
        self.tokens = tokens
        self.cert = cert
        self.order = order
        self.prefix = prefix  # the individualized vertices on its path


class _Search:
    def __init__(self, design: Design, node_cap: int):
        self.design = design
        self.node_cap = node_cap
        self.v = design.v
        self.b = design.b
        n = self.v + self.b
        adj = [0] * n
        for j, blk in enumerate(design.blocks):
            bvert = self.v + j
            for p in blk:
                adj[p - 1] |= 1 << bvert
                adj[bvert] |= 1 << (p - 1)
        self.adj = adj
        self.nodes = 0
        self.first: Optional[_Leaf] = None
        self.best: Optional[_Leaf] = None
        self.autos = {}  # vertex image tuple -> point Permutation, in order found

    # -- initial invariant-based coloring --------------------------------

    def _initial_cells(self):
        """Points, then blocks, split by (degree, sorted counts of common
        neighbors with each other vertex of the same class), in key order.
        Each unordered pair's count is taken once and added to both lists."""
        adj = self.adj
        cells = []
        for verts in (range(self.v), range(self.v, self.v + self.b)):
            common = {u: [] for u in verts}
            for i, u in enumerate(verts):
                au, cu = adj[u], common[u]
                for w in verts[i + 1 :]:
                    c = (au & adj[w]).bit_count()
                    cu.append(c)
                    common[w].append(c)
            groups = {}
            for u in verts:
                groups.setdefault((adj[u].bit_count(), tuple(sorted(common[u]))), []).append(u)
            cells.extend(tuple(groups[key]) for key in sorted(groups))
        return tuple(cells)

    # -- refinement -------------------------------------------------------

    def _refine(self, cells, splitters=None):
        """Split cells by neighbor counts until equitable; returns the new
        cells plus a label-invariant trace of the split events.

        Each round runs some of the cells at its start as splitters, in
        order, and splits every cell by its members' neighbor counts into
        the splitter.  An event is (splitter index, index of the cell before
        this splitter ran, sorted counts, part sizes).  Only non-singleton
        cells of the other color class are tested: a singleton cannot
        split, and points meet only blocks, so the events are those of
        testing every cell.

        ``splitters`` gives the indices of the first round's splitters, in
        order; None runs every cell.  ``_recurse`` passes only the
        individualized singleton: the parent's cells were equitable, so the
        rest of the target cell splits nothing once the singleton has run.
        A later round runs the parts of each cell split in the round before,
        except the last part.  A skipped cell would split nothing, so the
        events are those of running every cell: once a splitter has run,
        every cell has equal counts into it, so a cell not split since
        cannot split anything, and the last part's counts are its old
        cell's counts minus those of the parts run before it."""
        adj, v = self.adj, self.v
        trace = []
        targets = None
        if splitters is None:
            splitters = range(len(cells))
        while splitters:
            start = cells
            origin = list(range(len(cells)))  # round-start cell of each cell
            for si in splitters:
                scell = start[si]
                if targets is None:
                    targets = self._nonsingletons(cells)
                candidates = targets[scell[0] < v]
                if not candidates:
                    continue
                smask = sum(1 << u for u in scell)
                parts = []
                for ci in candidates:
                    cell = cells[ci]
                    first = (adj[cell[0]] & smask).bit_count()
                    for u in cell:
                        if (adj[u] & smask).bit_count() != first:
                            break
                    else:  # all counts equal: no split
                        continue
                    buckets = {}
                    for u in cell:
                        buckets.setdefault((adj[u] & smask).bit_count(), []).append(u)
                    keys = sorted(buckets)
                    trace.append((si, ci, tuple(keys), tuple(len(buckets[k]) for k in keys)))
                    parts.append((ci, [tuple(buckets[k]) for k in keys]))
                if parts:
                    newcells = list(cells)
                    for ci, split in reversed(parts):
                        newcells[ci : ci + 1] = split
                        origin[ci : ci + 1] = [origin[ci]] * len(split)
                    cells = tuple(newcells)
                    targets = None
            splitters = [i for i in range(len(cells) - 1) if origin[i] == origin[i + 1]]
        return cells, tuple(trace)

    def _nonsingletons(self, cells):
        """Indices of the non-singleton cells, indexed by whether they can
        split by a point splitter: ([point cells], [block cells])."""
        targets = ([], [])
        for ci, cell in enumerate(cells):
            if len(cell) > 1:
                targets[cell[0] >= self.v].append(ci)
        return targets

    @staticmethod
    def _individualize(cells, ci, w):
        cell = cells[ci]
        rest = tuple(u for u in cell if u != w)
        return cells[:ci] + ((w,), rest) + cells[ci + 1 :]

    # -- leaves -----------------------------------------------------------

    def _leaf(self, cells, tokens, prefix):
        order = [cell[0] for cell in cells]
        position = [0] * len(order)
        for i, u in enumerate(order):
            position[u] = i
        blocks = sorted(
            tuple(sorted(position[p - 1] + 1 for p in blk))
            for blk in self.design.blocks
        )
        cert = ("v=%d;b=%d;" % (self.v, self.b)).encode("ascii") + ";".join(
            ",".join(str(p) for p in blk) for blk in blocks
        ).encode("ascii")
        return _Leaf(tokens, cert, order, prefix)

    def _record_auto(self, leaf_a, leaf_b):
        if leaf_a.order == leaf_b.order:  # the identity
            return
        gmap = [0] * (self.v + self.b)
        for a, b in zip(leaf_a.order, leaf_b.order):
            gmap[a] = b
        key = tuple(gmap)
        if key in self.autos:
            return
        perm = Permutation(u + 1 for u in key[: self.v])
        if not is_automorphism(self.design, perm):
            raise AssertionError("search produced a non-automorphism; invariant bug")
        self.autos[key] = perm

    def _handle_leaf(self, leaf):
        """Compare a leaf with the first and best leaves; returns the depth
        of its common ancestor with the shallower one it matches, or None.

        Both are earlier leaves, and two distinct leaves never have equal
        ``order``: cells split only in place, so at their deepest common
        ancestor the two differing individualized vertices take the same
        position in both final orders.  So a match is never the identity."""
        jump = None
        if self.first is None:
            self.first = leaf
        elif leaf.tokens == self.first.tokens and leaf.cert == self.first.cert:
            self._record_auto(self.first, leaf)
            jump = _common_depth(self.first.prefix, leaf.prefix)
        if self.best is None or (leaf.tokens, leaf.cert) > (
            self.best.tokens,
            self.best.cert,
        ):
            self.best = leaf
        elif leaf.tokens == self.best.tokens and leaf.cert == self.best.cert:
            self._record_auto(self.best, leaf)
            depth = _common_depth(self.best.prefix, leaf.prefix)
            jump = depth if jump is None else min(jump, depth)
        return jump

    # -- main recursion -----------------------------------------------------

    def run(self):
        cells = self._initial_cells()
        cells, token = self._refine(cells)
        self._recurse(cells, (token,), ())
        return self

    def _recurse(self, cells, tokens, prefix):
        """Explore the node reached by individualizing ``prefix``; returns
        None, or the depth of the ancestor to unwind to."""
        self.nodes += 1
        if self.nodes > self.node_cap:
            raise ResourceCapExceeded(self.nodes)
        keep_first = self.first is None or tokens == self.first.tokens[: len(tokens)]
        keep_best = self.best is None or tokens >= self.best.tokens[: len(tokens)]
        if not (keep_first or keep_best):
            return None
        sizes = [len(cell) for cell in cells]
        if max(sizes) == 1:
            return self._handle_leaf(self._leaf(cells, tokens, prefix))
        smallest = min(s for s in sizes if s > 1)
        ti = next(i for i, s in enumerate(sizes) if s == smallest)
        # pruned: the explored children's closure under gens, the found
        # automorphisms fixing the prefix (the first `seen` were checked)
        pruned, gens, seen = set(), [], 0
        for w in sorted(cells[ti]):
            if len(self.autos) > seen:
                new = [g for g in islice(self.autos, seen, None)
                       if all(g[u] == u for u in prefix)]
                seen = len(self.autos)
                if new:
                    gens += new
                    pruned = set(closure(pruned, gens, getitem))
            if w in pruned:
                continue
            child = self._individualize(cells, ti, w)
            child, token = self._refine(child, (ti,))
            jump = self._recurse(child, tokens + (token,), prefix + (w,))
            if jump is not None and jump < len(prefix):
                return jump
            pruned.update(closure((w,), gens, getitem))
        return None


def _common_depth(prefix_a, prefix_b):
    """Length of the longest common prefix: the depth of the common ancestor."""
    depth = 0
    for a, b in zip(prefix_a, prefix_b):
        if a != b:
            break
        depth += 1
    return depth


def _run_search(design: Design, node_cap=DEFAULT_NODE_CAP) -> _Search:
    if design.b == 0:
        raise DesignError("design has no blocks")
    check_point_cap(design)
    if design.b > MAX_POINTS:  # the initial coloring compares every pair of blocks
        raise PointCapExceeded("design has %d blocks, above the cap MAX_POINTS = %d"
                               % (design.b, MAX_POINTS))
    return _Search(design, node_cap).run()


def canonical_form(design: Design, node_cap=DEFAULT_NODE_CAP) -> CanonicalForm:
    """Canonical relabeling, block list and certificate of a design.

    Certificates are bit-identical across runs and platforms (pure tuple
    comparisons and ASCII serialization, no hashing) and equal exactly for
    isomorphic designs."""
    search = _run_search(design, node_cap)
    leaf = search.best
    position = [0] * (design.v + design.b)
    for i, u in enumerate(leaf.order):
        position[u] = i
    relabeling = Permutation(position[p] + 1 for p in range(design.v))
    blocks = tuple(
        sorted(
            tuple(sorted(relabeling(p) for p in blk)) for blk in design.blocks
        )
    )
    return CanonicalForm(
        relabeling=relabeling, blocks=blocks, certificate=leaf.cert
    )


def automorphism_group(design: Design, node_cap=DEFAULT_NODE_CAP) -> AutResult:
    """Generators and exact order of the full point-automorphism group.

    The search can discover redundant automorphisms; the returned group is
    grown in place with ``PermGroup.extend`` from a greedily reduced
    generating set (a discovered element is kept only if the previously
    kept ones do not already generate it), which does not change the
    group."""
    search = _run_search(design, node_cap)
    group = PermGroup((), degree=design.v)
    for perm in search.autos.values():
        group.extend(perm)
    return AutResult(group=group, order=group.order(), nodes_explored=search.nodes)


def are_isomorphic(d1: Design, d2: Design, node_cap=DEFAULT_NODE_CAP):
    """Certificate comparison; on a match, also an explicit point bijection
    carrying the first block set onto the second (verified before return).

    Returns (bool, witness Permutation or None)."""
    if d1.v != d2.v or d1.b != d2.b:
        return False, None
    cf1 = canonical_form(d1, node_cap)
    cf2 = canonical_form(d2, node_cap)
    if cf1.certificate != cf2.certificate:
        return False, None
    witness = cf1.relabeling * cf2.relabeling.inverse()
    image = {witness.image_of_set(blk) for blk in d1.blocks}
    if image != d2.block_set:
        raise AssertionError("certificate matched but witness failed")
    return True, witness


# -- the 36-point uniqueness census -----------------------------------------


@dataclass(frozen=True)
class CensusReport:
    qualifying_subsets: int
    orbit_count: int
    orbit_sizes: tuple  # sorted (size, multiplicity) pairs
    size90_orbits: int
    design_orbits: int
    isomorphic: Optional[bool]


# The 90 ways to put two cells in each row and each column of a 4x4 grid,
# each as its 8 (row, column) cells.
_TWO_IN_EACH_4X4 = tuple(
    tuple((r, c) for r, pair in enumerate(choice) for c in pair)
    for choice in product(combinations(range(4), 2), repeat=4)
    if sorted(c for pair in choice for c in pair) == [0, 0, 1, 1, 2, 2, 3, 3]
)


def _qualifying_masks(rows, cols):
    """Bitmasks of all 8-subsets meeting exactly four parts of each system
    in exactly 2 points (and none otherwise).

    Each is four rows, four columns and one of the 90 two-in-each 4x4
    patterns, with a cell standing for the point where its row meets its
    column; that needs every row to meet every column in one point, and
    then distinct cells are distinct points, so their bits add."""
    meet = [[set(row) & set(col) for col in cols] for row in rows]
    if any(len(points) != 1 for line in meet for points in line):
        raise AssertionError("the two systems are not the rows and columns of a grid")
    bits = [[1 << (min(points) - 1) for points in line] for line in meet]
    out = []
    for rs in combinations(range(len(rows)), 4):
        for cs in combinations(range(len(cols)), 4):
            cells = [[bits[r][c] for c in cs] for r in rs]
            out.extend(sum(cells[r][c] for r, c in p) for p in _TWO_IN_EACH_4X4)
    return out


def _mask_image(table, mask):
    """The image of a 0-based point bitmask under a point table."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << table[low.bit_length() - 1]
        mask ^= low
    return out


def _mask_orbits(masks, gens):
    """Partition subset bitmasks into orbits under degree-36 generators;
    raises AssertionError if an orbit leaves the family."""
    tables = [[g(p + 1) - 1 for p in range(36)] for g in gens]
    return orbits_on(masks, tables, _mask_image)


def uniqueness_census_36(node_cap=DEFAULT_NODE_CAP) -> CensusReport:
    """Census of the 8-subsets of the 6x6 grid meeting four rows and four
    columns in 2 points each, under the twisted-diagonal group: counts the
    qualifying subsets, their group orbits, the orbits of size 90, how many
    of those are 2-designs, and whether the designs are isomorphic."""
    group = twisted_diagonal_group()
    systems = group.block_systems()
    if len(systems) != 2:
        raise AssertionError("expected two block systems, found %d" % len(systems))
    rows, cols = systems[0].parts, systems[1].parts
    masks = _qualifying_masks(rows, cols)
    orbits = _mask_orbits(masks, group.generators)
    size_counts = Counter(len(orbit) for orbit in orbits)
    designs = []
    for orbit in orbits:
        if len(orbit) != 90:
            continue
        blocks = [tuple(p + 1 for p in range(36) if mask >> p & 1) for mask in orbit]
        d = Design(36, blocks)
        try:
            params = check_2_design(d)
        except NotTwoDesignError:
            continue
        if params.as_tuple() == (36, 90, 8, 20, 4):
            designs.append(d)
    iso = None
    if len(designs) == 2:
        iso, _ = are_isomorphic(designs[0], designs[1], node_cap)
    return CensusReport(
        qualifying_subsets=len(masks),
        orbit_count=len(orbits),
        orbit_sizes=tuple(sorted(size_counts.items())),
        size90_orbits=size_counts.get(90, 0),
        design_orbits=len(designs),
        isomorphic=iso,
    )
