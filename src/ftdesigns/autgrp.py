"""Automorphism groups, canonical forms and isomorphism testing of designs.

The engine is an individualization-refinement search on the two-colored
point/block incidence structure, in the style of canonical graph labeling:

- vertices are the v points followed by the b blocks, adjacency is
  incidence (the point rows of ``design._point_rows``, shifted past the
  points, and the block masks of ``Design.block_index``), and the two
  color classes never mix;
- the search starts from the two color classes (any label-invariant
  coloring will do; McKay & Piperno 2014), and the first refinement round
  splits them into points by degree and blocks by size, each in degree
  order; counts of common neighbours of vertex pairs would split no cell
  of a 2-design that is symmetric or block-transitive, as every design in
  scope is;
- refinement splits cells by neighbor counts into the other cells until the
  coloring is equitable; its sequence of split events is the trace token,
  which picks the canonical leaf and so is part of the certificate (a
  test pins it against the original full-rescan refinement);
- a refinement round runs as splitters only the cells that can still
  split: both color classes at the root, the individualized singleton
  below it, and then the parts of each cell split in the round before,
  except the last part (McKay 1981; McKay & Piperno 2014).  A skipped
  cell would split nothing, so it adds no event and the trace is that of
  the full rescan: once a cell has run as a splitter, every cell has equal
  counts into it until it splits, and the last part's counts are its old
  cell's counts minus those of the parts before it;
- the search individualizes vertices of the first smallest non-singleton
  cell (children in vertex order), records a label-invariant trace token
  per node, and keeps two reference leaves: the first leaf (for
  automorphism discovery) and the best (trace, certificate) leaf, whose
  point order defines the canonical form: the design relabeled by it
  (``Design.relabel``), serialized as the certificate, which starts with
  its version, ``cert=CERTIFICATE_VERSION;``: a change to the search that
  can move a certificate bumps the version (version 1, with no field,
  started from a pair-count coloring);
- a leaf's certificate is built only when it is compared or returned.
  Points fill the first v positions of every leaf's order, so two leaves'
  certificates are equal exactly when the point map between their orders
  carries the block set onto itself (designs here are simple): a leaf with
  the tokens of a reference leaf is tested with ``is_automorphism``, a
  pass is a match and stores the automorphism, and only a failure on a tie
  with the best leaf compares certificates;
- each automorphism is stored once, keyed by its vertex image tuple; a
  child is pruned when it lies in the closure (``perm.closure``) of the
  explored siblings under the stored automorphisms fixing the
  individualized prefix; those fixing the first leaf's prefix[:i] generate
  its stabilizer, so the orbit lengths along that path multiply to |Aut|
  (``_proved_order``), the order ``PermGroup.of_order`` builds the chain to;
- a leaf equivalent to the first or the best leaf gives an automorphism
  carrying the earlier leaf's path onto its own, so it maps the explored
  subtree below their common ancestor onto the rest of the current one:
  the search backjumps to that ancestor (McKay 1981), which changes neither
  the best leaf nor the group generated;
- the search follows its first leaf's trace (McKay & Piperno 2014): the
  refinement that ends in the first leaf records its split events as
  position ranges, and a child at that leaf's depth, below a parent with
  the first leaf's tokens, replays them in place of a full refinement,
  stopping at the first split whose sorted counts differ, which proves
  that the child's trace differs.  The replayed order is kept only when
  ``_match`` shows its point map is an automorphism that carries the
  first leaf's path onto the child's; that automorphism of the incidence
  structure commutes with refinement, so refining the child in full would
  give the first leaf's trace and this same order.  Otherwise the child is
  refined in full, and nodes, stored automorphisms and certificates are
  those of refining every child.

Search size is bounded by a node cap; hitting it raises
ResourceCapExceeded rather than returning a truncated answer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, combinations, islice, product
from operator import getitem
from typing import Optional

from .construct import twisted_diagonal_group
from .design import (MAX_POINTS, Design, DesignError, NotTwoDesignError, PointCapExceeded,
                     _mask_block, _point_rows, check_2_design, check_point_cap,
                     is_automorphism)
from .perm import PermGroup, Permutation, closure, orbits_on

DEFAULT_NODE_CAP = 10**7
CERTIFICATE_VERSION = 2


class ResourceCapExceeded(RuntimeError):
    """The search passed its node cap; ``automorphisms`` holds the point
    automorphisms it had found, in the order found."""

    def __init__(self, nodes, automorphisms):
        self.nodes = nodes
        self.automorphisms = tuple(automorphisms)
        count = len(self.automorphisms)
        super().__init__("search node cap exceeded at %d nodes with %d automorphism%s found"
                         % (nodes, count, "" if count == 1 else "s"))


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
    """A discrete coloring reached by the search: its trace ``tokens``, the
    vertex ``order`` it gives and the individualized vertices on its path
    (``prefix``).  Its labeling, the ``CanonicalForm`` that ``order``
    gives, is built on first use and kept."""

    __slots__ = ("tokens", "order", "prefix", "_design", "_labeling")

    def __init__(self, design, tokens, order, prefix):
        self.tokens = tokens
        self.order = order
        self.prefix = prefix
        self._design = design
        self._labeling = None

    @property
    def labeling(self):
        if self._labeling is None:
            self._labeling = _labeling(self._design, self.order)
        return self._labeling

    @property
    def cert(self):
        return self.labeling.certificate


def _labeling(design, order):
    """The canonical form of a leaf's vertex order: the point at position
    i of ``order`` (points fill positions 0..v-1) is relabeled i + 1, the
    block list is the relabeled design's, and the certificate is its ASCII
    serialization after the version field."""
    relabeling = Permutation(u + 1 for u in order[: design.v]).inverse()
    blocks = design.relabel(relabeling).blocks
    head = "cert=%d;v=%d;b=%d;" % (CERTIFICATE_VERSION, design.v, design.b)
    cert = head.encode("ascii") + ";".join(
        ",".join(str(p) for p in blk) for blk in blocks
    ).encode("ascii")
    return CanonicalForm(relabeling=relabeling, blocks=blocks, certificate=cert)


class _Search:
    def __init__(self, design: Design, node_cap: int):
        self.design = design
        self.node_cap = node_cap
        self.v = design.v
        self.b = design.b
        self.adj = [row << self.v for row in _point_rows(design)] + list(design.block_index)
        self.nodes = 0
        self.first: Optional[_Leaf] = None
        self.best: Optional[_Leaf] = None
        self.autos = {}  # vertex image tuple -> point Permutation, in order found
        self.shift = (self.v + self.b).bit_length()  # a vertex fits below this bit
        self.script = ()  # the first leaf's split events, recorded by _refine

    # -- refinement -------------------------------------------------------

    def _refine(self, cells, splitters):
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
        order: ``run`` passes the two color classes, and ``_recurse`` only
        the individualized singleton: the parent's cells were equitable, so
        the rest of the target cell splits nothing once the singleton has
        run.  A later round runs the parts of each cell split in the round
        before, except the last part.  A skipped cell would split nothing,
        so the events are those of running every cell: once a splitter has
        run, every cell has equal counts into it, so a cell not split since
        cannot split anything, and the last part's counts are its old
        cell's counts minus those of the parts run before it.

        On the descent to the first leaf (``first`` is None), each event is
        also recorded for ``_replay`` as position ranges, the splitter's
        round-start cell [a, b) and the split cell [c, d), with the runs of
        its sorted counts (``_count_runs``).  Cells split in place, so a
        cell is a range of every later order.  The script is kept from the
        call that ends in a discrete coloring, the first leaf."""
        adj, v = self.adj, self.v
        trace = []
        script = None
        if self.first is None:
            script, at = [], list(accumulate(map(len, cells), initial=0))  # cell starts, end
        targets = None
        while splitters:
            start = cells
            origin = list(range(len(cells)))  # round-start cell of each cell
            if script is not None:
                starts = at[:]
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
                    trace.append((si, ci, tuple(keys), tuple([len(buckets[k]) for k in keys])))
                    parts.append((ci, [tuple(buckets[k]) for k in keys]))
                    if script is not None:
                        script.append((starts[si], starts[si + 1], at[ci], at[ci + 1]))
                if parts:
                    newcells = list(cells)
                    for ci, split in reversed(parts):
                        newcells[ci : ci + 1] = split
                        origin[ci : ci + 1] = [origin[ci]] * len(split)
                        if script is not None:  # the starts of the parts after the first
                            end = at[ci]
                            for j, part in enumerate(split[:-1], ci + 1):
                                end += len(part)
                                at.insert(j, end)
                    cells = tuple(newcells)
                    targets = None
            splitters = [i for i in range(len(cells) - 1) if origin[i] == origin[i + 1]]
        if script is not None and len(cells) == len(adj):  # the first leaf
            self.script = [ranges + (_count_runs(keys, sizes, self.shift),)
                           for ranges, (_, _, keys, sizes) in zip(script, trace)]
        return cells, tuple(trace)

    def _nonsingletons(self, cells):
        """Indices of the non-singleton cells, indexed by whether they can
        split by a point splitter: ([point cells], [block cells])."""
        targets = ([], [])
        for ci, cell in enumerate(cells):
            if len(cell) > 1:
                targets[cell[0] >= self.v].append(ci)
        return targets

    def _replay(self, cells):
        """The order that the first leaf's split events give the unrefined
        child ``cells``, or None at the first event whose sorted counts
        differ from the recorded ones.

        Each event sorts the range [c, d) of the flattened cells by each
        vertex's count into the vertices of the range [a, b), as one sorted
        list of count << shift | vertex.  While the counts agree, the ranges
        sorted are the first leaf's cells, which later events split whole,
        so the order within a part does not matter; and the ranges nest or
        are disjoint, so a range's vertex set does not change while the
        replay runs, and its mask is built once."""
        adj, shift = self.adj, self.shift
        low = (1 << shift) - 1
        order = [u for cell in cells for u in cell]
        masks = {}
        for a, b, c, d, runs in self.script:
            mask = masks.get((a, b))
            if mask is None:
                mask = masks[a, b] = sum([1 << u for u in order[a:b]])
            keyed = [(adj[u] & mask).bit_count() << shift | u for u in order[c:d]]
            keyed.sort()
            for i, lo, j, hi in runs:
                if keyed[i] < lo or keyed[j] >= hi:
                    return None
            order[c:d] = [x & low for x in keyed]
        return order

    @staticmethod
    def _individualize(cells, ci, w):
        cell = cells[ci]
        # the search builds its tuples from lists, not generators: CPython
        # grows a tuple read from a generator, so it bypasses the free list
        # of its size but joins it when freed, and such tuples pile up there
        # until a full garbage collection
        rest = tuple([u for u in cell if u != w])
        return cells[:ci] + ((w,), rest) + cells[ci + 1 :]

    # -- leaves -----------------------------------------------------------

    def _leaf(self, cells, tokens, prefix):
        return _Leaf(self.design, tokens, [cell[0] for cell in cells], prefix)

    def _match(self, earlier, leaf):
        """Whether the point map earlier.order[i] -> leaf.order[i] is an
        automorphism that carries each block on the earlier leaf's path onto
        the block at the same depth of this leaf's path; a new one is
        stored, keyed by its vertex image tuple.

        Points fill positions 0..v-1 of every order, so the two leaves'
        certificates are equal exactly when this map carries the block set
        onto itself (designs here are simple): the test decides certificate
        equality without building either certificate.  A point on the
        earlier path sits where the point at the same depth of this path
        sits, so with the block check the automorphism of the incidence
        structure that the point map induces carries the earlier path onto
        this one, which a replayed leaf needs."""
        v, adj = self.v, self.adj
        gmap = [0] * (v + self.b)
        for a, b in zip(earlier.order, leaf.order):
            gmap[a] = b
        key = tuple(gmap)
        perm = Permutation([u + 1 for u in key[:v]])
        if not is_automorphism(self.design, perm):
            return False
        for w, u in zip(earlier.prefix, leaf.prefix):
            if w >= v and sum([1 << gmap[p - 1] for p in self.design.blocks[w - v]]) != adj[u]:
                return False
        self.autos[key] = perm
        return True

    def _handle_leaf(self, leaf, first_match=None):
        """Compare a leaf with the first and best leaves; returns the depth
        of its common ancestor with the shallower one it matches, or None.
        ``first_match`` is whether it matches the first leaf, when known.

        A leaf matches an earlier one when their tokens are equal and
        ``_match`` finds an automorphism, which is when their certificates
        are equal; the best leaf is the greatest (tokens, certificate), so
        a certificate is built only on a token tie that is not a match.
        Both are earlier leaves, and two distinct leaves never have equal
        ``order``: cells split only in place, so at their deepest common
        ancestor the two differing individualized vertices take the same
        position in both final orders.  So a match is never the identity."""
        first, best = self.first, self.best
        if first is None:
            self.first = self.best = leaf
            return None
        jump = None
        if first_match is None:
            first_match = leaf.tokens == first.tokens and self._match(first, leaf)
        if first_match:
            jump = _common_depth(first.prefix, leaf.prefix)
        if leaf.tokens > best.tokens:
            self.best = leaf
        elif leaf.tokens == best.tokens:
            matched = first_match if best is first else self._match(best, leaf)
            if matched:
                depth = _common_depth(best.prefix, leaf.prefix)
                jump = depth if jump is None else min(jump, depth)
            elif leaf.cert > best.cert:
                self.best = leaf
        return jump

    # -- main recursion -----------------------------------------------------

    def run(self):
        cells = (tuple(range(self.v)), tuple(range(self.v, self.v + self.b)))
        cells, token = self._refine(cells, (0, 1))
        self._recurse(cells, (token,), ())
        return self

    def _recurse(self, cells, tokens, prefix, ti=None):
        """Explore the node reached by individualizing ``prefix``; returns
        None, or the depth of the ancestor to unwind to.

        A child comes unrefined, with its parent's ``tokens`` and ``ti`` the
        index of its individualized singleton, and counts against the cap
        before it is refined.  At the first leaf's depth, below a parent
        with the first leaf's tokens, a replayed leaf (``_replay``) that
        matches the first leaf stands for the refined child (see the module
        docstring).  Otherwise the child is refined in full; a leaf with the
        replayed order is then known not to match the first leaf."""
        self.nodes += 1
        if self.nodes > self.node_cap:
            raise ResourceCapExceeded(self.nodes, self.autos.values())
        missed = None
        if ti is not None:
            first = self.first
            if first is not None and len(prefix) == len(first.prefix) \
                    and tokens == first.tokens[:-1]:
                order = self._replay(cells)
                if order is not None:
                    leaf = _Leaf(self.design, first.tokens, order, prefix)
                    if self._match(first, leaf):
                        return self._handle_leaf(leaf, True)
                    missed = order
            cells, token = self._refine(cells, (ti,))
            tokens += (token,)
        keep_first = self.first is None or tokens == self.first.tokens[: len(tokens)]
        keep_best = self.best is None or tokens >= self.best.tokens[: len(tokens)]
        if not (keep_first or keep_best):
            return None
        sizes = [len(cell) for cell in cells]
        if max(sizes) == 1:
            leaf = self._leaf(cells, tokens, prefix)
            if leaf.order == missed:
                return self._handle_leaf(leaf, False)
            return self._handle_leaf(leaf)
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
            jump = self._recurse(self._individualize(cells, ti, w), tokens, prefix + (w,), ti)
            if jump is not None and jump < len(prefix):
                return jump
            pruned.update(closure((w,), gens, getitem))
        return None


def _count_runs(keys, sizes, shift):
    """The runs of equal counts of a split event, each (first index,
    count << shift, last index, count + 1 << shift).  A sorted list of
    count << shift | vertex has the event's counts exactly when, for every
    run, the entry at its first index is at least count << shift and the
    one at its last index is below count + 1 << shift: the entries between
    lie in that range too."""
    runs, i = [], 0
    for count, size in zip(keys, sizes):
        runs.append((i, count << shift, i + size - 1, count + 1 << shift))
        i += size
    return runs


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
    if design.b > MAX_POINTS:  # every node refines, and every leaf orders, v + b vertices
        raise PointCapExceeded("design has %d blocks, above the cap MAX_POINTS = %d"
                               % (design.b, MAX_POINTS))
    return _Search(design, node_cap).run()


def canonical_form(design: Design, node_cap=DEFAULT_NODE_CAP) -> CanonicalForm:
    """Canonical relabeling, block list and certificate of a design.

    Certificates are bit-identical across runs and platforms (pure tuple
    comparisons and ASCII serialization, no hashing) and equal exactly for
    isomorphic designs."""
    return _run_search(design, node_cap).best.labeling


def _proved_order(search):
    """|Aut| from the first leaf's path: the product over depths i of the
    orbit length of prefix[i] under the stored automorphisms fixing
    prefix[:i], which generate that stabilizer (McKay & Piperno 2014)."""
    order, gens = 1, list(search.autos)
    for w in search.first.prefix:
        order *= len(closure((w,), gens, getitem))
        gens = [g for g in gens if g[w] == w]
    return order


def automorphism_group(design: Design, node_cap=DEFAULT_NODE_CAP) -> AutResult:
    """Generators and exact order of the full point-automorphism group: the
    chain is built to the order the search proves, and the generators are
    the automorphisms found, in order, that the chain built before them does
    not hold, every one a greedy filter keeps (one the earlier ones do not
    generate) and sometimes a few more."""
    search = _run_search(design, node_cap)
    group = PermGroup.of_order(search.autos.values(), _proved_order(search), design.v)
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
    if d1.relabel(witness) != d2:
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
# each as the index in _COLUMN_PAIRS of the column pair in each of the 4 rows.
_COLUMN_PAIRS = tuple(combinations(range(4), 2))
_TWO_IN_EACH_4X4 = tuple(
    choice for choice in product(range(len(_COLUMN_PAIRS)), repeat=4)
    if sorted(c for i in choice for c in _COLUMN_PAIRS[i]) == [0, 0, 1, 1, 2, 2, 3, 3]
)


def _qualifying_masks(rows, cols):
    """Bitmasks of all 8-subsets meeting exactly four parts of each system
    in exactly 2 points (and none otherwise).

    Each is four rows, four columns and one of the 90 two-in-each 4x4
    patterns, with a cell standing for the point where its row meets its
    column; that needs every row to meet every column in one point.  For
    each of the four rows the six column pairs are two-bit masks, and a
    pattern's mask is the OR of one row-pair mask per row."""
    meet = [[set(row) & set(col) for col in cols] for row in rows]
    if any(len(points) != 1 for line in meet for points in line):
        raise AssertionError("the two systems are not the rows and columns of a grid")
    bits = [[1 << (min(points) - 1) for points in line] for line in meet]
    out = []
    for rs in combinations(range(len(rows)), 4):
        for cs in combinations(range(len(cols)), 4):
            p0, p1, p2, p3 = ([bits[r][cs[x]] | bits[r][cs[y]] for x, y in _COLUMN_PAIRS]
                              for r in rs)
            out.extend(p0[a] | p1[b] | p2[c] | p3[d] for a, b, c, d in _TWO_IN_EACH_4X4)
    return out


def _byte_tables(g):
    """For bits 0-7, 8-15, 16-23, 24-31 and 32-35 of a 0-based point bitmask,
    a table: their value -> the bitmask of their points' images under g."""
    tables = []
    for base in range(0, 36, 8):
        t = [0] * (1 << min(8, 36 - base))
        for m in range(1, len(t)):
            low = m & -m  # the point base + low.bit_length(), 1-based
            t[m] = t[m ^ low] | 1 << g(base + low.bit_length()) - 1
        tables.append(t)
    return tables


def _byte_image(tables, mask):
    """The image of a 0-based 36-point bitmask: the OR of one lookup per byte."""
    t0, t1, t2, t3, t4 = tables
    return (t0[mask & 255] | t1[mask >> 8 & 255] | t2[mask >> 16 & 255]
            | t3[mask >> 24 & 255] | t4[mask >> 32])


def uniqueness_census_36(node_cap=DEFAULT_NODE_CAP) -> CensusReport:
    """Census of the 8-subsets of the 6x6 grid meeting four rows and four
    columns in 2 points each, under the twisted-diagonal group G: counts the
    qualifying subsets, their group orbits, the orbits of size 90, how many
    of those are 2-designs, and whether the designs are isomorphic.

    Each qualifying subset lies on one (4 rows, 4 columns) pair, held as
    the mask of its 16 grid points, and G acts on the 225 pair masks by the
    byte tables that act on the subsets (``orbits_on`` checks that G
    carries each pair onto a pair); by orbit-stabilizer (Holt, Eick &
    O'Brien 2005, ch. 4) the G-orbits on the subsets of a pair orbit's
    first pair are the orbits of that pair's stabilizer on its 90 subsets,
    each longer by the pair orbit's length.  The stabilizer is the elements
    of G, enumerated by ``closure``, that keep the first pair's points in
    it; both the element count and |stabilizer| x |pair orbit| are checked
    against |G|.  The grid check of ``_qualifying_masks`` on each first
    pair covers every pair, as G carries it onto its orbit.  An orbit of
    size 90 is rebuilt as the closure of one subset under G's generators."""
    group = twisted_diagonal_group()
    systems = group.block_systems()
    if len(systems) != 2:
        raise AssertionError("expected two block systems, found %d" % len(systems))
    rows, cols = systems[0].parts, systems[1].parts
    order = group.order()
    gens = [(0,) + g.images for g in group.generators]  # padded image tables
    elements = closure([tuple(range(37))], gens, lambda g, u: tuple([g[x] for x in u]))
    if len(elements) != order:
        raise AssertionError("the generators give %d elements, not |G| = %d"
                             % (len(elements), order))
    points = tuple(range(1, 37))
    row_masks, col_masks = ([sum(1 << p - 1 for p in line) for line in parts]
                            for parts in (rows, cols))
    pairs = [sum(rs) & sum(cs)
             for rs in combinations(row_masks, 4) for cs in combinations(col_masks, 4)]
    size_counts, qualifying, size90 = Counter(), 0, []
    gen_tables = [_byte_tables(g.__getitem__) for g in gens]
    for pair_orbit in orbits_on(pairs, gen_tables, _byte_image):
        first = pair_orbit[0]
        grid = [p for p in points if first >> p - 1 & 1]
        stabilizer = [e for e in elements if all(first >> (e[p] - 1) & 1 for p in grid)]
        if len(stabilizer) * len(pair_orbit) != order:
            raise AssertionError("|stabilizer| %d x |pair orbit| %d is not |G| = %d"
                                 % (len(stabilizer), len(pair_orbit), order))
        masks = _qualifying_masks([line for line, m in zip(rows, row_masks) if m & first],
                                  [line for line, m in zip(cols, col_masks) if m & first])
        qualifying += len(pair_orbit) * len(masks)
        tables = [_byte_tables(e.__getitem__) for e in stabilizer]
        for orbit in orbits_on(masks, tables, _byte_image):
            size = len(pair_orbit) * len(orbit)
            size_counts[size] += 1
            if size == 90:
                size90.append(tuple(sorted(closure(orbit[:1], gen_tables, _byte_image))))
    designs = []
    for orbit in sorted(size90):  # in order of their least subsets
        d = Design(36, [_mask_block(mask, points) for mask in orbit])
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
        qualifying_subsets=qualifying,
        orbit_count=sum(size_counts.values()),
        orbit_sizes=tuple(sorted(size_counts.items())),
        size90_orbits=size_counts.get(90, 0),
        design_orbits=len(designs),
        isomorphic=iso,
    )
