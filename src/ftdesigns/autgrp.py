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
- the search individualizes vertices of the first smallest non-singleton
  cell (children in vertex order), records a label-invariant trace token
  per node, and keeps two reference leaves: the first leaf (for
  automorphism discovery) and the best (trace, certificate) leaf, whose
  labeling defines the canonical form;
- discovered automorphisms prune sibling subtrees (orbit pruning under the
  subgroup fixing the individualized prefix), which is also how the full
  automorphism group is generated.

Search size is bounded by a node cap; hitting it raises
ResourceCapExceeded rather than returning a truncated answer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .construct import twisted_diagonal_group
from .design import Design, NotTwoDesignError, check_2_design, is_automorphism
from .perm import PermGroup, Permutation

DEFAULT_NODE_CAP = 10**7


class ResourceCapExceeded(RuntimeError):
    def __init__(self, nodes):
        self.nodes = nodes
        super().__init__("search node cap exceeded at %d nodes" % nodes)


@dataclass(frozen=True)
class CanonicalForm:
    relabeling: Permutation  # original points -> canonical points
    blocks: tuple  # canonical block list (sorted tuples of canonical points)
    certificate: bytes

    def __eq__(self, other):
        return (
            isinstance(other, CanonicalForm)
            and self.certificate == other.certificate
        )

    def __hash__(self):
        return hash(self.certificate)


@dataclass(frozen=True)
class AutResult:
    group: PermGroup
    order: int
    nodes_explored: int


class _Leaf:
    __slots__ = ("tokens", "cert", "order")

    def __init__(self, tokens, cert, order):
        self.tokens = tokens
        self.cert = cert
        self.order = order


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
        self.autos = []  # vertex-level image lists
        self.auto_perms = []  # point-level Permutations
        self._auto_seen = set()

    # -- initial invariant-based coloring --------------------------------

    def _initial_cells(self):
        v, b = self.v, self.b
        point_mask = (1 << v) - 1
        pt_key = {}
        for p in range(v):
            counts = sorted(
                (self.adj[p] & self.adj[q] & ~point_mask).bit_count()
                for q in range(v)
                if q != p
            )
            pt_key[p] = (self.adj[p].bit_count(), tuple(counts))
        blk_key = {}
        for j in range(b):
            bj = v + j
            inter = sorted(
                (self.adj[bj] & self.adj[v + i] & point_mask).bit_count()
                for i in range(b)
                if i != j
            )
            blk_key[bj] = (self.adj[bj].bit_count(), tuple(inter))
        cells = []
        for keymap, verts in ((pt_key, range(v)), (blk_key, range(v, v + b))):
            groups = {}
            for u in verts:
                groups.setdefault(keymap[u], []).append(u)
            for key in sorted(groups):
                cells.append(tuple(groups[key]))
        return tuple(cells)

    # -- refinement -------------------------------------------------------

    def _refine(self, cells):
        """Split cells by neighbor counts until equitable; returns the new
        cells plus a label-invariant trace of the split events.

        Each round takes the cells at its start as splitters, in order, and
        splits every cell by its members' neighbor counts into the splitter.
        An event is (splitter index, index of the cell before this splitter
        ran, sorted counts, part sizes).  Only non-singleton cells of the
        other color class are tested: a singleton cannot split, and points
        meet only blocks, so the events are those of testing every cell."""
        adj, v = self.adj, self.v
        trace = []
        changed = True
        while changed:
            changed = False
            splitters = cells
            targets = self._nonsingletons(cells)
            for si, scell in enumerate(splitters):
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
                    cells = tuple(newcells)
                    targets = self._nonsingletons(cells)
                    changed = True
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

    def _leaf(self, cells, tokens):
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
        return _Leaf(tokens, cert, order)

    def _record_auto(self, leaf_a, leaf_b):
        n = self.v + self.b
        gmap = [0] * n
        for i in range(n):
            gmap[leaf_a.order[i]] = leaf_b.order[i]
        key = tuple(gmap)
        if all(gmap[i] == i for i in range(n)) or key in self._auto_seen:
            return
        self._auto_seen.add(key)
        perm = Permutation(gmap[p] + 1 for p in range(self.v))
        if not is_automorphism(self.design, perm):
            raise AssertionError("search produced a non-automorphism; invariant bug")
        self.autos.append(gmap)
        self.auto_perms.append(perm)

    def _handle_leaf(self, leaf):
        if self.first is None:
            self.first = leaf
        elif leaf.tokens == self.first.tokens and leaf.cert == self.first.cert:
            self._record_auto(self.first, leaf)
        if self.best is None or (leaf.tokens, leaf.cert) > (
            self.best.tokens,
            self.best.cert,
        ):
            self.best = leaf
        elif (
            leaf is not self.best
            and leaf.tokens == self.best.tokens
            and leaf.cert == self.best.cert
            and leaf.order != self.best.order
        ):
            self._record_auto(self.best, leaf)

    # -- pruning ----------------------------------------------------------

    @staticmethod
    def _skip_by_orbit(w, explored, gens):
        closure = set(explored)
        queue = list(explored)
        while queue:
            u = queue.pop()
            for g in gens:
                img = g[u]
                if img == w:
                    return True
                if img not in closure:
                    closure.add(img)
                    queue.append(img)
        return False

    # -- main recursion -----------------------------------------------------

    def run(self):
        cells = self._initial_cells()
        cells, token = self._refine(cells)
        self._recurse(cells, (token,), ())
        return self

    def _recurse(self, cells, tokens, prefix):
        self.nodes += 1
        if self.nodes > self.node_cap:
            raise ResourceCapExceeded(self.nodes)
        keep_first = self.first is None or tokens == self.first.tokens[: len(tokens)]
        keep_best = self.best is None or tokens >= self.best.tokens[: len(tokens)]
        if not (keep_first or keep_best):
            return
        sizes = [len(cell) for cell in cells]
        if max(sizes) == 1:
            self._handle_leaf(self._leaf(cells, tokens))
            return
        smallest = min(s for s in sizes if s > 1)
        ti = next(i for i, s in enumerate(sizes) if s == smallest)
        explored, gens, seen = [], [], 0  # gens: found autos fixing prefix
        for w in sorted(cells[ti]):
            if explored:
                gens.extend(g for g in self.autos[seen:] if all(g[u] == u for u in prefix))
                seen = len(self.autos)
                if gens and self._skip_by_orbit(w, explored, gens):
                    continue
            child = self._individualize(cells, ti, w)
            child, token = self._refine(child)
            self._recurse(child, tokens + (token,), prefix + (w,))
            explored.append(w)


def _run_search(design: Design, node_cap=DEFAULT_NODE_CAP) -> _Search:
    if design.b == 0:
        raise ValueError("design has no blocks")
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

    The search typically discovers many redundant automorphisms; the
    returned group is rebuilt from a greedily reduced generating set (a
    discovered element is kept only if the previously kept ones do not
    already generate it), which does not change the group."""
    search = _run_search(design, node_cap)
    kept = []
    group = PermGroup(kept, degree=design.v)
    for perm in search.auto_perms:
        if not group.contains(perm):
            kept.append(perm)
            group = PermGroup(kept, degree=design.v)
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


def _qualifying_masks(rows, cols):
    """Bitmasks of all 8-subsets meeting exactly four parts of each system
    in exactly 2 points (and none otherwise)."""
    from itertools import combinations

    col_index = {}
    for ci, part in enumerate(cols):
        for p in part:
            col_index[p] = ci
    row_opts = []
    for part in rows:
        opts = []
        for a, b in combinations(sorted(part), 2):
            mask = (1 << (a - 1)) | (1 << (b - 1))
            opts.append((mask, col_index[a], col_index[b]))
        row_opts.append(opts)
    out = []
    for rowset in combinations(range(len(rows)), 4):
        o1, o2, o3, o4 = (row_opts[i] for i in rowset)
        for m1, a1, b1 in o1:
            c1 = Counter((a1, b1))
            for m2, a2, b2 in o2:
                c2 = c1 + Counter((a2, b2))
                if any(x > 2 for x in c2.values()):
                    continue
                for m3, a3, b3 in o3:
                    c3 = c2 + Counter((a3, b3))
                    if any(x > 2 for x in c3.values()):
                        continue
                    for m4, a4, b4 in o4:
                        c4 = c3 + Counter((a4, b4))
                        if len(c4) == 4 and all(x == 2 for x in c4.values()):
                            out.append(m1 | m2 | m3 | m4)
    return out


def _mask_orbits(masks, gens):
    """Partition subset bitmasks into orbits under degree-36 generators."""
    tables = []
    for g in gens:
        tables.append([g(p + 1) - 1 for p in range(36)])

    def image(mask, table):
        out = 0
        m = mask
        while m:
            low = m & -m
            out |= 1 << table[low.bit_length() - 1]
            m ^= low
        return out

    maskset = set(masks)
    unseen = set(masks)
    orbits = []
    while unseen:
        seed = min(unseen)
        orbit = {seed}
        queue = [seed]
        while queue:
            m = queue.pop()
            for table in tables:
                img = image(m, table)
                if img not in maskset:
                    raise AssertionError("orbit left the qualifying family")
                if img not in orbit:
                    orbit.add(img)
                    queue.append(img)
        orbits.append(sorted(orbit))
        unseen -= orbit
    return orbits


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
        blocks = []
        for mask in orbit:
            blk = []
            m = mask
            while m:
                low = m & -m
                blk.append(low.bit_length())
                m ^= low
            blocks.append(tuple(blk))
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
