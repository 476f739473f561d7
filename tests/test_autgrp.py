import hashlib
import io
import json
import os
import random
import subprocess
import sys
from itertools import combinations, permutations

import pytest

import ftdesigns
from ftdesigns import autgrp, cli, design
from ftdesigns.autgrp import (
    ResourceCapExceeded,
    _Search,
    _common_depth,
    _proved_order,
    _qualifying_masks,
    are_isomorphic,
    automorphism_group,
    canonical_form,
)
from ftdesigns.construct import (
    construction_36,
    construction_36_cosets,
    projective_design,
    twisted_diagonal_group,
    design_96,
)
from ftdesigns.design import Design, format_design_text, is_automorphism
from ftdesigns.perm import PermGroup, Permutation


def brute_aut_order(d):
    count = 0
    blocks = d.block_set
    for images in permutations(range(1, d.v + 1)):
        p = Permutation(images)
        if all(p.image_of_set(b) in blocks for b in d.blocks):
            count += 1
    return count


def random_design(rng, vmax=8):
    v = rng.randint(4, vmax)
    pool = [c for k in (2, 3, 4) for c in combinations(range(1, v + 1), k)]
    nblocks = rng.randint(2, min(9, len(pool)))
    return Design(v, rng.sample(pool, nblocks))


def test_brute_force_equivalence_small():
    rng = random.Random(99)
    for _ in range(15):
        d = random_design(rng, vmax=7)
        assert automorphism_group(d).order == brute_aut_order(d)
    # a couple at v = 8
    rng = random.Random(5)
    for _ in range(2):
        d = random_design(rng, vmax=8)
        assert automorphism_group(d).order == brute_aut_order(d)


def test_generators_are_sound():
    for d in (projective_design(3), construction_36()):
        result = automorphism_group(d)
        for gen in result.group.generators:
            assert is_automorphism(d, gen)


def test_known_aut_orders_small():
    assert automorphism_group(construction_36()).order == 720
    assert automorphism_group(projective_design(3)).order == 20160


def test_aut_contains_constructing_group():
    result = automorphism_group(construction_36())
    g = twisted_diagonal_group()
    assert result.order % g.order() == 0
    for gen in g.generators:
        assert result.group.contains(gen)
    # here the constructing group is the full automorphism group
    assert result.order == g.order()


def test_canonical_form_definition():
    d = projective_design(3)
    cf = canonical_form(d)
    assert d.relabel(cf.relabeling).blocks == cf.blocks
    assert cf.certificate == canonical_form(d).certificate


def test_canonical_form_stability():
    rng = random.Random(17)
    d = projective_design(3)
    cf = canonical_form(d)
    for _ in range(12):
        p = Permutation(rng.sample(range(1, 16), 15))
        assert canonical_form(d.relabel(p)).certificate == cf.certificate
    small = random_design(random.Random(1), vmax=8)
    cf = canonical_form(small)
    for _ in range(12):
        p = Permutation(rng.sample(range(1, small.v + 1), small.v))
        assert canonical_form(small.relabel(p)).certificate == cf.certificate


def test_isomorphism_grid_vs_cosets():
    d1 = construction_36()
    d2 = construction_36_cosets()
    assert canonical_form(d1).certificate == canonical_form(d2).certificate
    iso, witness = are_isomorphic(d1, d2)
    assert iso
    assert {witness.image_of_set(b) for b in d1.blocks} == set(d2.block_set)


def test_non_isomorphic_cases():
    assert are_isomorphic(construction_36(), projective_design(3)) == (False, None)
    d = projective_design(3)
    relabeled = d.relabel(Permutation(range(15, 0, -1)))
    iso, witness = are_isomorphic(d, relabeled)
    assert iso and witness is not None


def _incidence_graph(nx, d):
    """Points and blocks as two colour classes, joined by incidence."""
    g = nx.Graph()
    g.add_nodes_from(range(1, d.v + 1), colour="point")
    g.add_nodes_from((("block", j) for j in range(d.b)), colour="block")
    g.add_edges_from((p, ("block", j)) for j, blk in enumerate(d.blocks) for p in blk)
    return g


def test_isomorphism_matches_networkx():
    """``are_isomorphic`` agrees with networkx on two-coloured incidence
    graphs, for relabelings and for independent designs with the same v
    and the same number of blocks of each size."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(41)
    seen = []
    for _ in range(120):
        v = rng.randint(5, 8)  # at least 5 blocks of each size 2, 3 and 4
        counts = {k: rng.randint(0, 3) for k in (2, 3, 4)}
        counts[rng.choice((2, 3, 4))] += 1
        pools = {k: list(combinations(range(1, v + 1), k)) for k in counts}

        def sample():
            return Design(v, [blk for k, c in counts.items() for blk in rng.sample(pools[k], c)])

        d1 = sample()
        d2 = _relabeled(d1, rng.random()) if rng.random() < 0.3 else sample()
        expected = nx.is_isomorphic(_incidence_graph(nx, d1), _incidence_graph(nx, d2),
                                    node_match=lambda a, b: a["colour"] == b["colour"])
        assert are_isomorphic(d1, d2)[0] == expected
        seen.append(expected)
    assert 20 <= seen.count(True) and 20 <= seen.count(False)


def test_h2_design_aut_order_and_tuple():
    _, d = design_96("h2", 2)
    result = automorphism_group(d)
    assert result.order == 7680
    assert result.nodes_explored < 10**7
    # the full automorphism group is flag-transitive on this design and
    # preserves a partition into 6 parts of 16; the assembled tuple follows
    from ftdesigns.design import intersection_profile, is_flag_transitive, tuple_of
    ft, orbits = is_flag_transitive(result.group, d)
    assert ft and orbits == 1
    systems = [s for s in result.group.block_systems() if s.part_size == 16]
    assert systems
    t = tuple_of(d, result.group, systems[0])
    assert (t.lam, t.v, t.k, t.r, t.b, t.c, t.d, t.ell, t.x) == \
        (4, 96, 20, 20, 96, 16, 6, 4, 1)


def test_h2_designs_not_isomorphic():
    _, d1 = design_96("h2", 1)
    _, d2 = design_96("h2", 2)
    iso, witness = are_isomorphic(d1, d2)
    assert not iso and witness is None


def test_resource_cap():
    with pytest.raises(ResourceCapExceeded):
        automorphism_group(construction_36(), node_cap=3)


def test_resource_cap_keeps_the_automorphisms_found():
    d = construction_36()
    found = tuple(_Search(d, 10**7).run().autos.values())
    with pytest.raises(ResourceCapExceeded) as exc:
        automorphism_group(d, node_cap=6)
    assert exc.value.nodes == 7
    assert exc.value.automorphisms == found[:3]
    assert all(is_automorphism(d, perm) for perm in exc.value.automorphisms)


def _reference_adj(d):
    """The search's incidence rows built one incidence at a time, as the
    search built them before it took the point rows of the design layer:
    vertex p - 1 is point p and vertex v + j is block j."""
    adj = [0] * (d.v + d.b)
    for j, blk in enumerate(d.blocks):
        for p in blk:
            adj[p - 1] |= 1 << (d.v + j)
            adj[d.v + j] |= 1 << (p - 1)
    return adj


@pytest.mark.parametrize("chunk", [1, 7, 8, 9])
def test_search_rows_match_reference(monkeypatch, chunk):
    monkeypatch.setattr(design, "_ROW_CHUNK", chunk)
    for d in (projective_design(5), construction_36(), design_96("h1", 1)[1],
              Design(3, [(1, 2)])):
        assert _Search(d, 10**7).adj == _reference_adj(d)


# -- refinement oracle and golden outputs ---------------------------------------


def _reference_refine(self, cells):
    """The original full-rescan refinement, kept verbatim as the oracle:
    its split events are part of every trace token and so of every
    certificate."""
    adj = self.adj
    trace = []
    changed = True
    while changed:
        changed = False
        splitters = [sum(1 << u for u in cell) for cell in cells]
        for si, smask in enumerate(splitters):
            newcells = []
            round_events = []
            for ci, cell in enumerate(cells):
                if len(cell) == 1:
                    newcells.append(cell)
                    continue
                buckets = {}
                for u in cell:
                    buckets.setdefault((adj[u] & smask).bit_count(), []).append(u)
                if len(buckets) == 1:
                    newcells.append(cell)
                    continue
                keys = sorted(buckets)
                round_events.append(
                    (si, ci, tuple(keys), tuple(len(buckets[k]) for k in keys))
                )
                for key in keys:
                    newcells.append(tuple(buckets[key]))
            if round_events:
                cells = tuple(newcells)
                trace.extend(round_events)
                changed = True
    return cells, tuple(trace)


def _relabeled(d, seed):
    rng = random.Random(seed)
    return d.relabel(Permutation(rng.sample(range(1, d.v + 1), d.v)))


def _oracle_designs():
    """10 relabelings each of d36 and pg 3, d96 h2/2 and 200 small random
    designs: the inputs the search oracles run on."""
    designs = [_relabeled(d, seed) for seed in range(10)
               for d in (construction_36(), projective_design(3))]
    designs.append(design_96("h2", 2)[1])
    rng = random.Random(31)
    designs += [random_design(rng) for _ in range(200)]
    return designs


def test_refine_matches_reference(monkeypatch):
    refine = _Search._refine
    calls = []

    def checked(self, cells, splitters=None):
        got = refine(self, cells, splitters)
        assert got == _reference_refine(self, cells), cells
        calls.append(1)
        return got

    monkeypatch.setattr(_Search, "_refine", checked)
    designs = _oracle_designs()
    for d in designs:
        automorphism_group(d)
    assert len(calls) > len(designs)


class _EagerLeaf:
    __slots__ = ("tokens", "cert", "order", "prefix")

    def __init__(self, tokens, cert, order, prefix):
        self.tokens = tokens
        self.cert = cert
        self.order = order
        self.prefix = prefix  # the individualized vertices on its path


class _EagerSearch(_Search):
    """The search with its leaf code from before certificates were built on
    first use, kept verbatim as the oracle: every leaf builds its
    certificate, leaves match by certificate equality, and a match whose
    map is not an automorphism raises.  Deciding matches by the
    automorphism test must not change the best leaf, the stored
    automorphisms or the nodes explored."""

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
        return _EagerLeaf(tokens, cert, order, prefix)

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


def _assert_same_as_eager(d):
    """The search and its eager oracle agree on ``d``: best leaf, stored
    automorphisms in the order found, and nodes explored."""
    ref = _EagerSearch(d, 10**7).run()
    got = _Search(d, 10**7).run()
    assert (got.best.tokens, got.best.order) == (ref.best.tokens, ref.best.order)
    assert got.best.cert == ref.best.cert
    assert list(got.autos.items()) == list(ref.autos.items())
    assert got.nodes == ref.nodes


def test_token_ties_fall_back_to_certificates(monkeypatch):
    """With every trace emptied, leaves tie on tokens, so the search meets
    maps that are not automorphisms and must then order the tied leaves by
    certificate, as the eager oracle does."""
    refine = _Search._refine
    monkeypatch.setattr(_Search, "_refine",
                        lambda self, cells, splitters=None: (refine(self, cells, splitters)[0], ()))
    match = _Search._match
    outcomes = []

    def counted(self, earlier, leaf):
        outcomes.append(match(self, earlier, leaf))
        return outcomes[-1]

    monkeypatch.setattr(_Search, "_match", counted)
    for d in _oracle_designs()[20:]:
        _assert_same_as_eager(d)
    assert outcomes.count(False) > 100 and outcomes.count(True) > 100


def test_certificates_are_built_only_when_used(monkeypatch):
    """`automorphism_group` builds no certificate on d36 and pg 3,
    `canonical_form` builds one (the best leaf's), and every stored
    automorphism is checked by `is_automorphism` once."""
    builds, checks = [], []
    monkeypatch.setattr(autgrp, "_labeling", _counting(autgrp._labeling, builds))
    monkeypatch.setattr(autgrp, "is_automorphism", _counting(autgrp.is_automorphism, checks))
    designs = _oracle_designs()
    for d in designs[:20]:
        found = len(_Search(d, 10**7).run().autos)
        del checks[:]
        automorphism_group(d)
        assert len(checks) == found > 0
    assert builds == []
    for i, d in enumerate(designs, 1):
        canonical_form(d)
        assert len(builds) == i


def _counting(fn, calls):
    def counted(*args):
        calls.append(args)
        return fn(*args)
    return counted


class _ReferenceSearch(_EagerSearch):
    """The search before backjumping, with `_recurse` and `_handle_leaf`
    kept verbatim (only `_leaf` now also takes the prefix, the store of
    automorphisms is read as a dict, and the cap error carries the
    automorphisms found) as the oracle: backjumping and
    pruning by `perm.closure` must not change the best leaf or the group
    generated."""

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

    def _recurse(self, cells, tokens, prefix):
        self.nodes += 1
        if self.nodes > self.node_cap:
            raise ResourceCapExceeded(self.nodes, self.autos.values())
        keep_first = self.first is None or tokens == self.first.tokens[: len(tokens)]
        keep_best = self.best is None or tokens >= self.best.tokens[: len(tokens)]
        if not (keep_first or keep_best):
            return
        sizes = [len(cell) for cell in cells]
        if max(sizes) == 1:
            self._handle_leaf(self._leaf(cells, tokens, prefix))
            return
        smallest = min(s for s in sizes if s > 1)
        ti = next(i for i, s in enumerate(sizes) if s == smallest)
        explored, gens, seen = [], [], 0  # gens: found autos fixing prefix
        for w in sorted(cells[ti]):
            if explored:
                gens.extend(g for g in list(self.autos)[seen:] if all(g[u] == u for u in prefix))
                seen = len(self.autos)
                if gens and _reference_skip_by_orbit(w, explored, gens):
                    continue
            child = self._individualize(cells, ti, w)
            child, token = self._refine(child)
            self._recurse(child, tokens + (token,), prefix + (w,))
            explored.append(w)


def _reference_skip_by_orbit(w, explored, gens):
    """Whether w lies in the closure of the explored vertices under gens:
    the search's own orbit loop before it took `perm.closure`."""
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


def _rebuilt_group(perms, degree):
    """A greedy generator filter, the loop `automorphism_group` once had:
    keep each non-member and rebuild the group from everything kept."""
    kept = []
    group = PermGroup(kept, degree=degree)
    for perm in perms:
        if not group.contains(perm):
            kept.append(perm)
            group = PermGroup(kept, degree=degree)
    return group


def test_search_matches_reference():
    for d in _oracle_designs():
        _assert_same_as_eager(d)
        ref = _ReferenceSearch(d, 10**7).run()
        got = _Search(d, 10**7).run()
        assert (got.best.tokens, got.best.cert) == (ref.best.tokens, ref.best.cert)
        assert got.best.order == ref.best.order
        assert got.nodes <= ref.nodes
        rebuilt = _rebuilt_group(ref.autos.values(), d.v)
        result = automorphism_group(d)
        assert result.group.generators == rebuilt.generators
        assert result.order == rebuilt.order()
        assert PermGroup(ref.autos.values(), degree=d.v).order() == rebuilt.order()


def test_search_stores_each_automorphism_once(monkeypatch):
    """Each automorphism is stored once, and the matcher never sees the
    identity: two distinct leaves never share an order."""
    match = _Search._match
    calls = []

    def checked(self, earlier, leaf):
        assert earlier.order != leaf.order
        calls.append(1)
        return match(self, earlier, leaf)

    monkeypatch.setattr(_Search, "_match", checked)
    for d in _oracle_designs():
        search = _Search(d, 10**7).run()
        identity = tuple(range(d.v + d.b))
        for key, perm in search.autos.items():
            assert key != identity
            assert sorted(key) == list(identity)
            assert perm.images == tuple(u + 1 for u in key[:d.v])
            assert is_automorphism(d, perm)
        assert len(set(search.autos.values())) == len(search.autos)
    assert len(calls) > 200


def _d96_labelings():
    """The four d96 designs at labelings 1 and 2."""
    return [_relabeled(design_96(group_id, block_id)[1], seed)
            for group_id in ("h1", "h2") for block_id in (1, 2) for seed in (1, 2)]


def test_proved_order_equals_constructor_order():
    """The order read off the first leaf's path equals the order of the
    group that the constructor builds from every automorphism found."""
    designs = _oracle_designs() + _d96_labelings()
    designs += [projective_design(5), construction_36_cosets()]
    for d in designs:
        search = _Search(d, 10**7).run()
        assert _proved_order(search) == PermGroup(search.autos.values(), degree=d.v).order()


def test_proved_order_matches_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    for d in (construction_36(), projective_design(3), design_96("h1", 1)[1]):
        search = _Search(d, 10**7).run()
        reference = combinatorics.PermutationGroup(
            [combinatorics.Permutation([x - 1 for x in p.images]) for p in search.autos.values()])
        assert _proved_order(search) == reference.order()


def test_generators_are_kept_automorphisms_in_found_order():
    """The group's generators are a subsequence of the automorphisms found;
    they hold every one that a greedy filter keeps (each one that those
    before it do not generate), and generate a group of the result's order.
    On some d96 labelings they hold more."""
    extra = 0
    for d in _oracle_designs() + _d96_labelings():
        found = list(_Search(d, 10**7).run().autos.values())
        result = automorphism_group(d)
        gens = result.group.generators
        rest = iter(found)
        assert all(g in rest for g in gens)  # `in` consumes the iterator
        greedy = _rebuilt_group(found, d.v).generators
        assert set(greedy) <= set(gens)
        assert PermGroup(gens, degree=d.v).order() == result.order
        extra += len(gens) > len(greedy)
    assert extra > 0


def test_pg5_automorphism_group():
    result = automorphism_group(projective_design(5), node_cap=1000)
    assert result.order == 20158709760


GOLDEN_AUT = {
    ("d36", 1): {"order": 720, "nodes_explored": 7, "generators": [
        "(2,20,24,9)(3,34,8,10)(4,14,29,22)(5,6,28,18)(7,15,26,16)(11,17,33,31)(12,25,30,23)(19,32,36,35)",
        "(2,19,3,16,25)(4,27,29,22,14)(5,6,18,28,13)(7,32,30,34,20)(8,36,24,23,15)(9,10,12,35,26)(11,31,21,17,33)",
        "(1,2,24,9)(4,33,18,25)(5,29,36,12)(6,19,17,14)(7,15,21,26)(8,27,10,34)(11,32,22,30)(23,35,28,31)"]},
    ("d36", 2): {"order": 720, "nodes_explored": 7, "generators": [
        "(2,10,8,33,36)(3,5,32,23,21)(4,29,19,9,15)(6,18,25,22,17)(7,28,30,11,16)(12,24,27,14,26)(13,35,31,34,20)",
        "(2,7,34,14)(3,32,5,21)(4,9,15,29)(6,22,17,18)(8,16,35,26)(10,30,31,24)(11,20,12,36)(13,27,33,28)",
        "(1,2)(3,14)(4,36)(5,7)(6,29)(8,30)(9,10)(11,31)(12,17)(16,33)(18,35)(19,21)(22,28)(23,34)(24,27)(25,32)"]},
    ("pg3", 1): {"order": 20160, "nodes_explored": 39, "generators": [
        "(2,4)(3,14)(6,8)(10,15)", "(2,14)(3,4)(6,10)(8,15)",
        "(2,4)(3,14)(6,10)(7,11)(8,15)(12,13)", "(2,4)(3,14)(7,12)(11,13)",
        "(2,15)(3,6)(4,10)(8,14)", "(3,15)(5,7)(9,12)(10,14)",
        "(6,7)(8,12)(10,13)(11,15)", "(1,2)(3,12,13,9,15,6)(5,7,8)(10,11,14)"]},
    ("pg3", 2): {"order": 20160, "nodes_explored": 39, "generators": [
        "(2,3)(4,7)(5,11)(14,15)", "(2,15)(3,14)(4,5)(7,11)",
        "(2,3)(8,9)(10,13)(14,15)", "(2,3)(4,5)(7,11)(8,10)(9,13)(14,15)",
        "(2,7)(3,4)(5,14)(11,15)", "(4,15)(6,8)(7,14)(9,12)",
        "(5,6)(10,14)(11,12)(13,15)", "(1,2)(7,8)(11,13)(12,15)"]},
    # The search finds 7 automorphisms here; a greedy filter keeps 5, and
    # the chain built to the proved order keeps 6 (the fourth is the extra).
    ("d96-h2-1", 2): {"order": 138240, "nodes_explored": 34, "generators": [
        "(4,6,36)(5,47,21)(7,13,73)(8,22,70)(9,11,86)(10,18,30)(12,63,64)(14,17,43)"
        "(15,34,78)(16,24,81)(19,87,31)(23,41,33)(25,84,91)(26,75,37)(27,44,69)(28,42,82)"
        "(29,71,92)(32,93,52)(38,77,53)(39,58,54)(40,79,80)(45,66,46)(48,83,56)(50,76,67)"
        "(51,62,57)(59,68,89)(60,85,96)(65,90,72)(74,94,88)",
        "(4,42)(6,28)(8,51)(10,85)(11,86)(12,46)(13,73)(14,76)(15,58)(16,24)(17,50)"
        "(18,60)(19,65)(20,61)(21,47)(22,57)(25,91)(27,92)(29,69)(30,96)(31,90)(33,41)"
        "(34,39)(35,49)(36,82)(37,75)(38,80)(40,53)(43,67)(44,71)(45,64)(52,93)(54,78)"
        "(56,83)(59,89)(62,70)(63,66)(72,87)(74,88)(77,79)",
        "(2,4,49,93,35,28)(3,61,20)(5,21,70,22,62,51)(6,82,52,36,42,32)(7,73,43,17,67,76)"
        "(8,11,57,86,47,9)(10,64,46,60,19,72)(12,69,85,71,65,24)(13,84,14,91,50,25)"
        "(15,34,59,68,54,39)(16,77,44,75,29,40)(18,53,45,37,87,79)(23,89,33,58,41,78)"
        "(26,63,80,96,38,90)(27,30,92,66,81,31)(48,83,56)(55,88)(74,94)",
        "(2,49)(3,20)(4,36)(5,8)(7,14)(9,86)(10,90)(12,87)(13,43)(16,27)(17,73)(18,65)"
        "(19,63)(21,22)(24,69)(25,84)(26,40)(28,32)(29,92)(30,72)(31,64)(33,41)(34,78)"
        "(37,79)(38,77)(39,89)(42,52)(44,81)(45,85)(46,96)(47,70)(50,67)(54,59)(56,83)"
        "(57,62)(58,68)(60,66)(75,80)(82,93)(88,94)",
        "(3,7)(4,42)(5,26)(6,75)(8,38)(9,32)(10,40)(11,45)(12,46)(13,73)(14,17)(15,88)"
        "(18,57)(19,30)(20,43)(21,36)(22,60)(23,55)(27,44)(28,37)(29,35)(31,79)(33,41)"
        "(34,56)(39,83)(47,82)(48,94)(49,69)(50,76)(51,80)(52,66)(53,85)(54,78)(58,74)"
        "(59,89)(61,67)(62,87)(63,93)(64,86)(65,96)(68,95)(70,72)(71,92)(77,90)",
        "(1,2)(3,55)(4,28)(5,21)(6,82)(7,33)(9,56)(10,80)(11,83)(12,58)(13,41)(14,71)"
        "(15,45)(16,91)(17,29)(18,79)(19,87)(20,35)(22,70)(23,73)(24,84)(25,81)(26,37)"
        "(27,50)(30,40)(32,74)(34,46)(36,42)(38,96)(39,63)(43,92)(44,67)(48,86)(49,61)"
        "(51,62)(52,94)(53,60)(54,64)(59,68)(66,78)(69,76)(72,90)(77,85)(88,93)"]},
}


def test_aut_json_golden(tmp_path):
    """Exact `ftdesigns --format json aut` payloads (minus elapsed_s)."""
    base = {"d36": construction_36(), "pg3": projective_design(3),
            "d96-h2-1": design_96("h2", 1)[1]}
    for (name, seed), want in GOLDEN_AUT.items():
        path = tmp_path / ("%s-%d.dsg" % (name, seed))
        path.write_text(format_design_text(_relabeled(base[name], seed)))
        out = io.StringIO()
        assert cli.main(["--format", "json", "aut", str(path)], out=out) == 0
        payload = json.loads(out.getvalue())
        del payload["elapsed_s"]
        assert payload == dict(want, schema="ftdesigns/1", command="aut",
                               num_generators=len(want["generators"]))


def test_greedy_filter_drops_found_automorphisms():
    """On the d96 h2/1 golden labeling the search finds 7 automorphisms, 1
    more than the generators that ``GOLDEN_AUT`` pins."""
    d = _relabeled(design_96("h2", 1)[1], 2)
    assert len(_Search(d, 10**7).run().autos) == 7


def test_certificate_golden():
    cases = (
        (construction_36(),
         "6fea28652d8eb9282a5657f0ae0ca866637d59f1be7ec8d2ada7feba07fd5a59"),
        (projective_design(3),
         "a259547224d0586d850a16c94f99a1692e4446d064c3b439235e3126fe6bc5c7"),
        (design_96("h2", 2)[1],
         "7683b99973036b0c635c41ccd76447c09f206a9b7178deaa1c52464d55b429e0"),
    )
    for d, digest in cases:
        assert hashlib.sha256(canonical_form(d).certificate).hexdigest() == digest


def test_qualifying_masks_golden():
    # sha256 of the sorted census masks, as counted by the row-by-row search
    # over column tallies that the grid-pattern construction replaced
    systems = twisted_diagonal_group().block_systems()
    masks = _qualifying_masks(systems[0].parts, systems[1].parts)
    assert len(set(masks)) == len(masks) == 20250
    digest = hashlib.sha256(",".join(map(str, sorted(masks))).encode()).hexdigest()
    assert digest == "60813731080a09517de62bc579045869b69ecb9a464d133a8c291b24f212fe31"


def test_qualifying_masks_need_a_grid():
    rows = [tuple(range(6 * i + 1, 6 * i + 7)) for i in range(6)]
    cols = [tuple(range(j + 1, 37, 6)) for j in range(6)]
    assert len(_qualifying_masks(rows, cols)) == 20250
    # points 1 and 8 trade columns: the second row meets the first column
    # in 7 and 8 and the second column in no point
    swapped = [(8,) + cols[0][1:], (2, 1) + cols[1][2:]]
    for bad in (rows, swapped + cols[2:]):
        with pytest.raises(AssertionError):
            _qualifying_masks(rows, bad)


def test_autgrp_checks_survive_python_O():
    """The witness, orbit-closure, grid and census checks raise under
    `python -O`."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ftdesigns.__file__)))
    code = r"""
import sys
from ftdesigns import autgrp
from ftdesigns.construct import projective_design
from ftdesigns.perm import PermGroup, Permutation
assert False, "python -O did not strip asserts"

def raises(fn, *args):
    try:
        fn(*args)
    except AssertionError:
        return True
    return False

def same_cert(d, node_cap=None):
    return autgrp.CanonicalForm(Permutation(range(1, d.v + 1)), (), b"same")

autgrp.canonical_form = same_cert
d = projective_design(3)
swapped = d.relabel(Permutation([2, 1] + list(range(3, 16))))
if swapped.block_set == d.block_set:
    sys.exit("test design is invariant under the swap")
cycle36 = Permutation(list(range(2, 37)) + [1])
autgrp.twisted_diagonal_group = lambda: PermGroup([cycle36], degree=36)
print(raises(autgrp.are_isomorphic, d, swapped),
      raises(autgrp._mask_orbits, [1], [cycle36]),
      raises(autgrp._qualifying_masks, [(1, 2)], [(1, 2)]),
      raises(autgrp.uniqueness_census_36))
"""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"] * 4


def test_cli_output_does_not_depend_on_hash_seed(tmp_path):
    """`aut` on a relabeled d36 file and `census36` print the same JSON
    (minus elapsed_s) under two hash seeds."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ftdesigns.__file__)))
    path = tmp_path / "d36.dsg"
    path.write_text(format_design_text(_relabeled(construction_36(), 3)))
    for argv in (["aut", str(path)], ["census36"]):
        payloads = []
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            proc = subprocess.run([sys.executable, "-m", "ftdesigns", "--format", "json"] + argv,
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            payload = json.loads(proc.stdout)
            del payload["elapsed_s"]
            payloads.append(payload)
        assert payloads[0] == payloads[1]
