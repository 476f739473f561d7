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
from ftdesigns import cli
from ftdesigns.autgrp import (
    ResourceCapExceeded,
    _Search,
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
from ftdesigns.perm import Permutation


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


def test_refine_matches_reference(monkeypatch):
    refine = _Search._refine
    calls = []

    def checked(self, cells):
        got = refine(self, cells)
        assert got == _reference_refine(self, cells), cells
        calls.append(1)
        return got

    monkeypatch.setattr(_Search, "_refine", checked)
    designs = [_relabeled(d, seed) for seed in range(10)
               for d in (construction_36(), projective_design(3))]
    designs.append(design_96("h2", 2)[1])
    rng = random.Random(31)
    designs += [random_design(rng) for _ in range(200)]
    for d in designs:
        automorphism_group(d)
    assert len(calls) > len(designs)


GOLDEN_AUT = {
    ("d36", 1): {"order": 720, "nodes_explored": 26, "generators": [
        "(2,20,24,9)(3,34,8,10)(4,14,29,22)(5,6,28,18)(7,15,26,16)(11,17,33,31)(12,25,30,23)(19,32,36,35)",
        "(2,19,3,16,25)(4,27,29,22,14)(5,6,18,28,13)(7,32,30,34,20)(8,36,24,23,15)(9,10,12,35,26)(11,31,21,17,33)",
        "(1,2,24,9)(4,33,18,25)(5,29,36,12)(6,19,17,14)(7,15,21,26)(8,27,10,34)(11,32,22,30)(23,35,28,31)"]},
    ("d36", 2): {"order": 720, "nodes_explored": 26, "generators": [
        "(2,10,8,33,36)(3,5,32,23,21)(4,29,19,9,15)(6,18,25,22,17)(7,28,30,11,16)(12,24,27,14,26)(13,35,31,34,20)",
        "(2,7,34,14)(3,32,5,21)(4,9,15,29)(6,22,17,18)(8,16,35,26)(10,30,31,24)(11,20,12,36)(13,27,33,28)",
        "(1,2)(3,14)(4,36)(5,7)(6,29)(8,30)(9,10)(11,31)(12,17)(16,33)(18,35)(19,21)(22,28)(23,34)(24,27)(25,32)"]},
    ("pg3", 1): {"order": 20160, "nodes_explored": 436, "generators": [
        "(2,4)(3,14)(6,8)(10,15)", "(2,14)(3,4)(6,10)(8,15)",
        "(2,4)(3,14)(6,10)(7,11)(8,15)(12,13)", "(2,4)(3,14)(7,12)(11,13)",
        "(2,15)(3,6)(4,10)(8,14)", "(3,15)(5,7)(9,12)(10,14)",
        "(6,7)(8,12)(10,13)(11,15)", "(1,2)(3,12,13,9,15,6)(5,7,8)(10,11,14)"]},
    ("pg3", 2): {"order": 20160, "nodes_explored": 795, "generators": [
        "(2,3)(4,7)(5,11)(14,15)", "(2,15)(3,14)(4,5)(7,11)",
        "(2,3)(8,9)(10,13)(14,15)", "(2,3)(4,5)(7,11)(8,10)(9,13)(14,15)",
        "(2,7)(3,4)(5,14)(11,15)", "(4,15)(6,8)(7,14)(9,12)",
        "(5,6)(10,14)(11,12)(13,15)", "(1,2)(7,8)(11,13)(12,15)"]},
}


def test_aut_json_golden(tmp_path):
    """Exact `ftdesigns --format json aut` payloads (minus elapsed_s)."""
    base = {"d36": construction_36(), "pg3": projective_design(3)}
    for (name, seed), want in GOLDEN_AUT.items():
        path = tmp_path / ("%s-%d.dsg" % (name, seed))
        path.write_text(format_design_text(_relabeled(base[name], seed)))
        out = io.StringIO()
        assert cli.main(["--format", "json", "aut", str(path)], out=out) == 0
        payload = json.loads(out.getvalue())
        del payload["elapsed_s"]
        assert payload == dict(want, schema="ftdesigns/1", command="aut",
                               num_generators=len(want["generators"]))


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


def test_autgrp_checks_survive_python_O():
    """The witness, orbit-closure and census checks raise under `python -O`."""
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
      raises(autgrp.uniqueness_census_36))
"""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True", "True"]
