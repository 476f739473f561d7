import functools
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys

import pytest

import ftdesigns
from ftdesigns import perm
from ftdesigns.autgrp import CanonicalForm, _proved_order, _Search, automorphism_group
from ftdesigns.construct import (
    block_regular_group_96,
    construction_36,
    coset_model_group,
    design_96,
    projective_design,
    semilinear_group_15,
    twisted_diagonal_group,
)
from ftdesigns.design import DesignError, format_design_text, parse_design_text
from ftdesigns.perm import (
    BlockSystem,
    BlockSystemCapExceeded,
    CycleParseError,
    GroupError,
    PermGroup,
    Permutation,
    closure,
    format_cycles,
    format_group_text,
    orbits_on,
    parse_cycles,
    parse_group_text,
)
from test_autgrp import GOLDEN_AUT, _relabeled


def S6():
    return PermGroup([parse_cycles("(1,2)", 6), parse_cycles("(1,2,3,4,5,6)", 6)])


def test_parse_cycles_examples():
    assert parse_cycles("(1,4)(2,6)(3,5)", 6).images == (4, 6, 5, 1, 3, 2)
    assert parse_cycles("", 5) == Permutation.identity(5)
    assert parse_cycles("()", 5) == Permutation.identity(5)
    assert parse_cycles("(1,3)(2,6,5)", 6).images == (3, 6, 1, 4, 2, 5)
    # whitespace after commas and between cycles is fine
    assert parse_cycles("(1, 4)(2, 6)(3, 5)", 6).images == (4, 6, 5, 1, 3, 2)
    assert parse_cycles("(1,2) (3,4)", 4).images == (2, 1, 4, 3)
    # a fixed point may be written out
    assert parse_cycles("(5)(1,2)", 5).images == (2, 1, 3, 4, 5)


def test_parse_cycles_errors():
    with pytest.raises(CycleParseError):
        parse_cycles("(1,2", 4)
    with pytest.raises(CycleParseError):
        parse_cycles("(1,5)", 4)
    with pytest.raises(CycleParseError):
        parse_cycles("(1,2)(2,3)", 4)
    with pytest.raises(CycleParseError):
        parse_cycles("(1,x)", 4)
    with pytest.raises(CycleParseError):
        parse_cycles("1,2", 4)
    with pytest.raises(CycleParseError, match="degree must be positive"):
        parse_cycles("", 0)


def test_format_parse_round_trip():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 12)
        p = Permutation(rng.sample(range(1, n + 1), n))
        assert parse_cycles(format_cycles(p), n) == p


def test_compose_inverse_identity():
    rng = random.Random(3)
    for _ in range(50):
        p = Permutation(rng.sample(range(1, 9), 8))
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()


def test_points_below_1_raise():
    p = Permutation([2, 3, 1])
    for point in (0, -1):
        with pytest.raises(ValueError):
            p(point)
    with pytest.raises(ValueError):
        p.image_of_set({0, 1})
    with pytest.raises(ValueError):
        closure((0,), [p])
    assert p(3) == 1 and p.image_of_set({3, 1}) == {1, 2}
    assert p.image_of_set(()) == frozenset()


def test_points_above_degree_raise_value_error():
    p = Permutation([2, 3, 1])
    with pytest.raises(ValueError, match=r"^point 4 out of range 1\.\.3$"):
        p(4)
    with pytest.raises(ValueError, match=r"^point 5 out of range 1\.\.3$"):
        p.image_of_set([1, 5, 2])
    with pytest.raises(ValueError, match=r"^point 4 out of range 1\.\.3$"):
        p.image_of_set(x for x in (4,))


def test_image_of_set_reads_an_iterator_once():
    p = Permutation([2, 3, 1])
    assert p.image_of_set(x for x in (1, 2)) == {2, 3}
    assert p.image_of_set(iter(())) == frozenset()
    with pytest.raises(ValueError, match="point 0 is below 1"):
        p.image_of_set(iter([0]))


def test_value_type_contract():
    """Equal values are equal and hash equal whatever their construction
    path, a Permutation is not its image tuple, every attribute is
    read-only, and canonical forms compare by certificate alone."""
    p = Permutation([2, 3, 1, 5, 4])
    q = parse_cycles("(4,5)", 5)
    equal = [Permutation([3, 1, 2, 4, 5]), parse_cycles("(1,3,2)", 5),
             p.inverse() * q, (q * p).inverse()]
    assert all(e == equal[0] and hash(e) == hash(equal[0]) for e in equal)
    assert p * p.inverse() == Permutation.identity(5) == parse_cycles("()", 5)
    assert p != p.images and p.images != p and p not in {p.images: 0}
    first = BlockSystem(6, [(1, 2), (3, 4), (5, 6)])
    second = BlockSystem(6, [(6, 5), (2, 1), (4, 3)])
    assert first == second and hash(first) == hash(second)
    assert first != BlockSystem(6, [(1, 3), (2, 4), (5, 6)])
    design = construction_36()
    for value, names in ((p, ("images", "degree", "other")),
                         (p * q, ("images",)),
                         (first, ("degree", "parts", "other")),
                         (design, ("v", "blocks", "_block_index", "other"))):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
    form = CanonicalForm(relabeling=p, blocks=design.blocks, certificate=b"v=5;b=1;1,2")
    twin = CanonicalForm(relabeling=q, blocks=(), certificate=b"v=5;b=1;1,2")
    assert form == twin and hash(form) == hash(twin)
    assert form != CanonicalForm(relabeling=p, blocks=design.blocks, certificate=b"v=5;b=1;1,3")


def test_composition_order():
    # (p*q)(x) = q(p(x))
    p = parse_cycles("(1,2)", 3)
    q = parse_cycles("(2,3)", 3)
    assert (p * q)(1) == 3


def test_group_orders():
    assert S6().order() == 720
    assert PermGroup([Permutation.identity(4)]).order() == 1
    assert PermGroup([], degree=5).order() == 1
    s8 = PermGroup([parse_cycles("(1,2)", 8), parse_cycles("(1,2,3,4,5,6,7,8)", 8)])
    assert s8.order() == math.factorial(8)


def test_group_errors():
    with pytest.raises(GroupError):
        PermGroup([])
    with pytest.raises(GroupError):
        PermGroup([Permutation.identity(3), Permutation.identity(4)])


def test_contains():
    c3 = PermGroup([parse_cycles("(1,2,3)", 3)])
    assert c3.contains(parse_cycles("(1,3,2)", 3))
    assert not c3.contains(parse_cycles("(1,2)", 3))
    # even-word subgroup of S6 does not contain a transposition
    a1 = parse_cycles("(1,2)", 6)
    a2 = parse_cycles("(1,2,3,4,5,6)", 6)
    a6 = PermGroup([a1 * a2, a2 * a1])
    assert a6.order() == 360
    assert not a6.contains(a1)


def test_contains_random_words():
    g = S6()
    gens = list(g.generators) + [p.inverse() for p in g.generators]
    rng = random.Random(11)
    for _ in range(100):
        w = Permutation.identity(6)
        for _ in range(rng.randint(1, 15)):
            w = w * rng.choice(gens)
        assert g.contains(w)


def test_contains_rejects_outside_orbit():
    # group fixes point 4; anything moving it is not a member
    g = PermGroup([parse_cycles("(1,2,3)", 4)])
    assert not g.contains(parse_cycles("(3,4)", 4))


def test_bsgs_invariants():
    for g in (S6(), PermGroup([parse_cycles("(1,2)(3,4)", 4)])):
        assert g.order() == math.prod(len(orb) for _, orb, _ in g.basic_orbits)
        for sg in g.strong_generators:
            assert g.sift(sg).is_identity()
        for gen in g.generators:
            assert g.contains(gen)
        for point, orbit, transversal in g.basic_orbits:
            for q in orbit:
                assert transversal[q](point) == q


def assert_chain_complete(g):
    """The chain is a base and strong generating set, checked through the
    public API only: with S_i the strong generators fixing b_0..b_{i-1},
    the i-th basic orbit is the orbit of b_i under S_i, and every Schreier
    generator t[p] * s * t[s(p)]^-1 of it fixes b_0..b_i and sifts to the
    identity."""
    base = g.base
    for i, (point, orbit, transversal) in enumerate(g.basic_orbits):
        assert point == base[i]
        gens = [s for s in g.strong_generators if all(s(b) == b for b in base[:i])]
        assert sorted(orbit) == sorted(closure((point,), gens))
        assert set(transversal) == set(orbit)
        for p in orbit:
            assert transversal[p](point) == p
            for s in gens:
                schreier = transversal[p] * s * transversal[s(p)].inverse()
                assert all(schreier(b) == b for b in base[: i + 1])
                assert g.sift(schreier).is_identity()


@pytest.mark.parametrize("build", [
    lambda: block_regular_group_96("h1"),
    lambda: block_regular_group_96("h2"),
    twisted_diagonal_group,
    semilinear_group_15,
    coset_model_group,
    lambda: automorphism_group(construction_36()).group,
    lambda: automorphism_group(projective_design(3)).group,
], ids=["H1", "H2", "twisted-diagonal", "semilinear", "coset-model", "Aut(d36)", "Aut(pg3)"])
def test_chain_is_complete(build):
    assert_chain_complete(build())


def _found(d):
    """The automorphisms the search finds on d, and the order it proves."""
    search = _Search(d, 10**7).run()
    return list(search.autos.values()), _proved_order(search)


def test_exact_fallback_builds_the_same_group(monkeypatch):
    """With no trivial sift allowed, `of_order` completes the chain by the
    constructor's exact walk: same order, same members, a complete chain."""
    designs = [construction_36(), projective_design(3), _relabeled(design_96("h2", 1)[1], 2)]
    built = [PermGroup.of_order(*_found(d), d.v) for d in designs]
    complete = PermGroup._complete
    completions = []
    monkeypatch.setattr(PermGroup, "_complete",
                        lambda self, i: completions.append(i) or complete(self, i))
    monkeypatch.setattr(perm, "_TRIVIAL_SIFT_LIMIT", 0)
    rng = random.Random(5)
    for d, sampled in zip(designs, built):
        found, order = _found(d)
        exact = PermGroup.of_order(found, order, d.v)
        assert exact.order() == sampled.order() == order
        assert_chain_complete(exact)
        for _ in range(20):
            word = rng.choices(found, k=3)
            member = word[0] * word[1] * word[2]
            other = Permutation(rng.sample(range(1, d.v + 1), d.v))
            assert exact.contains(member) and sampled.contains(member)
            assert exact.contains(other) == sampled.contains(other)
    assert completions


def test_of_order_raises_on_a_wrong_order():
    """Twice the order fails after the exact walk; half of it fails as soon
    as the orbit lengths multiply past it.  So does the order over any of
    its prime factors, also where the orbit lengths reach it exactly and
    only the confirming sifts show that the group is larger."""
    found, order = _found(projective_design(3))
    with pytest.raises(AssertionError, match="not the given"):
        PermGroup.of_order(found, 2 * order, 15)
    with pytest.raises(AssertionError, match="passes the given"):
        PermGroup.of_order(found, order // 2, 15)
    for d in (construction_36(), projective_design(3), projective_design(5),
              _relabeled(design_96("h2", 1)[1], 2)):
        found, order = _found(d)
        for prime in (p for p in (2, 3, 5, 7, 31) if order % p == 0):
            with pytest.raises(AssertionError, match="passes the given"):
                PermGroup.of_order(found, order // prime, d.v)


def test_of_order_checks_survive_python_O():
    """Both wrong-order checks of `of_order` raise under `python -O`."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ftdesigns.__file__)))
    code = r"""
from ftdesigns.autgrp import _proved_order, _Search
from ftdesigns.construct import projective_design
from ftdesigns.perm import PermGroup
assert False, "python -O did not strip asserts"

def raises(order, match):
    try:
        PermGroup.of_order(found, order, 15)
    except AssertionError as exc:
        return match in str(exc)
    return False

search = _Search(projective_design(3), 10**7).run()
found, order = list(search.autos.values()), _proved_order(search)
print(raises(2 * order, "not the given"), raises(order // 2, "passes the given"))
"""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"] * 2


def test_aut_group_and_a_transposition_generate_the_symmetric_group():
    """The constructor on the generators of Aut(pg 3), which `of_order`
    keeps, and a transposition outside it builds a complete chain of the
    symmetric group."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    aut = automorphism_group(projective_design(3)).group
    swap = Permutation([2, 1] + list(range(3, 16)))
    assert not aut.contains(swap)
    group = PermGroup(aut.generators + (swap,))
    reference = combinatorics.PermutationGroup(
        [combinatorics.Permutation([x - 1 for x in g.images]) for g in group.generators])
    assert group.order() == reference.order() == math.factorial(15)
    assert_chain_complete(group)


def test_determinism():
    g1, g2 = S6(), S6()
    assert g1.base == g2.base
    assert g1.strong_generators == g2.strong_generators
    assert [b[:2] for b in g1.basic_orbits] == [b[:2] for b in g2.basic_orbits]


def test_orbits():
    g = PermGroup([parse_cycles("(1,2)(3,4)", 4)])
    assert g.orbit(1) == (1, 2)
    assert PermGroup([Permutation.identity(4)]).orbit(3) == (3,)
    assert S6().orbit(1) == tuple(range(1, 7))
    assert g.orbits() == [(1, 2), (3, 4)]
    assert not g.is_transitive()
    with pytest.raises(ValueError, match=r"^point 0 out of range 1\.\.4$"):
        g.orbit(0)


def test_set_orbit_and_stabilizer():
    """The orbit of a point set is its breadth-first closure, and the
    stabilizer order is |G| / |orbit| (orbit-stabilizer)."""
    c4 = PermGroup([parse_cycles("(1,2,3,4)", 4)])
    orbit = c4.orbit_of_set({1, 3})
    assert orbit == [frozenset({1, 3}), frozenset({2, 4})]
    assert c4.order() // len(orbit) == 2
    # full point set: orbit is a singleton, stabilizer the whole group
    assert c4.orbit_of_set({1, 2, 3, 4}) == [frozenset({1, 2, 3, 4})]
    g = S6()
    rng = random.Random(5)
    for _ in range(10):
        s = set(rng.sample(range(1, 7), rng.randint(1, 5)))
        orbit = g.orbit_of_set(s)
        assert orbit == closure([frozenset(s)], g.generators, Permutation.image_of_set)
        assert len(orbit) == math.comb(6, len(s))  # S6 is transitive on k-sets
    for bad in ({0, 1}, {6, 7}):
        with pytest.raises(ValueError, match="out of range"):
            g.orbit_of_set(bad)
        with pytest.raises(ValueError, match="out of range"):
            PermGroup([], degree=6).orbit_of_set(bad)


def _closure(generators):
    """Every element of the group generated, by breadth-first products."""
    elements = {Permutation.identity(generators[0].degree)}
    frontier = list(elements)
    while frontier:
        h = frontier.pop()
        for g in generators:
            hg = h * g
            if hg not in elements:
                elements.add(hg)
                frontier.append(hg)
    return elements


def test_set_orbit_matches_brute_force():
    """The orbit of a point set is its image under each of the 720 listed
    elements, and |G| / |orbit| elements fix the set."""
    from ftdesigns.construct import CONSTRUCTION_36_BASE_BLOCK, twisted_diagonal_group

    rng = random.Random(17)
    for g in (S6(), twisted_diagonal_group()):
        elements = _closure(g.generators)
        assert len(elements) == g.order() == 720
        sets = [frozenset(rng.sample(range(1, g.degree + 1), rng.randint(1, g.degree - 1)))
                for _ in range(6)]
        if g.degree == 36:
            sets.append(CONSTRUCTION_36_BASE_BLOCK)  # stabilizer of order 720 / 90 = 8
        for s in sets:
            orbit = g.orbit_of_set(s)
            assert len(set(orbit)) == len(orbit)
            assert set(orbit) == {h.image_of_set(s) for h in elements}
            fixing = [h for h in elements if h.image_of_set(s) == s]
            assert len(fixing) == g.order() // len(orbit)
            if s == CONSTRUCTION_36_BASE_BLOCK:
                assert len(orbit) == 90 and len(fixing) == 8


def _random_subgroup(rng, n):
    """The group generated by one to three random permutations of 1..n."""
    gens = []
    for _ in range(rng.randint(1, 3)):
        images = list(range(1, n + 1))
        rng.shuffle(images)
        gens.append(Permutation(images))
    return PermGroup(gens)


def test_closure_and_orbits_on_match_brute_force():
    """Orbits on points and on point sets equal the images under every
    element of the group."""
    from ftdesigns.construct import twisted_diagonal_group

    rng = random.Random(23)
    groups = [S6(), twisted_diagonal_group()]
    groups += [_random_subgroup(rng, rng.randint(2, 7)) for _ in range(8)]
    for g in groups:
        elements = _closure(g.generators)
        assert len(elements) == g.order()
        n = g.degree
        for x in range(1, n + 1):
            assert set(closure([x], g.generators)) == {h(x) for h in elements}
        brute = {tuple(sorted({h(x) for h in elements})) for x in range(1, n + 1)}
        assert orbits_on(range(1, n + 1), g.generators) == sorted(brute)
        assert g.orbits() == sorted(brute)
        sets = [frozenset(rng.sample(range(1, n + 1), rng.randint(1, n))) for _ in range(4)]
        for s in sets:
            found = closure([s], g.generators, Permutation.image_of_set)
            assert found[0] == s and len(found) == len(set(found))
            assert set(found) == {h.image_of_set(s) for h in elements}
        # the seeds' orbits merge: the closure of two seeds is their union
        x, y = 1, n
        both = {h(x) for h in elements} | {h(y) for h in elements}
        assert set(closure([x, y], g.generators)) == both


def test_orbits_on_order_and_items():
    g = PermGroup([parse_cycles("(1,5)(2,3)", 6)])
    assert orbits_on(range(1, 7), g.generators) == [(1, 5), (2, 3), (4,), (6,)]
    assert orbits_on([5, 6, 1], g.generators) == [(1, 5), (6,)]
    assert closure([], g.generators) == []
    assert closure([4, 4], g.generators) == [4]
    with pytest.raises(AssertionError, match="leaves"):
        orbits_on([1, 2], g.generators)
    # any action on any orderable items: negation on integers
    negate = [None]
    assert orbits_on([-2, -1, 1, 2], negate, lambda _, x: -x) == [(-2, 2), (-1, 1)]
    with pytest.raises(AssertionError):
        orbits_on([1, 2, -2], negate, lambda _, x: -x)


def test_block_systems_small():
    c5 = PermGroup([parse_cycles("(1,2,3,4,5)", 5)])
    assert c5.block_systems() == []
    c4 = PermGroup([parse_cycles("(1,2,3,4)", 4)])
    systems = c4.block_systems()
    assert len(systems) == 1 and systems[0].parts == ((1, 3), (2, 4))
    c8 = PermGroup([parse_cycles("(1,2,3,4,5,6,7,8)", 8)])
    assert [(s.part_size, s.num_parts) for s in c8.block_systems()] == [(2, 4), (4, 2)]
    # S6 natural action is primitive
    assert S6().block_systems() == []
    assert repr(systems[0]) == "BlockSystem(c=2, d=2)"
    for degree, parts, message in ((4, [(1, 2), (3,)], "do not partition"),
                                   (6, [(1, 2), (3, 4, 5, 6)], "unequal sizes"),
                                   (4, [(1,), (2,), (3,), (4,)], "trivial partition"),
                                   (4, [(1, 2, 3, 4)], "trivial partition")):
        with pytest.raises(ValueError, match=message):
            BlockSystem(degree, parts)


def test_block_systems_invariance_and_order():
    # direct product C3 x C3 acting on 9 points has four systems of (3,3)
    g = PermGroup([parse_cycles("(1,2,3)(4,5,6)(7,8,9)", 9),
                   parse_cycles("(1,4,7)(2,5,8)(3,6,9)", 9)])
    systems = g.block_systems()
    assert all(s.is_invariant_under(g.generators) for s in systems)
    assert [s.part_size for s in systems] == sorted(s.part_size for s in systems)
    assert len(systems) == 4


def reference_is_invariant_under(system, perms):
    """`BlockSystem.is_invariant_under` as it was written on frozensets,
    for permutations of the partition's degree: every image of a part is
    a part."""
    partset = {frozenset(part) for part in system.parts}
    for g in perms:
        for part in system.parts:
            if g.image_of_set(part) not in partset:
                return False
    return True


def _check_invariance(system, perms):
    """`is_invariant_under` agrees with the reference on each of perms and
    on all of them; returns how many leave the system invariant."""
    found = 0
    for g in perms:
        want = reference_is_invariant_under(system, [g])
        assert system.is_invariant_under([g]) == want, (system, g)
        found += want
    assert system.is_invariant_under(perms) == (found == len(perms))
    return found


def test_is_invariant_under_matches_the_frozenset_reference():
    """Every block system of H1, H2, the d36 group and pg 3's group under
    the group's generators, words in them and seeded random permutations;
    and seeded random partitions under random permutations, transpositions
    and permutations that carry parts onto parts."""
    rng = random.Random(28)
    groups = [block_regular_group_96("h1"), block_regular_group_96("h2"),
              twisted_diagonal_group(), semilinear_group_15()]
    for g in groups:
        systems = g.block_systems()
        assert systems
        gens = list(g.generators)
        words = [math.prod(rng.choices(gens, k=5), start=Permutation.identity(g.degree))
                 for _ in range(3)]
        randoms = [Permutation(rng.sample(range(1, g.degree + 1), g.degree)) for _ in range(3)]
        for system in systems:
            assert _check_invariance(system, gens + words) == len(gens) + len(words)
            _check_invariance(system, randoms)
    kinds = [0, 0]  # how many checks said not invariant, invariant
    for n in (4, 6, 12, 24, 36):
        for c in (c for c in range(2, n) if n % c == 0):
            points = rng.sample(range(1, n + 1), n)
            parts = [points[i:i + c] for i in range(0, n, c)]
            system = BlockSystem(n, parts)
            perms = [Permutation(rng.sample(range(1, n + 1), n)) for _ in range(4)]
            for _ in range(4):  # parts onto parts, each in a random order
                images = [0] * n
                for part, image in zip(parts, rng.sample(parts, len(parts))):
                    for x, y in zip(part, rng.sample(image, c)):
                        images[x - 1] = y
                perms.append(Permutation(images))
            for a, b in (points[:2], (points[0], points[c])):  # within a part, across
                perms.append(parse_cycles("(%d,%d)" % (a, b), n))
            found = _check_invariance(system, perms)
            kinds[0] += len(perms) - found
            kinds[1] += found
    assert min(kinds) > 50, kinds


def test_is_invariant_under_another_degree():
    """A permutation of another degree leaves no partition invariant, as
    `design.is_automorphism` says of a design."""
    system = BlockSystem(4, [(1, 2), (3, 4)])
    assert system.is_invariant_under([parse_cycles("(1,3)(2,4)", 4)])
    assert system.is_invariant_under([])
    for g in (parse_cycles("(1,2)", 6), parse_cycles("(1,2)", 3),
              Permutation.identity(6), Permutation.identity(3)):
        assert not system.is_invariant_under([g])
        assert not system.is_invariant_under([Permutation.identity(4), g])


def test_block_systems_requires_transitive():
    g = PermGroup([parse_cycles("(1,2)(3,4)", 4)])
    with pytest.raises(GroupError):
        g.block_systems()


def _reference_min_partition(group, seed):
    """The finest congruence with every point of seed in one part, by the
    pairwise union-find that block systems were once built from."""
    n = group.degree
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return None
        if rb < ra:
            ra, rb = rb, ra
        parent[rb] = ra
        return rb

    queue = [union(seed[0], p) for p in seed[1:]]
    queue = [gamma for gamma in queue if gamma is not None]
    while queue:
        gamma = queue.pop(0)
        delta = find(gamma)
        for g in group.generators:
            absorbed = union(g(gamma), g(delta))
            if absorbed is not None:
                queue.append(absorbed)
    groups = {}
    for p in range(1, n + 1):
        groups.setdefault(find(p), []).append(p)
    return tuple(sorted(tuple(part) for part in groups.values()))


def _reference_join(parts1, parts2):
    """The finest partition coarser than both, by a second union-find."""
    points = [p for part in parts1 for p in part]
    parent = {p: p for p in points}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for parts in (parts1, parts2):
        for part in parts:
            for p in part[1:]:
                a, b = find(part[0]), find(p)
                parent[max(a, b)] = min(a, b)
    groups = {}
    for p in points:
        groups.setdefault(find(p), []).append(p)
    return tuple(sorted(tuple(sorted(part)) for part in groups.values()))


def _reference_block_systems(group):
    """The parts of every nontrivial invariant partition: the minimal ones
    for {1, beta} closed under joins of all pairs until nothing changes,
    sorted as `block_systems` sorts them."""
    n = group.degree
    found = set()
    for beta in range(2, n + 1):
        parts = _reference_min_partition(group, (1, beta))
        if 1 < len(parts) < n:
            found.add(parts)
    changed = True
    while changed:
        changed = False
        for p1, p2 in itertools.combinations(sorted(found), 2):
            j = _reference_join(p1, p2)
            if 1 < len(j) < n and j not in found:
                found.add(j)
                changed = True
    return sorted(found, key=lambda parts: (len(parts[0]), parts))


def _cyclic(n):
    return PermGroup([Permutation([x % n + 1 for x in range(1, n + 1)])], degree=n)


def _dihedral(n):
    reflection = Permutation([1] + [n + 2 - x for x in range(2, n + 1)])
    return PermGroup(_cyclic(n).generators + (reflection,))


def _wreath(base, top):
    """The imprimitive wreath product base wr top on base.degree * top.degree
    points; copy j of the base acts on the points j*m + 1 .. j*m + m."""
    m, t = base.degree, top.degree
    gens = [Permutation([b(i) if j == 0 else j * m + i
                         for j in range(t) for i in range(1, m + 1)])
            for b in base.generators]
    gens += [Permutation([(s(j + 1) - 1) * m + i for j in range(t) for i in range(1, m + 1)])
             for s in top.generators]
    return PermGroup(gens)


def _z2(n):
    """The regular action of Z2^n on 2^n points: point p stands for the
    vector p - 1, and generator i adds the i-th unit vector."""
    return PermGroup([Permutation([(x ^ (1 << i)) + 1 for x in range(1 << n)])
                      for i in range(n)])


def _divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def _wreath_products():
    s2, s3 = _dihedral(2), _dihedral(3)
    return [_wreath(s2, s3), _wreath(_cyclic(3), _cyclic(2)), _wreath(_cyclic(2), _cyclic(4)),
            _wreath(s3, s3), _wreath(_cyclic(4), s3), _wreath(s2, _wreath(s2, s2))]


def test_block_systems_match_pairwise_join_reference():
    from ftdesigns.construct import coset_model_group

    for n in range(2, 31):
        systems = _cyclic(n).block_systems()
        assert len(systems) == _divisor_count(n) - 2, n
        assert [s.parts for s in systems] == _reference_block_systems(_cyclic(n)), n
    c3xc3 = PermGroup([parse_cycles("(1,2,3)(4,5,6)(7,8,9)", 9),
                       parse_cycles("(1,4,7)(2,5,8)(3,6,9)", 9)])
    groups = [_dihedral(n) for n in range(3, 21)] + [c3xc3] + _wreath_products() + [
        _shipped("d36")[0], _shipped("pg3")[0], coset_model_group(), _z2(4),
    ]
    for g in groups:
        assert [s.parts for s in g.block_systems()] == _reference_block_systems(g), g


def audited_skips(group):
    """Run `block_systems` and check that every part of a popped partition
    that it does not join with the part through 1 has, joined, the join of
    a part joined before it in the same pop, or the whole set; returns the
    systems and the number of skipped parts.  A pop is the calls on one
    list of part tables."""
    min_partition = perm._min_partition
    calls = []
    perm._min_partition = lambda *args: calls.append(args) or min_partition(*args)
    try:
        systems = group.block_systems()
    finally:
        perm._min_partition = min_partition
    pops = {}  # calls keeps each table list alive, so their ids stay distinct
    for degree, tables, seed in calls:
        assert seed[0] == 0 and len(seed) == 2, seed
        pops.setdefault(id(tables), (degree, tables, {}))[2][seed[1]] = None
    skips = 0
    for degree, tables, joined in pops.values():
        joins = [(j, min_partition(degree, tables, (0, j))) for j in joined]
        for j in range(1, degree):
            if j not in joined:
                classes = min_partition(degree, tables, (0, j))
                assert len(classes) == 1 or any(
                    i < j and classes == earlier for i, earlier in joins), (group, degree, j)
                skips += 1
    return systems, skips


def test_block_systems_skip_only_joins_the_minimal_blocks_decide():
    """The skips of `block_systems` pass `audited_skips`.  A wrong skip
    would leave the output as it is whenever the worklist reaches the lost
    system by another path, so the skips are audited one by one."""
    from ftdesigns.construct import coset_model_group

    groups = {"h1": _shipped("h1")[0], "h2": _shipped("h2")[0], "d36": _shipped("d36")[0],
              "pg3": _shipped("pg3")[0], "coset-model": coset_model_group()}
    groups.update(("C%d" % n, _cyclic(n)) for n in range(2, 31))
    groups.update(("D%d" % n, _dihedral(n)) for n in range(3, 21))
    groups.update(("wreath %d" % i, g) for i, g in enumerate(_wreath_products()))
    skips = {name: audited_skips(group)[1] for name, group in groups.items()}
    assert skips["h1"] == 1521 - 743 and skips["h2"] == 4704 - 1887
    assert sum(skips.values()) > skips["h1"] + skips["h2"]


@functools.cache
def _shipped(name):
    """(group, block systems) of a shipped transitive group."""
    from ftdesigns import construct

    group = {"d36": construct.twisted_diagonal_group,
             "pg3": construct.semilinear_group_15,
             "h1": lambda: construct.block_regular_group_96("h1"),
             "h2": lambda: construct.block_regular_group_96("h2")}[name]()
    return group, group.block_systems()


def test_block_systems_of_h1_and_h2_golden():
    """sha256 of the sorted parts of every system, as the pairwise join
    closure computed them."""
    want = {
        "h1": (111, "a52966cf034aecabf408a160be649e51fb4994e67f3511b87d32dbc7b4c5b6ba"),
        "h2": (248, "315ac3b4056c0f3b1080d69572616cdd37ddc64ad3cdbe6accad889cb2fa9135"),
    }
    for name, (count, digest) in want.items():
        parts = [s.parts for s in _shipped(name)[1]]
        assert len(parts) == count
        assert hashlib.sha256(repr(parts).encode()).hexdigest() == digest


def test_min_partition_matches_reference():
    """The inlined union-find roots the seed at seed[0]; the reference merges
    each seed point in turn, so repeated points and a seed[0] that is not the
    smallest are part of the comparison.  `_min_partition` runs on the point
    action, shifted to the points 0..n-1, and puts seed[0]'s class first."""
    from ftdesigns.construct import coset_model_group

    rng = random.Random(20)
    for group in (_shipped("h1")[0], _shipped("h2")[0], coset_model_group()):
        points = range(1, group.degree + 1)
        tables = [[x - 1 for x in g.images] for g in group.generators]
        seeds = [tuple(rng.sample(points, rng.randint(2, 10))) for _ in range(40)]
        seeds += [(p, q, p) for p, q in zip(rng.sample(points, 5), rng.sample(points, 5))]
        seeds += [(group.degree, 1), (group.degree, 2, 2, group.degree - 1), (5, 5)]
        for seed in seeds:
            classes = perm._min_partition(group.degree, tables, [p - 1 for p in seed])
            assert seed[0] - 1 in classes[0], seed
            assert all(cls == sorted(cls) for cls in classes), seed
            parts = tuple(sorted(tuple(p + 1 for p in cls) for cls in classes))
            assert parts == _reference_min_partition(group, seed), seed


def test_block_systems_call_count(monkeypatch):
    """The worklist joins the part through 1 with each other part of the
    discrete partition, n - 1 calls that give the minimal blocks
    Min(1, beta); then, in each system found, with one part per class of
    parts linked by a shared minimal block, and with none of a class that
    holds a point whose minimal block is the whole set.  Joining with
    every other part took n - 1 + sum(num_parts - 1) calls: 1,521 for H1
    and 4,704 for H2."""
    from ftdesigns import construct

    min_partition = perm._min_partition
    for name, want in (("h1", 743), ("h2", 1887)):
        group = construct.block_regular_group_96(name)
        n = group.degree
        calls = []
        monkeypatch.setattr(perm, "_min_partition",
                            lambda *args: calls.append(args) or min_partition(*args))
        systems = group.block_systems()
        assert len(calls) == want < n - 1 + sum(s.num_parts - 1 for s in systems)
        assert [args[0] for args in calls[:n - 1]] == [n] * (n - 1)
        assert all(args[0] < n for args in calls[n - 1:])


def _subspace_count(n):
    """The number of nontrivial proper subspaces of GF(2)^n: the sum of the
    Gaussian binomials [n, k]_2 for k = 1..n-1."""
    total = 0
    for k in range(1, n):
        num = den = 1
        for i in range(k):
            num *= 2 ** (n - i) - 1
            den *= 2 ** (k - i) - 1
        total += num // den
    return total


def test_block_systems_of_z2n_are_the_subspaces():
    """The block systems of the regular action of Z2^n are the cosets of the
    nontrivial proper subspaces.  Every block through 1 is closed under XOR
    (so a subspace, as it holds the zero vector), the other parts are its
    cosets, and the blocks are distinct and as many as the subspaces, so
    every subspace appears once."""
    for n, want in ((4, 65), (5, 372), (6, 2823)):
        systems = _z2(n).block_systems()
        assert len(systems) == want == _subspace_count(n), n
        blocks = set()
        for s in systems:
            block = frozenset(p - 1 for p in s.parts[0])
            assert 0 in block and all(x ^ y in block for x in block for y in block), s
            cosets = {tuple(sorted((x ^ v) + 1 for x in block)) for v in range(1 << n)}
            assert set(s.parts) == cosets, s
            blocks.add(block)
        assert len(blocks) == want, n


def test_block_systems_cap(monkeypatch):
    """More than MAX_BLOCK_SYSTEMS systems raise, naming the cap and the
    systems found so far; exactly that many are listed."""
    group = _shipped("h1")[0]
    monkeypatch.setattr(perm, "MAX_BLOCK_SYSTEMS", 111)
    assert len(group.block_systems()) == 111
    monkeypatch.setattr(perm, "MAX_BLOCK_SYSTEMS", 110)
    with pytest.raises(BlockSystemCapExceeded,
                       match="^111 block systems found, above the cap MAX_BLOCK_SYSTEMS = 110$"):
        group.block_systems()


def test_minimal_block_systems_match_sympy():
    """sympy's minimal block systems are the atoms of `block_systems`: the
    systems whose part through 1 contains no other system's part through 1."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    for name, atoms in (("d36", 2), ("pg3", 1), ("h1", 7), ("h2", 43)):
        group, systems = _shipped(name)
        firsts = [set(s.parts[0]) for s in systems]
        ours = {s.parts for s, first in zip(systems, firsts)
                if not any(other < first for other in firsts)}
        sympy_group = combinatorics.PermutationGroup(
            [combinatorics.Permutation([x - 1 for x in g.images]) for g in group.generators])
        theirs = set()
        for reps in sympy_group.minimal_blocks(randomized=False):
            parts = {}
            for point, rep in enumerate(reps, start=1):
                parts.setdefault(rep, []).append(point)
            theirs.add(tuple(sorted(tuple(part) for part in parts.values())))
        assert len(ours) == atoms, name
        assert ours == theirs, name


def test_products_and_inverses_match_validated():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(1, 20)
        p = Permutation(rng.sample(range(1, n + 1), n))
        q = Permutation(rng.sample(range(1, n + 1), n))
        assert p * q == Permutation([q(p(x)) for x in range(1, n + 1)])
        inv = p.inverse()
        assert inv == Permutation(sorted(range(1, n + 1), key=p))
        assert (p * inv).is_identity() and (p * inv) == Permutation.identity(n)
        assert p.is_identity() == (p.images == tuple(range(1, n + 1)))
    with pytest.raises(ValueError):
        Permutation([1, 1, 2])
    with pytest.raises(ValueError):
        parse_cycles("(1,2)", 3) * Permutation.identity(4)


def test_constructor():
    """A member among the generators leaves the order as it is, a
    non-member grows it, and the chain from a transposition and an 8-cycle
    is the symmetric group's."""
    six_cycle, swap = parse_cycles("(1,2,3,4,5,6)", 6), parse_cycles("(1,2)", 6)
    assert PermGroup([six_cycle, parse_cycles("(1,3,5)(2,4,6)", 6)]).order() == 6
    g = PermGroup([six_cycle, swap])
    assert g.order() == 720 and g.generators == (six_cycle, swap)
    assert g.contains(parse_cycles("(3,4)", 6))
    assert PermGroup([six_cycle, swap, parse_cycles("(3,4)", 6)]).order() == 720
    with pytest.raises(GroupError):
        g.sift(parse_cycles("(1,2)", 5))
    grown = PermGroup([parse_cycles("(1,2)", 8), parse_cycles("(1,2,3,4,5,6,7,8)", 8)])
    assert grown.order() == math.factorial(8)
    for _, orbit, transversal in grown.basic_orbits:
        assert set(transversal) == set(orbit)


def test_generators_of_mixed_degree_raise_group_error():
    with pytest.raises(GroupError, match="generator degree 5 does not match 6"):
        PermGroup([parse_cycles("(1,2)", 6), Permutation.identity(5)])
    with pytest.raises(GroupError, match="generator degree 5 does not match 6"):
        PermGroup([Permutation.identity(5)], degree=6)


@pytest.mark.parametrize("cycles", [
    ["(1,2,3,4,5,6)", "()"],  # the identity
    ["(1,2)", "(1,2,3,4,5,6)", "(1,2)"],  # a repeated generator
    ["(1,2)", "(2,3)", "(1,3,2)"],  # (1,2) * (2,3)
    ["(1,2,3)", "(1,3,2)", "(4,5)", "(1,2,3)(4,5)"],  # an inverse, then a product
])
def test_generators_are_the_input_tuple(cycles):
    gens = tuple(parse_cycles(c, 6) for c in cycles)
    g = PermGroup(gens)
    assert g.generators == gens
    assert parse_group_text(format_group_text(g)).generators == gens
    for member in (gens[-1], gens[0] * gens[-1], Permutation.identity(6)):
        assert g.contains(member)
        assert PermGroup(gens + (member,)).order() == g.order()


def test_orders_match_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    from ftdesigns.construct import (
        block_regular_group_96,
        coset_model_group,
        semilinear_group_15,
        twisted_diagonal_group,
    )

    def sympy_order(gens, degree):
        return combinatorics.PermutationGroup(
            [combinatorics.Permutation([g(x) - 1 for x in range(1, degree + 1)])
             for g in gens] or [combinatorics.Permutation(degree - 1)]).order()

    shipped = [twisted_diagonal_group(), coset_model_group(), semilinear_group_15(),
               block_regular_group_96("h1"), block_regular_group_96("h2")]
    for g in shipped:
        assert g.order() == sympy_order(g.generators, g.degree)
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(2, 12)
        gens = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:  # a product of few transpositions
                images = list(range(1, n + 1))
                for _ in range(rng.randint(1, 2)):
                    a, b = rng.sample(range(n), 2)
                    images[a], images[b] = images[b], images[a]
                gens.append(Permutation(images))
            else:
                gens.append(Permutation(rng.sample(range(1, n + 1), n)))
        want = sympy_order(gens, n)
        assert PermGroup(gens).order() == want
        assert PermGroup(gens[::-1]).order() == want


def test_group_file_round_trip():
    g = S6()
    text = format_group_text(g)
    assert text.splitlines()[0] == "degree 6"
    g2 = parse_group_text(text)
    assert g2.order() == 720
    assert g2.generators == g.generators


def test_group_file_errors():
    """Header errors are in test_file_header_grammar."""
    with pytest.raises(CycleParseError):
        parse_group_text("degree 4\n(1,9)\n")
    with pytest.raises(GroupError, match="group degree 5 does not match 4"):
        parse_group_text("degree 5\n(1,9)\n", degree=4)
    assert parse_group_text("degree 4\n(1,2,3,4)\n", degree=4).order() == 4


# Each file kind (the word its messages name): its parser, keyword, a body
# line, the key its results compare by and its error class.
_PARSERS = {
    "design": (parse_design_text, "v", "1 2", lambda d: d, DesignError),
    "group": (parse_group_text, "degree", "(1,2)", lambda g: (g.degree, g.generators),
              GroupError),
}
_MISSING_HEADER = "{kind} file must start with a '{kw} <n>' line"
_TOO_MANY_DIGITS = "{kw} " + "9" * 5000  # past int()'s default limit of 4,300 digits


@pytest.mark.parametrize("kind", sorted(_PARSERS))
@pytest.mark.parametrize("text, message", [
    pytest.param("\n\n{kw} 4\n\n{body}\n\n", None, id="blank-lines"),
    pytest.param("# c\n{kw} 4\n  # c\n{body}\n#", None, id="comment-lines"),
    pytest.param("\t{kw}\t4\t\n\t{body}\t\n \t\n", None, id="tabs"),
    pytest.param("{kw} 4\r\n\r\n{body}\r\n", None, id="crlf"),
    pytest.param("", _MISSING_HEADER, id="empty"),
    pytest.param("# c\n\n", _MISSING_HEADER, id="only-comments"),
    pytest.param("{body}\n", _MISSING_HEADER, id="missing-header"),
    pytest.param("{other} 4\n{body}\n", _MISSING_HEADER, id="wrong-keyword"),
    pytest.param("{kw}4\n{body}\n", _MISSING_HEADER, id="no-space"),
    pytest.param("{kw} x\n", _MISSING_HEADER, id="count-word"),
    pytest.param("{kw} -4\n", _MISSING_HEADER, id="count-negative"),
    pytest.param("{kw} +4\n", _MISSING_HEADER, id="count-plus"),
    pytest.param("{kw} 4.0\n", _MISSING_HEADER, id="count-float"),
    pytest.param("{kw} 1_0\n", _MISSING_HEADER, id="count-underscore"),
    pytest.param("{kw} 4 # four\n{body}\n", _MISSING_HEADER, id="header-comment"),
    pytest.param(_TOO_MANY_DIGITS + "\n", "bad header line: %r" % _TOO_MANY_DIGITS,
                 id="count-too-many-digits"),
])
def test_file_header_grammar(kind, text, message):
    """Design and group files share one grammar: stripped lines, blank and
    # lines dropped, then a '<keyword> <decimal n>' header; each parser
    raises its own error class with the same messages."""
    parse, kw, body, key, error = _PARSERS[kind]
    other = _PARSERS["group" if kind == "design" else "design"][1]
    text = text.format(kw=kw, body=body, other=other)
    if message is None:
        assert key(parse(text)) == key(parse("%s 4\n%s\n" % (kw, body)))
        return
    with pytest.raises(error) as info:
        parse(text)
    assert type(info.value) is error
    assert str(info.value) == message.format(kind=kind, kw=kw)


def test_perm_and_design_checks_survive_python_O(tmp_path):
    """The orbit-stabilizer check of `orbit_of_set` (an orbit length that
    does not divide the order), the two block-system checks, the Schreier-Sims
    placement check of `_complete` and the check that a flag orbit stays
    within the flags raise under `python -O`.  For the placement check, a patched sift hands
    `_complete` a residue that moves base point 1.  For the flag orbit,
    `design.flags` is cut to its first flag, so the orbit of that flag
    leaves the items `orbits_on` was given.  `python -O -m ftdesigns aut` on
    a pg 3 file prints its golden group."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ftdesigns.__file__)))
    code = r"""
from ftdesigns import design, perm
from ftdesigns.design import Design, flag_orbit_count
from ftdesigns.perm import PermGroup, Permutation
assert False, "python -O did not strip asserts"

def raises(fn, *args):
    try:
        fn(*args)
    except AssertionError:
        return True
    return False

def cyclic4():
    return PermGroup([Permutation([2, 3, 4, 1])], degree=4)

def joined_by(classes):  # block_systems of cyclic4, each join on 4 points giving classes
    def run():
        perm._min_partition = lambda degree, tables, seed: (
            classes if degree == 4 else [list(range(degree))])
        try:
            cyclic4().block_systems()
        finally:
            perm._min_partition = min_partition
    return run

min_partition = perm._min_partition
wrong_order = cyclic4()
wrong_order.order = lambda: 7  # the orbit length 4 does not divide it
unequal = joined_by([[0, 1, 2], [3]])
not_invariant = joined_by([[0, 1], [2, 3]])
misplaced = cyclic4()
residues = iter([(0, 2, 1, 3, 4)] * 2)  # the chain's form of (1,2), which moves base point 1
misplaced._sift_from = lambda i, h: next(residues, misplaced._identity)

def place_and_complete():
    misplaced._grow(misplaced._identity)
    misplaced._complete(0)

all_flags = design.flags
design.flags = lambda d: all_flags(d)[:1]
square = Design(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
print(raises(wrong_order.orbit_of_set, [1]),
      raises(unequal),
      raises(not_invariant),
      raises(place_and_complete),
      raises(flag_orbit_count, cyclic4(), square))
"""
    env = dict(os.environ, PYTHONPATH=src)
    # the patched sift gives two residues and then only the identity, so
    # without its placement check `_complete` still ends
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"] * 5
    path = tmp_path / "pg3-1.dsg"
    path.write_text(format_design_text(_relabeled(projective_design(3), 1)))
    proc = subprocess.run([sys.executable, "-O", "-m", "ftdesigns", "--format", "json",
                           "aut", str(path)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    del payload["elapsed_s"]
    want = GOLDEN_AUT[("pg3", 1)]
    assert payload == dict(want, schema="ftdesigns/1", command="aut",
                           num_generators=len(want["generators"]))
