import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from itertools import combinations, permutations
from math import comb, prod
from types import SimpleNamespace

import pytest

import ftdesigns
from ftdesigns import autgrp, design, feasibility
from ftdesigns.autgrp import automorphism_group
from ftdesigns.construct import (
    construction_36,
    grid_index,
    projective_design,
    semilinear_group_15,
    twisted_diagonal_group,
    design_96,
)
from ftdesigns.design import (
    Design,
    DesignError,
    GeneratorNotAutomorphism,
    MAX_POINTS,
    NotTwoDesignError,
    PointCapExceeded,
    check_2_design,
    flag_orbit_count,
    flags,
    format_design_text,
    intersection_profile,
    is_automorphism,
    is_flag_transitive,
    parse_design_text,
    tuple_of,
)
from ftdesigns.perm import BlockSystem, PermGroup, Permutation, parse_cycles


def naive_pair_check(d):
    """Brute-force 2-design oracle: counts pairs with dictionaries only."""
    ks = {len(b) for b in d.blocks}
    if len(ks) != 1:
        return None
    k = ks.pop()
    counts = {}
    for blk in d.blocks:
        for a, b in combinations(blk, 2):
            counts[(a, b)] = counts.get((a, b), 0) + 1
    values = {counts.get(pair, 0) for pair in combinations(range(1, d.v + 1), 2)}
    if len(values) != 1:
        return None
    lam = values.pop()
    if lam < 1:
        return None
    per_point = {}
    for blk in d.blocks:
        for p in blk:
            per_point[p] = per_point.get(p, 0) + 1
    rs = set(per_point.get(p, 0) for p in range(1, d.v + 1))
    if len(rs) != 1:
        return None
    return (d.v, d.b, k, rs.pop(), lam)


def test_design_normalization_and_errors():
    d = Design(4, [(2, 1), (3, 4)])
    assert d.blocks == ((1, 2), (3, 4))
    with pytest.raises(DesignError):
        Design(4, [(1, 2), (2, 1)])  # repeated block
    with pytest.raises(DesignError):
        Design(4, [(1, 5)])
    with pytest.raises(DesignError):
        Design(4, [()])
    with pytest.raises(DesignError, match="^permutation degree 35 != v 36$"):
        construction_36().relabel(Permutation.identity(35))


class _TupleSubclass(tuple):
    pass


def test_design_keeps_sorted_tuples():
    """A strictly ascending plain tuple is kept as the block itself; every
    other block is sorted into a new plain tuple."""
    kept = (1, 3, 4)
    d = Design(5, [(2, 5), kept])
    assert d.blocks == ((1, 3, 4), (2, 5)) and d.blocks[0] is kept
    given = [(4, 2, 1), _TupleSubclass((1, 2, 5)), [3, 4], frozenset({1, 5}),
             (p for p in (3, 2))]
    d = Design(5, given)
    assert d.blocks == ((1, 2, 4), (1, 2, 5), (1, 5), (2, 3), (3, 4))
    assert all(type(blk) is tuple for blk in d.blocks)
    assert not any(blk is given[0] or blk is given[1] for blk in d.blocks)


@pytest.mark.parametrize("blocks, message", [
    # the checks run block by block: repeated point, range, emptiness; then
    # the repeated-block check on the sorted list
    ([(1, 1, 9)], "block (1, 1, 9) has a repeated point"),
    ([(3, 1, 3)], "block (1, 3, 3) has a repeated point"),
    ([[2, 2]], "block (2, 2) has a repeated point"),
    ([(1, 9)], "block (1, 9) out of range 1..4"),
    ([(9, 1)], "block (1, 9) out of range 1..4"),
    ([(0, 2)], "block (0, 2) out of range 1..4"),
    ([(1, 2), (5, 6, 6)], "block (5, 6, 6) has a repeated point"),
    ([()], "empty block"),
    ([[]], "empty block"),
    ([(1, 2), (), (1, 5)], "empty block"),
    ([(1, 2), (2, 1)], "repeated block (1, 2) (designs here are simple)"),
    ([(2, 3), [3, 2], (1, 2), (2, 1)], "repeated block (1, 2) (designs here are simple)"),
    ([(1, 2), (1, 2), (5,)], "block (5,) out of range 1..4"),
])
def test_design_errors_and_their_order(blocks, message):
    with pytest.raises(DesignError) as err:
        Design(4, blocks)
    assert str(err.value) == message


def test_check_2_design_golden():
    complete = Design(4, combinations(range(1, 5), 2))
    params = check_2_design(complete)
    assert params.as_tuple() == (4, 6, 2, 3, 1)
    assert not params.nontrivial
    assert check_2_design(construction_36()).as_tuple() == (36, 90, 8, 20, 4)
    assert check_2_design(projective_design(3)).as_tuple() == (15, 15, 8, 8, 4)


def _without_block(d, j):
    return Design(d.v, d.blocks[:j] + d.blocks[j + 1:])


def test_check_2_design_failures():
    """Each reachable failure, with its exact (condition, witness)."""
    pg5 = projective_design(5)
    _, d96 = design_96("h1", 1)
    cases = [
        (Design(4, [(1, 2), (1, 2, 3)]),
         "non-constant-block-size", ((1, 2), (1, 2, 3))),
        (Design(1, [(1,)]), "fewer-than-two-points", None),
        (Design(3, [(1,), (2,), (3,)]), "uncovered-pair", (1, 2)),
        (Design(4, [(1, 2), (1, 3), (3, 4)]),
         "non-constant-pair-coverage", ((1, 2, 1), (1, 4, 0))),
        # the first under-covered pair is the first pair of the removed block
        (_without_block(pg5, pg5.b - 1),
         "non-constant-pair-coverage", ((1, 2, 16), (32, 33, 15))),
        (_without_block(d96, d96.b - 1),
         "non-constant-pair-coverage", ((1, 2, 4), (21, 27, 3))),
    ]
    for d, condition, witness in cases:
        with pytest.raises(NotTwoDesignError) as err:
            check_2_design(d)
        assert (err.value.condition, err.value.witness) == (condition, witness)


def test_point_cap():
    """Above MAX_POINTS the pair check and the automorphism search refuse a
    design before building any table of v entries; at the cap both run."""
    from ftdesigns.autgrp import automorphism_group

    blocks = [(1, 2, 3), (1, 4, 5), (2, 4, 6)]
    for fn in (check_2_design, automorphism_group):
        with pytest.raises(PointCapExceeded, match="cap MAX_POINTS = %d" % MAX_POINTS):
            fn(Design(MAX_POINTS + 1, blocks))
    with pytest.raises(NotTwoDesignError, match="non-constant-pair-coverage"):
        check_2_design(Design(MAX_POINTS, blocks))
    assert check_2_design(projective_design(9)).v == 1023 < MAX_POINTS


def test_check_2_design_without_numpy():
    """The package imports and checks a design with numpy unavailable."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ftdesigns.__file__)))
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from ftdesigns import check_2_design, projective_design\n"
        "print(check_2_design(projective_design(3)).as_tuple())\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "(15, 15, 8, 8, 4)"


def test_oracle_equivalence_small_designs():
    rng = random.Random(2024)
    agree = 0
    for _ in range(300):
        v = rng.randint(4, 20)
        k = rng.randint(2, max(2, v // 2))
        nblocks = rng.randint(2, 14)
        pool = list(combinations(range(1, v + 1), k))
        if nblocks > len(pool):
            continue
        d = Design(v, rng.sample(pool, nblocks))
        expected = naive_pair_check(d)
        try:
            got = check_2_design(d).as_tuple()
        except NotTwoDesignError:
            got = None
        assert got == expected
        if expected is not None:
            agree += 1
    # the sample must include genuine 2-designs for the check to be meaningful
    assert agree >= 1


def test_oracle_equivalence_on_real_designs():
    for d in (construction_36(), projective_design(3), projective_design(5),
              design_96("h2", 1)[1]):
        assert naive_pair_check(d) == check_2_design(d).as_tuple()


def test_flags_counts():
    assert len(flags(construction_36())) == 720
    assert len(flags(projective_design(3))) == 120
    assert len(flags(Design(2, [(1, 2)]))) == 2
    d = projective_design(3)
    for point, j in flags(d)[:20]:
        assert point in d.blocks[j]


def test_is_automorphism():
    d = construction_36()
    g = twisted_diagonal_group()
    for gen in g.generators:
        assert is_automorphism(d, gen)
    assert is_automorphism(d, Permutation.identity(36))
    swap = Permutation(
        [grid_index(j, i) for i in range(1, 7) for j in range(1, 7)]
    )
    assert not is_automorphism(d, swap)


def test_flag_transitivity():
    d = construction_36()
    g = twisted_diagonal_group()
    ok, norbits = is_flag_transitive(g, d)
    assert ok and norbits == 1
    assert g.order() == len(flags(d))  # flag-regular
    # index-2 even-word subgroup is block-transitive but has 2 flag orbits
    a1, a2 = g.generators
    sub = PermGroup([a1 * a2, a2 * a1])
    assert sub.order() == 360
    ok, norbits = is_flag_transitive(sub, d)
    assert not ok and norbits == 2
    # trivial group on any design with >= 2 flags
    triv = PermGroup([Permutation.identity(36)])
    ok, norbits = is_flag_transitive(triv, d)
    assert not ok and norbits == len(flags(d))


def reference_block_images(d):
    """A frozenset oracle for the design layer's block images
    (`perm._mask_images` through `Design.block_index`): returns a function
    that takes a permutation p and gives the index of each block's image
    under p, in block order, or None when p's degree is not v or p carries
    some block onto a set that is not a block."""
    index = {frozenset(blk): j for j, blk in enumerate(d.blocks)}

    def images(p):
        if p.degree != d.v:
            return None
        found = []
        for blk in d.blocks:
            found.append(index.get(frozenset(map(p, blk))))
            if found[-1] is None:
                return None
        return found
    return images


def _reference_flag_orbit_count(g, d):
    """Flag orbits counted by a union-find over the flags (p, j), p in block
    j, that joins each flag with its image (gen(p), table[j]) under every
    generator, its block table taken from `reference_block_images`; no
    `closure`, `orbits_on` or mask image is used."""
    carries = reference_block_images(d)
    parent = {(p, j): (p, j) for j, blk in enumerate(d.blocks) for p in blk}

    def root(flag):
        while parent[flag] != flag:
            parent[flag] = flag = parent[parent[flag]]
        return flag

    for gen in g.generators:
        table = carries(gen)
        if table is None:
            raise GeneratorNotAutomorphism(gen)
        for p, j in list(parent):
            a, b = root((p, j)), root((gen(p), table[j]))
            if a != b:
                parent[max(a, b)] = min(a, b)
    return sum(1 for flag in parent if parent[flag] == flag)


def _random_subgroup(rng, group):
    """The subgroup generated by two random words in the generators."""
    words = []
    for _ in range(2):
        word = Permutation.identity(group.degree)
        for _ in range(rng.randrange(1, 6)):
            word = word * rng.choice(group.generators)
        words.append(word)
    return PermGroup(words)


def test_flag_orbit_count_matches_reference():
    d36, pg3 = construction_36(), projective_design(3)
    cases = [(twisted_diagonal_group(), d36), (semilinear_group_15(), pg3)]
    cases += [design_96(h, j) for h in ("h1", "h2") for j in (1, 2)]
    cases += [(automorphism_group(d).group, d) for _, d in list(cases)]
    a1, a2 = twisted_diagonal_group().generators
    cases.append((PermGroup([a1 * a2, a2 * a1]), d36))
    cases.append((PermGroup([], degree=36), d36))
    rng = random.Random(5)
    for d in (d36, pg3, design_96("h2", 1)[1]):
        full = automorphism_group(d).group
        cases += [(_random_subgroup(rng, full), d) for _ in range(4)]
    counts = []
    for g, d in cases:
        got = flag_orbit_count(g, d)
        assert got == _reference_flag_orbit_count(g, d)
        counts.append(got)
    assert counts[:6] == [1, 1, 20, 20, 20, 20]
    assert counts[12:14] == [2, 720]
    assert len(set(counts[14:])) > 1, counts


def test_flag_orbit_count_rejects_non_automorphisms():
    d = construction_36()
    for gen in (Permutation.identity(35), Permutation.identity(37),
                Permutation(list(range(2, 37)) + [1]), parse_cycles("(1,2)", 36)):
        with pytest.raises(GeneratorNotAutomorphism):
            flag_orbit_count(PermGroup([gen]), d)


def check_block_images(d, perms):
    """`is_automorphism` and the block tables that `flag_orbit_count` hands
    to `orbits_on` agree with `reference_block_images` on every p in
    perms; a p that is not an automorphism raises GeneratorNotAutomorphism,
    with the degree message when its degree is not v.  Returns how many of
    perms are automorphisms."""
    carries = reference_block_images(d)
    tables = []
    found = 0
    with pytest.MonkeyPatch.context() as m:
        m.setattr(design, "orbits_on", lambda items, t, action: tables.extend(t) or [])
        for p in perms:
            want = carries(p)
            assert is_automorphism(d, p) == (want is not None)
            group = SimpleNamespace(generators=[p])  # flag_orbit_count reads only these
            if want is None:
                message = "has degree" if p.degree != d.v else "does not preserve"
                with pytest.raises(GeneratorNotAutomorphism, match=message):
                    flag_orbit_count(group, d)
                continue
            tables.clear()
            flag_orbit_count(group, d)
            assert tables == [((0,) + p.images, want)]
            found += 1
    return found


def test_block_images_match_the_frozenset_reference(monkeypatch):
    """Every permutation the automorphism search tests on d36, pg 3 and
    d96 h1/1, the generators it returns and words in them, and seeded
    random permutations (none of them automorphisms) of degree v - 1, v
    and v + 1."""
    rng = random.Random(27)
    for d in (construction_36(), projective_design(3), design_96("h1", 1)[1]):
        tested = []
        with monkeypatch.context() as m:
            m.setattr(autgrp, "is_automorphism",
                      lambda x, p, _test=autgrp.is_automorphism: tested.append(p) or _test(x, p))
            gens = automorphism_group(d).group.generators
        assert tested and check_block_images(d, tested) >= len(gens)
        words = [prod(rng.choices(gens, k=5), start=Permutation.identity(d.v))
                 for _ in range(20)]
        assert check_block_images(d, list(gens) + words) == len(gens) + len(words)
        for n in (d.v - 1, d.v, d.v + 1):
            perms = [Permutation(rng.sample(range(1, n + 1), n)) for _ in range(20)]
            assert check_block_images(d, perms) == 0


def test_block_images_with_a_point_in_no_block():
    """Points 4 and 5 lie in no block of this triangle: every permutation
    of the five points that maps {4, 5} onto itself is an automorphism."""
    d = Design(5, [(1, 2), (1, 3), (2, 3)])
    perms = [Permutation(images) for images in permutations(range(1, 6))]
    assert check_block_images(d, perms) == 12
    for n in (4, 6):
        assert check_block_images(d, [Permutation.identity(n)]) == 0


def test_flag_transitive_implies_point_and_block_transitive():
    d = construction_36()
    g = twisted_diagonal_group()
    ok, _ = is_flag_transitive(g, d)
    assert ok
    assert g.is_transitive()
    assert len(g.orbit_of_set(d.blocks[0])) == d.b


def test_flag_transitivity_requires_automorphisms():
    d = construction_36()
    bad = PermGroup([parse_cycles("(1,2)", 36)])
    with pytest.raises(GeneratorNotAutomorphism):
        is_flag_transitive(bad, d)


def test_intersection_profile():
    d = construction_36()
    g = twisted_diagonal_group()
    for system in g.block_systems():
        prof = intersection_profile(d, system)
        assert prof.constant and prof.ell == 2 and prof.parts_met_per_block == 4
    d15 = projective_design(3)
    s15 = semilinear_group_15()
    prof = intersection_profile(d15, s15.block_systems()[0])
    assert prof.constant and prof.ell == 2 and prof.parts_met_per_block == 4
    # degenerate: blocks inside single parts give ell = k
    c4 = PermGroup([parse_cycles("(1,2,3,4)", 4)])
    prof = intersection_profile(Design(4, [(1, 3), (2, 4)]), c4.block_systems()[0])
    assert prof.constant and prof.ell == 2 and prof.parts_met_per_block == 1


def test_intersection_profile_non_constant():
    c4 = PermGroup([parse_cycles("(1,2,3,4)", 4)])
    prof = intersection_profile(Design(4, [(1, 3), (1, 2)]), c4.block_systems()[0])
    # (block index, part index, size, ell): block (1, 3) is part {1, 3}
    assert not prof.constant and prof.witness == (1, 0, 2, 1)


def test_intersection_profile_of_a_design_without_blocks():
    c4 = PermGroup([parse_cycles("(1,2,3,4)", 4)])
    with pytest.raises(DesignError, match="^design has no blocks$"):
        intersection_profile(Design(4, []), c4.block_systems()[0])
    with pytest.raises(DesignError, match="partition degree"):  # checked first
        intersection_profile(Design(5, []), c4.block_systems()[0])


def test_tuple_of_golden():
    d = construction_36()
    g = twisted_diagonal_group()
    for system in g.block_systems():
        t = tuple_of(d, g, system)
        assert (t.lam, t.v, t.k, t.r, t.b, t.c, t.d, t.ell) == (4, 36, 8, 20, 90, 6, 6, 2)
        assert t.x == 1
    t = tuple_of(projective_design(3), semilinear_group_15(),
                 semilinear_group_15().block_systems()[0])
    assert (t.lam, t.v, t.k, t.r, t.b, t.c, t.d, t.ell) == (4, 15, 8, 8, 15, 3, 5, 2)
    # x = k-1-d(ell-1) = 2, and block-size-split holds: k = xc+ell = 2*3+2
    assert t.x == 2


def test_tuple_of_rejects_partition_of_wrong_degree():
    """A partition of 6 points against a 4-point design is a DesignError,
    raised before the invariance test reads points the group does not move."""
    k4 = Design(4, combinations(range(1, 5), 2))
    sym4 = PermGroup([parse_cycles("(1,2)", 4), parse_cycles("(1,2,3,4)", 4)])
    six = BlockSystem(6, [(1, 2), (3, 4), (5, 6)])
    with pytest.raises(DesignError, match=r"partition degree 6 != v 4"):
        tuple_of(k4, sym4, six)


def test_tuple_of_rejects_a_partition_the_group_moves():
    """Six parts of six that are not the grid's rows or columns: the twisted
    group is flag-transitive on d36, but it does not keep the partition."""
    swapped = [(1, 2, 3, 4, 5, 7), (6, 8, 9, 10, 11, 12)]
    parts = swapped + [range(i, i + 6) for i in (13, 19, 25, 31)]
    with pytest.raises(DesignError, match="partition is not invariant"):
        tuple_of(construction_36(), twisted_diagonal_group(), BlockSystem(36, parts))


def test_assemble_tuple_names_block_size_split():
    """c = 9 does not divide k - ell = 6, so no x gives k = xc + ell."""
    params = check_2_design(construction_36())
    nine = BlockSystem(36, [range(i, i + 9) for i in (1, 10, 19, 28)])
    with pytest.raises(DesignError,
                       match="feasibility condition failed: .*block-size-split"):
        design.assemble_tuple(params, nine, 2)


def test_check_2_design_reads_conditions_by_name(monkeypatch):
    """check_2_design evaluates feasibility.CONDITIONS, not its own copy."""
    monkeypatch.setitem(feasibility.CONDITIONS, "flag-count", lambda t: False)
    with pytest.raises(NotTwoDesignError) as err:
        check_2_design(construction_36())
    assert err.value.condition == "flag-count"
    assert err.value.witness.as_tuple() == (36, 90, 8, 20, 4)


def test_96_point_profiles():
    group, d = design_96("h1", 2)
    ok, _ = is_flag_transitive(group, d)
    assert not ok  # |H| = 96 < 1920 flags, so H cannot be flag-transitive
    good = [s for s in group.block_systems()
            if s.part_size == 16 and intersection_profile(d, s).constant]
    assert good and all(intersection_profile(d, s).ell == 4 for s in good)
    # tuple_of requires flag-transitivity
    with pytest.raises(DesignError):
        tuple_of(d, group, good[0])


def test_counting_identities():
    for d in (construction_36(), projective_design(3)):
        params = check_2_design(d)
        assert d.b * comb(params.k, 2) == params.lam * comb(params.v, 2)
        for p in range(1, d.v + 1):
            assert sum(1 for blk in d.blocks if p in blk) == params.r


def test_design_file_round_trip():
    d = construction_36()
    text = format_design_text(d)
    assert text.splitlines()[0] == "v 36"
    assert parse_design_text(text) == d
    with pytest.raises(DesignError):  # header errors: test_file_header_grammar
        parse_design_text("v 4\n1 x\n")


def test_format_rejects_points_that_are_not_ints():
    """`Design` keeps 1.5 and True as points, but their spellings would not
    parse, so formatting them raises."""
    for point in (1.5, True):
        d = Design(3, [(point, 2)])
        assert d.blocks[0][0] is point
        with pytest.raises(DesignError, match="point %r is not an int" % point):
            format_design_text(d)
    with pytest.raises(DesignError):
        parse_design_text("v 3\n1.5 2\n")


def odd_spelling(d):
    """The design file of d with each point spelled one of five ways int()
    accepts: "7", "07", "+7", fullwidth "７" and "0_7" (or "1_2" for 12)."""
    def spell(p, i):
        s = str(p)
        return (s, "0" + s, "+" + s,
                "".join(chr(0xFF10 + int(c)) for c in s),
                s[0] + "_" + s[1:] if p >= 10 else "0_" + s)[i % 5]

    lines = ["v %d" % d.v]
    lines.extend(" ".join(spell(p, i + j) for i, p in enumerate(blk))
                 for j, blk in enumerate(d.blocks))
    return "\n".join(lines) + "\n"


def _int_reference_parse(text):
    """Blocks read with one int() per token, as the parser did before its
    lookup table."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    return Design(int(lines[0].split()[1]),
                  [tuple(int(tok) for tok in ln.split()) for ln in lines[1:]])


def test_parse_accepts_every_int_spelling():
    text = "v 12\n01 +2 ３ 1_0\n1 2 3 10 11\n+11 0_12 ０７\n"
    d = parse_design_text(text)
    assert d == _int_reference_parse(text)
    assert d.blocks == ((1, 2, 3, 10), (1, 2, 3, 10, 11), (7, 11, 12))
    for canonical in (construction_36(), projective_design(5)):
        odd = odd_spelling(canonical)
        assert odd != format_design_text(canonical)
        assert parse_design_text(odd) == _int_reference_parse(odd) == canonical


def test_parse_errors_survive_the_lookup_table():
    for token in ("1.5", "x", "--3", "1__0", "_1"):
        with pytest.raises(DesignError, match="bad block line: '1 %s'" % token):
            parse_design_text("v 4\n1 %s\n" % token)
    for line in ("0 1", "1 5", "1 05"):
        with pytest.raises(DesignError, match=r"out of range 1\.\.4"):
            parse_design_text("v 4\n%s\n" % line)


def test_parse_points_above_the_table():
    """The lookup table stops at MAX_POINTS (a huge header stays cheap, see
    test_huge_design_hits_the_point_cap); points above it are read by int()
    and refused by the point cap later."""
    v = 3 * MAX_POINTS
    d = parse_design_text("v %d\n1 2\n%d %d\n" % (v, MAX_POINTS + 1, v))
    assert d.blocks == ((1, 2), (MAX_POINTS + 1, v))
    with pytest.raises(PointCapExceeded):
        check_2_design(d)


def test_parsed_blocks_share_point_objects():
    d = parse_design_text(format_design_text(projective_design(9)))
    first = {p: p for p in d.blocks[0]}
    shared = [p for blk in d.blocks[1:] for p in blk if p > 256 and p in first]
    assert shared and all(p is first[p] for p in shared)


def test_block_index_is_built_lazily():
    d = projective_design(5)
    twin = Design(d.v, d.blocks)
    assert d._block_index is None
    check_2_design(d)
    assert d._block_index is None
    index = d.block_index
    # block j's mask, as a binary numeral with point v's digit first
    assert list(index.items()) == [
        (int("".join("1" if p in blk else "0" for p in range(d.v, 0, -1)), 2), j)
        for j, blk in enumerate(d.blocks)]
    assert d.block_index is index
    assert "_block_index" not in {f.name for f in fields(d)}
    # the cache takes no part in ==, hash or repr, built or not
    assert d == twin and hash(d) == hash(twin) and repr(d) == repr(twin)
    assert twin.block_index == index and twin.block_index is not index
    assert d == twin and hash(d) == hash(twin) and repr(d) == repr(twin)
    for name in ("v", "blocks", "_block_index", "other"):
        with pytest.raises(AttributeError):
            setattr(d, name, None)
    assert d.block_index is index


def _peak_mib(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_parse_and_check_pg9_memory():
    """Reading and checking pg 9 peaks at 6.2 MiB: one copy of the blocks,
    sharing one int per point (10.3 MiB when ``Design`` copied every block,
    52.8 MiB when every token had its own int and the block set was built
    eagerly)."""
    text = format_design_text(projective_design(9))
    peak = _peak_mib(lambda: check_2_design(parse_design_text(text)))
    assert peak < 6.5


def test_projective_design_memory():
    """Building pg 9 peaks at 4.3 MiB: its 523,776 incidences share one int
    per point (20.1 MiB with an int per incidence and a copy of every
    block)."""
    assert _peak_mib(projective_design, 9) < 5


def test_point_rows_buffer_is_chunked():
    """The complete 2-(300,2,1) design has 44,850 blocks; its point rows
    are built chunk by chunk (an unchunked buffer peaks at 14.6 MiB)."""
    d = Design(300, combinations(range(1, 301), 2))
    assert d.b > design._ROW_CHUNK
    assert _peak_mib(check_2_design, d) < 8


def test_automorphism_test_memory():
    """The automorphism test on pg 7 (255 points and blocks) builds one
    mask per block: 41 KiB at its peak, against 2,113 KiB for a block set
    of frozensets."""
    d, p = projective_design(7), Permutation.identity(255)
    assert _peak_mib(is_automorphism, d, p) * 1024 < 256


def _reference_point_rows(d):
    rows = [0] * d.v
    for j, blk in enumerate(d.blocks):
        for p in blk:
            rows[p - 1] |= 1 << j
    return rows


@pytest.mark.parametrize("chunk", [1, 7, 8, 9])
def test_point_rows_in_chunks(monkeypatch, chunk):
    monkeypatch.setattr(design, "_ROW_CHUNK", chunk)
    test_check_2_design_failures()
    for d in (projective_design(5), construction_36(), Design(3, [(1, 2)])):
        assert design._point_rows(d) == _reference_point_rows(d)
    for d in (projective_design(5), construction_36()):
        assert check_2_design(d).as_tuple() == naive_pair_check(d)
