import ast
import os
import pathlib
import subprocess
import sys
from itertools import permutations

import pytest

import ftdesigns
from ftdesigns.construct import (
    CONSTRUCTION_36_BASE_BLOCK,
    FrobeniusModel,
    BASE_BLOCKS_96,
    block_regular_group_96,
    construct_by_name,
    construction_36,
    construction_36_cosets,
    coset_model_group,
    gf4_line_partition,
    grid_coords,
    grid_index,
    orbit_design,
    projective_design,
    repair_h1_block1,
    semilinear_group_15,
    twisted_diagonal_group,
    design_96,
)
from ftdesigns.design import (
    Design,
    NotTwoDesignError,
    check_2_design,
    is_automorphism,
    is_flag_transitive,
)
from ftdesigns.perm import PermGroup, Permutation, parse_cycles
from test_perm import _closure


def test_grid_encoding():
    assert grid_index(1, 1) == 1
    assert grid_index(6, 6) == 36
    assert [grid_index(*ij) for ij in [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2),
                                       (3, 4), (4, 3), (4, 4)]] == \
        [1, 2, 7, 9, 14, 16, 21, 22]
    for p in range(1, 37):
        assert grid_index(*grid_coords(p)) == p
    with pytest.raises(ValueError, match=r"out of range: \(7, 1\)"):
        grid_index(7, 1)
    with pytest.raises(ValueError, match="grid point out of range: 0"):
        grid_coords(0)


def test_twisted_diagonal_group():
    g = twisted_diagonal_group()
    assert g.order() == 720
    assert g.orbit(1) == tuple(range(1, 37))
    systems = g.block_systems()
    assert [(s.part_size, s.num_parts) for s in systems] == [(6, 6), (6, 6)]
    rows = {tuple(range(6 * i + 1, 6 * i + 7)) for i in range(6)}
    cols = {tuple(range(j + 1, 37, 6)) for j in range(6)}
    assert {frozenset(s.parts) for s in systems} == \
        {frozenset(rows), frozenset(cols)}


def test_construction_36():
    d = construction_36()
    assert tuple(sorted(CONSTRUCTION_36_BASE_BLOCK)) in d.blocks
    assert check_2_design(d).as_tuple() == (36, 90, 8, 20, 4)
    g = twisted_diagonal_group()
    ok, _ = is_flag_transitive(g, d)
    assert ok and g.order() == 90 * 8  # flag-regular
    orbit = g.orbit_of_set(CONSTRUCTION_36_BASE_BLOCK)
    assert len(orbit) == 90 and g.order() // len(orbit) == 8  # block stabilizer order


def test_construction_36_cosets():
    d = construction_36_cosets()
    assert check_2_design(d).as_tuple() == (36, 90, 8, 20, 4)
    g = coset_model_group()
    ok, _ = is_flag_transitive(g, d)
    assert ok


def test_coset_triple_structure():
    model = FrobeniusModel()
    triples = model.triples()
    assert len(triples) == 45  # 15 letter pairs x 3 bisections; x2 ordered = 90 blocks
    x, xp, bisection = triples[0]
    p24, orbits, moved, invariant = model.triple_data(x, xp, bisection)
    assert len(p24) == 24
    assert sorted(len(o) for o in orbits) == [8, 8, 8]
    assert len(moved) == 2 and invariant not in moved
    # both normalizer-swapped orbits generate the same block set
    g = model.group()
    d1 = orbit_design(g, moved[0])
    d2 = orbit_design(g, moved[1])
    assert d1 == d2


def _conjugate_subgroup(subgroup, g):
    gi = g.inverse()
    return frozenset(gi * p * g for p in subgroup)


def _cyclic_closure(p):
    out = [Permutation.identity(p.degree)]
    q = p
    while not q.is_identity():
        out.append(q)
        q = q * p
    return frozenset(out)


class _ReferenceFrobeniusModel(FrobeniusModel):
    """The coset model as first built: each point is an order-20 normalizer
    found by scanning Sym(6), sorted by its smallest 5-cycle, and Sym(6)
    acts by conjugating all 20 of its elements.  ``triple_data`` takes the
    normalizer of each stabilizer from a scan of all 720 elements."""

    def __init__(self):
        s6 = [Permutation(images) for images in permutations(range(1, 7))]
        sylows = set()
        for g in s6:
            if g.order() == 5:
                sylows.add(_cyclic_closure(g))
        assert len(sylows) == 36
        frobs = []
        for syl in sylows:
            normalizer = frozenset(g for g in s6 if _conjugate_subgroup(syl, g) == syl)
            assert len(normalizer) == 20
            frobs.append((min(p.cycles()[0] for p in syl if p.order() == 5), normalizer))
        frobs.sort(key=lambda pair: pair[0])
        self.s6 = s6
        self.points = [normalizer for _, normalizer in frobs]
        self.index_of = {n: i + 1 for i, n in enumerate(self.points)}
        self.fixed_letter = {}
        for i, n in enumerate(self.points):
            fixed = [x for x in range(1, 7) if all(g(x) == x for g in n)]
            assert len(fixed) == 1
            self.fixed_letter[i + 1] = fixed[0]

    def induced(self, g):
        return Permutation(
            self.index_of[_conjugate_subgroup(self.points[i], g)] for i in range(36)
        )

    def triple_data(self, x, xp, bisection):
        """``FrobeniusModel.triple_data`` with the normalizer of the
        stabilizer found by scanning all of Sym(6)."""
        (z1, z2), (z3, z4) = bisection
        hgens6 = [
            parse_cycles("(%d,%d)" % (z1, z2), 6),
            parse_cycles("(%d,%d)" % (z3, z4), 6),
            parse_cycles("(%d,%d)(%d,%d)" % (z1, z3, z2, z4), 6),
        ]
        h6 = PermGroup(hgens6)
        assert h6.order() == 8
        h36 = PermGroup([self.induced(g) for g in hgens6])
        zset = {z1, z2, z3, z4}
        p24 = frozenset(pt for pt in range(1, 37) if self.fixed_letter[pt] in zset)
        assert len(p24) == 24
        orbits = [frozenset(o) for o in h36.orbits() if o[0] in p24]
        assert frozenset().union(*orbits) == p24
        assert sorted(len(o) for o in orbits) == [8, 8, 8]
        normalizer = [
            self.induced(g)
            for g in self.s6
            if all(h6.contains(g.inverse() * h * g) for h in hgens6)
        ]
        assert len(normalizer) == 16
        moved, invariant = [], []
        for orb in orbits:
            images = {g.image_of_set(orb) for g in normalizer}
            assert images <= set(orbits)
            (invariant if images == {orb} else moved).append(orb)
        assert len(invariant) == 1 and len(moved) == 2
        moved.sort(key=lambda o: tuple(sorted(o)))
        return p24, orbits, moved, invariant[0]


def test_coset_model_matches_brute_force_reference():
    model, ref = FrobeniusModel(), _ReferenceFrobeniusModel()
    # a point's name is the smallest 5-cycle of its normalizer
    assert [min(p.cycles()[0] for p in n if p.order() == 5) for n in ref.points] \
        == model.points
    assert model.fixed_letter == ref.fixed_letter
    for text in ("(1,2)", "(1,2,3,4,5,6)"):
        g = parse_cycles(text, 6)
        assert model.induced(g) == ref.induced(g)
    for triple in model.triples():
        assert model.triple_data(*triple) == ref.triple_data(*triple)


def test_triple_data_rejects_bad_letters():
    model = FrobeniusModel()
    for x, xp, bisection in [(1, 1, ((3, 4), (5, 6))), (1, 2, ((3, 4), (5, 7))),
                             (1, 2, ((3, 3), (5, 6)))]:
        with pytest.raises(ValueError):
            model.triple_data(x, xp, bisection)


def test_construct_checks_survive_python_O():
    """The group-order checks of `construct` (those of `PermGroup.of_order`),
    and its triple-structure and block-count checks, raise under
    `python -O`."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ftdesigns.__file__)))
    code = r"""
from ftdesigns import construct
from ftdesigns.perm import PermGroup, Permutation
assert False, "python -O did not strip asserts"

def raises(fn, *args):
    try:
        fn(*args)
    except AssertionError:
        return True
    return False

class OrderOne(PermGroup):
    def order(self):
        return 1

construct.PermGroup = OrderOne
checks = [raises(construct.twisted_diagonal_group),
          raises(construct.semilinear_group_15)]
construct.PermGroup = PermGroup
first = construct.FrobeniusModel.triples()[0]
trivial = construct.FrobeniusModel()
trivial.induced = lambda g: Permutation(range(1, 37))
one_letter = construct.FrobeniusModel()
one_letter.fixed_letter = dict.fromkeys(range(1, 37), 1)
# a point fixing letter 3 trades its letter with one fixing letter 1: 24
# points still fix a letter of the first bisection, but some orbit leaves them
leaky = construct.FrobeniusModel()
letters = leaky.fixed_letter = dict(leaky.fixed_letter)
inside = min(pt for pt in letters if letters[pt] == 3)
outside = min(pt for pt in letters if letters[pt] == 1)
letters[inside], letters[outside] = 1, 3
checks += [raises(trivial.group),
           raises(trivial.triple_data, *first),
           raises(one_letter.triple_data, *first),
           raises(leaky.triple_data, *first)]
orbit_design = construct.orbit_design
construct.orbit_design = lambda group, block: orbit_design(group, [1])
checks += [raises(construct.construction_36),
           raises(construct.construction_36_cosets)]
print(*checks)
"""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"] * 8


def test_package_has_no_bare_asserts():
    """`python -O` strips `assert` statements, so the package raises
    explicitly instead."""
    package = pathlib.Path(ftdesigns.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _package_nodes():
    """(file name, name of the innermost enclosing function or "<module>",
    node) for every AST node of the package."""
    package = pathlib.Path(ftdesigns.__file__).parent
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        functions = [(f.lineno, f.end_lineno, f.name) for f in ast.walk(tree)
                     if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            line = getattr(node, "lineno", 0)
            # the innermost enclosing function starts last
            enclosing = max((f for f in functions if f[0] <= line <= f[1]),
                            default=(0, 0, "<module>"))
            yield path.name, enclosing[2], node


def test_only_group_files_call_the_group_constructor():
    """Every group whose order the package knows is built by
    `PermGroup.of_order`, which checks the order, so only
    `parse_group_text`, for a group file of unknown order, calls
    `PermGroup(...)`."""
    callers = {"%s:%s" % (name, function) for name, function, node in _package_nodes()
               if isinstance(node, ast.Call) and getattr(
                   node.func, "id", getattr(node.func, "attr", None)) == "PermGroup"}
    assert callers == {"perm.py:parse_group_text"}


def test_of_order_builds_only_groups_of_known_order():
    """`PermGroup.of_order` builds Aut, to the order the search proves, and
    the construct groups, to the orders the paper gives; no setwise
    stabilizer or other subgroup is built, as orbit-stabilizer gives its
    order as |G| / |orbit|."""
    callers = {"%s:%s" % (name, function) for name, function, node in _package_nodes()
               if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "of_order"}
    assert callers == {"autgrp.py:automorphism_group", "construct.py:twisted_diagonal_group",
                       "construct.py:group", "construct.py:triple_data",
                       "construct.py:semilinear_group_15"}


def test_one_file_header_check_and_no_private_design_names_in_cli():
    """Design and group file headers are checked (`isdecimal`) only in the
    one reader, `perm._read_counted_lines`, and `cli.py` reads no private
    `design._*` name."""
    checks, private = set(), []
    for name, function, node in _package_nodes():
        if isinstance(node, ast.Attribute) and node.attr == "isdecimal":
            checks.add("%s:%s" % (name, function))
        if name != "cli.py":
            continue
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "design":
            private += [node.attr] if node.attr.startswith("_") else []
        if isinstance(node, ast.ImportFrom) and node.module == "design":
            private += [a.name for a in node.names if a.name.startswith("_")]
    assert checks == {"perm.py:_read_counted_lines"}
    assert private == []


def test_construct_groups_keep_their_generators(monkeypatch):
    """The five groups of known order that `construct` builds come from
    `PermGroup.of_order` and keep their listed generators, as each lies
    outside the group of those before it."""
    built = []
    of_order = PermGroup.of_order.__func__

    def recording(cls, candidates, order, degree):
        candidates = tuple(candidates)
        group = of_order(cls, candidates, order, degree)
        built.append((order, degree, candidates == group.generators))
        return group

    monkeypatch.setattr(PermGroup, "of_order", classmethod(recording))
    twisted_diagonal_group.__wrapped__()
    model = FrobeniusModel()
    model.group()
    for triple in model.triples():
        model.triple_data(*triple)
    semilinear_group_15.__wrapped__()
    assert built == ([(720, 36, True)] * 2 + [(8, 6, True), (16, 6, True)] * 45
                     + [(360, 15, True)])


def test_projective_design():
    d = projective_design(3)
    assert check_2_design(d).as_tuple() == (15, 15, 8, 8, 4)
    d5 = projective_design(5)
    assert check_2_design(d5).as_tuple() == (63, 63, 32, 32, 16)
    with pytest.raises(ValueError):
        projective_design(4)
    with pytest.raises(ValueError):
        projective_design(1)
    with pytest.raises(ValueError):
        projective_design(11)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_projective_design_matches_definition(n):
    """Block for block, the block of the functional w is {u : parity(u & w)
    = 1}, and all blocks share one int per point."""
    v = 2 ** (n + 1) - 1
    reference = [tuple(u for u in range(1, v + 1) if (u & w).bit_count() & 1)
                 for w in range(1, v + 1)]
    d = projective_design(n)
    assert d.v == v
    assert d.blocks == tuple(sorted(reference))
    assert all(type(blk) is tuple for blk in d.blocks)
    assert len({id(p) for blk in d.blocks for p in blk}) == v


def test_projective_pair_coverage_brute():
    d = projective_design(3)
    for a in range(1, 16):
        for b in range(a + 1, 16):
            assert sum(1 for blk in d.blocks if a in blk and b in blk) == 4


def test_projective_complements_are_hyperplane_design():
    # complementing every block recovers the classical point/hyperplane
    # design 2-(15,7,3)
    d = projective_design(3)
    comp = Design(15, [tuple(sorted(set(range(1, 16)) - set(blk)))
                       for blk in d.blocks])
    assert check_2_design(comp).as_tuple() == (15, 15, 7, 7, 3)


def test_semilinear_group():
    g = semilinear_group_15()
    assert g.order() == 360
    d = projective_design(3)
    for gen in g.generators:
        assert is_automorphism(d, gen)
    ok, _ = is_flag_transitive(g, d)
    assert ok
    systems = g.block_systems()
    assert len(systems) == 1
    assert (systems[0].part_size, systems[0].num_parts) == (3, 5)
    assert systems[0].parts == gf4_line_partition()


def test_block_regular_groups():
    for gid in ("h1", "h2"):
        g = block_regular_group_96(gid)
        assert g.degree == 96 and g.order() == 96
        assert len(g.generators) == 3
        assert g.is_transitive()
    with pytest.raises(ValueError, match="group_id must be"):
        block_regular_group_96("h3")


def test_design_96s():
    for gid in ("h1", "h2"):
        for bid in (1, 2):
            group, d = design_96(gid, bid)
            assert check_2_design(d).as_tuple() == (96, 96, 20, 20, 4)
            orbit = group.orbit_of_set(BASE_BLOCKS_96[(gid, bid)])
            assert len(orbit) == group.order() == 96  # block-regular
            for gen in group.generators:
                assert is_automorphism(d, gen)
    with pytest.raises(ValueError):
        design_96("h3", 1)


def test_repair_h1_block1():
    value, block, report = repair_h1_block1()
    assert value == 14
    assert block == BASE_BLOCKS_96[("h1", 1)]
    assert report[41].startswith("rejected")
    assert report[4].startswith("rejected")
    assert report[14].startswith("accepted")
    assert sum(1 for v in report.values() if v.startswith("accepted")) == 1


def test_orbit_design():
    g = twisted_diagonal_group()
    assert orbit_design(g, CONSTRUCTION_36_BASE_BLOCK) == construction_36()
    c5 = PermGroup([parse_cycles("(1,2,3,4,5)", 5)])
    d = orbit_design(c5, {1, 2})
    assert d.b == 5
    # the 5-cycle pair structure is not a 2-design (non-adjacent pairs are
    # uncovered), so verification rejects it
    with pytest.raises(NotTwoDesignError):
        check_2_design(d)
    s6 = PermGroup([parse_cycles("(1,2)", 6), parse_cycles("(1,2,3,4,5,6)", 6)])
    d = orbit_design(s6, {1, 2, 3})
    assert d.b == 20
    assert check_2_design(d).as_tuple() == (6, 20, 3, 10, 4)
    for bad in (set(), {0, 1}, {6, 7}):
        with pytest.raises(ValueError):
            orbit_design(s6, bad)


def test_orbit_design_matches_set_orbit():
    """The blocks of ``orbit_design`` are the images of the base block under
    every element of the group, listed by brute force (96 for H1 and H2,
    720 for the two actions of Sym(6)), for every built-in orbit design."""
    model = FrobeniusModel()
    cases = [(twisted_diagonal_group(), CONSTRUCTION_36_BASE_BLOCK),
             (coset_model_group(), model.triple_data(*model.triples()[0])[2][0])]
    cases += [(block_regular_group_96(gid), BASE_BLOCKS_96[(gid, bid)])
              for gid in ("h1", "h2") for bid in (1, 2)]
    for group, block in cases:
        elements = _closure(group.generators)
        assert len(elements) == group.order() == (720 if group.degree == 36 else 96)
        d = orbit_design(group, block)
        images = {h.image_of_set(block) for h in elements}
        assert {frozenset(blk) for blk in d.blocks} == images and d.b == len(images)
    assert orbit_design(*cases[1]) == construction_36_cosets()


def test_construct_by_name():
    assert construct_by_name(["d36"]) == construction_36()
    assert construct_by_name(["pg", "3"]) == projective_design(3)
    assert construct_by_name(["d96", "h2", "2"]).v == 96
    with pytest.raises(ValueError):
        construct_by_name(["nope"])
    with pytest.raises(ValueError):
        construct_by_name(["pg"])
    with pytest.raises(ValueError):
        construct_by_name(["d96", "h1", "3"])
    for tokens, message in (([], "missing construction name"),
                            (["d36", "x"], "d36 takes no arguments"),
                            (["d36-cosets", "x"], "d36-cosets takes no arguments")):
        with pytest.raises(ValueError, match=message):
            construct_by_name(tokens)


def test_coset_design_is_a_design_not_equal_to_grid_labeling():
    # same parameters, different labelings; isomorphism is checked in the
    # automorphism-module tests via canonical forms
    d1, d2 = construction_36(), construction_36_cosets()
    assert check_2_design(d1).as_tuple() == check_2_design(d2).as_tuple()
