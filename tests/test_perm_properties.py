"""Property tests of `PermGroup` on generated groups of degree 2 to 10:
orders, membership of generator words and of arbitrary permutations, and
one more generator growing the group exactly for non-members, all against
sympy, for chains built by the constructor and by `of_order` from sympy's
order; and the completeness of the stabilizer chain for every prefix of
the generators.  Block systems of relabeled imprimitive wreath products,
and of the transitive groups that random elements of them generate,
against the pairwise join closure.  Also: a failing property test fails
the run as a test."""

import subprocess
import sys
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
combinatorics = pytest.importorskip("sympy.combinatorics")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from ftdesigns.perm import PermGroup, Permutation, closure  # noqa: E402
from test_perm import (_cyclic, _dihedral, _reference_block_systems, _wreath,  # noqa: E402
                       assert_chain_complete, audited_skips)

# Under 1 s for the module on a 2-core host; the slowest example, S_10
# built by both libraries, takes a few milliseconds.  Derandomized and
# without an example database, so every run checks the same examples and
# writes no files.
PROPERTY_SETTINGS = settings(max_examples=60, deadline=500, derandomize=True,
                             database=None)


@st.composite
def groups(draw):
    """(degree, generators, words): up to four generators of a degree from
    2 to 10, and a few words in them as lists of generator indices."""
    n = draw(st.integers(2, 10))
    perm = st.permutations(range(1, n + 1)).map(Permutation)
    gens = draw(st.lists(perm, max_size=4))
    word = st.lists(st.integers(0, len(gens) - 1), min_size=1, max_size=8)
    words = draw(st.lists(word, max_size=4)) if gens else []
    return n, gens, words


def _sympy_group(gens, n):
    return combinatorics.PermutationGroup(
        [_sympy_perm(g) for g in gens] or [combinatorics.Permutation(n - 1)])


def _sympy_perm(g):
    return combinatorics.Permutation([x - 1 for x in g.images])


def _product(gens, word):
    out = gens[word[0]]
    for i in word[1:]:
        out = out * gens[i]
    return out


@PROPERTY_SETTINGS
@given(groups(), st.data())
def test_order_and_contains_match_sympy(group, data):
    n, gens, words = group
    g = PermGroup(gens, degree=n)
    reference = _sympy_group(gens, n)
    assert g.order() == reference.order()
    for word in words:
        assert g.contains(_product(gens, word))
    for _ in range(3):
        p = Permutation(data.draw(st.permutations(range(1, n + 1))))
        assert g.contains(p) == reference.contains(_sympy_perm(p))


@PROPERTY_SETTINGS
@given(groups(), st.data())
def test_one_more_generator_grows_exactly_for_non_members(group, data):
    n, gens, words = group
    candidates = [_product(gens, word) for word in words]
    candidates.append(Permutation(data.draw(st.permutations(range(1, n + 1)))))
    g = PermGroup(gens, degree=n)
    for p in candidates:
        member = _sympy_group(g.generators, n).contains(_sympy_perm(p))
        assert g.contains(p) == member
        grown = PermGroup(g.generators + (p,), degree=n)
        assert (grown.order() == g.order()) == member
        assert grown.order() == _sympy_group(grown.generators, n).order()
        g = grown


@PROPERTY_SETTINGS
@given(groups())
def test_chain_is_complete_for_each_prefix_of_the_generators(group):
    n, gens, _ = group
    for k in range(len(gens) + 1):
        assert_chain_complete(PermGroup(gens[:k], degree=n))


@PROPERTY_SETTINGS
@given(groups(), st.data())
def test_chain_built_to_a_known_order_matches_sympy(group, data):
    """`of_order` with sympy's order gives a complete chain that agrees
    with sympy on membership."""
    n, gens, words = group
    reference = _sympy_group(gens, n)
    g = PermGroup.of_order(gens, reference.order(), n)
    assert g.order() == reference.order()
    assert_chain_complete(g)
    for word in words:
        assert g.contains(_product(gens, word))
    for _ in range(3):
        p = Permutation(data.draw(st.permutations(range(1, n + 1))))
        assert g.contains(p) == reference.contains(_sympy_perm(p))


# imprimitive wreath products base wr top of degree 4 to 16
WREATH_PRODUCTS = [_wreath(base, top) for base, top in (
    (_cyclic(2), _cyclic(2)), (_dihedral(3), _cyclic(2)), (_cyclic(3), _dihedral(3)),
    (_cyclic(2), _cyclic(8)), (_cyclic(4), _cyclic(4)), (_cyclic(3), _cyclic(4)),
    (_cyclic(2), _dihedral(4)), (_cyclic(2), _wreath(_cyclic(2), _cyclic(2))))]


@PROPERTY_SETTINGS
@given(st.sampled_from(WREATH_PRODUCTS), st.data())
def test_block_systems_of_relabeled_wreath_products_match_the_join_closure(group, data):
    """A wreath product relabeled by a random permutation, and the group
    that random elements of the relabeled product generate, have the block
    systems of the pairwise join closure, and every join they skip passes
    `audited_skips`.  Elements are drawn until they generate a transitive
    group, at most six."""
    n = group.degree
    relabel = Permutation(data.draw(st.permutations(range(1, n + 1))))
    conjugate = PermGroup([relabel.inverse() * g * relabel for g in group.generators])
    assert conjugate.order() == group.order()
    systems, _ = audited_skips(conjugate)
    assert [s.parts for s in systems] == _reference_block_systems(conjugate)
    gens = conjugate.generators
    word = st.lists(st.integers(0, len(gens) - 1), min_size=3, max_size=12)
    elements = []
    while len(elements) < 6 and len(closure([1], elements)) < n:
        elements.append(_product(gens, data.draw(word)))
    sub = PermGroup(elements)
    assume(sub.is_transitive())
    systems, _ = audited_skips(sub)
    assert [s.parts for s in systems] == _reference_block_systems(sub)


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st

@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5

def test_runs_after_it():
    pass
"""


def test_a_failing_property_fails_as_a_test(tmp_path):
    """pytest under this project's settings reports a failing `@given` test
    and runs on.  Hypothesis imports libcst to write a patch for the failing
    example, and that import warns; were the warning an error, pytest would
    stop with INTERNALERROR and run no later test."""
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(pyproject),
         "--rootdir", str(tmp_path), "test_failing_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
