"""Property tests of `PermGroup` on generated groups of degree 2 to 10:
orders, membership of generator words and of arbitrary permutations, and
`extend` growing the group exactly for non-members, all against sympy, for
chains built by `extend` and by `of_order` from sympy's order; and the
completeness of the stabilizer chain after each `extend`."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
combinatorics = pytest.importorskip("sympy.combinatorics")

from hypothesis import given, settings, strategies as st  # noqa: E402

from ftdesigns.perm import PermGroup, Permutation  # noqa: E402
from test_perm import assert_chain_complete  # noqa: E402

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
def test_extend_grows_exactly_for_non_members(group, data):
    n, gens, words = group
    candidates = [_product(gens, word) for word in words]
    candidates.append(Permutation(data.draw(st.permutations(range(1, n + 1)))))
    g = PermGroup(gens, degree=n)
    for p in candidates:
        before = g.generators
        member = _sympy_group(before, n).contains(_sympy_perm(p))
        assert g.extend(p) == (not member)
        assert g.generators == (before if member else before + (p,))
        assert g.order() == _sympy_group(g.generators, n).order()


@PROPERTY_SETTINGS
@given(groups())
def test_chain_is_complete_after_each_extend(group):
    n, gens, _ = group
    g = PermGroup((), degree=n)
    for p in gens:
        g.extend(p)
        assert_chain_complete(g)


@PROPERTY_SETTINGS
@given(groups(), st.data())
def test_chain_built_to_a_known_order_matches_sympy(group, data):
    """`of_order` with sympy's order gives a complete chain that agrees
    with sympy on membership, and `extend` on it grows it exactly."""
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
    p = Permutation(data.draw(st.permutations(range(1, n + 1))))
    member = reference.contains(_sympy_perm(p))
    assert g.extend(p) == (not member)
    assert g.order() == _sympy_group(list(gens) + [p], n).order()
    assert_chain_complete(g)
