"""Property tests on generated designs of 2 to 8 points: `check_2_design`
against a brute-force pair count, the automorphism test against a
frozenset reference, canonical certificates against relabeling, and
automorphism group orders against brute force."""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from ftdesigns.autgrp import automorphism_group, canonical_form  # noqa: E402
from ftdesigns.design import Design, NotTwoDesignError, check_2_design  # noqa: E402
from ftdesigns.perm import Permutation, closure  # noqa: E402
from test_autgrp import brute_aut_order  # noqa: E402
from test_design import check_block_images, naive_pair_check  # noqa: E402

# Under 1 s per test on a 2-core host.  The slowest example, a brute-force
# automorphism count over the 40,320 permutations of 8 points, takes about
# 0.2 s, so that test runs half as many examples.  Derandomized and without
# an example database, so every run checks the same examples and writes no
# files.
PROPERTY_SETTINGS = settings(max_examples=40, deadline=1000, derandomize=True,
                             database=None)


def _permutations(v):
    return st.permutations(range(1, v + 1)).map(Permutation)


@st.composite
def designs(draw):
    """A design on 2 to 8 points: 1 to 10 distinct random blocks, or the
    orbit of one block under the cyclic shift of the points and up to two
    random permutations.  An orbit is often a 2-design: a cyclic one such
    as the Fano plane, or every k-subset when the group is Sym(v)."""
    v = draw(st.integers(2, 8))
    block = st.frozensets(st.integers(1, v), min_size=1)
    if draw(st.booleans()):
        blocks = draw(st.lists(block, min_size=1, max_size=10, unique=True))
    else:
        shift = Permutation(list(range(2, v + 1)) + [1])
        gens = [shift] + draw(st.lists(_permutations(v), max_size=2))
        blocks = closure((draw(block),), gens, Permutation.image_of_set)
    return Design(v, blocks)


@PROPERTY_SETTINGS
@given(designs())
def test_check_2_design_matches_pair_count(d):
    try:
        got = check_2_design(d).as_tuple()
    except NotTwoDesignError:
        got = None
    assert got == naive_pair_check(d)


@PROPERTY_SETTINGS
@given(designs(), st.data())
def test_block_images_match_the_frozenset_reference(d, data):
    """On a random permutation of degree v - 1, v or v + 1, and on each
    generator of Aut, so that every example tests an automorphism."""
    n = data.draw(st.sampled_from([d.v - 1, d.v, d.v + 1]))
    perms = [data.draw(_permutations(n))] + list(automorphism_group(d).group.generators)
    assert check_block_images(d, perms) >= len(perms) - 1


@PROPERTY_SETTINGS
@given(designs(), st.data())
def test_certificate_is_invariant_under_relabeling(d, data):
    p = data.draw(_permutations(d.v))
    assert canonical_form(d.relabel(p)).certificate == canonical_form(d).certificate


@settings(PROPERTY_SETTINGS, max_examples=20)
@given(designs())
def test_automorphism_group_order_matches_brute_force(d):
    assert automorphism_group(d).order == brute_aut_order(d)
