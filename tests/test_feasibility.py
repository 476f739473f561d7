from fractions import Fraction
from math import isqrt

import pytest

from ftdesigns.feasibility import (
    FeasibleTuple,
    bound_report,
    condition_failures,
    enumerate_lx,
    feasible_tuples,
    g_hyperbola_max,
    g_value,
)

LAMBDA3_TABLE = [
    (3, 16, 6, 9, 4, 4, 2),
    (3, 45, 12, 12, 5, 9, 2),
    (3, 45, 12, 12, 9, 5, 3),
    (3, 100, 12, 27, 10, 10, 2),
    (3, 120, 18, 21, 8, 15, 2),
    (3, 120, 18, 21, 15, 8, 3),
    (3, 256, 18, 45, 16, 16, 2),
    (3, 561, 36, 48, 17, 33, 2),
    (3, 561, 36, 48, 33, 17, 3),
    (3, 1156, 36, 99, 34, 34, 2),
]

# The published lambda=4 table, with r forced by r(k-1) = lambda(v-1) for the
# v=196 row (printed 42, forced 52).  The printed v=435 row is absent: with
# its forced r=56 it fails the flag-count identity (b = 435*56/32 is not an
# integer) and the block-count divisibility, so it is not numerically
# feasible; the CLI carries it as an explicitly flagged discrepancy row.
LAMBDA4_TABLE = [
    (4, 15, 8, 8, 3, 5, 2),
    (4, 16, 6, 12, 4, 4, 2),
    (4, 36, 8, 20, 6, 6, 2),
    (4, 45, 12, 16, 5, 9, 2),
    (4, 45, 12, 16, 9, 5, 3),
    (4, 96, 20, 20, 6, 16, 2),
    (4, 96, 20, 20, 16, 6, 4),
    (4, 100, 12, 36, 10, 10, 2),
    (4, 196, 16, 52, 14, 14, 2),
    (4, 231, 24, 40, 11, 21, 2),
    (4, 231, 24, 40, 21, 11, 3),
    (4, 280, 32, 36, 10, 28, 2),
    (4, 280, 32, 36, 28, 10, 4),
    (4, 484, 24, 84, 22, 22, 2),
    (4, 1976, 80, 100, 26, 76, 2),
    (4, 1976, 80, 100, 76, 26, 4),
    (4, 2116, 48, 180, 46, 46, 2),
]


def forced_tuple(lam, ell, x, k):
    """The tuple that (lambda, ell, x, k) force by c = (k-ell)/x,
    r = lambda(c-1)/(ell-1), d = rx/lambda + 1, v = cd and b = vr/k, or None
    when a step is not a positive integer; no other condition is applied."""
    if k <= ell or (k - ell) % x:
        return None
    c = (k - ell) // x
    if (lam * (c - 1)) % (ell - 1):
        return None
    r = lam * (c - 1) // (ell - 1)
    if (r * x) % lam:
        return None
    d = r * x // lam + 1
    if (c * d * r) % k:
        return None
    return FeasibleTuple(lam=lam, v=c * d, k=k, r=r, b=c * d * r // k, c=c, d=d,
                         ell=ell, x=x)


def brute_force_tuples(lam):
    """Interval oracle: iterate ell in [2,lam], x in [1,lam-1], k in
    [3, 2*lam^2*(lam+1)], derive the forced parameters, and keep tuples that
    pass the condition validator."""
    out = set()
    kmax = 2 * lam * lam * (lam + 1)
    for ell in range(2, lam + 1):
        for x in range(1, lam):
            for k in range(3, kmax + 1):
                t = forced_tuple(lam, ell, x, k)
                if t is not None and not condition_failures(t):
                    out.add(t)
    return out


def test_enumerator_matches_conditions_up_to_lambda_40():
    """feasible_tuples, which tests only the conditions its derivation does
    not force, keeps exactly the tuples forced by an admissible (ell, x) and
    a divisor k of lambda*ell*(x+1)*(x+ell) that pass every condition in
    condition_failures: for every lambda that ``bounds 2 40`` runs, and for
    a sample of larger lambdas up to the cap."""
    for lam in [*range(2, 41), 41, 64, 97, 128, 199, 200]:
        reference = []
        for ell, x in enumerate_lx(lam):
            n = lam * ell * (x + 1) * (x + ell)
            small = [i for i in range(1, isqrt(n) + 1) if n % i == 0]
            for k in set(small) | {n // i for i in small}:
                t = forced_tuple(lam, ell, x, k)
                if t is not None and not condition_failures(t):
                    reference.append(t)
        reference.sort(key=FeasibleTuple.sort_key)
        assert feasible_tuples(lam) == reference, lam


def test_enumerate_lx():
    assert enumerate_lx(3) == [(2, 1), (2, 2), (3, 1)]
    assert enumerate_lx(4) == [(2, 1), (2, 2), (2, 3), (3, 1), (4, 1)]
    assert enumerate_lx(2) == [(2, 1)]
    with pytest.raises(ValueError):
        enumerate_lx(1)
    with pytest.raises(ValueError, match="lambda must be at least 2"):
        feasible_tuples(1)


def test_lambda3_table():
    assert [t.row() for t in feasible_tuples(3)] == LAMBDA3_TABLE


def test_lambda4_table():
    rows = [t.row() for t in feasible_tuples(4)]
    assert rows == LAMBDA4_TABLE
    assert len(rows) == 17
    assert not any(row[1] == 435 for row in rows)


def test_435_row_is_infeasible():
    t = FeasibleTuple(lam=4, v=435, k=32, r=56, b=761, c=15, d=29, ell=2, x=2)
    failures = condition_failures(t)
    assert "flag-count" in failures
    assert "block-count-divisibility" in failures


def test_lambda2_table():
    rows = [t.row() for t in feasible_tuples(2)]
    assert (2, 16, 6, 6, 4, 4, 2) in rows
    # the remaining entries are numerically feasible but admit no design
    assert rows == [
        (2, 16, 6, 6, 4, 4, 2),
        (2, 36, 8, 10, 6, 6, 2),
        (2, 100, 12, 18, 10, 10, 2),
        (2, 484, 24, 42, 22, 22, 2),
    ]


def test_oracle_equivalence():
    for lam in (2, 3, 4, 5):
        assert set(feasible_tuples(lam)) == brute_force_tuples(lam)


def test_emitted_tuples_pass_validator():
    for lam in (2, 3, 4, 5, 6):
        for t in feasible_tuples(lam):
            assert condition_failures(t) == []


def test_block_count_formula():
    # b is determined by the flag-count identity in every emitted tuple
    for t in feasible_tuples(4):
        assert t.b * t.k == t.v * t.r


def test_first_bound_holds_up_to_lambda_10():
    for lam in range(2, 11):
        tuples = feasible_tuples(lam)
        assert max(t.k for t in tuples) <= 2 * lam * lam * (lam + 1)


def test_improved_maxima():
    assert max(t.k for t in feasible_tuples(3)) == 36
    assert max(t.k for t in feasible_tuples(4)) == 80


def test_main_bound_status_by_lambda():
    # numeric tuple sets satisfy the main bound for lambda 3 and 4
    for lam in (3, 4):
        assert max(t.k for t in feasible_tuples(lam)) <= 2 * lam * lam * (lam - 1)
    # for lambda 2 and 5 the bound rests on group theory, and the numeric
    # sets genuinely exceed it: reported, not asserted
    assert max(t.k for t in feasible_tuples(2)) == 24 > 8
    assert any(t.k == 225 for t in feasible_tuples(5))


def test_bound_report():
    br = bound_report(4)
    assert (br.k_first, br.k_main, br.v_main) == (160, 96, 8836)
    br = bound_report(3)
    assert (br.k_first, br.k_main) == (72, 36)
    br = bound_report(2)
    assert (br.k_first, br.k_main, br.v_main) == (24, 8, 36)
    for lam in range(2, 12):
        br = bound_report(lam)
        assert br.k_main < br.k_first
        assert br.v_main == (br.k_main - 2) ** 2
    with pytest.raises(ValueError):
        bound_report(1)


def test_g_hyperbola_max():
    value, args = g_hyperbola_max(4)
    assert value == 60 and args == ((1, 4), (4, 1))
    assert g_hyperbola_max(2)[0] == 24
    assert g_value(2, 2) == 45 < 60
    with pytest.raises(ValueError):
        g_hyperbola_max(1)
    with pytest.raises(ValueError):
        g_hyperbola_max(Fraction(1, 2))


def test_g_divisor_points():
    for z in range(2, 101):
        cap, _ = g_hyperbola_max(z)
        for x in range(1, z + 1):
            if z % x:
                continue
            val = g_value(x, z // x)
            assert val <= cap
            assert (val == cap) == (x in (1, z))


def test_g_fraction_support():
    z = Fraction(5, 2)
    value, args = g_hyperbola_max(z)
    assert value == 2 * (z + 1) * (z + 2)
    assert g_value(1, z) == value
