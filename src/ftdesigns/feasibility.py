"""Integer feasibility of parameter tuples for flag-transitive,
point-imprimitive 2-designs.

A tuple (lambda, v, k, r, b, c, d, ell, x) is *numerically feasible* when it
satisfies every counting identity, inequality and divisibility condition
collected in ``CONDITIONS`` below: the classical 2-design identities plus
the constraints forced by an invariant partition into d parts of size c
meeting each block in ell points, with x = k - 1 - d(ell - 1).

Everything here is exact integer (or Fraction) arithmetic; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


# The largest lambda that ``feasible_tuples`` and the CLI accept, set so
# that the longest ``bounds`` run, ``bounds 2 200``, stays within about
# 10 s (8.4 s on a 2-core Xeon; it grows about as HI^3, 44 s at 300).
# ``feasible_tuples`` alone grows about as lambda^2.2: 0.17 s at 200.
MAX_LAMBDA = 200


class LambdaCapExceeded(RuntimeError):
    """A lambda above MAX_LAMBDA."""


def check_lambda_cap(lam: int):
    """Raise LambdaCapExceeded if lam is above MAX_LAMBDA."""
    if lam > MAX_LAMBDA:
        raise LambdaCapExceeded("lambda %d is above the cap MAX_LAMBDA = %d"
                                % (lam, MAX_LAMBDA))


@dataclass(frozen=True)
class FeasibleTuple:
    """Parameter tuple; ``lam`` is the pair-coverage number lambda."""

    lam: int
    v: int
    k: int
    r: int
    b: int
    c: int
    d: int
    ell: int
    x: int

    def sort_key(self):
        return (self.v, self.c, self.k, self.ell, self.x)

    def as_dict(self):
        return {
            "lambda": self.lam,
            "v": self.v,
            "k": self.k,
            "r": self.r,
            "b": self.b,
            "c": self.c,
            "d": self.d,
            "ell": self.ell,
            "x": self.x,
        }

    def row(self):
        """(lambda, v, k, r, c, d, ell) in the usual table layout."""
        return (self.lam, self.v, self.k, self.r, self.c, self.d, self.ell)


def _cond_replication_count(t):
    return t.r * (t.k - 1) == t.lam * (t.v - 1)


def _cond_flag_count(t):
    return t.b * t.k == t.v * t.r


def _cond_block_lower_bound(t):
    return t.b >= t.v


def _cond_replication_lower_bound(t):
    return t.r >= t.k


def _cond_replication_square(t):
    return t.r * t.r > t.lam * t.v


def _cond_lambda_at_least_2(t):
    return t.lam >= 2


def _cond_ell_divides_k(t):
    return t.k % t.ell == 0


def _cond_ell_proper(t):
    return 1 < t.ell < t.k


def _cond_part_pair_count(t):
    return t.lam * (t.c - 1) == t.r * (t.ell - 1)


def _cond_block_size_split(t):
    return t.k == t.x * t.c + t.ell


def _cond_part_count(t):
    return t.r * t.x == t.lam * (t.d - 1)


def _cond_block_count_divisibility(t):
    num = t.lam * t.c * (t.c - 1) * (t.k - (t.x + 1))
    den = (t.ell - 1) ** 2
    if num % den != 0:
        return False
    return (num // den) % t.k == 0


def _cond_k_divides_product(t):
    return (t.lam * t.ell * (t.x + 1) * (t.x + t.ell)) % t.k == 0


def _cond_x_ell_cap(t):
    return t.x * (t.ell - 1) <= t.lam - 1


def _cond_part_size_floor(t):
    return t.c * (t.lam - t.x * (t.ell - 1)) >= t.lam + t.ell * (t.ell - 1)


def _cond_block_size_floor(t):
    return t.k * (t.lam - t.x * (t.ell - 1)) >= t.lam * (t.x + t.ell)


def _cond_x_positive(t):
    return t.x == t.k - 1 - t.d * (t.ell - 1) and t.x > 0


def _cond_points_product(t):
    return t.v == t.c * t.d


def _cond_nontrivial_design(t):
    return 2 < t.k < t.v


def _cond_nontrivial_partition(t):
    return 1 < t.c < t.v and 1 < t.d < t.v


def _cond_positive_fields(t):
    return all(
        value >= 1
        for value in (t.lam, t.v, t.k, t.r, t.b, t.c, t.d, t.ell, t.x)
    )


# Each feasibility condition by name, in report order; the design checks and
# the CLI look their conditions up here, so each is written only here.
CONDITIONS = {
    "positive-fields": _cond_positive_fields,
    "lambda-at-least-2": _cond_lambda_at_least_2,
    "replication-count": _cond_replication_count,
    "flag-count": _cond_flag_count,
    "block-lower-bound": _cond_block_lower_bound,
    "replication-lower-bound": _cond_replication_lower_bound,
    "replication-square": _cond_replication_square,
    "ell-divides-k": _cond_ell_divides_k,
    "ell-proper": _cond_ell_proper,
    "part-pair-count": _cond_part_pair_count,
    "block-size-split": _cond_block_size_split,
    "part-count": _cond_part_count,
    "block-count-divisibility": _cond_block_count_divisibility,
    "k-divides-product": _cond_k_divides_product,
    "x-ell-cap": _cond_x_ell_cap,
    "part-size-floor": _cond_part_size_floor,
    "block-size-floor": _cond_block_size_floor,
    "x-positive": _cond_x_positive,
    "points-product": _cond_points_product,
    "nontrivial-design": _cond_nontrivial_design,
    "nontrivial-partition": _cond_nontrivial_partition,
}


def condition_failures(t: FeasibleTuple):
    """Names of all violated feasibility conditions (empty when feasible).

    ``CONDITIONS`` is the one place each condition is written, and this
    validator tests them all on a finished tuple.  ``feasible_tuples`` tests
    only those its derivation does not force, and a test pins its output to
    this validator.
    """
    return [name for name, check in CONDITIONS.items() if not check(t)]


def enumerate_lx(lam: int):
    """All (ell, x) with ell >= 2, x >= 1 and x(ell-1) <= lambda-1,
    sorted by (ell, x)."""
    if lam < 2:
        raise ValueError("lambda must be at least 2")
    pairs = []
    for ell in range(2, lam + 1):
        for x in range(1, (lam - 1) // (ell - 1) + 1):
            pairs.append((ell, x))
    return pairs


def _divisors(n):
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def feasible_tuples(lam: int):
    """All numerically feasible tuples for the given lambda.

    For each admissible (ell, x) the block size k runs over the divisors of
    lambda*ell*(x+1)*(x+ell) (a necessary divisibility), and the remaining
    parameters are forced: c = (k-ell)/x, r = lambda(c-1)/(ell-1),
    d = rx/lambda + 1, v = cd, b = vr/k.  Candidates are dropped when k is
    not a multiple of ell, below the block-size floor, gives c <= ell (that
    is, k >= v) or fails an integrality step; every other condition in
    ``CONDITIONS`` then holds, as the loop's comment proves.  Output is
    sorted by (v, c, k) and is deterministic.  Raises LambdaCapExceeded
    above MAX_LAMBDA.
    """
    if lam < 2:
        raise ValueError("lambda must be at least 2")
    check_lambda_cap(lam)
    found = []
    for ell, x in enumerate_lx(lam):
        slack = lam - x * (ell - 1)  # positive by the (ell, x) cap
        for k in _divisors(lam * ell * (x + 1) * (x + ell)):
            if k % ell != 0:
                continue
            if k * slack < lam * (x + ell):
                continue
            if (k - ell) % x != 0:
                continue
            c = (k - ell) // x
            if c <= ell:  # k < v; every other condition is forced, see below
                continue
            if (lam * (c - 1)) % (ell - 1) != 0:
                continue
            r = lam * (c - 1) // (ell - 1)
            if (r * x) % lam != 0:
                continue
            d = r * x // lam + 1
            v = c * d
            if (v * r) % k != 0:
                continue
            b = v * r // k
            # Every entry of CONDITIONS holds here.  lambda-at-least-2,
            # x-ell-cap, k-divides-product, ell-divides-k and block-size-floor
            # are tested above; block-size-split, part-pair-count, part-count,
            # points-product and flag-count define c, r, d, v and b; and
            # positive-fields holds as c > ell >= 2 and d >= 2.
            # - x-positive: d(ell-1) = x(c-1) + ell-1, so k-1-d(ell-1) = x.
            # - replication-count: lambda(v-1) = rxc + lambda(c-1) = r(k-1).
            # - part-size-floor: k*slack - lambda(x+ell)
            #   = x(c*slack - lambda - ell(ell-1)).
            # - replication-lower-bound: (ell-1)(r-k) = c*slack - lambda
            #   - ell(ell-1) as well; block-lower-bound: b >= v by bk = vr.
            # - nontrivial-design: k < v iff r > lambda (replication-count)
            #   iff c > ell, the one test not forced; k = cx + ell > 2.
            # - replication-square: lambda*v = lambda + r(k-1) < rk <= r^2.
            # - block-count-divisibility: k-x-1 = d(ell-1), so the number it
            #   asks k to divide is rv, and k | rv is b's integrality.
            # - ell-proper, nontrivial-partition: k = cx + ell > ell, and
            #   c, d >= 2 with v = cd.
            found.append(
                FeasibleTuple(lam=lam, v=v, k=k, r=r, b=b, c=c, d=d, ell=ell, x=x)
            )
    found.sort(key=FeasibleTuple.sort_key)
    return found


@dataclass(frozen=True)
class BoundReport:
    """Polynomial bounds on block size and point count as functions of lambda.

    ``k_first`` is the weaker bound 2*lambda^2*(lambda+1); ``k_main`` is the
    main bound 2*lambda^2*(lambda-1), and ``v_main`` = (k_main - 2)^2.
    """

    lam: int
    k_first: int
    k_main: int
    v_main: int


def bound_report(lam: int) -> BoundReport:
    if lam < 2:
        raise ValueError("lambda must be at least 2")
    k_first = 2 * lam * lam * (lam + 1)
    k_main = 2 * lam * lam * (lam - 1)
    return BoundReport(lam=lam, k_first=k_first, k_main=k_main, v_main=(k_main - 2) ** 2)


def g_value(x, y):
    """g(x, y) = (x+1)(y+1)(x+y+1), exact for int/Fraction arguments."""
    return (x + 1) * (y + 1) * (x + y + 1)


def g_hyperbola_max(z):
    """Maximum of g(x, y) on the hyperbola xy = z with x, y >= 1.

    For z > 1 the maximum is 2(z+1)(z+2), attained at (1, z) and (z, 1); g
    decreases on 1 <= x <= sqrt(z) and increases on sqrt(z) <= x <= z.
    Returns (maximum, ((1, z), (z, 1))).
    """
    z = Fraction(z) if not isinstance(z, int) else z
    if z <= 1:
        raise ValueError("z must exceed 1")
    return 2 * (z + 1) * (z + 2), ((1, z), (z, 1))
