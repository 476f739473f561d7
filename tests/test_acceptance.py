"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with its measured runtime (visible with ``pytest -s`` or in the
captured output).  All comparisons are exact; the stated runtime budgets
are asserted as upper bounds.
"""

import io
import json
import random
import time
from itertools import combinations

from ftdesigns import cli
from ftdesigns.autgrp import (
    automorphism_group,
    canonical_form,
    uniqueness_census_36,
)
from ftdesigns.construct import (
    FrobeniusModel,
    construction_36,
    construction_36_cosets,
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
    flags,
    intersection_profile,
    is_flag_transitive,
)
from ftdesigns.feasibility import bound_report, feasible_tuples
from ftdesigns.perm import PermGroup, Permutation, parse_cycles

from test_feasibility import LAMBDA3_TABLE, LAMBDA4_TABLE, brute_force_tuples


def _report(name, t0, budget):
    elapsed = time.perf_counter() - t0
    print("ACCEPTANCE %s: PASS (%.2fs, budget %ds)" % (name, elapsed, budget))
    assert elapsed < budget


def _run_cli_json(argv):
    out = io.StringIO()
    code = cli.main(argv + ["--format", "json"], out=out)
    return code, json.loads(out.getvalue())


def test_criterion_1_feasibility_tables():
    t0 = time.perf_counter()
    code, payload = _run_cli_json(["feasible", "--lambda", "3"])
    assert code == 0
    rows = payload["rows"]
    assert len(rows) == 10
    assert [(r["lambda"], r["v"], r["k"], r["r"], r["c"], r["d"], r["ell"])
            for r in rows] == LAMBDA3_TABLE

    code, payload = _run_cli_json(["feasible", "--lambda", "4"])
    assert code == 0
    rows = payload["rows"]
    assert len(rows) == 18
    feasible_rows = [r for r in rows if r.get("b") is not None]
    assert [(r["lambda"], r["v"], r["k"], r["r"], r["c"], r["d"], r["ell"])
            for r in feasible_rows] == LAMBDA4_TABLE
    # the two r-corrections are present and flagged as discrepancies
    row196 = next(r for r in rows if r["v"] == 196)
    assert row196["r"] == 52 == row196["forced_r"] and row196["printed_r"] == 42
    assert "discrepancy" in row196["status"]
    row435 = next(r for r in rows if r["v"] == 435)
    assert row435["r"] == 56 == row435["forced_r"] and row435["printed_r"] == 42
    assert "discrepancy" in row435["status"]
    # r is forced by r(k-1) = lambda(v-1) in both flagged rows
    for row in (row196, row435):
        assert row["r"] * (row["k"] - 1) == 4 * (row["v"] - 1)
    _report("1 (feasibility tables)", t0, 1)


def test_criterion_2_bounds():
    t0 = time.perf_counter()
    assert bound_report(2).k_first == 24
    assert bound_report(3).k_first == 72
    assert bound_report(4).k_first == 160
    assert bound_report(2).k_main == 8
    assert bound_report(3).k_main == 36
    assert bound_report(4).k_main == 96
    assert max(t.k for t in feasible_tuples(3)) == 36
    assert max(t.k for t in feasible_tuples(4)) == 80
    _report("2 (bounds)", t0, 1)


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    for lam in (2, 3, 4, 5):
        assert set(feasible_tuples(lam)) == brute_force_tuples(lam)
    _report("3 (oracle equivalence)", t0, 30)


def test_criterion_4_construction_36():
    t0 = time.perf_counter()
    d = construction_36()
    params = check_2_design(d)
    assert params.as_tuple() == (36, 90, 8, 20, 4)
    g = twisted_diagonal_group()
    assert g.order() == 720
    transitive, orbits = is_flag_transitive(g, d)
    assert transitive and orbits == 1
    assert g.order() == len(flags(d))  # flag-regular
    systems = g.block_systems()
    assert [(s.part_size, s.num_parts) for s in systems] == [(6, 6), (6, 6)]
    for s in systems:
        prof = intersection_profile(d, s)
        assert prof.constant and prof.ell == 2
    _report("4 (construction on 36 points)", t0, 5)


def test_criterion_5_uniqueness_census():
    t0 = time.perf_counter()
    report = uniqueness_census_36()
    assert report.qualifying_subsets == 20250
    assert report.size90_orbits == 5
    assert report.design_orbits == 2
    assert report.isomorphic is True
    _report("5 (uniqueness census)", t0, 120)


def test_criterion_6_coset_construction():
    t0 = time.perf_counter()
    model = FrobeniusModel()
    for x, xp, bisection in model.triples():
        _, orbits, moved, invariant = model.triple_data(x, xp, bisection)
        assert sorted(len(o) for o in orbits) == [8, 8, 8]
        assert len(moved) == 2
    d = construction_36_cosets()
    assert d.b == 90
    assert canonical_form(d).certificate == canonical_form(construction_36()).certificate
    _report("6 (coset construction)", t0, 120)


def test_criterion_7_projective_design():
    t0 = time.perf_counter()
    d = projective_design(3)
    params = check_2_design(d)
    assert params.as_tuple() == (15, 15, 8, 8, 4)  # symmetric: b = v
    g = semilinear_group_15()
    assert g.order() == 360
    transitive, _ = is_flag_transitive(g, d)
    assert transitive
    systems = g.block_systems()
    assert len(systems) == 1
    assert (systems[0].part_size, systems[0].num_parts) == (3, 5)
    assert intersection_profile(d, systems[0]).ell == 2
    assert automorphism_group(d).order == 20160
    _report("7 (projective design)", t0, 30)


def test_criterion_8_96_point_designs():
    t0 = time.perf_counter()
    expected_aut = {("h1", 1): 552960, ("h1", 2): 184320,
                    ("h2", 1): 138240, ("h2", 2): 7680}
    for key, want in expected_aut.items():
        group, d = design_96(*key)
        assert check_2_design(d).as_tuple() == (96, 96, 20, 20, 4)
        assert group.order() == 96
        orbit = group.orbit_of_set(d.blocks[0])
        assert len(orbit) == group.order() == 96  # block-regular: stabilizer order 1
        result = automorphism_group(d, node_cap=10**7)
        assert result.order == want
        assert result.nodes_explored <= 10**7
    value, _, report = repair_h1_block1()
    assert value == 14
    assert sum(1 for v in report.values() if v.startswith("accepted")) == 1
    _report("8 (96-point designs)", t0, 600)


def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(2718)

    # BSGS invariants: order = product of basic orbit lengths; membership
    # soundness on 100 random generator words per group
    groups = [
        PermGroup([parse_cycles("(1,2)", 6), parse_cycles("(1,2,3,4,5,6)", 6)]),
        twisted_diagonal_group(),
        semilinear_group_15(),
    ]
    from ftdesigns.construct import block_regular_group_96
    groups.append(block_regular_group_96("h1"))
    groups.append(block_regular_group_96("h2"))
    import math
    for g in groups:
        assert g.order() == math.prod(len(orb) for _, orb, _ in g.basic_orbits)
        for sg in g.strong_generators:
            assert g.sift(sg).is_identity()
        gens = list(g.generators) + [p.inverse() for p in g.generators]
        for _ in range(100):
            w = Permutation.identity(g.degree)
            for _ in range(rng.randint(1, 12)):
                w = w * rng.choice(gens)
            assert g.contains(w)

    # design-module oracle equivalence at v <= 20
    from test_design import naive_pair_check
    for _ in range(120):
        v = rng.randint(4, 20)
        k = rng.randint(2, max(2, v // 2))
        pool = list(combinations(range(1, v + 1), k))
        nblocks = rng.randint(2, min(12, len(pool)))
        d = Design(v, rng.sample(pool, nblocks))
        expected = naive_pair_check(d)
        try:
            got = check_2_design(d).as_tuple()
        except NotTwoDesignError:
            got = None
        assert got == expected

    # autgrp brute-force equivalence at v <= 8
    from test_autgrp import brute_aut_order
    for _ in range(8):
        v = rng.randint(4, 8)
        pool = [c for k in (2, 3) for c in combinations(range(1, v + 1), k)]
        d = Design(v, rng.sample(pool, rng.randint(2, 8)))
        assert automorphism_group(d).order == brute_aut_order(d)

    # canonical-form stability under 50 random relabelings per design
    for d in (projective_design(3), construction_36()):
        cert = canonical_form(d).certificate
        for _ in range(50):
            p = Permutation(rng.sample(range(1, d.v + 1), d.v))
            assert canonical_form(d.relabel(p)).certificate == cert
    _report("9 (property suites)", t0, 300)
