import hashlib
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import ftdesigns
from ftdesigns import autgrp, cli, design, feasibility, perm
from ftdesigns.construct import construction_36, projective_design
from ftdesigns.design import Design, format_design_text
from ftdesigns.perm import Permutation, format_cycles, format_group_text
from ftdesigns.construct import design_96, semilinear_group_15, twisted_diagonal_group

from test_design import odd_spelling
from test_perm import _z2


# subprocesses import the package from the same tree as the tests
SRC_ENV = dict(os.environ, PYTHONPATH=os.path.dirname(
    os.path.dirname(os.path.abspath(ftdesigns.__file__))))


def run_cli(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def test_feasible_lambda3_json():
    code, text = run_cli(["feasible", "--lambda", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["schema"] == "ftdesigns/1"
    assert payload["row_count"] == 10
    rows = payload["rows"]
    assert [(r["v"], r["k"], r["r"], r["c"], r["d"], r["ell"]) for r in rows] == [
        (16, 6, 9, 4, 4, 2),
        (45, 12, 12, 5, 9, 2),
        (45, 12, 12, 9, 5, 3),
        (100, 12, 27, 10, 10, 2),
        (120, 18, 21, 8, 15, 2),
        (120, 18, 21, 15, 8, 3),
        (256, 18, 45, 16, 16, 2),
        (561, 36, 48, 17, 33, 2),
        (561, 36, 48, 33, 17, 3),
        (1156, 36, 99, 34, 34, 2),
    ]
    # FeasibleTuple field names appear verbatim
    for field in ("lambda", "v", "k", "r", "b", "c", "d", "ell", "x"):
        assert field in rows[0]


def test_feasible_lambda4_discrepancies():
    code, text = run_cli(["feasible", "--lambda", "4", "--format", "json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["row_count"] == 18
    rows = payload["rows"]
    row196 = next(r for r in rows if r["v"] == 196)
    assert row196["r"] == 52
    assert row196["printed_r"] == 42 and row196["forced_r"] == 52
    assert "discrepancy" in row196["status"]
    row435 = next(r for r in rows if r["v"] == 435)
    assert row435["r"] == 56 and row435["b"] is None
    assert row435["printed_r"] == 42 and row435["forced_r"] == 56
    assert "discrepancy" in row435["status"]
    assert "flag-count" in row435["status"]


def test_feasible_table_cross_checks_the_enumerator(monkeypatch):
    """A printed row that passes every condition once r is forced must be
    one the enumerator emitted."""
    tuples = feasibility.feasible_tuples(4)
    monkeypatch.setattr(feasibility, "feasible_tuples",
                        lambda lam: [t for t in tuples if t.v != 196])
    with pytest.raises(AssertionError, match="v=196"):
        cli.feasible_table_rows(4)


def test_feasible_csv():
    code, text = run_cli(["feasible", "--lambda", "2", "--format", "csv"])
    assert code == 0
    lines = [ln for ln in text.splitlines() if ln]
    assert lines[0].startswith("lambda,v,k,r,b,c,d,ell,x")
    assert len(lines) == 5  # header + 4 rows
    assert lines[1].startswith("2,16,6,6,16,4,4,2,1")


def test_feasible_bad_lambda():
    code, _ = run_cli(["feasible", "--lambda", "1"])
    assert code == cli.EXIT_INPUT_ERROR


@pytest.mark.parametrize("argv", [
    ["feasible", "--lambda", str(feasibility.MAX_LAMBDA + 1)],
    ["bounds", "2", str(feasibility.MAX_LAMBDA + 1)],
    ["bounds", str(10**9), str(10**9)],
])
def test_lambda_above_the_cap_exits_3(argv, capsys):
    assert run_cli(argv) == (cli.EXIT_RESOURCE_CAP, "")
    err = capsys.readouterr().err
    assert "cap MAX_LAMBDA = %d" % feasibility.MAX_LAMBDA in err
    assert "Traceback" not in err


def test_lambda_at_the_cap_runs():
    code, text = run_cli(["feasible", "--lambda", str(feasibility.MAX_LAMBDA),
                          "--format", "json"])
    assert code == cli.EXIT_OK
    assert json.loads(text)["lambda"] == feasibility.MAX_LAMBDA


def test_construct_and_verify_round_trip(tmp_path):
    for name in (["d36"], ["d36-cosets"], ["pg", "3"], ["pg", "5"],
                 ["d96", "h1", "1"], ["d96", "h1", "2"],
                 ["d96", "h2", "1"], ["d96", "h2", "2"]):
        code, text = run_cli(["construct"] + name)
        assert code == 0
        path = tmp_path / ("-".join(name) + ".dsg")
        path.write_text(text)
        code, report = run_cli(["verify", str(path)])
        assert code == 0, report
        assert "status: pass" in report


# sha256 of ``ftdesigns construct pg N`` standard output
CONSTRUCT_PG_SHA256 = {
    3: "c8ee667d15fd0ba7264aa0269218ff5c694d55e9ab81906a6a8957c05e0e66e5",
    5: "f367f487152991d367cb298d29d342ab5ce5051aa1d502df36a305c25fd0bd35",
    7: "42a43a4041d0e91a7c06c9714e31a3f7796a5897cea3b07f1fbd06e44e21b092",
    9: "be2d4d8970d6f3d90d8bb3bf1efba6bf4d4bb196ebcb30ea0ea2499d46166922",
}


@pytest.mark.parametrize("n", sorted(CONSTRUCT_PG_SHA256))
def test_construct_pg_output_is_pinned(n):
    code, text = run_cli(["construct", "pg", str(n)])
    assert code == cli.EXIT_OK
    assert hashlib.sha256(text.encode()).hexdigest() == CONSTRUCT_PG_SHA256[n]


@pytest.mark.parametrize("args", [["x"], [], ["3", "5"], ["3.0"], ["3", "x"]])
def test_construct_pg_usage(args, capsys):
    assert run_cli(["construct", "pg"] + args) == (cli.EXIT_INPUT_ERROR, "")
    assert capsys.readouterr().err == "error: usage: pg N (odd N, 3..9)\n"


def test_construct_unknown_name():
    code, _ = run_cli(["construct", "nope"])
    assert code == cli.EXIT_INPUT_ERROR


def test_verify_with_group(tmp_path, monkeypatch):
    dpath = tmp_path / "d36.dsg"
    gpath = tmp_path / "d36.grp"
    dpath.write_text(format_design_text(construction_36()))
    gpath.write_text(format_group_text(twisted_diagonal_group()))
    calls = []
    for name in ("check_2_design", "flag_orbit_count"):
        fn = getattr(design, name)
        monkeypatch.setattr(design, name,
                            lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a))
    code, text = run_cli(["verify", str(dpath), str(gpath), "--format", "json"])
    assert code == 0
    # the design check and the flag-orbit count run once, not once per system
    assert sorted(calls) == ["check_2_design", "flag_orbit_count"]
    payload = json.loads(text)
    assert payload["status"] == "pass"
    checks = {f["check"]: f for f in payload["findings"]}
    assert checks["flag-transitive"]["observed"] is True
    # the full tuple is reported once per block system (two systems here)
    tuples = [f for f in payload["findings"]
              if f["check"].startswith("feasible-tuple")]
    assert len(tuples) == 2
    for f in tuples:
        assert f["observed"]["v"] == 36 and f["observed"]["ell"] == 2
        assert f["observed"]["c"] == 6 and f["observed"]["d"] == 6


def test_verify_pg3_with_semilinear_group(tmp_path):
    dpath = tmp_path / "pg3.dsg"
    gpath = tmp_path / "pg3.grp"
    dpath.write_text(format_design_text(projective_design(3)))
    gpath.write_text(format_group_text(semilinear_group_15()))
    code, text = run_cli(["verify", str(dpath), str(gpath), "--format", "json"])
    assert code == 0
    payload = json.loads(text)
    checks = {f["check"]: f for f in payload["findings"]}
    assert checks["flag-transitive"]["observed"] is True
    assert checks["block-systems"]["observed"] == 1
    assert checks["intersection-constant (c=3,d=5)"]["observed"] is True


def test_verify_block_regular_group_is_not_flag_transitive(tmp_path):
    """H1 is transitive on the 96 points of d96 h1/1 but has 20 orbits on
    its 1,920 flags: every block system gets its intersection finding, and
    no tuple is assembled without flag-transitivity."""
    group, d = design_96("h1", 1)
    dpath, gpath = tmp_path / "h1-1.dsg", tmp_path / "h1.grp"
    dpath.write_text(format_design_text(d))
    gpath.write_text(format_group_text(group))
    code, text = run_cli(["verify", str(dpath), str(gpath), "--format", "json"])
    assert code == cli.EXIT_CHECK_FAILURE
    findings = json.loads(text)["findings"]
    checks = {f["check"]: f for f in findings}
    assert checks["point-transitive"]["observed"] is True
    assert checks["flag-orbits"]["observed"] == 20
    assert checks["flag-transitive"]["observed"] is False
    assert checks["block-systems"]["observed"] == 111
    names = [f["check"].split()[0] for f in findings]
    assert names.count("intersection-constant") == 111
    assert "feasible-tuple" not in names


def test_verify_reports_a_tuple_that_fails_a_condition(tmp_path, monkeypatch):
    """When `assemble_tuple` raises, `verify` reports the failed condition
    as the observed value of that system's `feasible-tuple` finding."""
    monkeypatch.setitem(feasibility.CONDITIONS, "block-size-split", lambda t: False)
    dpath, gpath = tmp_path / "d36.dsg", tmp_path / "d36.grp"
    dpath.write_text(format_design_text(construction_36()))
    gpath.write_text(format_group_text(twisted_diagonal_group()))
    code, text = run_cli(["verify", str(dpath), str(gpath), "--format", "json"])
    assert code == cli.EXIT_CHECK_FAILURE
    tuples = [f for f in json.loads(text)["findings"]
              if f["check"].startswith("feasible-tuple")]
    assert len(tuples) == 2
    for f in tuples:
        assert (f["expected"], f["ok"]) == ("feasible", False)
        assert f["observed"] == "feasibility condition failed: block-size-split"


def test_verify_design_only(tmp_path):
    dpath = tmp_path / "d36.dsg"
    dpath.write_text(format_design_text(construction_36()))
    code, text = run_cli(["verify", str(dpath), "--format", "json"])
    assert code == 0
    payload = json.loads(text)
    checks = {f["check"]: f for f in payload["findings"]}
    assert tuple(checks["parameters (v,b,k,r,lambda)"]["observed"]) == (36, 90, 8, 20, 4)


@pytest.mark.parametrize("text, params, derived", [
    ("v 4\n1 2 3 4\n", (4, 1, 4, 1, 1), [False] * 3),
    ("v 3\n1 2\n1 3\n2 3\n", (3, 3, 2, 2, 1), [True] * 3),
], ids=["single-block", "triangle"])
def test_verify_trivial_design(tmp_path, text, params, derived):
    """On a trivial 2-design (k = 2 or k = v) the "derived" conditions do
    not bind, as in check_2_design: verify reports them as informational,
    and only the nontrivial row fails."""
    dpath = tmp_path / "trivial.dsg"
    dpath.write_text(text)
    code, out = run_cli(["verify", str(dpath), "--format", "json"])
    assert code == cli.EXIT_CHECK_FAILURE
    payload = json.loads(out)
    assert payload["status"] == "fail"
    checks = {f["check"]: f for f in payload["findings"]}
    assert tuple(checks["parameters (v,b,k,r,lambda)"]["observed"]) == params
    assert [f["check"] for f in payload["findings"] if f["ok"] is False] == \
        ["nontrivial (2<k<v)"]
    rows = design.condition_rows(design.DesignParameters(*params))
    assert [row[2:] for row in rows] == \
        [("trivial", True, True)] * 2 + [("derived", ok, False) for ok in derived]
    found = [checks["%s %s" % (name, formula)] for name, formula, *_ in rows]
    assert [(f["ok"], f["observed"], f["provenance"]) for f in found] == \
        [(True, True, "trivial")] * 2 + [(None, ok, "derived") for ok in derived]
    _, text_out = run_cli(["verify", str(dpath)])
    assert [ln.split()[1] for ln in text_out.splitlines() if ln.startswith("FAIL")] == \
        ["nontrivial"]


def test_verify_reads_every_int_spelling(tmp_path):
    """A design file whose points are spelled "07", "+7", "７" or "0_7"
    gets the same report as its canonical file."""
    d = construction_36()
    (tmp_path / "canonical.dsg").write_text(format_design_text(d))
    (tmp_path / "odd.dsg").write_text(odd_spelling(d), encoding="utf-8")
    (code, text), (odd_code, odd_text) = (
        run_cli(["verify", str(tmp_path / name), "--format", "json"])
        for name in ("canonical.dsg", "odd.dsg"))
    assert code == 0
    assert (odd_code, _normalised(odd_text)) == (code, _normalised(text))


def test_verify_generator_not_automorphism(tmp_path):
    dpath = tmp_path / "d36.dsg"
    gpath = tmp_path / "bad.grp"
    dpath.write_text(format_design_text(construction_36()))
    gpath.write_text("degree 36\n(1,2)\n")
    code, text = run_cli(["verify", str(dpath), str(gpath)])
    assert code == cli.EXIT_CHECK_FAILURE
    assert "generators-are-automorphisms" in text


def test_verify_parse_error(tmp_path):
    dpath = tmp_path / "bad.dsg"
    dpath.write_text("not a design\n")
    code, _ = run_cli(["verify", str(dpath)])
    assert code == cli.EXIT_INPUT_ERROR


# the complete 2-(4,2,1) design, so that only the group file is malformed,
# and a design that fails the 2-design check, whose group file `verify`
# reads all the same
PAIRS_ON_4 = "v 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
NOT_A_DESIGN = "v 4\n1 2\n1 3\n"
MISSING = object()  # a group path with no file behind it
C4 = "degree 4\n(1,2,3,4)\n"
HUGE_GROUP = "degree 10000000000\n(1,2,3,4)\n"


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))


@pytest.mark.parametrize("design_text, group_text", [
    pytest.param("vx 4\n1 2\n", None, id="design-header-word"),
    pytest.param("v 4 5\n1 2\n", None, id="design-header-extra-token"),
    pytest.param("v\n1 2\n", None, id="design-header-no-count"),
    pytest.param("v 0\n", None, id="design-header-zero"),
    pytest.param("v " + "9" * 5000 + "\n", None, id="design-header-too-many-digits"),
    pytest.param(PAIRS_ON_4, "degreex 4\n(1,2,3,4)\n", id="group-header-word"),
    pytest.param(PAIRS_ON_4, "degree 4 9\n(1,2,3,4)\n", id="group-header-extra-token"),
    pytest.param(PAIRS_ON_4, "degree 0\n", id="group-header-zero"),
    pytest.param("", None, id="empty-design"),
    pytest.param(PAIRS_ON_4, "", id="empty-group"),
    pytest.param(PAIRS_ON_4, "degree 4\n(1,2,3\n", id="unclosed-cycle"),
    pytest.param(PAIRS_ON_4, "degree 4\n(0,1)\n", id="cycle-point-0"),
    pytest.param("v 4\n0 1\n", None, id="block-point-0"),
    pytest.param(PAIRS_ON_4, "degree 4\n(1,2)(2,3)\n", id="point-repeated-across-cycles"),
    pytest.param("v 4\n1 1 2\n", None, id="point-repeated-in-block"),
    pytest.param("v 4\n1 x\n", None, id="non-integer-block-entry"),
    pytest.param(PAIRS_ON_4, "degree 5\n(1,2,3,4,5)\n", id="group-degree-is-not-v"),
    pytest.param(PAIRS_ON_4, HUGE_GROUP, id="group-degree-too-large-to-build"),
    pytest.param(NOT_A_DESIGN, "garbage\n", id="no-design-group-header-word"),
    pytest.param(NOT_A_DESIGN, MISSING, id="no-design-group-file-missing"),
    pytest.param(PAIRS_ON_4, MISSING, id="group-file-missing"),
])
def test_malformed_input_exits_2(tmp_path, capsys, design_text, group_text):
    """Each malformed design or group file exits 2 with an error message on
    stderr, prints nothing on stdout and raises nothing."""
    argv = ["verify", str(tmp_path / "in.dsg")]
    (tmp_path / "in.dsg").write_text(design_text)
    if group_text is not None:
        argv.append(str(tmp_path / "in.grp"))
        if group_text is not MISSING:
            (tmp_path / "in.grp").write_text(group_text)
    if group_text == HUGE_GROUP:
        # a generator of this degree needs about 80 GB, so the run gets
        # 400 MB of address space: building one fails at once
        proc = subprocess.run([sys.executable, "-m", "ftdesigns"] + argv, env=SRC_ENV,
                              capture_output=True, text=True, timeout=60,
                              preexec_fn=_limit_address_space)
        code, text, err = proc.returncode, proc.stdout, proc.stderr
    else:
        code, text = run_cli(argv)
        err = capsys.readouterr().err
    assert code == cli.EXIT_INPUT_ERROR
    assert text == ""
    assert "error: " in err and "Traceback" not in err


def _empty_text(rng):
    return "".join(rng.choice(["\n", "  \n", "\t\n", "# a comment\n"])
                   for _ in range(rng.randint(0, 4)))


def _out_of_range(rng, v):
    return rng.choice([0, -rng.randint(1, 9), v + rng.randint(1, 9)])


def _malformed_design(rng, kind):
    """A complete 2-(v,k) design file on 3 to 7 points made malformed:
    ``truncated`` loses a nonempty head, and with it the ``v`` header line;
    ``out-of-range`` and ``repeated-point`` change one block line."""
    if kind == "empty":
        return _empty_text(rng)
    v = rng.randint(3, 7)
    text = format_design_text(Design(v, combinations(range(1, v + 1), rng.randint(2, v - 1))))
    if kind == "truncated":
        return text[rng.randint(1, len(text)):]
    lines = text.splitlines()
    i = rng.randrange(1, len(lines))
    if kind == "out-of-range":
        lines[i] += " %d" % _out_of_range(rng, v)
    else:
        lines[i] += " " + rng.choice(lines[i].split())
    return "\n".join(lines) + "\n"


def _malformed_group(rng, kind, v):
    """A group file of degree v with one to three random generators made
    malformed: ``truncated`` ends inside its header line or inside a cycle;
    ``out-of-range`` and ``repeated-point`` add a cycle to one generator."""
    if kind == "empty":
        return _empty_text(rng)
    gens = [Permutation(rng.sample(range(1, v + 1), v)) for _ in range(rng.randint(1, 3))]
    lines = ["degree %d" % v] + [format_cycles(g) for g in gens]
    if kind == "truncated":
        text = "\n".join(lines) + "\n"
        cuts = [i for i in range(len(text))
                if i < len(lines[0]) or text.count("(", 0, i) > text.count(")", 0, i)]
        return text[:rng.choice(cuts)]
    i = rng.randrange(1, len(lines))
    if kind == "out-of-range":
        cycle = (_out_of_range(rng, v), rng.randint(1, v))
    else:
        moved = [p for p in range(1, v + 1) if gens[i - 1](p) != p] or [1]
        cycle = (rng.choice(moved), rng.choice(moved))
    lines[i] += "(%d,%d)" % cycle
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", ["truncated", "out-of-range", "repeated-point", "empty"])
@pytest.mark.parametrize("argv", [["verify", "in.dsg"], ["aut", "in.dsg"],
                                  ["verify", "pairs.dsg", "in.grp"]],
                         ids=["verify-design", "aut-design", "verify-group"])
def test_generated_malformed_input_exits_cleanly(tmp_path, capsys, argv, kind):
    """40 generated malformed design or group files per case: each run
    exits 2 or 3 with a message on stderr, prints nothing on stdout and
    raises nothing.  A group file is read after a valid design, the
    complete 2-(v,2,1) design on its degree."""
    rng = random.Random("%s %s" % (" ".join(argv), kind))
    for _ in range(40):
        if argv[-1] == "in.grp":
            v = rng.randint(2, 9)
            (tmp_path / "pairs.dsg").write_text(
                format_design_text(Design(v, combinations(range(1, v + 1), 2))))
            text = _malformed_group(rng, kind, v)
        else:
            text = _malformed_design(rng, kind)
        (tmp_path / argv[-1]).write_text(text)
        code, out = run_cli([argv[0]] + [str(tmp_path / name) for name in argv[1:]])
        err = capsys.readouterr().err
        assert code in (cli.EXIT_INPUT_ERROR, cli.EXIT_RESOURCE_CAP), text
        assert out == "" and err.strip() and "Traceback" not in err, text


HUGE_DESIGN = "v 10000000000\n1 2 3\n1 4 5\n2 4 6\n"


@pytest.mark.parametrize("command, design_text, group_text", [
    pytest.param("verify", HUGE_DESIGN, None, id="verify"),
    pytest.param("aut", HUGE_DESIGN, None, id="aut"),
    # block sizes differ, so the cap is checked before the group is read
    pytest.param("verify", "v 10000000000\n1 2\n1 3 4\n", HUGE_GROUP,
                 id="verify-no-design-with-group"),
])
def test_huge_design_hits_the_point_cap(tmp_path, command, design_text, group_text):
    """A design header far above ``design.MAX_POINTS`` exits 3 with a
    message naming the cap.  A table of v entries would need about 80 GB,
    so the run gets 400 MB of address space: building one fails at once."""
    argv = [command, str(tmp_path / "huge.dsg")]
    (tmp_path / "huge.dsg").write_text(design_text)
    if group_text is not None:
        argv.append(str(tmp_path / "huge.grp"))
        (tmp_path / "huge.grp").write_text(group_text)
    proc = subprocess.run([sys.executable, "-m", "ftdesigns"] + argv,
                          env=SRC_ENV, capture_output=True, text=True, timeout=60,
                          preexec_fn=_limit_address_space)
    assert proc.returncode == cli.EXIT_RESOURCE_CAP
    assert proc.stdout == ""
    assert "cap MAX_POINTS = %d" % design.MAX_POINTS in proc.stderr
    assert "Traceback" not in proc.stderr


def test_format_design_text_names_only_the_points_that_occur():
    """Formatting a design of v = 10^10 points with one block stays cheap:
    the table of point names holds the points that occur, not v of them,
    so 400 MB of address space is plenty."""
    code = ("import sys; from ftdesigns.design import Design, format_design_text; "
            "sys.stdout.write(format_design_text(Design(10**10, [(1, 10**10)])))")
    proc = subprocess.run([sys.executable, "-c", code], env=SRC_ENV, capture_output=True,
                          text=True, timeout=60, preexec_fn=_limit_address_space)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "v 10000000000\n1 10000000000\n"


def test_aut_refuses_more_blocks_than_the_cap(tmp_path, capsys, monkeypatch):
    """``aut`` on 2,049 triples of 25 points exits 3 with a message naming
    the blocks, before the search starts: each of its nodes refines all
    v + b vertices."""
    path = tmp_path / "many.dsg"
    triples = list(combinations(range(1, 26), 3))[: design.MAX_POINTS + 1]
    path.write_text(format_design_text(Design(25, triples)))

    def no_search(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(autgrp, "_Search", no_search)
    code, out = run_cli(["aut", str(path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_RESOURCE_CAP and out == ""
    assert "2049 blocks, above the cap MAX_POINTS = %d" % design.MAX_POINTS in err
    assert "Traceback" not in err


def test_verify_refuses_more_block_systems_than_the_cap(tmp_path, capsys):
    """``verify`` on the hyperplane design of AG(7,2) with its translation
    group Z2^7 exits 3 naming the cap: the group has 29,210 block systems,
    one per nontrivial proper subspace of GF(2)^7.  Point p stands for the
    vector p - 1."""
    n = 7
    hyperplanes = [[x + 1 for x in range(1 << n) if bin(a & x).count("1") % 2 == side]
                   for a in range(1, 1 << n) for side in (0, 1)]
    design_path, group_path = tmp_path / "ag72.dsg", tmp_path / "z2_7.grp"
    design_path.write_text(format_design_text(Design(1 << n, hyperplanes)))
    group_path.write_text(format_group_text(_z2(n)))
    code, out = run_cli(["verify", str(design_path), str(group_path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_RESOURCE_CAP and out == ""
    assert err == ("resource cap: %d block systems found, above the cap "
                   "MAX_BLOCK_SYSTEMS = %d\n" % (perm.MAX_BLOCK_SYSTEMS + 1,
                                                   perm.MAX_BLOCK_SYSTEMS))


def test_point_cap_comes_after_the_no_blocks_checks(tmp_path, capsys):
    path = tmp_path / "huge.dsg"
    path.write_text("v 10000000000\n")
    assert run_cli(["aut", str(path)])[0] == cli.EXIT_INPUT_ERROR
    assert "design has no blocks" in capsys.readouterr().err
    code, text = run_cli(["verify", str(path)])
    assert code == cli.EXIT_CHECK_FAILURE and "no-blocks" in text


def test_reference_mismatch_exits_1(monkeypatch):
    """A failed reference check always exits 1; there is no flag to
    forgive it."""
    wrong = autgrp.CensusReport(qualifying_subsets=20250, orbit_count=42,
                                orbit_sizes=(), size90_orbits=4, design_orbits=2,
                                isomorphic=True)
    monkeypatch.setattr(autgrp, "uniqueness_census_36", lambda node_cap: wrong)
    code, text = run_cli(["census36"])
    assert code == cli.EXIT_CHECK_FAILURE and "status: fail" in text
    monkeypatch.setitem(cli.EXPECTED_TABLE_ROWS, 3, 11)
    assert run_cli(["feasible", "--lambda", "3"])[0] == cli.EXIT_CHECK_FAILURE
    for flag in ("--strict", "--no-strict"):
        with pytest.raises(SystemExit) as exc:
            run_cli([flag, "census36"])
        assert exc.value.code == cli.EXIT_INPUT_ERROR


def test_non_utf8_input_is_an_input_error(tmp_path, capsys):
    good_design = tmp_path / "d36.dsg"
    good_design.write_text(format_design_text(construction_36()))
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"v 4\n1 2 \xff\n")
    for argv in (["verify", str(bad)], ["aut", str(bad)],
                 ["verify", str(good_design), str(bad)]):
        code, _ = run_cli(argv)
        assert code == cli.EXIT_INPUT_ERROR, argv
        assert "error:" in capsys.readouterr().err


def test_aut_json(tmp_path):
    dpath = tmp_path / "pg3.dsg"
    dpath.write_text(format_design_text(projective_design(3)))
    code, text = run_cli(["aut", str(dpath), "--format", "json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["schema"] == "ftdesigns/1"
    assert payload["order"] == 20160
    assert payload["num_generators"] == len(payload["generators"])
    assert payload["nodes_explored"] > 0
    assert set(payload) == {"schema", "command", "order", "num_generators",
                            "generators", "nodes_explored", "elapsed_s"}


def test_aut_design_without_blocks(tmp_path, capsys):
    dpath = tmp_path / "empty.dsg"
    dpath.write_text("v 3\n")
    code, text = run_cli(["aut", str(dpath)])
    assert code == cli.EXIT_INPUT_ERROR
    assert text == ""
    assert "input error: design has no blocks" in capsys.readouterr().err


def test_aut_node_cap(tmp_path):
    dpath = tmp_path / "d36.dsg"
    dpath.write_text(format_design_text(construction_36()))
    code, _ = run_cli(["aut", str(dpath), "--node-cap", "2"])
    assert code == cli.EXIT_RESOURCE_CAP


def test_aut_node_cap_reports_automorphisms_found(tmp_path, capsys):
    dpath = tmp_path / "d36.dsg"
    dpath.write_text(format_design_text(construction_36()))
    assert run_cli(["aut", str(dpath), "--node-cap", "6"]) == (cli.EXIT_RESOURCE_CAP, "")
    assert capsys.readouterr().err == (
        "resource cap: search node cap exceeded at 7 nodes with 3 automorphisms found\n")


@pytest.mark.parametrize("argv", [
    ["aut", "{design}", "--node-cap", "-5"],
    ["aut", "{design}", "--node-cap", "0"],
    ["--node-cap", "0", "aut", "{design}"],
    ["census36", "--node-cap", "0"],
    ["census36", "--node-cap", "-1"],
])
def test_node_cap_below_1_is_an_input_error(tmp_path, capsys, argv):
    dpath = tmp_path / "d36.dsg"
    dpath.write_text(format_design_text(construction_36()))
    with pytest.raises(SystemExit) as exc:
        cli.main([arg.format(design=dpath) for arg in argv], out=io.StringIO())
    assert exc.value.code == cli.EXIT_INPUT_ERROR
    assert "argument --node-cap: must be at least 1" in capsys.readouterr().err


def test_node_cap_not_an_int_is_an_input_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--node-cap", "x", "census36"], out=io.StringIO())
    assert exc.value.code == cli.EXIT_INPUT_ERROR
    assert "argument --node-cap: invalid int value: 'x'" in capsys.readouterr().err


def test_bounds():
    code, text = run_cli(["bounds", "2", "4", "--format", "json"])
    assert code == 0
    payload = json.loads(text)
    checks = {f["check"]: f["observed"] for f in payload["findings"]}
    assert checks["k-first-bound lambda=2"] == 24
    assert checks["k-main-bound lambda=2"] == 8
    assert checks["k-first-bound lambda=3"] == 72
    assert checks["k-main-bound lambda=3"] == 36
    assert checks["k-first-bound lambda=4"] == 160
    assert checks["k-main-bound lambda=4"] == 96
    assert checks["v-main-bound lambda=4"] == 8836
    assert checks["observed-max-k lambda=3"] == 36
    assert checks["observed-max-k lambda=4"] == 80
    assert checks["observed-max-k lambda=2"] == 24


def test_bounds_bad_range():
    code, _ = run_cli(["bounds", "1"])
    assert code == cli.EXIT_INPUT_ERROR
    code, _ = run_cli(["bounds", "4", "3"])
    assert code == cli.EXIT_INPUT_ERROR


def test_stdin_verify():
    proc = subprocess.run(
        [sys.executable, "-m", "ftdesigns", "construct", "pg", "3"],
        capture_output=True, text=True, check=True, env=SRC_ENV,
    )
    proc2 = subprocess.run(
        [sys.executable, "-m", "ftdesigns", "verify", "-"],
        input=proc.stdout, capture_output=True, text=True, env=SRC_ENV,
    )
    assert proc2.returncode == 0
    assert "status: pass" in proc2.stdout


def test_stdin_decode_error_is_an_input_error():
    proc = subprocess.run(
        [sys.executable, "-m", "ftdesigns", "verify", "-"],
        input=b"v 3\n\xff\n", capture_output=True, env=SRC_ENV,
    )
    assert proc.returncode == cli.EXIT_INPUT_ERROR
    assert b"cannot read -" in proc.stderr


def test_global_flags_both_positions(tmp_path):
    code1, text1 = run_cli(["--format", "json", "feasible", "--lambda", "2"])
    code2, text2 = run_cli(["feasible", "--lambda", "2", "--format", "json"])
    assert code1 == code2 == 0
    assert json.loads(text1) == json.loads(text2)


def test_cached_parser_keeps_no_state(tmp_path):
    """One parser serves every call in a process, and the flags and errors
    of one call do not reach the next."""
    assert cli.build_parser() is cli.build_parser()
    dpath = tmp_path / "pg3.dsg"
    dpath.write_text(format_design_text(projective_design(3)))
    code, text = run_cli(["--format", "json", "aut", str(dpath)])
    assert code == 0 and json.loads(text)["order"] == 20160
    code, text = run_cli(["aut", str(dpath)])
    assert code == 0 and text.startswith("automorphism group order: 20160\n")
    assert run_cli(["--node-cap", "1", "aut", str(dpath)])[0] == cli.EXIT_RESOURCE_CAP
    assert run_cli(["aut", str(dpath)])[0] == 0
    with pytest.raises(SystemExit) as exc:
        run_cli(["aut", str(dpath), "--format", "yaml"])
    assert exc.value.code == cli.EXIT_INPUT_ERROR
    code, text = run_cli(["aut", str(dpath)])
    assert code == 0 and text.startswith("automorphism group order: 20160\n")


# -- golden outputs ----------------------------------------------------------

# Exact stdout and exit code of each case in `_golden_cases`, captured before
# the CLI's renderers were folded into one; only `aut-csv` was re-captured,
# because `--format csv aut` used to print JSON, and the node counts of the
# `aut` cases, when the search began to backjump (436 -> 39 nodes).  The
# text and CSV `census36` cases were captured from the census that closed
# every qualifying subset under the group, before it took its orbits from
# the (rows, columns) pair orbits and their stabilizers.  The `verify-d96-h1-group`
# cases, which list H1's 111 block systems, were captured before
# `block_systems` joined one part per class of parts sharing a minimal block.
GOLDEN = json.loads((Path(__file__).with_name("cli_golden.json")).read_text())


def _golden_cases(tmp_path):
    """(name, argv) of every pinned CLI case; input files go to tmp_path."""
    pg3 = projective_design(3)
    h1, h1_design = design_96("h1", 1)
    files = {
        "d36.dsg": format_design_text(construction_36()),
        "d36.grp": format_group_text(twisted_diagonal_group()),
        "pg3.dsg": format_design_text(pg3),
        "pg3.grp": format_group_text(semilinear_group_15()),
        "bad.grp": "degree 36\n(1,2)\n",
        "nondesign.dsg": "v 4\n1 2 3\n1 2 4\n",
        "pg3-relabeled.dsg": format_design_text(pg3.relabel(
            Permutation(random.Random(1).sample(range(1, 16), 15)))),
        "d96-h1-1.dsg": format_design_text(h1_design),
        "h1.grp": format_group_text(h1),
    }
    path = {}
    for name, text in files.items():
        path[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text)
    commands = {
        "feasible-2": ["feasible", "--lambda", "2"],
        "feasible-3": ["feasible", "--lambda", "3"],
        "feasible-4": ["feasible", "--lambda", "4"],
        "bounds-2-5": ["bounds", "2", "5"],
        "verify-d36-group": ["verify", path["d36.dsg"], path["d36.grp"]],
        "verify-pg3-group": ["verify", path["pg3.dsg"], path["pg3.grp"]],
        "verify-d36": ["verify", path["d36.dsg"]],
        "verify-d36-bad-group": ["verify", path["d36.dsg"], path["bad.grp"]],
        "verify-nondesign": ["verify", path["nondesign.dsg"]],
        "verify-d96-h1-group": ["verify", path["d96-h1-1.dsg"], path["h1.grp"]],
        "aut": ["aut", path["pg3-relabeled.dsg"]],
    }
    cases = [("%s-%s" % (name, fmt), ["--format", fmt] + argv)
             for name, argv in commands.items()
             for fmt in ("text", "csv", "json")]
    cases.extend(("census36-%s" % fmt, ["--format", fmt, "census36"])
                 for fmt in ("text", "csv", "json"))
    return cases


def _normalised(text):
    """The output with its elapsed seconds blanked."""
    text = re.sub(r'"elapsed_s": [0-9.e-]+', '"elapsed_s": 0', text)
    return re.sub(r"^(status: \w+) \([0-9.]+s\)$", r"\1 (0s)", text, flags=re.M)


def test_golden_outputs(tmp_path):
    cases = _golden_cases(tmp_path)
    assert sorted(name for name, _ in cases) == sorted(GOLDEN)
    for name, argv in cases:
        code, text = run_cli(argv)
        assert [code, _normalised(text)] == GOLDEN[name], name
