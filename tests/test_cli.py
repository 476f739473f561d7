import io
import json
import os
import subprocess
import sys

import ftdesigns
from ftdesigns import cli
from ftdesigns.construct import construction_36, projective_design
from ftdesigns.design import format_design_text
from ftdesigns.perm import format_group_text
from ftdesigns.construct import semilinear_group_15, twisted_diagonal_group


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


def test_construct_unknown_name():
    code, _ = run_cli(["construct", "nope"])
    assert code == cli.EXIT_INPUT_ERROR


def test_verify_with_group(tmp_path):
    dpath = tmp_path / "d36.dsg"
    gpath = tmp_path / "d36.grp"
    dpath.write_text(format_design_text(construction_36()))
    gpath.write_text(format_group_text(twisted_diagonal_group()))
    code, text = run_cli(["verify", str(dpath), str(gpath), "--format", "json"])
    assert code == 0
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


def test_verify_design_only(tmp_path):
    dpath = tmp_path / "d36.dsg"
    dpath.write_text(format_design_text(construction_36()))
    code, text = run_cli(["verify", str(dpath), "--format", "json"])
    assert code == 0
    payload = json.loads(text)
    checks = {f["check"]: f for f in payload["findings"]}
    assert tuple(checks["parameters (v,b,k,r,lambda)"]["observed"]) == (36, 90, 8, 20, 4)


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


def test_aut_node_cap(tmp_path):
    dpath = tmp_path / "d36.dsg"
    dpath.write_text(format_design_text(construction_36()))
    code, _ = run_cli(["aut", str(dpath), "--node-cap", "2"])
    assert code == cli.EXIT_RESOURCE_CAP


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
