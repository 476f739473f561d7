"""Command-line front end.

Subcommands: ``feasible``, ``construct``, ``verify``, ``aut``, ``census36``,
``bounds``.  Global flags: ``--format {text,csv,json}`` and ``--node-cap N``
(N >= 1) for the automorphism search.

``--format`` applies to every command that prints a report; ``construct``
always writes a design file.

Exit codes are a stable contract: 0 all checks pass, 1 check failure,
2 input error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field
from functools import cache

from . import autgrp, construct, design, feasibility, perm

JSON_SCHEMA = "ftdesigns/1"

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE_CAP = 3


class InputError(Exception):
    pass


_REPORT_COLUMNS = ("check", "expected", "observed", "provenance", "ok", "anchor")


def _render(out, fmt, command, elapsed, body, columns, rows, lines):
    """Write a command's output in one format.

    JSON is the envelope around ``body``; CSV is ``columns`` as the header
    over the dicts in ``rows`` (a missing key is an empty cell); text is
    ``lines``, the command's own layout."""
    if fmt == "json":
        payload = {"schema": JSON_SCHEMA, "command": command, **body,
                   "elapsed_s": round(elapsed, 3)}
        json.dump(payload, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(c) for c in columns])
    else:
        out.write("\n".join(lines) + "\n")


@dataclass
class Report:
    command: str
    status: str = "pass"  # pass | fail
    findings: list = field(default_factory=list)

    def add(self, check, expected, observed, provenance, anchor="", informational=False):
        """Record a finding; provenance is "reference", "derived" or
        "trivial", and an informational finding has ok None."""
        ok = None if informational else (expected == observed)
        finding = {"check": check, "expected": expected, "observed": observed,
                   "provenance": provenance, "ok": ok}
        if anchor:
            finding["anchor"] = anchor
        self.findings.append(finding)
        if ok is False:
            self.status = "fail"
        return ok

    @property
    def passed(self):
        return self.status != "fail"

    def render(self, out, fmt, t0):
        elapsed = time.perf_counter() - t0
        lines = ["# %s" % self.command]
        for f in self.findings:
            mark = "PASS" if f["ok"] else ("FAIL" if f["ok"] is False else "info")
            anchor = " [%s]" % f["anchor"] if "anchor" in f else ""
            lines.append(
                "%-4s %-32s expected=%-18s observed=%-18s (%s)%s"
                % (mark, f["check"], f["expected"], f["observed"],
                   f["provenance"], anchor)
            )
        lines.append("status: %s (%.3fs)" % (self.status, elapsed))
        _render(out, fmt, self.command, elapsed,
                {"status": self.status, "findings": self.findings},
                _REPORT_COLUMNS, self.findings, lines)


# -- feasible ----------------------------------------------------------------

# Realization status of the enumerated rows, keyed by
# (lambda, v, k, r, c, d, ell).  "realized" counts are the published
# classification; "open" rows are not settled; "ruled out" rows admit no
# design despite being numerically feasible.
ROW_STATUS = {
    (2, 16, 6, 6, 4, 4, 2): "realized (2 designs)",
    (3, 16, 6, 9, 4, 4, 2): "ruled out (classification of block-size-6 designs)",
    (3, 45, 12, 12, 5, 9, 2): "ruled out (no design exists)",
    (3, 45, 12, 12, 9, 5, 3): "realized (1 design)",
    (3, 100, 12, 27, 10, 10, 2): "open",
    (3, 120, 18, 21, 8, 15, 2): "open",
    (3, 120, 18, 21, 15, 8, 3): "open",
    (3, 256, 18, 45, 16, 16, 2): "open",
    (3, 561, 36, 48, 17, 33, 2): "open (would meet the block-size bound)",
    (3, 561, 36, 48, 33, 17, 3): "open (would meet the block-size bound)",
    (3, 1156, 36, 99, 34, 34, 2): "open (would meet the block-size bound)",
    (4, 15, 8, 8, 3, 5, 2): "realized (1 design; construct pg 3)",
    (4, 16, 6, 12, 4, 4, 2): "realized (2 designs)",
    (4, 36, 8, 20, 6, 6, 2): "realized (1 design; construct d36)",
    (4, 45, 12, 16, 5, 9, 2): "ruled out (no design exists)",
    (4, 45, 12, 16, 9, 5, 3): "ruled out (no design exists)",
    (4, 96, 20, 20, 6, 16, 2): "realized (2 designs; construct d96)",
    (4, 96, 20, 20, 16, 6, 4): "realized (4 designs; construct d96)",
    (4, 100, 12, 36, 10, 10, 2): "open",
    (4, 196, 16, 52, 14, 14, 2): "open",
    (4, 231, 24, 40, 11, 21, 2): "open",
    (4, 231, 24, 40, 21, 11, 3): "open",
    (4, 280, 32, 36, 10, 28, 2): "open",
    (4, 280, 32, 36, 28, 10, 4): "open",
    (4, 484, 24, 84, 22, 22, 2): "open",
    (4, 1976, 80, 100, 26, 76, 2): "open",
    (4, 1976, 80, 100, 76, 26, 4): "open",
    (4, 2116, 48, 180, 46, 46, 2): "open",
}

LAMBDA2_EXCLUDED_NOTE = "numerically feasible; ruled out by the published classification"

# Rows of the published feasible-parameter tables whose printed r value
# contradicts the identity r(k-1) = lambda(v-1), as (v, k, printed r, c, d,
# ell).  feasible_table_rows forces r by the identity and carries a row that
# then fails feasibility (v=435) as an explicitly flagged discrepancy row.
PRINTED_ROW_DISCREPANCIES = {
    4: ((196, 16, 42, 14, 14, 2), (435, 32, 42, 15, 29, 2)),
}

# Expected row counts of the emitted tables (feasible rows + flagged
# discrepancy rows) for the classified lambdas.
EXPECTED_TABLE_ROWS = {2: 4, 3: 10, 4: 18}


def feasible_table_rows(lam: int):
    """Feasible tuples as dict rows plus flagged printed-row discrepancies,
    merged in (v, c, k) order."""
    default = LAMBDA2_EXCLUDED_NOTE if lam == 2 else ""
    emitted = {t: {**t.as_dict(), "status": ROW_STATUS.get(t.row(), default)}
               for t in feasibility.feasible_tuples(lam)}
    rows = list(emitted.values())
    for v, k, printed_r, c, d, ell in PRINTED_ROW_DISCREPANCIES.get(lam, ()):
        r = lam * (v - 1) // (k - 1)
        t = feasibility.FeasibleTuple(lam=lam, v=v, k=k, r=r, b=v * r // k, c=c,
                                      d=d, ell=ell, x=k - 1 - d * (ell - 1))
        note = "printed-row discrepancy: r printed as %d, identity forces %d; " % (
            printed_r, r)
        fails = feasibility.condition_failures(t)
        if fails:
            rows.append({**t.as_dict(), "b": None, "printed_r": printed_r,
                         "forced_r": r,
                         "status": note + "fails feasibility (%s)" % ", ".join(fails)})
            continue
        # a feasible forced row is one the enumerator emitted: annotate it
        row = emitted.get(t)
        if row is None:
            raise AssertionError("feasible discrepancy row %r was not enumerated" % (t,))
        row["status"] = note + (row["status"] or "feasible")
        row["printed_r"] = printed_r
        row["forced_r"] = r
    rows.sort(key=lambda row: (row["v"], row["c"], row["k"]))
    return rows


_FEASIBLE_COLUMNS = ("lambda", "v", "k", "r", "b", "c", "d", "ell", "x", "status")


def cmd_feasible(args, out):
    t0 = time.perf_counter()
    if args.lam < 2:
        raise InputError("lambda must be at least 2")
    rows = feasible_table_rows(args.lam)
    status = EXIT_OK
    expected_count = EXPECTED_TABLE_ROWS.get(args.lam)
    if expected_count is not None and len(rows) != expected_count:
        status = EXIT_CHECK_FAILURE
    lines = ["%6s %6s %4s %4s %6s %4s %4s %4s %3s  %s" % _FEASIBLE_COLUMNS]
    for row in rows:
        lines.append(
            "%6d %6d %4d %4d %6s %4d %4d %4d %3d  %s"
            % (
                row["lambda"], row["v"], row["k"], row["r"],
                row["b"] if row["b"] is not None else "-",
                row["c"], row["d"], row["ell"], row["x"], row["status"],
            )
        )
    lines.append("%d rows" % len(rows))
    _render(out, args.format, "feasible", time.perf_counter() - t0,
            {"lambda": args.lam, "rows": rows, "row_count": len(rows)},
            _FEASIBLE_COLUMNS, rows, lines)
    return status


# -- construct ----------------------------------------------------------------


def cmd_construct(args, out):
    try:
        d = construct.construct_by_name(args.name)
    except (ValueError, TypeError) as exc:
        raise InputError(str(exc)) from None
    out.write(design.format_design_text(d))
    return EXIT_OK


# -- verify -------------------------------------------------------------------


def _read_text(path):
    try:
        if path == "-":
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from None


def _verify_design(report, d):
    try:
        params = design.check_2_design(d)
    except design.NotTwoDesignError as exc:
        report.add("2-design", "valid", "%s (witness %r)" % (exc.condition, exc.witness),
                   "derived")
        return None
    report.add("2-design", "valid", "valid", "derived")
    report.add("parameters (v,b,k,r,lambda)", params.as_tuple(), params.as_tuple(),
               "derived", informational=True)
    report.add("nontrivial (2<k<v)", True, params.nontrivial, "derived")
    for name, formula, provenance in design._DESIGN_CONDITIONS:
        report.add("%s %s" % (name, formula), True,
                   feasibility.CONDITIONS[name](params), provenance)
    return params


def cmd_verify(args, out):
    t0 = time.perf_counter()
    report = Report(command="verify")
    d = design.parse_design_text(_read_text(args.design_file))
    params = _verify_design(report, d)
    if args.group_file:  # read and checked even when d is no 2-design
        design.check_point_cap(d)  # before a generator of degree v is built
        g = perm.parse_group_text(_read_text(args.group_file), degree=d.v)
    if params is not None and args.group_file:
        bad = [i for i, gen in enumerate(g.generators)
               if not design.is_automorphism(d, gen)]
        if report.add("generators-are-automorphisms", [], bad, "derived"):
            report.add("group-order", g.order(), g.order(), "derived",
                       informational=True)
            transitive = g.is_transitive()
            report.add("point-transitive", True, transitive, "derived")
            ft, orbits = design.is_flag_transitive(g, d)
            report.add("flag-orbits", 1, orbits, "derived")
            report.add("flag-transitive", True, ft, "derived")
            if transitive:
                systems = g.block_systems()
                report.add("block-systems", len(systems), len(systems),
                           "derived", informational=True)
                for index, sysm in enumerate(systems, start=1):
                    label = "(c=%d,d=%d)" % (sysm.part_size, sysm.num_parts)
                    if len(systems) > 1:
                        label += " #%d" % index
                    profile = design.intersection_profile(d, sysm)
                    report.add("intersection-constant %s" % label, True,
                               profile.constant, "derived")
                    if not profile.constant or not ft:
                        continue
                    try:
                        t = design.assemble_tuple(params, sysm, profile.ell)
                    except design.DesignError as exc:
                        report.add("feasible-tuple %s" % label, "feasible",
                                   str(exc), "derived")
                        continue
                    report.add("feasible-tuple %s" % label,
                               t.as_dict(), t.as_dict(), "derived")
    report.render(out, args.format, t0)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILURE


# -- aut -----------------------------------------------------------------------


def cmd_aut(args, out):
    t0 = time.perf_counter()
    d = design.parse_design_text(_read_text(args.design_file))
    result = autgrp.automorphism_group(d, node_cap=args.node_cap)
    gens = [perm.format_cycles(g) for g in result.group.generators]
    lines = ["automorphism group order: %d" % result.order,
             "generators (%d):" % len(gens)]
    lines += ["  %s" % gen for gen in gens]
    lines.append("nodes explored: %d" % result.nodes_explored)
    _render(out, args.format, "aut", time.perf_counter() - t0,
            {"order": result.order, "num_generators": len(gens),
             "generators": gens, "nodes_explored": result.nodes_explored},
            ("generator",), [{"generator": gen} for gen in gens], lines)
    return EXIT_OK


# -- census36 --------------------------------------------------------------------


def cmd_census36(args, out):
    t0 = time.perf_counter()
    report = Report(command="census36")
    rep = autgrp.uniqueness_census_36(node_cap=args.node_cap)
    anchor = "orbit census of the 36-point grid design"
    report.add("qualifying-8-subsets", 20250, rep.qualifying_subsets, "reference", anchor)
    report.add("orbit-count", rep.orbit_count, rep.orbit_count, "derived",
               informational=True)
    report.add("size-90-orbits", 5, rep.size90_orbits, "reference", anchor)
    report.add("orbits-yielding-2-designs", 2, rep.design_orbits, "reference", anchor)
    report.add("the-two-designs-isomorphic", True, rep.isomorphic, "reference", anchor)
    report.render(out, args.format, t0)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILURE


# -- bounds -----------------------------------------------------------------------


def cmd_bounds(args, out):
    t0 = time.perf_counter()
    lo = args.lo
    hi = args.hi if args.hi is not None else lo
    if lo < 2 or hi < lo:
        raise InputError("need 2 <= LO <= HI")
    feasibility.check_lambda_cap(hi)
    report = Report(command="bounds")
    for lam in range(lo, hi + 1):
        br = feasibility.bound_report(lam)
        tuples = feasibility.feasible_tuples(lam)
        max_k = max((t.k for t in tuples), default=0)
        max_v = max((t.v for t in tuples), default=0)
        report.add("k-first-bound lambda=%d" % lam, br.k_first, br.k_first,
                   "derived", informational=True)
        report.add("k-main-bound lambda=%d" % lam, br.k_main, br.k_main,
                   "derived", informational=True)
        report.add("v-main-bound lambda=%d" % lam, br.v_main, br.v_main,
                   "derived", informational=True)
        report.add("observed-max-k lambda=%d" % lam, max_k, max_k,
                   "derived", informational=True)
        report.add("observed-max-v lambda=%d" % lam, max_v, max_v,
                   "derived", informational=True)
        report.add("max-k-within-first-bound lambda=%d" % lam, True,
                   max_k <= br.k_first, "derived")
        # The main bound binds the numeric enumeration only for lambda 3
        # and 4; elsewhere it rests on group theory, so it is reported, not
        # asserted.
        if lam in (3, 4):
            report.add("max-k-within-main-bound lambda=%d" % lam, True,
                       max_k <= br.k_main, "derived")
        else:
            report.add("max-k-within-main-bound lambda=%d" % lam,
                       "reported", max_k <= br.k_main, "derived",
                       informational=True)
    report.render(out, args.format, t0)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILURE


# -- entry point --------------------------------------------------------------------


def _positive_int(text):
    """argparse type for counts that must be at least 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1, not %d" % n)
    return n


def _global_options(parser, suppress):
    """The global flags; subcommand copies use SUPPRESS defaults so values
    parsed before the subcommand survive."""
    default = (lambda value: argparse.SUPPRESS) if suppress else (lambda value: value)
    parser.add_argument("--format", choices=("text", "csv", "json"),
                        default=default("text"), help="output format")
    parser.add_argument("--node-cap", type=_positive_int,
                        default=default(autgrp.DEFAULT_NODE_CAP),
                        help="node limit for the automorphism search")
    return parser


@cache
def build_parser():
    """The parser, built once per process (``parse_args`` leaves it as it is),
    so it keeps the ``cmd_*`` functions and ``autgrp.DEFAULT_NODE_CAP`` of
    the first call: patching either later has no effect, and no test does."""
    common = _global_options(argparse.ArgumentParser(add_help=False), suppress=True)

    parser = argparse.ArgumentParser(
        prog="ftdesigns",
        description="Feasibility, construction and verification of "
        "flag-transitive point-imprimitive 2-designs.",
    )
    _global_options(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("feasible", parents=[common],
                       help="enumerate numerically feasible tuples")
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.set_defaults(func=cmd_feasible)

    p = sub.add_parser("construct", parents=[common],
                       help="emit a built-in design as a design file")
    p.add_argument("name", nargs="+",
                   help="d36 | d36-cosets | pg N | d96 (h1|h2) (1|2)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", parents=[common],
                       help="verify a design file (optionally with a group)")
    p.add_argument("design_file")
    p.add_argument("group_file", nargs="?", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("aut", parents=[common],
                       help="automorphism group of a design file")
    p.add_argument("design_file")
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("census36", parents=[common],
                       help="orbit census of the 36-point design")
    p.set_defaults(func=cmd_census36)

    p = sub.add_parser("bounds", parents=[common],
                       help="bound report for a lambda range")
    p.add_argument("lo", type=int)
    p.add_argument("hi", type=int, nargs="?", default=None)
    p.set_defaults(func=cmd_bounds)
    return parser


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, out)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (design.DesignError, perm.GroupError, perm.CycleParseError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (autgrp.ResourceCapExceeded, design.PointCapExceeded,
            feasibility.LambdaCapExceeded, perm.BlockSystemCapExceeded) as exc:
        print("resource cap: %s" % exc, file=sys.stderr)
        return EXIT_RESOURCE_CAP


if __name__ == "__main__":
    sys.exit(main())
