"""The benchmark's workloads: their inputs, their jobs and the reference
answers every job is checked against.

Each workload is a closed loop with one caller: its jobs run in the order
listed, each after the previous one has returned.  Jobs go through the
public entry points only, ``ftdesigns.cli.main(argv, out=...)`` or an
exported library function where the command line has none.  All reference
values are invariant under point relabeling, so they hold for every seed.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from typing import Callable

import ftdesigns
from ftdesigns import cli, construct


@dataclass(frozen=True)
class Input:
    """A design (and group) written to ``<name>.dsg`` (and ``<name>.grp``)."""

    name: str
    build: Callable[[], tuple]  # () -> (Design, PermGroup or None)
    with_group: bool = False


@dataclass(frozen=True)
class Job:
    name: str
    call: Callable  # (inputs directory) -> raw result
    observe: Callable  # raw result -> {key: value}, run outside the timing
    expect: dict  # key -> reference value


@dataclass(frozen=True)
class Workload:
    inputs: tuple
    jobs: tuple


def _d96(group_id, block_id):
    def build():
        group, d = construct.design_96(group_id, block_id)
        return d, group

    return build


BUILDS = {
    "d36": lambda: (construct.construction_36(), construct.twisted_diagonal_group()),
    "d36-cosets": lambda: (construct.construction_36_cosets(), None),
    "pg3": lambda: (construct.projective_design(3), construct.semilinear_group_15()),
    "pg7": lambda: (construct.projective_design(7), None),
    "pg9": lambda: (construct.projective_design(9), None),
    "d96-h1-1": _d96("h1", 1),
    "d96-h1-2": _d96("h1", 2),
    "d96-h2-1": _d96("h2", 1),
    "d96-h2-2": _d96("h2", 2),
}

PARAMETERS = {
    "d36": [36, 90, 8, 20, 4],
    "pg3": [15, 15, 8, 8, 4],
    "pg7": [255, 255, 128, 128, 64],
    "pg9": [1023, 1023, 512, 512, 256],
    "d96-h1-1": [96, 96, 20, 20, 4],
    "d96-h1-2": [96, 96, 20, 20, 4],
    "d96-h2-1": [96, 96, 20, 20, 4],
    "d96-h2-2": [96, 96, 20, 20, 4],
}

AUT_ORDERS = {
    "d36": 720,
    "pg3": 20160,
    **{"d96-%s-%d" % key: order for key, order in construct.AUT_ORDERS_96.items()},
}


def _input(name, with_group=False, copy=None):
    label = name if copy is None else "%s.%02d" % (name, copy)
    return Input(label, BUILDS[name], with_group)


def _cli(*argv):
    """A job running the ``ftdesigns`` command; ``{}`` in an argument is
    replaced by the inputs directory."""

    def call(inputs):
        out = io.StringIO()
        code = cli.main([a.format(inputs) for a in argv], out=out)
        return code, out.getvalue()

    return call


def _aut_answer(result):
    code, text = result
    return {"exit": code, "order": json.loads(text)["order"]}


def _report_answer(result):
    code, text = result
    findings = json.loads(text)["findings"]
    return {"exit": code, **{f["check"]: f["observed"] for f in findings}}


def _design_answer(result):
    code, text = result
    d = ftdesigns.parse_design_text(text)
    return {"exit": code, "parameters": list(ftdesigns.check_2_design(d).as_tuple())}


def _isomorphism_call(inputs):
    d1 = ftdesigns.parse_design_text((inputs / "d36.dsg").read_text())
    d2 = ftdesigns.parse_design_text((inputs / "d36-cosets.dsg").read_text())
    iso, witness = ftdesigns.are_isomorphic(d1, d2)
    return d1, d2, iso, witness


def _isomorphism_answer(result):
    d1, d2, iso, witness = result
    return {
        "isomorphic": iso,
        "witness-maps-blocks": witness is not None and d1.relabel(witness) == d2,
    }


# How many independently relabeled copies of a design one run works on.
# The cost of the IR search and of the block-system search depends on the
# labeling (over 200 labelings pg 3 took 212 to 795 nodes, sd 32% of the
# mean; H1's block systems took 1.5 s to 2.1 s over 5), so a run averages
# over many labelings to keep its figure steady from seed to seed.
AUT_COPIES = {"d36": 60, "pg3": 60}
H1_COPIES = 3

_AUT_INPUTS = tuple(
    _input(name, copy=i) for name, copies in AUT_COPIES.items() for i in range(copies)
)

_PARAMS = "parameters (v,b,k,r,lambda)"


def _verify_job(entry, exit_code, flag_orbits, systems):
    name = entry.name
    return Job(
        "verify %s+group" % name,
        _cli("--format", "json", "verify", "{}/%s.dsg" % name, "{}/%s.grp" % name),
        _report_answer,
        {"exit": exit_code, _PARAMS: PARAMETERS[name.split(".")[0]],
         "flag-orbits": flag_orbits, "block-systems": systems},
    )


_VERIFY_SMALL = (_input("d36", with_group=True), _input("pg3", with_group=True))
_VERIFY_H1 = tuple(_input("d96-h1-1", with_group=True, copy=i) for i in range(H1_COPIES))


def _check_job(name):
    return Job(
        "verify %s" % name,
        _cli("--format", "json", "verify", "{}/%s.dsg" % name),
        _report_answer,
        {"exit": 0, _PARAMS: PARAMETERS[name]},
    )


_CHECK_DESIGNS = ("pg9", "pg7", "d96-h1-1", "d96-h1-2", "d96-h2-1", "d96-h2-2")

WORKLOADS = {
    "aut": Workload(
        inputs=_AUT_INPUTS,
        jobs=tuple(
            Job(
                "aut %s" % entry.name,
                _cli("--format", "json", "aut", "{}/%s.dsg" % entry.name),
                _aut_answer,
                {"exit": 0, "order": AUT_ORDERS[entry.name.split(".")[0]]},
            )
            for entry in _AUT_INPUTS
        ),
    ),
    "verify": Workload(
        inputs=_VERIFY_SMALL + _VERIFY_H1,
        jobs=(
            _verify_job(_VERIFY_SMALL[0], 0, 1, 2),
            _verify_job(_VERIFY_SMALL[1], 0, 1, 1),
        )
        # a block-regular group is not flag-transitive: exit 1 is the answer
        + tuple(_verify_job(entry, 1, 20, 111) for entry in _VERIFY_H1),
    ),
    "check": Workload(
        inputs=tuple(_input(n) for n in _CHECK_DESIGNS),
        jobs=tuple(_check_job(n) for n in _CHECK_DESIGNS) + (
            Job(
                "bounds 2 40",
                _cli("--format", "json", "bounds", "2", "40"),
                _report_answer,
                {"exit": 0, "observed-max-k lambda=3": 36, "observed-max-v lambda=3": 1156,
                 "observed-max-k lambda=4": 80, "observed-max-v lambda=4": 2116,
                 "k-main-bound lambda=40": 124800},
            ),
        ),
    ),
    "census": Workload(
        inputs=(_input("d36"), _input("d36-cosets")),
        jobs=(
            Job(
                "census36",
                _cli("--format", "json", "census36"),
                _report_answer,
                {"exit": 0, "qualifying-8-subsets": 20250, "size-90-orbits": 5,
                 "orbits-yielding-2-designs": 2, "the-two-designs-isomorphic": True},
            ),
            Job(
                "construct d36-cosets",
                _cli("construct", "d36-cosets"),
                _design_answer,
                {"exit": 0, "parameters": PARAMETERS["d36"]},
            ),
            Job(
                "are_isomorphic d36 d36-cosets",
                _isomorphism_call,
                _isomorphism_answer,
                {"isomorphic": True, "witness-maps-blocks": True},
            ),
        ),
    ),
}


def mismatches(job: Job, answer: dict):
    """Keys whose observed value differs from the reference."""
    missing = object()
    return [key for key, want in job.expect.items() if answer.get(key, missing) != want]

