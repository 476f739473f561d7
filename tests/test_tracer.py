"""The benchmark's span tracer wraps functions of the package by name, so a
deleted or renamed target must fail here rather than only under
``perfbench/run.py --trace 1``."""

import importlib
import pathlib
import sys

import ftdesigns

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _owner_and_name(module_name, attr):
    """The module or class that holds a target, and the attribute's name."""
    owner = importlib.import_module("ftdesigns." + module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


def _bindings(owners):
    """Every attribute of every loaded ftdesigns module and of the target
    classes, by identity."""
    owners = set(owners) | {m for key, m in sys.modules.items()
                            if key == "ftdesigns" or key.startswith("ftdesigns.")}
    return {(owner, attr): value for owner in owners for attr, value in vars(owner).items()}


def test_tracer_installs_every_target_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    assert len(spans.TARGETS) == 27
    targets = [_owner_and_name(module_name, attr) for module_name, attr, _, _ in spans.TARGETS]
    before = _bindings(owner for owner, _ in targets)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for owner, attr in targets:
            wrapper = vars(owner)[attr]
            assert wrapper is not before[owner, attr], attr
            assert wrapper.__wrapped__ is before[owner, attr], attr
        ftdesigns.construct.projective_design(3)
        assert [span[spans.NAME] for span in tracer.spans] == ["construct.projective_design"]
    finally:
        tracer.uninstall()
    after = _bindings(owner for owner, _ in targets)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
