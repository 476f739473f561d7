"""In-memory spans around the calls into each ftdesigns layer.

A ``Tracer`` replaces public functions and ``PermGroup`` methods with
wrappers that record one span per call: name, start, end, parent span and
job id.  A function is replaced under every name that any loaded
``ftdesigns`` module binds to it (``from .design import is_automorphism``
makes ``autgrp.is_automorphism`` a second binding), so calls between layers
are seen as well as calls from the benchmark.  Nothing in the program
itself changes; ``uninstall`` puts every original back.

The self time of a span is its duration minus the durations of its direct
children (one thread, so children never overlap).  Spans are timed with
``speed.work_clock``, which leaves out the benchmark's own timing of its
reference loop.
"""

from __future__ import annotations

import functools
import importlib
import sys

from speed import work_clock

# (module, attribute, span name, note): the note, if any, is read from the
# result and kept on the span, so counts are taken where the work happens.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("autgrp", "automorphism_group", "autgrp.automorphism_group",
     lambda r: (r.nodes_explored, len(r.group.generators))),
    ("autgrp", "canonical_form", "autgrp.canonical_form", None),
    ("autgrp", "are_isomorphic", "autgrp.are_isomorphic", None),
    ("autgrp", "uniqueness_census_36", "autgrp.uniqueness_census_36", None),
    ("perm", "PermGroup.__init__", "perm.PermGroup.__init__", None),
    ("perm", "PermGroup.contains", "perm.PermGroup.contains", None),
    ("perm", "PermGroup.orbit_of_set", "perm.PermGroup.orbit_of_set", None),
    ("perm", "PermGroup.block_systems", "perm.PermGroup.block_systems", len),
    ("perm", "parse_group_text", "perm.parse_group_text", None),
    ("design", "parse_design_text", "design.parse_design_text", None),
    ("design", "check_2_design", "design.check_2_design", None),
    ("design", "is_automorphism", "design.is_automorphism", None),
    ("design", "flag_orbit_count", "design.flag_orbit_count", None),
    ("design", "intersection_profile", "design.intersection_profile", None),
    ("design", "tuple_of", "design.tuple_of", None),
    ("feasibility", "feasible_tuples", "feasibility.feasible_tuples", None),
    ("feasibility", "bound_report", "feasibility.bound_report", None),
    ("feasibility", "condition_failures", "feasibility.condition_failures", None),
    ("construct", "construct_by_name", "construct.construct_by_name", None),
    ("construct", "construction_36", "construct.construction_36", None),
    ("construct", "construction_36_cosets", "construct.construction_36_cosets", None),
    ("construct", "twisted_diagonal_group", "construct.twisted_diagonal_group", None),
    ("construct", "semilinear_group_15", "construct.semilinear_group_15", None),
    ("construct", "projective_design", "construct.projective_design", None),
    ("construct", "block_regular_group_96", "construct.block_regular_group_96", None),
    ("construct", "design_96", "construct.design_96", None),
)

NAME, START, END, PARENT, JOB, NOTE = range(6)


class Tracer:
    """Records spans while installed; ``job`` labels the spans that follow."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, job, note]
        self.job = None
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, note):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else None, tracer.job, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = work_clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = work_clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(result)
            return result

        return traced

    def install(self):
        for module_name in {target[0] for target in TARGETS}:
            importlib.import_module("ftdesigns." + module_name)
        modules = [m for key, m in sys.modules.items()
                   if key == "ftdesigns" or key.startswith("ftdesigns.")]
        for module_name, attr, name, note in TARGETS:
            module = sys.modules["ftdesigns." + module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original, note))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, note)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._restore.append((m, key, original))

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


class SpanView:
    """Durations, self times and ancestry over a list of spans.

    ``base`` is the index of ``spans[0]`` in the tracer's full list, so
    parent indices resolve within a slice taken from it."""

    def __init__(self, spans, base=0):
        self.spans = spans
        self.base = base
        self.child_time = [0.0] * len(spans)
        for span in spans:
            parent = self._local(span[PARENT])
            if parent is not None:
                self.child_time[parent] += span[END] - span[START]

    def _local(self, index):
        if index is None or index < self.base:
            return None
        return index - self.base

    def ancestors(self, i):
        parent = self._local(self.spans[i][PARENT])
        while parent is not None:
            yield self.spans[parent][NAME]
            parent = self._local(self.spans[parent][PARENT])

    def select(self, name):
        return [i for i, span in enumerate(self.spans) if span[NAME] == name]

    def count(self, name):
        return len(self.select(name))

    def total(self, prefix):
        """Summed duration of spans whose name starts with ``prefix``,
        counting only the outermost of nested matching spans."""
        out = 0.0
        for i, span in enumerate(self.spans):
            if span[NAME].startswith(prefix) and not any(
                a.startswith(prefix) for a in self.ancestors(i)
            ):
                out += span[END] - span[START]
        return out

    def self_time(self, name):
        return sum(
            self.spans[i][END] - self.spans[i][START] - self.child_time[i]
            for i in self.select(name)
        ) + 0.0

    def notes(self, name):
        return [self.spans[i][NOTE] for i in self.select(name)]

    def count_within(self, name, ancestor):
        return sum(1 for i in self.select(name) if ancestor in self.ancestors(i))
