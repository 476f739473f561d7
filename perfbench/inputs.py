"""Seeded inputs for the benchmark workloads.

Every generated design gets a random point relabeling drawn from the seed,
and a group shipped with it is conjugated by the same relabeling; each
conjugated generator is checked to be an automorphism of the relabeled
design before anything is written.  The program under test only ever sees
the resulting ``.dsg``/``.grp`` files.

Run as a script, this is the benchmark's set-up step, timed from process
start:

    python3 perfbench/inputs.py --workload aut --seed 1 --out DIR [--trace 1]

It writes the workload's inputs into DIR and then prints one JSON line
with the reference loop times it took while it ran (see ``speed.py``);
with ``--trace 1`` the line also carries the time spent in ``construct``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


class MissingProgram(RuntimeError):
    pass


def import_program():
    """Import ``ftdesigns`` from the checkout's ``src``, never from an
    installed copy, so the benchmark measures the tree it sits in."""
    if not (SOURCE / "ftdesigns" / "__init__.py").is_file():
        raise MissingProgram("no ftdesigns sources under %s" % SOURCE)
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    import ftdesigns

    if Path(ftdesigns.__file__).resolve().parent != (SOURCE / "ftdesigns").resolve():
        raise MissingProgram("ftdesigns imported from %s" % ftdesigns.__file__)
    return ftdesigns


def relabeling(v, rng):
    from ftdesigns import Permutation

    images = list(range(1, v + 1))
    rng.shuffle(images)
    return Permutation(images)


def conjugate(g, p):
    """The element acting on relabeled points as g acts on the originals:
    p(x) -> p(g(x))."""
    from ftdesigns import Permutation

    images = [0] * g.degree
    for x in range(1, g.degree + 1):
        images[p(x) - 1] = p(g(x))
    return Permutation(images)


def write_inputs(workload, seed, out):
    """Build, relabel, check and write every input of ``workload``."""
    from ftdesigns import design, perm

    import workloads

    out.mkdir(parents=True, exist_ok=True)
    built = {}
    for entry in workloads.WORKLOADS[workload].inputs:
        rng = random.Random("%s:%d:%s" % (workload, seed, entry.name))
        if entry.build not in built:
            built[entry.build] = entry.build()
        d, group = built[entry.build]
        p = relabeling(d.v, rng)
        relabeled = d.relabel(p)
        (out / (entry.name + ".dsg")).write_text(design.format_design_text(relabeled))
        if not entry.with_group:
            continue
        gens = [conjugate(g, p) for g in group.generators]
        for g in gens:
            if not design.is_automorphism(relabeled, g):
                raise AssertionError(
                    "conjugated generator of %s is not an automorphism" % entry.name
                )
        lines = ["degree %d" % relabeled.v] + [perm.format_cycles(g) for g in gens]
        (out / (entry.name + ".grp")).write_text("\n".join(lines) + "\n")


def main(argv=None):
    """Write the inputs, timing the reference loop from the start to the
    end, and print one JSON line: the loop times, the seconds spent timing
    them, and the seconds spent in ``construct`` when traced."""
    before = speed.reference_time()
    with speed.Probes() as probes:
        parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
        parser.add_argument("--workload", required=True)
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--out", type=Path, required=True)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        args = parser.parse_args(argv)
        import_program()
        construct_s = 0.0
        if args.trace:
            from spans import SpanView, Tracer

            with Tracer() as tracer:
                write_inputs(args.workload, args.seed, args.out)
            construct_s = SpanView(tracer.spans).total("construct.")
        else:
            write_inputs(args.workload, args.seed, args.out)
    loops = [before, *probes.times, speed.reference_time()]
    print(json.dumps({"construct_s": construct_s, "loops": loops,
                      "probe_s": probes.spent + loops[0] + loops[-1]}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
