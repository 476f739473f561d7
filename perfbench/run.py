"""Run one benchmark workload from a seed, check every answer, print metrics.

    python3 perfbench/run.py --workload aut --seed 1 --seconds 30 --trace 0

Set-up runs ``perfbench/inputs.py`` in a fresh process several times,
spread between the passes; each writes the seeded inputs.  The jobs of the
workload (see ``workloads.py``) run in passes, one caller, in order, for
``--seconds`` (see ``measure``); the first pass always runs whole.
On a shared 2-core host the same deterministic work ran at speeds up to
2.3x apart, switching within a second or holding for a minute, so raw
times measure the machine as much as the program.  A short pure-Python
reference loop is therefore timed before, after and every 10 ms during
every job and every set-up, and each time is brought to the reference
speed (see ``speed.py``).  Jobs are timed on the thread's CPU clock:
they run on the one thread and do not wait, so this is their wall time
without any spell in which the process was not running.  ``wall_s`` is
the sum over jobs of each job's median sample; ``setup_s`` is the median
time from a set-up's process start to its inputs being on disk.  The
``lru_cache``s of ``ftdesigns`` are emptied before every pass, so each pass
starts as cold as a fresh command-line process.

With ``--trace 0`` the passes run untraced and the end-to-end metrics are
printed.  With ``--trace 1`` untraced and traced passes alternate; the
per-layer metrics come from the traced ones, the spans are written to
``.perfbench/spans-<workload>-<seed>.json``, and ``trace.overhead_frac``
compares the two kinds of pass.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A job
fails when it raises, exits with the wrong code or gives an answer that
differs from the reference; ``failed / attempted`` is the failure fraction.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, thread_time

import inputs
import speed
from spans import END, JOB, NAME, NOTE, PARENT, START, SpanView, Tracer

HERE = Path(__file__).resolve().parent
WORK = inputs.ROOT / ".perfbench"
SETUPS = 5
# How strongly a set-up's time follows the loop's speed: a set-up also
# starts a process, imports and writes files, which slow less than Python
# code.  Measured over 20 to 30 set-ups each: 0.61 (check), 0.67 (aut),
# 0.88 (census).
SETUP_SENSITIVITY = 0.7
SETUP_TIMEOUT_S = 120

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER_UNITS = {
    "autgrp.aut_self_s": "s",
    "autgrp.nodes": "count",
    "autgrp.s_per_node": "s/node",
    "autgrp.autos_found": "count",
    "autgrp.gens_kept_ratio": "ratio",
    "perm.groups_built": "count",
    "perm.schreier_sims_s": "s",
    "perm.contains_calls": "count",
    "perm.contains_s": "s",
    "perm.block_systems_s": "s",
    "perm.block_systems_found": "count",
    "perm.orbit_of_set_s": "s",
    "design.flag_orbits_s": "s",
    "design.intersection_s": "s",
    "design.check_s": "s",
    "design.parse_s": "s",
    "feasibility.enum_s": "s",
    "autgrp.census_self_s": "s",
    "autgrp.canon_s": "s",
    "construct.cosets_s": "s",
    "construct.inputs_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}

LAYERS = ("autgrp", "perm", "design", "feasibility", "construct", "cli")


class SetupFailed(RuntimeError):
    pass


def set_up(args, out):
    """One set-up in a fresh process: seconds from its start until the
    inputs are on disk, at the reference speed as judged by the loop the
    process timed while it ran, and its raw seconds in ``construct`` (zero
    unless traced)."""
    argv = [sys.executable, str(HERE / "inputs.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--out", str(out), "--trace", str(args.trace)]
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - start
        code = proc.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or not line:
        raise SetupFailed("input generation exited with %d" % code)
    report = json.loads(line)
    ready = speed.at_reference_speed(ready - report["probe_s"], report["loops"],
                                     SETUP_SENSITIVITY)
    return ready, report["construct_s"]


def reset_caches():
    for key, module in list(sys.modules.items()):
        if key == "ftdesigns" or key.startswith("ftdesigns."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def probed_call(job, directory):
    """Run one job, timing the reference loop during it; returns (result,
    error, seconds, loop times), where ``seconds`` is the job's CPU time
    without the time spent timing the loop."""
    with speed.Probes() as probes:
        start = thread_time()
        try:
            result, error = job.call(directory), None
        except Exception:  # a failing job is counted, and the loop goes on
            result, error = None, traceback.format_exc()
    seconds = thread_time() - start - probes.spent
    return result, error, seconds, probes.times


def run_pass(jobs, directory, tracer, label, deadline=None, job_times=None):
    """Run every job once, in order, timing the reference loop before each
    job, during it and after it; returns [(job, seconds, scaled, speed,
    result, error)], where ``scaled`` is the job's time at the reference
    speed and ``speed`` the mean of the inverse loop times.  If
    a ``deadline`` is given, the pass stops before a job that would end
    after it, judged by the job's last time in ``job_times``."""
    done, before = [], speed.reference_time()
    for job in jobs:
        if deadline is not None and perf_counter() + job_times[job.name][-1] > deadline:
            break
        if tracer is not None:
            tracer.job = "%s/%s" % (label, job.name)
        result, error, seconds, probes = probed_call(job, directory)
        after = speed.reference_time()
        loops = [before, *probes, after]
        scaled = speed.at_reference_speed(seconds, loops)
        done.append((job, seconds, scaled, statistics.mean(1 / r for r in loops), result, error))
        before = after
    return done


def answer_ok(workloads, job, result, error, err):
    if error is not None:
        err.write("job %s raised:\n%s" % (job.name, error))
        return False
    try:
        answer = job.observe(result)
    except Exception:  # an unreadable answer is a failed job
        err.write("job %s gave an unreadable answer:\n%s" % (job.name, traceback.format_exc()))
        return False
    bad = workloads.mismatches(job, answer)
    for key in bad:
        err.write("job %s: %s expected %r, observed %r\n"
                  % (job.name, key, job.expect[key], answer.get(key)))
    return not bad


def layer_metrics(view):
    """Per-layer figures of one traced pass."""
    searches = view.notes("autgrp.automorphism_group")
    nodes = sum(n for n, _ in searches)
    kept = sum(k for _, k in searches)
    aut_self = view.self_time("autgrp.automorphism_group")
    autos = view.count_within("design.is_automorphism", "autgrp.automorphism_group")
    return {
        "autgrp.aut_self_s": aut_self,
        "autgrp.nodes": nodes,
        "autgrp.s_per_node": aut_self / nodes if nodes else 0.0,
        "autgrp.autos_found": autos,
        "autgrp.gens_kept_ratio": kept / autos if autos else 0.0,
        "perm.groups_built": view.count("perm.PermGroup.__init__"),
        "perm.schreier_sims_s": view.total("perm.PermGroup.__init__"),
        "perm.contains_calls": view.count("perm.PermGroup.contains"),
        "perm.contains_s": view.total("perm.PermGroup.contains"),
        "perm.block_systems_s": view.total("perm.PermGroup.block_systems"),
        "perm.block_systems_found": sum(view.notes("perm.PermGroup.block_systems")),
        "perm.orbit_of_set_s": view.total("perm.PermGroup.orbit_of_set"),
        "design.flag_orbits_s": view.total("design.flag_orbit_count"),
        "design.intersection_s": view.total("design.intersection_profile"),
        "design.check_s": view.total("design.check_2_design"),
        "design.parse_s": view.total("design.parse_design_text"),
        "feasibility.enum_s": view.total("feasibility.feasible_tuples"),
        "autgrp.census_self_s": view.self_time("autgrp.uniqueness_census_36"),
        "autgrp.canon_s": view.total("autgrp.canonical_form"),
        "construct.cosets_s": view.total("construct.construction_36_cosets"),
        "cli.self_s": view.self_time("cli.main"),
    }


def layer_shares(view, wall):
    """Self time of each layer as a share of the pass's job time; the rest
    is the benchmark's own code between the calls."""
    shares = dict.fromkeys(LAYERS, 0.0)
    for i, span in enumerate(view.spans):
        layer = span[NAME].split(".")[0]
        shares[layer] += (span[END] - span[START] - view.child_time[i]) / wall
    return shares


def median_of(rows):
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def measure(workloads, args, directory, err):
    """Set-ups and passes for ``args.seconds``; returns the figures the
    result line is made of.  The first pass always runs whole.  Untraced
    runs then stop before the first job that would end after
    ``args.seconds``; traced runs, which compare whole passes, stop before
    a pass that would end after it.

    The first set-up writes the inputs the jobs read.  The other set-ups
    run between passes, into directories of their own, so that the set-up
    samples are spread over the run like the job samples."""
    jobs = workloads.WORKLOADS[args.workload].jobs
    kinds = (False, True) if args.trace else (False,)
    tracer = Tracer()
    setups = [set_up(args, directory / "inputs")]
    job_times = {job.name: [] for job in jobs}
    job_scaled = {job.name: [] for job in jobs}
    pass_scaled = {False: [], True: []}
    timed = [0.0, 0.0]  # untraced job seconds, and those weighted by speed
    layers, shares = [], []
    attempted = failed = 0
    start = perf_counter()
    deadline = start + args.seconds
    passes = 0
    while True:
        round_start = perf_counter()
        traced = kinds[passes % len(kinds)]
        reset_caches()
        base = len(tracer.spans)
        if traced:
            tracer.install()
        try:
            done = run_pass(jobs, directory / "inputs", tracer if traced else None,
                            "pass%d" % passes, deadline if passes and not args.trace else None,
                            job_times)
        finally:
            tracer.uninstall()
        for job, _, _, _, result, error in done:
            attempted += 1
            failed += not answer_ok(workloads, job, result, error, err)
        wall = sum(seconds for _, seconds, _, _, _, _ in done)
        pass_scaled[traced].append(sum(scaled for _, _, scaled, _, _, _ in done))
        if traced:
            view = SpanView(tracer.spans[base:], base)
            layers.append(layer_metrics(view))
            shares.append(layer_shares(view, wall))
        else:
            for job, seconds, scaled, speed, _, _ in done:
                job_times[job.name].append(seconds)
                job_scaled[job.name].append(scaled)
                timed[0] += seconds
                timed[1] += seconds * speed
        passes += 1
        if len(setups) < SETUPS:
            setups.append(set_up(args, directory / ("setup%d" % len(setups))))
        now = perf_counter()
        if passes >= len(kinds) and (len(done) < len(jobs) or now + (
                now - round_start if args.trace else 0) > deadline):
            break
    while len(setups) < SETUPS:
        setups.append(set_up(args, directory / ("setup%d" % len(setups))))
    return {
        "attempted": attempted,
        "failed": failed,
        "setup_s": statistics.median(ready for ready, _ in setups),
        "inputs_s": statistics.median(construct_s for _, construct_s in setups),
        "job_times": job_times,
        "job_scaled": job_scaled,
        "pass_scaled": pass_scaled,
        "loop_s": timed[0] / timed[1],
        "layers": median_of(layers) if layers else {},
        "shares": median_of(shares) if shares else {},
        "spans": tracer.spans,
    }


def write_spans(path, spans):
    rows = [
        {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
         "job": s[JOB], "note": s[NOTE]}
        for s in spans
    ]
    path.write_text(json.dumps(rows))


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None, out=None, err=None):
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        inputs.import_program()
    except inputs.MissingProgram as exc:
        err.write("perfbench: %s\n" % exc)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        err.write("perfbench: unknown workload %r; choose from %s\n"
                  % (args.workload, ", ".join(workloads.WORKLOADS)))
        return 2
    directory = WORK / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        figures = measure(workloads, args, directory, err)
    except SetupFailed as exc:
        err.write("perfbench: %s\n" % exc)
        return 3
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    scaled = figures["job_scaled"]
    for name, times in figures["job_times"].items():
        out.write("%-40s n=%-3d median %.4f s  at the reference speed %.4f s\n"
                  % (name, len(times), statistics.median(times),
                     statistics.median(scaled[name])))
    raw_wall = sum(statistics.median(times) for times in figures["job_times"].values())
    wall = sum(statistics.median(samples) for samples in scaled.values())
    out.write("median job times sum to %.4f s; at the reference speed %.4f s\n"
              % (raw_wall, wall))
    out.write("reference loop during the jobs: %.4f ms (%.4f ms at the reference speed)\n"
              % (figures["loop_s"] * 1e3, speed.REFERENCE_S * 1e3))
    if args.trace:
        layer = dict(figures["layers"])
        layer["construct.inputs_s"] = figures["inputs_s"]
        passes = figures["pass_scaled"]
        layer["trace.overhead_frac"] = (
            statistics.median(passes[True]) / statistics.median(passes[False]) - 1)
        metrics = {name: metric(layer[name], unit) for name, unit in PER_LAYER_UNITS.items()}
        for name, share in figures["shares"].items():
            out.write("self-time share %-12s %.3f\n" % (name, share))
        WORK.mkdir(exist_ok=True)
        write_spans(WORK / ("spans-%s-%d.json" % (args.workload, args.seed)), figures["spans"])
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {"wall_s": wall, "setup_s": figures["setup_s"], "peak_rss_mb": peak}
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    result = {
        "correct": figures["failed"] == 0,
        "attempted": figures["attempted"],
        "failed": figures["failed"],
        "metrics": metrics,
    }
    out.write(json.dumps(result) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
