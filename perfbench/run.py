#!/usr/bin/env python3
"""Time-to-verdict benchmark for the coarse-ends CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload ends-sweep --seed 1 --seconds 25 --trace 0

Each workload is a fixed list of CLI jobs (see workloads.py), run in this
process through ``coarse_ends.cli.main(argv)``, one job at a time. With
``--trace 0`` the runner repeats whole passes over the list until the next
pass would overrun ``--seconds`` and reports the end-to-end metrics; job
times are divided by a reference timing taken around each job, which takes
the machine's momentary speed out of them (see README.md). With
``--trace 1`` it alternates three untraced and three traced passes and
reports the per-layer metrics (see spans.py). Every report is checked against the
workload's expected headline values; its sha256 is recorded.

The last line of standard output is the result object; a human summary
goes to standard error, and the full run record (environment, per-pass
times, report digests) to ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

sys.path.insert(0, HERE)
from workloads import WORKLOADS, mismatches  # noqa: E402

MIN_SETUP_SAMPLES = 5
TRACE_PAIRS = 3  # untraced and traced passes, alternating, in a --trace 1 run
ELEMENTS_DENSITY = 0.4

# per_layer metrics read straight from Tracer.totals(): name -> unit
LAYER_METRICS = {
    "groups.mul.calls": "count",
    "groups.show.calls": "count",
    "cayley.build_window.calls": "count",
    "cayley.build_window.s": "s",
    "cayley.build_window.elements": "count",
    "cayley.geodesic.calls": "count",
    "cayley.geodesic.s": "s",
    "ends.components.calls": "count",
    "ends.components.s": "s",
    "ends.components.members": "count",
    "ends.end_count.self_s": "s",
    "ends.component_tree.self_s": "s",
    "covers.interface.calls": "count",
    "covers.interface.s": "s",
    "covers.interface.core_elements": "count",
    "covers.clopen_scale_test.self_s": "s",
    "asdim.estimate_delta.calls": "count",
    "asdim.estimate_delta.s": "s",
    "asdim.greedy_ball_cover.s": "s",
    "asdim.greedy_ball_cover.centres": "count",
    "asdim.build_annulus_cover.s": "s",
    "asdim.verify_cover.s": "s",
    "asdim.asdim_upper_bound.self_s": "s",
    "cli.main.self_s": "s",
}


# ---------------------------------------------------------------------------
# Inputs


def elements_path(seed: int) -> str:
    """Relative to the repository root, so reports name the same path everywhere."""
    return os.path.join(os.path.relpath(WORK, ROOT), f"z3-subset-seed{seed}.txt")


def job_argvs(jobs, seed: int) -> list:
    elements = elements_path(seed)
    return [[a.format(seed=seed, elements=elements) for a in job.argv] for job in jobs]


def write_elements_file(seed: int, R: int) -> None:
    """Seeded density-0.4 subset of the radius-R Z^3 ball, one printed element per line."""
    rng = random.Random(seed)
    lines = []
    for x in range(-R, R + 1):
        for y in range(-(R - abs(x)), R - abs(x) + 1):
            for z in range(-(R - abs(x) - abs(y)), R - abs(x) - abs(y) + 1):
                if rng.random() < ELEMENTS_DENSITY:
                    lines.append(f"({x},{y},{z})")
    with open(os.path.join(ROOT, elements_path(seed)), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Environment and reference timing


REFERENCE_RADIUS = 40
REFERENCE_REPEATS = 5
_GRID_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def reference_s() -> float:
    """Best of five timings of a fixed pure-Python breadth-first search over a grid ball.

    It stands for the kind of work the package does (tuple arithmetic,
    dict and list growth) without calling it, so a change to the package
    cannot change it; only the machine's speed at that moment can. The
    best of several short runs drops a preemption that would swamp one.
    """
    best = float("inf")
    for _ in range(REFERENCE_REPEATS):
        t0 = time.perf_counter()
        norms = {(0, 0): 0}
        frontier = [(0, 0)]
        for r in range(1, REFERENCE_RADIUS + 1):
            nxt = []
            for x, y in frontier:
                for dx, dy in _GRID_STEPS:
                    q = (x + dx, y + dy)
                    if q not in norms:
                        norms[q] = r
                        nxt.append(q)
            frontier = nxt
        best = min(best, time.perf_counter() - t0)
    return best


def git_sha() -> str:
    """HEAD commit read from .git without running git; "unknown" elsewhere."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(cap: int) -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "cap": cap,
    }


# ---------------------------------------------------------------------------
# Set-up time


SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import coarse_ends.cli
from coarse_ends.groups import Group, parse_spec, standard_generators
for spec in {specs!r}:
    standard_generators(Group(parse_spec(spec)))
print(time.perf_counter() - t0)
"""


def setup_child(argvs) -> str:
    """Child script that imports the CLI and binds every spec of the job list."""
    specs = sorted({argv[argv.index("--group") + 1] for argv in argvs})
    return SETUP_CHILD.format(src=SRC, specs=specs)


def setup_sample(code: str) -> float:
    """Seconds one fresh interpreter spends running the set-up child."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout)


# ---------------------------------------------------------------------------
# Passes


def prepare(jobs, seed: int) -> list:
    """Isolate the process, make the job inputs, and return each job's argv."""
    os.chdir(ROOT)
    os.environ.pop("COARSE_ENDS_CACHE", None)  # never read or fill the window cache
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    argvs = job_argvs(jobs, seed)
    for argv in argvs:
        if "--elements-file" in argv:
            write_elements_file(seed, int(argv[argv.index("--window") + 1]))
    return argvs


def run_job(argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    import coarse_ends.cli as cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))  # looked up per call, so a tracer's rebinding is used
        except Exception as exc:  # a traceback is a failed job, not a crashed run
            print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
            code = -1
    return code, out.getvalue(), err.getvalue()


def run_pass(jobs, argvs, tracer=None) -> dict:
    """One pass over the job list: times, digests and headline mismatches.

    A reference timing is taken before every job and after the last one;
    each job is charged the mean of the two around it.
    """
    records = []
    t0 = time.perf_counter()
    ref = reference_s()
    for i, (job, argv) in enumerate(zip(jobs, argvs)):
        if tracer is not None:
            tracer.job = i
        c0, j0 = time.process_time(), time.perf_counter()
        code, stdout, stderr = run_job(argv)
        wall, cpu = time.perf_counter() - j0, time.process_time() - c0
        ref_after = reference_s()
        try:
            result = json.loads(stdout)["result"] if stdout else None
        except (ValueError, KeyError):
            result = None
        report = stdout if stdout else stderr
        records.append({
            "argv": argv,
            "exit_code": code,
            "wall_s": wall,
            "cpu_s": cpu,
            "ref_s": (ref + ref_after) / 2,
            "sha256": hashlib.sha256(report.encode("utf-8")).hexdigest(),
            "mismatches": mismatches(job, code, result),
        })
        ref = ref_after
    return {"wall_s": time.perf_counter() - t0, "jobs": records}


def traced_pass(jobs, argvs) -> tuple:
    """One pass with every layer wrapped; returns (pass, tracer), names restored."""
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return run_pass(jobs, argvs, tracer), tracer
    finally:
        tracer.restore()


def typical_pass(passes, key: str, per_ref: bool) -> float:
    """Sum over jobs of each job's median time across the passes.

    With per_ref, each time is first divided by the reference timing taken
    around that job, which takes out the machine's speed at that moment.
    Medians of many short samples vote out the machine's slow spells.
    """
    return sum(
        statistics.median(
            p["jobs"][i][key] / (p["jobs"][i]["ref_s"] if per_ref else 1.0) for p in passes
        )
        for i in range(len(passes[0]["jobs"]))
    )


def digest_mismatches(passes) -> list:
    """Jobs whose report bytes differ between passes (traced or not)."""
    out = []
    for i, first in enumerate(passes[0]["jobs"]):
        if any(p["jobs"][i]["sha256"] != first["sha256"] for p in passes[1:]):
            out.append(" ".join(first["argv"]))
    return out


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(tracers, traced, untraced) -> dict:
    """Per-layer metrics: each the median over the traced passes."""
    totals = [t.totals() for t in tracers]
    keys = set().union(*totals)
    totals = {k: statistics.median(t.get(k, 0) for t in totals) for k in keys}
    out = {name: metric(totals.get(name, 0), unit) for name, unit in LAYER_METRICS.items()}
    built = totals.get("cayley.build_window.elements", 0)
    out["groups.show.per_element"] = metric(
        totals.get("groups.show.calls", 0) / built if built else 0.0, "ratio"
    )
    # compared in reference units, so a slow spell in one pass does not pass for overhead
    overhead = typical_pass(traced, "wall_s", True) / typical_pass(untraced, "wall_s", True)
    out["trace.overhead_frac"] = metric(overhead - 1.0, "ratio")
    return out


# ---------------------------------------------------------------------------
# Entry


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="coarse-ends time-to-verdict benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure(jobs, argvs, seconds: float, started: float) -> tuple:
    """Untraced passes until the next would end after the deadline.

    One set-up sample is taken after each pass, so that set-up samples,
    like job times, are spread over the whole run.
    """
    code = setup_child(argvs)
    setup_sample(code)  # the first child may compile bytecode; not counted
    deadline = started + seconds
    passes, setup_times = [], []
    while True:
        passes.append(run_pass(jobs, argvs))
        setup_times.append(setup_sample(code))
        typical = statistics.median(p["wall_s"] for p in passes)
        if time.perf_counter() + typical > deadline:
            break
    while len(setup_times) < MIN_SETUP_SAMPLES:
        setup_times.append(setup_sample(code))
    metrics = {
        "wall_ref": metric(typical_pass(passes, "wall_s", True), "ref"),
        "cpu_ref": metric(typical_pass(passes, "cpu_s", True), "ref"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    seconds = {
        "wall_s": typical_pass(passes, "wall_s", False),
        "cpu_s": typical_pass(passes, "cpu_s", False),
    }
    return passes, setup_times, metrics, seconds


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "coarse_ends", "cli.py")):
        print(f"perfbench: no coarse_ends sources under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    jobs = WORKLOADS[args.workload]
    argvs = prepare(jobs, args.seed)
    from coarse_ends.cayley import DEFAULT_CAP

    tracers = []
    setup_times, seconds = [], {}
    if args.trace:
        untraced, traced = [], []
        for _ in range(TRACE_PAIRS):
            untraced.append(run_pass(jobs, argvs))
            one_pass, tracer = traced_pass(jobs, argvs)
            traced.append(one_pass)
            tracers.append(tracer)
        passes = untraced + traced
        metrics = layer_metrics(tracers, traced, untraced)
    else:
        passes, setup_times, metrics, seconds = measure(jobs, argvs, args.seconds, started)
    seconds["reference_s"] = statistics.median(rec["ref_s"] for p in passes for rec in p["jobs"])

    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(1 for p in passes for rec in p["jobs"] if rec["mismatches"])
    unstable = digest_mismatches(passes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(DEFAULT_CAP),
        "setup_s": setup_times,
        "seconds": seconds,
        "failed_frac": failed / attempted,
        "digest_mismatches": unstable,
        "metrics": metrics,
        "passes": passes,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(WORK, f"record-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if tracers:
        tracers[0].write(os.path.join(WORK, f"spans-{stem}.jsonl"))

    for p in passes:
        for rec in p["jobs"]:
            for problem in rec["mismatches"]:
                print(f"FAIL {' '.join(rec['argv'])}: {problem}", file=sys.stderr)
    for argv_text in unstable:
        print(f"FAIL report bytes differ between passes: {argv_text}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} passes={len(passes)} "
        + "".join(f"{k}={v:.4f} " for k, v in seconds.items())
        + f"failed={failed}/{attempted}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": failed == 0 and not unstable,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
