#!/usr/bin/env python3
"""Self-test of the benchmark on a reduced pass of each workload.

Usage, from anywhere: python3 perfbench/selftest.py

Runs the jobs marked ``quick`` and asserts that the correctness gate
catches a wrong expected value and a wrong exit code, that tracing leaves
every report byte-identical, that layer counts repeat exactly across two
traced runs, and that the tracer restores every name it rebound. Exits 1
on the first failed assertion.
"""

from __future__ import annotations

import dataclasses
import sys

import run
from workloads import WORKLOADS

SEED = 5
COUNT_SUFFIXES = (".calls", ".elements", ".members", ".centres", ".core_elements")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def reduced_jobs() -> list:
    jobs = [job for name in sorted(WORKLOADS) for job in WORKLOADS[name] if job.quick]
    check(
        all(any(job.quick for job in WORKLOADS[name]) for name in WORKLOADS),
        "every workload needs a quick job",
    )
    return jobs


def failures(one_pass) -> list:
    return [(rec["argv"], rec["mismatches"]) for rec in one_pass["jobs"] if rec["mismatches"]]


def test_gate(jobs, argvs) -> None:
    plain = run.run_pass(jobs, argvs)
    check(not failures(plain), f"reduced pass fails the gate: {failures(plain)}")

    i = next(k for k, job in enumerate(jobs) if job.expect)
    path, value = next(iter(jobs[i].expect.items()))
    wrong_value = dataclasses.replace(jobs[i], expect={path: ["not", value]})
    wrong_code = dataclasses.replace(jobs[i], exit_code=jobs[i].exit_code + 1)
    for broken in (wrong_value, wrong_code):
        bad = run.run_pass([broken], [argvs[i]])
        check(len(failures(bad)) == 1, f"a wrong expectation went unnoticed: {broken}")


def layer_counts(totals: dict) -> dict:
    return {k: v for k, v in totals.items() if k.endswith(COUNT_SUFFIXES)}


def bindings() -> dict:
    """Every function-valued name in the package, plus the wrapped methods."""
    from coarse_ends.cayley import Window
    from coarse_ends.groups import Group

    out = {
        (mod_name, attr): value
        for mod_name, module in list(sys.modules.items())
        if mod_name.startswith("coarse_ends")
        for attr, value in vars(module).items()
        if callable(value)
    }
    out.update({
        ("Group", "mul"): Group.mul,
        ("Group", "show"): Group.show,
        ("Window", "geodesic"): Window.geodesic,
    })
    return out


def test_tracing(jobs, argvs) -> None:
    before = bindings()
    untraced = run.run_pass(jobs, argvs)
    runs = [run.traced_pass(jobs, argvs) for _ in range(2)]
    for traced, tracer in runs:
        check(
            not run.digest_mismatches([untraced, traced]),
            "tracing changed report bytes",
        )
        totals = tracer.totals()
        for key in ("cayley.build_window.calls", "ends.components.calls",
                    "covers.interface.calls", "asdim.verify_cover.calls", "cli.main.calls"):
            check(totals.get(key, 0) > 0, f"{key} not seen through the importing modules")
    first, second = (layer_counts(tracer.totals()) for _, tracer in runs)
    check(first == second, f"layer counts differ between traced runs: {first} vs {second}")

    after = bindings()
    changed = sorted(k for k in before if after.get(k) is not before[k])
    check(not changed, f"names not restored after tracing: {changed}")


def main() -> int:
    jobs = reduced_jobs()
    argvs = run.prepare(jobs, SEED)
    test_gate(jobs, argvs)
    test_tracing(jobs, argvs)
    print(f"selftest passed: {len(jobs)} quick jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
