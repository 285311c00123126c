"""The four workloads: CLI job lists with the headline values each report must show.

Every expected value was frozen from the reports of the unoptimised code
and, where one exists, is written here as its closed form instead of a
literal. A check names a dotted path into the JSON ``result``; a path that
crosses a list maps over it, so ``counts.outer`` is the list of outer counts.

Argument strings may hold ``{seed}`` (the workload seed) and ``{elements}``
(the seeded elements file the runner writes before the first pass).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Job:
    argv: tuple
    expect: dict = field(default_factory=dict)
    exit_code: int = 0
    quick: bool = False  # part of the reduced pass the self-test runs


def _f2_ball(r: int) -> int:
    return 2 * 3**r - 1


def _z2_ball(r: int) -> int:
    return 2 * r * r + 2 * r + 1


def _z3_ball(r: int) -> int:
    return (2 * r + 1) * (2 * r * r + 2 * r + 3) // 3


def _c2c3_sphere(r: int) -> int:
    # (C2 * C3) with generators a, b, b^-1: spheres 1, 3, 4, 6, 8, 12, 16, ...
    if r == 0:
        return 1
    return 3 * 2 ** ((r - 1) // 2) if r % 2 else 2 ** (r // 2 + 1)


def _growth(radius: int, ball, covering: list, bounded_geometry: int) -> dict:
    return {
        "rows.ball": [ball(r) for r in range(radius + 1)],
        "covering.N": covering,
        "bounded_geometry": bounded_geometry,
    }


def _half_space(window: int, tmax: int, rho) -> dict:
    return {
        "verdict": True,
        "affine_ok": True,
        "entries.rho": [rho(t) for t in range(1, tmax + 1)],
        "entries.core_radius": [window - 2 * t for t in range(1, tmax + 1)],
        "entries.stable": [True] * tmax,
    }


def _asdim(n2delta: int, cross: int, net_sizes: list) -> dict:
    return {
        "delta_hat": 0,
        "delta": 2,
        "N2delta": n2delta,
        "bound": 2 * n2delta - 1,
        "cross_multiplicity": cross,
        "annuli.net_size": net_sizes,
    }


ENDS_SWEEP = (
    Job(
        ("ends", "--group", "F2", "--rmax", "3", "--window", "8"),
        {
            "verdict": "Infinite",
            "counts.outer": [4 * 3 ** (r - 1) for r in (1, 2, 3)],
            "counts.inner": [0, 0, 0],
        },
    ),
    Job(
        ("tree", "--group", "F2", "--rmax", "3", "--window", "8"),
        {
            "verdict": "Infinite",
            # window radius 8: a component at radius r is one branch, of
            # size 1 + 3 + ... + 3^(8 - r)
            "levels.components.size": [
                [(3 ** (9 - r) - 1) // 2] * (4 * 3 ** (r - 1)) for r in (1, 2, 3)
            ],
        },
    ),
    Job(
        ("ends", "--group", "Z^3", "--rmax", "3"),
        {
            "verdict": "One",
            "counts.outer": [1] * 3,
            "recheck_counts.outer": [1] * 3,
            "recheck_radius": 14,
            "stable": True,
        },
    ),
    Job(
        ("ends", "--group", "(C2 * C3)", "--rmax", "6"),
        {"verdict": "Infinite", "counts.outer": [2, 3, 4, 6, 8, 12]},
        quick=True,
    ),
    Job(
        ("ends", "--group", "Z^2", "--rmax", "10"),
        {"verdict": "One", "counts.outer": [1] * 10, "recheck_radius": 28, "stable": True},
        quick=True,
    ),
)

CLOPEN_SCALES = (
    Job(
        ("clopen", "--group", "Z^3", "--window", "12", "--tmax", "2",
         "--select", "component:r=1:index=0"),
        _half_space(12, 2, lambda t: 2 * t),
    ),
    Job(
        ("clopen", "--group", "Z^2", "--window", "22", "--tmax", "5",
         "--select", "component:r=1:index=0"),
        _half_space(22, 5, lambda t: 2 * t),
    ),
    Job(
        ("clopen", "--group", "(C2 * C3)", "--window", "14", "--tmax", "3",
         "--select", "component:r=2:index=1"),
        _half_space(14, 3, lambda t: 2 * t + 1),
        quick=True,
    ),
    Job(
        # a density-0.4 random subset has both sides within K^(2t) of
        # every core element, so the interface fills the core
        ("clopen", "--group", "Z^3", "--window", "12", "--tmax", "2",
         "--elements-file", "{elements}"),
        {
            "verdict": False,
            "entries.rho": [10, 8],
            "entries.core_radius": [10, 8],
            "entries.stable": [True] * 2,
            "entries.verdict": [False] * 2,
        },
        quick=True,
    ),
)

ASDIM_WITNESS = (
    Job(
        ("asdim", "--group", "F2", "--window", "9", "--n-list", "2",
         "--pair-budget", "4000", "--seed", "{seed}"),
        # N = |S(4)| = 4 * 3^3, and the net is the whole norm-4 sphere; one
        # annulus has no neighbour, so there is no cross multiplicity
        _asdim(4 * 3**3, None, [4 * 3**3]),
    ),
    Job(
        ("asdim", "--group", "(C2 * C3)", "--window", "16",
         "--pair-budget", "4000", "--seed", "{seed}"),
        _asdim(8, 2, [3 * 2 ** (n - 1) for n in range(2, 8)]),
    ),
    Job(
        ("asdim", "--group", "(C2 * C2)", "--window", "30", "--seed", "{seed}"),
        _asdim(2, 2, [2] * 13),
        quick=True,
    ),
    Job(
        ("asdim", "--group", "Z", "--seed", "{seed}"),
        _asdim(2, 2, [2] * 5),
        quick=True,
    ),
    Job(
        ("asdim", "--group", "Z^2", "--window", "8", "--seed", "{seed}"),
        exit_code=4,
        quick=True,
    ),
)

WINDOW_BUILD = (
    Job(
        ("growth", "--group", "F2", "--window", "11"),
        _growth(11, _f2_ball, [4] * 4 + [12] * 4, 4),
    ),
    Job(
        ("growth", "--group", "Z^3", "--window", "34"),
        _growth(34, _z3_ball, [6] * 4 + [18] * 4, 6),
    ),
    Job(
        ("growth", "--group", "(C2 * C3)", "--window", "24"),
        _growth(24, lambda r: sum(_c2c3_sphere(k) for k in range(r + 1)), [3] * 4 + [4] * 4, 3),
        quick=True,
    ),
    Job(
        ("growth", "--group", "Z^2", "--window", "200"),
        _growth(200, _z2_ball, [4] * 4 + [8] * 4, 4),
        quick=True,
    ),
)

WORKLOADS = {
    "ends-sweep": ENDS_SWEEP,
    "clopen-scales": CLOPEN_SCALES,
    "asdim-witness": ASDIM_WITNESS,
    "window-build": WINDOW_BUILD,
}


def pick(doc, path: str):
    """Value at a dotted path; a list along the way is mapped over."""
    head, _, rest = path.partition(".")
    if isinstance(doc, list):
        return [pick(item, path) for item in doc]
    value = doc[head]
    return pick(value, rest) if rest else value


def mismatches(job: Job, code: int, result) -> list:
    """Headline differences between a report and the job's expected values.

    ``result`` is the parsed ``result`` object of the JSON report, or None
    when the command printed no report.
    """
    out = []
    if code != job.exit_code:
        out.append(f"exit code {code}, expected {job.exit_code}")
    for path, want in job.expect.items():
        try:
            got = pick(result, path)
        except (KeyError, TypeError):
            out.append(f"{path}: missing")
            continue
        if got != want:
            out.append(f"{path}: {got!r}, expected {want!r}")
    return out
