#!/usr/bin/env python3
"""Survey the builtin group zoo: end verdict plus a short growth table.

Usage: python scripts/survey.py [--rmax N]
"""

import argparse

from coarse_ends import Group, build_window, end_count, growth_series, parse_spec, standard_generators

# (spec, r_max) pairs; exponential-growth groups get shallower windows
ZOO = [
    ("C6", 6),
    ("Z", 6),
    ("Z^2", 6),
    ("Z^3", 4),
    ("(Z x C2)", 6),
    ("(C2 * C2)", 6),
    ("F2", 3),
    ("(C2 * C3)", 5),
]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rmax", type=int, default=None, help="override every r_max")
    args = ap.parse_args()

    print(f"{'group':<12} {'verdict':<12} {'outer counts':<28} growth |B(r)|")
    for spec_text, rmax in ZOO:
        rmax = args.rmax if args.rmax is not None else rmax
        group = Group(parse_spec(spec_text))
        gens = standard_generators(group)
        window = build_window(group, gens, 2 * rmax + 4, table=True)
        verdict = end_count(window, rmax)
        outer = ",".join(str(c.outer) for c in verdict.evidence.counts)
        balls = ",".join(str(row.ball) for row in growth_series(group.spec, rmax + 2))
        print(f"{spec_text:<12} {verdict.verdict:<12} {outer:<28} {balls}")


if __name__ == "__main__":
    main()
