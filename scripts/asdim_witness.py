#!/usr/bin/env python3
"""Print asymptotic-dimension witness JSON for the two hyperbolic staples.

Z gets the full default annulus ladder; the free group gets an explicit
short n_list because its window at radius 10 only fits two annuli worth
of verification work in reasonable time.

Usage: python scripts/asdim_witness.py [--out DIR]
"""

import argparse
import json
import pathlib

from coarse_ends import Group, asdim_upper_bound, build_window, parse_spec, standard_generators

RUNS = [
    ("Z", 14, None),
    ("F2", 10, [2, 3]),
]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None, help="directory for witness-<group>.json files")
    args = ap.parse_args()
    if args.out:
        pathlib.Path(args.out).mkdir(parents=True, exist_ok=True)

    for spec_text, radius, n_list in RUNS:
        group = Group(parse_spec(spec_text))
        gens = standard_generators(group)
        window = build_window(group, gens, radius)
        witness = asdim_upper_bound(window, n_list=n_list)
        payload = json.dumps(witness.to_json_dict(), sort_keys=True, indent=2) + "\n"
        if args.out:
            path = pathlib.Path(args.out) / f"witness-{spec_text}.json"
            path.write_text(payload, encoding="utf-8")
            print(f"{spec_text}: bound {witness.bound} -> {path}")
        else:
            print(payload, end="")


if __name__ == "__main__":
    main()
