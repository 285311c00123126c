"""Command-line surface: ends, tree, clopen, growth, asdim.

Reports are deterministic given (command, config, seed): no timestamps,
no timings, stable ordering everywhere. JSON is the canonical format;
csv and text are projections of it, and dot exists for trees only.

Exit codes: 0 determinate result, 1 usage or parse error, 2 element cap
exceeded, 3 Undetermined end verdict, 4 precondition refusal (window too
small, empty shell, non-hyperbolic input, failed cover verification).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

from . import __version__
from .asdim import (
    CoveringSample,
    asdim_upper_bound,
    covering_number,
    growth_series,
)
from .cayley import DEFAULT_CAP, build_window
from .covers import clopen_scale_test
from .ends import component_tree, components, end_count
from .errors import CoarseEndsError, ElementSyntaxError, SelectorError
from .groups import Group, parse_spec, power_generators, spec_to_string, standard_generators

REPORT_SCHEMA = "coarse-ends.report/1"


class _ArgumentError(CoarseEndsError):
    """A flag value that parses but that no command can use."""


_LABELS = {1: "error", 2: "resource cap", 4: "refusing"}


@dataclass
class Report:
    command: str
    config: dict
    result: dict
    text: str
    csv: str
    dot: Optional[str] = None
    warnings: list = field(default_factory=list)
    exit_code: int = 0


def _bind(args):
    group = Group(parse_spec(args.group))
    gens = standard_generators(group)
    if args.gen_power > 1:
        gens = power_generators(group, gens, args.gen_power)
    return group, gens


def _check_common(args) -> None:
    if args.gen_power < 1:
        raise _ArgumentError(f"--gen-power must be at least 1, got {args.gen_power}")
    if args.window is not None and args.window < 0:
        raise _ArgumentError(f"--window must be nonnegative, got {args.window}")
    if args.cap < 1:
        raise _ArgumentError(f"--cap must be at least 1, got {args.cap}")


def _at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise _ArgumentError(f"{flag} must be at least {low}, got {value}")


def _int_list(text: str, flag: str) -> list:
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise _ArgumentError(f"{flag} takes comma-separated integers, got {text!r}") from None
    if not values:
        raise _ArgumentError(f"{flag} names no integer, got {text!r}")
    return values


def _base_config(args, window_radius: int) -> dict:
    return {
        "group": spec_to_string(parse_spec(args.group)),
        "gen_power": args.gen_power,
        "window": window_radius,
        "cap": args.cap,
        "seed": args.seed,
    }


def _csv_lines(config: dict, header: str, rows) -> str:
    lines = [f"# {k}={config[k]}" for k in sorted(config)]
    lines.append(header)
    lines.extend(",".join(str(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def _bool(b) -> str:
    return "true" if b else "false"


# ---------------------------------------------------------------------------
# Commands


def cmd_ends(args) -> Report:
    _at_least("--rmax", args.rmax, 1)
    _at_least("--span", args.span, 1)
    _at_least("--growth-span", args.growth_span, 2)
    group, gens = _bind(args)
    radius = args.window if args.window is not None else 2 * args.rmax + 4
    verdict = end_count(
        group,
        gens,
        args.rmax,
        stab_span=args.span,
        growth_span=args.growth_span,
        window_radius=radius,
        cap=args.cap,
    )
    config = _base_config(args, radius)
    config.update(rmax=args.rmax, span=args.span, growth_span=args.growth_span)
    result = verdict.to_json_dict()
    lines = [
        f"group: {config['group']}",
        f"verdict: {verdict.verdict}",
        f"note: {verdict.note}",
        f"window radius: {radius}"
        + (
            f" (rechecked at {verdict.evidence.recheck_radius})"
            if verdict.evidence.recheck_radius is not None
            else ""
        ),
    ]
    for c in verdict.evidence.counts:
        lines.append(f"r={c.r} outer={c.outer} inner={c.inner}")
    if verdict.evidence.exhausted_at is not None:
        lines.append(f"exhausted at r={verdict.evidence.exhausted_at}")
    csv_config = dict(config, verdict=verdict.verdict)
    csv = _csv_lines(
        csv_config,
        "r,outer,inner",
        [(c.r, c.outer, c.inner) for c in verdict.evidence.counts],
    )
    return Report(
        command="ends",
        config=config,
        result=result,
        text="\n".join(lines) + "\n",
        csv=csv,
        exit_code=3 if verdict.verdict == "Undetermined" else 0,
    )


def cmd_tree(args) -> Report:
    _at_least("--rmin", args.rmin, 0)
    _at_least("--rmax", args.rmax, args.rmin)
    group, gens = _bind(args)
    radius = args.window if args.window is not None else 2 * args.rmax + 4
    window = build_window(group, gens, radius, cap=args.cap, table=True)
    tree = component_tree(window, args.rmin, args.rmax)
    config = _base_config(args, radius)
    config.update(rmin=args.rmin, rmax=args.rmax)
    result = tree.to_json_dict()
    lines = [f"group: {config['group']}", f"verdict: {tree.verdict}"]
    rows = []
    for lv in tree.levels:
        sizes = " ".join(
            f"{n.id}:{n.size}{'*' if n.outer else ''}"
            + (f"<-{n.parent}" if n.parent is not None else "")
            for n in lv.nodes
        )
        lines.append(f"r={lv.r} components: {sizes if sizes else '(none)'}")
        for n in lv.nodes:
            rows.append(
                (lv.r, n.id, n.size, _bool(n.outer), "" if n.parent is None else n.parent)
            )
    csv = _csv_lines(dict(config, verdict=tree.verdict), "r,id,size,outer,parent", rows)
    return Report(
        command="tree",
        config=config,
        result=result,
        text="\n".join(lines) + "\n",
        csv=csv,
        dot=tree.to_dot() + "\n",
    )


def _parse_selector(text: str) -> Callable:
    parts = text.split(":")
    if not parts or parts[0] != "component":
        raise SelectorError(
            f"unknown selector {text!r}; expected component:r=<int>:index=<int>"
        )
    fields = {}
    for frag in parts[1:]:
        if "=" not in frag:
            raise SelectorError(f"malformed selector field {frag!r}")
        k, v = frag.split("=", 1)
        try:
            fields[k] = int(v)
        except ValueError:
            raise SelectorError(f"selector field {frag!r} is not an integer") from None
    if set(fields) != {"r", "index"}:
        raise SelectorError("selector must provide exactly r=<int> and index=<int>")
    r, index = fields["r"], fields["index"]

    def resolve(window):
        dec = components(window, r)
        if not 0 <= index < len(dec.components):
            raise SelectorError(
                f"component index {index} does not resolve: only "
                f"{len(dec.components)} components at r={r}"
            )
        return set(dec.components[index].elements)

    return resolve


def _load_elements(path: str, group: Group, window) -> set:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SelectorError(f"cannot read elements file: {exc}") from None
    out = set()
    for lineno, line in enumerate(raw.splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            g = group.parse(text)
        except ElementSyntaxError as exc:
            raise SelectorError(f"{path}:{lineno}: {exc}") from None
        if g not in window:
            raise SelectorError(
                f"{path}:{lineno}: element {text!r} lies outside the window"
            )
        out.add(g)
    return out


def cmd_clopen(args) -> Report:
    _at_least("--tmax", args.tmax, 1)
    group, gens = _bind(args)
    radius = args.window if args.window is not None else 4 * args.tmax + 4
    window = build_window(group, gens, radius, cap=args.cap, table=True)
    if args.select is not None:
        chosen_set = _parse_selector(args.select)
        chosen = f"select={args.select}"
    else:
        chosen_set = _load_elements(args.elements_file, group, window)
        chosen = f"elements_file={args.elements_file}"
    cert = clopen_scale_test(window, chosen_set, args.tmax)
    config = _base_config(args, radius)
    config.update(tmax=args.tmax, set=chosen)
    result = asdict(cert)
    lines = [
        f"group: {config['group']}",
        f"set: {chosen}",
        f"verdict: {'clopen-consistent' if cert.verdict else 'not clopen'}",
    ]
    for e in cert.entries:
        lines.append(
            f"t={e.scale_t} rho={e.rho} core={e.core_radius} "
            f"stable={_bool(e.stable)} verdict={_bool(e.verdict)}"
        )
    csv = _csv_lines(
        dict(config, verdict=_bool(cert.verdict)),
        "scale_t,rho,core_radius,stable,verdict",
        [
            (e.scale_t, e.rho, e.core_radius, _bool(e.stable), _bool(e.verdict))
            for e in cert.entries
        ],
    )
    return Report(
        command="clopen",
        config=config,
        result=result,
        text="\n".join(lines) + "\n",
        csv=csv,
    )


def cmd_growth(args) -> Report:
    offsets = _int_list(args.cover_offsets, "--cover-offsets")
    for t in offsets:
        _at_least("--cover-offsets", t, 1)
    group, gens = _bind(args)
    radius = args.window if args.window is not None else 8
    window = build_window(group, gens, radius, cap=args.cap)
    rows = growth_series(window)
    warnings = []
    samples = []
    for t in offsets:
        hi = min(t + 3, radius - t)
        if hi < t:
            warnings.append(f"offset {t} does not fit the window; skipped")
            continue
        for S in range(t, hi + 1):
            samples.append(CoveringSample(base=S, offset=t, count=covering_number(window, S, t)))
    bg = None
    if radius >= 3:
        # K holds the identity, so K*K is the ball B(2)
        bg = covering_number(window, 1, 1)
    else:
        warnings.append("window too small for the bounded-geometry count")
    config = _base_config(args, radius)
    config.update(cover_offsets=args.cover_offsets)
    result = {
        "rows": [{"r": r.r, "sphere": r.sphere, "ball": r.ball} for r in rows],
        "covering": [{"S": c.base, "t": c.offset, "N": c.count} for c in samples],
        "bounded_geometry": bg,
    }
    lines = [f"group: {config['group']}", "r sphere ball"]
    lines.extend(f"{r.r} {r.sphere} {r.ball}" for r in rows)
    lines.append("covering numbers (cover K^(S+t) by translates of K^S):")
    lines.extend(f"S={c.base} t={c.offset} N={c.count}" for c in samples)
    csv_rows = [("sphere", r.r, r.sphere, r.ball) for r in rows]
    csv_rows.extend(("covering", c.base, c.offset, c.count) for c in samples)
    if bg is not None:
        lines.append(f"bounded geometry count: {bg}")
        csv_rows.append(("bounded_geometry", bg, "", ""))
    csv = _csv_lines(config, "kind,a,b,c", csv_rows)
    return Report(
        command="growth",
        config=config,
        result=result,
        text="\n".join(lines) + "\n",
        csv=csv,
        warnings=warnings,
    )


def cmd_asdim(args) -> Report:
    _at_least("--p", args.p, 1)
    _at_least("--s", args.s, 1)
    _at_least("--pair-budget", args.pair_budget, 1)
    group, gens = _bind(args)
    radius = args.window if args.window is not None else 14
    window = build_window(group, gens, radius, cap=args.cap)
    n_list = None if args.n_list is None else _int_list(args.n_list, "--n-list")
    witness = asdim_upper_bound(
        window,
        p=args.p,
        s=args.s,
        n_list=n_list,
        pair_budget=args.pair_budget,
        seed=args.seed,
    )
    config = _base_config(args, radius)
    config.update(
        p=args.p,
        s=args.s,
        n_list=",".join(str(n) for n in witness.n_list),
        pair_budget=args.pair_budget,
    )
    result = witness.to_json_dict()
    lines = [
        f"group: {config['group']}",
        f"delta_hat: {witness.delta_hat} (probe {list(witness.probe_radii)} -> "
        f"{list(witness.probe_values)})",
        f"delta: {witness.delta}",
        f"N at offset {2 * witness.delta}: {witness.n2delta} "
        f"(samples {[(c.base, c.count) for c in witness.samples]})",
    ]
    for st in witness.annuli:
        lines.append(
            f"annulus n={st.n}: net={st.net_size} sets={st.set_count} "
            f"max_diameter={st.max_diameter} (bound {st.diameter_bound}) "
            f"multiplicity={st.multiplicity}"
        )
    lines.append(f"cross multiplicity: {witness.cross_multiplicity}")
    lines.append(f"asdim bound: {witness.bound}")
    csv = _csv_lines(
        dict(config, delta_hat=witness.delta_hat, delta=witness.delta,
             n2delta=witness.n2delta, bound=witness.bound),
        "n,net_size,sets,max_diameter,max_multiplicity",
        [
            (st.n, st.net_size, st.set_count, st.max_diameter,
             st.multiplicity)
            for st in witness.annuli
        ],
    )
    return Report(
        command="asdim",
        config=config,
        result=result,
        text="\n".join(lines) + "\n",
        csv=csv,
    )


_DISPATCH = {
    "ends": cmd_ends,
    "tree": cmd_tree,
    "clopen": cmd_clopen,
    "growth": cmd_growth,
    "asdim": cmd_asdim,
}


# ---------------------------------------------------------------------------
# Parser and entry


def _add_common(sub, formats=("json", "csv", "text")):
    sub.add_argument("--group", required=True, help="group spec, e.g. Z, Z^2, F2, (C2 * C3)")
    sub.add_argument("--gen-power", type=int, default=1, dest="gen_power",
                     help="use K^t as the generating set (default 1)")
    sub.add_argument("--window", type=int, default=None,
                     help="window radius override (per-command default otherwise)")
    sub.add_argument("--cap", type=int, default=DEFAULT_CAP,
                     help=f"window element cap (default {DEFAULT_CAP})")
    sub.add_argument("--format", choices=list(formats), default="json")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for sampled computations (recorded in reports)")
    sub.add_argument("--out", default=None, help="write the report to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coarse-ends",
        description="coarse-geometric invariants of finitely generated groups "
        "from finite Cayley-graph windows",
    )
    parser.add_argument("--version", action="version", version=f"coarse-ends {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("ends", help="end-count verdict")
    _add_common(p)
    p.add_argument("--rmax", type=int, default=4, help="deepest base radius (default 4)")
    p.add_argument("--span", type=int, default=3, help="stabilization span (default 3)")
    p.add_argument("--growth-span", type=int, default=3, dest="growth_span",
                   help="growth span (default 3)")

    p = subs.add_parser("tree", help="end-approximation tree")
    _add_common(p, formats=("json", "csv", "text", "dot"))
    p.add_argument("--rmin", type=int, default=1)
    p.add_argument("--rmax", type=int, default=4)

    p = subs.add_parser("clopen", help="coarsely-clopen certificate for a subset")
    _add_common(p)
    p.add_argument("--tmax", type=int, default=4, help="largest scale power (default 4)")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--select", default=None,
                     help="subset selector: component:r=<int>:index=<int>")
    grp.add_argument("--elements-file", default=None, dest="elements_file",
                     help="file with one printed element per line ('#' comments)")

    p = subs.add_parser("growth", help="sphere/ball growth and covering numbers")
    _add_common(p)
    p.add_argument("--cover-offsets", default="1,2", dest="cover_offsets",
                   help="comma-separated offsets t to sample (default 1,2)")

    p = subs.add_parser("asdim", help="asymptotic-dimension upper-bound witness")
    _add_common(p)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--n-list", default=None, dest="n_list",
                   help="comma-separated annulus indices (default: fill the window)")
    p.add_argument("--pair-budget", type=int, default=20000, dest="pair_budget",
                   help="geodesic pairs sampled by the delta estimate (default 20000)")

    return parser


def _render(report: Report, fmt: str) -> str:
    if fmt == "json":
        envelope = {
            "schema": REPORT_SCHEMA,
            "version": __version__,
            "command": report.command,
            "config": report.config,
            "seed": report.config.get("seed"),
            "warnings": report.warnings,
            "result": report.result,
        }
        return json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        return report.csv
    if fmt == "dot":
        return report.dot
    return report.text


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        _check_common(args)
        report = _DISPATCH[args.command](args)
    except CoarseEndsError as exc:
        print(f"coarse-ends: {_LABELS[exc.exit_code]}: {exc}", file=sys.stderr)
        return exc.exit_code
    payload = _render(report, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"coarse-ends: error: cannot write the report: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(payload)
    return report.exit_code


def entrypoint() -> None:
    sys.exit(main())
