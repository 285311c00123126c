"""Command-line surface: ends, tree, clopen, growth, asdim.

Reports are deterministic given (command, config, seed): no timestamps,
no timings, stable ordering everywhere. JSON is the canonical format;
csv and text are projections of it, and dot exists for trees only. Each
command builds its window once, in `_bind`, runs its analysis on it and
hands the result, its text lines and its csv rows to one builder,
`_report`, which renders only the format asked for. `growth` reads its
sphere sizes off the spec's growth series, and builds its window only to
the radius its covering numbers read.

Exit codes: 0 determinate result, 1 usage or parse error, 2 element cap
exceeded, 3 Undetermined end verdict, 4 precondition refusal (window too
small, empty shell, non-hyperbolic input, failed cover verification).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

from . import __version__
from .asdim import asdim_upper_bound, covering_number, covering_samples, growth_series
from .cayley import DEFAULT_CAP, build_window
from .covers import clopen_scale_test
from .ends import component_tree, components, end_count
from .errors import (CoarseEndsError, ElementSyntaxError, OutOfWindowError, SelectorError,
                     WindowCapError)
from .groups import (
    DirectProduct,
    FreeAbelian,
    FreeProduct,
    Group,
    parse_spec,
    power_generators,
    spec_to_string,
    standard_generators,
)

REPORT_SCHEMA = "coarse-ends.report/1"


class _ArgumentError(CoarseEndsError):
    """A flag value that parses but that no command can use."""


_LABELS = {1: "error", 2: "resource cap", 4: "refusing"}


def _coordinates(spec) -> int:
    """Coordinates in the generator tuples of the spec's free abelian
    factors, which the group builds at once: 2k^2 for each Z^k."""
    if isinstance(spec, FreeAbelian):
        return 2 * spec.rank**2
    if isinstance(spec, (DirectProduct, FreeProduct)):
        return _coordinates(spec.left) + _coordinates(spec.right)
    return 0


def _steps(args, radius: int) -> tuple:
    """The group and the step set of a window of the given radius, built
    from the common flags. A spec whose free abelian generators alone hold
    more coordinates than the cap is refused before they are built."""
    spec = parse_spec(args.group)
    if _coordinates(spec) > args.cap:
        raise WindowCapError(args.cap, 0)
    group = Group(spec)
    gens = standard_generators(group)
    if args.gen_power > 1:
        # K^t is B(1) of the window, so a window of radius 1 or more stops
        # at the cap before K^t is complete
        cap = args.cap if radius >= 1 else None
        gens = power_generators(group, gens, args.gen_power, cap)
    return group, gens


def _bind(args, default_radius: int, table: bool = False):
    """The window a command reads, built from the common flags.

    table has the search write the generator table, for the commands that
    read neighbours."""
    radius = args.window if args.window is not None else default_radius
    group, gens = _steps(args, radius)
    return build_window(group, gens, radius, cap=args.cap, table=table)


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


def _bool(b) -> str:
    return "true" if b else "false"


def _report(args, window, config, result, lines, header, rows, *, csv_config=(),
            warnings=(), tree=None, exit_code=0) -> tuple:
    """(payload, exit code) of a command's report, rendered in args.format only.

    config holds the command's own settings, after the common ones; a
    common key in it replaces the window's value in place. json
    wraps result in the envelope. csv writes the config, with csv_config
    added, as sorted `# key=value` lines, then header and rows. text writes
    a `group:` line, then lines. dot writes the tree's graph.
    """
    config = {
        "group": spec_to_string(window.group.spec),
        "gen_power": args.gen_power,
        "window": window.radius,
        "cap": args.cap,
        "seed": args.seed,
        **config,
    }
    if args.format == "json":
        envelope = {
            "schema": REPORT_SCHEMA,
            "version": __version__,
            "command": args.command,
            "config": config,
            "seed": args.seed,
            "warnings": list(warnings),
            "result": result,
        }
        payload = json.dumps(envelope, sort_keys=True, indent=2)
    elif args.format == "csv":
        config.update(csv_config)
        lines = [f"# {k}={config[k]}" for k in sorted(config)]
        lines.append(header)
        lines.extend(",".join(str(x) for x in row) for row in rows)
        payload = "\n".join(lines)
    elif args.format == "dot":
        payload = tree.to_dot()
    else:
        payload = "\n".join([f"group: {config['group']}", *lines])
    return payload + "\n", exit_code


# ---------------------------------------------------------------------------
# Commands


def cmd_ends(args) -> tuple:
    _at_least("--rmax", args.rmax, 1)
    _at_least("--span", args.span, 1)
    _at_least("--growth-span", args.growth_span, 2)
    window = _bind(args, 2 * args.rmax + 4, table=True)
    verdict = end_count(window, args.rmax, stab_span=args.span, growth_span=args.growth_span)
    lines = [
        f"verdict: {verdict.verdict}",
        f"note: {verdict.note}",
        f"window radius: {window.radius}"
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
    config = dict(rmax=args.rmax, span=args.span, growth_span=args.growth_span)
    rows = [(c.r, c.outer, c.inner) for c in verdict.evidence.counts]
    return _report(args, window, config, verdict.to_json_dict(), lines, "r,outer,inner",
                   rows, csv_config={"verdict": verdict.verdict},
                   exit_code=3 if verdict.verdict == "Undetermined" else 0)


def cmd_tree(args) -> tuple:
    _at_least("--rmin", args.rmin, 0)
    _at_least("--rmax", args.rmax, args.rmin)
    window = _bind(args, 2 * args.rmax + 4, table=True)
    tree = component_tree(window, args.rmin, args.rmax)
    lines = [f"verdict: {tree.verdict}"]
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
    config = dict(rmin=args.rmin, rmax=args.rmax)
    return _report(args, window, config, tree.to_json_dict(), lines,
                   "r,id,size,outer,parent", rows, csv_config={"verdict": tree.verdict}, tree=tree,
                   exit_code=3 if tree.verdict == "Undetermined" else 0)


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


def _load_elements(path: str, window, power: int) -> set:
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
            # no window element holds a free word of more than R * power letters
            g = window.group.parse(text, window.radius * power)
            if g not in window:
                raise OutOfWindowError(text)
        except ElementSyntaxError as exc:
            raise SelectorError(f"{path}:{lineno}: {exc}") from None
        except OutOfWindowError:
            raise SelectorError(
                f"{path}:{lineno}: element {text!r} lies outside the window"
            ) from None
        out.add(g)
    return out


def cmd_clopen(args) -> tuple:
    _at_least("--tmax", args.tmax, 1)
    window = _bind(args, 4 * args.tmax + 4, table=True)
    if args.select is not None:
        chosen_set = _parse_selector(args.select)
        chosen = f"select={args.select}"
    else:
        chosen_set = _load_elements(args.elements_file, window, args.gen_power)
        chosen = f"elements_file={args.elements_file}"
    cert = clopen_scale_test(window, chosen_set, args.tmax)
    lines = [
        f"set: {chosen}",
        f"verdict: {'clopen-consistent' if cert.verdict else 'not clopen'}",
    ]
    for e in cert.entries:
        lines.append(
            f"t={e.scale_t} rho={e.rho} core={e.core_radius} "
            f"stable={_bool(e.stable)} verdict={_bool(e.verdict)}"
        )
    rows = [
        (e.scale_t, e.rho, e.core_radius, _bool(e.stable), _bool(e.verdict))
        for e in cert.entries
    ]
    result = {**cert._asdict(), "entries": tuple(e._asdict() for e in cert.entries)}
    return _report(args, window, dict(tmax=args.tmax, set=chosen), result, lines,
                   "scale_t,rho,core_radius,stable,verdict", rows,
                   csv_config={"verdict": _bool(cert.verdict)})


def cmd_growth(args) -> tuple:
    offsets = _int_list(args.cover_offsets, "--cover-offsets")
    for t in offsets:
        _at_least("--cover-offsets", t, 1)
    radius = args.window if args.window is not None else 8
    group, gens = _steps(args, radius)
    series = growth_series(group.spec, radius, args.gen_power, args.cap)
    # Past the largest offset T, the report reads only sphere sizes: offset
    # t <= T covers B(S + t) for S <= min(t + 3, R - t), which is t + 3 on a
    # window of radius W = 2T + 3 whenever R >= W, and the bounded-geometry
    # count reads B(2) when R >= 3 (W >= 5). So the window stops at W.
    window = build_window(group, gens, min(radius, 2 * max(offsets) + 3), cap=args.cap)
    warnings = []
    samples = []
    for t in offsets:
        fits = covering_samples(window, t)
        if not fits:
            warnings.append(f"offset {t} does not fit the window; skipped")
        samples.extend(fits)
    bg = None
    if radius >= 3:
        # K holds the identity, so K*K is the ball B(2)
        bg = covering_number(window, 1, 1)
    else:
        warnings.append("window too small for the bounded-geometry count")
    result = {
        "rows": [{"r": r.r, "sphere": r.sphere, "ball": r.ball} for r in series],
        "covering": [{"S": c.base, "t": c.offset, "N": c.count} for c in samples],
        "bounded_geometry": bg,
    }
    lines = ["r sphere ball"]
    lines.extend(f"{r.r} {r.sphere} {r.ball}" for r in series)
    lines.append("covering numbers (cover K^(S+t) by translates of K^S):")
    lines.extend(f"S={c.base} t={c.offset} N={c.count}" for c in samples)
    rows = [("sphere", r.r, r.sphere, r.ball) for r in series]
    rows.extend(("covering", c.base, c.offset, c.count) for c in samples)
    if bg is not None:
        lines.append(f"bounded geometry count: {bg}")
        rows.append(("bounded_geometry", bg, "", ""))
    return _report(args, window, dict(window=radius, cover_offsets=args.cover_offsets),
                   result, lines, "kind,a,b,c", rows, warnings=warnings)


def cmd_asdim(args) -> tuple:
    _at_least("--p", args.p, 1)
    _at_least("--s", args.s, 1)
    _at_least("--pair-budget", args.pair_budget, 1)
    window = _bind(args, 14)
    n_list = None if args.n_list is None else _int_list(args.n_list, "--n-list")
    witness = asdim_upper_bound(
        window,
        p=args.p,
        s=args.s,
        n_list=n_list,
        pair_budget=args.pair_budget,
        seed=args.seed,
    )
    lines = [
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
    config = dict(
        p=args.p,
        s=args.s,
        n_list=",".join(str(n) for n in witness.n_list),
        pair_budget=args.pair_budget,
    )
    rows = [
        (st.n, st.net_size, st.set_count, st.max_diameter,
         st.multiplicity)
        for st in witness.annuli
    ]
    return _report(args, window, config, witness.to_json_dict(), lines,
                   "n,net_size,sets,max_diameter,max_multiplicity", rows,
                   csv_config=dict(delta_hat=witness.delta_hat, delta=witness.delta,
                                   n2delta=witness.n2delta, bound=witness.bound))


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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        _check_common(args)
        payload, code = _DISPATCH[args.command](args)
    except CoarseEndsError as exc:
        print(f"coarse-ends: {_LABELS[exc.exit_code]}: {exc}", file=sys.stderr)
        return exc.exit_code
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"coarse-ends: error: cannot write the report: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(payload)
    return code


def entrypoint() -> None:
    sys.exit(main())
