"""Growth data, covering numbers, and the annulus-cover asymptotic-dimension witness.

The witness machinery works in three stages. First a thin-geodesics
diagnostic: over pairs of canonical geodesics from the identity, measure
the largest distance between same-index points within the range where the
two endpoints' distance permits fellow-traveling; a value that keeps
growing with the window radius is treated as evidence against coarse
hyperbolicity and the witness refuses to proceed. Second, covering
numbers: N is the largest number of radius-S ball translates needed to
cover a radius-(S+t) ball over sampled S, at offset t = 2*delta. Third,
annulus covers: on each annulus between norms 2n and 2n+2ps, elements are
grouped by the last point where their canonical geodesic crosses the norm
2n sphere, bucketed around a 2ps-separated net on that sphere. Exact
scans then confirm the diameter and multiplicity laws that make the
family of covers witness asdim <= 2*N - 1.

Three scans skip work whose outcome is already known. The greedy cover
sorts one sphere at a time, outermost first, and only the elements still
uncovered when their sphere comes up: covered only grows, so it picks the
centres that one sort of the whole target would. The diameter scan visits
each distinct cover set once, since a maximum over sets cannot be raised
by a set met again. The thin-geodesics scan compares same-index points
from the top index down and stops where the two geodesics meet: canonical
geodesics are predecessor walks, so they agree at every lower index, where
the distance is 0.

All greedy choices (net points, cover centers) are ordered by norm then
printed form, so witnesses are reproducible byte for byte. Ball translates
are products, not neighbour-table walks: a greedy cover on a free group
spends about one product per covered element, less than the |K|/2 per
element that a table costs. perfbench/spans.py wraps `greedy_ball_cover`,
`build_annulus_cover` and `verify_cover` by name.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .cayley import Window
from .errors import (
    CoverVerificationError,
    EmptyShellError,
    NonHyperbolicError,
    ParameterError,
)

__all__ = [
    "GrowthRow",
    "CoveringSample",
    "growth_series",
    "greedy_ball_cover",
    "covering_number",
    "bounded_geometry_check",
    "estimate_delta",
    "SeparatedNet",
    "AnnulusCover",
    "CoverStats",
    "AsdimWitness",
    "build_annulus_cover",
    "verify_cover",
    "asdim_upper_bound",
]


# ---------------------------------------------------------------------------
# Growth and covering numbers


@dataclass(frozen=True)
class GrowthRow:
    r: int
    sphere: int
    ball: int


@dataclass(frozen=True)
class CoveringSample:
    base: int
    offset: int
    count: int


def growth_series(window: Window) -> tuple:
    """Sphere and cumulative ball sizes per radius, straight from the window."""
    off = window.offsets
    return tuple(
        GrowthRow(r=r, sphere=off[r + 1] - off[r], ball=off[r + 1])
        for r in range(window.radius + 1)
    )


def greedy_ball_cover(window: Window, target: Iterable, s: int) -> list:
    """Cover target by balls g*B(s); returns the chosen centers in order.

    Rule: take the deepest uncovered element (largest norm, then least
    printed form), walk its canonical geodesic back by s steps, and use
    that point as the next center. Centering on the geodesic prefix makes
    one translate swallow the whole branch below it, which is what keeps
    the count flat as the target grows on tree-like groups.
    """
    if s < 0:
        raise ParameterError("covering radius must be nonnegative")
    grp = window.group
    remaining = set(target)
    by_norm: dict = {}
    for g in remaining:
        by_norm.setdefault(window.knorm(g), []).append(g)
    ball = window.ball(min(s, window.radius))
    centers = []
    covered = set()
    for k in sorted(by_norm, reverse=True):
        # covered only grows, so what is covered now would be skipped anyway
        for u in sorted((g for g in by_norm[k] if g not in covered), key=grp.key):
            if u in covered:
                continue
            center = window.geodesic(u)[max(k - s, 0)]
            centers.append(center)
            for v in ball:
                y = grp.mul(center, v)
                if y in remaining:
                    covered.add(y)
    return centers


def covering_number(window: Window, S: int, t: int) -> int:
    """Greedy count of radius-S ball translates covering the radius-(S+t) ball."""
    if S < 0 or t < 0:
        raise ParameterError("base radius and offset must be nonnegative")
    if S + t > window.radius:
        raise ParameterError(
            f"covering K^{S + t} needs window radius >= {S + t}, have {window.radius}"
        )
    if t == 0:
        return 1
    target = window.ball(S + t)
    return len(greedy_ball_cover(window, target, S))


def bounded_geometry_check(window: Window) -> int:
    """Greedy count of generator-set translates covering the product set K*K.

    K holds the identity, so K*K is the window ball B(2) as a set.
    """
    if window.radius < 3:
        raise ParameterError("window radius must be at least 3")
    return covering_number(window, 1, 1)


# ---------------------------------------------------------------------------
# Thin-geodesics diagnostic


def estimate_delta(window: Window, pair_budget: int = 20000, seed: int = 0) -> int:
    """Largest same-index distance between canonical geodesic pairs.

    For endpoints g, h at distance d, indices up to (|g|+|h|-d)/2 are
    compared. All unordered pairs are scanned when they fit the budget;
    otherwise a seeded sample of the budget's size is drawn, making the
    estimate a deterministic lower bound either way. Pairs whose endpoint
    distance is not visible in the window are skipped; a same-index
    distance that escapes the window is counted as R+1. A sample in which
    no pair reaches the comparison raises ParameterError, since its 0
    would rest on no pair at all.
    """
    if pair_budget < 1:
        raise ParameterError(f"pair_budget must be at least 1, got {pair_budget}")
    grp = window.group
    els = [g for g in window if window.norms[g] > 0]
    n = len(els)
    pairs: Iterable
    sampled = n * (n - 1) // 2 > pair_budget
    if not sampled:
        pairs = ((els[i], els[j]) for i in range(n) for j in range(i + 1, n))
    else:
        rng = random.Random(seed)

        def draw():
            for _ in range(pair_budget):
                i = rng.randrange(n)
                j = rng.randrange(n)
                if i != j:
                    yield els[i], els[j]

        pairs = draw()
    geos = {}

    def geo(g):
        cached = geos.get(g)
        if cached is None:
            cached = window.geodesic(g)
            geos[g] = cached
        return cached

    best = 0
    informative = 0
    for g, h in pairs:
        rel = grp.mul(grp.inv(g), h)
        if rel not in window.norms:
            continue
        d = window.norms[rel]
        top = (window.norms[g] + window.norms[h] - d) // 2
        if top <= 0:
            continue
        informative += 1
        cg = geo(g)
        ch = geo(h)
        # both are predecessor walks: once they meet, they agree below
        for i in range(top, 0, -1):
            if cg[i] == ch[i]:
                break
            y = grp.mul(grp.inv(cg[i]), ch[i])
            val = window.norms.get(y, window.radius + 1)
            if val > best:
                best = val
    if sampled and not informative:
        raise ParameterError(
            f"no sampled pair in the radius-{window.radius} window compares geodesics;"
            f" pair budget {pair_budget} is too small"
        )
    return best


PROBE_RADII = (4, 6, 8)  # windows whose delta_hat must not strictly increase


# ---------------------------------------------------------------------------
# Annulus covers


@dataclass(frozen=True)
class SeparatedNet:
    separation: int  # = 2ps
    points: tuple


@dataclass(frozen=True)
class AnnulusCover:
    n: int
    p: int
    s: int
    window: Window
    net: SeparatedNet
    annulus: tuple
    sets: tuple  # sets[i] = elements assigned to net point i, window order
    assignment: dict  # element -> sorted tuple of set indices
    last_exit: dict  # element -> geodesic point at norm 2n


@dataclass(frozen=True)
class CoverStats:
    n: int
    net_size: int
    set_count: int
    max_diameter: int
    diameter_bound: int  # 8ps
    multiplicity: dict  # probe radius -> max set count met by one ball
    worst_center: Optional[str]
    passed: bool


def build_annulus_cover(window: Window, n: int, p: int, s: int) -> AnnulusCover:
    """Cover the annulus of norms (2n, 2n+2ps] by last-exit buckets.

    A maximal 2ps-separated net is chosen on the norm-2n sphere in printed
    order; each annulus element g is assigned to every net point within
    2ps of the point where g's canonical geodesic leaves that sphere. Net
    maximality makes the buckets a cover; an unassigned element would be a
    construction bug and raises.
    """
    if p < 1 or s < 1:
        raise ParameterError("p and s must be at least 1")
    ps = p * s
    if n <= ps:
        raise ParameterError(f"need n > p*s, got n={n}, p*s={ps}")
    if 2 * n + 2 * ps > window.radius:
        raise ParameterError(
            f"annulus reaches norm {2 * n + 2 * ps}, window radius is {window.radius}"
        )
    grp = window.group
    shell = window.sphere(2 * n)
    if not shell:
        raise EmptyShellError(f"the norm-{2 * n} sphere is empty; the group is exhausted")
    sep = 2 * ps
    shell_set = set(shell)
    block_ball = window.ball(sep - 1)
    net_points = []
    blocked = set()
    for x in sorted(shell, key=grp.key):
        if x in blocked:
            continue
        net_points.append(x)
        for u in block_ball:
            y = grp.mul(x, u)
            if y in shell_set:
                blocked.add(y)
    net = SeparatedNet(separation=sep, points=tuple(net_points))
    net_index = {x: i for i, x in enumerate(net_points)}
    assign_ball = window.ball(sep)
    annulus = tuple(window.annulus(2 * n, 2 * n + sep))
    near_cache = {}
    assignment = {}
    last_exit = {}
    sets = [[] for _ in net_points]
    for g in annulus:
        rho = window.geodesic(g)[2 * n]
        last_exit[g] = rho
        ids = near_cache.get(rho)
        if ids is None:
            hits = set()
            for u in assign_ball:
                y = grp.mul(rho, u)
                i = net_index.get(y)
                if i is not None:
                    hits.add(i)
            ids = tuple(sorted(hits))
            near_cache[rho] = ids
        if not ids:
            raise CoverVerificationError(
                f"annulus element {grp.show(g)} is not within {sep} of any net point"
            )
        assignment[g] = ids
        for i in ids:
            sets[i].append(g)
    return AnnulusCover(
        n=n,
        p=p,
        s=s,
        window=window,
        net=net,
        annulus=annulus,
        sets=tuple(tuple(v) for v in sets),
        assignment=assignment,
        last_exit=last_exit,
    )


def _probe_multiplicity(covers: Sequence[AnnulusCover], radius: int) -> tuple:
    """Most distinct sets, over covers of one window, met by one probe ball.

    Sets are told apart by their cover. The probe balls of the radius are
    centered, in window order, on every element whose ball can meet the
    annuli from that of covers[0] to that of covers[-1]. Returns the
    maximum and the first center reaching it (None when no ball meets a set).
    """
    window = covers[0].window
    grp = window.group
    assignment: dict = {}
    base = 0
    for cover in covers:
        for g, ids in cover.assignment.items():
            assignment[g] = assignment.get(g, ()) + tuple(base + i for i in ids)
        base += len(cover.sets)
    last = covers[-1]
    lo = max(0, 2 * covers[0].n + 1 - radius)
    hi = min(window.radius, 2 * last.n + 2 * last.p * last.s + radius)
    ball = window.ball(radius)
    best = 0
    best_center = None
    for z in window.elements[window.offsets[lo] : window.offsets[hi + 1]]:
        seen = set()
        for u in ball:
            ids = assignment.get(grp.mul(z, u))
            if ids:
                seen.update(ids)
        if len(seen) > best:
            best = len(seen)
            best_center = z
    return best, best_center


def verify_cover(cover: AnnulusCover, probe_radius: int, n2delta: int) -> CoverStats:
    """Exact diameter and multiplicity scan for one annulus cover.

    Probe balls of each radius up to probe_radius are centered on every
    window element whose norm allows the ball to meet the annulus; the
    multiplicity at a center is how many distinct cover sets the ball
    meets. Passing means max diameter <= 8ps and multiplicity at the top
    probe radius <= n2delta.
    """
    window = cover.window
    grp = window.group
    ps = cover.p * cover.s
    if not 1 <= probe_radius <= ps:
        raise ParameterError(f"probe radius must lie in 1..{ps}")
    max_diam = 0
    # a maximum over sets: an equal set met again cannot raise it
    for members in dict.fromkeys(cover.sets):
        for i, g in enumerate(members):
            g_inv = grp.inv(g)
            for h in members[i + 1 :]:
                d = window.norms.get(grp.mul(g_inv, h), window.radius + 1)
                if d > max_diam:
                    max_diam = d
    multiplicity = {}
    worst_center = None
    for pr in range(1, probe_radius + 1):
        best, best_center = _probe_multiplicity((cover,), pr)
        multiplicity[pr] = best
        if best > n2delta and worst_center is None:
            worst_center = window.group.show(best_center)
    passed = max_diam <= 8 * ps and multiplicity[probe_radius] <= n2delta
    if max_diam > 8 * ps and worst_center is None:
        worst_center = "diameter law"
    return CoverStats(
        n=cover.n,
        net_size=len(cover.net.points),
        set_count=len(cover.sets),
        max_diameter=max_diam,
        diameter_bound=8 * ps,
        multiplicity=multiplicity,
        worst_center=worst_center,
        passed=passed,
    )


@dataclass(frozen=True)
class AsdimWitness:
    delta_hat: int
    delta: int
    n2delta: int
    samples: tuple  # CoveringSample at offset 2*delta
    annuli: tuple  # CoverStats per n
    cross_multiplicity: Optional[int]
    bound: int
    p: int
    s: int
    n_list: tuple
    probe_radii: tuple
    probe_values: tuple

    def to_json_dict(self) -> dict:
        return {
            "delta_hat": self.delta_hat,
            "delta": self.delta,
            "N2delta": self.n2delta,
            "samples": [
                {"S": c.base, "t": c.offset, "N": c.count} for c in self.samples
            ],
            "annuli": [
                {
                    "n": st.n,
                    "net_size": st.net_size,
                    "sets": st.set_count,
                    "max_diameter": st.max_diameter,
                    "max_multiplicity": st.multiplicity[max(st.multiplicity)],
                }
                for st in self.annuli
            ],
            "cross_multiplicity": self.cross_multiplicity,
            "bound": self.bound,
            "p": self.p,
            "s": self.s,
            "n_list": list(self.n_list),
            "probe_radii": list(self.probe_radii),
            "probe_values": list(self.probe_values),
        }


def asdim_upper_bound(
    window: Window,
    p: int = 1,
    s: int = 1,
    n_list: Optional[Sequence[int]] = None,
    pair_budget: int = 20000,
    seed: int = 0,
) -> AsdimWitness:
    """Full asymptotic-dimension witness: bound 2*N - 1 with verified covers.

    Refuses with NonHyperbolicError when the thin-geodesics estimate
    strictly increases across window.at(r), r in PROBE_RADII (grown under
    the window's cap past R). delta is max(delta_hat, 1)
    + 1, the offset is t = 2*delta, and N maximizes the covering number
    over base radii S in [t, min(t+3, R-t)]. Annuli must be spaced by
    exactly p*s so that consecutive pairs are adjacent; each cover is
    verified alone (diameter and multiplicity) and each adjacent pair is
    scanned jointly against the 2N ceiling.
    """
    if p < 1 or s < 1:
        raise ParameterError("p and s must be at least 1")
    ps = p * s
    radius = window.radius
    probe_values = tuple(estimate_delta(window.at(r), pair_budget, seed) for r in PROBE_RADII)
    if all(a < b for a, b in zip(probe_values, probe_values[1:])):
        raise NonHyperbolicError(PROBE_RADII, probe_values)
    delta_hat = estimate_delta(window, pair_budget, seed)
    delta = max(delta_hat, 1) + 1
    t = 2 * delta
    s_hi = min(t + 3, radius - t)
    if s_hi < t:
        raise ParameterError(
            f"window radius {radius} too small to sample covering numbers at offset {t}"
        )
    samples = tuple(
        CoveringSample(base=S, offset=t, count=covering_number(window, S, t))
        for S in range(t, s_hi + 1)
    )
    n2delta = max(c.count for c in samples)
    if n_list is None:
        n_list = list(range(ps + 1, (radius - 2 * ps) // 2 + 1, ps))
    n_list = [int(n) for n in n_list]
    if not n_list:
        raise ParameterError("no admissible annulus indices fit the window")
    for n in n_list:
        if n <= ps:
            raise ParameterError(f"annulus index {n} must exceed p*s = {ps}")
        if 2 * n + 2 * ps > radius:
            raise ParameterError(f"annulus index {n} does not fit window radius {radius}")
    for a, b in zip(n_list, n_list[1:]):
        if b - a != ps:
            raise ParameterError(
                f"annulus indices must step by p*s = {ps} to tile; got {a} then {b}"
            )
    covers = [build_annulus_cover(window, n, p, s) for n in n_list]
    stats = []
    for cov in covers:
        st = verify_cover(cov, ps, n2delta)
        if not st.passed:
            raise CoverVerificationError(
                f"annulus n={cov.n} failed verification at {st.worst_center}: "
                f"diameter {st.max_diameter} (bound {st.diameter_bound}), "
                f"multiplicity {st.multiplicity}"
            )
        stats.append(st)
    cross = None
    if len(covers) >= 2:
        cross = 0
        for cov_a, cov_b in zip(covers, covers[1:]):
            val, _ = _probe_multiplicity((cov_a, cov_b), ps)
            if val > 2 * n2delta:
                raise CoverVerificationError(
                    f"adjacent annuli n={cov_a.n},{cov_b.n} exceed the cross bound: "
                    f"{val} > {2 * n2delta}"
                )
            cross = max(cross, val)
    return AsdimWitness(
        delta_hat=delta_hat,
        delta=delta,
        n2delta=n2delta,
        samples=samples,
        annuli=tuple(stats),
        cross_multiplicity=cross,
        bound=2 * n2delta - 1,
        p=p,
        s=s,
        n_list=tuple(n_list),
        probe_radii=PROBE_RADII,
        probe_values=probe_values,
    )
