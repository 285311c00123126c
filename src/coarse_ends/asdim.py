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

The exact scans skip work whose outcome is already known. Write D(g, h)
for min(|g^-1 h|, R+1), a distance read off the radius-R window with an
escape counted as R+1. It keeps the triangle inequality D(g, h) <= D(g, p)
+ D(p, h): the true distances obey it, and a term of R+1 already bounds D.

The greedy cover sorts one sphere at a time, outermost first, and only the
elements still uncovered when their sphere comes up: covered only grows,
so it picks the centres that one sort of the whole target would. It keeps
every product of a translate, since covered is read only at target
elements. Its norm buckets are filled a run of equal norms at a time
(itertools.groupby), so a ball, which is in norm order, costs one run per
sphere, and any target keeps its order and repeats within a bucket.
A covering number needs only the count, so on the outermost sphere S(k)
of B(S+t) it counts the classes of the greedy's centres instead: the
greedy centres every u in S(k) on the sphere C = S(max(k - S, 0)), and
when the balls of C meet S(k) in pairwise disjoint sets, it picks each
ball that meets S(k) once, in any printed order. The balls are taken in
window order and checked for disjointness on S(k) as they are added; at
the first overlap the count is the greedy's, from scratch. Where
geodesics are unique, as on a free group, (C2 * C2) or (C2 * C3), the
classes are disjoint, and the outermost sphere is never printed.

The multiplicity scans read a reach map per cover: for every window
element z, how many sets the probe ball z*B(r) meets. The map is built
from the assigned side, one translate y*B(r) per assigned y: z*u = y
exactly when z = y*u^-1, B(r)^-1 = B(r) on a symmetric step set, and every
z it finds lies in the band of norms 2n+1-r .. 2n+2ps+r that a scan over
probe centres would visit. The sets of two covers are distinct, so the
cross multiplicity of adjacent covers is the largest sum of their two
counts at one z. The worst centre, the first probe centre in window order
whose count is the maximum, is found by lookups alone.

The diameter scan visits each distinct cover set once, since a maximum
over sets cannot be raised by a set met again. It bounds pairs through
exit points. For a member x let k = min(2n, |x|) and let rho_x, its exit,
be point k of x's canonical geodesic; then D(x, rho_x) = |x| - k, the
rise of x. So D(g, h) <= rise_g + D(rho_g, rho_h) + rise_h, and
D(rho_g, rho_h) <= D(rho_g, pi) + D(pi, rho_h) for a pivot exit pi, the
first member's. A set's members are grouped by (exit, rise); one distance
to pi per distinct exit ranks the pairs of groups by the bound through
pi, and they are taken in descending order until that bound is at most
the largest distance found, which no later pair can then exceed. A pair
of groups that passes forms its exact exit distance, memoised across the
cover's sets, and is skipped if the bound through it is at most the
maximum; otherwise its member pairs are scanned until one reaches that
bound. The build keeps each annulus element's exit; any other member walks
its predecessors. The witness is stated for symmetric step sets, and
`verify_cover` refuses any other: there |x^-1| = |x|, so D(rho, pi) =
D(pi, rho).

The thin-geodesics scan compares same-index points from the top index down
and stops where the two geodesics meet: canonical geodesics are
predecessor walks, so they agree at every lower index, where the distance
is 0. It also stops at the first index i with 2i <= the largest value so
far: point i of a canonical geodesic has norm i, so D(cg[i], ch[i]) <= 2i.
A pair whose top index already fails that builds no geodesic, though it
still counts as informative. The scan at radius r reads B(r) off any
window of radius at least r: its elements but the identity are a prefix of
window order, a distance is visible when it is at most r, and an escape
counts as r + 1. So the probes at 4, 6 and 8 and delta_hat at R read one
window, the window itself or its growth to radius 8 when it is smaller,
and share one geodesic memo, since a canonical geodesic is the same in
every window that holds its end.

Cover centres and last-exit points come from predecessor walks. Point i
of g's canonical geodesic is |g| - i predecessor steps back from g, so
the greedy cover walks min(s, |u|) steps back from u, and the annulus
cover |g| - 2n steps back from g, keeping that exit for the diameter
scan, instead of building a whole geodesic to read one point of it. The
thin-geodesics scan keeps whole geodesics, since it reads a range of
indices.

All greedy choices (net points, cover centers) are ordered by norm then
printed form, so witnesses are reproducible byte for byte; the printed
keys come in one batch per sphere (Group.sort_printed, through
Group.show_many), one for the uncovered part of each target sphere and
one for the net's shell. A covering number prints no batch for its
outermost sphere when the classes there are disjoint, and one for each
sphere, the outermost included, when they meet. Ball translates
walk B(r)'s predecessor tree with step maps (Window.translator), not the
neighbour table: a greedy cover on a free group spends about one step
product per covered element, less than the |K|/2 per element that a table
costs, and a translate y*B(r) may leave the window, which is only sure to
reach norm 2n+2ps. Distances D(g, h) come from group.divide, which forms
g^-1 h without forming g^-1. A reach map is made on the first request and
kept on the cover, so the cross scan reads the maps that `verify_cover`
built at radius ps.
perfbench/spans.py wraps `greedy_ball_cover`, `build_annulus_cover` and
`verify_cover` by name; a covering number calls `greedy_ball_cover` only
when two classes meet, so its span times those covers alone. The
witness's thin-geodesics scans run inside `asdim_upper_bound`, not
through `estimate_delta`.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import (
    combinations,
    combinations_with_replacement,
    count,
    filterfalse,
    groupby,
    islice,
    product,
)
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .cayley import DEFAULT_CAP, Window
from .errors import (
    CoverVerificationError,
    EmptyShellError,
    MismatchError,
    NonHyperbolicError,
    ParameterError,
    WindowCapError,
)
from .groups import Cyclic, DirectProduct, Free, FreeAbelian, FreeProduct

__all__ = [
    "GrowthRow",
    "CoveringSample",
    "growth_series",
    "greedy_ball_cover",
    "covering_number",
    "estimate_delta",
    "AnnulusCover",
    "CoverStats",
    "AsdimWitness",
    "build_annulus_cover",
    "verify_cover",
    "asdim_upper_bound",
]


# ---------------------------------------------------------------------------
# Growth and covering numbers
#
# Sphere sizes come from the spec, not from a window. Under the standard
# generators every spec's growth series is rational, P/Q with Q(0) = 1:
# (1+z)/(1-z) for Z, so ((1+z)/(1-z))^k for Z^k; (1+z)/(1-(2k-1)z) for Fk;
# (1 + z - z^ceil(n/2) - z^(floor(n/2)+1))/(1-z) for Cn, whose spheres are
# 1, 2, ..., 2 and a last 1 when n is even. Polynomials are kept sparse, as
# {exponent: coefficient}, so a large n costs no more than a small one.
# A direct product's series is the product
# of its factors', (P_A P_B, Q_A Q_B), and a free product's f solves
# 1/f = 1/f_A + 1/f_B - 1 (de la Harpe, Topics in Geometric Group Theory,
# ch. VI), so it is (P_A P_B, Q_A P_B + P_A Q_B - P_A P_B). Q*a = P gives
# each sphere from the deg Q before it, so R radii cost O(R * deg Q).


class GrowthRow(NamedTuple):
    r: int
    sphere: int
    ball: int


class CoveringSample(NamedTuple):
    base: int
    offset: int
    count: int


def _times(f: Counter, g: Counter) -> Counter:
    """The product of two polynomials kept as {exponent: coefficient}."""
    out = Counter()
    for i, a in f.items():
        for j, b in g.items():
            out[i + j] += a * b
    return out


def _rational_series(spec) -> tuple:
    """(P, Q) with P/Q the growth series of spec under its standard
    generators and Q(0) = 1 (see the section comment)."""
    if isinstance(spec, FreeAbelian):
        p, q = Counter({0: 1}), Counter({0: 1})
        for _ in range(spec.rank):
            p, q = _times(p, Counter({0: 1, 1: 1})), _times(q, Counter({0: 1, 1: -1}))
        return p, q
    if isinstance(spec, Free):
        return Counter({0: 1, 1: 1}), Counter({0: 1, 1: 1 - 2 * spec.rank})
    if isinstance(spec, Cyclic):
        n = spec.order
        p = Counter({0: 1, 1: 1})
        p.subtract([(n + 1) // 2, n // 2 + 1])  # one exponent twice when n is odd
        return p, Counter({0: 1, 1: -1})
    if not isinstance(spec, (DirectProduct, FreeProduct)):
        raise MismatchError(f"not a group spec: {spec!r}")
    (pa, qa), (pb, qb) = _rational_series(spec.left), _rational_series(spec.right)
    p = _times(pa, pb)
    if isinstance(spec, DirectProduct):
        return p, _times(qa, qb)
    q = _times(qa, pb)
    q.update(_times(pa, qb))
    q.subtract(p)
    return p, q


def _sphere_sizes(spec) -> Iterator[int]:
    """The sphere sizes of spec under its standard generators, from radius
    0 up to its last nonempty sphere: a_r = p_r - sum of q_k * a_(r-k)."""
    p, q = _rational_series(spec)
    terms = [(k, c) for k, c in q.items() if k and c]
    a = []
    for r in count():
        size = p[r] - sum(c * a[r - k] for k, c in terms if k <= r)
        if not size:
            return  # a Cayley graph past an empty sphere has no element left
        a.append(size)
        yield size


def growth_series(spec, radius: int, power: int = 1, cap: int = DEFAULT_CAP) -> tuple:
    """Sphere and cumulative ball sizes per radius, up to radius, under the
    standard generators K of spec or, with power t, under K^t.

    K holds the identity, so K^t = B_K(t) and the K^t-ball of radius m is
    the K-ball of radius t*m. Raises WindowCapError(cap, m - 1) at the
    first radius m whose ball holds more than cap elements, the error
    build_window raises on the same generators.
    """
    if power < 1:
        raise ParameterError(f"generator power must be at least 1, got {power}")
    if cap < 1:
        raise ParameterError(f"window element cap must be at least 1, got {cap}")
    sizes = _sphere_sizes(spec)
    rows = []
    ball = 0
    for m in range(radius + 1):
        sphere = sum(islice(sizes, power if m else 1))
        if ball + sphere > cap:
            raise WindowCapError(cap, m - 1)
        ball += sphere
        rows.append(GrowthRow(r=m, sphere=sphere, ball=ball))
    return tuple(rows)


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
    norms = window.norms
    target = list(target)
    outside = next(filterfalse(norms.__contains__, target), None)
    if outside is not None:
        window.knorm(outside)  # raises, naming the first outside element in target order
    by_norm: dict = {}
    # a ball is in norm order, so each of its spheres is one run
    for k, run in groupby(target, norms.__getitem__):
        by_norm.setdefault(k, []).extend(run)
    spheres = [(k, by_norm[k]) for k in sorted(by_norm, reverse=True)]
    return _greedy_spheres(window, spheres, s, window.translator(min(s, window.radius)), set())


def _greedy_spheres(window: Window, spheres: list, s: int, translate, covered: set) -> list:
    """The greedy cover's centres for spheres, (norm, elements) pairs
    outermost first, given the elements already covered; covered grows
    by every translate taken."""
    grp = window.group
    centers = []
    # every product is kept, but covered is read only for target elements
    for k, sphere in spheres:
        # covered only grows, so what is covered now would be skipped anyway
        for u in grp.sort_printed([g for g in sphere if g not in covered]):
            if u in covered:
                continue
            # point max(k - s, 0) of u's canonical geodesic
            center = u
            for _ in range(min(s, k)):
                center = window.predecessor(center)
            centers.append(center)
            covered.update(translate(center))
    return centers


def covering_number(window: Window, S: int, t: int) -> int:
    """Greedy count of radius-S ball translates covering the radius-(S+t) ball.

    The count is len(greedy_ball_cover(window, window.ball(S + t), S)),
    read without printing the outermost sphere S(k) of the target when
    its classes are disjoint. Every u in S(k) gets the centre c(u), point
    max(k - S, 0) of its canonical geodesic, which lies in the sphere C =
    S(max(k - S, 0)) and whose ball c(u)*B(S) holds u. Write H(c) for
    c*B(S) meeting S(k). When the nonempty H(c), c in C, are pairwise
    disjoint, the only picked ball that can hold u is that of c(u), so
    the greedy picks each c with nonempty H(c) once, in whatever printed
    order, and leaves covered the union of their balls. So the translates
    of C are taken in window order, each checked against the covered
    part of S(k) before it is added, and the greedy runs on the spheres
    below k from there. At the first overlap the count is that of
    greedy_ball_cover, from scratch.
    """
    if S < 0 or t < 0:
        raise ParameterError("base radius and offset must be nonnegative")
    if S + t > window.radius:
        raise ParameterError(
            f"covering K^{S + t} needs window radius >= {S + t}, have {window.radius}"
        )
    if t == 0:
        return 1
    offsets = window.offsets
    k = window.norm(offsets[S + t + 1] - 1)  # the last element of B(S+t) has the largest norm
    translate = window.translator(S)
    norms = window.norms
    # c*v lies in S(k) only for v in S(min(S, k)), the tail of B(S) in window order
    tail = offsets[min(S, k)]
    covered: set = set()
    count = 0
    for c in window.sphere(max(k - S, 0)):
        ball = translate(c)
        hits = [x for x in ball[tail:] if norms[x] == k]
        if not hits:
            continue
        if not covered.isdisjoint(hits):
            return len(greedy_ball_cover(window, window.ball(S + t), S))
        covered.update(ball)
        count += 1
    below = [(r, window.sphere(r)) for r in range(k - 1, -1, -1)]
    return count + len(_greedy_spheres(window, below, S, translate, covered))


def covering_samples(window: Window, t: int) -> tuple:
    """Covering numbers at offset t over the base radii S in
    [t, min(t+3, R-t)]; empty when the window is too small for S = t."""
    return tuple(
        CoveringSample(base=S, offset=t, count=covering_number(window, S, t))
        for S in range(t, min(t + 3, window.radius - t) + 1)
    )


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
    return _delta_scan(window, window.radius, pair_budget, seed, {})


def _indices(rng: random.Random, n: int) -> Iterator[int]:
    """rng.randrange(n) forever: its getrandbits(n.bit_length()) rejection loop, inline."""
    bits, k = rng.getrandbits, n.bit_length()
    while True:
        i = bits(k)
        if i < n:
            yield i


def _delta_scan(window: Window, r: int, pair_budget: int, seed: int, geos: dict) -> int:
    """estimate_delta(window.at(r), pair_budget, seed), read off a window of
    radius at least r.

    B(r) is a prefix of the window, and so are its elements but the
    identity, in window order. A distance is visible in B(r) when it is at
    most r, and an escape counts as r + 1. A canonical geodesic is the same
    in every window that holds its end, so geos, the memo of those built,
    can serve scans at several radii.
    """
    grp = window.group
    norms = window.norms
    els = window.elements[1 : window.offsets[r + 1]]
    n = len(els)
    pairs: Iterable
    sampled = n * (n - 1) // 2 > pair_budget
    if not sampled:
        pairs = ((els[i], els[j]) for i in range(n) for j in range(i + 1, n))
    else:
        draws = _indices(random.Random(seed), n)
        pairs = ((els[i], els[j]) for i, j, _ in zip(draws, draws, range(pair_budget)) if i != j)

    def geo(g):
        cached = geos.get(g)
        if cached is None:
            cached = window.geodesic(g)
            geos[g] = cached
        return cached

    far = r + 1
    best = 0
    informative = 0
    for g, h in pairs:
        d = norms.get(grp.divide(g, h), far)
        if d > r:
            continue
        top = (norms[g] + norms[h] - d) // 2
        if top <= 0:
            continue
        informative += 1
        # points i have norm i, so no index with 2i <= best can raise best
        if 2 * top <= best:
            continue
        cg = geo(g)
        ch = geo(h)
        # both are predecessor walks: once they meet, they agree below
        for i in range(top, 0, -1):
            if 2 * i <= best or cg[i] == ch[i]:
                break
            val = min(norms.get(grp.divide(cg[i], ch[i]), far), far)
            if val > best:
                best = val
    if sampled and not informative:
        raise ParameterError(
            f"no sampled pair in the radius-{r} window compares geodesics;"
            f" pair budget {pair_budget} is too small"
        )
    return best


PROBE_RADII = (4, 6, 8)  # windows whose delta_hat must not strictly increase


def _thin_geodesics(window: Window, pair_budget: int, seed: int) -> tuple:
    """The probe values at PROBE_RADII and delta_hat at the window's radius,
    all read off one window with one geodesic memo: the window itself, or
    window.at(8) when it is smaller. Raises NonHyperbolicError when the
    probe values strictly increase.
    """
    geos: dict = {}
    top = PROBE_RADII[-1]
    probes = window
    if window.radius < top:
        try:
            probes = window.at(top)
        except WindowCapError as exc:
            # a probe the cap lets fit is scanned before the cap is reported,
            # as growing one probe window at a time would
            fit = window.at(exc.radius_reached)
            for r in PROBE_RADII:
                if r <= fit.radius:
                    _delta_scan(fit, r, pair_budget, seed, geos)
            raise
    values = tuple(_delta_scan(probes, r, pair_budget, seed, geos) for r in PROBE_RADII)
    if all(a < b for a, b in zip(values, values[1:])):
        raise NonHyperbolicError(PROBE_RADII, values)
    return values, _delta_scan(probes, window.radius, pair_budget, seed, geos)


# ---------------------------------------------------------------------------
# Annulus covers


class AnnulusCover:
    def __init__(self, n: int, p: int, s: int, window: Window, net: tuple, sets: tuple,
                 assignment: dict, exits: dict):
        self.n, self.p, self.s, self.window = n, p, s, window
        self.net = net  # the 2ps-separated net points on the norm-2n sphere
        self.sets = sets  # sets[i] = elements assigned to net point i, window order
        self.assignment = assignment  # annulus element -> sorted tuple of set indices
        # probe radius -> reach map (see _reach_map), made on first request
        self._reach: dict = {}
        # annulus element -> point 2n of its canonical geodesic, kept by the build
        self._exits = exits


class CoverStats(NamedTuple):
    n: int
    net_size: int
    set_count: int
    max_diameter: int
    diameter_bound: int  # 8ps
    multiplicity: int  # most sets met by one probe ball
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
    block = window.translator(sep - 1)
    net_points = []
    blocked = set()
    for x in grp.sort_printed(shell):
        if x in blocked:
            continue
        net_points.append(x)
        blocked.update(shell_set.intersection(block(x)))
    net_index = {x: i for i, x in enumerate(net_points)}
    near = window.translator(sep)
    near_cache = {}
    assignment = {}
    exits = {}
    sets = [[] for _ in net_points]
    for g in window.annulus(2 * n, 2 * n + sep):
        # point 2n of g's canonical geodesic
        rho = g
        for _ in range(window.norms[g] - 2 * n):
            rho = window.predecessor(rho)
        exits[g] = rho
        ids = near_cache.get(rho)
        if ids is None:
            ids = tuple(sorted({net_index[y] for y in near(rho) if y in net_index}))
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
        net=tuple(net_points),
        sets=tuple(tuple(v) for v in sets),
        assignment=assignment,
        exits=exits,
    )


def _reach_map(cover: AnnulusCover, radius: int) -> dict:
    """How many of the cover's sets the radius-`radius` probe ball at z meets,
    for every window element z whose ball meets one.

    Read from the assigned side: z*u = y for u in B(radius) exactly when
    z = y*u^-1. The step set is symmetric (verify_cover checks it), so
    B(radius)^-1 = B(radius) as a set, and the z are the translate
    y*B(radius), kept where they lie in the window. Kept on the cover, one
    map per radius.
    """
    counts = cover._reach.get(radius)
    if counts is None:
        window = cover.window
        norms = window.norms
        translate = window.translator(radius)
        hits: dict = {}
        for y, ids in cover.assignment.items():
            for z in translate(y):
                if z in norms:
                    seen = hits.get(z)
                    if seen is None:
                        hits[z] = set(ids)
                    else:
                        seen.update(ids)
        counts = {z: len(seen) for z, seen in hits.items()}
        cover._reach[radius] = counts
    return counts


def verify_cover(cover: AnnulusCover, probe_radius: int, n2delta: int) -> CoverStats:
    """Exact diameter and multiplicity scan for one annulus cover.

    Probe balls of radius probe_radius are centered on every window element
    whose ball meets the annulus; the multiplicity at a center is how many
    distinct cover sets the ball meets. A smaller probe ball has no more
    centers and meets no more sets, so that one scan gives the largest
    multiplicity over probe radii up to probe_radius. Passing means max
    diameter <= 8ps and multiplicity <= n2delta; a failing multiplicity
    names the first center, in window order, reaching it. A step set that
    is not closed under inverses raises ParameterError: the pivot bound
    and the reach map both read |x^-1| = |x|.
    """
    window = cover.window
    grp = window.group
    divide, norms, far = grp.divide, window.norms, window.radius + 1
    ps = cover.p * cover.s
    if not 1 <= probe_radius <= ps:
        raise ParameterError(f"probe radius must lie in 1..{ps}")
    if not window.symmetric:
        raise ParameterError("step set is not closed under inverses")
    exits, shell = cover._exits, 2 * cover.n
    gaps: dict = {}  # exit pair -> D, shared by every set

    def gap(a, b) -> int:
        d = gaps.get((a, b))
        if d is None:
            d = gaps[a, b] = gaps[b, a] = 0 if a == b else norms.get(divide(a, b), far)
        return d

    max_diam = 0
    # a maximum over the sets with a pair: an equal set met again cannot raise it
    for members in dict.fromkeys(filter(None, cover.sets)):
        # members x by (exit, rise): the exit is point k = min(2n, |x|) of x's
        # canonical geodesic and the rise |x| - k = D(exit, x)
        groups: dict = {}
        for x in members:
            rise = max(window.knorm(x) - shell, 0)
            rho = exits.get(x)
            if rho is None:  # not an annulus element the build walked
                rho = x
                for _ in range(rise):
                    rho = window.predecessor(rho)
            groups.setdefault((rho, rise), []).append(x)
        keys, parts = list(groups), list(groups.values())
        # one pivot exit bounds each pair of groups:
        # D(g, h) <= rise + D(rho, pivot) + D(pivot, rho') + rise'
        pivot = keys[0][0]
        lift = [rise + gap(pivot, rho) for rho, rise in keys]
        pairings = combinations_with_replacement(range(len(keys)), 2)
        ranked = sorted(((min(lift[i] + lift[j], far), i, j) for i, j in pairings), reverse=True)
        for bound, i, j in ranked:
            if bound <= max_diam:
                break
            (rho, a), (sigma, b) = keys[i], keys[j]
            bound = min(a + gap(rho, sigma) + b, far)
            if bound <= max_diam:
                continue
            pairs = combinations(parts[i], 2) if i == j else product(parts[i], parts[j])
            for g, h in pairs:
                d = norms.get(divide(g, h), far)
                if d > max_diam:
                    max_diam = d
                    if d == bound:
                        break
    reach = _reach_map(cover, probe_radius)
    multiplicity = max(reach.values(), default=0)  # 0 on an empty annulus
    worst_center = None
    if multiplicity > n2delta:
        worst_center = grp.show(next(z for z in window if reach.get(z) == multiplicity))
    elif max_diam > 8 * ps:
        worst_center = "diameter law"
    return CoverStats(
        n=cover.n,
        net_size=len(cover.net),
        set_count=len(cover.sets),
        max_diameter=max_diam,
        diameter_bound=8 * ps,
        multiplicity=multiplicity,
        worst_center=worst_center,
        passed=max_diam <= 8 * ps and multiplicity <= n2delta,
    )


class AsdimWitness(NamedTuple):
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
                    "max_multiplicity": st.multiplicity,
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
    strictly increases across the balls B(r), r in PROBE_RADII, all read
    off the window, or off its growth to radius 8 under its own cap when R
    is smaller. delta is max(delta_hat, 1)
    + 1, the offset is t = 2*delta, and N maximizes the covering number
    over base radii S in [t, min(t+3, R-t)]. Annuli must be spaced by
    exactly p*s so that consecutive pairs are adjacent; each cover is
    verified alone (diameter and multiplicity) and each adjacent pair is
    scanned jointly against the 2N ceiling.
    """
    if p < 1 or s < 1:
        raise ParameterError("p and s must be at least 1")
    if pair_budget < 1:
        raise ParameterError(f"pair_budget must be at least 1, got {pair_budget}")
    ps = p * s
    radius = window.radius
    probe_values, delta_hat = _thin_geodesics(window, pair_budget, seed)
    delta = max(delta_hat, 1) + 1
    t = 2 * delta
    samples = covering_samples(window, t)
    if not samples:
        raise ParameterError(
            f"window radius {radius} too small to sample covering numbers at offset {t}"
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
            # the two covers' sets are distinct, so their counts add
            a, b = _reach_map(cov_a, ps), _reach_map(cov_b, ps)
            val = max(a.get(z, 0) + b.get(z, 0) for z in a.keys() | b.keys())
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
