"""Independent reference implementations for freezing expected values.

Everything here is deliberately naive: FIFO queues, full scans, brute
force subset search. None of it shares code or data structures with the
package, so agreement between the two is meaningful evidence. Two
sections are exceptions. The asdim reference scans read the window's
norms, balls and canonical geodesics, which define the answers, and keep
only the scan orders that `asdim` now shortcuts. The last section holds
test hooks that state laws about the package's own functions and
therefore call them.
"""

import math
import random
import string
from collections import deque
from dataclasses import dataclass
from itertools import combinations

from coarse_ends import (
    CoreRadiusError,
    CoverVerificationError,
    Cyclic,
    DirectProduct,
    Free,
    FreeAbelian,
    FreeProduct,
    MismatchError,
    ParameterError,
    components,
    greedy_ball_cover,
    interface,
    power_generators,
)


def bfs_norms(group, gens, radius):
    """Word-metric norms by textbook breadth-first search."""
    dist = {group.identity: 0}
    queue = deque([group.identity])
    steps = [g for g in gens if g != group.identity]
    while queue:
        x = queue.popleft()
        if dist[x] == radius:
            continue
        for s in steps:
            y = group.mul(x, s)
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def window_order_reference(group, gens, radius):
    """Window order by textbook breadth-first search: a FIFO queue, every
    element times every step, steps sorted by printed form.

    Returns (elements, offsets, norms): the elements in the order they were
    first reached, offsets[r] the number of elements of norm < r for r up
    to radius + 1, and the norms dict in insertion order.
    """
    steps = sorted((g for g in gens if g != group.identity), key=group.show)
    norms = {group.identity: 0}
    elements = [group.identity]
    queue = deque(elements)
    while queue:
        x = queue.popleft()
        if norms[x] == radius:
            continue
        for s in steps:
            y = group.mul(x, s)
            if y not in norms:
                norms[y] = norms[x] + 1
                elements.append(y)
                queue.append(y)
    offsets = tuple(sum(1 for n in norms.values() if n < r) for r in range(radius + 2))
    return elements, offsets, norms


def plain_search_products(window):
    """Products a plain search forms to build window in one search.

    The |K|^2 products t*s of two steps, each once, when the window reaches
    past radius 1 (sphere 1 reads none of them). Then, for each element
    of norm < R, one product per step it tries: every step for the
    identity; for an element first reached by step t, each step s such
    that t*s is neither the identity nor a step and no pair of steps before
    (t, s), in step order, has the product t*s. First steps come from a
    textbook breadth-first search, not from the window.
    """
    group, radius = window.group, window.radius
    steps = sorted((g for g in window.gens if g != group.identity), key=group.show)
    n = len(steps)
    product = {(k, j): group.mul(steps[k], steps[j]) for k in range(n) for j in range(n)}
    short = {group.identity, *steps}
    tried = [
        sum(
            1
            for j in range(n)
            if product[k, j] not in short
            and min(pair for pair, c in product.items() if c == product[k, j]) == (k, j)
        )
        for k in range(n)
    ]
    first = {group.identity: None}
    queue = deque([(group.identity, 0)])
    total = n * n if radius >= 2 else 0
    while queue:
        x, r = queue.popleft()
        if r == radius:
            continue
        total += n if first[x] is None else tried[first[x]]
        for j, s in enumerate(steps):
            y = group.mul(x, s)
            if y not in first:
                first[y] = j
                queue.append((y, r + 1))
    return total


def table_search_products(window):
    """Products a table search forms to write window's generator table.

    One per edge with an endpoint of norm < R: the search forms an edge
    from whichever end it expands first and mirrors the other entry. Then,
    unless every step has parity 1, one per outer-sphere entry that no
    mirror filled, for the first step (in step order) of each inverse
    pair: every such entry that leads outside the window, and every edge
    along the sphere, which the first of its ends to be scanned forms when
    the step is its own inverse.
    """
    group, steps = window.group, window.steps
    cols = window.neighbours()
    lo = window.offsets[window.radius]
    inner = sum(1 for col in cols for i, y in enumerate(col) if y >= 0 and min(i, y) < lo)
    if all(group.parity(s) for s in steps):
        return inner // 2
    outer = 0
    for j, (s, col) in enumerate(zip(steps, cols)):
        back = steps.index(group.inv(s))
        if back < j:
            continue
        for i in range(lo, len(col)):
            y = col[i]
            outer += y < 0 or (y >= lo and (back != j or i < y))
    return inner // 2 + outer


def product_table(window):
    """The generator table formed by products, one Group.mul per entry: for
    each step s in step order, the window-order index of x*s for every x
    in window order, or -1 when x*s lies outside the window."""
    group = window.group
    ids = {g: i for i, g in enumerate(window.elements)}
    return [[ids.get(group.mul(x, s), -1) for x in window.elements] for s in window.steps]


def table_edges(window):
    """Edges of the window's generator table: two entries each."""
    return sum(1 for col in window.neighbours() for y in col if y >= 0) // 2


def flood_partition(members, neighbors):
    """Partition members under a neighbor function, as a set of frozensets."""
    members = set(members)
    seen = set()
    parts = set()
    for m in members:
        if m in seen:
            continue
        comp = set()
        queue = deque([m])
        seen.add(m)
        while queue:
            x = queue.popleft()
            comp.add(x)
            for y in neighbors(x):
                if y in members and y not in seen:
                    seen.add(y)
                    queue.append(y)
        parts.add(frozenset(comp))
    return parts


def spec_order(spec):
    """Order of the group a spec names, or None when it is infinite."""
    if isinstance(spec, Cyclic):
        return spec.order
    if isinstance(spec, (FreeAbelian, Free)):
        return None
    left, right = spec_order(spec.left), spec_order(spec.right)
    if isinstance(spec, DirectProduct):
        return None if left is None or right is None else left * right
    if left == 1 or right == 1:  # a free product with a trivial factor is the other
        return right if left == 1 else left
    return None


def spec_ends(spec):
    """Number of ends of the group a spec names, from its closed form: 0, 1,
    2 or math.inf.

    Z^n and Fn have two ends for n = 1, and one and infinitely many for
    n >= 2. A direct product has the ends of its infinite factor when the
    other is finite, and one end when both are infinite. A free product of
    two nontrivial groups has two ends when both have order 2, and
    infinitely many otherwise.
    """
    if isinstance(spec, Cyclic):
        return 0
    if isinstance(spec, FreeAbelian):
        return 2 if spec.rank == 1 else 1
    if isinstance(spec, Free):
        return 2 if spec.rank == 1 else math.inf
    if isinstance(spec, DirectProduct):
        left, right = spec_order(spec.left), spec_order(spec.right)
        if left is not None and right is not None:
            return 0
        if left is None and right is None:
            return 1
        return spec_ends(spec.left if left is None else spec.right)
    left, right = spec_order(spec.left), spec_order(spec.right)
    if left == 1:
        return spec_ends(spec.right)
    if right == 1:
        return spec_ends(spec.left)
    return 2 if left == right == 2 else math.inf


def finite_diameter(spec):
    """Cayley diameter, under the standard generators, of the finite part of
    a spec: the product of its finite direct factors, and for a free product
    the larger of its factors' values. Up to this radius a finite factor
    can join pieces of a ball complement that lie far apart."""
    if isinstance(spec, Cyclic):
        return spec.order // 2
    if isinstance(spec, (FreeAbelian, Free)):
        return 0
    if isinstance(spec, DirectProduct):
        return finite_diameter(spec.left) + finite_diameter(spec.right)
    return max(finite_diameter(spec.left), finite_diameter(spec.right))


def _times(f, g):
    """The first len(f) coefficients of the product of two power series."""
    return [sum(f[i] * g[r - i] for i in range(r + 1)) for r in range(len(f))]


def _reciprocal(f):
    """The first len(f) coefficients of 1/f, for f with constant term 1."""
    inv = [1]
    for r in range(1, len(f)):
        inv.append(-sum(f[i] * inv[r - i] for i in range(1, r + 1)))
    return inv


def spec_spheres(spec, n, power=1):
    """Sphere sizes |S(r)| for r < n under the standard generators K, or
    under K^power, from the spec's closed form alone, with no group
    arithmetic.

    Z^k: the k-fold convolution of 1, 2, 2, 2, ...; Fk: 1, then
    2k(2k-1)^(r-1); Cn: the residues x with min(x, n - x) = r. A direct
    product's generators are its factors', so |(a, b)| = |a| + |b| and its
    series is the convolution of theirs. A free product's series f solves
    1/f = 1/f_A + 1/f_B - 1 (de la Harpe, Topics in Geometric Group Theory,
    ch. VI). K holds the identity, so K^t = B_K(t) and the K^t-ball of
    radius m is the K-ball of radius tm.
    """
    if power > 1:
        spheres = spec_spheres(spec, power * (n - 1) + 1)
        balls = [sum(spheres[: power * m + 1]) for m in range(n)]
        return [b - a for a, b in zip([0] + balls, balls)]
    if isinstance(spec, FreeAbelian):
        series = [1] + [0] * (n - 1)
        for _ in range(spec.rank):
            series = _times(series, [1] + [2] * (n - 1))
        return series
    if isinstance(spec, Free):
        return [1] + [2 * spec.rank * (2 * spec.rank - 1) ** (r - 1) for r in range(1, n)]
    if isinstance(spec, Cyclic):
        return [sum(1 for x in range(spec.order) if min(x, spec.order - x) == r) for r in range(n)]
    left, right = spec_spheres(spec.left, n), spec_spheres(spec.right, n)
    if isinstance(spec, DirectProduct):
        return _times(left, right)
    inverse = [a + b for a, b in zip(_reciprocal(left), _reciprocal(right))]
    inverse[0] -= 1
    return _reciprocal(inverse)


def reduce_word(pairs):
    """Stack reduction of a free word given as (letter, sign) pairs."""
    out = []
    for sym, e in pairs:
        if out and out[-1][0] == sym and out[-1][1] == -e:
            out.pop()
        else:
            out.append((sym, e))
    return tuple(out)


def show_free_word(a):
    """Printed form of a reduced free word: each run of one letter as the
    lowercase letter and its signed exponent, omitted when it is 1."""
    if not a:
        return "e"
    parts = []
    i = 0
    while i < len(a):
        c = a[i]
        j = i
        while j < len(a) and a[j] == c:
            j += 1
        exp = (j - i) if c.islower() else -(j - i)
        parts.append(c.lower() + ("" if exp == 1 else str(exp)))
        i = j
    return "".join(parts)


def validate(group, a):
    """Deep structural check of a payload of group; raises MismatchError
    on a foreign one. The package's mul and inv check only the outer shape."""
    spec = group.spec
    if isinstance(spec, FreeAbelian):
        if not (isinstance(a, tuple) and len(a) == spec.rank and all(isinstance(x, int) for x in a)):
            raise MismatchError(f"bad free abelian payload {a!r}")
        return
    if isinstance(spec, Cyclic):
        if not (isinstance(a, int) and 0 <= a < spec.order):
            raise MismatchError(f"bad cyclic payload {a!r}")
        return
    if isinstance(spec, Free):
        if not isinstance(a, str):
            raise MismatchError(f"bad free payload {a!r}")
        allowed = set(group.letters) | {c.upper() for c in group.letters}
        for i, c in enumerate(a):
            if c not in allowed:
                raise MismatchError(f"letter {c!r} not in this free group")
            if i + 1 < len(a) and a[i + 1] == c.swapcase():
                raise MismatchError(f"payload {a!r} is not reduced")
        return
    if isinstance(spec, DirectProduct):
        if not (isinstance(a, tuple) and len(a) == 2):
            raise MismatchError(f"bad direct product payload {a!r}")
        validate(group.left, a[0])
        validate(group.right, a[1])
        return
    if not isinstance(a, tuple):
        raise MismatchError(f"bad free product payload {a!r}")
    prev = None
    for entry in a:
        if not (isinstance(entry, tuple) and len(entry) == 2 and entry[0] in (0, 1)):
            raise MismatchError(f"bad syllable {entry!r}")
        side, x = entry
        if side == prev:
            raise MismatchError("syllable sides must alternate")
        child = group.left if side == 0 else group.right
        validate(child, x)
        if x == child.identity:
            raise MismatchError("identity syllable in free product payload")
        prev = side


class SyllableGroup:
    """Arithmetic and printing on the package's payloads for free abelian
    and cyclic groups and their direct and free products, written apart
    from its kernels: a free-product product or inverse reduces the whole
    syllable word on a stack, and printing follows the documented forms.
    Letters are assigned depth first, as the package assigns them.
    """

    def __init__(self, spec, cursor=None):
        cursor = [0] if cursor is None else cursor
        self.spec = spec
        if isinstance(spec, FreeAbelian):
            self.identity = (0,) * spec.rank
        elif isinstance(spec, Cyclic):
            self.letter = string.ascii_lowercase.replace("e", "")[cursor[0]]
            cursor[0] += 1
            self.identity = 0
        elif isinstance(spec, (DirectProduct, FreeProduct)):
            self.children = (SyllableGroup(spec.left, cursor), SyllableGroup(spec.right, cursor))
            pair = tuple(c.identity for c in self.children)
            self.identity = () if isinstance(spec, FreeProduct) else pair
        else:
            raise ValueError(f"no syllable oracle for {spec!r}")

    def reduce(self, syllables):
        """Reduced payload of a free-product word of (side, x) syllables."""
        out = []
        for side, x in syllables:
            child = self.children[side]
            if out and out[-1][0] == side:
                x = child.mul(out.pop()[1], x)
            if x != child.identity:
                out.append((side, x))
        return tuple(out)

    def mul(self, a, b):
        spec = self.spec
        if isinstance(spec, FreeAbelian):
            return tuple(x + y for x, y in zip(a, b))
        if isinstance(spec, Cyclic):
            return (a + b) % spec.order
        if isinstance(spec, DirectProduct):
            return tuple(c.mul(x, y) for c, x, y in zip(self.children, a, b))
        return self.reduce(a + b)

    def inv(self, a):
        spec = self.spec
        if isinstance(spec, FreeAbelian):
            return tuple(-x for x in a)
        if isinstance(spec, Cyclic):
            return -a % spec.order
        if isinstance(spec, DirectProduct):
            return tuple(c.inv(x) for c, x in zip(self.children, a))
        return self.reduce((side, self.children[side].inv(x)) for side, x in reversed(a))

    def show(self, a):
        spec = self.spec
        if a == self.identity:
            return "e"
        if isinstance(spec, FreeAbelian):
            return "(" + ",".join(str(x) for x in a) + ")"
        if isinstance(spec, Cyclic):
            return self.letter + ("" if a == 1 else str(a))
        if isinstance(spec, DirectProduct):
            return "(" + ",".join(c.show(x) for c, x in zip(self.children, a)) + ")"
        # syllables carry a side mark unless both factors print letter first
        tagged = not all(isinstance(c.spec, Cyclic) for c in self.children)
        parts = []
        for side, x in a:
            child = self.children[side]
            text = child.show(x)
            if isinstance(child.spec, FreeProduct):
                text = "(" + text + ")"
            parts.append(("<>"[side] if tagged else "") + text)
        return ".".join(parts)

    def sample(self, rng, syllables=4):
        """A random element; free products reduce a random syllable word."""
        spec = self.spec
        if isinstance(spec, FreeAbelian):
            return tuple(rng.randint(-2, 2) for _ in range(spec.rank))
        if isinstance(spec, Cyclic):
            return rng.randrange(spec.order)
        if isinstance(spec, DirectProduct):
            return tuple(c.sample(rng, syllables) for c in self.children)
        word = []
        for _ in range(rng.randrange(syllables + 1)):
            side = rng.randrange(2)
            word.append((side, self.children[side].sample(rng, 2)))
        return self.reduce(word)


def min_cover_size(universe, candidate_sets):
    """Smallest number of candidate sets whose union covers universe.

    Brute force over combinations, after dropping candidates dominated by
    a superset (safe: any cover using a dominated set stays a cover after
    swapping in its dominator).
    """
    universe = frozenset(universe)
    if not universe:
        return 0
    sets = sorted({frozenset(s) & universe for s in candidate_sets}, key=len, reverse=True)
    kept = []
    for s in sets:
        if s and not any(s < t for t in kept):
            kept.append(s)
    # greedy upper bound caps the search depth
    remaining = set(universe)
    upper = 0
    while remaining:
        best = max(kept, key=lambda s: len(s & remaining))
        gain = len(best & remaining)
        if gain == 0:
            return None
        remaining -= best
        upper += 1
    for k in range(1, upper):
        for combo in combinations(kept, k):
            got = set()
            for s in combo:
                got |= s
            if got >= universe:
                return k
    return upper


def exact_covering_number(window, S, t, cap=18):
    """Minimum number of radius-S translates covering the radius-(S+t) ball.

    Exhaustive branch and bound over candidate centers, seeded with a
    greedy cover over the same candidates; only sensible for tiny
    targets, hence the hard cap on target size.
    """
    if S + t > window.radius:
        raise ParameterError("window too small")
    target = window.ball(S + t)
    if len(target) > cap:
        raise ParameterError(f"exact search limited to targets of size <= {cap}")
    grp = window.group
    index = {g: i for i, g in enumerate(target)}
    full = (1 << len(target)) - 1
    ball = window.ball(min(S, window.radius))
    masks = set()
    for c in window.ball(min(2 * S + t, window.radius)):
        m = 0
        for v in ball:
            y = grp.mul(c, v)
            if y in index:
                m |= 1 << index[y]
        if m:
            masks.add(m)
    masks = sorted(masks, reverse=True)
    by_bit = [[] for _ in range(len(target))]
    for m in masks:
        for b in range(len(target)):
            if m >> b & 1:
                by_bit[b].append(m)

    best = 0
    covered = 0
    while covered != full:
        covered |= max(masks, key=lambda m: bin(m & ~covered).count("1"))
        best += 1

    def search(mask, used):
        nonlocal best
        if mask == full:
            best = min(best, used)
            return
        if used + 1 >= best:
            return
        b = 0
        while mask >> b & 1:
            b += 1
        for m in by_bit[b]:
            search(mask | m, used + 1)

    search(0, 0)
    return best


# ---------------------------------------------------------------------------
# asdim reference scans: every element sorted, every set, every index


def greedy_ball_cover_reference(window, target, s):
    """Greedy centres from one sort of the whole target by (-norm, printed form)."""
    grp = window.group
    remaining = set(target)
    order = sorted(remaining, key=lambda g: (-window.knorm(g), grp.show(g)))
    ball = window.ball(min(s, window.radius))
    centers = []
    covered = set()
    for u in order:
        if u in covered:
            continue
        k = window.norms[u]
        center = window.geodesic(u)[max(k - s, 0)]
        centers.append(center)
        for v in ball:
            y = grp.mul(center, v)
            if y in remaining:
                covered.add(y)
    return centers


def max_diameter_reference(window, sets):
    """Largest pair distance over all pairs of every set, R+1 when escaped."""
    grp = window.group
    best = 0
    for members in sets:
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                rel = grp.mul(grp.inv(members[i]), members[j])
                best = max(best, window.norms.get(rel, window.radius + 1))
    return best


def probe_multiplicity_reference(covers, radius):
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


def estimate_delta_reference(window, pair_budget=20000, seed=0):
    """`asdim.estimate_delta` comparing every index from 1 to the top.

    Pairs are chosen as the package chooses them (all, or the same seeded
    draws), so the two must agree exactly.
    """
    grp = window.group
    els = [g for g in window if window.norms[g] > 0]
    n = len(els)
    if n * (n - 1) // 2 <= pair_budget:
        pairs = [(els[i], els[j]) for i in range(n) for j in range(i + 1, n)]
    else:
        rng = random.Random(seed)
        pairs = []
        for _ in range(pair_budget):
            i = rng.randrange(n)
            j = rng.randrange(n)
            if i != j:
                pairs.append((els[i], els[j]))
    best = 0
    for g, h in pairs:
        rel = grp.mul(grp.inv(g), h)
        if rel not in window.norms:
            continue
        top = (window.norms[g] + window.norms[h] - window.norms[rel]) // 2
        cg = window.geodesic(g)
        ch = window.geodesic(h)
        for i in range(1, top + 1):
            y = grp.mul(grp.inv(cg[i]), ch[i])
            best = max(best, window.norms.get(y, window.radius + 1))
    return best


# ---------------------------------------------------------------------------
# Test hooks over the package


def maxnorm_of(window, items):
    """Largest norm over items; 0 for an empty collection."""
    return max(map(window.knorm, items), default=0)


def star(A, t, window):
    """A*B(t)^(-1)*B(t) = A*B(2t) at scale radius t, truncated to the window.

    B(2t) is read off the window, so 2t may pass R only on an exhausted
    window. The identity B(t)^(-1)*B(t) = B(2t) needs a symmetric generator
    set: steps that are not closed under inverses raise ParameterError.
    Exact inside B(R - 2t); beyond that, products falling outside the
    window are dropped rather than reported.
    """
    grp = window.group
    if any(grp.inv(s) not in window.gens for s in window.steps):
        raise ParameterError("step set is not closed under inverses")
    ball = window.elements[: window.offsets[window.maxnorm(2 * t) + 1]]
    out = set()
    for a in A:
        for u in ball:
            x = grp.mul(a, u)
            if x in window:
                out.add(x)
    return out


def coarsely_identical(A, C, window):
    """Largest norm in the symmetric difference of A and C; -1 when equal."""
    diff = set(A) ^ set(C)
    return maxnorm_of(window, diff) if diff else -1


def clopen_intersection_law(A1, A2, t, window, core_radius):
    """Whether interface(A1 meet A2) lies inside interface(A1) union interface(A2)
    at scale radius t.

    This inclusion is a theorem of the star algebra, so it should never
    return False on correct inputs.
    """
    s1 = set(A1)
    s2 = set(A2)
    i_meet = interface(s1 & s2, t, window, core_radius).interface
    i1 = set(interface(s1, t, window, core_radius).interface)
    i2 = set(interface(s2, t, window, core_radius).interface)
    return all(x in i1 or x in i2 for x in i_meet)


def distance(window, g, h):
    """Left-invariant word metric; defined when inv(g)*h is in the window."""
    return window.knorm(window.group.mul(window.group.inv(g), h))


def star_preserves_clopen(A, b, v, window, core_radius):
    """Interface report of star(A, b) at scale radius v, on an infinite group.

    For the star to be exact wherever the interface test consults it, the
    core must retreat by both scales: core <= R - 2*v - 2*b.
    """
    limit = window.radius - 2 * v - 2 * b
    if core_radius > limit:
        raise CoreRadiusError(f"core radius {core_radius} exceeds {limit} = R - 2*v - 2*b")
    return interface(star(A, b, window), v, window, core_radius)


@dataclass(frozen=True)
class BoundedMassReport:
    count: int
    total_size: int
    max_norm: int  # -1 when no inner component exists


def bounded_mass_report(window, r):
    """Aggregate size of components that fail to reach the window boundary."""
    inner = [c for c in components(window, r).components if not c.outer]
    return BoundedMassReport(
        count=len(inner),
        total_size=sum(c.size for c in inner),
        max_norm=max((c.max_norm for c in inner), default=-1),
    )


def union_component_clopen_check(decomposition, selection, window, scale_t=1):
    """Interface report for a union of components of a ball complement.

    Such unions are coarsely clopen, with interface pinned near the
    removed ball: expect rho <= r + 2*t*maxnorm(K).
    """
    union = set()
    for i in sorted(set(selection)):
        if not 0 <= i < len(decomposition.components):
            raise ParameterError(f"component index {i} out of range")
        union.update(decomposition.components[i].elements)
    B = power_generators(window.group, window.gens, scale_t)
    core = window.radius - 2 * maxnorm_of(window, B)
    if core < 0:
        raise ParameterError("window too small for the requested scale")
    return interface(union, scale_t, window, core)


def k4_component_bound(window, L):
    """Observed K^4-component count of window minus L against the covering bound.

    The components come from a flood over products x*s, s in K^4, that
    stay in the window; only those reaching the outer sphere are counted.
    The bound m is the greedy number of translates g*K needed to cover
    st(L, U_K) = L*K*K. For nonempty L the observed count must not exceed
    m and a violation raises; for empty L there is nothing to cover
    (m = 0) and the complement is the whole window in one piece, so no
    comparison is made.
    """
    L = set(L)
    if L and maxnorm_of(window, L) + 2 > window.radius:
        raise ParameterError(f"L reaches norm {maxnorm_of(window, L)}; need R >= that + 2")
    grp = window.group
    k4 = [s for s in power_generators(grp, window.gens, 4) if s != grp.identity]
    parts = flood_partition(
        (g for g in window if g not in L), lambda x: [grp.mul(x, s) for s in k4]
    )
    observed = sum(1 for part in parts if any(window.knorm(x) == window.radius for x in part))
    if not L:
        return observed, 0
    m = len(greedy_ball_cover(window, star(L, 1, window), 1))
    if observed > m:
        raise CoverVerificationError(
            f"observed {observed} components exceed the covering bound {m}"
        )
    return observed, m
