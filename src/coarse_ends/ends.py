"""Component decompositions of ball complements and end-count verdicts.

Removing the elements of norm below r from the window leaves the set
{|g| >= r}, which splits into components under one-step adjacency by the
generators, a symmetric step set. Components that reach the outer sphere
of the window are the finite-scale stand-ins for unbounded pieces;
tracking how they nest as r grows yields a tree whose branches
approximate the ends of the group. Every component meets sphere r, and
is labelled by the least printed element there, so its label does not
change when the window grows.

All of it comes from one union-find sweep (_sweep) that adds the spheres
R, R-1, ... of the window's generator table; components, count rows and
tree levels are read off it between spheres. Each added id keeps its own
root as it joins its present neighbours, so an edge costs one root walk.
When no edge stays on a sphere (Window.odd_steps), the outer sphere,
added first, meets no member: each of its ids becomes a component of its
own and no table row is read. A tree level is read off the roots of
sphere r alone, as every component meets sphere r.

Verdicts are conservative, and end_count and component_tree reach theirs
by one rule (_verdict). One and Two require the outer count to sit still
across a span of radii, to survive growing the window 4 larger, and to
coexist with zero bounded complementary mass; growth across the final
radii yields Infinite; a window whose outer sphere is empty holds the
whole group, which is finite, and yields Zero; everything else,
including a stable count of three or more (which no finitely generated
group can sustain), is Undetermined with the evidence attached. A verdict
that the sphere sizes of its windows contradict is refused too (see
sphere_guard), and so is a One or Two that the rows past r_max, up to
R - 4, contradict: below the diameter of a finite factor its elements
join every branch, so two-ended Z x C8 and virtually free C10 x (C2 * C3)
both show one outer component up to r = 4.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import groupby
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from .cayley import ENLARGE_BY, Window
from .errors import ParameterError

__all__ = [
    "Component",
    "ComponentDecomposition",
    "TreeNode",
    "TreeLevel",
    "EndTree",
    "EndEvidence",
    "EndVerdict",
    "RadiusCount",
    "components",
    "component_tree",
    "classify_counts",
    "end_count",
]


class Component(NamedTuple):
    elements: tuple
    outer: bool
    size: int
    max_norm: int
    least: str  # printed form of the least element on sphere r, the label anchor


class ComponentDecomposition(NamedTuple):
    components: tuple

    @property
    def outer_count(self) -> int:
        return sum(1 for c in self.components if c.outer)


class _UnionFind:
    """Components of {|g| >= r} as the spheres R, R-1, ..., r are added.

    Adding an id joins it to every member among its generator neighbours,
    read off the window's generator table. The table holds right
    neighbours only, so an edge is seen from whichever end is added second;
    that is the whole adjacency because the generators are closed under
    inverses. After each sphere the members form {|g| >= r} (offline
    incremental connectivity, as in Tarjan 1975); count and outer track the
    number of components and of those reaching the outer sphere. parent[i]
    is -1 until id i is added, and so is parent[-1], read for an entry
    that leads outside the window.

    add keeps the root of the id being added as it goes: a fresh id is its
    own root, and after each union the winner is. So a present neighbour
    costs one root walk (with path halving), not two. When every step has
    parity 1, no edge joins two ids of the outer sphere, which is added
    first, so its ids are set up as singletons without reading a row.
    """

    def __init__(self, window: Window):
        self.window = window
        self.cols = window.neighbours()
        n = len(window)
        self.parent = [-1] * (n + 1)  # the last slot stays -1, for an entry -1
        self.size = [1] * n
        self.touches = bytearray(n)  # at roots: the component reaches the outer sphere
        self.count = self.outer = 0

    def add(self, r: int) -> None:
        """Add sphere r, after the spheres R, R-1, ..., r + 1."""
        window = self.window
        lo, hi = window.offsets[r], window.offsets[r + 1]
        parent, size, touches = self.parent, self.size, self.touches
        count, outer = self.count + hi - lo, self.outer
        if r == window.radius:
            touches[lo:hi] = b"\1" * (hi - lo)
            outer += hi - lo
            if window.odd_steps:
                parent[lo:hi] = range(lo, hi)
                self.count, self.outer = count, outer
                return
        cols = self.cols
        for i in range(lo, hi):
            parent[i] = a = i  # a: the root of i's component
            for col in cols:
                b = col[i]
                if parent[b] < 0:
                    continue
                while parent[b] != b:
                    parent[b] = b = parent[parent[b]]
                if a == b:
                    continue
                if size[a] < size[b]:
                    a, b = b, a
                parent[b] = a
                size[a] += size[b]
                count -= 1
                if touches[a] and touches[b]:
                    outer -= 1
                touches[a] |= touches[b]
        self.count, self.outer = count, outer

    def roots(self, ids: Iterable[int]) -> list:
        """The root of each of ids, all members: parent lookups until a pass changes nothing."""
        get = self.parent.__getitem__
        roots = list(map(get, ids))
        while True:
            up = list(map(get, roots))
            if up == roots:
                return roots
            roots = up


def _anchored(roots: list, window: Window, r: int) -> list:
    """(anchor, root) for every root of {|g| >= r}, sorted by anchor: the
    least printed element of the component's part of sphere r. roots
    starts with the root of every id of sphere r, in window order. Every
    component meets sphere r, as a canonical geodesic keeps norm >= r down
    to sphere r by generator steps.
    """
    lo, hi = window.offsets[r], window.offsets[r + 1]
    shown = window.group.show_many(window.elements[lo:hi])
    # in descending printed order, the last value written for a root is its least
    least = dict(sorted(zip(roots, shown), key=itemgetter(1), reverse=True))
    return sorted(zip(least.values(), least))


def _sweep(window: Window, r_min: int):
    """(r, uf) as each sphere r = R, R-1, ..., r_min of window goes into one
    _UnionFind: the state a caller reads is that of {|g| >= r}."""
    uf = _UnionFind(window)
    for r in range(window.radius, r_min - 1, -1):
        uf.add(r)
        yield r, uf


def components(window: Window, r: int) -> ComponentDecomposition:
    """Decompose {g in window : |g| >= r} into components of the generator
    adjacency.

    Components are indexed by their anchor, the least printed element of
    their part of sphere r, which a larger window changes only when two
    components merge; each lists its elements in window order. The window
    is a table window, whose generators are closed under inverses.
    """
    if not 0 <= r < window.radius:
        raise ParameterError(f"base radius {r} must satisfy 0 <= r < window radius {window.radius}")
    lo = window.offsets[r]
    *_, (_, uf) = _sweep(window, r)
    roots = uf.roots(range(lo, len(window)))
    label = roots.__getitem__
    order = sorted(range(len(roots)), key=label)  # stable: window order inside each root
    members = {root: list(ids) for root, ids in groupby(order, label)}
    tail = window.elements[lo:]
    comps = []
    for least, root in _anchored(roots, window, r):
        ids = members[root]
        last = lo + ids[-1]
        comps.append(
            Component(
                elements=tuple(map(tail.__getitem__, ids)),
                outer=last >= window.offsets[window.radius],
                size=len(ids),
                max_norm=window.norm(last),
                least=least,
            )
        )
    return ComponentDecomposition(components=tuple(comps))


# ---------------------------------------------------------------------------
# End tree


class TreeNode(NamedTuple):
    id: int
    size: int
    outer: bool
    parent: Optional[int]


class TreeLevel(NamedTuple):
    r: int
    nodes: tuple


class EndTree(NamedTuple):
    levels: tuple
    verdict: str

    def to_json_dict(self) -> dict:
        return {
            "levels": [
                {
                    "r": lv.r,
                    "components": [
                        {"id": n.id, "size": n.size, "outer": n.outer, "parent": n.parent}
                        for n in lv.nodes
                    ],
                }
                for lv in self.levels
            ],
            "verdict": self.verdict,
        }

    def to_dot(self) -> str:
        """Containment tree of the outer components, one node per component."""
        lines = ["digraph endtree {", "  rankdir=TB;"]
        names = {}
        for lv in self.levels:
            for n in lv.nodes:
                if n.outer:
                    names[(lv.r, n.id)] = f"{lv.r}:{n.id}:{n.size}"
        lines.extend(f'  "{label}";' for label in names.values())
        for prev, lv in zip(self.levels, self.levels[1:]):
            for n in lv.nodes:
                if n.outer and n.parent is not None and (prev.r, n.parent) in names:
                    lines.append(f'  "{names[(prev.r, n.parent)]}" -> "{names[(lv.r, n.id)]}";')
        lines.append("}")
        return "\n".join(lines)


def component_tree(window: Window, r_min: int, r_max: int) -> EndTree:
    """Nest the decompositions at radii r_min..r_max of a table window
    into a tree, with end_count's verdict at r_max.

    One sweep adds the spheres R..min(r_min, 1). It reads each level in
    range off the roots of its sphere, a node's size and outer flag being
    its root's, and the count rows 1..R that end_count reads. Components
    only merge as the sweep moves inward, so every component at radius r+1
    lies inside exactly one component at radius r, its parent, found from
    its root once sphere r is in. The verdict is _verdict's on those rows,
    so a One or Two candidate is rechecked on window.at(R + ENLARGE_BY).
    """
    if r_min < 0 or r_min > r_max:
        raise ParameterError("need 0 <= r_min <= r_max")
    if r_max >= window.radius:
        raise ParameterError(f"r_max {r_max} must be smaller than the window radius {window.radius}")
    offsets = window.offsets
    levels = []  # from r_max in: (r, (size, outer) per node, parents of the level one out)

    def read_levels():
        above = []  # the roots of the nodes one radius out
        for r, uf in _sweep(window, min(r_min, 1)):
            if r_min <= r <= r_max:
                roots = uf.roots(range(offsets[r], offsets[r + 1]))
                anchored = [root for _, root in _anchored(roots, window, r)]
                owner = dict(zip(anchored, range(len(anchored))))
                nodes = [(uf.size[root], uf.touches[root] == 1) for root in anchored]
                levels.append((r, nodes, list(map(owner.__getitem__, uf.roots(above)))))
                above = anchored
            yield r, uf

    rows, exhausted_at = _count_rows(window, read_levels())
    parents = [up for _, _, up in levels[1:]] + [[None] * len(levels[-1][1])]
    tree = tuple(
        TreeLevel(r, tuple(TreeNode(idx, *node, up[idx]) for idx, node in enumerate(nodes)))
        for (r, nodes, _), up in zip(reversed(levels), reversed(parents))
    )
    return EndTree(levels=tree, verdict=_verdict(window, rows, exhausted_at, r_max).verdict)


# ---------------------------------------------------------------------------
# Verdicts


class RadiusCount(NamedTuple):
    r: int
    outer: int
    inner: int


class EndEvidence(NamedTuple):
    counts: tuple
    recheck_counts: Optional[tuple]
    stab_span: int
    growth_span: int
    window_radius: int
    recheck_radius: Optional[int]
    exhausted_at: Optional[int]
    growth_flag: bool
    stable: Optional[bool]
    anomaly: Optional[str]


class EndVerdict(NamedTuple):
    verdict: str
    note: str
    evidence: EndEvidence

    def to_json_dict(self) -> dict:
        evidence = self.evidence._asdict()
        for key in ("counts", "recheck_counts"):
            if evidence[key] is not None:
                evidence[key] = tuple(c._asdict() for c in evidence[key])
        return {"verdict": self.verdict, "note": self.note, **evidence}


def classify_counts(
    counts: Sequence[int],
    stab_span: int = 3,
    growth_span: int = 3,
    exhausted: bool = False,
):
    """Pure classification of an outer-count sequence.

    Returns (candidate verdict, anomaly text, growth flag). One and Two
    are candidates only; callers must confirm them with an enlargement
    re-run before asserting them. A stable count of 3 or more is refused:
    no finitely generated group has a finite end count above two, so the
    window is reporting an artifact.
    """
    # a span of 0 makes the whole sequence its tail, and a growth span of 1
    # makes "strictly increasing" true of an empty run of comparisons
    if stab_span < 1:
        raise ParameterError(f"stab_span must be at least 1, got {stab_span}")
    if growth_span < 2:
        raise ParameterError(f"growth_span must be at least 2, got {growth_span}")
    if exhausted:
        return "Zero", None, False
    counts = list(counts)
    if len(counts) >= stab_span:
        tail = counts[-stab_span:]
        if len(set(tail)) == 1:
            c = tail[0]
            if c == 1:
                return "One", None, False
            if c == 2:
                return "Two", None, False
            if c == 0:
                return (
                    "Undetermined",
                    "no component reaches the window boundary although the complement "
                    "is nonempty; the window is too small for the radius range",
                    False,
                )
            return (
                "Undetermined",
                f"outer count stabilized at {c}, but a finite count above two is "
                "impossible for a finitely generated group; treating the window "
                "view as an artifact",
                False,
            )
    if len(counts) >= growth_span:
        tail = counts[-growth_span:]
        if all(tail[i] < tail[i + 1] for i in range(len(tail) - 1)):
            return "Infinite", None, True
    return (
        "Undetermined",
        "outer counts neither stabilized nor grew across the configured spans",
        False,
    )


def sphere_guard(verdict: str, *spheres: Sequence[int]) -> Optional[str]:
    """Anomaly text when sphere sizes contradict an end verdict, else None.

    Each argument lists the sphere sizes |S(0)|, |S(1)|, ... of one window,
    and only its three outermost are read. A finitely generated group is
    virtually Z, and so two-ended, exactly when its sphere sizes are bounded
    (Justin 1971); one with infinitely many ends contains a free subgroup of
    rank two (Stallings 1968), so its spheres grow. The guard only refutes:
    One is refused when the sizes are constant in every window given, Two
    when they strictly increase in every window given, and Infinite when
    they are constant. The windows passed are the ones the verdict rests on.
    """
    tails = [sizes[-3:] for sizes in spheres]
    if not tails or any(len(t) < 3 for t in tails):
        return None
    constant = all(t[0] == t[1] == t[2] for t in tails)
    if verdict == "One" and constant:
        return (
            "one outer component, but the sphere sizes are constant over the outermost "
            "radii, as in a two-ended group whose finite part is wider than the radii read"
        )
    if verdict == "Two" and all(t[0] < t[1] < t[2] for t in tails):
        return (
            "two outer components, but the sphere sizes strictly increase over the "
            "outermost radii, which the bounded spheres of a two-ended group rule out"
        )
    if verdict == "Infinite" and constant:
        return (
            "the outer counts grow, but the sphere sizes are constant over the outermost "
            "radii, so the group grows linearly and has at most two ends"
        )
    return None


_NOTES = {
    "Zero": "the window exhausts the group, which is therefore finite and has no ends",
    "One": "a single unbounded complementary component persists at every radius and "
    "survives window enlargement",
    "Two": "two unbounded complementary components persist and survive window "
    "enlargement; by the classical classification such a group contains an "
    "infinite cyclic subgroup of finite index",
    "Infinite": "the number of unbounded complementary components keeps growing with "
    "the radius; by the classical trichotomy an end count above two is infinite",
}


def _count_rows(window: Window, sweep: Optional[Iterable] = None):
    """The counts at radii 1..R read off sweep (by default _sweep(window, 1)),
    cut before the least r <= R with B(r - 1) the whole group, and that r
    (None when sphere R is not empty)."""
    sweep = _sweep(window, 1) if sweep is None else sweep
    rows = [RadiusCount(r=r, outer=uf.outer, inner=uf.count - uf.outer) for r, uf in sweep if r]
    top = bisect_left(window.offsets, len(window))  # spheres top.. are empty
    return rows[::-1][: top - 1], (top if top <= window.radius else None)


def end_count(window: Window, r_max: int, stab_span: int = 3, growth_span: int = 3) -> EndVerdict:
    """End-count verdict from component counts at radii 1..r_max of window.

    The window is a table window (see Window.neighbours). A candidate One
    or Two is rechecked on window.at(window.radius + ENLARGE_BY), which
    grows under the window's own cap, so a cap that fits B(R) but not
    B(R + 4) raises WindowCapError there.
    """
    if r_max < 1:
        raise ParameterError("r_max must be at least 1")
    if r_max >= window.radius:
        raise ParameterError(f"r_max {r_max} must be smaller than the window radius {window.radius}")
    return _verdict(window, *_count_rows(window), r_max, stab_span, growth_span)


def _verdict(window: Window, rows: list, exhausted_at: Optional[int], r_max: int,
             stab_span: int = 3, growth_span: int = 3) -> EndVerdict:
    """The verdict on window from all its rows and exhausted_at (see _count_rows).

    Rows 1..r_max give the candidate (classify_counts). A One or Two needs
    no bounded complementary mass over the last stab_span rows and the same
    counts on the recheck window, built for it alone; then it must pass the
    sphere guard on both windows and match row r_max at every row past it
    up to R - ENLARGE_BY (nearer the outer sphere, a component that reaches
    it may still close up). A refused verdict is Undetermined.
    """
    radius = window.radius
    counts = rows[:r_max]
    outer = [c.outer for c in counts]
    candidate, anomaly, growth_flag = classify_counts(
        outer, stab_span, growth_span, exhausted_at is not None
    )
    recheck = stable = None
    read = [window]
    if candidate in ("One", "Two"):
        if any(c.inner > 0 for c in counts[-stab_span:]):
            anomaly = (
                "bounded complementary components persist inside the window, so the "
                "component tree cannot be trusted at this size"
            )
        else:
            read.append(window.at(radius + ENLARGE_BY))
            recheck, re_exhausted = _count_rows(read[1])
            stable = re_exhausted is None and [c.outer for c in recheck[:r_max]] == outer
            if not stable:
                anomaly = "outer counts changed when the window was enlarged"
    if anomaly is None:
        # a One or Two that got here stands on the recheck window too; Infinite builds none
        sizes = ([b - a for a, b in zip(w.offsets, w.offsets[1:])] for w in read)
        anomaly = sphere_guard(candidate, *sizes)
    if anomaly is None and candidate in ("One", "Two"):
        moved = [c for c in rows[r_max : radius - ENLARGE_BY] if c.outer != outer[-1]]
        if moved:
            anomaly = (
                f"the outer count reads {outer[-1]} at r_max={r_max} but {moved[0].outer} "
                f"at r={moved[0].r}: below the width of a finite part, its elements can "
                "join branches that larger radii separate"
            )
    verdict = candidate if anomaly is None else "Undetermined"
    evidence = EndEvidence(
        counts=tuple(counts),
        recheck_counts=None if recheck is None else tuple(recheck[:r_max]),
        stab_span=stab_span,
        growth_span=growth_span,
        window_radius=radius,
        recheck_radius=None if recheck is None else radius + ENLARGE_BY,
        exhausted_at=exhausted_at,
        growth_flag=growth_flag,
        stable=stable,
        anomaly=anomaly,
    )
    note = _NOTES[verdict] if anomaly is None else "the window does not certify a verdict: " + anomaly
    return EndVerdict(verdict=verdict, note=note, evidence=evidence)
