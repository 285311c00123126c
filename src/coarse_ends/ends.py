"""Component decompositions of ball complements and end-count verdicts.

Removing the elements of norm below r from the window leaves the set
{|g| >= r}, which splits into components under one-step adjacency by the
generators, a symmetric step set. Components that reach the outer sphere
of the window are the finite-scale stand-ins for unbounded pieces;
tracking how they nest as r grows yields a tree whose branches
approximate the ends of the group. Every component meets sphere r, and
is labelled by the least printed element there, so its label does not
change when the window grows.

All of it comes from one union-find sweep that adds the spheres R, R-1,
... of the window's generator table. Each added id keeps its own root as
it joins its present neighbours, so an edge costs one root walk; the root
labels of a whole tail of ids are read by repeated parent lookups over
the list, with no call per id, and the anchors off sphere r alone.

Verdicts are conservative. One and Two require the outer count to sit
still across a span of radii, to survive growing the window 4 larger,
and to coexist with zero bounded complementary mass; growth across the
final radii yields Infinite; an exhausted group yields Zero; everything
else, including a stable count of three or more (which no finitely
generated group can sustain), is Undetermined with the evidence attached.
A verdict that the sphere sizes of its windows contradict is refused too
(see sphere_guard): below the diameter of a finite factor, a two-ended
group such as Z x C8 shows one outer component at every radius.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .cayley import DEFAULT_CAP, ENLARGE_BY, Window, build_window
from .errors import ParameterError
from .groups import Group

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


@dataclass(frozen=True)
class Component:
    elements: tuple
    outer: bool
    size: int
    max_norm: int
    least: str  # printed form of the least element on sphere r, the label anchor


@dataclass(frozen=True)
class ComponentDecomposition:
    components: tuple

    @property
    def outer_count(self) -> int:
        return sum(1 for c in self.components if c.outer)


class _UnionFind:
    """Components of a growing member set of window ids.

    Adding an id joins it to every member among its generator neighbours,
    read off the window's generator table. The table holds right
    neighbours only, so an edge is seen from whichever end is added second;
    that is the whole adjacency because the generators are closed under
    inverses.
    Adding the spheres R, R-1, ..., r in turn yields the decomposition of
    {|g| >= r} after each one (offline incremental connectivity, as in
    Tarjan 1975). count and outer track the number of components and of
    those reaching the outer sphere.

    add keeps the root of the id being added as it goes: a fresh id is its
    own root, and after each union the winner is. So a present neighbour
    costs one root walk (with path halving), not two. labels reads the
    roots of a whole tail of ids by replacing every entry with its parent's
    until a pass changes nothing, and writes them back, which only shortens
    paths.
    """

    def __init__(self, window: Window):
        self.cols = window.neighbours()
        n = len(window)
        self.boundary = window.offsets[window.radius]
        self.parent = list(range(n))
        self.size = [1] * n
        self.present = bytearray(n)
        self.touches = bytearray(n)  # at roots: the component reaches the boundary
        self.count = 0
        self.outer = 0

    def add(self, ids: Iterable[int]) -> None:
        parent, size, present, touches = self.parent, self.size, self.present, self.touches
        cols, boundary = self.cols, self.boundary
        count, outer = self.count, self.outer
        for i in ids:
            present[i] = 1
            count += 1
            if i >= boundary:
                touches[i] = 1
                outer += 1
            a = i  # the root of i's component
            for col in cols:
                b = col[i]
                if b < 0 or not present[b]:
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

    def labels(self, lo: int) -> list:
        """Root of every id from lo to the end of the window, all of them
        members."""
        parent = self.parent
        roots = parent[lo:]
        while True:
            up = list(map(parent.__getitem__, roots))
            if up == roots:
                break
            parent[lo:] = roots = up
        return roots


def _anchored(roots: list, window: Window, r: int) -> list:
    """(anchor, root) for every root label of {|g| >= r}, sorted by anchor:
    the least printed element of the component's part of sphere r. roots
    holds the label of every id from offsets[r] on. Every component meets
    sphere r, as a canonical geodesic keeps norm >= r down to sphere r by
    generator steps.
    """
    lo, hi = window.offsets[r], window.offsets[r + 1]
    shown = map(window.group.show, window.elements[lo:hi])
    # in descending printed order, the last value written for a root is its least
    least = dict(sorted(zip(roots[: hi - lo], shown), key=itemgetter(1), reverse=True))
    return sorted(zip(least.values(), least))


def components(window: Window, r: int) -> ComponentDecomposition:
    """Decompose {g in window : |g| >= r} into components of the generator
    adjacency.

    Components are indexed by their anchor, the least printed element of
    their part of sphere r, which a larger window changes only when two
    components merge; each lists its elements in window order. The
    generators must be closed under inverses.
    """
    if not 0 <= r < window.radius:
        raise ParameterError(f"base radius {r} must satisfy 0 <= r < window radius {window.radius}")
    lo = window.offsets[r]
    uf = _UnionFind(window)
    uf.add(range(lo, len(window)))
    roots = uf.labels(lo)
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
                outer=last >= uf.boundary,
                size=len(ids),
                max_norm=window.norm(last),
                least=least,
            )
        )
    return ComponentDecomposition(components=tuple(comps))


# ---------------------------------------------------------------------------
# End tree


@dataclass(frozen=True)
class TreeNode:
    id: int
    size: int
    outer: bool
    parent: Optional[int]


@dataclass(frozen=True)
class TreeLevel:
    r: int
    nodes: tuple


@dataclass(frozen=True)
class EndTree:
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
        for (r, i), label in names.items():
            lines.append(f'  "{label}";')
        for idx, lv in enumerate(self.levels[1:], start=1):
            prev_r = self.levels[idx - 1].r
            for n in lv.nodes:
                if n.outer and n.parent is not None and (prev_r, n.parent) in names:
                    lines.append(f'  "{names[(prev_r, n.parent)]}" -> "{names[(lv.r, n.id)]}";')
        lines.append("}")
        return "\n".join(lines)


def component_tree(window: Window, r_min: int, r_max: int, margin: int = 4) -> EndTree:
    """Nest the decompositions at radii r_min..r_max into a tree.

    One sweep adds the spheres R..r_min and records every element's
    component at each radius in range. Components only merge as the sweep
    moves inward, so every component at radius r+1 lies inside exactly one
    component at radius r, its parent.
    The verdict is the classification read off this window alone, with no
    enlargement re-run, and is refused when this window's sphere sizes
    contradict it (sphere_guard); end_count applies the stricter discipline.
    """
    if r_min < 0 or r_min > r_max:
        raise ParameterError("need 0 <= r_min <= r_max")
    if r_max + margin > window.radius:
        raise ParameterError(
            f"window radius {window.radius} too small: need r_max + {margin} <= R"
        )
    offsets = window.offsets
    uf = _UnionFind(window)
    labels = {}
    for r in range(window.radius, r_min - 1, -1):
        uf.add(range(offsets[r], offsets[r + 1]))
        if r <= r_max:
            labels[r] = uf.labels(offsets[r])
    levels = []
    outer_counts = []
    exhausted = False
    owner = None  # root label at the previous radius -> node id
    for r in range(r_min, r_max + 1):
        roots = labels[r]
        sizes = Counter(roots)
        reach = set(roots[uf.boundary - offsets[r] :])  # roots of the outer sphere
        anchored = [root for _, root in _anchored(roots, window, r)]
        nodes = tuple(
            TreeNode(
                id=idx,
                size=sizes[root],
                outer=root in reach,
                # root is a member, so its label one radius in names the parent
                parent=None if owner is None else owner[labels[r - 1][root - offsets[r - 1]]],
            )
            for idx, root in enumerate(anchored)
        )
        levels.append(TreeLevel(r=r, nodes=nodes))
        outer_counts.append(sum(1 for n in nodes if n.outer))
        if not nodes:
            exhausted = True
        owner = {root: idx for idx, root in enumerate(anchored)}
    verdict, _, _ = classify_counts(outer_counts, exhausted=exhausted)
    if sphere_guard(verdict, _sphere_sizes(window)):
        verdict = "Undetermined"
    return EndTree(levels=tuple(levels), verdict=verdict)


# ---------------------------------------------------------------------------
# Verdicts


@dataclass(frozen=True)
class RadiusCount:
    r: int
    outer: int
    inner: int


@dataclass(frozen=True)
class EndEvidence:
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


@dataclass(frozen=True)
class EndVerdict:
    verdict: str
    note: str
    evidence: EndEvidence

    def to_json_dict(self) -> dict:
        return {"verdict": self.verdict, "note": self.note, **asdict(self.evidence)}


def _check_spans(stab_span: int, growth_span: int) -> None:
    # a span of 0 makes the whole sequence its tail, and a growth span of 1
    # makes "strictly increasing" true of an empty run of comparisons
    if stab_span < 1:
        raise ParameterError(f"stab_span must be at least 1, got {stab_span}")
    if growth_span < 2:
        raise ParameterError(f"growth_span must be at least 2, got {growth_span}")


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
    _check_spans(stab_span, growth_span)
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


def _sphere_sizes(window: Window) -> list:
    offsets = window.offsets
    return [b - a for a, b in zip(offsets, offsets[1:])]


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


def _count_rows(window: Window, r_max: int):
    offsets = window.offsets
    uf = _UnionFind(window)
    counts = {}
    for r in range(window.radius, 0, -1):
        uf.add(range(offsets[r], offsets[r + 1]))
        counts[r] = RadiusCount(r=r, outer=uf.outer, inner=uf.count - uf.outer)
    rows = []
    for r in range(1, r_max + 1):
        if offsets[r] == len(window):  # the ball of radius r-1 is everything
            return rows, r
        rows.append(counts[r])
    return rows, None


def end_count(
    group: Group,
    gens: frozenset,
    r_max: int,
    stab_span: int = 3,
    growth_span: int = 3,
    window_radius: Optional[int] = None,
    cap: int = DEFAULT_CAP,
) -> EndVerdict:
    """End-count verdict from component counts at radii 1..r_max."""
    if r_max < 1:
        raise ParameterError("r_max must be at least 1")
    _check_spans(stab_span, growth_span)
    radius = window_radius if window_radius is not None else 2 * r_max + 4
    if r_max >= radius:
        raise ParameterError(f"r_max {r_max} must be smaller than the window radius {radius}")
    window = build_window(group, gens, radius, cap=cap, table=True)
    rows, exhausted_at = _count_rows(window, r_max)
    outer = [c.outer for c in rows]
    candidate, anomaly, growth_flag = classify_counts(
        outer, stab_span, growth_span, exhausted_at is not None
    )

    recheck_rows = None
    recheck_radius = None
    stable = None
    big = None
    verdict = candidate
    if candidate in ("One", "Two"):
        tail = rows[-stab_span:]
        if any(c.inner > 0 for c in tail):
            verdict = "Undetermined"
            anomaly = (
                "bounded complementary components persist inside the window, so the "
                "component tree cannot be trusted at this size"
            )
        else:
            recheck_radius = radius + ENLARGE_BY
            big = window.at(recheck_radius)
            recheck_rows, re_exhausted = _count_rows(big, r_max)
            stable = (
                re_exhausted is None
                and [c.outer for c in recheck_rows] == outer
            )
            if not stable:
                verdict = "Undetermined"
                anomaly = "outer counts changed when the window was enlarged"
    # a One or Two that got here stands on the recheck window too; Infinite builds none
    read = (window,) if big is None else (window, big)
    refusal = sphere_guard(verdict, *map(_sphere_sizes, read))
    if refusal:
        verdict, anomaly = "Undetermined", refusal

    if verdict == "Undetermined":
        note = "the window does not certify a verdict: " + (anomaly or "insufficient data")
    else:
        note = _NOTES[verdict]
    evidence = EndEvidence(
        counts=tuple(rows),
        recheck_counts=None if recheck_rows is None else tuple(recheck_rows),
        stab_span=stab_span,
        growth_span=growth_span,
        window_radius=radius,
        recheck_radius=recheck_radius,
        exhausted_at=exhausted_at,
        growth_flag=growth_flag,
        stable=stable,
        anomaly=anomaly,
    )
    return EndVerdict(verdict=verdict, note=note, evidence=evidence)
