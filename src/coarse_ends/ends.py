"""Component decompositions of ball complements and end-count verdicts.

Removing the elements of norm below r from the window leaves the set
{|g| >= r}, which splits into components under one-step adjacency by a
symmetric step set (the generators by default). Components that reach
the outer sphere of the window are the finite-scale stand-ins for
unbounded pieces; tracking how they nest as r grows yields a tree whose
branches approximate the ends of the group.

Verdicts are conservative. One and Two require the outer count to sit
still across a span of radii, to survive growing the window 4 larger,
and to coexist with zero bounded complementary mass; growth across the
final radii yields Infinite; an exhausted group yields Zero; everything
else, including a stable count of three or more (which no finitely
generated group can sustain), is Undetermined with the evidence attached.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence

from .asdim import greedy_ball_cover
from .cayley import DEFAULT_CAP, ENLARGE_BY, Window, build_window
from .covers import star
from .errors import CoverVerificationError, ParameterError
from .groups import Group, power_generators

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
    "k4_component_bound",
]


@dataclass(frozen=True)
class Component:
    elements: tuple
    outer: bool
    size: int
    max_norm: int
    least: str  # printed form of the least element, the label anchor


@dataclass(frozen=True)
class ComponentDecomposition:
    components: tuple

    @property
    def outer_count(self) -> int:
        return sum(1 for c in self.components if c.outer)


class _UnionFind:
    """Components of a growing member set of window ids.

    Adding an id joins it to every member among its step neighbours, read
    off the window's neighbour table. The table holds right neighbours
    only, so an edge is seen from whichever end is added second; that is
    the whole adjacency because the step set is closed under inverses.
    Adding the spheres R, R-1, ..., r in turn yields the decomposition of
    {|g| >= r} after each one (offline incremental connectivity, as in
    Tarjan 1975). count and outer track the number of components and of
    those reaching the outer sphere.
    """

    def __init__(self, window: Window, steps: Optional[frozenset] = None):
        self.cols = window.neighbours(window.gens if steps is None else steps)
        n = len(window)
        self.boundary = window.offsets[window.radius]
        self.parent = list(range(n))
        self.size = [1] * n
        self.present = bytearray(n)
        self.touches = bytearray(n)  # at roots: the component reaches the boundary
        self.count = 0
        self.outer = 0

    def find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    def add(self, ids: Iterable[int]) -> None:
        parent, size, present, touches = self.parent, self.size, self.present, self.touches
        find, cols, boundary = self.find, self.cols, self.boundary
        count, outer = self.count, self.outer
        for i in ids:
            present[i] = 1
            count += 1
            if i >= boundary:
                touches[i] = 1
                outer += 1
            for col in cols:
                y = col[i]
                if y < 0 or not present[y]:
                    continue
                a, b = find(i), find(y)
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
        """Root of every id from lo to the end of the window."""
        find = self.find
        return [find(i) for i in range(lo, len(self.parent))]


def _classes(labels: list, lo: int, ranks) -> list:
    """Ids lo, lo+1, ... grouped by root label, ordered by least printed element."""
    groups: dict = {}
    for i, root in enumerate(labels, start=lo):
        groups.setdefault(root, []).append(i)
    return sorted(groups.values(), key=lambda ids: min(ranks[i] for i in ids))


def components(window: Window, r: int, steps: Optional[frozenset] = None) -> ComponentDecomposition:
    """Decompose {g in window : |g| >= r} into components of the step adjacency.

    Components are indexed by their least printed element; each lists its
    elements by norm, then printed form. The step set must be closed under
    inverses.
    """
    if not 0 <= r < window.radius:
        raise ParameterError(f"base radius {r} must satisfy 0 <= r < window radius {window.radius}")
    lo = window.offsets[r]
    uf = _UnionFind(window, steps)
    uf.add(range(lo, len(window)))
    ranks = window.ranks
    elements = window.elements
    comps = []
    for ids in _classes(uf.labels(lo), lo, ranks):
        least = min(ids, key=ranks.__getitem__)
        ids.sort(key=lambda i: (window.norm(i), ranks[i]))
        comps.append(
            Component(
                elements=tuple(elements[i] for i in ids),
                outer=ids[-1] >= uf.boundary,
                size=len(ids),
                max_norm=window.norm(ids[-1]),
                least=window.group.show(elements[least]),
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
    enlargement re-run; end_count applies the stricter discipline.
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
    ranks = window.ranks
    levels = []
    outer_counts = []
    exhausted = False
    owner = None  # root label at the previous radius -> node id
    for r in range(r_min, r_max + 1):
        lo = offsets[r]
        classes = _classes(labels[r], lo, ranks)
        nodes = []
        for idx, ids in enumerate(classes):
            parent = None
            if owner is not None:
                parent = owner[labels[r - 1][ids[0] - offsets[r - 1]]]
            outer = ids[-1] >= uf.boundary
            nodes.append(TreeNode(id=idx, size=len(ids), outer=outer, parent=parent))
        levels.append(TreeLevel(r=r, nodes=tuple(nodes)))
        outer_counts.append(sum(1 for n in nodes if n.outer))
        if not classes:
            exhausted = True
        owner = {labels[r][ids[0] - lo]: idx for idx, ids in enumerate(classes)}
    verdict, _, _ = classify_counts(outer_counts, exhausted=exhausted)
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


def k4_component_bound(window: Window, L: Iterable):
    """Observed K^4-component count of window \\ L against the covering bound.

    The bound m is the greedy number of translates g*K needed to cover
    st(L, U_K) = L*K*K; only components reaching the window boundary are
    counted. For nonempty L the observed count must not exceed m and a
    violation raises; for empty L there is nothing to cover (m = 0) and
    the complement is the whole window in one piece, so no comparison is
    made.
    """
    L_set = set(L)
    k4 = power_generators(window.group, window.gens, 4)
    if L_set:
        reach = window.maxnorm_of(L_set) + 2
        if reach > window.radius:
            raise ParameterError(
                f"L reaches norm {window.maxnorm_of(L_set)}; need R >= that + 2"
            )
    uf = _UnionFind(window, k4)
    uf.add(i for i, g in enumerate(window) if g not in L_set)
    observed = uf.outer
    if not L_set:
        return observed, 0
    centers = greedy_ball_cover(window, star(L_set, 1, window), 1)
    m = len(centers)
    if observed > m:
        raise CoverVerificationError(
            f"observed {observed} components exceed the covering bound {m}"
        )
    return observed, m
