"""Finite windows of Cayley graphs: balls, spheres, norms, geodesics.

A Window is the ball of a chosen radius around the identity in the Cayley
graph of a group with respect to a finite symmetric generator set. All
later computations are exact inside the window and refuse to answer
outside it; growing the radius is the only way to learn more.

Element order is pinned everywhere: the window enumerates elements sphere
by sphere in breadth-first insertion order, and the search expands each
sphere's elements in order against the generator steps sorted by printed
form. Two builds with the same spec, generators, and radius therefore
produce identical element sequences, which keeps every downstream report
byte-stable.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional

from .errors import OutOfWindowError, ParameterError, WindowCapError
from .groups import GeneratorSet, Group

__all__ = ["Window", "Geodesic", "build_window"]

DEFAULT_CAP = 5_000_000


@dataclass(frozen=True)
class Geodesic:
    """A geodesic from the identity; points[i] has norm i."""

    points: tuple

    @property
    def length(self) -> int:
        return len(self.points) - 1

    @property
    def endpoint(self):
        return self.points[-1]

    def __iter__(self) -> Iterator:
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]


@dataclass
class Window:
    """A radius-R ball with norms, sphere lists, and canonical geodesics."""

    group: Group
    gens: GeneratorSet
    radius: int
    norms: dict
    spheres: tuple  # spheres[r] = tuple of elements of norm r, build order
    steps: tuple  # non-identity generators, sorted by printed form
    _pred: dict = field(default_factory=dict, repr=False)
    _index: Optional["WindowIndex"] = field(default=None, repr=False, compare=False)

    def __contains__(self, g) -> bool:
        return g in self.norms

    def __len__(self) -> int:
        return len(self.norms)

    def __iter__(self) -> Iterator:
        """All elements in window order (sphere by sphere, build order)."""
        for sph in self.spheres:
            yield from sph

    @property
    def elements(self) -> list:
        return list(self)

    @property
    def index(self) -> "WindowIndex":
        """The integer view of this window, built on first use and kept."""
        if self._index is None:
            self._index = WindowIndex(self)
        return self._index

    def knorm(self, g) -> int:
        """Word norm of g relative to the generator set."""
        try:
            return self.norms[g]
        except KeyError:
            raise OutOfWindowError(
                f"element {self.group.show(g)} lies outside the radius-{self.radius} window"
            ) from None

    def distance(self, g, h) -> int:
        """Left-invariant word metric; defined when inv(g)*h is in the window."""
        return self.knorm(self.group.mul(self.group.inv(g), h))

    def sphere(self, r: int) -> tuple:
        if not 0 <= r <= self.radius:
            raise OutOfWindowError(f"sphere radius {r} outside window radius {self.radius}")
        return self.spheres[r]

    def ball(self, r: int) -> list:
        if not 0 <= r <= self.radius:
            raise OutOfWindowError(f"ball radius {r} outside window radius {self.radius}")
        out = []
        for sph in self.spheres[: r + 1]:
            out.extend(sph)
        return out

    def annulus(self, lo: int, hi: int) -> list:
        """Elements g with lo < |g| <= hi, in window order."""
        if lo > hi:
            raise ValueError(f"empty annulus bounds ({lo}, {hi}]")
        if not 0 <= hi <= self.radius:
            raise OutOfWindowError(f"annulus reach {hi} outside window radius {self.radius}")
        out = []
        for r in range(max(lo + 1, 0), hi + 1):
            out.extend(self.spheres[r])
        return out

    def maxnorm_of(self, items) -> int:
        """Largest norm over items; 0 for an empty collection."""
        best = 0
        for g in items:
            n = self.knorm(g)
            if n > best:
                best = n
        return best

    def predecessor(self, g):
        """Canonical predecessor: the least-printed p at norm |g|-1 with
        p*s = g for a generator step s."""
        if g not in self.norms:
            raise OutOfWindowError(
                f"element {self.group.show(g)} lies outside the radius-{self.radius} window"
            )
        if g in self._pred:
            return self._pred[g]
        r = self.norms[g]
        if r == 0:
            raise ValueError("the identity has no predecessor")
        grp = self.group
        best = None
        best_key = None
        for s in self.steps:
            p = grp.mul(g, grp.inv(s))
            if self.norms.get(p) == r - 1:
                k = grp.key(p)
                if best_key is None or k < best_key:
                    best, best_key = p, k
        self._pred[g] = best
        return best

    def geodesic(self, g) -> Geodesic:
        """The canonical geodesic from the identity to g (least-predecessor walk)."""
        self.knorm(g)  # membership check
        points = [g]
        cur = g
        while self.norms[cur] > 0:
            cur = self.predecessor(cur)
            points.append(cur)
        points.reverse()
        return Geodesic(tuple(points))


class WindowIndex:
    """Integer view of a window: ids, sphere offsets, neighbour tables, ranks.

    Ids follow window order, so sphere r holds the ids offsets[r] up to
    offsets[r + 1]. The id map, neighbour tables and printed-form ranks are
    computed on first request and kept, so a caller that needs none of them
    pays only for the element list and the offsets.
    """

    def __init__(self, window: Window):
        self.group = window.group
        self.elements = window.elements
        offsets = [0]
        for sph in window.spheres:
            offsets.append(offsets[-1] + len(sph))
        self.offsets = tuple(offsets)
        self._tables: dict = {}
        self._ranks: Optional[array] = None

    @cached_property
    def ids(self) -> dict:
        """The id of every window element."""
        return {g: i for i, g in enumerate(self.elements)}

    def norm(self, i: int) -> int:
        """Word norm of the element with id i."""
        return bisect_right(self.offsets, i) - 1

    def neighbours(self, steps, radius: Optional[int] = None) -> tuple:
        """Right-neighbour columns for a step set closed under inverses.

        One array('i') per non-identity step s: entry i is the id of
        elements[i]*s, or -1 when that product lies outside the window. The
        column of s^-1 is the inverse of the column of s, so each inverse
        pair costs one product per element. With radius given, the columns
        may hold only the rows of norm <= radius; a later request for more
        rows fills the table again.
        """
        rows = len(self.elements) if radius is None else self.offsets[radius + 1]
        key = frozenset(steps) - {self.group.identity}
        cols = self._tables.get(key)
        if cols is None or (cols and len(cols[0]) < rows):
            cols = self._tables[key] = self._fill(key, rows)
        return cols

    def _fill(self, steps: frozenset, rows: int) -> tuple:
        grp = self.group
        if any(grp.inv(s) not in steps for s in steps):
            raise ParameterError("step set is not closed under inverses")
        elements = self.elements
        if rows < len(elements) and "ids" not in self.__dict__:
            # products of rows of norm <= r have norm <= r+1
            end = self.offsets[self.norm(rows - 1) + 2]
            ids = {g: i for i, g in enumerate(elements[:end])}
        else:
            ids = self.ids
        # a row of norm r gets its s^-1 entry from an s row of norm <= r+1,
        # so mirroring leaves the last sphere of a partial table to products
        last = self.offsets[self.norm(rows - 1)] if rows < len(elements) else rows
        cols: dict = {}
        for s in steps:
            mirror = cols.get(grp.inv(s))
            if mirror is None:
                col = array("i", [ids.get(grp.mul(x, s), -1) for x in elements[:rows]])
            else:
                col = array("i", [-1]) * rows
                for i, y in enumerate(mirror):
                    if 0 <= y < last:
                        col[y] = i
                for y in range(last, rows):
                    col[y] = ids.get(grp.mul(elements[y], s), -1)
            cols[s] = col
        return tuple(cols.values())

    def ranks(self) -> array:
        """ranks[i] is the position of elements[i] in printed-form order."""
        if self._ranks is None:
            show = self.group.show
            elements = self.elements
            order = sorted(range(len(elements)), key=lambda i: show(elements[i]))
            ranks = array("i", [0]) * len(elements)
            for pos, i in enumerate(order):
                ranks[i] = pos
            self._ranks = ranks
        return self._ranks


def build_window(
    group: Group,
    gens: GeneratorSet,
    radius: int,
    cap: int = DEFAULT_CAP,
) -> Window:
    """Enumerate the ball of the given radius by breadth-first search.

    Raises WindowCapError as soon as the element count would exceed cap,
    reporting the last fully enumerated radius.
    """
    if radius < 0:
        raise ValueError("window radius must be nonnegative")
    steps = tuple(
        sorted((g for g in gens.elements if g != group.identity), key=group.key)
    )
    spheres = [(group.identity,)]
    norms = {group.identity: 0}
    for r in range(1, radius + 1):
        nxt = []
        for p in spheres[r - 1]:
            for s in steps:
                q = group.mul(p, s)
                if q not in norms:
                    norms[q] = r
                    nxt.append(q)
                    if len(norms) > cap:
                        raise WindowCapError(cap, r - 1)
        spheres.append(tuple(nxt))
    return Window(
        group=group,
        gens=gens,
        radius=radius,
        norms=norms,
        spheres=tuple(spheres),
        steps=steps,
    )
