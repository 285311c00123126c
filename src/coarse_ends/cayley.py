"""Finite windows of Cayley graphs: balls, spheres, norms, geodesics.

A Window is the ball of a chosen radius around the identity in the Cayley
graph of a group with respect to a finite symmetric generator set. All
later computations are exact inside the window and refuse to answer
outside it; growing the radius is the only way to learn more. Besides
balls and spheres, a window reads maxnorm(r), the largest norm in B(r),
and ancestor(g, i), point i of g's canonical geodesic.

Element order is pinned everywhere: the window enumerates elements sphere
by sphere in breadth-first insertion order, and the search expands each
sphere's elements in order against the generator steps sorted by printed
form. Two builds with the same spec, generators, and radius therefore
produce identical element sequences, which keeps every downstream report
byte-stable. It also makes the radius-r window the prefix of every larger
one, so `Window.at` reads a smaller window off a larger one by slicing
and gets a larger one by continuing the search from the outer sphere:
one search per command serves every radius it reads.

A plain search tries only the steps that can extend a shortlex-least word.
Window order is the shortlex order of least words, letters in step order,
so each element is first reached from the prefix of its least geodesic
word by that word's last letter. If p was first reached by step t, p*s is
new only if t*s is neither the identity nor a step (else |p*s| <= |p|) and
(t, s) is the least pair of steps with product t*s (else an earlier pair
spells p*s by a smaller word). The search forms the |K|^2 products t*s
once, on reaching the second sphere it adds, and skips every other pair,
the way back t*s = e among them, so the window order is that of a search
that tries every step. Only an element's first step is remembered, for
the sphere being expanded; the identity and the outer sphere of a window
being grown have none and try every step.

A table window, build_window(..., table=True), writes the generator table
during its search instead: an id map and one array('i') column per step,
in step order. An element is expanded only by the steps whose entry is
still unknown, and each product p*s = q writes its entry and the mirrored
one, q*s^-1 = p; so every edge with an endpoint of norm < R is formed
once, and the way back is one such mirrored entry. The outer sphere then
forms products for the first step of each inverse pair where the entry
is still unknown, mirroring those that land on the sphere; an entry left
unknown after that leads outside the window. When every step has
exponent-sum parity 1 (group.parity), as the standard steps of free, free
abelian and even-order cyclic groups and their products do, the parity
of x is |x| mod 2, no edge joins two elements of one sphere, and the
outer sphere forms no product at all. A skipped product would only
have reached an element already in the window, so window order, norms
and the cap check are those of a plain search. Growing a table window
copies its table and id map and re-expands only the old outer sphere's
entries that lead out; a prefix of a table window is a plain window.
Whatever the cap, a table holds at most TABLE_ENTRIES entries, rows x
steps: the search refuses before its columns would grow past them.
Every reader of neighbours, and so every command that reads a neighbour
(ends, tree, clopen), takes a table window; a plain window has no table
and builds no id map unless a caller reads it.

Every product p*s by a fixed step s, in both searches, in the
predecessor walk and in a ball translate, goes through the step's map
group.step_map(s), built once per step; only the |K|^2 products of two
steps that a plain search pairs up go through Group.mul. A ball translate
(see translator) forms x*v for every v in B(r) by walking a predecessor
tree of B(r): x*v = (x*p)*s for a predecessor p = v*s^-1 of v, one
step-map product per ball element.

perfbench/spans.py wraps `build_window` and `Window.geodesic` by name and
reads `Window.spheres`, so those names stay.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import deque
from functools import cached_property
from itertools import islice
from typing import Iterator

from .errors import OutOfWindowError, ParameterError, WindowCapError
from .groups import Group

__all__ = ["DEFAULT_CAP", "Window", "build_window"]

DEFAULT_CAP = 5_000_000
# rows x steps that a generator table may hold: 128 MiB of array('i'), whatever the cap
TABLE_ENTRIES = 1 << 25
ENLARGE_BY = 4  # radius added to a window to recheck a verdict read off it
_drop = deque(maxlen=0).append  # an append that keeps nothing


class Window:
    """A radius-R ball: elements in window order, sphere offsets and norms.

    The id of an element is its position in window order, so sphere r holds
    the ids offsets[r] up to offsets[r + 1]; window order is the one order
    on the window. The id map and canonical predecessors are computed on
    first request and kept, so a caller that needs neither pays only for
    the breadth-first search. A table window's search has already written
    its id map and the table of its generators (see `at`). cap bounds the
    element count of this window and of every window grown from it by `at`.
    """

    def __init__(self, group: Group, gens: frozenset, radius: int, norms: dict, elements: list,
                 offsets: tuple, steps: tuple, cap: int, table: bool = False):
        self.group, self.gens, self.radius = group, gens, radius
        # element -> norm. The values are small cached ints; an id map in its
        # place would add one int object per element to every window.
        self.norms = norms
        self.elements = elements  # window order: sphere by sphere, build order
        self.offsets = offsets  # radius + 2 entries; offsets[-1] == len(elements)
        self.steps = steps  # non-identity generators, sorted by printed form
        self.cap = cap
        self.table = table  # the search writes the generator table (see at)
        self._cols: tuple = ()  # neighbours()
        self._pred: dict = {}
        # (id of the predecessor, step map) per element of B(r) but the identity,
        # in window order, for the largest r a translator was asked for
        self._plan: list = []

    def __contains__(self, g) -> bool:
        return g in self.norms

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator:
        """All elements in window order (sphere by sphere, build order)."""
        return iter(self.elements)

    @property
    def spheres(self) -> tuple:
        """One list per radius; each call copies the window."""
        return tuple(self.sphere(r) for r in range(self.radius + 1))

    def knorm(self, g) -> int:
        """Word norm of g relative to the generator set."""
        try:
            return self.norms[g]
        except KeyError:
            raise OutOfWindowError(
                f"element {self.group.show(g)} lies outside the radius-{self.radius} window"
            ) from None

    def norm(self, i: int) -> int:
        """Word norm of the element with id i."""
        return bisect_right(self.offsets, i) - 1

    def sphere(self, r: int) -> list:
        if not 0 <= r <= self.radius:
            raise OutOfWindowError(f"sphere radius {r} outside window radius {self.radius}")
        return self.elements[self.offsets[r] : self.offsets[r + 1]]

    def ball(self, r: int) -> list:
        if not 0 <= r <= self.radius:
            raise OutOfWindowError(f"ball radius {r} outside window radius {self.radius}")
        return self.elements[: self.offsets[r + 1]]

    def annulus(self, lo: int, hi: int) -> list:
        """Elements g with lo < |g| <= hi, in window order."""
        if lo > hi:
            raise ValueError(f"empty annulus bounds ({lo}, {hi}]")
        if not 0 <= hi <= self.radius:
            raise OutOfWindowError(f"annulus reach {hi} outside window radius {self.radius}")
        return self.elements[self.offsets[max(lo + 1, 0)] : self.offsets[hi + 1]]

    def maxnorm(self, r: int) -> int:
        """The largest norm in the ball B(r). A radius above R is read only
        off a window that has exhausted a finite group (its outer sphere is
        empty, or it has no step), where B(r) is the whole window."""
        R = self.radius
        if r < 0:
            raise ParameterError("scale radius must be nonnegative")
        if r > R and self.steps and self.offsets[R] < len(self):
            raise OutOfWindowError(f"ball B({r}) reaches past the radius-{R} window")
        return self.norm(self.offsets[min(r, R) + 1] - 1)

    def predecessor(self, g):
        """Canonical predecessor: the least-printed p at norm |g|-1 with
        p*s = g for a generator step s."""
        r = self.knorm(g)
        if g in self._pred:
            return self._pred[g]
        if r == 0:
            raise ValueError("the identity has no predecessor")
        # by products, not the neighbour table: geodesics are walked for few
        # elements, and a table costs |K|/2 products per element of the window
        norms = self.norms
        below = [p for p in (back(g) for back in self._backs) if norms.get(p) == r - 1]
        # most elements have one candidate, which needs no printed form
        best = below[0] if len(below) == 1 else min(below, key=self.group.show)
        self._pred[g] = best
        return best

    @cached_property
    def _backs(self) -> tuple:
        """The maps x -> x*s^-1, one per step, in step order."""
        grp = self.group
        return tuple(grp.step_map(grp.inv(s)) for s in self.steps)

    def translator(self, r: int):
        """The map x -> [x*v for v in ball(r)], in window order.

        Each v but the identity is (x*p)*s for a predecessor p = v*s^-1 at
        norm |v| - 1, the first in step order, and its step s, so a
        translate costs one step-map product per ball element. Any
        predecessor serves: x*v = (x*p)*s does not depend on the path that
        reaches v, so the translate is the same list whichever is taken,
        and the plan needs neither the least-printed one nor `_pred`. The
        plan, one (id of p, map of s) pair per element, is read once;
        B(r)'s plan is a prefix of B(r+1)'s, so a larger radius only
        extends it.
        """
        if not 0 <= r <= self.radius:
            raise OutOfWindowError(f"ball radius {r} outside window radius {self.radius}")
        end = self.offsets[r + 1]
        plan = self._plan
        if len(plan) < end - 1:
            norms, ball = self.norms, self.elements[:end]
            ids = dict(zip(ball, range(end)))
            moves = tuple(zip(self._backs, map(self.group.step_map, self.steps)))
            for v in ball[len(plan) + 1 :]:
                below = norms[v] - 1
                for back, step in moves:
                    p = back(v)
                    if norms.get(p) == below:
                        plan.append((ids[p], step))
                        break
        plan = plan[: end - 1]

        def translate(x) -> list:
            out = [x]
            put = out.append
            for i, step in plan:
                put(step(out[i]))
            return out

        return translate

    def geodesic(self, g) -> tuple:
        """The canonical geodesic from the identity to g (least-predecessor
        walk); point i has norm i."""
        points = [g]
        for _ in range(self.knorm(g)):
            points.append(self.predecessor(points[-1]))
        return tuple(reversed(points))

    def ancestor(self, g, i: int):
        """Point i of g's canonical geodesic, for 0 <= i <= |g|: |g| - i
        predecessor steps back from g. A cover centre or a last exit is one
        such point, read without building the rest of the geodesic."""
        r = self.knorm(g)
        if not 0 <= i <= r:
            raise ParameterError(f"geodesic index {i} outside 0..{r}")
        for _ in range(r - i):
            g = self.predecessor(g)
        return g

    def at(self, radius: int) -> Window:
        """build_window(group, gens, radius, cap, table=...) from this
        window's search.

        A smaller radius is a prefix; a larger one continues the search from
        the outer sphere under the same cap. This window is left unchanged,
        and no id map, table or predecessor is shared with it.

        A table window gives a table window at its own radius or a larger
        one: it copies the rows and the id map, continues the search by the
        entries still unknown (at first, the old outer sphere's entries that
        lead out), and then fills its own outer sphere's rows. A prefix of a
        table window is a plain window.
        """
        if radius < 0:
            raise ValueError("window radius must be nonnegative")
        top = min(radius, self.radius)
        end = self.offsets[top + 1]
        elements = self.elements[:end]
        # norms was filled in window order, so its first entries are the prefix
        norms = dict(islice(self.norms.items(), end))
        offsets = list(self.offsets[: top + 2])
        table = self.table and radius >= self.radius
        if table:
            ids, cols = self._search_table(elements, norms, offsets, radius)
        else:
            self._search(elements, norms, offsets, radius)
        window = Window(self.group, self.gens, radius, norms, elements, tuple(offsets), self.steps,
                        self.cap, table)
        if table:
            window.ids, window._cols = ids, cols
        return window

    def _search(self, elements: list, norms: dict, offsets: list, radius: int) -> None:
        """Continue a plain search from the outer sphere out to radius."""
        top = len(offsets) - 2
        grp, cap = self.group, self.cap
        # tries[k]: the (id, step map) pairs that can extend the least word of
        # an element first reached by steps[k], in step order; the last entry
        # is every step, for an element whose first step is unknown (k = -1).
        # came[i] is that k for the i-th element of the frontier. The first
        # frontier with first steps is that of sphere top + 2.
        pairs = tuple(enumerate(self.steps))
        moves = tuple((j, grp.step_map(s)) for j, s in pairs)
        tries = [moves]
        came = [-1] * (offsets[top + 1] - offsets[top])
        for r in range(top + 1, radius + 1):
            if r == top + 2:
                # least[c]: the least pair (k, j) with steps[k]*steps[j] = c, or
                # None when c is the identity or a step. Its keys are B(2), so
                # past the cap they stop the search as sphere 2 would.
                least = dict.fromkeys((grp.identity, *self.steps))
                for k, t in pairs:
                    for j, s in pairs:
                        least.setdefault(grp.mul(t, s), (k, j))
                    if len(least) > cap:
                        raise WindowCapError(cap, r - 1)
                tries = [[] for _ in pairs] + [moves]
                for pair in filter(None, least.values()):  # in (k, j) order
                    tries[pair[0]].append(moves[pair[1]])
            reached = []
            # the outer sphere is not expanded here, and a growth tries every step on it
            keep = reached.append if r < radius else _drop
            for p, k in zip(elements[offsets[r - 1] :], came):
                for j, step in tries[k]:
                    q = step(p)
                    if q not in norms:
                        norms[q] = r
                        elements.append(q)
                        keep(j)
                if len(elements) > cap:
                    raise WindowCapError(cap, r - 1)
            offsets.append(len(elements))
            came = reached

    def _search_table(self, elements: list, norms: dict, offsets: list, radius: int) -> tuple:
        """Continue a table search from the outer sphere out to radius, and
        return the id map and the generator table it wrote.

        The table starts as a copy of this window's rows, which are
        complete: -1 marks a product outside this window. An element is
        expanded only by the steps whose entry is -1, and each product
        p*s = q writes both its entry and the mirrored one, q*s^-1 = p.
        """
        top = len(offsets) - 2
        ids = dict(self.ids)
        cols = [array("i", col) for col in self.neighbours()]
        grp, cap = self.group, self.cap
        put = ids.setdefault
        index = {s: j for j, s in enumerate(self.steps)}
        back = [index[grp.inv(s)] for s in self.steps]
        # (column of s, the map x -> x*s, column of s^-1) for every step, in step order
        moves = tuple(zip(cols, map(grp.step_map, self.steps), [cols[k] for k in back]))
        # the columns grow by doubling, padded with -1, up to TABLE_ENTRIES in
        # all, and are cut to n at the end
        n = rows = len(elements)
        most = TABLE_ENTRIES // max(len(cols), 1)
        for r in range(top + 1, radius + 1):
            for i in range(offsets[r - 1], offsets[r]):
                p = elements[i]
                for col, step, mirror in moves:
                    if col[i] < 0:
                        q = step(p)
                        y = put(q, n)
                        if y == n:
                            norms[q] = r
                            elements.append(q)
                            n += 1
                            if n > rows:
                                # before every column grows
                                if n > cap:
                                    raise WindowCapError(cap, r - 1)
                                if n > most:
                                    raise WindowCapError(TABLE_ENTRIES, r - 1,
                                                         "generator table entry budget")
                                pad = array("i", [-1]) * min(rows, most - rows)
                                for c in cols:
                                    c.extend(pad)
                                rows += len(pad)
                        col[i] = y
                        mirror[y] = i
                if n > cap:
                    raise WindowCapError(cap, r - 1)
            offsets.append(n)
        for c in cols:
            del c[n:]
        # The outer sphere's entries that the search left at -1 lead outside
        # the window or, unless odd_steps, along the sphere. One step of each
        # inverse pair finds both: an entry of s^-1 still at -1 after every s
        # product of the sphere has been mirrored leads outside.
        if radius == top or self.odd_steps:
            return ids, tuple(cols)
        pairs = tuple(move for j, move in enumerate(moves) if j <= back[j])
        get = ids.get
        for i in range(offsets[radius], n):
            p = elements[i]
            for col, step, mirror in pairs:
                if col[i] < 0:
                    y = get(step(p), -1)
                    if y >= 0:
                        col[i] = y
                        mirror[y] = i
        return ids, tuple(cols)

    @cached_property
    def ids(self) -> dict:
        """The id of every window element."""
        return {g: i for i, g in enumerate(self.elements)}

    def neighbours(self) -> tuple:
        """The generator table: right-neighbour columns, in step order.

        One array('i') per step s: entry i is the id of elements[i]*s, or -1
        when that product lies outside the window: the columns the table
        search wrote, with no product. A plain window has none.
        """
        if not self.table:
            raise ParameterError("the generator table needs a window built with table=True")
        return self._cols

    @cached_property
    def odd_steps(self) -> bool:
        """Whether every step has exponent-sum parity 1 (group.parity): then x
        has parity |x| mod 2, and no edge stays on a sphere."""
        return all(map(self.group.parity, self.steps))

    @property
    def symmetric(self) -> bool:
        """Whether the step set is closed under inverses."""
        return all(self.group.inv(s) in self.gens for s in self.steps)


def build_window(
    group: Group,
    gens: frozenset,
    radius: int,
    cap: int = DEFAULT_CAP,
    *,
    table: bool = False,
) -> Window:
    """Enumerate the ball of the given radius by breadth-first search.

    Raises WindowCapError as soon as the element count would exceed cap,
    reporting the last fully enumerated radius. With table set, the search
    also writes the id map and the generator table that neighbours()
    returns, forming each table entry's product at most once (see at); it
    raises WindowCapError too before the table would pass TABLE_ENTRIES
    entries, and ParameterError on a generator set that is not closed
    under inverses, whose table no search writes.
    """
    if cap < 1:
        raise ParameterError(f"window element cap must be at least 1, got {cap}")
    steps = tuple(group.sort_printed([g for g in gens if g != group.identity]))
    seed = Window(group, gens, 0, {group.identity: 0}, [group.identity], (0, 1), steps, cap, table)
    if table:
        if not seed.symmetric:
            raise ParameterError("step set is not closed under inverses")
        seed.ids, seed._cols = {group.identity: 0}, tuple(array("i", [-1]) for _ in steps)
    return seed.at(radius)
