"""Stars, interfaces, and coarsely-clopen certificates on a window.

A scale is a radius t: the cover of the group by the translates g*B(t)
of the ball B(t) = K^t, which the window holds as a prefix of its
elements. K is symmetric and contains the identity, so
B(t)^(-1)*B(t) = B(2t) and the star of A at scale t is A*B(2t). A set is
coarsely clopen when, at every scale, its star and the star of its
complement overlap only in a bounded region; on a window we measure that
overlap inside a core ball chosen small enough that the answer agrees
with the computation in the full group.

Core discipline: let m be the largest norm in B(t), which is t unless a
finite group is exhausted sooner. With core radius c <= R - 2m, deciding
whether a core element lies in a star only consults elements of norm at
most c + 2m <= R, so interfaces restricted to the core are exact, not
boundary artifacts. A ball of radius above R is read only off a window
that has exhausted a finite group, where it is the whole window.

Interfaces are computed on the window graph, not by products: the
interface is the set of core elements within k-1 steps of an edge
between A and its complement, where B(k) = B(2m) in the window. One
breadth-first search from those edges finds it; `interface` states why
that is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .cayley import ENLARGE_BY, Window
from .errors import CoreRadiusError, OutOfWindowError, ParameterError

__all__ = [
    "InterfaceReport",
    "ScaleEntry",
    "ClopenCertificate",
    "star",
    "interface",
    "clopen_scale_test",
]


@dataclass(frozen=True)
class InterfaceReport:
    """The overlap st(A) meet st(complement of A) inside the core ball.

    rho is the largest norm in the interface, -1 when it is empty. The
    verdict flags "clopen at this scale": the interface stays strictly
    inside the core.
    """

    interface: tuple
    rho: int
    core_radius: int
    scale_maxnorm: int
    verdict: bool


@dataclass(frozen=True)
class ScaleEntry:
    scale_t: int
    rho: int
    core_radius: int
    stable: bool
    verdict: bool


@dataclass(frozen=True)
class ClopenCertificate:
    """Per-scale interface sizes plus the combined clopen-consistency verdict.

    verdict = every scale clopen, every scale stable under window
    enlargement at fixed core, and rho(t) obeying the affine law
    rho(t) <= max(rho(1), 0) + 2*(t-1)*maxnorm(K).
    """

    entries: tuple
    verdict: bool
    affine_ok: bool
    window_radius: int
    enlarged_radius: int


def _maxnorm(window: Window, r: int) -> int:
    """The largest norm in the ball B(r), read off the window's offsets.

    A radius above R is read only off a window that has exhausted a finite
    group (its outer sphere is empty, or it has no step), where B(r) is the
    whole window; on any other window B(r) reaches past it.
    """
    R = window.radius
    if r < 0:
        raise ParameterError("scale radius must be nonnegative")
    if r > R and window.steps and window.offsets[R] < len(window):
        raise OutOfWindowError(f"ball B({r}) reaches past the radius-{R} window")
    return window.norm(window.offsets[min(r, R) + 1] - 1)


def star(A: Iterable, t: int, window: Window) -> set:
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
    ball = window.elements[: window.offsets[_maxnorm(window, 2 * t) + 1]]
    out = set()
    for a in A:
        for u in ball:
            x = grp.mul(a, u)
            if x in window:
                out.add(x)
    return out


def interface(A: Iterable, t: int, window: Window, core_radius: int) -> InterfaceReport:
    """Interface of A versus its window complement at scale radius t,
    restricted to B(core_radius).

    A is intersected with the window W first; C is W minus A. With m the
    largest norm in B(t), B(t)^(-1)*B(t) is B(2m), which lies in W, and
    equals the window ball B(k) with k its largest nonempty sphere (k < 2m
    once a finite group is exhausted). A core element x lies in both stars
    iff it is within k steps of A and within k steps of C.

    One breadth-first search on the window graph answers that for the
    whole core. It starts at the endpoints of the edges between A and C,
    stops at depth k-1, and the interface is the set of core elements it
    reaches, in window order. This is exact. From a core element x every
    path of length <= k stays inside the window, since
    core_radius + k <= R. On a shortest path from x in A to C, the first
    point in C comes right after a cut-edge endpoint, at distance <= k-1
    from x; the same holds with A and C swapped. Conversely, a cut-edge
    endpoint within k-1 of x puts both sides within k of x. Every vertex
    on such a path is within k-1 of x, so it has norm <= core_radius + k - 1;
    the search starts and steps only there, and reads no neighbour rows
    beyond that sphere.
    """
    mn = _maxnorm(window, t)
    if core_radius < 0:
        raise ParameterError("core radius must be nonnegative")
    limit = window.radius - 2 * mn
    if core_radius > limit:
        raise CoreRadiusError(
            f"core radius {core_radius} exceeds {limit} = R - 2*maxnorm(B({t})); "
            "star answers there would be boundary artifacts"
        )
    offsets = window.offsets
    k = window.norm(offsets[2 * mn + 1] - 1)
    found = []
    if k > 0:
        A = set(A)
        reach = offsets[core_radius + k]
        # the rows below reach have neighbours of norm <= core_radius + k
        inside = bytearray(g in A for g in window.elements[: offsets[core_radius + k + 1]])
        cols = window.neighbours()
        seen = bytearray(reach)
        frontier = []
        for i in range(reach):
            side = inside[i]
            for col in cols:
                j = col[i]
                if j >= 0 and inside[j] != side:
                    seen[i] = 1
                    frontier.append(i)
                    break
        reached = list(frontier)
        for _ in range(k - 1):
            nxt = []
            for i in frontier:
                for col in cols:
                    j = col[i]
                    if 0 <= j < reach and not seen[j]:
                        seen[j] = 1
                        nxt.append(j)
            reached.extend(nxt)
            frontier = nxt
        core_end = offsets[core_radius + 1]
        found = [window.elements[i] for i in sorted(i for i in reached if i < core_end)]
    rho = window.knorm(found[-1]) if found else -1
    return InterfaceReport(
        interface=tuple(found),
        rho=rho,
        core_radius=core_radius,
        scale_maxnorm=mn,
        verdict=rho < core_radius,
    )


def clopen_scale_test(
    window: Window,
    set_fn: Callable[[Window], Iterable],
    t_max: int,
) -> ClopenCertificate:
    """Interface sizes at scale radii t = 1..t_max, with a stability re-run.

    Scale t is the ball B(t) = K^t; its core radius is R - 2m, with m the
    largest norm in B(t). Stable means that the interface at the SAME core
    radius is unchanged on window.at(R + ENLARGE_BY). set_fn is either the
    set itself or a function that resolves it on a given window, as the
    selectors that depend on the window (components, half-spaces) do.

    The grown interface differs only where the set does inside B(R). An
    interface at core radius c reads the set on elements of norm at most
    c + k <= R and the table rows of norm at most R - 1, whose neighbours
    lie in B(R) (see `interface`). The grown window holds B(R) as its
    prefix, id for id, and so the same rows there. A plain set is
    therefore stable at every scale and builds no grown window. A set_fn
    is re-resolved on the grown window, built under the window's cap, and
    the grown interfaces are computed only when the two sets differ
    inside B(R).
    """
    if t_max < 1:
        raise ParameterError("t_max must be at least 1")
    # K contains the identity, so K = B(1)
    step_mn = _maxnorm(window, 1)
    cores = {}
    for t in range(1, t_max + 1):
        cores[t] = window.radius - 2 * _maxnorm(window, t)
        if cores[t] < 0:
            raise CoreRadiusError(
                f"window radius {window.radius} cannot host a core at scale t={t}"
            )
    recheck = False
    if callable(set_fn):
        big = window.at(window.radius + ENLARGE_BY)
        A = set(set_fn(window))
        A_big = set(set_fn(big))
        recheck = {g for g in A if g in window} != {g for g in A_big if g in window}
    else:
        A = set(set_fn)

    entries = []
    rho1 = None
    affine_ok = True
    for t, core in cores.items():
        rep = interface(A, t, window, core)
        stable = not recheck or set(rep.interface) == set(interface(A_big, t, big, core).interface)
        if t == 1:
            rho1 = rep.rho
        if rep.rho > max(rho1, 0) + 2 * (t - 1) * step_mn:
            affine_ok = False
        entries.append(
            ScaleEntry(
                scale_t=t,
                rho=rep.rho,
                core_radius=core,
                stable=stable,
                verdict=rep.verdict,
            )
        )
    verdict = affine_ok and all(e.verdict and e.stable for e in entries)
    return ClopenCertificate(
        entries=tuple(entries),
        verdict=verdict,
        affine_ok=affine_ok,
        window_radius=window.radius,
        enlarged_radius=window.radius + ENLARGE_BY,
    )
