"""Stars, interfaces, and coarsely-clopen certificates on a window.

A scale is a finite symmetric set B containing the identity (typically a
power of the generator set); it stands for the cover of the group by the
translates g*B. The star of A at that scale is A*B^(-1)*B. A set is
coarsely clopen when, at every scale, its star and the star of its
complement overlap only in a bounded region; on a window we measure that
overlap inside a core ball chosen small enough that the answer agrees
with the computation in the full group.

Core discipline: with core radius c <= R - 2*maxnorm(B), deciding whether
a core element lies in a star only consults elements of norm at most
c + 2*maxnorm(B) <= R, so interfaces restricted to the core are exact,
not boundary artifacts.

Interfaces are computed on the window graph, not by products: the scale
must be a window ball B(m), as every power of the generator set is, so
B^(-1)*B is the window ball B(k) with k <= 2m, and the interface is the
set of core elements within k-1 steps of an edge between A and its
complement. One breadth-first search from those edges finds it;
`interface` states why that is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .cayley import ENLARGE_BY, Window
from .errors import CoreRadiusError, ParameterError
from .groups import power_generators

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


def scale_difference_set(group, B) -> set:
    """B^(-1)*B; symmetric, contains the identity, reaches 2*maxnorm(B)."""
    out = set()
    for b in B:
        ib = group.inv(b)
        for c in B:
            out.add(group.mul(ib, c))
    return out


def star(A: Iterable, B: Iterable, window: Window) -> set:
    """(A * B^(-1) * B) truncated to the window.

    Exact inside B(R - 2*maxnorm(B)); beyond that, products falling
    outside the window are dropped rather than reported.
    """
    grp = window.group
    diff = scale_difference_set(grp, B)
    out = set()
    for a in A:
        for u in diff:
            x = grp.mul(a, u)
            if x in window:
                out.add(x)
    return out


def _core_bound(window: Window, scale_maxnorm: int) -> int:
    return window.radius - 2 * scale_maxnorm


def interface(A: Iterable, B: Iterable, window: Window, core_radius: int) -> InterfaceReport:
    """Interface of A versus its window complement, restricted to B(core_radius).

    A is intersected with the window W first; C is W minus A. The scale B
    must be the window ball B(m) with m = maxnorm(B); every power K^t of
    the generator set is one, and any other scale raises ParameterError.
    Then B^(-1)*B is B(2m), which lies in W, and equals the window ball
    B(k) with k its largest nonempty sphere (k < 2m once a finite group is
    exhausted). A core element x lies in both stars iff it is within k
    steps of A and within k steps of C.

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
    B = set(B)
    if not B:
        raise ParameterError("scale B is empty")
    mn = window.maxnorm_of(B)
    if core_radius < 0:
        raise ParameterError("core radius must be nonnegative")
    limit = _core_bound(window, mn)
    if core_radius > limit:
        raise CoreRadiusError(
            f"core radius {core_radius} exceeds {limit} = R - 2*maxnorm(B); "
            "star answers there would be boundary artifacts"
        )
    offsets = window.offsets
    if len(B) != offsets[mn + 1]:
        raise ParameterError(f"scale B is not the window ball of radius {mn}")
    k = window.norm(offsets[2 * mn + 1] - 1)
    found = []
    if k > 0:
        A = set(A)
        reach = offsets[core_radius + k]
        # the rows below reach have neighbours of norm <= core_radius + k
        inside = bytearray(g in A for g in window.elements[: offsets[core_radius + k + 1]])
        cols = window.neighbours(window.gens.elements, core_radius + k - 1)
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
    """Interface sizes for scales K^t, t = 1..t_max, with a stability re-run.

    set_fn resolves the candidate set on a given window, so selectors that
    depend on the window (components, half-spaces) re-resolve on the
    enlarged window; a plain set may be passed and is used as-is on both.
    Each scale is re-measured on window.at(R + ENLARGE_BY), grown under
    the window's cap, at the SAME core radius; stable means the two
    interface sets agree.
    """
    if t_max < 1:
        raise ParameterError("t_max must be at least 1")
    grp = window.group
    gens = window.gens
    step_mn = window.maxnorm_of(gens.elements)
    scales = {}
    for t in range(1, t_max + 1):
        scales[t] = power_generators(grp, gens, t).elements
        core = _core_bound(window, window.maxnorm_of(scales[t]))
        if core < 0:
            raise CoreRadiusError(
                f"window radius {window.radius} cannot host a core at scale t={t}"
            )
    resolver = set_fn if callable(set_fn) else (lambda w, _frozen=set(set_fn): _frozen)
    big = window.at(window.radius + ENLARGE_BY)
    A_small = set(resolver(window))
    A_big = set(resolver(big))

    entries = []
    rho1 = None
    affine_ok = True
    for t in range(1, t_max + 1):
        B = scales[t]
        core = _core_bound(window, window.maxnorm_of(B))
        rep = interface(A_small, B, window, core)
        rep_big = interface(A_big, B, big, core)
        stable = set(rep.interface) == set(rep_big.interface)
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
        enlarged_radius=big.radius,
    )
