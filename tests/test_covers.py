"""Star identity, interfaces, and coarsely-clopen certificates."""

import random

import pytest

from coarse_ends import (
    CoreRadiusError,
    ParameterError,
    WindowCapError,
    build_window,
    clopen_scale_test,
    interface,
    power_generators,
    star,
)
from coarse_ends.covers import scale_difference_set
from helpers import get_gens, get_group, get_window, random_subset
from oracles import clopen_intersection_law, coarsely_identical, star_preserves_clopen


def _gen_set(text):
    return set(get_gens(text).elements)


def _naive_difference(grp, B):
    return {grp.mul(grp.inv(a), b) for a in B for b in B}


def _naive_star(grp, A, B, window):
    D = _naive_difference(grp, B)
    out = set()
    for a in A:
        for d in D:
            x = grp.mul(a, d)
            if x in window:
                out.add(x)
    return out


def _naive_interface(grp, A, B, window, core):
    A = {a for a in A if a in window}
    comp = {g for g in window if g not in A}
    st_a = _naive_star(grp, A, B, window)
    st_c = _naive_star(grp, comp, B, window)
    return {x for x in st_a & st_c if window.knorm(x) <= core}


# ---------------------------------------------------------------------------
# Stars


def test_scale_difference_set_frozen():
    grp = get_group("Z")
    D = scale_difference_set(grp, _gen_set("Z"))
    assert D == {(-2,), (-1,), (0,), (1,), (2,)}


def test_star_matches_identity_formula():
    for text, radius in [("Z", 10), ("F2", 4), ("(C2 * C3)", 6)]:
        window = get_window(text, radius)
        grp = window.group
        B = _gen_set(text)
        rng = random.Random(f"star:{text}")
        for _ in range(200):
            A = random_subset(window, rng)
            got = star(A, B, window)
            assert got == _naive_star(grp, A, B, window)
            # sandwich: one-step fattening sits inside the star
            one = {grp.mul(a, b) for a in A for b in B}
            assert {x for x in one if x in window} <= got


def test_star_of_ball_frozen():
    w = get_window("Z", 10)
    A = set(w.ball(2))
    got = star(A, _gen_set("Z"), w)
    assert got == {(n,) for n in range(-4, 5)}


# ---------------------------------------------------------------------------
# Interfaces


def test_half_space_interface_rho_is_2t():
    window = get_window("Z", 20)
    grp = window.group
    A = {g for g in window if g[0] >= 1}
    for t in range(1, 5):
        B = set(get_gens("Z", t).elements)
        core = 20 - 2 * t
        rep = interface(A, B, window, core)
        assert rep.rho == 2 * t
        assert rep.verdict is True
        assert rep.core_radius == core
        assert rep.scale_maxnorm == t
        lo, hi = 1 - 2 * t, 2 * t
        assert set(rep.interface) == {(n,) for n in range(lo, hi + 1)}


def test_interface_empty_and_full():
    window = get_window("Z", 10)
    B = _gen_set("Z")
    rep = interface(set(), B, window, 8)
    assert rep.rho == -1 and rep.verdict is True and rep.interface == ()
    rep = interface(set(window.elements), B, window, 8)
    assert rep.rho == -1 and rep.verdict is True


def _scale(window, t):
    return set(power_generators(window.group, window.gens, t).elements)


def test_interface_matches_naive():
    # (spec, radius, generator power, scale powers t); each scale K^t runs
    # at its largest legal core R - 2*maxnorm(K^t)
    cases = [
        ("Z", 10, 1, (1, 2, 3)),
        ("Z^2", 7, 1, (1, 2, 3)),
        ("F2", 4, 1, (1, 2)),
        ("(C2 * C3)", 6, 1, (1, 2, 3)),
        ("(Z x C2)", 8, 1, (1, 2, 3)),
        ("C6", 8, 1, (1, 2, 3)),  # exhausted: K^(2t) saturates the group
        ("Z^2", 5, 2, (1, 2)),  # gen-power-2 window
    ]
    for text, radius, power, scales in cases:
        window = get_window(text, radius, power)
        grp = window.group
        rng = random.Random(f"iface:{text}:{power}")
        for t in scales:
            B = _scale(window, t)
            core = radius - 2 * window.maxnorm_of(B)
            for _ in range(200 if (t, power) == (1, 1) else 25):
                A = random_subset(window, rng)
                rep = interface(A, B, window, core)
                want = _naive_interface(grp, A, B, window, core)
                assert set(rep.interface) == want, (text, power, t)
                assert list(rep.interface) == [g for g in window if g in want]
                assert rep.rho == (max(map(window.knorm, want)) if want else -1)
                assert rep.verdict == (rep.rho < core)
        # B = {e}: each star is its own set, so the interface is empty
        A = random_subset(window, rng)
        rep = interface(A, {grp.identity}, window, radius)
        assert _naive_interface(grp, A, {grp.identity}, window, radius) == set()
        assert rep.interface == () and rep.rho == -1 and rep.verdict is True


def test_interface_ignores_elements_outside_the_window():
    window = get_window("Z^2", 6)
    outer = get_window("Z^2", 10)
    rng = random.Random("iface:outside")
    for t in (1, 2):
        B = _scale(window, t)
        core = 6 - 2 * t
        for _ in range(50):
            A = random_subset(outer, rng)
            inside = {a for a in A if a in window}
            assert A != inside
            assert interface(A, B, window, core) == interface(inside, B, window, core)


def test_interface_scale_must_be_a_window_ball():
    window = get_window("Z^2", 8)
    grp = window.group
    A = {g for g in window if g[0] >= 1}
    for B in ({grp.identity, (1, 0)}, {grp.identity, (1, 0), (-1, 0)}):
        with pytest.raises(ParameterError):
            interface(A, B, window, 4)
    # the same half-space at the ball scale K is accepted
    K = _scale(window, 1)
    want = _naive_interface(grp, A, K, window, 4)
    assert set(interface(A, K, window, 4).interface) == want != set()
    # a scale that is no ball is refused even when its B^(-1)*B is one
    wz = get_window("Z", 10)
    half = {(0,), (1,)}
    assert _naive_difference(wz.group, half) == set(wz.ball(1))
    with pytest.raises(ParameterError):
        interface({g for g in wz if g[0] >= 2}, half, wz, 8)
    with pytest.raises(ParameterError, match="empty"):
        interface(A, set(), window, 4)


def test_interface_core_bound():
    window = get_window("Z", 10)
    with pytest.raises(CoreRadiusError):
        interface({(0,)}, _gen_set("Z"), window, 9)
    # core 8 = R - 2*maxnorm(K) is the largest legal core
    interface({(0,)}, _gen_set("Z"), window, 8)


# ---------------------------------------------------------------------------
# Laws


def test_intersection_law():
    for text, radius in [("Z", 10), ("Z^2", 5), ("F2", 4), ("(C2 * C3)", 5)]:
        window = get_window(text, radius)
        grp = window.group
        B = _gen_set(text)
        core = radius - 2
        rng = random.Random(f"law23:{text}")
        for _ in range(200):
            a1 = random_subset(window, rng)
            a2 = random_subset(window, rng)
            assert clopen_intersection_law(a1, a2, B, window, core)
            both = interface(a1 & a2, B, window, core)
            union = set(interface(a1, B, window, core).interface) | set(
                interface(a2, B, window, core).interface
            )
            assert set(both.interface) <= union


def test_star_preserves_clopen_frozen_z():
    window = get_window("Z", 20)
    A = {g for g in window if g[0] >= 1}
    B = set(window.ball(1))
    rep = star_preserves_clopen(A, B, B, window, 14)
    assert rep.rho == 3  # the bound 2*maxnorm(V) + 2*maxnorm(B) = 4 holds
    assert rep.verdict is True
    assert set(rep.interface) == {(n,) for n in range(-3, 1)}


def test_star_preserves_clopen_growth_law():
    # rho(st(A,B)) <= rho(A) + 2 maxnorm(B) + 2 maxnorm(V), whenever the
    # witness stays measurable inside the window
    for text, radius in [("Z", 12), ("F2", 4), ("(C2 * C3)", 6)]:
        window = get_window(text, radius)
        K = _gen_set(text)
        core_v = radius - 2
        core_sb = radius - 4
        rng = random.Random(f"spl:{text}")
        for _ in range(200):
            A = random_subset(window, rng, density=0.5)
            rep_a = interface(A, K, window, core_v)
            rep_s = star_preserves_clopen(A, K, K, window, core_sb)
            if rep_a.rho >= 0 and rep_s.rho >= 0 and rep_s.rho + 4 <= core_v:
                assert rep_s.rho <= rep_a.rho + 4


def test_coarsely_identical():
    window = get_window("Z", 10)
    A = {g for g in window if g[0] >= 0}
    assert coarsely_identical(A, A, window) == -1
    B = A - {(3,)}
    assert coarsely_identical(A, B, window) == 3
    assert coarsely_identical(B, A, window) == 3
    assert coarsely_identical(set(), {(5,)}, window) == 5


# ---------------------------------------------------------------------------
# Certificates


def test_half_space_certificate():
    window = get_window("Z", 20)
    cert = clopen_scale_test(window, lambda w: {g for g in w if g[0] >= 1}, 4)
    assert cert.verdict is True
    assert cert.affine_ok is True
    assert cert.window_radius == 20
    assert cert.enlarged_radius == 24
    assert [e.scale_t for e in cert.entries] == [1, 2, 3, 4]
    assert [e.rho for e in cert.entries] == [2, 4, 6, 8]
    assert [e.core_radius for e in cert.entries] == [18, 16, 14, 12]
    assert all(e.stable for e in cert.entries)
    assert all(e.verdict for e in cert.entries)


def test_evens_certificate_fails():
    window = get_window("Z", 20)
    cert = clopen_scale_test(window, lambda w: {g for g in w if g[0] % 2 == 0}, 4)
    assert cert.verdict is False
    for e in cert.entries:
        assert e.rho == e.core_radius  # interface saturates the core
        assert e.verdict is False


def test_bounded_set_certificate():
    window = get_window("Z", 12)
    fixed = {(1,), (2,)}
    cert = clopen_scale_test(window, fixed, 2)
    assert cert.verdict is True
    assert [e.rho for e in cert.entries] == [4, 6]
    assert all(e.stable for e in cert.entries)


def test_component_union_certificates():
    from coarse_ends import components

    for text, radius, t_max in [("Z", 16, 3), ("(C2 * C3)", 10, 2), ("F2", 8, 1)]:
        window = get_window(text, radius)

        def half(w):
            dec = components(w, 1)
            return set(dec.components[-1].elements)

        cert = clopen_scale_test(window, half, t_max)
        assert cert.verdict is True, (text, [(e.rho, e.core_radius) for e in cert.entries])
        assert cert.affine_ok is True


def test_certificate_parameter_errors():
    window = get_window("Z", 8)
    with pytest.raises(ParameterError):
        clopen_scale_test(window, {(1,)}, 0)
    with pytest.raises(CoreRadiusError):
        clopen_scale_test(window, {(1,)}, 5)  # core 8 - 10 < 0


def test_recheck_obeys_the_window_cap():
    # |B(8)| = 145 fits the cap of 200, but the recheck window B(12) does not
    window = build_window(get_group("Z^2"), get_gens("Z^2"), 8, cap=200)
    with pytest.raises(WindowCapError) as exc:
        clopen_scale_test(window, {(1, 0)}, 1)
    assert exc.value.cap == 200
    assert exc.value.radius_reached == 9  # |B(9)| = 181, |B(10)| = 221
