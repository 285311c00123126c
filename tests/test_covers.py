"""Star identity, interfaces, and coarsely-clopen certificates."""

import random

import pytest

from coarse_ends import (
    CoreRadiusError,
    OutOfWindowError,
    ParameterError,
    WindowCapError,
    build_window,
    clopen_scale_test,
    interface,
    power_generators,
    star,
)
from helpers import get_gens, get_group, get_window, random_subset
from oracles import clopen_intersection_law, coarsely_identical, star_preserves_clopen


def _gen_set(text):
    return set(get_gens(text))


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


def test_star_matches_identity_formula():
    for text, radius in [("Z", 10), ("F2", 4), ("(C2 * C3)", 6)]:
        window = get_window(text, radius)
        grp = window.group
        B = _gen_set(text)
        rng = random.Random(f"star:{text}")
        for _ in range(200):
            A = random_subset(window, rng)
            got = star(A, 1, window)
            assert got == _naive_star(grp, A, B, window)
            # sandwich: one-step fattening sits inside the star
            one = {grp.mul(a, b) for a in A for b in B}
            assert {x for x in one if x in window} <= got


def test_star_of_ball_frozen():
    w = get_window("Z", 10)
    A = set(w.ball(2))
    got = star(A, 1, w)
    assert got == {(n,) for n in range(-4, 5)}


def test_star_refuses_one_way_steps():
    # B(t)^(-1)*B(t) = B(2t) needs a symmetric generator set
    grp = get_group("Z")
    window = build_window(grp, frozenset({(0,), (1,)}), 6)
    with pytest.raises(ParameterError, match="inverses"):
        star({(0,)}, 1, window)


def test_scale_radius_past_the_window():
    # B(t) past R is read only off a window that has exhausted a finite group
    wz = get_window("Z", 6)
    with pytest.raises(OutOfWindowError):
        interface({(1,)}, 7, wz, 0)
    with pytest.raises(OutOfWindowError):
        star({(0,)}, 4, wz)  # B(8) reaches past R = 6
    assert star({(0,)}, 3, wz) == set(wz)
    with pytest.raises(ParameterError):
        star({(0,)}, -1, wz)
    # C6 has spheres 1, 2, 2, 1: at R = 8 every ball B(t), t >= 3, is the group
    w6 = get_window("C6", 8)
    grp = w6.group
    A = {0, 1}
    whole = set(w6)
    assert star(A, 5, w6) == whole == _naive_star(grp, A, _scale(w6, 5), w6)
    for t in (3, 9, 40):
        rep = interface(A, t, w6, 2)
        assert rep.scale_maxnorm == 3
        assert set(rep.interface) == _naive_interface(grp, A, _scale(w6, t), w6, 2)
    with pytest.raises(CoreRadiusError):
        interface(A, 9, w6, 3)
    # a window whose outer sphere is not empty refuses, even for a finite group
    with pytest.raises(OutOfWindowError):
        interface(A, 4, get_window("C6", 3), 0)


# ---------------------------------------------------------------------------
# Interfaces


def test_half_space_interface_rho_is_2t():
    window = get_window("Z", 20)
    grp = window.group
    A = {g for g in window if g[0] >= 1}
    for t in range(1, 5):
        core = 20 - 2 * t
        rep = interface(A, t, window, core)
        assert rep.rho == 2 * t
        assert rep.verdict is True
        assert rep.core_radius == core
        assert rep.scale_maxnorm == t
        lo, hi = 1 - 2 * t, 2 * t
        assert set(rep.interface) == {(n,) for n in range(lo, hi + 1)}


def test_interface_empty_and_full():
    window = get_window("Z", 10)
    rep = interface(set(), 1, window, 8)
    assert rep.rho == -1 and rep.verdict is True and rep.interface == ()
    rep = interface(set(window.elements), 1, window, 8)
    assert rep.rho == -1 and rep.verdict is True


def _scale(window, t):
    return set(power_generators(window.group, window.gens, t))


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
                rep = interface(A, t, window, core)
                want = _naive_interface(grp, A, B, window, core)
                assert set(rep.interface) == want, (text, power, t)
                assert list(rep.interface) == [g for g in window if g in want]
                assert rep.rho == (max(map(window.knorm, want)) if want else -1)
                assert rep.verdict == (rep.rho < core)
        # B(0) = {e}: each star is its own set, so the interface is empty
        A = random_subset(window, rng)
        rep = interface(A, 0, window, radius)
        assert _naive_interface(grp, A, {grp.identity}, window, radius) == set()
        assert rep.interface == () and rep.rho == -1 and rep.verdict is True


def test_interface_ignores_elements_outside_the_window():
    window = get_window("Z^2", 6)
    outer = get_window("Z^2", 10)
    rng = random.Random("iface:outside")
    for t in (1, 2):
        core = 6 - 2 * t
        for _ in range(50):
            A = random_subset(outer, rng)
            inside = {a for a in A if a in window}
            assert A != inside
            assert interface(A, t, window, core) == interface(inside, t, window, core)


def test_interface_core_bound():
    window = get_window("Z", 10)
    with pytest.raises(CoreRadiusError):
        interface({(0,)}, 1, window, 9)
    # core 8 = R - 2*maxnorm(K) is the largest legal core
    interface({(0,)}, 1, window, 8)


# ---------------------------------------------------------------------------
# Laws


def test_intersection_law():
    for text, radius in [("Z", 10), ("Z^2", 5), ("F2", 4), ("(C2 * C3)", 5)]:
        window = get_window(text, radius)
        core = radius - 2
        rng = random.Random(f"law23:{text}")
        for _ in range(200):
            a1 = random_subset(window, rng)
            a2 = random_subset(window, rng)
            assert clopen_intersection_law(a1, a2, 1, window, core)
            both = interface(a1 & a2, 1, window, core)
            union = set(interface(a1, 1, window, core).interface) | set(
                interface(a2, 1, window, core).interface
            )
            assert set(both.interface) <= union


def test_star_preserves_clopen_frozen_z():
    window = get_window("Z", 20)
    A = {g for g in window if g[0] >= 1}
    rep = star_preserves_clopen(A, 1, 1, window, 14)
    assert rep.rho == 3  # the bound 2*maxnorm(V) + 2*maxnorm(B) = 4 holds
    assert rep.verdict is True
    assert set(rep.interface) == {(n,) for n in range(-3, 1)}


def test_star_preserves_clopen_growth_law():
    # rho(st(A,B)) <= rho(A) + 2 maxnorm(B) + 2 maxnorm(V), whenever the
    # witness stays measurable inside the window
    for text, radius in [("Z", 12), ("F2", 4), ("(C2 * C3)", 6)]:
        window = get_window(text, radius)
        core_v = radius - 2
        core_sb = radius - 4
        rng = random.Random(f"spl:{text}")
        for _ in range(200):
            A = random_subset(window, rng, density=0.5)
            rep_a = interface(A, 1, window, core_v)
            rep_s = star_preserves_clopen(A, 1, 1, window, core_sb)
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
        clopen_scale_test(window, lambda w: {(1, 0)}, 1)
    assert exc.value.cap == 200
    assert exc.value.radius_reached == 9  # |B(9)| = 181, |B(10)| = 221
    # a fixed set grows no window, so only B(8) has to fit
    cert = clopen_scale_test(window, {(1, 0)}, 1)
    assert (cert.enlarged_radius, cert.verdict) == (12, True)
    assert [(e.rho, e.core_radius, e.stable) for e in cert.entries] == [(3, 6, True)]


@pytest.mark.parametrize(
    "text,radius,power",
    [("Z", 10, 1), ("Z^2", 6, 1), ("F2", 4, 1), ("C6", 8, 1), ("(Z x C2)", 6, 1),
     ("(C2 * C2)", 8, 1), ("(C2 * C3)", 6, 1), ("Z", 6, 2), ("Z^2", 3, 2), ("(C2 * C3)", 4, 2)],
)
def test_interface_is_the_same_on_a_grown_window(text, radius, power):
    # the law that lets a fixed set skip the recheck window: an interface
    # reads only B(R) and the rows of norm <= R - 1, which a grown window
    # shares id for id
    window = build_window(get_group(text), get_gens(text, power), radius, table=True)
    grown = window.at(radius + 4)
    rng = random.Random(f"grown:{text}:{power}")
    for _ in range(20):
        t = rng.randint(1, 3)
        limit = radius - 2 * window.maxnorm_of(window.ball(min(t, radius)))
        if limit < 0:
            continue
        core = rng.randint(0, limit)
        A = random_subset(window, rng, rng.choice((0.05, 0.4, 0.9)))
        assert interface(A, t, window, core) == interface(A, t, grown, core), (t, core)


def test_grown_interfaces_run_only_where_the_sets_differ(monkeypatch):
    import coarse_ends.covers as covers

    radii = []

    def recorded(A, t, window, core_radius):
        radii.append(window.radius)
        return interface(A, t, window, core_radius)

    monkeypatch.setattr(covers, "interface", recorded)
    window = get_window("Z", 20)
    half = clopen_scale_test(window, lambda w: {g for g in w if g[0] >= 1}, 2)
    assert radii == [20, 20] and all(e.stable for e in half.entries)
    # a set that moves with the window differs inside B(20), so the grown
    # window is measured too, and the interfaces there differ
    radii.clear()
    moving = clopen_scale_test(window, lambda w: {g for g in w if g[0] >= w.radius - 10}, 2)
    assert radii == [20, 24, 20, 24]
    assert [e.stable for e in moving.entries] == [False, False] and moving.verdict is False
