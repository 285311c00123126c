"""Window construction, metric laws, geodesics."""

import random

import pytest

from coarse_ends import (
    OutOfWindowError,
    ParameterError,
    WindowCapError,
    build_window,
)
from helpers import ZOO, get_gens, get_group, get_window
from oracles import bfs_norms


# ---------------------------------------------------------------------------
# Norms against the oracle


@pytest.mark.parametrize("text", ZOO)
def test_norms_match_oracle(text):
    radius = 5
    window = get_window(text, radius)
    grp = get_group(text)
    want = bfs_norms(grp, get_gens(text), radius)
    assert window.norms == want


def test_frozen_sphere_sizes():
    w = get_window("Z", 10)
    assert len(w) == 21
    assert [len(w.sphere(r)) for r in range(4)] == [1, 2, 2, 2]

    f2 = get_window("F2", 6)
    assert [len(f2.sphere(r)) for r in range(7)] == [1, 4, 12, 36, 108, 324, 972]

    z2 = get_window("Z^2", 6)
    assert [len(z2.sphere(r)) for r in range(1, 7)] == [4, 8, 12, 16, 20, 24]

    fp = get_window("(C2 * C3)", 6)
    assert [len(fp.sphere(r)) for r in range(1, 7)] == [3, 4, 6, 8, 12, 16]

    c6 = get_window("C6", 8)
    assert [len(c6.sphere(r)) for r in range(9)] == [1, 2, 2, 1, 0, 0, 0, 0, 0]


def test_ball_annulus_sphere_consistency():
    w = get_window("(C2 * C3)", 6)
    for r in range(7):
        ball = w.ball(r)
        assert len(ball) == sum(len(w.sphere(i)) for i in range(r + 1))
        assert all(w.knorm(g) <= r for g in ball)
    ann = w.annulus(2, 5)
    assert sorted(map(w.knorm, ann)) == sorted(
        n for n in map(w.knorm, w.elements) if 2 < n <= 5
    )
    with pytest.raises(OutOfWindowError):
        w.sphere(7)
    with pytest.raises(OutOfWindowError):
        w.annulus(2, 9)
    with pytest.raises(ValueError):
        w.annulus(5, 2)


@pytest.mark.parametrize(
    "text,radius,power", [(text, 5, 1) for text in ZOO] + [("C6", 8, 1), ("Z^2", 4, 2)]
)
def test_window_is_one_flat_list(text, radius, power):
    w = build_window(get_group(text), get_gens(text, power), radius)
    assert list(w) == w.elements
    assert len(w) == w.offsets[-1] == len(w.norms)
    assert len(w.offsets) == radius + 2
    for r in range(radius + 1):
        assert w.sphere(r) == w.elements[w.offsets[r]:w.offsets[r + 1]]
        assert w.ball(r) == w.elements[:w.offsets[r + 1]]
        for lo in range(-1, r + 1):
            assert w.annulus(lo, r) == w.elements[w.offsets[lo + 1]:w.offsets[r + 1]]
    for i, g in enumerate(w.elements):
        assert w.norm(i) == w.knorm(g)
        assert w.ids[g] == i
    # one sized sequence per radius holding the same elements, in order
    assert len(w.spheres) == radius + 1
    assert [len(sph) for sph in w.spheres] == [len(w.sphere(r)) for r in range(radius + 1)]
    assert [g for sph in w.spheres for g in sph] == w.elements


# ---------------------------------------------------------------------------
# Metric laws


@pytest.mark.parametrize("text", ["Z", "Z^2", "F2", "(C2 * C3)"])
def test_metric_laws(text):
    window = get_window(text, 4)
    grp = window.group
    rng = random.Random(f"metric:{text}")
    els = window.elements
    for _ in range(300):
        g, h, k = rng.choice(els), rng.choice(els), rng.choice(els)
        try:
            dgh = window.distance(g, h)
        except OutOfWindowError:
            continue
        assert dgh == window.distance(h, g)
        assert (dgh == 0) == (g == h)
        # left invariance where all shifts stay inside the window
        try:
            assert window.distance(grp.mul(k, g), grp.mul(k, h)) == dgh
        except OutOfWindowError:
            pass
        try:
            assert dgh <= window.distance(g, k) + window.distance(k, h)
        except OutOfWindowError:
            pass


def test_knorm_out_of_window():
    w = get_window("Z", 5)
    with pytest.raises(OutOfWindowError):
        w.knorm((6,))
    assert w.knorm((5,)) == 5
    assert ((6,) in w) is False
    assert ((4,) in w) is True


# ---------------------------------------------------------------------------
# Geodesics


def test_geodesic_is_canonical_and_valid():
    w = get_window("Z^2", 6)
    geo = w.geodesic((1, 1))
    assert list(geo) == [(0, 0), (0, 1), (1, 1)]
    assert len(geo) - 1 == 2
    assert geo[-1] == (1, 1)

    for text in ZOO:
        window = get_window(text, 4)
        grp = window.group
        steps = set(window.steps)
        rng = random.Random(f"geo:{text}")
        els = window.elements
        for _ in range(200):
            g = rng.choice(els)
            geo = window.geodesic(g)
            assert geo[0] == grp.identity
            assert geo[-1] == g
            assert len(geo) - 1 == window.knorm(g)
            for i, p in enumerate(geo):
                assert window.knorm(p) == i
            for p, q in zip(geo, geo[1:]):
                assert grp.mul(grp.inv(p), q) in steps


def test_geodesic_identity_and_errors():
    w = get_window("Z", 5)
    geo = w.geodesic((0,))
    assert list(geo) == [(0,)]
    with pytest.raises(OutOfWindowError):
        w.geodesic((9,))
    with pytest.raises(ValueError):
        w.predecessor((0,))


# ---------------------------------------------------------------------------
# Determinism and cache


def test_fresh_builds_are_identical():
    for text in ["Z", "F2", "(C2 * C3)"]:
        grp = get_group(text)
        gens = get_gens(text)
        a = build_window(grp, gens, 5)
        b = build_window(grp, gens, 5)
        assert a.elements == b.elements
        assert a.offsets == b.offsets


def test_window_cap():
    grp = get_group("F2")
    gens = get_gens("F2")
    with pytest.raises(WindowCapError) as exc:
        build_window(grp, gens, 10, cap=1000)
    assert exc.value.cap == 1000
    assert exc.value.radius_reached == 5  # |B(5)| = 485, |B(6)| = 1457
    # below 1 not even the identity fits, so no radius was built
    for cap in (0, -1):
        with pytest.raises(ParameterError):
            build_window(grp, gens, 3, cap=cap)


def test_partial_neighbour_table_matches_full():
    for text, radius, power in [("Z^2", 6, 1), ("F2", 4, 1), ("(C2 * C3)", 6, 1),
                                ("C6", 6, 1), ("Z^2", 5, 2)]:
        steps = get_gens(text, power).elements
        full = get_window(text, radius, power).neighbours(steps)
        for r in range(radius + 1):
            window = build_window(get_group(text), get_gens(text, power), radius)
            rows = window.offsets[r + 1]
            part = window.neighbours(steps, r)
            assert [list(c[:rows]) for c in part] == [list(c[:rows]) for c in full], (text, r)
            # a later request for every row fills the whole table
            assert [list(c) for c in window.neighbours(steps)] == [list(c) for c in full]
