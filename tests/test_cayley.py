"""Window construction, metric laws, geodesics."""

import random
from itertools import accumulate

import pytest
from hypothesis import assume, given, strategies as st

from coarse_ends import (
    Group,
    OutOfWindowError,
    ParameterError,
    WindowCapError,
    build_window,
    parse_spec,
    power_generators,
    standard_generators,
)
from coarse_ends.cayley import ENLARGE_BY
from helpers import ZOO, get_gens, get_group, get_window, nested_specs
from oracles import (
    bfs_norms,
    distance,
    plain_search_products,
    spec_spheres,
    table_edges,
    table_search_products,
    window_order_reference,
)


# ---------------------------------------------------------------------------
# Norms against the oracle


@pytest.mark.parametrize("text", ZOO)
def test_norms_match_oracle(text):
    radius = 5
    window = get_window(text, radius)
    grp = get_group(text)
    want = bfs_norms(grp, get_gens(text), radius)
    assert window.norms == want


def _one_way_z():
    # {e, (1,)}: the inverse of the only step is not a step
    return frozenset({(0,), (1,)})


def _one_way_z2():
    # {e, (1,0), (0,1)}: two commuting steps whose inverses are not steps
    return frozenset({(0, 0), (1, 0), (0, 1)})


@pytest.mark.parametrize(
    "text,radius,gens,grown",
    [(text, 5, None, False) for text in ZOO]
    + [(text, 7, None, True) for text in ZOO]
    + [
        ("Z^2", 4, 2, False),
        ("F2", 3, 2, False),
        ("F2", 4, 2, True),
        ("Z^5", 4, None, False),
        ("Z^5", 5, None, True),
        ("Z", 6, "one-way", False),
        ("Z", 7, "one-way", True),
        # step sets with many pairs t*s that are a step, or that an earlier pair spells
        ("(C2 * C3)", 5, 2, False),
        ("(C2 * C3)", 7, 2, True),
        ("(Z x C3)", 5, None, False),
        ("(Z x C3)", 7, None, True),
        ("((C2 * C2) x C3)", 5, None, False),
        ("((C2 * C2) x C3)", 7, None, True),
        ("Z^3", 4, 2, False),
        ("Z^3", 5, 2, True),
        ("Z^2", 6, "one-way", False),
        ("Z^2", 7, "one-way", True),
    ],
)
def test_window_order_matches_reference(text, radius, gens, grown):
    # window order itself, not only the norms: the search may skip products
    # but must reach every element in the order a plain search does
    grp = get_group(text)
    if gens == "one-way":
        gens = _one_way_z() if text == "Z" else _one_way_z2()
    else:
        gens = get_gens(text, gens or 1)
    if grown:  # continue a smaller window's search, whose outer sphere has no known step
        window = build_window(grp, gens, 3).at(radius)
    else:
        window = build_window(grp, gens, radius)
    elements, offsets, norms = window_order_reference(grp, gens, radius)
    assert window.elements == elements
    assert window.offsets == offsets
    assert list(window.norms.items()) == list(norms.items())


@given(nested_specs(2), st.sampled_from([1, 2]), st.integers(0, 5), st.booleans())
def test_window_order_matches_reference_on_nested_specs(text, power, radius, grown):
    grp = Group(parse_spec(text))
    gens = standard_generators(grp)
    if power > 1:
        gens = power_generators(grp, gens, power)
    cap = 1000

    def build(r):
        if grown:
            return build_window(grp, gens, min(r, 1), cap).at(r)
        return build_window(grp, gens, r, cap)

    try:
        window = build(radius)
    except WindowCapError as err:
        window = build(err.radius_reached)
    elements, offsets, norms = window_order_reference(grp, gens, window.radius)
    assert window.elements == elements
    assert window.offsets == offsets
    assert list(window.norms.items()) == list(norms.items())


@given(nested_specs(2), st.integers(1, 3))
def test_offsets_match_closed_form_spheres(text, power):
    # sphere sizes from the spec's closed form, with no group arithmetic, at
    # the largest radius up to 12 whose ball holds at most 20,000 elements;
    # |K^t| <= 400 bounds the |K^t|^2 pair products and the table columns
    spec = parse_spec(text)
    balls = list(accumulate(spec_spheres(spec, 13, power)))
    assume(balls[1] <= 400)
    radius = max(m for m, b in enumerate(balls) if b <= 20_000)
    offsets = (0, *balls[: radius + 1])
    grp = Group(spec)
    gens = standard_generators(grp)
    if power > 1:
        gens = power_generators(grp, gens, power)
    cap = balls[radius]  # a wrong search that reaches more elements stops here
    assert build_window(grp, gens, radius, cap).offsets == offsets
    # a table window writes |K^t| - 1 entries per element: up to 500,000 here
    top = max(m for m in range(radius + 1) if balls[m] * balls[1] <= 500_000)
    assert build_window(grp, gens, top, cap, table=True).offsets == offsets[: top + 2]
    # a grown plain window forms its pair products past its source's radius
    assert build_window(grp, gens, radius // 2, cap).at(radius).offsets == offsets


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
            dgh = distance(window, g, h)
        except OutOfWindowError:
            continue
        assert dgh == distance(window, h, g)
        assert (dgh == 0) == (g == h)
        # left invariance where all shifts stay inside the window
        try:
            assert distance(window, grp.mul(k, g), grp.mul(k, h)) == dgh
        except OutOfWindowError:
            pass
        try:
            assert dgh <= distance(window, g, k) + distance(window, k, h)
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
    # growing a smaller window hits the cap where a fresh build does
    small = build_window(grp, gens, 3, cap=1000)
    with pytest.raises(WindowCapError) as grown:
        small.at(10)
    assert (grown.value.cap, grown.value.radius_reached) == (1000, 5)
    assert small.radius == 3 and len(small) == len(small.norms) == 53
    assert len(build_window(grp, gens, 5, cap=485).at(2)) == 17
    # a table search checks the cap at the same points
    with pytest.raises(WindowCapError) as tab:
        build_window(grp, gens, 3, cap=1000, table=True).at(10)
    assert (tab.value.cap, tab.value.radius_reached) == (1000, 5)
    # below 1 not even the identity fits, so no radius was built
    for cap in (0, -1):
        with pytest.raises(ParameterError):
            build_window(grp, gens, 3, cap=cap)


@pytest.mark.parametrize(
    "text,radius,power", [(text, 5, 1) for text in ZOO] + [("C6", 8, 1), ("Z^2", 4, 2)]
)
def test_at_equals_a_fresh_build(text, radius, power):
    grp, gens = get_group(text), get_gens(text, power)
    source = build_window(grp, gens, radius)
    before = (list(source.elements), source.offsets, list(source.norms.items()))
    for r in range(radius + 4):  # prefixes, the window itself, and continued searches
        w = source.at(r)
        fresh = build_window(grp, gens, r)
        assert w.radius == r
        assert w.elements == fresh.elements, (text, r)
        assert w.offsets == fresh.offsets, (text, r)
        assert list(w.norms.items()) == list(fresh.norms.items()), (text, r)
        assert list(w.norms) == w.elements  # norms keeps window order
    assert (source.elements, source.offsets, list(source.norms.items())) == before


def test_at_shares_no_lazy_state():
    grp, gens = get_group("(C2 * C3)"), get_gens("(C2 * C3)")
    source = build_window(grp, gens, 6)
    # fill the id map, predecessors and the neighbour table
    source.ids, source.geodesic(source.elements[-1])
    source.neighbours()
    for r in (3, 6, 8):
        w = source.at(r)
        assert w.elements is not source.elements and w.norms is not source.norms
        assert "ids" not in vars(w) and "_cols" not in vars(w) and w._pred == {}
    assert len(source.ids) == len(source) and "_cols" in vars(source) and source._pred
    with pytest.raises(ValueError):
        source.at(-1)


@pytest.mark.parametrize("text,power", [(text, 1) for text in ZOO] + [(text, 2) for text in ZOO])
def test_table_window_matches_plain_search_and_fill(text, power):
    # at gen-power 2 the growth is 2, not 4: F2 at radius 6 has a million elements
    grp, gens = get_group(text), get_gens(text, power)
    radius, grow = (5, 4) if power == 1 else (2, 2)
    source = build_window(grp, gens, radius, table=True)
    # a prefix of a table window is a plain window, whose table neighbours fills
    prefix = source.at(radius - 2)
    assert not prefix.table and "ids" not in vars(prefix) and "_cols" not in vars(prefix)
    assert prefix.elements == build_window(grp, gens, radius - 2).elements
    for w, r in [
        (source, radius),
        (source.at(radius), radius),
        (source.at(radius + grow), radius + grow),
        (source.at(radius + 1).at(radius + grow), radius + grow),
    ]:
        plain = build_window(grp, gens, r)
        assert w.table and not plain.table
        assert w.elements == plain.elements, (text, r)
        assert w.offsets == plain.offsets, (text, r)
        assert list(w.norms.items()) == list(plain.norms.items()), (text, r)
        assert list(w.ids.items()) == list(plain.ids.items())
        want = plain.neighbours()
        got = w.neighbours()
        assert len(got) == len(want) == len(w.steps)
        for s, col, filled in zip(w.steps, got, want):
            assert list(col) == list(filled), (text, r, grp.show(s))


@pytest.mark.parametrize("text,power", [(text, 1) for text in ZOO] + [(text, 2) for text in ZOO])
def test_table_columns_match_fill_at_every_radius(text, power):
    # every radius whose growth by ENLARGE_BY fits the cap (F2 at gen-power 2:
    # radius 0 only), and at most 8 for the groups that grow slowly or not at all
    grp, gens = get_group(text), get_gens(text, power)
    for radius in range(9):
        try:
            source = build_window(grp, gens, radius, cap=20_000, table=True)
            grown = source.at(radius + ENLARGE_BY)
        except WindowCapError:
            break
        for w in (source, grown):
            plain = build_window(grp, gens, w.radius)
            want = [[plain.ids.get(grp.mul(x, s), -1) for x in plain] for s in plain.steps]
            assert [list(c) for c in plain.neighbours()] == want, (text, power, w.radius)
            assert [list(c) for c in w.neighbours()] == want, (text, power, w.radius)
    assert radius > 0  # radius 0 at least was checked


def test_one_way_table_window_is_plain():
    w = build_window(get_group("Z"), _one_way_z(), 4, table=True)
    assert not w.table and "ids" not in vars(w)
    with pytest.raises(ParameterError):
        w.neighbours()


def test_grown_table_window_shares_no_table():
    grp, gens = get_group("(C2 * C3)"), get_gens("(C2 * C3)")
    source = build_window(grp, gens, 6, table=True)
    cols = source.neighbours()
    before = ([list(c) for c in cols], list(source.ids.items()), list(source.norms.items()))
    for r in (3, 6, 8):
        w = source.at(r)
        assert w.ids is not source.ids and w.norms is not source.norms
        assert w.elements is not source.elements
        assert not any(c is d for c in w.neighbours() for d in cols)
    assert source.neighbours() is cols
    assert ([list(c) for c in cols], list(source.ids.items()), list(source.norms.items())) == before


def _count_products(monkeypatch, only=None):
    """Count the products formed through Group.mul and through the maps that
    Group.step_map returns, those of the group `only` alone when it is given.

    A product's step map takes its factors' maps when it is built, so the
    groups counted must be fresh: a map built before the patch counts none
    of its nested products.
    """
    calls = [0]
    mul, step_map = Group.mul, Group.step_map

    def counting_mul(self, a, b):
        calls[0] += only is None or self is only
        return mul(self, a, b)

    def counting_step_map(self, s):
        step = step_map(self, s)
        if only is not None and self is not only:
            return step

        def counted(a):
            calls[0] += 1
            return step(a)

        return counted

    monkeypatch.setattr(Group, "mul", counting_mul)
    monkeypatch.setattr(Group, "step_map", counting_step_map)
    return calls


@pytest.mark.parametrize("text", ["Z^2", "F2", "(Z x C2)", "(C2 * C2)", "(C2 * C3)", "C6"])
def test_table_search_forms_each_entry_once(monkeypatch, text):
    # products of the window's group only: a product's own child products
    # are the kernel's business
    grp = Group(parse_spec(text))
    gens = standard_generators(grp)
    calls = _count_products(monkeypatch, grp)
    window = build_window(grp, gens, 4, table=True)
    assert calls[0] == table_search_products(window)
    # a grown window forms again only the old outer sphere's entries leading out
    source = build_window(grp, gens, 2, table=True)
    calls[0] = 0
    grown = source.at(5)
    assert calls[0] == table_search_products(grown) - table_edges(source)


@pytest.mark.parametrize("text,per_product", [("Z^2", 1), ("F2", 1), ("(Z x C2)", 3)])
def test_class_entry_points_see_every_product(monkeypatch, text, per_product):
    # a tracer counts products by patching Group.mul and Group.step_map; a
    # family's kernel and step maps, and a direct product's two nested child
    # products, must all pass through them
    grp = Group(parse_spec(text))
    calls = _count_products(monkeypatch)
    radius = 4
    window = build_window(grp, standard_generators(grp), radius)
    formed = calls[0]
    # the |K|^2 products of two steps, then each element of norm < R against
    # the steps that can extend its shortlex-least word
    assert formed == per_product * plain_search_products(window)


def test_cap_bounds_the_work_of_a_large_step_set(monkeypatch):
    # F2 under gen-power 6 has 1,456 steps, so sphere 1 alone passes a cap of
    # 100. The plain search stops there, before the |K|^2 products of two
    # steps that only sphere 2 reads; products of the group only are counted,
    # once the generators are built.
    grp = Group(parse_spec("F2"))
    gens = power_generators(grp, standard_generators(grp), 6)
    calls = _count_products(monkeypatch, grp)
    with pytest.raises(WindowCapError) as exc:
        build_window(grp, gens, 3, cap=100)
    assert (exc.value.cap, exc.value.radius_reached) == (100, 0)
    assert calls[0] == len(gens) - 1  # one step product per step, from the identity
    # a table search doubles every column as it grows, so it checks the cap
    # where it doubles them: the 4,372 steps of gen-power 7 stop it there
    gens = power_generators(grp, standard_generators(grp), 7)
    calls[0] = 0
    with pytest.raises(WindowCapError) as exc:
        build_window(grp, gens, 3, cap=100, table=True)
    assert (exc.value.cap, exc.value.radius_reached) == (100, 0)
    assert calls[0] <= 2 * (100 + 1)
    # under gen-power 2, sphere 1 (17 elements) fits a cap of 50 and B(2)
    # (161) does not: the pair products stop once their keys, B(2), pass the
    # cap, with the error sphere 2 would raise
    gens = power_generators(grp, standard_generators(grp), 2)
    calls[0] = 0
    with pytest.raises(WindowCapError) as exc:
        build_window(grp, gens, 3, cap=50)
    assert (exc.value.cap, exc.value.radius_reached) == (50, 1)
    assert calls[0] < 16 * 16
