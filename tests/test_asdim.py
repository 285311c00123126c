"""Growth tables, covering numbers, and the annulus-cover witness."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from coarse_ends import (
    AnnulusCover,
    EmptyShellError,
    Group,
    NonHyperbolicError,
    OutOfWindowError,
    ParameterError,
    Window,
    WindowCapError,
    asdim_upper_bound,
    build_annulus_cover,
    build_window,
    covering_number,
    estimate_delta,
    greedy_ball_cover,
    growth_series,
    parse_spec,
    verify_cover,
)
from coarse_ends.asdim import PROBE_RADII, _delta_scan, _indices
from helpers import get_gens, get_group, get_window, nested_specs, random_subset
from oracles import (
    estimate_delta_reference,
    exact_covering_number,
    greedy_ball_cover_reference,
    max_diameter_reference,
    min_cover_size,
    probe_multiplicity_reference,
    star,
)


# ---------------------------------------------------------------------------
# Growth


def test_growth_series_frozen():
    rows = growth_series(parse_spec("Z"), 6)
    assert [(r.r, r.sphere, r.ball) for r in rows] == [
        (0, 1, 1), (1, 2, 3), (2, 2, 5), (3, 2, 7), (4, 2, 9), (5, 2, 11), (6, 2, 13),
    ]
    rows = growth_series(parse_spec("(C2 * C3)"), 8)
    assert [r.ball for r in rows] == [1, 4, 8, 14, 22, 34, 50, 74, 106]
    # K^2 reads every other ball of K; C6 is exhausted at radius 3
    rows = growth_series(parse_spec("(C2 * C3)"), 4, power=2)
    assert [r.ball for r in rows] == [1, 8, 22, 50, 106]
    assert [r.sphere for r in growth_series(parse_spec("C6"), 6)] == [1, 2, 2, 1, 0, 0, 0]


def test_growth_series_consistency():
    for text in ["Z^2", "F2", "C6", "(C2 * C2)"]:
        w = get_window(text, 6)
        rows = growth_series(parse_spec(text), 6)
        assert rows[0] == rows[0].__class__(r=0, sphere=1, ball=1)
        for prev, row in zip(rows, rows[1:]):
            assert row.ball == prev.ball + row.sphere
        assert rows[-1].ball == len(w)
    # a cyclic factor's series is sparse: an order of 10^9 costs nothing
    text = "(C1000000000 * C7)"
    w = build_window(get_group(text), get_gens(text), 6)
    assert tuple(row.ball for row in growth_series(parse_spec(text), 6)) == w.offsets[1:]


def test_growth_series_errors():
    with pytest.raises(WindowCapError) as err:
        growth_series(parse_spec("F2"), 40)  # |B(13)| = 3,188,645, |B(14)| = 9,565,937
    assert err.value.radius_reached == 13
    for kwargs in (dict(power=0), dict(cap=0)):
        with pytest.raises(ParameterError):
            growth_series(parse_spec("Z"), 3, **kwargs)


# ---------------------------------------------------------------------------
# Greedy covers and covering numbers


def _is_covered(window, target, centers, s):
    grp = window.group
    for u in target:
        ok = False
        for c in centers:
            rel = grp.mul(grp.inv(c), u)
            if rel in window.norms and window.norms[rel] <= s:
                ok = True
                break
        if not ok:
            return False
    return True


def test_greedy_cover_is_a_cover():
    rng = random.Random("greedy-cover")
    for text, radius in [("Z", 10), ("F2", 5), ("(C2 * C3)", 6), ("Z^2", 5)]:
        w = get_window(text, radius)
        els = w.ball(radius - 1)
        for _ in range(40):
            target = rng.sample(els, rng.randrange(1, min(20, len(els))))
            s = rng.randrange(0, 3)
            centers = greedy_ball_cover(w, target, s)
            assert _is_covered(w, target, centers, s)
            assert centers == greedy_ball_cover(w, target, s)  # deterministic


def test_greedy_cover_edge_cases():
    w = get_window("Z", 6)
    assert greedy_ball_cover(w, [], 1) == []
    target = w.ball(2)
    assert len(greedy_ball_cover(w, target, 0)) == len(target)
    with pytest.raises(ParameterError):
        greedy_ball_cover(w, target, -1)


def test_greedy_cover_matches_reference():
    # the sphere-by-sphere sort picks the centres of one sort over the target
    rng = random.Random("greedy-reference")
    cases = [
        ("Z", 12, 1), ("Z^2", 6, 1), ("F2", 5, 1), ("F3", 4, 1), ("(C2 * C3)", 8, 1),
        ("(C2 * C2)", 10, 1), ("(Z x C2)", 8, 1), ("C6", 8, 1), ("Z^2", 5, 2),
    ]
    for text, radius, power in cases:
        w = get_window(text, radius, power)
        inner = w.ball(radius - 2)
        targets = [w.ball(radius), w.ball(radius - 1), random_subset(w, rng, 0.3),
                   random_subset(w, rng, 0.05), star(rng.sample(inner, 2), 1, w)]
        for target in targets:
            for s in range(4):
                want = greedy_ball_cover_reference(w, target, s)
                assert greedy_ball_cover(w, target, s) == want, (text, power, s)


def test_greedy_cover_reads_any_target_order():
    # a target out of norm order, with repeats, buckets as a ball does
    rng = random.Random("greedy-shuffled")
    for text, radius in [("F2", 5), ("Z^2", 6), ("(C2 * C3)", 8)]:
        w = get_window(text, radius)
        target = w.ball(radius - 1) + rng.sample(w.ball(radius - 1), 20)
        rng.shuffle(target)
        for s in range(3):
            assert greedy_ball_cover(w, target, s) == greedy_ball_cover_reference(w, target, s)
            assert greedy_ball_cover(w, iter(target), s) == greedy_ball_cover(w, target, s)
    # the first outside element in target order is named
    w = get_window("Z", 6)
    with pytest.raises(OutOfWindowError, match=r"^element \(9\) lies outside the radius-6 window$"):
        greedy_ball_cover(w, [(2,), (-1,), (9,), (3,), (-8,)], 1)


def test_covering_number_frozen():
    wz = get_window("Z", 10)
    assert covering_number(wz, 5, 4) == 2
    assert covering_number(wz, 3, 0) == 1
    wf = get_window("F2", 8)
    for S in (3, 4, 5):
        assert covering_number(wf, S, 2) == 12
    assert covering_number(wf, 4, 4) == 108


def test_covering_number_matches_reference():
    # the class count on the outermost sphere, against one sort of the whole target
    cases = [
        # the centre classes on the outermost sphere are disjoint
        ("F2", 5, 1), ("(C2 * C3)", 7, 1), ("(C2 * C2)", 8, 1), ("Z", 8, 1), ("(Z * Z)", 5, 1),
        # two classes meet, so the greedy runs from scratch
        ("Z^2", 6, 1), ("Z^3", 4, 1), ("(Z x C2)", 6, 1), ("(F2 x C2)", 4, 1),
        ("((C2 * C2) x C3)", 6, 1), ("(Z x C8)", 6, 1),
        # finite groups whose window holds the group, so the target stops short of S + t
        ("C7", 6, 1), ("(C2 x C2)", 4, 1),
        ("F2", 2, 2), ("(Z x C2)", 3, 2),
    ]
    for text, radius, power in cases:
        w = get_window(text, radius, power)
        for S in range(radius + 1):
            for t in range(radius - S + 1):
                want = len(greedy_ball_cover_reference(w, w.ball(S + t), S))
                assert covering_number(w, S, t) == want, (text, power, S, t)
    # three classes reach S(3) here and two of them meet: a count that skipped the check reads 3
    assert covering_number(get_window("(Z x C2)", 6), 2, 1) == 2


def test_covering_number_sorts_only_where_classes_meet(monkeypatch):
    free, grid = get_window("F2", 9), get_window("Z^2", 6)  # built before sorts are recorded
    sorted_lengths = []
    original = Group.sort_printed

    def recording(self, items):
        sorted_lengths.append(len(items))
        return original(self, items)

    monkeypatch.setattr(Group, "sort_printed", recording)
    # F2's classes on S(9) are the extensions of the words in S(4)
    assert covering_number(free, 5, 4) == 108
    assert not any(sorted_lengths)
    # Z^2's classes meet, so the greedy sorts from scratch
    for S, t in [(1, 1), (2, 2), (3, 3)]:
        del sorted_lengths[:]
        want = len(greedy_ball_cover_reference(grid, grid.ball(S + t), S))
        assert covering_number(grid, S, t) == want
        assert any(sorted_lengths), (S, t)


def test_covering_number_errors():
    w = get_window("Z", 8)
    with pytest.raises(ParameterError):
        covering_number(w, 5, 4)
    with pytest.raises(ParameterError):
        covering_number(w, -1, 2)


def _oracle_cover_size(window, S, t):
    grp = window.group
    target = set(window.ball(S + t))
    ball = window.ball(min(S, window.radius))
    candidates = []
    for c in window.ball(min(2 * S + t, window.radius)):
        hit = frozenset(y for v in ball if (y := grp.mul(c, v)) in target)
        if hit:
            candidates.append(hit)
    return min_cover_size(frozenset(target), candidates)


def test_exact_covering_number_matches_oracle():
    cases = [
        ("Z", 8, 1, 1),
        ("Z", 8, 2, 2),
        ("Z", 8, 1, 3),
        ("C6", 6, 1, 1),
        ("C6", 6, 1, 2),
        ("F2", 4, 1, 1),
        ("(C2 * C3)", 5, 1, 1),
        ("(Z x C2)", 6, 1, 2),
        ("Z^2", 4, 1, 1),
    ]
    for text, radius, S, t in cases:
        w = get_window(text, radius)
        exact = exact_covering_number(w, S, t)
        assert exact == _oracle_cover_size(w, S, t), (text, S, t)
        assert covering_number(w, S, t) >= exact


def test_exact_covering_number_cap():
    w = get_window("Z", 10)
    with pytest.raises(ParameterError):
        exact_covering_number(w, 5, 4)  # target size 19 over the cap


def test_bounded_geometry_values():
    # the growth command's count: translates of K covering K*K = B(2)
    expected = {"Z": 2, "C2": 1, "F2": 4, "(C2 * C3)": 3}
    for text, want in expected.items():
        assert covering_number(get_window(text, 4), 1, 1) == want, text


# ---------------------------------------------------------------------------
# Thin geodesics


def test_estimate_delta_tree_like():
    assert estimate_delta(get_window("Z", 8)) == 0
    assert estimate_delta(get_window("F2", 6)) == 0
    assert estimate_delta(get_window("(C2 * C2)", 8)) == 0


def test_estimate_delta_grid_grows():
    values = [estimate_delta(get_window("Z^2", r)) for r in (4, 6, 8)]
    assert values == [4, 6, 8]


def test_estimate_delta_matches_reference():
    # stopping where the geodesics meet loses no index with a nonzero distance
    full = [("Z", 8), ("F2", 5), ("(C2 * C2)", 10), ("(C2 * C3)", 8), ("Z^2", 4), ("Z^2", 8)]
    for text, radius in full:
        w = get_window(text, radius)
        assert estimate_delta(w) == estimate_delta_reference(w), text
    # small samples, where one pair whose geodesics meet early can set the value
    # on Z^3 and (Z x C3) the bound 2i <= best ends comparisons early
    sampled = [("Z^2", 8, 300, range(3)), ("Z^2", 10, 200, range(3)), ("F2", 6, 2000, range(3)),
               ("(C2 * C3)", 10, 1000, range(3)), ("Z^2", 5, 20, range(20)),
               ("(Z x C2)", 6, 20, range(20)), ("Z^3", 6, 2000, (0, 11)),
               ("(Z x C3)", 12, 2000, (0, 11))]
    values = []
    for text, radius, budget, seeds in sampled:
        w = get_window(text, radius)
        for seed in seeds:
            got = estimate_delta(w, pair_budget=budget, seed=seed)
            assert got == estimate_delta_reference(w, budget, seed), (text, seed)
            values.append(got)
    assert max(values) > 0


def test_probe_scans_read_one_window():
    # every probe radius, and R, read off the one probe window with one
    # geodesic memo give estimate_delta on the window of that radius
    cases = [("F2", (5, 7, 8)), ("(C2 * C3)", (5, 7, 8, 12)), ("Z^2", (5, 7, 8, 12)),
             ("(Z x C2)", (5, 7, 8, 12)), ("(C2 * C2)", (5, 7, 8, 12))]
    sampled = 0
    for text, radii in cases:
        for radius in radii:
            w = get_window(text, radius)
            probes = w if radius >= 8 else w.at(8)
            for budget, seed in ((20000, 0), (300, 5)):
                geos = {}
                for r in (*PROBE_RADII, radius):
                    n = len(probes.ball(r)) - 1
                    sampled += n * (n - 1) // 2 > budget
                    want = estimate_delta(w.at(r), budget, seed)
                    assert _delta_scan(probes, r, budget, seed, geos) == want, (text, radius, r)
    assert sampled > 20
    # the witness reports those values, or refuses with them
    for text, radius, budget in [("F2", 8, 500), ("(C2 * C3)", 12, 20000), ("Z", 12, 20000),
                                 ("(C2 * C2)", 12, 300)]:
        w = get_window(text, radius)
        witness = asdim_upper_bound(w, pair_budget=budget, seed=2)
        assert witness.probe_values == tuple(
            estimate_delta(w.at(r), budget, 2) for r in PROBE_RADII
        ), text
        assert witness.delta_hat == estimate_delta(w, budget, 2), text
    for radius in (5, 7, 8, 12):
        with pytest.raises(NonHyperbolicError) as err:
            asdim_upper_bound(get_window("Z^2", radius), pair_budget=300, seed=4)
        assert err.value.values == tuple(
            estimate_delta(get_window("Z^2", radius).at(r), 300, 4) for r in PROBE_RADII
        )


def test_asdim_builds_at_most_one_probe_window(monkeypatch):
    # none when R >= 8, and one of radius 8 below that
    wide = [get_window("(C2 * C3)", 12), get_window("Z", 8)]
    narrow = [get_window("Z", 7), get_window("Z", 0), get_window("(C2 * C3)", 5)]
    grid = get_window("Z^2", 3)
    grown = []
    at = Window.at

    def record(self, radius):
        grown.append(radius)
        return at(self, radius)

    monkeypatch.setattr(Window, "at", record)
    for window in wide:
        asdim_upper_bound(window, pair_budget=500)
    assert grown == []
    for window in narrow:
        with pytest.raises(ParameterError, match="too small to sample"):
            asdim_upper_bound(window)
        assert grown == [8], window.radius
        grown.clear()
    with pytest.raises(NonHyperbolicError):
        asdim_upper_bound(grid)
    assert grown == [8]


def test_probe_scans_precede_the_cap():
    # B(4) of F2 fits a cap of 400 and B(5) does not: the radius-4 probe is
    # scanned, and its empty sample refused, before the cap stops the growth
    window = build_window(get_group("F2"), get_gens("F2"), 3, cap=400)
    with pytest.raises(ParameterError, match="^no sampled pair in the radius-4 window"):
        asdim_upper_bound(window, pair_budget=1, seed=0)
    with pytest.raises(WindowCapError) as err:
        asdim_upper_bound(window, pair_budget=100, seed=0)
    assert err.value.radius_reached == 4


def test_estimate_delta_deterministic_sampling():
    w = get_window("Z^2", 8)  # 145 elements, full pair scan over budget
    a = estimate_delta(w, pair_budget=500, seed=3)
    b = estimate_delta(w, pair_budget=500, seed=3)
    assert a == b
    assert a <= estimate_delta(w)  # sampled scan is a lower bound


@pytest.mark.parametrize("n", [1, 2, 3, 64, 1000, 39_364])
def test_sampled_draws_are_randrange(n):
    # the inline rejection loop draws what randrange(n) draws, seed for seed
    for seed in (0, 11, "draws"):
        want = random.Random(seed)
        got = _indices(random.Random(seed), n)
        assert [next(got) for _ in range(500)] == [want.randrange(n) for _ in range(500)]


def test_estimate_delta_refuses_an_empty_sample():
    # one sampled pair, and it never reaches the geodesic comparison
    with pytest.raises(ParameterError, match=r"radius-8 window .* pair budget 1 is too small"):
        estimate_delta(get_window("Z^2", 8), pair_budget=1, seed=1)
    # a full scan is exact even when no pair compares: Z at radius 1 has one
    # pair, (1,) and (-1,), at a distance the window cannot see
    assert estimate_delta(get_window("Z", 1), pair_budget=1) == 0


# ---------------------------------------------------------------------------
# Annulus covers


def test_build_annulus_cover_z():
    w = get_window("Z", 14)
    cover = build_annulus_cover(w, 2, 1, 1)
    assert cover.net == ((-4,), (4,))
    assert sorted(len(s) for s in cover.sets) == [2, 2]
    assert set(cover.assignment) == set(w.annulus(4, 6)) == {(-6,), (-5,), (5,), (6,)}
    assert w.geodesic((5,))[4] == (4,)
    assert cover.assignment[(5,)] == (1,)


def test_annulus_cover_laws():
    for text, radius, n in [("Z", 14, 3), ("F2", 8, 2), ("(C2 * C3)", 10, 3)]:
        w = get_window(text, radius)
        grp = w.group
        cover = build_annulus_cover(w, n, 1, 1)
        covered = set()
        for s in cover.sets:
            covered.update(s)
        assert covered == set(w.annulus(2 * n, 2 * n + 2))  # bucket union is the annulus
        for g, ids in cover.assignment.items():
            assert ids  # maximality of the net
            exit_pt = w.geodesic(g)[2 * n]
            assert w.knorm(exit_pt) == 2 * n
            for i in ids:
                rel = grp.mul(grp.inv(cover.net[i]), exit_pt)
                assert w.norms[rel] <= 2  # within the separation of a net point
        # net points pairwise at distance >= 2ps
        pts = cover.net
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                rel = grp.mul(grp.inv(pts[i]), pts[j])
                assert rel not in w.norms or w.norms[rel] >= 2


def test_build_annulus_cover_errors():
    w = get_window("Z", 10)
    with pytest.raises(ParameterError):
        build_annulus_cover(w, 1, 1, 1)  # n must exceed p*s
    with pytest.raises(ParameterError):
        build_annulus_cover(w, 5, 1, 1)  # annulus sticks out of the window
    with pytest.raises(ParameterError):
        build_annulus_cover(w, 3, 0, 1)
    with pytest.raises(EmptyShellError):
        build_annulus_cover(get_window("C6", 16), 2, 1, 1)


def test_verify_cover_z():
    w = get_window("Z", 14)
    cover = build_annulus_cover(w, 2, 1, 1)
    stats = verify_cover(cover, 1, 2)
    assert stats.passed is True
    assert stats.max_diameter == 1
    assert stats.diameter_bound == 8
    assert stats.multiplicity == 1
    assert stats.worst_center is None
    failing = verify_cover(cover, 1, 0)  # impossible ceiling must fail
    assert failing.passed is False
    assert failing.worst_center is not None
    with pytest.raises(ParameterError):
        verify_cover(cover, 0, 2)
    with pytest.raises(ParameterError):
        verify_cover(cover, 2, 2)


def test_verify_cover_refuses_a_one_way_step_set():
    # the pivot bound and the reach map both rest on |x^-1| = |x|
    w = build_window(get_group("Z"), frozenset({(0,), (1,)}), 12)
    cover = build_annulus_cover(w, 2, 1, 1)
    with pytest.raises(ParameterError, match="^step set is not closed under inverses$"):
        verify_cover(cover, 1, 2)
    with pytest.raises(ParameterError, match="^step set is not closed under inverses$"):
        asdim_upper_bound(w)


def test_verify_cover_empty_annulus():
    # C8 ends at norm 4: the n=2 annulus, norms 5 and 6, is empty, and so is its one set
    cover = build_annulus_cover(get_window("C8", 8), 2, 1, 1)
    assert cover.sets == ((),)
    stats = verify_cover(cover, 1, 0)
    assert (stats.max_diameter, stats.multiplicity, stats.worst_center) == (0, 0, None)
    assert probe_multiplicity_reference((cover,), 1) == (0, None)


def with_sets(cover, sets):
    """The cover with other sets: the build's exits kept, no reach map yet."""
    return AnnulusCover(cover.n, cover.p, cover.s, cover.window, cover.net, sets,
                        cover.assignment, cover._exits)


def test_max_diameter_matches_reference():
    # the covers asdim_upper_bound builds for Z, (C2 * C3) and F2 n=2, and covers
    # whose largest distance escapes the window (R+1 for Z^2 and Z^3)
    cases = [("Z", 14, range(2, 7), 1, 1), ("(C2 * C3)", 16, range(2, 8), 1, 1),
             ("F2", 9, [2], 1, 1), ("Z^2", 6, [2], 1, 1), ("Z^3", 6, [2], 1, 1),
             ("Z^2", 10, [3], 1, 2), ("(C2 * C3)", 14, [3], 2, 1)]
    escaped = 0
    for text, radius, n_list, p, s in cases:
        w = get_window(text, radius)
        for n in n_list:
            cover = build_annulus_cover(w, n, p, s)
            want = max_diameter_reference(w, cover.sets)
            escaped += want == radius + 1
            assert verify_cover(cover, 1, len(cover.sets)).max_diameter == want, (text, n)
            # distinct sets that share members are each scanned
            heads = tuple(members[:1] for members in cover.sets)
            mixed = with_sets(cover, heads + cover.sets + heads)
            assert verify_cover(mixed, 1, len(cover.sets)).max_diameter == want
    assert escaped == 3


@settings(max_examples=100)
@given(
    nested_specs(2),
    st.sampled_from([1, 2]),
    st.sampled_from([1, 2]),
    st.sampled_from([1, 2]),
    st.randoms(use_true_random=False),
)
def test_max_diameter_matches_reference_on_nested_specs(text, power, p, s, rng):
    # the exit-point bounds against every pair, on the built sets, on sets
    # shuffled within and between, and on sets that mix annulus members with
    # elements inside the shell, which have no stored exit. A window over the
    # cap falls back to p = s = 1; a finite group may have no annulus.
    grp, gens = get_group(text), get_gens(text, power)
    try:
        w = build_window(grp, gens, 4 * p * s + 2, cap=2000)
    except WindowCapError:
        p = s = 1
        try:
            w = build_window(grp, gens, 6, cap=3000)
        except WindowCapError:
            return
    n = p * s + 1
    try:
        cover = build_annulus_cover(w, n, p, s)
    except EmptyShellError:
        return
    want = max_diameter_reference(w, cover.sets)
    assert verify_cover(cover, 1, len(cover.sets)).max_diameter == want
    shuffled = [rng.sample(members, len(members)) for members in cover.sets]
    rng.shuffle(shuffled)
    inner = w.ball(2 * n)
    mixed = [rng.sample(inner, min(3, len(inner))) + members for members in shuffled[:3]]
    for sets in (shuffled, mixed + shuffled):
        sets = tuple(map(tuple, sets))
        replaced = with_sets(cover, sets)
        got = verify_cover(replaced, 1, len(sets)).max_diameter
        assert got == max_diameter_reference(w, sets), (text, power, p, s)


def test_probe_multiplicity_matches_reference():
    # reach maps built from the assigned side against the band scan over every centre
    cases = [("Z", 14), ("(C2 * C3)", 16), ("F2", 8), ("F2", 9), ("(C2 * C2)", 16),
             ("(Z x C2)", 14), ("(Z * C2)", 10), ("Z^2", 7), ("Z^3", 6)]
    compared = 0
    for text, radius in cases:
        w = get_window(text, radius)
        for ps in (1, 2):
            n_list = list(range(ps + 1, (radius - 2 * ps) // 2 + 1, ps))
            covers = [build_annulus_cover(w, n, ps, 1) for n in n_list]
            for cover in covers:
                for r in range(1, ps + 1):
                    want, center = probe_multiplicity_reference((cover,), r)
                    passing = verify_cover(cover, r, len(cover.sets))
                    failing = verify_cover(cover, r, 0)
                    assert passing.multiplicity == failing.multiplicity == want, (text, cover.n, r)
                    assert passing.worst_center is None
                    assert failing.worst_center == w.group.show(center), (text, cover.n, r)
                    compared += 1
            try:
                witness = asdim_upper_bound(w, p=ps, n_list=n_list, pair_budget=2000)
            except (NonHyperbolicError, ParameterError):
                continue  # Z^2 and Z^3 refuse; F2 fits no annulus at p*s = 2
            pairs = [probe_multiplicity_reference(pair, ps)[0] for pair in zip(covers, covers[1:])]
            assert witness.cross_multiplicity == max(pairs, default=None), (text, ps)
            compared += 1
    assert compared == 61  # 49 covers at each radius, 12 witnesses


# ---------------------------------------------------------------------------
# Full witness


def test_asdim_witness_z():
    w = get_window("Z", 14)
    witness = asdim_upper_bound(w)
    assert witness.delta_hat == 0
    assert witness.delta == 2
    assert witness.n2delta == 2
    assert witness.bound == 3
    assert witness.probe_values == (0, 0, 0)
    assert [(c.base, c.offset, c.count) for c in witness.samples] == [
        (4, 4, 2), (5, 4, 2), (6, 4, 2), (7, 4, 2),
    ]
    assert witness.n_list == (2, 3, 4, 5, 6)
    assert all(st.passed for st in witness.annuli)
    assert all(st.net_size == 2 for st in witness.annuli)
    assert witness.cross_multiplicity == 2
    d = witness.to_json_dict()
    assert d["bound"] == 3 and d["N2delta"] == 2
    assert d["samples"][0] == {"S": 4, "t": 4, "N": 2}


def test_asdim_witness_f2():
    w = get_window("F2", 10)
    witness = asdim_upper_bound(w, n_list=[2, 3])
    assert witness.delta_hat == 0
    assert witness.n2delta == 108
    assert witness.bound == 215
    assert [st.net_size for st in witness.annuli] == [108, 972]
    assert all(st.max_diameter <= 8 for st in witness.annuli)
    assert all(st.multiplicity <= 108 for st in witness.annuli)
    assert witness.cross_multiplicity == 6
    assert witness.cross_multiplicity <= 2 * witness.n2delta


def test_asdim_refuses_grid():
    w = get_window("Z^2", 8)
    with pytest.raises(NonHyperbolicError) as err:
        asdim_upper_bound(w)
    assert err.value.radii == (4, 6, 8)
    assert err.value.values == (4, 6, 8)


def test_probe_windows_obey_the_window_cap():
    # |B(6)| = 1457 fits the cap; the radius-8 probe grows past it after radius 6
    window = build_window(get_group("F2"), get_gens("F2"), 6, cap=3000)
    with pytest.raises(WindowCapError) as exc:
        asdim_upper_bound(window, pair_budget=200)
    assert exc.value.radius_reached == 6


def test_asdim_parameter_errors():
    wz = get_window("Z", 14)
    with pytest.raises(ParameterError):
        asdim_upper_bound(wz, p=0)
    with pytest.raises(ParameterError):
        asdim_upper_bound(wz, n_list=[2, 4])  # spacing must equal p*s
    with pytest.raises(ParameterError):
        asdim_upper_bound(wz, n_list=[1])
    with pytest.raises(ParameterError):
        asdim_upper_bound(wz, n_list=[9])
    with pytest.raises(ParameterError):
        asdim_upper_bound(get_window("Z", 6))  # no room for the offset samples
    for budget in (0, -5):  # delta_hat must rest on at least one pair
        with pytest.raises(ParameterError):
            estimate_delta(get_window("Z^2", 4), pair_budget=budget)
        with pytest.raises(ParameterError):
            asdim_upper_bound(get_window("Z^2", 8), pair_budget=budget)


def test_asdim_exhausted_group():
    with pytest.raises(EmptyShellError):
        asdim_upper_bound(get_window("C6", 16))
