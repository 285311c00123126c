"""Growth tables, covering numbers, and the annulus-cover witness."""

import dataclasses
import random

import pytest

from coarse_ends import (
    EmptyShellError,
    NonHyperbolicError,
    ParameterError,
    WindowCapError,
    asdim_upper_bound,
    bounded_geometry_check,
    build_annulus_cover,
    build_window,
    covering_number,
    estimate_delta,
    greedy_ball_cover,
    growth_series,
    star,
    verify_cover,
)
from helpers import get_gens, get_group, get_window, random_subset
from oracles import (
    estimate_delta_reference,
    exact_covering_number,
    greedy_ball_cover_reference,
    max_diameter_reference,
    min_cover_size,
)


# ---------------------------------------------------------------------------
# Growth


def test_growth_series_frozen():
    rows = growth_series(get_window("Z", 6))
    assert [(r.r, r.sphere, r.ball) for r in rows] == [
        (0, 1, 1), (1, 2, 3), (2, 2, 5), (3, 2, 7), (4, 2, 9), (5, 2, 11), (6, 2, 13),
    ]
    rows = growth_series(get_window("(C2 * C3)", 8))
    assert [r.ball for r in rows] == [1, 4, 8, 14, 22, 34, 50, 74, 106]


def test_growth_series_consistency():
    for text in ["Z^2", "F2", "C6", "(C2 * C2)"]:
        w = get_window(text, 6)
        rows = growth_series(w)
        assert rows[0] == rows[0].__class__(r=0, sphere=1, ball=1)
        for prev, row in zip(rows, rows[1:]):
            assert row.ball == prev.ball + row.sphere
        assert rows[-1].ball == len(w)


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
                   random_subset(w, rng, 0.05), star(rng.sample(inner, 2), w.gens.elements, w)]
        for target in targets:
            for s in range(4):
                want = greedy_ball_cover_reference(w, target, s)
                assert greedy_ball_cover(w, target, s) == want, (text, power, s)


def test_covering_number_frozen():
    wz = get_window("Z", 10)
    assert covering_number(wz, 5, 4) == 2
    assert covering_number(wz, 3, 0) == 1
    wf = get_window("F2", 8)
    for S in (3, 4, 5):
        assert covering_number(wf, S, 2) == 12
    assert covering_number(wf, 4, 4) == 108


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
    expected = {"Z": 2, "C2": 1, "F2": 4, "(C2 * C3)": 3}
    for text, want in expected.items():
        assert bounded_geometry_check(get_window(text, 4)) == want, text
    with pytest.raises(ParameterError):
        bounded_geometry_check(get_window("Z", 2))


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
    sampled = [("Z^2", 8, 300, 3), ("Z^2", 10, 200, 3), ("F2", 6, 2000, 3),
               ("(C2 * C3)", 10, 1000, 3), ("Z^2", 5, 20, 20), ("(Z x C2)", 6, 20, 20)]
    values = []
    for text, radius, budget, seeds in sampled:
        w = get_window(text, radius)
        for seed in range(seeds):
            got = estimate_delta(w, pair_budget=budget, seed=seed)
            assert got == estimate_delta_reference(w, budget, seed), (text, seed)
            values.append(got)
    assert max(values) > 0


def test_estimate_delta_deterministic_sampling():
    w = get_window("Z^2", 8)  # 145 elements, full pair scan over budget
    a = estimate_delta(w, pair_budget=500, seed=3)
    b = estimate_delta(w, pair_budget=500, seed=3)
    assert a == b
    assert a <= estimate_delta(w)  # sampled scan is a lower bound


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
    assert cover.net.points == ((-4,), (4,))
    assert cover.net.separation == 2
    assert sorted(len(s) for s in cover.sets) == [2, 2]
    assert set(cover.annulus) == {(-6,), (-5,), (5,), (6,)}
    assert cover.last_exit[(5,)] == (4,)
    assert cover.assignment[(5,)] == (1,)


def test_annulus_cover_laws():
    for text, radius, n in [("Z", 14, 3), ("F2", 8, 2), ("(C2 * C3)", 10, 3)]:
        w = get_window(text, radius)
        grp = w.group
        cover = build_annulus_cover(w, n, 1, 1)
        covered = set()
        for s in cover.sets:
            covered.update(s)
        assert covered == set(cover.annulus)  # bucket union is the annulus
        for g, ids in cover.assignment.items():
            assert ids  # maximality of the net
            exit_pt = cover.last_exit[g]
            assert w.knorm(exit_pt) == 2 * n
            for i in ids:
                rel = grp.mul(grp.inv(cover.net.points[i]), exit_pt)
                assert w.norms[rel] <= 2  # within the separation of a net point
        # net points pairwise at distance >= 2ps
        pts = cover.net.points
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
    assert stats.multiplicity == {1: 1}
    assert stats.worst_center is None
    failing = verify_cover(cover, 1, 0)  # impossible ceiling must fail
    assert failing.passed is False
    assert failing.worst_center is not None
    with pytest.raises(ParameterError):
        verify_cover(cover, 0, 2)
    with pytest.raises(ParameterError):
        verify_cover(cover, 2, 2)


def test_max_diameter_matches_reference():
    # the covers asdim_upper_bound builds for Z, (C2 * C3) and F2 n=2
    for text, radius, n_list in [("Z", 14, range(2, 7)), ("(C2 * C3)", 16, range(2, 8)),
                                 ("F2", 9, [2])]:
        w = get_window(text, radius)
        for n in n_list:
            cover = build_annulus_cover(w, n, 1, 1)
            want = max_diameter_reference(w, cover.sets)
            assert verify_cover(cover, 1, len(cover.sets)).max_diameter == want, (text, n)
            # distinct sets that share members are each scanned
            heads = tuple(members[:1] for members in cover.sets)
            mixed = dataclasses.replace(cover, sets=heads + cover.sets + heads)
            assert verify_cover(mixed, 1, len(cover.sets)).max_diameter == want


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
    assert all(max(st.multiplicity.values()) <= 108 for st in witness.annuli)
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
