"""Component decompositions, end trees, verdicts, and the covering bound."""

import random

import pytest

from coarse_ends import (
    ParameterError,
    WindowCapError,
    build_window,
    classify_counts,
    component_tree,
    components,
    end_count,
)
from coarse_ends.cayley import ENLARGE_BY
from helpers import ZOO, get_gens, get_group, get_window
from oracles import (
    bounded_mass_report,
    flood_partition,
    k4_component_bound,
    star,
    union_component_clopen_check,
)


# ---------------------------------------------------------------------------
# Decompositions


def test_z_components_frozen():
    w = get_window("Z", 10)
    dec = components(w, 2)
    assert dec.outer_count == 2 and all(c.outer for c in dec.components)
    assert sorted(c.size for c in dec.components) == [9, 9]
    assert all(c.outer for c in dec.components)
    # deterministic indexing by the least printed element of sphere 2
    assert dec.components[0].least == "(-2)"
    assert dec.components[1].least == "(2)"


def test_f2_components_frozen():
    w = get_window("F2", 8)
    dec = components(w, 2)
    assert dec.outer_count == 12 and all(c.outer for c in dec.components)


def test_z2_components_frozen():
    w = get_window("Z^2", 12)
    dec = components(w, 2)
    assert dec.outer_count == 1 and all(c.outer for c in dec.components)


def test_whole_window_at_r0():
    w = get_window("Z", 6)
    dec = components(w, 0)
    assert len(dec.components) == 1
    assert dec.components[0].size == len(w)


def test_components_parameter_errors():
    w = get_window("Z", 6)
    with pytest.raises(ParameterError):
        components(w, 6)
    with pytest.raises(ParameterError):
        components(w, -1)


def _window_pool():
    return [
        ("Z", 8, 1),
        ("Z^2", 5, 1),
        ("F2", 4, 1),
        ("C6", 6, 1),  # exhausted from r = 4 on
        ("(Z x C2)", 6, 1),
        ("(C2 * C2)", 8, 1),
        ("(C2 * C3)", 6, 1),
        ("Z", 6, 2),
        ("(Z x C2)", 4, 2),
    ]


def _oracle(window, r, steps):
    grp = window.group
    members = {g for g in window if window.knorm(g) >= r}
    return members, flood_partition(members, lambda x: [grp.mul(x, s) for s in steps])


def test_partition_laws_randomized():
    """Partition, no-cross-edge and oracle agreement over 1000 (spec, r) cases.

    Each case also checks the swept counts and tree against the oracle: the
    outer/inner counts end_count reports at r, and the tree's parent of
    every component at r.
    """
    rng = random.Random("partition-laws")
    pool = _window_pool()
    sweeps = {}
    cases = 0
    while cases < 1000:
        text, radius, power = rng.choice(pool)
        window = get_window(text, radius, power)
        grp = window.group
        if (text, radius, power) not in sweeps:
            gens = get_gens(text, power)
            sweeps[text, radius, power] = (
                end_count(grp, gens, radius - 1, window_radius=radius).evidence,
                component_tree(window, 0, radius - 1, margin=1),
            )
        evidence, tree = sweeps[text, radius, power]
        r = rng.randrange(0, radius)
        dec = components(window, r)
        members, want = _oracle(window, r, window.steps)
        seen = {}
        for idx, comp in enumerate(dec.components):
            for x in comp.elements:
                assert x not in seen  # pairwise disjoint
                seen[x] = idx
        assert set(seen) == members  # partition covers exactly
        steps = window.steps
        for x in members:  # no adjacency crosses components
            for s in steps:
                y = grp.mul(x, s)
                if y in members:
                    assert seen[y] == seen[x]
        assert {frozenset(c.elements) for c in dec.components} == want

        outer = sum(1 for part in want if any(window.knorm(x) == radius for x in part))
        if r >= 1 and evidence.exhausted_at is not None and r >= evidence.exhausted_at:
            assert not members and len(evidence.counts) == evidence.exhausted_at - 1
        elif r >= 1:
            row = evidence.counts[r - 1]
            assert (row.r, row.outer, row.inner) == (r, outer, len(want) - outer)

        level = tree.levels[r]
        assert [(n.size, n.outer) for n in level.nodes] == [
            (c.size, c.outer) for c in dec.components
        ]
        if r >= 1:
            coarser = components(window, r - 1)
            _, coarser_want = _oracle(window, r - 1, window.steps)
            assert {frozenset(c.elements) for c in coarser.components} == coarser_want
            for n in level.nodes:  # each component lies inside its parent
                inside = set(coarser.components[n.parent].elements)
                assert set(dec.components[n.id].elements) <= inside
        cases += 1
    assert cases == 1000


def test_step_set_must_be_closed_under_inverses():
    w = build_window(get_group("Z"), frozenset({(0,), (1,)}), 6)
    with pytest.raises(ParameterError, match="inverses"):
        components(w, 1)


LABEL_SPECS = ZOO + ["(Z * C2)", "(C2 * C4)"]


@pytest.mark.parametrize("power", [1, 2])
def test_labels_survive_window_growth(power):
    # every radius R up to 12 whose growth by ENLARGE_BY fits the cap: where
    # the R and R + 4 windows count as many components at r, each index names
    # the same set on both, once the grown set is cut to B(R). Only C6 at
    # R = 2, r = 1 counts differently there: its two components merge.
    cases, merged = 0, []
    for text in LABEL_SPECS:
        grp, gens = get_group(text), get_gens(text, power)
        for radius in range(1, 13):
            try:
                window = build_window(grp, gens, radius, cap=10_000, table=True)
                grown = window.at(radius + ENLARGE_BY)
            except WindowCapError:
                break
            for r in range(radius):
                dec, big = components(window, r), components(grown, r)
                sphere = {grp.show(g): g for g in window.sphere(r)}
                anchors = [c.least for c in dec.components]
                assert len(set(anchors)) == len(anchors)
                for c in dec.components:
                    assert sphere[c.least] in c.elements
                if len(big.components) != len(dec.components):
                    merged.append((text, radius, r))
                    continue
                for c, d in zip(dec.components, big.components):
                    assert set(c.elements) == {g for g in d.elements if g in window}, (
                        text, radius, r, c.least
                    )
                cases += 1
    assert merged == ([("C6", 2, 1)] if power == 1 else [])
    assert cases > 400


# ---------------------------------------------------------------------------
# Trees


def test_f2_tree_frozen():
    w = get_window("F2", 8)
    tree = component_tree(w, 1, 4)
    assert [len(lv.nodes) for lv in tree.levels] == [4, 12, 36, 108]
    assert tree.verdict == "Infinite"
    for lv_prev, lv in zip(tree.levels, tree.levels[1:]):
        children = {}
        for n in lv.nodes:
            assert n.parent is not None
            children[n.parent] = children.get(n.parent, 0) + 1
        assert set(children) == {n.id for n in lv_prev.nodes}
        assert all(v == 3 for v in children.values())


def test_z_tree_straight_chains():
    w = get_window("Z", 12)
    tree = component_tree(w, 1, 4)
    assert [len(lv.nodes) for lv in tree.levels] == [2, 2, 2, 2]
    for lv in tree.levels[1:]:
        assert [n.parent for n in lv.nodes] == [0, 1]
    assert tree.verdict == "Two"
    d = tree.to_json_dict()
    assert d["verdict"] == "Two"
    assert d["levels"][0]["r"] == 1
    assert set(d["levels"][0]["components"][0]) == {"id", "size", "outer", "parent"}


def test_exhausted_tree():
    w = get_window("C12", 20)
    tree = component_tree(w, 12, 12)
    assert tree.levels[0].nodes == ()
    assert tree.verdict == "Zero"


def test_tree_dot_output():
    w = get_window("Z", 10)
    tree = component_tree(w, 1, 2)
    dot = tree.to_dot()
    assert dot.startswith("digraph endtree {")
    assert dot.endswith("}")
    assert dot.count("->") == 2
    assert '"1:0:10"' in dot  # r=1, component 0, size 10


def test_tree_window_too_small():
    w = get_window("Z", 6)
    with pytest.raises(ParameterError):
        component_tree(w, 1, 4)


# ---------------------------------------------------------------------------
# Verdict classification


def test_classify_counts():
    assert classify_counts([2, 2, 2])[0] == "Two"
    assert classify_counts([1, 1, 1])[0] == "One"
    assert classify_counts([], exhausted=True)[0] == "Zero"
    verdict, anomaly, _ = classify_counts([5, 5, 5])
    assert verdict == "Undetermined" and "impossible" in anomaly
    verdict, _, growth = classify_counts([4, 12, 36])
    assert verdict == "Infinite" and growth is True
    assert classify_counts([0, 0, 0])[0] == "Undetermined"
    assert classify_counts([2, 2])[0] == "Undetermined"  # span not reached
    assert classify_counts([3, 2, 2, 2])[0] == "Two"  # only the tail matters
    assert classify_counts([1, 2, 1])[0] == "Undetermined"


def test_end_count_verdicts():
    expected = {
        "Z": "Two",
        "Z^2": "One",
        "C6": "Zero",
        "(Z x C2)": "Two",
        "(C2 * C2)": "Two",
        "(C2 * C3)": "Infinite",
    }
    for text, want in expected.items():
        verdict = end_count(get_group(text), get_gens(text), 5)
        assert verdict.verdict == want, text
        if want in ("One", "Two"):
            assert verdict.evidence.stable is True
            assert verdict.evidence.recheck_radius == 14 + 4
        if want == "Zero":
            assert verdict.evidence.exhausted_at is not None
        if want == "Infinite":
            assert verdict.evidence.growth_flag is True
            assert verdict.evidence.recheck_counts is None


def test_end_count_undetermined_on_large_finite_group():
    # window too small to exhaust C30, and no component reaches the boundary
    verdict = end_count(get_group("C30"), get_gens("C30"), 5, window_radius=14)
    assert verdict.verdict == "Undetermined"
    assert "window" in verdict.note


def test_end_count_evidence_json():
    verdict = end_count(get_group("Z"), get_gens("Z"), 4)
    d = verdict.to_json_dict()
    assert d["verdict"] == "Two"
    assert [row["outer"] for row in d["counts"]] == [2, 2, 2, 2]
    assert d["stable"] is True
    assert d["window_radius"] == 12


def test_end_count_parameter_errors():
    with pytest.raises(ParameterError):
        end_count(get_group("Z"), get_gens("Z"), 0)
    with pytest.raises(ParameterError):
        end_count(get_group("Z"), get_gens("Z"), 8, window_radius=8)
    # a span of 0 made the whole sequence its tail; a growth span of 1
    # certified Infinite from an empty run of comparisons
    for spans in [(0, 3), (-1, 3), (3, 1), (5, 0)]:
        with pytest.raises(ParameterError):
            end_count(get_group("Z^2"), get_gens("Z^2"), 4, *spans)


# ---------------------------------------------------------------------------
# Inner mass and clopen hooks


def test_bounded_mass_report():
    w = get_window("Z", 10)
    rep = bounded_mass_report(w, 2)
    assert (rep.count, rep.total_size, rep.max_norm) == (0, 0, -1)
    c6 = get_window("C6", 16)
    rep = bounded_mass_report(c6, 1)
    assert (rep.count, rep.total_size, rep.max_norm) == (1, 5, 3)


def test_union_component_clopen_check():
    w = get_window("Z", 12)
    dec = components(w, 1)
    rep = union_component_clopen_check(dec, [1], w)
    assert rep.verdict is True
    assert rep.rho <= 1 + 2  # r + 2*t*maxnorm(K)
    # all components: union is the complement of B(r-1); interface sits
    # inside the star of that ball
    rep_all = union_component_clopen_check(dec, range(len(dec.components)), w)
    ball_star = star(set(w.ball(0)), 1, w)
    assert set(rep_all.interface) <= ball_star
    with pytest.raises(ParameterError):
        union_component_clopen_check(dec, [7], w)


# ---------------------------------------------------------------------------
# Covering bound


def test_k4_bound_frozen_z():
    w = get_window("Z", 20)
    observed, m = k4_component_bound(w, set(w.ball(3)))
    assert (observed, m) == (2, 4)


def test_k4_bound_empty_l():
    w = get_window("Z", 10)
    assert k4_component_bound(w, set()) == (1, 0)


def test_k4_bound_f2():
    w = get_window("F2", 7)
    observed, m = k4_component_bound(w, set(w.ball(3)))
    assert observed == 12
    assert observed <= m


def test_k4_bound_requires_room():
    w = get_window("Z", 5)
    with pytest.raises(ParameterError):
        k4_component_bound(w, set(w.ball(4)))


def test_k4_bound_random_l():
    rng = random.Random("k4")
    for text, radius in [("Z", 12), ("(C2 * C3)", 7)]:
        w = get_window(text, radius)
        els = w.ball(radius - 2)
        for _ in range(25):
            L = set(rng.sample(els, rng.randrange(1, min(8, len(els)))))
            observed, m = k4_component_bound(w, L)  # raises if observed > m
            assert observed <= m
