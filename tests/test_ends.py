"""Component decompositions, end trees, verdicts, and the covering bound."""

import json
import math
import random

import pytest

from coarse_ends import (
    DEFAULT_CAP,
    ParameterError,
    Window,
    WindowCapError,
    build_window,
    classify_counts,
    component_tree,
    components,
    end_count,
    interface,
)
from coarse_ends.cayley import ENLARGE_BY
from coarse_ends.cli import main
from coarse_ends.ends import _UnionFind, sphere_guard
from helpers import ZOO, get_gens, get_group, get_window
from oracles import (
    bounded_mass_report,
    finite_diameter,
    flood_partition,
    k4_component_bound,
    spec_ends,
    star,
    union_component_clopen_check,
)


# ---------------------------------------------------------------------------
# Decompositions


def test_z_components_frozen():
    w = get_window("Z", 10, table=True)
    dec = components(w, 2)
    assert dec.outer_count == 2 and all(c.outer for c in dec.components)
    assert sorted(c.size for c in dec.components) == [9, 9]
    assert all(c.outer for c in dec.components)
    # deterministic indexing by the least printed element of sphere 2
    assert dec.components[0].least == "(-2)"
    assert dec.components[1].least == "(2)"


def test_f2_components_frozen():
    w = get_window("F2", 8, table=True)
    dec = components(w, 2)
    assert dec.outer_count == 12 and all(c.outer for c in dec.components)


def test_z2_components_frozen():
    w = get_window("Z^2", 12, table=True)
    dec = components(w, 2)
    assert dec.outer_count == 1 and all(c.outer for c in dec.components)


def test_whole_window_at_r0():
    w = get_window("Z", 6, table=True)
    dec = components(w, 0)
    assert len(dec.components) == 1
    assert dec.components[0].size == len(w)


def test_components_parameter_errors():
    w = get_window("Z", 6, table=True)
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
        # an odd-order factor: steps of parity 0, so every sphere has internal
        # edges, and the root that add tracks must follow the winner of each union
        ("(Z x C3)", 6, 1),
        ("Z", 6, 2),
        ("(Z x C2)", 4, 2),
        # a free window with parity-0 steps (a*b, a^2, ...); radius 4 (13,121
        # elements) would make the oracle floods here about 90 times slower
        ("F2", 3, 2),
    ]


def _oracle(window, r, steps):
    grp = window.group
    members = {g for g in window if window.knorm(g) >= r}
    return members, flood_partition(members, lambda x: [grp.mul(x, s) for s in steps])


def test_partition_laws_randomized():
    """Partition, no-cross-edge and oracle agreement over 1000 (spec, r) cases.

    Each case also checks the swept counts and tree against the oracle: the
    outer/inner counts end_count reports at r, and the tree's parent of
    every component at r. Once per window, the sweep's components of the
    outer sphere alone, added first, are checked too.
    """
    rng = random.Random("partition-laws")
    pool = _window_pool()
    sweeps = {}
    cases = 0
    while cases < 1000:
        text, radius, power = rng.choice(pool)
        window = get_window(text, radius, power, table=True)
        grp = window.group
        if (text, radius, power) not in sweeps:
            uf = _UnionFind(window)
            uf.add(radius)
            _, rim = _oracle(window, radius, window.steps)
            assert uf.count == uf.outer == len(rim), text
            sweeps[text, radius, power] = (
                end_count(window, radius - 1).evidence,
                component_tree(window, 0, radius - 1),
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


class _CountingColumn:
    """A table column that records every row read from it."""

    def __init__(self, col, rows):
        self.col, self.rows = col, rows

    def __getitem__(self, i):
        self.rows.add(i)
        return self.col[i]


@pytest.mark.parametrize(
    "text, radius, power, odd",
    [
        ("F2", 5, 1, True),
        ("Z^2", 6, 1, True),
        ("Z^3", 5, 1, True),
        ("(Z x C2)", 6, 1, True),
        ("(Z x C3)", 6, 1, False),
        ("(C2 * C3)", 8, 1, False),
        ("F2", 3, 2, False),
    ],
)
def test_outer_sphere_reads_no_row_when_every_step_is_odd(text, radius, power, odd):
    # with every step of parity 1 no edge stays on the outer sphere, which
    # the sweep adds first: its ids become singletons and none of its rows
    # is read. A parity-0 step can join two of them, so their rows are read.
    window = build_window(get_group(text), get_gens(text, power), radius, table=True)
    assert window.odd_steps is odd
    rows = set()
    counting = tuple(_CountingColumn(c, rows) for c in window.neighbours())
    window.neighbours = lambda: counting
    uf = _UnionFind(window)
    uf.add(radius)
    outer = set(range(window.offsets[radius], len(window)))
    assert rows == (set() if odd else outer)
    for r in range(radius - 1, 0, -1):
        uf.add(r)
    inner = set(range(window.offsets[1], window.offsets[radius]))
    assert rows == (inner if odd else inner | outer)


def test_step_set_must_be_closed_under_inverses():
    # the sweep reads right neighbours only, so it needs the steps' inverses;
    # a table window of a one-way step set is refused when it is built
    with pytest.raises(ParameterError, match="not closed under inverses"):
        build_window(get_group("Z"), frozenset({(0,), (1,)}), 6, table=True)


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
    w = get_window("F2", 8, table=True)
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
    w = get_window("Z", 12, table=True)
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
    w = get_window("C12", 20, table=True)
    tree = component_tree(w, 12, 12)
    assert tree.levels[0].nodes == ()
    assert tree.verdict == "Zero"


def test_tree_dot_output():
    w = get_window("Z", 10, table=True)
    tree = component_tree(w, 1, 2)
    dot = tree.to_dot()
    assert dot.startswith("digraph endtree {")
    assert dot.endswith("}")
    assert dot.count("->") == 2
    assert '"1:0:10"' in dot  # r=1, component 0, size 10


def test_tree_window_too_small():
    # the bound end_count keeps: r_max < R
    w = get_window("Z", 6, table=True)
    assert len(component_tree(w, 1, 5).levels) == 5
    for r_max in (6, 7):
        with pytest.raises(ParameterError, match="smaller than the window radius 6"):
            component_tree(w, 1, r_max)


# ---------------------------------------------------------------------------
# Verdict classification


def _ends(text, r_max, *spans, radius=None, cap=DEFAULT_CAP):
    """end_count on the table window the ends command builds, of radius
    2 r_max + 4 unless given."""
    radius = 2 * r_max + 4 if radius is None else radius
    window = build_window(get_group(text), get_gens(text), radius, cap, table=True)
    return end_count(window, r_max, *spans)


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
        verdict = _ends(text, 5)
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
    verdict = _ends("C30", 5, radius=14)
    assert verdict.verdict == "Undetermined"
    assert "window" in verdict.note


def test_end_count_evidence_json():
    verdict = _ends("Z", 4)
    d = verdict.to_json_dict()
    assert d["verdict"] == "Two"
    assert [row["outer"] for row in d["counts"]] == [2, 2, 2, 2]
    assert d["stable"] is True
    assert d["window_radius"] == 12


def test_end_count_parameter_errors():
    with pytest.raises(ParameterError):
        _ends("Z", 0)
    with pytest.raises(ParameterError):
        _ends("Z", 8, radius=8)
    # a span of 0 made the whole sequence its tail; a growth span of 1
    # certified Infinite from an empty run of comparisons
    for spans in [(0, 3), (-1, 3), (3, 1), (5, 0)]:
        with pytest.raises(ParameterError):
            _ends("Z^2", 4, *spans)


def test_neighbour_readers_refuse_a_plain_window(monkeypatch):
    # only a table search writes the generator table: every reader of
    # neighbours refuses a plain window, and none searches for a table
    window = get_window("Z^2", 10)
    calls = []
    for name in ("_search", "_search_table"):
        monkeypatch.setattr(Window, name, lambda *args, name=name: calls.append(name))
    readers = [
        lambda: end_count(window, 3),
        lambda: components(window, 1),
        lambda: component_tree(window, 1, 3),
        lambda: interface({(1, 0)}, 1, window, 4),
    ]
    for read in readers:
        with pytest.raises(ParameterError, match="table=True"):
            read()
    assert calls == []


@pytest.mark.parametrize("text", ZOO)
def test_end_count_reads_a_plain_window_as_a_table_window(text):
    # end_count refuses a plain window; the table window of the same
    # arguments has the plain window's order, and so its ids, and reads a
    # verdict that the closed form allows
    grp, gens = get_group(text), get_gens(text)
    plain = build_window(grp, gens, 10)
    with pytest.raises(ParameterError, match="table=True"):
        end_count(plain, 3)
    table = build_window(plain.group, plain.gens, plain.radius, plain.cap, table=True)
    assert (table.elements, table.offsets, table.norms) == (plain.elements, plain.offsets, plain.norms)
    assert table.ids == plain.ids
    verdict = end_count(table, 3).verdict
    assert verdict in (_VERDICT_OF[spec_ends(grp.spec)], "Undetermined"), text


def test_end_count_searches_a_plain_window_as_a_table_window(monkeypatch):
    # end_count on a plain window runs no table search; the table window of
    # its arguments is one table search of B(R), which the recheck
    # continues to B(R + 4)
    search = Window._search_table
    calls = []

    def record(self, elements, norms, offsets, radius):
        calls.append((len(offsets) - 2, radius))  # (radius searched from, radius)
        return search(self, elements, norms, offsets, radius)

    monkeypatch.setattr(Window, "_search_table", record)
    plain = build_window(get_group("Z^3"), get_gens("Z^3"), 10)
    with pytest.raises(ParameterError, match="table=True"):
        end_count(plain, 3)
    assert calls == []
    table = build_window(plain.group, plain.gens, plain.radius, plain.cap, table=True)
    assert end_count(table, 3).verdict == "One"
    assert calls == [(0, 10), (10, 10 + ENLARGE_BY)]


def test_end_count_recheck_grows_under_the_window_cap():
    # |B(12)| = 313 fits a cap of 400 and |B(16)| = 545 does not; the One
    # candidate's recheck window stops where B(14) = 421 passes the cap
    window = build_window(get_group("Z^2"), get_gens("Z^2"), 12, 400, table=True)
    with pytest.raises(WindowCapError) as err:
        end_count(window, 4)
    assert (err.value.cap, err.value.radius_reached) == (400, 13)


def test_sphere_guard():
    assert sphere_guard("One", [1, 4, 8, 8, 8], [1, 4, 8, 8, 8, 8, 8])
    assert sphere_guard("One", [1, 4, 8, 8, 8], [1, 4, 8, 9, 9, 10, 10]) is None
    assert sphere_guard("One", [1, 4, 8, 12, 16], [1, 4, 8, 12, 16, 20, 24]) is None
    assert sphere_guard("Two", [1, 4, 8, 12], [1, 4, 8, 12, 16]) is not None
    assert sphere_guard("Two", [1, 4, 8, 12], [1, 4, 8, 12, 12]) is None
    assert sphere_guard("Two", [1, 2, 2, 2], [1, 2, 2, 2, 2]) is None
    assert "linearly" in sphere_guard("Infinite", [1, 3, 4, 4, 4])
    assert sphere_guard("Infinite", [1, 3, 4, 6, 8]) is None
    assert sphere_guard("Zero", [1, 2, 2, 2]) is None
    assert sphere_guard("Undetermined", [1, 2, 2, 2]) is None
    assert sphere_guard("One", [1, 2]) is None  # fewer than three radii read
    assert sphere_guard("One") is None  # no window read


@pytest.mark.parametrize(
    "text, r_max",
    [
        ("(Z x C8)", 4),
        ("(Z x C6)", 3),
        ("((C4 x C2) x Z)", 3),
        ("((C2 * C2) x C8)", 3),
        ("(Z x C12)", 5),
        ("(Z x C12)", 6),
    ],
)
def test_sphere_guard_refuses_one_for_two_ended(text, r_max):
    # up to the diameter of the finite factor, an element of it joins the two
    # sides, so the counts read 1 at every radius and on the recheck too
    verdict = _ends(text, r_max)
    assert [c.outer for c in verdict.evidence.counts] == [1] * r_max
    assert verdict.evidence.stable is True
    assert verdict.verdict == "Undetermined" and "sphere sizes" in verdict.note
    tree = component_tree(get_window(text, 2 * r_max + 4, table=True), 1, r_max)
    assert tree.verdict == "Undetermined"


def test_sphere_guard_keeps_verdicts():
    assert _ends("(Z x C8)", 8).verdict == "Two"
    # the guard's limit: below r = 20 the spheres of (Z x C40) grow as Z^2's do
    for r_max in (4, 8):
        assert _ends("(Z x C40)", r_max).verdict == "One"


@pytest.mark.parametrize(
    "text, r_max",
    [
        ("(C10 x (C2 * C3))", 4),
        ("((C8 x C1) x (C3 * C2))", 4),
        ("((C2 x C8) x (C2 * C3))", 4),
        ("(C6 x (C3 * C3))", 3),
    ],
)
def test_rows_past_r_max_refuse_one(text, r_max):
    # virtually free, so infinitely many ends; up to the diameter of the finite
    # factor an element of it joins every branch, so rows 1..r_max read 1 and
    # survive the recheck. Its spheres grow, so the sphere guard passes them,
    # but a row past r_max, up to R - 4, reads the branches apart.
    assert spec_ends(get_group(text).spec) == math.inf
    verdict = _ends(text, r_max)
    assert [c.outer for c in verdict.evidence.counts] == [1] * r_max
    assert verdict.evidence.stable is True
    assert verdict.verdict == "Undetermined" and f"at r_max={r_max} but" in verdict.note


def test_tree_verdict_is_the_ends_verdict(capsys):
    """tree and ends give the same exit code and verdict for the same flags,
    over 80 seeded specs of depth <= 2 at r_max 3 and 4, and a group of
    order 256 and diameter 10: the radius-10 window holds it with a nonempty
    outer sphere, so only the recheck tells it finite."""
    rng = random.Random("tree-agrees-with-ends")
    cases = [(_random_spec(rng, 2), str(r_max)) for _ in range(80) for r_max in (3, 4)]
    cases.append(("((C8 * C1) x (C4 x C8))", "3"))
    seen = []
    for text, r_max in cases:
        got = []
        for command in ("ends", "tree"):
            code = main([command, "--group", text, "--rmax", r_max, "--cap", "3000"])
            out = capsys.readouterr().out
            got.append((code, json.loads(out)["result"]["verdict"] if out else None))
        assert got[0] == got[1], (text, r_max)
        seen.append(got[0])
    assert seen[-1] == (3, "Undetermined")
    assert {"Zero", "One", "Two", "Undetermined"} <= {verdict for _, verdict in seen}


def test_spec_ends_closed_form():
    want = {
        "C1": 0,
        "C6": 0,
        "(C2 x C3)": 0,
        "(C1 * C1)": 0,
        "Z": 2,
        "F1": 2,
        "(Z x C2)": 2,
        "(C2 * C2)": 2,
        "((C2 x C1) * (C1 x C2))": 2,
        "(Z * C1)": 2,
        "Z^2": 1,
        "(Z x F2)": 1,
        "F2": math.inf,
        "(C2 * C3)": math.inf,
        "(Z * C2)": math.inf,
    }
    assert {text: spec_ends(get_group(text).spec) for text in want} == want
    assert [finite_diameter(get_group(t).spec) for t in ("(Z x C8)", "((C4 x Z) x C3)")] == [4, 3]


_VERDICT_OF = {0: "Zero", 1: "One", 2: "Two", math.inf: "Infinite"}
# C6 and C8 make finite factors wider than the radii read common in the draw
_LEAVES = ["Z", "Z^2", "F2", "C1", "C2", "C3", "C4", "C6", "C8"]


def _random_spec(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(_LEAVES)
    return f"({_random_spec(rng, depth - 1)} {rng.choice('x*')} {_random_spec(rng, depth - 1)})"


def test_end_count_against_closed_form():
    """Over 200 seeded random specs of depth <= 2, at r_max 3 and 4, every
    end_count verdict is Undetermined, capped, or the spec's end count; a
    finite group whose diameter is below the window radius reads Zero.

    The draw keeps to specs whose finite part has Cayley diameter at most
    R / 2 for the window radius R = 2 r_max + 4: the guard reads the three
    outermost spheres, and a wider finite factor, like C40's in (Z x C40),
    gives a virtually-Z group spheres that still grow there.
    """
    rng = random.Random("spec-ends")
    read = refused = finite = 0
    for _ in range(200):
        text = _random_spec(rng, 2)
        spec = get_group(text).spec
        for r_max in (3, 4):
            if 2 * finite_diameter(spec) > 2 * r_max + 4:
                continue
            try:
                verdict = _ends(text, r_max, cap=3000)
            except WindowCapError:
                continue
            read += 1
            if spec_ends(spec) == 0 and finite_diameter(spec) < 2 * r_max + 4:
                # the window holds the whole group: its outer sphere is empty
                assert verdict.verdict == "Zero", (text, r_max)
                finite += 1
            if verdict.verdict == "Undetermined":
                refused += "sphere sizes" in verdict.note
                continue
            assert verdict.verdict == _VERDICT_OF[spec_ends(spec)], (text, r_max)
    assert read > 150 and refused > 0 and finite > 0


# ---------------------------------------------------------------------------
# Inner mass and clopen hooks


def test_bounded_mass_report():
    w = get_window("Z", 10, table=True)
    rep = bounded_mass_report(w, 2)
    assert (rep.count, rep.total_size, rep.max_norm) == (0, 0, -1)
    c6 = get_window("C6", 16, table=True)
    rep = bounded_mass_report(c6, 1)
    assert (rep.count, rep.total_size, rep.max_norm) == (1, 5, 3)


def test_union_component_clopen_check():
    w = get_window("Z", 12, table=True)
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
