"""Acceptance suite: ten exact criteria, one printed verdict line each.

Every test prints exactly one line, "ACCEPTANCE n: PASS" or
"ACCEPTANCE n: FAIL", through the capture-disabled channel so the line
survives into piped pytest output. Tolerances are zero throughout; the
timed criteria assert their wall-clock budgets.
"""

import random
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

from coarse_ends import (
    asdim_upper_bound,
    build_annulus_cover,
    classify_counts,
    clopen_scale_test,
    component_tree,
    components,
    covering_number,
    end_count,
    estimate_delta,
    star,
    verify_cover,
)
from coarse_ends.cli import main as cli_main
from helpers import ZOO, get_gens, get_group, get_window, random_subset
from oracles import exact_covering_number, flood_partition, k4_component_bound, min_cover_size


@contextmanager
def check(n, capsys):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {n}: FAIL")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: PASS")


# ---------------------------------------------------------------------------


def test_acceptance_01_end_verdicts(capsys):
    with check(1, capsys):
        table = {
            "Z": ("Two", 6),
            "(Z x C2)": ("Two", 6),
            "(C2 * C2)": ("Two", 6),
            "Z^2": ("One", 6),
            "F2": ("Infinite", 3),
            "(C2 * C3)": ("Infinite", 5),
            "C6": ("Zero", 6),
        }
        for text, (want, rmax) in table.items():
            start = time.monotonic()
            verdict = end_count(get_group(text), get_gens(text), rmax)
            elapsed = time.monotonic() - start
            assert verdict.verdict == want, (text, verdict.verdict)
            assert elapsed < 30.0, (text, elapsed)
            if want == "Two":
                assert "infinite cyclic subgroup of finite index" in verdict.note
        # a stable outer count of three or more is never turned into a verdict
        for c in range(3, 8):
            assert classify_counts([c, c, c])[0] == "Undetermined"


def test_acceptance_02_component_counts(capsys):
    with check(2, capsys):
        def outer_counts(window, r):
            grp = window.group
            dec = components(window, r)
            members = {g for g, k in window.norms.items() if k >= r}
            steps = window.steps
            parts = flood_partition(
                members, lambda x: [grp.mul(x, s) for s in steps]
            )
            boundary = window.radius
            oracle = sum(
                1 for comp in parts if any(window.norms[x] == boundary for x in comp)
            )
            return dec.outer_count, oracle

        for r in range(1, 5):
            window = get_window("F2", 2 * r + 4)
            got, oracle = outer_counts(window, r)
            assert got == oracle == 4 * 3 ** (r - 1), r
        wz = get_window("Z", 16)
        wz2 = get_window("Z^2", 16)
        for r in range(1, 7):
            got, oracle = outer_counts(wz, r)
            assert got == oracle == 2, r
            got, oracle = outer_counts(wz2, r)
            assert got == oracle == 1, r


def test_acceptance_03_tree_laws(capsys):
    with check(3, capsys):
        tree = component_tree(get_window("F2", 8), 1, 4)
        for depth, level in enumerate(tree.levels):
            for node in level.nodes:
                if depth == 0:
                    assert node.parent is None
                else:
                    assert node.parent is not None  # exactly one parent
        for prev, level in zip(tree.levels, tree.levels[1:]):
            per_parent = {}
            for node in level.nodes:
                per_parent[node.parent] = per_parent.get(node.parent, 0) + 1
            assert set(per_parent) == {n.id for n in prev.nodes}
            assert all(v == 3 for v in per_parent.values())  # branching factor

        rng = random.Random("acceptance-3")
        pool = [
            ("Z", 8), ("Z^2", 5), ("F2", 4), ("C6", 6),
            ("(Z x C2)", 6), ("(C2 * C2)", 8), ("(C2 * C3)", 6),
        ]
        for _ in range(1000):
            text, radius = rng.choice(pool)
            window = get_window(text, radius)
            grp = window.group
            r = rng.randrange(0, radius)
            dec = components(window, r)
            members = {g for g, k in window.norms.items() if k >= r}
            seen = {}
            for idx, comp in enumerate(dec.components):
                for x in comp.elements:
                    assert x not in seen  # partition: pairwise disjoint
                    seen[x] = idx
            assert set(seen) == members  # partition: full coverage
            for x in members:
                for s in window.steps:
                    y = grp.mul(x, s)
                    if y in members:
                        assert seen[y] == seen[x]  # no cross edges


def test_acceptance_04_clopen_algebra(capsys):
    with check(4, capsys):
        def naive_star(grp, A, B):
            D = {grp.mul(grp.inv(b), c) for b in B for c in B}
            return {grp.mul(a, d) for a in A for d in D}

        for text, radius in [("Z", 10), ("Z^2", 5), ("F2", 4), ("(C2 * C3)", 5)]:
            window = get_window(text, radius)
            grp = window.group
            B = set(get_gens(text))
            core = window.radius - 2 * window.maxnorm_of(B)
            core_ball = set(window.ball(core))
            rng = random.Random(f"acceptance-4:{text}")
            for _ in range(1000):
                A1 = random_subset(window, rng)
                A2 = random_subset(window, rng)
                s1 = star(A1, 1, window)
                s2 = star(A2, 1, window)
                s12 = star(A1 & A2, 1, window)
                assert s12 <= s1 & s2  # intersection law
                # sandwich: exact product identity inside the core
                assert A1 & core_ball <= s1
                assert s1 & core_ball == naive_star(grp, A1, B) & core_ball

        wz = get_window("Z", 20)
        half = clopen_scale_test(wz, lambda w: {g for g in w if g[0] >= 1}, 4)
        assert half.verdict is True
        assert [e.rho for e in half.entries] == [2, 4, 6, 8]  # rho(t) = 2t
        evens = clopen_scale_test(wz, lambda w: {g for g in w if g[0] % 2 == 0}, 4)
        assert evens.verdict is False


def test_acceptance_05_component_covering_bound(capsys):
    with check(5, capsys):
        start = time.monotonic()
        for text, radius in [("Z", 20), ("F2", 7), ("(C2 * C3)", 7)]:
            window = get_window(text, radius)
            for b in (1, 2, 3):
                observed, m = k4_component_bound(window, set(window.ball(b)))
                assert observed <= m, (text, b)
        wz = get_window("Z", 20)
        assert k4_component_bound(wz, set(wz.ball(3))) == (2, 4)
        wf = get_window("F2", 7)
        assert k4_component_bound(wf, set(wf.ball(3))) == (12, 112)
        assert time.monotonic() - start < 60.0


def test_acceptance_06_asdim_witness(capsys):
    with check(6, capsys):
        start = time.monotonic()
        wz = get_window("Z", 14)
        witness_z = asdim_upper_bound(wz)
        assert witness_z.n2delta == 2
        assert witness_z.bound == 3
        for witness in (witness_z, asdim_upper_bound(get_window("F2", 10), n_list=[2, 3])):
            assert witness.bound == 2 * witness.n2delta - 1
            ps = witness.p * witness.s
            for st in witness.annuli:
                assert st.max_diameter <= 8 * ps  # diameter law
                assert st.multiplicity <= witness.n2delta  # ps-ball law
                assert st.passed
            assert witness.cross_multiplicity <= 2 * witness.n2delta
        # independent diameter re-scan of one Z annulus
        cover = build_annulus_cover(wz, 2, 1, 1)
        grp = wz.group
        for members in cover.sets:
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    rel = grp.mul(grp.inv(members[i]), members[j])
                    assert wz.norms[rel] <= 8
        stats = verify_cover(cover, 1, 2)
        assert stats.passed and stats.max_diameter == 1
        assert time.monotonic() - start < 120.0


def test_acceptance_07_hyperbolicity_diagnostic(capsys):
    with check(7, capsys):
        grid = [estimate_delta(get_window("Z^2", r)) for r in (4, 6, 8)]
        assert grid[0] < grid[1] < grid[2]
        assert estimate_delta(get_window("Z", 8)) == 0
        assert estimate_delta(get_window("F2", 6)) == 0
        code = cli_main(["asdim", "--group", "Z^2", "--window", "8"])
        assert code == 4


def test_acceptance_08_growth_covering(capsys):
    with check(8, capsys):
        assert covering_number(get_window("Z", 10), 5, 4) == 2
        wf = get_window("F2", 8)
        values = {covering_number(wf, S, 2) for S in (3, 4, 5)}
        assert len(values) == 1  # constant across S

        def oracle(window, S, t):
            grp = window.group
            target = set(window.ball(S + t))
            ball = window.ball(min(S, window.radius))
            candidates = []
            for c in window.ball(min(2 * S + t, window.radius)):
                hit = frozenset(y for v in ball if (y := grp.mul(c, v)) in target)
                if hit:
                    candidates.append(hit)
            return min_cover_size(frozenset(target), candidates)

        instances = 0
        for text in ZOO:
            window = get_window(text, 8 if text != "F2" else 6)
            for S in (1, 2, 3):
                for t in (1, 2, 3):
                    if S + t > window.radius:
                        continue
                    if len(window.ball(S + t)) > 18:
                        continue
                    exact = exact_covering_number(window, S, t)
                    assert covering_number(window, S, t) >= exact  # greedy >= exact
                    assert exact == oracle(window, S, t)
                    instances += 1
        assert instances >= 20


def test_acceptance_09_determinism(capsys):
    with check(9, capsys):
        commands = [
            ["ends", "--group", "Z", "--rmax", "4"],
            ["tree", "--group", "Z", "--rmax", "3", "--format", "dot"],
            ["clopen", "--group", "Z", "--window", "12", "--tmax", "2",
             "--select", "component:r=1:index=1"],
            ["growth", "--group", "(C2 * C3)", "--window", "6", "--format", "csv"],
            ["asdim", "--group", "Z", "--seed", "7"],
        ]

        def spawn(argv):
            return subprocess.run(
                [sys.executable, "-m", "coarse_ends"] + argv,
                capture_output=True,
                timeout=120,
            )

        first = [spawn(argv) for argv in commands]
        second = [spawn(argv) for argv in commands]
        with ThreadPoolExecutor(max_workers=len(commands)) as pool:
            parallel = list(pool.map(spawn, commands))
        for a, b, c in zip(first, second, parallel):
            assert a.returncode == b.returncode == c.returncode == 0
            assert a.stdout == b.stdout == c.stdout
            assert a.stdout


def test_acceptance_10_window_stability(capsys):
    with check(10, capsys):
        finite_verdicts = {
            "Z": "Two",
            "Z^2": "One",
            "C6": "Zero",
            "(Z x C2)": "Two",
            "(C2 * C2)": "Two",
        }
        for text, want in finite_verdicts.items():
            group, gens = get_group(text), get_gens(text)
            base = end_count(group, gens, 4, window_radius=12)
            wider = end_count(group, gens, 4, window_radius=16)
            assert base.verdict == wider.verdict == want, text

        half_fn = lambda w: {g for g in w if g[0] >= 1}
        cert_a = clopen_scale_test(get_window("Z", 16), half_fn, 3)
        cert_b = clopen_scale_test(get_window("Z", 20), half_fn, 3)
        assert cert_a.verdict is cert_b.verdict is True
        assert [e.rho for e in cert_a.entries] == [e.rho for e in cert_b.entries]

        def component_fn(w):
            return set(components(w, 1).components[1].elements)

        cert_c = clopen_scale_test(get_window("(C2 * C3)", 10), component_fn, 2)
        cert_d = clopen_scale_test(get_window("(C2 * C3)", 14), component_fn, 2)
        assert cert_c.verdict is cert_d.verdict is True
        assert [e.rho for e in cert_c.entries] == [e.rho for e in cert_d.entries]

        evens_fn = lambda w: {g for g in w if g[0] % 2 == 0}
        fail_a = clopen_scale_test(get_window("Z", 16), evens_fn, 3)
        fail_b = clopen_scale_test(get_window("Z", 20), evens_fn, 3)
        assert fail_a.verdict is fail_b.verdict is False
