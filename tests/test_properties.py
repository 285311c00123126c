"""Hypothesis properties for the algebra the seeded loops spot-check.

Windows are small and memoized; the suite profile derandomizes runs, so
these are as reproducible as the explicit loops but explore generated
edge cases (empty sets, full windows, degenerate count sequences).
"""

from operator import add, neg

import pytest
from hypothesis import given, strategies as st

from coarse_ends import (
    ParameterError,
    classify_counts,
    components,
    greedy_ball_cover,
    interface,
)
from helpers import get_gens, get_group, get_window
from oracles import maxnorm_of, reduce_word, show_free_word, star

WINDOWS = [("Z", 10), ("C6", 8), ("(C2 * C3)", 6), ("Z^2", 4)]


def _subset(text, radius):
    elements = tuple(get_window(text, radius))
    return st.sets(st.sampled_from(elements))


def _case():
    return st.sampled_from(WINDOWS)


@given(_case().flatmap(lambda c: st.tuples(st.just(c), _subset(*c), _subset(*c))))
def test_star_monotone_and_additive(data):
    (text, radius), A, B = data
    w = get_window(text, radius)
    sa = star(A, 1, w)
    sb = star(B, 1, w)
    assert star(A & B, 1, w) <= sa & sb
    assert star(A | B, 1, w) == sa | sb
    if A <= B:
        assert sa <= sb
    assert A <= sa  # the identity is a ratio of generators


@given(_case().flatmap(lambda c: st.tuples(st.just(c), _subset(*c))))
def test_interface_symmetric_in_complement(data):
    (text, radius), A = data
    w = get_window(text, radius, table=True)
    gens = set(get_gens(text))
    core = w.radius - 2 * maxnorm_of(w, gens)
    comp = set(w) - A
    left = interface(A, 1, w, core)
    right = interface(comp, 1, w, core)
    assert set(left.interface) == set(right.interface)
    assert left.rho == right.rho
    assert left.verdict == right.verdict


@given(_case(), st.integers(min_value=0, max_value=8))
def test_components_refine(case, r):
    text, radius = case
    r = min(r, radius - 2)
    w = get_window(text, radius, table=True)
    coarse = components(w, r)
    fine = components(w, r + 1)
    owner = {}
    for idx, comp in enumerate(coarse.components):
        for x in comp.elements:
            owner[x] = idx
    for comp in fine.components:
        parents = {owner[x] for x in comp.elements}
        assert len(parents) == 1  # each finer piece sits in one coarser piece


@given(
    _case().flatmap(lambda c: st.tuples(st.just(c), _subset(*c))),
    st.integers(min_value=0, max_value=2),
)
def test_greedy_cover_property(data, s):
    (text, radius), target = data
    w = get_window(text, radius)
    grp = w.group
    centers = greedy_ball_cover(w, target, s)
    assert len(centers) <= len(target)
    for u in target:
        assert any(
            (rel := grp.mul(grp.inv(c), u)) in w.norms and w.norms[rel] <= s
            for c in centers
        )


@given(
    st.lists(st.integers(min_value=0, max_value=5), max_size=8),
    st.booleans(),
    st.integers(min_value=-1, max_value=5),
    st.integers(min_value=0, max_value=5),
)
def test_classify_counts_total(counts, exhausted, stab_span, growth_span):
    if stab_span < 1 or growth_span < 2:
        with pytest.raises(ParameterError):
            classify_counts(counts, stab_span, growth_span, exhausted)
        return
    verdict, anomaly, growth = classify_counts(counts, stab_span, growth_span, exhausted)
    assert verdict in {"Zero", "One", "Two", "Infinite", "Undetermined"}
    if exhausted:
        assert verdict == "Zero"
        return
    assert verdict != "Zero"
    stab_tail = counts[-stab_span:]
    if verdict == "One":
        assert stab_tail == [1] * stab_span
    if verdict == "Two":
        assert stab_tail == [2] * stab_span
    if verdict == "Infinite":
        assert growth is True
        # a stable tail is classified first
        assert len(stab_tail) < stab_span or len(set(stab_tail)) > 1
        tail = counts[-growth_span:]
        assert len(tail) == growth_span
        assert all(a < b for a, b in zip(tail, tail[1:]))
    if len(stab_tail) == stab_span and len(set(stab_tail)) == 1 and stab_tail[0] >= 3:
        assert verdict == "Undetermined" and anomaly is not None


@given(st.lists(st.sampled_from("aAbB"), max_size=12))
def test_free_reduction_matches_oracle(letters):
    f2 = get_group("F2")
    x = f2.identity
    for sym in letters:
        x = f2.mul(x, sym)
    pairs = [(sym.lower(), 1 if sym.islower() else -1) for sym in letters]
    reduced = reduce_word(pairs)
    want = "".join(sym if e == 1 else sym.upper() for sym, e in reduced)
    assert x == want


# Free groups whose letters start at a, and one whose letters start at b
FREE = [("F2", None), ("F3", None), ("(C3 * F2)", "right")]


def _free_group(case):
    text, child = case
    grp = get_group(text)
    return getattr(grp, child) if child else grp


def _pairs(word):
    return [(c.lower(), 1 if c.islower() else -1) for c in word]


def _reduced(word):
    return "".join(c if e == 1 else c.upper() for c, e in reduce_word(_pairs(word)))


def _reduced_words(case):
    """Reduced words built from runs of one letter with exponents up to 4."""
    letters = _free_group(case).letters
    runs = st.lists(st.tuples(st.sampled_from(letters), st.integers(-4, 4)), max_size=6)

    return runs.map(lambda rs: _reduced("".join(c * e if e > 0 else c.upper() * -e for c, e in rs)))


@given(st.sampled_from(FREE).flatmap(lambda c: st.tuples(st.just(c), _reduced_words(c))))
def test_free_show_matches_reference(data):
    case, a = data
    assert _free_group(case).show(a) == show_free_word(a)


@given(
    st.sampled_from(FREE).flatmap(
        lambda c: st.tuples(st.just(c), _reduced_words(c), _reduced_words(c))
    )
)
def test_free_mul_matches_reduction(data):
    case, a, b = data
    grp = _free_group(case)
    assert grp.mul(a, b) == _reduced(a + b)
    assert grp.mul(a, grp.mul(grp.inv(a), b)) == b  # cancels all of a at the seam


# Free abelian ranks: each small rank, and one far above any in the zoo
RANKS = [*range(1, 9), 40]


def _vectors(rank):
    coords = st.lists(st.integers(-10**6, 10**6), min_size=rank, max_size=rank).map(tuple)
    return st.tuples(st.just(rank), coords, coords)


@given(st.sampled_from(RANKS).flatmap(_vectors))
def test_free_abelian_kernels_match_map(data):
    rank, a, b = data
    grp = get_group("Z" if rank == 1 else f"Z^{rank}")
    assert grp.mul(a, b) == tuple(map(add, a, b))
    assert grp.inv(a) == tuple(map(neg, a))
    assert type(grp.mul(a, b)) is tuple and type(grp.inv(a)) is tuple
