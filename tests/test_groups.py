"""Group arithmetic, printing, parsing, and generator sets."""

import inspect
import random
import re

import pytest
from hypothesis import given, strategies as st

from coarse_ends import (
    Cyclic,
    DirectProduct,
    ElementSyntaxError,
    Free,
    FreeAbelian,
    FreeProduct,
    Group,
    MismatchError,
    OutOfWindowError,
    SpecSyntaxError,
    UnsupportedSpecError,
    WindowCapError,
    build_window,
    parse_spec,
    power_generators,
    spec_to_string,
    standard_generators,
)
from helpers import ZOO, get_group, get_window, nested_specs, random_element
from oracles import SyllableGroup, reduce_word, show_free_word, validate


# ---------------------------------------------------------------------------
# Spec grammar


def test_parse_spec_shapes():
    assert parse_spec("Z") == FreeAbelian(1)
    assert parse_spec("Z^3") == FreeAbelian(3)
    assert parse_spec("F2") == Free(2)
    assert parse_spec("C12") == Cyclic(12)
    assert parse_spec("(Z x C2)") == DirectProduct(FreeAbelian(1), Cyclic(2))
    assert parse_spec("(C2 * C3)") == FreeProduct(Cyclic(2), Cyclic(3))
    assert parse_spec("((Z x C2) * F2)") == FreeProduct(
        DirectProduct(FreeAbelian(1), Cyclic(2)), Free(2)
    )
    # whitespace between tokens is free
    assert parse_spec("  ( Z x C2 )  ") == parse_spec("(Z x C2)")


def test_spec_to_string_roundtrip():
    for text in ZOO + ["Z^5", "((C2 * C3) x Z)", "(F2 * (Z x Z))"]:
        spec = parse_spec(text)
        canonical = spec_to_string(spec)
        assert parse_spec(canonical) == spec


def test_specs_keep_their_family():
    # a spec is a named tuple, yet it equals, and hashes into a set with, only
    # a spec of its own family, although Free(2) and FreeAbelian(2) are both (2,)
    leaves = [(Free(2), FreeAbelian(2)), (Cyclic(2), Free(2)), (Cyclic(2), FreeAbelian(2))]
    nodes = [
        (DirectProduct(Free(1), Cyclic(2)), FreeProduct(Free(1), Cyclic(2))),
        (DirectProduct(Free(2), Cyclic(2)), DirectProduct(FreeAbelian(2), Cyclic(2))),
    ]
    for a, b in leaves:
        assert tuple(a) == tuple(b) == (2,)
    for a, b in leaves + nodes:
        assert a != b and b != a and not a == b
        assert len({a, b}) == 2 and {a: 1}.get(b) is None
        assert a != tuple(a) and tuple(a) != a
    for text in ZOO:
        a, b = parse_spec(text), parse_spec(text)
        assert a == b and not a != b and hash(a) == hash(b)
    for family in (Free, FreeAbelian, Cyclic):
        with pytest.raises(ValueError, match="must be at least 1"):
            family(0)
        with pytest.raises(AttributeError):
            setattr(family(1), family._fields[0], 2)


@pytest.mark.parametrize(
    "bad,offset",
    [
        ("", 0),
        ("Q", 0),
        ("Z^", 2),
        ("Z^0", 2),
        ("F0", 1),
        ("C", 1),
        ("(Z x Z", 6),
        ("(Z + Z)", 3),
        ("Z junk", 2),
    ],
)
def test_parse_spec_errors(bad, offset):
    with pytest.raises(SpecSyntaxError) as exc:
        parse_spec(bad)
    assert exc.value.offset == offset


def test_spec_nesting_depth_is_bounded():
    def nested(depth):
        return "(Z * " * depth + "Z" + ")" * depth

    assert spec_to_string(parse_spec(nested(64))) == nested(64)
    for depth in (65, 600):
        with pytest.raises(SpecSyntaxError) as exc:
            parse_spec(nested(depth))
        assert exc.value.offset == 64 * len("(Z * ")


def test_letter_budget():
    # 25 letters: a to z without e, which prints the identity
    text = "C2"
    for _ in range(24):
        text = f"({text} x C2)"
    Group(parse_spec(text))
    with pytest.raises(UnsupportedSpecError, match="more than 25 generator letters"):
        Group(parse_spec(f"({text} x C2)"))
    assert "e" not in Group(parse_spec("(F3 x F22)")).right.letters


# ---------------------------------------------------------------------------
# Pinned printed forms


def test_identity_prints_e():
    for text in ZOO:
        grp = get_group(text)
        assert grp.show(grp.identity) == "e"
        assert grp.parse("e") == grp.identity


def test_pinned_forms():
    z2 = get_group("Z^2")
    assert z2.show((3, -1)) == "(3,-1)"
    assert z2.parse("(3,-1)") == (3, -1)

    fp = get_group("(C2 * C3)")
    g = fp.parse("a.b2.a")
    assert fp.show(g) == "a.b2.a"

    f2 = get_group("F2")
    assert f2.show("aaBa") == "a2b-1a"
    assert f2.parse("a2b-1a") == "aaBa"

    c6 = get_group("C6")
    assert c6.show(2) == "a2"
    assert c6.show(1) == "a"

    d = get_group("(Z x C2)")
    assert d.show(((3,), 1)) == "((3),a)"
    assert d.parse("((3),a)") == ((3,), 1)


@pytest.mark.parametrize("text", ["F5", "(F2 x F3)", "((C2 x C3) x (C4 x (C2 x C5)))"])
def test_printed_forms_are_injective(text):
    # the fifth letter is f, not e, which prints the identity
    grp = Group(parse_spec(text))
    window = build_window(grp, standard_generators(grp), 2)
    shown = [grp.show(g) for g in window]
    assert len(set(shown)) == len(shown)
    for g, form in zip(window, shown):
        assert grp.parse(form) == g


@given(nested_specs(2), st.sampled_from([1, 2]))
def test_show_many_matches_show_on_windows(text, power):
    grp = Group(parse_spec(text))
    gens = standard_generators(grp)
    if power > 1:
        gens = power_generators(grp, gens, power)
    try:
        window = build_window(grp, gens, 3, 300)
    except WindowCapError as err:
        window = build_window(grp, gens, err.radius_reached, 300)
    items = list(window)  # the identity first
    assert grp.show_many(items) == [grp.show(g) for g in items]
    assert grp.sort_printed(items) == sorted(items, key=grp.show)


def _reduced_word(rng, letters, runs):
    """A reduced free word of the given number of runs, each 1 to 25 long."""
    word, last = "", None
    for _ in range(runs):
        c = rng.choice([x for x in letters if x != last])
        last = c
        word += (c if rng.random() < 0.5 else c.upper()) * rng.randint(1, 25)
    return word


@pytest.mark.parametrize("text", ["F2", "F3"])
def test_show_many_matches_show_on_long_runs(text):
    grp = get_group(text)
    rng = random.Random(25)
    for _ in range(40):
        words = [_reduced_word(rng, grp.letters, rng.randint(0, 6)) for _ in range(rng.randint(1, 30))]
        shown = grp.show_many(words)
        assert shown == [grp.show(w) for w in words]
        assert shown == [show_free_word(w) for w in words]
        assert [grp.parse(form) for form in shown] == words


def test_show_many_edge_batches():
    f2 = get_group("F2")
    assert f2.show_many([]) == []
    assert f2.show_many([""]) == ["e"]
    assert f2.show_many(["aaB"]) == ["a2b-1"]
    assert f2.show_many(["B", "", "bbbbbbbbbbbbbbb"]) == ["b-1", "e", "b15"]
    z2 = get_group("Z^2")
    assert z2.show_many([]) == []
    assert z2.show_many([(0, 0), (3, -1)]) == ["e", "(3,-1)"]


def test_tagged_free_product_forms():
    grp = Group(parse_spec("((Z x C2) * C3)"))
    # left factor is a direct product, so syllables carry side markers
    g = grp.parse("<((1),e).>b")
    assert grp.show(g) == "<((1),e).>b"
    assert grp.mul(g, grp.inv(g)) == grp.identity


def test_parse_normalizes():
    fp = get_group("(C2 * C3)")
    assert fp.parse("a.a") == fp.identity
    assert fp.parse("b3") == fp.identity
    assert fp.parse("a.b.b") == fp.parse("a.b2")
    f2 = get_group("F2")
    assert f2.parse("abB") == "a"
    assert f2.parse("a-2") == "AA"


def test_element_syntax_errors():
    z = get_group("Z")
    for bad in ["", "3", "(1,2)", "(x)"]:
        with pytest.raises(ElementSyntaxError):
            z.parse(bad)
    c6 = get_group("C6")
    with pytest.raises(ElementSyntaxError):
        c6.parse("q2")
    fp = get_group("(C2 * C3)")
    with pytest.raises(ElementSyntaxError):
        fp.parse("a..b")
    with pytest.raises(ElementSyntaxError):
        fp.parse("z")
    d = get_group("(Z x C2)")
    with pytest.raises(ElementSyntaxError):
        d.parse("((1)a)")


def test_free_runs_are_reduced_before_they_are_spelled():
    f2 = get_group("F2")
    # a cancelling spelling parses whatever its runs' lengths
    assert f2.parse("a5A5", 4) == f2.identity
    assert f2.parse("a3b9B9a", 4) == "aaaa"
    assert f2.parse("a99999999999999999999a-99999999999999999999b") == "b"
    # a run too long to spell is a syntax error, not an OverflowError
    with pytest.raises(ElementSyntaxError, match="exponent too large"):
        f2.parse("a99999999999999999999")
    # a reduced word longer than the limit is refused before it is spelled
    with pytest.raises(OutOfWindowError, match="spells 10000000000 letters, more than 4"):
        f2.parse("a10000000000", 4)
    with pytest.raises(OutOfWindowError):
        f2.parse("a3b2", 4)
    # the limit reaches the free words inside products; other families ignore it
    assert get_group("(F2 x Z)").parse("(a2,(99))", 2) == ("aa", (99,))
    with pytest.raises(OutOfWindowError):
        get_group("(F2 x Z)").parse("(a3,(1))", 2)
    with pytest.raises(OutOfWindowError):
        get_group("(C2 * F2)").parse("a.b5", 4)
    assert get_group("C6").parse("a99999999999999999999", 1) == 99999999999999999999 % 6


def test_validate_rejects_foreign_payloads():
    z = get_group("Z")
    with pytest.raises(MismatchError):
        validate(z, "a")
    with pytest.raises(MismatchError):
        validate(z, (1, 2))
    c6 = get_group("C6")
    with pytest.raises(MismatchError):
        validate(c6, 7)
    f2 = get_group("F2")
    with pytest.raises(MismatchError):
        validate(f2, "aA")  # not reduced
    with pytest.raises(MismatchError):
        validate(f2, "xyz")
    fp = get_group("(C2 * C3)")
    with pytest.raises(MismatchError):
        validate(fp, ((0, 1), (0, 1)))  # sides must alternate
    with pytest.raises(MismatchError):
        validate(fp, ((1, 0),))  # identity syllable


@pytest.mark.parametrize(
    "text,a,b,message",
    [
        ("Z^2", (1, 0), (1, 0, 0), "free abelian payload must be an int tuple of the right rank"),
        ("Z", (1,), "a", "free abelian payload must be an int tuple of the right rank"),
        ("C6", 1, "a", "cyclic payload must be an int residue"),
        ("F2", "a", 1, "free payload must be a letter string"),
        ("(Z x C2)", ((1,), 0), ((1,), 0, 1), "direct product payload must be a pair"),
        ("(C2 * C3)", ((0, 1),), "a", "free product payload must be a syllable tuple"),
        ("Z^5", (1, 0, 0, 0, 0), (1, 0, 0, 0), "free abelian payload must be an int tuple of the right rank"),
        ("Z^5", (1, 0, 0, 0, 0), [1, 0, 0, 0, 0], "free abelian payload must be an int tuple of the right rank"),
        # a coordinate no operator takes: caught on the exception path
        ("Z^2", (1, "a"), (0, 0), "free abelian payload must be an int tuple of the right rank"),
        ("Z^5", (0, 0, 0, 0, 1), (0, 0, 0, 0, None), "free abelian payload must be an int tuple of the right rank"),
    ],
)
def test_mul_rejects_foreign_payloads(text, a, b, message):
    # divide checks a payload's outer shape as mul does
    grp = get_group(text)
    for op in (grp.mul, grp.divide):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(MismatchError, match=f"^{re.escape(message)}$"):
                op(x, y)


@pytest.mark.parametrize(
    "text,a,message",
    [
        ("Z^2", (1, 2, 3), "free abelian payload must be an int tuple of the right rank"),
        ("Z^2", (1,), "free abelian payload must be an int tuple of the right rank"),
        ("Z", "a", "free abelian payload must be an int tuple of the right rank"),
        ("Z^5", [1, 0, 0, 0, 0], "free abelian payload must be an int tuple of the right rank"),
        ("C6", "a", "cyclic payload must be an int residue"),
        ("F2", 1, "free payload must be a letter string"),
        ("(Z x C2)", ((1,), 0, 1), "direct product payload must be a pair"),
        ("(Z x C2)", "ab", "direct product payload must be a pair"),
        ("(C2 * C3)", "a", "free product payload must be a syllable tuple"),
        ("(C2 * C3)", ((5, 1),), "free product payload must be a syllable tuple"),
        ("(C2 * C3)", ((0, 1), (1,)), "free product payload must be a syllable tuple"),
        # a coordinate no operator takes: caught on the exception path
        ("Z^2", (1, "a"), "free abelian payload must be an int tuple of the right rank"),
    ],
)
def test_inv_rejects_foreign_payloads(text, a, message):
    with pytest.raises(MismatchError, match=f"^{re.escape(message)}$"):
        get_group(text).inv(a)


@pytest.mark.parametrize("a", [((5, 1),), ((0, 1), (-1, 2)), ((0,),), (3,)])
def test_free_product_show_rejects_foreign_syllables(a):
    # the side is checked once per distinct syllable, where its printed form is memoised
    with pytest.raises(MismatchError, match="^free product payload must be a syllable tuple$"):
        get_group("(C2 * C3)").show(a)


@pytest.mark.parametrize(
    "text", ["(C2 * C3)", "(C2 * C2)", "((Z x C2) * C3)", "((C2 * C3) * C2)"]
)
def test_free_product_matches_syllable_oracle(text):
    grp = Group(parse_spec(text))
    ref = SyllableGroup(grp.spec)
    rng = random.Random(f"syllables:{text}")
    deepest = 0
    for _ in range(500):
        a = ref.sample(rng, 8)
        # b opens with the inverse of a's last k syllables, so a*b cancels
        # across the seam
        k = rng.randrange(len(a) + 1)
        b = ref.mul(ref.inv(a[len(a) - k :]), ref.sample(rng))
        for x, y in ((a, b), (b, a)):
            got = grp.mul(x, y)
            assert got == ref.mul(x, y)
            deepest = max(deepest, (len(x) + len(y) - len(got)) // 2)
        for x in (a, b):
            assert grp.inv(x) == ref.inv(x)
            assert grp.show(x) == ref.show(x)
    # some seams cancelled several syllables before they stopped
    assert deepest >= 3


# ---------------------------------------------------------------------------
# Left division


@given(nested_specs(2), st.sampled_from([1, 2]))
def test_divide_matches_mul_of_the_inverse(text, power):
    grp = Group(parse_spec(text))
    gens = standard_generators(grp)
    if power > 1:
        gens = power_generators(grp, gens, power)
    try:
        window = build_window(grp, gens, 3, 300)
    except WindowCapError as err:
        window = build_window(grp, gens, err.radius_reached, 300)
    rng = random.Random(f"divide:{text}:{power}")
    els = window.elements
    for _ in range(100):
        a, w = rng.choice(els), rng.choice(els)
        # a*w shares a prefix with a; a shares all of itself
        for b in (w, grp.mul(a, w), a):
            assert grp.divide(a, b) == grp.mul(grp.inv(a), b), (a, b)
    # no family takes these as payloads
    for bad in (None, [], 1.5):
        for x, y in ((bad, a), (a, bad)):
            with pytest.raises(MismatchError) as refused:
                grp.mul(x, y)
            with pytest.raises(MismatchError, match=f"^{re.escape(str(refused.value))}$"):
                grp.divide(x, y)


@pytest.mark.parametrize(
    "text,a,b,want",
    [
        ("Z^2", (1, 2), (0, 5), (-1, 3)),
        ("C6", 5, 2, 3),
        ("F2", "ab", "aB", "BB"),
        ("F2", "abA", "ab", "a"),
        ("F2", "ab", "ab", ""),
        ("(Z x F2)", ((3,), "bA"), ((1,), "ba"), ((-2,), "aa")),
        # the first differing syllables share a side, and merge
        ("(C2 * C3)", ((1, 1),), ((1, 2),), ((1, 1),)),
        ("(C2 * C3)", ((0, 1), (1, 1)), ((0, 1), (1, 2), (0, 1)), ((1, 1), (0, 1))),
        ("(F2 * C3)", ((0, "ab"), (1, 1)), ((0, "aB"),), ((1, 2), (0, "BB"))),
        # they lie on two sides, and only join
        ("(C2 * C3)", ((1, 1), (0, 1)), ((0, 1),), ((0, 1), (1, 2), (0, 1))),
        ("(C2 * C3)", ((0, 1), (1, 1)), ((0, 1),), ((1, 2),)),
    ],
)
def test_divide_cancels_only_the_common_prefix(text, a, b, want):
    grp = get_group(text)
    assert grp.divide(a, b) == want == grp.mul(grp.inv(a), b)


# ---------------------------------------------------------------------------
# Step maps


@given(nested_specs(2), st.sampled_from([1, 2]))
def test_step_maps_match_mul(text, power):
    grp = Group(parse_spec(text))
    gens = standard_generators(grp)
    if power > 1:
        gens = power_generators(grp, gens, power)
    try:
        window = build_window(grp, gens, 3, 300)
    except WindowCapError as err:
        window = build_window(grp, gens, err.radius_reached, 300)
    rng = random.Random(f"steps:{text}:{power}")
    drawn = [random_element(grp, rng) for _ in range(10)]
    for s in gens:
        step, back = grp.step_map(s), grp.inv(s)
        assert grp.step_map(s) is step  # built once
        # a = s^-1 w: a*s = w cancels at the seam, all of s when w = e
        for a in [*window, *drawn, *(grp.mul(back, w) for w in [*window, *drawn])]:
            assert step(a) == grp.mul(a, s), (s, a)


@pytest.mark.parametrize(
    "text,a,s,want",
    [
        # a map that only concatenated would give "Aa", "abAaB", ((1, 1), (1, 2)), ...
        ("F2", "A", "a", ""),
        ("F2", "abA", "aB", "a"),
        ("F2", "ab", "Ba", "aa"),
        ("(C2 * C3)", ((1, 1),), ((1, 2),), ()),
        ("(C2 * C3)", ((0, 1), (1, 1)), ((1, 1),), ((0, 1), (1, 2))),
        ("(F2 * C3)", ((0, "aB"),), ((0, "b"),), ((0, "a"),)),
        ("(C2 * C3)", ((1, 1), (0, 1)), ((0, 1), (1, 2)), ()),  # two syllables, through mul
        ("(C2 * C3)", ((1, 1), (0, 1)), ((0, 1), (1, 1)), ((1, 2),)),
        ("(Z x F2)", ((3,), "bA"), ((0,), "a"), ((3,), "b")),
        ("(Z x F2)", ((3,), "bA"), ((-1,), ""), ((2,), "bA")),
    ],
)
def test_step_maps_reduce_at_the_seam(text, a, s, want):
    grp = get_group(text)
    assert grp.step_map(s)(a) == grp.mul(a, s) == want
    validate(grp, want)


FREE_ABELIAN = "free abelian payload must be an int tuple of the right rank"
FREE = "free payload must be a letter string"
CYCLIC = "cyclic payload must be an int residue"
DIRECT = "direct product payload must be a pair"
FREE_PRODUCT = "free product payload must be a syllable tuple"


@pytest.mark.parametrize(
    "text,s,message",
    [
        ("Z^2", (1, "a"), FREE_ABELIAN),
        ("Z^2", (1, 0.5), FREE_ABELIAN),
        ("Z^2", (1, 0, 0), FREE_ABELIAN),
        ("Z^2", [1, 0], FREE_ABELIAN),
        ("Z^2", (1, [0]), FREE_ABELIAN),
        ("F2", 1, FREE),
        ("F2", "aA", FREE),
        ("F2", "ax", FREE),
        ("C6", "a", CYCLIC),
        ("C6", [1], CYCLIC),
        ("(Z x C2)", ((1,),), DIRECT),
        ("(Z x C2)", ((1,), "a"), CYCLIC),
        ("(Z x C2)", (("a",), 0), FREE_ABELIAN),
        ("(Z x C2)", [(1,), 0], DIRECT),
        ("(C2 * C3)", "a", FREE_PRODUCT),
        ("(C2 * C3)", ((5, 1),), FREE_PRODUCT),
        ("(C2 * C3)", ((1.0, 1),), FREE_PRODUCT),  # a side is an int, not a number equal to one
        ("(C2 * C3)", ((True, 1),), FREE_PRODUCT),
        ("(C2 * C3)", ((0, 1, 2),), FREE_PRODUCT),
        ("(C2 * C3)", ((0, 1), (0, 1)), FREE_PRODUCT),  # sides must alternate
        ("(C2 * C3)", ((0, 0),), FREE_PRODUCT),  # identity syllable
        ("(C2 * C3)", ((0, "a"),), CYCLIC),
        ("(C2 * C3)", ((0, [1]),), CYCLIC),
        ("(C2 * C3)", ((0, 1.0),), CYCLIC),
        ("(C2 * C3)", ((0, True),), CYCLIC),
        ("C6", True, CYCLIC),
        ("Z^2", (True, 0), FREE_ABELIAN),
        ("(Z^2 * C3)", ((0, (1, "a")),), FREE_ABELIAN),
    ],
)
def test_step_map_rejects_malformed_steps(text, s, message):
    # the step is checked deeply, once, where its map is built
    grp = Group(parse_spec(text))
    for _ in range(2):
        with pytest.raises(MismatchError, match=f"^{re.escape(message)}$"):
            grp.step_map(s)


def test_step_map_checks_a_step_equal_to_a_built_one():
    # 1.0 == 1 and hashes alike, but is no coordinate, residue or syllable payload
    for text, good, bad in [
        ("Z^2", (1, 0), (1.0, 0)),
        ("(Z x C2)", ((0,), 1), ((0,), 1.0)),
        ("(C2 * C3)", ((1, 1),), ((1, 1.0),)),
        ("(C2 * C3)", ((1, 1),), ((1.0, 1),)),
        ("(C2 * C3)", ((1, 1),), ((True, 1),)),
    ]:
        grp = Group(parse_spec(text))
        grp.step_map(good)
        with pytest.raises(MismatchError):
            grp.step_map(bad)


def _group_and_factors(grp):
    yield grp
    for factor in (grp.left, grp.right):
        if factor is not None:
            yield from _group_and_factors(factor)


@pytest.mark.parametrize("text", ZOO + ["((Z x C2) * C3)"])
def test_only_mul_and_show_stay_on_the_class(text):
    # perfbench counts groups.mul.calls and groups.show.calls by wrapping
    # Group.mul and Group.show: either name bound on an instance would hide
    # the wrapper and leave its count at 0. The family's kernels are bound
    # on each group and factor as plain functions.
    kernels = ("divide", "inv", "step_map", "parity")
    assert not any(hasattr(Group, name) for name in kernels)
    for grp in _group_and_factors(Group(parse_spec(text))):
        names = vars(grp)
        assert "mul" not in names and "show" not in names, grp
        for name in kernels:
            assert inspect.isfunction(names.get(name)), (grp, name)


# ---------------------------------------------------------------------------
# Axioms, 1000 seeded cases per zoo spec


@pytest.mark.parametrize("text", ZOO)
def test_group_axioms(text):
    grp = get_group(text)
    rng = random.Random(f"axioms:{text}")
    e = grp.identity
    for _ in range(1000):
        a = random_element(grp, rng)
        b = random_element(grp, rng)
        c = random_element(grp, rng)
        assert grp.mul(grp.mul(a, b), c) == grp.mul(a, grp.mul(b, c))
        assert grp.mul(a, grp.inv(a)) == e
        assert grp.mul(grp.inv(a), a) == e
        assert grp.mul(a, e) == a
        assert grp.mul(e, a) == a
        assert grp.inv(grp.mul(a, b)) == grp.mul(grp.inv(b), grp.inv(a))
        assert grp.parse(grp.show(a)) == a
        validate(grp, a)


@pytest.mark.parametrize("text,power", [(text, 1) for text in ZOO] + [(text, 2) for text in ZOO])
def test_parity_is_a_homomorphism(text, power):
    # on every pair of a window (F2 at gen-power 2: 161 elements)
    grp = get_group(text)
    window = get_window(text, 2 if power == 2 else 3, power)
    parity = {x: grp.parity(x) for x in window}
    assert parity[grp.identity] == 0
    for a in window:
        for b in window:
            assert grp.parity(grp.mul(a, b)) == (parity[a] + parity[b]) % 2, (a, b)


def test_parity_of_standard_steps():
    # odd on every standard step but those of an odd-order cyclic factor
    for text, want in [
        ("Z^3", {1}), ("F2", {1}), ("C6", {1}), ("C5", {0}), ("(Z x C2)", {1}),
        ("(C2 * C2)", {1}), ("(C2 * C3)", {0, 1}), ("((Z x C3) * F2)", {0, 1}),
    ]:
        grp = get_group(text)
        steps = standard_generators(grp) - {grp.identity}
        assert {grp.parity(s) for s in steps} == want, text


def test_free_reduction_matches_oracle():
    f2 = get_group("F2")
    rng = random.Random("free-oracle")
    letters = ["a", "b", "A", "B"]
    for _ in range(1000):
        word = [rng.choice(letters) for _ in range(rng.randrange(12))]
        got = f2.identity
        for c in word:
            got = f2.mul(got, c)
        pairs = [(c.lower(), -1 if c.isupper() else 1) for c in word]
        want = reduce_word(pairs)
        want_str = "".join(sym if e > 0 else sym.upper() for sym, e in want)
        assert got == want_str


# ---------------------------------------------------------------------------
# Generator sets


def test_standard_generators_shape():
    sizes = {
        "Z": 3,
        "Z^2": 5,
        "F2": 5,
        "C2": 2,
        "C6": 3,
        "(Z x C2)": 4,
        "(C2 * C2)": 3,
        "(C2 * C3)": 4,
    }
    for text, size in sizes.items():
        grp = get_group(text)
        gens = standard_generators(grp)
        assert isinstance(gens, frozenset)
        assert len(gens) == size
        assert grp.identity in gens
        for g in gens:
            assert grp.inv(g) in gens
            validate(grp, g)


def _step_count(spec):
    """Standard steps from the spec alone: 2k for Z^k and Fk; 0, 1 and 2
    for C1, C2 and Cn with n >= 3; the sum over a product's factors."""
    if isinstance(spec, (DirectProduct, FreeProduct)):
        return _step_count(spec.left) + _step_count(spec.right)
    if isinstance(spec, Cyclic):
        return min(spec.order - 1, 2)
    return 2 * spec.rank


@given(nested_specs(2))
def test_families_against_closed_forms(text):
    # nested specs print tagged and parenthesised syllables, which ZOO does not
    grp = Group(parse_spec(text))
    gens = standard_generators(grp)
    assert len(gens) == 1 + _step_count(grp.spec)
    for s in gens:
        assert grp.inv(s) in gens
        validate(grp, s)
    try:
        window = build_window(grp, gens, 3, 300)
    except WindowCapError as err:
        window = build_window(grp, gens, err.radius_reached, 300)
    for g in window:
        assert grp.parse(grp.show(g)) == g, (text, g)


def test_power_generators_are_products():
    for text in ["Z", "F2", "(C2 * C3)"]:
        grp = get_group(text)
        k = standard_generators(grp)
        k2 = power_generators(grp, k, 2)
        naive = {grp.mul(a, b) for a in k for b in k}
        assert k2 == naive
        k4 = power_generators(grp, k2, 2)
        assert power_generators(grp, k, 4) == k4
    with pytest.raises(ValueError):
        power_generators(get_group("Z"), standard_generators(get_group("Z")), 0)


def test_power_generators_stop_at_the_cap(monkeypatch):
    grp = Group(parse_spec("F2"))
    k = standard_generators(grp)
    # |K^3| = 53: a cap it fits gives the same set
    assert power_generators(grp, k, 3, cap=53) == power_generators(grp, k, 3)
    calls = []
    mul = Group.mul
    monkeypatch.setattr(Group, "mul", lambda self, a, b: calls.append(1) or mul(self, a, b))
    with pytest.raises(WindowCapError) as err:
        power_generators(grp, k, 6, cap=10)
    assert (err.value.cap, err.value.radius_reached) == (10, 0)
    # each set holds the one before it, so no round starts above the cap, and
    # K^6 would take (5 + 17 + 53 + 161 + 485) * 5 = 3,605 products
    assert len(calls) <= 5 * 10 * len(k)
