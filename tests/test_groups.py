"""Group arithmetic, printing, parsing, and generator sets."""

import random
import re

import pytest

from coarse_ends import (
    Cyclic,
    DirectProduct,
    ElementSyntaxError,
    Free,
    FreeAbelian,
    FreeProduct,
    Group,
    MismatchError,
    SpecSyntaxError,
    UnsupportedSpecError,
    parse_spec,
    power_generators,
    spec_to_string,
    standard_generators,
)
from helpers import ZOO, get_group, random_element
from oracles import reduce_word


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
    text = "C2"
    for _ in range(26):
        text = f"({text} x C2)"
    with pytest.raises(UnsupportedSpecError):
        Group(parse_spec(text))


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


def test_validate_rejects_foreign_payloads():
    z = get_group("Z")
    with pytest.raises(MismatchError):
        z.validate("a")
    with pytest.raises(MismatchError):
        z.validate((1, 2))
    c6 = get_group("C6")
    with pytest.raises(MismatchError):
        c6.validate(7)
    f2 = get_group("F2")
    with pytest.raises(MismatchError):
        f2.validate("aA")  # not reduced
    with pytest.raises(MismatchError):
        f2.validate("xyz")
    fp = get_group("(C2 * C3)")
    with pytest.raises(MismatchError):
        fp.validate(((0, 1), (0, 1)))  # sides must alternate
    with pytest.raises(MismatchError):
        fp.validate(((1, 0),))  # identity syllable


@pytest.mark.parametrize(
    "text,a,b,message",
    [
        ("Z^2", (1, 0), (1, 0, 0), "free abelian payload must be an int tuple of the right rank"),
        ("Z", (1,), "a", "free abelian payload must be an int tuple of the right rank"),
        ("C6", 1, "a", "cyclic payload must be an int residue"),
        ("F2", "a", 1, "free payload must be a letter string"),
        ("(Z x C2)", ((1,), 0), ((1,), 0, 1), "direct product payload must be a pair"),
        ("(C2 * C3)", ((0, 1),), "a", "free product payload must be a syllable tuple"),
    ],
)
def test_mul_rejects_foreign_payloads(text, a, b, message):
    grp = get_group(text)
    for x, y in ((a, b), (b, a)):
        with pytest.raises(MismatchError, match=f"^{re.escape(message)}$"):
            grp.mul(x, y)


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
        grp.validate(a)
        assert grp.key(a) == grp.show(a)


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
        assert len(gens) == size
        assert grp.identity in gens
        for g in gens:
            assert grp.inv(g) in gens.elements
            grp.validate(g)


def test_power_generators_are_products():
    for text in ["Z", "F2", "(C2 * C3)"]:
        grp = get_group(text)
        k = standard_generators(grp)
        k2 = power_generators(grp, k, 2)
        naive = {grp.mul(a, b) for a in k.elements for b in k.elements}
        assert set(k2.elements) == naive
        assert k2.power == 2
        k4 = power_generators(grp, k2, 2)
        assert k4.power == 4
        assert set(power_generators(grp, k, 4).elements) == set(k4.elements)
    with pytest.raises(ValueError):
        power_generators(get_group("Z"), standard_generators(get_group("Z")), 0)
