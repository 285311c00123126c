"""Group families, canonical normal forms, and exact group arithmetic.

Groups are described compositionally: free abelian groups, free groups,
finite cyclic groups, and direct or free products of those. Every element
is stored as a canonical payload, so structural equality is group equality
and payloads hash straight into sets and dicts:

    free abelian    tuple of ints, one per rank slot
    free            str over assigned letters, uppercase marks inverses
    cyclic          int residue in [0, order)
    direct product  pair (left payload, right payload)
    free product    tuple of (side, syllable payload), sides alternating

Atomic factors are assigned distinct lowercase letters in depth-first
order across the whole spec tree. Letters appear in printed forms of free
and cyclic factors; free abelian elements print as integer vectors and
direct products as pairs. The identity of any group prints as "e".
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from operator import add, neg
from typing import Iterator, Union

from .errors import (
    ElementSyntaxError,
    MismatchError,
    SpecSyntaxError,
    UnsupportedSpecError,
)

__all__ = [
    "FreeAbelian",
    "Free",
    "Cyclic",
    "DirectProduct",
    "FreeProduct",
    "GroupSpec",
    "parse_spec",
    "spec_to_string",
    "Group",
    "GeneratorSet",
    "standard_generators",
    "power_generators",
]


# ---------------------------------------------------------------------------
# Spec tree


@dataclass(frozen=True)
class FreeAbelian:
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("free abelian rank must be at least 1")


@dataclass(frozen=True)
class Free:
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("free rank must be at least 1")


@dataclass(frozen=True)
class Cyclic:
    order: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("cyclic order must be at least 1")


@dataclass(frozen=True)
class DirectProduct:
    left: "GroupSpec"
    right: "GroupSpec"


@dataclass(frozen=True)
class FreeProduct:
    left: "GroupSpec"
    right: "GroupSpec"


GroupSpec = Union[FreeAbelian, Free, Cyclic, DirectProduct, FreeProduct]


class _SpecParser:
    """Recursive-descent parser for the spec grammar.

    G ::= "Z" | "Z^" nat | "F" nat | "C" nat | "(" G "x" G ")" | "(" G "*" G ")"

    Whitespace between tokens is ignored; offsets reported in errors index
    into the original string. Parentheses may nest at most MAX_DEPTH deep,
    which keeps parsing, and the recursive group arithmetic built on the
    spec, far from the interpreter's recursion limit.
    """

    MAX_DEPTH = 64

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_nat(self, what: str) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise SpecSyntaxError(f"expected a number after {what}", start)
        value = int(self.text[start : self.pos])
        if value < 1:
            raise SpecSyntaxError(f"{what} parameter must be at least 1", start)
        return value

    def parse_group(self) -> GroupSpec:
        self.skip_ws()
        c = self.peek()
        if c == "(":
            if self.depth == self.MAX_DEPTH:
                raise SpecSyntaxError(
                    f"group expression nests deeper than {self.MAX_DEPTH} levels", self.pos
                )
            self.depth += 1
            self.pos += 1
            left = self.parse_group()
            self.skip_ws()
            op = self.peek()
            if op not in ("x", "*"):
                raise SpecSyntaxError("expected 'x' or '*'", self.pos)
            self.pos += 1
            right = self.parse_group()
            self.skip_ws()
            if self.peek() != ")":
                raise SpecSyntaxError("expected ')'", self.pos)
            self.pos += 1
            self.depth -= 1
            return DirectProduct(left, right) if op == "x" else FreeProduct(left, right)
        if c == "Z":
            self.pos += 1
            if self.peek() == "^":
                self.pos += 1
                return FreeAbelian(self.take_nat("'Z^'"))
            return FreeAbelian(1)
        if c == "F":
            self.pos += 1
            return Free(self.take_nat("'F'"))
        if c == "C":
            self.pos += 1
            return Cyclic(self.take_nat("'C'"))
        raise SpecSyntaxError("expected a group expression", self.pos)


def parse_spec(text: str) -> GroupSpec:
    """Parse a group spec string, reporting syntax errors with byte offsets."""
    parser = _SpecParser(text)
    spec = parser.parse_group()
    parser.skip_ws()
    if parser.pos != len(text):
        raise SpecSyntaxError("trailing input after group expression", parser.pos)
    return spec


def spec_to_string(spec: GroupSpec) -> str:
    """Canonical printed form of a spec; round-trips through parse_spec."""
    if isinstance(spec, FreeAbelian):
        return "Z" if spec.rank == 1 else f"Z^{spec.rank}"
    if isinstance(spec, Free):
        return f"F{spec.rank}"
    if isinstance(spec, Cyclic):
        return f"C{spec.order}"
    if isinstance(spec, DirectProduct):
        return f"({spec_to_string(spec.left)} x {spec_to_string(spec.right)})"
    if isinstance(spec, FreeProduct):
        return f"({spec_to_string(spec.left)} * {spec_to_string(spec.right)})"
    raise MismatchError(f"not a group spec: {spec!r}")


# ---------------------------------------------------------------------------
# Bound groups


def _split_top(s: str, sep: str) -> list[str]:
    """Split on sep occurrences at parenthesis depth zero."""
    parts = []
    depth = 0
    start = 0
    for i, c in enumerate(s):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth < 0:
                raise ElementSyntaxError(f"unbalanced ')' in {s!r}")
        elif c == sep and depth == 0:
            parts.append(s[start:i])
            start = i + 1
    if depth != 0:
        raise ElementSyntaxError(f"unbalanced '(' in {s!r}")
    parts.append(s[start:])
    return parts


def _free_concat(a: str, b: str) -> str:
    """Concatenate two reduced letter strings, cancelling at the seam."""
    i = len(a)
    j = 0
    while i > 0 and j < len(b) and a[i - 1] == b[j].swapcase():
        i -= 1
        j += 1
    return a[:i] + b[j:]


# Kernels: each family's mul, inv and show (of a non-identity payload),
# built once per Group so that no product re-dispatches on the family.
# Nested products go through child.mul and child.show, the class entry
# points (see Group.mul).


def _free_abelian_kernels(rank: int):
    def mul(a, b):
        if not (isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b) == rank):
            raise MismatchError("free abelian payload must be an int tuple of the right rank")
        return tuple(map(add, a, b))

    def inv(a):
        return tuple(map(neg, a))

    def show(a):
        return "(" + ",".join(map(str, a)) + ")"

    return mul, inv, show


def _cyclic_kernels(order: int, letter: str):
    def mul(a, b):
        if not (isinstance(a, int) and isinstance(b, int)):
            raise MismatchError("cyclic payload must be an int residue")
        return (a + b) % order

    def inv(a):
        return (order - a) % order

    def show(a):
        return letter + ("" if a == 1 else str(a))

    return mul, inv, show


class _PrintedRuns(dict):
    """Printed form of each run of one letter ("aaa" -> "a3", "BB" -> "b-2"),
    computed on first request."""

    def __missing__(self, run: str) -> str:
        exp = len(run) if run[0].islower() else -len(run)
        text = self[run] = run[0].lower() + ("" if exp == 1 else str(exp))
        return text


def _free_kernels(letters: tuple):
    runs = re.compile("|".join(f"{c}+|{c.upper()}+" for c in letters)).findall
    printed = _PrintedRuns()

    def mul(a, b):
        if not (isinstance(a, str) and isinstance(b, str)):
            raise MismatchError("free payload must be a letter string")
        if a and b and a[-1] == b[0].swapcase():
            return _free_concat(a, b)
        return a + b

    def inv(a):
        return a[::-1].swapcase()

    def show(a):
        return "".join(map(printed.__getitem__, runs(a)))

    return mul, inv, show


def _direct_kernels(left: "Group", right: "Group"):
    def mul(a, b):
        if not (isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b) == 2):
            raise MismatchError("direct product payload must be a pair")
        return (left.mul(a[0], b[0]), right.mul(a[1], b[1]))

    def inv(a):
        return (left.inv(a[0]), right.inv(a[1]))

    def show(a):
        return f"({left.show(a[0])},{right.show(a[1])})"

    return mul, inv, show


def _free_product_kernels(left: "Group", right: "Group", tagged: bool):
    children = (left, right)
    # printed syllable = prefix + child.show(x) + suffix, per side
    prefix = tuple(
        ("<>"[side] if tagged else "") + ("(" if child.kind == "free_product" else "")
        for side, child in enumerate(children)
    )
    suffix = tuple(")" if child.kind == "free_product" else "" for child in children)

    def mul(a, b):
        if not (isinstance(a, tuple) and isinstance(b, tuple)):
            raise MismatchError("free product payload must be a syllable tuple")
        # b's sides alternate, so nothing merges unless the seam shares a side
        if not a or not b or a[-1][0] != b[0][0]:
            return a + b
        out = list(a)
        for syl in b:
            side, x = syl
            if not out or out[-1][0] != side:
                out.append(syl)
                continue
            child = children[side]
            merged = child.mul(out[-1][1], x)
            if merged == child.identity:
                out.pop()
            else:
                out[-1] = (side, merged)
        return tuple(out)

    def inv(a):
        return tuple((side, children[side].inv(x)) for side, x in reversed(a))

    def show(a):
        return ".".join(
            [prefix[side] + children[side].show(x) + suffix[side] for side, x in a]
        )

    return mul, inv, show


class Group:
    """A spec bound to arithmetic, printing, and parsing.

    Elements are plain payloads (see module docstring); the Group instance
    supplies multiplication, inversion, canonical printing via show(), the
    inverse parse(), and the lexicographic sort key used for every
    deterministic tie-break downstream.
    """

    def __init__(self, spec: GroupSpec, _cursor: list[int] | None = None):
        cursor = [0] if _cursor is None else _cursor
        self.spec = spec
        self.letters: tuple[str, ...] = ()
        self.left: Group | None = None
        self.right: Group | None = None
        if isinstance(spec, FreeAbelian):
            self.kind = "free_abelian"
            self.identity = (0,) * spec.rank
            kernels = _free_abelian_kernels(spec.rank)
        elif isinstance(spec, Free):
            self.kind = "free"
            self.letters = self._claim_letters(cursor, spec.rank)
            self.identity = ""
            kernels = _free_kernels(self.letters)
        elif isinstance(spec, Cyclic):
            self.kind = "cyclic"
            self.letters = self._claim_letters(cursor, 1)
            self.identity = 0
            kernels = _cyclic_kernels(spec.order, self.letters[0])
        elif isinstance(spec, DirectProduct):
            self.kind = "direct"
            self.left = Group(spec.left, cursor)
            self.right = Group(spec.right, cursor)
            self.identity = (self.left.identity, self.right.identity)
            kernels = _direct_kernels(self.left, self.right)
        elif isinstance(spec, FreeProduct):
            self.kind = "free_product"
            self.left = Group(spec.left, cursor)
            self.right = Group(spec.right, cursor)
            self.identity = ()
            # Bare syllables are routed by their first letter, which only
            # works when both factors print letter-first. Otherwise every
            # syllable carries an explicit side marker.
            self.tagged = not (
                self.left.kind in ("free", "cyclic")
                and self.right.kind in ("free", "cyclic")
            )
            kernels = _free_product_kernels(self.left, self.right, self.tagged)
        else:
            raise MismatchError(f"not a group spec: {spec!r}")
        self._mul, self._inv, self._show = kernels

    @staticmethod
    def _claim_letters(cursor: list[int], count: int) -> tuple[str, ...]:
        start = cursor[0]
        if start + count > len(string.ascii_lowercase):
            raise UnsupportedSpecError(
                "spec needs more than 26 generator letters; not supported"
            )
        cursor[0] += count
        return tuple(string.ascii_lowercase[start : start + count])

    def __repr__(self) -> str:
        return f"Group({spec_to_string(self.spec)!r})"

    # -- arithmetic -------------------------------------------------------

    # mul, inv and show stay methods of the class, each delegating to the
    # family's kernel, so that a wrapper patched onto Group (as a tracer
    # counting products does) sees every call, nested ones included.

    def mul(self, a, b):
        """Product a*b in canonical form."""
        return self._mul(a, b)

    def inv(self, a):
        """Inverse of a in canonical form."""
        return self._inv(a)

    def validate(self, a) -> None:
        """Deep structural check; raises MismatchError on foreign payloads."""
        kind = self.kind
        if kind == "free_abelian":
            if not (isinstance(a, tuple) and len(a) == self.spec.rank and all(isinstance(x, int) for x in a)):
                raise MismatchError(f"bad free abelian payload {a!r}")
            return
        if kind == "cyclic":
            if not (isinstance(a, int) and 0 <= a < self.spec.order):
                raise MismatchError(f"bad cyclic payload {a!r}")
            return
        if kind == "free":
            if not isinstance(a, str):
                raise MismatchError(f"bad free payload {a!r}")
            allowed = set(self.letters) | {c.upper() for c in self.letters}
            for i, c in enumerate(a):
                if c not in allowed:
                    raise MismatchError(f"letter {c!r} not in this free group")
                if i + 1 < len(a) and a[i + 1] == c.swapcase():
                    raise MismatchError(f"payload {a!r} is not reduced")
            return
        if kind == "direct":
            if not (isinstance(a, tuple) and len(a) == 2):
                raise MismatchError(f"bad direct product payload {a!r}")
            self.left.validate(a[0])
            self.right.validate(a[1])
            return
        if not isinstance(a, tuple):
            raise MismatchError(f"bad free product payload {a!r}")
        prev = None
        for entry in a:
            if not (isinstance(entry, tuple) and len(entry) == 2 and entry[0] in (0, 1)):
                raise MismatchError(f"bad syllable {entry!r}")
            side, x = entry
            if side == prev:
                raise MismatchError("syllable sides must alternate")
            child = self.left if side == 0 else self.right
            child.validate(x)
            if x == child.identity:
                raise MismatchError("identity syllable in free product payload")
            prev = side

    # -- printing ---------------------------------------------------------

    def show(self, a) -> str:
        """Canonical printed form; the identity of any group prints "e"."""
        return "e" if a == self.identity else self._show(a)

    def key(self, a) -> str:
        """Sort key for the deterministic element order: the printed form."""
        return self.show(a)

    # -- parsing ----------------------------------------------------------

    def parse(self, text: str):
        """Parse a printed element back to a payload.

        Accepts any structurally valid form and normalizes it (exponents may
        repeat or cancel), so parse(show(g)) == g and hand-written inputs
        like "a3" in C3 fold to canonical payloads.
        """
        s = text.strip()
        if not s:
            raise ElementSyntaxError("empty element")
        if s == "e":
            return self.identity
        return self._parse(s)

    def _parse(self, s: str):
        kind = self.kind
        if kind == "free_abelian":
            if not (s.startswith("(") and s.endswith(")")):
                raise ElementSyntaxError(f"expected a vector like (1,0), got {s!r}")
            parts = s[1:-1].split(",")
            if len(parts) != self.spec.rank:
                raise ElementSyntaxError(
                    f"expected {self.spec.rank} coordinates, got {len(parts)} in {s!r}"
                )
            try:
                return tuple(int(p) for p in parts)
            except ValueError:
                raise ElementSyntaxError(f"bad integer coordinate in {s!r}") from None
        if kind == "cyclic":
            return self._parse_letter_word(s)
        if kind == "free":
            return self._parse_letter_word(s)
        if kind == "direct":
            if not (s.startswith("(") and s.endswith(")")):
                raise ElementSyntaxError(f"expected a pair like (u,v), got {s!r}")
            parts = _split_top(s[1:-1], ",")
            if len(parts) != 2:
                raise ElementSyntaxError(f"expected exactly one top-level comma in {s!r}")
            return (self.left.parse(parts[0]), self.right.parse(parts[1]))
        # free product
        acc = self.identity
        for frag in _split_top(s, "."):
            if not frag:
                raise ElementSyntaxError(f"empty syllable in {s!r}")
            side, payload = self._parse_syllable(frag)
            child = self.left if side == 0 else self.right
            if payload == child.identity:
                continue
            acc = self.mul(acc, ((side, payload),))
        return acc

    def _parse_syllable(self, frag: str):
        if self.tagged:
            mark = frag[0]
            if mark not in "<>":
                raise ElementSyntaxError(
                    f"syllable {frag!r} must start with '<' or '>' for this group"
                )
            side = 0 if mark == "<" else 1
            child = self.left if side == 0 else self.right
            rest = frag[1:]
            if child.kind == "free_product":
                if not (rest.startswith("(") and rest.endswith(")")):
                    raise ElementSyntaxError(f"nested syllable {frag!r} must be parenthesized")
                rest = rest[1:-1]
            return side, child.parse(rest)
        c = frag[0]
        if c.lower() in self.left.letters:
            return 0, self.left.parse(frag)
        if c.lower() in self.right.letters:
            return 1, self.right.parse(frag)
        raise ElementSyntaxError(f"letter {c!r} belongs to neither factor")

    def _parse_letter_word(self, s: str):
        """Shared letter+exponent reader for free and cyclic factors."""
        acc = self.identity
        i = 0
        n = len(s)
        while i < n:
            c = s[i]
            if c.lower() not in self.letters:
                raise ElementSyntaxError(f"unexpected character {c!r} in {s!r}")
            i += 1
            j = i
            if j < n and s[j] == "-":
                j += 1
            while j < n and s[j].isdigit():
                j += 1
            if j > i:
                try:
                    exp = int(s[i:j])
                except ValueError:
                    raise ElementSyntaxError(f"bad exponent in {s!r}") from None
            else:
                exp = 1
            if c.isupper():
                exp = -exp
            i = j
            if self.kind == "cyclic":
                acc = (acc + exp) % self.spec.order
            else:
                letter = c.lower()
                chunk = letter * exp if exp > 0 else letter.upper() * (-exp)
                acc = _free_concat(acc, chunk)
        return acc


# ---------------------------------------------------------------------------
# Generator sets


@dataclass(frozen=True)
class GeneratorSet:
    """A finite symmetric generating set containing the identity.

    power records how many standard-set factors the set is a product of.
    """

    elements: frozenset
    power: int = 1

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator:
        return iter(self.elements)

    def __contains__(self, g) -> bool:
        return g in self.elements


def standard_generators(group: Group) -> GeneratorSet:
    """The standard symmetric generator set of the family, identity included."""
    kind = group.kind
    els = {group.identity}
    if kind == "free_abelian":
        rank = group.spec.rank
        for i in range(rank):
            unit = tuple(1 if j == i else 0 for j in range(rank))
            els.add(unit)
            els.add(group.inv(unit))
    elif kind == "free":
        for c in group.letters:
            els.add(c)
            els.add(c.upper())
    elif kind == "cyclic":
        n = group.spec.order
        if n > 1:
            els.add(1 % n)
            els.add((n - 1) % n)
    elif kind == "direct":
        for u in standard_generators(group.left).elements:
            els.add((u, group.right.identity))
        for v in standard_generators(group.right).elements:
            els.add((group.left.identity, v))
    else:
        for x in standard_generators(group.left).elements:
            if x != group.left.identity:
                els.add(((0, x),))
        for y in standard_generators(group.right).elements:
            if y != group.right.identity:
                els.add(((1, y),))
    return GeneratorSet(frozenset(els), power=1)


def power_generators(group: Group, gens: GeneratorSet, t: int) -> GeneratorSet:
    """All products of up to t factors from gens (gens contains the identity,
    so the t-fold product set is exactly the union of shorter products)."""
    if t < 1:
        raise ValueError("power must be at least 1")
    current = set(gens.elements)
    for _ in range(t - 1):
        current = {group.mul(a, b) for a in current for b in gens.elements}
    return GeneratorSet(frozenset(current), power=gens.power * t)
