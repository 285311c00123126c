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

import string
from typing import NamedTuple, Union

from .errors import (
    ElementSyntaxError,
    MismatchError,
    OutOfWindowError,
    SpecSyntaxError,
    UnsupportedSpecError,
    WindowCapError,
)

__all__ = [
    "FreeAbelian",
    "Free",
    "Cyclic",
    "DirectProduct",
    "FreeProduct",
    "parse_spec",
    "spec_to_string",
    "Group",
    "standard_generators",
    "power_generators",
]


# ---------------------------------------------------------------------------
# Spec tree


class _Node:
    """A spec node equals only a node of its own family: Free(2) and
    FreeAbelian(2) are both the tuple (2,), yet differ."""

    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


class FreeAbelian(_Node, NamedTuple("FreeAbelian", [("rank", int)])):
    __slots__ = ()

    def __new__(cls, rank: int):
        if rank < 1:
            raise ValueError("free abelian rank must be at least 1")
        return super().__new__(cls, rank)


class Free(_Node, NamedTuple("Free", [("rank", int)])):
    __slots__ = ()

    def __new__(cls, rank: int):
        if rank < 1:
            raise ValueError("free rank must be at least 1")
        return super().__new__(cls, rank)


class Cyclic(_Node, NamedTuple("Cyclic", [("order", int)])):
    __slots__ = ()

    def __new__(cls, order: int):
        if order < 1:
            raise ValueError("cyclic order must be at least 1")
        return super().__new__(cls, order)


_PAIR = [("left", "GroupSpec"), ("right", "GroupSpec")]


class DirectProduct(_Node, NamedTuple("DirectProduct", _PAIR)):
    __slots__ = ()


class FreeProduct(_Node, NamedTuple("FreeProduct", _PAIR)):
    __slots__ = ()


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


# "e" prints the identity, so no generator is named by it
_LETTERS = string.ascii_lowercase.replace("e", "")


def _claim_letters(cursor: list[int], count: int) -> tuple[str, ...]:
    start = cursor[0]
    if start + count > len(_LETTERS):
        raise UnsupportedSpecError(
            f"spec needs more than {len(_LETTERS)} generator letters"
            " (a to z without e, which prints the identity); not supported"
        )
    cursor[0] += count
    return tuple(_LETTERS[start : start + count])


def _letter_runs(s: str, letters: tuple):
    """The (letter, exponent) runs of a printed free or cyclic word:
    "a2B" -> ("a", 2), ("b", -1). An uppercase letter negates its exponent."""
    i, n = 0, len(s)
    while i < n:
        c = s[i]
        if c.lower() not in letters:
            raise ElementSyntaxError(f"unexpected character {c!r} in {s!r}")
        i += 1
        j = i + 1 if i < n and s[i] == "-" else i
        while j < n and s[j].isdigit():
            j += 1
        try:
            exp = int(s[i:j]) if j > i else 1
        except ValueError:
            raise ElementSyntaxError(f"bad exponent in {s!r}") from None
        yield c.lower(), -exp if c.isupper() else exp
        i = j


def _step_maps(build):
    """step_map(s): build(s), the map a -> a*s, built on the first request for s.

    build checks s deeply and raises MismatchError. The maps are kept by
    repr(s), which, unlike equality, tells 1 from 1.0 and True and takes a
    step that does not hash, so every step that is not a payload is checked.
    """
    maps: dict = {}

    def step_map(s):
        key = repr(s)
        step = maps.get(key)
        if step is None:
            step = maps[key] = build(s)
        return step

    return step_map


# Families: each factory below is the one definition of its family. Once
# per Group it binds the family's parts on the group (its letters, or its
# factors left and right, and a free group's batch printer, see
# Group.show_many) and returns, in this order: the identity; the
# kernels mul, divide (a^-1*b), inv, show (of a non-identity payload) and
# step_map (built once per step); parity; the parser of a stripped printed
# form other than "e"; and the standard generators. Group.__init__ picks
# the factory by the spec's type and binds divide, inv, step_map and
# parity on the group as they are (see Group). So no product, parse or
# generator set re-dispatches on the family.
# mul, divide and inv check only a payload's outer shape (type, a pair's
# arity, a free abelian rank), once per call, and raise MismatchError on a
# wrong one; a payload malformed inside can give a non-payload or another
# error. A step map checks its step deeply, once, when it is built, and
# never checks the payloads it is applied to.
# Payloads from parse are well formed; tests/oracles.validate checks deeply.
# Nested products go through child.mul and child.show, the class entry
# points (see Group.mul), so a wrapper patched onto Group sees them; the
# child's divide, inv, step_map and parity are its kernels, bound on the
# child and looked up there at each call. A free product calls child.mul
# only at the seam and child.divide only where the first differing
# syllables share a side, and child.inv and child.show once per distinct
# syllable, through per-syllable tables that also check the syllable's
# shape and side. A direct product's step map applies both factors' maps.
# A free group's batch printer returns exactly its per-word show without
# calling show, so a wrapper patched onto Group.show does not see it.


def _free_abelian(grp: "Group", spec: FreeAbelian, cursor: list):
    # mul, inv and the step maps spell out one coordinate per slot, written
    # from a template: a displayed tuple of rank sums builds the result in
    # one step, about 4x faster than tuple(map(add, a, b)) on a 3-tuple.
    # The sums are the same ints in the same slots, so every product is the
    # payload the map would give; the rank check runs first in mul and inv,
    # so no coordinate is read from a foreign payload, and a coordinate that
    # no operator takes is caught on the exception path only.
    rank = spec.rank
    mismatch = "free abelian payload must be an int tuple of the right rank"
    slots = range(rank)

    def binary(name, term):
        return (
            f"def {name}(a, b):\n"
            "    if not (isinstance(a, tuple) and isinstance(b, tuple)"
            f" and len(a) == len(b) == {rank}):\n"
            "        raise MismatchError(mismatch)\n"
            "    try:\n"
            f"        return ({''.join(term.format(i=i) for i in slots)})\n"
            "    except TypeError:\n"
            "        raise MismatchError(mismatch) from None\n"
        )

    source = (
        binary("mul", "a[{i}] + b[{i}], ")
        + binary("divide", "b[{i}] - a[{i}], ")
        + "def inv(a):\n"
        f"    if not (isinstance(a, tuple) and len(a) == {rank}):\n"
        "        raise MismatchError(mismatch)\n"
        "    try:\n"
        f"        return ({''.join(f'-a[{i}], ' for i in slots)})\n"
        "    except TypeError:\n"
        "        raise MismatchError(mismatch) from None\n"
    )
    kernels = {"MismatchError": MismatchError, "mismatch": mismatch}
    exec(compile(source, f"<free abelian rank {rank}>", "exec"), kernels)
    mul, divide, inv = kernels["mul"], kernels["divide"], kernels["inv"]

    def show(a):
        return "(" + ",".join(map(str, a)) + ")"

    def step(s):
        # adds s's nonzero coordinates, as literals, and copies the others;
        # a bool or an int subclass is no coordinate
        if not (isinstance(s, tuple) and len(s) == rank and all(type(c) is int for c in s)):
            raise MismatchError(mismatch)
        terms = "".join(f"a[{i}] + {c}, " if c else f"a[{i}], " for i, c in enumerate(s))
        code: dict = {}
        source = f"def times(a):\n    return ({terms})\n"
        exec(compile(source, f"<free abelian step {s}>", "exec"), code)
        return code["times"]

    def parse(s, limit):
        if not (s.startswith("(") and s.endswith(")")):
            raise ElementSyntaxError(f"expected a vector like (1,0), got {s!r}")
        parts = s[1:-1].split(",")
        if len(parts) != rank:
            raise ElementSyntaxError(f"expected {rank} coordinates, got {len(parts)} in {s!r}")
        try:
            return tuple(int(p) for p in parts)
        except ValueError:
            raise ElementSyntaxError(f"bad integer coordinate in {s!r}") from None

    def parity(a):
        return sum(a) % 2

    identity = (0,) * rank
    gens = {identity}
    for i in slots:
        unit = tuple(1 if j == i else 0 for j in slots)
        gens.update((unit, inv(unit)))
    return identity, mul, divide, inv, show, _step_maps(step), parity, parse, frozenset(gens)


def _cyclic(grp: "Group", spec: Cyclic, cursor: list):
    order = spec.order
    letters = grp.letters = _claim_letters(cursor, 1)
    letter = letters[0]
    mismatch = "cyclic payload must be an int residue"

    def mul(a, b):
        if not (isinstance(a, int) and isinstance(b, int)):
            raise MismatchError(mismatch)
        return (a + b) % order

    def divide(a, b):
        if not (isinstance(a, int) and isinstance(b, int)):
            raise MismatchError(mismatch)
        return (b - a) % order

    def inv(a):
        if not isinstance(a, int):
            raise MismatchError(mismatch)
        return (order - a) % order

    def show(a):
        return letter + ("" if a == 1 else str(a))

    def step(s):
        if type(s) is not int:
            raise MismatchError(mismatch)
        return lambda a: (a + s) % order

    def parse(s, limit):
        return sum(exp for _, exp in _letter_runs(s, letters)) % order

    # an odd-order cyclic group has no homomorphism onto Z/2 but the zero one
    parity = (lambda a: a % 2) if order % 2 == 0 else (lambda a: 0)
    gens = frozenset((0, 1 % order, (order - 1) % order))
    return 0, mul, divide, inv, show, _step_maps(step), parity, parse, gens


class _Memo(dict):
    """compute(key) for each key, computed on first request."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


def _free(grp: "Group", spec: Free, cursor: list):
    letters = grp.letters = _claim_letters(cursor, spec.rank)
    mismatch = "free payload must be a letter string"

    def mul(a, b):
        if not (isinstance(a, str) and isinstance(b, str)):
            raise MismatchError(mismatch)
        if a and b and a[-1] == b[0].swapcase():
            return _free_concat(a, b)
        return a + b

    def divide(a, b):
        if not (isinstance(a, str) and isinstance(b, str)):
            raise MismatchError(mismatch)
        # a^-1 b cancels the common prefix of the two reduced words, and
        # nothing past the first letter where they differ
        k, n = 0, min(len(a), len(b))
        while k < n and a[k] == b[k]:
            k += 1
        return a[k:][::-1].swapcase() + b[k:]

    def inv(a):
        if not isinstance(a, str):
            raise MismatchError(mismatch)
        return a[::-1].swapcase()

    # a run of m >= 2 letters x prints x<m>, or x-<m> for an inverse letter
    cases = [(c, c) for c in letters] + [(c.upper(), c + "-") for c in letters]
    singles = [(c.upper(), c + "-1") for c in letters]

    def show_many(words):
        # One text for the whole batch. Per letter case, runs are rewritten
        # longest first, from the longest run that occurs, so a shorter
        # pattern never matches part of a longer run; runs are maximal, so
        # no token is next to the same letter again. The inverse letters
        # left are single, and the identity's empty line prints "e".
        if not words:
            return []
        text = "\n".join(words)
        for x, head in cases:
            if x * 2 not in text:
                continue
            n = 2
            while x * (n + 1) in text:
                n += 1
            for m in range(n, 1, -1):
                text = text.replace(x * m, head + str(m))
        for x, token in singles:
            text = text.replace(x, token)
        shown = text.split("\n")
        return [s or "e" for s in shown] if "" in shown else shown

    def show(a):
        return show_many([a])[0]

    alphabet = frozenset("".join(letters).swapcase() + "".join(letters))

    def step(s):
        # the seam test reads one letter: s is reduced, so a*s cancels only
        # if a ends in the inverse of s's first letter
        if not (
            isinstance(s, str)
            and alphabet.issuperset(s)
            and all(x != y.swapcase() for x, y in zip(s, s[1:]))
        ):
            raise MismatchError(mismatch)
        seam = s[:1].swapcase()

        def times(a):
            if a and a[-1] == seam:
                return _free_concat(a, s)
            return a + s

        return times

    def parse(s, limit):
        # runs are reduced as (letter, exponent) pairs, so "a5A5" is e and a
        # word's length is known before any letter is spelled
        runs = []
        for letter, exp in _letter_runs(s, letters):
            if runs and runs[-1][0] == letter:
                exp += runs.pop()[1]
            if exp:
                runs.append((letter, exp))
        size = sum(abs(exp) for _, exp in runs)
        if limit is not None and size > limit:
            raise OutOfWindowError(f"free word {s!r} spells {size} letters, more than {limit}")
        try:
            return "".join(x * exp if exp > 0 else x.upper() * -exp for x, exp in runs)
        except OverflowError:
            raise ElementSyntaxError(f"exponent too large in {s!r}") from None

    def parity(a):
        return len(a) % 2

    grp._show_many = show_many
    gens = {""}
    for c in letters:
        gens.update((c, c.upper()))
    return "", mul, divide, inv, show, _step_maps(step), parity, parse, frozenset(gens)


def _direct(grp: "Group", spec: DirectProduct, cursor: list):
    left = grp.left = Group(spec.left, cursor)
    right = grp.right = Group(spec.right, cursor)
    mismatch = "direct product payload must be a pair"

    def mul(a, b):
        if not (isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b) == 2):
            raise MismatchError(mismatch)
        return (left.mul(a[0], b[0]), right.mul(a[1], b[1]))

    def divide(a, b):
        if not (isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b) == 2):
            raise MismatchError(mismatch)
        return (left.divide(a[0], b[0]), right.divide(a[1], b[1]))

    def inv(a):
        if not (isinstance(a, tuple) and len(a) == 2):
            raise MismatchError(mismatch)
        return (left.inv(a[0]), right.inv(a[1]))

    def show(a):
        return f"({left.show(a[0])},{right.show(a[1])})"

    def step(s):
        if not (isinstance(s, tuple) and len(s) == 2):
            raise MismatchError(mismatch)
        f, g = left.step_map(s[0]), right.step_map(s[1])
        return lambda a: (f(a[0]), g(a[1]))

    def parity(a):
        return (left.parity(a[0]) + right.parity(a[1])) % 2

    def parse(s, limit):
        if not (s.startswith("(") and s.endswith(")")):
            raise ElementSyntaxError(f"expected a pair like (u,v), got {s!r}")
        parts = _split_top(s[1:-1], ",")
        if len(parts) != 2:
            raise ElementSyntaxError(f"expected exactly one top-level comma in {s!r}")
        return (left.parse(parts[0], limit), right.parse(parts[1], limit))

    identity = (left.identity, right.identity)
    gens = {identity}
    gens.update((u, right.identity) for u in standard_generators(left))
    gens.update((left.identity, v) for v in standard_generators(right))
    return identity, mul, divide, inv, show, _step_maps(step), parity, parse, frozenset(gens)


def _free_product(grp: "Group", spec: FreeProduct, cursor: list):
    grp.left, grp.right = Group(spec.left, cursor), Group(spec.right, cursor)
    children = (grp.left, grp.right)
    mismatch = "free product payload must be a syllable tuple"
    # Bare syllables are routed by their first letter, which only works when
    # both factors print letter-first. Otherwise every syllable carries an
    # explicit side marker, and a nested free product's is parenthesised.
    tagged = not all(isinstance(child.spec, (Free, Cyclic)) for child in children)
    nested = tuple(isinstance(child.spec, FreeProduct) for child in children)
    # printed syllable = prefix + child.show(x) + suffix, per side
    prefix = tuple(("<>"[side] if tagged else "") + ("(" if nested[side] else "") for side in (0, 1))
    suffix = tuple(")" if inner else "" for inner in nested)

    def side_of(syl):
        # checked once per distinct syllable, by the memos below, and once
        # per syllable of a step, where its map is built
        if not (isinstance(syl, tuple) and len(syl) == 2 and syl[0] in (0, 1)):
            raise MismatchError(mismatch)
        if type(syl[0]) is not int:  # 1.0 and True equal 1, but are no side
            raise MismatchError(mismatch)
        return syl[0]

    # per-syllable tables: (side, x) -> its inverse syllable, its printed form
    inverse = _Memo(lambda syl: (side_of(syl), children[syl[0]].inv(syl[1])))
    text = _Memo(lambda syl: prefix[side_of(syl)] + children[syl[0]].show(syl[1]) + suffix[syl[0]])

    def mul(a, b):
        if not (isinstance(a, tuple) and isinstance(b, tuple)):
            raise MismatchError(mismatch)
        # b's sides alternate, so nothing merges unless the seam shares a side
        if not a or not b or a[-1][0] != b[0][0]:
            return a + b
        # walk the seam: merged syllables that cancel drop out, and the
        # first that does not, or a change of side, ends the walk; past it
        # the sides alternate, so the rest of both words stays as it is
        i, j = len(a), 0
        while True:
            side = b[j][0]
            child = children[side]
            merged = child.mul(a[i - 1][1], b[j][1])
            if merged != child.identity:
                return a[: i - 1] + ((side, merged),) + b[j + 1 :]
            i -= 1
            j += 1
            if not i or j == len(b) or a[i - 1][0] != b[j][0]:
                return a[:i] + b[j:]

    def divide(a, b):
        if not (isinstance(a, tuple) and isinstance(b, tuple)):
            raise MismatchError(mismatch)
        # a^-1 b cancels the common syllable prefix. The first syllables
        # that differ merge when they lie on one side, into x^-1 y, which is
        # not the identity since x != y; past them the sides alternate, so
        # nothing else cancels.
        k, n = 0, min(len(a), len(b))
        while k < n and a[k] == b[k]:
            k += 1
        if k < n and a[k][0] == b[k][0]:
            side = b[k][0]
            merged = children[side].divide(a[k][1], b[k][1])
            return inv(a[k + 1 :]) + ((side, merged),) + b[k + 1 :]
        return inv(a[k:]) + b[k:]

    def inv(a):
        if not isinstance(a, tuple):
            raise MismatchError(mismatch)
        return tuple(map(inverse.__getitem__, reversed(a)))

    def show(a):
        return ".".join(map(text.__getitem__, a))

    def step(s):
        if not isinstance(s, tuple):
            raise MismatchError(mismatch)
        before = None
        for syl in s:
            side = side_of(syl)
            child = children[side]
            child.step_map(syl[1])  # checks the syllable's payload deeply
            # sides alternate, and no syllable is the identity
            if side == before or syl[1] == child.identity:
                raise MismatchError(mismatch)
            before = side
        if len(s) != 1:
            return lambda a: mul(a, s)
        # one syllable: only a's last syllable can change, and only when it
        # lies on the step's side
        ((side, x),) = s
        f, unit = children[side].step_map(x), children[side].identity

        def times(a):
            if a and a[-1][0] == side:
                y = f(a[-1][1])
                return a[:-1] + ((side, y),) if y != unit else a[:-1]
            return a + s

        return times

    def parity(a):
        return sum(children[side].parity(x) for side, x in a) % 2

    def syllable(frag, limit):
        if not tagged:
            for side, child in enumerate(children):
                if frag[0].lower() in child.letters:
                    return side, child.parse(frag, limit)
            raise ElementSyntaxError(f"letter {frag[0]!r} belongs to neither factor")
        if frag[0] not in "<>":
            raise ElementSyntaxError(f"syllable {frag!r} must start with '<' or '>' for this group")
        side, rest = "<>".index(frag[0]), frag[1:]
        if nested[side]:
            if not (rest.startswith("(") and rest.endswith(")")):
                raise ElementSyntaxError(f"nested syllable {frag!r} must be parenthesized")
            rest = rest[1:-1]
        return side, children[side].parse(rest, limit)

    def parse(s, limit):
        word = ()
        for frag in _split_top(s, "."):
            if not frag:
                raise ElementSyntaxError(f"empty syllable in {s!r}")
            side, x = syllable(frag, limit)
            if x != children[side].identity:
                word = grp.mul(word, ((side, x),))
        return word

    gens = {()}
    for side, child in enumerate(children):
        gens.update(((side, x),) for x in standard_generators(child) if x != child.identity)
    return (), mul, divide, inv, show, _step_maps(step), parity, parse, frozenset(gens)


_FAMILIES = {
    FreeAbelian: _free_abelian,
    Free: _free,
    Cyclic: _cyclic,
    DirectProduct: _direct,
    FreeProduct: _free_product,
}


class Group:
    """A spec bound to arithmetic, printing, and parsing.

    Elements are plain payloads (see module docstring); the Group instance
    supplies multiplication, inversion, canonical printing via show(), whose
    string is the sort key of every deterministic tie-break downstream, and
    the inverse parse(). Its family's factory (see _FAMILIES) builds all of
    them, once, and four are its functions, bound on the instance:

    divide(a, b) is a^-1*b, formed without a^-1 (see the kernels); it checks
    a payload's outer shape as mul does. inv(a) is the inverse of a.
    step_map(s) is the map a -> a*s for one fixed step s, built on the first
    request for s and kept. It checks s deeply, once, and raises
    MismatchError on a malformed step, as mul does on a payload of the wrong
    shape; the map checks nothing of a, so it takes only payloads of this
    group, such as a window's elements, and spends on each product only
    what s leaves to do (see the kernels). parity(a) is the exponent-sum
    parity of a, a homomorphism onto Z/2: the coordinate sum of a free
    abelian payload, the length of a free word, the residue of an even-order
    cyclic one (an odd-order cyclic group has only the zero map) and the sum
    over a product's parts, all mod 2. It walks the payload, so callers read
    it on generators, never once per product.

    mul and show stay methods of the class, so that a wrapper patched onto
    Group sees every call, nested ones included. A quotient formed by
    divide, or a product formed by a step map, does not pass through mul:
    a tracer that wraps mul counts general products only.
    """

    def __init__(self, spec: GroupSpec, _cursor: list[int] | None = None):
        self.spec = spec
        self.letters: tuple[str, ...] = ()
        self.left: Group | None = None
        self.right: Group | None = None
        self._show_many = None  # a family's batch printer, where it has one
        family = _FAMILIES.get(type(spec))
        if family is None:
            raise MismatchError(f"not a group spec: {spec!r}")
        (
            self.identity, self._mul, self.divide, self.inv, self._show, self.step_map,
            self.parity, self._parse, self._generators,
        ) = family(self, spec, [0] if _cursor is None else _cursor)

    def __repr__(self) -> str:
        return f"Group({spec_to_string(self.spec)!r})"

    def mul(self, a, b):
        """Product a*b in canonical form."""
        return self._mul(a, b)

    # -- printing ---------------------------------------------------------

    # show prints one element; show_many prints a list of them, the sort
    # keys of a whole sphere, and returns per-word show exactly, and
    # sort_printed orders a list by them. Only the free family prints a
    # batch at once (see _free); a tracer that wraps show counts the
    # elements of other families' batches, not a free one's.

    def show(self, a) -> str:
        """Canonical printed form; the identity of any group prints "e"."""
        return "e" if a == self.identity else self._show(a)

    def show_many(self, items: list) -> list:
        """[show(x) for x in items], exactly, for a list of payloads.

        A free group prints the whole batch with a few C-level string
        passes per letter instead of a Python call per word.
        """
        if self._show_many is None:
            return [self.show(x) for x in items]
        return self._show_many(items)

    def sort_printed(self, items: list) -> list:
        """items sorted by printed form, ties in list order.

        The printed keys come from one show_many batch, and none outlives
        the sort: a caller that walks the result holds only the items.
        """
        keys = self.show_many(items)
        return [items[i] for i in sorted(range(len(items)), key=keys.__getitem__)]

    # -- parsing ----------------------------------------------------------

    def parse(self, text: str, limit: int | None = None):
        """Parse a printed element back to a payload.

        Accepts any structurally valid form and normalizes it (exponents may
        repeat or cancel), so parse(show(g)) == g and hand-written inputs
        like "a3" in C3 fold to canonical payloads. A free word longer than
        limit letters once reduced raises OutOfWindowError before it is spelled.
        """
        s = text.strip()
        if not s:
            raise ElementSyntaxError("empty element")
        if s == "e":
            return self.identity
        return self._parse(s, limit)


# ---------------------------------------------------------------------------
# Generator sets


def standard_generators(group: Group) -> frozenset:
    """The standard symmetric generator set of the family, identity included."""
    return group._generators


def power_generators(group: Group, gens: frozenset, t: int, cap: int | None = None) -> frozenset:
    """All products of up to t factors from gens (gens contains the identity,
    so the t-fold product set is exactly the union of shorter products).

    With a cap, it stops as soon as the set holds more than cap elements
    and raises WindowCapError(cap, 0): the set is the ball B(1) of the
    generators it returns, so no window of radius 1 or more fits the cap.
    """
    if t < 1:
        raise ValueError("power must be at least 1")
    current = set(gens)
    if cap is not None and len(current) > cap:
        raise WindowCapError(cap, 0)
    for _ in range(t - 1):
        grown = set()
        for a in current:
            grown.update([group.mul(a, b) for b in gens])
            if cap is not None and len(grown) > cap:
                raise WindowCapError(cap, 0)
        current = grown
    return frozenset(current)
