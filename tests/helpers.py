"""Shared fixtures-in-spirit: memoized windows and random element soup."""

import functools

from hypothesis import strategies as st

from coarse_ends import (
    Group,
    build_window,
    parse_spec,
    power_generators,
    standard_generators,
)

# the zoo: one representative per supported family plus mixed shapes
ZOO = ["Z", "Z^2", "F2", "C2", "C6", "(Z x C2)", "(C2 * C2)", "(C2 * C3)"]


@functools.lru_cache(maxsize=None)
def get_group(spec_text: str) -> Group:
    return Group(parse_spec(spec_text))


@functools.lru_cache(maxsize=None)
def get_gens(spec_text: str, power: int = 1):
    group = get_group(spec_text)
    gens = standard_generators(group)
    if power > 1:
        gens = power_generators(group, gens, power)
    return gens


@functools.lru_cache(maxsize=None)
def get_window(spec_text: str, radius: int, power: int = 1, table: bool = False):
    """table=True for a window whose generator table a test reads."""
    return build_window(get_group(spec_text), get_gens(spec_text, power), radius, table=table)


def random_element(group: Group, rng, max_len: int = 6):
    """Random product of at most max_len standard generators."""
    gens = sorted(standard_generators(group), key=group.show)
    x = group.identity
    for _ in range(rng.randrange(max_len + 1)):
        x = group.mul(x, rng.choice(gens))
    return x


def random_subset(window, rng, density: float = 0.4):
    return {g for g in window if rng.random() < density}


def nested_specs(depth):
    """Spec strings: a leaf family, or a direct or free product of two
    specs of depth less than depth."""
    leaf = st.sampled_from(["Z", "Z^2", "F2", "C1", "C2", "C3", "C4"])
    if depth == 0:
        return leaf
    inner = nested_specs(depth - 1)
    pair = st.tuples(inner, st.sampled_from("x*"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})")
    return st.one_of(leaf, pair)
