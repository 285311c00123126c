"""Exception types shared across the package, each with its CLI exit code."""

from __future__ import annotations

__all__ = [
    "CoarseEndsError",
    "SpecSyntaxError",
    "ElementSyntaxError",
    "MismatchError",
    "UnsupportedSpecError",
    "OutOfWindowError",
    "WindowCapError",
    "CoreRadiusError",
    "ParameterError",
    "EmptyShellError",
    "NonHyperbolicError",
    "CoverVerificationError",
    "SelectorError",
]


class CoarseEndsError(Exception):
    """Base class for every error this package raises deliberately."""

    exit_code = 1


class SpecSyntaxError(CoarseEndsError):
    """Malformed group spec string; carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ElementSyntaxError(CoarseEndsError):
    """Malformed printed element."""


class MismatchError(CoarseEndsError):
    """Payload does not belong to the group it was used with."""


class UnsupportedSpecError(CoarseEndsError):
    """Spec is grammatical but outside desk-scale support (letter budget)."""


class OutOfWindowError(CoarseEndsError):
    """Element or distance falls outside the built window."""

    exit_code = 4


class WindowCapError(CoarseEndsError):
    """Element cap, or a generator table's entry budget, hit during window
    construction; cap is the value of the bound that was passed, and name
    names it."""

    exit_code = 2

    def __init__(self, cap: int, radius_reached: int, name: str = "window element cap"):
        super().__init__(f"{name} {cap} exceeded; last fully built radius {radius_reached}")
        self.cap = cap
        self.radius_reached = radius_reached


class CoreRadiusError(CoarseEndsError):
    """Requested core radius is too large for the window and scale."""

    exit_code = 4


class ParameterError(CoarseEndsError):
    """Operation parameters violate a stated precondition."""

    exit_code = 4


class EmptyShellError(CoarseEndsError):
    """Annulus construction hit an empty shell (group exhausted)."""

    exit_code = 4


class NonHyperbolicError(CoarseEndsError):
    """Hyperbolicity probe failed; carries the probed delta values."""

    exit_code = 4

    def __init__(self, radii: tuple[int, ...], values: tuple[int, ...]):
        super().__init__(
            "geodesic divergence grows with the window "
            f"(delta_hat {list(values)} at radii {list(radii)}); refusing"
        )
        self.radii = radii
        self.values = values


class CoverVerificationError(CoarseEndsError):
    """A cover law failed; message names the offending set or probe center."""

    exit_code = 4


class SelectorError(CoarseEndsError):
    """Set selector string is malformed or names a missing component."""
