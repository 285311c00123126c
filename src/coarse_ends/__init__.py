"""Coarse-geometric invariants of finitely generated groups, computed from
finite Cayley-graph windows: end counts, end-approximation trees, coarsely
clopen certificates, growth and covering data, and an asymptotic-dimension
upper-bound witness for window-hyperbolic inputs.

Each module's __all__ is its public surface; the package re-exports them.
"""

from . import asdim, cayley, covers, ends, errors, groups
from .asdim import *
from .cayley import *
from .covers import *
from .ends import *
from .errors import *
from .groups import *

__version__ = "0.1.0"

__all__ = sorted(
    name for module in (asdim, cayley, covers, ends, errors, groups) for name in module.__all__
)
