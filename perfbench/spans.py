"""Layer spans recorded from outside the program.

The package binds imported names directly (``cli`` holds its own
``build_window``, ``ends`` its own ``interface``, and so on), so patching a
function in its defining module alone misses most calls. ``Tracer.install``
therefore rebinds every ``coarse_ends`` module attribute that *is* a traced
function, wraps three hot methods on their classes, and ``restore`` undoes
all of it. Spans are kept in memory and written once, as JSON lines.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (module, function, counts taken from (args, kwargs, result)) for every
# public entry point timed as a span; the span name is "<module>.<function>"
# without the package prefix.
TRACED_FUNCTIONS = (
    ("cayley", "build_window", lambda a, k, w: {"elements": len(w)}),
    ("ends", "components", lambda a, k, d: {"members": sum(c.size for c in d.components)}),
    ("ends", "end_count", None),
    ("ends", "component_tree", None),
    ("covers", "interface", lambda a, k, rep: {"core_elements": _core_elements(a, k)}),
    ("covers", "clopen_scale_test", None),
    ("asdim", "estimate_delta", None),
    ("asdim", "greedy_ball_cover", lambda a, k, centres: {"centres": len(centres)}),
    ("asdim", "build_annulus_cover", None),
    ("asdim", "verify_cover", None),
    ("asdim", "asdim_upper_bound", None),
    ("cli", "main", None),
)


def _core_elements(args, kwargs) -> int:
    """|B(core_radius)| for a covers.interface(A, B, window, core_radius) call."""
    window = args[2] if len(args) > 2 else kwargs["window"]
    core = args[3] if len(args) > 3 else kwargs["core_radius"]
    return sum(len(sph) for sph in window.spheres[: core + 1])


class Tracer:
    """Span and count recorder for one traced pass; install, run, restore."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, job id]
        self.spans: list = []
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list = []
        self._tallies: list = []  # (count key, one-cell counter) per method
        self._undo: list = []  # (owner, attribute, original value)

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        import coarse_ends.cli  # noqa: F401  (loads every traced module)
        from coarse_ends.cayley import Window
        from coarse_ends.groups import Group

        pkg_modules = [
            m for name, m in sorted(sys.modules.items())
            if name == "coarse_ends" or name.startswith("coarse_ends.")
        ]
        for mod_name, fn_name, count in TRACED_FUNCTIONS:
            original = getattr(sys.modules[f"coarse_ends.{mod_name}"], fn_name)
            wrapper = self._span_wrapper(f"{mod_name}.{fn_name}", original, count)
            for module in pkg_modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)
        self._set(Group, "mul", self._count_wrapper("groups.mul", Group.mul))
        self._set(Group, "show", self._count_wrapper("groups.show", Group.show))
        self._set(Window, "geodesic", self._span_wrapper("cayley.geodesic", Window.geodesic, None))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _span_wrapper(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                counts[calls] += 1
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        tally = [0]
        self._tallies.append((name + ".calls", tally))

        @functools.wraps(fn)
        def wrapper(*args):
            tally[0] += 1
            return fn(*args)

        return wrapper

    # -- results ----------------------------------------------------------

    def totals(self) -> dict:
        """Counts plus inclusive (`.s`) and self (`.self_s`) seconds per span name."""
        out = dict(self.counts)
        for key, tally in self._tallies:
            out[key] = out.get(key, 0) + tally[0]
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name + ".s"] = out.get(name + ".s", 0.0) + (end - start)
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + (end - start - child_time[i])
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "job": job}
                ) + "\n")
