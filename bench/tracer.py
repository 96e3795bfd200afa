"""Call tracing from outside the package.

``Tracer.install`` replaces each target function by a timing wrapper in
*every* ``laytrop`` module that binds it -- the defining module, the
package namespace and each module that did ``from .x import f`` -- and
``uninstall`` puts the originals back.  Every wrapped call is counted and
its self time (duration minus the wrapped calls beneath it) is summed per
function; only the coarse boundaries in ``SPAN_NAMES`` also keep a span
record, so memory stays bounded however many hot calls a run makes.
Generators returned by a wrapped function are timed on every resume.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from inspect import CO_GENERATOR
from types import GeneratorType

import ref

# module -> functions wrapped; the listed ones feed the per-layer metrics
TARGETS = {
    "sorts": ("require_layer", "layer_add", "layer_mul", "layer_pow_int"),
    "scalars": ("ls_add", "ls_mul", "ls_pow"),
    "polys": ("p_mul", "p_eval", "full_form"),
    "factor": ("primary_decomposition", "eval_sort"),
    "resultants": ("layered_permanent", "sylvester", "resultant"),
    "calculus": ("derivative", "discriminant"),
    "multivar": ("mp_eval", "grid_scan", "corner_locus_on_grid"),
    "parsing": ("parse_poly",),
    "cli": ("run",),
}
SPAN_NAMES = frozenset(
    {
        "resultants.resultant",
        "calculus.discriminant",
        "factor.primary_decomposition",
        "multivar.grid_scan",
        "multivar.corner_locus_on_grid",
        "parsing.parse_poly",
        "cli.run",
    }
)


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()  # per function
        self.in_span = Counter()  # (function, innermost span) -> calls
        self.spans = []  # [name, start, end, parent index]
        self.perm_sizes = []
        self.points = Counter()  # span name -> lattice points requested
        self._frames = [[0.0]]  # child-time accumulators of the open calls
        self._open = [-1]  # indices of the open spans
        self._patched = []

    # -- installation ----------------------------------------------------------

    def install(self, package):
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        wrappers = {}
        for modname, names in TARGETS.items():
            mod = sys.modules.get(f"{package}.{modname}")
            if mod is None:
                continue
            for fname in names:
                orig = getattr(mod, fname)
                wrappers[id(orig)] = (orig, self._wrap(f"{modname}.{fname}", orig))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
        return [orig for orig, _ in wrappers.values()]

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- wrappers ----------------------------------------------------------------

    def _observe(self, name, args):
        if name == "resultants.layered_permanent":
            self.perm_sizes.append(args[0].rows)
        elif name in ("multivar.grid_scan", "multivar.corner_locus_on_grid"):
            self.points[name] += ref.lattice_size(args[1])

    def _wrap(self, name, fn):
        calls = self.calls
        self_s = self.self_s
        in_span = self.in_span
        frames = self._frames
        open_spans = self._open
        spans = self.spans
        clock = time.perf_counter
        is_span = name in SPAN_NAMES
        observed = name in (
            "resultants.layered_permanent",
            "multivar.grid_scan",
            "multivar.corner_locus_on_grid",
        )

        def resume(gen, index):
            while True:
                frames.append([0.0])
                open_spans.append(index)
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    child = frames.pop()[0]
                    frames[-1][0] += dt
                    self_s[name] += dt - child
                    open_spans.pop()
                    spans[index][2] = clock()
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            top = open_spans[-1]
            in_span[name, spans[top][0] if top >= 0 else None] += 1
            if observed:
                self._observe(name, args)
            frames.append([0.0])
            if is_span:
                index = len(spans)
                spans.append([name, clock(), None, top])
                open_spans.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = frames.pop()[0]
                frames[-1][0] += dt
                self_s[name] += dt - child
                if is_span:
                    open_spans.pop()
                    spans[index][2] = clock()
            if is_span and isinstance(result, GeneratorType):
                return resume(result, index)
            return result

        return wrapper

    # -- the op boundary ---------------------------------------------------------

    def op_span(self, call, op):
        """Run ``call(op)`` as an ``op`` span, the root of the spans it causes."""
        open_spans = self._open
        index = len(self.spans)
        self.spans.append(["op", time.perf_counter(), None, open_spans[-1]])
        open_spans.append(index)
        try:
            return call(op)
        finally:
            open_spans.pop()
            self.spans[index][2] = time.perf_counter()


def count_calls(codes, call, ops):
    """Count calls of the given code objects with a profile hook, which sees
    every call however the function was reached; returns a Counter."""
    seen = Counter()
    wanted = {code: name for name, code in codes.items()}
    resumed = set()  # generator frames already counted; a resume is no call

    def hook(frame, event, arg):
        if event == "call":
            name = wanted.get(frame.f_code)
            if name is not None:
                if frame.f_code.co_flags & CO_GENERATOR:
                    if frame in resumed:
                        return
                    resumed.add(frame)
                seen[name] += 1

    sys.setprofile(hook)
    try:
        for op in ops:
            call(op)
    finally:
        sys.setprofile(None)
    return seen
