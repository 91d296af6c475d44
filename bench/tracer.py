"""Per-layer attribution by wrapping the public functions of each llk module.

``Tracer.install`` rebinds every public module-level function of the five
layer modules to a timing wrapper and ``Tracer.remove`` puts the originals
back.  Calls between llk modules, and within one, go through module
globals (``cs.longest_chain``, ``c_functions``), so the rebinding catches
them without any change to the program.

Each call is a span on a per-thread stack.  A span's exclusive time is its
duration minus the part of it that its direct child spans cover; a layer's
self time is the sum of the exclusive times of its spans.  Spans that start
in a worker thread with an empty stack are children of the request's root
span (``cli.main``), and the root subtracts the union of their intervals,
so parallel children are not counted twice.  Self times of spans that run
in parallel threads add up, so a layer's self time measures busy time and
can exceed the wall time of a ``--jobs`` request.  Everything is
aggregated in memory and read once the traced pass ends.
"""

import functools
import inspect
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "warped_product", "causal_space", "rigidity", "model_space")

ROOT = "cli.main"

# Functions whose inclusive times are summed as one figure: a call nested
# inside another member of its group adds nothing, so
# sample_warped_product -> sample_suspension is counted once.
GROUPS = {
    "warped_product.sample_warped_product": "warped_product.sample",
    "warped_product.sample_suspension": "warped_product.sample",
    "causal_space.check_triangle_comparison": "causal_space.compare",
    "causal_space.check_monotonicity": "causal_space.compare",
}


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


# Results whose content a per-layer metric reads.
KEEP = {
    "causal_space.validate_space": lambda rep: int(rep.checked),
    "rigidity.build_splitting": lambda res: len(res.slice_space.labels),
}


class _Frame:
    __slots__ = ("key", "layer", "group", "outer", "start", "child", "foreign")

    def __init__(self, key, layer, group, outer, start):
        self.key = key
        self.layer = layer
        self.group = group
        self.outer = outer
        self.start = start
        self.child = 0.0
        self.foreign = None


class Tracer:
    """Span and count accounting for one traced pass."""

    def __init__(self):
        self.calls = Counter()
        self.inclusive = defaultdict(float)  # group -> outermost span time
        self.exclusive = defaultdict(float)  # function -> exclusive time
        self.layer_self = defaultdict(float)
        self.raised = Counter()  # (function, exception class name) -> count
        self.returned = defaultdict(list)  # function -> results kept by KEEP
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root = None
        self._saved = []

    def install(self, modules) -> None:
        """Wrap the public functions of each (layer name, module) pair."""
        for layer, module in modules:
            for name, fn in list(vars(module).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(layer, name, fn))

    def remove(self) -> None:
        """Restore every function that install rebound."""
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)

    def _wrap(self, layer, name, fn):
        key = f"{layer}.{name}"
        group = GROUPS.get(key, key)
        keep = KEEP.get(key)
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(key, layer, group)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                leave(frame, type(exc).__name__)
                raise
            leave(frame)
            if keep is not None:
                self.returned[key].append(keep(result))
            return result

        return traced

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.active = Counter()
        return stack

    def _enter(self, key, layer, group):
        stack = self._stack()
        active = self._local.active
        frame = _Frame(key, layer, group, active[group] == 0, time.perf_counter())
        active[group] += 1
        if not stack and key == ROOT:
            frame.foreign = []
            self._root = frame
        stack.append(frame)
        return frame

    def _leave(self, frame, raised=None):
        end = time.perf_counter()
        stack = self._local.stack
        stack.pop()
        self._local.active[frame.group] -= 1
        duration = end - frame.start
        covered = frame.child
        if frame.foreign:
            covered += _covered(frame.foreign)
        if frame is self._root:
            self._root = None
        with self._lock:
            self.calls[frame.key] += 1
            self.exclusive[frame.key] += duration - covered
            self.layer_self[frame.layer] += duration - covered
            if frame.outer:
                self.inclusive[frame.group] += duration
            if raised is not None:
                self.raised[frame.key, raised] += 1
            if stack:
                stack[-1].child += duration
            elif self._root is not None:
                self._root.foreign.append((frame.start, end))
