"""Span recording from outside the program: timing wrappers on public functions.

A :class:`Tracer` replaces a function at every binding its callers use (module
attributes of every loaded ``backwater`` module, class attributes, and values
of module-level dicts such as dispatch tables) with a wrapper that records a
span: name, start, end and the enclosing span.  Per function it keeps the call
count and self time (duration minus the time of wrapped children),
and, for the functions named with ``durations=True``, every call's duration.
Spans are kept in memory up to ``SPAN_LIMIT`` and written out by
:meth:`Tracer.write`; the aggregate statistics cover every call.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

#: Spans kept for writing out (about 13 MB of CSV); statistics count every call.
SPAN_LIMIT = 200_000


class _Stat:
    __slots__ = ("calls", "self_time", "durations")

    def __init__(self, keep_durations: bool):
        self.calls = 0
        self.self_time = 0.0
        self.durations = [] if keep_durations else None


class Tracer:
    """In-memory span recorder; install wrappers, run, then :meth:`uninstall`."""

    def __init__(self):
        self.names: list[str] = []
        self.stats: dict[str, _Stat] = {}
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0
        self._next_id = 0
        self._stack: list[list] = []  # [span id, child time, name id]
        self._restore: list[tuple] = []

    # ------------------------------------------------------------------ #

    def _wrap(self, name: str, fn, keep_durations: bool, on_result):
        stat = self.stats[name] = _Stat(keep_durations)
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0, name_id]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.self_time += duration - frame[1]
                if stat.durations is not None:
                    stat.durations.append(duration)
                if stack:
                    stack[-1][1] += duration
                if len(tracer.span_start) < SPAN_LIMIT:
                    tracer.span_id.append(span_id)
                    tracer.span_name.append(name_id)
                    tracer.span_parent.append(parent)
                    tracer.span_start.append(start)
                    tracer.span_end.append(end)
                else:
                    tracer.spans_dropped += 1
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def install(self, module, attr: str, name: str, durations: bool = False, on_result=None):
        """Wrap ``module.attr`` (``attr`` may be ``Class.method``) at every binding.

        A name the program no longer defines is skipped, so its metrics read 0.
        """
        owner_path, _, leaf = attr.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            self.stats[name] = _Stat(durations)
            return
        wrapper = self._wrap(name, original, durations, on_result)
        if owner_path:  # a method: the class attribute is the only binding
            self._set(owner, leaf, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "backwater" or mod_name.startswith("backwater.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = wrapper
                            self._restore.append((value, dkey, original, True))

    def _set(self, owner, key, value):
        self._restore.append((owner, key, getattr(owner, key), False))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original, is_dict in reversed(self._restore):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    # ------------------------------------------------------------------ #

    def inside(self, name: str) -> bool:
        """True while a call of the wrapped function ``name`` is in progress."""
        return any(self.names[frame[2]] == name for frame in self._stack)

    def write(self, path) -> None:
        """Write the kept spans as CSV, in the order they ended; parent -1 is a root."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{self.span_id[i]},{self.span_parent[i]},{self.names[self.span_name[i]]},"
                    f"{self.span_start[i]!r},{self.span_end[i]!r}\n"
                )


def tail(durations: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).  With ten samples or fewer no
    such percentile exists and the maximum is returned with percentile 100.
    """
    n = len(durations)
    if n == 0:
        return 0.0, 0.0, 0
    ordered = sorted(durations)
    if n <= 10:
        return ordered[-1], 100.0, n
    index = n - 11  # ten samples lie strictly beyond this one
    return ordered[index], 100.0 * (index + 1) / n, n

