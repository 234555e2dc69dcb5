"""Self-time spans and counters recorded around the simulator's layers.

A `Tracer` wraps callables so that each call becomes a span. Spans nest on
one stack: when a span ends, its duration is added to its parent's child
time, and its own self time is its duration minus the time its children
took. Every child's duration is subtracted from its direct parent exactly
once, so the self times of all spans under a root add up to the root's
duration, recursion included.

Spans are aggregated in memory per name (self seconds and call count)
instead of being kept one by one: a 400-node run makes millions of calls.

Wrap targets are named `"module:Qualified.name"` and resolved when `install`
runs, so a renamed or deleted function shows up as absent instead of
crashing the benchmark. `install` restores every original on exit.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps

HOOK_SPAN = "trace.hooks"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []    # child seconds accumulated by each open span

    def span(self, name, fn):
        """`fn` wrapped so that every call is timed as a span called `name`."""
        clock = self.clock
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += dt
        return wrapper

    def observe(self, fn, hook):
        """`fn` followed by `hook(args, result)`, the hook timed on its own
        span so that counting does not inflate the layer it observes."""
        timed_hook = self.span(HOOK_SPAN, hook)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            timed_hook(args, result)
            return result
        return wrapper

    @contextmanager
    def install(self, targets, hooks=None):
        """Wrap each `(span name, target)` for the duration of the block.

        Several targets may share one span name. `hooks` maps a target to a
        `hook(args, result)` run after each call. Yields the list of targets
        that could not be resolved.
        """
        hooks = hooks or {}
        patched = []
        absent = []
        try:
            for name, target in targets:
                found = resolve(target)
                if found is None:
                    absent.append(target)
                    continue
                owner, attr, original = found
                wrapped = self.span(name, original)
                if target in hooks:
                    wrapped = self.observe(wrapped, hooks[target])
                setattr(owner, attr, wrapped)
                patched.append((owner, attr, original))
            yield absent
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)


def resolve(target):
    """`"module:Qualified.name"` -> (owner, attribute, callable) or None.

    The attribute must be defined on the owner itself (not inherited), so
    that restoring it puts back exactly what was there.
    """
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = vars(owner).get(attr)
    if not callable(original):
        return None
    return owner, attr, original
