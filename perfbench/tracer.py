"""Span tracing over mixshare's public functions, installed from outside.

Inside a ``with Tracer(...)`` block every public function and public
method defined in the named modules is replaced, wherever the package
holds a reference to it, by a wrapper that records one span per call.
Spans nest through a stack, so a span's self time is its duration minus
the durations of the spans it encloses. Leaving the block restores the
original objects, so untraced runs in the same process run unwrapped
code.

Hooks are called with a span's arguments before the span starts. They
fill counters that need the program's state (live learners, weight
concentration, repair activity); their own time is charged to no span.
"""

from __future__ import annotations

import collections
import functools
import inspect
import sys
import time
import types


class Tracer:
    def __init__(self, package: str, modules, hooks=None):
        self.package = package
        self.modules = tuple(modules)
        self.hooks = dict(hooks or {})
        self.spans = {}  # name -> [calls, total_ns, self_ns]
        self.counters = collections.Counter()
        self._stack = []  # child-time accumulator of every open span
        self._undo = []

    def targets(self) -> dict:
        """span name -> (owner, attribute, original), owner being the
        defining module or class."""
        out = {}
        for short in self.modules:
            mod = sys.modules.get(f"{self.package}.{short}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    out[f"{short}.{attr}"] = (mod, attr, obj)
                elif inspect.isclass(obj):
                    for meth, val in vars(obj).items():
                        if meth.startswith("_"):
                            continue
                        if inspect.isfunction(val) or isinstance(val, staticmethod):
                            out[f"{short}.{attr}.{meth}"] = (obj, meth, val)
        return out

    def __enter__(self):
        targets = self.targets()
        wrapped = {}  # id(original function) -> (original, wrapper)
        for name, (owner, attr, orig) in targets.items():
            if isinstance(orig, staticmethod):
                wrapper = staticmethod(self._wrap(name, orig.__func__))
            else:
                wrapper = self._wrap(name, orig)
                if isinstance(owner, types.ModuleType):
                    wrapped[id(orig)] = (orig, wrapper)
            self._patch(owner, attr, orig, wrapper)
        # Modules that did `from .x import f` hold their own reference to f.
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == self.package or modname.startswith(self.package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, obj, hit[1])
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        return False

    def _patch(self, owner, attr, orig, wrapper):
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        stats = self.spans.setdefault(name, [0, 0, 0])
        stack = self._stack
        hook = self.hooks.get(name)
        counters = self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if hook is not None:
                h0 = clock()
                hook(counters, *args, **kwargs)
                if stack:
                    stack[-1] += clock() - h0
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - child
                if stack:
                    stack[-1] += dur

        return span
