"""Spans and counters installed on the program's functions from outside.

A :class:`Tracer` replaces a function or method with a wrapper that times
each call and counts its work, and puts the original back when it is
uninstalled.  A module-level function is often imported by name into
other modules (``from .client import draw_flags``), so the wrapper goes
on every alias of the original object in the modules given to
:meth:`Tracer.install`, not only on the module that defines it.  Methods
are wrapped once, in their class.

Spans nest: a span's self time is its duration minus the time of the
spans called inside it.  Garbage-collector pauses are recorded through
``gc.callbacks`` while the tracer is installed.
"""

from __future__ import annotations

import gc
import time
from collections import Counter
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Callable, Iterable

# (args, kwargs, result) -> amount of work done by one call
WorkCount = Callable[[tuple, dict, Any], int]


@dataclass(frozen=True)
class Hook:
    """One function or method to wrap.

    ``target`` is ``"function"`` or ``"Class.method"`` inside ``module``.
    A span (``count_only`` false) times every call; a counter only
    counts calls, and with ``inside`` also counts the calls made while a
    span of that name is open.  ``work`` adds each call's amount to the
    ``<name>.<unit>`` counter for every ``unit`` it names.
    """

    name: str
    module: str
    target: str
    work: dict[str, WorkCount] = field(default_factory=dict)
    keep_samples: bool = False
    count_only: bool = False
    inside: str | None = None


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    samples: list[int] | None = None


class Tracer:
    """Wraps hooks, records spans and counts, and restores on exit."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: dict[str, SpanStats] = {}
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self.gc_ns = 0
        self.gc_collections = 0
        # Open spans, innermost last: [name, start_ns, child_ns].
        self._stack: list[list] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._gc_started: int | None = None

    # -- install / uninstall ---------------------------------------------

    def install(
        self, hooks: Iterable[Hook], modules: dict[str, ModuleType]
    ) -> None:
        """Wrap every hook; ``modules`` maps module names to modules.

        A hook whose module or attribute does not exist is skipped and
        listed in :attr:`missing`, so its metrics read zero.
        """
        for hook in hooks:
            module = modules.get(hook.module)
            owner_name, _, attr = hook.target.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner):
                self.missing.append(hook.name)
                continue
            original = vars(owner)[attr]
            wrapper = self._wrap(hook, original)
            if owner_name:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules.values():
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, alias, original, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Put every original attribute back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        counts = self.counts
        stack = self._stack
        work = tuple(
            (f"{hook.name}.{unit}", measure) for unit, measure in hook.work.items()
        )

        if hook.count_only:
            calls_key = f"{hook.name}.calls"
            inside_key = f"{hook.name}.calls_in.{hook.inside}"
            inside = hook.inside

            def counted(*args, **kwargs):
                counts[calls_key] += 1
                if inside is not None and any(f[0] == inside for f in stack):
                    counts[inside_key] += 1
                return fn(*args, **kwargs)

            counted.__wrapped__ = fn
            return counted

        stats = self.spans.setdefault(hook.name, SpanStats())
        if hook.keep_samples and stats.samples is None:
            stats.samples = []
        clock = self.clock
        name = hook.name

        def timed(*args, **kwargs):
            frame = [name, clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                stats.calls += 1
                stats.total_ns += duration
                stats.self_ns += duration - frame[2]
                if stats.samples is not None:
                    stats.samples.append(duration)
                if stack:
                    stack[-1][2] += duration
            for key, measure in work:
                counts[key] += measure(args, kwargs, result)
            return result

        timed.__wrapped__ = fn
        return timed

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = self.clock()
        elif self._gc_started is not None:
            self.gc_ns += self.clock() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None

    # -- results ------------------------------------------------------------

    def span(self, name: str) -> SpanStats:
        return self.spans.get(name, SpanStats())
