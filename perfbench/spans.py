"""In-process span tracer for the benchmark.

Spans are recorded from the benchmark's own files: a probe rebinds a
module attribute (for example ``transversal_lab.ramsey.canonical_label``)
to a wrapper that times the call, and the original is put back when the
traced pass ends.  The library itself is not modified.

Per layer the tracer keeps a call count, self and total time, and named
counters.  Self time is a span's duration minus the time its child spans
cover.  The program is single-threaded and every span is a function call,
so children of one span never overlap and their cover is the sum of their
durations; the tracer folds each finished span into its parent on a stack
instead of storing every span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Callable, Iterator, Optional, Sequence, Union

ROOT = "bench"


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


@dataclass(frozen=True)
class Probe:
    """Rebinds ``module.attr`` to a traced wrapper.

    ``layer`` is the layer name, or a function of the enclosing span's
    name for a function whose cost belongs to whichever layer calls it.
    ``pre(args, kwargs)`` runs before the call and its value reaches
    ``post(stats, args, kwargs, result, pre_value)``, which records
    counters after a call that returned normally.
    """

    layer: Union[str, Callable[[str], str]]
    module: ModuleType
    attr: str
    pre: Optional[Callable[[tuple, dict], Any]] = None
    post: Optional[Callable[[LayerStats, tuple, dict, Any, Any], None]] = None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, LayerStats] = {}
        # open spans, innermost last: [name, seconds covered by children]
        self._stack: list[list] = [[ROOT, 0.0]]

    def layer(self, name: str) -> LayerStats:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = LayerStats()
        return st

    def reset(self) -> None:
        self.stats = {}
        # in place: installed wrappers hold a reference to the stack
        self._stack[:] = [[ROOT, 0.0]]

    def root_child_s(self) -> float:
        """Seconds covered by top-level spans since the last reset."""
        return self._stack[0][1]

    def call(self, name: str, fn: Callable, *args):
        """Run fn(*args) as a span named `name`."""
        return self._spanned(name, fn)(*args)

    def _spanned(self, layer, fn: Callable, pre=None, post=None) -> Callable:
        """fn wrapped in a span; see Probe for layer, pre and post."""
        stack, clock, get = self._stack, self.clock, self.layer

        def traced(*args, **kwargs):
            name = layer(stack[-1][0]) if callable(layer) else layer
            token = pre(args, kwargs) if pre is not None else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stack[-1][1] += duration
                st = get(name)
                st.calls += 1
                st.self_s += duration - frame[1]
                st.total_s += duration
            if post is not None:
                post(st, args, kwargs, result, token)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, probes: Sequence[Probe]) -> Iterator["Tracer"]:
        """Rebind every probe's attribute for the duration of the block.

        A missing attribute raises before anything is rebound; the
        originals are restored even when the block raises.
        """
        saved = [(p.module, p.attr, getattr(p.module, p.attr)) for p in probes]
        try:
            for probe, (_, _, original) in zip(probes, saved):
                traced = self._spanned(probe.layer, original, probe.pre, probe.post)
                setattr(probe.module, probe.attr, traced)
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)
