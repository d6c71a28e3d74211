"""In-memory span tracing of qmeasure's layers, applied from outside the package.

The tracer rebinds the names through which one module calls another (for
example ``qmeasure.cli.sample_spectra`` or ``qmeasure.verify.numeric_cdf``) to
wrappers that record a span per call: layer, name, start, end, parent span,
the workload call it belongs to, whether it raised, how many rows it was asked
for and, for calls that receive a random stream, how many 64-bit Philox words
the call drew. Nothing under ``src/`` is edited; ``uninstall`` restores every
original binding.
"""

from __future__ import annotations

import csv
import functools
import math
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

import numpy as np


def rng_position(gen: np.random.Generator) -> int:
    """Number of 64-bit words a Philox generator has produced, up to a constant.

    Philox4x64 fills a buffer of four words per counter step and hands them
    out one at a time, so the position is 4 * counter + buffer_pos. The
    difference of two positions is the exact count of words drawn between them.
    """
    state = gen.bit_generator.state
    if state["bit_generator"] != "Philox":
        raise TypeError(f"expected a Philox generator, got {state['bit_generator']}")
    counter = sum(int(word) << (64 * i) for i, word in enumerate(state["state"]["counter"]))
    return 4 * counter + int(state["buffer_pos"])


def _generator_in(args, kwargs) -> Optional[np.random.Generator]:
    for value in list(args) + list(kwargs.values()):
        if isinstance(value, np.random.Generator):
            return value
        rng = getattr(value, "rng", None)
        if isinstance(rng, np.random.Generator):
            return rng
    return None


@dataclass(frozen=True)
class Span:
    call_id: int
    span_id: int
    parent_id: int
    layer: str
    name: str
    start: float
    end: float
    failed: bool
    size: Optional[int]
    rng_words: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One binding to trace: ``owner.attr`` becomes a span named ``name``.

    ``size`` maps the call's (args, kwargs) to the number of rows it works on.
    ``rng`` asks the wrapper to count the Philox words the call draws.
    """

    owner: object
    attr: str
    layer: str
    name: str
    size: Optional[Callable] = None
    rng: bool = False


class Tracer:
    """Collects spans in memory while installed; see :func:`self_times`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.call_id = 0
        # off while the benchmark checks outputs, so only workload calls record
        self.recording = True
        self.missing: list[str] = []
        self._ids = iter(range(1, 2**62))
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_thread = threading.get_ident()
        self._owner_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner_thread:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        # A worker thread started by a traced call (mc_estimate's pool) has an
        # empty stack; its parent is the span open on the benchmark's thread.
        return self._owner_stack[-1] if self._owner_stack else 0

    def wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = tracer._parent(stack)
            with tracer._lock:
                span_id = next(tracer._ids)
            gen = _generator_in(args, kwargs) if target.rng else None
            before = rng_position(gen) if gen is not None else None
            size = target.size(args, kwargs) if target.size is not None else None
            call_id = tracer.call_id
            stack.append(span_id)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                words = rng_position(gen) - before if gen is not None else None
                tracer.spans.append(Span(call_id, span_id, parent, target.layer, target.name,
                                         start, end, failed, size, words))

        return traced

    def install(self, targets: list[Target]) -> None:
        for target in targets:
            original = getattr(target.owner, target.attr, None)
            if original is None:
                self.missing.append(target.name)
                continue
            self._saved.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, self.wrap(target, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["call_id", "span_id", "parent_id", "layer", "name", "start_s",
                          "end_s", "self_s", "failed", "size", "rng_words"])
            own = self_times(self.spans)
            for s in self.spans:
                out.writerow([s.call_id, s.span_id, s.parent_id, s.layer, s.name,
                              f"{s.start:.9f}", f"{s.end:.9f}", f"{own[s.span_id]:.9f}",
                              int(s.failed), "" if s.size is None else s.size,
                              "" if s.rng_words is None else s.rng_words])


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def busy_time(spans: list[Span]) -> float:
    """Wall time during which at least one of the spans ran: spans that
    overlap (mc_estimate's worker threads) count once, so a rate divided by
    it shows a parallel speed-up."""
    return covered([(s.start, s.end) for s in spans], -math.inf, math.inf)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        children[s.parent_id].append((s.start, s.end))
    return {s.span_id: s.duration - covered(children[s.span_id], s.start, s.end)
            for s in spans}
