"""In-memory spans around the package's public entry points.

``Tracer.install`` replaces each entry point in ``ENTRY_POINTS`` (a module
or class attribute) with a wrapper that records one span per call: id,
parent span id (the enclosing span on the same thread), name, start and end
in ``perf_counter_ns``, the target host, and the class of an exception that
left the call. ``uninstall`` puts the originals back, so untraced code runs
exactly as shipped. Spans stay in memory; ``write`` saves them at the end.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

import common  # noqa: F401  (package source on sys.path)
from censorprobe import classify, dnswire, emulator, httpwire, probe, report

ENTRY_POINTS = [
    (probe, "run_target", "probe.run_target"),
    (probe, "dns_step", "probe.dns_step"),
    (probe, "tcp_step", "probe.tcp_step"),
    (probe, "keyword_step", "probe.keyword_step"),
    (probe, "http_step", "probe.http_step"),
    (dnswire, "query", "dnswire.query"),
    (dnswire, "encode_query", "dnswire.encode_query"),
    (dnswire, "decode_message", "dnswire.decode_message"),
    (httpwire, "fetch", "httpwire.fetch"),
    (emulator, "handle_dns", "emulator.handle_dns"),
    (emulator.CensorPolicy, "matched_rule", "emulator.matched_rule"),
    (emulator.CensorPolicy, "dns_blocked", "emulator.dns_blocked"),
    (emulator.OriginStub, "response_for", "emulator.response_for"),
    (emulator, "serve_warning_site", "emulator.serve_warning_site"),
    (classify, "classify_target", "classify.classify_target"),
    (report, "emit", "report.emit"),
    (report, "load", "report.load"),
    (report, "aggregate", "report.aggregate"),
]

# Both the probe (through dnswire.query) and the emulator's DNS handler call
# decode_message; its span name gets the caller's side as a suffix.
CALLER_TAGGED = {"dnswire.decode_message"}

# how each span that starts a target's work names the target
TARGET_OF = {
    "probe.run_target": lambda args: args[0].host,
    "classify.classify_target": lambda args: args[0].target.host,
}

# (id, parent id or 0, name, start ns, end ns, target host or None, error class or None)
Span = tuple


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        # thread CPU of each probe.run_target call; the rest of the probe
        # process's CPU is the benchmark's own thread and the emulator threads
        self.run_target_cpu_ns: list[int] = []
        self.threads_peak = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name in ENTRY_POINTS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str):
        local, spans, ids = self._local, self.spans, self._ids
        tagged = name in CALLER_TAGGED
        target_of = TARGET_OF.get(name)
        on_emulator = name.startswith("emulator.")
        thread_cpu = name == "probe.run_target"
        emulator_module = emulator.__name__

        def traced(*args, **kwargs):
            span_name = name
            if tagged:
                caller = sys._getframe(1).f_globals.get("__name__")
                span_name += ".emulator" if caller == emulator_module else ".probe"
            if on_emulator:
                threads = threading.active_count()
                if threads > self.threads_peak:
                    self.threads_peak = threads
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            outer_target = getattr(local, "target", None)
            target = target_of(args) if target_of else outer_target
            local.target = target
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            error = None
            cpu0 = time.thread_time_ns() if thread_cpu else 0
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                if thread_cpu:
                    self.run_target_cpu_ns.append(time.thread_time_ns() - cpu0)
                stack.pop()
                local.target = outer_target
                spans.append((sid, parent, span_name, start, end, target, error))

        traced.__wrapped__ = fn
        return traced


def write(path, spans: list[Span]) -> None:
    """One JSON object per span and line."""
    keys = ("id", "parent", "name", "start_ns", "end_ns", "target", "error")
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def merge(own: list[Span], other: list[Span]) -> list[Span]:
    """Spans of two processes in one list; the other's ids are shifted."""
    shift = 1 + max((s[0] for s in own), default=0)
    moved = [
        (sid + shift, parent + shift if parent else 0, *rest)
        for sid, parent, *rest in other
    ]
    return own + moved


class SpanStats:
    """Durations, self times and error counts per span name."""

    def __init__(self, spans: list[Span]):
        child_ns: dict[int, int] = defaultdict(int)
        for sid, parent, _name, start, end, _target, _error in spans:
            if parent:
                child_ns[parent] += end - start
        self.durations_ms: dict[str, list[float]] = defaultdict(list)
        self.self_ms: dict[str, list[float]] = defaultdict(list)
        self.errors: dict[str, list[str]] = defaultdict(list)
        for sid, _parent, name, start, end, _target, error in spans:
            self.durations_ms[name].append((end - start) / 1e6)
            self.self_ms[name].append((end - start - child_ns[sid]) / 1e6)
            if error:
                self.errors[name].append(error)

    def count(self, name: str) -> int:
        return len(self.durations_ms.get(name, ()))

    def total_ms(self, name: str) -> float:
        return sum(self.durations_ms.get(name, ()))

    def quantile_ms(self, name: str, q: int) -> float:
        return percentile(self.durations_ms.get(name, []), q)

    def layer_self_ms(self, layer: str) -> float:
        """Self time of every span of one module, such as ``dnswire``."""
        return sum(
            sum(times) for name, times in self.self_ms.items() if name.split(".")[0] == layer
        )


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99), interpolated; 0.0 when nothing was seen."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
