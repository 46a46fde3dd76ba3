"""Spans recorded from the benchmark's side of each layer boundary.

The tracer replaces public functions and methods at the module or class
attribute other layers call through, so ecsloc itself is not edited.  A
span is (id, name, start, end, parent, request, tag): parent is the span
open on the same thread when it started, request the operation the
workload was running, and tag a small fact about the result (a cache hit,
a record count, or the exception type when the call raised).
"""

from __future__ import annotations

import gzip
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: object
    tag: object


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request = None  # set by the single closed-loop client before each operation
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name, fn, tag=None):
        """*fn* recording a span per call; tag(result) is stored with it."""
        clock = time.perf_counter
        spans = self.spans
        local = self._local

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans.append(Span(sid, name, start, end, parent, self.request, "raised:" + type(exc).__name__))
                raise
            end = clock()
            stack.pop()
            spans.append(Span(sid, name, start, end, parent, self.request, None if tag is None else tag(result)))
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Patch each (owner, attribute, span name, tag) for the duration."""
        saved = []
        try:
            for owner, attr, name, tag in targets:
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    patched = classmethod(self.wrap(name, original.__func__, tag))
                else:
                    patched = self.wrap(name, original, tag)
                setattr(owner, attr, patched)
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """Remove and return the spans recorded so far."""
        spans = self.spans[:]
        del self.spans[:]
        return spans


def layer_targets(ecsloc) -> list:
    """The boundaries traced: what each layer exposes to the layer above."""
    resolver, zone, transport = ecsloc.resolver, ecsloc.zone, ecsloc.transport
    traffic, mud = ecsloc.traffic, ecsloc.mud
    return [
        (resolver, "encode_message", "wire.encode_message", None),
        (resolver, "decode_message", "wire.decode_message", None),
        (zone.GeoZone, "load", "zone.load", None),
        (zone.GeoZone, "lookup", "zone.lookup", None),
        (resolver.Resolver, "handle", "resolver.handle", None),
        (resolver.Resolver, "cache_lookup", "resolver.cache_lookup", lambda entry: entry is not None),
        (resolver.Authoritative, "handle", "resolver.authoritative", None),
        (transport.UdpClient, "exchange", "transport.exchange", None),
        (traffic, "ingest_log", "traffic.ingest_log", len),
        (traffic, "similarity_matrix", "traffic.similarity_matrix", None),
        (traffic, "collapse_pools", "traffic.collapse_pools", None),
        (mud, "generate_mud", "mud.generate_mud", None),
        (mud, "serialize_mud", "mud.serialize_mud", None),
        (mud, "parse_mud", "mud.parse_mud", None),
        (mud, "unify", "mud.unify", None),
        (mud, "ecs_collapse", "mud.ecs_collapse", None),
        (mud, "sweep_table", "mud.sweep_table", None),
    ]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of *intervals*, clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the time its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        s.id: (s.end - s.start) - covered(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def pass_metrics(spans) -> dict:
    """Per-layer metrics of one pass (a fixed block of workload operations).

    `.calls` counts calls in the pass, `.self_us` is mean self time per call,
    `.s` is total inclusive time in the pass, `.self_s` total self time.
    """
    own = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def calls(name):
        return len(by_name[name])

    def self_us(name):
        return _mean([own[s.id] for s in by_name[name]]) * 1e6

    def incl_us(spans_):
        return _mean([s.end - s.start for s in spans_]) * 1e6

    def total_s(name):
        return sum(s.end - s.start for s in by_name[name])

    out = {}
    for name in ("wire.encode_message", "wire.decode_message", "zone.lookup"):
        out[name + ".calls"] = calls(name)
        out[name + ".self_us"] = self_us(name)
    for name in ("resolver.cache_lookup", "resolver.handle", "resolver.authoritative"):
        out[name + ".self_us"] = self_us(name)

    lookups = by_name["resolver.cache_lookup"]
    hits = [s for s in lookups if s.tag]
    hit_parents = {s.parent for s in hits}
    out["resolver.cache_lookup.calls"] = len(lookups)
    out["resolver.cache_hit_ratio"] = len(hits) / len(lookups) if lookups else 0.0
    out["resolver.handle.hit_us"] = incl_us([s for s in by_name["resolver.handle"] if s.id in hit_parents])
    out["resolver.upstream.calls"] = calls("resolver.authoritative")

    exchanges = by_name["transport.exchange"]
    handled = {s.request: s.end - s.start for s in by_name["transport.server_handler"]}
    out["transport.exchange_us"] = incl_us(exchanges)
    out["transport.server_handler_us"] = incl_us(by_name["transport.server_handler"])
    out["transport.overhead_us"] = _mean(
        [s.end - s.start - handled[s.request] for s in exchanges if s.request in handled]
    ) * 1e6
    out["transport.timeouts"] = sum(s.tag == "raised:TimeoutError" for s in exchanges)

    ingest_s = total_s("traffic.ingest_log")
    out["traffic.ingest_log.calls"] = calls("traffic.ingest_log")
    out["traffic.ingest_log.s"] = ingest_s
    records = sum(s.tag for s in by_name["traffic.ingest_log"] if isinstance(s.tag, int))
    out["traffic.ingest_log.records_per_s"] = records / ingest_s if ingest_s else 0.0
    out["traffic.similarity_matrix.s"] = total_s("traffic.similarity_matrix")
    out["traffic.collapse_pools.calls"] = calls("traffic.collapse_pools")
    out["traffic.collapse_pools.s"] = total_s("traffic.collapse_pools")
    for name in ("generate_mud", "serialize_mud", "parse_mud", "ecs_collapse", "sweep_table"):
        out[f"mud.{name}.s"] = total_s("mud." + name)
    out["mud.unify.calls"] = calls("mud.unify")
    out["cli.main.calls"] = calls("cli.main")
    out["cli.main.self_s"] = sum(own[s.id] for s in by_name["cli.main"])
    return out


def combine(passes: list[dict]) -> tuple[dict, list]:
    """Counts from the first pass, times as the median over passes.

    Every pass runs the same operations from the same state, so a count
    that differs between passes is reported in `mismatched`.
    """
    first = passes[0]
    out, mismatched = {}, []
    for key, value in first.items():
        if key.endswith("calls") or key == "transport.timeouts":
            out[key] = value
            if any(p[key] != value for p in passes):
                mismatched.append(key)
        else:
            out[key] = statistics.median(p[key] for p in passes)
    return out, mismatched


def write_spans(path, spans) -> None:
    """Append spans as JSON lines to a gzip file."""
    with gzip.open(path, "at") as fh:
        for s in spans:
            fh.write(json.dumps(s._asdict()) + "\n")
