"""Executable model of the three resolution architectures, `ARCHITECTURES`.

standard          device sends a plain query; the resolver strips any
                  client-subnet data and the authoritative answers by the
                  resolver's own source prefix (legacy geo mode).
ecs_basic         the resolver rewrites the client-subnet option to the
                  querying device's address, truncated to /24, so answers
                  follow the device's network location.
ecs_user_defined  the device's stub fills the option with the prefix mapped
                  to its user-chosen region and the resolver forwards it
                  untouched, so answers follow the registration choice.

`Resolver` caches each answer in the table of its client-subnet scope, on
an injected virtual clock.  `Resolver.handle` and `Authoritative.handle`
work in octets: each reads the query's ID octets and the rest of it by
`_decode_query`, and packs every reply, echo and OPT record included, by
one `wire.pack_reply` call under those octets, so no message is built per
query.  `Resolver.resolve` is the typed wrapper.

A cache hit computes only the option, by the rule its policy chose at
construction, a key per scope table tried, from the memo `_cache_key`, and
the TTL sent; each other part of its reply is a memo's.  A miss also packs
the upstream query, reads the reply through the memo `_upstream_answer`,
and stores one entry.  The authoritative and the reply read both take an
answer section from the memo behind `wire.answer_segments`, so a section
seen before is not encoded again.  In front of that, each `Authoritative`
keeps a packet cache, keyed on a query's octets after its ID and, with
legacy geo, on its source, of the reply's octets after its ID: a repeated
upstream query is answered with them under its own ID.  It holds
`_MEMO_SIZE` entries of at most `_MEMO_OCTETS` octets each side, under
48 MiB per authoritative at the cap.
"""

from __future__ import annotations

import heapq
import ipaddress
import itertools
import threading
from functools import lru_cache, partial
from math import ceil, isfinite
from pathlib import Path

from . import document
from .errors import Error
from .transport import InProcessLink
from .value import Value
from .wire import (
    PREFIX_MASKS,
    QTYPE_A,
    _MEMO_OCTETS,
    _MEMO_SIZE,
    DnsMessage,
    EcsOption,
    InvalidName,
    _decode,
    _decode_after_id,
    answer_segments,
    canonical_name,
    decode_message,
    encode_message,
    make_query,
    pack_address,
    pack_query,
    pack_reply,
    section_fits,
)
from .zone import DEFAULT_TTL, GeoZone, LocationPrefixMap, NameNotFound

RCODE_SERVFAIL = 2
RCODE_NXDOMAIN = 3

# RFC 7871's security considerations: client-subnet caching multiplies the entries per name
CACHE_MAX_ENTRIES = 10_000

# The rewritten option per (client address, prefix length); like the wire
# memos it keeps no error, so a bad address raises every time
_rewrite_option = lru_cache(maxsize=_MEMO_SIZE)(EcsOption.for_prefix)


@lru_cache(maxsize=_MEMO_SIZE)
def _upstream_answer(body: bytes, qname: str) -> tuple:
    """(rcode, echoed option or None, TTL, answer segments) of an upstream reply: the memo keyed on its
    octets after the ID and on the question's name, which every answer is stored under.

    The TTL is the answers' lowest, as RFC 2181 section 5.2 treats records
    whose TTLs differ, or DEFAULT_TTL when there is no answer.  The memo
    holds a reply of at most `_MEMO_OCTETS` octets after the ID only when
    its answer section, rebuilt under *qname* and bounded as
    `answer_segments` bounds it, fits in as many: answer names that point
    back to a long question name would otherwise store a copy of it each.
    `Resolver.handle` reads any other reply through `__wrapped__`.
    """
    rcode, _, answers, edns = _decode(b"\x00\x00" + body)[4:]
    ttl = min((rr.ttl for rr in answers), default=DEFAULT_TTL)
    return rcode, edns.ecs if edns else None, ttl, answer_segments(qname, [rr.rdata for rr in answers])


class ScenarioError(Error):
    """Scenario wiring or definition problem."""


class Forward(Value, fields=()):
    """Pass a client-supplied client-subnet option upstream unmodified."""


class Strip(Value, fields=()):
    """Remove any client-subnet option before going upstream."""


class RewriteClientSubnet(Value, fields="prefix_len"):
    """Replace the option with the querying client's address truncated to prefix_len."""

    def __new__(cls, prefix_len: int = 24):
        if not 0 <= prefix_len <= 32:
            raise ScenarioError(f"rewrite prefix length {prefix_len} out of range")
        return tuple.__new__(cls, (prefix_len,))


Policy = Forward | Strip | RewriteClientSubnet

# Each architecture of the module docstring to its resolver's policy
ARCHITECTURES = {"standard": Strip(), "ecs_basic": RewriteClientSubnet(24), "ecs_user_defined": Forward()}


class DeviceConfig(Value, fields="device_id ip_based_location user_defined_location client_address"):
    def validate_against(self, prefix_map: LocationPrefixMap) -> None:
        """Check that client_address lies inside the IP-based region's prefix."""
        prefix = prefix_map.prefix_for(self.ip_based_location)
        if ipaddress.ip_address(pack_address(self.client_address)) not in prefix:
            raise ScenarioError(
                f"device {self.device_id}: address {self.client_address} outside "
                f"{self.ip_based_location} prefix {prefix}"
            )


class VirtualClock:
    """Injected monotonic time so TTL expiry is testable.  Only `advance` moves `now`, and never to
    NaN, at which no entry would expire, nor to infinity, at which each would expire once stored."""

    __slots__ = ("now",)  # a plain attribute read on the hit path

    def __init__(self, now: float = 0.0):
        self._move(now)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot set VirtualClock.{name}: the clock moves only by advance()")

    def advance(self, seconds: float) -> None:
        if seconds != seconds:
            raise ValueError("clock step cannot be NaN")
        if seconds < 0:
            raise ValueError("clock cannot go backwards")
        self._move(self.now + seconds)

    def _move(self, now: float) -> None:
        if not isfinite(now):
            raise ValueError(f"clock time must be finite, got {now}")
        object.__setattr__(self, "now", now)


class CacheEntry(Value, fields="scope_prefix_len segments stored_at ttl"):
    """A cached answer: *segments* is the upstream's answer section under the question's name,
    cut out around each TTL field, stored at virtual time *stored_at* for *ttl* whole seconds."""


def _decode_query(payload: bytes, receiver: str) -> tuple[bytes, DnsMessage, EcsOption | None]:
    """The query *payload*'s ID octets, its message with ID 0 read as `decode_message` reads it, and its option
    or None; a response raises ScenarioError naming *receiver*."""
    if len(payload) < 2:  # no ID: read as is, to raise Truncated
        decode_message(payload)
    if type(payload) is not bytes:  # a bytes-like payload, read as decode_message reads it
        payload = bytes(payload)
    query = _decode_after_id(payload[2:])
    if query.is_response:
        raise ScenarioError(f"{receiver} got a response instead of a query")
    return payload[:2], query, query.edns.ecs if query.edns else None


def stub_query(
    cfg: DeviceConfig,
    qname: str,
    prefix_map: LocationPrefixMap,
) -> DnsMessage:
    """Device-side query carrying the user-defined region's prefix, not the device address."""
    prefix = prefix_map.prefix_for(cfg.user_defined_location)
    return make_query(qname, ecs=EcsOption.for_prefix(prefix.network_address, prefix.prefixlen))


class Authoritative:
    """Zone-backed authoritative endpoint.

    With legacy_geo set, a query that carries no client-subnet option is
    answered by the querying source's /24, an option taken from the rewrite
    policy's memo; this models classic resolver-location answering.  The
    flag is explicit per scenario, never ambient.

    A reply after its ID is a function of the query's octets after its ID
    and, with legacy_geo, of the source, so each instance keeps a packet
    cache: an `lru_cache` of `_MEMO_SIZE` entries keyed on those octets of
    a `bytes` query and on the source (on "" without legacy_geo, so every
    source shares an entry), holding the reply's octets after its ID.  As
    the package memos do, it keys no query and holds no reply of more than
    `_MEMO_OCTETS` octets after the ID (a long reply is held as None and
    packed each time), and stores nothing for a query that raises.  A
    stored reply does not follow a later change to the zone's records.
    """

    def __init__(self, zone: GeoZone, *, legacy_geo: bool = False):
        self._zone, self._legacy_geo = zone, legacy_geo
        # bound to the zone and the flag, not to self, so no reference cycle holds the instance
        self._replies = lru_cache(maxsize=_MEMO_SIZE)(partial(_reply_body, zone, legacy_geo))

    @property
    def zone(self) -> GeoZone:
        """The zone given at construction, which the packet cache answers from; it cannot be set."""
        return self._zone

    @property
    def legacy_geo(self) -> bool:
        """The flag given at construction, which the packet cache is keyed by; it cannot be set."""
        return self._legacy_geo

    def handle(self, payload: bytes, source: str) -> bytes:
        """The wire reply to the query *payload* from *source*: the packet cache's when it holds it, else
        packed by `wire.pack_reply`."""
        if type(payload) is bytes and 2 <= len(payload) <= _MEMO_OCTETS + 2:
            body = self._replies(payload[2:], source if self._legacy_geo else "")
            if body is not None:
                return payload[:2] + body
        return _reply(self._zone, self._legacy_geo, payload, source)

    def cache_info(self):
        """The packet cache's hits, misses, maximum size and current size, as `lru_cache` counts them."""
        return self._replies.cache_info()


def _reply(zone: GeoZone, legacy_geo: bool, payload: bytes, source: str) -> bytes:
    """The wire reply of an `Authoritative` on *zone* with *legacy_geo* to the query *payload* from *source*."""
    msg_id, query, ecs = _decode_query(payload, "authoritative")
    qname, qtype, _ = query.question
    lookup_ecs = ecs
    if ecs is None and legacy_geo and source:
        lookup_ecs = _rewrite_option(source, 24)
    try:
        result = zone.lookup(qname, lookup_ecs)
    except NameNotFound:
        return pack_reply(msg_id, query, ecs, 0, rcode=RCODE_NXDOMAIN)
    octets = 4 if qtype == QTYPE_A else 16
    segments = answer_segments(qname, [rdata for rdata in result.addresses if len(rdata) == octets])
    return pack_reply(msg_id, query, ecs, result.scope, segments, result.ttl)


def _reply_body(zone: GeoZone, legacy_geo: bool, body: bytes, source: str) -> bytes | None:
    """`_reply`'s octets after the ID for the query whose octets after the ID are *body*, or None when they
    pass `_MEMO_OCTETS`: what an `Authoritative`'s packet cache holds, keyed on *body* and *source*."""
    reply = _reply(zone, legacy_geo, b"\x00\x00" + body, source)[2:]
    return reply if len(reply) <= _MEMO_OCTETS else None


@lru_cache(maxsize=_MEMO_SIZE)
def _cache_key(scope: int, *ecs) -> tuple:
    """Key in the *scope* table of the network of the option whose fields are *ecs*, none for no option: the
    memo keyed on them all, so a lookup compares only numbers and octets.

    Scope 0 answers every client, with or without an option (RFC 7871
    section 7.3.1), so its table has one key for every family.
    """
    if scope == 0:
        return (0, 0)
    family = ecs[0]
    return (family, tuple.__new__(EcsOption, ecs).address_int() & PREFIX_MASKS[family][scope])


def _option_rule(policy: Policy):
    """The function of (incoming option, source address) that gives the option *policy* sends upstream."""
    match policy:
        case Forward():
            return lambda incoming, source: incoming
        case Strip():
            return lambda incoming, source: None
        case RewriteClientSubnet(prefix_len=plen):
            return lambda incoming, source: _rewrite_option(source, plen)
    raise ScenarioError(f"unknown policy {policy!r}")


class Resolver:
    """Recursive resolver applying one policy, with a scope-aware cache.

    The cache holds one bucket per question: a table per answer scope,
    most specific first, each mapping a client network (`_cache_key`) to
    its entry.  No table or bucket is left empty.  Calls must be
    serialized per instance; handle() takes a lock so the UDP front end
    satisfies that automatically.  At most CACHE_MAX_ENTRIES entries are
    live: a store beyond that evicts the entry closest to expiry, oldest
    store first on a tie.  The counters are hits, misses,
    stores, expiries, evictions, bad_echoes, nxdomains (an upstream
    NXDOMAIN, an answer) and upstream_errors (any other nonzero rcode).
    """

    def __init__(
        self,
        policy: Policy,
        location: str,
        upstream,
        prefix_map: LocationPrefixMap,
        *,
        clock: VirtualClock | None = None,
    ):
        self._policy, self._option = policy, _option_rule(policy)
        self.upstream = upstream
        self.clock = clock if clock is not None else VirtualClock()
        self.address = str(prefix_map.prefix_for(location).network_address + 1)
        # (qname, qtype) -> {scope: {_cache_key: entry}}
        self._cache: dict[tuple[str, int], dict[int, dict[tuple, CacheEntry]]] = {}
        # (expiry time, store order, (qname, qtype), key, entry), one per store;
        # the entry itself tells a live record from a stale one
        self._heap: list[tuple] = []
        self._order = itertools.count()
        self._size = 0
        self.hits = self.misses = self.stores = self.expiries = self.evictions = 0
        self.bad_echoes = self.nxdomains = self.upstream_errors = 0
        self._lock = threading.Lock()

    def handle(self, payload: bytes, source: str) -> bytes:
        """The wire reply to the query *payload* from *source*: one policy run and one cache lookup.

        A miss asks the upstream and stores its answer, then is answered as a
        hit is: the entry's segments joined at its TTL less the seconds begun
        since the store, but at least 1 once one has begun.
        """
        with self._lock:
            msg_id, query, incoming = _decode_query(payload, "resolver")
            qname, qtype, _ = query.question
            effective = self._option(incoming, source)

            entry = self.cache_lookup(qname, qtype, effective)
            if entry is None:
                self.misses += 1
                upstream_query = pack_query(int.from_bytes(msg_id, "big"), query.question, effective)
                reply = bytes(self.upstream.exchange(upstream_query, self.address))
                if len(reply) < 2:  # no ID: read as is, to raise Truncated
                    decode_message(reply)
                body = reply[2:]
                # from the memo when the reply, and its ANCOUNT answers under the question's name, fit in it
                fits = len(body) <= _MEMO_OCTETS and section_fits(qname, int.from_bytes(body[4:6], "big"))
                rcode, echo, ttl, segments = (_upstream_answer if fits else _upstream_answer.__wrapped__)(body, qname)
                if rcode:
                    self.nxdomains += rcode == RCODE_NXDOMAIN  # an answer, not an error
                    self.upstream_errors += rcode != RCODE_NXDOMAIN
                    return pack_reply(msg_id, query, effective, 0, rcode=rcode)
                # RFC 7871 section 7.3: the echo's family, source prefix and address are the query's (whose scope is 0)
                if echo is not None and effective is not None and (
                        echo.address != effective.address or echo[:2] != effective[:2]):
                    self.bad_echoes += 1
                    return pack_reply(msg_id, query, effective, 0, rcode=RCODE_SERVFAIL)
                scope = echo.scope_prefix_len if echo is not None else 0
                entry = self._store(qname, qtype, scope, effective, segments, ttl)
            else:
                self.hits += 1
            scope, segments, stored_at, ttl = entry
            now = self.clock.now
            if now != stored_at:
                ttl = max(1, ttl - ceil(now - stored_at))
            return pack_reply(msg_id, query, effective, scope, segments, ttl)

    def resolve(self, query: DnsMessage, source: str) -> DnsMessage:
        """`handle` for a query given as a message: its reply decoded."""
        return decode_message(self.handle(encode_message(query), source))

    @property
    def policy(self) -> Policy:
        """The policy given at construction, which chose the option rule; it cannot be set."""
        return self._policy

    def effective_ecs(self, incoming: EcsOption | None, source: str) -> EcsOption | None:
        """The option sent upstream for a query from *source* that carries *incoming*."""
        return self._option(incoming, source)

    def cache_lookup(self, qname: str, qtype: int, ecs: EcsOption | None) -> CacheEntry | None:
        """Most specific unexpired entry matching under scope semantics, if any.

        A scope-0 entry matches any (and absent) option; an entry with
        positive scope needs an option of its family, at least that
        specific, whose address truncated to the scope equals the stored
        network.  Expired entries are dropped first, when the heap's head
        says one is due.
        """
        heap = self._heap
        if heap and heap[0][0] <= self.clock.now:
            self._expire(self.clock.now)
        bucket = self._cache.get((qname, qtype))
        if bucket is None:
            return None
        fields = ecs or ()
        for scope, table in bucket.items():
            if scope and (ecs is None or ecs.source_prefix_len < scope):
                continue
            entry = table.get(_cache_key(scope, *fields))
            if entry is not None:
                return entry
        return None

    def _store(self, qname, qtype, scope, ecs, segments, ttl):
        """The entry of answer *segments* for *ttl*, cached unless no later query could match it."""
        now = self.clock.now
        entry = tuple.__new__(CacheEntry, (scope, segments, now, ttl))  # not through namedtuple's Python __new__
        if ecs is None and scope:
            return entry  # a scoped answer to an option-less query
        key = _cache_key(scope, *(ecs or ()))
        heap = self._heap
        if heap and heap[0][0] <= now:
            self._expire(now)
        name = (qname, qtype)
        bucket = self._cache.setdefault(name, {})
        table = bucket.get(scope)
        if table is None:
            table = bucket[scope] = {}
            for known in sorted(bucket, reverse=True):  # re-insert, most specific first
                bucket[known] = bucket.pop(known)
        if key not in table:
            self._size += 1
        table[key] = entry
        heapq.heappush(heap, (now + ttl, next(self._order), name, key, entry))
        self.stores += 1
        if self._size > CACHE_MAX_ENTRIES:
            while not self._drop(heapq.heappop(heap)):
                pass
            self.evictions += 1
        if len(heap) > 2 * CACHE_MAX_ENTRIES:
            self._heap = [record for record in heap if self._holds(record)]
            heapq.heapify(self._heap)
        return entry

    def _expire(self, now: float) -> None:
        """Drop every entry whose expiry time has come."""
        heap = self._heap
        while heap and heap[0][0] <= now:
            if self._drop(heapq.heappop(heap)):
                self.expiries += 1

    def _holds(self, record: tuple) -> bool:
        """Whether the entry of heap *record* is still cached, not overwritten or dropped."""
        _, _, name, key, entry = record
        bucket = self._cache.get(name)
        table = bucket and bucket.get(entry.scope_prefix_len)
        return table is not None and table.get(key) is entry

    def _drop(self, record: tuple) -> bool:
        """Drop the entry of heap *record*, its table and bucket if left empty; False for a stale record."""
        if not self._holds(record):
            return False
        _, _, name, key, entry = record
        bucket = self._cache[name]
        table = bucket[entry.scope_prefix_len]
        del table[key]
        self._size -= 1
        if not table:
            del bucket[entry.scope_prefix_len]
            if not bucket:
                del self._cache[name]
        return True


class Hop(Value, fields="sender receiver message"):
    def fields(self, index: int) -> tuple:
        ecs = self.message.edns.ecs if self.message.edns else None
        if ecs is None:
            fam = plen = addr = scope = "-"
        else:
            fam = str(ecs.family)
            plen = str(ecs.source_prefix_len)
            addr = ecs.address_str()
            scope = str(ecs.scope_prefix_len)
        ips = ";".join(rr.address() for rr in self.message.answers) or "-"
        return (str(index), self.sender, self.receiver, self.message.question.qname, fam, plen, addr, ips, scope)


TRANSCRIPT_HEADER = "hop_index,sender,receiver,qname,ecs_family,ecs_prefix,ecs_address,answer_ips,scope"


class ScenarioTranscript(Value, fields="architecture hops"):
    def __new__(cls, architecture: str, hops: tuple[Hop, ...]):
        if not hops:
            raise ScenarioError("transcript has no hops")
        if hops[0].sender != "device" or hops[-1].receiver != "device":
            raise ScenarioError("transcript must start and end at the device")
        return tuple.__new__(cls, (architecture, hops))

    def final_answers(self) -> tuple[str, ...]:
        return tuple(rr.address() for rr in self.hops[-1].message.answers)

    def render(self) -> str:
        lines = [TRANSCRIPT_HEADER]
        for i, hop in enumerate(self.hops, start=1):
            lines.append(",".join(hop.fields(i)))
        return "\n".join(lines) + "\n"


def run_scenario(
    arch: str,
    cfg: DeviceConfig,
    qname: str,
    zone: GeoZone,
    resolver_location: str,
    *,
    policy: Policy | None = None,
) -> ScenarioTranscript:
    """Run one query through the chosen architecture and record every hop."""
    if not isinstance(arch, str) or arch not in ARCHITECTURES:  # a list or dict cannot be hashed
        raise ScenarioError(f"unknown architecture {arch!r}; expected one of {tuple(ARCHITECTURES)}")
    if policy is None:
        policy = ARCHITECTURES[arch]
    prefix_map = zone.regions
    cfg.validate_against(prefix_map)
    if arch == "ecs_user_defined":
        query = stub_query(cfg, qname, prefix_map)
    else:
        query = make_query(qname)
    hops = [Hop("device", "resolver", query)]
    authoritative = Authoritative(zone, legacy_geo=(arch == "standard"))

    def recorded_link(payload: bytes, source: str) -> bytes:
        hops.append(Hop("resolver", "authoritative", decode_message(payload)))
        reply = authoritative.handle(payload, source)
        hops.append(Hop("authoritative", "resolver", decode_message(reply)))
        return reply

    resolver = Resolver(policy, resolver_location, InProcessLink(recorded_link), prefix_map)
    hops.append(Hop("resolver", "device", resolver.resolve(query, cfg.client_address)))
    return ScenarioTranscript(architecture=arch, hops=tuple(hops))


class ScenarioSpec(
    Value, fields="architecture device qname zone_path resolver_location policy", defaults=(None,)
):
    """A scenario document: its DeviceConfig, canonical qname, resolved zone Path and Policy override."""


def parse_scenario(data: bytes | str, path) -> ScenarioSpec:
    """Parse a scenario document read from *path*; its zone path is resolved relative to *path*'s directory."""
    path = Path(path)
    doc = document.obj(document.parse(data, path, ScenarioError), path, ScenarioError)
    arch, device_doc, qname, zone_rel, resolver_doc = (
        document.field(doc, key, path, ScenarioError)
        for key in ("architecture", "device", "qname", "zone", "resolver")
    )
    if not isinstance(arch, str) or arch not in ARCHITECTURES:
        raise ScenarioError(f"{path}: unknown architecture {arch!r}")
    device_doc = document.obj(device_doc, f"{path}: device", ScenarioError)
    cfg = DeviceConfig(*(
        document.field(device_doc, key, f"{path}: device", ScenarioError, document.text)
        for key in DeviceConfig._fields
    ))
    resolver_doc = document.obj(resolver_doc, f"{path}: resolver", ScenarioError)
    resolver_location = document.field(
        resolver_doc, "location", f"{path}: resolver", ScenarioError, document.text
    )
    with document.at(f"{path}: qname", ScenarioError, InvalidName):
        qname = canonical_name(qname)
    policy = None
    if "policy" in resolver_doc:
        policy = _parse_policy(resolver_doc["policy"], path)
    zone_path = (path.parent / document.text(zone_rel, f"{path}: zone", ScenarioError)).resolve()
    return ScenarioSpec(
        architecture=arch,
        device=cfg,
        qname=qname,
        zone_path=zone_path,
        resolver_location=resolver_location,
        policy=policy,
    )


def _parse_policy(raw, path) -> Policy:
    if raw == "forward":
        return Forward()
    if raw == "strip":
        return Strip()
    if isinstance(raw, dict) and "rewrite_client_subnet" in raw:
        prefix_len = document.integer(
            raw["rewrite_client_subnet"], f"{path}: policy.rewrite_client_subnet", ScenarioError
        )
        with document.at(f"{path}: policy", ScenarioError, ScenarioError):
            return RewriteClientSubnet(prefix_len)
    raise ScenarioError(f"{path}: unknown policy {raw!r}")
