"""Executable model of the three resolution architectures.

standard          device sends a plain query; the resolver strips any
                  client-subnet data and the authoritative answers by the
                  resolver's own source prefix (legacy geo mode).
ecs_basic         the resolver rewrites the client-subnet option to the
                  querying device's address, so answers follow the device's
                  network location.
ecs_user_defined  the device's stub fills the option with the prefix mapped
                  to its user-chosen region and the resolver forwards it
                  untouched, so answers follow the registration choice.

The resolver caches under client-subnet scope semantics with an injected
virtual clock; a single resolver instance expects serialized calls.
"""

from __future__ import annotations

import ipaddress
import json
import threading
from pathlib import Path

from .errors import Error
from .transport import InProcessLink
from .value import Value
from .wire import (
    PREFIX_MASKS,
    QTYPE_A,
    DnsMessage,
    EcsOption,
    InvalidName,
    ResourceRecord,
    canonical_name,
    decode_message,
    encode_message,
    make_query,
    make_response,
    pack_address,
)
from .zone import DEFAULT_TTL, GeoZone, LocationPrefixMap, NameNotFound

RCODE_SERVFAIL = 2
RCODE_NXDOMAIN = 3

ARCHITECTURES = ("standard", "ecs_basic", "ecs_user_defined")


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
    """Injected monotonic time so TTL expiry is testable."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("clock cannot go backwards")
        self.now += seconds


class CacheEntry(Value, fields="scope_prefix_len records expires_at"):
    """A cached answer: *records* are the upstream's answers, as received."""


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
    answered by the querying source's /24, which models classic
    resolver-location answering; the flag is explicit per scenario, never
    ambient.
    """

    def __init__(self, zone: GeoZone, *, legacy_geo: bool = False):
        self.zone = zone
        self.legacy_geo = legacy_geo

    def handle(self, payload: bytes, source: str) -> bytes:
        return encode_message(self.respond(decode_message(payload), source))

    def respond(self, query: DnsMessage, source: str = "") -> DnsMessage:
        question = query.question
        ecs = query.edns.ecs if query.edns else None
        lookup_ecs = ecs
        if ecs is None and self.legacy_geo and source:
            lookup_ecs = EcsOption.for_prefix(source, 24)
        try:
            result = self.zone.lookup(question.qname, lookup_ecs)
        except NameNotFound:
            return make_response(query, rcode=RCODE_NXDOMAIN, ecs=_echo(ecs, 0))
        octets = 4 if question.qtype == QTYPE_A else 16
        answers = tuple(
            ResourceRecord(question.qname, question.qtype, result.ttl, rdata)
            for rdata in result.addresses
            if len(rdata) == octets
        )
        return make_response(query, answers, ecs=_echo(ecs, result.scope))


def _cache_key(ecs: EcsOption | None, scope: int, address: int) -> tuple:
    """Cache key of the network *address* (the option's, as an integer) at *scope*.

    Scope 0 answers every client, with or without an option (RFC 7871
    section 7.3.1), so it has one key for every family.
    """
    if scope == 0:
        return (0, 0, 0)
    return (ecs.family, scope, address & PREFIX_MASKS[ecs.family][scope])


def _echo(ecs: EcsOption | None, scope: int) -> EcsOption | None:
    return None if ecs is None else ecs.with_scope(scope)


class Resolver:
    """Recursive resolver applying one policy, with a scope-aware cache.

    Calls must be serialized per instance; handle() takes a lock so the UDP
    front end satisfies that automatically.
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
        self.policy = policy
        self.location = location
        self.upstream = upstream
        self.prefix_map = prefix_map
        self.clock = clock if clock is not None else VirtualClock()
        self.address = str(prefix_map.prefix_for(location).network_address + 1)
        # (qname, qtype) -> ({(family, scope, network int): entry}, scopes most specific first)
        self._cache: dict[tuple[str, int], tuple[dict, list[int]]] = {}
        self._lock = threading.Lock()

    def handle(self, payload: bytes, source: str) -> bytes:
        with self._lock:
            return encode_message(self.resolve(decode_message(payload), source))

    def effective_ecs(self, incoming: EcsOption | None, source: str) -> EcsOption | None:
        match self.policy:
            case Forward():
                return incoming
            case Strip():
                return None
            case RewriteClientSubnet(prefix_len=plen):
                return EcsOption.for_prefix(source, plen)
        raise ScenarioError(f"unknown policy {self.policy!r}")

    def cache_lookup(self, qname: str, qtype: int, ecs: EcsOption | None) -> CacheEntry | None:
        """Most specific unexpired entry matching under scope semantics, if any.

        A scope-0 entry matches any (and absent) option; an entry with
        positive scope needs an option of its family, at least that
        specific, whose address truncated to the scope equals the stored
        network.  Expired entries met on the way are dropped.
        """
        bucket = self._cache.get((qname, qtype))
        if bucket is None:
            return None
        entries, scopes = bucket
        address = ecs.address_int() if ecs is not None else 0
        for scope in scopes:
            if scope and (ecs is None or ecs.source_prefix_len < scope):
                continue
            key = _cache_key(ecs, scope, address)
            entry = entries.get(key)
            if entry is not None:
                if entry.expires_at > self.clock.now:
                    return entry
                del entries[key]
        return None

    def _store(self, qname, qtype, scope, ecs, records, ttl):
        if ecs is None and scope:
            return  # no later query could match a scoped answer to an option-less one
        key = _cache_key(ecs, scope, ecs.address_int() if scope else 0)
        now = self.clock.now
        bucket = self._cache.get((qname, qtype))
        entries = {k: e for k, e in bucket[0].items() if e.expires_at > now} if bucket else {}
        entries[key] = CacheEntry(scope, records, now + ttl)
        self._cache[(qname, qtype)] = (entries, sorted({k[1] for k in entries}, reverse=True))

    def resolve(self, query: DnsMessage, source: str) -> DnsMessage:
        if query.is_response:
            raise ScenarioError("resolver got a response instead of a query")
        question = query.question
        incoming = query.edns.ecs if query.edns else None
        effective = self.effective_ecs(incoming, source)

        entry = self.cache_lookup(question.qname, question.qtype, effective)
        if entry is not None:
            remaining = max(1, int(entry.expires_at - self.clock.now))
            answers = tuple(
                ResourceRecord(question.qname, rr.rtype, remaining, rr.rdata) for rr in entry.records
            )
            return make_response(query, answers, ecs=_echo(effective, entry.scope_prefix_len))

        upstream_query = make_query(
            question.qname, question.qtype, msg_id=query.id, ecs=effective
        )
        upstream_response = decode_message(
            self.upstream.exchange(encode_message(upstream_query), self.address)
        )

        if upstream_response.rcode != 0:
            return make_response(
                query, rcode=upstream_response.rcode, ecs=_echo(effective, 0)
            )
        echo = upstream_response.edns.ecs if upstream_response.edns else None
        sent = effective and (effective.family, effective.source_prefix_len, effective.address)
        if echo is not None and sent and (echo.family, echo.source_prefix_len, echo.address) != sent:
            return make_response(query, rcode=RCODE_SERVFAIL, ecs=_echo(effective, 0))  # RFC 7871 section 7.3
        scope = echo.scope_prefix_len if echo is not None else 0
        ttl = min((rr.ttl for rr in upstream_response.answers), default=DEFAULT_TTL)
        self._store(question.qname, question.qtype, scope, effective, upstream_response.answers, ttl)
        return make_response(query, upstream_response.answers, ecs=_echo(effective, scope))


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


def policy_for_architecture(arch: str) -> Policy:
    if arch == "standard":
        return Strip()
    if arch == "ecs_basic":
        return RewriteClientSubnet(24)
    if arch == "ecs_user_defined":
        return Forward()
    raise ScenarioError(f"unknown architecture {arch!r}; expected one of {ARCHITECTURES}")


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
    arch_policy = policy_for_architecture(arch)  # raises for an unknown architecture
    if policy is None:
        policy = arch_policy
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
    response = decode_message(resolver.handle(encode_message(query), cfg.client_address))
    hops.append(Hop("resolver", "device", response))
    return ScenarioTranscript(architecture=arch, hops=tuple(hops))


class ScenarioSpec(
    Value, fields="architecture device qname zone_path resolver_location policy", defaults=(None,)
):
    """A scenario document: its DeviceConfig, canonical qname, resolved zone Path and Policy override."""

def load_scenario(path) -> ScenarioSpec:
    """Read a scenario document; the zone path is resolved relative to the file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    try:
        arch = doc["architecture"]
        device_doc = doc["device"]
        qname = doc["qname"]
        zone_rel = doc["zone"]
        resolver_doc = doc["resolver"]
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"{path}: missing field {exc}") from None
    if arch not in ARCHITECTURES:
        raise ScenarioError(f"{path}: unknown architecture {arch!r}")

    def text(doc, section, key):
        value = doc[key]
        if not isinstance(value, str):
            raise ScenarioError(f"{path}: {section}.{key}: must be text, got {value!r}")
        return value

    try:
        cfg = DeviceConfig(
            device_id=text(device_doc, "device", "device_id"),
            ip_based_location=text(device_doc, "device", "ip_based_location"),
            user_defined_location=text(device_doc, "device", "user_defined_location"),
            client_address=text(device_doc, "device", "client_address"),
        )
        resolver_location = text(resolver_doc, "resolver", "location")
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"{path}: missing field {exc}") from None
    try:
        qname = canonical_name(qname)
    except InvalidName as exc:
        raise ScenarioError(f"{path}: qname: {exc}") from None
    policy = None
    if "policy" in resolver_doc:
        policy = _parse_policy(resolver_doc["policy"], path)
    if not isinstance(zone_rel, str):
        raise ScenarioError(f"{path}: zone: must be text, got {zone_rel!r}")
    zone_path = (path.parent / zone_rel).resolve()
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
        prefix_len = raw["rewrite_client_subnet"]
        if type(prefix_len) is not int:  # a JSON true, 24.9 or "24" is no prefix length
            raise ScenarioError(f"{path}: policy: rewrite_client_subnet must be an integer, got {prefix_len!r}")
        try:
            return RewriteClientSubnet(prefix_len)
        except ScenarioError as exc:
            raise ScenarioError(f"{path}: policy: {exc}") from None
    raise ScenarioError(f"{path}: unknown policy {raw!r}")
