"""Shared test utilities: independent oracles, builders and randomized generators.

Each oracle is written against other primitives than the package path it
checks, so agreement between the two is meaningful:

- the client-subnet reference encoder (`reference_truncate`,
  `reference_ecs_rdata`) packs with socket.inet_pton, then zeroes host bits
  with integer masks and assembles the option from hex text, while the
  package's `truncate_to_prefix` and `EcsOption.for_prefix` pack through
  `wire.pack_address` (also socket.inet_pton) and zero host bits by byte
  slicing and a last-octet mask: the packing is shared, the truncation
  and the option layout are not;
- the package's address rule (`wire.pack_address`, `wire.address_text`)
  is socket.inet_pton/inet_ntop, and the tests check it against the
  ipaddress module, as they check `for_prefix` against
  `ipaddress.ip_network`, and as `record_for_address` here packs;
- the whole-message reference encoder (`reference_message`) packs each
  RFC 1035 section 4.1 field with its own `struct` call and takes the
  option data from `reference_ecs_rdata`, with no part of `wire`'s encoder;
- the reference resolver (`reference_handle`) answers as `Resolver.handle`
  did when a hit was a `DnsMessage`: it builds every reply and upstream
  query with `make_response` or `make_query` and encodes it with
  `reference_message`, and reads a cache entry's records back from its
  segments octet by octet (`cached_records`);
- the reference authoritative (`reference_respond`) answers as
  `Authoritative.handle` did before it packed its reply: a `DnsMessage`
  built by `make_response`, with the legacy-geo option built afresh by
  `EcsOption.for_prefix` on every call.
"""

from __future__ import annotations

import ipaddress
import json
import math
import random
import socket
import string
import struct
from pathlib import Path

from ecsloc.mud import Ace, MudFile
from ecsloc.resolver import ScenarioError, parse_scenario
from ecsloc.wire import (
    DEFAULT_UDP_PAYLOAD,
    QTYPE_A,
    QTYPE_AAAA,
    DnsMessage,
    EcsOption,
    EdnsOpt,
    Question,
    ResourceRecord,
    answer_segments,
    decode_message,
    make_query,
    truncate_to_prefix,
)
from ecsloc.zone import DEFAULT_TTL, NameNotFound

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def reference_truncate(address_text: str, prefix_len: int, family: int = 1) -> bytes:
    """Bitmask oracle: zero host bits with integer arithmetic, keep ceil(p/8) octets."""
    af = socket.AF_INET if family == 1 else socket.AF_INET6
    packed = socket.inet_pton(af, address_text)
    bits = len(packed) * 8
    value = int.from_bytes(packed, "big")
    mask = (((1 << prefix_len) - 1) << (bits - prefix_len)) if prefix_len else 0
    value &= mask
    return value.to_bytes(len(packed), "big")[: (prefix_len + 7) // 8]


def reference_ecs_rdata(family: int, source: int, scope: int, address_text: str) -> bytes:
    """Reference option-data encoder assembled from a hex string.

    Field order per RFC 7871 section 6: FAMILY (2 octets, network order),
    SOURCE PREFIX-LENGTH (1), SCOPE PREFIX-LENGTH (1), truncated ADDRESS.
    """
    hexed = f"{family:04x}{source:02x}{scope:02x}"
    hexed += reference_truncate(address_text, source, family).hex()
    return bytes.fromhex(hexed)


def reference_name(name: str) -> bytes:
    """Uncompressed wire name: each label after its length octet, then the zero octet."""
    return b"".join(struct.pack("!B", len(label)) + label.encode("ascii") for label in name.split(".")) + b"\x00"


def reference_message(msg: DnsMessage) -> bytes:
    """Reference wire encoder: header, question, answers and OPT packed field by field, never compressed."""
    flags = msg.is_response << 15 | msg.recursion_desired << 8 | msg.recursion_available << 7 | msg.rcode
    question, edns = msg.question, msg.edns
    out = struct.pack("!HHHHHH", msg.id, flags, 1, len(msg.answers), 0, int(edns is not None))
    out += reference_name(question.qname) + struct.pack("!HH", question.qtype, question.qclass)
    for rr in msg.answers:
        out += reference_name(rr.name) + struct.pack("!HHIH", rr.rtype, 1, rr.ttl, len(rr.rdata)) + rr.rdata
    if edns is not None:
        options = b""
        if edns.ecs is not None:
            ecs = edns.ecs
            padded = ecs.address.ljust(4 if ecs.family == 1 else 16, b"\x00")
            text = str(ipaddress.ip_address(padded))
            data = reference_ecs_rdata(ecs.family, ecs.source_prefix_len, ecs.scope_prefix_len, text)
            options = struct.pack("!HH", 8, len(data)) + data
        out += b"\x00" + struct.pack("!HHIH", 41, edns.udp_payload_size, 0, len(options)) + options
    return out


def make_response(
    query: DnsMessage,
    answers: tuple[ResourceRecord, ...] = (),
    *,
    rcode: int = 0,
    ecs: EcsOption | None = None,
) -> DnsMessage:
    """A response echoing the query's id and question, as a checked message.

    It has an OPT record, carrying *ecs*, when the query has one or *ecs* is
    given: of the query's payload size, or the default when only the
    response has EDNS.
    """
    edns = query.edns
    if edns is not None or ecs is not None:
        edns = EdnsOpt(edns.udp_payload_size if edns is not None else DEFAULT_UDP_PAYLOAD, ecs)
    return DnsMessage(
        id=query.id,
        is_response=True,
        recursion_desired=query.recursion_desired,
        recursion_available=True,
        rcode=rcode,
        question=query.question,
        answers=tuple(answers),
        edns=edns,
    )


def reference_respond(zone, legacy_geo: bool, query: DnsMessage, source: str = "") -> DnsMessage:
    """The authoritative's answer to *query* from *source*, built as a message.

    With *legacy_geo* set, an option-less query is looked up by *source*'s /24.
    """
    question = query.question
    ecs = query.edns.ecs if query.edns else None

    def echo(scope):
        return None if ecs is None else ecs.replace(scope_prefix_len=scope)

    lookup_ecs = ecs
    if ecs is None and legacy_geo and source:
        lookup_ecs = EcsOption.for_prefix(source, 24)
    try:
        result = zone.lookup(question.qname, lookup_ecs)
    except NameNotFound:
        return make_response(query, rcode=3, ecs=echo(0))
    octets = 4 if question.qtype == QTYPE_A else 16
    answers = tuple(
        ResourceRecord(question.qname, question.qtype, result.ttl, rdata)
        for rdata in result.addresses
        if len(rdata) == octets
    )
    return make_response(query, answers, ecs=echo(result.scope))


def cached_records(entry, ttl: int = 0) -> tuple[ResourceRecord, ...]:
    """The records of a resolver `CacheEntry` at *ttl*, read from its segments label by label and field by field."""
    section = struct.pack("!I", ttl).join(entry.segments)
    records = []
    pos = 0
    while pos < len(section):
        labels = []
        while section[pos]:
            labels.append(section[pos + 1 : pos + 1 + section[pos]].decode("ascii"))
            pos += 1 + section[pos]
        rtype, rclass, rttl, rdlength = struct.unpack_from("!HHIH", section, pos + 1)
        assert rclass == 1
        pos += 11
        records.append(ResourceRecord(".".join(labels), rtype, rttl, section[pos : pos + rdlength]))
        pos += rdlength
    assert len(records) == len(entry.segments) - 1
    return tuple(records)


def reference_handle(resolver, payload: bytes, source: str) -> bytes:
    """*resolver*'s reply to *payload* from *source*, built as a message and encoded by `reference_message`.

    A hit re-issues the entry's records at the whole TTL at its store
    instant and at the whole seconds left, at least 1, after it; a miss sends
    the reference encoding of `make_query` upstream, stores the answer, cut
    by `wire.answer_segments`, with the resolver's own `_store` and sends its
    records under the question's name at their lowest TTL.  The counters
    move as in `handle`.
    """
    query = decode_message(payload)
    if query.is_response:
        raise ScenarioError("resolver got a response instead of a query")
    qname, qtype, _ = query.question
    effective = resolver.effective_ecs(query.edns.ecs if query.edns else None, source)

    def echo(scope):
        return None if effective is None else effective.replace(scope_prefix_len=scope)

    entry = resolver.cache_lookup(qname, qtype, effective)
    if entry is not None:
        resolver.hits += 1
        elapsed = resolver.clock.now - entry.stored_at
        remaining = entry.ttl if elapsed == 0 else max(1, entry.ttl - math.ceil(elapsed))
        return reference_message(make_response(query, cached_records(entry, remaining), ecs=echo(entry.scope_prefix_len)))
    resolver.misses += 1
    upstream_query = reference_message(make_query(qname, qtype, msg_id=query.id, ecs=effective))
    response = decode_message(resolver.upstream.exchange(upstream_query, resolver.address))
    if response.rcode != 0:
        if response.rcode == 3:  # NXDOMAIN, an answer
            resolver.nxdomains += 1
        else:
            resolver.upstream_errors += 1
        return reference_message(make_response(query, rcode=response.rcode, ecs=echo(0)))
    got = response.edns.ecs if response.edns else None
    if got is not None and effective is not None and got.replace(scope_prefix_len=0) != effective:
        resolver.bad_echoes += 1
        return reference_message(make_response(query, rcode=2, ecs=echo(0)))
    scope = 0 if got is None else got.scope_prefix_len
    # RFC 2181 section 5.2: records whose TTLs differ are treated as if all had the lowest
    ttl = min((rr.ttl for rr in response.answers), default=DEFAULT_TTL)
    answers = tuple(ResourceRecord(qname, rr.rtype, ttl, rr.rdata) for rr in response.answers)
    resolver._store(qname, qtype, scope, effective, answer_segments(qname, [rr.rdata for rr in answers]), ttl)
    return reference_message(make_response(query, answers, ecs=echo(scope)))


def load_scenario(path):
    """The scenario document at *path*, read by `resolver.parse_scenario`."""
    return parse_scenario(Path(path).read_bytes(), path)


def record_for_address(name: str, address, ttl: int) -> ResourceRecord:
    """A or AAAA record for *address* text, typed by its family."""
    ip = ipaddress.ip_address(address)
    rtype = QTYPE_A if ip.version == 4 else QTYPE_AAAA
    return ResourceRecord(name=name, rtype=rtype, ttl=ttl, rdata=ip.packed)


def network_at(ecs: EcsOption, prefix_len: int) -> bytes:
    """The option's padded address truncated to *prefix_len*, ceil(prefix_len / 8) octets."""
    return truncate_to_prefix(ecs.padded_address(), prefix_len)


def region_codes(prefix_map) -> tuple[str, ...]:
    """Sorted region codes of a LocationPrefixMap."""
    return tuple(sorted(prefix_map.entries))


def zone_qnames(zone) -> tuple[str, ...]:
    """Sorted qnames of a GeoZone."""
    return tuple(sorted(zone.records))


def rand_name(rng: random.Random, max_labels: int = 4) -> str:
    alphabet = string.ascii_lowercase + string.digits
    labels = []
    for _ in range(rng.randint(1, max_labels)):
        length = rng.randint(1, 12)
        labels.append("".join(rng.choice(alphabet) for _ in range(length)))
    return ".".join(labels)


def rand_v4(rng: random.Random) -> str:
    return ".".join(str(rng.randint(0, 255)) for _ in range(4))


def rand_v6(rng: random.Random) -> str:
    return ":".join(f"{rng.randint(0, 0xFFFF):x}" for _ in range(8))


def rand_ecs(rng: random.Random, scope_allowed: bool = False) -> EcsOption:
    if rng.random() < 0.8:
        family, bits, addr = 1, 32, rand_v4(rng)
    else:
        family, bits, addr = 2, 128, rand_v6(rng)
    source = rng.randint(0, bits)
    scope = rng.randint(0, bits) if scope_allowed else 0
    return EcsOption.for_prefix(addr, source, scope_prefix_len=scope) if source else EcsOption(
        family=family, source_prefix_len=0, scope_prefix_len=scope, address=b""
    )


def rand_message(rng: random.Random) -> DnsMessage:
    is_response = rng.random() < 0.5
    qtype = rng.choice((QTYPE_A, QTYPE_AAAA))
    qname = rand_name(rng)
    answers = ()
    if is_response:
        answers = tuple(
            record_for_address(
                rand_name(rng),
                rand_v4(rng) if rng.random() < 0.7 else rand_v6(rng),
                ttl=rng.randint(0, 86400),
            )
            for _ in range(rng.randint(0, 3))
        )
    edns = None
    if rng.random() < 0.7:
        ecs = rand_ecs(rng, scope_allowed=is_response) if rng.random() < 0.8 else None
        edns = EdnsOpt(udp_payload_size=rng.randint(512, 4096), ecs=ecs)
    return DnsMessage(
        id=rng.randint(0, 0xFFFF),
        is_response=is_response,
        recursion_desired=rng.random() < 0.8,
        recursion_available=is_response and rng.random() < 0.8,
        rcode=rng.choice((0, 0, 0, 2, 3)) if is_response else 0,
        question=Question(qname, qtype),
        answers=answers,
        edns=edns,
    )


def rand_ace(rng: random.Random) -> Ace:
    kind = rng.random()
    if kind < 0.6:
        endpoint = rand_name(rng)
    elif kind < 0.8:
        endpoint = rand_v4(rng)
    else:
        endpoint = ":".join(f"{rng.randint(0, 255):02x}" for _ in range(6))
    protocol = rng.choice(("tcp", "udp", "icmp", "any"))
    if protocol == "icmp":
        src = dst = None
    else:
        src = None if rng.random() < 0.5 else rng.randint(0, 65535)
        dst = None if rng.random() < 0.5 else rng.randint(0, 65535)
    return Ace(
        endpoint=endpoint,
        protocol=protocol,
        direction=rng.choice(("from-device", "to-device")),
        source_port=src,
        destination_port=dst,
        action=rng.choice(("accept", "accept", "drop")),
    )


def rand_mud(rng: random.Random, device_id: str | None = None) -> MudFile:
    if device_id is None:
        device_id = "dev-" + rand_name(rng, max_labels=1)
    return MudFile(
        device_id=device_id,
        mud_url=f"urn:mud:{device_id}",
        acl=tuple(rand_ace(rng) for _ in range(rng.randint(0, 8))),
    )


# every region code a zone accepts
TWO_LETTER_CODES = [a + b for a in string.ascii_uppercase for b in string.ascii_uppercase]


def wide_zone_text(seed: int, regions: int = 512, qnames: int = 8) -> str:
    """A seeded zone document: *regions* regions, every fourth an IPv6 one, each qname answering in all of them.

    IPv4 regions are /16, /20 or /24 in distinct /16 blocks and IPv6 ones
    /48 or /56 in distinct /48 blocks, so no two overlap.
    """
    rng = random.Random(seed)
    codes = rng.sample(TWO_LETTER_CODES, regions)
    prefixes = {
        code: f"2001:db8:{i:x}::/{rng.choice((48, 56))}" if i % 4 == 3
        else f"{10 + i // 256}.{i % 256}.0.0/{rng.choice((16, 20, 24))}"
        for i, code in enumerate(codes)
    }
    records = {
        f"svc{q}.bench.example": {
            "ttl": 60,
            "answers": [
                {
                    "region": code,
                    "addresses": [
                        f"2001:db8:ffff::{q:x}:{i:x}:{j}" if ":" in prefixes[code] else f"100.{64 + q}.{i // 4}.{j + 1}"
                        for j in range(rng.randint(1, 2))
                    ],
                }
                for i, code in enumerate(codes)
            ],
        }
        for q in range(qnames)
    }
    return json.dumps({"origin": "bench.example", "regions": prefixes, "records": records})


def capture_log_text(seed: int, lines: int = 4000) -> str:
    """A seeded capture log of *lines* lines: two devices, ten user-defined locations, some lines out of order."""
    rng = random.Random(seed)
    regions = rng.sample(TWO_LETTER_CODES, 10)
    stamps = [1_600_000_000 + 7 * i for i in range(lines)]
    for i in rng.sample(range(0, lines - 1, 2), lines // 100):
        stamps[i], stamps[i + 1] = stamps[i + 1], stamps[i]
    out = ["# generated capture log"]
    for ts in stamps:
        dev, udl = rng.choice(("cam01", "plug02")), rng.choice(regions)
        name = f"n{rng.randint(1, 300)}.{udl.lower()}.{dev}.example"
        out.append(f"ts={ts} dev={dev} ipl=US udl={udl} q={name} a=198.51.100.{rng.randint(1, 254)}")
    return "\n".join(out) + "\n"
