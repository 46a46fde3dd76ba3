"""The authoritative answers in octets: `Authoritative.handle` against the
message-level reference of `helpers.reference_respond`, encoded by
`helpers.reference_message`.

Every reply must equal the reference octet for octet, over the upstream
queries that resolvers send on bench-shaped streams and over scripted
queries, with legacy-geo answering on and off.  Each query is asked twice,
under two IDs, so the second reply comes from the authoritative's packet
cache, which the reference does not have.
"""

import dataclasses
import ipaddress
import json
import struct
import tracemalloc

import pytest
from helpers import FIXTURES, reference_message, reference_respond
from test_packet_cache import V4, V6, ZONE_DOC, _load_bench
from test_wire import _clear_memos

from ecsloc.resolver import (
    Authoritative, Forward, Resolver, RewriteClientSubnet, ScenarioError, Strip, VirtualClock,
)
from ecsloc import wire
from ecsloc.transport import InProcessLink
from ecsloc.wire import (
    MAX_TTL,
    QTYPE_A,
    QTYPE_AAAA,
    DnsMessage,
    EcsOption,
    EdnsOpt,
    Question,
    decode_message,
    encode_message,
    make_query,
)
from ecsloc.zone import AnswerSet, GeoZone, LocationPrefixMap, RegionalAnswer

LEGACY_GEO = pytest.mark.parametrize("legacy_geo", [True, False], ids=["legacy-geo", "no-legacy-geo"])


class CheckedAuthoritative:
    """`Authoritative.handle`, each query asked again under another ID and both replies required equal to the
    reference's, counted by kind of query."""

    def __init__(self, zone, legacy_geo):
        self.zone, self.legacy_geo = zone, legacy_geo
        self.authoritative = Authoritative(zone, legacy_geo=legacy_geo)
        self.seen = {"no-option": 0, "ipv4-option": 0, "ipv6-option": 0}

    def handle(self, payload, source):
        reply = self.authoritative.handle(payload, source)
        query = decode_message(payload)
        assert reply == reference_message(reference_respond(self.zone, self.legacy_geo, query, source))
        again = bytes((payload[0] ^ 0x5A, payload[1] ^ 0xA5)) + payload[2:]
        assert self.authoritative.handle(again, source) == again[:2] + reply[2:]
        ecs = query.edns.ecs if query.edns else None
        self.seen["no-option" if ecs is None else f"ipv{4 if ecs.family == 1 else 6}-option"] += 1
        return reply


@pytest.fixture(scope="module")
def gen():
    return _load_bench("gen")


@pytest.mark.parametrize("shape, stream, seed", [("HOT", 3000, 26), ("WIDE", 1500, 27)], ids=["resolve_hot", "resolve_wide"])
@LEGACY_GEO
def test_bench_upstream_queries_match_the_reference(gen, shape, stream, seed, legacy_geo):
    inputs = gen.make_resolve(dataclasses.replace(getattr(gen, shape), stream=stream), seed)
    zone = GeoZone.loads(json.dumps(inputs.zone_doc), "zone.json")
    checked = CheckedAuthoritative(zone, legacy_geo)
    clock = VirtualClock()
    resolvers = [
        Resolver(policy, inputs.resolver_region, InProcessLink(checked.handle), zone.regions, clock=clock)
        for policy in (Strip(), RewriteClientSubnet(24), Forward())
    ]
    for payload, arch, source in zip(inputs.payloads, inputs.arch, inputs.source):
        resolvers[arch].handle(payload, source)
        clock.advance(getattr(gen, shape).clock_step)
    assert checked.seen["no-option"] > 0 and checked.seen["ipv4-option"] > 0
    assert (checked.seen["ipv6-option"] > 0) == (shape == "WIDE")
    assert sum(checked.seen.values()) == sum(resolver.misses for resolver in resolvers) > 0.05 * stream
    # every second ask is a hit, and so are most first asks: a query comes back once its entry expires
    info = checked.authoritative.cache_info()
    assert info.hits >= sum(checked.seen.values()) > info.currsize


# IPv4 and IPv6 regions and an IPv4-only name, as in the packet-cache tests
ZONE = GeoZone.loads(json.dumps(ZONE_DOC), "zone.json")


def _query(qname="q.t", qtype=QTYPE_A, *, rd=True, edns=None):
    return DnsMessage(0x1A2B, False, rd, False, 0, Question(qname, qtype), (), edns)


# name: (query, source, expected rcode, expected answer count, expected OPT record or None)
SCRIPTED = {
    "nxdomain-with-option": (_query("none.t", edns=EdnsOpt(1232, V4)), "198.18.0.9", 3, 0, EdnsOpt(1232, V4)),
    "nxdomain-without-option": (_query("none.t"), "198.18.0.9", 3, 0, None),
    "nxdomain-edns-without-option": (_query("none.t", edns=EdnsOpt(512)), "198.18.0.9", 3, 0, EdnsOpt(512)),
    "empty-source": (_query(), "", 0, 3, None),
    "aaaa-nodata": (_query("v4.t", QTYPE_AAAA, edns=EdnsOpt(1232, V4)), "198.18.0.9", 0, 0, EdnsOpt(1232, V4)),
    "ipv6-option-aaaa": (_query(qtype=QTYPE_AAAA, edns=EdnsOpt(1232, V6)), "198.18.0.9", 0, 2, EdnsOpt(1232, V6.with_scope(48))),
    "ipv6-option-a-nodata": (_query(edns=EdnsOpt(1232, V6)), "198.18.0.9", 0, 0, EdnsOpt(1232, V6.with_scope(48))),
    "ipv6-option-outside": (
        _query(qtype=QTYPE_AAAA, edns=EdnsOpt(1232, EcsOption.for_prefix("2001:db8:2::", 56))), "198.18.0.9", 0, 2,
        EdnsOpt(1232, EcsOption.for_prefix("2001:db8:2::", 56)),
    ),
    "edns-without-option-512": (_query(edns=EdnsOpt(512)), "198.18.0.9", 0, None, EdnsOpt(512)),
    "edns-without-option-4096": (_query(edns=EdnsOpt(4096)), "198.18.0.9", 0, None, EdnsOpt(4096)),
    "rd-clear": (_query(rd=False, edns=EdnsOpt(1232, V4)), "198.18.0.9", 0, 1, EdnsOpt(1232, V4.with_scope(24))),
    "rd-clear-without-edns": (_query(rd=False), "198.18.1.9", 0, None, None),
}


@pytest.mark.parametrize("case", SCRIPTED)
@LEGACY_GEO
def test_scripted_queries_match_the_reference(case, legacy_geo):
    query, source, rcode, count, edns = SCRIPTED[case]
    reply = CheckedAuthoritative(ZONE, legacy_geo).handle(reference_message(query), source)
    decoded = decode_message(reply)
    assert (decoded.id, decoded.question, decoded.recursion_desired) == (query.id, query.question, query.recursion_desired)
    assert decoded.is_response and decoded.recursion_available
    assert (decoded.rcode, decoded.edns) == (rcode, edns)
    if count is None:  # an option-less query: the default set, or the source's /24 under legacy geo
        count = 2 if legacy_geo and source.startswith("198.18.0.") else 1 if legacy_geo else 3
    assert len(decoded.answers) == count


@LEGACY_GEO
def test_ttl_outside_the_field_is_refused_when_built(legacy_geo):
    answer = RegionalAnswer("AA", ipaddress.ip_network("198.18.0.0/24"), ("10.0.0.1",))
    for ttl in (MAX_TTL + 1, -1):
        with pytest.raises(ValueError, match=f"^ttl {ttl} out of range$"):
            AnswerSet((answer,), ttl=ttl)
    record = AnswerSet((answer,), ttl=MAX_TTL)
    with pytest.raises(ValueError, match="^ttl 4294967296 out of range$"):
        record.replace(ttl=MAX_TTL + 1)
    # the top of the field is sent as it is
    zone = GeoZone("t", LocationPrefixMap({"AA": "198.18.0.0/24"}), {"q.t": record})
    payload = reference_message(_query(edns=EdnsOpt(1232, EcsOption.for_prefix("198.18.0.0", 24))))
    reply = CheckedAuthoritative(zone, legacy_geo).handle(payload, "198.18.0.9")
    assert [rr.ttl for rr in decode_message(reply).answers] == [MAX_TTL]


@LEGACY_GEO
def test_own_reply_is_refused(legacy_geo):
    authoritative = Authoritative(GeoZone.load(FIXTURES / "zone.json"), legacy_geo=legacy_geo)
    reply = authoritative.handle(encode_message(make_query("api.example.iot", msg_id=9)), "198.18.0.9")
    assert len(decode_message(reply).answers) > 0
    with pytest.raises(ScenarioError, match="^authoritative got a response instead of a query$"):
        authoritative.handle(reply, "198.18.0.9")


@pytest.mark.parametrize("legacy_geo", [True, False], ids=["legacy-geo", "no-legacy-geo"])
def test_an_option_less_query_is_cached_per_source_only_under_legacy_geo(legacy_geo):
    """One option-less query body from sources in two /24s, each asked twice in turn: under legacy geo each
    source gets its own /24's answer, from an entry of its own; without it both share one entry."""
    authoritative = Authoritative(ZONE, legacy_geo=legacy_geo)
    query = _query()
    replies = {}
    for msg_id in (1, 2):
        for source in ("198.18.0.9", "198.18.1.9"):
            payload = reference_message(query.replace(id=msg_id))
            reply = authoritative.handle(payload, source)
            assert reply == reference_message(reference_respond(ZONE, legacy_geo, query.replace(id=msg_id), source))
            replies.setdefault(source, set()).add(reply[2:])
    assert all(len(bodies) == 1 for bodies in replies.values())
    assert (replies["198.18.0.9"] != replies["198.18.1.9"]) == legacy_geo
    info = authoritative.cache_info()
    assert (info.hits, info.misses, info.currsize) == ((2, 2, 2) if legacy_geo else (3, 1, 1))


# One A record of 448 addresses: a reply of about 8 KiB
BULK = GeoZone.loads(json.dumps({
    "origin": "t",
    "regions": {"AA": "198.18.0.0/24"},
    "records": {"bulk.t": {"ttl": 10, "answers": [
        {"region": "AA", "addresses": [f"10.0.{i >> 8}.{i & 255}" for i in range(448)]}]}},
}), "zone.json")


def _padded_query(n, octets):
    """A query for q.t of *octets* octets after its ID, padded by an unknown EDNS option whose data starts with
    *n*; an authoritative ignores the option, so every such query has one answer."""
    head = reference_message(_query(edns=EdnsOpt(1232)))  # ends in the OPT record's RDLENGTH of 0
    data = n.to_bytes(4, "big") + bytes(octets - len(head) - 6)
    payload = head[:-2] + struct.pack("!HHH", len(data) + 4, 65001, len(data)) + data
    assert len(payload) - 2 == octets
    return payload


@pytest.mark.parametrize("case", ["long-reply", "long-query", "bytearray", "memoryview", "response", "truncated"])
def test_the_packet_cache_holds_no_long_message_and_no_error(case):
    """A reply of more than 512 octets after its ID is held as None and packed each time; a query of more than
    512 octets after its ID, a payload that is not `bytes`, and a query that raises store nothing, and the
    last raises alike every time.  Each is asked three times, each reply the reference's."""
    zone, payload = ZONE, reference_message(_query(edns=EdnsOpt(1232, V4)))
    if case == "long-reply":
        zone, payload = BULK, reference_message(_query("bulk.t"))
    elif case == "long-query":
        payload = _padded_query(0, 513)
    elif case == "bytearray":
        payload = bytearray(payload)
    elif case == "memoryview":
        payload = memoryview(payload)
    elif case == "response":
        payload = Authoritative(ZONE).handle(payload, "198.18.0.9")
    else:
        payload = payload[:-3]
    authoritative = Authoritative(zone)
    outcomes = []
    for _ in range(3):
        try:
            outcomes.append(authoritative.handle(payload, "198.18.0.9"))
        except Exception as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    if isinstance(outcomes[0], bytes):
        query = decode_message(bytes(payload))
        assert outcomes[0] == reference_message(reference_respond(zone, False, query, "198.18.0.9"))
    else:
        assert outcomes[0][0] is (ScenarioError if case == "response" else wire.Truncated)
    info = authoritative.cache_info()
    if case == "long-reply":
        assert len(outcomes[0]) > 8000
        assert (info.hits, info.misses, info.currsize) == (2, 1, 1)
        assert authoritative._replies(payload[2:], "") is None  # the entry holds no octets
    else:
        assert info.currsize == 0


def test_the_packet_cache_is_bounded_in_entries_and_in_octets():
    """Queries of 512 octets after the ID, each with its own option data, whose replies are 490-512 octets:
    2000 entries at the octet bound trace under 3 KiB each, so a cache at its cap of `_MEMO_SIZE` stays under
    48 MiB, as wire.py's memo comment bounds each memo; filled past the cap, it holds exactly the cap."""
    records = {"q.t": {"ttl": 10, "answers": [{"region": "AA", "addresses": [f"10.0.0.{i}" for i in range(25)]}]}}
    zone = GeoZone.loads(json.dumps({"origin": "t", "regions": {"AA": "198.18.0.0/24"}, "records": records}), "z")
    authoritative = Authoritative(zone)
    reply = authoritative.handle(_padded_query(0, 512), "")
    assert 490 <= len(reply) - 2 <= 512
    _clear_memos()
    tracemalloc.start()
    try:
        for n in range(1, 2001):
            assert authoritative.handle(_padded_query(n, 512), "")[2:] == reply[2:]
        _clear_memos()  # what is left traced is the packet cache's
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert authoritative.cache_info().currsize == 2001
    assert traced / 2000 < 3 * 1024, f"{traced / 2000:.0f} bytes an entry"
    for n in range(2001, wire._MEMO_SIZE + 500):
        authoritative.handle(_padded_query(n, 512), "")
    info = authoritative.cache_info()
    assert info.currsize == info.maxsize == wire._MEMO_SIZE


@pytest.mark.parametrize("name, value", [("zone", BULK), ("legacy_geo", True)])
def test_zone_and_legacy_geo_cannot_be_set(name, value):
    """The packet cache is bound to both at construction, so neither can change under it."""
    authoritative = Authoritative(ZONE)
    with pytest.raises(AttributeError):
        setattr(authoritative, name, value)
    assert authoritative.zone is ZONE and authoritative.legacy_geo is False
