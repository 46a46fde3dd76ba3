"""The authoritative answers in octets: `Authoritative.handle` against the
message-level reference of `helpers.reference_respond`, encoded by
`helpers.reference_message`.

Every reply must equal the reference octet for octet, over the upstream
queries that resolvers send on bench-shaped streams and over scripted
queries, with legacy-geo answering on and off.
"""

import dataclasses
import ipaddress
import json

import pytest
from helpers import FIXTURES, reference_message, reference_respond
from test_packet_cache import V4, V6, ZONE_DOC, _load_bench

from ecsloc.resolver import (
    Authoritative, Forward, Resolver, RewriteClientSubnet, ScenarioError, Strip, VirtualClock,
)
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
    """`Authoritative.handle`, each reply required equal to the reference's, counted by kind of query."""

    def __init__(self, zone, legacy_geo):
        self.zone, self.legacy_geo = zone, legacy_geo
        self.authoritative = Authoritative(zone, legacy_geo=legacy_geo)
        self.seen = {"no-option": 0, "ipv4-option": 0, "ipv6-option": 0}

    def handle(self, payload, source):
        reply = self.authoritative.handle(payload, source)
        query = decode_message(payload)
        assert reply == reference_message(reference_respond(self.zone, self.legacy_geo, query, source))
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
