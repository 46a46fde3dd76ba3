"""A cache hit is answered from stored answer octets: the wire-level
`Resolver.handle` against the message-level reference of `helpers.reference_handle`.

Each differential runs one resolver and a twin on clocks advanced in
lockstep: `handle` answers on the first and `reference_handle` on the twin.
The replies must be equal octet for octet, a rejected payload must raise
the same class and text on both, and the counters must end equal.  One
more differential holds a miss against the hit that follows it at the
same virtual time: the two replies must be equal octet for octet.
"""

import dataclasses
import importlib.util
import itertools
import json
import random
import sys
from pathlib import Path

import pytest
from helpers import (
    FIXTURES,
    cached_records,
    make_response,
    rand_name,
    record_for_address,
    reference_handle,
    reference_message,
    reference_respond,
)
from test_wire import MEMOS

import ecsloc
import ecsloc.transport  # noqa: F401  (layer_targets reads ecsloc.transport)
from ecsloc import resolver as resolver_module
from ecsloc import wire
from ecsloc.resolver import (
    Authoritative,
    Forward,
    Resolver,
    RewriteClientSubnet,
    ScenarioError,
    Strip,
    VirtualClock,
)
from ecsloc.transport import InProcessLink
from ecsloc.value import Value
from ecsloc.wire import (
    QTYPE_A,
    QTYPE_AAAA,
    DnsMessage,
    EcsOption,
    EdnsOpt,
    Question,
    Truncated,
    WireError,
    decode_message,
    encode_message,
    make_query,
)
from ecsloc.zone import DEFAULT_TTL, GeoZone, LocationPrefixMap

BENCH = Path(__file__).resolve().parent.parent / "bench"
COUNTERS = ("hits", "misses", "stores", "expiries", "evictions", "bad_echoes", "nxdomains", "upstream_errors")
POLICIES = {"strip": Strip, "rewrite": lambda: RewriteClientSubnet(24), "forward": Forward}


def _load_bench(name):
    """bench/<name>.py, loaded by path with the bench directory importable for its own imports."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


class Twins:
    """Two sides of resolvers from *build(clock)*, each side on its own clock."""

    def __init__(self, build):
        self.clocks = (VirtualClock(), VirtualClock())
        self.sides = tuple(build(clock) for clock in self.clocks)
        self.replies = 0

    def ask(self, index, payload, source):
        """Both sides' outcome for *payload*, required equal: reply octets, or (error class, text)."""
        outcomes = []
        for side, answer in zip(self.sides, (Resolver.handle, reference_handle)):
            try:
                outcomes.append(answer(side[index], payload, source))
            except Exception as exc:  # a rejected payload: both sides must reject it alike
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1], f"payload {payload.hex()}"
        self.replies += isinstance(outcomes[0], bytes)
        assert_cache_shape(self.sides[0][index])  # the reference side stores through the same code
        return outcomes[0]

    def advance(self, seconds):
        for clock in self.clocks:
            clock.advance(seconds)

    def counters(self, side):
        return [tuple(getattr(resolver, name) for name in COUNTERS) for resolver in self.sides[side]]

    def assert_counters_equal(self):
        assert self.counters(0) == self.counters(1)


def assert_cache_shape(resolver):
    """The invariants of *resolver*'s cache: each bucket's scopes strictly decrease, no
    table or bucket is empty, `_size` is the tables' total, every entry has a heap record."""
    recorded = {id(record[4]) for record in resolver._heap}
    size = 0
    for name, bucket in resolver._cache.items():
        scopes = list(bucket)
        assert scopes and all(a > b for a, b in zip(scopes, scopes[1:])), (name, scopes)
        for scope, table in bucket.items():
            assert table, (name, scope)
            size += len(table)
            assert all(entry.scope_prefix_len == scope and id(entry) in recorded for entry in table.values())
    assert resolver._size == size


def _zone_twins(zone_doc, location, edit=None):
    """Twins of a strip, a rewrite and a forward resolver on *zone_doc*'s authoritative, each reply passed
    through *edit* when given."""
    zone = GeoZone.loads(json.dumps(zone_doc), "zone.json")

    def link(legacy):
        handle = Authoritative(zone, legacy_geo=legacy).handle
        return InProcessLink(handle if edit is None else lambda payload, source: edit(handle(payload, source)))

    def build(clock):
        # the standard architecture's authoritative answers an option-less query by the resolver's /24
        return [
            Resolver(policy(), location, link(legacy), zone.regions, clock=clock)
            for policy, legacy in zip(POLICIES.values(), (True, False, False))
        ]

    return Twins(build)


@pytest.fixture(scope="module")
def gen():
    return _load_bench("gen")


@pytest.mark.parametrize("shape, stream, seed", [("HOT", 4000, 5), ("WIDE", 1500, 6)], ids=["resolve_hot", "resolve_wide"])
@pytest.mark.parametrize("step", ["shape", 0.37])
def test_bench_streams_match_the_reference(gen, shape, stream, seed, step):
    inputs = gen.make_resolve(dataclasses.replace(getattr(gen, shape), stream=stream), seed)
    step = getattr(gen, shape).clock_step if step == "shape" else step
    twins = _zone_twins(inputs.zone_doc, inputs.resolver_region)
    for k, payload in enumerate(inputs.payloads):
        twins.ask(inputs.arch[k], payload, inputs.source[k])
        twins.advance(step)
    twins.assert_counters_equal()
    hits = sum(resolver.hits for resolver in twins.sides[0])
    assert twins.replies == stream and 0.2 * stream < hits < stream
    if step > 0.3:
        assert sum(resolver.expiries for resolver in twins.sides[0]) > 0


class _ScriptedUpstream:
    """An upstream whose reply is drawn from a generator seeded by the query's own octets.

    Replies mix NXDOMAIN and SERVFAIL, mismatched echoes, answers under other
    names, A and AAAA records for either question type, empty answers, and
    TTLs from 0 up, so every branch of a miss and of a store is taken.
    """

    def exchange(self, payload, source):
        rng = random.Random(payload)
        query = decode_message(payload)
        roll = rng.random()
        if roll < 0.08:
            return encode_message(make_response(query, rcode=rng.choice((2, 3))))
        ecs = query.edns.ecs if query.edns else None
        if ecs is not None:
            bits = 32 if ecs.family == 1 else 128
            if roll < 0.14:
                other = "203.0.113.0" if ecs.family == 1 else "2001:db8:ffff::"
                ecs = EcsOption.for_prefix(other, min(ecs.source_prefix_len, 24), 24)
            else:
                ecs = ecs.with_scope(rng.choice((0, ecs.source_prefix_len, rng.randint(0, bits))))
        qname = query.question.qname
        answers = tuple(
            record_for_address(
                qname if rng.random() < 0.8 else "elsewhere.example",
                f"10.0.{rng.randrange(256)}.{rng.randrange(256)}" if rng.random() < 0.6 else f"2001:db8::{rng.randrange(65536):x}",
                rng.choice((0, 1, 5, 30, 300, rng.randint(0, 1000))),
            )
            for _ in range(rng.choice((0, 1, 1, 2, 3)))
        )
        return encode_message(make_response(query, answers, ecs=ecs))


def _random_query(rng, qnames):
    ecs = None
    roll = rng.random()
    if roll < 0.45:
        ecs = EcsOption.for_prefix(f"198.18.{rng.randrange(4)}.{rng.randrange(256)}", rng.choice((16, 20, 24, 32)))
    elif roll < 0.65:
        ecs = EcsOption.for_prefix(f"2001:db8:{rng.randrange(3):x}::{rng.randrange(9)}", rng.choice((32, 48, 56, 64)))
    edns = None
    if ecs is not None or rng.random() < 0.5:
        edns = EdnsOpt(rng.choice((512, 1232, 1232, 4096)), ecs)
    question = Question(rng.choice(qnames), rng.choice((QTYPE_A, QTYPE_A, QTYPE_AAAA)))
    return DnsMessage(rng.randrange(0x10000), False, rng.random() < 0.9, False, 0, question, (), edns)


@pytest.mark.parametrize("bound", [None, 6], ids=["default", "evicting"])
def test_scripted_upstream_matches_the_reference(bound, monkeypatch):
    if bound is not None:
        monkeypatch.setattr(resolver_module, "CACHE_MAX_ENTRIES", bound)
    rng = random.Random(2501)
    qnames = [rand_name(rng, 3) for _ in range(6)]
    prefix_map = LocationPrefixMap({"HK": "198.19.0.0/16"})
    twins = Twins(lambda clock: [
        Resolver(policy(), "HK", _ScriptedUpstream(), prefix_map, clock=clock) for policy in POLICIES.values()
    ])
    for _ in range(3000):
        query = _random_query(rng, qnames)
        twins.ask(rng.randrange(3), reference_message(query), f"198.18.{rng.randrange(4)}.{rng.randrange(256)}")
        twins.advance(rng.choice((0, 0.25, 1, 7.5)))
    twins.assert_counters_equal()
    totals = dict(zip(COUNTERS, map(sum, zip(*twins.counters(0)))))
    evictions = totals.pop("evictions")
    assert all(totals.values()), totals
    assert (evictions > 0) == (bound is not None)


def _section_reply(payload):
    """A reply whose answer section is drawn from a generator seeded by the query's own octets.

    Zero to four A and AAAA records for either question type, some under
    another name than the question's, each with its own TTL, some of them
    0.  The echo repeats the sent option at a scope no longer than its
    source, so the answer is cached for the query that asked it.
    """
    rng = random.Random(payload)
    query = decode_message(payload)
    ecs = query.edns.ecs if query.edns else None
    if ecs is not None:
        ecs = ecs.with_scope(rng.randint(0, ecs.source_prefix_len))
    answers = tuple(
        record_for_address(
            query.question.qname if rng.random() < 0.6 else rand_name(rng, 2),
            f"10.0.{rng.randrange(256)}.{rng.randrange(256)}" if rng.random() < 0.5 else f"2001:db8::{rng.randrange(65536):x}",
            0 if rng.random() < 0.06 else rng.choice((1, 30, 300, rng.randint(1, 86400))),
        )
        for _ in range(rng.randint(0, 4))
    )
    return encode_message(make_response(query, answers, ecs=ecs))


@pytest.mark.parametrize("policy", POLICIES)
def test_a_miss_is_sent_exactly_as_a_hit(policy):
    sections = []

    def upstream(payload, source):
        reply = _section_reply(payload)
        sections.append(decode_message(reply).answers)
        return reply

    clock = VirtualClock(256.25000000002393)  # no binary fraction, as a clock stepped by 0.05 s soon is
    prefix_map = LocationPrefixMap({"HK": "198.19.0.0/16"})
    resolver = Resolver(POLICIES[policy](), "HK", InProcessLink(upstream), prefix_map, clock=clock)
    rng = random.Random(3401)
    seen = dict.fromkeys(("unequal", "zero", "renamed", "mixed", "empty"), 0)
    for i in range(800):
        query = _random_query(rng, [f"n{i}.example"])  # a new question: the first ask is a miss
        payload = reference_message(query)
        qname, qtype, _ = query.question
        source = f"198.18.{rng.randrange(4)}.{rng.randrange(256)}"
        miss = resolver.handle(payload, source)
        (upstream_answers,) = sections
        sections.clear()
        ttls = {rr.ttl for rr in upstream_answers}
        ttl = min(ttls, default=DEFAULT_TTL)
        sent = decode_message(miss).answers
        assert [(rr.rtype, rr.rdata) for rr in sent] == [(rr.rtype, rr.rdata) for rr in upstream_answers]
        assert all(rr.name == qname and rr.ttl == ttl for rr in sent), (upstream_answers, sent)
        effective = resolver.effective_ecs(query.edns.ecs if query.edns else None, source)
        entry = resolver.cache_lookup(qname, qtype, effective)
        if ttl == 0:  # expired as it was stored
            assert entry is None
        else:
            assert cached_records(entry, ttl) == sent
            hits = resolver.hits
            assert resolver.handle(payload, source) == miss  # the same virtual time
            assert resolver.hits == hits + 1 and not sections
        seen["unequal"] += len(ttls) > 1
        seen["zero"] += 0 in ttls
        seen["renamed"] += any(rr.name != qname for rr in upstream_answers)
        seen["mixed"] += len({rr.rtype for rr in upstream_answers}) > 1
        seen["empty"] += not upstream_answers
        clock.advance(rng.choice((0, 0.05, 0.1, 0.25, 1, 7.5)))
    assert min(seen.values()) > 20, seen
    assert resolver.misses == 800


# IPv4 and IPv6 regions, a 10 s answer and an IPv4-only name
ZONE_DOC = {
    "origin": "t",
    "regions": {"AA": "198.18.0.0/24", "BB": "198.18.1.0/24", "CC": "2001:db8:1::/48"},
    "records": {
        "q.t": {
            "ttl": 10,
            "answers": [
                {"region": "AA", "addresses": ["10.0.0.1", "10.0.0.2"]},
                {"region": "BB", "addresses": ["10.0.1.1"]},
                {"region": "CC", "addresses": ["2001:db8:1::1", "2001:db8:1::2"]},
            ],
        },
        "v4.t": {"answers": [{"region": "AA", "addresses": ["10.0.0.4"]}]},
    },
}


@pytest.fixture
def zone_twins():
    return _zone_twins(ZONE_DOC, "AA")


V4 = EcsOption.for_prefix("198.18.1.0", 24)
V6 = EcsOption.for_prefix("2001:db8:1::", 48)


def _query(qname="q.t", qtype=QTYPE_A, *, msg_id=7, rd=True, edns=None):
    return reference_message(DnsMessage(msg_id, False, rd, False, 0, Question(qname, qtype), (), edns))


HAND_MADE = {
    "rd-clear": [_query(rd=False, edns=EdnsOpt(1232, V4))] * 2,
    "no-edns": [_query(), _query(msg_id=8)],
    "edns-without-option": [_query(edns=EdnsOpt(1232, None))] * 2,
    "payload-size-4096": [_query(edns=EdnsOpt(4096, V4)), _query(edns=EdnsOpt(512, V4))],
    "ipv6-option": [_query(qtype=QTYPE_AAAA, edns=EdnsOpt(1232, V6)), _query(edns=EdnsOpt(1232, V6))] * 2,
    "aaaa-nodata": [_query("v4.t", QTYPE_AAAA, edns=EdnsOpt(1232, EcsOption.for_prefix("198.18.0.0", 24)))] * 2,
    "nxdomain": [_query("none.t", edns=EdnsOpt(1232, V4))] * 2,
    # a network outside every region: the default set at scope 0, then hit without an option
    "scope-0-hit-without-option": [_query(edns=EdnsOpt(1232, EcsOption.for_prefix("192.0.2.0", 24))), _query()],
}


@pytest.mark.parametrize("index", range(3), ids=("strip", "rewrite", "forward"))
@pytest.mark.parametrize("case", HAND_MADE)
def test_hand_made_queries_match_the_reference(zone_twins, case, index):
    resolver = zone_twins.sides[0][index]
    for payload in HAND_MADE[case]:
        hits = resolver.hits
        reply = decode_message(zone_twins.ask(index, payload, "198.18.0.77"))
        zone_twins.advance(1)
    zone_twins.assert_counters_equal()
    assert resolver.hits == hits + (case != "nxdomain")  # the last query of a case is a hit
    if case == "aaaa-nodata":
        assert reply.rcode == 0 and reply.answers == ()
    if case == "payload-size-4096":  # the hit echoes its own query's payload size
        assert reply.edns.udp_payload_size == 512


def test_remaining_ttl_is_clamped_to_one(zone_twins):
    payload = _query(edns=EdnsOpt(1232, V4))
    zone_twins.ask(2, payload, "198.18.0.77")
    zone_twins.advance(9.5)
    reply = decode_message(zone_twins.ask(2, payload, "198.18.0.77"))
    assert [rr.ttl for rr in reply.answers] == [1]
    zone_twins.advance(0.4)
    assert [rr.ttl for rr in decode_message(zone_twins.ask(2, payload, "198.18.0.77")).answers] == [1]
    assert zone_twins.counters(0)[2][:3] == (2, 1, 1)
    zone_twins.assert_counters_equal()


def test_rejected_payloads_raise_alike(zone_twins):
    response = encode_message(make_response(make_query("q.t", msg_id=3)))
    assert zone_twins.ask(2, response, "198.18.0.77") == (ScenarioError, "resolver got a response instead of a query")
    rng = random.Random(77)
    rejected = 0
    for _ in range(400):
        data = bytearray(_query(msg_id=rng.randrange(0x10000), edns=EdnsOpt(1232, rng.choice((V4, V6, None)))))
        for _ in range(rng.randint(1, 2)):
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        outcome = zone_twins.ask(rng.randrange(3), bytes(data), "198.18.0.77")
        rejected += not isinstance(outcome, bytes)
        if not isinstance(outcome, bytes):
            assert issubclass(outcome[0], (WireError, ScenarioError))
    assert 50 < rejected < 400
    zone_twins.assert_counters_equal()


def _mutated_reply(reply):
    """*reply* with one edit drawn from a generator seeded by its octets: 1-3 bit flips, a bit flip in the
    flags, a cut, an octet replaced, a count field rewritten, 1-4 octets inserted or deleted, or none."""
    rng = random.Random(reply)
    data = bytearray(reply)
    kind = rng.randrange(8)
    if kind == 0:
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    elif kind == 1:
        data[rng.choice((2, 3))] ^= 1 << rng.randrange(8)
    elif kind == 2:
        del data[rng.randrange(len(data)) :]
    elif kind == 3:
        data[rng.randrange(len(data))] = rng.randrange(256)
    elif kind == 4:
        at = rng.choice((4, 6, 8, 10))
        data[at : at + 2] = rng.choice((0, 1, 2, 3, 0xFFFF)).to_bytes(2, "big")
    elif kind == 5:
        at = rng.randrange(len(data) + 1)
        data[at:at] = rng.randbytes(rng.randint(1, 4))
    elif kind == 6:
        at = rng.randrange(len(data))
        del data[at : at + rng.randint(1, 4)]
    return bytes(data)


@pytest.mark.parametrize("zone_doc", [json.loads((FIXTURES / "zone.json").read_text()), ZONE_DOC], ids=["fixture", "mixed-family"])
def test_mutated_upstream_replies_match_the_reference(zone_doc):
    twins = _zone_twins(zone_doc, "HK" if "HK" in zone_doc["regions"] else "AA", _mutated_reply)
    qnames = [*zone_doc["records"], "none." + zone_doc["origin"]]
    rng = random.Random(3701)
    outcomes = []
    for _ in range(3000):
        query = _random_query(rng, qnames)
        outcomes.append(twins.ask(rng.randrange(3), reference_message(query), f"198.18.{rng.randrange(4)}.{rng.randrange(256)}"))
        twins.advance(1000)  # past every TTL in the zone: a hit needs an edited TTL
    twins.assert_counters_equal()
    errors = {outcome[1] for outcome in outcomes if not isinstance(outcome, bytes)}
    assert 1000 < len(outcomes) - twins.replies < 2600
    for text in ("a query must carry no answers", "need 12 octets at offset 0, have 1", "trailing octets", "not supported"):
        assert any(text in error for error in errors), text
    totals = dict(zip(COUNTERS, map(sum, zip(*twins.counters(0)))))
    assert totals["misses"] > 2500 and totals["nxdomains"] and totals["upstream_errors"] and totals["bad_echoes"], totals


def test_a_miss_decodes_no_response(monkeypatch):
    decoded = []

    def decode(body):
        decoded.append(body)
        return wire._decode_after_id(body)

    monkeypatch.setattr(resolver_module, "_decode_after_id", decode)
    resolvers = _zone_twins(ZONE_DOC, "AA").sides[0]
    for resolver, payloads in itertools.product(resolvers, HAND_MADE.values()):
        for payload in payloads:
            resolver.handle(payload, "198.18.0.77")
    assert sum(resolver.misses for resolver in resolvers) > 10
    assert decoded and not any(body[0] & 0x80 for body in decoded)  # the QR bit, first after the ID


AA = EcsOption.for_prefix("198.18.0.0", 24)
REPLY_IDS = (0x0000, 0x0001, 0x00FF, 0xFF00, 0xFFFF)


def _echo_elsewhere(reply):
    """*reply* with the echo of a reply for v4.t moved to 203.0.113.0/24, a network the query did not send."""
    response = decode_message(reply)
    if response.question.qname != "v4.t" or response.edns is None or response.edns.ecs is None:
        return reply
    elsewhere = EdnsOpt(response.edns.udp_payload_size, EcsOption.for_prefix("203.0.113.0", 24, 24))
    return encode_message(response.replace(edns=elsewhere))


@pytest.mark.parametrize("msg_id", REPLY_IDS, ids=lambda msg_id: f"{msg_id:#06x}")
def test_every_reply_carries_its_query_id(msg_id):
    twins = _zone_twins(ZONE_DOC, "AA", _echo_elsewhere)
    for index in range(3):
        for qname in ("q.t", "q.t", "none.t", "v4.t"):  # a miss, a hit, an NXDOMAIN and a bad echo
            reply = twins.ask(index, _query(qname, msg_id=msg_id, edns=EdnsOpt(1232, AA)), "198.18.0.77")
            assert reply[:2] == msg_id.to_bytes(2, "big")
    twins.assert_counters_equal()
    # (hits, misses, nxdomains, bad_echoes) per policy: strip sends no option, so nothing is echoed to it
    assert [(r.hits, r.misses, r.nxdomains, r.bad_echoes) for r in twins.sides[0]] == [(1, 3, 1, 0), (1, 3, 1, 1), (1, 3, 1, 1)]
    zone = GeoZone.loads(json.dumps(ZONE_DOC), "zone.json")
    for legacy_geo, qname, edns in itertools.product((True, False), ("q.t", "none.t"), (None, EdnsOpt(1232, AA))):
        payload = _query(qname, msg_id=msg_id, edns=edns)
        reply = Authoritative(zone, legacy_geo=legacy_geo).handle(payload, "198.18.0.77")
        assert reply == reference_message(reference_respond(zone, legacy_geo, decode_message(payload), "198.18.0.77"))
        assert reply[:2] == msg_id.to_bytes(2, "big")


@pytest.mark.parametrize("payload", [b"", b"\x07"], ids=["empty", "one-octet"])
def test_a_payload_without_an_id_is_truncated(payload):
    zone = GeoZone.loads(json.dumps(ZONE_DOC), "zone.json")
    twins = _zone_twins(ZONE_DOC, "AA")
    for index in range(3):
        assert twins.ask(index, payload, "198.18.0.77") == (Truncated, f"need 12 octets at offset 0, have {len(payload)}")
    with pytest.raises(Truncated, match=f"^need 12 octets at offset 0, have {len(payload)}$"):
        Authoritative(zone).handle(payload, "198.18.0.77")


def test_a_bytes_like_payload_is_read_as_bytes():
    twins = _zone_twins(ZONE_DOC, "AA")
    payload = _query(edns=EdnsOpt(1232, AA))
    for index in range(3):  # a miss and two hits at one instant: one reply, each equal to the reference's
        assert len({twins.ask(index, data, "198.18.0.77") for data in (payload, bytearray(payload), memoryview(payload))}) == 1
    twins.assert_counters_equal()


@pytest.mark.parametrize("index", range(3), ids=POLICIES)
def test_a_repeated_hit_misses_no_memo(index, monkeypatch):
    """After one hit, the same query again builds no option and misses no memo: each part of its reply is found."""
    resolver = _zone_twins(ZONE_DOC, "AA").sides[0][index]
    payload = _query(edns=EdnsOpt(1232, AA))
    resolver.handle(payload, "198.18.0.77")
    hit = resolver.handle(payload, "198.18.0.77")
    misses = [memo.cache_info().misses for memo in MEMOS]
    scopes = []
    original = EcsOption.with_scope

    def with_scope(ecs, scope):
        scopes.append(scope)
        return original(ecs, scope)

    monkeypatch.setattr(EcsOption, "with_scope", with_scope)
    assert {resolver.handle(payload, "198.18.0.77") for _ in range(1000)} == {hit}
    assert [memo.cache_info().misses for memo in MEMOS] == misses
    assert (resolver.hits, scopes) == (1001, [])


@pytest.mark.parametrize("policy", POLICIES)
def test_a_rewrite_hit_compares_no_value_in_python(policy, monkeypatch):
    """1000 hits on the fixture zone call `Value.__eq__` 0 times: every memo key on the way compares in C."""
    zone = GeoZone.load(FIXTURES / "zone.json")
    link = InProcessLink(Authoritative(zone, legacy_geo=True).handle)
    resolver = Resolver(POLICIES[policy](), "UK", link, zone.regions)
    payload = _query("api.example.iot", edns=EdnsOpt(1232, EcsOption.for_prefix("198.18.0.0", 24)))
    hit = resolver.handle(payload, "198.18.0.77")
    calls = []
    original = Value.__eq__

    def counting(self, other):
        calls.append(type(self))
        return original(self, other)

    monkeypatch.setattr(Value, "__eq__", counting)
    assert {resolver.handle(payload, "198.18.0.77") for _ in range(1000)} == {hit}
    assert (resolver.hits, calls) == (1000, [])


# One answer for every network of four IPv4 and four IPv6 regions, and a name with IPv4 answers only
V4_REGIONS, V6_REGIONS = ("AA", "BB", "CC", "DD"), ("EE", "FF", "GG", "HH")
SHARED_ANSWER_DOC = {
    "origin": "t",
    "regions": {**{code: f"198.18.{n}.0/24" for n, code in enumerate(V4_REGIONS)},
                **{code: f"2001:db8:{n}::/48" for n, code in enumerate(V6_REGIONS)}},
    "records": {
        "q.t": {"ttl": 10, "answers": [{"region": code, "addresses": ["10.0.0.1"]} for code in V4_REGIONS]
                + [{"region": code, "addresses": ["2001:db8::1"]} for code in V6_REGIONS]},
        "v4.t": {"ttl": 10, "answers": [{"region": code, "addresses": ["10.0.0.4"]} for code in V4_REGIONS]},
    },
}


@pytest.mark.parametrize(
    "qname, qtype, client, prefix_len",
    [("q.t", QTYPE_A, "198.18.{}.77", 24), ("q.t", QTYPE_AAAA, "2001:db8:{}::77", 48),
     ("v4.t", QTYPE_AAAA, "198.18.{}.77", 24),
     ("v4.t", QTYPE_A, "192.0.{}.77", 24)],  # outside every region: the default set at scope 0
    ids=["a", "aaaa", "empty", "scope-0-default"],
)
def test_repeated_misses_encode_an_answer_section_once(qname, qtype, client, prefix_len):
    """Misses for one name and one answer, each from another client network after the last entry expired,
    equal the reference's, and after the first the answer-section memo misses no more: each later miss finds
    the section there at least twice, once by the authoritative of each twin."""
    twins = _zone_twins(SHARED_ANSWER_DOC, "AA")
    for index in range(3):
        for n in range(4):
            address = client.format(n)
            payload = _query(qname, qtype, edns=EdnsOpt(1232, EcsOption.for_prefix(address, prefix_len)))
            twins.ask(index, payload, address)
            if n == 0:
                first = wire._answer_section.cache_info()
            twins.advance(DEFAULT_TTL)  # past every entry's TTL: an empty answer is kept that long
        info = wire._answer_section.cache_info()
        assert (info.misses, info.hits - first.hits >= 3 * 2) == (first.misses, True)
    assert [(resolver.misses, resolver.hits) for resolver in twins.sides[0]] == [(4, 0)] * 3
    twins.assert_counters_equal()


def test_one_cache_lookup_per_query_through_the_traced_names():
    tracing = _load_bench("tracing")
    tracer = tracing.Tracer()
    payload = _query(edns=EdnsOpt(1232, V4))
    with tracer.installed(tracing.layer_targets(ecsloc)):
        resolvers = _zone_twins(ZONE_DOC, "AA").sides[0]  # built with the patched names, as the bench does
        for policy, resolver in zip(POLICIES, resolvers):
            for request in ("miss", "hit"):
                tracer.request = policy, request
                resolver.handle(payload, "198.18.0.77")
    spans = tracer.take()
    for policy in POLICIES:
        def calls(name, request):
            return sum(span.name == name and span.request == (policy, request) for span in spans)

        assert (calls("resolver.cache_lookup", "miss"), calls("resolver.cache_lookup", "hit")) == (1, 1)
        assert (calls("resolver.authoritative", "miss"), calls("resolver.authoritative", "hit")) == (1, 0)
        # neither side encodes a message: the upstream query and both replies are packed
        assert (calls("wire.encode_message", "miss"), calls("wire.encode_message", "hit")) == (0, 0)
    metrics = tracing.pass_metrics(spans)
    assert metrics["resolver.cache_hit_ratio"] == 0.5 and metrics["resolver.handle.hit_us"] > 0


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("sent", [V4, V6, None], ids=["ipv4", "ipv6", "none"])
def test_upstream_query_is_packed_as_make_query(policy, sent):
    seen = []

    def upstream(payload, source):
        seen.append(payload)
        return encode_message(make_response(decode_message(payload)))

    resolver = Resolver(POLICIES[policy](), "HK", InProcessLink(upstream), LocationPrefixMap({"HK": "198.19.0.0/16"}))
    for qtype, msg_id in ((QTYPE_A, 0), (QTYPE_AAAA, 0xBEEF)):
        query = make_query("api.example.iot", qtype, msg_id=msg_id, ecs=sent)
        resolver.handle(reference_message(query.replace(recursion_desired=False)), "198.18.0.77")
        effective = resolver.effective_ecs(sent, "198.18.0.77")
        assert seen.pop() == reference_message(make_query("api.example.iot", qtype, msg_id=msg_id, ecs=effective))
