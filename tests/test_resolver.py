"""Resolution architectures, policy handling, and scope-aware caching."""

import itertools
import json
import random
import struct
import time
import tracemalloc

import pytest
from helpers import (
    FIXTURES,
    cached_records,
    load_scenario,
    make_response,
    network_at,
    record_for_address,
    reference_handle,
    reference_respond,
    region_codes,
)
from test_wire import MEMOS

from ecsloc import resolver as resolver_module
from ecsloc import wire
from ecsloc.resolver import (
    Authoritative,
    DeviceConfig,
    Forward,
    Hop,
    Resolver,
    RewriteClientSubnet,
    ScenarioError,
    ScenarioTranscript,
    Strip,
    VirtualClock,
    parse_scenario,
    run_scenario,
    stub_query,
)
from ecsloc.transport import InProcessLink
from ecsloc.wire import (
    QTYPE_AAAA,
    EcsOption,
    EdnsOpt,
    address_text,
    answer_segments,
    decode_message,
    encode_message,
    make_query,
    pack_reply,
)
from ecsloc.zone import GeoZone, LocationPrefixMap, UnknownRegion

UK = "203.0.113.10"
US = "203.0.113.20"
HK = "203.0.113.30"
ALL = {UK, US, HK}


@pytest.fixture(scope="module")
def zone():
    return GeoZone.load(FIXTURES / "zone.json")


def device(ip="HK", user="UK", address="198.18.0.77"):
    return DeviceConfig(
        device_id="cam01",
        ip_based_location=ip,
        user_defined_location=user,
        client_address=address,
    )


def make_resolver(zone, policy, location, clock=None, legacy_geo=False):
    authoritative = Authoritative(zone, legacy_geo=legacy_geo)
    return Resolver(
        policy,
        location,
        InProcessLink(authoritative.handle),
        zone.regions,
        clock=clock,
    )


class TestStubQuery:

    def test_carries_user_defined_prefix_not_device_address(self, zone):
        query = stub_query(device(ip="HK", user="UK"), "api.example.iot", zone.regions)
        ecs = query.edns.ecs
        assert ecs.address_str() == "198.18.1.0"  # UK prefix, not 198.18.0.x
        assert ecs.source_prefix_len == 24
        assert ecs.scope_prefix_len == 0

    def test_coinciding_locations(self, zone):
        query = stub_query(device(ip="UK", user="UK", address="198.18.1.9"), "api.example.iot", zone.regions)
        assert query.edns.ecs.address_str() == "198.18.1.0"

    def test_unknown_region(self, zone):
        with pytest.raises(UnknownRegion):
            stub_query(device(user="ZZ"), "api.example.iot", zone.regions)


class TestResolvePolicies:

    def test_unknown_policy_rejected_at_construction(self):
        with pytest.raises(ScenarioError, match="^unknown policy 'sideways'$"):
            Resolver("sideways", "HK", None, LocationPrefixMap({"HK": "198.19.0.0/16"}))

    def test_the_policy_cannot_be_set_apart_from_its_option_rule(self, zone):
        sent = EcsOption.for_prefix("198.18.1.0", 24)
        resolver = make_resolver(zone, Strip(), "HK")
        with pytest.raises(AttributeError):
            resolver.policy = Forward()
        assert (resolver.policy, resolver.effective_ecs(sent, "198.18.0.77")) == (Strip(), None)

    def test_forward_delivers_user_region(self, zone):
        resolver = make_resolver(zone, Forward(), "HK")
        query = stub_query(device(), "api.example.iot", zone.regions)
        response = resolver.resolve(query, "198.18.0.77")
        assert {rr.address() for rr in response.answers} == {UK}
        assert response.edns.ecs.scope_prefix_len == 24

    def test_rewrite_delivers_client_region(self, zone):
        resolver = make_resolver(zone, RewriteClientSubnet(24), "UK")
        query = make_query("api.example.iot")
        response = resolver.resolve(query, "198.18.0.77")
        assert {rr.address() for rr in response.answers} == {HK}

    def test_strip_delivers_default_set(self, zone):
        resolver = make_resolver(zone, Strip(), "HK")
        query = stub_query(device(), "api.example.iot", zone.regions)
        response = resolver.resolve(query, "198.18.0.77")
        assert {rr.address() for rr in response.answers} == ALL
        # matches the zone's no-option contract
        assert {address_text(a) for a in zone.lookup("api.example.iot", None).addresses} == ALL

    def test_nxdomain_propagates(self, zone):
        resolver = make_resolver(zone, Forward(), "HK")
        response = resolver.resolve(make_query("nope.example.iot"), "198.18.0.77")
        assert response.rcode == 3
        assert response.answers == ()

    def test_legacy_geo_answers_by_source_prefix(self, zone):
        response = reference_respond(zone, True, make_query("api.example.iot"), "198.18.1.1")
        assert {rr.address() for rr in response.answers} == {UK}
        assert response.edns is None

    def test_aaaa_query_against_v4_zone_is_nodata(self, zone):
        from ecsloc.wire import QTYPE_AAAA

        resolver = make_resolver(zone, Forward(), "HK")
        query = make_query("api.example.iot", qtype=QTYPE_AAAA,
                           ecs=EcsOption.for_prefix("198.18.1.0", 24))
        response = resolver.resolve(query, "198.18.0.77")
        assert response.rcode == 0
        assert response.answers == ()


class TestCache:

    def test_clock_cannot_go_backwards(self):
        clock = VirtualClock(5.0)
        clock.advance(0)
        with pytest.raises(ValueError, match="^clock cannot go backwards$"):
            clock.advance(-0.5)
        assert clock.now == 5.0

    def test_clock_refuses_nan(self):
        for start in ("nan", "-inf", "inf"):  # -inf advanced by inf would read NaN
            with pytest.raises(ValueError, match=f"^clock time must be finite, got {start}$"):
                VirtualClock(float(start))
        clock = VirtualClock(5.0)
        with pytest.raises(ValueError, match="^clock step cannot be NaN$"):
            clock.advance(float("nan"))
        assert clock.now == 5.0

    def test_clock_refuses_assignment(self, zone):
        # NaN set from outside would get past every check and fail the next miss after its store
        clock = VirtualClock(5.0)
        with pytest.raises(AttributeError, match="^cannot set VirtualClock.now: the clock moves only by advance"):
            clock.now = float("nan")
        assert clock.now == 5.0
        resolver = make_resolver(zone, Forward(), "UK", clock=clock)
        query = make_query("api.example.iot", ecs=EcsOption.for_prefix("198.18.1.0", 24))
        reply = resolver.resolve(query, "198.18.1.7")
        assert [rr.ttl for rr in reply.answers] == [300]
        assert (resolver.misses, resolver.stores) == (1, 1)

    def test_clock_refuses_an_infinite_time(self, zone):
        # at infinity every entry would expire at the lookup after its store
        clock = VirtualClock()
        resolver = make_resolver(zone, Forward(), "UK", clock=clock)
        query = make_query("api.example.iot", ecs=EcsOption.for_prefix("198.18.1.0", 24))
        resolver.resolve(query, "198.18.1.7")
        with pytest.raises(ValueError, match="^clock time must be finite, got inf$"):
            clock.advance(float("inf"))
        assert clock.now == 0.0
        for _ in range(2):
            resolver.resolve(query, "198.18.1.7")
        assert (resolver.hits, resolver.misses, resolver.expiries) == (2, 1, 0)
        late = VirtualClock(1e308)
        with pytest.raises(ValueError, match="^clock time must be finite, got inf$"):
            late.advance(1e308)  # finite, but the sum overflows
        assert late.now == 1e308

    def test_same_network_hits(self, zone):
        resolver = make_resolver(zone, Forward(), "HK")
        first = resolver.resolve(
            make_query("api.example.iot", ecs=EcsOption.for_prefix("198.18.1.7", 24)),
            "198.18.0.77",
        )
        entry = resolver.cache_lookup(
            "api.example.iot", 1, EcsOption.for_prefix("198.18.1.200", 24)
        )
        assert entry is not None
        assert [rr.address() for rr in cached_records(entry)] == [rr.address() for rr in first.answers]

    def test_cross_prefix_misses(self, zone):
        resolver = make_resolver(zone, Forward(), "HK")
        resolver.resolve(
            make_query("api.example.iot", ecs=EcsOption.for_prefix("198.18.1.0", 24)),
            "198.18.0.77",
        )
        assert resolver.cache_lookup("api.example.iot", 1, EcsOption.for_prefix("198.18.0.0", 24)) is None

    def test_scope_zero_matches_absent_option(self, zone):
        resolver = make_resolver(zone, Strip(), "HK")
        resolver.resolve(make_query("api.example.iot"), "198.18.0.77")
        assert resolver.cache_lookup("api.example.iot", 1, None) is not None

    def test_less_specific_query_does_not_hit_scoped_entry(self, zone):
        resolver = make_resolver(zone, Forward(), "HK")
        resolver.resolve(
            make_query("api.example.iot", ecs=EcsOption.for_prefix("198.18.1.0", 24)),
            "198.18.0.77",
        )
        assert resolver.cache_lookup("api.example.iot", 1, EcsOption.for_prefix("198.18.0.0", 16)) is None

    def test_expiry_follows_virtual_clock(self, zone):
        clock = VirtualClock()
        resolver = make_resolver(zone, Forward(), "HK", clock=clock)
        ecs = EcsOption.for_prefix("198.18.1.0", 24)
        resolver.resolve(make_query("api.example.iot", ecs=ecs), "198.18.0.77")
        assert resolver.cache_lookup("api.example.iot", 1, ecs) is not None
        clock.advance(299)
        assert resolver.cache_lookup("api.example.iot", 1, ecs) is not None
        clock.advance(2)
        assert resolver.cache_lookup("api.example.iot", 1, ecs) is None

    def test_lookup_drops_expired_entry(self, zone):
        clock = VirtualClock()
        resolver = make_resolver(zone, Forward(), "HK", clock=clock)
        ecs = EcsOption.for_prefix("198.18.1.0", 24)
        resolver.resolve(make_query("api.example.iot", ecs=ecs), "198.18.0.77")
        clock.advance(301)
        assert resolver.cache_lookup("api.example.iot", 1, ecs) is None
        assert ("api.example.iot", 1) not in resolver._cache

    def test_hits_equal_cold_lookups(self, zone):
        # region-homed prefixes only: a non-matching prefix would cache the
        # default set at scope 0, whose wildcard reuse is covered below
        rng = random.Random(11)
        authoritative = Authoritative(zone)
        resolver = Resolver(Forward(), "HK", InProcessLink(authoritative.handle), zone.regions)
        homed = {
            "api.example.iot": ["198.18.0.", "198.18.1.", "198.18.2."],
            "media.example.iot": ["198.18.1.", "198.18.2."],
        }
        for _ in range(200):
            qname = rng.choice(list(homed))
            address = rng.choice(homed[qname]) + str(rng.randint(0, 255))
            ecs = EcsOption.for_prefix(address, 24)
            got = resolver.resolve(make_query(qname, ecs=ecs), "198.18.0.77")
            cold = reference_respond(zone, False, make_query(qname, ecs=ecs), resolver.address)
            assert {rr.address() for rr in got.answers} == {rr.address() for rr in cold.answers}
            assert got.edns.ecs.scope_prefix_len == cold.edns.ecs.scope_prefix_len

    def test_scope_zero_wildcard_serves_everyone(self, zone):
        # a scope-0 answer is cacheable for all networks, so after a
        # non-matching prefix fills the cache, a region query is served the
        # all-region superset; this is the standard scope-0 reuse rule
        resolver = make_resolver(zone, Forward(), "HK")
        miss_everything = EcsOption.for_prefix("192.0.2.0", 24)
        resolver.resolve(make_query("api.example.iot", ecs=miss_everything), "198.18.0.77")
        follow_up = resolver.resolve(
            make_query("api.example.iot", ecs=EcsOption.for_prefix("198.18.1.0", 24)),
            "198.18.0.77",
        )
        assert {rr.address() for rr in follow_up.answers} == ALL

    def test_other_family_never_hits(self, tmp_path):
        # 32.1.13.0/24 and 2001:db8::/48 share their first 24 bits
        # (20 01 0d), so only the family tells their cache keys apart
        doc = {
            "origin": "t",
            "regions": {"AA": "32.1.13.0/24", "BB": "2001:db8::/48"},
            "records": {
                "q.t": {
                    "answers": [
                        {"region": "AA", "addresses": ["32.1.13.5"]},
                        {"region": "BB", "addresses": ["2001:db8::5"]},
                    ]
                }
            },
        }
        path = tmp_path / "zone.json"
        path.write_text(json.dumps(doc))
        zone = GeoZone.load(path)
        resolver = make_resolver(zone, Forward(), "AA")
        resolver.resolve(make_query("q.t", ecs=EcsOption.for_prefix("32.1.13.0", 24)), "x")
        v6 = EcsOption.for_prefix("2001:db8::", 48)
        assert resolver.cache_lookup("q.t", 1, v6) is None
        got = resolver.resolve(make_query("q.t", ecs=v6), "x")
        assert got.answers == ()
        assert got.edns.ecs.scope_prefix_len == 48


class _ScriptedUpstream:
    """Answers every query with a fresh address, at a scope and TTL set beforehand."""

    def __init__(self):
        self.scope = 0
        self.ttl = 300
        self.calls = 0

    def exchange(self, payload: bytes, source: str) -> bytes:
        self.calls += 1
        query = decode_message(payload)
        ecs = query.edns.ecs if query.edns else None
        if ecs is not None:
            ecs = EcsOption(ecs.family, ecs.source_prefix_len, self.scope, ecs.address)
        self.address = f"10.{self.calls >> 16 & 255}.{self.calls >> 8 & 255}.{self.calls & 255}"
        answer = record_for_address(query.question.qname, self.address, self.ttl)
        return encode_message(make_response(query, (answer,), ecs=ecs))


class TestUpstreamEchoChecked:
    """RFC 7871 section 7.3: an echo not matching the sent option is dropped."""

    SENT = EcsOption.for_prefix("198.18.0.0", 24)

    @pytest.mark.parametrize("echo", [
        pytest.param(EcsOption.for_prefix("2001:db8::", 56, 56), id="other-family"),
        pytest.param(EcsOption.for_prefix("203.0.113.0", 24, 24), id="other-address"),
        pytest.param(EcsOption.for_prefix("198.18.0.0", 16, 16), id="other-source-length"),
        # the sent option's three address octets, under another source length
        pytest.param(EcsOption.for_prefix("198.18.0.0", 23, 23), id="other-source-length-same-octets"),
    ])
    def test_mismatched_echo_is_servfail_and_not_cached(self, echo):
        echoes = [echo]

        def upstream(payload, source):
            query = decode_message(payload)
            ecs = echoes.pop() if echoes else query.edns.ecs.with_scope(24)
            answer = record_for_address(query.question.qname, "10.0.0.1", 300)
            return encode_message(make_response(query, (answer,), ecs=ecs))

        prefix_map = LocationPrefixMap({"HK": "198.19.0.0/16"})
        resolver = Resolver(Forward(), "HK", InProcessLink(upstream), prefix_map)
        query = encode_message(make_query("q.t", msg_id=7, ecs=self.SENT))
        reply = decode_message(resolver.handle(query, "198.18.0.77"))
        assert (reply.id, reply.rcode, reply.answers) == (7, 2, ())
        assert reply.edns.ecs == self.SENT
        assert resolver.cache_lookup("q.t", 1, self.SENT) is None

        reply = decode_message(resolver.handle(query, "198.18.0.77"))
        assert reply.rcode == 0
        assert reply.edns.ecs == self.SENT.with_scope(24)
        assert resolver.cache_lookup("q.t", 1, self.SENT).scope_prefix_len == 24

    def test_scoped_echo_to_an_optionless_query_is_not_cached(self):
        sent = []

        def upstream(payload, source):
            query = decode_message(payload)
            sent.append(query.edns)
            answer = record_for_address(query.question.qname, "10.0.0.1", 300)
            return encode_message(make_response(query, (answer,), ecs=self.SENT.with_scope(24)))

        prefix_map = LocationPrefixMap({"HK": "198.19.0.0/16"})
        resolver = Resolver(Forward(), "HK", InProcessLink(upstream), prefix_map)
        query = encode_message(make_query("q.t", msg_id=7))
        for _ in range(2):  # no later query could match the scoped answer, so each one asks again
            reply = decode_message(resolver.handle(query, "198.18.0.77"))
            assert (reply.rcode, [rr.address() for rr in reply.answers], reply.edns) == (0, ["10.0.0.1"], None)
        assert sent == [None, None]
        assert (resolver.misses, resolver.hits, resolver.stores) == (2, 0, 0)
        assert resolver.cache_lookup("q.t", 1, None) is None
        assert resolver.cache_lookup("q.t", 1, self.SENT) is None


def _reference_lookup(store, now, ecs):
    """The linear scan: most specific live entry whose family and network match."""
    best = None
    for family, scope, network, address, expires_at, _ in store:
        if expires_at <= now:
            continue
        if scope == 0:
            matched = True
        elif ecs is None or ecs.family != family or ecs.source_prefix_len < scope:
            matched = False
        else:
            matched = network_at(ecs, scope) == network
        if matched and (best is None or scope > best[1]):
            best = (family, scope, network, address, expires_at)
    return best


# at 8 a few stores evict; at 4 about one miss in three does, so the tie rule shows
@pytest.mark.parametrize("bound", [None, 8, 4], ids=["default", "8", "4"])
def test_cache_lookup_against_linear_scan(bound, monkeypatch):
    if bound is not None:
        monkeypatch.setattr(resolver_module, "CACHE_MAX_ENTRIES", bound)
    rng = random.Random(23)
    # bases that nest and collide at the scopes used, a v4/v6 pair with
    # equal leading octets, and the zero network of each family, whose
    # masked integers are equal too
    v4 = ["10.1.2.0", "10.1.3.0", "10.1.240.0", "10.2.0.0", "32.1.13.0", "0.0.0.0"]
    v6 = ["2001:db8::", "2001:db8:0:100::", "2001:db8:1::", "2001:db8:1:8000::", "2001:db8:ff00::", "::"]
    scopes = {1: (0, 16, 20, 24), 2: (0, 16, 20, 24, 48, 56)}
    sources = {1: (16, 20, 24, 32), 2: (20, 48, 56, 64)}

    def random_ecs():
        if rng.random() < 0.1:
            return None
        family = rng.choice((1, 2))
        base = rng.choice(v4 if family == 1 else v6)
        return EcsOption.for_prefix(base, rng.choice(sources[family]))

    clock = VirtualClock()
    upstream = _ScriptedUpstream()
    resolver = Resolver(Forward(), "HK", upstream, LocationPrefixMap.default(["HK"]), clock=clock)
    stores = {qname: [] for qname in ("a.t", "b.t")}
    order = itertools.count()
    hits = misses = expired_checks = evictions = 0
    for _ in range(4000):
        qname = rng.choice(list(stores))
        ecs = random_ecs()
        store = stores[qname]
        expected = _reference_lookup(store, clock.now, ecs)
        roll = rng.random()
        if roll < 0.15:
            clock.advance(rng.choice((1, 20, 90, 200)))
        elif roll < 0.55:
            family = ecs.family if ecs is not None else 1
            upstream.scope = rng.choice(scopes[family]) if ecs is not None else 0
            upstream.ttl = rng.randint(1, 300)
            before = upstream.calls
            got = resolver.resolve(make_query(qname, ecs=ecs), "198.18.0.77")
            if expected is None:
                assert upstream.calls == before + 1
                scope = upstream.scope
                network = network_at(ecs, scope) if ecs is not None else b""
                for entries in stores.values():
                    entries[:] = [e for e in entries if e[4] > clock.now]
                store[:] = [
                    e for e in store
                    if not (e[1] == scope and (scope == 0 or (e[0], e[2]) == (family, network)))
                ]
                store.append((family, scope, network, upstream.address, clock.now + upstream.ttl, next(order)))
                live = [e for entries in stores.values() for e in entries]
                if len(live) > resolver_module.CACHE_MAX_ENTRIES:
                    # the live entry closest to expiry goes, the earliest stored on a tie
                    victim = min(live, key=lambda e: (e[4], e[5]))
                    for entries in stores.values():
                        if victim in entries:
                            entries.remove(victim)
                    evictions += 1
                misses += 1
            else:
                assert upstream.calls == before
                assert [rr.address() for rr in got.answers] == [expected[3]]
                hits += 1
        else:
            entry = resolver.cache_lookup(qname, 1, ecs)
            if expected is None:
                assert entry is None
            else:
                assert entry is not None
                assert (entry.scope_prefix_len, [rr.address() for rr in cached_records(entry)], entry.stored_at + entry.ttl) == (
                    expected[1], [expected[3]], expected[4],
                )
            expired_checks += any(e[4] <= clock.now for e in store)
    assert hits > 200 and misses > 200 and expired_checks > 200
    assert resolver.evictions == evictions
    assert (evictions > 0) == (bound is not None)


def _cache_hit_seconds(resolver, ecs, calls):
    start = time.perf_counter()
    for _ in range(calls):
        resolver.cache_lookup("q.t", 1, ecs)
    return time.perf_counter() - start


def test_cache_hit_cost_does_not_grow_with_entries():
    # timing ratio, not absolute time: best of interleaved repeats, so a
    # host slowdown hits both sides alike
    resolvers = {}
    for count in (1, 500):
        upstream = _ScriptedUpstream()
        upstream.scope = 24
        resolver = Resolver(Forward(), "HK", upstream, LocationPrefixMap.default(["HK"]))
        for i in range(count):
            ecs = EcsOption.for_prefix(f"10.{i >> 8}.{i & 255}.0", 24)
            resolver.resolve(make_query("q.t", ecs=ecs), "198.18.0.77")
        # the last client network stored: a scan in store order reaches it last
        assert [rr.address() for rr in cached_records(resolver.cache_lookup("q.t", 1, ecs))] == [upstream.address]
        resolvers[count] = (resolver, ecs)
    best = {1: float("inf"), 500: float("inf")}
    for _ in range(7):
        for count, (resolver, ecs) in resolvers.items():
            best[count] = min(best[count], _cache_hit_seconds(resolver, ecs, 200))
    assert best[500] <= 3 * best[1], f"500 entries {best[500]:.6f}s vs 1 entry {best[1]:.6f}s"


def _store_seconds(resolver, ecs, segments, calls):
    start = time.perf_counter()
    for _ in range(calls):
        resolver._store("q.t", 1, 24, ecs, segments, 300)
    return time.perf_counter() - start


def test_cache_store_cost_does_not_grow_with_entries():
    # timing ratio, not absolute time: best of interleaved repeats, so a
    # host slowdown hits both sides alike; each timed store overwrites one
    # client network of a bucket of distinct /24s
    segments = answer_segments("q.t", [bytes((10, 0, 0, 1))])
    resolvers = {}
    for count in (40, 4000):
        resolver = Resolver(Forward(), "HK", _ScriptedUpstream(), LocationPrefixMap.default(["HK"]))
        for i in range(count):
            ecs = EcsOption.for_prefix(f"10.{i >> 8}.{i & 255}.0", 24)
            resolver._store("q.t", 1, 24, ecs, segments, 300)
        assert len(resolver._cache[("q.t", 1)][24]) == count
        resolvers[count] = (resolver, ecs)
    best = {40: float("inf"), 4000: float("inf")}
    for _ in range(7):
        for count, (resolver, ecs) in resolvers.items():
            best[count] = min(best[count], _store_seconds(resolver, ecs, segments, 200))
    assert best[4000] <= 3 * best[40], f"4000 entries {best[4000]:.6f}s vs 40 entries {best[40]:.6f}s"


def _live_entries(resolver):
    return sum(len(table) for bucket in resolver._cache.values() for table in bucket.values())


def test_cache_memory_is_bounded(monkeypatch):
    monkeypatch.setattr(resolver_module, "CACHE_MAX_ENTRIES", 1000)
    clock = VirtualClock()
    upstream = _ScriptedUpstream()
    upstream.scope = 24
    resolver = Resolver(Forward(), "HK", upstream, LocationPrefixMap.default(["HK"]), clock=clock)
    ecs = EcsOption.for_prefix("10.0.0.0", 24)
    for i in range(50_000):
        qname = f"n{i}.t"
        resolver._store(qname, 1, 24, ecs, answer_segments(qname, [bytes((10, 0, 0, 1))]), 300)
    assert _live_entries(resolver) == len(resolver._cache) == 1000
    # equal TTLs on a still clock: the oldest stores were evicted
    assert set(resolver._cache) == {(f"n{i}.t", 1) for i in range(49_000, 50_000)}
    assert (resolver.stores, resolver.evictions, resolver.expiries) == (50_000, 49_000, 0)

    # a scope longer than the source never hits, so every query overwrites
    upstream.scope = 28
    largest_heap = 0
    for i in range(2500):
        resolver.resolve(make_query(f"w{i % 7}.t", ecs=ecs), "198.18.0.77")
        largest_heap = max(largest_heap, len(resolver._heap))
    assert resolver.hits == 0
    assert 1000 < largest_heap <= 2000
    assert _live_entries(resolver) == 1000

    clock.advance(301)
    resolver.resolve(make_query("last.t", ecs=ecs), "198.18.0.77")
    assert list(resolver._cache) == [("last.t", 1)]
    assert _live_entries(resolver) == 1
    assert resolver.expiries == 1000


def test_a_long_answer_section_is_not_memoized():
    """448-record answers, each its own, for 1000 client /24s: neither the answer-section memo nor the reply
    memo takes any of them.

    Memory is traced over the last 100 queries, each a miss stored in the
    cache.  A query keeps its cache entry, whose 449 segments take about 31
    KiB: about 33 KiB in all on CPython 3.11.  Kept in the reply memo too,
    with the 14 KiB reply as its key, a query reads 47 KiB, and kept in the
    answer-section memo 52 KiB, each above the bound of 40 KiB a query.
    """
    def upstream(payload, source):
        msg_id, query, ecs = resolver_module._decode_query(payload, "upstream")
        addresses = [bytes((11 + i // 256, *ecs.address[1:], i % 256)) for i in range(448)]
        return pack_reply(msg_id, query, ecs, 24, answer_segments(query.question.qname, addresses), 300)

    resolver = Resolver(Forward(), "HK", InProcessLink(upstream), LocationPrefixMap.default(["HK"]))
    queries = [encode_message(make_query("bulk.pool.example", ecs=EcsOption.for_prefix(f"10.{n >> 8}.{n & 255}.0", 24)))
               for n in range(1000)]
    memo, replies = wire._answer_section.cache_info(), resolver_module._upstream_answer.cache_info()
    for payload in queries[:900]:
        resolver.handle(payload, "198.18.0.77")
    tracemalloc.start()
    try:
        for payload in queries[900:]:
            resolver.handle(payload, "198.18.0.77")
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (resolver.misses, resolver.stores, resolver.hits) == (1000, 1000, 0)
    assert len(resolver.cache_lookup("bulk.pool.example", 1, EcsOption.for_prefix("10.3.231.0", 24)).segments) == 449
    assert (wire._answer_section.cache_info(), resolver_module._upstream_answer.cache_info()) == (memo, replies)
    assert traced < 100 * 40 * 1024, f"{traced / 100 / 1024:.1f} KiB a query"


@pytest.mark.parametrize("count, kept", [(2, 1), (3, 0)], ids=["at-the-section-bound", "past-it"])
def test_the_reply_memo_keeps_no_reply_whose_answers_pass_the_section_bound(count, kept):
    """An upstream reply of *count* AAAA records whose names point back to a 228-octet question name, 328
    octets after its ID at most: the reply memo keeps it only when its answer section, each record under the
    name, is within `answer_segments`' bound of 512 octets (2 records, 512; 3, 768)."""
    name = "h" * 57 + "." + ".".join(["a" * 56] * 3)

    def upstream(payload, source):
        msg_id, query, _ = resolver_module._decode_query(payload, "upstream")
        answers = (b"\xc0\x0c" + struct.pack("!HHIH", QTYPE_AAAA, 1, 60, 16) + bytes((i,)) * 16 for i in range(count))
        head = struct.pack("!HHHHH", 0x8180, 1, count, 0, 0) + wire._encode_name(name) + struct.pack("!HH", QTYPE_AAAA, 1)
        return msg_id + head + b"".join(answers)

    def resolver(link):
        return Resolver(Forward(), "HK", link, LocationPrefixMap.default(["HK"]))

    payload = encode_message(make_query(name, qtype=QTYPE_AAAA))
    replies = resolver_module._upstream_answer.cache_info().currsize
    reply = resolver(InProcessLink(upstream)).handle(payload, "198.18.0.77")
    assert len(decode_message(reply).answers) == count
    assert reply == reference_handle(resolver(InProcessLink(upstream)), payload, "198.18.0.77")
    assert resolver_module._upstream_answer.cache_info().currsize == replies + kept


def _scoped_upstream(payload, source):
    """An upstream answering each query with one A record of its option's network, echoed at scope 24."""
    msg_id, query, ecs = resolver_module._decode_query(payload, "upstream")
    address = bytes((11, *ecs.address[1:], 1))
    return pack_reply(msg_id, query, ecs, 24, answer_segments(query.question.qname, [address]), 60)


def test_the_memos_serve_a_second_pass_over_6000_networks():
    """6000 client networks, each its own query, reply, answer section and cache key, asked for twice in one
    order: once every answer has expired, the memos serve the second pass, and each reply is the reference's.
    A memo of fewer entries would serve none of them, as each is evicted before it comes round again."""
    def resolver(clock):
        return Resolver(Forward(), "HK", InProcessLink(_scoped_upstream), LocationPrefixMap.default(["HK"]), clock=clock)

    memos = (wire._decode_body, wire._answer_section, resolver_module._cache_key, resolver_module._upstream_answer)
    clock = VirtualClock()
    front = resolver(clock)
    queries = [encode_message(make_query("wide.example", msg_id=n & 0xFFFF,
                                         ecs=EcsOption.for_prefix(f"10.{n >> 8}.{n & 255}.0", 24)))
               for n in range(6000)]
    for memo in MEMOS:
        memo.cache_clear()
    for payload in queries:
        front.handle(payload, "198.18.0.77")
    clock.advance(61)  # past every answer's TTL, so the second pass misses the cache as the first did
    twin = resolver(VirtualClock(61))
    before = [memo.cache_info() for memo in memos]
    replies = [front.handle(payload, "198.18.0.77") for payload in queries]
    for memo, was in zip(memos, before):
        info = memo.cache_info()
        hits, misses = info.hits - was.hits, info.misses - was.misses
        # each memo is read at least once a query, and 99% of its reads are hits
        assert len(queries) <= hits + misses <= hits / 0.99, f"{memo.__name__}: {hits} hits, {misses} misses"
    info = resolver_module._upstream_answer.cache_info()
    assert (info.misses, info.currsize) == (len(queries), len(queries))
    assert replies == [reference_handle(twin, payload, "198.18.0.77") for payload in queries]
    assert (front.misses, front.expiries, twin.misses) == (2 * len(queries), len(queries), len(queries))


def _long_option_query(n):
    """A query for api.example.iot whose OPT record holds one unknown option of 60 000 octets, its data from *n*."""
    head = encode_message(make_query("api.example.iot", msg_id=7))
    rdata = struct.pack("!HH", 65001, 59996) + n.to_bytes(4, "big") + bytes(59992)
    return head[:10] + b"\x00\x01" + head[12:] + b"\x00" + struct.pack("!HHIH", 41, 1232, 0, len(rdata)) + rdata


@pytest.mark.parametrize("case", ["long-responses-to-a-resolver", "long-options-to-an-authoritative"])
def test_a_query_memo_keeps_no_long_message(zone, case):
    """Long messages, each distinct, sent as queries: neither the message memo nor the OPT record memo keeps
    any of them, so traced memory stays below 1 MiB in all.

    40 responses of 33 000 octets each, sent to a resolver, would each
    hold about 155 KiB in the message memo.  200 queries, each with its own
    60 000-octet unknown EDNS option, sent to an authoritative, would each
    hold about 60 KiB in the OPT record memo.
    """
    if case == "long-responses-to-a-resolver":
        query = make_query("bulk.pool.example")
        segments = answer_segments("bulk.pool.example", [bytes((11, 0, i >> 8, i & 255)) for i in range(1000)])
        payloads = [pack_reply(b"\x00\x07", query, None, 0, segments, ttl) for ttl in range(40)]
        assert len(payloads[0]) > 33_000
        resolver = Resolver(Forward(), "HK", InProcessLink(_scoped_upstream), LocationPrefixMap.default(["HK"]))

        def send(payload):
            with pytest.raises(ScenarioError, match="^resolver got a response instead of a query$"):
                resolver.handle(payload, "198.18.0.77")

        def read(msg):
            return len(msg.answers) == 1000
    else:
        payloads = [_long_option_query(n) for n in range(200)]
        authoritative = Authoritative(zone)
        # an unknown option is ignored: each reply is the one to the same query with no option
        plain = encode_message(make_query("api.example.iot", msg_id=7).replace(edns=EdnsOpt()))
        expected = authoritative.handle(plain, "198.18.0.77")

        def send(payload):
            assert authoritative.handle(payload, "198.18.0.77") == expected

        def read(msg):
            return msg.edns == EdnsOpt()
    messages, options = wire._decode_body.cache_info(), wire._decode_opt.cache_info()
    tracemalloc.start()
    try:
        for payload in payloads:
            send(payload)
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(read(decode_message(payload)) for payload in payloads)  # nor as messages
    assert wire._decode_body.cache_info().currsize == messages.currsize
    assert wire._decode_opt.cache_info().currsize == options.currsize
    assert traced < 1024 * 1024, f"{traced / len(payloads) / 1024:.1f} KiB a message"


def test_overwritten_entry_outlives_its_stale_heap_record():
    clock = VirtualClock()
    upstream = _ScriptedUpstream()
    upstream.scope = 28  # longer than the source: never a hit, so each query overwrites
    resolver = Resolver(Forward(), "HK", upstream, LocationPrefixMap.default(["HK"]), clock=clock)
    ecs = EcsOption.for_prefix("10.0.0.0", 24)
    for ttl in (10, 100):
        upstream.ttl = ttl
        resolver.resolve(make_query("q.t", ecs=ecs), "198.18.0.77")
    clock.advance(20)
    entry = resolver.cache_lookup("q.t", 1, EcsOption.for_prefix("10.0.0.0", 28))
    assert entry is not None and (entry.stored_at, entry.ttl) == (0, 100)
    assert (resolver.stores, resolver.expiries, len(resolver._heap)) == (2, 0, 1)


def test_store_expires_what_fell_due_during_the_upstream_exchange():
    # the lookup before a miss expired all that was due then; the exchange moves the shared clock on
    clock = VirtualClock()

    def upstream(payload, source):
        query = decode_message(payload)
        if query.question.qname == "slow.t":
            clock.advance(400)
        return encode_message(make_response(query, (record_for_address(query.question.qname, "10.0.0.1", 300),)))

    prefix_map = LocationPrefixMap({"HK": "198.19.0.0/16"})
    resolver = Resolver(Forward(), "HK", InProcessLink(upstream), prefix_map, clock=clock)
    resolver.resolve(make_query("fast.t"), "198.18.0.77")
    resolver.resolve(make_query("slow.t"), "198.18.0.77")
    assert (resolver.stores, resolver.expiries) == (2, 1)
    assert list(resolver._cache) == [("slow.t", 1)]


def test_counters_on_a_scripted_sequence(monkeypatch):
    monkeypatch.setattr(resolver_module, "CACHE_MAX_ENTRIES", 2)
    plan = []  # per upstream call: (answer name, ttl, rcode, echo or None for the sent option at scope 24)

    def upstream(payload, source):
        query = decode_message(payload)
        name, ttl, rcode, echo = plan.pop(0)
        answers = (record_for_address(name, "10.0.0.1", ttl),) if rcode == 0 else ()
        ecs = echo or query.edns.ecs.with_scope(24)
        return encode_message(make_response(query, answers, rcode=rcode, ecs=ecs))

    clock = VirtualClock()
    prefix_map = LocationPrefixMap({"HK": "198.19.0.0/16"})
    resolver = Resolver(Forward(), "HK", InProcessLink(upstream), prefix_map, clock=clock)
    sent = EcsOption.for_prefix("198.18.0.0", 24)

    def ask(qname, *answer):
        plan[:] = [answer] if answer else []
        reply = resolver.resolve(make_query(qname, ecs=sent), "198.18.0.77")
        assert plan == []  # a planned upstream call was made, and only then
        return reply

    ask("a.t", "a.t", 100, 0, None)
    clock.advance(40)
    # a hit re-issues the cached record with the remaining TTL
    assert ask("a.t").answers == (record_for_address("a.t", "10.0.0.1", 60),)
    ask("b.t", "cdn.t", 50, 0, None)  # expires at 90, the first
    assert ask("b.t").answers == (record_for_address("b.t", "10.0.0.1", 50),)
    ask("c.t", "c.t", 200, 0, None)  # a third entry evicts b.t
    ask("b.t", "b.t", 300, 0, None)  # then a.t, expiring at 100
    ask("c.t")
    clock.advance(200)  # c.t expired at 240
    ask("c.t", "c.t", 0, 3, None)  # NXDOMAIN upstream
    ask("d.t", "d.t", 300, 0, EcsOption.for_prefix("203.0.113.0", 24, 24))
    ask("b.t")
    clock.advance(100)  # b.t expired at 340
    ask("e.t", "e.t", 10, 0, None)

    assert list(resolver._cache) == [("e.t", 1)]
    assert resolver.hits + resolver.misses == 11
    assert (resolver.hits, resolver.misses, resolver.stores) == (4, 7, 5)
    assert (resolver.expiries, resolver.evictions) == (2, 2)
    assert (resolver.bad_echoes, resolver.upstream_errors, resolver.nxdomains) == (1, 0, 1)


def test_miss_and_hit_send_the_same_answer_names():
    def upstream(payload, source):
        query = decode_message(payload)
        return encode_message(make_response(query, (record_for_address("other.example", "10.0.0.1", 100),)))

    prefix_map = LocationPrefixMap({"HK": "198.19.0.0/16"})
    resolver = Resolver(Forward(), "HK", InProcessLink(upstream), prefix_map, clock=VirtualClock())
    miss, hit = (resolver.resolve(make_query("api.example.iot"), "198.18.0.77") for _ in range(2))
    assert (resolver.misses, resolver.hits) == (1, 1)
    assert miss.answers == hit.answers == (record_for_address("api.example.iot", "10.0.0.1", 100),)


@pytest.mark.parametrize(
    "back_policy, legacy_geo, counts",
    [(Forward(), False, (3, 3, 3, 0)), (Strip(), True, (5, 1, 1, 0))],
    ids=["forward", "strip"],
)
def test_resolver_behind_a_resolver(zone, back_policy, legacy_geo, counts):
    # a Forward front whose upstream is a back resolver answers as the back resolver alone
    queries = [
        make_query("api.example.iot", ecs=EcsOption.for_prefix(zone.regions.prefix_for(code).network_address, 24))
        for code in region_codes(zone.regions)
    ]
    back = make_resolver(zone, back_policy, "HK", legacy_geo=legacy_geo)
    front = Resolver(Forward(), "UK", InProcessLink(back.handle), zone.regions)
    alone = make_resolver(zone, back_policy, "HK", legacy_geo=legacy_geo)
    for query in queries + queries:
        reply, direct = (resolver.resolve(query, "198.18.1.77") for resolver in (front, alone))
        assert reply.rcode == 0 and reply.answers
        assert [rr.address() for rr in reply.answers] == [rr.address() for rr in direct.answers]
    assert (front.hits, front.misses, front.stores, front.bad_echoes) == counts


class TestScenarios:

    def test_standard_follows_resolver_location(self, zone):
        transcript = run_scenario(
            "standard", device(ip="UK", user="UK", address="198.18.1.50"),
            "api.example.iot", zone, "UK",
        )
        assert transcript.final_answers() == (UK,)

    def test_ecs_basic_follows_client_location(self, zone):
        transcript = run_scenario("ecs_basic", device(), "api.example.iot", zone, "HK")
        assert transcript.final_answers() == (HK,)

    def test_ecs_user_defined_follows_registration(self, zone):
        transcript = run_scenario("ecs_user_defined", device(), "api.example.iot", zone, "HK")
        assert transcript.final_answers() == (UK,)

    def test_transcript_starts_and_ends_at_device(self, zone):
        transcript = run_scenario("ecs_user_defined", device(), "api.example.iot", zone, "HK")
        assert transcript.hops[0].sender == "device"
        assert transcript.hops[-1].receiver == "device"
        assert len(transcript.hops) == 4

    def test_transcript_render_shape(self, zone):
        transcript = run_scenario("ecs_user_defined", device(), "api.example.iot", zone, "HK")
        lines = transcript.render().splitlines()
        assert lines[0].startswith("hop_index,sender,receiver,qname")
        assert lines[-1] == "4,resolver,device,api.example.iot,1,24,198.18.1.0,203.0.113.10,24"

    def test_invalid_transcript_rejected(self, zone):
        query = make_query("api.example.iot")
        with pytest.raises(ScenarioError):
            ScenarioTranscript("standard", (Hop("resolver", "device", query),))
        with pytest.raises(ScenarioError, match="^transcript has no hops$"):
            ScenarioTranscript("standard", ())

    def test_device_address_outside_region_rejected(self, zone):
        bad = device(ip="HK", address="198.18.1.50")
        with pytest.raises(ScenarioError):
            run_scenario("ecs_basic", bad, "api.example.iot", zone, "HK")

    def test_zone_id_client_address_rejected(self):
        # fe80::1%eth0 lies inside fe80::/64 once its zone id is ignored
        prefix_map = LocationPrefixMap({"HK": "fe80::/64", "UK": "198.18.1.0/24"})
        with pytest.raises(ValueError, match=r"'fe80::1%eth0' does not appear to be an IPv4 or IPv6 address"):
            device(ip="HK", address="fe80::1%eth0").validate_against(prefix_map)

    def test_unknown_architecture_rejected(self, zone):
        with pytest.raises(ScenarioError):
            run_scenario("anycast", device(), "api.example.iot", zone, "HK")

    @pytest.mark.parametrize("arch", [[], {}, ["standard"], {"standard": 1}, None, 1])
    def test_architecture_of_another_type_rejected(self, zone, arch):
        # a list or dict cannot be a key of ARCHITECTURES, and must not raise TypeError
        with pytest.raises(ScenarioError, match=r"^unknown architecture "):
            run_scenario(arch, device(), "api.example.iot", zone, "HK")


class TestDominance:

    def test_user_defined_dominance_small(self, zone):
        regions = region_codes(zone.regions)
        for user in regions:
            expected = None
            for ip in regions:
                prefix = zone.regions.prefix_for(ip)
                cfg = device(ip=ip, user=user, address=str(prefix.network_address + 5))
                for resolver_location in regions:
                    transcript = run_scenario(
                        "ecs_user_defined", cfg, "api.example.iot", zone, resolver_location
                    )
                    if expected is None:
                        expected = transcript.final_answers()
                    assert transcript.final_answers() == expected

    def test_ip_based_dominance_under_basic(self, zone):
        regions = region_codes(zone.regions)
        for ip in regions:
            prefix = zone.regions.prefix_for(ip)
            expected = None
            for user in regions:
                cfg = device(ip=ip, user=user, address=str(prefix.network_address + 5))
                for resolver_location in regions:
                    transcript = run_scenario(
                        "ecs_basic", cfg, "api.example.iot", zone, resolver_location
                    )
                    if expected is None:
                        expected = transcript.final_answers()
                    assert transcript.final_answers() == expected


class TestForwardFidelity:

    def test_option_bytes_survive_forwarding(self, zone):
        rng = random.Random(5)
        seen = []

        class Tap:
            def __init__(self, inner):
                self.inner = inner

            def exchange(self, payload, source):
                seen.append(payload)
                return self.inner.exchange(payload, source)

        from ecsloc.wire import decode_message, encode_message, _encode_ecs_rdata

        authoritative = Authoritative(zone)
        for _ in range(100):
            seen.clear()
            prefix_len = rng.randint(0, 32)
            address = ".".join(str(rng.randint(0, 255)) for _ in range(4))
            ecs = EcsOption.for_prefix(address, prefix_len)
            resolver = Resolver(
                Forward(), "HK", Tap(InProcessLink(authoritative.handle)), zone.regions
            )
            query = make_query("api.example.iot", ecs=ecs)
            resolver.handle(encode_message(query), "198.18.0.77")
            arrived = decode_message(seen[0]).edns.ecs
            assert _encode_ecs_rdata(arrived) == _encode_ecs_rdata(ecs)


class TestScenarioFiles:

    def test_fixture_scenarios_load(self):
        spec = load_scenario(FIXTURES / "scenario_ecs_user_defined.json")
        assert spec.architecture == "ecs_user_defined"
        assert spec.device.user_defined_location == "UK"
        assert spec.zone_path == (FIXTURES / "zone.json").resolve()

    def test_parse_scenario_takes_the_bytes_load_reads(self, tmp_path):
        path = FIXTURES / "scenario_ecs_user_defined.json"
        assert parse_scenario(path.read_bytes(), path) == load_scenario(path)
        spec = parse_scenario(path.read_text(), tmp_path / "elsewhere" / "s.json")
        assert spec.zone_path == (tmp_path / "elsewhere" / "zone.json").resolve()

    def test_policy_override_parses(self, tmp_path):
        doc = (FIXTURES / "scenario_ecs_basic.json").read_text().replace(
            '"location": "HK"', '"location": "HK", "policy": {"rewrite_client_subnet": 16}'
        )
        path = tmp_path / "s.json"
        path.write_text(doc)
        (tmp_path / "zone.json").write_text((FIXTURES / "zone.json").read_text())
        spec = load_scenario(path)
        assert spec.policy == RewriteClientSubnet(16)

    @pytest.mark.parametrize("raw, policy", [("forward", Forward()), ("strip", Strip())])
    def test_named_policy_parses(self, tmp_path, raw, policy):
        path = self._write(tmp_path, lambda doc: doc["resolver"].update(policy=raw))
        assert load_scenario(path).policy == policy

    @pytest.mark.parametrize("raw", ["sideways", "Forward", {"rewrite": 24}, None])
    def test_unknown_policy_rejected(self, tmp_path, raw):
        path = self._write(tmp_path, lambda doc: doc["resolver"].update(policy=raw))
        with pytest.raises(ScenarioError) as info:
            load_scenario(path)
        assert str(info.value) == f"{path}: unknown policy {raw!r}"

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("{\"architecture\": \"standard\"}")
        with pytest.raises(ScenarioError):
            load_scenario(path)

    @staticmethod
    def _write(tmp_path, edit):
        """An ecs_basic scenario file with *edit* applied to its document."""
        doc = json.loads((FIXTURES / "scenario_ecs_basic.json").read_text())
        edit(doc)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize(
        "value, message",
        [
            (True, ".rewrite_client_subnet: must be an integer, got True"),
            (24.9, ".rewrite_client_subnet: must be an integer, got 24.9"),
            ("24", ".rewrite_client_subnet: must be an integer, got '24'"),
            (33, ": rewrite prefix length 33 out of range"),
        ],
        ids=["bool", "float", "text", "range"],
    )
    def test_policy_prefix_read_strictly(self, tmp_path, value, message):
        path = self._write(tmp_path, lambda doc: doc["resolver"].update(policy={"rewrite_client_subnet": value}))
        with pytest.raises(ScenarioError) as info:
            load_scenario(path)
        assert str(info.value) == f"{path}: policy{message}"

    @pytest.mark.parametrize(
        "section, key", [("device", "device_id"), ("device", "ip_based_location"),
                         ("device", "user_defined_location"), ("device", "client_address"),
                         ("resolver", "location")],
    )
    def test_fields_must_be_text(self, tmp_path, section, key):
        path = self._write(tmp_path, lambda doc: doc[section].update({key: True}))
        with pytest.raises(ScenarioError) as info:
            load_scenario(path)
        assert str(info.value) == f"{path}: {section}.{key}: must be text, got True"

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda doc: doc.update(device="x"), "device: must be an object, got 'x'"),
         (lambda doc: doc.update(resolver=["HK"]), "resolver: must be an object, got ['HK']"),
         (lambda doc: doc["device"].pop("device_id"), "device: missing field 'device_id'"),
         (lambda doc: doc["resolver"].pop("location"), "resolver: missing field 'location'"),
         (lambda doc: doc.pop("zone"), "missing field 'zone'")],
        ids=["device-text", "resolver-array", "device-id-missing", "location-missing", "zone-missing"],
    )
    def test_sections_name_their_fault(self, tmp_path, edit, message):
        path = self._write(tmp_path, edit)
        with pytest.raises(ScenarioError) as info:
            load_scenario(path)
        assert str(info.value) == f"{path}: {message}"

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"architecture": "standard", "architecture": "ecs_basic"}')
        with pytest.raises(ScenarioError) as info:
            load_scenario(path)
        assert str(info.value) == f"{path}: duplicate key 'architecture'"

    @pytest.mark.parametrize(
        "qname, message", [(5, "name must be text, got 5"), ("api..example.iot", "empty label in 'api..example.iot'")],
        ids=["number", "empty-label"],
    )
    def test_qname_checked_at_load(self, tmp_path, qname, message):
        path = self._write(tmp_path, lambda doc: doc.update(qname=qname))
        with pytest.raises(ScenarioError) as info:
            load_scenario(path)
        assert str(info.value) == f"{path}: qname: {message}"

    @pytest.mark.parametrize("zone", [5, None, ["zone.json"]], ids=["number", "null", "array"])
    def test_zone_must_be_text(self, tmp_path, zone):
        path = self._write(tmp_path, lambda doc: doc.update(zone=zone))
        with pytest.raises(ScenarioError) as info:
            load_scenario(path)
        assert str(info.value) == f"{path}: zone: must be text, got {zone!r}"

    def test_qname_canonical_at_load(self, tmp_path):
        path = self._write(tmp_path, lambda doc: doc.update(qname="API.Example.IoT."))
        assert load_scenario(path).qname == "api.example.iot"
