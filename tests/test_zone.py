"""Zone loading and client-subnet answer selection, checked against a
brute-force scan of all entries."""

import ipaddress
import json
import random
import re
import string
import time

import pytest
from helpers import FIXTURES, zone_qnames

from ecsloc.wire import EcsOption, address_text
from ecsloc.zone import (
    AnswerSet,
    DefaultMismatch,
    GeoZone,
    LocationPrefixMap,
    NameNotFound,
    OverlapError,
    RegionalAnswer,
    UnknownRegion,
    ZoneParseError,
)


def write_zone(tmp_path, doc, name="zone.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


TWO_REGION_DOC = {
    "origin": "example.iot",
    "regions": {"UK": "198.18.1.0/24", "HK": "198.18.0.0/24"},
    "records": {
        "api.example.iot": {
            "answers": [
                {"region": "UK", "addresses": ["10.1.0.1"]},
                {"region": "HK", "addresses": ["10.2.0.1"]},
            ]
        }
    },
}


class TestPrefixMap:

    def test_default_map_is_deterministic_and_disjoint(self):
        m1 = LocationPrefixMap.default(["US", "HK", "UK"])
        m2 = LocationPrefixMap.default(["UK", "US", "HK"])
        assert m1.entries == m2.entries
        assert m1.prefix_for("HK") == ipaddress.ip_network("198.18.0.0/24")
        assert m1.prefix_for("UK") == ipaddress.ip_network("198.18.1.0/24")
        assert m1.prefix_for("US") == ipaddress.ip_network("198.18.2.0/24")

    def test_repeated_calls_identical(self):
        m = LocationPrefixMap.default(["UK", "HK"])
        assert m.prefix_for("UK") == m.prefix_for("UK")

    def test_unknown_region(self):
        m = LocationPrefixMap.default(["UK"])
        with pytest.raises(UnknownRegion):
            m.prefix_for("ZZ")

    def test_overlapping_prefixes_rejected(self):
        with pytest.raises(OverlapError):
            LocationPrefixMap({"UK": "198.18.0.0/16", "HK": "198.18.1.0/24"})

    def test_host_bits_rejected(self):
        with pytest.raises(ZoneParseError):
            LocationPrefixMap({"UK": "198.18.1.7/24"})

    def test_bad_region_code_rejected(self):
        with pytest.raises(ZoneParseError):
            LocationPrefixMap({"UKX": "198.18.1.0/24"})


class TestLoad:

    def test_two_region_fixture(self, tmp_path):
        zone = GeoZone.load(write_zone(tmp_path, TWO_REGION_DOC))
        record = zone.records["api.example.iot"]
        assert len(record.answers) == 2
        assert {address_text(a) for a in record.default} == {"10.1.0.1", "10.2.0.1"}

    def test_repo_fixture_loads(self):
        zone = GeoZone.load(FIXTURES / "zone.json")
        assert zone.origin == "example.iot"
        assert set(zone_qnames(zone)) == {"api.example.iot", "media.example.iot"}

    def test_region_code_with_trailing_newline_rejected(self, tmp_path):
        doc = json.loads(json.dumps(TWO_REGION_DOC))
        doc["regions"]["UK\n"] = doc["regions"].pop("UK")
        with pytest.raises(ZoneParseError, match="regions: region code must be two letters"):
            GeoZone.load(write_zone(tmp_path, doc))

    def test_empty_file_is_empty_zone(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        zone = GeoZone.load(path)
        assert zone.records == {}

    def test_duplicate_region_prefix_rejected(self, tmp_path):
        doc = json.loads(json.dumps(TWO_REGION_DOC))
        doc["records"]["api.example.iot"]["answers"].append(
            {"region": "UK", "addresses": ["10.9.9.9"]}
        )
        with pytest.raises(OverlapError):
            GeoZone.load(write_zone(tmp_path, doc))

    def test_default_mismatch_rejected(self, tmp_path):
        doc = json.loads(json.dumps(TWO_REGION_DOC))
        doc["records"]["api.example.iot"]["default"] = ["10.1.0.1"]
        with pytest.raises(DefaultMismatch):
            GeoZone.load(write_zone(tmp_path, doc))

    @pytest.mark.parametrize("default", [5, "10.1.0.1"])
    def test_default_must_be_an_array(self, tmp_path, default):
        doc = json.loads(json.dumps(TWO_REGION_DOC))
        doc["records"]["api.example.iot"]["default"] = default
        with pytest.raises(ZoneParseError, match=r"\.default: must be an array"):
            GeoZone.load(write_zone(tmp_path, doc))

    def test_unknown_region_reference(self, tmp_path):
        doc = json.loads(json.dumps(TWO_REGION_DOC))
        doc["records"]["api.example.iot"]["answers"][0]["region"] = "FR"
        with pytest.raises(ZoneParseError, match="FR"):
            GeoZone.load(write_zone(tmp_path, doc))

    def test_parse_error_carries_context(self, tmp_path):
        doc = json.loads(json.dumps(TWO_REGION_DOC))
        doc["records"]["api.example.iot"]["answers"][1]["addresses"] = ["not-an-ip"]
        with pytest.raises(ZoneParseError, match=r"answers\[1\]"):
            GeoZone.load(write_zone(tmp_path, doc))

    def test_family_mismatch_rejected(self, tmp_path):
        doc = json.loads(json.dumps(TWO_REGION_DOC))
        doc["records"]["api.example.iot"]["answers"][0]["addresses"] = ["2001:db8::1"]
        with pytest.raises(ZoneParseError):
            GeoZone.load(write_zone(tmp_path, doc))

    def test_ttl_defaults_to_300(self, tmp_path):
        zone = GeoZone.load(write_zone(tmp_path, TWO_REGION_DOC))
        assert zone.records["api.example.iot"].ttl == 300
        assert zone.records["api.example.iot"].answers[0].ttl == 300

    @pytest.mark.parametrize(
        "ttl",
        [True, False, pytest.param(-1, id="guard-negative"), pytest.param(1.5, id="guard-float"),
         pytest.param("300", id="guard-text")],
    )
    def test_ttl_must_be_a_non_negative_integer(self, tmp_path, ttl):
        doc = json.loads(json.dumps(TWO_REGION_DOC))
        doc["records"]["api.example.iot"]["ttl"] = ttl
        message = "records['api.example.iot'].ttl: must be a non-negative integer"
        with pytest.raises(ZoneParseError, match=re.escape(message)):
            GeoZone.load(write_zone(tmp_path, doc))

    @pytest.mark.parametrize("origin", [5, pytest.param(["x"], id="list"), "a b", "ex..iot"])
    def test_origin_must_be_a_dns_name(self, tmp_path, origin):
        path = write_zone(tmp_path, {**TWO_REGION_DOC, "origin": origin})
        with pytest.raises(ZoneParseError, match=re.escape(f"{path}: origin: ")):
            GeoZone.load(path)

    def test_origin_is_folded_guard(self, tmp_path):
        zone = GeoZone.load(write_zone(tmp_path, {**TWO_REGION_DOC, "origin": "Example.IOT."}))
        assert zone.origin == "example.iot"

    def test_duplicate_json_key_rejected(self, tmp_path):
        text = (
            '{"origin": "t", '
            '"regions": {"UK": "198.18.1.0/24", "UK": "198.18.2.0/24"}, '
            '"records": {}}'
        )
        path = tmp_path / "dup.json"
        path.write_text(text)
        with pytest.raises(ZoneParseError, match="duplicate key"):
            GeoZone.load(path)

    @pytest.mark.parametrize(
        "keys",
        [["API.t", "api.t."], ["bad name.t"], ["a..b"], ["x" * 64 + ".t"]],
        ids=["same-name-twice", "space", "empty-label", "64-octet-label"],
    )
    def test_record_key_must_be_a_new_valid_name(self, tmp_path, keys):
        block = TWO_REGION_DOC["records"]["api.example.iot"]
        doc = {**TWO_REGION_DOC, "records": {key: block for key in keys}}
        with pytest.raises(ZoneParseError, match=re.escape(f"records[{keys[-1]!r}]: ")):
            GeoZone.load(write_zone(tmp_path, doc))

    def test_ipv6_regions_supported(self, tmp_path):
        doc = {
            "origin": "t",
            "regions": {"UK": "2001:db8:1::/48", "HK": "2001:db8:2::/48"},
            "records": {
                "api.t": {
                    "answers": [
                        {"region": "UK", "addresses": ["2001:db8:1::10"]},
                        {"region": "HK", "addresses": ["2001:db8:2::10"]},
                    ]
                }
            },
        }
        zone = GeoZone.load(write_zone(tmp_path, doc))
        ecs = EcsOption.for_prefix("2001:db8:1::", 48)
        result = zone.lookup("api.t", ecs)
        assert [address_text(a) for a in result.addresses] == ["2001:db8:1::10"]
        assert result.scope == 48


class TestLookup:

    @pytest.fixture
    def zone(self):
        return GeoZone.load(FIXTURES / "zone.json")

    def test_regional_answer_with_scope(self, zone):
        ecs = EcsOption.for_prefix("198.18.1.0", 24)
        result = zone.lookup("api.example.iot", ecs)
        assert [address_text(a) for a in result.addresses] == ["203.0.113.10"]
        assert result.scope == 24

    def test_no_option_returns_all_regions(self, zone):
        result = zone.lookup("api.example.iot", None)
        assert {address_text(a) for a in result.addresses} == {
            "203.0.113.10", "203.0.113.20", "203.0.113.30",
        }
        assert result.scope == 0

    def test_zero_source_behaves_like_no_option(self, zone):
        ecs = EcsOption(family=1, source_prefix_len=0)
        assert zone.lookup("api.example.iot", ecs) == zone.lookup("api.example.iot", None)

    def test_unmatched_prefix_falls_back_to_default(self, zone):
        ecs = EcsOption.for_prefix("192.0.2.0", 24)
        result = zone.lookup("media.example.iot", ecs)
        # brute force over every entry: nothing contains 192.0.2.0/24
        record = zone.records["media.example.iot"]
        assert not any(
            ans.prefix.prefixlen <= 24
            and ipaddress.ip_network("192.0.2.0/24").subnet_of(ans.prefix)
            for ans in record.answers
        )
        assert set(result.addresses) == set(record.default)
        assert result.scope == 0

    def test_name_not_found(self, zone):
        with pytest.raises(NameNotFound):
            zone.lookup("nope.example.iot", None)

    @pytest.mark.parametrize(
        "qname",
        ["api.example.iot..", 5, pytest.param("a..b", id="guard-empty-label"),
         pytest.param("bad name", id="guard-space"), pytest.param("", id="guard-empty")],
    )
    def test_names_the_rule_rejects_are_not_found(self, zone, qname):
        with pytest.raises(NameNotFound):
            zone.lookup(qname, None)

    def test_qname_case_insensitive(self, zone):
        ecs = EcsOption.for_prefix("198.18.1.0", 24)
        assert zone.lookup("API.Example.IOT.", ecs) == zone.lookup("api.example.iot", ecs)

    def test_superset_invariant(self, zone):
        default = set(zone.lookup("api.example.iot", None).addresses)
        for net in ("198.18.0.0", "198.18.1.0", "198.18.2.0", "192.0.2.0"):
            tailored = set(zone.lookup("api.example.iot", EcsOption.for_prefix(net, 24)).addresses)
            assert tailored <= default


V4_POOL = [
    "10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.200.0.0/16",
    "172.16.0.0/12", "172.16.4.0/24", "192.168.0.0/16", "192.168.9.0/24",
]
V6_POOL = [
    "2001:db8::/32", "2001:db8:1::/48", "2001:db8:1::/56", "2001:db8:1:200::/56",
    "2001:db8:1:200::/64", "2001:db8:2::/48", "2001:db8:8000::/33", "::/0",
]


def _random_nested_zone(rng, pool=V4_POOL):
    # direct construction so prefixes may nest, which the table-driven
    # loader's disjointness rule would otherwise forbid
    chosen = rng.sample(pool, rng.randint(1, len(pool)))
    answers = []
    used = set()
    for i, cidr in enumerate(chosen):
        net = ipaddress.ip_network(cidr)
        if any(net.prefixlen == o.prefixlen and net.overlaps(o) for o in used):
            continue
        used.add(net)
        address = f"203.0.113.{i + 1}" if net.version == 4 else f"2001:db8:ffff::{i + 1}"
        answers.append(RegionalAnswer(region="ZZ", prefix=net, addresses=(address,)))
    record = AnswerSet(answers=tuple(answers))
    return GeoZone(origin="t", regions=LocationPrefixMap({}), records={"q.t": record})


def test_longest_prefix_match_against_brute_force():
    rng = random.Random(7)
    for _ in range(200):
        zone = _random_nested_zone(rng)
        record = zone.records["q.t"]
        address = ipaddress.IPv4Address(rng.randint(0, 0xFFFFFFFF))
        ecs = EcsOption.for_prefix(address, 32)
        result = zone.lookup("q.t", ecs)
        containing = [ans for ans in record.answers if address in ans.prefix]
        if not containing:
            assert set(result.addresses) == set(record.default)
            assert result.scope == 0
        else:
            best = max(containing, key=lambda ans: ans.prefix.prefixlen)
            assert result.addresses == best.addresses
            assert result.scope == best.prefix.prefixlen
    # both families in one record, and sources shorter than the address:
    # a prefix matches only when it is no longer than the source
    for _ in range(400):
        zone = _random_nested_zone(rng, V4_POOL + V6_POOL)
        record = zone.records["q.t"]
        inside = ipaddress.ip_network(rng.choice(V4_POOL + V6_POOL))
        if rng.random() < 0.7:
            address = inside.network_address + rng.randrange(inside.num_addresses)
        elif inside.version == 4:
            address = ipaddress.IPv4Address(rng.getrandbits(32))
        else:
            address = ipaddress.IPv6Address(rng.getrandbits(128))
        source = rng.randint(1, address.max_prefixlen)
        query = ipaddress.ip_network((address, source), strict=False)
        result = zone.lookup("q.t", EcsOption.for_prefix(address, source))
        containing = [
            ans for ans in record.answers
            if ans.prefix.version == query.version
            and ans.prefix.prefixlen <= source
            and query.subnet_of(ans.prefix)
        ]
        if not containing:
            assert set(result.addresses) == set(record.default)
            assert result.scope == 0
        else:
            best = max(containing, key=lambda ans: ans.prefix.prefixlen)
            assert result.addresses == best.addresses
            assert result.scope == best.prefix.prefixlen


def _random_prefix_set(rng):
    # small address spaces so prefixes often nest, coincide or sit side by side
    prefixes = []
    for _ in range(rng.randint(2, 12)):
        if prefixes and rng.random() < 0.3:
            # the next network of the same length: adjacent, never overlapping
            net = rng.choice(prefixes)
            prefixes.append(type(net)((net.broadcast_address + 1, net.prefixlen)))
        elif rng.random() < 0.5:
            base = 0x0A000000 + (rng.getrandbits(12) << 8)
            plen = rng.choice((12, 16, 20, 23, 24, 25))
            prefixes.append(ipaddress.IPv4Network((base, plen), strict=False))
        else:
            base = (0x20010DB8 << 96) + (rng.getrandbits(16) << 64)
            plen = rng.choice((36, 44, 48, 56, 63, 64))
            prefixes.append(ipaddress.IPv6Network((base, plen), strict=False))
    return prefixes


def test_overlap_check_against_pairwise():
    rng = random.Random(17)
    codes = [a + b for a in "ABCDEFGHIJ" for b in "KLMNOPQRSTUVWXYZ"]
    raised = accepted_with_neighbours = 0
    for _ in range(1500):
        entries = dict(zip(codes, _random_prefix_set(rng)))
        pairs = [
            (a, b)
            for a in sorted(entries)
            for b in sorted(entries)
            if a < b
            and entries[a].version == entries[b].version
            and entries[a].overlaps(entries[b])
        ]
        if not pairs:
            LocationPrefixMap(entries)
            accepted_with_neighbours += any(
                net.broadcast_address + 1 == other.network_address
                for net in entries.values()
                for other in entries.values()
                if net.version == other.version
            )
            continue
        with pytest.raises(OverlapError) as info:
            LocationPrefixMap(entries)
        assert str(info.value) in {f"regions {a} and {b} have overlapping prefixes" for a, b in pairs}
        raised += 1
    assert raised > 300 and accepted_with_neighbours > 100


def _lookup_seconds(zone, ecs, calls):
    start = time.perf_counter()
    for _ in range(calls):
        zone.lookup("q.t", ecs)
    return time.perf_counter() - start


def test_lookup_cost_does_not_grow_with_regions():
    # timing ratio, not absolute time: best of interleaved repeats, so a
    # host slowdown hits both sides alike
    zones = {}
    for count in (2, 512):
        codes = [a + b for a in string.ascii_uppercase for b in string.ascii_uppercase]
        regions = LocationPrefixMap.default(codes[:count])
        answers = tuple(
            RegionalAnswer(region=code, prefix=prefix, addresses=(f"203.0.113.{i % 250 + 1}",))
            for i, (code, prefix) in enumerate(sorted(regions.entries.items()))
        )
        record = AnswerSet(answers=answers)
        # the last region: a scan in region order reaches it last
        ecs = EcsOption.for_prefix(answers[-1].prefix.network_address, 24)
        zones[count] = (GeoZone(origin="t", regions=regions, records={"q.t": record}), ecs)
        assert zones[count][0].lookup("q.t", ecs).addresses == answers[-1].addresses
    best = {2: float("inf"), 512: float("inf")}
    for _ in range(7):
        for count, (zone, ecs) in zones.items():
            best[count] = min(best[count], _lookup_seconds(zone, ecs, 200))
    assert best[512] <= 3 * best[2], f"512 regions {best[512]:.6f}s vs 2 regions {best[2]:.6f}s"


def test_scope_never_exceeds_matched_entry():
    zone = GeoZone.load(FIXTURES / "zone.json")
    ecs = EcsOption.for_prefix("198.18.1.128", 32)
    result = zone.lookup("api.example.iot", ecs)
    assert result.scope == 24
