"""Zone loading and client-subnet answer selection, checked against a
brute-force scan of all entries."""

import ipaddress
import json
import random
import re
import string
import time

import pytest
from helpers import FIXTURES, TWO_LETTER_CODES, zone_qnames

from ecsloc.wire import QTYPE_A, EcsOption, ResourceRecord, address_text
from ecsloc.zone import (
    AnswerSet,
    DefaultMismatch,
    GeoZone,
    LocationPrefixMap,
    NameNotFound,
    OverlapError,
    RegionalAnswer,
    UnknownRegion,
    ZoneError,
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

    def test_region_given_twice_rejected(self):
        with pytest.raises(ZoneParseError, match="^region UK given twice$"):
            LocationPrefixMap({"uk": "10.0.0.0/24", "UK": "10.1.0.0/24"})

    def test_default_map_holds_at_most_512_regions(self):
        assert len(LocationPrefixMap.default(TWO_LETTER_CODES[:512]).entries) == 512
        with pytest.raises(ZoneParseError, match="^default map supports at most 512 regions$"):
            LocationPrefixMap.default(TWO_LETTER_CODES[:513])


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

    def test_loads_takes_the_bytes_or_text_load_reads(self, tmp_path):
        path = write_zone(tmp_path, TWO_REGION_DOC)
        zone = GeoZone.load(path)
        assert GeoZone.loads(path.read_bytes(), path) == zone
        assert GeoZone.loads(path.read_text(), path) == zone

    def test_bytes_read_with_universal_newlines(self, tmp_path):
        text = '{"origin": "t",\n "records": {\n "a.t": 5,\n}}'
        with pytest.raises(ZoneParseError) as lf:
            GeoZone.loads(text, "z.json")
        with pytest.raises(ZoneParseError) as crlf:
            GeoZone.loads(text.replace("\n", "\r\n").encode(), "z.json")
        message = "z.json: Expecting property name enclosed in double quotes: line 4 column 1 (char 41)"
        assert str(crlf.value) == str(lf.value) == message

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

    @pytest.mark.parametrize("prefix", [True, 7, 3232235777, None, ["198.18.1.0/24"]],
                             ids=["bool", "small-number", "number-of-an-address", "null", "array"])
    def test_region_prefix_must_be_text(self, prefix):
        doc = {**TWO_REGION_DOC, "regions": {"UK": "198.18.1.0/24", "HK": prefix}}
        with pytest.raises(ZoneParseError) as info:
            GeoZone.loads(json.dumps(doc), "zone.json")
        assert str(info.value) == f"zone.json: regions.HK: must be text, got {prefix!r}"

    def test_region_given_twice_rejected(self):
        doc = {**TWO_REGION_DOC, "regions": {"uk": "10.0.0.0/24", "UK": "10.1.0.0/24"}}
        with pytest.raises(ZoneParseError) as info:
            GeoZone.loads(json.dumps(doc), "zone.json")
        assert str(info.value) == "zone.json: regions: region UK given twice"

    def test_empty_address_list_rejected_by_the_constructor(self):
        with pytest.raises(ZoneParseError, match="^region UK: empty address list$"):
            RegionalAnswer("UK", ipaddress.ip_network("198.18.1.0/24"), ())

    def test_packed_address_of_a_wrong_length_is_named(self):
        net = ipaddress.ip_network("10.0.0.0/24")
        assert RegionalAnswer("UK", net, (b"\x0a\x00\x00\x01",)).addresses == (b"\x0a\x00\x00\x01",)
        for rdata in (b"\x01\x02\x03\x04\x05", b"", b"\x01" * 15):
            with pytest.raises(ValueError) as info:
                RegionalAnswer("UK", net, (rdata,))
            assert str(info.value) == f"{rdata!r} does not appear to be an IPv4 or IPv6 address"

    def test_repeated_address_rejected_by_the_constructor(self):
        net = ipaddress.ip_network("198.18.1.0/24")
        with pytest.raises(ZoneParseError) as info:
            RegionalAnswer("UK", net, ("10.1.0.1", "10.1.0.2", "10.1.0.1"))
        assert str(info.value) == "region UK: address 10.1.0.1 listed twice"
        answer = RegionalAnswer("UK", net, ("10.1.0.1",))
        with pytest.raises(DefaultMismatch):
            AnswerSet((answer,), default=("10.1.0.1", "10.1.0.1"))

    def test_ttl_defaults_to_300(self, tmp_path):
        zone = GeoZone.load(write_zone(tmp_path, TWO_REGION_DOC))
        assert zone.records["api.example.iot"].ttl == 300

    @pytest.mark.parametrize(
        "ttl, reason",
        [pytest.param(True, "must be an integer, got True", id="True"),
         pytest.param(False, "must be an integer, got False", id="False"),
         pytest.param(-1, "must be a non-negative integer, got -1", id="guard-negative"),
         pytest.param(1.5, "must be an integer, got 1.5", id="guard-float"),
         pytest.param("300", "must be an integer, got '300'", id="guard-text"),
         pytest.param(2**32, "must be at most 4294967295, got 4294967296", id="over-32-bits")],
    )
    def test_ttl_must_be_a_non_negative_integer(self, tmp_path, ttl, reason):
        doc = json.loads(json.dumps(TWO_REGION_DOC))
        doc["records"]["api.example.iot"]["ttl"] = ttl
        path = write_zone(tmp_path, doc)
        with pytest.raises(ZoneParseError) as info:
            GeoZone.load(path)
        assert str(info.value) == f"{path}: records['api.example.iot'].ttl: {reason}"

    def test_ttl_of_32_bits_accepted(self, tmp_path):
        doc = json.loads(json.dumps(TWO_REGION_DOC))
        doc["records"]["api.example.iot"]["ttl"] = 0xFFFFFFFF
        result = GeoZone.load(write_zone(tmp_path, doc)).lookup("api.example.iot")
        assert result.ttl == 0xFFFFFFFF
        ResourceRecord("api.example.iot", QTYPE_A, result.ttl, result.addresses[0])  # the answer can be sent

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


class TestReplace:
    """`replace` and `_replace` on a loaded answer set derive the index again and run every check."""

    @pytest.fixture
    def zone(self):
        return GeoZone.load(FIXTURES / "zone.json")

    def test_new_ttl(self, zone):
        record = zone.records["api.example.iot"]
        changed = record.replace(ttl=60)
        assert (changed.answers, changed.default, changed.ttl) == (record.answers, record.default, 60)
        assert changed.index == record.index

    def test_new_ttl_reported_for_a_regional_match(self, zone):
        record = zone.records["api.example.iot"].replace(ttl=60)
        zone = zone.replace(records={"api.example.iot": record})
        assert zone.lookup("api.example.iot", EcsOption.for_prefix("198.18.1.0", 24)).ttl == 60

    def test_fewer_answers(self, zone):
        record = zone.records["api.example.iot"]
        kept = record.answers[0]
        for changed in (record.replace(answers=record.answers[:1], default=None),
                        record._replace(answers=record.answers[:1], default=None)):
            assert [table for tables in changed.index.values() for _, _, table in tables] == [
                {int(kept.prefix.network_address): kept}
            ]
            assert changed.default == kept.addresses

    def test_stale_default_rejected(self, zone):
        record = zone.records["api.example.iot"]
        with pytest.raises(DefaultMismatch):
            record.replace(answers=record.answers[:1])

    def test_default_given_packed(self, zone):
        record = zone.records["api.example.iot"]
        assert AnswerSet(record.answers, default=record.default[::-1]) == record
        with pytest.raises(ValueError, match=re.escape("b'\\xcb\\x00q' does not appear to be an IPv4 or IPv6 address")):
            AnswerSet(record.answers, default=(*record.default[1:], record.default[0][:3]))


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


# --- outcome sweep: one field of one answer cell (or of its record) broken at a
# time, first in the document's first record, where the cell's region is seen
# for the first time, then in its last, after that region has loaded cleanly

SWEEP_DOC = {
    "origin": "t",
    "regions": {"UK": "198.18.1.0/24", "HK": "198.18.0.0/24", "US": "2001:db8:1::/48"},
    "records": {
        f"{q}.t": {
            "answers": [
                {"region": "UK", "addresses": [f"10.1.0.{n}"]},
                {"region": "HK", "addresses": [f"10.2.0.{n}", f"10.2.1.{n}"]},
                {"region": "US", "addresses": [f"2001:db8:1::{n}"]},
            ]
        }
        for n, q in ((1, "a"), (2, "b"))
    },
}
SWEEP_PROBES = [None, *(EcsOption.for_prefix(net, int(plen)) for net, plen in (
    ("198.18.1.0", 24), ("198.18.0.0", 24), ("2001:db8:1::", 48), ("192.0.2.0", 24), ("198.18.1.77", 32)))]
_DROP = object()


def _cell(index, **fields):
    def mutate(block):
        cell = block["answers"][index]
        for key, value in fields.items():
            if value is _DROP:
                del cell[key]
            else:
                cell[key] = value(cell[key]) if callable(value) else value
    return mutate


def _entry(index, value):
    def mutate(block):
        block["answers"][index] = value
    return mutate


def _append(region, address):
    def mutate(block):
        block["answers"].append({"region": region, "addresses": [address]})
    return mutate


def _default(value):
    def mutate(block):
        union = [a for cell in block["answers"] for a in cell["addresses"]]
        block["default"] = value(union) if callable(value) else value
    return mutate


# mutant -> (mutation, outcome): "base" is a zone equal to SWEEP_DOC's with the
# same lookups; otherwise (exception type, text), where {where} stands for
# "zone.json: records['<the mutated record>']" and {n} for its number, 1 or 2
SWEEP = {
    "entry-text": (_entry(0, "UK"), (ZoneParseError, "{where}.answers[0]: must be an object, got 'UK'")),
    "entry-array": (_entry(0, ["UK", ["10.1.0.9"]]), (
        ZoneParseError, "{where}.answers[0]: must be an object, got ['UK', ['10.1.0.9']]")),
    "entry-null": (_entry(0, None), (ZoneParseError, "{where}.answers[0]: must be an object, got None")),
    "entry-number": (_entry(1, 7), (ZoneParseError, "{where}.answers[1]: must be an object, got 7")),
    "entry-empty-object": (_entry(0, {}), (ZoneParseError, "{where}.answers[0]: missing field 'region'")),
    "entry-extra-field": (_cell(0, note="x"), "base"),
    "region-missing": (_cell(0, region=_DROP), (ZoneParseError, "{where}.answers[0]: missing field 'region'")),
    "addresses-missing": (_cell(0, addresses=_DROP),
                          (ZoneParseError, "{where}.answers[0]: missing field 'addresses'")),
    "region-number": (_cell(0, region=12), (ZoneParseError, "{where}.answers[0].region: must be text, got 12")),
    "region-null": (_cell(0, region=None), (ZoneParseError, "{where}.answers[0].region: must be text, got None")),
    "region-bool": (_cell(0, region=True), (ZoneParseError, "{where}.answers[0].region: must be text, got True")),
    "region-array": (_cell(0, region=["UK"]), (
        ZoneParseError, "{where}.answers[0].region: must be text, got ['UK']")),
    "region-object": (_cell(2, region={"US": 1}), (
        ZoneParseError, "{where}.answers[2].region: must be text, got {{'US': 1}}")),
    "region-lower": (_cell(0, region="uk"), "base"),
    "region-mixed-case": (_cell(2, region="uS"), "base"),
    "region-digit": (_cell(0, region="U1"), (
        ZoneParseError, "{where}.answers[0].region: region code must be two letters, got 'U1'")),
    "region-three-letters": (_cell(1, region="HKG"), (
        ZoneParseError, "{where}.answers[1].region: region code must be two letters, got 'HKG'")),
    "region-newline": (_cell(0, region="UK\n"), (
        ZoneParseError, "{where}.answers[0].region: region code must be two letters, got 'UK\\n'")),
    "region-empty": (_cell(0, region=""), (
        ZoneParseError, "{where}.answers[0].region: region code must be two letters, got ''")),
    "region-unknown": (_cell(0, region="FR"), (
        ZoneParseError, "{where}.answers[0].region: 'FR' not in regions table")),
    "region-unknown-lower": (_cell(0, region="fr"), (
        ZoneParseError, "{where}.answers[0].region: 'FR' not in regions table")),
    "region-digit-addresses-missing": (_cell(0, region="U1", addresses=_DROP), (
        ZoneParseError, "{where}.answers[0].region: region code must be two letters, got 'U1'")),
    "region-number-addresses-missing": (_cell(0, region=12, addresses=_DROP), (
        ZoneParseError, "{where}.answers[0].region: must be text, got 12")),
    "region-unknown-addresses-missing": (_cell(0, region="FR", addresses=_DROP), (
        ZoneParseError, "{where}.answers[0]: missing field 'addresses'")),
    "region-unknown-addresses-empty": (_cell(0, region="FR", addresses=[]), (
        ZoneParseError, "{where}.answers[0].region: 'FR' not in regions table")),
    "addresses-empty": (_cell(0, addresses=[]), (
        ZoneParseError, "{where}.answers[0].addresses: must be a non-empty array")),
    "addresses-text": (_cell(0, addresses="10.1.0.9"), (
        ZoneParseError, "{where}.answers[0].addresses: must be a non-empty array")),
    "addresses-object": (_cell(0, addresses={"a": "10.1.0.9"}), (
        ZoneParseError, "{where}.answers[0].addresses: must be a non-empty array")),
    "addresses-null": (_cell(0, addresses=None), (
        ZoneParseError, "{where}.answers[0].addresses: must be a non-empty array")),
    "address-number": (_cell(0, addresses=[5]), (
        ZoneParseError, "{where}.answers[0].addresses: 5 does not appear to be an IPv4 or IPv6 address")),
    "address-null": (_cell(0, addresses=[None]), (
        ZoneParseError, "{where}.answers[0].addresses: None does not appear to be an IPv4 or IPv6 address")),
    "address-array": (_cell(0, addresses=[["10.1.0.9"]]), (
        ZoneParseError,
        "{where}.answers[0].addresses: ['10.1.0.9'] does not appear to be an IPv4 or IPv6 address")),
    "address-bad": (_cell(0, addresses=["not-an-ip"]), (
        ZoneParseError, "{where}.answers[0].addresses: 'not-an-ip' does not appear to be an IPv4 or IPv6 address")),
    "address-zone-id": (_cell(2, addresses=["fe80::1%eth0"]), (
        ZoneParseError,
        "{where}.answers[2].addresses: 'fe80::1%eth0' does not appear to be an IPv4 or IPv6 address")),
    "address-nul": (_cell(0, addresses=["10.1.0.9\x00"]), (
        ZoneParseError,
        "{where}.answers[0].addresses: '10.1.0.9\\x00' does not appear to be an IPv4 or IPv6 address")),
    "address-second-bad": (_cell(1, addresses=["10.2.0.9", "10.2.0.300"]), (
        ZoneParseError,
        "{where}.answers[1].addresses: '10.2.0.300' does not appear to be an IPv4 or IPv6 address")),
    "address-v6-in-v4-region": (_cell(0, addresses=["2001:db8::1"]), (
        ZoneParseError,
        "{where}.answers[0]: region UK: address 2001:db8::1 family differs from prefix 198.18.1.0/24")),
    "address-v4-in-v6-region": (_cell(2, addresses=["10.3.0.1"]), (
        ZoneParseError,
        "{where}.answers[2]: region US: address 10.3.0.1 family differs from prefix 2001:db8:1::/48")),
    "address-v4-mapped-in-v4-region": (_cell(0, addresses=["::ffff:10.1.0.9"]), (
        ZoneParseError,
        "{where}.answers[0]: region UK: address ::ffff:10.1.0.9 family differs from prefix 198.18.1.0/24")),
    "address-second-other-family": (_cell(1, addresses=["10.2.0.9", "2001:db8::9"]), (
        ZoneParseError,
        "{where}.answers[1]: region HK: address 2001:db8::9 family differs from prefix 198.18.0.0/24")),
    "address-other-family-then-bad": (_cell(0, addresses=["2001:db8::1", "nope"]), (
        ZoneParseError, "{where}.answers[0].addresses: 'nope' does not appear to be an IPv4 or IPv6 address")),
    "address-v6-upper-case": (_cell(2, addresses=lambda addresses: [a.upper() for a in addresses]), "base"),
    "address-repeated": (_cell(1, addresses=lambda addresses: [*addresses, addresses[0]]), (
        ZoneParseError, "{where}.answers[1]: region HK: address 10.2.0.{n} listed twice")),
    "address-repeated-spelled-apart": (_cell(2, addresses=lambda addresses: [*addresses, addresses[0].upper()]), (
        ZoneParseError, "{where}.answers[2]: region US: address 2001:db8:1::{n} listed twice")),
    "prefix-twice": (_append("UK", "10.9.9.9"), (
        OverlapError, "{where}: prefix 198.18.1.0/24 listed twice for one qname")),
    "prefix-twice-lower": (_append("uk", "10.9.9.9"), (
        OverlapError, "{where}: prefix 198.18.1.0/24 listed twice for one qname")),
    "prefix-twice-v6": (_append("US", "2001:db8:1::99"), (
        OverlapError, "{where}: prefix 2001:db8:1::/48 listed twice for one qname")),
    "default-stated": (_default(lambda union: union[::-1]), "base"),
    "default-missing-one": (_default(lambda union: union[1:]), (
        DefaultMismatch, "{where}: default set ['10.2.0.{n}', '10.2.1.{n}', '2001:db8:1::{n}']"
        " != union ['10.1.0.{n}', '10.2.0.{n}', '10.2.1.{n}', '2001:db8:1::{n}']")),
    "default-extra": (_default(lambda union: [*union, "10.9.9.9"]), (
        DefaultMismatch,
        "{where}: default set ['10.1.0.{n}', '10.2.0.{n}', '10.2.1.{n}', '10.9.9.9', '2001:db8:1::{n}']"
        " != union ['10.1.0.{n}', '10.2.0.{n}', '10.2.1.{n}', '2001:db8:1::{n}']")),
    "default-repeat": (_default(lambda union: [*union, union[0]]), (
        DefaultMismatch,
        "{where}: default set ['10.1.0.{n}', '10.1.0.{n}', '10.2.0.{n}', '10.2.1.{n}', '2001:db8:1::{n}']"
        " != union ['10.1.0.{n}', '10.2.0.{n}', '10.2.1.{n}', '2001:db8:1::{n}']")),
    "default-not-array": (_default(5), (ZoneParseError, "{where}.default: must be an array, got 5")),
    "default-bad-address": (_default(["nope"]), (
        ZoneParseError, "{where}.default: 'nope' does not appear to be an IPv4 or IPv6 address")),
}


def _sweep_lookups(zone):
    return [
        (qname, [address_text(a) for a in result.addresses], result.scope, result.ttl)
        for qname in sorted(zone.records)
        for result in (zone.lookup(qname, probe) for probe in SWEEP_PROBES)
    ]


def _sweep_doc(mutation, qname):
    doc = json.loads(json.dumps(SWEEP_DOC))
    mutation(doc["records"][qname])
    return doc


def test_sweep_base_zone_lookups():
    zone = GeoZone.loads(json.dumps(SWEEP_DOC), "zone.json")
    expected = []
    for n, qname in ((1, "a.t"), (2, "b.t")):
        uk, hk, us = [f"10.1.0.{n}"], [f"10.2.0.{n}", f"10.2.1.{n}"], [f"2001:db8:1::{n}"]
        # probes: none, UK, HK, US, a network outside every region, a /32 inside UK
        for texts, scope in ((uk + hk + us, 0), (uk, 24), (hk, 24), (us, 48), (uk + hk + us, 0), (uk, 24)):
            expected.append((qname, texts, scope, 300))
    assert _sweep_lookups(zone) == expected


@pytest.mark.parametrize("n, qname", [(1, "a.t"), (2, "b.t")], ids=["first-sight", "region-seen"])
@pytest.mark.parametrize("mutant", list(SWEEP))
def test_zone_load_outcome_sweep(mutant, n, qname):
    mutation, outcome = SWEEP[mutant]
    text = json.dumps(_sweep_doc(mutation, qname))
    if outcome == "base":
        base = GeoZone.loads(json.dumps(SWEEP_DOC), "zone.json")
        zone = GeoZone.loads(text, "zone.json")
        assert zone == base
        assert _sweep_lookups(zone) == _sweep_lookups(base)
        return
    error, message = outcome
    with pytest.raises(ZoneError) as caught:
        GeoZone.loads(text, "zone.json")
    assert type(caught.value) is error
    assert str(caught.value) == message.format(where=f"zone.json: records[{qname!r}]", n=n)
