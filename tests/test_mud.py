"""Allowlist construction, unification algebra, collapsing, and the
closed-form domain-count reduction."""

import ipaddress
import itertools
import json
import random
import re
import time
from fractions import Fraction

import pytest
from helpers import FIXTURES, rand_mud
from hypothesis import given, settings
from hypothesis import strategies as st

from ecsloc.mud import (
    Ace,
    AceTemplate,
    CollapseResult,
    DivisionGuard,
    EmptyDomainSet,
    MixedDevices,
    MudError,
    MudFile,
    RegionDomainGroup,
    SchemaError,
    _endpoint_kind,
    domain_count,
    ecs_collapse,
    generate_mud,
    load_groups,
    parse_mud,
    reduction_ratio,
    serialize_mud,
    suggest_groups,
    sweep_table,
    unify,
)

REGIONS = "AQ AR AU BR ES HK IN RU UK US".split()


def regional_muds(k: int, shared: int, device_id: str = "bulb01"):
    """One allowlist per region: its own service variant plus the shared domains."""
    shared_domains = [f"shared{j}.example" for j in range(shared)]
    muds = []
    for code in REGIONS[:k]:
        domains = [f"{code.lower()}.svc.example", *shared_domains]
        muds.append(generate_mud(domains, device_id))
    groups = [
        RegionDomainGroup(
            canonical_domain="svc.example",
            regional_variants={code: f"{code.lower()}.svc.example" for code in REGIONS[:k]},
        )
    ]
    return muds, groups


class TestAce:

    def test_icmp_carries_no_ports(self):
        with pytest.raises(MudError):
            Ace(endpoint="a.x", protocol="icmp", destination_port=443)

    def test_port_range_checked(self):
        with pytest.raises(MudError):
            Ace(endpoint="a.x", destination_port=70000)

    def test_endpoint_kinds(self):
        assert Ace(endpoint="api.example.com").endpoint_kind == "domain"
        assert Ace(endpoint="10.0.0.1").endpoint_kind == "ip"
        assert Ace(endpoint="aa:bb:cc:dd:ee:ff").endpoint_kind == "mac"

    @settings(max_examples=500)
    @given(st.text(alphabet="0123456789abcdefg.:%", min_size=1, max_size=20))
    def test_endpoint_kind_matches_address_parsers(self, endpoint):
        try:
            ipaddress.ip_address(endpoint)
            expected = "ip"
        except ValueError:
            expected = "mac" if re.fullmatch(r"([0-9a-f]{2}:){5}[0-9a-f]{2}", endpoint) else "domain"
        assert _endpoint_kind(endpoint) == expected

    def test_domain_endpoint_in_canonical_form(self):
        assert Ace(endpoint="US.bulb.example.iot.") == Ace(endpoint="us.bulb.example.iot")
        assert Ace(endpoint="FE80::1%ETH0").endpoint == "fe80::1%eth0"
        with pytest.raises(MudError, match=r"^endpoint: empty label in 'a\.\.b'$"):
            Ace(endpoint="a..b")

    @pytest.mark.parametrize("text, address", [("10.0.0.1.", "10.0.0.1"), ("FE80::1.", "fe80::1")])
    def test_address_text_judged_on_canonical_form(self, text, address):
        # the name rule drops the trailing dot, which would leave an address stored as a domain endpoint
        with pytest.raises(MudError) as info:
            Ace(endpoint=text)
        assert str(info.value) == f"endpoint: {address!r} is an address, not a domain name"
        assert Ace(endpoint="api.example.iot.") == Ace(endpoint="api.example.iot")
        assert Ace(endpoint="api.example.iot.").endpoint_kind == "domain"

    def test_default_action_must_be_drop(self):
        with pytest.raises(MudError):
            MudFile(device_id="d", mud_url="urn:mud:d", default_action="accept")

    @pytest.mark.parametrize(
        "fields, message",
        [({"device_id": ""}, "device id must not be empty"), ({"mud_url": ""}, "MUD URL must not be empty")],
        ids=["device-id", "mud-url"],
    )
    def test_empty_device_id_or_url_rejected(self, fields, message):
        with pytest.raises(MudError, match=f"^{message}$"):
            MudFile(**{"device_id": "d", "mud_url": "urn:mud:d", **fields})

    def test_acl_sorted_and_deduplicated(self):
        a = Ace(endpoint="b.x")
        b = Ace(endpoint="a.x")
        mud = MudFile(device_id="d", mud_url="urn:mud:d", acl=(a, b, a))
        assert [ace.endpoint for ace in mud.acl] == ["a.x", "b.x"]


class TestGenerate:

    def test_single_domain_shape(self):
        mud = generate_mud({"api.eu.xiaoyi.com"}, "yi-cam",
                           AceTemplate(protocol="tcp", destination_port=443))
        assert len(mud.acl) == 1
        ace = mud.acl[0]
        assert ace.endpoint == "api.eu.xiaoyi.com"
        assert (ace.protocol, ace.source_port, ace.destination_port) == ("tcp", None, 443)
        assert ace.direction == "from-device"
        assert ace.action == "accept"

    def test_lexicographic_order(self):
        mud = generate_mud({"c.x", "a.x", "b.x"}, "d")
        assert [ace.endpoint for ace in mud.acl] == ["a.x", "b.x", "c.x"]

    def test_empty_set_rejected(self):
        with pytest.raises(EmptyDomainSet):
            generate_mud(set(), "d")

    @pytest.mark.parametrize("device_id, mud_url", [("", None), ("d", "")], ids=["device-id", "mud-url"])
    def test_empty_device_id_or_url_rejected(self, device_id, mud_url):
        with pytest.raises(MudError, match="must not be empty"):
            generate_mud({"a.x"}, device_id, mud_url=mud_url)


class TestUnify:

    def test_cross_tld_pair(self):
        uk = generate_mud({"api.eu.xiaoyi.com"}, "yi-cam")
        hk = generate_mud({"api.xiaoyi.com.tw"}, "yi-cam")
        unified = unify([uk, hk])
        assert domain_count(unified) == 2

    def test_single_input_identity(self):
        mud = generate_mud({"a.x", "b.x"}, "d")
        assert unify([mud]) == mud

    def test_identical_inputs_idempotent(self):
        mud = generate_mud({"a.x", "b.x"}, "d")
        assert unify([mud, mud]) == mud

    def test_mixed_devices_rejected(self):
        with pytest.raises(MixedDevices):
            unify([generate_mud({"a.x"}, "d1"), generate_mud({"a.x"}, "d2")])

    @pytest.mark.parametrize("muds", [[], iter(())], ids=["list", "iterator"])
    def test_nothing_to_unify(self, muds):
        with pytest.raises(MudError, match="^nothing to unify$"):
            unify(muds)

    def test_algebra_on_randomized_triples(self):
        rng = random.Random(17)
        for _ in range(60):
            a, b, c = (rand_mud(rng, device_id="dev") for _ in range(3))
            assert unify([a, unify([b, c])]) == unify([unify([a, b]), c])
            assert unify([a, b]) == unify([b, a])
            assert unify([a, a]) == unify([a])


class TestCollapse:

    def test_variant_pair_becomes_canonical(self):
        unified = generate_mud({"sg.ot.io.mi.com", "de.ot.io.mi.com"}, "cam")
        groups = [RegionDomainGroup("ot.io.mi.com", {"SG": "sg.ot.io.mi.com", "DE": "de.ot.io.mi.com"})]
        result = ecs_collapse(unified, groups)
        assert [ace.endpoint for ace in result.mud.acl] == ["ot.io.mi.com"]
        assert result.unmatched_variants == ()
        assert result.tuple_splits == ()

    def test_empty_groups_identity(self):
        unified = generate_mud({"a.x", "b.x"}, "d")
        assert ecs_collapse(unified, []).mud == unified

    def test_ten_variants_two_shared_yield_three(self):
        muds, groups = regional_muds(10, 2)
        unified = unify(muds)
        assert domain_count(unified) == 12
        collapsed = ecs_collapse(unified, groups).mud
        assert domain_count(collapsed) == 3

    def test_unmatched_variants_reported(self):
        unified = generate_mud({"sg.ot.io.mi.com"}, "cam")
        groups = [RegionDomainGroup("ot.io.mi.com", {"SG": "sg.ot.io.mi.com", "DE": "de.ot.io.mi.com"})]
        result = ecs_collapse(unified, groups)
        assert result.unmatched_variants == ("de.ot.io.mi.com",)

    def test_disagreeing_tuples_split(self):
        aces = (
            Ace(endpoint="sg.svc.x", destination_port=443),
            Ace(endpoint="de.svc.x", destination_port=8883),
        )
        unified = MudFile(device_id="d", mud_url="urn:mud:d", acl=aces)
        groups = [RegionDomainGroup("svc.x", {"SG": "sg.svc.x", "DE": "de.svc.x"})]
        result = ecs_collapse(unified, groups)
        assert result.tuple_splits == ("svc.x",)
        ports = sorted(ace.destination_port for ace in result.mud.acl)
        assert ports == [443, 8883]
        assert {ace.endpoint for ace in result.mud.acl} == {"svc.x"}

    def test_coverage_preserved(self):
        muds, groups = regional_muds(4, 1)
        unified = unify(muds)
        collapsed = ecs_collapse(unified, groups).mud
        variants = set(groups[0].regional_variants.values())
        for ace in unified.acl:
            if ace.endpoint in variants:
                expected = groups[0].canonical_domain
                tuple_rest = (ace.protocol, ace.source_port, ace.destination_port, ace.direction, ace.action)
                assert any(
                    c.endpoint == expected
                    and (c.protocol, c.source_port, c.destination_port, c.direction, c.action) == tuple_rest
                    for c in collapsed.acl
                )

    def test_count_never_grows(self):
        rng = random.Random(29)
        for _ in range(40):
            mud = rand_mud(rng, device_id="dev")
            domains = [a.endpoint for a in mud.acl if a.endpoint_kind == "domain"]
            groups = []
            if domains:
                groups = [RegionDomainGroup("canon.example", {"UK": domains[0]})]
            collapsed = ecs_collapse(mud, groups).mud
            assert domain_count(collapsed) <= domain_count(mud)


class TestSuggestGroups:

    def test_region_label_pair(self):
        groups = suggest_groups({"sg.ot.io.mi.com", "de.ot.io.mi.com"}, ["SG", "DE", "UK"])
        assert len(groups) == 1
        assert groups[0].canonical_domain == "ot.io.mi.com"
        assert set(groups[0].regional_variants) == {"SG", "DE"}

    def test_cross_tld_pair_escapes_heuristic(self):
        groups = suggest_groups({"api.xiaoyi.com.tw", "api.eu.xiaoyi.com"}, ["HK", "UK"])
        assert groups == []

    def test_single_label_names_suggest_nothing(self):
        assert suggest_groups({"uk", "us"}, ["UK", "US"]) == []

    def test_names_leaving_an_address_suggest_nothing(self):
        assert suggest_groups({"uk.10.0.0.1", "us.10.0.0.1"}, ["UK", "US"]) == []

    def test_no_region_label_no_groups(self):
        assert suggest_groups({"a.x", "b.x"}, ["UK", "US"]) == []

    def test_alias_label_matches(self):
        groups = suggest_groups({"eu.svc.x", "us.svc.x"}, ["US"])
        assert len(groups) == 1
        assert set(groups[0].regional_variants) == {"EU", "US"}

    def test_pool_patterns_suggest_nothing(self):
        assert len(suggest_groups({"uk.svc1.x", "us.svc1.x"}, ["UK", "US"])) == 1
        assert suggest_groups({"uk.svc[1-3].x", "us.svc[1-3].x"}, ["UK", "US"]) == []


class TestCounting:

    def test_ip_endpoints_excluded(self):
        mud = MudFile(
            device_id="d",
            mud_url="urn:mud:d",
            acl=(Ace(endpoint="a.x"), Ace(endpoint="b.x"), Ace(endpoint="10.0.0.1")),
        )
        assert domain_count(mud) == 2

    def test_empty_acl(self):
        assert domain_count(MudFile(device_id="d", mud_url="urn:mud:d")) == 0

    def test_ratio_three_quarters(self):
        muds, groups = regional_muds(10, 2)
        unified = unify(muds)
        collapsed = ecs_collapse(unified, groups).mud
        assert reduction_ratio(unified, collapsed) == Fraction(3, 4)

    def test_ratio_zero_for_equal(self):
        mud = generate_mud({"a.x"}, "d")
        assert reduction_ratio(mud, mud) == 0

    def test_ratio_two_thirds(self):
        muds, groups = regional_muds(3, 0)
        unified = unify(muds)
        collapsed = ecs_collapse(unified, groups).mud
        assert (domain_count(unified), domain_count(collapsed)) == (3, 1)
        assert reduction_ratio(unified, collapsed) == Fraction(2, 3)

    def test_division_guard(self):
        empty = MudFile(device_id="d", mud_url="urn:mud:d")
        with pytest.raises(DivisionGuard):
            reduction_ratio(empty, empty)

    def test_closed_form_over_k_and_s(self):
        for k, s in itertools.product(range(1, 11), range(0, 4)):
            muds, groups = regional_muds(k, s)
            unified = unify(muds)
            collapsed = ecs_collapse(unified, groups).mud
            assert domain_count(unified) == k + s
            assert domain_count(collapsed) == 1 + s
            assert reduction_ratio(unified, collapsed) == Fraction(k - 1, k + s)

    def test_sweep_table_rows(self):
        muds, groups = regional_muds(10, 0)
        rows = sweep_table(muds, groups)
        assert [r[0] for r in rows] == list(range(1, 11))
        for k, unified_count, ecs_count, ratio in rows:
            assert (unified_count, ecs_count) == (k, 1)
            assert ratio == Fraction(k - 1, k)
            if k >= 3:
                assert ratio >= Fraction(66, 100)


def sweep_oracle(location_muds, groups):
    """`sweep_table` as first written: row k unifies and collapses the first k inputs afresh."""
    muds = list(location_muds)
    rows = []
    for k in range(1, len(muds) + 1):
        unified = unify(muds[:k])
        collapsed = ecs_collapse(unified, groups).mud
        rows.append((k, domain_count(unified), domain_count(collapsed), reduction_ratio(unified, collapsed)))
    return rows


def _outcome(sweep, muds, groups):
    """The repr of *sweep*'s rows, so a ratio's type counts too, or the class and text of what it raised."""
    try:
        return repr(sweep(muds, groups))
    except MudError as exc:
        return type(exc), str(exc)


def _sweep_case(rng: random.Random):
    """A few MUDs and groups over one small endpoint pool: domain, IPv4, IPv6 and MAC text alike.

    The groups name domains only, as a group naming an address is refused.
    """
    regions = rng.sample(REGIONS, 4)
    domains = [f"{r.lower()}.svc{i}.example" for r in regions for i in range(2)] + ["shared.example"]
    endpoints = [*domains, "10.0.0.1", "10.0.0.2", "fe80::1", "00:11:22:33:44:55", "Shared.Example.", "other.example"]
    groups = []
    for i in range(rng.randint(0, 3)):
        variants = rng.sample(domains, rng.randint(1, 3))
        canonical = rng.choice([f"svc{i}.example", "shared.example", "svc.example"])
        groups.append(RegionDomainGroup(canonical, dict(zip(regions, variants))))
    muds = []
    for _ in range(rng.randint(0, 6)):
        device_id = "d1" if rng.random() < 0.9 else rng.choice(["d2", "d3"])
        aces = [Ace(rng.choice(endpoints), rng.choice(["tcp", "udp"])) for _ in range(rng.randint(0, 5))]
        muds.append(MudFile(device_id=device_id, mud_url=f"urn:mud:{device_id}", acl=tuple(aces)))
    return muds, groups


def _sweep_seconds(muds, groups):
    start = time.perf_counter()
    sweep_table(muds, groups)
    return time.perf_counter() - start


class TestSweep:

    def test_matches_oracle_on_seeded_cases(self):
        rng = random.Random(41)
        kinds = set()
        for _ in range(2000):
            muds, groups = _sweep_case(rng)
            expected = _outcome(sweep_oracle, muds, groups)
            assert _outcome(sweep_table, muds, groups) == expected, (muds, groups)
            kinds.add(expected[0] if isinstance(expected, tuple) else "rows")
        assert kinds == {"rows", MixedDevices, DivisionGuard}

    def test_mixed_devices_named_at_first_mixed_row(self):
        muds = [generate_mud({"a.x"}, "d2"), MudFile("d2", "urn:mud:d2"), generate_mud({"b.x"}, "d1")]
        with pytest.raises(MixedDevices, match=re.escape("inputs describe several devices: ['d1', 'd2']")):
            sweep_table([*muds, generate_mud({"c.x"}, "d3")], [])

    @pytest.mark.parametrize(
        "canonical, variant, what, address",
        [("svc.x", "10.0.0.1", "variant UK", "10.0.0.1"), ("svc.x", "FE80::1", "variant UK", "fe80::1"),
         ("svc.x", "00:11:22:33:44:55", "variant UK", "00:11:22:33:44:55"),
         ("10.9.9.9", "uk.svc.x", "canonical domain", "10.9.9.9"), ("fe80::9", "uk.svc.x", "canonical domain", "fe80::9")],
    )
    def test_address_group_name_rejected(self, canonical, variant, what, address):
        # an address variant would collapse an address endpoint onto a domain, and the ratio go negative
        message = f"{what}: {address!r} is an address, not a domain name"
        with pytest.raises(MudError) as info:
            RegionDomainGroup(canonical, {"UK": variant})
        assert str(info.value) == message
        with pytest.raises(SchemaError) as info:
            load_groups(json.dumps([{"canonical": canonical, "variants": {"UK": variant}}]), "g.json")
        assert str(info.value) == f"g.json: groups[0]: {message}"

    def test_cost_grows_linearly_with_locations(self):
        # timing ratio, not absolute time: best of interleaved repeats; 60 entries per MUD,
        # 30 of them regional variants; linear is 8x, re-unifying every prefix about 30x or more
        codes = [a + b for a in "ABCDEFGHIJKLMNOP" for b in "ABCDEFGHIJKLMNOP"][:200]
        inputs = {}
        for n in (25, 200):
            variants = [{c: f"{c}.svc{g}.example" for c in codes[:n]} for g in range(30)]
            groups = [RegionDomainGroup(f"svc{g}.example", named) for g, named in enumerate(variants)]
            muds = [
                generate_mud([*(named[c] for named in variants), *(f"own{j}.{c}.example" for j in range(30))], "d")
                for c in codes[:n]
            ]
            assert sweep_table(muds, groups)[-1][1:3] == (60 * n, 30 + 30 * n)
            inputs[n] = muds, groups
        best = {n: float("inf") for n in inputs}
        for _ in range(5):
            for n, (muds, groups) in inputs.items():
                best[n] = min(best[n], _sweep_seconds(muds, groups))
        assert best[200] <= 16 * best[25], f"200 locations {best[200]:.6f}s vs 25 locations {best[25]:.6f}s"


class TestSerialization:

    def test_roundtrip(self):
        mud = generate_mud({"a.x", "b.y"}, "d")
        assert parse_mud(serialize_mud(mud)) == mud

    def test_reserialization_is_byte_identical(self):
        mud = generate_mud({"a.x", "b.y"}, "d")
        data = serialize_mud(mud)
        assert serialize_mud(parse_mud(data)) == data

    def test_fixture_document_parses(self):
        data = (FIXTURES / "mud_yi_uk.json").read_bytes()
        mud = parse_mud(data)
        assert mud.device_id == "yi-cam"
        assert [ace.endpoint for ace in mud.acl] == ["api.eu.xiaoyi.com", "time.eu.xiaoyi.com"]
        assert mud.acl[0].destination_port == 443
        assert serialize_mud(mud) == data

    def test_missing_direction_names_path(self):
        data = (FIXTURES / "mud_yi_uk.json").read_text().replace('"direction": "from-device",\n', "", 1)
        with pytest.raises(SchemaError) as info:
            parse_mud(data)
        assert str(info.value) == "document: acls[0].aces[0]: missing field 'direction'"

    def test_duplicate_key_rejected(self):
        data = (FIXTURES / "mud_yi_uk.json").read_text().replace(
            '"device-id": "yi-cam"', '"device-id": "yi-cam", "device-id": "x"'
        )
        with pytest.raises(SchemaError) as info:
            parse_mud(data)
        assert str(info.value) == "document: duplicate key 'device-id'"

    @pytest.mark.parametrize("name", [None, 5, ["from-device"]], ids=["null", "number", "array"])
    def test_acl_name_must_be_text(self, name):
        doc = json.loads((FIXTURES / "mud_yi_uk.json").read_text())
        doc["acls"][0]["name"] = name
        with pytest.raises(SchemaError) as info:
            parse_mud(json.dumps(doc))
        assert str(info.value) == f"document: acls[0].name: must be text, got {name!r}"

    def test_bad_port_names_path(self):
        data = (FIXTURES / "mud_yi_uk.json").read_text().replace("443", '"https"')
        with pytest.raises(SchemaError) as info:
            parse_mud(data)
        assert str(info.value) == "document: acls[0].aces[0].destination-port: must be a port number or 'any', got 'https'"

    def test_randomized_roundtrips(self):
        rng = random.Random(31)
        for _ in range(150):
            mud = rand_mud(rng)
            assert parse_mud(serialize_mud(mud)) == mud

    def test_groups_file_roundtrip(self):
        groups = load_groups((FIXTURES / "groups_bulb.json").read_bytes())
        assert len(groups) == 1
        assert groups[0].canonical_domain == "bulb.example.iot"
        assert len(groups[0].regional_variants) == 10

    @pytest.mark.parametrize("field", ["device-id", "mud-url", "default-action", "endpoint", "protocol",
                                       "direction", "action"])
    def test_text_field_given_other_json_rejected(self, field):
        data = re.sub(f'"{field}": "[^"]*"', f'"{field}": true', (FIXTURES / "mud_yi_uk.json").read_text(), count=1)
        where = "document: mud" if field in ("device-id", "mud-url", "default-action") else "document: acls[0].aces[0]"
        with pytest.raises(SchemaError, match=rf"^{re.escape(where)}\.{field}: must be text, got True$"):
            parse_mud(data)

    @pytest.mark.parametrize(
        "field, message",
        [("device-id", "device id must not be empty"), ("mud-url", "MUD URL must not be empty")],
    )
    def test_empty_device_id_or_url_rejected(self, field, message):
        data = re.sub(f'"{field}": "[^"]*"', f'"{field}": ""', (FIXTURES / "mud_yi_uk.json").read_text(), count=1)
        with pytest.raises(SchemaError, match=f"^document: {message}$"):
            parse_mud(data)

    def test_groups_names_in_canonical_form(self):
        (group,) = load_groups('[{"canonical": "Svc.X.", "variants": {"uk": "UK.Svc.X."}}]')
        assert group == RegionDomainGroup("svc.x", {"UK": "uk.svc.x"})

    @pytest.mark.parametrize("doc, message", [
        ('[{"canonical": 1, "variants": {}}]', "groups document: groups[0].canonical: must be text, got 1"),
        ('[{"canonical": "svc.x", "variants": {"UK": null}}]',
         "groups document: groups[0].variants.UK: must be text, got None"),
        ('[{"canonical": "svc..x", "variants": {}}]',
         "groups document: groups[0]: canonical domain: empty label in 'svc..x'"),
        ('[{"canonical": "svc.x", "variants": {"UK": "uk..svc.x"}}]',
         "groups document: groups[0]: variant UK: empty label in 'uk..svc.x'"),
    ])
    def test_groups_bad_name_rejected(self, doc, message):
        with pytest.raises(SchemaError) as info:
            load_groups(doc)
        assert str(info.value) == message

    def test_groups_bad_region_rejected(self):
        with pytest.raises(SchemaError):
            load_groups('[{"canonical": "a.x", "variants": {"EUR": "eu.a.x"}}]')

    def test_groups_region_with_trailing_newline_rejected(self):
        with pytest.raises(SchemaError, match=r"groups\[0\]\.variants"):
            load_groups('[{"canonical": "a.x", "variants": {"UK\\n": "uk.a.x"}}]')

    @pytest.mark.parametrize(
        "variants, message",
        [('{"uk": "uk.svc.x", "UK": "gb.svc.x"}', "groups document: groups[1].variants: region UK given twice"),
         ('{"UK": "uk.svc.x", "UK": "gb.svc.x"}', "groups document: duplicate key 'UK'")],
        ids=["case", "verbatim"],
    )
    def test_groups_region_given_twice_rejected(self, variants, message):
        doc = '[{"canonical": "a.x", "variants": {"HK": "hk.a.x"}}, {"canonical": "svc.x", "variants": %s}]'
        with pytest.raises(SchemaError) as info:
            load_groups(doc % variants)
        assert str(info.value) == message


@pytest.mark.parametrize(
    "variants, message",
    [
        ({"uk": "uk.svc.x", "UK": "gb.svc.x"}, "region UK given twice"),
        ({"U K": "uk.svc.x"}, "region code must be two letters, got 'U K'"),
        ({"usa": "us.svc.x"}, "region code must be two letters, got 'usa'"),
        ({"UK": "svc.x", "US": "svc.x"}, "group svc.x: duplicate variant names"),
        ({"UK": "Svc.X.", "US": "svc.x"}, "group svc.x: duplicate variant names"),
    ],
    ids=["case-variants", "space", "three-letters", "same-variant", "same-variant-once-folded"],
)
def test_group_built_directly_checks_regions(variants, message):
    with pytest.raises(MudError) as info:
        RegionDomainGroup("svc.x", variants)
    assert str(info.value) == message


def test_collapse_result_is_plain_data():
    result = ecs_collapse(generate_mud({"a.x"}, "d"), [])
    assert isinstance(result, CollapseResult)
    assert result.mud.device_id == "d"
