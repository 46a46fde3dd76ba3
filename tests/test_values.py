"""Value semantics of every immutable value type, from one table.

Each row builds a fresh value, names a change its constructor accepts and,
for a type with checks, a change one of them rejects.  Every row must hold:
equal by field with equal hashes (or unhashable, when a field is a dict);
unequal to a bare tuple and to another type's value with the same items;
no attribute may be set or deleted; not ordered; `replace`, `_replace`,
`_make`, copies and pickles all build through the checking constructor.
"""

import copy
import ipaddress
import pickle
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest
from helpers import make_response

from ecsloc.mud import Ace, AceTemplate, BadVariantRegion, CollapseResult, MudError, MudFile, RegionDomainGroup
from ecsloc.resolver import (
    CacheEntry,
    DeviceConfig,
    Forward,
    Hop,
    RewriteClientSubnet,
    ScenarioError,
    ScenarioSpec,
    ScenarioTranscript,
    Strip,
)
from ecsloc.traffic import CaptureLog, CaptureRecord
from ecsloc.value import Value
from ecsloc.wire import (
    QTYPE_A,
    QTYPE_AAAA,
    EcsOption,
    EdnsOpt,
    InvalidEcs,
    InvalidName,
    Question,
    ResourceRecord,
    UnsupportedType,
    make_query,
)
from ecsloc.zone import (
    AnswerSet, GeoZone, LocationPrefixMap, LookupResult, OverlapError, RegionalAnswer, ZoneParseError,
)

NET = ipaddress.ip_network("198.18.1.0/24")
RECORD = ResourceRecord("api.example.iot", QTYPE_A, 300, bytes([203, 0, 113, 10]))
QUERY = make_query("api.example.iot", msg_id=7)
HOPS = (Hop("device", "resolver", QUERY), Hop("resolver", "device", make_response(QUERY, (RECORD,))))
DEVICE = DeviceConfig("cam01", "HK", "UK", "198.18.0.77")
MUD = MudFile("bulb01", "urn:mud:bulb01", (Ace("api.example.iot"),))
ANSWER = RegionalAnswer("UK", NET, ("203.0.113.10",))
CAPTURES = tuple(CaptureRecord(ts, "cam01", "US", "UK", "api.example.iot", ("203.0.113.10",)) for ts in (1, 2))

# id -> (build, accepted change, rejected change or None, its error, hashable)
TABLE = {
    "EcsOption": (lambda: EcsOption.for_prefix("198.18.1.0", 24), {"scope_prefix_len": 24},
                  {"scope_prefix_len": 33}, InvalidEcs, True),
    "Question": (lambda: Question("api.example.iot"), {"qtype": QTYPE_AAAA}, {"qtype": 16}, UnsupportedType, True),
    "ResourceRecord": (lambda: ResourceRecord("api.example.iot", QTYPE_A, 300, bytes(4)), {"ttl": 5},
                       {"rdata": bytes(5)}, ValueError, True),
    "EdnsOpt": (lambda: EdnsOpt(), {"udp_payload_size": 512}, {"udp_payload_size": 0x10000}, ValueError, True),
    "DnsMessage": (lambda: make_query("api.example.iot", msg_id=7), {"id": 8}, {"answers": (RECORD,)},
                   ValueError, True),
    "CaptureRecord": (lambda: CaptureRecord(1, "cam01", "US", "UK", "api.example.iot", ("203.0.113.10",)),
                      {"timestamp": 2}, {"qname": "svc[1-3].example.iot"}, InvalidName, True),
    "RegionalAnswer": (lambda: RegionalAnswer("UK", NET, ("203.0.113.10",)), {"addresses": ("203.0.113.11",)},
                       {"addresses": ("2001:db8::1",)}, ZoneParseError, True),
    "LookupResult": (lambda: LookupResult((bytes(4),), 24, 300), {"scope": 16}, None, None, True),
    "LocationPrefixMap": (lambda: LocationPrefixMap({"UK": "198.18.1.0/24"}), {"entries": {"US": "198.18.2.0/24"}},
                          {"entries": {"UK": "198.18.0.0/16", "US": "198.18.1.0/24"}}, OverlapError, False),
    "AnswerSet": (lambda: AnswerSet((ANSWER,)), {"ttl": 60}, {"answers": (ANSWER, ANSWER)}, OverlapError, False),
    # the selections are derived again, so records out of order are refused through every path
    "CaptureLog": (lambda: CaptureLog(CAPTURES), {"resorted": True}, {"records": CAPTURES[::-1]}, ValueError, False),
    "GeoZone": (lambda: GeoZone("example.iot", LocationPrefixMap({"UK": NET}), {}), {"origin": "x.iot"},
                None, None, False),
    "Ace": (lambda: Ace("api.example.iot"), {"destination_port": 443}, {"protocol": "sctp"}, MudError, True),
    "AceTemplate": (lambda: AceTemplate(), {"destination_port": 80}, None, None, True),
    "MudFile": (lambda: MudFile("bulb01", "urn:mud:bulb01", (Ace("api.example.iot"),)), {"mud_url": "urn:x"},
                {"default_action": "accept"}, MudError, True),
    "RegionDomainGroup": (lambda: RegionDomainGroup("svc.example", {"UK": "uk.svc.example", "US": "us.svc.example"}),
                          {"canonical_domain": "svc.example.iot"}, {"regional_variants": {"U1": "u1.svc.example"}},
                          BadVariantRegion, False),
    "CollapseResult": (lambda: CollapseResult(MUD, (), ()), {"tuple_splits": ("svc.example",)}, None, None, True),
    "Forward": (lambda: Forward(), {}, None, None, True),
    "Strip": (lambda: Strip(), {}, None, None, True),
    "RewriteClientSubnet": (lambda: RewriteClientSubnet(24), {"prefix_len": 16}, {"prefix_len": 33},
                            ScenarioError, True),
    "DeviceConfig": (lambda: DeviceConfig("cam01", "HK", "UK", "198.18.0.77"), {"device_id": "cam02"},
                     None, None, True),
    "CacheEntry": (lambda: CacheEntry(24, (RECORD,), 0.0, 300), {"ttl": 60}, None, None, True),
    "Hop": (lambda: Hop("device", "resolver", QUERY), {"receiver": "authoritative"}, None, None, True),
    "ScenarioTranscript": (lambda: ScenarioTranscript("standard", HOPS), {"architecture": "ecs_basic"},
                           {"hops": HOPS[::-1]}, ScenarioError, True),
    "ScenarioSpec": (lambda: ScenarioSpec("standard", DEVICE, "api.example.iot", Path("zone.json"), "HK"),
                     {"policy": Forward()}, None, None, True),
}


@pytest.fixture(params=list(TABLE))
def row(request):
    return TABLE[request.param]


def test_table_covers_every_value_type():
    package = {cls for cls in Value.__subclasses__() if cls.__module__.startswith("ecsloc.")}
    assert {cls.__name__ for cls in package} == set(TABLE)
    assert {type(build()) for build, *_ in TABLE.values()} == package


def test_equal_by_field(row):
    build, _, _, _, hashable = row
    value, twin = build(), build()
    assert value == twin and not value != twin and value is not twin
    if hashable:
        assert hash(value) == hash(twin)
        assert {value: 1}[twin] == 1
    else:
        with pytest.raises(TypeError):
            hash(value)


def test_unequal_to_bare_tuple_and_other_types(row):
    value = row[0]()

    class Other(Value, fields=value._fields):
        pass

    for stranger in (tuple(value), Other(*value)):
        assert value != stranger and stranger != value
        assert not value == stranger and not stranger == value


def test_distinct_field_less_types_unequal():
    assert Forward() != Strip() and not Forward() == Strip()


def test_frozen(row):
    value = row[0]()
    for name in (*value._fields, "unknown"):
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)
    assert not hasattr(value, "__dict__")


def test_not_ordered(row):
    value, twin = row[0](), row[0]()
    for compare in (value.__lt__, value.__le__, value.__gt__, value.__ge__):
        with pytest.raises(TypeError):
            compare(twin)


def test_replace_builds_through_the_constructor(row):
    build, accepted, rejected, error, _ = row
    value = build()
    changed = value.replace(**accepted)
    assert type(changed) is type(value)
    assert changed == value._replace(**accepted) == type(value)(**{**value._asdict(), **accepted})
    with pytest.raises(TypeError):
        value.replace(no_such_field=1)
    # the held fields build an equal value, so copies and pickles go through the checks too
    for rebuilt in (value.replace(), type(value)._make(value), copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert rebuilt == value
    if rejected is None:
        return
    with pytest.raises(error):
        value.replace(**rejected)
    with pytest.raises(error):
        value._replace(**rejected)
    with pytest.raises(error):
        type(value)._make({**value._asdict(), **rejected}.values())


def test_with_scope_checks_only_the_scope():
    ecs = EcsOption.for_prefix("2001:db8::", 56)
    assert ecs.with_scope(48) == ecs.replace(scope_prefix_len=48)
    assert type(ecs.with_scope(48)) is EcsOption
    assert ecs.with_scope(128).scope_prefix_len == 128
    for bad in (-1, 129):
        with pytest.raises(InvalidEcs, match=f"scope prefix length {bad} out of range"):
            ecs.with_scope(bad)
    with pytest.raises(InvalidEcs):
        EcsOption.for_prefix("198.18.1.0", 24).with_scope(33)

