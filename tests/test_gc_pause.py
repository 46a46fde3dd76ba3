"""The whole-document loaders pause the cyclic garbage collector, and resume it.

`document.bulk` runs `GeoZone.loads`, `parse_log`, `parse_mud` and
`load_groups` with the collector off.  The pause is safe because a loaded
value holds no reference cycles: with the collector off, a value built and
dropped leaves `gc.collect()` nothing to free.  No test here times anything;
the collections inside a loader are counted by `gc.callbacks`.
"""

import gc
import random
import sys
import threading

import pytest
from helpers import FIXTURES, capture_log_text, rand_mud, wide_zone_text

from ecsloc import document
from ecsloc.mud import SchemaError, load_groups, parse_mud, serialize_mud
from ecsloc.traffic import LogParseError, ingest_log, parse_log
from ecsloc.zone import GeoZone, ZoneParseError

GOLDEN = FIXTURES / "golden"
WIDE_ZONE = wide_zone_text(seed=1)
LONG_LOG = capture_log_text(seed=1)
MUD_FILES = [
    FIXTURES / "mud_bulb_us_spelled.json",
    FIXTURES / "mud_yi_uk.json",
    *(GOLDEN / f"mud_{name}.out" for name in (
        "collapse_bulb", "generate_bulb_hk", "generate_bulb_uk", "generate_bulb_us", "generate_pools",
        "generate_pools_udp", "unify_bulb", "unify_endpoint_spellings",
    )),
]
SEEDED_MUDS = [serialize_mud(rand_mud(random.Random(seed))) for seed in range(4)]

# name -> a call of one loader that returns a value
LOADS = {
    "zone fixture": lambda: GeoZone.load(FIXTURES / "zone.json"),
    "wide zone": lambda: GeoZone.loads(WIDE_ZONE, "wide.json"),
    "capture fixture": lambda: ingest_log(FIXTURES / "captures" / "yi_camera.log"),
    "reordered capture fixture": lambda: ingest_log(FIXTURES / "captures" / "yi_camera_reordered.log"),
    "long capture": lambda: parse_log(LONG_LOG, "long.log"),
    **{f"mud {path.name}": (lambda path=path: parse_mud(path.read_bytes(), path)) for path in MUD_FILES},
    **{f"seeded mud {i}": (lambda data=data: parse_mud(data)) for i, data in enumerate(SEEDED_MUDS)},
    "groups fixture": lambda: load_groups((FIXTURES / "groups_bulb.json").read_bytes()),
    "groups variant spelling": lambda: load_groups((FIXTURES / "groups_bulb_variant_spelling.json").read_bytes()),
}

# name -> (a call of one loader that raises, the error class, its text)
ZONE_ID = FIXTURES / "zone_with_zone_id.json"
BAD_LINE = FIXTURES / "captures" / "bad_line.log"
DUPLICATE_KEY = FIXTURES / "mud_yi_duplicate_key.json"
EMPTY_LABEL = FIXTURES / "groups_bulb_canonical_empty_label.json"
FAILS = {
    "zone": (lambda: GeoZone.load(ZONE_ID), ZoneParseError,
             f"{ZONE_ID}: records['api.example.iot'].answers[1].addresses: "
             "'fe80::1%eth0' does not appear to be an IPv4 or IPv6 address"),
    "capture": (lambda: ingest_log(BAD_LINE), LogParseError, f"{BAD_LINE}:4: missing keys ['q']"),
    "mud": (lambda: parse_mud(DUPLICATE_KEY.read_bytes(), DUPLICATE_KEY), SchemaError,
            f"{DUPLICATE_KEY}: duplicate key 'device-id'"),
    "groups": (lambda: load_groups(EMPTY_LABEL.read_bytes(), EMPTY_LABEL), SchemaError,
               f"{EMPTY_LABEL}: groups[0]: canonical domain: empty label in 'bulb..example.iot'"),
}


@pytest.fixture(autouse=True)
def collector_on():
    """Each test starts, and leaves the next one, with the collector running."""
    gc.enable()
    yield
    gc.enable()


def collections_during(call) -> int:
    """The number of collections that start while *call* runs."""
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        call()
    finally:
        gc.callbacks.remove(count)
    return len(starts)


def test_bulk_pauses_the_collector_only_while_its_function_runs():
    @document.bulk
    def probe(value):
        return value, gc.isenabled()

    assert probe(1) == (1, False)
    assert gc.isenabled()
    assert probe.__name__ == "probe"


@pytest.mark.parametrize("name", LOADS)
def test_collector_is_back_on_after_a_loader_returns(name):
    assert LOADS[name]() is not None
    assert gc.isenabled()


@pytest.mark.parametrize("name", FAILS)
def test_collector_is_back_on_after_a_loader_raises_its_unchanged_error(name):
    call, error, message = FAILS[name]
    with pytest.raises(error) as got:
        call()
    assert type(got.value) is error and str(got.value) == message
    assert gc.isenabled()


@pytest.mark.parametrize("load, fail", [
    ("zone fixture", "zone"),
    ("capture fixture", "capture"),
    ("mud mud_yi_uk.json", "mud"),
    ("groups fixture", "groups"),
])
def test_a_collector_the_caller_paused_stays_paused(load, fail):
    gc.disable()
    LOADS[load]()
    assert not gc.isenabled()
    call, error, _ = FAILS[fail]
    with pytest.raises(error):
        call()
    assert not gc.isenabled()


def test_a_nested_pause_leaves_the_outer_call_in_charge():
    @document.bulk
    def outer():
        zone = GeoZone.load(FIXTURES / "zone.json")
        with pytest.raises(LogParseError):
            ingest_log(BAD_LINE)
        return zone, gc.isenabled()

    zone, enabled = outer()
    assert zone.origin == "example.iot" and not enabled
    assert gc.isenabled()


def test_loads_in_many_threads_leave_the_collector_on():
    """Whatever the interleaving, the pause that turned the collector off is the one that turns it back on."""
    loads = [LOADS["zone fixture"], LOADS["capture fixture"], LOADS["mud mud_yi_uk.json"], FAILS["capture"][0]]

    def work(k):
        for i in range(200):
            try:
                loads[(k + i) % len(loads)]()
            except LogParseError:
                pass

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert gc.isenabled()


@pytest.mark.parametrize("call", [
    lambda: GeoZone.loads(WIDE_ZONE, "wide.json"),
    lambda: parse_log(LONG_LOG, "long.log"),
], ids=["wide zone", "long capture"])
def test_no_collection_starts_inside_a_loader(call):
    assert collections_during(call) == 0


@pytest.mark.parametrize("call", [
    lambda: GeoZone.loads.__wrapped__(GeoZone, WIDE_ZONE, "wide.json"),
    lambda: parse_log.__wrapped__(LONG_LOG, "long.log"),
], ids=["wide zone", "long capture"])
def test_the_inputs_are_large_enough_to_collect_without_the_pause(call):
    """Without `bulk` the same loads start collections, so the gate above is not vacuous."""
    assert collections_during(call) > 0


@pytest.mark.parametrize("name", LOADS)
def test_a_loaded_value_leaves_no_cyclic_garbage(name):
    """What makes the pause safe: nothing a loader built needs the collector to be freed."""
    gc.disable()
    gc.collect()
    value = LOADS[name]()
    del value
    assert gc.collect() == 0
