"""Acceptance suite: one test per criterion, at the stated size and
tolerance, each printing a pass line (run with -s to see them).

Expected values come from independent oracles (reference encoders,
enumeration, prefix scans, closed forms), never from the code under test.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest
from helpers import FIXTURES, rand_message, rand_mud, reference_ecs_rdata, reference_respond

from ecsloc import cli
from ecsloc import resolver as resolver_module
from ecsloc.mud import (
    RegionDomainGroup,
    domain_count,
    ecs_collapse,
    generate_mud,
    parse_mud,
    reduction_ratio,
    serialize_mud,
    sweep_table,
    unify,
)
from ecsloc.resolver import (
    Authoritative,
    DeviceConfig,
    Forward,
    Resolver,
    Strip,
    VirtualClock,
    run_scenario,
)
from ecsloc.transport import InProcessLink
from ecsloc.traffic import (
    CaptureLog,
    CaptureRecord,
    cumulative_counts,
    domain_set,
    ingest_log,
    ipbs,
    jaccard,
    stabilization_time,
    uds,
)
from ecsloc.wire import (
    EcsOption,
    decode_message,
    encode_message,
    make_query,
    _encode_ecs_rdata,
)
from ecsloc.zone import GeoZone

FIVE_REGIONS = ("DE", "FR", "HK", "UK", "US")


@pytest.fixture(scope="module")
def five_region_zone(tmp_path_factory):
    doc = {
        "origin": "example.iot",
        "regions": {
            code: f"198.18.{i}.0/24" for i, code in enumerate(FIVE_REGIONS)
        },
        "records": {
            "api.example.iot": {
                "answers": [
                    {"region": code, "addresses": [f"203.0.113.{10 + i}"]}
                    for i, code in enumerate(FIVE_REGIONS)
                ]
            }
        },
    }
    path = tmp_path_factory.mktemp("zone") / "zone5.json"
    path.write_text(json.dumps(doc))
    return GeoZone.load(path)


def test_criterion_1_architecture_outcomes(capsys, tmp_path):
    expected_final_hops = {
        "scenario_standard.json": "4,resolver,device,api.example.iot,-,-,-,203.0.113.10,-",
        "scenario_ecs_basic.json": "4,resolver,device,api.example.iot,1,24,198.18.0.0,203.0.113.30,24",
        "scenario_ecs_user_defined.json": "4,resolver,device,api.example.iot,1,24,198.18.1.0,203.0.113.10,24",
    }
    for name, final_hop in expected_final_hops.items():
        out_path = tmp_path / (name + ".csv")
        started = time.perf_counter()
        code = cli.main(["scenario", "run", str(FIXTURES / name), "--out", str(out_path)])
        elapsed = time.perf_counter() - started
        capsys.readouterr()
        assert code == 0, name
        assert out_path.read_text().splitlines()[-1] == final_hop, name
        assert elapsed < 1.0, f"{name} took {elapsed:.3f}s"
    print("[criterion 1] PASS - three architecture transcripts end at the expected servers in < 1 s")


def test_criterion_2_ecs_wire_conformance():
    frozen = bytes.fromhex("000118006f6f6f")
    assert reference_ecs_rdata(1, 24, 0, "111.111.111.0") == frozen
    assert _encode_ecs_rdata(EcsOption.for_prefix("111.111.111.0", 24)) == frozen

    rng = random.Random(7871)
    for _ in range(1000):
        address = ".".join(str(rng.randint(0, 255)) for _ in range(4))
        prefix_len = rng.randint(0, 32)
        option = EcsOption.for_prefix(address, prefix_len)
        assert _encode_ecs_rdata(option) == reference_ecs_rdata(1, prefix_len, 0, address)

    for _ in range(1000):
        message = rand_message(rng)
        assert decode_message(encode_message(message)) == message
    print("[criterion 2] PASS - frozen option bytes match the reference encoder; 1000 option"
          " encodings and 1000 message roundtrips agree")


def test_criterion_3_user_defined_dominance(five_region_zone):
    zone = five_region_zone
    answer_for_user = {}
    cases = 0
    for user in FIVE_REGIONS:
        for ip in FIVE_REGIONS:
            prefix = zone.regions.prefix_for(ip)
            cfg = DeviceConfig(
                device_id="dev",
                ip_based_location=ip,
                user_defined_location=user,
                client_address=str(prefix.network_address + 9),
            )
            for resolver_location in FIVE_REGIONS:
                transcript = run_scenario(
                    "ecs_user_defined", cfg, "api.example.iot", zone, resolver_location
                )
                delivered = transcript.final_answers()
                answer_for_user.setdefault(user, delivered)
                assert delivered == answer_for_user[user], (user, ip, resolver_location)
                cases += 1
    assert cases == 125
    assert len(set(answer_for_user.values())) == len(FIVE_REGIONS)
    print("[criterion 3] PASS - 125/125 cross-product cases depend only on the user-defined location")


def test_criterion_4_forward_fidelity(five_region_zone):
    seen = []

    class Tap:
        def __init__(self, inner):
            self.inner = inner

        def exchange(self, payload, source):
            seen.append(payload)
            return self.inner.exchange(payload, source)

    authoritative = Authoritative(five_region_zone)
    rng = random.Random(2024)
    for _ in range(1000):
        seen.clear()
        address = ".".join(str(rng.randint(0, 255)) for _ in range(4))
        prefix_len = rng.randint(0, 32)
        ecs = EcsOption.for_prefix(address, prefix_len)
        resolver = Resolver(
            Forward(), "HK", Tap(InProcessLink(authoritative.handle)), five_region_zone.regions
        )
        stub_wire = encode_message(make_query("api.example.iot", ecs=ecs))
        resolver.handle(stub_wire, "198.18.2.9")
        # the stub's option bytes appear verbatim inside the upstream packet
        option_bytes = (8).to_bytes(2, "big") + len(_encode_ecs_rdata(ecs)).to_bytes(2, "big") + _encode_ecs_rdata(ecs)
        assert option_bytes in stub_wire
        assert option_bytes in seen[0]
        arrived = decode_message(seen[0]).edns.ecs
        assert (arrived.family, arrived.source_prefix_len, arrived.address) == (
            ecs.family, ecs.source_prefix_len, ecs.address,
        )
    print("[criterion 4] PASS - 1000 randomized prefixes arrive at the authoritative byte-identical")


def _enumeration_jaccard(a, b) -> Fraction:
    a, b = list(a), list(b)
    inter = sum(1 for x in a if x in b)
    union = len(a) + len(b) - inter
    return Fraction(1) if union == 0 else Fraction(inter, union)


def test_criterion_5_similarity_oracles():
    universe = ["alpha.x", "bravo.x", "carol.x", "delta.x", "epsil.x", "romeo.x"]
    subsets = [frozenset(c) for r in range(7) for c in itertools.combinations(universe, r)]
    assert len(subsets) == 64

    pairs = 0
    for a in subsets:
        for b in subsets:
            assert jaccard(a, b) == _enumeration_jaccard(a, b)
            pairs += 1
    assert pairs == 4096

    checked = 0
    for a in subsets:
        for b in subsets:
            if not a or not b:
                continue
            records = [
                CaptureRecord(1, "d", "US", "UK", name, ()) for name in sorted(a)
            ] + [
                CaptureRecord(2, "d", "US", "DE", name, ()) for name in sorted(b)
            ]
            log = CaptureLog(tuple(records))
            expected = _enumeration_jaccard(a, b)
            assert uds(log, "d", "US", "UK", "DE") == expected
            flipped = CaptureLog(tuple(
                CaptureRecord(r.timestamp, r.device_id, r.user_defined_location,
                              r.ip_based_location, r.qname, r.resolved_ips)
                for r in records
            ))
            assert ipbs(flipped, "d", "US", "UK", "DE") == expected
            checked += 1
    assert checked == 63 * 63

    rng = random.Random(99)
    names = [f"svc{c}.example" for c in "abcdefgh"]
    for _ in range(100):
        records = tuple(sorted(
            (CaptureRecord(rng.randint(0, 5000), "d", "UK", "UK", rng.choice(names), ())
             for _ in range(rng.randint(1, 40))),
            key=lambda r: r.timestamp,
        ))
        log = CaptureLog(records)
        full = {r.qname for r in records}
        oracle = None
        for t in sorted({r.timestamp for r in records}):
            if {r.qname for r in records if r.timestamp <= t} == full:
                oracle = t
                break
        assert stabilization_time(log, "d", "UK", "UK") == oracle
    print("[criterion 5] PASS - jaccard exact on 4096 subset pairs, uds/ipbs on 3969 nonempty"
          " pairs, stabilization matches the prefix-scan oracle on 100 random logs")


def test_criterion_6_cumulative_series_shape():
    log = ingest_log(FIXTURES / "captures" / "echo_daily.log")
    series = cumulative_counts(log, "echo", "UK", "UK", 86400)
    day = 86400
    assert series == [(day * (i + 1), 1, i + 1) for i in range(10)]
    print("[criterion 6] PASS - constant domain column, strictly increasing IP column, exact integers")


def test_criterion_7_reduction_bound():
    log = ingest_log(FIXTURES / "captures" / "bulb_10region.log")
    regions = "AQ AR AU BR ES HK IN RU UK US".split()
    muds = [
        generate_mud(domain_set(log, "bulb01", "US", region), "bulb01")
        for region in regions
    ]
    groups = [
        RegionDomainGroup(
            canonical_domain="bulb.example.iot",
            regional_variants={r: f"{r.lower()}.bulb.example.iot" for r in regions},
        )
    ]
    rows = sweep_table(muds, groups)
    for k, unified_count, ecs_count, ratio in rows:
        assert ratio == Fraction(k - 1, k + 0)  # closed form with no shared domains
        if k >= 3:
            assert ratio >= Fraction(66, 100)

    # with shared domains the per-service closed form (k-1)/(k+s) still holds
    for k, s in itertools.product(range(1, 11), range(0, 4)):
        shared = [f"shared{j}.example" for j in range(s)]
        location_muds = [
            generate_mud([f"{r.lower()}.svc.example", *shared], "dev")
            for r in regions[:k]
        ]
        svc_groups = [
            RegionDomainGroup(
                canonical_domain="svc.example",
                regional_variants={r: f"{r.lower()}.svc.example" for r in regions[:k]},
            )
        ]
        unified = unify(location_muds)
        collapsed = ecs_collapse(unified, svc_groups).mud
        assert domain_count(unified) == k + s
        assert domain_count(collapsed) == 1 + s
        assert reduction_ratio(unified, collapsed) == Fraction(k - 1, k + s)
    print("[criterion 7] PASS - sweep ratio is at least 0.66 from 3 locations on; closed form"
          " (k-1)/(k+s) exact for k <= 10, s <= 3")


def test_criterion_8_cache_semantics(five_region_zone):
    zone = five_region_zone
    rng = random.Random(500)

    def run_workload(policy, pick_query, queries):
        authoritative = Authoritative(zone)
        clock = VirtualClock()
        resolver = Resolver(
            policy, "HK", InProcessLink(authoritative.handle), zone.regions, clock=clock
        )
        for _ in range(queries):
            if rng.random() < 0.2:
                clock.advance(rng.randint(0, 200))
            query, source = pick_query()
            got = resolver.resolve(query, source)
            effective = resolver.effective_ecs(query.edns.ecs if query.edns else None, source)
            cold = reference_respond(
                zone, False, make_query(query.question.qname, query.question.qtype, ecs=effective), resolver.address
            )
            assert got.rcode == cold.rcode
            assert {rr.address() for rr in got.answers} == {rr.address() for rr in cold.answers}
            got_scope = got.edns.ecs.scope_prefix_len if got.edns and got.edns.ecs else 0
            cold_scope = cold.edns.ecs.scope_prefix_len if cold.edns and cold.edns.ecs else 0
            assert got_scope == cold_scope

    # stripped workload: every upstream query is bare, so scope-0 wildcard
    # entries serve every later query, matching the cold default answer
    def strip_query():
        qname = rng.choice(["api.example.iot", "api.example.iot", "nope.example.iot"])
        if rng.random() < 0.5:
            ecs = EcsOption.for_prefix(f"198.18.{rng.randint(0, 4)}.{rng.randint(0, 255)}", 24)
            return make_query(qname, ecs=ecs), "198.18.2.9"
        return make_query(qname), "198.18.2.9"

    run_workload(Strip(), strip_query, 250)

    # forwarded workload: region-homed prefixes at /24..32 exercise same-network
    # hits and cross-prefix misses under longest-scope matching
    def forward_query():
        region_octet = rng.randint(0, 4)
        source_len = rng.choice((24, 24, 24, 28, 32))
        host = rng.randint(0, 255)
        ecs = EcsOption.for_prefix(f"198.18.{region_octet}.{host}", source_len)
        return make_query("api.example.iot", ecs=ecs), "198.18.2.9"

    run_workload(Forward(), forward_query, 250)
    print("[criterion 8] PASS - 500 randomized interleavings match the cacheless oracle,"
          " including scope-0 wildcard hits and cross-prefix misses")


def test_criterion_8_cache_semantics_under_eviction(five_region_zone, monkeypatch):
    # eviction only turns hits into misses, which the cacheless oracle allows
    monkeypatch.setattr(resolver_module, "CACHE_MAX_ENTRIES", 4)
    made = []

    class RecordedResolver(Resolver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setitem(globals(), "Resolver", RecordedResolver)
    test_criterion_8_cache_semantics(five_region_zone)
    assert len(made) == 2
    assert sum(resolver.evictions for resolver in made) > 0


def test_criterion_9_mud_roundtrip_and_algebra():
    rng = random.Random(8520)
    for _ in range(500):
        mud = rand_mud(rng)
        assert parse_mud(serialize_mud(mud)) == mud
    for _ in range(100):
        a, b, c = (rand_mud(rng, device_id="dev") for _ in range(3))
        assert unify([a, unify([b, c])]) == unify([unify([a, b]), c])
        assert unify([a, b]) == unify([b, a])
        assert unify([a, a]) == unify([a])
    print("[criterion 9] PASS - 500 serialize/parse roundtrips and unify algebra on 100 triples")
