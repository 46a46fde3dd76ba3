"""Seeded input generators and the ground truth the oracles check against.

Every input derives from one seed through random.Random, and nothing here
imports ecsloc: the expected answers and tables are computed from the
generator's own tables, not by running the code under test.
"""

from __future__ import annotations

import ipaddress
import itertools
import json
import random
import string
from dataclasses import dataclass
from fractions import Fraction

from oracle import QTYPE_A, QTYPE_AAAA, encode_query

ARCHITECTURES = ("standard", "ecs_basic", "ecs_user_defined")
REGION_CODES = tuple(a + b for a, b in itertools.product(string.ascii_uppercase, repeat=2))


@dataclass(frozen=True)
class ResolveShape:
    """Sizes of a resolver workload's zone and query stream."""

    regions: int
    v4_lengths: tuple[int, ...]
    v6_regions: int
    v6_lengths: tuple[int, ...]
    qnames: int
    zipf_s: float  # qname popularity exponent; 0 is uniform
    max_addresses: int  # addresses per regional answer, drawn from 1..max
    devices: int
    stream: int  # distinct pre-encoded queries; the timed loop cycles over them
    ttl: int
    clock_step: float  # virtual seconds added per query


HOT = ResolveShape(
    regions=8, v4_lengths=(24,), v6_regions=0, v6_lengths=(), qnames=50, zipf_s=1.0,
    max_addresses=2, devices=64, stream=32768, ttl=300, clock_step=0.05,
)
WIDE = ResolveShape(
    regions=512, v4_lengths=(16, 20, 24), v6_regions=64, v6_lengths=(48, 56), qnames=64,
    zipf_s=1.0, max_addresses=1, devices=2048, stream=16384, ttl=300, clock_step=0.1,
)


@dataclass
class ResolveInputs:
    """A zone document plus a pre-encoded query stream with expected answers.

    Query i has message id i; arch[i] indexes ARCHITECTURES, source[i] is the
    device address the resolver sees, expected[i] the answer addresses in
    zone order.
    """

    zone_doc: dict
    resolver_region: str
    payloads: list
    arch: list
    source: list
    expected: list
    properties: dict


def _v4_address(index: int) -> str:
    return str(ipaddress.IPv4Address(int(ipaddress.IPv4Address("100.64.0.0")) + index))


def _v6_address(index: int) -> str:
    return str(ipaddress.IPv6Address(int(ipaddress.IPv6Address("2001:db8:ffff::")) + index))


def make_resolve(shape: ResolveShape, seed: int) -> ResolveInputs:
    rng = random.Random(seed)
    codes = sorted(rng.sample(REGION_CODES, shape.regions))
    order = codes[:]
    rng.shuffle(order)
    v6_codes = set(order[: shape.v6_regions])
    v4_codes = [c for c in order if c not in v6_codes]

    prefixes = {}
    blocks = rng.sample(range(1024), len(v4_codes))
    base4 = int(ipaddress.IPv4Address("10.0.0.0"))
    for i, (code, block) in enumerate(zip(v4_codes, blocks)):
        plen = shape.v4_lengths[i % len(shape.v4_lengths)]
        prefixes[code] = ipaddress.ip_network((base4 + (block << 16), plen))
    blocks6 = rng.sample(range(1, 0xFFFF), len(v6_codes))
    base6 = int(ipaddress.IPv6Address("2001:db8::"))
    for i, (code, block) in enumerate(zip(sorted(v6_codes), blocks6)):
        plen = shape.v6_lengths[i % len(shape.v6_lengths)]
        prefixes[code] = ipaddress.ip_network((base6 + (block << 80), plen))

    names = [f"svc{q}.{rng.choice(('cam', 'hub', 'tv', 'plug'))}.bench.example" for q in range(shape.qnames)]
    rng.shuffle(names)  # popularity rank is independent of the name
    region_index = {code: r for r, code in enumerate(codes)}
    table = {}  # (qname index, region) -> answer addresses
    records = {}
    for q, qname in enumerate(names):
        answers = []
        for code in codes:
            make = _v6_address if code in v6_codes else _v4_address
            count = rng.randint(1, shape.max_addresses)
            addrs = tuple(make((q << 10) + (region_index[code] << 1) + j) for j in range(count))
            table[q, code] = addrs
            answers.append({"region": code, "addresses": list(addrs)})
        records[qname] = {"ttl": shape.ttl, "answers": answers}
    zone_doc = {
        "origin": "bench.example",
        "regions": {code: str(prefixes[code]) for code in codes},
        "records": records,
    }

    # devices sit in IPv4 regions (ecs_basic rewrites to the source /24) and
    # register in any region, each spread round-robin so shares are exact
    ip_regions = [v4_codes[i % len(v4_codes)] for i in range(shape.devices)]
    user_regions = [order[i % len(order)] for i in range(shape.devices)]
    rng.shuffle(ip_regions)
    rng.shuffle(user_regions)
    devices = []
    for ip_region, user_region in zip(ip_regions, user_regions):
        net = prefixes[ip_region]
        host = net.network_address + rng.randrange(1, net.num_addresses - 1)
        devices.append((str(host), ip_region, user_region))
    resolver_region = rng.choice(v4_codes)

    weights = [1.0 / (rank + 1) ** shape.zipf_s for rank in range(shape.qnames)]
    ranks = rng.choices(range(shape.qnames), weights=weights, k=shape.stream)
    payloads, archs, sources, expected = [], [], [], []
    networks = set()
    v6_queries = 0
    for i, q in enumerate(ranks):
        arch = i % 3
        address, ip_region, user_region = devices[rng.randrange(shape.devices)]
        if arch == 0:  # standard: answered by the resolver's own region
            payload = encode_query(i, names[q])
            region = resolver_region
        elif arch == 1:  # ecs_basic: the resolver rewrites to the device's /24
            payload = encode_query(i, names[q])
            region = ip_region
            networks.add(ipaddress.ip_network((address, 24), strict=False))
        else:  # ecs_user_defined: the stub sends the registered region's prefix
            net = prefixes[user_region]
            qtype = QTYPE_AAAA if net.version == 6 else QTYPE_A
            v6_queries += net.version == 6
            payload = encode_query(i, names[q], qtype, (str(net), net.prefixlen))
            region = user_region
            networks.add(net)
        payloads.append(payload)
        archs.append(arch)
        sources.append(address)
        expected.append(table[q, region])

    properties = {
        "regions": shape.regions,
        "ipv6_regions": shape.v6_regions,
        "prefix_lengths": sorted({p.prefixlen for p in prefixes.values()}),
        "ipv6_query_share": round(v6_queries / shape.stream, 4),
        "qnames": shape.qnames,
        "qname_zipf_s": shape.zipf_s,
        "top_qname_share": round(ranks.count(0) / shape.stream, 4),
        "devices": shape.devices,
        "distinct_client_networks": len(networks),
        "stream_queries": shape.stream,
        "ttl_s": shape.ttl,
        "clock_step_s": shape.clock_step,
    }
    return ResolveInputs(zone_doc, resolver_region, payloads, archs, sources, expected, properties)


@dataclass(frozen=True)
class CaptureShape:
    """Sizes of the capture log behind analyze_pipeline."""

    regions: int = 10
    shared: int = 4
    pools: int = 6
    lines: int = 4000
    noise_share: float = 0.2  # lines of another device or another IP-based location
    out_of_order: int = 5


CAPTURE = CaptureShape()


@dataclass
class CaptureTruth:
    """What the pipeline's tables must say, in closed form.

    Each user-defined region's domain set is the shared names, its own
    region variant, and one range pattern per pool it uses; pool members
    differ in exactly one numeric label and every region sees a pool's
    lowest and highest member, so the collapsed pattern is known.
    """

    device: str
    ip_location: str
    regions: list  # sweep order
    shared: frozenset
    canonical: str
    variants: dict  # region -> variant name
    sets: dict  # region -> frozenset of expected domain-set members

    def jaccard(self, a: str, b: str) -> Fraction:
        return Fraction(len(self.sets[a] & self.sets[b]), len(self.sets[a] | self.sets[b]))

    def union(self, k: int) -> frozenset:
        return frozenset().union(*(self.sets[r] for r in self.regions[:k]))

    def collapsed(self) -> frozenset:
        return (self.union(len(self.regions)) - set(self.variants.values())) | {self.canonical}

    def sweep_rows(self) -> list:
        """(k, unified, collapsed, (k-1)/unified): k variants fold into one name."""
        rows = []
        for k in range(1, len(self.regions) + 1):
            unified = len(self.union(k))
            rows.append((k, unified, unified - k + 1, Fraction(k - 1, unified)))
        return rows

    def groups_doc(self) -> list:
        return [{"canonical": self.canonical, "variants": dict(sorted(self.variants.items()))}]


def make_capture(shape: CaptureShape, seed: int) -> tuple[str, CaptureTruth, dict]:
    """(log text, ground truth, input properties)."""
    rng = random.Random(seed)
    codes = rng.sample(REGION_CODES, shape.regions + 2)
    regions, ipl, other_ipl = codes[: shape.regions], codes[-2], codes[-1]
    vendor = "".join(rng.choices(string.ascii_lowercase, k=6))
    shared = [f"{label}.{vendor}.example" for label in ("api", "time", "log", "ota", "cfg", "fw")[: shape.shared]]
    canonical = f"svc.{vendor}.example"
    variants = {r: f"{r.lower()}.{canonical}" for r in regions}

    raw = {r: [*shared, variants[r]] for r in regions}
    patterns = {r: set() for r in regions}
    for j in range(shape.pools):
        pool = f"p{string.ascii_lowercase[j]}.{vendor}.example"
        lo = rng.randint(1, 20)
        hi = lo + rng.randint(4, 40)
        users = regions if j == 0 else rng.sample(regions, rng.randint(2, shape.regions))
        for r in users:
            inner = rng.sample(range(lo + 1, hi), rng.randint(1, hi - lo - 1))
            raw[r] += [f"edge{n}.{pool}" for n in (lo, hi, *inner)]
            patterns[r].add(f"edge[{lo}-{hi}].{pool}")
    sets = {r: frozenset({*shared, variants[r], *patterns[r]}) for r in regions}

    device, other_device = "cam01", "plug02"
    noise = round(shape.lines * shape.noise_share)
    events = []
    per_region = (shape.lines - noise) // shape.regions
    for r in regions:
        names = raw[r] + rng.choices(raw[r], k=per_region - len(raw[r]))
        events += [(device, ipl, r, name) for name in names]
    for _ in range(shape.lines - len(events)):
        r = rng.choice(regions)
        if rng.random() < 0.5:
            events.append((device, other_ipl, r, rng.choice(raw[r])))
        else:
            events.append((other_device, ipl, r, f"n{rng.randint(1, 99)}.noise.example"))
    rng.shuffle(events)

    stamps = [1_600_000_000 + 7 * i for i in range(len(events))]
    swaps = sorted(rng.sample(range(0, len(events) - 1, 2), shape.out_of_order))
    for i in swaps:  # each swap leaves exactly one line earlier than its predecessor
        stamps[i], stamps[i + 1] = stamps[i + 1], stamps[i]
    lines = ["# generated capture log"]
    for ts, (dev, ip_loc, udl, name) in zip(stamps, events):
        addr = f"198.51.100.{rng.randint(1, 254)}"
        lines.append(f"ts={ts} dev={dev} ipl={ip_loc} udl={udl} q={name} a={addr}")

    truth = CaptureTruth(device, ipl, regions, frozenset(shared), canonical, variants, sets)
    properties = {
        "log_lines": len(events),
        "regions": shape.regions,
        "shared_domains": shape.shared,
        "pools": shape.pools,
        "out_of_order_lines": shape.out_of_order,
        "noise_lines": len(events) - per_region * shape.regions,
    }
    return "\n".join(lines) + "\n", truth, properties


def dump_json(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True)
