"""Authoritative zone data with client-subnet-aware answer selection.

A zone maps each qname to regional answer sets keyed by network prefix.
A query carrying a client-subnet option gets the longest-prefix-matching
regional answers; a query without one gets the union of every region's
addresses (so an allowlist builder sees all endpoints at once).
"""

from __future__ import annotations

import ipaddress
import re
from pathlib import Path

from . import document
from .errors import Error
from .value import Indexed, Value
from .wire import (
    MAX_TTL, PREFIX_MASKS, EcsOption, InvalidName, address_text, canonical_name, family_packer, pack_address,
)

DEFAULT_TTL = 300

_REGION_RE = re.compile(r"[A-Za-z]{2}")


class ZoneError(Error):
    """Base for zone data problems."""


class ZoneParseError(ZoneError):
    """Zone document failed to parse or validate; message carries field context."""


class OverlapError(ZoneError):
    """Two prefixes overlap where disjointness is required."""


class DefaultMismatch(ZoneError):
    """Stated default answer set is not the union of the regional sets."""


class UnknownRegion(ZoneError):
    """Region code absent from the prefix map."""


class NameNotFound(ZoneError):
    """Qname is not present in the zone (NXDOMAIN at the message layer)."""


def region_code(code: str, error: type[Exception]) -> str:
    """*code* upper-cased if it is exactly two ASCII letters, such as "uk"; otherwise *error* is raised."""
    if _REGION_RE.fullmatch(code) is None:
        raise error(f"region code must be two letters, got {code!r}")
    return code.upper()


class LocationPrefixMap(Value, fields="entries"):
    """Region code (two letters, e.g. "UK") to network prefix, an IPv4Network or IPv6Network."""

    def __new__(cls, entries: dict):
        normalized = {}
        for code, prefix in entries.items():
            code = region_code(code, ZoneParseError)
            if code in normalized:
                raise ZoneParseError(f"region {code} given twice")
            if not isinstance(prefix, (ipaddress.IPv4Network, ipaddress.IPv6Network)):
                with document.at(f"region {code}", ZoneParseError, ValueError):
                    prefix = ipaddress.ip_network(prefix)
            normalized[code] = prefix
        # sorted by start, ranges overlap somewhere only if two neighbours do
        spans = []
        for code, net in normalized.items():
            first = int(net.network_address)
            last = first | ((1 << (net.max_prefixlen - net.prefixlen)) - 1)  # no broadcast_address objects
            spans.append((net.version, first, last, code))
        spans.sort()
        for (version_a, _, last_a, code_a), (version_b, first_b, _, code_b) in zip(spans, spans[1:]):
            if version_a == version_b and first_b <= last_a:
                code_a, code_b = sorted((code_a, code_b))
                raise OverlapError(f"regions {code_a} and {code_b} have overlapping prefixes")
        return tuple.__new__(cls, (normalized,))

    @classmethod
    def default(cls, regions) -> "LocationPrefixMap":
        """Assign each region a disjoint /24 from 198.18.0.0/15 benchmark space.

        Regions are ordered lexicographically so the assignment is stable
        across runs and never touches routable space.
        """
        codes = sorted({region_code(r, ZoneParseError) for r in regions})
        if len(codes) > 512:
            raise ZoneParseError("default map supports at most 512 regions")
        base = int(ipaddress.IPv4Address("198.18.0.0"))
        entries = {
            code: ipaddress.ip_network((base + (i << 8), 24))
            for i, code in enumerate(codes)
        }
        return cls(entries)

    def prefix_for(self, region: str):
        try:
            return self.entries[region.upper()]
        except KeyError:
            raise UnknownRegion(f"region {region!r} not in prefix map") from None


class RegionalAnswer(Value, fields="region prefix addresses"):
    """One region's answers: *addresses* are given as text or packed octets, and held packed, each once."""

    def __new__(cls, region: str, prefix: ipaddress.IPv4Network | ipaddress.IPv6Network,
                addresses: tuple[str, ...]):
        if not addresses:
            raise ZoneParseError(f"region {region}: empty address list")
        packed = tuple(a if type(a) is bytes and len(a) in (4, 16) else pack_address(a) for a in addresses)
        octets = 4 if prefix.version == 4 else 16
        for rdata in packed:
            if len(rdata) != octets:
                raise ZoneParseError(
                    f"region {region}: address {address_text(rdata)} family differs from prefix {prefix}"
                )
        if len(set(packed)) != len(packed):
            repeat = next(rdata for i, rdata in enumerate(packed) if rdata in packed[:i])
            raise ZoneParseError(f"region {region}: address {address_text(repeat)} listed twice")
        return tuple.__new__(cls, (region, prefix, packed))


def _index_key(prefix) -> tuple[tuple[int, int], int]:
    """Where *prefix* sits in an AnswerSet index: ((client-subnet family, length), network as an integer)."""
    return (1 if prefix.version == 4 else 2, prefix.prefixlen), int(prefix.network_address)


class LookupResult(Value, fields="addresses scope ttl"):
    """*addresses* are packed, 4 octets for A and 16 for AAAA rdata."""


def _answer_index(tables: dict) -> dict:
    """*tables* (`_index_key` slot -> {network: answer}) as family -> [(prefix_len, mask, table)], longest first."""
    index = {}
    for (family, plen), table in sorted(tables.items(), key=lambda item: -item[0][1]):
        index.setdefault(family, []).append((plen, PREFIX_MASKS[family][plen], table))
    return index


class AnswerSet(Indexed, Value, fields="answers default ttl index"):
    """Ordered regional answers for one qname plus the all-region default.

    *default* is text or packed octets, held packed in text order: their union if None, else checked.
    *ttl* must fit a record's TTL field, so every answer can be sent.
    """

    def __new__(cls, answers: tuple[RegionalAnswer, ...], default: tuple | None = None, ttl: int = DEFAULT_TTL,
                index: dict | None = None):
        if not 0 <= ttl <= MAX_TTL:
            raise ValueError(f"ttl {ttl} out of range")
        if index is None:
            tables = {}
            for ans in answers:
                slot, network = _index_key(ans.prefix)
                tables.setdefault(slot, {})[network] = ans
            index = _answer_index(tables)
        if sum(len(table) for entries in index.values() for _, _, table in entries) != len(answers):
            # equal-length overlapping networks are identical, so rejecting
            # duplicates also rejects every equal-length overlap
            seen = set()
            for ans in answers:
                key = _index_key(ans.prefix)
                if key in seen:
                    raise OverlapError(f"prefix {ans.prefix} listed twice for one qname")
                seen.add(key)
        union = {rdata for ans in answers for rdata in ans.addresses}
        stated = union
        if default is not None:
            stated = [a if type(a) is bytes and len(a) in (4, 16) else pack_address(a) for a in default]
        if len(stated) != len(union) or set(stated) != union:
            raise DefaultMismatch(
                f"default set {sorted(map(address_text, stated))} != union {sorted(map(address_text, union))}"
            )
        return tuple.__new__(cls, (answers, tuple(sorted(stated, key=address_text)), ttl, index))


class GeoZone(Value, fields="origin regions records"):
    """A zone's origin, its LocationPrefixMap, and *records*: qname -> AnswerSet."""

    def __new__(cls, origin: str, regions: LocationPrefixMap, records: dict | None = None):
        return tuple.__new__(cls, (origin, regions, {} if records is None else records))

    @classmethod
    def load(cls, path) -> "GeoZone":
        """Load and validate the zone document at *path*; see `loads`."""
        path = Path(path)
        return cls.loads(path.read_bytes(), path)

    @classmethod
    @document.bulk
    def loads(cls, data: bytes | str, name) -> "GeoZone":
        """Parse and validate a zone document read from *name*; invariant violations are load errors.

        Each error text starts with *name* and the path of the field at
        fault.  A region's code, prefix and index key are worked out once,
        on the first answer cell that names it; each cell then only packs
        its addresses by its region's family.
        """
        text = document.decode(data, name, ZoneParseError)
        if not text.strip():
            return cls(origin="", regions=LocationPrefixMap({}), records={})
        doc = document.obj(document.parse(text, name, ZoneParseError), name, ZoneParseError)
        origin = doc.get("origin", "")
        if origin != "":
            with document.at(f"{name}: origin", ZoneParseError, InvalidName):
                origin = canonical_name(origin)
        regions_raw = document.obj(doc.get("regions", {}), f"{name}: regions", ZoneParseError)
        for code, prefix in regions_raw.items():  # ipaddress would read a number, or a bool, as an address
            document.text(prefix, f"{name}: regions.{code}", ZoneParseError)
        with document.at(f"{name}: regions", None, ZoneError):
            prefix_map = LocationPrefixMap(regions_raw)

        known = {}  # a cell's raw region text -> that region's facts, see _cell_region
        build = tuple.__new__
        records = {}
        records_raw = document.obj(doc.get("records", {}), f"{name}: records", ZoneParseError)
        for key, block in records_raw.items():
            where = f"{name}: records[{key!r}]"
            with document.at(where, ZoneParseError, InvalidName):
                qname = canonical_name(key)
            if qname in records:
                raise ZoneParseError(f"{where}: names the same record as an earlier key, {qname!r}")
            block = document.obj(block, where, ZoneParseError)
            entries = document.field(block, "answers", where, ZoneParseError, document.array)
            ttl = document.integer(block.get("ttl", DEFAULT_TTL), f"{where}.ttl", ZoneParseError)
            if not 0 <= ttl <= MAX_TTL:  # as AnswerSet requires, refused here with the field's path
                bound = "a non-negative integer" if ttl < 0 else f"at most {MAX_TTL}"
                raise ZoneParseError(f"{where}.ttl: must be {bound}, got {ttl}")
            regional, tables = [], {}
            for i, entry in enumerate(entries):
                try:
                    region, prefix, pack, slot, network = known[entry["region"]]
                    addresses = entry["addresses"]
                except (KeyError, TypeError):  # a region text not seen yet, or a bad cell
                    region, prefix, pack, slot, network = _cell_region(
                        entry, prefix_map, known, f"{where}.answers[{i}]"
                    )
                    addresses = entry["addresses"]
                if not isinstance(addresses, list) or not addresses:
                    raise ZoneParseError(f"{where}.answers[{i}].addresses: must be a non-empty array")
                try:
                    packed = tuple(map(pack, addresses))
                except (OSError, TypeError, ValueError):
                    packed = None
                if packed is None or len(set(packed)) != len(packed):
                    # not all text of the region's family, or a repeat: the checking constructor raises why
                    spot = f"{where}.answers[{i}]"
                    with document.at(f"{spot}.addresses", ZoneParseError, ValueError), \
                            document.at(spot, ZoneParseError, ZoneParseError):
                        packed = RegionalAnswer(region, prefix, tuple(addresses)).addresses
                # every field is checked above, so the checking constructor is skipped
                answer = build(RegionalAnswer, (region, prefix, packed))
                regional.append(answer)
                tables.setdefault(slot, {})[network] = answer
            entries.clear()  # freed now, the parsed cells and the zone are never both whole in memory
            default = block.get("default")
            if default is not None:
                document.array(default, f"{where}.default", ZoneParseError)
            with document.at(where, None, (OverlapError, DefaultMismatch)), \
                    document.at(f"{where}.default", ZoneParseError, ValueError):
                records[qname] = AnswerSet(tuple(regional), default, ttl, _answer_index(tables))
        return cls(origin=origin, regions=prefix_map, records=records)

    def lookup(self, qname: str, ecs: EcsOption | None = None) -> LookupResult:
        """Resolve *qname* under the client-subnet rules.

        No option or a zero-length source prefix yields the all-region
        default with scope 0.  Otherwise the longest prefix containing the
        query network wins and the answer's scope is that prefix's length;
        with no containing prefix the default set is returned at scope 0.
        *qname* is folded by the name rule, so a name it rejects is not found.
        """
        try:
            record = self.records[canonical_name(qname)]
        except (InvalidName, KeyError):
            raise NameNotFound(f"{qname!r} not in zone {self.origin!r}") from None
        if ecs is None or ecs.source_prefix_len == 0:
            return LookupResult(record.default, 0, record.ttl)
        address = ecs.address_int()
        for plen, mask, table in record.index.get(ecs.family, ()):
            if plen <= ecs.source_prefix_len:
                best = table.get(address & mask)
                if best is not None:
                    return LookupResult(best.addresses, plen, record.ttl)
        return LookupResult(record.default, 0, record.ttl)


def _cell_region(entry, prefix_map: LocationPrefixMap, known: dict, spot: str) -> tuple:
    """The facts of answer cell *entry*'s region: code, prefix, `family_packer`, then its `_index_key` parts.

    The cell's fields are checked in document order, and a failure raises
    with *spot*, the cell's path.  The facts are stored in *known* under the
    cell's raw region text, so later cells that spell the region the same
    way look them up.
    """
    entry = document.obj(entry, spot, ZoneParseError)
    raw = document.field(entry, "region", spot, ZoneParseError, document.text)
    with document.at(f"{spot}.region", ZoneParseError, ZoneParseError):
        region = region_code(raw, ZoneParseError)
    document.field(entry, "addresses", spot, ZoneParseError)
    prefix = prefix_map.entries.get(region)
    if prefix is None:
        raise ZoneParseError(f"{spot}.region: {region!r} not in regions table")
    facts = known[raw] = (region, prefix, family_packer(prefix.version), *_index_key(prefix))
    return facts

