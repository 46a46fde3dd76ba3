"""Allowlist (MUD-style) construction, serialization, unification, and
client-subnet collapsing.

Each access-control entry is the 5-tuple (endpoint, protocol, source port,
destination port, direction) plus an action; files follow the RFC 8520
ACL/ACE nesting with a simplified fixed schema.  Collapsing replaces each
group of per-region endpoint variants with one canonical domain, which is
what a client-subnet-aware authoritative makes possible.
"""

from __future__ import annotations

import ipaddress
import json
import re
from fractions import Fraction

from . import document
from .errors import Error
from .value import Value
from .wire import InvalidName, canonical_name
from .zone import region_code

PROTOCOLS = ("tcp", "udp", "icmp", "any")
DIRECTIONS = ("from-device", "to-device")
ACTIONS = ("accept", "drop")

_MAC_RE = re.compile(r"^([0-9a-f]{2}:){5}[0-9a-f]{2}$")

# Labels that name a region even when that region is not among those given.
DEFAULT_REGION_ALIASES = {"eu": "EU"}


class MudError(Error):
    """Base for allowlist problems."""


class EmptyDomainSet(MudError):
    """Cannot build an allowlist from zero domains."""


class MixedDevices(MudError):
    """Unification inputs describe different devices."""


class BadVariantRegion(MudError):
    """A group variant's key is not a region code, or repeats one in another case."""


class SchemaError(MudError):
    """Document violates the allowlist schema; message carries the path."""


class DivisionGuard(MudError):
    """Reduction ratio undefined for empty allowlists."""


def _domain_name(name: str, what: str) -> str:
    """*name* under the package's one name rule, not address text; else a MudError naming *what* is raised."""
    with document.at(what, MudError, InvalidName):
        name = canonical_name(name)
    if _endpoint_kind(name) != "domain":
        raise MudError(f"{what}: {name!r} is an address, not a domain name")
    return name


def _endpoint_kind(endpoint: str) -> str:
    if ":" not in endpoint and endpoint.strip("0123456789."):
        return "domain"  # MAC and IPv6 addresses hold a ':', IPv4 ones only digits and dots
    if _MAC_RE.match(endpoint):
        return "mac"
    try:
        ipaddress.ip_address(endpoint)
        return "ip"
    except ValueError:
        return "domain"


class Ace(Value, fields="endpoint protocol direction source_port destination_port action"):
    """One allowlist rule; a port of None means any port.

    A domain endpoint is kept in canonical form (lower case, no trailing dot);
    address endpoints are only lower-cased, as RFC 8520 allows an IPv6 zone id.
    """

    def __new__(cls, endpoint: str, protocol: str = "tcp", direction: str = "from-device",
                source_port: int | None = None, destination_port: int | None = None, action: str = "accept"):
        endpoint = endpoint.strip().lower()
        if not endpoint:
            raise MudError("empty endpoint")
        if _endpoint_kind(endpoint) == "domain":
            endpoint = _domain_name(endpoint, "endpoint")
        if protocol not in PROTOCOLS:
            raise MudError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
        if direction not in DIRECTIONS:
            raise MudError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
        if action not in ACTIONS:
            raise MudError(f"action must be one of {ACTIONS}, got {action!r}")
        for port in (source_port, destination_port):
            if port is not None and not 0 <= port <= 65535:
                raise MudError(f"port {port} out of range")
        if protocol == "icmp" and (source_port is not None or destination_port is not None):
            raise MudError("icmp entries carry no ports")
        return tuple.__new__(cls, (endpoint, protocol, direction, source_port, destination_port, action))

    @property
    def endpoint_kind(self) -> str:
        return _endpoint_kind(self.endpoint)

    def sort_key(self) -> tuple:
        return (
            self.endpoint,
            self.protocol,
            self.direction,
            -1 if self.source_port is None else self.source_port,
            -1 if self.destination_port is None else self.destination_port,
            self.action,
        )


class AceTemplate(Value, fields="protocol direction source_port destination_port action",
                  defaults=("tcp", "from-device", None, 443, "accept")):
    """Every `Ace` field after the endpoint, in `Ace`'s order; generate_mud stamps it onto each domain."""


DEFAULT_TEMPLATE = AceTemplate()


class MudFile(Value, fields="device_id mud_url acl default_action"):
    """Allowlist for one device; entries are kept sorted and de-duplicated."""

    def __new__(cls, device_id: str, mud_url: str, acl: tuple[Ace, ...] = (), default_action: str = "drop"):
        if not device_id:
            raise MudError("device id must not be empty")
        if not mud_url:
            raise MudError("MUD URL must not be empty")
        if default_action != "drop":
            raise MudError("default action must be drop")
        acl = tuple(sorted(set(acl), key=Ace.sort_key))
        return tuple.__new__(cls, (device_id, mud_url, acl, default_action))


class RegionDomainGroup(Value, fields="canonical_domain regional_variants"):
    """Per-region variants of one service domain (region code -> name) and the name replacing them.

    Every name is kept in canonical form, so a variant matches the endpoint it names however it is spelled,
    and none may be address text.
    """

    def __new__(cls, canonical_domain: str, regional_variants: dict):
        canonical_domain = _domain_name(canonical_domain, "canonical domain")
        variants = {}
        for region, name in regional_variants.items():
            region = region_code(region, BadVariantRegion)
            if region in variants:
                raise BadVariantRegion(f"region {region} given twice")
            variants[region] = _domain_name(name, f"variant {region}")
        if len(set(variants.values())) != len(variants):
            raise MudError(f"group {canonical_domain}: duplicate variant names")
        return tuple.__new__(cls, (canonical_domain, variants))


def generate_mud(
    domains,
    device_id: str,
    template: AceTemplate = DEFAULT_TEMPLATE,
    mud_url: str | None = None,
) -> MudFile:
    """One accept entry per domain member, ordered lexicographically."""
    members = sorted(set(domains))
    if not members:
        raise EmptyDomainSet(f"no domains for device {device_id!r}")
    if mud_url is None:
        mud_url = f"urn:mud:{device_id}"
    return MudFile(
        device_id=device_id,
        mud_url=mud_url,
        acl=tuple(Ace(name, *template) for name in members),
    )


def _one_device(device_ids: set) -> None:
    if len(device_ids) != 1:
        raise MixedDevices(f"inputs describe several devices: {sorted(device_ids)}")


def unify(muds) -> MudFile:
    """Set-union of entries across allowlists for the same device."""
    muds = list(muds)
    if not muds:
        raise MudError("nothing to unify")
    _one_device({m.device_id for m in muds})
    aces = set()
    for mud in muds:
        aces.update(mud.acl)
    return MudFile(
        device_id=muds[0].device_id,
        mud_url=min(m.mud_url for m in muds),
        acl=tuple(aces),
    )


def _canonical_names(groups) -> dict[str, str]:
    """Each regional variant in *groups* -> its group's canonical domain; a later group wins a variant named twice."""
    return {variant: group.canonical_domain for group in groups for variant in group.regional_variants.values()}


class CollapseResult(Value, fields="mud unmatched_variants tuple_splits"):
    """*tuple_splits* are the canonical domains whose variants disagreed on the tuple."""


def ecs_collapse(unified: MudFile, groups) -> CollapseResult:
    """Replace each group's per-region variant entries with canonical-domain entries.

    Entries agreeing on everything but the endpoint merge into one; distinct
    tuples each keep their own canonical entry and the group is reported as
    split.  Variants named but absent from the input are reported, not fatal.
    """
    variant_to_canonical = _canonical_names(groups)
    present = {ace.endpoint for ace in unified.acl}
    unmatched = tuple(sorted(v for v in variant_to_canonical if v not in present))

    kept = []
    merged: dict[str, set[Ace]] = {}
    for ace in unified.acl:
        canonical = variant_to_canonical.get(ace.endpoint)
        if canonical is None:
            kept.append(ace)
        else:
            merged.setdefault(canonical, set()).add(ace.replace(endpoint=canonical))
    splits = tuple(sorted(name for name, aces in merged.items() if len(aces) > 1))
    for aces in merged.values():
        kept.extend(aces)
    collapsed = MudFile(
        device_id=unified.device_id,
        mud_url=unified.mud_url,
        acl=tuple(kept),
    )
    return CollapseResult(mud=collapsed, unmatched_variants=unmatched, tuple_splits=splits)


def suggest_groups(domains, regions) -> list[RegionDomainGroup]:
    """Advisory grouping of domains differing only in one region-code label.

    The label must equal a region code (case-insensitive) or a key of
    `DEFAULT_REGION_ALIASES`; cross-TLD variants intentionally exceed this
    heuristic, so the operator confirms groups before collapsing.
    """
    label_to_region = {r.lower(): r.upper() for r in regions}
    label_to_region.update(DEFAULT_REGION_ALIASES)
    buckets: dict[tuple, dict[str, str]] = {}
    for name in sorted(domains):
        if "[" in name:
            continue  # pool patterns never encode a region
        labels = name.lower().split(".")
        for i, label in enumerate(labels):
            region = label_to_region.get(label)
            if region is None:
                continue
            key = (i, tuple(labels[:i]), tuple(labels[i + 1 :]))
            buckets.setdefault(key, {})[region] = name
    out = []
    for key in sorted(buckets, key=str):
        variants = buckets[key]
        if len(variants) < 2:
            continue
        i, before, after = key
        canonical = ".".join([*before, *after])
        if not (before or after) or _endpoint_kind(canonical) != "domain":
            continue  # single-label names, or an address left: no domain name is left to replace them
        out.append(RegionDomainGroup(canonical_domain=canonical, regional_variants=variants))
    return out


def domain_count(mud: MudFile) -> int:
    """Distinct domain-name endpoints; IP and MAC endpoints do not count."""
    return len({ace.endpoint for ace in mud.acl if ace.endpoint_kind == "domain"})


def reduction_ratio(unified: MudFile, ecs: MudFile) -> Fraction:
    """Fraction of the unified allowlist's domains the collapsed one saves."""
    return _ratio(domain_count(unified), domain_count(ecs))


def _ratio(total: int, kept: int) -> Fraction:
    if total == 0:
        raise DivisionGuard("both allowlists have zero domain endpoints")
    return Fraction(total - kept, total)


def _port_json(port: int | None):
    return "any" if port is None else port


def _port_from_json(raw, where: str) -> int | None:
    if raw == "any":
        return None
    if type(raw) is not int:  # a JSON true or false is no port
        raise SchemaError(f"{where}: must be a port number or 'any', got {raw!r}")
    return raw


def serialize_mud(mud: MudFile) -> bytes:
    """Stable-keyed document; identical files re-serialize byte-identically."""
    acls = []
    for direction in DIRECTIONS:
        aces = [a for a in mud.acl if a.direction == direction]
        if not aces:
            continue
        acls.append(
            {
                "name": direction,
                "aces": [
                    {
                        "endpoint": ace.endpoint,
                        "protocol": ace.protocol,
                        "source-port": _port_json(ace.source_port),
                        "destination-port": _port_json(ace.destination_port),
                        "direction": ace.direction,
                        "action": ace.action,
                    }
                    for ace in aces
                ],
            }
        )
    doc = {
        "mud": {
            "device-id": mud.device_id,
            "mud-url": mud.mud_url,
            "default-action": mud.default_action,
        },
        "acls": acls,
    }
    return (json.dumps(doc, indent=2) + "\n").encode()


@document.bulk
def parse_mud(data: bytes | str, name="document") -> MudFile:
    """Inverse of serialize_mud, for a document read from *name*.

    Each error text starts with *name* and the path of the field at fault.
    """
    doc = document.obj(document.parse(data, name, SchemaError), name, SchemaError)
    head = document.obj(document.field(doc, "mud", name, SchemaError), f"{name}: mud", SchemaError)
    device_id, mud_url, default_action = (
        document.field(head, key, f"{name}: mud", SchemaError, document.text)
        for key in ("device-id", "mud-url", "default-action")
    )
    aces = []
    acls = document.array(document.field(doc, "acls", name, SchemaError), f"{name}: acls", SchemaError)
    for i, acl in enumerate(acls):
        acl = document.obj(acl, f"{name}: acls[{i}]", SchemaError)
        document.field(acl, "name", f"{name}: acls[{i}]", SchemaError, document.text)  # not kept: named by direction
        for j, raw in enumerate(document.field(acl, "aces", f"{name}: acls[{i}]", SchemaError, document.array)):
            where = f"{name}: acls[{i}].aces[{j}]"
            raw = document.obj(raw, where, SchemaError)
            endpoint, protocol, direction = (
                document.field(raw, key, where, SchemaError, document.text)
                for key in ("endpoint", "protocol", "direction")
            )
            source_port, destination_port = (
                _port_from_json(document.field(raw, key, where, SchemaError), f"{where}.{key}")
                for key in ("source-port", "destination-port")
            )
            action = document.field(raw, "action", where, SchemaError, document.text)
            with document.at(where, SchemaError, MudError):
                aces.append(Ace(endpoint, protocol, direction, source_port, destination_port, action))
    with document.at(name, SchemaError, MudError):
        return MudFile(
            device_id=device_id,
            mud_url=mud_url,
            acl=tuple(aces),
            default_action=default_action,
        )


@document.bulk
def load_groups(data: bytes | str, name="groups document") -> list[RegionDomainGroup]:
    """Parse a region-group document read from *name*: [{"canonical": ..., "variants": {REGION: name}}].

    Each error text starts with *name* and the path of the field at fault.
    """
    doc = document.array(document.parse(data, name, SchemaError), name, SchemaError)
    groups = []
    for i, raw in enumerate(doc):
        where = f"{name}: groups[{i}]"
        raw = document.obj(raw, where, SchemaError)
        canonical = document.field(raw, "canonical", where, SchemaError, document.text)
        variants = document.field(raw, "variants", where, SchemaError, document.obj)
        for region, variant in variants.items():
            document.text(variant, f"{where}.variants.{region}", SchemaError)
        try:
            groups.append(RegionDomainGroup(canonical_domain=canonical, regional_variants=variants))
        except BadVariantRegion as exc:
            raise SchemaError(f"{where}.variants: {exc}") from None
        except MudError as exc:
            raise SchemaError(f"{where}: {exc}") from None
    return groups


def sweep_table(location_muds, groups) -> list[tuple[int, int, int, Fraction]]:
    """Unified-versus-collapsed domain counts as locations accumulate.

    Row k covers the first k inputs: (k, unified domains, collapsed domains,
    reduction ratio), as `unify` and `ecs_collapse` count them.  Each input is
    read once, into running sets: its device id, its domain endpoints, and
    each one's collapsed name, a domain too, as no group names an address.
    """
    canonical = _canonical_names(groups)
    device_ids, unified, collapsed = set(), set(), set()
    rows = []
    for k, mud in enumerate(location_muds, 1):
        device_ids.add(mud.device_id)
        _one_device(device_ids)
        for endpoint in {ace.endpoint for ace in mud.acl}:
            if _endpoint_kind(endpoint) == "domain":
                unified.add(endpoint)
                collapsed.add(canonical.get(endpoint, endpoint))
        rows.append((k, len(unified), len(collapsed), _ratio(len(unified), len(collapsed))))
    return rows
