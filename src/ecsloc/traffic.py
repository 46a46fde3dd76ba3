"""Capture-log ingestion and the location-similarity measurements.

A capture log holds one DNS observation per line:

    ts=<int> dev=<id> ipl=<region> udl=<region> q=<name> a=<ip>[,<ip>...]

From it we derive per-device domain-name sets (with load-balancing pools
collapsed to one range pattern), stabilization times, Jaccard similarities
when switching either the user-defined or the IP-based location, cumulative
unique-domain/unique-IP series, and pairwise similarity matrices.
Similarities are exact fractions; callers render decimals.
"""

from __future__ import annotations

import ipaddress
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import Error
from .wire import InvalidName, canonical_name
from .zone import is_region_code

DEFAULT_POOL_THRESHOLD = 3

_POOL_LABEL_RE = re.compile(r"^(.*?)(\d+)$")
_PATTERN_LABEL_RE = re.compile(r"^(.*?)\[(\d+)-(\d+)\]$")
_LINE_KEYS = ("ts", "dev", "ipl", "udl", "q", "a")


class TrafficError(Error):
    """Base for capture-analysis problems."""


class LogParseError(TrafficError):
    """Capture line failed validation; message carries line position."""


class UnknownDevice(TrafficError):
    """Device id never appears in the log."""


class EmptySelection(TrafficError):
    """A required (device, locations) selection matched no records."""


@dataclass(frozen=True)
class CaptureRecord:
    timestamp: int
    device_id: str
    ip_based_location: str
    user_defined_location: str
    qname: str
    resolved_ips: tuple[str, ...]

    def __post_init__(self):
        if self.timestamp < 0:
            raise ValueError(f"negative timestamp {self.timestamp}")
        object.__setattr__(self, "qname", canonical_name(self.qname))


@dataclass(frozen=True)
class CaptureLog:
    records: tuple[CaptureRecord, ...]
    resorted: bool = False  # set when input timestamps had to be re-sorted

    def __post_init__(self):
        for earlier, later in zip(self.records, self.records[1:]):
            if earlier.timestamp > later.timestamp:
                raise ValueError("records must be in non-decreasing timestamp order")

    def devices(self) -> tuple[str, ...]:
        return tuple(sorted({r.device_id for r in self.records}))

    def __len__(self) -> int:
        return len(self.records)


def _parse_region(token: str, where: str) -> str:
    if not is_region_code(token):
        raise LogParseError(f"{where}: {token!r} is not a two-letter region code")
    return token.upper()


def parse_capture_line(line: str, where: str = "line") -> CaptureRecord:
    fields = {}
    for token in line.split():
        key, sep, value = token.partition("=")
        if not sep or key not in _LINE_KEYS:
            raise LogParseError(f"{where}: unexpected token {token!r}")
        if key in fields:
            raise LogParseError(f"{where}: duplicate key {key!r}")
        fields[key] = value
    missing = [k for k in _LINE_KEYS if k not in fields]
    if missing:
        raise LogParseError(f"{where}: missing keys {missing}")
    try:
        ts = int(fields["ts"])
    except ValueError:
        raise LogParseError(f"{where}: ts={fields['ts']!r} is not an integer") from None
    if not fields["dev"]:
        raise LogParseError(f"{where}: empty device id")
    ips = []
    if fields["a"]:
        for part in fields["a"].split(","):
            try:
                ips.append(str(ipaddress.ip_address(part)))
            except ValueError:
                raise LogParseError(f"{where}: bad address {part!r}") from None
    try:
        return CaptureRecord(
            timestamp=ts,
            device_id=fields["dev"],
            ip_based_location=_parse_region(fields["ipl"], where),
            user_defined_location=_parse_region(fields["udl"], where),
            qname=fields["q"],
            resolved_ips=tuple(ips),
        )
    except LogParseError:
        raise
    except InvalidName as exc:
        raise LogParseError(f"{where}: bad qname {fields['q']!r}: {exc}") from None
    except (Error, ValueError) as exc:
        raise LogParseError(f"{where}: {exc}") from None


def ingest_log(path) -> CaptureLog:
    """Parse a capture file; out-of-order timestamps are sorted and flagged."""
    path = Path(path)
    records = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        records.append(parse_capture_line(stripped, where=f"{path}:{lineno}"))
    resorted = any(a.timestamp > b.timestamp for a, b in zip(records, records[1:]))
    if resorted:
        records.sort(key=lambda r: r.timestamp)
    return CaptureLog(records=tuple(records), resorted=resorted)


def _pattern_covers(pattern: str, name: str) -> bool:
    plabels = pattern.split(".")
    nlabels = name.split(".")
    if len(plabels) != len(nlabels):
        return False
    for pl, nl in zip(plabels, nlabels):
        if pl == nl:
            continue
        m = _PATTERN_LABEL_RE.match(pl)
        if not m:
            return False
        prefix, lo, hi = m.group(1), int(m.group(2)), int(m.group(3))
        n = _POOL_LABEL_RE.match(nl)
        if not n or n.group(1) != prefix or not lo <= int(n.group(2)) <= hi:
            return False
    return True


@dataclass(frozen=True)
class DomainSet:
    """Distinct domain names; a member may be a pool pattern like a[10-12].x."""

    members: frozenset

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        patterns = [m for m in self.members if "[" in m]
        for member in self.members:
            for pattern in patterns:
                if member != pattern and _pattern_covers(pattern, member):
                    raise ValueError(f"{member!r} is subsumed by pattern {pattern!r}")

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(sorted(self.members))

    def __contains__(self, name: str) -> bool:
        return name in self.members


def collapse_pools(names, pool_threshold: int = DEFAULT_POOL_THRESHOLD) -> DomainSet:
    """Fold numeric sibling names (one varying label) into a range pattern.

    Names identical except for one label of the form <prefix><integer> are
    grouped; groups of at least *pool_threshold* distinct names become a
    single member <prefix>[<min>-<max>].rest, everything else passes through.
    """
    names = {str(n).rstrip(".").lower() for n in names}
    groups: dict[tuple, dict[str, int]] = {}
    for name in names:
        labels = name.split(".")
        for i, label in enumerate(labels):
            m = _POOL_LABEL_RE.match(label)
            if not m:
                continue
            key = (i, m.group(1), tuple(labels[:i]), tuple(labels[i + 1 :]))
            groups.setdefault(key, {})[name] = int(m.group(2))

    folded: set[str] = set()
    out: set[str] = set()
    for key in sorted(groups, key=str):
        members = {n: v for n, v in groups[key].items() if n not in folded}
        if len(members) < pool_threshold:
            continue
        i, prefix, before, after = key
        numbers = sorted(members.values())
        label = f"{prefix}[{numbers[0]}-{numbers[-1]}]"
        out.add(".".join([*before, label, *after]))
        folded.update(members)
    out.update(names - folded)
    return DomainSet(frozenset(out))


def jaccard(a, b) -> Fraction:
    """Intersection over union; two empty sets compare equal (1)."""
    set_a = set(a.members if isinstance(a, DomainSet) else a)
    set_b = set(b.members if isinstance(b, DomainSet) else b)
    union = set_a | set_b
    if not union:
        return Fraction(1)
    return Fraction(len(set_a & set_b), len(union))


def _select(
    log: CaptureLog,
    device: str,
    ip_location: str,
    user_location: str,
    window=None,
) -> list[CaptureRecord]:
    if device not in {r.device_id for r in log.records}:
        raise UnknownDevice(f"device {device!r} not in log")
    ip_location = ip_location.upper()
    user_location = user_location.upper()
    picked = [
        r
        for r in log.records
        if r.device_id == device
        and r.ip_based_location == ip_location
        and r.user_defined_location == user_location
    ]
    if window is not None:
        t0, t1 = window
        picked = [r for r in picked if t0 <= r.timestamp <= t1]
    return picked


def domain_set(
    log: CaptureLog,
    device: str,
    ip_location: str,
    user_location: str,
    window=None,
    pool_threshold: int = DEFAULT_POOL_THRESHOLD,
) -> DomainSet:
    """Distinct qnames for the selection (whole log when window is absent), pools collapsed."""
    picked = _select(log, device, ip_location, user_location, window)
    return collapse_pools((r.qname for r in picked), pool_threshold)


def stabilization_time(
    log: CaptureLog, device: str, ip_location: str, user_location: str
) -> int | None:
    """Timestamp after which the selection's domain set stops growing.

    Equals the last first-occurrence time over distinct qnames; None when
    the selection is empty.
    """
    picked = _select(log, device, ip_location, user_location)
    first_seen: dict[str, int] = {}
    for record in picked:
        first_seen.setdefault(record.qname, record.timestamp)
    if not first_seen:
        return None
    return max(first_seen.values())


def _location_sets(log: CaptureLog, device: str, selections, pool_threshold: int) -> list[DomainSet]:
    """Pool-collapsed domain set of each (ipl, udl) selection; none may be empty."""
    sets = []
    for ipl, udl in selections:
        picked = _select(log, device, ipl, udl)
        if not picked:
            raise EmptySelection(f"no records for ({ipl}, {udl})")
        sets.append(collapse_pools((r.qname for r in picked), pool_threshold))
    return sets


def uds(
    log: CaptureLog,
    device: str,
    ip_location: str,
    user_a: str,
    user_b: str,
    pool_threshold: int = DEFAULT_POOL_THRESHOLD,
) -> Fraction:
    """Similarity across two user-defined locations at a fixed IP-based location."""
    a, b = _location_sets(log, device, [(ip_location, user_a), (ip_location, user_b)], pool_threshold)
    return jaccard(a, b)


def ipbs(
    log: CaptureLog,
    device: str,
    user_location: str,
    ip_a: str,
    ip_b: str,
    pool_threshold: int = DEFAULT_POOL_THRESHOLD,
) -> Fraction:
    """Similarity across two IP-based locations at a fixed user-defined location."""
    a, b = _location_sets(log, device, [(ip_a, user_location), (ip_b, user_location)], pool_threshold)
    return jaccard(a, b)


def cumulative_counts(
    log: CaptureLog,
    device: str,
    ip_location: str,
    user_location: str,
    bucket_seconds: int,
) -> list[tuple[int, int, int]]:
    """(bucket_end, unique qnames so far, unique answer IPs so far) per bucket.

    Buckets start at the selection's first timestamp; both series are
    cumulative, so they never decrease.
    """
    if bucket_seconds <= 0:
        raise ValueError("bucket_seconds must be positive")
    picked = _select(log, device, ip_location, user_location)
    if not picked:
        return []
    t0 = picked[0].timestamp
    last = picked[-1].timestamp
    series = []
    domains: set[str] = set()
    ips: set[str] = set()
    idx = 0
    bucket_end = t0 + bucket_seconds
    while True:
        while idx < len(picked) and picked[idx].timestamp < bucket_end:
            domains.add(picked[idx].qname)
            ips.update(picked[idx].resolved_ips)
            idx += 1
        series.append((bucket_end, len(domains), len(ips)))
        if bucket_end > last:
            break
        bucket_end += bucket_seconds
    return series


def similarity_matrix(
    log: CaptureLog,
    device: str,
    ip_location: str,
    regions,
    pool_threshold: int = DEFAULT_POOL_THRESHOLD,
) -> list[list[Fraction]]:
    """Pairwise user-defined similarities over *regions* at one IP-based location."""
    regions = [r.upper() for r in regions]
    if len(regions) < 2:
        raise ValueError("need at least two regions")
    sets = _location_sets(log, device, [(ip_location, region) for region in regions], pool_threshold)
    return [[jaccard(a, b) for b in sets] for a in sets]
