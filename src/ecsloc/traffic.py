"""Capture-log ingestion and the location-similarity measurements.

A capture log holds one DNS observation per line:

    ts=<int> dev=<id> ipl=<region> udl=<region> q=<name> a=<ip>[,<ip>...]

From it we derive per-device domain sets: frozensets of names and of
`prefix[lo-hi]` patterns, one pattern per collapsed load-balancing pool (a
`q` value may not contain `[` or `]`, which only patterns use).  We also
derive stabilization times, Jaccard similarities when switching either the
user-defined or the IP-based location, cumulative unique-domain/unique-IP
series, and pairwise similarity matrices.  Similarities are exact
fractions; callers render decimals.

Keys may come in any order, any whitespace apart.  `parse_log` reads a
document in one scan, by `_ROW_RE` and one `_LineReader`, which checks
each distinct raw value once.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import itemgetter
from pathlib import Path

from . import document
from .errors import Error
from .value import Indexed, Value
from .wire import InvalidName, address_text, canonical_name, pack_address
from .zone import region_code

DEFAULT_POOL_THRESHOLD = 3

_POOL_LABEL_RE = re.compile(r"^(.*?)(\d+)$")
_LINE_KEYS = ("ts", "dev", "ipl", "udl", "q", "a")
# `\S` excludes just what `str.split()` splits on: a full match is the six tokens in
# order; its groups are the ts, q and a values and the span of the dev, ipl and udl tokens
_LINE_RE = re.compile(r"ts=(\S*) (dev=\S* ipl=\S* udl=\S*) q=(\S*) a=(\S*)")
# One row per `\n`-line of a document: `_LINE_RE`'s four groups, or the line's text in a fifth.
_ROW_RE = re.compile(rf"^(?:{_LINE_RE.pattern}|(.*))$", re.MULTILINE)
# Every other `str.splitlines` break: `$` knows only `\n`, so a document holding one is re-joined
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


class TrafficError(Error):
    """Base for capture-analysis problems."""


class LogParseError(TrafficError):
    """Capture line failed validation; message carries line position."""


class UnknownDevice(TrafficError):
    """Device id never appears in the log."""


class EmptySelection(TrafficError):
    """A required (device, locations) selection matched no records."""


def _capture_qname(name: str) -> str:
    """*name* by `wire.canonical_name`, the name rule; it may not hold `[` or `]`, which patterns use."""
    name = canonical_name(name)
    if "[" in name or "]" in name:
        raise InvalidName("'[' and ']' are reserved for pool patterns")
    return name


class CaptureRecord(
    Value, fields="timestamp device_id ip_based_location user_defined_location qname resolved_ips"
):
    def __new__(cls, timestamp: int, device_id: str, ip_based_location: str, user_defined_location: str,
                qname: str, resolved_ips: tuple[str, ...]):
        if timestamp < 0:
            raise ValueError(f"negative timestamp {timestamp}")
        qname = _capture_qname(qname)
        return tuple.__new__(
            cls, (timestamp, device_id, ip_based_location, user_defined_location, qname, resolved_ips)
        )


class CaptureLog(Indexed, Value, fields="records resorted selections"):
    """*resorted* is set when input timestamps had to be re-sorted.  *selections* maps (device, ipl,
    udl) to its records in timestamp order; if None it is derived from *records*, which must be in order."""

    def __new__(cls, records: tuple[CaptureRecord, ...], resorted: bool = False, selections: dict | None = None):
        if selections is None:
            selections = {}
            last = 0
            for r in records:
                if r.timestamp < last:
                    raise ValueError("records must be in non-decreasing timestamp order")
                last = r.timestamp
                selections.setdefault((r.device_id, r.ip_based_location, r.user_defined_location), []).append(r)
        return tuple.__new__(cls, (records, resorted, selections))

    def devices(self) -> tuple[str, ...]:
        return tuple(sorted({device for device, _, _ in self.selections}))

    def __len__(self) -> int:
        return len(self.records)


def _scan_tokens(line: str) -> tuple[str, ...]:
    """The raw values `_LINE_RE` gives, of a line in any key order and spacing: ts, span, q and a."""
    fields = {}
    for token in line.split():
        key, sep, value = token.partition("=")
        if not sep or key not in _LINE_KEYS:
            raise LogParseError(f"unexpected token {token!r}")
        if key in fields:
            raise LogParseError(f"duplicate key {key!r}")
        fields[key] = value
    if len(fields) < len(_LINE_KEYS):
        missing = [k for k in _LINE_KEYS if k not in fields]
        raise LogParseError(f"missing keys {missing}")
    span = f"dev={fields['dev']} ipl={fields['ipl']} udl={fields['udl']}"
    return fields["ts"], span, fields["q"], fields["a"]


class _LineReader:
    """Reads the capture lines of one ingest into `records`, grouped in `selections`.

    `read` is its one loop, over the rows `_ROW_RE` gives.  It stores each raw
    value that passed its checks: the `dev=.. ipl=.. udl=..` span (with its
    selection's records), `q=` and `a=`, so a bad value raises on every line
    that carries it.  A row in the layout whose span, `q=` and `a=` are all
    stored and whose ts is a non-negative integer becomes a record inline;
    any other row runs the checks, in one order on every line: ts is an
    integer, dev is not empty, a, ipl, udl, ts is not negative, q.  Errors
    carry no line position: `lineno` gives the failing line's, so it is
    counted only for a line that fails.
    """

    def __init__(self):
        self.records: list[CaptureRecord] = []
        self.skipped = 0  # blank and comment lines read
        self.selections: dict[tuple[str, str, str], list[CaptureRecord]] = {}
        self._places: dict[str, tuple] = {}  # span -> (dev, ipl, udl, that selection's records)
        self._qnames: dict[str, str] = {}
        self._addresses: dict[str, tuple[str, ...]] = {}

    def lineno(self) -> int:
        """The number of the line being read: the lines read so far gave a record or were skipped."""
        return len(self.records) + self.skipped + 1

    def read(self, rows) -> None:
        """Read *rows*, each (ts, span, q, a, text) for one line; text is read only when span is empty."""
        places, qnames, addresses = self._places, self._qnames, self._addresses
        append = self.records.append
        for ts, span, q, a, text in rows:
            place = places.get(span)  # never the empty span of a text row
            qname = qnames.get(q)
            ips = addresses.get(a)
            if place is not None and qname is not None and ips is not None:
                try:
                    timestamp = int(ts)
                except ValueError:
                    timestamp = -1
                if timestamp >= 0:
                    dev, ipl, udl, picked = place
                    record = tuple.__new__(CaptureRecord, (timestamp, dev, ipl, udl, qname, ips))
                    append(record)
                    picked.append(record)
                    continue
            if span:
                append(self._check(ts, span, q, a))
            else:
                self._text(text)

    def _text(self, line: str) -> None:
        """Read a line outside the layout: blank and `#` lines are skipped, any other goes to `_scan_tokens`."""
        line = line.strip()
        if not line or line.startswith("#"):
            self.skipped += 1
        else:
            self.records.append(self._check(*_scan_tokens(line)))

    def _check(self, ts: str, span: str, q: str, a: str) -> CaptureRecord:
        """The record of one line's raw values, checked in the order above; it joins its selection."""
        try:
            timestamp = int(ts)
        except ValueError:
            raise LogParseError(f"ts={ts!r} is not an integer") from None
        place = self._places.get(span)
        if place is None:
            dev, ipl, udl = (token[4:] for token in span.split(" "))  # "<key>=<value>", 3-letter keys
            if not dev:
                raise LogParseError("empty device id")
        ips = self._addresses.get(a)
        if ips is None:
            ips = self._ips(a)
        if place is None:
            key = (dev, region_code(ipl, LogParseError), region_code(udl, LogParseError))
            place = self._places[span] = (*key, self.selections.setdefault(key, []))
        if timestamp < 0:
            raise LogParseError(f"negative timestamp {timestamp}")
        qname = self._qnames.get(q)
        if qname is None:
            try:
                qname = self._qnames[q] = _capture_qname(q)
            except InvalidName as exc:
                raise LogParseError(f"bad qname {q!r}: {exc}") from None
        dev, ipl, udl, picked = place
        record = tuple.__new__(CaptureRecord, (timestamp, dev, ipl, udl, qname, ips))
        picked.append(record)
        return record

    def _ips(self, field: str) -> tuple[str, ...]:
        parts = []
        for part in field.split(",") if field else ():
            try:
                parts.append(address_text(pack_address(part)))
            except ValueError:
                raise LogParseError(f"bad address {part!r}") from None
        self._addresses[field] = ips = tuple(parts)
        return ips


def parse_capture_line(line: str, where: str = "line") -> CaptureRecord:
    """The record of one capture *line*; an error names it as *where*."""
    reader = _LineReader()
    with document.at(where, LogParseError, LogParseError):
        match = _LINE_RE.fullmatch(line)
        values = match.groups() if match else _scan_tokens(line)
        reader.read([(*values, "")])
    return reader.records[0]


def ingest_log(path) -> CaptureLog:
    """Read and parse the capture file at *path*; see `parse_log`."""
    return parse_log(Path(path).read_bytes(), path)


@document.bulk
def parse_log(data: bytes | str, name) -> CaptureLog:
    """Parse a capture log read from *name*; out-of-order timestamps are sorted and flagged."""
    text = document.decode(data, name, LogParseError)
    if any(brk in text for brk in _OTHER_BREAKS):  # one C scan each, far cheaper than a regex class
        text = "\n".join(text.splitlines())
    reader = _LineReader()
    try:
        reader.read(_ROW_RE.findall(text))
    except LogParseError as exc:
        raise LogParseError(f"{name}:{reader.lineno()}: {exc}") from None
    records = reader.records
    by_time = itemgetter(0)
    ordered = sorted(records, key=by_time)  # stable: the same list when already in order
    resorted = ordered != records
    if resorted:
        for picked in reader.selections.values():
            picked.sort(key=by_time)
    return CaptureLog(tuple(ordered), resorted, reader.selections)


def collapse_pools(names, pool_threshold: int = DEFAULT_POOL_THRESHOLD) -> frozenset[str]:
    """Fold numeric sibling names (one varying label) into a range pattern.

    Names identical except for one label of the form <prefix><integer> are
    grouped; groups of at least *pool_threshold* distinct names become a
    single member <prefix>[<min>-<max>].rest, everything else passes through.
    A name a pattern covers has that pattern's group key, so for names
    without brackets no output member is covered by another's pattern.
    """
    if pool_threshold < 1:
        raise ValueError("pool_threshold must be positive")
    names = {str(n).rstrip(".").lower() for n in set(names)}
    groups: dict[tuple, dict[str, int]] = {}
    for name in names:
        labels = name.split(".")
        for i, label in enumerate(labels):
            # `\d` in a str pattern matches exactly the characters `str.isdecimal` accepts
            m = label[-1:].isdecimal() and _POOL_LABEL_RE.match(label)
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
    return frozenset(out)


def jaccard(a, b) -> Fraction:
    """Intersection over union; two empty sets compare equal (1)."""
    set_a, set_b = set(a), set(b)
    union = set_a | set_b
    if not union:
        return Fraction(1)
    return Fraction(len(set_a & set_b), len(union))


def _select(
    log: CaptureLog,
    device: str,
    ip_location: str,
    user_location: str,
) -> list[CaptureRecord]:
    """*device*'s records at the two locations, region codes that must meet `zone.region_code`."""
    key = (device, region_code(ip_location, ValueError), region_code(user_location, ValueError))
    picked = log.selections.get(key)
    if picked is None:
        if not any(dev == device for dev, _, _ in log.selections):
            raise UnknownDevice(f"device {device!r} not in log")
        return []
    return picked


def domain_set(
    log: CaptureLog,
    device: str,
    ip_location: str,
    user_location: str,
    pool_threshold: int = DEFAULT_POOL_THRESHOLD,
) -> frozenset[str]:
    """Distinct qnames for the selection, pools collapsed."""
    picked = _select(log, device, ip_location, user_location)
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


def _location_sets(log: CaptureLog, device: str, selections, pool_threshold: int) -> list[frozenset[str]]:
    """Pool-collapsed domain set of each (ipl, udl) selection; none may be empty."""
    picks = [_select(log, device, ipl, udl) for ipl, udl in selections]  # a bad code fails before an empty pick
    for (ipl, udl), picked in zip(selections, picks):
        if not picked:
            raise EmptySelection(f"no records for ({ipl}, {udl})")
    return [collapse_pools((r.qname for r in picked), pool_threshold) for picked in picks]


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
    series = []
    domains: set[str] = set()
    ips: set[str] = set()
    bucket_end = picked[0].timestamp + bucket_seconds
    for record in picked:
        while record.timestamp >= bucket_end:  # close every bucket this record is past
            series.append((bucket_end, len(domains), len(ips)))
            bucket_end += bucket_seconds
        domains.add(record.qname)
        ips.update(record.resolved_ips)
    series.append((bucket_end, len(domains), len(ips)))
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
