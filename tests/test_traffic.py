"""Capture analysis: domain sets, stabilization, similarities, pools.

Every numeric expectation is either trivially forced or computed by a
brute-force oracle in this module before being asserted.
"""

import io
import random
import re
import time
from fractions import Fraction

import pytest
from helpers import FIXTURES
from hypothesis import given, settings
from hypothesis import strategies as st

from ecsloc import traffic
from ecsloc.traffic import (
    CaptureLog,
    CaptureRecord,
    EmptySelection,
    LogParseError,
    UnknownDevice,
    collapse_pools,
    cumulative_counts,
    domain_set,
    ingest_log,
    ipbs,
    jaccard,
    parse_capture_line,
    parse_log,
    similarity_matrix,
    stabilization_time,
    uds,
)
from ecsloc.wire import InvalidName


def jaccard_oracle(a, b) -> Fraction:
    """Element-by-element enumeration instead of set algebra."""
    a, b = list(a), list(b)
    inter = sum(1 for x in a if x in b)
    union = len(a) + len(b) - inter
    return Fraction(1) if union == 0 else Fraction(inter, union)


def stabilization_oracle(records):
    """Prefix scan: earliest time whose prefix set already equals the full set."""
    if not records:
        return None
    full = {r.qname for r in records}
    for t in sorted({r.timestamp for r in records}):
        if {r.qname for r in records if r.timestamp <= t} == full:
            return t
    raise AssertionError("unreachable")


def covers_oracle(pattern: str, name: str) -> bool:
    """Label by label: equal, or a numbered label inside the pattern label's range."""
    plabels, nlabels = pattern.split("."), name.split(".")
    if len(plabels) != len(nlabels):
        return False
    for pl, nl in zip(plabels, nlabels):
        if pl == nl:
            continue
        p = re.fullmatch(r"(.*?)\[(\d+)-(\d+)\]", pl)
        n = re.fullmatch(r"(.*?)(\d+)", nl)
        if not (p and n and p[1] == n[1] and int(p[2]) <= int(n[2]) <= int(p[3])):
            return False
    return True


def log_of(rows) -> CaptureLog:
    records = tuple(
        CaptureRecord(
            timestamp=ts,
            device_id=dev,
            ip_based_location=ipl,
            user_defined_location=udl,
            qname=q,
            resolved_ips=tuple(ips),
        )
        for ts, dev, ipl, udl, q, ips in rows
    )
    return CaptureLog(records=tuple(sorted(records, key=lambda r: r.timestamp)))


class TestIngest:

    def test_three_line_fixture(self, tmp_path):
        path = tmp_path / "log"
        path.write_text(
            "ts=1 dev=d ipl=UK udl=UK q=a.x a=10.0.0.1\n"
            "ts=2 dev=d ipl=UK udl=UK q=b.x a=10.0.0.2\n"
            "ts=3 dev=d ipl=UK udl=UK q=a.x a=10.0.0.3\n"
        )
        log = ingest_log(path)
        assert len(log) == 3
        assert not log.resorted

    def test_repo_fixture(self):
        log = ingest_log(FIXTURES / "captures" / "yi_camera.log")
        assert len(log) == 4
        assert log.devices() == ("yi-cam",)

    def test_parse_log_takes_the_bytes_or_text_ingest_reads(self):
        path = FIXTURES / "captures" / "yi_camera_reordered.log"
        log = ingest_log(path)
        assert parse_log(path.read_bytes(), path) == log
        assert parse_log(path.read_text().replace("\n", "\r\n"), path) == log
        with pytest.raises(LogParseError) as info:
            parse_log(b"ts=1 dev=d ipl=UKX udl=UK q=a.x a=10.0.0.1\n", "mem.log")
        assert str(info.value).startswith("mem.log:1: ")

    def test_malformed_region_rejected_with_position(self, tmp_path):
        path = tmp_path / "log"
        path.write_text("ts=1 dev=d ipl=UKX udl=UK q=a.x a=10.0.0.1\n")
        with pytest.raises(LogParseError, match=":1"):
            ingest_log(path)

    def test_out_of_order_sorted_with_flag(self, tmp_path):
        path = tmp_path / "log"
        path.write_text(
            "ts=9 dev=d ipl=UK udl=UK q=a.x a=10.0.0.1\n"
            "ts=1 dev=d ipl=UK udl=UK q=b.x a=10.0.0.2\n"
        )
        log = ingest_log(path)
        assert log.resorted
        assert [r.timestamp for r in log.records] == [1, 9]

    def test_missing_key_rejected(self):
        with pytest.raises(LogParseError, match="missing"):
            parse_capture_line("ts=1 dev=d ipl=UK udl=UK q=a.x")

    def test_bad_timestamp_rejected(self):
        with pytest.raises(LogParseError):
            parse_capture_line("ts=now dev=d ipl=UK udl=UK q=a.x a=10.0.0.1")

    def test_negative_timestamp_rejected_with_position(self):
        with pytest.raises(LogParseError, match="line 3"):
            parse_capture_line("ts=-5 dev=d ipl=UK udl=UK q=a.x a=", where="line 3")

    def test_negative_timestamp_rejected_by_the_constructor(self):
        assert CaptureRecord(0, "d", "UK", "UK", "a.x", ()).timestamp == 0
        with pytest.raises(ValueError, match="^negative timestamp -5$"):
            CaptureRecord(-5, "d", "UK", "UK", "a.x", ())

    def test_bad_address_rejected(self):
        with pytest.raises(LogParseError):
            parse_capture_line("ts=1 dev=d ipl=UK udl=UK q=a.x a=999.1.1.1")

    def test_empty_answer_list_allowed(self):
        record = parse_capture_line("ts=1 dev=d ipl=UK udl=UK q=a.x a=")
        assert record.resolved_ips == ()

    @pytest.mark.parametrize(
        "qname",
        ["", ".", "a..b", "a.b..", pytest.param("x" * 64 + ".com", id="label-64"), "a[1-3].x", "a]b.x"],
    )
    def test_malformed_qname_rejected_with_position(self, tmp_path, qname):
        path = tmp_path / "log"
        path.write_text(
            "ts=1 dev=d ipl=UK udl=UK q=a.x a=10.0.0.1\n"
            f"ts=2 dev=d ipl=UK udl=UK q={qname} a=10.0.0.1\n"
        )
        with pytest.raises(LogParseError, match=":2: bad qname"):
            ingest_log(path)
        with pytest.raises(LogParseError, match="line 7"):
            parse_capture_line(f"ts=2 dev=d ipl=UK udl=UK q={qname} a=", where="line 7")
        with pytest.raises(InvalidName):
            CaptureRecord(2, "d", "UK", "UK", qname, ())

    def test_qname_text_kept(self):
        record = parse_capture_line("ts=1 dev=d ipl=UK udl=UK q=A.X. a=")
        assert record.qname == "a.x"

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "log"
        path.write_text("# header\n\nts=1 dev=d ipl=UK udl=UK q=a.x a=10.0.0.1\n")
        assert len(ingest_log(path)) == 1

    def test_unsorted_direct_construction_rejected(self):
        a = CaptureRecord(9, "d", "UK", "UK", "a.x", ())
        b = CaptureRecord(1, "d", "UK", "UK", "b.x", ())
        with pytest.raises(ValueError):
            CaptureLog((a, b))


def ingest_reference(path) -> CaptureLog:
    """Memo-free ingest: every line through parse_capture_line, then one sort if needed."""
    return reference_log(path.read_text(), path)


def reference_log(text: str, name) -> CaptureLog:
    """`ingest_reference` of a decoded document read from *name*."""
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            records.append(parse_capture_line(stripped, where=f"{name}:{lineno}"))
    try:
        return CaptureLog(tuple(records))
    except ValueError:
        records.sort(key=lambda r: r.timestamp)
        return CaptureLog(tuple(records), resorted=True)


def outcome(ingest, path):
    try:
        log = ingest(path)
    except LogParseError as exc:
        return str(exc)
    return log.records, log.resorted


def capture_lines(rng: random.Random, count: int) -> list[str]:
    """Valid lines over a few hundred distinct values, each value spelled several ways."""
    names = [f"edge{n}.p{k}.vendor.example" for k in range(4) for n in range(1, 40)]
    names += ["api.vendor.example", "time.vendor.example", "a.x"]
    addresses = [f"198.51.100.{n}" for n in range(1, 60)] + ["2001:db8::1", "2001:DB8:0:0::2"]
    spellings = [str, str.upper, lambda q: q + "."]
    lines, ts = [], 1_600_000_000
    for _ in range(count):
        ts += rng.choice([7, 7, 7, 0, -20])  # equal and out-of-order stamps too
        qname = rng.choice(spellings)(rng.choice(names))
        answers = ",".join(rng.sample(addresses, rng.choice([0, 1, 1, 1, 2])))
        ipl, udl = (rng.choice(["US", "UK", "uk", "De"]) for _ in range(2))
        lines.append(f"ts={ts} dev={rng.choice(['cam', 'plug'])} ipl={ipl} udl={udl} q={qname} a={answers}")
    return lines


FAULTS = {
    "bad-qname": lambda line: re.sub(r"q=\S*", "q=a..x", line),
    "bracket-qname": lambda line: re.sub(r"q=\S*", "q=edge[1-3].vendor.example", line),
    "bad-address": lambda line: re.sub(r"a=\S*", "a=198.51.100.1,999.1.1.1", line),
    "bad-ipl": lambda line: re.sub(r"ipl=\S*", "ipl=UKX", line),
    "bad-udl": lambda line: re.sub(r"udl=\S*", "udl=U1", line),
    "negative-ts": lambda line: re.sub(r"ts=\S*", "ts=-5", line),
    "non-integer-ts": lambda line: re.sub(r"ts=\S*", "ts=1.5", line),
    "duplicate-key": lambda line: line + " dev=again",
    "missing-key": lambda line: re.sub(r" a=\S*", "", line),
    "unexpected-key": lambda line: line + " ttl=30",
    "token-without-equals": lambda line: line + " stray",
    "empty-dev": lambda line: re.sub(r"dev=\S*", "dev=", line),
}


SEEN_LINE_LAYOUTS = {
    "documented": lambda line: line,
    "tabs": lambda line: line.replace(" ", "\t"),
    "leading-space": lambda line: " " + line,
    "trailing-space": lambda line: line + " ",
    "both-ends": lambda line: "\t" + line + "\u3000",
}


class TestIngestOnceEachValue:
    """ingest_log reuses each checked raw value; outcomes match a memo-free ingest."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_valid_log_matches_reference(self, tmp_path, seed):
        rng = random.Random(seed)
        lines = capture_lines(rng, 2000)
        for at in range(3, len(lines), 7):
            lines[at] = " ".join(reversed(lines[at].split()))  # outside the layout, read by the token loop
        lines[5:5] = ["ts=1 dev=cam ipl=US udl=UK q=A.X. a=", "ts=2 dev=cam ipl=US udl=UK q=a.x a="]
        path = tmp_path / "log"
        path.write_text("# capture\n" + "\n".join(lines) + "\n")
        records, resorted = outcome(ingest_log, path)
        assert (records, resorted) == outcome(ingest_reference, path)
        assert resorted
        assert {r.qname for r in records if r.qname.endswith(".x")} == {"a.x"}

    @pytest.mark.parametrize("fault", FAULTS)
    def test_single_fault_matches_reference(self, tmp_path, fault):
        rng = random.Random(fault)
        lines = capture_lines(rng, 2000)
        at = rng.randrange(1000, len(lines))  # late, after every value was seen valid
        lines[at] = FAULTS[fault](lines[at])
        path = tmp_path / "log"
        path.write_text("\n".join(lines) + "\n")
        got = outcome(ingest_log, path)
        assert got == outcome(ingest_reference, path)
        assert got.startswith(f"{path}:{at + 1}: ")

    def test_each_distinct_value_checked_once(self, tmp_path, monkeypatch):
        calls = {"pack_address": 0, "region_code": 0, "canonical_name": 0}

        def counting(name):
            real = getattr(traffic, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(traffic, name, wrapper)

        counting("pack_address")
        counting("region_code")
        counting("canonical_name")
        path = tmp_path / "log"
        path.write_text("".join(
            f"ts={i} dev=d ipl=US udl={'UK' if i % 2 else 'US'} q=n{i % 7}.x a=10.0.0.{i % 3}\n"
            for i in range(300)
        ))
        assert len(ingest_log(path)) == 300
        assert calls == {"pack_address": 3, "region_code": 4, "canonical_name": 7}

    def test_each_line_matched_once(self, tmp_path, monkeypatch):
        """One `_ROW_RE` scan reads the document, re-joined by `\\n` if it holds another break; nothing else matches."""
        real_rows, real_line, real_tokens = traffic._ROW_RE, traffic._LINE_RE, traffic._scan_tokens
        scans, matched, scanned = [], [], []

        class CountingRows:
            def findall(self, text):
                scans.append(text)
                return real_rows.findall(text)

        class CountingLine:
            def fullmatch(self, line):
                matched.append(line)
                return real_line.fullmatch(line)

        def tokens(line):
            scanned.append(line)
            return real_tokens(line)

        monkeypatch.setattr(traffic, "_ROW_RE", CountingRows())
        monkeypatch.setattr(traffic, "_LINE_RE", CountingLine())
        monkeypatch.setattr(traffic, "_scan_tokens", tokens)
        layouts = [list(SEEN_LINE_LAYOUTS)[i % len(SEEN_LINE_LAYOUTS)] for i in range(300)]
        lines = [
            SEEN_LINE_LAYOUTS[layout](
                f"ts={i} dev=d{i % 4} ipl=US udl={'UK' if i % 3 else 'uk'} q=n{i % 11}.x a=10.0.0.{i % 7}"
            )
            for i, layout in enumerate(layouts)
        ]
        text = "\n".join(["# capture", "", *lines]) + "\n"
        outside = [line for layout, line in zip(layouts, lines) if layout != "documented"]
        path = tmp_path / "log"
        # a `\u2028`-broken document is scanned as re-joined: no break after the last line
        for doc, rows in [(text, text), (text.replace("\n", "\u2028"), text[:-1])]:
            scans.clear()
            scanned.clear()
            path.write_text(doc)
            assert len(ingest_log(path)) == 300
            assert scans == [rows]
            assert matched == []
            assert scanned == [line.strip() for line in outside]
        scans.clear()
        parse_capture_line(lines[1])
        assert (scans, matched) == ([], [lines[1]])

    @pytest.mark.parametrize("ts", ["7", "+7", "1_000", "\u0663", "-5", "1.5", "now", "",
                                    pytest.param("9" * 5000, id="5000-digits")])
    @pytest.mark.parametrize("layout", SEEN_LINE_LAYOUTS)
    def test_seen_values_new_timestamp_matches_reference(self, tmp_path, ts, layout):
        """A line whose dev/ipl/udl, q and a were all accepted earlier: only ts is new."""
        seen = "ts=2 dev=cam ipl=US udl=uk q=A.X. a=10.0.0.1,2001:DB8::1"
        path = tmp_path / "log"
        path.write_text(seen + "\n" + SEEN_LINE_LAYOUTS[layout](seen.replace("ts=2", f"ts={ts}")) + "\n")
        got = outcome(ingest_log, path)
        assert got == outcome(ingest_reference, path)
        if ts == "-5":
            assert got == f"{path}:2: negative timestamp -5"

    @pytest.mark.parametrize("in_order", [True, False])
    def test_selections_match_direct_construction(self, tmp_path, in_order):
        lines = capture_lines(random.Random(3), 2000)
        if in_order:
            lines.sort(key=lambda line: int(line.split()[0][3:]))
        path = tmp_path / "log"
        path.write_text("\n".join(lines) + "\n")
        log = ingest_log(path)
        assert log.resorted is not in_order
        assert log.selections == CaptureLog(log.records).selections


class TestReplace:
    """`replace` and `_replace` on a parsed log derive the selections again and check the order."""

    TEXT = "ts=1 dev=d ipl=US udl=UK q=a.x a=10.0.0.1\nts=2 dev=d ipl=US udl=UK q=b.x a=10.0.0.2\n"

    def test_fewer_records(self):
        log = parse_log(self.TEXT, "mem.log")
        for shorter in (log.replace(records=log.records[:1]), log._replace(records=log.records[:1])):
            assert shorter.selections == {("d", "US", "UK"): [log.records[0]]}
            assert domain_set(shorter, "d", "US", "UK") == {"a.x"}

    def test_records_out_of_order(self):
        log = parse_log(self.TEXT, "mem.log")
        for replace in (log.replace, log._replace):
            with pytest.raises(ValueError, match="^records must be in non-decreasing timestamp order$"):
                replace(records=log.records[::-1])


# Every separator `str.splitlines` ends a line on; `$` in a regex knows only the first.
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
BREAK_PLACES = {
    # lines 10-19 joined by the break, then a comment and a blank line ended by it
    "between-lines": lambda lines, sep: [
        *lines[:10], sep.join(lines[10:20]) + sep + "# note" + sep + sep, *lines[20:]
    ],
    # lines 10-19 each end in the break before their newline: one more (blank) line each, but for "\r"
    "line-end": lambda lines, sep: [*lines[:10], *(line + sep for line in lines[10:20]), *lines[20:]],
    # line 15 split before its q= token: two pieces, neither a whole line
    "mid-line": lambda lines, sep: [*lines[:15], lines[15].replace(" q=", sep + "q="), *lines[16:]],
}


def full_outcome(parse):
    """Records, resorted and the selections in key order, or the error text."""
    try:
        log = parse()
    except LogParseError as exc:
        return str(exc)
    return log.records, log.resorted, [(key, tuple(picked)) for key, picked in log.selections.items()]


class TestLineBreaks:
    """Each `str.splitlines` break ends a line, as in a memo-free per-line read of the decoded text."""

    @pytest.mark.parametrize("fault", [False, True], ids=["valid", "fault-after"])
    @pytest.mark.parametrize("place", BREAK_PLACES)
    @pytest.mark.parametrize("sep", LINE_BREAKS, ids=ascii)
    @pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
    def test_matches_per_line_reference(self, as_bytes, sep, place, fault):
        lines = capture_lines(random.Random(5), 40)
        lines.sort(key=lambda line: int(line.split()[0][3:]))  # in order: selections keyed as first seen
        if fault:
            lines[30] = FAULTS["negative-ts"](lines[30])  # values all seen: only ts stops the inline record
        text = "\n".join(BREAK_PLACES[place](lines, sep)) + "\n"
        data = text.encode() if as_bytes else text
        decoded = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read() if as_bytes else text
        got = full_outcome(lambda: parse_log(data, "mem.log"))
        assert got == full_outcome(lambda: reference_log(decoded, "mem.log"))
        if place == "mid-line":
            assert got == "mem.log:16: missing keys ['q', 'a']"
        elif fault:
            # "\r" and the newline after it are one break; any other break there ends one more line
            lineno = {"between-lines": (34, 33), "line-end": (41, 31)}[place][sep == "\r"]
            assert got == f"mem.log:{lineno}: negative timestamp -5"
        else:
            assert len(got[0]) == 40

    def test_crlf_text_in_the_layout_needs_no_line_split(self, monkeypatch):
        """Text with `\\r\\n` breaks (bytes have them read as `\\n`) is read from the document scan alone."""
        lines = capture_lines(random.Random(6), 200)
        expected = parse_log("\n".join(lines) + "\n", "mem.log")
        monkeypatch.setattr(traffic, "_LINE_RE", None)  # the per-line path would fail on it
        assert parse_log("\r\n".join(lines), "mem.log") == expected  # no final break: no blank last row

    def test_record_break_inside_a_line(self):
        """A file separator between two records on one newline-ended line: two records."""
        text = "ts=1 dev=d ipl=US udl=UK q=a.x a=10.0.0.1\x1cts=2 dev=d ipl=US udl=UK q=b.x a=10.0.0.2\n"
        for data in (text, text.encode()):
            log = parse_log(data, "mem.log")
            assert [(r.timestamp, r.qname) for r in log.records] == [(1, "a.x"), (2, "b.x")]


# Valid and invalid raw values per key; int() accepts "+7", "1_000" and "\u0663".
LINE_VALUES = {
    "ts": ["1", "0", "+7", "1_000", "\u0663", "-5", "1.5", "now", "", "a=b"],
    "dev": ["d", "cam-1", "", "a=b"],
    "ipl": ["US", "uk", "UKX", "U1", "", "a=b"],
    "udl": ["UK", "de", "U1", "", "a=b"],
    "q": ["a.x", "A.X.", "a..b", "a[1-3].x", "", "a=b"],
    "a": ["", "10.0.0.1", "10.0.0.1,2001:DB8::1", "999.1.1.1", "10.0.0.1,", "a=b"],
}
SEPARATORS = [" ", "  ", "\t", " \t ", "\u3000", "\x1f", "\x85", "\r\n"]


def line_outcome(line):
    try:
        return parse_capture_line(line, where="here")
    except LogParseError as exc:
        return str(exc)


class TestLineLayouts:
    """The one-match route and the token loop read the same lines the same way."""

    @settings(max_examples=300)
    @given(
        st.fixed_dictionaries({key: st.sampled_from(pool) for key, pool in LINE_VALUES.items()}),
        st.one_of(st.just(traffic._LINE_KEYS), st.permutations(traffic._LINE_KEYS)),
        st.one_of(st.just([" "] * 5), st.lists(st.sampled_from(SEPARATORS), min_size=5, max_size=5)),
        st.lists(st.sampled_from(["", *SEPARATORS]), min_size=2, max_size=2),
    )
    def test_any_order_and_whitespace_same_outcome(self, values, order, gaps, ends):
        documented = " ".join(f"{key}={values[key]}" for key in traffic._LINE_KEYS)
        first, *rest = (f"{key}={values[key]}" for key in order)
        shuffled = ends[0] + first + "".join(gap + token for gap, token in zip(gaps, rest)) + ends[1]
        assert line_outcome(shuffled) == line_outcome(documented)

    @pytest.mark.parametrize("line, error", [
        ("ts=1 dev=d ipl=US udl=UK q=a.x", "missing keys ['a']"),
        ("ts=1 dev=d ipl=US udl=UK q=a.x a= dev=e", "duplicate key 'dev'"),
        ("ts=1 dev=d ipl=US udl=UK q=a.x a= ttl=3", "unexpected token 'ttl=3'"),
        ("ts=1 dev=d ipl=US udl=UK q=a.x a= stray", "unexpected token 'stray'"),
    ])
    def test_token_loop_errors_kept(self, line, error):
        assert line_outcome(line) == f"here: {error}"

    def test_documented_layout_never_enters_token_loop(self, monkeypatch):
        def token_loop(line):
            raise AssertionError(f"token loop entered for {line!r}")

        monkeypatch.setattr(traffic, "_scan_tokens", token_loop)
        log = ingest_log(FIXTURES / "captures" / "bulb_10region.log")
        assert len(log) > 0
        with pytest.raises(AssertionError, match="token loop"):
            parse_capture_line("ts=1\tdev=d ipl=US udl=UK q=a.x a=")


class TestDomainSet:

    def test_distinct_names(self):
        log = log_of([
            (1, "d", "UK", "UK", "a.x", ["10.0.0.1"]),
            (2, "d", "UK", "UK", "b.x", ["10.0.0.2"]),
            (3, "d", "UK", "UK", "a.x", ["10.0.0.3"]),
        ])
        assert set(domain_set(log, "d", "UK", "UK")) == {"a.x", "b.x"}

    def test_yi_fixture_sets_are_disjoint(self):
        log = ingest_log(FIXTURES / "captures" / "yi_camera.log")
        hk = domain_set(log, "yi-cam", "US", "HK")
        uk = domain_set(log, "yi-cam", "US", "UK")
        assert set(hk) == {"api.xiaoyi.com.tw"}
        assert set(uk) == {"api.eu.xiaoyi.com"}

    def test_unknown_device(self):
        log = log_of([(1, "d", "UK", "UK", "a.x", [])])
        with pytest.raises(UnknownDevice):
            domain_set(log, "ghost", "UK", "UK")


class TestStabilization:

    def test_last_first_occurrence(self):
        log = log_of([
            (10, "d", "UK", "UK", "a.x", []),
            (50, "d", "UK", "UK", "b.x", []),
            (60, "d", "UK", "UK", "a.x", []),
            (3600, "d", "UK", "UK", "c.x", []),
            (9999, "d", "UK", "UK", "a.x", []),
        ])
        assert stabilization_time(log, "d", "UK", "UK") == 3600
        assert stabilization_oracle(log.records) == 3600

    def test_single_record(self):
        log = log_of([(7, "d", "UK", "UK", "a.x", [])])
        assert stabilization_time(log, "d", "UK", "UK") == 7

    def test_empty_selection_absent(self):
        log = log_of([(7, "d", "UK", "UK", "a.x", [])])
        assert stabilization_time(log, "d", "UK", "US") is None

    def test_matches_prefix_scan_oracle_on_random_logs(self):
        rng = random.Random(23)
        names = [f"n{i}.x" for i in range(8)]
        for _ in range(100):
            rows = [
                (rng.randint(0, 1000), "d", "UK", "UK", rng.choice(names), [])
                for _ in range(rng.randint(1, 30))
            ]
            log = log_of(rows)
            assert stabilization_time(log, "d", "UK", "UK") == stabilization_oracle(log.records)


class TestJaccard:

    def test_half_overlap(self):
        a, b = {"a", "b", "c"}, {"b", "c", "d"}
        assert jaccard(a, b) == jaccard_oracle(a, b) == Fraction(1, 2)

    def test_identical_sets(self):
        assert jaccard({"a", "b"}, {"a", "b"}) == 1

    def test_disjoint_sets(self):
        assert jaccard({"a"}, {"b"}) == 0

    def test_both_empty(self):
        assert jaccard(set(), set()) == 1

    def test_empty_vs_nonempty(self):
        assert jaccard(set(), {"a"}) == 0

    @given(st.sets(st.sampled_from("abcdef")), st.sets(st.sampled_from("abcdef")))
    def test_symmetry_and_range(self, a, b):
        value = jaccard(a, b)
        assert value == jaccard(b, a) == jaccard_oracle(a, b)
        assert 0 <= value <= 1


class TestUdsIpbs:

    def test_yi_fixture_uds_zero(self):
        log = ingest_log(FIXTURES / "captures" / "yi_camera.log")
        assert uds(log, "yi-cam", "US", "HK", "UK") == 0

    def test_same_location_is_one(self):
        log = ingest_log(FIXTURES / "captures" / "yi_camera.log")
        assert uds(log, "yi-cam", "US", "HK", "HK") == 1

    def test_shared_plus_distinct_is_third(self):
        log = log_of([
            (1, "d", "UK", "HK", "shared.x", []),
            (2, "d", "UK", "HK", "hk.x", []),
            (3, "d", "UK", "US", "shared.x", []),
            (4, "d", "UK", "US", "us.x", []),
        ])
        assert uds(log, "d", "UK", "HK", "US") == Fraction(1, 3)

    def test_uds_equals_raw_set_jaccard(self):
        log = ingest_log(FIXTURES / "captures" / "yi_camera.log")
        raw_hk = {r.qname for r in log.records if r.user_defined_location == "HK"}
        raw_uk = {r.qname for r in log.records if r.user_defined_location == "UK"}
        assert uds(log, "yi-cam", "US", "HK", "UK") == jaccard_oracle(raw_hk, raw_uk)

    def test_ipbs_identical_when_ip_change_is_invisible(self):
        log = log_of([
            (1, "d", "UK", "HK", "svc.x", []),
            (2, "d", "US", "HK", "svc.x", []),
        ])
        assert ipbs(log, "d", "HK", "UK", "US") == 1

    def test_ipbs_disjoint(self):
        log = log_of([
            (1, "d", "UK", "HK", "a.x", []),
            (2, "d", "US", "HK", "b.x", []),
        ])
        assert ipbs(log, "d", "HK", "UK", "US") == 0

    def test_ipbs_same_ip_location_is_one(self):
        log = log_of([(1, "d", "UK", "HK", "a.x", [])])
        assert ipbs(log, "d", "HK", "UK", "UK") == 1

    def test_empty_selection_names_the_pair(self):
        log = log_of([(1, "d", "UK", "HK", "a.x", [])])
        with pytest.raises(EmptySelection, match=r"\(UK, US\)"):
            uds(log, "d", "UK", "HK", "US")


class TestCollapsePools:

    def test_numeric_siblings_fold(self):
        names = {
            "czfe10.front01.iad01.production.nest.com",
            "czfe11.front01.iad01.production.nest.com",
            "czfe12.front01.iad01.production.nest.com",
        }
        assert set(collapse_pools(names, 3)) == {"czfe[10-12].front01.iad01.production.nest.com"}

    def test_no_numeric_variation_passes_through(self):
        assert set(collapse_pools({"a.x", "b.x"}, 3)) == {"a.x", "b.x"}

    def test_below_threshold_passes_through(self):
        assert set(collapse_pools({"s1.x", "s2.x"}, 3)) == {"s1.x", "s2.x"}

    def test_idempotent(self):
        names = {f"s{i}.pool.example" for i in range(1, 6)} | {"api.example"}
        once = collapse_pools(names, 3)
        twice = collapse_pools(once, 3)
        assert once == twice

    def test_covered_name_count_preserved(self):
        # contiguous run: the folded pattern spans exactly the input names
        names = {f"s{i}.x" for i in range(4, 9)}
        collapsed = collapse_pools(names, 3)
        (member,) = collapsed
        assert member == "s[4-8].x"
        lo, hi = 4, 8
        assert hi - lo + 1 == len(names)

    def test_middle_label_folds(self):
        names = {f"api.shard{i}.example.net" for i in (1, 2, 3)}
        assert set(collapse_pools(names, 3)) == {"api.shard[1-3].example.net"}

    @settings(max_examples=100, deadline=None)
    @given(st.sets(st.sampled_from([f"h{i}.x" for i in range(12)] + ["a.x", "b.y"]), max_size=14))
    def test_idempotence_property(self, names):
        once = collapse_pools(names, 3)
        assert collapse_pools(once, 3) == once

    def test_no_member_covered_by_another_members_pattern(self):
        rng = random.Random(31)
        patterns = 0
        for _ in range(300):
            names = set()
            for _ in range(rng.randint(0, 60)):
                labels = [rng.choice(["s", "eu"]) for _ in range(rng.randint(1, 3))]
                for i in rng.sample(range(len(labels)), rng.randint(0, len(labels))):
                    labels[i] += rng.choice(["", "0"]) + str(rng.randint(0, 6))
                names.add(".".join(labels))
            out = collapse_pools(names, rng.randint(2, 4))
            for member in out:
                assert not any(p != member and covers_oracle(p, member) for p in out), (member, out)
            for name in names:
                assert name in out or any(covers_oracle(p, name) for p in out), (name, out)
            patterns += sum("[" in m for m in out)
        assert patterns > 300


def _collapse_seconds(names):
    start = time.perf_counter()
    collapse_pools(names, 3)
    return time.perf_counter() - start


def test_collapse_cost_does_not_grow_with_pools():
    # timing ratio, not absolute time: best of interleaved repeats, so a
    # host slowdown hits both sides alike; 3000 names either way, and only
    # the first label is numbered, so each p<i>x suffix is one pool
    inputs = {}
    for pools in (10, 1000):
        inputs[pools] = [f"n{j}.p{i}x.example" for i in range(pools) for j in range(3000 // pools)]
        assert len(collapse_pools(inputs[pools], 3)) == pools
    best = {pools: float("inf") for pools in inputs}
    for _ in range(5):
        for pools, names in inputs.items():
            best[pools] = min(best[pools], _collapse_seconds(names))
    assert best[1000] <= 3 * best[10], f"1000 pools {best[1000]:.6f}s vs 10 pools {best[10]:.6f}s"


def cumulative_oracle(records, bucket_seconds):
    """For each bucket end, the distinct qnames and IPs of the records before it."""
    if not records:
        return []
    first = min(r.timestamp for r in records)
    last = max(r.timestamp for r in records)
    ends = [first + k * bucket_seconds for k in range(1, (last - first) // bucket_seconds + 2)]
    return [
        (
            end,
            len({r.qname for r in records if r.timestamp < end}),
            len({ip for r in records if r.timestamp < end for ip in r.resolved_ips}),
        )
        for end in ends
    ]


class TestCumulative:

    @settings(max_examples=300)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 40),  # few values, so timestamps repeat
                st.sampled_from(["UK", "US"]),
                st.sampled_from(["a.x", "b.x", "c.y", "d.y"]),
                st.lists(st.sampled_from([f"10.0.0.{i}" for i in range(6)]), max_size=3),
            ),
            min_size=1,
            max_size=30,
        ),
        st.integers(1, 6),
    )
    def test_matches_brute_force(self, rows, bucket_seconds):
        log = log_of([(ts, "d", "UK", udl, qname, ips) for ts, udl, qname, ips in rows])
        picked = [r for r in log.records if r.user_defined_location == "UK"]
        assert cumulative_counts(log, "d", "UK", "UK", bucket_seconds) == cumulative_oracle(picked, bucket_seconds)

    def test_daily_fixture_shape(self):
        log = ingest_log(FIXTURES / "captures" / "echo_daily.log")
        series = cumulative_counts(log, "echo", "UK", "UK", 86400)
        assert [point[1] for point in series] == [1] * 10
        assert [point[2] for point in series] == list(range(1, 11))

    def test_empty_selection(self):
        log = log_of([(1, "d", "UK", "UK", "a.x", [])])
        assert cumulative_counts(log, "d", "UK", "US", 60) == []

    def test_single_record_single_point(self):
        log = log_of([(5, "d", "UK", "UK", "a.x", ["10.0.0.1", "10.0.0.2"])])
        assert cumulative_counts(log, "d", "UK", "UK", 60) == [(65, 1, 2)]

    def test_series_monotone_and_final_matches_domain_set(self):
        rng = random.Random(3)
        rows = [
            (rng.randint(0, 500), "d", "UK", "UK", rng.choice(["a.x", "b.x", "c.x"]),
             [f"10.0.0.{rng.randint(1, 9)}"])
            for _ in range(40)
        ]
        log = log_of(rows)
        series = cumulative_counts(log, "d", "UK", "UK", 50)
        for (_, d1, i1), (_, d2, i2) in zip(series, series[1:]):
            assert d1 <= d2 and i1 <= i2
        assert series[-1][1] == len(domain_set(log, "d", "UK", "UK"))

    def test_bad_bucket(self):
        log = log_of([(1, "d", "UK", "UK", "a.x", [])])
        with pytest.raises(ValueError):
            cumulative_counts(log, "d", "UK", "UK", 0)


class TestSimilarityMatrix:

    def test_two_disjoint_regions(self):
        log = log_of([
            (1, "d", "US", "HK", "hk.x", []),
            (2, "d", "US", "UK", "uk.x", []),
        ])
        assert similarity_matrix(log, "d", "US", ["HK", "UK"]) == [[1, 0], [0, 1]]

    def test_all_shared(self):
        log = log_of([
            (1, "d", "US", "HK", "svc.x", []),
            (2, "d", "US", "UK", "svc.x", []),
        ])
        assert similarity_matrix(log, "d", "US", ["HK", "UK"]) == [[1, 1], [1, 1]]

    def test_two_registrations_one_backend_region(self):
        log = log_of([
            (1, "d", "US", "DE", "eu.svc.x", []),
            (2, "d", "US", "FR", "eu.svc.x", []),
            (3, "d", "US", "HK", "asia.svc.x", []),
        ])
        matrix = similarity_matrix(log, "d", "US", ["DE", "FR", "HK"])
        assert matrix[0] == matrix[1]  # DE and FR map to the same region
        assert matrix[0][2] == 0

    def test_symmetric_unit_diagonal(self):
        log = ingest_log(FIXTURES / "captures" / "bulb_10region.log")
        regions = ["AQ", "AR", "AU", "BR", "ES"]
        matrix = similarity_matrix(log, "bulb01", "US", regions)
        for i in range(len(regions)):
            assert matrix[i][i] == 1
            for j in range(len(regions)):
                assert matrix[i][j] == matrix[j][i]

    def test_missing_region_reported(self):
        log = log_of([(1, "d", "US", "HK", "a.x", [])])
        with pytest.raises(EmptySelection, match="UK"):
            similarity_matrix(log, "d", "US", ["HK", "UK"])
