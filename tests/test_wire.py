"""Wire codec tests; the byte-level expectations come from the independent
reference encoders in helpers, not from the code under test."""

import dataclasses
import functools
import importlib
import ipaddress
import pkgutil
import random
import re
import struct
import sys
import threading

import pytest
from helpers import (
    FIXTURES,
    make_response,
    rand_ecs,
    rand_message,
    rand_name,
    rand_v4,
    rand_v6,
    record_for_address,
    reference_ecs_rdata,
    reference_message,
    reference_name,
    reference_truncate,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import ecsloc
from ecsloc import resolver, wire
from ecsloc.wire import (
    MAX_TTL,
    QTYPE_A,
    QTYPE_AAAA,
    DnsMessage,
    EcsOption,
    EdnsOpt,
    InvalidEcs,
    InvalidName,
    Malformed,
    Question,
    ResourceRecord,
    Truncated,
    UnsupportedType,
    WireError,
    address_text,
    canonical_name,
    decode_message,
    encode_message,
    make_query,
    pack_address,
    truncate_to_prefix,
)
from ecsloc.transport import InProcessLink
from ecsloc.wire import _encode_ecs_rdata
from ecsloc.zone import GeoZone


class TestTruncateToPrefix:

    def test_forwarding_experiment_prefix(self):
        # /24 of 111.111.111.x is the three octets 6F 6F 6F.
        assert truncate_to_prefix("111.111.111.7", 24) == bytes.fromhex("6f6f6f")
        assert truncate_to_prefix("111.111.111.7", 24) == reference_truncate("111.111.111.7", 24)

    def test_zero_prefix_is_empty(self):
        assert truncate_to_prefix("10.20.30.40", 0) == b""

    def test_partial_byte_masking(self):
        assert truncate_to_prefix("203.0.113.129", 25) == bytes.fromhex("cb007180")
        assert truncate_to_prefix("203.0.113.129", 25) == reference_truncate("203.0.113.129", 25)

    def test_accepts_packed_bytes(self):
        assert truncate_to_prefix(bytes([111, 111, 111, 7]), 24) == b"ooo"

    def test_out_of_range_prefix(self):
        with pytest.raises(ValueError):
            truncate_to_prefix("10.0.0.1", 33)

    @pytest.mark.parametrize("octets", [0, 3, 5, 15, 17])
    def test_packed_address_of_a_wrong_length_rejected(self, octets):
        message = f"^packed address must be 4 or 16 octets, got {octets}$"
        with pytest.raises(ValueError, match=message):
            truncate_to_prefix(bytes(octets), 0)
        with pytest.raises(ValueError, match=message):
            EcsOption.for_prefix(bytearray(octets), 0)

    @given(st.integers(0, 0xFFFFFFFF), st.integers(0, 32))
    def test_matches_bitmask_oracle(self, value, prefix_len):
        address = ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))
        got = truncate_to_prefix(address, prefix_len)
        assert got == reference_truncate(address, prefix_len)
        # every bit past the prefix is zero
        padded = int.from_bytes(got + b"\x00" * (4 - len(got)), "big")
        kept = (((1 << prefix_len) - 1) << (32 - prefix_len)) if prefix_len else 0
        assert padded & ~kept == 0


ADDRESS_EDGE_CASES = [
    "0.0.0.0", "255.255.255.255", "256.1.1.1", "1.2.3", "1.2.3.4.", "1.2.3.4.5",
    "01.2.3.4", "1.2.3.04", "00.0.0.0", "0x1.2.3.4",
    "::", "::1", "2001:DB8::1", "2001:db8::ABCD", "0001:0db8::0001", "00001::",
    "1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7::", "::2:3:4:5:6:7:8", "1:2:3:4:5:6:7::8",
    "1::2::3", ":1::", "1:2:3:4:5:6:7:8:9", "::g",
    "::ffff:1.2.3.4", "::FFFF:1.2.3.4", "::ffff:01.2.3.4", "::1.2.3.4", "1:2:3:4:5:6:1.2.3.4",
    "1.2.3.4::", "fe80::1%eth0", "fe80::1%1", "fe80::1%", "fe80::1%a%b", "1.2.3.4%eth0",
    "", " ", " 1.2.3.4", "1.2.3.4 ", "1.2.3.4\n", "\t::1", "::1 ", "1.2.3.4\x00", "\u0661.2.3.4",
]


def _rand_address_text(rng: random.Random) -> str:
    """Address-like text: valid v4/v6 forms, their spelling variants, and near misses."""
    roll = rng.random()
    if roll < 0.3:
        octets = rand_v4(rng).split(".")
        if rng.random() < 0.2:
            octets[rng.randrange(4)] = "0" + str(rng.randint(0, 99))
        text = ".".join(octets)
    elif roll < 0.8:
        groups = rand_v6(rng).split(":")
        if rng.random() < 0.3:
            groups[-2:] = [rand_v4(rng)]
        if rng.random() < 0.5:
            lo = rng.randint(0, len(groups))
            hi = rng.randint(lo, len(groups))
            text = ":".join(groups[:lo]) + "::" + ":".join(groups[hi:])
        else:
            text = ":".join(g.zfill(rng.randint(1, 5)) for g in groups)
        if rng.random() < 0.3:
            text = text.upper()
        if rng.random() < 0.1:
            text += "%" + rng.choice(("eth0", "1", ""))
    else:
        text = "".join(rng.choice("0123456789abcdefABCDEF:.%g \t") for _ in range(rng.randint(0, 20)))
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice("0:.%f ") + text[at + rng.randint(0, 1):]
    return text


class TestAddressRule:

    def test_pack_address_against_ipaddress(self):
        """Every accepted text packs as ipaddress packs it; only zone ids are refused beyond it."""
        rng = random.Random(61)
        inputs = ADDRESS_EDGE_CASES + [_rand_address_text(rng) for _ in range(20000)]
        accepted = zone_ids = 0
        for text in inputs:
            try:
                expected = ipaddress.ip_address(text).packed
            except ValueError:
                expected = None
            try:
                got = pack_address(text)
            except ValueError as exc:
                assert str(exc) == f"{text!r} does not appear to be an IPv4 or IPv6 address"
                if expected is not None:
                    assert "%" in text, text
                    zone_ids += 1
                continue
            assert got == expected, text
            accepted += 1
        assert accepted > 4000 and zone_ids > 100

    @pytest.mark.parametrize("value", [16909060, None, b"1.2.3.4", ["1.2.3.4"]])
    def test_non_text_rejected(self, value):
        with pytest.raises(ValueError, match="does not appear to be an IPv4 or IPv6 address"):
            pack_address(value)

    @pytest.mark.parametrize("text", ["1.2.3.4", "2001:db8::1", "::ffff:1.2.3.4", "::1.2.3.4"])
    def test_rendering_is_pinned(self, text):
        """inet_ntop's form on every Python; ipaddress renders ::ffff:1.2.3.4 by version."""
        rdata = pack_address(text)
        rtype, family = (QTYPE_A, 1) if len(rdata) == 4 else (QTYPE_AAAA, 2)
        assert address_text(rdata) == text
        assert ResourceRecord("a.t", rtype, 0, rdata).address() == text
        assert EcsOption(family, 8 * len(rdata), 0, rdata).address_str() == text


class TestEcsOption:

    def test_forwarding_experiment_rdata(self):
        # 00 01 18 00 6F 6F 6F: family 1, source /24, scope 0, three address octets
        frozen = bytes.fromhex("000118006f6f6f")
        assert reference_ecs_rdata(1, 24, 0, "111.111.111.0") == frozen
        option = EcsOption.for_prefix("111.111.111.0", 24)
        assert _encode_ecs_rdata(option) == frozen

    def test_zero_prefix_rdata(self):
        option = EcsOption(family=1, source_prefix_len=0)
        assert _encode_ecs_rdata(option) == bytes.fromhex("00010000")

    def test_rejects_inconsistent_address_length(self):
        with pytest.raises(InvalidEcs):
            EcsOption(family=1, source_prefix_len=24, address=b"\x6f\x6f")

    def test_rejects_trailing_bits(self):
        with pytest.raises(InvalidEcs):
            EcsOption(family=1, source_prefix_len=23, address=b"\x6f\x6f\x6f")

    def test_rejects_bad_family(self):
        with pytest.raises(InvalidEcs):
            EcsOption(family=3, source_prefix_len=0)

    def test_padded_address(self):
        option = EcsOption.for_prefix("111.111.111.0", 24)
        assert option.padded_address() == bytes([111, 111, 111, 0])
        assert option.address_str() == "111.111.111.0"

    @given(st.integers(0, 0xFFFFFFFF), st.integers(0, 32))
    def test_rdata_matches_reference_encoder(self, value, prefix_len):
        address = ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))
        option = EcsOption.for_prefix(address, prefix_len)
        assert _encode_ecs_rdata(option) == reference_ecs_rdata(1, prefix_len, 0, address)

    @pytest.mark.parametrize(
        "address",
        ["fe80::1%eth0", "fe80::1%1", pytest.param(ipaddress.ip_address("fe80::1%eth0"), id="ipaddress-object")],
    )
    @pytest.mark.parametrize("build", [EcsOption.for_prefix, truncate_to_prefix])
    def test_zone_id_rejected_by_the_address_rule(self, build, address):
        with pytest.raises(ValueError) as info:
            build(address, 64)
        assert str(info.value) == f"{str(address)!r} does not appear to be an IPv4 or IPv6 address"

    def test_for_prefix_against_ipaddress_networks(self):
        """Guard: text, ipaddress objects and packed octets give the option of ip_network((a, n))."""
        rng = random.Random(77)
        for _ in range(4000):
            text = rand_v4(rng) if rng.random() < 0.6 else rand_v6(rng)
            ip = ipaddress.ip_address(text)
            prefix_len = rng.randint(0, ip.max_prefixlen)
            network = ipaddress.ip_network((text, prefix_len), strict=False)
            expected = EcsOption(
                family=1 if network.version == 4 else 2,
                source_prefix_len=prefix_len,
                address=network.network_address.packed[: (prefix_len + 7) // 8],
            )
            for address in (text, ip, ip.packed):
                assert EcsOption.for_prefix(address, prefix_len) == expected, (address, prefix_len)
                assert truncate_to_prefix(address, prefix_len) == expected.address


NAME_254 = ".".join(["a" * 63] * 3 + ["a" * 62])


class TestValidation:

    def test_label_too_long(self):
        with pytest.raises(InvalidName):
            Question("a" * 64 + ".com")

    def test_name_too_long(self):
        name = ".".join(["a" * 60] * 5)
        with pytest.raises(InvalidName):
            Question(name)

    @pytest.mark.parametrize(
        "name, message",
        [
            ("", "empty domain name"),
            (".", "empty domain name"),
            ("a..b", "empty label in 'a..b'"),
            ("a" * 64 + ".com", f"label longer than 63 octets: {'a' * 64!r}"),
            pytest.param(NAME_254, f"name longer than 253 octets: {NAME_254!r}", id="254-octets"),
            ("a b.com", "whitespace in label: 'a b'"),
            ("a\tb.com", "whitespace in label: 'a\\tb'"),
            ("a\x1cb.com", "whitespace in label: 'a\\x1cb'"),
            ("a\x00b.example", "control octet in label: 'a\\x00b'"),
            ("a\x1bb.com", "control octet in label: 'a\\x1bb'"),
            ("x.a\x7fb", "control octet in label: 'a\\x7fb'"),
            ("\u00e4.com", "non-ASCII name: '\u00e4.com'"),
        ],
    )
    def test_invalid_name_message(self, name, message):
        for _ in range(2):  # a failed check is not memoized: the same text both times
            with pytest.raises(InvalidName) as info:
                Question(name)
            assert str(info.value) == message

    @pytest.mark.parametrize("name", [5, None, b"a.b", ["a.b"]])
    def test_non_text_name_rejected(self, name):
        with pytest.raises(InvalidName) as info:
            canonical_name(name)
        assert str(info.value) == f"name must be text, got {name!r}"

    def test_name_memo_is_bounded(self):
        memo = wire._canonical_text
        for n in range(memo.cache_info().maxsize + 500):
            assert canonical_name(f"Host{n}.Example.") == f"host{n}.example"
        info = memo.cache_info()
        assert info.maxsize == 4096
        assert info.currsize <= info.maxsize

    def test_qname_case_normalized(self):
        assert Question("API.Example.IOT.").qname == "api.example.iot"

    def test_unsupported_qtype(self):
        with pytest.raises(UnsupportedType):
            Question("example.com", qtype=16)

    def test_rdata_length_checked(self):
        with pytest.raises(ValueError):
            ResourceRecord("example.com", QTYPE_A, 300, b"\x01\x02")
        with pytest.raises(ValueError):
            ResourceRecord("example.com", QTYPE_AAAA, 300, b"\x01" * 4)

    @pytest.mark.parametrize("ttl", [-1, MAX_TTL + 1])
    def test_ttl_range_checked(self, ttl):
        with pytest.raises(ValueError, match=f"^ttl {ttl} out of range$"):
            ResourceRecord("example.com", QTYPE_A, ttl, b"\x01" * 4)

    def test_max_ttl_builds(self):
        assert ResourceRecord("example.com", QTYPE_A, MAX_TTL, b"\x01" * 4).ttl == MAX_TTL

    def test_query_cannot_carry_answers(self):
        rr = record_for_address("example.com", "10.0.0.1", 300)
        with pytest.raises(ValueError):
            DnsMessage(
                id=1, is_response=False, recursion_desired=True,
                recursion_available=False, rcode=0,
                question=Question("example.com"), answers=(rr,),
            )

    def test_query_scope_must_be_zero(self):
        ecs = EcsOption(family=1, source_prefix_len=0, scope_prefix_len=8)
        with pytest.raises(ValueError):
            make_query("example.com", ecs=ecs)

    @pytest.mark.parametrize("field, value, message", [
        ("id", -1, "message id -1 out of range"),
        ("id", 0x10000, "message id 65536 out of range"),
        ("rcode", -1, "rcode -1 out of range"),
        ("rcode", 16, "rcode 16 out of range"),
    ])
    def test_header_fields_range_checked(self, field, value, message):
        query = make_query("example.com", msg_id=0xFFFF)
        assert query.replace(rcode=15).rcode == 15
        with pytest.raises(ValueError, match=f"^{message}$"):
            query.replace(**{field: value})


class TestRoundtrip:

    def test_plain_query(self):
        query = make_query("example.com")
        assert decode_message(encode_message(query)) == query

    def test_query_with_ecs(self):
        query = make_query("api.example.iot", ecs=EcsOption.for_prefix("198.18.1.0", 24), msg_id=77)
        assert decode_message(encode_message(query)) == query

    def test_response_with_answers_and_scope(self):
        query = make_query("api.example.iot", ecs=EcsOption.for_prefix("198.18.1.0", 24))
        answers = (
            record_for_address("api.example.iot", "203.0.113.10", 300),
            record_for_address("api.example.iot", "2001:db8::10", 300),
        )
        response = make_response(
            query, answers, ecs=EcsOption.for_prefix("198.18.1.0", 24, scope_prefix_len=24)
        )
        assert decode_message(encode_message(response)) == response

    def test_encoding_deterministic(self):
        query = make_query("api.example.iot", ecs=EcsOption.for_prefix("198.18.1.0", 24))
        assert encode_message(query) == encode_message(query)

    def test_randomized_roundtrips(self):
        rng = random.Random(20240229)
        for _ in range(300):
            msg = rand_message(rng)
            assert decode_message(encode_message(msg)) == msg

    def test_answer_named_apart_from_question(self):
        # the question's name octets are reused only for an answer of the same name
        response = make_response(
            make_query("q.example", msg_id=5),
            (record_for_address("q.example", "203.0.113.10", 300), record_for_address("other.example", "203.0.113.11", 60)),
        )
        wire = (
            struct.pack("!HHHHHH", 5, 0x8180, 1, 2, 0, 0)
            + b"\x01q\x07example\x00" + struct.pack("!HH", QTYPE_A, 1)
            + b"\x01q\x07example\x00" + struct.pack("!HHIH", QTYPE_A, 1, 300, 4) + bytes([203, 0, 113, 10])
            + b"\x05other\x07example\x00" + struct.pack("!HHIH", QTYPE_A, 1, 60, 4) + bytes([203, 0, 113, 11])
        )
        assert encode_message(response) == wire
        assert decode_message(wire) == response

    def test_reference_message_is_pinned(self):
        response = make_response(
            make_query("q.example", msg_id=5, ecs=EcsOption.for_prefix("198.18.1.0", 24)),
            (record_for_address("q.example", "203.0.113.10", 300),),
            ecs=EcsOption.for_prefix("198.18.1.0", 24, scope_prefix_len=16),
        )
        wire = (
            struct.pack("!HHHHHH", 5, 0x8180, 1, 1, 0, 1)
            + b"\x01q\x07example\x00" + struct.pack("!HH", QTYPE_A, 1)
            + b"\x01q\x07example\x00" + struct.pack("!HHIH", QTYPE_A, 1, 300, 4) + bytes([203, 0, 113, 10])
            + b"\x00" + struct.pack("!HHIH", 41, 1232, 0, 11) + bytes.fromhex("0008" "0007" "0001" "18" "10" "c61201")
        )
        assert reference_message(response) == wire

    @pytest.mark.parametrize(
        "msg",
        [
            make_response(
                make_query("api.example.iot", msg_id=1, ecs=EcsOption.for_prefix("198.18.1.7", 24)),
                (record_for_address("api.example.iot", "203.0.113.10", 60),),
                ecs=EcsOption.for_prefix("198.18.1.7", 24, scope_prefix_len=20),
            ),
            make_response(
                make_query("api.example.iot", QTYPE_AAAA, msg_id=2, ecs=EcsOption.for_prefix("2001:db8:1::7", 56)),
                (record_for_address("api.example.iot", "2001:db8::10", 0xFFFFFFFF),),
                ecs=EcsOption.for_prefix("2001:db8:1::7", 56, scope_prefix_len=48),
            ),
            make_query("Example.COM.", msg_id=0xFFFF).replace(edns=EdnsOpt(udp_payload_size=4096)),
            make_query("example.com", msg_id=3),
            make_response(
                make_query("q.example", msg_id=4, ecs=EcsOption(family=1, source_prefix_len=0)),
                (
                    record_for_address("q.example", "203.0.113.10", 300),
                    record_for_address("other.example", "2001:db8::1", 9),
                ),
                ecs=EcsOption(family=1, source_prefix_len=0, scope_prefix_len=0),
            ),
            make_response(make_query("missing.example", msg_id=6), rcode=3),
            make_response(make_query("broken.example", msg_id=7).replace(edns=EdnsOpt(512)), rcode=2),
        ],
        ids=["v4-scope", "v6-scope", "edns-no-option", "no-edns", "answer-named-apart", "nxdomain", "servfail-edns"],
    )
    def test_encoding_matches_reference(self, msg):
        assert encode_message(msg) == reference_message(msg)
        assert encode_message(msg) == reference_message(msg)  # again, from the encoder memos

    def test_randomized_encodings_match_reference(self):
        rng = random.Random(2424)
        messages = [rand_message(rng) for _ in range(2000)]
        for msg in messages + messages:  # the second pass reads the encoder memos
            assert encode_message(msg) == reference_message(msg)

    def test_packed_parts_match_reference(self):
        # a reply from its answer section at one TTL, and a query, each packed without a DnsMessage
        rng = random.Random(2525)
        for _ in range(1000):
            edns = rng.choice((None, EdnsOpt(rng.randint(512, 4096), rng.choice((None, rand_ecs(rng))))))
            question = Question(rand_name(rng), rng.choice((QTYPE_A, QTYPE_AAAA)))
            query = DnsMessage(rng.randrange(0x10000), False, rng.random() < 0.8, False, 0, question, (), edns)
            answers = rand_message(rng).answers
            ttl = rng.choice((0, 1, 300, 0xFFFFFFFF))
            rcode = rng.choice((0, 0, 2, 3))
            echo = rng.choice((None, rand_ecs(rng, scope_allowed=True)))
            ecs, scope = (None, rng.randint(0, 128)) if echo is None else (echo.with_scope(0), echo.scope_prefix_len)
            segments = wire.answer_segments(question.qname, [rr.rdata for rr in answers])
            parts = (segments, ttl) if answers or rng.random() < 0.5 else ()  # no records: the default too
            answers = tuple(rr.replace(name=question.qname, ttl=ttl) for rr in answers)
            reply = make_response(query, answers, rcode=rcode, ecs=echo)
            msg_id = query.id.to_bytes(2, "big")
            assert wire.pack_reply(msg_id, query.replace(id=0), ecs, scope, *parts, rcode=rcode) == reference_message(reply)
            ecs = rng.choice((None, rand_ecs(rng)))
            packed = wire.pack_query(query.id, query.question, ecs)
            assert packed == reference_message(make_query(query.question.qname, query.question.qtype, msg_id=query.id, ecs=ecs))

    def test_values_frozen_and_hashable(self):
        def build():
            ecs = EcsOption.for_prefix("198.18.1.0", 24, scope_prefix_len=24)
            question = Question("api.example.iot")
            record = record_for_address("api.example.iot", "203.0.113.10", 300)
            edns = EdnsOpt(ecs=ecs)
            message = DnsMessage(7, True, True, True, 0, question, (record,), edns)
            return ecs, question, record, edns, message

        for value, twin in zip(build(), build()):
            assert value == twin and value is not twin
            assert hash(value) == hash(twin)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, value._fields[0], None)


class TestDecodeErrors:

    def test_empty_buffer(self):
        with pytest.raises(Truncated):
            decode_message(b"")

    def test_mid_name_truncation(self):
        wire = encode_message(make_query("example.com"))
        with pytest.raises(Truncated):
            decode_message(wire[:14])

    def test_trailing_garbage(self):
        wire = encode_message(make_query("example.com"))
        with pytest.raises(Malformed):
            decode_message(wire + b"\x00")

    def test_flipped_trailing_ecs_bit(self):
        # valid /23 option, then set a bit past the prefix inside the wire bytes
        option = EcsOption.for_prefix("111.111.110.0", 23)
        wire = bytearray(encode_message(make_query("example.com", ecs=option)))
        assert wire[-1] == 0x6E
        wire[-1] |= 0x01
        with pytest.raises(Malformed):
            decode_message(bytes(wire))

    def test_bad_ecs_option_length(self):
        option = EcsOption.for_prefix("111.111.111.0", 24)
        wire = bytearray(encode_message(make_query("example.com", ecs=option)))
        # shrink SOURCE PREFIX-LENGTH so the address is longer than declared
        idx = wire.rindex(bytes.fromhex("000118"))
        wire[idx + 2] = 16
        with pytest.raises(Malformed):
            decode_message(bytes(wire))

    @pytest.mark.parametrize(
        "rdata",
        [
            bytes.fromhex("00031800" "6f6f6f"),  # family 3
            bytes.fromhex("00012100" "6f6f6f6f00"),  # source /33 on IPv4
            bytes.fromhex("00011000" "6f6f6f"),  # address longer than /16 needs
            bytes.fromhex("00011700" "6f6f6f"),  # bit set past /23
        ],
    )
    def test_inconsistent_ecs_option(self, rdata):
        wire = bytearray(encode_message(make_query("example.com").replace(edns=EdnsOpt())))
        assert wire[-2:] == b"\x00\x00"  # empty OPT rdata
        option = (8).to_bytes(2, "big") + len(rdata).to_bytes(2, "big") + rdata
        wire[-2:] = len(option).to_bytes(2, "big") + option
        with pytest.raises(Malformed):
            decode_message(bytes(wire))

    def test_unsupported_qtype_reported(self):
        wire = bytearray(encode_message(make_query("example.com")))
        wire[-3] = 16  # qtype TXT
        with pytest.raises(UnsupportedType):
            decode_message(bytes(wire))

    def test_two_questions_rejected(self):
        wire = bytearray(encode_message(make_query("example.com")))
        wire[5] = 2
        with pytest.raises(Malformed):
            decode_message(bytes(wire))

    @pytest.mark.parametrize("compressed, cuts", [(False, 117), (True, 87)], ids=["plain", "compressed"])
    def test_every_prefix_cut_truncated(self, compressed, cuts):
        query = make_query("api.example.iot", ecs=EcsOption.for_prefix("198.18.1.0", 24))
        answers = tuple(record_for_address("api.example.iot", a, 300) for a in ("203.0.113.10", "203.0.113.11"))
        wire = encode_message(make_response(query, answers, ecs=EcsOption.for_prefix("198.18.1.0", 24, 24)))
        if compressed:
            name = b"\x03api\x07example\x03iot\x00"
            wire = wire[:12] + name + wire[12 + len(name) :].replace(name, b"\xc0\x0c")
        assert len(decode_message(wire).answers) == 2
        assert len(wire) == cuts
        for end in range(cuts):
            with pytest.raises(Truncated) as info:
                decode_message(wire[:end])
            # the field that ran out starts inside the cut data
            need, offset, have = map(int, re.fullmatch(r"need (\d+) octets at offset (\d+), have (\d+)", str(info.value)).groups())
            assert offset + have == end and need > have

    def test_dot_inside_label_rejected(self):
        # \x03a.b\x03com would read as a.b.com, which encodes differently
        wire = encode_message(make_query("abc.com"))
        assert wire[12:21] == b"\x03abc\x03com\x00"
        with pytest.raises(Malformed, match="inside label"):
            decode_message(wire[:12] + b"\x03a.b\x03com\x00" + wire[21:])


# Raw pieces for single-fault messages: one response with the question
# example.com/A/IN, spliced with at most one bad field each.
QNAME = b"\x07example\x03com\x00"
QUESTION = QNAME + struct.pack("!HH", QTYPE_A, 1)


def _header(flags=0x8000, an=0, ns=0, ar=0):
    return struct.pack("!HHHHHH", 7, flags, 1, an, ns, ar)


def _rr(rtype=QTYPE_A, rclass=1, rdata=bytes([203, 0, 113, 10]), name=QNAME, ttl=300):
    return name + struct.pack("!HHIH", rtype, rclass, ttl, len(rdata)) + rdata


def _opt(rdata=b"", name=b"\x00", ttl=0):
    return _rr(41, 1232, rdata, name, ttl)


SINGLE_FAULTS = [
    ("opcode", _header(flags=0x0800) + QUESTION, Malformed),
    ("reserved-label-type", _header() + b"\x40abc\x00" + QUESTION[-4:], Malformed),
    ("pointer-out-of-range", _header() + b"\xc0\xff" + QUESTION[-4:], Malformed),
    ("name-over-253", _header() + (b"\x3f" + b"a" * 63) * 4 + b"\x00" + QUESTION[-4:], Malformed),
    ("non-ascii-label", _header() + b"\x03\xe4bc\x00" + QUESTION[-4:], Malformed),
    ("opt-in-answer", _header(an=1) + QUESTION + _rr(rtype=41, rdata=b""), Malformed),
    ("answer-type", _header(an=1) + QUESTION + _rr(rtype=16, rdata=b"\x00"), UnsupportedType),
    ("answer-class", _header(an=1) + QUESTION + _rr(rclass=3), Malformed),
    ("answer-rdata-length", _header(an=1) + QUESTION + _rr(rdata=b"\x01" * 5), Malformed),
    ("opt-name-not-root", _header(ar=1) + QUESTION + _opt(name=b"\x01a\x00"), Malformed),
    ("edns-version", _header(ar=1) + QUESTION + _opt(ttl=1 << 16), Malformed),
    ("two-opt", _header(ar=2) + QUESTION + _opt() + _opt(), Malformed),
    ("option-header-truncated", _header(ar=1) + QUESTION + _opt(rdata=b"\x00\x08"), Malformed),
    ("option-data-truncated", _header(ar=1) + QUESTION + _opt(rdata=b"\x00\x08\x00\x07\x00\x01"), Malformed),
    ("record-tail-truncated", _header(an=1) + QUESTION + _rr()[: len(QNAME) + 5], Truncated),
    ("root-named-answer", _header(an=1) + QUESTION + _rr(name=b"\x00"), Malformed),
    ("whitespace-in-question", _header() + b"\x03a\tb\x00" + QUESTION[-4:], Malformed),
    ("whitespace-in-answer", _header(an=1) + QUESTION + _rr(name=b"\x03a b\x00"), Malformed),
    ("nul-in-question", _header() + b"\x03a\x00b\x00" + QUESTION[-4:], Malformed),
    ("nul-in-answer", _header(an=1) + QUESTION + _rr(name=b"\x03a\x00b\x00"), Malformed),
    ("del-in-answer", _header(an=1) + QUESTION + _rr(name=b"\x03a\x7fb\x00"), Malformed),
]

# each bad wire name of SINGLE_FAULTS that the name rule, not the walk, rejects, and its text
NAME_RULE_FAULTS = {
    "root-named-answer": "empty domain name",
    "whitespace-in-question": "whitespace in label: 'a\\tb'",
    "whitespace-in-answer": "whitespace in label: 'a b'",
    "nul-in-question": "control octet in label: 'a\\x00b'",
    "nul-in-answer": "control octet in label: 'a\\x00b'",
    "del-in-answer": "control octet in label: 'a\\x7fb'",
}


class TestSingleFaults:

    def test_unfaulted_pieces_decode(self):
        wire = _header(an=1, ns=1, ar=2) + QUESTION + _rr() + _rr(rtype=2, rdata=b"\x00") + _rr(rtype=16) + _opt()
        msg = decode_message(wire)
        assert msg.question == Question("example.com")
        assert [rr.address() for rr in msg.answers] == ["203.0.113.10"]
        assert msg.edns is not None and msg.edns.ecs is None

    @pytest.mark.parametrize("wire, error", [case[1:] for case in SINGLE_FAULTS], ids=[case[0] for case in SINGLE_FAULTS])
    def test_fault_class(self, wire, error):
        with pytest.raises(WireError) as info:
            decode_message(wire)
        assert type(info.value) is error

    @pytest.mark.parametrize("case", NAME_RULE_FAULTS)
    def test_name_rule_fault_is_malformed_with_its_text(self, case):
        data = {name: data for name, data, _ in SINGLE_FAULTS}[case]
        _clear_memos()
        for decode in (decode_message, decode_message, wire._decode):  # cold, warm, memo-free
            with pytest.raises(WireError) as info:
                decode(data)
            assert (type(info.value), str(info.value)) == (Malformed, NAME_RULE_FAULTS[case])


class TestDecodeInterop:

    def test_accepts_compression_pointer(self):
        # response with the answer name compressed to the question at offset 12
        query = make_query("api.example.iot", msg_id=9)
        head = encode_message(query)[:-4]  # strip qtype/qclass to rebuild
        wire = bytearray(encode_message(query))
        wire[2] |= 0x80  # QR
        wire[7] = 1  # ancount
        wire += b"\xc0\x0c"  # pointer to the question name
        wire += (1).to_bytes(2, "big")  # type A
        wire += (1).to_bytes(2, "big")  # class IN
        wire += (300).to_bytes(4, "big")
        wire += (4).to_bytes(2, "big")
        wire += bytes([203, 0, 113, 10])
        msg = decode_message(bytes(wire))
        assert msg.is_response
        assert msg.answers[0].name == "api.example.iot"
        assert msg.answers[0].address() == "203.0.113.10"
        assert len(head) > 12  # silence linters about the helper slice

    def test_forward_pointer_rejected(self):
        # the question name points at the answer's name, a later one
        wire = _header(an=1) + b"\xc0\x12" + QUESTION[-4:] + _rr()
        assert wire[18:] == _rr()
        with pytest.raises(Malformed, match=re.escape("compression pointer 18 outside [12, 12)")):
            decode_message(wire)

    def test_pointer_chain_accepted(self):
        # www.example.com points at the question name; its twin points at it in turn
        www = b"\x03www\xc0\x0c"
        wire = _header(an=2) + QUESTION + _rr(name=www) + _rr(name=b"\xc0" + bytes([12 + len(QUESTION)]))
        assert [rr.name for rr in decode_message(wire).answers] == ["www.example.com"] * 2

    def test_pointer_loop_rejected(self):
        query = make_query("api.example.iot", msg_id=9)
        wire = bytearray(encode_message(query))
        wire[2] |= 0x80
        wire[7] = 1
        loop_at = len(wire)
        wire += bytes([0xC0, loop_at & 0xFF])  # name pointing at itself
        wire += (1).to_bytes(2, "big") + (1).to_bytes(2, "big")
        wire += (300).to_bytes(4, "big") + (4).to_bytes(2, "big") + b"\x00" * 4
        with pytest.raises(Malformed):
            decode_message(bytes(wire))

    def test_unknown_edns_option_ignored(self):
        query = make_query("example.com").replace(edns=EdnsOpt())
        wire = bytearray(encode_message(query))
        # rewrite the OPT rdata to hold a cookie option (code 10)
        assert wire[-2:] == b"\x00\x00"  # empty rdata length
        wire[-2:] = (8).to_bytes(2, "big") + (10).to_bytes(2, "big") + (4).to_bytes(2, "big") + b"\xde\xad\xbe\xef"
        msg = decode_message(bytes(wire))
        assert msg.edns is not None
        assert msg.edns.ecs is None


DECODER_MEMOS = (wire._plain_name, wire._question, wire._decode_opt, wire._decode_body)
# on the way out: encoded names, OPT records, reply heads and answer sections, and the resolver's rewritten options
OUTBOUND_MEMOS = (wire._encode_name, wire._encode_opt, wire._reply_head, wire._answer_section, resolver._rewrite_option)
# the resolver's reads of its upstream replies, and its cache keys
REPLY_MEMOS = (resolver._upstream_answer, resolver._cache_key)
MEMOS = (wire._canonical_text, *DECODER_MEMOS, *OUTBOUND_MEMOS, *REPLY_MEMOS)


def _clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


def test_every_package_memo_is_bounded_and_listed():
    """Each module-level lru_cache in the package holds _MEMO_SIZE entries and is one of MEMOS.

    Two are exempt.  `cli.build_parser` is a `functools.cache` of a function
    without arguments, which holds its one parser.  The reply memo
    `resolver._upstream_answer` holds 4 * _MEMO_SIZE, as its docstring says.
    """
    found = {}
    for info in pkgutil.iter_modules(ecsloc.__path__, "ecsloc."):
        for name, value in vars(importlib.import_module(info.name)).items():
            if isinstance(value, functools._lru_cache_wrapper):
                found[f"{info.name}.{name}"] = value
    assert found.pop("ecsloc.cli.build_parser").cache_parameters()["maxsize"] is None
    caps = dict.fromkeys(found, wire._MEMO_SIZE) | {"ecsloc.resolver._upstream_answer": 4 * wire._MEMO_SIZE}
    assert {name: memo.cache_parameters()["maxsize"] for name, memo in found.items()} == caps
    assert set(found.values()) == set(MEMOS)


def _outcome(data, decode=decode_message):
    """(message, its re-encoding) for accepted bytes, (error class, text) for rejected ones."""
    try:
        msg = decode(data)
    except WireError as exc:
        return type(exc), str(exc)
    return msg, encode_message(msg)


def _rewriting_resolver(upstream=None):
    """A resolver whose policy rewrites the option to the client's /24; only a miss asks its *upstream*."""
    return resolver.Resolver(resolver.RewriteClientSubnet(24), "UK", upstream, GeoZone.load(FIXTURES / "zone.json").regions)


def _with_id(data, msg_id):
    """*data* with its first two octets, the message ID, replaced by *msg_id*."""
    return msg_id.to_bytes(2, "big") + data[2:]


def _compressed_response(rng):
    """Encoded response whose answer names are pointers to the question name at offset 12."""
    query = make_query(rand_name(rng), msg_id=rng.randint(0, 0xFFFF), ecs=rand_ecs(rng))
    qname = query.question.qname
    answers = tuple(
        record_for_address(qname, rand_v4(rng) if rng.random() < 0.7 else rand_v6(rng), rng.randint(0, 86400))
        for _ in range(rng.randint(1, 3))
    )
    wire_bytes = encode_message(make_response(query, answers, ecs=query.edns.ecs.with_scope(rng.randint(0, 24))))
    name = wire_bytes[12 : wire_bytes.index(0, 12) + 1]
    head = 12 + len(name) + 4
    return wire_bytes[:head] + wire_bytes[head:].replace(name, b"\xc0\x0c")


def _flip_one_bit(rng, data):
    flipped = bytearray(data)
    flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
    return bytes(flipped)


# A query with flags 0 whose question name is a pointer into the 12-octet
# header: read from the ID, ID 0x0161 at offset 0 would give the name "a".
POINTER_INTO_HEADER = {
    offset: struct.pack("!HHHHHH", 0, 0, 1, 0, 0, 0) + bytes([0xC0, offset]) + QUESTION[-4:] for offset in range(12)
}


DECODE_OUTCOMES = FIXTURES / "golden" / "decode_outcomes.txt"


def _mutated_messages(rng, count):
    """Encoded messages mutated for a decoder differential.

    Every second has its answer names compressed to the question name at
    offset 12, every fifth has a random pointer written in at a random
    offset past the header, and each has 0-2 bit flips.
    """
    out = []
    for n in range(count):
        msg = rand_message(rng)
        if n % 2 == 0:
            qname = msg.question.qname
            msg = msg.replace(answers=tuple(rr.replace(name=qname) for rr in msg.answers))
        data = reference_message(msg)
        if n % 2 == 0:
            name = reference_name(msg.question.qname)
            head = 12 + len(name) + 4
            data = data[:head] + data[head:].replace(name, b"\xc0\x0c")
        if n % 5 == 0:
            at, target = rng.randrange(12, len(data) - 1), rng.randrange(len(data))
            data = data[:at] + bytes([0xC0 | target >> 8, target & 0xFF]) + data[at + 2 :]
        for _ in range(rng.randint(0, 2)):
            data = _flip_one_bit(rng, data)
        out.append(data)
    return out


def _outcome_line(data, decode):
    """The re-encoded octets in hex of accepted bytes, or 'ErrorClass: text' of rejected ones."""
    first, second = _outcome(data, decode)
    return second.hex() if isinstance(first, DnsMessage) else f"{first.__name__}: {second}"


def test_decode_outcomes_are_recorded():
    """Both decoders, cold and warm, give the recorded outcome of each of 2000 seeded mutated messages.

    Re-record, only when a decode outcome is meant to change, with

        PYTHONPATH=src python tests/test_wire.py
    """
    expected = DECODE_OUTCOMES.read_text().splitlines()
    inputs = _mutated_messages(random.Random(2400), len(expected))
    _clear_memos()
    assert [_outcome_line(data, decode_message) for data in inputs] == expected
    assert [_outcome_line(data, decode_message) for data in inputs] == expected  # warm
    assert [_outcome_line(data, wire._decode) for data in inputs] == expected
    rejected = [line.split(": ")[0] for line in expected if ": " in line]
    assert {"Malformed", "Truncated", "UnsupportedType"} <= set(rejected)
    assert 500 < len(rejected) < len(expected) - 500


class TestDecoderMemos:

    def test_cold_and_warm_decodes_agree(self):
        rng = random.Random(1515)
        inputs = [_flip_one_bit(rng, encode_message(rand_message(rng))) for _ in range(2000)]
        for _ in range(300):
            compressed = _compressed_response(rng)
            inputs += [compressed, _flip_one_bit(rng, compressed)]
        # bodies apart that share every name and option: only the inner memos can hit
        for _ in range(300):
            msg = rand_message(rng)
            inputs += [encode_message(msg), encode_message(msg.replace(recursion_desired=not msg.recursion_desired))]
        inputs += [_with_id(data, 0x0161) for data in POINTER_INTO_HEADER.values()]
        # each input also under a second ID
        others = [_with_id(data, rng.randrange(0x10000)) for data in inputs]
        cold, warm, cold_others, warm_others = [], [], [], []
        for data, other in zip(inputs, others):
            _clear_memos()
            cold_others.append(_outcome(other))
            _clear_memos()
            cold.append(_outcome(data))
            warm.append(_outcome(data))
            warm_others.append(_outcome(other))  # warm from the same body under the first ID
        assert warm == cold
        assert warm_others == cold_others
        _clear_memos()
        both = [data for pair in zip(inputs, others) for data in pair]
        # warm from every input before it
        assert [_outcome(data) for data in both] == [outcome for pair in zip(cold, cold_others) for outcome in pair]
        assert all(memo.cache_info().hits for memo in DECODER_MEMOS)
        assert [_outcome(data, wire._decode) for data in inputs] == cold  # no memo at all
        accepted = [isinstance(outcome[0], DnsMessage) for outcome in cold]
        assert 500 < sum(accepted) < len(inputs) - 500
        assert all(accepted[2000:2600:2])  # every unflipped compressed response
        assert all(accepted[2600:3200])  # every query and its twin
        for data, outcome in zip(inputs, cold):
            if isinstance(outcome[0], DnsMessage):
                assert outcome[0].id == int.from_bytes(data[:2], "big")

    def test_one_body_under_many_ids_is_decoded_once(self):
        _clear_memos()
        data = encode_message(make_query("api.example.iot", ecs=EcsOption.for_prefix("198.18.1.0", 24)))
        for msg_id in range(100):
            assert decode_message(_with_id(data, msg_id)) == make_query(
                "api.example.iot", msg_id=msg_id, ecs=EcsOption.for_prefix("198.18.1.0", 24)
            )
        info = wire._decode_body.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 99, 1)

    def test_shared_sections_are_decoded_once(self):
        _clear_memos()
        ecs = EcsOption.for_prefix("198.18.1.0", 24)
        query = make_query("api.example.iot", ecs=ecs)
        for n in range(100):  # one question and one OPT record, each reply with its own answer address
            answer = ResourceRecord("api.example.iot", QTYPE_A, 60, bytes((10, 0, 0, n)))
            reply = make_response(query, (answer,), ecs=ecs.with_scope(24))
            assert decode_message(encode_message(reply)) == reply
        assert [wire._decode_body.cache_info().misses, wire._question.cache_info().misses,
                wire._decode_opt.cache_info().misses] == [100, 1, 1]

    @pytest.mark.parametrize("offset", sorted(POINTER_INTO_HEADER))
    def test_pointer_into_the_header_is_malformed(self, offset):
        _clear_memos()
        for msg_id in (0x0161, 0x0162, 0x0000, 0x0001, 0x6100):  # at offset 0, 0x0161 is never the name "a"
            data = _with_id(POINTER_INTO_HEADER[offset], msg_id)
            expected = (Malformed, f"compression pointer {offset} outside [12, 12)")
            assert _outcome(data) == _outcome(data, wire._decode) == expected
        assert wire._decode_body.cache_info().currsize == 0

    def test_compressed_response_is_decoded_once(self):
        _clear_memos()
        data = _compressed_response(random.Random(23))
        first, second = decode_message(data), decode_message(_with_id(data, 0x0161))
        assert second == first.replace(id=0x0161)
        info = wire._decode_body.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_memos_are_bounded(self):
        _clear_memos()
        rewrite = _rewriting_resolver()
        for n in range(wire._MEMO_SIZE + 500):
            ecs = rewrite.effective_ecs(None, f"10.{n >> 8}.{n & 255}.7")
            assert ecs == EcsOption.for_prefix(f"10.{n >> 8}.{n & 255}.0", 24)
            query = make_query(f"Host{n}.example", ecs=ecs)
            assert decode_message(encode_message(query)).edns.ecs == ecs
            reply = encode_message(make_response(query, ecs=ecs))
            assert wire.pack_reply(b"\x00\x00", query, ecs, 0) == reply
            qname = query.question.qname
            entry = rewrite._store(qname, QTYPE_A, 24, ecs, wire.answer_segments(qname, ()), 60)
            assert rewrite.cache_lookup(qname, QTYPE_A, ecs) is entry
        # the reply memo, four times as large, filled past its own cap by replies apart in their TTL
        query = make_query("host.example", ecs=ecs)
        segments = wire.answer_segments("host.example", [bytes((11, 0, 0, 1))])
        for ttl in range(4 * wire._MEMO_SIZE + 500):
            reply = wire.pack_reply(b"\x00\x00", query, ecs, 24, segments, ttl)
            assert resolver._upstream_answer(reply[2:], "host.example")[2] == ttl
        for memo in (*DECODER_MEMOS, *OUTBOUND_MEMOS, *REPLY_MEMOS):
            info = memo.cache_info()
            assert info.maxsize == (16384 if memo is resolver._upstream_answer else 4096)
            assert info.currsize == info.maxsize

    @pytest.mark.parametrize(
        "data, memo, misses, error, message",
        [
            pytest.param(
                _header() + b"\x03a.b\x03com\x00" + QUESTION[-4:], wire._plain_name, 2, Malformed,
                "'.' inside label b'a.b'", id="dot-inside-label",
            ),
            # longer than any valid name, so walked in the message without a memo lookup
            pytest.param(
                _header() + (b"\x3f" + b"a" * 63) * 4 + b"\x00" + QUESTION[-4:], wire._plain_name, 0, Malformed,
                "name exceeds 253 octets", id="name-over-253",
            ),
            pytest.param(
                _header() + QNAME + struct.pack("!HH", 16, 1), wire._question, 2, UnsupportedType,
                "qtype 16 not supported", id="question-type",
            ),
            pytest.param(
                _header(ar=1) + QUESTION + _opt(rdata=bytes.fromhex("00080007" "00011700" "6f6f6f")), wire._decode_opt,
                2, Malformed, "client-subnet option: address has nonzero bits past the source prefix length", id="ecs-bits-past-prefix",
            ),
            pytest.param(
                _header() + QUESTION + b"\x00", wire._decode_body, 2, Malformed, "1 trailing octets", id="trailing-octet"
            ),
            pytest.param(
                _header()[:7], wire._decode_body, 2, Truncated, "need 12 octets at offset 0, have 7", id="short-header"
            ),
            # too short to hold an ID, so read without a memo lookup
            pytest.param(b"\x07", wire._decode_body, 0, Truncated, "need 12 octets at offset 0, have 1", id="no-id"),
        ],
    )
    def test_rejected_input_is_not_stored(self, data, memo, misses, error, message):
        _clear_memos()
        for _ in range(2):
            with pytest.raises(WireError) as info:
                decode_message(data)
            assert (type(info.value), str(info.value)) == (error, message)
        assert (memo.cache_info().currsize, memo.cache_info().misses) == (0, misses)
        assert wire._decode_body.cache_info().currsize == 0
        # the same octets as an upstream reply, read on a miss by the resolver's reply memo
        front = _rewriting_resolver(InProcessLink(lambda payload, source: data))
        query = encode_message(make_query("example.com"))
        for _ in range(2):
            with pytest.raises(WireError) as info:
                front.handle(query, "198.18.0.7")
            assert (type(info.value), str(info.value)) == (error, message)
        info = resolver._upstream_answer.cache_info()
        assert (info.currsize, info.misses) == (0, 2 if len(data) > 1 else 0)

    def test_bad_rewrite_source_is_not_stored(self):
        _clear_memos()
        rewrite = _rewriting_resolver()
        for _ in range(2):
            with pytest.raises(ValueError) as info:
                rewrite.effective_ecs(None, "198.18.0.777")
            assert (type(info.value), str(info.value)) == (
                ValueError, "'198.18.0.777' does not appear to be an IPv4 or IPv6 address"
            )
        info = resolver._rewrite_option.cache_info()
        assert (info.currsize, info.misses) == (0, 2)

    def test_threads_share_the_memo(self):
        """Threads decoding the same bodies under their own IDs each get their own ID back."""
        _clear_memos()
        rng = random.Random(19)
        messages = [rand_message(rng) for _ in range(50)]
        bodies = [encode_message(msg)[2:] for msg in messages]
        wrong = []

        def decode_all(worker):
            for round_ in range(40):
                for msg, body in zip(messages, bodies):
                    msg_id = (worker * 40 + round_) & 0xFFFF
                    if decode_message(msg_id.to_bytes(2, "big") + body) != msg.replace(id=msg_id):
                        wrong.append((worker, msg_id))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=decode_all, args=(n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert wire._decode_body.cache_info().currsize == 50


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_roundtrip_property(rng):
    msg = rand_message(rng)
    assert decode_message(encode_message(msg)) == msg


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=120))
def test_decode_arbitrary_bytes_fails_cleanly(data):
    # anything can be rejected, but only with a codec error
    try:
        decode_message(data)
    except WireError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_decode_mutated_encoding_fails_cleanly(rng, data):
    wire = bytearray(encode_message(rand_message(rng)))
    index = data.draw(st.integers(0, len(wire) - 1))
    wire[index] ^= 1 << data.draw(st.integers(0, 7))
    try:
        msg = decode_message(bytes(wire))
    except WireError:
        return
    # an accepted mutant is a well-formed message: its encoding reads back as the same value
    assert decode_message(encode_message(msg)) == msg

if __name__ == "__main__":
    messages = _mutated_messages(random.Random(2400), 2000)
    DECODE_OUTCOMES.write_text("".join(_outcome_line(data, wire._decode) + "\n" for data in messages))
