"""DNS wire codec for the small message subset this toolkit exchanges.

Covers the 12-octet header, a single A/AAAA question, A/AAAA answer
records, and one EDNS0 OPT pseudo-record (type 41) whose RDATA may carry
the client-subnet option (code 8, RFC 7871).  The encoder never compresses
names.  The decoder follows compression pointers, and a pointer must
target "a prior occurance of the same name" (RFC 1035 section 4.1.4): an
offset past the 12-octet header and before the name, or before the last
target followed.  So the targets of one name strictly decrease, and no
decode reads the ID.

Each field is checked once, where a message comes into being.  `Question`,
`ResourceRecord`, `EcsOption`, `EdnsOpt` and `DnsMessage` each check their
fields in their one constructor, and `_scan` checks what no constructor
sees.  The encoder trusts a constructed message, checks nothing again, and
writes every answer section, a message's or a packed reply's, by
`answer_segments`.  What a reply carries of its query's option is
`pack_reply`'s rule.

Besides the name rule's memo, the codec has eight, each keyed as its
function's docstring says: the encoder's `_encode_name`, `_encode_opt`,
`_reply_head` and `_answer_section`, and the decoder's `_decode_body`, on
a whole message after its ID, and `_plain_name`, `_question` and
`_decode_opt`, on its parts.  With many regions whole messages rarely
repeat while their parts do.  A reply is keyed on the parts its query
decoded to, so a repeated one is found by identity.  No memo keys or
stores more than about `_MEMO_OCTETS` wire octets: a longer message, OPT
record or answer section is read or encoded afresh, as is an upstream
reply whose answer section would be (`resolver._upstream_answer`).
"""

from __future__ import annotations

import socket
import struct
from functools import lru_cache, partial

from .errors import Error
from .value import Value

QTYPE_A = 1
QTYPE_AAAA = 28
TYPE_OPT = 41
CLASS_IN = 1
ECS_OPTION_CODE = 8

DEFAULT_UDP_PAYLOAD = 1232

MAX_LABEL_OCTETS = 63
MAX_NAME_OCTETS = 253
MAX_TTL = 0xFFFFFFFF  # a record's TTL field is 32 bits

# Entries in each package memo, an lru_cache keyed as its function's docstring says.  A memo
# stores only results, so a rejected input raises the same error class and text every time.
# Client-subnet answers multiply the distinct queries, replies and sections (RFC 7871 section
# 11): the 512-region benchmark workload keeps up to about 8 100 of each in play, and a memo smaller
# than that, read in a repeating order, evicts each entry before it comes round again.
_MEMO_SIZE = 16384
# Wire octets in the longest message, OPT record or answer section a memo keys on or stores:
# every query fits, and no entry holds one of the 65 535-octet messages UDP can carry.  So an
# entry of the message or section memo traces under 3 KiB, objects and links included, and
# either memo at its cap under 48 MiB.
_MEMO_OCTETS = 512

# Address length in octets per ECS family code.
_FAMILY_OCTETS = {1: 4, 2: 16}
_FAMILY_BITS = {1: 32, 2: 128}

# Each wire layout, shared by the encoder and the decoder
_HEADER = struct.Struct("!HHHHHH")  # id, flags, qd/an/ns/ar counts
_PAIR = struct.Struct("!HH")  # qtype, qclass; or option code, option length
_RR_TAIL = struct.Struct("!HHIH")  # type, class, ttl, rdlength
_TTL = struct.Struct("!I")  # the record tail's ttl field alone
_ECS_HEAD = struct.Struct("!HBB")  # family, source and scope prefix lengths

# PREFIX_MASKS[family][n] keeps the first n bits of a family's address as
# an integer: the key form of the zone's and the cache's prefix tables.
PREFIX_MASKS = {
    family: tuple(((1 << n) - 1) << (bits - n) for n in range(bits + 1))
    for family, bits in _FAMILY_BITS.items()
}


class WireError(Error):
    """Base for encode/decode failures."""


class InvalidName(WireError):
    """Domain name violates label or total-length limits."""


class InvalidEcs(WireError):
    """Client-subnet option fields are inconsistent."""


class Truncated(WireError):
    """Buffer ended in the middle of a field."""


class Malformed(WireError):
    """Structurally invalid message bytes."""


class UnsupportedType(WireError):
    """Record type outside the A/AAAA subset."""


def canonical_name(name: str) -> str:
    """Lowercase *name*, strip one trailing dot, and validate label limits: the one name rule."""
    if not isinstance(name, str):
        raise InvalidName(f"name must be text, got {name!r}")
    return _canonical_text(name)


@lru_cache(maxsize=_MEMO_SIZE)
def _canonical_text(name: str) -> str:
    """`canonical_name` of *name*, known to be text: the memo keyed on it."""
    if name.endswith("."):
        name = name[:-1]
    name = name.lower()
    if not name:
        raise InvalidName("empty domain name")
    try:
        encoded = name.encode("ascii")
    except UnicodeEncodeError:
        raise InvalidName(f"non-ASCII name: {name!r}") from None
    if len(encoded) > MAX_NAME_OCTETS:
        raise InvalidName(f"name longer than {MAX_NAME_OCTETS} octets: {name!r}")
    for label in name.split("."):
        if not label:
            raise InvalidName(f"empty label in {name!r}")
        if len(label) > MAX_LABEL_OCTETS:
            raise InvalidName(f"label longer than {MAX_LABEL_OCTETS} octets: {label!r}")
        if label.split() != [label]:
            raise InvalidName(f"whitespace in label: {label!r}")
        if not label.isprintable():  # for ASCII text: an octet in 0x00-0x1f or 0x7f
            raise InvalidName(f"control octet in label: {label!r}")
    return name


def pack_address(text: str) -> bytes:
    """Packed octets of address text, 4 for IPv4 and 16 for IPv6: the one address rule.

    An IPv6 zone id such as ``%eth0`` is rejected, as A/AAAA rdata cannot carry one.
    """
    try:
        return socket.inet_pton(socket.AF_INET6 if ":" in text else socket.AF_INET, text)
    except (OSError, TypeError, ValueError):  # not text, or NUL / unencodable in it
        raise ValueError(f"{text!r} does not appear to be an IPv4 or IPv6 address") from None


def family_packer(version: int):
    """`pack_address` for the text of one IP version only, as one C call.

    IPv4 text never holds a ":" and IPv6 text always does, so it packs
    exactly the texts that `pack_address` packs to that version's length.
    Any other input raises OSError, TypeError or ValueError.
    """
    return partial(socket.inet_pton, socket.AF_INET if version == 4 else socket.AF_INET6)


def address_text(rdata: bytes) -> str:
    """Text form of 4 or 16 packed octets, as the platform's inet_ntop renders it."""
    return socket.inet_ntop(socket.AF_INET if len(rdata) == 4 else socket.AF_INET6, rdata)


def _packed(address) -> bytes:
    """Packed octets given as is; anything else, an ipaddress object too, read as text."""
    if isinstance(address, (bytes, bytearray)):
        if len(address) not in (4, 16):
            raise ValueError(f"packed address must be 4 or 16 octets, got {len(address)}")
        return bytes(address)
    return pack_address(str(address))


def truncate_to_prefix(address, prefix_len: int) -> bytes:
    """Return ceil(prefix_len / 8) octets of *address*, read by `_packed`, with host bits zeroed."""
    packed = _packed(address)
    if not 0 <= prefix_len <= len(packed) * 8:
        raise ValueError(f"prefix length {prefix_len} out of range for {len(packed)}-octet address")
    nbytes = (prefix_len + 7) // 8
    out = bytearray(packed[:nbytes])
    if prefix_len % 8:
        out[-1] &= (0xFF << (8 - prefix_len % 8)) & 0xFF
    return bytes(out)


class EcsOption(Value, fields="family source_prefix_len scope_prefix_len address"):
    """RFC 7871 client-subnet option.

    *address* holds only ceil(source_prefix_len / 8) octets, and every bit
    past source_prefix_len must be zero.
    """

    def __new__(cls, family: int, source_prefix_len: int, scope_prefix_len: int = 0, address: bytes = b""):
        max_bits = _FAMILY_BITS.get(family)
        if max_bits is None:
            raise InvalidEcs(f"family must be 1 or 2, got {family}")
        if not 0 <= source_prefix_len <= max_bits:
            raise InvalidEcs(f"source prefix length {source_prefix_len} out of range")
        if not 0 <= scope_prefix_len <= max_bits:
            raise InvalidEcs(f"scope prefix length {scope_prefix_len} out of range")
        expected = (source_prefix_len + 7) // 8
        if len(address) != expected:
            raise InvalidEcs(f"address must be {expected} octets for /{source_prefix_len}, got {len(address)}")
        if int.from_bytes(address, "big") & ((1 << (8 * expected - source_prefix_len)) - 1):
            raise InvalidEcs("address has nonzero bits past the source prefix length")
        return tuple.__new__(cls, (family, source_prefix_len, scope_prefix_len, address))

    @classmethod
    def for_prefix(cls, address, prefix_len: int, scope_prefix_len: int = 0) -> "EcsOption":
        """Build an option for *address*/*prefix_len*, truncating host bits."""
        packed = _packed(address)
        return cls(
            family=1 if len(packed) == 4 else 2,
            source_prefix_len=prefix_len,
            scope_prefix_len=scope_prefix_len,
            address=truncate_to_prefix(packed, prefix_len),
        )

    def with_scope(self, scope_prefix_len: int) -> "EcsOption":
        """This option with another scope prefix length, the one field checked again."""
        if not 0 <= scope_prefix_len <= _FAMILY_BITS[self.family]:
            raise InvalidEcs(f"scope prefix length {scope_prefix_len} out of range")
        return tuple.__new__(EcsOption, (self.family, self.source_prefix_len, scope_prefix_len, self.address))

    def padded_address(self) -> bytes:
        """Address padded with zero octets to the family's full length."""
        return self.address + b"\x00" * (_FAMILY_OCTETS[self.family] - len(self.address))

    def address_int(self) -> int:
        """Padded address as an unsigned integer (prefix-table key form)."""
        return int.from_bytes(self.padded_address(), "big")

    def address_str(self) -> str:
        """Dotted/colon text of the padded address."""
        return address_text(self.padded_address())


class Question(Value, fields="qname qtype qclass"):
    def __new__(cls, qname: str, qtype: int = QTYPE_A, qclass: int = CLASS_IN):
        qname = canonical_name(qname)
        if qtype not in (QTYPE_A, QTYPE_AAAA):
            raise UnsupportedType(f"qtype {qtype} not supported")
        if qclass != CLASS_IN:
            raise Malformed(f"qclass {qclass} not supported")
        return tuple.__new__(cls, (qname, qtype, qclass))


class ResourceRecord(Value, fields="name rtype ttl rdata"):
    def __new__(cls, name: str, rtype: int, ttl: int, rdata: bytes):
        name = canonical_name(name)
        if rtype not in (QTYPE_A, QTYPE_AAAA):
            raise UnsupportedType(f"record type {rtype} not supported")
        expected = 4 if rtype == QTYPE_A else 16
        if len(rdata) != expected:
            raise ValueError(f"rdata must be {expected} octets for this type, got {len(rdata)}")
        if not 0 <= ttl <= MAX_TTL:
            raise ValueError(f"ttl {ttl} out of range")
        return tuple.__new__(cls, (name, rtype, ttl, rdata))

    def address(self) -> str:
        return address_text(self.rdata)


class EdnsOpt(Value, fields="udp_payload_size ecs"):
    def __new__(cls, udp_payload_size: int = DEFAULT_UDP_PAYLOAD, ecs: EcsOption | None = None):
        if not 0 <= udp_payload_size <= 0xFFFF:
            raise ValueError(f"udp payload size {udp_payload_size} out of range")
        return tuple.__new__(cls, (udp_payload_size, ecs))


class DnsMessage(
    Value, fields="id is_response recursion_desired recursion_available rcode question answers edns"
):
    def __new__(cls, id: int, is_response: bool, recursion_desired: bool, recursion_available: bool, rcode: int,
                question: Question, answers: tuple[ResourceRecord, ...] = (), edns: EdnsOpt | None = None):
        if not 0 <= id <= 0xFFFF:
            raise ValueError(f"message id {id} out of range")
        if not 0 <= rcode <= 15:
            raise ValueError(f"rcode {rcode} out of range")
        answers = tuple(answers)
        if not is_response:
            if answers:
                raise ValueError("a query must carry no answers")
            if edns and edns.ecs and edns.ecs.scope_prefix_len != 0:
                raise ValueError("scope prefix length must be 0 in queries")
        return tuple.__new__(
            cls, (id, is_response, recursion_desired, recursion_available, rcode, question, answers, edns)
        )


def make_query(
    qname: str,
    qtype: int = QTYPE_A,
    *,
    msg_id: int = 0,
    ecs: EcsOption | None = None,
) -> DnsMessage:
    """Build a recursion-desired query; EDNS is attached when ECS is given."""
    return DnsMessage(
        id=msg_id,
        is_response=False,
        recursion_desired=True,
        recursion_available=False,
        rcode=0,
        question=Question(qname, qtype),
        edns=None if ecs is None else EdnsOpt(ecs=ecs),
    )


@lru_cache(maxsize=_MEMO_SIZE)
def _encode_name(name: str) -> bytes:
    """The wire octets of a canonical *name*: the memo keyed on it."""
    out = bytearray()
    for label in name.encode("ascii").split(b"."):
        out.append(len(label))
        out += label
    out.append(0)
    return bytes(out)


def _encode_ecs_rdata(ecs: EcsOption) -> bytes:
    return _ECS_HEAD.pack(ecs.family, ecs.source_prefix_len, ecs.scope_prefix_len) + ecs.address


@lru_cache(maxsize=_MEMO_SIZE)
def _encode_opt(udp_payload_size: int, scope: int | None, *ecs) -> bytes:
    """The whole OPT record, root name, tail with the payload size as class and options: the memo keyed on its
    arguments, so a lookup compares only numbers and octets.

    *ecs* is empty, or the four fields of a client-subnet option, carried
    at *scope* when it is given.
    """
    rdata = b""
    if ecs:
        option = tuple.__new__(EcsOption, ecs)
        option = _encode_ecs_rdata(option if scope is None else option.with_scope(scope))
        rdata = _PAIR.pack(ECS_OPTION_CODE, len(option)) + option
    return b"\x00" + _RR_TAIL.pack(TYPE_OPT, udp_payload_size, 0, len(rdata)) + rdata


def encode_message(msg: DnsMessage) -> bytes:
    """Serialize *msg* to standard DNS wire bytes, without name compression."""
    msg_id, is_response, recursion_desired, recursion_available, rcode, question, answers, edns = msg
    flags = rcode & 0x0F
    if is_response:
        flags |= 0x8000
    if recursion_desired:
        flags |= 0x0100
    if recursion_available:
        flags |= 0x0080
    section = b"".join([answers_at_ttl(answer_segments(name, (rdata,)), ttl) for name, _, ttl, rdata in answers])
    tail = b"" if edns is None else _encode_opt(edns.udp_payload_size, None, *(edns.ecs or ()))
    return b"".join((_head(msg_id, flags, question, len(answers), edns is not None), section, tail))


def _head(msg_id: int, flags: int, question: Question, ancount: int, arcount: int) -> bytes:
    """The header and question section of a message."""
    qname, qtype, qclass = question
    return _HEADER.pack(msg_id, flags, 1, ancount, 0, arcount) + _encode_name(qname) + _PAIR.pack(qtype, qclass)


def pack_query(msg_id: int, question: Question, ecs: EcsOption | None) -> bytes:
    """Wire octets of `make_query(qname, qtype, msg_id=msg_id, ecs=ecs)` for *question*'s name and type."""
    tail = b"" if ecs is None else _encode_opt(DEFAULT_UDP_PAYLOAD, None, *ecs)
    return _head(msg_id, 0x0100, question, 0, ecs is not None) + tail


def pack_reply(
    msg_id: bytes, query: DnsMessage, ecs: EcsOption | None, scope: int, segments: tuple = (b"",), ttl: int = 0,
    rcode: int = 0,
) -> bytes:
    """Wire octets of the reply to *query*: the ID octets *msg_id*, its question, *rcode*, and
    `answers_at_ttl(segments, ttl)`.

    This is the one reply rule.  *ecs* is the client-subnet option the
    query was answered for, or None.  The reply has an OPT record when the
    query has one or *ecs* is given: of the query's payload size, or the
    default when only the reply has EDNS.  It carries *ecs* at scope
    *scope* (RFC 7871 section 7.2, RFC 6891 section 7).  The octets after
    the ID up to the answers come from the memo `_reply_head`, and the OPT
    record from `_encode_opt` keyed on the payload size, *scope* and *ecs*'s
    fields, so a repeated reply builds neither again.
    """
    edns = query.edns
    opt = edns is not None or ecs is not None
    head = _reply_head(query.question, query.recursion_desired, rcode, len(segments) - 1, opt)
    tail = _encode_opt(edns.udp_payload_size if edns else DEFAULT_UDP_PAYLOAD, scope, *(ecs or ())) if opt else b""
    return b"".join((msg_id, head, answers_at_ttl(segments, ttl), tail))


@lru_cache(maxsize=_MEMO_SIZE)
def _reply_head(question: Question, recursion_desired: bool, rcode: int, ancount: int, opt: bool) -> bytes:
    """A reply's octets after its ID up to its answers, QR and RA set and RD copied: the memo keyed on its
    question, RD bit, rcode, answer count and whether it has an OPT record."""
    return _head(0, 0x8080 | recursion_desired << 8 | rcode, question, ancount, opt)[2:]


def answer_segments(name: str, addresses) -> tuple[bytes, ...]:
    """The answer section of one record per packed address in *addresses*, cut out around each 4-octet TTL field.

    Every record is under *name*: an A record for 4 octets, an AAAA record
    for 16.  `answers_at_ttl(segments, ttl)` joins the segments into the
    section with every TTL *ttl*.  A section that `section_fits` comes
    from the memo `_answer_section`, keyed on *name* and the tuple of
    *addresses*; a longer one is encoded each time.
    """
    addresses = tuple(addresses)
    return (_answer_section if section_fits(name, len(addresses)) else _section)(name, addresses)


def section_fits(name: str, count: int) -> bool:
    """Whether an answer section of *count* records under *name* is within `_MEMO_OCTETS` octets, by the bound of
    28 a record beside its name: the name's two framing octets, the 10-octet tail and at most 16 of rdata."""
    return count * (len(name) + 28) <= _MEMO_OCTETS


def _section(name: str, addresses: tuple) -> tuple[bytes, ...]:
    """`answer_segments` of the tuple *addresses*, encoded afresh; `_answer_section` is its memo keyed on both."""
    owner = _encode_name(name)
    segments = []
    cut = b""
    for rdata in addresses:
        tail = _RR_TAIL.pack(QTYPE_A if len(rdata) == 4 else QTYPE_AAAA, CLASS_IN, 0, len(rdata))
        segments.append(cut + owner + tail[:4])
        cut = tail[8:] + rdata
    segments.append(cut)
    return tuple(segments)


_answer_section = lru_cache(maxsize=_MEMO_SIZE)(_section)


def answers_at_ttl(segments: tuple[bytes, ...], ttl: int) -> bytes:
    """The answer section cut into *segments* by `answer_segments`, with every TTL *ttl*."""
    return _TTL.pack(ttl).join(segments)


def _truncated(n: int, pos: int, end: int) -> Truncated:
    return Truncated(f"need {n} octets at offset {pos}, have {end - pos}")


def _walk(data: bytes, pos: int, end: int) -> tuple[str, int]:
    """Walk the name at *pos* by index: its canonical text and the offset after it.

    Each octet read is bounds-tested first, and each label is sliced once.
    """
    floor = pos  # a pointer targets [header size, floor): before the name or the last target
    labels = []
    total = 0
    return_pos = None
    while True:
        if pos >= end:
            raise _truncated(1, pos, end)
        length = data[pos]
        pos += 1
        if length == 0:
            break
        kind = length & 0xC0
        if kind == 0xC0:
            if pos >= end:
                raise _truncated(1, pos, end)
            pointer = ((length & 0x3F) << 8) | data[pos]
            if not _HEADER.size <= pointer < floor:
                raise Malformed(f"compression pointer {pointer} outside [{_HEADER.size}, {floor})")
            if return_pos is None:
                return_pos = pos + 1
            pos = floor = pointer
            continue
        if kind != 0:
            raise Malformed(f"reserved label type {kind >> 6:#04b}")
        total += length + 1
        if total > MAX_NAME_OCTETS + 1:
            raise Malformed("name exceeds 253 octets")
        if pos + length > end:
            raise _truncated(length, pos, end)
        raw = data[pos : pos + length]
        pos += length
        if b"." in raw:
            raise Malformed(f"'.' inside label {raw!r}")
        if not raw.isascii():
            raise Malformed(f"non-ASCII label bytes {raw!r}")
        labels.append(raw)
    name = b".".join(labels).decode("ascii").lower()
    return name, pos if return_pos is None else return_pos


@lru_cache(maxsize=_MEMO_SIZE)
def _plain_name(raw: bytes) -> str:
    """Canonical text of an uncompressed wire name: the memo keyed on its octets, at most 255 when valid."""
    return _walk(raw, 0, len(raw))[0]


def _name_at(data: bytes, pos: int, end: int, read, tail: int) -> tuple:
    """The name at *pos*, possibly compressed: what is read of it and the offset after it.

    First steps over the length octets unchecked while each is 1-63: a
    name that ends on a zero octet with *tail* more octets within bounds
    is read, with that tail, from its raw octets by the memo *read*, and
    the offset is after the tail.  Any other name is walked in *data*,
    giving its canonical text and the offset after the name.
    """
    start = pos
    stop = min(end - tail, start + MAX_NAME_OCTETS + 2)  # a valid name has at most 255 wire octets
    while pos < stop:
        length = data[pos]
        if not length:
            pos += 1 + tail
            return read(data[start:pos]), pos
        if length > MAX_LABEL_OCTETS:
            break
        pos += length + 1
    return _walk(data, start, end)


@lru_cache(maxsize=_MEMO_SIZE)
def _question(raw: bytes) -> Question:
    """The question of an uncompressed name and its type and class: the memo keyed on their octets.

    A valid question name holds no pointer: no offset lies after the
    header and before it.
    """
    qname = _plain_name(raw[: -_PAIR.size])
    if qname == "":
        raise Malformed("empty question name")
    return Question(qname, *_PAIR.unpack_from(raw, len(raw) - _PAIR.size))


def _record_at(data: bytes, pos: int, end: int) -> tuple[str, int, int, int, bytes, int]:
    """The resource record at *pos*: (name, type, class, ttl, rdata, offset after it)."""
    name, pos = _name_at(data, pos, end, _plain_name, 0)
    if pos + _RR_TAIL.size > end:
        raise _truncated(_RR_TAIL.size, pos, end)
    rtype, rclass, ttl, rdlen = _RR_TAIL.unpack_from(data, pos)
    pos += _RR_TAIL.size
    if pos + rdlen > end:
        raise _truncated(rdlen, pos, end)
    return name, rtype, rclass, ttl, data[pos : pos + rdlen], pos + rdlen


def _decode_ecs(rdata: bytes) -> EcsOption:
    """The client-subnet option of its option data *rdata*."""
    if len(rdata) < _ECS_HEAD.size:
        raise Malformed("client-subnet option shorter than 4 octets")
    family, source, scope = _ECS_HEAD.unpack_from(rdata)
    try:
        return EcsOption(family, source, scope, rdata[_ECS_HEAD.size :])
    except InvalidEcs as exc:
        raise Malformed(f"client-subnet option: {exc}") from None


@lru_cache(maxsize=_MEMO_SIZE)
def _decode_opt(name: str, payload: int, ttl: int, rdata: bytes) -> EdnsOpt:
    """The OPT pseudo-record of its fields, class the payload size: the memo keyed on its name, class, TTL and rdata."""
    if name != "":
        raise Malformed("OPT record name must be root")
    version = (ttl >> 16) & 0xFF
    if version != 0:
        raise Malformed(f"EDNS version {version} not supported")
    ecs = None
    pos = 0
    while pos < len(rdata):
        if pos + _PAIR.size > len(rdata):
            raise Malformed("EDNS option header truncated")
        code, optlen = _PAIR.unpack_from(rdata, pos)
        pos += _PAIR.size
        if pos + optlen > len(rdata):
            raise Malformed("EDNS option data truncated")
        if code == ECS_OPTION_CODE and ecs is None:
            ecs = _decode_ecs(rdata[pos : pos + optlen])
        # other option codes are ignored
        pos += optlen
    return EdnsOpt(payload, ecs)


def decode_message(data: bytes) -> DnsMessage:
    """Parse wire bytes into a DnsMessage; inverse of encode_message on its image.

    The decode is read by `_decode_after_id`, from the memo `_decode_body`
    when short, and returned with this message's ID patched in.
    """
    data = bytes(data)
    if len(data) < 2:  # no ID to patch: read as is, to raise Truncated
        return _decode(data)
    msg = _decode_after_id(data[2:])
    return tuple.__new__(DnsMessage, ((data[0] << 8) | data[1], *msg[1:]))


def _decode_after_id(body: bytes) -> DnsMessage:
    """The message with ID 0 and *body* after it: from the memo `_decode_body` for a *body* of at most
    `_MEMO_OCTETS` octets, decoded afresh by `_decode` for a longer one."""
    return _decode_body(body) if len(body) <= _MEMO_OCTETS else _decode(b"\x00\x00" + body)


@lru_cache(maxsize=_MEMO_SIZE)
def _decode_body(body: bytes) -> DnsMessage:
    """The message with ID 0 and *body* after it: the memo keyed on a message's octets after the ID."""
    return _decode(b"\x00\x00" + body)


def _decode(data: bytes) -> DnsMessage:
    """Decode *data* in full, with no lookup in the message memo: the one build of a decoded message.

    `_scan` reads the fields.  A query is built through `DnsMessage`'s
    constructor, the one holder of a query's rules: no answers and scope 0.
    A response is built without it: no query rule applies, its ID and rcode
    come from 16- and 4-bit header fields, and its answers are a tuple
    already.  A constructor's refusal, a `ValueError` or the name rule's
    `InvalidName`, is raised as `Malformed` with its text; other wire errors
    pass through.
    """
    try:
        fields = _scan(data)
        return tuple.__new__(DnsMessage, fields) if fields[1] else DnsMessage(*fields)
    except (ValueError, InvalidName) as exc:  # a constructor's refusal of a decoded field
        raise Malformed(str(exc)) from None


def _scan(data: bytes) -> tuple:
    """The `DnsMessage` fields of the message *data*, in order: the one walker of message octets.

    It checks what no constructor sees: the header's opcode and counts,
    label framing and compression pointers, the answer class, and the OPT
    record's placement, name, version and option framing.  It builds the
    question, the records and the OPT record through their constructors.
    """
    end = len(data)
    if end < _HEADER.size:
        raise _truncated(_HEADER.size, 0, end)
    msg_id, flags, qdcount, ancount, nscount, arcount = _HEADER.unpack_from(data)
    opcode = (flags >> 11) & 0x0F
    if opcode != 0:
        raise Malformed(f"opcode {opcode} not supported")
    if qdcount != 1:
        raise Malformed(f"expected exactly one question, got {qdcount}")
    question, pos = _name_at(data, _HEADER.size, end, _question, _PAIR.size)
    if type(question) is str:  # walked: a valid name comes back only when no type and class follow it
        raise _truncated(_PAIR.size, pos, end) if question else Malformed("empty question name")

    answers = []
    for _ in range(ancount):
        name, rtype, rclass, ttl, rdata, pos = _record_at(data, pos, end)
        if rtype == TYPE_OPT:
            raise Malformed("OPT record in answer section")
        if rclass != CLASS_IN:
            raise Malformed(f"answer class {rclass} not supported")
        answers.append(ResourceRecord(name, rtype, ttl, rdata))

    for _ in range(nscount):
        pos = _record_at(data, pos, end)[-1]

    edns = None
    for _ in range(arcount):
        name, rtype, rclass, ttl, rdata, pos = _record_at(data, pos, end)
        if rtype == TYPE_OPT:
            if edns is not None:
                raise Malformed("more than one OPT record")
            edns = (_decode_opt if len(rdata) <= _MEMO_OCTETS else _decode_opt.__wrapped__)(name, rclass, ttl, rdata)

    if pos != end:
        raise Malformed(f"{end - pos} trailing octets")
    qr, rd, ra = bool(flags & 0x8000), bool(flags & 0x0100), bool(flags & 0x0080)
    return msg_id, qr, rd, ra, flags & 0x0F, question, tuple(answers), edns
