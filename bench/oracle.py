"""Independent DNS codec and answer checks for the benchmark.

Written from RFC 1035 and RFC 7871 without importing ecsloc, so a defect
in the program's codec cannot hide behind the same defect in the checker.
Query bytes built here are what the program receives; responses are
decoded here and compared with the generator's own tables.
"""

from __future__ import annotations

import ipaddress
import json
import struct
from pathlib import Path

QTYPE_A = 1
QTYPE_AAAA = 28
TYPE_OPT = 41
ECS_CODE = 8
UDP_PAYLOAD = 1232
FLAG_QR = 0x8000
FLAG_RD = 0x0100


def _name(qname: str) -> bytes:
    out = bytearray()
    for label in qname.rstrip(".").split("."):
        raw = label.encode("ascii")
        out.append(len(raw))
        out += raw
    out.append(0)
    return bytes(out)


def encode_query(msg_id: int, qname: str, qtype: int = QTYPE_A, ecs=None) -> bytes:
    """Recursion-desired query; *ecs* is (network, prefix_len) or None.

    With ECS the query carries one OPT record whose only option is the
    client subnet, source prefix as given and scope 0.
    """
    arcount = 0 if ecs is None else 1
    out = bytearray(struct.pack("!HHHHHH", msg_id, FLAG_RD, 1, 0, 0, arcount))
    out += _name(qname)
    out += struct.pack("!HH", qtype, 1)
    if ecs is not None:
        network, plen = ecs
        net = ipaddress.ip_network(network)
        family = 1 if net.version == 4 else 2
        address = net.network_address.packed[: (plen + 7) // 8]
        option = struct.pack("!HBB", family, plen, 0) + address
        rdata = struct.pack("!HH", ECS_CODE, len(option)) + option
        out += b"\x00" + struct.pack("!HHIH", TYPE_OPT, UDP_PAYLOAD, 0, len(rdata)) + rdata
    return bytes(out)


def _skip_name(data: bytes, pos: int) -> int:
    while True:
        length = data[pos]
        if length == 0:
            return pos + 1
        if length & 0xC0 == 0xC0:
            return pos + 2
        pos += 1 + length


def decode_response(data: bytes) -> tuple[int, int, tuple[str, ...]]:
    """(id, flags, answer addresses in wire order) of a response.

    Raises ValueError on anything that is not a well-formed response with
    one question and only A/AAAA answers.
    """
    if len(data) < 12:
        raise ValueError("shorter than a header")
    msg_id, flags, qdcount, ancount, _, _ = struct.unpack_from("!HHHHHH", data)
    if qdcount != 1:
        raise ValueError(f"qdcount {qdcount}")
    pos = _skip_name(data, 12) + 4
    answers = []
    for _ in range(ancount):
        pos = _skip_name(data, pos)
        rtype, _, _, rdlen = struct.unpack_from("!HHIH", data, pos)
        pos += 10
        rdata = data[pos : pos + rdlen]
        if len(rdata) != rdlen:
            raise ValueError("answer rdata truncated")
        if (rtype, rdlen) not in ((QTYPE_A, 4), (QTYPE_AAAA, 16)):
            raise ValueError(f"answer type {rtype} with {rdlen} octets")
        answers.append(str(ipaddress.ip_address(rdata)))
        pos += rdlen
    return msg_id, flags, tuple(answers)


def check_answer(response: bytes, msg_id: int, expected: tuple[str, ...]) -> str | None:
    """None when *response* answers query *msg_id* with *expected*, else why not."""
    try:
        got_id, flags, answers = decode_response(response)
    except (ValueError, IndexError, struct.error) as exc:
        return f"undecodable response: {exc}"
    if got_id != msg_id:
        return f"id {got_id} != {msg_id}"
    if not flags & FLAG_QR:
        return "QR bit clear"
    if flags & 0x000F:
        return f"rcode {flags & 0x000F}"
    if answers != expected:
        return f"answers {answers} != {expected}"
    return None


def decimal(value) -> str:
    """The CLI's rendering of an exact ratio."""
    return str(float(value))


def matrix_table(regions, truth) -> str:
    """Expected `analyze matrix` output from the generator's per-region sets."""
    lines = ["region," + ",".join(regions)]
    for a in regions:
        lines.append(a + "," + ",".join(decimal(truth.jaccard(a, b)) for b in regions))
    return "\n".join(lines) + "\n"


def compare_table(rows) -> str:
    """Expected `mud compare` output from (k, unified, collapsed, ratio) rows."""
    lines = ["locations_included,unified_domains,ecs_domains,ratio"]
    lines += [f"{k},{u},{e},{decimal(r)}" for k, u, e, r in rows]
    return "\n".join(lines) + "\n"


def mud_endpoints(path) -> set[str]:
    """Endpoints listed in an allowlist document, read as plain JSON."""
    doc = json.loads(Path(path).read_text())
    return {ace["endpoint"] for acl in doc["acls"] for ace in acl["aces"]}
