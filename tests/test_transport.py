"""In-process and UDP transports expose the same exchange surface."""

import pytest
from helpers import FIXTURES

from ecsloc.resolver import Authoritative, Forward, Resolver
from ecsloc.transport import InProcessLink, UdpClient, UdpServer
from ecsloc.wire import EcsOption, decode_message, encode_message, make_query
from ecsloc.zone import GeoZone


def test_in_process_link_calls_handler():
    link = InProcessLink(lambda payload, source: payload[::-1])
    assert link.exchange(b"abc", "10.0.0.1") == b"cba"


def test_udp_resolver_front_end():
    zone = GeoZone.load(FIXTURES / "zone.json")
    authoritative = Authoritative(zone)
    resolver = Resolver(Forward(), "HK", InProcessLink(authoritative.handle), zone.regions)
    query = make_query("api.example.iot", ecs=EcsOption.for_prefix("198.18.1.0", 24), msg_id=42)
    try:
        with UdpServer(resolver.handle) as server:
            client = UdpClient(*server.address)
            response = decode_message(client.exchange(encode_message(query)))
    except OSError as exc:
        pytest.skip(f"UDP loopback unavailable: {exc}")
    assert response.id == 42
    assert {rr.address() for rr in response.answers} == {"203.0.113.10"}


def test_udp_server_drops_garbage_and_keeps_serving():
    zone = GeoZone.load(FIXTURES / "zone.json")
    authoritative = Authoritative(zone)
    try:
        with UdpServer(authoritative.handle) as server:
            client = UdpClient(*server.address, timeout=0.3)
            with pytest.raises(OSError):
                client.exchange(b"\x00\x01")  # truncated header: no reply
            query = make_query("api.example.iot", msg_id=7)
            response = decode_message(client.exchange(encode_message(query)))
    except OSError as exc:
        pytest.skip(f"UDP loopback unavailable: {exc}")
    assert response.id == 7
