"""In-process and UDP transports expose the same exchange surface."""

import math
import re
import socket
import struct
import sys
import threading
import time
import types

import pytest
from helpers import FIXTURES

from ecsloc import transport
from ecsloc.resolver import Authoritative, Forward, Resolver
from ecsloc.transport import InProcessLink, UdpClient, UdpServer
from ecsloc.wire import EcsOption, decode_message, encode_message, make_query
from ecsloc.zone import GeoZone

QUERY = encode_message(make_query("api.example.iot", msg_id=7))


def other_id(payload: bytes) -> bytes:
    """*payload* under a message ID one above its own."""
    return ((int.from_bytes(payload[:2], "big") + 1) % 65536).to_bytes(2, "big") + payload[2:]


@pytest.fixture
def peer():
    """A bare UDP socket on loopback standing in for the server."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sock.bind(("127.0.0.1", 0))
    except OSError as exc:
        sock.close()
        pytest.skip(f"UDP loopback unavailable: {exc}")
    sock.settimeout(2.0)
    with sock:
        yield sock


def answer(peer, replies, sources=None):
    """From a thread, answer the next query at *peer* with each datagram of replies(query).

    The query's source address is appended to *sources* when given.
    """
    def run():
        query, client = peer.recvfrom(65535)
        if sources is not None:
            sources.append(client)
        for datagram in replies(query):
            peer.sendto(datagram, client)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


def joined(thread) -> bool:
    thread.join(timeout=2.0)
    return not thread.is_alive()


def kernel_timeout(sock) -> float:
    """The receive timeout (SO_RCVTIMEO) the kernel holds for *sock*, in seconds."""
    size = struct.calcsize("@ll")
    seconds, microseconds = struct.unpack("@ll", sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, size))
    return seconds + microseconds / 1e6


def test_in_process_link_calls_handler():
    link = InProcessLink(lambda payload, source: payload[::-1])
    assert link.exchange(b"abc", "10.0.0.1") == b"cba"


def test_udp_resolver_front_end():
    zone = GeoZone.load(FIXTURES / "zone.json")
    authoritative = Authoritative(zone)
    resolver = Resolver(Forward(), "HK", InProcessLink(authoritative.handle), zone.regions)
    query = make_query("api.example.iot", ecs=EcsOption.for_prefix("198.18.1.0", 24), msg_id=42)
    try:
        with UdpServer(resolver.handle) as server, UdpClient(*server.address) as client:
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
            with UdpClient(*server.address, timeout=0.3) as client:
                with pytest.raises(OSError):
                    client.exchange(b"\x00\x01")  # truncated header: no reply
                response = decode_message(client.exchange(QUERY))
    except OSError as exc:
        pytest.skip(f"UDP loopback unavailable: {exc}")
    assert response.id == 7
    # the wake-up datagram of stop() is not a packet served
    assert (server.received, server.answered, server.dropped) == (2, 1, 1)


def test_udp_server_drops_a_response_sent_to_the_authoritative():
    authoritative = Authoritative(GeoZone.load(FIXTURES / "zone.json"))
    own_reply = authoritative.handle(QUERY, "198.18.0.9")
    try:
        with UdpServer(authoritative.handle) as server:
            with UdpClient(*server.address, timeout=0.3) as client:
                with pytest.raises(OSError):
                    client.exchange(own_reply)  # refused: no reply
                response = decode_message(client.exchange(QUERY))
    except OSError as exc:
        pytest.skip(f"UDP loopback unavailable: {exc}")
    assert response.id == 7
    assert (server.received, server.answered, server.dropped) == (2, 1, 1)


def test_udp_server_counts_a_reply_it_cannot_send_as_dropped():
    try:
        with UdpServer(lambda payload, source: b"x" * 70_000) as server:  # too long for a datagram
            with UdpClient(*server.address, timeout=0.3) as client:
                with pytest.raises(TimeoutError):
                    client.exchange(QUERY)
    except OSError as exc:
        pytest.skip(f"UDP loopback unavailable: {exc}")
    assert (server.received, server.answered, server.dropped) == (1, 0, 1)


def test_udp_server_stop_wakes_its_thread_at_once():
    try:
        server = UdpServer(lambda payload, source: payload).start()
    except OSError as exc:
        pytest.skip(f"UDP loopback unavailable: {exc}")
    thread = server._thread
    with UdpClient(*server.address) as client:
        assert client.exchange(QUERY) == QUERY
    started = time.monotonic()
    server.stop()
    assert time.monotonic() - started < 0.1
    assert not thread.is_alive()
    assert (server.received, server.answered, server.dropped) == (1, 1, 0)


def test_client_discards_a_reply_with_another_id(peer):
    with UdpClient(*peer.getsockname()) as client:
        thread = answer(peer, lambda query: (other_id(query), query))
        assert client.exchange(QUERY) == QUERY
    assert joined(thread)


def test_client_exchanges_share_one_source_port(peer):
    sources = []
    with UdpClient(*peer.getsockname()) as client:
        for _ in range(2):
            thread = answer(peer, lambda query: (query,), sources)
            assert client.exchange(QUERY) == QUERY
            assert joined(thread)
    assert len(sources) == 2 and sources[0] == sources[1]


def test_client_never_returns_a_datagram_from_another_source(peer):
    sources = []
    with UdpClient(*peer.getsockname()) as client:
        thread = answer(peer, lambda query: (query,), sources)
        client.exchange(QUERY)
        assert joined(thread)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as stranger:
            stranger.sendto(QUERY[:2] + b"spoofed", sources[0])  # the right ID, the wrong source
        thread = answer(peer, lambda query: (query + b"genuine",))
        assert client.exchange(QUERY) == QUERY + b"genuine"
    assert joined(thread)


def test_client_wrong_ids_cannot_stretch_the_timeout(peer):
    done = threading.Event()

    def flood(query):
        while not done.is_set():
            yield other_id(query)
            time.sleep(0.01)

    thread = answer(peer, flood)
    try:
        with UdpClient(*peer.getsockname(), timeout=0.2) as client:
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                client.exchange(QUERY)
            assert time.monotonic() - started < 0.6
    finally:
        done.set()
    assert joined(thread)


def test_client_wrong_id_after_the_deadline_times_out(peer, monkeypatch):
    clock = iter([0.0, 5.0])  # at the send, then when the wrong-ID reply is read: past the 2 s timeout
    monkeypatch.setattr(transport, "time", types.SimpleNamespace(monotonic=lambda: next(clock)))
    thread = answer(peer, lambda query: (other_id(query), query))
    with UdpClient(*peer.getsockname()) as client:
        with pytest.raises(TimeoutError, match="^timed out$"):
            client.exchange(QUERY)
        assert kernel_timeout(client._sock) == 2.0
    assert joined(thread)


def test_client_socket_blocks_under_the_kernel_timeout(peer):
    thread = answer(peer, lambda query: (query,))
    with UdpClient(*peer.getsockname(), timeout=1.5) as client:
        assert client.exchange(QUERY) == QUERY
        assert client._sock.gettimeout() is None
        assert kernel_timeout(client._sock) == 1.5
    assert joined(thread)


def test_client_restores_the_full_timeout_after_a_wrong_id(peer, monkeypatch):
    clock = iter([0.0, 1.0])  # at the send, then when the wrong-ID reply is read: 1 s of 2 s left
    monkeypatch.setattr(transport, "time", types.SimpleNamespace(monotonic=lambda: next(clock)))
    armed = []
    set_receive_timeout = transport._set_receive_timeout

    def recorded(sock, seconds):
        armed.append(seconds)
        set_receive_timeout(sock, seconds)

    monkeypatch.setattr(transport, "_set_receive_timeout", recorded)
    thread = answer(peer, lambda query: (other_id(query), query))
    with UdpClient(*peer.getsockname()) as client:
        assert client.exchange(QUERY) == QUERY
        assert kernel_timeout(client._sock) == 2.0
    assert armed == [2.0, 1.0, 2.0]  # at connect, for what is left, then in full again
    assert joined(thread)


def test_client_times_out_on_a_silent_peer(peer):
    with UdpClient(*peer.getsockname(), timeout=0.2) as client:
        started = time.monotonic()
        with pytest.raises(TimeoutError, match="^timed out$"):
            client.exchange(QUERY)
        assert 0.1 < time.monotonic() - started < 0.7


class _RefusingSocket(socket.socket):
    """A real UDP socket whose connect fails before any datagram is sent."""

    def connect(self, address):
        raise OSError("connect refused by the test")


def test_client_closes_its_socket_when_connect_fails(monkeypatch):
    made = []

    def recorded(*args):
        made.append(_RefusingSocket(*args))
        return made[-1]

    monkeypatch.setattr(transport, "socket", types.SimpleNamespace(
        socket=recorded, AF_INET=socket.AF_INET, SOCK_DGRAM=socket.SOCK_DGRAM,
        SOL_SOCKET=socket.SOL_SOCKET, SO_RCVTIMEO=socket.SO_RCVTIMEO,
    ))
    with UdpClient("127.0.0.1", 53) as client:
        with pytest.raises(OSError, match="^connect refused by the test$"):
            client.exchange(QUERY)
        assert client._sock is None
    assert len(made) == 1 and made[0].fileno() == -1


@pytest.mark.parametrize("port", [-1, 65536])
def test_client_refuses_a_port_out_of_range(port):
    with pytest.raises(ValueError, match=f"^port {port} out of range$"):
        UdpClient("127.0.0.1", port)


@pytest.mark.parametrize("timeout", [0, -1, math.nan, math.inf, None])
def test_client_refuses_a_timeout_that_is_not_finite_and_positive(timeout):
    with pytest.raises(ValueError, match=f"^timeout {timeout!r} is not a finite number of seconds above 0$"):
        UdpClient("127.0.0.1", 53, timeout=timeout)


# A struct timeval's seconds are a C long: on 64-bit Linux the largest float below 2 ** 63 is the largest
# timeout it holds, as its microseconds round up to no more than 2 ** 63 - 1024 seconds
TIMEVAL_LINUX64 = pytest.mark.skipif(
    not sys.platform.startswith("linux") or struct.calcsize("@l") != 8, reason="a timeval of 64-bit seconds"
)


@TIMEVAL_LINUX64
def test_client_takes_the_largest_timeout_the_kernel_holds(peer):
    thread = answer(peer, lambda query: (query,))
    with UdpClient(*peer.getsockname(), timeout=math.nextafter(2.0**63, 0)) as client:
        assert client.exchange(QUERY) == QUERY
    assert joined(thread)


@TIMEVAL_LINUX64
@pytest.mark.parametrize("timeout", [2.0**63, 2**63 - 1, 1e30, 1e303, sys.float_info.max])
def test_client_refuses_a_timeout_the_kernel_cannot_hold(timeout):
    message = f"timeout {timeout!r} is more seconds than the kernel's receive timeout holds"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        UdpClient("127.0.0.1", 53, timeout=timeout)


def test_server_closes_its_socket_when_bind_fails(monkeypatch):
    made = []

    def recorded(*args):
        made.append(socket.socket(*args))
        return made[-1]

    monkeypatch.setattr(transport, "socket", types.SimpleNamespace(
        socket=recorded, AF_INET=socket.AF_INET, SOCK_DGRAM=socket.SOCK_DGRAM,
    ))
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as taken:
        taken.bind(("127.0.0.1", 0))
        with pytest.raises(OSError):  # the address is in use
            UdpServer(lambda payload, source: payload, port=taken.getsockname()[1])
    assert len(made) == 1 and made[0].fileno() == -1


def test_client_refused_port_raises_at_once():
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
        probe.bind(("127.0.0.1", 0))
        closed_port = probe.getsockname()[1]
    with UdpClient("127.0.0.1", closed_port) as client:
        with pytest.raises(ConnectionRefusedError):
            client.exchange(QUERY)
