"""Message transports: an in-process channel for deterministic tests and
an optional UDP pair exposing the same exchange interface.

A UDP exchange is one send and one receive system call: the client's
socket stays in blocking mode and the kernel enforces its timeout
(SO_RCVTIMEO)."""

from __future__ import annotations

import math
import socket
import struct
import sys
import threading
import time


class InProcessLink:
    """Synchronous channel calling a handler(payload, source) -> payload."""

    def __init__(self, handler):
        self.handler = handler

    def exchange(self, payload: bytes, source: str) -> bytes:
        return self.handler(payload, source)


class UdpClient:
    """UDP exchanges with (host, port) over one connected socket; the OS supplies the real source.

    The socket opens on the first exchange and is connected to the remote,
    so the kernel drops datagrams from any other source, and a refused port
    raises ConnectionRefusedError.  A reply whose message ID (its first two
    octets) differs from the query's is discarded, and the wait goes on for
    what is left of *timeout*.  *timeout* must be a finite number of
    seconds above 0, or the client refuses it with ValueError when built.
    The socket blocks and the kernel enforces the timeout (SO_RCVTIMEO), so
    a signal handler that interrupts the wait restarts the whole timeout
    (PEP 475).  The source port stays fixed for the client's life: fine
    for a test harness, not for a resolver's upstream socket (RFC 5452
    section 9.2).  Exchanges run one at a time: share no client between
    threads.  close() it, or use it in a with statement.
    """

    def __init__(self, host: str, port: int, timeout: float = 2.0):
        if not 0 <= port <= 65535:
            raise ValueError(f"port {port} out of range")
        if not isinstance(timeout, (int, float)) or not 0 < timeout < math.inf:
            raise ValueError(f"timeout {timeout!r} is not a finite number of seconds above 0")
        self.remote = (host, port)
        self.timeout = timeout
        self._sock = None

    def exchange(self, payload: bytes, source: str = "") -> bytes:
        start = time.monotonic()
        sock = self._sock if self._sock is not None else self._connect()
        sock.send(payload)
        try:
            reply = sock.recv(65535)
            if reply[:2] == payload[:2]:
                return reply
            # RFC 5452 section 3: a reply to another query is not this query's answer
            try:
                while reply[:2] != payload[:2]:
                    remaining = start + self.timeout - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError("timed out")
                    _set_receive_timeout(sock, remaining)
                    reply = sock.recv(65535)
            finally:
                _set_receive_timeout(sock, self.timeout)
            return reply
        except BlockingIOError:  # the kernel's timeout ran out (EAGAIN)
            raise TimeoutError("timed out") from None

    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            _set_receive_timeout(sock, self.timeout)
            sock.connect(self.remote)
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        return sock

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            sock.close()

    def __enter__(self) -> "UdpClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _set_receive_timeout(sock: socket.socket, seconds: float) -> None:
    """Set the kernel's receive timeout of *sock*, rounded up to its unit: 0 would wait forever."""
    if sys.platform == "win32":  # a DWORD of milliseconds
        value = struct.pack("@L", max(1, math.ceil(seconds * 1e3)))
    else:  # a struct timeval
        value = struct.pack("@ll", *divmod(max(1, math.ceil(seconds * 1e6)), 1_000_000))
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, value)


class UdpServer:
    """Threaded UDP front end for a handler(payload, source) -> payload.

    The serving thread blocks in recvfrom; stop() wakes it with one empty
    datagram to the server's own address.  A server whose bind fails closes
    its socket before the error propagates.  It counts packets `received`,
    `answered` and `dropped`: a packet is dropped when its handler raised
    or its reply could not be sent.  Only the serving thread writes the
    counts.  The handler must provide its own serialization if it mutates
    shared state.
    """

    def __init__(self, handler, host: str = "127.0.0.1", port: int = 0):
        self.handler = handler
        self.received = self.answered = self.dropped = 0
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self._sock.bind((host, port))
        except BaseException:
            self._sock.close()
            raise
        self._thread = None
        self._running = False

    @property
    def address(self) -> tuple[str, int]:
        return self._sock.getsockname()[:2]

    def start(self) -> "UdpServer":
        self._running = True
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        return self

    def _serve(self) -> None:
        sock = self._sock
        while True:
            try:
                data, peer = sock.recvfrom(65535)
            except OSError:
                break
            if not self._running:
                break
            self.received += 1
            try:
                sock.sendto(self.handler(data, peer[0]), peer)
            except Exception:
                self.dropped += 1
            else:
                self.answered += 1

    def stop(self) -> None:
        self._running = False
        if self._thread is not None and self._thread.is_alive():
            self._sock.sendto(b"", self._sock.getsockname())
            self._thread.join(timeout=2.0)
        self._sock.close()

    def __enter__(self) -> "UdpServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
