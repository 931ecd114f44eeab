"""One HTTP/1.1 codec for both ends of the wire, and a bare GET client.

The probe writes a GET and parses the reply, the emulator parses the GET
and writes the reply, both through one head splitter, field scanner and
head assembler. Redirects are never followed; one request, one recorded
response. The observation keeps a digest plus the first 4096 body bytes,
enough to match warning-page fingerprints without storing full pages. A
request is started (connect and send, without waiting) and its steps()
later wait for the reply; fetch() is the two in a row. Every socket is
non-blocking, and the waiting is left to a loop on select.poll (see
loop), so the client needs a POSIX system.
"""

from __future__ import annotations

import errno
import hashlib
import os
import select
import socket
import time
from collections.abc import Generator

from .loop import drive
from .model import EXCERPT_LIMIT, HttpObservation

MAX_BODY = 1 << 20


class HttpTransportError(OSError):
    pass


HEAD_END = b"\r\n\r\n"  # the blank line that ends a message head


def _split_head(raw: bytes) -> tuple[bytes, list[bytes], bytes | None]:
    """Start line, field lines and body; the body is None if the head never ends."""
    head, sep, body = raw.partition(HEAD_END)
    start, _, fields = head.partition(b"\r\n")
    return start, fields.split(b"\r\n"), body if sep else None


def _field(lines: list[bytes], name: bytes) -> str | None:
    """The stripped value of the last field line called `name` (lower case)."""
    value = None
    for line in lines:
        key, _, rest = line.partition(b":")
        if key.strip().lower() == name:
            value = rest
    return None if value is None else value.decode("latin-1").strip()


def _head(lines: list[str]) -> bytes:
    """The start line and field lines, then Connection: close, which every
    message of this codec sends, and the blank line."""
    lines.append("Connection: close\r\n\r\n")
    return "\r\n".join(lines).encode("latin-1")


def start_line(message: bytes) -> str:
    """A message's first line; a slice, so that a long body is not copied."""
    end = message.find(b"\r\n")
    return message[: end if end >= 0 else None].decode("latin-1")


def encode_request(host: str, uri: str) -> bytes:
    """The probe's GET of uri with the given Host header."""
    return _head([f"GET {uri} HTTP/1.1", f"Host: {host}", "Accept: */*"])


def parse_request(raw: bytes) -> tuple[str, str, str] | None:
    """(method, uri, lower-cased host) of a request head, read as it stands
    if it never ends; None unless the request line is three words ending in
    an HTTP version and the Host field is not empty."""
    start, fields, _ = _split_head(raw)
    parts = start.decode("latin-1").split(" ")
    host = _field(fields, b"host")
    if len(parts) != 3 or not parts[2].startswith("HTTP/") or not host:
        return None
    return parts[0], parts[1], host.lower()


def encode_response(status: int, reason: str, body: bytes, *fields: tuple[str, str]) -> bytes:
    """A reply: the status line, `fields`, Content-Type, Content-Length and
    Connection: close, then body."""
    lines = [f"HTTP/1.1 {status} {reason}"]
    for name, value in fields:
        lines.append(f"{name}: {value}")
    lines.append("Content-Type: text/html")
    lines.append(f"Content-Length: {len(body)}")
    return _head(lines) + body


def parse_response(raw: bytes) -> tuple[int, str | None, str | None, bytes]:
    """(status, Location, Last-Modified, body) of a whole reply; a field it
    lacks is None. Raises HttpTransportError when the head never ends or
    the status line does not parse."""
    start, fields, body = _split_head(raw)
    if body is None:
        raise HttpTransportError("no header terminator in response")
    status_parts = start.split(b" ", 2)
    if len(status_parts) < 2 or not status_parts[0].startswith(b"HTTP/"):
        raise HttpTransportError(f"bad status line: {start!r}")
    try:
        status = int(status_parts[1])
    except ValueError as exc:
        raise HttpTransportError(f"bad status code: {start!r}") from exc
    if not 100 <= status <= 599:
        raise HttpTransportError(f"status code out of range: {start!r}")
    # Chunked bodies: we always send Connection: close, so read-to-EOF is
    # enough, but strip chunk framing when the server used it anyway.
    if (_field(fields, b"transfer-encoding") or "").lower() == "chunked":
        body = _dechunk(body)
    return status, _field(fields, b"location"), _field(fields, b"last-modified"), body


def _dechunk(body: bytes) -> bytes:
    out = bytearray()
    pos = 0
    while pos < len(body):
        nl = body.find(b"\r\n", pos)
        if nl < 0:
            break
        try:
            size = int(body[pos:nl].split(b";")[0], 16)
        except ValueError:
            break
        if size == 0:
            break
        out += body[nl + 2 : nl + 2 + size]
        pos = nl + 2 + size + 2
    return bytes(out)


def connect(sockaddr: tuple, family: int | None = None) -> socket.socket:
    """A non-blocking TCP socket whose connect to sockaddr is under way (or
    done). Its family is `family`, else IPv6 for an address with a colon and
    IPv4 for any other. Raises the OSError of a connect that fails at once."""
    if family is None:
        family = socket.AF_INET6 if ":" in sockaddr[0] else socket.AF_INET
    sock = socket.socket(family, socket.SOCK_STREAM)
    try:
        sock.setblocking(False)
        err = sock.connect_ex(sockaddr)
        if err and err != errno.EINPROGRESS:
            raise OSError(err, os.strerror(err))
    except OSError:
        sock.close()
        raise
    return sock


class Request:
    """One GET on the wire: start() opens it and sends what the socket
    takes, steps() reads the reply. Close one whose steps never run."""

    def __init__(self, address: str, host: str, uri: str, port: int, timeout: float):
        self.address, self.host, self.uri, self.port = address, host, uri, port
        self.timeout = timeout
        self.deadline = time.monotonic() + timeout
        self.unsent = encode_request(host, uri)
        self.sock: socket.socket | None = None
        self.error: OSError | None = None
        self.endpoints: list[tuple[int | None, tuple]] = []  # those not tried yet
        self.chunks: list[bytes] = []
        self.received = 0

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()

    def _connect_next(self) -> None:
        """Connect to the next endpoint; one that fails at once gives way to
        the one after it, and the last one's error propagates."""
        while True:
            family, sockaddr = self.endpoints.pop(0)
            try:
                self.sock = connect(sockaddr, family)
                return
            except OSError:
                if not self.endpoints:
                    raise

    def _send(self) -> int:
        """Send what the socket takes now: POLLOUT while some is left, else 0."""
        while self.unsent:
            try:
                sent = self.sock.send(self.unsent)
            except BlockingIOError:
                return select.POLLOUT
            except OSError:
                if not self.endpoints:
                    raise
                self.sock.close()  # this endpoint refused: try the next
                self._connect_next()
                continue
            self.endpoints = []  # connected: no other address is tried
            self.unsent = self.unsent[sent:]
        return 0

    def _read(self) -> int:
        """Read what has arrived: POLLIN until EOF or MAX_BODY, then 0."""
        while self.received < MAX_BODY:
            try:
                chunk = self.sock.recv(65536)
            except BlockingIOError:
                return select.POLLIN
            if not chunk:
                break
            self.chunks.append(chunk)
            self.received += len(chunk)
        return 0

    def steps(self) -> Generator[tuple, list, HttpObservation]:
        """Wait for the reply until EOF, MAX_BODY bytes or the deadline, then
        close the socket; a step generator (see loop). The deadline is
        `timeout` after start() if the GET went out then, as when the connect
        completes inside it (loopback); if some of it has not, it is `timeout`
        from the first step, since nothing sent it meanwhile. Raises
        HttpTransportError (an OSError) on connect failure, timeout, reset,
        or an unparseable response."""
        try:
            if self.error is not None:
                raise self.error
            if self.unsent:
                self.deadline = max(self.deadline, time.monotonic() + self.timeout)
            while event := self._send() or self._read():
                if not (yield [(self.sock.fileno(), event)], self.deadline):
                    raise TimeoutError("timed out")
        except OSError as exc:
            where = f"{self.host} via {self.address}:{self.port}"
            raise HttpTransportError(f"{where}: {exc}") from exc
        finally:
            self.close()
        status, location, last_modified, body = parse_response(b"".join(self.chunks))
        return HttpObservation(
            request_host=self.host,
            request_uri=self.uri,
            status=status,
            location=location if status in (301, 302) else None,
            last_modified=last_modified,
            body_digest=hashlib.sha256(body).hexdigest(),
            body_excerpt=body[:EXCERPT_LIMIT],
        )


def _endpoints(address: str, port: int) -> list[tuple[int | None, tuple]]:
    """(family, sockaddr) to try in turn: an IP literal as it is, its family
    left to connect(); a name as each address one lookup gives."""
    try:
        if ":" not in address:  # an IPv6 literal; a name has no colon
            socket.inet_pton(socket.AF_INET, address)
    except OSError:
        infos = socket.getaddrinfo(address, port, type=socket.SOCK_STREAM)
        return [(family, sockaddr) for family, _, _, _, sockaddr in infos]
    return [(None, (address, port))]


def start(
    address: str,
    host: str,
    uri: str,
    port: int = 80,
    timeout: float = 10.0,
) -> Request:
    """Open a GET of uri from address with the given Host header, and send
    as much of it as the socket takes without waiting.

    A name is looked up once and its addresses are tried in turn, all
    within the one `timeout` (see Request.steps()). Raises no OSError:
    Request.steps() reports it.
    """
    request = Request(address, host, uri, port, timeout)
    try:
        request.endpoints = _endpoints(address, port)
        request._connect_next()
        request._send()
    except OSError as exc:
        request.close()
        request.error = exc
    return request


def fetch(
    address: str,
    host: str,
    uri: str,
    port: int = 80,
    timeout: float = 10.0,
) -> HttpObservation:
    """GET uri from address with the given Host header: start(), then its
    steps() under loop.drive. `timeout` bounds the whole exchange after a
    name's lookup: the connect to each of its addresses, the send and the
    read. Raises HttpTransportError as Request.steps() does.
    """
    return drive(start(address, host, uri, port, timeout).steps())
