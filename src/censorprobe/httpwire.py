"""Bare HTTP/1.1 GET over a socket with an explicit Host header.

Redirects are never followed; one request, one recorded response. The
observation keeps a digest plus the first 4096 body bytes, enough to
match warning-page fingerprints without storing full pages.
"""

from __future__ import annotations

import hashlib
import socket

from .model import EXCERPT_LIMIT, HttpObservation

MAX_BODY = 1 << 20


class HttpTransportError(OSError):
    pass


def _recv_all(sock: socket.socket, limit: int = MAX_BODY) -> bytes:
    chunks = []
    total = 0
    while total < limit:
        chunk = sock.recv(65536)
        if not chunk:
            break
        chunks.append(chunk)
        total += len(chunk)
    return b"".join(chunks)


def _parse_response(raw: bytes) -> tuple[int, dict[str, str], bytes]:
    head, sep, body = raw.partition(b"\r\n\r\n")
    if not sep:
        raise HttpTransportError("no header terminator in response")
    lines = head.split(b"\r\n")
    status_parts = lines[0].split(b" ", 2)
    if len(status_parts) < 2 or not status_parts[0].startswith(b"HTTP/"):
        raise HttpTransportError(f"bad status line: {lines[0]!r}")
    try:
        status = int(status_parts[1])
    except ValueError as exc:
        raise HttpTransportError(f"bad status code: {lines[0]!r}") from exc
    if not 100 <= status <= 599:
        raise HttpTransportError(f"status code out of range: {lines[0]!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        if name:
            headers[name.decode("latin-1").strip().lower()] = value.decode(
                "latin-1"
            ).strip()
    # Chunked bodies: we always send Connection: close, so read-to-EOF is
    # enough, but strip chunk framing when the server used it anyway.
    if headers.get("transfer-encoding", "").lower() == "chunked":
        body = _dechunk(body)
    return status, headers, body


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


def fetch(
    address: str,
    host: str,
    uri: str,
    port: int = 80,
    timeout: float = 10.0,
) -> HttpObservation:
    """GET uri from address with the given Host header.

    Raises HttpTransportError (an OSError) on connect failure, timeout,
    reset, or an unparseable response.
    """
    request = (
        f"GET {uri} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Accept: */*\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("latin-1")
    try:
        with socket.create_connection((address, port), timeout=timeout) as sock:
            sock.settimeout(timeout)
            sock.sendall(request)
            raw = _recv_all(sock)
    except HttpTransportError:
        raise
    except OSError as exc:
        raise HttpTransportError(f"{host} via {address}:{port}: {exc}") from exc
    status, headers, body = _parse_response(raw)
    return HttpObservation(
        request_host=host,
        request_uri=uri,
        status=status,
        location=headers.get("location") if status in (301, 302) else None,
        last_modified=headers.get("last-modified"),
        body_digest=hashlib.sha256(body).hexdigest(),
        body_excerpt=body[:EXCERPT_LIMIT],
    )
