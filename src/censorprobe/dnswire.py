"""Minimal DNS wire format: A queries, A/NXDOMAIN answers, and a UDP client
that asks many servers at once.

Only what the probe and emulator need: QTYPE A, QCLASS IN, compression
pointers on decode. The one pointer encoded is c0 0c, the owner of each answer.
"""

from __future__ import annotations

import random
import select
import socket
import struct
import time
from collections.abc import Generator
from dataclasses import dataclass, field

from .loop import drive

QTYPE_A = 1
QCLASS_IN = 1

RCODE_NOERROR = 0
RCODE_FORMERR = 1
RCODE_SERVFAIL = 2
RCODE_NXDOMAIN = 3


class DnsError(OSError):
    """The one error of this layer: a name that cannot be encoded, a socket
    error, a garbled reply (DnsDecodeError) or no reply in time (DnsTimeout)."""


class DnsDecodeError(DnsError):
    pass


class DnsTimeout(DnsError, TimeoutError):
    pass


def encode_name(name: str) -> bytes:
    """Uncompressed wire form of a dotted name; "" or "." is the root."""
    out = bytearray()
    if name not in ("", "."):
        for label in name.rstrip(".").split("."):
            if not (label.isascii() and 0 < len(label) < 64):
                raise DnsError(f"bad label in {name!r}")
            out.append(len(label))
            out.extend(label.encode("ascii"))
    out.append(0)
    return bytes(out)


def decode_name(data: bytes, offset: int) -> tuple[str, int]:
    """Decode a possibly-compressed name; returns (name, next offset)."""
    labels = []
    end = hops = 0  # end is set at the first pointer
    while offset < len(data):
        length = data[offset]
        if 0 < length < 0x40:
            label = data[offset + 1 : offset + 1 + length]
            if len(label) < length:
                raise DnsDecodeError("truncated label")
            if not label.isascii() or b"." in label:
                # a dotted-string name could not carry it back to the wire
                raise DnsDecodeError(f"unrepresentable label {label!r}")
            labels.append(label)
            offset += 1 + length
        elif length == 0:
            return b".".join(labels).decode("ascii"), end or offset + 1
        elif length < 0xC0:
            raise DnsDecodeError("reserved label type")
        elif offset + 1 >= len(data):
            raise DnsDecodeError("truncated pointer")
        else:
            end = end or offset + 2
            offset = ((length & 0x3F) << 8) | data[offset + 1]
            hops += 1
            if hops > 32:
                raise DnsDecodeError("pointer loop")
    raise DnsDecodeError("truncated name")


_HEADER = struct.Struct(">HHHHHH")
_RECORD = struct.Struct(">HHIH")  # type, class, ttl, rdlength
_QUESTION_TAIL = struct.pack(">HH", QTYPE_A, QCLASS_IN)
_QNAME_POINTER = b"\xc0\x0c"  # the question name, at offset 12
_A_RECORD = _QNAME_POINTER + _RECORD.pack(QTYPE_A, QCLASS_IN, 60, 4)  # ttl 60 s


def _query_header(txid: int) -> bytes:
    return _HEADER.pack(txid, 0x0100, 1, 0, 0, 0)  # RD set


def encode_query(txid: int, qname: str) -> bytes:
    return _query_header(txid) + encode_name(qname) + _QUESTION_TAIL


@dataclass(slots=True)
class DnsMessage:
    txid: int
    is_response: bool
    rcode: int
    qname: str
    qtype: int
    answers: list[str] = field(default_factory=list)  # A-record addresses only


def decode_fields(data: bytes) -> tuple[int, int, str, bytes | None, int, list[str]]:
    """The one decoder: (txid, flags, qname, the question name's wire bytes or
    None when they hold a pointer, qtype, A-record addresses). An answer owner
    that is c0 0c, a pointer to an uncompressed question name, is not decoded again."""
    if len(data) < 12:
        raise DnsDecodeError("message shorter than header")
    txid, flags, qdcount, ancount, _, _ = _HEADER.unpack_from(data)
    if qdcount != 1:
        raise DnsDecodeError(f"expected one question, got {qdcount}")
    qname, offset = decode_name(data, 12)
    if offset + 4 > len(data):
        raise DnsDecodeError("truncated question")
    # a name read without a pointer takes exactly its encoded length
    name = data[12:offset] if offset - 12 == (len(qname) + 2 if qname else 1) else None
    qtype = data[offset] << 8 | data[offset + 1]
    offset += 4
    answers = []
    for _ in range(ancount):
        if name is not None and data[offset : offset + 2] == _QNAME_POINTER:
            offset += 2
        else:
            offset = decode_name(data, offset)[1]
        if offset + 10 > len(data):
            raise DnsDecodeError("truncated answer header")
        rtype, _, _, rdlength = _RECORD.unpack_from(data, offset)
        offset += 10
        if offset + rdlength > len(data):
            raise DnsDecodeError("truncated rdata")
        if rtype == QTYPE_A and rdlength == 4:
            answers.append(socket.inet_ntoa(data[offset : offset + 4]))
        offset += rdlength
    return txid, flags, qname, name, qtype, answers


def decode_message(data: bytes) -> DnsMessage:
    txid, flags, qname, _, qtype, answers = decode_fields(data)
    return DnsMessage(txid, bool(flags & 0x8000), flags & 0x000F, qname, qtype, answers)


def encode_reply(txid: int, name: bytes, rcode: int, answers: list[str]) -> bytes:
    """The one reply builder: the A/IN question for `name`, given in wire
    form, and one A record per address, each owned by a pointer to it."""
    header = _HEADER.pack(txid, 0x8180 | (rcode & 0x0F), 1, len(answers), 0, 0)  # QR, RD, RA
    records = [_A_RECORD + socket.inet_aton(addr) for addr in answers]
    return b"".join([header, name, _QUESTION_TAIL, *records])


def encode_response(txid: int, qname: str, rcode: int, answers: list[str] | None = None) -> bytes:
    return encode_reply(txid, encode_name(qname), rcode, answers or [])


def _socket_error(server: tuple[str, int], exc: OSError) -> DnsError:
    error = DnsError(f"{server[0]}:{server[1]}: {exc}")
    error.__cause__ = exc
    return error


def connect(server: tuple[str, int]) -> socket.socket:
    """A non-blocking UDP socket of the server's family, connected to it, so
    the kernel drops datagrams from any other source. Raises a DnsError
    naming the server when the socket cannot be opened, as for a broadcast
    address."""
    family = socket.AF_INET6 if ":" in server[0] else socket.AF_INET
    try:
        sock = socket.socket(family, socket.SOCK_DGRAM)
    except OSError as exc:
        raise _socket_error(server, exc) from exc
    try:
        sock.setblocking(False)
        sock.connect(server)
    except OSError as exc:
        sock.close()
        raise _socket_error(server, exc) from exc
    return sock


def exchange_steps(
    servers: list[tuple[str, int]],
    qname: str,
    timeout: float,
    retries: int = 0,
    socks: dict[tuple[str, int], socket.socket] | None = None,
) -> Generator[tuple, list, list[tuple[DnsMessage, float] | DnsError]]:
    """Ask every server for qname's A record at once; returns, per server and
    in input order, (message, rtt seconds) or the DnsError its lookup ended
    with. A step generator (see loop): it waits by yielding the sockets it
    reads and the attempt's deadline.

    `socks` maps a server to a socket from connect(server) that the caller
    keeps for many lookups; a server without one gets a socket opened for
    this call and closed before it returns. Servers with one address share
    its socket: a reply counts only for the query whose txid, QR bit and
    question name it matches, and the txids in flight on one socket are
    distinct. `timeout` bounds each attempt's whole wait, however many
    datagrams are skipped; each attempt resends the unanswered queries with
    fresh txids, so the call waits at most (retries + 1) * timeout in all.
    A garbled datagram (DnsDecodeError) or a socket error, such as a closed
    port, ends only the queries pending on that socket; a name that cannot
    be encoded ends every lookup; DnsTimeout ends those never answered.
    """
    try:
        question = encode_name(qname) + _QUESTION_TAIL
    except DnsError as exc:
        return [exc] * len(servers)
    asked = qname.rstrip(".").lower()
    results: list[tuple[DnsMessage, float] | DnsError | None] = [None] * len(servers)
    owned: dict[tuple[str, int], socket.socket] = {}
    by_fd: dict[int, tuple[socket.socket, tuple[str, int]]] = {}
    fd_of: dict[int, int] = {}  # server index -> its socket's fd
    pending: dict[tuple[int, int], int] = {}  # (fd, txid) in flight -> server index
    sent = [0.0] * len(servers)  # when each server's latest query went out

    def end(fd: int, error: DnsError) -> None:
        for key in [key for key in pending if key[0] == fd]:
            results[pending.pop(key)] = error

    try:
        for index, server in enumerate(servers):
            sock = (socks or {}).get(server) or owned.get(server)
            if sock is None:
                try:
                    sock = owned[server] = connect(server)
                except DnsError as exc:
                    results[index] = exc
                    continue
            fd = fd_of[index] = sock.fileno()
            by_fd[fd] = sock, server
        watch = [(fd, select.POLLIN) for fd in by_fd]
        waiting = list(fd_of)
        for _ in range(retries + 1):
            if not waiting:
                break
            deadline = time.monotonic() + timeout
            for index in waiting:
                fd = fd_of[index]
                txid = random.randrange(0x10000)
                while (fd, txid) in pending:
                    txid = (txid + 1) & 0xFFFF
                pending[fd, txid] = index
                sent[index] = time.monotonic()
                try:
                    by_fd[fd][0].send(_query_header(txid) + question)
                except BlockingIOError:
                    pass  # a full send buffer drops it, as the network may
                except OSError as exc:
                    end(fd, _socket_error(servers[index], exc))
            while pending:
                ready = yield watch, deadline
                for fd, _ in ready:
                    sock, server = by_fd[fd]
                    try:
                        data = sock.recv(4096)
                    except BlockingIOError:
                        continue
                    except OSError as exc:
                        end(fd, _socket_error(server, exc))
                        continue
                    received = time.monotonic()
                    try:
                        msg = decode_message(data)
                    except DnsDecodeError as exc:
                        end(fd, exc)
                        continue
                    index = pending.get((fd, msg.txid))
                    if index is not None and msg.is_response and msg.qname.lower() == asked:
                        del pending[fd, msg.txid]
                        results[index] = (msg, received - sent[index])
                if not ready or time.monotonic() >= deadline:
                    break
            waiting = sorted(pending.values())
            pending.clear()
    finally:
        for sock in owned.values():
            sock.close()
    for index in waiting:
        server = servers[index]
        results[index] = DnsTimeout(
            f"no reply from {server[0]}:{server[1]} in {retries + 1} attempts"
        )
    return results


def query(
    server: tuple[str, int], qname: str, timeout: float, retries: int = 0
) -> tuple[DnsMessage, float]:
    """Send an A query over UDP; returns (message, rtt seconds).

    exchange_steps() with one server, on a socket opened for the query. Raises
    only DnsError: DnsTimeout after the final retry, DnsDecodeError on a
    garbled response, a DnsError for a name that cannot be encoded, and one
    naming the server for any socket error, such as a closed port.
    """
    (result,) = drive(exchange_steps([server], qname, timeout, retries))
    if isinstance(result, DnsError):
        raise result
    return result
