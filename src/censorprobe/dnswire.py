"""Minimal DNS wire format: A queries, A/NXDOMAIN answers, and a UDP client.

Only what the probe and emulator need: QTYPE A, QCLASS IN, compression
pointers on decode. Encoding never emits pointers.
"""

from __future__ import annotations

import random
import socket
import struct
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

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
    jumped = False
    end = offset
    hops = 0
    while True:
        if offset >= len(data):
            raise DnsDecodeError("truncated name")
        length = data[offset]
        if length & 0xC0 == 0xC0:
            if offset + 1 >= len(data):
                raise DnsDecodeError("truncated pointer")
            pointer = ((length & 0x3F) << 8) | data[offset + 1]
            if not jumped:
                end = offset + 2
                jumped = True
            offset = pointer
            hops += 1
            if hops > 32:
                raise DnsDecodeError("pointer loop")
        elif length & 0xC0:
            raise DnsDecodeError("reserved label type")
        elif length == 0:
            if not jumped:
                end = offset + 1
            return ".".join(labels), end
        else:
            if offset + 1 + length > len(data):
                raise DnsDecodeError("truncated label")
            label = data[offset + 1 : offset + 1 + length]
            if not label.isascii() or b"." in label:
                # a dotted-string name could not carry it back to the wire
                raise DnsDecodeError(f"unrepresentable label {label!r}")
            labels.append(label.decode("ascii"))
            offset += 1 + length


def encode_query(txid: int, qname: str) -> bytes:
    header = struct.pack(">HHHHHH", txid, 0x0100, 1, 0, 0, 0)  # RD set
    return header + encode_name(qname) + struct.pack(">HH", QTYPE_A, QCLASS_IN)


@dataclass
class DnsMessage:
    txid: int
    is_response: bool
    rcode: int
    qname: str
    qtype: int
    answers: list[str] = field(default_factory=list)  # A-record addresses only


def decode_message(data: bytes) -> DnsMessage:
    if len(data) < 12:
        raise DnsDecodeError("message shorter than header")
    txid, flags, qdcount, ancount, _, _ = struct.unpack(">HHHHHH", data[:12])
    if qdcount != 1:
        raise DnsDecodeError(f"expected one question, got {qdcount}")
    qname, offset = decode_name(data, 12)
    if offset + 4 > len(data):
        raise DnsDecodeError("truncated question")
    qtype, _qclass = struct.unpack(">HH", data[offset : offset + 4])
    offset += 4
    answers = []
    for _ in range(ancount):
        _, offset = decode_name(data, offset)
        if offset + 10 > len(data):
            raise DnsDecodeError("truncated answer header")
        rtype, _rclass, _ttl, rdlength = struct.unpack(
            ">HHIH", data[offset : offset + 10]
        )
        offset += 10
        if offset + rdlength > len(data):
            raise DnsDecodeError("truncated rdata")
        if rtype == QTYPE_A and rdlength == 4:
            answers.append(socket.inet_ntoa(data[offset : offset + 4]))
        offset += rdlength
    return DnsMessage(
        txid=txid,
        is_response=bool(flags & 0x8000),
        rcode=flags & 0x000F,
        qname=qname,
        qtype=qtype,
        answers=answers,
    )


def encode_response(
    txid: int, qname: str, rcode: int, answers: list[str] | None = None, ttl: int = 60
) -> bytes:
    answers = answers or []
    flags = 0x8180 | (rcode & 0x0F)  # QR, RD, RA
    header = struct.pack(">HHHHHH", txid, flags, 1, len(answers), 0, 0)
    question = encode_name(qname) + struct.pack(">HH", QTYPE_A, QCLASS_IN)
    body = bytearray(header + question)
    for addr in answers:
        body += b"\xc0\x0c"  # pointer to qname in the question
        body += struct.pack(">HHIH", QTYPE_A, QCLASS_IN, ttl, 4)
        body += socket.inet_aton(addr)
    return bytes(body)


def connect(server: tuple[str, int]) -> socket.socket:
    """A UDP socket of the server's family, connected to it, so the kernel
    drops datagrams from any other source. Raises a DnsError naming the
    server when the socket cannot be opened, as for a broadcast address."""
    family = socket.AF_INET6 if ":" in server[0] else socket.AF_INET
    try:
        sock = socket.socket(family, socket.SOCK_DGRAM)
    except OSError as exc:
        raise DnsError(f"{server[0]}:{server[1]}: {exc}") from exc
    try:
        sock.connect(server)
    except OSError as exc:
        sock.close()
        raise DnsError(f"{server[0]}:{server[1]}: {exc}") from exc
    return sock


def query(
    server: tuple[str, int],
    qname: str,
    timeout: float,
    retries: int = 0,
    sock: socket.socket | None = None,
) -> tuple[DnsMessage, float]:
    """Send an A query over UDP; returns (message, rtt seconds).

    `sock` is a socket from connect(server) that the caller keeps for many
    queries; without one, the query opens its own and closes it. A reply
    counts only when its txid, QR bit and question name match the query's,
    so a late reply to an earlier query on the same socket is skipped.
    `timeout` bounds each attempt's whole wait: skipped datagrams do not
    extend it. Raises only DnsError: DnsTimeout after the final retry,
    DnsDecodeError on a garbled response, a DnsError for a name that cannot
    be encoded, and one naming the server for any socket error, such as a
    closed port.
    """
    asked = qname.rstrip(".").lower()
    with nullcontext(sock) if sock is not None else connect(server) as sock:
        for _ in range(retries + 1):
            txid = random.randrange(0x10000)
            try:
                start = time.monotonic()
                deadline = start + timeout
                sock.send(encode_query(txid, qname))
                while (remaining := deadline - time.monotonic()) > 0:
                    sock.settimeout(remaining)
                    data = sock.recv(4096)
                    elapsed = time.monotonic() - start
                    msg = decode_message(data)
                    if msg.txid == txid and msg.is_response and msg.qname.lower() == asked:
                        return msg, elapsed
            except TimeoutError:
                pass  # the next attempt
            except DnsError:
                raise
            except OSError as exc:
                raise DnsError(f"{server[0]}:{server[1]}: {exc}") from exc
    raise DnsTimeout(f"no reply from {server[0]}:{server[1]} in {retries + 1} attempts")
