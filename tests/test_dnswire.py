import re
import socket
import struct
import threading
import time

import pytest
from hypothesis import given, strategies as st

from censorprobe import dnswire

from conftest import answer_one_query, ipv6_loopback_socket


def test_encode_query_layout():
    raw = dnswire.encode_query(0x1234, "www.example.com")
    txid, flags, qd, an, ns, ar = struct.unpack(">HHHHHH", raw[:12])
    assert (txid, flags, qd, an, ns, ar) == (0x1234, 0x0100, 1, 0, 0, 0)
    assert raw[12:] == b"\x03www\x07example\x03com\x00\x00\x01\x00\x01"


def test_response_round_trip_answers():
    raw = dnswire.encode_response(7, "a.test", dnswire.RCODE_NOERROR, ["1.2.3.4", "5.6.7.8"])
    msg = dnswire.decode_message(raw)
    assert msg.txid == 7
    assert msg.is_response
    assert msg.rcode == dnswire.RCODE_NOERROR
    assert msg.qname == "a.test"
    assert msg.answers == ["1.2.3.4", "5.6.7.8"]


def test_response_round_trip_nxdomain():
    raw = dnswire.encode_response(9, "gone.test", dnswire.RCODE_NXDOMAIN)
    msg = dnswire.decode_message(raw)
    assert msg.rcode == dnswire.RCODE_NXDOMAIN
    assert msg.answers == []


def test_decode_compressed_name():
    # pointer in the answer name back to the question name at offset 12
    name, end = dnswire.decode_name(b"\x00" * 12 + b"\x03abc\x00" + b"\xc0\x0c", 17)
    assert name == "abc"
    assert end == 19


def test_decode_rejects_truncated():
    with pytest.raises(dnswire.DnsDecodeError):
        dnswire.decode_message(b"\x00\x01\x02")


def test_decode_rejects_bad_labels():
    header = struct.pack(">HHHHHH", 1, 0x0100, 1, 0, 0, 0)
    question = b"\x00\x01\x00\x01"
    non_ascii = header + b"\x02\xc3\xbc\x04test\x00" + question
    dotted = header + b"\x01.\x00" + question
    reserved_type = header + b"\x41" + b"a" * 65 + b"\x00" + question
    for raw in (non_ascii, dotted, reserved_type):
        with pytest.raises(dnswire.DnsDecodeError):
            dnswire.decode_message(raw)


def test_decode_rejects_pointer_loop():
    data = b"\x00" * 12 + b"\xc0\x0c"
    with pytest.raises(dnswire.DnsDecodeError):
        dnswire.decode_name(data, 12)


_names = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=20),
    min_size=1,
    max_size=5,
).map(".".join)


@given(_names, st.integers(0, 0xFFFF))
def test_query_encode_decode_round_trip(name, txid):
    msg = dnswire.decode_message(dnswire.encode_query(txid, name))
    assert msg.qname == name
    assert msg.txid == txid
    assert not msg.is_response
    assert msg.qtype == dnswire.QTYPE_A


def test_encode_name_root_and_bad_labels():
    assert dnswire.encode_name("") == dnswire.encode_name(".") == b"\x00"
    for name in ("a..test", "café.test", "a" * 64 + ".test"):
        with pytest.raises(dnswire.DnsError):
            dnswire.encode_name(name)


# a header holding one question, then length-prefixed labels and a tail
_questions = st.builds(
    lambda labels, tail: struct.pack(">HHHHHH", 1, 0x0100, 1, 0, 0, 0)
    + b"".join(bytes([len(label)]) + label for label in labels)
    + b"\x00"
    + tail,
    st.lists(st.binary(min_size=1, max_size=63), max_size=4),
    st.binary(max_size=24),
)


@given(st.one_of(st.binary(max_size=600), _questions))
def test_decode_message_returns_or_raises_decode_error(data):
    try:
        dnswire.decode_message(data)
    except dnswire.DnsDecodeError:
        pass


@given(_questions)
def test_decoded_qname_goes_back_on_the_wire(data):
    try:
        msg = dnswire.decode_message(data)
    except dnswire.DnsDecodeError:
        return
    reply = dnswire.encode_response(msg.txid, msg.qname, dnswire.RCODE_NXDOMAIN)
    assert dnswire.decode_message(reply).qname == msg.qname


# both fail at once: nothing listens on a closed loopback port, and a
# broadcast address needs SO_BROADCAST
@pytest.mark.parametrize(
    "server", [("127.0.0.1", 1), ("255.255.255.255", 53)], ids=lambda server: server[0]
)
def test_query_socket_error_is_dns_error_naming_the_server(server):
    with pytest.raises(dnswire.DnsError, match=re.escape(f"{server[0]}:{server[1]}")):
        dnswire.query(server, "a.test", timeout=0.3)


def test_query_timeout_bounds_a_wrong_txid_flood():
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as server:
        server.bind(("127.0.0.1", 0))
        server.settimeout(0.02)

        done = threading.Event()

        def flood():
            client, reply = None, b""
            for _ in range(150):  # a reply every 20 ms for about 3 s
                if done.is_set():
                    return
                try:
                    data, client = server.recvfrom(512)
                    msg = dnswire.decode_message(data)
                    reply = dnswire.encode_response(
                        msg.txid ^ 1, msg.qname, dnswire.RCODE_NOERROR, ["1.2.3.4"]
                    )
                except socket.timeout:
                    pass
                if client is not None:
                    server.sendto(reply, client)

        peer = threading.Thread(target=flood)
        peer.start()
        started = time.monotonic()
        try:
            with pytest.raises(socket.timeout):
                dnswire.query(server.getsockname(), "a.test", timeout=0.3, retries=1)
            assert time.monotonic() - started < 1.0
        finally:
            done.set()
            peer.join(timeout=10)
        assert not peer.is_alive()


def test_query_skips_datagrams_from_another_source():
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as server, socket.socket(
        socket.AF_INET, socket.SOCK_DGRAM
    ) as stranger:
        server.bind(("127.0.0.1", 0))
        server.settimeout(5)

        def answer():
            data, client = server.recvfrom(512)
            msg = dnswire.decode_message(data)
            forged = dnswire.encode_response(
                msg.txid, msg.qname, dnswire.RCODE_NOERROR, ["6.6.6.6"]
            )
            stranger.sendto(forged, client)
            time.sleep(0.05)
            server.sendto(
                dnswire.encode_response(
                    msg.txid, msg.qname, dnswire.RCODE_NOERROR, ["1.2.3.4"]
                ),
                client,
            )

        peer = threading.Thread(target=answer)
        peer.start()
        try:
            msg, _ = dnswire.query(server.getsockname(), "a.test", timeout=2)
        finally:
            peer.join(timeout=10)
        assert msg.answers == ["1.2.3.4"]


def test_query_reaches_an_ipv6_resolver():
    with ipv6_loopback_socket(socket.SOCK_DGRAM) as server:
        peer = answer_one_query(server)
        try:
            msg, _ = dnswire.query(server.getsockname()[:2], "a.test", timeout=2)
        finally:
            peer.join(timeout=10)
    assert msg.answers == ["1.2.3.4"]


def test_late_reply_to_an_earlier_query_on_the_socket_is_skipped(monkeypatch):
    # every query gets the same txid, so only the question tells the late
    # reply to the first query from the reply to the second
    monkeypatch.setattr(dnswire.random, "randrange", lambda _: 0x1234)
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as server:
        server.bind(("127.0.0.1", 0))
        address = server.getsockname()
        with dnswire.connect(address) as sock:
            with pytest.raises(dnswire.DnsTimeout):
                dnswire.query(address, "one.test", timeout=0.05, sock=sock)
            data, client = server.recvfrom(512)
            late = dnswire.encode_response(
                dnswire.decode_message(data).txid, "one.test", dnswire.RCODE_NOERROR, ["6.6.6.6"]
            )
            server.sendto(late, client)
            peer = answer_one_query(server)
            try:
                msg, _ = dnswire.query(address, "two.test", timeout=2, sock=sock)
            finally:
                peer.join(timeout=10)
    assert (msg.txid, msg.qname, msg.answers) == (0x1234, "two.test", ["1.2.3.4"])
