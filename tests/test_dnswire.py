import os
import re
import socket
import struct
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from censorprobe import dnswire, loop

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


_A_RECORD = struct.Struct(">HHIH").pack(dnswire.QTYPE_A, dnswire.QCLASS_IN, 60, 4)


@given(
    _names,
    st.lists(
        st.tuples(
            st.sampled_from(["pointer", "full", "labels+pointer", "suffix"]),
            st.integers(0, 0xFFFFFFFF).map(lambda n: socket.inet_ntoa(struct.pack(">I", n))),
        ),
        max_size=4,
    ),
    st.integers(0, 0xFFFF),
)
def test_answers_are_the_same_whatever_form_their_owner_name_takes(name, records, txid):
    question = dnswire.encode_name(name)
    suffix = 12 + 1 + question[0] if "." in name else 12  # the name's second label
    owners = {
        "pointer": b"\xc0\x0c",  # the question name
        "full": question,
        "labels+pointer": b"\x03www\xc0\x0c",
        "suffix": struct.pack(">H", 0xC000 | suffix),
    }
    data = struct.pack(">HHHHHH", txid, 0x8180, 1, len(records), 0, 0)
    data += question + b"\x00\x01\x00\x01"
    for form, addr in records:
        data += owners[form] + _A_RECORD + socket.inet_aton(addr)
    msg = dnswire.decode_message(data)
    assert (msg.txid, msg.qname) == (txid, name)
    assert msg.answers == [addr for _, addr in records]


@pytest.mark.parametrize("hops, decodes", [(31, True), (32, False)])
def test_answer_owned_by_c00c_counts_the_question_names_pointer_hops(hops, decodes):
    # the question name is `hops` pointers in a row ending at the root, the
    # most one name may take being 32; the answer's c0 0c adds one more
    record = b"\xc0\x0c" + _A_RECORD + bytes(4)
    chain_at = 12 + 2 + 4 + len(record)
    chain = b"".join(struct.pack(">H", 0xC000 | chain_at + 2 * i) for i in range(1, hops))
    data = struct.pack(">HHHHHH", 1, 0x8180, 1, 1, 0, 0) + struct.pack(">H", 0xC000 | chain_at)
    data += b"\x00\x01\x00\x01" + record + chain + b"\x00"
    assert dnswire.decode_name(data, 12) == ("", 14)
    if decodes:
        assert dnswire.decode_message(data).answers == ["0.0.0.0"]
    else:
        with pytest.raises(dnswire.DnsDecodeError, match="pointer loop"):
            dnswire.decode_message(data)


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
            (timed_out,) = loop.drive(
                dnswire.exchange_steps([address], "one.test", 0.05, socks={address: sock})
            )
            assert isinstance(timed_out, dnswire.DnsTimeout)
            data, client = server.recvfrom(512)
            late = dnswire.encode_response(
                dnswire.decode_message(data).txid, "one.test", dnswire.RCODE_NOERROR, ["6.6.6.6"]
            )
            server.sendto(late, client)
            peer = answer_one_query(server)
            try:
                ((msg, _),) = loop.drive(
                    dnswire.exchange_steps([address], "two.test", 2, socks={address: sock})
                )
            finally:
                peer.join(timeout=10)
    assert (msg.txid, msg.qname, msg.answers) == (0x1234, "two.test", ["1.2.3.4"])


def _bound_udp() -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    sock.settimeout(5)
    return sock


def test_exchange_routes_replies_on_a_shared_socket_by_txid(monkeypatch):
    # both lookups draw the same txid, so the second must step past it; the
    # peer answers in reverse order, each query with its own address
    monkeypatch.setattr(dnswire.random, "randrange", lambda _: 0xFFFF)
    with _bound_udp() as server:
        address = server.getsockname()

        def answer():
            queries = [server.recvfrom(512) for _ in range(2)]
            for (data, client), answer in reversed(list(zip(queries, ["1.1.1.1", "2.2.2.2"]))):
                msg = dnswire.decode_message(data)
                server.sendto(
                    dnswire.encode_response(msg.txid, msg.qname, dnswire.RCODE_NOERROR, [answer]),
                    client,
                )

        peer = threading.Thread(target=answer)
        peer.start()
        try:
            with dnswire.connect(address) as sock:
                first, second = loop.drive(dnswire.exchange_steps(
                    [address, address], "a.test", timeout=2, socks={address: sock}
                ))
        finally:
            peer.join(timeout=10)
        assert not peer.is_alive()
    assert (first[0].txid, first[0].answers) == (0xFFFF, ["1.1.1.1"])
    assert (second[0].txid, second[0].answers) == (0x0000, ["2.2.2.2"])


def test_exchange_wrong_txid_flood_on_one_socket_does_not_extend_the_deadline():
    with _bound_udp() as flooded, _bound_udp() as live:
        flooded.settimeout(0.02)
        done = threading.Event()

        def flood():
            client, reply = None, b""
            while not done.is_set():
                try:
                    data, client = flooded.recvfrom(512)
                    msg = dnswire.decode_message(data)
                    reply = dnswire.encode_response(
                        msg.txid ^ 1, msg.qname, dnswire.RCODE_NOERROR, ["6.6.6.6"]
                    )
                except socket.timeout:
                    pass
                if client is not None:
                    flooded.sendto(reply, client)

        peers = [threading.Thread(target=flood), answer_one_query(live)]
        peers[0].start()
        started = time.monotonic()
        try:
            timed_out, answered = loop.drive(dnswire.exchange_steps(
                [flooded.getsockname(), live.getsockname()], "a.test", timeout=0.3, retries=1
            ))
            elapsed = time.monotonic() - started
        finally:
            done.set()
            for peer in peers:
                peer.join(timeout=10)
        assert not any(peer.is_alive() for peer in peers)
    assert isinstance(timed_out, dnswire.DnsTimeout)
    assert answered[0].answers == ["1.2.3.4"]
    assert 0.6 <= elapsed < 1.0


def test_exchange_garbled_reply_ends_only_its_socket():
    with _bound_udp() as garbler, _bound_udp() as live:

        def garble():
            _, client = garbler.recvfrom(512)
            garbler.sendto(b"\x00\x01garbage", client)

        peers = [threading.Thread(target=garble), answer_one_query(live)]
        peers[0].start()
        try:
            garbled, answered = loop.drive(dnswire.exchange_steps(
                [garbler.getsockname(), live.getsockname()], "a.test", timeout=2
            ))
        finally:
            for peer in peers:
                peer.join(timeout=10)
    assert isinstance(garbled, dnswire.DnsDecodeError)
    assert answered[0].answers == ["1.2.3.4"]


def test_exchange_unencodable_name_ends_every_lookup(monkeypatch):
    monkeypatch.setattr(dnswire, "connect", lambda server: pytest.fail("opened a socket"))
    results = loop.drive(
        dnswire.exchange_steps([("127.0.0.1", 53), ("127.0.0.2", 53)], "a..test", timeout=1)
    )
    assert len(results) == 2 and all(isinstance(r, dnswire.DnsError) for r in results)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_exchange_closes_the_sockets_it_opens():
    # one server on each path: no socket, a socket error, no reply, a reply
    with _bound_udp() as silent, _bound_udp() as live:
        servers = [("255.255.255.255", 53), ("127.0.0.1", 1), silent.getsockname(), live.getsockname()]
        peer = answer_one_query(live)
        before = len(os.listdir("/proc/self/fd"))
        try:
            broadcast, closed, timed_out, answered = loop.drive(dnswire.exchange_steps(
                servers, "a.test", timeout=0.3
            ))
        finally:
            peer.join(timeout=10)
        assert len(os.listdir("/proc/self/fd")) == before
    assert "255.255.255.255:53" in str(broadcast)
    assert "127.0.0.1:1" in str(closed) and not isinstance(closed, dnswire.DnsTimeout)
    assert isinstance(timed_out, dnswire.DnsTimeout)
    assert answered[0].answers == ["1.2.3.4"]


# what a peer sends back for one query: nothing, a valid reply, one with a
# flipped txid, another question, the question in upper case, the query
# itself (QR clear), or a valid reply cut short
_PEER_REPLIES = st.sampled_from(
    ["valid", "wrong-txid", "wrong-question", "upper-case", "echo", "truncated"]
)


def _peer_datagram(kind: str, query: bytes, cut: int) -> bytes:
    msg = dnswire.decode_message(query)
    txid = msg.txid ^ 1 if kind == "wrong-txid" else msg.txid
    qname = {"wrong-question": "other.test", "upper-case": msg.qname.upper()}.get(kind, msg.qname)
    reply = dnswire.encode_response(txid, qname, dnswire.RCODE_NOERROR, ["1.2.3.4"])
    if kind == "echo":
        return query
    if kind == "truncated":
        return reply[: cut % len(reply)]
    return reply


@settings(max_examples=40)
@given(
    plans=st.lists(
        # per server, per query it receives: the datagrams sent back
        st.lists(st.lists(st.tuples(_PEER_REPLIES, st.integers(0, 64)), max_size=3), max_size=3),
        min_size=1,
        max_size=3,
    ),
    retries=st.integers(0, 1),
)
def test_exchange_results_match_their_queries_or_are_dns_errors(plans, retries):
    timeout = 0.03
    done = threading.Event()
    servers = [_bound_udp() for _ in plans]
    received = [[] for _ in plans]

    def peer(sock, plan, seen):
        sock.settimeout(0.01)
        while not done.is_set():
            try:
                data, client = sock.recvfrom(512)
            except socket.timeout:
                continue
            seen.append(dnswire.decode_message(data).txid)
            for kind, cut in plan[len(seen) - 1] if len(seen) <= len(plan) else []:
                sock.sendto(_peer_datagram(kind, data, cut), client)

    peers = [
        threading.Thread(target=peer, args=args) for args in zip(servers, plans, received)
    ]
    for thread in peers:
        thread.start()
    try:
        started = time.monotonic()
        results = loop.drive(dnswire.exchange_steps(
            [s.getsockname() for s in servers], "a.test", timeout=timeout, retries=retries
        ))
        elapsed = time.monotonic() - started
    finally:
        done.set()
        for thread in peers:
            thread.join(timeout=10)
        for sock in servers:
            sock.close()
    assert not any(thread.is_alive() for thread in peers)
    assert elapsed < (retries + 1) * timeout + 0.5
    assert len(results) == len(plans)
    for result, seen in zip(results, received):
        if isinstance(result, dnswire.DnsError):
            continue
        msg, rtt = result
        assert msg.txid in seen and msg.is_response and msg.qname.lower() == "a.test"
        assert 0 <= rtt <= timeout + 0.5
