import socket
import threading
import time

import pytest
from hypothesis import given, strategies as st

from censorprobe.httpwire import (
    HttpTransportError, encode_request, encode_response, fetch, parse_request, parse_response,
    start,
)
from censorprobe.loop import drive

from conftest import full_listener


@pytest.mark.parametrize("status", [100, 599])
def test_parse_response_range_ends_accepted(status):
    assert parse_response(b"HTTP/1.1 %d X\r\n\r\n" % status)[0] == status


# arbitrary bytes, and arbitrary heads after a status-line prefix
_responses = st.one_of(
    st.binary(max_size=300),
    st.binary(max_size=80).map(lambda rest: b"HTTP/1.1 " + rest + b"\r\n\r\n"),
)


@given(_responses)
def test_parse_response_returns_or_raises_transport_error(raw):
    try:
        parse_response(raw)
    except HttpTransportError:
        pass


# one line of a head: latin-1 text without CR or LF
_line_text = st.text(st.characters(max_codepoint=0xFF, exclude_characters="\r\n"))


@given(
    st.integers(100, 599),
    _line_text,
    st.binary(),
    st.none() | _line_text,
    st.none() | _line_text,
)
def test_parse_response_reads_what_encode_response_wrote(
    status, reason, body, location, last_modified
):
    fields = [("Location", location), ("Last-Modified", last_modified)]
    raw = encode_response(status, reason, body, *[f for f in fields if f[1] is not None])
    stripped = [None if value is None else value.strip() for _, value in fields]
    assert parse_response(raw) == (status, *stripped, body)


@given(_line_text, st.text(st.characters(max_codepoint=0xFF, exclude_characters="\r\n ")))
def test_parse_request_reads_what_encode_request_wrote(host, uri):
    expected = ("GET", uri, host.strip().lower()) if host.strip() else None
    assert parse_request(encode_request(host, uri)) == expected


# arbitrary bytes, and arbitrary fields after a request line
_requests = st.one_of(
    st.binary(max_size=300),
    st.binary(max_size=120).map(lambda rest: b"GET / HTTP/1.1\r\n" + rest),
    st.lists(st.sampled_from([b"Host: a.test", b" hOsT :", b"host:\tB.test ", b"Accept: */*", b""]))
    .map(lambda fields: b"\r\n".join([b"GET / HTTP/1.1", *fields, b"", b""])),
)


@given(_requests)
def test_parse_request_returns_a_triple_or_none(raw):
    parsed = parse_request(raw)
    if parsed is not None:
        method, uri, host = parsed
        assert isinstance(method, str) and isinstance(uri, str)
        assert host and host == host.strip().lower()


@pytest.mark.parametrize("status", [999, 42])
def test_parse_response_out_of_range_status_is_transport_error(status):
    with pytest.raises(HttpTransportError):
        parse_response(b"HTTP/1.1 %d Weird\r\n\r\n" % status)


def test_fetch_out_of_range_status_is_transport_error():
    with socket.create_server(("127.0.0.1", 0)) as server:
        server.settimeout(5)

        def reply_once():
            conn, _ = server.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(b"HTTP/1.1 999 Weird\r\nConnection: close\r\n\r\n")

        peer = threading.Thread(target=reply_once)
        peer.start()
        try:
            with pytest.raises(HttpTransportError):
                fetch("127.0.0.1", "a.test", "/", port=server.getsockname()[1], timeout=5)
        finally:
            peer.join(timeout=5)
        assert not peer.is_alive()


def test_fetch_timeout_bounds_a_slow_drip():
    with socket.create_server(("127.0.0.1", 0)) as server:
        server.settimeout(5)

        def drip():
            conn, _ = server.accept()
            with conn:
                conn.recv(65536)
                try:
                    for byte in b"HTTP/1.1 200 OK\r\n" * 4:  # about 3 s, then give up
                        conn.sendall(bytes([byte]))
                        time.sleep(0.05)
                except OSError:
                    pass  # the client gave up and closed

        peer = threading.Thread(target=drip)
        peer.start()
        started = time.monotonic()
        try:
            with pytest.raises(HttpTransportError):
                fetch("127.0.0.1", "a.test", "/", port=server.getsockname()[1], timeout=0.3)
            assert time.monotonic() - started < 1.0
        finally:
            peer.join(timeout=10)
        assert not peer.is_alive()


def _serve_once(server: socket.socket, received: list | None = None) -> threading.Thread:
    """A started thread that answers one request on `server` with a 200; the
    request's bytes go to `received`, when given."""

    def reply_once():
        conn, _ = server.accept()
        with conn:
            request = conn.recv(65536)
            if received is not None:
                received.append(request)
            conn.sendall(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nbody")

    server.settimeout(5)
    peer = threading.Thread(target=reply_once)
    peer.start()
    return peer


def _resolving_to(*ports):
    """A getaddrinfo stand-in that gives 127.0.0.1 once per port."""
    return lambda *args, **kwargs: [
        (socket.AF_INET, socket.SOCK_STREAM, 6, "", ("127.0.0.1", port)) for port in ports
    ]


def test_fetch_timeout_bounds_every_address_of_a_name(monkeypatch):
    with full_listener() as port:
        monkeypatch.setattr(socket, "getaddrinfo", _resolving_to(port, port, port))
        started = time.monotonic()
        with pytest.raises(HttpTransportError, match="timed out"):
            fetch("multi.test", "multi.test", "/", port=port, timeout=0.3)
        assert time.monotonic() - started < 0.45


def test_fetch_tries_the_next_address_of_a_name(monkeypatch):
    with socket.socket() as closed:
        closed.bind(("127.0.0.1", 0))
        refused_port = closed.getsockname()[1]  # bound, never listening
        with socket.create_server(("127.0.0.1", 0)) as server:
            live_port = server.getsockname()[1]
            peer = _serve_once(server)
            monkeypatch.setattr(socket, "getaddrinfo", _resolving_to(refused_port, live_port))
            try:
                obs = fetch("two.test", "two.test", "/", port=live_port, timeout=5)
            finally:
                peer.join(timeout=10)
            assert not peer.is_alive()
    assert obs.status == 200 and obs.body_excerpt == b"body"


def test_reply_that_arrived_in_time_counts_after_the_deadline():
    with socket.create_server(("127.0.0.1", 0)) as server:
        peer = _serve_once(server)
        request = start("127.0.0.1", "a.test", "/", port=server.getsockname()[1], timeout=0.2)
        try:
            peer.join(timeout=10)
            assert not peer.is_alive()
            time.sleep(0.3)  # the deadline has passed; the reply is waiting
            obs = drive(request.steps())
        finally:
            request.close()
    assert obs.status == 200


def test_start_reports_its_errors_from_finish():
    with socket.socket() as closed:
        closed.bind(("127.0.0.1", 0))
        request = start("127.0.0.1", "a.test", "/", port=closed.getsockname()[1], timeout=2)
        with pytest.raises(HttpTransportError, match="a.test via 127.0.0.1:.*refused"):
            drive(request.steps())


def test_keyword_get_bytes_on_the_wire():
    received = []
    with socket.create_server(("127.0.0.1", 0)) as server:
        peer = _serve_once(server, received)
        try:
            port = server.getsockname()[1]
            fetch("127.0.0.1", "www.google.com", "/http://blocked.test/", port=port, timeout=5)
        finally:
            peer.join(timeout=10)
        assert not peer.is_alive()
    assert received == [
        b"GET /http://blocked.test/ HTTP/1.1\r\nHost: www.google.com\r\n"
        b"Accept: */*\r\nConnection: close\r\n\r\n"
    ]
