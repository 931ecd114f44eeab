import socket
import threading
import time

import pytest
from hypothesis import given, strategies as st

from censorprobe.httpwire import HttpTransportError, _parse_response, fetch, start

from conftest import full_listener


@pytest.mark.parametrize("status", [100, 599])
def test_parse_response_range_ends_accepted(status):
    assert _parse_response(b"HTTP/1.1 %d X\r\n\r\n" % status)[0] == status


# arbitrary bytes, and arbitrary heads after a status-line prefix
_responses = st.one_of(
    st.binary(max_size=300),
    st.binary(max_size=80).map(lambda rest: b"HTTP/1.1 " + rest + b"\r\n\r\n"),
)


@given(_responses)
def test_parse_response_returns_or_raises_transport_error(raw):
    try:
        _parse_response(raw)
    except HttpTransportError:
        pass


@pytest.mark.parametrize("status", [999, 42])
def test_parse_response_out_of_range_status_is_transport_error(status):
    with pytest.raises(HttpTransportError):
        _parse_response(b"HTTP/1.1 %d Weird\r\n\r\n" % status)


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


def _serve_once(server: socket.socket) -> threading.Thread:
    """A started thread that answers one request on `server` with a 200."""

    def reply_once():
        conn, _ = server.accept()
        with conn:
            conn.recv(65536)
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
            obs = request.finish()
        finally:
            request.close()
    assert obs.status == 200


def test_start_reports_its_errors_from_finish():
    with socket.socket() as closed:
        closed.bind(("127.0.0.1", 0))
        request = start("127.0.0.1", "a.test", "/", port=closed.getsockname()[1], timeout=2)
        with pytest.raises(HttpTransportError, match="a.test via 127.0.0.1:.*refused"):
            request.finish()

