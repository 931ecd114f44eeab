import socket
import threading
import time

import pytest
from hypothesis import given, strategies as st

from censorprobe.httpwire import HttpTransportError, _parse_response, fetch


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
