import socket
import threading

import pytest

from censorprobe.httpwire import HttpTransportError, _parse_response, fetch


@pytest.mark.parametrize("status", [100, 599])
def test_parse_response_range_ends_accepted(status):
    assert _parse_response(b"HTTP/1.1 %d X\r\n\r\n" % status)[0] == status


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
