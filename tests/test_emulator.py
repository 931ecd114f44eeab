import socket
import struct
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from censorprobe import dnswire, httpwire
from censorprobe.emulator import (
    CensorPolicy,
    Emulator,
    Generation,
    OriginStub,
    PolicyInvalid,
    handle_dns,
    load_policy,
    match_host,
    serve_warning_site,
)
from censorprobe.model import PUBLIC_RESOLVERS, ResolverSpec

from conftest import ORIGIN_BODY, make_policy, start_emulator

RESOLVERS = {r.name: r for r in PUBLIC_RESOLVERS}


class TestMatchHost:
    def test_exact(self):
        assert match_host("youtube.com", "youtube.com")
        assert not match_host("youtube.com", "www.youtube.com")

    def test_wildcard_suffix(self):
        assert match_host("*.youtube.com", "www.youtube.com")
        assert not match_host("*.youtube.com", "youtube.com")
        assert not match_host("*.youtube.com", "notyoutube.com")


class TestHandleDns:
    def _policy(self):
        return make_policy(
            Generation.Ixp200,
            dns_rules=("blocked.test",),
            http_host_rules=("blocked.test",),
            live_hosts=("alive.test",),
        )

    def test_norton_gets_redirector(self):
        kind, addrs = handle_dns(self._policy(), "blocked.test", RESOLVERS["Norton"])
        assert (kind, addrs) == ("A", ["198.153.192.3"])

    def test_comodo_gets_redirector(self):
        kind, addrs = handle_dns(self._policy(), "blocked.test", RESOLVERS["Comodo"])
        assert (kind, addrs) == ("A", ["92.242.144.50"])

    def test_opendns_gets_redirector(self):
        kind, addrs = handle_dns(self._policy(), "blocked.test", RESOLVERS["OpenDNS"])
        assert (kind, addrs) == ("A", ["67.215.65.132"])

    def test_google_and_level3_get_nxdomain(self):
        for name in ("Google", "Level3"):
            kind, _ = handle_dns(self._policy(), "blocked.test", RESOLVERS[name])
            assert kind == "NXDOMAIN"

    def test_unblocked_answered_from_zone(self):
        kind, addrs = handle_dns(self._policy(), "alive.test", RESOLVERS["Google"])
        assert (kind, addrs) == ("A", ["127.0.0.1"])

    def test_unknown_name_nxdomain(self):
        kind, _ = handle_dns(self._policy(), "nosuch.test", RESOLVERS["Google"])
        assert kind == "NXDOMAIN"


class TestPolicyValidation:
    def test_dns_rule_without_http_rule_rejected(self):
        with pytest.raises(PolicyInvalid) as exc:
            CensorPolicy(generation=Generation.Ixp200, dns_rules=("a.test",))
        assert "dns_rules[0]" in str(exc.value)

    def test_dns_rule_covered_by_host_uri_rule(self):
        policy = CensorPolicy(
            generation=Generation.Ixp200,
            dns_rules=("a.test",),
            http_host_uri_rules=(("a.test", "/x"),),
        )
        assert policy.dns_blocked("a.test")

    def test_isp302_requires_private_redirect_host(self):
        with pytest.raises(PolicyInvalid) as exc:
            CensorPolicy(generation=Generation.Isp302, redirect_host="8.8.8.8")
        assert "redirect_host" in str(exc.value)

    def test_load_policy_minimal(self):
        policy = load_policy('{"generation": "Ixp200"}')
        assert policy.generation is Generation.Ixp200
        assert policy.warning_last_modified.startswith("Fri, 19 Apr 2013")

    def test_load_policy_bad_generation(self):
        with pytest.raises(PolicyInvalid):
            load_policy('{"generation": "Nope"}')

    def test_load_policy_invariant_enforced(self):
        with pytest.raises(PolicyInvalid):
            load_policy('{"generation": "Ixp200", "dns_rules": ["a.test"]}')

    def test_load_large_field_shaped_policy(self):
        dns = [f"dns{i:03}.test" for i in range(187)]
        http302 = ["warn0.test", "warn1.test", "warn2.test", "warn3.test", "warn4.test"]
        doc = {
            "generation": "Isp302",
            "dns_rules": dns,
            "http_host_rules": dns + http302,
            "redirect_host": "10.16.6.41",
        }
        import json

        policy = load_policy(json.dumps(doc))
        assert len(policy.dns_rules) == 187
        assert len(policy.http_host_rules) - len(policy.dns_rules) == 5


class TestServeWarningSite:
    def _policy(self):
        return make_policy(Generation.Isp302)

    def test_redirect_php_serves_page(self):
        raw = serve_warning_site(self._policy(), "/redirect.php?n=1.2.3.4@P&s=124")
        assert raw.startswith(b"HTTP/1.1 200 OK")
        assert self._policy().warning_body in raw

    def test_favicon_404(self):
        assert serve_warning_site(self._policy(), "/favicon.ico").startswith(
            b"HTTP/1.1 404"
        )

    def test_default_deny(self):
        assert serve_warning_site(self._policy(), "/other").startswith(b"HTTP/1.1 404")


def _raw_http(endpoint, request: bytes) -> bytes:
    with socket.create_connection(endpoint, timeout=5) as sock:
        sock.sendall(request)
        out = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return out
            out += chunk


class TestHttpProxy:
    def test_isp302_redirects_to_private_ip(self, isp302_emulator):
        obs = httpwire.fetch(
            "127.0.0.1", "youtube.com", "/", port=isp302_emulator.proxy.endpoint[1]
        )
        assert obs.status == 302
        assert obs.location.startswith("http://10.16.6.41/redirect.php?n=127.0.0.1@")
        assert "&s=124" in obs.location

    def test_ixp200_filter_and_return(self, ixp200_emulator):
        emu = ixp200_emulator
        obs = httpwire.fetch("127.0.0.1", "youtube.com", "/", port=emu.proxy.endpoint[1])
        assert obs.status == 200
        assert obs.last_modified == emu.policy.warning_last_modified
        assert obs.body_excerpt == emu.policy.warning_body
        # origin never consulted for the matched host
        assert emu.origin.requests_for("youtube.com") == []

    def test_host_uri_rule_requires_both(self, isp302_emulator):
        port = isp302_emulator.proxy.endpoint[1]
        allowed = httpwire.fetch("127.0.0.1", "vimeo.com", "/other", port=port)
        assert allowed.status == 200
        assert b"origin content" in allowed.body_excerpt
        blocked = httpwire.fetch("127.0.0.1", "vimeo.com", "/video/64414932", port=port)
        assert blocked.status == 302

    def test_pass_through_byte_identical(self, passthrough_emulator):
        emu = passthrough_emulator
        request = b"GET / HTTP/1.1\r\nHost: site001.test\r\nConnection: close\r\n\r\n"
        direct = _raw_http(emu.origin.endpoint, request)
        proxied = _raw_http(emu.proxy.endpoint, request)
        assert direct == proxied

    def test_pass_through_answered_without_origin_listener(
        self, passthrough_emulator, monkeypatch
    ):
        emu = passthrough_emulator
        listener_calls = []
        monkeypatch.setattr(OriginStub, "handle", lambda *args: listener_calls.append(args))
        before = len(emu.origin.requests)
        request = b"GET /hop HTTP/1.1\r\nHost: site001.test\r\nConnection: close\r\n\r\n"
        proxied = _raw_http(emu.proxy.endpoint, request)
        assert listener_calls == []
        assert emu.origin.requests[before:] == [("site001.test", "/hop")]
        assert proxied == emu.origin.response_for("site001.test", "/hop")

    def test_unparseable_request_gets_400(self, passthrough_emulator):
        raw = _raw_http(passthrough_emulator.proxy.endpoint, b"garbage\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 400")

    def test_generation_exclusivity(self, isp302_emulator, ixp200_emulator):
        p302 = isp302_emulator.proxy.endpoint[1]
        p200 = ixp200_emulator.proxy.endpoint[1]
        obs302 = httpwire.fetch("127.0.0.1", "youtube.com", "/", port=p302)
        obs200 = httpwire.fetch("127.0.0.1", "youtube.com", "/", port=p200)
        assert obs302.status == 302 and obs200.status == 200

    def test_determinism_modulo_client_ip(self, ixp200_emulator):
        port = ixp200_emulator.proxy.endpoint[1]
        request = b"GET / HTTP/1.1\r\nHost: youtube.com\r\nConnection: close\r\n\r\n"
        a = _raw_http(("127.0.0.1", port), request)
        b = _raw_http(("127.0.0.1", port), request)
        assert a == b

    def test_keyword_portal_interception(self):
        policy = make_policy(
            Generation.Ixp200,
            dns_rules=(),
            http_host_rules=("blocked.test",),
            live_hosts=("www.google.com", "blocked.test"),
            keyword_portal_interception=True,
        )
        with start_emulator(policy) as emu:
            port = emu.proxy.endpoint[1]
            hit = httpwire.fetch(
                "127.0.0.1", "www.google.com", "/http://blocked.test/", port=port
            )
            assert hit.status == 200
            assert hit.body_excerpt == policy.warning_body
            miss = httpwire.fetch(
                "127.0.0.1", "www.google.com", "/http://fine.test/", port=port
            )
            assert miss.status == 404


class TestDnsListener:
    def test_blocked_name_over_the_wire(self, ixp200_emulator):
        policy = make_policy(
            Generation.Ixp200,
            dns_rules=("blocked.test",),
            http_host_rules=("blocked.test",),
        )
        with start_emulator(policy) as emu:
            endpoint = emu.dns_listeners["Norton"].endpoint
            msg, _ = dnswire.query(endpoint, "blocked.test", timeout=2)
            assert msg.answers == ["198.153.192.3"]
            endpoint = emu.dns_listeners["Google"].endpoint
            msg, _ = dnswire.query(endpoint, "blocked.test", timeout=2)
            assert msg.rcode == dnswire.RCODE_NXDOMAIN

    def test_malformed_query_gets_formerr(self, passthrough_emulator):
        endpoint = passthrough_emulator.dns_listeners["Google"].endpoint
        header = struct.pack(">HHHHHH", 0xBEEF, 0x0100, 1, 0, 0, 0)
        non_ascii = header + b"\x02\xc3\xbc\x04test\x00\x00\x01\x00\x01"
        dotted = header + b"\x01.\x00\x00\x01\x00\x01"
        for query in (b"\xde\xad\xbe", non_ascii, dotted):
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.settimeout(2)
            try:
                sock.sendto(query, endpoint)
                data, _ = sock.recvfrom(512)
            finally:
                sock.close()
            txid, flags = struct.unpack(">HH", data[:4])
            assert txid == struct.unpack(">H", query[:2])[0]
            assert flags & 0x000F == dnswire.RCODE_FORMERR


def _wait_for(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.01)


class TestSingleEventLoop:
    def _policy(self):
        return make_policy(
            Generation.Isp302,
            http_host_rules=("blocked.test",),
            live_hosts=("alive.test", "stuck.test"),
            blackhole_hosts=("stuck.test",),
        )

    def test_blackhole_parks_only_its_connection_and_stop_is_prompt(self):
        emu = start_emulator(self._policy(), blackhole_delay=30)
        parked = socket.create_connection(emu.proxy.endpoint, timeout=5)
        try:
            parked.sendall(b"GET / HTTP/1.1\r\nHost: stuck.test\r\n\r\n")
            _wait_for(
                lambda: any(("out", "<blackhole>") in s.entries for s in emu.recorder.sessions)
            )
            started = time.monotonic()
            obs = httpwire.fetch("127.0.0.1", "alive.test", "/", port=emu.proxy.endpoint[1])
            assert obs.status == 200
            assert time.monotonic() - started < 1.0

            started = time.monotonic()
            emu.stop()
            assert time.monotonic() - started < 1.0
            try:
                assert parked.recv(1) == b""  # closed by stop, not after 30 s
            except ConnectionResetError:
                pass
        finally:
            parked.close()
            emu.stop()
        for endpoint in (emu.proxy.endpoint, emu.warning.endpoint, emu.origin.endpoint):
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(endpoint, timeout=1).close()
        for listener in emu.dns_listeners.values():
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                sock.bind(listener.endpoint)  # the port is free again

    def test_stop_without_start_closes_sockets(self):
        emu = Emulator(self._policy())
        emu.stop()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(emu.proxy.endpoint, timeout=1).close()

    def test_concurrent_fetches_and_queries(self, isp302_emulator):
        emu = isp302_emulator
        port = emu.proxy.endpoint[1]
        norton = emu.dns_listeners["Norton"].endpoint
        sessions_before = len(emu.recorder.sessions)
        origin_before = len(emu.origin.requests)

        def fetch(i):
            host = "site001.test" if i % 2 else "youtube.com"
            return host, httpwire.fetch("127.0.0.1", host, f"/{i}", port=port, timeout=10)

        def lookup(_):
            return dnswire.query(norton, "blocked-dns.test", timeout=5, retries=2)[0]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=64) as pool:
                fetches = [pool.submit(fetch, i) for i in range(64)]
                lookups = [pool.submit(lookup, i) for i in range(64)]
                fetched = [f.result(timeout=30) for f in fetches]
                answered = [f.result(timeout=30) for f in lookups]
        finally:
            sys.setswitchinterval(interval)

        for host, obs in fetched:
            if host == "youtube.com":
                assert obs.status == 302 and "10.16.6.41" in obs.location
            else:
                assert obs.status == 200
                assert obs.body_excerpt == ORIGIN_BODY % b"site001.test"
        assert all(msg.answers == ["198.153.192.3"] for msg in answered)
        assert len(emu.recorder.sessions) - sessions_before == 64
        assert len(emu.origin.requests) - origin_before == 32
