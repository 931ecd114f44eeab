import errno
import json
import os
import socket
import struct
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from censorprobe import dnswire, emulator, httpwire
from censorprobe.emulator import (
    CensorPolicy,
    DnsListener,
    Emulator,
    Generation,
    OriginStub,
    handle_dns,
    load_policy,
    serve_warning_site,
)
from censorprobe.classify import classify_target
from censorprobe.model import (
    PUBLIC_RESOLVERS,
    InvalidDocument,
    Mechanism,
    ResolverSpec,
    parse_target,
)
from censorprobe.probe import run_campaign

from conftest import (
    ORIGIN_BODY,
    fingerprints_for,
    make_policy,
    probe_config_for,
    start_emulator,
)

RESOLVERS = {r.name: r for r in PUBLIC_RESOLVERS}


def match_host(pattern: str, host: str) -> bool:
    """Exact match, or leading-wildcard suffix match ("*.example.com")."""
    if pattern.startswith("*."):
        suffix = pattern[1:]  # ".example.com"
        return host.endswith(suffix) and len(host) > len(suffix)
    return host == pattern


class LinearPolicy:
    """Scans every rule in list order on every lookup, as CensorPolicy did
    before it built indexes: the oracle of the differential test below."""

    def __init__(self, policy: CensorPolicy):
        self.policy = policy
        names = [*policy.http_host_rules, *(p for p, _ in policy.http_host_uri_rules)]
        self.keyword_names = tuple(
            dict.fromkeys(p[2:] if p.startswith("*.") else p for p in names)
        )

    def zone_lookup(self, host: str):
        for name, addrs in self.policy.zone:
            if name == host:
                return addrs
        return None

    def matched_rule(self, host: str, uri: str):
        policy = self.policy
        if policy.generation is Generation.PassThrough:
            return None
        for pattern, needle in policy.http_host_uri_rules:
            if match_host(pattern, host) and needle in uri:
                return f"uri:{pattern}"
        for pattern in policy.http_host_rules:
            if match_host(pattern, host):
                return f"host:{pattern}"
        if policy.keyword_portal_interception:
            for name in self.keyword_names:
                if name in uri:
                    return f"keyword:{name}"
        return None

    def dns_blocked(self, qname: str) -> bool:
        return any(match_host(p, qname) for p in self.policy.dns_rules)

    def blackholed(self, host: str) -> bool:
        return any(match_host(p, host) for p in self.policy.blackhole_hosts)


# few short labels, so rules collide, nest and repeat; "" gives empty labels
_names = st.lists(st.sampled_from(["a", "b", "ab", "", "*"]), max_size=4).map(".".join)
_patterns = st.one_of(_names, _names.map("*.".__add__))
_hosts = st.one_of(_names, _names.map(".".__add__))
_uris = st.text(alphabet="ab.*/", max_size=14)


@st.composite
def _policies(draw) -> CensorPolicy:
    host_rules = draw(st.lists(_patterns, max_size=8))
    needles = st.sampled_from(["a", "b/", "/ab", ""])
    uri_rules = draw(st.lists(st.tuples(_patterns, needles), max_size=8))
    http_hosts = [*host_rules, *(p for p, _ in uri_rules)]
    dns_rules = draw(st.lists(st.sampled_from(http_hosts), max_size=6)) if http_hosts else []
    zone = [(name, (f"10.0.0.{i}",)) for i, name in enumerate(draw(st.lists(_names, max_size=6)))]
    return CensorPolicy(
        generation=draw(st.sampled_from(Generation)),
        dns_rules=tuple(dns_rules),
        http_host_rules=tuple(host_rules),
        http_host_uri_rules=tuple(uri_rules),
        keyword_portal_interception=draw(st.booleans()),
        zone=tuple(zone),
        blackhole_hosts=tuple(draw(st.lists(_patterns, max_size=4))),
    )


@settings(max_examples=100)
@given(_policies(), st.lists(st.tuples(_hosts, _uris), min_size=1, max_size=12))
def test_indexed_policy_matches_the_linear_scans(policy, requests):
    oracle = LinearPolicy(policy)
    for host, uri in requests:
        assert policy.matched_rule(host, uri) == oracle.matched_rule(host, uri)
        assert policy.dns_blocked(host) == oracle.dns_blocked(host)
        assert policy.zone_lookup(host) == oracle.zone_lookup(host)
        assert policy.blackholed(host) == oracle.blackholed(host)


class TestMatchHost:
    def _policy(self, pattern: str) -> CensorPolicy:
        return CensorPolicy(
            generation=Generation.Ixp200, dns_rules=(pattern,), http_host_rules=(pattern,)
        )

    def test_exact(self):
        policy = self._policy("youtube.com")
        assert policy.dns_blocked("youtube.com")
        assert not policy.dns_blocked("www.youtube.com")

    def test_wildcard_suffix(self):
        policy = self._policy("*.youtube.com")
        assert policy.dns_blocked("www.youtube.com")
        assert policy.dns_blocked("a.b.youtube.com")
        assert not policy.dns_blocked("youtube.com")
        assert not policy.dns_blocked(".youtube.com")
        assert not policy.dns_blocked("notyoutube.com")

    def test_first_listed_rule_wins(self):
        policy = make_policy(
            Generation.Ixp200,
            http_host_rules=("*.a.test", "b.a.test"),
            http_host_uri_rules=(("*.a.test", "/y"), ("b.a.test", "/x")),
            keyword_portal_interception=True,
        )
        assert policy.matched_rule("b.a.test", "/") == "host:*.a.test"
        assert policy.matched_rule("b.a.test", "/x/y") == "uri:*.a.test"
        assert policy.matched_rule("b.a.test", "/x") == "uri:b.a.test"
        assert policy.matched_rule("c.test", "/b.a.test/a.test") == "keyword:a.test"


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
        with pytest.raises(InvalidDocument) as exc:
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
        with pytest.raises(InvalidDocument) as exc:
            CensorPolicy(generation=Generation.Isp302, redirect_host="8.8.8.8")
        assert "redirect_host" in str(exc.value)

    def test_load_policy_minimal(self):
        policy = load_policy('{"generation": "Ixp200"}')
        assert policy.generation is Generation.Ixp200
        assert policy.warning_last_modified.startswith("Fri, 19 Apr 2013")

    def test_load_policy_bad_generation(self):
        with pytest.raises(InvalidDocument):
            load_policy('{"generation": "Nope"}')

    def test_load_policy_invariant_enforced(self):
        with pytest.raises(InvalidDocument):
            load_policy('{"generation": "Ixp200", "dns_rules": ["a.test"]}')

    @pytest.mark.parametrize(
        "rules, key",
        [
            ({"dns_rules": ["a.test", "B.test"], "http_host_rules": ["a.test", "B.test"]},
             "dns_rules[1]"),
            ({"http_host_rules": ["YouTube.com"]}, "http_host_rules[0]"),
            ({"http_host_uri_rules": [["a.test", "/x"], ["Vimeo.com", "/v"]]},
             "http_host_uri_rules[1]"),
            ({"blackhole_hosts": ["*.Stuck.test"]}, "blackhole_hosts[0]"),
            ({"zone": {"alive.test": [], "Alive.test": ["127.0.0.1"]}}, "zone"),
        ],
    )
    def test_upper_case_host_rejected(self, rules, key):
        # names on the wire are lower-cased, so such a rule could never match
        with pytest.raises(InvalidDocument) as exc:
            load_policy(json.dumps({"generation": "Ixp200", **rules}))
        assert exc.value.key == key
        assert "host must be lowercase" in str(exc.value)

    @pytest.mark.parametrize("as_file", [False, True])
    def test_full_and_minimal_documents_load_to_equal_policies(self, tmp_path, as_file):
        body_file = tmp_path / "warning.html"
        body_file.write_bytes(b"<html>blocked</html>")
        documents = [
            (
                {
                    "generation": "Isp302",
                    "dns_rules": ["a.test"],
                    "http_host_rules": ["a.test", "*.b.test"],
                    "http_host_uri_rules": [["c.test", "/x"]],
                    "resolver_map": [
                        {"name": "Google", "address": "8.8.8.8"},
                        {
                            "name": "Norton",
                            "address": "198.153.192.40",
                            "nxdomain_redirector": "198.153.192.3",
                            "port": 5301,
                        },
                    ],
                    "redirect_host": "10.0.0.9",
                    "warning_body": "stop",
                    "warning_body_file": str(body_file),
                    "warning_last_modified": "Sat, 20 Apr 2013 00:00:00 GMT",
                    "keyword_portal_interception": True,
                    "pop_label": "pop",
                    "rule_id": "7",
                    "zone": {"a.test": ["192.0.2.1"], "d.test": []},
                    "blackhole_hosts": ["e.test"],
                    "unknown": "ignored",
                },
                CensorPolicy(
                    generation=Generation.Isp302,
                    dns_rules=("a.test",),
                    http_host_rules=("a.test", "*.b.test"),
                    http_host_uri_rules=(("c.test", "/x"),),
                    resolver_map=(
                        ResolverSpec("Google", "8.8.8.8"),
                        ResolverSpec("Norton", "198.153.192.40", "198.153.192.3", 5301),
                    ),
                    redirect_host="10.0.0.9",
                    warning_body=b"stop",
                    warning_last_modified="Sat, 20 Apr 2013 00:00:00 GMT",
                    keyword_portal_interception=True,
                    pop_label="pop",
                    rule_id="7",
                    zone=(("a.test", ("192.0.2.1",)), ("d.test", ())),
                    blackhole_hosts=("e.test",),
                ),
            ),
            (
                {"generation": "Ixp200", "warning_body_file": str(body_file)},
                CensorPolicy(
                    generation=Generation.Ixp200, warning_body=b"<html>blocked</html>"
                ),
            ),
            ({"generation": "PassThrough"}, CensorPolicy(generation=Generation.PassThrough)),
        ]
        for doc, expected in documents:
            text = json.dumps(doc)
            if as_file:
                path = tmp_path / "policy.json"
                path.write_text(text, encoding="utf-8")
                with open(path, encoding="utf-8") as fh:
                    assert load_policy(fh) == expected
            else:
                assert load_policy(text) == expected

    def test_resolver_without_redirector_may_name_it_null(self):
        # as the benchmark's policies write each resolver that has none
        resolver = {"name": "Google", "address": "8.8.8.8", "nxdomain_redirector": None}
        doc = {"generation": "Ixp200", "resolver_map": [resolver]}
        assert load_policy(json.dumps(doc)) == CensorPolicy(
            generation=Generation.Ixp200, resolver_map=(ResolverSpec("Google", "8.8.8.8"),)
        )

    def test_bad_policy_file_named_in_error(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text('{"generation": "Ixp200", "dns_rules": "a.test"}', encoding="utf-8")
        with open(path, encoding="utf-8") as fh, pytest.raises(InvalidDocument) as exc:
            load_policy(fh)
        assert exc.value.path == str(path)
        assert exc.value.key == "dns_rules"
        assert str(exc.value) == f"{path}: dns_rules: expected a list of strings"

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


def _read_to_eof(sock: socket.socket) -> bytes:
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def _raw_http(endpoint, request: bytes) -> bytes:
    with socket.create_connection(endpoint, timeout=5) as sock:
        sock.sendall(request)
        return _read_to_eof(sock)


# the middlebox's replies, byte for byte: (emulator fixture, Host, reply)
REPLY_VECTORS = [
    (
        "isp302_emulator",
        b"youtube.com",
        b"HTTP/1.1 302 Found\r\n"
        b"Location: http://10.16.6.41/redirect.php?n=127.0.0.1@Isb-Dhok-P2&s=124\r\n"
        b"Content-Type: text/html\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    ),
    (
        "ixp200_emulator",
        b"youtube.com",
        b"HTTP/1.1 200 OK\r\nLast-Modified: Fri, 19 Apr 2013 10:47:01 GMT\r\n"
        b"Content-Type: text/html\r\nContent-Length: 97\r\nConnection: close\r\n\r\n"
        b"<html><head><title>Surf Safely!</title></head>"
        b"<body>This website is not accessible.</body></html>",
    ),
    (
        "passthrough_emulator",
        b"no-site.test",
        b"HTTP/1.1 404 Not Found\r\nContent-Type: text/html\r\nContent-Length: 13\r\n"
        b"Connection: close\r\n\r\n404 Not Found",
    ),
    (
        "passthrough_emulator",
        b"",
        b"HTTP/1.1 400 Bad Request\r\nContent-Type: text/html\r\nContent-Length: 11\r\n"
        b"Connection: close\r\n\r\nbad request",
    ),
]


@pytest.mark.parametrize(
    "fixture, host, reply", REPLY_VECTORS, ids=["302", "200-last-modified", "404", "400"]
)
def test_reply_bytes_on_the_wire(request, fixture, host, reply):
    emu = request.getfixturevalue(fixture)
    get = b"GET / HTTP/1.1\r\nHost: " + host + b"\r\n\r\n"
    assert _raw_http(emu.proxy.endpoint, get) == reply


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
        assert all(host != "youtube.com" for host, _ in emu.origin.requests)

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

    def test_space_in_path_gets_the_host_rule_verdict(self, ixp200_emulator):
        # the space is sent percent-encoded, so the proxy sees a well-formed
        # request line: no 400 on either fetch, and no UrlKeyword from it
        emu = ixp200_emulator
        (result,) = run_campaign([parse_target("http://youtube.com/a b")], probe_config_for(emu))
        assert result.errors == ()
        assert result.keyword.status == 404
        verdict = classify_target(result, fingerprints_for(emu.policy))
        assert verdict.mechanisms == {Mechanism.Http200Injection}

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

    def test_names_match_in_any_case(self):
        policy = make_policy(
            Generation.Ixp200,
            dns_rules=("blocked.test",),
            http_host_rules=("blocked.test",),
            live_hosts=("alive.test",),
        )
        with start_emulator(policy) as emu:
            norton = emu.dns_listeners["Norton"].endpoint
            msg, _ = dnswire.query(norton, "BLOCKED.Test", timeout=2)
            assert (msg.qname, msg.answers) == ("BLOCKED.Test", ["198.153.192.3"])
            google = emu.dns_listeners["Google"].endpoint
            msg, _ = dnswire.query(google, "Alive.TEST", timeout=2)
            assert (msg.qname, msg.answers) == ("Alive.TEST", ["127.0.0.1"])

    def test_malformed_query_gets_formerr(self, passthrough_emulator):
        endpoint = passthrough_emulator.dns_listeners["Google"].endpoint
        header = struct.pack(">HHHHHH", 0xBEEF, 0x0100, 1, 0, 0, 0)
        non_ascii = header + b"\x02\xc3\xbc\x04test\x00\x00\x01\x00\x01"
        dotted = header + b"\x01.\x00\x00\x01\x00\x01"
        # a pointer in the question name has no earlier name to point to
        compressed = header + b"\xc0\x07\x00\x01\x00\x01"
        for query in (b"\xde\xad\xbe", non_ascii, dotted, compressed):
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

    def test_root_name_gets_nxdomain(self, passthrough_emulator):
        endpoint = passthrough_emulator.dns_listeners["Google"].endpoint
        header = struct.pack(">HHHHHH", 0xCAFE, 0x0100, 1, 0, 0, 0)
        query = header + b"\x00" + b"\x00\x01\x00\x01"  # the root name, A, IN
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.settimeout(2)
            sock.sendto(query, endpoint)
            data, _ = sock.recvfrom(512)
        msg = dnswire.decode_message(data)
        assert (msg.txid, msg.rcode, msg.qname) == (0xCAFE, dnswire.RCODE_NXDOMAIN, "")


_LISTED = ("blocked.test", "alive.test", "a" * 63 + ".test")


@st.composite
def _queries(draw) -> tuple[bytes, bool]:
    """A query datagram, and whether its question name holds a pointer.

    The name is a listed one in mixed case or random labels (up to 63
    bytes, any byte), ended by the root or a pointer; then any qtype and
    qclass, maybe an answer record, an EDNS OPT record or random bytes, and
    maybe a cut at a random length."""
    listed = draw(st.sampled_from(_LISTED))
    swapped = draw(st.lists(st.booleans(), min_size=len(listed), max_size=len(listed)))
    mixed = "".join(c.swapcase() if swap else c for c, swap in zip(listed, swapped))
    labels = draw(
        st.just(mixed.encode().split(b"."))
        | st.lists(st.binary(min_size=1, max_size=63), max_size=4)
    )
    pointer = draw(st.none() | st.integers(0, 0x3FFF))
    name = b"".join(bytes([len(label)]) + label for label in labels)
    name += b"\x00" if pointer is None else struct.pack(">H", 0xC000 | pointer)
    header = struct.pack(
        ">HHHHHH",
        draw(st.integers(0, 0xFFFF)),
        draw(st.sampled_from([0x0100, 0x0000, 0x8180]) | st.integers(0, 0xFFFF)),
        draw(st.sampled_from([1, 1, 1, 0, 2])),
        draw(st.sampled_from([0, 0, 1])),
        0,
        draw(st.integers(0, 1)),
    )
    qtype = draw(st.sampled_from([dnswire.QTYPE_A, 28, 16, 255]))
    question = struct.pack(">HH", qtype, draw(st.sampled_from([1, 3])))
    record = b"\xc0\x0c" + struct.pack(">HHIH", 1, 1, 60, 4) + bytes(4)
    opt = b"\x00" + struct.pack(">HHIH", 41, 4096, 0, 0)
    extra = draw(st.sampled_from([b"", record, opt]) | st.binary(max_size=20))
    data = header + name + question + extra
    return data[: draw(st.none() | st.integers(0, len(data)))], pointer is not None


def _decoded_reply(listener: DnsListener, data: bytes) -> bytes | None:
    """The reply built by decoding the query into a DnsMessage and encoding
    its name again."""
    try:
        msg = dnswire.decode_message(data)
    except dnswire.DnsDecodeError:
        return data[:2] + b"\x81\x81" + b"\x00" * 8 if len(data) >= 2 else None
    kind, addrs = handle_dns(listener.policy, msg.qname.lower(), listener.resolver)
    rcode = dnswire.RCODE_NOERROR if kind == "A" else dnswire.RCODE_NXDOMAIN
    return dnswire.encode_response(msg.txid, msg.qname, rcode, addrs)


@pytest.fixture(scope="module")
def norton_listener():
    policy = make_policy(
        Generation.Ixp200,
        dns_rules=("blocked.test",),
        http_host_rules=("blocked.test",),
        live_hosts=_LISTED[1:],
    )
    listener = DnsListener(policy, RESOLVERS["Norton"])
    yield listener
    listener.close()


@given(_queries())
def test_answer_copying_the_question_equals_decode_and_encode(norton_listener, query):
    data, compressed = query
    reply = norton_listener.answer(data)
    if compressed:  # FORMERR, whatever follows
        assert reply == (data[:2] + b"\x81\x81" + b"\x00" * 8 if len(data) >= 2 else None)
    else:
        assert reply == _decoded_reply(norton_listener, data)


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
        emu = start_emulator(self._policy())
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


class TestFinishedSessionsStoredOnce:
    def _policy(self):
        return make_policy(
            Generation.Isp302,
            http_host_rules=("blocked.test",),
            live_hosts=("alive.test", "stuck.test", "www.google.com"),
            keyword_portal_interception=True,
            blackhole_hosts=("stuck.test",),
        )

    # the transcript of one run below, as the emulator has always recorded it
    RUN = [
        ("censor-http", [("in", "GET / HTTP/1.1"), ("out", "HTTP/1.1 200 OK")]),
        ("censor-http", [("in", "GET / HTTP/1.1"), ("out", "HTTP/1.1 302 Found")]),
        (
            "censor-http",
            [("in", "GET /http://blocked.test/ HTTP/1.1"), ("out", "HTTP/1.1 302 Found")],
        ),
        (
            "censor-http",
            [("in", "GET /http://fine.test/ HTTP/1.1"), ("out", "HTTP/1.1 404 Not Found")],
        ),
        ("censor-http", [("in", "GET /alive HTTP/1.1"), ("out", "HTTP/1.1 200 OK")]),
        ("censor-http", [("in", "GET /alive HTTP/1.1"), ("out", "HTTP/1.1 200 OK")]),
        ("censor-http", []),
        ("censor-http", []),
        ("censor-http", []),
    ]

    def _run(self, emu):
        """Fetches, keyword fetches and bare connects; one connection each."""
        port = emu.proxy.endpoint[1]
        for host, uri in (
            ("alive.test", "/"),
            ("blocked.test", "/"),
            ("www.google.com", "/http://blocked.test/"),
            ("www.google.com", "/http://fine.test/"),
            ("alive.test", "/alive"),
            ("alive.test", "/alive"),
        ):
            httpwire.fetch("127.0.0.1", host, uri, port=port, timeout=5)
        for _ in range(3):
            socket.create_connection(emu.proxy.endpoint, timeout=5).close()
        return len(self.RUN)

    @staticmethod
    def _all_finished(sessions, count):
        """Every connection accepted, and each content stored as one object."""
        return len(sessions) == count and len({id(s) for s in sessions}) == len(
            {(s.listener, tuple(s.entries)) for s in sessions}
        )

    def test_repeated_traffic_adds_no_session_objects(self):
        with start_emulator(self._policy()) as emu:
            sessions = emu.recorder.sessions
            first = self._run(emu)
            _wait_for(lambda: self._all_finished(sessions, first))
            distinct = len({id(s) for s in sessions})
            second = self._run(emu)
            _wait_for(lambda: self._all_finished(sessions, first + second))
            assert len(sessions) == first + second
            assert len({id(s) for s in sessions}) == distinct
            bare = [s for s in sessions if not s.entries]
            assert len(bare) == 6 and all(s is bare[0] for s in bare)
            assert [(s.listener, s.entries) for s in sessions] == self.RUN * 2

    def test_parked_session_is_its_own_until_stop(self):
        emu = start_emulator(self._policy())
        parked = [socket.create_connection(emu.proxy.endpoint, timeout=5) for _ in range(2)]
        try:
            for sock in parked:
                sock.sendall(b"GET / HTTP/1.1\r\nHost: stuck.test\r\n\r\n")
            sessions = emu.recorder.sessions
            expected = [("in", "GET / HTTP/1.1"), ("out", "<blackhole>")]
            _wait_for(lambda: [s.entries for s in sessions] == [expected, expected])
            assert sessions[0] is not sessions[1]
            emu.stop()
            assert sessions[0] is sessions[1]
            assert sessions[0].entries == expected
        finally:
            for sock in parked:
                sock.close()
            emu.stop()


def _reset(sock: socket.socket) -> None:
    """Close with an RST instead of a FIN."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()


def _big_reply_emulator() -> Emulator:
    """An Ixp200 censor whose warning page is larger than any socket buffer."""
    body = b"<html>" + bytes(range(256)) * (8 * 4096) + b"</html>"  # 8 MiB and 13 bytes
    policy = make_policy(Generation.Ixp200, http_host_rules=("blocked.test",), warning_body=body)
    return start_emulator(policy)


BLOCKED_GET = b"GET / HTTP/1.1\r\nHost: blocked.test\r\n\r\n"


def _wait_for_unsent_rest(sock: socket.socket, emu: Emulator) -> None:
    """Wait until the answer on sock has begun to arrive; its one connection
    then stays open, the rest unsent until the client reads."""
    sock.recv(1, socket.MSG_PEEK)
    assert len(emu.proxy.connections) == 1


class TestListenerSockets:
    """The loop reads and answers each socket itself; these drive its edges."""

    def test_reply_larger_than_the_send_buffer_arrives_whole(self):
        with _big_reply_emulator() as emu:
            with socket.create_connection(emu.proxy.endpoint, timeout=5) as sock:
                sock.sendall(BLOCKED_GET)
                # not reading yet leaves the rest of the reply waiting to be sent
                _wait_for_unsent_rest(sock, emu)
                reply = _read_to_eof(sock)
            stamp = ("Last-Modified", emu.policy.warning_last_modified)
            assert reply == httpwire.encode_response(200, "OK", emu.policy.warning_body, stamp)
            _wait_for(lambda: not emu.proxy.connections)

    def test_head_in_three_segments_is_answered_once(self, passthrough_emulator):
        emu = passthrough_emulator
        before = len(emu.origin.requests)
        with socket.create_connection(emu.proxy.endpoint, timeout=5) as sock:
            for segment in (b"GET /seg HTTP/1.1\r\n", b"Host: site001.test\r\n", b"\r\n"):
                sock.sendall(segment)
                time.sleep(0.05)
            reply = _read_to_eof(sock)
        assert reply == emu.origin.response_for("site001.test", "/seg")
        assert emu.origin.requests[before:] == [("site001.test", "/seg")]

    def test_head_of_64_kib_without_terminator_gets_400(self, passthrough_emulator):
        raw = _raw_http(passthrough_emulator.proxy.endpoint, b"A" * 65536)
        assert raw == httpwire.encode_response(400, "Bad Request", b"bad request")

    def test_queries_sent_before_any_read_are_each_answered_once(self, passthrough_emulator):
        endpoint = passthrough_emulator.dns_listeners["Norton"].endpoint
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.settimeout(5)
            for txid in range(64):
                sock.sendto(dnswire.encode_query(txid, "site001.test"), endpoint)
            txids = [dnswire.decode_message(sock.recv(512)).txid for _ in range(64)]
            sock.settimeout(0.2)
            with pytest.raises(TimeoutError):
                sock.recv(512)
        assert sorted(txids) == list(range(64))

    def test_each_wakeup_answers_a_bounded_number_of_queries(self):
        # a flood on one port must leave the loop to the other listeners
        policy = make_policy(Generation.PassThrough, live_hosts=("alive.test",))
        emu = Emulator(policy)  # not started: the test runs the read callback itself
        listener = emu.dns_listeners["Google"]
        bound = emulator._DATAGRAMS_PER_WAKEUP
        try:
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                sock.settimeout(5)
                for txid in range(bound + 5):
                    sock.sendto(dnswire.encode_query(txid, "alive.test"), listener.endpoint)
                time.sleep(0.1)
                listener.read()
                assert listener.request_count == bound
                listener.read()
                assert listener.request_count == bound + 5
                txids = [dnswire.decode_message(sock.recv(512)).txid for _ in range(bound + 5)]
            assert txids == list(range(bound + 5))
        finally:
            emu.stop()

    @pytest.mark.parametrize("code", [errno.EMFILE, errno.ENFILE, errno.ENOBUFS, errno.ENOMEM])
    def test_accept_out_of_resources_pauses_the_listener(self, code, monkeypatch, caplog):
        monkeypatch.setattr(emulator, "_ACCEPT_RETRY_DELAY", 0.3)
        real_accept = socket.socket.accept
        calls = []

        def accept(sock):
            calls.append(time.monotonic())
            if len(calls) == 1:
                raise OSError(code, os.strerror(code))
            return real_accept(sock)

        with start_emulator(make_policy(Generation.PassThrough, live_hosts=("a.test",))) as emu:
            monkeypatch.setattr(socket.socket, "accept", accept)
            obs = httpwire.fetch("127.0.0.1", "a.test", "/", port=emu.proxy.endpoint[1])
            assert obs.status == 200
        # the failed accept paused the listener instead of letting the loop spin on it
        assert calls[1] - calls[0] >= 0.25
        logged = [r.getMessage() for r in caplog.get_records("call") if r.name == "censorprobe.emulator"]
        assert len(logged) == 1 and "socket.accept() out of system resource" in logged[0]
        caplog.clear()  # the one error this test expects

    def test_aborted_connection_is_skipped(self, monkeypatch):
        real_accept = socket.socket.accept
        aborted = []

        def accept(sock):
            if not aborted:
                aborted.append(True)
                raise ConnectionAbortedError(errno.ECONNABORTED, "aborted")
            return real_accept(sock)

        with start_emulator(make_policy(Generation.PassThrough, live_hosts=("a.test",))) as emu:
            monkeypatch.setattr(socket.socket, "accept", accept)
            obs = httpwire.fetch("127.0.0.1", "a.test", "/", port=emu.proxy.endpoint[1])
            assert obs.status == 200
        assert aborted == [True]

    def test_reset_while_reading_the_head_closes_the_connection(self, passthrough_emulator):
        emu = passthrough_emulator
        sock = socket.create_connection(emu.proxy.endpoint, timeout=5)
        try:
            sock.sendall(b"GET / HT")
            # accepted, and no request line noted yet: still reading the head
            _wait_for(
                lambda: [emu.recorder.sessions[i].entries for i in emu.proxy.connections.values()]
                == [[]]
            )
        finally:
            ((conn, session),) = emu.proxy.connections.items()
            _reset(sock)
        _wait_for(lambda: not emu.proxy.connections)
        assert conn.fileno() == -1
        assert emu.recorder.sessions[session].entries == []

    def test_reset_while_sending_closes_the_connection(self):
        with _big_reply_emulator() as emu:
            sock = socket.create_connection(emu.proxy.endpoint, timeout=5)
            try:
                sock.sendall(BLOCKED_GET)
                _wait_for_unsent_rest(sock, emu)
            finally:
                ((conn, session),) = emu.proxy.connections.items()
                _reset(sock)
            _wait_for(lambda: not emu.proxy.connections)
            assert conn.fileno() == -1
            assert emu.recorder.sessions[session].entries == [
                ("in", "GET / HTTP/1.1"),
                ("out", "HTTP/1.1 200 OK"),
            ]

    def test_handler_that_raises_closes_its_connection(self, monkeypatch, caplog):
        def response_for(origin, host, uri):
            raise RuntimeError("handler fault")

        with start_emulator(make_policy(Generation.PassThrough, live_hosts=("a.test",))) as emu:
            port = emu.proxy.endpoint[1]
            monkeypatch.setattr(OriginStub, "response_for", response_for)
            with pytest.raises(httpwire.HttpTransportError):
                httpwire.fetch("127.0.0.1", "a.test", "/", port=port, timeout=2)
            _wait_for(lambda: not emu.proxy.connections)
            monkeypatch.undo()
            assert httpwire.fetch("127.0.0.1", "a.test", "/", port=port).status == 200
        raised = [r.exc_info[1] for r in caplog.get_records("call") if r.name == "censorprobe.emulator"]
        assert [str(exc) for exc in raised] == ["handler fault"]
        caplog.clear()  # the one error this test expects

    @pytest.mark.parametrize(
        "reply, status",
        [
            (httpwire.encode_response(200, "OK", b"body\r\nwith a line end"), "HTTP/1.1 200 OK"),
            (b"HTTP/1.1 200 OK with no line end", "HTTP/1.1 200 OK with no line end"),
        ],
        ids=["crlf", "no-crlf"],
    )
    def test_transcript_records_the_status_line_only(self, monkeypatch, reply, status):
        monkeypatch.setattr(OriginStub, "response_for", lambda origin, host, uri: reply)
        with start_emulator(make_policy(Generation.PassThrough, live_hosts=("a.test",))) as emu:
            assert _raw_http(emu.proxy.endpoint, b"GET / HTTP/1.1\r\nHost: a.test\r\n\r\n") == reply
            _wait_for(lambda: not emu.proxy.connections)
            (session,) = emu.recorder.sessions
        assert session.entries == [("in", "GET / HTTP/1.1"), ("out", status)]

    def test_request_counts_per_listener(self):
        policy = make_policy(
            Generation.PassThrough, live_hosts=("site001.test", "site002.test", "www.google.com")
        )
        targets = [parse_target(f"http://site00{1 + i % 2}.test/{i}") for i in range(8)]
        with start_emulator(policy) as emu:
            config = probe_config_for(emu)
            del config.host_overrides["www.google.com"]  # the campaign resolves the portal
            results = run_campaign(targets, config)
            assert all(r.errors == () for r in results)
            # each target: one query per resolver, and a TCP connect, a
            # keyword fetch and an HTTP fetch through the proxy; plus one
            # lookup of the portal for the campaign
            expected = {r.name: len(targets) + 1 for r in policy.resolver_map}
            expected.update({"censor-http": 3 * len(targets), "warning-site": 0, "origin": 0})
            _wait_for(lambda: emu.request_counts()["censor-http"] == 3 * len(targets))
            assert emu.request_counts() == expected

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    def test_stop_leaves_no_descriptor_open(self):
        policy = make_policy(
            Generation.Isp302,
            http_host_rules=("blocked.test",),
            live_hosts=("site001.test", "blocked.test", "stuck.test", "www.google.com"),
            blackhole_hosts=("stuck.test",),
        )
        before = len(os.listdir("/proc/self/fd"))
        emu = start_emulator(policy)
        parked = socket.create_connection(emu.proxy.endpoint, timeout=5)
        try:
            targets = [parse_target(f"http://{h}.test/") for h in ("site001", "blocked")]
            assert all(r.errors == () for r in run_campaign(targets, probe_config_for(emu)))
            parked.sendall(b"GET / HTTP/1.1\r\nHost: stuck.test\r\n\r\n")
            _wait_for(
                lambda: any(("out", "<blackhole>") in s.entries for s in emu.recorder.sessions)
            )
        finally:
            emu.stop()
            parked.close()
        assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize(
    "host_rules, uri_rules, first",
    [
        (("a.test", "b.test"), (), "a.test"),
        (("b.test", "a.test"), (), "b.test"),
        (("*.b.test",), (("a.test", "/x"),), "b.test"),
        ((), (("b.test", "/x"), ("a.test", "/x")), "b.test"),
    ],
)
def test_keyword_rule_is_first_listed_name_in_uri(host_rules, uri_rules, first):
    policy = make_policy(
        Generation.Ixp200,
        http_host_rules=host_rules,
        http_host_uri_rules=uri_rules,
        keyword_portal_interception=True,
    )
    for uri in ("/http://a.test/b.test", "/http://b.test/a.test"):
        assert policy.matched_rule("www.google.com", uri) == f"keyword:{first}"
