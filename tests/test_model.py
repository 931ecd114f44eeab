import ipaddress
import random

import pytest
from hypothesis import given, strategies as st

from censorprobe.model import (
    DnsObservation,
    DnsOutcome,
    HttpObservation,
    MalformedUrl,
    ResolverSpec,
    TargetUrl,
    TcpObservation,
    TcpResult,
    Verdict,
    Mechanism,
    is_private_ip,
    parse_target,
)


class TestParseTarget:
    def test_plain_url(self):
        t = parse_target("http://www.youtube.com")
        assert (t.scheme, t.host, t.path) == ("http", "www.youtube.com", "/")

    def test_case_folds_host_only(self):
        t = parse_target("HTTP://Example.COM/A")
        assert (t.scheme, t.host, t.path) == ("http", "example.com", "/A")

    def test_rejects_non_url(self):
        with pytest.raises(MalformedUrl):
            parse_target("not a url")

    def test_missing_scheme_defaults_http(self):
        assert parse_target("example.com/x").scheme == "http"

    def test_fragment_stripped(self):
        t = parse_target("http://a.com/p#frag")
        assert t.path == "/p"
        assert t.query is None

    def test_query_kept(self):
        t = parse_target("http://a.com/watch?v=abc")
        assert t.query == "v=abc"
        assert t.request_uri() == "/watch?v=abc"

    def test_empty_rejected(self):
        with pytest.raises(MalformedUrl):
            parse_target("   ")

    def test_idn_host_idna_encoded(self):
        t = parse_target("http://BÜCHER.de/x")
        assert t.host == "xn--bcher-kva.de"
        assert t.raw == "http://BÜCHER.de/x"
        assert parse_target(t.render()) == t

    @pytest.mark.parametrize(
        "line, host",
        [
            ("a.test:80", "a.test"),
            ("https://A.test:443/x", "a.test"),
            ("http://a.test:/", "a.test"),
            ("http://[::1]/", "[::1]"),
        ],
    )
    def test_default_port_dropped(self, line, host):
        t = parse_target(line)
        assert t.host == host
        assert parse_target(t.render()) == t

    @pytest.mark.parametrize(
        "line",
        [
            "a.test:8080",
            "http://a.test:443/",
            "http://user:pw@a.test:81/",
            "http://user@a.test/",
            "a.test:abc",
            "a.test:99999",
            "http://[::1",
        ],
    )
    def test_port_or_userinfo_rejected(self, line):
        with pytest.raises(MalformedUrl):
            parse_target(line)

    @pytest.mark.parametrize(
        "line, rendered",
        [
            ("http://youtube.com/a b", "http://youtube.com/a%20b"),
            ("http://a.test/caf€", "http://a.test/caf%E2%82%AC"),
            ("http://a.test/x\x01y?q=é f", "http://a.test/x%01y?q=%C3%A9%20f"),
            ("http://a.test/%20?a=%2F&b=<\"`>{}|", "http://a.test/%20?a=%2F&b=<\"`>{}|"),
        ],
    )
    def test_path_and_query_percent_encoded(self, line, rendered):
        t = parse_target(line)
        assert t.render() == rendered
        assert t.raw == line
        assert parse_target(t.render()) == t
        assert t.request_uri().isascii()

    @pytest.mark.parametrize("host", ["a..com", "x" * 64 + ".com", ".", "bü..de"])
    def test_bad_label_rejected(self, host):
        with pytest.raises(MalformedUrl):
            parse_target(f"http://{host}/")


_host_label = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=10)
_hosts = st.lists(_host_label, min_size=1, max_size=4).map(".".join)
_paths = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789/._-", max_size=20
).map(lambda s: "/" + s)
_queries = st.one_of(
    st.none(),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789=&", min_size=1, max_size=20),
)


@given(_hosts, st.sampled_from(["http", "https"]), _paths, _queries)
def test_render_parse_round_trip(host, scheme, path, query):
    t = TargetUrl(raw="", scheme=scheme, host=host, path=path, query=query)
    assert parse_target(t.render()) == t


@given(st.text(alphabet=[chr(c) for c in range(0x21, 0x7F) if chr(c) not in "#?"]))
def test_printable_ascii_path_kept_as_is(path):
    assert parse_target("http://a.test/" + path).path == "/" + path


def test_parse_is_total_over_lines():
    lines = [
        "http://a.com",
        "garbage with spaces",
        "b.com/x",
        "://",
        "",
        "bücher.de",
        "a..com",
        "x" * 64 + ".com",
        "a.test:8080",
        "http://user:pw@a.test:81/",
        "a.test:abc",
        "http://[::1",
        "http://youtube.com/a b",
        "http://a.test/caf€",
        "http://a.test/caf\udcff",  # an undecodable byte, escaped
        "http://a.test/#\ud800",
    ]
    for line in lines:
        try:
            result = parse_target(line)
            assert isinstance(result, TargetUrl)
        except MalformedUrl:
            pass  # the only other allowed outcome


class TestIsPrivateIp:
    def test_redirect_target_is_private(self):
        assert is_private_ip("10.16.6.41") is True

    def test_public_resolver_is_not(self):
        assert is_private_ip("8.8.8.8") is False

    def test_upper_end_of_172_range(self):
        # independent check: 172.16.0.0/12 spans 172.16.0.0-172.31.255.255
        assert is_private_ip("172.31.255.254") is True
        assert is_private_ip("172.32.0.1") is False

    def test_ipv6_always_false(self):
        assert is_private_ip("fd00::1") is False

    def test_brute_force_partition(self):
        # oracle: plain octet arithmetic over the three RFC1918 ranges
        def oracle(a, b, c, d):
            if a == 10:
                return True
            if a == 172 and 16 <= b <= 31:
                return True
            if a == 192 and b == 168:
                return True
            return False

        rng = random.Random(20130419)
        for _ in range(10_000):
            octets = [rng.randrange(256) for _ in range(4)]
            addr = ".".join(map(str, octets))
            assert is_private_ip(addr) == oracle(*octets), addr


class TestObservationInvariants:
    def test_answers_require_addresses(self):
        r = ResolverSpec("Google", "8.8.8.8")
        with pytest.raises(ValueError):
            DnsObservation(r, "a.com", DnsOutcome.Answers, ())

    def test_non_answers_forbid_addresses(self):
        r = ResolverSpec("Google", "8.8.8.8")
        with pytest.raises(ValueError):
            DnsObservation(r, "a.com", DnsOutcome.NxDomain, ("1.2.3.4",))

    def test_tcp_port_range(self):
        with pytest.raises(ValueError):
            TcpObservation("1.2.3.4", TcpResult.Connected, port=0)

    def test_http_status_range(self):
        with pytest.raises(ValueError):
            HttpObservation("a.com", "/", status=99)

    def test_location_only_on_redirects(self):
        with pytest.raises(ValueError):
            HttpObservation("a.com", "/", status=200, location="http://b.com")
        obs = HttpObservation("a.com", "/", status=302, location="http://b.com")
        assert obs.location == "http://b.com"

    def test_resolver_redirector_must_differ(self):
        with pytest.raises(ValueError):
            ResolverSpec("X", "1.2.3.4", nxdomain_redirector="1.2.3.4")

    def test_resolver_address_must_be_ip(self):
        with pytest.raises(ValueError):
            ResolverSpec("X", "not-an-ip")


def test_verdict_clean_iff_no_mechanisms():
    t = parse_target("http://a.com")
    assert Verdict(t, frozenset()).clean is True
    assert Verdict(t, frozenset({Mechanism.DnsInjection})).clean is False
