import ast
import ipaddress
import random
from pathlib import Path

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
    InvalidDocument,
    given_keys,
    is_private_ip,
    parse_target,
    str_list,
    str_object,
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


class TestGivenKeys:
    @pytest.mark.parametrize(
        "entry, value, loaded",
        [(str, "a", "a"), (int, 5, 5), (float, 5, 5), (float, 0.5, 0.5), (bool, False, False),
         (str | None, None, None), (str | None, "a", "a"), (str_list, ["a"], ("a",)),
         (str_object, {"a": "b"}, {"a": "b"}), (lambda text: int(text) + 1, "3", 4)],
    )
    def test_check_takes_its_json_type_and_builder_builds(self, entry, value, loaded):
        assert given_keys({"k": value, "x": "ignored"}, k=entry, n=str) == {"k": loaded}

    @pytest.mark.parametrize(
        "entry, value",
        [(str, 5), (str, None), (int, True), (int, 5.0), (float, False), (float, "5"),
         (bool, 1), (bool, "false"), (str | None, 5), (int, [1]), (str_list, "ab"),
         (str_list, ["a", 1]), (str_list, {"a": "b"}), (str_object, [["a", "b"]]),
         (str_object, {"a": 5}), (str_object, {"a": None})],
    )
    def test_value_of_another_json_type_is_rejected_naming_the_key(self, entry, value):
        with pytest.raises(InvalidDocument) as exc:
            given_keys({"k": value}, k=entry)
        assert exc.value.key == "k" and str(exc.value).startswith("k: expected ")


SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "censorprobe").glob("*.py"))
CASTS = {"tuple", "list", "set", "frozenset", "dict"}


def test_no_reader_takes_a_value_unchecked_or_casts_it():
    """Every given_keys entry, read from the source with ast, is a check or a
    builder: not None (a value taken as it is) nor a bare cast, which reads a
    string as its characters. The one entry list built at run time is
    references' one builder per host name."""
    calls, faults = 0, []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "given_keys"):
                continue
            calls += 1
            for kw in node.keywords:
                where = f"{path.name}:{kw.value.lineno}: {kw.arg or '**'}"
                if kw.arg is None:
                    if ast.unparse(kw.value) != "dict.fromkeys(doc, reference)":
                        faults.append(f"{where}: entries not written inline")
                elif isinstance(kw.value, ast.Constant) and kw.value.value is None:
                    faults.append(f"{where}: None")
                elif isinstance(kw.value, ast.Name) and kw.value.id in CASTS:
                    faults.append(f"{where}: bare {kw.value.id}")
    assert calls >= 8
    assert not faults
