import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censorprobe import circumvent, httpwire
from censorprobe.circumvent import (
    CORAL_SUFFIX,
    CircumventionConfig,
    Method,
    Outcome,
    cache_url,
    coralize,
    evaluate_matrix,
    extract_cached_url,
)
from censorprobe.model import parse_target

from conftest import fingerprints_for

label = st.from_regex(r"[a-z]([a-z0-9-]{0,8}[a-z0-9])?", fullmatch=True)
hosts = st.lists(label, min_size=2, max_size=4).map(".".join)
paths = st.lists(
    st.text("abcdefghijklmnopqrstuvwxyz0123456789._-", min_size=1, max_size=6),
    max_size=3,
).map(lambda segs: "/" + "/".join(segs))
queries = st.one_of(
    st.none(),
    st.text("abcdefghijklmnopqrstuvwxyz0123456789=&_-", min_size=1, max_size=12),
)
targets = st.builds(
    lambda h, p, q: parse_target(f"http://{h}{p}" + (f"?{q}" if q else "")),
    hosts,
    paths,
    queries,
)


class TestCoralize:
    def test_example(self):
        t = coralize(parse_target("http://youtube.com/watch?v=x"))
        assert t.render() == "http://youtube.com.nyud.net/watch?v=x"

    @given(targets)
    @settings(max_examples=100)
    def test_only_the_host_changes(self, target):
        out = coralize(target)
        # independent check: reverse the transform textually and compare
        assert out.host.endswith(CORAL_SUFFIX)
        assert out.host[: -len(CORAL_SUFFIX)] == target.host
        assert out.render().replace(
            f"//{target.host}{CORAL_SUFFIX}", f"//{target.host}", 1
        ) == target.render()
        assert (out.scheme, out.path, out.query) == (
            target.scheme,
            target.path,
            target.query,
        )


class TestCacheUrls:
    def test_google_cache_example(self):
        url = cache_url(parse_target("http://site.test/page"))
        assert url.render() == (
            "http://webcache.googleusercontent.com/search"
            "?q=cache:http://site.test/page"
        )

    @given(targets)
    @settings(max_examples=100)
    def test_embedded_url_is_recoverable(self, target):
        assert extract_cached_url(cache_url(target)) == target.render()

    def test_mismatched_template_rejected(self):
        mirror = {"GoogleCache": "http://mirror.test/c/{URL}"}
        url = cache_url(parse_target("http://site.test/"), mirror)
        with pytest.raises(ValueError):
            extract_cached_url(url)

    def test_custom_template(self):
        templates = {"GoogleCache": "http://mirror.test/c/{URL}"}
        target = parse_target("http://site.test/a")
        url = cache_url(target, templates)
        assert url.host == "mirror.test"
        assert extract_cached_url(url, templates) == (
            target.render()
        )


class TestHostHeaderFetch:
    def test_one_address_two_hosts(self, passthrough_emulator):
        # virtual hosting: the Host header alone selects the site
        port = passthrough_emulator.proxy.endpoint[1]
        a = httpwire.fetch("127.0.0.1", "site001.test", "/", port=port)
        b = httpwire.fetch("127.0.0.1", "site002.test", "/", port=port)
        assert b"site001.test" in a.body_excerpt
        assert b"site002.test" in b.body_excerpt
        assert a.body_digest != b.body_digest


class TestEvaluateMatrix:
    @pytest.fixture(autouse=True)
    def _short_fetch_timeout(self, monkeypatch):
        monkeypatch.setattr(circumvent, "FETCH_TIMEOUT", 3.0)

    def _config(self, emu):
        return CircumventionConfig(
            methods=list(Method),
            fingerprints=fingerprints_for(emu.policy),
            http_port=emu.proxy.endpoint[1],
            default_address="127.0.0.1",
        )

    def test_outcomes_match_policy_ground_truth(self, isp302_emulator):
        emu = isp302_emulator
        emu.origin.add_site(
            "webcache.googleusercontent.com", b"<html>cached copy</html>"
        )
        config = self._config(emu)
        blocked = parse_target("http://youtube.com")
        clean = parse_target("http://site001.test")
        matrix = evaluate_matrix([blocked, clean], list(Method), config)
        # direct fetch through the censor path still trips the host rule
        assert matrix[(blocked.render(), Method.WebDnsPlusHostHeader)] is Outcome.Blocked
        # the CDN-suffixed hostname no longer matches the rule
        assert matrix[(blocked.render(), Method.CoralCdn)] is Outcome.Accessible
        # the cache host is unblocked, so the copy comes through
        assert matrix[(blocked.render(), Method.SearchCache)] is Outcome.Accessible
        assert matrix[(clean.render(), Method.WebDnsPlusHostHeader)] is Outcome.Accessible

    def test_search_cache_fetches_from_the_configured_template(self, isp302_emulator):
        emu = isp302_emulator
        emu.origin.add_site("cache.test", b"<html>cached copy</html>")
        config = self._config(emu)
        config.host_ip_table, config.default_address = {"cache.test": "127.0.0.1"}, None
        target = parse_target("http://youtube.com")
        key = (target.render(), Method.SearchCache)
        # the default template's host has no address in this table
        assert evaluate_matrix([target], [Method.SearchCache], config)[key] is Outcome.Inconclusive
        config.cache_templates = {"GoogleCache": "http://cache.test/c/{URL}"}
        assert evaluate_matrix([target], [Method.SearchCache], config)[key] is Outcome.Accessible
        assert ("cache.test", "/c/" + target.render()) in emu.origin.requests

    def test_host_uri_block_and_fake_200(self, ixp200_emulator):
        config = self._config(ixp200_emulator)
        target = parse_target("http://vimeo.com/video/64414932")
        matrix = evaluate_matrix([target], [Method.WebDnsPlusHostHeader], config)
        assert matrix[(target.render(), Method.WebDnsPlusHostHeader)] is Outcome.Blocked

    def test_unreachable_method_is_inconclusive(self, isp302_emulator, monkeypatch):
        monkeypatch.setattr(circumvent, "FETCH_TIMEOUT", 0.3)
        config = self._config(isp302_emulator)
        config.http_port = 1
        target = parse_target("http://site001.test")
        matrix = evaluate_matrix([target], [Method.WebDnsPlusHostHeader], config)
        assert matrix[(target.render(), Method.WebDnsPlusHostHeader)] is Outcome.Inconclusive

    def test_unconfigured_address_is_inconclusive(self, isp302_emulator):
        config = self._config(isp302_emulator)
        config.default_address = None
        target = parse_target("http://site001.test")
        matrix = evaluate_matrix([target], [Method.WebDnsPlusHostHeader], config)
        assert matrix[(target.render(), Method.WebDnsPlusHostHeader)] is Outcome.Inconclusive
