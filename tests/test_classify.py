import hashlib

import pytest

from censorprobe.classify import (
    AmbiguousEvidence,
    FingerprintSet,
    Reference,
    classify_dns,
    classify_http,
    classify_target,
)
from censorprobe.model import (
    DnsObservation,
    DnsOutcome,
    HttpObservation,
    Mechanism,
    PUBLIC_RESOLVERS,
    ResolverSpec,
    TcpObservation,
    TcpResult,
    parse_target,
)
from censorprobe.probe import TargetProbeResult, run_target

from conftest import ORIGIN_BODY, fingerprints_for, probe_config_for

RESOLVERS = {r.name: r for r in PUBLIC_RESOLVERS}

FPS = FingerprintSet(
    warning_page_digests=frozenset({hashlib.sha256(b"warning page").hexdigest()}),
    warning_excerpt_patterns=(b"not accessible",),
)


def _origin_digest(host: str) -> str:
    return hashlib.sha256(ORIGIN_BODY % host.encode()).hexdigest()


class TestClassifyDns:
    def test_redirector_answer_is_injection(self):
        obs = DnsObservation(
            RESOLVERS["Norton"], "blocked.test", DnsOutcome.Answers,
            answers=("198.153.192.3",),
        )
        assert classify_dns(obs) is Mechanism.DnsInjection

    def test_genuine_answer_is_clean(self):
        obs = DnsObservation(
            RESOLVERS["Norton"], "fine.test", DnsOutcome.Answers,
            answers=("93.184.216.34",),
        )
        assert classify_dns(obs) is None

    def test_nxdomain_from_rewriting_resolver_is_injection(self):
        # OpenDNS never returns raw NXDOMAIN; seeing one means tampering
        obs = DnsObservation(RESOLVERS["OpenDNS"], "blocked.test", DnsOutcome.NxDomain)
        assert classify_dns(obs) is Mechanism.DnsInjection

    def test_nxdomain_contradicting_reference_is_injection(self):
        obs = DnsObservation(RESOLVERS["Google"], "blocked.test", DnsOutcome.NxDomain)
        assert (
            classify_dns(obs, reference=("93.184.216.34",))
            is Mechanism.DnsInjection
        )

    def test_plain_nxdomain_without_reference_is_clean(self):
        obs = DnsObservation(RESOLVERS["Google"], "nosuch.test", DnsOutcome.NxDomain)
        assert classify_dns(obs) is None

    def test_timeout_is_not_classified(self):
        obs = DnsObservation(RESOLVERS["Google"], "slow.test", DnsOutcome.Timeout)
        assert classify_dns(obs, reference=("1.2.3.4",)) is None

    def test_redirector_read_from_observation_not_address(self):
        # every emulated resolver shares one address; each keeps its own redirector
        local = {
            name: ResolverSpec(name, "127.0.0.1", spec.nxdomain_redirector)
            for name, spec in RESOLVERS.items()
        }
        plain = DnsObservation(local["Google"], "nosuch.test", DnsOutcome.NxDomain)
        assert classify_dns(plain) is None
        redirected = DnsObservation(
            local["Norton"], "blocked.test", DnsOutcome.Answers,
            answers=("198.153.192.3",),
        )
        assert classify_dns(redirected) is Mechanism.DnsInjection


class TestClassifyHttp:
    def test_302_to_private_ip(self):
        obs = HttpObservation(
            "blocked.test", "/", 302,
            location="http://10.16.6.41/redirect.php?n=1.2.3.4@P&s=124",
        )
        assert classify_http(obs, FPS) is Mechanism.Http302Redirect

    def test_legitimate_302_is_clean(self):
        obs = HttpObservation(
            "moved.test", "/", 302, location="http://www.example.org/new"
        )
        assert classify_http(obs, FPS) is None

    def test_200_matching_digest(self):
        obs = HttpObservation(
            "blocked.test", "/", 200,
            body_digest=hashlib.sha256(b"warning page").hexdigest(),
            body_excerpt=b"warning page",
        )
        assert classify_http(obs, FPS) is Mechanism.Http200Injection

    def test_200_matching_excerpt_pattern(self):
        obs = HttpObservation(
            "blocked.test", "/", 200,
            body_digest="0" * 64,
            body_excerpt=b"<html>this site is not accessible</html>",
        )
        assert classify_http(obs, FPS) is Mechanism.Http200Injection

    def test_200_matching_last_modified(self):
        obs = HttpObservation(
            "blocked.test", "/", 200,
            last_modified="Fri, 19 Apr 2013 10:47:01 GMT",
            body_digest="0" * 64,
            body_excerpt=b"whatever",
        )
        assert classify_http(obs, FPS) is Mechanism.Http200Injection

    def test_200_judged_by_reference_digest(self):
        real = hashlib.sha256(b"the real page").hexdigest()
        obs = HttpObservation(
            "site.test", "/", 200, body_digest=real, body_excerpt=b"the real page"
        )
        assert classify_http(obs, FPS, reference_digest=real) is None
        assert (
            classify_http(obs, FPS, reference_digest="f" * 64)
            is Mechanism.Http200Injection
        )

    def test_unjudgeable_200_raises(self):
        obs = HttpObservation(
            "site.test", "/", 200, body_digest="a" * 64, body_excerpt=b"???"
        )
        with pytest.raises(AmbiguousEvidence):
            classify_http(obs, FPS)

    def test_404_is_clean(self):
        assert classify_http(HttpObservation("site.test", "/x", 404), FPS) is None


class TestClassifyTarget:
    def test_clean_target_with_reference(self, passthrough_emulator):
        config = probe_config_for(passthrough_emulator)
        result = run_target(parse_target("http://site001.test"), config)
        verdict = classify_target(
            result,
            fingerprints_for(passthrough_emulator.policy),
            reference=Reference(
                addresses=("127.0.0.1",),
                body_digest=_origin_digest("site001.test"),
            ),
        )
        assert verdict.clean
        assert not verdict.inconclusive

    def test_clean_target_without_reference_is_inconclusive(
        self, passthrough_emulator
    ):
        config = probe_config_for(passthrough_emulator)
        result = run_target(parse_target("http://site001.test"), config)
        verdict = classify_target(result, fingerprints_for(passthrough_emulator.policy))
        assert verdict.clean
        assert verdict.inconclusive

    def test_isp302_target(self, isp302_emulator):
        config = probe_config_for(isp302_emulator)
        result = run_target(parse_target("http://youtube.com"), config)
        verdict = classify_target(result, fingerprints_for(isp302_emulator.policy))
        assert verdict.mechanisms == frozenset({Mechanism.Http302Redirect})
        assert "http" in verdict.evidence

    def test_dns_plus_fake_200(self, ixp200_emulator):
        config = probe_config_for(ixp200_emulator)
        result = run_target(parse_target("http://blocked-dns.test"), config)
        verdict = classify_target(result, fingerprints_for(ixp200_emulator.policy))
        assert verdict.mechanisms == frozenset(
            {Mechanism.DnsInjection, Mechanism.Http200Injection}
        )
        assert any(e.startswith("dns[") for e in verdict.evidence)

    def test_ip_block_from_unconnectable_addresses(self):
        target = parse_target("http://walled.test")
        result = TargetProbeResult(
            target=target,
            dns=(
                DnsObservation(
                    RESOLVERS["Google"], "walled.test", DnsOutcome.Answers,
                    answers=("93.184.216.34",),
                ),
            ),
            tcp=(
                TcpObservation("93.184.216.34", TcpResult.TimedOut),
                TcpObservation("93.184.216.34", TcpResult.Refused),
            ),
            keyword=HttpObservation("www.google.com", "/http://walled.test/", 404),
            http=None,
            errors=(),
        )
        verdict = classify_target(result, FPS)
        assert Mechanism.IpBlock in verdict.mechanisms
        assert "tcp[0]" in verdict.evidence and "tcp[1]" in verdict.evidence

    def test_keyword_filtering_detected(self):
        target = parse_target("http://word.test")
        result = TargetProbeResult(
            target=target,
            dns=(),
            tcp=(),
            keyword=HttpObservation(
                "www.google.com", "/http://word.test/", 302,
                location="http://10.16.6.41/redirect.php?n=x&s=124",
            ),
            http=None,
            errors=(),
        )
        verdict = classify_target(result, FPS)
        assert Mechanism.UrlKeyword in verdict.mechanisms
        assert "keyword" in verdict.evidence

    def test_error_logged_result_rejected(self):
        result = TargetProbeResult(
            target=parse_target("http://stuck.test"),
            dns=(), tcp=(), keyword=None, http=None, errors=("http: timed out",),
        )
        with pytest.raises(ValueError):
            classify_target(result, FPS)

