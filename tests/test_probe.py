import socket
import threading

import pytest

from censorprobe import dnswire, probe
from censorprobe.model import DnsOutcome, ResolverSpec, TcpResult, parse_target
from censorprobe.probe import (
    ProbeConfig,
    dns_step,
    http_step,
    keyword_step,
    run_campaign,
    run_target,
    tcp_step,
)

from conftest import make_policy, probe_config_for, start_emulator
from censorprobe.emulator import Generation


def _obs_by_resolver(observations):
    return {o.resolver.name: o for o in observations}


# resolvers whose query fails at the socket, before any datagram leaves:
# gaierror for an IPv6 literal on an IPv4 socket, PermissionError for a
# broadcast address without SO_BROADCAST
UNREACHABLE_RESOLVERS = [
    ResolverSpec("NoIpv4", "2001:db8::1"),
    ResolverSpec("Broadcast", "255.255.255.255"),
]


class TestDnsStep:
    def test_pass_through_resolves(self, passthrough_emulator):
        config = probe_config_for(passthrough_emulator)
        obs = dns_step(parse_target("http://site001.test"), config)
        assert len(obs) == len(config.resolvers)
        assert all(o.outcome is DnsOutcome.Answers for o in obs)
        assert all("127.0.0.1" in o.answers for o in obs)

    def test_blocked_host_per_resolver_behavior(self, ixp200_emulator):
        config = probe_config_for(ixp200_emulator)
        obs = _obs_by_resolver(dns_step(parse_target("http://blocked-dns.test"), config))
        assert obs["OpenDNS"].outcome is DnsOutcome.Answers
        assert obs["OpenDNS"].answers == ("67.215.65.132",)
        assert obs["Norton"].answers == ("198.153.192.3",)
        assert obs["Comodo"].answers == ("92.242.144.50",)
        assert obs["Google"].outcome is DnsOutcome.NxDomain
        assert obs["Level3"].outcome is DnsOutcome.NxDomain
        assert obs["Local"].outcome is DnsOutcome.NxDomain

    def test_unreachable_resolver_times_out(self, passthrough_emulator):
        config = probe_config_for(passthrough_emulator)
        # an unbound local port: nothing will answer
        from censorprobe.model import ResolverSpec

        dead = ResolverSpec("Dead", "127.0.0.1", port=1)
        config.resolvers = [dead]
        config.dns_timeout_ms = 300
        config.retries = 0
        obs = dns_step(parse_target("http://site001.test"), config)
        assert obs[0].outcome in (DnsOutcome.Timeout, DnsOutcome.ServFail)

    def test_resolver_socket_error_costs_one_observation(self, passthrough_emulator):
        config = probe_config_for(passthrough_emulator)
        reachable = config.resolvers
        config.resolvers = [reachable[0], *UNREACHABLE_RESOLVERS, *reachable[1:]]
        (result,) = run_campaign([parse_target("http://site001.test")], config)
        assert result.errors == ()
        obs = _obs_by_resolver(result.dns)
        assert [o.resolver for o in result.dns] == config.resolvers
        for resolver in UNREACHABLE_RESOLVERS:
            assert obs[resolver.name].outcome is not DnsOutcome.Answers
        assert all(obs[r.name].outcome is DnsOutcome.Answers for r in reachable)
        assert result.tcp and all(t.result is TcpResult.Connected for t in result.tcp)
        assert result.keyword.status == 404 and result.http.status == 200


class TestTcpStep:
    def test_listener_connects(self, passthrough_emulator):
        port = passthrough_emulator.proxy.endpoint[1]
        obs = tcp_step(["127.0.0.1"], port=port, timeout=2)
        assert obs[0].result is TcpResult.Connected

    def test_refused_on_closed_loopback_port(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # bound then closed: nothing listens here now
        obs = tcp_step(["127.0.0.1"], port=port, timeout=2)
        assert obs[0].result is TcpResult.Refused

    def test_unrouted_address_never_connects(self):
        # reserved TEST-NET-1 address with no listener; the independent
        # socket attempt establishes what this environment does with it
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as check:
            check.settimeout(0.5)
            with pytest.raises(OSError) as exc:
                check.connect(("192.0.2.1", 80))
        expected = {
            TimeoutError: TcpResult.TimedOut,
            socket.timeout: TcpResult.TimedOut,
            ConnectionRefusedError: TcpResult.Refused,
        }.get(type(exc.value), TcpResult.Unreachable)
        obs = tcp_step(["192.0.2.1"], port=80, timeout=0.5)
        assert obs[0].result is not TcpResult.Connected
        assert obs[0].result is expected


class TestKeywordStep:
    def test_portal_404_means_no_filtering(self, passthrough_emulator):
        config = probe_config_for(passthrough_emulator)
        obs = keyword_step(parse_target("http://site001.test"), config)
        assert obs.status == 404
        assert obs.request_uri == "/http://site001.test/"

    def test_interception_flags(self):
        policy = make_policy(
            Generation.Isp302,
            http_host_rules=("blocked.test",),
            live_hosts=("blocked.test", "www.google.com"),
            keyword_portal_interception=True,
        )
        with start_emulator(policy) as emu:
            config = probe_config_for(emu)
            obs = keyword_step(parse_target("http://blocked.test"), config)
            assert obs.status == 302

    def test_unreachable_portal_raises(self, passthrough_emulator):
        from censorprobe.httpwire import HttpTransportError

        config = probe_config_for(passthrough_emulator)
        config.host_overrides["www.google.com"] = "127.0.0.1"
        config.http_port = 1  # nothing listens on port 1
        config.http_timeout_ms = 300
        with pytest.raises(HttpTransportError):
            keyword_step(parse_target("http://site001.test"), config)


class TestHttpStep:
    def test_pass_through_origin_body(self, passthrough_emulator):
        config = probe_config_for(passthrough_emulator)
        obs = http_step(parse_target("http://site001.test"), "127.0.0.1", config)
        assert obs.status == 200
        assert b"origin content for site001.test" in obs.body_excerpt

    def test_isp302_block(self, isp302_emulator):
        config = probe_config_for(isp302_emulator)
        obs = http_step(parse_target("http://youtube.com"), "127.0.0.1", config)
        assert obs.status == 302
        assert obs.location.startswith("http://10.16.6.41/redirect.php?n=")

    def test_ixp200_block_fingerprint(self, ixp200_emulator):
        config = probe_config_for(ixp200_emulator)
        obs = http_step(parse_target("http://youtube.com"), "127.0.0.1", config)
        assert obs.status == 200
        assert obs.last_modified.startswith("Fri, 19 Apr 2013")


class TestRunTarget:
    def test_unblocked_target_no_errors(self, passthrough_emulator):
        config = probe_config_for(passthrough_emulator)
        result = run_target(parse_target("http://site001.test"), config)
        assert result.errors == ()
        assert len(result.dns) == len(config.resolvers)
        assert result.http.status == 200
        assert result.keyword.status == 404
        assert all(t.result is TcpResult.Connected for t in result.tcp)

    def test_dns_blocked_target_still_probed_at_http(self, ixp200_emulator):
        # override address keeps the HTTP step alive despite DNS blocking
        config = probe_config_for(ixp200_emulator)
        result = run_target(parse_target("http://blocked-dns.test"), config)
        assert result.http is not None
        assert result.http.status == 200
        assert result.http.last_modified.startswith("Fri, 19 Apr 2013")

    def test_no_address_no_http(self, passthrough_emulator):
        config = probe_config_for(passthrough_emulator)
        result = run_target(parse_target("http://unregistered.test"), config)
        assert result.http is None
        assert all(o.outcome is DnsOutcome.NxDomain for o in result.dns)

    def test_redirector_answers_are_not_fetch_addresses(self, ixp200_emulator):
        config = probe_config_for(ixp200_emulator)
        del config.host_overrides["blocked-dns.test"]
        result = run_target(parse_target("http://blocked-dns.test"), config)
        # only redirector answers came back, so no address to fetch from
        assert result.tcp == ()
        assert result.http is None


class TestRunCampaign:
    def test_order_preserved(self, passthrough_emulator):
        config = probe_config_for(passthrough_emulator)
        targets = [
            parse_target("http://site002.test"),
            parse_target("http://site001.test"),
            parse_target("http://site002.test/x"),
        ]
        results = run_campaign(targets, config)
        assert [r.target for r in results] == targets

    def test_caller_config_unchanged(self, passthrough_emulator):
        config = probe_config_for(passthrough_emulator)
        del config.host_overrides["www.google.com"]  # the campaign resolves the portal
        before = dict(config.host_overrides)
        results = run_campaign([parse_target("http://site001.test")], config)
        assert results[0].keyword is not None and results[0].keyword.status == 404
        assert config.host_overrides == before

    def test_portal_lookup_survives_an_unreachable_resolver(self, passthrough_emulator):
        config = probe_config_for(passthrough_emulator)
        config.resolvers = [*UNREACHABLE_RESOLVERS, *config.resolvers]
        del config.host_overrides["www.google.com"]  # the campaign resolves the portal
        (result,) = run_campaign([parse_target("http://site001.test")], config)
        assert result.errors == () and result.keyword.status == 404

    def test_unresolved_portal_is_looked_up_once(self, passthrough_emulator, monkeypatch):
        config = probe_config_for(passthrough_emulator)
        config.keyword_portal = parse_target("http://no-portal.test")
        queried = []
        real_query = dnswire.query
        monkeypatch.setattr(
            dnswire, "query", lambda *a, **kw: queried.append(a[1]) or real_query(*a, **kw)
        )
        targets = [parse_target(f"http://site001.test/{i}") for i in range(10)]
        results = run_campaign(targets, config)
        assert len(queried) == len(config.resolvers) * (1 + len(targets))
        assert queried.count("no-portal.test") == len(config.resolvers)
        for result in results:
            assert result.errors == ("keyword: keyword portal did not resolve",)

    def test_idn_target_is_probed(self):
        policy = make_policy(
            Generation.PassThrough, live_hosts=("xn--bcher-kva.test", "www.google.com")
        )
        with start_emulator(policy) as emu:
            targets = [parse_target("http://bücher.test/"), parse_target("http://büch.test/")]
            results = run_campaign(targets, probe_config_for(emu))
        assert [r.target for r in results] == targets
        assert results[0].http.status == 200
        assert results[0].http.request_host == "xn--bcher-kva.test"
        assert all(o.outcome is DnsOutcome.NxDomain for o in results[1].dns)

    def test_non_ascii_path_keeps_its_observations(self, passthrough_emulator):
        config = probe_config_for(passthrough_emulator)
        (result,) = run_campaign([parse_target("http://site001.test/caf€")], config)
        assert result.errors == ()
        assert len(result.dns) == len(config.resolvers)
        assert result.http.request_uri == "/caf%E2%82%AC"

    def test_exception_for_one_target_is_logged_on_it(
        self, passthrough_emulator, monkeypatch
    ):
        real_dns_step = probe.dns_step

        def dns_step(target, config):
            if target.host == "site002.test":
                raise OSError(101, "Network is unreachable")
            return real_dns_step(target, config)

        monkeypatch.setattr(probe, "dns_step", dns_step)
        targets = [
            parse_target("http://site001.test"),
            parse_target("http://site002.test"),
            parse_target("http://site001.test/x"),
        ]
        results = run_campaign(targets, probe_config_for(passthrough_emulator))
        assert [r.target for r in results] == targets
        assert results[1].errors == ("probe: OSError: [Errno 101] Network is unreachable",)
        assert results[1].dns == () and results[1].http is None
        assert results[0].errors == () and results[0].http.status == 200
        assert results[2].errors == () and results[2].http.status == 200

    def test_empty_list(self, passthrough_emulator):
        assert run_campaign([], probe_config_for(passthrough_emulator)) == []

    def test_blackhole_target_error_logged(self):
        policy = make_policy(
            Generation.PassThrough,
            live_hosts=("alive.test", "stuck.test", "www.google.com"),
            blackhole_hosts=("stuck.test",),
        )
        with start_emulator(policy, blackhole_delay=2.0) as emu:
            config = probe_config_for(emu)
            config.http_timeout_ms = 1500
            results = run_campaign(
                [parse_target("http://alive.test"), parse_target("http://stuck.test")],
                config,
            )
            assert results[0].errors == ()
            assert results[1].errors != ()
            assert any("http" in e for e in results[1].errors)
