import os
import select
import socket
import threading
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from censorprobe import dnswire, httpwire, probe
from censorprobe.classify import classify_target
from censorprobe.model import (
    DnsOutcome,
    Mechanism,
    ResolverSpec,
    TcpResult,
    parse_target,
)
from censorprobe.probe import (
    ProbeConfig,
    dns_step,
    http_step,
    keyword_step,
    run_campaign,
    run_target,
    tcp_step,
)

from conftest import (
    TEST_RESOLVERS,
    answer_one_query,
    fingerprints_for,
    full_listener,
    ipv6_loopback_socket,
    make_policy,
    probe_config_for,
    start_emulator,
)
from censorprobe.emulator import Generation


def _obs_by_resolver(observations):
    return {o.resolver.name: o for o in observations}


# resolvers whose query fails at the socket at once: ConnectionRefusedError
# for a closed loopback port, PermissionError for a broadcast address
# without SO_BROADCAST
UNREACHABLE_RESOLVERS = [
    ResolverSpec("ClosedPort", "127.0.0.1", port=1),
    ResolverSpec("Broadcast", "255.255.255.255"),
]


class TestProbeConfig:
    @pytest.mark.parametrize("address", ["127.0.0.1", "::1", "2001:db8::5"])
    def test_override_takes_an_ip_literal(self, address):
        config = ProbeConfig(resolvers=list(TEST_RESOLVERS), host_overrides={"a.test": address})
        assert config.host_overrides == {"a.test": address}

    @pytest.mark.parametrize(
        "address", ["a.example", "localhost", "[::1]", "1.2.3", "", "1.2.3.4\x00", 5, None]
    )
    def test_override_that_is_not_an_ip_literal_is_rejected(self, address):
        with pytest.raises(ValueError, match="host_overrides: a.test: .* is not an IP address"):
            ProbeConfig(resolvers=list(TEST_RESOLVERS), host_overrides={"a.test": address})


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

    def test_ipv6_resolver_answers(self):
        with ipv6_loopback_socket(socket.SOCK_DGRAM) as server:
            resolver = ResolverSpec("Loopback6", "::1", port=server.getsockname()[1])
            config = ProbeConfig(resolvers=[resolver], dns_timeout_ms=2000, retries=0)
            peer = answer_one_query(server)
            try:
                (obs,) = dns_step(parse_target("http://a.test"), config)
            finally:
                peer.join(timeout=10)
        assert obs.outcome is DnsOutcome.Answers and obs.answers == ("1.2.3.4",)

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

    def test_garbled_reply_costs_only_its_resolver(self, passthrough_emulator):
        config = probe_config_for(passthrough_emulator)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as garbler:
            garbler.bind(("127.0.0.1", 0))
            garbler.settimeout(5)

            def garble():
                _, client = garbler.recvfrom(512)
                garbler.sendto(b"\x00\x01garbage", client)

            peer = threading.Thread(target=garble)
            peer.start()
            resolver = ResolverSpec("Garbler", "127.0.0.1", port=garbler.getsockname()[1])
            config.resolvers = [*config.resolvers, resolver]
            try:
                obs = dns_step(parse_target("http://site001.test"), config)
            finally:
                peer.join(timeout=10)
        assert [o.outcome for o in obs[:-1]] == [DnsOutcome.Answers] * (len(obs) - 1)
        assert obs[-1].outcome is DnsOutcome.ServFail

    def test_silent_resolvers_cost_one_deadline_in_total(self, passthrough_emulator):
        config = probe_config_for(passthrough_emulator)
        live = len(config.resolvers)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as one, socket.socket(
            socket.AF_INET, socket.SOCK_DGRAM
        ) as two:
            for silent in (one, two):
                silent.bind(("127.0.0.1", 0))
                config.resolvers.append(
                    ResolverSpec("Silent", "127.0.0.1", port=silent.getsockname()[1])
                )
            config.dns_timeout_ms, config.retries = 300, 1
            started = time.monotonic()
            obs = dns_step(parse_target("http://site001.test"), config)
            elapsed = time.monotonic() - started
        # asked in turn, the two would cost 2 * (retries + 1) * 0.3 s
        assert 0.6 <= elapsed < 1.2
        assert all(o.outcome is DnsOutcome.Answers for o in obs[:live])
        assert [o.outcome for o in obs[live:]] == [DnsOutcome.Timeout] * 2

    def test_resolvers_sharing_an_address_share_one_worker_socket(
        self, passthrough_emulator, monkeypatch
    ):
        config = replace(probe_config_for(passthrough_emulator), workers=1)
        google = next(r for r in config.resolvers if r.name == "Google")
        twin = ResolverSpec("GoogleTwin", google.address, port=google.port)
        config.resolvers = [google, twin]
        opened = []
        real_connect = dnswire.connect
        monkeypatch.setattr(
            dnswire, "connect", lambda server: opened.append(server) or real_connect(server)
        )
        before = passthrough_emulator.request_counts()["Google"]
        targets = [parse_target(f"http://site00{1 + i % 2}.test") for i in range(4)]
        results = run_campaign(targets, config)
        assert opened == [(google.address, google.port)]
        assert passthrough_emulator.request_counts()["Google"] - before == 2 * len(targets)
        for result in results:
            assert [o.resolver for o in result.dns] == [google, twin]
            assert all(o.outcome is DnsOutcome.Answers for o in result.dns)


class TestCampaignSockets:
    def test_each_worker_opens_one_socket_per_resolver(self, passthrough_emulator, monkeypatch):
        # each of the 2 in-flight slots: one socket per resolver address
        config = replace(probe_config_for(passthrough_emulator), workers=2)
        google = next(r for r in config.resolvers if r.name == "Google")
        twin = ResolverSpec("GoogleTwin", google.address, port=google.port)
        config.resolvers = [*config.resolvers, twin]
        opened = []
        real_connect = dnswire.connect
        monkeypatch.setattr(
            dnswire, "connect", lambda server: opened.append(server) or real_connect(server)
        )
        targets = [parse_target(f"http://site001.test/{i}") for i in range(8)]
        results = run_campaign(targets, config)
        assert all(r.errors == () and len(r.dns) == len(config.resolvers) for r in results)
        servers = {(r.address, r.port) for r in config.resolvers}
        assert sorted(opened) == sorted([*servers] * 2)

    def test_workers_take_each_target_once(self, monkeypatch):
        probed = []

        def target_steps(target, config, sockets=None):
            # a few waits of no length, so that the slots interleave
            for _ in range(len(probed) % 3):
                yield [], time.monotonic()
            probed.append(target)
            return probe.TargetProbeResult(target)

        monkeypatch.setattr(probe, "target_steps", target_steps)
        config = ProbeConfig(
            resolvers=[ResolverSpec("Discard", "127.0.0.1", port=9)],
            host_overrides={"www.google.com": "127.0.0.1"},
            workers=8,
        )
        targets = [parse_target(f"http://site{i}.test") for i in range(2000)]
        results = run_campaign(targets, config)
        assert [r.target for r in results] == targets
        assert sorted(t.host for t in probed) == sorted(t.host for t in targets)

    def test_results_keep_input_order_whatever_order_targets_finish_in(self, monkeypatch):
        finished = []

        def target_steps(target, config, sockets=None):
            # the later a target in the list, the sooner it finishes
            yield [], time.monotonic() + 0.01 * (10 - int(target.host[4:-5]))
            finished.append(target)
            return probe.TargetProbeResult(target)

        monkeypatch.setattr(probe, "target_steps", target_steps)
        config = ProbeConfig(
            resolvers=[ResolverSpec("Discard", "127.0.0.1", port=9)],
            host_overrides={"www.google.com": "127.0.0.1"},
            workers=10,
        )
        targets = [parse_target(f"http://site{i}.test") for i in range(10)]
        results = run_campaign(targets, config)
        assert finished == targets[::-1]
        assert [r.target for r in results] == targets

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    def test_campaign_leaves_no_descriptor_open(self, passthrough_emulator, monkeypatch):
        real_dns_steps = probe.dns_steps
        real_steps = httpwire.Request.steps

        def dns_steps(target, config, sockets=None):
            observations = yield from real_dns_steps(target, config, sockets)
            if target.host == "site002.test":
                raise RuntimeError("after its lookups")
            return observations

        def steps(request):
            # the keyword request of a /late target: the handshake and the
            # HTTP request have started too
            if request.host == "www.google.com" and "/late" in request.uri:
                raise RuntimeError("with its requests started")
            return (yield from real_steps(request))

        monkeypatch.setattr(probe, "dns_steps", dns_steps)
        monkeypatch.setattr(httpwire.Request, "steps", steps)
        config = replace(probe_config_for(passthrough_emulator), workers=3)
        del config.host_overrides["www.google.com"]  # the campaign resolves the portal
        paths = ("site001.test/", "site002.test/", "site001.test/late")
        targets = [parse_target(f"http://{paths[i % 3]}{i}") for i in range(9)]
        before = len(os.listdir("/proc/self/fd"))
        results = run_campaign(targets, config)
        # the in-process emulator closes its ends of the last connections
        # on its own thread, a moment after the probe has closed its own
        settled = time.monotonic() + 2
        while len(os.listdir("/proc/self/fd")) != before and time.monotonic() < settled:
            time.sleep(0.01)
        assert len(os.listdir("/proc/self/fd")) == before
        logged = ("probe: RuntimeError: after its lookups",)
        assert [r.errors for r in results[1::3]] == [logged] * 3
        logged = ("probe: RuntimeError: with its requests started",)
        assert [r.errors for r in results[2::3]] == [logged] * 3
        assert all(r.errors == () and r.http.status == 200 for r in results[::3])

    def test_resolver_without_a_socket_costs_one_servfail_per_target(self, passthrough_emulator):
        config = probe_config_for(passthrough_emulator)
        broadcast = ResolverSpec("Broadcast", "255.255.255.255")
        config.resolvers = [broadcast, *config.resolvers]
        targets = [parse_target(f"http://site001.test/{i}") for i in range(5)]
        for result in run_campaign(targets, config):
            assert result.errors == ()
            assert [o.resolver for o in result.dns] == config.resolvers
            assert result.dns[0].outcome is DnsOutcome.ServFail
            assert all(o.outcome is DnsOutcome.Answers for o in result.dns[1:])


class TestTcpStep:
    def test_listener_connects(self, passthrough_emulator):
        port = passthrough_emulator.proxy.endpoint[1]
        obs = tcp_step(["127.0.0.1"], port=port, timeout=2)
        assert obs[0].result is TcpResult.Connected

    def test_ipv6_listener_connects(self):
        with ipv6_loopback_socket(socket.SOCK_STREAM) as listener:
            listener.listen()
            obs = tcp_step(["::1"], port=listener.getsockname()[1], timeout=2)
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


    def test_handshakes_share_one_timeout(self):
        with full_listener() as port:
            started = time.monotonic()
            obs = tcp_step(["127.0.0.1", "127.0.0.1"], port=port, timeout=0.3)
            assert time.monotonic() - started < 0.45
        assert [o.result for o in obs] == [TcpResult.TimedOut] * 2


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


    def test_hanging_keyword_and_http_cost_one_timeout(self):
        policy = make_policy(
            Generation.PassThrough,
            live_hosts=("stuck.test", "www.google.com"),
            blackhole_hosts=("stuck.test", "www.google.com"),
        )
        with start_emulator(policy) as emu:
            config = probe_config_for(emu)
            config.http_timeout_ms = 1000
            started = time.monotonic()
            result = run_target(parse_target("http://stuck.test"), config)
            elapsed = time.monotonic() - started
        assert elapsed < 1.5
        assert [e.split(":")[0] for e in result.errors] == ["keyword", "http"]
        assert all(e.endswith("timed out") for e in result.errors)
        assert result.keyword is None and result.http is None

    def test_keyword_reply_counts_after_a_silent_resolver(self, passthrough_emulator):
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as silent:
            silent.bind(("127.0.0.1", 0))
            config = probe_config_for(passthrough_emulator)
            quiet = ResolverSpec("Silent", "127.0.0.1", port=silent.getsockname()[1])
            config.resolvers = [quiet, *config.resolvers]
            config.dns_timeout_ms, config.retries, config.http_timeout_ms = 600, 0, 300
            result = run_target(parse_target("http://site001.test"), config)
        assert result.dns[0].outcome is DnsOutcome.Timeout
        assert result.errors == ()
        assert result.keyword.status == 404 and result.http.status == 200

    def test_keyword_connect_that_outlasts_the_timeout_still_gets_its_reply(
        self, monkeypatch
    ):
        # The portal's accept queue is full when the keyword request starts,
        # so its connect is still under way and its GET cannot go out. The
        # queue is drained during the DNS wait; the connect completes when
        # its SYN is resent (about 1 s on Linux), past http_timeout, and the
        # GET goes out when the probe comes back to the request.
        unsent = []
        real_start = httpwire.start

        def start(*args, **kwargs):
            request = real_start(*args, **kwargs)
            unsent.append(bool(request.unsent))
            return request

        def drain_then_answer():
            time.sleep(0.2)
            portal.accept()[0].close()  # the filler: the queue has room again
            conn, _ = portal.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(b"HTTP/1.1 404 Not Found\r\nConnection: close\r\n\r\n")

        monkeypatch.setattr(httpwire, "start", start)
        with (
            socket.create_server(("127.0.0.1", 0), backlog=0) as portal,
            socket.create_connection(portal.getsockname()),  # fills the queue
            socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as silent,
        ):
            silent.bind(("127.0.0.1", 0))
            portal.settimeout(5)
            peer = threading.Thread(target=drain_then_answer)
            peer.start()
            config = ProbeConfig(
                resolvers=[ResolverSpec("Silent", "127.0.0.1", port=silent.getsockname()[1])],
                dns_timeout_ms=1500,
                retries=0,
                http_timeout_ms=700,
                host_overrides={"www.google.com": "127.0.0.1"},
                http_port=portal.getsockname()[1],
            )
            try:
                result = run_target(parse_target("http://site001.test"), config)
            finally:
                peer.join(timeout=10)
            assert not peer.is_alive()
        if unsent != [True]:
            pytest.skip("the keyword connect completed at once: the queue did not fill")
        assert result.dns[0].outcome is DnsOutcome.Timeout
        assert result.errors == ()
        assert result.keyword.status == 404

    def test_keyword_request_goes_out_before_the_lookups(
        self, passthrough_emulator, monkeypatch
    ):
        queued = []
        real_exchange_steps = dnswire.exchange_steps

        def exchange_steps(*args, **kwargs):
            # the keyword request's connection, if it is already under way
            if select.select([portal], [], [], 1.0)[0]:
                portal.accept()[0].close()
                queued.append(True)
            else:
                queued.append(False)
            return (yield from real_exchange_steps(*args, **kwargs))

        monkeypatch.setattr(dnswire, "exchange_steps", exchange_steps)
        with socket.create_server(("127.0.0.1", 0)) as portal:
            config = probe_config_for(passthrough_emulator)
            config.host_overrides["www.google.com"] = "127.0.0.1"
            config.http_port = portal.getsockname()[1]
            config.http_timeout_ms = 300
            result = run_target(parse_target("http://site001.test"), config)
        assert queued == [True]
        assert result.errors[0].startswith("keyword: ")


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
        looked_up = []
        real_exchange_steps = dnswire.exchange_steps

        def exchange_steps(servers, qname, *args, **kwargs):
            looked_up.extend([qname] * len(servers))
            return (yield from real_exchange_steps(servers, qname, *args, **kwargs))

        monkeypatch.setattr(dnswire, "exchange_steps", exchange_steps)
        before = passthrough_emulator.request_counts()
        targets = [parse_target(f"http://site001.test/{i}") for i in range(10)]
        results = run_campaign(targets, config)
        after = passthrough_emulator.request_counts()
        queries = sum(after[r.name] - before[r.name] for r in config.resolvers)
        assert queries == len(config.resolvers) * (1 + len(targets))
        assert looked_up.count("no-portal.test") == len(config.resolvers)
        for result in results:
            assert result.errors == ("keyword: keyword portal did not resolve",)

    def test_dns_blocked_portal_is_not_a_redirector(self, monkeypatch):
        policy = make_policy(
            Generation.Isp302,
            dns_rules=("www.google.com",),
            http_host_rules=("www.google.com",),
            live_hosts=("site001.test", "www.google.com"),
        )
        redirectors = {r.nxdomain_redirector for r in TEST_RESOLVERS} - {None}
        fetched = []
        real_start = httpwire.start

        def start(address, *args, **kwargs):
            fetched.append(address)
            if address in redirectors:  # a redirector is not on this machine
                raise httpwire.HttpTransportError(f"{address} is a redirector")
            return real_start(address, *args, **kwargs)

        monkeypatch.setattr(httpwire, "start", start)
        with start_emulator(policy) as emu:
            config = probe_config_for(emu)
            del config.host_overrides["www.google.com"]  # the campaign resolves it
            (result,) = run_campaign([parse_target("http://site001.test")], config)
        assert fetched and not redirectors & set(fetched)
        assert result.errors == ("keyword: keyword portal did not resolve",)
        assert result.http.status == 200

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
        real_dns_steps = probe.dns_steps

        def dns_steps(target, config, sockets=None):
            if target.host == "site002.test":
                raise OSError(101, "Network is unreachable")
            return (yield from real_dns_steps(target, config, sockets))

        monkeypatch.setattr(probe, "dns_steps", dns_steps)
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
        # the blackholed connection stays open past the probe's HTTP timeout
        with start_emulator(policy) as emu:
            config = probe_config_for(emu)
            config.http_timeout_ms = 300
            results = run_campaign(
                [parse_target("http://alive.test"), parse_target("http://stuck.test")],
                config,
            )
            assert results[0].errors == ()
            assert results[1].errors != ()
            assert any("http" in e for e in results[1].errors)

    def test_blackholed_target_does_not_hold_up_the_others(self):
        policy = make_policy(
            Generation.PassThrough,
            live_hosts=("site001.test", "stuck.test", "www.google.com"),
            blackhole_hosts=("stuck.test",),
        )
        with start_emulator(policy) as emu:
            config = replace(probe_config_for(emu), workers=2, http_timeout_ms=500)
            fast = [parse_target(f"http://site001.test/{i}") for i in range(20)]
            stuck = [parse_target(f"http://stuck.test/{i}") for i in range(2)]
            targets = [stuck[0], *fast, stuck[1], *fast]
            started = time.monotonic()
            results = run_campaign(targets, config)
            elapsed = time.monotonic() - started
        for result in results:
            if result.target in stuck:
                (error,) = result.errors
                assert error.startswith("http: ") and error.endswith("timed out")
            else:
                assert result.errors == () and result.keyword.status == 404
                assert result.http.status == 200 and len(result.dns) == len(config.resolvers)
        # the stuck targets wait out their timeouts side by side while the
        # other slot probes the rest; one after the other they take 1 s
        assert 0.5 <= elapsed < 0.9

    def test_reply_in_time_counts_while_another_target_keeps_the_loop_busy(
        self, passthrough_emulator, monkeypatch
    ):
        real_start_keyword = probe._start_keyword

        def start_keyword(target, config):
            # site001 has sent its keyword GET and its queries: this holds
            # the loop until their deadlines have passed, their replies in
            if target.host == "site002.test":
                time.sleep(0.6)
            return real_start_keyword(target, config)

        monkeypatch.setattr(probe, "_start_keyword", start_keyword)
        config = replace(
            probe_config_for(passthrough_emulator), workers=2, retries=0,
            dns_timeout_ms=200, tcp_timeout_ms=200, http_timeout_ms=200,
        )
        targets = [parse_target("http://site001.test"), parse_target("http://site002.test")]
        for result in run_campaign(targets, config):
            assert result.errors == ()
            assert all(o.outcome is DnsOutcome.Answers for o in result.dns)
            assert result.keyword.status == 404 and result.http.status == 200


# --- random deployments: every verdict equals what the policy implies --------

PORTAL = "www.google.com"
_HOSTS = ("a.test", "b.a.test", "c.b.a.test", "d.test")
_PATTERNS = st.sampled_from((*_HOSTS, "*.a.test", "*.b.a.test"))
_HTTP_MECHANISM = {
    Generation.Isp302: Mechanism.Http302Redirect,
    Generation.Ixp200: Mechanism.Http200Injection,
}


def _matches(pattern: str, host: str) -> bool:
    if pattern.startswith("*."):
        return host.endswith(pattern[1:])
    return host == pattern


class _Oracle:
    """What a policy's rules imply; the middlebox of PassThrough censors
    nothing, and its DNS rules still apply."""

    def __init__(self, policy):
        self.policy = policy
        self.redirecting = any(r.nxdomain_redirector for r in policy.resolver_map)
        listed = [*policy.http_host_rules, *(p for p, _ in policy.http_host_uri_rules)]
        self.keywords = {p.removeprefix("*.") for p in listed}

    def dns_blocked(self, host: str) -> bool:
        return any(_matches(p, host) for p in self.policy.dns_rules)

    def censored(self, host: str, uri: str) -> bool:
        policy = self.policy
        if policy.generation is Generation.PassThrough:
            return False
        return (
            any(_matches(p, host) and n in uri for p, n in policy.http_host_uri_rules)
            or any(_matches(p, host) for p in policy.http_host_rules)
            or policy.keyword_portal_interception and any(k in uri for k in self.keywords)
        )

    def expected(self, target) -> frozenset:
        out = set()
        if self.redirecting and self.dns_blocked(target.host):
            out.add(Mechanism.DnsInjection)
        if self.censored(PORTAL, "/" + target.render()):
            out.add(Mechanism.UrlKeyword)
        if self.censored(target.host, target.request_uri()):
            out.add(_HTTP_MECHANISM[self.policy.generation])
        return frozenset(out)


@st.composite
def _deployments(draw):
    host_rules = draw(st.lists(_PATTERNS, unique=True, max_size=3))
    uri_rules = draw(
        st.lists(st.tuples(_PATTERNS, st.sampled_from(("tok", "d.test"))), max_size=2)
    )
    ruled = sorted({*host_rules, *(p for p, _ in uri_rules)})
    dns_rules = draw(st.lists(st.sampled_from(ruled), unique=True)) if ruled else []
    portal_blocked, portal_listed = draw(st.booleans()), draw(st.booleans())
    if portal_blocked:
        dns_rules.append(PORTAL)
        host_rules.append(PORTAL)
    resolvers = draw(st.permutations(TEST_RESOLVERS))
    resolvers = resolvers[: draw(st.integers(1, len(resolvers)))]
    policy = make_policy(
        draw(st.sampled_from(Generation)),
        dns_rules=dns_rules,
        http_host_rules=host_rules,
        http_host_uri_rules=uri_rules,
        live_hosts=(*_HOSTS, PORTAL),
        resolver_map=[replace(r, address="127.0.0.1") for r in resolvers],
        keyword_portal_interception=draw(st.booleans()),
    )
    paths = st.sampled_from(("/", "/v/tok", "/x/d.test"))
    targets = draw(st.dictionaries(st.sampled_from(_HOSTS), paths, min_size=1))
    return policy, [parse_target(f"http://{h}{p}") for h, p in targets.items()], portal_listed


@settings(max_examples=25)
@given(_deployments())
def test_random_deployment_verdicts_match_the_policy(deployment):
    policy, targets, portal_listed = deployment
    oracle = _Oracle(policy)
    with start_emulator(policy) as emu:
        config = probe_config_for(emu)
        # a DNS-blocked host's address comes from an out-of-band lookup
        hosts = [t.host for t in targets if oracle.dns_blocked(t.host)]
        if portal_listed:
            hosts.append(PORTAL)
        config.host_overrides = dict.fromkeys(hosts, emu.proxy.endpoint[0])
        results = run_campaign(targets, config)
    portal_unreachable = oracle.dns_blocked(PORTAL) and not portal_listed
    assert {r.target: r.errors for r in results if r.errors} == (
        dict.fromkeys(targets, ("keyword: keyword portal did not resolve",))
        if portal_unreachable
        else {}
    )
    fingerprints = fingerprints_for(policy)
    for result in results:
        if not result.errors:
            verdict = classify_target(result, fingerprints)
            assert verdict.mechanisms == oracle.expected(result.target), result
