"""Four-step per-site probe: DNS, TCP, URL-keyword portal, HTTP fetch.

Transient transport failures go to a per-target error log instead of
raising; results with a non-empty error log are excluded from reporting.
"""

from __future__ import annotations

import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, field, replace

from . import dnswire, httpwire
from .model import (
    DnsObservation,
    DnsOutcome,
    HttpObservation,
    ResolverSpec,
    TargetUrl,
    TcpObservation,
    TcpResult,
    check_port,
    parse_target,
)


@dataclass
class ProbeConfig:
    resolvers: list[ResolverSpec]
    keyword_portal: TargetUrl = field(
        default_factory=lambda: parse_target("http://www.google.com")
    )
    dns_timeout_ms: int = 5000
    tcp_timeout_ms: int = 5000
    http_timeout_ms: int = 10000
    retries: int = 2
    workers: int = 8
    host_overrides: dict[str, str] = field(default_factory=dict)
    http_port: int = 80

    def __post_init__(self):
        if not self.resolvers:
            raise ValueError("at least one resolver is required")
        for value in (self.dns_timeout_ms, self.tcp_timeout_ms, self.http_timeout_ms):
            if value <= 0:
                raise ValueError("timeouts must be strictly positive")
        if self.workers < 1 or self.retries < 0:
            raise ValueError("workers must be at least 1 and retries at least 0")
        check_port(self.http_port, "http_port")


@dataclass
class TargetProbeResult:
    target: TargetUrl
    dns: tuple[DnsObservation, ...] = ()
    tcp: tuple[TcpObservation, ...] = ()
    keyword: HttpObservation | None = None
    http: HttpObservation | None = None
    errors: tuple[str, ...] = ()


# the resolver sockets of the campaign worker running on this thread
_worker = threading.local()


def dns_step(target: TargetUrl, config: ProbeConfig) -> list[DnsObservation]:
    """One A lookup per configured resolver, all sent at once; failures
    become outcomes. Inside a campaign worker, each lookup uses the worker's
    socket."""
    replies = dnswire.exchange(
        [(r.address, r.port) for r in config.resolvers], target.host,
        timeout=config.dns_timeout_ms / 1000.0, retries=config.retries,
        socks=getattr(_worker, "sockets", None),
    )
    observations = []
    for resolver, reply in zip(config.resolvers, replies):
        if isinstance(reply, dnswire.DnsError):
            timed_out = isinstance(reply, TimeoutError)
            outcome = DnsOutcome.Timeout if timed_out else DnsOutcome.ServFail
            observations.append(DnsObservation(resolver, target.host, outcome))
            continue
        msg, rtt = reply
        if msg.rcode == dnswire.RCODE_NOERROR and msg.answers:
            outcome, answers = DnsOutcome.Answers, tuple(msg.answers)
        elif msg.rcode == dnswire.RCODE_NXDOMAIN:
            outcome, answers = DnsOutcome.NxDomain, ()
        else:
            outcome, answers = DnsOutcome.ServFail, ()
        observations.append(
            DnsObservation(resolver, target.host, outcome, answers, rtt * 1000.0)
        )
    return observations


def tcp_step(
    addresses: list[str], port: int = 80, timeout: float = 5.0
) -> list[TcpObservation]:
    """3-way handshake per address; the socket is closed immediately. The
    socket's family follows the address, so IPv4 and IPv6 both connect."""
    observations = []
    for address in addresses:
        family = socket.AF_INET6 if ":" in address else socket.AF_INET
        try:
            with socket.socket(family, socket.SOCK_STREAM) as sock:
                sock.settimeout(timeout)
                sock.connect((address, port))
            result = TcpResult.Connected
        except ConnectionRefusedError:
            result = TcpResult.Refused
        except TimeoutError:
            result = TcpResult.TimedOut
        except OSError:
            result = TcpResult.Unreachable
        observations.append(TcpObservation(address, result, port))
    return observations


def keyword_step(target: TargetUrl, config: ProbeConfig) -> HttpObservation:
    """GET "/" + the full target URL on the portal host.

    A 404 means no URL-keyword filtering; any other status is evidence of
    it. The portal's address is its entry in `host_overrides`, which
    run_campaign fills in. Raises HttpTransportError on transport failure
    or when there is no such entry (the caller logs it and marks the step
    inconclusive).
    """
    portal_address = config.host_overrides.get(config.keyword_portal.host)
    if portal_address is None:
        raise httpwire.HttpTransportError("keyword portal did not resolve")
    return httpwire.fetch(
        portal_address,
        config.keyword_portal.host,
        "/" + target.render(),
        port=config.http_port,
        timeout=config.http_timeout_ms / 1000.0,
    )


def http_step(target: TargetUrl, resolved: str, config: ProbeConfig) -> HttpObservation:
    """Single GET with Host: target.host; redirects recorded, not followed."""
    return httpwire.fetch(
        resolved,
        target.host,
        target.request_uri(),
        port=config.http_port,
        timeout=config.http_timeout_ms / 1000.0,
    )


def genuine_addresses(
    observations: list[DnsObservation] | tuple[DnsObservation, ...],
) -> list[str]:
    """Answer addresses minus each resolver's known NXDOMAIN redirector."""
    seen = []
    for obs in observations:
        for addr in obs.answers:
            if addr == obs.resolver.nxdomain_redirector:
                continue
            if addr not in seen:
                seen.append(addr)
    return seen


def run_target(target: TargetUrl, config: ProbeConfig) -> TargetProbeResult:
    """Execute steps 1-4 in order, keeping every observation collected."""
    errors: list[str] = []
    dns_obs = dns_step(target, config)

    override = config.host_overrides.get(target.host)
    addresses = [override] if override else genuine_addresses(dns_obs)
    tcp_obs = tcp_step(
        addresses, port=config.http_port, timeout=config.tcp_timeout_ms / 1000.0
    )

    keyword_obs = None
    try:
        keyword_obs = keyword_step(target, config)
    except httpwire.HttpTransportError as exc:
        errors.append(f"keyword: {exc}")

    http_obs = None
    if addresses:
        try:
            http_obs = http_step(target, addresses[0], config)
        except httpwire.HttpTransportError as exc:
            errors.append(f"http: {exc}")

    return TargetProbeResult(
        target=target,
        dns=tuple(dns_obs),
        tcp=tuple(tcp_obs),
        keyword=keyword_obs,
        http=http_obs,
        errors=tuple(errors),
    )


def _run_isolated(target: TargetUrl, config: ProbeConfig) -> TargetProbeResult:
    """run_target, with anything it raises logged on this target's result."""
    try:
        return run_target(target, config)
    except Exception as exc:
        return TargetProbeResult(
            target=target, errors=(f"probe: {type(exc).__name__}: {exc}",)
        )


def run_campaign(
    targets: list[TargetUrl], config: ProbeConfig
) -> list[TargetProbeResult]:
    """One pass over the target list; output order equals input order.

    At most `workers` worker threads take the targets in turn; each keeps
    one socket per resolver for the whole campaign. No target can lose the
    campaign: an exception raised while probing one becomes an error-log
    entry on its result.
    """
    if not targets:
        return []
    portal_host = config.keyword_portal.host
    if portal_host not in config.host_overrides:
        # resolve the portal once for the whole campaign, into a copy of the
        # caller's config, by the targets' rule: no redirector answer
        portal = genuine_addresses(dns_step(config.keyword_portal, config))[:1]
        if portal:
            overrides = {**config.host_overrides, portal_host: portal[0]}
            config = replace(config, host_overrides=overrides)
    results: list[TargetProbeResult | None] = [None] * len(targets)
    pending = iter(enumerate(targets))
    lock = threading.Lock()

    def work() -> None:
        # one connected socket per resolver address for this worker's life; a
        # resolver whose socket cannot be opened gets none, so each of its
        # queries opens its own, fails, and costs one ServFail observation
        sockets = _worker.sockets = {}
        try:
            for resolver in config.resolvers:
                server = (resolver.address, resolver.port)
                if server not in sockets:
                    with suppress(dnswire.DnsError):
                        sockets[server] = dnswire.connect(server)
            while True:
                with lock:
                    item = next(pending, None)
                if item is None:
                    return
                results[item[0]] = _run_isolated(item[1], config)
        finally:
            del _worker.sockets
            for sock in sockets.values():
                sock.close()

    workers = min(config.workers, len(targets))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for done in [pool.submit(work) for _ in range(workers)]:
            done.result()
    return results
