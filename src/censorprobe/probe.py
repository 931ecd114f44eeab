"""Four-step per-site probe: DNS, TCP, URL-keyword portal, HTTP fetch.

Transient transport failures go to a per-target error log instead of
raising; results with a non-empty error log are excluded from reporting.
"""

from __future__ import annotations

import math
import os
import select
import socket
import time
from collections.abc import Generator
from contextlib import suppress
from dataclasses import dataclass, field, replace

from . import dnswire, httpwire, loop
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
            if not 0 < value < math.inf:  # NaN fails too; each step needs a deadline
                raise ValueError("timeouts must be finite and strictly positive")
        if self.workers < 1 or self.retries < 0:
            raise ValueError("workers must be at least 1 and retries at least 0")
        check_port(self.http_port, "http_port")
        for host, address in self.host_overrides.items():
            # a name would need a blocking lookup, which would stall the
            # campaign's loop with every target in flight
            try:
                socket.inet_pton(socket.AF_INET6 if ":" in address else socket.AF_INET, address)
            except (OSError, TypeError, ValueError):
                raise ValueError(
                    f"host_overrides: {host}: {address!r} is not an IP address"
                ) from None


@dataclass
class TargetProbeResult:
    target: TargetUrl
    dns: tuple[DnsObservation, ...] = ()
    tcp: tuple[TcpObservation, ...] = ()
    keyword: HttpObservation | None = None
    http: HttpObservation | None = None
    errors: tuple[str, ...] = ()


def dns_step(target: TargetUrl, config: ProbeConfig) -> list[DnsObservation]:
    """One A lookup per configured resolver, all sent at once; failures
    become outcomes."""
    return loop.drive(dns_steps(target, config))


def dns_steps(
    target: TargetUrl, config: ProbeConfig, sockets: dict | None = None
) -> Generator[tuple, list, list[DnsObservation]]:
    """dns_step as a step generator (see loop); `sockets` maps a resolver
    address to the socket its lookups use, as dnswire.exchange_steps' `socks`."""
    replies = yield from dnswire.exchange_steps(
        [(r.address, r.port) for r in config.resolvers], target.host,
        timeout=config.dns_timeout_ms / 1000.0, retries=config.retries, socks=sockets,
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


class _Handshakes:
    """A TCP handshake to each address, all opened at once (see tcp_step);
    steps() waits for them until one deadline."""

    def __init__(self, addresses: list[str], port: int, timeout: float):
        self.addresses, self.port = addresses, port
        self.deadline = time.monotonic() + timeout
        # per address, its socket, or the OSError of a handshake that failed at once
        self.opened: list[socket.socket | OSError] = []
        for address in addresses:
            try:
                self.opened.append(httpwire.connect((address, port)))
            except OSError as exc:
                self.opened.append(exc)

    def close(self) -> None:
        for sock in self.opened:
            if isinstance(sock, socket.socket):
                sock.close()

    def _outcome(self, sock: socket.socket) -> Generator[tuple, list, OSError | None]:
        """The error sock's handshake ended with, or None once it connected;
        sock is closed."""
        with sock:
            if not (yield [(sock.fileno(), select.POLLOUT)], self.deadline):
                return TimeoutError()
            err = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            return OSError(err, os.strerror(err)) if err else None

    def steps(self) -> Generator[tuple, list, list[TcpObservation]]:
        """One observation per address, its result picked by exception
        class; every socket is closed. A step generator (see loop)."""
        observations = []
        try:
            for address, sock in zip(self.addresses, self.opened):
                error = sock if isinstance(sock, OSError) else (yield from self._outcome(sock))
                if error is None:
                    result = TcpResult.Connected
                elif isinstance(error, ConnectionRefusedError):
                    result = TcpResult.Refused
                elif isinstance(error, TimeoutError):
                    result = TcpResult.TimedOut
                else:
                    result = TcpResult.Unreachable
                observations.append(TcpObservation(address, result, self.port))
        finally:
            self.close()
        return observations


def tcp_step(
    addresses: list[str], port: int = 80, timeout: float = 5.0
) -> list[TcpObservation]:
    """3-way handshake per address, all at once within one `timeout`; each
    socket is closed as soon as its handshake ends. The socket's family
    follows the address, so IPv4 and IPv6 both connect."""
    return loop.drive(_Handshakes(addresses, port, timeout).steps())


def _start_keyword(target: TargetUrl, config: ProbeConfig) -> httpwire.Request:
    """Start the portal GET; raises HttpTransportError when the portal has
    no address."""
    portal_address = config.host_overrides.get(config.keyword_portal.host)
    if portal_address is None:
        raise httpwire.HttpTransportError("keyword portal did not resolve")
    return httpwire.start(
        portal_address,
        config.keyword_portal.host,
        "/" + target.render(),
        port=config.http_port,
        timeout=config.http_timeout_ms / 1000.0,
    )


def _start_http(target: TargetUrl, resolved: str, config: ProbeConfig) -> httpwire.Request:
    return httpwire.start(
        resolved,
        target.host,
        target.request_uri(),
        port=config.http_port,
        timeout=config.http_timeout_ms / 1000.0,
    )


def keyword_step(target: TargetUrl, config: ProbeConfig) -> HttpObservation:
    """GET "/" + the full target URL on the portal host.

    A 404 means no URL-keyword filtering; any other status is evidence of
    it. The portal's address is its entry in `host_overrides`, which
    run_campaign fills in. Raises HttpTransportError on transport failure
    or when there is no such entry (the caller logs it and marks the step
    inconclusive).
    """
    return loop.drive(_start_keyword(target, config).steps())


def http_step(target: TargetUrl, resolved: str, config: ProbeConfig) -> HttpObservation:
    """Single GET with Host: target.host; redirects recorded, not followed."""
    return loop.drive(_start_http(target, resolved, config).steps())


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


def _finish(
    step: str, request: httpwire.Request, errors: list[str]
) -> Generator[tuple, list, HttpObservation | None]:
    """The request's observation, or None with its error logged under step."""
    try:
        return (yield from request.steps())
    except httpwire.HttpTransportError as exc:
        errors.append(f"{step}: {exc}")
        return None


def run_target(target: TargetUrl, config: ProbeConfig) -> TargetProbeResult:
    """Execute steps 1-4, overlapping those that do not wait on each other,
    and keep every observation collected.

    The keyword request is started before the DNS lookups, since it needs
    nothing from them. Once the addresses are known, the TCP handshakes are
    opened and then the HTTP request is started. The handshakes, the
    keyword reply and the HTTP reply are then awaited in that order, so the
    error log reads as if the steps ran in turn.

    A request's GET goes out at its start only if its connect completes
    there, as on loopback; its timeout then runs from its start. Else only
    the connect overlaps the earlier steps: the GET goes out when the reply
    is awaited, and the timeout runs from then, as when the steps ran in
    turn.
    """
    return loop.drive(target_steps(target, config))


def target_steps(
    target: TargetUrl, config: ProbeConfig, sockets: dict | None = None
) -> Generator[tuple, list, TargetProbeResult]:
    """run_target as a step generator (see loop); `sockets` as for dns_steps."""
    errors: list[str] = []
    keyword = handshakes = http = None
    try:
        try:
            keyword = _start_keyword(target, config)
        except httpwire.HttpTransportError as exc:
            errors.append(f"keyword: {exc}")
        dns_obs = yield from dns_steps(target, config, sockets)

        override = config.host_overrides.get(target.host)
        addresses = [override] if override else genuine_addresses(dns_obs)
        handshakes = _Handshakes(
            addresses, config.http_port, config.tcp_timeout_ms / 1000.0
        )
        if addresses:
            http = _start_http(target, addresses[0], config)

        tcp_obs = yield from handshakes.steps()
        keyword_obs = keyword and (yield from _finish("keyword", keyword, errors))
        http_obs = http and (yield from _finish("http", http, errors))
    finally:
        for started in (keyword, handshakes, http):
            if started is not None:
                started.close()

    return TargetProbeResult(
        target=target,
        dns=tuple(dns_obs),
        tcp=tuple(tcp_obs),
        keyword=keyword_obs,
        http=http_obs,
        errors=tuple(errors),
    )


def run_campaign(
    targets: list[TargetUrl], config: ProbeConfig
) -> list[TargetProbeResult]:
    """One pass over the target list; output order equals input order.

    Up to `workers` targets are in flight at once, all on the calling
    thread and one poll (see loop): each in-flight slot takes the next
    target as its last one ends, and keeps one socket per resolver address
    for the whole campaign. No target can lose the campaign: an exception
    raised while probing one becomes an error-log entry on its result.
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

    def slot() -> Generator[tuple, list, None]:
        # a resolver whose socket cannot be opened gets none, so each of its
        # queries opens its own, fails, and costs one ServFail observation
        sockets = {}
        try:
            for resolver in config.resolvers:
                server = (resolver.address, resolver.port)
                if server not in sockets:
                    with suppress(dnswire.DnsError):
                        sockets[server] = dnswire.connect(server)
            for index, target in pending:
                try:
                    results[index] = yield from target_steps(target, config, sockets)
                except Exception as exc:
                    results[index] = TargetProbeResult(
                        target=target, errors=(f"probe: {type(exc).__name__}: {exc}",)
                    )
        finally:
            for sock in sockets.values():
                sock.close()

    loop.run([slot() for _ in range(min(config.workers, len(targets)))])
    return results
