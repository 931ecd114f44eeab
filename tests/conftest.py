"""Shared fixtures: emulator harness wiring and probe configs bound to it."""

from __future__ import annotations

import hashlib
import logging
import select
import socket
import threading
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, settings

from censorprobe import dnswire
from censorprobe.classify import FingerprintSet
from censorprobe.emulator import CensorPolicy, Emulator, Generation
from censorprobe.model import PUBLIC_RESOLVERS, ResolverSpec, parse_target
from censorprobe.probe import ProbeConfig

# property tests must stay correct on slow or heavily loaded machines
settings.register_profile(
    "tolerant", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("tolerant")

LOCAL_RESOLVER = ResolverSpec("Local", "192.0.2.53")
TEST_RESOLVERS = (LOCAL_RESOLVER, *PUBLIC_RESOLVERS)

ORIGIN_BODY = b"<html><body>origin content for %s</body></html>"


@pytest.fixture(autouse=True)
def no_emulator_handler_errors(caplog):
    """Fail a test when an emulator handler raised on the emulator's thread.

    The emulator logs such exceptions instead of raising them in a test thread.
    """
    yield
    errors = [
        r.getMessage()
        for r in caplog.get_records("call")
        if r.name == "censorprobe.emulator" and r.levelno >= logging.ERROR
    ]
    assert not errors, errors


def make_policy(
    generation: Generation,
    dns_rules=(),
    http_host_rules=(),
    http_host_uri_rules=(),
    live_hosts=(),
    resolver_map=TEST_RESOLVERS,
    **kwargs,
) -> CensorPolicy:
    zone = tuple((h, ("127.0.0.1",)) for h in live_hosts)
    return CensorPolicy(
        generation=generation,
        dns_rules=tuple(dns_rules),
        http_host_rules=tuple(http_host_rules),
        http_host_uri_rules=tuple(http_host_uri_rules),
        resolver_map=tuple(resolver_map),
        zone=zone,
        **kwargs,
    )


def start_emulator(policy: CensorPolicy) -> Emulator:
    emu = Emulator(policy)
    for host, _ in policy.zone:
        # the keyword portal must 404 on appended-URL paths, like the real one
        if host != "www.google.com":
            emu.origin.add_site(host, ORIGIN_BODY % host.encode())
    emu.start()
    return emu


def probe_config_for(emu: Emulator, fast: bool = True) -> ProbeConfig:
    """ProbeConfig pointed at the emulator's listeners.

    DNS-blocked hosts get an override address (the censor path) so the
    HTTP step still runs, mirroring field use of an out-of-band lookup.
    """
    proxy_host, proxy_port = emu.proxy.endpoint
    overrides = {"www.google.com": proxy_host}
    for rule in emu.policy.dns_rules:
        if not rule.startswith("*."):
            overrides[rule] = proxy_host
    return ProbeConfig(
        resolvers=emu.resolver_endpoints(),
        keyword_portal=parse_target("http://www.google.com"),
        dns_timeout_ms=2000 if fast else 5000,
        tcp_timeout_ms=2000 if fast else 5000,
        http_timeout_ms=3000 if fast else 10000,
        retries=1,
        workers=16,
        host_overrides=overrides,
        http_port=proxy_port,
    )


def ipv6_loopback_socket(kind: int) -> socket.socket:
    """A socket bound to a free port on ::1; skips the test where ::1
    cannot be bound."""
    try:
        sock = socket.socket(socket.AF_INET6, kind)
    except OSError as exc:
        pytest.skip(f"no IPv6 socket here: {exc}")
    try:
        sock.bind(("::1", 0))
    except OSError as exc:
        sock.close()
        pytest.skip(f"::1 cannot be bound here: {exc}")
    return sock


@contextmanager
def full_listener():
    """Yield the port of a loopback listener whose accept queue is full, so
    the handshake of any further connection to it never completes."""
    fillers = []
    with socket.create_server(("127.0.0.1", 0), backlog=0) as server:
        port = server.getsockname()[1]
        try:
            while len(fillers) < 8:
                sock = socket.socket()
                fillers.append(sock)
                sock.setblocking(False)
                sock.connect_ex(("127.0.0.1", port))
                if not select.select([], [sock], [], 0.2)[1]:
                    break  # this handshake hangs: the queue is full
            else:
                pytest.skip("a loopback listener's accept queue did not fill")
            yield port
        finally:
            for sock in fillers:
                sock.close()


def answer_one_query(sock: socket.socket, address: str = "1.2.3.4") -> threading.Thread:
    """A started thread that answers the first A query on `sock` with
    `address`; join it before closing `sock`."""

    def answer():
        data, client = sock.recvfrom(512)
        msg = dnswire.decode_message(data)
        reply = dnswire.encode_response(
            msg.txid, msg.qname, dnswire.RCODE_NOERROR, [address]
        )
        sock.sendto(reply, client)

    sock.settimeout(5)
    peer = threading.Thread(target=answer)
    peer.start()
    return peer


def fingerprints_for(policy: CensorPolicy) -> FingerprintSet:
    return FingerprintSet(
        warning_page_digests=frozenset(
            {hashlib.sha256(policy.warning_body).hexdigest()}
        ),
        warning_excerpt_patterns=(b"not accessible",),
        injected_last_modified=(policy.warning_last_modified, "Fri, 19 Apr 2013"),
    )


@pytest.fixture(scope="module")
def passthrough_emulator():
    policy = make_policy(
        Generation.PassThrough,
        live_hosts=("site001.test", "site002.test", "www.google.com"),
    )
    with start_emulator(policy) as emu:
        yield emu


@pytest.fixture(scope="module")
def isp302_emulator():
    policy = make_policy(
        Generation.Isp302,
        dns_rules=("blocked-dns.test",),
        http_host_rules=("youtube.com", "blocked-dns.test"),
        http_host_uri_rules=(("vimeo.com", "64414932"),),
        live_hosts=(
            "site001.test",
            "site002.test",
            "vimeo.com",
            "youtube.com",
            "www.google.com",
        ),
    )
    with start_emulator(policy) as emu:
        yield emu


@pytest.fixture(scope="module")
def ixp200_emulator():
    policy = make_policy(
        Generation.Ixp200,
        dns_rules=("blocked-dns.test",),
        http_host_rules=("youtube.com", "blocked-dns.test"),
        http_host_uri_rules=(("vimeo.com", "64414932"),),
        live_hosts=(
            "site001.test",
            "site002.test",
            "vimeo.com",
            "youtube.com",
            "www.google.com",
        ),
    )
    with start_emulator(policy) as emu:
        yield emu
