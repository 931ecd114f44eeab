"""Two-generation censor emulator: DNS injection, 302 redirection, fake-200.

Runs as an unprivileged local proxy pair (one UDP listener per emulated
resolver identity plus an HTTP middlebox) in front of an origin stub, so
probe and classifier tests have deterministic ground truth. Every listener
is served by one asyncio event loop on one thread.
"""

from __future__ import annotations

import asyncio
import enum
import json
import socket
import threading
from dataclasses import dataclass, field, replace
from typing import IO

from . import dnswire
from .model import ResolverSpec, is_private_ip

DEFAULT_WARNING_BODY = (
    b"<html><head><title>Surf Safely!</title></head>"
    b"<body>This website is not accessible.</body></html>"
)
DEFAULT_LAST_MODIFIED = "Fri, 19 Apr 2013 10:47:01 GMT"
DEFAULT_POP_LABEL = "Isb-Dhok-P2"
DEFAULT_RULE_ID = "124"


class PolicyInvalid(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class Generation(enum.Enum):
    PassThrough = "PassThrough"
    Isp302 = "Isp302"
    Ixp200 = "Ixp200"


def match_host(pattern: str, host: str) -> bool:
    """Exact match, or leading-wildcard suffix match ("*.example.com")."""
    if pattern.startswith("*."):
        suffix = pattern[1:]  # ".example.com"
        return host.endswith(suffix) and len(host) > len(suffix)
    return host == pattern


def _pattern_base(pattern: str) -> str:
    return pattern[2:] if pattern.startswith("*.") else pattern


@dataclass(frozen=True)
class CensorPolicy:
    generation: Generation
    dns_rules: tuple[str, ...] = ()
    http_host_rules: tuple[str, ...] = ()
    http_host_uri_rules: tuple[tuple[str, str], ...] = ()
    resolver_map: tuple[ResolverSpec, ...] = ()
    redirect_host: str = "10.16.6.41"
    warning_body: bytes = DEFAULT_WARNING_BODY
    warning_last_modified: str = DEFAULT_LAST_MODIFIED
    keyword_portal_interception: bool = False
    pop_label: str = DEFAULT_POP_LABEL
    rule_id: str = DEFAULT_RULE_ID
    zone: tuple[tuple[str, tuple[str, ...]], ...] = ()
    blackhole_hosts: tuple[str, ...] = ()

    def __post_init__(self):
        http_hosts = set(self.http_host_rules) | {h for h, _ in self.http_host_uri_rules}
        for i, rule in enumerate(self.dns_rules):
            if rule not in http_hosts:
                raise PolicyInvalid(
                    f"dns_rules[{i}]",
                    f"{rule!r} has no matching HTTP rule; DNS-blocked hosts "
                    "must also be HTTP-blocked",
                )
        if self.generation is Generation.Isp302 and not is_private_ip(self.redirect_host):
            raise PolicyInvalid(
                "redirect_host", f"{self.redirect_host!r} is not a private IPv4 address"
            )

    def zone_lookup(self, host: str) -> tuple[str, ...] | None:
        for name, addrs in self.zone:
            if name == host:
                return addrs
        return None

    def matched_rule(self, host: str, uri: str) -> str | None:
        """Rule id string when (host, uri) is censored, else None."""
        if self.generation is Generation.PassThrough:
            return None
        for pattern, needle in self.http_host_uri_rules:
            if match_host(pattern, host) and needle in uri:
                return f"uri:{pattern}"
        for pattern in self.http_host_rules:
            if match_host(pattern, host):
                return f"host:{pattern}"
        if self.keyword_portal_interception:
            blocked = {_pattern_base(p) for p in self.http_host_rules}
            blocked |= {_pattern_base(p) for p, _ in self.http_host_uri_rules}
            for name in blocked:
                if name in uri:
                    return f"keyword:{name}"
        return None

    def dns_blocked(self, qname: str) -> bool:
        return any(match_host(p, qname) for p in self.dns_rules)


def load_policy(source: IO[str] | str) -> CensorPolicy:
    """Build a validated CensorPolicy from JSON text or a file object."""
    text = source if isinstance(source, str) else source.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PolicyInvalid("$", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise PolicyInvalid("$", "policy document must be an object")

    gen_name = doc.get("generation")
    try:
        generation = Generation(gen_name)
    except ValueError:
        raise PolicyInvalid(
            "generation", f"{gen_name!r} is not one of PassThrough/Isp302/Ixp200"
        ) from None

    def str_list(key: str) -> tuple[str, ...]:
        val = doc.get(key, [])
        if not isinstance(val, list) or not all(isinstance(x, str) for x in val):
            raise PolicyInvalid(key, "expected a list of strings")
        return tuple(val)

    host_uri = []
    for i, pair in enumerate(doc.get("http_host_uri_rules", [])):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise PolicyInvalid(f"http_host_uri_rules[{i}]", "expected [host, uri] pair")
        host_uri.append((pair[0], pair[1]))

    resolvers = []
    for i, spec in enumerate(doc.get("resolver_map", [])):
        try:
            resolvers.append(
                ResolverSpec(
                    name=spec["name"],
                    address=spec["address"],
                    nxdomain_redirector=spec.get("nxdomain_redirector"),
                    port=spec.get("port", 53),
                )
            )
        except (KeyError, ValueError) as exc:
            raise PolicyInvalid(f"resolver_map[{i}]", str(exc)) from exc

    warning_body = DEFAULT_WARNING_BODY
    if "warning_body" in doc:
        warning_body = doc["warning_body"].encode("utf-8")
    elif "warning_body_file" in doc:
        with open(doc["warning_body_file"], "rb") as fh:
            warning_body = fh.read()

    zone = tuple(
        (host, tuple(addrs)) for host, addrs in doc.get("zone", {}).items()
    )

    return CensorPolicy(
        generation=generation,
        dns_rules=str_list("dns_rules"),
        http_host_rules=str_list("http_host_rules"),
        http_host_uri_rules=tuple(host_uri),
        resolver_map=tuple(resolvers),
        redirect_host=doc.get("redirect_host", "10.16.6.41"),
        warning_body=warning_body,
        warning_last_modified=doc.get("warning_last_modified", DEFAULT_LAST_MODIFIED),
        keyword_portal_interception=bool(doc.get("keyword_portal_interception", False)),
        pop_label=doc.get("pop_label", DEFAULT_POP_LABEL),
        rule_id=doc.get("rule_id", DEFAULT_RULE_ID),
        zone=zone,
        blackhole_hosts=str_list("blackhole_hosts"),
    )


# --- DNS side -------------------------------------------------------------


def handle_dns(
    policy: CensorPolicy, qname: str, resolver: ResolverSpec
) -> tuple[str, list[str]]:
    """Decide the DNS answer: ("A", addresses) or ("NXDOMAIN", []).

    Blocked names get the resolver's redirector when it has one, NXDOMAIN
    otherwise. Unblocked names are answered from the built-in zone.
    """
    if policy.dns_blocked(qname):
        if resolver.nxdomain_redirector:
            return ("A", [resolver.nxdomain_redirector])
        return ("NXDOMAIN", [])
    addrs = policy.zone_lookup(qname)
    if addrs:
        return ("A", list(addrs))
    return ("NXDOMAIN", [])


@dataclass(slots=True)
class SessionTranscript:
    listener: str
    entries: list[tuple[str, str]] = field(default_factory=list)


class TranscriptRecorder:
    """Sessions in accept order; each distinct (direction, line) is stored once.
    Only the emulator's event loop thread writes, so no lock is needed."""

    def __init__(self):
        self.sessions: list[SessionTranscript] = []
        self._entries: dict[tuple[str, str], tuple[str, str]] = {}

    def open_session(self, listener: str) -> SessionTranscript:
        session = SessionTranscript(listener=listener)
        self.sessions.append(session)
        return session

    def note(self, session: SessionTranscript, direction: str, line: str) -> None:
        entry = (direction, line)
        session.entries.append(self._entries.setdefault(entry, entry))


class DnsListener(asyncio.DatagramProtocol):
    """One emulated resolver identity on a UDP port bound at construction."""

    def __init__(self, policy: CensorPolicy, resolver: ResolverSpec):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self.sock.bind(("127.0.0.1", 0))
        except OSError:
            self.sock.close()
            raise
        self.endpoint: tuple[str, int] = self.sock.getsockname()
        self.policy = policy
        self.resolver = resolver
        self.transport: asyncio.DatagramTransport | None = None

    async def open(self) -> None:
        loop = asyncio.get_running_loop()
        await loop.create_datagram_endpoint(lambda: self, sock=self.sock)

    def close(self) -> None:
        (self.transport or self.sock).close()

    def connection_made(self, transport):
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        try:
            msg = dnswire.decode_message(data)
        except dnswire.DnsDecodeError:
            if len(data) >= 2:
                # header-only FORMERR; the question was not decodable
                self.transport.sendto(data[:2] + b"\x81\x81" + b"\x00" * 8, addr)
            return
        kind, addrs = handle_dns(self.policy, msg.qname, self.resolver)
        rcode = dnswire.RCODE_NOERROR if kind == "A" else dnswire.RCODE_NXDOMAIN
        reply = dnswire.encode_response(msg.txid, msg.qname, rcode, addrs)
        self.transport.sendto(reply, addr)


# --- HTTP side ------------------------------------------------------------


def build_response(
    status: int,
    reason: str,
    body: bytes,
    extra_headers: list[tuple[str, str]] | None = None,
) -> bytes:
    lines = [f"HTTP/1.1 {status} {reason}"]
    for name, value in extra_headers or []:
        lines.append(f"{name}: {value}")
    lines.append("Content-Type: text/html")
    lines.append(f"Content-Length: {len(body)}")
    lines.append("Connection: close")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


_BACKLOG = 128  # many concurrent probe workers must not overflow the accept queue


def _parse_request(raw: bytes) -> tuple[str, str, str] | None:
    """Returns (method, uri, host) or None when unparseable."""
    head = raw.split(b"\r\n\r\n", 1)[0]
    lines = head.split(b"\r\n")
    parts = lines[0].split(b" ")
    if len(parts) != 3 or not parts[2].startswith(b"HTTP/"):
        return None
    method, uri = parts[0].decode("latin-1"), parts[1].decode("latin-1")
    host = ""
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"host":
            host = value.decode("latin-1").strip().lower()
    if not host:
        return None
    return method, uri, host


class _HttpConnection(asyncio.Protocol):
    """One accepted connection: collects the request head, hands it to the
    listener, and stays open until the listener answers or stop() aborts it."""

    def __init__(self, listener: _HttpListener):
        self.listener = listener
        self.head: bytes | None = b""  # None once handed to the listener
        self.pending: asyncio.TimerHandle | None = None

    def connection_made(self, transport):
        self.transport = transport
        self.listener.connections.add(self)
        recorder = self.listener.recorder
        self.session = recorder.open_session(self.listener.name) if recorder else None

    def data_received(self, data: bytes) -> None:
        if self.head is not None:
            self.head += data
            if b"\r\n\r\n" in self.head or len(self.head) >= 65536:
                self._dispatch()

    def eof_received(self) -> bool:
        if self.head is not None:
            self._dispatch()
        return True  # the listener closes the transport once it has answered

    def connection_lost(self, exc) -> None:
        self.listener.connections.discard(self)
        if self.pending is not None:
            self.pending.cancel()

    def _dispatch(self) -> None:
        raw, self.head = self.head, None
        parsed = _parse_request(raw)
        if parsed is None:
            self.listener.reject(self, raw)
            return
        method, uri, host = parsed
        self.note("in", f"{method} {uri} HTTP/1.1")
        self.listener.handle(self, uri, host)

    def note(self, direction: str, line: str) -> None:
        if self.session is not None:
            self.listener.recorder.note(self.session, direction, line)

    def answer(self, reply: bytes) -> None:
        """Send reply and close; the transcript records its status line."""
        self.note("out", reply.split(b"\r\n", 1)[0].decode("latin-1", "replace"))
        self.transport.write(reply)
        self.transport.close()


class _HttpListener:
    """A TCP listener bound at construction; `handle` answers each request head.
    With a recorder, each accepted connection opens a session named `name`."""

    name: str  # the transcript's listener name, where there is a recorder

    def __init__(self, policy: CensorPolicy | None, recorder: TranscriptRecorder | None):
        self.sock = socket.create_server(("127.0.0.1", 0), backlog=_BACKLOG)
        self.endpoint: tuple[str, int] = self.sock.getsockname()
        self.policy = policy
        self.recorder = recorder
        self.connections: set[_HttpConnection] = set()
        self._server: asyncio.AbstractServer | None = None

    async def open(self) -> None:
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _HttpConnection(self), sock=self.sock, backlog=_BACKLOG
        )

    def close(self) -> None:
        (self._server or self.sock).close()
        for conn in list(self.connections):
            conn.transport.abort()

    def reject(self, conn: _HttpConnection, raw: bytes) -> None:
        """400 for a request head that does not parse."""
        conn.note("in", "<unparseable>")
        conn.answer(build_response(400, "Bad Request", b"bad request"))


class CensorHttpProxy(_HttpListener):
    """The censoring middlebox: answers a request that matches the policy
    itself; any other request gets the origin stub's reply, computed in the
    same loop callback without a second connection."""

    name = "censor-http"

    def __init__(
        self,
        policy: CensorPolicy,
        origin: OriginStub,
        recorder: TranscriptRecorder,
        blackhole_delay: float,
    ):
        super().__init__(policy, recorder)
        self.origin = origin
        self.blackhole_delay = blackhole_delay

    def reject(self, conn: _HttpConnection, raw: bytes) -> None:
        if raw:
            super().reject(conn, raw)
        else:  # a bare connect, as the probe's TCP step makes, gets no answer
            conn.transport.close()

    def handle(self, conn: _HttpConnection, uri: str, host: str) -> None:
        policy = self.policy
        if any(match_host(p, host) for p in policy.blackhole_hosts):
            conn.note("out", "<blackhole>")
            loop = asyncio.get_running_loop()
            conn.pending = loop.call_later(self.blackhole_delay, conn.transport.close)
            return

        rule = policy.matched_rule(host, uri)
        if rule is None:
            conn.answer(self.origin.serve(host, uri))
        elif policy.generation is Generation.Isp302:
            client_ip = conn.transport.get_extra_info("peername")[0]
            location = (
                f"http://{policy.redirect_host}/redirect.php"
                f"?n={client_ip}@{policy.pop_label}&s={policy.rule_id}"
            )
            conn.answer(build_response(302, "Found", b"", [("Location", location)]))
        else:  # Ixp200: filter and return, origin never consulted
            headers = [("Last-Modified", policy.warning_last_modified)]
            conn.answer(build_response(200, "OK", policy.warning_body, headers))


def serve_warning_site(policy: CensorPolicy, uri: str) -> bytes:
    """Warning host behavior: /redirect.php serves the page, all else 404."""
    path = uri.split("?", 1)[0]
    if path == "/redirect.php":
        return build_response(200, "OK", policy.warning_body)
    return build_response(404, "Not Found", b"404 Not Found")


class WarningSite(_HttpListener):
    name = "warning-site"

    def handle(self, conn: _HttpConnection, uri: str, host: str) -> None:
        conn.answer(serve_warning_site(self.policy, uri))


class OriginStub(_HttpListener):
    """Per-Host content registry standing in for the real web."""

    def __init__(self):
        super().__init__(None, None)
        # one shared (host, uri) tuple per distinct request
        self.requests: list[tuple[str, str]] = []
        self._request_keys: dict[tuple[str, str], tuple[str, str]] = {}
        self.site_bodies: dict[str, bytes] = {}

    def handle(self, conn: _HttpConnection, uri: str, host: str) -> None:
        conn.answer(self.serve(host, uri))

    def serve(self, host: str, uri: str) -> bytes:
        """Record one request for (host, uri) and return the reply to it."""
        key = (host, uri)
        self.requests.append(self._request_keys.setdefault(key, key))
        return self.response_for(host, uri)

    def add_site(self, host: str, body: bytes):
        self.site_bodies[host] = body

    def response_for(self, host: str, uri: str) -> bytes:
        if host in self.site_bodies:
            return build_response(200, "OK", self.site_bodies[host])
        return build_response(404, "Not Found", b"404 Not Found")

    def requests_for(self, host: str) -> list[tuple[str, str]]:
        return [r for r in self.requests if r[0] == host]


# --- Harness --------------------------------------------------------------


class Emulator:
    """Wires origin stub, censor proxy, warning site, and DNS listeners.

    The sockets are bound here; start() serves them all from one asyncio
    event loop on one thread, and stop() closes them and aborts open
    connections, which cancels their blackhole timers.
    """

    def __init__(self, policy: CensorPolicy, blackhole_delay: float = 30.0):
        self.policy = policy
        self.recorder = TranscriptRecorder()
        self.origin = OriginStub()
        self.proxy = CensorHttpProxy(policy, self.origin, self.recorder, blackhole_delay)
        self.warning = WarningSite(policy, self.recorder)
        self.dns_listeners = {r.name: DnsListener(policy, r) for r in policy.resolver_map}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    def resolver_endpoints(self) -> list[ResolverSpec]:
        """Resolver specs rebound to the local listener ports."""
        out = []
        for resolver in self.policy.resolver_map:
            address, port = self.dns_listeners[resolver.name].endpoint
            out.append(replace(resolver, address=address, port=port))
        return out

    def _listeners(self) -> list[_HttpListener | DnsListener]:
        return [self.origin, self.proxy, self.warning, *self.dns_listeners.values()]

    def start(self):
        if self._loop is not None:
            return
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever, daemon=True)
        self._thread.start()
        asyncio.run_coroutine_threadsafe(self._open(), self._loop).result()

    async def _open(self):
        for listener in self._listeners():
            await listener.open()

    async def _close(self):
        for listener in self._listeners():
            listener.close()

    def stop(self):
        if self._thread is None or not self._thread.is_alive():
            for listener in self._listeners():
                listener.close()
            return
        asyncio.run_coroutine_threadsafe(self._close(), self._loop).result()
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._loop.close()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
