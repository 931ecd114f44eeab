"""Two-generation censor emulator: DNS injection, 302 redirection, fake-200.

Runs as an unprivileged local proxy pair (one UDP listener per emulated
resolver identity plus an HTTP middlebox) in front of an origin stub, so
probe and classifier tests have deterministic ground truth. Every listener
is served by loop.run on one thread: each listener is a step generator, and
so is each accepted connection, from its request head to its close. A fault
in one handler is logged on this module's logger and costs only its
datagram or connection.
"""

from __future__ import annotations

import enum
import errno
import logging
import select
import socket
import threading
import time
from collections.abc import Generator
from dataclasses import dataclass, field, replace
from math import inf
from typing import IO

from . import dnswire, httpwire, loop
from .model import InvalidDocument, ResolverSpec, given_keys, is_private_ip, read_document
from .model import resolver_spec, str_list

DEFAULT_WARNING_BODY = (
    b"<html><head><title>Surf Safely!</title></head>"
    b"<body>This website is not accessible.</body></html>"
)
DEFAULT_LAST_MODIFIED = "Fri, 19 Apr 2013 10:47:01 GMT"
DEFAULT_POP_LABEL = "Isb-Dhok-P2"
DEFAULT_RULE_ID = "124"

_log = logging.getLogger(__name__)


class Generation(enum.Enum):
    PassThrough = "PassThrough"
    Isp302 = "Isp302"
    Ixp200 = "Ixp200"


def _host_patterns(host: str) -> list[str]:
    """Every rule text that matches host: host itself, then "*" + each suffix
    of host that starts at a dot past its first character. So "*.x" matches
    strict subdomains of x only, and a leading-dot host no wildcard."""
    patterns = [host]
    dot = host.find(".", 1)
    while dot != -1:
        patterns.append("*" + host[dot:])
        dot = host.find(".", dot + 1)
    return patterns


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
        # names on the wire are matched lower-cased, so a host with an
        # upper-case letter could never match
        uri_hosts = [h for h, _ in self.http_host_uri_rules]
        named_hosts = [
            *((f"dns_rules[{i}]", h) for i, h in enumerate(self.dns_rules)),
            *((f"http_host_rules[{i}]", h) for i, h in enumerate(self.http_host_rules)),
            *((f"http_host_uri_rules[{i}]", h) for i, h in enumerate(uri_hosts)),
            *((f"blackhole_hosts[{i}]", h) for i, h in enumerate(self.blackhole_hosts)),
            *(("zone", h) for h, _ in self.zone),
        ]
        for key, host in named_hosts:
            if host != host.lower():
                raise InvalidDocument(f"host must be lowercase: {host!r}", key)
        http_hosts = {*self.http_host_rules, *uri_hosts}
        for i, rule in enumerate(self.dns_rules):
            if rule not in http_hosts:
                reason = f"{rule!r} has no HTTP rule; a DNS-blocked host needs one"
                raise InvalidDocument(reason, f"dns_rules[{i}]")
        if self.generation is Generation.Isp302 and not is_private_ip(self.redirect_host):
            reason = f"{self.redirect_host!r} is not a private IPv4 address"
            raise InvalidDocument(reason, "redirect_host")
        # Lookup indexes, built once; they are not fields, so equality, repr
        # and replace() see only the rules. A lookup lists the rule texts
        # that match a host (_host_patterns) and takes the first-listed rule.
        host_rules: dict[str, int] = {}
        for i, pattern in enumerate(self.http_host_rules):
            host_rules.setdefault(pattern, i)
        uri_rules: dict[str, list[tuple[int, str]]] = {}
        for i, (pattern, needle) in enumerate(self.http_host_uri_rules):
            uri_rules.setdefault(pattern, []).append((i, needle))
        # distinct listed base names for keyword interception, in rule order
        # (host rules, then URI rules), bucketed by their first `width`
        # characters, where `width` is the shortest name's length
        names = [*self.http_host_rules, *uri_hosts]
        keyword_names = list(dict.fromkeys(_pattern_base(p) for p in names))
        width = min(map(len, keyword_names), default=0)
        keywords: dict[str, list[tuple[int, str]]] = {}
        for i, name in enumerate(keyword_names):
            keywords.setdefault(name[:width], []).append((i, name))
        for name, value in (
            ("_dns_rules", frozenset(self.dns_rules)),
            ("_blackhole_hosts", frozenset(self.blackhole_hosts)),
            ("_host_rules", host_rules),
            ("_uri_rules", uri_rules),
            ("_keyword_width", width),
            ("_keywords", keywords),
            ("_zone", dict(reversed(self.zone))),  # the first entry of a name wins
        ):
            object.__setattr__(self, name, value)

    def zone_lookup(self, host: str) -> tuple[str, ...] | None:
        return self._zone.get(host)

    def matched_rule(self, host: str, uri: str) -> str | None:
        """Rule id string when (host, uri) is censored, else None.

        URI rules come before host rules, and host rules before keyword
        interception; within each, the first-listed matching rule wins.
        """
        if self.generation is Generation.PassThrough:
            return None
        patterns = _host_patterns(host)
        uri_hits = []
        for pattern in patterns:
            for i, needle in self._uri_rules.get(pattern, ()):
                if needle in uri:
                    uri_hits.append((i, pattern))
                    break
        if uri_hits:
            return f"uri:{min(uri_hits)[1]}"
        host_hits = [p for p in patterns if p in self._host_rules]
        if host_hits:
            return f"host:{min(host_hits, key=self._host_rules.__getitem__)}"
        if self.keyword_portal_interception:
            name = self._first_keyword(uri)
            if name is not None:
                return f"keyword:{name}"
        return None

    def _first_keyword(self, uri: str) -> str | None:
        """The first-listed keyword name found in uri. A name found at a
        position starts with the uri's `width` characters there, so only
        that bucket (kept in list order) can hold it."""
        width = self._keyword_width
        best: tuple[int, str] | None = None
        for start in range(len(uri) - width + 1):
            for i, name in self._keywords.get(uri[start : start + width], ()):
                if best is not None and i >= best[0]:
                    break
                if uri.startswith(name, start):
                    best = (i, name)
                    break
        return best[1] if best else None

    def dns_blocked(self, qname: str) -> bool:
        return not self._dns_rules.isdisjoint(_host_patterns(qname))

    def blackholed(self, host: str) -> bool:
        return not self._blackhole_hosts.isdisjoint(_host_patterns(host))


def _pairs(value) -> tuple[tuple[str, str], ...]:
    if type(value) is not list or any(len(str_list(p)) != 2 for p in value):
        raise TypeError("expected [host, uri] pairs")
    return tuple(map(tuple, value))


def _policy(doc: dict) -> CensorPolicy:
    found = given_keys(
        doc, generation=Generation, dns_rules=str_list, http_host_rules=str_list,
        http_host_uri_rules=_pairs, resolver_map=lambda rs: tuple(map(resolver_spec, rs)),
        redirect_host=str, warning_body=lambda text: text.encode("utf-8"),
        warning_last_modified=str, keyword_portal_interception=bool, pop_label=str,
        rule_id=str, blackhole_hosts=str_list, warning_body_file=str,
        zone=lambda z: tuple((host, str_list(addrs)) for host, addrs in z.items()),
    )
    body_file = found.pop("warning_body_file", None)
    if body_file is not None and "warning_body" not in found:
        with open(body_file, "rb") as fh:
            found["warning_body"] = fh.read()
    return CensorPolicy(**found)


def load_policy(source: IO[str] | str) -> CensorPolicy:
    """Build a validated CensorPolicy from JSON text or a file object."""
    return read_document(source, _policy)


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
    """Sessions in accept order; each distinct (direction, line) is stored
    once, and so is each distinct finished session: close_session puts the
    first finished session of equal content in its place. Only the
    emulator's loop thread writes, so no lock is needed."""

    def __init__(self):
        self.sessions: list[SessionTranscript] = []
        self._entries: dict[tuple[str, str], tuple[str, str]] = {}
        self._finished: dict[tuple[str, tuple], SessionTranscript] = {}

    def open_session(self, listener: str) -> int:
        """Append a new session and return its index in `sessions`."""
        self.sessions.append(SessionTranscript(listener=listener))
        return len(self.sessions) - 1

    def note(self, index: int, direction: str, line: str) -> None:
        entry = (direction, line)
        self.sessions[index].entries.append(self._entries.setdefault(entry, entry))

    def close_session(self, index: int) -> None:
        session = self.sessions[index]
        key = (session.listener, tuple(session.entries))
        self.sessions[index] = self._finished.setdefault(key, session)


_MAX_DATAGRAM = 65536  # above any UDP payload, so no query is cut short
_DATAGRAMS_PER_WAKEUP = 32


class DnsListener:
    """One emulated resolver identity on a UDP port bound at construction.

    Each wake of its steps() answers the queries waiting on the socket, at
    most _DATAGRAMS_PER_WAKEUP of them, so that a flood on one port cannot
    starve the other listeners."""

    def __init__(self, policy: CensorPolicy, resolver: ResolverSpec):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self.sock.bind(("127.0.0.1", 0))
            self.sock.setblocking(False)
        except OSError:
            self.sock.close()
            raise
        self.endpoint: tuple[str, int] = self.sock.getsockname()
        self.policy = policy
        self.resolver = resolver
        self.request_count = 0  # datagrams answered

    def close(self) -> None:
        self.sock.close()

    def steps(self) -> Generator:
        """The listener's task: read() at each wake, for as long as it runs."""
        watch = [(self.sock.fileno(), select.POLLIN)]
        while True:
            yield watch, inf
            self.read()

    def read(self) -> None:
        sock = self.sock
        for _ in range(_DATAGRAMS_PER_WAKEUP):
            try:
                data, addr = sock.recvfrom(_MAX_DATAGRAM)
            except BlockingIOError:
                return
            except OSError:  # an error queued on the socket costs no answer
                continue
            try:
                reply = self.answer(data)
            except Exception:  # a fault costs this datagram only
                _log.exception("resolver %s: no answer to %s", self.resolver.name, addr)
                continue
            if reply is None:
                continue
            self.request_count += 1
            try:
                sock.sendto(reply, addr)
            except OSError:  # a full buffer or a gone client drops it, as UDP may
                pass

    def answer(self, data: bytes) -> bytes | None:
        """The reply to one datagram; None when it is too short to echo a txid.
        It copies the question name as sent, so it keeps its case (RFC 4343)."""
        try:
            txid, _, qname, name, _, _ = dnswire.decode_fields(data)
        except dnswire.DnsDecodeError:
            name = None
        if name is None:  # header-only FORMERR; a pointer in the question has no target
            return data[:2] + b"\x81\x81" + b"\x00" * 8 if len(data) >= 2 else None
        kind, addrs = handle_dns(self.policy, qname.lower(), self.resolver)
        rcode = dnswire.RCODE_NOERROR if kind == "A" else dnswire.RCODE_NXDOMAIN
        return dnswire.encode_reply(txid, name, rcode, addrs)


# --- HTTP side ------------------------------------------------------------


_BACKLOG = 128  # many concurrent probe workers must not overflow the accept queue
_MAX_HEAD = 65536  # a longer request head is cut here and answered as it stands
# accept() errors after which a listener pauses for _ACCEPT_RETRY_DELAY seconds
_ACCEPT_RESOURCE_ERRNOS = frozenset({errno.EMFILE, errno.ENFILE, errno.ENOBUFS, errno.ENOMEM})
_ACCEPT_RETRY_DELAY = 1.0
BLACKHOLE_DELAY = 30.0  # seconds a blackholed connection is held before it is closed
_BAD_REQUEST = httpwire.encode_response(400, "Bad Request", b"bad request")


class _HttpListener:
    """A TCP listener bound at construction. Its steps() accept, and each
    accepted connection gets a task that reads the request head and sends
    what `handle(uri, host, peer)` answers; None holds it unanswered. With
    a recorder, each accepted connection opens a session named `name`."""

    name: str  # names the listener in transcripts and Emulator.request_counts()

    def __init__(self, policy: CensorPolicy | None, recorder: TranscriptRecorder | None):
        self.sock = socket.create_server(("127.0.0.1", 0), backlog=_BACKLOG)
        self.sock.setblocking(False)
        self.endpoint: tuple[str, int] = self.sock.getsockname()
        self.policy = policy
        self.recorder = recorder
        self.connections: dict[socket.socket, int | None] = {}  # open ones -> session index
        self.request_count = 0  # connections accepted

    def close(self) -> None:
        self.sock.close()

    def steps(self, started: list[Generator]) -> Generator:
        """The listener's task: at each wake, accept the waiting connections,
        at most _BACKLOG of them, and start a task on `started` for each."""
        watch = [(self.sock.fileno(), select.POLLIN)]
        while True:
            yield watch, inf
            for _ in range(_BACKLOG):
                try:
                    sock, peer = self.sock.accept()
                except BlockingIOError:
                    break
                except ConnectionAbortedError:  # reset while it waited to be accepted
                    continue
                except OSError as exc:
                    resource = exc.errno in _ACCEPT_RESOURCE_ERRNOS
                    reason = "out of system resource" if resource else "failed"
                    _log.error("socket.accept() %s", reason, exc_info=exc)
                    if resource:
                        # out of descriptors or memory: the socket stays readable,
                        # so stop watching it for a while instead of spinning
                        yield [], time.monotonic() + _ACCEPT_RETRY_DELAY
                    break
                sock.setblocking(False)
                self.request_count += 1
                recorder = self.recorder
                self.connections[sock] = recorder.open_session(self.name) if recorder else None
                started.append(self._connection(sock, peer))

    def _connection(self, sock: socket.socket, peer: tuple[str, int]) -> Generator:
        """One connection's task: read the request head until it ends, at EOF
        or at _MAX_HEAD bytes; send the answer and close, or hold a blackholed
        connection for BLACKHOLE_DELAY. A handler that raises costs only this
        connection; a reset by the peer closes it."""
        session = self.connections[sock]
        fd = sock.fileno()
        try:
            head = b""
            while httpwire.HEAD_END not in head and len(head) < _MAX_HEAD:
                try:
                    data = sock.recv(_MAX_HEAD)
                except BlockingIOError:
                    yield [(fd, select.POLLIN)], inf
                    continue
                if not data:
                    break
                head += data
            try:
                parsed = httpwire.parse_request(head)
                if parsed is None:
                    reply = self.reject(head)
                    if reply is None:
                        return
                    self._note(session, "in", "<unparseable>")
                else:
                    method, uri, host = parsed
                    self._note(session, "in", f"{method} {uri} HTTP/1.1")
                    reply = self.handle(uri, host, peer)
            except Exception:
                _log.exception("%s: no answer to %s", self.name, peer)
                return
            if reply is None:
                self._note(session, "out", "<blackhole>")
                yield [], time.monotonic() + BLACKHOLE_DELAY
                return
            self._note(session, "out", httpwire.start_line(reply))
            while True:
                try:
                    sent = sock.send(reply)
                except BlockingIOError:
                    sent = 0
                if sent == len(reply):
                    return
                reply = memoryview(reply)[sent:]
                yield [(fd, select.POLLOUT)], inf
        except OSError:  # reset by the peer
            pass
        finally:
            sock.close()
            del self.connections[sock]
            if session is not None:
                self.recorder.close_session(session)

    def _note(self, session: int | None, direction: str, line: str) -> None:
        if session is not None:
            self.recorder.note(session, direction, line)

    def reject(self, raw: bytes) -> bytes | None:
        """The answer to a request head that does not parse; None closes the
        connection unanswered."""
        return _BAD_REQUEST


class CensorHttpProxy(_HttpListener):
    """The censoring middlebox: answers a request that matches the policy
    itself; any other request gets the origin stub's reply, computed in the
    same task without a second connection."""

    name = "censor-http"

    def __init__(self, policy: CensorPolicy, origin: OriginStub, recorder: TranscriptRecorder):
        super().__init__(policy, recorder)
        self.origin = origin

    def reject(self, raw: bytes) -> bytes | None:
        # a bare connect, as the probe's TCP step makes, gets no answer
        return _BAD_REQUEST if raw else None

    def handle(self, uri: str, host: str, peer: tuple[str, int]) -> bytes | None:
        policy = self.policy
        if policy.blackholed(host):
            return None
        rule = policy.matched_rule(host, uri)
        if rule is None:
            return self.origin.serve(host, uri)
        if policy.generation is Generation.Isp302:
            location = (
                f"http://{policy.redirect_host}/redirect.php"
                f"?n={peer[0]}@{policy.pop_label}&s={policy.rule_id}"
            )
            return httpwire.encode_response(302, "Found", b"", ("Location", location))
        # Ixp200: filter and return, origin never consulted
        stamp = ("Last-Modified", policy.warning_last_modified)
        return httpwire.encode_response(200, "OK", policy.warning_body, stamp)


def serve_warning_site(policy: CensorPolicy, uri: str) -> bytes:
    """Warning host behavior: /redirect.php serves the page, all else 404."""
    path = uri.split("?", 1)[0]
    if path == "/redirect.php":
        return httpwire.encode_response(200, "OK", policy.warning_body)
    return httpwire.encode_response(404, "Not Found", b"404 Not Found")


class WarningSite(_HttpListener):
    name = "warning-site"

    def handle(self, uri: str, host: str, peer: tuple[str, int]) -> bytes:
        return serve_warning_site(self.policy, uri)


class OriginStub(_HttpListener):
    """Per-Host content registry standing in for the real web."""

    name = "origin"

    def __init__(self):
        super().__init__(None, None)
        # one shared (host, uri) tuple per distinct request
        self.requests: list[tuple[str, str]] = []
        self._request_keys: dict[tuple[str, str], tuple[str, str]] = {}
        self.site_bodies: dict[str, bytes] = {}

    def handle(self, uri: str, host: str, peer: tuple[str, int]) -> bytes:
        return self.serve(host, uri)

    def serve(self, host: str, uri: str) -> bytes:
        """Record one request for (host, uri) and return the reply to it."""
        key = (host, uri)
        self.requests.append(self._request_keys.setdefault(key, key))
        return self.response_for(host, uri)

    def add_site(self, host: str, body: bytes):
        self.site_bodies[host] = body

    def response_for(self, host: str, uri: str) -> bytes:
        if host in self.site_bodies:
            return httpwire.encode_response(200, "OK", self.site_bodies[host])
        return httpwire.encode_response(404, "Not Found", b"404 Not Found")


# --- Harness --------------------------------------------------------------


class _Stopped(Exception):
    """Ends the emulator's loop.run, which then closes every task."""


def _stop_steps(sock: socket.socket) -> Generator:
    """The task that raises _Stopped once stop() writes to its socket."""
    yield [(sock.fileno(), select.POLLIN)], inf
    raise _Stopped


def _serve(tasks: list[Generator], started: list[Generator]) -> None:
    try:
        loop.run(tasks, started)
    except _Stopped:
        pass


class Emulator:
    """Wires origin stub, censor proxy, warning site, and DNS listeners.

    The sockets are bound here; start() serves them all with loop.run on one
    thread, and stop() ends that loop, which closes every open connection
    (a blackholed one too), then closes the listeners.
    """

    def __init__(self, policy: CensorPolicy):
        self.policy = policy
        self.recorder = TranscriptRecorder()
        self.origin = OriginStub()
        self.proxy = CensorHttpProxy(policy, self.origin, self.recorder)
        self.warning = WarningSite(policy, self.recorder)
        self.dns_listeners = {r.name: DnsListener(policy, r) for r in policy.resolver_map}
        self._stop_pair: tuple[socket.socket, socket.socket] = ()
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

    def request_counts(self) -> dict[str, int]:
        """Datagrams answered per resolver name, and connections accepted
        per HTTP listener name, so far."""
        counts = {name: dns.request_count for name, dns in self.dns_listeners.items()}
        for listener in (self.proxy, self.warning, self.origin):
            counts[listener.name] = listener.request_count
        return counts

    def start(self):
        if self._thread is not None:
            return
        self._stop_pair = socket.socketpair()
        started: list[Generator] = []
        tasks = [
            _stop_steps(self._stop_pair[1]),
            *(dns.steps() for dns in self.dns_listeners.values()),
            *(http.steps(started) for http in (self.origin, self.proxy, self.warning)),
        ]
        self._thread = threading.Thread(target=_serve, args=(tasks, started), daemon=True)
        self._thread.start()

    def stop(self):
        if self._thread is not None and self._thread.is_alive():
            self._stop_pair[0].send(b"\0")
            self._thread.join()
        # the loop has ended, so nothing else touches the sockets now
        for sock in [*self._listeners(), *self._stop_pair]:
            sock.close()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
