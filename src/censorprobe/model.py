"""Shared domain vocabulary: URLs, resolvers, observations, mechanisms, verdicts."""

from __future__ import annotations

import enum
import ipaddress
from dataclasses import dataclass, field
from urllib.parse import urlsplit

EXCERPT_LIMIT = 4096

_PRIVATE_NETS = (
    ipaddress.ip_network("10.0.0.0/8"),
    ipaddress.ip_network("172.16.0.0/12"),
    ipaddress.ip_network("192.168.0.0/16"),
)


class MalformedUrl(ValueError):
    pass


class Mechanism(enum.Enum):
    DnsInjection = "DnsInjection"
    IpBlock = "IpBlock"
    UrlKeyword = "UrlKeyword"
    Http302Redirect = "Http302Redirect"
    Http200Injection = "Http200Injection"


class DnsOutcome(enum.Enum):
    Answers = "Answers"
    NxDomain = "NxDomain"
    Timeout = "Timeout"
    ServFail = "ServFail"


class TcpResult(enum.Enum):
    Connected = "Connected"
    Refused = "Refused"
    TimedOut = "TimedOut"
    Unreachable = "Unreachable"


@dataclass(frozen=True)
class TargetUrl:
    """A normalized test-list entry. Equality ignores the raw input text."""

    raw: str = field(compare=False)
    scheme: str
    host: str
    path: str
    query: str | None = None

    def __post_init__(self):
        if self.scheme not in ("http", "https"):
            raise MalformedUrl(f"unsupported scheme: {self.scheme!r}")
        if not self.host or any(c.isspace() for c in self.host):
            raise MalformedUrl(f"bad host: {self.host!r}")
        if self.host != self.host.lower():
            raise MalformedUrl(f"host must be lowercase: {self.host!r}")
        if not self.path.startswith("/"):
            raise MalformedUrl(f"path must start with '/': {self.path!r}")

    def render(self) -> str:
        """Canonical text form; parse_target(render()) round-trips."""
        text = f"{self.scheme}://{self.host}{self.path}"
        if self.query is not None:
            text += "?" + self.query
        return text

    def request_uri(self) -> str:
        """Path plus query, as sent on the HTTP request line."""
        if self.query is not None:
            return f"{self.path}?{self.query}"
        return self.path


def parse_target(raw: str) -> TargetUrl:
    """Parse a URL line into a TargetUrl.

    Missing scheme defaults to http, host is lowercased and IDNA-encoded,
    missing path becomes "/", fragments are dropped. Raises MalformedUrl
    when no usable host can be extracted, or when the IDNA codec rejects
    it (an empty label, or one longer than 63 bytes).
    """
    text = raw.strip()
    if not text:
        raise MalformedUrl("empty input")
    if "://" not in text:
        text = "http://" + text
    parts = urlsplit(text)
    scheme = parts.scheme.lower()
    if scheme not in ("http", "https"):
        raise MalformedUrl(f"unsupported scheme in {raw!r}")
    host = parts.netloc.lower()
    if not host or any(c.isspace() for c in host):
        raise MalformedUrl(f"no host in {raw!r}")
    try:
        host = host.encode("idna").decode("ascii")
    except UnicodeError as exc:
        raise MalformedUrl(f"bad host in {raw!r}: {exc}") from None
    path = parts.path or "/"
    query = parts.query if parts.query else None
    return TargetUrl(raw=raw, scheme=scheme, host=host, path=path, query=query)


def is_private_ip(addr: str) -> bool:
    """True iff addr is an RFC1918 IPv4 address. IPv6 is always False."""
    try:
        ip = ipaddress.ip_address(addr)
    except ValueError:
        return False
    if ip.version != 4:
        return False
    return any(ip in net for net in _PRIVATE_NETS)


@dataclass(frozen=True)
class ResolverSpec:
    """A DNS resolver identity plus its known NXDOMAIN-redirector address.

    port is deployment plumbing (real resolvers listen on 53; the emulator
    binds unprivileged high ports) and is excluded from identity.
    """

    name: str
    address: str
    nxdomain_redirector: str | None = None
    port: int = field(default=53, compare=False)

    def __post_init__(self):
        ip = ipaddress.ip_address(self.address)
        if ip.is_multicast:
            raise ValueError(f"resolver address must be unicast: {self.address}")
        if self.nxdomain_redirector is not None:
            ipaddress.ip_address(self.nxdomain_redirector)
            if self.nxdomain_redirector == self.address:
                raise ValueError("redirector must differ from resolver address")


# The five public servers and the redirectors observed for them.
PUBLIC_RESOLVERS = [
    ResolverSpec("Google", "8.8.8.8"),
    ResolverSpec("Comodo", "8.26.56.26", nxdomain_redirector="92.242.144.50"),
    ResolverSpec("OpenDNS", "208.67.222.222", nxdomain_redirector="67.215.65.132"),
    ResolverSpec("Level3", "209.244.0.3"),
    ResolverSpec("Norton", "198.153.192.40", nxdomain_redirector="198.153.192.3"),
]


@dataclass(frozen=True)
class DnsObservation:
    resolver: ResolverSpec
    qname: str
    outcome: DnsOutcome
    answers: tuple[str, ...] = ()
    rtt_ms: float = 0.0

    def __post_init__(self):
        if self.outcome is DnsOutcome.Answers and not self.answers:
            raise ValueError("Answers outcome requires at least one address")
        if self.outcome is not DnsOutcome.Answers and self.answers:
            raise ValueError(f"{self.outcome.value} outcome must carry no answers")


@dataclass(frozen=True)
class TcpObservation:
    address: str
    result: TcpResult
    port: int = 80

    def __post_init__(self):
        if not 1 <= self.port <= 65535:
            raise ValueError(f"port out of range: {self.port}")


@dataclass(frozen=True)
class HttpObservation:
    request_host: str
    request_uri: str
    status: int
    location: str | None = None
    last_modified: str | None = None
    body_digest: str = ""
    body_excerpt: bytes = b""

    def __post_init__(self):
        if not 100 <= self.status <= 599:
            raise ValueError(f"status out of range: {self.status}")
        if self.location is not None and self.status not in (301, 302):
            raise ValueError("location recorded only for 301/302 responses")


@dataclass(frozen=True)
class Verdict:
    """Per-target set of detected mechanisms with evidence references.

    inconclusive marks targets whose HTTP evidence could not be judged
    (no fingerprint match and no reference digest); they stay clean in
    the mechanism set but are counted separately in reports.
    """

    target: TargetUrl
    mechanisms: frozenset[Mechanism]
    evidence: tuple[str, ...] = ()
    inconclusive: bool = False

    @property
    def clean(self) -> bool:
        return not self.mechanisms
