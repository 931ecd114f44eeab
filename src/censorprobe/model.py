"""Shared domain vocabulary: URLs, resolvers, observations, mechanisms, verdicts."""

from __future__ import annotations

import enum
import ipaddress
import json
from dataclasses import dataclass, field
from types import UnionType
from typing import IO, Any, Callable
from urllib.parse import quote, urlsplit

EXCERPT_LIMIT = 4096

# what building an object from a decoded document raises for a bad value
DOCUMENT_ERRORS = (ValueError, KeyError, TypeError, AttributeError, ArithmeticError)

# printable ASCII but space: kept as it is in a URL's path and query
_URL_VERBATIM = "".join(map(chr, range(0x21, 0x7F)))

_PRIVATE_NETS = (
    ipaddress.ip_network("10.0.0.0/8"),
    ipaddress.ip_network("172.16.0.0/12"),
    ipaddress.ip_network("192.168.0.0/16"),
)


class MalformedUrl(ValueError):
    pass


class InvalidDocument(ValueError):
    """An input file that is not a JSON object of the expected shape. The
    message starts with `path`, the file's name (None for JSON text), and
    `key`, the key at fault, when there is one."""

    def __init__(self, reason: str, key: str | None = None, path: str | None = None):
        super().__init__(reason)
        self.key, self.path = key, path

    def __str__(self) -> str:
        return ": ".join(p for p in (self.path, self.key, self.args[0]) if p is not None)


def _reason(exc: Exception) -> str:
    if isinstance(exc, json.JSONDecodeError):
        return f"not valid JSON: {exc}"
    return f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)


def _json_object(doc) -> dict:
    if not isinstance(doc, dict):
        raise TypeError(f"expected a JSON object, not {type(doc).__name__}")
    return doc


def read_document(source: IO[str] | str, build: Callable[[dict], Any]) -> Any:
    """build(doc) for the JSON object in `source`, JSON text or an open file.
    Anything raised while decoding or building becomes InvalidDocument,
    named after `source.name`."""
    path = getattr(source, "name", None)
    try:
        text = source if isinstance(source, str) else source.read()
        return build(_json_object(json.loads(text)))
    except InvalidDocument as exc:
        exc.path = path
        raise
    except DOCUMENT_ERRORS as exc:
        raise InvalidDocument(_reason(exc), path=path) from exc


# each check's JSON type: a bool is not an integer, and an integer is a number
_CHECKS = {str: "string", int: "integer", float: "number", bool: "boolean", type(None): "null"}


def given_keys(doc: dict, /, **convert: Any) -> dict:
    """The keys of `doc` named in `convert`, each value through its entry: a
    check (str, int, float, bool, or a union of them with None) takes a value
    of its JSON type as it is; any other entry builds from the value. A key
    the document lacks is left out, so its default stays on the dataclass; a
    value its entry rejects raises InvalidDocument naming the key."""
    found, doc = {}, _json_object(doc)
    for key, conv in convert.items():
        if key in doc:
            value, kinds = doc[key], conv.__args__ if type(conv) is UnionType else (conv,)
            try:
                if kinds[0] not in _CHECKS:
                    value = conv(value)
                elif type(value) not in kinds and not (float in kinds and type(value) is int):
                    names = " or ".join(map(_CHECKS.get, kinds))
                    raise TypeError(f"expected {names}, not {json.dumps(value)}")
            except DOCUMENT_ERRORS as exc:
                raise InvalidDocument(_reason(exc), key=key) from exc
            found[key] = value
    return found


def str_list(value) -> tuple[str, ...]:
    """A JSON list of strings, as a tuple; a string is not taken as its characters."""
    if type(value) is not list or not {str}.issuperset(map(type, value)):
        raise TypeError("expected a list of strings")
    return tuple(value)


def str_object(value) -> dict[str, str]:
    """A JSON object whose values are strings, as a dict."""
    if type(value) is not dict or not {str}.issuperset(map(type, value.values())):
        raise TypeError("expected an object of strings")
    return dict(value)


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
    missing path becomes "/", fragments are dropped, and the scheme's
    default port is dropped. Spaces, control characters and non-ASCII in
    the path and query are percent-encoded as UTF-8, as browsers send
    them. Raises MalformedUrl when no usable host can be
    extracted, when the IDNA codec rejects it (an empty label, or one
    longer than 63 bytes), for text with a lone surrogate, or for userinfo
    or any other port: every probe step uses the configured HTTP port.
    """
    text = raw.strip()
    if not text:
        raise MalformedUrl("empty input")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, as for an undecodable byte
        raise MalformedUrl(f"not UTF-8 text: {raw!r}") from None
    if "://" not in text:
        text = "http://" + text
    try:
        parts = urlsplit(text)
        port = parts.port
    except ValueError as exc:  # a non-numeric port or a bad IPv6 literal
        raise MalformedUrl(f"bad host in {raw!r}: {exc}") from None
    scheme = parts.scheme.lower()
    if scheme not in ("http", "https"):
        raise MalformedUrl(f"unsupported scheme in {raw!r}")
    if "@" in parts.netloc:
        raise MalformedUrl(f"userinfo in {raw!r}")
    if port is not None and port != {"http": 80, "https": 443}[scheme]:
        raise MalformedUrl(f"port {port} in {raw!r}")
    host = parts.hostname or ""
    if ":" in host:  # an IPv6 literal keeps its brackets
        host = f"[{host}]"
    if not host or any(c.isspace() for c in host):
        raise MalformedUrl(f"no host in {raw!r}")
    try:
        host = host.encode("idna").decode("ascii")
    except UnicodeError as exc:
        raise MalformedUrl(f"bad host in {raw!r}: {exc}") from None
    path, query = parts.path or "/", parts.query or None
    if not (text.isascii() and text.isprintable()) or " " in text:
        path = quote(path, safe=_URL_VERBATIM)
        query = query and quote(query, safe=_URL_VERBATIM)
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


def check_port(port: int, name: str = "port") -> None:
    """ValueError, naming `name`, unless `port` is an int in 1-65535."""
    if type(port) is not int or not 1 <= port <= 65535:
        raise ValueError(f"{name}: not a port number in 1-65535: {port!r}")


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
        check_port(self.port)
        if self.nxdomain_redirector is not None:
            ipaddress.ip_address(self.nxdomain_redirector)
            if self.nxdomain_redirector == self.address:
                raise ValueError("redirector must differ from resolver address")


def resolver_spec(entry: dict) -> ResolverSpec:
    """A ResolverSpec from a resolver entry of an input file."""
    entry = given_keys(entry, name=str, address=str, nxdomain_redirector=str | None, port=int)
    return ResolverSpec(**entry)


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
        check_port(self.port)


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
