"""Circumvention transforms: CDN coralization, search-cache URLs, direct-IP
fetch with a crafted Host header, and the accessibility matrix over them."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from . import httpwire
from .classify import AmbiguousEvidence, FingerprintSet, classify_http
from .model import TargetUrl, check_port, parse_target

CORAL_SUFFIX = ".nyud.net"
FETCH_TIMEOUT = 10.0  # seconds for each of the matrix's fetches

CACHE_ENGINE = "GoogleCache"  # the one search cache that SearchCache fetches from
DEFAULT_CACHE_TEMPLATES = {
    # Provider URL schemes drift; this is a modern reconstruction and is
    # overridable via config.
    CACHE_ENGINE: "http://webcache.googleusercontent.com/search?q=cache:{URL}",
}


class Method(enum.Enum):
    WebDnsPlusHostHeader = "WebDnsPlusHostHeader"
    CoralCdn = "CoralCdn"
    SearchCache = "SearchCache"


class Outcome(enum.Enum):
    Accessible = "Accessible"
    Blocked = "Blocked"
    Inconclusive = "Inconclusive"


def coralize(target: TargetUrl) -> TargetUrl:
    """Append the CDN suffix to the hostname; everything else unchanged."""
    return replace(target, host=target.host + CORAL_SUFFIX)


def cache_url(target: TargetUrl, templates: dict[str, str] | None = None) -> TargetUrl:
    """Instantiate the cache-lookup template with the rendered URL."""
    template = (templates or DEFAULT_CACHE_TEMPLATES)[CACHE_ENGINE]
    return parse_target(template.replace("{URL}", target.render()))


def extract_cached_url(url: TargetUrl, templates: dict[str, str] | None = None) -> str:
    """Recover the embedded original URL from a cache-lookup URL."""
    template = (templates or DEFAULT_CACHE_TEMPLATES)[CACHE_ENGINE]
    prefix, _, suffix = template.partition("{URL}")
    rendered = url.render()
    if not rendered.startswith(prefix) or not rendered.endswith(suffix):
        raise ValueError(f"{rendered!r} does not match the {CACHE_ENGINE} template")
    return rendered[len(prefix) : len(rendered) - len(suffix)]


@dataclass
class CircumventionConfig:
    methods: list[Method] = field(default_factory=list)
    host_ip_table: dict[str, str] = field(default_factory=dict)
    cache_templates: dict[str, str] = field(
        default_factory=lambda: dict(DEFAULT_CACHE_TEMPLATES)
    )
    fingerprints: FingerprintSet = field(default_factory=FingerprintSet)
    http_port: int = 80
    default_address: str | None = None  # fallback when a host is not in the table

    def __post_init__(self):
        check_port(self.http_port, "http_port")
        for name, template in self.cache_templates.items():
            if name not in DEFAULT_CACHE_TEMPLATES:
                raise ValueError(f"cache_templates: {name!r} is not a cache engine")
            if "{URL}" not in template:
                raise ValueError(f"cache_templates: {name}: {template!r} holds no {{URL}}")


def _method_request(
    target: TargetUrl, method: Method, config: CircumventionConfig
) -> tuple[str, str]:
    """(host, uri) the method fetches."""
    if method is Method.WebDnsPlusHostHeader:
        return target.host, target.request_uri()
    if method is Method.CoralCdn:
        t = coralize(target)
        return t.host, t.request_uri()
    t = cache_url(target, config.cache_templates)
    return t.host, t.request_uri()


def evaluate_matrix(
    targets: list[TargetUrl],
    methods: list[Method],
    config: CircumventionConfig,
) -> dict[tuple[str, Method], Outcome]:
    """The outcome per (rendered target, method), in target then method
    order: Accessible iff one GET with the method's crafted Host to that
    host's address looks clean, Inconclusive when the host has no address
    or the fetch fails."""
    outcomes: dict[tuple[str, Method], Outcome] = {}
    for target in targets:
        for method in methods:
            key = target.render(), method
            outcomes[key] = Outcome.Inconclusive
            host, uri = _method_request(target, method, config)
            address = config.host_ip_table.get(host, config.default_address)
            if address is None:
                continue
            try:
                obs = httpwire.fetch(
                    address, host, uri, port=config.http_port, timeout=FETCH_TIMEOUT
                )
            except httpwire.HttpTransportError:
                continue
            try:
                mechanism = classify_http(obs, config.fingerprints)
            except AmbiguousEvidence:
                # Here the censor's warning fingerprints are known in full,
                # so a 200 that matches none of them is the real content.
                mechanism = None
            outcomes[key] = Outcome.Blocked if mechanism is not None else Outcome.Accessible
    return outcomes
