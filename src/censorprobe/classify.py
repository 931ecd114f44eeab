"""Turns observations into mechanism verdicts."""

from __future__ import annotations

from dataclasses import dataclass
from urllib.parse import urlsplit

from .model import (
    DnsObservation,
    DnsOutcome,
    HttpObservation,
    Mechanism,
    TcpResult,
    Verdict,
    is_private_ip,
)
from .probe import TargetProbeResult, genuine_addresses

DEFAULT_INJECTED_LAST_MODIFIED = "Fri, 19 Apr 2013"


class AmbiguousEvidence(Exception):
    """200 response with no fingerprint match and no reference digest."""


@dataclass(frozen=True)
class FingerprintSet:
    warning_page_digests: frozenset[str] = frozenset()
    warning_excerpt_patterns: tuple[bytes, ...] = ()
    injected_last_modified: tuple[str, ...] = (DEFAULT_INJECTED_LAST_MODIFIED,)

    def __post_init__(self):
        if not (
            self.warning_page_digests
            or self.warning_excerpt_patterns
            or self.injected_last_modified
        ):
            raise ValueError("at least one detection signal is required")

    def matches_body(self, digest: str, excerpt: bytes) -> bool:
        if digest in self.warning_page_digests:
            return True
        return any(p in excerpt for p in self.warning_excerpt_patterns)

    def matches_last_modified(self, value: str | None) -> bool:
        if value is None:
            return False
        return any(v in value for v in self.injected_last_modified)


@dataclass(frozen=True)
class Reference:
    """Clean-channel ground truth for one target: true addresses and body digest."""

    addresses: tuple[str, ...] = ()
    body_digest: str | None = None


def classify_dns(
    obs: DnsObservation,
    reference: list[str] | tuple[str, ...] | None = None,
) -> Mechanism | None:
    """DnsInjection on redirector answers or anomalous NXDOMAIN. The
    redirector is the one on the observation's own resolver."""
    redirector = obs.resolver.nxdomain_redirector
    if obs.outcome is DnsOutcome.Answers:
        if redirector and redirector in obs.answers:
            return Mechanism.DnsInjection
        return None
    if obs.outcome is DnsOutcome.NxDomain:
        if reference:
            # the name resolves over the clean channel; NXDOMAIN is forged
            return Mechanism.DnsInjection
        if redirector:
            # this resolver rewrites NXDOMAIN; a raw one means tampering upstream
            return Mechanism.DnsInjection
    return None


def classify_http(
    obs: HttpObservation,
    fingerprints: FingerprintSet,
    reference_digest: str | None = None,
) -> Mechanism | None:
    """Detect 302 redirection to a warning host or an injected fake 200.

    Legitimate redirects (public-host Location without a fingerprint match)
    return None. Raises AmbiguousEvidence when a 200 cannot be judged.
    """
    if obs.status == 302 and obs.location:
        loc_host = urlsplit(obs.location).hostname or ""
        if is_private_ip(loc_host):
            return Mechanism.Http302Redirect
        if any(
            p in obs.location.encode("latin-1", "replace")
            for p in fingerprints.warning_excerpt_patterns
        ):
            return Mechanism.Http302Redirect
        return None
    if obs.status == 200:
        if fingerprints.matches_body(obs.body_digest, obs.body_excerpt):
            return Mechanism.Http200Injection
        if fingerprints.matches_last_modified(obs.last_modified):
            return Mechanism.Http200Injection
        if reference_digest is not None:
            if reference_digest != obs.body_digest:
                return Mechanism.Http200Injection
            return None
        raise AmbiguousEvidence(
            f"200 from {obs.request_host} with no fingerprint or reference digest"
        )
    return None


def classify_target(
    result: TargetProbeResult,
    fingerprints: FingerprintSet,
    reference: Reference | None = None,
) -> Verdict:
    """Union of per-observation classifications plus IP and keyword checks."""
    if result.errors:
        raise ValueError("results with error-log entries are not classifiable")
    mechanisms: set[Mechanism] = set()
    evidence: list[str] = []
    inconclusive = False
    ref_addresses = reference.addresses if reference else None
    ref_digest = reference.body_digest if reference else None

    for i, obs in enumerate(result.dns):
        if classify_dns(obs, ref_addresses) is not None:
            mechanisms.add(Mechanism.DnsInjection)
            evidence.append(f"dns[{i}]")

    genuine = genuine_addresses(result.dns)
    if genuine and result.tcp and all(
        t.result is not TcpResult.Connected for t in result.tcp
    ):
        mechanisms.add(Mechanism.IpBlock)
        evidence.extend(f"tcp[{i}]" for i in range(len(result.tcp)))

    if result.keyword is not None and result.keyword.status != 404:
        mechanisms.add(Mechanism.UrlKeyword)
        evidence.append("keyword")

    if result.http is not None:
        try:
            http_mech = classify_http(result.http, fingerprints, ref_digest)
        except AmbiguousEvidence:
            http_mech = None
            inconclusive = True
        if http_mech is not None:
            mechanisms.add(http_mech)
            evidence.append("http")

    return Verdict(
        target=result.target,
        mechanisms=frozenset(mechanisms),
        evidence=tuple(evidence),
        inconclusive=inconclusive,
    )
