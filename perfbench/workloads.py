"""Seeded policies, target lists and policy-implied ground truth.

The program only ever sees the generated inputs: a policy JSON document
(read with ``emulator.load_policy``), a target list (read with
``dataset.load_target_list``) and the origin sites. The expected verdict of
each target is derived here from the policy document by ``Oracle``, an
independent restatement of the emulator's matching rules, so a change to
``CensorPolicy`` cannot move the truth it is checked against.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import string
from dataclasses import dataclass

import common  # noqa: F401  (package source on sys.path)
from censorprobe.classify import FingerprintSet
from censorprobe.emulator import DEFAULT_LAST_MODIFIED, DEFAULT_WARNING_BODY, Generation
from censorprobe.model import PUBLIC_RESOLVERS, Mechanism, ResolverSpec, parse_target

PORTAL_HOST = "www.google.com"
LOOPBACK = "127.0.0.1"
# a resolver without a redirector first, then the five public identities:
# six UDP queries per target
RESOLVERS = (ResolverSpec("Local", "192.0.2.53"), *PUBLIC_RESOLVERS)

HTTP_MECHANISM = {
    Generation.Isp302: Mechanism.Http302Redirect,
    Generation.Ixp200: Mechanism.Http200Injection,
}

FINGERPRINTS = FingerprintSet(
    warning_page_digests=frozenset({hashlib.sha256(DEFAULT_WARNING_BODY).hexdigest()}),
    warning_excerpt_patterns=(b"not accessible",),
    injected_last_modified=(DEFAULT_LAST_MODIFIED, "Fri, 19 Apr 2013"),
)

# the acceptance-test mix: DNS+host rule, host rule, URI hit, URI miss, clean
CAMPAIGN_MIX = (
    ("dns+host", 0.25),
    ("host", 0.20),
    ("uri-hit", 0.15),
    ("uri-miss", 0.10),
    ("clean", 0.30),
)

# blocklist-10k: shares of the listed names, and of the probed targets
BLOCKLIST_NAMES = (("exact", 0.6), ("wildcard", 0.2), ("uri", 0.2))
BLOCKLIST_DNS_SHARE = 0.1  # of exact and wildcard names, DNS-listed too
BLOCKLIST_TARGETS = (
    ("exact+dns", 0.10),
    ("exact", 0.10),
    ("wildcard+dns", 0.05),
    ("wildcard", 0.10),
    ("uri-hit", 0.15),
    ("uri-miss", 0.10),
    ("unlisted", 0.40),
)


@dataclass
class Corpus:
    generation: Generation
    policy_json: str
    target_list: str  # one URL per line
    sites: list[str]  # hosts the origin stub serves
    dns_blocked: list[str]  # target hosts probed through an override address


def origin_body(host: str) -> bytes:
    return b"<html><body>origin content for %s</body></html>" % host.encode()


def _word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(length))


def _counts(mix, total: int) -> list[str]:
    kinds = [kind for kind, share in mix for _ in range(round(share * total))]
    return (kinds + [mix[-1][0]] * total)[:total]


def _corpus(
    generation: Generation,
    dns_rules: list[str],
    host_rules: list[str],
    uri_rules: list[tuple[str, str]],
    urls: list[str],
    dns_blocked: list[str],
    interception: bool = False,
) -> Corpus:
    hosts = [parse_target(u).host for u in urls]
    doc = {
        "generation": generation.value,
        "dns_rules": dns_rules,
        "http_host_rules": host_rules,
        "http_host_uri_rules": [list(pair) for pair in uri_rules],
        "resolver_map": [
            {"name": r.name, "address": r.address, "nxdomain_redirector": r.nxdomain_redirector}
            for r in RESOLVERS
        ],
        "zone": {h: [LOOPBACK] for h in [*hosts, PORTAL_HOST]},
        "keyword_portal_interception": interception,
    }
    return Corpus(
        generation=generation,
        policy_json=json.dumps(doc),
        target_list="".join(u + "\n" for u in urls),
        sites=hosts,
        dns_blocked=dns_blocked,
    )


def campaign_corpus(seed: int, generation: Generation, hosts: int = 200) -> Corpus:
    """The acceptance-test mix over `hosts` distinct hosts, in exact shares."""
    rng = random.Random(seed)
    kinds = _counts(CAMPAIGN_MIX, hosts)
    rng.shuffle(kinds)
    dns_rules, host_rules, uri_rules, urls = [], [], [], []
    for i, kind in enumerate(kinds):
        host = f"{_word(rng, 8)}{i:04}.test"
        path = "/"
        if kind == "dns+host":
            dns_rules.append(host)
            host_rules.append(host)
        elif kind == "host":
            host_rules.append(host)
        elif kind in ("uri-hit", "uri-miss"):
            needle = "tok" + _word(rng, 6)
            uri_rules.append((host, needle))
            path = f"/video/{needle}" if kind == "uri-hit" else "/video/other"
        urls.append(f"http://{host}{path}")
    return _corpus(generation, dns_rules, host_rules, uri_rules, urls, list(dns_rules))


def blocklist_corpus(
    seed: int, names: int = 10_000, targets: int = 200, block: int = 40
) -> Corpus:
    """An Isp302 policy listing `names` names, with keyword interception on.

    Exact hosts, ``*.`` wildcards and host+URI pairs, a tenth of the exact
    and wildcard names DNS-listed too; the probed targets mix listed and
    unlisted hosts, in the same shares in every run of `block` targets of
    the list. Rule order is shuffled, so a listed target sits at a random
    depth of every linear scan.
    """
    rng = random.Random(seed)
    seen: set[str] = set()

    def fresh() -> str:
        while True:
            name = _word(rng, 10) + ".test"
            if name not in seen:
                seen.add(name)
                return name

    pool = {kind: [fresh() for _ in range(round(share * names))] for kind, share in BLOCKLIST_NAMES}
    exact, wild, uri_hosts = pool["exact"], pool["wildcard"], pool["uri"]
    needles = {h: "tok" + _word(rng, 6) for h in uri_hosts}
    n_dns_exact = round(BLOCKLIST_DNS_SHARE * len(exact))
    n_dns_wild = round(BLOCKLIST_DNS_SHARE * len(wild))
    # listed names are drawn without replacement from the front of each part
    picks = {
        "exact+dns": iter(exact[:n_dns_exact]),
        "exact": iter(exact[n_dns_exact:]),
        "wildcard+dns": iter(wild[:n_dns_wild]),
        "wildcard": iter(wild[n_dns_wild:]),
        "uri-hit": iter(uri_hosts),
        "uri-miss": iter(uri_hosts[len(uri_hosts) // 2 :]),
    }
    kinds = []
    for start in range(0, targets, block):
        part = _counts(BLOCKLIST_TARGETS, min(block, targets - start))
        rng.shuffle(part)
        kinds += part
    urls, dns_blocked = [], []
    for kind in kinds:
        if kind == "unlisted":
            urls.append(f"http://{fresh()}/")
            continue
        name = next(picks[kind])
        if kind.startswith("wildcard"):
            host, path = f"www.{name}", "/"
        elif kind == "uri-hit":
            host, path = name, f"/video/{needles[name]}"
        elif kind == "uri-miss":
            host, path = name, "/video/other"
        else:
            host, path = name, "/"
        if kind.endswith("+dns"):
            dns_blocked.append(host)
        urls.append(f"http://{host}{path}")
    host_rules = exact + [f"*.{w}" for w in wild]
    dns_rules = exact[:n_dns_exact] + [f"*.{w}" for w in wild[:n_dns_wild]]
    uri_rules = [(h, needles[h]) for h in uri_hosts]
    for rules in (host_rules, dns_rules, uri_rules):
        rng.shuffle(rules)
    return _corpus(
        Generation.Isp302, dns_rules, host_rules, uri_rules, urls, dns_blocked,
        interception=True,
    )


class _Patterns:
    """Exact names plus ``*.base`` wildcards matching strict subdomains."""

    def __init__(self, patterns):
        self.patterns = set(patterns)

    def matching(self, host: str) -> list[str]:
        found = [host] if host in self.patterns else []
        labels = host.split(".")
        for i in range(1, len(labels)):
            wildcard = "*." + ".".join(labels[i:])
            if wildcard in self.patterns:
                found.append(wildcard)
        return found


class Oracle:
    """Expected mechanisms of each target, from the policy document alone."""

    def __init__(self, corpus: Corpus):
        doc = json.loads(corpus.policy_json)
        self.generation = Generation(doc["generation"])
        self.dns = _Patterns(doc["dns_rules"])
        self.hosts = _Patterns(doc["http_host_rules"])
        self.needles: dict[str, list[str]] = {}
        for pattern, needle in doc["http_host_uri_rules"]:
            self.needles.setdefault(pattern, []).append(needle)
        self.uri_patterns = _Patterns(self.needles)
        self.keywords: set[str] = set()
        if doc["keyword_portal_interception"]:
            listed = [*doc["http_host_rules"], *self.needles]
            self.keywords = {p[2:] if p.startswith("*.") else p for p in listed}
        self.keyword_lengths = sorted({len(k) for k in self.keywords})
        self.redirecting = any(r["nxdomain_redirector"] for r in doc["resolver_map"])

    def _censored(self, host: str, uri: str) -> bool:
        for pattern in self.uri_patterns.matching(host):
            if any(needle in uri for needle in self.needles[pattern]):
                return True
        if self.hosts.matching(host):
            return True
        return any(
            uri[i : i + n] in self.keywords
            for n in self.keyword_lengths
            for i in range(len(uri) - n + 1)
        )

    def expected(self, url: str) -> frozenset[Mechanism]:
        target = parse_target(url)
        if self.generation is Generation.PassThrough:
            return frozenset()
        out = set()
        if self.redirecting and self.dns.matching(target.host):
            out.add(Mechanism.DnsInjection)
        if self._censored(PORTAL_HOST, "/" + target.render()):
            out.add(Mechanism.UrlKeyword)
        if self._censored(target.host, target.request_uri()):
            out.add(HTTP_MECHANISM[self.generation])
        return frozenset(out)

    def truth(self, corpus: Corpus) -> dict[str, frozenset[Mechanism]]:
        """Expected mechanisms keyed by target host (hosts are distinct)."""
        return {
            parse_target(u).host: self.expected(u) for u in corpus.target_list.splitlines()
        }


def replicate(results: list, copies: int) -> tuple[list, dict[str, str]]:
    """`copies` renamed copies of each probe result, with distinct hosts.

    Returns the copies and, for each new host, the host it was copied from,
    so each copy inherits the ground truth of its source.
    """
    out, source = [], {}
    for k in range(copies):
        for r in results:
            old = r.target.host
            new = f"r{k:03}-{old}"
            target = parse_target(r.target.render().replace(old, new, 1))
            keyword = r.keyword and dataclasses.replace(
                r.keyword, request_uri="/" + target.render()
            )
            http = r.http and dataclasses.replace(r.http, request_host=new)
            dns = tuple(dataclasses.replace(o, qname=new) for o in r.dns)
            out.append(dataclasses.replace(r, target=target, dns=dns, keyword=keyword, http=http))
            source[new] = old
    return out, source
