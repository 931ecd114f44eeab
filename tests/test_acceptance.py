"""End-to-end acceptance gate: every criterion prints one pass/fail line."""

import json
import random
import socket
import struct
import time
from decimal import Decimal
from pathlib import Path

from censorprobe import dnswire, httpwire, report
from censorprobe.circumvent import cache_url, coralize, extract_cached_url
from censorprobe.classify import classify_target
from censorprobe.dataset import RemovalReason, clean_pipeline
from censorprobe.emulator import Generation, load_policy
from censorprobe.model import (
    InvalidDocument,
    Mechanism,
    PUBLIC_RESOLVERS,
    Verdict,
    parse_target,
)
from censorprobe.probe import run_campaign

from conftest import fingerprints_for, make_policy, probe_config_for, start_emulator

DATA_DIR = Path(__file__).parent / "data"


def _check(criterion: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# --- 1: ground-truth classification over randomized corpora ----------------


def _build_corpus(rng: random.Random, generation: Generation, size: int = 210):
    """Random rule assignment over `size` hosts plus the implied truth."""
    http_mechanism = {
        Generation.Isp302: Mechanism.Http302Redirect,
        Generation.Ixp200: Mechanism.Http200Injection,
    }.get(generation)
    dns_rules, host_rules, uri_rules = [], [], []
    targets, truth = [], {}
    for i in range(size):
        host = f"h{i:03}.test"
        roll = rng.random() if generation is not Generation.PassThrough else 1.0
        if roll < 0.25:
            dns_rules.append(host)
            host_rules.append(host)
            targets.append(parse_target(f"http://{host}/"))
            truth[host] = {Mechanism.DnsInjection, http_mechanism}
        elif roll < 0.45:
            host_rules.append(host)
            targets.append(parse_target(f"http://{host}/"))
            truth[host] = {http_mechanism}
        elif roll < 0.60:
            uri_rules.append((host, f"tok{i:03}"))
            targets.append(parse_target(f"http://{host}/video/tok{i:03}"))
            truth[host] = {http_mechanism}
        elif roll < 0.70:
            uri_rules.append((host, f"tok{i:03}"))
            targets.append(parse_target(f"http://{host}/video/other"))
            truth[host] = set()
        else:
            targets.append(parse_target(f"http://{host}/"))
            truth[host] = set()
    hosts = [t.host for t in targets] + ["www.google.com"]
    policy = make_policy(
        generation,
        dns_rules=tuple(dns_rules),
        http_host_rules=tuple(host_rules),
        http_host_uri_rules=tuple(uri_rules),
        live_hosts=tuple(hosts),
    )
    return policy, targets, truth


def test_ground_truth_classification_all_generations():
    rng = random.Random(20130419)
    for generation in (Generation.PassThrough, Generation.Isp302, Generation.Ixp200):
        policy, targets, truth = _build_corpus(rng, generation)
        started = time.monotonic()
        with start_emulator(policy) as emu:
            # generous timeouts: a loaded machine must not skew ground truth
            config = probe_config_for(emu, fast=False)
            config.retries = 2
            results = run_campaign(targets, config)
            fingerprints = fingerprints_for(policy)
            error_free = [r for r in results if not r.errors]
            mismatches = []
            for r in error_free:
                verdict = classify_target(r, fingerprints)
                expected = frozenset(truth[r.target.host])
                if verdict.mechanisms != expected:
                    mismatches.append(
                        f"{r.target.host}: expected {sorted(m.value for m in expected)}"
                        f" got {sorted(m.value for m in verdict.mechanisms)}"
                        f" evidence={verdict.evidence}"
                    )
        elapsed = time.monotonic() - started
        _check(
            f"ground-truth classification [{generation.value}]",
            len(targets) >= 200
            and len(error_free) == len(targets)
            and not mismatches
            and elapsed < 60,
            f"{len(targets)} targets, {len(mismatches)} mismatches, {elapsed:.1f}s"
            + ("; " + "; ".join(mismatches[:3]) if mismatches else ""),
        )


# --- 2: summary-table arithmetic vs the published percentages ---------------


def _verdicts(spec: list[tuple[int, Mechanism | None]]) -> list[Verdict]:
    out = []
    for count, mechanism in spec:
        for _ in range(count):
            out.append(
                Verdict(
                    target=parse_target(f"http://t{len(out):03}.test/"),
                    mechanisms=frozenset() if mechanism is None else frozenset({mechanism}),
                )
            )
    return out


def test_table_reproduction_within_tolerance():
    cases = [
        (
            "first-generation table",
            [(187, Mechanism.DnsInjection), (5, Mechanism.Http302Redirect), (115, None)],
            [
                (Mechanism.DnsInjection, "60.91"),
                (Mechanism.Http302Redirect, "1.62"),
            ],
            "62.53",
        ),
        (
            "second-generation table",
            [(179, Mechanism.DnsInjection), (5, Mechanism.Http200Injection), (123, None)],
            [
                (Mechanism.DnsInjection, "58.30"),
                (Mechanism.Http200Injection, "1.62"),
            ],
            "59.92",
        ),
    ]
    tolerance = Decimal("0.02")
    for name, shape, printed, printed_total in cases:
        run = report.aggregate(_verdicts(shape), total=307)
        deltas = [
            abs(run.percents[m] - Decimal(value)) for m, value in printed
        ] + [abs(run.blocked_percent - Decimal(printed_total))]
        _check(
            f"table reproduction [{name}]",
            all(d <= tolerance for d in deltas),
            f"max delta {max(deltas)}",
        )


# --- 3: per-resolver DNS answers, inspected on the wire ---------------------

EXPECTED_DNS = {
    "Norton": "198.153.192.3",
    "Comodo": "92.242.144.50",
    "OpenDNS": "67.215.65.132",
    "Google": None,  # NXDOMAIN
    "Level3": None,  # NXDOMAIN
}


def _raw_dns_exchange(endpoint, qname: str) -> bytes:
    request = dnswire.encode_query(0x4242, qname)
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.settimeout(3)
        sock.sendto(request, endpoint)
        data, _ = sock.recvfrom(4096)
    return data


def test_resolver_behavior_byte_level():
    policy = make_policy(
        Generation.Ixp200,
        dns_rules=("blocked.example",),
        http_host_rules=("blocked.example",),
    )
    with start_emulator(policy) as emu:
        for name, redirector in EXPECTED_DNS.items():
            data = _raw_dns_exchange(
                emu.dns_listeners[name].endpoint, "blocked.example"
            )
            txid, flags, qd, an, ns, ar = struct.unpack(">6H", data[:12])
            rcode = flags & 0x000F
            if redirector is None:
                ok = (
                    txid == 0x4242
                    and flags & 0x8000  # response bit
                    and rcode == dnswire.RCODE_NXDOMAIN
                    and an == 0
                )
                detail = f"rcode={rcode} answers={an}"
            else:
                # skip the echoed question: name, qtype, qclass
                offset = 12
                while data[offset] != 0:
                    offset += 1 + data[offset]
                offset += 1 + 4
                aname, atype, aclass, ttl, rdlength = struct.unpack(
                    ">HHHIH", data[offset : offset + 12]
                )
                rdata = data[offset + 12 : offset + 12 + rdlength]
                ok = (
                    txid == 0x4242
                    and flags & 0x8000
                    and rcode == dnswire.RCODE_NOERROR
                    and an == 1
                    and aname == 0xC00C  # compression pointer to the question
                    and atype == 1
                    and aclass == 1
                    and rdlength == 4
                    and rdata == socket.inet_aton(redirector)
                )
                detail = f"rdata={socket.inet_ntoa(rdata)}"
            _check(f"resolver behavior [{name}]", ok, detail)


# --- 4: session-shape reproduction against golden transcripts ---------------


def _record_redirect_session(emu):
    proxy_port = emu.proxy.endpoint[1]
    warning_port = emu.warning.endpoint[1]
    first = httpwire.fetch("127.0.0.1", "blocked.example", "/", port=proxy_port)
    assert first.status == 302 and first.location
    # follow the redirect the way a browser would: page, then favicon
    uri = first.location.split("10.16.6.41", 1)[1]
    page = httpwire.fetch("127.0.0.1", "10.16.6.41", uri, port=warning_port)
    favicon = httpwire.fetch("127.0.0.1", "10.16.6.41", "/favicon.ico", port=warning_port)
    return first, page, favicon


def test_redirect_generation_matches_golden_transcript(tmp_path):
    policy = make_policy(Generation.Isp302, http_host_rules=("blocked.example",))
    with start_emulator(policy) as emu:
        first, page, favicon = _record_redirect_session(emu)
        sessions = list(emu.recorder.sessions)
    location_host = (first.location or "").split("/")[2]
    shape_ok = (
        first.status == 302
        and location_host == "10.16.6.41"
        and "/redirect.php?n=127.0.0.1@Isb-Dhok-P2&s=124" in first.location
        and page.status == 200
        and policy.warning_body == page.body_excerpt
        and favicon.status == 404
    )
    out = tmp_path / "transcript.json"
    report.emit(sessions, str(out))
    golden = DATA_DIR / "golden_isp302_transcript.json"
    _check(
        "session shape [redirect generation]",
        shape_ok and out.read_bytes() == golden.read_bytes(),
        "302 -> warning 200 -> favicon 404, transcript matches golden",
    )


def test_injection_generation_session_shape():
    policy = make_policy(Generation.Ixp200, http_host_rules=("blocked.example",))
    with start_emulator(policy) as emu:
        obs = httpwire.fetch(
            "127.0.0.1", "blocked.example", "/", port=emu.proxy.endpoint[1]
        )
        untouched = all(host != "blocked.example" for host, _ in emu.origin.requests)
    _check(
        "session shape [injection generation]",
        obs.status == 200
        and untouched
        and obs.last_modified is not None
        and obs.last_modified.startswith("Fri, 19 Apr 2013"),
        f"status={obs.status} last_modified={obs.last_modified!r}",
    )


# --- 6: the DNS-blocked-implies-HTTP-blocked invariant -----------------------


def test_policy_invariant_fuzz_and_probe():
    rng = random.Random(307)
    pool = [f"f{i:02}.test" for i in range(40)]
    false_accepts = 0
    false_rejects = 0
    violating = 0
    for _ in range(1000):
        http_hosts = rng.sample(pool, rng.randrange(0, 10))
        uri_hosts = rng.sample(pool, rng.randrange(0, 5))
        dns = rng.sample(pool, rng.randrange(0, 8))
        doc = json.dumps(
            {
                "generation": rng.choice(["Isp302", "Ixp200"]),
                "dns_rules": dns,
                "http_host_rules": http_hosts,
                "http_host_uri_rules": [[h, "tok"] for h in uri_hosts],
            }
        )
        violates = bool(set(dns) - (set(http_hosts) | set(uri_hosts)))
        violating += violates
        try:
            load_policy(doc)
            accepted = True
        except InvalidDocument:
            accepted = False
        if violates and accepted:
            false_accepts += 1
        if not violates and not accepted:
            false_rejects += 1
    _check(
        "policy invariant fuzz",
        false_accepts == 0 and false_rejects == 0 and 100 < violating < 900,
        f"{violating} violating cases, {false_accepts} false accepts, "
        f"{false_rejects} false rejects",
    )

    # probe-level confirmation: every DNS-blocked target is also HTTP-blocked
    policy = make_policy(
        Generation.Ixp200,
        dns_rules=("d1.test", "d2.test"),
        http_host_rules=("d1.test", "d2.test"),
        live_hosts=("d1.test", "d2.test", "www.google.com"),
    )
    with start_emulator(policy) as emu:
        config = probe_config_for(emu)
        results = run_campaign(
            [parse_target("http://d1.test/"), parse_target("http://d2.test/")], config
        )
        fingerprints = fingerprints_for(policy)
        verdicts = [
            classify_target(r, fingerprints) for r in results
        ]
    implied = all(
        Mechanism.Http200Injection in v.mechanisms
        for v in verdicts
        if Mechanism.DnsInjection in v.mechanisms
    )
    dns_blocked = sum(1 for v in verdicts if Mechanism.DnsInjection in v.mechanisms)
    _check(
        "DNS-blocked implies HTTP-blocked (probed)",
        implied and dns_blocked == 2,
        f"{dns_blocked} DNS-blocked targets, all HTTP-blocked: {implied}",
    )


# --- 7: cleaning pipeline counts ---------------------------------------------


def test_cleaning_pipeline_counts():
    rng = random.Random(597)
    entries = [f"http://www.youtube.com/watch?v={i}" for i in range(36)]
    entries += [f"http://live{i:03}.test/" for i in range(306)]
    entries += [f"http://live{i:03}.test/" for i in range(133)]  # exact duplicates
    entries += [f"http://dead{i:03}.test/" for i in range(122)]
    rng.shuffle(entries)
    targets = [parse_target(e) for e in entries]
    sleeps: list[float] = []

    def clean_fetch(t):
        if t.host.startswith("dead"):
            raise OSError("connection failed")
        return 200

    cleaned, run = clean_pipeline(
        targets, {"youtube.com"}, clean_fetch, sleep=sleeps.append
    )
    reasons = [r for _, r in run.removed]
    ok = (
        (run.initial_count, run.after_collapse, run.after_dedupe, run.after_liveness)
        == (597, 562, 429, 307)
        and len(cleaned) == 307
        and reasons.count(RemovalReason.CollapsedIntoDomain) == 35
        and reasons.count(RemovalReason.Duplicate) == 133
        and reasons.count(RemovalReason.Offline) == 122
        and len(sleeps) == 122 * 2  # two backoffs per three-attempt dead host
    )
    _check(
        "cleaning pipeline",
        ok,
        f"{run.initial_count} -> {run.after_collapse} -> "
        f"{run.after_dedupe} -> {run.after_liveness}",
    )


# --- 8: transform, serialization, and aggregation properties -----------------


def _random_target(rng: random.Random):
    labels = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(8))
    host = f"{labels[:4]}.{labels[4:]}.test"
    path = "/" + "/".join(
        "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789-._") for _ in range(5))
        for _ in range(rng.randrange(0, 3))
    )
    query = None
    if rng.random() < 0.4:
        query = f"k{rng.randrange(100)}=v{rng.randrange(100)}"
    return parse_target(f"http://{host}{path}" + (f"?{query}" if query else ""))


def test_transform_and_aggregation_properties():
    rng = random.Random(4096)
    transform_failures = 0
    for _ in range(1000):
        target = _random_target(rng)
        out = coralize(target)
        reverted = out.render().replace(".nyud.net", "", 1)
        if reverted != target.render() or out.host != target.host + ".nyud.net":
            transform_failures += 1
        if extract_cached_url(cache_url(target)) != target.render():
            transform_failures += 1
    _check(
        "transform invertibility",
        transform_failures == 0,
        f"{transform_failures} failures over 1000 URLs",
    )

    samples = [
        _random_target(rng),
        PUBLIC_RESOLVERS[2],
        Verdict(
            target=_random_target(rng),
            mechanisms=frozenset({Mechanism.UrlKeyword, Mechanism.IpBlock}),
            evidence=("keyword", "tcp[0]"),
        ),
        report.aggregate(
            _verdicts([(3, Mechanism.DnsInjection), (2, None)]), total=5
        ),
        [_random_target(rng) for _ in range(3)],
    ]
    round_trip_ok = all(
        report.from_jsonable(json.loads(json.dumps(report.to_jsonable(s)))) == s
        for s in samples
    )
    _check("serialization round-trip", round_trip_ok)

    mechanisms = list(Mechanism) + [None, None]
    verdicts = _verdicts([(1, rng.choice(mechanisms)) for _ in range(60)])
    base = report.aggregate(verdicts, total=80)
    shuffled_ok = True
    for _ in range(100):
        rng.shuffle(verdicts)
        if report.aggregate(verdicts, total=80) != base:
            shuffled_ok = False
            break
    _check("aggregation permutation invariance", shuffled_ok)
