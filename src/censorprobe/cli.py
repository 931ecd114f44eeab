"""Command-line entry points: clean, probe, classify, emulate, circumvent,
report. Exit codes: 0 success, 1 usage error, 2 campaign-level failure."""

from __future__ import annotations

import argparse
import json
import socket
import sys
import time

from . import circumvent, dataset, emulator, httpwire, probe, report
from .classify import FingerprintSet, Reference, classify_target
from .model import MalformedUrl, ResolverSpec, parse_target

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAMPAIGN = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def load_fingerprints(path: str | None) -> FingerprintSet:
    if path is None:
        return FingerprintSet()
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return FingerprintSet(
        warning_page_digests=frozenset(doc.get("digests", [])),
        warning_excerpt_patterns=tuple(
            p.encode("utf-8") for p in doc.get("patterns", [])
        ),
        injected_last_modified=tuple(doc.get("last_modified", [])),
    )


def load_probe_config(path: str, workers: int | None = None) -> probe.ProbeConfig:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    resolvers = [
        ResolverSpec(
            name=r["name"],
            address=r["address"],
            nxdomain_redirector=r.get("nxdomain_redirector"),
            port=r.get("port", 53),
        )
        for r in doc["resolvers"]
    ]
    timeouts = doc.get("timeouts", {})
    return probe.ProbeConfig(
        resolvers=resolvers,
        keyword_portal=parse_target(doc.get("keyword_portal", "http://www.google.com")),
        dns_timeout_ms=timeouts.get("dns", 5000),
        tcp_timeout_ms=timeouts.get("tcp", 5000),
        http_timeout_ms=timeouts.get("http", 10000),
        retries=doc.get("retries", 2),
        workers=workers or doc.get("workers", 8),
        host_overrides=dict(doc.get("host_overrides", {})),
        http_port=doc.get("http_port", 80),
    )


def cmd_clean(args) -> int:
    with open(args.targets, "rb") as fh:
        targets, rejected = dataset.load_target_list(fh)
    collapse_hosts: set[str] = set()
    http_port = 80
    overrides: dict[str, str] = {}
    skip_liveness = False
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            doc = json.load(fh)
        collapse_hosts = set(doc.get("collapse_hosts", []))
        http_port = doc.get("http_port", 80)
        overrides = dict(doc.get("host_overrides", {}))
        skip_liveness = bool(doc.get("skip_liveness", False))

    def clean_fetch(t):
        address = overrides.get(t.host)
        if address is None:
            address = socket.gethostbyname(t.host)
        return httpwire.fetch(address, t.host, t.request_uri(), port=http_port).status

    cleaned, clean_report = dataset.clean_pipeline(
        targets, collapse_hosts, None if skip_liveness else clean_fetch
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for t in cleaned:
                fh.write(t.render() + "\n")
    report.emit(clean_report, (args.out or "cleaned") + ".report.json")
    print(
        f"{clean_report.initial_count} -> {clean_report.after_collapse} -> "
        f"{clean_report.after_dedupe} -> {clean_report.after_liveness}"
        + (f" ({len(rejected)} malformed lines skipped)" if rejected else "")
    )
    return EXIT_OK


def cmd_probe(args) -> int:
    config = load_probe_config(args.config, workers=args.workers)
    with open(args.targets, "rb") as fh:
        targets, _ = dataset.load_target_list(fh)
    results = probe.run_campaign(targets, config)
    error_logged = sum(1 for r in results if r.errors)
    report.emit(results, args.out)
    print(f"{len(results)} targets probed, {error_logged} error-logged -> {args.out}")
    return EXIT_OK


def cmd_classify(args) -> int:
    results = report.load(args.results)
    fingerprints = load_fingerprints(args.fingerprints)
    reference = None
    if args.reference:
        with open(args.reference, encoding="utf-8") as fh:
            doc = json.load(fh)
        reference = {
            host: Reference(
                addresses=tuple(entry.get("addresses", [])),
                body_digest=entry.get("body_digest"),
            )
            for host, entry in doc.items()
        }
    verdicts = []
    error_logged = 0
    for result in results:
        if result.errors:
            error_logged += 1
            continue
        ref = reference.get(result.target.host) if reference else None
        verdicts.append(classify_target(result, fingerprints, ref))
    if args.out:
        report.emit(verdicts, args.out)
    try:
        run_report = report.aggregate(
            verdicts, total=len(verdicts), error_logged=error_logged
        )
    except report.EmptyCampaign:
        print("error: no classifiable results", file=sys.stderr)
        return EXIT_CAMPAIGN
    print(report.render_table(run_report), end="")
    return EXIT_OK


def cmd_emulate(args) -> int:
    with open(args.policy, encoding="utf-8") as fh:
        policy = emulator.load_policy(fh)
    emu = emulator.Emulator(policy)
    emu.start()
    print(f"origin stub:   {emu.origin.endpoint[0]}:{emu.origin.endpoint[1]}")
    print(f"censor proxy:  {emu.proxy.endpoint[0]}:{emu.proxy.endpoint[1]}")
    print(f"warning site:  {emu.warning.endpoint[0]}:{emu.warning.endpoint[1]}")
    for spec in emu.resolver_endpoints():
        print(f"resolver {spec.name}: {spec.address}:{spec.port}")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        emu.stop()
    return EXIT_OK


def cmd_circumvent(args) -> int:
    with open(args.targets, "rb") as fh:
        targets, _ = dataset.load_target_list(fh)
    with open(args.config, encoding="utf-8") as fh:
        doc = json.load(fh)
    methods = [circumvent.Method(m) for m in doc.get("methods", [])]
    if not methods:
        print("error: no methods configured", file=sys.stderr)
        return EXIT_USAGE
    config = circumvent.CircumventionConfig(
        methods=methods,
        host_ip_table=dict(doc.get("host_ip_table", {})),
        cache_templates={
            **circumvent.DEFAULT_CACHE_TEMPLATES,
            **doc.get("cache_templates", {}),
        },
        fingerprints=load_fingerprints(args.fingerprints),
        http_port=doc.get("http_port", 80),
        default_address=doc.get("default_address"),
    )
    matrix = circumvent.evaluate_matrix(targets, methods, config)
    merged: dict[str, dict[str, str]] = {}
    for (url, method), outcome in matrix.outcomes.items():
        merged.setdefault(url, {})[method.value] = outcome.value
    out = args.out or "circumvention.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=2)
        fh.write("\n")
    print(f"{len(targets)} targets x {len(methods)} methods -> {out}")
    return EXIT_OK


def cmd_report(args) -> int:
    verdicts = report.load(args.verdicts)
    total = args.total or len(verdicts)
    try:
        run_report = report.aggregate(verdicts, total=total)
    except report.EmptyCampaign:
        print("error: empty campaign", file=sys.stderr)
        return EXIT_CAMPAIGN
    print(report.render_table(run_report), end="")
    if args.out:
        report.emit(run_report, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="censorprobe")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("clean", help="run the target-list cleaning pipeline")
    p.add_argument("--targets", required=True)
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_clean)

    p = sub.add_parser("probe", help="run one measurement pass")
    p.add_argument("--targets", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("classify", help="turn probe results into verdicts")
    p.add_argument("--results", required=True)
    p.add_argument("--fingerprints")
    p.add_argument("--reference")
    p.add_argument("--out")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("emulate", help="run the censor emulator listeners")
    p.add_argument("--policy", required=True)
    p.set_defaults(func=cmd_emulate)

    p = sub.add_parser("circumvent", help="evaluate circumvention methods")
    p.add_argument("--targets", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--fingerprints")
    p.add_argument("--out")
    p.set_defaults(func=cmd_circumvent)

    p = sub.add_parser("report", help="render the summary table")
    p.add_argument("--verdicts", required=True)
    p.add_argument("--total", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (
        OSError,
        MalformedUrl,
        dataset.EmptyList,
        emulator.PolicyInvalid,
        report.FormatError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAMPAIGN


if __name__ == "__main__":
    sys.exit(main())
