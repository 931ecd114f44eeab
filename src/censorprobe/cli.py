"""Command-line entry points: clean, probe, classify, emulate, circumvent,
report. Exit codes: 0 success, 1 usage error, 2 campaign-level failure."""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import circumvent, dataset, emulator, httpwire, probe, report
from .classify import FingerprintSet, Reference, classify_target
from .model import InvalidDocument, MalformedUrl, Verdict, check_port, given_keys
from .model import parse_target, read_document, resolver_spec, str_list, str_object

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAMPAIGN = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, not {text!r}")
    return int(text)


def _read(path: str, build):
    with open(path, encoding="utf-8") as fh:
        return read_document(fh, build)


def fingerprint_set(doc: dict) -> FingerprintSet:
    """A fingerprints file; a signal list it lacks is empty."""
    lists = given_keys(
        {"digests": [], "patterns": [], "last_modified": [], **doc},
        digests=lambda t: frozenset(str_list(t)),
        patterns=lambda t: tuple(p.encode("utf-8") for p in str_list(t)), last_modified=str_list,
    )
    return FingerprintSet(*lists.values())  # in field order


def load_fingerprints(path: str | None) -> FingerprintSet:
    return FingerprintSet() if path is None else _read(path, fingerprint_set)


def probe_config(doc: dict) -> probe.ProbeConfig:
    found = given_keys(
        doc, resolvers=lambda rs: list(map(resolver_spec, rs)), keyword_portal=parse_target,
        timeouts=lambda steps: given_keys(steps, dns=float, tcp=float, http=float),
        retries=int, workers=int, host_overrides=str_object, http_port=int,
    )
    timeouts = {f"{step}_timeout_ms": ms for step, ms in found.pop("timeouts", {}).items()}
    return probe.ProbeConfig(**found, **timeouts)


def references(doc: dict) -> dict[str, Reference]:
    """A reference file: {host: {"addresses", "body_digest"}}."""
    def reference(entry: dict) -> Reference:
        return Reference(**given_keys(entry, addresses=str_list, body_digest=str))

    return given_keys(doc, **dict.fromkeys(doc, reference))


def clean_config(doc: dict) -> dict:
    config = given_keys(
        doc, collapse_hosts=lambda hosts: set(str_list(hosts)), http_port=int,
        host_overrides=str_object, skip_liveness=bool,
    )
    check_port(config.get("http_port", 80), "http_port")
    return config


def circumvention_config(doc: dict) -> circumvent.CircumventionConfig:
    return circumvent.CircumventionConfig(**given_keys(
        doc, methods=lambda names: list(map(circumvent.Method, str_list(names))),
        host_ip_table=str_object, http_port=int, default_address=str | None,
        cache_templates=lambda t: {**circumvent.DEFAULT_CACHE_TEMPLATES, **str_object(t)},
    ))


def _stored_list(path: str, kind: type) -> list:
    """report.load, for a file that must hold a list of `kind`."""
    items = report.load(path)
    if type(items) is not list or any(type(x) is not kind for x in items):
        raise InvalidDocument(f"expected a stored list of {kind.__name__}", path=path)
    return items


def _targets(path: str) -> tuple[list, str]:
    """The targets of a target-list file, and a note on the lines it rejected
    ("" when none), for the command's summary line."""
    with open(path, "rb") as fh:
        targets, rejected = dataset.load_target_list(fh)
    return targets, f" ({len(rejected)} malformed lines skipped)" if rejected else ""


def cmd_clean(args) -> int:
    targets, skipped = _targets(args.targets)
    config = _read(args.config, clean_config) if args.config else {}
    http_port = config.get("http_port", 80)
    overrides = config.get("host_overrides", {})

    def clean_fetch(t):
        # fetch resolves a name itself; an IPv6 literal loses its URL brackets
        address = overrides.get(t.host, t.host.strip("[]"))
        return httpwire.fetch(address, t.host, t.request_uri(), port=http_port).status

    liveness = None if config.get("skip_liveness") else clean_fetch
    cleaned, clean_report = dataset.clean_pipeline(
        targets, config.get("collapse_hosts", set()), liveness
    )
    if not cleaned:  # the liveness pass failed every entry it was given
        print("error: no target answered the liveness check; the clean channel looks "
              "down, so no list or report is written", file=sys.stderr)
        return EXIT_CAMPAIGN
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for t in cleaned:
                fh.write(t.render() + "\n")
    report.emit(clean_report, (args.out or "cleaned") + ".report.json")
    print(
        f"{clean_report.initial_count} -> {clean_report.after_collapse} -> "
        f"{clean_report.after_dedupe} -> {clean_report.after_liveness}{skipped}"
    )
    return EXIT_OK


def cmd_probe(args) -> int:
    config = _read(args.config, probe_config)
    if args.workers is not None:
        config.workers = args.workers
    targets, skipped = _targets(args.targets)
    results = probe.run_campaign(targets, config)
    error_logged = sum(1 for r in results if r.errors)
    report.emit(results, args.out)
    print(f"{len(results)} targets probed, {error_logged} error-logged -> {args.out}{skipped}")
    return EXIT_OK


def cmd_classify(args) -> int:
    results = _stored_list(args.results, probe.TargetProbeResult)
    fingerprints = load_fingerprints(args.fingerprints)
    reference = _read(args.reference, references) if args.reference else None
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
    targets, skipped = _targets(args.targets)
    config = _read(args.config, circumvention_config)
    if not config.methods:
        print("error: no methods configured", file=sys.stderr)
        return EXIT_USAGE
    config.fingerprints = load_fingerprints(args.fingerprints)
    matrix = circumvent.evaluate_matrix(targets, config.methods, config)
    merged: dict[str, dict[str, str]] = {}
    for (url, method), outcome in matrix.items():
        merged.setdefault(url, {})[method.value] = outcome.value
    out = args.out or "circumvention.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=2)
        fh.write("\n")
    print(f"{len(targets)} targets x {len(config.methods)} methods -> {out}{skipped}")
    return EXIT_OK


def cmd_report(args) -> int:
    verdicts = _stored_list(args.verdicts, Verdict)
    total = args.total or len(verdicts)
    try:
        run_report = report.aggregate(verdicts, total=total)
    except ValueError as exc:  # EmptyCampaign, or a total below the verdict count
        print(f"error: {exc}", file=sys.stderr)
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
    p.add_argument(
        "--workers", type=_positive_int,
        help="targets in flight at once, all on one thread and one poll loop; each "
        "in-flight slot keeps one socket per resolver address (default: the config's)",
    )
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
    p.add_argument("--total", type=_positive_int)
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
    except (OSError, MalformedUrl, dataset.EmptyList, InvalidDocument) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAMPAIGN


if __name__ == "__main__":
    sys.exit(main())
