"""censorprobe benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The package is imported from ``src/`` of
that checkout and driven only through its public functions. Every workload
is a closed loop from this process over a corpus generated from ``--seed``;
each pass over the corpus is timed on its own, and the rates reported are
medians over the passes of a run. Every verdict is checked against the policy-implied
truth. All traffic crosses loopback only.

With ``--trace 0`` the last line of standard output is the JSON result with
the end-to-end metrics; with ``--trace 1`` passes alternate between untraced
and traced, and the result holds the per-layer metrics. Each run appends a
record (machine, load average, seed, passes, result) to
``.perfbench_out/runs.jsonl`` and, when traced, writes its spans to
``.perfbench_out/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import common
import spans
import workloads
from censorprobe import classify, dataset, dnswire, httpwire, probe, report
from censorprobe.emulator import Generation
from censorprobe.model import Mechanism, parse_target
from emuproc import EmulatorProcess, InProcessEmulator

# Set-up is repeated, at least SETUP_MIN_REPEATS times and until
# SETUP_MIN_SECONDS have gone (at most SETUP_MAX_REPEATS times), and its
# median reported, so a one-off stall does not read as a regression.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_MIN_SECONDS = 2.0

END_TO_END = {
    "targets_per_s": "1/s",
    "cpu_ms_per_target": "ms",
    "ok_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "probe.run_target.p50_ms": "ms",
    "probe.run_target.p99_ms": "ms",
    "probe.dns_step.p50_ms": "ms",
    "probe.tcp_step.p50_ms": "ms",
    "probe.keyword_step.p50_ms": "ms",
    "probe.http_step.p50_ms": "ms",
    "probe.dns_step.p99_ms": "ms",
    "probe.http_step.p99_ms": "ms",
    "probe.error_log_entries": "count",
    "probe.self_ms_per_target": "ms",
    "dnswire.query.per_target": "count",
    "dnswire.query.p50_ms": "ms",
    "dnswire.query.p99_ms": "ms",
    "dnswire.retries": "count",
    "dnswire.rtt_p50_ms": "ms",
    "dnswire.decode_message.probe.p50_us": "us",
    "dnswire.decode_message.emulator.p50_us": "us",
    "dnswire.self_ms_per_target": "ms",
    "httpwire.fetch.per_target": "count",
    "httpwire.fetch.p50_ms": "ms",
    "httpwire.fetch.p99_ms": "ms",
    "httpwire.transport_errors": "count",
    "httpwire.self_ms_per_target": "ms",
    "emulator.requests_per_target": "count",
    "emulator.req_per_s": "1/s",
    "emulator.dns.requests": "count",
    "emulator.proxy.requests": "count",
    "emulator.warning.requests": "count",
    "emulator.origin.requests": "count",
    "emulator.forwarded_share": "share",
    "emulator.threads_peak": "count",
    "emulator.cpu_share": "share",
    "emulator.transcript_sessions": "count",
    "emulator.handle_dns.p50_us": "us",
    "emulator.matched_rule.p50_us": "us",
    "emulator.matched_rule.p99_us": "us",
    "emulator.dns_blocked.p50_us": "us",
    "emulator.self_ms_per_target": "ms",
    "classify.classify_target.p50_us": "us",
    "classify.classify_target.p99_us": "us",
    "report.emit.us_per_target": "us",
    "report.load.us_per_target": "us",
    "report.aggregate.ms": "ms",
    "report.bytes_per_target": "bytes",
    "dataset.load_target_list.us_per_target": "us",
    "trace.overhead_share": "share",
}


@dataclass
class Pass:
    """One timed pass over the corpus."""

    kind: str  # "probe": probe+classify+report; "offline": load+classify+emit
    traced: bool
    targets: int
    failed: int
    wall_s: float
    cpu_s: float  # benchmark process plus emulator child
    emulator_cpu_s: float
    error_log_entries: int = 0
    rtt_ms: list[float] = field(default_factory=list)
    hosts: list[str] = field(default_factory=list)  # probed target hosts
    requests: Counter = field(default_factory=Counter)  # emulator request deltas

    @property
    def rate(self) -> float:
        return self.targets / self.wall_s


class Checker:
    """Compares verdicts and the aggregated report with the ground truth."""

    def __init__(self, truth: dict):
        self.truth = truth
        self.problems: list[str] = []

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def judge(self, results: list, expected: int):
        """Classify, aggregate and render; returns (verdicts, run report, failed)."""
        if len(results) != expected:
            self.problem(f"{len(results)} results for {expected} targets")
        verdicts, error_logged, wrong = [], 0, 0
        for result in results:
            if result.errors:
                error_logged += 1
                continue
            # no known resolvers: each observation's own ResolverSpec decides
            verdict = classify.classify_target(result, workloads.FINGERPRINTS, [])
            want = self.truth[result.target.host]
            if verdict.mechanisms != want:
                wrong += 1
                self.problem(
                    f"{result.target.host}: expected {sorted(m.value for m in want)} "
                    f"got {sorted(m.value for m in verdict.mechanisms)} {verdict.evidence}"
                )
            verdicts.append(verdict)
        run = report.aggregate(verdicts, total=len(results), error_logged=error_logged)
        table = report.render_table(run)
        counts = Counter(m for v in verdicts for m in self.truth[v.target.host])
        blocked = sum(1 for v in verdicts if self.truth[v.target.host])
        if any(run.counts[m] != counts[m] for m in run.counts) or run.blocked_total != blocked:
            self.problem(f"aggregate disagrees with truth: {run.counts}")
        if not any(line.split()[:2] == ["Total", str(blocked)] for line in table.splitlines()):
            self.problem("rendered table has no matching Total row")
        return verdicts, run, error_logged + wrong + max(0, expected - len(results))


def wait_ready(emu, deadline_s: float = 30.0) -> None:
    """Return once every DNS and HTTP listener has answered a request."""
    deadline = time.monotonic() + deadline_s
    checks = [
        lambda r=r: dnswire.query((r.address, r.port), workloads.PORTAL_HOST, timeout=0.5)
        for r in emu.resolvers
    ] + [
        lambda ep=ep: httpwire.fetch(ep[0], workloads.PORTAL_HOST, "/", port=ep[1], timeout=1.0)
        for ep in emu.http_endpoints
    ]
    for check in checks:
        while True:
            try:
                check()
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError("emulator listeners did not answer") from None
                time.sleep(0.01)


def _scaled(size: int, scale: float) -> int:
    return max(10, round(size * scale))


class Campaign:
    """Probe a fixed corpus, then classify and aggregate the results.

    A pass is one campaign over the next `batch` targets of the corpus, in
    turn; by default the whole corpus.
    """

    kind = "probe"

    def __init__(
        self, corpus: workloads.Corpus, own_process: bool, workers: int, batch: int = 0
    ):
        self.corpus = corpus
        started = time.perf_counter()
        self.targets, rejected = dataset.load_target_list(io.StringIO(corpus.target_list))
        self.load_list_us = (time.perf_counter() - started) * 1e6 / len(self.targets)
        if rejected:
            raise RuntimeError(f"target list lines rejected: {rejected[:3]}")
        batch = batch or len(self.targets)
        self.batches = [
            self.targets[i : i + batch] for i in range(0, len(self.targets), batch)
        ]
        self.passes = 0
        self.size = len(self.batches[0])
        self.emu = (EmulatorProcess if own_process else InProcessEmulator)(corpus)
        try:
            wait_ready(self.emu)
        except BaseException:
            self.emu.close()
            raise
        overrides = {h: workloads.LOOPBACK for h in [workloads.PORTAL_HOST, *corpus.dns_blocked]}
        self.config = probe.ProbeConfig(
            resolvers=list(self.emu.resolvers),
            keyword_portal=parse_target(f"http://{workloads.PORTAL_HOST}"),
            workers=workers,
            host_overrides=overrides,
            http_port=self.emu.proxy[1],
        )
        self.last: list = []
        self.stored_bytes = self.stored_targets = 0

    def truth(self) -> dict:
        return workloads.Oracle(self.corpus).truth(self.corpus)

    def probe_once(self):
        results = probe.run_campaign(self.targets, self.config)
        return len(results), 0, results

    def run_pass(self, checker: Checker):
        batch = self.batches[self.passes % len(self.batches)]
        self.passes += 1
        self.last = probe.run_campaign(batch, self.config)
        _verdicts, _run, failed = checker.judge(self.last, len(batch))
        return len(batch), failed, self.last

    def round_trip(self, checker: Checker) -> tuple[int, int]:
        """Store the last pass's results and read them back, as the CLI does.

        Returns the number of targets written and read.
        """
        path = common.OUT / f"results-{os.getpid()}.json"
        try:
            report.emit(self.last, str(path))
            self.stored_bytes = path.stat().st_size
            if report.load(str(path)) != self.last:
                checker.problem("stored results do not load back equal")
        finally:
            path.unlink(missing_ok=True)
        self.stored_targets = len(self.last)
        return len(self.last), len(self.last)

    def close(self) -> dict:
        return self.emu.close()


class Offline:
    """Load a stored results file, classify, aggregate, render, write back.

    Set-up probes the campaign-isp302 corpus once in-process and stores that
    pass replicated under distinct hosts to about 10k targets.
    """

    kind = "offline"

    def __init__(self, seed: int, scale: float, tracer: spans.Tracer | None):
        self.corpus = workloads.campaign_corpus(seed, Generation.Isp302, _scaled(200, scale))
        camp = Campaign(self.corpus, own_process=False, workers=1)
        self.load_list_us = camp.load_list_us
        try:
            (_n, _f, results), self.probe_pass = timed_pass(
                "probe", camp.probe_once, camp.emu, tracer
            )
        finally:
            self.setup_final = camp.close()
        copies = max(1, round(_scaled(10_000, scale) / len(results)))
        stored, self.source = workloads.replicate(results, copies)
        self.size = self.stored_targets = len(stored)
        self.path = common.OUT / f"stored-{os.getpid()}.json"
        report.emit(stored, str(self.path))
        self.stored_bytes = self.path.stat().st_size
        self.verdicts_path = common.OUT / f"verdicts-{os.getpid()}.json"
        self.report_path = common.OUT / f"report-{os.getpid()}.json"
        self.emu = None
        self.last = None

    def truth(self) -> dict:
        source = workloads.Oracle(self.corpus).truth(self.corpus)
        return {host: source[origin] for host, origin in self.source.items()}

    def run_pass(self, checker: Checker):
        results = report.load(str(self.path))
        verdicts, run, failed = checker.judge(results, self.size)
        report.emit(verdicts, str(self.verdicts_path))
        report.emit(run, str(self.report_path))
        self.last = (verdicts, run)
        return len(results), failed, None

    def round_trip(self, checker: Checker) -> tuple[int, int]:
        """Read the last written verdicts and report back; returns (0, targets read)."""
        verdicts, run = self.last
        if report.load(str(self.verdicts_path)) != verdicts:
            checker.problem("written verdicts do not load back equal")
        if report.load(str(self.report_path)) != run:
            checker.problem("written report does not load back equal")
        return 0, len(verdicts)

    def close(self) -> dict:
        for path in (self.path, self.verdicts_path, self.report_path):
            path.unlink(missing_ok=True)
        return self.setup_final


def timed_pass(kind: str, body, emu, tracer: spans.Tracer | None):
    """Run `body` once, timed, and traced when a tracer is given.

    `body` returns (targets, failed, probe results or None).
    """
    if tracer is not None:
        tracer.install()
        if emu is not None:
            emu.trace(True)
    before = emu.counters() if emu is not None and tracer is not None else {}
    rt_calls = len(tracer.run_target_cpu_ns) if tracer is not None else 0
    child0 = emu.cpu_s() if emu is not None else 0.0
    self0, main0 = time.process_time(), time.thread_time()
    started = time.perf_counter()
    try:
        out = body()
    finally:
        wall = time.perf_counter() - started
        self_cpu = time.process_time() - self0
        main_cpu = time.thread_time() - main0
        child_cpu = (emu.cpu_s() if emu is not None else 0.0) - child0
        if tracer is not None:
            tracer.uninstall()
            if emu is not None:
                emu.trace(False)
    targets, failed, results = out
    if isinstance(emu, InProcessEmulator):
        # emulator threads: the process's CPU minus this thread and the
        # probe's run_target calls (known only when traced)
        probe_cpu = sum(tracer.run_target_cpu_ns[rt_calls:]) / 1e9 if tracer is not None else 0.0
        emulator_cpu = self_cpu - main_cpu - probe_cpu
    else:
        emulator_cpu = child_cpu
    record = Pass(kind, tracer is not None, targets, failed, wall, self_cpu + child_cpu, emulator_cpu)
    if tracer is not None and emu is not None:
        record.requests = Counter(emu.counters())
        record.requests.subtract(before)
    if results is not None:
        record.error_log_entries = sum(len(r.errors) for r in results)
        record.rtt_ms = [o.rtt_ms for r in results for o in r.dns if o.rtt_ms]
        record.hosts = [r.target.host for r in results]
    return out, record


def _blocklist(seed: int, scale: float) -> Campaign:
    # a 200-target pass would take seconds here; 40-target passes, each with
    # the corpus's shares, give a run enough passes for a steady median
    block = _scaled(40, scale)
    corpus = workloads.blocklist_corpus(
        seed, _scaled(10_000, scale), _scaled(200, scale), block=block
    )
    return Campaign(corpus, own_process=False, workers=1, batch=block)


WORKLOADS = {
    "campaign-isp302": lambda seed, scale, tracer: Campaign(
        workloads.campaign_corpus(seed, Generation.Isp302, _scaled(200, scale)),
        own_process=False,
        workers=1,
    ),
    "campaign-ixp200-oop": lambda seed, scale, tracer: Campaign(
        workloads.campaign_corpus(seed, Generation.Ixp200, _scaled(200, scale)),
        own_process=True,
        workers=2,
    ),
    "blocklist-10k": lambda seed, scale, tracer: _blocklist(seed, scale),
    "offline-classify": Offline,
}


def set_up(name: str, seed: int, scale: float, tracer):
    """Build the workload repeatedly; keep the last build, time each one.

    Only the last build is traced, when a tracer is given.
    """
    times = []
    began = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - began
        last = len(times) + 1 >= SETUP_MIN_REPEATS and (
            elapsed >= SETUP_MIN_SECONDS or len(times) + 1 >= SETUP_MAX_REPEATS
        )
        started = time.perf_counter()
        session = WORKLOADS[name](seed, scale, tracer if last else None)
        times.append(time.perf_counter() - started)
        if last:
            return session, times
        session.close()


def measure(session, checker: Checker, seconds: float, trace: bool, tracer) -> list[Pass]:
    """Passes for about `seconds`; traced runs alternate untraced and traced.

    No pass starts when less than half a mean pass is left, so a run
    overshoots `seconds` by at most half a pass.
    """
    passes: list[Pass] = []
    started = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        pass_started = time.perf_counter()
        try:
            _out, record = timed_pass(
                session.kind, lambda: session.run_pass(checker), session.emu,
                tracer if traced else None,
            )
        except Exception:
            traceback.print_exc()
            checker.problem("a pass raised")
            wall = time.perf_counter() - pass_started
            record = Pass(session.kind, traced, session.size, session.size, wall, 0.0, 0.0)
        passes.append(record)
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(passes) / 2 >= seconds and (not trace or len(passes) >= 2):
            return passes


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _rate(passes: list[Pass]) -> float:
    return sum(p.targets for p in passes) / sum(p.wall_s for p in passes)


def end_to_end(passes: list[Pass], setup_times: list[float], child_rss_kb: int) -> dict:
    attempted = sum(p.targets for p in passes)
    self_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "targets_per_s": _median(p.rate for p in passes),
        "cpu_ms_per_target": _median(p.cpu_s * 1000 / p.targets for p in passes),
        "ok_share": 1 - sum(p.failed for p in passes) / attempted,
        "setup_s": _median(setup_times),
        "peak_rss_mb": (self_rss_kb + child_rss_kb) / 1024,
    }


def traffic_problems(corpus, probed: list[Pass], requests: Counter, dns: int, retries: int):
    """Compare the emulator's request counts with those the corpus implies.

    Per target: one query per resolver (plus retries); three proxy
    connections (TCP handshake, keyword, HTTP); an origin request for the
    keyword step unless the portal censors the URL, and one for the HTTP
    step unless the target is censored.
    """
    truth = workloads.Oracle(corpus).truth(corpus)
    hosts = [h for p in probed for h in p.hosts]
    http = set(workloads.HTTP_MECHANISM.values())
    expected = {
        "dns": len(workloads.RESOLVERS) * len(hosts) + retries,
        "proxy": 3 * len(hosts),
        "origin": sum(
            (Mechanism.UrlKeyword not in truth[h]) + (not truth[h] & http) for h in hosts
        ),
    }
    measured = {"dns": dns, "proxy": requests["proxy"], "origin": requests["origin"]}
    return [
        f"emulator {name} requests: {measured[name]}, corpus implies {want}"
        for name, want in expected.items()
        if measured[name] != want
    ]


def per_layer(session, passes, all_spans, threads_peak, final, io_targets):
    """Per-layer metrics from the spans and counters of the traced passes.

    Returns the metrics and the ways the emulator's traffic disagrees with
    the corpus.
    """
    stats = spans.SpanStats(all_spans)
    setup_probe = [session.probe_pass] if isinstance(session, Offline) else []
    all_probed = [p for p in passes if p.kind == "probe"] + setup_probe
    probed = [p for p in all_probed if p.traced]
    probe_targets = sum(p.targets for p in probed)
    # rtt_ms is the program's own timing; prefer passes without wrappers
    untraced_probe = [p for p in all_probed if not p.traced]
    rtts = [r for p in (untraced_probe or probed) for r in p.rtt_ms]
    requests = Counter()
    for p in probed:
        requests.update(p.requests)
    dns = stats.count("emulator.handle_dns")
    retries = stats.count("dnswire.encode_query") - stats.count("dnswire.query")
    problems = traffic_problems(session.corpus, probed, requests, dns, retries)
    served = dns + requests["proxy"] + requests["warning"] + requests["origin"]
    probe_wall = sum(p.wall_s for p in probed)
    probe_cpu = sum(p.cpu_s for p in probed)
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]

    def q(name: str, pct: int, scale: float = 1.0) -> float:
        return stats.quantile_ms(name, pct) * scale

    def per(value: float, count: int) -> float:
        return value / count if count else 0.0

    return {
        "probe.run_target.p50_ms": q("probe.run_target", 50),
        "probe.run_target.p99_ms": q("probe.run_target", 99),
        "probe.dns_step.p50_ms": q("probe.dns_step", 50),
        "probe.tcp_step.p50_ms": q("probe.tcp_step", 50),
        "probe.keyword_step.p50_ms": q("probe.keyword_step", 50),
        "probe.http_step.p50_ms": q("probe.http_step", 50),
        "probe.dns_step.p99_ms": q("probe.dns_step", 99),
        "probe.http_step.p99_ms": q("probe.http_step", 99),
        "probe.error_log_entries": sum(p.error_log_entries for p in all_probed),
        "probe.self_ms_per_target": per(stats.layer_self_ms("probe"), probe_targets),
        "dnswire.query.per_target": per(stats.count("dnswire.query"), probe_targets),
        "dnswire.query.p50_ms": q("dnswire.query", 50),
        "dnswire.query.p99_ms": q("dnswire.query", 99),
        "dnswire.retries": retries,
        "dnswire.rtt_p50_ms": _median(rtts),
        "dnswire.decode_message.probe.p50_us": q("dnswire.decode_message.probe", 50, 1000),
        "dnswire.decode_message.emulator.p50_us": q("dnswire.decode_message.emulator", 50, 1000),
        "dnswire.self_ms_per_target": per(stats.layer_self_ms("dnswire"), probe_targets),
        "httpwire.fetch.per_target": per(stats.count("httpwire.fetch"), probe_targets),
        "httpwire.fetch.p50_ms": q("httpwire.fetch", 50),
        "httpwire.fetch.p99_ms": q("httpwire.fetch", 99),
        "httpwire.transport_errors": len(stats.errors.get("httpwire.fetch", [])),
        "httpwire.self_ms_per_target": per(stats.layer_self_ms("httpwire"), probe_targets),
        "emulator.requests_per_target": per(served, probe_targets),
        "emulator.req_per_s": served / probe_wall,
        "emulator.dns.requests": dns,
        "emulator.proxy.requests": requests["proxy"],
        "emulator.warning.requests": requests["warning"],
        "emulator.origin.requests": requests["origin"],
        "emulator.forwarded_share": per(requests["origin"], requests["proxy_requests"]),
        "emulator.threads_peak": threads_peak,
        "emulator.cpu_share": sum(p.emulator_cpu_s for p in probed) / probe_cpu,
        "emulator.transcript_sessions": final["counters"]["sessions"],
        "emulator.handle_dns.p50_us": q("emulator.handle_dns", 50, 1000),
        "emulator.matched_rule.p50_us": q("emulator.matched_rule", 50, 1000),
        "emulator.matched_rule.p99_us": q("emulator.matched_rule", 99, 1000),
        "emulator.dns_blocked.p50_us": q("emulator.dns_blocked", 50, 1000),
        "emulator.self_ms_per_target": per(stats.layer_self_ms("emulator"), probe_targets),
        "classify.classify_target.p50_us": q("classify.classify_target", 50, 1000),
        "classify.classify_target.p99_us": q("classify.classify_target", 99, 1000),
        "report.emit.us_per_target": per(stats.total_ms("report.emit") * 1000, io_targets["emit"]),
        "report.load.us_per_target": per(stats.total_ms("report.load") * 1000, io_targets["load"]),
        "report.aggregate.ms": q("report.aggregate", 50),
        "report.bytes_per_target": per(session.stored_bytes, session.stored_targets),
        "dataset.load_target_list.us_per_target": session.load_list_us,
        "trace.overhead_share": 1 - _rate(traced) / _rate(untraced),
    }, problems


def calibration_ms() -> float:
    """Fastest of five timings of a fixed pure-Python loop.

    Kept in the run record only, to show how fast the machine ran around a
    run: this sandbox's CPU speed drifts by tens of percent over minutes.
    """
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        best = min(best, time.perf_counter() - started)
    return best * 1000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="corpus and blocklist size factor; below 1 only for the smoke test",
    )
    args = parser.parse_args(argv)
    common.OUT.mkdir(exist_ok=True)
    load_before, calibration_before = os.getloadavg(), calibration_ms()
    tracer = spans.Tracer() if args.trace else None

    session, setup_times = set_up(args.workload, args.seed, args.scale, tracer)
    try:
        checker = Checker(session.truth())
        passes = measure(session, checker, args.seconds, bool(args.trace), tracer)
        if tracer is not None:
            tracer.install()
        try:
            emitted, loaded = session.round_trip(checker)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        final = session.close()

    if tracer is not None:
        traced = [p for p in passes if p.traced and p.kind == "offline"]
        io_targets = {
            "emit": emitted + sum(p.targets for p in traced),
            "load": loaded + sum(p.targets for p in traced),
        }
        all_spans = spans.merge(tracer.spans, final["spans"])
        threads_peak = max(tracer.threads_peak, final["threads_peak"])
        values, problems = per_layer(
            session, passes, all_spans, threads_peak, final, io_targets
        )
        for problem in problems:
            checker.problem(problem)
        units = PER_LAYER
        spans.write(common.OUT / f"spans-{args.workload}.jsonl", all_spans)
    else:
        values = end_to_end(passes, setup_times, final["maxrss_kb"])
        units = END_TO_END
    result = {
        "correct": not checker.problems,
        "attempted": sum(p.targets for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "calibration_ms": [calibration_before, calibration_ms()],
        "network": "loopback only; link rate and wire latency are not measured",
        "setup_s": setup_times,
        "passes": [
            {"traced": p.traced, "targets": p.targets, "failed": p.failed,
             "wall_s": p.wall_s, "cpu_s": p.cpu_s}
            for p in passes
        ],
        "problems": checker.problems,
        "result": result,
    }
    with open(common.OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    for problem in checker.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
