import ipaddress
import json
import random
from dataclasses import fields
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censorprobe.dataset import CleaningReport, RemovalReason
from censorprobe.emulator import SessionTranscript
from censorprobe.model import (
    DnsObservation,
    DnsOutcome,
    HttpObservation,
    Mechanism,
    PUBLIC_RESOLVERS,
    ResolverSpec,
    TargetUrl,
    TcpObservation,
    TcpResult,
    Verdict,
    parse_target,
)
from censorprobe.probe import TargetProbeResult
from censorprobe.report import (
    STORED_KINDS,
    EmptyCampaign,
    RunReport,
    aggregate,
    emit,
    from_jsonable,
    load,
    render_table,
    to_jsonable,
)


def _verdict(i: int, *mechanisms: Mechanism, inconclusive: bool = False) -> Verdict:
    return Verdict(
        target=parse_target(f"http://host{i:03}.test/"),
        mechanisms=frozenset(mechanisms),
        evidence=tuple(f"m{j}" for j in range(len(mechanisms))),
        inconclusive=inconclusive,
    )


def _campaign_307() -> list[Verdict]:
    """307 verdicts: 187 DNS-injected, 5 redirected, 115 clean."""
    verdicts = [_verdict(i, Mechanism.DnsInjection) for i in range(187)]
    verdicts += [_verdict(200 + i, Mechanism.Http302Redirect) for i in range(5)]
    verdicts += [_verdict(300 + i) for i in range(115)]
    return verdicts


class TestAggregate:
    def test_mixed_campaign_counts_and_percents(self):
        report = aggregate(_campaign_307(), total=307)
        assert report.total == 307
        assert report.counts[Mechanism.DnsInjection] == 187
        assert report.counts[Mechanism.Http302Redirect] == 5
        assert report.counts[Mechanism.Http200Injection] == 0
        assert report.blocked_total == 192
        assert report.percents[Mechanism.DnsInjection] == Decimal("60.91")
        assert report.percents[Mechanism.Http302Redirect] == Decimal("1.63")
        assert report.blocked_percent == Decimal("62.54")

    def test_second_generation_shape(self):
        verdicts = [_verdict(i, Mechanism.DnsInjection) for i in range(179)]
        verdicts += [_verdict(200 + i, Mechanism.Http200Injection) for i in range(5)]
        verdicts += [_verdict(300 + i) for i in range(123)]
        report = aggregate(verdicts, total=307)
        assert report.blocked_total == 184
        assert report.percents[Mechanism.DnsInjection] == Decimal("58.31")
        assert report.percents[Mechanism.Http200Injection] == Decimal("1.63")
        assert report.blocked_percent == Decimal("59.93")

    def test_order_invariant(self):
        verdicts = _campaign_307()
        base = aggregate(verdicts, total=307)
        rng = random.Random(20130419)
        for _ in range(5):
            rng.shuffle(verdicts)
            assert aggregate(verdicts, total=307) == base

    def test_multi_mechanism_verdict_counted_once_in_total(self):
        v = _verdict(0, Mechanism.DnsInjection, Mechanism.Http200Injection)
        report = aggregate([v], total=1)
        assert report.blocked_total == 1
        assert report.counts[Mechanism.DnsInjection] == 1
        assert report.counts[Mechanism.Http200Injection] == 1

    def test_half_even_rounding(self):
        # 1/8 = 12.5% exactly: the half-even rule keeps the even digit
        report = aggregate([_verdict(0, Mechanism.IpBlock)], total=8)
        assert report.percents[Mechanism.IpBlock] == Decimal("12.50")
        report = aggregate([_verdict(0, Mechanism.IpBlock)], total=16)
        assert report.percents[Mechanism.IpBlock] == Decimal("6.25")

    def test_inconclusive_and_errors_carried(self):
        report = aggregate(
            [_verdict(0, inconclusive=True)], total=3, error_logged=2
        )
        assert report.inconclusive == 1
        assert report.error_logged == 2
        assert report.blocked_total == 0

    def test_empty_campaign_rejected(self):
        with pytest.raises(EmptyCampaign):
            aggregate([], total=0)

    def test_total_smaller_than_verdicts_rejected(self):
        with pytest.raises(ValueError):
            aggregate(_campaign_307(), total=10)


class TestRenderTable:
    def test_rows_and_footnotes(self):
        report = aggregate(_campaign_307(), total=307, error_logged=4)
        text = render_table(report)
        lines = text.splitlines()
        assert "Mechanism" in lines[0] and "Percent" in lines[0]
        assert any(l.startswith("DNS") and "187" in l and "60.91" in l for l in lines)
        assert any(l.startswith("HTTP (302)") and "1.63" in l for l in lines)
        assert any(l.startswith("Total") and "192" in l and "62.54" in l for l in lines)
        assert "Excluded by error log: 4 target(s)" in text

    def test_no_footnotes_when_clean(self):
        text = render_table(aggregate(_campaign_307(), total=307))
        assert "Excluded" not in text and "Inconclusive" not in text


SAMPLES = [
    parse_target("http://host.test/a?b=c"),
    PUBLIC_RESOLVERS[4],
    DnsObservation(
        PUBLIC_RESOLVERS[1], "host.test", DnsOutcome.Answers,
        answers=("1.2.3.4", "5.6.7.8"), rtt_ms=12.5,
    ),
    TcpObservation("1.2.3.4", TcpResult.Refused, port=8080),
    HttpObservation(
        "host.test", "/a", 302,
        location="http://10.0.0.1/w", body_digest="ab" * 32,
        body_excerpt=b"\x00\xffbinary",
    ),
    Verdict(
        target=parse_target("http://host.test/"),
        mechanisms=frozenset({Mechanism.DnsInjection, Mechanism.UrlKeyword}),
        evidence=("dns[0]", "keyword"),
        inconclusive=False,
    ),
    TargetProbeResult(
        target=parse_target("http://host.test/"),
        dns=(DnsObservation(PUBLIC_RESOLVERS[0], "host.test", DnsOutcome.NxDomain),),
        tcp=(TcpObservation("1.2.3.4", TcpResult.Connected),),
        keyword=HttpObservation("www.google.com", "/http://host.test/", 404),
        http=None,
        errors=("http: timed out",),
    ),
    CleaningReport(
        initial_count=597,
        after_collapse=562,
        after_dedupe=429,
        after_liveness=307,
        removed=[(parse_target("http://dead.test/"), RemovalReason.Offline)],
    ),
    SessionTranscript(
        listener="censor-http",
        entries=[("request", "GET / host.test"), ("response", "302")],
    ),
    [parse_target("http://a.test/"), parse_target("http://b.test/")],
]


class TestSerialization:
    @pytest.mark.parametrize("value", SAMPLES, ids=lambda v: type(v).__name__)
    def test_round_trip(self, value):
        doc = to_jsonable(value)
        json.dumps(doc)  # must be JSON-safe as-is
        assert from_jsonable(doc) == value

    def test_run_report_round_trip(self):
        report = aggregate(_campaign_307(), total=307, error_logged=1)
        assert from_jsonable(to_jsonable(report)) == report

    def test_emit_load_file(self, tmp_path):
        report = aggregate(_campaign_307(), total=307)
        path = str(tmp_path / "report.json")
        emit(report, path)
        assert load(path) == report

    def test_emit_unwritable_destination(self):
        with pytest.raises(OSError):
            emit(aggregate(_campaign_307(), total=307), "/nonexistent/dir/out.json")

    def test_unknown_kind_rejected(self):
        with pytest.raises(TypeError):
            from_jsonable({"kind": "Mystery"})
        with pytest.raises(TypeError):
            to_jsonable(object())


GOLDEN_FORMATS = Path(__file__).parent / "data" / "golden_formats.json"


def _every_format():
    return SAMPLES + [aggregate(_campaign_307(), total=307, error_logged=1)]


def test_emit_matches_golden_formats(tmp_path):
    # every stored format, byte for byte: files already written must stay loadable
    path = tmp_path / "formats.json"
    emit(_every_format(), str(path))
    assert path.read_bytes() == GOLDEN_FORMATS.read_bytes()
    assert load(str(GOLDEN_FORMATS)) == _every_format()


def test_frozenset_written_sorted():
    doc = to_jsonable(Verdict(parse_target("http://a.test/"), frozenset(Mechanism)))
    assert doc["mechanisms"] == sorted(m.value for m in Mechanism)


_text = st.text(max_size=12)
_tuple_of_text = st.lists(_text, max_size=3).map(tuple)
_ipv4 = st.ip_addresses(v=4).map(str)
_unicast = _ipv4.filter(lambda a: not ipaddress.ip_address(a).is_multicast)
_port = st.integers(1, 65535)
_decimal = st.decimals(allow_nan=False, allow_infinity=False)
_finite = st.floats(allow_nan=False, allow_infinity=False)

_targets = st.builds(
    TargetUrl,
    raw=_text,
    scheme=st.sampled_from(["http", "https"]),
    host=st.from_regex(r"[a-z0-9.-]{1,20}", fullmatch=True),
    path=_text.map(lambda p: "/" + p),
    query=st.none() | _text,
)
_resolvers = st.builds(
    ResolverSpec, name=_text, address=_unicast,
    nxdomain_redirector=st.none() | st.just("192.0.2.99"), port=_port,
).filter(lambda r: r.address != r.nxdomain_redirector)
_dns = st.one_of(
    st.builds(
        DnsObservation, resolver=_resolvers, qname=_text,
        outcome=st.just(DnsOutcome.Answers),
        answers=st.lists(_ipv4, min_size=1, max_size=3).map(tuple), rtt_ms=_finite,
    ),
    st.builds(
        DnsObservation, resolver=_resolvers, qname=_text,
        outcome=st.sampled_from([o for o in DnsOutcome if o is not DnsOutcome.Answers]),
        rtt_ms=_finite,
    ),
)
_tcp = st.builds(
    TcpObservation, address=_ipv4, result=st.sampled_from(TcpResult), port=_port
)
_http = st.builds(
    HttpObservation, request_host=_text, request_uri=_text,
    status=st.sampled_from([200, 302, 404, 599]), last_modified=st.none() | _text,
    body_digest=_text, body_excerpt=st.binary(max_size=32),
)
_mechanisms = st.frozensets(st.sampled_from(Mechanism))
STRATEGIES = {
    TargetUrl: _targets,
    ResolverSpec: _resolvers,
    DnsObservation: _dns,
    TcpObservation: _tcp,
    HttpObservation: _http | st.builds(
        HttpObservation, request_host=_text, request_uri=_text,
        status=st.sampled_from([301, 302]), location=st.none() | _text,
    ),
    Verdict: st.builds(
        Verdict, target=_targets, mechanisms=_mechanisms, evidence=_tuple_of_text,
        inconclusive=st.booleans(),
    ),
    TargetProbeResult: st.builds(
        TargetProbeResult, target=_targets,
        dns=st.lists(_dns, max_size=3).map(tuple),
        tcp=st.lists(_tcp, max_size=2).map(tuple),
        keyword=st.none() | _http, http=st.none() | _http, errors=_tuple_of_text,
    ),
    CleaningReport: st.builds(
        CleaningReport, initial_count=st.integers(), after_collapse=st.integers(),
        after_dedupe=st.integers(), after_liveness=st.integers(),
        removed=st.lists(st.tuples(_targets, st.sampled_from(RemovalReason)), max_size=3),
    ),
    RunReport: st.builds(
        RunReport, total=st.integers(),
        counts=st.dictionaries(st.sampled_from(Mechanism), st.integers()),
        percents=st.dictionaries(st.sampled_from(Mechanism), _decimal),
        blocked_total=st.integers(), blocked_percent=_decimal,
        inconclusive=st.integers(), error_logged=st.integers(),
    ),
    SessionTranscript: st.builds(
        SessionTranscript, listener=_text,
        entries=st.lists(st.tuples(_text, _text), max_size=3),
    ),
}


@pytest.mark.parametrize("kind", STORED_KINDS, ids=lambda k: k.__name__)
@settings(max_examples=40)
@given(data=st.data())
def test_round_trip_through_json_text(kind, data):
    value = data.draw(STRATEGIES[kind])
    doc = json.loads(json.dumps(to_jsonable(value)))
    loaded = from_jsonable(doc)
    assert loaded == value
    assert to_jsonable(loaded) == doc  # also fields left out of equality


@pytest.mark.parametrize("kind", STORED_KINDS, ids=lambda k: k.__name__)
@settings(max_examples=5)
@given(data=st.data())
def test_encoded_keys_are_the_field_names(kind, data):
    # a new field is stored with no codec edit
    doc = to_jsonable(data.draw(STRATEGIES[kind]))
    derived = ["clean"] if kind is Verdict else []
    assert list(doc) == ["kind", *(f.name for f in fields(kind)), *derived]
