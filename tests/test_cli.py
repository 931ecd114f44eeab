import json
import math
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from censorprobe import dataset, report
from censorprobe.circumvent import DEFAULT_CACHE_TEMPLATES, CircumventionConfig, Method
from censorprobe.classify import FingerprintSet, Reference
from censorprobe.cli import (
    EXIT_CAMPAIGN,
    EXIT_OK,
    EXIT_USAGE,
    circumvention_config,
    clean_config,
    fingerprint_set,
    main,
    probe_config,
    references,
)
from censorprobe.model import (
    PUBLIC_RESOLVERS,
    DnsObservation,
    DnsOutcome,
    Mechanism,
    ResolverSpec,
    Verdict,
    parse_target,
    read_document,
)
from censorprobe.probe import ProbeConfig, TargetProbeResult

from conftest import ipv6_loopback_socket, probe_config_for


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag(self, capsys):
        assert main(["probe", "--targets", "x"]) == EXIT_USAGE


class TestClean:
    def test_skip_liveness_pipeline(self, tmp_path, capsys):
        targets = _write(
            tmp_path / "targets.txt",
            "http://a.test/\nhttp://a.test/\nhttp://www.youtube.com/v/1\n"
            "http://youtube.com/\nnot a url\n",
        )
        config = _write(
            tmp_path / "clean.json",
            json.dumps({"collapse_hosts": ["youtube.com"], "skip_liveness": True}),
        )
        out = str(tmp_path / "cleaned.txt")
        code = main(["clean", "--targets", targets, "--config", config, "--out", out])
        assert code == EXIT_OK
        with open(out) as fh:
            lines = fh.read().splitlines()
        assert lines == ["http://a.test/", "http://youtube.com/"]
        stdout = capsys.readouterr().out
        assert "4 -> 3 -> 2 -> 2" in stdout
        assert "1 malformed lines skipped" in stdout
        assert report.load(out + ".report.json").after_dedupe == 2

    def test_undecodable_line_is_skipped(self, tmp_path, capsys):
        targets = tmp_path / "targets.txt"
        targets.write_bytes(b"http://a.test/\nhttp://b.test/caf\xff\n")
        config = _write(tmp_path / "clean.json", json.dumps({"skip_liveness": True}))
        out = str(tmp_path / "cleaned.txt")
        code = main(["clean", "--targets", str(targets), "--config", config, "--out", out])
        assert code == EXIT_OK
        assert "1 -> 1 -> 1 -> 1 (1 malformed lines skipped)" in capsys.readouterr().out
        with open(out, encoding="utf-8") as fh:
            assert fh.read() == "http://a.test/\n"

    def test_missing_file_is_campaign_error(self, tmp_path, capsys):
        assert main(["clean", "--targets", str(tmp_path / "nope")]) == EXIT_CAMPAIGN

    def test_reachable_ipv6_literal_target_is_kept(self, tmp_path, capsys):
        with ipv6_loopback_socket(socket.SOCK_STREAM) as listener:
            listener.listen()
            listener.settimeout(5)

            def serve_once():
                conn, _ = listener.accept()
                with conn:
                    conn.recv(65536)
                    conn.sendall(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n")

            peer = threading.Thread(target=serve_once)
            peer.start()
            targets = _write(tmp_path / "targets.txt", "http://[::1]/\n")
            config = _write(
                tmp_path / "clean.json",
                json.dumps({"http_port": listener.getsockname()[1]}),
            )
            out = str(tmp_path / "cleaned.txt")
            try:
                code = main(["clean", "--targets", targets, "--config", config, "--out", out])
            finally:
                peer.join(timeout=10)
            assert not peer.is_alive()
        assert code == EXIT_OK
        with open(out) as fh:
            assert fh.read().splitlines() == ["http://[::1]/"]
        assert "1 -> 1 -> 1 -> 1" in capsys.readouterr().out

    @staticmethod
    def _clean(tmp_path, monkeypatch, port, overrides):
        """Run clean on the overridden hosts, with no pause between attempts."""
        monkeypatch.setattr(dataset, "LIVENESS_PAUSES", (0.0, 0.0))
        targets = _write(tmp_path / "targets.txt", "".join(f"http://{h}/\n" for h in overrides))
        doc = {"http_port": port, "host_overrides": overrides}
        config = _write(tmp_path / "clean.json", json.dumps(doc))
        out = tmp_path / "cleaned.txt"
        code = main(["clean", "--targets", targets, "--config", config, "--out", str(out)])
        return code, out, tmp_path / "cleaned.txt.report.json"

    def test_dead_clean_channel_writes_nothing(self, tmp_path, capsys, monkeypatch):
        with socket.socket() as closed:
            closed.bind(("127.0.0.1", 0))  # bound, never listening: each connect is refused
            overrides = {"a.test": "127.0.0.1", "b.test": "127.0.0.1"}
            code, out, report_path = self._clean(
                tmp_path, monkeypatch, closed.getsockname()[1], overrides
            )
        assert code == EXIT_CAMPAIGN
        assert not out.exists() and not report_path.exists()
        assert "the clean channel looks down" in capsys.readouterr().err

    def test_one_live_target_keeps_the_list(
        self, tmp_path, capsys, monkeypatch, passthrough_emulator
    ):
        # nothing listens on 127.0.0.2, so dead.test is refused
        overrides = {"site001.test": "127.0.0.1", "dead.test": "127.0.0.2"}
        port = passthrough_emulator.proxy.endpoint[1]
        code, out, report_path = self._clean(tmp_path, monkeypatch, port, overrides)
        assert code == EXIT_OK
        assert out.read_text().splitlines() == ["http://site001.test/"]
        assert "2 -> 2 -> 2 -> 1" in capsys.readouterr().out
        assert report.load(str(report_path)).after_liveness == 1


class TestProbeAndClassify:
    def test_probe_then_classify_then_report(
        self, tmp_path, capsys, isp302_emulator
    ):
        emu = isp302_emulator
        config = probe_config_for(emu)
        config_doc = {
            "resolvers": [
                {
                    "name": r.name,
                    "address": r.address,
                    "nxdomain_redirector": r.nxdomain_redirector,
                    "port": r.port,
                }
                for r in config.resolvers
            ],
            "timeouts": {"dns": 2000, "tcp": 2000, "http": 3000},
            "retries": 1,
            "host_overrides": config.host_overrides,
            "http_port": config.http_port,
        }
        targets = _write(
            tmp_path / "targets.txt", "http://youtube.com/\nhttp://site001.test/\n"
        )
        config_path = _write(tmp_path / "probe.json", json.dumps(config_doc))
        results_path = str(tmp_path / "results.json")
        assert (
            main(
                [
                    "probe",
                    "--targets",
                    targets,
                    "--config",
                    config_path,
                    "--out",
                    results_path,
                ]
            )
            == EXIT_OK
        )
        assert "2 targets probed, 0 error-logged" in capsys.readouterr().out

        fingerprints = _write(
            tmp_path / "fp.json",
            json.dumps(
                {
                    "patterns": ["not accessible"],
                    "last_modified": [emu.policy.warning_last_modified],
                }
            ),
        )
        verdicts_path = str(tmp_path / "verdicts.json")
        assert (
            main(
                [
                    "classify",
                    "--results",
                    results_path,
                    "--fingerprints",
                    fingerprints,
                    "--out",
                    verdicts_path,
                ]
            )
            == EXIT_OK
        )
        table = capsys.readouterr().out
        row = next(l for l in table.splitlines() if l.startswith("HTTP (302)"))
        assert row.split() == ["HTTP", "(302)", "1", "50.00"]
        assert "Total" in table

        assert (
            main(["report", "--verdicts", verdicts_path, "--total", "2"]) == EXIT_OK
        )
        assert "50.00" in capsys.readouterr().out

    def test_resolvers_sharing_an_address_keep_their_redirectors(
        self, tmp_path, capsys
    ):
        # as under the emulator: every resolver at 127.0.0.1, and the first
        # stored observation comes from one with an NXDOMAIN redirector
        local = {
            r.name: ResolverSpec(r.name, "127.0.0.1", r.nxdomain_redirector, 5300 + i)
            for i, r in enumerate(PUBLIC_RESOLVERS)
        }
        genuine = DnsObservation(
            local["Comodo"], "x.test", DnsOutcome.Answers, answers=("93.184.216.34",)
        )
        nxdomain = DnsObservation(local["Google"], "nosuch.test", DnsOutcome.NxDomain)
        results = [
            TargetProbeResult(
                target=parse_target("http://nosuch.test/"), dns=(genuine, nxdomain)
            ),
            TargetProbeResult(
                target=parse_target("http://blocked.test/"),
                dns=(
                    genuine,
                    DnsObservation(
                        local["Norton"], "blocked.test", DnsOutcome.Answers,
                        answers=("198.153.192.3",),
                    ),
                ),
            ),
        ]
        results_path = str(tmp_path / "results.json")
        report.emit(results, results_path)
        verdicts_path = str(tmp_path / "verdicts.json")
        code = main(["classify", "--results", results_path, "--out", verdicts_path])
        assert code == EXIT_OK
        verdicts = {v.target.host: v.mechanisms for v in report.load(verdicts_path)}
        assert verdicts == {
            "nosuch.test": frozenset(),
            "blocked.test": frozenset({Mechanism.DnsInjection}),
        }


class TestCircumvent:
    def test_matrix_file_holds_every_target_and_method(
        self, tmp_path, capsys, isp302_emulator
    ):
        emu = isp302_emulator
        emu.origin.add_site("webcache.googleusercontent.com", b"<html>cached copy</html>")
        # unlisted.test and its CDN name have no address; the cache host has one
        hosts = ["youtube.com", "site001.test", "webcache.googleusercontent.com"]
        hosts += [f"{h}.nyud.net" for h in hosts[:2]]
        config = _write(tmp_path / "circumvent.json", json.dumps({
            "methods": [m.value for m in Method],
            "host_ip_table": dict.fromkeys(hosts, "127.0.0.1"),
            "http_port": emu.proxy.endpoint[1],
        }))
        fingerprints = _write(tmp_path / "fp.json", json.dumps(
            {"patterns": ["not accessible"], "last_modified": [emu.policy.warning_last_modified]}
        ))
        targets = _write(
            tmp_path / "targets.txt",
            "http://youtube.com/\nhttp://site001.test/\nhttp://unlisted.test/\n",
        )
        out = tmp_path / "circumvention.json"
        argv = ["circumvent", "--targets", targets, "--config", config,
                "--fingerprints", fingerprints, "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == f"3 targets x 3 methods -> {out}\n"
        assert out.read_text(encoding="utf-8") == """\
{
  "http://youtube.com/": {
    "WebDnsPlusHostHeader": "Blocked",
    "CoralCdn": "Accessible",
    "SearchCache": "Accessible"
  },
  "http://site001.test/": {
    "WebDnsPlusHostHeader": "Accessible",
    "CoralCdn": "Accessible",
    "SearchCache": "Accessible"
  },
  "http://unlisted.test/": {
    "WebDnsPlusHostHeader": "Inconclusive",
    "CoralCdn": "Inconclusive",
    "SearchCache": "Accessible"
  }
}
"""


@pytest.mark.parametrize(
    "total, code", [("-1", EXIT_USAGE), ("0", EXIT_USAGE), ("1", EXIT_CAMPAIGN)]
)
def test_report_total_is_checked(tmp_path, capsys, total, code):
    verdicts = str(tmp_path / "verdicts.json")
    targets = [parse_target("http://a.test/"), parse_target("http://b.test/")]
    report.emit([Verdict(target=t, mechanisms=frozenset()) for t in targets], verdicts)
    assert main(["report", "--verdicts", verdicts, "--total", total]) == code
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")


_TARGET = parse_target("http://a.test/")
_STORED = {
    "results": [TargetProbeResult(target=_TARGET)],
    "verdicts": [Verdict(target=_TARGET, mechanisms=frozenset())],
    "target-url": _TARGET,
}
_STORED_TEXT = {name: json.dumps(report.to_jsonable(v)) for name, v in _STORED.items()}
BAD_STORED_FILES = {
    "not-json": "{not json",
    "unknown-kind": json.dumps({"kind": "Mystery"}),
    "missing-field": json.dumps(
        {"kind": "list", "items": [{"kind": "Verdict", "mechanisms": []}]}
    ),
}
# (name, command, content): a bad file for either command, then stored
# artifacts of the other command's kind
BAD_STORED_CASES = [
    *(
        (name, command, content)
        for command in ["report --verdicts", "classify --results"]
        for name, content in BAD_STORED_FILES.items()
    ),
    ("verdicts", "classify --results", _STORED_TEXT["verdicts"]),
    ("results", "report --verdicts", _STORED_TEXT["results"]),
    ("target-url", "classify --results", _STORED_TEXT["target-url"]),
    ("target-url", "report --verdicts", _STORED_TEXT["target-url"]),
]


@pytest.mark.parametrize(
    "command, content",
    [pytest.param(c, t, id=f"{n}-{c}") for n, c, t in BAD_STORED_CASES],
)
def test_bad_stored_file_is_campaign_error(tmp_path, capsys, command, content):
    path = _write(tmp_path / "stored.json", content)
    assert main([*command.split(), path]) == EXIT_CAMPAIGN
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path in err


_PROBE = {"resolvers": [{"name": "Google", "address": "8.8.8.8"}]}
# for a number of the wrong kind: every address is on loopback, so a check
# that let the document through would send nothing off this host
_LOOPBACK_PROBE = {"resolvers": [{"name": "L", "address": "127.0.0.1", "port": 9}]}
_LOOPBACK_CIRCUMVENT = {"methods": ["WebDnsPlusHostHeader"], "default_address": "127.0.0.1"}
# (file kind, content, key named in the error or None); every other input of
# the command is valid
MALFORMED_INPUTS = {
    "probe-empty": ("probe", "{}", None),
    "probe-not-json": ("probe", "{", None),
    "probe-bad-address": (
        "probe", json.dumps({"resolvers": [{"name": "G", "address": "bogus"}]}), "resolvers"
    ),
    "probe-no-resolvers": ("probe", json.dumps({"resolvers": []}), None),
    "probe-zero-timeout": (
        "probe", json.dumps({**_PROBE, "timeouts": {"dns": 0}}), None
    ),
    "fingerprints-not-json": ("fingerprints", "nope", None),
    "fingerprints-no-signal": (
        "fingerprints",
        json.dumps({"digests": [], "patterns": [], "last_modified": []}),
        None,
    ),
    "fingerprints-list": ("fingerprints", "[1]", None),
    "reference-not-json": ("reference", "{]", None),
    "reference-entry-list": ("reference", json.dumps({"a.test": [1]}), "a.test"),
    "reference-list": ("reference", "[1]", None),
    "clean-not-json": ("clean", "", None),
    "clean-list": ("clean", "[1]", None),
    "clean-collapse-number": ("clean", json.dumps({"collapse_hosts": 5}), "collapse_hosts"),
    "circumvent-bad-method": ("circumvent", json.dumps({"methods": ["Nope"]}), "methods"),
    "circumvent-cache-engine": (
        "circumvent",
        json.dumps({"methods": ["SearchCache"], "cache_templates": {"Gogle": "http://g/{URL}"}}),
        "cache_templates",
    ),
    "circumvent-cache-removed-engine": (
        "circumvent",
        json.dumps({"methods": ["SearchCache"], "cache_templates": {"Bing": "http://b/{URL}"}}),
        "cache_templates",
    ),
    "circumvent-cache-no-url": (
        "circumvent",
        json.dumps({"methods": ["SearchCache"], "cache_templates": {"GoogleCache": "http://g/"}}),
        "cache_templates",
    ),
    "policy-zone-list": (
        "policy", json.dumps({"generation": "Ixp200", "zone": [1]}), "zone"
    ),
    "policy-body-number": (
        "policy", json.dumps({"generation": "Ixp200", "warning_body": 5}), "warning_body"
    ),
    "probe-zero-workers": ("probe", json.dumps({**_PROBE, "workers": 0}), None),
    "probe-override-name": (
        "probe", json.dumps({**_PROBE, "host_overrides": {"a.test": "a.example"}}),
        "host_overrides",
    ),
    "probe-negative-retries": ("probe", json.dumps({**_PROBE, "retries": -1}), None),
    "probe-http-port-range": ("probe", json.dumps({**_PROBE, "http_port": 70000}), None),
    "probe-resolver-port-range": (
        "probe",
        json.dumps({"resolvers": [{"name": "G", "address": "8.8.8.8", "port": 70000}]}),
        "resolvers",
    ),
    "clean-http-port-range": ("clean", json.dumps({"http_port": 70000}), "http_port"),
    "circumvent-http-port-range": (
        "circumvent", json.dumps({"methods": ["CoralCdn"], "http_port": 70000}), "http_port"
    ),
    "policy-body-file-number": (
        "policy",
        json.dumps({"generation": "Ixp200", "warning_body_file": 0}),
        "warning_body_file",
    ),
    # written as Infinity and NaN, which Python's json reads, as it reads 1e309 as inf
    "probe-infinite-timeout": (
        "probe", json.dumps({**_LOOPBACK_PROBE, "timeouts": {"dns": math.inf}}), None
    ),
    "probe-nan-timeout": (
        "probe", json.dumps({**_LOOPBACK_PROBE, "timeouts": {"tcp": math.nan}}), None
    ),
    "probe-float-workers": ("probe", json.dumps({**_LOOPBACK_PROBE, "workers": 2.5}), None),
    "probe-float-retries": ("probe", json.dumps({**_LOOPBACK_PROBE, "retries": 1.5}), None),
    "probe-bool-workers": ("probe", json.dumps({**_LOOPBACK_PROBE, "workers": True}), None),
    "probe-float-http-port": (
        "probe", json.dumps({**_LOOPBACK_PROBE, "http_port": 80.5}), "http_port"
    ),
    "probe-float-resolver-port": (
        "probe",
        json.dumps({"resolvers": [{"name": "L", "address": "127.0.0.1", "port": 9.5}]}),
        "resolvers",
    ),
    "circumvent-float-http-port": (
        "circumvent", json.dumps({**_LOOPBACK_CIRCUMVENT, "http_port": 80.5}), "http_port"
    ),
    "circumvent-table-address-number": (
        "circumvent",
        json.dumps({**_LOOPBACK_CIRCUMVENT, "host_ip_table": {"a.test": 5}}),
        "host_ip_table",
    ),
    "circumvent-default-address-number": (
        "circumvent", json.dumps({**_LOOPBACK_CIRCUMVENT, "default_address": 5}), "default_address"
    ),
    # a value of the wrong JSON type, where a cast would once have read it as
    # something else; a clean case that got through would skip the liveness
    # pass or fetch from loopback
    "clean-skip-liveness-string": (
        "clean", json.dumps({"skip_liveness": "false"}), "skip_liveness"
    ),
    "clean-skip-liveness-number": ("clean", json.dumps({"skip_liveness": 1}), "skip_liveness"),
    "clean-collapse-string": (
        "clean", json.dumps({"collapse_hosts": "a.test", "skip_liveness": True}), "collapse_hosts"
    ),
    "clean-override-number": (
        "clean", json.dumps({"host_overrides": {"a.test": 5}}), "host_overrides"
    ),
    "reference-addresses-string": (
        "reference", json.dumps({"a.test": {"addresses": "192.0.2.1"}}), "a.test: addresses"
    ),
    "reference-digest-number": (
        "reference", json.dumps({"a.test": {"body_digest": 5}}), "a.test: body_digest"
    ),
    "fingerprints-digests-string": ("fingerprints", json.dumps({"digests": "abc"}), "digests"),
    "fingerprints-patterns-string": (
        "fingerprints", json.dumps({"patterns": "not accessible"}), "patterns"
    ),
    "fingerprints-last-modified-string": (
        "fingerprints", json.dumps({"last_modified": "Fri"}), "last_modified"
    ),
    "probe-resolver-address-number": (
        "probe",
        json.dumps({"resolvers": [{"name": "L", "address": 2130706433, "port": 9}]}),
        "resolvers: address",
    ),
    "probe-redirector-number": (
        "probe",
        json.dumps({"resolvers": [{**_LOOPBACK_PROBE["resolvers"][0], "nxdomain_redirector": 5}]}),
        "resolvers: nxdomain_redirector",
    ),
    "probe-override-pairs": (
        "probe",
        json.dumps({**_LOOPBACK_PROBE, "host_overrides": [["a.test", "127.0.0.1"]]}),
        "host_overrides",
    ),
    "probe-bool-timeout": (
        "probe", json.dumps({**_LOOPBACK_PROBE, "timeouts": {"dns": True}}), "timeouts: dns"
    ),
    "probe-timeouts-list": ("probe", json.dumps({**_LOOPBACK_PROBE, "timeouts": [1]}), "timeouts"),
    "policy-interception-string": (
        "policy",
        json.dumps({"generation": "Ixp200", "keyword_portal_interception": "false"}),
        "keyword_portal_interception",
    ),
    "policy-interception-number": (
        "policy",
        json.dumps({"generation": "Ixp200", "keyword_portal_interception": 1}),
        "keyword_portal_interception",
    ),
    "policy-zone-string": (
        "policy", json.dumps({"generation": "Ixp200", "zone": {"a.test": "127.0.0.1"}}), "zone"
    ),
}


@pytest.mark.parametrize(
    "kind, content, key", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS
)
def test_malformed_input_file_is_campaign_error(tmp_path, capsys, kind, content, key):
    path = _write(tmp_path / "input.json", content)
    targets = _write(tmp_path / "targets.txt", "http://a.test/\n")
    results = str(tmp_path / "results.json")
    report.emit([], results)
    argv = {
        "probe": ["probe", "--targets", targets, "--config", path, "--out", results],
        "fingerprints": ["classify", "--results", results, "--fingerprints", path],
        "reference": ["classify", "--results", results, "--reference", path],
        "clean": ["clean", "--targets", targets, "--config", path, "--out", results],
        "circumvent": ["circumvent", "--targets", targets, "--config", path],
        "policy": ["emulate", "--policy", path],
    }[kind]
    assert main(argv) == EXIT_CAMPAIGN
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    if key is not None:
        assert err.startswith(f"error: {path}: {key}: ")


_FULL_PROBE = {
    "resolvers": [
        {"name": "Google", "address": "8.8.8.8"},
        {
            "name": "Comodo",
            "address": "8.26.56.26",
            "nxdomain_redirector": "92.242.144.50",
            "port": 5353,
        },
    ],
    "keyword_portal": "http://portal.test",
    "timeouts": {"dns": 100, "tcp": 200, "http": 300},
    "retries": 0,
    "workers": 3,
    "host_overrides": {"portal.test": "127.0.0.1"},
    "http_port": 8080,
    "unknown": "ignored",
}
# (builder, document, the object built by hand): a full and a minimal
# document of each kind the tool reads
VALID_DOCUMENTS = {
    "probe-full": (
        probe_config,
        _FULL_PROBE,
        ProbeConfig(
            resolvers=[
                ResolverSpec("Google", "8.8.8.8"),
                ResolverSpec("Comodo", "8.26.56.26", "92.242.144.50", port=5353),
            ],
            keyword_portal=parse_target("http://portal.test"),
            dns_timeout_ms=100,
            tcp_timeout_ms=200,
            http_timeout_ms=300,
            retries=0,
            workers=3,
            host_overrides={"portal.test": "127.0.0.1"},
            http_port=8080,
        ),
    ),
    "probe-minimal": (
        probe_config, _PROBE, ProbeConfig(resolvers=[ResolverSpec("Google", "8.8.8.8")])
    ),
    "fingerprints-full": (
        fingerprint_set,
        {"digests": ["d1", "d2"], "patterns": ["not accessible"], "last_modified": ["Fri"]},
        FingerprintSet(
            warning_page_digests=frozenset({"d1", "d2"}),
            warning_excerpt_patterns=(b"not accessible",),
            injected_last_modified=("Fri",),
        ),
    ),
    "fingerprints-minimal": (
        fingerprint_set,
        {"patterns": ["x"]},
        FingerprintSet(warning_excerpt_patterns=(b"x",), injected_last_modified=()),
    ),
    "reference-full": (
        references,
        {"a.test": {"addresses": ["192.0.2.1"], "body_digest": "ab"}, "b.test": {}},
        {"a.test": Reference(("192.0.2.1",), "ab"), "b.test": Reference()},
    ),
    "reference-minimal": (references, {}, {}),
    "clean-full": (
        clean_config,
        {
            "collapse_hosts": ["youtube.com"],
            "http_port": 8080,
            "host_overrides": {"a.test": "127.0.0.1"},
            "skip_liveness": True,
        },
        {
            "collapse_hosts": {"youtube.com"},
            "http_port": 8080,
            "host_overrides": {"a.test": "127.0.0.1"},
            "skip_liveness": True,
        },
    ),
    "clean-minimal": (clean_config, {}, {}),
    "circumvent-full": (
        circumvention_config,
        {
            "methods": ["CoralCdn", "SearchCache"],
            "host_ip_table": {"a.test": "192.0.2.1"},
            "cache_templates": {"GoogleCache": "http://cache.test/{URL}"},
            "http_port": 8080,
            "default_address": "127.0.0.1",
        },
        CircumventionConfig(
            methods=[Method.CoralCdn, Method.SearchCache],
            host_ip_table={"a.test": "192.0.2.1"},
            cache_templates={**DEFAULT_CACHE_TEMPLATES, "GoogleCache": "http://cache.test/{URL}"},
            http_port=8080,
            default_address="127.0.0.1",
        ),
    ),
    "circumvent-minimal": (
        circumvention_config, {"methods": ["CoralCdn"]}, CircumventionConfig([Method.CoralCdn])
    ),
    # null is the one value a key whose default is None may take
    "circumvent-null-default-address": (
        circumvention_config,
        {"methods": ["CoralCdn"], "default_address": None},
        CircumventionConfig([Method.CoralCdn]),
    ),
    "probe-null-redirector": (
        probe_config,
        {"resolvers": [{"name": "Google", "address": "8.8.8.8", "nxdomain_redirector": None}]},
        ProbeConfig(resolvers=[ResolverSpec("Google", "8.8.8.8")]),
    ),
    "stored-full": (
        report.from_jsonable,
        report.to_jsonable(_STORED["verdicts"]),
        _STORED["verdicts"],
    ),
    "stored-minimal": (report.from_jsonable, {"kind": "list", "items": []}, []),
}


@pytest.mark.parametrize(
    "build, doc, expected", VALID_DOCUMENTS.values(), ids=VALID_DOCUMENTS
)
def test_valid_document_loads_to_object_built_by_hand(tmp_path, build, doc, expected):
    path = _write(tmp_path / "input.json", json.dumps(doc))
    with open(path, encoding="utf-8") as fh:
        assert read_document(fh, build) == expected
    assert read_document(json.dumps(doc), build) == expected


def test_workers_option_overrides_probe_config(tmp_path, capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(
        "censorprobe.probe.run_campaign", lambda targets, config: seen.append(config) or []
    )
    config = _write(tmp_path / "probe.json", json.dumps({**_PROBE, "workers": 3}))
    targets = _write(tmp_path / "targets.txt", "http://a.test/\n")
    out = str(tmp_path / "results.json")
    argv = ["probe", "--targets", targets, "--config", config, "--out", out]
    assert main(argv) == EXIT_OK
    assert main([*argv, "--workers", "5"]) == EXIT_OK
    assert [c.workers for c in seen] == [3, 5]


@pytest.mark.parametrize("command", ["probe", "circumvent"])
def test_rejected_target_lines_are_reported(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(
        "censorprobe.probe.run_campaign",
        lambda targets, config: [TargetProbeResult(target=t) for t in targets],
    )
    targets = tmp_path / "targets.txt"
    targets.write_bytes(b"http://a.test/\nnot a url\nhttp://b.test/caf\xff\n")
    config = {"probe": _PROBE, "circumvent": {"methods": ["CoralCdn"]}}[command]
    config = _write(tmp_path / "config.json", json.dumps(config))
    out = str(tmp_path / "out.json")
    argv = [command, "--targets", str(targets), "--config", config, "--out", out]
    assert main(argv) == EXIT_OK
    stdout = capsys.readouterr().out
    assert stdout.startswith("1 targets ")
    assert stdout.endswith(f"-> {out} (2 malformed lines skipped)\n")


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_option_must_be_positive(tmp_path, capsys, monkeypatch, workers):
    monkeypatch.setattr(
        "censorprobe.probe.run_campaign", lambda targets, config: pytest.fail("probed")
    )
    config = _write(tmp_path / "probe.json", json.dumps(_PROBE))
    targets = _write(tmp_path / "targets.txt", "http://a.test/\n")
    argv = ["probe", "--targets", targets, "--config", config, "--out", "x.json"]
    assert main([*argv, "--workers", workers]) == EXIT_USAGE
    assert "--workers" in capsys.readouterr().err


class TestReport:
    def test_empty_verdicts_is_campaign_error(self, tmp_path, capsys):
        path = str(tmp_path / "verdicts.json")
        report.emit([], path)
        assert main(["report", "--verdicts", path]) == EXIT_CAMPAIGN

    def test_report_out_round_trips(self, tmp_path, capsys):
        verdicts = [
            Verdict(
                target=parse_target("http://a.test/"),
                mechanisms=frozenset({Mechanism.DnsInjection}),
            )
        ]
        vpath = str(tmp_path / "verdicts.json")
        report.emit(verdicts, vpath)
        out = str(tmp_path / "report.json")
        assert main(["report", "--verdicts", vpath, "--out", out]) == EXIT_OK
        assert report.load(out).blocked_total == 1


def test_cli_import_loads_no_asyncio_ssl_or_thread_pool():
    # the package has one event loop of its own; none of these may creep back
    code = (
        "import sys, censorprobe.cli; "
        "print([m for m in ('asyncio', 'ssl', 'concurrent.futures') if m in sys.modules])"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout == "[]\n"
