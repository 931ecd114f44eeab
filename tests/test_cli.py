import json

import pytest

from censorprobe import report
from censorprobe.cli import EXIT_CAMPAIGN, EXIT_OK, EXIT_USAGE, main
from censorprobe.model import (
    PUBLIC_RESOLVERS,
    DnsObservation,
    DnsOutcome,
    Mechanism,
    ResolverSpec,
    Verdict,
    parse_target,
)
from censorprobe.probe import TargetProbeResult

from conftest import probe_config_for


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

    def test_missing_file_is_campaign_error(self, tmp_path, capsys):
        assert main(["clean", "--targets", str(tmp_path / "nope")]) == EXIT_CAMPAIGN


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


BAD_STORED_FILES = {
    "not-json": "{not json",
    "unknown-kind": json.dumps({"kind": "Mystery"}),
    "missing-field": json.dumps(
        {"kind": "list", "items": [{"kind": "Verdict", "mechanisms": []}]}
    ),
}


@pytest.mark.parametrize("command", ["report --verdicts", "classify --results"])
@pytest.mark.parametrize("content", BAD_STORED_FILES.values(), ids=BAD_STORED_FILES)
def test_bad_stored_file_is_campaign_error(tmp_path, capsys, command, content):
    path = _write(tmp_path / "stored.json", content)
    assert main([*command.split(), path]) == EXIT_CAMPAIGN
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path in err


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
