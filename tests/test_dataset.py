import io

import pytest
from hypothesis import given, strategies as st

from censorprobe.dataset import (
    EmptyList,
    RemovalReason,
    clean_pipeline,
    collapse_to_domains,
    dedupe,
    liveness_filter,
    load_target_list,
)
from censorprobe.model import parse_target


def _targets(*urls):
    return [parse_target(u) for u in urls]


class TestLoadTargetList:
    def test_comments_and_blanks_skipped(self):
        text = "# header\nhttp://a.com\n\nhttp://b.com\nhttp://c.com\n"
        targets, rejected = load_target_list(io.StringIO(text))
        assert [t.host for t in targets] == ["a.com", "b.com", "c.com"]
        assert rejected == []

    def test_malformed_collected_not_fatal(self):
        text = "http://a.com\nnot a url\nhttp://b.com\nc.com\nd.com/x\n"
        targets, rejected = load_target_list(io.StringIO(text))
        assert len(targets) == 4
        assert rejected == ["not a url"]

    def test_bytes_input(self):
        targets, _ = load_target_list(io.BytesIO(b"http://a.com\n"))
        assert targets[0].host == "a.com"

    def test_empty_list_rejected(self):
        with pytest.raises(EmptyList):
            load_target_list(io.StringIO("# only comments\n"))

    @given(st.binary().map(lambda line: line.replace(b"\n", b"")))
    def test_any_bytes_line_is_a_target_or_rejected(self, line):
        targets, rejected = load_target_list(io.BytesIO(b"http://ok.test/\n" + line + b"\n"))
        text = line.decode("utf-8", "surrogateescape").strip()
        skipped = not text or text.startswith("#")
        assert len(targets) + len(rejected) == (1 if skipped else 2)
        for entry in rejected:
            entry.encode("utf-8")  # printable: no lone surrogate is left

    def test_undecodable_line_is_rejected(self):
        raw = b"http://a.test/\nhttp://b.test/caf\xff\n\xfe\n# caf\xe9\n"
        targets, rejected = load_target_list(io.BytesIO(raw))
        assert [t.host for t in targets] == ["a.test"]
        assert rejected == ["http://b.test/caf\\udcff", "\\udcfe"]


class TestCollapse:
    def test_two_into_one(self):
        targets = _targets(
            "http://youtube.com/watch?v=a", "http://youtube.com/watch?v=b", "http://x.com"
        )
        out, removed = collapse_to_domains(targets, {"youtube.com"})
        assert [(t.host, t.path) for t in out] == [("youtube.com", "/"), ("x.com", "/")]
        assert len(removed) == 1
        assert removed[0][1] is RemovalReason.CollapsedIntoDomain

    def test_subdomains_collapse_too(self):
        targets = _targets("http://www.youtube.com/v/1", "http://youtube.com/v/2")
        out, removed = collapse_to_domains(targets, {"youtube.com"})
        assert len(out) == 1 and len(removed) == 1

    def test_no_match_is_noop(self):
        targets = _targets("http://a.com", "http://b.com")
        out, removed = collapse_to_domains(targets, {"youtube.com"})
        assert out == targets
        assert removed == []

    def test_order_of_untouched_preserved(self):
        targets = _targets("http://a.com", "http://youtube.com/v/1", "http://b.com")
        out, _ = collapse_to_domains(targets, {"youtube.com"})
        assert [t.host for t in out] == ["a.com", "youtube.com", "b.com"]


class TestDedupe:
    def test_first_kept(self):
        targets = _targets("http://a.com/", "http://a.com/", "http://b.com/")
        out, removed = dedupe(targets)
        assert [t.host for t in out] == ["a.com", "b.com"]
        assert removed[0][1] is RemovalReason.Duplicate

    def test_normalized_equality(self):
        # differing raw text, same (host, path, query)
        targets = _targets("http://A.com", "a.com/", "http://a.com")
        out, removed = dedupe(targets)
        assert len(out) == 1 and len(removed) == 2

    def test_idempotent(self):
        targets = _targets("http://a.com/", "http://a.com/x", "http://a.com/")
        once, _ = dedupe(targets)
        twice, removed = dedupe(once)
        assert twice == once and removed == []


class TestLiveness:
    def test_dead_hosts_dropped_after_retries(self):
        attempts = {}

        def fetch(t):
            attempts[t.host] = attempts.get(t.host, 0) + 1
            if t.host.startswith("dead"):
                raise ConnectionError("no route")
            return 200

        targets = _targets("http://a.com", "http://dead1.com", "http://dead2.com")
        out, removed = liveness_filter(targets, fetch, sleep=lambda s: None)
        assert [t.host for t in out] == ["a.com"]
        assert {t.host for t, _ in removed} == {"dead1.com", "dead2.com"}
        assert all(r is RemovalReason.Offline for _, r in removed)
        assert attempts["dead1.com"] == 3

    def test_dead_host_pauses_one_then_two_seconds(self):
        def fetch(t):
            raise ConnectionError("no route")

        sleeps = []
        out, removed = liveness_filter(_targets("http://dead.com"), fetch, sleep=sleeps.append)
        assert out == [] and len(removed) == 1
        assert sleeps == [1.0, 2.0]

    def test_http_errors_count_as_alive(self):
        out, removed = liveness_filter(
            _targets("http://a.com"), lambda t: 503, sleep=lambda s: None
        )
        assert len(out) == 1 and removed == []

    def test_all_alive_unchanged(self):
        targets = _targets("http://a.com", "http://b.com")
        out, removed = liveness_filter(targets, lambda t: 200, sleep=lambda s: None)
        assert out == targets and removed == []


class TestPipeline:
    def test_counts_monotone_and_removed_balanced(self):
        targets = _targets(
            "http://youtube.com/watch?v=a",
            "http://youtube.com/watch?v=b",
            "http://a.com",
            "http://a.com",
            "http://dead.com",
            "http://b.com",
        )

        def fetch(t):
            if t.host == "dead.com":
                raise ConnectionError("down")
            return 200

        cleaned, rep = clean_pipeline(targets, {"youtube.com"}, fetch, sleep=lambda s: None)
        assert rep.initial_count >= rep.after_collapse >= rep.after_dedupe >= rep.after_liveness
        assert len(rep.removed) == rep.initial_count - rep.after_liveness
        assert [t.host for t in cleaned] == ["youtube.com", "a.com", "b.com"]

    def test_every_removed_entry_has_one_reason(self):
        targets = _targets("http://a.com", "http://a.com", "http://youtube.com/v/1",
                           "http://youtube.com/v/2")
        _, rep = clean_pipeline(targets, {"youtube.com"}, lambda t: 200, sleep=lambda s: None)
        assert all(isinstance(r, RemovalReason) for _, r in rep.removed)
        assert len(rep.removed) == 2

    def test_no_clean_path_skips_liveness(self):
        targets = _targets("http://a.com", "http://a.com", "http://dead.com",
                           "http://youtube.com/v/1", "http://youtube.com/v/2")
        cleaned, rep = clean_pipeline(targets, {"youtube.com"}, None)
        assert [t.host for t in cleaned] == ["a.com", "dead.com", "youtube.com"]
        assert (rep.initial_count, rep.after_collapse, rep.after_dedupe,
                rep.after_liveness) == (5, 4, 3, 3)
        assert [r for _, r in rep.removed] == [
            RemovalReason.CollapsedIntoDomain, RemovalReason.Duplicate
        ]
