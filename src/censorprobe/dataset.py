"""Target-list cleaning pipeline: collapse, dedupe, liveness filter."""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Callable, IO

from .model import MalformedUrl, TargetUrl, parse_target


class EmptyList(ValueError):
    pass


class RemovalReason(enum.Enum):
    CollapsedIntoDomain = "CollapsedIntoDomain"
    Duplicate = "Duplicate"
    Offline = "Offline"


@dataclass
class CleaningReport:
    initial_count: int
    after_collapse: int
    after_dedupe: int
    after_liveness: int
    removed: list[tuple[TargetUrl, RemovalReason]] = field(default_factory=list)


def load_target_list(source: IO[bytes] | IO[str]) -> tuple[list[TargetUrl], list[str]]:
    """Read one URL per line; '#' comments and blank lines are skipped.

    Returns (targets, rejected_lines). Malformed lines, those that are not
    UTF-8 included, are collected with each bad byte as a backslash escape,
    not fatal; raises EmptyList when no valid entry remains.
    """
    targets: list[TargetUrl] = []
    rejected: list[str] = []
    for line in source:
        if isinstance(line, bytes):
            # an undecodable byte becomes a lone surrogate, which parse_target rejects
            line = line.decode("utf-8", "surrogateescape")
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            targets.append(parse_target(line))
        except MalformedUrl:
            rejected.append(line.encode("utf-8", "backslashreplace").decode("utf-8"))
    if not targets:
        raise EmptyList("no valid entries in target list")
    return targets, rejected


def _matches_collapse(host: str, collapse_host: str) -> bool:
    return host == collapse_host or host.endswith("." + collapse_host)


def collapse_to_domains(
    targets: list[TargetUrl], collapse_hosts: set[str]
) -> tuple[list[TargetUrl], list[tuple[TargetUrl, RemovalReason]]]:
    """Replace every entry under a collapse host by one path="/" entry.

    The single domain entry takes the position of the first match; each
    collapse host with N matches therefore removes N-1 entries.
    """
    removed: list[tuple[TargetUrl, RemovalReason]] = []
    seen_collapse: set[str] = set()
    out: list[TargetUrl] = []
    for t in targets:
        hit = next((c for c in collapse_hosts if _matches_collapse(t.host, c)), None)
        if hit is None:
            out.append(t)
        elif hit not in seen_collapse:
            seen_collapse.add(hit)
            out.append(parse_target(f"http://{hit}/"))
        else:
            removed.append((t, RemovalReason.CollapsedIntoDomain))
    return out, removed


def dedupe(
    targets: list[TargetUrl],
) -> tuple[list[TargetUrl], list[tuple[TargetUrl, RemovalReason]]]:
    """Keep the first occurrence of each (host, path, query) triple."""
    seen: set[tuple[str, str, str | None]] = set()
    out: list[TargetUrl] = []
    removed: list[tuple[TargetUrl, RemovalReason]] = []
    for t in targets:
        key = (t.host, t.path, t.query)
        if key in seen:
            removed.append((t, RemovalReason.Duplicate))
        else:
            seen.add(key)
            out.append(t)
    return out, removed


# A clean-path fetch returns the HTTP status code for a target, raising
# OSError (or a subclass) on DNS or connection failure.
CleanFetch = Callable[[TargetUrl], int]

LIVENESS_PAUSES = (1.0, 2.0)  # seconds between the three attempts at one target


def liveness_filter(
    targets: list[TargetUrl],
    clean_path: CleanFetch,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[list[TargetUrl], list[tuple[TargetUrl, RemovalReason]]]:
    """Drop entries unreachable over the uncensored channel.

    A target is offline when all three attempts, LIVENESS_PAUSES apart,
    fail at the DNS or connection level; HTTP error codes (4xx/5xx) still
    count as alive.
    """

    def alive(t: TargetUrl) -> bool:
        for pause in (*LIVENESS_PAUSES, None):
            try:
                clean_path(t)
                return True
            except OSError:
                if pause is None:
                    return False
                sleep(pause)

    out: list[TargetUrl] = []
    removed: list[tuple[TargetUrl, RemovalReason]] = []
    for t in targets:
        if alive(t):
            out.append(t)
        else:
            removed.append((t, RemovalReason.Offline))
    return out, removed


def clean_pipeline(
    targets: list[TargetUrl],
    collapse_hosts: set[str],
    clean_path: CleanFetch | None,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[list[TargetUrl], CleaningReport]:
    """Run collapse, then dedupe, then liveness; order is fixed.

    With clean_path None the liveness filter is skipped and keeps every
    entry.
    """
    initial = len(targets)
    collapsed, removed_c = collapse_to_domains(targets, collapse_hosts)
    deduped, removed_d = dedupe(collapsed)
    if clean_path is None:
        live, removed_l = deduped, []
    else:
        live, removed_l = liveness_filter(deduped, clean_path, sleep=sleep)
    report = CleaningReport(
        initial_count=initial,
        after_collapse=len(collapsed),
        after_dedupe=len(deduped),
        after_liveness=len(live),
        removed=removed_c + removed_d + removed_l,
    )
    return live, report
