"""Target-list cleaning pipeline: collapse, dedupe, liveness filter."""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Callable, IO

from .model import MalformedUrl, TargetUrl, parse_target


class EmptyList(ValueError):
    pass


class CleanPathUnavailable(RuntimeError):
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

    Returns (targets, rejected_lines). Malformed lines are collected, not
    fatal; raises EmptyList when no valid entry remains.
    """
    targets: list[TargetUrl] = []
    rejected: list[str] = []
    for line in source:
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            targets.append(parse_target(line))
        except MalformedUrl:
            rejected.append(line)
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


def liveness_filter(
    targets: list[TargetUrl],
    clean_path: CleanFetch,
    control: TargetUrl | None = None,
    attempts: int = 3,
    backoff: tuple[float, ...] = (1.0, 2.0, 4.0),
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[list[TargetUrl], list[tuple[TargetUrl, RemovalReason]]]:
    """Drop entries unreachable over the uncensored channel.

    A target is offline when every attempt fails at the DNS or connection
    level; HTTP error codes (4xx/5xx) still count as alive. When a control
    URL is given it is fetched first; its failure means the clean channel
    itself is broken and CleanPathUnavailable is raised.
    """
    if control is not None:
        try:
            clean_path(control)
        except OSError as exc:
            raise CleanPathUnavailable(f"control fetch failed: {exc}") from exc

    def alive(t: TargetUrl) -> bool:
        for i in range(attempts):
            try:
                clean_path(t)
                return True
            except OSError:
                if i < attempts - 1:
                    sleep(backoff[min(i, len(backoff) - 1)])
        return False

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
    control: TargetUrl | None = None,
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
        live, removed_l = liveness_filter(
            deduped, clean_path, control=control, sleep=sleep
        )
    report = CleaningReport(
        initial_count=initial,
        after_collapse=len(collapsed),
        after_dedupe=len(deduped),
        after_liveness=len(live),
        removed=removed_c + removed_d + removed_l,
    )
    return live, report
