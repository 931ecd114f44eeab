"""Verdict aggregation into the summary-table format, plus JSON
serialization (emit/load) for every domain type."""

from __future__ import annotations

import base64
import enum
import functools
import json
import types
import typing
from dataclasses import dataclass, fields
from decimal import ROUND_HALF_EVEN, Decimal

from .dataset import CleaningReport, RemovalReason
from .emulator import SessionTranscript
from .model import (
    DnsObservation,
    HttpObservation,
    Mechanism,
    ResolverSpec,
    TargetUrl,
    TcpObservation,
    Verdict,
    read_document,
)
from .probe import TargetProbeResult

MECHANISM_LABELS = {
    Mechanism.DnsInjection: "DNS",
    Mechanism.IpBlock: "IP",
    Mechanism.UrlKeyword: "URL-keyword",
    Mechanism.Http302Redirect: "HTTP (302)",
    Mechanism.Http200Injection: "HTTP (200)",
}


class EmptyCampaign(ValueError):
    pass


def _percent(count: int, total: int) -> Decimal:
    return (Decimal(count) * 100 / Decimal(total)).quantize(
        Decimal("0.01"), rounding=ROUND_HALF_EVEN
    )


@dataclass
class RunReport:
    total: int
    counts: dict[Mechanism, int]
    percents: dict[Mechanism, Decimal]
    blocked_total: int
    blocked_percent: Decimal
    inconclusive: int = 0
    error_logged: int = 0


def aggregate(verdicts: list[Verdict], total: int, error_logged: int = 0) -> RunReport:
    """Count affected sites per mechanism; percents are count/total*100
    rounded half-even to two decimals. Error-logged targets must already
    be excluded from verdicts."""
    if total == 0:
        raise EmptyCampaign("total of zero targets")
    if total < len(verdicts):
        raise ValueError(f"total {total} smaller than verdict count {len(verdicts)}")
    counts = dict.fromkeys(MECHANISM_LABELS, 0)
    blocked = 0
    inconclusive = 0
    for v in verdicts:
        if v.mechanisms:
            blocked += 1
        if v.inconclusive:
            inconclusive += 1
        for m in v.mechanisms:
            counts[m] += 1
    return RunReport(
        total=total,
        counts=counts,
        percents={m: _percent(c, total) for m, c in counts.items()},
        blocked_total=blocked,
        blocked_percent=_percent(blocked, total),
        inconclusive=inconclusive,
        error_logged=error_logged,
    )


def render_table(report: RunReport) -> str:
    """Fixed-column text table, one row per mechanism plus a Total row."""
    rows = [("Mechanism", "No. of Affected Sites", "Percent")]
    for m, label in MECHANISM_LABELS.items():
        rows.append((label, str(report.counts[m]), str(report.percents[m])))
    rows.append(("Total", str(report.blocked_total), str(report.blocked_percent)))
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
        if i == 0 or i == len(rows) - 2:
            lines.append("-" * (sum(widths) + 4))
    if report.inconclusive:
        lines.append(f"Inconclusive HTTP evidence: {report.inconclusive} target(s)")
    if report.error_logged:
        lines.append(f"Excluded by error log: {report.error_logged} target(s)")
    return "\n".join(lines) + "\n"


# --- serialization ----------------------------------------------------------
# A stored value is {"kind": <class name>, <field>: <value>, ...}, keys in field
# order; a list is {"kind": "list", "items": [...]}. Each field's JSON form
# follows from its annotation (_codec), except CleaningReport.removed; Verdict
# also writes its derived "clean" key, which loading ignores.

STORED_KINDS = (
    TargetUrl, ResolverSpec, DnsObservation, TcpObservation, HttpObservation,
    Verdict, TargetProbeResult, CleaningReport, RunReport, SessionTranscript,
)
_KINDS = {cls.__name__: cls for cls in STORED_KINDS}
_DERIVED = {Verdict: ("clean",)}


def _codec(tp):
    """(encode, decode) for a value annotated `tp`; (None, None) when JSON
    holds the value as it is."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp in (str, int, float, bool):
        return None, None
    if tp in STORED_KINDS:
        return to_jsonable, from_jsonable
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return (lambda v: v.value), tp
    if tp is bytes:
        return (lambda v: base64.b64encode(v).decode("ascii")), base64.b64decode
    if tp is Decimal:
        return str, Decimal
    if origin is types.UnionType:  # X | None
        (inner,) = set(args) - {type(None)}
        enc, dec = _codec(inner)
        if enc is None:
            return enc, dec
        return (
            lambda v: None if v is None else enc(v),
            lambda d: None if d is None else dec(d),
        )
    if origin in (tuple, list, frozenset):  # a frozenset is a sorted list
        (item,) = set(args) - {Ellipsis}
        order = sorted if origin is frozenset else list
        enc, dec = _codec(item)
        if enc is None:
            return order, origin
        return (
            lambda v: order([enc(x) for x in v]),
            lambda d: origin([dec(x) for x in d]),
        )
    if origin is dict:  # Enum keys
        (enc_k, dec_k), (enc_v, dec_v) = _codec(args[0]), _codec(args[1])
        return (
            lambda v: {enc_k(k): x if enc_v is None else enc_v(x) for k, x in v.items()},
            lambda d: {dec_k(k): x if dec_v is None else dec_v(x) for k, x in d.items()},
        )
    raise TypeError(f"no stored format for {tp!r}")


_FIELD_CODECS = {
    (CleaningReport, "removed"): (
        lambda pairs: [{"target": to_jsonable(t), "reason": r.value} for t, r in pairs],
        lambda doc: [(from_jsonable(d["target"]), RemovalReason(d["reason"])) for d in doc],
    ),
}


@functools.cache
def _plan(cls) -> tuple:
    """(name, encode or None, decode or None) per field of a stored kind."""
    if cls not in STORED_KINDS:
        raise TypeError(f"cannot serialize {cls.__name__}")
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, *(_FIELD_CODECS.get((cls, f.name)) or _codec(hints[f.name])))
        for f in fields(cls)
    )


def to_jsonable(obj):
    """Encode a stored kind, or a list of them, as a JSON-safe dict with a
    "kind" tag."""
    cls = type(obj)
    if cls is list:
        return {"kind": "list", "items": [to_jsonable(x) for x in obj]}
    doc = {"kind": cls.__name__}
    for name, enc, _ in _plan(cls):
        value = getattr(obj, name)
        doc[name] = value if enc is None else enc(value)
    for name in _DERIVED.get(cls, ()):
        doc[name] = getattr(obj, name)
    return doc


def from_jsonable(doc):
    """Inverse of to_jsonable; raises TypeError for an unknown kind."""
    kind = doc.get("kind")
    if kind == "list":
        return [from_jsonable(x) for x in doc["items"]]
    cls = _KINDS.get(kind)
    if cls is None:
        raise TypeError(f"cannot deserialize kind {kind!r}")
    return cls(**{n: doc[n] if dec is None else dec(doc[n]) for n, _, dec in _plan(cls)})


def emit(artifact, destination: str) -> None:
    """Write an artifact as JSON; re-loading yields an equal value."""
    try:
        with open(destination, "w", encoding="utf-8") as fh:
            json.dump(to_jsonable(artifact), fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write {destination}: {exc}") from exc


def load(path: str):
    """Read an artifact written by emit. Raises OSError when the file cannot
    be read and InvalidDocument when it holds no stored artifact."""
    with open(path, encoding="utf-8") as fh:
        return read_document(fh, from_jsonable)
